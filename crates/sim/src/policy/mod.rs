//! Replacement policies for the simulated L1 instruction cache.
//!
//! Every policy from the paper's §II-D is implemented: [`LruPolicy`],
//! [`RandomPolicy`], [`SrripPolicy`], [`DrripPolicy`], [`GhrpPolicy`],
//! [`HawkeyePolicy`] (with its prefetch-aware Harmony variant) and the
//! offline ideals [`OptPolicy`] / [`DemandMinPolicy`] driven by a
//! [`FutureIndex`].

mod ghrp;
mod hawkeye;
mod ideal;
mod lru;
mod plru;
mod random;
pub mod registry;
mod rrip;
mod trrip;

pub use ghrp::GhrpPolicy;
pub use hawkeye::HawkeyePolicy;
pub use ideal::{DemandMinPolicy, FutureIndex, OptPolicy, StreamRecord, NEVER};
pub use lru::LruPolicy;
pub use plru::TreePlruPolicy;
pub use random::RandomPolicy;
pub use registry::{
    PolicyConstructor, PolicyDescriptor, PolicyFamily, PolicyId, PolicyRegistry, RegistryError,
};
pub use rrip::{DrripPolicy, SrripPolicy};
pub use trrip::{Temperature, TemperatureMap, TrripPolicy};

use ripple_program::Addr;

use crate::config::{CacheGeometry, SimConfig};
use crate::intern::LineId;
use crate::policy::registry::PolicyKind;

/// Context handed to a policy on every cache event.
///
/// Lines are named by dense [`LineId`]s; policies only ever compare them
/// for equality (history matching, victim buffers), so any injective
/// mapping from addresses to ids yields identical decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    /// The accessed line.
    pub line: LineId,
    /// The set it maps to.
    pub set: u32,
    /// The fetch address responsible for the access (block start).
    pub pc: Addr,
    /// Whether this is a prefetch rather than a demand fetch.
    pub is_prefetch: bool,
    /// Global position of this access in the request stream.
    pub seq: u64,
}

/// A policy's read-only view of one way during victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayView {
    /// The valid line in this way.
    pub line: LineId,
    /// Whether the line was installed by a prefetch and has not yet been
    /// demand-accessed.
    pub prefetched: bool,
}

/// A cache replacement policy.
///
/// The cache calls [`on_fill`](Self::on_fill) / [`on_hit`](Self::on_hit)
/// for bookkeeping and [`victim`](Self::victim) only when the target set is
/// full. The `invalidate` / `demote` hooks support Ripple's injected
/// instruction.
///
/// This trait is not sealed: downstream users may implement their own
/// policies and run them through the engine.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// On-chip metadata this policy requires for `geom`, in bytes
    /// (reproduces the paper's Table I).
    fn metadata_bytes(&self, geom: &CacheGeometry) -> u64;

    /// A line was filled into `way` of `info.set`.
    fn on_fill(&mut self, info: &AccessInfo, way: usize);

    /// An access hit `way` of `info.set`.
    fn on_hit(&mut self, info: &AccessInfo, way: usize);

    /// Chooses the way to evict from a full set. `ways.len()` equals the
    /// associativity; the return value must index into it.
    fn victim(&mut self, info: &AccessInfo, ways: &[WayView]) -> usize;

    /// A valid line was evicted from `way` of `set`.
    fn on_evict(&mut self, set: u32, way: usize, line: LineId) {
        let _ = (set, way, line);
    }

    /// A line was invalidated in `way` of `set` (Ripple's instruction).
    fn on_invalidate(&mut self, set: u32, way: usize) {
        let _ = (set, way);
    }

    /// A line was demoted to the bottom of the replacement order in `way`
    /// of `set` (Ripple's LRU-demote mechanism). Defaults to a no-op for
    /// policies without a recency order.
    fn on_demote(&mut self, set: u32, way: usize) {
        let _ = (set, way);
    }
}

/// Builds `policy` for `config`'s L1I via its registry descriptor.
///
/// # Panics
///
/// Panics for offline ideals ([`PolicyId::OPT`] / [`PolicyId::DEMAND_MIN`]),
/// which require a recorded [`FutureIndex`]; use [`build_ideal_policy`]
/// for those.
pub fn build_policy(policy: PolicyKind, config: &SimConfig) -> Box<dyn ReplacementPolicy> {
    match policy.descriptor().constructor {
        PolicyConstructor::Online(build) => build(config),
        PolicyConstructor::Offline(_) => panic!(
            "offline ideal policy {} needs a FutureIndex; use build_ideal_policy",
            policy.name()
        ),
    }
}

/// Builds an offline-ideal policy over a recorded future index, via the
/// registry descriptor.
///
/// # Panics
///
/// Panics if `kind` is not an offline ideal
/// (`kind.needs_future_index()` is false).
pub fn build_ideal_policy(
    kind: PolicyKind,
    geom: CacheGeometry,
    future: std::sync::Arc<FutureIndex>,
) -> Box<dyn ReplacementPolicy> {
    match kind.descriptor().constructor {
        PolicyConstructor::Offline(build) => build(geom, future),
        PolicyConstructor::Online(_) => {
            panic!("{} is not an offline ideal policy", kind.name())
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::cache::Cache;

    /// Runs `stream` of (line, is_prefetch) through a fresh cache with
    /// `policy`, returning the number of demand misses.
    pub fn demand_misses(
        geom: CacheGeometry,
        policy: Box<dyn ReplacementPolicy>,
        stream: &[(u64, bool)],
    ) -> u64 {
        let mut cache: Cache<dyn ReplacementPolicy> = Cache::new(geom, policy);
        let mut misses = 0;
        for (seq, &(line, pf)) in stream.iter().enumerate() {
            let pc = ripple_program::LineAddr::new(line).base_addr();
            let line = LineId::new(u32::try_from(line).expect("test line index fits u32"));
            let out = cache.access(line, pc, pf, seq as u64);
            if !pf && !out.is_hit() {
                misses += 1;
            }
        }
        misses
    }

    /// A tiny 2-set × 2-way geometry for policy unit tests.
    pub fn tiny_geom() -> CacheGeometry {
        CacheGeometry::new(4 * 64, 2)
    }
}
