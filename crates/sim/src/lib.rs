//! Trace-driven CPU frontend and I-cache simulator for the Ripple
//! reproduction (the paper's modified-ZSim substrate, rebuilt in Rust).
//!
//! The crate provides:
//!
//! * a set-associative [`Cache`] with a pluggable [`ReplacementPolicy`];
//! * every policy from the paper's §II-D ([`LruPolicy`], [`RandomPolicy`],
//!   [`SrripPolicy`], [`DrripPolicy`], [`GhrpPolicy`], [`HawkeyePolicy`] /
//!   Harmony) plus the offline ideals [`OptPolicy`] and
//!   [`DemandMinPolicy`];
//! * instruction prefetchers (next-line and FDIP with a gshare/BTB/RAS
//!   [`BranchPredictor`] and a fetch target queue);
//! * a frontend timing model charging demand-miss stalls through a
//!   simulated L2/L3 (Table II latencies);
//! * the `invalidate` instruction Ripple injects (invalidate or
//!   LRU-demote semantics);
//! * a dense per-layout line interner ([`LineTable`] / [`LineId`]) and
//!   precomputed block→lines [`FetchPlan`] that keep the hot loops on
//!   flat `Vec` indexing.
//!
//! Internally a simulation is one request generator (trace → L1I request
//! stream: predictor, FDIP runahead, prefetch filter) and one cache walk
//! (requests → L1I/L2/L3 under a replacement policy). A run either
//! streams the generator straight into the walk or, when the session holds
//! a capture of the request stream, replays the capture in order through
//! the same walk; both are byte-identical. The independent oracle these
//! paths are checked against lives in the `ripple-check` crate.
//!
//! Entry points: [`simulate`], [`simulate_with_sink`],
//! [`simulate_ideal_cache`], and — for policy matrices sharing one
//! capture — [`SimSession`]. Evictions stream into an
//! [`EvictionSink`] instead of being materialized by the engine.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_debug_implementations)]

mod bpred;
mod cache;
mod capture;
mod config;
mod engine;
mod generator;
mod intern;
pub mod policy;
mod sink;
mod stats;
mod walk;

pub use bpred::{BranchPredictor, Prediction};
pub use cache::{AccessOutcome, Cache};
pub use capture::{StreamLimitError, MAX_STREAM_RECORDS};
pub use config::{
    CacheGeometry, EvictionMechanism, PrefetcherKind, SimConfig, SimConfigBuilder, SimConfigError,
};
pub use engine::{
    ideal_policy_for, simulate, simulate_ideal_cache, simulate_with_sink, SimSession,
};
pub use intern::{FetchPlan, LineId, LineTable};
pub use policy::registry::PolicyKind;
pub use policy::{
    build_ideal_policy, build_policy, AccessInfo, DemandMinPolicy, DrripPolicy, FutureIndex,
    GhrpPolicy, HawkeyePolicy, LruPolicy, OptPolicy, PolicyConstructor, PolicyDescriptor,
    PolicyFamily, PolicyId, PolicyRegistry, RandomPolicy, RegistryError, ReplacementPolicy,
    SrripPolicy, StreamRecord, Temperature, TemperatureMap, TreePlruPolicy, TrripPolicy, WayView,
    NEVER,
};
pub use sink::{EvictionSink, NullSink, VecSink};
pub use stats::{EvictionEvent, SimStats};
