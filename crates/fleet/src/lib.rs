//! # ripple-fleet: fleet-scale continuous profiling and canary rollout
//!
//! The paper's setting is a data center: profiles drift across inputs,
//! re-profiling is routine (§V-C), and a plan trained yesterday serves
//! traffic today. This crate turns the one-shot batch pipeline of the
//! `ripple` core into that service shape:
//!
//! 1. **Registry** — N app *instances* over S *services*
//!    ([`ripple_workloads::AppSpec::fleet_service`] variants), each with a
//!    traffic weight and an input variant that rotates on drift;
//! 2. **Collect** — every epoch, each instance emits a PT-style trace
//!    shard under a deterministic request-rate model, decoded through the
//!    lossy decoder so a poisoned shard degrades one instance, not the
//!    epoch;
//! 3. **Aggregate** — shards merge into per-service fleet profiles
//!    (weighted line-access counts feeding
//!    [`ripple::temperatures_from_counts`], and a concatenated training
//!    trace);
//! 4. **Train** — a [`PlanArtifactCache`] keyed by (service, layout hash,
//!    profile fingerprint) reuses [`InjectionPlan`] / relink / fetch-plan
//!    artifacts across undrifted epochs, with explicit invalidation on
//!    drift;
//! 5. **Rollout** — the fresh plan A/B-rolls through a canary fraction
//!    of each service's instances and is promoted (or rolled back) behind
//!    an MPKI regression gate.
//!
//! [`run_fleet`] drives the loop and emits a deterministic
//! `ripple.fleet_report.v1` JSON: byte-identical for a given
//! [`FleetConfig`] at any thread count, warm or cold cache.
//!
//! [`InjectionPlan`]: ripple_program::InjectionPlan

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_debug_implementations)]

mod aggregate;
mod cache;
mod registry;
mod report;
mod runner;

pub use aggregate::{merge_weighted_counts, Shard};
pub use cache::{layout_hash, profile_fingerprint, CacheStats, PlanArtifact, PlanArtifactCache};
pub use registry::{FleetRegistry, InstanceSpec, ServiceSpec};
pub use report::{validate_fleet_report, FLEET_PHASES, FLEET_SCHEMA};
pub use runner::{run_fleet, run_fleet_with_cache};

/// Configuration for one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of app instances across the fleet.
    pub instances: usize,
    /// Number of profile→train→rollout epochs to run.
    pub epochs: u32,
    /// Percentage of each service's instances that canary the fresh plan
    /// (0 disables canarying; any positive value canaries at least one
    /// instance per service).
    pub canary_pct: u32,
    /// Master seed; every derived seed (service shapes, instance inputs,
    /// traffic weights) mixes from it.
    pub seed: u64,
    /// Worker threads for shard collection and rollout simulation
    /// (`None` = all cores). A perf knob only: reports are byte-identical
    /// at any value.
    pub threads: Option<usize>,
    /// Per-shard execution budget in instructions.
    pub shard_instructions: u64,
    /// First epoch (0-based) at which every instance's input variant
    /// rotates — the profile-drift event. `None` = no drift.
    pub drift_epoch: Option<u32>,
    /// Promote the canary plan only if its canary MPKI is within this
    /// percentage above the deployed plan's canary MPKI.
    pub regression_gate_pct: f64,
    /// Deterministically corrupt this instance's packet stream every
    /// epoch (tests the poisoned-shard isolation path).
    pub poison_instance: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            instances: 8,
            epochs: 3,
            canary_pct: 25,
            seed: 7,
            threads: None,
            shard_instructions: 12_000,
            drift_epoch: None,
            regression_gate_pct: 0.5,
            poison_instance: None,
        }
    }
}

impl FleetConfig {
    /// Checks every knob, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] describing the offending field.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.instances == 0 || self.instances > 4096 {
            return Err(FleetError::Config(format!(
                "instances must be in [1, 4096], got {}",
                self.instances
            )));
        }
        if self.epochs == 0 || self.epochs > 1024 {
            return Err(FleetError::Config(format!(
                "epochs must be in [1, 1024], got {}",
                self.epochs
            )));
        }
        if self.canary_pct > 100 {
            return Err(FleetError::Config(format!(
                "canary-pct must be in [0, 100], got {}",
                self.canary_pct
            )));
        }
        if self.shard_instructions == 0 {
            return Err(FleetError::Config(
                "shard-instructions must be positive".to_string(),
            ));
        }
        if !self.regression_gate_pct.is_finite() || self.regression_gate_pct < 0.0 {
            return Err(FleetError::Config(format!(
                "regression gate must be a finite non-negative percentage, got {}",
                self.regression_gate_pct
            )));
        }
        if let Some(p) = self.poison_instance {
            if p >= self.instances {
                return Err(FleetError::Config(format!(
                    "poison-instance {} out of range (fleet has {} instances)",
                    p, self.instances
                )));
            }
        }
        Ok(())
    }
}

/// Errors from a fleet run.
#[derive(Debug)]
pub enum FleetError {
    /// A [`FleetConfig`] knob is out of range.
    Config(String),
    /// The training pipeline failed (wraps the core crate's error).
    Pipeline(ripple::Error),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "invalid fleet config: {msg}"),
            FleetError::Pipeline(e) => write!(f, "fleet training failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Config(_) => None,
            FleetError::Pipeline(e) => Some(e),
        }
    }
}

impl From<ripple::Error> for FleetError {
    fn from(e: ripple::Error) -> Self {
        FleetError::Pipeline(e)
    }
}

/// splitmix64 — the workspace's standard cheap seed mixer.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        FleetConfig::default().validate().unwrap();
    }

    #[test]
    fn config_rejects_bad_knobs() {
        let bad = |f: fn(&mut FleetConfig)| {
            let mut c = FleetConfig::default();
            f(&mut c);
            assert!(matches!(c.validate(), Err(FleetError::Config(_))), "{c:?}");
        };
        bad(|c| c.instances = 0);
        bad(|c| c.epochs = 0);
        bad(|c| c.canary_pct = 101);
        bad(|c| c.shard_instructions = 0);
        bad(|c| c.regression_gate_pct = f64::NAN);
        bad(|c| c.regression_gate_pct = -1.0);
        bad(|c| c.poison_instance = Some(99));
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 1), mix(0, 2));
    }
}
