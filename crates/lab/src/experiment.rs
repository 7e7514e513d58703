//! The declarative [`Experiment`] type: a parameter grid as data.
//!
//! An experiment declares *what* to measure — apps × target profiles ×
//! prefetchers × fault modes × replay-shard counts, with replacement
//! policies, Ripple underlyings and invalidation thresholds measured
//! inside every grid point — and the runner decides *how* (shared
//! harness, `--threads` parallelism, deterministic report). Declarations
//! live as JSON under `experiments/` and parse with defaulting, so the
//! smallest useful experiment is just a name and an app list.

use ripple_json::{object, FromJson, JsonError, ToJson, Value};
use ripple_sim::{PolicyFamily, PolicyKind, PolicyRegistry, PrefetcherKind};
use ripple_workloads::App;

use crate::target::TargetProfile;
use crate::LabError;

/// Trace corruption applied to a grid point before simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Pristine trace (the strict decoder's output).
    None,
    /// The encoded PT-style stream has one deterministic corrupt span and
    /// is recovered through the lossy decoder; the report carries the
    /// resulting [`TraceHealth`](ripple_trace::TraceHealth) counters.
    BitFlip,
}

/// All fault modes, in declaration-resolution order.
pub const FAULT_MODES: [FaultMode; 2] = [FaultMode::None, FaultMode::BitFlip];

impl FaultMode {
    /// Stable name used in declarations and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::None => "none",
            FaultMode::BitFlip => "bitflip",
        }
    }

    /// Resolves a declaration name.
    pub fn parse(name: &str) -> Option<FaultMode> {
        FAULT_MODES.iter().copied().find(|m| m.name() == name)
    }
}

/// Expansion token in a `policies` list: every registered online policy
/// except the LRU baseline, in registration order (a newly registered
/// policy joins the experiment without editing the declaration).
pub const TOKEN_PRIORS: &str = "@priors";

/// Expansion token in a `ripple_underlying` list: every registered online
/// policy that is a neutral substrate for Ripple's plan — offline ideals
/// (need a recorded future) and RRIP / predictive-reuse families (carry
/// their own predictions) excluded.
pub const TOKEN_UNDERLYING_AGNOSTIC: &str = "@underlying-agnostic";

/// The [`TOKEN_UNDERLYING_AGNOSTIC`] set: every registered online policy
/// outside the RRIP and predictive-reuse families, in registration order.
fn underlying_agnostic(registry: &PolicyRegistry) -> impl Iterator<Item = PolicyKind> + '_ {
    registry.online().filter(|id| {
        !matches!(
            id.descriptor().family,
            PolicyFamily::Rrip | PolicyFamily::PredictiveReuse
        )
    })
}

/// One declarative experiment: a named parameter grid.
///
/// Every axis is a list of names resolved against the relevant registry
/// at [`Experiment::resolve`] time. Empty `policies` /
/// `ripple_underlying` lists are legal: a point then measures only the
/// LRU baseline and ideal bounds (policies), or no Ripple pipelines at
/// all (underlyings).
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Experiment name (report tag, CLI argument).
    pub name: String,
    /// One-line description for `lab list` / `lab describe`.
    pub description: String,
    /// Instruction budget per application trace.
    pub instructions: u64,
    /// Target machine profiles (default `["paper"]`).
    pub profiles: Vec<String>,
    /// Applications (no default — every experiment names its apps).
    pub apps: Vec<String>,
    /// Instruction prefetchers (default `["none"]`).
    pub prefetchers: Vec<String>,
    /// Replacement policies measured against the LRU baseline in every
    /// point; supports [`TOKEN_PRIORS`] (default `[]`).
    pub policies: Vec<String>,
    /// Underlying policies to run the full Ripple pipeline over;
    /// supports [`TOKEN_UNDERLYING_AGNOSTIC`] (default `[]`).
    pub ripple_underlying: Vec<String>,
    /// Invalidation thresholds swept per (point, underlying); the
    /// best-speedup threshold is marked in the report (default `[0.5]`,
    /// the pipeline's own default).
    pub thresholds: Vec<f64>,
    /// Trace fault modes (default `["none"]`).
    pub fault_modes: Vec<String>,
    /// Replay shard counts (default `[1]`).
    pub replay_shards: Vec<usize>,
}

fn names(v: &Value, key: &str) -> Result<Vec<String>, JsonError> {
    match v.get(key) {
        Ok(entry) => Vec::<String>::from_json(entry),
        Err(_) => Ok(Vec::new()),
    }
}

fn names_or(v: &Value, key: &str, default: &[&str]) -> Result<Vec<String>, JsonError> {
    match v.get(key) {
        Ok(entry) => Vec::<String>::from_json(entry),
        Err(_) => Ok(default.iter().map(|s| s.to_string()).collect()),
    }
}

impl FromJson for Experiment {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Experiment {
            name: String::from_json(v.get("name")?)?,
            description: match v.get("description") {
                Ok(d) => String::from_json(d)?,
                Err(_) => String::new(),
            },
            instructions: v.get("instructions")?.as_u64()?,
            profiles: names_or(v, "profiles", &["paper"])?,
            apps: names(v, "apps")?,
            prefetchers: names_or(v, "prefetchers", &["none"])?,
            policies: names(v, "policies")?,
            ripple_underlying: names(v, "ripple_underlying")?,
            thresholds: match v.get("thresholds") {
                Ok(t) => Vec::<f64>::from_json(t)?,
                Err(_) => vec![0.5],
            },
            fault_modes: names_or(v, "fault_modes", &["none"])?,
            replay_shards: match v.get("replay_shards") {
                Ok(s) => {
                    let raw = Vec::<u64>::from_json(s)?;
                    raw.into_iter().map(|n| n as usize).collect()
                }
                Err(_) => vec![1],
            },
        })
    }
}

impl ToJson for Experiment {
    fn to_json(&self) -> Value {
        object([
            ("name", self.name.to_json()),
            ("description", self.description.to_json()),
            ("instructions", self.instructions.to_json()),
            ("profiles", self.profiles.to_json()),
            ("apps", self.apps.to_json()),
            ("prefetchers", self.prefetchers.to_json()),
            ("policies", self.policies.to_json()),
            ("ripple_underlying", self.ripple_underlying.to_json()),
            ("thresholds", self.thresholds.to_json()),
            ("fault_modes", self.fault_modes.to_json()),
            (
                "replay_shards",
                self.replay_shards
                    .iter()
                    .map(|&n| n as u64)
                    .collect::<Vec<u64>>()
                    .to_json(),
            ),
        ])
    }
}

impl Experiment {
    /// Parses a JSON declaration.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Declaration`] for malformed JSON or a missing
    /// required field (`name`, `instructions`, `apps`).
    pub fn parse(text: &str) -> Result<Experiment, LabError> {
        let value = ripple_json::parse(text)
            .map_err(|e| LabError::Declaration(format!("experiment JSON: {e}")))?;
        Experiment::from_json(&value)
            .map_err(|e| LabError::Declaration(format!("experiment declaration: {e}")))
    }

    /// Resolves every axis name against its registry, expands tokens,
    /// dedups (first occurrence wins), and validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Declaration`] naming the first unknown axis
    /// entry or out-of-range value.
    pub fn resolve(&self) -> Result<ResolvedExperiment, LabError> {
        let bad = |what: &str, name: &str, valid: String| {
            LabError::Declaration(format!("unknown {what} {name:?} (valid: {valid})"))
        };
        if self.name.is_empty() {
            return Err(LabError::Declaration("experiment name is empty".into()));
        }
        if self.instructions == 0 {
            return Err(LabError::Declaration(
                "instruction budget must be positive".into(),
            ));
        }
        if self.apps.is_empty() {
            return Err(LabError::Declaration("apps list is empty".into()));
        }

        let mut profiles: Vec<&'static TargetProfile> = Vec::new();
        for name in &self.profiles {
            let p = TargetProfile::find(name).ok_or_else(|| {
                let valid: Vec<&str> = crate::TARGET_PROFILES.iter().map(|p| p.name).collect();
                bad("target profile", name, valid.join(" "))
            })?;
            if !profiles.contains(&p) {
                profiles.push(p);
            }
        }

        let mut apps: Vec<App> = Vec::new();
        for name in &self.apps {
            let app = App::ALL
                .into_iter()
                .find(|a| a.name() == name)
                .ok_or_else(|| {
                    let valid: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
                    bad("application", name, valid.join(" "))
                })?;
            if !apps.contains(&app) {
                apps.push(app);
            }
        }

        let mut prefetchers: Vec<PrefetcherKind> = Vec::new();
        for name in &self.prefetchers {
            let pf = match name.as_str() {
                "none" | "no-prefetch" => PrefetcherKind::None,
                "nlp" | "next-line" => PrefetcherKind::NextLine,
                "fdip" => PrefetcherKind::Fdip,
                other => return Err(bad("prefetcher", other, "none nlp fdip".into())),
            };
            if !prefetchers.contains(&pf) {
                prefetchers.push(pf);
            }
        }

        let registry = PolicyRegistry::global();
        let policy_valid = || {
            let valid: Vec<&str> = registry.names().collect();
            format!("{} {TOKEN_PRIORS}", valid.join(" "))
        };
        let mut policies: Vec<PolicyKind> = Vec::new();
        for name in &self.policies {
            if name == TOKEN_PRIORS {
                for id in registry.online().filter(|&p| p != PolicyKind::LRU) {
                    if !policies.contains(&id) {
                        policies.push(id);
                    }
                }
                continue;
            }
            // The agnostic set is also usable as a grid-policy axis (the
            // underlying ablation measures each substrate plain before
            // stacking Ripple on it); LRU is dropped here because it is
            // already every point's baseline row.
            if name == TOKEN_UNDERLYING_AGNOSTIC {
                for id in underlying_agnostic(registry) {
                    if id != PolicyKind::LRU && !policies.contains(&id) {
                        policies.push(id);
                    }
                }
                continue;
            }
            let id = registry
                .parse(name)
                .ok_or_else(|| bad("policy", name, policy_valid()))?;
            if id.needs_future_index() {
                return Err(LabError::Declaration(format!(
                    "policy {name:?} is an offline ideal; it is measured as every \
                     point's ideal bound, not as a grid policy"
                )));
            }
            if !policies.contains(&id) {
                policies.push(id);
            }
        }

        let mut ripple_underlying: Vec<PolicyKind> = Vec::new();
        for name in &self.ripple_underlying {
            if name == TOKEN_UNDERLYING_AGNOSTIC {
                for id in underlying_agnostic(registry) {
                    if !ripple_underlying.contains(&id) {
                        ripple_underlying.push(id);
                    }
                }
                continue;
            }
            let id = registry
                .parse(name)
                .ok_or_else(|| bad("underlying policy", name, policy_valid()))?;
            if id.needs_future_index() {
                return Err(LabError::Declaration(format!(
                    "underlying policy {name:?} needs a recorded future index and \
                     cannot substrate the online Ripple pipeline"
                )));
            }
            if !ripple_underlying.contains(&id) {
                ripple_underlying.push(id);
            }
        }

        let mut thresholds: Vec<f64> = Vec::new();
        for &t in &self.thresholds {
            if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                return Err(LabError::Declaration(format!(
                    "threshold {t} outside [0, 1]"
                )));
            }
            if !thresholds.contains(&t) {
                thresholds.push(t);
            }
        }
        if !ripple_underlying.is_empty() && thresholds.is_empty() {
            return Err(LabError::Declaration(
                "ripple_underlying set but thresholds empty".into(),
            ));
        }

        let mut fault_modes: Vec<FaultMode> = Vec::new();
        for name in &self.fault_modes {
            let mode = FaultMode::parse(name).ok_or_else(|| {
                let valid: Vec<&str> = FAULT_MODES.iter().map(|m| m.name()).collect();
                bad("fault mode", name, valid.join(" "))
            })?;
            if !fault_modes.contains(&mode) {
                fault_modes.push(mode);
            }
        }

        let mut replay_shards: Vec<usize> = Vec::new();
        for &n in &self.replay_shards {
            if !(1..=1024).contains(&n) {
                return Err(LabError::Declaration(format!(
                    "replay shard count {n} outside [1, 1024]"
                )));
            }
            if !replay_shards.contains(&n) {
                replay_shards.push(n);
            }
        }

        for (axis, empty) in [
            ("profiles", profiles.is_empty()),
            ("prefetchers", prefetchers.is_empty()),
            ("fault_modes", fault_modes.is_empty()),
            ("replay_shards", replay_shards.is_empty()),
        ] {
            if empty {
                return Err(LabError::Declaration(format!("{axis} list is empty")));
            }
        }

        Ok(ResolvedExperiment {
            name: self.name.clone(),
            description: self.description.clone(),
            instructions: self.instructions,
            profiles,
            apps,
            prefetchers,
            policies,
            ripple_underlying,
            thresholds,
            fault_modes,
            replay_shards,
        })
    }
}

/// An [`Experiment`] with every axis name resolved, deduped and range
/// checked; the only form the runner accepts.
#[derive(Debug, Clone)]
pub struct ResolvedExperiment {
    /// Experiment name.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Instruction budget per application trace.
    pub instructions: u64,
    /// Deduped target profiles, declaration order.
    pub profiles: Vec<&'static TargetProfile>,
    /// Deduped applications, declaration order.
    pub apps: Vec<App>,
    /// Deduped prefetchers, declaration order.
    pub prefetchers: Vec<PrefetcherKind>,
    /// Deduped grid policies (tokens expanded), declaration order.
    pub policies: Vec<PolicyKind>,
    /// Deduped Ripple underlyings (tokens expanded), declaration order.
    pub ripple_underlying: Vec<PolicyKind>,
    /// Deduped thresholds, declaration order.
    pub thresholds: Vec<f64>,
    /// Deduped fault modes, declaration order.
    pub fault_modes: Vec<FaultMode>,
    /// Deduped replay shard counts, declaration order.
    pub replay_shards: Vec<usize>,
}

/// One cell of the expanded grid: everything that selects a simulation
/// environment. Policies, underlyings and thresholds are measured
/// *inside* a point (they share its session and trace), so they are point
/// content, not point coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Target machine.
    pub profile: &'static TargetProfile,
    /// Application.
    pub app: App,
    /// Instruction prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Trace fault mode.
    pub fault: FaultMode,
    /// Replay shard count.
    pub replay_shards: usize,
}

impl ResolvedExperiment {
    /// Expands the declaration's cartesian grid, in nested declaration
    /// order (profiles outermost, replay shards innermost). Deterministic:
    /// two calls yield identical vectors.
    pub fn expand(&self) -> Vec<GridPoint> {
        let mut points = Vec::with_capacity(self.num_points());
        for &profile in &self.profiles {
            for &app in &self.apps {
                for &prefetcher in &self.prefetchers {
                    for &fault in &self.fault_modes {
                        for &replay_shards in &self.replay_shards {
                            points.push(GridPoint {
                                profile,
                                app,
                                prefetcher,
                                fault,
                                replay_shards,
                            });
                        }
                    }
                }
            }
        }
        points
    }

    /// Number of grid points ([`ResolvedExperiment::expand`]'s length).
    pub fn num_points(&self) -> usize {
        self.profiles.len()
            * self.apps.len()
            * self.prefetchers.len()
            * self.fault_modes.len()
            * self.replay_shards.len()
    }

    /// Simulator runs per grid point: the policy matrix (LRU + policies +
    /// ideal) plus one Ripple evaluation per (underlying, threshold).
    pub fn runs_per_point(&self) -> usize {
        2 + self.policies.len() + self.ripple_underlying.len() * self.thresholds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(apps: &[&str]) -> Experiment {
        Experiment {
            name: "t".into(),
            description: String::new(),
            instructions: 10_000,
            profiles: vec!["paper".into()],
            apps: apps.iter().map(|s| s.to_string()).collect(),
            prefetchers: vec!["none".into()],
            policies: vec![],
            ripple_underlying: vec![],
            thresholds: vec![0.5],
            fault_modes: vec!["none".into()],
            replay_shards: vec![1],
        }
    }

    #[test]
    fn expansion_has_cartesian_count_in_declaration_order() {
        let mut e = minimal(&["tomcat", "kafka"]);
        e.profiles = vec!["zen2".into(), "paper".into()];
        e.prefetchers = vec!["fdip".into(), "none".into(), "nlp".into()];
        e.fault_modes = vec!["none".into(), "bitflip".into()];
        e.replay_shards = vec![1, 4];
        let r = e.resolve().unwrap();
        let points = r.expand();
        assert_eq!(points.len(), 2 * 2 * 3 * 2 * 2);
        assert_eq!(points.len(), r.num_points());
        // Outermost axis varies slowest, in declaration order.
        assert_eq!(points[0].profile.name, "zen2");
        assert_eq!(points[points.len() - 1].profile.name, "paper");
        assert_eq!(points[0].app.name(), "tomcat");
        assert_eq!(points[0].prefetcher, PrefetcherKind::Fdip);
        assert_eq!(points[0].fault, FaultMode::None);
        assert_eq!(points[1].replay_shards, 4);
        // Deterministic: a second expansion is identical.
        assert_eq!(points, r.expand());
    }

    #[test]
    fn duplicate_axis_entries_dedup_keeping_first() {
        let mut e = minimal(&["kafka", "tomcat", "kafka"]);
        e.prefetchers = vec!["nlp".into(), "next-line".into(), "none".into()];
        e.thresholds = vec![0.5, 0.25, 0.5];
        e.replay_shards = vec![2, 2, 1];
        let r = e.resolve().unwrap();
        assert_eq!(
            r.apps.iter().map(|a| a.name()).collect::<Vec<_>>(),
            ["kafka", "tomcat"]
        );
        // "next-line" is an alias of "nlp": the alias dedups too.
        assert_eq!(
            r.prefetchers,
            [PrefetcherKind::NextLine, PrefetcherKind::None]
        );
        assert_eq!(r.thresholds, [0.5, 0.25]);
        assert_eq!(r.replay_shards, [2, 1]);
        assert_eq!(r.expand().len(), 2 * 2 * 2);
    }

    #[test]
    fn tokens_expand_from_the_registry() {
        let mut e = minimal(&["tomcat"]);
        e.policies = vec![TOKEN_PRIORS.into()];
        e.ripple_underlying = vec![TOKEN_UNDERLYING_AGNOSTIC.into()];
        let r = e.resolve().unwrap();
        let registry = PolicyRegistry::global();
        let priors: Vec<PolicyKind> = registry
            .online()
            .filter(|&p| p != PolicyKind::LRU)
            .collect();
        assert_eq!(r.policies, priors);
        assert!(r.ripple_underlying.contains(&PolicyKind::LRU));
        assert!(r.ripple_underlying.contains(&PolicyKind::RANDOM));
        for id in &r.ripple_underlying {
            assert!(!id.needs_future_index());
            assert!(!matches!(
                id.descriptor().family,
                PolicyFamily::Rrip | PolicyFamily::PredictiveReuse
            ));
        }
        // A token plus an explicit member it already covers dedups.
        let mut e2 = minimal(&["tomcat"]);
        e2.policies = vec!["random".into(), TOKEN_PRIORS.into()];
        let r2 = e2.resolve().unwrap();
        assert_eq!(r2.policies.len(), priors.len());
        assert_eq!(r2.policies[0], PolicyKind::RANDOM);
    }

    #[test]
    fn resolve_rejects_unknowns_and_bad_ranges() {
        let cases: Vec<(&str, Experiment)> = vec![
            ("unknown application", minimal(&["netflix"])),
            ("unknown target profile", {
                let mut e = minimal(&["tomcat"]);
                e.profiles = vec!["m1".into()];
                e
            }),
            ("unknown prefetcher", {
                let mut e = minimal(&["tomcat"]);
                e.prefetchers = vec!["ghost".into()];
                e
            }),
            ("unknown policy", {
                let mut e = minimal(&["tomcat"]);
                e.policies = vec!["belady2".into()];
                e
            }),
            ("offline ideal as grid policy", {
                let mut e = minimal(&["tomcat"]);
                e.policies = vec!["opt".into()];
                e
            }),
            ("offline ideal as underlying", {
                let mut e = minimal(&["tomcat"]);
                e.ripple_underlying = vec!["opt".into()];
                e
            }),
            ("threshold out of range", {
                let mut e = minimal(&["tomcat"]);
                e.thresholds = vec![1.5];
                e
            }),
            ("shard count out of range", {
                let mut e = minimal(&["tomcat"]);
                e.replay_shards = vec![0];
                e
            }),
            ("zero budget", {
                let mut e = minimal(&["tomcat"]);
                e.instructions = 0;
                e
            }),
            ("no apps", minimal(&[])),
        ];
        for (why, e) in cases {
            assert!(e.resolve().is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn parse_defaults_optional_axes() {
        let e =
            Experiment::parse(r#"{ "name": "mini", "instructions": 5000, "apps": ["tomcat"] }"#)
                .unwrap();
        assert_eq!(e.profiles, ["paper"]);
        assert_eq!(e.prefetchers, ["none"]);
        assert!(e.policies.is_empty());
        assert!(e.ripple_underlying.is_empty());
        assert_eq!(e.thresholds, [0.5]);
        assert_eq!(e.fault_modes, ["none"]);
        assert_eq!(e.replay_shards, [1]);
        assert_eq!(e.resolve().unwrap().runs_per_point(), 2);
    }

    #[test]
    fn declaration_round_trips_through_json() {
        let mut e = minimal(&["tomcat", "verilator"]);
        e.policies = vec!["srrip".into()];
        e.ripple_underlying = vec!["lru".into()];
        e.thresholds = vec![0.45, 0.65];
        let text = e.to_json().to_pretty_string();
        let back = Experiment::parse(&text).unwrap();
        assert_eq!(back, e);
    }
}
