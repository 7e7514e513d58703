//! The four workloads: how each sets up its inputs from the seed, what
//! one op calls, and how an op's result is checked.
//!
//! Every workload round-robins over its apps. The budgets are sized so an
//! op averages 0.1–0.2 s on a 2-core machine, which puts more than a
//! hundred ops, and so at least ten beyond p90, in a 25 s run.

use std::sync::Arc;

use ripple::{
    collect_profile, policy_matrix_all, profile_temperatures, Ripple, RippleConfig, RippleOutcome,
};
use ripple_fleet::{run_fleet, validate_fleet_report, FleetConfig, FleetRegistry};
use ripple_json::Value;
use ripple_lab::{run_experiment, validate_lab_report, Experiment, FaultMode, LabOptions, LabRun};
use ripple_obs::{time_phase, Recorder};
use ripple_program::{Layout, LayoutConfig};
use ripple_sim::{ideal_policy_for, PolicyKind, PrefetcherKind, SimConfig, SimSession, SimStats};
use ripple_trace::BbTrace;
use ripple_workloads::{generate, App, Application, InputConfig};

/// Instructions profiled per app by `optimize` and `compare`.
const PROFILE_INSTRUCTIONS: u64 = 1_200_000;

/// Instance counts of the three fleets `fleet` round-robins over.
const FLEET_SIZES: [usize; 3] = [8, 16, 24];

const FLEET_SHARD_INSTRUCTIONS: u64 = 60_000;

/// The invalidation threshold `optimize` runs at (the CLI default).
const THRESHOLD: f64 = 0.55;

const OPTIMIZE_APPS: [(App, PrefetcherKind); 3] = [
    (App::Tomcat, PrefetcherKind::NextLine),
    (App::Verilator, PrefetcherKind::None),
    (App::Drupal, PrefetcherKind::Fdip),
];

const COMPARE_APPS: [(App, PrefetcherKind); 3] = [
    (App::Kafka, PrefetcherKind::None),
    (App::Mediawiki, PrefetcherKind::Fdip),
    (App::FinagleHttp, PrefetcherKind::NextLine),
];

/// The lab-grid declarations, one per app.
const LAB_DECLARATIONS: [&str; 3] = [
    include_str!("../workloads/cassandra.json"),
    include_str!("../workloads/wordpress.json"),
    include_str!("../workloads/finagle-chirper.json"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Ripple::train` + `evaluate`: the paper's full pipeline, one
    /// thread.
    Optimize,
    /// A fresh session replaying every registered policy on 2 workers.
    Compare,
    /// A lab experiment grid per app on 2 workers.
    LabGrid,
    /// The fleet service loop on 2 workers.
    Fleet,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Optimize,
        Workload::Compare,
        Workload::LabGrid,
        Workload::Fleet,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Optimize => "optimize",
            Workload::Compare => "compare",
            Workload::LabGrid => "lab-grid",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads a timed op uses.
    pub fn threads(self) -> usize {
        match self {
            Workload::Optimize => 1,
            _ => 2,
        }
    }

    /// Builds the workload's inputs from `seed`. Seed 0 reproduces the
    /// CLI's default inputs. Benchmark spans go to `rec`.
    ///
    /// # Errors
    ///
    /// Returns the first error the program reported.
    pub fn setup(self, seed: u64, rec: &dyn Recorder) -> Result<Inputs, String> {
        match self {
            Workload::Optimize => Ok(Inputs::Optimize(profile_apps(&OPTIMIZE_APPS, seed, rec)?)),
            Workload::Compare => {
                let mut apps = profile_apps(&COMPARE_APPS, seed, rec)?;
                // Temperature-hinted policies (TRRIP) read line
                // temperatures profiled once from the trace, as the CLI's
                // `compare` does.
                for app in &mut apps {
                    let temperatures = profile_temperatures(&app.layout, &app.trace);
                    app.sim.temperatures = Some(Arc::new(temperatures));
                }
                Ok(Inputs::Compare(apps))
            }
            Workload::LabGrid => {
                let experiments = LAB_DECLARATIONS
                    .iter()
                    .map(|text| Experiment::parse(text)?.resolve())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                Ok(Inputs::LabGrid { experiments, seed })
            }
            Workload::Fleet => {
                let fleets = FLEET_SIZES
                    .iter()
                    .map(|&instances| {
                        // The fleet seed also shapes the generated services,
                        // whose modelled MPKI ranges over 8x across seeds;
                        // the benchmark seed picks the poisoned instance
                        // instead, so `sim_mpki` stays comparable from seed
                        // to seed.
                        let poisoned = (5 + seed as usize) % instances;
                        let config = FleetConfig {
                            instances,
                            epochs: 6,
                            canary_pct: 25,
                            threads: Some(2),
                            shard_instructions: FLEET_SHARD_INSTRUCTIONS,
                            drift_epoch: Some(3),
                            poison_instance: Some(poisoned),
                            ..FleetConfig::default()
                        };
                        // Set-up validates the config and derives the
                        // fleet's services, the registry `run_fleet`
                        // deploys.
                        config.validate().map_err(|e| e.to_string())?;
                        let services = FleetRegistry::build(&config).services.len();
                        let label = format!("fleet{instances}-{services}svc-poison{poisoned}");
                        Ok((label, config))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Inputs::Fleet(fleets))
            }
        }
    }
}

/// One profiled application of `optimize` or `compare`.
#[derive(Debug)]
pub struct ProfiledApp {
    label: String,
    app: Application,
    layout: Layout,
    trace: BbTrace,
    sim: SimConfig,
    instructions: u64,
}

fn profile_apps(
    apps: &[(App, PrefetcherKind)],
    seed: u64,
    rec: &dyn Recorder,
) -> Result<Vec<ProfiledApp>, String> {
    apps.iter()
        .map(|&(app, prefetcher)| {
            let spec = app.spec();
            let generated = time_phase(rec, "workloads.generate", || generate(&spec));
            let layout = time_phase(rec, "program.layout", || {
                Layout::new(&generated.program, &LayoutConfig::default())
            });
            let input = InputConfig::training(spec.seed ^ seed);
            let profile = time_phase(rec, "trace.collect", || {
                collect_profile(&generated, &layout, input, PROFILE_INSTRUCTIONS)
            })
            .map_err(|e| e.to_string())?;
            let sim = SimConfig::builder()
                .prefetcher(prefetcher)
                .build()
                .map_err(|e| e.to_string())?;
            Ok(ProfiledApp {
                label: format!("{}/{}", app.name(), prefetcher.name()),
                instructions: profile.trace.dynamic_instruction_count(&generated.program),
                app: generated,
                layout,
                trace: profile.trace,
                sim,
            })
        })
        .collect()
}

/// A workload's prepared inputs, one entry per app.
#[derive(Debug)]
pub enum Inputs {
    /// Profiled apps for `optimize`.
    Optimize(Vec<ProfiledApp>),
    /// Profiled apps (with line temperatures) for `compare`.
    Compare(Vec<ProfiledApp>),
    /// Resolved lab declarations and the fault-injector seed.
    LabGrid {
        /// One declaration per app.
        experiments: Vec<ripple_lab::ResolvedExperiment>,
        /// `LabOptions.seed`.
        seed: u64,
    },
    /// Labelled fleet configurations.
    Fleet(Vec<(String, FleetConfig)>),
}

impl Inputs {
    /// How many apps the workload round-robins over.
    pub fn apps(&self) -> usize {
        match self {
            Inputs::Optimize(a) | Inputs::Compare(a) => a.len(),
            Inputs::LabGrid { experiments, .. } => experiments.len(),
            Inputs::Fleet(fleets) => fleets.len(),
        }
    }

    /// A display label for app `i`.
    pub fn label(&self, i: usize) -> String {
        match self {
            Inputs::Optimize(a) | Inputs::Compare(a) => a[i].label.clone(),
            Inputs::LabGrid { experiments, .. } => experiments[i].name.clone(),
            Inputs::Fleet(fleets) => fleets[i].0.clone(),
        }
    }

    /// Input instructions one op on app `i` processes.
    pub fn instructions(&self, i: usize) -> u64 {
        match self {
            Inputs::Optimize(a) | Inputs::Compare(a) => a[i].instructions,
            Inputs::LabGrid { experiments, .. } => {
                experiments[i].instructions * experiments[i].apps.len() as u64
            }
            Inputs::Fleet(fleets) => {
                let config = &fleets[i].1;
                config.instances as u64 * u64::from(config.epochs) * config.shard_instructions
            }
        }
    }

    /// Runs one op on app `i` with `threads` workers, reporting to `rec`.
    ///
    /// # Errors
    ///
    /// Returns the program's error, rendered.
    pub fn run_op(
        &self,
        i: usize,
        threads: usize,
        rec: &Arc<dyn Recorder>,
    ) -> Result<Outcome, String> {
        match self {
            Inputs::Optimize(apps) => {
                let a = &apps[i];
                let config = RippleConfig {
                    threshold: THRESHOLD,
                    threads: Some(threads),
                    sim: a.sim.clone(),
                    ..RippleConfig::default()
                };
                let ripple = time_phase(&**rec, "core.train", || {
                    Ripple::train_with_recorder(
                        &a.app.program,
                        &a.layout,
                        &a.trace,
                        config,
                        rec.clone(),
                    )
                })
                .map_err(|e| e.to_string())?;
                let outcome = time_phase(&**rec, "core.evaluate", || ripple.evaluate(&a.trace))
                    .map_err(|e| e.to_string())?;
                Ok(Outcome::Optimize(Box::new(outcome)))
            }
            Inputs::Compare(apps) => {
                let a = &apps[i];
                let session = time_phase(&**rec, "sim.intern", || {
                    SimSession::new(&a.app.program, &a.layout, &a.trace, a.sim.clone())
                        .with_recorder(rec.clone())
                });
                let (policies, stats) =
                    policy_matrix_all(&session, threads).map_err(|e| e.to_string())?;
                Ok(Outcome::Compare {
                    prefetcher: a.sim.prefetcher,
                    policies,
                    stats,
                    recording_passes: session.recording_passes(),
                })
            }
            Inputs::LabGrid { experiments, seed } => {
                let options = LabOptions {
                    threads: Some(threads),
                    recorder: rec.clone(),
                    instructions: None,
                    seed: *seed,
                };
                let run = run_experiment(&experiments[i], &options).map_err(|e| e.to_string())?;
                Ok(Outcome::LabGrid(Box::new(run)))
            }
            Inputs::Fleet(fleets) => {
                let config = FleetConfig {
                    threads: Some(threads),
                    ..fleets[i].1.clone()
                };
                let report = run_fleet(&config, rec.clone()).map_err(|e| e.to_string())?;
                Ok(Outcome::Fleet(report))
            }
        }
    }
}

/// The result of one op.
#[derive(Debug)]
pub enum Outcome {
    /// A Ripple pipeline outcome.
    Optimize(Box<RippleOutcome>),
    /// Every registered policy's stats over one session.
    Compare {
        /// The session's prefetcher.
        prefetcher: PrefetcherKind,
        /// Policies in registry order.
        policies: Vec<PolicyKind>,
        /// Stats parallel to `policies`.
        stats: Vec<SimStats>,
        /// Recording passes the session made.
        recording_passes: u32,
    },
    /// A finished lab experiment.
    LabGrid(Box<LabRun>),
    /// A fleet report document.
    Fleet(Value),
}

fn in_unit_range(what: &str, x: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err(format!("{what} {x} outside [0, 1]"))
    }
}

fn json_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map_err(|e| format!("{key}: {e}"))
}

fn json_u64(v: &Value, path: [&str; 2]) -> u64 {
    v.get(path[0])
        .and_then(|o| o.get(path[1]))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn fleet_epochs(report: &Value) -> &[Value] {
    report
        .get("epoch_reports")
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

impl Outcome {
    /// Checks the result's invariants.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        match self {
            Outcome::Optimize(o) => {
                if o.ideal.demand_misses > o.baseline.demand_misses {
                    return Err(format!(
                        "ideal demand misses {} exceed the baseline's {}",
                        o.ideal.demand_misses, o.baseline.demand_misses
                    ));
                }
                if o.ideal_cache.demand_misses != 0 {
                    return Err(format!(
                        "ideal cache missed {} times",
                        o.ideal_cache.demand_misses
                    ));
                }
                in_unit_range("coverage", o.coverage.coverage())?;
                in_unit_range("ripple accuracy", o.ripple_accuracy.accuracy())?;
                in_unit_range("underlying accuracy", o.underlying_accuracy.accuracy())
            }
            Outcome::Compare {
                prefetcher,
                policies,
                stats,
                recording_passes,
            } => {
                if *recording_passes != 1 {
                    return Err(format!("{recording_passes} recording passes, expected 1"));
                }
                let ideal_kind = ideal_policy_for(*prefetcher);
                let ideal = policies
                    .iter()
                    .position(|&p| p == ideal_kind)
                    .map(|i| &stats[i])
                    .ok_or("the prefetcher's ideal policy is not registered")?;
                for (p, s) in policies.iter().zip(stats) {
                    if !p.is_offline_ideal() && ideal.demand_misses > s.demand_misses {
                        return Err(format!(
                            "{} demand misses {} exceed {}'s {}",
                            ideal_kind.name(),
                            ideal.demand_misses,
                            p.name(),
                            s.demand_misses
                        ));
                    }
                }
                Ok(())
            }
            Outcome::LabGrid(run) => validate_lab_report(&run.report),
            Outcome::Fleet(report) => validate_fleet_report(report),
        }
    }

    /// A hash of the whole result; equal results hash equal.
    pub fn digest(&self) -> u64 {
        let text = match self {
            Outcome::Optimize(o) => format!("{o:?}"),
            Outcome::Compare { stats, .. } => format!("{stats:?}"),
            Outcome::LabGrid(run) => run.report.to_compact_string(),
            Outcome::Fleet(report) => report.to_compact_string(),
        };
        fnv1a(text.as_bytes())
    }

    /// The modelled demand MPKI this result reports (see the README for
    /// the per-workload definition).
    ///
    /// # Errors
    ///
    /// Fails on a result with nothing to average.
    pub fn mpki(&self) -> Result<f64, String> {
        match self {
            Outcome::Optimize(o) => Ok(o.ripple.mpki()),
            Outcome::Compare { stats, .. } => mean(stats.iter().map(SimStats::mpki)),
            // Clean points only: a faulted trace's MPKI depends on where
            // the seeded corruption landed.
            Outcome::LabGrid(run) => mean(
                run.points
                    .iter()
                    .zip(&run.outcomes)
                    .filter(|(p, _)| p.fault == FaultMode::None)
                    .map(|(_, o)| o.lru.mpki),
            ),
            Outcome::Fleet(report) => {
                let last = fleet_epochs(report)
                    .last()
                    .ok_or("fleet report has no epochs")?;
                json_f64(last, "fleet_mpki")
            }
        }
    }

    /// Per-layer counts read from the result itself, summed over the op.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        match self {
            Outcome::LabGrid(run) => vec![("lab.points", run.points.len() as f64)],
            Outcome::Fleet(report) => {
                let epochs = fleet_epochs(report);
                let sum = |path| epochs.iter().map(|e| json_u64(e, path)).sum::<u64>() as f64;
                let hits = sum(["artifact_cache", "hits"]);
                let lookups = hits + sum(["artifact_cache", "misses"]);
                vec![
                    (
                        "fleet.cache_hit_rate",
                        if lookups == 0.0 { 0.0 } else { hits / lookups },
                    ),
                    ("fleet.shards_ok", sum(["shard_health", "shards_ok"])),
                    (
                        "fleet.shards_failed",
                        sum(["shard_health", "shards_failed"]),
                    ),
                    (
                        "fleet.dropped_packets",
                        sum(["shard_health", "dropped_packets"]),
                    ),
                ]
            }
            Outcome::Optimize(_) | Outcome::Compare { .. } => Vec::new(),
        }
    }
}

pub(crate) fn mean(values: impl Iterator<Item = f64>) -> Result<f64, String> {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        Err("no values to average".into())
    } else {
        Ok(sum / f64::from(n))
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
