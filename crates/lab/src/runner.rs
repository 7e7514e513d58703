//! Executes a resolved experiment on the shared harness.
//!
//! Grid points are independent, so they run as parallel harness jobs
//! under the requested `--threads` count; each point is internally
//! sequential (its baseline, policy matrix and Ripple evaluations run on
//! one worker). A point measures the original binary once, as an
//! [`EvalBaseline`], and every threshold of every underlying shares it.
//! An underlying's thresholds are evaluated as one list
//! ([`Ripple::evaluate_thresholds`]), so thresholds that agree on a plan
//! share its relinks and runs.
//! Each point reports into the lab's recorder. Results come back in
//! grid-expansion order regardless of scheduling, and every figure is a
//! pure function of the declaration — the emitted report is
//! byte-identical at any thread count.

use std::sync::Arc;

use ripple::{
    effective_threads, policy_matrix, profile_temperatures, EvalBaseline, Ripple, RippleConfig,
};
use ripple_json::Value;
use ripple_obs::{time_phase, NullRecorder, Recorder};
use ripple_program::{Layout, LayoutConfig};
use ripple_sim::{PrefetcherKind, SimConfig, SimSession, SimStats, TemperatureMap};
use ripple_trace::{
    reconstruct_trace, reconstruct_trace_lossy, record_trace_with_sync, BbTrace, DecodeOptions,
    TraceHealth,
};
use ripple_workloads::{execute, generate, Application, InputConfig};

use crate::experiment::{FaultMode, GridPoint, ResolvedExperiment};
use crate::report::lab_report;
use crate::LabError;

/// Mid-stream sync-point interval (blocks) for the encoded traces, so the
/// `bitflip` fault mode loses one span, not the stream's tail.
const SYNC_INTERVAL: u64 = 4096;

/// How to execute an experiment; everything here observes or schedules
/// and never changes measured figures.
#[derive(Debug, Clone)]
pub struct LabOptions {
    /// Worker threads for the grid (`None`/`Some(0)` = auto).
    pub threads: Option<usize>,
    /// Observability sink for `lab.*` phases and per-job timings.
    pub recorder: Arc<dyn Recorder>,
    /// Overrides the declaration's per-app instruction budget (bench
    /// wrappers pass `RIPPLE_BENCH_INSTRS` through here).
    pub instructions: Option<u64>,
    /// Deterministic seed for the fault injector (`bitflip` span
    /// placement). The seed is recorded in the report; identical
    /// declarations with identical seeds produce byte-identical reports.
    pub seed: u64,
}

impl Default for LabOptions {
    fn default() -> Self {
        LabOptions {
            threads: None,
            recorder: Arc::new(NullRecorder),
            instructions: None,
            seed: 0,
        }
    }
}

/// One policy's headline numbers relative to the point's LRU baseline.
#[derive(Debug, Clone, Copy)]
pub struct PointRow {
    /// Speedup over LRU, percent.
    pub speedup_pct: f64,
    /// Demand-miss MPKI.
    pub mpki: f64,
    /// Miss reduction over LRU, percent.
    pub miss_reduction_pct: f64,
    /// Absolute demand misses.
    pub demand_misses: u64,
}

impl PointRow {
    fn from_stats(stats: &SimStats, baseline: &SimStats) -> Self {
        PointRow {
            speedup_pct: stats.speedup_pct_over(baseline),
            mpki: stats.mpki(),
            miss_reduction_pct: stats.miss_reduction_pct_over(baseline),
            demand_misses: stats.demand_misses,
        }
    }
}

/// One Ripple pipeline evaluation inside a grid point.
#[derive(Debug, Clone)]
pub struct RipplePointRow {
    /// Underlying policy name.
    pub underlying: String,
    /// Invalidation threshold evaluated.
    pub threshold: f64,
    /// Whether this is the underlying's best-speedup threshold (first
    /// listed wins ties, like a sequential tuning scan).
    pub best: bool,
    /// Headline numbers vs the point's LRU baseline.
    pub row: PointRow,
    /// Replacement coverage, 0..=1.
    pub coverage: f64,
    /// Invalidation accuracy, 0..=1.
    pub accuracy: f64,
    /// The underlying policy's own eviction accuracy, 0..=1.
    pub underlying_accuracy: f64,
    /// Static instruction overhead, percent.
    pub static_overhead_pct: f64,
    /// Dynamic instruction overhead, percent.
    pub dynamic_overhead_pct: f64,
}

/// Everything measured for one grid point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// LRU baseline (speedup 0 by construction).
    pub lru: PointRow,
    /// Declared grid policies, in axis order.
    pub policies: Vec<(String, PointRow)>,
    /// Prefetch-aware ideal replacement (Demand-MIN; OPT when no
    /// prefetcher).
    pub ideal: PointRow,
    /// Ideal cache (no misses at all).
    pub ideal_cache: PointRow,
    /// Ripple evaluations: one row per (underlying, threshold), grouped
    /// by underlying in axis order, thresholds in axis order.
    pub ripple: Vec<RipplePointRow>,
    /// Compulsory MPKI of the LRU baseline run.
    pub compulsory_mpki: f64,
    /// Loss accounting of the point's trace (`bitflip` points only).
    pub trace_health: Option<TraceHealth>,
}

/// A finished experiment: typed per-point outcomes plus the rendered
/// `ripple.lab_report.v1` document.
#[derive(Debug)]
pub struct LabRun {
    /// The expanded grid, in report order.
    pub points: Vec<GridPoint>,
    /// One outcome per grid point, parallel to `points`.
    pub outcomes: Vec<PointOutcome>,
    /// The deterministic report document.
    pub report: Value,
}

impl LabRun {
    /// The outcome for the grid point matching every coordinate.
    pub fn outcome(
        &self,
        profile: &str,
        app: &str,
        prefetcher: PrefetcherKind,
    ) -> Option<&PointOutcome> {
        self.points
            .iter()
            .zip(&self.outcomes)
            .find(|(p, _)| {
                p.profile.name == profile && p.app.name() == app && p.prefetcher == prefetcher
            })
            .map(|(_, o)| o)
    }
}

/// One loaded application: generated program, layout, and the traces the
/// grid's fault modes need.
struct LoadedApp {
    app: Application,
    layout: Layout,
    clean: TraceVariant,
    faulted: Option<TraceVariant>,
}

struct TraceVariant {
    trace: BbTrace,
    temperatures: Arc<TemperatureMap>,
    health: Option<TraceHealth>,
}

impl LoadedApp {
    fn variant(&self, fault: FaultMode) -> &TraceVariant {
        match fault {
            FaultMode::None => &self.clean,
            FaultMode::BitFlip => self.faulted.as_ref().unwrap_or(&self.clean),
        }
    }
}

/// Deterministically corrupts one span of an encoded trace stream.
/// Seeded per app index so different apps lose different spans; no
/// entropy source — the same input always corrupts identically.
fn corrupt_span(bytes: &mut [u8], seed: u64) {
    if bytes.is_empty() {
        return;
    }
    // splitmix64: the checker's seed-mixing function.
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let start = (next() as usize) % bytes.len();
    let len = 24 + (next() as usize) % 40;
    for i in 0..len {
        let j = start + i;
        if j >= bytes.len() {
            break;
        }
        bytes[j] ^= 0xa5;
    }
}

fn load_app(
    app: ripple_workloads::App,
    index: usize,
    instructions: u64,
    want_fault: bool,
    fault_seed: u64,
) -> Result<LoadedApp, LabError> {
    let generated = generate(&app.spec());
    let layout = Layout::new(&generated.program, &LayoutConfig::default());
    let input = InputConfig::training(app.spec().seed);
    let executed = execute(&generated.program, &generated.model, input, instructions);
    let bytes = record_trace_with_sync(&generated.program, &layout, executed.iter(), SYNC_INTERVAL);
    let clean_trace = reconstruct_trace(&generated.program, &layout, &bytes)
        .map_err(|e| LabError::Run(format!("{}: trace round-trip: {e}", app.name())))?;
    let clean = TraceVariant {
        temperatures: Arc::new(profile_temperatures(&layout, &clean_trace)),
        trace: clean_trace,
        health: None,
    };
    let faulted = if want_fault {
        let mut damaged = bytes;
        corrupt_span(&mut damaged, fault_seed.wrapping_add(index as u64));
        let lossy = reconstruct_trace_lossy(
            &generated.program,
            &layout,
            &damaged,
            &DecodeOptions::default(),
        )
        .map_err(|e| LabError::Run(format!("{}: lossy decode: {e}", app.name())))?;
        Some(TraceVariant {
            temperatures: Arc::new(profile_temperatures(&layout, &lossy.trace)),
            trace: lossy.trace,
            health: Some(lossy.health),
        })
    } else {
        None
    };
    Ok(LoadedApp {
        app: generated,
        layout,
        clean,
        faulted,
    })
}

fn run_point(
    resolved: &ResolvedExperiment,
    point: &GridPoint,
    loaded: &LoadedApp,
    recorder: &Arc<dyn Recorder>,
) -> Result<PointOutcome, LabError> {
    let variant = loaded.variant(point.fault);
    let program = &loaded.app.program;
    let layout = &loaded.layout;
    let trace = &variant.trace;
    let app = point.app.name();
    if trace.blocks().is_empty() {
        return Err(LabError::Run(format!(
            "{app}: {} trace decoded to zero blocks",
            point.fault.name()
        )));
    }

    let base_cfg: SimConfig = point.profile.sim_config().with_prefetcher(point.prefetcher);

    // The original binary's LRU, ideal-replacement and ideal-cache runs
    // are measured once, and every Ripple evaluation of the point shares
    // them. The point itself is one harness job, so they run sequentially.
    let baseline = EvalBaseline::new(
        program,
        layout,
        trace,
        base_cfg.clone(),
        Some(1),
        recorder.clone(),
    )
    .map_err(|e| LabError::Run(format!("{app}: baseline: {e}")))?;
    let lru = baseline.lru();

    // Line temperatures are profiled once per point: hint-driven policies
    // (TRRIP) consume them, everything else ignores the map. Ripple
    // pipelines run without the map, matching the bench path.
    let policies = if resolved.policies.is_empty() {
        Vec::new()
    } else {
        let mut matrix_cfg = base_cfg.clone();
        matrix_cfg.temperatures = Some(variant.temperatures.clone());
        let session =
            SimSession::new(program, layout, trace, matrix_cfg).with_recorder(recorder.clone());
        let results = policy_matrix(&session, &resolved.policies, 1)
            .map_err(|e| LabError::Run(format!("{app}: policy matrix: {e}")))?;
        resolved
            .policies
            .iter()
            .zip(&results)
            .map(|(kind, stats)| (kind.name().to_string(), PointRow::from_stats(stats, lru)))
            .collect()
    };

    let mut ripple_rows = Vec::new();
    for &underlying in &resolved.ripple_underlying {
        let config = RippleConfig {
            sim: base_cfg.clone(),
            underlying,
            threads: Some(1),
            ..RippleConfig::default()
        };
        let ripple = Ripple::train_with_recorder(program, layout, trace, config, recorder.clone())
            .map_err(|e| LabError::Run(format!("{app}: train: {e}")))?;
        let outcomes = ripple
            .evaluate_thresholds(&baseline, &resolved.thresholds)
            .map_err(|e| LabError::Run(format!("{app}: evaluate thresholds: {e}")))?;
        let mut best_at = 0usize;
        let mut best_speedup = f64::NEG_INFINITY;
        let group_start = ripple_rows.len();
        for (i, (&threshold, o)) in resolved.thresholds.iter().zip(&outcomes).enumerate() {
            // Tuning rule: highest pipeline speedup wins, first listed
            // threshold wins ties (a sequential scan's behaviour).
            if o.speedup_pct() > best_speedup {
                best_speedup = o.speedup_pct();
                best_at = i;
            }
            ripple_rows.push(RipplePointRow {
                underlying: underlying.name().to_string(),
                threshold,
                best: false,
                row: PointRow::from_stats(&o.ripple, lru),
                coverage: o.coverage.coverage(),
                accuracy: o.ripple_accuracy.accuracy(),
                underlying_accuracy: o.underlying_accuracy.accuracy(),
                static_overhead_pct: o.static_overhead_pct,
                dynamic_overhead_pct: o.dynamic_overhead_pct,
            });
        }
        if !resolved.thresholds.is_empty() {
            ripple_rows[group_start + best_at].best = true;
        }
    }

    Ok(PointOutcome {
        lru: PointRow::from_stats(lru, lru),
        policies,
        ideal: PointRow::from_stats(baseline.ideal(), lru),
        ideal_cache: PointRow::from_stats(baseline.ideal_cache(), lru),
        ripple: ripple_rows,
        compulsory_mpki: lru.compulsory_mpki(),
        trace_health: variant.health,
    })
}

/// Runs a resolved experiment and builds its deterministic report.
///
/// # Errors
///
/// Returns [`LabError::Run`] when an application fails to load, a
/// simulation job panics, or a pipeline evaluation fails; the error names
/// the offending point.
pub fn run_experiment(
    resolved: &ResolvedExperiment,
    options: &LabOptions,
) -> Result<LabRun, LabError> {
    let mut resolved = resolved.clone();
    if let Some(budget) = options.instructions {
        if budget == 0 {
            return Err(LabError::Declaration(
                "instruction override must be positive".into(),
            ));
        }
        resolved.instructions = budget;
    }
    let resolved = &resolved;
    let recorder = &*options.recorder;
    let threads = effective_threads(options.threads);

    let points = time_phase(recorder, "lab.expand", || resolved.expand());
    let want_fault = resolved.fault_modes.contains(&FaultMode::BitFlip);

    let loaded: Vec<LoadedApp> = time_phase(recorder, "lab.load", || {
        let jobs: Vec<ripple::Job<'_, Result<LoadedApp, LabError>>> = resolved
            .apps
            .iter()
            .enumerate()
            .map(
                |(i, &app)| -> ripple::Job<'_, Result<LoadedApp, LabError>> {
                    Box::new(move || {
                        load_app(app, i, resolved.instructions, want_fault, options.seed)
                    })
                },
            )
            .collect();
        ripple::run_jobs(threads, "lab.load", recorder, jobs)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| LabError::Run(format!("loading applications: {e}")))?
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    })?;

    let outcomes: Vec<PointOutcome> = time_phase(recorder, "lab.execute", || {
        let loaded = &loaded;
        let jobs: Vec<ripple::Job<'_, Result<PointOutcome, LabError>>> = points
            .iter()
            .map(|point| -> ripple::Job<'_, Result<PointOutcome, LabError>> {
                Box::new(move || {
                    let index = resolved
                        .apps
                        .iter()
                        .position(|&a| a == point.app)
                        .unwrap_or(0);
                    run_point(resolved, point, &loaded[index], &options.recorder)
                })
            })
            .collect();
        ripple::run_jobs(threads, "lab.execute", recorder, jobs)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| LabError::Run(format!("executing grid: {e}")))?
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    })?;

    let report = time_phase(recorder, "lab.render", || {
        lab_report(resolved, &points, &outcomes, options.seed)
    });
    Ok(LabRun {
        points,
        outcomes,
        report,
    })
}
