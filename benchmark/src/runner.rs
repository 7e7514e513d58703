//! Runs one workload: set-up, warm-up, output checks, the timed loop and
//! the metrics.
//!
//! Load model: a closed loop with one caller and one op in flight. Ops
//! round-robin over the workload's apps; the run stops at the end of the
//! first round after the time budget is spent, so every app contributes
//! the same number of timed ops.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ripple_obs::{time_phase, NullRecorder, Recorder};

use crate::metrics::{LayerTally, END_TO_END};
use crate::result::{Measured, WorkloadResult};
use crate::spans::{Capture, SpanRecorder, OP_SPAN, SETUP_SPAN};
use crate::stats::nearest_rank;
use crate::workloads::{mean, Inputs, Outcome, Workload};

/// Timed seconds per run unless told otherwise; `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 25;

/// Set-up repetitions per run, at least; `setup_s` is their median.
pub const SETUP_REPETITIONS: usize = 5;

/// Share of the timed loop's wall time the untraced run spends repeating
/// set-up between rounds: a few repetitions of a set-up of tenths of a
/// second, thousands of one of microseconds.
const SETUP_SHARE: f64 = 0.05;

/// Failure messages kept per run.
const KEPT_FAILURES: usize = 5;

/// When the timed loop stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// At the end of the first round after this many seconds.
    Seconds(f64),
    /// After this many timed ops.
    Ops(usize),
}

/// How to run a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub stop: Stop,
    /// Traced run: alternate untraced and traced ops and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// One span of the traced run, as written to the span file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `op-<k>` for timed op `k`, `setup-<k>` for set-up repetition `k`.
    pub op_id: String,
    /// Index of the span within its op.
    pub span_id: usize,
    /// Index of the enclosing span within the op, if any.
    pub parent_id: Option<usize>,
    /// Span name.
    pub name: String,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began.
    pub end_ns: u64,
}

/// A finished run.
#[derive(Debug)]
pub struct Run {
    /// The reported result.
    pub result: WorkloadResult,
    /// Every span of the traced ops and set-ups (empty when untraced).
    pub spans: Vec<SpanRecord>,
    /// Span names no layer metric claims.
    pub unmapped_spans: Vec<String>,
}

/// Attempted and failed ops, and the digest each app's results must
/// repeat.
#[derive(Debug)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    reference: Vec<Option<u64>>,
}

impl Tally {
    /// A tally for a workload with `apps` apps.
    pub fn new(apps: usize) -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            reference: vec![None; apps],
        }
    }

    /// Counts one op on `app`. It passes when it returned a result that
    /// passes the workload's checks and whose digest equals the app's
    /// first digest; the passing outcome is returned.
    pub fn judge<'a>(
        &mut self,
        app: usize,
        result: &'a Result<Outcome, String>,
    ) -> Option<&'a Outcome> {
        self.attempted += 1;
        let verdict = result.as_ref().map_err(Clone::clone).and_then(|outcome| {
            outcome.check()?;
            let digest = outcome.digest();
            match *self.reference[app].get_or_insert(digest) {
                first if first == digest => Ok(outcome),
                first => Err(format!(
                    "result digest {digest:016x} differs from the app's first {first:016x}"
                )),
            }
        });
        verdict.map_err(|e| self.fail(app, e)).ok()
    }

    /// Counts a failure found outside [`Tally::judge`].
    pub fn fail(&mut self, app: usize, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(format!("app {app}: {message}"));
        }
    }
}

fn attempt(
    inputs: &Inputs,
    app: usize,
    threads: usize,
    rec: &Arc<dyn Recorder>,
) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| inputs.run_op(app, threads, rec))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {message}"))
    })
}

/// One set-up repetition and its wall time in seconds.
fn set_up(workload: Workload, seed: u64, rec: &dyn Recorder) -> Result<(Inputs, f64), String> {
    let start = Instant::now();
    let inputs = time_phase(rec, SETUP_SPAN, || workload.setup(seed, rec))?;
    Ok((inputs, start.elapsed().as_secs_f64()))
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn log_spans(
    log: &mut Vec<SpanRecord>,
    op_id: String,
    capture: Capture,
    parents: Vec<Option<usize>>,
) {
    for (span_id, (span, parent_id)) in capture.spans.into_iter().zip(parents).enumerate() {
        log.push(SpanRecord {
            op_id: op_id.clone(),
            span_id,
            parent_id,
            name: span.name,
            start_ns: span.start_ns,
            end_ns: span.end_ns,
        });
    }
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Runs `workload` under `settings`.
///
/// # Errors
///
/// Fails when set-up fails or peak memory cannot be read; op failures are
/// counted in the result instead.
pub fn run(workload: Workload, settings: &Settings) -> Result<Run, String> {
    let span_recorder = Arc::new(SpanRecorder::default());
    let traced: Arc<dyn Recorder> = span_recorder.clone();
    let untraced: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let setup_rec = if settings.trace { &traced } else { &untraced };
    let mut layers = LayerTally::default();
    let mut spans = Vec::new();

    // The traced run sets up SETUP_REPETITIONS times before its ops. The
    // untraced run sets up once before them and again between rounds (see
    // SETUP_SHARE), so `setup_s` samples the machine over the whole run
    // rather than its first moments. A repetition replaces the inputs,
    // which the seed fixes, so memory only ever holds one copy.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for k in 0..if settings.trace { SETUP_REPETITIONS } else { 1 } {
        drop(prepared.take());
        let (inputs, seconds) = set_up(workload, settings.seed, &**setup_rec)?;
        setup_s.push(seconds);
        if settings.trace {
            let capture = span_recorder.take();
            let parents = layers.add_setup(&capture);
            log_spans(&mut spans, format!("setup-{k}"), capture, parents);
        }
        prepared = Some(inputs);
    }
    let mut inputs = prepared.ok_or("no set-up repetitions")?;
    let apps = inputs.apps();
    let threads = workload.threads();
    let mut tally = Tally::new(apps);

    // Warm-up: one untimed op per app. Its result is the reference every
    // later op on that app must reproduce, and the source of the modelled
    // figures (which are deterministic).
    let mut mpki = Vec::new();
    for app in 0..apps {
        let result = attempt(&inputs, app, threads, &untraced);
        if let Some(outcome) = tally.judge(app, &result) {
            match outcome.mpki() {
                Ok(m) => mpki.push(m),
                Err(e) => tally.fail(app, e),
            }
        }
    }
    // Results must not depend on the thread count.
    if threads > 1 {
        for app in 0..apps {
            tally.judge(app, &attempt(&inputs, app, 1, &untraced));
        }
    }

    // The traced run pairs an untraced and a traced op on each app, so both
    // halves see the same apps under the same machine state; which of the
    // pair goes first (and finds the app's data warm) flips every round.
    let round = if settings.trace { 2 * apps } else { apps };
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut instructions = 0u64;
    let mut interleaved_setup_s = 0.0;
    let start = Instant::now();
    for k in 0.. {
        let stop = match settings.stop {
            Stop::Ops(n) => k >= n,
            Stop::Seconds(s) => k % round == 0 && k > 0 && start.elapsed().as_secs_f64() >= s,
        };
        if stop {
            break;
        }
        if !settings.trace && k % round == 0 {
            while interleaved_setup_s < SETUP_SHARE * start.elapsed().as_secs_f64() {
                drop(inputs);
                let seconds;
                (inputs, seconds) = set_up(workload, settings.seed, &*untraced)?;
                setup_s.push(seconds);
                interleaved_setup_s += seconds;
            }
        }
        let (app, traced_op) = if settings.trace {
            ((k / 2) % apps, (k % 2 == 1) != ((k / round) % 2 == 1))
        } else {
            (k % apps, false)
        };
        let t = Instant::now();
        let result = if traced_op {
            time_phase(&*traced, OP_SPAN, || {
                attempt(&inputs, app, threads, &traced)
            })
        } else {
            attempt(&inputs, app, threads, &untraced)
        };
        let elapsed = t.elapsed().as_secs_f64();
        if traced_op {
            traced_s.push(elapsed);
            let counts = result.as_ref().map(Outcome::counts).unwrap_or_default();
            let capture = span_recorder.take();
            let parents = layers.add_op(&capture, &counts);
            log_spans(&mut spans, format!("op-{k}"), capture, parents);
        } else {
            untraced_s.push(elapsed);
            instructions += inputs.instructions(app);
        }
        tally.judge(app, &result);
    }
    while setup_s.len() < SETUP_REPETITIONS {
        drop(inputs);
        let seconds;
        (inputs, seconds) = set_up(workload, settings.seed, &*untraced)?;
        setup_s.push(seconds);
    }

    let untraced_sorted = sorted(untraced_s);
    let p50 = |s: &[f64]| nearest_rank(s, 0.5).unwrap_or(0.0);
    let values = if settings.trace {
        let overhead = (p50(&sorted(traced_s.clone())) / p50(&untraced_sorted) - 1.0) * 100.0;
        layers.metrics(overhead)
    } else {
        let busy_s: f64 = untraced_sorted.iter().sum();
        let values = [
            p50(&sorted(setup_s)),
            p50(&untraced_sorted),
            nearest_rank(&untraced_sorted, 0.9).unwrap_or(0.0),
            if busy_s > 0.0 {
                instructions as f64 / busy_s
            } else {
                0.0
            },
            peak_rss_mb()?,
            // No figures at all means every warm-up failed, which the
            // result already reports.
            mean(mpki.into_iter()).unwrap_or(0.0),
        ];
        END_TO_END.iter().zip(values).collect()
    };
    let metrics = values
        .into_iter()
        .map(|(d, value)| Measured {
            name: d.name.into(),
            unit: d.unit.into(),
            value,
        })
        .collect();

    let result = WorkloadResult {
        workload: workload.name().into(),
        seed: settings.seed,
        trace: settings.trace,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        apps: (0..apps).map(|i| inputs.label(i)).collect(),
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        timed_ops: (untraced_sorted.len() + traced_s.len()) as u64,
        metrics,
    };
    Ok(Run {
        result,
        spans,
        unmapped_spans: layers.unmapped().map(str::to_string).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_sim::{PolicyKind, PolicyRegistry, PrefetcherKind, SimStats};

    fn compare_outcome(stats: Vec<SimStats>, recording_passes: u32) -> Result<Outcome, String> {
        Ok(Outcome::Compare {
            prefetcher: PrefetcherKind::None,
            policies: PolicyRegistry::global().all().collect(),
            stats,
            recording_passes,
        })
    }

    #[test]
    fn corrupted_results_count_as_failures() {
        let n = PolicyRegistry::global().all().count();
        let stats = vec![
            SimStats {
                demand_misses: 100,
                ..SimStats::default()
            };
            n
        ];
        let mut tally = Tally::new(1);
        assert!(tally.judge(0, &compare_outcome(stats.clone(), 1)).is_some());
        assert!(tally.judge(0, &compare_outcome(stats.clone(), 1)).is_some());

        // The ideal (OPT without a prefetcher) misses more than LRU.
        let mut broken_oracle = stats.clone();
        broken_oracle[PolicyKind::OPT.index()].demand_misses = 101;
        assert!(tally.judge(0, &compare_outcome(broken_oracle, 1)).is_none());
        // A second recording pass.
        assert!(tally.judge(0, &compare_outcome(stats.clone(), 2)).is_none());
        // Passes its checks, but is not the result the app gave first.
        let mut drifted = stats;
        drifted[PolicyKind::LRU.index()].demand_misses = 150;
        assert!(tally.judge(0, &compare_outcome(drifted, 1)).is_none());
        // An op that returned an error.
        assert!(tally.judge(0, &Err("decode failed".into())).is_none());

        assert_eq!((tally.attempted, tally.failed), (6, 4));
        assert!(tally.failures[0].contains("exceed"), "{:?}", tally.failures);
        assert!(tally.failures[1].contains("recording passes"));
        assert!(tally.failures[2].contains("digest"));
        assert!(tally.failures[3].contains("decode failed"));
    }
}
