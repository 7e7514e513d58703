//! The threshold-independent half of an evaluation.
//!
//! Every simulation of the *original* binary that
//! [`Ripple::evaluate_on`](crate::Ripple::evaluate_on) needs depends on
//! (program, layout, eval trace, sim config) alone, not on the threshold:
//! the LRU reference, the ideal-replacement and ideal-cache bounds, the
//! baseline under the underlying policy, and the ideal windows that score
//! an evaluation without a final-layout analysis. An [`EvalBaseline`]
//! measures them once, so a threshold sweep pays for them once.

use std::sync::{Arc, OnceLock};

use ripple_obs::{time_phase, Recorder};
use ripple_program::{Layout, Program};
use ripple_sim::{
    ideal_policy_for, EvictionEvent, PolicyKind, PolicyRegistry, SimConfig, SimSession, SimStats,
    VecSink,
};
use ripple_trace::BbTrace;

use crate::analysis::{EvictionWindow, WindowSink};
use crate::error::Error;
use crate::harness::{effective_threads, run_jobs_observed, Job};
use crate::metrics::{eviction_accuracy, AccuracyStats, LineAccessIndex, WindowIndex};

/// One policy's run on the original binary.
#[derive(Debug)]
pub(crate) struct BaselineRun {
    pub(crate) stats: SimStats,
    /// Every L1I eviction, in trace order, for scoring against each
    /// threshold's ideal windows.
    pub(crate) log: Vec<EvictionEvent>,
    /// The log scored against the original layout's ideal windows,
    /// computed on first use.
    original_accuracy: OnceLock<AccuracyStats>,
}

impl BaselineRun {
    fn logged(session: &SimSession<'_>, policy: PolicyKind) -> Self {
        let mut sink = VecSink::new();
        let stats = session.run_with_sink(policy, &mut sink);
        BaselineRun {
            stats,
            log: sink.into_events(),
            original_accuracy: OnceLock::new(),
        }
    }
}

/// The ideal windows and line accesses of the original layout: what an
/// evaluation without a final-layout analysis scores against.
#[derive(Debug)]
pub(crate) struct OriginalScoring {
    pub(crate) windows: WindowIndex,
    pub(crate) accesses: LineAccessIndex,
}

/// Everything an evaluation measures on the original binary, built once
/// per (program, layout, eval trace, [`SimConfig`]) and shared by every
/// threshold evaluated against it with
/// [`Ripple::evaluate_on`](crate::Ripple::evaluate_on).
///
/// Construction captures the original binary's [`SimSession`] once and
/// runs LRU, the ideal oracle and the ideal cache as one harness job
/// matrix, then frees the capture. Two things are computed only when first
/// needed: the baseline under a non-LRU underlying policy (one more run,
/// streamed) and
/// the original layout's ideal-window scoring (needed only for empty
/// plans or with the final-layout analysis disabled). Both are cached
/// behind `OnceLock`s, so a baseline can be shared across parallel
/// threshold jobs.
///
/// # Examples
///
/// ```
/// use ripple::{Ripple, RippleConfig};
/// use ripple_program::{Layout, LayoutConfig};
/// use ripple_workloads::{execute, generate, AppSpec, InputConfig};
///
/// let app = generate(&AppSpec::tiny(7));
/// let layout = Layout::new(&app.program, &LayoutConfig::default());
/// let trace = execute(&app.program, &app.model, InputConfig::training(7), 20_000);
/// let ripple = Ripple::train(&app.program, &layout, &trace, RippleConfig::default())?;
///
/// let baseline = ripple.baseline(&trace)?;
/// for threshold in [0.45, 0.55, 0.65] {
///     let shared = ripple.evaluate_on(&baseline, threshold)?;
///     assert_eq!(shared, ripple.evaluate_with_threshold(&trace, threshold)?);
/// }
/// # Ok::<(), ripple::Error>(())
/// ```
#[derive(Debug)]
pub struct EvalBaseline<'a> {
    /// The original binary's session; it holds the program, layout, trace,
    /// sim config and recorder the baseline was built for.
    session: SimSession<'a>,
    /// Whether the program carries no injected code. Relinking such a
    /// program under an empty plan gives back the same binary, so an empty
    /// plan's Ripple run is its baseline run.
    pristine: bool,
    lru: BaselineRun,
    ideal: SimStats,
    ideal_cache: SimStats,
    /// The oracle run's eviction windows, indexed on first use.
    oracle_windows: Vec<EvictionWindow>,
    /// Runs under other underlying policies, by registry index, each
    /// replayed on first use.
    underlying: Vec<OnceLock<Result<BaselineRun, Error>>>,
    original: OnceLock<OriginalScoring>,
}

impl<'a> EvalBaseline<'a> {
    /// Measures the original binary: captures its session, then runs LRU,
    /// the ideal oracle (OPT, or Demand-MIN under a prefetcher) and the
    /// ideal cache on up to `threads` workers (`None`/`Some(0)` =
    /// auto-detect) under the `eval.sim_runs` phase.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Job`] when a run panicked (the harness isolates the
    /// panic; sibling runs still complete).
    pub fn new(
        program: &'a Program,
        layout: &'a Layout,
        eval_trace: &'a BbTrace,
        sim: SimConfig,
        threads: Option<usize>,
        recorder: Arc<dyn Recorder>,
    ) -> Result<Self, Error> {
        let oracle = ideal_policy_for(sim.prefetcher);
        let mut session = SimSession::new(program, layout, eval_trace, sim).with_recorder(recorder);
        let recorder = session.recorder().clone();

        enum RunOut {
            Logged(BaselineRun),
            Windowed(SimStats, Vec<EvictionWindow>),
            Stats(SimStats),
        }
        let session_ref = &session;
        let jobs: Vec<Job<'_, RunOut>> = vec![
            Box::new(move || RunOut::Logged(BaselineRun::logged(session_ref, PolicyKind::LRU))),
            Box::new(move || {
                let mut windows = WindowSink::new();
                let stats = session_ref.run_with_sink(oracle, &mut windows);
                RunOut::Windowed(stats, windows.into_windows())
            }),
            Box::new(move || RunOut::Stats(session_ref.run_ideal_cache())),
        ];
        let outs = time_phase(&*recorder, "eval.sim_runs", || {
            // The oracle captures anyway; a capture error is cached by the
            // session and resurfaces in the oracle's job.
            let _ = session.try_ensure_recorded();
            run_jobs_observed(effective_threads(threads), "baseline", &*recorder, jobs)
        })?;
        // No later run needs the capture: an underlying replayed on first
        // use streams instead. Freeing it keeps the baseline's footprint
        // out of the peak of each evaluation's own relinks and runs.
        session.release_capture();
        let (lru, ideal, oracle_windows, ideal_cache) = match <[RunOut; 3]>::try_from(outs) {
            Ok([RunOut::Logged(lru), RunOut::Windowed(ideal, windows), RunOut::Stats(cache)]) => {
                (lru, ideal, windows, cache)
            }
            _ => {
                return Err(Error::Internal(
                    "baseline job outputs out of shape".to_string(),
                ))
            }
        };
        Ok(EvalBaseline {
            pristine: program.injected_instruction_count() == 0,
            session,
            lru,
            ideal,
            ideal_cache,
            oracle_windows,
            underlying: (0..PolicyRegistry::global().len())
                .map(|_| OnceLock::new())
                .collect(),
            original: OnceLock::new(),
        })
    }

    /// The pure-LRU run on the original binary (the paper's common
    /// baseline).
    pub fn lru(&self) -> &SimStats {
        &self.lru.stats
    }

    /// The ideal-replacement bound: OPT, or Demand-MIN when a prefetcher is
    /// active (§II-C).
    pub fn ideal(&self) -> &SimStats {
        &self.ideal
    }

    /// The ideal-cache (zero-miss) bound.
    pub fn ideal_cache(&self) -> &SimStats {
        &self.ideal_cache
    }

    /// The trace the baseline was measured on.
    pub(crate) fn trace(&self) -> &'a BbTrace {
        self.session.trace()
    }

    /// Whether an empty plan leaves the binary unchanged (see `pristine`).
    pub(crate) fn pristine(&self) -> bool {
        self.pristine
    }

    /// Checks that the baseline was built for this program, layout and
    /// sim config.
    pub(crate) fn check_built_for(
        &self,
        program: &Program,
        layout: &Layout,
        sim: &SimConfig,
    ) -> Result<(), Error> {
        fn same<T: PartialEq>(a: &T, b: &T) -> bool {
            std::ptr::eq(a, b) || a == b
        }
        let mismatch = if !same(self.session.program(), program) {
            "program"
        } else if !same(self.session.layout(), layout) {
            "layout"
        } else if self.session.config() != sim {
            "sim config"
        } else {
            return Ok(());
        };
        Err(Error::BaselineMismatch(mismatch))
    }

    /// The original binary's run under `policy`: the LRU run, or a replay
    /// of the capture made on first use and timed as `eval.sim_runs`.
    pub(crate) fn run(&self, policy: PolicyKind) -> Result<&BaselineRun, Error> {
        if policy == PolicyKind::LRU {
            return Ok(&self.lru);
        }
        let slot = self.underlying.get(policy.index()).ok_or_else(|| {
            Error::Internal(format!("policy {} is not registered", policy.name()))
        })?;
        let recorder = &**self.session.recorder();
        slot.get_or_init(|| {
            time_phase(recorder, "eval.sim_runs", || {
                let job: Job<'_, BaselineRun> =
                    Box::new(|| BaselineRun::logged(&self.session, policy));
                run_jobs_observed(1, "baseline", recorder, vec![job])?
                    .pop()
                    .ok_or_else(|| Error::Internal("missing baseline run output".to_string()))
            })
        })
        .as_ref()
        .map_err(Clone::clone)
    }

    /// The original layout's ideal windows and line accesses, built on
    /// first use and timed as `eval.accuracy`.
    pub(crate) fn original_scoring(&self) -> &OriginalScoring {
        self.original.get_or_init(|| {
            time_phase(&**self.session.recorder(), "eval.accuracy", || {
                OriginalScoring {
                    windows: WindowIndex::build(&self.oracle_windows),
                    accesses: LineAccessIndex::build(self.session.layout(), self.session.trace()),
                }
            })
        })
    }

    /// `run`'s evictions scored against the original layout's ideal
    /// windows, computed once per run.
    pub(crate) fn original_accuracy(&self, run: &BaselineRun) -> AccuracyStats {
        *run.original_accuracy.get_or_init(|| {
            let scoring = self.original_scoring();
            eviction_accuracy(&run.log, &scoring.windows, &scoring.accesses)
        })
    }
}
