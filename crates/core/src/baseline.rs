//! The threshold-independent half of an evaluation.
//!
//! Every simulation of the *original* binary that
//! [`Ripple::evaluate_thresholds`](crate::Ripple::evaluate_thresholds)
//! needs depends on (program, layout, eval trace, sim config) alone, not on
//! the threshold: the LRU reference, the ideal-replacement and ideal-cache
//! bounds, the baseline under the underlying policy, and the ideal run's
//! outcomes that score the underlying policy's evictions (and Ripple's
//! invalidations when no final-layout analysis ran). An [`EvalBaseline`] measures them
//! once, so a threshold sweep pays for them once.

use std::sync::{Arc, OnceLock};

use ripple_obs::{time_phase, Recorder};
use ripple_program::{Layout, LineAddr, Program};
use ripple_sim::{
    ideal_policy_for, EvictionEvent, EvictionSink, PolicyKind, PolicyRegistry, SimConfig,
    SimSession, SimStats, VecSink,
};
use ripple_trace::BbTrace;

use crate::error::Error;
use crate::harness::{effective_threads, run_jobs, Job};
use crate::metrics::{eviction_accuracy, AccuracyStats, IdealOutcomes};

/// One policy's run on the original binary.
#[derive(Debug)]
pub(crate) struct BaselineRun {
    pub(crate) stats: SimStats,
    /// Every L1I eviction, in trace order, for scoring against the ideal
    /// run's outcomes.
    pub(crate) log: Vec<EvictionEvent>,
    /// The log scored against the ideal run's outcomes, computed on first
    /// use.
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

/// Keeps a run's demand misses, `(line, trace position)` in trace order,
/// and ignores its evictions: all that [`IdealOutcomes::build`] reads.
#[derive(Debug, Default)]
struct MissSink(Vec<(LineAddr, u64)>);

impl EvictionSink for MissSink {
    fn record(&mut self, _event: EvictionEvent) {}

    fn demand_miss(&mut self, line: LineAddr, pos: u64) {
        self.0.push((line, pos));
    }
}

/// Everything an evaluation measures on the original binary, built once
/// per (program, layout, eval trace, [`SimConfig`]) and shared by every
/// threshold evaluated against it with
/// [`Ripple::evaluate_thresholds`](crate::Ripple::evaluate_thresholds)
/// (or its one-threshold form,
/// [`Ripple::evaluate_on`](crate::Ripple::evaluate_on)).
///
/// Construction captures the original binary's [`SimSession`] once and
/// runs LRU, the ideal oracle and the ideal cache as one harness job
/// matrix (the oracle run keeps only its demand misses), then frees the
/// capture and builds the oracle run's [`IdealOutcomes`] (timed as
/// `eval.accuracy`), which score every evaluation's underlying accuracy.
/// The baseline under a non-LRU underlying policy (one more run,
/// streamed) is computed only when first needed and cached behind a
/// `OnceLock`, so a baseline can be shared across parallel jobs, such as
/// [`sweep`](crate::sweep)'s one job per distinct plan.
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
/// let thresholds = [0.45, 0.55, 0.65];
/// let outcomes = ripple.evaluate_thresholds(&baseline, &thresholds)?;
/// for (threshold, shared) in thresholds.into_iter().zip(outcomes) {
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
    /// The oracle run's outcome at every demand access, in the original
    /// layout.
    outcomes: IdealOutcomes,
    /// Runs under other underlying policies, by registry index, each
    /// replayed on first use.
    underlying: Vec<OnceLock<Result<BaselineRun, Error>>>,
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
            Ideal(SimStats, Vec<(LineAddr, u64)>),
            Stats(SimStats),
        }
        let session_ref = &session;
        let jobs: Vec<Job<'_, RunOut>> = vec![
            Box::new(move || RunOut::Logged(BaselineRun::logged(session_ref, PolicyKind::LRU))),
            Box::new(move || {
                let mut sink = MissSink::default();
                let stats = session_ref.run_with_sink(oracle, &mut sink);
                RunOut::Ideal(stats, sink.0)
            }),
            Box::new(move || RunOut::Stats(session_ref.run_ideal_cache())),
        ];
        let outs = time_phase(&*recorder, "eval.sim_runs", || {
            // The oracle captures anyway; a capture error is cached by the
            // session and resurfaces in the oracle's job.
            let _ = session.try_ensure_recorded();
            run_jobs(effective_threads(threads), "baseline", &*recorder, jobs)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
        })?;
        // No later run needs the capture: an underlying replayed on first
        // use streams instead. Freeing it keeps the baseline's footprint
        // out of the peak of each evaluation's own relinks and runs.
        session.release_capture();
        let (lru, ideal, misses, ideal_cache) = match <[RunOut; 3]>::try_from(outs) {
            Ok([RunOut::Logged(lru), RunOut::Ideal(ideal, misses), RunOut::Stats(cache)]) => {
                (lru, ideal, misses, cache)
            }
            _ => {
                return Err(Error::Internal(
                    "baseline job outputs out of shape".to_string(),
                ))
            }
        };
        // Built once the capture is freed, so the two never share the
        // peak.
        let outcomes = time_phase(&*recorder, "eval.accuracy", || {
            IdealOutcomes::build(layout, eval_trace, &misses)
        });
        Ok(EvalBaseline {
            pristine: program.injected_instruction_count() == 0,
            session,
            lru,
            ideal,
            ideal_cache,
            outcomes,
            underlying: (0..PolicyRegistry::global().len())
                .map(|_| OnceLock::new())
                .collect(),
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
    /// sim config. The sim config names no replacement policy, so one
    /// baseline serves every underlying policy.
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
                run_jobs(1, "baseline", recorder, vec![job])
                    .pop()
                    .ok_or_else(|| Error::Internal("missing baseline run output".to_string()))?
                    .map_err(Error::from)
            })
        })
        .as_ref()
        .map_err(Clone::clone)
    }

    /// The ideal run's outcomes in the original layout.
    pub(crate) fn outcomes(&self) -> &IdealOutcomes {
        &self.outcomes
    }

    /// `run`'s evictions scored against the ideal run's outcomes, computed
    /// once per run.
    pub(crate) fn original_accuracy(&self, run: &BaselineRun) -> AccuracyStats {
        *run.original_accuracy
            .get_or_init(|| eviction_accuracy(&run.log, &self.outcomes))
    }
}
