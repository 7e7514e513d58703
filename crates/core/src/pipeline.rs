//! The end-to-end Ripple pipeline: profile → eviction analysis → injection
//! → evaluation (Fig. 4).

use std::collections::HashMap;
use std::sync::Arc;

use ripple_obs::{time_phase, NullRecorder, Recorder};
use ripple_program::{
    patch_invalidates, rewrite, BlockId, InjectionPlan, Layout, LineAddr, Program, Rewritten,
};
use ripple_sim::{
    ideal_policy_for, EvictionMechanism, PolicyKind, SimConfig, SimSession, SimStats,
};
use ripple_trace::BbTrace;

use crate::analysis::{analyze_windows, Analysis, AnalysisConfig, CoverageStats, WindowSink};
use crate::baseline::EvalBaseline;
use crate::error::{ConfigError, Error};
use crate::harness::{run_jobs, Job};
use crate::metrics::{plan_accuracy, AccuracyStats, IdealOutcomes};

/// Configuration of one Ripple run.
#[derive(Debug, Clone, PartialEq)]
pub struct RippleConfig {
    /// Invalidation threshold (§III-C; the paper's per-app best values lie
    /// in 0.45..=0.65).
    pub threshold: f64,
    /// Eviction-window scan cap (see [`AnalysisConfig`]).
    pub analysis: AnalysisConfig,
    /// The underlying hardware replacement policy Ripple assists
    /// (Ripple-LRU or Ripple-Random in the paper).
    pub underlying: PolicyKind,
    /// Re-run the eviction analysis against the *final* (post-injection)
    /// layout and patch victim operands in place (the paper's link-time
    /// flow). Disable only for the ablation measuring how stale a
    /// pre-injection profile becomes.
    pub final_layout_analysis: bool,
    /// Simulator configuration (prefetcher, geometry, latencies, and how
    /// the injected instruction acts on the cache).
    pub sim: SimConfig,
    /// Worker threads for the evaluation harness. Both `None` and
    /// `Some(0)` mean auto-detect (the machine's available parallelism);
    /// `--threads 0` on the CLI maps here. Results are bit-identical at
    /// any value, over-subscribed counts included.
    pub threads: Option<usize>,
}

impl Default for RippleConfig {
    fn default() -> Self {
        RippleConfig {
            threshold: 0.5,
            analysis: AnalysisConfig::default(),
            underlying: PolicyKind::LRU,
            final_layout_analysis: true,
            sim: SimConfig::default(),
            threads: None,
        }
    }
}

impl RippleConfig {
    /// Starts a validating builder seeded with the default configuration.
    pub fn builder() -> RippleConfigBuilder {
        RippleConfigBuilder {
            config: RippleConfig::default(),
        }
    }

    /// Checks every knob against its documented range, the embedded
    /// [`SimConfig`] included, returning the first violation.
    ///
    /// [`Ripple::train`] calls this, so a config assembled by struct
    /// literal is still validated before any expensive work happens.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn finite_in(
            field: &'static str,
            value: f64,
            min: f64,
            max: f64,
        ) -> Result<(), ConfigError> {
            if !value.is_finite() {
                return Err(ConfigError::NotFinite { field });
            }
            if value < min || value > max {
                return Err(ConfigError::OutOfRange {
                    field,
                    value,
                    min,
                    max,
                });
            }
            Ok(())
        }
        finite_in("threshold", self.threshold, 0.0, 1.0)?;
        self.sim.validate().map_err(ConfigError::Sim)?;
        Ok(())
    }

    /// The ideal policy reported as the "ideal replacement" upper bound:
    /// prefetch-aware Demand-MIN whenever a prefetcher is active, plain
    /// Belady-OPT otherwise (§II-C).
    pub fn oracle(&self) -> PolicyKind {
        ideal_policy_for(self.sim.prefetcher)
    }

    /// The oracle driving Ripple's *eviction analysis*: always Belady-OPT
    /// on demand accesses (§III-B: "mimic an ideal policy that would evict
    /// a line that will be used farthest in the future"). Demand-MIN's
    /// extra evictions are free only because a future prefetch re-fills
    /// the line; a software invalidation has no such guarantee, so cueing
    /// them mostly injects misses.
    pub fn analysis_oracle(&self) -> PolicyKind {
        PolicyKind::OPT
    }
}

/// Validating builder for [`RippleConfig`].
///
/// Starts from [`RippleConfig::default`], lets callers override individual
/// knobs, and checks every range in [`RippleConfigBuilder::build`] — a NaN
/// threshold or a degenerate cache geometry comes back as a
/// [`ConfigError`] instead of a panic mid-pipeline.
///
/// # Examples
///
/// ```
/// use ripple::{ConfigError, RippleConfig};
///
/// let cfg = RippleConfig::builder().threshold(0.55).build().unwrap();
/// assert_eq!(cfg.threshold, 0.55);
///
/// let err = RippleConfig::builder().threshold(f64::NAN).build();
/// assert!(matches!(err, Err(ConfigError::NotFinite { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct RippleConfigBuilder {
    config: RippleConfig,
}

impl RippleConfigBuilder {
    /// Sets the invalidation threshold (must end up in `0.0..=1.0`).
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.config.threshold = threshold;
        self
    }

    /// Sets the eviction-window analysis knobs.
    pub fn analysis(mut self, analysis: AnalysisConfig) -> Self {
        self.config.analysis = analysis;
        self
    }

    /// Sets the underlying hardware replacement policy.
    pub fn underlying(mut self, underlying: PolicyKind) -> Self {
        self.config.underlying = underlying;
        self
    }

    /// Enables or disables the final-layout analysis pass.
    pub fn final_layout_analysis(mut self, enabled: bool) -> Self {
        self.config.final_layout_analysis = enabled;
        self
    }

    /// Sets the simulator configuration (validated as part of `build`).
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.config.sim = sim;
        self
    }

    /// Sets the evaluation-harness worker count (`None`/`Some(0)` =
    /// auto-detect).
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.config.threads = threads;
        self
    }

    /// Validates every knob and returns the configuration.
    pub fn build(self) -> Result<RippleConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Everything one Ripple run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RippleOutcome {
    /// Coverage bookkeeping at the chosen threshold.
    pub coverage: CoverageStats,
    /// Static invalidate instructions injected.
    pub injected_static: usize,
    /// Baseline run: original binary under the underlying policy.
    pub baseline: SimStats,
    /// Ripple run: rewritten binary under the underlying policy.
    pub ripple: SimStats,
    /// Ideal-replacement upper bound (oracle policy, original binary).
    pub ideal: SimStats,
    /// Ideal-cache (zero-miss) upper bound.
    pub ideal_cache: SimStats,
    /// Pure-LRU reference on the original binary (the paper's common
    /// baseline even for Ripple-Random).
    pub lru_reference: SimStats,
    /// Accuracy of Ripple's dynamic invalidations (Fig. 10).
    pub ripple_accuracy: AccuracyStats,
    /// Accuracy of the underlying policy's own evictions.
    pub underlying_accuracy: AccuracyStats,
    /// Static instruction overhead, percent (Fig. 11).
    pub static_overhead_pct: f64,
    /// Dynamic instruction overhead, percent (Fig. 12).
    pub dynamic_overhead_pct: f64,
}

impl RippleOutcome {
    /// Ripple's speedup over the pure-LRU baseline, percent (Fig. 7).
    pub fn speedup_pct(&self) -> f64 {
        self.ripple.speedup_pct_over(&self.lru_reference)
    }

    /// Ideal-replacement speedup over the LRU baseline, percent.
    pub fn ideal_speedup_pct(&self) -> f64 {
        self.ideal.speedup_pct_over(&self.lru_reference)
    }

    /// Ideal-cache speedup over the LRU baseline, percent (Fig. 1).
    pub fn ideal_cache_speedup_pct(&self) -> f64 {
        self.ideal_cache.speedup_pct_over(&self.lru_reference)
    }

    /// Ripple's L1I miss reduction over the LRU baseline, percent (Fig. 8).
    pub fn miss_reduction_pct(&self) -> f64 {
        self.ripple.miss_reduction_pct_over(&self.lru_reference)
    }

    /// Ideal-replacement miss reduction over LRU, percent.
    pub fn ideal_miss_reduction_pct(&self) -> f64 {
        self.ideal.miss_reduction_pct_over(&self.lru_reference)
    }
}

/// A reusable Ripple optimizer bound to one program + profiled layout.
///
/// Split from [`RippleOutcome`] so callers can run the (expensive)
/// analysis once and then evaluate several thresholds, mechanisms or
/// underlying policies — exactly what the paper's threshold sweep and
/// ablations need.
#[derive(Debug)]
pub struct Ripple<'p> {
    program: &'p Program,
    layout: &'p Layout,
    config: RippleConfig,
    analysis: Analysis,
    /// Observability sink for `train.*` / `eval.*` phases; propagated to
    /// every [`SimSession`] the pipeline creates. [`NullRecorder`] by
    /// default — recorders observe only and never change outcomes.
    recorder: Arc<dyn Recorder>,
}

impl<'p> Ripple<'p> {
    /// Profiles nothing itself: takes an already-collected training trace,
    /// replays the oracle over it, and builds the eviction analysis.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `config` fails
    /// [`RippleConfig::validate`]; no simulation work happens in that
    /// case.
    pub fn train(
        program: &'p Program,
        layout: &'p Layout,
        train_trace: &BbTrace,
        config: RippleConfig,
    ) -> Result<Self, Error> {
        Self::train_with_recorder(program, layout, train_trace, config, Arc::new(NullRecorder))
    }

    /// [`Ripple::train`] with an observability recorder attached: training
    /// reports `train.oracle_replay` and `train.cue_selection` phases, and
    /// every evaluation afterwards reports `eval.*` phases plus per-job
    /// harness timings.
    pub fn train_with_recorder(
        program: &'p Program,
        layout: &'p Layout,
        train_trace: &BbTrace,
        config: RippleConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Result<Self, Error> {
        config.validate()?;
        let oracle_cfg = config.sim.clone().with_policy(config.analysis_oracle());
        let mut windows = WindowSink::without_misses();
        let _ = time_phase(&*recorder, "train.oracle_replay", || {
            let session = SimSession::new(program, layout, train_trace, oracle_cfg.clone())
                .with_recorder(recorder.clone());
            session.run_with_sink(oracle_cfg.policy, &mut windows)
        });
        let analysis = time_phase(&*recorder, "train.cue_selection", || {
            analyze_windows(
                program,
                layout,
                train_trace,
                windows.into_windows(),
                &config.analysis,
            )
        });
        Ok(Ripple {
            program,
            layout,
            config,
            analysis,
            recorder,
        })
    }

    /// The attached observability recorder ([`NullRecorder`] unless
    /// trained via [`Ripple::train_with_recorder`]).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The underlying analysis (cue choices, windows).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The configuration this optimizer was trained with.
    pub fn config(&self) -> &RippleConfig {
        &self.config
    }

    /// The injection plan at the configured threshold.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the configured threshold is not a
    /// finite probability (possible when the config was assembled by
    /// struct literal rather than the validating builder).
    pub fn plan(&self) -> Result<(InjectionPlan, CoverageStats), Error> {
        check_threshold(self.config.threshold)?;
        Ok(self.analysis.plan_for_threshold(self.config.threshold))
    }

    /// Applies the plan and evaluates on `eval_trace` (which may be the
    /// training trace — the paper's default — or a different input's
    /// trace for the Fig. 13 study).
    pub fn evaluate(&self, eval_trace: &BbTrace) -> Result<RippleOutcome, Error> {
        self.evaluate_with_threshold(eval_trace, self.config.threshold)
    }

    /// [`Ripple::evaluate`] at an explicit threshold: builds an
    /// [`EvalBaseline`] on `eval_trace`, then runs [`Ripple::evaluate_on`].
    /// To evaluate several thresholds, build the baseline once with
    /// [`Ripple::baseline`] and pass them all to
    /// [`Ripple::evaluate_thresholds`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a non-finite or out-of-range
    /// `threshold` (before any simulation work) and [`Error::Job`] when an
    /// evaluation job panicked (the harness isolates the panic; sibling
    /// runs still complete).
    pub fn evaluate_with_threshold(
        &self,
        eval_trace: &BbTrace,
        threshold: f64,
    ) -> Result<RippleOutcome, Error> {
        check_threshold(threshold)?;
        self.evaluate_on(&self.baseline(eval_trace)?, threshold)
    }

    /// Measures the original binary on `eval_trace` once (see
    /// [`EvalBaseline`]), with this optimizer's sim config, thread count
    /// and recorder.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Job`] when a baseline run panicked.
    pub fn baseline<'a>(&self, eval_trace: &'a BbTrace) -> Result<EvalBaseline<'a>, Error>
    where
        'p: 'a,
    {
        EvalBaseline::new(
            self.program,
            self.layout,
            eval_trace,
            self.config.sim.clone(),
            self.config.threads,
            self.recorder.clone(),
        )
    }

    /// Evaluates the plan at `threshold` against a shared `baseline`: a
    /// one-threshold [`Ripple::evaluate_thresholds`].
    ///
    /// # Errors
    ///
    /// As for [`Ripple::evaluate_thresholds`].
    pub fn evaluate_on(
        &self,
        baseline: &EvalBaseline<'_>,
        threshold: f64,
    ) -> Result<RippleOutcome, Error> {
        self.evaluate_thresholds(baseline, &[threshold])?
            .pop()
            .ok_or_else(|| Error::Internal("missing threshold outcome".to_string()))
    }

    /// Evaluates the plan at each of `thresholds` against a shared
    /// `baseline`: only the threshold-dependent work runs here. The
    /// outcomes come back in `thresholds` order, each equal to a
    /// one-threshold evaluation's.
    ///
    /// The flow mirrors the paper's link-time deployment: the training
    /// analysis places invalidate *slots* (which cue blocks, how many);
    /// relinking fixes the final layout; a second analysis pass against
    /// that final layout assigns the victim operands (the binary's
    /// addresses are only meaningful once the layout is final). The
    /// rewritten binary then runs under the underlying policy. Ripple's
    /// invalidations are scored against the final layout's oracle run, and
    /// the underlying policy's evictions against the baseline's (see
    /// [`IdealOutcomes`](crate::IdealOutcomes)).
    ///
    /// Each stage's output is a function of the plan it was given, so the
    /// stages run once per distinct plan, not once per threshold: one
    /// relink and round-0 analysis per training plan, one relink of the
    /// pristine program and round-1 analysis per round-1 plan under it,
    /// and one patch, run and scoring per final plan under that.
    /// Thresholds that agree on a training plan are counted in
    /// `eval.plans_shared`.
    ///
    /// An empty plan relinks to the very binary the baseline measured, so
    /// it skips the relink and the rewritten run: its Ripple run *is* the
    /// baseline run, with zero overheads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a non-finite or out-of-range
    /// threshold (before any simulation work),
    /// [`Error::BaselineMismatch`] when `baseline` was built for a
    /// different program, layout or sim config, and [`Error::Job`] when an
    /// evaluation job panicked.
    pub fn evaluate_thresholds(
        &self,
        baseline: &EvalBaseline<'_>,
        thresholds: &[f64],
    ) -> Result<Vec<RippleOutcome>, Error> {
        for &threshold in thresholds {
            check_threshold(threshold)?;
        }
        baseline.check_built_for(self.program, self.layout, &self.config.sim)?;
        let recorder = &*self.recorder;
        let eval_trace = baseline.trace();
        let base = baseline.run(self.config.underlying)?;
        let (plans, coverage): (Vec<_>, Vec<_>) = time_phase(recorder, "eval.plan", || {
            thresholds
                .iter()
                .map(|&t| self.analysis.plan_for_threshold(t))
                .unzip()
        });

        let (plans, plan_of) = distinct_plans(plans);
        let mut staged = Vec::with_capacity(thresholds.len());
        for (k, plan) in plans.iter().enumerate() {
            let members = members_of(k, &plan_of, 0..thresholds.len());
            let (slots, ripple) = if plan.is_empty() && baseline.pristine() {
                (0, base.stats.clone())
            } else {
                recorder.add("eval.plans_shared", members.len() as u64 - 1);
                let rewritten = time_phase(recorder, "eval.final_layout", || {
                    time_phase(recorder, "eval.relink", || {
                        rewrite(self.program, self.layout, plan)
                    })
                });
                if self.config.final_layout_analysis && !plan.is_empty() {
                    staged.extend(self.fixpoint(eval_trace, thresholds, &members, rewritten)?);
                    continue;
                }
                let ripple = self.run_linked(&rewritten.program, &rewritten.layout, eval_trace)?;
                (plan.len(), ripple)
            };
            // Without a final-layout round, the training plan is linked as
            // is and scored in the original layout.
            let accuracy = time_phase(recorder, "eval.accuracy", || {
                plan_accuracy(plan, self.layout, eval_trace, baseline.outcomes())
            });
            staged.extend(members.iter().map(|&i| Staged {
                index: i,
                coverage: coverage[i],
                slots,
                ripple: ripple.clone(),
                accuracy,
            }));
        }
        staged.sort_by_key(|s| s.index);

        let underlying_accuracy = time_phase(recorder, "eval.accuracy", || {
            baseline.original_accuracy(base)
        });
        let static_orig = self.program.static_instruction_count();
        Ok(staged
            .into_iter()
            .map(|s| {
                let dyn_orig = s.ripple.instructions;
                let dynamic_overhead_pct = if dyn_orig == 0 {
                    0.0
                } else {
                    s.ripple.invalidate_instructions as f64 / dyn_orig as f64 * 100.0
                };
                RippleOutcome {
                    coverage: s.coverage,
                    injected_static: s.slots,
                    baseline: base.stats.clone(),
                    ripple: s.ripple,
                    ideal: baseline.ideal().clone(),
                    ideal_cache: baseline.ideal_cache().clone(),
                    lru_reference: baseline.lru().clone(),
                    ripple_accuracy: s.accuracy,
                    underlying_accuracy,
                    static_overhead_pct: s.slots as f64 / static_orig as f64 * 100.0,
                    dynamic_overhead_pct,
                }
            })
            .collect())
    }

    /// The layout fixpoint for the thresholds `members`, whose training
    /// plan was linked as `rewritten`. Victims are expressed as
    /// layout-independent `CodeLoc`s, so a plan derived against one layout
    /// can be re-applied to the pristine program. Round 0 re-runs the
    /// oracle on the linked layout and re-places the slots; round 1
    /// relinks the pristine program with each round-1 plan, re-runs the
    /// oracle, and assigns victims to the frozen slots. By then the plan's
    /// own layout is (very nearly) the layout it was derived against, and
    /// patching operands in place closes the residual.
    fn fixpoint(
        &self,
        eval_trace: &BbTrace,
        thresholds: &[f64],
        members: &[usize],
        rewritten: Rewritten,
    ) -> Result<Vec<Staged>, Error> {
        // The round-0 binary and analysis are dropped as soon as every
        // round-1 plan is known.
        let slot_plans = time_phase(&*self.recorder, "eval.final_layout", || {
            let (analysis, _) =
                self.analyze_linked(&rewritten, eval_trace, WindowSink::without_misses());
            members
                .iter()
                .map(|&i| analysis.plan_for_threshold(thresholds[i]).0)
                .collect()
        });
        drop(rewritten);
        let (slot_plans, slot_plan_of) = distinct_plans(slot_plans);
        let mut staged = Vec::with_capacity(members.len());
        for (k, slot_plan) in slot_plans.iter().enumerate() {
            let group = members_of(k, &slot_plan_of, members.iter().copied());
            staged.extend(self.final_round(eval_trace, thresholds, &group, slot_plan)?);
        }
        Ok(staged)
    }

    /// The fixpoint's final round for the thresholds `members`, whose
    /// round-1 plan is `slot_plan`. The layout is frozen after this
    /// relink: each threshold selects cues *subject to* the reserved slot
    /// budget (each window picks an eligible cue that still has a free
    /// slot), and each distinct selection is patched in and run.
    fn final_round(
        &self,
        eval_trace: &BbTrace,
        thresholds: &[f64],
        members: &[usize],
        slot_plan: &InjectionPlan,
    ) -> Result<Vec<Staged>, Error> {
        let recorder = &*self.recorder;
        let (linked, misses, finals) = time_phase(recorder, "eval.final_layout", || {
            let linked = time_phase(recorder, "eval.relink", || {
                rewrite(self.program, self.layout, slot_plan)
            });
            let (analysis, misses) = self.analyze_linked(&linked, eval_trace, WindowSink::new());
            let finals: Vec<_> = time_phase(recorder, "eval.patch", || {
                // The slot plan is what the binary was linked with: one
                // slot per injection at its cue, with no scan over every
                // block.
                let mut slots: HashMap<BlockId, usize> = HashMap::new();
                for inj in slot_plan.injections() {
                    *slots.entry(inj.cue).or_default() += 1;
                }
                debug_assert!(slots.iter().all(|(&cue, &n)| {
                    linked.program.block(cue).injected_prefix_len() as usize == n
                }));
                members
                    .iter()
                    .map(|&i| analysis.plan_for_slots(thresholds[i], &slots))
                    .collect()
            });
            (linked, misses, finals)
        });
        recorder.gauge("eval.slots_reserved", slot_plan.len() as f64);
        let (final_plans, coverage): (Vec<_>, Vec<_>) = finals.into_iter().unzip();
        let (final_plans, final_plan_of) = distinct_plans(final_plans);

        // `patch_invalidates` rewrites every slot of the binary, so each
        // final plan patches the same binary in turn.
        let Rewritten {
            mut program,
            layout,
            ..
        } = linked;
        let mut runs = Vec::with_capacity(final_plans.len());
        for final_plan in &final_plans {
            time_phase(recorder, "eval.final_layout", || {
                time_phase(recorder, "eval.patch", || {
                    let mut assignments: HashMap<BlockId, Vec<LineAddr>> = HashMap::new();
                    for inj in final_plan.injections() {
                        assignments
                            .entry(inj.cue)
                            .or_default()
                            .push(layout.line_of(inj.victim));
                    }
                    patch_invalidates(&mut program, &assignments);
                })
            });
            recorder.gauge("eval.slots_assigned", final_plan.len() as f64);
            runs.push(self.run_linked(&program, &layout, eval_trace)?);
        }
        drop(program);

        // Built after the final runs, so the outcomes never share their
        // peak.
        let accuracy: Vec<_> = time_phase(recorder, "eval.accuracy", || {
            let outcomes = IdealOutcomes::build(&layout, eval_trace, &misses);
            final_plans
                .iter()
                .map(|p| plan_accuracy(p, &layout, eval_trace, &outcomes))
                .collect()
        });
        Ok(members
            .iter()
            .zip(final_plan_of)
            .zip(coverage)
            .map(|((&index, k), coverage)| Staged {
                index,
                coverage,
                slots: slot_plan.len(),
                ripple: runs[k].clone(),
                accuracy: accuracy[k],
            })
            .collect())
    }

    /// Replays the analysis oracle over a linked binary into `windows` and
    /// analyzes the eviction windows it kept, returning the analysis and
    /// the run's demand misses (none when `windows` drops them).
    fn analyze_linked(
        &self,
        linked: &Rewritten,
        eval_trace: &BbTrace,
        mut windows: WindowSink,
    ) -> (Analysis, Vec<(LineAddr, u64)>) {
        let mut oracle_cfg = self
            .config
            .sim
            .clone()
            .with_policy(self.config.analysis_oracle());
        oracle_cfg.eviction_mechanism = EvictionMechanism::NoOp;
        time_phase(&*self.recorder, "eval.oracle_replay", || {
            let session = SimSession::new(
                &linked.program,
                &linked.layout,
                eval_trace,
                oracle_cfg.clone(),
            )
            .with_recorder(self.recorder.clone());
            let _ = session.run_with_sink(oracle_cfg.policy, &mut windows);
        });
        let (windows, misses) = windows.into_parts();
        let analysis = time_phase(&*self.recorder, "eval.window_analysis", || {
            analyze_windows(
                &linked.program,
                &linked.layout,
                eval_trace,
                windows,
                &self.config.analysis,
            )
        });
        (analysis, misses)
    }

    /// Runs a linked binary under the underlying policy and the sim
    /// config's eviction mechanism, timed as `eval.sim_runs`.
    fn run_linked(
        &self,
        program: &Program,
        layout: &Layout,
        eval_trace: &BbTrace,
    ) -> Result<SimStats, Error> {
        let under_cfg = self.config.sim.clone().with_policy(self.config.underlying);
        let session = SimSession::new(program, layout, eval_trace, under_cfg)
            .with_recorder(self.recorder.clone());
        let underlying = self.config.underlying;
        let job: Job<'_, SimStats> = Box::new(|| session.run(underlying));
        Ok(time_phase(&*self.recorder, "eval.sim_runs", || {
            run_jobs(1, "evaluate", &*self.recorder, vec![job]).pop()
        })
        .ok_or_else(|| Error::Internal("missing ripple job output".to_string()))??)
    }
}

/// One threshold's share of a staged evaluation.
struct Staged {
    /// The threshold's index in the evaluated list.
    index: usize,
    coverage: CoverageStats,
    /// Static invalidates the binary was linked with.
    slots: usize,
    ripple: SimStats,
    accuracy: AccuracyStats,
}

/// Deduplicates `plans`: the distinct plans in first-appearance order,
/// and for each input plan the index of its distinct copy.
pub(crate) fn distinct_plans(plans: Vec<InjectionPlan>) -> (Vec<InjectionPlan>, Vec<usize>) {
    let mut distinct: Vec<InjectionPlan> = Vec::new();
    let plan_of = plans
        .into_iter()
        .map(|plan| match distinct.iter().position(|d| *d == plan) {
            Some(k) => k,
            None => {
                distinct.push(plan);
                distinct.len() - 1
            }
        })
        .collect();
    (distinct, plan_of)
}

/// The `ids` whose plan (by `plan_of`, aligned with `ids`) is distinct
/// plan `k`.
pub(crate) fn members_of(
    k: usize,
    plan_of: &[usize],
    ids: impl Iterator<Item = usize>,
) -> Vec<usize> {
    ids.zip(plan_of)
        .filter(|&(_, &of)| of == k)
        .map(|(id, _)| id)
        .collect()
}

/// An explicit sweep threshold must be a finite probability.
pub(crate) fn check_threshold(threshold: f64) -> Result<(), Error> {
    if !threshold.is_finite() {
        return Err(Error::Config(ConfigError::NotFinite { field: "threshold" }));
    }
    if !(0.0..=1.0).contains(&threshold) {
        return Err(Error::Config(ConfigError::OutOfRange {
            field: "threshold",
            value: threshold,
            min: 0.0,
            max: 1.0,
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_program::LayoutConfig;
    use ripple_sim::PrefetcherKind;
    use ripple_workloads::{execute, generate, AppSpec, InputConfig};

    fn small_config() -> RippleConfig {
        let mut cfg = RippleConfig::default();
        // Shrink the L1I so the tiny app thrashes it, and drop the
        // recurrence filter (tiny traces rarely repeat pairs).
        cfg.sim.l1i = ripple_sim::CacheGeometry::new(2 * 1024, 4);
        cfg.analysis.min_windows_per_injection = 1;
        cfg.threshold = 0.1;
        cfg
    }

    #[test]
    fn pipeline_injects_and_reports_sane_metrics() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 60_000);
        let ripple = Ripple::train(&app.program, &layout, &trace, small_config()).unwrap();
        let outcome = ripple.evaluate(&trace).unwrap();

        assert!(outcome.coverage.total_windows > 0, "no eviction windows");
        assert!(outcome.injected_static > 0, "nothing injected");
        assert!(
            outcome.ideal.demand_misses <= outcome.baseline.demand_misses,
            "ideal must lower-bound the baseline"
        );
        assert!(
            outcome.ripple.invalidate_instructions > 0,
            "invalidates must execute"
        );
        assert!(outcome.ripple_accuracy.total > 0);
        assert!((0.0..=1.0).contains(&outcome.coverage.coverage()));
        assert!((0.0..=1.0).contains(&outcome.ripple_accuracy.accuracy()));
        assert!(outcome.static_overhead_pct > 0.0);
        assert!(outcome.dynamic_overhead_pct > 0.0);
        // The performance guarantee on calibrated workloads is asserted by
        // the integration tests; the tiny app only checks plumbing.
    }

    #[test]
    fn the_ripple_run_uses_the_sim_configs_eviction_mechanism() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 60_000);
        let run = |mechanism| {
            let mut cfg = small_config();
            cfg.sim.eviction_mechanism = mechanism;
            let ripple = Ripple::train(&app.program, &layout, &trace, cfg).unwrap();
            let o = ripple.evaluate(&trace).unwrap();
            assert!(o.injected_static > 0, "{mechanism:?}: nothing injected");
            assert!(o.ripple.invalidate_instructions > 0, "{mechanism:?}");
            o.ripple.invalidate_hits
        };
        assert!(run(EvictionMechanism::Invalidate) > 0);
        assert_eq!(run(EvictionMechanism::NoOp), 0, "a no-op evicted a line");
    }

    #[test]
    fn ordering_invariants_hold() {
        let app = generate(&AppSpec::tiny(33));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(33), 60_000);
        let ripple = Ripple::train(&app.program, &layout, &trace, small_config()).unwrap();
        let o = ripple.evaluate(&trace).unwrap();
        // ideal cache >= ideal replacement >= ripple (in IPC terms).
        assert!(o.ideal_cache.ipc() >= o.ideal.ipc() - 1e-9);
        assert!(o.ideal_speedup_pct() >= o.speedup_pct() - 1.0);
        assert_eq!(o.ideal_cache.demand_misses, 0);
    }

    #[test]
    fn lru_reference_is_the_lru_run_on_the_original_binary() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 30_000);
        // Under an LRU underlying the baseline run doubles as the
        // reference.
        let lru = Ripple::train(&app.program, &layout, &trace, small_config()).unwrap();
        let o = lru.evaluate(&trace).unwrap();
        assert_eq!(o.lru_reference, o.baseline);
        // Under any other underlying it is a run of its own, equal to an
        // independent LRU simulation.
        let mut cfg = small_config();
        cfg.underlying = PolicyKind::RANDOM;
        let independent =
            SimSession::new(&app.program, &layout, &trace, cfg.sim.clone()).run(PolicyKind::LRU);
        let random = Ripple::train(&app.program, &layout, &trace, cfg).unwrap();
        let o = random.evaluate(&trace).unwrap();
        assert_eq!(o.lru_reference, independent);
        assert_ne!(o.baseline, o.lru_reference, "the baseline ran under Random");
    }

    #[test]
    fn a_shared_baseline_gives_the_outcomes_of_fresh_evaluations() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 30_000);
        // No cue of this app always precedes its eviction, so the plan at
        // 1.0 is empty (asserted below).
        let thresholds = [0.1, 0.3, 1.0];
        for underlying in [PolicyKind::LRU, PolicyKind::RANDOM] {
            for prefetcher in [PrefetcherKind::None, PrefetcherKind::Fdip] {
                let mut cfg = small_config();
                cfg.underlying = underlying;
                cfg.sim.prefetcher = prefetcher;
                let ripple = Ripple::train(&app.program, &layout, &trace, cfg).unwrap();
                let baseline = ripple.baseline(&trace).unwrap();
                // Evaluate in reverse, so the empty plan is the first to
                // reach the baseline's lazily built state.
                let mut injected = Vec::new();
                for &t in thresholds.iter().rev() {
                    let shared = ripple.evaluate_on(&baseline, t).unwrap();
                    let fresh = ripple.evaluate_with_threshold(&trace, t).unwrap();
                    assert_eq!(shared, fresh, "{underlying:?}/{prefetcher:?} at {t}");
                    injected.push(shared.injected_static);
                }
                assert!(injected.contains(&0), "no empty plan: {injected:?}");
                assert!(injected.iter().any(|&n| n > 0), "no plan: {injected:?}");
            }
        }
    }

    #[test]
    fn a_threshold_list_gives_the_outcomes_of_single_threshold_evaluations() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 30_000);
        // A repeat, and a strictest threshold whose plan is likely empty.
        let thresholds = [0.45, 0.55, 0.65, 0.55, 1.0];
        for underlying in [PolicyKind::LRU, PolicyKind::RANDOM] {
            for prefetcher in [PrefetcherKind::None, PrefetcherKind::Fdip] {
                let mut cfg = small_config();
                cfg.underlying = underlying;
                cfg.sim.prefetcher = prefetcher;
                let ripple = Ripple::train(&app.program, &layout, &trace, cfg).unwrap();
                let baseline = ripple.baseline(&trace).unwrap();
                let batch = ripple.evaluate_thresholds(&baseline, &thresholds).unwrap();
                assert_eq!(batch.len(), thresholds.len());
                for (&t, outcome) in thresholds.iter().zip(&batch) {
                    let single = ripple.evaluate_with_threshold(&trace, t).unwrap();
                    assert_eq!(*outcome, single, "{underlying:?}/{prefetcher:?} at {t}");
                }
                assert!(batch[0].injected_static > 0, "no plan at 0.45");
            }
        }
    }

    #[test]
    fn thresholds_sharing_a_plan_share_its_relinks_and_runs() {
        use ripple_obs::MetricsRecorder;

        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 30_000);
        let metrics = Arc::new(MetricsRecorder::new());
        let ripple = Ripple::train_with_recorder(
            &app.program,
            &layout,
            &trace,
            small_config(),
            metrics.clone(),
        )
        .unwrap();
        let thresholds = [0.35, 0.4, 0.45];
        let (plan, _) = ripple.analysis().plan_for_threshold(thresholds[0]);
        assert!(!plan.is_empty());
        for &t in &thresholds[1..] {
            assert_eq!(ripple.analysis().plan_for_threshold(t).0, plan, "at {t}");
        }
        let baseline = ripple.baseline(&trace).unwrap();
        ripple.evaluate_thresholds(&baseline, &thresholds).unwrap();
        let snapshot = metrics.snapshot();
        // One relink serves all three: two oracle replays, one per
        // fixpoint round, not two per threshold.
        assert_eq!(snapshot.phase("eval.oracle_replay").unwrap().count, 2);
        assert_eq!(snapshot.counter("eval.plans_shared"), Some(2));
    }

    #[test]
    fn a_sweep_is_bit_identical_at_one_and_two_threads() {
        use crate::threshold::sweep;

        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 30_000);
        let thresholds = [0.3, 0.35, 0.4, 0.45, 0.55, 1.0, 0.4];
        let points: Vec<_> = [1, 2]
            .map(|threads| {
                let mut cfg = small_config();
                cfg.threads = Some(threads);
                let ripple = Ripple::train(&app.program, &layout, &trace, cfg).unwrap();
                sweep(&ripple, &trace, &thresholds).unwrap()
            })
            .into_iter()
            .collect();
        let bits = |p: &crate::ThresholdPoint| {
            [p.threshold, p.coverage, p.accuracy, p.speedup_pct].map(f64::to_bits)
        };
        assert_eq!(points[0].len(), thresholds.len());
        for (one, two) in points[0].iter().zip(&points[1]) {
            assert_eq!(bits(one), bits(two));
        }
        let ripple = Ripple::train(&app.program, &layout, &trace, small_config()).unwrap();
        for (&t, point) in thresholds.iter().zip(&points[0]) {
            let single = ripple.evaluate_with_threshold(&trace, t).unwrap();
            assert_eq!(point.threshold, t);
            assert_eq!(point.speedup_pct.to_bits(), single.speedup_pct().to_bits());
            assert_eq!(
                point.coverage.to_bits(),
                single.coverage.coverage().to_bits()
            );
        }
    }

    #[test]
    fn underlying_accuracy_does_not_depend_on_the_threshold() {
        // The underlying policy runs on the original binary whatever
        // Ripple's plan, so Fig. 10's LRU accuracy is one number per
        // baseline: its evictions scored in the original layout.
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 60_000);
        let ripple = Ripple::train(&app.program, &layout, &trace, small_config()).unwrap();
        let baseline = ripple.baseline(&trace).unwrap();
        let lru = baseline.original_accuracy(baseline.run(PolicyKind::LRU).unwrap());
        assert!(lru.total > 0);
        for t in [0.3, 0.55, 0.8] {
            let o = ripple.evaluate_on(&baseline, t).unwrap();
            assert!(o.injected_static > 0, "empty plan at {t}");
            assert_eq!(o.underlying_accuracy, lru, "at {t}");
        }
    }

    #[test]
    fn an_lru_eviction_after_the_ideal_one_and_before_the_reuse_is_accurate() {
        use ripple_program::{CodeKind, FuncId, Instruction, ProgramBuilder};
        use ripple_sim::{CacheGeometry, VecSink};

        // Three one-block functions, each in a cache line of its own.
        let mut builder = ProgramBuilder::new();
        let mut blocks = Vec::new();
        for name in ["a", "b", "c"] {
            let f = builder.add_function(name, CodeKind::Static);
            let block = builder.add_block(f);
            builder.push_inst(block, Instruction::other(10));
            builder.push_inst(block, Instruction::ret());
            blocks.push(block);
        }
        let program = builder.finish(FuncId::new(0)).unwrap();
        let layout = Layout::new(&program, &LayoutConfig::default());
        let line = |i: usize| layout.lines_of_block(blocks[i]).next().unwrap();
        let (a, b, c) = (line(0), line(1), line(2));
        assert!(a != b && b != c && a != c);

        // B A C B A through a one-set, two-way L1I. At C (position 2) OPT
        // evicts A, whose reuse is farthest, and LRU evicts B. LRU then
        // misses B at 3 and evicts A there: after OPT did, before A's
        // reuse at 4, which OPT missed too.
        let trace = BbTrace::new([1, 0, 2, 1, 0].map(|i| blocks[i]).to_vec());
        let mut cfg = RippleConfig::default();
        cfg.sim.l1i = CacheGeometry::new(128, 2);
        let evictions = |policy| {
            let mut sink = VecSink::new();
            SimSession::new(&program, &layout, &trace, cfg.sim.clone())
                .run_with_sink(policy, &mut sink);
            let log = sink.into_events();
            log.iter()
                .map(|e| (e.victim, e.evict_pos))
                .collect::<Vec<_>>()
        };
        assert_eq!(evictions(PolicyKind::OPT)[0], (a, 2));
        assert_eq!(evictions(PolicyKind::LRU), [(b, 2), (a, 3), (c, 4)]);

        // B at 2 costs the hit OPT takes at 3; A at 3 costs nothing OPT
        // did not also pay; C is never used again.
        let ripple = Ripple::train(&program, &layout, &trace, cfg).unwrap();
        let o = ripple.evaluate(&trace).unwrap();
        assert_eq!(
            o.underlying_accuracy,
            AccuracyStats {
                accurate: 2,
                total: 3
            }
        );
    }

    #[test]
    fn an_empty_plan_runs_the_baseline_binary() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 30_000);
        let mut cfg = small_config();
        cfg.underlying = PolicyKind::RANDOM;
        let ripple = Ripple::train(&app.program, &layout, &trace, cfg.clone()).unwrap();
        let o = ripple.evaluate_with_threshold(&trace, 1.0).unwrap();
        assert_eq!(o.injected_static, 0);
        assert_eq!(o.ripple, o.baseline);
        assert_eq!(o.static_overhead_pct, 0.0);
        assert_eq!(o.dynamic_overhead_pct, 0.0);
        // The baseline is the original binary under the underlying policy.
        let independent =
            SimSession::new(&app.program, &layout, &trace, cfg.sim).run(PolicyKind::RANDOM);
        assert_eq!(o.baseline, independent);
    }

    #[test]
    fn evaluate_on_rejects_a_baseline_built_for_something_else() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 10_000);
        let ripple = Ripple::train(&app.program, &layout, &trace, small_config()).unwrap();
        let baseline_for = |sim: SimConfig| {
            EvalBaseline::new(
                &app.program,
                &layout,
                &trace,
                sim,
                Some(1),
                Arc::new(NullRecorder),
            )
            .unwrap()
        };
        let matching = baseline_for(small_config().sim);
        assert!(ripple.evaluate_on(&matching, 0.1).is_ok());
        let other_sim = baseline_for(SimConfig::default());
        assert_eq!(
            ripple.evaluate_on(&other_sim, 0.1),
            Err(Error::BaselineMismatch("sim config"))
        );
        let other = generate(&AppSpec::tiny(22));
        let other_layout = Layout::new(&other.program, &LayoutConfig::default());
        let other_trace = execute(
            &other.program,
            &other.model,
            InputConfig::training(22),
            10_000,
        );
        let foreign = ripple.baseline(&trace).unwrap();
        let other_ripple =
            Ripple::train(&other.program, &other_layout, &other_trace, small_config()).unwrap();
        assert_eq!(
            other_ripple.evaluate_on(&foreign, 0.1),
            Err(Error::BaselineMismatch("program"))
        );
    }

    #[test]
    fn train_rejects_invalid_configs_before_any_work() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 10_000);

        let mut bad = small_config();
        bad.threshold = f64::NAN;
        assert!(matches!(
            Ripple::train(&app.program, &layout, &trace, bad),
            Err(Error::Config(ConfigError::NotFinite { field: "threshold" }))
        ));

        let mut bad = small_config();
        bad.sim.warmup_fraction = 2.0;
        assert!(matches!(
            Ripple::train(&app.program, &layout, &trace, bad),
            Err(Error::Config(ConfigError::Sim(_)))
        ));
    }

    #[test]
    fn evaluate_rejects_bad_explicit_thresholds() {
        let app = generate(&AppSpec::tiny(21));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(21), 10_000);
        let ripple = Ripple::train(&app.program, &layout, &trace, small_config()).unwrap();
        assert!(matches!(
            ripple.evaluate_with_threshold(&trace, f64::INFINITY),
            Err(Error::Config(ConfigError::NotFinite { .. }))
        ));
        assert!(matches!(
            ripple.evaluate_with_threshold(&trace, -0.5),
            Err(Error::Config(ConfigError::OutOfRange { .. }))
        ));
    }

    #[test]
    fn builder_validates_the_embedded_sim_config() {
        assert!(RippleConfig::builder().build().is_ok());
        let mut sim = ripple_sim::SimConfig::default();
        sim.base_cpi = f64::NAN;
        assert!(matches!(
            RippleConfig::builder().sim(sim).build(),
            Err(ConfigError::Sim(_))
        ));
    }
}
