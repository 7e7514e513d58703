//! The end-to-end Ripple pipeline: profile → eviction analysis → injection
//! → evaluation (Fig. 4).

use std::collections::HashMap;
use std::sync::Arc;

use ripple_obs::{time_phase, NullRecorder, PhaseTimer, Recorder};
use ripple_program::{
    patch_invalidates, rewrite, rewrite_incremental, BlockId, InjectionPlan, Layout, LineAddr,
    Program,
};
use ripple_sim::{
    ideal_policy_for, EvictionMechanism, PolicyKind, SimConfig, SimSession, SimStats,
};
use ripple_trace::BbTrace;

use crate::analysis::{analyze_windows, Analysis, AnalysisConfig, CoverageStats, WindowSink};
use crate::baseline::EvalBaseline;
use crate::error::{ConfigError, Error};
use crate::harness::{run_jobs, Job};
use crate::metrics::{plan_accuracy, AccuracyStats, LineAccessIndex, WindowIndex};

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
    /// How the injected instruction acts on the cache.
    pub mechanism: EvictionMechanism,
    /// Re-run the eviction analysis against the *final* (post-injection)
    /// layout and patch victim operands in place (the paper's link-time
    /// flow). Disable only for the ablation measuring how stale a
    /// pre-injection profile becomes.
    pub final_layout_analysis: bool,
    /// Slot-reservation generosity: slots are placed using
    /// `threshold * slot_threshold_factor` (and no per-pair recurrence
    /// floor), so the final-layout pass rarely lacks a slot where it
    /// wants one. Unassigned slots become no-op invalidations.
    pub slot_threshold_factor: f64,
    /// Simulator configuration (prefetcher, geometry, latencies).
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
            mechanism: EvictionMechanism::Invalidate,
            final_layout_analysis: true,
            slot_threshold_factor: 0.6,
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
        finite_in(
            "slot_threshold_factor",
            self.slot_threshold_factor,
            0.0,
            1.0,
        )?;
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

    /// Sets how injected instructions act on the cache.
    pub fn mechanism(mut self, mechanism: EvictionMechanism) -> Self {
        self.config.mechanism = mechanism;
        self
    }

    /// Enables or disables the final-layout analysis pass.
    pub fn final_layout_analysis(mut self, enabled: bool) -> Self {
        self.config.final_layout_analysis = enabled;
        self
    }

    /// Sets the slot-reservation generosity factor (`0.0..=1.0`).
    pub fn slot_threshold_factor(mut self, factor: f64) -> Self {
        self.config.slot_threshold_factor = factor;
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
    train_windows: WindowIndex,
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
    /// reports `train.oracle_replay`, `train.cue_selection` and
    /// `train.window_index` phases, and every evaluation afterwards
    /// reports `eval.*` phases plus per-job harness timings.
    pub fn train_with_recorder(
        program: &'p Program,
        layout: &'p Layout,
        train_trace: &BbTrace,
        config: RippleConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Result<Self, Error> {
        config.validate()?;
        let oracle_cfg = config.sim.clone().with_policy(config.analysis_oracle());
        let mut windows = WindowSink::new();
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
        let train_windows = time_phase(&*recorder, "train.window_index", || {
            WindowIndex::build(analysis.windows())
        });
        Ok(Ripple {
            program,
            layout,
            config,
            analysis,
            train_windows,
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

    /// Windows of the training run, indexed per line.
    pub fn train_windows(&self) -> &WindowIndex {
        &self.train_windows
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
    /// [`Ripple::baseline`] and call `evaluate_on` per threshold instead.
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

    /// Evaluates the plan at `threshold` against a shared `baseline`: only
    /// the threshold-dependent work runs here.
    ///
    /// The flow mirrors the paper's link-time deployment: the training
    /// analysis places invalidate *slots* (which cue blocks, how many);
    /// relinking fixes the final layout; a second analysis pass against
    /// that final layout assigns the victim operands (the binary's
    /// addresses are only meaningful once the layout is final). The
    /// rewritten binary then runs under the underlying policy, and the
    /// baseline's eviction log is scored against the final layout's ideal
    /// windows.
    ///
    /// An empty plan relinks to the very binary the baseline measured, so
    /// it skips the relink and the rewritten run: its Ripple run *is* the
    /// baseline run, with zero overheads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a non-finite or out-of-range
    /// `threshold`, [`Error::BaselineMismatch`] when `baseline` was built
    /// for a different program, layout or sim config, and [`Error::Job`]
    /// when an evaluation job panicked.
    pub fn evaluate_on(
        &self,
        baseline: &EvalBaseline<'_>,
        threshold: f64,
    ) -> Result<RippleOutcome, Error> {
        check_threshold(threshold)?;
        baseline.check_built_for(self.program, self.layout, &self.config.sim)?;
        let eval_trace = baseline.trace();
        let base = baseline.run(self.config.underlying)?;
        let (mut plan, mut coverage) = time_phase(&*self.recorder, "eval.plan", || {
            self.analysis.plan_for_threshold(threshold)
        });

        let final_layout_timer = PhaseTimer::start(&*self.recorder);
        let relinked = if plan.is_empty() && baseline.pristine() {
            None
        } else {
            Some(self.relink(eval_trace, threshold, &mut plan))
        };
        final_layout_timer.finish(&*self.recorder, "eval.final_layout");
        if let Some(Relinked {
            final_round: Some(round),
            ..
        }) = &relinked
        {
            coverage = round.coverage;
        }

        let ripple_stats = match &relinked {
            None => base.stats.clone(),
            Some(relinked) => {
                let mut under_cfg = self.config.sim.clone().with_policy(self.config.underlying);
                under_cfg.eviction_mechanism = self.config.mechanism;
                let session =
                    SimSession::new(&relinked.program, &relinked.layout, eval_trace, under_cfg)
                        .with_recorder(self.recorder.clone());
                let underlying = self.config.underlying;
                let job: Job<'_, SimStats> = Box::new(|| session.run(underlying));
                time_phase(&*self.recorder, "eval.sim_runs", || {
                    run_jobs(1, "evaluate", &*self.recorder, vec![job]).pop()
                })
                .ok_or_else(|| Error::Internal("missing ripple job output".to_string()))??
            }
        };

        // Ripple's accuracy against ideal windows: the final layout's when
        // the final-layout analysis ran, the original layout's otherwise.
        // The underlying policy ran on the original binary, so its
        // evictions are always scored in the original layout.
        let accuracy_timer = PhaseTimer::start(&*self.recorder);
        let ripple_accuracy = match &relinked {
            Some(Relinked {
                layout,
                final_round: Some(round),
                ..
            }) => {
                let windows = WindowIndex::build(round.analysis.windows());
                let accesses = LineAccessIndex::build(layout, eval_trace);
                plan_accuracy(&round.plan, layout, eval_trace, &windows, &accesses)
            }
            _ => {
                let scoring = baseline.original_scoring();
                plan_accuracy(
                    &plan,
                    self.layout,
                    eval_trace,
                    &scoring.windows,
                    &scoring.accesses,
                )
            }
        };
        let underlying_accuracy = baseline.original_accuracy(base);
        accuracy_timer.finish(&*self.recorder, "eval.accuracy");

        let static_orig = self.program.static_instruction_count();
        let static_overhead_pct = plan.len() as f64 / static_orig as f64 * 100.0;
        let dyn_orig = ripple_stats.instructions;
        let dynamic_overhead_pct = if dyn_orig == 0 {
            0.0
        } else {
            ripple_stats.invalidate_instructions as f64 / dyn_orig as f64 * 100.0
        };

        Ok(RippleOutcome {
            coverage,
            injected_static: plan.len(),
            baseline: base.stats.clone(),
            ripple: ripple_stats,
            ideal: baseline.ideal().clone(),
            ideal_cache: baseline.ideal_cache().clone(),
            lru_reference: baseline.lru().clone(),
            ripple_accuracy,
            underlying_accuracy,
            static_overhead_pct,
            dynamic_overhead_pct,
        })
    }

    /// Applies `plan` and relinks. With the final-layout analysis enabled
    /// and a non-empty plan, this is a layout fixpoint iteration: victims
    /// are expressed as layout-independent `CodeLoc`s, so a plan derived
    /// against one layout can be re-applied to the pristine program. Each
    /// round relinks with the current plan, re-runs the oracle on that
    /// layout, and derives the next plan; by the last round the plan's own
    /// layout is (very nearly) the layout it was derived against, and the
    /// residual is closed by patching operands in place. `plan` ends as
    /// the slot plan the binary was linked with.
    fn relink(&self, eval_trace: &BbTrace, threshold: f64, plan: &mut InjectionPlan) -> Relinked {
        let rounds = if self.config.final_layout_analysis && !plan.is_empty() {
            2
        } else {
            0
        };
        let mut rewritten = time_phase(&*self.recorder, "eval.relink", || {
            rewrite(self.program, self.layout, plan)
        });
        let mut final_round = None;
        for round in 0..rounds {
            let mut oracle_cfg = self
                .config
                .sim
                .clone()
                .with_policy(self.config.analysis_oracle());
            oracle_cfg.eviction_mechanism = EvictionMechanism::NoOp;
            let mut windows_i = WindowSink::new();
            time_phase(&*self.recorder, "eval.oracle_replay", || {
                let session = SimSession::new(
                    &rewritten.program,
                    &rewritten.layout,
                    eval_trace,
                    oracle_cfg.clone(),
                )
                .with_recorder(self.recorder.clone());
                let _ = session.run_with_sink(oracle_cfg.policy, &mut windows_i);
            });
            let analysis_i = time_phase(&*self.recorder, "eval.window_analysis", || {
                analyze_windows(
                    &rewritten.program,
                    &rewritten.layout,
                    eval_trace,
                    windows_i.into_windows(),
                    &self.config.analysis,
                )
            });
            if round + 1 < rounds {
                // Intermediate round: re-place slots from this layout's
                // analysis and relink only the functions whose injected
                // prefixes changed, splicing the rest of the old layout.
                let (plan_i, _) = analysis_i.plan_for_threshold(threshold);
                rewritten = time_phase(&*self.recorder, "eval.relink", || {
                    rewrite_incremental(self.program, self.layout, &plan_i, plan, rewritten)
                });
                *plan = plan_i;
                continue;
            }
            // Final round: the layout is frozen; select cues *subject to*
            // the reserved slot budget (each window picks an eligible cue
            // that still has a free slot) and patch operands in place.
            let (plan_i, coverage_i) = time_phase(&*self.recorder, "eval.patch", || {
                let mut slots: HashMap<BlockId, usize> = HashMap::new();
                for block in rewritten.program.blocks() {
                    if block.injected_prefix_len() > 0 {
                        slots.insert(block.id(), block.injected_prefix_len() as usize);
                    }
                }
                let (plan_i, coverage_i) = analysis_i.plan_for_slots(threshold, &slots);
                let mut assignments: HashMap<BlockId, Vec<LineAddr>> = HashMap::new();
                for inj in plan_i.injections() {
                    assignments
                        .entry(inj.cue)
                        .or_default()
                        .push(rewritten.layout.line_of(inj.victim));
                }
                patch_invalidates(&mut rewritten.program, &assignments);
                (plan_i, coverage_i)
            });
            self.recorder
                .gauge("eval.slots_reserved", plan.len() as f64);
            self.recorder
                .gauge("eval.slots_assigned", plan_i.len() as f64);
            final_round = Some(FinalRound {
                analysis: analysis_i,
                plan: plan_i,
                coverage: coverage_i,
            });
        }
        Relinked {
            program: rewritten.program,
            layout: rewritten.layout,
            final_round,
        }
    }
}

/// A relinked binary and what the layout fixpoint learned about it.
struct Relinked {
    program: Program,
    layout: Layout,
    /// The final-layout analysis round (`None` when it did not run).
    final_round: Option<FinalRound>,
}

/// The final-layout analysis: its windows, the plan patched into the
/// binary, and that plan's coverage.
struct FinalRound {
    analysis: Analysis,
    plan: InjectionPlan,
    coverage: CoverageStats,
}

/// An explicit sweep threshold must be a finite probability.
fn check_threshold(threshold: f64) -> Result<(), Error> {
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
        assert!(matches!(
            RippleConfig::builder().slot_threshold_factor(2.0).build(),
            Err(ConfigError::OutOfRange {
                field: "slot_threshold_factor",
                ..
            })
        ));
    }
}
