//! Dimension 7: incremental relinking and dense-analysis equivalence.
//!
//! The pipeline's fixpoint loop relinks each round with
//! [`rewrite_incremental`] — re-laying-out only the functions whose
//! injected prefixes changed and splicing the rest from the previous
//! layout — and selects cues with the dense, epoch-stamped
//! [`analyze_windows`]. Both are pure optimizations with retained
//! reference implementations ([`rewrite`] and
//! [`analyze_windows_reference`]); this dimension fuzzes random
//! injection-plan chains and real oracle window sets and demands
//! byte-identical results. A subset of cases additionally runs the full
//! pipeline at 1 and 4 harness threads and demands an identical
//! [`RippleOutcome`], then evaluates three thresholds (the strictest
//! usually with an empty plan) through one shared `EvalBaseline` and
//! demands the outcomes of fresh per-threshold evaluations.
//!
//! [`RippleOutcome`]: ripple::RippleOutcome

use rand::{Rng, SeedableRng, StdRng};
use ripple::{analyze_windows, analyze_windows_reference, AnalysisConfig, WindowSink};
use ripple::{Ripple, RippleConfig};
use ripple_program::{
    rewrite, rewrite_incremental, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig,
    Program,
};
use ripple_sim::{
    CacheGeometry, EvictionMechanism, PolicyKind, PrefetcherKind, SimConfig, SimSession,
};
use ripple_trace::BbTrace;
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

use crate::shrink::{min_failing_prefix, shrink_list};

/// One generated relinking case: a program, its profiled layout, a trace,
/// and a chain of injection plans (each a mutation of its predecessor, so
/// consecutive plans share clean functions — the splice path — while
/// still dirtying a few).
struct RewriteCase {
    label: String,
    program: Program,
    layout: Layout,
    trace: BbTrace,
    plans: Vec<Vec<Injection>>,
    threshold: f64,
}

fn to_plan(injections: &[Injection]) -> InjectionPlan {
    let mut plan = InjectionPlan::new();
    for &inj in injections {
        plan.push(inj);
    }
    plan
}

fn gen_case(seed: u64) -> RewriteCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = if rng.gen_bool(0.4) {
        AppSpec::tiny(rng.next_u64())
    } else {
        AppSpec::randomized(rng.next_u64())
    };
    let app = generate(&spec);
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let budget = rng.gen_range(1500u64..=4000);
    let trace = execute(
        &app.program,
        &app.model,
        InputConfig::training(rng.next_u64()),
        budget,
    );

    // A chain of 3 plans. Each successor keeps a random subset of its
    // predecessor (possibly reordered within a block via fresh pushes),
    // drops the rest, and adds fresh injections — the exact shape of the
    // fixpoint loop's round-to-round plan drift.
    let n = app.program.num_blocks() as u32;
    let mut plans: Vec<Vec<Injection>> = Vec::new();
    let mut current: Vec<Injection> = Vec::new();
    for _ in 0..3 {
        let mut next: Vec<Injection> = current
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.6))
            .collect();
        for _ in 0..rng.gen_range(1u32..=6) {
            next.push(Injection {
                cue: BlockId::new(rng.gen_range(0..n)),
                victim: CodeLoc::new(BlockId::new(rng.gen_range(0..n)), 0),
            });
        }
        plans.push(next.clone());
        current = next;
    }

    let threshold = [0.05, 0.1, 0.3, 0.5][rng.gen_range(0..4usize)];
    let label = format!(
        "app {} (spec seed {:#x}), {} blocks traced, plan chain {:?}, threshold {threshold}",
        spec.name,
        spec.seed,
        trace.len(),
        plans.iter().map(Vec::len).collect::<Vec<_>>(),
    );
    RewriteCase {
        label,
        program: app.program,
        layout,
        trace,
        plans,
        threshold,
    }
}

/// Incremental-vs-full relink over the case's plan chain. The incremental
/// result is carried forward, so later rounds splice from a layout that
/// was itself produced incrementally — divergence compounds instead of
/// being masked.
fn rewrite_violation(case: &RewriteCase) -> Option<String> {
    let first = to_plan(&case.plans[0]);
    let mut prev_plan = first.clone();
    let mut prev = rewrite(&case.program, &case.layout, &first);
    for (round, injections) in case.plans.iter().enumerate().skip(1) {
        let plan = to_plan(injections);
        let full = rewrite(&case.program, &case.layout, &plan);
        let incr = rewrite_incremental(&case.program, &case.layout, &plan, &prev_plan, prev);
        if incr.layout != full.layout {
            return Some(format!(
                "incremental relink diverged from full rewrite at round {round}: layouts differ"
            ));
        }
        if incr.program != full.program {
            return Some(format!(
                "incremental relink diverged from full rewrite at round {round}: programs differ"
            ));
        }
        if incr.mapper != full.mapper {
            return Some(format!(
                "incremental relink diverged from full rewrite at round {round}: mappers differ"
            ));
        }
        prev_plan = plan;
        prev = incr;
    }
    None
}

/// Dense-vs-reference cue analysis over a *real* oracle window set from
/// the rewritten binary (the exact windows the fixpoint loop analyzes).
fn analysis_violation(case: &RewriteCase) -> Option<String> {
    let last = to_plan(case.plans.last().expect("chain is non-empty"));
    let rewritten = rewrite(&case.program, &case.layout, &last);
    let mut cfg = SimConfig::default();
    cfg.l1i = CacheGeometry::new(1024, 2);
    cfg.prefetcher = PrefetcherKind::NextLine;
    cfg.eviction_mechanism = EvictionMechanism::NoOp;
    let session = SimSession::new(&rewritten.program, &rewritten.layout, &case.trace, cfg);
    let mut windows = WindowSink::new();
    session.run_with_sink(PolicyKind::OPT, &mut windows);
    let windows = windows.into_windows();

    let mut analysis_cfg = AnalysisConfig::default();
    analysis_cfg.min_windows_per_injection = 1;
    let dense = analyze_windows(
        &rewritten.program,
        &rewritten.layout,
        &case.trace,
        windows.clone(),
        &analysis_cfg,
    );
    let reference = analyze_windows_reference(
        &rewritten.program,
        &rewritten.layout,
        &case.trace,
        windows,
        &analysis_cfg,
    );
    if dense.windows() != reference.windows() {
        return Some("dense analysis reordered the window set".into());
    }
    if dense.choices() != reference.choices() {
        let idx = dense
            .choices()
            .iter()
            .zip(reference.choices().iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| dense.choices().len().min(reference.choices().len()));
        return Some(format!(
            "dense and reference cue choices diverge at window {idx}"
        ));
    }
    let (dense_plan, dense_cov) = dense.plan_for_threshold(case.threshold);
    let (ref_plan, ref_cov) = reference.plan_for_threshold(case.threshold);
    if dense_plan.injections() != ref_plan.injections() || dense_cov != ref_cov {
        return Some(format!(
            "plans diverge at threshold {}: {} vs {} injections",
            case.threshold,
            dense_plan.len(),
            ref_plan.len()
        ));
    }
    None
}

/// Full-pipeline probe: train once, evaluate at 1 and 4 harness threads;
/// the outcomes (which flow through incremental relinking, columnar
/// replay, and dense analysis) must be identical. Then the shared-baseline
/// probe runs on the same configuration.
fn outcome_violation(case: &RewriteCase) -> Option<String> {
    let mut base = RippleConfig::default();
    base.sim.l1i = CacheGeometry::new(2 * 1024, 4);
    base.analysis.min_windows_per_injection = 1;
    base.threshold = case.threshold.min(0.3);
    let mut outcomes = Vec::new();
    for threads in [1usize, 4] {
        let mut cfg = base.clone();
        cfg.threads = Some(threads);
        let ripple = match Ripple::train(&case.program, &case.layout, &case.trace, cfg) {
            Ok(r) => r,
            Err(e) => return Some(format!("train failed at {threads} threads: {e}")),
        };
        match ripple.evaluate(&case.trace) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => return Some(format!("evaluate failed at {threads} threads: {e}")),
        }
    }
    if outcomes[0] != outcomes[1] {
        return Some("RippleOutcome differs between 1 and 4 harness threads".into());
    }
    shared_baseline_violation(case, base)
}

/// Shared-baseline probe: three thresholds evaluated through one
/// [`EvalBaseline`](ripple::EvalBaseline) must each equal a fresh
/// per-threshold evaluation. The strictest, 1.0, comes first: only cues
/// that always precede their eviction pass it, so its plan is usually
/// empty and reaches the baseline's lazily built state first.
fn shared_baseline_violation(case: &RewriteCase, config: RippleConfig) -> Option<String> {
    let ripple = match Ripple::train(&case.program, &case.layout, &case.trace, config) {
        Ok(r) => r,
        Err(e) => return Some(format!("train failed: {e}")),
    };
    let baseline = match ripple.baseline(&case.trace) {
        Ok(b) => b,
        Err(e) => return Some(format!("baseline failed: {e}")),
    };
    for threshold in [1.0, case.threshold, case.threshold.min(0.3) / 2.0] {
        let shared = ripple.evaluate_on(&baseline, threshold);
        let fresh = ripple.evaluate_with_threshold(&case.trace, threshold);
        if shared != fresh {
            return Some(format!(
                "shared-baseline outcome differs from a fresh evaluation at threshold {threshold}"
            ));
        }
    }
    None
}

/// Checks one generated case; shrinks the failing plan chain (rewrite
/// divergence) or the trace (analysis divergence) on failure.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let case = gen_case(seed);
    if let Some(message) = rewrite_violation(&case) {
        // Shrink each plan in the chain, last (the diverging rewrite's
        // target) first, keeping the chain failing throughout.
        let mut minimal = case;
        for i in (0..minimal.plans.len()).rev() {
            let plan = minimal.plans[i].clone();
            if plan.is_empty() {
                continue;
            }
            let kept = shrink_list(&plan, |entries| {
                let mut probe = RewriteCase {
                    label: minimal.label.clone(),
                    program: minimal.program.clone(),
                    layout: minimal.layout.clone(),
                    trace: BbTrace::new(minimal.trace.blocks().to_vec()),
                    plans: minimal.plans.clone(),
                    threshold: minimal.threshold,
                };
                probe.plans[i] = entries.to_vec();
                rewrite_violation(&probe).is_some()
            });
            let mut shrunk = minimal.plans.clone();
            shrunk[i] = kept;
            let probe = RewriteCase {
                label: minimal.label.clone(),
                program: minimal.program.clone(),
                layout: minimal.layout.clone(),
                trace: BbTrace::new(minimal.trace.blocks().to_vec()),
                plans: shrunk,
                threshold: minimal.threshold,
            };
            if rewrite_violation(&probe).is_some() {
                minimal = probe;
            }
        }
        let final_message = rewrite_violation(&minimal).expect("shrunk case still fails");
        let repro = format!(
            "case: {}\nplan chain shrunk to {:?}\nplans: {:?}\n{final_message}",
            minimal.label,
            minimal.plans.iter().map(Vec::len).collect::<Vec<_>>(),
            minimal.plans,
        );
        return Err((message, repro));
    }

    if let Some(message) = analysis_violation(&case) {
        let len = min_failing_prefix(case.trace.len(), |n| {
            let probe = RewriteCase {
                label: case.label.clone(),
                program: case.program.clone(),
                layout: case.layout.clone(),
                trace: BbTrace::new(case.trace.blocks()[..n].to_vec()),
                plans: case.plans.clone(),
                threshold: case.threshold,
            };
            analysis_violation(&probe).is_some()
        });
        let minimal = RewriteCase {
            label: format!("{} [truncated to {len}]", case.label),
            program: case.program.clone(),
            layout: case.layout.clone(),
            trace: BbTrace::new(case.trace.blocks()[..len].to_vec()),
            plans: case.plans.clone(),
            threshold: case.threshold,
        };
        let final_message = analysis_violation(&minimal).expect("shrunk case still fails");
        let repro = format!(
            "case: {}\ntrace shrunk {} -> {} blocks\n{final_message}",
            minimal.label,
            case.trace.len(),
            minimal.trace.len(),
        );
        return Err((message, repro));
    }

    // The end-to-end probe is an order of magnitude more expensive than
    // the direct oracles, so only a slice of the corpus pays for it.
    if seed.is_multiple_of(4) {
        if let Some(message) = outcome_violation(&case) {
            let repro = format!("case: {}\n{message}", case.label);
            return Err((message, repro));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relink_and_analysis_agree_on_many_seeds() {
        for seed in 0..16 {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn violation_helpers_cover_a_real_case() {
        // The oracles must actually exercise non-trivial inputs: at least
        // one generated case produces windows and a non-empty plan chain.
        let case = gen_case(4); // seed 4 also runs the outcome probe in check()
        assert!(case.plans.iter().any(|p| !p.is_empty()));
        assert!(rewrite_violation(&case).is_none());
        assert!(analysis_violation(&case).is_none());
        assert!(outcome_violation(&case).is_none());
    }
}
