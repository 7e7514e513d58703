//! Dimension 7: relinking and dense-analysis equivalence.
//!
//! The pipeline's fixpoint relinks each round with [`rewrite`] and selects
//! cues with the dense, epoch-stamped [`analyze_windows`]. A relink lays
//! the program out again from the sizes the profiled layout measured, and
//! must equal a fresh [`Layout::new`]; the analysis is a pure optimization
//! with a retained reference implementation (the checker-owned
//! [`analyze_windows_reference`]). This dimension fuzzes random injection
//! plans and real oracle window sets and demands identical results. The dense line tables on the same paths — the
//! [`LineAccessIndex`], the line origins and the [`LineMapper`] of every
//! plan's relink — must answer every query exactly as the map-based
//! references in [`map_ref`](crate::map_ref) do, including lines outside
//! the layout and positions past the trace end. The ideal run's
//! [`IdealOutcomes`] must score every decision of an LRU run, and a
//! decision at and just before every access, as the map-based
//! [`GapRule`] does: exactly without a prefetcher, and never accurate
//! where the gap rule is not with one. A subset of cases additionally
//! runs the full pipeline at 1 and 4 harness threads and demands an
//! identical [`RippleOutcome`], then evaluates three thresholds (the
//! strictest usually with an empty plan) through one shared
//! `EvalBaseline` and demands the outcomes of fresh per-threshold
//! evaluations.
//!
//! [`RippleOutcome`]: ripple::RippleOutcome

use rand::{Rng, SeedableRng, StdRng};
use ripple::{analyze_windows, AnalysisConfig, IdealOutcomes, LineAccessIndex, WindowSink};
use ripple::{Ripple, RippleConfig};
use ripple_program::{
    line_origins, rewrite, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig,
    LineAddr, LineMapper, Program,
};
use ripple_sim::{
    ideal_policy_for, CacheGeometry, EvictionEvent, EvictionMechanism, EvictionSink, PolicyKind,
    PrefetcherKind, SimConfig, SimSession, VecSink,
};
use ripple_trace::BbTrace;
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

use crate::map_ref::{analyze_windows_reference, map_mapper, map_origins, GapRule, MapAccessIndex};
use crate::shrink::{min_failing_prefix, shrink_list};

/// One generated relinking case: a program, its profiled layout, a trace,
/// and a chain of injection plans, each a mutation of its predecessor.
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

/// Every plan of the case relinked with [`rewrite`]: its layout against a
/// fresh [`Layout::new`] of the relinked program, and its dense
/// [`LineMapper`] against the map-based reference.
fn rewrite_violation(case: &RewriteCase) -> Option<String> {
    case.plans.iter().enumerate().find_map(|(i, injections)| {
        let rewritten = rewrite(&case.program, &case.layout, &to_plan(injections));
        if rewritten.layout != Layout::new(&rewritten.program, case.layout.config()) {
            return Some(format!(
                "plan {i} relink: layout differs from a fresh layout of the relinked program"
            ));
        }
        mapper_violation(case, &rewritten.mapper, &rewritten.layout)
            .map(|message| format!("plan {i} relink: {message}"))
    })
}

/// Lines to query a dense line table with: every line of the layout, two
/// on either side of it, and the ends of the line address space.
fn probe_lines(layout: &Layout) -> Vec<LineAddr> {
    let mut lines = vec![LineAddr::new(0), LineAddr::new(u64::MAX)];
    if let Some((first, last)) = layout.line_bounds() {
        let lo = first.index().saturating_sub(2);
        lines.extend((lo..=last.index() + 2).map(LineAddr::new));
    }
    lines
}

/// A dense [`LineMapper`] against the map-based reference for the same
/// relink.
fn mapper_violation(
    case: &RewriteCase,
    mapper: &LineMapper,
    new_layout: &Layout,
) -> Option<String> {
    let reference = map_mapper(&case.program, &case.layout, new_layout);
    if mapper.len() != reference.len() {
        return Some(format!(
            "line mapper maps {} lines, the map reference {}",
            mapper.len(),
            reference.len()
        ));
    }
    probe_lines(&case.layout).into_iter().find_map(|line| {
        let expect = reference.get(&line).copied().unwrap_or(line);
        (mapper.map(line) != expect).then(|| {
            format!(
                "line mapper sends {line} to {}, the map reference to {expect}",
                mapper.map(line)
            )
        })
    })
}

/// The dense origins table and access index of one layout against the
/// map-based references. Access queries run at every recorded position,
/// one before it, and past the end of the trace.
fn layout_tables_violation(program: &Program, layout: &Layout, trace: &BbTrace) -> Option<String> {
    let origins = line_origins(program, layout);
    let ref_origins = map_origins(program, layout);
    if origins.iter().count() != ref_origins.len() {
        return Some("dense origins cover a different number of lines".into());
    }
    let accesses = LineAccessIndex::build(layout, trace);
    let reference = MapAccessIndex::build(layout, trace);
    if accesses.len() != reference.len() {
        return Some(format!(
            "access index holds {} lines, the map reference {}",
            accesses.len(),
            reference.len()
        ));
    }
    let end = trace.len() as u64;
    for line in probe_lines(layout) {
        if origins.get(line) != ref_origins.get(&line).copied() {
            return Some(format!(
                "dense origin of {line} differs from the map reference"
            ));
        }
        let recorded = reference.positions(line).iter().copied();
        let queries =
            recorded
                .flat_map(|p| [p.saturating_sub(1), p])
                .chain([0, end, end + 7, u64::MAX]);
        for pos in queries {
            let (got, expect) = (
                accesses.next_access_after(line, pos),
                reference.next_access_after(line, pos),
            );
            if got != expect {
                return Some(format!(
                    "next access of {line} after {pos}: dense {got:?}, map reference {expect:?}"
                ));
            }
        }
    }
    None
}

/// An ideal run's raw eviction events and demand misses.
#[derive(Default)]
struct IdealRun {
    events: Vec<EvictionEvent>,
    misses: Vec<(LineAddr, u64)>,
}

impl EvictionSink for IdealRun {
    fn record(&mut self, event: EvictionEvent) {
        self.events.push(event);
    }

    fn demand_miss(&mut self, line: LineAddr, pos: u64) {
        self.misses.push((line, pos));
    }
}

/// [`IdealOutcomes`] against the map-based [`GapRule`] on one binary, run
/// as the final-layout round runs its oracle (injections inert), with and
/// without a prefetcher. The decisions scored are every eviction of an
/// LRU run plus one at and one just before every recorded access.
fn accuracy_violation(program: &Program, layout: &Layout, trace: &BbTrace) -> Option<String> {
    let accesses = MapAccessIndex::build(layout, trace);
    let mut probes: Vec<(LineAddr, u64)> = Vec::new();
    for line in probe_lines(layout) {
        let recorded = accesses.positions(line).iter().copied();
        let at = recorded.flat_map(|p| [p.saturating_sub(1), p]);
        probes.extend(at.chain([0, trace.len() as u64]).map(|p| (line, p)));
    }
    for prefetcher in [PrefetcherKind::None, PrefetcherKind::NextLine] {
        let mut cfg = SimConfig::default();
        cfg.l1i = CacheGeometry::new(1024, 2);
        cfg.prefetcher = prefetcher;
        cfg.eviction_mechanism = EvictionMechanism::NoOp;
        let session = SimSession::new(program, layout, trace, cfg);
        let mut ideal = IdealRun::default();
        session.run_with_sink(ideal_policy_for(prefetcher), &mut ideal);
        let outcomes = IdealOutcomes::build(layout, trace, &ideal.misses);
        let gaps = GapRule::build(&ideal.events);
        let mut lru = VecSink::new();
        session.run_with_sink(PolicyKind::LRU, &mut lru);
        let decisions = lru.events().iter().map(|e| (e.victim, e.evict_pos));
        for (line, pos) in decisions.chain(probes.iter().copied()) {
            let outcome = outcomes.is_accurate(line, pos);
            let gap = gaps.is_accurate(&accesses, line, pos);
            let broken = match prefetcher {
                PrefetcherKind::None => outcome != gap,
                _ => outcome && !gap,
            };
            if broken {
                return Some(format!(
                    "evicting {line} at {pos} under {prefetcher:?}: outcome rule says \
                     {outcome}, gap rule {gap}"
                ));
            }
        }
    }
    None
}

/// Dense-vs-reference cue analysis over a *real* oracle window set from
/// the rewritten binary (the exact windows the fixpoint loop analyzes),
/// after the dense line tables of the profiled and the rewritten layout
/// and the accuracy rule on the rewritten binary.
fn analysis_violation(case: &RewriteCase) -> Option<String> {
    let last = to_plan(case.plans.last().expect("chain is non-empty"));
    let rewritten = rewrite(&case.program, &case.layout, &last);
    for (name, program, layout) in [
        ("profiled", &case.program, &case.layout),
        ("rewritten", &rewritten.program, &rewritten.layout),
    ] {
        if let Some(message) = layout_tables_violation(program, layout, &case.trace) {
            return Some(format!("{name} layout: {message}"));
        }
    }
    if let Some(message) = accuracy_violation(&rewritten.program, &rewritten.layout, &case.trace) {
        return Some(format!("accuracy rule: {message}"));
    }
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
        &windows,
        &analysis_cfg,
    );
    if dense.windows() != windows.as_slice() {
        return Some("dense analysis reordered the window set".into());
    }
    if dense.choices() != reference.as_slice() {
        let idx = dense
            .choices()
            .iter()
            .zip(reference.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| dense.choices().len().min(reference.len()));
        return Some(format!(
            "dense and reference cue choices diverge at window {idx}"
        ));
    }
    // Every planned victim is the map-reference origin of its own line.
    let origins = map_origins(&rewritten.program, &rewritten.layout);
    let (plan, _) = dense.plan_for_threshold(case.threshold);
    plan.injections().iter().find_map(|inj| {
        let line = rewritten.layout.line_of(inj.victim);
        (origins.get(&line) != Some(&inj.victim)).then(|| {
            format!(
                "plan at threshold {} names victim {:?}, not the origin of {line}",
                case.threshold, inj.victim
            )
        })
    })
}

/// Full-pipeline probe: train once, evaluate at 1 and 4 harness threads;
/// the outcomes (which flow through relinking, columnar replay, and
/// dense analysis) must be identical. Then the shared-baseline
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
/// single-threshold evaluation, both one at a time and as one list with
/// the second threshold repeated (thresholds that agree on a plan share
/// its relinks and runs only within a list, so the single-threshold call
/// is the reference). The strictest, 1.0, comes first: only cues that
/// always precede their eviction pass it, so its plan is usually empty
/// and reaches the baseline's lazily built state first.
fn shared_baseline_violation(case: &RewriteCase, config: RippleConfig) -> Option<String> {
    let ripple = match Ripple::train(&case.program, &case.layout, &case.trace, config) {
        Ok(r) => r,
        Err(e) => return Some(format!("train failed: {e}")),
    };
    let baseline = match ripple.baseline(&case.trace) {
        Ok(b) => b,
        Err(e) => return Some(format!("baseline failed: {e}")),
    };
    let thresholds = [
        1.0,
        case.threshold,
        case.threshold.min(0.3) / 2.0,
        case.threshold,
    ];
    let mut fresh = Vec::new();
    for &threshold in &thresholds[..3] {
        let shared = ripple.evaluate_on(&baseline, threshold);
        let single = ripple.evaluate_with_threshold(&case.trace, threshold);
        if shared != single {
            return Some(format!(
                "shared-baseline outcome differs from a fresh evaluation at threshold {threshold}"
            ));
        }
        fresh.push(single);
    }
    fresh.push(fresh[1].clone());
    if ripple.evaluate_thresholds(&baseline, &thresholds) != fresh.into_iter().collect() {
        return Some(format!(
            "threshold list {thresholds:?} differs from fresh single-threshold evaluations"
        ));
    }
    None
}

/// Checks one generated case; shrinks the failing plans (mapper
/// divergence) or the trace (analysis divergence) on failure.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let case = gen_case(seed);
    if let Some(message) = rewrite_violation(&case) {
        // Shrink each plan, last first, keeping the case failing
        // throughout.
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
            "case: {}\nplans shrunk to {:?}\nplans: {:?}\n{final_message}",
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
