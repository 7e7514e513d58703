//! Byte-identical equivalence between the production simulator and the
//! checker-owned reference frontend.
//!
//! The simulator's two drivers — the streaming pass and the in-order
//! replay of a captured stream — are internal optimizations: for any
//! (app, prefetcher, policy) combination they must produce the same
//! [`SimStats`] as [`ripple_check::reference::run`] *and* an identical
//! eviction-event stream — same victims, same positions, same
//! `by_prefetch` flags, in the same order.

use ripple_program::{
    rewrite, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig, Program,
};
use ripple_sim::{
    CacheGeometry, EvictionEvent, EvictionMechanism, PolicyKind, PrefetcherKind, SimConfig,
    SimSession, SimStats, Temperature, TemperatureMap, VecSink,
};
use ripple_trace::BbTrace;
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

/// Stats plus the full eviction stream of one run.
type Run = (SimStats, Vec<EvictionEvent>);

/// One run of the production simulator on a fresh session.
fn production(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    cfg: &SimConfig,
    policy: PolicyKind,
) -> Run {
    let session = SimSession::new(program, layout, trace, cfg.clone());
    let mut sink = VecSink::new();
    let stats = session.run_with_sink(policy, &mut sink);
    (stats, sink.into_events())
}

/// One run of the reference frontend.
fn reference(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    cfg: &SimConfig,
    policy: PolicyKind,
) -> Run {
    let mut sink = VecSink::new();
    let stats = ripple_check::reference::run(program, layout, trace, cfg, policy, &mut sink);
    (stats, sink.into_events())
}

/// Asserts production and reference agree byte for byte; returns the run.
fn assert_matches_reference(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    cfg: &SimConfig,
    policy: PolicyKind,
    what: &str,
) -> Run {
    let fast = production(program, layout, trace, cfg, policy);
    let slow = reference(program, layout, trace, cfg, policy);
    assert_eq!(fast.0, slow.0, "stats diverged: {what}, {}", policy.name());
    assert_eq!(
        fast.1,
        slow.1,
        "eviction stream diverged: {what}, {}",
        policy.name()
    );
    fast
}

fn small_cfg(prefetcher: PrefetcherKind) -> SimConfig {
    let mut cfg = SimConfig::default();
    // Shrink the L1I so the tiny apps actually miss after warmup.
    cfg.l1i = CacheGeometry::new(1024, 2);
    cfg.prefetcher = prefetcher;
    cfg
}

#[test]
fn production_and_reference_are_byte_identical() {
    for seed in [11, 29] {
        let app = generate(&AppSpec::tiny(seed));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(
            &app.program,
            &app.model,
            InputConfig::training(seed),
            30_000,
        );
        for prefetcher in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
            for policy in [PolicyKind::LRU, PolicyKind::SRRIP, PolicyKind::DEMAND_MIN] {
                let what = format!("seed {seed}, {}", prefetcher.name());
                let cfg = small_cfg(prefetcher);
                let run =
                    assert_matches_reference(&app.program, &layout, &trace, &cfg, policy, &what);
                assert!(
                    !run.1.is_empty(),
                    "equivalence must be over a non-trivial run"
                );
            }
        }
    }
}

#[test]
fn trrip_matches_reference_under_a_profile() {
    // TRRIP is the only policy whose decisions read the profiled
    // temperature map, so its hint path is compared nowhere else in this
    // file. Cycle every line through hot/warm/cold (plus unprofiled gaps)
    // and demand identical stats and eviction streams.
    for seed in [13, 41] {
        let app = generate(&AppSpec::tiny(seed));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(
            &app.program,
            &app.model,
            InputConfig::training(seed),
            30_000,
        );
        let (lo, hi) = layout.line_bounds().expect("non-empty layout");
        let mut temps = TemperatureMap::new();
        for (i, line) in (lo.index()..=hi.index()).enumerate() {
            match i % 4 {
                0 => temps.set(ripple_program::LineAddr::new(line), Temperature::Hot),
                1 => temps.set(ripple_program::LineAddr::new(line), Temperature::Cold),
                2 => temps.set(ripple_program::LineAddr::new(line), Temperature::Warm),
                _ => {} // unprofiled: defaults to warm
            }
        }
        let temps = std::sync::Arc::new(temps);
        for prefetcher in [PrefetcherKind::None, PrefetcherKind::Fdip] {
            let mut cfg = small_cfg(prefetcher);
            cfg.temperatures = Some(temps.clone());
            let what = format!("seed {seed}, {}", prefetcher.name());
            let run = assert_matches_reference(
                &app.program,
                &layout,
                &trace,
                &cfg,
                PolicyKind::TRRIP,
                &what,
            );
            assert!(
                !run.1.is_empty(),
                "equivalence must be over a non-trivial run"
            );
        }
    }
}

#[test]
fn scripted_invalidations_match_reference() {
    // The scripted-oracle configuration exercises the invalidation lookup,
    // including unmapped-address fallbacks.
    let app = generate(&AppSpec::tiny(7));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(7), 30_000);

    // Record the OPT eviction schedule once, then script it.
    let mut sink = VecSink::new();
    let session = SimSession::new(
        &app.program,
        &layout,
        &trace,
        small_cfg(PrefetcherKind::None),
    );
    session.run_with_sink(PolicyKind::OPT, &mut sink);
    let mut script: Vec<(u64, ripple_program::LineAddr)> = sink
        .events()
        .iter()
        .map(|e| (e.evict_pos, e.victim))
        .collect();
    // An out-of-span line: it must be treated as never resident.
    script.push((0, ripple_program::LineAddr::new(3)));
    script.sort_unstable_by_key(|&(p, _)| p);

    let mut cfg = small_cfg(PrefetcherKind::None);
    cfg.scripted_invalidations = Some(std::sync::Arc::new(script));
    let run = assert_matches_reference(
        &app.program,
        &layout,
        &trace,
        &cfg,
        PolicyKind::LRU,
        "scripted",
    );
    assert!(run.0.invalidate_hits > 0);
}

#[test]
fn scripted_invalidations_with_warmup_match_reference() {
    // Scripted invalidations combined with a nonzero warmup exercise the
    // stats gate on the script path; the gate must be identical in
    // production and reference (fixing it in one only would fail here).
    let app = generate(&AppSpec::tiny(7));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(7), 30_000);

    let mut sink = VecSink::new();
    let session = SimSession::new(
        &app.program,
        &layout,
        &trace,
        small_cfg(PrefetcherKind::None),
    );
    session.run_with_sink(PolicyKind::OPT, &mut sink);
    let mut script: Vec<(u64, ripple_program::LineAddr)> = sink
        .events()
        .iter()
        .map(|e| (e.evict_pos, e.victim))
        .collect();
    script.sort_unstable_by_key(|&(p, _)| p);
    let script = std::sync::Arc::new(script);

    let mut cfg = small_cfg(PrefetcherKind::NextLine);
    cfg.warmup_fraction = 0.4;
    cfg.scripted_invalidations = Some(script.clone());
    let run = assert_matches_reference(
        &app.program,
        &layout,
        &trace,
        &cfg,
        PolicyKind::LRU,
        "scripted with warmup",
    );
    // The warmup prefix contains script entries, so the counted hits are a
    // strict subset of the schedule.
    assert!(run.0.invalidate_hits > 0);
    assert!((run.0.invalidate_hits as usize) < script.len());
}

#[test]
fn captured_and_streamed_runs_match_reference_for_every_policy() {
    // Once a session holds a captured stream, every policy replays it in
    // order instead of streaming. Both drivers must be byte-identical to
    // the reference for every registered policy; the PC-indexed ones
    // (GHRP, Hawkeye) only pass if the replay reproduces the exact demand
    // and prefetch PCs, including FDIP prefetches issued from *predicted*
    // blocks.
    let app = generate(&AppSpec::tiny(17));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(17), 30_000);
    for prefetcher in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
        let cfg = small_cfg(prefetcher);
        let captured = SimSession::new(&app.program, &layout, &trace, cfg.clone());
        captured.ensure_recorded();
        for policy in PolicyKind::all() {
            let slow = reference(&app.program, &layout, &trace, &cfg, policy);
            let what = format!("captured, {}", prefetcher.name());
            let mut sink = VecSink::new();
            let stats = captured.run_with_sink(policy, &mut sink);
            assert_eq!(stats, slow.0, "stats diverged: {what}, {}", policy.name());
            assert_eq!(
                sink.into_events(),
                slow.1,
                "eviction stream diverged: {what}, {}",
                policy.name()
            );
            let what = format!("streamed, {}", prefetcher.name());
            assert_matches_reference(&app.program, &layout, &trace, &cfg, policy, &what);
        }
        assert_eq!(
            captured.recording_passes(),
            1,
            "all runs must share the one capture"
        );
    }
}

#[test]
fn observed_capture_replay_matches_unobserved_for_every_policy() {
    // A recorder attached to a captured session observes only: every
    // policy's replay must equal the unobserved session's, and the
    // observed session must report its single recording pass.
    let app = generate(&AppSpec::tiny(21));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(21), 30_000);
    let cfg = small_cfg(PrefetcherKind::Fdip);
    let plain = SimSession::new(&app.program, &layout, &trace, cfg.clone());
    plain.ensure_recorded();
    let metrics = std::sync::Arc::new(ripple_obs::MetricsRecorder::new());
    let observed =
        SimSession::new(&app.program, &layout, &trace, cfg).with_recorder(metrics.clone());
    observed.ensure_recorded();
    for policy in PolicyKind::all() {
        let run = |session: &SimSession| {
            let mut sink = VecSink::new();
            (session.run_with_sink(policy, &mut sink), sink.into_events())
        };
        assert_eq!(run(&observed), run(&plain), "{}", policy.name());
    }
    assert_eq!(observed.recording_passes(), 1);
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("session.recording_passes"), Some(1));
    assert_eq!(
        snap.counter("session.runs"),
        Some(PolicyKind::all().len() as u64)
    );
}

#[test]
fn oracles_on_an_odd_l2_geometry_match_reference() {
    // An L2 whose set count (12) is not a multiple of the L1I's (8), the
    // only non-default L2 among these tests. The oracles replay their
    // capture in order under its future index; the walk's request index
    // must line up with the capture's record index for the result to be
    // exact on any geometry.
    let app = generate(&AppSpec::tiny(19));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(19), 30_000);
    for prefetcher in [PrefetcherKind::None, PrefetcherKind::Fdip] {
        let mut cfg = small_cfg(prefetcher);
        cfg.l2 = CacheGeometry::new(12 * 64, 1);
        assert_eq!(cfg.l1i.num_sets(), 8);
        assert!(!cfg.l2.num_sets().is_multiple_of(cfg.l1i.num_sets()));
        for policy in [PolicyKind::OPT, PolicyKind::DEMAND_MIN] {
            let what = format!("odd l2, {}", prefetcher.name());
            let run = assert_matches_reference(&app.program, &layout, &trace, &cfg, policy, &what);
            assert!(run.0.demand_misses > 0, "non-trivial run: {what}");
        }
    }
}

#[test]
fn sized_lower_levels_match_reference() {
    // The walk builds its L2 and L3 with only the ways the program's lines
    // can fill; the reference frontend keeps every configured way. Here
    // the 40-set L2 is cut to ceil(lines / 40) ways (most of its sets
    // receive two lines, so one way per set would not do), and the L3 is
    // too small to be cut, so it evicts. No warmup, so the cold L2's first
    // touches reach the L3.
    use ripple_sim::LineTable;

    let app = generate(&AppSpec::tiny(19));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(19), 30_000);
    let lines = u64::from(LineTable::build(&layout).len());
    for prefetcher in [PrefetcherKind::None, PrefetcherKind::Fdip] {
        let mut cfg = small_cfg(prefetcher);
        cfg.l2 = CacheGeometry::new(40 * 16 * 64, 16);
        cfg.l3 = CacheGeometry::new(16 * 2 * 64, 2);
        cfg.warmup_fraction = 0.0;
        let ceil = |g: CacheGeometry| lines.div_ceil(g.num_sets());
        assert!(
            (2..u64::from(cfg.l2.assoc)).contains(&ceil(cfg.l2)) && lines % 40 != 0,
            "{lines} lines must cut the L2 to a ceil that floor misses"
        );
        assert!(ceil(cfg.l3) > u64::from(cfg.l3.assoc), "{lines} lines");
        for policy in [PolicyKind::LRU, PolicyKind::OPT, PolicyKind::DEMAND_MIN] {
            let what = format!("sized lower levels, {}", prefetcher.name());
            let run = assert_matches_reference(&app.program, &layout, &trace, &cfg, policy, &what);
            let (l2, l3, mem) = (run.0.served_l2, run.0.served_l3, run.0.served_mem);
            assert!(l2 > 0 && l3 > 0 && mem > 0, "every level serves: {what}");
        }
    }
}

#[test]
fn eviction_mechanisms_match_reference_on_injected_programs() {
    // Injected invalidate instructions are the only way the Demote/NoOp
    // mechanisms act; rewrite the program with a manual plan so production
    // and reference both execute them.
    let app = generate(&AppSpec::tiny(11));
    let base_layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(11), 30_000);

    // Cue a handful of blocks to invalidate the first line of their
    // neighbours; rewrite() preserves BlockIds so the trace stays valid.
    let n = app.program.num_blocks() as u32;
    let mut plan = InjectionPlan::new();
    for i in 0..n.min(6) {
        plan.push(Injection {
            cue: BlockId::new(i),
            victim: CodeLoc::new(BlockId::new((i + 1) % n), 0),
        });
    }
    let rewritten = rewrite(&app.program, &base_layout, &plan);

    // Demand-MIN checks an offline oracle's future index over the
    // relinked layout too.
    for (mechanism, policy) in [
        (EvictionMechanism::Invalidate, PolicyKind::LRU),
        (EvictionMechanism::Invalidate, PolicyKind::DEMAND_MIN),
        (EvictionMechanism::Demote, PolicyKind::LRU),
        (EvictionMechanism::NoOp, PolicyKind::LRU),
    ] {
        let mut cfg = small_cfg(PrefetcherKind::NextLine);
        cfg.eviction_mechanism = mechanism;
        let (stats, _) = assert_matches_reference(
            &rewritten.program,
            &rewritten.layout,
            &trace,
            &cfg,
            policy,
            &format!("{mechanism:?}, {}", policy.name()),
        );
        assert!(stats.invalidate_instructions > 0);
        match mechanism {
            EvictionMechanism::Invalidate | EvictionMechanism::Demote => {
                assert!(stats.invalidate_hits > 0, "{mechanism:?} never hit")
            }
            EvictionMechanism::NoOp => assert_eq!(stats.invalidate_hits, 0),
        }
    }
}
