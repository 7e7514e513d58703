//! Behavioral tests of the frontend: warmup gating, scripted
//! invalidations, prefetcher effects and the timing model.

use std::sync::Arc;

use ripple_program::{Layout, LayoutConfig, LineAddr};
use ripple_sim::{
    simulate_ideal_cache, CacheGeometry, EvictionMechanism, PolicyKind, PrefetcherKind, SimConfig,
    SimSession, VecSink,
};
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

fn setup() -> (ripple_workloads::Application, Layout, ripple_trace::BbTrace) {
    let app = generate(&AppSpec::tiny(4));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(4), 50_000);
    (app, layout, trace)
}

fn small_cfg() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.l1i = CacheGeometry::new(1024, 2);
    cfg
}

#[test]
fn warmup_fraction_gates_statistics() {
    let (app, layout, trace) = setup();
    let mut cold = small_cfg();
    cold.warmup_fraction = 0.0;
    let mut warm = small_cfg();
    warm.warmup_fraction = 0.5;
    let rc = SimSession::new(&app.program, &layout, &trace, cold).run(PolicyKind::LRU);
    let rw = SimSession::new(&app.program, &layout, &trace, warm).run(PolicyKind::LRU);
    assert!(rw.blocks < rc.blocks);
    assert!(rw.instructions < rc.instructions);
    assert!(rw.demand_misses < rc.demand_misses);
    // Compulsory misses concentrate in the warmup prefix.
    assert!(rw.compulsory_misses < rc.compulsory_misses);
}

#[test]
fn scripted_invalidation_of_ideal_victims_reproduces_opt() {
    // The oracle experiment from DESIGN.md §3a: invalidate every ideal
    // victim right before its eviction trigger and LRU becomes OPT.
    let (app, layout, trace) = setup();
    let mut sink = VecSink::new();
    let opt = SimSession::new(&app.program, &layout, &trace, small_cfg())
        .run_with_sink(PolicyKind::OPT, &mut sink);
    let mut script: Vec<(u64, LineAddr)> = sink
        .events()
        .iter()
        .map(|e| (e.evict_pos, e.victim))
        .collect();
    script.sort_unstable_by_key(|&(p, _)| p);
    let mut lru_cfg = small_cfg();
    lru_cfg.scripted_invalidations = Some(Arc::new(script));
    let scripted = SimSession::new(&app.program, &layout, &trace, lru_cfg).run(PolicyKind::LRU);
    assert_eq!(
        scripted.demand_misses, opt.demand_misses,
        "scripted LRU must equal OPT"
    );
}

#[test]
fn scripted_invalidate_hits_respect_warmup() {
    // Scripted invalidations must be stats-gated exactly like injected
    // ones: architectural state always updates, but hits landing in the
    // warmup prefix must not count.
    let (app, layout, trace) = setup();
    // A script that provably hits: invalidate every OPT victim at its
    // eviction trigger (same construction as the OPT oracle test above).
    let mut sink = VecSink::new();
    SimSession::new(&app.program, &layout, &trace, small_cfg())
        .run_with_sink(PolicyKind::OPT, &mut sink);
    let mut script: Vec<(u64, LineAddr)> = sink
        .events()
        .iter()
        .map(|e| (e.evict_pos, e.victim))
        .collect();
    script.sort_unstable_by_key(|&(p, _)| p);
    let script = Arc::new(script);

    let mut cold = small_cfg();
    cold.warmup_fraction = 0.0;
    cold.scripted_invalidations = Some(script.clone());
    let mut warm = small_cfg();
    warm.warmup_fraction = 0.5;
    warm.scripted_invalidations = Some(script.clone());
    let rc = SimSession::new(&app.program, &layout, &trace, cold).run(PolicyKind::LRU);
    let rw = SimSession::new(&app.program, &layout, &trace, warm).run(PolicyKind::LRU);

    // The gate is stats-only, so every script entry hits (or misses)
    // identically in both runs; the warm run must simply not count the
    // hits scheduled inside its warmup prefix.
    let warmup_until = (trace.len() as f64 * 0.5) as u64;
    let in_warmup = script.iter().filter(|&&(p, _)| p < warmup_until).count() as u64;
    assert!(
        in_warmup > 0,
        "fixture must schedule invalidations in warmup"
    );
    assert!(rc.invalidate_hits >= in_warmup);
    assert_eq!(rw.invalidate_hits, rc.invalidate_hits - in_warmup);
}

#[test]
fn noop_mechanism_leaves_cache_untouched() {
    let (app, layout, trace) = setup();
    // Without injected instructions there is nothing to execute, so the
    // mechanisms are equivalent on a pristine binary.
    for mech in [
        EvictionMechanism::Invalidate,
        EvictionMechanism::Demote,
        EvictionMechanism::NoOp,
    ] {
        let mut cfg = small_cfg();
        cfg.eviction_mechanism = mech;
        let r = SimSession::new(&app.program, &layout, &trace, cfg).run(PolicyKind::LRU);
        assert_eq!(r.invalidate_hits, 0);
        assert_eq!(r.invalidate_instructions, 0);
    }
}

#[test]
fn fdip_tracks_mispredictions_and_prefetches() {
    let (app, layout, trace) = setup();
    let cfg = small_cfg().with_prefetcher(PrefetcherKind::Fdip);
    let r = SimSession::new(&app.program, &layout, &trace, cfg).run(PolicyKind::LRU);
    assert!(r.prefetches_issued > 0);
    assert!(r.prefetch_fills > 0);
    assert!(r.mispredictions > 0, "tiny app has noisy branches");
    assert!(r.prefetch_fills <= r.prefetches_issued);
}

#[test]
fn nlp_prefetches_next_lines_only() {
    let (app, layout, trace) = setup();
    let cfg = small_cfg().with_prefetcher(PrefetcherKind::NextLine);
    let r = SimSession::new(&app.program, &layout, &trace, cfg).run(PolicyKind::LRU);
    assert!(r.prefetches_issued > 0);
    assert_eq!(r.mispredictions, 0, "nlp uses no branch predictor");
}

#[test]
fn timing_reflects_miss_latency() {
    let (app, layout, trace) = setup();
    // A slower memory hierarchy must cost cycles with the same misses.
    let fast = small_cfg();
    let mut slow = small_cfg();
    slow.l2_latency *= 4;
    slow.l3_latency *= 4;
    slow.mem_latency *= 4;
    let rf = SimSession::new(&app.program, &layout, &trace, fast).run(PolicyKind::LRU);
    let rs = SimSession::new(&app.program, &layout, &trace, slow).run(PolicyKind::LRU);
    assert_eq!(rf.demand_misses, rs.demand_misses);
    assert!(rs.cycles > rf.cycles);
}

#[test]
fn stall_exposure_scales_the_penalty() {
    let (app, layout, trace) = setup();
    let mut hidden = small_cfg();
    hidden.stall_exposure = 0.0;
    let r = SimSession::new(&app.program, &layout, &trace, hidden.clone()).run(PolicyKind::LRU);
    let ideal = simulate_ideal_cache(&app.program, &trace, &hidden);
    // With no exposed stalls, cycles equal the ideal cache's.
    assert!((r.cycles - ideal.cycles).abs() < 1e-6);
}

#[test]
fn eviction_log_positions_are_within_trace() {
    let (app, layout, trace) = setup();
    let cfg = small_cfg();
    let mut sink = VecSink::new();
    SimSession::new(&app.program, &layout, &trace, cfg).run_with_sink(PolicyKind::LRU, &mut sink);
    for e in sink.into_events() {
        assert!((e.evict_pos as usize) < trace.len());
        assert!(
            e.last_access_pos == u64::MAX || e.last_access_pos <= e.evict_pos,
            "last access cannot follow the eviction"
        );
    }
}

#[test]
fn demand_min_equals_opt_without_prefetching() {
    // Without prefetch requests in the stream, Demand-MIN degenerates to
    // Belady-OPT exactly.
    let (app, layout, trace) = setup();
    let opt = SimSession::new(&app.program, &layout, &trace, small_cfg()).run(PolicyKind::OPT);
    let dm =
        SimSession::new(&app.program, &layout, &trace, small_cfg()).run(PolicyKind::DEMAND_MIN);
    assert_eq!(opt.demand_misses, dm.demand_misses);
}

#[test]
fn late_prefetches_expose_partial_latency() {
    let (app, layout, trace) = setup();
    // NLP prefetches exactly one line ahead, so its hits are mostly late;
    // disabling the timeliness window must make NLP strictly faster.
    let mut timely = small_cfg().with_prefetcher(PrefetcherKind::NextLine);
    timely.prefetch_timeliness_blocks = 0;
    let mut late = small_cfg().with_prefetcher(PrefetcherKind::NextLine);
    late.prefetch_timeliness_blocks = 32;
    let rt = SimSession::new(&app.program, &layout, &trace, timely).run(PolicyKind::LRU);
    let rl = SimSession::new(&app.program, &layout, &trace, late).run(PolicyKind::LRU);
    assert_eq!(rt.demand_misses, rl.demand_misses);
    assert!(
        rl.cycles > rt.cycles,
        "timeliness must cost cycles ({} !> {})",
        rl.cycles,
        rt.cycles
    );
}

#[test]
fn tree_plru_tracks_lru_closely() {
    let (app, layout, trace) = setup();
    let lru = SimSession::new(&app.program, &layout, &trace, small_cfg()).run(PolicyKind::LRU);
    let plru =
        SimSession::new(&app.program, &layout, &trace, small_cfg()).run(PolicyKind::TREE_PLRU);
    // 2-way sets: tree-PLRU is exact LRU.
    assert_eq!(lru.demand_misses, plru.demand_misses);
}
