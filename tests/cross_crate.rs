//! Cross-crate integration: program → trace → workloads → sim glue.

use ripple_program::{
    rewrite, CodeKind, Injection, InjectionPlan, InstKind, Layout, LayoutConfig, LineMapper,
    Program, ProgramBuilder,
};
use ripple_sim::{PolicyKind, PrefetcherKind, SimConfig, SimSession};
use ripple_trace::{reconstruct_trace, record_trace};
use ripple_workloads::{execute, generate, App, AppSpec, InputConfig};

#[test]
fn every_app_profile_roundtrips_through_the_tracer() {
    for app_id in [App::Cassandra, App::Drupal, App::Verilator] {
        let app = generate(&app_id.spec());
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(1), 120_000);
        let bytes = record_trace(&app.program, &layout, trace.iter());
        let decoded = reconstruct_trace(&app.program, &layout, &bytes).expect("valid");
        assert_eq!(decoded, trace, "{app_id}");
    }
}

#[test]
fn rewritten_binaries_execute_identically_modulo_invalidates() {
    // Injecting invalidations must not change which blocks execute; only
    // extra invalidate instructions and shifted addresses differ.
    let app = generate(&AppSpec::tiny(3));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(3), 30_000);

    // Inject into the three most-executed blocks.
    let mut counts = std::collections::HashMap::new();
    for b in trace.iter() {
        *counts.entry(b).or_insert(0u32) += 1;
    }
    let mut hot: Vec<_> = counts.into_iter().collect();
    hot.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let victim = ripple_program::CodeLoc::new(hot[5].0, 0);
    let mut plan = InjectionPlan::new();
    for &(cue, _) in hot.iter().take(3) {
        plan.push(Injection { cue, victim });
    }
    let rw = rewrite(&app.program, &layout, &plan);
    rw.program.validate().expect("valid after rewrite");

    // Same trace replays on both binaries; instruction counts differ by
    // exactly the executed invalidates.
    let base =
        SimSession::new(&app.program, &layout, &trace, SimConfig::default()).run(PolicyKind::LRU);
    let ripple =
        SimSession::new(&rw.program, &rw.layout, &trace, SimConfig::default()).run(PolicyKind::LRU);
    assert_eq!(base.instructions, ripple.instructions);
    assert!(ripple.invalidate_instructions > 0);
    assert_eq!(base.blocks, ripple.blocks);
}

#[test]
fn line_mapper_tracks_every_code_line() {
    let app = generate(&AppSpec::tiny(5));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let plan = InjectionPlan::new();
    let rw = rewrite(&app.program, &layout, &plan);
    let mapper = LineMapper::new(&app.program, &layout, &rw.layout);
    // Identity rewrite: every code line maps to itself.
    for block in app.program.blocks() {
        for line in layout.lines_of_block(block.id()) {
            assert_eq!(mapper.map(line), line);
        }
    }
}

#[test]
fn offline_ideals_lower_bound_online_policies_on_real_apps() {
    let app = generate(&App::FinagleChirper.spec());
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(2), 250_000);
    for pf in [
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Fdip,
    ] {
        let cfg = SimConfig::default().with_prefetcher(pf);
        let lru = SimSession::new(&app.program, &layout, &trace, cfg.clone()).run(PolicyKind::LRU);
        let ideal_kind = if pf == PrefetcherKind::None {
            PolicyKind::OPT
        } else {
            PolicyKind::DEMAND_MIN
        };
        let ideal = SimSession::new(&app.program, &layout, &trace, cfg).run(ideal_kind);
        assert!(
            ideal.demand_misses <= lru.demand_misses,
            "{}: ideal {} > lru {}",
            pf.name(),
            ideal.demand_misses,
            lru.demand_misses
        );
    }
}

#[test]
fn invalidate_instructions_survive_program_validation() {
    let mut b = ProgramBuilder::new();
    let main = b.add_function("main", CodeKind::Static);
    let b0 = b.add_block(main);
    let b1 = b.add_block(main);
    b.push_inst(b0, ripple_program::Instruction::other(40));
    b.push_inst(b1, ripple_program::Instruction::ret());
    let program: Program = b.finish(main).unwrap();
    let layout = Layout::new(&program, &LayoutConfig::default());
    let mut plan = InjectionPlan::new();
    plan.push(Injection {
        cue: b1,
        victim: ripple_program::CodeLoc::new(b0, 0),
    });
    let rw = rewrite(&program, &layout, &plan);
    rw.program.validate().unwrap();
    let block = rw.program.block(b1);
    assert_eq!(block.injected_prefix_len(), 1);
    assert!(matches!(
        block.instructions()[0].kind(),
        InstKind::Invalidate { .. }
    ));
}

#[test]
fn plan_artifacts_serialize_and_reapply() {
    // The "link-time artifact" flow a deployment would use: compute a
    // plan, serialize it, deserialize, and apply it to a fresh build of
    // the same program — the result must be identical.
    use ripple::{Ripple, RippleConfig};
    use ripple_workloads::AppSpec;

    let app = generate(&AppSpec::tiny(41));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(41), 40_000);
    let mut config = RippleConfig::default();
    config.sim.l1i = ripple_sim::CacheGeometry::new(2 * 1024, 4);
    config.analysis.min_windows_per_injection = 1;
    config.threshold = 0.2;
    let ripple = Ripple::train(&app.program, &layout, &trace, config).expect("train");
    let (plan, _) = ripple.plan().expect("plan");
    assert!(!plan.is_empty());

    use ripple_json::{FromJson, ToJson};
    let json = plan.to_json().to_compact_string();
    let value = ripple_json::parse(&json).expect("plans serialize to valid json");
    let plan2 = InjectionPlan::from_json(&value).expect("plans deserialize");
    assert_eq!(plan, plan2);

    let rw1 = rewrite(&app.program, &layout, &plan);
    let fresh = generate(&AppSpec::tiny(41)); // deterministic rebuild
    let rw2 = rewrite(&fresh.program, &layout, &plan2);
    assert_eq!(rw1.program, rw2.program);
    assert_eq!(rw1.layout, rw2.layout);
}
