//! Determinism: every stage of the pipeline is a pure function of its
//! seeds, so experiments are exactly reproducible — including under the
//! parallel evaluation harness, whose results are byte-identical to a
//! sequential run at any thread count.

use std::sync::Arc;

use ripple::{collect_profile, policy_matrix, Ripple, RippleConfig};
use ripple_obs::{MetricsRecorder, NullRecorder, Recorder};
use ripple_program::{Layout, LayoutConfig};
use ripple_sim::{ideal_policy_for, PolicyKind, PrefetcherKind, SimConfig, SimSession, VecSink};
use ripple_workloads::{generate, App, AppSpec, InputConfig};

#[test]
fn generation_execution_and_simulation_are_deterministic() {
    let run = || {
        let app = generate(&AppSpec::tiny(77));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let profile = collect_profile(&app, &layout, InputConfig::training(77), 50_000).unwrap();
        let cfg = SimConfig::default().with_prefetcher(PrefetcherKind::Fdip);
        let stats =
            SimSession::new(&app.program, &layout, &profile.trace, cfg).run(PolicyKind::LRU);
        (profile.trace.len(), stats)
    };
    let (len_a, stats_a) = run();
    let (len_b, stats_b) = run();
    assert_eq!(len_a, len_b);
    assert_eq!(stats_a, stats_b);
}

#[test]
fn full_ripple_pipeline_is_deterministic() {
    let run = || {
        let app = generate(&App::Tomcat.spec());
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let profile = collect_profile(
            &app,
            &layout,
            InputConfig::training(App::Tomcat.spec().seed),
            200_000,
        )
        .unwrap();
        let ripple = Ripple::train(
            &app.program,
            &layout,
            &profile.trace,
            RippleConfig::default(),
        )
        .unwrap();
        let o = ripple.evaluate(&profile.trace).unwrap();
        (
            o.injected_static,
            o.ripple.demand_misses,
            o.coverage.covered_windows,
            o.ripple_accuracy,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_inputs_produce_different_traces_same_input_identical() {
    let app = generate(&App::Kafka.spec());
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let a = collect_profile(&app, &layout, InputConfig::numbered(1, 9), 60_000).unwrap();
    let b = collect_profile(&app, &layout, InputConfig::numbered(1, 9), 60_000).unwrap();
    let c = collect_profile(&app, &layout, InputConfig::numbered(2, 9), 60_000).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_ne!(a.trace, c.trace);
}

/// The harness's SimStats are byte-identical whether the policy matrix runs
/// on one worker (the sequential reference) or many, across applications
/// and prefetchers.
#[test]
fn policy_matrix_is_thread_count_invariant() {
    for app_id in [App::Tomcat, App::Kafka] {
        let spec = app_id.spec();
        let app = generate(&spec);
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let profile = collect_profile(&app, &layout, InputConfig::training(spec.seed), 80_000)
            .expect("profile collection");
        for pf in [PrefetcherKind::None, PrefetcherKind::Fdip] {
            let cfg = SimConfig::default().with_prefetcher(pf);
            let session = SimSession::new(&app.program, &layout, &profile.trace, cfg);
            let policies = [
                PolicyKind::LRU,
                PolicyKind::RANDOM,
                PolicyKind::SRRIP,
                ideal_policy_for(pf),
            ];
            let sequential = policy_matrix(&session, &policies, 1).unwrap();
            let parallel = policy_matrix(&session, &policies, 8).unwrap();
            assert_eq!(sequential, parallel, "{app_id}/{}", pf.name());
        }
    }
}

/// The full `RippleOutcome` — every stat, accuracy score and overhead — is
/// identical at any worker count, across ≥2 apps × 2 prefetchers.
#[test]
fn ripple_outcome_is_thread_count_invariant() {
    for app_id in [App::Tomcat, App::Kafka] {
        let spec = app_id.spec();
        let app = generate(&spec);
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let profile = collect_profile(&app, &layout, InputConfig::training(spec.seed), 80_000)
            .expect("profile collection");
        for pf in [PrefetcherKind::None, PrefetcherKind::Fdip] {
            let outcome = |threads: usize| {
                let mut config = RippleConfig::default();
                config.sim.prefetcher = pf;
                config.threads = Some(threads);
                let ripple = Ripple::train(&app.program, &layout, &profile.trace, config).unwrap();
                ripple.evaluate(&profile.trace).unwrap()
            };
            assert_eq!(outcome(1), outcome(8), "{app_id}/{}", pf.name());
        }
    }
}

/// Observability recorders observe, never feed back: attaching a
/// `MetricsRecorder` must leave `SimStats`, the full eviction stream, and
/// the entire `RippleOutcome` byte-identical to the `NullRecorder`
/// default, across ≥2 apps × 2 prefetchers.
#[test]
fn recorders_never_perturb_results() {
    for app_id in [App::Tomcat, App::Kafka] {
        let spec = app_id.spec();
        let app = generate(&spec);
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let profile = collect_profile(&app, &layout, InputConfig::training(spec.seed), 80_000)
            .expect("profile collection");
        for pf in [PrefetcherKind::None, PrefetcherKind::Fdip] {
            let run = |recorder: Arc<dyn Recorder>| {
                let cfg = SimConfig::default().with_prefetcher(pf);
                let session = SimSession::new(&app.program, &layout, &profile.trace, cfg)
                    .with_recorder(recorder);
                let mut sink = VecSink::new();
                let stats = session.run_with_sink(ideal_policy_for(pf), &mut sink);
                (stats, sink.into_events())
            };
            let baseline = run(Arc::new(NullRecorder));
            let metrics = Arc::new(MetricsRecorder::new());
            assert_eq!(
                baseline,
                run(metrics.clone()),
                "MetricsRecorder perturbed {app_id}/{}",
                pf.name()
            );
            assert!(
                metrics.snapshot().phase("session.run").is_some(),
                "recorder saw nothing"
            );

            let outcome = |recorder: Arc<dyn Recorder>| {
                let mut config = RippleConfig::default();
                config.sim.prefetcher = pf;
                let ripple = Ripple::train_with_recorder(
                    &app.program,
                    &layout,
                    &profile.trace,
                    config,
                    recorder,
                )
                .unwrap();
                ripple.evaluate(&profile.trace).unwrap()
            };
            assert_eq!(
                outcome(Arc::new(NullRecorder)),
                outcome(Arc::new(MetricsRecorder::new())),
                "recorded pipeline diverged on {app_id}/{}",
                pf.name()
            );
        }
    }
}
