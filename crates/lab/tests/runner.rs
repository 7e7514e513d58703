//! End-to-end runner tests: the report is valid, renders, and is
//! byte-identical across thread counts and repeated runs.

use std::sync::Arc;

use ripple_lab::{builtin, run_experiment, validate_lab_report, LabOptions};

/// The CI smoke declaration at a reduced budget, so the full grid (two
/// profiles x fault modes) stays test-sized.
fn smoke_options(threads: Option<usize>) -> LabOptions {
    LabOptions {
        threads,
        instructions: Some(30_000),
        ..LabOptions::default()
    }
}

#[test]
fn smoke_grid_runs_validates_and_renders() {
    let resolved = builtin("lab-smoke").unwrap().resolve().unwrap();
    let run = run_experiment(&resolved, &smoke_options(Some(2))).unwrap();
    assert_eq!(run.points.len(), resolved.num_points());
    assert_eq!(run.outcomes.len(), run.points.len());
    validate_lab_report(&run.report).unwrap();

    // Round-trip through text: the parsed document still validates.
    let text = run.report.to_pretty_string();
    let parsed = ripple_json::parse(&text).unwrap();
    validate_lab_report(&parsed).unwrap();

    let tables = ripple_lab::render_tables(&run.report).unwrap();
    assert!(tables.contains("lab lab-smoke"), "{tables}");
    assert!(tables.contains("srrip"), "{tables}");

    // Fault axis: bitflip points carry loss accounting, pristine don't.
    for (point, outcome) in run.points.iter().zip(&run.outcomes) {
        match point.fault {
            ripple_lab::FaultMode::None => assert!(outcome.trace_health.is_none()),
            ripple_lab::FaultMode::BitFlip => {
                let health = outcome.trace_health.expect("bitflip point has health");
                assert!(health.total_bytes > 0);
            }
        }
        // The LRU baseline's speedup over itself is exactly zero.
        assert_eq!(outcome.lru.speedup_pct, 0.0);
    }
}

#[test]
fn report_is_byte_identical_across_thread_counts_and_reruns() {
    let resolved = builtin("lab-smoke").unwrap().resolve().unwrap();
    let t1 = run_experiment(&resolved, &smoke_options(Some(1))).unwrap();
    let t4 = run_experiment(&resolved, &smoke_options(Some(4))).unwrap();
    let again = run_experiment(&resolved, &smoke_options(Some(1))).unwrap();
    let a = t1.report.to_pretty_string();
    assert_eq!(a, t4.report.to_pretty_string(), "threads must not leak");
    assert_eq!(a, again.report.to_pretty_string(), "reruns must not drift");
}

#[test]
fn recorder_observes_every_lab_phase_without_changing_the_report() {
    let metrics = Arc::new(ripple_obs::MetricsRecorder::new());
    let mut options = smoke_options(Some(2));
    options.recorder = metrics.clone();
    let resolved = builtin("lab-smoke").unwrap().resolve().unwrap();
    let observed = run_experiment(&resolved, &options).unwrap();
    let plain = run_experiment(&resolved, &smoke_options(Some(2))).unwrap();
    assert_eq!(
        observed.report.to_pretty_string(),
        plain.report.to_pretty_string(),
        "recorders observe, never change outcomes"
    );
    let snapshot = metrics.snapshot();
    for phase in ripple_lab::LAB_PHASES {
        assert!(
            snapshot.phases.iter().any(|(name, _)| name == phase),
            "phase {phase} missing from the recorder"
        );
    }
}

/// One point (cassandra, FDIP, Ripple-Random at three thresholds) run with
/// a metrics recorder.
fn observed_single_point() -> (ripple_obs::MetricsSnapshot, ripple_lab::LabRun) {
    let resolved = ripple_lab::Experiment::parse(
        r#"{
            "name": "one-point",
            "instructions": 30000,
            "profiles": ["paper"],
            "apps": ["cassandra"],
            "prefetchers": ["fdip"],
            "policies": ["srrip"],
            "ripple_underlying": ["random"],
            "thresholds": [0.45, 0.55, 0.65]
        }"#,
    )
    .unwrap()
    .resolve()
    .unwrap();
    assert_eq!(resolved.num_points(), 1);
    let metrics = Arc::new(ripple_obs::MetricsRecorder::new());
    let options = LabOptions {
        threads: Some(1),
        recorder: metrics.clone(),
        ..LabOptions::default()
    };
    let run = run_experiment(&resolved, &options).unwrap();
    let plain = run_experiment(&resolved, &LabOptions::default()).unwrap();
    assert_eq!(
        run.report.to_pretty_string(),
        plain.report.to_pretty_string(),
        "recorders observe, never change outcomes"
    );
    (metrics.snapshot(), run)
}

#[test]
fn a_point_reports_its_pipeline_phases_into_the_lab_recorder() {
    let (snapshot, _) = observed_single_point();
    for phase in [
        "train.oracle_replay",
        "eval.plan",
        "eval.sim_runs",
        "eval.accuracy",
        "session.run",
    ] {
        assert!(snapshot.phase(phase).is_some(), "phase {phase} missing");
    }
}

#[test]
fn a_point_measures_the_original_binary_once_for_all_thresholds() {
    let (snapshot, run) = observed_single_point();
    assert_eq!(run.outcomes[0].ripple.len(), 3);
    let runs_of = |policy: &str| {
        snapshot
            .events_named("session.run")
            .filter(|e| e.field("policy").and_then(|v| v.as_str()) == Some(policy))
            .count()
    };
    // Neither the declared policies nor Ripple-Random's rewritten binaries
    // run LRU or Demand-MIN, so these are the baseline's own runs.
    assert_eq!(runs_of("lru"), 1, "one LRU run");
    assert_eq!(runs_of("demand-min"), 1, "one oracle run");
    // The baseline's job matrix (LRU, oracle, ideal cache) ran once; the
    // Random baseline was replayed once, as a batch of its own.
    let baseline_batches: Vec<u64> = snapshot
        .events_named("harness.batch")
        .filter(|e| e.field("scope").and_then(|v| v.as_str()) == Some("baseline"))
        .filter_map(|e| e.field("jobs").and_then(|v| v.as_u64()))
        .collect();
    assert_eq!(baseline_batches, vec![3, 1], "one ideal-cache run");
    // Every other Random run is a rewritten binary's, one per non-empty
    // plan.
    let rewritten_runs = snapshot
        .events_named("harness.batch")
        .filter(|e| e.field("scope").and_then(|v| v.as_str()) == Some("evaluate"))
        .count();
    assert!(rewritten_runs <= 3);
    assert_eq!(runs_of("random"), 1 + rewritten_runs);
}
