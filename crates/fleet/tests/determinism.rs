//! Fleet determinism: the `ripple.fleet_report.v1` document is a pure
//! function of [`FleetConfig`] — thread counts and artifact-cache warmth
//! change wall time only.

use std::sync::Arc;

use ripple_fleet::{
    run_fleet, run_fleet_with_cache, validate_fleet_report, FleetConfig, PlanArtifactCache,
};
use ripple_json::Value;
use ripple_obs::{MetricsRecorder, NullRecorder, OwnedValue};

fn small_config() -> FleetConfig {
    FleetConfig {
        instances: 6,
        epochs: 2,
        canary_pct: 25,
        seed: 7,
        shard_instructions: 6_000,
        ..FleetConfig::default()
    }
}

fn report_text(config: &FleetConfig) -> String {
    run_fleet(config, Arc::new(NullRecorder))
        .expect("fleet run")
        .to_pretty_string()
}

/// Drops every `artifact_cache` member, recursively: the one report
/// section where warm and cold caches legitimately differ.
fn strip_cache_counters(value: &mut Value) {
    match value {
        Value::Object(members) => {
            members.retain(|(key, _)| key != "artifact_cache");
            for (_, v) in members {
                strip_cache_counters(v);
            }
        }
        Value::Array(items) => {
            for v in items {
                strip_cache_counters(v);
            }
        }
        _ => {}
    }
}

#[test]
fn collect_and_rollout_jobs_are_observed_without_changing_the_report() {
    let cfg = FleetConfig {
        threads: Some(2),
        poison_instance: Some(1),
        ..small_config()
    };
    let metrics = Arc::new(MetricsRecorder::new());
    let observed = run_fleet(&cfg, metrics.clone())
        .expect("fleet run")
        .to_pretty_string();
    assert_eq!(
        observed,
        report_text(&cfg),
        "observation changed the report"
    );
    let snap = metrics.snapshot();
    let jobs_in = |scope: &str| {
        snap.events_named("harness.job")
            .filter(|e| e.field("scope").and_then(OwnedValue::as_str) == Some(scope))
            .count()
    };
    // One collect job per instance per epoch, the poisoned one included.
    assert_eq!(
        jobs_in("fleet.collect"),
        cfg.instances * cfg.epochs as usize
    );
    assert!(jobs_in("fleet.rollout") > 0);
}

#[test]
fn fleet_report_is_byte_identical_across_thread_counts() {
    let base = report_text(&small_config());
    for threads in [1, 4] {
        let cfg = FleetConfig {
            threads: Some(threads),
            ..small_config()
        };
        assert_eq!(report_text(&cfg), base, "diverged at {threads} threads");
    }
}

#[test]
fn warm_artifact_cache_is_observation_neutral() {
    let cfg = small_config();
    let mut cache = PlanArtifactCache::new();
    let cold = run_fleet_with_cache(&cfg, &mut cache, Arc::new(NullRecorder)).expect("cold run");
    assert!(!cache.is_empty(), "the cold run must populate the cache");
    // Same config against the now-warm cache: the "process restart"
    // scenario. Everything except the cache counters must be identical.
    let warm = run_fleet_with_cache(&cfg, &mut cache, Arc::new(NullRecorder)).expect("warm run");

    let epoch0 = &warm.get("epoch_reports").unwrap().as_array().unwrap()[0];
    let warm_hits = epoch0
        .get("artifact_cache")
        .unwrap()
        .get("hits")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(warm_hits > 0, "a warm cache must hit at epoch 0");

    let (mut cold, mut warm) = (cold, warm);
    strip_cache_counters(&mut cold);
    strip_cache_counters(&mut warm);
    assert_eq!(
        cold.to_pretty_string(),
        warm.to_pretty_string(),
        "cache warmth leaked into observable results"
    );
}

#[test]
fn undrifted_epochs_hit_the_cache_and_drift_invalidates() {
    let cfg = FleetConfig {
        epochs: 4,
        drift_epoch: Some(2),
        ..small_config()
    };
    let report = run_fleet(&cfg, Arc::new(NullRecorder)).expect("fleet run");
    validate_fleet_report(&report).expect("report validates");

    let epochs = report.get("epoch_reports").unwrap().as_array().unwrap();
    let cache_field = |i: usize, key: &str| -> u64 {
        epochs[i]
            .get("artifact_cache")
            .unwrap()
            .get(key)
            .unwrap()
            .as_u64()
            .unwrap()
    };
    let drift_flag = |i: usize| -> bool { epochs[i].get("drift").unwrap().as_bool().unwrap() };

    // Epoch 0: cold — all misses. Epoch 1: identical traffic — all hits.
    assert!(cache_field(0, "misses") > 0);
    assert_eq!(cache_field(0, "hits"), 0);
    assert!(cache_field(1, "hits") > 0);
    assert_eq!(cache_field(1, "misses"), 0);
    // Epoch 2: the drift event — explicit invalidation, then misses.
    assert!(cache_field(2, "invalidations") > 0);
    assert!(cache_field(2, "misses") > 0);
    assert_eq!(cache_field(2, "hits"), 0);
    // Epoch 3: drifted traffic is itself stable — hits again.
    assert!(cache_field(3, "hits") > 0);
    assert_eq!(
        (0..4).map(drift_flag).collect::<Vec<_>>(),
        [false, false, true, true]
    );
}

#[test]
fn poisoned_shard_degrades_one_instance_not_the_epoch() {
    let cfg = FleetConfig {
        poison_instance: Some(1),
        ..small_config()
    };
    let report = run_fleet(&cfg, Arc::new(NullRecorder)).expect("fleet run");
    validate_fleet_report(&report).expect("report validates");
    let epochs = report.get("epoch_reports").unwrap().as_array().unwrap();
    for (i, epoch) in epochs.iter().enumerate() {
        let health = epoch.get("shard_health").unwrap();
        let failed = health.get("shards_failed").unwrap().as_u64().unwrap();
        let ok = health.get("shards_ok").unwrap().as_u64().unwrap();
        let dropped = health.get("dropped_packets").unwrap().as_u64().unwrap();
        assert!(
            failed <= 1,
            "epoch {i}: poison must cost at most one instance"
        );
        assert!(ok >= 5, "epoch {i}: the rest of the fleet must survive");
        assert!(
            dropped > 0 || failed == 1,
            "epoch {i}: the poisoned shard must be visibly degraded"
        );
    }
}
