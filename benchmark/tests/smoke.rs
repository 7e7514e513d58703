//! Runs every workload for two timed ops, untraced and traced, through the
//! library entry point.

use ripple_benchmark::metrics::{END_TO_END, PER_LAYER};
use ripple_benchmark::runner::{run, Settings, Stop};
use ripple_benchmark::workloads::Workload;

fn smoke(workload: Workload, trace: bool) {
    let settings = Settings {
        seed: 1,
        stop: Stop::Ops(2),
        trace,
    };
    let run = run(workload, &settings).unwrap();
    let r = &run.result;
    assert!(r.correct, "{}: {:?}", r.workload, r.failures);
    assert_eq!(r.failed, 0);
    assert_eq!(r.timed_ops, 2);
    // Warm-up (one per app) and, on two-thread workloads, one
    // single-thread agreement op per app come on top of the timed ops.
    let per_app = if workload.threads() > 1 { 2 } else { 1 };
    assert_eq!(r.attempted, 2 + per_app * r.apps.len() as u64);
    let expected: Vec<&str> = if trace {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    };
    let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, expected);
    for m in &r.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            r.workload,
            m.name,
            m.value
        );
    }
    if trace {
        assert!(!run.spans.is_empty());
        let coverage = r.metric("obs.op_coverage_pct").unwrap();
        assert!(coverage >= 90.0, "{}: op coverage {coverage}%", r.workload);
    } else {
        for m in &r.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", r.workload, m.name, m.value);
        }
    }
}

#[test]
fn optimize_runs() {
    smoke(Workload::Optimize, false);
    smoke(Workload::Optimize, true);
}

#[test]
fn compare_runs() {
    smoke(Workload::Compare, false);
    smoke(Workload::Compare, true);
}

#[test]
fn lab_grid_runs() {
    smoke(Workload::LabGrid, false);
    smoke(Workload::LabGrid, true);
}

#[test]
fn fleet_runs() {
    smoke(Workload::Fleet, false);
    smoke(Workload::Fleet, true);
}
