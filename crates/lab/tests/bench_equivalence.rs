//! Pins the lab path to a direct run of the public pipeline: a declarative
//! experiment over (app, prefetcher, policies, Ripple underlyings) must
//! produce the same figures as measuring that point by hand with
//! `collect_profile`, one `SimSession` + `policy_matrix`,
//! `simulate_ideal_cache` and `Ripple::train` + `evaluate`. The reference
//! takes its trace straight from `collect_profile`, not through the lab's
//! execute → record → reconstruct path. Exact equality is expected — both
//! paths drive the same deterministic simulator over the same trace.

use std::collections::BTreeMap;
use std::sync::Arc;

use ripple::{
    collect_profile, effective_threads, policy_matrix, profile_temperatures, sweep, Ripple,
    RippleConfig,
};
use ripple_lab::{run_experiment, Experiment, LabOptions, TargetProfile};
use ripple_program::{Layout, LayoutConfig};
use ripple_sim::{
    simulate_ideal_cache, PolicyKind, PolicyRegistry, PrefetcherKind, SimConfig, SimSession,
    SimStats,
};
use ripple_trace::BbTrace;
use ripple_workloads::{generate, App, Application, InputConfig};

const BUDGET: u64 = 60_000;
const THRESHOLD: f64 = 0.55;
/// The paper's winning threshold range (§III-C), the tuning candidates.
const TUNE_THRESHOLDS: [f64; 3] = [0.45, 0.55, 0.65];

/// An application with its input-#0 profile at [`BUDGET`].
struct Loaded {
    app: Application,
    layout: Layout,
    trace: BbTrace,
}

fn load(app: App) -> Loaded {
    let generated = generate(&app.spec());
    let layout = Layout::new(&generated.program, &LayoutConfig::default());
    let profile = collect_profile(
        &generated,
        &layout,
        InputConfig::training(app.spec().seed),
        BUDGET,
    )
    .expect("profile collection is lossless");
    Loaded {
        app: generated,
        layout,
        trace: profile.trace,
    }
}

fn sim_config(prefetcher: PrefetcherKind) -> SimConfig {
    TargetProfile::find("paper")
        .expect("paper profile exists")
        .sim_config()
        .with_prefetcher(prefetcher)
}

/// One policy's headline numbers relative to the reference LRU run.
struct Row {
    speedup_pct: f64,
    mpki: f64,
    miss_reduction_pct: f64,
    demand_misses: u64,
}

impl Row {
    fn new(stats: &SimStats, lru: &SimStats) -> Self {
        Row {
            speedup_pct: stats.speedup_pct_over(lru),
            mpki: stats.mpki(),
            miss_reduction_pct: stats.miss_reduction_pct_over(lru),
            demand_misses: stats.demand_misses,
        }
    }
}

/// One Ripple pipeline measured at a fixed threshold.
struct RippleRow {
    threshold: f64,
    row: Row,
    coverage: f64,
    accuracy: f64,
    underlying_accuracy: f64,
    static_overhead_pct: f64,
    dynamic_overhead_pct: f64,
}

/// Everything the lab measures for one grid point, measured directly.
struct Reference {
    lru: Row,
    compulsory_mpki: f64,
    policies: BTreeMap<String, Row>,
    ideal: Row,
    ideal_cache: Row,
    ripple_lru: RippleRow,
    ripple_random: RippleRow,
}

fn measure_ripple(
    loaded: &Loaded,
    prefetcher: PrefetcherKind,
    underlying: PolicyKind,
    threshold: f64,
    lru: &SimStats,
) -> RippleRow {
    let config = RippleConfig {
        sim: sim_config(prefetcher),
        underlying,
        threshold,
        ..RippleConfig::default()
    };
    let ripple = Ripple::train(&loaded.app.program, &loaded.layout, &loaded.trace, config)
        .expect("valid config");
    let o = ripple.evaluate(&loaded.trace).expect("evaluation");
    RippleRow {
        threshold,
        row: Row::new(&o.ripple, lru),
        coverage: o.coverage.coverage(),
        accuracy: o.ripple_accuracy.accuracy(),
        underlying_accuracy: o.underlying_accuracy.accuracy(),
        static_overhead_pct: o.static_overhead_pct,
        dynamic_overhead_pct: o.dynamic_overhead_pct,
    }
}

/// Measures one (app, prefetcher) point: LRU, every registered online
/// prior, the ideal policy and the ideal cache from one session carrying
/// the profiled line temperatures, then Ripple over LRU and Random.
fn measure_point(loaded: &Loaded, prefetcher: PrefetcherKind, threshold: f64) -> Reference {
    let program = &loaded.app.program;
    let mut cfg = sim_config(prefetcher);
    cfg.temperatures = Some(Arc::new(profile_temperatures(
        &loaded.layout,
        &loaded.trace,
    )));
    let ideal_kind = if prefetcher == PrefetcherKind::None {
        PolicyKind::OPT
    } else {
        PolicyKind::DEMAND_MIN
    };
    let priors: Vec<PolicyKind> = PolicyRegistry::global()
        .online()
        .filter(|&p| p != PolicyKind::LRU)
        .collect();
    let mut matrix = vec![PolicyKind::LRU];
    matrix.extend(&priors);
    matrix.push(ideal_kind);
    let session = SimSession::new(program, &loaded.layout, &loaded.trace, cfg.clone());
    let results = policy_matrix(&session, &matrix, effective_threads(None)).expect("policy matrix");
    let lru = &results[0];
    let policies = priors
        .iter()
        .zip(&results[1..])
        .map(|(kind, r)| (kind.name().to_string(), Row::new(r, lru)))
        .collect();
    let ideal_cache = simulate_ideal_cache(program, &loaded.trace, &cfg);
    Reference {
        lru: Row::new(lru, lru),
        compulsory_mpki: lru.compulsory_mpki(),
        policies,
        ideal: Row::new(results.last().expect("matrix is non-empty"), lru),
        ideal_cache: Row::new(&ideal_cache, lru),
        ripple_lru: measure_ripple(loaded, prefetcher, PolicyKind::LRU, threshold, lru),
        ripple_random: measure_ripple(loaded, prefetcher, PolicyKind::RANDOM, threshold, lru),
    }
}

/// The first-best threshold of a Ripple-LRU sweep over
/// [`TUNE_THRESHOLDS`], as a sequential tuning scan would pick.
fn tune_threshold(loaded: &Loaded, prefetcher: PrefetcherKind) -> f64 {
    let config = RippleConfig {
        sim: sim_config(prefetcher),
        ..RippleConfig::default()
    };
    let ripple = Ripple::train(&loaded.app.program, &loaded.layout, &loaded.trace, config)
        .expect("valid config");
    let points = sweep(&ripple, &loaded.trace, &TUNE_THRESHOLDS).expect("threshold sweep");
    let mut best = (f64::NEG_INFINITY, TUNE_THRESHOLDS[0]);
    for p in &points {
        if p.speedup_pct > best.0 {
            best = (p.speedup_pct, p.threshold);
        }
    }
    best.1
}

fn close(label: &str, lab: f64, reference: f64) {
    assert!(
        (lab - reference).abs() < 1e-9,
        "{label}: lab {lab} != direct pipeline {reference}"
    );
}

#[test]
fn lab_grid_point_matches_direct_pipeline() {
    // Reference: (tomcat, nlp) measured by hand at a fixed threshold
    // (tuning is a separate concern, pinned by its own rule).
    let loaded = load(App::Tomcat);
    let cell = measure_point(&loaded, PrefetcherKind::NextLine, THRESHOLD);

    // Lab path: the same measurement as a declaration.
    let decl = Experiment {
        name: "equivalence".into(),
        description: String::new(),
        instructions: BUDGET,
        profiles: vec!["paper".into()],
        apps: vec!["tomcat".into()],
        prefetchers: vec!["nlp".into()],
        policies: vec![ripple_lab::TOKEN_PRIORS.into()],
        ripple_underlying: vec!["lru".into(), "random".into()],
        thresholds: vec![THRESHOLD],
        fault_modes: vec!["none".into()],
    };
    let resolved = decl.resolve().unwrap();
    let run = run_experiment(&resolved, &LabOptions::default()).unwrap();
    let outcome = run
        .outcome("paper", "tomcat", PrefetcherKind::NextLine)
        .unwrap();

    // Policy matrix rows: every prior the registry knows, plus bounds.
    assert_eq!(outcome.lru.demand_misses, cell.lru.demand_misses);
    close("lru mpki", outcome.lru.mpki, cell.lru.mpki);
    close("compulsory", outcome.compulsory_mpki, cell.compulsory_mpki);
    assert_eq!(outcome.policies.len(), cell.policies.len());
    for (name, row) in &outcome.policies {
        let reference = &cell.policies[name];
        assert_eq!(
            row.demand_misses, reference.demand_misses,
            "{name} demand misses"
        );
        close(
            &format!("{name} speedup"),
            row.speedup_pct,
            reference.speedup_pct,
        );
        close(&format!("{name} mpki"), row.mpki, reference.mpki);
        close(
            &format!("{name} miss reduction"),
            row.miss_reduction_pct,
            reference.miss_reduction_pct,
        );
    }
    assert_eq!(outcome.ideal.demand_misses, cell.ideal.demand_misses);
    close(
        "ideal speedup",
        outcome.ideal.speedup_pct,
        cell.ideal.speedup_pct,
    );
    close(
        "ideal-cache speedup",
        outcome.ideal_cache.speedup_pct,
        cell.ideal_cache.speedup_pct,
    );

    // Ripple pipelines: one row per underlying at the fixed threshold.
    assert_eq!(outcome.ripple.len(), 2);
    for (row, reference) in outcome
        .ripple
        .iter()
        .zip([&cell.ripple_lru, &cell.ripple_random])
    {
        assert!(row.best, "single-threshold rows are trivially best");
        close(
            &format!("ripple-{} threshold", row.underlying),
            row.threshold,
            reference.threshold,
        );
        close(
            &format!("ripple-{} speedup", row.underlying),
            row.row.speedup_pct,
            reference.row.speedup_pct,
        );
        close(
            &format!("ripple-{} mpki", row.underlying),
            row.row.mpki,
            reference.row.mpki,
        );
        close(
            &format!("ripple-{} coverage", row.underlying),
            row.coverage,
            reference.coverage,
        );
        close(
            &format!("ripple-{} accuracy", row.underlying),
            row.accuracy,
            reference.accuracy,
        );
        close(
            &format!("ripple-{} underlying accuracy", row.underlying),
            row.underlying_accuracy,
            reference.underlying_accuracy,
        );
        close(
            &format!("ripple-{} static overhead", row.underlying),
            row.static_overhead_pct,
            reference.static_overhead_pct,
        );
        close(
            &format!("ripple-{} dynamic overhead", row.underlying),
            row.dynamic_overhead_pct,
            reference.dynamic_overhead_pct,
        );
    }
}

#[test]
fn lab_threshold_tuning_matches_first_best_scan() {
    // The reference tunes by sweeping TUNE_THRESHOLDS and keeping the
    // first-best speedup; the lab marks the same winner as `best`.
    let loaded = load(App::Kafka);
    let tuned = tune_threshold(&loaded, PrefetcherKind::None);

    let decl = Experiment {
        name: "tuning".into(),
        description: String::new(),
        instructions: BUDGET,
        profiles: vec!["paper".into()],
        apps: vec!["kafka".into()],
        prefetchers: vec!["none".into()],
        policies: vec![],
        ripple_underlying: vec!["lru".into()],
        thresholds: TUNE_THRESHOLDS.to_vec(),
        fault_modes: vec!["none".into()],
    };
    let run = run_experiment(&decl.resolve().unwrap(), &LabOptions::default()).unwrap();
    let best = run.outcomes[0]
        .ripple
        .iter()
        .find(|r| r.best)
        .expect("one best per underlying");
    assert_eq!(best.threshold, tuned, "tuning rule must match the scan");
}
