//! Shared helpers for the benches that regenerate the Ripple paper's
//! tables and figures: the bench budget and target profile, application
//! loading for the hand-rolled benches, and the output format of figure
//! series and paper-vs-measured check lines.
//!
//! The evaluation-grid figures (Figs. 1, 2, 7–12 and §II-D) come from one
//! lab run in the `paper_grid` bench; the other figure benches wrap their
//! own lab declaration or run a small loop of their own.

use ripple::collect_profile;
use ripple_lab::TargetProfile;
use ripple_program::{Layout, LayoutConfig};
use ripple_sim::{PrefetcherKind, SimConfig};
use ripple_trace::BbTrace;
use ripple_workloads::{generate, App, Application, InputConfig};

/// Instruction budget per application trace (`RIPPLE_BENCH_INSTRS`).
pub fn bench_budget() -> u64 {
    std::env::var("RIPPLE_BENCH_INSTRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// The target profile benches measure on (`RIPPLE_BENCH_PROFILE`, a
/// `ripple-lab` profile name; default `paper`, the paper's Table II).
pub fn bench_profile() -> &'static TargetProfile {
    let name = std::env::var("RIPPLE_BENCH_PROFILE").unwrap_or_else(|_| "paper".to_string());
    TargetProfile::find(&name).unwrap_or_else(|| {
        panic!(
            "RIPPLE_BENCH_PROFILE={name:?} names no target profile (valid: {})",
            ripple_lab::TARGET_PROFILES
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(" ")
        )
    })
}

/// A loaded application with its profiled trace.
pub struct LoadedApp {
    /// The generated application.
    pub app: Application,
    /// Its (pre-injection) layout.
    pub layout: Layout,
    /// The training/evaluation trace (input #0).
    pub trace: BbTrace,
}

/// Generates `app` and collects its input-#0 profile at the bench budget.
pub fn load_app(app: App, budget: u64) -> LoadedApp {
    let generated = generate(&app.spec());
    let layout = Layout::new(&generated.program, &LayoutConfig::default());
    let profile = collect_profile(
        &generated,
        &layout,
        InputConfig::training(app.spec().seed),
        budget,
    )
    .expect("profile collection is lossless");
    LoadedApp {
        app: generated,
        layout,
        trace: profile.trace,
    }
}

/// The bench profile's [`SimConfig`] under `prefetcher`.
pub fn sim_config(prefetcher: PrefetcherKind) -> SimConfig {
    bench_profile().sim_config().with_prefetcher(prefetcher)
}

/// Prints a per-app figure series: one value per app plus the mean.
pub fn print_series(title: &str, unit: &str, rows: &[(String, f64)]) {
    println!("\n{title}");
    for (name, v) in rows {
        println!("  {name:<16} {v:>8.2} {unit}");
    }
    let mean = rows.iter().map(|r| r.1).sum::<f64>() / rows.len().max(1) as f64;
    println!("  {:<16} {mean:>8.2} {unit}", "MEAN");
}

/// `paper=` vs `measured=` comparison line (grepped into EXPERIMENTS.md).
pub fn print_paper_check(label: &str, paper: f64, measured: f64, unit: &str) {
    println!("check: {label}: paper={paper}{unit} measured={measured:.2}{unit}");
}
