//! Ablation (DESIGN.md §4): cue-selection strategy. LatestEligible times
//! the invalidation near the eviction; HighestProbability is the paper's
//! Fig. 5b argmax.

use ripple::{CueSelection, Ripple, RippleConfig};
use ripple_bench::{bench_budget, load_app, sim_config};
use ripple_sim::PrefetcherKind;
use ripple_workloads::App;

fn main() {
    let budget = bench_budget() / 2;
    println!("\nAblation — cue selection (no-prefetch)");
    println!(
        "  {:<16} {:>22} {:>22}",
        "app", "highest-probability", "latest-eligible"
    );
    for app in [App::Cassandra, App::FinagleHttp] {
        let loaded = load_app(app, budget);
        let mut out = Vec::new();
        for sel in [
            CueSelection::HighestProbability,
            CueSelection::LatestEligible,
        ] {
            let mut config = RippleConfig {
                sim: sim_config(PrefetcherKind::None),
                ..RippleConfig::default()
            };
            config.analysis.cue_selection = sel;
            let ripple = Ripple::train(&loaded.app.program, &loaded.layout, &loaded.trace, config)
                .expect("train");
            let o = ripple.evaluate(&loaded.trace).expect("evaluate");
            out.push(format!(
                "{:+.2}% ({:.0}% cov)",
                o.speedup_pct(),
                o.coverage.coverage() * 100.0
            ));
        }
        println!("  {:<16} {:>22} {:>22}", app.name(), out[0], out[1]);
    }
}
