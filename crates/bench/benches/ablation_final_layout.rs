//! Ablation (DESIGN.md §4): analyzing against the final (post-injection)
//! layout vs using the stale pre-injection profile. The paper's flow is
//! link-time, i.e. final-layout; this quantifies why that matters.

use ripple::{Ripple, RippleConfig};
use ripple_bench::{bench_budget, load_app, sim_config};
use ripple_sim::PrefetcherKind;
use ripple_workloads::App;

fn main() {
    let budget = bench_budget() / 2;
    println!("\nAblation — final-layout analysis (no-prefetch, % speedup over LRU)");
    println!(
        "  {:<16} {:>14} {:>14}",
        "app", "final-layout", "stale-profile"
    );
    for app in [App::Cassandra, App::Kafka] {
        let loaded = load_app(app, budget);
        let mut speeds = Vec::new();
        for final_layout in [true, false] {
            let config = RippleConfig {
                sim: sim_config(PrefetcherKind::None),
                final_layout_analysis: final_layout,
                ..RippleConfig::default()
            };
            let ripple = Ripple::train(&loaded.app.program, &loaded.layout, &loaded.trace, config)
                .expect("train");
            speeds.push(
                ripple
                    .evaluate(&loaded.trace)
                    .expect("evaluate")
                    .speedup_pct(),
            );
        }
        println!(
            "  {:<16} {:>14.2} {:>14.2}",
            app.name(),
            speeds[0],
            speeds[1]
        );
    }
}
