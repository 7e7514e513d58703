//! Ablation (§IV "Invalidation vs. reducing LRU priority"): the demote
//! mechanism vs outright invalidation vs no-op (bloat only). Paper:
//! demote nudges Ripple-LRU from 1.6 % to 1.7 % mean speedup.

use ripple::{Ripple, RippleConfig};
use ripple_bench::{bench_budget, load_app, sim_config};
use ripple_sim::{EvictionMechanism, PrefetcherKind};
use ripple_workloads::App;

fn main() {
    let budget = bench_budget() / 2;
    println!("\nAblation — eviction mechanism (no-prefetch, % speedup over LRU)");
    println!(
        "  {:<16} {:>12} {:>9} {:>11}",
        "app", "invalidate", "demote", "noop-bloat"
    );
    for app in [App::Cassandra, App::Kafka, App::Verilator] {
        let loaded = load_app(app, budget);
        let mut speeds = Vec::new();
        for mech in [
            EvictionMechanism::Invalidate,
            EvictionMechanism::Demote,
            EvictionMechanism::NoOp,
        ] {
            let mut sim = sim_config(PrefetcherKind::None);
            sim.eviction_mechanism = mech;
            let config = RippleConfig {
                sim,
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
            "  {:<16} {:>12.2} {:>9.2} {:>11.2}",
            app.name(),
            speeds[0],
            speeds[1],
            speeds[2]
        );
        assert!(
            speeds[0] > speeds[2] && speeds[1] > speeds[2],
            "{app}: a real mechanism must beat bloat-only"
        );
    }
}
