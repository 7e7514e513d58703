//! §II-C Observations 1 & 2: where Demand-MIN's gain over LRU comes from
//! under FDIP. Observation 1 (paper: 1.35 % of 3.16 %): early eviction of
//! inaccurate prefetches — measured here via prefetch-pollution evictions.
//! Observation 2 (paper: 1.81 %): retaining hard-to-prefetch lines —
//! the remainder of the Demand-MIN gain.

use ripple::{effective_threads, policy_matrix};
use ripple_bench::{bench_budget, load_app, print_paper_check, sim_config};
use ripple_sim::{PolicyKind, PrefetcherKind, SimSession};
use ripple_workloads::App;

fn main() {
    let budget = bench_budget() / 2;
    println!("\n§II-C — Demand-MIN vs OPT vs LRU under FDIP");
    println!(
        "  {:<16} {:>9} {:>9} {:>9} {:>14} {:>14}",
        "app", "lru-miss", "opt-miss", "dm-miss", "dm-speedup%", "opt-speedup%"
    );
    let mut dm_sum = 0.0;
    let mut opt_sum = 0.0;
    for app in App::ALL {
        let loaded = load_app(app, budget);
        let cfg = sim_config(PrefetcherKind::Fdip);
        // One session: OPT and Demand-MIN replay the same recorded stream.
        let session = SimSession::new(&loaded.app.program, &loaded.layout, &loaded.trace, cfg);
        let results = policy_matrix(
            &session,
            &[PolicyKind::LRU, PolicyKind::OPT, PolicyKind::DEMAND_MIN],
            effective_threads(None),
        )
        .expect("policy matrix");
        let (lru, opt, dm) = (&results[0], &results[1], &results[2]);
        let dm_sp = dm.speedup_pct_over(lru);
        let opt_sp = opt.speedup_pct_over(lru);
        dm_sum += dm_sp;
        opt_sum += opt_sp;
        println!(
            "  {:<16} {:>9} {:>9} {:>9} {:>14.2} {:>14.2}",
            app.name(),
            lru.demand_misses,
            opt.demand_misses,
            dm.demand_misses,
            dm_sp,
            opt_sp
        );
        assert!(
            dm.demand_misses <= opt.demand_misses,
            "{app}: demand-min must not lose to opt under prefetching"
        );
    }
    let n = App::ALL.len() as f64;
    // OPT's gain ~ keeping hard-to-prefetch lines (Obs. 2); Demand-MIN's
    // extra gain over OPT ~ early eviction of prefetched lines (Obs. 1).
    println!(
        "  split: obs2(OPT-over-LRU) {:.2}% + obs1(DM-over-OPT) {:.2}% = {:.2}%",
        opt_sum / n,
        dm_sum / n - opt_sum / n,
        dm_sum / n
    );
    print_paper_check("obs total demand-min speedup (fdip)", 3.16, dm_sum / n, "%");
}
