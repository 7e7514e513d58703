//! The paper's evaluation grid, every figure from one lab run: nine
//! applications under three prefetchers (none / NLP / FDIP), each with
//! LRU, the prior policies, the ideal bounds and Ripple-LRU /
//! Ripple-Random.
//!
//! Thin wrapper over the declarative `fig07-speedup` experiment
//! (`experiments/fig07-speedup.json`). The declaration sweeps both
//! underlyings over the paper's winning threshold range; the threshold is
//! tuned on the LRU substrate and that same tuned value is read off for
//! Ripple-Random (the plan, not the substrate, owns the threshold).
//!
//! Sections, with the paper's figures:
//! * Fig. 1 — ideal I-cache speedup over LRU without prefetching:
//!   11–47 % per app, mean 17.7 %.
//! * Fig. 2 — FDIP speedup over the no-prefetch LRU baseline: FDIP+LRU
//!   13.4 %, FDIP+ideal (Demand-MIN) 16.6 %, ideal cache 17.7 %.
//! * Fig. 7 — speedup over LRU: Ripple-LRU +1.25 % (none), +2.13 % (NLP),
//!   +1.4 % (FDIP); ideal +3.36/+3.87/+3.16 %.
//! * Fig. 8 — L1I miss reduction over LRU: Ripple-LRU 9.57/28.6/18.61 %;
//!   ideal 28.88/53.66/45 %.
//! * Fig. 9 — replacement coverage (FDIP): mean above 50 %; below 50 %
//!   only for the JIT-heavy HHVM trio (drupal/mediawiki/wordpress);
//!   verilator near-total (98.7 %).
//! * Fig. 10 — replacement accuracy (no prefetch): mean 92 % (min 88 %),
//!   vs LRU's own 77.8 %.
//! * Fig. 11 — static instruction overhead (FDIP): below 4.4 % for every
//!   application, mean 3.4 %.
//! * Fig. 12 — dynamic instruction overhead (FDIP): mean 2.2 %, below
//!   2 % everywhere except verilator (~10 %).
//! * §II-D — compulsory MPKI (no prefetch): 0.1–0.3, mean 0.16, which is
//!   why scan-oriented policies (SRRIP/DRRIP) have nothing to exploit on
//!   the I-cache.
//!
//! Every section prints before any shape check is judged; the run then
//! fails once, listing each violated check.

use ripple_bench::{bench_budget, bench_profile, print_paper_check, print_series};
use ripple_lab::{builtin, run_experiment, LabOptions, LabRun, PointOutcome, RipplePointRow};
use ripple_sim::{PolicyKind, PrefetcherKind};
use ripple_workloads::App;

const PREFETCHERS: [PrefetcherKind; 3] = [
    PrefetcherKind::None,
    PrefetcherKind::NextLine,
    PrefetcherKind::Fdip,
];

/// The Ripple-LRU row at its tuned threshold.
fn ripple_lru(c: &PointOutcome) -> &RipplePointRow {
    c.ripple
        .iter()
        .find(|r| r.underlying == "lru" && r.best)
        .expect("lru best row")
}

/// The Ripple-Random row at Ripple-LRU's tuned threshold.
fn ripple_random(c: &PointOutcome) -> &RipplePointRow {
    let threshold = ripple_lru(c).threshold;
    c.ripple
        .iter()
        .find(|r| r.underlying == "random" && r.threshold == threshold)
        .expect("random row at the tuned threshold")
}

/// The grid's points on the bench profile, one per (app, prefetcher).
struct Grid<'a> {
    run: &'a LabRun,
    profile: &'a str,
    apps: &'a [App],
}

impl Grid<'_> {
    fn cell(&self, app: App, pf: PrefetcherKind) -> &PointOutcome {
        self.run
            .outcome(self.profile, app.name(), pf)
            .expect("grid covers every app")
    }

    /// `f` per app under `pf`, in app order.
    fn series(&self, pf: PrefetcherKind, f: impl Fn(&PointOutcome) -> f64) -> Vec<(String, f64)> {
        self.apps
            .iter()
            .map(|&a| (a.name().to_string(), f(self.cell(a, pf))))
            .collect()
    }

    /// Mean of `f` over the apps under `pf`.
    fn mean(&self, pf: PrefetcherKind, f: impl Fn(&PointOutcome) -> f64) -> f64 {
        let rows = self.series(pf, f);
        rows.iter().map(|r| r.1).sum::<f64>() / rows.len() as f64
    }
}

/// Records `message` as a violated shape check unless `holds`.
fn check(violated: &mut Vec<String>, holds: bool, message: impl Into<String>) {
    if !holds {
        violated.push(message.into());
    }
}

fn fig01(g: &Grid, violated: &mut Vec<String>) {
    let rows = g.series(PrefetcherKind::None, |c| c.ideal_cache.speedup_pct);
    print_series(
        "Fig. 1 — Ideal I-cache speedup over LRU (no prefetching)",
        "%",
        &rows,
    );
    let mean = g.mean(PrefetcherKind::None, |c| c.ideal_cache.speedup_pct);
    print_paper_check("fig1 mean ideal-cache speedup", 17.7, mean, "%");
    check(
        violated,
        rows.iter().all(|r| r.1 > 0.0),
        "ideal cache must always win",
    );
}

fn fig02(g: &Grid, violated: &mut Vec<String>) {
    // Speedups are relative to the same-prefetcher LRU baseline; chain
    // them onto the no-prefetch baseline via cycles ratios using the
    // ideal-cache row shared by both configurations (the ideal cache
    // executes identical work under any prefetcher).
    let mut fdip_lru = Vec::new();
    let mut fdip_ideal = Vec::new();
    for &a in g.apps {
        let none = g.cell(a, PrefetcherKind::None);
        let fdip = g.cell(a, PrefetcherKind::Fdip);
        // ideal_cache.speedup_pct = (lru_cycles / ic_cycles - 1) * 100 per
        // config; the ic cycles are identical, so:
        let none_lru_over_ic = 1.0 + none.ideal_cache.speedup_pct / 100.0;
        let fdip_lru_over_ic = 1.0 + fdip.ideal_cache.speedup_pct / 100.0;
        let fdip_vs_none = (none_lru_over_ic / fdip_lru_over_ic - 1.0) * 100.0;
        fdip_lru.push((a.name().to_string(), fdip_vs_none));
        let ideal_gain = 1.0 + fdip.ideal.speedup_pct / 100.0;
        fdip_ideal.push((
            a.name().to_string(),
            ((1.0 + fdip_vs_none / 100.0) * ideal_gain - 1.0) * 100.0,
        ));
    }
    print_series(
        "Fig. 2 — FDIP+LRU speedup over no-prefetch LRU",
        "%",
        &fdip_lru,
    );
    print_series(
        "Fig. 2 — FDIP+ideal-replacement speedup over no-prefetch LRU",
        "%",
        &fdip_ideal,
    );
    let m_lru = fdip_lru.iter().map(|r| r.1).sum::<f64>() / fdip_lru.len() as f64;
    let m_ideal = fdip_ideal.iter().map(|r| r.1).sum::<f64>() / fdip_ideal.len() as f64;
    print_paper_check("fig2 mean fdip+lru speedup", 13.4, m_lru, "%");
    print_paper_check("fig2 mean fdip+ideal speedup", 16.6, m_ideal, "%");
    check(
        violated,
        m_ideal > m_lru,
        "ideal replacement must improve FDIP",
    );
}

fn fig07(g: &Grid, policies: &[PolicyKind], violated: &mut Vec<String>) {
    for (pf, paper_ripple, paper_ideal) in [
        (PrefetcherKind::None, 1.25, 3.36),
        (PrefetcherKind::NextLine, 2.13, 3.87),
        (PrefetcherKind::Fdip, 1.4, 3.16),
    ] {
        println!("\nFig. 7 — Speedup over LRU with {} (percent)", pf.name());
        println!(
            "  {:<16} {:>10} {:>13} {:>8} {:>8}",
            "app", "ripple-lru", "ripple-random", "best-prior", "ideal"
        );
        for &a in g.apps {
            let c = g.cell(a, pf);
            let best_prior = c
                .policies
                .iter()
                .map(|(_, p)| p.speedup_pct)
                .fold(f64::NEG_INFINITY, f64::max);
            println!(
                "  {:<16} {:>10.2} {:>13.2} {:>8.2} {:>8.2}",
                a.name(),
                ripple_lru(c).row.speedup_pct,
                ripple_random(c).row.speedup_pct,
                best_prior,
                c.ideal.speedup_pct
            );
        }
        let mean_rl = g.mean(pf, |c| ripple_lru(c).row.speedup_pct);
        let mean_rr = g.mean(pf, |c| ripple_random(c).row.speedup_pct);
        let mean_ideal = g.mean(pf, |c| c.ideal.speedup_pct);
        println!(
            "  {:<16} {:>10.2} {:>13.2} {:>8} {:>8.2}",
            "MEAN", mean_rl, mean_rr, "", mean_ideal
        );
        print_paper_check(
            &format!("fig7 mean ripple-lru speedup ({})", pf.name()),
            paper_ripple,
            mean_rl,
            "%",
        );
        print_paper_check(
            &format!("fig7 mean ideal speedup ({})", pf.name()),
            paper_ideal,
            mean_ideal,
            "%",
        );
        check(
            violated,
            mean_rl <= mean_ideal,
            "ripple cannot beat the ideal policy",
        );
    }
    // Headline shape: Ripple-LRU beats every prior policy's mean (within
    // measurement noise under the strongest prefetchers, where absolute
    // differences shrink to hundredths of a percent).
    for pf in PREFETCHERS {
        let mean_rl = g.mean(pf, |c| ripple_lru(c).row.speedup_pct);
        for &p in policies {
            // Two explicit exclusions from the "Ripple beats every prior"
            // bar: plain Random legitimately beats LRU on thrash-heavy
            // apps (classic cyclic-pattern behaviour), and TRRIP consumes
            // the same offline profile Ripple does, making it a peer
            // technique rather than a hardware-only prior.
            if p == PolicyKind::RANDOM || p == PolicyKind::TRRIP {
                continue;
            }
            let name = p.name();
            let mean_p = g.mean(pf, |c| {
                c.policies
                    .iter()
                    .find(|(n, _)| n == name)
                    .expect("declared policy measured in every point")
                    .1
                    .speedup_pct
            });
            check(
                violated,
                mean_rl >= mean_p - 0.25,
                format!(
                    "{}: ripple-lru ({mean_rl:.2}) must beat {name} ({mean_p:.2})",
                    pf.name()
                ),
            );
        }
    }
}

fn fig08(g: &Grid, violated: &mut Vec<String>) {
    for (pf, paper_ripple, paper_ideal) in [
        (PrefetcherKind::None, 9.57, 28.88),
        (PrefetcherKind::NextLine, 28.6, 53.66),
        (PrefetcherKind::Fdip, 18.61, 45.0),
    ] {
        println!(
            "\nFig. 8 — L1I miss reduction over LRU with {} (percent)",
            pf.name()
        );
        println!(
            "  {:<16} {:>10} {:>13} {:>8}",
            "app", "ripple-lru", "ripple-random", "ideal"
        );
        for &a in g.apps {
            let c = g.cell(a, pf);
            println!(
                "  {:<16} {:>10.2} {:>13.2} {:>8.2}",
                a.name(),
                ripple_lru(c).row.miss_reduction_pct,
                ripple_random(c).row.miss_reduction_pct,
                c.ideal.miss_reduction_pct
            );
        }
        let mean_rl = g.mean(pf, |c| ripple_lru(c).row.miss_reduction_pct);
        let mean_ideal = g.mean(pf, |c| c.ideal.miss_reduction_pct);
        println!(
            "  {:<16} {:>10.2} {:>13} {:>8.2}",
            "MEAN", mean_rl, "", mean_ideal
        );
        print_paper_check(
            &format!("fig8 mean ripple-lru miss reduction ({})", pf.name()),
            paper_ripple,
            mean_rl,
            "%",
        );
        print_paper_check(
            &format!("fig8 mean ideal miss reduction ({})", pf.name()),
            paper_ideal,
            mean_ideal,
            "%",
        );
        check(violated, mean_ideal > 0.0, "ideal must reduce misses");
        check(
            violated,
            mean_rl <= mean_ideal + 1e-9,
            "ripple cannot reduce more than ideal",
        );
    }
}

fn fig09(g: &Grid, violated: &mut Vec<String>) {
    let rows = g.series(PrefetcherKind::Fdip, |c| ripple_lru(c).coverage * 100.0);
    print_series("Fig. 9 — Ripple replacement coverage (FDIP)", "%", &rows);
    // JIT apps must trail the non-JIT mean; verilator must lead.
    let coverage_mean = |jit: bool| {
        let coverage: Vec<f64> = g
            .apps
            .iter()
            .filter(|a| a.has_jit() == jit)
            .map(|&a| ripple_lru(g.cell(a, PrefetcherKind::Fdip)).coverage)
            .collect();
        coverage.iter().sum::<f64>() / coverage.len() as f64
    };
    let (jit_mean, nonjit_mean) = (coverage_mean(true), coverage_mean(false));
    println!(
        "  jit-apps mean {:.1}% vs non-jit mean {:.1}%",
        jit_mean * 100.0,
        nonjit_mean * 100.0
    );
    check(
        violated,
        jit_mean < nonjit_mean,
        format!("JIT code must cap coverage ({jit_mean:.2} !< {nonjit_mean:.2})"),
    );
}

fn fig10(g: &Grid, violated: &mut Vec<String>) {
    let rows = g.series(PrefetcherKind::None, |c| ripple_lru(c).accuracy * 100.0);
    print_series("Fig. 10 — Ripple replacement accuracy", "%", &rows);
    let mean = g.mean(PrefetcherKind::None, |c| ripple_lru(c).accuracy) * 100.0;
    let lru_mean = g.mean(PrefetcherKind::None, |c| ripple_lru(c).underlying_accuracy) * 100.0;
    println!("  LRU's own eviction accuracy: {lru_mean:.1}%");
    print_paper_check("fig10 mean ripple accuracy", 92.0, mean, "%");
    print_paper_check("fig10 mean lru accuracy", 77.8, lru_mean, "%");
    check(
        violated,
        mean > lru_mean,
        format!("ripple must evict more accurately than LRU ({mean:.1} !> {lru_mean:.1})"),
    );
}

fn fig11(g: &Grid, violated: &mut Vec<String>) {
    let rows = g.series(PrefetcherKind::Fdip, |c| ripple_lru(c).static_overhead_pct);
    print_series("Fig. 11 — Static instruction overhead", "%", &rows);
    let mean = g.mean(PrefetcherKind::Fdip, |c| ripple_lru(c).static_overhead_pct);
    print_paper_check("fig11 mean static overhead", 3.4, mean, "%");
    check(
        violated,
        rows.iter().all(|r| r.1 < 4.4),
        "static overhead must stay below the paper's 4.4% bound",
    );
}

fn fig12(g: &Grid, violated: &mut Vec<String>) {
    let rows = g.series(PrefetcherKind::Fdip, |c| ripple_lru(c).dynamic_overhead_pct);
    print_series("Fig. 12 — Dynamic instruction overhead", "%", &rows);
    let mean = g.mean(PrefetcherKind::Fdip, |c| ripple_lru(c).dynamic_overhead_pct);
    print_paper_check("fig12 mean dynamic overhead", 2.2, mean, "%");
    check(
        violated,
        mean < 15.0,
        format!("dynamic overhead out of control: {mean:.1}%"),
    );
}

fn sec2d(g: &Grid, violated: &mut Vec<String>) {
    let rows = g.series(PrefetcherKind::None, |c| c.compulsory_mpki);
    print_series("§II-D — Compulsory MPKI (steady state)", "MPKI", &rows);
    let mean = g.mean(PrefetcherKind::None, |c| c.compulsory_mpki);
    print_paper_check("sec2d mean compulsory mpki", 0.16, mean, "");
    let total_mean = g.mean(PrefetcherKind::None, |c| c.lru.mpki);
    // Our traces are ~1 M instructions vs the paper's 100 M, so first
    // touches weigh ~10x more here even after cache warmup; the qualitative
    // point (compulsory misses are a minority, i.e. scanning patterns are
    // rare) still holds.
    check(
        violated,
        mean < 0.5 * total_mean,
        format!(
            "compulsory misses must be a minority of total MPKI ({mean:.2} vs {total_mean:.2})"
        ),
    );
}

fn main() {
    let mut decl = builtin("fig07-speedup").expect("embedded declaration");
    decl.profiles = vec![bench_profile().name.to_string()];
    let resolved = decl.resolve().expect("declaration resolves");
    let options = LabOptions {
        instructions: Some(bench_budget()),
        ..LabOptions::default()
    };
    let run = run_experiment(&resolved, &options).expect("lab run");
    let grid = Grid {
        run: &run,
        profile: bench_profile().name,
        apps: &resolved.apps,
    };

    let mut violated = Vec::new();
    fig01(&grid, &mut violated);
    fig02(&grid, &mut violated);
    fig07(&grid, &resolved.policies, &mut violated);
    fig08(&grid, &mut violated);
    fig09(&grid, &mut violated);
    fig10(&grid, &mut violated);
    fig11(&grid, &mut violated);
    fig12(&grid, &mut violated);
    sec2d(&grid, &mut violated);
    assert!(
        violated.is_empty(),
        "{} shape check(s) violated:\n  {}",
        violated.len(),
        violated.join("\n  ")
    );
}
