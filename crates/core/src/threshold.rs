//! Invalidation-threshold exploration (§III-C, Fig. 6) and per-app
//! threshold tuning.

use ripple_obs::time_phase;
use ripple_trace::BbTrace;

use crate::error::Error;
use crate::harness::{effective_threads, run_jobs, Job};
use crate::pipeline::{check_threshold, distinct_plans, members_of, Ripple};

/// One point of the coverage/accuracy trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    /// The invalidation threshold this point was measured at.
    pub threshold: f64,
    /// Replacement coverage at this threshold (0..=1).
    pub coverage: f64,
    /// Replacement accuracy at this threshold (0..=1).
    pub accuracy: f64,
    /// Ripple speedup over the LRU baseline, percent.
    pub speedup_pct: f64,
}

/// Sweeps the invalidation threshold over `thresholds`, evaluating each
/// against `eval_trace` (Fig. 6's curve).
///
/// The original binary's runs do not depend on the threshold, so the sweep
/// measures them once as an [`EvalBaseline`](crate::EvalBaseline) and
/// every threshold shares it. Thresholds that agree on a training plan
/// share its relinks and runs too: the sweep runs one parallel harness
/// job per distinct training plan, each a
/// [`Ripple::evaluate_thresholds`] over that plan's thresholds (the
/// worker count follows the trained config's `threads`), and a plan that
/// is empty costs no relink and no simulation. The returned points are in
/// `thresholds` order, bit-identical at any worker count and to
/// per-threshold [`Ripple::evaluate_with_threshold`] calls. The two halves
/// are timed as the disjoint phases `sweep.baseline` and `sweep.evaluate`
/// (parallel jobs' `eval.*` phases overlap inside the latter).
///
/// # Errors
///
/// An invalid threshold ([`Error::Config`]) aborts the sweep before any
/// simulation, and a failed baseline run before any threshold runs.
/// After that, the first point whose job fails (an isolated job panic,
/// [`Error::Job`]) aborts the sweep's result (the remaining jobs still run
/// to completion).
pub fn sweep(
    ripple: &Ripple<'_>,
    eval_trace: &BbTrace,
    thresholds: &[f64],
) -> Result<Vec<ThresholdPoint>, Error> {
    if thresholds.is_empty() {
        return Ok(Vec::new());
    }
    for &threshold in thresholds {
        check_threshold(threshold)?;
    }
    let threads = effective_threads(ripple.config().threads);
    let recorder = &**ripple.recorder();
    let baseline = time_phase(recorder, "sweep.baseline", || ripple.baseline(eval_trace))?;
    let baseline = &baseline;
    let (plan_of, results) = time_phase(recorder, "sweep.evaluate", || {
        let plans = thresholds
            .iter()
            .map(|&t| ripple.analysis().plan_for_threshold(t).0)
            .collect();
        let (plans, plan_of) = distinct_plans(plans);
        let jobs: Vec<Job<'_, Result<Vec<ThresholdPoint>, Error>>> = (0..plans.len())
            .map(|k| -> Job<'_, Result<Vec<ThresholdPoint>, Error>> {
                let group: Vec<f64> = members_of(k, &plan_of, 0..thresholds.len())
                    .into_iter()
                    .map(|i| thresholds[i])
                    .collect();
                Box::new(move || {
                    let outcomes = ripple.evaluate_thresholds(baseline, &group)?;
                    Ok(group
                        .iter()
                        .zip(outcomes)
                        .map(|(&threshold, outcome)| ThresholdPoint {
                            threshold,
                            coverage: outcome.coverage.coverage(),
                            accuracy: outcome.ripple_accuracy.accuracy(),
                            speedup_pct: outcome.speedup_pct(),
                        })
                        .collect())
                })
            })
            .collect();
        (plan_of, run_jobs(threads, "sweep", recorder, jobs))
    });
    // Plans are numbered by first appearance, so the first failed job
    // holds the first failed point.
    let mut groups = Vec::with_capacity(results.len());
    for result in results {
        groups.push(result??.into_iter());
    }
    plan_of
        .iter()
        .map(|&k| {
            groups[k]
                .next()
                .ok_or_else(|| Error::Internal("sweep group ran short".to_string()))
        })
        .collect()
}

/// Picks the best-performing threshold from a sweep (the paper tunes each
/// application; the winners fall in 0.45..=0.65).
///
/// Points with a non-finite speedup are skipped: `f64::total_cmp` orders
/// `NaN` above every real number, so a single degenerate point (e.g. a
/// division artifact from a warmup-dominated run) would otherwise be
/// crowned "best". Returns `None` when no point has a finite speedup.
pub fn best_threshold(points: &[ThresholdPoint]) -> Option<ThresholdPoint> {
    points
        .iter()
        .copied()
        .filter(|p| p.speedup_pct.is_finite())
        .max_by(|a, b| a.speedup_pct.total_cmp(&b.speedup_pct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RippleConfig;
    use ripple_program::{Layout, LayoutConfig};
    use ripple_workloads::{execute, generate, AppSpec, InputConfig};

    #[test]
    fn coverage_falls_and_accuracy_rises_with_threshold() {
        let app = generate(&AppSpec::tiny(55));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(55), 60_000);
        let mut cfg = RippleConfig::default();
        cfg.sim.l1i = ripple_sim::CacheGeometry::new(2 * 1024, 4);
        let ripple = Ripple::train(&app.program, &layout, &trace, cfg).unwrap();

        let points = sweep(&ripple, &trace, &[0.05, 0.5, 0.95]).unwrap();
        assert_eq!(points.len(), 3);
        // Coverage is monotonically non-increasing in the threshold.
        assert!(points[0].coverage >= points[1].coverage);
        assert!(points[1].coverage >= points[2].coverage);
        // Accuracy at the strictest threshold is at least that of the
        // loosest (the Fig. 6 trade-off).
        assert!(points[2].accuracy + 1e-9 >= points[0].accuracy);
        let best = best_threshold(&points).unwrap();
        assert!(points.iter().all(|p| p.speedup_pct <= best.speedup_pct));
    }

    #[test]
    fn parallel_sweep_reports_disjoint_top_level_phases() {
        // Parallel thresholds report overlapping `eval.*` phases into one
        // recorder, so only `sweep.baseline` and `sweep.evaluate`, with
        // training, partition the sweep's wall time.
        use crate::report::{run_report, validate_run_report, SWEEP_TOP_PHASES};
        use ripple_obs::MetricsRecorder;
        use std::sync::Arc;

        let app = generate(&AppSpec::tiny(55));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(55), 60_000);
        let mut cfg = RippleConfig::default();
        cfg.sim.l1i = ripple_sim::CacheGeometry::new(2 * 1024, 4);
        cfg.threads = Some(2);
        let metrics = Arc::new(MetricsRecorder::new());
        let start = std::time::Instant::now();
        let ripple =
            Ripple::train_with_recorder(&app.program, &layout, &trace, cfg, metrics.clone())
                .unwrap();
        let thresholds: Vec<f64> = (1..=9).map(|i| f64::from(i) / 10.0).collect();
        sweep(&ripple, &trace, &thresholds).unwrap();
        let wall_ns = start.elapsed().as_nanos() as u64;
        // Requires every top-level phase and their shares to sum to at most
        // 100 % of the wall.
        let report = run_report("sweep", "tiny", &metrics.snapshot(), wall_ns);
        validate_run_report(&report, SWEEP_TOP_PHASES).unwrap();
    }

    fn point(threshold: f64, speedup_pct: f64) -> ThresholdPoint {
        ThresholdPoint {
            threshold,
            coverage: 0.5,
            accuracy: 0.5,
            speedup_pct,
        }
    }

    #[test]
    fn best_threshold_never_crowns_a_non_finite_point() {
        // total_cmp orders NaN above all reals, so without the finite
        // filter the NaN point would win every one of these.
        let points = [
            point(0.1, 2.0),
            point(0.3, f64::NAN),
            point(0.5, 5.0),
            point(0.7, f64::INFINITY),
            point(0.9, 3.0),
        ];
        let best = best_threshold(&points).unwrap();
        assert_eq!(best.threshold, 0.5);
        assert_eq!(best.speedup_pct, 5.0);
    }

    #[test]
    fn best_threshold_handles_all_degenerate_sweeps() {
        assert!(best_threshold(&[]).is_none());
        assert!(best_threshold(&[point(0.5, f64::NAN)]).is_none());
        // Negative speedups are still finite and comparable.
        let best = best_threshold(&[point(0.2, -3.0), point(0.4, -1.0)]).unwrap();
        assert_eq!(best.threshold, 0.4);
    }
}
