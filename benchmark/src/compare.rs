//! Compares two sets of result documents under `BENCHMARK.json`'s bounds.
//!
//! Each (workload, metric) row gets one verdict:
//!
//! * `unresolved` — the base runs spread (interquartile range over
//!   median) wider than the bound, and not every head run beats every
//!   base run;
//! * `worse` — the head median is worse than the base median by more
//!   than the bound;
//! * `better` — the head wins at least 9 of every 10 pairs (ties count
//!   for neither side), over at least 10 pairs, and its median beats the
//!   base median by more than the base runs' interquartile range; or the
//!   spread is too wide but every head run beats every base run;
//! * `unchanged` — anything else.
//!
//! Pairs are formed in file order: the i-th base file with the i-th head
//! file, so files should be listed in the order the alternating runs
//! were made.

use ripple_json::Value;

use crate::metrics::Better;
use crate::result::WorkloadResult;
use crate::stats::quartiles;

/// Pairs needed before a win can be claimed.
pub const MIN_PAIRS: usize = 10;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Metric unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Fails on malformed JSON or a malformed entry.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = ripple_json::parse(text).map_err(|e| e.to_string())?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .map_err(|e| format!("end_to_end: {e}"))?;
    entries
        .iter()
        .map(|e| {
            let text = |key| {
                e.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .map_err(|err| format!("end_to_end.{key}: {err}"))
            };
            let better = match text("better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("end_to_end.better: {other:?}")),
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                better,
                bound: e
                    .get("bound")
                    .and_then(Value::as_f64)
                    .map_err(|err| format!("end_to_end.bound: {err}"))?,
            })
        })
        .collect()
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The head is better by the win rule.
    Better,
    /// The head is worse by more than the bound.
    Worse,
    /// Within the bound, and no win.
    Unchanged,
    /// The base runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The printed spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges head values against base values of one metric.
pub fn verdict(base: &[f64], head: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some([b1, bm, b3]), Some([_, hm, _])) = (quartiles(base), quartiles(head)) else {
        return Verdict::Unresolved;
    };
    // Positive gain = the head improves on the base.
    let gain = |h: f64, b: f64| match better {
        Better::Higher => h - b,
        Better::Lower => b - h,
    };
    let scale = if bm == 0.0 { 1.0 } else { bm.abs() };
    let iqr = b3 - b1;
    if iqr / scale > bound {
        let all_better = head.iter().all(|&h| base.iter().all(|&b| gain(h, b) > 0.0));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if -gain(hm, bm) / scale > bound {
        return Verdict::Worse;
    }
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| gain(h, b) > 0.0)
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain(hm, bm) > iqr {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One compared (workload, metric) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// Base first quartile, median, third quartile.
    pub base: [f64; 3],
    /// Head first quartile, median, third quartile.
    pub head: [f64; 3],
    /// Head median relative to the base median, percent.
    pub delta_pct: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares every bounded metric of every workload present on both
/// sides. Failed ops are a row of their own: any head failure beyond the
/// base's is `worse`.
pub fn compare(base: &[WorkloadResult], head: &[WorkloadResult], bounds: &[Bound]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in base {
        if !workloads.contains(&r.workload.as_str())
            && head.iter().any(|h| h.workload == r.workload)
        {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let values = |set: &[WorkloadResult], metric: &str| -> Vec<f64> {
            set.iter()
                .filter(|r| r.workload == w && !r.trace)
                .filter_map(|r| r.metric(metric))
                .collect()
        };
        for b in bounds {
            let (bv, hv) = (values(base, &b.name), values(head, &b.name));
            let (Some(bq), Some(hq)) = (quartiles(&bv), quartiles(&hv)) else {
                continue;
            };
            rows.push(Row {
                workload: w.into(),
                metric: b.name.clone(),
                unit: b.unit.clone(),
                base: bq,
                head: hq,
                delta_pct: if bq[1] == 0.0 {
                    0.0
                } else {
                    (hq[1] / bq[1] - 1.0) * 100.0
                },
                verdict: verdict(&bv, &hv, b.better, b.bound),
            });
        }
        let failed = |set: &[WorkloadResult]| -> f64 {
            set.iter()
                .filter(|r| r.workload == w)
                .map(|r| r.failed as f64)
                .sum()
        };
        let (bf, hf) = (failed(base), failed(head));
        rows.push(Row {
            workload: w.into(),
            metric: "failed_ops".into(),
            unit: "count".into(),
            base: [bf; 3],
            head: [hf; 3],
            delta_pct: 0.0,
            verdict: if hf > bf {
                Verdict::Worse
            } else {
                Verdict::Unchanged
            },
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0) / 2.0)
            .collect()
    }

    #[test]
    fn a_consistent_large_win_is_better() {
        let base = around(1.0, 0.01, 10);
        let head = around(0.9, 0.01, 10);
        assert_eq!(verdict(&base, &head, Better::Lower, 0.1), Verdict::Better);
        // Swapping both the sides and the direction is the same win.
        assert_eq!(verdict(&head, &base, Better::Higher, 0.2), Verdict::Better);
    }

    #[test]
    fn a_win_needs_ten_pairs() {
        let base = around(1.0, 0.01, 9);
        let head = around(0.9, 0.01, 9);
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.2),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_win_needs_nine_of_ten_pairs() {
        let base = around(1.0, 0.01, 10);
        let mut head = around(0.97, 0.01, 10);
        head[0] = 1.5;
        head[1] = 1.5;
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.2),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_win_must_exceed_the_base_spread() {
        // Every pair is won, but by less than the base runs' own IQR.
        let base = around(1.0, 0.04, 10);
        let head: Vec<f64> = base.iter().map(|b| b - 0.001).collect();
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.2),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let base = around(1.0, 0.01, 5);
        let head = around(1.2, 0.01, 5);
        assert_eq!(verdict(&base, &head, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.25),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&head, &base, Better::Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = around(1.0, 0.3, 10);
        let head = around(1.05, 0.3, 10);
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every head run beats every base run.
        let head = around(0.2, 0.01, 10);
        assert_eq!(verdict(&base, &head, Better::Lower, 0.1), Verdict::Better);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "instrs_per_s", "unit": "instr/s", "better": "higher", "bound": 0.15}
        ]}"#;
        let bounds = parse_bounds(text).unwrap();
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[1].better, Better::Higher);
        assert_eq!(bounds[1].bound, 0.15);
        assert!(parse_bounds(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
    }
}
