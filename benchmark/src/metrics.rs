//! The benchmark's metric catalogue and the per-layer aggregation.
//!
//! The catalogue is the single list the runner reports from; a test
//! checks that `BENCHMARK.json` at the repository root declares the same
//! names, units and directions.

use std::collections::{BTreeMap, BTreeSet};

use crate::spans::{layer_of, parents, self_times, Capture, Layer, OP_SPAN};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric: name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed and stored.
    pub name: &'static str,
    /// Unit as printed and stored.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s", Lower),
    def("op_p50_s", "s", Lower),
    def("op_p90_s", "s", Lower),
    def("instrs_per_s", "instr/s", Higher),
    def("peak_rss_mb", "MB", Lower),
    def("sim_mpki", "MPKI", Lower),
];

/// Per-layer metrics of the traced run. Times are self time (a span
/// minus its traced children), summed over threads, except the harness's
/// busy and waiting times, which are whole job times. Every value is a
/// mean per timed op except the setup layers, which are a mean per setup.
pub const PER_LAYER: [MetricDef; 49] = [
    def("workloads.generate_s", "s", Lower),
    def("program.layout_s", "s", Lower),
    def("trace.collect_s", "s", Lower),
    def("sim.intern_s", "s", Lower),
    def("sim.record_s", "s", Lower),
    def("sim.future_index_s", "s", Lower),
    def("sim.bucket_s", "s", Lower),
    def("sim.replay_s", "s", Lower),
    def("sim.warmup_s", "s", Lower),
    def("sim.measure_s", "s", Lower),
    def("sim.runs", "count", Lower),
    def("sim.recording_passes", "count", Lower),
    def("sim.bucket_passes", "count", Lower),
    def("sim.runs_per_capture", "ratio", Higher),
    def("sim.runs_per_bucket", "ratio", Higher),
    def("core.train_s", "s", Lower),
    def("core.evaluate_s", "s", Lower),
    def("core.oracle_replay_s", "s", Lower),
    def("core.cue_selection_s", "s", Lower),
    def("core.window_index_s", "s", Lower),
    def("core.plan_s", "s", Lower),
    def("core.patch_s", "s", Lower),
    def("core.final_layout_s", "s", Lower),
    def("core.sim_runs_s", "s", Lower),
    def("core.accuracy_s", "s", Lower),
    def("core.slot_fill_ratio", "ratio", Higher),
    def("program.relink_s", "s", Lower),
    def("program.relinks", "count", Lower),
    def("harness.jobs", "count", Lower),
    def("harness.jobs_failed", "count", Lower),
    def("harness.job_run_s", "s", Lower),
    def("harness.queue_wait_s", "s", Lower),
    def("harness.batch_s", "s", Lower),
    def("harness.utilization", "ratio", Higher),
    def("lab.expand_s", "s", Lower),
    def("lab.load_s", "s", Lower),
    def("lab.execute_s", "s", Lower),
    def("lab.render_s", "s", Lower),
    def("lab.points", "count", Higher),
    def("fleet.collect_s", "s", Lower),
    def("fleet.aggregate_s", "s", Lower),
    def("fleet.train_s", "s", Lower),
    def("fleet.rollout_s", "s", Lower),
    def("fleet.cache_hit_rate", "ratio", Higher),
    def("fleet.shards_ok", "count", Higher),
    def("fleet.shards_failed", "count", Lower),
    def("fleet.dropped_packets", "count", Lower),
    def("obs.trace_overhead_pct", "%", Lower),
    def("obs.op_coverage_pct", "%", Higher),
];

/// Layers timed once per setup repetition rather than per op.
const SETUP_LAYERS: [&str; 3] = [
    "workloads.generate_s",
    "program.layout_s",
    "trace.collect_s",
];

/// Per-layer totals folded from the traced ops and setups of one run.
#[derive(Debug, Default)]
pub struct LayerTally {
    ops: u64,
    setups: u64,
    op_wall_ns: u64,
    op_self_ns: u64,
    self_ns: BTreeMap<&'static str, u64>,
    bucket_passes: u64,
    relinks: u64,
    counters: BTreeMap<String, u64>,
    slots_reserved: f64,
    slots_assigned: f64,
    queue_wait_ns: u64,
    job_run_ns: u64,
    batch_capacity_ns: u64,
    op_counts: BTreeMap<&'static str, f64>,
    unmapped: BTreeSet<String>,
}

impl LayerTally {
    /// Folds one traced op: its capture plus the counts the workload read
    /// from the op's result. Returns each span's parent.
    pub fn add_op(
        &mut self,
        capture: &Capture,
        counts: &[(&'static str, f64)],
    ) -> Vec<Option<usize>> {
        self.ops += 1;
        for &(name, value) in counts {
            *self.op_counts.entry(name).or_insert(0.0) += value;
        }
        for (name, &value) in &capture.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &capture.gauges {
            match name.as_str() {
                "eval.slots_reserved" => self.slots_reserved += value,
                "eval.slots_assigned" => self.slots_assigned += value,
                _ => {}
            }
        }
        self.queue_wait_ns += capture.queue_wait_ns;
        self.job_run_ns += capture.job_run_ns;
        self.batch_capacity_ns += capture.batch_capacity_ns;
        self.fold_spans(capture)
    }

    /// Folds one traced setup repetition. Returns each span's parent.
    pub fn add_setup(&mut self, capture: &Capture) -> Vec<Option<usize>> {
        self.setups += 1;
        self.fold_spans(capture)
    }

    fn fold_spans(&mut self, capture: &Capture) -> Vec<Option<usize>> {
        let spans = &capture.spans;
        let parents = parents(spans);
        let own = self_times(spans, &parents);
        for (i, (span, own)) in spans.iter().zip(own).enumerate() {
            match span.name.as_str() {
                OP_SPAN => {
                    self.op_wall_ns += span.end_ns - span.start_ns;
                    self.op_self_ns += own;
                }
                "session.bucket" => self.bucket_passes += 1,
                "eval.relink" => self.relinks += 1,
                _ => {}
            }
            match layer_of(spans, &parents, i) {
                Layer::Metric(metric) => *self.self_ns.entry(metric).or_insert(0) += own,
                Layer::Root => {}
                Layer::Unknown => {
                    self.unmapped.insert(span.name.clone());
                }
            }
        }
        parents
    }

    /// Span names no layer metric claims; their self time is counted in
    /// no layer.
    pub fn unmapped(&self) -> impl Iterator<Item = &str> {
        self.unmapped.iter().map(String::as_str)
    }

    /// Every [`PER_LAYER`] metric's value; layers a workload never
    /// reaches read 0.
    pub fn metrics(&self, trace_overhead_pct: f64) -> Vec<(&'static MetricDef, f64)> {
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0) as f64;
        let runs = counter("session.runs");
        PER_LAYER
            .iter()
            .map(|d| {
                let value = match d.name {
                    "sim.runs" => per(runs, self.ops),
                    "sim.recording_passes" => per(counter("session.recording_passes"), self.ops),
                    "sim.bucket_passes" => per(self.bucket_passes as f64, self.ops),
                    "sim.runs_per_capture" => ratio(runs, counter("session.recording_passes")),
                    "sim.runs_per_bucket" => ratio(runs, self.bucket_passes as f64),
                    "core.slot_fill_ratio" => ratio(self.slots_assigned, self.slots_reserved),
                    "program.relinks" => per(self.relinks as f64, self.ops),
                    "harness.jobs" => per(counter("harness.jobs"), self.ops),
                    "harness.jobs_failed" => per(counter("harness.job_failed"), self.ops),
                    "harness.job_run_s" => per(self.job_run_ns as f64 / 1e9, self.ops),
                    "harness.queue_wait_s" => per(self.queue_wait_ns as f64 / 1e9, self.ops),
                    "harness.utilization" => {
                        ratio(self.job_run_ns as f64, self.batch_capacity_ns as f64)
                    }
                    "obs.trace_overhead_pct" => trace_overhead_pct,
                    "obs.op_coverage_pct" => {
                        100.0 * (1.0 - ratio(self.op_self_ns as f64, self.op_wall_ns as f64))
                    }
                    name => {
                        let seconds = self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
                        if SETUP_LAYERS.contains(&name) {
                            per(seconds, self.setups)
                        } else if let Some(&count) = self.op_counts.get(name) {
                            per(count, self.ops)
                        } else {
                            per(seconds, self.ops)
                        }
                    }
                };
                (d, value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    fn span(name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    fn value(metrics: &[(&MetricDef, f64)], name: &str) -> f64 {
        metrics.iter().find(|(d, _)| d.name == name).unwrap().1
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
        for name in all {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn layers_report_self_time_per_op_and_coverage() {
        let mut tally = LayerTally::default();
        for _ in 0..2 {
            let capture = Capture {
                spans: vec![
                    span("session.record", 10_000_000, 30_000_000),
                    span("session.run", 10_000_000, 50_000_000),
                    span("session.bucket", 55_000_000, 60_000_000),
                    span(OP_SPAN, 0, 100_000_000),
                ],
                counters: [("session.runs".to_string(), 3)].into(),
                ..Capture::default()
            };
            tally.add_op(&capture, &[("lab.points", 4.0)]);
        }
        let m = tally.metrics(1.5);
        assert!((value(&m, "sim.record_s") - 0.02).abs() < 1e-12);
        assert!((value(&m, "sim.replay_s") - 0.02).abs() < 1e-12);
        assert_eq!(value(&m, "sim.runs"), 3.0);
        assert_eq!(value(&m, "sim.runs_per_bucket"), 3.0);
        assert_eq!(value(&m, "lab.points"), 4.0);
        assert_eq!(value(&m, "obs.trace_overhead_pct"), 1.5);
        assert!((value(&m, "obs.op_coverage_pct") - 45.0).abs() < 1e-9);
        assert_eq!(value(&m, "fleet.collect_s"), 0.0);
        assert_eq!(m.len(), PER_LAYER.len());
    }
}
