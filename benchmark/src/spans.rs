//! In-memory span capture and per-layer self time.
//!
//! [`SpanRecorder`] is attached through the program's public recorder
//! hooks. The program reports each phase once it ends, with its duration,
//! so a span's interval is `[report time − duration, report time]`, and a
//! span is always reported after every span nested in it. Parents are
//! recovered from that order and from interval containment.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ripple_obs::{Field, FieldValue, Recorder};

use crate::stats::union_length;

/// Name of the span the runner wraps around each timed op.
pub const OP_SPAN: &str = "op";
/// Name of the span the runner wraps around each setup repetition.
pub const SETUP_SPAN: &str = "setup";

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name as the program (or the benchmark) reported it.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Benchmark-local index of the reporting thread.
    pub thread: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything recorded between two [`SpanRecorder::take`] calls.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Spans in report order: every span after the spans nested in it.
    pub spans: Vec<Span>,
    /// Program counters (`session.runs`, `harness.jobs`, …).
    pub counters: BTreeMap<String, u64>,
    /// Every gauge write, in order.
    pub gauges: Vec<(String, f64)>,
    /// Σ `queue_wait_ns` over `harness.job` events.
    pub queue_wait_ns: u64,
    /// Σ `run_ns` over `harness.job` events.
    pub job_run_ns: u64,
    /// Σ worker threads × wall time over harness batches.
    pub batch_capacity_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    capture: Capture,
    /// Worker counts of harness batches still running, per thread.
    open_batches: BTreeMap<u64, Vec<u64>>,
}

/// A recorder that keeps spans, counters and harness events in memory.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            state: Mutex::default(),
        }
    }
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    INDEX.with(|i| *i)
}

impl SpanRecorder {
    /// Returns everything recorded since the previous call.
    pub fn take(&self) -> Capture {
        let mut state = self.locked();
        state.open_batches.clear();
        std::mem::take(&mut state.capture)
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, State> {
        // Every update leaves the state consistent, so a poisoned lock
        // (a panicking op) still holds usable data.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Recorder for SpanRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn phase(&self, name: &str, wall_nanos: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let start_ns = end_ns.saturating_sub(wall_nanos);
        let thread = thread_index();
        let mut state = self.locked();
        if name == "frontend.measure" {
            // Frontends report warmup and measure back to back after the
            // walk; the warmup ran first and ended where measuring began.
            let spans = &mut state.capture.spans;
            if let Some(w) = spans.iter_mut().rev().find(|s| s.thread == thread) {
                if w.name == "frontend.warmup" {
                    let d = w.duration();
                    w.end_ns = start_ns;
                    w.start_ns = start_ns.saturating_sub(d);
                }
            }
        }
        if name == "harness.batch" {
            let threads = state
                .open_batches
                .get_mut(&thread)
                .and_then(Vec::pop)
                .unwrap_or(1);
            state.capture.batch_capacity_ns += threads * wall_nanos;
        }
        state.capture.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            thread,
        });
    }

    fn add(&self, name: &str, delta: u64) {
        *self
            .locked()
            .capture
            .counters
            .entry(name.to_string())
            .or_insert(0) += delta;
    }

    fn gauge(&self, name: &str, value: f64) {
        self.locked().capture.gauges.push((name.to_string(), value));
    }

    fn event(&self, name: &str, fields: &[Field<'_>]) {
        let field = |key: &str| {
            fields.iter().find_map(|&(k, v)| match v {
                FieldValue::U64(x) if k == key => Some(x),
                _ => None,
            })
        };
        let mut state = self.locked();
        match name {
            "harness.batch" => {
                let threads = field("threads").unwrap_or(1);
                state
                    .open_batches
                    .entry(thread_index())
                    .or_default()
                    .push(threads);
            }
            "harness.job" => {
                state.capture.queue_wait_ns += field("queue_wait_ns").unwrap_or(0);
                state.capture.job_run_ns += field("run_ns").unwrap_or(0);
            }
            _ => {}
        }
    }
}

/// The parent of each span, by index.
///
/// A span's parent is the shortest span reported after it on the same
/// thread whose interval holds the span's end. A span on a harness worker
/// thread with no such span belongs to the shortest harness batch that
/// holds it: batches are the only place the program starts threads.
pub fn parents(spans: &[Span]) -> Vec<Option<usize>> {
    (0..spans.len())
        .map(|i| {
            let child = &spans[i];
            let tightest = |eligible: &dyn Fn(&Span) -> bool| {
                spans
                    .iter()
                    .enumerate()
                    .skip(i + 1)
                    .filter(|(_, p)| {
                        eligible(p) && p.start_ns < child.end_ns && child.end_ns <= p.end_ns
                    })
                    .min_by_key(|(_, p)| p.duration())
                    .map(|(j, _)| j)
            };
            tightest(&|p| p.thread == child.thread)
                .or_else(|| tightest(&|p| p.name == "harness.batch"))
        })
        .collect()
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span], parents: &[Option<usize>]) -> Vec<u64> {
    let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (child, parent) in spans.iter().zip(parents) {
        if let Some(p) = *parent {
            let outer = &spans[p];
            covered[p].push((
                child.start_ns.max(outer.start_ns),
                child.end_ns.min(outer.end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, mut c)| s.duration().saturating_sub(union_length(&mut c)))
        .collect()
}

/// What span `i`'s self time counts toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A per-layer metric.
    Metric(&'static str),
    /// No layer: the runner's root spans, and harness jobs submitted
    /// directly by the benchmark.
    Root,
    /// A phase this benchmark does not know.
    Unknown,
}

/// The layer span `i`'s self time counts toward. A harness job runs work
/// for the phase that started its batch, so the job's untraced time
/// counts toward that phase's layer.
pub fn layer_of(spans: &[Span], parents: &[Option<usize>], i: usize) -> Layer {
    let parent = parents[i];
    match spans[i].name.as_str() {
        OP_SPAN | SETUP_SPAN => Layer::Root,
        "harness.job" => {
            let mut up = parent;
            while let Some(p) = up {
                if !spans[p].name.starts_with("harness.") {
                    return layer_of(spans, parents, p);
                }
                up = parents[p];
            }
            Layer::Root
        }
        name => layer_metric(name, parent.map(|p| spans[p].name.as_str()))
            .map_or(Layer::Unknown, Layer::Metric),
    }
}

/// The per-layer metric a phase's self time counts toward, from its name
/// and its parent's name.
fn layer_metric(name: &str, parent: Option<&str>) -> Option<&'static str> {
    Some(match name {
        // The capture pass walks the frontend too; that walk is recording.
        "frontend.warmup" | "frontend.measure" if parent == Some("session.record") => {
            "sim.record_s"
        }
        "frontend.warmup" => "sim.warmup_s",
        "frontend.measure" => "sim.measure_s",
        "session.record" => "sim.record_s",
        "session.future_index" => "sim.future_index_s",
        "session.bucket" => "sim.bucket_s",
        "session.run" => "sim.replay_s",
        "sim.intern" => "sim.intern_s",
        "workloads.generate" => "workloads.generate_s",
        "program.layout" => "program.layout_s",
        "trace.collect" => "trace.collect_s",
        "core.train" => "core.train_s",
        "core.evaluate" => "core.evaluate_s",
        "train.oracle_replay" | "eval.oracle_replay" => "core.oracle_replay_s",
        "train.cue_selection" | "eval.window_analysis" => "core.cue_selection_s",
        "train.window_index" => "core.window_index_s",
        "eval.plan" => "core.plan_s",
        "eval.patch" => "core.patch_s",
        "eval.final_layout" => "core.final_layout_s",
        "eval.sim_runs" => "core.sim_runs_s",
        "eval.accuracy" => "core.accuracy_s",
        "eval.relink" => "program.relink_s",
        "harness.batch" => "harness.batch_s",
        "lab.expand" => "lab.expand_s",
        "lab.load" => "lab.load_s",
        "lab.execute" => "lab.execute_s",
        "lab.render" => "lab.render_s",
        "fleet.collect" => "fleet.collect_s",
        "fleet.aggregate" => "fleet.aggregate_s",
        "fleet.train" => "fleet.train_s",
        "fleet.rollout" => "fleet.rollout_s",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, thread: u64) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0,100) holds train [10,40) and evaluate [40,95); evaluate
        // holds two overlapping worker jobs under a harness batch.
        let spans = vec![
            span("harness.job", 50, 80, 1),
            span("harness.job", 60, 90, 2),
            span("harness.batch", 45, 92, 0),
            span("core.train", 10, 40, 0),
            span("core.evaluate", 40, 95, 0),
            span(OP_SPAN, 0, 100, 0),
        ];
        let parents = parents(&spans);
        assert_eq!(
            parents,
            vec![Some(2), Some(2), Some(4), Some(5), Some(5), None]
        );
        let own = self_times(&spans, &parents);
        assert_eq!(own, vec![30, 30, 47 - 40, 30, 55 - 47, 100 - 85]);
    }

    #[test]
    fn siblings_that_ended_before_a_span_began_are_not_its_children() {
        let spans = vec![
            span("session.record", 0, 10, 0),
            span("session.run", 12, 30, 0),
            span(OP_SPAN, 0, 30, 0),
        ];
        let parents = parents(&spans);
        assert_eq!(parents, vec![Some(2), Some(2), None]);
        assert_eq!(self_times(&spans, &parents), vec![10, 18, 2]);
    }

    #[test]
    fn recorder_reorders_back_to_back_warmup_and_measure() {
        let rec = SpanRecorder::default();
        // Spans cannot start before the recorder existed.
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.phase("frontend.warmup", 1_000);
        rec.phase("frontend.measure", 3_000);
        let spans = rec.take().spans;
        let (warm, measure) = (&spans[0], &spans[1]);
        assert_eq!(warm.end_ns, measure.start_ns);
        assert_eq!(warm.duration(), 1_000);
        assert_eq!(measure.duration(), 3_000);
        assert!(rec.take().spans.is_empty(), "take drains the capture");
    }

    #[test]
    fn recorder_accumulates_harness_events() {
        let rec = SpanRecorder::default();
        rec.event("harness.batch", &[("threads", FieldValue::U64(2))]);
        rec.event(
            "harness.job",
            &[
                ("queue_wait_ns", FieldValue::U64(5)),
                ("run_ns", FieldValue::U64(70)),
            ],
        );
        rec.phase("harness.batch", 50);
        rec.add("harness.jobs", 1);
        let c = rec.take();
        assert_eq!((c.queue_wait_ns, c.job_run_ns), (5, 70));
        assert_eq!(c.batch_capacity_ns, 100);
        assert_eq!(c.counters.get("harness.jobs"), Some(&1));
    }

    #[test]
    fn spans_count_toward_their_layers() {
        let spans = vec![
            span("frontend.measure", 2, 4, 1),
            span("session.record", 1, 5, 1),
            span("frontend.measure", 6, 8, 1),
            span("session.run", 5, 9, 1),
            span("harness.job", 1, 10, 1),
            span("harness.batch", 0, 11, 0),
            span("lab.execute", 0, 12, 0),
            span("harness.job", 13, 14, 0),
            span("harness.batch", 13, 15, 0),
            span("lab.novel", 16, 17, 0),
            span(OP_SPAN, 0, 20, 0),
        ];
        let parents = parents(&spans);
        let layers: Vec<Layer> = (0..spans.len())
            .map(|i| layer_of(&spans, &parents, i))
            .collect();
        use Layer::{Metric, Root, Unknown};
        assert_eq!(
            layers,
            vec![
                // The capture pass walks the frontend too; that walk is
                // recording.
                Metric("sim.record_s"),
                Metric("sim.record_s"),
                Metric("sim.measure_s"),
                Metric("sim.replay_s"),
                // A job's own time is its submitter's work.
                Metric("lab.execute_s"),
                Metric("harness.batch_s"),
                Metric("lab.execute_s"),
                Root,
                Metric("harness.batch_s"),
                Unknown,
                Root,
            ]
        );
    }
}
