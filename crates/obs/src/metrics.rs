//! In-memory aggregation: counters, gauges, phase timers, event log.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{Field, FieldValue, Recorder};

/// Aggregate statistics of one named phase timer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// How many times the phase completed.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_nanos: u64,
    /// Longest single completion, nanoseconds.
    pub max_nanos: u64,
}

/// An owned copy of an event field value (the borrowed [`FieldValue`]
/// cannot outlive the emitting call).
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<FieldValue<'_>> for OwnedValue {
    fn from(v: FieldValue<'_>) -> Self {
        match v {
            FieldValue::U64(x) => OwnedValue::U64(x),
            FieldValue::I64(x) => OwnedValue::I64(x),
            FieldValue::F64(x) => OwnedValue::F64(x),
            FieldValue::Str(s) => OwnedValue::Str(s.to_string()),
            FieldValue::Bool(b) => OwnedValue::Bool(b),
        }
    }
}

impl OwnedValue {
    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            OwnedValue::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            OwnedValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One recorded event: its name plus owned field copies.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name.
    pub name: String,
    /// Fields in emission order.
    pub fields: Vec<(String, OwnedValue)>,
}

impl EventRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&OwnedValue> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    phases: BTreeMap<String, PhaseStat>,
    events: Vec<EventRecord>,
}

/// Aggregating recorder: monotonic counters, last-write gauges, per-phase
/// timer statistics, and the raw event log. Shareable across threads; a
/// [`snapshot`](MetricsRecorder::snapshot) can be taken at any time.
///
/// Aggregation maps are `BTreeMap`s so snapshots list keys in a stable
/// order regardless of thread interleaving.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    inner: Mutex<Inner>,
}

impl MetricsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Each lock recovers from poisoning instead of panicking: metric
    /// state is a set of independent counters (every update leaves it
    /// consistent), and observability must not compound a panic that was
    /// already reported where it happened.
    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            phases: inner.phases.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            events: inner.events.clone(),
        }
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn phase(&self, name: &str, wall_nanos: u64) {
        let mut inner = self.locked();
        let stat = inner.phases.entry(name.to_string()).or_default();
        stat.count += 1;
        stat.total_nanos += wall_nanos;
        stat.max_nanos = stat.max_nanos.max(wall_nanos);
    }

    fn add(&self, name: &str, delta: u64) {
        let mut inner = self.locked();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    fn gauge(&self, name: &str, value: f64) {
        let mut inner = self.locked();
        inner.gauges.insert(name.to_string(), value);
    }

    fn event(&self, name: &str, fields: &[Field<'_>]) {
        let record = EventRecord {
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|&(n, v)| (n.to_string(), OwnedValue::from(v)))
                .collect(),
        };
        let mut inner = self.locked();
        inner.events.push(record);
    }
}

/// A point-in-time copy of a [`MetricsRecorder`]'s state, with keys in
/// sorted (deterministic) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Phase statistics, sorted by name.
    pub phases: Vec<(String, PhaseStat)>,
    /// Events, in emission order (across threads: in lock-acquisition
    /// order).
    pub events: Vec<EventRecord>,
}

impl MetricsSnapshot {
    /// Looks up a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a phase's statistics.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Events with the given name.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.events.iter().filter(move |e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let m = MetricsRecorder::new();
        m.add("jobs", 1);
        m.add("jobs", 2);
        m.gauge("threads", 4.0);
        m.gauge("threads", 8.0);
        let s = m.snapshot();
        assert_eq!(s.counter("jobs"), Some(3));
        assert_eq!(s.gauge("threads"), Some(8.0));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn phases_track_count_total_max() {
        let m = MetricsRecorder::new();
        m.phase("p", 10);
        m.phase("p", 30);
        m.phase("q", 5);
        let s = m.snapshot();
        let p = s.phase("p").unwrap();
        assert_eq!((p.count, p.total_nanos, p.max_nanos), (2, 40, 30));
        assert_eq!(s.phase("q").unwrap().count, 1);
        // BTreeMap ordering: sorted keys in the snapshot.
        assert_eq!(s.phases[0].0, "p");
        assert_eq!(s.phases[1].0, "q");
    }

    #[test]
    fn events_keep_fields() {
        let m = MetricsRecorder::new();
        m.event(
            "harness.job",
            &[
                ("scope", FieldValue::Str("eval")),
                ("job", FieldValue::U64(3)),
            ],
        );
        let s = m.snapshot();
        let e = s.events_named("harness.job").next().unwrap();
        assert_eq!(e.field("scope").and_then(OwnedValue::as_str), Some("eval"));
        assert_eq!(e.field("job").and_then(OwnedValue::as_u64), Some(3));
        assert!(e.field("missing").is_none());
    }

    #[test]
    fn events_copy_every_field_kind() {
        let m = MetricsRecorder::new();
        m.event(
            "e",
            &[
                ("i", FieldValue::I64(-7)),
                ("f", FieldValue::F64(0.25)),
                ("b", FieldValue::Bool(false)),
            ],
        );
        let s = m.snapshot();
        let e = s.events_named("e").next().unwrap();
        assert_eq!(e.field("i"), Some(&OwnedValue::I64(-7)));
        assert_eq!(e.field("f"), Some(&OwnedValue::F64(0.25)));
        assert_eq!(e.field("b"), Some(&OwnedValue::Bool(false)));
        // The typed accessors answer only for their own kind.
        assert_eq!(e.field("i").and_then(OwnedValue::as_u64), None);
        assert_eq!(e.field("f").and_then(OwnedValue::as_str), None);
    }

    #[test]
    fn gauges_keep_nonfinite_values() {
        let m = MetricsRecorder::new();
        m.gauge("nan", f64::NAN);
        m.gauge("inf", f64::INFINITY);
        let s = m.snapshot();
        assert!(s.gauge("nan").is_some_and(f64::is_nan));
        assert_eq!(s.gauge("inf"), Some(f64::INFINITY));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let m = std::sync::Arc::new(MetricsRecorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        m.add("n", 1);
                        m.phase("p", 1);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.counter("n"), Some(400));
        assert_eq!(s.phase("p").unwrap().count, 400);
    }
}
