//! Structured observability for the Ripple pipeline.
//!
//! The simulator grid of the paper's evaluation (§IV) is hundreds of runs
//! executed by a parallel harness; this crate makes that pipeline
//! inspectable without perturbing it. It mirrors the `EvictionSink`
//! observer pattern of `ripple-sim`: producers push phase timings,
//! counters, gauges and span events into a [`Recorder`], and the recorder
//! decides what to do with them.
//!
//! Two recorders are provided:
//!
//! * [`NullRecorder`] — the zero-cost default. Every trait method is an
//!   inlined no-op and [`Recorder::enabled`] returns `false`, so
//!   instrumented seams skip even their clock reads.
//! * [`MetricsRecorder`] — aggregates monotonic counters, last-write
//!   gauges, per-phase timer statistics (count / total / max) and the raw
//!   event log, all snapshotable for a structured run report.
//!
//! Recorders observe only; they never feed back into simulation state, so
//! enabling one leaves every simulation output byte-identical (the
//! workspace determinism suite asserts this).
//!
//! The contract producers follow: **time nothing unless
//! [`Recorder::enabled`] says so.** The [`time_phase`] helper and
//! [`PhaseTimer`] encode that rule.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_debug_implementations)]

mod metrics;

pub use metrics::{EventRecord, MetricsRecorder, MetricsSnapshot, OwnedValue, PhaseStat};

use std::sync::Arc;
use std::time::Instant;

/// A typed value attached to an event field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Borrowed string.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

/// One named field of an event: `(name, value)`.
pub type Field<'a> = (&'a str, FieldValue<'a>);

/// Observer of pipeline activity, called synchronously from the code being
/// observed. Implementations must be thread-safe: the evaluation harness
/// reports job completions from worker threads concurrently.
///
/// All methods default to no-ops so a recorder only implements what it
/// cares about; [`NullRecorder`] implements nothing and is the zero-cost
/// default throughout the workspace.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Whether this recorder wants data at all. Hot paths consult this
    /// before reading clocks or formatting anything; when it returns
    /// `false` instrumentation must cost nothing but this call.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// A completed phase of work with its wall-clock duration.
    ///
    /// Phase names form a stable dotted taxonomy (`frontend.warmup`,
    /// `session.record`, `eval.sim_runs`, `harness.job`, …); the same name
    /// may be reported many times and aggregates.
    #[inline]
    fn phase(&self, name: &str, wall_nanos: u64) {
        let _ = (name, wall_nanos);
    }

    /// Increments a monotonic counter.
    #[inline]
    fn add(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets a last-write-wins gauge.
    #[inline]
    fn gauge(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// A structured point event with typed fields (per-job harness
    /// timings, run milestones).
    #[inline]
    fn event(&self, name: &str, fields: &[Field<'_>]) {
        let _ = (name, fields);
    }
}

/// Discards everything; the zero-cost default recorder.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Fans every observation out to several recorders (e.g. a
/// [`MetricsRecorder`] for the run report plus a live progress printer).
///
/// With no sinks — or only disabled sinks — the tee itself reports
/// disabled, so instrumented code stays on its free path.
#[derive(Debug, Default)]
pub struct TeeRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl TeeRecorder {
    /// Creates an empty (disabled) tee.
    pub fn new() -> Self {
        TeeRecorder::default()
    }

    /// Adds a recorder to the fan-out.
    pub fn with(mut self, sink: Arc<dyn Recorder>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Number of attached recorders.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the tee has no recorders attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Recorder for TeeRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn phase(&self, name: &str, wall_nanos: u64) {
        for s in &self.sinks {
            s.phase(name, wall_nanos);
        }
    }

    fn add(&self, name: &str, delta: u64) {
        for s in &self.sinks {
            s.add(name, delta);
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        for s in &self.sinks {
            s.gauge(name, value);
        }
    }

    fn event(&self, name: &str, fields: &[Field<'_>]) {
        for s in &self.sinks {
            s.event(name, fields);
        }
    }
}

/// Times `f` and reports it as phase `name` — free (no clock read) when
/// the recorder is disabled.
pub fn time_phase<T>(recorder: &dyn Recorder, name: &str, f: impl FnOnce() -> T) -> T {
    if !recorder.enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    recorder.phase(name, start.elapsed().as_nanos() as u64);
    out
}

/// A manually driven phase stopwatch, for seams where a closure is
/// awkward (e.g. splitting one loop into warmup and measure phases).
///
/// Carries no clock when the recorder it was started against is disabled,
/// so `finish`/`lap` become no-ops.
#[derive(Debug)]
pub struct PhaseTimer {
    start: Option<Instant>,
}

impl PhaseTimer {
    /// Starts the stopwatch (reads the clock only if `recorder` is
    /// enabled).
    pub fn start(recorder: &dyn Recorder) -> Self {
        PhaseTimer {
            start: recorder.enabled().then(Instant::now),
        }
    }

    /// Reports the elapsed time as phase `name` and restarts the
    /// stopwatch.
    pub fn lap(&mut self, recorder: &dyn Recorder, name: &str) {
        if let Some(start) = self.start {
            let now = Instant::now();
            recorder.phase(name, (now - start).as_nanos() as u64);
            self.start = Some(now);
        }
    }

    /// Reports the elapsed time as phase `name` and consumes the timer.
    pub fn finish(self, recorder: &dyn Recorder, name: &str) {
        if let Some(start) = self.start {
            recorder.phase(name, start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.phase("x", 1);
        r.add("x", 1);
        r.gauge("x", 1.0);
        r.event("x", &[("a", FieldValue::U64(1))]);
    }

    #[test]
    fn time_phase_skips_clock_when_disabled() {
        // Behavioural only: the closure still runs and returns.
        let out = time_phase(&NullRecorder, "p", || 41 + 1);
        assert_eq!(out, 42);
    }

    #[test]
    fn tee_fans_out_and_reports_enabled() {
        let a = Arc::new(MetricsRecorder::new());
        let b = Arc::new(MetricsRecorder::new());
        let tee = TeeRecorder::new()
            .with(a.clone())
            .with(b.clone())
            .with(Arc::new(NullRecorder));
        assert!(tee.enabled());
        assert_eq!(tee.len(), 3);
        tee.phase("p", 5);
        tee.add("c", 2);
        for m in [&a, &b] {
            let snap = m.snapshot();
            assert_eq!(snap.counter("c"), Some(2));
            assert_eq!(snap.phase("p").map(|p| p.total_nanos), Some(5));
        }
    }

    #[test]
    fn empty_tee_is_disabled() {
        assert!(!TeeRecorder::new().enabled());
        assert!(TeeRecorder::new().is_empty());
    }

    #[test]
    fn tee_of_disabled_sinks_is_disabled() {
        let tee = TeeRecorder::new()
            .with(Arc::new(NullRecorder))
            .with(Arc::new(NullRecorder));
        assert!(!tee.is_empty());
        assert!(!tee.enabled());
    }

    #[test]
    fn tee_forwards_gauges_and_events() {
        let a = Arc::new(MetricsRecorder::new());
        let b = Arc::new(MetricsRecorder::new());
        let tee = TeeRecorder::new().with(a.clone()).with(b.clone());
        tee.gauge("g", 2.5);
        tee.event("e", &[("k", FieldValue::Bool(true))]);
        for m in [&a, &b] {
            let snap = m.snapshot();
            assert_eq!(snap.gauge("g"), Some(2.5));
            let e = snap.events_named("e").next().unwrap();
            assert_eq!(e.field("k"), Some(&OwnedValue::Bool(true)));
        }
    }

    #[test]
    fn time_phase_records_when_enabled() {
        let m = MetricsRecorder::new();
        let out = time_phase(&m, "p", || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(m.snapshot().phase("p").map(|p| p.count), Some(1));
    }

    #[test]
    fn phase_timer_started_disabled_records_nothing() {
        // The timer carries no clock, so even an enabled recorder passed
        // to `lap`/`finish` receives nothing.
        let m = MetricsRecorder::new();
        let mut t = PhaseTimer::start(&NullRecorder);
        t.lap(&m, "first");
        t.finish(&m, "second");
        assert!(m.snapshot().phases.is_empty());
    }

    #[test]
    fn phase_timer_records_laps() {
        let m = MetricsRecorder::new();
        let mut t = PhaseTimer::start(&m);
        t.lap(&m, "first");
        t.finish(&m, "second");
        let snap = m.snapshot();
        assert_eq!(snap.phase("first").map(|p| p.count), Some(1));
        assert_eq!(snap.phase("second").map(|p| p.count), Some(1));
    }
}
