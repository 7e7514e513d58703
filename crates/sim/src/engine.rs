//! The trace-driven simulation engine.
//!
//! A simulation is two halves: the [request generator](crate::generator),
//! which turns the block trace into the L1I request stream, and the
//! [cache walk](crate::walk), which drives that stream through the cache
//! hierarchy under one replacement policy. The request stream is
//! replacement-policy-independent — prefetcher and branch-predictor state
//! never observe cache contents — so one generated stream is valid for
//! every policy.
//!
//! A run takes one of two drivers, both feeding the same cache walk:
//!
//! * **capture replay**: the captured stream fed back to the cache walk in
//!   stream order ([`ColumnarStream::replay`]);
//! * the **streaming pass**: the generator feeds the cache walk directly,
//!   with no buffer in between.
//!
//! The choice reads session state only: a run replays the capture whenever
//! the session holds one, and streams when it does not. Offline-ideal
//! policies (OPT, Demand-MIN) always capture, because their
//! [`FutureIndex`] is built from the capture; every other run uses a
//! capture only if one is already in hand. Callers that know a session
//! will run several times take the capture up front with
//! [`SimSession::ensure_recorded`], so every later run skips the generator.
//!
//! [`SimSession`] shares the capture and its [`FutureIndex`] across runs:
//! a policy matrix pays for them at most once per (program, layout, trace,
//! config). Sessions are `Sync`; one session can serve runs from many
//! threads concurrently.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use ripple_obs::{time_phase, FieldValue, NullRecorder, PhaseTimer, Recorder};
use ripple_program::{Layout, Program};
use ripple_trace::{BbTrace, TraceHealth};

use crate::cache::Cache;
use crate::capture::{capture, ColumnarStream, StreamLimitError};
use crate::config::SimConfig;
use crate::generator::{warmup_until, RequestGenerator};
use crate::intern::{BlockTable, FetchPlan, LineTable};
use crate::policy::registry::PolicyKind;
use crate::policy::{build_ideal_policy, build_policy, FutureIndex, LruPolicy, ReplacementPolicy};
use crate::sink::{EvictionSink, NullSink};
use crate::stats::SimStats;
use crate::walk::{prewarm_l3, CacheWalk};

/// The policy-independent artifacts of a capture.
struct Recording {
    stream: ColumnarStream,
    future: Arc<FutureIndex>,
}

/// A reusable simulation context over one (program, layout, trace, config).
///
/// The session replays any [`PolicyKind`] against the same inputs. It
/// captures the L1I request stream lazily, at most once — on the first
/// offline-ideal run, or on [`SimSession::ensure_recorded`] —
/// and shares the capture and its [`FutureIndex`] across runs, including
/// concurrent runs from multiple threads, since `&self` suffices to run.
/// Once a capture exists every run replays it instead of regenerating the
/// request stream.
///
/// Each run names its policy; the config (geometry, prefetcher, eviction
/// mechanism, scripted invalidations) is fixed for the session's
/// lifetime. The captured stream is valid for every policy because the
/// request stream only depends on the trace, the layout and the
/// prefetcher — never on cache contents.
///
/// # Examples
///
/// ```
/// use ripple_program::{Layout, LayoutConfig};
/// use ripple_sim::{PolicyKind, SimConfig, SimSession};
/// use ripple_workloads::{execute, generate, AppSpec, InputConfig};
///
/// let app = generate(&AppSpec::tiny(1));
/// let layout = Layout::new(&app.program, &LayoutConfig::default());
/// let trace = execute(&app.program, &app.model, InputConfig::training(1), 20_000);
///
/// let session = SimSession::new(&app.program, &layout, &trace, SimConfig::default());
/// let lru = session.run(PolicyKind::LRU);
/// let opt = session.run(PolicyKind::OPT);
/// let demand_min = session.run(PolicyKind::DEMAND_MIN);
/// assert!(opt.demand_misses <= lru.demand_misses);
/// assert!(demand_min.demand_misses <= lru.demand_misses);
/// // Both oracle runs shared one recording pass.
/// assert_eq!(session.recording_passes(), 1);
/// ```
pub struct SimSession<'a> {
    program: &'a Program,
    layout: &'a Layout,
    trace: &'a BbTrace,
    config: SimConfig,
    /// Dense interning of this layout's reachable lines, built once per
    /// session and shared by every run (plain data, so the session stays
    /// `Sync`).
    table: LineTable,
    /// Precomputed block → interned-lines fetch plan over `table`.
    plan: FetchPlan,
    /// Per-block instruction counts and interned invalidate operands.
    blocks: BlockTable,
    recorded: OnceLock<Result<Recording, StreamLimitError>>,
    recording_passes: AtomicU32,
    /// The pre-warmed L3 every run starts from, built on the first run and
    /// cloned for each run after.
    l3: OnceLock<Cache<LruPolicy>>,
    /// Observability sink; [`NullRecorder`] (the default) keeps every
    /// instrumented seam on its free path.
    recorder: Arc<dyn Recorder>,
    /// Decode-health of the input trace when it came through the lossy
    /// decoder; stamped onto every run's stats and gauges.
    trace_health: Option<TraceHealth>,
}

impl std::fmt::Debug for SimSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("trace_len", &self.trace.len())
            .field("config", &self.config)
            .field("recording_passes", &self.recording_passes())
            .finish_non_exhaustive()
    }
}

impl<'a> SimSession<'a> {
    /// Creates a session; no simulation happens until a run is requested.
    pub fn new(
        program: &'a Program,
        layout: &'a Layout,
        trace: &'a BbTrace,
        config: SimConfig,
    ) -> Self {
        let table = LineTable::build(layout);
        let plan = FetchPlan::build(program, layout, &table);
        let blocks = BlockTable::build(program, &table);
        SimSession {
            program,
            layout,
            trace,
            config,
            table,
            plan,
            blocks,
            recorded: OnceLock::new(),
            recording_passes: AtomicU32::new(0),
            l3: OnceLock::new(),
            recorder: Arc::new(NullRecorder),
            trace_health: None,
        }
    }

    /// Attaches the decode-health of the session's trace (as produced by
    /// `reconstruct_trace_lossy`). Every run stamps
    /// [`SimStats::dropped_packets`] / [`SimStats::resync_events`] from it
    /// and, when a recorder is attached, reports the
    /// `trace.dropped_packets` / `trace.resync_events` gauges — so a run
    /// over a degraded trace is visibly degraded in its outputs.
    pub fn with_trace_health(mut self, health: TraceHealth) -> Self {
        self.trace_health = Some(health);
        self
    }

    /// The attached trace decode-health, if any.
    pub fn trace_health(&self) -> Option<TraceHealth> {
        self.trace_health
    }

    /// Attaches an observability recorder; subsequent runs report
    /// `session.*` and `frontend.*` phases into it. Recorders observe
    /// only — simulation outputs stay byte-identical (the determinism
    /// suite asserts this).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached observability recorder ([`NullRecorder`] by default).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The session's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The program being simulated.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The layout being simulated.
    pub fn layout(&self) -> &'a Layout {
        self.layout
    }

    /// The trace being simulated.
    pub fn trace(&self) -> &'a BbTrace {
        self.trace
    }

    /// Simulates under `policy`, discarding evictions.
    ///
    /// # Panics
    ///
    /// Panics if the trace produces more cache requests than the columnar
    /// capture can index (≥ `u32::MAX` records); use
    /// [`SimSession::try_run`] to handle that as a typed error.
    pub fn run(&self, policy: PolicyKind) -> SimStats {
        self.run_with_sink(policy, &mut NullSink)
    }

    /// Simulates under `policy`, streaming every L1I eviction into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if the trace produces more cache requests than the columnar
    /// capture can index (≥ `u32::MAX` records); use
    /// [`SimSession::try_run_with_sink`] to handle that as a typed error.
    pub fn run_with_sink(&self, policy: PolicyKind, sink: &mut dyn EvictionSink) -> SimStats {
        // The panic is the documented contract; the try_* entry points
        // exist for callers that want the typed error instead.
        #[allow(clippy::expect_used)]
        self.try_run_with_sink(policy, sink)
            .expect("request stream exceeds the columnar capture's u32 capacity")
    }

    /// [`SimSession::run`], returning a typed [`StreamLimitError`] instead
    /// of panicking when the trace produces more cache requests than the
    /// columnar capture can index.
    pub fn try_run(&self, policy: PolicyKind) -> Result<SimStats, StreamLimitError> {
        self.try_run_with_sink(policy, &mut NullSink)
    }

    /// [`SimSession::run_with_sink`], returning a typed
    /// [`StreamLimitError`] instead of panicking when the trace produces
    /// more cache requests than the columnar capture can index.
    pub fn try_run_with_sink(
        &self,
        policy: PolicyKind,
        sink: &mut dyn EvictionSink,
    ) -> Result<SimStats, StreamLimitError> {
        let timer = PhaseTimer::start(&*self.recorder);
        // Oracles always capture: their future index is built from it.
        // Every other run uses a capture if one is already in hand, and
        // streams otherwise, also after a failed capture: streaming has no
        // u32 position limit.
        let recording = if policy.is_offline_ideal() {
            Some(self.recorded()?)
        } else {
            self.recorded.get().and_then(|r| r.as_ref().ok())
        };
        let mut stats = self.run_walk(policy, recording, sink);
        if let Some(health) = self.trace_health {
            stats.dropped_packets = health.dropped_packets;
            stats.resync_events = health.resync_events;
        }
        if self.recorder.enabled() {
            if let Some(health) = self.trace_health {
                self.recorder
                    .gauge("trace.dropped_packets", health.dropped_packets as f64);
                self.recorder
                    .gauge("trace.resync_events", health.resync_events as f64);
            }
            self.recorder.add("session.runs", 1);
            self.recorder.event(
                "session.run",
                &[
                    ("policy", FieldValue::Str(policy.name())),
                    ("blocks", FieldValue::U64(stats.blocks)),
                ],
            );
            timer.finish(&*self.recorder, "session.run");
        }
        Ok(stats)
    }

    /// Statistics for the paper's *ideal I-cache* (no misses at all).
    pub fn run_ideal_cache(&self) -> SimStats {
        simulate_ideal_cache(self.program, self.trace, &self.config)
    }

    /// How many capture passes this session has performed (0 before any
    /// oracle run, never more than 1 after unless
    /// [`SimSession::release_capture`] dropped the capture).
    pub fn recording_passes(&self) -> u32 {
        self.recording_passes.load(Ordering::Acquire)
    }

    /// Forces the shared capture pass (and its [`FutureIndex`]) to run
    /// now; it otherwise happens lazily on the first offline-ideal run. Lets callers pay the pass up front — before spawning
    /// replay threads, or because the session will run more than once.
    /// Every later run then replays the capture instead of regenerating
    /// the request stream.
    ///
    /// # Panics
    ///
    /// Panics if the trace produces more cache requests than the columnar
    /// capture can index; use [`SimSession::try_ensure_recorded`] to
    /// handle that as a typed error.
    pub fn ensure_recorded(&self) {
        // The panic is the documented contract; try_ensure_recorded is the
        // fallible variant.
        #[allow(clippy::expect_used)]
        self.try_ensure_recorded()
            .expect("request stream exceeds the columnar capture's u32 capacity")
    }

    /// [`SimSession::ensure_recorded`], returning a typed
    /// [`StreamLimitError`] instead of panicking when the trace produces
    /// more cache requests than the capture's `u32` positions can index.
    pub fn try_ensure_recorded(&self) -> Result<(), StreamLimitError> {
        self.recorded().map(|_| ())
    }

    /// Drops the captured request stream and its future index, freeing
    /// their memory. Later runs stream, or capture again if they need a
    /// capture; their results are unchanged.
    pub fn release_capture(&mut self) {
        self.recorded = OnceLock::new();
    }

    /// A fresh request generator over this session's trace inputs.
    fn generator<'s>(&'s self, cfg: &'s SimConfig) -> RequestGenerator<'s> {
        RequestGenerator::new(
            self.program,
            self.layout,
            cfg,
            &self.plan,
            &self.blocks,
            self.table.len(),
        )
    }

    fn recorded(&self) -> Result<&Recording, StreamLimitError> {
        self.recorded
            .get_or_init(|| {
                self.recording_passes.fetch_add(1, Ordering::AcqRel);
                self.recorder.add("session.recording_passes", 1);
                // The request stream never reads cache contents, so the
                // capture runs no cache model at all: one generator pass,
                // bit-packed as it goes. A trace beyond the u32 record
                // capacity surfaces here, at record time, and the error is
                // cached like a successful pass.
                let stream = time_phase(&*self.recorder, "session.record", || {
                    capture(
                        self.generator(&self.config),
                        self.table.len(),
                        self.trace.iter(),
                        &*self.recorder,
                    )
                })?;
                let future = time_phase(&*self.recorder, "session.future_index", || {
                    FutureIndex::build_packed(&stream.packed, self.table.len())
                });
                Ok(Recording { stream, future })
            })
            .as_ref()
            .map_err(|&e| e)
    }

    /// A copy of the session's pre-warmed L3, which is built on first use.
    /// Every run starts from the same L3 state, LRU clock and stamps
    /// included, and no run pays the pre-warm walk again.
    fn prewarmed_l3(&self) -> Cache<LruPolicy> {
        self.l3
            .get_or_init(|| prewarm_l3(self.program, &self.table, &self.plan, &self.config))
            .clone()
    }

    /// One run: capture replay when `recording` is present, the streaming
    /// pass (the request generator feeding the cache walk directly)
    /// otherwise. Both drive the same [`CacheWalk`] over a fresh L2 and a
    /// copy of the session's pre-warmed L3, each built with only the ways
    /// the session's lines can fill (exact, because they are LRU and the
    /// line ids are contiguous; the L1I keeps its full geometry). A run's
    /// setup thus scales with the program, not with Table II's 10 MB L3.
    fn run_walk(
        &self,
        policy: PolicyKind,
        recording: Option<&Recording>,
        sink: &mut dyn EvictionSink,
    ) -> SimStats {
        let cfg = &self.config;
        let warmup = warmup_until(self.trace.len(), cfg);
        let mut walk = CacheWalk::new(
            self.layout,
            cfg,
            &self.table,
            &self.blocks,
            self.prewarmed_l3(),
            policy_for(policy, cfg, recording.map(|rec| &rec.future)),
            warmup,
            sink,
        );
        let trace = self.trace.iter();
        let Ok(base) = match recording {
            Some(rec) => rec.stream.replay(trace, warmup, &mut walk, &*self.recorder),
            None => self.generator(cfg).run(trace, &mut walk, &*self.recorder),
        };
        walk.finish(base)
    }
}

/// A fresh L1I `policy` for one run: an offline ideal reads the
/// capture's `future`, an online policy is built from the config.
fn policy_for(
    policy: PolicyKind,
    cfg: &SimConfig,
    future: Option<&Arc<FutureIndex>>,
) -> Box<dyn ReplacementPolicy> {
    match future {
        Some(future) if policy.is_offline_ideal() => {
            build_ideal_policy(policy, cfg.l1i, future.clone())
        }
        _ => build_policy(policy, cfg),
    }
}

/// Statistics for the paper's *ideal I-cache* (no misses at all): every
/// fetch hits, so cycles are purely `instructions × base_cpi`. This is
/// the Fig. 1 upper bound.
pub fn simulate_ideal_cache(program: &Program, trace: &BbTrace, config: &SimConfig) -> SimStats {
    let warmup = warmup_until(trace.len(), config) as usize;
    let mut stats = SimStats {
        blocks: (trace.len() - warmup) as u64,
        ..SimStats::default()
    };
    for block in trace.iter().skip(warmup) {
        let bb = program.block(block);
        stats.instructions += bb.original_instructions().len() as u64;
        stats.invalidate_instructions += u64::from(bb.injected_prefix_len());
    }
    let total = stats.instructions + stats.invalidate_instructions;
    stats.cycles = total as f64 * config.base_cpi;
    stats
}

/// The ideal oracle matching a prefetcher configuration: prefetch-aware
/// Demand-MIN when prefetching is active, plain OPT otherwise (§II-C).
pub fn ideal_policy_for(prefetcher: crate::config::PrefetcherKind) -> PolicyKind {
    if prefetcher == crate::config::PrefetcherKind::None {
        PolicyKind::OPT
    } else {
        PolicyKind::DEMAND_MIN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherKind;
    use crate::sink::VecSink;
    use ripple_program::LayoutConfig;
    use ripple_workloads::{execute, generate, AppSpec, InputConfig};

    fn small_setup() -> (ripple_program::Program, Layout, BbTrace) {
        let app = generate(&AppSpec::tiny(5));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(5), 40_000);
        (app.program, layout, trace)
    }

    /// The tiny app fits in a 32 KB L1I; shrink it so misses happen after
    /// warmup.
    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.l1i = crate::config::CacheGeometry::new(1024, 2);
        cfg
    }

    #[test]
    fn lru_simulation_produces_sane_stats() {
        let (p, l, t) = small_setup();
        let stats = SimSession::new(&p, &l, &t, SimConfig::default()).run(PolicyKind::LRU);
        // Statistics only accumulate after the warmup fraction.
        let warmup = (t.len() as f64 * SimConfig::default().warmup_fraction) as u64;
        assert_eq!(stats.blocks, t.len() as u64 - warmup);
        assert!(stats.instructions >= 40_000 / 2);
        assert!(stats.demand_accesses > 0);
        assert!(stats.demand_misses <= stats.demand_accesses);
        assert!(stats.cycles > 0.0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn every_run_of_a_session_starts_from_the_same_l3() {
        let (p, l, t) = small_setup();
        let session = SimSession::new(&p, &l, &t, small_cfg());
        let fresh = prewarm_l3(&p, &session.table, &session.plan, session.config());
        let first = session.prewarmed_l3();
        let stats = session.run(PolicyKind::LRU);
        let second = session.prewarmed_l3();
        assert!(
            first == fresh,
            "first run's L3 differs from a fresh pre-warm"
        );
        assert!(second == fresh, "a run leaked state into the session's L3");
        assert_eq!(session.run(PolicyKind::LRU), stats);
        assert_eq!(
            SimSession::new(&p, &l, &t, small_cfg()).run(PolicyKind::LRU),
            stats
        );
    }

    #[test]
    fn opt_never_loses_to_lru() {
        let (p, l, t) = small_setup();
        let lru = SimSession::new(&p, &l, &t, small_cfg()).run(PolicyKind::LRU);
        let opt = SimSession::new(&p, &l, &t, small_cfg()).run(PolicyKind::OPT);
        assert!(opt.demand_misses <= lru.demand_misses);
        assert!(lru.demand_misses > 0, "workload must miss");
    }

    #[test]
    fn prefetching_reduces_misses() {
        let (p, l, t) = small_setup();
        let none = SimSession::new(&p, &l, &t, small_cfg()).run(PolicyKind::LRU);
        let nlp = SimSession::new(
            &p,
            &l,
            &t,
            small_cfg().with_prefetcher(PrefetcherKind::NextLine),
        )
        .run(PolicyKind::LRU);
        let fdip = SimSession::new(
            &p,
            &l,
            &t,
            small_cfg().with_prefetcher(PrefetcherKind::Fdip),
        )
        .run(PolicyKind::LRU);
        assert!(nlp.demand_misses < none.demand_misses);
        assert!(fdip.demand_misses < none.demand_misses);
        assert!(nlp.prefetches_issued > 0);
        assert!(fdip.prefetches_issued > 0);
    }

    #[test]
    fn demand_min_never_loses_to_lru_under_prefetching() {
        let (p, l, t) = small_setup();
        for pf in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
            let cfg = small_cfg().with_prefetcher(pf);
            let lru = SimSession::new(&p, &l, &t, cfg.clone()).run(PolicyKind::LRU);
            let dm = SimSession::new(&p, &l, &t, cfg.clone()).run(PolicyKind::DEMAND_MIN);
            assert!(
                dm.demand_misses <= lru.demand_misses,
                "{}: {} > {}",
                pf.name(),
                dm.demand_misses,
                lru.demand_misses
            );
        }
    }

    #[test]
    fn ideal_cache_bounds_everything() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg();
        let ideal = simulate_ideal_cache(&p, &t, &cfg);
        let lru = SimSession::new(&p, &l, &t, cfg.clone()).run(PolicyKind::LRU);
        assert!(ideal.cycles < lru.cycles);
        assert_eq!(ideal.demand_misses, 0);
        assert_eq!(ideal.instructions, lru.instructions);
    }

    #[test]
    fn ideal_cache_counts_the_blocks_a_run_counts() {
        // Out-of-range fractions too: both clamp through `warmup_until`.
        let (p, l, t) = small_setup();
        for fraction in [0.0, 0.37, 0.95, -1.0] {
            let mut cfg = small_cfg();
            cfg.warmup_fraction = fraction;
            let ideal = simulate_ideal_cache(&p, &t, &cfg);
            let lru = SimSession::new(&p, &l, &t, cfg.clone()).run(PolicyKind::LRU);
            assert_eq!(ideal.blocks, lru.blocks, "warmup fraction {fraction}");
            assert_eq!(ideal.instructions, lru.instructions);
        }
    }

    #[test]
    fn eviction_sink_receives_ordered_log() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg();
        let mut sink = VecSink::new();
        let stats = SimSession::new(&p, &l, &t, cfg).run_with_sink(PolicyKind::LRU, &mut sink);
        let log = sink.into_events();
        // The log records warmup evictions too (the analysis wants them);
        // the counter only accumulates post-warmup.
        assert!(log.len() as u64 >= stats.evictions);
        assert!(!log.is_empty());
        for w in log.windows(2) {
            assert!(w[0].evict_pos <= w[1].evict_pos, "log must be ordered");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg().with_prefetcher(PrefetcherKind::Fdip);
        let a = SimSession::new(&p, &l, &t, cfg.clone()).run(PolicyKind::LRU);
        let b = SimSession::new(&p, &l, &t, cfg.clone()).run(PolicyKind::LRU);
        assert_eq!(a, b);
    }

    #[test]
    fn ideal_policy_for_picks_demand_min_under_prefetching() {
        assert_eq!(ideal_policy_for(PrefetcherKind::None), PolicyKind::OPT);
        for pf in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
            assert_eq!(
                ideal_policy_for(pf),
                PolicyKind::DEMAND_MIN,
                "{}",
                pf.name()
            );
        }
    }

    #[test]
    fn session_shares_one_recording_pass() {
        let (p, l, t) = small_setup();
        let session = SimSession::new(&p, &l, &t, small_cfg());
        assert_eq!(session.recording_passes(), 0);
        let opt = session.run(PolicyKind::OPT);
        assert_eq!(session.recording_passes(), 1);
        let dm = session.run(PolicyKind::DEMAND_MIN);
        let opt_again = session.run(PolicyKind::OPT);
        // Replaying a second (and third) oracle performed no new recording.
        assert_eq!(session.recording_passes(), 1);
        assert_eq!(opt, opt_again);
        assert!(dm.demand_accesses > 0);
    }

    #[test]
    fn a_shared_session_matches_a_fresh_session_per_run() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg().with_prefetcher(PrefetcherKind::Fdip);
        let session = SimSession::new(&p, &l, &t, cfg.clone());
        for kind in [
            PolicyKind::LRU,
            PolicyKind::SRRIP,
            PolicyKind::OPT,
            PolicyKind::DEMAND_MIN,
        ] {
            let fresh = SimSession::new(&p, &l, &t, cfg.clone()).run(kind);
            assert_eq!(session.run(kind), fresh, "{}", kind.name());
        }
    }

    #[test]
    fn trace_health_is_stamped_onto_stats_and_gauges() {
        let (p, l, t) = small_setup();
        let health = TraceHealth {
            total_bytes: 1000,
            dropped_bytes: 40,
            dropped_packets: 7,
            resync_events: 2,
        };
        let metrics = Arc::new(ripple_obs::MetricsRecorder::new());
        let session = SimSession::new(&p, &l, &t, small_cfg())
            .with_trace_health(health)
            .with_recorder(metrics.clone());
        let stats = session.run(PolicyKind::LRU);
        assert_eq!(stats.dropped_packets, 7);
        assert_eq!(stats.resync_events, 2);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("trace.dropped_packets"), Some(7.0));
        assert_eq!(snap.gauge("trace.resync_events"), Some(2.0));

        // Without attached health, the fields stay zero (lossless runs are
        // indistinguishable from pre-lossy behaviour).
        let plain = SimSession::new(&p, &l, &t, small_cfg()).run(PolicyKind::LRU);
        assert_eq!(plain.dropped_packets, 0);
        assert_eq!(plain.resync_events, 0);
        // Health stamping never perturbs the simulation itself.
        assert_eq!(
            SimStats {
                dropped_packets: 0,
                resync_events: 0,
                ..stats
            },
            plain
        );
    }

    /// A scripted-invalidation plan over real interned lines.
    fn small_script(layout: &Layout, trace: &BbTrace) -> Vec<(u64, ripple_program::LineAddr)> {
        let table = crate::intern::LineTable::build(layout);
        let mut script: Vec<(u64, ripple_program::LineAddr)> = (0..200u64)
            .map(|i| {
                let pos = (i * 37) % trace.len() as u64;
                let id = crate::LineId::new((i % u64::from(table.len())) as u32);
                (pos, table.line(id))
            })
            .collect();
        script.sort_by_key(|&(pos, _)| pos);
        script
    }

    #[test]
    fn streaming_and_capture_replay_are_byte_identical() {
        // A fresh session streams; one holding a capture replays it in
        // order. Both drivers must produce identical stats and identical
        // eviction streams.
        let (p, l, t) = small_setup();
        for pf in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
            let mut cfg = small_cfg().with_prefetcher(pf);
            cfg.scripted_invalidations = Some(Arc::new(small_script(&l, &t)));
            let captured = SimSession::new(&p, &l, &t, cfg.clone());
            captured.ensure_recorded();
            for kind in [
                PolicyKind::LRU,
                PolicyKind::TREE_PLRU,
                PolicyKind::SRRIP,
                PolicyKind::DRRIP,
                PolicyKind::RANDOM,
            ] {
                let fresh = SimSession::new(&p, &l, &t, cfg.clone());
                let mut sink = VecSink::new();
                let streamed = (fresh.run_with_sink(kind, &mut sink), sink.into_events());
                assert_eq!(fresh.recording_passes(), 0, "a fresh online run streams");
                let mut sink = VecSink::new();
                let replayed = (captured.run_with_sink(kind, &mut sink), sink.into_events());
                assert_eq!(
                    streamed.0,
                    replayed.0,
                    "{} under {}",
                    kind.name(),
                    pf.name()
                );
                assert_eq!(
                    streamed.1,
                    replayed.1,
                    "{} under {}: eviction streams diverge",
                    kind.name(),
                    pf.name()
                );
            }
            assert_eq!(captured.recording_passes(), 1);
        }
    }

    #[test]
    fn release_capture_streams_again_with_identical_results() {
        let (p, l, t) = small_setup();
        let mut session = SimSession::new(&p, &l, &t, small_cfg());
        let opt = session.run(PolicyKind::OPT);
        let lru = session.run(PolicyKind::LRU);
        assert_eq!(session.recording_passes(), 1);
        session.release_capture();
        // An online run after the release streams: no new capture.
        assert_eq!(session.run(PolicyKind::LRU), lru);
        assert_eq!(session.recording_passes(), 1);
        // An oracle captures again, once.
        assert_eq!(session.run(PolicyKind::OPT), opt);
        assert_eq!(session.run(PolicyKind::OPT), opt);
        assert_eq!(session.recording_passes(), 2);
    }

    #[test]
    fn try_run_succeeds_within_stream_capacity() {
        let (p, l, t) = small_setup();
        let session = SimSession::new(&p, &l, &t, small_cfg());
        assert!(session.try_ensure_recorded().is_ok());
        let stats = session.try_run(PolicyKind::OPT).unwrap();
        assert_eq!(stats, session.run(PolicyKind::OPT));
        let mut sink = VecSink::new();
        assert!(session
            .try_run_with_sink(PolicyKind::LRU, &mut sink)
            .is_ok());
    }

    #[test]
    fn concurrent_session_replays_are_deterministic() {
        let (p, l, t) = small_setup();
        let session = SimSession::new(&p, &l, &t, small_cfg());
        let sequential: Vec<SimStats> = [PolicyKind::OPT, PolicyKind::DEMAND_MIN, PolicyKind::LRU]
            .into_iter()
            .map(|k| session.run(k))
            .collect();
        let fresh = SimSession::new(&p, &l, &t, small_cfg());
        let fresh = &fresh;
        let parallel: Vec<SimStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = [PolicyKind::OPT, PolicyKind::DEMAND_MIN, PolicyKind::LRU]
                .into_iter()
                .map(|k| scope.spawn(move || fresh.run(k)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, parallel);
        assert_eq!(fresh.recording_passes(), 1);
    }
}
