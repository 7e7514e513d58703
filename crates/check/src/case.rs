//! Random full-simulator case generation.
//!
//! One [`FullCase`] is everything a simulator run needs — program, layout,
//! trace, [`SimConfig`] — drawn deterministically from a single seed:
//! randomized application specs (via [`AppSpec::randomized`]), random
//! cache geometry / prefetcher / eviction mechanism / warmup, an optional
//! injected-invalidate rewrite, and an optional scripted-invalidation
//! schedule sampled from a pilot run's evictions.

use std::sync::Arc;

use rand::{Rng, SeedableRng, StdRng};
use ripple_obs::NullRecorder;
use ripple_program::{
    rewrite, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig, LineAddr, Program,
};
use ripple_sim::{
    CacheGeometry, EvictionMechanism, PolicyKind, PolicyRegistry, PrefetcherKind, SimConfig,
    SimSession, Temperature, TemperatureMap, VecSink,
};
use ripple_trace::BbTrace;
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

/// All replacement policies the full-simulator dimensions may select:
/// everything in the global registry, so a newly registered policy is
/// fuzzed without any checker edit.
pub fn all_policies() -> Vec<PolicyKind> {
    PolicyRegistry::global().all().collect()
}

/// Small L1I geometries that actually miss on the tiny fuzzed programs.
const L1I_GEOMETRIES: [(u64, u16); 5] = [(512, 2), (1024, 2), (1024, 4), (2048, 4), (4096, 8)];

/// A fully materialized random simulation case.
pub struct FullCase {
    /// Short human-readable description for repros.
    pub label: String,
    /// The (possibly rewritten) program.
    pub program: Program,
    /// Its layout.
    pub layout: Layout,
    /// The executed block trace (valid for the rewritten program too:
    /// `rewrite` preserves `BlockId`s).
    pub trace: BbTrace,
    /// Simulator configuration, scripted invalidations included.
    pub config: SimConfig,
    /// Whether the program carries injected invalidate instructions.
    pub injected: bool,
}

impl std::fmt::Debug for FullCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FullCase")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl FullCase {
    /// The scripted schedule, if any.
    pub fn script(&self) -> Option<&[(u64, LineAddr)]> {
        self.config
            .scripted_invalidations
            .as_deref()
            .map(Vec::as_slice)
    }

    /// This case with its trace truncated to `len` blocks and the script
    /// clipped to positions inside the truncated trace — the shrinking
    /// step (trace prefixes are valid CFG walks).
    pub fn truncated(&self, len: usize) -> FullCase {
        let mut config = self.config.clone();
        if let Some(script) = self.script() {
            let clipped: Vec<(u64, LineAddr)> = script
                .iter()
                .copied()
                .filter(|&(pos, _)| pos < len as u64)
                .collect();
            config.scripted_invalidations = (!clipped.is_empty()).then(|| Arc::new(clipped));
        }
        FullCase {
            label: format!("{} [truncated to {len}]", self.label),
            program: self.program.clone(),
            layout: self.layout.clone(),
            trace: BbTrace::new(self.trace.blocks()[..len].to_vec()),
            config,
            injected: self.injected,
        }
    }

    /// This case with a different scripted schedule (script shrinking).
    pub fn with_script(&self, script: Vec<(u64, LineAddr)>) -> FullCase {
        let mut config = self.config.clone();
        config.scripted_invalidations = (!script.is_empty()).then(|| Arc::new(script));
        FullCase {
            label: self.label.clone(),
            program: self.program.clone(),
            layout: self.layout.clone(),
            trace: BbTrace::new(self.trace.blocks().to_vec()),
            config,
            injected: self.injected,
        }
    }
}

/// Generates one full case from `seed`. The same seed always produces the
/// same case (spec, trace, config, injections, script).
pub fn gen_full_case(seed: u64) -> FullCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = if rng.gen_bool(0.4) {
        AppSpec::tiny(rng.next_u64())
    } else {
        AppSpec::randomized(rng.next_u64())
    };
    let app = generate(&spec);
    let base_layout = Layout::new(&app.program, &LayoutConfig::default());
    let budget = rng.gen_range(1500u64..=5000);
    let trace = execute(
        &app.program,
        &app.model,
        InputConfig::training(rng.next_u64()),
        budget,
    );

    // Optionally rewrite with a handful of manual injections so the
    // Demote/NoOp mechanisms and the injected-invalidate path execute.
    let injected = rng.gen_bool(0.4);
    let (program, layout) = if injected {
        let n = app.program.num_blocks() as u32;
        let mut plan = InjectionPlan::new();
        for _ in 0..rng.gen_range(1u32..=8) {
            plan.push(Injection {
                cue: BlockId::new(rng.gen_range(0..n)),
                victim: CodeLoc::new(BlockId::new(rng.gen_range(0..n)), 0),
            });
        }
        let rewritten = rewrite(&app.program, &base_layout, &plan);
        (rewritten.program, rewritten.layout)
    } else {
        (app.program, base_layout)
    };

    let (size, assoc) = L1I_GEOMETRIES[rng.gen_range(0..L1I_GEOMETRIES.len())];
    let mut config = SimConfig {
        l1i: CacheGeometry::new(size, assoc),
        prefetcher: match rng.gen_range(0u32..3) {
            0 => PrefetcherKind::None,
            1 => PrefetcherKind::NextLine,
            _ => PrefetcherKind::Fdip,
        },
        eviction_mechanism: match rng.gen_range(0u32..3) {
            0 => EvictionMechanism::Invalidate,
            1 => EvictionMechanism::Demote,
            _ => EvictionMechanism::NoOp,
        },
        warmup_fraction: [0.0, 0.1, 0.25, 0.4][rng.gen_range(0..4usize)],
        ftq_depth: rng.gen_range(4usize..=16),
        random_seed: rng.next_u64(),
        ..SimConfig::default()
    };

    // Optionally attach a random temperature profile over the program's
    // line span so TRRIP's hint-insertion path executes under every
    // full-simulator dimension (other policies ignore the map).
    if rng.gen_bool(0.3) {
        if let Some((lo, hi)) = layout.line_bounds().map(|(a, b)| (a.index(), b.index())) {
            let mut temps = TemperatureMap::new();
            for line in lo..=hi {
                match rng.gen_range(0u32..4) {
                    0 => temps.set(LineAddr::new(line), Temperature::Hot),
                    1 => temps.set(LineAddr::new(line), Temperature::Cold),
                    2 => temps.set(LineAddr::new(line), Temperature::Warm),
                    _ => {} // unprofiled: defaults to warm
                }
            }
            config.temperatures = Some(Arc::new(temps));
        }
    }

    // Optionally script invalidations: sample a pilot LRU run's evictions
    // (likely resident at their positions) plus a few arbitrary lines
    // (out-of-span fallbacks, misses).
    if rng.gen_bool(0.5) {
        let session = SimSession::new(&program, &layout, &trace, config.clone());
        let mut sink = VecSink::new();
        session.run_with_sink(PolicyKind::LRU, &mut sink);
        let mut script: Vec<(u64, LineAddr)> = sink
            .into_events()
            .into_iter()
            .filter(|_| rng.gen_bool(0.25))
            .map(|e| (e.evict_pos, e.victim))
            .take(150)
            .collect();
        let (lo, hi) = layout
            .line_bounds()
            .map(|(a, b)| (a.index(), b.index()))
            .unwrap_or((0, 8));
        for _ in 0..4 {
            let pos = rng.gen_range(0..trace.len() as u64);
            let line = rng.gen_range(lo.saturating_sub(3)..=hi + 3);
            script.push((pos, LineAddr::new(line)));
        }
        script.sort_unstable_by_key(|&(pos, _)| pos);
        config.scripted_invalidations = Some(Arc::new(script));
    }

    let label = format!(
        "app {} (spec seed {:#x}), {} blocks, l1i {}B/{}-way, {}, {:?}, warmup {}, injected {}, script {}, temps {}",
        spec.name,
        spec.seed,
        trace.len(),
        size,
        assoc,
        config.prefetcher.name(),
        config.eviction_mechanism,
        config.warmup_fraction,
        injected,
        config
            .scripted_invalidations
            .as_ref()
            .map_or(0, |s| s.len()),
        config.temperatures.as_ref().map_or(0, |t| t.len()),
    );
    FullCase {
        label,
        program,
        layout,
        trace,
        config,
        injected,
    }
}

/// Runs `case` through the production simulator and returns its stats
/// and full eviction stream. With `captured`, the session captures the
/// request stream first, so the run replays the capture in order instead
/// of taking the streaming pass (offline ideals capture either way).
pub fn run_path(
    case: &FullCase,
    policy: PolicyKind,
    captured: bool,
) -> (ripple_sim::SimStats, Vec<ripple_sim::EvictionEvent>) {
    let (stats, events, _) = run_path_recorded(case, policy, captured, Arc::new(NullRecorder));
    (stats, events)
}

/// Runs `case` through the checker-owned [`reference`](crate::reference)
/// frontend and returns its stats and full eviction stream.
pub fn run_reference(
    case: &FullCase,
    policy: PolicyKind,
) -> (ripple_sim::SimStats, Vec<ripple_sim::EvictionEvent>) {
    let mut sink = VecSink::new();
    let stats = crate::reference::run(
        &case.program,
        &case.layout,
        &case.trace,
        &case.config,
        policy,
        &mut sink,
    );
    (stats, sink.into_events())
}

/// [`run_path`] with an observability recorder attached to the session,
/// also returning the session's recording passes. Recorders observe,
/// never feed back: results must be identical to the unrecorded run,
/// which is exactly what the recorded dimensions check.
pub fn run_path_recorded(
    case: &FullCase,
    policy: PolicyKind,
    captured: bool,
    recorder: Arc<dyn ripple_obs::Recorder>,
) -> (ripple_sim::SimStats, Vec<ripple_sim::EvictionEvent>, u32) {
    let session = SimSession::new(
        &case.program,
        &case.layout,
        &case.trace,
        case.config.clone(),
    )
    .with_recorder(recorder);
    if captured {
        session.ensure_recorded();
    }
    let mut sink = VecSink::new();
    let stats = session.run_with_sink(policy, &mut sink);
    (stats, sink.into_events(), session.recording_passes())
}
