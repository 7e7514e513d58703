//! Dimension 8: replay shard-count invariance.
//!
//! `replay_shards` is a pure perf knob: partitioning the L1I sets across
//! N replay threads must leave both the [`SimStats`] and the full
//! eviction stream byte-identical to a single-shard run, whether the
//! policy actually shards (the set-local families) or falls back to the
//! in-order capture replay (global-state policies like DRRIP or Random).
//! Every
//! registered policy is fuzzed here, so a newly registered policy's
//! `set_local` claim is checked against its real replay behaviour on
//! random programs, geometries, prefetchers, eviction mechanisms and
//! scripted-invalidation schedules.
//!
//! [`SimStats`]: ripple_sim::SimStats

use std::sync::Arc;

use rand::{Rng, SeedableRng, StdRng};
use ripple_obs::MetricsRecorder;
use ripple_sim::{EvictionEvent, PolicyKind, SimSession, SimStats, VecSink};

use crate::case::{all_policies, gen_full_case, FullCase};
use crate::shrink::min_failing_prefix;

/// Picks the policy under test from the full registry (uniform, so the
/// sharding set-local families and the sequential-fallback families are
/// both exercised).
fn pick_policy(seed: u64) -> PolicyKind {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ea7_ba7c_4ed5_4a2d);
    let pool = all_policies();
    pool[rng.gen_range(0..pool.len())]
}

/// One captured-stream replay at a given shard count: stats plus the full
/// eviction stream.
fn run_sharded(
    case: &FullCase,
    policy: PolicyKind,
    shards: usize,
) -> (SimStats, Vec<EvictionEvent>) {
    let config = case.config.clone().with_replay_shards(shards);
    let session = SimSession::new(&case.program, &case.layout, &case.trace, config);
    // Record eagerly so every run replays the one captured stream: the
    // 1-shard baseline in order, the sharded set-local runs set-batched
    // (the dispatch only forces a capture for those).
    session.ensure_recorded();
    let mut sink = VecSink::new();
    let stats = session.run_with_sink(policy, &mut sink);
    (stats, sink.into_events())
}

/// The divergence test applied to one (case, policy) pair.
fn violation(case: &FullCase, policy: PolicyKind) -> Option<String> {
    let baseline = run_sharded(case, policy, 1);
    for shards in [2usize, 4, 7] {
        let sharded = run_sharded(case, policy, shards);
        if sharded != baseline {
            let what = if sharded.0 != baseline.0 {
                "stats".to_string()
            } else {
                let idx = sharded
                    .1
                    .iter()
                    .zip(baseline.1.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| baseline.1.len().min(sharded.1.len()));
                format!("eviction stream, first divergence at event {idx}")
            };
            return Some(format!(
                "{} replay diverges between 1 and {shards} shards ({what})",
                policy.name()
            ));
        }
    }
    None
}

/// Checks one generated case; shrinks the trace on failure.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let case = gen_full_case(seed);
    let policy = pick_policy(seed);
    let Some(message) = violation(&case, policy) else {
        return Ok(());
    };
    let len = min_failing_prefix(case.trace.len(), |n| {
        violation(&case.truncated(n), policy).is_some()
    });
    let minimal = case.truncated(len);
    let final_message = violation(&minimal, policy).expect("shrunk case still fails");
    let repro = format!(
        "case: {}\npolicy: {policy:?}\ntrace shrunk {} -> {} blocks\n{}",
        minimal.label,
        case.trace.len(),
        minimal.trace.len(),
        final_message,
    );
    Err((message, repro))
}

/// [`check`]'s invariance with a live [`MetricsRecorder`] attached to the
/// sharded session: observation must not perturb results, and the
/// recording pass must still happen exactly once no matter how many
/// shards replay it.
pub fn check_recorded(seed: u64) -> Result<(), (String, String)> {
    let case = gen_full_case(seed);
    let policy = pick_policy(seed);
    let baseline = run_sharded(&case, policy, 1);

    let recorder = Arc::new(MetricsRecorder::new());
    let config = case.config.clone().with_replay_shards(4);
    let session = SimSession::new(&case.program, &case.layout, &case.trace, config)
        .with_recorder(recorder.clone());
    session.ensure_recorded();
    let mut sink = VecSink::new();
    let stats = session.run_with_sink(policy, &mut sink);
    let observed = (stats, sink.into_events());

    let problem = if observed != baseline {
        Some("observed 4-shard replay diverges from the unobserved 1-shard baseline".to_string())
    } else {
        let passes = session.recording_passes();
        (passes != 1).then(|| format!("4-shard session performed {passes} recording passes"))
    };
    problem.map_or(Ok(()), |message| {
        let repro = format!("case: {}\npolicy: {policy:?}\n{message}", case.label);
        Err((message, repro))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_agree_on_many_seeds() {
        for seed in 0..12 {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn observed_sharded_replay_matches_baseline_on_many_seeds() {
        for seed in 0..8 {
            if let Err((msg, repro)) = check_recorded(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }
}
