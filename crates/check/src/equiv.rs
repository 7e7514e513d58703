//! Dimension 3: production vs reference frontend equivalence and warmup
//! accounting.
//!
//! The simulator's three drivers — the streaming pass, the in-order
//! capture replay and the set-batched replay of a captured stream — must
//! be observationally identical to the checker-owned
//! [`reference`](crate::reference) frontend: same
//! [`SimStats`] and the same byte-for-byte eviction stream, for every
//! policy, prefetcher, eviction mechanism, injected program, and
//! scripted-invalidation schedule.
//!
//! A second, independent oracle checks warmup accounting on the
//! production path alone: warmup is a *stats-only* gate, so rerunning a
//! case with `warmup_fraction = 0` must leave the eviction stream
//! untouched and can only grow each counter. This catches warmup bugs
//! mirrored identically in production and reference, which pure
//! comparison cannot see.

use std::sync::Arc;

use rand::{Rng, SeedableRng, StdRng};
use ripple_obs::MetricsRecorder;
use ripple_sim::{EvictionEvent, PolicyKind, SimStats};

use crate::case::{
    all_policies, gen_full_case, run_path, run_path_recorded, run_reference, FullCase,
};
use crate::shrink::{min_failing_prefix, shrink_list};

/// Named u64 counters of [`SimStats`], for field-level diff messages and
/// the warmup monotonicity check.
fn counters(s: &SimStats) -> [(&'static str, u64); 15] {
    [
        ("blocks", s.blocks),
        ("instructions", s.instructions),
        ("invalidate_instructions", s.invalidate_instructions),
        ("demand_accesses", s.demand_accesses),
        ("demand_misses", s.demand_misses),
        ("compulsory_misses", s.compulsory_misses),
        ("served_l2", s.served_l2),
        ("served_l3", s.served_l3),
        ("served_mem", s.served_mem),
        ("prefetches_issued", s.prefetches_issued),
        ("prefetch_fills", s.prefetch_fills),
        ("evictions", s.evictions),
        (
            "prefetch_pollution_evictions",
            s.prefetch_pollution_evictions,
        ),
        ("invalidate_hits", s.invalidate_hits),
        ("mispredictions", s.mispredictions),
    ]
}

fn diff_stats(a: &SimStats, b: &SimStats) -> String {
    let mut fields: Vec<String> = counters(a)
        .iter()
        .zip(counters(b).iter())
        .filter(|((_, x), (_, y))| x != y)
        .map(|((name, x), (_, y))| format!("{name}: {x} vs {y}"))
        .collect();
    if a.cycles != b.cycles {
        fields.push(format!("cycles: {} vs {}", a.cycles, b.cycles));
    }
    fields.join(", ")
}

/// How one production run diverges from the reference, if it does.
fn divergence(
    path: &str,
    policy: PolicyKind,
    (si, ei): &(SimStats, Vec<EvictionEvent>),
    (sr, er): &(SimStats, Vec<EvictionEvent>),
) -> Option<String> {
    if si != sr {
        return Some(format!(
            "{path} and reference stats diverge under {policy:?}: {}",
            diff_stats(si, sr)
        ));
    }
    if ei != er {
        let idx = ei
            .iter()
            .zip(er.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(ei.len().min(er.len()));
        return Some(format!(
            "{path} and reference eviction streams diverge under {policy:?} at event {idx} \
             ({} vs {} events)",
            ei.len(),
            er.len()
        ));
    }
    None
}

/// The divergence test applied to one (case, policy) pair.
fn violation(case: &FullCase, policy: PolicyKind) -> Option<String> {
    let reference = run_reference(case, policy);
    let production = run_path(case, policy, None);
    if let Some(message) = divergence("production", policy, &production, &reference) {
        return Some(message);
    }
    // Once the session holds a capture, every policy replays it in order;
    // a set-local policy at more than one shard replays it set-batched.
    let captured = run_path(case, policy, Some(1));
    if let Some(message) = divergence("capture replay", policy, &captured, &reference) {
        return Some(message);
    }
    if policy.replay_set_local() {
        let batched = run_path(case, policy, Some(2));
        if let Some(message) = divergence("batched replay", policy, &batched, &reference) {
            return Some(message);
        }
    }
    let (si, ei) = production;

    // Independent warmup oracle on the production path.
    if case.config.warmup_fraction > 0.0 {
        let cold = {
            let mut c = case.with_script(case.script().map(<[_]>::to_vec).unwrap_or_default());
            c.config.warmup_fraction = 0.0;
            c
        };
        let (sc, ec) = run_path(&cold, policy, None);
        if ec != ei {
            return Some(format!(
                "warmup changed the eviction stream under {policy:?}: {} cold vs {} warm events",
                ec.len(),
                ei.len()
            ));
        }
        for ((name, warm), (_, no_warmup)) in counters(&si).iter().zip(counters(&sc).iter()) {
            if warm > no_warmup {
                return Some(format!(
                    "warmup *increased* {name} under {policy:?}: {warm} warm vs {no_warmup} cold"
                ));
            }
        }
        // Warmup-gated scripted invalidations: with no injected
        // instructions in the program, every counted invalidate hit comes
        // from a script entry at a post-warmup position.
        if let Some(script) = case.script() {
            if !case.injected {
                let warmup_until =
                    (case.trace.len() as f64 * case.config.warmup_fraction.clamp(0.0, 0.9)) as u64;
                let eligible = script
                    .iter()
                    .filter(|&&(pos, _)| pos >= warmup_until)
                    .count() as u64;
                if si.invalidate_hits > eligible {
                    return Some(format!(
                        "{} invalidate hits counted under {policy:?} but only {} script entries \
                         fall after warmup position {warmup_until}",
                        si.invalidate_hits, eligible
                    ));
                }
            }
        }
    }
    None
}

fn pick_policy(seed: u64) -> PolicyKind {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let pool = all_policies();
    pool[rng.gen_range(0..pool.len())]
}

/// Checks one generated case; shrinks the trace (then the script) on
/// failure.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let case = gen_full_case(seed);
    let policy = pick_policy(seed);
    let Some(message) = violation(&case, policy) else {
        return Ok(());
    };

    // Shrink: shortest failing trace prefix first, then ddmin the script.
    let len = min_failing_prefix(case.trace.len(), |n| {
        violation(&case.truncated(n), policy).is_some()
    });
    let mut minimal = case.truncated(len);
    if let Some(script) = minimal.script().map(<[_]>::to_vec) {
        if !script.is_empty() {
            let kept = shrink_list(&script, |entries| {
                violation(&minimal.with_script(entries.to_vec()), policy).is_some()
            });
            if kept.len() < script.len()
                && violation(&minimal.with_script(kept.clone()), policy).is_some()
            {
                minimal = minimal.with_script(kept);
            }
        }
    }
    let final_message = violation(&minimal, policy).expect("shrunk case still fails");
    let repro = format!(
        "case: {}\npolicy: {policy:?}\ntrace shrunk {} -> {} blocks, script {} entries\nscript: {:?}\n{}",
        minimal.label,
        case.trace.len(),
        minimal.trace.len(),
        minimal.script().map_or(0, <[_]>::len),
        minimal.script().unwrap_or(&[]),
        final_message,
    );
    Err((message, repro))
}

/// [`check`] rerun with a live [`MetricsRecorder`] attached: attaching an
/// observability recorder must leave stats and the full eviction stream
/// byte-identical to the unrecorded run, and the recorder must actually
/// have seen the run (at least one `session.run` phase lap).
pub fn check_recorded(seed: u64) -> Result<(), (String, String)> {
    let case = gen_full_case(seed);
    let policy = pick_policy(seed);
    let (plain_stats, plain_events) = run_path(&case, policy, None);
    let recorder = Arc::new(MetricsRecorder::new());
    let (rec_stats, rec_events) = run_path_recorded(&case, policy, recorder.clone());
    let problem = if rec_stats != plain_stats {
        Some(format!(
            "recorder changed the stats under {policy:?}: {}",
            diff_stats(&plain_stats, &rec_stats)
        ))
    } else if rec_events != plain_events {
        Some(format!(
            "recorder changed the eviction stream under {policy:?} ({} vs {} events)",
            plain_events.len(),
            rec_events.len()
        ))
    } else {
        let snapshot = recorder.snapshot();
        match snapshot.phase("session.run") {
            Some(stat) if stat.count > 0 => None,
            _ => Some(format!(
                "recorder saw no session.run phase under {policy:?}"
            )),
        }
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
    fn paths_agree_on_many_seeds() {
        for seed in 0..24 {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn recording_never_perturbs_a_run() {
        for seed in 0..16 {
            if let Err((msg, repro)) = check_recorded(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }
}
