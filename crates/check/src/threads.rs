//! Dimension 4: thread-count invariance of the parallel harness.
//!
//! [`ripple::policy_matrix`] fans one [`SimSession`] out over a work-stealing
//! thread pool. The result must be a pure function of (session, policies):
//! running the same matrix at 1, 2, and 7 threads must return identical
//! [`SimStats`] vectors, and the shared recording pass behind the offline
//! ideal policies must happen at most once no matter how many workers race
//! to request it.
//!
//! [`SimSession`]: ripple_sim::SimSession
//! [`SimStats`]: ripple_sim::SimStats

use std::sync::Arc;

use rand::{Rng, SeedableRng, StdRng};
use ripple::policy_matrix;
use ripple_obs::MetricsRecorder;
use ripple_sim::{PolicyKind, SimSession};

use crate::case::{all_policies, gen_full_case, FullCase};
use crate::shrink::min_failing_prefix;

/// Picks 3..=5 distinct policies, always including at least one offline
/// ideal so the shared recording pass is exercised.
fn pick_policies(seed: u64) -> Vec<PolicyKind> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ead_c0de_5eed_f00d);
    let pool = all_policies();
    let want = rng.gen_range(3usize..=5);
    let mut picked: Vec<PolicyKind> = Vec::with_capacity(want);
    while picked.len() < want {
        let p = pool[rng.gen_range(0..pool.len())];
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    if !picked.iter().any(|p| p.is_offline_ideal()) {
        picked[0] = if rng.gen_bool(0.5) {
            PolicyKind::OPT
        } else {
            PolicyKind::DEMAND_MIN
        };
    }
    picked
}

/// The divergence test applied to one (case, policies) pair.
fn violation(case: &FullCase, policies: &[PolicyKind]) -> Option<String> {
    let session = SimSession::new(
        &case.program,
        &case.layout,
        &case.trace,
        case.config.clone(),
    );
    let baseline = policy_matrix(&session, policies, 1);
    for threads in [2usize, 4, 7] {
        let parallel = policy_matrix(&session, policies, threads);
        if parallel != baseline {
            let idx = parallel
                .iter()
                .zip(baseline.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Some(format!(
                "policy matrix differs between 1 and {threads} threads: first divergence at \
                 {:?} (job {idx})",
                policies[idx]
            ));
        }
    }
    let passes = session.recording_passes();
    if passes > 1 {
        return Some(format!(
            "offline recording ran {passes} times on one session; racing workers must share one pass"
        ));
    }
    None
}

/// Checks one generated case; shrinks the trace on failure.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let case = gen_full_case(seed);
    let policies = pick_policies(seed);
    let Some(message) = violation(&case, &policies) else {
        return Ok(());
    };
    let len = min_failing_prefix(case.trace.len(), |n| {
        violation(&case.truncated(n), &policies).is_some()
    });
    let minimal = case.truncated(len);
    let final_message = violation(&minimal, &policies).expect("shrunk case still fails");
    let repro = format!(
        "case: {}\npolicies: {policies:?}\ntrace shrunk {} -> {} blocks\n{}",
        minimal.label,
        case.trace.len(),
        minimal.trace.len(),
        final_message,
    );
    Err((message, repro))
}

/// [`check`]'s invariance extended to the observed harness: a matrix run
/// through a session carrying a [`MetricsRecorder`] must return the same
/// stats as the unobserved single-thread baseline, and the recorder must
/// report one `harness.job` per policy.
pub fn check_recorded(seed: u64) -> Result<(), (String, String)> {
    let case = gen_full_case(seed);
    let policies = pick_policies(seed);
    let plain_session = SimSession::new(
        &case.program,
        &case.layout,
        &case.trace,
        case.config.clone(),
    );
    let baseline = policy_matrix(&plain_session, &policies, 1);

    let recorder = Arc::new(MetricsRecorder::new());
    let recorded_session = SimSession::new(
        &case.program,
        &case.layout,
        &case.trace,
        case.config.clone(),
    )
    .with_recorder(recorder.clone());
    let observed = policy_matrix(&recorded_session, &policies, 4);

    let problem = if observed != baseline {
        Some("observed policy matrix diverges from the unobserved baseline".to_string())
    } else {
        let jobs = recorder.snapshot().counter("harness.jobs").unwrap_or(0);
        (jobs != policies.len() as u64).then(|| {
            format!(
                "recorder counted {jobs} harness jobs for {} policies",
                policies.len()
            )
        })
    };
    problem.map_or(Ok(()), |message| {
        let repro = format!("case: {}\npolicies: {policies:?}\n{message}", case.label);
        Err((message, repro))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_agree_on_many_seeds() {
        for seed in 0..12 {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn observed_matrix_matches_baseline_on_many_seeds() {
        for seed in 0..8 {
            if let Err((msg, repro)) = check_recorded(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn policy_picks_always_include_an_ideal() {
        for seed in 0..64 {
            let picked = pick_policies(seed);
            assert!((3..=5).contains(&picked.len()));
            assert!(picked.iter().any(|p| p.is_offline_ideal()), "seed {seed}");
        }
    }
}
