//! Shared parallel evaluation harness with per-job panic isolation.
//!
//! Every consumer of the simulator — [`Ripple::evaluate_with_threshold`]'s
//! five runs, the CLI's policy-compare and threshold-sweep loops, the bench
//! crate's grid matrices — reduces to the same shape: a list of independent
//! simulation jobs whose results must come back *in job order*, bit-identical
//! to running them sequentially. This module expresses that shape once.
//!
//! Determinism: each job is a pure function of its inputs (the simulator is
//! deterministic), each result is stored in the slot of the job that produced
//! it, and nothing about scheduling leaks into a result. Running with one
//! thread or sixteen therefore yields byte-identical output; the
//! `tests/determinism.rs` suite asserts this end to end.
//!
//! Fault isolation: every job runs under [`std::panic::catch_unwind`]. A
//! panicking job never sinks its batch — the remaining jobs complete, and
//! the failure comes back as a typed [`JobError`] carrying the batch scope,
//! the job index and the panic message. [`run_jobs_settled`] exposes the
//! full per-job picture; [`run_jobs`] collapses it to first-error for
//! callers that need all results anyway. [`run_jobs_retrying`] re-runs
//! panicking jobs a bounded number of times for workloads with transient
//! failure modes.
//!
//! [`Ripple::evaluate_with_threshold`]: crate::Ripple::evaluate_with_threshold

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ripple_obs::{FieldValue, Recorder};
use ripple_sim::{PolicyKind, SimSession, SimStats};

use crate::error::JobError;

/// A unit of work for [`run_jobs`]: boxed so heterogeneous closures can
/// share one job list.
pub type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// A re-runnable unit of work for [`run_jobs_retrying`]: `Fn` rather than
/// `FnOnce`, so a panicked attempt can be retried.
pub type RetryJob<'env, T> = Box<dyn Fn() -> T + Send + Sync + 'env>;

/// Resolves a requested worker count: both `None` and `Some(0)` mean
/// "auto-detect" — the machine's available parallelism (at least 1).
///
/// `Some(0)` is the CLI's `--threads 0`; it is equivalent to omitting the
/// flag, never a request for a single thread (ask for that explicitly with
/// `Some(1)`). Over-subscribed counts are passed through untouched: the
/// harness caps workers at the job count, so requesting more threads than
/// jobs (or cores) is safe.
pub fn effective_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(0) | None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Some(n) => n,
    }
}

/// Renders a panic payload as text (panics with non-string payloads are
/// reported as `"<non-string panic>"`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Runs one job under `catch_unwind`, converting a panic into a
/// [`JobError`].
fn settle_one<T>(scope: &str, index: usize, job: Job<'_, T>) -> Result<T, JobError> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|payload| JobError {
        scope: scope.to_string(),
        index,
        attempts: 1,
        panic_message: panic_message(payload),
    })
}

/// Runs `jobs` on up to `threads` scoped worker threads, isolating each
/// job's panics, and returns the per-job outcomes in job order.
///
/// Jobs are claimed from a shared counter, so long jobs do not serialize
/// short ones; results land in the slot of the job that produced them, so
/// the output is independent of scheduling. With `threads <= 1` (or a
/// single job) everything runs inline on the caller's thread — the
/// sequential reference order the parallel path is measured against.
///
/// A panicking job yields an `Err(JobError)` in its slot; every other job
/// still runs and returns its own outcome. Panics never cross the harness
/// boundary.
pub fn run_jobs_settled<'env, T: Send>(
    threads: usize,
    scope: &str,
    jobs: Vec<Job<'env, T>>,
) -> Vec<Result<T, JobError>> {
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| settle_one(scope, i, job))
            .collect();
    }
    let slots: Vec<Mutex<Option<Job<'env, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<Result<T, JobError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Panics are contained by `settle_one`, so a worker can
                // never die mid-slot; poison recovery is pure belt and
                // braces (the data is a plain Option either way).
                let job = slots[i].lock().unwrap_or_else(|p| p.into_inner()).take();
                let Some(job) = job else { continue };
                let out = settle_one(scope, i, job);
                *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| {
                    Err(JobError {
                        scope: scope.to_string(),
                        index: i,
                        attempts: 0,
                        panic_message: "job was never run (harness bug)".to_string(),
                    })
                })
        })
        .collect()
}

/// Runs `jobs` on up to `threads` workers and returns their results in job
/// order, or the first (lowest-index) [`JobError`] if any job panicked.
///
/// The batch always runs to completion — a panicking job does not cancel
/// its siblings — but the partial results are discarded when any job
/// failed. Use [`run_jobs_settled`] to keep the survivors.
pub fn run_jobs<'env, T: Send>(
    threads: usize,
    jobs: Vec<Job<'env, T>>,
) -> Result<Vec<T>, JobError> {
    run_jobs_settled(threads, "jobs", jobs)
        .into_iter()
        .collect()
}

/// [`run_jobs_settled`] with bounded retry: each job is attempted up to
/// `max_attempts` times (panicked attempts are re-run from scratch), and a
/// job that panics on every attempt reports the *last* panic with its
/// attempt count.
///
/// Jobs must be [`Fn`] (see [`RetryJob`]) so an attempt can be repeated.
/// Retry only helps jobs with nondeterministic failure modes (I/O,
/// resource exhaustion); the simulator itself is deterministic, so its
/// panics repeat — which the attempt count then documents.
pub fn run_jobs_retrying<'env, T: Send + 'env>(
    threads: usize,
    scope: &str,
    max_attempts: u32,
    jobs: Vec<RetryJob<'env, T>>,
) -> Vec<Result<T, JobError>> {
    let max_attempts = max_attempts.max(1);
    let wrapped: Vec<Job<'env, Result<T, JobError>>> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| -> Job<'env, Result<T, JobError>> {
            let scope = scope.to_string();
            Box::new(move || {
                let mut last = None;
                for attempt in 1..=max_attempts {
                    match catch_unwind(AssertUnwindSafe(&job)) {
                        Ok(out) => return Ok(out),
                        Err(payload) => {
                            last = Some(JobError {
                                scope: scope.clone(),
                                index: i,
                                attempts: attempt,
                                panic_message: panic_message(payload),
                            });
                        }
                    }
                }
                Err(last.unwrap_or_else(|| JobError {
                    scope: scope.clone(),
                    index: i,
                    attempts: 0,
                    panic_message: "zero attempts (harness bug)".to_string(),
                }))
            })
        })
        .collect();
    run_jobs_settled(threads, scope, wrapped)
        .into_iter()
        .map(|slot| slot.and_then(|inner| inner))
        .collect()
}

/// [`run_jobs`] with per-job observability: wraps every job so its claim
/// and completion are reported to `recorder`, then runs the batch through
/// the plain engine (scheduling is shared, not duplicated).
///
/// Per job, a `harness.job` event carries the batch `scope`, the job
/// index, `queue_wait_ns` (batch start → the job being claimed by a
/// worker) and `run_ns`; a `harness.job` phase aggregates run times and a
/// `harness.jobs` counter tallies completions. A job that panics reports a
/// `harness.job_failed` counter and event instead, and the batch returns
/// the first [`JobError`]. The whole batch is wrapped in a `harness.batch`
/// phase with a start/finish event pair around it.
///
/// With a disabled recorder this delegates straight to [`run_jobs`] —
/// same closures, no clock reads — so observability never perturbs the
/// job results (which stay byte-identical either way; jobs are pure).
pub fn run_jobs_observed<'env, T: Send + 'env>(
    threads: usize,
    scope: &'env str,
    recorder: &'env dyn Recorder,
    jobs: Vec<Job<'env, T>>,
) -> Result<Vec<T>, JobError> {
    run_jobs_observed_settled(threads, scope, recorder, jobs)
        .into_iter()
        .collect()
}

/// [`run_jobs_settled`] with the observability of [`run_jobs_observed`]:
/// per-job outcomes, nothing collapsed.
pub fn run_jobs_observed_settled<'env, T: Send + 'env>(
    threads: usize,
    scope: &'env str,
    recorder: &'env dyn Recorder,
    jobs: Vec<Job<'env, T>>,
) -> Vec<Result<T, JobError>> {
    if !recorder.enabled() {
        return run_jobs_settled(threads, scope, jobs);
    }
    let n = jobs.len();
    recorder.event(
        "harness.batch",
        &[
            ("scope", FieldValue::Str(scope)),
            ("jobs", FieldValue::U64(n as u64)),
            ("threads", FieldValue::U64(threads.min(n.max(1)) as u64)),
        ],
    );
    let batch_start = Instant::now();
    let observed: Vec<Job<'env, T>> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| -> Job<'env, T> {
            Box::new(move || {
                let claimed = Instant::now();
                let queue_wait = (claimed - batch_start).as_nanos() as u64;
                let out = job();
                let run_ns = claimed.elapsed().as_nanos() as u64;
                recorder.phase("harness.job", run_ns);
                recorder.add("harness.jobs", 1);
                recorder.event(
                    "harness.job",
                    &[
                        ("scope", FieldValue::Str(scope)),
                        ("job", FieldValue::U64(i as u64)),
                        ("queue_wait_ns", FieldValue::U64(queue_wait)),
                        ("run_ns", FieldValue::U64(run_ns)),
                    ],
                );
                out
            })
        })
        .collect();
    let results = run_jobs_settled(threads, scope, observed);
    for (i, r) in results.iter().enumerate() {
        if r.is_err() {
            recorder.add("harness.job_failed", 1);
            recorder.event(
                "harness.job_failed",
                &[
                    ("scope", FieldValue::Str(scope)),
                    ("job", FieldValue::U64(i as u64)),
                ],
            );
        }
    }
    recorder.phase("harness.batch", batch_start.elapsed().as_nanos() as u64);
    results
}

/// Evaluates each policy of a matrix against one [`SimSession`], in
/// parallel, returning stats in `policies` order (or the first
/// [`JobError`] if a policy run panicked).
///
/// A matrix of more than one policy captures the session's request stream
/// up front, so every policy replays the one capture instead of
/// regenerating the stream: the whole matrix costs one recording pass (see
/// [`SimSession::recording_passes`]).
pub fn policy_matrix(
    session: &SimSession<'_>,
    policies: &[PolicyKind],
    threads: usize,
) -> Result<Vec<SimStats>, JobError> {
    if policies.len() > 1 {
        // The session caches a capture error; it resurfaces in the job of
        // any oracle, which needs the capture, while online policies
        // stream.
        let _ = session.try_ensure_recorded();
    }
    let jobs: Vec<Job<'_, SimStats>> = policies
        .iter()
        .map(|&p| -> Job<'_, SimStats> { Box::new(move || session.run(p)) })
        .collect();
    run_jobs_observed(threads, "policy_matrix", &**session.recorder(), jobs)
}

/// [`policy_matrix`] over *every* policy in the global registry, in
/// registration order — the CLI's `compare` and any other "run the whole
/// zoo" consumer get new policies for free when they are registered.
///
/// Returns `(policies, stats)` with matching order.
pub fn policy_matrix_all(
    session: &SimSession<'_>,
    threads: usize,
) -> Result<(Vec<PolicyKind>, Vec<SimStats>), JobError> {
    let policies: Vec<PolicyKind> = ripple_sim::PolicyRegistry::global().all().collect();
    let stats = policy_matrix(session, &policies, threads)?;
    Ok((policies, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_program::{Layout, LayoutConfig};
    use ripple_sim::SimConfig;
    use ripple_workloads::{execute, generate, AppSpec, InputConfig};

    /// Silences the default panic-to-stderr hook for the duration of a
    /// test that panics on purpose. Serialized so concurrent tests never
    /// interleave their hook swaps.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<Job<'_, usize>> = (0..32)
            .map(|i| -> Job<'_, usize> { Box::new(move || i * i) })
            .collect();
        let out = run_jobs(4, jobs).unwrap();
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq: Vec<Job<'_, u64>> = (0..17)
            .map(|i: u64| -> Job<'_, u64> { Box::new(move || i.wrapping_mul(0x9e37)) })
            .collect();
        let par: Vec<Job<'_, u64>> = (0..17)
            .map(|i: u64| -> Job<'_, u64> { Box::new(move || i.wrapping_mul(0x9e37)) })
            .collect();
        assert_eq!(run_jobs(1, seq).unwrap(), run_jobs(8, par).unwrap());
    }

    #[test]
    fn effective_threads_zero_means_auto_detect() {
        // `Some(0)` and `None` are the same request: the machine's
        // available parallelism, never fewer than one worker.
        assert_eq!(effective_threads(Some(0)), effective_threads(None));
        assert!(effective_threads(Some(0)) >= 1);
        assert_eq!(effective_threads(Some(1)), 1);
        assert_eq!(effective_threads(Some(3)), 3);
    }

    #[test]
    fn oversubscribed_threads_match_sequential() {
        // More workers than jobs (and than cores) must still return
        // results in job order, identical to the sequential run.
        let make = || -> Vec<Job<'_, u64>> {
            (0..5u64)
                .map(|i| -> Job<'_, u64> { Box::new(move || i * 31) })
                .collect()
        };
        assert_eq!(effective_threads(Some(1000)), 1000);
        assert_eq!(
            run_jobs(1000, make()).unwrap(),
            run_jobs(1, make()).unwrap()
        );
    }

    #[test]
    fn one_panicking_job_does_not_sink_the_batch() {
        // The poisoned job fails; all seven siblings still complete, at
        // one thread and at four.
        for threads in [1, 4] {
            let jobs: Vec<Job<'_, usize>> = (0..8)
                .map(|i| -> Job<'_, usize> {
                    Box::new(move || {
                        if i == 3 {
                            panic!("poisoned job {i}");
                        }
                        i * 10
                    })
                })
                .collect();
            let out = quiet_panics(|| run_jobs_settled(threads, "test", jobs));
            assert_eq!(out.len(), 8);
            for (i, slot) in out.iter().enumerate() {
                if i == 3 {
                    let err = slot.as_ref().unwrap_err();
                    assert_eq!(err.index, 3);
                    assert_eq!(err.scope, "test");
                    assert_eq!(err.attempts, 1);
                    assert!(err.panic_message.contains("poisoned job 3"));
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &(i * 10), "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn run_jobs_reports_the_first_error() {
        let jobs: Vec<Job<'_, u32>> = (0..6)
            .map(|i| -> Job<'_, u32> {
                Box::new(move || {
                    if i % 2 == 1 {
                        panic!("odd job {i}");
                    }
                    i
                })
            })
            .collect();
        let err = quiet_panics(|| run_jobs(3, jobs)).unwrap_err();
        assert_eq!(err.index, 1, "lowest failing index wins");
        assert!(err.panic_message.contains("odd job 1"));
    }

    #[test]
    fn retrying_recovers_transient_failures_and_counts_attempts() {
        use std::sync::atomic::AtomicU32;
        // Job 0 succeeds on attempt 3; job 1 always panics; job 2 is fine.
        let tries = AtomicU32::new(0);
        let jobs: Vec<RetryJob<'_, u32>> = vec![
            Box::new(|| {
                if tries.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                7
            }),
            Box::new(|| panic!("permanent")),
            Box::new(|| 42),
        ];
        let out = quiet_panics(|| run_jobs_retrying(1, "retry_test", 3, jobs));
        assert_eq!(out[0].as_ref().unwrap(), &7);
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.attempts, 3);
        assert!(err.panic_message.contains("permanent"));
        assert_eq!(out[2].as_ref().unwrap(), &42);
    }

    #[test]
    fn non_string_panics_are_reported() {
        let jobs: Vec<Job<'_, ()>> = vec![Box::new(|| std::panic::panic_any(17_u64))];
        let out = quiet_panics(|| run_jobs_settled(1, "weird", jobs));
        let err = out[0].as_ref().unwrap_err();
        assert_eq!(err.panic_message, "<non-string panic>");
    }

    #[test]
    fn observed_jobs_report_per_job_timings() {
        let recorder = ripple_obs::MetricsRecorder::new();
        let jobs: Vec<Job<'_, usize>> = (0..6)
            .map(|i| -> Job<'_, usize> { Box::new(move || i + 1) })
            .collect();
        let out = run_jobs_observed(3, "test_batch", &recorder, jobs).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("harness.jobs"), Some(6));
        assert_eq!(snap.counter("harness.job_failed"), None);
        assert_eq!(snap.phase("harness.job").map(|p| p.count), Some(6));
        assert_eq!(snap.phase("harness.batch").map(|p| p.count), Some(1));
        // One event per job, each carrying scope + both timings.
        let events: Vec<_> = snap.events_named("harness.job").collect();
        assert_eq!(events.len(), 6);
        for e in &events {
            assert_eq!(
                e.field("scope").and_then(ripple_obs::OwnedValue::as_str),
                Some("test_batch")
            );
            assert!(e.field("queue_wait_ns").is_some());
            assert!(e.field("run_ns").is_some());
        }
        // Every job index 0..6 appears exactly once.
        let mut idx: Vec<u64> = events
            .iter()
            .filter_map(|e| e.field("job").and_then(ripple_obs::OwnedValue::as_u64))
            .collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn observed_failures_are_counted() {
        let recorder = ripple_obs::MetricsRecorder::new();
        let jobs: Vec<Job<'_, usize>> = (0..4)
            .map(|i| -> Job<'_, usize> {
                Box::new(move || {
                    if i == 2 {
                        panic!("observed failure");
                    }
                    i
                })
            })
            .collect();
        let out = quiet_panics(|| run_jobs_observed_settled(2, "obs_fail", &recorder, jobs));
        assert!(out[2].is_err());
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("harness.job_failed"), Some(1));
        let failed: Vec<_> = snap.events_named("harness.job_failed").collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            failed[0]
                .field("job")
                .and_then(ripple_obs::OwnedValue::as_u64),
            Some(2)
        );
    }

    #[test]
    fn observed_disabled_recorder_is_passthrough() {
        let jobs: Vec<Job<'_, usize>> = (0..4)
            .map(|i| -> Job<'_, usize> { Box::new(move || i * 2) })
            .collect();
        let out = run_jobs_observed(2, "x", &ripple_obs::NullRecorder, jobs).unwrap();
        assert_eq!(out, vec![0, 2, 4, 6]);
    }

    #[test]
    fn policy_matrix_all_is_thread_invariant_with_trrip_profile() {
        // The full registry matrix — TRRIP included, fed real profiled
        // temperatures — must be bit-identical at 1 and 4 workers.
        let app = generate(&AppSpec::tiny(5));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(5), 20_000);
        let mut cfg = SimConfig::default();
        cfg.l1i = ripple_sim::CacheGeometry::new(2 * 1024, 4);
        cfg.temperatures = Some(std::sync::Arc::new(crate::metrics::profile_temperatures(
            &layout, &trace,
        )));
        let session = SimSession::new(&app.program, &layout, &trace, cfg);
        let (policies, sequential) = policy_matrix_all(&session, 1).unwrap();
        let (_, parallel) = policy_matrix_all(&session, 4).unwrap();
        assert_eq!(sequential, parallel, "matrix must be thread-invariant");
        let trrip = policies
            .iter()
            .position(|&p| p == PolicyKind::TRRIP)
            .expect("registry matrix includes trrip");
        assert!(
            sequential[trrip].demand_accesses > 0,
            "trrip row must come from a real run"
        );
    }

    #[test]
    fn policy_matrix_reports_one_recording_pass() {
        let app = generate(&AppSpec::tiny(9));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(9), 20_000);
        let mut cfg = SimConfig::default();
        cfg.l1i = ripple_sim::CacheGeometry::new(2 * 1024, 4);
        let metrics = std::sync::Arc::new(ripple_obs::MetricsRecorder::new());
        let session =
            SimSession::new(&app.program, &layout, &trace, cfg).with_recorder(metrics.clone());
        policy_matrix_all(&session, 2).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(session.recording_passes(), 1);
        assert_eq!(snap.counter("session.recording_passes"), Some(1));
        assert_eq!(
            snap.phase("session.record").map(|p| p.count),
            Some(1),
            "the matrix captures once"
        );
    }

    #[test]
    fn policy_matrix_shares_one_recording_pass() {
        let app = generate(&AppSpec::tiny(9));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(9), 20_000);
        let mut cfg = SimConfig::default();
        cfg.l1i = ripple_sim::CacheGeometry::new(2 * 1024, 4);
        let session = SimSession::new(&app.program, &layout, &trace, cfg.clone());
        let policies = [
            PolicyKind::LRU,
            PolicyKind::OPT,
            PolicyKind::DEMAND_MIN,
            PolicyKind::RANDOM,
            PolicyKind::DRRIP,
        ];
        let par = policy_matrix(&session, &policies, 4).unwrap();
        assert_eq!(
            session.recording_passes(),
            1,
            "two ideal policies must share one recording pass"
        );
        // Every row replays the one capture, and must equal the run of a
        // fresh session, which streams (or, for an oracle, captures alone).
        for (i, &p) in policies.iter().enumerate() {
            let fresh = SimSession::new(&app.program, &layout, &trace, cfg.clone());
            assert_eq!(par[i], fresh.run(p), "policy {p:?} must be reproducible");
        }
    }
}
