//! # Ripple: profile-guided instruction cache replacement
//!
//! A full reproduction of *"Ripple: Profile-Guided Instruction Cache
//! Replacement for Data Center Applications"* (ISCA 2021). Ripple is a
//! software-only technique: it profiles a program's basic-block execution,
//! replays an ideal (Belady / Demand-MIN) replacement policy over the
//! induced I-cache access stream, identifies **cue blocks** whose
//! execution predicts an ideal eviction of a **victim line**, and injects
//! `invalidate` (cldemote-style) instructions into those blocks at link
//! time. Any hardware replacement policy — even Random — then makes
//! near-ideal eviction decisions.
//!
//! The pipeline (paper Fig. 4):
//!
//! 1. [`collect_profile`] — execute the workload while recording a
//!    PT-style packet stream, and decode it into a [`BbTrace`]
//!    (`ripple-trace`);
//! 2. [`analyze`] — replay the ideal policy (`ripple-sim`), build eviction
//!    windows, and compute `P(evict A | execute B)` per candidate cue
//!    (§III-B, Fig. 5);
//! 3. [`Ripple::plan`] — threshold the winning candidates into an
//!    injection plan (§III-C);
//! 4. [`Ripple::evaluate`] — rewrite + relink the binary
//!    (`ripple-program`) and simulate baseline, Ripple, ideal-replacement
//!    and ideal-cache configurations, reporting speedup, MPKI reduction,
//!    coverage, accuracy and code-bloat overheads (§IV).
//!
//! # Examples
//!
//! ```
//! use ripple::{collect_profile, Ripple, RippleConfig};
//! use ripple_program::{Layout, LayoutConfig};
//! use ripple_workloads::{generate, AppSpec, InputConfig};
//!
//! let app = generate(&AppSpec::tiny(7));
//! let layout = Layout::new(&app.program, &LayoutConfig::default());
//! let profile = collect_profile(&app, &layout, InputConfig::training(7), 40_000)?;
//!
//! let mut config = RippleConfig::default();
//! config.sim.l1i = ripple_sim::CacheGeometry::new(2 * 1024, 4); // tiny demo cache
//! let ripple = Ripple::train(&app.program, &layout, &profile.trace, config)?;
//! let outcome = ripple.evaluate(&profile.trace)?;
//! assert!(outcome.ripple.demand_misses <= outcome.baseline.demand_misses);
//! # Ok::<(), ripple::Error>(())
//! ```
//!
//! Every fallible entry point returns the workspace-wide [`Error`], whose
//! variants wrap the substrate crates' typed errors; see the error
//! taxonomy in `DESIGN.md` §10.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_debug_implementations)]

mod analysis;
mod baseline;
mod error;
mod harness;
mod metrics;
mod pipeline;
mod profile;
mod report;
mod threshold;

pub use analysis::{
    analyze, analyze_windows, analyze_windows_reference, Analysis, AnalysisConfig, CoverageStats,
    CueCandidate, CueSelection, EvictionWindow, WindowChoice, WindowSink,
};
pub use baseline::EvalBaseline;
pub use error::{ConfigError, Error, JobError};
pub use harness::{
    effective_threads, policy_matrix, policy_matrix_all, run_jobs, run_jobs_observed,
    run_jobs_observed_settled, run_jobs_retrying, run_jobs_settled, Job, RetryJob,
};
pub use metrics::{
    decision_is_accurate, eviction_accuracy, invalidation_accuracy, line_access_counts,
    plan_accuracy, profile_temperatures, temperatures_from_counts, AccuracySink, AccuracyStats,
    LineAccessIndex, WindowIndex,
};
pub use pipeline::{Ripple, RippleConfig, RippleConfigBuilder, RippleOutcome};
pub use profile::{collect_profile, Profile};
pub use report::{
    run_report, top_level_phases, validate_run_report, SchemaTag, COMPARE_PHASES,
    COMPARE_TOP_PHASES, PIPELINE_PHASES, PIPELINE_TOP_PHASES, REPORT_SCHEMA, ZERO_WALL_NOTE,
};
pub use threshold::{best_threshold, sweep, ThresholdPoint};

// Re-export the substrate crates so downstream users need only `ripple`.
pub use ripple_json;
pub use ripple_obs;
pub use ripple_program;
pub use ripple_sim;
pub use ripple_trace;
pub use ripple_trace::BbTrace;
pub use ripple_workloads;
