//! End-to-end and per-layer benchmark of the Ripple reproduction.
//!
//! Four workloads ([`workloads::Workload`]) drive the program's public
//! entry points in a closed loop ([`runner::run`]); each op's result is
//! checked and must repeat exactly. An untraced run reports the
//! end-to-end metrics, a traced run the per-layer ones
//! ([`metrics::PER_LAYER`]), and [`compare`] judges two sets of runs
//! against the bounds in `BENCHMARK.json`. See `README.md`.

#![warn(missing_docs)]

pub mod compare;
pub mod metrics;
pub mod result;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
