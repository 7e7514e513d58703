//! Differential oracle checker for the Ripple simulator.
//!
//! `ripple-check` fuzzes the production simulator against small executable
//! models in nine independent dimensions:
//!
//! 1. [`model_cache`] — a brute-force associative cache model cross-checked
//!    against [`ripple_sim::Cache`] for LRU, SRRIP, DRRIP, and TRRIP,
//!    comparing outcome *and* full resident state after every operation
//!    (a guard test forces every registered policy to be either mirrored
//!    here or explicitly exempted);
//! 2. [`belady`] — an exhaustive Belady search on short request streams
//!    that lower-bounds (and, demand-only, pins exactly) the offline ideal
//!    policies `Opt` and `DemandMin`;
//! 3. [`equiv`] — the simulator's two drivers (streaming pass and capture
//!    replay) vs the checker-owned [`reference`](mod@reference) frontend
//!    on random full simulations (stats *and* eviction streams), plus an
//!    independent warmup-accounting oracle;
//! 4. [`threads`] — thread-count invariance of the parallel policy matrix
//!    and single-shot offline recording;
//! 5. [`trace_rt`] — packet encode→decode and end-to-end trace
//!    record→reconstruct round trips;
//! 6. [`faults`] — fault injection: randomly mutated trace bytes and
//!    report documents must surface typed errors (strict) or accounted
//!    loss (lossy), and never panic;
//! 7. [`rewrite_eq`] — incremental relinking vs full rewrite on random
//!    injection-plan chains, dense vs reference cue analysis on real
//!    oracle window sets, the dense line tables (access index, origins,
//!    line mapper) vs the map-based references in [`map_ref`], and
//!    1-vs-4-thread `RippleOutcome` invariance;
//! 8. [`fleet`] — fleet shard aggregation vs a brute-force oracle:
//!    weighted profile merging must equal physically repeating each shard
//!    `weight` times in one long trace, independent of shard order, all
//!    the way through temperature classification;
//! 9. [`lab`] — declarative experiment grids vs independent oracles:
//!    mixed-radix index decoding of the expansion, axis dedup,
//!    JSON round trips, and (on a bounded seed subset) end-to-end
//!    thread-count byte-determinism of the emitted lab report.
//!
//! Every case derives from a single `u64` seed. Failures shrink to locally
//! minimal repros (the vendored proptest stand-in has no shrinking, so
//! [`shrink`] implements greedy prefix bisection and ddmin-style chunk
//! removal by hand) and print a `RIPPLE_CHECK_SEED=<dim>:<seed>` line that
//! replays the exact case.

pub mod belady;
pub mod case;
pub mod equiv;
pub mod faults;
pub mod fleet;
pub mod lab;
pub mod map_ref;
pub mod model_cache;
pub mod reference;
pub mod rewrite_eq;
pub mod shrink;
pub mod threads;
pub mod trace_rt;

/// One oracle dimension of the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dimension {
    /// Brute-force associative cache model (LRU/SRRIP/DRRIP/TRRIP).
    ModelCache,
    /// Exhaustive Belady bound on the offline ideal policies.
    Belady,
    /// Production vs reference frontend equivalence + warmup oracle.
    Equivalence,
    /// Thread-count invariance of the parallel harness.
    Threads,
    /// Trace packet and end-to-end round trips.
    TraceRoundTrip,
    /// Fault injection: corrupted traces and reports never panic.
    Faults,
    /// Incremental relink vs full rewrite + dense vs reference analysis.
    Rewrite,
    /// Fleet shard aggregation vs the physical-repetition oracle.
    Fleet,
    /// Declarative lab experiment expansion, round trips and determinism.
    Lab,
}

/// Number of checker dimensions (the length of [`ALL_DIMENSIONS`]).
pub const NUM_DIMENSIONS: usize = 9;

/// Every dimension, in the order the corpus round-robins them.
pub const ALL_DIMENSIONS: [Dimension; NUM_DIMENSIONS] = [
    Dimension::ModelCache,
    Dimension::Belady,
    Dimension::Equivalence,
    Dimension::Threads,
    Dimension::TraceRoundTrip,
    Dimension::Faults,
    Dimension::Rewrite,
    Dimension::Fleet,
    Dimension::Lab,
];

impl Dimension {
    /// Stable command-line / replay-token name.
    pub fn name(self) -> &'static str {
        match self {
            Dimension::ModelCache => "model-cache",
            Dimension::Belady => "belady",
            Dimension::Equivalence => "equivalence",
            Dimension::Threads => "threads",
            Dimension::TraceRoundTrip => "trace-roundtrip",
            Dimension::Faults => "faults",
            Dimension::Rewrite => "rewrite",
            Dimension::Fleet => "fleet",
            Dimension::Lab => "lab",
        }
    }

    /// Inverse of [`Dimension::name`].
    pub fn parse(name: &str) -> Option<Self> {
        ALL_DIMENSIONS.iter().copied().find(|d| d.name() == name)
    }
}

impl std::fmt::Display for Dimension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A divergence found by one dimension, with its minimized repro.
#[derive(Debug)]
pub struct Failure {
    /// The dimension that diverged.
    pub dimension: Dimension,
    /// The case seed (replayable via [`check_case`]).
    pub case_seed: u64,
    /// What diverged.
    pub message: String,
    /// The minimized repro description.
    pub repro: String,
}

impl Failure {
    /// The environment line that replays this exact case.
    pub fn replay_line(&self) -> String {
        format!(
            "RIPPLE_CHECK_SEED={}:{:#x} cargo run --release -p ripple-check",
            self.dimension, self.case_seed
        )
    }
}

/// Runs one case of one dimension. `Ok` means no divergence.
pub fn check_case(dimension: Dimension, case_seed: u64) -> Result<(), Failure> {
    let outcome = match dimension {
        Dimension::ModelCache => model_cache::check(case_seed),
        Dimension::Belady => belady::check(case_seed),
        Dimension::Equivalence => equiv::check(case_seed),
        Dimension::Threads => threads::check(case_seed),
        Dimension::TraceRoundTrip => trace_rt::check(case_seed),
        Dimension::Faults => faults::check(case_seed),
        Dimension::Rewrite => rewrite_eq::check(case_seed),
        Dimension::Fleet => fleet::check(case_seed),
        Dimension::Lab => lab::check(case_seed),
    };
    outcome.map_err(|(message, repro)| Failure {
        dimension,
        case_seed,
        message,
        repro,
    })
}

/// [`check_case`] with a live observability recorder in the loop: the
/// full-simulator dimensions rerun with a `MetricsRecorder` attached and
/// demand identical results plus recorded phases. Dimensions that never
/// construct a session delegate to the plain check.
pub fn check_case_recorded(dimension: Dimension, case_seed: u64) -> Result<(), Failure> {
    let outcome = match dimension {
        Dimension::Equivalence => equiv::check_recorded(case_seed),
        Dimension::Threads => threads::check_recorded(case_seed),
        _ => return check_case(dimension, case_seed),
    };
    outcome.map_err(|(message, repro)| Failure {
        dimension,
        case_seed,
        message,
        repro,
    })
}

/// Derives the case seed for corpus index `index` from `base_seed`
/// (splitmix64-style so neighbouring indices decorrelate).
pub fn mix_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of a corpus run.
#[derive(Debug, Default)]
pub struct Report {
    /// Cases passed, per dimension (indexed like [`ALL_DIMENSIONS`]).
    pub passed: [u64; NUM_DIMENSIONS],
    /// First failure per dimension, if any.
    pub failures: Vec<Failure>,
}

impl Report {
    /// Total passed cases across all dimensions.
    pub fn total_passed(&self) -> u64 {
        self.passed.iter().sum()
    }
}

fn dim_index(d: Dimension) -> usize {
    ALL_DIMENSIONS
        .iter()
        .position(|&x| x == d)
        .expect("known dimension")
}

/// Runs `cases` checks, round-robining over `dims`, deriving case seeds
/// from `base_seed`. Stops checking a dimension after its first failure
/// (its minimized repro is expensive enough to produce once) but keeps
/// fuzzing the others. `progress` is called after every case with
/// (done, total).
pub fn run_corpus(
    base_seed: u64,
    cases: u64,
    dims: &[Dimension],
    mut progress: impl FnMut(u64, u64),
) -> Report {
    let mut report = Report::default();
    let mut dead = [false; NUM_DIMENSIONS];
    for index in 0..cases {
        let dimension = dims[(index % dims.len() as u64) as usize];
        let di = dim_index(dimension);
        if dead[di] {
            progress(index + 1, cases);
            continue;
        }
        let case_seed = mix_seed(base_seed, index);
        match check_case(dimension, case_seed) {
            Ok(()) => report.passed[di] += 1,
            Err(failure) => {
                dead[di] = true;
                report.failures.push(failure);
            }
        }
        progress(index + 1, cases);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_names_round_trip() {
        for d in ALL_DIMENSIONS {
            assert_eq!(Dimension::parse(d.name()), Some(d));
        }
        assert_eq!(Dimension::parse("nope"), None);
    }

    #[test]
    fn mixed_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            assert!(seen.insert(mix_seed(42, i)));
        }
    }

    #[test]
    fn every_dimension_passes_with_recording_on() {
        for (i, dimension) in ALL_DIMENSIONS.into_iter().enumerate() {
            for case in 0..3u64 {
                let seed = mix_seed(0x0b5e_77ed, (i as u64) * 16 + case);
                if let Err(f) = check_case_recorded(dimension, seed) {
                    panic!("{dimension} seed {seed:#x}: {}\n{}", f.message, f.repro);
                }
            }
        }
    }

    #[test]
    fn corpus_runs_every_dimension() {
        let report = run_corpus(7, 20, &ALL_DIMENSIONS, |_, _| {});
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.total_passed(), 20);
        for (i, &p) in report.passed.iter().enumerate() {
            assert!(p >= 2, "dimension {} starved", ALL_DIMENSIONS[i]);
        }
    }
}
