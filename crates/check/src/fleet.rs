//! Dimension 9: fleet shard aggregation vs a brute-force oracle.
//!
//! `ripple-fleet` merges per-instance trace shards into a weighted
//! per-service profile with [`merge_weighted_counts`]. The semantics it
//! promises are exactly "as if each shard had been replayed `weight`
//! times in one long trace": this dimension fuzzes that claim against
//! the physical oracle — concatenate every shard `weight` times into one
//! [`BbTrace`] and count its line visits with the checker's own naive
//! per-visit map ([`line_visit_counts`]), which shares no code with the
//! production's block-count expansion.
//! The merged counts, the shard-order-permuted merged counts, and the
//! downstream temperature classification must all agree exactly.
//!
//! [`BbTrace`]: ripple_trace::BbTrace

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng, StdRng};
use ripple::temperatures_from_counts;
use ripple_fleet::merge_weighted_counts;
use ripple_program::{Layout, LayoutConfig, LineAddr, Program};
use ripple_trace::BbTrace;
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

use crate::map_ref::line_visit_counts;
use crate::shrink::min_failing_prefix;

/// One generated aggregation case: a service binary plus weighted shards.
struct FleetCase {
    label: String,
    program: Program,
    layout: Layout,
    shards: Vec<(BbTrace, u64)>,
}

impl FleetCase {
    /// The case restricted to its first `n` shards (shrinking step).
    fn truncated(&self, n: usize) -> FleetCase {
        FleetCase {
            label: format!("{} (first {n} shards)", self.label),
            program: self.program.clone(),
            layout: self.layout.clone(),
            shards: self.shards[..n].to_vec(),
        }
    }
}

fn gen_fleet_case(seed: u64) -> FleetCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee_7a66_4e6a_7e5d);
    let spec = AppSpec::tiny(rng.next_u64());
    let app = generate(&spec);
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let num_shards = rng.gen_range(1..=6usize);
    let shards: Vec<(BbTrace, u64)> = (0..num_shards)
        .map(|i| {
            let variant = rng.gen_range(0..4u32);
            let budget = rng.gen_range(500..4000u64);
            let weight = rng.gen_range(1..=4u64);
            let input = InputConfig::numbered(variant, seed ^ (i as u64));
            (execute(&app.program, &app.model, input, budget), weight)
        })
        .collect();
    FleetCase {
        label: format!("seed {seed:#x}: {num_shards} shards over {}", spec.name),
        program: app.program,
        layout,
        shards,
    }
}

/// The brute-force oracle: each shard physically repeated `weight` times
/// in one long trace, profiled by a plain per-visit counter.
fn oracle_counts(case: &FleetCase) -> BTreeMap<LineAddr, u64> {
    let mut big = BbTrace::default();
    for (trace, weight) in &case.shards {
        for _ in 0..*weight {
            big.extend_from(trace);
        }
    }
    line_visit_counts(&case.layout, &big).into_iter().collect()
}

fn merged_counts(case: &FleetCase, reverse: bool) -> BTreeMap<LineAddr, u64> {
    let mut pairs: Vec<(&BbTrace, u64)> = case.shards.iter().map(|(t, w)| (t, *w)).collect();
    if reverse {
        pairs.reverse();
    }
    merge_weighted_counts(&case.layout, &pairs)
}

/// The divergence test applied to one case.
fn violation(case: &FleetCase) -> Option<String> {
    let oracle = oracle_counts(case);
    let merged = merged_counts(case, false);
    if merged != oracle {
        let diff = oracle
            .iter()
            .find(|(line, count)| merged.get(line) != Some(count))
            .map(|(line, _)| format!("first divergent line {line:?}"))
            .unwrap_or_else(|| "merged has extra lines".to_string());
        return Some(format!(
            "weighted merge disagrees with physical-repetition oracle ({diff})"
        ));
    }
    let reversed = merged_counts(case, true);
    if reversed != merged {
        return Some("weighted merge is shard-order dependent".to_string());
    }
    let t_merged = temperatures_from_counts(merged);
    let t_oracle = temperatures_from_counts(oracle);
    if t_merged != t_oracle {
        return Some(
            "temperature classification diverges between merged and oracle profiles".to_string(),
        );
    }
    None
}

/// Checks one generated case; shrinks the shard list on failure.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let case = gen_fleet_case(seed);
    let Some(message) = violation(&case) else {
        return Ok(());
    };
    let n = min_failing_prefix(case.shards.len(), |n| {
        n > 0 && violation(&case.truncated(n)).is_some()
    });
    let minimal = case.truncated(n.max(1));
    let final_message = violation(&minimal)
        .unwrap_or_else(|| "shrunk case no longer fails (shrinker artifact)".to_string());
    let repro = format!(
        "case: {}\nshards shrunk {} -> {}\n{}",
        minimal.label,
        case.shards.len(),
        minimal.shards.len(),
        final_message,
    );
    Err((message, repro))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_matches_oracle_on_many_seeds() {
        for seed in 0..16 {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn oracle_actually_exercises_weights() {
        // Guard against a degenerate generator: at least one seed in the
        // smoke range must produce a shard with weight > 1 (otherwise the
        // weighted path collapses to the unweighted one).
        let weighted = (0..16).any(|seed| gen_fleet_case(seed).shards.iter().any(|(_, w)| *w > 1));
        assert!(weighted, "no generated case used a weight > 1");
    }
}
