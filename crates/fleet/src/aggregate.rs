//! Shard aggregation: merging per-instance trace shards into one
//! per-service fleet profile.

use std::collections::BTreeMap;

use ripple::line_counts_of_blocks;
use ripple_program::{Layout, LineAddr};
use ripple_trace::{BbTrace, TraceHealth};

/// One instance's profile contribution for one epoch.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The emitting instance's id.
    pub instance: usize,
    /// The instance's traffic weight (profile counts scale by it).
    pub weight: u64,
    /// The decoded trace.
    pub trace: BbTrace,
    /// Decode health (non-zero drop counters for poisoned shards).
    pub health: TraceHealth,
}

/// Merges shards into one weighted line-access profile: each block's
/// executions in each shard, scaled by the shard's instance weight and
/// summed, then expanded to lines once with [`line_counts_of_blocks`].
///
/// The result is a `BTreeMap` so iteration order — and everything
/// derived from it, fingerprints included — is independent of shard
/// order. Equivalent to profiling one big trace with every shard repeated
/// `weight` times (the `ripple-check` fleet dimension holds this against
/// that brute-force oracle), so a weight-0 shard contributes nothing.
pub fn merge_weighted_counts(
    layout: &Layout,
    shards: &[(&BbTrace, u64)],
) -> BTreeMap<LineAddr, u64> {
    let mut block_counts = vec![0u64; layout.num_blocks()];
    for &(trace, weight) in shards {
        for block in trace.iter() {
            block_counts[block.index()] += weight;
        }
    }
    line_counts_of_blocks(layout, &block_counts)
        .into_iter()
        .collect()
}

/// Concatenates shard traces (in the given order) into one training
/// trace, stopping before `max_blocks` is exceeded. Returns the trace
/// and how many shards made it in.
pub(crate) fn merged_training_trace(shards: &[&BbTrace], max_blocks: usize) -> (BbTrace, usize) {
    let mut merged = BbTrace::default();
    let mut taken = 0;
    for trace in shards {
        if !merged.is_empty() && merged.len() + trace.len() > max_blocks {
            break;
        }
        merged.extend_from(trace);
        taken += 1;
    }
    (merged, taken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_program::{Layout, LayoutConfig};
    use ripple_workloads::{execute, generate, AppSpec, InputConfig};

    #[test]
    fn merge_matches_physical_repetition_and_ignores_order() {
        let app = generate(&AppSpec::tiny(3));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let a = execute(&app.program, &app.model, InputConfig::numbered(0, 3), 5_000);
        let b = execute(&app.program, &app.model, InputConfig::numbered(1, 3), 5_000);

        let merged = merge_weighted_counts(&layout, &[(&a, 2), (&b, 3)]);
        let flipped = merge_weighted_counts(&layout, &[(&b, 3), (&a, 2)]);
        assert_eq!(merged, flipped);

        let mut big = BbTrace::default();
        for _ in 0..2 {
            big.extend_from(&a);
        }
        for _ in 0..3 {
            big.extend_from(&b);
        }
        let oracle: BTreeMap<LineAddr, u64> = ripple::line_access_counts(&layout, &big)
            .into_iter()
            .collect();
        assert_eq!(merged, oracle);
    }

    #[test]
    fn training_trace_respects_block_cap_but_never_starves() {
        let t1 = BbTrace::new(vec![ripple_program::BlockId::new(0); 30]);
        let t2 = BbTrace::new(vec![ripple_program::BlockId::new(1); 30]);
        let (merged, taken) = merged_training_trace(&[&t1, &t2], 40);
        assert_eq!((merged.len(), taken), (30, 1));
        // A single oversized shard is still taken whole: an empty
        // training trace would be worse than a long one.
        let (merged, taken) = merged_training_trace(&[&t1], 10);
        assert_eq!((merged.len(), taken), (30, 1));
    }
}
