//! Replacement-coverage and replacement-accuracy metrics (§III-C).

use std::collections::HashMap;

use ripple_program::{BlockId, Layout, LineAddr, LineRange};
use ripple_sim::{EvictionEvent, Temperature, TemperatureMap};
use ripple_trace::BbTrace;

/// Per-line index of demand access positions, for "is this line ever used
/// again after position p?" queries.
///
/// Compressed sparse rows over the layout's [`LineRange`]: line slot `i`
/// owns `positions[offsets[i]..offsets[i + 1]]`, ascending. Offsets are
/// `usize`, so they cannot wrap however long the trace.
#[derive(Debug, Default)]
pub struct LineAccessIndex {
    lines: LineRange,
    offsets: Vec<usize>,
    positions: Vec<u64>,
}

impl LineAccessIndex {
    /// Builds the index from a block trace under `layout`.
    pub fn build(layout: &Layout, trace: &BbTrace) -> Self {
        let lines = layout.line_range();
        // Row lengths come from per-block counts; only the fill below
        // walks every line visit.
        let mut offsets = vec![0usize; lines.len() + 1];
        for (line, count) in dense_line_counts(layout, &block_visit_counts(layout, trace)) {
            offsets[line + 1] = count as usize;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets[..lines.len()].to_vec();
        let mut positions = vec![0u64; offsets[lines.len()]];
        for (pos, block) in trace.iter().enumerate() {
            for line in layout.lines_of_block(block) {
                let next = &mut cursor[lines.offset(line)];
                positions[*next] = pos as u64;
                *next += 1;
            }
        }
        LineAccessIndex {
            lines,
            offsets,
            positions,
        }
    }

    /// The index into `positions` of `line`'s first access for which
    /// `before` is false (`None` outside the layout or past its last).
    fn first_entry(&self, line: LineAddr, before: impl Fn(u64) -> bool) -> Option<usize> {
        let i = self.lines.slot(line)?;
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        let k = start + self.positions[start..end].partition_point(|&p| before(p));
        (k < end).then_some(k)
    }

    /// First demand access to `line` strictly after `pos`, if any.
    pub fn next_access_after(&self, line: LineAddr, pos: u64) -> Option<u64> {
        self.first_entry(line, |p| p <= pos)
            .map(|k| self.positions[k])
    }

    /// Number of distinct lines indexed.
    pub fn len(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// How often each block of `layout`'s program executes in `trace`,
/// indexed by [`BlockId`].
pub fn block_visit_counts(layout: &Layout, trace: &BbTrace) -> Vec<u64> {
    let mut counts = vec![0u64; layout.num_blocks()];
    for block in trace.iter() {
        counts[block.index()] += 1;
    }
    counts
}

/// Expands per-block counts to per-line counts over `layout`'s
/// [`LineRange`]: every line a block touches gains the block's count.
/// Yields `(slot, count)` for each line with a non-zero count, ascending.
fn dense_line_counts(layout: &Layout, block_counts: &[u64]) -> impl Iterator<Item = (usize, u64)> {
    let lines = layout.line_range();
    let mut dense = vec![0u64; lines.len()];
    for (b, &count) in block_counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        for line in layout.lines_of_block(BlockId::new(b as u32)) {
            dense[lines.offset(line)] += count;
        }
    }
    dense.into_iter().enumerate().filter(|&(_, c)| c != 0)
}

/// Per-line access counts from per-block counts (see
/// [`block_visit_counts`]): every line a block touches counts each of the
/// block's executions. Lines with no access are omitted; the result is in
/// ascending line order.
///
/// Fleet aggregation sums weighted block counts over its shards and
/// expands them here once, instead of counting every line visit.
pub fn line_counts_of_blocks(layout: &Layout, block_counts: &[u64]) -> Vec<(LineAddr, u64)> {
    let lines = layout.line_range();
    dense_line_counts(layout, block_counts)
        .map(|(i, count)| (lines.line(i), count))
        .collect()
}

/// Raw per-line demand access counts of `trace` under `layout`, in
/// ascending line order — the mergeable half of [`profile_temperatures`].
/// Fleet-profile aggregation sums these across trace shards (weighted by
/// instance traffic) before classifying the merged counts with
/// [`temperatures_from_counts`].
pub fn line_access_counts(layout: &Layout, trace: &BbTrace) -> Vec<(LineAddr, u64)> {
    line_counts_of_blocks(layout, &block_visit_counts(layout, trace))
}

/// Classifies profiled per-line access counts into TRRIP temperature
/// classes — the classification half of [`profile_temperatures`].
///
/// * **cold** — touch-once lines (streaming code: init paths, cold error
///   handling); TRRIP inserts them at distant re-reference.
/// * **hot** — the top decile of multi-touch lines *by rank*: exactly
///   `(n - 1) / 10 + 1` of `n` multi-touch lines, ranked by count
///   descending with ties broken by ascending [`LineAddr`]. A value-based
///   cutoff would classify every line tied with the boundary count as hot;
///   an all-equal-counts profile (common after fleet shard merging) would
///   then make *every* re-referenced line hot instead of one decile.
/// * **warm** — everything else, including unprofiled lines (the map's
///   default), behaving like plain SRRIP insertion.
///
/// Deterministic and input-order independent: the (count, address) rank is
/// a total order, so equal count multisets always produce equal maps.
pub fn temperatures_from_counts(
    counts: impl IntoIterator<Item = (LineAddr, u64)>,
) -> TemperatureMap {
    let mut cold: Vec<LineAddr> = Vec::new();
    let mut multi: Vec<(LineAddr, u64)> = Vec::new();
    for (line, count) in counts {
        if count <= 1 {
            cold.push(line);
        } else {
            multi.push((line, count));
        }
    }
    multi.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let hot_n = if multi.is_empty() {
        0
    } else {
        (multi.len() - 1) / 10 + 1
    };
    let mut map = TemperatureMap::new();
    for line in cold {
        map.set(line, Temperature::Cold);
    }
    for (rank, &(line, _)) in multi.iter().enumerate() {
        let temp = if rank < hot_n {
            Temperature::Hot
        } else {
            Temperature::Warm
        };
        map.set(line, temp);
    }
    map
}

/// Classifies every code line touched by `trace` into TRRIP temperature
/// classes from its profiled access frequency.
///
/// This is the profile half of the TRRIP co-design (Kao et al.), fed by
/// the same basic-block trace Ripple itself trains on. Composition of
/// [`line_access_counts`] (one trace walk) and [`temperatures_from_counts`]
/// (rank-based decile cut, ties broken by `LineAddr`); both halves are
/// exposed so fleet aggregation can merge shard counts before classifying.
pub fn profile_temperatures(layout: &Layout, trace: &BbTrace) -> TemperatureMap {
    temperatures_from_counts(line_access_counts(layout, trace))
}

/// The ideal run's outcome at every demand access: the
/// [`LineAccessIndex`] of its layout and trace plus one bit per entry,
/// set where the ideal run missed.
///
/// It states Fig. 10's accuracy rule. A decision to evict line `L` at
/// trace position `p` (a Ripple invalidation or a hardware eviction) is
/// *accurate* iff `L` is never demand-accessed after `p`, or the ideal run
/// missed `L`'s next access: the decision then cannot introduce a miss the
/// ideal policy did not also take. Under a prefetcher an access the ideal
/// run covered with a prefetch is a hit, so a decision before it is
/// inaccurate.
#[derive(Debug, Default)]
pub struct IdealOutcomes {
    accesses: LineAccessIndex,
    /// Bit `k` (word `k / 64`) is set when the ideal run missed the access
    /// at `accesses.positions[k]`.
    missed: Vec<u64>,
}

impl IdealOutcomes {
    /// Builds the outcomes of the ideal run over `trace` under `layout`
    /// from that run's demand misses, `(line, position)` as
    /// [`WindowSink::into_parts`](crate::WindowSink::into_parts) returns
    /// them.
    pub fn build(layout: &Layout, trace: &BbTrace, misses: &[(LineAddr, u64)]) -> Self {
        let accesses = LineAccessIndex::build(layout, trace);
        let mut missed = vec![0u64; accesses.positions.len().div_ceil(64)];
        for &(line, pos) in misses {
            let entry = accesses
                .first_entry(line, |p| p < pos)
                .filter(|&k| accesses.positions[k] == pos);
            debug_assert!(entry.is_some(), "no access of {line} at {pos} to miss");
            if let Some(k) = entry {
                missed[k / 64] |= 1 << (k % 64);
            }
        }
        IdealOutcomes { accesses, missed }
    }

    /// Whether evicting `line` at `pos` is accurate (see the type docs).
    pub fn is_accurate(&self, line: LineAddr, pos: u64) -> bool {
        self.accesses
            .first_entry(line, |p| p <= pos)
            .is_none_or(|k| self.missed[k / 64] >> (k % 64) & 1 == 1)
    }
}

/// Accuracy tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccuracyStats {
    /// Decisions that agreed with the ideal policy.
    pub accurate: u64,
    /// All decisions examined.
    pub total: u64,
}

impl AccuracyStats {
    /// Accuracy in `[0, 1]` (1.0 when no decisions were made).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.accurate as f64 / self.total as f64
        }
    }
}

/// Scores a not-yet-applied [`InjectionPlan`](ripple_program::InjectionPlan)
/// by replaying `trace` and testing every dynamic execution of a cue block
/// against the ideal run's `outcomes`, with victims expressed in `layout`,
/// the layout the outcomes were recorded under.
pub fn plan_accuracy(
    plan: &ripple_program::InjectionPlan,
    layout: &Layout,
    trace: &BbTrace,
    outcomes: &IdealOutcomes,
) -> AccuracyStats {
    let mut victims: HashMap<BlockId, Vec<LineAddr>> = HashMap::new();
    for inj in plan.injections() {
        victims
            .entry(inj.cue)
            .or_default()
            .push(layout.line_of(inj.victim));
    }
    let mut stats = AccuracyStats::default();
    for (pos, block) in trace.iter().enumerate() {
        let Some(lines) = victims.get(&block) else {
            continue;
        };
        for &line in lines {
            stats.total += 1;
            if outcomes.is_accurate(line, pos as u64) {
                stats.accurate += 1;
            }
        }
    }
    stats
}

/// Scores a hardware policy's eviction log against the ideal run's
/// `outcomes`: the paper's "LRU has 77.8 % average accuracy" measurement.
pub fn eviction_accuracy(evictions: &[EvictionEvent], outcomes: &IdealOutcomes) -> AccuracyStats {
    let mut stats = AccuracyStats::default();
    for e in evictions {
        stats.total += 1;
        if outcomes.is_accurate(e.victim, e.evict_pos) {
            stats.accurate += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn accuracy_stats_ratio() {
        let s = AccuracyStats {
            accurate: 9,
            total: 10,
        };
        assert!((s.accuracy() - 0.9).abs() < 1e-12);
        assert_eq!(AccuracyStats::default().accuracy(), 1.0);
    }

    /// Two one-block functions, each in a cache line of its own.
    fn two_line_layout() -> (Layout, BlockId, BlockId) {
        use ripple_program::{CodeKind, Instruction, LayoutConfig, ProgramBuilder};

        let mut b = ProgramBuilder::new();
        let mut blocks = Vec::new();
        for name in ["a", "b"] {
            let f = b.add_function(name, CodeKind::Static);
            let blk = b.add_block(f);
            b.push_inst(blk, Instruction::other(10));
            b.push_inst(blk, Instruction::ret());
            blocks.push(blk);
        }
        let program = b.finish(ripple_program::FuncId::new(0)).unwrap();
        (
            Layout::new(&program, &LayoutConfig::default()),
            blocks[0],
            blocks[1],
        )
    }

    /// Block `a`'s line is accessed at positions 5 and 25; block `b`
    /// fills every other position of a 30-block trace.
    fn a_at_5_and_25() -> (Layout, BbTrace, LineAddr, LineAddr) {
        let (layout, a, b) = two_line_layout();
        let trace = BbTrace::new(
            (0..30)
                .map(|p| if p == 5 || p == 25 { a } else { b })
                .collect(),
        );
        let la = layout.lines_of_block(a).next().unwrap();
        let lb = layout.lines_of_block(b).next().unwrap();
        (layout, trace, la, lb)
    }

    #[test]
    fn eviction_accuracy_scores_log_entries() {
        let (layout, trace, line, _) = a_at_5_and_25();
        let eviction = |evict_pos| EvictionEvent {
            victim: line,
            evict_pos,
            last_access_pos: 5,
            by_prefetch: false,
        };
        // Evictions at 15 and 22 both precede the access at 25; one at 27
        // has no later access.
        let log = [eviction(15), eviction(22), eviction(27)];

        // The ideal run missed at 25 (say it evicted the line at 20): the
        // eviction at 22, after the ideal one, adds no miss either.
        let missed = IdealOutcomes::build(&layout, &trace, &[(line, 5), (line, 25)]);
        let s = eviction_accuracy(&log, &missed);
        assert_eq!((s.accurate, s.total), (3, 3));

        // The ideal run hit at 25: both earlier evictions add a miss.
        let hit = IdealOutcomes::build(&layout, &trace, &[(line, 5)]);
        let s = eviction_accuracy(&log, &hit);
        assert_eq!((s.accurate, s.total), (1, 3));
    }

    #[test]
    fn ideal_outcomes_follow_the_next_access() {
        let (layout, trace, la, lb) = a_at_5_and_25();
        // The ideal run missed `a` at its first access only, and `b` at
        // position 6 only.
        let outcomes = IdealOutcomes::build(&layout, &trace, &[(la, 5), (lb, 6)]);

        // A hit versus a miss on the next access.
        assert!(!outcomes.is_accurate(la, 5), "the ideal run hit at 25");
        assert!(!outcomes.is_accurate(la, 24));
        assert!(outcomes.is_accurate(lb, 5), "the ideal run missed b at 6");
        assert!(!outcomes.is_accurate(lb, 6), "and hit it at 7");

        // A decision before the first access: accurate iff the ideal run
        // missed that access (a prefetch may have covered it).
        assert!(outcomes.is_accurate(la, 0));
        let prefetched = IdealOutcomes::build(&layout, &trace, &[(lb, 0)]);
        assert!(!prefetched.is_accurate(la, 0));

        // Dead lines: nothing is lost after a line's last access.
        for pos in [25, 26, 29, 1_000, u64::MAX] {
            assert!(outcomes.is_accurate(la, pos), "a at {pos}");
            assert!(prefetched.is_accurate(la, pos), "a at {pos}");
        }
        assert!(outcomes.is_accurate(lb, 29));
    }

    #[test]
    fn ideal_outcomes_pass_lines_outside_the_layout() {
        let (layout, trace, la, _) = a_at_5_and_25();
        let outcomes = IdealOutcomes::build(&layout, &trace, &[(la, 5)]);
        let (first, last) = layout.line_bounds().unwrap();
        for line in [
            LineAddr::new(0),
            LineAddr::new(first.index() - 1),
            last.next(),
            LineAddr::new(u64::MAX),
        ] {
            assert!(outcomes.is_accurate(line, 0), "{line}");
        }
        // The default outcomes hold no access at all.
        assert!(IdealOutcomes::default().is_accurate(la, 0));
    }

    #[test]
    fn access_index_rows_hold_every_visit_in_order() {
        let (layout, a, b) = two_line_layout();
        let trace = BbTrace::new(vec![a, b, b, a, b]);
        let accesses = LineAccessIndex::build(&layout, &trace);
        let (la, lb) = (
            layout.lines_of_block(a).next().unwrap(),
            layout.lines_of_block(b).next().unwrap(),
        );
        assert_eq!(accesses.len(), 2);
        assert_eq!(accesses.next_access_after(la, 0), Some(3));
        assert_eq!(accesses.next_access_after(lb, 0), Some(1));
        assert_eq!(accesses.next_access_after(lb, 2), Some(4));
        // Positions past the trace end have no next access.
        assert_eq!(accesses.next_access_after(la, 3), None);
        assert_eq!(accesses.next_access_after(lb, 1_000), None);
        assert_eq!(line_access_counts(&layout, &trace), vec![(la, 2), (lb, 3)]);
    }

    #[test]
    fn access_index_of_an_empty_trace_is_empty() {
        let (layout, a, _) = two_line_layout();
        let accesses = LineAccessIndex::build(&layout, &BbTrace::default());
        assert!(accesses.is_empty());
        assert_eq!(accesses.len(), 0);
        let line = layout.lines_of_block(a).next().unwrap();
        assert_eq!(accesses.next_access_after(line, 0), None);
        assert!(line_access_counts(&layout, &BbTrace::default()).is_empty());
    }

    #[test]
    fn lines_outside_the_layout_have_no_accesses() {
        let (layout, a, b) = two_line_layout();
        let accesses = LineAccessIndex::build(&layout, &BbTrace::new(vec![a, b, a]));
        let (first, last) = layout.line_bounds().unwrap();
        for line in [
            LineAddr::new(0),
            LineAddr::new(first.index() - 1),
            last.next(),
            LineAddr::new(u64::MAX),
        ] {
            assert_eq!(accesses.next_access_after(line, 0), None, "{line}");
        }
        // The default index covers no lines at all.
        assert_eq!(LineAccessIndex::default().next_access_after(first, 0), None);
    }

    #[test]
    fn profile_temperatures_classifies_hot_warm_cold() {
        use ripple_program::{Layout, LayoutConfig};
        use ripple_sim::Temperature;
        use ripple_workloads::{execute, generate, AppSpec, InputConfig};

        let app = generate(&AppSpec::tiny(3));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(3), 20_000);
        let temps = profile_temperatures(&layout, &trace);
        assert!(!temps.is_empty());

        // Recompute raw counts independently and spot-check the contract:
        // the most-touched line is hot, touch-once lines are cold.
        let mut counts: HashMap<LineAddr, u64> = HashMap::new();
        for block in trace.iter() {
            for line in layout.lines_of_block(block) {
                *counts.entry(line).or_insert(0) += 1;
            }
        }
        // Among count-tied maxima, the lowest address wins the rank
        // tie-break, so that line is the one guaranteed hot.
        let max = counts.values().copied().max().unwrap();
        let hottest = counts
            .iter()
            .filter(|&(_, &c)| c == max)
            .map(|(&line, _)| line)
            .min()
            .unwrap();
        assert!(max >= 2, "20k-block trace must re-reference some line");
        assert_eq!(temps.of_line(hottest), Temperature::Hot);
        for (&line, &c) in &counts {
            if c <= 1 {
                assert_eq!(temps.of_line(line), Temperature::Cold);
            }
        }
        // Unprofiled lines default to warm; the profile is deterministic.
        assert_eq!(temps.of_line(LineAddr::new(u64::MAX)), Temperature::Warm);
        assert_eq!(profile_temperatures(&layout, &trace), temps);
    }

    /// Regression test for the tie-unstable decile cut: a trace whose
    /// multi-touch lines all share one access count must classify exactly
    /// the top decile (by the `LineAddr` tie-break) as hot — the old
    /// value-based cutoff marked *every* boundary-tied line hot.
    #[test]
    fn all_equal_counts_trace_hots_exactly_the_top_decile() {
        use ripple_program::{Layout, LayoutConfig};
        use ripple_sim::Temperature;
        use ripple_trace::BbTrace;
        use ripple_workloads::{generate, AppSpec};

        let app = generate(&AppSpec::tiny(11));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        // A multi-line block repeated N times: every line it touches has
        // the same count N — an all-equal-counts profile.
        let block = app
            .program
            .blocks()
            .iter()
            .map(|b| b.id())
            .find(|&b| layout.lines_of_block(b).count() >= 2)
            .expect("tiny app must contain a block spanning >= 2 lines");
        let trace = BbTrace::new(vec![block; 3]);
        let temps = profile_temperatures(&layout, &trace);

        let mut lines: Vec<LineAddr> = layout.lines_of_block(block).collect();
        lines.sort_unstable();
        lines.dedup();
        let hot_n = (lines.len() - 1) / 10 + 1;
        for (rank, &line) in lines.iter().enumerate() {
            let expect = if rank < hot_n {
                Temperature::Hot
            } else {
                Temperature::Warm
            };
            assert_eq!(temps.of_line(line), expect, "line {line:?} rank {rank}");
        }
    }

    #[test]
    fn temperature_rank_cut_is_order_independent_and_bounded_under_ties() {
        use ripple_sim::Temperature;

        // Twenty lines all tied at count 5: exactly (20-1)/10 + 1 = 2 hot,
        // and the tie-break picks the two lowest addresses.
        let counts: Vec<(LineAddr, u64)> = (0..20).map(|i| (l(100 + i), 5)).collect();
        let temps = temperatures_from_counts(counts.iter().copied());
        let hot: Vec<LineAddr> = (0..20)
            .map(|i| l(100 + i))
            .filter(|&line| temps.of_line(line) == Temperature::Hot)
            .collect();
        assert_eq!(hot, vec![l(100), l(101)]);

        // Input order must not matter (HashMap iteration order never
        // leaks into the classification).
        let mut reversed = counts.clone();
        reversed.reverse();
        assert_eq!(temperatures_from_counts(reversed), temps);

        // Touch-once lines stay cold regardless of the hot-set churn.
        let mut with_cold = counts;
        with_cold.push((l(7), 1));
        assert_eq!(
            temperatures_from_counts(with_cold).of_line(l(7)),
            Temperature::Cold
        );
    }
}
