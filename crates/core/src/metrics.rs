//! Replacement-coverage and replacement-accuracy metrics (§III-C).

use std::collections::HashMap;

use ripple_program::{BlockId, Layout, LineAddr, LineRange};
use ripple_sim::{EvictionEvent, EvictionSink, Temperature, TemperatureMap};
use ripple_trace::BbTrace;

use crate::analysis::EvictionWindow;

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

    /// The ascending access positions of `line` (empty outside the layout).
    fn row(&self, line: LineAddr) -> &[u64] {
        match self.lines.slot(line) {
            Some(i) => &self.positions[self.offsets[i]..self.offsets[i + 1]],
            None => &[],
        }
    }

    /// First demand access to `line` strictly after `pos`, if any.
    pub fn next_access_after(&self, line: LineAddr, pos: u64) -> Option<u64> {
        let row = self.row(line);
        row.get(row.partition_point(|&p| p <= pos)).copied()
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

/// Per-line index of ideal eviction windows, for "would the ideal policy
/// also have evicted this line here?" queries.
///
/// Windows of one line never overlap (each starts after the refill that
/// follows the previous eviction), so sorted binary search suffices.
#[derive(Debug, Default)]
pub struct WindowIndex {
    windows: HashMap<LineAddr, Vec<(u64, u64)>>,
}

impl WindowIndex {
    /// Builds the index from the analysis's eviction windows.
    pub fn build(windows: &[EvictionWindow]) -> Self {
        let mut map: HashMap<LineAddr, Vec<(u64, u64)>> = HashMap::new();
        for w in windows {
            map.entry(w.victim).or_default().push((w.start, w.end));
        }
        for v in map.values_mut() {
            v.sort_unstable();
        }
        WindowIndex { windows: map }
    }

    /// Whether position `pos` lies inside an eviction window of `line`
    /// (start-exclusive, end-inclusive): an action at `pos` that evicts
    /// `line` agrees with the ideal policy.
    pub fn contains(&self, line: LineAddr, pos: u64) -> bool {
        let Some(v) = self.windows.get(&line) else {
            return false;
        };
        let i = v.partition_point(|&(_, end)| end < pos);
        v.get(i).is_some_and(|&(start, _)| start < pos)
    }
}

/// An eviction-style decision (Ripple invalidation or hardware eviction)
/// is *accurate* when it cannot introduce a miss the ideal policy would
/// not also have taken: either the position falls inside an ideal eviction
/// window of the line, or the line is never demand-accessed again.
pub fn decision_is_accurate(
    line: LineAddr,
    pos: u64,
    windows: &WindowIndex,
    accesses: &LineAccessIndex,
) -> bool {
    windows.contains(line, pos) || accesses.next_access_after(line, pos).is_none()
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
/// by replaying `trace` and
/// testing every dynamic execution of a cue block against the ideal
/// windows, with victims expressed in the *profiled* layout (`layout`).
///
/// This is the evaluation the pipeline uses: windows, accesses and plan
/// victims all live in the same (pre-injection) address space.
pub fn plan_accuracy(
    plan: &ripple_program::InjectionPlan,
    layout: &Layout,
    trace: &BbTrace,
    windows: &WindowIndex,
    accesses: &LineAccessIndex,
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
            if decision_is_accurate(line, pos as u64, windows, accesses) {
                stats.accurate += 1;
            }
        }
    }
    stats
}

/// Scores a hardware policy's eviction log against the ideal windows —
/// the paper's "LRU has 77.8 % average accuracy" measurement.
///
/// Wrapper over [`AccuracySink`] for callers holding a materialized log;
/// when the indexes exist before the run, plug an `AccuracySink` into the
/// simulation instead and skip the log entirely.
pub fn eviction_accuracy(
    evictions: &[EvictionEvent],
    windows: &WindowIndex,
    accesses: &LineAccessIndex,
) -> AccuracyStats {
    let mut sink = AccuracySink::new(windows, accesses);
    for &e in evictions {
        sink.record(e);
    }
    sink.into_stats()
}

/// Streams a simulation's evictions straight into an accuracy tally,
/// scoring each decision online against pre-built ideal-window and access
/// indexes — no eviction log is ever materialized.
#[derive(Debug)]
pub struct AccuracySink<'a> {
    windows: &'a WindowIndex,
    accesses: &'a LineAccessIndex,
    stats: AccuracyStats,
}

impl<'a> AccuracySink<'a> {
    /// Creates a sink scoring against `windows` and `accesses`.
    pub fn new(windows: &'a WindowIndex, accesses: &'a LineAccessIndex) -> Self {
        AccuracySink {
            windows,
            accesses,
            stats: AccuracyStats::default(),
        }
    }

    /// The tally so far.
    pub fn stats(&self) -> AccuracyStats {
        self.stats
    }

    /// Consumes the sink, returning the tally.
    pub fn into_stats(self) -> AccuracyStats {
        self.stats
    }
}

impl EvictionSink for AccuracySink<'_> {
    fn record(&mut self, e: EvictionEvent) {
        self.stats.total += 1;
        if decision_is_accurate(e.victim, e.evict_pos, self.windows, self.accesses) {
            self.stats.accurate += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::EvictionWindow;

    fn l(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    fn windows_of(spec: &[(u64, u64, u64)]) -> WindowIndex {
        let ws: Vec<EvictionWindow> = spec
            .iter()
            .map(|&(line, start, end)| EvictionWindow {
                victim: l(line),
                start,
                end,
            })
            .collect();
        WindowIndex::build(&ws)
    }

    #[test]
    fn window_membership_is_start_exclusive_end_inclusive() {
        let idx = windows_of(&[(7, 10, 20)]);
        assert!(!idx.contains(l(7), 10));
        assert!(idx.contains(l(7), 11));
        assert!(idx.contains(l(7), 20));
        assert!(!idx.contains(l(7), 21));
        assert!(!idx.contains(l(8), 15));
    }

    #[test]
    fn multiple_windows_binary_search() {
        let idx = windows_of(&[(7, 10, 20), (7, 30, 40), (7, 50, 60)]);
        for (pos, expect) in [(15, true), (25, false), (35, true), (45, false), (55, true)] {
            assert_eq!(idx.contains(l(7), pos), expect, "pos {pos}");
        }
    }

    #[test]
    fn accuracy_counts_dead_lines_as_accurate() {
        let windows = windows_of(&[]);
        let accesses = LineAccessIndex::default();
        // Never accessed again -> accurate even with no window.
        assert!(decision_is_accurate(l(3), 5, &windows, &accesses));
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

    #[test]
    fn eviction_accuracy_scores_log_entries() {
        // Block `a`'s line is accessed at positions 5 and 25; block `b`
        // fills every other position.
        let (layout, a, b) = two_line_layout();
        let trace = BbTrace::new(
            (0..30)
                .map(|p| if p == 5 || p == 25 { a } else { b })
                .collect(),
        );
        let accesses = LineAccessIndex::build(&layout, &trace);
        let line = layout.lines_of_block(a).next().unwrap();
        assert_eq!(accesses.next_access_after(line, 5), Some(25));

        // An eviction at 15 matches the window (accurate); an eviction at
        // 22 is premature (line used at 25, no window) -> inaccurate.
        let windows = WindowIndex::build(&[EvictionWindow {
            victim: line,
            start: 10,
            end: 20,
        }]);
        let log = vec![
            EvictionEvent {
                victim: line,
                evict_pos: 15,
                last_access_pos: 5,
                by_prefetch: false,
            },
            EvictionEvent {
                victim: line,
                evict_pos: 22,
                last_access_pos: 5,
                by_prefetch: false,
            },
        ];
        let s = eviction_accuracy(&log, &windows, &accesses);
        assert_eq!(s.accurate, 1);
        assert_eq!(s.total, 2);
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
