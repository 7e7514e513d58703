//! Map-based reference versions of the production's dense line tables.
//!
//! Production keys its per-line tables by slot in the layout's
//! [`LineRange`](ripple_program::LineRange): per-line access counts and
//! their weighted fleet merge, the [`LineAccessIndex`](ripple::LineAccessIndex)
//! CSR rows, the analysis origins table and the [`LineMapper`]. The
//! references here are those tables in their original form — one
//! `HashMap<LineAddr, _>` entry per line visit or per static line, built
//! by walking the layout directly — plus the original two-pass, map-based
//! cue analysis ([`analyze_windows_reference`]) and Fig. 10's accuracy
//! rule stated on reuse gaps ([`GapRule`]). They share no table code
//! with production, so the `fleet` and `rewrite` dimensions can hold the
//! dense tables against them.
//!
//! [`LineMapper`]: ripple_program::LineMapper

use std::collections::{HashMap, HashSet};

use ripple::{AnalysisConfig, CueCandidate, EvictionWindow, WindowChoice};
use ripple_program::{BlockId, CodeLoc, Layout, LineAddr, Program};
use ripple_sim::EvictionEvent;
use ripple_trace::BbTrace;

/// Per-line demand access counts, one map update per line visit.
pub fn line_visit_counts(layout: &Layout, trace: &BbTrace) -> HashMap<LineAddr, u64> {
    let mut counts: HashMap<LineAddr, u64> = HashMap::new();
    for block in trace.iter() {
        for line in layout.lines_of_block(block) {
            *counts.entry(line).or_insert(0) += 1;
        }
    }
    counts
}

/// Per-line demand access positions, one map push per line visit.
#[derive(Debug, Default)]
pub struct MapAccessIndex {
    positions: HashMap<LineAddr, Vec<u64>>,
}

impl MapAccessIndex {
    /// Indexes every line visit of `trace` under `layout`.
    pub fn build(layout: &Layout, trace: &BbTrace) -> Self {
        let mut positions: HashMap<LineAddr, Vec<u64>> = HashMap::new();
        for (pos, block) in trace.iter().enumerate() {
            for line in layout.lines_of_block(block) {
                positions.entry(line).or_default().push(pos as u64);
            }
        }
        MapAccessIndex { positions }
    }

    /// First access to `line` strictly after `pos`, by linear scan.
    pub fn next_access_after(&self, line: LineAddr, pos: u64) -> Option<u64> {
        self.positions
            .get(&line)?
            .iter()
            .copied()
            .find(|&p| p > pos)
    }

    /// The access positions of `line`.
    pub fn positions(&self, line: LineAddr) -> &[u64] {
        self.positions.get(&line).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct lines indexed.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether no line is indexed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Fig. 10's accuracy rule stated on reuse gaps, from an ideal run's raw
/// eviction events: evicting `line` at `pos` is accurate iff `line` has
/// no access after `pos`, or that next access is its first, or the ideal
/// run evicted it between its last access before that next access and
/// the next access itself.
///
/// Without a prefetcher this is exactly "the ideal run missed the next
/// access", the rule [`IdealOutcomes`](ripple::IdealOutcomes) reads from
/// its miss bits. A prefetch can refill an evicted line before its next
/// access, so with one the gap rule is the weaker of the two.
pub struct GapRule {
    evictions: HashMap<LineAddr, Vec<EvictionEvent>>,
}

impl GapRule {
    /// Groups the ideal run's eviction events by victim.
    pub fn build(events: &[EvictionEvent]) -> Self {
        let mut evictions: HashMap<LineAddr, Vec<EvictionEvent>> = HashMap::new();
        for &e in events {
            evictions.entry(e.victim).or_default().push(e);
        }
        GapRule { evictions }
    }

    /// Whether evicting `line` at `pos` is accurate, with `accesses` the
    /// ideal run's layout and trace.
    pub fn is_accurate(&self, accesses: &MapAccessIndex, line: LineAddr, pos: u64) -> bool {
        let positions = accesses.positions(line);
        let Some(k) = positions.iter().position(|&p| p > pos) else {
            return true;
        };
        if k == 0 {
            return true;
        }
        let (last, next) = (positions[k - 1], positions[k]);
        self.evictions.get(&line).is_some_and(|events| {
            events
                .iter()
                .any(|e| e.last_access_pos == last && (last..=next).contains(&e.evict_pos))
        })
    }
}

/// Every text line's first code byte, the first block by id winning a
/// shared line.
pub fn map_origins(program: &Program, layout: &Layout) -> HashMap<LineAddr, CodeLoc> {
    let mut map = HashMap::new();
    for block in program.blocks() {
        let id = block.id();
        let start = layout.block_addr(id);
        let size = u64::from(layout.block_size(id));
        if size == 0 {
            continue;
        }
        for line in ripple_program::lines_spanning(start, size) {
            let first_byte = line.base_addr().max(start);
            map.entry(line).or_insert_with(|| {
                let offset = (first_byte.get() - start.get()) as u32;
                CodeLoc::new(id, offset)
            });
        }
    }
    map
}

/// The v0→v1 line translation as a map: each v0 line's origin resolved
/// in the new layout.
pub fn map_mapper(
    program: &Program,
    old_layout: &Layout,
    new_layout: &Layout,
) -> HashMap<LineAddr, LineAddr> {
    map_origins(program, old_layout)
        .into_iter()
        .map(|(line, loc)| (line, new_layout.line_of(loc)))
        .collect()
}

/// The original two-pass, map-based implementation of
/// [`ripple::analyze_windows`]'s cue scan: the per-window candidate lists
/// the dense path must reproduce exactly, window for window.
pub fn analyze_windows_reference(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    windows: &[EvictionWindow],
    config: &AnalysisConfig,
) -> Vec<WindowChoice> {
    let blocks = trace.blocks();

    // Execution counts for the probability denominator.
    let mut exec_count = vec![0u64; program.num_blocks()];
    for &b in blocks {
        exec_count[b.index()] += 1;
    }

    // Cache of which lines each block spans (for the stop-at-victim rule).
    let mut block_lines: Vec<Option<(u64, u64)>> = vec![None; program.num_blocks()];
    let mut lines_of = |b: BlockId| -> (u64, u64) {
        let slot = &mut block_lines[b.index()];
        *slot.get_or_insert_with(|| {
            let mut iter = layout.lines_of_block(b);
            let first = iter.next().map(|l| l.index()).unwrap_or(u64::MAX);
            let last = iter.last().map(|l| l.index()).unwrap_or(first);
            (first, last)
        })
    };
    let mut contains = |b: BlockId, line: LineAddr| -> bool {
        let (first, last) = lines_of(b);
        (first..=last).contains(&line.index())
    };

    // Candidate scan: both ends of the window matter. Blocks just
    // *before* the eviction trigger time the invalidation perfectly, but
    // depend on whatever request happens to run next; blocks just *after*
    // the victim's last access belong to the victim's own (recurring)
    // request, so the same (cue, victim) pair re-covers every recurrence
    // — and at high coverage, early in-window invalidation is exactly as
    // good (the free way is consumed by fills that each had their own
    // invalidated victim).
    let mut scan = |w: &EvictionWindow,
                    scratch: &mut HashSet<BlockId>,
                    ordered: Option<&mut Vec<BlockId>>,
                    earliest: Option<&mut HashMap<BlockId, u64>>| {
        scratch.clear();
        let lo = w.start + 1;
        let hi = w.end; // exclusive: the trigger block itself is too late
        let back_lo = hi.saturating_sub(config.max_window_blocks as u64).max(lo);
        let front_hi = lo.saturating_add(config.front_window_blocks as u64).min(hi);
        let mut ordered = ordered;
        let mut earliest = earliest;
        let half = config.max_candidates / 2;
        // Back side, nearest the trigger first.
        for p in (back_lo..hi).rev() {
            let b = blocks[p as usize];
            if contains(b, w.victim) {
                break;
            }
            if scratch.insert(b) {
                if let Some(ord) = ordered.as_deref_mut() {
                    if ord.len() < half {
                        ord.push(b);
                    }
                }
            }
            if let Some(e) = earliest.as_deref_mut() {
                e.insert(b, p); // walking backward: later writes are earlier
            }
        }
        // Front side, nearest the last access first.
        for p in lo..front_hi {
            let b = blocks[p as usize];
            if contains(b, w.victim) {
                break;
            }
            if scratch.insert(b) {
                if let Some(ord) = ordered.as_deref_mut() {
                    if ord.len() < config.max_candidates {
                        ord.push(b);
                    }
                }
            }
            if let Some(e) = earliest.as_deref_mut() {
                e.entry(b).and_modify(|x| *x = (*x).min(p)).or_insert(p);
            }
        }
    };

    // Pass 1: count, per (victim, candidate) pair, the distinct windows of
    // the victim that contain the candidate.
    let mut pair_windows: HashMap<(LineAddr, BlockId), u32> = HashMap::new();
    let mut scratch: HashSet<BlockId> = HashSet::new();
    for w in windows {
        scan(w, &mut scratch, None, None);
        for &b in scratch.iter() {
            *pair_windows.entry((w.victim, b)).or_insert(0) += 1;
        }
    }

    // Pass 2: collect each window's candidates.
    let is_rewritable = |b: BlockId| {
        let func = program.block(b).func();
        program.function(func).kind().is_rewritable()
    };
    let mut choices = Vec::with_capacity(windows.len());
    let mut ordered: Vec<BlockId> = Vec::new();
    let mut earliest: HashMap<BlockId, u64> = HashMap::new();
    for w in windows {
        ordered.clear();
        earliest.clear();
        scan(w, &mut scratch, Some(&mut ordered), Some(&mut earliest));
        let hi = w.end;
        let candidates: Vec<CueCandidate> = ordered
            .iter()
            .filter_map(|&b| {
                let execs = exec_count[b.index()];
                if execs == 0 {
                    return None;
                }
                let hits = pair_windows[&(w.victim, b)];
                Some(CueCandidate {
                    block: b,
                    probability: f64::from(hits) / execs as f64,
                    rewritable: is_rewritable(b),
                    earliest_gap: hi - earliest.get(&b).copied().unwrap_or(hi),
                })
            })
            .collect();
        choices.push(WindowChoice {
            victim: w.victim,
            candidates,
        });
    }
    choices
}
