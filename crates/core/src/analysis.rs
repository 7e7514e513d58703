//! Ripple's offline eviction analysis (§III-B of the paper).
//!
//! Given a basic-block trace and the eviction log of an *ideal*
//! replacement policy replayed over it, the analysis:
//!
//! 1. builds the **eviction window** of every ideal eviction — the span of
//!    blocks executed between the victim line's last access and the access
//!    that triggers its eviction (Fig. 5a);
//! 2. treats every block executed inside a window as a **candidate cue
//!    block** and computes the conditional probability
//!    `P(evict A | execute B)` as the number of distinct windows of `A`
//!    containing `B` divided by `B`'s total execution count (Fig. 5b);
//! 3. for each window selects the candidate with the highest probability;
//!    windows whose winner clears the invalidation threshold contribute an
//!    injection of `invalidate(A)` into that cue block (§III-C).

use std::collections::{HashMap, HashSet};

use ripple_program::{
    line_origins, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LineAddr, LineOrigins,
    Program,
};
use ripple_sim::{EvictionEvent, EvictionSink};
use ripple_trace::BbTrace;

use crate::metrics::block_visit_counts;

/// One ideal-policy eviction window (Fig. 5a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionWindow {
    /// The line the ideal policy evicted.
    pub victim: LineAddr,
    /// Trace position of the victim's last demand access (exclusive window
    /// start).
    pub start: u64,
    /// Trace position of the eviction trigger (inclusive window end).
    pub end: u64,
}

/// Streams the simulator's eviction log directly into eviction windows,
/// and keeps the run's demand misses.
///
/// Plugged into a simulation as its [`EvictionSink`], this keeps only the
/// *usable* windows (the victim had a demand access before eviction and the
/// window is non-degenerate) and drops everything else as it arrives — the
/// raw event log is never materialized. Feed the windows to
/// [`analyze_windows`], and the misses of an ideal run to
/// [`IdealOutcomes::build`](crate::IdealOutcomes::build).
#[derive(Debug, Default)]
pub struct WindowSink {
    windows: Vec<EvictionWindow>,
    misses: Vec<(LineAddr, u64)>,
    drop_misses: bool,
}

impl WindowSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        WindowSink::default()
    }

    /// An empty sink that keeps no demand misses, for an oracle run whose
    /// misses nothing scores.
    pub(crate) fn without_misses() -> Self {
        WindowSink {
            drop_misses: true,
            ..WindowSink::default()
        }
    }

    /// The usable windows collected so far.
    pub fn windows(&self) -> &[EvictionWindow] {
        &self.windows
    }

    /// Consumes the sink, returning the collected windows.
    pub fn into_windows(self) -> Vec<EvictionWindow> {
        self.windows
    }

    /// Consumes the sink, returning the collected windows and every L1I
    /// demand miss, `(line, trace position)` in trace order, warmup
    /// included.
    pub fn into_parts(self) -> (Vec<EvictionWindow>, Vec<(LineAddr, u64)>) {
        (self.windows, self.misses)
    }
}

impl EvictionSink for WindowSink {
    fn record(&mut self, e: EvictionEvent) {
        if e.last_access_pos != u64::MAX && e.evict_pos > e.last_access_pos + 1 {
            self.windows.push(EvictionWindow {
                victim: e.victim,
                start: e.last_access_pos,
                end: e.evict_pos,
            });
        }
    }

    fn demand_miss(&mut self, line: LineAddr, pos: u64) {
        if !self.drop_misses {
            self.misses.push((line, pos));
        }
    }
}

/// One candidate cue block within a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CueCandidate {
    /// The candidate block.
    pub block: BlockId,
    /// `P(evict victim | execute block)`.
    pub probability: f64,
    /// Whether the block may be rewritten (static code).
    pub rewritable: bool,
    /// Distance (in blocks) from the eviction trigger to the candidate's
    /// *earliest* execution inside the window. An injected invalidation
    /// fires at that earliest execution, so a small gap means the freed
    /// way is still free when the triggering fill arrives.
    pub earliest_gap: u64,
}

/// The cue candidates of one window, nearest-to-the-eviction first.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowChoice {
    /// The window's victim line.
    pub victim: LineAddr,
    /// Candidates in backward scan order (the first executed closest to
    /// the eviction trigger), deduplicated, capped.
    pub candidates: Vec<CueCandidate>,
}

impl WindowChoice {
    /// The candidate with the highest conditional probability.
    pub fn best_by_probability(&self) -> Option<&CueCandidate> {
        self.candidates
            .iter()
            .max_by(|a, b| a.probability.total_cmp(&b.probability))
    }

    /// Among candidates whose probability reaches `threshold`, the one
    /// whose earliest in-window execution is closest to the eviction.
    pub fn latest_eligible(&self, threshold: f64) -> Option<&CueCandidate> {
        self.candidates
            .iter()
            .filter(|c| c.probability >= threshold)
            .min_by_key(|c| c.earliest_gap)
    }
}

/// How the cue block is selected among a window's eligible candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CueSelection {
    /// The candidate executed nearest the eviction whose probability
    /// clears the threshold. Late cues time the invalidation close to the
    /// ideal eviction point, so the freed way is consumed by the very fill
    /// the ideal policy would have used it for.
    LatestEligible,
    /// The paper's Fig. 5b selection: the candidate with the highest
    /// conditional probability, injected only if it clears the threshold.
    HighestProbability,
}

/// Analysis parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Maximum number of blocks scanned backward from an eviction when
    /// building its window. The paper scans to the window start; capping
    /// bounds analysis cost on pathological reuse distances while keeping
    /// the candidates closest to the eviction, which are the strongest
    /// cues.
    pub max_window_blocks: usize,
    /// Maximum distinct candidates retained per window (nearest first).
    pub max_candidates: usize,
    /// Blocks scanned forward from the window start (the victim's last
    /// access). Front-side candidates belong to the victim's own request
    /// and recur every time that request repeats, letting one injected
    /// pair cover many windows.
    pub front_window_blocks: usize,
    /// Cue selection strategy.
    pub cue_selection: CueSelection,
    /// Minimum number of eviction windows a (cue, victim) pair must cover
    /// to stay in the plan. A pair covering a single window trades one
    /// saved miss for seven bytes of hot code — negative expected value —
    /// so only recurring evictions are worth a static instruction
    /// ("sparing" injection, §III).
    pub min_windows_per_injection: u32,
    /// Maximum invalidate instructions injected into one cue block. A hot
    /// block cueing dozens of victims would grow by hundreds of bytes,
    /// and that local bloat (extra hot lines) costs more misses than the
    /// invalidations save; overflow spills to the next-best candidate.
    pub max_injections_per_block: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            max_window_blocks: 128,
            max_candidates: 32,
            front_window_blocks: 64,
            cue_selection: CueSelection::HighestProbability,
            min_windows_per_injection: 2,
            max_injections_per_block: 6,
        }
    }
}

/// Result of the eviction analysis; thresholds are applied afterwards (so
/// a single analysis supports a full threshold sweep, Fig. 6).
#[derive(Debug)]
pub struct Analysis {
    windows: Vec<EvictionWindow>,
    choices: Vec<WindowChoice>,
    origins: LineOrigins,
    selection: CueSelection,
    per_block_cap: usize,
    min_pair_windows: u32,
}

/// Coverage bookkeeping for one threshold (Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoverageStats {
    /// Ideal evictions analyzed (with a usable window).
    pub total_windows: u64,
    /// Windows whose selected cue cleared the threshold and was injected.
    pub covered_windows: u64,
    /// Windows lost because the winning cue lies in JIT/kernel code.
    pub skipped_unrewritable: u64,
}

impl CoverageStats {
    /// Replacement coverage: the fraction of ideal replacement decisions
    /// Ripple's invalidations will initiate.
    pub fn coverage(&self) -> f64 {
        if self.total_windows == 0 {
            0.0
        } else {
            self.covered_windows as f64 / self.total_windows as f64
        }
    }
}

impl Analysis {
    /// The eviction windows underlying the analysis.
    pub fn windows(&self) -> &[EvictionWindow] {
        &self.windows
    }

    /// Per-window winning cue candidates.
    pub fn choices(&self) -> &[WindowChoice] {
        &self.choices
    }

    /// Derives the injection plan for an invalidation `threshold`
    /// (0.0..=1.0): every window whose selected cue's conditional
    /// probability reaches the threshold injects one `invalidate` into
    /// that cue block.
    pub fn plan_for_threshold(&self, threshold: f64) -> (InjectionPlan, CoverageStats) {
        self.plan_impl(threshold, None)
    }

    /// [`Analysis::plan_for_threshold`] constrained to an available slot
    /// budget per block: the final (layout-frozen) assignment pass selects,
    /// per window, an eligible cue that still has a reserved invalidate
    /// slot, so a window is only lost when *none* of its eligible cues has
    /// space.
    pub fn plan_for_slots(
        &self,
        threshold: f64,
        slots: &HashMap<BlockId, usize>,
    ) -> (InjectionPlan, CoverageStats) {
        self.plan_impl(threshold, Some(slots))
    }

    fn plan_impl(
        &self,
        threshold: f64,
        slots: Option<&HashMap<BlockId, usize>>,
    ) -> (InjectionPlan, CoverageStats) {
        let mut plan = InjectionPlan::new();
        let mut stats = CoverageStats {
            total_windows: self.choices.len() as u64,
            ..CoverageStats::default()
        };
        let mut per_cue: HashMap<BlockId, usize> = HashMap::new();
        let mut seen: HashSet<(BlockId, LineAddr)> = HashSet::new();
        let cap_of = |block: BlockId, per_cue: &HashMap<BlockId, usize>| -> bool {
            let used = per_cue.get(&block).copied().unwrap_or(0);
            match slots {
                Some(s) => used < s.get(&block).copied().unwrap_or(0),
                None => used < self.per_block_cap,
            }
        };
        // (cue, victim-identity) -> (victim CodeLoc, windows covered).
        // `pair_order` remembers first-placement order: the plan must be
        // emitted deterministically (HashMap iteration order is
        // per-instance random, and injection order dictates the injected
        // byte sequence, hence the layout).
        let mut pair_value: HashMap<(BlockId, LineAddr), (CodeLoc, u32)> = HashMap::new();
        let mut pair_order: Vec<(BlockId, LineAddr)> = Vec::new();
        let mut skipped = 0u64;
        for choice in &self.choices {
            // Candidates eligible at this threshold, in selection order.
            let mut eligible: Vec<&CueCandidate> = choice
                .candidates
                .iter()
                .filter(|c| c.probability >= threshold)
                .collect();
            match self.selection {
                CueSelection::LatestEligible => {
                    eligible.sort_by_key(|c| c.earliest_gap);
                }
                CueSelection::HighestProbability => {
                    eligible.sort_by(|a, b| b.probability.total_cmp(&a.probability));
                }
            }
            if eligible.is_empty() {
                continue;
            }
            let Some(victim_loc) = self.origins.get(choice.victim) else {
                continue;
            };
            let mut placed = false;
            let mut saw_rewritable = false;
            // First pass: an already-assigned (cue, victim) pair covers
            // this window for free — recurring evictions of the same line
            // (one per phase cycle) amortize a single static instruction.
            for cand in &eligible {
                if !cand.rewritable {
                    continue;
                }
                let key = (cand.block, self.layout_line(victim_loc));
                if seen.contains(&key) {
                    // `seen` and `pair_value` are inserted in lockstep, so
                    // a seen key always resolves.
                    if let Some(entry) = pair_value.get_mut(&key) {
                        entry.1 += 1;
                    }
                    placed = true;
                    saw_rewritable = true;
                    break;
                }
            }
            if !placed {
                for cand in eligible {
                    if !cand.rewritable {
                        continue;
                    }
                    saw_rewritable = true;
                    if !cap_of(cand.block, &per_cue) {
                        continue;
                    }
                    *per_cue.entry(cand.block).or_insert(0) += 1;
                    let key = (cand.block, self.layout_line(victim_loc));
                    seen.insert(key);
                    pair_value.insert(key, (victim_loc, 1));
                    pair_order.push(key);
                    placed = true;
                    break;
                }
            }
            if placed {
                stats.covered_windows += 1;
            } else if !saw_rewritable {
                skipped += 1;
            }
        }
        stats.skipped_unrewritable = skipped;
        // Value filter: keep only pairs whose recurring coverage pays for
        // the injected bytes.
        let mut dropped_windows = 0u64;
        let min_pair_windows = if slots.is_some() {
            1
        } else {
            self.min_pair_windows
        };
        for &key @ (cue, _) in &pair_order {
            // Inserted in lockstep with `pair_order`, so the key resolves.
            let Some(&(victim, windows)) = pair_value.get(&key) else {
                continue;
            };
            if windows >= min_pair_windows {
                plan.push(Injection { cue, victim });
            } else {
                dropped_windows += u64::from(windows);
            }
        }
        stats.covered_windows = stats.covered_windows.saturating_sub(dropped_windows);
        (plan, stats)
    }

    /// Stable key for dedup: the victim's line identity is its CodeLoc
    /// (origins are unique per line).
    fn layout_line(&self, loc: CodeLoc) -> LineAddr {
        // Origins map line -> loc; invert cheaply by using the loc itself
        // as identity. Two distinct lines never share an origin CodeLoc.
        LineAddr::new(((loc.block.get() as u64) << 32) | u64::from(loc.offset))
    }
}

/// Runs the eviction analysis over `trace` and the ideal policy's
/// `evictions` log.
///
/// `layout` must be the layout the eviction log was produced under (the
/// profiled, pre-injection layout). Thin wrapper over [`analyze_windows`]
/// for tests holding a materialized log; the pipeline itself streams
/// events through a [`WindowSink`] instead.
#[cfg(test)]
pub(crate) fn analyze(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    evictions: &[EvictionEvent],
    config: &AnalysisConfig,
) -> Analysis {
    let mut sink = WindowSink::new();
    for &e in evictions {
        sink.record(e);
    }
    analyze_windows(program, layout, trace, sink.into_windows(), config)
}

/// Runs the eviction analysis over eviction `windows` already extracted
/// from the ideal policy's run (usually streamed via [`WindowSink`]).
///
/// This is the dense production path: windows are grouped by victim line,
/// each window is scanned exactly once (back side then front side, fused),
/// and all per-window / per-victim scratch lives in flat `BlockId`-indexed
/// arrays with epoch stamps instead of hash maps — no per-window clears,
/// no hashing in the scan loop. `ripple-check` keeps the original
/// two-pass map-based implementation as the equivalence oracle; both must
/// produce identical `WindowChoice` sequences.
pub fn analyze_windows(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    windows: Vec<EvictionWindow>,
    config: &AnalysisConfig,
) -> Analysis {
    let blocks = trace.blocks();
    let num_blocks = program.num_blocks();

    // Execution counts for the probability denominator.
    let exec_count = block_visit_counts(layout, trace);

    // Precomputed block -> (first, last) spanned-line table (flat, eager):
    // the scan loop tests victim containment per trace position, so this
    // must be a plain indexed load.
    let mut span: Vec<(u64, u64)> = Vec::with_capacity(num_blocks);
    let mut rewritable = vec![false; num_blocks];
    for block in program.blocks() {
        let mut iter = layout.lines_of_block(block.id());
        let first = iter.next().map(|l| l.index()).unwrap_or(u64::MAX);
        let last = iter.last().map(|l| l.index()).unwrap_or(first);
        span.push((first, last));
        rewritable[block.id().index()] = program.function(block.func()).kind().is_rewritable();
    }
    debug_assert_eq!(span.len(), num_blocks);

    // Group windows by victim so pair counts (distinct windows of this
    // victim containing block B) complete as soon as the group does: a
    // stable sort keeps each group's windows in arrival order, and the
    // per-window choice is written back to its original index.
    let mut order: Vec<u32> = (0..windows.len() as u32).collect();
    order.sort_by_key(|&i| windows[i as usize].victim);

    // Epoch-stamped scratch, all BlockId-indexed: `win_epoch`/`earliest`
    // reset per window, `pair_epoch`/`pair_count` per victim group — a
    // stale stamp *is* the cleared state, so no O(num_blocks) clears.
    let mut win_epoch = vec![0u64; num_blocks];
    let mut earliest = vec![0u64; num_blocks];
    let mut pair_epoch = vec![0u64; num_blocks];
    let mut pair_count = vec![0u32; num_blocks];
    let mut window_no = 0u64;
    let mut group_no = 0u64;

    // Per-group staging: each window's capped candidate list (block,
    // earliest position) in scan order, finalized into probabilities once
    // the group's pair counts are complete.
    struct Staged {
        window: u32,
        hi: u64,
        cands: Vec<(BlockId, u64)>,
    }
    let mut staged: Vec<Staged> = Vec::new();
    let half = config.max_candidates / 2;

    let mut choices: Vec<Option<WindowChoice>> = Vec::new();
    choices.resize_with(windows.len(), || None);

    let flush_group = |staged: &mut Vec<Staged>,
                       pair_count: &[u32],
                       choices: &mut Vec<Option<WindowChoice>>,
                       victim: LineAddr| {
        for s in staged.drain(..) {
            let candidates: Vec<CueCandidate> = s
                .cands
                .iter()
                .filter_map(|&(b, early)| {
                    let execs = exec_count[b.index()];
                    if execs == 0 {
                        return None;
                    }
                    Some(CueCandidate {
                        block: b,
                        probability: f64::from(pair_count[b.index()]) / execs as f64,
                        rewritable: rewritable[b.index()],
                        earliest_gap: s.hi - early,
                    })
                })
                .collect();
            choices[s.window as usize] = Some(WindowChoice { victim, candidates });
        }
    };

    let mut group_victim: Option<LineAddr> = None;
    for &wi in &order {
        let w = &windows[wi as usize];
        if group_victim != Some(w.victim) {
            if let Some(v) = group_victim {
                flush_group(&mut staged, &pair_count, &mut choices, v);
            }
            group_victim = Some(w.victim);
            group_no += 1;
        }
        window_no += 1;
        let victim_line = w.victim.index();

        let lo = w.start + 1;
        let hi = w.end; // exclusive: the trigger block itself is too late
        let back_lo = hi.saturating_sub(config.max_window_blocks as u64).max(lo);
        let front_hi = lo.saturating_add(config.front_window_blocks as u64).min(hi);
        let mut cands: Vec<(BlockId, u64)> = Vec::with_capacity(config.max_candidates);

        // Back side, nearest the trigger first. Walking backward means a
        // later iteration is an earlier position, so a plain overwrite of
        // `earliest` converges on the minimum.
        for p in (back_lo..hi).rev() {
            let b = blocks[p as usize];
            let bi = b.index();
            let (first, last) = span[bi];
            if (first..=last).contains(&victim_line) {
                break;
            }
            if win_epoch[bi] != window_no {
                win_epoch[bi] = window_no;
                if pair_epoch[bi] != group_no {
                    pair_epoch[bi] = group_no;
                    pair_count[bi] = 0;
                }
                pair_count[bi] += 1;
                if cands.len() < half {
                    cands.push((b, p));
                }
            }
            earliest[bi] = p;
        }
        // Front side, nearest the last access first.
        for p in lo..front_hi {
            let b = blocks[p as usize];
            let bi = b.index();
            let (first, last) = span[bi];
            if (first..=last).contains(&victim_line) {
                break;
            }
            if win_epoch[bi] != window_no {
                win_epoch[bi] = window_no;
                if pair_epoch[bi] != group_no {
                    pair_epoch[bi] = group_no;
                    pair_count[bi] = 0;
                }
                pair_count[bi] += 1;
                if cands.len() < config.max_candidates {
                    cands.push((b, p));
                }
                earliest[bi] = p;
            } else {
                earliest[bi] = earliest[bi].min(p);
            }
        }
        // Snapshot earliest positions now: the next window reuses the
        // array under a fresh epoch.
        for slot in &mut cands {
            slot.1 = earliest[slot.0.index()];
        }
        staged.push(Staged {
            window: wi,
            hi,
            cands,
        });
    }
    if let Some(v) = group_victim {
        flush_group(&mut staged, &pair_count, &mut choices, v);
    }

    let choices: Vec<WindowChoice> = choices
        .into_iter()
        .map(|c| c.unwrap_or_else(|| unreachable!("every window staged exactly once")))
        .collect();

    Analysis {
        windows,
        choices,
        origins: line_origins(program, layout),
        selection: config.cue_selection,
        per_block_cap: config.max_injections_per_block.max(1),
        min_pair_windows: config.min_windows_per_injection.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_program::{CodeKind, Instruction, LayoutConfig, ProgramBuilder};

    /// Builds the paper's Fig. 5 scenario programmatically: a victim line
    /// A and candidate cue blocks B, C, D, E with controlled execution
    /// counts and window memberships.
    ///
    /// Layout: one function per "block" so each lives on its own line(s).
    struct Fig5 {
        program: Program,
        layout: Layout,
        a: BlockId,
        b: BlockId,
        c: BlockId,
        d: BlockId,
        filler: BlockId,
    }

    fn fig5() -> Fig5 {
        let mut pb = ProgramBuilder::new();
        let mut mk = |name: &str| {
            let f = pb.add_function(name, CodeKind::Static);
            let blk = pb.add_block(f);
            pb.push_inst(blk, Instruction::other(59));
            pb.push_inst(blk, Instruction::ret());
            (f, blk)
        };
        let (_fa, a) = mk("A");
        let (_fb, b) = mk("B");
        let (_fc, c) = mk("C");
        let (_fd, d) = mk("D");
        let (_ff, filler) = mk("filler");
        let program = pb.finish(ripple_program::FuncId::new(0)).unwrap();
        let layout = Layout::new(&program, &LayoutConfig::default());
        Fig5 {
            program,
            layout,
            a,
            b,
            c,
            d,
            filler,
        }
    }

    /// Default analysis config with the paper's argmax selection and no
    /// value filter, which the unit tests reason about directly.
    fn plain_config() -> AnalysisConfig {
        AnalysisConfig {
            cue_selection: CueSelection::HighestProbability,
            min_windows_per_injection: 1,
            ..AnalysisConfig::default()
        }
    }

    /// Builds a trace and matching eviction log. `windows` lists, per
    /// eviction of A, the cue blocks executed inside the window.
    fn trace_and_log(
        f: &Fig5,
        windows: &[Vec<BlockId>],
        extra_execs: &[(BlockId, usize)],
    ) -> (BbTrace, Vec<EvictionEvent>) {
        let victim_line = f.layout.lines_of_block(f.a).next().unwrap();
        let mut blocks = Vec::new();
        let mut log = Vec::new();
        for contents in windows {
            blocks.push(f.a); // last access to A
            let start = (blocks.len() - 1) as u64;
            for &blk in contents {
                blocks.push(blk);
            }
            blocks.push(f.filler); // the trigger block
            log.push(EvictionEvent {
                victim: victim_line,
                evict_pos: (blocks.len() - 1) as u64,
                last_access_pos: start,
                by_prefetch: false,
            });
        }
        // Extra executions outside any window dilute P(evict | exec).
        for &(blk, n) in extra_execs {
            for _ in 0..n {
                blocks.push(blk);
            }
        }
        (BbTrace::new(blocks), log)
    }

    fn best_cue(analysis: &Analysis, i: usize) -> (BlockId, f64) {
        let c = analysis.choices()[i]
            .best_by_probability()
            .expect("window has candidates");
        (c.block, c.probability)
    }

    #[test]
    fn single_window_selects_its_only_candidate() {
        let f = fig5();
        let (trace, log) = trace_and_log(&f, &[vec![f.b]], &[]);
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &plain_config());
        assert_eq!(analysis.choices().len(), 1);
        let (cue, p) = best_cue(&analysis, 0);
        assert_eq!(cue, f.b);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probability_divides_by_execution_count() {
        // B appears in 1 window but executes 4 times in total => P = 0.25.
        let f = fig5();
        let (trace, log) = trace_and_log(&f, &[vec![f.b]], &[(f.b, 3)]);
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &plain_config());
        let (cue, p) = best_cue(&analysis, 0);
        assert_eq!(cue, f.b);
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example_prefers_high_probability_cues() {
        // Mirror Fig. 5b's counts: B executes 16 times appearing in 4
        // windows (P=0.25); C executes 8 times appearing in 4 windows
        // (P=0.5). Windows containing both must pick C.
        let f = fig5();
        let windows = vec![
            vec![f.b, f.c],
            vec![f.b, f.c],
            vec![f.b, f.c],
            vec![f.b, f.c],
        ];
        let (trace, log) = trace_and_log(&f, &windows, &[(f.b, 12), (f.c, 4)]);
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &plain_config());
        for i in 0..4 {
            let (cue, p) = best_cue(&analysis, i);
            assert_eq!(cue, f.c, "C has P=0.5 > B's 0.25");
            assert!((p - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn threshold_gates_injection() {
        let f = fig5();
        let (trace, log) = trace_and_log(&f, &[vec![f.b]], &[(f.b, 3)]); // P = 0.25
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &plain_config());
        let (plan_low, cov_low) = analysis.plan_for_threshold(0.2);
        let (plan_high, cov_high) = analysis.plan_for_threshold(0.5);
        assert_eq!(plan_low.len(), 1);
        assert_eq!(cov_low.covered_windows, 1);
        assert!(plan_high.is_empty());
        assert_eq!(cov_high.covered_windows, 0);
        assert!((cov_low.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn value_filter_drops_single_window_pairs() {
        let f = fig5();
        // Two windows with different best cues: each pair covers one
        // window, so min_windows_per_injection = 2 empties the plan.
        let (trace, log) = trace_and_log(&f, &[vec![f.b], vec![f.c]], &[]);
        let mut cfg = plain_config();
        cfg.min_windows_per_injection = 2;
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &cfg);
        let (plan, cov) = analysis.plan_for_threshold(0.5);
        assert!(plan.is_empty());
        assert_eq!(cov.covered_windows, 0);
        // Recurring pairs survive: both windows cued by B.
        let (trace2, log2) = trace_and_log(&f, &[vec![f.b], vec![f.b]], &[]);
        let analysis2 = analyze(&f.program, &f.layout, &trace2, &log2, &cfg);
        let (plan2, cov2) = analysis2.plan_for_threshold(0.5);
        assert_eq!(plan2.len(), 1);
        assert_eq!(cov2.covered_windows, 2);
    }

    #[test]
    fn per_block_cap_spills_to_next_candidate() {
        let f = fig5();
        let (trace, log) = trace_and_log(&f, &[vec![f.d, f.b]], &[]);
        let mut cfg = plain_config();
        cfg.max_injections_per_block = 1;
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &cfg);
        // Only one victim here so the cap cannot bind; sanity-check shape.
        let (plan, cov) = analysis.plan_for_threshold(0.5);
        assert_eq!(plan.len(), 1);
        assert_eq!(cov.covered_windows, 1);
    }

    #[test]
    fn scan_stops_at_blocks_containing_the_victim() {
        // A window containing [D, A', C] where A' shares the victim line:
        // the backward scan from the trigger stops at A', so only C (after
        // A') can be a back-side candidate; the forward scan from the
        // window start stops immediately at A' too, so D never appears.
        let f = fig5();
        let (trace, log) = trace_and_log(&f, &[vec![f.d, f.a, f.c]], &[]);
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &plain_config());
        let blocks: Vec<BlockId> = analysis.choices()[0]
            .candidates
            .iter()
            .map(|c| c.block)
            .collect();
        assert!(blocks.contains(&f.c));
        assert!(!blocks.contains(&f.a), "victim-holding blocks excluded");
    }

    #[test]
    fn front_candidates_recur_across_windows() {
        // D executes right after A's last access in both windows (front
        // side); the trigger-side cues differ (B then C). The same (D, A)
        // pair must cover both windows, yielding a single injection.
        let f = fig5();
        let (trace, log) =
            trace_and_log(&f, &[vec![f.d, f.b], vec![f.d, f.c]], &[(f.b, 7), (f.c, 7)]);
        let mut cfg = plain_config();
        cfg.min_windows_per_injection = 2;
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &cfg);
        let (plan, cov) = analysis.plan_for_threshold(0.6);
        assert_eq!(plan.len(), 1, "one pair covers both windows");
        assert_eq!(plan.injections()[0].cue, f.d);
        assert_eq!(cov.covered_windows, 2);
    }

    #[test]
    fn unrewritable_cues_are_skipped_but_counted() {
        let mut pb = ProgramBuilder::new();
        let fa = pb.add_function("A", CodeKind::Static);
        let a = pb.add_block(fa);
        pb.push_inst(a, Instruction::other(59));
        pb.push_inst(a, Instruction::ret());
        let fj = pb.add_function("jit", CodeKind::Jit);
        let j = pb.add_block(fj);
        pb.push_inst(j, Instruction::other(59));
        pb.push_inst(j, Instruction::ret());
        let ff = pb.add_function("filler", CodeKind::Static);
        let fill = pb.add_block(ff);
        pb.push_inst(fill, Instruction::other(59));
        pb.push_inst(fill, Instruction::ret());
        let program = pb.finish(fa).unwrap();
        let layout = Layout::new(&program, &LayoutConfig::default());
        let victim = layout.lines_of_block(a).next().unwrap();

        let trace = BbTrace::new(vec![a, j, fill]);
        let log = vec![EvictionEvent {
            victim,
            evict_pos: 2,
            last_access_pos: 0,
            by_prefetch: false,
        }];
        let analysis = analyze(&program, &layout, &trace, &log, &plain_config());
        let (plan, cov) = analysis.plan_for_threshold(0.5);
        assert!(plan.is_empty());
        assert_eq!(cov.skipped_unrewritable, 1);
        assert_eq!(cov.covered_windows, 0);
        assert_eq!(cov.total_windows, 1);
    }

    #[test]
    fn slot_constrained_plan_respects_budget() {
        let f = fig5();
        let (trace, log) = trace_and_log(&f, &[vec![f.b]], &[]);
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &plain_config());
        // No slots anywhere: nothing can be placed.
        let slots = HashMap::new();
        let (plan, cov) = analysis.plan_for_slots(0.5, &slots);
        assert!(plan.is_empty());
        assert_eq!(cov.covered_windows, 0);
        // One slot on the cue block: the window is covered.
        let mut slots = HashMap::new();
        slots.insert(f.b, 1usize);
        let (plan, cov) = analysis.plan_for_slots(0.5, &slots);
        assert_eq!(plan.len(), 1);
        assert_eq!(cov.covered_windows, 1);
    }

    #[test]
    fn prefetch_only_victims_are_ignored() {
        let f = fig5();
        let (trace, _) = trace_and_log(&f, &[vec![f.b]], &[]);
        let log = vec![EvictionEvent {
            victim: LineAddr::new(999),
            evict_pos: 2,
            last_access_pos: u64::MAX,
            by_prefetch: true,
        }];
        let analysis = analyze(&f.program, &f.layout, &trace, &log, &plain_config());
        assert!(analysis.windows().is_empty());
    }
}
