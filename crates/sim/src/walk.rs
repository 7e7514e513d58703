//! The cache walk: the policy-dependent half of the frontend.
//!
//! [`CacheWalk`] consumes the request stream in order, straight from the
//! [request generator](crate::generator) (the streaming pass) or from a
//! capture ([`ColumnarStream::replay`](crate::capture::ColumnarStream::replay)),
//! and drives it through the L1I under the run's replacement policy, the
//! LRU L2 and the pre-warmed LRU L3: demand hits and misses, prefetch
//! fills, scripted and injected invalidations, the stall-based timing
//! model, and the eviction events.

use ripple_program::{Addr, BlockId, Layout, LineAddr, Program, CACHE_LINE_BYTES};

use crate::cache::{AccessOutcome, Cache};
use crate::config::{CacheGeometry, EvictionMechanism, SimConfig};
use crate::generator::{BaseStats, Requests};
use crate::intern::{BlockTable, FetchPlan, LineId, LineTable};
use crate::policy::{LruPolicy, ReplacementPolicy};
use crate::sink::EvictionSink;
use crate::stats::{EvictionEvent, SimStats};

/// Position sentinel meaning "never" (no demand access / no outstanding
/// prefetch issue for this line yet).
const NO_POS: u64 = u64::MAX;

/// An empty always-LRU lower level (L2 or L3) of `geom`, built with only
/// the ways `table`'s lines can fill: `min(assoc, ceil(lines / sets))`, at
/// least one. The set count and set mapping stay `geom`'s.
///
/// This is exact, not an approximation. The level is only ever accessed
/// with `table`'s ids, and those are contiguous, so they map round-robin
/// to the sets and no set has more lines mapping to it than the sized
/// ways. Neither this cache nor the full-geometry one ever chooses a
/// victim in such a set, so both return the same outcome for every
/// access. When `ceil(lines / sets) >= assoc` the geometry is unchanged.
/// The L1I is not sized this way: its policies read `assoc` (Hawkeye's
/// OPTgen capacity, DRRIP's set dueling).
fn lru_level(geom: CacheGeometry, table: &LineTable) -> Cache<LruPolicy> {
    let sets = geom.num_sets();
    let ways = u64::from(table.len())
        .div_ceil(sets)
        .clamp(1, u64::from(geom.assoc));
    let sized = CacheGeometry::new(sets * ways * CACHE_LINE_BYTES, ways as u16);
    Cache::with_line_base(sized, Box::new(LruPolicy::new(sized)), table.line_base())
}

/// The steady-state L3 pre-warm every run starts from. The application has
/// executed long before the measured window, so its text is resident in
/// the last level cache (the paper's 100 M-instruction steady-state traces
/// imply the same): first touches cost an L3 hit, not DRAM.
pub(crate) fn prewarm_l3(
    program: &Program,
    table: &LineTable,
    plan: &FetchPlan,
    config: &SimConfig,
) -> Cache<LruPolicy> {
    let mut l3 = lru_level(config.l3, table);
    for block in program.blocks() {
        for &id in plan.lines_of(block.id()) {
            l3.access(id, table.line(id).base_addr(), false, 0);
        }
    }
    l3
}

/// The L2 → L3 → memory fill path of an L1I miss: looks `id` up in L2 then
/// L3, filling on the way, and returns the latency of the serving level.
#[inline]
fn lower_levels(
    l2: &mut Cache<LruPolicy>,
    l3: &mut Cache<LruPolicy>,
    stats: &mut SimStats,
    config: &SimConfig,
    table: &LineTable,
    id: LineId,
    counting: bool,
) -> u32 {
    let pc = table.line(id).base_addr();
    if l2.access(id, pc, false, 0).is_hit() {
        if counting {
            stats.served_l2 += 1;
        }
        return config.l2_latency;
    }
    if l3.access(id, pc, false, 0).is_hit() {
        if counting {
            stats.served_l3 += 1;
        }
        config.l3_latency
    } else {
        if counting {
            stats.served_mem += 1;
        }
        config.mem_latency
    }
}

/// One policy run through the cache hierarchy, fed request by request.
pub(crate) struct CacheWalk<'a, P: ?Sized + ReplacementPolicy> {
    layout: &'a Layout,
    config: &'a SimConfig,
    table: &'a LineTable,
    blocks: &'a BlockTable,
    l1i: Cache<P>,
    // L2 and L3 are always LRU, so they stay concrete: no virtual dispatch
    // on the miss path.
    l2: Cache<LruPolicy>,
    l3: Cache<LruPolicy>,
    stats: SimStats,
    stall_cycles: f64,
    sink: &'a mut dyn EvictionSink,
    /// Trace position of each line's last demand access (`NO_POS` = never).
    last_demand_pos: Vec<u64>,
    /// Trace position of each line's oldest unconsumed prefetch *issue*
    /// (`NO_POS` = none outstanding). Timeliness charges key on the issue
    /// stream, which is replacement-policy-independent, so policy orderings
    /// are preserved: a demand hit may pay at most the partial L2 latency,
    /// which never exceeds the full charge the same access would pay as a
    /// miss.
    prefetch_issue_pos: Vec<u64>,
    /// Whether each line has ever been fetched (compulsory-miss tracking).
    seen_lines: Vec<bool>,
    /// Global request index: record `seq` of the capture, which is what
    /// the offline-ideal policies' future index is keyed by.
    seq: u64,
    trace_pos: u64,
    /// Address of the executing block (the `pc` of its demand fetches).
    pc: Addr,
    /// The scripted-invalidation schedule, borrowed once for the whole run.
    script: &'a [(u64, LineAddr)],
    script_cursor: usize,
    warmup_until: u64,
}

impl<'a, P: ?Sized + ReplacementPolicy> CacheWalk<'a, P> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        layout: &'a Layout,
        config: &'a SimConfig,
        table: &'a LineTable,
        blocks: &'a BlockTable,
        l3: Cache<LruPolicy>,
        l1i_policy: Box<P>,
        warmup_until: u64,
        sink: &'a mut dyn EvictionSink,
    ) -> Self {
        let base = table.line_base();
        let lines = table.len() as usize;
        CacheWalk {
            layout,
            config,
            table,
            blocks,
            l1i: Cache::with_line_base(config.l1i, l1i_policy, base),
            l2: lru_level(config.l2, table),
            l3,
            stats: SimStats::default(),
            stall_cycles: 0.0,
            sink,
            last_demand_pos: vec![NO_POS; lines],
            prefetch_issue_pos: vec![NO_POS; lines],
            seen_lines: vec![false; lines],
            seq: 0,
            trace_pos: 0,
            pc: Addr::new(0),
            script: config
                .scripted_invalidations
                .as_ref()
                .map_or(&[], |s| s.as_slice()),
            script_cursor: 0,
            warmup_until,
        }
    }

    /// The run's statistics: the walk's policy-dependent counters plus the
    /// generator's policy-independent `base`.
    pub(crate) fn finish(self, base: BaseStats) -> SimStats {
        base.complete(self.stats, self.stall_cycles, self.config)
    }

    #[inline]
    fn counting(&self) -> bool {
        self.trace_pos >= self.warmup_until
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn note_eviction(&mut self, evicted: Option<LineId>, by_prefetch: bool) {
        let Some(victim) = evicted else { return };
        let last = self.last_demand_pos[victim.index()];
        if self.counting() {
            self.stats.evictions += 1;
            if last == NO_POS {
                self.stats.prefetch_pollution_evictions += 1;
            }
        }
        self.sink.record(EvictionEvent {
            victim: self.table.line(victim),
            evict_pos: self.trace_pos,
            last_access_pos: last,
            by_prefetch,
        });
    }
}

impl<P: ?Sized + ReplacementPolicy> Requests for CacheWalk<'_, P> {
    type Error = std::convert::Infallible;

    #[inline]
    fn begin_step(&mut self, pos: u64, block: BlockId) {
        self.trace_pos = pos;
        self.pc = self.layout.block_addr(block);
        // Scripted (oracle) invalidations scheduled for this position apply
        // before the block executes. Lines outside the interned text
        // segment can never be resident, so they are skipped outright.
        while let Some(&(at, line)) = self.script.get(self.script_cursor) {
            if at > pos {
                break;
            }
            self.script_cursor += 1;
            if at == pos {
                let hit = self
                    .table
                    .lookup(line)
                    .is_some_and(|id| self.l1i.invalidate(id));
                // Stats-gated like injected invalidations: the cache state
                // always updates, the counter only counts once warmup has
                // elapsed.
                if hit && self.counting() {
                    self.stats.invalidate_hits += 1;
                }
            }
        }
    }

    #[inline]
    fn demand(&mut self, id: LineId) {
        let seq = self.next_seq();
        let counting = self.counting();
        let out = self.l1i.access(id, self.pc, false, seq);
        // Timeliness: the first demand use after a prefetch issue pays the
        // fraction of the fill latency the runahead distance failed to
        // hide (a miss pays the full charge below instead).
        let issue_pos = self.prefetch_issue_pos[id.index()];
        if issue_pos != NO_POS {
            self.prefetch_issue_pos[id.index()] = NO_POS;
            if out.is_hit() && counting {
                let window = u64::from(self.config.prefetch_timeliness_blocks);
                let elapsed = self.trace_pos.saturating_sub(issue_pos);
                if elapsed < window && window > 0 {
                    let remaining = (window - elapsed) as f64 / window as f64;
                    self.stall_cycles +=
                        f64::from(self.config.l2_latency) * remaining * self.config.stall_exposure;
                }
            }
        }
        if let AccessOutcome::Miss { evicted } = out {
            let first_touch = !self.seen_lines[id.index()];
            self.seen_lines[id.index()] = true;
            let latency = lower_levels(
                &mut self.l2,
                &mut self.l3,
                &mut self.stats,
                self.config,
                self.table,
                id,
                counting,
            );
            if counting {
                self.stats.demand_misses += 1;
                if first_touch {
                    self.stats.compulsory_misses += 1;
                }
                self.stall_cycles += f64::from(latency) * self.config.stall_exposure;
            }
            self.sink.demand_miss(self.table.line(id), self.trace_pos);
            self.note_eviction(evicted, false);
        }
        self.last_demand_pos[id.index()] = self.trace_pos;
    }

    #[inline]
    fn prefetch(&mut self, id: LineId, issuer: BlockId) {
        let seq = self.next_seq();
        let counting = self.counting();
        if self.prefetch_issue_pos[id.index()] == NO_POS {
            self.prefetch_issue_pos[id.index()] = self.trace_pos;
        }
        let pc = self.layout.block_addr(issuer);
        if let AccessOutcome::Miss { evicted } = self.l1i.access(id, pc, true, seq) {
            if counting {
                self.stats.prefetch_fills += 1;
            }
            self.seen_lines[id.index()] = true;
            // Prefetch latency is off the critical path; still warms L2/L3.
            let _ = lower_levels(
                &mut self.l2,
                &mut self.l3,
                &mut self.stats,
                self.config,
                self.table,
                id,
                counting,
            );
            self.note_eviction(evicted, true);
        }
    }

    #[inline]
    fn end_step(&mut self, block: BlockId) -> Result<(), Self::Error> {
        // Injected invalidations sit at the block head; their cache effects
        // apply once the block is fetched and executed.
        let blocks = self.blocks;
        for &raw in blocks.inval_ops(block) {
            let id = (raw != LineId::INVALID.get()).then(|| LineId::new(raw));
            let present = match (self.config.eviction_mechanism, id) {
                (EvictionMechanism::Invalidate, Some(id)) => self.l1i.invalidate(id),
                (EvictionMechanism::Demote, Some(id)) => self.l1i.demote(id),
                _ => false,
            };
            if present && self.counting() {
                self.stats.invalidate_hits += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use ripple_program::{CodeKind, Instruction, LayoutConfig, ProgramBuilder};

    /// A program of one 251-byte block, so its layout spans several
    /// distinct lines, plus the interned tables a walk reads.
    struct Fixture {
        program: Program,
        layout: Layout,
        table: LineTable,
        plan: FetchPlan,
        blocks: BlockTable,
    }

    const BLOCK: BlockId = BlockId::new(0);

    fn fixture() -> Fixture {
        let mut b = ProgramBuilder::new();
        let f = b.add_function("f", CodeKind::Static);
        let bb = b.add_block(f);
        b.push_inst(bb, Instruction::other(250));
        b.push_inst(bb, Instruction::ret());
        let program = b.finish(f).unwrap();
        let layout = Layout::new(&program, &LayoutConfig::default());
        let table = LineTable::build(&layout);
        assert!(table.len() >= 3, "the block must span three lines");
        let plan = FetchPlan::build(&program, &layout, &table);
        let blocks = BlockTable::build(&program, &table);
        Fixture {
            program,
            layout,
            table,
            plan,
            blocks,
        }
    }

    /// A configuration whose L1I and L2 each hold one line, so any two
    /// distinct lines conflict in both.
    fn one_line_cfg() -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.l1i = CacheGeometry::new(64, 1);
        cfg.l2 = CacheGeometry::new(64, 1);
        cfg
    }

    fn walk<'a>(
        fx: &'a Fixture,
        cfg: &'a SimConfig,
        warmup_until: u64,
        sink: &'a mut dyn EvictionSink,
    ) -> CacheWalk<'a, LruPolicy> {
        let l3 = prewarm_l3(&fx.program, &fx.table, &fx.plan, cfg);
        let policy = Box::new(LruPolicy::new(cfg.l1i));
        CacheWalk::new(
            &fx.layout,
            cfg,
            &fx.table,
            &fx.blocks,
            l3,
            policy,
            warmup_until,
            sink,
        )
    }

    /// Executes the block at `pos`, demanding `id`.
    fn demand_at(w: &mut CacheWalk<'_, LruPolicy>, pos: u64, id: LineId) {
        w.begin_step(pos, BLOCK);
        w.demand(id);
        w.end_step(BLOCK).unwrap();
    }

    const A: LineId = LineId::new(0);
    const B: LineId = LineId::new(1);
    const C: LineId = LineId::new(2);

    #[test]
    fn prewarm_l3_holds_every_fetched_line() {
        let fx = fixture();
        let cfg = SimConfig::default();
        let l3 = prewarm_l3(&fx.program, &fx.table, &fx.plan, &cfg);
        let lines = fx.plan.lines_of(BLOCK);
        assert!(!lines.is_empty());
        for &id in lines {
            assert!(l3.contains(id), "line {id} not pre-warmed");
        }
        assert_eq!(l3.occupancy(), lines.len());
    }

    #[test]
    fn a_sized_level_matches_its_full_geometry_access_for_access() {
        // A power-of-two set count (mask mapping) and an odd one (modulo).
        for geom in [
            CacheGeometry::new(8 * 4 * 64, 4),
            CacheGeometry::new(6 * 3 * 64, 3),
        ] {
            let sets = geom.num_sets() as u32;
            let assoc = u32::from(geom.assoc);
            // ceil(lines / sets) below, at (twice) and above `assoc`.
            for lines in [
                sets + 1,
                sets * (assoc - 1) + 1,
                sets * assoc,
                sets * assoc + 3,
            ] {
                let table = LineTable::identity(lines);
                let mut sized = lru_level(geom, &table);
                let mut full: Cache<LruPolicy> = Cache::new(geom, Box::new(LruPolicy::new(geom)));
                let mut x = 0x9E37_79B9_u32 ^ lines;
                for seq in 0..4_000 {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let id = LineId::new(x % lines);
                    let pc = table.line(id).base_addr();
                    assert_eq!(
                        sized.access(id, pc, false, seq),
                        full.access(id, pc, false, seq),
                        "{sets} sets x {assoc} ways, {lines} lines, access {seq}"
                    );
                }
                assert_eq!(sized.geometry().num_sets(), geom.num_sets());
                let ways = lines.div_ceil(sets).min(assoc);
                assert_eq!(u32::from(sized.geometry().assoc), ways);
            }
        }
    }

    #[test]
    fn lower_levels_serve_from_the_nearest_level_and_fill_on_the_way() {
        let fx = fixture();
        let cfg = one_line_cfg();
        let base = fx.table.line_base();
        let mut l2 = Cache::with_line_base(cfg.l2, Box::new(LruPolicy::new(cfg.l2)), base);
        let mut l3 = Cache::with_line_base(cfg.l3, Box::new(LruPolicy::new(cfg.l3)), base);
        let mut stats = SimStats::default();
        let mut fetch = |id, stats: &mut SimStats| {
            lower_levels(&mut l2, &mut l3, stats, &cfg, &fx.table, id, true)
        };
        assert_eq!(fetch(A, &mut stats), cfg.mem_latency, "cold: memory");
        assert_eq!(fetch(A, &mut stats), cfg.l2_latency, "filled into L2");
        assert_eq!(fetch(B, &mut stats), cfg.mem_latency, "B evicts A from L2");
        assert_eq!(fetch(A, &mut stats), cfg.l3_latency, "A stayed in L3");
        assert_eq!(
            (stats.served_l2, stats.served_l3, stats.served_mem),
            (1, 1, 2)
        );
    }

    #[test]
    fn lower_levels_fill_without_counting_during_warmup() {
        let fx = fixture();
        let cfg = one_line_cfg();
        let base = fx.table.line_base();
        let mut l2 = Cache::with_line_base(cfg.l2, Box::new(LruPolicy::new(cfg.l2)), base);
        let mut l3 = Cache::with_line_base(cfg.l3, Box::new(LruPolicy::new(cfg.l3)), base);
        let mut stats = SimStats::default();
        let latency = lower_levels(&mut l2, &mut l3, &mut stats, &cfg, &fx.table, A, false);
        assert_eq!(latency, cfg.mem_latency);
        assert_eq!(stats, SimStats::default(), "warmup must count nothing");
        let latency = lower_levels(&mut l2, &mut l3, &mut stats, &cfg, &fx.table, A, true);
        assert_eq!(latency, cfg.l2_latency, "the uncounted fetch filled L2");
        assert_eq!(stats.served_l2, 1);
    }

    #[test]
    fn conflicting_demands_evict_with_their_last_demand_position() {
        let fx = fixture();
        let cfg = one_line_cfg();
        let mut sink = VecSink::new();
        let mut w = walk(&fx, &cfg, 0, &mut sink);
        demand_at(&mut w, 0, A);
        demand_at(&mut w, 1, B);
        demand_at(&mut w, 2, A);
        let stats = w.stats.clone();
        drop(w);
        assert_eq!(stats.demand_misses, 3);
        assert_eq!(
            stats.compulsory_misses, 2,
            "the second miss on A is not compulsory"
        );
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.prefetch_pollution_evictions, 0);
        assert_eq!(stats.served_l3, 3, "the pre-warmed L3 serves every L2 miss");
        let event = |victim, evict_pos, last_access_pos| EvictionEvent {
            victim: fx.table.line(victim),
            evict_pos,
            last_access_pos,
            by_prefetch: false,
        };
        assert_eq!(sink.events(), [event(A, 1, 0), event(B, 2, 1)]);
    }

    #[test]
    fn an_unused_prefetch_counts_as_pollution_when_evicted() {
        let fx = fixture();
        let cfg = one_line_cfg();
        let mut sink = VecSink::new();
        let mut w = walk(&fx, &cfg, 0, &mut sink);
        demand_at(&mut w, 0, A);
        w.begin_step(1, BLOCK);
        w.prefetch(B, BLOCK);
        w.end_step(BLOCK).unwrap();
        demand_at(&mut w, 2, C);
        let stats = w.stats.clone();
        drop(w);
        assert_eq!(stats.prefetch_fills, 1);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.prefetch_pollution_evictions, 1);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].by_prefetch, "the prefetch fill evicted A");
        assert_eq!(events[0].last_access_pos, 0);
        assert!(!events[1].by_prefetch, "the demand on C evicted B");
        assert_eq!(events[1].victim, fx.table.line(B));
        assert_eq!(events[1].last_access_pos, NO_POS, "B was never demanded");
    }

    #[test]
    fn a_timely_prefetch_charges_only_the_unhidden_latency() {
        let fx = fixture();
        let mut cfg = SimConfig::default();
        cfg.prefetch_timeliness_blocks = 4;
        let mut sink = VecSink::new();
        let mut w = walk(&fx, &cfg, 0, &mut sink);
        // A is demanded one block after its prefetch: 3/4 of the L2
        // latency is still exposed.
        w.begin_step(0, BLOCK);
        w.prefetch(A, BLOCK);
        w.end_step(BLOCK).unwrap();
        demand_at(&mut w, 1, A);
        let expected = f64::from(cfg.l2_latency) * 0.75 * cfg.stall_exposure;
        assert!(
            (w.stall_cycles - expected).abs() < 1e-9,
            "{}",
            w.stall_cycles
        );
        // B is demanded a full window after its prefetch: fully hidden.
        w.begin_step(2, BLOCK);
        w.prefetch(B, BLOCK);
        w.end_step(BLOCK).unwrap();
        demand_at(&mut w, 6, B);
        assert!(
            (w.stall_cycles - expected).abs() < 1e-9,
            "{}",
            w.stall_cycles
        );
        assert_eq!(w.stats.demand_misses, 0);
        assert_eq!(w.stats.prefetch_fills, 2);
    }

    #[test]
    fn scripted_invalidations_apply_before_their_block() {
        let fx = fixture();
        let mut cfg = SimConfig::default();
        cfg.scripted_invalidations = Some(std::sync::Arc::new(vec![
            (1, fx.table.line(A)),
            (3, fx.table.line(B)),
        ]));
        let mut sink = VecSink::new();
        let mut w = walk(&fx, &cfg, 0, &mut sink);
        demand_at(&mut w, 0, A);
        // The invalidation at position 1 removes A before A is fetched.
        demand_at(&mut w, 1, A);
        assert_eq!(w.stats.invalidate_hits, 1);
        assert_eq!(w.stats.demand_misses, 2);
        assert_eq!(w.stats.compulsory_misses, 1);
        // B was never fetched, so its invalidation finds nothing.
        demand_at(&mut w, 3, A);
        assert_eq!(w.stats.invalidate_hits, 1);
        assert_eq!(w.stats.demand_misses, 2);
        drop(w);
        assert!(
            sink.events().is_empty(),
            "an invalidation is not an eviction"
        );
    }

    #[test]
    fn warmup_updates_cache_state_but_not_counters() {
        let fx = fixture();
        let cfg = one_line_cfg();
        let mut sink = VecSink::new();
        let mut w = walk(&fx, &cfg, 2, &mut sink);
        demand_at(&mut w, 0, A);
        demand_at(&mut w, 1, B);
        assert_eq!(w.stats, SimStats::default(), "warmup counts nothing");
        assert_eq!(w.stall_cycles, 0.0);
        demand_at(&mut w, 2, B);
        assert_eq!(w.stats.demand_misses, 0, "B was filled during warmup");
        demand_at(&mut w, 3, A);
        let stats = w.stats.clone();
        drop(w);
        assert_eq!(stats.demand_misses, 1);
        assert_eq!(stats.compulsory_misses, 0, "A was first touched in warmup");
        assert_eq!(stats.evictions, 1);
        assert_eq!(sink.events().len(), 2, "the sink sees warmup evictions too");
    }

    /// Records demand misses only.
    #[derive(Default)]
    struct MissLog(Vec<(LineAddr, u64)>);

    impl EvictionSink for MissLog {
        fn record(&mut self, _event: EvictionEvent) {}

        fn demand_miss(&mut self, line: LineAddr, pos: u64) {
            self.0.push((line, pos));
        }
    }

    #[test]
    fn the_sink_sees_each_demand_miss_once_warmup_included() {
        let fx = fixture();
        let cfg = one_line_cfg();
        let mut sink = MissLog::default();
        let mut w = walk(&fx, &cfg, 2, &mut sink);
        demand_at(&mut w, 0, A);
        demand_at(&mut w, 1, B);
        demand_at(&mut w, 2, B);
        demand_at(&mut w, 3, A);
        // A prefetch fill is not a demand miss, and its demand use hits.
        w.begin_step(4, BLOCK);
        w.prefetch(C, BLOCK);
        w.end_step(BLOCK).unwrap();
        demand_at(&mut w, 5, C);
        drop(w);
        let line = |id| fx.table.line(id);
        assert_eq!(sink.0, [(line(A), 0), (line(B), 1), (line(A), 3)]);
    }
}
