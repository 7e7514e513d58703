//! The cache walk: the policy-dependent half of the frontend.
//!
//! [`CacheWalk`] consumes the request stream in order, straight from the
//! [request generator](crate::generator) (the streaming pass) or from a
//! capture ([`ColumnarStream::replay`](crate::capture::ColumnarStream::replay)),
//! and drives it through the L1I under the run's replacement policy, the
//! LRU L2 and the pre-warmed LRU L3: demand hits and misses, prefetch
//! fills, scripted and injected invalidations, the stall-based timing
//! model, and the eviction events.
//! [`batch`](crate::batch) replays the same per-request semantics
//! set-major over a bucketed capture and shares [`lower_levels`] with it.

use ripple_program::{Addr, BlockId, Layout, LineAddr, Program};

use crate::cache::{AccessOutcome, Cache};
use crate::config::{EvictionMechanism, SimConfig};
use crate::generator::{BaseStats, Requests};
use crate::intern::{BlockTable, FetchPlan, LineId, LineTable};
use crate::policy::{LruPolicy, ReplacementPolicy};
use crate::sink::EvictionSink;
use crate::stats::{EvictionEvent, SimStats};

/// Position sentinel meaning "never" (no demand access / no outstanding
/// prefetch issue for this line yet).
pub(crate) const NO_POS: u64 = u64::MAX;

/// The steady-state L3 pre-warm every run starts from. The application has
/// executed long before the measured window, so its text is resident in
/// the last level cache (the paper's 100 M-instruction steady-state traces
/// imply the same): first touches cost an L3 hit, not DRAM. It depends
/// only on session-level state, so batched replay builds it once per
/// session and clones it per shard.
pub(crate) fn prewarm_l3(
    program: &Program,
    table: &LineTable,
    plan: &FetchPlan,
    config: &SimConfig,
) -> Cache<LruPolicy> {
    let base = table.line_base();
    let mut l3: Cache<LruPolicy> =
        Cache::with_line_base(config.l3, Box::new(LruPolicy::new(config.l3)), base);
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
pub(crate) fn lower_levels(
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
            l2: Cache::with_line_base(config.l2, Box::new(LruPolicy::new(config.l2)), base),
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
