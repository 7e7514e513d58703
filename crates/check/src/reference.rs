//! The reference frontend: the checker-owned oracle for the simulator's
//! production run paths.
//!
//! One self-contained, single-pass frontend in the simulator's original
//! pre-interning form: the block→line mapping is re-derived from the
//! layout on every step, the per-line bookkeeping is hash-keyed by
//! [`LineAddr`], the prefetch dedup filter is a scanned `VecDeque`, and
//! request generation and the cache walk are one interleaved loop. It
//! shares only the building blocks with production — [`Cache`], the
//! policies and the [`BranchPredictor`] — and none of the request
//! generator, the cache walk, the capture, the bucketing or the batched
//! replay. Caches speak [`LineId`], so addresses map through the
//! *identity* interning (`id == raw line index`), which preserves set
//! mapping and policy decisions exactly.
//!
//! Offline-ideal policies run in two passes, as originally designed: a
//! recording pass under LRU captures the [`StreamRecord`] stream, the
//! hash-keyed [`FutureIndex::build`] indexes it, and a second pass runs
//! the oracle. [`run`] must be byte-identical to
//! [`SimSession::run_with_sink`](ripple_sim::SimSession::run_with_sink) —
//! stats and the full eviction stream — which the `equivalence` dimension
//! and the equivalence suite assert.

use std::collections::{HashMap, HashSet, VecDeque};

use ripple_program::{BlockId, InstKind, Layout, LineAddr, Program};
use ripple_sim::{
    build_ideal_policy, build_policy, BranchPredictor, Cache, EvictionEvent, EvictionMechanism,
    EvictionSink, FutureIndex, LineId, LruPolicy, PolicyKind, Prediction, PrefetcherKind,
    ReplacementPolicy, SimConfig, SimStats, StreamRecord,
};
use ripple_trace::BbTrace;

/// The prefetch dedup window, in requests (the simulator's model
/// parameter, restated here).
const PREFETCH_FILTER: usize = 32;

/// Simulates `trace` under `policy` (overriding `config.policy`),
/// streaming every L1I eviction into `sink`.
pub fn run(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    config: &SimConfig,
    policy: PolicyKind,
    sink: &mut dyn EvictionSink,
) -> SimStats {
    let cfg = config.clone().with_policy(policy);
    let l1i_policy = if policy.is_offline_ideal() {
        // The recording policy is irrelevant to the captured stream; LRU
        // is the cheapest throwaway.
        let (_, stream) = ReferenceFrontend::new(
            program,
            layout,
            &cfg,
            Box::new(LruPolicy::new(cfg.l1i)),
            true,
            &mut ripple_sim::NullSink,
        )
        .run(trace.iter());
        build_ideal_policy(policy, cfg.l1i, FutureIndex::build(&stream))
    } else {
        build_policy(&cfg)
    };
    ReferenceFrontend::new(program, layout, &cfg, l1i_policy, false, sink)
        .run(trace.iter())
        .0
}

/// Identity interning: the id *is* the raw line index.
#[inline]
fn id_of(line: LineAddr) -> LineId {
    debug_assert!(line.index() < u64::from(u32::MAX), "line index exceeds u32");
    LineId::new(line.index() as u32)
}

/// [`id_of`] for lines of unconstrained origin (invalidate operands such
/// as [`NOOP_LINE`](ripple_program::NOOP_LINE), scripted lines): an index
/// outside `u32` can never be resident, so it converts to `None` and the
/// invalidation is a no-op — the same fallback production gets
/// from `LineTable::lookup`.
#[inline]
fn try_id_of(line: LineAddr) -> Option<LineId> {
    (line.index() < u64::from(u32::MAX)).then(|| LineId::new(line.index() as u32))
}

/// Inverse of [`id_of`].
#[inline]
fn line_of(id: LineId) -> LineAddr {
    LineAddr::new(u64::from(id.get()))
}

/// One reference frontend pass over a block trace.
struct ReferenceFrontend<'a> {
    program: &'a Program,
    layout: &'a Layout,
    config: &'a SimConfig,
    l1i: Cache<dyn ReplacementPolicy>,
    l2: Cache<dyn ReplacementPolicy>,
    l3: Cache<dyn ReplacementPolicy>,
    bpred: BranchPredictor,
    ftq: VecDeque<BlockId>,
    frontier: Option<BlockId>,
    prefetch_filter: VecDeque<LineAddr>,
    stats: SimStats,
    stall_cycles: f64,
    seq: u64,
    /// When recording: the request stream, for the oracle's future index.
    record: Option<Vec<StreamRecord>>,
    sink: &'a mut dyn EvictionSink,
    last_demand_pos: HashMap<LineAddr, u64>,
    prefetch_issue_pos: HashMap<LineAddr, u64>,
    seen_lines: HashSet<LineAddr>,
    prev_block: Option<BlockId>,
    trace_pos: u64,
    script_cursor: usize,
    warmup_until: u64,
}

impl<'a> ReferenceFrontend<'a> {
    fn new(
        program: &'a Program,
        layout: &'a Layout,
        config: &'a SimConfig,
        l1i_policy: Box<dyn ReplacementPolicy>,
        record: bool,
        sink: &'a mut dyn EvictionSink,
    ) -> Self {
        let mut l3: Cache<dyn ReplacementPolicy> =
            Cache::new(config.l3, Box::new(LruPolicy::new(config.l3)));
        for block in program.blocks() {
            for line in layout.lines_of_block(block.id()) {
                l3.access(id_of(line), line.base_addr(), false, 0);
            }
        }
        ReferenceFrontend {
            program,
            layout,
            config,
            l1i: Cache::new(config.l1i, l1i_policy),
            l2: Cache::new(config.l2, Box::new(LruPolicy::new(config.l2))),
            l3,
            bpred: BranchPredictor::new(),
            ftq: VecDeque::new(),
            frontier: None,
            prefetch_filter: VecDeque::with_capacity(PREFETCH_FILTER),
            stats: SimStats::default(),
            stall_cycles: 0.0,
            seq: 0,
            record: record.then(Vec::new),
            sink,
            last_demand_pos: HashMap::new(),
            prefetch_issue_pos: HashMap::new(),
            seen_lines: HashSet::new(),
            prev_block: None,
            trace_pos: 0,
            script_cursor: 0,
            warmup_until: 0,
        }
    }

    /// Runs the whole trace; returns the stats and, when recording, the
    /// request stream.
    fn run(
        mut self,
        trace: impl ExactSizeIterator<Item = BlockId>,
    ) -> (SimStats, Vec<StreamRecord>) {
        let len = trace.len() as u64;
        self.warmup_until = (len as f64 * self.config.warmup_fraction.clamp(0.0, 0.9)) as u64;
        let mut counted_blocks = 0u64;
        for block in trace {
            self.step(block);
            if self.trace_pos >= self.warmup_until {
                counted_blocks += 1;
            }
            self.trace_pos += 1;
        }
        let total_instr = self.stats.instructions + self.stats.invalidate_instructions;
        self.stats.blocks = counted_blocks;
        self.stats.cycles = total_instr as f64 * self.config.base_cpi + self.stall_cycles;
        (self.stats, self.record.unwrap_or_default())
    }

    #[inline]
    fn counting(&self) -> bool {
        self.trace_pos >= self.warmup_until
    }

    fn step(&mut self, block: BlockId) {
        // 0. Scripted (oracle) invalidations.
        if let Some(script) = self.config.scripted_invalidations.clone() {
            while let Some(&(pos, line)) = script.get(self.script_cursor) {
                if pos > self.trace_pos {
                    break;
                }
                self.script_cursor += 1;
                if pos == self.trace_pos
                    && try_id_of(line).is_some_and(|id| self.l1i.invalidate(id))
                    && self.counting()
                {
                    self.stats.invalidate_hits += 1;
                }
            }
        }

        // 1. FDIP bookkeeping: consume or squash the FTQ, train predictor.
        if self.config.prefetcher == PrefetcherKind::Fdip {
            if let Some(prev) = self.prev_block {
                let correct = self.bpred.train(self.program, self.layout, prev, block);
                if !correct && self.counting() {
                    self.stats.mispredictions += 1;
                }
            }
            match self.ftq.front() {
                Some(&head) if head == block => {
                    self.ftq.pop_front();
                }
                Some(_) => {
                    self.ftq.clear();
                    self.frontier = None;
                    self.bpred.reset_speculation();
                }
                None => {}
            }
        }
        self.prev_block = Some(block);

        // 2. Demand-fetch the block's lines (re-derived per step).
        let bb = self.program.block(block);
        let pc = self.layout.block_addr(block);
        if self.counting() {
            self.stats.instructions += bb.original_instructions().len() as u64;
            self.stats.invalidate_instructions += u64::from(bb.injected_prefix_len());
        }
        let lines: Vec<LineAddr> = self.layout.lines_of_block(block).collect();
        for &line in &lines {
            self.demand_access(line, pc);
        }

        // 3. Prefetching.
        match self.config.prefetcher {
            PrefetcherKind::None => {}
            PrefetcherKind::NextLine => {
                for &line in &lines {
                    self.issue_prefetch(line.next(), pc);
                }
            }
            PrefetcherKind::Fdip => self.extend_runahead(block),
        }

        // 4. Execute injected invalidations.
        for inst in &bb.instructions()[..bb.injected_prefix_len() as usize] {
            if let InstKind::Invalidate { line } = inst.kind() {
                let present = match (self.config.eviction_mechanism, try_id_of(line)) {
                    (EvictionMechanism::Invalidate, Some(id)) => self.l1i.invalidate(id),
                    (EvictionMechanism::Demote, Some(id)) => self.l1i.demote(id),
                    _ => false,
                };
                if present && self.counting() {
                    self.stats.invalidate_hits += 1;
                }
            }
        }
    }

    fn next_seq(&mut self, line: LineAddr, is_prefetch: bool) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        if let Some(rec) = &mut self.record {
            rec.push(StreamRecord { line, is_prefetch });
        }
        seq
    }

    fn demand_access(&mut self, line: LineAddr, pc: ripple_program::Addr) {
        let seq = self.next_seq(line, false);
        let counting = self.counting();
        if counting {
            self.stats.demand_accesses += 1;
        }
        let out = self.l1i.access(id_of(line), pc, false, seq);
        if let Some(issue_pos) = self.prefetch_issue_pos.remove(&line) {
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
        match out {
            ripple_sim::AccessOutcome::Hit => {}
            ripple_sim::AccessOutcome::Miss { evicted } => {
                let first_touch = self.seen_lines.insert(line);
                let latency = self.lower_levels(line);
                if counting {
                    self.stats.demand_misses += 1;
                    if first_touch {
                        self.stats.compulsory_misses += 1;
                    }
                    self.stall_cycles += f64::from(latency) * self.config.stall_exposure;
                }
                self.note_eviction(evicted, false);
            }
        }
        self.last_demand_pos.insert(line, self.trace_pos);
    }

    fn issue_prefetch(&mut self, line: LineAddr, pc: ripple_program::Addr) {
        if self.prefetch_filter.contains(&line) {
            return;
        }
        if self.prefetch_filter.len() == PREFETCH_FILTER {
            self.prefetch_filter.pop_front();
        }
        self.prefetch_filter.push_back(line);

        let seq = self.next_seq(line, true);
        if self.counting() {
            self.stats.prefetches_issued += 1;
        }
        self.prefetch_issue_pos
            .entry(line)
            .or_insert(self.trace_pos);
        let out = self.l1i.access(id_of(line), pc, true, seq);
        if let ripple_sim::AccessOutcome::Miss { evicted } = out {
            if self.counting() {
                self.stats.prefetch_fills += 1;
            }
            self.seen_lines.insert(line);
            let _ = self.lower_levels(line);
            self.note_eviction(evicted, true);
        }
    }

    fn note_eviction(&mut self, evicted: Option<LineId>, by_prefetch: bool) {
        let Some(victim) = evicted.map(line_of) else {
            return;
        };
        let last = self.last_demand_pos.get(&victim).copied();
        if self.counting() {
            self.stats.evictions += 1;
            if last.is_none() {
                self.stats.prefetch_pollution_evictions += 1;
            }
        }
        self.sink.record(EvictionEvent {
            victim,
            evict_pos: self.trace_pos,
            last_access_pos: last.unwrap_or(u64::MAX),
            by_prefetch,
        });
    }

    fn lower_levels(&mut self, line: LineAddr) -> u32 {
        let pc = line.base_addr();
        let counting = self.counting();
        let l2_hit = self.l2.access(id_of(line), pc, false, 0).is_hit();
        if l2_hit {
            if counting {
                self.stats.served_l2 += 1;
            }
            return self.config.l2_latency;
        }
        let l3_hit = self.l3.access(id_of(line), pc, false, 0).is_hit();
        if l3_hit {
            if counting {
                self.stats.served_l3 += 1;
            }
            self.config.l3_latency
        } else {
            if counting {
                self.stats.served_mem += 1;
            }
            self.config.mem_latency
        }
    }

    fn extend_runahead(&mut self, current: BlockId) {
        if self.ftq.is_empty() && self.frontier.is_none() {
            self.frontier = Some(current);
        }
        while self.ftq.len() < self.config.ftq_depth {
            let from = match self.frontier {
                Some(f) => f,
                None => break,
            };
            match self.bpred.predict(self.program, self.layout, from) {
                Prediction::Block(next) => {
                    self.ftq.push_back(next);
                    self.frontier = Some(next);
                    let pc = self.layout.block_addr(next);
                    let lines: Vec<LineAddr> = self.layout.lines_of_block(next).collect();
                    for line in lines {
                        self.issue_prefetch(line, pc);
                    }
                }
                Prediction::Unknown => break,
            }
        }
    }
}
