//! The request generator: the one walk from a block trace to the L1I
//! request stream.
//!
//! The request stream is replacement-policy-independent: the prefetcher,
//! its dedup filter and the branch predictor never observe cache contents
//! (the invariant [`engine`](crate::engine) documents). The generator owns
//! exactly that policy-independent half of the frontend — predictor
//! training, the FDIP fetch target queue, the prefetch filter and the
//! policy-independent post-warmup counters — and hands every request to a
//! [`Requests`] consumer:
//!
//! * the capture ([`capture`](crate::capture)) bit-packs the requests into
//!   a [`ColumnarStream`](crate::capture::ColumnarStream) for the future
//!   index and capture replay;
//! * the cache walk ([`walk`](crate::walk)) drives the L1I/L2/L3 hierarchy
//!   with them directly, with no buffer in between (the streaming pass).
//!
//! The consumer is a type parameter, so each pass is monomorphized and the
//! consumer's callbacks inline into the trace loop. The generator is
//! deterministic, so the `k`-th request it emits is record `k` of the
//! capture in every pass, and
//! [`ColumnarStream::replay`](crate::capture::ColumnarStream::replay) can
//! feed the same consumer calls back from the capture.

use std::collections::VecDeque;
use std::time::Instant;

use ripple_obs::Recorder;
use ripple_program::{BlockId, Layout, Program};

use crate::bpred::{BranchPredictor, Prediction};
use crate::config::{PrefetcherKind, SimConfig};
use crate::intern::{BlockTable, FetchPlan, LineId};
use crate::stats::SimStats;

/// Dedup window for issued prefetches (a real FDIP filters against the
/// in-flight queue; this models that cheaply and, crucially, in a way that
/// does not depend on cache contents so the request stream stays
/// replacement-policy-independent).
const PREFETCH_FILTER: usize = 32;

/// The first trace position whose statistics count: everything before it
/// is cache warmup.
pub(crate) fn warmup_until(trace_len: usize, config: &SimConfig) -> u64 {
    (trace_len as f64 * config.warmup_fraction.clamp(0.0, 0.9)) as u64
}

/// The post-warmup counters that do not depend on the replacement policy,
/// counted by the generator and stamped onto every run's [`SimStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BaseStats {
    pub(crate) blocks: u64,
    pub(crate) instructions: u64,
    pub(crate) invalidate_instructions: u64,
    pub(crate) demand_accesses: u64,
    pub(crate) prefetches_issued: u64,
    pub(crate) mispredictions: u64,
}

impl BaseStats {
    /// A run's final statistics: its policy-dependent counters `stats`,
    /// these policy-independent ones, and the cycle total.
    pub(crate) fn complete(
        self,
        stats: SimStats,
        stall_cycles: f64,
        config: &SimConfig,
    ) -> SimStats {
        let total_instr = self.instructions + self.invalidate_instructions;
        SimStats {
            blocks: self.blocks,
            instructions: self.instructions,
            invalidate_instructions: self.invalidate_instructions,
            demand_accesses: self.demand_accesses,
            prefetches_issued: self.prefetches_issued,
            mispredictions: self.mispredictions,
            cycles: total_instr as f64 * config.base_cpi + stall_cycles,
            ..stats
        }
    }
}

/// The `frontend.warmup` / `frontend.measure` wall split of one in-order
/// pass over the trace. The clock is read only when the recorder is
/// enabled.
pub(crate) struct WarmupClock {
    start: Option<Instant>,
    measure: Option<Instant>,
}

impl WarmupClock {
    pub(crate) fn start(recorder: &dyn Recorder) -> Self {
        WarmupClock {
            start: recorder.enabled().then(Instant::now),
            measure: None,
        }
    }

    /// The first post-warmup step has executed (called once per pass).
    #[inline]
    pub(crate) fn measuring(&mut self) {
        if self.start.is_some() {
            self.measure = Some(Instant::now());
        }
    }

    /// Reports the split; a pass that never left warmup is all warmup.
    pub(crate) fn finish(self, recorder: &dyn Recorder) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let measured_at = self.measure.unwrap_or(end);
        recorder.phase("frontend.warmup", (measured_at - start).as_nanos() as u64);
        if let Some(m) = self.measure {
            recorder.phase("frontend.measure", (end - m).as_nanos() as u64);
        }
    }
}

/// A consumer of the generated request stream. Per trace step the
/// generator calls `begin_step`, then `demand` for each of the block's
/// lines, then `prefetch` for each filtered prefetch, then `end_step`.
pub(crate) trait Requests {
    /// Why a consumer may stop the walk early.
    type Error;

    /// Trace step `pos` is about to issue its requests; `block` executes
    /// there.
    fn begin_step(&mut self, pos: u64, block: BlockId);

    /// A demand fetch of `id` by the executing block.
    fn demand(&mut self, id: LineId);

    /// A prefetch of `id` issued on behalf of `issuer` (the executing
    /// block for next-line, a *predicted* block for FDIP).
    fn prefetch(&mut self, id: LineId, issuer: BlockId);

    /// The executing `block` has issued all of its requests.
    fn end_step(&mut self, block: BlockId) -> Result<(), Self::Error>;
}

/// One generator pass over a trace.
pub(crate) struct RequestGenerator<'a> {
    program: &'a Program,
    layout: &'a Layout,
    config: &'a SimConfig,
    plan: &'a FetchPlan,
    blocks: &'a BlockTable,
    bpred: BranchPredictor,
    ftq: VecDeque<BlockId>,
    frontier: Option<BlockId>,
    /// FIFO order of the prefetch dedup window...
    filter_fifo: VecDeque<LineId>,
    /// ...and its membership, indexed by line id.
    in_filter: Vec<bool>,
    base: BaseStats,
    prev_block: Option<BlockId>,
    trace_pos: u64,
    warmup_until: u64,
}

impl<'a> RequestGenerator<'a> {
    pub(crate) fn new(
        program: &'a Program,
        layout: &'a Layout,
        config: &'a SimConfig,
        plan: &'a FetchPlan,
        blocks: &'a BlockTable,
        num_lines: u32,
    ) -> Self {
        RequestGenerator {
            program,
            layout,
            config,
            plan,
            blocks,
            bpred: BranchPredictor::new(),
            ftq: VecDeque::new(),
            frontier: None,
            filter_fifo: VecDeque::with_capacity(PREFETCH_FILTER),
            in_filter: vec![false; num_lines as usize],
            base: BaseStats::default(),
            prev_block: None,
            trace_pos: 0,
            warmup_until: 0,
        }
    }

    /// Walks the whole trace into `out` and returns the policy-independent
    /// counters, or the first error `out` raised.
    ///
    /// Reports the `frontend.warmup` / `frontend.measure` wall split when
    /// `recorder` is enabled (clocks are read only then).
    pub(crate) fn run<R: Requests>(
        mut self,
        trace: impl ExactSizeIterator<Item = BlockId>,
        out: &mut R,
        recorder: &dyn Recorder,
    ) -> Result<BaseStats, R::Error> {
        self.warmup_until = warmup_until(trace.len(), self.config);
        let mut clock = WarmupClock::start(recorder);
        for block in trace {
            self.step(block, out)?;
            if self.trace_pos >= self.warmup_until {
                if self.base.blocks == 0 {
                    clock.measuring();
                }
                self.base.blocks += 1;
            }
            self.trace_pos += 1;
        }
        clock.finish(recorder);
        Ok(self.base)
    }

    #[inline]
    fn counting(&self) -> bool {
        self.trace_pos >= self.warmup_until
    }

    #[inline]
    fn step<R: Requests>(&mut self, block: BlockId, out: &mut R) -> Result<(), R::Error> {
        out.begin_step(self.trace_pos, block);

        // 1. FDIP bookkeeping: consume or squash the FTQ, train predictor.
        if self.config.prefetcher == PrefetcherKind::Fdip {
            if let Some(prev) = self.prev_block {
                let correct = self.bpred.train(self.program, self.layout, prev, block);
                if !correct && self.counting() {
                    self.base.mispredictions += 1;
                }
            }
            match self.ftq.front() {
                Some(&head) if head == block => {
                    self.ftq.pop_front();
                }
                Some(_) => {
                    // Runahead went down the wrong path: squash.
                    self.ftq.clear();
                    self.frontier = None;
                    self.bpred.reset_speculation();
                }
                None => {}
            }
        }
        self.prev_block = Some(block);

        // 2. Demand-fetch the block's lines (precomputed fetch plan).
        let plan = self.plan;
        let ids = plan.lines_of(block);
        if self.counting() {
            self.base.instructions += u64::from(self.blocks.instructions(block));
            self.base.invalidate_instructions += u64::from(self.blocks.injected(block));
            self.base.demand_accesses += ids.len() as u64;
        }
        for &id in ids {
            out.demand(id);
        }

        // 3. Prefetching.
        match self.config.prefetcher {
            PrefetcherKind::None => {}
            PrefetcherKind::NextLine => {
                // The table's margin line keeps `id.next()` in range even
                // for the last code line.
                for &id in ids {
                    self.issue_prefetch(id.next(), block, out);
                }
            }
            PrefetcherKind::Fdip => self.extend_runahead(block, out),
        }

        // 4. The consumer executes the block's injected invalidations.
        out.end_step(block)
    }

    #[inline]
    fn issue_prefetch<R: Requests>(&mut self, id: LineId, issuer: BlockId, out: &mut R) {
        if self.in_filter[id.index()] {
            return;
        }
        if self.filter_fifo.len() == PREFETCH_FILTER {
            if let Some(oldest) = self.filter_fifo.pop_front() {
                self.in_filter[oldest.index()] = false;
            }
        }
        self.filter_fifo.push_back(id);
        self.in_filter[id.index()] = true;
        if self.counting() {
            self.base.prefetches_issued += 1;
        }
        out.prefetch(id, issuer);
    }

    /// FDIP: follow the predicted path up to the FTQ depth, prefetching
    /// each predicted block's lines.
    fn extend_runahead<R: Requests>(&mut self, current: BlockId, out: &mut R) {
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
                    let plan = self.plan;
                    for &id in plan.lines_of(next) {
                        self.issue_prefetch(id, next, out);
                    }
                }
                Prediction::Unknown => break,
            }
        }
    }
}
