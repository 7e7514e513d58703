//! Set-batched (and optionally sharded) replay of a captured request
//! stream.
//!
//! The in-order drivers walk requests in trace order, so consecutive
//! requests land in unrelated cache sets and every tag probe is a cold
//! cache line. For policies whose decisions depend only on the *per-set
//! order* of events ([`ReplacementPolicy::replay_set_local`]), trace order
//! is overkill: this module buckets the stream's operations by L1I set
//! once per session and replays each set's operations contiguously — the
//! set's tags, the policy's per-set metadata and the (permuted) future
//! index all stay hot.
//!
//! Bucketing costs more than a handful of in-order replays save, so a
//! session buckets only for sharded replay. Bucketed replay is the unit
//! of parallelism: sets are partitioned round-robin across
//! `config.replay_shards` worker threads, each with its own L1I, L2 and
//! pre-warmed L3 clone. Because every L2/L3 set is touched
//! by exactly one L1I set whenever the L1I set count divides the L2 and L3
//! set counts (checked at bucketing time), each shard observes exactly the
//! per-set access orders of the streaming pass, and the shard outputs merge
//! deterministically: `u64` counters sum, while the two order-sensitive
//! outputs — `f64` stall-cycle terms and eviction events, of which each
//! stream record produces at most one — are keyed by record position,
//! sorted, and folded/emitted in stream order. The merged result is
//! byte-identical to the streaming pass at any shard count.

use std::sync::Arc;
use std::time::Instant;

use ripple_obs::Recorder;
use ripple_program::{BlockId, Layout};
use ripple_trace::BbTrace;

use crate::cache::{AccessOutcome, Cache};
use crate::capture::{ColumnarStream, LINE_MASK, PREFETCH_BIT};
use crate::config::{EvictionMechanism, SimConfig};
use crate::intern::{BlockTable, LineId, LineTable};
use crate::policy::{FutureIndex, LruPolicy, ReplacementPolicy};
use crate::sink::EvictionSink;
use crate::stats::{EvictionEvent, SimStats};
use crate::walk::{lower_levels, NO_POS};

/// Operation kinds, stored in the top two bits of [`BucketedOp::word`].
const KIND_DEMAND: u32 = 0;
const KIND_PREFETCH: u32 = 1;
const KIND_SCRIPT_INVAL: u32 = 2;
const KIND_INJECTED_INVAL: u32 = 3;

const KIND_SHIFT: u32 = 30;

/// Line ids must fit the low 30 bits of [`BucketedOp::word`].
const ID_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// Sentinel for "no position" in the compact per-line `u32` arrays;
/// widens to [`NO_POS`]. Trace positions fit `u32` by the bucketing
/// eligibility check, so the sentinel is unambiguous.
const NO_POS_32: u32 = u32::MAX;

#[inline]
fn widen_pos(pos: u32) -> u64 {
    if pos == NO_POS_32 {
        NO_POS
    } else {
        u64::from(pos)
    }
}

/// One replayable operation, 16 bytes, self-contained so a set's
/// operations can execute without consulting the trace.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BucketedOp {
    /// `kind << 30 | line id`.
    word: u32,
    /// Stream record index for demand/prefetch requests (the merge key and
    /// the original `seq`); `u32::MAX` for invalidations, which produce no
    /// order-sensitive output.
    seq: u32,
    /// Trace step the operation executed at (drives warmup gating,
    /// timeliness windows and eviction positions).
    pos: u32,
    /// Raw [`BlockId`] whose address is the access `pc`: the executing
    /// block for demands, the FDIP issuer for prefetches, unused for
    /// invalidations.
    pc: u32,
}

/// A session's request stream bucketed by L1I set, plus the future index
/// re-ordered to match ([`FutureIndex::permute`]): set `s`'s operations
/// are `ops[bounds[s]..bounds[s + 1]]`, in original stream order.
#[derive(Debug)]
pub(crate) struct BucketedStream {
    pub(crate) ops: Vec<BucketedOp>,
    /// `num_sets + 1` offsets into `ops`.
    pub(crate) bounds: Vec<u32>,
    /// The session future index permuted to bucket order: entry `j` holds
    /// the original next-use positions of `ops[j]`, so oracle replays that
    /// pass the bucket index as `seq` stream through it sequentially.
    pub(crate) future: Arc<FutureIndex>,
    pub(crate) trace_len: u64,
    pub(crate) warmup_until: u64,
}

/// Walks every replayable operation of the session in trace order,
/// reproducing the [`CacheWalk`](crate::walk::CacheWalk) step structure
/// exactly: scripted invalidations first (with the same cursor semantics,
/// including consuming out-of-order entries without effect), then the
/// step's recorded requests, then injected invalidations.
///
/// Operations that are no-ops in the cache walk are dropped here:
/// scripted lines outside the text segment, injected operands interned as
/// [`LineId::INVALID`], and all invalidations under
/// [`EvictionMechanism::NoOp`] — none of them touch the cache or any
/// counter.
fn for_each_op(
    trace: &BbTrace,
    stream: &ColumnarStream,
    config: &SimConfig,
    table: &LineTable,
    blocks: &BlockTable,
    mut f: impl FnMut(u32, BucketedOp),
) {
    let num_sets = config.l1i.num_sets();
    let line_base = table.line_base();
    let set_of = |id: u32| ((line_base + u64::from(id)) % num_sets) as u32;
    let script: &[(u64, ripple_program::LineAddr)] = config
        .scripted_invalidations
        .as_ref()
        .map_or(&[], |s| s.as_slice());
    let mut script_cursor = 0usize;
    let mut pf_cursor = 0usize;
    let invals_active = config.eviction_mechanism != EvictionMechanism::NoOp;
    for (t, block) in trace.iter().enumerate() {
        let pos = t as u32;
        while let Some(&(at, line)) = script.get(script_cursor) {
            if at > t as u64 {
                break;
            }
            script_cursor += 1;
            if at == t as u64 {
                if let Some(id) = table.lookup(line) {
                    f(
                        set_of(id.get()),
                        BucketedOp {
                            word: KIND_SCRIPT_INVAL << KIND_SHIFT | id.get(),
                            seq: u32::MAX,
                            pos,
                            pc: 0,
                        },
                    );
                }
            }
        }
        let start = stream.step_bounds[t] as usize;
        let end = stream.step_bounds[t + 1] as usize;
        for k in start..end {
            let raw = stream.packed[k];
            let id = raw & LINE_MASK;
            if raw & PREFETCH_BIT == 0 {
                f(
                    set_of(id),
                    BucketedOp {
                        word: KIND_DEMAND << KIND_SHIFT | id,
                        seq: k as u32,
                        pos,
                        pc: block.get(),
                    },
                );
            } else {
                let issuer = stream.prefetch_pc[pf_cursor];
                pf_cursor += 1;
                f(
                    set_of(id),
                    BucketedOp {
                        word: KIND_PREFETCH << KIND_SHIFT | id,
                        seq: k as u32,
                        pos,
                        pc: issuer,
                    },
                );
            }
        }
        if invals_active {
            for &raw in blocks.inval_ops(block) {
                if raw != LineId::INVALID.get() {
                    f(
                        set_of(raw),
                        BucketedOp {
                            word: KIND_INJECTED_INVAL << KIND_SHIFT | raw,
                            seq: u32::MAX,
                            pos,
                            pc: 0,
                        },
                    );
                }
            }
        }
    }
}

/// Buckets the captured stream by L1I set, or `None` when the session's
/// shape rules set-batched replay out:
///
/// - the L1I set count must divide the L2 and L3 set counts, so each
///   lower-level set is driven by exactly one L1I set (per-shard L2/L3
///   clones then see per-set access orders identical to the streaming
///   pass's);
/// - line ids must fit 30 bits and trace/operation counts must fit `u32`
///   (the compact [`BucketedOp`] encoding).
///
/// Whether the *policy* permits set-major order is the caller's check
/// ([`ReplacementPolicy::replay_set_local`]); this function only owns the
/// structural conditions.
pub(crate) fn bucket_stream(
    trace: &BbTrace,
    stream: &ColumnarStream,
    config: &SimConfig,
    table: &LineTable,
    blocks: &BlockTable,
    future: &Arc<FutureIndex>,
) -> Option<BucketedStream> {
    let s1 = config.l1i.num_sets();
    if !config.l2.num_sets().is_multiple_of(s1) || !config.l3.num_sets().is_multiple_of(s1) {
        return None;
    }
    if u64::from(table.len()) > u64::from(ID_MASK) {
        return None;
    }
    let trace_len = trace.len() as u64;
    if trace_len >= u64::from(u32::MAX) {
        return None;
    }
    let num_sets = s1 as usize;
    let mut counts = vec![0u64; num_sets];
    for_each_op(trace, stream, config, table, blocks, |set, _| {
        counts[set as usize] += 1;
    });
    let total: u64 = counts.iter().sum();
    if total >= u64::from(u32::MAX) {
        return None;
    }
    let mut bounds = Vec::with_capacity(num_sets + 1);
    bounds.push(0u32);
    let mut acc = 0u64;
    for &c in &counts {
        acc += c;
        bounds.push(acc as u32);
    }
    let mut cursor: Vec<u32> = bounds[..num_sets].to_vec();
    let mut ops = vec![BucketedOp::default(); total as usize];
    for_each_op(trace, stream, config, table, blocks, |set, op| {
        let slot = &mut cursor[set as usize];
        ops[*slot as usize] = op;
        *slot += 1;
    });
    let future = future.permute(ops.iter().map(|op| op.seq));
    let warmup_until = crate::generator::warmup_until(trace.len(), config);
    Some(BucketedStream {
        ops,
        bounds,
        future,
        trace_len,
        warmup_until,
    })
}

/// One shard's partial outputs: summable counters plus the two
/// order-sensitive streams keyed by record position for the merge.
struct ShardOutcome {
    stats: SimStats,
    stall: Vec<(u32, f64)>,
    events: Vec<(u32, EvictionEvent)>,
}

/// Replays the bucketed stream under fresh policies from `make_policy`,
/// partitioned round-robin across `config.replay_shards` threads, and
/// merges the shard outputs into stats byte-identical to the streaming
/// pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batched<P: ?Sized + ReplacementPolicy>(
    layout: &Layout,
    config: &SimConfig,
    table: &LineTable,
    bucketed: &BucketedStream,
    stream: &ColumnarStream,
    l3_seed: &Cache<LruPolicy>,
    make_policy: &(dyn Fn() -> Box<P> + Sync),
    sink: &mut dyn EvictionSink,
    recorder: &dyn Recorder,
) -> SimStats {
    let num_sets = config.l1i.num_sets() as usize;
    let shards = config.replay_shards.clamp(1, num_sets.max(1));
    let timing = recorder.enabled();
    let run_start = timing.then(Instant::now);
    if timing {
        // One L3-seed clone per shard — never per run record.
        recorder.add("session.l3_seed_clones", shards as u64);
    }

    // The session batches only sharded runs, so every shard gets a thread.
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move || {
                    run_shard(
                        layout,
                        config,
                        table,
                        bucketed,
                        l3_seed,
                        make_policy(),
                        shard,
                        shards,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // A panicked shard is already a bug in the replayer;
                // propagating the panic is the only sound response.
                #[allow(clippy::expect_used)]
                h.join().expect("replay shard panicked")
            })
            .collect()
    });

    // Merge. Counters sum; the f64 stall terms and the eviction events are
    // re-ordered by record position, reproducing the streaming pass's
    // accumulation order exactly (each record contributes at most one term
    // and one event, so keys are unique and the sort is total).
    let mut stats = SimStats::default();
    let mut stall: Vec<(u32, f64)> = Vec::new();
    let mut events: Vec<(u32, EvictionEvent)> = Vec::new();
    for o in outcomes {
        stats.demand_misses += o.stats.demand_misses;
        stats.compulsory_misses += o.stats.compulsory_misses;
        stats.served_l2 += o.stats.served_l2;
        stats.served_l3 += o.stats.served_l3;
        stats.served_mem += o.stats.served_mem;
        stats.prefetch_fills += o.stats.prefetch_fills;
        stats.evictions += o.stats.evictions;
        stats.prefetch_pollution_evictions += o.stats.prefetch_pollution_evictions;
        stats.invalidate_hits += o.stats.invalidate_hits;
        stall.extend(o.stall);
        events.extend(o.events);
    }
    stall.sort_unstable_by_key(|&(seq, _)| seq);
    let mut stall_cycles = 0.0f64;
    for &(_, term) in &stall {
        stall_cycles += term;
    }
    events.sort_unstable_by_key(|&(seq, _)| seq);
    for (_, event) in events {
        sink.record(event);
    }

    let stats = stream.base.complete(stats, stall_cycles, config);

    if let Some(run_start) = run_start {
        // Batched replay has no warmup/measure boundary instant (shards
        // cross it independently), so attribute the measured wall time
        // proportionally to the trace's warmup fraction.
        let total_nanos = run_start.elapsed().as_nanos() as u64;
        let warmup_nanos = if bucketed.trace_len == 0 {
            total_nanos
        } else {
            (total_nanos as u128 * u128::from(bucketed.warmup_until)
                / u128::from(bucketed.trace_len)) as u64
        };
        recorder.phase("frontend.warmup", warmup_nanos);
        recorder.phase("frontend.measure", total_nanos - warmup_nanos);
    }
    stats
}

/// Replays every set `s` with `s % shards == shard` through a fresh cache
/// hierarchy, mirroring the cache walk's per-operation semantics
/// exactly (same counters, same stall-term expressions, same eviction
/// events — only execution order differs, and only across sets).
#[allow(clippy::too_many_arguments)]
fn run_shard<P: ?Sized + ReplacementPolicy>(
    layout: &Layout,
    config: &SimConfig,
    table: &LineTable,
    bucketed: &BucketedStream,
    l3_seed: &Cache<LruPolicy>,
    policy: Box<P>,
    shard: usize,
    shards: usize,
) -> ShardOutcome {
    let line_base = table.line_base();
    let lines = table.len() as usize;
    let mut l1i: Cache<P> = Cache::with_line_base(config.l1i, policy, line_base);
    let mut l2: Cache<LruPolicy> =
        Cache::with_line_base(config.l2, Box::new(LruPolicy::new(config.l2)), line_base);
    let mut l3 = l3_seed.clone();
    let mut stats = SimStats::default();
    let mut stall: Vec<(u32, f64)> = Vec::new();
    let mut events: Vec<(u32, EvictionEvent)> = Vec::new();
    // Per-line replay state; a line belongs to exactly one L1I set, so
    // shards touch disjoint entries and per-line order matches the
    // streaming pass.
    let mut last_demand = vec![NO_POS_32; lines];
    let mut issue = vec![NO_POS_32; lines];
    let mut seen = vec![false; lines];
    let warmup_until = bucketed.warmup_until;
    let window = u64::from(config.prefetch_timeliness_blocks);
    let num_sets = bucketed.bounds.len() - 1;

    let mut note_eviction = |evicted: Option<LineId>,
                             by_prefetch: bool,
                             op: BucketedOp,
                             counting: bool,
                             stats: &mut SimStats,
                             last_demand: &[u32]| {
        let Some(victim) = evicted else { return };
        let last = last_demand[victim.index()];
        if counting {
            stats.evictions += 1;
            if last == NO_POS_32 {
                stats.prefetch_pollution_evictions += 1;
            }
        }
        events.push((
            op.seq,
            EvictionEvent {
                victim: table.line(victim),
                evict_pos: u64::from(op.pos),
                last_access_pos: widen_pos(last),
                by_prefetch,
            },
        ));
    };

    let mut set = shard;
    while set < num_sets {
        let start = bucketed.bounds[set] as usize;
        let end = bucketed.bounds[set + 1] as usize;
        for j in start..end {
            let op = bucketed.ops[j];
            let id = LineId::new(op.word & ID_MASK);
            let counting = u64::from(op.pos) >= warmup_until;
            match op.word >> KIND_SHIFT {
                KIND_DEMAND => {
                    let pc = layout.block_addr(BlockId::new(op.pc));
                    let out = l1i.access(id, pc, false, j as u64);
                    let issued_at = issue[id.index()];
                    if issued_at != NO_POS_32 {
                        issue[id.index()] = NO_POS_32;
                        if out.is_hit() && counting {
                            let elapsed = u64::from(op.pos).saturating_sub(u64::from(issued_at));
                            if elapsed < window && window > 0 {
                                let remaining = (window - elapsed) as f64 / window as f64;
                                stall.push((
                                    op.seq,
                                    f64::from(config.l2_latency)
                                        * remaining
                                        * config.stall_exposure,
                                ));
                            }
                        }
                    }
                    match out {
                        AccessOutcome::Hit => {}
                        AccessOutcome::Miss { evicted } => {
                            let first_touch = !seen[id.index()];
                            seen[id.index()] = true;
                            let latency = lower_levels(
                                &mut l2, &mut l3, &mut stats, config, table, id, counting,
                            );
                            if counting {
                                stats.demand_misses += 1;
                                if first_touch {
                                    stats.compulsory_misses += 1;
                                }
                                stall.push((op.seq, f64::from(latency) * config.stall_exposure));
                            }
                            note_eviction(evicted, false, op, counting, &mut stats, &last_demand);
                        }
                    }
                    last_demand[id.index()] = op.pos;
                }
                KIND_PREFETCH => {
                    if issue[id.index()] == NO_POS_32 {
                        issue[id.index()] = op.pos;
                    }
                    let pc = layout.block_addr(BlockId::new(op.pc));
                    let out = l1i.access(id, pc, true, j as u64);
                    if let AccessOutcome::Miss { evicted } = out {
                        if counting {
                            stats.prefetch_fills += 1;
                        }
                        seen[id.index()] = true;
                        let _ =
                            lower_levels(&mut l2, &mut l3, &mut stats, config, table, id, counting);
                        note_eviction(evicted, true, op, counting, &mut stats, &last_demand);
                    }
                }
                KIND_SCRIPT_INVAL => {
                    if l1i.invalidate(id) && counting {
                        stats.invalidate_hits += 1;
                    }
                }
                _ => {
                    // KIND_INJECTED_INVAL; NoOp operations were dropped at
                    // bucketing time.
                    let present = match config.eviction_mechanism {
                        EvictionMechanism::Invalidate => l1i.invalidate(id),
                        EvictionMechanism::Demote => l1i.demote(id),
                        EvictionMechanism::NoOp => false,
                    };
                    if present && counting {
                        stats.invalidate_hits += 1;
                    }
                }
            }
        }
        set += shards;
    }
    ShardOutcome {
        stats,
        stall,
        events,
    }
}
