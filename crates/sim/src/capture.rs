//! Columnar capture of the L1I request stream.
//!
//! The capture is the [request generator](crate::generator) writing into a
//! bit-packed buffer instead of a cache walk: one `u32` per request
//! (bit 31 = prefetch, low bits = [`LineId`]), per-trace-step bounds, the
//! FDIP issuer of every prefetch, and the policy-independent post-warmup
//! counters. Three consumers read it: `FutureIndex::build_packed`, for the
//! offline-ideal policies, [`ColumnarStream::replay`], which feeds the
//! requests back in stream order to a cache walk, and
//! [`bucket_stream`](crate::batch::bucket_stream), for set-batched replay.

use ripple_obs::Recorder;
use ripple_program::BlockId;

use crate::generator::{BaseStats, RequestGenerator, Requests, WarmupClock};
use crate::intern::LineId;

/// Bit 31 of a packed record: set when the request is a prefetch.
pub(crate) const PREFETCH_BIT: u32 = 1 << 31;

/// Low 31 bits of a packed record: the raw [`LineId`].
pub(crate) const LINE_MASK: u32 = PREFETCH_BIT - 1;

/// Maximum number of records a capture may hold: positions are stored as
/// `u32` throughout the columnar machinery (`step_bounds`, the
/// [`FutureIndex`](crate::FutureIndex)'s half-width next-use arrays with
/// `u32::MAX` reserved as the "never again" sentinel), so the stream must
/// stay strictly below `u32::MAX` records.
pub const MAX_STREAM_RECORDS: u64 = u32::MAX as u64;

/// A trace produced more cache requests than the columnar capture can
/// index: record positions are `u32` (see [`MAX_STREAM_RECORDS`]), and a
/// longer stream would silently wrap instead of simulating correctly.
///
/// Returned at *record* time — before any replay consumes a truncated
/// position — by the fallible session entry points
/// ([`SimSession::try_ensure_recorded`](crate::SimSession::try_ensure_recorded),
/// [`SimSession::try_run`](crate::SimSession::try_run)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamLimitError {
    /// How many records the capture had produced when it hit the limit.
    pub records: u64,
}

impl std::fmt::Display for StreamLimitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "captured request stream reached {} records; the columnar \
             capture indexes positions with u32 and supports at most {} \
             records per trace",
            self.records,
            MAX_STREAM_RECORDS - 1
        )
    }
}

impl std::error::Error for StreamLimitError {}

/// The record-time capacity guard: `records` is the stream length after
/// the latest trace step. Kept as a standalone function so the bound is
/// unit-testable without materializing a 4-billion-request trace.
#[inline]
pub(crate) fn check_stream_capacity(records: u64) -> Result<u32, StreamLimitError> {
    if records >= MAX_STREAM_RECORDS {
        return Err(StreamLimitError { records });
    }
    Ok(records as u32)
}

/// The bit-packed, policy-independent record of one session's request
/// stream, captured once per [`SimSession`](crate::SimSession).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColumnarStream {
    /// One `u32` per request: `PREFETCH_BIT | LineId` for prefetches,
    /// the bare raw [`LineId`] for demand fetches. The index of a record
    /// is its global `seq` (what [`FutureIndex`](crate::FutureIndex)
    /// positions refer to).
    pub(crate) packed: Vec<u32>,
    /// `trace_len + 1` offsets into `packed`: the requests issued while
    /// trace step `i` executed are `packed[step_bounds[i]..step_bounds[i+1]]`.
    pub(crate) step_bounds: Vec<u32>,
    /// Raw [`BlockId`] whose address is the `pc` of each prefetch request,
    /// in issue order (FDIP prefetches are issued on behalf of *predicted*
    /// blocks, so the issuer is not derivable from the trace step).
    pub(crate) prefetch_pc: Vec<u32>,
    /// Policy-independent post-warmup counters.
    pub(crate) base: BaseStats,
}

impl ColumnarStream {
    /// Capture replay: feeds the recorded requests of `trace` (the trace
    /// this stream was captured from) to `out`, with the same calls in the
    /// same order as the generator made, and returns the captured
    /// policy-independent counters. Reports the `frontend.warmup` /
    /// `frontend.measure` split at `warmup_until`, as the generator does.
    pub(crate) fn replay<R: Requests>(
        &self,
        trace: impl Iterator<Item = BlockId>,
        warmup_until: u64,
        out: &mut R,
        recorder: &dyn Recorder,
    ) -> Result<BaseStats, R::Error> {
        let mut clock = WarmupClock::start(recorder);
        let mut pf_cursor = 0usize;
        for ((pos, block), bounds) in (0u64..).zip(trace).zip(self.step_bounds.windows(2)) {
            out.begin_step(pos, block);
            for &raw in &self.packed[bounds[0] as usize..bounds[1] as usize] {
                let id = LineId::new(raw & LINE_MASK);
                if raw & PREFETCH_BIT == 0 {
                    out.demand(id);
                } else {
                    out.prefetch(id, BlockId::new(self.prefetch_pc[pf_cursor]));
                    pf_cursor += 1;
                }
            }
            out.end_step(block)?;
            if pos == warmup_until {
                clock.measuring();
            }
        }
        clock.finish(recorder);
        Ok(self.base)
    }
}

/// The capture consumer: bit-packs every generated request.
struct Packer {
    packed: Vec<u32>,
    step_bounds: Vec<u32>,
    prefetch_pc: Vec<u32>,
}

impl Requests for Packer {
    type Error = StreamLimitError;

    #[inline]
    fn begin_step(&mut self, _pos: u64, _block: BlockId) {
        // Scripted invalidations only touch the L1I: neither the stream
        // nor any policy-independent counter depends on them.
    }

    #[inline]
    fn demand(&mut self, id: LineId) {
        self.packed.push(id.get());
    }

    #[inline]
    fn prefetch(&mut self, id: LineId, issuer: BlockId) {
        self.packed.push(id.get() | PREFETCH_BIT);
        self.prefetch_pc.push(issuer.get());
    }

    #[inline]
    fn end_step(&mut self, _block: BlockId) -> Result<(), StreamLimitError> {
        // Injected invalidations only touch the L1I too. A trace beyond the
        // u32 record capacity stops here, before any position wraps.
        let end = check_stream_capacity(self.packed.len() as u64)?;
        self.step_bounds.push(end);
        Ok(())
    }
}

/// The capture pass: the request generator writing into the packed buffer,
/// with no cache model at all. Returns a typed [`StreamLimitError`] if the
/// trace produces more requests than `u32` positions can index (checked
/// per step, before anything wraps).
///
/// # Panics
///
/// Panics if `num_lines` (the session's interned line count) does not fit
/// the 31-bit line field of a packed record.
pub(crate) fn capture(
    generator: RequestGenerator<'_>,
    num_lines: u32,
    trace: impl ExactSizeIterator<Item = BlockId>,
    recorder: &dyn Recorder,
) -> Result<ColumnarStream, StreamLimitError> {
    assert!(
        num_lines < PREFETCH_BIT,
        "text segment too large for packed stream records"
    );
    let mut packer = Packer {
        // Heuristic: ~1-2 demand lines per block plus up to one filtered
        // prefetch each.
        packed: Vec::with_capacity(trace.len() * 3),
        step_bounds: Vec::with_capacity(trace.len() + 1),
        prefetch_pc: Vec::new(),
    };
    packer.step_bounds.push(0);
    let base = generator.run(trace, &mut packer, recorder)?;
    Ok(ColumnarStream {
        packed: packer.packed,
        step_bounds: packer.step_bounds,
        prefetch_pc: packer.prefetch_pc,
        base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_capacity_guard_bounds() {
        // Synthetic bound check: the guard, not a 4-billion-request trace.
        assert_eq!(check_stream_capacity(0), Ok(0));
        assert_eq!(
            check_stream_capacity(MAX_STREAM_RECORDS - 1),
            Ok(u32::MAX - 1)
        );
        assert_eq!(
            check_stream_capacity(MAX_STREAM_RECORDS),
            Err(StreamLimitError {
                records: MAX_STREAM_RECORDS
            })
        );
        assert_eq!(
            check_stream_capacity((1 << 32) + 5),
            Err(StreamLimitError {
                records: (1 << 32) + 5
            })
        );
    }

    #[test]
    fn stream_limit_error_display_names_the_limit() {
        let e = StreamLimitError {
            records: MAX_STREAM_RECORDS,
        };
        let s = e.to_string();
        assert!(s.contains("4294967295"), "{s}");
        assert!(s.contains("u32"), "{s}");
    }
}
