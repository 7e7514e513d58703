//! Offline ideal replacement: Belady's OPT and the paper's revised,
//! prefetch-aware Demand-MIN.
//!
//! Both need the *future* of the access stream, which an online policy
//! cannot have. The engine therefore runs twice: a recording pass captures
//! the cache request stream (which is replacement-policy-independent —
//! prefetcher and branch-predictor state never read the cache), a
//! [`FutureIndex`] annotates every position with the next demand and next
//! prefetch to the same line, and the replay pass consults it.

use std::collections::HashMap;
use std::sync::Arc;

use ripple_program::LineAddr;

use crate::config::CacheGeometry;
use crate::policy::{AccessInfo, ReplacementPolicy, WayView};

/// Position value meaning "never again".
pub const NEVER: u64 = u64::MAX;

/// Internal `u32` sentinel for [`NEVER`]: stream positions fit `u32` (the
/// packed capture indexes records with `u32`), so the index stores half-
/// width positions and widens on read. `u32::MAX` widens to `NEVER`.
const NEVER_32: u32 = u32::MAX;

/// Widens a stored position, mapping the sentinel to [`NEVER`].
#[inline]
fn widen(pos: u32) -> u64 {
    if pos == NEVER_32 {
        NEVER
    } else {
        u64::from(pos)
    }
}

/// One request in the recorded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRecord {
    /// The requested line.
    pub line: LineAddr,
    /// Whether the request was a prefetch.
    pub is_prefetch: bool,
}

/// For every position in a recorded request stream, the position of the
/// next demand access and the next prefetch to the same line.
#[derive(Debug)]
pub struct FutureIndex {
    next_demand: Vec<u32>,
    next_prefetch: Vec<u32>,
    len: u64,
}

impl FutureIndex {
    /// Builds the index with a single backward scan.
    ///
    /// # Panics
    ///
    /// Panics if the stream has `u32::MAX` or more records (the same
    /// capacity contract as the packed capture).
    pub fn build(stream: &[StreamRecord]) -> Arc<Self> {
        let n = stream.len();
        assert!(n < NEVER_32 as usize, "stream exceeds u32 records");
        let mut next_demand = vec![NEVER_32; n];
        let mut next_prefetch = vec![NEVER_32; n];
        let mut last_demand: HashMap<LineAddr, u32> = HashMap::new();
        let mut last_prefetch: HashMap<LineAddr, u32> = HashMap::new();
        for i in (0..n).rev() {
            let r = stream[i];
            next_demand[i] = last_demand.get(&r.line).copied().unwrap_or(NEVER_32);
            next_prefetch[i] = last_prefetch.get(&r.line).copied().unwrap_or(NEVER_32);
            if r.is_prefetch {
                last_prefetch.insert(r.line, i as u32);
            } else {
                last_demand.insert(r.line, i as u32);
            }
        }
        Arc::new(FutureIndex {
            next_demand,
            next_prefetch,
            len: n as u64,
        })
    }

    /// [`FutureIndex::build`] over a bit-packed columnar stream
    /// (`bit 31` = prefetch, low bits = raw [`LineId`](crate::LineId)):
    /// the records are already interned, so the per-line chain heads live
    /// in two flat arrays instead of hash maps. Produces exactly the same
    /// index as `build` over the equivalent [`StreamRecord`] stream.
    pub(crate) fn build_packed(packed: &[u32], num_lines: u32) -> Arc<Self> {
        use crate::capture::{LINE_MASK, PREFETCH_BIT};
        let n = packed.len();
        assert!(n < NEVER_32 as usize, "stream exceeds u32 records");
        let mut next_demand = vec![NEVER_32; n];
        let mut next_prefetch = vec![NEVER_32; n];
        let mut last_demand = vec![NEVER_32; num_lines as usize];
        let mut last_prefetch = vec![NEVER_32; num_lines as usize];
        for i in (0..n).rev() {
            let raw = packed[i];
            let id = (raw & LINE_MASK) as usize;
            next_demand[i] = last_demand[id];
            next_prefetch[i] = last_prefetch[id];
            if raw & PREFETCH_BIT != 0 {
                last_prefetch[id] = i as u32;
            } else {
                last_demand[id] = i as u32;
            }
        }
        Arc::new(FutureIndex {
            next_demand,
            next_prefetch,
            len: n as u64,
        })
    }

    /// Stream length.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the stream was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Next demand access to the same line strictly after position `seq`.
    #[inline]
    pub fn next_demand(&self, seq: u64) -> u64 {
        widen(self.next_demand[seq as usize])
    }

    /// Next prefetch of the same line strictly after position `seq`.
    #[inline]
    pub fn next_prefetch(&self, seq: u64) -> u64 {
        widen(self.next_prefetch[seq as usize])
    }

    /// A copy of this index re-ordered by a replay permutation: entry `j`
    /// of the result is entry `seq_of[j]` of `self` (`u32::MAX` marks a
    /// non-record slot and yields [`NEVER`] distances).
    ///
    /// The stored *values* are untouched — they remain original-stream
    /// positions, and set-local policies only compare them — so a
    /// set-major replay that passes bucket positions as `seq` reads the
    /// future arrays sequentially instead of randomly.
    pub(crate) fn permute(&self, seq_of: impl ExactSizeIterator<Item = u32>) -> Arc<Self> {
        let n = seq_of.len();
        let mut next_demand = Vec::with_capacity(n);
        let mut next_prefetch = Vec::with_capacity(n);
        for s in seq_of {
            if s == NEVER_32 {
                next_demand.push(NEVER_32);
                next_prefetch.push(NEVER_32);
            } else {
                next_demand.push(self.next_demand[s as usize]);
                next_prefetch.push(self.next_prefetch[s as usize]);
            }
        }
        Arc::new(FutureIndex {
            next_demand,
            next_prefetch,
            len: n as u64,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct WayFuture {
    next_demand: u64,
    next_prefetch: u64,
}

impl Default for WayFuture {
    fn default() -> Self {
        WayFuture {
            next_demand: NEVER,
            next_prefetch: NEVER,
        }
    }
}

/// Belady's OPT: evict the line whose next demand access is farthest in
/// the future. Prefetch requests refresh a line's future like any access
/// but OPT's victim choice considers demand distance only.
#[derive(Debug)]
pub struct OptPolicy {
    assoc: usize,
    future: Arc<FutureIndex>,
    ways: Vec<WayFuture>,
}

impl OptPolicy {
    /// Creates an OPT policy over a recorded future.
    pub fn new(geom: CacheGeometry, future: Arc<FutureIndex>) -> Self {
        OptPolicy {
            assoc: usize::from(geom.assoc),
            future,
            ways: vec![WayFuture::default(); geom.num_lines() as usize],
        }
    }

    #[inline]
    fn idx(&self, set: u32, way: usize) -> usize {
        set as usize * self.assoc + way
    }

    fn update(&mut self, info: &AccessInfo, way: usize) {
        let i = self.idx(info.set, way);
        self.ways[i] = WayFuture {
            next_demand: self.future.next_demand(info.seq),
            next_prefetch: self.future.next_prefetch(info.seq),
        };
    }
}

impl ReplacementPolicy for OptPolicy {
    fn name(&self) -> &'static str {
        "opt"
    }

    // Per-(set, way) future distances plus a read-only shared index;
    // victim choice only compares distances within one set.
    fn replay_set_local(&self) -> bool {
        true
    }

    fn metadata_bytes(&self, _geom: &CacheGeometry) -> u64 {
        // An oracle: not implementable in hardware.
        0
    }

    fn on_fill(&mut self, info: &AccessInfo, way: usize) {
        self.update(info, way);
    }

    fn on_hit(&mut self, info: &AccessInfo, way: usize) {
        self.update(info, way);
    }

    fn victim(&mut self, info: &AccessInfo, ways: &[WayView]) -> usize {
        let base = self.idx(info.set, 0);
        (0..ways.len())
            .max_by_key(|&w| self.ways[base + w].next_demand)
            .unwrap_or(0)
    }
}

/// The paper's revised Demand-MIN: if some cached line will be *prefetched*
/// again before any demand access to it, evicting it is free — pick the
/// one whose covering prefetch is farthest away. Otherwise fall back to
/// OPT on demand distances.
#[derive(Debug)]
pub struct DemandMinPolicy {
    assoc: usize,
    future: Arc<FutureIndex>,
    ways: Vec<WayFuture>,
}

impl DemandMinPolicy {
    /// Creates a Demand-MIN policy over a recorded future.
    pub fn new(geom: CacheGeometry, future: Arc<FutureIndex>) -> Self {
        DemandMinPolicy {
            assoc: usize::from(geom.assoc),
            future,
            ways: vec![WayFuture::default(); geom.num_lines() as usize],
        }
    }

    #[inline]
    fn idx(&self, set: u32, way: usize) -> usize {
        set as usize * self.assoc + way
    }

    fn update(&mut self, info: &AccessInfo, way: usize) {
        let i = self.idx(info.set, way);
        self.ways[i] = WayFuture {
            next_demand: self.future.next_demand(info.seq),
            next_prefetch: self.future.next_prefetch(info.seq),
        };
    }
}

impl ReplacementPolicy for DemandMinPolicy {
    fn name(&self) -> &'static str {
        "demand-min"
    }

    // Same argument as OPT: per-(set, way) state, read-only future index.
    fn replay_set_local(&self) -> bool {
        true
    }

    fn metadata_bytes(&self, _geom: &CacheGeometry) -> u64 {
        0
    }

    fn on_fill(&mut self, info: &AccessInfo, way: usize) {
        self.update(info, way);
    }

    fn on_hit(&mut self, info: &AccessInfo, way: usize) {
        self.update(info, way);
    }

    fn victim(&mut self, info: &AccessInfo, ways: &[WayView]) -> usize {
        let base = self.idx(info.set, 0);
        // Lines whose next use is a prefetch (prefetch strictly earlier
        // than any demand): evicting them cannot add a demand miss.
        let mut best_covered: Option<(u64, usize)> = None;
        for w in 0..ways.len() {
            let f = self.ways[base + w];
            if f.next_prefetch < f.next_demand {
                let key = f.next_prefetch;
                if best_covered.is_none_or(|(k, _)| key > k) {
                    best_covered = Some((key, w));
                }
            }
        }
        if let Some((_, w)) = best_covered {
            return w;
        }
        (0..ways.len())
            .max_by_key(|&w| self.ways[base + w].next_demand)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::policy::test_util::tiny_geom;
    use crate::policy::{LruPolicy, RandomPolicy, SrripPolicy};

    fn stream_of(lines: &[(u64, bool)]) -> Vec<StreamRecord> {
        lines
            .iter()
            .map(|&(l, p)| StreamRecord {
                line: LineAddr::new(l),
                is_prefetch: p,
            })
            .collect()
    }

    fn run_policy(
        geom: CacheGeometry,
        policy: Box<dyn ReplacementPolicy>,
        stream: &[StreamRecord],
    ) -> u64 {
        let mut cache: Cache<dyn ReplacementPolicy> = Cache::new(geom, policy);
        let mut misses = 0;
        for (seq, r) in stream.iter().enumerate() {
            let id = crate::LineId::new(r.line.index() as u32);
            let out = cache.access(id, r.line.base_addr(), r.is_prefetch, seq as u64);
            if !r.is_prefetch && !out.is_hit() {
                misses += 1;
            }
        }
        misses
    }

    #[test]
    fn future_index_basics() {
        let s = stream_of(&[(0, false), (2, true), (0, false), (2, false)]);
        let f = FutureIndex::build(&s);
        assert_eq!(f.next_demand(0), 2);
        assert_eq!(f.next_prefetch(0), NEVER);
        assert_eq!(f.next_demand(1), 3);
        assert_eq!(f.next_demand(2), NEVER);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn packed_build_matches_hash_build() {
        let pattern = [
            (0, false),
            (2, true),
            (0, false),
            (2, false),
            (4, true),
            (0, true),
            (4, false),
        ];
        let packed: Vec<u32> = pattern
            .iter()
            .map(|&(l, p)| l as u32 | if p { crate::capture::PREFETCH_BIT } else { 0 })
            .collect();
        let hash = FutureIndex::build(&stream_of(&pattern));
        let dense = FutureIndex::build_packed(&packed, 8);
        assert_eq!(hash.len(), dense.len());
        for i in 0..pattern.len() as u64 {
            assert_eq!(hash.next_demand(i), dense.next_demand(i), "demand @{i}");
            assert_eq!(
                hash.next_prefetch(i),
                dense.next_prefetch(i),
                "prefetch @{i}"
            );
        }
    }

    #[test]
    fn opt_beats_lru_on_belady_counterexample() {
        // 2-way set, lines 0,2,4 (set 0). Classic pattern where LRU
        // thrashes but OPT keeps the reused line pinned.
        let pattern: Vec<(u64, bool)> = (0..60).map(|i| (((i % 3) * 2) as u64, false)).collect();
        let geom = tiny_geom();
        let s = stream_of(&pattern);
        let f = FutureIndex::build(&s);
        let opt = run_policy(geom, Box::new(OptPolicy::new(geom, f)), &s);
        let lru = run_policy(geom, Box::new(LruPolicy::new(geom)), &s);
        assert!(opt < lru, "opt {opt} !< lru {lru}");
        // OPT on a k=2, N=3 cyclic pattern alternates hit/miss after the
        // three compulsory misses: ~1.5 misses per 3 accesses.
        assert!(opt <= 3 + 60 / 2, "opt {opt}");
        assert_eq!(lru, 60, "lru thrashes every access");
    }

    #[test]
    fn opt_never_worse_than_online_policies() {
        // Property: on randomish streams OPT's demand misses lower-bound
        // every online policy we implement.
        let geom = tiny_geom();
        let mut lines = Vec::new();
        let mut x: u64 = 0x12345;
        for i in 0..800u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x % 12) * 2 + (i % 2); // both sets
            lines.push((line, false));
        }
        let s = stream_of(&lines);
        let f = FutureIndex::build(&s);
        let opt = run_policy(geom, Box::new(OptPolicy::new(geom, f)), &s);
        for policy in [
            Box::new(LruPolicy::new(geom)) as Box<dyn ReplacementPolicy>,
            Box::new(RandomPolicy::new(geom, 3)),
            Box::new(SrripPolicy::new(geom)),
        ] {
            let name = policy.name();
            let misses = run_policy(geom, policy, &s);
            assert!(opt <= misses, "opt {opt} > {name} {misses}");
        }
    }

    #[test]
    fn demand_min_prefers_evicting_prefetch_covered_lines() {
        let geom = tiny_geom();
        // Set 0, 2 ways. Fill A(0) and B(2). Then C(4) must evict one.
        // A will be prefetched again before its demand access; B will be
        // demanded soon. Demand-MIN must evict A (covered by prefetch),
        // turning A's future access into a hit via the prefetch.
        let s = stream_of(&[
            (0, false), // A
            (2, false), // B
            (4, false), // C -> evict?
            (2, false), // B demand (soon)
            (0, true),  // A prefetched back
            (0, false), // A demand -> hit thanks to prefetch
        ]);
        let f = FutureIndex::build(&s);
        let dm = run_policy(
            geom,
            Box::new(DemandMinPolicy::new(geom, Arc::clone(&f))),
            &s,
        );
        let opt = run_policy(geom, Box::new(OptPolicy::new(geom, f)), &s);
        // Demand misses: A, B, C only. OPT (demand distances: A's demand is
        // farthest) also evicts A here, so both achieve 3.
        assert_eq!(dm, 3);
        assert!(dm <= opt);
    }

    #[test]
    fn demand_min_not_worse_than_opt_with_prefetching() {
        // With prefetches in the stream, Demand-MIN's demand-miss count
        // must never exceed OPT's on these randomized streams.
        let geom = tiny_geom();
        let mut x: u64 = 0xdead;
        let mut lines = Vec::new();
        for i in 0..1500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x % 10) * 2;
            let is_prefetch = i % 3 == 0;
            lines.push((line, is_prefetch));
        }
        let s = stream_of(&lines);
        let f = FutureIndex::build(&s);
        let dm = run_policy(
            geom,
            Box::new(DemandMinPolicy::new(geom, Arc::clone(&f))),
            &s,
        );
        let opt = run_policy(geom, Box::new(OptPolicy::new(geom, f)), &s);
        assert!(dm <= opt, "demand-min {dm} > opt {opt}");
    }
}
