//! Least-recently-used replacement.

use crate::intern::LineId;

use crate::config::CacheGeometry;
use crate::policy::{AccessInfo, ReplacementPolicy, WayView};

/// True LRU: evicts the way with the oldest access stamp.
///
/// Reported metadata matches the paper's Table I (64 B for a 32 KB / 8-way
/// cache, i.e. one recency bit per line as implemented by tree pseudo-LRU
/// in real hardware).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruPolicy {
    assoc: usize,
    stamps: Vec<u64>, // sets × assoc
    clock: u64,
}

impl LruPolicy {
    /// Creates an LRU policy for `geom`.
    pub fn new(geom: CacheGeometry) -> Self {
        LruPolicy {
            assoc: usize::from(geom.assoc),
            stamps: vec![0; geom.num_lines() as usize],
            clock: 0,
        }
    }

    #[inline]
    fn idx(&self, set: u32, way: usize) -> usize {
        set as usize * self.assoc + way
    }

    fn touch(&mut self, set: u32, way: usize) {
        self.clock += 1;
        let i = self.idx(set, way);
        self.stamps[i] = self.clock;
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn metadata_bytes(&self, geom: &CacheGeometry) -> u64 {
        // One bit per line (tree pseudo-LRU), as in Table I.
        geom.num_lines() / 8
    }

    fn on_fill(&mut self, info: &AccessInfo, way: usize) {
        self.touch(info.set, way);
    }

    fn on_hit(&mut self, info: &AccessInfo, way: usize) {
        self.touch(info.set, way);
    }

    fn victim(&mut self, info: &AccessInfo, ways: &[WayView]) -> usize {
        let base = self.idx(info.set, 0);
        (0..ways.len())
            .min_by_key(|&w| self.stamps[base + w])
            .unwrap_or(0)
    }

    fn on_evict(&mut self, _set: u32, _way: usize, _line: LineId) {}

    fn on_invalidate(&mut self, set: u32, way: usize) {
        let i = self.idx(set, way);
        self.stamps[i] = 0;
    }

    fn on_demote(&mut self, set: u32, way: usize) {
        let i = self.idx(set, way);
        self.stamps[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{demand_misses, tiny_geom};

    #[test]
    fn metadata_matches_table_i() {
        let geom = CacheGeometry::new(32 * 1024, 8);
        let p = LruPolicy::new(geom);
        assert_eq!(p.metadata_bytes(&geom), 64);
    }

    #[test]
    fn lru_stack_property() {
        // With a 2-way set, accessing A B A C must evict B, not A.
        let geom = tiny_geom();
        // Lines 0,2,4 in set 0: A=0 B=2 C=4. Stream: A B A C A.
        // LRU: C evicts B, final A access hits => 3 misses.
        let misses = demand_misses(
            geom,
            Box::new(LruPolicy::new(geom)),
            &[(0, false), (2, false), (0, false), (4, false), (0, false)],
        );
        assert_eq!(misses, 3);
    }

    #[test]
    fn sequential_thrash_misses_everything() {
        // 3 distinct lines round-robin through a 2-way set always miss
        // under LRU (the classic thrash pattern).
        let geom = tiny_geom();
        let stream: Vec<(u64, bool)> = (0..30).map(|i| ((i % 3) * 2, false)).collect();
        let misses = demand_misses(geom, Box::new(LruPolicy::new(geom)), &stream);
        assert_eq!(misses, 30);
    }

    #[test]
    fn demote_makes_line_next_victim() {
        let geom = tiny_geom();
        let mut p = LruPolicy::new(geom);
        let info0 = AccessInfo {
            line: LineId::new(0),
            set: 0,
            pc: ripple_program::Addr::new(0),
            is_prefetch: false,
            seq: 0,
        };
        p.on_fill(&info0, 0);
        p.on_fill(
            &AccessInfo {
                line: LineId::new(2),
                ..info0
            },
            1,
        );
        p.on_demote(0, 1);
        let ways = [
            WayView {
                line: LineId::new(0),
                prefetched: false,
            },
            WayView {
                line: LineId::new(2),
                prefetched: false,
            },
        ];
        assert_eq!(p.victim(&info0, &ways), 1);
    }
}
