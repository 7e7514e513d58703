//! Tree pseudo-LRU: the policy real hardware ships when Table I says
//! "LRU, 1 bit per line".
//!
//! True LRU needs `log2(assoc!)` bits per set; hardware approximates it
//! with a binary tree of direction bits (assoc − 1 bits per set ≈ 1 bit
//! per line). Included both for fidelity and as an ablation: Ripple is
//! policy-agnostic, so Ripple-PLRU should behave like Ripple-LRU.

use crate::config::CacheGeometry;
use crate::policy::{AccessInfo, ReplacementPolicy, WayView};

/// Tree-PLRU replacement for power-of-two associativities.
#[derive(Debug)]
pub struct TreePlruPolicy {
    assoc: usize,
    /// Per set: assoc − 1 direction bits, heap-ordered (node 0 is the
    /// root; children of `i` are `2i + 1` and `2i + 2`). A bit of 0 means
    /// "the LRU side is the left subtree".
    bits: Vec<bool>,
}

impl TreePlruPolicy {
    /// Creates a tree-PLRU policy for `geom`.
    ///
    /// # Panics
    ///
    /// Panics if the associativity is not a power of two (the tree needs
    /// a complete binary shape).
    pub fn new(geom: CacheGeometry) -> Self {
        let assoc = usize::from(geom.assoc);
        assert!(assoc.is_power_of_two(), "tree-PLRU needs power-of-two ways");
        TreePlruPolicy {
            assoc,
            bits: vec![false; geom.num_sets() as usize * (assoc - 1)],
        }
    }

    fn levels(&self) -> usize {
        self.assoc.trailing_zeros() as usize
    }

    fn set_bits(&mut self, set: u32) -> &mut [bool] {
        let n = self.assoc - 1;
        let start = set as usize * n;
        &mut self.bits[start..start + n]
    }

    /// Walks from the root to `way`, pointing every node *away* from it
    /// (a touch makes the way most-recently used).
    fn touch(&mut self, set: u32, way: usize) {
        let levels = self.levels();
        let bits = self.set_bits(set);
        let mut node = 0usize;
        for level in 0..levels {
            let went_right = (way >> (levels - 1 - level)) & 1 == 1;
            // Point the LRU hint at the *other* subtree.
            bits[node] = !went_right;
            node = 2 * node + if went_right { 2 } else { 1 };
        }
    }

    /// Walks the LRU hints from the root to the victim way.
    fn find_victim(&mut self, set: u32) -> usize {
        let levels = self.levels();
        let bits = self.set_bits(set);
        let mut node = 0usize;
        let mut way = 0usize;
        for _ in 0..levels {
            // Bit convention: 0 = the left subtree is the LRU side.
            let go_right = bits[node];
            way = (way << 1) | usize::from(go_right);
            node = 2 * node + if go_right { 2 } else { 1 };
        }
        way
    }

    /// Points the tree path *at* `way`, making it the next victim.
    fn demote_way(&mut self, set: u32, way: usize) {
        let levels = self.levels();
        let bits = self.set_bits(set);
        let mut node = 0usize;
        for level in 0..levels {
            let goes_right = (way >> (levels - 1 - level)) & 1 == 1;
            bits[node] = goes_right;
            node = 2 * node + if goes_right { 2 } else { 1 };
        }
    }
}

impl ReplacementPolicy for TreePlruPolicy {
    fn name(&self) -> &'static str {
        "tree-plru"
    }

    fn metadata_bytes(&self, geom: &CacheGeometry) -> u64 {
        // assoc - 1 bits per set ≈ 1 bit per line: Table I's LRU row.
        (geom.num_sets() * (u64::from(geom.assoc) - 1)).div_ceil(8)
    }

    fn on_fill(&mut self, info: &AccessInfo, way: usize) {
        self.touch(info.set, way);
    }

    fn on_hit(&mut self, info: &AccessInfo, way: usize) {
        self.touch(info.set, way);
    }

    fn victim(&mut self, info: &AccessInfo, _ways: &[WayView]) -> usize {
        self.find_victim(info.set)
    }

    fn on_demote(&mut self, set: u32, way: usize) {
        self.demote_way(set, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::LineId;
    use crate::policy::test_util::{demand_misses, tiny_geom};
    use crate::policy::LruPolicy;
    use ripple_program::Addr;

    fn info(set: u32) -> AccessInfo {
        AccessInfo {
            line: LineId::new(0),
            set,
            pc: Addr::new(0),
            is_prefetch: false,
            seq: 0,
        }
    }

    #[test]
    fn metadata_matches_table_i() {
        let geom = CacheGeometry::new(32 * 1024, 8);
        let p = TreePlruPolicy::new(geom);
        // 64 sets × 7 bits = 56 B (Table I rounds to 64 B with valid bits).
        assert_eq!(p.metadata_bytes(&geom), 56);
    }

    #[test]
    fn two_way_plru_is_exact_lru() {
        // With two ways, tree-PLRU degenerates to true LRU: identical
        // misses on any stream.
        let geom = tiny_geom();
        let stream: Vec<(u64, bool)> = (0..400).map(|i| ((i * 7) % 10 * 2, false)).collect();
        let plru = demand_misses(geom, Box::new(TreePlruPolicy::new(geom)), &stream);
        let lru = demand_misses(geom, Box::new(LruPolicy::new(geom)), &stream);
        assert_eq!(plru, lru);
    }

    #[test]
    fn victim_is_never_the_most_recent() {
        let geom = CacheGeometry::new(8 * 64 * 8, 8); // 8 sets x 8 ways
        let mut p = TreePlruPolicy::new(geom);
        for way in 0..8 {
            p.touch(0, way);
            assert_ne!(p.find_victim(0), way, "just-touched way chosen");
        }
    }

    #[test]
    fn touch_all_then_first_touched_is_victimish() {
        let geom = CacheGeometry::new(8 * 64 * 8, 8);
        let mut p = TreePlruPolicy::new(geom);
        // Touch 0..8 in order; the victim must be in the "older" half.
        for way in 0..8 {
            p.touch(0, way);
        }
        let v = p.find_victim(0);
        assert!(
            v < 4,
            "victim {v} should come from the earlier-touched half"
        );
    }

    #[test]
    fn demote_makes_way_the_victim() {
        let geom = CacheGeometry::new(8 * 64 * 8, 8);
        let mut p = TreePlruPolicy::new(geom);
        for way in 0..8 {
            p.touch(0, way);
        }
        p.demote_way(0, 5);
        assert_eq!(p.find_victim(0), 5);
        let _ = info(0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        // 3-way geometry: 192 B per set over 1 set.
        let geom = CacheGeometry::new(3 * 64, 3);
        let _ = TreePlruPolicy::new(geom);
    }
}
