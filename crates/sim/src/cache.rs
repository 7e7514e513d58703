//! Generic set-associative cache with pluggable replacement policy.

use ripple_program::Addr;

use crate::config::CacheGeometry;
use crate::intern::LineId;
use crate::policy::{AccessInfo, ReplacementPolicy, WayView};

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; `evicted` names the valid
    /// line displaced by the fill, if any.
    Miss {
        /// Line evicted to make room, if the chosen way held one.
        evicted: Option<LineId>,
    },
}

impl AccessOutcome {
    /// Whether this outcome is a hit.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Raw-tag sentinel for an empty way: [`LineId::INVALID`]'s repr, kept as
/// a bare `u32` so the hot scans compare machine words directly.
const EMPTY_TAG: u32 = u32::MAX;

/// A set-associative cache of 64-byte lines, parameterized by a
/// [`ReplacementPolicy`].
///
/// The cache owns placement (invalid ways are filled before the policy is
/// asked for a victim) and exposes the `invalidate` / `demote` operations
/// Ripple's injected instruction needs.
///
/// Lines are named by dense [`LineId`]s. Set mapping stays faithful to the
/// underlying addresses: the cache carries the interner's `line_base` so
/// `set_of(id)` equals `CacheGeometry::set_of` of the original
/// [`LineAddr`](ripple_program::LineAddr).
///
/// Tag state is stored structure-of-arrays: `tags` is a dense `u32` array
/// (sets × assoc, row-major, `EMPTY_TAG` = empty way) so the per-access
/// tag match is a contiguous word scan the compiler can vectorize, and the
/// rarely-read prefetch bits live in a separate parallel array instead of
/// padding every tag to eight bytes.
#[derive(Debug)]
pub struct Cache<P: ?Sized + ReplacementPolicy> {
    geom: CacheGeometry,
    /// `geom.num_sets()`, cached to keep the two divisions out of the
    /// per-access path.
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two, else 0: lets
    /// `set_of` use a mask instead of a 64-bit division on every access.
    /// (0 is unambiguous: a one-set cache maps everything to set 0 under
    /// either formula.)
    set_mask: u64,
    /// Raw line index of `LineId(0)` in the interner that produced the ids
    /// this cache is accessed with (0 for identity interning).
    line_base: u64,
    /// Raw tags, sets × assoc row-major; [`EMPTY_TAG`] marks an empty way.
    tags: Vec<u32>,
    /// Whether each way's last fill was a prefetch (parallel to `tags`).
    prefetched: Vec<bool>,
    policy: Box<P>,
    /// Scratch buffer for victim calls, reused across misses.
    views: Vec<WayView>,
}

impl<P: ?Sized + ReplacementPolicy> Cache<P> {
    /// Creates an empty cache whose ids are raw line indexes (identity
    /// interning, `line_base == 0`).
    pub fn new(geom: CacheGeometry, policy: Box<P>) -> Self {
        Cache::with_line_base(geom, policy, 0)
    }

    /// Creates an empty cache accessed with ids from an interner whose
    /// [`line_base`](crate::LineTable::line_base) is `line_base`.
    pub fn with_line_base(geom: CacheGeometry, policy: Box<P>, line_base: u64) -> Self {
        let num_sets = geom.num_sets();
        let total = (num_sets * u64::from(geom.assoc)) as usize;
        let set_mask = if num_sets.is_power_of_two() {
            num_sets - 1
        } else {
            0
        };
        Cache {
            geom,
            num_sets,
            set_mask,
            line_base,
            tags: vec![EMPTY_TAG; total],
            prefetched: vec![false; total],
            policy,
            views: Vec::with_capacity(usize::from(geom.assoc)),
        }
    }

    /// The cache geometry.
    #[inline]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// The replacement policy.
    #[inline]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the replacement policy.
    #[inline]
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The set `line` maps to; identical to mapping the underlying address.
    #[inline]
    fn set_of(&self, line: LineId) -> u32 {
        let raw = self.line_base + u64::from(line.get());
        if self.set_mask != 0 {
            (raw & self.set_mask) as u32
        } else {
            (raw % self.num_sets) as u32
        }
    }

    #[inline]
    fn set_range(&self, set: u32) -> std::ops::Range<usize> {
        let a = usize::from(self.geom.assoc);
        let start = set as usize * a;
        start..start + a
    }

    /// Whether `line` is currently cached.
    pub fn contains(&self, line: LineId) -> bool {
        let set = self.set_of(line);
        let tag = line.get();
        self.tags[self.set_range(set)].contains(&tag)
    }

    /// Number of valid lines currently cached.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY_TAG).count()
    }

    /// Oracle-visible tag state: every valid way as
    /// `(set, way, line, prefetched)` in set-major way order.
    ///
    /// This is the hook differential checkers (`ripple-check`) compare
    /// against brute-force cache models after every operation. It exposes
    /// placement only — policy metadata stays private, so a model must
    /// reproduce decisions, not peek at them.
    pub fn resident_lines(&self) -> Vec<(u32, usize, LineId, bool)> {
        let assoc = usize::from(self.geom.assoc);
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != EMPTY_TAG)
            .map(|(i, &t)| {
                (
                    (i / assoc) as u32,
                    i % assoc,
                    LineId::new(t),
                    self.prefetched[i],
                )
            })
            .collect()
    }

    /// Accesses `line`; on a miss the line is filled, evicting a victim
    /// chosen by the policy when the set is full.
    ///
    /// `pc` is the fetch address responsible for the access (used by
    /// signature/PC-indexed policies); `seq` is the global position of
    /// this access in the request stream (used by offline-ideal policies).
    pub fn access(&mut self, line: LineId, pc: Addr, is_prefetch: bool, seq: u64) -> AccessOutcome {
        debug_assert!(line != LineId::INVALID);
        let set = self.set_of(line);
        let info = AccessInfo {
            line,
            set,
            pc,
            is_prefetch,
            seq,
        };
        let range = self.set_range(set);
        let tag = line.get();

        // Hit? A contiguous word scan over the set's tags.
        if let Some(off) = self.tags[range.clone()].iter().position(|&t| t == tag) {
            if !is_prefetch {
                self.prefetched[range.start + off] = false;
            }
            self.policy.on_hit(&info, off);
            return AccessOutcome::Hit;
        }

        // Fill an invalid way if one exists.
        if let Some(off) = self.tags[range.clone()]
            .iter()
            .position(|&t| t == EMPTY_TAG)
        {
            self.tags[range.start + off] = tag;
            self.prefetched[range.start + off] = is_prefetch;
            self.policy.on_fill(&info, off);
            return AccessOutcome::Miss { evicted: None };
        }

        // Ask the policy for a victim.
        self.views.clear();
        self.views.extend(
            self.tags[range.clone()]
                .iter()
                .zip(&self.prefetched[range.clone()])
                .map(|(&t, &p)| WayView {
                    line: LineId::new(t),
                    prefetched: p,
                }),
        );
        let off = self.policy.victim(&info, &self.views);
        assert!(
            off < self.views.len(),
            "policy {} returned way {off} of {}",
            self.policy.name(),
            self.views.len()
        );
        let evicted = LineId::new(self.tags[range.start + off]);
        debug_assert!(evicted != LineId::INVALID, "set was full");
        self.policy.on_evict(set, off, evicted);
        self.tags[range.start + off] = tag;
        self.prefetched[range.start + off] = is_prefetch;
        self.policy.on_fill(&info, off);
        AccessOutcome::Miss {
            evicted: Some(evicted),
        }
    }

    /// Invalidates `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: LineId) -> bool {
        let set = self.set_of(line);
        let range = self.set_range(set);
        let tag = line.get();
        if let Some(off) = self.tags[range.clone()].iter().position(|&t| t == tag) {
            self.tags[range.start + off] = EMPTY_TAG;
            self.prefetched[range.start + off] = false;
            self.policy.on_invalidate(set, off);
            true
        } else {
            false
        }
    }

    /// Demotes `line` to the bottom of the replacement order if present;
    /// returns whether it was present.
    pub fn demote(&mut self, line: LineId) -> bool {
        let set = self.set_of(line);
        let range = self.set_range(set);
        let tag = line.get();
        if let Some(off) = self.tags[range].iter().position(|&t| t == tag) {
            self.policy.on_demote(set, off);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LruPolicy;

    fn small_cache() -> Cache<LruPolicy> {
        // 2 sets × 2 ways.
        let geom = CacheGeometry::new(4 * 64, 2);
        Cache::new(geom, Box::new(LruPolicy::new(geom)))
    }

    fn l(i: u32) -> LineId {
        LineId::new(i)
    }

    #[test]
    fn fills_then_hits() {
        let mut c = small_cache();
        assert!(!c.access(l(0), Addr::new(0), false, 0).is_hit());
        assert!(c.access(l(0), Addr::new(0), false, 1).is_hit());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache();
        // Lines 0, 2, 4 map to set 0 (2 sets).
        c.access(l(0), Addr::new(0), false, 0);
        c.access(l(2), Addr::new(0), false, 1);
        c.access(l(0), Addr::new(0), false, 2); // 0 is now MRU
        let out = c.access(l(4), Addr::new(0), false, 3);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted: Some(l(2))
            }
        );
        assert!(c.contains(l(0)));
        assert!(!c.contains(l(2)));
    }

    #[test]
    fn invalidate_frees_way() {
        let mut c = small_cache();
        c.access(l(0), Addr::new(0), false, 0);
        c.access(l(2), Addr::new(0), false, 1);
        assert!(c.invalidate(l(0)));
        assert!(!c.contains(l(0)));
        // The next fill in set 0 must not evict line 2.
        let out = c.access(l(4), Addr::new(0), false, 2);
        assert_eq!(out, AccessOutcome::Miss { evicted: None });
        assert!(c.contains(l(2)));
    }

    #[test]
    fn invalidate_absent_line_is_noop() {
        let mut c = small_cache();
        assert!(!c.invalidate(l(9)));
    }

    #[test]
    fn demote_changes_victim_order() {
        let mut c = small_cache();
        c.access(l(0), Addr::new(0), false, 0);
        c.access(l(2), Addr::new(0), false, 1);
        // MRU is 2; demote it so it becomes the next victim.
        assert!(c.demote(l(2)));
        let out = c.access(l(4), Addr::new(0), false, 2);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted: Some(l(2))
            }
        );
    }

    #[test]
    fn prefetch_bit_tracks_last_filler() {
        let mut c = small_cache();
        c.access(l(0), Addr::new(0), true, 0);
        // A demand hit clears the prefetched bit (observable via policy
        // views on the next victim call; here just exercise the path).
        assert!(c.access(l(0), Addr::new(0), false, 1).is_hit());
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small_cache();
        c.access(l(0), Addr::new(0), false, 0); // set 0
        c.access(l(1), Addr::new(0), false, 1); // set 1
        c.access(l(2), Addr::new(0), false, 2); // set 0
        c.access(l(3), Addr::new(0), false, 3); // set 1
        assert_eq!(c.occupancy(), 4);
        // Filling set 0 again cannot evict set-1 lines.
        c.access(l(4), Addr::new(0), false, 4);
        assert!(c.contains(l(1)));
        assert!(c.contains(l(3)));
    }

    #[test]
    fn resident_lines_reports_placement() {
        let mut c = small_cache();
        c.access(l(0), Addr::new(0), false, 0); // set 0, way 0
        c.access(l(3), Addr::new(0), true, 1); // set 1, way 0, prefetched
        let mut resident = c.resident_lines();
        resident.sort_unstable();
        assert_eq!(resident, vec![(0, 0, l(0), false), (1, 0, l(3), true)]);
        c.invalidate(l(0));
        assert_eq!(c.resident_lines(), vec![(1, 0, l(3), true)]);
    }

    #[test]
    fn line_base_preserves_set_mapping() {
        // A cache with line_base B accessed with id X behaves like a
        // base-0 cache accessed with raw index B + X.
        let geom = CacheGeometry::new(4 * 64, 2);
        let mut shifted: Cache<LruPolicy> =
            Cache::with_line_base(geom, Box::new(LruPolicy::new(geom)), 101);
        // id 0 → raw line 101 → set 1; id 1 → set 0.
        shifted.access(l(0), Addr::new(0), false, 0);
        shifted.access(l(1), Addr::new(0), false, 1);
        shifted.access(l(2), Addr::new(0), false, 2); // raw 103 → set 1
        shifted.access(l(3), Addr::new(0), false, 3); // raw 104 → set 0
        assert_eq!(shifted.occupancy(), 4);
        // Set 1 holds ids {0, 2}; a third set-1 line evicts the LRU (id 0).
        let out = shifted.access(l(4), Addr::new(0), false, 4);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted: Some(l(0))
            }
        );
        assert!(shifted.contains(l(2)));
    }
}
