//! Re-reference interval prediction policies: SRRIP and DRRIP
//! (Jaleel et al., ISCA 2010), plus the shared RRIP machinery
//! ([`rrip_victim`], [`SetDuel`]) reused by TRRIP.

use crate::config::CacheGeometry;
use crate::policy::{AccessInfo, ReplacementPolicy, WayView};

pub(crate) const RRPV_BITS: u8 = 2;
pub(crate) const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1; // 3 = distant future
pub(crate) const RRPV_LONG: u8 = RRPV_MAX - 1; // 2 = long re-reference interval

const PSEL_MAX: i16 = 511;
const PSEL_MIN: i16 = -512;

/// Static RRIP: every fill is presumed cache-averse (a scan) until a
/// second access promotes it.
///
/// SRRIP targets scanning access patterns that are rare in instruction
/// streams, which is exactly why the paper finds it cannot beat LRU on the
/// I-cache (§II-D).
#[derive(Debug)]
pub struct SrripPolicy {
    assoc: usize,
    rrpv: Vec<u8>,
}

impl SrripPolicy {
    /// Creates an SRRIP policy for `geom`.
    pub fn new(geom: CacheGeometry) -> Self {
        SrripPolicy {
            assoc: usize::from(geom.assoc),
            rrpv: vec![RRPV_MAX; geom.num_lines() as usize],
        }
    }

    #[inline]
    fn idx(&self, set: u32, way: usize) -> usize {
        set as usize * self.assoc + way
    }
}

/// Shared SRRIP victim scan: find an `RRPV_MAX` way, aging the set until
/// one exists.
pub(crate) fn rrip_victim(rrpv: &mut [u8], set: u32, assoc: usize, ways: usize) -> usize {
    let base = set as usize * assoc;
    loop {
        for w in 0..ways {
            if rrpv[base + w] >= RRPV_MAX {
                return w;
            }
        }
        for w in 0..ways {
            rrpv[base + w] += 1;
        }
    }
}

/// Role of one set in a set-dueling scheme: the baseline leader always
/// runs the incumbent insertion policy, the challenger leader always runs
/// the contender, and followers obey the PSEL counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DuelRole {
    /// Dedicated to the incumbent policy (SRRIP insertion).
    BaselineLeader,
    /// Dedicated to the challenger (BRRIP for DRRIP, temperature hints
    /// for TRRIP).
    ChallengerLeader,
    /// Follows the PSEL counter's current winner.
    Follower,
}

/// Set-dueling machinery shared by DRRIP and TRRIP: leader-set selection
/// plus the saturating PSEL counter trained on leader-set misses.
#[derive(Debug)]
pub(crate) struct SetDuel {
    num_sets: u32,
    /// 10-bit policy selector: high means the challenger is winning.
    psel: i16,
}

impl SetDuel {
    pub(crate) fn new(num_sets: u32) -> Self {
        SetDuel { num_sets, psel: 0 }
    }

    /// Leader-set classification via the standard complement-select
    /// scheme: low bits pattern picks baseline leaders, its complement
    /// picks challenger leaders, the rest follow PSEL.
    ///
    /// Geometries of 32 sets or fewer cannot host the complement-select
    /// pattern (it would dedicate leaders to one side only, training PSEL
    /// one-sided), so dueling degrades symmetrically: one leader per
    /// policy at the two ends of the set index space, and below two sets
    /// dueling is disabled entirely (every set follows a neutral PSEL,
    /// i.e. pure baseline).
    pub(crate) fn role(&self, set: u32) -> DuelRole {
        if self.num_sets <= 32 {
            if self.num_sets < 2 {
                return DuelRole::Follower;
            }
            return if set == 0 {
                DuelRole::BaselineLeader
            } else if set == self.num_sets - 1 {
                DuelRole::ChallengerLeader
            } else {
                DuelRole::Follower
            };
        }
        let sel = set & 0x1f;
        let region = (set >> 5) & 0x1f;
        if sel == region {
            DuelRole::BaselineLeader
        } else if sel == (!region & 0x1f) {
            DuelRole::ChallengerLeader
        } else {
            DuelRole::Follower
        }
    }

    /// Called on a fill: trains PSEL if `set` is a leader, and returns
    /// whether this fill should use the challenger insertion policy.
    pub(crate) fn train_and_select(&mut self, set: u32) -> bool {
        match self.role(set) {
            DuelRole::BaselineLeader => {
                self.psel = (self.psel + 1).min(PSEL_MAX);
                false
            }
            DuelRole::ChallengerLeader => {
                self.psel = (self.psel - 1).max(PSEL_MIN);
                true
            }
            DuelRole::Follower => self.psel > 0,
        }
    }

    /// Whether `set` currently runs the challenger policy (no training).
    pub(crate) fn prefers_challenger(&self, set: u32) -> bool {
        match self.role(set) {
            DuelRole::BaselineLeader => false,
            DuelRole::ChallengerLeader => true,
            DuelRole::Follower => self.psel > 0,
        }
    }
}

impl ReplacementPolicy for SrripPolicy {
    fn name(&self) -> &'static str {
        "srrip"
    }

    fn metadata_bytes(&self, geom: &CacheGeometry) -> u64 {
        // 2 bits per line (Table I: 128 B for 32 KB / 8-way).
        geom.num_lines() * u64::from(RRPV_BITS) / 8
    }

    fn on_fill(&mut self, info: &AccessInfo, way: usize) {
        let i = self.idx(info.set, way);
        self.rrpv[i] = RRPV_LONG;
    }

    fn on_hit(&mut self, info: &AccessInfo, way: usize) {
        let i = self.idx(info.set, way);
        self.rrpv[i] = 0;
    }

    fn victim(&mut self, info: &AccessInfo, ways: &[WayView]) -> usize {
        rrip_victim(&mut self.rrpv, info.set, self.assoc, ways.len())
    }

    fn on_invalidate(&mut self, set: u32, way: usize) {
        let i = self.idx(set, way);
        self.rrpv[i] = RRPV_MAX;
    }

    fn on_demote(&mut self, set: u32, way: usize) {
        let i = self.idx(set, way);
        self.rrpv[i] = RRPV_MAX;
    }
}

/// Dynamic RRIP: set-dueling between SRRIP and bimodal insertion (BRRIP)
/// to also handle thrashing patterns.
#[derive(Debug)]
pub struct DrripPolicy {
    assoc: usize,
    rrpv: Vec<u8>,
    duel: SetDuel,
    brrip_ctr: u32,
}

impl DrripPolicy {
    /// Creates a DRRIP policy for `geom`.
    pub fn new(geom: CacheGeometry) -> Self {
        DrripPolicy {
            assoc: usize::from(geom.assoc),
            rrpv: vec![RRPV_MAX; geom.num_lines() as usize],
            duel: SetDuel::new(geom.num_sets() as u32),
            brrip_ctr: 0,
        }
    }

    #[inline]
    fn idx(&self, set: u32, way: usize) -> usize {
        set as usize * self.assoc + way
    }
}

impl ReplacementPolicy for DrripPolicy {
    fn name(&self) -> &'static str {
        "drrip"
    }

    fn metadata_bytes(&self, geom: &CacheGeometry) -> u64 {
        // 2 bits per line + PSEL (Table I reports 128 B; PSEL rounds away).
        geom.num_lines() * u64::from(RRPV_BITS) / 8
    }

    fn on_fill(&mut self, info: &AccessInfo, way: usize) {
        // A miss in a leader set trains PSEL toward the other policy.
        let brrip = self.duel.train_and_select(info.set);
        let i = self.idx(info.set, way);
        self.rrpv[i] = if brrip {
            // Bimodal: distant except 1/32 of fills.
            self.brrip_ctr = self.brrip_ctr.wrapping_add(1);
            if self.brrip_ctr.is_multiple_of(32) {
                RRPV_LONG
            } else {
                RRPV_MAX
            }
        } else {
            RRPV_LONG
        };
    }

    fn on_hit(&mut self, info: &AccessInfo, way: usize) {
        let i = self.idx(info.set, way);
        self.rrpv[i] = 0;
    }

    fn victim(&mut self, info: &AccessInfo, ways: &[WayView]) -> usize {
        rrip_victim(&mut self.rrpv, info.set, self.assoc, ways.len())
    }

    fn on_invalidate(&mut self, set: u32, way: usize) {
        let i = self.idx(set, way);
        self.rrpv[i] = RRPV_MAX;
    }

    fn on_demote(&mut self, set: u32, way: usize) {
        let i = self.idx(set, way);
        self.rrpv[i] = RRPV_MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{demand_misses, tiny_geom};

    #[test]
    fn metadata_matches_table_i() {
        let geom = CacheGeometry::new(32 * 1024, 8);
        assert_eq!(SrripPolicy::new(geom).metadata_bytes(&geom), 128);
        assert_eq!(DrripPolicy::new(geom).metadata_bytes(&geom), 128);
    }

    #[test]
    fn srrip_protects_reused_line_from_scan() {
        // Set 0 of a 2-way cache. A is hot; X, Y, Z are a one-shot scan.
        // Stream: A A X A Y A Z A. SRRIP keeps A resident throughout
        // (scan lines insert at long/distant and never promote).
        let geom = tiny_geom();
        let a = 0u64;
        let stream = [
            (a, false),
            (a, false),
            (2, false),
            (a, false),
            (4, false),
            (a, false),
            (6, false),
            (a, false),
        ];
        let misses = demand_misses(geom, Box::new(SrripPolicy::new(geom)), &stream);
        // Misses: A, X, Y, Z = 4; every later A access hits.
        assert_eq!(misses, 4);
    }

    #[test]
    fn lru_loses_to_srrip_on_scans() {
        let geom = tiny_geom();
        let a = 0u64;
        let stream = [
            (a, false),
            (a, false),
            (2, false),
            (4, false),
            (a, false),
            (6, false),
            (8, false),
            (a, false),
        ];
        let srrip = demand_misses(geom, Box::new(SrripPolicy::new(geom)), &stream);
        let lru = demand_misses(geom, Box::new(crate::policy::LruPolicy::new(geom)), &stream);
        assert!(srrip < lru, "srrip {srrip} !< lru {lru}");
    }

    #[test]
    fn rrip_victim_ages_until_found() {
        let mut rrpv = vec![0u8, 1];
        let v = rrip_victim(&mut rrpv, 0, 2, 2);
        assert_eq!(v, 1); // way 1 reaches 3 first (2 increments)
        assert_eq!(rrpv, vec![2, 3]);
    }

    #[test]
    fn duel_leader_sets_exist_and_differ() {
        let geom = CacheGeometry::new(32 * 1024, 8);
        let duel = SetDuel::new(geom.num_sets() as u32);
        let mut baseline_leaders = 0;
        let mut challenger_leaders = 0;
        for set in 0..geom.num_sets() as u32 {
            match duel.role(set) {
                DuelRole::BaselineLeader => baseline_leaders += 1,
                DuelRole::ChallengerLeader => challenger_leaders += 1,
                DuelRole::Follower => {}
            }
        }
        assert!(baseline_leaders > 0);
        assert!(challenger_leaders > 0);
        assert!(baseline_leaders + challenger_leaders < geom.num_sets() as u32);
    }

    #[test]
    fn duel_small_geometries_are_symmetric() {
        // Every geometry with at least 2 sets must dedicate the same
        // number of leader sets to each policy; a 1-set cache disables
        // dueling (all followers, neutral PSEL → baseline).
        for (size, assoc) in [
            (128u64, 2u16), // 1 set
            (256, 2),       // 2 sets
            (512, 2),       // 4 sets
            (1024, 2),      // 8 sets
            (2048, 2),      // 16 sets
            (4096, 2),      // 32 sets
            (8192, 2),      // 64 sets (complement-select path)
            (32 * 1024, 8), // default geometry
        ] {
            let geom = CacheGeometry::new(size, assoc);
            let duel = SetDuel::new(geom.num_sets() as u32);
            let mut baseline_leaders = 0u32;
            let mut challenger_leaders = 0u32;
            for set in 0..geom.num_sets() as u32 {
                match duel.role(set) {
                    DuelRole::BaselineLeader => baseline_leaders += 1,
                    DuelRole::ChallengerLeader => challenger_leaders += 1,
                    DuelRole::Follower => {}
                }
            }
            assert_eq!(
                baseline_leaders,
                challenger_leaders,
                "asymmetric dueling at {} sets",
                geom.num_sets()
            );
            if geom.num_sets() >= 2 {
                assert!(
                    baseline_leaders > 0,
                    "no leaders at {} sets",
                    geom.num_sets()
                );
            } else {
                assert_eq!(baseline_leaders, 0);
            }
        }
    }

    #[test]
    fn duel_psel_saturates_and_selects() {
        // A miss in a leader set is a vote *against* that leader's policy:
        // baseline-leader misses push PSEL up (toward the challenger),
        // challenger-leader misses push it back down. Followers obey the
        // sign. Training runs far past the 10-bit range to check
        // saturation.
        let mut duel = SetDuel::new(64);
        let follower = (0..64u32)
            .find(|&s| duel.role(s) == DuelRole::Follower)
            .unwrap();
        let baseline = (0..64u32)
            .find(|&s| duel.role(s) == DuelRole::BaselineLeader)
            .unwrap();
        let challenger = (0..64u32)
            .find(|&s| duel.role(s) == DuelRole::ChallengerLeader)
            .unwrap();
        assert!(!duel.prefers_challenger(follower)); // psel = 0 → baseline
        for _ in 0..2000 {
            // Leader sets always run their own policy regardless of PSEL.
            assert!(!duel.train_and_select(baseline));
        }
        assert!(duel.prefers_challenger(follower));
        for _ in 0..4000 {
            assert!(duel.train_and_select(challenger));
        }
        assert!(!duel.prefers_challenger(follower));
    }

    #[test]
    fn drrip_runs_thrash_pattern() {
        // 3 lines round-robin in every set; DRRIP must stay functional and
        // deterministic (exact miss count depends on dueling state).
        let geom = tiny_geom();
        let stream: Vec<(u64, bool)> = (0..600).map(|i| ((i % 3) * 2, false)).collect();
        let a = demand_misses(geom, Box::new(DrripPolicy::new(geom)), &stream);
        let b = demand_misses(geom, Box::new(DrripPolicy::new(geom)), &stream);
        assert_eq!(a, b);
        assert!(a <= 600);
    }
}
