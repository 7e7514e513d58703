//! Hawkeye (Jain & Lin, ISCA 2016) and its prefetch-aware Harmony variant
//! (Jain & Lin, ISCA 2018), applied to the instruction cache.

use crate::config::CacheGeometry;
use crate::intern::LineId;
use crate::policy::{AccessInfo, ReplacementPolicy, WayView};

/// Sample one in this many sets for OPTgen training.
const SAMPLE_STRIDE: u32 = 8;
/// OPTgen history window, in multiples of the associativity.
const WINDOW_FACTOR: usize = 8;
/// PC predictor: 3-bit saturating counters, friendly when >= 4.
const PRED_ENTRIES: usize = 2048;
const PRED_MAX: u8 = 7;
const PRED_FRIENDLY: u8 = 4;
/// Per-line RRPV: 3 bits; 7 marks cache-averse lines.
const RRPV_MAX: u8 = 7;

#[derive(Debug, Clone, Copy)]
struct SampleEntry {
    line: LineId,
    pc_hash: u16,
    /// Position of the access in the sampled set's local time.
    time: u64,
}

/// OPTgen sampler state for one sampled set.
#[derive(Debug, Default)]
struct Sampler {
    history: Vec<SampleEntry>,
    /// Occupancy of the ideal cache per local time slot (ring over the
    /// window).
    occupancy: Vec<u8>,
    clock: u64,
}

/// Hawkeye classifies the PCs (here: fetch addresses) whose accesses an
/// ideal cache would hit as *cache-friendly* and the rest as
/// *cache-averse*, inserting averse lines at eviction priority.
///
/// With `prefetch_aware` (Harmony), OPTgen is replaced by Demand-MIN-gen:
/// reuse intervals that end in a prefetch train the opening PC as averse
/// (the prefetch will re-fetch the line anyway), and intervals opened by
/// prefetches are only credited if they fit like demand intervals.
///
/// On the I-cache the predictor degenerates: each fetch PC touches exactly
/// one line, so per-PC state cannot separate the friendly accesses of a
/// line from its averse ones — the pathology §II-D describes. The
/// [`friendly_fraction`](HawkeyePolicy::friendly_fraction) accessor
/// exposes the resulting ">99 % predicted friendly" statistic.
#[derive(Debug)]
pub struct HawkeyePolicy {
    assoc: usize,
    prefetch_aware: bool,
    window: usize,
    rrpv: Vec<u8>,
    line_friendly: Vec<bool>,
    line_pc_hash: Vec<u16>,
    predictor: Vec<u8>,
    samplers: std::collections::HashMap<u32, Sampler>,
    friendly_decisions: u64,
    total_decisions: u64,
}

impl HawkeyePolicy {
    /// Creates a Hawkeye (`prefetch_aware = false`) or Harmony
    /// (`prefetch_aware = true`) policy for `geom`.
    pub fn new(geom: CacheGeometry, prefetch_aware: bool) -> Self {
        HawkeyePolicy {
            assoc: usize::from(geom.assoc),
            prefetch_aware,
            window: WINDOW_FACTOR * usize::from(geom.assoc),
            rrpv: vec![RRPV_MAX; geom.num_lines() as usize],
            line_friendly: vec![false; geom.num_lines() as usize],
            line_pc_hash: vec![0; geom.num_lines() as usize],
            predictor: vec![PRED_FRIENDLY; PRED_ENTRIES],
            samplers: std::collections::HashMap::new(),
            friendly_decisions: 0,
            total_decisions: 0,
        }
    }

    /// Fraction of insertion decisions predicted cache-friendly so far.
    pub fn friendly_fraction(&self) -> f64 {
        if self.total_decisions == 0 {
            return 0.0;
        }
        self.friendly_decisions as f64 / self.total_decisions as f64
    }

    #[inline]
    fn idx(&self, set: u32, way: usize) -> usize {
        set as usize * self.assoc + way
    }

    fn pc_hash(info: &AccessInfo) -> u16 {
        let pc = info.pc.get();
        ((pc >> 2) ^ (pc >> 13)) as u16
    }

    fn pred_index(hash: u16) -> usize {
        usize::from(hash) % PRED_ENTRIES
    }

    fn predict_friendly(&mut self, hash: u16) -> bool {
        let friendly = self.predictor[Self::pred_index(hash)] >= PRED_FRIENDLY;
        self.total_decisions += 1;
        if friendly {
            self.friendly_decisions += 1;
        }
        friendly
    }

    fn train(&mut self, hash: u16, friendly: bool) {
        let e = &mut self.predictor[Self::pred_index(hash)];
        *e = if friendly {
            (*e + 1).min(PRED_MAX)
        } else {
            e.saturating_sub(1)
        };
    }

    /// OPTgen / Demand-MIN-gen update for a sampled set. Returns the
    /// training events to apply: (pc_hash, friendly).
    fn sample(&mut self, info: &AccessInfo) -> Vec<(u16, bool)> {
        let assoc = self.assoc;
        let window = self.window;
        let prefetch_aware = self.prefetch_aware;
        let sampler = self.samplers.entry(info.set).or_default();
        if sampler.occupancy.is_empty() {
            sampler.occupancy = vec![0; window];
        }
        let now = sampler.clock;
        sampler.clock += 1;

        let mut trainings = Vec::new();
        // Find the previous access to this line within the window.
        let prev = sampler
            .history
            .iter()
            .rev()
            .find(|e| e.line == info.line && now - e.time < window as u64)
            .copied();
        if let Some(prev) = prev {
            let interval_end_is_prefetch = info.is_prefetch;
            if prefetch_aware && interval_end_is_prefetch {
                // Demand-MIN: an interval ending in a prefetch need not be
                // cached — train the opener averse, charge no occupancy.
                trainings.push((prev.pc_hash, false));
            } else {
                // Would OPT have hit? Check occupancy over [prev, now).
                let fits = (prev.time..now)
                    .all(|t| sampler.occupancy[(t % window as u64) as usize] < assoc as u8);
                trainings.push((prev.pc_hash, fits));
                if fits {
                    for t in prev.time..now {
                        sampler.occupancy[(t % window as u64) as usize] += 1;
                    }
                }
            }
        }
        // Record this access; clear the occupancy slot we are reusing.
        sampler.occupancy[(now % window as u64) as usize] = 0;
        sampler.history.push(SampleEntry {
            line: info.line,
            pc_hash: Self::pc_hash(info),
            time: now,
        });
        let horizon = window as u64;
        sampler.history.retain(|e| now - e.time < horizon);
        trainings
    }

    fn observe(&mut self, info: &AccessInfo) {
        if info.set.is_multiple_of(SAMPLE_STRIDE) {
            for (hash, friendly) in self.sample(info) {
                self.train(hash, friendly);
            }
        }
    }

    fn insert(&mut self, info: &AccessInfo, way: usize) {
        let hash = Self::pc_hash(info);
        let friendly = self.predict_friendly(hash);
        let i = self.idx(info.set, way);
        self.line_friendly[i] = friendly;
        self.line_pc_hash[i] = hash;
        if friendly {
            self.rrpv[i] = 0;
            // Age other friendly lines so older friendlies are preferred
            // victims among friendlies.
            for w in 0..self.assoc {
                if w != way {
                    let j = self.idx(info.set, w);
                    if self.line_friendly[j] && self.rrpv[j] < RRPV_MAX - 1 {
                        self.rrpv[j] += 1;
                    }
                }
            }
        } else {
            self.rrpv[i] = RRPV_MAX;
        }
    }
}

impl ReplacementPolicy for HawkeyePolicy {
    fn name(&self) -> &'static str {
        if self.prefetch_aware {
            "harmony"
        } else {
            "hawkeye"
        }
    }

    fn metadata_bytes(&self, geom: &CacheGeometry) -> u64 {
        // Table I: 1 KB sampler + 1 KB occupancy vectors + 3 KB predictor
        // + 192 B RRIP counters = 5.1875 KB for 32 KB / 8-way.
        let sampler = 1024;
        let occupancy = 1024;
        let predictor = 3 * 1024;
        let rrip = geom.num_lines() * 3 / 8;
        sampler + occupancy + predictor + rrip
    }

    fn on_fill(&mut self, info: &AccessInfo, way: usize) {
        self.observe(info);
        self.insert(info, way);
    }

    fn on_hit(&mut self, info: &AccessInfo, way: usize) {
        self.observe(info);
        let i = self.idx(info.set, way);
        if !info.is_prefetch {
            self.rrpv[i] = 0;
        }
    }

    fn victim(&mut self, info: &AccessInfo, ways: &[WayView]) -> usize {
        let base = self.idx(info.set, 0);
        // Evict the line with the highest RRPV (averse lines carry 7);
        // ties break toward lower way.
        let mut victim = 0;
        let mut best = 0u8;
        for w in 0..ways.len() {
            let r = self.rrpv[base + w];
            if r >= best {
                // `>=` keeps the last max; prefer aversion, then age.
                if r > best {
                    victim = w;
                    best = r;
                }
            }
        }
        if best < RRPV_MAX {
            // No averse line: evicting a friendly line means the predictor
            // was too optimistic — detrain it (Hawkeye's feedback path).
            let hash = self.line_pc_hash[base + victim];
            self.train(hash, false);
        }
        victim
    }

    fn on_invalidate(&mut self, set: u32, way: usize) {
        let i = self.idx(set, way);
        self.rrpv[i] = RRPV_MAX;
        self.line_friendly[i] = false;
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
    use ripple_program::Addr;

    #[test]
    fn metadata_is_about_5k() {
        let geom = CacheGeometry::new(32 * 1024, 8);
        // Table I reports 5.1875 KB = 5312 B for Hawkeye and Harmony alike.
        for harmony in [false, true] {
            let bytes = HawkeyePolicy::new(geom, harmony).metadata_bytes(&geom);
            assert_eq!(bytes, 5312, "harmony: {harmony}");
        }
    }

    #[test]
    fn names_differ() {
        let geom = tiny_geom();
        assert_eq!(HawkeyePolicy::new(geom, false).name(), "hawkeye");
        assert_eq!(HawkeyePolicy::new(geom, true).name(), "harmony");
    }

    #[test]
    fn averse_insertions_get_evicted_first() {
        let geom = tiny_geom();
        let mut p = HawkeyePolicy::new(geom, false);
        // Force predictor entries: pc 0x40 averse, pc 0x80 friendly.
        let averse_info = AccessInfo {
            line: LineId::new(0),
            set: 0,
            pc: Addr::new(0x40),
            is_prefetch: false,
            seq: 0,
        };
        let friendly_info = AccessInfo {
            line: LineId::new(2),
            set: 0,
            pc: Addr::new(0x80),
            is_prefetch: false,
            seq: 1,
        };
        let averse_hash = HawkeyePolicy::pc_hash(&averse_info);
        for _ in 0..8 {
            p.train(averse_hash, false);
        }
        p.on_fill(&averse_info, 0);
        p.on_fill(&friendly_info, 1);
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
        assert_eq!(p.victim(&friendly_info, &ways), 0);
    }

    #[test]
    fn predicts_mostly_friendly_on_reuse_heavy_streams() {
        // The I-cache pathology: heavy reuse trains everything friendly.
        let geom = tiny_geom();
        let mut cache: crate::cache::Cache<dyn ReplacementPolicy> =
            crate::cache::Cache::new(geom, Box::new(HawkeyePolicy::new(geom, false)));
        for seq in 0..4000u64 {
            let line = ripple_program::LineAddr::new(seq % 3); // heavy short-distance reuse
            cache.access(LineId::new((seq % 3) as u32), line.base_addr(), false, seq);
        }
        // Inspect via a downcast-free route: run a second mirrored policy.
        let mut p = HawkeyePolicy::new(geom, false);
        for seq in 0..4000u64 {
            let line = ripple_program::LineAddr::new(seq % 3);
            let info = AccessInfo {
                line: LineId::new((seq % 3) as u32),
                set: geom.set_of(line),
                pc: line.base_addr(),
                is_prefetch: false,
                seq,
            };
            p.observe(&info);
            p.insert(&info, (seq % 2) as usize);
        }
        assert!(p.friendly_fraction() > 0.9, "{}", p.friendly_fraction());
    }

    #[test]
    fn harmony_trains_averse_on_prefetch_terminated_intervals() {
        let geom = tiny_geom();
        let mut p = HawkeyePolicy::new(geom, true);
        let mk = |seq: u64, is_prefetch: bool| AccessInfo {
            line: LineId::new(0),
            set: 0,
            pc: Addr::new(0x40),
            is_prefetch,
            seq,
        };
        let hash = HawkeyePolicy::pc_hash(&mk(0, false));
        let before = p.predictor[HawkeyePolicy::pred_index(hash)];
        // Demand access opens the interval, prefetch closes it => averse.
        p.observe(&mk(0, false));
        p.observe(&mk(1, true));
        let after = p.predictor[HawkeyePolicy::pred_index(hash)];
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn deterministic() {
        let geom = tiny_geom();
        let stream: Vec<(u64, bool)> = (0..500).map(|i| ((i * 3) % 10 * 2, i % 7 == 0)).collect();
        let a = demand_misses(geom, Box::new(HawkeyePolicy::new(geom, true)), &stream);
        let b = demand_misses(geom, Box::new(HawkeyePolicy::new(geom, true)), &stream);
        assert_eq!(a, b);
    }
}
