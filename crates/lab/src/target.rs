//! Named target profiles: the cache hierarchy an experiment runs on.
//!
//! A [`TargetProfile`] bundles the geometry and latency knobs of one
//! modelled machine under a stable name, so experiment declarations say
//! `"profiles": ["paper", "zen2"]` instead of repeating raw cache
//! parameters. The built-in table ships the paper's Table II machine plus
//! two contemporary x86 shapes (Zen 2- and Tremont-like hierarchies), the
//! same per-uarch-profile idea as `perfect-zen2`/`perfect-tremont` in the
//! `eigenform/perfect` harness this crate is modeled on.

use ripple_sim::{CacheGeometry, SimConfig};

/// One named machine model: cache geometries plus hit/miss latencies.
///
/// All geometries in the built-in table are valid by construction
/// (`size` a multiple of `assoc * 64`); a unit test pins that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetProfile {
    /// Stable name used in experiment declarations and reports.
    pub name: &'static str,
    /// One-line description for `ripple-cli lab describe`.
    pub description: &'static str,
    /// L1 instruction cache (size in bytes, associativity).
    pub l1i: (u64, u16),
    /// Unified L2.
    pub l2: (u64, u16),
    /// Shared L3.
    pub l3: (u64, u16),
    /// Hit latencies in cycles: (L1I, L2, L3, memory).
    pub latencies: (u32, u32, u32, u32),
}

/// The built-in profile table, in declaration-resolution order.
pub const TARGET_PROFILES: [TargetProfile; 3] = [
    TargetProfile {
        name: "paper",
        description: "the paper's Table II machine (32K/8 L1I, 1M/16 L2, 10M/20 L3)",
        l1i: (32 * 1024, 8),
        l2: (1024 * 1024, 16),
        l3: (10 * 1024 * 1024, 20),
        latencies: (3, 12, 36, 260),
    },
    TargetProfile {
        name: "zen2",
        description: "Zen 2-like hierarchy (32K/8 L1I, 512K/8 private L2, 16M/16 CCX L3)",
        l1i: (32 * 1024, 8),
        l2: (512 * 1024, 8),
        l3: (16 * 1024 * 1024, 16),
        latencies: (4, 12, 39, 240),
    },
    TargetProfile {
        name: "tremont",
        description: "Tremont-like hierarchy (32K/8 L1I, 1.5M/12 module L2, 4M/16 L3)",
        l1i: (32 * 1024, 8),
        l2: (1536 * 1024, 12),
        l3: (4 * 1024 * 1024, 16),
        latencies: (3, 17, 40, 230),
    },
];

impl TargetProfile {
    /// Looks up a built-in profile by name.
    pub fn find(name: &str) -> Option<&'static TargetProfile> {
        TARGET_PROFILES.iter().find(|p| p.name == name)
    }

    /// A [`SimConfig`] for this machine, otherwise at Table II defaults
    /// (warmup fraction, FTQ depth, base CPI are workload knobs, not
    /// machine knobs, and stay shared across profiles).
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.l1i = CacheGeometry {
            size_bytes: self.l1i.0,
            assoc: self.l1i.1,
        };
        cfg.l2 = CacheGeometry {
            size_bytes: self.l2.0,
            assoc: self.l2.1,
        };
        cfg.l3 = CacheGeometry {
            size_bytes: self.l3.0,
            assoc: self.l3.1,
        };
        let (l1i, l2, l3, mem) = self.latencies;
        cfg.l1i_latency = l1i;
        cfg.l2_latency = l2;
        cfg.l3_latency = l3;
        cfg.mem_latency = mem;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_geometries_are_valid_and_named_uniquely() {
        for p in &TARGET_PROFILES {
            for (level, (size, assoc)) in [("l1i", p.l1i), ("l2", p.l2), ("l3", p.l3)] {
                CacheGeometry::checked(size, assoc)
                    .unwrap_or_else(|e| panic!("{}.{level}: {e}", p.name));
            }
            assert!(TargetProfile::find(p.name).is_some());
        }
        let mut names: Vec<&str> = TARGET_PROFILES.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), TARGET_PROFILES.len());
    }

    #[test]
    fn profiles_build_distinct_sim_configs() {
        // Choosing a profile must change the modelled machine; otherwise
        // a profile axis would measure the same point twice.
        for (i, a) in TARGET_PROFILES.iter().enumerate() {
            for b in &TARGET_PROFILES[i + 1..] {
                assert_ne!(a.sim_config(), b.sim_config(), "{} vs {}", a.name, b.name);
            }
        }
        assert!(TargetProfile::find("no-such-machine").is_none());
    }

    #[test]
    fn paper_profile_matches_table_ii_defaults() {
        let paper = TargetProfile::find("paper").unwrap();
        assert_eq!(paper.sim_config(), SimConfig::default());
    }
}
