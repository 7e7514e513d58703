//! Simulation configuration (the paper's Table II plus model knobs).

use ripple_program::CACHE_LINE_BYTES;

/// Why a [`SimConfig`] (or one of its [`CacheGeometry`] fields) was
/// rejected by validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimConfigError {
    /// A floating-point knob was NaN or infinite.
    NotFinite {
        /// The offending field.
        field: &'static str,
    },
    /// A knob fell outside its documented range.
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// A cache geometry is degenerate: zero capacity/associativity, or a
    /// capacity that is not an exact multiple of `assoc * 64` bytes.
    BadGeometry {
        /// Which cache level ("l1i", "l2", "l3", or "cache" for a
        /// free-standing geometry).
        cache: &'static str,
        /// The rejected capacity.
        size_bytes: u64,
        /// The rejected associativity.
        assoc: u16,
    },
    /// Scripted invalidations must be sorted by trace position.
    UnsortedInvalidations {
        /// Index of the first out-of-order entry.
        index: usize,
    },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::NotFinite { field } => {
                write!(f, "config field `{field}` must be finite")
            }
            SimConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(f, "config field `{field}` = {value} outside [{min}, {max}]"),
            SimConfigError::BadGeometry {
                cache,
                size_bytes,
                assoc,
            } => write!(
                f,
                "{cache} geometry {size_bytes} B / {assoc}-way is not a \
                 whole number of sets of 64-byte lines"
            ),
            SimConfigError::UnsortedInvalidations { index } => write!(
                f,
                "scripted invalidations must be sorted by position \
                 (entry {index} is out of order)"
            ),
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Geometry of one set-associative cache with 64-byte lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u16,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of
    /// `assoc * CACHE_LINE_BYTES`. Use [`CacheGeometry::checked`] to get a
    /// typed error instead.
    pub fn new(size_bytes: u64, assoc: u16) -> Self {
        match Self::checked(size_bytes, assoc) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a geometry, rejecting degenerate shapes with a typed error
    /// instead of panicking.
    pub fn checked(size_bytes: u64, assoc: u16) -> Result<Self, SimConfigError> {
        let g = CacheGeometry { size_bytes, assoc };
        if assoc == 0
            || size_bytes == 0
            || g.num_sets() < 1
            || !size_bytes.is_multiple_of(u64::from(assoc) * CACHE_LINE_BYTES)
        {
            return Err(SimConfigError::BadGeometry {
                cache: "cache",
                size_bytes,
                assoc,
            });
        }
        Ok(g)
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / CACHE_LINE_BYTES / u64::from(self.assoc)
    }

    /// Total number of lines.
    #[inline]
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / CACHE_LINE_BYTES
    }

    /// The set index a line maps to.
    #[inline]
    pub fn set_of(&self, line: ripple_program::LineAddr) -> u32 {
        (line.index() % self.num_sets()) as u32
    }
}

/// Which hardware instruction prefetcher runs alongside the L1I (§II-C).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching (the paper's baseline configuration).
    #[default]
    None,
    /// Next-line prefetcher (NLP): on a demand access to line `X`,
    /// prefetch `X + 1`.
    NextLine,
    /// Fetch-directed instruction prefetching: a decoupled, branch-
    /// predictor-guided runahead frontend with a fetch target queue.
    Fdip,
}

impl PrefetcherKind {
    /// Display name as used in figure captions.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "no-prefetch",
            PrefetcherKind::NextLine => "nlp",
            PrefetcherKind::Fdip => "fdip",
        }
    }
}

// Which replacement policy manages the L1I (§II-D) is now named by a
// `PolicyId` from the policy registry — the single source of truth for
// policy names, families and constructors.
pub use crate::policy::registry::PolicyKind;
use crate::policy::TemperatureMap;

/// How an executed `invalidate` instruction acts on the L1I (§IV,
/// "Invalidation vs. reducing LRU priority").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionMechanism {
    /// Invalidate the line outright (works with any underlying policy).
    #[default]
    Invalidate,
    /// Demote the line to the bottom of the replacement order, letting the
    /// next fill evict it (LRU-specific optimization).
    Demote,
    /// Execute injected instructions as no-ops: isolates the code-bloat
    /// cost of injection from the replacement benefit (ablation).
    NoOp,
}

/// Full simulator configuration.
///
/// Defaults reproduce the paper's Table II: Haswell-class latencies, a
/// 32 KiB / 8-way L1I, 1 MB / 16-way L2 and 10 MiB / 20-way L3.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Shared L3 geometry.
    pub l3: CacheGeometry,
    /// L1I hit latency in cycles.
    pub l1i_latency: u32,
    /// L2 hit latency in cycles.
    pub l2_latency: u32,
    /// L3 hit latency in cycles.
    pub l3_latency: u32,
    /// Memory latency in cycles.
    pub mem_latency: u32,
    /// Base cycles per instruction with a perfect frontend (models the
    /// backend of the out-of-order core).
    pub base_cpi: f64,
    /// Fraction of a demand-miss latency exposed as pipeline stall (the
    /// out-of-order window hides the rest).
    pub stall_exposure: f64,
    /// Instruction prefetcher.
    pub prefetcher: PrefetcherKind,
    /// L1I replacement policy.
    pub policy: PolicyKind,
    /// Seed for the random replacement policy.
    pub random_seed: u64,
    /// Fetch target queue depth (blocks of runahead) for FDIP.
    pub ftq_depth: usize,
    /// Prefetch timeliness window, in executed blocks: a demand access to
    /// a line whose prefetch was issued fewer than this many blocks
    /// earlier pays the still-outstanding fraction of the L2 latency (a
    /// prefetch issued one block ahead hides almost nothing).
    pub prefetch_timeliness_blocks: u32,
    /// How executed `invalidate` instructions act on the cache.
    pub eviction_mechanism: EvictionMechanism,
    /// Fraction of the trace treated as cache warmup: the simulation runs
    /// normally but statistics only accumulate afterwards. The paper
    /// traces 100 M steady-state instructions where compulsory misses are
    /// negligible (§II-D measures 0.16 compulsory MPKI); warmup removes
    /// the first-touch bias of our shorter traces.
    pub warmup_fraction: f64,
    /// Scripted invalidations: `(trace_pos, line)` pairs, sorted by
    /// position, applied *before* the block at that position executes.
    /// This models a perfect software-eviction oracle with zero code
    /// bloat — the upper bound of Ripple's mechanism. Tests and the
    /// `ripple-check` fuzz cases drive it; no bench does.
    pub scripted_invalidations: Option<std::sync::Arc<Vec<(u64, ripple_program::LineAddr)>>>,
    /// Profile-derived code-temperature classes consumed by hint-guided
    /// policies (currently TRRIP). `None` means every line is warm and
    /// such policies degrade to their unhinted backbone.
    pub temperatures: Option<std::sync::Arc<TemperatureMap>>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            l1i: CacheGeometry::new(32 * 1024, 8),
            l2: CacheGeometry::new(1024 * 1024, 16),
            l3: CacheGeometry::new(10 * 1024 * 1024, 20),
            l1i_latency: 3,
            l2_latency: 12,
            l3_latency: 36,
            mem_latency: 260,
            base_cpi: 0.5,
            stall_exposure: 0.6,
            prefetcher: PrefetcherKind::None,
            policy: PolicyKind::LRU,
            random_seed: 0x9e37_79b9,
            ftq_depth: 12,
            prefetch_timeliness_blocks: 2,
            eviction_mechanism: EvictionMechanism::Invalidate,
            warmup_fraction: 0.25,
            scripted_invalidations: None,
            temperatures: None,
        }
    }
}

impl SimConfig {
    /// Convenience: this configuration with a different policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Convenience: this configuration with a different prefetcher.
    pub fn with_prefetcher(mut self, prefetcher: PrefetcherKind) -> Self {
        self.prefetcher = prefetcher;
        self
    }

    /// Starts a validating builder seeded with this configuration.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// Checks every knob against its documented range, returning the
    /// first violation.
    ///
    /// Construction via struct literal stays open for tests and ablations;
    /// the public entry points ([`SimConfigBuilder::build`], the CLI)
    /// funnel through this.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        fn finite_in(
            field: &'static str,
            value: f64,
            min: f64,
            max: f64,
        ) -> Result<(), SimConfigError> {
            if !value.is_finite() {
                return Err(SimConfigError::NotFinite { field });
            }
            if value < min || value > max {
                return Err(SimConfigError::OutOfRange {
                    field,
                    value,
                    min,
                    max,
                });
            }
            Ok(())
        }
        for (cache, g) in [("l1i", self.l1i), ("l2", self.l2), ("l3", self.l3)] {
            CacheGeometry::checked(g.size_bytes, g.assoc).map_err(|_| {
                SimConfigError::BadGeometry {
                    cache,
                    size_bytes: g.size_bytes,
                    assoc: g.assoc,
                }
            })?;
        }
        finite_in("base_cpi", self.base_cpi, f64::MIN_POSITIVE, 1000.0)?;
        finite_in("stall_exposure", self.stall_exposure, 0.0, 1.0)?;
        finite_in("warmup_fraction", self.warmup_fraction, 0.0, 0.9)?;
        if let Some(script) = &self.scripted_invalidations {
            for (i, w) in script.windows(2).enumerate() {
                if w[0].0 > w[1].0 {
                    return Err(SimConfigError::UnsortedInvalidations { index: i + 1 });
                }
            }
        }
        Ok(())
    }
}

/// Validating builder for [`SimConfig`].
///
/// Starts from [`SimConfig::default`] (the paper's Table II), lets callers
/// override individual knobs, and checks every range in
/// [`SimConfigBuilder::build`] — NaN thresholds, zero geometries and
/// inconsistent warmup fractions come back as [`SimConfigError`]s instead
/// of panics deep inside the engine.
///
/// # Examples
///
/// ```
/// use ripple_sim::{PolicyKind, SimConfig, SimConfigError};
///
/// let cfg = SimConfig::builder()
///     .policy(PolicyKind::SRRIP)
///     .warmup_fraction(0.1)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.policy, PolicyKind::SRRIP);
///
/// let err = SimConfig::builder().warmup_fraction(f64::NAN).build();
/// assert!(matches!(err, Err(SimConfigError::NotFinite { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the L1I geometry.
    pub fn l1i(mut self, size_bytes: u64, assoc: u16) -> Self {
        self.config.l1i = CacheGeometry { size_bytes, assoc };
        self
    }

    /// Sets the L2 geometry.
    pub fn l2(mut self, size_bytes: u64, assoc: u16) -> Self {
        self.config.l2 = CacheGeometry { size_bytes, assoc };
        self
    }

    /// Sets the L3 geometry.
    pub fn l3(mut self, size_bytes: u64, assoc: u16) -> Self {
        self.config.l3 = CacheGeometry { size_bytes, assoc };
        self
    }

    /// Sets the base CPI of the modelled backend.
    pub fn base_cpi(mut self, base_cpi: f64) -> Self {
        self.config.base_cpi = base_cpi;
        self
    }

    /// Sets the exposed fraction of demand-miss latency.
    pub fn stall_exposure(mut self, stall_exposure: f64) -> Self {
        self.config.stall_exposure = stall_exposure;
        self
    }

    /// Sets the warmup fraction (statistics accumulate after it).
    pub fn warmup_fraction(mut self, warmup_fraction: f64) -> Self {
        self.config.warmup_fraction = warmup_fraction;
        self
    }

    /// Sets the instruction prefetcher.
    pub fn prefetcher(mut self, prefetcher: PrefetcherKind) -> Self {
        self.config.prefetcher = prefetcher;
        self
    }

    /// Sets the L1I replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the eviction mechanism for executed `invalidate`s.
    pub fn eviction_mechanism(mut self, mechanism: EvictionMechanism) -> Self {
        self.config.eviction_mechanism = mechanism;
        self
    }

    /// Sets the scripted invalidation schedule (must be sorted by
    /// position; [`SimConfigBuilder::build`] checks).
    pub fn scripted_invalidations(mut self, script: Vec<(u64, ripple_program::LineAddr)>) -> Self {
        self.config.scripted_invalidations = Some(std::sync::Arc::new(script));
        self
    }

    /// Sets the profile-derived temperature map for hint-guided policies.
    pub fn temperatures(mut self, temperatures: TemperatureMap) -> Self {
        self.config.temperatures = Some(std::sync::Arc::new(temperatures));
        self
    }

    /// Validates every knob and returns the configuration.
    pub fn build(self) -> Result<SimConfig, SimConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_program::LineAddr;

    #[test]
    fn table_ii_defaults() {
        let c = SimConfig::default();
        assert_eq!((c.l1i.size_bytes, c.l1i.assoc), (32 * 1024, 8));
        assert_eq!((c.l2.size_bytes, c.l2.assoc), (1024 * 1024, 16));
        assert_eq!((c.l3.size_bytes, c.l3.assoc), (10 * 1024 * 1024, 20));
        assert_eq!(
            (c.l1i_latency, c.l2_latency, c.l3_latency, c.mem_latency),
            (3, 12, 36, 260)
        );
    }

    #[test]
    fn table_ii_geometries() {
        let c = SimConfig::default();
        assert_eq!(c.l1i.num_sets(), 64);
        assert_eq!(c.l1i.num_lines(), 512);
        assert_eq!(c.l2.num_sets(), 1024);
        assert_eq!(c.l3.num_sets(), 8192);
    }

    #[test]
    fn set_mapping_wraps() {
        let g = CacheGeometry::new(32 * 1024, 8);
        assert_eq!(g.set_of(LineAddr::new(0)), 0);
        assert_eq!(g.set_of(LineAddr::new(63)), 63);
        assert_eq!(g.set_of(LineAddr::new(64)), 0);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_rejected() {
        let _ = CacheGeometry::new(1000, 8);
    }

    #[test]
    fn checked_geometry_reports_typed_errors() {
        assert!(CacheGeometry::checked(32 * 1024, 8).is_ok());
        for (size, assoc) in [(1000, 8), (0, 8), (32 * 1024, 0), (64, 8)] {
            match CacheGeometry::checked(size, assoc) {
                Err(SimConfigError::BadGeometry {
                    size_bytes,
                    assoc: a,
                    ..
                }) => {
                    assert_eq!((size_bytes, a), (size, assoc));
                }
                other => panic!("({size}, {assoc}) -> {other:?}"),
            }
        }
    }

    #[test]
    fn builder_accepts_defaults_and_overrides() {
        let cfg = SimConfig::builder().build().unwrap();
        assert_eq!(cfg, SimConfig::default());
        let cfg = SimConfig::builder()
            .l1i(1024, 2)
            .policy(PolicyKind::GHRP)
            .prefetcher(PrefetcherKind::Fdip)
            .warmup_fraction(0.0)
            .build()
            .unwrap();
        assert_eq!(cfg.l1i.num_sets(), 8);
        assert_eq!(cfg.policy, PolicyKind::GHRP);
    }

    #[test]
    fn builder_rejects_bad_knobs() {
        use SimConfigError::*;
        assert!(matches!(
            SimConfig::builder().base_cpi(f64::NAN).build(),
            Err(NotFinite { field: "base_cpi" })
        ));
        assert!(matches!(
            SimConfig::builder().base_cpi(0.0).build(),
            Err(OutOfRange {
                field: "base_cpi",
                ..
            })
        ));
        assert!(matches!(
            SimConfig::builder().stall_exposure(1.5).build(),
            Err(OutOfRange {
                field: "stall_exposure",
                ..
            })
        ));
        assert!(matches!(
            SimConfig::builder().warmup_fraction(0.95).build(),
            Err(OutOfRange {
                field: "warmup_fraction",
                ..
            })
        ));
        assert!(matches!(
            SimConfig::builder().l1i(1000, 8).build(),
            Err(BadGeometry { cache: "l1i", .. })
        ));
        assert!(matches!(
            SimConfig::builder().l3(0, 20).build(),
            Err(BadGeometry { cache: "l3", .. })
        ));
    }

    #[test]
    fn builder_rejects_unsorted_invalidations() {
        let script = vec![(10, LineAddr::new(1)), (5, LineAddr::new(2))];
        assert!(matches!(
            SimConfig::builder().scripted_invalidations(script).build(),
            Err(SimConfigError::UnsortedInvalidations { index: 1 })
        ));
        let sorted = vec![(5, LineAddr::new(2)), (10, LineAddr::new(1))];
        assert!(SimConfig::builder()
            .scripted_invalidations(sorted)
            .build()
            .is_ok());
    }

    #[test]
    fn config_error_display_is_informative() {
        let e = SimConfigError::OutOfRange {
            field: "warmup_fraction",
            value: 2.0,
            min: 0.0,
            max: 0.9,
        };
        let s = e.to_string();
        assert!(s.contains("warmup_fraction") && s.contains("0.9"), "{s}");
    }

    #[test]
    fn names() {
        assert_eq!(PolicyKind::DEMAND_MIN.name(), "demand-min");
        assert_eq!(PrefetcherKind::Fdip.name(), "fdip");
        assert!(PolicyKind::OPT.is_offline_ideal());
        assert!(!PolicyKind::LRU.is_offline_ideal());
    }
}
