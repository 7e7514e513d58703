//! The policy registry: single source of truth mapping policy names to
//! descriptors and constructors.
//!
//! Every layer that needs to enumerate, parse or construct replacement
//! policies (the engine, the CLI, the differential checker, the bench
//! grids) goes through [`PolicyRegistry`] instead of hard-coding lists.
//! Adding a policy is one new module plus one [`PolicyDescriptor`] entry
//! in [`builtin_descriptors`]; everything downstream picks it up.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::config::{CacheGeometry, SimConfig};
use crate::policy::{
    DemandMinPolicy, DrripPolicy, FutureIndex, GhrpPolicy, HawkeyePolicy, LruPolicy, OptPolicy,
    RandomPolicy, ReplacementPolicy, SrripPolicy, TreePlruPolicy, TrripPolicy,
};

/// Identifies a registered replacement policy.
///
/// The id is an index into the global registry's descriptor table; the
/// associated constants name the builtin policies. `PolicyId` replaces the
/// old closed `PolicyKind` enum — the [`PolicyKind`] alias keeps existing
/// call sites compiling.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyId(u16);

/// Compatibility alias for the pre-registry enum name.
pub type PolicyKind = PolicyId;

impl PolicyId {
    /// Least-recently-used (true LRU ordering).
    pub const LRU: PolicyId = PolicyId(0);
    /// Tree pseudo-LRU (1 bit per line).
    pub const TREE_PLRU: PolicyId = PolicyId(1);
    /// Uniform random victim.
    pub const RANDOM: PolicyId = PolicyId(2);
    /// Static re-reference interval prediction.
    pub const SRRIP: PolicyId = PolicyId(3);
    /// Dynamic RRIP with set dueling.
    pub const DRRIP: PolicyId = PolicyId(4);
    /// Global-history reuse predictor.
    pub const GHRP: PolicyId = PolicyId(5);
    /// Hawkeye (PC classification against simulated Belady-OPT).
    pub const HAWKEYE: PolicyId = PolicyId(6);
    /// Harmony (prefetch-aware Hawkeye).
    pub const HARMONY: PolicyId = PolicyId(7);
    /// TRRIP (temperature-based RRIP, Kao et al.).
    pub const TRRIP: PolicyId = PolicyId(8);
    /// Offline Belady-OPT ideal.
    pub const OPT: PolicyId = PolicyId(9);
    /// Offline revised Demand-MIN ideal.
    pub const DEMAND_MIN: PolicyId = PolicyId(10);

    /// This policy's descriptor in the global registry.
    pub fn descriptor(self) -> &'static PolicyDescriptor {
        PolicyRegistry::global().descriptor(self)
    }

    /// Display name as used in figure captions and the CLI.
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }

    /// Whether the policy requires offline future knowledge (two-pass
    /// simulation over a recorded [`FutureIndex`]).
    pub fn needs_future_index(self) -> bool {
        self.descriptor().needs_future_index
    }

    /// Whether the policy requires offline future knowledge (two-pass
    /// simulation). Alias of [`PolicyId::needs_future_index`], kept for
    /// pre-registry call sites.
    pub fn is_offline_ideal(self) -> bool {
        self.needs_future_index()
    }

    /// Resolves a name or alias against the global registry.
    pub fn parse(name: &str) -> Option<PolicyId> {
        PolicyRegistry::global().parse(name)
    }

    /// Every policy in the global registry, in registration order.
    pub fn all() -> Vec<PolicyId> {
        PolicyRegistry::global().all().collect()
    }

    /// The id's index into the registry's descriptor table.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl Default for PolicyId {
    fn default() -> Self {
        PolicyId::LRU
    }
}

impl fmt::Debug for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Broad family a policy belongs to, for grouping in reports and for
/// family-based bench filters (e.g. the underlying-policy ablation only
/// sweeps recency/random policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyFamily {
    /// Recency-ordered policies (LRU and its approximations).
    Recency,
    /// Random victim selection.
    Random,
    /// Re-reference interval prediction backbones (SRRIP/DRRIP/TRRIP).
    Rrip,
    /// Predictive reuse policies (GHRP, Hawkeye, Harmony).
    PredictiveReuse,
    /// Offline ideals replaying a recorded future.
    OfflineIdeal,
}

impl PolicyFamily {
    /// Display name for the `ripple policies` table.
    pub fn name(self) -> &'static str {
        match self {
            PolicyFamily::Recency => "recency",
            PolicyFamily::Random => "random",
            PolicyFamily::Rrip => "rrip",
            PolicyFamily::PredictiveReuse => "predictive-reuse",
            PolicyFamily::OfflineIdeal => "offline-ideal",
        }
    }
}

/// How a policy is constructed.
///
/// Online policies build from the [`SimConfig`] alone; offline ideals
/// additionally need the [`FutureIndex`] recorded by a first pass.
#[derive(Clone, Copy)]
pub enum PolicyConstructor {
    /// Single-pass policy built from the configuration.
    Online(fn(&SimConfig) -> Box<dyn ReplacementPolicy>),
    /// Two-pass ideal built over a recorded future index.
    Offline(fn(CacheGeometry, Arc<FutureIndex>) -> Box<dyn ReplacementPolicy>),
}

impl fmt::Debug for PolicyConstructor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicyConstructor::Online(_) => "Online(..)",
            PolicyConstructor::Offline(_) => "Offline(..)",
        })
    }
}

/// Everything the rest of the system needs to know about one policy.
#[derive(Debug, Clone, Copy)]
pub struct PolicyDescriptor {
    /// Canonical name (CLI flag value, figure captions, JSON keys).
    pub name: &'static str,
    /// Alternative names accepted by [`PolicyRegistry::parse`].
    pub aliases: &'static [&'static str],
    /// Broad family, for grouping and bench filters.
    pub family: PolicyFamily,
    /// Whether construction needs a recorded [`FutureIndex`] (two-pass
    /// simulation). Must agree with the constructor variant; the registry
    /// rejects descriptors where the two disagree.
    pub needs_future_index: bool,
    /// One-line description for `ripple policies`.
    pub description: &'static str,
    /// How to build the policy.
    pub constructor: PolicyConstructor,
}

/// Why a descriptor table was rejected by
/// [`PolicyRegistry::from_descriptors`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Two descriptors claim the same name or alias.
    DuplicateName {
        /// The contested name.
        name: &'static str,
    },
    /// A descriptor's `needs_future_index` flag disagrees with its
    /// constructor variant.
    InconsistentFutureIndex {
        /// The offending policy.
        name: &'static str,
        /// The declared (wrong) flag value.
        needs_future_index: bool,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName { name } => {
                write!(f, "policy name or alias `{name}` registered twice")
            }
            RegistryError::InconsistentFutureIndex {
                name,
                needs_future_index,
            } => write!(
                f,
                "policy `{name}` declares needs_future_index = {needs_future_index} \
                 but its constructor variant says otherwise"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A validated table of policy descriptors with name/alias lookup.
///
/// The process-wide instance over the builtin table is
/// [`PolicyRegistry::global`]; [`PolicyRegistry::from_descriptors`] exists
/// so tests can exercise the validation paths on synthetic tables.
#[derive(Debug)]
pub struct PolicyRegistry {
    descriptors: &'static [PolicyDescriptor],
    by_name: HashMap<&'static str, PolicyId>,
}

impl PolicyRegistry {
    /// Validates `descriptors` and builds the lookup table.
    ///
    /// Rejects duplicate names/aliases and descriptors whose
    /// `needs_future_index` flag disagrees with the constructor variant.
    pub fn from_descriptors(
        descriptors: &'static [PolicyDescriptor],
    ) -> Result<PolicyRegistry, RegistryError> {
        let mut by_name = HashMap::new();
        for (i, d) in descriptors.iter().enumerate() {
            let offline = matches!(d.constructor, PolicyConstructor::Offline(_));
            if d.needs_future_index != offline {
                return Err(RegistryError::InconsistentFutureIndex {
                    name: d.name,
                    needs_future_index: d.needs_future_index,
                });
            }
            let id = PolicyId(i as u16);
            for name in std::iter::once(d.name).chain(d.aliases.iter().copied()) {
                if by_name.insert(name, id).is_some() {
                    return Err(RegistryError::DuplicateName { name });
                }
            }
        }
        Ok(PolicyRegistry {
            descriptors,
            by_name,
        })
    }

    /// The process-wide registry over the builtin descriptor table.
    ///
    /// # Panics
    ///
    /// Panics if the builtin table is invalid — a bug caught by the
    /// registry unit tests, never by users.
    pub fn global() -> &'static PolicyRegistry {
        static GLOBAL: OnceLock<PolicyRegistry> = OnceLock::new();
        GLOBAL.get_or_init(
            || match PolicyRegistry::from_descriptors(builtin_descriptors()) {
                Ok(r) => r,
                Err(e) => panic!("builtin policy table invalid: {e}"),
            },
        )
    }

    /// Resolves a canonical name or alias.
    pub fn parse(&self, name: &str) -> Option<PolicyId> {
        self.by_name.get(name).copied()
    }

    /// The descriptor for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was minted by a different registry with more
    /// entries.
    pub fn descriptor(&self, id: PolicyId) -> &'static PolicyDescriptor {
        &self.descriptors[id.index()]
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether the registry is empty (it never is for the builtin table).
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Every registered policy, in registration order.
    pub fn all(&self) -> impl Iterator<Item = PolicyId> + '_ {
        (0..self.descriptors.len()).map(|i| PolicyId(i as u16))
    }

    /// Canonical names in registration order (no aliases).
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.descriptors.iter().map(|d| d.name)
    }

    /// Policies that run in a single pass (no recorded future needed).
    pub fn online(&self) -> impl Iterator<Item = PolicyId> + '_ {
        self.all()
            .filter(|id| !self.descriptor(*id).needs_future_index)
    }

    /// Offline ideals (need a recorded [`FutureIndex`]).
    pub fn offline(&self) -> impl Iterator<Item = PolicyId> + '_ {
        self.all()
            .filter(|id| self.descriptor(*id).needs_future_index)
    }
}

/// The builtin descriptor table.
///
/// Order matters: each entry's position is its [`PolicyId`] value, so new
/// policies append (the associated constants on [`PolicyId`] assert the
/// mapping in the registry tests).
pub fn builtin_descriptors() -> &'static [PolicyDescriptor] {
    static DESCRIPTORS: &[PolicyDescriptor] = &[
        PolicyDescriptor {
            name: "lru",
            aliases: &[],
            family: PolicyFamily::Recency,
            needs_future_index: false,
            description: "least-recently-used (true recency order)",
            constructor: PolicyConstructor::Online(|cfg| Box::new(LruPolicy::new(cfg.l1i))),
        },
        PolicyDescriptor {
            name: "tree-plru",
            aliases: &["plru"],
            family: PolicyFamily::Recency,
            needs_future_index: false,
            description: "tree pseudo-LRU (1 bit per line)",
            constructor: PolicyConstructor::Online(|cfg| Box::new(TreePlruPolicy::new(cfg.l1i))),
        },
        PolicyDescriptor {
            name: "random",
            aliases: &[],
            family: PolicyFamily::Random,
            needs_future_index: false,
            description: "uniform random victim (zero metadata)",
            constructor: PolicyConstructor::Online(|cfg| {
                Box::new(RandomPolicy::new(cfg.l1i, cfg.random_seed))
            }),
        },
        PolicyDescriptor {
            name: "srrip",
            aliases: &[],
            family: PolicyFamily::Rrip,
            needs_future_index: false,
            description: "static re-reference interval prediction",
            constructor: PolicyConstructor::Online(|cfg| Box::new(SrripPolicy::new(cfg.l1i))),
        },
        PolicyDescriptor {
            name: "drrip",
            aliases: &[],
            family: PolicyFamily::Rrip,
            needs_future_index: false,
            description: "dynamic RRIP with SRRIP/BRRIP set dueling",
            constructor: PolicyConstructor::Online(|cfg| Box::new(DrripPolicy::new(cfg.l1i))),
        },
        PolicyDescriptor {
            name: "ghrp",
            aliases: &[],
            family: PolicyFamily::PredictiveReuse,
            needs_future_index: false,
            description: "global-history reuse predictor (I-cache specific)",
            constructor: PolicyConstructor::Online(|cfg| Box::new(GhrpPolicy::new(cfg.l1i))),
        },
        PolicyDescriptor {
            name: "hawkeye",
            aliases: &[],
            family: PolicyFamily::PredictiveReuse,
            needs_future_index: false,
            description: "PC classification against simulated Belady-OPT",
            constructor: PolicyConstructor::Online(|cfg| {
                Box::new(HawkeyePolicy::new(cfg.l1i, false))
            }),
        },
        PolicyDescriptor {
            name: "harmony",
            aliases: &[],
            family: PolicyFamily::PredictiveReuse,
            needs_future_index: false,
            description: "prefetch-aware Hawkeye (Demand-MIN training)",
            constructor: PolicyConstructor::Online(|cfg| {
                Box::new(HawkeyePolicy::new(cfg.l1i, true))
            }),
        },
        PolicyDescriptor {
            name: "trrip",
            aliases: &[],
            family: PolicyFamily::Rrip,
            needs_future_index: false,
            description: "temperature-based RRIP with profile-derived hot/warm/cold hints",
            constructor: PolicyConstructor::Online(|cfg| {
                Box::new(TrripPolicy::new(cfg.l1i, cfg.temperatures.clone()))
            }),
        },
        PolicyDescriptor {
            name: "opt",
            aliases: &[],
            family: PolicyFamily::OfflineIdeal,
            needs_future_index: true,
            description: "offline Belady-OPT ideal (demand-only)",
            constructor: PolicyConstructor::Offline(|geom, future| {
                Box::new(OptPolicy::new(geom, future))
            }),
        },
        PolicyDescriptor {
            name: "demand-min",
            aliases: &[],
            family: PolicyFamily::OfflineIdeal,
            needs_future_index: true,
            description: "offline revised Demand-MIN ideal (prefetch-aware)",
            constructor: PolicyConstructor::Offline(|geom, future| {
                Box::new(DemandMinPolicy::new(geom, future))
            }),
        },
    ];
    DESCRIPTORS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn associated_consts_match_table_order() {
        let expect = [
            (PolicyId::LRU, "lru"),
            (PolicyId::TREE_PLRU, "tree-plru"),
            (PolicyId::RANDOM, "random"),
            (PolicyId::SRRIP, "srrip"),
            (PolicyId::DRRIP, "drrip"),
            (PolicyId::GHRP, "ghrp"),
            (PolicyId::HAWKEYE, "hawkeye"),
            (PolicyId::HARMONY, "harmony"),
            (PolicyId::TRRIP, "trrip"),
            (PolicyId::OPT, "opt"),
            (PolicyId::DEMAND_MIN, "demand-min"),
        ];
        assert_eq!(expect.len(), PolicyRegistry::global().len());
        for (id, name) in expect {
            assert_eq!(id.name(), name);
            assert_eq!(PolicyId::parse(name), Some(id));
        }
    }

    #[test]
    fn round_trip_every_policy_through_its_constructor() {
        // name → descriptor → constructor → built policy → name, for every
        // registered policy. The built policy must report the registered
        // name (the registry is the single source of truth).
        let geom = CacheGeometry::new(4 * 64, 2);
        let cfg = SimConfig {
            l1i: geom,
            ..SimConfig::default()
        };
        let future = FutureIndex::build(&[]);
        for id in PolicyId::all() {
            let d = id.descriptor();
            let built = match d.constructor {
                PolicyConstructor::Online(build) => build(&cfg),
                PolicyConstructor::Offline(build) => build(geom, future.clone()),
            };
            assert_eq!(built.name(), d.name, "constructor/name mismatch");
            assert_eq!(PolicyId::parse(built.name()), Some(id));
        }
    }

    #[test]
    fn alias_resolution() {
        assert_eq!(PolicyId::parse("plru"), Some(PolicyId::TREE_PLRU));
        assert_eq!(PolicyId::parse("tree-plru"), Some(PolicyId::TREE_PLRU));
        assert_eq!(PolicyId::parse("mru"), None);
        assert_eq!(PolicyId::parse(""), None);
    }

    #[test]
    fn duplicate_registration_rejected() {
        static DUP: &[PolicyDescriptor] = &[
            PolicyDescriptor {
                name: "lru",
                aliases: &[],
                family: PolicyFamily::Recency,
                needs_future_index: false,
                description: "a",
                constructor: PolicyConstructor::Online(|cfg| Box::new(LruPolicy::new(cfg.l1i))),
            },
            PolicyDescriptor {
                name: "fancy",
                aliases: &["lru"],
                family: PolicyFamily::Recency,
                needs_future_index: false,
                description: "b",
                constructor: PolicyConstructor::Online(|cfg| Box::new(LruPolicy::new(cfg.l1i))),
            },
        ];
        assert_eq!(
            PolicyRegistry::from_descriptors(DUP).err(),
            Some(RegistryError::DuplicateName { name: "lru" })
        );
    }

    #[test]
    fn inconsistent_future_index_flag_rejected() {
        static BAD: &[PolicyDescriptor] = &[PolicyDescriptor {
            name: "confused",
            aliases: &[],
            family: PolicyFamily::OfflineIdeal,
            needs_future_index: true,
            description: "claims offline but constructs online",
            constructor: PolicyConstructor::Online(|cfg| Box::new(LruPolicy::new(cfg.l1i))),
        }];
        assert_eq!(
            PolicyRegistry::from_descriptors(BAD).err(),
            Some(RegistryError::InconsistentFutureIndex {
                name: "confused",
                needs_future_index: true,
            })
        );
    }

    #[test]
    fn online_offline_partition() {
        let r = PolicyRegistry::global();
        let online: Vec<_> = r.online().collect();
        let offline: Vec<_> = r.offline().collect();
        assert_eq!(online.len() + offline.len(), r.len());
        assert!(offline.contains(&PolicyId::OPT));
        assert!(offline.contains(&PolicyId::DEMAND_MIN));
        assert!(online.contains(&PolicyId::TRRIP));
        for id in online {
            assert!(!id.is_offline_ideal());
        }
    }

    #[test]
    fn display_and_default() {
        assert_eq!(PolicyId::default(), PolicyId::LRU);
        assert_eq!(format!("{}", PolicyId::TRRIP), "trrip");
        assert_eq!(format!("{:?}", PolicyId::DEMAND_MIN), "demand-min");
    }
}
