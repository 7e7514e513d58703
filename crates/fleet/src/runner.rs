//! The fleet epoch loop: collect → aggregate → train → rollout.

use std::collections::BTreeMap;
use std::sync::Arc;

use ripple::{effective_threads, run_jobs, temperatures_from_counts, Job, Ripple, RippleConfig};
use ripple_json::Value;
use ripple_obs::{time_phase, Recorder};
use ripple_program::{rewrite, LineAddr};
use ripple_sim::{CacheGeometry, PolicyKind, SimConfig, SimSession};
use ripple_trace::{reconstruct_trace_lossy, record_trace_with_sync, BbTrace, DecodeOptions};
use ripple_workloads::{execute, InputConfig};

use crate::aggregate::{merge_weighted_counts, merged_training_trace, Shard};
use crate::cache::{layout_hash, profile_fingerprint, PlanArtifact, PlanArtifactCache};
use crate::registry::FleetRegistry;
use crate::report::{fleet_report, EpochReport};
use crate::{mix, FleetConfig, FleetError};

/// Training traces are capped so a big fleet's epoch stays fast; the cap
/// is generous relative to the per-shard budget, so small fleets train on
/// everything.
const MAX_TRAIN_BLOCKS: usize = 60_000;

/// Mid-stream sync cadence for shard packet streams: dense enough that a
/// poisoned span costs a fraction of the shard, not all of it.
const SHARD_SYNC_INTERVAL: u64 = 256;

/// The fleet's simulated L1I is small relative to the tiny generated
/// services, so plans have misses to remove (mirrors the core quickstart).
fn fleet_sim_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.l1i = CacheGeometry::new(2048, 4);
    cfg
}

/// Deterministically corrupts a mid-stream span (the poisoned-shard
/// fault model: a damaged but partially recoverable packet buffer).
fn poison(bytes: &mut [u8]) {
    let (start, end) = (bytes.len() / 4, bytes.len() / 2);
    for b in &mut bytes[start..end] {
        *b ^= 0xa5;
    }
}

/// One service's aggregated profile for an epoch.
struct ServiceProfile {
    counts: BTreeMap<LineAddr, u64>,
    train_trace: BbTrace,
    fingerprint: u64,
}

/// Per-instance rollout measurements.
struct InstanceOutcome {
    weight: u64,
    baseline_mpki: f64,
    deployed_mpki: f64,
    candidate_mpki: Option<f64>,
    is_canary: bool,
}

fn weighted_mean(pairs: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (mut num, mut den) = (0.0_f64, 0u64);
    for (w, x) in pairs {
        num += w as f64 * x;
        den += w;
    }
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Runs the full fleet loop with a cold [`PlanArtifactCache`], returning
/// the parsed `ripple.fleet_report.v1` document.
///
/// # Errors
///
/// Returns [`FleetError::Config`] for invalid knobs and
/// [`FleetError::Pipeline`] when training fails.
pub fn run_fleet(config: &FleetConfig, recorder: Arc<dyn Recorder>) -> Result<Value, FleetError> {
    let mut cache = PlanArtifactCache::new();
    run_fleet_with_cache(config, &mut cache, recorder)
}

/// [`run_fleet`] against a caller-owned artifact cache (a warm cache
/// skips training work but never changes the report — the determinism
/// tests compare warm and cold runs).
///
/// # Errors
///
/// See [`run_fleet`].
pub fn run_fleet_with_cache(
    config: &FleetConfig,
    cache: &mut PlanArtifactCache,
    recorder: Arc<dyn Recorder>,
) -> Result<Value, FleetError> {
    config.validate()?;
    let registry = FleetRegistry::build(config);
    let threads = effective_threads(config.threads);
    let sim_cfg = fleet_sim_config();
    let num_services = registry.services.len();
    let layout_hashes: Vec<u64> = registry
        .services
        .iter()
        .map(|svc| layout_hash(&svc.program, &svc.layout))
        .collect();
    let canaries: Vec<Vec<usize>> = (0..num_services)
        .map(|s| registry.canaries_of(s, config.canary_pct))
        .collect();

    let mut deployed: Vec<Option<Arc<PlanArtifact>>> = vec![None; num_services];
    let mut epoch_reports: Vec<EpochReport> = Vec::new();
    let mut prev_cache_stats = cache.stats();

    for epoch in 0..config.epochs {
        let drifted = config.drift_epoch.is_some_and(|d| epoch >= d);

        // ---- Collect: every instance emits and decodes one shard. ----
        let shards: Vec<Option<Shard>> = time_phase(&*recorder, "fleet.collect", || {
            let jobs: Vec<Job<'_, Result<Shard, String>>> = registry
                .instances
                .iter()
                .map(|inst| -> Job<'_, Result<Shard, String>> {
                    let inst = *inst;
                    let svc = &registry.services[inst.service];
                    let seed = config.seed;
                    let budget = config.shard_instructions;
                    let poisoned = config.poison_instance == Some(inst.id);
                    let variant = inst.base_variant + u32::from(drifted);
                    Box::new(move || {
                        let input = InputConfig::numbered(variant, mix(seed, inst.id as u64));
                        let trace = execute(&svc.program, &svc.model, input, budget);
                        let mut bytes = record_trace_with_sync(
                            &svc.program,
                            &svc.layout,
                            trace.iter(),
                            SHARD_SYNC_INTERVAL,
                        );
                        if poisoned {
                            poison(&mut bytes);
                        }
                        let lossy = reconstruct_trace_lossy(
                            &svc.program,
                            &svc.layout,
                            &bytes,
                            &DecodeOptions::default(),
                        )
                        .map_err(|e| e.to_string())?;
                        if lossy.trace.is_empty() {
                            return Err("shard decoded to an empty trace".to_string());
                        }
                        Ok(Shard {
                            instance: inst.id,
                            weight: inst.weight,
                            trace: lossy.trace,
                            health: lossy.health,
                        })
                    })
                })
                .collect();
            run_jobs(threads, "fleet.collect", &*recorder, jobs)
                .into_iter()
                .map(|slot| match slot {
                    Ok(Ok(shard)) => Some(shard),
                    Ok(Err(_)) | Err(_) => None,
                })
                .collect()
        });
        let shards_ok = shards.iter().filter(|s| s.is_some()).count() as u64;
        let shards_failed = config.instances as u64 - shards_ok;
        let dropped_packets: u64 = shards
            .iter()
            .flatten()
            .map(|s| s.health.dropped_packets)
            .sum();
        let resync_events: u64 = shards
            .iter()
            .flatten()
            .map(|s| s.health.resync_events)
            .sum();

        // ---- Aggregate: weighted per-service fleet profiles. ----
        let profiles: Vec<ServiceProfile> = time_phase(&*recorder, "fleet.aggregate", || {
            (0..num_services)
                .map(|s| {
                    let svc_shards: Vec<&Shard> = shards
                        .iter()
                        .flatten()
                        .filter(|sh| registry.instances[sh.instance].service == s)
                        .collect();
                    let weighted: Vec<(&BbTrace, u64)> =
                        svc_shards.iter().map(|sh| (&sh.trace, sh.weight)).collect();
                    let counts = merge_weighted_counts(&registry.services[s].layout, &weighted);
                    let traces: Vec<&BbTrace> = svc_shards.iter().map(|sh| &sh.trace).collect();
                    let (train_trace, _taken) = merged_training_trace(&traces, MAX_TRAIN_BLOCKS);
                    let fingerprint = profile_fingerprint(counts.iter(), train_trace.len() as u64);
                    ServiceProfile {
                        counts,
                        train_trace,
                        fingerprint,
                    }
                })
                .collect()
        });

        // ---- Train: cached plan artifacts, trained on miss. ----
        let candidates: Vec<Option<Arc<PlanArtifact>>> =
            time_phase(&*recorder, "fleet.train", || {
                if config.drift_epoch == Some(epoch) {
                    // The drift event: declare every service's cached
                    // artifacts stale, whatever their fingerprints.
                    for s in 0..num_services {
                        cache.invalidate_service(s);
                    }
                }
                let mut candidates = Vec::with_capacity(num_services);
                for (s, profile) in profiles.iter().enumerate() {
                    if profile.train_trace.is_empty() {
                        candidates.push(None);
                        continue;
                    }
                    if let Some(art) = cache.lookup(s, layout_hashes[s], profile.fingerprint) {
                        candidates.push(Some(art));
                        continue;
                    }
                    let svc = &registry.services[s];
                    let mut rcfg = RippleConfig::default();
                    rcfg.threshold = 0.55;
                    rcfg.sim = sim_cfg.clone();
                    let ripple = Ripple::train_with_recorder(
                        &svc.program,
                        &svc.layout,
                        &profile.train_trace,
                        rcfg,
                        recorder.clone(),
                    )?;
                    let (plan, coverage) = ripple.plan()?;
                    let rewritten = rewrite(&svc.program, &svc.layout, &plan);
                    let art = Arc::new(PlanArtifact {
                        plan,
                        coverage,
                        rewritten,
                        temperatures: temperatures_from_counts(profile.counts.clone()),
                    });
                    cache.insert(s, layout_hashes[s], profile.fingerprint, art.clone());
                    candidates.push(Some(art));
                }
                Ok::<_, FleetError>(candidates)
            })?;

        // ---- Rollout: baseline / deployed / canary runs, then the gate. ----
        let outcomes: Vec<Option<InstanceOutcome>> =
            time_phase(&*recorder, "fleet.rollout", || {
                let jobs: Vec<Job<'_, Option<InstanceOutcome>>> = registry
                    .instances
                    .iter()
                    .map(|inst| -> Job<'_, Option<InstanceOutcome>> {
                        let inst = *inst;
                        let svc = &registry.services[inst.service];
                        let shard = &shards[inst.id];
                        let deployed_art = deployed[inst.service].clone();
                        let candidate_art = candidates[inst.service].clone();
                        let is_canary = canaries[inst.service].contains(&inst.id);
                        let sim_cfg = sim_cfg.clone();
                        Box::new(move || {
                            let shard = shard.as_ref()?;
                            let run_artifact = |art: &PlanArtifact| {
                                SimSession::new(
                                    &art.rewritten.program,
                                    &art.rewritten.layout,
                                    &shard.trace,
                                    sim_cfg.clone(),
                                )
                                .run(PolicyKind::LRU)
                                .mpki()
                            };
                            let baseline_mpki = SimSession::new(
                                &svc.program,
                                &svc.layout,
                                &shard.trace,
                                sim_cfg.clone(),
                            )
                            .run(PolicyKind::LRU)
                            .mpki();
                            let deployed_mpki = match &deployed_art {
                                Some(art) => run_artifact(art),
                                None => baseline_mpki,
                            };
                            let candidate_mpki = if is_canary {
                                candidate_art.as_ref().map(|art| {
                                    let same_as_deployed =
                                        deployed_art.as_ref().is_some_and(|d| Arc::ptr_eq(d, art));
                                    if same_as_deployed {
                                        deployed_mpki
                                    } else {
                                        run_artifact(art)
                                    }
                                })
                            } else {
                                None
                            };
                            Some(InstanceOutcome {
                                weight: inst.weight,
                                baseline_mpki,
                                deployed_mpki,
                                candidate_mpki,
                                is_canary,
                            })
                        })
                    })
                    .collect();
                run_jobs(threads, "fleet.rollout", &*recorder, jobs)
                    .into_iter()
                    .map(|slot| slot.ok().flatten())
                    .collect()
            });

        // Fleet MPKI over this epoch's production runs: canaries serve
        // the candidate, everyone else the deployed plan (or baseline).
        let fleet_mpki = weighted_mean(outcomes.iter().flatten().map(|o| {
            let production = if o.is_canary {
                o.candidate_mpki.unwrap_or(o.deployed_mpki)
            } else {
                o.deployed_mpki
            };
            (o.weight, production)
        }));
        let baseline_mpki = weighted_mean(
            outcomes
                .iter()
                .flatten()
                .map(|o| (o.weight, o.baseline_mpki)),
        );
        let canary_pairs: Vec<&InstanceOutcome> = outcomes
            .iter()
            .flatten()
            .filter(|o| o.is_canary && o.candidate_mpki.is_some())
            .collect();
        let canary_deployed_mpki =
            weighted_mean(canary_pairs.iter().map(|o| (o.weight, o.deployed_mpki)));
        let canary_candidate_mpki = weighted_mean(
            canary_pairs
                .iter()
                .map(|o| (o.weight, o.candidate_mpki.unwrap_or(o.deployed_mpki))),
        );
        let canary_delta_pct = if canary_deployed_mpki > 0.0 {
            (canary_candidate_mpki - canary_deployed_mpki) / canary_deployed_mpki * 100.0
        } else {
            0.0
        };

        // The promote/rollback gate, per service.
        let mut decisions = Vec::with_capacity(num_services);
        for s in 0..num_services {
            let Some(candidate) = &candidates[s] else {
                decisions.push("skipped".to_string());
                continue;
            };
            if deployed[s]
                .as_ref()
                .is_some_and(|d| Arc::ptr_eq(d, candidate))
            {
                decisions.push("hold".to_string());
                continue;
            }
            let members: Vec<&InstanceOutcome> = canaries[s]
                .iter()
                .filter_map(|&id| outcomes[id].as_ref())
                .filter(|o| o.candidate_mpki.is_some())
                .collect();
            let promote = if members.is_empty() {
                // Canarying disabled (or every canary shard failed):
                // direct rollout.
                true
            } else {
                let dep = weighted_mean(members.iter().map(|o| (o.weight, o.deployed_mpki)));
                let cand = weighted_mean(
                    members
                        .iter()
                        .map(|o| (o.weight, o.candidate_mpki.unwrap_or(o.deployed_mpki))),
                );
                cand <= dep * (1.0 + config.regression_gate_pct / 100.0) + 1e-9
            };
            if promote {
                deployed[s] = Some(candidate.clone());
                decisions.push("promote".to_string());
            } else {
                decisions.push("rollback".to_string());
            }
        }

        let stats = cache.stats();
        epoch_reports.push(EpochReport {
            epoch,
            drift: drifted,
            fleet_mpki,
            baseline_mpki,
            canary_instances: outcomes.iter().flatten().filter(|o| o.is_canary).count() as u64,
            canary_deployed_mpki,
            canary_candidate_mpki,
            canary_delta_pct,
            decisions,
            cache_hits: stats.hits - prev_cache_stats.hits,
            cache_misses: stats.misses - prev_cache_stats.misses,
            cache_invalidations: stats.invalidations - prev_cache_stats.invalidations,
            shards_ok,
            shards_failed,
            dropped_packets,
            resync_events,
        });
        prev_cache_stats = stats;

        if recorder.enabled() {
            let entry = &epoch_reports[epoch as usize];
            recorder.add("fleet.epochs", 1);
            recorder.add("fleet.shards_ok", shards_ok);
            recorder.add("fleet.shards_failed", shards_failed);
            recorder.gauge("fleet.mpki", entry.fleet_mpki);
            recorder.gauge(
                "fleet.cache_hit_rate",
                if entry.cache_hits + entry.cache_misses == 0 {
                    0.0
                } else {
                    entry.cache_hits as f64 / (entry.cache_hits + entry.cache_misses) as f64
                },
            );
        }
    }

    Ok(fleet_report(config, num_services as u64, &epoch_reports))
}
