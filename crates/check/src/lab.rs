//! Dimension 9: declarative lab experiments vs brute-force oracles.
//!
//! `ripple-lab` expands an [`Experiment`]'s parameter grid and executes it
//! on the shared harness with a byte-determinism promise. This dimension
//! fuzzes random declarations against independent oracles: the expanded
//! grid must equal a mixed-radix decoding of every index (count, order
//! and coordinates — checked without re-running the expansion's nested
//! loops), resolution must dedup every axis keeping first occurrences,
//! the grid must be duplicate-free and identical across repeated
//! expansions, and the declaration must survive a JSON round trip
//! unchanged. On a bounded subset of seeds a tiny experiment actually
//! runs end to end: the emitted `ripple.lab_report.v1` document must be
//! byte-identical at 1 and 3 threads and pass [`validate_lab_report`].

use rand::{Rng, SeedableRng, StdRng};
use ripple_json::ToJson;
use ripple_lab::{run_experiment, validate_lab_report, Experiment, LabOptions, TARGET_PROFILES};
use ripple_sim::{PolicyKind, PolicyRegistry};
use ripple_workloads::App;

/// Picks 1..=max entries from `pool`, duplicates allowed on purpose:
/// resolution promises to dedup, so duplicated declarations are exactly
/// the interesting inputs.
fn pick_names(rng: &mut StdRng, pool: &[&str], max: usize) -> Vec<String> {
    let n = rng.gen_range(1..=max.min(pool.len()));
    (0..n)
        .map(|_| pool[rng.gen_range(0..pool.len())].to_string())
        .collect()
}

fn app_pool() -> Vec<&'static str> {
    App::ALL.iter().map(|a| a.name()).collect()
}

fn online_policy_pool() -> Vec<&'static str> {
    PolicyRegistry::global()
        .online()
        .map(PolicyKind::name)
        .collect()
}

/// A random declaration exercising every axis, including the expansion
/// tokens and deliberate duplicates/aliases.
fn gen_declaration(rng: &mut StdRng) -> Experiment {
    let profile_pool: Vec<&str> = TARGET_PROFILES.iter().map(|p| p.name).collect();
    let policies = match rng.gen_range(0..3u32) {
        0 => Vec::new(),
        1 => vec!["@priors".to_string()],
        _ => pick_names(rng, &online_policy_pool(), 2),
    };
    let ripple_underlying = match rng.gen_range(0..3u32) {
        0 => Vec::new(),
        1 => vec!["lru".to_string()],
        _ => vec!["@underlying-agnostic".to_string()],
    };
    let thresholds = if ripple_underlying.is_empty() && rng.gen_bool(0.5) {
        Vec::new()
    } else {
        let pool = [0.0, 0.25, 0.5, 0.5, 0.75, 1.0];
        let n = rng.gen_range(1..=3usize);
        (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
    };
    Experiment {
        name: "check".to_string(),
        description: String::new(),
        instructions: rng.gen_range(5_000..20_000u64),
        profiles: pick_names(rng, &profile_pool, 3),
        apps: pick_names(rng, &app_pool(), 3),
        prefetchers: pick_names(rng, &["none", "nlp", "next-line", "fdip"], 3),
        policies,
        ripple_underlying,
        thresholds,
        fault_modes: pick_names(rng, &["none", "bitflip"], 2),
    }
}

/// A deliberately tiny declaration (one app, one point-ish grid) cheap
/// enough to execute end to end inside the fuzz loop.
fn gen_tiny_declaration(rng: &mut StdRng) -> Experiment {
    let apps = app_pool();
    Experiment {
        name: "check-run".to_string(),
        description: String::new(),
        instructions: rng.gen_range(5_000..10_000u64),
        profiles: vec!["paper".to_string()],
        apps: vec![apps[rng.gen_range(0..apps.len())].to_string()],
        prefetchers: vec![["none", "nlp", "fdip"][rng.gen_range(0..3usize)].to_string()],
        policies: if rng.gen_bool(0.5) {
            vec!["random".to_string()]
        } else {
            Vec::new()
        },
        ripple_underlying: if rng.gen_bool(0.5) {
            vec!["lru".to_string()]
        } else {
            Vec::new()
        },
        thresholds: vec![0.5],
        fault_modes: if rng.gen_bool(0.25) {
            vec!["none".to_string(), "bitflip".to_string()]
        } else {
            vec!["none".to_string()]
        },
    }
}

fn dup_free<T: PartialEq>(axis: &[T]) -> bool {
    axis.iter().enumerate().all(|(i, x)| !axis[..i].contains(x))
}

/// The expansion/resolution/round-trip oracle applied to one declaration.
fn expansion_violation(decl: &Experiment) -> Option<String> {
    let resolved = match decl.resolve() {
        Ok(r) => r,
        Err(e) => return Some(format!("generated declaration failed to resolve: {e}")),
    };
    // Every resolved axis must be deduped (first occurrence wins is
    // implied: resolution preserves declaration order).
    let profile_names: Vec<&str> = resolved.profiles.iter().map(|p| p.name).collect();
    if !(dup_free(&profile_names)
        && dup_free(&resolved.apps)
        && dup_free(&resolved.prefetchers)
        && dup_free(&resolved.policies)
        && dup_free(&resolved.ripple_underlying)
        && dup_free(&resolved.thresholds)
        && dup_free(&resolved.fault_modes))
    {
        return Some("a resolved axis still contains duplicates".to_string());
    }

    let points = resolved.expand();
    // The grid's shape, decoded per index with mixed-radix arithmetic —
    // an independent formulation of "cartesian product in nested
    // declaration order, fault modes innermost".
    let dims = [
        resolved.profiles.len(),
        resolved.apps.len(),
        resolved.prefetchers.len(),
        resolved.fault_modes.len(),
    ];
    let expected: usize = dims.iter().product();
    if points.len() != expected || points.len() != resolved.num_points() {
        return Some(format!(
            "expansion has {} points; axis product is {expected}, num_points() {}",
            points.len(),
            resolved.num_points()
        ));
    }
    for (i, p) in points.iter().enumerate() {
        let mut rest = i;
        let fault = rest % dims[3];
        rest /= dims[3];
        let pf = rest % dims[2];
        rest /= dims[2];
        let app = rest % dims[1];
        let profile = rest / dims[1];
        if p.profile.name != resolved.profiles[profile].name
            || p.app != resolved.apps[app]
            || p.prefetcher != resolved.prefetchers[pf]
            || p.fault != resolved.fault_modes[fault]
        {
            return Some(format!("point {i} disagrees with its mixed-radix decoding"));
        }
    }
    if !dup_free(&points) {
        return Some("expanded grid contains duplicate points".to_string());
    }
    if points != resolved.expand() {
        return Some("two expansions of one declaration differ".to_string());
    }

    // A declaration is data: serialize, parse back, must be identical.
    let text = ToJson::to_json(decl).to_pretty_string();
    match Experiment::parse(&text) {
        Err(e) => Some(format!("serialized declaration failed to parse: {e}")),
        Ok(back) if back != *decl => {
            Some("declaration changed across a JSON round trip".to_string())
        }
        Ok(_) => None,
    }
}

/// The end-to-end oracle: run a tiny experiment at 1 and 3 threads; the
/// rendered reports must be byte-identical and self-validate. A typed
/// error is a legal outcome for `bitflip` declarations (the corrupt span
/// can destroy a tiny trace outright) — but then both thread counts must
/// fail identically: success, failure and the failure message are all
/// part of the determinism promise.
fn execution_violation(decl: &Experiment) -> Option<String> {
    let resolved = match decl.resolve() {
        Ok(r) => r,
        Err(e) => return Some(format!("tiny declaration failed to resolve: {e}")),
    };
    let run_at = |threads: usize| {
        run_experiment(
            &resolved,
            &LabOptions {
                threads: Some(threads),
                ..LabOptions::default()
            },
        )
    };
    match (run_at(1), run_at(3)) {
        (Ok(one), Ok(three)) => {
            if one.report.to_pretty_string() != three.report.to_pretty_string() {
                return Some("lab report differs between 1 and 3 threads".to_string());
            }
            if let Err(e) = validate_lab_report(&one.report) {
                return Some(format!("emitted report failed validation: {e}"));
            }
            None
        }
        (Err(one), Err(three)) => {
            if one.to_string() != three.to_string() {
                return Some(format!(
                    "failure message depends on thread count: {one} vs {three}"
                ));
            }
            if !decl.fault_modes.iter().any(|m| m == "bitflip") {
                return Some(format!("fault-free experiment failed: {one}"));
            }
            None
        }
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => Some(format!(
            "experiment outcome depends on thread count (one side failed: {e})"
        )),
    }
}

/// Checks one generated case. Declarations are a few list literals, so
/// failures print the offending JSON whole instead of shrinking it.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1ab5_eb07_4e6a_7e5d);
    let decl = gen_declaration(&mut rng);
    if let Some(message) = expansion_violation(&decl) {
        let repro = format!(
            "declaration:\n{}\n{message}",
            ToJson::to_json(&decl).to_pretty_string()
        );
        return Err((message, repro));
    }
    // Every fourth case also runs a tiny grid end to end (bounded: full
    // simulations dominate the corpus budget otherwise).
    if seed.is_multiple_of(4) {
        let tiny = gen_tiny_declaration(&mut rng);
        if let Some(message) = execution_violation(&tiny) {
            let repro = format!(
                "declaration:\n{}\n{message}",
                ToJson::to_json(&tiny).to_pretty_string()
            );
            return Err((message, repro));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_oracle_passes_on_many_seeds() {
        for seed in 1..24u64 {
            // Odd seeds skip the execution subset: this test covers the
            // cheap oracles densely.
            if let Err((msg, repro)) = check(seed * 2 + 1) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn execution_oracle_passes_on_a_few_seeds() {
        for seed in [0u64, 4, 8] {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn generator_exercises_tokens_and_duplicates() {
        let mut saw_token = false;
        let mut saw_dup = false;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1ab5_eb07_4e6a_7e5d);
            let d = gen_declaration(&mut rng);
            saw_token |= d.policies.iter().any(|p| p.starts_with('@'))
                || d.ripple_underlying.iter().any(|p| p.starts_with('@'));
            saw_dup |= !dup_free(&d.apps)
                || !dup_free(&d.profiles)
                || !dup_free(&d.prefetchers)
                || !dup_free(&d.thresholds);
        }
        assert!(
            saw_token,
            "no generated declaration used an expansion token"
        );
        assert!(saw_dup, "no generated declaration exercised dedup");
    }
}
