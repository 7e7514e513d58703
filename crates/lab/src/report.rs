//! The `ripple.lab_report.v1` schema: construction, validation and
//! rendered sweep tables.
//!
//! Like the fleet report, a lab report is **fully deterministic**: it
//! carries per-point MPKI/speedup figures, Ripple coverage/accuracy and
//! trace health — never wall times. Floats are rounded to 1e-6 before
//! serialization, points appear in grid-expansion order and rows in
//! matrix order, so two runs of the same declaration produce
//! byte-identical JSON at any `--threads` count (CI diffs them with
//! `cmp`). Timings flow through the attached recorder instead; the
//! report's `phases` section carries only the fixed per-phase counts.

use ripple::SchemaTag;
use ripple_json::{object, Value};

use crate::experiment::{FaultMode, GridPoint, ResolvedExperiment};
use crate::runner::{PointOutcome, PointRow, RipplePointRow};

/// Schema identifier of a lab report.
pub const LAB_SCHEMA: &str = SchemaTag::Lab.as_str();

/// The runner's phases, in execution order.
pub const LAB_PHASES: [&str; 4] = ["lab.expand", "lab.load", "lab.execute", "lab.render"];

fn round6(x: f64) -> f64 {
    // Serialized figures are rounded so the textual report is stable
    // against float-formatting noise; 1e-6 of a percent or an MPKI is far
    // below anything a reader cares about.
    (x * 1e6).round() / 1e6
}

fn row_value(name: &str, row: &PointRow) -> Value {
    object([
        ("policy", Value::Str(name.to_string())),
        ("demand_misses", Value::UInt(row.demand_misses)),
        ("mpki", Value::Float(round6(row.mpki))),
        ("speedup_pct", Value::Float(round6(row.speedup_pct))),
        (
            "miss_reduction_pct",
            Value::Float(round6(row.miss_reduction_pct)),
        ),
    ])
}

fn ripple_value(row: &RipplePointRow) -> Value {
    object([
        ("underlying", Value::Str(row.underlying.clone())),
        ("threshold", Value::Float(round6(row.threshold))),
        ("best", Value::Bool(row.best)),
        ("speedup_pct", Value::Float(round6(row.row.speedup_pct))),
        ("mpki", Value::Float(round6(row.row.mpki))),
        (
            "miss_reduction_pct",
            Value::Float(round6(row.row.miss_reduction_pct)),
        ),
        ("coverage", Value::Float(round6(row.coverage))),
        ("accuracy", Value::Float(round6(row.accuracy))),
        (
            "underlying_accuracy",
            Value::Float(round6(row.underlying_accuracy)),
        ),
        (
            "static_overhead_pct",
            Value::Float(round6(row.static_overhead_pct)),
        ),
        (
            "dynamic_overhead_pct",
            Value::Float(round6(row.dynamic_overhead_pct)),
        ),
    ])
}

fn point_value(point: &GridPoint, outcome: &PointOutcome) -> Value {
    let mut rows = Vec::with_capacity(outcome.policies.len() + 3);
    rows.push(row_value("lru", &outcome.lru));
    for (name, row) in &outcome.policies {
        rows.push(row_value(name, row));
    }
    rows.push(row_value("ideal", &outcome.ideal));
    rows.push(row_value("ideal-cache", &outcome.ideal_cache));
    let mut fields = vec![
        ("profile", Value::Str(point.profile.name.to_string())),
        ("app", Value::Str(point.app.name().to_string())),
        (
            "prefetcher",
            Value::Str(point.prefetcher.name().to_string()),
        ),
        ("fault", Value::Str(point.fault.name().to_string())),
        (
            "compulsory_mpki",
            Value::Float(round6(outcome.compulsory_mpki)),
        ),
        ("rows", Value::Array(rows)),
        (
            "ripple",
            Value::Array(outcome.ripple.iter().map(ripple_value).collect()),
        ),
    ];
    if let Some(health) = &outcome.trace_health {
        fields.push((
            "trace_health",
            object([
                ("total_bytes", Value::UInt(health.total_bytes)),
                ("dropped_bytes", Value::UInt(health.dropped_bytes)),
                ("dropped_packets", Value::UInt(health.dropped_packets)),
                ("resync_events", Value::UInt(health.resync_events)),
            ]),
        ));
    }
    // `object` takes a fixed-size array; the trace-health member makes
    // this the one variable-length object in the schema.
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Builds the `ripple.lab_report.v1` document from a finished run.
/// `outcomes` must parallel `points` (grid-expansion order).
pub(crate) fn lab_report(
    resolved: &ResolvedExperiment,
    points: &[GridPoint],
    outcomes: &[PointOutcome],
    seed: u64,
) -> Value {
    let strs = |names: Vec<String>| Value::Array(names.into_iter().map(Value::Str).collect());
    let axes = object([
        (
            "profiles",
            strs(
                resolved
                    .profiles
                    .iter()
                    .map(|p| p.name.to_string())
                    .collect(),
            ),
        ),
        (
            "apps",
            strs(resolved.apps.iter().map(|a| a.name().to_string()).collect()),
        ),
        (
            "prefetchers",
            strs(
                resolved
                    .prefetchers
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect(),
            ),
        ),
        (
            "policies",
            strs(
                resolved
                    .policies
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect(),
            ),
        ),
        (
            "ripple_underlying",
            strs(
                resolved
                    .ripple_underlying
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect(),
            ),
        ),
        (
            "thresholds",
            Value::Array(
                resolved
                    .thresholds
                    .iter()
                    .map(|&t| Value::Float(round6(t)))
                    .collect(),
            ),
        ),
        (
            "fault_modes",
            strs(
                resolved
                    .fault_modes
                    .iter()
                    .map(|m| m.name().to_string())
                    .collect(),
            ),
        ),
    ]);
    let phase_counts = [1u64, resolved.apps.len() as u64, points.len() as u64, 1u64];
    object([
        ("schema", Value::Str(LAB_SCHEMA.to_string())),
        ("command", Value::Str("lab".to_string())),
        ("experiment", Value::Str(resolved.name.clone())),
        ("description", Value::Str(resolved.description.clone())),
        ("instructions", Value::UInt(resolved.instructions)),
        ("seed", Value::UInt(seed)),
        ("axes", axes),
        (
            "points",
            Value::Array(
                points
                    .iter()
                    .zip(outcomes)
                    .map(|(p, o)| point_value(p, o))
                    .collect(),
            ),
        ),
        (
            "phases",
            Value::Array(
                LAB_PHASES
                    .iter()
                    .zip(phase_counts)
                    .map(|(&name, count)| {
                        object([
                            ("name", Value::Str(name.to_string())),
                            ("count", Value::UInt(count)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|f| f.as_u64())
        .map_err(|e| format!("{key}: {e}"))
}

fn field_finite(v: &Value, key: &str) -> Result<f64, String> {
    let x = v
        .get(key)
        .and_then(|f| f.as_f64())
        .map_err(|e| format!("{key}: {e}"))?;
    if !x.is_finite() {
        return Err(format!("{key} is not finite: {x}"));
    }
    Ok(x)
}

fn field_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(|f| f.as_str())
        .map_err(|e| format!("{key}: {e}"))
}

fn names_of(axes: &Value, key: &str) -> Result<Vec<String>, String> {
    let arr = axes
        .get(key)
        .and_then(|a| a.as_array())
        .map_err(|e| format!("axes.{key}: {e}"))?;
    arr.iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .map_err(|e| format!("axes.{key}: {e}"))
        })
        .collect()
}

/// Validates a parsed `ripple.lab_report.v1` document: schema and
/// command tags, the grid-point count against the axes' cartesian
/// product, per-point row structure (LRU first with zero speedup, ideal
/// bounds last), Ripple rows grouped by declared underlying with exactly
/// one best-marked threshold per group, fault-mode vocabulary, and the
/// fixed phase roster.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_lab_report(report: &Value) -> Result<(), String> {
    let schema = field_str(report, "schema")?;
    if schema != LAB_SCHEMA {
        return Err(format!(
            "unknown schema {schema:?}, expected {LAB_SCHEMA:?}"
        ));
    }
    let command = field_str(report, "command")?;
    if command != "lab" {
        return Err(format!("command {command:?} is not \"lab\""));
    }
    if field_str(report, "experiment")?.is_empty() {
        return Err("experiment name is empty".into());
    }
    let instructions = field_u64(report, "instructions")?;
    if instructions == 0 {
        return Err("instruction budget is zero".into());
    }
    field_u64(report, "seed")?;

    let axes = report.get("axes").map_err(|e| format!("axes: {e}"))?;
    let profiles = names_of(axes, "profiles")?;
    let apps = names_of(axes, "apps")?;
    let prefetchers = names_of(axes, "prefetchers")?;
    let policies = names_of(axes, "policies")?;
    let underlyings = names_of(axes, "ripple_underlying")?;
    let fault_modes = names_of(axes, "fault_modes")?;
    let threshold_axis = axes
        .get("thresholds")
        .and_then(|a| a.as_array())
        .map_err(|e| format!("axes.thresholds: {e}"))?;
    for m in &fault_modes {
        if FaultMode::parse(m).is_none() {
            return Err(format!("axes.fault_modes has unknown mode {m:?}"));
        }
    }

    let expected_points = profiles.len() * apps.len() * prefetchers.len() * fault_modes.len();
    let points = report
        .get("points")
        .and_then(|p| p.as_array())
        .map_err(|e| format!("points: {e}"))?;
    if points.len() != expected_points {
        return Err(format!(
            "points has {} entries, axes promise {expected_points}",
            points.len()
        ));
    }

    for (i, point) in points.iter().enumerate() {
        let ctx = |msg: String| format!("point {i}: {msg}");
        let profile = field_str(point, "profile").map_err(&ctx)?;
        if !profiles.iter().any(|p| p == profile) {
            return Err(ctx(format!("profile {profile:?} not on the profiles axis")));
        }
        let app = field_str(point, "app").map_err(&ctx)?;
        if !apps.iter().any(|a| a == app) {
            return Err(ctx(format!("app {app:?} not on the apps axis")));
        }
        let fault = field_str(point, "fault").map_err(&ctx)?;
        let fault_mode =
            FaultMode::parse(fault).ok_or_else(|| ctx(format!("unknown fault {fault:?}")))?;
        let compulsory = field_finite(point, "compulsory_mpki").map_err(&ctx)?;
        if compulsory < 0.0 {
            return Err(ctx(format!("compulsory_mpki is negative: {compulsory}")));
        }

        let rows = point
            .get("rows")
            .and_then(|r| r.as_array())
            .map_err(|e| ctx(format!("rows: {e}")))?;
        // LRU baseline, the declared policies, then the two ideal bounds.
        if rows.len() != policies.len() + 3 {
            return Err(ctx(format!(
                "{} rows for {} declared policies (want policies + 3)",
                rows.len(),
                policies.len()
            )));
        }
        for (j, row) in rows.iter().enumerate() {
            let name = field_str(row, "policy").map_err(&ctx)?;
            let expected: &str = match j {
                0 => "lru",
                j if j == rows.len() - 2 => "ideal",
                j if j == rows.len() - 1 => "ideal-cache",
                j => policies[j - 1].as_str(),
            };
            if name != expected {
                return Err(ctx(format!("row {j} is {name:?}, expected {expected:?}")));
            }
            field_u64(row, "demand_misses").map_err(&ctx)?;
            let mpki = field_finite(row, "mpki").map_err(&ctx)?;
            if mpki < 0.0 {
                return Err(ctx(format!("{name} mpki is negative: {mpki}")));
            }
            field_finite(row, "miss_reduction_pct").map_err(&ctx)?;
            let speedup = field_finite(row, "speedup_pct").map_err(&ctx)?;
            if j == 0 && speedup != 0.0 {
                return Err(ctx(format!(
                    "LRU speedup over itself is {speedup}, not zero"
                )));
            }
        }

        let ripple = point
            .get("ripple")
            .and_then(|r| r.as_array())
            .map_err(|e| ctx(format!("ripple: {e}")))?;
        if ripple.len() != underlyings.len() * threshold_axis.len() {
            return Err(ctx(format!(
                "{} ripple rows for {} underlyings x {} thresholds",
                ripple.len(),
                underlyings.len(),
                threshold_axis.len()
            )));
        }
        for (u, group) in ripple.chunks(threshold_axis.len().max(1)).enumerate() {
            let mut best = 0usize;
            for row in group {
                let name = field_str(row, "underlying").map_err(&ctx)?;
                if name != underlyings[u] {
                    return Err(ctx(format!(
                        "ripple group {u} row names underlying {name:?}, expected {:?}",
                        underlyings[u]
                    )));
                }
                let t = field_finite(row, "threshold").map_err(&ctx)?;
                if !(0.0..=1.0).contains(&t) {
                    return Err(ctx(format!("threshold {t} outside [0, 1]")));
                }
                for key in ["coverage", "accuracy", "underlying_accuracy"] {
                    let x = field_finite(row, key).map_err(&ctx)?;
                    if !(0.0..=1.0).contains(&x) {
                        return Err(ctx(format!("{name} {key} {x} outside [0, 1]")));
                    }
                }
                field_finite(row, "speedup_pct").map_err(&ctx)?;
                field_finite(row, "static_overhead_pct").map_err(&ctx)?;
                field_finite(row, "dynamic_overhead_pct").map_err(&ctx)?;
                if row
                    .get("best")
                    .and_then(|b| b.as_bool())
                    .map_err(|e| ctx(format!("best: {e}")))?
                {
                    best += 1;
                }
            }
            if best != 1 {
                return Err(ctx(format!(
                    "ripple group {:?} marks {best} best thresholds, want exactly 1",
                    underlyings[u]
                )));
            }
        }

        match (fault_mode, point.get("trace_health")) {
            (FaultMode::None, Ok(_)) => {
                return Err(ctx("pristine point carries trace_health".into()))
            }
            (FaultMode::None, Err(_)) => {}
            (FaultMode::BitFlip, health) => {
                let health = health.map_err(|e| ctx(format!("trace_health: {e}")))?;
                let total = field_u64(health, "total_bytes")?;
                let dropped = field_u64(health, "dropped_bytes")?;
                if dropped > total {
                    return Err(ctx(format!(
                        "trace_health drops {dropped} of {total} bytes"
                    )));
                }
                field_u64(health, "dropped_packets")?;
                field_u64(health, "resync_events")?;
            }
        }
    }

    let phases = report
        .get("phases")
        .and_then(|p| p.as_array())
        .map_err(|e| format!("phases: {e}"))?;
    for name in LAB_PHASES {
        let found = phases.iter().any(|p| {
            p.get("name")
                .and_then(|n| n.as_str())
                .map(|n| n == name)
                .unwrap_or(false)
                && p.get("count").and_then(|c| c.as_u64()).unwrap_or(0) >= 1
        });
        if !found {
            return Err(format!("required phase {name:?} missing or never ran"));
        }
    }
    Ok(())
}

/// Renders the report's sweep tables as plain text: one speedup table per
/// (profile, prefetcher, fault) slice with a column per policy row, and a
/// Ripple table per slice when the declaration ran pipelines.
///
/// # Errors
///
/// Returns a description of the first malformed field; a report that
/// passed [`validate_lab_report`] always renders.
pub fn render_tables(report: &Value) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let experiment = field_str(report, "experiment")?;
    let instructions = field_u64(report, "instructions")?;
    let points = report
        .get("points")
        .and_then(|p| p.as_array())
        .map_err(|e| format!("points: {e}"))?;
    let _ = writeln!(
        out,
        "lab {experiment} — {instructions} instructions/app, {} grid points",
        points.len()
    );

    // Group points into slices by everything except the app, preserving
    // report order; each slice renders as one table with apps as rows.
    let mut slices: Vec<(String, Vec<&Value>)> = Vec::new();
    for point in points {
        let key = format!(
            "{} / {} / fault {}",
            field_str(point, "profile")?,
            field_str(point, "prefetcher")?,
            field_str(point, "fault")?,
        );
        match slices.last_mut() {
            Some((k, members)) if *k == key => members.push(point),
            _ => slices.push((key, vec![point])),
        }
    }

    for (key, members) in &slices {
        let _ = writeln!(out, "\n[{key}] speedup over LRU, %");
        let first_rows = members[0]
            .get("rows")
            .and_then(|r| r.as_array())
            .map_err(|e| format!("rows: {e}"))?;
        let mut header = format!("  {:<16}", "app");
        for row in first_rows.iter().skip(1) {
            let _ = write!(header, " {:>11}", field_str(row, "policy")?);
        }
        let _ = writeln!(out, "{header}");
        for point in members {
            let mut line = format!("  {:<16}", field_str(point, "app")?);
            let rows = point
                .get("rows")
                .and_then(|r| r.as_array())
                .map_err(|e| format!("rows: {e}"))?;
            for row in rows.iter().skip(1) {
                let _ = write!(line, " {:>11.2}", field_finite(row, "speedup_pct")?);
            }
            let _ = writeln!(out, "{line}");
        }

        let any_ripple = members.iter().any(|p| {
            p.get("ripple")
                .and_then(|r| r.as_array())
                .map(|r| !r.is_empty())
                .unwrap_or(false)
        });
        if any_ripple {
            let _ = writeln!(
                out,
                "  {:<16} {:>10} {:>9} {:>9} {:>9} {:>9}",
                "ripple", "underlying", "thresh", "speedup%", "cover%", "accur%"
            );
            for point in members {
                let app = field_str(point, "app")?;
                let ripple = point
                    .get("ripple")
                    .and_then(|r| r.as_array())
                    .map_err(|e| format!("ripple: {e}"))?;
                for row in ripple {
                    let best = row.get("best").and_then(|b| b.as_bool()).unwrap_or(false);
                    let _ = writeln!(
                        out,
                        "  {:<16} {:>10} {:>9.2} {:>9.2} {:>9.1} {:>9.1}{}",
                        app,
                        field_str(row, "underlying")?,
                        field_finite(row, "threshold")?,
                        field_finite(row, "speedup_pct")?,
                        field_finite(row, "coverage")? * 100.0,
                        field_finite(row, "accuracy")? * 100.0,
                        if best { "  *best" } else { "" }
                    );
                }
            }
        }
    }
    Ok(out)
}
