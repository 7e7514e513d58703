//! Structured run reports: a [`MetricsSnapshot`] rendered as a stable
//! JSON document (`--metrics <path>` on the CLI, the CI observability
//! artifact).
//!
//! The report is versioned by [`REPORT_SCHEMA`]; [`validate_run_report`]
//! checks a parsed document against the schema and a required-phase list
//! ([`COMPARE_PHASES`] / [`PIPELINE_PHASES`]), which is what the CI job
//! runs against the artifact it uploads.

use ripple_json::{object, Value};
use ripple_obs::{MetricsSnapshot, OwnedValue};

/// Every report schema the workspace emits, in one place: run reports
/// (this module), fleet reports (`ripple-fleet`) and lab reports
/// (`ripple-lab`) all derive their schema strings from here, and
/// `validate-metrics` dispatches on a parsed tag instead of
/// string-matching in each consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaTag {
    /// `ripple.run_report.v1`: wall-time phase breakdown of one
    /// instrumented CLI run.
    Run,
    /// `ripple.fleet_report.v1`: deterministic per-epoch fleet figures.
    Fleet,
    /// `ripple.lab_report.v1`: deterministic experiment-grid figures.
    Lab,
}

impl SchemaTag {
    /// Every known tag, in introduction order.
    pub const ALL: [SchemaTag; 3] = [SchemaTag::Run, SchemaTag::Fleet, SchemaTag::Lab];

    /// The schema string written into (and expected in) a report's
    /// `schema` member.
    pub const fn as_str(self) -> &'static str {
        match self {
            SchemaTag::Run => "ripple.run_report.v1",
            SchemaTag::Fleet => "ripple.fleet_report.v1",
            SchemaTag::Lab => "ripple.lab_report.v1",
        }
    }

    /// Resolves a schema string.
    pub fn parse(tag: &str) -> Option<SchemaTag> {
        SchemaTag::ALL.into_iter().find(|t| t.as_str() == tag)
    }

    /// Reads and resolves a parsed report's `schema` member.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the member is missing,
    /// non-string, or names no known schema (listing the valid ones).
    pub fn of_report(report: &Value) -> Result<SchemaTag, String> {
        let tag = report
            .get("schema")
            .and_then(|s| s.as_str())
            .map_err(|e| format!("schema: {e}"))?;
        SchemaTag::parse(tag).ok_or_else(|| {
            let valid: Vec<&str> = SchemaTag::ALL.iter().map(|t| t.as_str()).collect();
            format!("unknown schema {tag:?} (known: {})", valid.join(" "))
        })
    }
}

/// Schema tag carried by every report this module emits.
pub const REPORT_SCHEMA: &str = SchemaTag::Run.as_str();

/// Note attached to a report whose caller-measured wall clock read zero
/// (a trivial run below the clock's resolution). Shares are emitted as
/// 0.0 instead of NaN/inf, and [`validate_run_report`] accepts the zero
/// wall exactly when this note explains it.
pub const ZERO_WALL_NOTE: &str =
    "wall_ns is zero (run completed below clock resolution); share_pct values emitted as 0.0";

/// Phases a `compare` run (a policy matrix over one [`SimSession`]) must
/// report with nonzero wall time.
///
/// [`SimSession`]: ripple_sim::SimSession
pub const COMPARE_PHASES: &[&str] = &[
    "session.record",
    "session.future_index",
    "session.run",
    "frontend.warmup",
    "frontend.measure",
    "harness.batch",
    "harness.job",
];

/// Phases a full Ripple pipeline run (`optimize` / `sweep`:
/// train + evaluate) must report with nonzero wall time, on top of
/// [`COMPARE_PHASES`]'s session/frontend/harness set.
pub const PIPELINE_PHASES: &[&str] = &[
    "train.oracle_replay",
    "train.cue_selection",
    "eval.plan",
    "eval.final_layout",
    "eval.relink",
    "eval.oracle_replay",
    "eval.window_analysis",
    "eval.patch",
    "eval.sim_runs",
    "eval.accuracy",
    "session.run",
    "frontend.warmup",
    "frontend.measure",
    "harness.batch",
    "harness.job",
];

/// The top-level (mutually disjoint) phases of a `compare` run. A
/// `compare` does all its simulation inside one `policy_matrix` harness
/// batch, so `harness.batch` alone partitions the run's timed work —
/// `harness.job`, `session.*` and `frontend.*` all nest inside it (and
/// `harness.job` aggregates *per-thread* run time, which can legitimately
/// exceed wall clock under parallelism).
pub const COMPARE_TOP_PHASES: &[&str] = &["harness.batch"];

/// The top-level (mutually disjoint) phases of an `optimize` run. Every
/// other reported phase nests inside one of these: `eval.relink` /
/// `eval.oracle_replay` / `eval.window_analysis` /
/// `eval.patch` inside `eval.final_layout`; `harness.batch` ⊃
/// `harness.job` ⊃ `session.run` ⊃ `frontend.*` inside `eval.sim_runs`
/// (and `session.*` inside `train.oracle_replay` for the training pass).
/// Summing *all* phase totals therefore double-counts; shares are
/// computed against a single measured root wall time instead.
pub const PIPELINE_TOP_PHASES: &[&str] = &[
    "train.oracle_replay",
    "train.cue_selection",
    "eval.plan",
    "eval.final_layout",
    "eval.sim_runs",
    "eval.accuracy",
];

/// The top-level (mutually disjoint) phases of a `sweep` run: training,
/// then the shared baseline, then every threshold's evaluation. The
/// thresholds run as parallel harness jobs, so their `eval.*` phases
/// overlap one another and nest inside `sweep.evaluate`.
pub const SWEEP_TOP_PHASES: &[&str] = &[
    "train.oracle_replay",
    "train.cue_selection",
    "sweep.baseline",
    "sweep.evaluate",
];

/// The disjoint top-level phase set for a report's `command` — the
/// phases whose `share_pct` values must sum to at most 100%. Commands
/// without a known phase tree (e.g. `simulate`) get an empty set, which
/// disables the share-sum gate without weakening the other checks.
pub fn top_level_phases(command: &str) -> &'static [&'static str] {
    match command {
        "compare" => COMPARE_TOP_PHASES,
        "optimize" => PIPELINE_TOP_PHASES,
        "sweep" => SWEEP_TOP_PHASES,
        _ => &[],
    }
}

fn owned_to_json(v: &OwnedValue) -> Value {
    match v {
        OwnedValue::U64(x) => {
            if *x <= i64::MAX as u64 {
                Value::Int(*x as i64)
            } else {
                Value::UInt(*x)
            }
        }
        OwnedValue::I64(x) => Value::Int(*x),
        OwnedValue::F64(x) => Value::Float(*x),
        OwnedValue::Str(s) => Value::Str(s.clone()),
        OwnedValue::Bool(b) => Value::Bool(*b),
    }
}

fn u64_json(x: u64) -> Value {
    if x <= i64::MAX as u64 {
        Value::Int(x as i64)
    } else {
        Value::UInt(x)
    }
}

/// Renders a metrics snapshot as a `ripple.run_report.v1` document.
///
/// Layout: `schema` / `command` / `app` / `wall_ns` at the top, then
/// `phases` (name → `{count, total_ns, max_ns, share_pct}`), `counters`
/// (name → value), `gauges` (name → value) and `jobs` — one entry per
/// `harness.job` event, each carrying the batch `scope`, job index,
/// `queue_wait_ns` and `run_ns`. Key order is deterministic: snapshots
/// sort metric names, and events arrive in completion order.
///
/// `wall_ns` is the caller-measured wall time of the whole run — the
/// single root every `share_pct` is computed against. Phases nest
/// (`harness.batch` ⊃ `harness.job`, `eval.sim_runs` ⊃ `session.run`),
/// so dividing by the *sum* of phase totals would double-count every
/// nested level; dividing by the root wall keeps disjoint top-level
/// shares summing to ≤ 100% (see [`top_level_phases`]).
pub fn run_report(command: &str, app: &str, snapshot: &MetricsSnapshot, wall_ns: u64) -> Value {
    let share_of_wall = |total_ns: u64| {
        if wall_ns == 0 {
            0.0
        } else {
            100.0 * total_ns as f64 / wall_ns as f64
        }
    };
    let phases = Value::Object(
        snapshot
            .phases
            .iter()
            .map(|(name, stat)| {
                (
                    name.clone(),
                    object([
                        ("count", u64_json(stat.count)),
                        ("total_ns", u64_json(stat.total_nanos)),
                        ("max_ns", u64_json(stat.max_nanos)),
                        ("share_pct", Value::Float(share_of_wall(stat.total_nanos))),
                    ]),
                )
            })
            .collect(),
    );
    let counters = Value::Object(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), u64_json(*value)))
            .collect(),
    );
    let gauges = Value::Object(
        snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), Value::Float(*value)))
            .collect(),
    );
    let jobs = Value::Array(
        snapshot
            .events_named("harness.job")
            .map(|event| {
                Value::Object(
                    event
                        .fields
                        .iter()
                        .map(|(name, value)| (name.clone(), owned_to_json(value)))
                        .collect(),
                )
            })
            .collect(),
    );
    let mut members = vec![
        ("schema".to_string(), Value::Str(REPORT_SCHEMA.to_string())),
        ("command".to_string(), Value::Str(command.to_string())),
        ("app".to_string(), Value::Str(app.to_string())),
        ("wall_ns".to_string(), u64_json(wall_ns)),
    ];
    if wall_ns == 0 {
        // A zero caller-measured wall (trivial run, coarse clock) must
        // stay self-describing: the guard above already emitted 0.0
        // shares instead of NaN/inf, and this note is what lets the
        // validator accept the degenerate report instead of rejecting it
        // with a confusing "zero wall" error.
        members.push(("note".to_string(), Value::Str(ZERO_WALL_NOTE.to_string())));
    }
    members.extend([
        ("phases".to_string(), phases),
        ("counters".to_string(), counters),
        ("gauges".to_string(), gauges),
        ("jobs".to_string(), jobs),
    ]);
    Value::Object(members)
}

/// Validates a parsed run report: schema tag, a positive root `wall_ns`,
/// every `required_phase` present with a positive count, nonzero total
/// wall time and a `share_pct`, disjoint top-level shares summing to at
/// most 100% (the gate against nested-phase double counting), and every
/// `jobs` entry carrying its per-job timings. Returns the first problem
/// found.
pub fn validate_run_report(report: &Value, required_phases: &[&str]) -> Result<(), String> {
    let schema = report
        .get("schema")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| format!("missing schema: {e}"))?;
    if schema != REPORT_SCHEMA {
        return Err(format!("schema {schema:?}, expected {REPORT_SCHEMA:?}"));
    }
    let wall_ns = report
        .get("wall_ns")
        .and_then(|v| v.as_u64())
        .map_err(|e| format!("missing wall_ns: {e}"))?;
    let zero_wall = wall_ns == 0;
    if zero_wall {
        // A zero wall is legal only when the report says so itself (the
        // explicit note `run_report` attaches): sub-resolution runs stay
        // valid, while a report that silently lost its wall time is still
        // rejected.
        let note = report.get("note").ok().and_then(|v| v.as_str().ok());
        if note != Some(ZERO_WALL_NOTE) {
            return Err(
                "wall_ns is zero without the explicit zero-wall note (corrupt or truncated \
                 report?)"
                    .to_string(),
            );
        }
    }
    let phases = report.get("phases").map_err(|e| e.to_string())?;
    for &name in required_phases {
        let phase = phases
            .get(name)
            .map_err(|_| format!("required phase {name:?} missing"))?;
        let count = phase
            .get("count")
            .and_then(|v| v.as_u64())
            .map_err(|e| format!("phase {name:?}: {e}"))?;
        let total_ns = phase
            .get("total_ns")
            .and_then(|v| v.as_u64())
            .map_err(|e| format!("phase {name:?}: {e}"))?;
        phase
            .get("share_pct")
            .and_then(|v| v.as_f64())
            .map_err(|e| format!("phase {name:?}: {e}"))?;
        if count == 0 {
            return Err(format!("phase {name:?} has zero count"));
        }
        // Under a declared zero root wall, phase totals below the clock's
        // resolution are expected; requiring them nonzero would reject
        // exactly the runs the note exists for.
        if total_ns == 0 && !zero_wall {
            return Err(format!("phase {name:?} has zero wall time"));
        }
    }
    // The double-count gate: the top-level phases of the report's command
    // are disjoint slices of one wall clock, so their shares can never
    // legitimately sum past 100%. A sum beyond that means shares were
    // computed against something smaller than the true root wall (the
    // historical bug: dividing by the sum of *all* phase totals, which
    // counts `harness.job` inside `harness.batch` and `session.run`
    // inside `eval.sim_runs` twice). Absent top-level phases contribute
    // nothing: the gate is one-sided by design.
    let command = report
        .get("command")
        .ok()
        .and_then(|v| v.as_str().ok())
        .unwrap_or("");
    let mut top_share_sum = 0.0f64;
    for &name in top_level_phases(command) {
        if let Ok(phase) = phases.get(name) {
            let share = phase
                .get("share_pct")
                .and_then(|v| v.as_f64())
                .map_err(|e| format!("phase {name:?}: {e}"))?;
            top_share_sum += share;
        }
    }
    if top_share_sum > 100.0 + 1e-6 {
        return Err(format!(
            "top-level phase shares sum to {top_share_sum:.1}% (> 100%): \
             share_pct was not computed against a single root wall time"
        ));
    }
    let jobs = report
        .get("jobs")
        .and_then(|v| v.as_array().map(<[Value]>::to_vec))
        .map_err(|e| format!("missing jobs: {e}"))?;
    for (i, job) in jobs.iter().enumerate() {
        for key in ["scope", "job", "queue_wait_ns", "run_ns"] {
            if job.get(key).is_err() {
                return Err(format!("job entry {i} lacks {key:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_obs::{FieldValue, MetricsRecorder, Recorder};

    fn sample_snapshot() -> MetricsSnapshot {
        let m = MetricsRecorder::new();
        for name in COMPARE_PHASES {
            m.phase(name, 1_000);
        }
        m.add("session.runs", 9);
        m.gauge("threads", 4.0);
        m.event(
            "harness.job",
            &[
                ("scope", FieldValue::Str("policy_matrix")),
                ("job", FieldValue::U64(0)),
                ("queue_wait_ns", FieldValue::U64(12)),
                ("run_ns", FieldValue::U64(990)),
            ],
        );
        m.snapshot()
    }

    #[test]
    fn report_round_trips_through_ripple_json_and_validates() {
        let report = run_report("compare", "tomcat", &sample_snapshot(), 10_000);
        let text = report.to_pretty_string();
        let parsed = ripple_json::parse(&text).expect("report must parse");
        assert_eq!(parsed, report);
        validate_run_report(&parsed, COMPARE_PHASES).expect("sample must validate");
        assert_eq!(parsed.get("command").unwrap().as_str().unwrap(), "compare");
        assert_eq!(parsed.get("wall_ns").unwrap().as_u64().unwrap(), 10_000);
        let jobs = parsed.get("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].get("queue_wait_ns").unwrap().as_u64().unwrap(), 12);
    }

    #[test]
    fn shares_are_computed_against_the_root_wall_not_the_phase_sum() {
        // Seven phases of 1,000 ns each against a 10,000 ns root wall:
        // every share is 10%, even though the summed phase time (7,000 ns)
        // would have inflated each slice to ~14.3% under the old
        // sum-of-totals denominator.
        let report = run_report("compare", "tomcat", &sample_snapshot(), 10_000);
        let phases = report.get("phases").unwrap();
        for name in COMPARE_PHASES {
            let share = phases
                .get(name)
                .unwrap()
                .get("share_pct")
                .unwrap()
                .as_f64()
                .unwrap();
            assert!((share - 10.0).abs() < 1e-9, "{name}: {share}");
        }
    }

    #[test]
    fn validation_rejects_top_level_shares_past_100_pct() {
        // A wall shorter than the (single) top-level phase is exactly
        // what a wrong denominator produces: harness.batch at 1,000 ns
        // against a claimed 800 ns root wall is a 125% share.
        let report = run_report("compare", "tomcat", &sample_snapshot(), 800);
        let err = validate_run_report(&report, COMPARE_PHASES).unwrap_err();
        assert!(err.contains("> 100%"), "{err}");

        // Pipeline command: the seven disjoint train/eval slices at
        // 1,000 ns each overflow a 5,000 ns wall (140% summed) even
        // though each individual share is well under 100%.
        let m = MetricsRecorder::new();
        for name in PIPELINE_TOP_PHASES {
            m.phase(name, 1_000);
        }
        let report = run_report("optimize", "tomcat", &m.snapshot(), 5_000);
        let err = validate_run_report(&report, &[]).unwrap_err();
        assert!(err.contains("> 100%"), "{err}");
        // The same snapshot against an honest root wall passes.
        let report = run_report("optimize", "tomcat", &m.snapshot(), 7_000);
        validate_run_report(&report, &[]).expect("honest wall must validate");
    }

    #[test]
    fn zero_wall_report_carries_note_and_validates() {
        // Regression: a sub-resolution run used to produce a report the
        // validator rejected with a bare "wall_ns is zero". The report now
        // explains itself (explicit note, 0.0 shares) and validates.
        let report = run_report("compare", "tomcat", &sample_snapshot(), 0);
        assert_eq!(
            report.get("note").unwrap().as_str().unwrap(),
            ZERO_WALL_NOTE
        );
        let phases = report.get("phases").unwrap();
        for name in COMPARE_PHASES {
            let share = phases
                .get(name)
                .unwrap()
                .get("share_pct")
                .unwrap()
                .as_f64()
                .unwrap();
            assert_eq!(share, 0.0, "{name}: zero wall must yield 0.0 shares");
        }
        validate_run_report(&report, COMPARE_PHASES)
            .expect("zero-wall report with the explicit note must validate");
        // Nonzero-wall reports carry no note.
        let normal = run_report("compare", "tomcat", &sample_snapshot(), 10_000);
        assert!(normal.get("note").is_err());
    }

    #[test]
    fn validation_rejects_missing_wall_and_unexplained_zero_wall() {
        // A zero wall *without* the note (hand-edited / truncated report)
        // is still rejected.
        let mut report = run_report("compare", "tomcat", &sample_snapshot(), 0);
        if let Value::Object(members) = &mut report {
            members.retain(|(k, _)| k != "note");
        }
        let err = validate_run_report(&report, COMPARE_PHASES).unwrap_err();
        assert!(err.contains("zero-wall note"), "{err}");

        let mut report = run_report("compare", "tomcat", &sample_snapshot(), 10_000);
        if let Value::Object(members) = &mut report {
            members.retain(|(k, _)| k != "wall_ns");
        }
        let err = validate_run_report(&report, COMPARE_PHASES).unwrap_err();
        assert!(err.contains("wall_ns"), "{err}");
    }

    #[test]
    fn validation_rejects_missing_and_zero_phases() {
        let mut snapshot = sample_snapshot();
        snapshot.phases.retain(|(name, _)| name != "session.record");
        let report = run_report("compare", "tomcat", &snapshot, 10_000);
        let err = validate_run_report(&report, COMPARE_PHASES).unwrap_err();
        assert!(err.contains("session.record"), "{err}");

        let m = MetricsRecorder::new();
        for name in COMPARE_PHASES {
            m.phase(name, 0);
        }
        let report = run_report("compare", "tomcat", &m.snapshot(), 10_000);
        let err = validate_run_report(&report, COMPARE_PHASES).unwrap_err();
        assert!(err.contains("zero wall time"), "{err}");
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        let report = object([("schema", Value::Str("bogus.v0".into()))]);
        assert!(validate_run_report(&report, &[]).is_err());
    }

    #[test]
    fn top_level_sets_are_subsets_of_the_required_sets() {
        for name in COMPARE_TOP_PHASES {
            assert!(COMPARE_PHASES.contains(name), "{name}");
        }
        for name in PIPELINE_TOP_PHASES {
            assert!(PIPELINE_PHASES.contains(name), "{name}");
        }
        assert_eq!(top_level_phases("compare"), COMPARE_TOP_PHASES);
        assert_eq!(top_level_phases("optimize"), PIPELINE_TOP_PHASES);
        assert_eq!(top_level_phases("sweep"), SWEEP_TOP_PHASES);
        assert!(top_level_phases("simulate").is_empty());
    }

    #[test]
    fn job_entries_must_carry_timings() {
        let m = MetricsRecorder::new();
        for name in COMPARE_PHASES {
            m.phase(name, 5);
        }
        m.event("harness.job", &[("scope", FieldValue::Str("x"))]);
        let report = run_report("compare", "t", &m.snapshot(), 10_000);
        let err = validate_run_report(&report, COMPARE_PHASES).unwrap_err();
        assert!(err.contains("job"), "{err}");
    }
}
