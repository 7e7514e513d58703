//! Subcommand implementations.

use std::error::Error;
use std::fs;
use std::sync::{Arc, Mutex};

use ripple::{
    best_threshold, collect_profile, effective_threads, policy_matrix_all, profile_temperatures,
    run_report, sweep, validate_run_report, Ripple, RippleConfig, SchemaTag, COMPARE_PHASES,
    PIPELINE_PHASES,
};
use ripple_fleet::{run_fleet, validate_fleet_report, FleetConfig, FLEET_PHASES};
use ripple_json::{ToJson, Value};
use ripple_lab::{validate_lab_report, Experiment, LabOptions, LAB_PHASES};
use ripple_obs::{Field, FieldValue, MetricsRecorder, NullRecorder, Recorder, TeeRecorder};
use ripple_program::{Layout, LayoutConfig};
use ripple_sim::{PolicyKind, PolicyRegistry, PrefetcherKind, SimConfig, SimSession};
use ripple_trace::DecodeOptions;
use ripple_workloads::{generate, App, Application, InputConfig};

use crate::args::{ArgError, Args, CommonRunArgs};

/// Top-level usage text; the policy list is derived from the registry so
/// a newly registered policy shows up with zero CLI edits.
pub fn usage() -> String {
    let policies: Vec<&str> = PolicyRegistry::global().names().collect();
    format!(
        "\
usage:
  ripple-cli apps
  ripple-cli policies                              # list registered replacement policies
  ripple-cli spec     <app> [--out FILE]           # export a workload spec as JSON
  ripple-cli plan     <app> [--threshold T] [--prefetcher P] [--out FILE]
  ripple-cli profile  <app> [--instructions N] [--input K] [--sync N] [--out FILE]
  ripple-cli inspect  <FILE> --app <app>
  ripple-cli simulate <app> [--policy P] [--prefetcher P] [--instructions N]
                            [--trace FILE] [--lossy] [--max-drop-ratio R]
                            [RUN-FLAGS]
  ripple-cli compare  <app> [--prefetcher P] [--instructions N] [RUN-FLAGS]
  ripple-cli optimize <app> [--threshold T] [--prefetcher P] [--underlying P] [--instructions N] [RUN-FLAGS]
  ripple-cli sweep    <app> [--prefetcher P] [--instructions N] [RUN-FLAGS]
  ripple-cli fleet    [--instances N] [--epochs N] [--canary-pct P]
                      [--shard-instructions N] [--drift-epoch E] [--gate-pct P]
                      [--poison-instance I] [RUN-FLAGS]
  ripple-cli lab      list
  ripple-cli lab      describe <experiment>
  ripple-cli lab      run <experiment> [--instructions N] [--out FILE] [RUN-FLAGS]
  ripple-cli faults   [--cases N] [--seed S]
  ripple-cli validate-metrics <FILE> [--phases compare|pipeline|fleet|lab]

apps: cassandra drupal finagle-chirper finagle-http kafka mediawiki tomcat verilator wordpress
policies: {}
prefetchers: none nlp fdip
RUN-FLAGS is the shared run-control cluster, accepted uniformly:
  [--threads N] [--metrics FILE] [--progress] [--seed S]
--threads 0 (or omitting the flag) auto-detects the machine's available
parallelism; results are identical at any thread count
--seed S overrides the command's deterministic seed: the training-input
seed for simulate/compare/optimize/sweep (default: the app spec's own),
the service seed for fleet, the fault-injector seed for lab
--metrics FILE dumps a ripple.run_report.v1 JSON document (phase timings,
counters, per-job harness timings); --progress prints live k/n
job-completion lines to stderr
simulate --trace FILE replays a recorded packet stream (see `profile
--out`) instead of re-executing; --lossy skips unrecoverable packet spans
(counted as trace.dropped_packets / trace.resync_events) as long as the
dropped-byte fraction stays within --max-drop-ratio (default 1.0)
fleet runs the continuous profiling service: N instances emit trace
shards each epoch, profiles aggregate per service, plans train through a
drift-invalidated artifact cache and canary-roll behind an MPKI gate;
--metrics dumps a deterministic ripple.fleet_report.v1 (byte-identical
at any --threads, validated by validate-metrics)
lab runs a declarative experiment: a JSON grid declaration (a built-in
name from `lab list`, or a path to a declaration file) expanded over
apps x target profiles x prefetchers x policies x thresholds x fault
modes and executed on the shared harness; tables print
to stdout, --metrics dumps the deterministic ripple.lab_report.v1
(byte-identical at any --threads), --out saves the rendered tables

exit codes: 0 success, 1 runtime/io error, 2 usage or invalid
configuration, 3 corrupt trace, 4 isolated evaluation-job panic",
        policies.join(" ")
    )
}

type CmdResult = Result<(), Box<dyn Error>>;

/// Dispatches `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let Some(cmd) = argv.first() else {
        return Err(Box::new(ArgError("missing subcommand".into())));
    };
    let rest = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "apps" => apps(&rest),
        "policies" => policies_cmd(&rest),
        "spec" => spec_cmd(&rest),
        "plan" => plan_cmd(&rest),
        "profile" => profile(&rest),
        "inspect" => inspect(&rest),
        "simulate" => simulate_cmd(&rest),
        "compare" => compare(&rest),
        "optimize" => optimize(&rest),
        "sweep" => sweep_cmd(&rest),
        "fleet" => fleet_cmd(&rest),
        "lab" => lab_cmd(&rest),
        "faults" => faults_cmd(&rest),
        "validate-metrics" => validate_metrics(&rest),
        other => Err(Box::new(ArgError(format!("unknown subcommand {other:?}")))),
    }
}

fn find_app(name: &str) -> Result<App, ArgError> {
    App::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| {
            let valid: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
            ArgError(format!(
                "unknown application {name:?} (valid values: {})",
                valid.join(" ")
            ))
        })
}

fn parse_app(args: &Args) -> Result<App, ArgError> {
    let name = args
        .positional(0)
        .ok_or_else(|| ArgError("missing <app> argument".into()))?;
    find_app(name)
}

fn parse_prefetcher(args: &Args) -> Result<PrefetcherKind, ArgError> {
    match args.flag("prefetcher").unwrap_or("none") {
        "none" | "no-prefetch" => Ok(PrefetcherKind::None),
        "nlp" | "next-line" => Ok(PrefetcherKind::NextLine),
        "fdip" => Ok(PrefetcherKind::Fdip),
        other => Err(ArgError(format!(
            "unknown prefetcher {other:?} (valid values: none nlp fdip)"
        ))),
    }
}

fn parse_policy(name: &str) -> Result<PolicyKind, ArgError> {
    // Name/alias resolution lives in the registry; the CLI only renders
    // the error with the registered names.
    PolicyKind::parse(name).ok_or_else(|| {
        let valid: Vec<&str> = PolicyRegistry::global().names().collect();
        ArgError(format!(
            "unknown policy {name:?} (valid values: {})",
            valid.join(" ")
        ))
    })
}

/// The training input a simulation command profiles: the app spec's own
/// seed unless the shared `--seed` flag overrides it.
fn training_input(app_id: App, common: &CommonRunArgs) -> InputConfig {
    InputConfig::training(common.seed.unwrap_or(app_id.spec().seed))
}

/// Parses `--threshold T`, rejecting values outside the probability range
/// the analysis thresholds over.
fn parse_threshold(args: &Args, default: f64) -> Result<f64, ArgError> {
    let t = args.parse_flag("threshold", default)?;
    if !t.is_finite() || !(0.0..=1.0).contains(&t) {
        return Err(ArgError(format!(
            "--threshold: {t} is out of range (must be within 0.0..=1.0)"
        )));
    }
    Ok(t)
}

/// Live progress printer: one `k/n jobs done (slowest: …)` line per
/// completed harness job, on stderr so it never mixes with the result
/// tables.
#[derive(Debug, Default)]
struct ProgressRecorder {
    state: Mutex<ProgressState>,
}

#[derive(Debug, Default)]
struct ProgressState {
    scope: String,
    total: u64,
    done: u64,
    slowest: Option<(u64, u64)>, // (job index, run_ns)
}

fn field_u64(fields: &[Field<'_>], name: &str) -> Option<u64> {
    fields.iter().find_map(|&(n, v)| match v {
        FieldValue::U64(x) if n == name => Some(x),
        _ => None,
    })
}

fn field_str<'a>(fields: &[Field<'a>], name: &str) -> Option<&'a str> {
    fields.iter().find_map(|&(n, v)| match v {
        FieldValue::Str(s) if n == name => Some(s),
        _ => None,
    })
}

impl Recorder for ProgressRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, name: &str, fields: &[Field<'_>]) {
        let mut state = self.state.lock().expect("progress state poisoned");
        match name {
            "harness.batch" => {
                state.scope = field_str(fields, "scope").unwrap_or("?").to_string();
                state.total = field_u64(fields, "jobs").unwrap_or(0);
                state.done = 0;
                state.slowest = None;
            }
            "harness.job" => {
                state.done += 1;
                let job = field_u64(fields, "job").unwrap_or(0);
                let run_ns = field_u64(fields, "run_ns").unwrap_or(0);
                if state.slowest.is_none_or(|(_, worst)| run_ns > worst) {
                    state.slowest = Some((job, run_ns));
                }
                let (slow_job, slow_ns) = state.slowest.unwrap_or((job, run_ns));
                eprintln!(
                    "  {}/{} jobs done (slowest: {}#{} {:.1}ms)",
                    state.done,
                    state.total.max(state.done),
                    state.scope,
                    slow_job,
                    slow_ns as f64 / 1e6
                );
            }
            _ => {}
        }
    }
}

/// Builds the recorder requested by `--metrics` / `--progress`. Returns
/// the recorder to attach plus the metrics aggregator (when a report file
/// was requested) for [`write_metrics`] to snapshot afterwards.
fn build_recorder(common: &CommonRunArgs) -> (Arc<dyn Recorder>, Option<Arc<MetricsRecorder>>) {
    let metrics = common
        .metrics
        .as_deref()
        .map(|_| Arc::new(MetricsRecorder::new()));
    let progress = common.progress;
    match (metrics, progress) {
        (None, false) => (Arc::new(NullRecorder), None),
        (Some(m), false) => (m.clone(), Some(m)),
        (None, true) => (Arc::new(ProgressRecorder::default()), None),
        (Some(m), true) => {
            let tee = TeeRecorder::new()
                .with(m.clone())
                .with(Arc::new(ProgressRecorder::default()));
            (Arc::new(tee), Some(m))
        }
    }
}

/// Dumps the run report to the `--metrics` path, if one was requested.
/// `wall` is the clock started before the command's first timed work —
/// the single root every phase's `share_pct` is computed against (phases
/// nest, so shares against a phase-total sum would double-count).
fn write_metrics(
    common: &CommonRunArgs,
    command: &str,
    app: &str,
    metrics: Option<Arc<MetricsRecorder>>,
    wall: std::time::Instant,
) -> CmdResult {
    if let (Some(path), Some(m)) = (common.metrics.as_deref(), metrics) {
        let wall_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let report = run_report(command, app, &m.snapshot(), wall_ns);
        fs::write(path, report.to_pretty_string())?;
        println!("metrics written to {path}");
    }
    Ok(())
}

/// A metrics report that failed validation. It exits with the usage code,
/// but the command line was fine, so the usage text is not printed.
#[derive(Debug)]
pub struct InvalidReport(pub String);

impl std::fmt::Display for InvalidReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for InvalidReport {}

/// Validates a `--metrics` dump: parses it with ripple-json, dispatches
/// on the document's `schema` tag (run reports vs fleet reports), and
/// checks the required phase set (inferred from the report's `command`
/// unless `--phases` overrides it). This is the CI gate for the
/// observability artifacts.
fn validate_metrics(args: &Args) -> CmdResult {
    args.expect_flags(&["phases"])?;
    let path = args
        .positional(0)
        .ok_or_else(|| ArgError("missing <FILE> argument".into()))?;
    // Reject a bad --phases value before touching the file, so the flag
    // error is never masked by a missing artifact. Each phase set names
    // the schema it belongs to; with no override the document's own
    // schema tag picks the validator.
    let explicit = args.flag("phases");
    let forced = match explicit {
        None => None,
        Some("compare" | "pipeline") => Some(SchemaTag::Run),
        Some("fleet") => Some(SchemaTag::Fleet),
        Some("lab") => Some(SchemaTag::Lab),
        Some(other) => {
            return Err(Box::new(ArgError(format!(
                "unknown phase set {other:?} (valid values: compare pipeline fleet lab)"
            ))))
        }
    };
    let text = fs::read_to_string(path)?;
    let report = ripple_json::parse(&text)
        .map_err(|e| InvalidReport(format!("{path}: not valid JSON: {e}")))?;
    let tag = match forced {
        Some(tag) => tag,
        None => SchemaTag::of_report(&report).map_err(|e| InvalidReport(format!("{path}: {e}")))?,
    };
    match tag {
        SchemaTag::Fleet => {
            validate_fleet_report(&report).map_err(|e| InvalidReport(format!("{path}: {e}")))?;
            println!(
                "{path}: valid {} report, all {} fleet phases present",
                SchemaTag::Fleet.as_str(),
                FLEET_PHASES.len()
            );
        }
        SchemaTag::Lab => {
            validate_lab_report(&report).map_err(|e| InvalidReport(format!("{path}: {e}")))?;
            println!(
                "{path}: valid {} report, all {} lab phases present",
                SchemaTag::Lab.as_str(),
                LAB_PHASES.len()
            );
        }
        SchemaTag::Run => {
            let required: &[&str] = match explicit {
                Some("compare") => COMPARE_PHASES,
                Some("pipeline") => PIPELINE_PHASES,
                _ => match report.get("command").ok().and_then(|v| v.as_str().ok()) {
                    Some("compare") => COMPARE_PHASES,
                    _ => PIPELINE_PHASES,
                },
            };
            validate_run_report(&report, required)
                .map_err(|e| InvalidReport(format!("{path}: {e}")))?;
            println!(
                "{path}: valid {} report, all {} required phases timed",
                SchemaTag::Run.as_str(),
                required.len()
            );
        }
    }
    Ok(())
}

/// Runs the fleet-scale continuous profiling service and prints the
/// per-epoch outcome table. `--metrics` dumps the deterministic
/// `ripple.fleet_report.v1` document (the fleet's own schema — unlike
/// the other subcommands this is not a wall-time run report, so it is
/// byte-identical at any `--threads`).
fn fleet_cmd(args: &Args) -> CmdResult {
    args.expect_flags(&CommonRunArgs::allowed(&[
        "instances",
        "epochs",
        "canary-pct",
        "shard-instructions",
        "drift-epoch",
        "gate-pct",
        "poison-instance",
    ]))?;
    let common = CommonRunArgs::extract(args)?;
    let defaults = FleetConfig::default();
    let parse_opt = |name: &str| -> Result<Option<u32>, ArgError> {
        match args.flag(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<u32>()
                .map(Some)
                .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}"))),
        }
    };
    let config = FleetConfig {
        instances: args.parse_flag("instances", defaults.instances)?,
        epochs: args.parse_flag("epochs", defaults.epochs)?,
        canary_pct: args.parse_flag("canary-pct", defaults.canary_pct)?,
        seed: common.seed.unwrap_or(defaults.seed),
        threads: common.threads,
        shard_instructions: args.parse_flag("shard-instructions", defaults.shard_instructions)?,
        drift_epoch: parse_opt("drift-epoch")?,
        regression_gate_pct: args.parse_flag("gate-pct", defaults.regression_gate_pct)?,
        poison_instance: parse_opt("poison-instance")?.map(|p| p as usize),
    };
    let recorder: Arc<dyn Recorder> = if common.progress {
        Arc::new(ProgressRecorder::default())
    } else {
        Arc::new(NullRecorder)
    };
    let report = run_fleet(&config, recorder)?;
    print_fleet_table(&report);
    if let Some(path) = common.metrics.as_deref() {
        fs::write(path, report.to_pretty_string())?;
        println!("metrics written to {path}");
    }
    Ok(())
}

/// The `lab` subcommand family: `list` the built-in experiment
/// declarations, `describe` one's axes and grid size, or `run` one (a
/// built-in name, or a path to a declaration JSON file) on the shared
/// harness. Like `fleet`, `--metrics` dumps the command's own
/// deterministic schema (`ripple.lab_report.v1`), byte-identical at any
/// `--threads`.
fn lab_cmd(args: &Args) -> CmdResult {
    let action = args
        .positional(0)
        .ok_or_else(|| ArgError("missing lab action (list, describe or run)".into()))?;
    match action {
        "list" => lab_list(args),
        "describe" => lab_describe(args),
        "run" => lab_run(args),
        other => Err(Box::new(ArgError(format!(
            "unknown lab action {other:?} (valid values: list describe run)"
        )))),
    }
}

/// Loads an experiment declaration: a built-in name, or (when the
/// argument names an existing file) a declaration JSON file on disk.
fn load_experiment(name: &str) -> Result<Experiment, Box<dyn Error>> {
    if std::path::Path::new(name).is_file() {
        let text = fs::read_to_string(name)?;
        return Ok(Experiment::parse(&text).map_err(|e| ArgError(format!("{name}: {e}")))?);
    }
    Ok(ripple_lab::builtin(name)?)
}

fn lab_list(args: &Args) -> CmdResult {
    args.expect_flags(&[])?;
    println!(
        "{:<20} {:>7} {:>10}  description",
        "experiment", "points", "runs/point"
    );
    for (name, _) in ripple_lab::BUILTIN_EXPERIMENTS {
        let resolved = ripple_lab::builtin(name)?.resolve()?;
        println!(
            "{:<20} {:>7} {:>10}  {}",
            name,
            resolved.num_points(),
            resolved.runs_per_point(),
            resolved.description
        );
    }
    Ok(())
}

fn lab_describe(args: &Args) -> CmdResult {
    args.expect_flags(&[])?;
    let name = args
        .positional(1)
        .ok_or_else(|| ArgError("missing <experiment> argument".into()))?;
    let resolved = load_experiment(name)?.resolve()?;
    println!("{}: {}", resolved.name, resolved.description);
    println!("  instructions/app  {}", resolved.instructions);
    let names = |v: Vec<String>| {
        if v.is_empty() {
            "-".into()
        } else {
            v.join(" ")
        }
    };
    println!(
        "  profiles          {}",
        names(
            resolved
                .profiles
                .iter()
                .map(|p| p.name.to_string())
                .collect()
        )
    );
    println!(
        "  apps              {}",
        names(resolved.apps.iter().map(|a| a.name().to_string()).collect())
    );
    println!(
        "  prefetchers       {}",
        names(
            resolved
                .prefetchers
                .iter()
                .map(|p| p.name().to_string())
                .collect()
        )
    );
    println!(
        "  policies          {}",
        names(
            resolved
                .policies
                .iter()
                .map(|p| p.name().to_string())
                .collect()
        )
    );
    println!(
        "  ripple underlying {}",
        names(
            resolved
                .ripple_underlying
                .iter()
                .map(|p| p.name().to_string())
                .collect()
        )
    );
    println!(
        "  thresholds        {}",
        names(resolved.thresholds.iter().map(|t| format!("{t}")).collect())
    );
    println!(
        "  fault modes       {}",
        names(
            resolved
                .fault_modes
                .iter()
                .map(|m| m.name().to_string())
                .collect()
        )
    );
    println!(
        "  grid              {} points x {} runs/point",
        resolved.num_points(),
        resolved.runs_per_point()
    );
    Ok(())
}

fn lab_run(args: &Args) -> CmdResult {
    args.expect_flags(&CommonRunArgs::allowed(&["instructions", "out"]))?;
    let common = CommonRunArgs::extract(args)?;
    let name = args
        .positional(1)
        .ok_or_else(|| ArgError("missing <experiment> argument".into()))?;
    let resolved = load_experiment(name)?.resolve()?;
    let instructions = match args.flag("instructions") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| ArgError(format!("--instructions: cannot parse {v:?}")))?,
        ),
    };
    let recorder: Arc<dyn Recorder> = if common.progress {
        Arc::new(ProgressRecorder::default())
    } else {
        Arc::new(NullRecorder)
    };
    let options = LabOptions {
        threads: common.threads,
        recorder,
        instructions,
        seed: common.seed.unwrap_or(0),
    };
    let run = ripple_lab::run_experiment(&resolved, &options)?;
    // The emitted document must always satisfy its own validator — a
    // failure here is a lab bug, not a user error.
    validate_lab_report(&run.report).map_err(|e| ArgError(format!("internal: {e}")))?;
    let tables =
        ripple_lab::render_tables(&run.report).map_err(|e| ArgError(format!("internal: {e}")))?;
    print!("{tables}");
    if let Some(path) = args.flag("out") {
        fs::write(path, &tables)?;
        println!("tables written to {path}");
    }
    if let Some(path) = common.metrics.as_deref() {
        fs::write(path, run.report.to_pretty_string())?;
        println!("metrics written to {path}");
    }
    Ok(())
}

fn print_fleet_table(report: &Value) {
    let get_u = |v: &Value, k: &str| v.get(k).ok().and_then(|x| x.as_u64().ok()).unwrap_or(0);
    let get_f = |v: &Value, k: &str| v.get(k).ok().and_then(|x| x.as_f64().ok()).unwrap_or(0.0);
    println!(
        "fleet: {} instances over {} services, {} epochs, canary {}%, seed {}",
        get_u(report, "instances"),
        get_u(report, "services"),
        get_u(report, "epochs"),
        get_u(report, "canary_pct"),
        get_u(report, "seed"),
    );
    println!(
        "{:<5} {:<5} {:>10} {:>13} {:>13} {:>10} {:>7}  decisions",
        "epoch", "drift", "fleet-mpki", "baseline-mpki", "canary-delta%", "cache-hit%", "shards"
    );
    let entries = report
        .get("epoch_reports")
        .ok()
        .and_then(|e| e.as_array().ok())
        .unwrap_or(&[]);
    for entry in entries {
        let canary = entry.get("canary").ok();
        let cache = entry.get("artifact_cache").ok();
        let health = entry.get("shard_health").ok();
        let decisions = canary
            .and_then(|c| c.get("decisions").ok())
            .and_then(|d| d.as_array().ok())
            .map(|ds| {
                ds.iter()
                    .filter_map(|d| d.as_str().ok())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        let drift = entry
            .get("drift")
            .ok()
            .and_then(|d| d.as_bool().ok())
            .unwrap_or(false);
        let (ok_shards, failed) = health
            .map(|h| (get_u(h, "shards_ok"), get_u(h, "shards_failed")))
            .unwrap_or((0, 0));
        println!(
            "{:<5} {:<5} {:>10.3} {:>13.3} {:>13.2} {:>10.1} {:>7}  {}",
            get_u(entry, "epoch"),
            if drift { "yes" } else { "-" },
            get_f(entry, "fleet_mpki"),
            get_f(entry, "baseline_mpki"),
            canary.map(|c| get_f(c, "delta_pct")).unwrap_or(0.0),
            cache.map(|c| get_f(c, "hit_rate") * 100.0).unwrap_or(0.0),
            format!("{}/{}", ok_shards, ok_shards + failed),
            decisions
        );
    }
}

fn load(
    app_id: App,
    input: InputConfig,
    budget: u64,
) -> Result<(Application, Layout, ripple_trace::BbTrace), Box<dyn Error>> {
    let app = generate(&app_id.spec());
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let profile = collect_profile(&app, &layout, input, budget)?;
    Ok((app, layout, profile.trace))
}

/// Lists every registered replacement policy straight from the registry —
/// the README's policy table is regenerated from this output.
fn policies_cmd(args: &Args) -> CmdResult {
    args.expect_flags(&[])?;
    println!(
        "{:<12} {:<8} {:<17} {:<7} description",
        "policy", "aliases", "family", "future"
    );
    for id in PolicyRegistry::global().all() {
        let d = id.descriptor();
        let aliases = if d.aliases.is_empty() {
            "-".to_string()
        } else {
            d.aliases.join(",")
        };
        println!(
            "{:<12} {:<8} {:<17} {:<7} {}",
            d.name,
            aliases,
            d.family.name(),
            if d.needs_future_index { "yes" } else { "no" },
            d.description
        );
    }
    Ok(())
}

fn apps(args: &Args) -> CmdResult {
    args.expect_flags(&[])?;
    println!(
        "{:<16} {:>9} {:>8} {:>10} {:>5}",
        "app", "functions", "blocks", "text(KiB)", "jit"
    );
    for app_id in App::ALL {
        let app = generate(&app_id.spec());
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        println!(
            "{:<16} {:>9} {:>8} {:>10} {:>5}",
            app_id.name(),
            app.program.num_functions(),
            app.program.num_blocks(),
            layout.code_bytes() / 1024,
            if app_id.has_jit() { "yes" } else { "no" }
        );
    }
    Ok(())
}

/// Exports an application's workload specification as editable JSON —
/// the starting point for modelling a custom application.
fn spec_cmd(args: &Args) -> CmdResult {
    args.expect_flags(&["out"])?;
    let app_id = parse_app(args)?;
    let json = app_id.spec().to_json().to_pretty_string();
    match args.flag("out") {
        Some(path) => {
            fs::write(path, &json)?;
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Computes and exports an injection plan (the "link-time artifact"): the
/// list of (cue block, victim code location) pairs as JSON.
fn plan_cmd(args: &Args) -> CmdResult {
    args.expect_flags(&["threshold", "prefetcher", "instructions", "out"])?;
    let app_id = parse_app(args)?;
    let budget = args.parse_flag("instructions", 600_000u64)?;
    let threshold = parse_threshold(args, 0.55)?;
    let prefetcher = parse_prefetcher(args)?;
    let (app, layout, trace) = load(app_id, InputConfig::training(app_id.spec().seed), budget)?;
    let config = RippleConfig::builder()
        .threshold(threshold)
        .sim(
            SimConfig::builder()
                .prefetcher(prefetcher)
                .build()
                .map_err(ripple::Error::from)?,
        )
        .build()
        .map_err(ripple::Error::from)?;
    let ripple = Ripple::train(&app.program, &layout, &trace, config)?;
    let (plan, cov) = ripple.plan()?;
    println!(
        "{app_id}: {} injections covering {}/{} windows ({:.1}%)",
        plan.len(),
        cov.covered_windows,
        cov.total_windows,
        cov.coverage() * 100.0
    );
    if let Some(path) = args.flag("out") {
        fs::write(path, plan.to_json().to_pretty_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn profile(args: &Args) -> CmdResult {
    args.expect_flags(&["instructions", "input", "out", "sync"])?;
    let app_id = parse_app(args)?;
    let budget = args.parse_flag("instructions", 400_000u64)?;
    let input_id = args.parse_flag("input", 0u32)?;
    let sync_interval = args.parse_flag("sync", 0u64)?;
    let spec = app_id.spec();
    let app = generate(&spec);
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let input = InputConfig::numbered(input_id, spec.seed);

    let executed = ripple_workloads::execute(&app.program, &app.model, input, budget);
    let bytes = if sync_interval == 0 {
        ripple_trace::record_trace(&app.program, &layout, executed.iter())
    } else {
        // Periodic PSB checkpoints: slightly larger stream, but a lossy
        // replay can resynchronize mid-stream instead of dropping the
        // whole tail after a corrupt span.
        ripple_trace::record_trace_with_sync(&app.program, &layout, executed.iter(), sync_interval)
    };
    println!("profiled {app_id} input#{input_id}");
    println!("  executed blocks  {}", executed.len());
    println!(
        "  instructions     {}",
        executed.dynamic_instruction_count(&app.program)
    );
    // Guard the per-block rate: an empty trace (zero-instruction budget)
    // must not print NaN.
    let bytes_per_block = if executed.is_empty() {
        0.0
    } else {
        bytes.len() as f64 / executed.len() as f64
    };
    println!(
        "  packet bytes     {} ({bytes_per_block:.3} B/block)",
        bytes.len()
    );
    if let Some(path) = args.flag("out") {
        fs::write(path, &bytes)?;
        println!("  written to       {path}");
    }
    Ok(())
}

fn inspect(args: &Args) -> CmdResult {
    args.expect_flags(&["app"])?;
    let path = args
        .positional(0)
        .ok_or_else(|| ArgError("missing <FILE> argument".into()))?;
    let name = args.flag("app").ok_or_else(|| {
        ArgError("--app is required (traces are decoded against the app's CFG)".into())
    })?;
    let app_id = find_app(name)?;
    let app = generate(&app_id.spec());
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let bytes = fs::read(path)?;
    let trace = ripple_trace::reconstruct_trace(&app.program, &layout, &bytes)?;
    println!("decoded {path} against {app_id}");
    println!("  blocks            {}", trace.len());
    println!("  unique blocks     {}", trace.unique_blocks());
    println!(
        "  instructions      {}",
        trace.dynamic_instruction_count(&app.program)
    );
    println!("  footprint lines   {}", trace.footprint_lines(&layout));
    Ok(())
}

fn simulate_cmd(args: &Args) -> CmdResult {
    args.expect_flags(&CommonRunArgs::allowed(&[
        "policy",
        "prefetcher",
        "instructions",
        "trace",
        "lossy",
        "max-drop-ratio",
    ]))?;
    let common = CommonRunArgs::extract(args)?;
    let app_id = parse_app(args)?;
    let budget = args.parse_flag("instructions", 400_000u64)?;
    let policy = parse_policy(args.flag("policy").unwrap_or("lru"))?;
    let prefetcher = parse_prefetcher(args)?;
    let max_drop_ratio = args.parse_flag("max-drop-ratio", 1.0f64)?;
    if !max_drop_ratio.is_finite() || !(0.0..=1.0).contains(&max_drop_ratio) {
        return Err(Box::new(ArgError(format!(
            "--max-drop-ratio: {max_drop_ratio} is out of range (must be within 0.0..=1.0)"
        ))));
    }
    if args.switch("lossy") && args.flag("trace").is_none() {
        return Err(Box::new(ArgError(
            "--lossy only applies when replaying a recorded stream (--trace FILE)".into(),
        )));
    }
    let (recorder, metrics) = build_recorder(&common);
    let wall = std::time::Instant::now();

    let cfg = SimConfig::builder()
        .policy(policy)
        .prefetcher(prefetcher)
        .build()
        .map_err(ripple::Error::from)?;

    // Replay a recorded packet stream, or execute the app fresh.
    let (app, layout, trace, health) = match args.flag("trace") {
        Some(path) => {
            let spec = app_id.spec();
            let app = generate(&spec);
            let layout = Layout::new(&app.program, &LayoutConfig::default());
            let bytes = fs::read(path)?;
            if args.switch("lossy") {
                let options = DecodeOptions { max_drop_ratio };
                let lossy =
                    ripple_trace::reconstruct_trace_lossy(&app.program, &layout, &bytes, &options)
                        .map_err(ripple::Error::from)?;
                (app, layout, lossy.trace, Some(lossy.health))
            } else {
                let trace = ripple_trace::reconstruct_trace(&app.program, &layout, &bytes)
                    .map_err(ripple::Error::from)?;
                (app, layout, trace, None)
            }
        }
        None => {
            let (app, layout, trace) = load(app_id, training_input(app_id, &common), budget)?;
            (app, layout, trace, None)
        }
    };

    let mut session = SimSession::new(&app.program, &layout, &trace, cfg).with_recorder(recorder);
    if let Some(health) = health {
        session = session.with_trace_health(health);
    }
    let r = session.run(policy);
    println!("{app_id} / {} / {}", policy.name(), prefetcher.name());
    println!("  instructions   {}", r.instructions);
    println!("  cycles         {:.0}", r.cycles);
    println!("  IPC            {:.3}", r.ipc());
    println!("  demand misses  {}", r.demand_misses);
    println!("  MPKI           {:.2}", r.mpki());
    println!("  compulsory     {:.2} MPKI", r.compulsory_mpki());
    if prefetcher != PrefetcherKind::None {
        println!(
            "  prefetches     {} issued, {} fills",
            r.prefetches_issued, r.prefetch_fills
        );
    }
    if let Some(h) = session.trace_health() {
        println!(
            "  trace health   {} of {} bytes dropped ({:.2}%), {} packets lost, {} resyncs",
            h.dropped_bytes,
            h.total_bytes,
            h.drop_ratio() * 100.0,
            h.dropped_packets,
            h.resync_events
        );
    }
    write_metrics(&common, "simulate", app_id.name(), metrics, wall)?;
    Ok(())
}

/// Runs the fault-injection dimension of the `ripple-check` oracle suite:
/// `--cases` mutated traces and reports, all of which must surface typed
/// errors (never panics) and keep the lossy decoder's loss accounting
/// consistent.
fn faults_cmd(args: &Args) -> CmdResult {
    args.expect_flags(&["cases", "seed"])?;
    let cases = args.parse_flag("cases", 500u64)?;
    let seed = args.parse_flag("seed", 0x5269_7070_6c65u64)?;
    println!("injecting faults into {cases} cases (seed {seed:#x})");
    let report = ripple_check::run_corpus(
        seed,
        cases,
        &[ripple_check::Dimension::Faults],
        |done, total| {
            if done % 100 == 0 || done == total {
                eprintln!("  {done}/{total} cases");
            }
        },
    );
    if report.failures.is_empty() {
        println!(
            "ok: {} corrupted inputs handled, zero panics",
            report.total_passed()
        );
        return Ok(());
    }
    for failure in &report.failures {
        eprintln!(
            "FAULT HANDLING FAILURE (case seed {:#x}): {}",
            failure.case_seed, failure.message
        );
        eprintln!("minimized repro:\n{}", failure.repro);
        eprintln!("replay: {}", failure.replay_line());
    }
    Err(format!(
        "{} of {cases} fault cases mishandled",
        report.failures.len()
    )
    .into())
}

fn compare(args: &Args) -> CmdResult {
    args.expect_flags(&CommonRunArgs::allowed(&["prefetcher", "instructions"]))?;
    let common = CommonRunArgs::extract(args)?;
    let app_id = parse_app(args)?;
    let budget = args.parse_flag("instructions", 400_000u64)?;
    let prefetcher = parse_prefetcher(args)?;
    let threads = effective_threads(common.threads);
    let (recorder, metrics) = build_recorder(&common);
    let wall = std::time::Instant::now();
    let (app, layout, trace) = load(app_id, training_input(app_id, &common), budget)?;
    // One session: every registered policy replays the same recorded
    // request stream as parallel harness jobs (the offline ideals share
    // the session's single recording pass). Line temperatures are profiled
    // once from the trace; temperature-hinted policies (TRRIP) consume
    // them, the rest ignore them.
    let temperatures = profile_temperatures(&layout, &trace);
    let mut base_cfg = SimConfig::builder()
        .prefetcher(prefetcher)
        .build()
        .map_err(ripple::Error::from)?;
    base_cfg.temperatures = Some(Arc::new(temperatures));
    let session = SimSession::new(&app.program, &layout, &trace, base_cfg).with_recorder(recorder);
    let (policies, results) = policy_matrix_all(&session, threads)?;
    let lru = &results[PolicyKind::LRU.index()];
    println!("{app_id} under {} prefetching", prefetcher.name());
    println!(
        "{:<12} {:>9} {:>8} {:>10}",
        "policy", "misses", "mpki", "vs-lru"
    );
    for (kind, r) in policies.iter().zip(&results) {
        println!(
            "{:<12} {:>9} {:>8.2} {:>+9.2}%",
            kind.name(),
            r.demand_misses,
            r.mpki(),
            r.speedup_pct_over(lru)
        );
    }
    write_metrics(&common, "compare", app_id.name(), metrics, wall)?;
    Ok(())
}

fn optimize(args: &Args) -> CmdResult {
    args.expect_flags(&CommonRunArgs::allowed(&[
        "threshold",
        "prefetcher",
        "underlying",
        "instructions",
    ]))?;
    let common = CommonRunArgs::extract(args)?;
    let app_id = parse_app(args)?;
    let budget = args.parse_flag("instructions", 600_000u64)?;
    let threshold = parse_threshold(args, 0.55)?;
    let prefetcher = parse_prefetcher(args)?;
    let underlying = parse_policy(args.flag("underlying").unwrap_or("lru"))?;
    let threads = common.threads;
    let (recorder, metrics) = build_recorder(&common);
    let wall = std::time::Instant::now();
    let (app, layout, trace) = load(app_id, training_input(app_id, &common), budget)?;

    let config = RippleConfig::builder()
        .threshold(threshold)
        .underlying(underlying)
        .threads(threads)
        .sim(
            SimConfig::builder()
                .prefetcher(prefetcher)
                .build()
                .map_err(ripple::Error::from)?,
        )
        .build()
        .map_err(ripple::Error::from)?;
    let ripple = Ripple::train_with_recorder(&app.program, &layout, &trace, config, recorder)?;
    let o = ripple.evaluate(&trace)?;

    println!(
        "{app_id}: Ripple-{} under {} (threshold {threshold})",
        underlying.name(),
        prefetcher.name()
    );
    println!("  baseline misses     {}", o.lru_reference.demand_misses);
    println!("  ripple misses       {}", o.ripple.demand_misses);
    println!("  ideal misses        {}", o.ideal.demand_misses);
    println!(
        "  miss reduction      {:+.2}% (ideal {:+.2}%)",
        o.miss_reduction_pct(),
        o.ideal_miss_reduction_pct()
    );
    println!(
        "  speedup             {:+.2}% (ideal {:+.2}%, ideal cache {:+.2}%)",
        o.speedup_pct(),
        o.ideal_speedup_pct(),
        o.ideal_cache_speedup_pct()
    );
    println!(
        "  coverage            {:.1}%",
        o.coverage.coverage() * 100.0
    );
    println!(
        "  accuracy            {:.1}% (underlying {:.1}%)",
        o.ripple_accuracy.accuracy() * 100.0,
        o.underlying_accuracy.accuracy() * 100.0
    );
    println!(
        "  static overhead     {:.2}% ({} invalidates)",
        o.static_overhead_pct, o.injected_static
    );
    println!("  dynamic overhead    {:.2}%", o.dynamic_overhead_pct);
    write_metrics(&common, "optimize", app_id.name(), metrics, wall)?;
    Ok(())
}

fn sweep_cmd(args: &Args) -> CmdResult {
    args.expect_flags(&CommonRunArgs::allowed(&["prefetcher", "instructions"]))?;
    let common = CommonRunArgs::extract(args)?;
    let app_id = parse_app(args)?;
    let budget = args.parse_flag("instructions", 600_000u64)?;
    let prefetcher = parse_prefetcher(args)?;
    let threads = common.threads;
    let (recorder, metrics) = build_recorder(&common);
    let wall = std::time::Instant::now();
    let (app, layout, trace) = load(app_id, training_input(app_id, &common), budget)?;
    let config = RippleConfig::builder()
        .threads(threads)
        .sim(
            SimConfig::builder()
                .prefetcher(prefetcher)
                .build()
                .map_err(ripple::Error::from)?,
        )
        .build()
        .map_err(ripple::Error::from)?;
    let ripple = Ripple::train_with_recorder(&app.program, &layout, &trace, config, recorder)?;
    let thresholds: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let points = sweep(&ripple, &trace, &thresholds)?;
    println!("{app_id} threshold sweep under {}", prefetcher.name());
    println!(" threshold  coverage  accuracy   speedup");
    for p in &points {
        println!(
            "   {:>5.2}    {:>6.1}%   {:>6.1}%   {:>+6.2}%",
            p.threshold,
            p.coverage * 100.0,
            p.accuracy * 100.0,
            p.speedup_pct
        );
    }
    if let Some(b) = best_threshold(&points) {
        println!("best: {:.2} ({:+.2}%)", b.threshold, b.speedup_pct);
    }
    write_metrics(&common, "sweep", app_id.name(), metrics, wall)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        dispatch(&argv).map_err(|e| e.to_string())
    }

    #[test]
    fn policies_subcommand_runs_and_rejects_flags() {
        run(&["policies"]).unwrap();
        let err = run(&["policies", "--florb", "1"]).unwrap_err();
        assert!(err.contains("unknown flag --florb"), "{err}");
    }

    #[test]
    fn usage_lists_registered_policies() {
        let u = usage();
        // The policy list is registry-derived: a new policy (TRRIP) shows
        // up without any usage-string edit.
        assert!(u.contains("trrip"), "{u}");
        assert!(u.contains("demand-min"), "{u}");
        assert!(u.contains("ripple-cli policies"), "{u}");
    }

    #[test]
    fn unknown_app_error_lists_valid_values() {
        let err = run(&["simulate", "tomact"]).unwrap_err();
        assert!(err.contains("unknown application"), "{err}");
        assert!(err.contains("tomcat"), "must list valid apps: {err}");
        assert!(err.contains("kafka"), "must list valid apps: {err}");
    }

    #[test]
    fn unknown_prefetcher_error_lists_valid_values() {
        let err = run(&["simulate", "tomcat", "--prefetcher", "fdpi"]).unwrap_err();
        assert!(err.contains("unknown prefetcher \"fdpi\""), "{err}");
        assert!(err.contains("none nlp fdip"), "{err}");
    }

    #[test]
    fn unknown_policy_error_lists_valid_values() {
        let err = run(&["simulate", "tomcat", "--policy", "mru"]).unwrap_err();
        assert!(err.contains("unknown policy \"mru\""), "{err}");
        assert!(err.contains("demand-min"), "{err}");
    }

    #[test]
    fn out_of_range_threshold_is_rejected() {
        for bad in ["1.5", "-0.1", "NaN", "inf"] {
            let err = run(&["plan", "tomcat", "--threshold", bad]).unwrap_err();
            assert!(err.contains("out of range"), "--threshold {bad}: {err}");
        }
    }

    #[test]
    fn unknown_phase_set_is_rejected() {
        let err = run(&["validate-metrics", "x.json", "--phases", "bogus"]).unwrap_err();
        assert!(err.contains("unknown phase set"), "{err}");
        assert!(err.contains("compare pipeline"), "{err}");
    }

    #[test]
    fn unknown_flag_is_rejected_per_command() {
        let err = run(&["compare", "tomcat", "--florb", "1"]).unwrap_err();
        assert!(err.contains("unknown flag --florb"), "{err}");
    }

    #[test]
    fn lossy_without_trace_is_rejected() {
        let err = run(&["simulate", "tomcat", "--lossy"]).unwrap_err();
        assert!(err.contains("--lossy only applies"), "{err}");
    }

    #[test]
    fn out_of_range_drop_ratio_is_rejected() {
        for bad in ["1.5", "-0.1", "NaN"] {
            let err = run(&[
                "simulate",
                "tomcat",
                "--trace",
                "x.bin",
                "--lossy",
                "--max-drop-ratio",
                bad,
            ])
            .unwrap_err();
            assert!(
                err.contains("out of range"),
                "--max-drop-ratio {bad}: {err}"
            );
        }
    }

    #[test]
    fn trace_replay_strict_rejects_corruption_and_lossy_recovers() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("ripple_cli_replay.bin");
        let trace_path = trace_path.to_str().unwrap().to_string();

        // Record a checkpointed stream, then replay it strictly: identical
        // simulator output to the in-process path.
        run(&[
            "profile",
            "tomcat",
            "--instructions",
            "20000",
            "--sync",
            "64",
            "--out",
            &trace_path,
        ])
        .unwrap();
        run(&["simulate", "tomcat", "--trace", &trace_path]).unwrap();

        // Corrupt a mid-stream span: strict replay fails with a decode
        // error, lossy replay degrades gracefully, and a zero drop bound
        // refuses the loss.
        let mut bytes = fs::read(&trace_path).unwrap();
        let start = bytes.len() / 3;
        let end = (start + 24).min(bytes.len());
        for b in &mut bytes[start..end] {
            *b ^= 0xff;
        }
        let corrupt_path = dir.join("ripple_cli_replay_corrupt.bin");
        let corrupt_path = corrupt_path.to_str().unwrap().to_string();
        fs::write(&corrupt_path, &bytes).unwrap();

        let err = run(&["simulate", "tomcat", "--trace", &corrupt_path]).unwrap_err();
        assert!(err.contains("trace reconstruction failed"), "{err}");
        run(&["simulate", "tomcat", "--trace", &corrupt_path, "--lossy"]).unwrap();
        let err = run(&[
            "simulate",
            "tomcat",
            "--trace",
            &corrupt_path,
            "--lossy",
            "--max-drop-ratio",
            "0.0",
        ])
        .unwrap_err();
        assert!(err.contains("drop-ratio"), "{err}");

        fs::remove_file(&trace_path).ok();
        fs::remove_file(&corrupt_path).ok();
    }

    #[test]
    fn faults_subcommand_runs_a_small_corpus() {
        run(&["faults", "--cases", "6", "--seed", "11"]).unwrap();
        let err = run(&["faults", "--cases", "6", "--florb", "1"]).unwrap_err();
        assert!(err.contains("unknown flag --florb"), "{err}");
    }

    #[test]
    fn validate_metrics_round_trip() {
        use ripple_obs::{FieldValue, MetricsRecorder};
        let m = MetricsRecorder::new();
        for name in COMPARE_PHASES {
            m.phase(name, 1_000);
        }
        m.event(
            "harness.job",
            &[
                ("scope", FieldValue::Str("policy_matrix")),
                ("job", FieldValue::U64(0)),
                ("queue_wait_ns", FieldValue::U64(5)),
                ("run_ns", FieldValue::U64(995)),
            ],
        );
        let report = run_report("compare", "tomcat", &m.snapshot(), 10_000);
        let path = std::env::temp_dir().join("ripple_cli_validate_metrics_round_trip.json");
        fs::write(&path, report.to_pretty_string()).unwrap();
        let path = path.to_str().unwrap().to_string();
        // Inferred phase set (from the report's own `command`) and the
        // explicit override must both validate.
        run(&["validate-metrics", &path]).unwrap();
        run(&["validate-metrics", &path, "--phases", "compare"]).unwrap();
        // The pipeline set requires train/eval phases this report lacks.
        let err = run(&["validate-metrics", &path, "--phases", "pipeline"]).unwrap_err();
        assert!(err.contains("train.oracle_replay"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn fleet_smoke_is_thread_deterministic_and_validates() {
        let dir = std::env::temp_dir();
        let path_a = dir.join("ripple_cli_fleet_a.json");
        let path_b = dir.join("ripple_cli_fleet_b.json");
        let (path_a, path_b) = (
            path_a.to_str().unwrap().to_string(),
            path_b.to_str().unwrap().to_string(),
        );
        let base = [
            "fleet",
            "--instances",
            "3",
            "--epochs",
            "2",
            "--canary-pct",
            "50",
            "--seed",
            "7",
            "--shard-instructions",
            "4000",
        ];
        let mut argv_a: Vec<&str> = base.to_vec();
        argv_a.extend(["--threads", "1", "--metrics", &path_a]);
        run(&argv_a).unwrap();
        let mut argv_b: Vec<&str> = base.to_vec();
        argv_b.extend(["--threads", "4", "--metrics", &path_b]);
        run(&argv_b).unwrap();
        assert_eq!(
            fs::read_to_string(&path_a).unwrap(),
            fs::read_to_string(&path_b).unwrap(),
            "fleet report diverged across thread counts"
        );
        // Schema-tag inference and the explicit override both validate.
        run(&["validate-metrics", &path_a]).unwrap();
        run(&["validate-metrics", &path_a, "--phases", "fleet"]).unwrap();
        // A fleet report is not a run report: forcing the wrong set fails.
        let err = run(&["validate-metrics", &path_a, "--phases", "pipeline"]).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        fs::remove_file(&path_a).ok();
        fs::remove_file(&path_b).ok();
    }

    #[test]
    fn lab_list_and_describe_cover_the_builtins() {
        run(&["lab", "list"]).unwrap();
        run(&["lab", "describe", "lab-smoke"]).unwrap();
        let err = run(&["lab", "describe", "fig99"]).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        assert!(err.contains("lab-smoke"), "must list builtins: {err}");
        let err = run(&["lab", "party"]).unwrap_err();
        assert!(err.contains("unknown lab action"), "{err}");
        let err = run(&["lab"]).unwrap_err();
        assert!(err.contains("missing lab action"), "{err}");
        let err = run(&["lab", "run"]).unwrap_err();
        assert!(err.contains("missing <experiment>"), "{err}");
        let err = run(&["lab", "run", "lab-smoke", "--florb", "1"]).unwrap_err();
        assert!(err.contains("unknown flag --florb"), "{err}");
    }

    #[test]
    fn lab_run_smoke_is_thread_deterministic_and_validates() {
        let dir = std::env::temp_dir();
        let path_a = dir.join("ripple_cli_lab_a.json");
        let path_b = dir.join("ripple_cli_lab_b.json");
        let (path_a, path_b) = (
            path_a.to_str().unwrap().to_string(),
            path_b.to_str().unwrap().to_string(),
        );
        let base = ["lab", "run", "lab-smoke", "--instructions", "20000"];
        let mut argv_a: Vec<&str> = base.to_vec();
        argv_a.extend(["--threads", "1", "--metrics", &path_a]);
        run(&argv_a).unwrap();
        let mut argv_b: Vec<&str> = base.to_vec();
        argv_b.extend(["--threads", "4", "--metrics", &path_b]);
        run(&argv_b).unwrap();
        assert_eq!(
            fs::read_to_string(&path_a).unwrap(),
            fs::read_to_string(&path_b).unwrap(),
            "lab report diverged across thread counts"
        );
        // Schema-tag inference and the explicit override both validate.
        run(&["validate-metrics", &path_a]).unwrap();
        run(&["validate-metrics", &path_a, "--phases", "lab"]).unwrap();
        // A lab report is not a run report: forcing the wrong set fails.
        let err = run(&["validate-metrics", &path_a, "--phases", "pipeline"]).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        // A declaration file on disk runs through the same path as a
        // built-in name.
        let decl_path = dir.join("ripple_cli_lab_decl.json");
        let decl_path = decl_path.to_str().unwrap().to_string();
        let decl = ripple_lab::builtin("lab-smoke").unwrap();
        fs::write(
            &decl_path,
            ripple_json::ToJson::to_json(&decl).to_pretty_string(),
        )
        .unwrap();
        run(&["lab", "describe", &decl_path]).unwrap();
        fs::remove_file(&decl_path).ok();
        fs::remove_file(&path_a).ok();
        fs::remove_file(&path_b).ok();
    }

    #[test]
    fn fleet_rejects_bad_knobs() {
        let err = run(&["fleet", "--canary-pct", "150"]).unwrap_err();
        assert!(err.contains("canary-pct"), "{err}");
        let err = run(&["fleet", "--instances", "abc"]).unwrap_err();
        assert!(err.contains("instances"), "{err}");
        let err = run(&["fleet", "--florb", "1"]).unwrap_err();
        assert!(err.contains("unknown flag --florb"), "{err}");
        let err = run(&["fleet", "--drift-epoch", "x"]).unwrap_err();
        assert!(err.contains("drift-epoch"), "{err}");
    }
}
