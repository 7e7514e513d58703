//! `ripple-benchmark`: runs the benchmark workloads and compares results.
//!
//! ```text
//! ripple-benchmark run [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! ripple-benchmark compare --base FILE... --head FILE...
//! ```

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ripple_benchmark::compare::{compare, parse_bounds, Verdict};
use ripple_benchmark::result::{parse_document, to_document, WorkloadResult};
use ripple_benchmark::runner::{run, Run, Settings, SpanRecord, Stop, DEFAULT_SECONDS};
use ripple_benchmark::stats::beyond_nearest_rank;
use ripple_benchmark::workloads::Workload;
use ripple_json::{object, ToJson, Value};

const USAGE: &str = "usage:
  ripple-benchmark run [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
  ripple-benchmark compare --base FILE... --head FILE...
workloads: optimize compare lab-grid fleet";

/// Where results, history and span files go: the benchmark's own
/// `target/`, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

type Flags = Vec<(String, String)>;

fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        if !allowed.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.push((name.to_string(), value.clone()));
    }
    Ok(flags)
}

fn all<'a>(flags: &'a Flags, name: &str) -> Vec<&'a str> {
    flags
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
        .collect()
}

fn single<'a>(flags: &'a Flags, name: &str) -> Result<Option<&'a str>, String> {
    match all(flags, name).as_slice() {
        [] => Ok(None),
        [v] => Ok(Some(v)),
        _ => Err(format!("--{name} given more than once")),
    }
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let seed = match single(&flags, "seed")? {
        None => 0,
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed: cannot parse {s:?}"))?,
    };
    let seconds = match single(&flags, "seconds")? {
        None => DEFAULT_SECONDS as f64,
        Some(s) => match s.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => x,
            _ => return Err(format!("--seconds: {s:?} is not a positive number")),
        },
    };
    let trace = match single(&flags, "trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: {other:?} (valid values: 0 1)")),
    };
    let settings = Settings {
        seed,
        stop: Stop::Seconds(seconds),
        trace,
    };
    let out = single(&flags, "out")?.map(Path::new);
    match single(&flags, "workload")? {
        Some(name) => {
            let workload = Workload::parse(name).ok_or_else(|| {
                format!("unknown workload {name:?} (valid values: optimize compare lab-grid fleet)")
            })?;
            run_one(workload, &settings, out)
        }
        None => run_all(args, &settings, out),
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn append_history(result: &WorkloadResult) -> Result<(), String> {
    let path = out_dir().join("history.jsonl");
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    let line = to_document(std::slice::from_ref(result)).to_compact_string();
    writeln!(file, "{line}").map_err(|e| format!("appending to {}: {e}", path.display()))
}

fn span_json(s: &SpanRecord) -> Value {
    object([
        ("op_id", s.op_id.to_json()),
        ("span_id", s.span_id.to_json()),
        (
            "parent_id",
            s.parent_id.map_or(Value::Null, |p| p.to_json()),
        ),
        ("name", s.name.to_json()),
        ("start_ns", s.start_ns.to_json()),
        ("end_ns", s.end_ns.to_json()),
    ])
}

fn print_run(run: &Run, workload: Workload) {
    let r = &run.result;
    println!(
        "workload {}  seed {}  {}  apps {}",
        r.workload,
        r.seed,
        if r.trace { "traced" } else { "untraced" },
        r.apps.join(" ")
    );
    println!(
        "  {} worker thread(s), {} available; {} timed ops{}; {} ops attempted, {} failed",
        workload.threads(),
        r.available_parallelism,
        r.timed_ops,
        if r.trace {
            String::new()
        } else {
            format!(
                " ({} beyond p90)",
                beyond_nearest_rank(r.timed_ops as usize, 0.9)
            )
        },
        r.attempted,
        r.failed
    );
    for failure in &r.failures {
        println!("  FAILED {failure}");
    }
    for name in &run.unmapped_spans {
        println!("  note: span {name:?} belongs to no layer metric");
    }
    for m in &r.metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn run_one(
    workload: Workload,
    settings: &Settings,
    out: Option<&Path>,
) -> Result<ExitCode, String> {
    let run = run(workload, settings)?;
    print_run(&run, workload);
    let dir = out_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    append_history(&run.result)?;
    if settings.trace {
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            workload.name(),
            settings.seed
        ));
        let text: String = run
            .spans
            .iter()
            .map(|s| span_json(s).to_compact_string() + "\n")
            .collect();
        write_file(&path, &text)?;
        println!("  spans written to {}", path.display());
    }
    if let Some(path) = out {
        write_file(
            path,
            &to_document(std::slice::from_ref(&run.result)).to_pretty_string(),
        )?;
    }
    // The last line of output: the run's summary as one JSON object.
    println!("{}", run.result.summary_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload, each in its own process so peak memory is per
/// workload, then prints one table.
fn run_all(args: &[String], settings: &Settings, out: Option<&Path>) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let dir = out_dir();
    let passthrough: Vec<String> = parse_flags(args, &["seed", "seconds", "trace", "out"])?
        .into_iter()
        .filter(|(n, _)| n != "out")
        .flat_map(|(n, v)| [format!("--{n}"), v])
        .collect();
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let path = dir.join(format!("run-{}.json", workload.name()));
        let status = Command::new(&exe)
            .args(["run", "--workload", workload.name(), "--out"])
            .arg(&path)
            .args(&passthrough)
            .status()
            .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
        if !status.success() {
            return Err(format!("the {} run failed ({status})", workload.name()));
        }
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        results.extend(parse_document(&text)?);
    }
    println!();
    println!(
        "seed {}{}",
        settings.seed,
        if settings.trace { ", traced" } else { "" }
    );
    print!("{:<26}", "metric");
    for r in &results {
        print!(" {:>16}", r.workload);
    }
    println!();
    for m in &results[0].metrics {
        print!("{:<26}", m.name);
        for r in &results {
            print!(" {:>16.6}", r.metric(&m.name).unwrap_or(f64::NAN));
        }
        println!(" {}", m.unit);
    }
    print!("{:<26}", "failed/attempted");
    for r in &results {
        print!(" {:>16}", format!("{}/{}", r.failed, r.attempted));
    }
    println!();
    if let Some(path) = out {
        write_file(path, &to_document(&results).to_pretty_string())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn read_results(files: &[&str]) -> Result<Vec<WorkloadResult>, String> {
    let mut results = Vec::new();
    for file in files {
        let text = fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        results.extend(parse_document(&text).map_err(|e| format!("{file}: {e}"))?);
    }
    Ok(results)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["base", "head"])?;
    let (base_files, head_files) = (all(&flags, "base"), all(&flags, "head"));
    if base_files.is_empty() || head_files.is_empty() {
        return Err("compare needs at least one --base and one --head file".into());
    }
    let bounds_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds_text = fs::read_to_string(&bounds_path)
        .map_err(|e| format!("reading {}: {e}", bounds_path.display()))?;
    let bounds = parse_bounds(&bounds_text)?;
    let rows = compare(
        &read_results(&base_files)?,
        &read_results(&head_files)?,
        &bounds,
    );
    println!(
        "{:<9} {:<23} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta"
    );
    for row in &rows {
        let cell = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
        println!(
            "{:<9} {:<23} {:>34} {:>34} {:>+7.2}%  {} ({})",
            row.workload,
            row.metric,
            cell(row.base),
            cell(row.head),
            row.delta_pct,
            row.verdict.as_str(),
            row.unit
        );
    }
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ripple-benchmark: {e}");
        ExitCode::from(2)
    })
}
