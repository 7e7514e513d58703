//! `BENCHMARK.json` at the repository root must describe this benchmark.

use ripple_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use ripple_benchmark::runner::DEFAULT_SECONDS;
use ripple_benchmark::workloads::Workload;
use ripple_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    ripple_json::parse(&text).unwrap()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).unwrap().as_str().unwrap()
}

fn assert_declares(entries: &[Value], catalogue: &[MetricDef]) {
    assert_eq!(entries.len(), catalogue.len());
    for (entry, def) in entries.iter().zip(catalogue) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
    }
}

#[test]
fn declares_the_command_workloads_and_run_length() {
    let doc = benchmark_json();
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
    assert_eq!(command.last(), Some(&"run"));
    let paths = doc.get("paths").unwrap().as_array().unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str().unwrap(), "benchmark");
    assert_eq!(
        doc.get("run_seconds").unwrap().as_u64().unwrap(),
        DEFAULT_SECONDS
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
}

#[test]
fn declares_every_metric_with_its_unit_and_direction() {
    let doc = benchmark_json();
    assert_declares(
        doc.get("end_to_end").unwrap().as_array().unwrap(),
        &END_TO_END,
    );
    assert_declares(
        doc.get("per_layer").unwrap().as_array().unwrap(),
        &PER_LAYER,
    );
}

#[test]
fn setup_time_has_the_largest_bound() {
    let doc = benchmark_json();
    let bounds: Vec<(&str, f64)> = doc
        .get("end_to_end")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|e| (text(e, "name"), e.get("bound").unwrap().as_f64().unwrap()))
        .collect();
    let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
        assert!(*name == "setup_s" || *bound < setup, "{name}: {bound}");
    }
}
