//! The `ripple.benchmark_result.v1` document and the one-line summary the
//! benchmark prints last.

use ripple_json::{object, FromJson, JsonError, ToJson, Value};

/// Schema tag of a result document.
pub const RESULT_SCHEMA: &str = "ripple.benchmark_result.v1";

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Metric unit.
    pub unit: String,
    /// The value, as measured.
    pub value: f64,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// `std::thread::available_parallelism` of the machine.
    pub available_parallelism: u64,
    /// The apps the ops round-robined over.
    pub apps: Vec<String>,
    /// Whether every op passed its checks.
    pub correct: bool,
    /// Ops attempted: warm-up, thread-agreement and timed ops.
    pub attempted: u64,
    /// Ops that returned an error, panicked or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Timed ops the metrics were computed from.
    pub timed_ops: u64,
    /// Metric values, in catalogue order.
    pub metrics: Vec<Measured>,
}

impl WorkloadResult {
    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single-line summary: `correct`, `attempted`, `failed` and each
    /// metric's value and unit.
    pub fn summary_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    object([("value", Value::Float(m.value)), ("unit", m.unit.to_json())]),
                )
            })
            .collect();
        object([
            ("correct", Value::Bool(self.correct)),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Value::Object(metrics)),
        ])
        .to_compact_string()
    }
}

impl ToJson for Measured {
    fn to_json(&self) -> Value {
        object([
            ("name", self.name.to_json()),
            ("unit", self.unit.to_json()),
            ("value", Value::Float(self.value)),
        ])
    }
}

impl FromJson for Measured {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Measured {
            name: String::from_json(v.get("name")?)?,
            unit: String::from_json(v.get("unit")?)?,
            value: v.get("value")?.as_f64()?,
        })
    }
}

impl ToJson for WorkloadResult {
    fn to_json(&self) -> Value {
        object([
            ("workload", self.workload.to_json()),
            ("seed", self.seed.to_json()),
            ("trace", self.trace.to_json()),
            (
                "available_parallelism",
                self.available_parallelism.to_json(),
            ),
            ("apps", self.apps.to_json()),
            ("correct", self.correct.to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("failures", self.failures.to_json()),
            ("timed_ops", self.timed_ops.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

impl FromJson for WorkloadResult {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(WorkloadResult {
            workload: String::from_json(v.get("workload")?)?,
            seed: v.get("seed")?.as_u64()?,
            trace: v.get("trace")?.as_bool()?,
            available_parallelism: v.get("available_parallelism")?.as_u64()?,
            apps: Vec::from_json(v.get("apps")?)?,
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            failures: Vec::from_json(v.get("failures")?)?,
            timed_ops: v.get("timed_ops")?.as_u64()?,
            metrics: Vec::from_json(v.get("metrics")?)?,
        })
    }
}

/// Renders a result document holding `results`.
pub fn to_document(results: &[WorkloadResult]) -> Value {
    object([
        ("schema", RESULT_SCHEMA.to_json()),
        (
            "workloads",
            Value::Array(results.iter().map(ToJson::to_json).collect()),
        ),
    ])
}

/// Parses a result document.
///
/// # Errors
///
/// Fails on malformed JSON, a foreign schema tag or a missing field.
pub fn parse_document(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let doc = ripple_json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .map_err(|e| e.to_string())?;
    if schema != RESULT_SCHEMA {
        return Err(format!("schema {schema:?}, expected {RESULT_SCHEMA:?}"));
    }
    let workloads = doc.get("workloads").map_err(|e| e.to_string())?;
    Vec::from_json(workloads).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "optimize".into(),
            seed: 3,
            trace: false,
            available_parallelism: 2,
            apps: vec!["tomcat/nlp".into(), "verilator/none".into()],
            correct: false,
            attempted: 130,
            failed: 1,
            failures: vec!["app 1: digest differs".into()],
            timed_ops: 123,
            metrics: vec![
                Measured {
                    name: "op_p50_s".into(),
                    unit: "s".into(),
                    value: 0.153_271_829_1,
                },
                Measured {
                    name: "instrs_per_s".into(),
                    unit: "instr/s".into(),
                    value: 1.234_567_89e7,
                },
            ],
        }
    }

    #[test]
    fn result_document_round_trips() {
        let results = vec![sample(), sample()];
        let text = to_document(&results).to_pretty_string();
        assert_eq!(parse_document(&text).unwrap(), results);
    }

    #[test]
    fn foreign_documents_are_rejected() {
        let err = parse_document(r#"{"schema": "ripple.run_report.v1", "workloads": []}"#);
        assert!(err.unwrap_err().contains("schema"));
    }

    #[test]
    fn summary_line_has_exactly_the_summary_keys() {
        let line = sample().summary_line();
        let v = ripple_json::parse(&line).unwrap();
        let Value::Object(members) = &v else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v.get("metrics").unwrap().get("op_p50_s").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64().unwrap(), 0.153_271_829_1);
        assert_eq!(p50.get("unit").unwrap().as_str().unwrap(), "s");
    }
}
