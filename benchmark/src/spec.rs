//! `BENCHMARK.json` as this program reads it: the names it must emit and
//! the bounds `compare` applies. The file is the contract; the binary
//! refuses to report a metric or workload the file does not list, and to
//! omit one it does.

use insitu_types::json::Value;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

fn metric_list(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array '{key}'"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without '{k}'"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Reads `BENCHMARK.json` from the working directory (the driver runs
    /// the command from the root of the checkout), falling back to the
    /// directory above this package.
    pub fn load() -> Result<Spec, String> {
        let beside = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string("BENCHMARK.json")
            .or_else(|_| std::fs::read_to_string(beside))
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        let doc = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: missing array 'workloads'")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload without 'name'".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
        })
    }

    pub fn unit_of(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
            .unwrap_or("")
    }
}
