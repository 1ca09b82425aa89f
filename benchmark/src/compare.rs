//! Summaries of, and verdicts between, result files.
//!
//! A result file (`benchmark/result/v1`) holds any number of runs; runs of
//! one workload are repetitions of it. `compare A B` judges B against A
//! per workload and end-to-end metric with the bound `BENCHMARK.json`
//! fixes: the candidate's median may not be worse than the baseline's by
//! more than the bound. Where either side's own spread (interquartile
//! distance over median) exceeds the bound the pair is *unresolved*, not
//! unchanged — unless every run of one side beats every run of the other.

use std::collections::BTreeMap;
use std::path::Path;

use insitu_types::json::Value;

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles, spread};

pub const SCHEMA: &str = "benchmark/result/v1";

/// Metrics that repeat exactly for one seed on every workload whose
/// schedules do not depend on the clock; on equal seeds any change in them
/// is reported, whatever the bound.
const EXACT_ON_ONE_SEED: [&str; 3] = ["objective_sum", "proved_frac", "ok_frac"];
const CLOCK_DEPENDENT: &str = "run-md-adaptive";

/// `(workload, traced) -> metric -> one value per run`.
type Table = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn table(doc: &Value) -> Result<Table, String> {
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    let mut out = Table::new();
    for run in doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("no 'runs' array")?
    {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without 'workload'")?;
        let traced = run.get("trace").and_then(Value::as_f64) == Some(1.0);
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("run without 'metrics'")?;
        let slot = out.entry((workload.to_string(), traced)).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric '{name}' without a value"))?;
            slot.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn specs_in_order(spec: &Spec, traced: bool) -> &[MetricSpec] {
    if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
}

/// Median, quartiles and spread of every metric, per workload.
pub fn summary(spec: &Spec, doc: &Value) -> Result<String, String> {
    let mut out = String::new();
    for ((workload, traced), metrics) in table(doc)? {
        let runs = metrics.values().map(Vec::len).max().unwrap_or(0);
        out.push_str(&format!(
            "{workload} ({}, {runs} run{})\n",
            if traced { "per layer" } else { "end to end" },
            if runs == 1 { "" } else { "s" },
        ));
        for m in specs_in_order(spec, traced) {
            let Some(values) = metrics.get(&m.name) else {
                continue;
            };
            let (q1, q3) = quartiles(values);
            out.push_str(&format!(
                "  {:<36} median {:>14.6} {:<6} q1 {:>14.6}  q3 {:>14.6}  spread {:>6.2} %\n",
                m.name,
                median(values),
                m.unit,
                q1,
                q3,
                spread(values) * 100.0,
            ));
        }
    }
    Ok(out)
}

fn seed_of(doc: &Value) -> Option<f64> {
    doc.get("meta")?.get("seed")?.as_f64()
}

/// Judges `candidate` against `baseline`; `Ok(false)` when any end-to-end
/// metric regressed on any workload.
pub fn compare(spec: &Spec, baseline: &Path, candidate: &Path) -> Result<bool, String> {
    let (a_doc, b_doc) = (load(baseline)?, load(candidate)?);
    let same_seed = seed_of(&a_doc).is_some() && seed_of(&a_doc) == seed_of(&b_doc);
    let (a, b) = (table(&a_doc)?, table(&b_doc)?);
    let mut regressed = 0usize;
    let mut unresolved = 0usize;
    for workload in &spec.workloads {
        let key = (workload.clone(), false);
        let (Some(base), Some(cand)) = (a.get(&key), b.get(&key)) else {
            println!("{workload}: not in both files, skipped");
            continue;
        };
        println!("{workload}");
        for m in &spec.end_to_end {
            let (Some(av), Some(bv)) = (base.get(&m.name), cand.get(&m.name)) else {
                return Err(format!(
                    "{workload}: metric '{}' is not in both files",
                    m.name
                ));
            };
            let bound = m.bound.unwrap_or(0.0);
            let (ma, mb) = (median(av), median(bv));
            let sign = if m.higher_is_better { -1.0 } else { 1.0 };
            // share of the baseline median by which the candidate is worse
            let worse = if ma == 0.0 {
                0.0
            } else {
                sign * (mb - ma) / ma.abs()
            };
            let every_b_better = bv.iter().all(|&y| av.iter().all(|&x| sign * (y - x) < 0.0));
            let every_b_worse = bv.iter().all(|&y| av.iter().all(|&x| sign * (y - x) > 0.0));
            let noisy = spread(av) > bound || spread(bv) > bound;
            let exact = same_seed
                && workload != CLOCK_DEPENDENT
                && EXACT_ON_ONE_SEED.contains(&m.name.as_str());
            let verdict = if exact && ma != mb {
                regressed += usize::from(worse > 0.0);
                if worse > 0.0 {
                    "REGRESSED (repeats exactly on one seed)"
                } else {
                    "changed"
                }
            } else if worse > bound && (!noisy || every_b_worse) {
                regressed += 1;
                "REGRESSED"
            } else if noisy && !every_b_better && worse.abs() > 0.0 {
                unresolved += 1;
                "unresolved (spread exceeds the bound)"
            } else if -worse > bound {
                "better"
            } else {
                "within bound"
            };
            println!(
                "  {:<20} {:>14.6} -> {:>14.6} {:<6} {:>+7.2} % worse, bound {:>5.1} %, \
                 spreads {:>5.2} % / {:>5.2} %: {verdict}",
                m.name,
                ma,
                mb,
                m.unit,
                worse * 100.0,
                bound * 100.0,
                spread(av) * 100.0,
                spread(bv) * 100.0,
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}
