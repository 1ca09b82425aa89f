//! Compares two `BENCH_*.json` artifacts and flags metric regressions.
//!
//! Usage: `bench_diff BASELINE.json CANDIDATE.json [--threshold PCT]`
//!
//! Every numeric leaf of both files is flattened into a dotted path
//! (`points[2].requests_per_sec`, `latency.points[0].classes.hit.p99`, …)
//! and matched by path. The direction a metric is allowed to move is
//! inferred from its name:
//!
//! * **higher is better** — path ends in `per_sec`, `rate`, `speedup`,
//!   or `hits`: a drop beyond the threshold is a regression;
//! * **lower is better** — path ends in `wall_s`, `wall_ms`, `_ms`,
//!   `latency_s`, `p50`/`p90`/`p99`, `nodes`, `evictions`, or `misses`:
//!   a rise beyond the threshold is a regression;
//! * everything else (counts, seeds, schema constants) is informational
//!   and never fails the diff — as is a `pNN` quantile whose sibling
//!   `count` leaves fewer than ten samples beyond that percentile in
//!   either file (the p50 of a 5-request dedup class is one log₂ bucket
//!   flip away from ±100 %).
//!
//! The threshold is a relative percentage (default 20). Exit status is 0
//! when no tracked metric regresses beyond it, 1 otherwise, 2 on usage or
//! parse errors. `verify.sh` runs it on the committed
//! `BENCH_service.json` against the recording that file replaced.

use bench::table::{cells, TextTable};
use insitu_types::json::Value;

/// Which way a metric is allowed to move without counting as a regression.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
    Informational,
}

/// Infers the regression direction from the final path segment.
fn direction(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let leaf = leaf.split('[').next().unwrap_or(leaf);
    let higher = ["per_sec", "rate", "speedup", "hits"];
    let lower = [
        "wall_s",
        "wall_ms",
        "merge_ms",
        "analysis_ms",
        "step_ms",
        "latency_s",
        "p50",
        "p90",
        "p99",
        "nodes",
        "evictions",
        "misses",
    ];
    if higher.iter().any(|h| leaf.ends_with(h)) {
        Direction::HigherIsBetter
    } else if lower.iter().any(|l| leaf.ends_with(l)) {
        Direction::LowerIsBetter
    } else {
        Direction::Informational
    }
}

/// True for a `pNN` leaf whose histogram — the sibling `count` leaf, in
/// either file — has fewer than ten samples beyond that percentile.
fn too_few_samples(path: &str, files: [&std::collections::BTreeMap<&str, f64>; 2]) -> bool {
    let Some((parent, leaf)) = path.rsplit_once('.') else {
        return false;
    };
    let Some(q) = leaf.strip_prefix('p').and_then(|n| n.parse::<f64>().ok()) else {
        return false;
    };
    let count = format!("{parent}.count");
    files.iter().any(|f| {
        f.get(count.as_str())
            .is_some_and(|n| n * (1.0 - q / 100.0) < 10.0)
    })
}

/// Recursively flattens every numeric leaf into `(dotted.path, value)`.
fn flatten(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Number(n) => out.push((prefix.to_string(), *n)),
        Value::Object(map) => {
            for (k, child) in map {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&p, child, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), child, out);
            }
        }
        _ => {}
    }
}

fn load(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let value = Value::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_diff: {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let mut leaves = Vec::new();
    flatten("", &value, &mut leaves);
    leaves.sort_by(|a, b| a.0.cmp(&b.0));
    leaves
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold_pct = 20.0_f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold_pct = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("bench_diff: --threshold needs a number");
                        std::process::exit(2);
                    });
            }
            other if other.starts_with("--") => {
                eprintln!(
                    "unknown argument {other}; usage: bench_diff BASELINE.json CANDIDATE.json [--threshold PCT]"
                );
                std::process::exit(2);
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_diff BASELINE.json CANDIDATE.json [--threshold PCT]");
        std::process::exit(2);
    }

    let baseline = load(&paths[0]);
    let candidate = load(&paths[1]);
    let base: std::collections::BTreeMap<&str, f64> =
        baseline.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let cand: std::collections::BTreeMap<&str, f64> =
        candidate.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    let mut table = TextTable::new(&["metric", "baseline", "candidate", "delta%", "verdict"]);
    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut only_base = 0usize;

    for (path, b) in &base {
        let Some(c) = cand.get(path) else {
            only_base += 1;
            continue;
        };
        compared += 1;
        let dir = if too_few_samples(path, [&base, &cand]) {
            Direction::Informational
        } else {
            direction(path)
        };
        let delta_pct = if *b == 0.0 {
            if *c == 0.0 {
                0.0
            } else {
                f64::INFINITY.copysign(*c)
            }
        } else {
            (*c - *b) / b.abs() * 100.0
        };
        let regressed = match dir {
            Direction::HigherIsBetter => delta_pct < -threshold_pct,
            Direction::LowerIsBetter => delta_pct > threshold_pct,
            Direction::Informational => false,
        };
        let verdict = if regressed {
            regressions += 1;
            "REGRESSION"
        } else if dir == Direction::Informational {
            "info"
        } else {
            "ok"
        };
        // Only surface rows that moved or regressed; identical runs stay quiet.
        if delta_pct.abs() > 1e-9 || regressed {
            table.row(&cells([
                path,
                &format!("{b:.6}"),
                &format!("{c:.6}"),
                &format!("{delta_pct:+.2}"),
                &verdict,
            ]));
        }
    }
    let only_cand = cand.keys().filter(|k| !base.contains_key(*k)).count();

    println!(
        "bench_diff: {} vs {} ({} metrics compared, threshold {:.1}%)",
        paths[0], paths[1], compared, threshold_pct
    );
    if only_base > 0 || only_cand > 0 {
        println!(
            "note: {only_base} metric(s) only in baseline, {only_cand} only in candidate (shape change, not scored)"
        );
    }
    let rendered = table.render();
    if rendered.lines().count() > 2 {
        println!("{rendered}");
    } else {
        println!("no metric changed.");
    }
    if regressions > 0 {
        println!("{regressions} regression(s) beyond {threshold_pct:.1}%");
        std::process::exit(1);
    }
    println!("no regressions beyond {threshold_pct:.1}%");
}
