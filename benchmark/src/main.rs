//! The repository's benchmark: five workloads over the request path and
//! the run path, eight end-to-end metrics, and a traced mode that takes
//! each path apart layer by layer. See `README.md` beside this package and
//! `BENCHMARK.json` at the root of the repository.
//!
//! ```text
//! benchmark --workload W --seed S [--seconds N] [--trace 0|1] [--smoke]
//!     one run of one workload in this process; the last line of standard
//!     output is the result as one JSON object
//! benchmark --seed S [--seconds N] [--trace 0|1] [--smoke] [--repeat N] [--out FILE]
//!     every workload (or the one named), each run in a process of its own;
//!     prints median and quartiles per metric and writes FILE
//! benchmark compare A.json B.json
//!     applies the bounds of BENCHMARK.json to two such files
//! ```

mod compare;
mod gen;
mod layers;
mod report;
mod rng;
mod run;
mod scale;
mod spec;
mod staged;
mod stats;
mod svc;
mod verify;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use insitu_types::json::Value;

use layers::{Layers, Traced, PER_LAYER};
use report::{Outcome, Pass};
use spec::Spec;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "svc-zipf",
    "svc-fresh",
    "solve-scale",
    "run-md-adaptive",
    "run-amr-static",
];

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// One workload, set up: a pass is the same fixed work every time.
pub trait Workload {
    /// Runs one timed pass and keeps its outputs for [`Workload::verify`].
    fn pass(&mut self) -> Pass;
    /// Checks the outputs of the last pass, untimed; one message per
    /// rejected operation.
    fn verify(&self) -> Vec<String>;
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        repeat: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--repeat {n} is outside 1..=100"));
                }
                parsed.repeat = Some(n);
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// Warms the process with one discarded set-up and pass, sets the workload
/// up [`SETUP_REPS`] times, warms the one it keeps with another discarded
/// pass, runs timed passes for `seconds`, then checks the last pass. The
/// first warm-up is for `setup_s`: a process's first half second runs up to
/// 50 % slow on the sizing host (cold caches, page faults), which would be
/// most of what a 0.1 s set-up measures. The second brings the kept
/// workload's own state (`svc-fresh`'s cache) to where every pass finds it.
fn end_to_end(make: &dyn Fn() -> Box<dyn Workload>, seconds: f64) -> Outcome {
    make().pass();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(make());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPS >= 1");
    workload.pass();
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        passes.push(workload.pass());
    }
    let peak_rss_mb = report::peak_rss_mb();
    Outcome {
        setup_s,
        passes,
        peak_rss_mb,
        rejected: workload.verify(),
    }
}

fn make_workload(name: &str, seed: u64, smoke: bool) -> Box<dyn Workload> {
    match name {
        "svc-zipf" => Box::new(svc::Zipf::setup(seed, svc::sizes(smoke))),
        "svc-fresh" => Box::new(svc::Fresh::setup(seed, svc::sizes(smoke))),
        "solve-scale" => Box::new(scale::Scale::setup(seed, smoke)),
        "run-md-adaptive" => Box::new(run::MdAdaptive::setup(seed, run::md_sizes(smoke))),
        "run-amr-static" => Box::new(run::AmrStatic::setup(seed, run::amr_sizes(smoke))),
        other => unreachable!("workload '{other}' was checked against WORKLOADS"),
    }
}

fn traced(name: &str, seed: u64, smoke: bool, layers: &mut Layers) -> Result<Traced, String> {
    match name {
        "svc-zipf" => svc::traced(true, seed, svc::sizes(smoke), layers),
        "svc-fresh" => svc::traced(false, seed, svc::sizes(smoke), layers),
        "solve-scale" => scale::traced(seed, smoke, layers),
        "run-md-adaptive" => run::traced_md(seed, run::md_sizes(smoke), layers),
        "run-amr-static" => run::traced_amr(seed, run::amr_sizes(smoke), layers),
        other => unreachable!("workload '{other}' was checked against WORKLOADS"),
    }
}

/// The commit of the enclosing git checkout, read off `.git` without
/// starting a process; the driver's checkout has none.
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Writes a `benchmark/result/v1` file: how the runs were made, and the runs.
fn write_results(
    path: &Path,
    args: &Args,
    seconds: f64,
    runs: Vec<Value>,
) -> Result<Value, String> {
    let meta = object(vec![
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("nproc", Value::Number(nproc() as f64)),
        ("clients", Value::Number(svc::clients() as f64)),
        (
            "kernel_threads",
            Value::Number(run::kernel_threads() as f64),
        ),
        (
            "md_kernel_threads",
            Value::Number(run::MD_KERNEL_THREADS as f64),
        ),
        ("solver_threads", Value::Number(1.0)),
        ("commit", Value::String(commit())),
        ("rustc", Value::String(rustc_version())),
    ]);
    let document = object(vec![
        ("schema", Value::String(compare::SCHEMA.into())),
        ("meta", meta),
        ("runs", Value::Array(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, document.to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(document)
}

fn metrics_json(spec: &Spec, values: &[(&str, f64)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|&(name, value)| {
                (
                    name.to_string(),
                    object(vec![
                        ("value", Value::Number(value)),
                        ("unit", Value::String(spec.unit_of(name).to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// `--seconds`, else `run_seconds` of `BENCHMARK.json`, else a tenth of a
/// second (one pass or two) when the sizes are `--smoke`'s.
fn run_seconds(spec: &Spec, args: &Args) -> f64 {
    args.seconds
        .unwrap_or(if args.smoke { 0.1 } else { spec.run_seconds })
}

/// A result line plus what a result file must know about the run.
fn tagged(
    mut result: BTreeMap<String, Value>,
    workload: &str,
    traced: bool,
) -> BTreeMap<String, Value> {
    result.insert("workload".into(), Value::String(workload.into()));
    result.insert("trace".into(), Value::Number(f64::from(u8::from(traced))));
    result
}

/// One run of one workload in this process.
fn run_one(spec: &Spec, args: &Args, name: &str) -> Result<bool, String> {
    let seconds = run_seconds(spec, args);
    println!(
        "{name}: seed {}, {} mode, {} cores, {} clients, {} kernel threads ({} for MD), \
         1 solver thread",
        args.seed,
        if args.traced { "traced" } else { "end-to-end" },
        nproc(),
        svc::clients(),
        run::kernel_threads(),
        run::MD_KERNEL_THREADS,
    );
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;

    let (values, attempted, failed, samples, file) = if args.traced {
        let mut layers = Layers::new();
        let t = Instant::now();
        let done = traced(name, args.seed, args.smoke, &mut layers)?;
        print!("{}", done.notes);
        println!("  traced run took {:.1} s", t.elapsed().as_secs_f64());
        let trace_file = out_dir().join(format!("{name}.trace.json"));
        std::fs::write(&trace_file, done.trace_json)
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        println!("  spans written to {}", trace_file.display());
        (
            layers.values(),
            1,
            0,
            Value::Null,
            format!("{name}.traced.json"),
        )
    } else {
        let make = || make_workload(name, args.seed, args.smoke);
        let outcome = end_to_end(&make, seconds);
        for message in outcome.rejected.iter().take(10) {
            println!("  REJECTED {message}");
        }
        let ops_per_pass = outcome.passes[0].ops();
        println!(
            "  {} passes of {ops_per_pass} operations, {:.2} s timed, set up {SETUP_REPS} times",
            outcome.passes.len(),
            outcome.passes.iter().map(|p| p.wall_s).sum::<f64>(),
        );
        (
            outcome.metrics(),
            outcome.attempted(),
            outcome.failed(),
            outcome.samples(),
            format!("{name}.json"),
        )
    };

    if let Some((name, value)) = values.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric '{name}' is not a finite number: {value}"));
    }
    for &(metric, value) in &values {
        println!("  {metric:<36} {value:>16.6} {}", spec.unit_of(metric));
    }
    let correct = failed == 0;
    let result: BTreeMap<String, Value> = [
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Number(attempted as f64)),
        ("failed", Value::Number(failed as f64)),
        ("metrics", metrics_json(spec, &values)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let mut run = tagged(result.clone(), name, args.traced);
    run.insert("samples".into(), samples);
    let path = out_dir().join(file);
    write_results(&path, args, seconds, vec![Value::Object(run)])?;
    println!("  result written to {}", path.display());
    println!("{}", Value::Object(result));
    Ok(correct)
}

/// Every workload (or the one named) `repeat` times, each run in a process
/// of its own, so no run inherits another's heap, caches or peak RSS.
fn run_suite(spec: &Spec, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = run_seconds(spec, args);
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    let t0 = Instant::now();
    for rep in 0..args.repeat.unwrap_or(1) {
        for name in &names {
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }]);
            if args.smoke {
                command.arg("--smoke");
            }
            let output = command.output().map_err(|e| format!("{name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let Ok(Value::Object(run)) = Value::parse(last) else {
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                return Err(format!("{name}: run {rep} printed no result"));
            };
            let correct = run.get("correct").and_then(Value::as_bool) == Some(true);
            println!(
                "run {rep} {name:<16} {}",
                if correct { "ok" } else { "FAILED" }
            );
            if !correct {
                print!("{stdout}");
                all_correct = false;
            }
            runs.push(Value::Object(tagged(run, name, args.traced)));
        }
    }
    println!("suite took {:.1} s", t0.elapsed().as_secs_f64());
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("suite.json"));
    let document = write_results(&path, args, seconds, runs)?;
    print!("{}", compare::summary(spec, &document)?);
    println!("results written to {}", path.display());
    Ok(all_correct)
}

/// Refuses to run when this binary and `BENCHMARK.json` disagree on what is
/// measured: a workload or metric name on one side only, or another unit.
fn check_contract(spec: &Spec) -> Result<(), String> {
    let listed: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    if listed != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, this binary runs {WORKLOADS:?}"
        ));
    }
    for (kind, listed, measured) in [
        ("end_to_end", &spec.end_to_end, &report::END_TO_END[..]),
        ("per_layer", &spec.per_layer, &PER_LAYER[..]),
    ] {
        for m in listed {
            match measured.iter().find(|(name, _)| *name == m.name) {
                None => return Err(format!("{kind} metric '{}' is not measured", m.name)),
                Some((_, unit)) if *unit != m.unit => {
                    return Err(format!(
                        "'{}' is measured in {unit}, listed in {}",
                        m.name, m.unit
                    ))
                }
                Some(_) => {}
            }
        }
        if let Some((name, _)) = measured
            .iter()
            .find(|(name, _)| !listed.iter().any(|m| m.name == *name))
        {
            return Err(format!(
                "{kind} metric '{name}' is not listed in BENCHMARK.json"
            ));
        }
    }
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load()?;
    check_contract(&spec)?;
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: benchmark compare A.json B.json".into());
        };
        return compare::compare(&spec, a.as_ref(), b.as_ref());
    }
    let args = parse_args(&argv)?;
    if let Some(name) = &args.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload '{name}'; one of {WORKLOADS:?}"));
        }
    }
    match (&args.workload, args.repeat) {
        (Some(name), None) => run_one(&spec, &args, name),
        _ => run_suite(&spec, &args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
