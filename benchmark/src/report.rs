//! What a workload hands back, and how it becomes the end-to-end metrics.

use insitu_types::json::Value;

use crate::stats::{median, percentile_sorted};

/// One timed pass: the same fixed work every time, so passes of one run
/// are comparable and their medians shed a scheduling hiccup of the host.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Latency of every operation (request, solve or simulation step).
    pub op_ms: Vec<f64>,
    /// Σ Eq. 1 objective over the replies, or of the executed schedule.
    pub objective: f64,
    /// Schedules graded by `certify`, and how many of them PROVED.
    pub graded: usize,
    pub proved: usize,
    /// Operations that returned an error or an INVALID verdict.
    pub failed: usize,
}

impl Pass {
    pub fn ops(&self) -> usize {
        self.op_ms.len()
    }

    /// Nearest-rank percentile of this pass's operation latencies.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let mut v = self.op_ms.clone();
        v.sort_by(f64::total_cmp);
        percentile_sorted(&v, p)
    }
}

/// Name and unit of every end-to-end metric; `BENCHMARK.json` lists the same
/// and `main` refuses to run when the two differ.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("objective_sum", "count"),
    ("proved_frac", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// A finished end-to-end run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One entry per repetition of the set-up.
    pub setup_s: Vec<f64>,
    pub passes: Vec<Pass>,
    pub peak_rss_mb: f64,
    /// Operations the untimed output check rejected, one message each.
    pub rejected: Vec<String>,
}

impl Outcome {
    pub fn attempted(&self) -> usize {
        self.passes.iter().map(Pass::ops).sum()
    }

    pub fn failed(&self) -> usize {
        self.passes.iter().map(|p| p.failed).sum::<usize>() + self.rejected.len()
    }

    /// The eight end-to-end metrics, in [`END_TO_END`] order. Timings are
    /// medians over passes; latencies are per-pass percentiles first.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
            median(&self.passes.iter().map(f).collect::<Vec<_>>())
        };
        let pct = |p: f64| per_pass(&|pass: &Pass| pass.latency_ms(p));
        let graded: usize = self.passes.iter().map(|p| p.graded).sum();
        let proved: usize = self.passes.iter().map(|p| p.proved).sum();
        let attempted = self.attempted().max(1);
        let values = [
            median(&self.setup_s),
            per_pass(&|p| p.ops() as f64 / p.wall_s),
            pct(50.0),
            pct(99.0),
            per_pass(&|p| p.objective),
            proved as f64 / graded.max(1) as f64,
            1.0 - self.failed() as f64 / attempted as f64,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, _), value)| (name, value))
            .collect()
    }

    /// The samples behind the timings: how many, and each one, so a reader
    /// of the result file can see what a median hides.
    pub fn samples(&self) -> Value {
        let list = |values: Vec<f64>| Value::Array(values.into_iter().map(Value::Number).collect());
        let per_pass = |f: &dyn Fn(&Pass) -> f64| list(self.passes.iter().map(f).collect());
        Value::Object(
            [
                ("passes", Value::Number(self.passes.len() as f64)),
                ("ops_per_pass", Value::Number(self.passes[0].ops() as f64)),
                ("setup_s", list(self.setup_s.clone())),
                ("pass_wall_s", per_pass(&|p| p.wall_s)),
                ("pass_p50_ms", per_pass(&|p| p.latency_ms(50.0))),
                ("pass_p99_ms", per_pass(&|p| p.latency_ms(99.0))),
                ("pass_objective", per_pass(&|p| p.objective)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
