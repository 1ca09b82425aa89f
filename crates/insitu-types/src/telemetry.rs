//! Per-kernel execution telemetry.
//!
//! Every parallelized simulation/analysis kernel records how long it ran,
//! how many threads it used, how the work was chunked and how long the
//! ordered merge of partial results took. The records accumulate on the
//! owning state (`System`, `FlashSim`) or kernel struct and surface in the
//! coupler's `RunReport`, from which the repo benchmark reads its
//! `mdsim.*`, `amrsim.*` and `parallel.*` layer metrics.

use crate::json::Value;
use std::collections::BTreeMap;

/// Accumulated telemetry of one kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelRecord {
    /// Number of invocations recorded.
    pub calls: usize,
    /// Threads used by the most recent invocation.
    pub threads: usize,
    /// Chunk count of the most recent invocation.
    pub chunks: usize,
    /// Total wall seconds across all invocations.
    pub wall_s: f64,
    /// Total seconds spent in ordered merges across all invocations.
    pub merge_s: f64,
    /// Scratch buffers freshly allocated across all invocations (pool
    /// misses). Zero in steady state once the kernel's scratch pool is
    /// warm.
    pub scratch_allocs: usize,
    /// Scratch buffers served from the pool across all invocations.
    pub scratch_reuses: usize,
}

impl KernelRecord {
    /// Mean wall seconds per invocation.
    pub fn mean_wall_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_s / self.calls as f64
        }
    }
}

/// Telemetry registry: one [`KernelRecord`] per kernel name.
///
/// Kernel names are dotted lowercase identifiers (`md.force`,
/// `hydro.step`, ...); the `BTreeMap` keeps reports and JSON output in a
/// stable order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTelemetry {
    /// Records keyed by kernel name.
    pub kernels: BTreeMap<String, KernelRecord>,
}

impl KernelTelemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one invocation of `kernel`.
    pub fn record(&mut self, kernel: &str, threads: usize, chunks: usize, wall_s: f64, merge_s: f64) {
        let r = self.kernels.entry(kernel.to_string()).or_default();
        r.calls += 1;
        r.threads = threads;
        r.chunks = chunks;
        r.wall_s += wall_s;
        r.merge_s += merge_s;
    }

    /// Adds scratch-pool activity to `kernel` without counting a call.
    /// Kernels call this right after [`KernelTelemetry::record`] with the
    /// pool-counter delta of the invocation, so a run report can show
    /// steady-state allocations reaching zero (`mdsim.scratch_allocs` in
    /// `BENCHMARK.json`).
    pub fn record_scratch(&mut self, kernel: &str, allocs: usize, reuses: usize) {
        let r = self.kernels.entry(kernel.to_string()).or_default();
        r.scratch_allocs += allocs;
        r.scratch_reuses += reuses;
    }

    /// Record for `kernel`, if any invocation has been recorded.
    pub fn get(&self, kernel: &str) -> Option<&KernelRecord> {
        self.kernels.get(kernel)
    }

    /// Folds another registry into this one (summing calls and times;
    /// threads/chunks take the other's most recent values).
    pub fn merge_from(&mut self, other: &KernelTelemetry) {
        for (name, r) in &other.kernels {
            let mine = self.kernels.entry(name.clone()).or_default();
            mine.calls += r.calls;
            mine.threads = r.threads;
            mine.chunks = r.chunks;
            mine.wall_s += r.wall_s;
            mine.merge_s += r.merge_s;
            mine.scratch_allocs += r.scratch_allocs;
            mine.scratch_reuses += r.scratch_reuses;
        }
    }

    /// Drops all records.
    pub fn clear(&mut self) {
        self.kernels.clear();
    }

    /// Returns the telemetry accumulated *since* `baseline` was cloned
    /// off this registry: per-kernel call counts and times are
    /// subtracted, kernels with no new calls are omitted.
    ///
    /// The coupler snapshots a simulator's telemetry before the run and
    /// uses this to attribute kernel time to the run itself, even when
    /// the same `System`/`FlashSim` instance already ran a calibration
    /// phase.
    pub fn delta_since(&self, baseline: &KernelTelemetry) -> KernelTelemetry {
        let mut out = KernelTelemetry::new();
        for (name, r) in &self.kernels {
            let base = baseline.get(name).copied().unwrap_or_default();
            if r.calls > base.calls {
                out.kernels.insert(
                    name.clone(),
                    KernelRecord {
                        calls: r.calls - base.calls,
                        threads: r.threads,
                        chunks: r.chunks,
                        wall_s: r.wall_s - base.wall_s,
                        merge_s: r.merge_s - base.merge_s,
                        scratch_allocs: r.scratch_allocs - base.scratch_allocs,
                        scratch_reuses: r.scratch_reuses - base.scratch_reuses,
                    },
                );
            }
        }
        out
    }

    /// Exports every kernel record into an [`obs::Registry`] under
    /// `<prefix>.<kernel>.*` — the adapter that lets simulation kernels
    /// report through the same sink as the solver and the coupler:
    /// `calls` adds to a counter, and the record's total `wall_s` and
    /// `merge_s` are one histogram observation each per export (the
    /// record keeps sums, not samples, so nothing finer is invented).
    pub fn export_into(&self, prefix: &str, registry: &obs::Registry) {
        for (name, r) in &self.kernels {
            registry.add(&format!("{prefix}.{name}.calls"), r.calls as u64);
            registry.observe_hist(&format!("{prefix}.{name}.wall_s"), r.wall_s);
            registry.observe_hist(&format!("{prefix}.{name}.merge_s"), r.merge_s);
        }
    }

    /// Plain-text table: one line per kernel.
    pub fn table(&self) -> String {
        let mut out = String::from(
            "kernel                 calls thr chk   wall(ms)  merge(ms)  alloc reuse\n",
        );
        for (name, r) in &self.kernels {
            out.push_str(&format!(
                "{name:<22} {:>5} {:>3} {:>3} {:>10.3} {:>10.3} {:>6} {:>5}\n",
                r.calls,
                r.threads,
                r.chunks,
                r.wall_s * 1e3,
                r.merge_s * 1e3,
                r.scratch_allocs,
                r.scratch_reuses,
            ));
        }
        out
    }

    /// JSON object keyed by kernel name.
    pub fn to_json(&self) -> Value {
        let mut root = BTreeMap::new();
        for (name, r) in &self.kernels {
            let mut o = BTreeMap::new();
            o.insert("calls".into(), Value::Number(r.calls as f64));
            o.insert("threads".into(), Value::Number(r.threads as f64));
            o.insert("chunks".into(), Value::Number(r.chunks as f64));
            o.insert("wall_ms".into(), Value::Number(r.wall_s * 1e3));
            o.insert("merge_ms".into(), Value::Number(r.merge_s * 1e3));
            o.insert("scratch_allocs".into(), Value::Number(r.scratch_allocs as f64));
            o.insert("scratch_reuses".into(), Value::Number(r.scratch_reuses as f64));
            root.insert(name.clone(), Value::Object(o));
        }
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 4, 16, 0.5, 0.1);
        t.record("md.force", 2, 16, 0.25, 0.05);
        let r = t.get("md.force").unwrap();
        assert_eq!(r.calls, 2);
        assert_eq!(r.threads, 2, "threads reflect the latest call");
        assert!((r.wall_s - 0.75).abs() < 1e-12);
        assert!((r.mean_wall_s() - 0.375).abs() < 1e-12);
        assert!(t.get("md.rdf").is_none());
    }

    #[test]
    fn merge_from_sums_counterpart() {
        let mut a = KernelTelemetry::new();
        a.record("hydro.step", 1, 8, 1.0, 0.0);
        let mut b = KernelTelemetry::new();
        b.record("hydro.step", 2, 8, 2.0, 0.5);
        b.record("hydro.vorticity", 2, 4, 0.1, 0.0);
        a.merge_from(&b);
        assert_eq!(a.get("hydro.step").unwrap().calls, 2);
        assert!((a.get("hydro.step").unwrap().wall_s - 3.0).abs() < 1e-12);
        assert_eq!(a.kernels.len(), 2);
    }

    #[test]
    fn delta_since_subtracts_the_baseline() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 4, 16, 0.5, 0.1);
        let baseline = t.clone();
        t.record("md.force", 4, 16, 0.25, 0.05);
        t.record("md.rdf", 4, 8, 0.2, 0.0);
        let d = t.delta_since(&baseline);
        let force = d.get("md.force").unwrap();
        assert_eq!(force.calls, 1);
        assert!((force.wall_s - 0.25).abs() < 1e-12);
        assert!((force.merge_s - 0.05).abs() < 1e-12);
        assert_eq!(d.get("md.rdf").unwrap().calls, 1);
        // a kernel with no new calls is omitted entirely
        assert!(t.delta_since(&t.clone()).kernels.is_empty());
    }

    #[test]
    fn export_into_populates_the_registry() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 4, 16, 0.5, 0.1);
        t.record("md.force", 4, 16, 0.3, 0.1);
        let reg = obs::Registry::new();
        t.export_into("sim", &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.md.force.calls"), Some(2));
        // the record's total, as measured: one observation per export
        let wall = snap.hist("sim.md.force.wall_s").unwrap();
        assert_eq!((wall.count, wall.min, wall.max), (1, 0.5 + 0.3, 0.5 + 0.3));
        assert_eq!(snap.hist("sim.md.force.merge_s").unwrap().max, 0.2);
    }

    #[test]
    fn scratch_counters_accumulate_and_delta() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 1, 8, 0.1, 0.0);
        t.record_scratch("md.force", 24, 0); // cold step: all misses
        let baseline = t.clone();
        t.record("md.force", 1, 8, 0.1, 0.0);
        t.record_scratch("md.force", 0, 24); // warm step: all reuses
        let r = t.get("md.force").unwrap();
        assert_eq!((r.scratch_allocs, r.scratch_reuses), (24, 24));
        let d = t.delta_since(&baseline);
        let dr = d.get("md.force").unwrap();
        assert_eq!((dr.scratch_allocs, dr.scratch_reuses), (0, 24));
        let mut merged = KernelTelemetry::new();
        merged.merge_from(&t);
        assert_eq!(merged.get("md.force").unwrap().scratch_allocs, 24);
        assert!(t.table().contains("alloc"));
        assert!(t.to_json().to_string_pretty().contains("\"scratch_allocs\""));
    }

    #[test]
    fn table_and_json_render_all_kernels() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 4, 16, 0.5, 0.1);
        t.record("md.rdf", 4, 8, 0.2, 0.02);
        let table = t.table();
        assert!(table.contains("md.force") && table.contains("md.rdf"));
        let json = t.to_json().to_string_pretty();
        assert!(json.contains("\"wall_ms\""));
        Value::parse(&json).expect("valid JSON");
        t.clear();
        assert!(t.kernels.is_empty());
    }
}
