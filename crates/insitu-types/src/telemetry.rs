//! Per-kernel execution telemetry.
//!
//! Every parallelized simulation kernel records how long it ran, how long
//! the ordered merge of partial results took and how many scratch buffers
//! it had to allocate. Each call is timed once, by one `Instant` bracket
//! in the code that records it. The records accumulate on the owning
//! state (`System`, `FlashSim`) and surface in the coupler's `RunReport`,
//! from which the repo benchmark reads its `mdsim.*`, `amrsim.*` and
//! `parallel.*` layer metrics. Analysis kernels record nothing here: the
//! coupler times each analysis call (`RunReport::analysis_times`).

use std::collections::BTreeMap;

/// Accumulated telemetry of one kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelRecord {
    /// Number of invocations recorded.
    pub calls: usize,
    /// Total wall seconds across all invocations.
    pub wall_s: f64,
    /// Total seconds spent in ordered merges across all invocations.
    pub merge_s: f64,
    /// Scratch buffers freshly allocated across all invocations (pool
    /// misses). Zero in steady state once the kernel's scratch pool is
    /// warm.
    pub scratch_allocs: usize,
}

/// Telemetry registry: one [`KernelRecord`] per kernel name.
///
/// Kernel names are dotted lowercase identifiers (`md.force`,
/// `hydro.step`, ...); the `BTreeMap` keeps reports in a stable order.
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

    /// Records one invocation of `kernel`: its wall seconds and the
    /// seconds of its ordered merge (a part of the wall).
    pub fn record(&mut self, kernel: &str, wall_s: f64, merge_s: f64) {
        let r = self.kernels.entry(kernel.to_string()).or_default();
        r.calls += 1;
        r.wall_s += wall_s;
        r.merge_s += merge_s;
    }

    /// Adds scratch allocations to `kernel` without counting a call.
    /// Kernels call this right after [`KernelTelemetry::record`] with the
    /// pool's allocation count over the invocation, so a run report can
    /// show steady-state allocations reaching zero (`mdsim.scratch_allocs`
    /// in `BENCHMARK.json`).
    pub fn record_scratch(&mut self, kernel: &str, allocs: usize) {
        self.kernels
            .entry(kernel.to_string())
            .or_default()
            .scratch_allocs += allocs;
    }

    /// Record for `kernel`, if any invocation has been recorded.
    pub fn get(&self, kernel: &str) -> Option<&KernelRecord> {
        self.kernels.get(kernel)
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
                        wall_s: r.wall_s - base.wall_s,
                        merge_s: r.merge_s - base.merge_s,
                        scratch_allocs: r.scratch_allocs - base.scratch_allocs,
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
        let mut out = String::from("kernel                 calls   wall(ms)  merge(ms)  alloc\n");
        for (name, r) in &self.kernels {
            out.push_str(&format!(
                "{name:<22} {:>5} {:>10.3} {:>10.3} {:>6}\n",
                r.calls,
                r.wall_s * 1e3,
                r.merge_s * 1e3,
                r.scratch_allocs,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 0.5, 0.1);
        t.record("md.force", 0.25, 0.05);
        let r = t.get("md.force").unwrap();
        assert_eq!(r.calls, 2);
        assert!((r.wall_s - 0.75).abs() < 1e-12);
        assert!((r.merge_s - 0.15).abs() < 1e-12);
        assert!(t.get("md.rdf").is_none());
    }

    #[test]
    fn delta_since_subtracts_the_baseline() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 0.5, 0.1);
        let baseline = t.clone();
        t.record("md.force", 0.25, 0.05);
        t.record("md.rdf", 0.2, 0.0);
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
        t.record("md.force", 0.5, 0.1);
        t.record("md.force", 0.3, 0.1);
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
    fn scratch_allocs_accumulate_and_delta() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 0.1, 0.0);
        t.record_scratch("md.force", 24); // cold step: all misses
        let baseline = t.clone();
        t.record("md.force", 0.1, 0.0);
        t.record_scratch("md.force", 0); // warm step: served by the pool
        assert_eq!(t.get("md.force").unwrap().scratch_allocs, 24);
        let d = t.delta_since(&baseline);
        assert_eq!(d.get("md.force").unwrap().scratch_allocs, 0);
        assert!(t.table().contains("alloc"));
    }

    #[test]
    fn table_renders_all_kernels() {
        let mut t = KernelTelemetry::new();
        t.record("md.force", 0.5, 0.1);
        t.record("md.rdf", 0.2, 0.02);
        let table = t.table();
        assert!(table.contains("md.force") && table.contains("md.rdf"));
        assert!(table.contains("500.000"), "wall in ms: {table}");
        t.clear();
        assert!(t.kernels.is_empty());
    }
}
