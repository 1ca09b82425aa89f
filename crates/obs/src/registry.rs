//! One sink for the workspace's counters and histograms.
//!
//! Every telemetry struct in the workspace (`KernelTelemetry`,
//! `SolveStats`, the coupler's `RunReport`, the advisor's
//! `Recommendation`) has an `export_into(&Registry)` adapter in its own
//! crate, so a coupled run and a solve report through one [`Registry`]
//! and print one [`Snapshot`]. Names are dotted paths (`"md.force.wall_s"`,
//! `"milp.nodes_explored"`); snapshots iterate them in sorted order, so
//! output is deterministic.

use crate::flight::FlightRecorder;
use crate::hist::Hist;
use crate::json::{push_str_lit, push_u64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

/// Thread-safe sink for named counters (u64, additive) and log₂-bucket
/// histograms ([`Hist`]: count, min, max and the bucketed distribution
/// of f64 observations, with quantile estimates).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    flight: OnceLock<Arc<FlightRecorder>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tees every subsequent counter increment into `flight` as a
    /// [`crate::FlightEntry::Delta`]. One recorder per registry; later
    /// calls are ignored.
    pub fn attach_flight(&self, flight: Arc<FlightRecorder>) {
        let _ = self.flight.set(flight);
    }

    /// Adds `v` to the counter `name` (created at zero on first use). A
    /// zero increment still creates the counter but is not an event: it
    /// is not teed into the flight ring, whose bounded window is for
    /// things that happened.
    pub fn add(&self, name: &str, v: u64) {
        {
            let mut inner = self.inner.lock().unwrap();
            match inner.counters.get_mut(name) {
                Some(c) => *c += v,
                None => {
                    inner.counters.insert(name.to_string(), v);
                }
            }
        }
        if v == 0 {
            return;
        }
        if let Some(flight) = self.flight.get() {
            flight.record_delta(name, v);
        }
    }

    /// Folds one observation `v` into the histogram `name`. The name is
    /// copied only when the histogram is new, so a steady-state
    /// observation does not allocate.
    pub fn observe_hist(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.hists.get_mut(name) {
            Some(h) => h.observe(v),
            None => inner.hists.entry(name.to_string()).or_default().observe(v),
        }
    }

    /// Deterministic (name-sorted) copy of the registry's current state.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: inner.hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }
}

/// A point-in-time, name-sorted copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub hists: Vec<(String, Hist)>,
}

impl Snapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Histogram `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Plain-text table of every counter and histogram, for run footers.
    pub fn table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("  counter                                  value\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {v}");
            }
        }
        if !self.hists.is_empty() {
            out.push_str(
                "  hist                                     count        p50        p90        p99        min        max\n",
            );
            for (name, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {name:<40} {:>5} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                    h.count,
                    h.quantile(0.50).unwrap_or(0.0),
                    h.quantile(0.90).unwrap_or(0.0),
                    h.quantile(0.99).unwrap_or(0.0),
                    if h.is_empty() { 0.0 } else { h.min },
                    if h.is_empty() { 0.0 } else { h.max },
                );
            }
        }
        if out.is_empty() {
            out.push_str("  (registry empty)\n");
        }
        out
    }

    /// JSON export: `{"counters": {name: value}, "hists": {name:
    /// obs/hist/v1 object}}`.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, name);
            out.push(':');
            push_u64(&mut out, *v);
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_lit(&mut out, name);
            out.push(':');
            out.push_str(&h.to_json_string());
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorts() {
        let r = Registry::new();
        r.add("z.late", 1);
        r.add("a.early", 2);
        r.add("a.early", 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.early"), Some(5));
        assert_eq!(snap.counter("z.late"), Some(1));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.counters[0].0, "a.early");
    }

    #[test]
    fn table_and_json_render_both_kinds() {
        let r = Registry::new();
        r.add("milp.nodes_explored", 12);
        r.observe_hist("md.force.wall_s", 0.25);
        let snap = r.snapshot();
        let table = snap.table();
        assert!(table.contains("milp.nodes_explored"));
        assert!(table.contains("md.force.wall_s"));
        let json = snap.to_json_string();
        assert!(json.contains("\"milp.nodes_explored\":12"));
        assert!(json.contains("\"md.force.wall_s\":{\"schema\":\"obs/hist/v1\",\"count\":1"));
        assert!(!json.contains("meters"));
        assert!(Registry::new().snapshot().table().contains("registry empty"));
    }

    #[test]
    fn hists_register_next_to_counters() {
        let r = Registry::new();
        r.observe_hist("service.request.latency_s.fresh", 0.25);
        r.observe_hist("service.request.latency_s.fresh", 3.0);
        r.observe_hist("service.request.latency_s.fresh", 0.75);
        let snap = r.snapshot();
        let h = snap.hist("service.request.latency_s.fresh").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0.25);
        assert_eq!(h.max, 3.0);
        assert!(snap.hist("ignored.empty").is_none());
        assert!(snap.table().contains("p50"));
        let json = snap.to_json_string();
        assert!(json.contains(
            "\"hists\":{\"service.request.latency_s.fresh\":{\"schema\":\"obs/hist/v1\""
        ));
    }

    #[test]
    fn hist_snapshot_is_order_invariant() {
        // same multiset of observations, different arrival orders ->
        // byte-identical snapshot JSON
        let values = [0.1, 0.4, 0.4, 1.7, 2.0, 9.5];
        let a = Registry::new();
        for &v in &values {
            a.observe_hist("h", v);
        }
        let b = Registry::new();
        for &v in values.iter().rev().take(3) {
            b.observe_hist("h", v);
        }
        for &v in values.iter().take(3).rev() {
            b.observe_hist("h", v);
        }
        assert_eq!(a.snapshot().to_json_string(), b.snapshot().to_json_string());
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = std::sync::Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.add("hits", 1);
                        r.observe_hist("v", 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits"), Some(400));
        assert_eq!(snap.hist("v").unwrap().count, 400);
    }
}
