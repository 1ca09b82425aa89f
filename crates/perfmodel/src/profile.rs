//! Region profiling — the workspace's stand-in for IBM's HPM / HPCT tools.
//!
//! The paper brackets analysis routines with `HPM_Start()` / `HPM_Stop()`
//! to measure per-region compute and communication time, and uses HPCT to
//! estimate memory. [`RegionProfiler`] provides the same bracketed-region
//! interface over `std::time::Instant`, plus explicit memory annotations
//! (Rust has no portable heap-sampling hook, and the kernels know their
//! allocation sizes exactly).

use std::collections::HashMap;
use std::time::Instant;

/// A simple wall-clock stopwatch.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts (or restarts) the clock.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds since start.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Restarts and returns the previous lap's seconds.
    pub fn lap(&mut self) -> f64 {
        let e = self.elapsed();
        self.start = Instant::now();
        e
    }
}

/// Accumulated statistics for one profiled region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionStats {
    /// Number of completed start/stop brackets.
    pub count: usize,
    /// Total wall time across brackets, seconds.
    pub total_time: f64,
    /// Largest single bracket, seconds.
    pub max_time: f64,
    /// Peak annotated memory, bytes.
    pub peak_mem: f64,
}

impl RegionStats {
    /// Mean bracket duration.
    pub fn mean_time(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_time / self.count as f64
        }
    }
}

/// HPM-style named-region profiler.
#[derive(Debug, Default)]
pub struct RegionProfiler {
    open: HashMap<String, Instant>,
    stats: HashMap<String, RegionStats>,
}

impl RegionProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a region (`HPM_Start`). Re-opening an already-open region
    /// restarts its clock.
    pub fn start(&mut self, region: &str) {
        self.open.insert(region.to_string(), Instant::now());
    }

    /// Closes a region (`HPM_Stop`) and accumulates its duration. Returns
    /// the bracket duration, or `None` when the region was never opened.
    pub fn stop(&mut self, region: &str) -> Option<f64> {
        let started = self.open.remove(region)?;
        let secs = started.elapsed().as_secs_f64();
        let s = self.stats.entry(region.to_string()).or_default();
        s.count += 1;
        s.total_time += secs;
        s.max_time = s.max_time.max(secs);
        Some(secs)
    }

    /// Times a closure as one bracket of `region` and passes its result
    /// through.
    pub fn record<T>(&mut self, region: &str, f: impl FnOnce() -> T) -> T {
        self.start(region);
        let out = f();
        self.stop(region);
        out
    }

    /// Directly accumulates an externally-measured duration (useful when a
    /// model, not a clock, produced the number).
    pub fn add_time(&mut self, region: &str, secs: f64) {
        let s = self.stats.entry(region.to_string()).or_default();
        s.count += 1;
        s.total_time += secs;
        s.max_time = s.max_time.max(secs);
    }

    /// Annotates a region's memory usage; keeps the peak.
    pub fn annotate_mem(&mut self, region: &str, bytes: f64) {
        let s = self.stats.entry(region.to_string()).or_default();
        s.peak_mem = s.peak_mem.max(bytes);
    }

    /// Statistics of one region.
    pub fn region(&self, region: &str) -> Option<&RegionStats> {
        self.stats.get(region)
    }

    /// All regions sorted by descending total time.
    pub fn report(&self) -> Vec<(&str, &RegionStats)> {
        let mut v: Vec<_> = self.stats.iter().map(|(k, s)| (k.as_str(), s)).collect();
        v.sort_by(|a, b| b.1.total_time.partial_cmp(&a.1.total_time).unwrap());
        v
    }
}

/// Busy-waits for roughly `secs` — a deterministic-ish workload for tests.
#[doc(hidden)]
pub fn spin_for(secs: f64) {
    let sw = Stopwatch::start();
    while sw.elapsed() < secs {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_time() {
        let mut sw = Stopwatch::start();
        spin_for(0.005);
        let lap = sw.lap();
        assert!(lap >= 0.005, "lap {lap}");
        assert!(sw.elapsed() < lap); // restarted
    }

    #[test]
    fn bracketed_regions_accumulate() {
        let mut p = RegionProfiler::new();
        for _ in 0..3 {
            p.start("rdf");
            spin_for(0.002);
            let d = p.stop("rdf").unwrap();
            assert!(d >= 0.002);
        }
        let s = p.region("rdf").unwrap();
        assert_eq!(s.count, 3);
        assert!(s.total_time >= 0.006);
        assert!(s.max_time <= s.total_time);
        assert!(s.mean_time() > 0.0);
    }

    #[test]
    fn stop_without_start_is_none() {
        let mut p = RegionProfiler::new();
        assert!(p.stop("ghost").is_none());
    }

    #[test]
    fn record_closure_passes_value() {
        let mut p = RegionProfiler::new();
        let v = p.record("sum", || (0..100).sum::<i32>());
        assert_eq!(v, 4950);
        assert_eq!(p.region("sum").unwrap().count, 1);
    }

    #[test]
    fn memory_annotations_keep_peak() {
        let mut p = RegionProfiler::new();
        p.annotate_mem("msd", 100.0);
        p.annotate_mem("msd", 40.0);
        assert_eq!(p.region("msd").unwrap().peak_mem, 100.0);
    }

    #[test]
    fn report_sorted_by_total_time() {
        let mut p = RegionProfiler::new();
        p.add_time("small", 0.1);
        p.add_time("big", 5.0);
        p.add_time("mid", 1.0);
        let names: Vec<&str> = p.report().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["big", "mid", "small"]);
    }

    #[test]
    fn add_time_counts_brackets() {
        let mut p = RegionProfiler::new();
        p.add_time("model", 2.0);
        p.add_time("model", 3.0);
        let s = p.region("model").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_time, 5.0);
        assert_eq!(s.max_time, 3.0);
    }
}
