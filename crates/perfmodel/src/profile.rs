//! Region timing — the workspace's stand-in for IBM's HPM / HPCT tools.
//!
//! The paper brackets analysis routines with `HPM_Start()` / `HPM_Stop()`
//! to measure per-region compute and communication time, and uses HPCT to
//! estimate memory. [`Stopwatch`] is that bracket over `std::time::Instant`:
//! the coupler starts one around each simulation step, analysis call and
//! output, and reads it back as the Table-1 time of that region. Memory is
//! not sampled: the kernels report their allocation sizes exactly.

use std::time::Instant;

/// A simple wall-clock stopwatch.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock (`HPM_Start`).
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds since start (`HPM_Stop`, without stopping).
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let e = sw.elapsed();
        assert!(e >= 0.005, "elapsed {e}");
    }
}
