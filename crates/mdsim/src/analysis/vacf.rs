//! Velocity auto-correlation function (paper analysis A3).
//!
//! A temporal analysis: a ring buffer of velocity snapshots is appended to
//! **every simulation step** (this is exactly the paper's `it`/`im` cost —
//! "the time required to copy simulation data from simulation memory to
//! temporary analysis memory so that data is not overwritten and
//! facilitates temporal analysis", §3.2), and at each analysis step the
//! correlation `C(τ) = ⟨v(t)·v(t+τ)⟩ / ⟨v·v⟩` is evaluated over the window.

use crate::analysis::sink::OutputSink;
use crate::system::{Species, System};
use insitu_core::runtime::Analysis;
use std::collections::VecDeque;

/// VACF kernel over a set of tracked species.
#[derive(Debug)]
pub struct Vacf {
    name: String,
    species: Vec<Species>,
    tracked: Vec<usize>,
    /// Ring buffer of velocity snapshots, each 3×N_tracked flattened.
    /// A `VecDeque` so eviction at capacity is O(1), not an O(window)
    /// front-shift. Once the window is full, `record` overwrites the
    /// evicted snapshot in place: it allocates only while the window fills.
    window: VecDeque<Vec<f64>>,
    capacity: usize,
    /// Most recent correlation curve.
    pub correlation: Vec<f64>,
    /// Output destination.
    pub sink: OutputSink,
}

impl Vacf {
    /// Creates a VACF kernel with a history window of `capacity` steps.
    pub fn new(name: &str, species: Vec<Species>, capacity: usize) -> Self {
        Vacf {
            name: name.to_string(),
            species,
            tracked: Vec::new(),
            window: VecDeque::new(),
            capacity: capacity.max(2),
            correlation: Vec::new(),
            sink: OutputSink::null(),
        }
    }

    /// Appends the current velocities to the history window, evicting the
    /// oldest snapshot once the window is full and reusing its buffer.
    pub fn record(&mut self, system: &System) {
        let mut snap = if self.window.len() == self.capacity {
            self.window.pop_front().expect("a full window is not empty")
        } else {
            vec![0.0; 3 * self.tracked.len()]
        };
        for (v, &i) in snap.chunks_exact_mut(3).zip(&self.tracked) {
            v.copy_from_slice(&system.velocity(i));
        }
        self.window.push_back(snap);
    }

    /// Computes the normalized correlation `C(τ)` for `τ = 0..window-1`,
    /// referenced to the oldest snapshot in the window.
    pub fn compute(&mut self) -> &[f64] {
        self.correlation.clear();
        let Some(reference) = self.window.front() else {
            return &self.correlation;
        };
        let norm: f64 = reference.iter().map(|v| v * v).sum();
        for snap in &self.window {
            let dot: f64 = reference.iter().zip(snap).map(|(a, b)| a * b).sum();
            self.correlation
                .push(if norm > 0.0 { dot / norm } else { 0.0 });
        }
        &self.correlation
    }

    /// Bytes held by the history window (the accumulating `im` memory).
    pub fn window_bytes(&self) -> usize {
        self.window.iter().map(|w| w.len() * 8).sum()
    }

    /// Number of snapshots currently held.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }
}

impl Analysis<System> for Vacf {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&mut self, state: &System) {
        self.tracked = self
            .species
            .iter()
            .flat_map(|&s| state.of_species(s))
            .collect();
        // the tracked set (and hence the snapshot length) may change
        self.window.clear();
    }

    fn per_step(&mut self, state: &System) {
        self.record(state);
    }

    fn analyze(&mut self, _state: &System) {
        self.compute();
    }

    fn output(&mut self, state: &System) {
        let mut text = format!("# vacf step {}\n", state.step_count);
        for (tau, c) in self.correlation.iter().enumerate() {
            text.push_str(&format!("{tau} {c:.8}\n"));
        }
        self.sink.emit(text.as_bytes());
        self.window.clear(); // history released at output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::ForceField;
    use crate::system::SimBox;

    fn free_system() -> System {
        let mut s = System::new(SimBox::cubic(50.0), ForceField::none(), 0.05);
        s.add_particle(Species::Water, [10.0, 10.0, 10.0], [1.0, 0.0, 0.0]);
        s.add_particle(Species::Water, [20.0, 20.0, 20.0], [0.0, -1.0, 0.0]);
        s
    }

    #[test]
    fn constant_velocities_give_unit_correlation() {
        let mut s = free_system();
        let mut vacf = Vacf::new("t", vec![Species::Water], 10);
        vacf.setup(&s);
        for _ in 0..10 {
            s.step(); // no forces: velocities constant
            vacf.record(&s);
        }
        let c = vacf.compute().to_vec();
        assert_eq!(c.len(), 10);
        for v in c {
            assert!((v - 1.0).abs() < 1e-12, "correlation {v}");
        }
    }

    #[test]
    fn sign_flip_gives_negative_correlation() {
        let mut s = free_system();
        let mut vacf = Vacf::new("t", vec![Species::Water], 4);
        vacf.setup(&s);
        vacf.record(&s);
        // manually reverse all velocities (like a reflecting event)
        for d in 0..3 {
            s.vel[d].iter_mut().for_each(|v| *v = -*v);
        }
        vacf.record(&s);
        let c = vacf.compute().to_vec();
        assert!((c[0] - 1.0).abs() < 1e-12);
        assert!((c[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ring_buffer_caps_memory() {
        let s = free_system();
        let mut vacf = Vacf::new("t", vec![Species::Water], 5);
        vacf.setup(&s);
        for _ in 0..20 {
            vacf.record(&s);
        }
        assert_eq!(vacf.window_len(), 5);
        assert_eq!(vacf.window_bytes(), 5 * 2 * 3 * 8);
    }

    #[test]
    fn output_flushes_window() {
        let mut s = free_system();
        let mut vacf = Vacf::new("t", vec![Species::Water], 8);
        vacf.setup(&s);
        for _ in 0..5 {
            s.step();
            vacf.per_step(&s);
        }
        vacf.analyze(&s);
        assert!(!vacf.correlation.is_empty());
        vacf.output(&s);
        assert_eq!(vacf.window_len(), 0);
        assert!(vacf.sink.bytes_written > 0);
    }

    #[test]
    fn empty_window_is_safe() {
        let mut vacf = Vacf::new("t", vec![Species::Water], 4);
        assert!(vacf.compute().is_empty());
    }

    #[test]
    fn snapshot_pool_reaches_steady_state() {
        let mut s = free_system();
        let mut vacf = Vacf::new("t", vec![Species::Water], 5);
        vacf.setup(&s);
        for _ in 0..5 {
            vacf.record(&s);
        }
        // steady state: each record overwrites the buffer it evicts
        for step in 0..50 {
            s.vel[0][1] = step as f64;
            let evicted = vacf.window[0].as_ptr();
            vacf.record(&s);
            assert_eq!(vacf.window_len(), 5);
            let newest = vacf.window.back().expect("a full window");
            assert_eq!(newest.as_ptr(), evicted, "step {step} allocated");
            assert_eq!(newest[..], [1.0, 0.0, 0.0, step as f64, -1.0, 0.0]);
        }
        // output frees the history
        vacf.output(&s);
        assert_eq!(vacf.window_bytes(), 0);
    }
}
