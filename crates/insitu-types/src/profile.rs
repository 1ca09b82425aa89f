//! Per-analysis resource profiles — the rows of Table 1 of the paper.

use crate::error::TypeError;
use crate::units::{Bytes, Seconds};

/// Index of an analysis within a [`crate::ScheduleProblem`].
pub type AnalysisId = usize;

/// Resource profile of one candidate in-situ analysis (Table 1).
///
/// Every time is in seconds, every memory amount in bytes. A field is zero
/// when the corresponding cost does not apply to the analysis implementation
/// (e.g. FLASH-style analyses allocate on the fly, so `fm == 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisProfile {
    /// Human-readable name, unique within a problem (e.g. `"msd (A4)"`).
    pub name: String,
    /// `ft` — fixed setup time paid once at simulation start.
    pub fixed_time: Seconds,
    /// `it` — time paid at *every simulation step* to facilitate the
    /// analysis (e.g. copying simulation data into a history buffer).
    pub step_time: Seconds,
    /// `ct` — compute time paid at every *analysis* step.
    pub compute_time: Seconds,
    /// `ot` — time paid at every *output* step (writing analysis results).
    pub output_time: Seconds,
    /// `fm` — fixed memory allocated once at simulation start.
    pub fixed_mem: Bytes,
    /// `im` — input memory allocated at every simulation step.
    pub step_mem: Bytes,
    /// `cm` — memory allocated at every analysis step.
    pub compute_mem: Bytes,
    /// `om` — output buffer allocated at every output step.
    pub output_mem: Bytes,
    /// `w` — importance weight; larger = more important (Eq. 1).
    pub weight: f64,
    /// `itv` — minimum number of simulation steps between consecutive
    /// analysis steps. Must be >= 1.
    pub min_interval: usize,
    /// Number of analysis steps per output step (Fig. 1 shows output every 2
    /// analysis steps). `0` means the analysis never writes output.
    pub output_every: usize,
}

impl AnalysisProfile {
    /// Creates a profile with the given name and all costs zero, weight 1,
    /// interval 1 and no output. Use the builder-style `with_*` methods to
    /// fill in costs.
    pub fn new(name: impl Into<String>) -> Self {
        AnalysisProfile {
            name: name.into(),
            fixed_time: 0.0,
            step_time: 0.0,
            compute_time: 0.0,
            output_time: 0.0,
            fixed_mem: 0.0,
            step_mem: 0.0,
            compute_mem: 0.0,
            output_mem: 0.0,
            weight: 1.0,
            min_interval: 1,
            output_every: 0,
        }
    }

    /// Sets `ft` and `fm`, the one-time setup cost.
    pub fn with_fixed(mut self, time: Seconds, mem: Bytes) -> Self {
        self.fixed_time = time;
        self.fixed_mem = mem;
        self
    }

    /// Sets `it` and `im`, the per-simulation-step facilitation cost.
    pub fn with_per_step(mut self, time: Seconds, mem: Bytes) -> Self {
        self.step_time = time;
        self.step_mem = mem;
        self
    }

    /// Sets `ct` and `cm`, the per-analysis-step cost.
    pub fn with_compute(mut self, time: Seconds, mem: Bytes) -> Self {
        self.compute_time = time;
        self.compute_mem = mem;
        self
    }

    /// Sets `ot`, `om` and the output cadence (`output_every` analysis steps
    /// per output step).
    pub fn with_output(mut self, time: Seconds, mem: Bytes, every: usize) -> Self {
        self.output_time = time;
        self.output_mem = mem;
        self.output_every = every;
        self
    }

    /// Sets the importance weight `w`.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the minimum interval `itv` between analysis steps.
    pub fn with_interval(mut self, itv: usize) -> Self {
        self.min_interval = itv;
        self
    }

    /// Largest number of analysis steps possible in `steps` simulation steps
    /// under the interval constraint (Eq. 9): `floor(steps / itv)`.
    pub fn max_analysis_steps(&self, steps: usize) -> usize {
        steps / self.min_interval.max(1)
    }

    /// Total time this analysis costs if it runs `k` analysis steps and `q`
    /// output steps over a simulation of `steps` steps (the telescoped form
    /// of Eqs. 2–3):
    /// `ft + steps*it + k*ct + q*ot`.
    pub fn total_time(&self, steps: usize, k: usize, q: usize) -> Seconds {
        self.fixed_time
            + steps as Seconds * self.step_time
            + k as Seconds * self.compute_time
            + q as Seconds * self.output_time
    }

    /// Validates all Table-1 invariants (non-negative, finite, `itv >= 1`).
    pub fn validate(&self) -> Result<(), TypeError> {
        let checks: [(&'static str, f64); 9] = [
            ("ft", self.fixed_time),
            ("it", self.step_time),
            ("ct", self.compute_time),
            ("ot", self.output_time),
            ("fm", self.fixed_mem),
            ("im", self.step_mem),
            ("cm", self.compute_mem),
            ("om", self.output_mem),
            ("w", self.weight),
        ];
        for (parameter, value) in checks {
            if !value.is_finite() {
                return Err(TypeError::NonFiniteParameter {
                    analysis: self.name.clone(),
                    parameter,
                });
            }
            if value < 0.0 {
                return Err(TypeError::NegativeParameter {
                    analysis: self.name.clone(),
                    parameter,
                    value,
                });
            }
        }
        if self.min_interval == 0 {
            return Err(TypeError::ZeroInterval {
                analysis: self.name.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::MIB;

    fn sample() -> AnalysisProfile {
        AnalysisProfile::new("msd (A4)")
            .with_fixed(0.5, 128.0 * MIB)
            .with_per_step(0.001, MIB)
            .with_compute(2.0, 16.0 * MIB)
            .with_output(0.8, 8.0 * MIB, 2)
            .with_weight(2.0)
            .with_interval(100)
    }

    #[test]
    fn builder_sets_all_fields() {
        let p = sample();
        assert_eq!(p.fixed_time, 0.5);
        assert_eq!(p.step_time, 0.001);
        assert_eq!(p.compute_time, 2.0);
        assert_eq!(p.output_time, 0.8);
        assert_eq!(p.weight, 2.0);
        assert_eq!(p.min_interval, 100);
        assert_eq!(p.output_every, 2);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn max_analysis_steps_obeys_interval() {
        let p = sample();
        assert_eq!(p.max_analysis_steps(1000), 10);
        assert_eq!(p.max_analysis_steps(99), 0);
        assert_eq!(p.max_analysis_steps(100), 1);
    }

    #[test]
    fn total_time_telescopes() {
        let p = sample();
        // ft + steps*it + k*ct + q*ot
        let t = p.total_time(1000, 10, 5);
        assert!((t - (0.5 + 1.0 + 20.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_negatives() {
        let mut p = sample();
        p.compute_time = -1.0;
        assert!(matches!(
            p.validate(),
            Err(TypeError::NegativeParameter { parameter: "ct", .. })
        ));
    }

    #[test]
    fn validation_rejects_nan_and_zero_interval() {
        let mut p = sample();
        p.output_mem = f64::NAN;
        assert!(matches!(
            p.validate(),
            Err(TypeError::NonFiniteParameter { parameter: "om", .. })
        ));
        let mut p = sample();
        p.min_interval = 0;
        assert!(matches!(p.validate(), Err(TypeError::ZeroInterval { .. })));
    }
}
