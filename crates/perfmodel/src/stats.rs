//! Prediction-error statistics.
//!
//! The paper validates its interpolation by reporting relative prediction
//! error (<6 % compute, <8 % communication). [`PredictionErrors`]
//! accumulates `(predicted, measured)` pairs and reports the same metrics.

/// Accumulator of relative prediction errors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictionErrors {
    errors: Vec<f64>,
}

impl PredictionErrors {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(predicted, measured)` pair. Measured values of zero
    /// are skipped (relative error undefined).
    pub fn record(&mut self, predicted: f64, measured: f64) {
        if measured != 0.0 {
            self.errors.push(((predicted - measured) / measured).abs());
        }
    }

    /// Number of recorded pairs.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Mean relative error (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.errors.is_empty() {
            0.0
        } else {
            self.errors.iter().sum::<f64>() / self.errors.len() as f64
        }
    }

    /// Maximum relative error (0 when empty).
    pub fn max(&self) -> f64 {
        self.errors.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean relative error as a percentage.
    pub fn mean_percent(&self) -> f64 {
        self.mean() * 100.0
    }

    /// Max relative error as a percentage.
    pub fn max_percent(&self) -> f64 {
        self.max() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        let mut e = PredictionErrors::new();
        e.record(11.0, 10.0); // 10%
        e.record(9.5, 10.0); // 5%
        assert_eq!(e.len(), 2);
        assert!((e.mean_percent() - 7.5).abs() < 1e-9);
        assert!((e.max_percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_measured_skipped() {
        let mut e = PredictionErrors::new();
        e.record(1.0, 0.0);
        assert!(e.is_empty());
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max(), 0.0);
    }

    #[test]
    fn error_is_symmetric_in_magnitude() {
        let mut e = PredictionErrors::new();
        e.record(8.0, 10.0);
        e.record(12.0, 10.0);
        assert!((e.mean() - 0.2).abs() < 1e-12);
    }
}
