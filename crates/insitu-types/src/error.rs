//! Error type for model construction and validation.

use std::fmt;

/// Errors raised while building or validating scheduling-model data.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// A parameter that must be non-negative was negative.
    NegativeParameter {
        /// Which analysis the parameter belongs to.
        analysis: String,
        /// Parameter name as in Table 1 (e.g. `ct`).
        parameter: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A parameter that must be finite was NaN or infinite.
    NonFiniteParameter {
        /// Which analysis the parameter belongs to.
        analysis: String,
        /// Parameter name as in Table 1.
        parameter: &'static str,
    },
    /// The minimum interval `itv` must be at least 1.
    ZeroInterval {
        /// Which analysis the parameter belongs to.
        analysis: String,
    },
    /// The problem must simulate at least one step.
    ZeroSteps,
    /// Two analyses share the same name; names key the schedule.
    DuplicateAnalysis {
        /// The duplicated name.
        analysis: String,
    },
    /// Free-form trace parse failure.
    TraceParse(String),
    /// JSON (de)serialization failure; see [`crate::json`].
    Parse(String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::NegativeParameter {
                analysis,
                parameter,
                value,
            } => write!(
                f,
                "analysis `{analysis}`: parameter {parameter} must be >= 0, got {value}"
            ),
            TypeError::NonFiniteParameter {
                analysis,
                parameter,
            } => write!(
                f,
                "analysis `{analysis}`: parameter {parameter} must be finite"
            ),
            TypeError::ZeroInterval { analysis } => {
                write!(f, "analysis `{analysis}`: minimum interval itv must be >= 1")
            }
            TypeError::ZeroSteps => write!(f, "problem must have at least one simulation step"),
            TypeError::DuplicateAnalysis { analysis } => {
                write!(f, "duplicate analysis name `{analysis}`")
            }
            TypeError::TraceParse(msg) => write!(f, "trace parse error: {msg}"),
            TypeError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TypeError::NegativeParameter {
            analysis: "msd".into(),
            parameter: "ct",
            value: -1.0,
        };
        let s = e.to_string();
        assert!(s.contains("msd") && s.contains("ct") && s.contains("-1"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(TypeError::ZeroSteps);
        assert!(e.to_string().contains("at least one"));
    }
}
