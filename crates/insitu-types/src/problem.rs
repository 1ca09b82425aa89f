//! The scheduling problem: a set of candidate analyses plus resources.

use crate::error::TypeError;
use crate::profile::AnalysisProfile;
use crate::resources::ResourceConfig;

/// A complete instance of the paper's optimization problem: the candidate
/// analysis set `A` (with per-analysis Table-1 parameters) and the global
/// resource configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleProblem {
    /// Candidate analyses, indexed by [`AnalysisId`](crate::AnalysisId).
    pub analyses: Vec<AnalysisProfile>,
    /// Global resource limits and step count.
    pub resources: ResourceConfig,
}

impl ScheduleProblem {
    /// Builds and validates a problem instance.
    pub fn new(
        analyses: Vec<AnalysisProfile>,
        resources: ResourceConfig,
    ) -> Result<Self, TypeError> {
        let p = ScheduleProblem { analyses, resources };
        p.validate()?;
        Ok(p)
    }

    /// Number of candidate analyses.
    pub fn len(&self) -> usize {
        self.analyses.len()
    }

    /// True when no analyses are requested.
    pub fn is_empty(&self) -> bool {
        self.analyses.is_empty()
    }

    /// Validates every profile, the resource block, and name uniqueness.
    pub fn validate(&self) -> Result<(), TypeError> {
        self.resources.validate()?;
        let mut names = std::collections::HashSet::new();
        for a in &self.analyses {
            a.validate()?;
            if !names.insert(a.name.as_str()) {
                return Err(TypeError::DuplicateAnalysis {
                    analysis: a.name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::GIB;

    fn problem() -> ScheduleProblem {
        ScheduleProblem::new(
            vec![
                AnalysisProfile::new("rdf").with_compute(1.0, GIB).with_interval(100),
                AnalysisProfile::new("msd")
                    .with_fixed(2.0, GIB)
                    .with_per_step(0.01, 0.0)
                    .with_compute(5.0, GIB)
                    .with_interval(100),
            ],
            ResourceConfig::new(1000, 0.05, 8.0 * GIB, GIB),
        )
        .unwrap()
    }

    #[test]
    fn len_counts_analyses() {
        let p = problem();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = ScheduleProblem::new(
            vec![AnalysisProfile::new("x"), AnalysisProfile::new("x")],
            ResourceConfig::default(),
        );
        assert!(matches!(r, Err(TypeError::DuplicateAnalysis { .. })));
    }

    #[test]
    fn invalid_profile_rejected() {
        let mut a = AnalysisProfile::new("bad");
        a.weight = -3.0;
        let r = ScheduleProblem::new(vec![a], ResourceConfig::default());
        assert!(r.is_err());
    }
}
