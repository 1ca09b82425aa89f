//! `service/v1` wire format of the scheduler-as-a-service tier.
//!
//! A request is a [`ScheduleProblem`] plus a caller-chosen correlation
//! id; a response carries the schedule **in the requester's own analysis
//! order**, the instance fingerprint the service cached it under, how
//! the result was produced ([`ResponseSource`]), and the certification
//! verdict string (`PROVED` / `FEASIBLE-ONLY` — the service never emits
//! `INVALID`; an uncertifiable result becomes an error instead). See
//! `docs/SERVICE.md` for the full contract.

use std::collections::BTreeMap;

use crate::error::TypeError;
use crate::json::{FromJson, ToJson, Value};
use crate::problem::ScheduleProblem;
use crate::schedule::Schedule;

/// Schema tag stamped on every `service/v1` request and response.
pub const SERVICE_SCHEMA: &str = "service/v1";

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Solved from scratch: not cached, no identical in-flight solve.
    Fresh,
    /// Served from the solved-instance cache.
    Hit,
    /// Coalesced onto an identical in-flight solve (one solve, many
    /// waiters).
    Dedup,
    /// Solved, but warm-started from a cached neighbor's incumbent.
    /// Reserved: `service/v1` is versioned, so the name stays parseable,
    /// but the current `SolveService` never emits it.
    Warm,
}

impl ResponseSource {
    /// Wire name of the source.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResponseSource::Fresh => "fresh",
            ResponseSource::Hit => "hit",
            ResponseSource::Dedup => "dedup",
            ResponseSource::Warm => "warm",
        }
    }

    /// Parses a wire name back into a source.
    pub fn parse(s: &str) -> Result<Self, TypeError> {
        match s {
            "fresh" => Ok(ResponseSource::Fresh),
            "hit" => Ok(ResponseSource::Hit),
            "dedup" => Ok(ResponseSource::Dedup),
            "warm" => Ok(ResponseSource::Warm),
            other => Err(TypeError::Parse(format!(
                "ResponseSource: unknown source '{other}'"
            ))),
        }
    }
}

impl std::fmt::Display for ResponseSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One solve request on the `service/v1` wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRequest {
    /// Caller-chosen correlation id, echoed back on the response.
    pub id: u64,
    /// The instance to solve, in the caller's own analysis order.
    pub problem: ScheduleProblem,
}

/// One solve response on the `service/v1` wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// Canonical instance fingerprint (32 hex chars) the service keyed
    /// the solve under; identical instances — in any analysis order —
    /// share it.
    pub fingerprint: String,
    /// How the result was produced.
    pub source: ResponseSource,
    /// Certification verdict string (`PROVED` or `FEASIBLE-ONLY`).
    pub verdict: String,
    /// Optimal Eq. 1 objective value.
    pub objective: f64,
    /// The optimal schedule, permuted back into the requester's analysis
    /// order.
    pub schedule: Schedule,
    /// Per-analysis analysis counts `k_i`, requester order.
    pub counts: Vec<usize>,
    /// Per-analysis output counts `q_i`, requester order.
    pub output_counts: Vec<usize>,
    /// Branch-and-bound nodes of the underlying solve (0 for cache hits).
    pub solver_nodes: usize,
    /// Whether the underlying solve's warm-start hint seeded the
    /// incumbent. Goes with [`ResponseSource::Warm`]: the current
    /// `SolveService` always sends `false`.
    pub hint_accepted: bool,
}

fn check_schema(m: &BTreeMap<String, Value>, ty: &str) -> Result<(), TypeError> {
    let schema = m
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| TypeError::Parse(format!("{ty}: missing field 'schema'")))?;
    if schema != SERVICE_SCHEMA {
        return Err(TypeError::Parse(format!(
            "{ty}: expected schema '{SERVICE_SCHEMA}', got '{schema}'"
        )));
    }
    Ok(())
}

fn req_field<'v>(
    m: &'v BTreeMap<String, Value>,
    ty: &str,
    name: &str,
) -> Result<&'v Value, TypeError> {
    m.get(name)
        .ok_or_else(|| TypeError::Parse(format!("{ty}: missing field '{name}'")))
}

impl ToJson for ServiceRequest {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Value::String(SERVICE_SCHEMA.into()));
        m.insert("id".into(), Value::Number(self.id as f64));
        m.insert("problem".into(), self.problem.to_json());
        Value::Object(m)
    }
}

impl FromJson for ServiceRequest {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "ServiceRequest";
        let m = match v {
            Value::Object(m) => m,
            _ => return Err(TypeError::Parse(format!("{TY}: expected object"))),
        };
        check_schema(m, TY)?;
        Ok(ServiceRequest {
            id: req_field(m, TY, "id")?.expect_usize("id")? as u64,
            problem: ScheduleProblem::from_json(req_field(m, TY, "problem")?)?,
        })
    }
}

impl ToJson for ServiceResponse {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Value::String(SERVICE_SCHEMA.into()));
        m.insert("id".into(), Value::Number(self.id as f64));
        m.insert(
            "fingerprint".into(),
            Value::String(self.fingerprint.clone()),
        );
        m.insert("source".into(), Value::String(self.source.as_str().into()));
        m.insert("verdict".into(), Value::String(self.verdict.clone()));
        m.insert("objective".into(), Value::Number(self.objective));
        m.insert("schedule".into(), self.schedule.to_json());
        m.insert(
            "counts".into(),
            Value::Array(self.counts.iter().map(|&k| Value::Number(k as f64)).collect()),
        );
        m.insert(
            "output_counts".into(),
            Value::Array(
                self.output_counts
                    .iter()
                    .map(|&q| Value::Number(q as f64))
                    .collect(),
            ),
        );
        m.insert(
            "solver_nodes".into(),
            Value::Number(self.solver_nodes as f64),
        );
        m.insert("hint_accepted".into(), Value::Bool(self.hint_accepted));
        Value::Object(m)
    }
}

impl FromJson for ServiceResponse {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "ServiceResponse";
        let m = match v {
            Value::Object(m) => m,
            _ => return Err(TypeError::Parse(format!("{TY}: expected object"))),
        };
        check_schema(m, TY)?;
        let usizes = |name: &str| -> Result<Vec<usize>, TypeError> {
            req_field(m, TY, name)?
                .expect_array(name)?
                .iter()
                .map(|x| x.expect_usize(name))
                .collect()
        };
        Ok(ServiceResponse {
            id: req_field(m, TY, "id")?.expect_usize("id")? as u64,
            fingerprint: req_field(m, TY, "fingerprint")?
                .expect_str("fingerprint")?
                .to_string(),
            source: ResponseSource::parse(req_field(m, TY, "source")?.expect_str("source")?)?,
            verdict: req_field(m, TY, "verdict")?.expect_str("verdict")?.to_string(),
            objective: req_field(m, TY, "objective")?.expect_f64("objective")?,
            schedule: Schedule::from_json(req_field(m, TY, "schedule")?)?,
            counts: usizes("counts")?,
            output_counts: usizes("output_counts")?,
            solver_nodes: req_field(m, TY, "solver_nodes")?.expect_usize("solver_nodes")?,
            hint_accepted: req_field(m, TY, "hint_accepted")?
                .as_bool()
                .ok_or_else(|| TypeError::Parse(format!("{TY}: hint_accepted: expected bool")))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::profile::AnalysisProfile;
    use crate::resources::ResourceConfig;
    use crate::schedule::AnalysisSchedule;

    fn request() -> ServiceRequest {
        ServiceRequest {
            id: 42,
            problem: ScheduleProblem::new(
                vec![AnalysisProfile::new("rdf").with_compute(1.0, 0.0).with_interval(10)],
                ResourceConfig::from_total_threshold(100, 5.0, 1e9, 1e9),
            )
            .unwrap(),
        }
    }

    #[test]
    fn request_round_trips() {
        let r = request();
        let text = json::to_string(&r);
        assert!(text.contains("\"schema\":\"service/v1\""));
        assert_eq!(json::from_str::<ServiceRequest>(&text).unwrap(), r);
    }

    #[test]
    fn response_round_trips() {
        let mut schedule = Schedule::empty(1);
        schedule.per_analysis[0] = AnalysisSchedule::new(vec![50, 100], vec![100]);
        let r = ServiceResponse {
            id: 7,
            fingerprint: "00ff".repeat(8),
            source: ResponseSource::Warm,
            verdict: "PROVED".into(),
            objective: 3.5,
            schedule,
            counts: vec![2],
            output_counts: vec![1],
            solver_nodes: 9,
            hint_accepted: true,
        };
        let text = json::to_string(&r);
        assert_eq!(json::from_str::<ServiceResponse>(&text).unwrap(), r);
    }

    #[test]
    fn wrong_schema_rejected() {
        let mut v = request().to_json();
        if let Value::Object(m) = &mut v {
            m.insert("schema".into(), Value::String("service/v0".into()));
        }
        assert!(ServiceRequest::from_json(&v).is_err());
    }

    #[test]
    fn source_names_round_trip() {
        for s in [
            ResponseSource::Fresh,
            ResponseSource::Hit,
            ResponseSource::Dedup,
            ResponseSource::Warm,
        ] {
            assert_eq!(ResponseSource::parse(s.as_str()).unwrap(), s);
            assert_eq!(format!("{s}"), s.as_str());
        }
        assert!(ResponseSource::parse("nope").is_err());
    }
}
