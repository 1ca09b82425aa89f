//! `service/v1` wire format of the scheduler-as-a-service tier.
//!
//! A request is a [`ScheduleProblem`] plus a caller-chosen correlation
//! id; a response carries the schedule **in the requester's own analysis
//! order**, the instance fingerprint the service cached it under, how
//! the result was produced ([`ResponseSource`]), and the certification
//! verdict string (`PROVED` / `FEASIBLE-ONLY` — the service never emits
//! `INVALID`; an uncertifiable result becomes an error instead). See
//! `docs/SERVICE.md` for the full contract.
//!
//! Both message types go through the generic [`Value`] tree like every
//! other document ([`FromJson`] / [`ToJson`]). The service's own hot path
//! does not: [`ServiceRequest::decode`] reads a request in one pass, and
//! [`ResponseHead::render`] writes a response around a schedule rendered
//! ahead of time. Each answers exactly what the tree does.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::TypeError;
use crate::json::{self, render_number, render_string, usize_of, FromJson, Parser, ToJson, Value};
use crate::problem::ScheduleProblem;
use crate::profile::AnalysisProfile;
use crate::resources::ResourceConfig;
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

impl ServiceRequest {
    /// Decodes a `service/v1` request: [`json::from_str`]'s answer, read in
    /// one pass from the bytes to the [`ScheduleProblem`], with no
    /// [`Value`] tree and no key allocated. The pass uses `json`'s own
    /// lexer and depth count, and takes any key order, whitespace, escapes,
    /// unknown members and repeated keys (the last one wins). Anything else
    /// — a syntax error, a member of the wrong type, a missing field — it
    /// hands to [`json::from_str`], so every error and its message is
    /// `from_str`'s, and it never accepts a document `from_str` refuses.
    pub fn decode(text: &str) -> Result<ServiceRequest, TypeError> {
        decode_in_one_pass(text).map_or_else(|| json::from_str(text), Ok)
    }
}

/// The one pass of [`ServiceRequest::decode`] alone: `None` wherever it
/// leaves the request to [`json::from_str`]. Public so that the wire
/// differential can tell which of the two answered.
#[doc(hidden)]
pub fn decode_in_one_pass(text: &str) -> Option<ServiceRequest> {
    let mut p = Parser::new(text);
    let request = request(&mut p).ok()?;
    p.finish().ok()?;
    Some(request)
}

/// The one pass's only error: "leave this one to `json::from_str`". Its
/// message is never shown.
fn defer() -> TypeError {
    TypeError::Parse(String::new())
}

/// Skips a member no `service/v1` type has, with the depth count of the
/// document it sits in.
fn skip(p: &mut Parser<'_>) -> Result<(), TypeError> {
    p.value().map(drop)
}

// Every member is kept as its last binding, as `Value::parse`'s map keeps
// it, and converted once the object is closed, as `FromJson` converts it.

fn request(p: &mut Parser<'_>) -> Result<ServiceRequest, TypeError> {
    let (mut schema, mut id, mut problem) = (None, None, None);
    p.members(|p, key| {
        match key {
            "schema" => schema = Some(p.string_value()? == SERVICE_SCHEMA),
            "id" => id = Some(p.number_value()?),
            "problem" => problem = Some(schedule_problem(p)?),
            _ => skip(p)?,
        }
        Ok(())
    })?;
    if schema != Some(true) {
        return Err(defer());
    }
    Ok(ServiceRequest {
        id: id.and_then(usize_of).ok_or_else(defer)? as u64,
        problem: problem.ok_or_else(defer)?,
    })
}

fn schedule_problem(p: &mut Parser<'_>) -> Result<ScheduleProblem, TypeError> {
    let (mut analyses, mut resources) = (None, None);
    p.members(|p, key| {
        match key {
            "analyses" => {
                let mut list = Vec::new();
                p.items(|p| {
                    list.push(analysis_profile(p)?);
                    Ok(())
                })?;
                analyses = Some(list);
            }
            "resources" => resources = Some(resource_config(p)?),
            _ => skip(p)?,
        }
        Ok(())
    })?;
    Ok(ScheduleProblem {
        analyses: analyses.ok_or_else(defer)?,
        resources: resources.ok_or_else(defer)?,
    })
}

/// [`AnalysisProfile`]'s number members, in the order of its fields.
const PROFILE_NUMBERS: [&str; 11] = [
    "fixed_time",
    "step_time",
    "compute_time",
    "output_time",
    "fixed_mem",
    "step_mem",
    "compute_mem",
    "output_mem",
    "weight",
    "min_interval",
    "output_every",
];

/// [`ResourceConfig`]'s members, in the order of its fields.
const RESOURCE_NUMBERS: [&str; 4] = ["steps", "step_threshold", "mem_threshold", "io_bandwidth"];

/// The members of one object that are all numbers, by name, last binding
/// kept; any other member is skipped, or read by `other`.
fn numbers<const N: usize>(
    p: &mut Parser<'_>,
    names: &[&str; N],
    mut other: impl FnMut(&mut Parser<'_>, &str) -> Result<(), TypeError>,
) -> Result<[f64; N], TypeError> {
    let mut values = [None; N];
    p.members(|p, key| match names.iter().position(|&name| name == key) {
        Some(slot) => {
            values[slot] = Some(p.number_value()?);
            Ok(())
        }
        None => other(p, key),
    })?;
    let mut out = [0.0; N];
    for (out, value) in out.iter_mut().zip(values) {
        *out = value.ok_or_else(defer)?;
    }
    Ok(out)
}

fn analysis_profile(p: &mut Parser<'_>) -> Result<AnalysisProfile, TypeError> {
    let mut name = None;
    let [fixed_time, step_time, compute_time, output_time, fixed_mem, step_mem, compute_mem, output_mem, weight, min_interval, output_every] =
        numbers(p, &PROFILE_NUMBERS, |p, key| {
            if key == "name" {
                name = Some(p.string_value()?.into_owned());
                Ok(())
            } else {
                skip(p)
            }
        })?;
    Ok(AnalysisProfile {
        name: name.ok_or_else(defer)?,
        fixed_time,
        step_time,
        compute_time,
        output_time,
        fixed_mem,
        step_mem,
        compute_mem,
        output_mem,
        weight,
        min_interval: usize_of(min_interval).ok_or_else(defer)?,
        output_every: usize_of(output_every).ok_or_else(defer)?,
    })
}

fn resource_config(p: &mut Parser<'_>) -> Result<ResourceConfig, TypeError> {
    let [steps, step_threshold, mem_threshold, io_bandwidth] =
        numbers(p, &RESOURCE_NUMBERS, |p, _| skip(p))?;
    Ok(ResourceConfig {
        steps: usize_of(steps).ok_or_else(defer)?,
        step_threshold,
        mem_threshold,
        io_bandwidth,
    })
}

/// Every member of a `service/v1` response but the schedule, borrowed:
/// what [`ResponseHead::render`] writes around a schedule that was
/// rendered ahead of time. The fields mean [`ServiceResponse`]'s.
#[derive(Debug, Clone, Copy)]
pub struct ResponseHead<'a> {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// Canonical instance fingerprint, hex.
    pub fingerprint: &'a str,
    /// How the result was produced.
    pub source: ResponseSource,
    /// Certification verdict string.
    pub verdict: &'a str,
    /// Optimal Eq. 1 objective value.
    pub objective: f64,
    /// Per-analysis analysis counts, requester order.
    pub counts: &'a [usize],
    /// Per-analysis output counts, requester order.
    pub output_counts: &'a [usize],
    /// Branch-and-bound nodes of the underlying solve.
    pub solver_nodes: usize,
    /// Whether a warm-start hint seeded the incumbent.
    pub hint_accepted: bool,
}

impl ResponseHead<'_> {
    /// The response `json::to_string(&ServiceResponse { .. })` renders,
    /// byte for byte, with `schedule` holding each analysis's schedule as
    /// its own document (`json::to_string(&AnalysisSchedule)`), in the
    /// response's analysis order. Members go out in the order `ToJson`'s
    /// sorted map writes them, numbers and strings by `json`'s own rules.
    /// The reply is measured first, so its `String` is allocated once, at
    /// its exact length.
    pub fn render(&self, schedule: &[&str]) -> String {
        let mut length = Length(0);
        self.write(schedule, &mut length)
            .expect("counting bytes cannot fail");
        let mut out = String::with_capacity(length.0);
        self.write(schedule, &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write<W: fmt::Write>(&self, schedule: &[&str], out: &mut W) -> fmt::Result {
        out.write_str("{\"counts\":")?;
        write_counts(self.counts, out)?;
        out.write_str(",\"fingerprint\":")?;
        render_string(self.fingerprint, out);
        out.write_str(",\"hint_accepted\":")?;
        out.write_str(if self.hint_accepted { "true" } else { "false" })?;
        out.write_str(",\"id\":")?;
        render_number(self.id as f64, out);
        out.write_str(",\"objective\":")?;
        render_number(self.objective, out);
        out.write_str(",\"output_counts\":")?;
        write_counts(self.output_counts, out)?;
        out.write_str(",\"schedule\":{\"per_analysis\":[")?;
        for (i, analysis) in schedule.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            out.write_str(analysis)?;
        }
        out.write_str("]},\"schema\":")?;
        render_string(SERVICE_SCHEMA, out);
        out.write_str(",\"solver_nodes\":")?;
        render_number(self.solver_nodes as f64, out);
        out.write_str(",\"source\":")?;
        render_string(self.source.as_str(), out);
        out.write_str(",\"verdict\":")?;
        render_string(self.verdict, out);
        out.write_char('}')
    }
}

fn write_counts<W: fmt::Write>(counts: &[usize], out: &mut W) -> fmt::Result {
    out.write_char('[')?;
    for (i, &k) in counts.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        render_number(k as f64, out);
    }
    out.write_char(']')
}

/// A sink that only counts the bytes written to it.
struct Length(usize);

impl fmt::Write for Length {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
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
    fn the_fast_paths_answer_what_the_tree_does() {
        let r = request();
        let text = json::to_string(&r);
        assert_eq!(decode_in_one_pass(&text), Some(r.clone()));
        assert_eq!(ServiceRequest::decode(&text).unwrap(), r);
        let wrong = text.replace("service/v1", "service/v0");
        assert_eq!(decode_in_one_pass(&wrong), None);
        assert_eq!(
            ServiceRequest::decode(&wrong).unwrap_err().to_string(),
            json::from_str::<ServiceRequest>(&wrong)
                .unwrap_err()
                .to_string()
        );

        let mut schedule = Schedule::empty(2);
        schedule.per_analysis[1] = AnalysisSchedule::new(vec![50, 100], vec![100]);
        let response = ServiceResponse {
            id: 1 << 60,
            fingerprint: "00ff".repeat(8),
            source: ResponseSource::Dedup,
            verdict: "FEASIBLE-ONLY".into(),
            objective: 2.75,
            schedule,
            counts: vec![0, 2],
            output_counts: vec![0, 1],
            solver_nodes: 9,
            hint_accepted: true,
        };
        let fragments: Vec<String> = response
            .schedule
            .per_analysis
            .iter()
            .map(json::to_string)
            .collect();
        let fragments: Vec<&str> = fragments.iter().map(String::as_str).collect();
        let rendered = ResponseHead {
            id: response.id,
            fingerprint: &response.fingerprint,
            source: response.source,
            verdict: &response.verdict,
            objective: response.objective,
            counts: &response.counts,
            output_counts: &response.output_counts,
            solver_nodes: response.solver_nodes,
            hint_accepted: response.hint_accepted,
        }
        .render(&fragments);
        assert_eq!(rendered, json::to_string(&response));
        assert_eq!(rendered.capacity(), rendered.len());
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
