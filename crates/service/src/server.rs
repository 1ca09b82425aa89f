//! The solve server: fingerprint → dedup → cache → solve → certify.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use certify::{CheckedCertificate, Fingerprint, Verdict};
use insitu_core::advisor::{Advisor, AdvisorError, AdvisorOptions};
use insitu_types::canonical::{canonicalize, from_canonical, from_canonical_schedule};
use insitu_types::json::{self, Value};
use insitu_types::{
    ResponseSource, Schedule, ScheduleProblem, SearchCertificate, ServiceRequest, ServiceResponse,
};
use milp::SolveOptions;

use crate::lru::Lru;

/// Configuration of a [`SolveService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of solved instances kept in the LRU cache.
    pub cache_capacity: usize,
    /// Solver options for fresh solves. [`SolveOptions::certificate`] is
    /// forced on regardless of this value: the cache stores certificates
    /// so hits can be re-proved. Defaults to a serial solver — the
    /// service parallelizes *across* requests, not within one.
    pub solver: SolveOptions,
    /// Entries retained by the always-on flight recorder (recent
    /// spans/events/counter deltas for the `flightrec/v1` post-mortem
    /// dumped on certify-reject, INVALID and solver-error paths).
    /// `0` disables the recorder entirely.
    pub flight_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 256,
            solver: SolveOptions {
                threads: 1,
                certificate: true,
                ..SolveOptions::default()
            },
            flight_capacity: 256,
        }
    }
}

/// Why a request could not be served. Cloneable so one in-flight
/// failure can fan out to every deduplicated waiter.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The submitted problem failed [`ScheduleProblem::validate`].
    InvalidProblem(String),
    /// The underlying MILP solve failed (e.g. infeasible instance).
    Solve(String),
    /// The result failed the independent certification gate; the
    /// payload lists the certifier's complaints. Returned only when even
    /// the fallback fresh solve could not be certified.
    Certification(Vec<String>),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidProblem(e) => write!(f, "invalid problem: {e}"),
            ServiceError::Solve(e) => write!(f, "solve failed: {e}"),
            ServiceError::Certification(problems) => {
                write!(f, "certification failed: {}", problems.join("; "))
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One solved canonical instance, as stored in the cache and shared
/// with deduplicated waiters.
#[derive(Debug)]
pub struct CacheEntry {
    /// Optimal analysis counts, canonical order.
    pub counts: Vec<usize>,
    /// Optimal output counts, canonical order.
    pub output_counts: Vec<usize>,
    /// The placed optimal schedule, canonical order.
    pub schedule: Schedule,
    /// Optimal Eq. 1 objective.
    pub objective: f64,
    /// The solver's machine-checkable optimality certificate, closure
    /// already checked — the type admits no other kind. Cached so every
    /// hit can be re-proved against the requester's instance by the
    /// replay + objective half alone, and shared with each [`Reply`].
    pub certificate: Arc<CheckedCertificate>,
    /// Branch-and-bound nodes of the producing solve.
    pub nodes: usize,
}

/// One served response, in the **requester's** analysis order.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Canonical fingerprint the instance was keyed under.
    pub fingerprint: Fingerprint,
    /// How the result was produced.
    pub source: ResponseSource,
    /// Re-certification verdict against the requester's own instance:
    /// always [`Verdict::Proved`] or [`Verdict::FeasibleOnly`] — an
    /// `INVALID` result is an error, never a reply.
    pub verdict: Verdict,
    /// Optimal Eq. 1 objective.
    pub objective: f64,
    /// Optimal schedule, requester order.
    pub schedule: Schedule,
    /// Optimal analysis counts, requester order.
    pub counts: Vec<usize>,
    /// Optimal output counts, requester order.
    pub output_counts: Vec<usize>,
    /// The optimality certificate the verdict was checked against,
    /// shared with the cache entry it came from (`None` only for the
    /// trivial zero-analysis instance).
    pub certificate: Option<Arc<CheckedCertificate>>,
    /// Branch-and-bound nodes of the producing solve (also for hits:
    /// the nodes the *cached* solve cost).
    pub nodes: usize,
}

impl Reply {
    /// The bare certificate, for a client that re-certifies the reply
    /// itself (`certify::certify(problem, &reply.schedule, ..)`) instead
    /// of trusting this service's witness.
    pub fn search_certificate(&self) -> Option<&SearchCertificate> {
        self.certificate.as_deref().map(CheckedCertificate::get)
    }

    /// Renders the reply as a `service/v1` wire response. The schema's
    /// `hint_accepted` field is always `false`: the server solves every
    /// miss without a hint.
    pub fn to_response(&self, id: u64) -> ServiceResponse {
        self.clone().into_response(id)
    }

    /// [`Reply::to_response`] for a caller that is done with the reply:
    /// moves the schedule and counts into the response instead of cloning
    /// them.
    pub fn into_response(self, id: u64) -> ServiceResponse {
        ServiceResponse {
            id,
            fingerprint: self.fingerprint.to_hex(),
            source: self.source,
            verdict: self.verdict.to_string(),
            objective: self.objective,
            schedule: self.schedule,
            counts: self.counts,
            output_counts: self.output_counts,
            solver_nodes: self.nodes,
            hint_accepted: false,
        }
    }
}

/// An in-flight solve: the leader publishes into `slot`, waiters block
/// on `ready`.
struct InFlight {
    slot: Mutex<Option<Result<Arc<CacheEntry>, ServiceError>>>,
    ready: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Arc<CacheEntry>, ServiceError>) {
        *self.slot.lock().expect("in-flight slot poisoned") = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Arc<CacheEntry>, ServiceError> {
        let mut guard = self.slot.lock().expect("in-flight slot poisoned");
        while guard.is_none() {
            guard = self.ready.wait(guard).expect("in-flight slot poisoned");
        }
        guard.as_ref().expect("checked above").clone()
    }
}

struct State {
    cache: Lru<Fingerprint, Arc<CacheEntry>>,
    in_flight: HashMap<Fingerprint, Arc<InFlight>>,
}

/// What the state lock told us to do for one request.
enum Action {
    Serve(Arc<CacheEntry>),
    Wait(Arc<InFlight>),
    Lead(Arc<InFlight>),
}

/// The multi-tenant solve server. Cheap to share: all methods take
/// `&self`, so wrap it in an [`Arc`] (or borrow it from scoped threads)
/// and call [`SolveService::solve`] from as many client threads as you
/// like.
pub struct SolveService {
    config: ServiceConfig,
    state: Mutex<State>,
    registry: Arc<obs::Registry>,
    trace: obs::TraceHandle,
    flight: Arc<obs::FlightRecorder>,
    last_dump: Mutex<Option<String>>,
    seq: AtomicU64,
}

impl SolveService {
    /// A new service with its own (empty) cache, telemetry registry and
    /// flight recorder.
    pub fn new(config: ServiceConfig) -> Self {
        let cache_capacity = config.cache_capacity;
        let flight = Arc::new(obs::FlightRecorder::with_capacity(config.flight_capacity));
        let registry = Arc::new(obs::Registry::new());
        registry.attach_flight(flight.clone());
        SolveService {
            config,
            state: Mutex::new(State {
                cache: Lru::new(cache_capacity),
                in_flight: HashMap::new(),
            }),
            registry,
            trace: obs::TraceHandle::disabled(),
            flight,
            last_dump: Mutex::new(None),
            seq: AtomicU64::new(0),
        }
    }

    /// Replaces the telemetry sinks: `service.*` counters, latency
    /// histograms and the per-solve `milp.*` stats go to `registry`,
    /// per-request `service.request` spans to `trace`. Both sinks are
    /// teed into the service's flight recorder (first recorder attached
    /// to a shared tracer wins — the tee is set once per tracer).
    pub fn with_observability(
        mut self,
        registry: Arc<obs::Registry>,
        trace: obs::TraceHandle,
    ) -> Self {
        registry.attach_flight(self.flight.clone());
        if let Some(tracer) = trace.tracer() {
            tracer.attach_flight(self.flight.clone());
        }
        self.registry = registry;
        self.trace = trace;
        self
    }

    /// The telemetry registry this service reports into.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// The always-on flight recorder (ring of recent telemetry).
    pub fn flight(&self) -> &Arc<obs::FlightRecorder> {
        &self.flight
    }

    /// The most recent `flightrec/v1` dump, if any failure path (or an
    /// explicit [`SolveService::dump_flight`]) produced one.
    pub fn last_flight_dump(&self) -> Option<String> {
        self.last_dump.lock().expect("dump slot poisoned").clone()
    }

    /// Explicit operator hook: dumps the flight recorder with the
    /// current registry snapshot attached, stores it as the last dump,
    /// and returns it.
    pub fn dump_flight(&self, reason: &str) -> String {
        self.flight_dump(reason, None, None)
    }

    fn flight_dump(
        &self,
        reason: &str,
        fp: Option<Fingerprint>,
        verdict: Option<&str>,
    ) -> String {
        let snap = self.registry.snapshot();
        let hex = fp.map(|f| f.to_hex());
        let dump = self.flight.dump(reason, hex.as_deref(), verdict, Some(&snap));
        *self.last_dump.lock().expect("dump slot poisoned") = Some(dump.clone());
        dump
    }

    /// Solves one instance, in the caller's own analysis order.
    ///
    /// Thread-safe; blocks only while an identical instance is already
    /// being solved by another caller (and then shares that solve's
    /// result). Every reply is re-certified against `problem` before it
    /// is returned — see the crate docs for the gate.
    ///
    /// The request gets a deterministic [`obs::TraceContext`] derived
    /// from its canonical fingerprint and an internal arrival sequence
    /// number; use [`SolveService::solve_seq`] to supply the sequence
    /// yourself when ids must reproduce across runs (as
    /// [`SolveService::process_batch`] does).
    pub fn solve(&self, problem: &ScheduleProblem) -> Result<Reply, ServiceError> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.solve_seq(problem, seq)
    }

    /// [`SolveService::solve`] with a caller-chosen request sequence
    /// number. The request's trace context is
    /// `TraceContext::derive(fingerprint, seq)` — no clocks, no
    /// randomness — so the same `(problem, seq)` pair yields the same
    /// `trace_id` at any worker count.
    pub fn solve_seq(&self, problem: &ScheduleProblem, seq: u64) -> Result<Reply, ServiceError> {
        let start = Instant::now();
        problem
            .validate()
            .map_err(|e| ServiceError::InvalidProblem(e.to_string()))?;
        self.registry.add("service.requests", 1);
        let fp = certify::fingerprint(problem);
        let ctx = obs::TraceContext::derive(fp.0, seq);
        let _ctx_guard = ctx.enter();
        let mut span = self.trace.span("service.request");
        span.tag("fingerprint", fp.to_hex());
        span.tag("seq", seq as i64);

        let result = self.solve_in_context(problem, fp, &mut span);
        match &result {
            Ok(reply) => {
                let class = match reply.source {
                    ResponseSource::Hit => "hit",
                    ResponseSource::Dedup => "dedup",
                    // never produced by this server; kept in the wire schema
                    ResponseSource::Warm | ResponseSource::Fresh => "fresh",
                };
                span.tag("class", class);
                self.registry
                    .observe_hist(latency_hist_name(class), start.elapsed().as_secs_f64());
                // wall-clock-free companion: the objective distribution
                // depends only on the request multiset, so its snapshot
                // is bitwise identical at any worker count
                self.registry
                    .observe_hist("service.request.objective", reply.objective);
            }
            Err(ServiceError::Solve(_)) => {
                self.flight_dump("solver-error", Some(fp), None);
            }
            Err(ServiceError::Certification(_)) => {
                self.flight_dump("invalid-verdict", Some(fp), Some("INVALID"));
            }
            Err(ServiceError::InvalidProblem(_)) => {}
        }
        result
    }

    /// The request body, run inside the request's trace context.
    fn solve_in_context(
        &self,
        problem: &ScheduleProblem,
        fp: Fingerprint,
        span: &mut obs::SpanGuard<'_>,
    ) -> Result<Reply, ServiceError> {
        let (canon, perm) = canonicalize(problem);

        if canon.is_empty() {
            // the trivial instance: nothing to schedule, nothing to cache
            span.tag("source", "fresh");
            return Ok(Reply {
                fingerprint: fp,
                source: ResponseSource::Fresh,
                verdict: Verdict::FeasibleOnly,
                objective: 0.0,
                schedule: Schedule::empty(0),
                counts: Vec::new(),
                output_counts: Vec::new(),
                certificate: None,
                nodes: 0,
            });
        }

        let action = {
            let mut state = self.state.lock().expect("service state poisoned");
            if let Some(entry) = state.cache.get(&fp) {
                self.registry.add("service.hits", 1);
                Action::Serve(entry.clone())
            } else if let Some(in_flight) = state.in_flight.get(&fp) {
                self.registry.add("service.dedup_waits", 1);
                Action::Wait(in_flight.clone())
            } else {
                self.registry.add("service.misses", 1);
                let in_flight = Arc::new(InFlight::new());
                state.in_flight.insert(fp, in_flight.clone());
                Action::Lead(in_flight)
            }
        };

        let (entry, source) = match action {
            Action::Serve(entry) => (entry, ResponseSource::Hit),
            Action::Wait(in_flight) => (in_flight.wait()?, ResponseSource::Dedup),
            Action::Lead(in_flight) => {
                let result = self.solve_fresh(&canon);
                {
                    let mut state = self.state.lock().expect("service state poisoned");
                    state.in_flight.remove(&fp);
                    if let Ok(entry) = &result {
                        if let Some((evicted_fp, _)) = state.cache.insert(fp, entry.clone()) {
                            if evicted_fp != fp {
                                self.registry.add("service.evictions", 1);
                            }
                        }
                    }
                }
                in_flight.publish(result.clone());
                (result?, ResponseSource::Fresh)
            }
        };
        span.tag("source", source.as_str());

        match self.serve(problem, &perm, fp, &entry, source) {
            Ok(reply) => Ok(reply),
            Err(ServiceError::Certification(_))
                if matches!(source, ResponseSource::Hit | ResponseSource::Dedup) =>
            {
                // the certification gate tripped: the cached entry does not
                // certify against *this* requester's instance (fingerprint
                // collision or cache corruption). Degrade to a fresh solve
                // of the requester's own canonical form and replace the
                // poisoned entry.
                self.registry.add("service.certify_rejects", 1);
                span.tag("certify_reject", true);
                // leave the post-mortem before the state changes: the ring
                // still holds the events leading up to the reject
                self.flight_dump("certify-reject", Some(fp), Some("INVALID"));
                let entry = self.solve_fresh(&canon)?;
                let mut state = self.state.lock().expect("service state poisoned");
                state.cache.insert(fp, entry.clone());
                drop(state);
                self.serve(problem, &perm, fp, &entry, ResponseSource::Fresh)
            }
            Err(e) => Err(e),
        }
    }

    /// Solves a batch, fanning the requests over `workers` service
    /// threads with dynamic work claiming (reusing [`parallel::Exec`]'s
    /// thread accounting). Results come back in request order.
    pub fn process_batch(
        &self,
        problems: &[ScheduleProblem],
        workers: usize,
    ) -> Vec<Result<Reply, ServiceError>> {
        let exec = parallel::Exec::with_threads(workers);
        let mut slots: Vec<Option<Result<Reply, ServiceError>>> = vec![None; problems.len()];
        // the stream index is the request's sequence number, so trace ids
        // are identical at any worker count (claiming order is not)
        parallel::for_each_mut(&exec, &mut slots, |i, slot| {
            *slot = Some(self.solve_seq(&problems[i], i as u64));
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("for_each_mut visits every slot"))
            .collect()
    }

    /// Parses a `service/v1` request, solves it, and renders the
    /// `service/v1` response (or an error object carrying the request id
    /// when one could be parsed).
    pub fn handle_json(&self, request: &str) -> String {
        match json::from_str::<ServiceRequest>(request) {
            Ok(req) => match self.solve(&req.problem) {
                Ok(reply) => json::to_string(&reply.into_response(req.id)),
                Err(e) => error_json(Some(req.id), &e.to_string()),
            },
            Err(e) => error_json(None, &e.to_string()),
        }
    }

    /// Solves the canonical instance and certifies the result before
    /// anyone sees it: [`Advisor::solve_and_stamp`] with nothing carried,
    /// under this service's spans and counters.
    fn solve_fresh(&self, canon: &ScheduleProblem) -> Result<Arc<CacheEntry>, ServiceError> {
        // the solver opens its own `milp.solve` span on this handle,
        // nested under the request span and carrying its trace context
        let mut solver = self.config.solver.clone();
        solver.trace = self.trace.clone();
        let advisor = Advisor::new(AdvisorOptions { solver, exact_steps_limit: 0 });
        // leader-side gate: a result that does not certify against the
        // canonical instance never reaches the cache or any waiter. The
        // certificate's closure is checked there, once; every reply built
        // from this entry re-runs only what depends on its requester
        let mut span = Some(self.trace.span("service.solve"));
        let stamped = advisor.solve_and_stamp(canon, None, |stats| {
            self.registry.add("service.solves", 1);
            stats.export_into(&self.registry);
            if let Some(mut solve_span) = span.take() {
                solve_span.tag("nodes", stats.nodes_explored);
            }
            span = Some(self.trace.span("service.certify"));
            self.registry.add("service.certificate_checks", 1);
        });
        let mut span = span.expect("one of the two spans is open");
        let stamped = match stamped {
            Ok(stamped) => stamped,
            Err(AdvisorError::Solver(e)) => return Err(ServiceError::Solve(e.to_string())),
            Err(AdvisorError::CertificationFailed(problems)) => {
                span.tag("verdict", Verdict::Invalid.to_string());
                return Err(ServiceError::Certification(problems));
            }
        };
        tag_verdict(&mut span, &stamped.certification);
        drop(span);
        let certificate = stamped
            .certificate
            .ok_or_else(|| ServiceError::Solve("solver returned no certificate".into()))?;
        let per_analysis = &stamped.schedule.per_analysis;
        Ok(Arc::new(CacheEntry {
            counts: per_analysis.iter().map(|a| a.count()).collect(),
            output_counts: per_analysis.iter().map(|a| a.output_count()).collect(),
            schedule: stamped.schedule,
            objective: certificate.get().objective,
            certificate: Arc::new(certificate),
            nodes: stamped.stats.nodes_explored,
        }))
    }

    /// Permutes a canonical entry into the requester's order and passes
    /// it through the certification gate.
    fn serve(
        &self,
        problem: &ScheduleProblem,
        perm: &[usize],
        fp: Fingerprint,
        entry: &Arc<CacheEntry>,
        source: ResponseSource,
    ) -> Result<Reply, ServiceError> {
        let schedule = from_canonical_schedule(&entry.schedule, perm);
        let cert = {
            let mut cspan = self.trace.span("service.certify");
            let cert = certify::certify_checked(problem, &schedule, &entry.certificate);
            tag_verdict(&mut cspan, &cert);
            cert
        };
        if cert.verdict == Verdict::Invalid {
            return Err(ServiceError::Certification(cert.problems));
        }
        Ok(Reply {
            fingerprint: fp,
            source,
            verdict: cert.verdict,
            objective: entry.objective,
            schedule,
            counts: from_canonical(&entry.counts, perm),
            output_counts: from_canonical(&entry.output_counts, perm),
            certificate: Some(entry.certificate.clone()),
            nodes: entry.nodes,
        })
    }

    /// Plants `entry` in the cache under `fp`, bypassing the solve path.
    /// Test-only: this is how the stress suite forces a certify-reject
    /// (cache an entry that cannot certify against the fingerprint's
    /// real instance) to exercise the fallback and the flight dump.
    #[doc(hidden)]
    pub fn inject_cache_entry_for_test(&self, fp: Fingerprint, entry: Arc<CacheEntry>) {
        self.state
            .lock()
            .expect("service state poisoned")
            .cache
            .insert(fp, entry);
    }
}

/// Tags a `service.certify` span with the stamp — and, when the verdict
/// forgave dust (`certify::forgiven`), with how many violations it forgave.
fn tag_verdict(span: &mut obs::SpanGuard<'_>, cert: &certify::Certification) {
    span.tag("verdict", cert.verdict.to_string());
    let listed = cert.replay.as_ref().map_or(0, |r| r.violations.len());
    if cert.verdict != Verdict::Invalid && listed > 0 {
        span.tag("forgiven", listed);
    }
}

/// Registry histogram name for one outcome class.
fn latency_hist_name(class: &str) -> &'static str {
    match class {
        "hit" => "service.request.latency_s.hit",
        "dedup" => "service.request.latency_s.dedup",
        _ => "service.request.latency_s.fresh",
    }
}

fn error_json(id: Option<u64>, message: &str) -> String {
    let mut m = std::collections::BTreeMap::new();
    m.insert(
        "schema".to_string(),
        Value::String(insitu_types::SERVICE_SCHEMA.into()),
    );
    if let Some(id) = id {
        m.insert("id".to_string(), Value::Number(id as f64));
    }
    m.insert("error".to_string(), Value::String(message.into()));
    Value::Object(m).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, ResourceConfig};

    fn problem(names_ct: &[(&str, f64)]) -> ScheduleProblem {
        ScheduleProblem::new(
            names_ct
                .iter()
                .map(|&(n, ct)| {
                    AnalysisProfile::new(n)
                        .with_compute(ct, 0.0)
                        .with_interval(10)
                        .with_output(0.1, 0.0, 1)
                })
                .collect(),
            ResourceConfig::from_total_threshold(100, 8.0, 1e9, 1e9),
        )
        .unwrap()
    }

    #[test]
    fn hit_after_miss_and_identical_results() {
        let svc = SolveService::new(ServiceConfig::default());
        let p = problem(&[("rdf", 0.5), ("msd", 1.0)]);
        let a = svc.solve(&p).unwrap();
        let b = svc.solve(&p).unwrap();
        assert_eq!(a.source, ResponseSource::Fresh);
        assert_eq!(b.source, ResponseSource::Hit);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.objective, b.objective);
        assert_ne!(a.verdict, Verdict::Invalid);
        // the hit shares the solve's checked certificate, it does not copy it
        assert!(Arc::ptr_eq(
            a.certificate.as_ref().unwrap(),
            b.certificate.as_ref().unwrap()
        ));
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("service.requests"), Some(2));
        assert_eq!(snap.counter("service.hits"), Some(1));
        assert_eq!(snap.counter("service.solves"), Some(1));
        assert_eq!(snap.counter("service.certificate_checks"), Some(1));
    }

    #[test]
    fn permuted_request_hits_and_gets_its_own_order_back() {
        let svc = SolveService::new(ServiceConfig::default());
        let p = problem(&[("rdf", 0.5), ("msd", 1.0)]);
        let q = problem(&[("msd", 1.0), ("rdf", 0.5)]);
        let a = svc.solve(&p).unwrap();
        let b = svc.solve(&q).unwrap();
        assert_eq!(b.source, ResponseSource::Hit);
        assert_eq!(a.fingerprint, b.fingerprint);
        // same schedules, each in its requester's order
        assert_eq!(a.schedule.per_analysis[0], b.schedule.per_analysis[1]);
        assert_eq!(a.schedule.per_analysis[1], b.schedule.per_analysis[0]);
        assert_eq!(a.counts[0], b.counts[1]);
        // and each certifies against its own instance
        let cert = certify::certify(&q, &b.schedule, b.search_certificate());
        assert_eq!(cert.verdict, Verdict::Proved);
    }

    #[test]
    fn invalid_problem_is_rejected() {
        let svc = SolveService::new(ServiceConfig::default());
        let mut p = problem(&[("a", 0.5)]);
        p.analyses.push(p.analyses[0].clone()); // duplicate name
        assert!(matches!(
            svc.solve(&p),
            Err(ServiceError::InvalidProblem(_))
        ));
    }

    #[test]
    fn empty_problem_served_without_caching() {
        let svc = SolveService::new(ServiceConfig::default());
        let p = ScheduleProblem::new(Vec::new(), ResourceConfig::default()).unwrap();
        let r = svc.solve(&p).unwrap();
        assert_eq!(r.verdict, Verdict::FeasibleOnly);
        assert_eq!(r.objective, 0.0);
        assert!(r.certificate.is_none());
        assert_eq!(svc.registry().snapshot().counter("service.solves"), None);
    }

    #[test]
    fn json_round_trip_through_the_service() {
        let svc = SolveService::new(ServiceConfig::default());
        let req = ServiceRequest {
            id: 9,
            problem: problem(&[("rdf", 0.5)]),
        };
        let out = svc.handle_json(&json::to_string(&req));
        let resp: ServiceResponse = json::from_str(&out).unwrap();
        assert_eq!(resp.id, 9);
        assert_eq!(resp.source, ResponseSource::Fresh);
        assert_eq!(resp.verdict, "PROVED");
        assert_eq!(resp.counts.len(), 1);
        assert!(!resp.hint_accepted);

        // the versioned schema still reads what this server no longer sends
        let old = out
            .replace("\"source\":\"fresh\"", "\"source\":\"warm\"")
            .replace("\"hint_accepted\":false", "\"hint_accepted\":true");
        let old: ServiceResponse = json::from_str(&old).unwrap();
        assert_eq!(old.source, ResponseSource::Warm);
        assert!(old.hint_accepted);

        let err = svc.handle_json("{\"schema\":\"service/v1\"}");
        assert!(err.contains("\"error\""));
    }

    #[test]
    fn eviction_is_counted_and_capacity_respected() {
        let svc = SolveService::new(ServiceConfig {
            cache_capacity: 1,
            ..ServiceConfig::default()
        });
        svc.solve(&problem(&[("a", 0.5)])).unwrap();
        svc.solve(&problem(&[("b", 0.7)])).unwrap(); // evicts a
        let r = svc.solve(&problem(&[("a", 0.5)])).unwrap(); // miss again
        assert_eq!(r.source, ResponseSource::Fresh);
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("service.evictions"), Some(2));
        assert_eq!(snap.counter("service.solves"), Some(3));
    }

    #[test]
    fn batch_matches_sequential() {
        let svc = SolveService::new(ServiceConfig::default());
        let problems: Vec<_> = (0..6)
            .map(|i| problem(&[("rdf", 0.5 + 0.1 * (i % 3) as f64)]))
            .collect();
        let batch = svc.process_batch(&problems, 3);
        let sequential = SolveService::new(ServiceConfig::default());
        for (p, r) in problems.iter().zip(&batch) {
            let r = r.as_ref().unwrap();
            let s = sequential.solve(p).unwrap();
            assert_eq!(r.objective, s.objective);
            assert_ne!(r.verdict, Verdict::Invalid);
        }
    }

    #[test]
    fn latency_and_objective_histograms_register_by_class() {
        let svc = SolveService::new(ServiceConfig::default());
        let p = problem(&[("rdf", 0.5), ("msd", 1.0)]);
        svc.solve(&p).unwrap(); // fresh
        svc.solve(&p).unwrap(); // hit
        let snap = svc.registry().snapshot();
        assert_eq!(
            snap.hist("service.request.latency_s.fresh").unwrap().count,
            1
        );
        assert_eq!(snap.hist("service.request.latency_s.hit").unwrap().count, 1);
        // every served request lands in exactly one class histogram
        let classed: u64 = snap
            .hists
            .iter()
            .filter(|(name, _)| name.starts_with("service.request.latency_s."))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(Some(classed), snap.counter("service.requests"));
        let obj = snap.hist("service.request.objective").unwrap();
        assert_eq!(obj.count, 2);
        // both requests returned the same objective -> degenerate hist
        assert_eq!(obj.min, obj.max);
    }

    #[test]
    fn trace_ids_are_deterministic_and_separate_requests() {
        let run = |workers: usize| {
            let tracer = Arc::new(obs::Tracer::with_capacity(4096));
            let svc = SolveService::new(ServiceConfig::default()).with_observability(
                Arc::new(obs::Registry::new()),
                obs::TraceHandle::new(tracer.clone()),
            );
            let problems: Vec<_> = (0..4)
                .map(|i| problem(&[("rdf", 0.5 + 0.1 * i as f64)]))
                .collect();
            for r in svc.process_batch(&problems, workers) {
                r.unwrap();
            }
            tracer.timeline()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.dropped, 0);
        serial.validate().expect("timeline is structurally sound");
        // every span carries a trace id, and the id sets are bitwise
        // identical across worker counts (fingerprint + stream index,
        // never arrival order)
        assert!(serial.spans.iter().all(|s| s.trace_id.is_some()));
        assert_eq!(serial.trace_ids().len(), 4);
        assert_eq!(serial.trace_ids(), parallel.trace_ids());
        // the request span and its nested solve/certify spans share a lane
        let req = serial.spans_named("service.request").next().unwrap();
        let kids = serial.children_of(req.id);
        assert!(!kids.is_empty());
        assert!(kids.iter().all(|k| k.trace_id == req.trace_id));
        assert!(serial.spans_named("milp.solve").next().is_some());
        assert!(serial.spans_named("service.certify").next().is_some());
    }

    #[test]
    fn a_verdict_that_forgave_dust_says_so_on_its_span() {
        // three runs of 0.1 s overrun the double 0.3 by 3/2^56: served
        // PROVED, and every certify span of the miss and of the hit counts
        // the one forgiven violation; a clean instance's spans carry no tag
        let tracer = Arc::new(obs::Tracer::with_capacity(256));
        let svc = SolveService::new(ServiceConfig::default()).with_observability(
            Arc::new(obs::Registry::new()),
            obs::TraceHandle::new(tracer.clone()),
        );
        let dusty = ScheduleProblem::new(
            vec![AnalysisProfile::new("a").with_compute(0.1, 0.0).with_interval(1)],
            ResourceConfig::from_total_threshold(3, 0.3, 1e9, 1e9),
        )
        .unwrap();
        for source in [ResponseSource::Fresh, ResponseSource::Hit] {
            let reply = svc.solve(&dusty).unwrap();
            assert_eq!((reply.source, reply.verdict, reply.objective), (source, Verdict::Proved, 4.0));
        }
        svc.solve(&problem(&[("rdf", 0.5)])).unwrap();
        let forgiven: Vec<_> = tracer
            .timeline()
            .spans_named("service.certify")
            .map(|s| s.tag_i64("forgiven"))
            .collect();
        // miss: leader gate + reply; hit: reply; then the clean miss's two
        assert_eq!(forgiven, vec![Some(1), Some(1), Some(1), None, None]);
    }

    #[test]
    fn colliding_entry_with_a_feasible_schedule_is_rejected_on_the_objective() {
        // a simulated fingerprint collision at its most benign: the planted
        // schedule is the target's own optimum, so the replay is feasible,
        // and the certificate is a genuine checked one — of another
        // instance. Only the objective comparison is left to object.
        let svc = SolveService::new(ServiceConfig::default());
        let target = problem(&[("rdf", 0.5), ("msd", 1.0)]);
        let decoy = problem(&[("a", 0.9), ("b", 1.3), ("c", 0.2)]);
        let (canon, _) = canonicalize(&target);
        let own = svc.solve(&canon).unwrap(); // canonical order in, canonical order out
        let other = svc.solve(&decoy).unwrap();
        assert_ne!(own.objective, other.objective);
        let foreign = other.certificate.clone().unwrap();

        let stamp = certify::certify_checked(&canon, &own.schedule, &foreign);
        assert_eq!(stamp.verdict, Verdict::Invalid);
        assert!(stamp.replay.as_ref().unwrap().is_feasible());
        assert_eq!(stamp.problems.len(), 1, "{:?}", stamp.problems);
        assert!(stamp.problems[0].contains("certificate claims objective"));

        let fp = certify::fingerprint(&target);
        svc.inject_cache_entry_for_test(
            fp,
            Arc::new(CacheEntry {
                counts: own.counts.clone(),
                output_counts: own.output_counts.clone(),
                schedule: own.schedule.clone(),
                objective: own.objective,
                certificate: foreign,
                nodes: own.nodes,
            }),
        );
        let r = svc.solve(&target).unwrap();
        assert_eq!(r.source, ResponseSource::Fresh);
        assert_eq!(r.verdict, Verdict::Proved);
        assert_eq!(r.objective, own.objective);
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("service.certify_rejects"), Some(1));
        let dump = svc.last_flight_dump().unwrap();
        assert!(dump.contains("\"reason\":\"certify-reject\""), "{dump}");
    }

    #[test]
    fn forced_certify_reject_dumps_flightrec_and_recovers() {
        let tracer = Arc::new(obs::Tracer::with_capacity(1024));
        let svc = SolveService::new(ServiceConfig::default()).with_observability(
            Arc::new(obs::Registry::new()),
            obs::TraceHandle::new(tracer.clone()),
        );
        let target = problem(&[("rdf", 0.5), ("msd", 1.0)]);
        let decoy = problem(&[("a", 0.9), ("b", 1.3), ("c", 0.2)]);
        svc.solve(&decoy).unwrap();
        // plant the decoy's entry under the target's fingerprint: the next
        // target request hits, fails the certification gate, and must fall
        // back to a fresh solve. The certificate is the decoy's own checked
        // one (there is no other way to build an entry): it closes, the
        // replay against the target is what does not
        let planted = {
            let d = svc.solve(&decoy).unwrap();
            assert_eq!(d.source, ResponseSource::Hit);
            Arc::new(CacheEntry {
                counts: vec![0; 3],
                output_counts: vec![0; 3],
                schedule: Schedule::empty(3),
                objective: d.objective,
                certificate: d.certificate.clone().unwrap(),
                nodes: d.nodes,
            })
        };
        let fp = certify::fingerprint(&target);
        svc.inject_cache_entry_for_test(fp, planted);
        assert!(svc.last_flight_dump().is_none());
        let r = svc.solve(&target).unwrap();
        // recovered: fresh solve, valid verdict
        assert_eq!(r.source, ResponseSource::Fresh);
        assert_ne!(r.verdict, Verdict::Invalid);
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("service.certify_rejects"), Some(1));
        // and the reject left a parseable post-mortem naming the request
        let dump = svc.last_flight_dump().unwrap();
        let v = Value::parse(&dump).unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("flightrec/v1"));
        assert_eq!(
            v.get("reason").and_then(Value::as_str),
            Some("certify-reject")
        );
        assert_eq!(
            v.get("fingerprint").and_then(Value::as_str),
            Some(fp.to_hex().as_str())
        );
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("INVALID"));
        assert!(!v.get("entries").and_then(Value::as_array).unwrap().is_empty());
        // explicit hook also works and replaces the stored dump
        let manual = svc.dump_flight("operator");
        assert!(manual.contains("\"reason\":\"operator\""));
        assert_eq!(svc.last_flight_dump().unwrap(), manual);
    }
}
