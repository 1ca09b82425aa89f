//! Scheduler-as-a-service: a multi-tenant, thread-safe solve tier.
//!
//! The paper's scheduler solves one instance for one simulation run;
//! this crate treats it as a **server** handling a heavy concurrent
//! request stream in which paper-shaped instances mostly collide. Three
//! mechanisms turn that collision rate into throughput:
//!
//! * **Canonical fingerprinting** — every incoming [`ScheduleProblem`]
//!   is normalized (analyses sorted by name) and hashed over its exact
//!   rational values via [`certify::fingerprint()`], so two users
//!   submitting the same instance in different analysis orders, or with
//!   rational-equal `f64` encodings, share one cache key.
//! * **In-flight dedup** — concurrent requests for one fingerprint
//!   coalesce onto a single solve; the leader solves, every waiter gets
//!   the shared result ([`ResponseSource::Dedup`]). An identical
//!   in-flight instance is never solved twice.
//! * **A bounded LRU of solved instances** — schedules *plus their
//!   [`insitu_types::SearchCertificate`]s*, so a
//!   hit can be re-proved. A miss is solved from scratch
//!   ([`ResponseSource::Fresh`]); the wire schema's
//!   [`ResponseSource::Warm`] is never produced by this server.
//!
//! **The certification gate:** the fingerprint is a cache key, not a
//! proof. Every served schedule — hit, dedup fan-out or fresh solve —
//! is re-certified by the independent [`certify`] crate against
//! the *requester's own instance* before it leaves the service: exact
//! replay plus the objective comparison on every reply
//! ([`certify::certify_checked`]), the certificate's closure once per
//! solve ([`certify::CheckedCertificate`] — the only kind of certificate
//! a cache entry can hold). A hash
//! collision (or cache corruption) therefore degrades to a fresh solve,
//! never to a wrong answer: [`SolveService::solve`] only ever returns
//! `PROVED` or `FEASIBLE-ONLY` replies.
//!
//! ```
//! use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem, GIB};
//! use service::{ServiceConfig, SolveService};
//!
//! let svc = SolveService::new(ServiceConfig::default());
//! let problem = ScheduleProblem::new(
//!     vec![AnalysisProfile::new("rdf").with_compute(0.5, GIB).with_interval(100)],
//!     ResourceConfig::from_total_threshold(1000, 30.0, 64.0 * GIB, GIB),
//! ).unwrap();
//! let first = svc.solve(&problem).unwrap();
//! let second = svc.solve(&problem).unwrap();
//! assert_eq!(second.source, insitu_types::ResponseSource::Hit);
//! assert_eq!(first.objective, second.objective);
//! ```
//!
//! See `docs/SERVICE.md` for the full API and cache contract; hit rate,
//! throughput and latency are measured by the `svc-zipf` / `svc-fresh`
//! workloads of the repo benchmark (`BENCHMARK.json`).

#![warn(missing_docs)]

mod lru;
mod server;

pub use lru::Lru;
pub use server::{CacheEntry, Reply, ServiceConfig, ServiceError, SolveService};

// re-exported so service users don't need a direct certify/types dep for
// the common assertions
pub use certify::{Fingerprint, Verdict};
pub use insitu_types::{ResponseSource, ScheduleProblem, ServiceRequest, ServiceResponse};
