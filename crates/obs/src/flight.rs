//! The always-on flight recorder: a cheap bounded ring of recent
//! telemetry that can be dumped as a post-mortem artifact.
//!
//! A [`Tracer`](crate::Tracer) drops records once its buffer fills —
//! the right call for a long healthy run, the wrong one for the moments
//! *before* a failure. A [`FlightRecorder`] is the complement: a small
//! ring that always holds the most recent window of spans, events and
//! registry deltas, overwriting the oldest entry instead of dropping
//! the newest. Recording costs one lock and a ring rotation (no
//! allocation growth beyond the constructed capacity), so it stays on
//! in production.
//!
//! [`FlightRecorder::dump`] renders the `flightrec/v1` JSON artifact:
//! the last-N entries, the total ever recorded, the dump reason, the
//! offending instance fingerprint and verdict when known, and a
//! registry snapshot. The solve service dumps automatically on
//! certify-reject, `INVALID` and solver-error paths (see
//! `docs/SERVICE.md`); [`FlightRecorder::dump`] is also the explicit
//! operator hook.
//!
//! Attach a recorder to a [`Tracer`](crate::Tracer) with
//! [`Tracer::attach_flight`](crate::Tracer::attach_flight) (every
//! span/event recorded — **including** ones the bounded tracer buffer
//! dropped — also enters the ring) and to a
//! [`Registry`](crate::Registry) with
//! [`Registry::attach_flight`](crate::Registry::attach_flight)
//! (nonzero counter increments enter as deltas).

use crate::json::{push_str_lit, push_u64};
use crate::registry::Snapshot;
use crate::tracer::{EventRecord, SpanRecord};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Schema identifier written by [`FlightRecorder::dump`].
pub const FLIGHTREC_SCHEMA: &str = "flightrec/v1";

/// One ring entry.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEntry {
    /// A closed span (same record a timeline holds).
    Span(SpanRecord),
    /// An instantaneous event.
    Event(EventRecord),
    /// A registry counter increment: `name += delta`.
    Delta {
        /// Counter name.
        name: String,
        /// Amount added.
        delta: u64,
    },
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<FlightEntry>,
    recorded: u64,
}

/// A bounded, thread-safe ring of recent telemetry. See the
/// [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` entries.
    /// `capacity == 0` disables recording (every record is a no-op).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            cap: capacity,
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity),
                recorded: 0,
            }),
        }
    }

    /// Maximum entries retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total entries ever offered (retained or rotated out).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("flight ring poisoned").recorded
    }

    /// Whether the ring records at all.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    fn push(&self, entry: FlightEntry) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("flight ring poisoned");
        inner.recorded += 1;
        if inner.ring.len() == self.cap {
            inner.ring.pop_front();
        }
        inner.ring.push_back(entry);
    }

    /// Records a closed span.
    pub fn record_span(&self, span: SpanRecord) {
        self.push(FlightEntry::Span(span));
    }

    /// Records an instantaneous event.
    pub fn record_event(&self, event: EventRecord) {
        self.push(FlightEntry::Event(event));
    }

    /// Records a registry counter increment.
    pub fn record_delta(&self, name: &str, delta: u64) {
        self.push(FlightEntry::Delta {
            name: name.to_string(),
            delta,
        });
    }

    /// A copy of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<FlightEntry> {
        self.inner
            .lock()
            .expect("flight ring poisoned")
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the `flightrec/v1` post-mortem artifact.
    ///
    /// `fingerprint` and `verdict` name the offending request when the
    /// dump was triggered by one (certify-reject, `INVALID`, solver
    /// error); `registry` attaches a counter/histogram snapshot.
    /// The document parses with any JSON parser
    /// (`insitu_types::json::Value::parse` in this workspace's tests).
    pub fn dump(
        &self,
        reason: &str,
        fingerprint: Option<&str>,
        verdict: Option<&str>,
        registry: Option<&Snapshot>,
    ) -> String {
        let inner = self.inner.lock().expect("flight ring poisoned");
        let mut out = String::with_capacity(256 + 160 * inner.ring.len());
        out.push_str("{\"schema\":");
        push_str_lit(&mut out, FLIGHTREC_SCHEMA);
        out.push_str(",\"reason\":");
        push_str_lit(&mut out, reason);
        out.push_str(",\"fingerprint\":");
        match fingerprint {
            Some(fp) => push_str_lit(&mut out, fp),
            None => out.push_str("null"),
        }
        out.push_str(",\"verdict\":");
        match verdict {
            Some(v) => push_str_lit(&mut out, v),
            None => out.push_str("null"),
        }
        out.push_str(",\"capacity\":");
        push_u64(&mut out, self.cap as u64);
        out.push_str(",\"recorded\":");
        push_u64(&mut out, inner.recorded);
        out.push_str(",\"entries\":[");
        for (i, e) in inner.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match e {
                FlightEntry::Span(s) => {
                    out.push_str("{\"kind\":\"span\",");
                    crate::timeline::push_span_fields(&mut out, s);
                    out.push('}');
                }
                FlightEntry::Event(ev) => {
                    out.push_str("{\"kind\":\"event\",");
                    crate::timeline::push_event_fields(&mut out, ev);
                    out.push('}');
                }
                FlightEntry::Delta { name, delta } => {
                    out.push_str("{\"kind\":\"delta\",\"name\":");
                    push_str_lit(&mut out, name);
                    out.push_str(",\"delta\":");
                    push_u64(&mut out, *delta);
                    out.push('}');
                }
            }
        }
        out.push_str("],\"registry\":");
        match registry {
            Some(snap) => out.push_str(&snap.to_json_string()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, Tracer};
    use std::sync::Arc;

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..7u64 {
            fr.record_delta("c", i);
        }
        assert_eq!(fr.recorded(), 7);
        let entries = fr.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries,
            vec![
                FlightEntry::Delta { name: "c".into(), delta: 4 },
                FlightEntry::Delta { name: "c".into(), delta: 5 },
                FlightEntry::Delta { name: "c".into(), delta: 6 },
            ]
        );
    }

    #[test]
    fn zero_capacity_is_inert() {
        let fr = FlightRecorder::with_capacity(0);
        assert!(!fr.enabled());
        fr.record_delta("c", 1);
        assert_eq!(fr.recorded(), 0);
        assert!(fr.entries().is_empty());
        let dump = fr.dump("manual", None, None, None);
        assert!(dump.contains("\"entries\":[]"));
    }

    #[test]
    fn tracer_tee_survives_tracer_overload() {
        let fr = Arc::new(FlightRecorder::with_capacity(4));
        let t = Tracer::with_capacity(2);
        t.attach_flight(fr.clone());
        for _ in 0..6 {
            let _g = t.span("s");
        }
        // tracer kept 2 and dropped 4; the flight ring holds the *last* 4
        assert_eq!(t.timeline().spans.len(), 2);
        assert_eq!(t.dropped(), 4);
        assert_eq!(fr.recorded(), 6);
        assert_eq!(fr.entries().len(), 4);
    }

    #[test]
    fn registry_tee_records_deltas() {
        let fr = Arc::new(FlightRecorder::with_capacity(8));
        let reg = Registry::new();
        reg.attach_flight(fr.clone());
        reg.add("service.requests", 1);
        // a zero increment registers the counter but is not an event
        reg.add("milp.hint_accepted", 0);
        reg.add("service.certify_rejects", 1);
        assert_eq!(reg.snapshot().counter("milp.hint_accepted"), Some(0));
        let entries = fr.entries();
        assert_eq!(entries.len(), 2);
        assert!(matches!(
            &entries[1],
            FlightEntry::Delta { name, delta: 1 } if name == "service.certify_rejects"
        ));
    }

    #[test]
    fn dump_is_schema_tagged_and_carries_context() {
        let fr = FlightRecorder::with_capacity(4);
        fr.record_delta("service.requests", 1);
        let reg = Registry::new();
        reg.add("service.requests", 1);
        let snap = reg.snapshot();
        let dump = fr.dump("certify-reject", Some("deadbeef"), Some("INVALID"), Some(&snap));
        assert!(dump.starts_with("{\"schema\":\"flightrec/v1\""));
        assert!(dump.contains("\"reason\":\"certify-reject\""));
        assert!(dump.contains("\"fingerprint\":\"deadbeef\""));
        assert!(dump.contains("\"verdict\":\"INVALID\""));
        assert!(dump.contains("\"kind\":\"delta\""));
        assert!(dump.contains("\"registry\":{\"counters\""));
    }
}
