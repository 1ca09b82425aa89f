//! Renders recorded trace artifacts as a text tree, and timelines also as
//! a Chrome export.
//!
//! Usage: `trace_view INPUT.json [--chrome OUT.json]`
//!
//! The input kind is auto-detected:
//!
//! * `obs/timeline/v1` — a tracer timeline (`Timeline::to_json_string`:
//!   the repo benchmark's `--trace 1` writes one per workload to
//!   `benchmark/out/<workload>.trace.json`, `examples/md_insitu.rs`
//!   writes one per run): printed as a span tree with durations, trace
//!   ids and tags. A
//!   warning line reports the exact dropped-record count whenever the
//!   tracer overflowed, because a lossy tree is easy to misread as a
//!   complete one.
//! * a certificate document — any object with a `certificate` member
//!   holding a search certificate, such as the `{problem, schedule,
//!   certificate}` files under `tests/corpus/` that
//!   `certify_differential`'s `UPDATE_CORPUS` writes: printed as the whole
//!   branch-&-bound tree the certificate records
//!   (`milp::SearchTrace::to_text_tree`).
//!
//! `--chrome OUT.json` additionally writes a timeline's Chrome trace-event
//! array for `chrome://tracing` / `ui.perfetto.dev`: the per-request-lane
//! export including the `dropped_records` metadata. A search tree has no
//! timestamps, so `--chrome` with a certificate document is a usage error.

use insitu_types::cert::SearchCertificate;
use insitu_types::json::{FromJson, Value};
use obs::{EventRecord, SpanRecord, TagValue, Timeline};
use std::fmt::Write as _;

/// Interns a parsed string so it can live in the `&'static str` fields of
/// [`SpanRecord`]/[`EventRecord`]. A viewer process renders one file and
/// exits, so the leak is bounded by the input size.
fn intern(s: &str) -> &'static str {
    Box::leak(s.to_string().into_boxed_str())
}

fn parse_trace_id(v: Option<&Value>) -> Option<u64> {
    v.and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
}

fn parse_tags(v: Option<&Value>) -> Vec<(&'static str, TagValue)> {
    let Some(obj) = v.and_then(Value::as_object) else {
        return Vec::new();
    };
    obj.iter()
        .map(|(k, val)| {
            let tag = match val {
                Value::Bool(b) => TagValue::Bool(*b),
                Value::String(s) => TagValue::Str(s.clone()),
                // JSON numbers are all f64; show whole values as ints
                Value::Number(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                    TagValue::Int(*n as i64)
                }
                Value::Number(n) => TagValue::Float(*n),
                other => TagValue::Str(other.to_string()),
            };
            (intern(k), tag)
        })
        .collect()
}

/// Rebuilds a [`Timeline`] from its `obs/timeline/v1` JSON document.
fn timeline_from_json(v: &Value) -> Result<Timeline, String> {
    let num = |o: &Value, key: &str| -> Result<f64, String> {
        o.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing number `{key}`"))
    };
    let spans = v
        .get("spans")
        .and_then(Value::as_array)
        .ok_or("missing `spans` array")?
        .iter()
        .map(|s| -> Result<SpanRecord, String> {
            Ok(SpanRecord {
                id: num(s, "id")? as u64,
                parent: s.get("parent").and_then(Value::as_f64).map(|p| p as u64),
                name: intern(
                    s.get("name")
                        .and_then(Value::as_str)
                        .ok_or("span missing `name`")?,
                ),
                tid: num(s, "tid")? as u32,
                start_ns: num(s, "start_ns")? as u64,
                dur_ns: num(s, "dur_ns")? as u64,
                trace_id: parse_trace_id(s.get("trace_id")),
                tags: parse_tags(s.get("tags")),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let events = v
        .get("events")
        .and_then(Value::as_array)
        .ok_or("missing `events` array")?
        .iter()
        .map(|e| -> Result<EventRecord, String> {
            Ok(EventRecord {
                parent: e.get("parent").and_then(Value::as_f64).map(|p| p as u64),
                name: intern(
                    e.get("name")
                        .and_then(Value::as_str)
                        .ok_or("event missing `name`")?,
                ),
                tid: num(e, "tid")? as u32,
                ts_ns: num(e, "ts_ns")? as u64,
                trace_id: parse_trace_id(e.get("trace_id")),
                tags: parse_tags(e.get("tags")),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Timeline {
        spans,
        events,
        dropped: num(v, "dropped")? as u64,
    })
}

fn tag_suffix(tags: &[(&'static str, TagValue)]) -> String {
    let mut out = String::new();
    for (k, v) in tags {
        let _ = match v {
            TagValue::Int(i) => write!(out, " {k}={i}"),
            TagValue::Float(f) => write!(out, " {k}={f}"),
            TagValue::Str(s) => write!(out, " {k}={s:?}"),
            TagValue::Bool(b) => write!(out, " {k}={b}"),
        };
    }
    out
}

/// Renders the timeline span tree: roots first (record order), children
/// sorted by open time, box-drawing connectors, events attached to their
/// parent span.
fn render_timeline(tl: &Timeline) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} spans, {} events, {} request lane(s)",
        obs::TIMELINE_SCHEMA,
        tl.spans.len(),
        tl.events.len(),
        tl.trace_ids().len(),
    );
    if tl.dropped > 0 {
        let _ = writeln!(
            out,
            "warning: {} record(s) dropped (tracer buffer overflow) — the tree below is incomplete",
            tl.dropped
        );
    }
    fn line(out: &mut String, prefix: &str, connector: &str, s: &SpanRecord) {
        let _ = write!(
            out,
            "{prefix}{connector}{} [{:.3} ms]",
            s.name,
            s.dur_ns as f64 / 1e6
        );
        if let Some(t) = s.trace_id {
            let _ = write!(out, " trace={}", obs::trace_id_hex(t));
        }
        out.push_str(&tag_suffix(&s.tags));
        out.push('\n');
    }
    fn walk(out: &mut String, tl: &Timeline, id: u64, prefix: &str) {
        let mut kids = tl.children_of(id);
        kids.sort_by_key(|s| (s.start_ns, s.id));
        let events: Vec<&EventRecord> =
            tl.events.iter().filter(|e| e.parent == Some(id)).collect();
        let total = kids.len() + events.len();
        for (i, e) in events.iter().enumerate() {
            let last = i + 1 == total;
            let _ = write!(
                out,
                "{prefix}{}event {}",
                if last { "└─ " } else { "├─ " },
                e.name
            );
            out.push_str(&tag_suffix(&e.tags));
            out.push('\n');
        }
        for (i, k) in kids.iter().enumerate() {
            let last = events.len() + i + 1 == total;
            line(out, prefix, if last { "└─ " } else { "├─ " }, k);
            let deeper = format!("{prefix}{}", if last { "   " } else { "│  " });
            walk(out, tl, k.id, &deeper);
        }
    }
    let ids: std::collections::BTreeSet<u64> = tl.spans.iter().map(|s| s.id).collect();
    let mut roots: Vec<&SpanRecord> = tl
        .spans
        .iter()
        .filter(|s| match s.parent {
            None => true,
            // dropped parents leave orphans; promote them to roots
            Some(p) => !ids.contains(&p),
        })
        .collect();
    roots.sort_by_key(|s| (s.start_ns, s.id));
    for r in roots {
        line(&mut out, "", "", r);
        walk(&mut out, tl, r.id, "");
    }
    for e in tl.events.iter().filter(|e| {
        e.parent.is_none() || e.parent.is_some_and(|p| !ids.contains(&p))
    }) {
        let _ = write!(&mut out, "event {}", e.name);
        out.push_str(&tag_suffix(&e.tags));
        out.push('\n');
    }
    out
}

/// Renders one artifact: the text tree to print and, for a timeline, the
/// Chrome trace-event array `--chrome` writes (`None` for a certificate
/// document). `Err` is the message for a document that is not JSON, is
/// neither kind, or is malformed.
fn render(text: &str) -> Result<(String, Option<String>), String> {
    let value = Value::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if value.get("schema").and_then(Value::as_str) == Some(obs::TIMELINE_SCHEMA) {
        let tl = timeline_from_json(&value)
            .map_err(|e| format!("malformed {}: {e}", obs::TIMELINE_SCHEMA))?;
        return Ok((render_timeline(&tl), Some(tl.to_chrome_trace_string())));
    }
    let Some(cert) = value.get("certificate") else {
        return Err(format!(
            "expected an {} timeline or a document with a `certificate` member",
            obs::TIMELINE_SCHEMA
        ));
    };
    let cert =
        SearchCertificate::from_json(cert).map_err(|e| format!("malformed certificate: {e}"))?;
    let tree = milp::SearchTrace::from_certificate(&cert).to_text_tree();
    Ok((tree, None))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut chrome_out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chrome" => {
                i += 1;
                chrome_out = args.get(i).cloned().or_else(|| {
                    eprintln!("trace_view: --chrome needs an output path");
                    std::process::exit(2);
                });
            }
            other if other.starts_with("--") => {
                eprintln!("unknown argument {other}; usage: trace_view INPUT.json [--chrome OUT.json]");
                std::process::exit(2);
            }
            other => {
                if input.replace(other.to_string()).is_some() {
                    eprintln!("usage: trace_view INPUT.json [--chrome OUT.json]");
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    let Some(input) = input else {
        eprintln!("usage: trace_view INPUT.json [--chrome OUT.json]");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&input).unwrap_or_else(|e| {
        eprintln!("trace_view: cannot read {input}: {e}");
        std::process::exit(2);
    });
    let (tree, chrome) = render(&text).unwrap_or_else(|e| {
        eprintln!("trace_view: {input}: {e}");
        std::process::exit(2);
    });
    if chrome_out.is_some() && chrome.is_none() {
        eprintln!(
            "trace_view: {input}: --chrome takes a timeline, and a search tree has no timestamps; \
             usage: trace_view INPUT.json [--chrome OUT.json]"
        );
        std::process::exit(2);
    }
    print!("{tree}");
    if let (Some(path), Some(chrome)) = (chrome_out, chrome) {
        std::fs::write(&path, chrome).unwrap_or_else(|e| {
            eprintln!("trace_view: cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("chrome trace written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::cert::{NodeCert, NodeOutcome};
    use insitu_types::json::ToJson;

    #[test]
    fn certificate_document_renders_its_whole_tree() {
        let node = |id, parent, outcome| NodeCert {
            id,
            parent,
            lp_bound: 7.5,
            outcome,
        };
        let cert = SearchCertificate {
            objective: 7.0,
            dual_bound: 7.5,
            abs_gap: 1e-9,
            maximize: true,
            proven_optimal: true,
            nodes: vec![
                node(0, None, NodeOutcome::Branched),
                node(1, Some(0), NodeOutcome::Integral { objective: 7.0 }),
                node(2, Some(0), NodeOutcome::Branched),
                node(3, Some(2), NodeOutcome::PrunedBound),
                node(4, Some(2), NodeOutcome::PrunedInfeasible),
            ],
            cuts: Vec::new(),
        };
        let mut doc = std::collections::BTreeMap::new();
        doc.insert("problem".to_string(), Value::Null);
        doc.insert("certificate".to_string(), cert.to_json());
        let (tree, chrome) =
            render(&Value::Object(doc).to_string()).expect("certificate renders");
        assert!(chrome.is_none(), "a search tree has no Chrome export");
        assert_eq!(
            tree,
            milp::SearchTrace::from_certificate(&cert).to_text_tree()
        );
        assert!(tree.starts_with("search tree: 5 nodes, 0 cuts"), "{tree}");
        assert!(
            tree.contains("\n   └─ #4 bound=7.5 pruned-infeasible\n"),
            "{tree}"
        );
        assert!(render("{\"problem\":null}").is_err());
    }
}
