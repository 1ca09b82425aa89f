//! The `service/v1` fast paths against the code they replaced.
//!
//! `SolveService::handle_json` decodes a request in one pass
//! (`ServiceRequest::decode`) and writes its reply around the cache entry's
//! pre-rendered schedule (`ResponseHead::render`). The generic `Value` path
//! is the oracle for both:
//!
//! * every reply is byte for byte `json::to_string(&reply.into_response(id))`
//!   — as a miss, as a hit under a random analysis permutation, as a dedup,
//!   and for the zero-analysis instance;
//! * every decoded request is `json::from_str`'s — bit for bit on `Ok` (f64
//!   bits, so a `-0.0` counts), the same message on `Err` — on generated
//!   requests, on respellings of them (keys reordered, whitespace, repeated
//!   keys, unknown members, escaped names, other number spellings), on
//!   truncations and byte flips, and on every document of
//!   `crates/insitu-types/tests/json_adversarial.rs` wrapped into a request.
//!
//! Where the one-pass decoder answers at all it must give `from_str`'s
//! answer, and it must answer every respelling, or the comparison would
//! only hold `from_str` against itself. `WIRE_DIFF_CASES` sets the number
//! of generated instances (default 120).

use std::sync::Barrier;

use insitu_types::json::{self, Value, MAX_DEPTH};
use insitu_types::service::decode_in_one_pass;
use insitu_types::{
    AnalysisProfile, ResourceConfig, ScheduleProblem, ServiceRequest, ServiceResponse,
};
use integration_tests::fuzz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{ResponseSource, ServiceConfig, SolveService};

fn cases() -> usize {
    std::env::var("WIRE_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120)
}

/// Ids on both sides of the renderer's integer/float switch: 2^53 + 1 is
/// not an `f64` (it goes out as 2^53), and from 10^15 up ids go out in
/// float form.
const IDS: [u64; 6] = [
    0,
    (1 << 53) + 1,
    1_000_000_000_000_000,
    123_456_789_012_345_678,
    u64::MAX,
    7,
];

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn request(id: u64, problem: &ScheduleProblem) -> String {
    json::to_string(&ServiceRequest {
        id,
        problem: problem.clone(),
    })
}

/// A generated instance; on odd cases its weights leave the half-integer
/// grid, so that objectives go out in float form too.
fn instance(rng: &mut StdRng, case: usize) -> ScheduleProblem {
    let mut problem = fuzz::gen_problem(rng, case);
    if case % 2 == 1 {
        for a in &mut problem.analyses {
            a.weight *= 1.1;
        }
    }
    problem
}

/// The text of the reply's `id` member.
fn id_text(wire: &str) -> &str {
    let rest = &wire[wire.find("\"id\":").expect("a reply has an id") + 5..];
    &rest[..rest.find(',').expect("id is not the last member")]
}

#[test]
fn replies_are_the_value_renderings_byte_for_byte() {
    let mut rng = StdRng::seed_from_u64(28);
    let (mut served, mut fractional) = (0, 0);
    for case in 0..cases() {
        let problem = instance(&mut rng, case);
        let svc = SolveService::new(ServiceConfig::default());
        let oracle = SolveService::new(ServiceConfig::default());

        let id = IDS[case % IDS.len()];
        let wire = svc.handle_json(&request(id, &problem));
        let Ok(fresh) = oracle.solve(&problem) else {
            assert!(wire.contains("\"error\""), "case {case}: {wire}");
            continue;
        };
        assert_eq!(fresh.source, ResponseSource::Fresh);
        fractional += usize::from(fresh.objective.fract() != 0.0);
        assert_eq!(
            wire,
            json::to_string(&fresh.into_response(id)),
            "case {case}: miss"
        );

        let mut permuted = problem.clone();
        shuffle(&mut permuted.analyses, &mut rng);
        let id = IDS[(case + 1) % IDS.len()];
        let wire = svc.handle_json(&request(id, &permuted));
        let hit = svc.solve(&permuted).unwrap();
        assert_eq!(hit.source, ResponseSource::Hit);
        assert_eq!(
            wire,
            json::to_string(&hit.into_response(id)),
            "case {case}: hit"
        );
        served += 1;
    }
    assert!(
        served * 10 >= cases() * 9,
        "only {served} of {} solved",
        cases()
    );
    assert!(fractional > 0, "no objective left the integers");
}

#[test]
fn ids_cross_the_float_switch_as_the_value_path_renders_them() {
    let svc = SolveService::new(ServiceConfig::default());
    let problem = ScheduleProblem::new(
        vec![AnalysisProfile::new("rdf")
            .with_compute(0.5, 0.0)
            .with_interval(10)],
        ResourceConfig::from_total_threshold(100, 8.0, 1e9, 1e9),
    )
    .unwrap();
    svc.solve(&problem).unwrap();
    for id in IDS {
        let wire = svc.handle_json(&request(id, &problem));
        let reply = svc.solve(&problem).unwrap();
        assert_eq!(wire, json::to_string(&reply.into_response(id)));
        let float_form = id_text(&wire).contains(['.', 'e']);
        assert_eq!(float_form, id as f64 >= 1e15, "{}", id_text(&wire));
    }
}

#[test]
fn the_zero_analysis_reply_is_the_value_rendering() {
    let svc = SolveService::new(ServiceConfig::default());
    let empty = ScheduleProblem::new(Vec::new(), ResourceConfig::default()).unwrap();
    for id in IDS {
        let wire = svc.handle_json(&request(id, &empty));
        let reply = svc.solve(&empty).unwrap();
        assert_eq!(reply.source, ResponseSource::Fresh);
        assert_eq!(wire, json::to_string(&reply.into_response(id)));
        assert!(
            wire.contains("\"schedule\":{\"per_analysis\":[]}"),
            "{wire}"
        );
    }
}

/// Clients released together on one instance: whichever of them are
/// served as dedup waiters must get the bytes the `Value` path renders for
/// a dedup reply. How many wait is up to the scheduler (the deterministic
/// dedup case is a `service` unit test); every reply is checked, whatever
/// its source.
#[test]
fn concurrent_replies_are_the_value_renderings_too() {
    const CLIENTS: usize = 4;
    let mut rng = StdRng::seed_from_u64(2828);
    let mut dedups = 0;
    for case in (0..cases()).step_by(4) {
        let problem = instance(&mut rng, case);
        let asks: Vec<(u64, ScheduleProblem)> = (0..CLIENTS)
            .map(|c| {
                let mut p = problem.clone();
                shuffle(&mut p.analyses, &mut rng);
                (IDS[(case + c) % IDS.len()], p)
            })
            .collect();
        let svc = SolveService::new(ServiceConfig::default());
        let barrier = Barrier::new(CLIENTS);
        let wires: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = asks
                .iter()
                .map(|(id, p)| {
                    let (svc, barrier) = (&svc, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        svc.handle_json(&request(*id, p))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ((id, p), wire) in asks.iter().zip(&wires) {
            let Ok(source) = json::from_str::<ServiceResponse>(wire).map(|r| r.source) else {
                assert!(svc.solve(p).is_err(), "case {case}: {wire}");
                continue;
            };
            dedups += usize::from(source == ResponseSource::Dedup);
            let mut reply = svc.solve(p).unwrap();
            reply.source = source;
            assert_eq!(
                *wire,
                json::to_string(&reply.into_response(*id)),
                "case {case}"
            );
        }
    }
    eprintln!("dedup replies among the concurrent ones: {dedups}");
}

/// The request as `(id, names, every other field's bits)`.
fn bits(r: &ServiceRequest) -> (u64, Vec<String>, Vec<u64>) {
    let mut words = Vec::new();
    for a in &r.problem.analyses {
        words.extend(
            [
                a.fixed_time,
                a.step_time,
                a.compute_time,
                a.output_time,
                a.fixed_mem,
                a.step_mem,
                a.compute_mem,
                a.output_mem,
                a.weight,
            ]
            .map(f64::to_bits),
        );
        words.extend([a.min_interval as u64, a.output_every as u64]);
    }
    let res = &r.problem.resources;
    words.extend([
        res.steps as u64,
        res.step_threshold.to_bits(),
        res.mem_threshold.to_bits(),
        res.io_bandwidth.to_bits(),
    ]);
    let names = r.problem.analyses.iter().map(|a| a.name.clone()).collect();
    (r.id, names, words)
}

/// Holds `ServiceRequest::decode` and the one pass to `json::from_str` on
/// `text`, and says whether the one pass answered.
fn agrees(text: &str) -> bool {
    let oracle = json::from_str::<ServiceRequest>(text);
    match (&oracle, ServiceRequest::decode(text)) {
        (Ok(want), Ok(got)) => assert_eq!(bits(&got), bits(want), "{text}"),
        (Err(want), Err(got)) => assert_eq!(got.to_string(), want.to_string(), "{text}"),
        (want, got) => panic!("decode gives {got:?} but from_str {want:?} on {text}"),
    }
    let Some(fast) = decode_in_one_pass(text) else {
        return false;
    };
    let want = oracle
        .as_ref()
        .unwrap_or_else(|e| panic!("the one pass accepted what from_str refuses ({e}): {text}"));
    assert_eq!(bits(&fast), bits(want), "{text}");
    true
}

/// Writes a document another way. Every spelling decodes to the same
/// request, up to the sign of a zero.
struct Spelling {
    rng: StdRng,
    /// Probability of each respelling at each place it can happen.
    p: f64,
}

impl Spelling {
    fn coin(&mut self) -> bool {
        self.rng.gen_bool(self.p)
    }

    fn space(&mut self, out: &mut String) {
        while self.coin() {
            out.push([' ', '\t', '\n', '\r'][self.rng.gen_range(0..4usize)]);
        }
    }

    fn string(&mut self, s: &str, out: &mut String) {
        if !self.coin() {
            out.push_str(&Value::String(s.into()).to_string());
            return;
        }
        out.push('"');
        for c in s.chars() {
            if c == '/' {
                out.push_str("\\/");
            } else if c.is_ascii() && self.coin() {
                out.push_str(&format!("\\u{:04X}", c as u32));
            } else {
                let quoted = Value::String(c.into()).to_string();
                out.push_str(&quoted[1..quoted.len() - 1]);
            }
        }
        out.push('"');
    }

    fn number(&mut self, n: f64, out: &mut String) {
        if !self.coin() {
            out.push_str(&Value::Number(n).to_string());
        } else if n == 0.0 {
            out.push_str(["0", "-0", "0.0", "-0.0", "0e7", "-0E-3"][self.rng.gen_range(0..6usize)]);
        } else if n == n.trunc() && n.abs() < 1e15 && self.coin() {
            out.push_str(&format!("{}.000", n as i64));
        } else {
            out.push_str(&format!("{n:e}"));
        }
    }

    /// A value no request member has, to be skipped.
    fn junk(&mut self, depth: usize, out: &mut String) {
        match self.rng.gen_range(0..7usize) {
            0 => out.push_str("null"),
            1 => out.push_str("true"),
            2 => {
                let n = self.rng.gen_range(-1e6..1e6);
                self.number(n, out);
            }
            3 => self.string("junk \"quoted\" \\ é \u{1}", out),
            4 if depth < 4 => {
                out.push('[');
                for i in 0..self.rng.gen_range(0..3usize) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.junk(depth + 1, out);
                }
                out.push(']');
            }
            5 if depth < 4 => {
                out.push('{');
                for i in 0..self.rng.gen_range(0..3usize) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.string(&format!("k{i}"), out);
                    out.push(':');
                    self.junk(depth + 1, out);
                }
                out.push('}');
            }
            _ => out.push_str("false"),
        }
    }

    fn spell(&mut self, v: &Value, out: &mut String) {
        self.space(out);
        match v {
            Value::Number(n) => self.number(*n, out),
            Value::String(s) => self.string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.spell(item, out);
                }
                self.space(out);
                out.push(']');
            }
            Value::Object(map) => {
                let mut members: Vec<(&String, &Value)> = map.iter().collect();
                if self.coin() {
                    shuffle(&mut members, &mut self.rng);
                }
                out.push('{');
                let mut first = true;
                let mut comma = |out: &mut String| {
                    if !std::mem::take(&mut first) {
                        out.push(',');
                    }
                };
                for (key, value) in members {
                    if self.coin() {
                        comma(out);
                        self.space(out);
                        self.string("unknown member", out);
                        out.push(':');
                        self.junk(0, out);
                    }
                    if self.coin() {
                        // an earlier binding of the same key: the last one wins
                        comma(out);
                        self.space(out);
                        self.string(key, out);
                        out.push(':');
                        self.spell(&decoy(value), out);
                    }
                    comma(out);
                    self.space(out);
                    self.string(key, out);
                    self.space(out);
                    out.push(':');
                    self.spell(value, out);
                    self.space(out);
                }
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

/// A value of the same shape and types that means something else.
fn decoy(v: &Value) -> Value {
    match v {
        Value::Number(n) => Value::Number(n + 1.0),
        Value::String(s) => Value::String(format!("{s}-decoy")),
        Value::Array(items) => Value::Array(items.iter().map(decoy).collect()),
        Value::Object(map) => {
            Value::Object(map.iter().map(|(k, v)| (k.clone(), decoy(v))).collect())
        }
        other => other.clone(),
    }
}

#[test]
fn decode_is_from_str_on_requests_and_their_mutations() {
    let mut rng = StdRng::seed_from_u64(280);
    let mut spelling = Spelling {
        rng: StdRng::seed_from_u64(281),
        p: 0.3,
    };
    let (mut flips, mut flips_answered) = (0, 0);
    for case in 0..cases() {
        let problem = instance(&mut rng, case);
        let text = request(IDS[case % IDS.len()], &problem);
        assert!(
            agrees(&text),
            "the one pass must answer a plain request: {text}"
        );

        let tree = Value::parse(&text).unwrap();
        let mut respelled = Vec::new();
        for _ in 0..4 {
            let mut out = String::new();
            spelling.spell(&tree, &mut out);
            spelling.space(&mut out);
            assert!(agrees(&out), "the one pass must answer a respelling: {out}");
            respelled.push(out);
        }

        for doc in [&text, &respelled[0]] {
            let step = (doc.len() / 40).max(1);
            for end in (0..doc.len()).step_by(step).chain([doc.len() - 1]) {
                if doc.is_char_boundary(end) {
                    agrees(&doc[..end]);
                }
            }
        }

        const BYTES: &[u8] = b"{}[]:,\"\\ 0123456789.eE+-tfnulx";
        for doc in [&text, &respelled[1]] {
            for _ in 0..24 {
                let mut bytes = doc.as_bytes().to_vec();
                let at = rng.gen_range(0..bytes.len());
                if !bytes[at].is_ascii() {
                    continue;
                }
                bytes[at] = BYTES[rng.gen_range(0..BYTES.len())];
                let flipped = String::from_utf8(bytes).unwrap();
                flips += 1;
                flips_answered += usize::from(agrees(&flipped));
            }
        }
    }
    eprintln!("byte flips: {flips}, answered by the one pass: {flips_answered}");
}

fn base_problem() -> ScheduleProblem {
    ScheduleProblem::new(
        vec![AnalysisProfile::new("a")
            .with_compute(1.0, 0.0)
            .with_interval(10)],
        ResourceConfig::from_total_threshold(100, 5.0, 1e9, 1e9),
    )
    .unwrap()
}

#[test]
fn negative_zero_keeps_its_sign() {
    let text = request(3, &base_problem()).replace("\"fixed_mem\":0", "\"fixed_mem\":-0.0");
    assert!(agrees(&text));
    let decoded = ServiceRequest::decode(&text).unwrap();
    assert_eq!(
        decoded.problem.analyses[0].fixed_mem.to_bits(),
        (-0.0f64).to_bits()
    );
}

/// `doc` in every place of a request a document can go.
fn wrapped(doc: &str) -> Vec<String> {
    let problem = json::to_string(&base_problem());
    let replace = |what: &str, with: String| {
        let out = problem.replacen(what, &with, 1);
        assert_ne!(out, problem, "{what} not in {problem}");
        format!(r#"{{"schema":"service/v1","id":1,"problem":{out}}}"#)
    };
    vec![
        doc.to_string(),
        format!(r#"{{"schema":"service/v1","id":{doc},"problem":{problem}}}"#),
        format!(r#"{{"schema":{doc},"id":1,"problem":{problem}}}"#),
        format!(r#"{{"schema":"service/v1","id":1,"problem":{doc}}}"#),
        format!(r#"{{"schema":"service/v1","id":1,"problem":{problem},"unknown":{doc}}}"#),
        format!(r#"{{"unknown":{doc},"schema":"service/v1","id":1,"problem":{problem}}}"#),
        replace("\"weight\":1", format!("\"weight\":{doc}")),
        replace("\"name\":\"a\"", format!("\"name\":{doc}")),
        replace("\"steps\":100", format!("\"steps\":{doc}")),
        replace("[{", format!("[{doc},{{")),
        replace("[{", format!("[{{\"unknown\":{doc},")),
        format!(r#"{{"schema":"service/v1","id":1,"problem":{problem}}}{doc}"#),
    ]
}

#[test]
fn the_adversarial_documents_wrapped_as_requests() {
    let big = "123456789012345678901234567890123456789012345678";
    let mut docs: Vec<String> = [
        // nan_and_inf_literals_rejected
        "NaN",
        "nan",
        "Infinity",
        "-Infinity",
        "inf",
        "[NaN]",
        // overflowing_exponents_rejected
        "1e999",
        "-1e999",
        "1e308999",
        "[1, 2, 1e999]",
        "1e308",
        "1e309",
        "1e-999",
        // huge_integer_digit_strings_do_not_panic
        big,
        "[1.5]",
        "[-1]",
        "1.5",
        "-1",
        // trailing_garbage_detected
        "{} x",
        "[1] [2]",
        "1 2",
        "null,",
        "truefalse",
        "\"s\" trailing",
        "{\"a\":1}}",
        // hostile_escapes_rejected
        r#""\x41""#,
        r#""\u12""#,
        r#""\u12zz""#,
        r#""\ud800""#,
        "\"\\",
        // structural_type_confusion_rejected
        r#"{"analyses":{},"resources":{"steps":1,"step_threshold":1,"mem_threshold":1,"io_bandwidth":1}}"#,
        r#"{"analyses":[],"resources":[]}"#,
        r#"{"analyses":[17],"resources":{"steps":1,"step_threshold":1,"mem_threshold":1,"io_bandwidth":1}}"#,
        // duplicate_keys_last_one_wins_deterministically
        r#"{"a":1,"a":2}"#,
        // non_utf8_inside_string_rejected
        "\"\\u0000\"",
    ]
    .map(String::from)
    .into();
    docs.push(format!(r#"{{"analysis_steps":[{big}],"output_steps":[]}}"#));
    // deep_nesting_is_an_error_not_a_stack_overflow
    docs.push("[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1));
    docs.push("[".repeat(100_000));
    docs.push("{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1));
    docs.push("[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH));
    // truncated_documents_rejected
    let full = json::to_string(&AnalysisProfile::new("x").with_compute(1.0, 2.0));
    docs.extend((1..full.len()).map(|end| full[..end].to_string()));
    docs.push(full);

    let mut answered = 0;
    for doc in &docs {
        for text in wrapped(doc) {
            answered += usize::from(agrees(&text));
        }
    }
    // a number, a string or a profile where one may go
    assert!(answered > 0);
}

#[test]
fn nesting_counts_from_the_document_root_inside_unknown_members() {
    // The request object is level 1, so an unknown member of it may nest
    // MAX_DEPTH - 1 levels; inside a profile (request, problem, analyses,
    // profile) MAX_DEPTH - 4. One more is past the limit however it is
    // reached: a skip that counted from the member would accept it.
    let problem = json::to_string(&base_problem());
    for (levels, fits) in [(MAX_DEPTH - 1, true), (MAX_DEPTH, false)] {
        let junk = "[".repeat(levels) + &"]".repeat(levels);
        let text =
            format!(r#"{{"schema":"service/v1","id":1,"problem":{problem},"unknown":{junk}}}"#);
        assert_eq!(
            json::from_str::<ServiceRequest>(&text).is_ok(),
            fits,
            "{levels}"
        );
        assert_eq!(agrees(&text), fits, "{levels}");
    }
    for (levels, fits) in [(MAX_DEPTH - 4, true), (MAX_DEPTH - 3, false)] {
        let junk = "{\"k\":".repeat(levels - 1) + "{}" + &"}".repeat(levels - 1);
        let inner = problem.replacen("[{", &format!("[{{\"unknown\":{junk},"), 1);
        let text = format!(r#"{{"schema":"service/v1","id":1,"problem":{inner}}}"#);
        assert_eq!(
            json::from_str::<ServiceRequest>(&text).is_ok(),
            fits,
            "{levels}"
        );
        assert_eq!(agrees(&text), fits, "{levels}");
    }
}
