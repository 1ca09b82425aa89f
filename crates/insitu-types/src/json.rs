//! Self-contained JSON persistence for the scheduling data model.
//!
//! Profiles measured on one machine are stored as JSON and re-used as a
//! profiling database for later scheduling runs. The build environment is
//! offline (no serde), so this module implements the round-trip by hand: a
//! tiny JSON value tree, a recursive-descent parser, and explicit
//! [`ToJson`] / [`FromJson`] impls for the public types. Field names match
//! the Rust struct fields (`compute_time`, `min_interval`, ...) and are a
//! stability guarantee for external tooling — see
//! `tests/serde_roundtrip.rs`.
//!
//! Numbers are rendered with Rust's shortest-round-trip float formatting,
//! so `from_str(&to_string(x)) == x` exactly, bit for bit.
//!
//! The service's hot path reads and writes `service/v1` without the tree
//! (`crate::service`), on this module's lexer, object/array walkers and
//! number and string rules, so both paths accept and emit the same bytes.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::error::TypeError;
use crate::problem::ScheduleProblem;
use crate::profile::AnalysisProfile;
use crate::resources::ResourceConfig;
use crate::schedule::{AnalysisSchedule, Schedule};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys sorted for deterministic rendering.
    Object(BTreeMap<String, Value>),
}

/// Renders compact JSON (and powers `Value::to_string`).
impl core::fmt::Display for Value {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl Value {
    /// Renders human-readable JSON with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => render_number(*n, out),
            Value::String(s) => render_string(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.render(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    render_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// Hardened against adversarial input: numbers that overflow `f64` to
    /// infinity (e.g. `1e999`) are rejected rather than silently becoming
    /// non-finite values the data model forbids, and nesting deeper than
    /// [`MAX_DEPTH`] is rejected rather than overflowing the parser's
    /// recursion stack.
    pub fn parse(text: &str) -> Result<Value, TypeError> {
        let mut p = Parser::new(text);
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }

    pub(crate) fn expect_object(&self, what: &str) -> Result<&BTreeMap<String, Value>, TypeError> {
        match self {
            Value::Object(m) => Ok(m),
            _ => Err(TypeError::Parse(format!("{what}: expected object"))),
        }
    }

    pub(crate) fn expect_array(&self, what: &str) -> Result<&[Value], TypeError> {
        match self {
            Value::Array(a) => Ok(a),
            _ => Err(TypeError::Parse(format!("{what}: expected array"))),
        }
    }

    pub(crate) fn expect_f64(&self, what: &str) -> Result<f64, TypeError> {
        match self {
            Value::Number(n) => Ok(*n),
            _ => Err(TypeError::Parse(format!("{what}: expected number"))),
        }
    }

    pub(crate) fn expect_usize(&self, what: &str) -> Result<usize, TypeError> {
        let n = self.expect_f64(what)?;
        usize_of(n).ok_or_else(|| {
            TypeError::Parse(format!("{what}: expected non-negative integer, got {n}"))
        })
    }

    pub(crate) fn expect_str(&self, what: &str) -> Result<&str, TypeError> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(TypeError::Parse(format!("{what}: expected string"))),
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// `n` as a count, if it is one: the rule of every `usize` on the wire.
pub(crate) fn usize_of(n: f64) -> Option<usize> {
    if n < 0.0 || n.fract() != 0.0 || n > usize::MAX as f64 {
        None
    } else {
        Some(n as usize)
    }
}

/// The one number rule of every rendered document. Generic over the sink
/// so that a writer can measure a document before it allocates for it.
pub(crate) fn render_number<W: core::fmt::Write>(n: f64, out: &mut W) {
    if !n.is_finite() {
        // JSON has no inf/nan; the data model never produces them, but fail
        // loudly rather than emitting invalid documents.
        panic!("cannot serialize non-finite number {n}");
    }
    if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's {:?} prints the shortest string that parses back exactly
        let _ = write!(out, "{n:?}");
    }
}

/// The one string rule of every rendered document.
pub(crate) fn render_string<W: core::fmt::Write>(s: &str, out: &mut W) {
    let _ = out.write_char('"');
    for c in s.chars() {
        let _ = match c {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            '\r' => out.write_str("\\r"),
            '\t' => out.write_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32),
            c => out.write_char(c),
        };
    }
    let _ = out.write_char('"');
}

/// Maximum array/object nesting depth [`Value::parse`] accepts. The
/// recursive-descent parser uses one stack frame per level, so the limit
/// turns a would-be stack overflow (an abort) into a parse error.
pub const MAX_DEPTH: usize = 128;

/// The lexer, and the recursive descent that builds a [`Value`] from its
/// tokens. Crate-visible so that a typed decoder
/// ([`crate::service::ServiceRequest::decode`]) walks a document with the
/// same tokens, number and string rules and depth count.
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, msg: &str) -> TypeError {
        TypeError::Parse(format!("json at byte {}: {msg}", self.pos))
    }

    /// The end of a document: nothing but whitespace may follow it.
    pub(crate) fn finish(&mut self) -> Result<(), TypeError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after JSON document"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), TypeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    pub(crate) fn value(&mut self) -> Result<Value, TypeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => Ok(Value::Number(self.number()?)),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// A number where a value starts, as [`Parser::value`] reads it.
    pub(crate) fn number_value(&mut self) -> Result<f64, TypeError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a number")),
        }
    }

    /// A string where a value starts, as [`Parser::value`] reads it.
    pub(crate) fn string_value(&mut self) -> Result<Cow<'a, str>, TypeError> {
        self.skip_ws();
        self.string()
    }

    /// Walks one object, handing each key to `member` with the parser at
    /// the member's value, which `member` must consume. Every object is
    /// read here, the tree's and a typed decoder's alike, so the two share
    /// one grammar and one depth count; what a member means is the
    /// caller's.
    pub(crate) fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), TypeError>,
    ) -> Result<(), TypeError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.error("expected an object"));
        }
        self.enter()?;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            member(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    /// Walks one array, calling `item` with the parser at each element,
    /// which `item` must consume. Every array is read here.
    pub(crate) fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), TypeError>,
    ) -> Result<(), TypeError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            return Err(self.error("expected an array"));
        }
        self.enter()?;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn enter(&mut self) -> Result<(), TypeError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than MAX_DEPTH"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, TypeError> {
        let mut map = BTreeMap::new();
        self.members(|p, key| {
            map.insert(key.to_owned(), p.value()?);
            Ok(())
        })?;
        Ok(Value::Object(map))
    }

    fn array(&mut self) -> Result<Value, TypeError> {
        let mut items = Vec::new();
        self.items(|p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    /// A string token, borrowed from the document unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, TypeError> {
        self.eat(b'"')?;
        let bytes = self.bytes;
        let mut escaped: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            let run = std::str::from_utf8(&bytes[start..self.pos])
                .map_err(|_| self.error("invalid utf-8 in string"))?;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match escaped {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = escaped.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<f64, TypeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        if !n.is_finite() {
            // "1e999" parses to +inf under Rust's f64 rules; JSON numbers
            // must stay finite or the data model's invariants break
            return Err(self.error("number overflows the f64 range"));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Type conversions
// ---------------------------------------------------------------------------

/// Types that render to a JSON [`Value`].
pub trait ToJson {
    /// Converts to a JSON value tree.
    fn to_json(&self) -> Value;
}

/// Types that parse from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Converts from a JSON value tree.
    fn from_json(v: &Value) -> Result<Self, TypeError>;
}

/// Serializes any [`ToJson`] type to compact JSON.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serializes any [`ToJson`] type to pretty-printed JSON.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses any [`FromJson`] type from JSON text.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, TypeError> {
    T::from_json(&Value::parse(text)?)
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn unum(n: usize) -> Value {
    Value::Number(n as f64)
}

fn field<'v>(map: &'v BTreeMap<String, Value>, ty: &str, name: &str) -> Result<&'v Value, TypeError> {
    map.get(name)
        .ok_or_else(|| TypeError::Parse(format!("{ty}: missing field '{name}'")))
}

impl ToJson for AnalysisProfile {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("name".into(), Value::String(self.name.clone()));
        m.insert("fixed_time".into(), num(self.fixed_time));
        m.insert("step_time".into(), num(self.step_time));
        m.insert("compute_time".into(), num(self.compute_time));
        m.insert("output_time".into(), num(self.output_time));
        m.insert("fixed_mem".into(), num(self.fixed_mem));
        m.insert("step_mem".into(), num(self.step_mem));
        m.insert("compute_mem".into(), num(self.compute_mem));
        m.insert("output_mem".into(), num(self.output_mem));
        m.insert("weight".into(), num(self.weight));
        m.insert("min_interval".into(), unum(self.min_interval));
        m.insert("output_every".into(), unum(self.output_every));
        Value::Object(m)
    }
}

impl FromJson for AnalysisProfile {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "AnalysisProfile";
        let m = v.expect_object(TY)?;
        Ok(AnalysisProfile {
            name: field(m, TY, "name")?.expect_str("name")?.to_string(),
            fixed_time: field(m, TY, "fixed_time")?.expect_f64("fixed_time")?,
            step_time: field(m, TY, "step_time")?.expect_f64("step_time")?,
            compute_time: field(m, TY, "compute_time")?.expect_f64("compute_time")?,
            output_time: field(m, TY, "output_time")?.expect_f64("output_time")?,
            fixed_mem: field(m, TY, "fixed_mem")?.expect_f64("fixed_mem")?,
            step_mem: field(m, TY, "step_mem")?.expect_f64("step_mem")?,
            compute_mem: field(m, TY, "compute_mem")?.expect_f64("compute_mem")?,
            output_mem: field(m, TY, "output_mem")?.expect_f64("output_mem")?,
            weight: field(m, TY, "weight")?.expect_f64("weight")?,
            min_interval: field(m, TY, "min_interval")?.expect_usize("min_interval")?,
            output_every: field(m, TY, "output_every")?.expect_usize("output_every")?,
        })
    }
}

impl ToJson for ResourceConfig {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("steps".into(), unum(self.steps));
        m.insert("step_threshold".into(), num(self.step_threshold));
        m.insert("mem_threshold".into(), num(self.mem_threshold));
        m.insert("io_bandwidth".into(), num(self.io_bandwidth));
        Value::Object(m)
    }
}

impl FromJson for ResourceConfig {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "ResourceConfig";
        let m = v.expect_object(TY)?;
        Ok(ResourceConfig {
            steps: field(m, TY, "steps")?.expect_usize("steps")?,
            step_threshold: field(m, TY, "step_threshold")?.expect_f64("step_threshold")?,
            mem_threshold: field(m, TY, "mem_threshold")?.expect_f64("mem_threshold")?,
            io_bandwidth: field(m, TY, "io_bandwidth")?.expect_f64("io_bandwidth")?,
        })
    }
}

impl ToJson for ScheduleProblem {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert(
            "analyses".into(),
            Value::Array(self.analyses.iter().map(ToJson::to_json).collect()),
        );
        m.insert("resources".into(), self.resources.to_json());
        Value::Object(m)
    }
}

impl FromJson for ScheduleProblem {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "ScheduleProblem";
        let m = v.expect_object(TY)?;
        let analyses = field(m, TY, "analyses")?
            .expect_array("analyses")?
            .iter()
            .map(AnalysisProfile::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let resources = ResourceConfig::from_json(field(m, TY, "resources")?)?;
        // bypass `new` so stored-but-invalid problems can still be loaded
        // and re-validated by the caller with a better error context
        Ok(ScheduleProblem { analyses, resources })
    }
}

impl ToJson for AnalysisSchedule {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert(
            "analysis_steps".into(),
            Value::Array(self.analysis_steps().iter().map(|&j| unum(j)).collect()),
        );
        m.insert(
            "output_steps".into(),
            Value::Array(self.output_steps().iter().map(|&j| unum(j)).collect()),
        );
        Value::Object(m)
    }
}

impl FromJson for AnalysisSchedule {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "AnalysisSchedule";
        let m = v.expect_object(TY)?;
        let steps = |name: &str| -> Result<Vec<usize>, TypeError> {
            field(m, TY, name)?
                .expect_array(name)?
                .iter()
                .map(|x| x.expect_usize(name))
                .collect()
        };
        // `new` re-canonicalizes (sort + dedup), keeping the invariant even
        // for hand-edited files
        Ok(AnalysisSchedule::new(
            steps("analysis_steps")?,
            steps("output_steps")?,
        ))
    }
}

impl ToJson for Schedule {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert(
            "per_analysis".into(),
            Value::Array(self.per_analysis.iter().map(ToJson::to_json).collect()),
        );
        Value::Object(m)
    }
}

impl FromJson for Schedule {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "Schedule";
        let m = v.expect_object(TY)?;
        let per_analysis = field(m, TY, "per_analysis")?
            .expect_array("per_analysis")?
            .iter()
            .map(AnalysisSchedule::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Schedule { per_analysis })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_navigate_parsed_documents() {
        let v = Value::parse("{\"a\": [1, true, \"x\"], \"b\": {\"c\": 2}}").unwrap();
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Value::as_f64), Some(2.0));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_bool(), Some(true));
        assert_eq!(a[2].as_str(), Some("x"));
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
        assert!(a[0].get("not-an-object").is_none());
        assert!(v.as_str().is_none() && v.as_f64().is_none() && v.as_bool().is_none());
    }

    #[test]
    fn value_parse_rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1, 2,]").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn value_round_trips_basics() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.25",
            "\"a b\"",
            "[1,2,3]",
            "{\"k\":[true,null]}",
        ] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = Value::String("quote \" slash \\ newline \n tab \t".into());
        let back = Value::parse(&s.to_string()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.07, 1e-12, 64.69, 1.0 / 3.0, 5.34e8, f64::MIN_POSITIVE] {
            let v = num(x);
            let back = Value::parse(&v.to_string()).unwrap();
            assert_eq!(back.expect_f64("x").unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let v = Value::parse("{\"a\":[1,2],\"b\":{\"c\":true}}").unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  "));
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }
}
