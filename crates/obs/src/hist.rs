//! Deterministic log₂-bucket latency histograms.
//!
//! A [`Hist`] counts observations into buckets of the form
//! `[2^k, 2^(k+1))` — the bucket of a positive value is read straight
//! off its IEEE-754 exponent, so bucketing involves no floating-point
//! arithmetic and is exact at every magnitude. The state is pure
//! integer counts plus the multiset min/max, which makes a snapshot
//! **bitwise deterministic for a given multiset of observations**: the
//! order the observations arrived in, the number of threads that fed
//! them, and how partial histograms were merged are all invisible in
//! the result. [`Hist::merge`] is associative and commutative (it adds
//! counts and takes min/max), so per-thread shards can be folded in any
//! order.
//!
//! Quantile estimates come with a documented error bound: for a rank
//! that lands in bucket `k`, [`Hist::quantile`] returns the bucket's
//! upper edge `2^(k+1)` clamped into `[min, max]`, and every
//! observation in that bucket lies in `[2^k, 2^(k+1))` — so the
//! estimate is never below the true quantile and overshoots it by
//! strictly less than a factor of 2 (before clamping, which only
//! tightens it). Non-positive and non-finite observations are counted
//! in a separate `nonpositive` bin that sorts below every bucket.
//!
//! The JSON export is the `obs/hist/v1` schema documented in
//! `docs/OBSERVABILITY.md`; [`crate::Registry`] stores named `Hist`s
//! next to its counters.

use crate::json::{push_f64, push_i64, push_str_lit, push_u64};
use std::collections::BTreeMap;

/// Schema identifier written by [`Hist::to_json_string`].
pub const HIST_SCHEMA: &str = "obs/hist/v1";

/// Smallest bucket exponent tracked; values below `2^MIN_EXP` clamp
/// into this bucket. `2^-64 ≈ 5.4e-20` — far below a nanosecond in
/// seconds, so latencies never clamp in practice.
pub const MIN_EXP: i32 = -64;
/// Largest bucket exponent tracked; values at or above `2^(MAX_EXP+1)`
/// clamp into this bucket. `2^64 ≈ 1.8e19`.
pub const MAX_EXP: i32 = 63;

/// Bucket exponent of a positive finite value: the unique `k` with
/// `2^k <= v < 2^(k+1)`, clamped to `[MIN_EXP, MAX_EXP]`. `None` for
/// zero, negative, or non-finite values.
fn bucket_exp(v: f64) -> Option<i32> {
    // NaN fails the second test; zero and negatives fail the first
    if v <= 0.0 || !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let exp = if biased == 0 {
        // subnormal: below 2^-1022, clamps to MIN_EXP anyway
        MIN_EXP
    } else {
        biased - 1023
    };
    Some(exp.clamp(MIN_EXP, MAX_EXP))
}

/// A mergeable log₂-bucket histogram. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Total observations, including non-positive ones.
    pub count: u64,
    /// Observations that were zero, negative, or non-finite; they sort
    /// below every bucket in quantile estimation.
    pub nonpositive: u64,
    /// Sparse bucket counts: `exp -> count` with every value in the
    /// bucket satisfying `2^exp <= v < 2^(exp+1)` (after clamping to
    /// `[MIN_EXP, MAX_EXP]`).
    pub buckets: BTreeMap<i32, u64>,
    /// Smallest finite observation (`+inf` observations excluded; `NaN`
    /// never folds in). Meaningless when `count == 0`.
    pub min: f64,
    /// Largest finite observation. Meaningless when `count == 0`.
    pub max: f64,
}

impl Default for Hist {
    /// Same as [`Hist::new`]: empty, with the `min`/`max` identity
    /// sentinels (`+inf`/`-inf`), *not* zeroed fields — a zeroed `min`
    /// would absorb every positive observation.
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            count: 0,
            nonpositive: 0,
            buckets: BTreeMap::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds one observation in.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        match bucket_exp(v) {
            Some(exp) => *self.buckets.entry(exp).or_insert(0) += 1,
            None => self.nonpositive += 1,
        }
        if v.is_finite() {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Folds another histogram in. Associative and commutative: any
    /// merge tree over the same shards yields the identical histogram.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.nonpositive += other.nonpositive;
        for (&exp, &c) in &other.buckets {
            *self.buckets.entry(exp).or_insert(0) += c;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`), `None` when
    /// empty.
    ///
    /// The estimate is the upper edge of the bucket holding the
    /// observation of rank `max(1, ceil(q * count))`, clamped into
    /// `[min, max]`. Error bound: the true quantile `t` satisfies
    /// `estimate / 2 < t <= estimate` before clamping (clamping only
    /// moves the estimate toward the true extremes). Ranks that land in
    /// the non-positive bin return `min`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank <= self.nonpositive {
            return Some(self.min);
        }
        let mut seen = self.nonpositive;
        for (&exp, &c) in &self.buckets {
            seen += c;
            if rank <= seen {
                let upper = exp2(exp + 1);
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Exports the `obs/hist/v1` JSON object: `{"schema", "count",
    /// "nonpositive", "min", "max", "buckets": [{"exp", "count"}, ..]}`.
    /// Buckets are emitted in ascending exponent order, so two equal
    /// histograms serialize to byte-identical strings.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"schema\":");
        push_str_lit(&mut out, HIST_SCHEMA);
        out.push_str(",\"count\":");
        push_u64(&mut out, self.count);
        out.push_str(",\"nonpositive\":");
        push_u64(&mut out, self.nonpositive);
        out.push_str(",\"min\":");
        push_f64(&mut out, if self.count == 0 { 0.0 } else { self.min });
        out.push_str(",\"max\":");
        push_f64(&mut out, if self.count == 0 { 0.0 } else { self.max });
        out.push_str(",\"buckets\":[");
        for (i, (&exp, &c)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"exp\":");
            push_i64(&mut out, exp as i64);
            out.push_str(",\"count\":");
            push_u64(&mut out, c);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// `2^exp` as f64, exact over the tracked exponent range.
fn exp2(exp: i32) -> f64 {
    // MAX_EXP + 1 = 64 and MIN_EXP = -64 are both well inside f64's
    // normal exponent range, so this is exact
    f64::from_bits(((exp + 1023) as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact() {
        assert_eq!(bucket_exp(1.0), Some(0));
        assert_eq!(bucket_exp(1.999_999), Some(0));
        assert_eq!(bucket_exp(2.0), Some(1));
        assert_eq!(bucket_exp(0.5), Some(-1));
        assert_eq!(bucket_exp(1e-9), Some(-30));
        assert_eq!(bucket_exp(0.0), None);
        assert_eq!(bucket_exp(-1.0), None);
        assert_eq!(bucket_exp(f64::NAN), None);
        assert_eq!(bucket_exp(f64::INFINITY), None);
        // clamping at both ends
        assert_eq!(bucket_exp(1e300), Some(MAX_EXP));
        assert_eq!(bucket_exp(5e-324), Some(MIN_EXP));
    }

    #[test]
    fn exp2_matches_powi() {
        for e in [-64, -30, -1, 0, 1, 30, 64] {
            assert_eq!(exp2(e), 2.0f64.powi(e), "exp {e}");
        }
    }

    #[test]
    fn observe_counts_and_extrema() {
        let mut h = Hist::new();
        for v in [0.5, 1.5, 1.6, 3.0, 0.0, -2.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.nonpositive, 2);
        assert_eq!(h.buckets[&-1], 1); // 0.5
        assert_eq!(h.buckets[&0], 2); // 1.5, 1.6
        assert_eq!(h.buckets[&1], 1); // 3.0
        assert_eq!(h.min, -2.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn merge_equals_interleaved_observation() {
        let values = [0.1, 0.2, 1.0, 2.0, 4.0, 8.0, 8.5, 0.0];
        let mut whole = Hist::new();
        for &v in &values {
            whole.observe(v);
        }
        let (a_vals, b_vals) = values.split_at(3);
        let mut a = Hist::new();
        let mut b = Hist::new();
        for &v in a_vals {
            a.observe(v);
        }
        for &v in b_vals {
            b.observe(v);
        }
        let mut merged = Hist::new();
        merged.merge(&b); // reverse order on purpose
        merged.merge(&a);
        assert_eq!(merged, whole);
        assert_eq!(merged.to_json_string(), whole.to_json_string());
    }

    #[test]
    fn quantile_bounds_hold() {
        let mut h = Hist::new();
        let mut values: Vec<f64> = (1..=100).map(|i| i as f64 * 0.013).collect();
        for &v in &values {
            h.observe(v);
        }
        values.sort_by(f64::total_cmp);
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!(est >= prev, "quantiles must be monotone in q");
            prev = est;
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let truth = values[rank - 1];
            assert!(est >= truth, "q={q}: est {est} < true {truth}");
            assert!(est < truth * 2.0 + 1e-12, "q={q}: est {est} >= 2x {truth}");
        }
    }

    #[test]
    fn quantile_handles_edge_populations() {
        assert_eq!(Hist::new().quantile(0.5), None);
        let mut h = Hist::new();
        h.observe(3.0);
        assert_eq!(h.quantile(0.0), Some(3.0)); // clamped to max
        assert_eq!(h.quantile(1.0), Some(3.0));
        let mut h = Hist::new();
        h.observe(0.0);
        h.observe(-1.0);
        // all-nonpositive population returns min
        assert_eq!(h.quantile(0.5), Some(-1.0));
    }

    #[test]
    fn json_is_schema_tagged_and_deterministic() {
        let mut h = Hist::new();
        h.observe(1.5);
        h.observe(0.25);
        let json = h.to_json_string();
        assert!(json.starts_with("{\"schema\":\"obs/hist/v1\""));
        assert!(json.contains("\"buckets\":[{\"exp\":-2,\"count\":1},{\"exp\":0,\"count\":1}]"));
        let empty = Hist::new().to_json_string();
        assert!(empty.contains("\"count\":0"));
        assert!(empty.contains("\"min\":0"), "{empty}");
    }
}
