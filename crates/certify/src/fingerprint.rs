//! Canonical instance fingerprints for the serving tier.
//!
//! A fingerprint is a 128-bit hash of a [`ScheduleProblem`]'s **canonical
//! form** (analyses sorted by name, see [`insitu_types::canonical`]) with
//! every `f64` input first converted to its exact rational value via
//! [`Rat::from_f64_exact`] — the same lossless conversion the replay
//! engine uses. Hashing rationals instead of bit patterns makes the
//! fingerprint invariant under rational-equal encodings (`0.0` and
//! `-0.0` hash identically, exactly as they are indistinguishable to the
//! exact replay); hashing the canonical order makes it invariant under
//! analysis reordering. Values outside the exact-conversion range
//! (non-finite thresholds, magnitudes beyond the i128 window) fall back
//! to their IEEE-754 bit pattern under a distinct domain tag, so the
//! function is total.
//!
//! The fingerprint is a cache key, **not** a correctness proof: the
//! service re-certifies every cached schedule against the requester's own
//! instance, so even a 128-bit collision can never serve a wrong answer
//! (see `docs/SERVICE.md`).

use insitu_types::canonical::canonicalize;
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};

use crate::rational::Rat;

/// A 128-bit canonical instance fingerprint.
///
/// Displays as 32 lowercase hex characters. Equal fingerprints are a
/// near-certain (but re-verified, never trusted) sign of equal canonical
/// instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The fingerprint as 32 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a, 128-bit variant. Not cryptographic — collision resistance is
/// irrelevant here because every cache hit is re-certified — but fast,
/// dependency-free, and well distributed over structured input.
struct Fnv(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        // length prefix keeps adjacent strings from sliding into each other
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Hashes the exact rational value of `x` when representable, its
    /// IEEE-754 bits (under a different domain tag) otherwise.
    fn write_f64(&mut self, x: f64) {
        match Rat::from_f64_exact(x) {
            Ok(r) => {
                self.write(&[1]);
                self.write(&r.numer().to_le_bytes());
                self.write(&r.denom().to_le_bytes());
            }
            Err(_) => {
                self.write(&[2]);
                self.write(&x.to_bits().to_le_bytes());
            }
        }
    }
}

/// Computes the canonical fingerprint of a scheduling instance.
///
/// # Examples
///
/// ```
/// use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};
/// let mk = |names: &[&str]| ScheduleProblem::new(
///     names.iter().map(|n| AnalysisProfile::new(*n)).collect(),
///     ResourceConfig::default(),
/// ).unwrap();
/// // same instance, different analysis order => same fingerprint
/// assert_eq!(
///     certify::fingerprint(&mk(&["rdf", "msd"])),
///     certify::fingerprint(&mk(&["msd", "rdf"])),
/// );
/// assert_ne!(
///     certify::fingerprint(&mk(&["rdf", "msd"])),
///     certify::fingerprint(&mk(&["rdf"])),
/// );
/// ```
pub fn fingerprint(problem: &ScheduleProblem) -> Fingerprint {
    let (canon, _) = canonicalize(problem);
    let mut h = Fnv::new();
    h.write_str("insitu-fingerprint/v1");

    // exhaustive destructuring: adding a field to either struct breaks
    // this function at compile time instead of silently weakening the key
    let ResourceConfig {
        steps,
        step_threshold,
        mem_threshold,
        io_bandwidth,
    } = canon.resources;
    h.write_u64(steps as u64);
    h.write_f64(step_threshold);
    h.write_f64(mem_threshold);
    h.write_f64(io_bandwidth);

    h.write_u64(canon.analyses.len() as u64);
    for a in &canon.analyses {
        let AnalysisProfile {
            name,
            fixed_time,
            step_time,
            compute_time,
            output_time,
            fixed_mem,
            step_mem,
            compute_mem,
            output_mem,
            weight,
            min_interval,
            output_every,
        } = a;
        h.write_str(name);
        for &x in &[
            *fixed_time,
            *step_time,
            *compute_time,
            *output_time,
            *fixed_mem,
            *step_mem,
            *compute_mem,
            *output_mem,
            *weight,
        ] {
            h.write_f64(x);
        }
        h.write_u64(*min_interval as u64);
        h.write_u64(*output_every as u64);
    }
    Fingerprint(h.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::units::GIB;

    fn base() -> ScheduleProblem {
        ScheduleProblem::new(
            vec![
                AnalysisProfile::new("rdf").with_compute(0.5, GIB).with_interval(100),
                AnalysisProfile::new("msd")
                    .with_compute(4.0, 2.0 * GIB)
                    .with_interval(100)
                    .with_output(1.0, GIB, 1),
            ],
            ResourceConfig::from_total_threshold(1000, 30.0, 64.0 * GIB, GIB),
        )
        .unwrap()
    }

    #[test]
    fn invariant_under_analysis_reordering() {
        let p = base();
        let mut q = p.clone();
        q.analyses.reverse();
        assert_ne!(p.analyses, q.analyses);
        assert_eq!(fingerprint(&p), fingerprint(&q));
    }

    #[test]
    fn invariant_under_rational_equal_encodings() {
        let p = base();
        let mut q = p.clone();
        q.analyses[0].fixed_time = -0.0; // rational-equal to 0.0
        assert_ne!(
            q.analyses[0].fixed_time.to_bits(),
            p.analyses[0].fixed_time.to_bits()
        );
        assert_eq!(fingerprint(&p), fingerprint(&q));
    }

    #[test]
    fn sensitive_to_every_field() {
        let p = base();
        let fp = fingerprint(&p);
        let mut q = p.clone();
        q.resources.steps += 1;
        assert_ne!(fingerprint(&q), fp);
        let mut q = p.clone();
        q.analyses[1].compute_time += 1e-9;
        assert_ne!(fingerprint(&q), fp);
        let mut q = p.clone();
        q.analyses[0].min_interval += 1;
        assert_ne!(fingerprint(&q), fp);
        let mut q = p.clone();
        q.analyses[0].name.push('x');
        assert_ne!(fingerprint(&q), fp);
    }

    #[test]
    fn total_on_out_of_range_values() {
        // a +inf mem_threshold is an arithmetic error to the replay; the
        // fingerprint must still be defined (bit-pattern fallback)
        let mut p = base();
        p.resources.mem_threshold = f64::INFINITY;
        let fp = fingerprint(&p);
        let mut q = p.clone();
        q.resources.mem_threshold = 64.0 * GIB;
        assert_ne!(fingerprint(&q), fp);
    }

    #[test]
    fn hex_rendering_is_32_chars() {
        let fp = fingerprint(&base());
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(format!("{fp}"), fp.to_hex());
    }
}
