//! The benchmark's own random source.
//!
//! The inputs of a workload must be a function of `--seed` alone, across
//! commits: a generator borrowed from the repository (`vendor/rand`) would
//! change the inputs whenever that crate changes, and a parent/child
//! comparison would then measure two different request streams.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`label`) under one seed, so
    /// adding draws to one generator never shifts another's.
    pub fn derive(seed: u64, label: u64) -> Self {
        let mut r = Rng(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi` (modulo bias < 2^-50 at these widths).
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.int(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..k`: `P(rank r) ∝ 1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(k);
        let mut total = 0.0;
        for r in 1..=k {
            total += (r as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Splits `n` draws over the ranks in exact Zipf proportion (largest
    /// remainder), so a stream's popularity mix does not vary with the seed.
    pub fn apportion(&self, n: usize) -> Vec<usize> {
        let mut previous = 0.0;
        let shares: Vec<f64> = self
            .cdf
            .iter()
            .map(|&c| {
                let share = (c - previous) * n as f64;
                previous = c;
                share
            })
            .collect();
        let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (shares[b] - shares[b].floor())
                .total_cmp(&(shares[a] - shares[a].floor()))
                .then(a.cmp(&b))
        });
        let missing = n - counts.iter().sum::<usize>();
        for &rank in by_remainder.iter().take(missing) {
            counts[rank] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_labels_are_independent() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_hold_and_zipf_head_dominates() {
        let mut r = Rng::derive(1, 0);
        for _ in 0..1000 {
            let v = r.int(3, 9);
            assert!((3..=9).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        let z = Zipf::new(64, 1.1);
        let mut hist = [0usize; 64];
        for _ in 0..20_000 {
            hist[z.sample(&mut r)] += 1;
        }
        // P(rank 0) = 1/H(64, 1.1)
        let expected = 1.0 / (1..=64).map(|k| f64::from(k).powf(-1.1)).sum::<f64>();
        let head = hist[0] as f64 / 20_000.0;
        assert!(
            (head - expected).abs() < 0.01,
            "head share {head}, expected {expected}"
        );
        assert!(hist[0] > hist[1] && hist[1] > hist[4]);
        let counts = z.apportion(2940);
        assert_eq!(counts.iter().sum::<usize>(), 2940);
        assert!((counts[0] as f64 / 2940.0 - expected).abs() < 1e-3);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }
}
