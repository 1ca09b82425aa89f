//! Closed-form scaling laws.
//!
//! Used to synthesize realistic measurement grids in benches and tests:
//! good analyses (RDF) strong-scale nearly linearly, and the `d` term of
//! [`KernelLaw`] is the serial work of one that "does not scale and takes
//! similar times on all core counts" (§5.3.3, the paper's MSD).

/// A generic kernel-time law: `t(n, p) = a*n/p + b*log2(p) + c + d*n`.
///
/// * `a` — perfectly parallel per-element work,
/// * `b` — tree-communication cost growing with process count,
/// * `c` — fixed overhead,
/// * `d` — serial (non-scaling) per-element work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelLaw {
    /// Parallel work coefficient.
    pub a: f64,
    /// Log-p communication coefficient.
    pub b: f64,
    /// Constant overhead.
    pub c: f64,
    /// Serial per-element coefficient.
    pub d: f64,
}

impl KernelLaw {
    /// Evaluates the law at problem size `n` and process count `p`.
    pub fn time(&self, n: f64, p: f64) -> f64 {
        self.a * n / p.max(1.0) + self.b * p.max(2.0).log2() + self.c + self.d * n
    }

    /// A well-scaling kernel (RDF-like): all work parallel.
    pub fn scalable(a: f64, b: f64) -> Self {
        KernelLaw { a, b, c: 0.0, d: 0.0 }
    }
}

/// Memory law: `m(n, p) = base + per_elem * n / p` bytes per rank, or the
/// aggregate across ranks when `aggregate` is used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryLaw {
    /// Fixed bytes per rank.
    pub base: f64,
    /// Bytes per element (elements divided evenly among ranks).
    pub per_elem: f64,
}

impl MemoryLaw {
    /// Bytes per rank at problem size `n` on `p` ranks.
    pub fn per_rank(&self, n: f64, p: f64) -> f64 {
        self.base + self.per_elem * n / p.max(1.0)
    }

    /// Aggregate bytes across all ranks.
    pub fn aggregate(&self, n: f64, p: f64) -> f64 {
        self.per_rank(n, p) * p.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalable_law_halves_with_double_procs() {
        let law = KernelLaw::scalable(1e-6, 0.0);
        let t1 = law.time(1e8, 1024.0);
        let t2 = law.time(1e8, 2048.0);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn comm_term_grows_logarithmically() {
        let law = KernelLaw { a: 0.0, b: 1.0, c: 0.0, d: 0.0 };
        assert!((law.time(0.0, 1024.0) - 10.0).abs() < 1e-9);
        assert!((law.time(0.0, 4096.0) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn memory_law_partitions_elements() {
        let m = MemoryLaw { base: 1e6, per_elem: 8.0 };
        assert_eq!(m.per_rank(1e9, 1000.0), 1e6 + 8e6);
        assert_eq!(m.aggregate(1e9, 1000.0), (1e6 + 8e6) * 1000.0);
    }
}
