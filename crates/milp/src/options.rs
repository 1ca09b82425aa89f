//! Solver configuration: limits, tolerances, and what to record.
//!
//! There is one solve path. Algorithmic choices (LP engine, branching
//! rule, cut separation, plunging, presolve) are fixed — their tuning
//! constants live as private `const`s next to the code that reads them,
//! and `docs/SOLVER.md` § Decisions records the evidence for each.

/// Tunable limits and tolerances for [`crate::solve`].
///
/// Construct with struct-update syntax so future knobs don't break callers:
///
/// ```
/// use milp::SolveOptions;
/// let opts = SolveOptions { threads: 4, ..SolveOptions::default() };
/// assert_eq!(opts.effective_threads(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Feasibility / integrality tolerance.
    pub tol: f64,
    /// Maximum simplex iterations per LP solve.
    pub max_simplex_iters: usize,
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Stop as soon as the incumbent is within this absolute gap of the
    /// best bound (0 = prove optimality exactly).
    pub abs_gap: f64,
    /// Threads that solve one node's strong-branch probes side by side.
    /// The search itself is one serial loop, so the answer, every counter
    /// and the certificate are the same at any value. `1` (the default)
    /// solves the probes on the calling thread; `0` means one thread per
    /// available CPU.
    pub threads: usize,
    /// Record a machine-checkable pruning certificate
    /// ([`insitu_types::SearchCertificate`]) in
    /// [`crate::SolveStats::certificate`]: one record per search node with
    /// its LP bound and fathoming reason, so an independent checker (the
    /// `certify` crate) can re-derive that the tree was closed. Off by
    /// default — the log costs one small allocation per node.
    pub certificate: bool,
    /// Span sink for solver tracing: [`crate::solve`] opens a
    /// `milp.solve` span (tagged with node/cut counts and the objective)
    /// on this handle, nested under whatever span — and request
    /// [`obs::TraceContext`] — the caller currently has open. The
    /// default handle is disabled and costs nothing.
    pub trace: obs::TraceHandle,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tol: 1e-6,
            max_simplex_iters: 200_000,
            max_nodes: 200_000,
            abs_gap: 1e-9,
            threads: 1,
            certificate: false,
            trace: obs::TraceHandle::disabled(),
        }
    }
}

impl SolveOptions {
    /// Number of threads a node's probes run on: `threads`, with `0`
    /// resolved to the available CPU count.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = SolveOptions::default();
        assert!(o.tol > 0.0 && o.tol < 1e-3);
        assert!(o.max_simplex_iters > 1000);
        assert!(o.max_nodes > 1000);
        assert!(o.abs_gap >= 0.0 && o.abs_gap < o.tol);
        assert_eq!(o.threads, 1);
        assert!(!o.certificate);
        assert!(!o.trace.enabled());
    }

    /// Every field is named and there is no `..`: adding a knob to
    /// [`SolveOptions`] breaks this test, so the next option is a visible
    /// diff here and not only in the struct.
    #[test]
    fn every_field_is_named() {
        let o = SolveOptions {
            tol: 1e-6,
            max_simplex_iters: 200_000,
            max_nodes: 200_000,
            abs_gap: 1e-9,
            threads: 1,
            certificate: false,
            trace: obs::TraceHandle::disabled(),
        };
        let d = SolveOptions::default();
        assert_eq!(
            (o.tol, o.max_simplex_iters, o.max_nodes, o.abs_gap),
            (d.tol, d.max_simplex_iters, d.max_nodes, d.abs_gap)
        );
        assert_eq!((o.threads, o.certificate), (d.threads, d.certificate));
    }

    #[test]
    fn zero_threads_resolves_to_cpu_count() {
        let o = SolveOptions {
            threads: 0,
            ..SolveOptions::default()
        };
        assert!(o.effective_threads() >= 1);
        assert_eq!(SolveOptions::default().effective_threads(), 1);
    }
}
