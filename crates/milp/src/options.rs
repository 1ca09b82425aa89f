//! Solver configuration: the search's budget and what to record.
//!
//! There is one solve path. Algorithmic choices (LP engine, branching
//! rule, cut separation, plunging, presolve) are fixed, and so are the
//! integrality tolerance and the per-LP pivot cap: their values live as
//! private `const`s next to the code that reads them, and
//! `docs/SOLVER.md` § Decisions records the evidence for each.

/// The budget of a [`crate::solve`] and what it records.
///
/// Construct with struct-update syntax:
///
/// ```
/// use milp::SolveOptions;
/// let opts = SolveOptions { max_nodes: 10_000, ..SolveOptions::default() };
/// assert_eq!(opts.max_nodes, 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct SolveOptions {
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
        assert!(o.max_nodes > 1000);
        assert!(o.abs_gap >= 0.0 && o.abs_gap < crate::branch::INT_TOL);
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
            max_nodes: 200_000,
            abs_gap: 1e-9,
            threads: 1,
            certificate: false,
            trace: obs::TraceHandle::disabled(),
        };
        let d = SolveOptions::default();
        assert_eq!((o.max_nodes, o.abs_gap), (d.max_nodes, d.abs_gap));
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
