//! Search-tree traces: the solver's deep telemetry, derived from the
//! pruning certificate.
//!
//! A [`SearchTrace`] is the branch-and-cut tree: node id, parent, depth,
//! LP bound and fathoming action for every node, plus the whole-solve
//! summary (objective, dual bound, cut count). It is built **offline** from
//! the [`SearchCertificate`] the search already records when
//! [`crate::SolveOptions::certificate`] is on — the hot path pays
//! nothing beyond the certificate it was already paying for, and the
//! trace inherits the certificate's determinism (serial solves produce
//! identical certificates, so identical traces).
//!
//! Nodes sort by `(depth, id)`, so a parent always comes before its
//! children.
//!
//! [`SearchTrace::to_text_tree`] renders it as a box-drawing tree for
//! terminals. The trace has no file format of its own: the certificate is
//! the record, and `trace_view` renders any certificate document
//! (`{problem, schedule, certificate}`) through this module.
//!
//! This is what makes the cut-ablation node reductions *inspectable*:
//! `trace_view` renders where the tree was closed, not just how big it
//! was. See `docs/SOLVER.md` and `docs/OBSERVABILITY.md`.

use insitu_types::cert::{NodeOutcome, SearchCertificate};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One search node.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// Node id (the search's creation sequence number).
    pub id: u64,
    /// Parent node id; `None` for the root.
    pub parent: Option<u64>,
    /// Distance from the root.
    pub depth: u32,
    /// The node's LP relaxation bound.
    pub lp_bound: f64,
    /// Fathoming action: `"branched"`, `"integral"`, `"pruned-bound"`,
    /// or `"pruned-infeasible"`.
    pub action: &'static str,
    /// The integral objective, when `action == "integral"`.
    pub objective: Option<f64>,
}

/// A search tree. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchTrace {
    /// Proven-optimal objective of the solve.
    pub objective: f64,
    /// Root dual bound the tree was closed against.
    pub dual_bound: f64,
    /// Optimization sense.
    pub maximize: bool,
    /// Cut proofs carried by the certificate.
    pub total_cuts: usize,
    /// Every node of the certificate, sorted by `(depth, id)`.
    pub nodes: Vec<TraceNode>,
}

fn action_of(outcome: &NodeOutcome) -> (&'static str, Option<f64>) {
    match outcome {
        NodeOutcome::Branched => ("branched", None),
        NodeOutcome::Integral { objective } => ("integral", Some(*objective)),
        NodeOutcome::PrunedBound => ("pruned-bound", None),
        NodeOutcome::PrunedInfeasible => ("pruned-infeasible", None),
    }
}

impl SearchTrace {
    /// Builds the trace of every node of a certificate. Deterministic:
    /// same certificate → identical trace.
    pub fn from_certificate(cert: &SearchCertificate) -> SearchTrace {
        let parent_of: BTreeMap<u64, Option<u64>> =
            cert.nodes.iter().map(|n| (n.id, n.parent)).collect();
        let mut depth_memo: BTreeMap<u64, u32> = BTreeMap::new();
        fn depth(id: u64, parent_of: &BTreeMap<u64, Option<u64>>, memo: &mut BTreeMap<u64, u32>) -> u32 {
            if let Some(&d) = memo.get(&id) {
                return d;
            }
            let d = match parent_of.get(&id).copied().flatten() {
                // a parent missing from the certificate is treated as a
                // root (defensive; complete certificates never hit this)
                Some(p) if parent_of.contains_key(&p) => 1 + depth(p, parent_of, memo),
                _ => 0,
            };
            memo.insert(id, d);
            d
        }
        let mut nodes: Vec<TraceNode> = cert
            .nodes
            .iter()
            .map(|n| {
                let (action, objective) = action_of(&n.outcome);
                TraceNode {
                    id: n.id,
                    parent: n.parent,
                    depth: depth(n.id, &parent_of, &mut depth_memo),
                    lp_bound: n.lp_bound,
                    action,
                    objective,
                }
            })
            .collect();
        nodes.sort_by_key(|n| (n.depth, n.id));
        SearchTrace {
            objective: cert.objective,
            dual_bound: cert.dual_bound,
            maximize: cert.maximize,
            total_cuts: cert.cuts.len(),
            nodes,
        }
    }

    /// Direct children of `id`, ascending by id.
    fn children(&self, id: u64) -> Vec<&TraceNode> {
        let mut kids: Vec<&TraceNode> =
            self.nodes.iter().filter(|n| n.parent == Some(id)).collect();
        kids.sort_by_key(|n| n.id);
        kids
    }

    fn roots(&self) -> Vec<&TraceNode> {
        let mut roots: Vec<&TraceNode> =
            self.nodes.iter().filter(|n| n.parent.is_none()).collect();
        roots.sort_by_key(|n| n.id);
        roots
    }

    /// Renders the tree with box-drawing characters, one node per line,
    /// preceded by a summary header.
    pub fn to_text_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "search tree: {} nodes, {} cuts, objective {} ({}), dual bound {}",
            self.nodes.len(),
            self.total_cuts,
            self.objective,
            if self.maximize { "maximize" } else { "minimize" },
            self.dual_bound,
        );
        fn node_line(out: &mut String, n: &TraceNode) {
            let _ = write!(out, "#{} bound={} {}", n.id, n.lp_bound, n.action);
            if let Some(obj) = n.objective {
                let _ = write!(out, " obj={obj}");
            }
            out.push('\n');
        }
        fn render(out: &mut String, trace: &SearchTrace, n: &TraceNode, prefix: &str) {
            let kids = trace.children(n.id);
            for (i, kid) in kids.iter().enumerate() {
                let last = i + 1 == kids.len();
                out.push_str(prefix);
                out.push_str(if last { "└─ " } else { "├─ " });
                node_line(out, kid);
                let deeper = format!("{prefix}{}", if last { "   " } else { "│  " });
                render(out, trace, kid, &deeper);
            }
        }
        for root in self.roots() {
            node_line(&mut out, root);
            render(&mut out, self, root, "");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Cmp, Model, Sense};
    use crate::options::SolveOptions;

    fn certified_solve() -> SearchCertificate {
        // three overlapping knapsack rows: the root cut pool leaves a gap,
        // so the search really branches
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..12).map(|i| m.binary(&format!("x{i}"))).collect();
        for r in 0..3 {
            let row = LinExpr::sum(
                xs.iter()
                    .enumerate()
                    .map(|(i, &x)| (x, ((i * 7 + r * 13) % 11 + 3) as f64)),
            );
            m.add_con(row, Cmp::Le, 31.0 + 3.0 * r as f64);
        }
        m.set_objective(LinExpr::sum(
            xs.iter().enumerate().map(|(i, &x)| (x, ((i * 5) % 9 + 4) as f64)),
        ));
        let opts = SolveOptions {
            certificate: true,
            ..SolveOptions::default()
        };
        crate::solve(&m, &opts).unwrap().stats.certificate.unwrap()
    }

    #[test]
    fn trace_is_deterministic_and_ancestor_closed() {
        let cert = certified_solve();
        assert!(cert.nodes.len() > 3, "want a real tree, got {}", cert.nodes.len());
        let a = SearchTrace::from_certificate(&cert);
        assert_eq!(a, SearchTrace::from_certificate(&cert));
        // every node, each once, sorted by (depth, id)
        let ids: std::collections::BTreeSet<u64> = a.nodes.iter().map(|n| n.id).collect();
        assert_eq!(ids, cert.nodes.iter().map(|n| n.id).collect());
        assert_eq!(a.nodes.len(), cert.nodes.len());
        assert!(a
            .nodes
            .windows(2)
            .all(|w| (w[0].depth, w[0].id) < (w[1].depth, w[1].id)));
        // every non-root's parent is in the trace, one level up
        for n in &a.nodes {
            if let Some(p) = n.parent {
                let parent = a.nodes.iter().find(|m| m.id == p);
                let parent =
                    parent.unwrap_or_else(|| panic!("node {} orphaned (parent {p})", n.id));
                assert_eq!(parent.depth + 1, n.depth);
            }
        }
    }

    #[test]
    fn text_tree_renders_every_node_once() {
        let cert = certified_solve();
        let t = SearchTrace::from_certificate(&cert);
        let text = t.to_text_tree();
        for n in &t.nodes {
            assert_eq!(
                text.matches(&format!("#{} bound=", n.id)).count(),
                1,
                "{text}"
            );
        }
        assert_eq!(
            text.lines().count(),
            1 + cert.nodes.len(),
            "a header, then one line a node"
        );
    }
}
