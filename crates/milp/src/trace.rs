//! Search-tree traces: the solver's deep telemetry, derived from the
//! pruning certificate.
//!
//! A [`SearchTrace`] is a bounded, deterministically-sampled view of the
//! branch-and-cut tree: node id, parent, depth, LP bound and fathoming
//! action for a sample of nodes, plus the whole-solve summary (objective,
//! dual bound, total node and cut counts). It is built **offline** from
//! the [`SearchCertificate`] the search already records when
//! [`crate::SolveOptions::certificate`] is on — the hot path pays
//! nothing beyond the certificate it was already paying for, and the
//! trace inherits the certificate's determinism (serial solves produce
//! identical certificates, so identical traces).
//!
//! Sampling is deterministic: nodes sort by `(depth, id)` and the first
//! `cap` survive. Because a parent is always strictly shallower than its
//! children, any sampled node's entire ancestor chain is sampled too —
//! the rendered tree never has orphans.
//!
//! Three renderers:
//! * [`SearchTrace::to_text_tree`] — box-drawing tree for terminals (the
//!   `trace_view` CLI's default output),
//! * [`SearchTrace::to_json_string`] — the `milp/searchtrace/v1` schema
//!   (round-trips through [`SearchTrace::from_json`]),
//! * [`SearchTrace::to_chrome_trace_string`] — a synthetic flame graph:
//!   one complete event per sampled node, positioned by preorder index
//!   with duration equal to its sampled-subtree size, so
//!   `chrome://tracing` / Perfetto show the tree as nested frames.
//!
//! This is what makes the cut-ablation node reductions *inspectable*:
//! `trace_view` renders where the tree was closed, not just how big it
//! was. See `docs/SOLVER.md` and `docs/OBSERVABILITY.md`.

use insitu_types::cert::{NodeOutcome, SearchCertificate};
use insitu_types::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier written by [`SearchTrace::to_json_string`].
pub const SEARCHTRACE_SCHEMA: &str = "milp/searchtrace/v1";

/// One sampled search node.
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

/// A bounded, deterministically-sampled search tree. See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchTrace {
    /// Proven-optimal objective of the solve.
    pub objective: f64,
    /// Root dual bound the tree was closed against.
    pub dual_bound: f64,
    /// Optimization sense.
    pub maximize: bool,
    /// Nodes in the full certificate (before sampling).
    pub total_nodes: usize,
    /// Cut proofs carried by the certificate.
    pub total_cuts: usize,
    /// The sample cap this trace was built with.
    pub cap: usize,
    /// Sampled nodes, sorted by `(depth, id)`; ancestor-closed.
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

fn action_from_str(s: &str) -> Option<&'static str> {
    match s {
        "branched" => Some("branched"),
        "integral" => Some("integral"),
        "pruned-bound" => Some("pruned-bound"),
        "pruned-infeasible" => Some("pruned-infeasible"),
        _ => None,
    }
}

impl SearchTrace {
    /// Builds the trace from a certificate, keeping at most `cap`
    /// sampled nodes (`cap` is clamped to at least 1 when the
    /// certificate has any node). Deterministic: same certificate + cap
    /// → identical trace.
    pub fn from_certificate(cert: &SearchCertificate, cap: usize) -> SearchTrace {
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
        let cap = cap.max(usize::from(!nodes.is_empty()));
        nodes.truncate(cap);
        SearchTrace {
            objective: cert.objective,
            dual_bound: cert.dual_bound,
            maximize: cert.maximize,
            total_nodes: cert.nodes.len(),
            total_cuts: cert.cuts.len(),
            cap,
            nodes,
        }
    }

    /// Direct children of `id` *within the sample*, ascending by id.
    fn sampled_children(&self, id: u64) -> Vec<&TraceNode> {
        let mut kids: Vec<&TraceNode> =
            self.nodes.iter().filter(|n| n.parent == Some(id)).collect();
        kids.sort_by_key(|n| n.id);
        kids
    }

    fn sampled_roots(&self) -> Vec<&TraceNode> {
        let mut roots: Vec<&TraceNode> =
            self.nodes.iter().filter(|n| n.parent.is_none()).collect();
        roots.sort_by_key(|n| n.id);
        roots
    }

    /// Renders the sampled tree with box-drawing characters, one node
    /// per line, preceded by a summary header.
    pub fn to_text_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{SEARCHTRACE_SCHEMA}: {} nodes ({} sampled, cap {}), {} cuts, objective {} ({}), dual bound {}",
            self.total_nodes,
            self.nodes.len(),
            self.cap,
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
            let kids = trace.sampled_children(n.id);
            for (i, kid) in kids.iter().enumerate() {
                let last = i + 1 == kids.len();
                out.push_str(prefix);
                out.push_str(if last { "└─ " } else { "├─ " });
                node_line(out, kid);
                let deeper = format!("{prefix}{}", if last { "   " } else { "│  " });
                render(out, trace, kid, &deeper);
            }
        }
        for root in self.sampled_roots() {
            node_line(&mut out, root);
            render(&mut out, self, root, "");
        }
        if self.nodes.len() < self.total_nodes {
            let _ = writeln!(
                out,
                "… {} deeper nodes not sampled (raise the cap to see them)",
                self.total_nodes - self.nodes.len()
            );
        }
        out
    }

    /// Exports the `milp/searchtrace/v1` JSON document.
    pub fn to_json_string(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("schema".into(), Value::String(SEARCHTRACE_SCHEMA.into()));
        obj.insert("objective".into(), Value::Number(self.objective));
        obj.insert("dual_bound".into(), Value::Number(self.dual_bound));
        obj.insert("maximize".into(), Value::Bool(self.maximize));
        obj.insert("total_nodes".into(), Value::Number(self.total_nodes as f64));
        obj.insert("total_cuts".into(), Value::Number(self.total_cuts as f64));
        obj.insert("cap".into(), Value::Number(self.cap as f64));
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let mut m = BTreeMap::new();
                m.insert("id".into(), Value::Number(n.id as f64));
                m.insert(
                    "parent".into(),
                    match n.parent {
                        Some(p) => Value::Number(p as f64),
                        None => Value::Null,
                    },
                );
                m.insert("depth".into(), Value::Number(n.depth as f64));
                m.insert("lp_bound".into(), Value::Number(n.lp_bound));
                m.insert("action".into(), Value::String(n.action.into()));
                m.insert(
                    "objective".into(),
                    match n.objective {
                        Some(o) => Value::Number(o),
                        None => Value::Null,
                    },
                );
                Value::Object(m)
            })
            .collect();
        obj.insert("nodes".into(), Value::Array(nodes));
        Value::Object(obj).to_string()
    }

    /// Parses a `milp/searchtrace/v1` document (the inverse of
    /// [`SearchTrace::to_json_string`]).
    pub fn from_json(text: &str) -> Result<SearchTrace, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SEARCHTRACE_SCHEMA {
            return Err(format!("expected schema {SEARCHTRACE_SCHEMA}, got `{schema}`"));
        }
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let nodes = v
            .get("nodes")
            .and_then(Value::as_array)
            .ok_or("missing `nodes` array")?
            .iter()
            .map(|n| -> Result<TraceNode, String> {
                let nnum = |key: &str| -> Result<f64, String> {
                    n.get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("node missing number `{key}`"))
                };
                let action_str = n
                    .get("action")
                    .and_then(Value::as_str)
                    .ok_or("node missing `action`")?;
                Ok(TraceNode {
                    id: nnum("id")? as u64,
                    parent: n.get("parent").and_then(Value::as_f64).map(|p| p as u64),
                    depth: nnum("depth")? as u32,
                    lp_bound: nnum("lp_bound")?,
                    action: action_from_str(action_str)
                        .ok_or_else(|| format!("unknown action `{action_str}`"))?,
                    objective: n.get("objective").and_then(Value::as_f64),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SearchTrace {
            objective: num("objective")?,
            dual_bound: num("dual_bound")?,
            maximize: v
                .get("maximize")
                .and_then(Value::as_bool)
                .ok_or("missing `maximize`")?,
            total_nodes: num("total_nodes")? as usize,
            total_cuts: num("total_cuts")? as usize,
            cap: num("cap")? as usize,
            nodes,
        })
    }

    /// Exports a Chrome trace-event array visualizing the sampled tree
    /// as nested frames: each node is a complete event at its preorder
    /// index with duration equal to its sampled-subtree size, so a
    /// parent frame exactly spans its children. Time here is tree
    /// position, not wall clock.
    pub fn to_chrome_trace_string(&self) -> String {
        // preorder positions and subtree sizes over the sampled tree
        fn layout(
            trace: &SearchTrace,
            n: &TraceNode,
            next: &mut u64,
            out: &mut Vec<(u64, u64, u64)>, // (id, start, size)
        ) -> u64 {
            let start = *next;
            *next += 1;
            let mut size = 1;
            for kid in trace.sampled_children(n.id) {
                size += layout(trace, kid, next, out);
            }
            out.push((n.id, start, size));
            size
        }
        let mut frames = Vec::with_capacity(self.nodes.len());
        let mut next = 0u64;
        for root in self.sampled_roots() {
            layout(self, root, &mut next, &mut frames);
        }
        frames.sort_by_key(|&(id, _, _)| id);
        let by_id: BTreeMap<u64, (u64, u64)> = frames
            .into_iter()
            .map(|(id, start, size)| (id, (start, size)))
            .collect();
        let mut out = String::with_capacity(128 + 128 * self.nodes.len());
        out.push('[');
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"search tree ({} nodes, {} sampled)\"}}}}",
            self.total_nodes,
            self.nodes.len()
        );
        for n in &self.nodes {
            let (start, size) = by_id[&n.id];
            let _ = write!(
                out,
                ",{{\"name\":\"#{} {}\",\"cat\":\"milp\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"depth\":{},\"lp_bound\":{},\"action\":\"{}\"",
                n.id, n.action, start, size, n.id, n.depth, n.lp_bound, n.action
            );
            if let Some(obj) = n.objective {
                let _ = write!(out, ",\"objective\":{obj}");
            }
            out.push_str("}}");
        }
        out.push(']');
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
        let a = SearchTrace::from_certificate(&cert, 4);
        let b = SearchTrace::from_certificate(&cert, 4);
        assert_eq!(a, b);
        assert_eq!(a.nodes.len(), 4.min(cert.nodes.len()));
        assert_eq!(a.total_nodes, cert.nodes.len());
        // every sampled non-root's parent is sampled
        let ids: std::collections::BTreeSet<u64> = a.nodes.iter().map(|n| n.id).collect();
        for n in &a.nodes {
            if let Some(p) = n.parent {
                assert!(ids.contains(&p), "node {} orphaned (parent {p})", n.id);
            }
        }
        // sample prefers shallow nodes
        let max_sampled = a.nodes.iter().map(|n| n.depth).max().unwrap();
        let unsampled_min = SearchTrace::from_certificate(&cert, usize::MAX)
            .nodes
            .iter()
            .filter(|n| !ids.contains(&n.id))
            .map(|n| n.depth)
            .min();
        if let Some(d) = unsampled_min {
            assert!(max_sampled <= d);
        }
    }

    #[test]
    fn json_round_trips() {
        let cert = certified_solve();
        let t = SearchTrace::from_certificate(&cert, 16);
        let json = t.to_json_string();
        assert!(json.contains("\"schema\":\"milp/searchtrace/v1\""));
        let back = SearchTrace::from_json(&json).unwrap();
        assert_eq!(back, t);
        assert!(SearchTrace::from_json("{\"schema\":\"nope\"}").is_err());
    }

    #[test]
    fn text_tree_renders_every_sampled_node_once() {
        let cert = certified_solve();
        let t = SearchTrace::from_certificate(&cert, 8);
        let text = t.to_text_tree();
        for n in &t.nodes {
            assert_eq!(
                text.matches(&format!("#{} bound=", n.id)).count(),
                1,
                "{text}"
            );
        }
        if t.nodes.len() < t.total_nodes {
            assert!(text.contains("not sampled"), "{text}");
        }
    }

    #[test]
    fn chrome_export_nests_children_inside_parents() {
        let cert = certified_solve();
        let t = SearchTrace::from_certificate(&cert, 16);
        let chrome = t.to_chrome_trace_string();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        assert_eq!(chrome.matches("\"ph\":\"X\"").count(), t.nodes.len());
        // root frame spans the whole sampled tree
        let root = t.sampled_roots()[0];
        assert!(chrome.contains(&format!(
            "\"name\":\"#{} {}\",\"cat\":\"milp\",\"ph\":\"X\",\"ts\":0,\"dur\":{}",
            root.id,
            root.action,
            t.nodes.len()
        )));
    }
}
