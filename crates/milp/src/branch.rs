//! Branch & bound for mixed-integer programs.
//!
//! Best-first search on LP-relaxation bounds with two-tier variable
//! selection — reliability pseudocost branching falling back to parallel
//! strong branching — plunging dives, and an optional multi-threaded node
//! pool.
//!
//! # Branching
//!
//! At every fractional node per-variable up/down *pseudocosts* (mean
//! per-unit LP-bound degradation, learned from every child LP the search
//! solves) rank the candidates by the product of their estimated
//! degradations. Candidates whose pseudocosts are not yet reliable
//! (`PSEUDOCOST_RELIABILITY`), or all of them near the root
//! (`STRONG_BRANCH_DEPTH`), are *strong branched*: both child LPs are
//! solved — concurrently via `parallel::map_chunks`, warm-started from
//! the node basis — and scored by actual degradation. The winner's probe
//! LPs are reused as the real children, so no LP is ever solved twice;
//! probes are not search nodes and never appear in the certificate.
//!
//! The pseudocost table is shared across workers under one mutex and
//! updated in deterministic within-node order (down before up, ascending
//! variable index), so the serial search evolves it reproducibly.
//!
//! # Search architecture
//!
//! One shared [`BinaryHeap`] of open nodes is drained by `N` workers
//! (`N = SolveOptions::threads`; the default of 1 runs the identical code
//! on the calling thread with no synchronization contention). Each worker
//! pops the globally best-bound node and *plunges*: it dives toward an
//! integral leaf, always following the better-bound child and parking the
//! sibling back on the shared heap, where idle workers steal it. The
//! incumbent is shared: updates take a mutex, while pruning reads a
//! lock-free atomic copy of the incumbent objective (stale reads are safe —
//! they only make pruning conservative, never wrong).
//!
//! # What a child LP is
//!
//! The frozen model (post-presolve, with the root cut pool) is lowered to
//! a [`StandardForm`] **once per solve**. A node carries only its
//! column-bound overrides ([`ColBound`], the branching bounds mapped
//! through the form's `var_map`); its LP, and every strong-branch probe, is
//! "that form + those overrides" handed to
//! [`crate::revised::solve_bound_edit`] — no model is cloned, validated or
//! lowered per LP. When a node is branched its basis is LU-factorized once
//! ([`FactoredBasis`]) and all of its probes and children warm-start from
//! those shared factors, each repairing its own bound change with
//! dual-simplex pivots (see [`crate::simplex`]); a cold two-phase solve is
//! the automatic fallback, so warm starts never change results.
//!
//! # Determinism
//!
//! Ties are broken identically in serial and parallel mode:
//!
//! * **node order** — nodes with equal LP bounds pop in creation order
//!   (each node carries a sequence number); with one thread the search is
//!   therefore fully reproducible, node counts included,
//! * **incumbent** — a new integral solution replaces the incumbent only
//!   when its objective is strictly better *or* equal with lexicographically
//!   smaller variable values (in variable creation order).
//!
//! With multiple threads the *explored node set* can vary between runs
//! (incumbents arrive at different times, changing what gets pruned), but
//! every run returns the same proven-optimal objective. See
//! `docs/SOLVER.md` for the full guarantee.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use insitu_types::{CutProof, NodeCert, NodeOutcome, SearchCertificate};

use crate::cuts;
use crate::error::SolveError;
use crate::model::{Model, Sense};
use crate::options::SolveOptions;
use crate::revised::{solve_bound_edit, FactoredBasis};
use crate::simplex::{solve_lowered, Basis, LpPoint};
use crate::solution::Solution;
use crate::standard::{ColBound, StandardForm};
use crate::stats::{CutStats, IncumbentEvent, SolveStats};
use parallel::{map_chunks, Exec};

/// A live search node: bound overrides relative to the solve's one
/// standard form plus the LP optimum of the node.
#[derive(Debug, Clone)]
struct Node {
    /// Column-bound overrides accumulated from the root, one per level.
    overrides: Vec<ColBound>,
    /// LP relaxation optimum of this node, in model-variable space.
    values: Vec<f64>,
    /// LP relaxation objective (model sense).
    bound: f64,
    /// Sense-adjusted priority (larger = explored first).
    key: f64,
    /// Creation sequence number; equal-key nodes pop in creation order.
    /// Doubles as the node id in the pruning certificate.
    seq: u64,
    /// Certificate parent link (`None` for the root).
    parent: Option<u64>,
    /// Final simplex basis of this node's LP, used to warm-start children.
    basis: Basis,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.key.partial_cmp(&other.key) {
            Some(Ordering::Equal) | None => other.seq.cmp(&self.seq), // FIFO on ties
            Some(o) => o,
        }
    }
}

/// One fractional integer variable of a node's LP point.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    var: usize,
    value: f64,
    /// Fractional part, in `(tol, 1 - tol)`.
    frac: f64,
    /// Distance to 0.5 (smaller = more fractional).
    dist: f64,
}

/// Every fractional variable among `int_vars` (ascending) of an LP point,
/// in ascending variable order. Empty means the point is integral.
fn fractional_candidates(int_vars: &[usize], values: &[f64], tol: f64) -> Vec<Candidate> {
    let mut out = Vec::new();
    for &i in int_vars {
        let v = values[i];
        let frac = v - v.floor();
        if frac > tol && frac < 1.0 - tol {
            out.push(Candidate {
                var: i,
                value: v,
                frac,
                dist: (frac - 0.5).abs(),
            });
        }
    }
    out
}

/// Per-variable branching pseudocosts: mean per-unit LP-bound degradation
/// observed when branching the variable down (toward `floor`) or up
/// (toward `floor + 1`), plus direction-wide totals for the standard
/// global-average fallback on never-branched variables.
///
/// Shared across workers under one mutex; every update batch is applied
/// in deterministic within-node order (down before up, ascending variable
/// index), so the serial search evolves the table reproducibly. In
/// parallel the interleaving of *nodes* may vary — that can change which
/// variable a later node picks (and hence node counts), never the optimum.
#[derive(Debug)]
struct Pseudocosts {
    down_sum: Vec<f64>,
    down_cnt: Vec<u32>,
    up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
    total_down: (f64, u64),
    total_up: (f64, u64),
}

impl Pseudocosts {
    fn new(num_vars: usize) -> Self {
        Pseudocosts {
            down_sum: vec![0.0; num_vars],
            down_cnt: vec![0; num_vars],
            up_sum: vec![0.0; num_vars],
            up_cnt: vec![0; num_vars],
            total_down: (0.0, 0),
            total_up: (0.0, 0),
        }
    }

    /// Records one observed per-unit degradation for a branch direction.
    fn observe(&mut self, var: usize, up: bool, per_unit: f64) {
        if up {
            self.up_sum[var] += per_unit;
            self.up_cnt[var] += 1;
            self.total_up.0 += per_unit;
            self.total_up.1 += 1;
        } else {
            self.down_sum[var] += per_unit;
            self.down_cnt[var] += 1;
            self.total_down.0 += per_unit;
            self.total_down.1 += 1;
        }
    }

    /// A pseudocost is reliable once both directions have been observed
    /// at least [`PSEUDOCOST_RELIABILITY`] times.
    fn reliable(&self, var: usize) -> bool {
        self.down_cnt[var].min(self.up_cnt[var]) >= PSEUDOCOST_RELIABILITY
    }

    /// `(down, up)` per-unit degradation estimates. An unobserved
    /// direction falls back to the global average of that direction, then
    /// to 1.0 — which reduces the product score to `frac * (1 - frac)`,
    /// i.e. most-fractional ordering, before any history exists.
    fn rates(&self, var: usize) -> (f64, f64) {
        let avg = |t: (f64, u64)| if t.1 == 0 { 1.0 } else { t.0 / t.1 as f64 };
        let down = if self.down_cnt[var] > 0 {
            self.down_sum[var] / self.down_cnt[var] as f64
        } else {
            avg(self.total_down)
        };
        let up = if self.up_cnt[var] > 0 {
            self.up_sum[var] / self.up_cnt[var] as f64
        } else {
            avg(self.total_up)
        };
        (down, up)
    }
}

/// Result of one strong-branch child LP (also the shape a regular child
/// solve is normalized into, so materialization handles both uniformly).
enum Probe {
    /// The branching bounds crossed: the child domain is empty (no LP).
    Empty,
    /// The child LP is infeasible.
    Infeasible,
    /// The child LP optimum, reusable as the real child node.
    Solved(Box<LpPoint>),
    /// A fatal LP error to propagate.
    Fatal(SolveError),
}

/// Solves one child LP — a strong-branch probe or a real child — as a
/// bound edit on the solve's standard form: `bounds` is the parent's
/// overrides plus the branching bound, last. Warm-started from the
/// parent's factorized basis; pivots and telemetry are accounted here (a
/// chosen candidate's probes become the real children, so nothing is
/// counted twice).
fn child_lp(sh: &Shared<'_>, warm: Option<&FactoredBasis<'_>>, bounds: &[ColBound]) -> Probe {
    // the branching column's domain, after every override on it
    let &(col, ..) = bounds.last().expect("a child has a branching bound");
    let (lo, hi) = bounds
        .iter()
        .filter(|b| b.0 == col)
        .fold((sh.sf.lower[col], sh.sf.upper[col]), |(lo, hi), b| {
            (lo.max(b.1), hi.min(b.2))
        });
    if lo > hi {
        return Probe::Empty;
    }
    match solve_bound_edit(sh.sf, bounds, sh.opts, warm) {
        Ok(point) => {
            sh.lp_pivots.fetch_add(point.iterations, AtOrd::Relaxed);
            sh.absorb_telemetry(&point.telemetry);
            if point.warm {
                sh.warm_started.fetch_add(1, AtOrd::Relaxed);
            }
            Probe::Solved(Box::new(point))
        }
        Err(SolveError::Infeasible) => Probe::Infeasible,
        Err(e) => Probe::Fatal(e),
    }
}

/// `node`'s overrides plus the bound `lo <= x_var <= hi`, in column space.
fn child_bounds(sh: &Shared<'_>, node: &Node, var: usize, lo: f64, hi: f64) -> Vec<ColBound> {
    let mut bounds = Vec::with_capacity(node.overrides.len() + 1);
    bounds.extend_from_slice(&node.overrides);
    bounds.push(
        sh.sf
            .col_bound(var, lo, hi)
            .expect("integer variables are never split"),
    );
    bounds
}

/// Sense-adjusted LP-bound degradation of a probed child vs. its parent
/// (`>= 0`; fathomed sides count as infinite — branching there closes a
/// whole subtree).
fn probe_degradation(sign: f64, parent_bound: f64, probe: &Probe) -> f64 {
    match probe {
        Probe::Solved(p) => (sign * (parent_bound - p.objective)).max(0.0),
        _ => f64::INFINITY,
    }
}

/// Outcome of variable selection at a fractional node: the branching
/// variable plus — when the winner was strong-branched — its two probe
/// results, reused as the real children.
struct BranchChoice {
    var: usize,
    value: f64,
    /// `[down, up]` probes of the chosen candidate, if it was in the
    /// strong set.
    probes: Option<[Probe; 2]>,
}

/// Degradation products compare with this floor so a zero-degradation
/// direction cannot erase the other direction's signal.
const SCORE_EPS: f64 = 1e-6;
/// A variable's pseudocost is *reliable* once both its down- and
/// up-branch have been observed at least this many times; unreliable
/// candidates are strong-branched.
const PSEUDOCOST_RELIABILITY: u32 = 4;
/// At node depths shallower than this, *every* candidate is
/// strong-branched regardless of reliability — the top of the tree is
/// where a bad branching variable costs the most nodes.
const STRONG_BRANCH_DEPTH: usize = 4;
/// At most this many candidates are strong-branched per node (the most
/// fractional ones win the slots).
const STRONG_BRANCH_LIMIT: usize = 8;

/// Picks the branching variable. See the module docs for the scheme;
/// score ties break to the most fractional candidate and then the lowest
/// variable index, which keeps the serial search bitwise-reproducible.
fn select_branch(
    sh: &Shared<'_>,
    node: &Node,
    warm: Option<&FactoredBasis<'_>>,
    cands: &[Candidate],
) -> Result<BranchChoice, SolveError> {
    // --- tier 2: strong-branch the unreliable (or shallow-depth) set ---
    let strong_all = node.overrides.len() < STRONG_BRANCH_DEPTH;
    let mut strong: Vec<usize> = {
        let pc = sh.pseudo.lock().unwrap();
        (0..cands.len())
            .filter(|&ci| strong_all || !pc.reliable(cands[ci].var))
            .collect()
    };
    // the most fractional candidates win the probe slots (stable sort
    // keeps ascending variable order on distance ties)...
    strong.sort_by(|&a, &b| cands[a].dist.total_cmp(&cands[b].dist));
    strong.truncate(STRONG_BRANCH_LIMIT);
    // ...and probes/updates run in ascending variable order
    strong.sort_unstable();

    let mut probes: Vec<Option<[Probe; 2]>> = (0..cands.len()).map(|_| None).collect();
    if !strong.is_empty() {
        sh.strong_branch_calls.fetch_add(1, AtOrd::Relaxed);
        let exec = Exec::with_threads(sh.opts.effective_threads());
        let (evals, _) = map_chunks(&exec, strong.len(), |k| {
            let c = &cands[strong[k]];
            let floor = c.value.floor();
            let down = child_bounds(sh, node, c.var, f64::NEG_INFINITY, floor);
            let up = child_bounds(sh, node, c.var, floor + 1.0, f64::INFINITY);
            [child_lp(sh, warm, &down), child_lp(sh, warm, &up)]
        });
        let mut lps = 0usize;
        for (k, pair) in evals.into_iter().enumerate() {
            for p in &pair {
                match p {
                    Probe::Fatal(e) => return Err(e.clone()),
                    Probe::Solved(_) | Probe::Infeasible => lps += 1,
                    Probe::Empty => {}
                }
            }
            probes[strong[k]] = Some(pair);
        }
        sh.strong_branch_lps.fetch_add(lps, AtOrd::Relaxed);

        // batch-apply pseudocost observations in deterministic order
        let mut pc = sh.pseudo.lock().unwrap();
        for &ci in &strong {
            let c = &cands[ci];
            let pair = probes[ci].as_ref().expect("probed candidate");
            if let Probe::Solved(p) = &pair[0] {
                let deg = (sh.sign * (node.bound - p.objective)).max(0.0);
                pc.observe(c.var, false, deg / c.frac);
            }
            if let Probe::Solved(p) = &pair[1] {
                let deg = (sh.sign * (node.bound - p.objective)).max(0.0);
                pc.observe(c.var, true, deg / (1.0 - c.frac));
            }
        }
    }

    // --- tier 1: score everyone (probed by actual degradation, the rest
    // by pseudocost estimate), highest product wins. Ties go to the most
    // fractional candidate, then the lowest variable index: the telescoped
    // scheduling LPs are heavily degenerate (most branchings do not move
    // the bound at all), so whole nodes can tie at the score floor — and
    // falling back to index order there branches on whatever variable was
    // created first, which is far worse than most-fractional.
    let (mut best_ci, mut best_score, mut best_dist) = (0usize, f64::NEG_INFINITY, f64::INFINITY);
    {
        let pc = sh.pseudo.lock().unwrap();
        for (ci, c) in cands.iter().enumerate() {
            let (deg_dn, deg_up) = match &probes[ci] {
                Some(pair) => (
                    probe_degradation(sh.sign, node.bound, &pair[0]),
                    probe_degradation(sh.sign, node.bound, &pair[1]),
                ),
                None => {
                    let (rd, ru) = pc.rates(c.var);
                    (rd * c.frac, ru * (1.0 - c.frac))
                }
            };
            let score = deg_dn.max(SCORE_EPS) * deg_up.max(SCORE_EPS);
            if score > best_score || (score == best_score && c.dist < best_dist) {
                (best_ci, best_score, best_dist) = (ci, score, c.dist);
            }
        }
    }
    if probes[best_ci].is_none() {
        sh.pseudocost_branches.fetch_add(1, AtOrd::Relaxed);
    }
    Ok(BranchChoice {
        var: cands[best_ci].var,
        value: cands[best_ci].value,
        probes: probes.swap_remove(best_ci),
    })
}

/// Rounds the integer variables of an LP point and keeps it if feasible.
fn rounded_candidate(model: &Model, values: &[f64], tol: f64) -> Option<(Vec<f64>, f64)> {
    let mut values = values.to_vec();
    for i in model.integer_vars() {
        values[i] = values[i].round();
    }
    if model.is_feasible(&values, tol * 10.0) {
        let objective = model.objective_value(&values);
        Some((values, objective))
    } else {
        None
    }
}

/// True when a and b compare lexicographically as `a < b`.
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return true;
        }
        if x > y {
            return false;
        }
    }
    false
}

/// The documented incumbent replacement rule: strictly better objective,
/// or exactly equal objective with lexicographically smaller values.
fn improves(model: &Model, objective: f64, values: &[f64], inc: Option<&Solution>) -> bool {
    match inc {
        None => true,
        Some(inc) => {
            model.better(objective, inc.objective)
                || (objective == inc.objective && lex_less(values, &inc.values))
        }
    }
}

/// Open-node pool shared by all workers.
struct Pool {
    heap: BinaryHeap<Node>,
    /// Workers currently blocked waiting for work.
    idle: usize,
    /// Terminate flag: set on completion, node limit, or LP error.
    done: bool,
}

/// All cross-worker state of one solve.
struct Shared<'m> {
    /// The frozen model: presolved, with the root cut pool appended.
    model: &'m Model,
    /// `model` lowered — once; every tree LP is a bound edit on it.
    sf: &'m StandardForm,
    /// `model`'s integer variables, ascending.
    int_vars: Vec<usize>,
    opts: &'m SolveOptions,
    /// +1 for maximization, -1 for minimization (keys are `sign * obj`).
    sign: f64,
    pool: Mutex<Pool>,
    work: Condvar,
    incumbent: Mutex<Option<Solution>>,
    /// `sign * incumbent.objective` as f64 bits, for lock-free prune reads.
    /// Stale values only make pruning conservative.
    inc_key: AtomicU64,
    nodes: AtomicUsize,
    pruned_bound: AtomicUsize,
    pruned_infeasible: AtomicUsize,
    lp_pivots: AtomicUsize,
    warm_started: AtomicUsize,
    strong_branch_calls: AtomicUsize,
    strong_branch_lps: AtomicUsize,
    pseudocost_branches: AtomicUsize,
    /// Branching pseudocosts shared by every worker; see [`Pseudocosts`].
    pseudo: Mutex<Pseudocosts>,
    /// LP-engine counters, aggregated across workers.
    refactorizations: AtomicUsize,
    max_eta_len: AtomicUsize,
    ftran_ns: AtomicU64,
    btran_ns: AtomicU64,
    next_seq: AtomicU64,
    error: Mutex<Option<SolveError>>,
    events: Mutex<Vec<IncumbentEvent>>,
    /// Certificate node log; only written when `opts.certificate` is set.
    cert: Mutex<Vec<NodeCert>>,
    search_start: Instant,
}

impl<'m> Shared<'m> {
    fn inc_key(&self) -> f64 {
        f64::from_bits(self.inc_key.load(AtOrd::Relaxed))
    }

    /// `true` when a node with LP bound `bound` cannot improve on the
    /// incumbent (within `abs_gap`).
    fn dominated(&self, bound: f64) -> bool {
        self.sign * bound <= self.inc_key() + self.opts.abs_gap
    }

    /// Offers an integral candidate as the new incumbent.
    fn offer_incumbent(&self, values: Vec<f64>, objective: f64) {
        let mut inc = self.incumbent.lock().unwrap();
        if improves(self.model, objective, &values, inc.as_ref()) {
            self.inc_key
                .store((self.sign * objective).to_bits(), AtOrd::Relaxed);
            self.events.lock().unwrap().push(IncumbentEvent {
                objective,
                node: self.nodes.load(AtOrd::Relaxed),
                elapsed: self.search_start.elapsed(),
            });
            *inc = Some(Solution {
                values,
                objective,
                iterations: 0,
                nodes: 0,
                proven_optimal: false,
                stats: SolveStats::default(),
            });
        }
    }

    /// Accumulates one LP solve's engine counters.
    fn absorb_telemetry(&self, t: &crate::stats::LpTelemetry) {
        self.refactorizations
            .fetch_add(t.refactorizations, AtOrd::Relaxed);
        self.max_eta_len.fetch_max(t.max_eta_len, AtOrd::Relaxed);
        self.ftran_ns.fetch_add(t.ftran_ns, AtOrd::Relaxed);
        self.btran_ns.fetch_add(t.btran_ns, AtOrd::Relaxed);
    }

    /// Records a fatal error and wakes every worker to exit.
    fn fail(&self, e: SolveError) {
        let mut err = self.error.lock().unwrap();
        if err.is_none() {
            *err = Some(e);
        }
        drop(err);
        self.pool.lock().unwrap().done = true;
        self.work.notify_all();
    }

    fn push_node(&self, node: Node) {
        self.pool.lock().unwrap().heap.push(node);
        self.work.notify_one();
    }

    /// Appends one node record to the pruning certificate (no-op unless
    /// `opts.certificate`). Every node id created by the search must be
    /// recorded exactly once for the tree-closure check to pass.
    fn record(&self, id: u64, parent: Option<u64>, lp_bound: f64, outcome: NodeOutcome) {
        if self.opts.certificate {
            self.cert.lock().unwrap().push(NodeCert {
                id,
                parent,
                lp_bound,
                outcome,
            });
        }
    }
}

/// One worker: pop best node, plunge to a leaf, repeat until the pool
/// drains or the solve aborts. `total` is the number of workers, needed
/// for the all-idle termination handshake.
fn worker(sh: &Shared<'_>, total: usize) {
    'outer: loop {
        // --- acquire a node (or detect termination) ---
        let node = {
            let mut pool = sh.pool.lock().unwrap();
            loop {
                if pool.done {
                    return;
                }
                if let Some(n) = pool.heap.pop() {
                    break n;
                }
                pool.idle += 1;
                if pool.idle == total {
                    // everyone idle + empty heap = search exhausted
                    pool.done = true;
                    sh.work.notify_all();
                    return;
                }
                pool = sh.work.wait(pool).unwrap();
                pool.idle -= 1;
            }
        };
        // a dominated node popped off the heap means every *heap* node is
        // dominated too (best-first), but in-flight dives on other workers
        // may still push better children, so discard and keep looping
        if sh.dominated(node.bound) {
            sh.pruned_bound.fetch_add(1, AtOrd::Relaxed);
            sh.record(node.seq, node.parent, node.bound, NodeOutcome::PrunedBound);
            continue;
        }

        // --- plunge: dive from this node to an integral or pruned leaf ---
        let mut cur = Some(node);
        while let Some(node) = cur.take() {
            let explored = sh.nodes.fetch_add(1, AtOrd::Relaxed) + 1;
            if explored > sh.opts.max_nodes {
                let incumbent = sh.incumbent.lock().unwrap().as_ref().map(|s| s.objective);
                sh.fail(SolveError::NodeLimit {
                    nodes: explored,
                    incumbent,
                });
                return;
            }
            if sh.dominated(node.bound) {
                sh.pruned_bound.fetch_add(1, AtOrd::Relaxed);
                sh.record(node.seq, node.parent, node.bound, NodeOutcome::PrunedBound);
                continue 'outer; // this dive is dominated; pick next best
            }
            let cands = fractional_candidates(&sh.int_vars, &node.values, sh.opts.tol);
            if cands.is_empty() {
                // integral: candidate incumbent (snap values to integers)
                let mut values = node.values.clone();
                for &i in &sh.int_vars {
                    values[i] = values[i].round();
                }
                let objective = sh.model.objective_value(&values);
                sh.record(
                    node.seq,
                    node.parent,
                    node.bound,
                    NodeOutcome::Integral { objective },
                );
                sh.offer_incumbent(values, objective);
            } else {
                // one factorization of this node's basis serves all of its
                // probes and children; a singular one sends them down the
                // cold path
                let warm = FactoredBasis::new(sh.sf, &node.basis);
                if warm.is_some() {
                    sh.refactorizations.fetch_add(1, AtOrd::Relaxed);
                }
                // pick the branching variable BEFORE recording Branched:
                // strong-branch probes are not nodes and a fatal probe LP
                // must abort without a dangling Branched record
                let choice = match select_branch(sh, &node, warm.as_ref(), &cands) {
                    Ok(c) => c,
                    Err(e) => {
                        sh.fail(e);
                        return;
                    }
                };
                sh.record(node.seq, node.parent, node.bound, NodeOutcome::Branched);
                let var = choice.var;
                let floor = choice.value.floor();
                let mut cached = choice.probes.map(|[down, up]| [Some(down), Some(up)]);
                let mut children: Vec<Node> = Vec::with_capacity(2);
                for (side, (lo, hi)) in [(f64::NEG_INFINITY, floor), (floor + 1.0, f64::INFINITY)]
                    .into_iter()
                    .enumerate()
                {
                    let overrides = child_bounds(sh, &node, var, lo, hi);
                    // a strong-branched winner reuses its probe LPs as the
                    // real children (pivots/telemetry/pseudocosts already
                    // accounted at probe time); otherwise solve fresh
                    let probe = match cached.as_mut() {
                        Some(pair) => pair[side].take().expect("probe consumed once"),
                        None => {
                            let probe = child_lp(sh, warm.as_ref(), &overrides);
                            if let Probe::Solved(point) = &probe {
                                // child solves feed the table too
                                let deg = (sh.sign * (node.bound - point.objective)).max(0.0);
                                let c = cands
                                    .iter()
                                    .find(|c| c.var == var)
                                    .expect("chosen var is a candidate");
                                let width = if side == 0 { c.frac } else { 1.0 - c.frac };
                                sh.pseudo
                                    .lock()
                                    .unwrap()
                                    .observe(var, side == 1, deg / width);
                            }
                            probe
                        }
                    };
                    match probe {
                        Probe::Empty | Probe::Infeasible => {
                            sh.pruned_infeasible.fetch_add(1, AtOrd::Relaxed);
                            // no feasible LP; the parent bound is still a
                            // valid relaxation bound for this child
                            let id = sh.next_seq.fetch_add(1, AtOrd::Relaxed);
                            sh.record(
                                id,
                                Some(node.seq),
                                node.bound,
                                NodeOutcome::PrunedInfeasible,
                            );
                        }
                        Probe::Solved(point) => {
                            // bound-based pruning at generation time (also
                            // re-checks cached probes against incumbents
                            // that arrived after the probe was solved)
                            if sh.dominated(point.objective) {
                                sh.pruned_bound.fetch_add(1, AtOrd::Relaxed);
                                let id = sh.next_seq.fetch_add(1, AtOrd::Relaxed);
                                sh.record(
                                    id,
                                    Some(node.seq),
                                    point.objective,
                                    NodeOutcome::PrunedBound,
                                );
                                continue;
                            }
                            children.push(Node {
                                overrides,
                                key: sh.sign * point.objective,
                                bound: point.objective,
                                values: sh.sf.extract(&point.x),
                                seq: sh.next_seq.fetch_add(1, AtOrd::Relaxed),
                                parent: Some(node.seq),
                                basis: point.basis,
                            });
                        }
                        Probe::Fatal(e) => {
                            sh.fail(e);
                            return;
                        }
                    }
                }
                // dive into the better child, park the other
                children.sort(); // ascending: last = best (key, FIFO seq)
                cur = children.pop();
                for sibling in children {
                    sh.push_node(sibling);
                }
            }
        }
    }
}

/// Solves a mixed-integer linear program to proven optimality (within
/// `opts.abs_gap`), in serial or in parallel (`opts.threads`).
///
/// Errors with [`SolveError::Infeasible`] / [`SolveError::Unbounded`] when
/// the instance has no optimum, and [`SolveError::NodeLimit`] when the node
/// budget runs out first.
///
/// The returned [`Solution`] carries full telemetry in
/// [`Solution::stats`] — node/prune counters, simplex pivots, the
/// incumbent timeline, and per-phase wall times.
///
/// # Examples
///
/// ```
/// use milp::{Model, Sense, Cmp, LinExpr, SolveOptions, solve};
///
/// let mut m = Model::new(Sense::Maximize);
/// let x = m.int_var("x", 0.0, 10.0);
/// let y = m.int_var("y", 0.0, 10.0);
/// m.add_con(LinExpr::new().term(x, 2.0).term(y, 2.0), Cmp::Le, 5.0);
/// m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
/// let sol = solve(&m, &SolveOptions::default()).unwrap();
/// assert_eq!(sol.objective.round(), 2.0);
/// assert!(sol.proven_optimal);
/// assert_eq!(sol.stats.nodes_explored, sol.nodes);
/// ```
pub fn solve(model: &Model, opts: &SolveOptions) -> Result<Solution, SolveError> {
    solve_seeded(model, opts, None)
}

/// [`solve`], seeded with a known-feasible starting point.
///
/// `hint` is a full values vector in model-variable order (one entry per
/// variable, length checked against [`Model::num_vars`]). Its integer
/// entries are rounded and the point is re-verified against every
/// constraint; if it passes, it is offered as the initial incumbent
/// *before* the search starts, so branch & bound begins pruning against
/// its objective from node zero. An infeasible or wrong-length hint is
/// silently ignored — the solve proceeds exactly like [`solve`].
///
/// This is the mid-run rescheduling entry point: the incumbent schedule's
/// suffix, mapped back into model variables, warm-starts the re-solve over
/// the remaining steps. Optimality guarantees are unchanged — the hint can
/// only tighten pruning, never steer the search away from a better
/// solution — and the emitted [`SearchCertificate`] still closes, because
/// certificate checking accepts incumbents that arrive from outside the
/// node tree (the dual bound and prune records are what get audited).
///
/// # Examples
///
/// ```
/// use milp::{Model, Sense, Cmp, LinExpr, SolveOptions, solve, solve_with_hint};
///
/// let mut m = Model::new(Sense::Maximize);
/// let x = m.int_var("x", 0.0, 10.0);
/// let y = m.int_var("y", 0.0, 10.0);
/// m.add_con(LinExpr::new().term(x, 2.0).term(y, 2.0), Cmp::Le, 5.0);
/// m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
/// // seed the search with the feasible point (x, y) = (1, 1)
/// let sol = solve_with_hint(&m, &SolveOptions::default(), &[1.0, 1.0]).unwrap();
/// assert_eq!(sol.objective.round(), 2.0);
/// assert!(sol.proven_optimal);
/// ```
pub fn solve_with_hint(
    model: &Model,
    opts: &SolveOptions,
    hint: &[f64],
) -> Result<Solution, SolveError> {
    solve_seeded(model, opts, Some(hint))
}

fn solve_seeded(
    model: &Model,
    opts: &SolveOptions,
    hint: Option<&[f64]>,
) -> Result<Solution, SolveError> {
    let mut solve_span = opts.trace.span("milp.solve");
    model.validate()?;
    let t_presolve = Instant::now();
    let mut presolved = model.clone();
    crate::presolve::presolve(&mut presolved, opts.tol)?;
    let model = &presolved;
    let presolve_time = t_presolve.elapsed();
    let sign = match model.sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };

    // the one lowering of this solve; root separation re-lowers only when
    // it changes the row set and hands the final form back
    let t_root = Instant::now();
    let sf = StandardForm::from_model(model)?;
    let (mut root, mut root_point) = solve_lowered(&sf, opts, None)?;
    let root_lp_time = t_root.elapsed();

    // --- root cut separation (serial, so the pool is thread-count
    // independent); the augmented model is frozen for the whole tree ---
    let mut cut_stats = CutStats {
        root_bound_before: root.objective,
        root_bound_after: root.objective,
        ..CutStats::default()
    };
    let mut root_proofs: Vec<CutProof> = Vec::new();
    let augmented;
    let int_vars = model.integer_vars();
    let (model, sf) = if !int_vars.is_empty() {
        let t_cuts = Instant::now();
        let rc = cuts::separate_root(model, sf, opts, root, root_point)?;
        cut_stats.separation_time = t_cuts.elapsed();
        cut_stats.gomory_generated = rc.gomory_generated;
        cut_stats.cover_generated = rc.cover_generated;
        cut_stats.cuts_applied = rc.proofs.len();
        cut_stats.cuts_aged_out = rc.aged_out;
        cut_stats.root_bound_after = rc.relax.objective;
        root = rc.relax;
        root_point = rc.point;
        root_proofs = rc.proofs;
        augmented = rc.model;
        (&augmented, rc.sf)
    } else {
        (model, sf)
    };

    let threads = opts.effective_threads().max(1);
    let sh = Shared {
        model,
        sf: &sf,
        int_vars,
        opts,
        sign,
        pool: Mutex::new(Pool {
            heap: BinaryHeap::new(),
            idle: 0,
            done: false,
        }),
        work: Condvar::new(),
        incumbent: Mutex::new(None),
        inc_key: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        nodes: AtomicUsize::new(0),
        pruned_bound: AtomicUsize::new(0),
        pruned_infeasible: AtomicUsize::new(0),
        lp_pivots: AtomicUsize::new(root.iterations),
        warm_started: AtomicUsize::new(0),
        strong_branch_calls: AtomicUsize::new(0),
        strong_branch_lps: AtomicUsize::new(0),
        pseudocost_branches: AtomicUsize::new(0),
        pseudo: Mutex::new(Pseudocosts::new(model.num_vars())),
        refactorizations: AtomicUsize::new(root_point.telemetry.refactorizations),
        max_eta_len: AtomicUsize::new(root_point.telemetry.max_eta_len),
        ftran_ns: AtomicU64::new(root_point.telemetry.ftran_ns),
        btran_ns: AtomicU64::new(root_point.telemetry.btran_ns),
        next_seq: AtomicU64::new(0),
        error: Mutex::new(None),
        events: Mutex::new(Vec::new()),
        cert: Mutex::new(Vec::new()),
        search_start: Instant::now(),
    };
    let root_bound = root.objective;
    // a caller-supplied warm-start point becomes the incumbent before any
    // node is explored; presolve only tightens bounds (the variable set is
    // unchanged and every feasible integer point survives propagation), so
    // the hint vector stays aligned and checkable against `model` here
    let mut hint_accepted = false;
    if let Some(h) = hint {
        if h.len() == model.num_vars() {
            if let Some((values, objective)) = rounded_candidate(model, h, opts.tol) {
                sh.offer_incumbent(values, objective);
                hint_accepted = true;
            }
        }
    }
    if let Some((values, objective)) = rounded_candidate(model, &root.values, opts.tol) {
        sh.offer_incumbent(values, objective);
    }
    sh.pool.lock().unwrap().heap.push(Node {
        overrides: Vec::new(),
        key: sign * root.objective,
        bound: root.objective,
        values: root.values,
        seq: sh.next_seq.fetch_add(1, AtOrd::Relaxed),
        parent: None,
        basis: root_point.basis,
    });

    let t_search = Instant::now();
    if threads == 1 {
        worker(&sh, 1);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| worker(&sh, threads));
            }
        });
    }
    let search_time = t_search.elapsed();

    if let Some(e) = sh.error.lock().unwrap().take() {
        return Err(e);
    }
    let incumbent = sh.incumbent.lock().unwrap().take();
    match incumbent {
        Some(mut sol) => {
            sol.iterations = sh.lp_pivots.load(AtOrd::Relaxed);
            sol.nodes = sh.nodes.load(AtOrd::Relaxed);
            sol.proven_optimal = true;
            sol.stats = SolveStats {
                nodes_explored: sol.nodes,
                nodes_pruned_bound: sh.pruned_bound.load(AtOrd::Relaxed),
                nodes_pruned_infeasible: sh.pruned_infeasible.load(AtOrd::Relaxed),
                lp_pivots: sol.iterations,
                warm_started: sh.warm_started.load(AtOrd::Relaxed),
                strong_branch_calls: sh.strong_branch_calls.load(AtOrd::Relaxed),
                strong_branch_lps: sh.strong_branch_lps.load(AtOrd::Relaxed),
                pseudocost_branches: sh.pseudocost_branches.load(AtOrd::Relaxed),
                hint_accepted,
                refactorizations: sh.refactorizations.load(AtOrd::Relaxed),
                max_eta_len: sh.max_eta_len.load(AtOrd::Relaxed),
                ftran_time: std::time::Duration::from_nanos(sh.ftran_ns.load(AtOrd::Relaxed)),
                btran_time: std::time::Duration::from_nanos(sh.btran_ns.load(AtOrd::Relaxed)),
                incumbent_updates: sh.events.lock().unwrap().drain(..).collect(),
                cuts: cut_stats,
                presolve_time,
                root_lp_time,
                search_time,
                threads,
                certificate: if opts.certificate {
                    let mut nodes: Vec<NodeCert> = sh.cert.lock().unwrap().drain(..).collect();
                    // parallel workers interleave records; sort for stable output
                    nodes.sort_by_key(|n| n.id);
                    Some(SearchCertificate {
                        objective: sol.objective,
                        dual_bound: root_bound,
                        abs_gap: opts.abs_gap,
                        maximize: matches!(model.sense, Sense::Maximize),
                        proven_optimal: true,
                        nodes,
                        cuts: root_proofs,
                    })
                } else {
                    None
                },
            };
            solve_span.tag("nodes", sol.nodes);
            solve_span.tag("objective", sol.objective);
            solve_span.tag("threads", threads);
            solve_span.tag("cuts", sol.stats.cuts.cuts_applied);
            Ok(sol)
        }
        None => {
            solve_span.tag("infeasible", true);
            Err(SolveError::Infeasible)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::Cmp;

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn knapsack_exact() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary => a=0? enumerate:
        // (1,0,1)=17 w5; (0,1,1)=20 w6 best; (1,1,0)=23 w7 infeasible
        let mut m = Model::new(Sense::Maximize);
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.add_con(
            LinExpr::new().term(a, 3.0).term(b, 4.0).term(c, 2.0),
            Cmp::Le,
            6.0,
        );
        m.set_objective(LinExpr::new().term(a, 10.0).term(b, 13.0).term(c, 7.0));
        let s = solve(&m, &opts()).unwrap();
        assert_eq!(s.objective.round(), 20.0);
        assert!(s.is_one(b) && s.is_one(c) && !s.is_one(a));
        assert!(s.proven_optimal);
    }

    #[test]
    fn integer_rounding_is_not_assumed() {
        // max x + y, 2x + 2y <= 5, int => LP opt 2.5, IP opt 2
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        m.add_con(LinExpr::new().term(x, 2.0).term(y, 2.0), Cmp::Le, 5.0);
        m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
        let s = solve(&m, &opts()).unwrap();
        assert_eq!(s.objective.round(), 2.0);
    }

    #[test]
    fn minimization_sense() {
        // min 5x + 4y s.t. x + y >= 3, 2x + y >= 4, integers
        // candidates: x=1,y=2 => 13; x=2,y=1 =>14; x=0,y=4 => 16; x=1,y=2 best
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 3.0);
        m.add_con(LinExpr::new().term(x, 2.0).term(y, 1.0), Cmp::Ge, 4.0);
        m.set_objective(LinExpr::new().term(x, 5.0).term(y, 4.0));
        let s = solve(&m, &opts()).unwrap();
        assert_eq!(s.objective.round(), 13.0);
        assert_eq!(s.int_value(x), 1);
        assert_eq!(s.int_value(y), 2);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max y + 2z, y integer <= 3.7-ish constraint, z continuous <= 0.5
        let mut m = Model::new(Sense::Maximize);
        let y = m.int_var("y", 0.0, 100.0);
        let z = m.num_var("z", 0.0, 0.5);
        m.add_con(LinExpr::new().term(y, 1.0).term(z, 1.0), Cmp::Le, 3.7);
        m.set_objective(LinExpr::new().term(y, 1.0).term(z, 2.0));
        let s = solve(&m, &opts()).unwrap();
        // y=3, z=0.5 => 4.0
        assert!((s.objective - 4.0).abs() < 1e-5);
        assert_eq!(s.int_value(y), 3);
    }

    #[test]
    fn infeasible_integer_problem() {
        // 0.4 <= x <= 0.6, x integer
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 1.0);
        m.add_con(LinExpr::var(x), Cmp::Ge, 0.4);
        m.add_con(LinExpr::var(x), Cmp::Le, 0.6);
        m.set_objective(LinExpr::var(x));
        assert_eq!(solve(&m, &opts()).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn weighted_choice_mirrors_paper_structure() {
        // Two "analyses" with counts k1, k2 <= 10, activation binaries,
        // time budget: 2*k1 + 5*k2 <= 20, maximize (r1 + r2) + (k1 + 2*k2).
        // Mirrors Eq. 1's |A| + w|C| structure.
        let mut m = Model::new(Sense::Maximize);
        let r1 = m.binary("run1");
        let r2 = m.binary("run2");
        let k1 = m.int_var("k1", 0.0, 10.0);
        let k2 = m.int_var("k2", 0.0, 10.0);
        // k_i <= 10 * run_i  (activation linking)
        m.add_con(LinExpr::new().term(k1, 1.0).term(r1, -10.0), Cmp::Le, 0.0);
        m.add_con(LinExpr::new().term(k2, 1.0).term(r2, -10.0), Cmp::Le, 0.0);
        m.add_con(LinExpr::new().term(k1, 2.0).term(k2, 5.0), Cmp::Le, 20.0);
        m.set_objective(
            LinExpr::new()
                .term(r1, 1.0)
                .term(r2, 1.0)
                .term(k1, 1.0)
                .term(k2, 2.0),
        );
        let s = solve(&m, &opts()).unwrap();
        // best: k1=10 (cost 20), k2=0 but then r2 can still be 1 with k2=0:
        // obj = 1 + 1 + 10 + 0 = 12. Alternative k1=5,k2=2: 1+1+5+4=11.
        assert_eq!(s.objective.round(), 12.0);
        assert_eq!(s.int_value(k1), 10);
    }

    /// Pick 6.5 of 14 near-equal items: the LP vertex is fractional,
    /// rounding it is infeasible, and the root cuts leave a gap, so the
    /// search has to branch.
    fn branching_knapsack() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let mut obj = LinExpr::new();
        let mut row = LinExpr::new();
        for i in 0..14 {
            let v = m.int_var(&format!("x{i}"), 0.0, 1.0);
            obj = obj.term(v, 1.0 + (i as f64) * 0.01);
            row = row.term(v, 2.0);
        }
        m.add_con(row, Cmp::Le, 13.0); // forces fractionality
        m.set_objective(obj);
        m
    }

    /// A 3-row knapsack over 18 items with incommensurable weights: the
    /// root cuts leave a real tree (dozens of nodes, hundreds of probes).
    fn deep_knapsack() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..18).map(|i| m.binary(&format!("x{i}"))).collect();
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 37) as f64 + 5.0
        };
        for _ in 0..3 {
            let row = LinExpr::sum(vars.iter().map(|&v| (v, next())));
            m.add_con(row, Cmp::Le, 170.5);
        }
        m.set_objective(LinExpr::sum(vars.iter().map(|&v| (v, next()))));
        m
    }

    #[test]
    fn node_limit_reported() {
        let m = branching_knapsack();
        let tight = SolveOptions {
            max_nodes: 2,
            ..opts()
        };
        match solve(&m, &tight) {
            Err(SolveError::NodeLimit { nodes, .. }) => assert!(nodes >= 2),
            Ok(s) => panic!("expected node limit, got obj {}", s.objective),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    /// A knapsack with deliberately tied optima: items 0+1 and 2+3 both
    /// give objective 10 at weight 4. The lexicographic tie-break must
    /// pick the same argmax every time.
    fn tied_knapsack() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..4).map(|i| m.binary(&format!("x{i}"))).collect();
        m.add_con(
            LinExpr::sum(vars.iter().map(|&v| (v, 2.0))),
            Cmp::Le,
            4.0,
        );
        m.set_objective(LinExpr::sum(vars.iter().map(|&v| (v, 5.0))));
        m
    }

    #[test]
    fn serial_solve_is_deterministic() {
        let m = tied_knapsack();
        let a = solve(&m, &opts()).unwrap();
        let b = solve(&m, &opts()).unwrap();
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.values, b.values);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.stats.nodes_explored, b.stats.nodes_explored);
        assert_eq!(a.stats.lp_pivots, b.stats.lp_pivots);
    }

    #[test]
    fn parallel_matches_serial_objective() {
        for threads in [2, 3, 4] {
            for model in [tied_knapsack(), {
                let mut m = Model::new(Sense::Minimize);
                let x = m.int_var("x", 0.0, 10.0);
                let y = m.int_var("y", 0.0, 10.0);
                m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 3.0);
                m.add_con(LinExpr::new().term(x, 2.0).term(y, 1.0), Cmp::Ge, 4.0);
                m.set_objective(LinExpr::new().term(x, 5.0).term(y, 4.0));
                m
            }] {
                let serial = solve(&model, &opts()).unwrap();
                let par = solve(
                    &model,
                    &SolveOptions {
                        threads,
                        ..opts()
                    },
                )
                .unwrap();
                assert_eq!(
                    serial.objective.to_bits(),
                    par.objective.to_bits(),
                    "objective mismatch at {threads} threads"
                );
                assert!(par.proven_optimal);
                assert_eq!(par.stats.threads, threads);
            }
        }
    }

    #[test]
    fn telemetry_is_populated() {
        let m = tied_knapsack();
        let s = solve(&m, &opts()).unwrap();
        assert_eq!(s.stats.nodes_explored, s.nodes);
        assert_eq!(s.stats.lp_pivots, s.iterations);
        assert_eq!(s.stats.threads, 1);
        assert!(!s.stats.incumbent_updates.is_empty());
        // the timeline ends at the returned incumbent
        let last = s.stats.incumbent_updates.last().unwrap();
        assert_eq!(last.objective.to_bits(), s.objective.to_bits());
    }

    #[test]
    fn warm_starts_are_used() {
        // an instance the root cuts do not close, so children exist
        let s = solve(&branching_knapsack(), &opts()).unwrap();
        assert!(s.nodes > 1, "want a real tree, got {} node(s)", s.nodes);
        assert!(s.stats.warm_started > 0, "stats: {}", s.stats);
    }

    /// The structural guard against a per-LP lowering coming back: however
    /// many nodes and probes a solve runs, the model is lowered once for
    /// the root plus at most twice per separation round (a round's append,
    /// an aging eviction).
    #[test]
    fn one_solve_lowers_the_model_a_bounded_number_of_times() {
        use crate::standard::LOWERINGS;
        let m = deep_knapsack();
        let before = LOWERINGS.with(|c| c.get());
        let s = solve(&m, &opts()).unwrap();
        let lowerings = LOWERINGS.with(|c| c.get()) - before;
        assert!(s.nodes > 10 && s.stats.strong_branch_lps > 2 * cuts::CUT_ROUNDS + 1);
        assert!(
            (1..=1 + 2 * cuts::CUT_ROUNDS).contains(&lowerings),
            "{lowerings} lowerings for {} nodes, {} probe LPs",
            s.nodes,
            s.stats.strong_branch_lps
        );
    }

    /// Probes of one node run on several threads against one shared
    /// factorization; whatever the interleaving, the optimum is the serial
    /// one and the factorizations stay fewer than the LPs that used them.
    #[test]
    fn shared_factorization_serves_probes_on_any_thread_count() {
        let m = deep_knapsack();
        let serial = solve(&m, &opts()).unwrap();
        for threads in [1, 2, 4] {
            let s = solve(&m, &SolveOptions { threads, ..opts() }).unwrap();
            assert_eq!(s.objective.to_bits(), serial.objective.to_bits(), "{threads} threads");
            assert!(s.proven_optimal);
            assert!(s.stats.strong_branch_lps > 0 && s.stats.warm_started > 0);
            assert!(
                s.stats.refactorizations < s.stats.warm_started,
                "{threads} threads: {} factorizations for {} warm LPs",
                s.stats.refactorizations,
                s.stats.warm_started
            );
        }
    }

    #[test]
    fn incumbent_tie_break_is_lexicographic() {
        let m = tied_knapsack();
        // two optima exist; the returned one must be the lex-smallest
        // among equal-objective candidates the search saw
        let s = solve(&m, &opts()).unwrap();
        let t = solve(&m, &opts()).unwrap();
        assert_eq!(s.values, t.values);
        // and improves() itself orders lexicographically
        let cand_hi = Solution {
            values: vec![1.0, 1.0, 0.0, 0.0],
            objective: 10.0,
            iterations: 0,
            nodes: 0,
            proven_optimal: false,
            stats: SolveStats::default(),
        };
        assert!(improves(&m, 10.0, &[0.0, 1.0, 1.0, 0.0], Some(&cand_hi)));
        assert!(!improves(&m, 10.0, &[1.0, 1.0, 0.0, 0.0], Some(&cand_hi)));
        assert!(improves(&m, 11.0, &[1.0, 1.0, 1.0, 0.0], Some(&cand_hi)));
    }

    #[test]
    fn hint_seeds_the_incumbent_before_search() {
        let m = tied_knapsack();
        // the optimal point itself as hint: the first incumbent event must
        // land at node 0 (before any node was explored)
        let s = solve_with_hint(&m, &opts(), &[1.0, 1.0, 0.0, 0.0]).unwrap();
        assert_eq!(s.objective.round(), 10.0);
        assert!(s.proven_optimal);
        let first = s.stats.incumbent_updates.first().expect("hint recorded");
        assert_eq!(first.node, 0, "hint must arrive before the search");
        assert_eq!(first.objective.round(), 10.0);
    }

    #[test]
    fn hint_does_not_change_the_optimum() {
        let m = tied_knapsack();
        let plain = solve(&m, &opts()).unwrap();
        // suboptimal but feasible hint: same proven optimum and same
        // lex-smallest argmax as the unseeded search
        let hinted = solve_with_hint(&m, &opts(), &[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(plain.objective.to_bits(), hinted.objective.to_bits());
        assert_eq!(plain.values, hinted.values);
    }

    #[test]
    fn infeasible_or_malformed_hints_are_ignored() {
        let m = tied_knapsack();
        // violates the knapsack row
        let s = solve_with_hint(&m, &opts(), &[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(s.objective.round(), 10.0);
        // wrong length
        let s = solve_with_hint(&m, &opts(), &[1.0]).unwrap();
        assert_eq!(s.objective.round(), 10.0);
        // fractional entries on integer vars get rounded, then checked
        let s = solve_with_hint(&m, &opts(), &[0.9, 1.1, 0.0, 0.0]).unwrap();
        assert_eq!(s.objective.round(), 10.0);
        assert!(s.proven_optimal);
    }

    #[test]
    fn hinted_solve_still_emits_a_closing_certificate() {
        let m = tied_knapsack();
        let with_cert = SolveOptions {
            certificate: true,
            ..opts()
        };
        let s = solve_with_hint(&m, &with_cert, &[0.0, 1.0, 1.0, 0.0]).unwrap();
        let cert = s.stats.certificate.as_ref().expect("certificate emitted");
        assert!(cert.proven_optimal);
        check_cert_closure(cert, s.objective);
    }

    /// Structural invariants every emitted certificate must satisfy; the
    /// independent `certify` crate re-checks the same properties (and more)
    /// without this crate's code.
    fn check_cert_closure(cert: &insitu_types::SearchCertificate, objective: f64) {
        use insitu_types::NodeOutcome as O;
        use std::collections::BTreeMap;
        assert!(cert.proven_optimal);
        assert_eq!(cert.objective.to_bits(), objective.to_bits());
        let by_id: BTreeMap<u64, &insitu_types::NodeCert> =
            cert.nodes.iter().map(|n| (n.id, n)).collect();
        assert_eq!(by_id.len(), cert.nodes.len(), "duplicate node ids");
        // exactly one root, and every parent link resolves to a Branched node
        assert_eq!(cert.nodes.iter().filter(|n| n.parent.is_none()).count(), 1);
        let mut child_count: BTreeMap<u64, usize> = BTreeMap::new();
        for n in &cert.nodes {
            if let Some(p) = n.parent {
                let parent = by_id.get(&p).expect("dangling parent id");
                assert!(matches!(parent.outcome, O::Branched), "parent not Branched");
                *child_count.entry(p).or_insert(0) += 1;
            }
        }
        for n in &cert.nodes {
            match n.outcome {
                // binary branching: every Branched node has both sides recorded
                O::Branched => assert_eq!(child_count.get(&n.id), Some(&2)),
                O::Integral { objective: o } => {
                    let slack = if cert.maximize { objective - o } else { o - objective };
                    assert!(slack >= -1e-9, "integral leaf beats claimed optimum");
                }
                O::PrunedBound => {
                    let slack = if cert.maximize {
                        objective + cert.abs_gap - n.lp_bound
                    } else {
                        n.lp_bound - objective + cert.abs_gap
                    };
                    assert!(slack >= -1e-9, "bound-pruned leaf could improve");
                }
                O::PrunedInfeasible => {}
            }
        }
    }

    #[test]
    fn certificate_off_by_default() {
        let s = solve(&tied_knapsack(), &opts()).unwrap();
        assert!(s.stats.certificate.is_none());
    }

    #[test]
    fn certificate_closes_the_tree() {
        let with_cert = SolveOptions {
            certificate: true,
            ..opts()
        };
        for model in [tied_knapsack(), {
            let mut m = Model::new(Sense::Minimize);
            let x = m.int_var("x", 0.0, 10.0);
            let y = m.int_var("y", 0.0, 10.0);
            m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 3.0);
            m.add_con(LinExpr::new().term(x, 2.0).term(y, 1.0), Cmp::Ge, 4.0);
            m.set_objective(LinExpr::new().term(x, 5.0).term(y, 4.0));
            m
        }] {
            let s = solve(&model, &with_cert).unwrap();
            let cert = s.stats.certificate.as_ref().expect("certificate requested");
            check_cert_closure(cert, s.objective);
            // certificate does not perturb the solve itself
            let plain = solve(&model, &opts()).unwrap();
            assert_eq!(plain.objective.to_bits(), s.objective.to_bits());
            assert_eq!(plain.values, s.values);
            assert_eq!(plain.nodes, s.nodes);
        }
    }

    #[test]
    fn parallel_certificate_closes_the_tree() {
        let with_cert = SolveOptions {
            certificate: true,
            threads: 3,
            ..opts()
        };
        let s = solve(&tied_knapsack(), &with_cert).unwrap();
        check_cert_closure(s.stats.certificate.as_ref().unwrap(), s.objective);
    }

    #[test]
    fn certificate_round_trips_through_json() {
        let with_cert = SolveOptions {
            certificate: true,
            ..opts()
        };
        let s = solve(&tied_knapsack(), &with_cert).unwrap();
        let cert = s.stats.certificate.unwrap();
        let text = insitu_types::json::to_string(&cert);
        let back: insitu_types::SearchCertificate =
            insitu_types::json::from_str(&text).unwrap();
        assert_eq!(back, cert);
    }
}
