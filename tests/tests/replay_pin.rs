//! Pin of `certify`'s three exact replays — `replay`, `replay_suffix` and
//! `memory_state_at` — over a seeded family of `(problem, schedule, carry)`
//! triples, recorded at commit e9b8006 *before* the three bodies became one
//! carry-seeded recursion. A rewrite that claims "same answers" is held to
//! the answers, not to itself.
//!
//! Pinned per case: the exact `total_time`, `peak_memory` and `objective`
//! (the `Rat`'s own rendering), whether the replay errored, and every
//! violation as `(kind, excess.to_bits())` — in order and with its message
//! for `replay`; as a multiset without text for `replay_suffix`, whose
//! report may order its complaints differently and word the memory ones
//! without their `suffix` prefix.
//!
//! The family leaves out the one input shape on which the recording commit
//! is known to be wrong: `replay_suffix` there retracts a from-zero Eq. 9
//! complaint by matching its message text, which also erases a *second*
//! complaint with the same text (analyses sharing a `name`, or a step list
//! that repeats its first entry after a 0). Names here are distinct and a
//! broken step list never holds both a 0 and a repeated step; the defect
//! has its own unit test in `certify::suffix`.

use certify::{memory_state_at, replay, replay_suffix, Rat, RatError, ReplayReport, SuffixCarry};
use insitu_types::{AnalysisSchedule, Schedule, ScheduleProblem};
use integration_tests::fuzz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// FNV-1a, the digest the other recordings in this suite use.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    /// Length-prefixed, so adjacent strings cannot trade characters.
    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// One entry of `SuffixCarry::held_mem` from a float. The field is an `f64`
/// at the recording commit and an exact `Rat` afterwards; inference picks
/// the impl, so this file stays byte-identical across that change.
trait Held {
    fn held(x: f64) -> Self;
}
impl Held for f64 {
    fn held(x: f64) -> f64 {
        x
    }
}
impl Held for Rat {
    fn held(x: f64) -> Rat {
        Rat::from_f64_exact(x).expect("finite, paper-sized")
    }
}

/// The ways a schedule is broken here, and `Placed` (left as solved).
#[rustfmt::skip]
#[derive(Clone, Copy, PartialEq)]
enum Break { Placed, Unsorted, Duplicate, StepZero, PastTheEnd, StrayOutput, TooClose, EarlyFirstRun, Dense, Arity }
use Break::*;
const BREAKS: [Break; 9] =
    [Unsorted, Duplicate, StepZero, PastTheEnd, StrayOutput, TooClose, EarlyFirstRun, Dense, Arity];

/// Applies `how` to a copy of `placed`. Where the placed schedule gives the
/// break nothing to work on (an inactive analysis, a single run) it first
/// schedules the analysis at every `itv`-th step.
fn broken(rng: &mut StdRng, p: &ScheduleProblem, placed: &Schedule, how: Break) -> Schedule {
    let steps = p.resources.steps;
    let mut s = placed.clone();
    if how == Arity {
        if rng.gen_bool(0.5) {
            s.per_analysis.push(AnalysisSchedule::default());
        } else {
            s.per_analysis.pop();
        }
        return s;
    }
    let i = rng.gen_range(0..p.len());
    let itv = p.analyses[i].min_interval.max(1);
    let a = &mut s.per_analysis[i];
    if a.count() < 2 || how == Dense {
        a.analysis_steps = (1..=steps).filter(|j| j % itv == 0).collect();
        a.output_steps = a.analysis_steps.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
    }
    let n = a.analysis_steps.len();
    match how {
        Unsorted if n >= 2 => {
            let x = rng.gen_range(0..n - 1);
            a.analysis_steps.swap(x, x + 1);
        }
        Duplicate if n >= 1 => {
            let x = rng.gen_range(0..n);
            a.analysis_steps.insert(x, a.analysis_steps[x]);
        }
        StepZero => a.analysis_steps.insert(0, 0),
        PastTheEnd => {
            let j = steps + rng.gen_range(1usize..=3);
            a.analysis_steps.push(j);
            if rng.gen_bool(0.5) {
                a.output_steps.push(j);
            }
        }
        StrayOutput => {
            let free: Vec<usize> = (1..=steps).filter(|&j| !a.runs_at(j)).collect();
            if !free.is_empty() {
                a.output_steps.push(free[rng.gen_range(0..free.len())]);
                a.output_steps.sort_unstable();
            }
        }
        TooClose if n >= 1 => {
            let x = rng.gen_range(0..n);
            let j = a.analysis_steps[x] + 1;
            if j <= steps && !a.runs_at(j) {
                a.analysis_steps.insert(x + 1, j);
            }
        }
        EarlyFirstRun if n >= 1 && a.analysis_steps[0] > 1 => {
            a.analysis_steps[0] = rng.gen_range(1..a.analysis_steps[0]);
        }
        _ => {}
    }
    s
}

/// The carries one `(problem, schedule)` pair is replayed under.
fn carries(rng: &mut StdRng, p: &ScheduleProblem, s: &Schedule) -> Vec<SuffixCarry> {
    let n = p.len();
    let mut out = vec![SuffixCarry::fresh(n)];
    // two random carries: held memory on any analysis (active in `s` or
    // not), the Eq. 9 clock anywhere in 0..2·itv
    for _ in 0..2 {
        let mut c = SuffixCarry::fresh(n);
        for (i, a) in p.analyses.iter().enumerate() {
            if rng.gen_bool(0.6) {
                // quarter-integers around the analysis's own footprint
                let top = a.fixed_mem + a.step_mem * 8.0 + a.compute_mem * 2.0 + 4.0;
                c.held_mem[i] = Some(Held::held((rng.gen_range(0.0..top) * 4.0).round() / 4.0));
            }
            if rng.gen_bool(0.7) {
                c.steps_since_run[i] = Some(rng.gen_range(0..2 * a.min_interval.max(1)));
            }
        }
        out.push(c);
    }
    // a clock that exactly admits, and one that just rejects, the first
    // run of the first active analysis
    for slack in [0usize, 1] {
        let mut c = SuffixCarry::fresh(n);
        for (i, a) in s.per_analysis.iter().enumerate().take(n) {
            let itv = p.analyses[i].min_interval.max(1);
            if let Some(&j) = a.analysis_steps.first().filter(|&&j| itv >= j + slack) {
                c.steps_since_run[i] = Some(itv - j - slack);
                c.held_mem[i] = Some(Held::held(p.analyses[i].fixed_mem));
                break;
            }
        }
        out.push(c);
    }
    // wrong arity, either vector
    let mut c = SuffixCarry::fresh(n);
    if rng.gen_bool(0.5) {
        c.held_mem.push(None);
    } else {
        c.steps_since_run.pop();
    }
    out.push(c);
    out
}

/// Hashes one report: violations in order with their message (`replay`),
/// or as a sorted multiset of `(kind, excess bits)` (`replay_suffix`).
fn pin(h: &mut Fnv, r: &Result<ReplayReport, RatError>, ordered: bool) {
    let r = match r {
        Ok(r) => r,
        Err(e) => return h.text(&format!("error {e:?}")),
    };
    for exact in [&r.total_time, &r.peak_memory, &r.objective] {
        h.text(&exact.to_string());
    }
    h.word(r.violations.len() as u64);
    let mut seen: Vec<(String, u64, &str)> = r
        .violations
        .iter()
        .map(|v| (format!("{:?}", v.kind), v.excess.to_bits(), if ordered { &*v.message } else { "" }))
        .collect();
    if !ordered {
        seen.sort();
    }
    for (kind, bits, message) in seen {
        h.text(&kind);
        h.word(bits);
        if ordered {
            h.text(message);
        }
    }
}

fn has(r: &ReplayReport, kind: &str) -> bool {
    r.violations.iter().any(|v| format!("{:?}", v.kind) == kind)
}

#[test]
fn replays_match_the_recording_made_before_they_shared_one_body() {
    let fnv = || Fnv(0xcbf2_9ce4_8422_2325);
    let (mut h_replay, mut h_suffix, mut h_memory) = (fnv(), fnv(), fnv());
    // what the family reached, pinned too: a generator edit cannot quietly
    // stop covering a branch of the replay
    let mut cov = BTreeMap::<&str, usize>::new();
    let mut count = |what: &'static str, yes: bool| *cov.entry(what).or_default() += yes as usize;
    for case in 0..96usize {
        let mut rng = StdRng::seed_from_u64(0x5EED_2109 ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let mut p = fuzz::gen_problem(&mut rng, case);
        let placed = insitu_core::solve_aggregate(&p, &milp::SolveOptions::default(), None)
            .expect("fuzz family solves")
            .schedule;
        // the solver's schedule fits `mth`; a third of the cases lower it
        // afterwards so Eq. 8 has something to refuse
        if case % 3 == 1 {
            p.resources.mem_threshold = (p.resources.mem_threshold * 0.35).max(1.0);
        }
        let n = p.len();
        let mut hows = [Placed; 4];
        hows[1..].fill_with(|| BREAKS[rng.gen_range(0..BREAKS.len())]);
        for how in hows {
            let s = broken(&mut rng, &p, &placed, how);
            let plain = replay(&p, &s);
            pin(&mut h_replay, &plain, true);
            let plain = plain.expect("the family stays inside the i128 window");
            for kind in ["Structure", "Interval", "Time", "Memory"] {
                count(kind, has(&plain, kind));
            }
            count("replay feasible", plain.is_feasible());

            for carry in carries(&mut rng, &p, &s) {
                let r = replay_suffix(&p, &s, &carry);
                pin(&mut h_suffix, &r, false);
                let r = r.expect("the family stays inside the i128 window");
                count("triples", true);
                count("suffix feasible", r.is_feasible());
                count("suffix Memory", has(&r, "Memory"));
                let carry_fits = carry.held_mem.len() == n && carry.steps_since_run.len() == n;
                count("carry of the wrong arity", !carry_fits);
                if !carry_fits || s.per_analysis.len() != n {
                    continue;
                }
                for (i, a) in s.per_analysis.iter().enumerate() {
                    let itv = p.analyses[i].min_interval.max(1);
                    if let (Some(gap), Some(&j)) = (carry.steps_since_run[i], a.analysis_steps.first()) {
                        count("clock admits a run too early from zero", j < itv && gap + j >= itv);
                        count("clock rejects a first run", gap + j < itv);
                    }
                    if carry.held_mem[i].is_some() {
                        count("held memory, active analysis", a.count() > 0);
                        count("held memory, deactivated analysis", a.count() == 0);
                    }
                }
                // a fresh carry is the plain replay (up to the wording of
                // memory complaints at the recording commit)
                if carry == SuffixCarry::fresh(n) {
                    assert_eq!(
                        (r.total_time, r.peak_memory, r.objective, r.violations.len()),
                        (plain.total_time, plain.peak_memory, plain.objective, plain.violations.len())
                    );
                }
            }

            // the memory half of a carry, at a step inside, at and past the
            // end of the run, for a random set-up mask (and one too long)
            for _ in 0..2 {
                let step = rng.gen_range(0..=p.resources.steps + 2);
                let mut set_up: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
                if rng.gen_bool(0.1) {
                    set_up.push(true);
                }
                match memory_state_at(&p, &s, step, &set_up) {
                    Err(e) => h_memory.text(&format!("error {e:?}")),
                    Ok(state) => state
                        .iter()
                        .for_each(|m| h_memory.text(&m.map_or("-".to_string(), |m| m.to_string()))),
                }
            }
        }
    }
    assert!(cov["triples"] >= 500);
    assert_eq!(cov, BTreeMap::from(RECORDED_COVERAGE), "the generator moved: not the recorded family");
    assert_eq!(h_replay.0, 1_500_620_119_239_735_717, "certify::replay moved");
    assert_eq!(h_suffix.0, 10_055_642_887_115_670_837, "certify::replay_suffix moved");
    assert_eq!(h_memory.0, 18_047_652_420_229_525_145, "certify::memory_state_at moved");
}

/// Cases of the family in which each thing happened (`replay` reports by
/// kind first, then the `(problem, schedule, carry)` triples).
const RECORDED_COVERAGE: [(&str, usize); 13] = [
    ("Structure", 186),
    ("Interval", 117),
    ("Time", 172),
    ("Memory", 53),
    ("replay feasible", 83),
    ("triples", 2304),
    ("suffix feasible", 410),
    ("suffix Memory", 352),
    ("carry of the wrong arity", 384),
    ("clock admits a run too early from zero", 85),
    ("clock rejects a first run", 78),
    ("held memory, active analysis", 1086),
    ("held memory, deactivated analysis", 187),
];
