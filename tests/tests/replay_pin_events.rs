//! Pin of what `replay_pin.rs` leaves unheld, recorded at commit 8a867c2
//! *before* the exact replay stopped walking `1..=Steps` per analysis and
//! began to walk each analysis's own events over one common denominator:
//!
//! * `replay_time_series`, element by element, over the generator family of
//!   `replay_pin.rs` (`fuzz::gen_problem`, solved, then broken one of the
//!   nine ways, every schedule built through `AnalysisSchedule::new`, a
//!   case whose list was out of order before `new` left out) — it was
//!   pinned nowhere;
//! * a sparse family — `Steps` 10⁴–10⁶, at most 8 events, `im > 0` — whose
//!   memory threshold is crossed *inside* an event-free run of steps, each
//!   shape replayed fresh and from a carry: the first violating step, the
//!   number of violations and every excess are pinned, so is
//!   `memory_state_at` at the boundaries around the crossing;
//! * the overflow boundary of the `i128` window: parameter spreads that made
//!   the per-operation recursion answer `Overflow` still must, and spreads
//!   it replayed still must replay, to the same exact values.
//!
//! A rewrite that claims "same answers" is held to these, not to itself.

use certify::{
    memory_state_at, replay, replay_suffix, replay_time_series, Rat, RatError, ReplayReport,
    SuffixCarry,
};
use insitu_types::{AnalysisProfile, AnalysisSchedule, ResourceConfig, Schedule, ScheduleProblem};
use integration_tests::fuzz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a, the digest the other recordings in this suite use.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
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

/// A whole report: the three exact values, then every violation in order
/// with its kind, excess bits and message.
fn pin(h: &mut Fnv, r: &Result<ReplayReport, RatError>) {
    let r = match r {
        Ok(r) => r,
        Err(e) => return h.text(&format!("error {e:?}")),
    };
    for exact in [&r.total_time, &r.peak_memory, &r.objective] {
        h.text(&exact.to_string());
    }
    h.word(r.violations.len() as u64);
    for v in &r.violations {
        h.text(&format!("{:?}", v.kind));
        h.word(v.excess.to_bits());
        h.text(&v.message);
    }
}

/// The ways `replay_pin.rs` breaks a schedule, and `Placed` (left as solved).
#[rustfmt::skip]
#[derive(Clone, Copy, PartialEq)]
enum Break { Placed, Unsorted, Duplicate, StepZero, PastTheEnd, StrayOutput, TooClose, EarlyFirstRun, Dense, Arity }
use Break::*;
const BREAKS: [Break; 9] =
    [Unsorted, Duplicate, StepZero, PastTheEnd, StrayOutput, TooClose, EarlyFirstRun, Dense, Arity];

/// `replay_pin.rs`'s `broken`, restated (a test file shares nothing): the
/// schedule, built through `AnalysisSchedule::new`, and whether a list was
/// out of order or repeated a step before `new` made it a set.
fn broken(rng: &mut StdRng, p: &ScheduleProblem, placed: &Schedule, how: Break) -> (Schedule, bool) {
    let steps = p.resources.steps;
    let mut s = placed.clone();
    if how == Arity {
        if rng.gen_bool(0.5) {
            s.per_analysis.push(AnalysisSchedule::default());
        } else {
            s.per_analysis.pop();
        }
        return (s, false);
    }
    let i = rng.gen_range(0..p.len());
    let itv = p.analyses[i].min_interval.max(1);
    let a = &mut s.per_analysis[i];
    let (mut runs, mut outs) = (a.analysis_steps().to_vec(), a.output_steps().to_vec());
    if a.count() < 2 || how == Dense {
        runs = (1..=steps).filter(|j| j % itv == 0).collect();
        outs = runs.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
    }
    let n = runs.len();
    match how {
        Unsorted if n >= 2 => {
            let x = rng.gen_range(0..n - 1);
            runs.swap(x, x + 1);
        }
        Duplicate if n >= 1 => {
            let x = rng.gen_range(0..n);
            runs.insert(x, runs[x]);
        }
        StepZero => runs.insert(0, 0),
        PastTheEnd => {
            let j = steps + rng.gen_range(1usize..=3);
            runs.push(j);
            if rng.gen_bool(0.5) {
                outs.push(j);
            }
        }
        StrayOutput => {
            let free: Vec<usize> = (1..=steps).filter(|j| !runs.contains(j)).collect();
            if !free.is_empty() {
                outs.push(free[rng.gen_range(0..free.len())]);
                outs.sort_unstable();
            }
        }
        TooClose if n >= 1 => {
            let x = rng.gen_range(0..n);
            let j = runs[x] + 1;
            if j <= steps && !runs.contains(&j) {
                runs.insert(x + 1, j);
            }
        }
        EarlyFirstRun if n >= 1 && runs[0] > 1 => {
            runs[0] = rng.gen_range(1..runs[0]);
        }
        _ => {}
    }
    let unordered = [&runs, &outs].iter().any(|list| list.windows(2).any(|w| w[0] >= w[1]));
    *a = AnalysisSchedule::new(runs, outs);
    (s, unordered)
}

#[test]
fn time_series_match_the_recording_made_before_the_walk_became_event_driven() {
    let mut h = Fnv::new();
    let (mut series_pinned, mut errors, mut broken_lists) = (0usize, 0usize, 0usize);
    for case in 0..96usize {
        let mut rng = StdRng::seed_from_u64(0x5EED_2401 ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let p = fuzz::gen_problem(&mut rng, case);
        let placed = insitu_core::solve_aggregate(&p, &milp::SolveOptions::default(), None)
            .expect("fuzz family solves")
            .schedule;
        let mut hows = [Placed; 4];
        hows[1..].fill_with(|| BREAKS[rng.gen_range(0..BREAKS.len())]);
        for how in hows {
            let (s, unordered) = broken(&mut rng, &p, &placed, how);
            // a list the type cannot hold: counted, hashed into nothing
            if unordered {
                broken_lists += 1;
                continue;
            }
            match replay_time_series(&p, &s) {
                Err(e) => {
                    errors += 1;
                    h.text(&format!("error {e:?}"));
                }
                Ok(series) => {
                    series_pinned += 1;
                    assert_eq!(series.len(), p.resources.steps + 1);
                    // the last entry is the replay's Eq. 4 left-hand side
                    let total = replay(&p, &s).expect("inside the i128 window").total_time;
                    assert_eq!(*series.last().unwrap(), total);
                    h.word(series.len() as u64);
                    series.iter().for_each(|t| h.text(&t.to_string()));
                }
            }
        }
    }
    // what the family reached, pinned too
    assert_eq!((series_pinned, errors, broken_lists), RECORDED_SERIES_COVERAGE);
    assert_eq!(h.0, RECORDED_SERIES_DIGEST, "certify::replay_time_series moved");
}

/// (series hashed, wrong-arity errors, cases left out because a list was out
/// of order before `new`). Re-recorded at a2165a7, when the schedules began
/// to be built through `new`: the left-out cases were hashed before.
const RECORDED_SERIES_COVERAGE: (usize, usize, usize) = (312, 28, 44);
const RECORDED_SERIES_DIGEST: u64 = 14_905_464_620_884_827_636;

/// One shape of the sparse family.
struct Sparse {
    problem: ScheduleProblem,
    schedule: Schedule,
    carry: SuffixCarry,
    /// Boundaries `memory_state_at` is asked at.
    boundaries: Vec<usize>,
}

/// Exact eighths: every parameter below is a small dyadic.
fn eighths(rng: &mut StdRng, lo: u32, hi: u32) -> f64 {
    rng.gen_range(lo..=hi) as f64 / 8.0
}

/// A long run with a handful of events. Analysis 0 ("big") accrues `im` an
/// order of magnitude faster than the others and is the only one that
/// outputs, at `reset`, past the middle of the run; `mth` is put half an
/// `im`-sum below the total of step `reset - d`, which lies inside the
/// event-free run of steps that ends at `reset` — so fresh, the violations
/// are the steps `reset - d ..= reset` and nothing after the reset (the
/// stretch left is shorter than the one before it). Every third shape has
/// no reset and crosses `d` steps before the end of the run instead.
fn sparse(rng: &mut StdRng, case: usize) -> Sparse {
    let steps = [10_000usize, 30_000, 100_000, 250_000, 1_000_000][case % 5];
    let n = rng.gen_range(1usize..=3);
    let to_the_end = case % 3 == 2;
    let reset = if to_the_end { steps } else { rng.gen_range(steps * 11 / 20..steps * 7 / 10) };
    let d = rng.gen_range(1usize..=24);
    let x = reset - d;
    let early = rng.gen_range(steps / 10..steps / 4);
    let late = rng.gen_range(reset + steps / 20..reset + steps / 5).min(steps);

    let mut analyses = Vec::new();
    let mut schedule = Schedule::empty(n + 1);
    // the footprint each analysis holds at the start of step `x`, fresh
    let mut at_x = 0.0f64;
    let mut im_sum = 0.0f64;
    for i in 0..n {
        let big = i == 0;
        let fm = eighths(rng, 0, 4000);
        let im = if big { eighths(rng, 40, 160) } else { eighths(rng, 1, 2) };
        let cm = eighths(rng, 0, 2000);
        let om = eighths(rng, 0, 800);
        analyses.push(
            AnalysisProfile::new(format!("s{i}"))
                .with_fixed(eighths(rng, 0, 16), fm)
                .with_per_step(eighths(rng, 0, 2) / 1024.0, im)
                .with_compute(eighths(rng, 1, 40), cm)
                .with_output(eighths(rng, 0, 16), om, 1)
                .with_weight(rng.gen_range(1u32..=6) as f64 * 0.5)
                .with_interval(steps / 50),
        );
        // at most 8 events over all analyses: big has 2 or 3, the others 1 or 2
        let (runs, outs) = if big && to_the_end {
            (vec![early, steps / 2], vec![])
        } else if big {
            (vec![early, reset, late], vec![reset])
        } else if rng.gen_bool(0.5) {
            (vec![rng.gen_range(steps / 50..x)], vec![])
        } else {
            (vec![rng.gen_range(steps / 50..steps / 3), rng.gen_range(steps / 2..x)], vec![])
        };
        let ran_before_x = runs.iter().filter(|&&j| j < x).count();
        at_x += fm + im * x as f64 + cm * ran_before_x as f64;
        im_sum += im;
        schedule.per_analysis[i] = AnalysisSchedule::new(runs, outs);
    }
    // one analysis the schedule leaves out; the carry lets it hold memory
    analyses.push(AnalysisProfile::new("idle").with_fixed(1.0, 64.0).with_per_step(0.0, 1.0));
    let mth = at_x - im_sum / 2.0;
    let problem =
        ScheduleProblem::new(analyses, ResourceConfig::from_total_threshold(steps, 1e6, mth, 1e9))
            .expect("the sparse family validates");

    // the carry: big already holds a few steps' worth more than its fixed
    // allocation, so the crossing comes that many steps sooner; the idle
    // analysis holds a little; the Eq. 9 clocks are anywhere
    let mut carry = SuffixCarry::fresh(n + 1);
    let big = &problem.analyses[0];
    let ahead = rng.gen_range(1u32..=12) as f64;
    carry.held_mem[0] = Some(Rat::from_f64_exact(big.fixed_mem + big.step_mem * ahead).unwrap());
    carry.held_mem[n] = Some(Rat::from_f64_exact(eighths(rng, 0, 64)).unwrap());
    for i in 0..n {
        if rng.gen_bool(0.6) {
            carry.steps_since_run[i] = Some(rng.gen_range(0..steps / 25));
        }
    }
    Sparse { problem, schedule, carry, boundaries: vec![0, early, x - 1, x, reset, steps, steps + 7] }
}

#[test]
fn sparse_runs_match_the_recording_made_before_the_walk_became_event_driven() {
    let mut h = Fnv::new();
    let mut firsts = Vec::new();
    for case in 0..15usize {
        let mut rng = StdRng::seed_from_u64(0x5EED_2402 ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let Sparse { problem, schedule, carry, boundaries } = sparse(&mut rng, case);
        let events: usize =
            schedule.per_analysis.iter().map(|a| a.count() + a.output_count()).sum();
        assert!(events <= 8, "case {case}: {events} events");
        assert!(problem.analyses.iter().take(problem.len() - 1).all(|a| a.step_mem > 0.0));

        let fresh = replay(&problem, &schedule);
        let carried = replay_suffix(&problem, &schedule, &carry);
        for r in [&fresh, &carried] {
            pin(&mut h, r);
            let r = r.as_ref().expect("inside the i128 window");
            // the crossing is there, and it is a crossing: a bounded stretch
            // of memory violations that starts after step 1
            let memory: Vec<&str> = r
                .violations
                .iter()
                .filter(|v| format!("{:?}", v.kind) == "Memory")
                .map(|v| &*v.message)
                .collect();
            assert!((1..=64).contains(&memory.len()), "case {case}: {}", memory.len());
            assert!(!memory[0].starts_with("step 1:"), "case {case}: {}", memory[0]);
            let step = memory[0].trim_start_matches("step ").split(':').next().unwrap();
            firsts.push((step.parse::<usize>().unwrap(), memory.len()));
        }
        for &step in &boundaries {
            let set_up: Vec<bool> = (0..problem.len()).map(|i| i != 1).collect();
            match memory_state_at(&problem, &schedule, step, &set_up) {
                Err(e) => h.text(&format!("error {e:?}")),
                Ok(state) => state
                    .iter()
                    .for_each(|m| h.text(&m.map_or("-".to_string(), |m| m.to_string()))),
            }
        }
        let series = replay_time_series(&problem, &schedule).expect("inside the i128 window");
        h.word(series.len() as u64);
        for &step in &boundaries {
            h.text(&series[step.min(problem.resources.steps)].to_string());
        }
    }
    // readable: (first violating step, violations), fresh then carried, per shape
    assert_eq!(firsts, RECORDED_FIRST_VIOLATIONS);
    assert_eq!(h.0, RECORDED_SPARSE_DIGEST, "a sparse replay moved");
}

#[rustfmt::skip]
const RECORDED_FIRST_VIOLATIONS: [(usize, usize); 30] = [
    (5755, 21), (5744, 32), (19512, 9), (19503, 18), (99990, 11), (99987, 14),
    (158246, 6), (158234, 18), (601594, 18), (601584, 28), (9998, 3), (9995, 6),
    (20933, 10), (20925, 18), (68349, 12), (68340, 21), (249992, 9), (249987, 14),
    (621479, 6), (621475, 10), (6051, 2), (6041, 12), (29997, 4), (29994, 7),
    (56730, 2), (56727, 5), (168422, 11), (168410, 23), (999988, 13), (999980, 21),
];
const RECORDED_SPARSE_DIGEST: u64 = 1_703_759_513_765_734_934;

/// `2^e`, exactly.
fn pow2(e: i32) -> f64 {
    2f64.powi(e)
}

/// What one boundary case answered, readably: the error, or the exact
/// values and the violation count.
fn outcome(r: Result<ReplayReport, RatError>) -> String {
    match r {
        Err(e) => format!("{e:?}"),
        Ok(r) => format!(
            "time {} peak {} violations {}",
            r.total_time,
            r.peak_memory,
            r.violations.len()
        ),
    }
}

/// One analysis over `steps` steps that runs at `runs` and outputs at
/// `outs`, with every Table-1 parameter zero until the caller sets it.
fn lone(steps: usize, runs: &[usize], outs: &[usize]) -> (ScheduleProblem, Schedule) {
    let p = ScheduleProblem::new(
        vec![AnalysisProfile::new("a")],
        ResourceConfig::from_total_threshold(steps, pow2(20), pow2(40), 1e9),
    )
    .expect("validates");
    let mut s = Schedule::empty(1);
    s.per_analysis[0] = AnalysisSchedule::new(runs.to_vec(), outs.to_vec());
    (p, s)
}

#[test]
fn the_overflow_boundary_is_where_it_was() {
    let mut seen = Vec::new();
    let mut see = |label: &'static str, r: Result<ReplayReport, RatError>| seen.push((label, outcome(r)));

    // a fixed allocation of 2^a bytes beside an im of 2^-b: the footprint
    // needs a + b + 1 bits, and `mth` = 2^(a+1) one more
    for (label, a) in [("fm 2^65 + im 2^-60, mth 2^66", 65), ("fm 2^66 + im 2^-60, mth 2^67", 66)] {
        let (mut p, s) = lone(8, &[4], &[4]);
        p.analyses[0].fixed_mem = pow2(a);
        p.analyses[0].step_mem = pow2(-60);
        p.resources.mem_threshold = pow2(a + 1);
        see(label, replay(&p, &s));
    }
    // a threshold far above a footprint with a fine denominator
    let (mut p, s) = lone(8, &[4], &[4]);
    p.analyses[0].fixed_mem = 1.0;
    p.analyses[0].step_mem = pow2(-30);
    p.resources.mem_threshold = pow2(100);
    see("mth 2^100 over im 2^-30", replay(&p, &s));
    p.resources.mem_threshold = pow2(90);
    see("mth 2^90 over im 2^-30", replay(&p, &s));

    // a parameter the schedule never adds is never aligned: om and ot of an
    // analysis that does not output
    for (label, outs) in [("om, ot 2^-80 unused", &[][..]), ("om, ot 2^-80 used", &[4][..])] {
        let (mut p, s) = lone(8, &[4], outs);
        p.analyses[0].fixed_mem = pow2(60);
        p.analyses[0].fixed_time = pow2(60);
        p.analyses[0].output_mem = pow2(-80);
        p.analyses[0].output_time = pow2(-80);
        p.resources.mem_threshold = pow2(62);
        see(label, replay(&p, &s));
    }
    // ... and every parameter of an analysis the schedule leaves out
    let (p, s) = lone(8, &[4], &[]);
    let mut two = p.clone();
    two.analyses.push(p.analyses[0].clone());
    two.analyses[1].name = "out".into();
    two.analyses[1].fixed_mem = f64::NAN;
    two.analyses[1].compute_time = pow2(200);
    let mut s2 = s.clone();
    s2.per_analysis.push(AnalysisSchedule::default());
    see("NaN and 2^200 on an inactive analysis", replay(&two, &s2));

    // a carried footprint replaces fm as the seed: without an output fm is
    // never added, with one it is
    for (label, outs) in [("held 2^-80, fm 2^60 unused", &[][..]), ("held 2^-80, fm 2^60 used", &[4][..])] {
        let (mut p, s) = lone(8, &[4], outs);
        p.analyses[0].fixed_mem = pow2(60);
        let carry = SuffixCarry {
            held_mem: vec![Some(Rat::from_f64_exact(pow2(-80)).unwrap())],
            steps_since_run: vec![Some(100)],
        };
        see(label, replay_suffix(&p, &s, &carry));
    }
    // memory held by a deactivated analysis is a term of every step's total
    let (mut p, _) = lone(8, &[4], &[]);
    p.analyses[0].fixed_mem = pow2(60);
    p.analyses.push(AnalysisProfile::new("dropped"));
    let mut s = Schedule::empty(2);
    s.per_analysis[0] = AnalysisSchedule::new(vec![4], vec![]);
    for (label, e) in [("idle 2^-60 beside fm 2^60", -60), ("idle 2^-70 beside fm 2^60", -70)] {
        let carry = SuffixCarry {
            held_mem: vec![None, Some(Rat::from_f64_exact(pow2(e)).unwrap())],
            steps_since_run: vec![None, None],
        };
        see(label, replay_suffix(&p, &s, &carry));
    }

    // growth walks out of the window mid-run: 3·2^125 fits, 4·2^125 does not
    for (label, steps) in [("im 2^125 for 3 steps", 3), ("im 2^125 for 4 steps", 4)] {
        let (mut p, s) = lone(steps, &[1], &[]);
        p.analyses[0].step_mem = pow2(125);
        p.resources.mem_threshold = pow2(126);
        see(label, replay(&p, &s));
    }
    // ... and is cut short by an output that frees it first
    let (mut p, s) = lone(6, &[3], &[3]);
    p.analyses[0].step_mem = pow2(125);
    p.resources.mem_threshold = pow2(126);
    see("im 2^125 for 6 steps, freed at 3", replay(&p, &s));

    // the time side: Eq. 2's sum and Eq. 4's right-hand side
    let (mut p, s) = lone(1000, &[500], &[]);
    p.analyses[0].fixed_time = pow2(66);
    p.analyses[0].step_time = pow2(-60);
    see("ft 2^66 + it 2^-60", replay(&p, &s));
    p.analyses[0].fixed_time = pow2(67);
    see("ft 2^67 + it 2^-60", replay(&p, &s));
    p.analyses[0].step_time = pow2(120);
    see("it 2^120 for 1000 steps", replay(&p, &s));
    let (mut p, s) = lone(1000, &[500], &[]);
    p.resources.step_threshold = pow2(120);
    see("cth 2^120 for 1000 steps", replay(&p, &s));

    // the same window holds `memory_state_at` and `replay_time_series`
    let (mut p, s) = lone(8, &[4], &[]);
    p.analyses[0].fixed_mem = pow2(70);
    p.analyses[0].step_mem = pow2(-60);
    p.analyses[0].fixed_time = pow2(70);
    p.analyses[0].step_time = pow2(-60);
    let state = |p: &ScheduleProblem, step| match memory_state_at(p, &s, step, &[true]) {
        Err(e) => format!("{e:?}"),
        Ok(m) => m[0].expect("set up").to_string(),
    };
    let series = |p: &ScheduleProblem| match replay_time_series(p, &s) {
        Err(e) => format!("{e:?}"),
        Ok(t) => t.last().expect("Steps + 1 entries").to_string(),
    };
    let wide = (state(&p, 0), state(&p, 1), series(&p));
    p.analyses[0].fixed_mem = pow2(60);
    p.analyses[0].fixed_time = pow2(60);
    let narrow = (state(&p, 0), state(&p, 8), series(&p));

    let seen: Vec<(&str, &str)> = seen.iter().map(|(label, o)| (*label, o.as_str())).collect();
    assert_eq!(seen, RECORDED_BOUNDARY);
    assert_eq!((&*wide.0, &*wide.1, &*wide.2), RECORDED_WIDE);
    assert_eq!((&*narrow.0, &*narrow.1, &*narrow.2), RECORDED_NARROW);
}

#[rustfmt::skip]
const RECORDED_BOUNDARY: [(&str, &str); 18] = [
    ("fm 2^65 + im 2^-60, mth 2^66", "time 0 peak 10633823966279326983230456482242756609/288230376151711744 violations 0"),
    ("fm 2^66 + im 2^-60, mth 2^67", "Overflow"),
    ("mth 2^100 over im 2^-30", "Overflow"),
    ("mth 2^90 over im 2^-30", "time 0 peak 268435457/268435456 violations 0"),
    ("om, ot 2^-80 unused", "time 1152921504606846976 peak 1152921504606846976 violations 1"),
    ("om, ot 2^-80 used", "Overflow"),
    ("NaN and 2^200 on an inactive analysis", "time 0 peak 0 violations 0"),
    ("held 2^-80, fm 2^60 unused", "time 0 peak 1/1208925819614629174706176 violations 0"),
    ("held 2^-80, fm 2^60 used", "Overflow"),
    ("idle 2^-60 beside fm 2^60", "time 0 peak 1329227995784915872903807060280344577/1152921504606846976 violations 8"),
    ("idle 2^-70 beside fm 2^60", "Overflow"),
    ("im 2^125 for 3 steps", "time 0 peak 127605887595351923798765477786913079296 violations 1"),
    ("im 2^125 for 4 steps", "Overflow"),
    ("im 2^125 for 6 steps, freed at 3", "time 0 peak 127605887595351923798765477786913079296 violations 2"),
    ("ft 2^66 + it 2^-60", "time 10633823966279326983230456482242756733/144115188075855872 peak 0 violations 1"),
    ("ft 2^67 + it 2^-60", "Overflow"),
    ("it 2^120 for 1000 steps", "Overflow"),
    ("cth 2^120 for 1000 steps", "Overflow"),
];
/// fm, ft 2^70 beside im, it 2^-60: (state at 0, state at 1, last of the series).
const RECORDED_WIDE: (&str, &str, &str) = ("1180591620717411303424", "Overflow", "Overflow");
/// fm, ft 2^60 beside im, it 2^-60: (state at 0, state at 8, last of the series).
const RECORDED_NARROW: (&str, &str, &str) = (
    "1152921504606846976",
    "166153499473114484112975882535043073/144115188075855872",
    "166153499473114484112975882535043073/144115188075855872",
);
