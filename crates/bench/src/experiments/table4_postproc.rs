//! Table 4: post-processing vs in-situ MSD — for real.
//!
//! The simulation writes its trajectory to disk; a serial post-processing
//! pass then re-reads every frame and computes the MSD, while the in-situ
//! path computes the same MSD from live memory at the same cadence. The
//! paper's observation (12 544 atoms: 23.89 s read + 1.03 s analyze vs
//! 0.01 s in-situ; 100 352 atoms: 2413 s + 17.85 s vs 0.03 s): reading
//! dominates, the gap grows with the atom count, and in-situ wins by
//! orders of magnitude. We report measured local numbers plus the modeled
//! read time on HPC shared storage (serial reader, as in the paper).

use crate::table::TextTable;
use insitu_core::runtime::Analysis as _;
use insitu_types::{AnalysisSchedule, Schedule};
use mdsim::analysis::Msd;
use mdsim::dump::{Frame, TrajectoryReader, TrajectoryWriter};
use mdsim::{water_ions, BuilderParams, Species};
use perfmodel::Stopwatch;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Paper rows: (atoms, read s, post-process s, in-situ s).
pub const PAPER_ROWS: [(usize, f64, f64, f64); 2] =
    [(12_544, 23.89, 1.03, 0.01), (100_352, 2413.11, 17.85, 0.03)];

/// Experiment configuration (shrunk in unit tests).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Atom counts to run.
    pub atom_counts: [usize; 2],
    /// Simulation steps.
    pub steps: usize,
    /// Trajectory output cadence (steps per frame — paper: 10 frames).
    pub output_every: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            atom_counts: [12_544, 100_352],
            steps: 100,
            output_every: 10,
        }
    }
}

/// One reproduced row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of atoms.
    pub atoms: usize,
    /// Measured local trajectory read(+parse) time.
    pub read_time: f64,
    /// Modeled read time on a serial HPC reader (paper's setting).
    pub modeled_hpc_read: f64,
    /// Measured post-processing MSD analyze time (all frames).
    pub postprocess_time: f64,
    /// Measured in-situ MSD analyze time (all analysis steps).
    pub insitu_time: f64,
    /// Trajectory size in bytes.
    pub traj_bytes: u64,
    /// Frames the post-processing pass read back from the trajectory.
    pub frames_read: usize,
}

/// A trajectory file of its own for every [`run_with`] call — calls run
/// concurrently inside one test process — removed again however the call
/// ends.
struct TempTrajectory(PathBuf);

impl TempTrajectory {
    fn new(atoms: usize) -> Self {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let name = format!("table4_{}_{call}_{atoms}.trj", std::process::id());
        TempTrajectory(std::env::temp_dir().join(name))
    }
}

impl Drop for TempTrajectory {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Experiment result.
#[derive(Debug)]
pub struct Outcome {
    /// One row per atom count.
    pub rows: Vec<Row>,
    /// Printable report.
    pub report: String,
}

/// Computes the MSD of tracked species of `frame` against reference
/// positions captured from the first frame (serial post-processing tool).
fn frame_msd(reference: &[(usize, [f64; 3])], frame: &Frame) -> f64 {
    let mut sum = 0.0;
    for &(i, r) in reference {
        let dx = frame.pos[0][i] - r[0];
        let dy = frame.pos[1][i] - r[1];
        let dz = frame.pos[2][i] - r[2];
        sum += dx * dx + dy * dy + dz * dz;
    }
    sum / reference.len().max(1) as f64
}

/// Runs the experiment with an explicit configuration.
pub fn run_with(cfg: Config) -> Outcome {
    let mut rows = Vec::new();
    for &atoms in &cfg.atom_counts {
        let mut sys = water_ions(&BuilderParams {
            n_particles: atoms,
            ..Default::default()
        });
        // --- coupled run: in-situ MSD + trajectory output ---
        let analysis_steps: Vec<usize> = (1..=cfg.steps)
            .filter(|j| j % cfg.output_every == 0)
            .collect();
        let mut schedule = Schedule::empty(1);
        schedule.per_analysis[0] = AnalysisSchedule::new(analysis_steps.clone(), vec![]);
        let traj = TempTrajectory::new(atoms);
        let mut writer = TrajectoryWriter::create(&traj.0).expect("create trajectory");
        let mut msd = Msd::new("msd (A4)", vec![Species::Hydronium, Species::Ion]);
        msd.setup(&sys);
        let mut insitu_time = 0.0;
        for j in 1..=cfg.steps {
            sys.step();
            if j % cfg.output_every == 0 {
                let sw = Stopwatch::start();
                msd.analyze(&sys);
                insitu_time += sw.elapsed();
                writer
                    .write_frame(&Frame::capture(&sys))
                    .expect("write frame");
            }
        }
        let traj_bytes = writer.finish().expect("finish trajectory");

        // --- post-processing: read everything back, then analyze ---
        let sw = Stopwatch::start();
        let mut reader = TrajectoryReader::open(&traj.0).expect("open trajectory");
        let frames = reader.read_all().expect("read frames");
        let read_time = sw.elapsed();
        let sw = Stopwatch::start();
        let first = &frames[0];
        let reference: Vec<(usize, [f64; 3])> = first
            .of_species(Species::Hydronium)
            .into_iter()
            .chain(first.of_species(Species::Ion))
            .map(|i| (i, [first.pos[0][i], first.pos[1][i], first.pos[2][i]]))
            .collect();
        let mut acc = 0.0;
        for f in &frames {
            acc += frame_msd(&reference, f);
        }
        std::hint::black_box(acc);
        let postprocess_time = sw.elapsed();
        drop(traj);

        // serial HPC reader model: one rank parsing a text-ish trajectory
        // from shared storage at ~40 MB/s effective (the paper's custom
        // serial tool on a workstation reading HPC output)
        let modeled_hpc_read = traj_bytes as f64 / 40.0e6;

        rows.push(Row {
            atoms,
            read_time,
            modeled_hpc_read,
            postprocess_time,
            insitu_time,
            traj_bytes,
            frames_read: frames.len(),
        });
    }
    let mut t = TextTable::new(&[
        "atoms",
        "read (s)",
        "HPC-model read (s)",
        "post-proc (s)",
        "in-situ (s)",
        "| paper read",
        "paper pp",
        "paper insitu",
    ]);
    for (row, &(patoms, pread, ppp, pis)) in rows.iter().zip(&PAPER_ROWS) {
        t.row(&[
            row.atoms.to_string(),
            format!("{:.3}", row.read_time),
            format!("{:.1}", row.modeled_hpc_read),
            format!("{:.3}", row.postprocess_time),
            format!("{:.4}", row.insitu_time),
            format!("| {pread} ({patoms})"),
            format!("{ppp}"),
            format!("{pis}"),
        ]);
    }
    let report = format!(
        "MSD analysis of water+ions, {} steps, trajectory frame every {}\n\
         steps. Post-processing must read the trajectory back; in-situ\n\
         computes from live memory.\n{}",
        cfg.steps,
        cfg.output_every,
        t.render()
    );
    Outcome { rows, report }
}

/// Runs at the paper's atom counts.
pub fn run() -> Outcome {
    run_with(Config::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_core::runtime::{run_coupled, CouplerConfig};

    fn small() -> Config {
        Config {
            atom_counts: [4_000, 16_000],
            steps: 30,
            output_every: 10,
        }
    }

    #[test]
    fn insitu_beats_postprocessing() {
        // asserted on what each path has to move, not on wall-clock
        // ratios a loaded host can invert: in-situ reads live memory,
        // post-processing reads every frame of every atom back from disk
        let cfg = small();
        let o = run_with(cfg);
        for r in &o.rows {
            assert_eq!(r.frames_read, cfg.steps / cfg.output_every);
            // at least three f64 coordinates per atom per frame
            let positions = (r.frames_read * r.atoms * 24) as u64;
            assert!(
                r.traj_bytes >= positions,
                "{} atoms: {} trajectory bytes < {positions}",
                r.atoms,
                r.traj_bytes
            );
        }
    }

    #[test]
    fn gap_grows_with_atom_count() {
        let o = run_with(small());
        assert!(o.rows[1].traj_bytes > 3 * o.rows[0].traj_bytes);
        assert!(o.rows[1].modeled_hpc_read > 3.0 * o.rows[0].modeled_hpc_read);
    }

    #[test]
    fn msd_values_agree_between_paths() {
        // the post-processing frame_msd and the in-situ kernel measure the
        // same quantity on the final frame (up to image unwrapping, which
        // stays zero over a short run)
        let mut sys = water_ions(&BuilderParams {
            n_particles: 2_000,
            ..Default::default()
        });
        let mut msd = Msd::new("m", vec![Species::Hydronium, Species::Ion]);
        msd.setup(&sys);
        let f0 = Frame::capture(&sys);
        let reference: Vec<(usize, [f64; 3])> = f0
            .of_species(Species::Hydronium)
            .into_iter()
            .chain(f0.of_species(Species::Ion))
            .map(|i| (i, [f0.pos[0][i], f0.pos[1][i], f0.pos[2][i]]))
            .collect();
        for _ in 0..5 {
            sys.step();
        }
        let live = msd.compute(&sys);
        let replay = frame_msd(&reference, &Frame::capture(&sys));
        assert!(
            (live - replay).abs() < 1e-9 + live * 1e-6,
            "in-situ {live} vs post {replay}"
        );
    }

    #[test]
    fn coupler_variant_matches_manual_loop() {
        // sanity: the runtime coupler drives the same analysis cadence
        let mut sys = water_ions(&BuilderParams {
            n_particles: 1_000,
            ..Default::default()
        });
        let mut schedule = Schedule::empty(1);
        schedule.per_analysis[0] = AnalysisSchedule::new(vec![5, 10], vec![]);
        let msd = Msd::new("m", vec![Species::Ion]);
        let mut analyses: Vec<Box<dyn insitu_core::runtime::Analysis<mdsim::System>>> =
            vec![Box::new(msd)];
        let report = run_coupled(
            &mut sys,
            &mut analyses,
            &schedule,
            &CouplerConfig {
                steps: 10,
                sim_output_every: 0,
            },
        );
        assert_eq!(report.analysis_times[0].analyze_count, 2);
        assert_eq!(report.trace.sim_steps(), 10);
    }
}
