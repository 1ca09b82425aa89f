//! Post-processing vs in-situ analysis, end to end on real data — the
//! Table-4 story: the post-processing path must write and then re-read the
//! whole trajectory; the in-situ path analyzes live memory.
//!
//! ```sh
//! cargo run -p examples --bin postprocess_vs_insitu --release
//! ```

use insitu_core::runtime::Analysis as _;
use mdsim::analysis::Msd;
use mdsim::dump::{Frame, TrajectoryReader, TrajectoryWriter};
use mdsim::{water_ions, BuilderParams, Species};
use perfmodel::Stopwatch;

const ATOMS: usize = 12_544; // the paper's small case
const STEPS: usize = 100;
const FRAME_EVERY: usize = 10;

/// The trajectory file: named per process so concurrent runs do not share
/// it, and removed however `main` ends.
struct TempTrajectory(std::path::PathBuf);

impl Drop for TempTrajectory {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn main() {
    let mut sys = water_ions(&BuilderParams {
        n_particles: ATOMS,
        ..Default::default()
    });
    let traj = TempTrajectory(
        std::env::temp_dir().join(format!("postprocess_vs_insitu_{}.trj", std::process::id())),
    );
    let path = &traj.0;

    // --- simulation with in-situ MSD + trajectory output ---
    let mut msd = Msd::new("msd", vec![Species::Hydronium, Species::Ion]);
    msd.setup(&sys);
    let mut writer = TrajectoryWriter::create(path).expect("create trajectory");
    let mut insitu = 0.0;
    let sw_total = Stopwatch::start();
    for j in 1..=STEPS {
        sys.step();
        if j % FRAME_EVERY == 0 {
            let sw = Stopwatch::start();
            msd.analyze(&sys);
            insitu += sw.elapsed();
            writer.write_frame(&Frame::capture(&sys)).expect("frame");
        }
    }
    let bytes = writer.finish().expect("finish");
    println!(
        "simulated {STEPS} steps of {ATOMS} atoms in {:.2} s, wrote {:.1} MB trajectory",
        sw_total.elapsed(),
        bytes as f64 / 1e6
    );

    // --- post-processing: read it all back, recompute the MSD series ---
    let sw = Stopwatch::start();
    let frames = TrajectoryReader::open(path)
        .expect("open")
        .read_all()
        .expect("read");
    let read = sw.elapsed();
    let sw = Stopwatch::start();
    let first = &frames[0];
    let tracked: Vec<usize> = first
        .of_species(Species::Hydronium)
        .into_iter()
        .chain(first.of_species(Species::Ion))
        .collect();
    let mut series = Vec::new();
    for f in &frames {
        let mut sum = 0.0;
        for &i in &tracked {
            for d in 0..3 {
                let dx = f.pos[d][i] - first.pos[d][i];
                sum += dx * dx;
            }
        }
        series.push(sum / tracked.len() as f64);
    }
    let analyze = sw.elapsed();
    drop(traj);

    println!("\n                      read (s)   analyze (s)");
    println!("post-processing     {read:>9.4}   {analyze:>10.4}");
    println!("in-situ             {:>9}   {insitu:>10.4}", "-");
    println!(
        "\nspeedup (read+analyze vs in-situ): {:.0}x",
        (read + analyze) / insitu.max(1e-9)
    );
    println!(
        "final MSD: post-processed {:.4} (in-situ series has {} points)",
        series.last().unwrap(),
        msd.series.len()
    );
    println!("\nPaper's Table 4 at HPC scale: 12,544 atoms -> 23.89 s read vs 0.01 s in-situ;");
    println!("100,352 atoms -> 2413 s read vs 0.03 s. Reading always loses.");
}
