//! Laptop-scale measurement of the real analysis kernels.
//!
//! Each function runs an actual mdsim/amrsim kernel on a real system at two
//! or three sizes, times it with [`perfmodel::Stopwatch`], and returns a
//! per-element unit cost (seconds per particle / per cell). These unit
//! costs are the measured anchors that [`crate::scale`] extrapolates to
//! paper scale — the same "measure a few points, predict the rest"
//! methodology as the paper's §4.

use amrsim::analysis::{f1_vorticity, f2_l1_norm, f3_l2_norm};
use amrsim::sedov::SedovSetup;
use amrsim::FlashSim;
use insitu_core::runtime::Simulator;
use mdsim::analysis::{a1_hydronium_rdf, a2_ion_rdf, a4_msd, r1_gyration, r2_membrane_histogram};
use mdsim::{water_ions, BuilderParams};
use parallel::Exec;
use perfmodel::Stopwatch;
use std::sync::OnceLock;

/// Per-element unit costs of every analysis kernel (seconds/element) plus
/// simulation step costs.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// RDF accumulation cost per particle (A1/A2 shape).
    pub rdf_per_particle: f64,
    /// MSD cost per *tracked* particle (A4 shape; non-scaling kernel).
    pub msd_per_particle: f64,
    /// VACF correlation cost per tracked particle per window entry.
    pub vacf_per_particle: f64,
    /// Radius-of-gyration cost per member particle (R1 shape).
    pub gyration_per_particle: f64,
    /// 2-D density histogram cost per particle (R2/R3 shape).
    pub histogram_per_particle: f64,
    /// MD step cost per particle.
    pub md_step_per_particle: f64,
    /// Vorticity cost per cell (F1 shape).
    pub vorticity_per_cell: f64,
    /// L1-norm cost per cell (F2 shape).
    pub l1_per_cell: f64,
    /// L2-norm cost per sampled cell (F3 shape).
    pub l2_per_cell: f64,
    /// Hydro step cost per cell.
    pub hydro_step_per_cell: f64,
    /// Thread count the anchors were measured at. Pinned to 1 so that the
    /// extrapolated profiles stay comparable across machines regardless of
    /// `INSITU_THREADS`; recorded here so profile metadata can state it.
    pub anchor_threads: usize,
}

/// Wall time of one call of `f`: the fastest of `reps` timed calls after
/// a warm-up. A rep that the host preempts only ever reads high, so the
/// minimum is the estimate a loaded machine cannot inflate — the cost
/// *orderings* the tests and the scheduler rely on survive a busy host.
fn time_per<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let sw = Stopwatch::start();
            std::hint::black_box(f());
            sw.elapsed()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures every unit cost once per process (cached).
pub fn unit_costs() -> &'static UnitCosts {
    static COSTS: OnceLock<UnitCosts> = OnceLock::new();
    COSTS.get_or_init(measure_all)
}

fn measure_all() -> UnitCosts {
    // --- MD side: one 20k-atom water+ions system ---
    let n_md = 20_000;
    let mut sys = water_ions(&BuilderParams {
        n_particles: n_md,
        ..Default::default()
    });
    // anchors are measured single-threaded whatever INSITU_THREADS says:
    // unit costs feed the machine model, which reasons about serial work
    sys.exec = Exec::serial();
    // a few steps so velocities/forces are realistic
    for _ in 0..3 {
        sys.step();
    }
    let mut a1 = a1_hydronium_rdf();
    let rdf_t = time_per(3, || a1.accumulate(&sys));
    let mut a2 = a2_ion_rdf();
    let _ = time_per(1, || a2.accumulate(&sys));

    use insitu_core::runtime::Analysis as _;
    let mut msd = a4_msd();
    msd.setup(&sys);
    let tracked = msd_tracked(&sys);
    let msd_t = time_per(5, || std::hint::black_box(msd.compute(&sys)));

    let mut vacf = mdsim::analysis::a3_vacf(16);
    vacf.setup(&sys);
    for _ in 0..16 {
        vacf.record(&sys);
    }
    let vacf_t = time_per(5, || {
        vacf.compute();
        vacf.correlation.len()
    });

    let mut rho = mdsim::rhodopsin_proxy(&BuilderParams {
        n_particles: n_md,
        ..Default::default()
    });
    rho.exec = Exec::serial();
    let r1 = r1_gyration();
    let protein = rho.species_count(mdsim::Species::Protein).max(1);
    let r1_t = time_per(5, || std::hint::black_box(r1.compute(&rho)));
    let mut r2 = r2_membrane_histogram(64);
    let r2_t = time_per(3, || r2.accumulate(&rho));

    let step_t = time_per(3, || sys.step());

    // --- hydro side: 4³ blocks of 12³ cells ---
    let mut sim = FlashSim::sedov(4, 12, SedovSetup::default());
    sim.exec = Exec::serial();
    for _ in 0..3 {
        sim.advance();
    }
    let cells = sim.mesh.total_cells() as f64;
    let mut f1 = f1_vorticity();
    let f1_t = time_per(3, || std::hint::black_box(f1.compute(&sim)));
    let mut f2 = f2_l1_norm();
    let f2_t = time_per(3, || std::hint::black_box(f2.compute(&sim)));
    let mut f3 = f3_l2_norm();
    let f3_samples = f3.samples_per_step(&sim) as f64;
    let f3_t = time_per(5, || std::hint::black_box(f3.compute(&sim)));
    let hydro_t = time_per(2, || sim.advance());

    let vacf_window = 16.0;
    UnitCosts {
        rdf_per_particle: rdf_t / n_md as f64,
        msd_per_particle: msd_t / tracked as f64,
        vacf_per_particle: vacf_t / (n_md as f64 * vacf_window),
        gyration_per_particle: r1_t / protein as f64,
        histogram_per_particle: r2_t / n_md as f64,
        md_step_per_particle: step_t / n_md as f64,
        vorticity_per_cell: f1_t / cells,
        l1_per_cell: f2_t / cells,
        l2_per_cell: f3_t / f3_samples,
        hydro_step_per_cell: hydro_t / cells,
        anchor_threads: 1,
    }
}

/// Number of particles the MSD kernel tracks in a water+ions system.
pub fn msd_tracked(sys: &mdsim::System) -> usize {
    (sys.species_count(mdsim::Species::Hydronium) + sys.species_count(mdsim::Species::Ion)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_costs_positive_and_sane() {
        let c = unit_costs();
        for (name, v) in [
            ("rdf", c.rdf_per_particle),
            ("msd", c.msd_per_particle),
            ("vacf", c.vacf_per_particle),
            ("gyration", c.gyration_per_particle),
            ("histogram", c.histogram_per_particle),
            ("md step", c.md_step_per_particle),
            ("vorticity", c.vorticity_per_cell),
            ("l1", c.l1_per_cell),
            ("l2", c.l2_per_cell),
            ("hydro step", c.hydro_step_per_cell),
        ] {
            assert!(v > 0.0 && v < 1e-2, "{name} unit cost {v}");
        }
    }

    #[test]
    fn cost_ordering_matches_figure4() {
        // Fig. 4 / §5: RDFs are mid-cost, gyration is trivially cheap per
        // particle group, vorticity is the heavy FLASH kernel.
        let c = unit_costs();
        assert!(
            c.vorticity_per_cell > c.l1_per_cell,
            "F1 per-cell must exceed F2"
        );
        assert!(
            c.md_step_per_particle > c.histogram_per_particle,
            "a full force step outweighs a histogram pass"
        );
    }
}
