//! Bitwise determinism of the chunked parallel simulation kernels.
//!
//! The contract documented in `docs/KERNELS.md`: chunk counts are a pure
//! function of problem size (never of the thread count), and per-chunk
//! partials are merged in ascending chunk order — so every kernel result
//! is **bitwise identical** at 1, 2, or N threads. This file pins that
//! for the full MD state (positions, forces, energies), every MD analysis
//! kernel, the Euler sweep, and every hydro analysis kernel. The Sedov
//! trajectory is also held to a recorded digest, so a kernel rewrite that
//! claims "same bits" is checked against the bits, not against itself.

use amrsim::analysis::{f1_vorticity, f2_l1_norm, f3_l2_norm};
use amrsim::sedov::SedovSetup;
use amrsim::{FlashSim, FlowVar};
use insitu_core::runtime::Simulator;
use mdsim::analysis::{a1_hydronium_rdf, a4_msd, r1_gyration, r2_membrane_histogram};
use mdsim::{rhodopsin_proxy, water_ions, BuilderParams};
use parallel::Exec;

/// Thread counts to sweep: serial, small, and more threads than cores.
const THREADS: [usize; 3] = [1, 2, 5];

fn assert_bits_eq(a: &[u64], b: &[u64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: fingerprint length");
    if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
        panic!(
            "{label}: first mismatch at word {i}: {:#018x} vs {:#018x}",
            a[i], b[i]
        );
    }
}

/// Full MD fingerprint at `threads`: trajectory state after 5 steps plus
/// every analysis kernel output, as raw f64 bit patterns.
fn md_fingerprint(threads: usize) -> Vec<u64> {
    let mut sys = water_ions(&BuilderParams {
        n_particles: 3_000,
        ..Default::default()
    });
    sys.exec = Exec::with_threads(threads);
    let mut msd = a4_msd();
    use insitu_core::runtime::Analysis as _;
    msd.setup(&sys);
    for _ in 0..5 {
        sys.step();
    }
    let potential = sys.compute_forces();
    let mut bits = vec![potential.to_bits(), sys.kinetic_energy().to_bits()];
    for d in 0..3 {
        bits.extend(sys.pos[d].iter().map(|x| x.to_bits()));
        bits.extend(sys.force[d].iter().map(|x| x.to_bits()));
    }

    let mut rdf = a1_hydronium_rdf();
    rdf.accumulate(&sys);
    for p in 0..3 {
        bits.push(rdf.total_counts(p));
        bits.extend(rdf.g_of_r(&sys, p).iter().map(|x| x.to_bits()));
    }
    bits.push(msd.compute(&sys).to_bits());

    let mut rho = rhodopsin_proxy(&BuilderParams {
        n_particles: 3_000,
        ..Default::default()
    });
    rho.exec = Exec::with_threads(threads);
    bits.push(r1_gyration().compute(&rho).to_bits());
    let mut r2 = r2_membrane_histogram(16);
    r2.accumulate(&rho);
    bits.extend(r2.counts.iter().copied());
    bits
}

/// Full hydro fingerprint at `threads`: every flow variable of every cell
/// after 5 Euler steps plus all three analysis kernels.
fn amr_fingerprint(threads: usize) -> Vec<u64> {
    let mut sim = FlashSim::sedov(2, 8, SedovSetup::default());
    sim.exec = Exec::with_threads(threads);
    for _ in 0..5 {
        sim.advance();
    }
    let mut bits = vec![sim.time.to_bits()];
    let n = sim.mesh.block_cells;
    for b in &sim.mesh.blocks {
        for var in [
            FlowVar::Dens,
            FlowVar::Pres,
            FlowVar::Velx,
            FlowVar::Vely,
            FlowVar::Velz,
        ] {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        bits.push(b.cell(var, i, j, k).to_bits());
                    }
                }
            }
        }
    }
    let (max_mag, enstrophy) = f1_vorticity().compute(&sim);
    bits.push(max_mag.to_bits());
    bits.push(enstrophy.to_bits());
    let (dens_err, pres_err) = f2_l1_norm().compute(&sim);
    bits.push(dens_err.to_bits());
    bits.push(pres_err.to_bits());
    for v in f3_l2_norm().compute(&sim) {
        bits.push(v.to_bits());
    }
    bits
}

#[test]
fn md_kernels_bitwise_identical_across_thread_counts() {
    let base = md_fingerprint(THREADS[0]);
    for &t in &THREADS[1..] {
        assert_bits_eq(&base, &md_fingerprint(t), &format!("md @ {t} threads"));
    }
}

#[test]
fn hydro_kernels_bitwise_identical_across_thread_counts() {
    let base = amr_fingerprint(THREADS[0]);
    for &t in &THREADS[1..] {
        assert_bits_eq(&base, &amr_fingerprint(t), &format!("amr @ {t} threads"));
    }
}

/// FNV-1a-64 over the little-endian bytes of `words`.
fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of a whole Sedov trajectory end state: `sim.time` and the raw bits
/// of all ten variables of every interior and face-ghost cell (edge and
/// corner ghosts are never read or written by anything) after `steps`
/// `advance()`s.
fn sedov_trajectory_digest(
    blocks: usize,
    cells: usize,
    cfl: Option<f64>,
    steps: usize,
    threads: usize,
) -> u64 {
    const VARS: [FlowVar; amrsim::NVARS] = [
        FlowVar::Dens,
        FlowVar::Velx,
        FlowVar::Vely,
        FlowVar::Velz,
        FlowVar::Pres,
        FlowVar::Ener,
        FlowVar::Eint,
        FlowVar::Temp,
        FlowVar::Gamc,
        FlowVar::Vort,
    ];
    let mut sim = FlashSim::sedov(blocks, cells, SedovSetup::default());
    sim.exec = Exec::with_threads(threads);
    if let Some(cfl) = cfl {
        sim.cfl = cfl;
    }
    for _ in 0..steps {
        sim.advance();
    }
    let mut words = vec![sim.time.to_bits()];
    for b in &sim.mesh.blocks {
        let w = b.width();
        let ghost = |g: usize| usize::from(g < amrsim::GHOST || g >= b.n + amrsim::GHOST);
        for var in VARS {
            for gk in 0..w {
                for gj in 0..w {
                    for gi in 0..w {
                        if ghost(gi) + ghost(gj) + ghost(gk) <= 1 {
                            words.push(b.at(var, gi, gj, gk).to_bits());
                        }
                    }
                }
            }
        }
    }
    fnv1a64(words)
}

const SEDOV_3X12_CFL02_40_STEPS: u64 = 0x692e903708751cb8;
const SEDOV_2X8_DEFAULT_40_STEPS: u64 = 0x1c28d011cbb72bda;

/// The Sedov trajectory itself, not just its thread-count invariance: both
/// digests were recorded at commit `6fd80b8` (the per-cell sweep that
/// evaluated every HLL face flux twice and exchanged ghosts twice a step).
/// Any change to `amrsim::{euler, mesh}` must reproduce them bit for bit —
/// a digest that moves means an expression was re-associated, not that the
/// golden needs re-recording.
#[test]
fn sedov_trajectory_digest_pinned() {
    for &t in &THREADS {
        // the benchmark's run-amr-static mesh and CFL number
        assert_eq!(
            sedov_trajectory_digest(3, 12, Some(0.2), 40, t),
            SEDOV_3X12_CFL02_40_STEPS,
            "sedov(3, 12) cfl 0.2 @ {t} threads"
        );
        assert_eq!(
            sedov_trajectory_digest(2, 8, None, 40, t),
            SEDOV_2X8_DEFAULT_40_STEPS,
            "sedov(2, 8) default cfl @ {t} threads"
        );
    }
}
