//! Criterion bench: the in-situ analysis kernels across problem sizes
//! (the measured substrate behind Figure 4's relative cost profile), and
//! the MD force pass they are budgeted against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insitu_core::runtime::Analysis as _;
use mdsim::analysis::{a1_hydronium_rdf, a4_msd, r1_gyration, r2_membrane_histogram};
use mdsim::{rhodopsin_proxy, water_ions, BuilderParams};

fn bench_md_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("md_analysis_kernels");
    for &n in &[4_000usize, 12_000] {
        let sys = water_ions(&BuilderParams {
            n_particles: n,
            ..Default::default()
        });
        g.bench_with_input(BenchmarkId::new("rdf_a1", n), &sys, |b, s| {
            let mut rdf = a1_hydronium_rdf();
            b.iter(|| rdf.accumulate(s));
        });
        g.bench_with_input(BenchmarkId::new("msd_a4", n), &sys, |b, s| {
            let mut msd = a4_msd();
            msd.setup(s);
            b.iter(|| std::hint::black_box(msd.compute(s)));
        });
        let rho = rhodopsin_proxy(&BuilderParams {
            n_particles: n,
            ..Default::default()
        });
        g.bench_with_input(BenchmarkId::new("gyration_r1", n), &rho, |b, s| {
            let r1 = r1_gyration();
            b.iter(|| std::hint::black_box(r1.compute(s)));
        });
        g.bench_with_input(BenchmarkId::new("histogram_r2", n), &rho, |b, s| {
            let mut r2 = r2_membrane_histogram(64);
            b.iter(|| r2.accumulate(s));
        });
    }
    // the step kernel itself, at the size and density `run-md-adaptive`
    // steps: an equilibrated fluid, then the force pass alone
    let mut sys = water_ions(&BuilderParams {
        n_particles: 2_000,
        ..Default::default()
    });
    for _ in 0..100 {
        sys.step();
    }
    g.bench_function("md_force_2000", |b| {
        b.iter(|| std::hint::black_box(sys.compute_forces()));
    });
    g.finish();
}

fn bench_flash_kernels(c: &mut Criterion) {
    use amrsim::analysis::{f1_vorticity, f2_l1_norm, f3_l2_norm};
    use amrsim::sedov::SedovSetup;
    use amrsim::FlashSim;
    use insitu_core::runtime::Simulator;

    let mut g = c.benchmark_group("flash_analysis_kernels");
    let mut sim = FlashSim::sedov(3, 12, SedovSetup::default());
    for _ in 0..5 {
        sim.advance();
    }
    g.bench_function("vorticity_f1", |b| {
        let mut f1 = f1_vorticity();
        b.iter(|| std::hint::black_box(f1.compute(&sim)));
    });
    g.bench_function("l1_norm_f2", |b| {
        let mut f2 = f2_l1_norm();
        b.iter(|| std::hint::black_box(f2.compute(&sim)));
    });
    g.bench_function("l2_norm_f3", |b| {
        let mut f3 = f3_l2_norm();
        b.iter(|| std::hint::black_box(f3.compute(&sim)));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_md_kernels, bench_flash_kernels
}
criterion_main!(benches);
