//! Criterion bench: the hydro substrate itself (cost per mesh step at two
//! block counts, and one MD force step) — the simulation side of the
//! coupling whose per-step time defines the Table-5 threshold base.

use amrsim::euler::{cfl_dt, step};
use amrsim::sedov::SedovSetup;
use amrsim::FlashSim;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insitu_core::runtime::Simulator;
use insitu_types::KernelTelemetry;
use mdsim::{water_ions, BuilderParams};
use parallel::{Exec, ScratchPool};

fn bench_hydro(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_steps");
    for &bps in &[2usize, 3] {
        // the sim's own execution context, telemetry and scratch pool, so
        // an iteration times the step, not a thread start or an allocation
        let mut sim = FlashSim::sedov(bps, 12, SedovSetup::default());
        let dt = cfl_dt(&sim.mesh, 0.4, &sim.exec);
        g.bench_with_input(
            BenchmarkId::new("euler_step_blocks", bps * bps * bps),
            &dt,
            |b, &dt| {
                b.iter(|| {
                    step(&mut sim.mesh, dt, &sim.exec, &mut sim.telemetry, &sim.scratch)
                });
            },
        );
    }
    for &n in &[4_000usize, 12_000] {
        let mut sys = water_ions(&BuilderParams {
            n_particles: n,
            ..Default::default()
        });
        g.bench_with_input(BenchmarkId::new("md_step_atoms", n), &n, |b, _| {
            b.iter(|| sys.step());
        });
    }
    g.finish();
}

/// The two kernels of `run-amr-static`'s step at the benchmark's own mesh
/// (3³ blocks of 12³ cells, CFL 0.2) on one thread: a whole `step`, and
/// the ghost exchange alone. The blast is 100 steps old, so the shock shell
/// is well inside the mesh; `dt` is fixed from that state (the blast only
/// slows down afterwards, so it stays stable however many iterations run).
fn bench_amr_step_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("amr_step_kernels");
    let mut sim = FlashSim::sedov(3, 12, SedovSetup::default());
    sim.exec = Exec::serial();
    sim.cfl = 0.2;
    for _ in 0..100 {
        sim.advance();
    }
    let (exec, pool) = (sim.exec, ScratchPool::new());
    let dt = cfl_dt(&sim.mesh, sim.cfl, &exec);
    g.bench_function("hydro_step_27x12", |b| {
        let mut telemetry = KernelTelemetry::new();
        b.iter(|| step(&mut sim.mesh, dt, &exec, &mut telemetry, &pool));
    });
    g.bench_function("ghost_exchange_27x12", |b| {
        b.iter(|| sim.mesh.exchange_ghosts(&exec, &pool));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hydro, bench_amr_step_kernels
}
criterion_main!(benches);
