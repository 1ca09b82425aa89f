//! Particle store, periodic box and time integration.
//!
//! Structure-of-arrays layout per the Rust performance guide: the hot force
//! and integration loops stream over contiguous `Vec<f64>` coordinates.

use crate::force::ForceField;
use crate::neighbor::SortedCells;
use insitu_core::runtime::Simulator;
use insitu_types::KernelTelemetry;
use parallel::{Exec, ScratchPool};
use std::time::Instant;

/// Number of species understood by the builders/analyses.
pub const NUM_SPECIES: usize = 5;

/// Particle species, mirroring the paper's two LAMMPS problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Species {
    /// Water (single-site, water+ions problem; solvent in rhodopsin).
    Water = 0,
    /// Hydronium ion (water+ions problem).
    Hydronium = 1,
    /// Dissolved ion (both problems).
    Ion = 2,
    /// Membrane lipid site (rhodopsin problem).
    Membrane = 3,
    /// Protein site (rhodopsin problem).
    Protein = 4,
}

impl Species {
    /// All species in index order.
    pub const ALL: [Species; NUM_SPECIES] = [
        Species::Water,
        Species::Hydronium,
        Species::Ion,
        Species::Membrane,
        Species::Protein,
    ];

    /// Species from its index.
    pub fn from_index(i: usize) -> Species {
        Species::ALL[i]
    }

    /// Index of the species.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Orthorhombic periodic simulation box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBox {
    /// Edge lengths.
    pub lengths: [f64; 3],
}

impl SimBox {
    /// Cubic box of edge `l`.
    pub fn cubic(l: f64) -> Self {
        SimBox {
            lengths: [l, l, l],
        }
    }

    /// Box volume.
    pub fn volume(&self) -> f64 {
        self.lengths[0] * self.lengths[1] * self.lengths[2]
    }

    /// Minimum-image displacement component along dimension `d`.
    #[inline]
    pub fn min_image(&self, d: usize, dx: f64) -> f64 {
        let l = self.lengths[d];
        dx - l * (dx / l).round()
    }

    /// Minimum-image vector between two positions.
    #[inline]
    pub fn displacement(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        [
            self.min_image(0, a[0] - b[0]),
            self.min_image(1, a[1] - b[1]),
            self.min_image(2, a[2] - b[2]),
        ]
    }

    /// Squared minimum-image distance.
    #[inline]
    pub fn dist2(&self, a: [f64; 3], b: [f64; 3]) -> f64 {
        let d = self.displacement(a, b);
        d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    }

    /// Wraps a coordinate into `[0, L)` along dimension `d`.
    #[inline]
    pub fn wrap(&self, d: usize, x: f64) -> f64 {
        let l = self.lengths[d];
        x.rem_euclid(l)
    }
}

/// A harmonic bond between two particles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bond {
    /// First particle index.
    pub i: usize,
    /// Second particle index.
    pub j: usize,
    /// Equilibrium length.
    pub r0: f64,
    /// Spring constant.
    pub k: f64,
}

/// The full MD system: SoA particle state + box + force field.
#[derive(Debug, Clone)]
pub struct System {
    /// Periodic box.
    pub bounds: SimBox,
    /// Positions, wrapped into the box. `pos[d][i]`.
    pub pos: [Vec<f64>; 3],
    /// Velocities. `vel[d][i]`.
    pub vel: [Vec<f64>; 3],
    /// Forces (scratch). `force[d][i]`.
    pub force: [Vec<f64>; 3],
    /// Per-particle accumulated periodic image shifts (for unwrapped
    /// positions, needed by MSD). `image[d][i]` counts box crossings.
    pub image: [Vec<i32>; 3],
    /// Species index per particle.
    pub species: Vec<u8>,
    /// Mass per species.
    pub masses: [f64; NUM_SPECIES],
    /// Harmonic bonds (intramolecular structure).
    pub bonds: Vec<Bond>,
    /// Pairwise force field.
    pub ff: ForceField,
    /// Integration time step.
    pub dt: f64,
    /// Target temperature for the Berendsen thermostat (0 = NVE).
    pub target_temp: f64,
    /// Thermostat coupling constant (fraction per step).
    pub thermostat_coupling: f64,
    /// Completed time steps.
    pub step_count: usize,
    /// Execution context for the parallel kernels (thread count). Set from
    /// `INSITU_THREADS` at construction; results are bitwise identical for
    /// any value (see the `parallel` crate docs).
    pub exec: Exec,
    /// Accumulated per-kernel telemetry (force loop, cell rebuilds, ...).
    pub telemetry: KernelTelemetry,
    /// Trace sink for kernel-boundary spans (`md.cell_rebuild`,
    /// `md.force`). Disabled by default; attach a handle to see the
    /// simulation's kernels inside a coupled-run timeline.
    pub tracer: obs::TraceHandle,
    /// Reusable per-chunk scratch buffers for the force kernel. After the
    /// first step every per-chunk accumulator is served from here, so
    /// steady-state stepping performs zero scratch allocations (tracked as
    /// `scratch_allocs` / `scratch_reuses` on the `md.force` telemetry).
    /// Cloning a `System` starts the clone with an empty pool.
    pub scratch: ScratchPool,
    /// Cell-sorted copy of the positions, re-sorted in place every step.
    cells: SortedCells,
}

/// Most chunks the force loop splits into, whatever the cell count: each
/// chunk carries a 3·N accumulator from `System::scratch` and adds an O(N)
/// pass to the ordered merge.
const FORCE_CHUNK_CAP: usize = 8;

impl System {
    /// Creates an empty system in `bounds` with force field `ff`.
    pub fn new(bounds: SimBox, ff: ForceField, dt: f64) -> Self {
        System {
            bounds,
            pos: [Vec::new(), Vec::new(), Vec::new()],
            vel: [Vec::new(), Vec::new(), Vec::new()],
            force: [Vec::new(), Vec::new(), Vec::new()],
            image: [Vec::new(), Vec::new(), Vec::new()],
            species: Vec::new(),
            masses: [1.0; NUM_SPECIES],
            bonds: Vec::new(),
            ff,
            dt,
            target_temp: 0.0,
            thermostat_coupling: 0.1,
            step_count: 0,
            exec: Exec::from_env(),
            telemetry: KernelTelemetry::new(),
            tracer: obs::TraceHandle::disabled(),
            scratch: ScratchPool::new(),
            cells: SortedCells::default(),
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.species.len()
    }

    /// True when the system has no particles.
    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Appends a particle; returns its index.
    pub fn add_particle(&mut self, species: Species, pos: [f64; 3], vel: [f64; 3]) -> usize {
        for d in 0..3 {
            self.pos[d].push(self.bounds.wrap(d, pos[d]));
            self.vel[d].push(vel[d]);
            self.force[d].push(0.0);
            self.image[d].push(0);
        }
        self.species.push(species.index() as u8);
        self.species.len() - 1
    }

    /// Position of particle `i`.
    #[inline]
    pub fn position(&self, i: usize) -> [f64; 3] {
        [self.pos[0][i], self.pos[1][i], self.pos[2][i]]
    }

    /// Velocity of particle `i`.
    #[inline]
    pub fn velocity(&self, i: usize) -> [f64; 3] {
        [self.vel[0][i], self.vel[1][i], self.vel[2][i]]
    }

    /// Unwrapped position (adds accumulated image shifts), for MSD.
    #[inline]
    pub fn unwrapped_position(&self, i: usize) -> [f64; 3] {
        [
            self.pos[0][i] + self.image[0][i] as f64 * self.bounds.lengths[0],
            self.pos[1][i] + self.image[1][i] as f64 * self.bounds.lengths[1],
            self.pos[2][i] + self.image[2][i] as f64 * self.bounds.lengths[2],
        ]
    }

    /// Mass of particle `i`.
    #[inline]
    pub fn mass(&self, i: usize) -> f64 {
        self.masses[self.species[i] as usize]
    }

    /// Indices of all particles of `species`.
    pub fn of_species(&self, species: Species) -> Vec<usize> {
        let s = species.index() as u8;
        (0..self.len()).filter(|&i| self.species[i] == s).collect()
    }

    /// Count of particles of `species`.
    pub fn species_count(&self, species: Species) -> usize {
        let s = species.index() as u8;
        self.species.iter().filter(|&&x| x == s).count()
    }

    /// Kinetic energy `Σ ½ m v²`.
    pub fn kinetic_energy(&self) -> f64 {
        (0..self.len())
            .map(|i| {
                let v = self.velocity(i);
                0.5 * self.mass(i) * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            })
            .sum()
    }

    /// Instantaneous temperature (k_B = 1 units): `2 KE / (3 N)`.
    pub fn temperature(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.kinetic_energy() / (3.0 * self.len() as f64)
        }
    }

    /// Recomputes forces (pairwise + bonds) into `self.force`; returns the
    /// potential energy.
    ///
    /// The LJ pair loop runs on `self.exec` over the cell-sorted particle
    /// copy: home-cell-range chunks accumulate into per-chunk force arrays
    /// in sorted order, merged in ascending chunk order and scattered back
    /// to particle order once, so the result is bitwise identical for any
    /// thread count.
    pub fn compute_forces(&mut self) -> f64 {
        for d in 0..3 {
            self.force[d].iter_mut().for_each(|f| *f = 0.0);
        }
        let n = self.len();
        let mut potential = 0.0;
        let ff = self.ff;
        let bounds = self.bounds;
        // pairwise LJ; an inert force field (ε = 0) skips the cell sort
        // entirely — bonds-only systems in huge boxes would otherwise
        // count millions of empty cells every step
        if ff.epsilon != 0.0 {
            let threads = self.exec.threads();
            let t0 = Instant::now();
            {
                let mut span = self.tracer.span("md.cell_rebuild");
                span.tag("threads", threads);
                self.cells
                    .rebuild(&self.bounds, &self.pos, ff.cutoff, &self.exec);
            }
            self.telemetry.record(
                "md.cell_rebuild",
                threads,
                parallel::chunk_count(n, 2048),
                t0.elapsed().as_secs_f64(),
                0.0,
            );
            let cells = &self.cells;
            let chunks = cells.pair_chunks().min(FORCE_CHUNK_CAP);
            let ncells = cells.num_cells();
            let pool = &self.scratch;
            let scratch0 = pool.counters();
            let mut force_span = self.tracer.span("md.force");
            force_span.tag("threads", threads);
            force_span.tag("chunks", chunks);
            let (parts, stats) = parallel::map_chunks(&self.exec, chunks, |c| {
                let mut cf = [
                    pool.take_zeroed(n),
                    pool.take_zeroed(n),
                    pool.take_zeroed(n),
                ];
                let mut cpot = 0.0f64;
                let [cfx, cfy, cfz] = &mut cf;
                let range = parallel::chunk_bounds(ncells, chunks, c);
                cells.for_each_pair_in(range, |i, j, dx, dy, dz, r2| {
                    let (fscale, e) = ff.lj_pair(r2);
                    cpot += e;
                    cfx[i] += fscale * dx;
                    cfy[i] += fscale * dy;
                    cfz[i] += fscale * dz;
                    cfx[j] -= fscale * dx;
                    cfy[j] -= fscale * dy;
                    cfz[j] -= fscale * dz;
                });
                (cf, cpot)
            });
            // ordered merge into chunk 0's arrays (still sorted order),
            // then one scatter back to particle order
            let m0 = Instant::now();
            let mut parts = parts.into_iter();
            let (mut total, pot0) = parts.next().expect("at least one chunk");
            potential += pot0;
            for (cf, cpot) in parts {
                potential += cpot;
                for (sum, part) in total.iter_mut().zip(cf) {
                    for (dst, src) in sum.iter_mut().zip(&part) {
                        *dst += src;
                    }
                    pool.put(part);
                }
            }
            for (force, sum) in self.force.iter_mut().zip(total) {
                for (&i, &f) in cells.order().iter().zip(&sum) {
                    force[i] = f;
                }
                pool.put(sum);
            }
            let merge = m0.elapsed();
            drop(force_span);
            self.telemetry.record(
                "md.force",
                stats.threads_used,
                stats.chunks,
                stats.wall_s() + merge.as_secs_f64(),
                merge.as_secs_f64(),
            );
            let ds = self.scratch.counters().since(&scratch0);
            self.telemetry.record_scratch("md.force", ds.allocs, ds.reuses);
        }
        // bonds
        let [fx, fy, fz] = &mut self.force;
        for b in &self.bonds {
            let pi = [self.pos[0][b.i], self.pos[1][b.i], self.pos[2][b.i]];
            let pj = [self.pos[0][b.j], self.pos[1][b.j], self.pos[2][b.j]];
            let d = bounds.displacement(pi, pj);
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt().max(1e-12);
            let fmag = -b.k * (r - b.r0) / r; // force per unit displacement
            potential += 0.5 * b.k * (r - b.r0) * (r - b.r0);
            fx[b.i] += fmag * d[0];
            fy[b.i] += fmag * d[1];
            fz[b.i] += fmag * d[2];
            fx[b.j] -= fmag * d[0];
            fy[b.j] -= fmag * d[1];
            fz[b.j] -= fmag * d[2];
        }
        potential
    }

    /// One velocity-Verlet step (with optional Berendsen velocity rescale).
    ///
    /// The integrator and thermostat loops run on `self.exec`,
    /// parallelized over the three dimensions: each dimension owns its
    /// coordinate arrays exclusively and the per-particle arithmetic is
    /// unchanged, so any thread count is bitwise identical to the serial
    /// loop. Recorded as the `md.integrate` kernel.
    pub fn step(&mut self) {
        let n = self.len();
        if self.step_count == 0 {
            self.compute_forces();
        }
        let dt = self.dt;
        let masses = self.masses;
        let lengths = self.bounds.lengths;
        let mut integrate_s = 0.0;
        let mut threads_used = 1;
        // half kick + drift
        {
            let species = &self.species;
            let [px, py, pz] = &mut self.pos;
            let [vx, vy, vz] = &mut self.vel;
            let [ix, iy, iz] = &mut self.image;
            let [fx, fy, fz] = &self.force;
            // (axis, positions, velocities, images, forces): one
            // dimension's exclusive view for the integrator
            type AxisView<'a> =
                (usize, &'a mut [f64], &'a mut [f64], &'a mut [i32], &'a [f64]);
            let mut dims: [AxisView<'_>; 3] = [
                (0, px, vx, ix, fx),
                (1, py, vy, iy, fy),
                (2, pz, vz, iz, fz),
            ];
            let stats =
                parallel::for_each_mut(&self.exec, &mut dims, |_, (d, pos, vel, image, force)| {
                    let l = lengths[*d];
                    for i in 0..n {
                        let inv_m = 1.0 / masses[species[i] as usize];
                        vel[i] += 0.5 * dt * force[i] * inv_m;
                        let mut x = pos[i] + dt * vel[i];
                        if x < 0.0 {
                            x += l;
                            image[i] -= 1;
                        } else if x >= l {
                            x -= l;
                            image[i] += 1;
                        }
                        // guard against large excursions (should not
                        // happen at sane dt)
                        pos[i] = x.rem_euclid(l);
                    }
                });
            integrate_s += stats.wall_s();
            threads_used = threads_used.max(stats.threads_used);
        }
        self.compute_forces();
        // second half kick
        {
            let species = &self.species;
            let [vx, vy, vz] = &mut self.vel;
            let [fx, fy, fz] = &self.force;
            let mut dims: [(&mut [f64], &[f64]); 3] = [(vx, fx), (vy, fy), (vz, fz)];
            let stats = parallel::for_each_mut(&self.exec, &mut dims, |_, (vel, force)| {
                for i in 0..n {
                    let inv_m = 1.0 / masses[species[i] as usize];
                    vel[i] += 0.5 * dt * force[i] * inv_m;
                }
            });
            integrate_s += stats.wall_s();
            threads_used = threads_used.max(stats.threads_used);
        }
        // Berendsen thermostat
        if self.target_temp > 0.0 {
            let t = self.temperature();
            if t > 1e-12 {
                let lambda =
                    (1.0 + self.thermostat_coupling * (self.target_temp / t - 1.0)).sqrt();
                let stats = parallel::for_each_mut(&self.exec, &mut self.vel, |_, v| {
                    v.iter_mut().for_each(|x| *x *= lambda);
                });
                integrate_s += stats.wall_s();
                threads_used = threads_used.max(stats.threads_used);
            }
        }
        self.telemetry
            .record("md.integrate", threads_used, 3, integrate_s, 0.0);
        self.step_count += 1;
    }
}

impl Simulator for System {
    type State = System;

    fn state(&self) -> &System {
        self
    }

    fn advance(&mut self) {
        self.step();
    }

    fn kernel_telemetry(&self) -> Option<&KernelTelemetry> {
        Some(&self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::ForceField;

    fn two_body() -> System {
        let mut s = System::new(SimBox::cubic(20.0), ForceField::default(), 0.001);
        s.add_particle(Species::Water, [9.0, 10.0, 10.0], [0.0; 3]);
        s.add_particle(Species::Water, [11.0, 10.0, 10.0], [0.0; 3]);
        s
    }

    #[test]
    fn min_image_wraps() {
        let b = SimBox::cubic(10.0);
        assert_eq!(b.min_image(0, 9.0), -1.0);
        assert_eq!(b.min_image(0, -9.0), 1.0);
        assert_eq!(b.min_image(0, 3.0), 3.0);
        assert!((b.dist2([0.5, 0.0, 0.0], [9.5, 0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_into_box() {
        let b = SimBox::cubic(10.0);
        assert!((b.wrap(0, -0.5) - 9.5).abs() < 1e-12);
        assert!((b.wrap(0, 10.5) - 0.5).abs() < 1e-12);
        assert_eq!(b.volume(), 1000.0);
    }

    #[test]
    fn newtons_third_law() {
        let mut s = two_body();
        s.compute_forces();
        for d in 0..3 {
            assert!(
                (s.force[d][0] + s.force[d][1]).abs() < 1e-9,
                "dim {d}: {} vs {}",
                s.force[d][0],
                s.force[d][1]
            );
        }
        // particles at r=2 sigma=1: attractive => f on particle 0 points +x
        assert!(s.force[0][0] > 0.0);
    }

    #[test]
    fn energy_roughly_conserved_nve() {
        let mut s = two_body();
        // give them a gentle approach velocity
        s.vel[0][0] = 0.2;
        s.vel[0][1] = -0.2;
        let e0 = s.compute_forces() + s.kinetic_energy();
        for _ in 0..500 {
            s.step();
        }
        let e1 = s.compute_forces() + s.kinetic_energy();
        assert!(
            (e1 - e0).abs() < 2e-3 * e0.abs().max(1.0),
            "energy drift {e0} -> {e1}"
        );
    }

    #[test]
    fn thermostat_drives_temperature() {
        let mut s = System::new(SimBox::cubic(12.0), ForceField::default(), 0.002);
        // small lattice with random-ish velocities
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let phase = (i * 16 + j * 4 + k) as f64;
                    s.add_particle(
                        Species::Water,
                        [1.5 * i as f64 + 0.75, 1.5 * j as f64 + 0.75, 1.5 * k as f64 + 0.75],
                        [0.1 * phase.sin(), 0.1 * phase.cos(), 0.05],
                    );
                }
            }
        }
        s.target_temp = 0.8;
        s.thermostat_coupling = 0.5;
        for _ in 0..300 {
            s.step();
        }
        let t = s.temperature();
        assert!((t - 0.8).abs() < 0.25, "temperature {t} not near 0.8");
    }

    #[test]
    fn unwrapped_positions_track_crossings() {
        let mut s = System::new(SimBox::cubic(5.0), ForceField::none(), 0.1);
        s.add_particle(Species::Ion, [4.9, 2.5, 2.5], [1.0, 0.0, 0.0]);
        for _ in 0..20 {
            s.step();
        }
        // travelled 2.0 in x from 4.9 => unwrapped 6.9
        let u = s.unwrapped_position(0);
        assert!((u[0] - 6.9).abs() < 1e-9, "unwrapped {}", u[0]);
        assert!(s.position(0)[0] < 5.0);
    }

    #[test]
    fn kernel_spans_emitted_when_traced() {
        let mut s = two_body();
        let tracer = std::sync::Arc::new(obs::Tracer::with_capacity(64));
        s.tracer = obs::TraceHandle::new(tracer.clone());
        s.step();
        let tl = tracer.timeline();
        assert!(tl.spans_named("md.cell_rebuild").count() >= 1);
        let force = tl.spans_named("md.force").next().expect("force span");
        assert!(force.tag_i64("threads").is_some());
        // the Simulator hook exposes the same accumulator the kernels
        // record into
        let t: &dyn Simulator<State = System> = &s;
        assert!(t.kernel_telemetry().unwrap().get("md.force").is_some());
    }

    #[test]
    fn force_scratch_pool_reaches_steady_state() {
        let mut s = two_body();
        s.step();
        let cold = s.telemetry.get("md.force").unwrap().scratch_allocs;
        assert!(cold > 0, "first step must populate the pool");
        s.step();
        s.step();
        let r = s.telemetry.get("md.force").unwrap();
        assert_eq!(
            r.scratch_allocs, cold,
            "steady-state steps must allocate nothing"
        );
        assert!(r.scratch_reuses > 0, "warm steps must reuse the pool");
    }

    #[test]
    fn integrator_is_bitwise_identical_across_thread_counts() {
        let build = |threads: usize| {
            let mut s = System::new(SimBox::cubic(12.0), ForceField::default(), 0.002);
            for i in 0..27 {
                let p = i as f64;
                s.add_particle(
                    Species::Water,
                    [
                        1.3 * (i % 3) as f64 + 0.7,
                        1.3 * ((i / 3) % 3) as f64 + 0.7,
                        1.3 * (i / 9) as f64 + 0.7,
                    ],
                    [0.1 * p.sin(), 0.1 * p.cos(), 0.05],
                );
            }
            s.target_temp = 0.8;
            s.exec = Exec::with_threads(threads);
            s
        };
        let mut serial = build(1);
        let mut par = build(4);
        for _ in 0..25 {
            serial.step();
            par.step();
        }
        for d in 0..3 {
            assert_eq!(serial.pos[d], par.pos[d], "pos dim {d} diverged");
            assert_eq!(serial.vel[d], par.vel[d], "vel dim {d} diverged");
            assert_eq!(serial.image[d], par.image[d], "image dim {d} diverged");
        }
        assert!(par.telemetry.get("md.integrate").unwrap().calls > 0);
    }

    #[test]
    fn sorted_arrays_are_reused_across_steps() {
        let mut s = crate::water_ions(&crate::BuilderParams {
            n_particles: 500,
            ..Default::default()
        });
        s.step();
        let before = s.cells.storage_ptrs();
        s.step();
        assert_eq!(
            s.cells.storage_ptrs(),
            before,
            "a same-size step reallocated"
        );
    }

    #[test]
    fn forces_match_all_pairs_min_image_reference() {
        let mut s = crate::water_ions(&crate::BuilderParams {
            n_particles: 1_000,
            ..Default::default()
        });
        for _ in 0..20 {
            s.step();
        }
        let potential = s.compute_forces();
        let n = s.len();
        let mut want = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let mut want_potential = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                let d = s.bounds.displacement(s.position(i), s.position(j));
                let (fscale, e) = s.ff.lj_pair(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
                want_potential += e;
                for (axis, d) in want.iter_mut().zip(d) {
                    axis[i] += fscale * d;
                    axis[j] -= fscale * d;
                }
            }
        }
        assert!(
            (potential - want_potential).abs() <= 1e-10 * want_potential.abs(),
            "potential {potential} vs {want_potential}"
        );
        for d in 0..3 {
            for i in 0..n {
                let norm = (want[0][i].powi(2) + want[1][i].powi(2) + want[2][i].powi(2)).sqrt();
                let (got, want) = (s.force[d][i], want[d][i]);
                assert!(
                    (got - want).abs() <= 1e-10 * norm,
                    "f[{d}][{i}] {got} vs {want}"
                );
            }
            let net: f64 = s.force[d].iter().sum();
            assert!(net.abs() < 1e-9, "net force along {d}: {net}");
        }
    }

    #[test]
    fn species_bookkeeping() {
        let mut s = two_body();
        s.add_particle(Species::Ion, [1.0, 1.0, 1.0], [0.0; 3]);
        assert_eq!(s.species_count(Species::Water), 2);
        assert_eq!(s.species_count(Species::Ion), 1);
        assert_eq!(s.of_species(Species::Ion), vec![2]);
        assert_eq!(Species::from_index(4), Species::Protein);
    }

    #[test]
    fn bonds_pull_particles_together() {
        let mut s = System::new(SimBox::cubic(20.0), ForceField::none(), 0.01);
        s.add_particle(Species::Protein, [8.0, 10.0, 10.0], [0.0; 3]);
        s.add_particle(Species::Protein, [12.0, 10.0, 10.0], [0.0; 3]);
        s.bonds.push(Bond { i: 0, j: 1, r0: 1.0, k: 10.0 });
        let d0 = s.bounds.dist2(s.position(0), s.position(1)).sqrt();
        for _ in 0..100 {
            s.step();
        }
        let d1 = s.bounds.dist2(s.position(0), s.position(1)).sqrt();
        assert!(d1 < d0, "bond must contract: {d0} -> {d1}");
    }
}
