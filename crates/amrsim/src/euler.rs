//! First-order HLL finite-volume solver for the 3-D compressible Euler
//! equations on the block-structured mesh.
//!
//! State is kept in primitive variables (ρ, u, v, w, p) in the block
//! storage; each step converts to conservative form, accumulates HLL face
//! fluxes along all three axes (unsplit), and converts back. First-order
//! accuracy suffices: the scheduler consumes analysis *cost shapes*, and
//! the Sedov shock physics (self-similar expansion) is captured.
//!
//! A step is one block sweep and one ghost exchange. The sweep
//! (`update_block`) computes what depends on one cell once per cell and
//! what depends on one face once per face; `docs/KERNELS.md` has the walk
//! and the rules that keep it bit-identical to the per-cell sweep it
//! replaced (kept below as a test-only oracle).

use crate::block::{split_fields, Block, FlowVar, GHOST};
use crate::mesh::Mesh;
use insitu_types::KernelTelemetry;
use parallel::{Exec, ScratchPool};
use std::time::Instant;

/// Ratio of specific heats (FLASH's default ideal gamma for Sedov).
pub const GAMMA: f64 = 1.4;

/// Floor applied to density and pressure to keep the state physical.
pub const FLOOR: f64 = 1e-10;

/// Conservative state vector.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cons {
    rho: f64,
    mx: f64,
    my: f64,
    mz: f64,
    e: f64,
}

/// Primitive state vector.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Prim {
    rho: f64,
    u: f64,
    v: f64,
    w: f64,
    p: f64,
}

impl Prim {
    fn to_cons(self) -> Cons {
        let ke = 0.5 * self.rho * (self.u * self.u + self.v * self.v + self.w * self.w);
        Cons {
            rho: self.rho,
            mx: self.rho * self.u,
            my: self.rho * self.v,
            mz: self.rho * self.w,
            e: self.p / (GAMMA - 1.0) + ke,
        }
    }

    fn sound_speed(self) -> f64 {
        (GAMMA * self.p / self.rho).sqrt()
    }
}

impl Cons {
    fn to_prim(self) -> Prim {
        let rho = self.rho.max(FLOOR);
        let u = self.mx / rho;
        let v = self.my / rho;
        let w = self.mz / rho;
        let ke = 0.5 * rho * (u * u + v * v + w * w);
        let p = ((self.e - ke) * (GAMMA - 1.0)).max(FLOOR);
        Prim { rho, u, v, w, p }
    }
}

fn prim_at(block: &crate::block::Block, gi: usize, gj: usize, gk: usize) -> Prim {
    Prim {
        rho: block.at(FlowVar::Dens, gi, gj, gk).max(FLOOR),
        u: block.at(FlowVar::Velx, gi, gj, gk),
        v: block.at(FlowVar::Vely, gi, gj, gk),
        w: block.at(FlowVar::Velz, gi, gj, gk),
        p: block.at(FlowVar::Pres, gi, gj, gk).max(FLOOR),
    }
}

/// Largest stable time step at CFL number `cfl`, on `exec`: per-block
/// maximum rates are reduced in block order (`max` is order-independent,
/// so this is exact for any thread count and chunking).
pub fn cfl_dt(mesh: &Mesh, cfl: f64, exec: &Exec) -> f64 {
    let d = mesh.dx();
    let nblocks = mesh.blocks.len();
    let chunks = parallel::chunk_count(nblocks, 1);
    let max_rate = parallel::reduce_chunks(
        exec,
        chunks,
        |c| {
            let mut rate_max = 0.0f64;
            for bi in parallel::chunk_bounds(nblocks, chunks, c) {
                let b = &mesh.blocks[bi];
                for k in 0..b.n {
                    for j in 0..b.n {
                        for i in 0..b.n {
                            let q = prim_at(b, i + GHOST, j + GHOST, k + GHOST);
                            let c = q.sound_speed();
                            let rate = (q.u.abs() + c) / d[0]
                                + (q.v.abs() + c) / d[1]
                                + (q.w.abs() + c) / d[2];
                            rate_max = rate_max.max(rate);
                        }
                    }
                }
            }
            rate_max
        },
        0.0f64,
        f64::max,
    );
    if max_rate > 0.0 {
        cfl / max_rate
    } else {
        f64::INFINITY
    }
}

/// Advances the mesh by `dt` with one unsplit first-order HLL step on
/// `exec`, recording `hydro.step` and `hydro.ghosts` in `telemetry`.
///
/// Ghost layers must be current on entry ([`Mesh::ghosts_current`]) and are
/// current again on return: the sweep reads them, then the one exchange of
/// the step refreshes them from the updated interiors. A caller that wrote
/// interior cells itself calls [`Mesh::exchange_ghosts`] before stepping;
/// a stale mesh fails a `debug_assert!` here.
///
/// Blocks read only their own cells + ghost layers and write only their
/// own cells, so the block sweep is embarrassingly parallel and trivially
/// deterministic: the blocks are dealt out in contiguous runs of
/// `⌈blocks / threads⌉`, each with one scratch buffer taken from `pool`
/// before the fork (no result crosses a block, so unlike a reduction the
/// split may follow the thread count). The ghost exchange after it is the
/// two-phase parallel gather/scatter of [`Mesh::exchange_ghosts`]. After
/// the first step a steady-state step allocates nothing from `pool`.
pub fn step(
    mesh: &mut Mesh,
    dt: f64,
    exec: &Exec,
    telemetry: &mut KernelTelemetry,
    pool: &ScratchPool,
) {
    debug_assert!(
        mesh.ghosts_current(),
        "step on stale ghosts: whoever writes interior cells calls Mesh::exchange_ghosts"
    );
    let n = mesh.block_cells;
    let inv_d = mesh.dx().map(|spacing| 1.0 / spacing);
    let allocs0 = pool.allocs();
    // one contiguous run of blocks per worker, its scratch taken up front:
    // nothing inside the fork touches the pool
    let share = mesh.blocks.len().div_ceil(exec.threads()).max(1);
    let mut shares: Vec<_> = mesh
        .blocks
        .chunks_mut(share)
        .map(|share| (pool.take(SweepScratch::len(n)), share))
        .collect();
    let t0 = Instant::now();
    parallel::for_each_mut(exec, &mut shares, |_, (scratch, share)| {
        for b in share.iter_mut() {
            update_block(b, inv_d, dt, scratch);
        }
    });
    let sweep_s = t0.elapsed().as_secs_f64();
    for (scratch, _) in shares {
        pool.put(scratch);
    }
    let allocs1 = pool.allocs();
    let t1 = Instant::now();
    mesh.exchange_ghosts(exec, pool);
    let ghosts_s = t1.elapsed().as_secs_f64();
    for (kernel, wall_s, allocs) in [
        ("hydro.step", sweep_s, allocs1 - allocs0),
        ("hydro.ghosts", ghosts_s, pool.allocs() - allocs1),
    ] {
        telemetry.record(kernel, wall_s, 0.0);
        telemetry.record_scratch(kernel, allocs);
    }
}

/// Per-worker scratch of the block sweep, carved out of one pooled buffer.
/// 7·14³ + 5·12³ + 10·13 doubles ≈ 224 KB at the benchmark's n = 12.
struct SweepScratch<'a> {
    /// Per-cell state over the block's whole `(n+2)³` box, indexed as
    /// [`Block::var`]: floored density and pressure, sound speed, and the
    /// conservative momenta and energy (the conservative density *is* the
    /// floored density; the velocities are read from the block itself).
    state: [&'a mut [f64]; 7],
    /// The update, `du[component][(k·n + j)·n + i]` over the interior,
    /// components in [`Cons`] order.
    du: [&'a mut [f64]; 5],
    /// Two component-major rows of up to `n + 1` face fluxes.
    flux: [&'a mut [f64]; 2],
}

impl<'a> SweepScratch<'a> {
    fn lens(n: usize) -> [usize; 3] {
        [7 * (n + 2 * GHOST).pow(3), 5 * n.pow(3), 2 * 5 * (n + 1)]
    }

    fn len(n: usize) -> usize {
        Self::lens(n).iter().sum()
    }

    fn carve(buf: &'a mut [f64], n: usize) -> Self {
        let [state, du, flux] = Self::lens(n);
        let (state, rest) = buf.split_at_mut(state);
        let (du, rest) = rest.split_at_mut(du);
        SweepScratch {
            state: split_fields(state),
            du: split_fields(du),
            flux: split_fields(&mut rest[..flux]),
        }
    }
}

/// What the flux kernel reads of one run of cells: the velocity normal to
/// the faces being evaluated, and the precomputed per-cell state.
#[derive(Clone, Copy)]
struct CellRun<'a> {
    vn: &'a [f64],
    rho: &'a [f64],
    p: &'a [f64],
    c: &'a [f64],
    mx: &'a [f64],
    my: &'a [f64],
    mz: &'a [f64],
    e: &'a [f64],
}

impl<'a> CellRun<'a> {
    #[inline(always)]
    fn slice(self, start: usize, len: usize) -> Self {
        let cut = |field: &'a [f64]| &field[start..start + len];
        CellRun {
            vn: cut(self.vn),
            rho: cut(self.rho),
            p: cut(self.p),
            c: cut(self.c),
            mx: cut(self.mx),
            my: cut(self.my),
            mz: cut(self.mz),
            e: cut(self.e),
        }
    }

    /// Physical flux of cell `i` along `AXIS`, as `reference::flux`.
    #[inline(always)]
    fn flux<const AXIS: usize>(&self, i: usize) -> [f64; 5] {
        let (vel, p) = (self.vn[i], self.p[i]);
        let mut f = [
            self.rho[i] * vel,
            self.mx[i] * vel,
            self.my[i] * vel,
            self.mz[i] * vel,
            (self.e[i] + p) * vel,
        ];
        f[1 + AXIS] += p;
        f
    }
}

/// HLL fluxes of `out.len() / 5` faces normal to `AXIS`: face `i` lies
/// between `left` cell `i` and `right` cell `i`. `out` is component-major.
/// Every expression is `reference::hll`'s on the precomputed state, so the
/// result is the same bits; only `sl·sr` is hoisted (it was already one
/// product there, `sl * sr * (..)` being left-associative).
fn hll_faces<const AXIS: usize>(left: CellRun, right: CellRun, out: &mut [f64]) {
    let m = out.len() / 5;
    // every slice cut to `m`, so the loop carries no bounds check
    let (left, right) = (left.slice(0, m), right.slice(0, m));
    let (ql, qr) = (
        [left.rho, left.mx, left.my, left.mz, left.e],
        [right.rho, right.mx, right.my, right.mz, right.e],
    );
    let out: [&mut [f64]; 5] = split_fields(out);
    for i in 0..m {
        let (ul, ur) = (left.vn[i], right.vn[i]);
        let (cl, cr) = (left.c[i], right.c[i]);
        let sl = (ul - cl).min(ur - cr);
        let sr = (ul + cl).max(ur + cr);
        let f = if sl >= 0.0 {
            left.flux::<AXIS>(i)
        } else if sr <= 0.0 {
            right.flux::<AXIS>(i)
        } else {
            let (fl, fr) = (left.flux::<AXIS>(i), right.flux::<AXIS>(i));
            let inv = 1.0 / (sr - sl);
            let slsr = sl * sr;
            std::array::from_fn(|q| (sr * fl[q] - sl * fr[q] + slsr * (qr[q][i] - ql[q][i])) * inv)
        };
        for q in 0..5 {
            out[q][i] = f[q];
        }
    }
}

/// `du[q][first..][..n] -= (hi[q] − lo[q]) · inv_d` for the five components
/// of one row of `n` cells, `hi` and `lo` being the component-major flux
/// rows of its upper and lower faces.
fn subtract_difference(du: &mut [&mut [f64]; 5], first: usize, hi: &[f64], lo: &[f64], inv_d: f64) {
    let n = hi.len() / 5;
    for (q, du) in du.iter_mut().enumerate() {
        let (hi, lo) = (&hi[q * n..][..n], &lo[q * n..][..n]);
        for (i, du) in du[first..][..n].iter_mut().enumerate() {
            *du -= (hi[i] - lo[i]) * inv_d;
        }
    }
}

/// One HLL update of a single block's interior cells, every face flux
/// evaluated once. `scratch` is pooled, at least [`SweepScratch::len`]
/// doubles; every slot is overwritten before it is read.
///
/// Bit for bit the per-cell sweep kept as `reference::update_block`: `hll`
/// is a pure function of its two cells, so the flux a cell used as its
/// `f_plus` is the one its neighbour used as `f_minus`; each cell's update
/// still starts from `0.0` and subtracts the x, then y, then z difference
/// times `1/dx`; and the conservatives the update is applied to are the
/// ones the fluxes read. Nothing is re-associated or fused.
fn update_block(b: &mut Block, inv_d: [f64; 3], dt: f64, scratch: &mut [f64]) {
    let (n, w) = (b.n, b.width());
    let cell = |gi: usize, gj: usize, gk: usize| (gk * w + gj) * w + gi;
    let SweepScratch {
        state,
        mut du,
        flux: [flux_a, flux_b],
    } = SweepScratch::carve(scratch, n);

    // (i) per-cell state, once, over the whole box (edge and corner ghosts
    // hold nothing anyone reads; computing them keeps the loop contiguous)
    let [dens, velx, vely, velz, pres] = [
        FlowVar::Dens,
        FlowVar::Velx,
        FlowVar::Vely,
        FlowVar::Velz,
        FlowVar::Pres,
    ]
    .map(|var| b.var(var));
    let [rho, p, c, mx, my, mz, e] = state;
    for i in 0..dens.len() {
        let q = Prim {
            rho: dens[i].max(FLOOR),
            u: velx[i],
            v: vely[i],
            w: velz[i],
            p: pres[i].max(FLOOR),
        };
        let cons = q.to_cons();
        (rho[i], p[i], c[i]) = (q.rho, q.p, q.sound_speed());
        (mx[i], my[i], mz[i], e[i]) = (cons.mx, cons.my, cons.mz, cons.e);
    }
    let [rho, p, c, mx, my, mz, e] = [rho, p, c, mx, my, mz, e].map(|f| &*f);

    // (ii) fluxes and du, axis by axis
    let run = |axis: usize| CellRun {
        vn: [velx, vely, velz][axis],
        rho,
        p,
        c,
        mx,
        my,
        mz,
        e,
    };
    // x: the n + 1 faces of a pencil in one call; du starts here, as 0 − Δ
    let faces = &mut flux_a[..5 * (n + 1)];
    for k in 0..n {
        for j in 0..n {
            let first = cell(0, j + GHOST, k + GHOST);
            hll_faces::<0>(
                run(0).slice(first, n + 1),
                run(0).slice(first + 1, n + 1),
                faces,
            );
            for (q, du) in du.iter_mut().enumerate() {
                let f = &faces[q * (n + 1)..][..n + 1];
                for (i, du) in du[(k * n + j) * n..][..n].iter_mut().enumerate() {
                    *du = 0.0 - (f[i + 1] - f[i]) * inv_d[0];
                }
            }
        }
    }
    // y, then z: walk the n + 1 face rows across a column of x-rows, the
    // previous face row carried in the other flux buffer
    let (mut prev, mut cur) = (&mut flux_a[..5 * n], &mut flux_b[..5 * n]);
    for k in 0..n {
        for face in 0..=n {
            hll_faces::<1>(
                run(1).slice(cell(GHOST, face, k + GHOST), n),
                run(1).slice(cell(GHOST, face + 1, k + GHOST), n),
                cur,
            );
            if face > 0 {
                subtract_difference(&mut du, (k * n + face - 1) * n, cur, prev, inv_d[1]);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
    }
    for j in 0..n {
        for face in 0..=n {
            hll_faces::<2>(
                run(2).slice(cell(GHOST, j + GHOST, face), n),
                run(2).slice(cell(GHOST, j + GHOST, face + 1), n),
                cur,
            );
            if face > 0 {
                subtract_difference(&mut du, ((face - 1) * n + j) * n, cur, prev, inv_d[2]);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
    }

    // (iii) apply dt·du to the precomputed conservatives, back to primitives;
    // row by row on equal-length slices, so the compiler can pair up the
    // five divisions a cell
    let mut vars = b.vars_mut();
    for k in 0..n {
        for j in 0..n {
            let (first, first_du) = (cell(GHOST, j + GHOST, k + GHOST), (k * n + j) * n);
            let [rho, mx, my, mz, e] = [rho, mx, my, mz, e].map(|f| &f[first..][..n]);
            let [du_rho, du_mx, du_my, du_mz, du_e] = du.each_ref().map(|f| &f[first_du..][..n]);
            let [dens, velx, vely, velz, pres, ener, eint, temp, gamc, _] =
                vars.each_mut().map(|f| &mut f[first..][..n]);
            for i in 0..n {
                let q = Cons {
                    rho: rho[i] + dt * du_rho[i],
                    mx: mx[i] + dt * du_mx[i],
                    my: my[i] + dt * du_my[i],
                    mz: mz[i] + dt * du_mz[i],
                    e: e[i] + dt * du_e[i],
                }
                .to_prim();
                let ke = 0.5 * (q.u * q.u + q.v * q.v + q.w * q.w);
                let ei = q.p / ((GAMMA - 1.0) * q.rho);
                (dens[i], velx[i], vely[i], velz[i], pres[i]) = (q.rho, q.u, q.v, q.w, q.p);
                (ener[i], eint[i], temp[i], gamc[i]) = (ei + ke, ei, q.p / q.rho, GAMMA);
            }
        }
    }
}

/// The per-cell sweep this module shipped until the face-once walk replaced
/// it, kept verbatim as the oracle of `tests::matches_reference_sweep_*`:
/// every cell evaluates both of its faces along each axis from primitives.
#[cfg(test)]
mod reference {
    use super::*;

    /// Physical flux of the Euler equations along `axis` (0/1/2).
    fn flux(q: Prim, axis: usize) -> Cons {
        let vel = [q.u, q.v, q.w][axis];
        let c = q.to_cons();
        let mut f = Cons {
            rho: c.rho * vel,
            mx: c.mx * vel,
            my: c.my * vel,
            mz: c.mz * vel,
            e: (c.e + q.p) * vel,
        };
        match axis {
            0 => f.mx += q.p,
            1 => f.my += q.p,
            _ => f.mz += q.p,
        }
        f
    }

    /// HLL approximate Riemann flux between left and right states along `axis`.
    fn hll(left: Prim, right: Prim, axis: usize) -> Cons {
        let ul = [left.u, left.v, left.w][axis];
        let ur = [right.u, right.v, right.w][axis];
        let cl = left.sound_speed();
        let cr = right.sound_speed();
        let sl = (ul - cl).min(ur - cr);
        let sr = (ul + cl).max(ur + cr);
        if sl >= 0.0 {
            return flux(left, axis);
        }
        if sr <= 0.0 {
            return flux(right, axis);
        }
        let fl = flux(left, axis);
        let fr = flux(right, axis);
        let qcl = left.to_cons();
        let qcr = right.to_cons();
        let inv = 1.0 / (sr - sl);
        Cons {
            rho: (sr * fl.rho - sl * fr.rho + sl * sr * (qcr.rho - qcl.rho)) * inv,
            mx: (sr * fl.mx - sl * fr.mx + sl * sr * (qcr.mx - qcl.mx)) * inv,
            my: (sr * fl.my - sl * fr.my + sl * sr * (qcr.my - qcl.my)) * inv,
            mz: (sr * fl.mz - sl * fr.mz + sl * sr * (qcr.mz - qcl.mz)) * inv,
            e: (sr * fl.e - sl * fr.e + sl * sr * (qcr.e - qcl.e)) * inv,
        }
    }

    /// One HLL update of a single block's interior cells. `delta` is pooled
    /// scratch of at least `5·n³` floats (one conservative update per cell);
    /// every slot is overwritten before it is read.
    pub(super) fn update_block(b: &mut Block, n: usize, d: [f64; 3], dt: f64, delta: &mut [f64]) {
        {
            // snapshot conservative update per interior cell
            let mut idx = 0;
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let (gi, gj, gk) = (i + GHOST, j + GHOST, k + GHOST);
                        let centre = prim_at(b, gi, gj, gk);
                        let mut du = Cons {
                            rho: 0.0,
                            mx: 0.0,
                            my: 0.0,
                            mz: 0.0,
                            e: 0.0,
                        };
                        for (axis, &spacing) in d.iter().enumerate() {
                            let (li, lj, lk, ri, rj, rk) = match axis {
                                0 => (gi - 1, gj, gk, gi + 1, gj, gk),
                                1 => (gi, gj - 1, gk, gi, gj + 1, gk),
                                _ => (gi, gj, gk - 1, gi, gj, gk + 1),
                            };
                            let left = prim_at(b, li, lj, lk);
                            let right = prim_at(b, ri, rj, rk);
                            let f_minus = hll(left, centre, axis);
                            let f_plus = hll(centre, right, axis);
                            let inv_dx = 1.0 / spacing;
                            du.rho -= (f_plus.rho - f_minus.rho) * inv_dx;
                            du.mx -= (f_plus.mx - f_minus.mx) * inv_dx;
                            du.my -= (f_plus.my - f_minus.my) * inv_dx;
                            du.mz -= (f_plus.mz - f_minus.mz) * inv_dx;
                            du.e -= (f_plus.e - f_minus.e) * inv_dx;
                        }
                        delta[idx] = du.rho;
                        delta[idx + 1] = du.mx;
                        delta[idx + 2] = du.my;
                        delta[idx + 3] = du.mz;
                        delta[idx + 4] = du.e;
                        idx += 5;
                    }
                }
            }
            // apply updates
            let mut idx = 0;
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let (gi, gj, gk) = (i + GHOST, j + GHOST, k + GHOST);
                        let q = prim_at(b, gi, gj, gk);
                        let mut c = q.to_cons();
                        c.rho += dt * delta[idx];
                        c.mx += dt * delta[idx + 1];
                        c.my += dt * delta[idx + 2];
                        c.mz += dt * delta[idx + 3];
                        c.e += dt * delta[idx + 4];
                        idx += 5;
                        let p = c.to_prim();
                        *b.at_mut(FlowVar::Dens, gi, gj, gk) = p.rho;
                        *b.at_mut(FlowVar::Velx, gi, gj, gk) = p.u;
                        *b.at_mut(FlowVar::Vely, gi, gj, gk) = p.v;
                        *b.at_mut(FlowVar::Velz, gi, gj, gk) = p.w;
                        *b.at_mut(FlowVar::Pres, gi, gj, gk) = p.p;
                        let ke = 0.5 * (p.u * p.u + p.v * p.v + p.w * p.w);
                        let eint = p.p / ((GAMMA - 1.0) * p.rho);
                        *b.at_mut(FlowVar::Ener, gi, gj, gk) = eint + ke;
                        *b.at_mut(FlowVar::Eint, gi, gj, gk) = eint;
                        *b.at_mut(FlowVar::Temp, gi, gj, gk) = p.p / p.rho;
                        *b.at_mut(FlowVar::Gamc, gi, gj, gk) = GAMMA;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::FlowVar;

    /// One serial step with throwaway telemetry and scratch.
    fn serial_step(m: &mut Mesh, dt: f64) {
        step(m, dt, &Exec::serial(), &mut KernelTelemetry::new(), &ScratchPool::new());
    }

    /// A serial ghost exchange with throwaway scratch.
    fn exchange(m: &mut Mesh) {
        m.exchange_ghosts(&Exec::serial(), &ScratchPool::new());
    }

    fn uniform_mesh(rho: f64, p: f64) -> Mesh {
        let mut m = Mesh::new([2, 1, 1], 8, [2.0, 1.0, 1.0]);
        for b in &mut m.blocks {
            b.fill(FlowVar::Dens, rho);
            b.fill(FlowVar::Pres, p);
            b.fill(FlowVar::Velx, 0.0);
            b.fill(FlowVar::Vely, 0.0);
            b.fill(FlowVar::Velz, 0.0);
        }
        m
    }

    #[test]
    fn uniform_state_is_stationary() {
        let mut m = uniform_mesh(1.0, 1.0);
        let dt = cfl_dt(&m, 0.4, &Exec::serial());
        for _ in 0..5 {
            serial_step(&mut m, dt);
        }
        m.for_each_cell(|b, i, j, k, _| {
            assert!((m.blocks[b].cell(FlowVar::Dens, i, j, k) - 1.0).abs() < 1e-12);
            assert!(m.blocks[b].cell(FlowVar::Velx, i, j, k).abs() < 1e-12);
        });
    }

    #[test]
    fn cfl_dt_scales_with_sound_speed() {
        let slow = uniform_mesh(1.0, 0.1);
        let fast = uniform_mesh(1.0, 10.0);
        assert!(cfl_dt(&slow, 0.4, &Exec::serial()) > cfl_dt(&fast, 0.4, &Exec::serial()));
    }

    #[test]
    fn sod_like_shock_moves_right() {
        // left half high pressure, right half low: a shock should move into
        // the low-pressure side and the interface density should smear
        let mut m = Mesh::new([2, 1, 1], 8, [2.0, 1.0, 1.0]);
        m.for_each_cell(|_, _, _, _, _| {});
        for bi in 0..m.blocks.len() {
            for k in 0..8 {
                for j in 0..8 {
                    for i in 0..8 {
                        let x = m.cell_center(bi, i, j, k)[0];
                        let (rho, p) = if x < 1.0 { (1.0, 1.0) } else { (0.125, 0.1) };
                        let b = &mut m.blocks[bi];
                        *b.cell_mut(FlowVar::Dens, i, j, k) = rho;
                        *b.cell_mut(FlowVar::Pres, i, j, k) = p;
                    }
                }
            }
        }
        exchange(&mut m);
        let mass0 = m.integral(FlowVar::Dens);
        let mut t = 0.0;
        while t < 0.2 {
            let dt = cfl_dt(&m, 0.4, &Exec::serial()).min(0.2 - t);
            serial_step(&mut m, dt);
            t += dt;
        }
        // mass conserved (nothing reached the outflow boundary yet)
        let mass1 = m.integral(FlowVar::Dens);
        assert!((mass1 - mass0).abs() / mass0 < 1e-6, "mass {mass0} -> {mass1}");
        // fluid moves right at the old interface
        let mut u_mid = 0.0;
        let mut rho_right_edge = 0.0;
        for bi in 0..m.blocks.len() {
            for i in 0..8 {
                let x = m.cell_center(bi, i, 4, 4)[0];
                if (x - 1.05).abs() < 0.07 {
                    u_mid = m.blocks[bi].cell(FlowVar::Velx, i, 4, 4);
                }
                if (x - 1.95).abs() < 0.07 {
                    rho_right_edge = m.blocks[bi].cell(FlowVar::Dens, i, 4, 4);
                }
            }
        }
        assert!(u_mid > 0.1, "post-shock velocity {u_mid} must point right");
        assert!((rho_right_edge - 0.125).abs() < 1e-3, "far field undisturbed");
        // positivity everywhere
        m.for_each_cell(|b, i, j, k, _| {
            assert!(m.blocks[b].cell(FlowVar::Dens, i, j, k) > 0.0);
            assert!(m.blocks[b].cell(FlowVar::Pres, i, j, k) > 0.0);
        });
    }

    #[test]
    fn momentum_conserved_in_closed_pulse() {
        // symmetric pressure pulse: net momentum must stay ~0
        let mut m = Mesh::new([1, 1, 1], 16, [1.0, 1.0, 1.0]);
        for k in 0..16 {
            for j in 0..16 {
                for i in 0..16 {
                    let c = m.cell_center(0, i, j, k);
                    let r2 = (c[0] - 0.5).powi(2) + (c[1] - 0.5).powi(2) + (c[2] - 0.5).powi(2);
                    let b = &mut m.blocks[0];
                    *b.cell_mut(FlowVar::Dens, i, j, k) = 1.0;
                    *b.cell_mut(FlowVar::Pres, i, j, k) = if r2 < 0.01 { 10.0 } else { 0.1 };
                }
            }
        }
        exchange(&mut m);
        for _ in 0..10 {
            let dt = cfl_dt(&m, 0.4, &Exec::serial());
            serial_step(&mut m, dt);
        }
        let mut px = 0.0;
        m.for_each_cell(|b, i, j, k, _| {
            px += m.blocks[b].cell(FlowVar::Dens, i, j, k) * m.blocks[b].cell(FlowVar::Velx, i, j, k);
        });
        assert!(px.abs() < 1e-9, "net x momentum {px}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale ghosts")]
    fn stepping_a_stale_mesh_panics() {
        let mut m = uniform_mesh(1.0, 1.0);
        assert!(m.ghosts_current());
        // an interior write next to the block face, and no exchange after it
        *m.blocks[0].cell_mut(FlowVar::Pres, 7, 3, 3) = 2.0;
        assert!(!m.ghosts_current());
        serial_step(&mut m, 1e-3);
    }

    /// SplitMix64, mapped to `[0, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A mesh nothing like Sedov: every cell draws its own density and
    /// pressure, a subsonic velocity, and then with probability 1/2 a Mach
    /// 3–6 stream up or down one axis (neighbours streaming the same way
    /// make both one-sided returns of `hll` fire) and with probability 1/12
    /// a near vacuum below both `FLOOR` clamps.
    fn scrambled_mesh(block_dims: [usize; 3], n: usize, domain: [f64; 3], seed: u64) -> Mesh {
        let mut rng = seed;
        let mut m = Mesh::new(block_dims, n, domain);
        for b in &mut m.blocks {
            for (k, j, i) in
                (0..n).flat_map(|k| (0..n).flat_map(move |j| (0..n).map(move |i| (k, j, i))))
            {
                let mut draw = || uniform(&mut rng);
                let (mut rho, mut p) = (0.2 + 2.0 * draw(), 0.2 + 2.0 * draw());
                let mut vel = [draw() - 0.5, draw() - 0.5, draw() - 0.5];
                let regime = (draw() * 12.0) as usize;
                if regime < 6 {
                    let mach = [3.0, -3.0][regime % 2] * (1.0 + draw());
                    vel[regime / 2] = mach * (GAMMA * p / rho).sqrt();
                } else if regime == 6 {
                    (rho, p) = (FLOOR * draw(), FLOOR * draw());
                }
                *b.cell_mut(FlowVar::Dens, i, j, k) = rho;
                *b.cell_mut(FlowVar::Velx, i, j, k) = vel[0];
                *b.cell_mut(FlowVar::Vely, i, j, k) = vel[1];
                *b.cell_mut(FlowVar::Velz, i, j, k) = vel[2];
                *b.cell_mut(FlowVar::Pres, i, j, k) = p;
            }
        }
        exchange(&mut m);
        m
    }

    /// The step as it was before the face-once walk: exchange, the per-cell
    /// sweep of `reference`, exchange.
    fn reference_step(m: &mut Mesh, dt: f64) {
        exchange(m);
        let (n, d) = (m.block_cells, m.dx());
        let mut delta = vec![0.0; 5 * n * n * n];
        for b in &mut m.blocks {
            reference::update_block(b, n, d, dt, &mut delta);
        }
        exchange(m);
    }

    /// Faces along `axis` inside block 0 whose two cells both outrun their
    /// own sound speed in the `sign` direction: `hll` returns the upwind
    /// physical flux there.
    fn one_sided_faces(m: &Mesh, axis: usize, sign: f64) -> usize {
        let (b, n) = (&m.blocks[0], m.block_cells);
        let outruns = |i: usize, j: usize, k: usize| {
            let q = prim_at(b, i + GHOST, j + GHOST, k + GHOST);
            sign * [q.u, q.v, q.w][axis] - q.sound_speed() >= 0.0
        };
        let mut count = 0;
        m.for_each_cell(|bi, i, j, k, _| {
            let mut next = [i, j, k];
            next[axis] += 1;
            if bi == 0 && next[axis] < n && outruns(i, j, k) && outruns(next[0], next[1], next[2]) {
                count += 1;
            }
        });
        count
    }

    /// Whole fields of all ten variables: interior, face ghosts, and the
    /// corners nothing touches.
    fn assert_bitwise_eq(a: &mut Mesh, b: &mut Mesh, what: &str) {
        for (bi, (ba, bb)) in a.blocks.iter_mut().zip(&mut b.blocks).enumerate() {
            for (var, (fa, fb)) in ba.vars_mut().into_iter().zip(bb.vars_mut()).enumerate() {
                for (at, (x, y)) in fa.iter().zip(fb.iter()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "{what}: block {bi} variable {var} [{at}]: {x:e} vs {y:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_reference_sweep_bit_for_bit() {
        // single and multi-block (outflow and interior faces on every axis),
        // cubic and anisotropic cells, block edges down to one cell
        let cases: [([usize; 3], [f64; 3]); 3] = [
            ([1, 1, 1], [1.0, 1.0, 1.0]),
            ([2, 1, 1], [2.0, 1.0, 1.0]),
            ([3, 2, 2], [2.0, 1.0, 1.0]),
        ];
        let pool = ScratchPool::new();
        for (case, (block_dims, domain)) in cases.into_iter().enumerate() {
            for n in [1, 2, 4, 12] {
                let what = format!("{block_dims:?} blocks of {n}³ over {domain:?}");
                let mut new = scrambled_mesh(block_dims, n, domain, 1000 * case as u64 + n as u64);
                let mut old = new.clone();
                if n == 12 {
                    // (a dozen such faces expected per axis and direction)
                    for axis in 0..3 {
                        assert!(
                            one_sided_faces(&new, axis, 1.0) > 0,
                            "{what}: axis {axis} +"
                        );
                        assert!(
                            one_sided_faces(&new, axis, -1.0) > 0,
                            "{what}: axis {axis} -"
                        );
                    }
                }
                for steps in 1..=10 {
                    let dt = cfl_dt(&new, 0.4, &Exec::serial());
                    assert!(dt.is_finite() && dt > 0.0, "{what}: dt {dt}");
                    // two workers: blocks split 1/1, 6/6 — or one share
                    step(
                        &mut new,
                        dt,
                        &Exec::with_threads(2),
                        &mut KernelTelemetry::new(),
                        &pool,
                    );
                    reference_step(&mut old, dt);
                    if steps == 1 || steps == 10 {
                        assert_bitwise_eq(&mut new, &mut old, &format!("{what}, step {steps}"));
                    }
                }
                // the comparison was of numbers, not of NaN against NaN
                new.for_each_cell(|b, i, j, k, _| {
                    let q = prim_at(&new.blocks[b], i + GHOST, j + GHOST, k + GHOST);
                    assert!(
                        q.rho.is_finite() && q.p.is_finite() && q.u.is_finite(),
                        "{what}"
                    );
                });
            }
        }
    }
}
