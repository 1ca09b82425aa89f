//! Criterion bench: the LU kernels of the revised simplex on two real
//! bases — one factorization, one FTRAN of a structural column, one BTRAN
//! of a unit vector and the dual simplex's pair of them (`btran2`: the
//! basic costs and `eᵣ` in one pass), each on the final root basis, and
//! the pivot row `ρᵀA` read row-wise for the basis row with the densest `ρ`
//! (`pivot_row`) — the cold
//! root LP that reaches that basis (`cold_root_lp`, with its pivot and
//! refactorization counts printed once), the lowering of the model to
//! standard form (`lower`) and presolve of a copy of the model, as
//! `milp::solve` runs it (`presolve`, the copy included), of
//!
//! * `Exact/160x4`, the largest LP of the repo benchmark's `solve-scale`
//!   workload (m = 1 625, mostly slack and singleton columns), and
//! * a 240-step service-family aggregate instance (m = 23, the size
//!   `svc-fresh` lives at), to show the small case does not pay for the
//!   large one.
//!
//! `docs/SOLVER.md` § Decisions records the figures before and after the
//! elimination became reach-driven and before and after the cold start
//! became the slack crash basis.

use bench::instances::{exact_leg, service_like};
use criterion::{criterion_group, criterion_main, Criterion};
use insitu_core::aggregate::build_aggregate;
use insitu_core::formulation::build_exact;
use milp::lu::{Factorization, LuFactors};
use milp::revised::solve_standard_revised;
use milp::standard::StandardForm;
use milp::{presolve, Model};

fn bench_basis(c: &mut Criterion, label: &str, model: &Model) {
    let sf = StandardForm::from_model(model).expect("lowers");
    let root = solve_standard_revised(&sf, None).expect("root LP");
    println!(
        "  {label}: cold root LP in {} pivots, {} refactorizations",
        root.iterations, root.telemetry.refactorizations
    );
    let basic = root.basis.basic;
    let m = sf.nrows();
    let factor = || LuFactors::factor(m, |q| sf.a.col(basic[q])).expect("optimal basis");
    println!(
        "  {label}: m = {m}, {} structural of {} basic columns, L + U fill {}",
        basic.iter().filter(|&&j| sf.a.col_nnz(j) > 1).count(),
        basic.len(),
        factor().fill()
    );
    let mut g = c.benchmark_group(format!("lu_kernels/{label}"));
    g.bench_function("presolve", |b| {
        b.iter(|| {
            let mut presolved = model.clone();
            presolve(&mut presolved).expect("feasible").bounds_tightened
        })
    });
    g.bench_function("lower", |b| {
        b.iter(|| StandardForm::from_model(model).expect("lowers").rows.nnz())
    });
    g.bench_function("cold_root_lp", |b| {
        b.iter(|| solve_standard_revised(&sf, None).expect("root LP").objective)
    });
    g.bench_function("factor", |b| b.iter(factor));
    let fac = Factorization::new(factor());
    // the entering column: the densest nonbasic one
    let enter = (0..sf.ncols())
        .filter(|j| !basic.contains(j))
        .max_by_key(|&j| sf.a.col_nnz(j))
        .expect("a nonbasic column");
    let (mut v, mut w) = (vec![0.0; m], vec![0.0; m]);
    g.bench_function("ftran_col", |b| {
        b.iter(|| {
            v.fill(0.0);
            for (r, a) in sf.a.col(enter) {
                v[r] = a;
            }
            fac.ftran(&mut v, &mut w);
            w[m / 2]
        })
    });
    let (mut y, mut scratch) = (vec![0.0; m], vec![0.0; m]);
    g.bench_function("btran_unit", |b| {
        b.iter(|| {
            v.fill(0.0);
            v[m / 2] = 1.0;
            fac.btran(&mut v, &mut y, &mut scratch);
            y[0]
        })
    });
    // the dual ratio test's inputs: the duals of the basic costs and the
    // pivot row ρ = B⁻ᵀeᵣ of the middle row, then ρᵀA
    let cost_b: Vec<f64> = basic.iter().map(|&j| sf.c[j]).collect();
    let (mut unit, mut rho, mut scratch2) = (vec![0.0; m], vec![0.0; m], vec![0.0; 2 * m]);
    g.bench_function("btran2", |b| {
        b.iter(|| {
            v.copy_from_slice(&cost_b);
            unit.fill(0.0);
            unit[m / 2] = 1.0;
            fac.btran2([&mut v, &mut unit], [&mut y, &mut rho], &mut scratch2);
            y[0] + rho[0]
        })
    });
    // ρᵀA is timed for the basis row whose ρ is densest: the dearest row
    let support = |rho: &[f64]| rho.iter().filter(|&&p| p != 0.0).count();
    let (mut densest, mut most) = (0, 0);
    for r in 0..m {
        unit.fill(0.0);
        unit[r] = 1.0;
        fac.btran(&mut unit, &mut rho, &mut scratch);
        if support(&rho) > most {
            (densest, most) = (r, support(&rho));
        }
    }
    unit.fill(0.0);
    unit[densest] = 1.0;
    fac.btran(&mut unit, &mut rho, &mut scratch);
    println!("  {label}: densest pivot row {densest}: ρ has {most} nonzeros of {m}");
    let mut t = vec![0.0; sf.ncols()];
    g.bench_function("pivot_row", |b| {
        b.iter(|| {
            sf.rows.left_mul(&rho, &mut t);
            t[0]
        })
    });
    g.finish();
}

fn bench_lu(c: &mut Criterion) {
    bench_basis(c, "exact_160x4", &build_exact(&exact_leg(160, 4)).0);
    let service = build_aggregate(&service_like()).expect("builds");
    bench_basis(c, "service_240x6", &service.model);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lu
}
criterion_main!(benches);
