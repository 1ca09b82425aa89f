//! The per-layer metric set of a traced run.
//!
//! Every traced run reports every per-layer metric, whatever the workload:
//! a layer that is not on a workload's path reads 0 there, which is itself
//! the separation the workloads were built for (`service.*` is 0 on
//! `solve-scale` and `run-*`, `mdsim.*` is 0 everywhere but
//! `run-md-adaptive`).

use std::collections::BTreeMap;

/// Name and unit of every per-layer metric; `BENCHMARK.json` lists the
/// same names and `main` refuses to run when the two differ.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("types.json_parse_us", "us"),
    ("types.json_render_us", "us"),
    ("types.validate_us", "us"),
    ("types.canonicalize_us", "us"),
    ("certify.fingerprint_us", "us"),
    ("certify.certify_us", "us"),
    ("certify.calls_per_req", "count"),
    ("core.build_aggregate_us", "us"),
    ("core.build_exact_ms", "ms"),
    ("core.place_us", "us"),
    ("milp.solve_us", "us"),
    ("milp.presolve_us", "us"),
    ("milp.root_lp_us", "us"),
    ("milp.cuts_us", "us"),
    ("milp.search_us", "us"),
    ("milp.ftran_btran_us", "us"),
    ("milp.nodes_per_solve", "count"),
    ("milp.pivots_per_solve", "count"),
    ("milp.cuts_applied_per_solve", "count"),
    ("milp.refactorizations_per_solve", "count"),
    ("milp.aggregate_leg_s", "s"),
    ("milp.exact_leg_s", "s"),
    ("milp.hint_accepted_frac", "ratio"),
    ("milp.scale_2t", "ratio"),
    ("service.hit_frac", "ratio"),
    ("service.dedup_frac", "ratio"),
    ("service.warm_frac", "ratio"),
    ("service.evictions", "count"),
    ("service.certify_rejects", "count"),
    ("service.hit_p50_us", "us"),
    ("service.solved_p50_us", "us"),
    ("service.residual_hit_us", "us"),
    ("service.residual_solved_us", "us"),
    ("service.scale_2c", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.spans_recorded", "count"),
    ("obs.spans_dropped", "count"),
    ("core.runtime_overhead_us_per_step", "us"),
    ("core.adaptive_resolve_ms", "ms"),
    ("core.adaptive_attempts", "count"),
    ("core.adaptive_adopted", "count"),
    ("core.budget_used_frac", "ratio"),
    ("core.model_error_frac", "ratio"),
    ("mdsim.force_us_per_step", "us"),
    ("mdsim.cell_rebuild_us_per_step", "us"),
    ("mdsim.integrate_us_per_step", "us"),
    ("mdsim.a1_rdf_us_per_call", "us"),
    ("mdsim.a2_rdf_us_per_call", "us"),
    ("mdsim.a3_vacf_us_per_call", "us"),
    ("mdsim.a4_msd_us_per_call", "us"),
    ("mdsim.per_step_hooks_us_per_step", "us"),
    ("mdsim.scratch_allocs", "count"),
    ("amrsim.hydro_step_us_per_step", "us"),
    ("amrsim.cfl_us_per_step", "us"),
    ("amrsim.f1_vorticity_us_per_call", "us"),
    ("amrsim.f2_l1_us_per_call", "us"),
    ("amrsim.f3_l2_us_per_call", "us"),
    ("amrsim.checkpoint_us_per_call", "us"),
    ("parallel.md_scale_2t", "ratio"),
    ("parallel.amr_scale_2t", "ratio"),
    ("parallel.merge_frac", "ratio"),
];

/// The values of one traced run, every name preset to 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Records a measured value; naming an unlisted metric is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric")) = value;
    }

    /// Values in [`PER_LAYER`] order.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| (name, self.0[name]))
            .collect()
    }
}

/// What a traced run leaves besides its metrics.
pub struct Traced {
    /// Lines for the human reader (reconciliation, shares of wall time).
    pub notes: String,
    /// The benchmark-side spans, `obs/timeline/v1`.
    pub trace_json: String,
}
