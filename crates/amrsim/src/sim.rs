//! The FLASH-style simulation driver.

use crate::euler::{cfl_dt_ex, step_ex};
use crate::mesh::Mesh;
use crate::sedov::SedovSetup;
use insitu_core::runtime::Simulator;
use insitu_types::KernelTelemetry;
use parallel::{Exec, ScratchPool};
use std::time::Instant;

/// A running Sedov simulation: mesh + clock + checkpoint accounting.
#[derive(Debug, Clone)]
pub struct FlashSim {
    /// The block-structured mesh.
    pub mesh: Mesh,
    /// Problem setup (kept for the reference solution).
    pub setup: SedovSetup,
    /// Physical time.
    pub time: f64,
    /// Completed steps.
    pub step_count: usize,
    /// CFL number.
    pub cfl: f64,
    /// Bytes of checkpoint output written so far.
    pub checkpoint_bytes: u64,
    /// Number of checkpoints written.
    pub checkpoints: usize,
    /// Execution context for the parallel kernels (thread count). Set from
    /// `INSITU_THREADS` at construction; results are bitwise identical for
    /// any value (see the `parallel` crate docs).
    pub exec: Exec,
    /// Accumulated per-kernel telemetry (block sweep, CFL reduction, ...).
    pub telemetry: KernelTelemetry,
    /// Reusable scratch buffers for the hydro step (one sweep buffer per
    /// worker, one ghost gather buffer per block): once warm, a step
    /// allocates nothing. A cloned sim starts with an empty pool and
    /// re-warms on first step.
    pub scratch: ScratchPool,
    /// Trace sink for kernel-boundary spans (`hydro.cfl_dt`,
    /// `hydro.step`). Disabled by default; attach a handle to see the
    /// simulation's kernels inside a coupled-run timeline.
    pub tracer: obs::TraceHandle,
}

impl FlashSim {
    /// Builds a Sedov run on `blocks_per_side³` blocks of
    /// `cells_per_block³` cells over a unit cube.
    pub fn sedov(blocks_per_side: usize, cells_per_block: usize, setup: SedovSetup) -> Self {
        let mut mesh = Mesh::new(
            [blocks_per_side; 3],
            cells_per_block,
            [1.0, 1.0, 1.0],
        );
        setup.init(&mut mesh);
        FlashSim {
            mesh,
            setup,
            time: 0.0,
            step_count: 0,
            cfl: 0.4,
            checkpoint_bytes: 0,
            checkpoints: 0,
            exec: Exec::from_env(),
            telemetry: KernelTelemetry::new(),
            scratch: ScratchPool::new(),
            tracer: obs::TraceHandle::disabled(),
        }
    }

    /// Size of one checkpoint (all blocks, all variables).
    pub fn checkpoint_size(&self) -> u64 {
        self.mesh
            .blocks
            .iter()
            .map(|b| b.byte_size() as u64)
            .sum()
    }
}

impl Simulator for FlashSim {
    type State = FlashSim;

    fn state(&self) -> &FlashSim {
        self
    }

    fn advance(&mut self) {
        let tracer = self.tracer.clone();
        let t0 = Instant::now();
        let dt = {
            let mut span = tracer.span("hydro.cfl_dt");
            span.tag("threads", self.exec.threads());
            cfl_dt_ex(&self.mesh, self.cfl, &self.exec)
        };
        self.telemetry.record(
            "hydro.cfl_dt",
            self.exec.threads(),
            parallel::chunk_count(self.mesh.blocks.len(), 1),
            t0.elapsed().as_secs_f64(),
            0.0,
        );
        {
            let mut span = tracer.span("hydro.step");
            span.tag("threads", self.exec.threads());
            step_ex(
                &mut self.mesh,
                dt,
                &self.exec,
                &mut self.telemetry,
                &self.scratch,
            );
        }
        self.time += dt;
        self.step_count += 1;
    }

    fn kernel_telemetry(&self) -> Option<&KernelTelemetry> {
        Some(&self.telemetry)
    }

    fn write_output(&mut self) {
        // checkpoints are modelled (counted), not persisted: the Table-7
        // experiment reasons about their cost through the machine model
        self.checkpoint_bytes += self.checkpoint_size();
        self.checkpoints += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::FlowVar;

    #[test]
    fn simulation_advances_time_and_shock() {
        let mut sim = FlashSim::sedov(2, 8, SedovSetup::default());
        let p0 = sim.mesh.blocks[0].cell(FlowVar::Pres, 0, 0, 0);
        for _ in 0..10 {
            sim.advance();
        }
        assert_eq!(sim.step_count, 10);
        assert!(sim.time > 0.0);
        // far corner still ambient after a few steps
        let p1 = sim.mesh.blocks[0].cell(FlowVar::Pres, 0, 0, 0);
        assert!((p1 - p0).abs() < 1e-6);
    }

    #[test]
    fn checkpoints_accumulate() {
        let mut sim = FlashSim::sedov(2, 8, SedovSetup::default());
        let one = sim.checkpoint_size();
        assert_eq!(one, 8 * 10 * 10 * 10 * 10 * 8); // 8 blocks x 10 vars x 10^3 x 8B
        sim.write_output();
        sim.write_output();
        assert_eq!(sim.checkpoints, 2);
        assert_eq!(sim.checkpoint_bytes, 2 * one);
    }

    #[test]
    fn hydro_scratch_pool_reaches_steady_state() {
        let mut sim = FlashSim::sedov(2, 8, SedovSetup::default());
        sim.advance();
        let cold = sim.scratch.counters();
        assert!(cold.allocs > 0, "first step must populate the pool");
        for _ in 0..3 {
            sim.advance();
        }
        let warm = sim.scratch.counters();
        assert_eq!(
            warm.allocs, cold.allocs,
            "steady-state steps must allocate nothing"
        );
        assert!(warm.reuses > cold.reuses);
        // the counts are attributed to the hydro kernels in telemetry
        let step = sim.telemetry.get("hydro.step").unwrap();
        assert!(step.scratch_reuses > 0);
        let ghosts = sim.telemetry.get("hydro.ghosts").unwrap();
        assert!(ghosts.scratch_reuses > 0);
    }

    #[test]
    fn state_exposes_self() {
        let sim = FlashSim::sedov(2, 4, SedovSetup::default());
        assert_eq!(sim.state().step_count, 0);
    }

    #[test]
    fn kernel_spans_emitted_when_traced() {
        let mut sim = FlashSim::sedov(2, 4, SedovSetup::default());
        let tracer = std::sync::Arc::new(obs::Tracer::with_capacity(64));
        sim.tracer = obs::TraceHandle::new(tracer.clone());
        sim.advance();
        sim.advance();
        let tl = tracer.timeline();
        assert_eq!(tl.spans_named("hydro.cfl_dt").count(), 2);
        assert_eq!(tl.spans_named("hydro.step").count(), 2);
        assert!(sim.kernel_telemetry().unwrap().get("hydro.step").is_some());
    }
}
