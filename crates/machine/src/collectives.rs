//! Latency–bandwidth cost model of `MPI_Allreduce`.
//!
//! The analyses the paper schedules use collective communication, and
//! `MPI_Allreduce` dominates (histogram merges, error norms). §4 of the
//! paper observes that the number of hops of a collective is proportional
//! to the network **diameter**, and uses the diameter as the y-variable of
//! its communication-time interpolation. This module provides the analytic
//! forward model of that one collective, with the same structure:
//!
//! ```text
//! T_allreduce(bytes, P) = 2 * (software_latency * ceil(log2 P)
//!                              + hop_latency * diameter)
//!                       + bytes / link_bandwidth
//!                       + bytes * reduce_cost
//! ```

use crate::topology::Torus;

/// Tunable constants of the allreduce model. Defaults approximate a BG/Q:
/// ~2 µs software overhead per tree level, ~40 ns per hop, 2 GB/s per link
/// (the BG/Q torus link is 2 GB/s per direction), and ~0.5 ns/byte combine
/// cost for reductions.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveModel {
    /// Per-tree-level software latency (seconds).
    pub software_latency: f64,
    /// Per-hop wire latency (seconds).
    pub hop_latency: f64,
    /// Per-link bandwidth (bytes/second).
    pub link_bandwidth: f64,
    /// Per-byte reduction (combine) cost (seconds/byte).
    pub reduce_cost: f64,
}

impl Default for CollectiveModel {
    fn default() -> Self {
        CollectiveModel {
            software_latency: 2.0e-6,
            hop_latency: 40.0e-9,
            link_bandwidth: 2.0e9,
            reduce_cost: 0.5e-9,
        }
    }
}

impl CollectiveModel {
    fn latency(&self, procs: usize, topo: &Torus) -> f64 {
        let levels = (procs.max(2) as f64).log2().ceil();
        self.software_latency * levels + self.hop_latency * topo.diameter() as f64
    }

    /// Time for an allreduce of `bytes` per rank (reduce + broadcast along
    /// the same spanning tree; BG/Q does this in-network, hence a single
    /// bandwidth term with a 2x latency factor).
    pub fn allreduce(&self, bytes: f64, procs: usize, topo: &Torus) -> f64 {
        2.0 * self.latency(procs, topo) + bytes / self.link_bandwidth + bytes * self.reduce_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(nodes: usize) -> Torus {
        Torus::bgq_partition(nodes).unwrap()
    }

    #[test]
    fn allreduce_grows_with_diameter() {
        let m = CollectiveModel::default();
        let small = m.allreduce(8.0, 2048 * 16, &topo(2048));
        let large = m.allreduce(8.0, 32768 * 16, &topo(32768));
        assert!(large > small, "{large} <= {small}");
    }

    #[test]
    fn allreduce_grows_with_message_size() {
        let m = CollectiveModel::default();
        let t = topo(1024);
        let a = m.allreduce(1024.0, 1024, &t);
        let b = m.allreduce(1024.0 * 1024.0, 1024, &t);
        assert!(b > a);
    }

    #[test]
    fn microsecond_scale_sanity() {
        // an 8-byte allreduce on a midplane should be tens of microseconds
        let m = CollectiveModel::default();
        let t = m.allreduce(8.0, 512 * 16, &topo(512));
        assert!(t > 1e-6 && t < 1e-3, "{t}");
    }
}
