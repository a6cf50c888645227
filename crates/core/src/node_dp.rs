//! Node-DP extension (Section III-B, "Extension to Node DP").
//!
//! Node DP hides a whole user (her node and all incident edges), not
//! just one edge. The paper sketches the extension as sensitivity
//! updates to Algorithms 2 and 5:
//!
//! * `Max`: removing one node can change the other `n − 1` degrees, so
//!   the degree query's sensitivity grows from 1 to `n`
//!   (`Lap(n/ε₁)` per user).
//! * `Perturb`: a node participates in at most `C(d'_max, 2)` triangles
//!   after projection, so the count sensitivity is `d'_max(d'_max−1)/2`
//!   instead of `d'_max`.
//!
//! The pipeline is otherwise unchanged — [`run_node_dp`] is Algorithm
//! 1's one step sequence ([`crate::protocol`]) with the node as its DP
//! unit. The paper notes the residual utility loss is large and leaves
//! tightening it to future work — exactly what [`run_node_dp`] lets the
//! benchmarks demonstrate.

use crate::config::CargoConfig;
use crate::protocol::{run_in_process, CargoOutput, DpUnit};
use cargo_graph::Graph;

/// Node-DP sensitivity of the triangle count after projection to
/// `d'_max`: `C(d'_max, 2)`.
pub(crate) fn node_dp_count_sensitivity(d_max_noisy: f64) -> f64 {
    let d = d_max_noisy.max(1.0);
    d * (d - 1.0) / 2.0
}

/// Runs the CARGO pipeline under ε-Node DDP (sensitivity-updated
/// variant). Interface mirrors [`crate::CargoSystem::run`].
pub fn run_node_dp(config: &CargoConfig, graph: &Graph) -> CargoOutput {
    run_in_process(graph, config, DpUnit::Node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_graph::generators::barabasi_albert;

    #[test]
    fn sensitivity_is_binomial_coefficient() {
        assert_eq!(node_dp_count_sensitivity(5.0), 10.0);
        assert_eq!(node_dp_count_sensitivity(2.0), 1.0);
        // Clamped below at d = 1 → 0 triangles.
        assert_eq!(node_dp_count_sensitivity(0.0), 0.0);
    }

    #[test]
    fn node_dp_max_is_much_noisier_than_edge_dp() {
        use crate::max_degree::noisy_max_degree;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let degrees: Vec<usize> = vec![50; 500];
        let mut rng = StdRng::seed_from_u64(1);
        let scale = DpUnit::Node.max_scale(degrees.len(), 1.0);
        let node_max = noisy_max_degree(&degrees, scale, &mut rng).d_max_noisy;
        // Scale n/ε = 500: the max of 500 such Laplaces overshoots wildly.
        assert!(
            (node_max - 50.0).abs() > 100.0,
            "node-DP max {node_max} suspiciously tight"
        );
    }

    #[test]
    fn node_dp_pipeline_runs_and_is_noisier_than_edge_dp() {
        let g = barabasi_albert(150, 5, 3);
        let cfg = CargoConfig::new(2.0).with_seed(7).with_threads(2);
        let node = run_node_dp(&cfg, &g);
        let edge = crate::CargoSystem::new(cfg).run(&g);
        let t = edge.true_count as f64;
        let node_err = (node.noisy_count - t).abs();
        let edge_err = (edge.noisy_count - t).abs();
        // Node DP pays quadratically more noise; with the same seed the
        // comparison is stable. Allow the rare flip by a loose factor.
        assert!(
            node_err > edge_err,
            "node err {node_err} should exceed edge err {edge_err}"
        );
        // Budget is still fully accounted.
        let spent: f64 = node.ledger.iter().map(|(_, e)| e).sum();
        assert!((spent - 2.0).abs() < 1e-9);
    }

    #[test]
    fn node_dp_without_projection_uses_quadratic_n_sensitivity() {
        let g = barabasi_albert(60, 3, 5);
        let cfg = CargoConfig {
            projection: false,
            ..CargoConfig::new(4.0).with_seed(11)
        };
        let out = run_node_dp(&cfg, &g);
        // Sanity: pipeline completes, count diagnostics intact.
        assert_eq!(out.projected_count, out.true_count);
    }
}
