//! Algorithm 3 — `Project`: similarity-based local graph projection.
//!
//! Projection bounds the triangle query's global sensitivity from
//! `O(n)` to `O(d'_max)` by having every user with `dᵢ > d'_max`
//! truncate her adjacent bit vector to `d'_max` neighbours. The paper's
//! insight (Observation 1, triangle homogeneity): the node degrees of a
//! triangle tend to be similar, so deleting edges with *dissimilar*
//! endpoint degrees preserves more triangles than random deletion.
//! The degree similarity is `DS(d₁, d₂) = |d₁ − d₂| / d₁`
//! (Definition 5; lower = more similar), evaluated between the user's
//! own true degree `dᵢ` and her neighbours' *noisy* degrees `d'_j` (the
//! only degree information she can legally see).
//!
//! Projection is a *local* operation: user `i` rewrites only row `i`,
//! so the projected matrix may be asymmetric. That is exactly what
//! Algorithm 4 consumes (the row owner contributes each bit's shares).

use cargo_graph::{BitMatrix, BitVec};

/// Outcome of projecting a full adjacency matrix.
#[derive(Debug, Clone)]
pub struct ProjectionResult {
    /// The projected (possibly asymmetric) adjacency matrix `Â`.
    pub matrix: BitMatrix,
    /// Number of users whose row was truncated.
    pub truncated_users: usize,
    /// Total number of deleted edge-bits (directed).
    pub deleted_bits: usize,
}

/// Projects one user's adjacent bit vector (Algorithm 3 body for user
/// `i`): keeps the `theta` neighbours whose noisy degrees are most
/// similar to `own_degree`.
///
/// `noisy_degrees` is the full `D'` vector from `Max` — the user reads
/// only her neighbours' entries. Ties in similarity are broken by node
/// id so the output is deterministic (the paper's pseudo-code is
/// ambiguous under ties; this choice keeps exactly `theta` bits, never
/// more, preserving the sensitivity bound).
pub fn project_user_row(
    row: &BitVec,
    own_degree: usize,
    noisy_degrees: &[f64],
    theta: usize,
) -> BitVec {
    debug_assert_eq!(row.len(), noisy_degrees.len());
    if own_degree <= theta {
        return row.clone();
    }
    // Collect (similarity, id) for every neighbour; smaller = keep.
    let di = own_degree as f64;
    let mut scored: Vec<(f64, usize)> = row
        .iter_ones()
        .map(|j| ((di - noisy_degrees[j]).abs() / di, j))
        .collect();
    // Keep the theta most similar. select_nth is O(d).
    if scored.len() > theta {
        scored.select_nth_unstable_by(theta, |a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored.truncate(theta);
    }
    let mut out = BitVec::zeros(row.len());
    for (_, j) in scored {
        out.set(j, true);
    }
    out
}

/// Runs Algorithm 3 over all users: every user with `dᵢ > θ` rewrites
/// her own row; others keep theirs (`Âᵢ = Aᵢ`).
pub fn project_matrix(
    matrix: &BitMatrix,
    true_degrees: &[usize],
    noisy_degrees: &[f64],
    theta: usize,
) -> ProjectionResult {
    assert_eq!(matrix.n(), true_degrees.len());
    assert_eq!(matrix.n(), noisy_degrees.len());
    let mut out = matrix.clone();
    let mut truncated_users = 0;
    let mut deleted_bits = 0;
    #[allow(clippy::needless_range_loop)]
    for i in 0..matrix.n() {
        if true_degrees[i] > theta {
            let new_row = project_user_row(matrix.row(i), true_degrees[i], noisy_degrees, theta);
            deleted_bits += true_degrees[i] - new_row.count_ones();
            truncated_users += 1;
            out.set_row(i, new_row);
        }
    }
    ProjectionResult {
        matrix: out,
        truncated_users,
        deleted_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_graph::generators::barabasi_albert;
    use cargo_graph::{count_triangles, count_triangles_matrix, Graph};

    /// Projects `g` and reports its triangle count before and after —
    /// the "projection loss" of Figs. 9/10. The surviving count is
    /// computed as the secure protocol sees it: triple products over
    /// the asymmetric matrix.
    fn projection_loss(g: &Graph, noisy_degrees: &[f64], theta: usize) -> (u64, u64) {
        let res = project_matrix(&g.to_bit_matrix(), &g.degrees(), noisy_degrees, theta);
        (count_triangles(g), count_triangles_matrix(&res.matrix))
    }

    /// A wheel-ish graph: hub 0 connected to everyone; rim nodes form
    /// triangles with the hub.
    fn wheel(n: usize) -> Graph {
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((0, v));
        }
        for v in 1..n - 1 {
            edges.push((v, v + 1));
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn users_within_bound_are_untouched() {
        let g = wheel(10);
        let m = g.to_bit_matrix();
        let degs = g.degrees();
        let noisy: Vec<f64> = degs.iter().map(|&d| d as f64).collect();
        // θ = 9 = hub degree: nobody exceeds it.
        let res = project_matrix(&m, &degs, &noisy, 9);
        assert_eq!(res.truncated_users, 0);
        assert_eq!(res.deleted_bits, 0);
        assert_eq!(res.matrix, m);
    }

    #[test]
    fn truncated_rows_have_exactly_theta_bits() {
        let g = wheel(20);
        let degs = g.degrees();
        let noisy: Vec<f64> = degs.iter().map(|&d| d as f64).collect();
        let theta = 5;
        let res = project_matrix(&g.to_bit_matrix(), &degs, &noisy, theta);
        for (i, &deg) in degs.iter().enumerate() {
            let d = res.matrix.degree(i);
            if deg > theta {
                assert_eq!(d, theta, "user {i}");
            } else {
                assert_eq!(d, deg, "user {i}");
            }
        }
    }

    #[test]
    fn similarity_keeps_degree_similar_neighbours() {
        // User 0 (degree 4) has neighbours with noisy degrees
        // 4, 4, 50, 60 → keeping 2 must keep the two degree-4 ones.
        let g = Graph::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        .unwrap();
        let noisy = vec![4.0, 4.0, 4.0, 50.0, 60.0];
        let row = project_user_row(&g.adjacency_row(0), 4, &noisy, 2);
        let kept: Vec<usize> = row.iter_ones().collect();
        assert_eq!(kept, vec![1, 2]);
    }

    #[test]
    fn ties_break_by_node_id_keeping_exactly_theta() {
        // All neighbours equally similar: keep the lowest ids.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        let noisy = vec![5.0; 6];
        let row = project_user_row(&g.adjacency_row(0), 5, &noisy, 3);
        assert_eq!(row.count_ones(), 3);
        let kept: Vec<usize> = row.iter_ones().collect();
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn sensitivity_bound_holds_after_projection() {
        // After projection every row has ≤ max(θ, original d ≤ θ) bits,
        // so each row's degree ≤ max(θ, θ) = θ whenever all users exceed
        // … more precisely ≤ θ for truncated users, dᵢ ≤ θ otherwise.
        let g = barabasi_albert(300, 6, 3);
        let degs = g.degrees();
        let noisy: Vec<f64> = degs.iter().map(|&d| d as f64 + 0.3).collect();
        let theta = 8;
        let res = project_matrix(&g.to_bit_matrix(), &degs, &noisy, theta);
        for (i, &deg) in degs.iter().enumerate() {
            assert!(res.matrix.degree(i) <= theta.max(deg.min(theta)));
            assert!(res.matrix.degree(i) <= theta);
        }
    }

    #[test]
    fn projection_preserves_triangles_better_than_worst_case() {
        // On a scale-free graph with hubs, similarity projection at a
        // generous θ keeps most triangles.
        let g = barabasi_albert(400, 5, 9);
        let degs = g.degrees();
        let noisy: Vec<f64> = degs.iter().map(|&d| d as f64).collect();
        let theta = g.max_degree() / 2;
        let (before, after) = projection_loss(&g, &noisy, theta);
        assert!(before > 0);
        assert!(
            after as f64 >= 0.4 * before as f64,
            "kept only {after}/{before} triangles"
        );
    }

    #[test]
    fn loss_decreases_as_theta_grows() {
        // Fig. 9/10 trend: larger projection parameter ⇒ less loss.
        let g = barabasi_albert(300, 5, 13);
        let degs = g.degrees();
        let noisy: Vec<f64> = degs.iter().map(|&d| d as f64).collect();
        let (t, small) = projection_loss(&g, &noisy, 6);
        let (_, large) = projection_loss(&g, &noisy, 40);
        assert!(small <= large, "θ=6 kept {small}, θ=40 kept {large}");
        assert!(large <= t);
    }

    #[test]
    fn projected_matrix_counts_via_and_symmetrization_too() {
        // The AND-symmetrized projected graph is a subgraph of the
        // original; its triangles are ≤ the asymmetric triple count.
        let g = barabasi_albert(120, 5, 1);
        let degs = g.degrees();
        let noisy: Vec<f64> = degs.iter().map(|&d| d as f64).collect();
        let res = project_matrix(&g.to_bit_matrix(), &degs, &noisy, 7);
        let asym = count_triangles_matrix(&res.matrix);
        let sym = count_triangles(&Graph::from_bit_matrix(&res.matrix.symmetrize_and()));
        assert!(sym <= asym);
    }
}
