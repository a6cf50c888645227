//! Exact (non-private) triangle counting.
//!
//! Three algorithms with different cost profiles, all returning the same
//! answer on symmetric inputs (cross-checked by tests):
//!
//! * [`count_triangles`] — edge-iterator with sorted-list intersection,
//!   `O(Σ_{(u,v)∈E} (d_u + d_v))`: the workhorse for ground truth on the
//!   datasets.
//! * [`count_triangles_node_iterator`] — classic node-iterator over
//!   wedge endpoints, used as an independent implementation for testing.
//! * [`count_triangles_matrix`] — the `O(n³)` triple loop over the bit
//!   matrix, mirroring the access pattern of the secure `Count`
//!   (Algorithm 4): a triangle exists iff `a_ij · a_ik · a_jk = 1`.
//!   Also the only counter defined on *asymmetric* (projected) matrices,
//!   matching exactly what the secure protocol computes.
//!
//! Plus per-node and per-edge triangle statistics used by the examples
//! (clustering coefficient) and by the projection analysis.

use crate::bitvec::BitMatrix;
use crate::graph::Graph;

/// Exact triangle count via edge iteration + neighbourhood intersection.
///
/// For every edge `(u, v)` with `u < v`, counts common neighbours `w > v`
/// so that each triangle `{u, v, w}` is counted exactly once at its
/// lexicographically smallest edge.
pub fn count_triangles(g: &Graph) -> u64 {
    let mut t = 0u64;
    for (u, v) in g.edges() {
        t += sorted_intersection_above(g.neighbors(u), g.neighbors(v), v as u32);
    }
    t
}

/// Number of common elements `> floor` of two sorted slices.
pub(crate) fn sorted_intersection_above(a: &[u32], b: &[u32], floor: u32) -> u64 {
    let mut i = a.partition_point(|&x| x <= floor);
    let mut j = b.partition_point(|&x| x <= floor);
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Number of common elements of two sorted slices
/// (`|N(u) ∩ N(v)|` for neighbour lists — the triangles edge `(u,v)`
/// closes). The merge walk costs `O(d_u + d_v)` and allocates nothing,
/// unlike materialising two n-bit adjacency rows per edge.
pub(crate) fn sorted_intersection_count(a: &[u32], b: &[u32]) -> u64 {
    let mut i = 0usize;
    let mut j = 0usize;
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Exact triangle count via the node-iterator algorithm: for each node
/// `v` and each pair of neighbours `(u, w)` with `u < w`, check the
/// closing edge. Counts each triangle three times, then divides.
pub fn count_triangles_node_iterator(g: &Graph) -> u64 {
    let mut t3 = 0u64;
    for v in 0..g.n() {
        let nbrs = g.neighbors(v);
        for (idx, &u) in nbrs.iter().enumerate() {
            for &w in &nbrs[idx + 1..] {
                if g.has_edge(u as usize, w as usize) {
                    t3 += 1;
                }
            }
        }
    }
    debug_assert_eq!(t3 % 3, 0);
    t3 / 3
}

/// Exact triangle count over a bit matrix with the `O(n³)` triple loop
/// of Algorithm 4: `T = Σ_{i<j<k} a_ij · a_ik · a_jk`.
///
/// Defined for asymmetric matrices too (the post-projection case): the
/// bit consulted for pair `(x, y)` with `x < y` is always row `x`'s bit,
/// exactly as in the secure protocol where user `x` (the lower index)
/// contributes the share of `a_xy`.
pub fn count_triangles_matrix(m: &BitMatrix) -> u64 {
    let n = m.n();
    let mut t = 0u64;
    for i in 0..n {
        let row_i = m.row(i);
        // Iterate only over j where a_ij = 1; a_ij = 0 kills the product.
        let js: Vec<usize> = row_i.iter_ones().filter(|&j| j > i).collect();
        for (a, &j) in js.iter().enumerate() {
            let row_j = m.row(j);
            for &k in &js[a + 1..] {
                // a_ik is set by construction of `js`; check a_jk.
                if row_j.get(k) {
                    t += 1;
                }
            }
        }
    }
    t
}

/// Per-node triangle participation: `t_v` = number of triangles
/// containing `v`. `Σ t_v = 3T`.
pub fn local_triangle_counts(g: &Graph) -> Vec<u64> {
    let mut counts = vec![0u64; g.n()];
    for (u, v) in g.edges() {
        let (nu, nv) = (g.neighbors(u), g.neighbors(v));
        // Common neighbours w > v close a triangle {u, v, w}.
        let mut i = nu.partition_point(|&x| x <= v as u32);
        let mut j = nv.partition_point(|&x| x <= v as u32);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let w = nu[i] as usize;
                    counts[u] += 1;
                    counts[v] += 1;
                    counts[w] += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    counts
}

/// Number of triangles each *edge* participates in. Relevant because
/// the Edge-DP sensitivity of the triangle query is the maximum of this
/// quantity + 1 over non-edges / edges, bounded by `d_max - 1`.
#[cfg(test)]
fn edge_triangle_counts(g: &Graph) -> Vec<((usize, usize), u64)> {
    g.edges()
        .map(|(u, v)| {
            let c = sorted_intersection_count(g.neighbors(u), g.neighbors(v));
            ((u, v), c)
        })
        .collect()
}

/// Global clustering coefficient `3T / #wedges` (transitivity ratio),
/// one of the downstream tasks motivating private triangle counting.
/// Returns `None` when the graph has no wedge.
pub fn global_clustering_coefficient(g: &Graph) -> Option<f64> {
    let wedges: u64 = g
        .degrees()
        .iter()
        .map(|&d| (d as u64) * (d as u64).saturating_sub(1) / 2)
        .sum();
    if wedges == 0 {
        return None;
    }
    Some(3.0 * count_triangles(g) as f64 / wedges as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

    fn k4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn complete_graph_k4_has_four_triangles() {
        let g = k4();
        assert_eq!(count_triangles(&g), 4);
        assert_eq!(count_triangles_node_iterator(&g), 4);
        assert_eq!(count_triangles_matrix(&g.to_bit_matrix()), 4);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(count_triangles(&g), 0);
        assert_eq!(count_triangles_matrix(&g.to_bit_matrix()), 0);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(10);
        assert_eq!(count_triangles(&g), 0);
        assert_eq!(local_triangle_counts(&g), vec![0; 10]);
        assert_eq!(global_clustering_coefficient(&g), None);
    }

    #[test]
    fn algorithms_agree_on_random_graphs() {
        for seed in 0..5u64 {
            let g = erdos_renyi(60, 0.15, seed);
            let a = count_triangles(&g);
            let b = count_triangles_node_iterator(&g);
            let c = count_triangles_matrix(&g.to_bit_matrix());
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a, c, "seed {seed}");
        }
    }

    #[test]
    fn local_counts_sum_to_three_t() {
        let g = erdos_renyi(80, 0.1, 42);
        let t = count_triangles(&g);
        let local = local_triangle_counts(&g);
        assert_eq!(local.iter().sum::<u64>(), 3 * t);
    }

    #[test]
    fn local_counts_on_k4() {
        // Every node of K4 is in exactly 3 triangles.
        assert_eq!(local_triangle_counts(&k4()), vec![3, 3, 3, 3]);
    }

    #[test]
    fn edge_counts_on_k4() {
        // Every edge of K4 closes 2 triangles.
        for (_, c) in edge_triangle_counts(&k4()) {
            assert_eq!(c, 2);
        }
    }

    #[test]
    fn clustering_coefficient_of_complete_graph_is_one() {
        let cc = global_clustering_coefficient(&k4()).unwrap();
        assert!((cc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_counter_on_asymmetric_matrix_uses_row_owner_bits() {
        // Triangle 0-1-2 but user 1 deleted her bit a_12 (projection).
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let mut m = g.to_bit_matrix();
        assert_eq!(count_triangles_matrix(&m), 1);
        // The triple (0,1,2) consults a_01 (row 0), a_02 (row 0), a_12 (row 1).
        m.set(1, 2, false);
        assert_eq!(count_triangles_matrix(&m), 0);
        // Deleting the *mirror* bit a_21 instead does not affect the count.
        let mut m2 = g.to_bit_matrix();
        m2.set(2, 1, false);
        assert_eq!(count_triangles_matrix(&m2), 1);
    }
}
