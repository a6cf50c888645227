//! Deterministic graph fixtures with golden triangle counts.

use cargo_graph::generators::{barabasi_albert, erdos_renyi, watts_strogatz};
use cargo_graph::Graph;

/// A named graph together with its known-correct triangle count.
pub struct GraphFixture {
    pub name: &'static str,
    pub graph: Graph,
    /// Golden value: for the micro fixtures this is counted by hand;
    /// for the generator fixtures it is locked in from the seed
    /// workspace bring-up and guards both the generators and the
    /// counting algorithms against silent drift.
    pub triangles: u64,
}

impl GraphFixture {
    fn new(name: &'static str, graph: Graph, triangles: u64) -> Self {
        GraphFixture {
            name,
            graph,
            triangles,
        }
    }
}

/// A single triangle on 3 nodes: the smallest non-trivial count.
pub fn triangle() -> Graph {
    Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).expect("valid fixture")
}

/// The complete graph on 4 nodes: C(4,3) = 4 triangles.
pub fn k4() -> Graph {
    Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).expect("valid fixture")
}

/// A path on 4 nodes: zero triangles, non-zero edges.
pub fn path4() -> Graph {
    Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).expect("valid fixture")
}

/// Two triangles sharing the edge (1, 2): tests that shared edges are
/// not double- or under-counted.
pub fn two_triangles_sharing_an_edge() -> Graph {
    Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).expect("valid fixture")
}

/// The fixed seed every generator-backed fixture uses.
const FIXTURE_SEED: u64 = 0xCA60;

/// The full golden fixture set: micro graphs (hand-counted) plus
/// seeded generator outputs (locked-in regression values).
///
/// The generator goldens are **hardcoded**, not recomputed: a
/// behavioural change in the generators, the RNG shim, or the triangle
/// counters fails loudly here rather than drifting silently. If you
/// change any of those deliberately, re-derive the constants with
/// `count_triangles` and update them in the same commit.
pub fn golden_fixtures() -> Vec<GraphFixture> {
    vec![
        GraphFixture::new("triangle", triangle(), 1),
        GraphFixture::new("k4", k4(), 4),
        GraphFixture::new("path4", path4(), 0),
        GraphFixture::new("two_shared", two_triangles_sharing_an_edge(), 2),
        GraphFixture::new("er_64", erdos_renyi(64, 0.15, FIXTURE_SEED), 74),
        GraphFixture::new("ba_64", barabasi_albert(64, 4, FIXTURE_SEED), 139),
        GraphFixture::new("ws_64", watts_strogatz(64, 6, 0.2, FIXTURE_SEED), 119),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_graph::{count_triangles, count_triangles_matrix, count_triangles_node_iterator};

    #[test]
    fn micro_fixture_goldens_are_hand_verifiable() {
        assert_eq!(count_triangles(&triangle()), 1);
        assert_eq!(count_triangles(&k4()), 4);
        assert_eq!(count_triangles(&path4()), 0);
        assert_eq!(count_triangles(&two_triangles_sharing_an_edge()), 2);
    }

    #[test]
    fn all_counting_algorithms_agree_on_fixtures() {
        for f in golden_fixtures() {
            assert_eq!(count_triangles(&f.graph), f.triangles, "{}", f.name);
            assert_eq!(
                count_triangles_node_iterator(&f.graph),
                f.triangles,
                "{} (node iterator)",
                f.name
            );
            assert_eq!(
                count_triangles_matrix(&f.graph.to_bit_matrix()),
                f.triangles,
                "{} (matrix)",
                f.name
            );
        }
    }

    #[test]
    fn generator_fixtures_match_pinned_edge_counts() {
        // Second independent golden dimension: edge counts pin the
        // generators/RNG even where triangle counts could coincide.
        let pinned = [("er_64", 253usize), ("ba_64", 246), ("ws_64", 192)];
        let fixtures = golden_fixtures();
        for (name, edges) in pinned {
            let f = fixtures.iter().find(|f| f.name == name).unwrap();
            assert_eq!(f.graph.edge_count(), edges, "{name} edge count drifted");
        }
    }
}
