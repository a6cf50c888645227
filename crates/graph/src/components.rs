//! Connected components.
//!
//! SNAP datasets are conventionally preprocessed to their largest
//! connected component before analysis; the utility lives here so
//! downstream users get the same preprocessing the paper's datasets
//! received.

use crate::graph::Graph;

/// Labels each node with a component id (`0..k`, in order of first
/// discovery) and returns `(labels, component_count)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if label[v] == usize::MAX {
                    label[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

/// Extracts the largest connected component as a relabelled graph
/// (ties broken by lowest component id). Returns the component graph
/// and the original node ids it contains.
pub fn largest_component(g: &Graph) -> (Graph, Vec<usize>) {
    let (labels, k) = connected_components(g);
    if k == 0 {
        return (Graph::empty(0), Vec::new());
    }
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l] += 1;
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(i, &s)| (s, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .expect("k > 0");
    let nodes: Vec<usize> = (0..g.n()).filter(|&v| labels[v] == best).collect();
    (g.induced_subgraph(&nodes), nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles_and_isolate() -> Graph {
        // Component A: 0-1-2 triangle. Component B: 3-4-5 triangle.
        // Node 6 isolated.
        Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap()
    }

    #[test]
    fn counts_components() {
        let g = two_triangles_and_isolate();
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[6], labels[0]);
    }

    #[test]
    fn largest_component_ties_break_deterministically() {
        let g = two_triangles_and_isolate();
        let (lcc, nodes) = largest_component(&g);
        assert_eq!(lcc.n(), 3);
        assert_eq!(lcc.edge_count(), 3);
        // Both triangles have size 3; the lower component id (nodes
        // 0,1,2) wins.
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let (labels, k) = connected_components(&Graph::empty(0));
        assert!(labels.is_empty());
        assert_eq!(k, 0);
        let (lcc, nodes) = largest_component(&Graph::empty(0));
        assert_eq!(lcc.n(), 0);
        assert!(nodes.is_empty());
        // All-isolated graph: every node its own component.
        let (_, k) = connected_components(&Graph::empty(5));
        assert_eq!(k, 5);
    }

    #[test]
    fn component_labels_cover_every_node() {
        let g = crate::generators::erdos_renyi(200, 0.01, 3);
        let (labels, k) = connected_components(&g);
        assert!(labels.iter().all(|&l| l < k));
        // Each edge connects same-labelled nodes.
        for (u, v) in g.edges() {
            assert_eq!(labels[u], labels[v]);
        }
    }
}
