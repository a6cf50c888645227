//! Degree sequences and summary statistics.
//!
//! Used to print Table IV (dataset details), to calibrate the synthetic
//! presets against the published SNAP statistics, and by the projection
//! algorithms, whose behaviour is governed entirely by node degrees.

use crate::graph::Graph;
use crate::triangles::sorted_intersection_count;

/// Returns the degree sequence of `g` in node order.
pub fn degree_sequence(g: &Graph) -> Vec<usize> {
    g.degrees()
}

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of undirected edges (`Σd / 2`).
    pub edges: usize,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree (`d_max` in the paper).
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: f64,
    /// Degree variance (population).
    pub variance: f64,
}

impl DegreeStats {
    /// Computes statistics for a graph.
    pub fn of(g: &Graph) -> DegreeStats {
        let degs = g.degrees();
        let n = degs.len();
        if n == 0 {
            return DegreeStats {
                n: 0,
                edges: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                median: 0.0,
                variance: 0.0,
            };
        }
        let mut sorted = degs.clone();
        sorted.sort_unstable();
        let sum: usize = degs.iter().sum();
        let mean = sum as f64 / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2] as f64
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) as f64 / 2.0
        };
        let variance = degs
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        DegreeStats {
            n,
            edges: sum / 2,
            min: sorted[0],
            max: sorted[n - 1],
            mean,
            median,
            variance,
        }
    }
}

/// Histogram of degrees: `hist[d]` = number of nodes with degree `d`.
#[cfg(test)]
fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for d in g.degrees() {
        hist[d] += 1;
    }
    hist
}

/// Empirical check of the paper's Observation 1 (triangle homogeneity,
/// after Durak et al.): returns the mean degree-similarity
/// `DS(d_u, d_v) = |d_u − d_v| / d_u` over (a) the endpoint pairs of
/// edges that close triangles and (b) all edges, so callers can verify
/// triangle edges are more degree-homogeneous than average.
pub fn triangle_homogeneity(g: &Graph) -> Option<(f64, f64)> {
    let mut tri_sum = 0.0f64;
    let mut tri_cnt = 0usize;
    let mut all_sum = 0.0f64;
    let mut all_cnt = 0usize;
    for (u, v) in g.edges() {
        let (du, dv) = (g.degree(u) as f64, g.degree(v) as f64);
        if du == 0.0 {
            continue;
        }
        let ds = (du - dv).abs() / du;
        all_sum += ds;
        all_cnt += 1;
        let common = sorted_intersection_count(g.neighbors(u), g.neighbors(v));
        if common > 0 {
            tri_sum += ds;
            tri_cnt += 1;
        }
    }
    if all_cnt == 0 || tri_cnt == 0 {
        return None;
    }
    Some((tri_sum / tri_cnt as f64, all_sum / all_cnt as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::barabasi_albert;

    #[test]
    fn stats_on_star_graph() {
        // Star with centre 0 and 4 leaves.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let s = DegreeStats::of(&g);
        assert_eq!(s.n, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 1.6).abs() < 1e-12);
        assert_eq!(s.median, 1.0);
    }

    #[test]
    fn stats_on_empty_graph() {
        let s = DegreeStats::of(&Graph::empty(0));
        assert_eq!(s.n, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = barabasi_albert(200, 3, 7);
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), g.n());
        assert_eq!(hist.len(), g.max_degree() + 1);
        assert!(hist[g.max_degree()] >= 1);
    }

    #[test]
    fn homogeneity_favors_triangle_edges_on_scale_free_graphs() {
        // On a preferential-attachment graph, triangle-closing edges
        // should be at least roughly as degree-similar as average edges;
        // we only require the statistic to be computable and finite.
        let g = barabasi_albert(400, 4, 11);
        let (tri, all) = triangle_homogeneity(&g).unwrap();
        assert!(tri.is_finite() && all.is_finite());
        assert!(tri >= 0.0 && all >= 0.0);
    }

    #[test]
    fn homogeneity_none_on_triangle_free() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(triangle_homogeneity(&g).is_none());
    }
}
