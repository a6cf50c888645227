//! Dataset presets calibrated to the paper's graphs.
//!
//! The evaluation (Section V) uses four SNAP datasets — Facebook, Wiki,
//! HepPh, Enron (Table IV) — and Table III references five more
//! collaboration graphs. The benchmark machines here have no access to
//! snap.stanford.edu, so each dataset is represented by:
//!
//! 1. its *published statistics* (`|V|`, `|E|`, `d_max`, domain), copied
//!    from the paper, and
//! 2. a *calibrated synthetic generator* (truncated power-law Chung–Lu
//!    plus a triadic-closure pass) that reproduces those statistics and
//!    the triangle-homogeneity structure the protocols depend on.
//!
//! If the real edge list is present on disk
//! (`<data_dir>/<name>.txt`, standard SNAP format), it is loaded
//! instead — see [`SnapDataset::load_or_synthesize`]. This is the
//! substitution documented in DESIGN.md §4.

use crate::generators::chung_lu::{chung_lu_from_weights, power_law_weights};
use crate::graph::{Graph, GraphBuilder};
use crate::io::read_edge_list;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// The graphs used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapDataset {
    /// `ego-Facebook` — social network (Table IV row 1).
    Facebook,
    /// `wiki-Vote` — vote network (Table IV row 2).
    Wiki,
    /// `ca-HepPh` — citation/collaboration network (Table IV row 3).
    HepPh,
    /// `email-Enron` — communication network (Table IV row 4).
    Enron,
    /// `ca-CondMat` — Table III.
    CondMat,
    /// `ca-AstroPh` — Table III.
    AstroPh,
    /// `ca-HepTh` — Table III.
    HepTh,
    /// `ca-GrQc` — Table III.
    GrQc,
}

/// Published statistics for a dataset (from the paper; `d_max` for the
/// Table III graphs is back-filled from the paper's `d'_max ≈ d_max`
/// observation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetStats {
    /// Number of nodes `|V|`.
    pub n: usize,
    /// Number of undirected edges `|E|`.
    pub edges: usize,
    /// True maximum degree `d_max`.
    pub d_max: usize,
    /// Domain label as printed in Table IV.
    pub domain: &'static str,
}

/// Where a loaded graph came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOrigin {
    /// Parsed from a real SNAP edge list on disk.
    RealEdgeList,
    /// Generated by the calibrated synthetic preset.
    Synthetic,
}

impl SnapDataset {
    /// All four Table IV datasets, in paper order.
    pub const TABLE4: [SnapDataset; 4] = [
        SnapDataset::Facebook,
        SnapDataset::Wiki,
        SnapDataset::HepPh,
        SnapDataset::Enron,
    ];


    /// Canonical (file) name.
    pub fn name(&self) -> &'static str {
        match self {
            SnapDataset::Facebook => "facebook",
            SnapDataset::Wiki => "wiki",
            SnapDataset::HepPh => "hepph",
            SnapDataset::Enron => "enron",
            SnapDataset::CondMat => "condmat",
            SnapDataset::AstroPh => "astroph",
            SnapDataset::HepTh => "hepth",
            SnapDataset::GrQc => "grqc",
        }
    }

    /// Display name as used in the paper's tables/figures.
    pub fn display_name(&self) -> &'static str {
        match self {
            SnapDataset::Facebook => "Facebook",
            SnapDataset::Wiki => "Wiki",
            SnapDataset::HepPh => "HepPh",
            SnapDataset::Enron => "Enron",
            SnapDataset::CondMat => "CondMat",
            SnapDataset::AstroPh => "AstroPh",
            SnapDataset::HepTh => "HepTh",
            SnapDataset::GrQc => "GrQc",
        }
    }

    /// Published statistics (Table IV; Table III `d_max` from `d'_max`).
    pub fn stats(&self) -> DatasetStats {
        match self {
            SnapDataset::Facebook => DatasetStats {
                n: 4_039,
                edges: 88_234,
                d_max: 1_045,
                domain: "social network",
            },
            SnapDataset::Wiki => DatasetStats {
                n: 7_115,
                edges: 103_689,
                d_max: 1_167,
                domain: "vote network",
            },
            SnapDataset::HepPh => DatasetStats {
                n: 12_008,
                edges: 118_521,
                d_max: 982,
                domain: "citation network",
            },
            SnapDataset::Enron => DatasetStats {
                n: 36_692,
                edges: 183_831,
                d_max: 2_766,
                domain: "communication network",
            },
            SnapDataset::CondMat => DatasetStats {
                n: 23_133,
                edges: 93_497,
                d_max: 560,
                domain: "collaboration network",
            },
            SnapDataset::AstroPh => DatasetStats {
                n: 18_772,
                edges: 198_110,
                d_max: 1_008,
                domain: "collaboration network",
            },
            SnapDataset::HepTh => DatasetStats {
                n: 9_877,
                edges: 25_998,
                d_max: 130,
                domain: "collaboration network",
            },
            SnapDataset::GrQc => DatasetStats {
                n: 5_242,
                edges: 14_496,
                d_max: 162,
                domain: "collaboration network",
            },
        }
    }

    /// The calibrated synthetic preset for this dataset.
    pub fn preset(&self) -> SyntheticPreset {
        let s = self.stats();
        SyntheticPreset {
            n: s.n,
            edges_target: s.edges,
            d_max_target: s.d_max,
            gamma: match self {
                // Social / communication graphs are heavier-tailed than
                // collaboration graphs.
                SnapDataset::Facebook | SnapDataset::Enron => 2.1,
                SnapDataset::Wiki => 2.2,
                _ => 2.4,
            },
            closure_prob: match self {
                // Social networks have high triadic closure.
                SnapDataset::Facebook => 0.25,
                SnapDataset::Enron => 0.12,
                _ => 0.10,
            },
        }
    }

    /// Generates the calibrated synthetic graph for this dataset.
    pub fn synthesize(&self, seed: u64) -> Graph {
        self.preset().generate(seed ^ fnv64(self.name()))
    }

    /// Loads `<data_dir>/<name>.txt` if it exists, otherwise falls back
    /// to the synthetic preset. Returns the graph and its origin.
    pub fn load_or_synthesize(
        &self,
        data_dir: Option<&Path>,
        seed: u64,
    ) -> (Graph, DataOrigin) {
        if let Some(dir) = data_dir {
            let path = dir.join(format!("{}.txt", self.name()));
            if path.exists() {
                if let Ok(g) = read_edge_list(&path) {
                    return (g, DataOrigin::RealEdgeList);
                }
            }
        }
        (self.synthesize(seed), DataOrigin::Synthetic)
    }
}

/// Deterministic 64-bit FNV-1a hash, used to decorrelate the per-dataset
/// generator seeds.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A calibrated synthetic generator: truncated power-law Chung–Lu core
/// plus a triadic-closure pass that raises the clustering coefficient
/// to social-network levels (and with it, the triangle count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticPreset {
    /// Number of nodes.
    pub n: usize,
    /// Target number of undirected edges.
    pub edges_target: usize,
    /// Target maximum degree.
    pub d_max_target: usize,
    /// Power-law exponent for the weight sequence.
    pub gamma: f64,
    /// Fraction of the edge budget spent on triadic-closure edges.
    pub closure_prob: f64,
}

impl SyntheticPreset {
    /// Generates a graph matching the preset's statistics.
    ///
    /// Node ids are ordered by expected degree descending (hub = node 0),
    /// which mirrors how the paper's experiments subsample "the first n
    /// users" and still see hubs (their noisy `d'_max` in Table V stays
    /// near the full-graph `d_max` even at n = 2000).
    pub fn generate(&self, seed: u64) -> Graph {
        let closure_budget = (self.edges_target as f64 * self.closure_prob) as usize;
        let cl_edges = self.edges_target - closure_budget;
        let weights = power_law_weights(
            self.n,
            self.gamma,
            self.d_max_target as f64,
            2.0 * cl_edges as f64,
        );
        let base = chung_lu_from_weights(&weights, seed);
        if closure_budget == 0 {
            return base;
        }
        // Triadic closure: repeatedly pick a random node, two of its
        // neighbours, and close the wedge. Hubs are picked by sampling
        // an edge endpoint (degree-proportional), concentrating closure
        // where real social graphs have it.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e3779b97f4a7c15));
        let mut b = GraphBuilder::new(self.n);
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * base.edge_count());
        for (u, v) in base.edges() {
            b.add_edge(u, v).expect("in range");
            endpoints.push(u as u32);
            endpoints.push(v as u32);
        }
        let mut added = 0usize;
        let mut attempts = 0usize;
        let max_attempts = closure_budget * 20;
        let mut exists: std::collections::HashSet<(u32, u32)> = base
            .edges()
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        while added < closure_budget && attempts < max_attempts {
            attempts += 1;
            let pivot = endpoints[rng.gen_range(0..endpoints.len())] as usize;
            let nbrs = base.neighbors(pivot);
            if nbrs.len() < 2 {
                continue;
            }
            let a = nbrs[rng.gen_range(0..nbrs.len())];
            let c = nbrs[rng.gen_range(0..nbrs.len())];
            if a == c {
                continue;
            }
            let key = (a.min(c), a.max(c));
            if exists.insert(key) {
                b.add_edge(key.0 as usize, key.1 as usize).expect("in range");
                added += 1;
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;
    use crate::triangles::count_triangles;

    #[test]
    fn facebook_preset_matches_published_stats() {
        let ds = SnapDataset::Facebook;
        let g = ds.synthesize(0);
        let want = ds.stats();
        let got = DegreeStats::of(&g);
        assert_eq!(got.n, want.n);
        let edge_err = (got.edges as f64 - want.edges as f64).abs() / want.edges as f64;
        assert!(edge_err < 0.15, "|E| {} vs target {}", got.edges, want.edges);
        let dmax_err = (got.max as f64 - want.d_max as f64).abs() / want.d_max as f64;
        assert!(dmax_err < 0.35, "dmax {} vs target {}", got.max, want.d_max);
    }

    #[test]
    fn presets_have_plenty_of_triangles() {
        // The utility experiments divide by T; presets must not be
        // triangle-poor.
        let g = SnapDataset::Facebook.synthesize(0);
        let sub = g.induced_prefix(2000);
        assert!(
            count_triangles(&sub) > 10_000,
            "prefix-2000 triangles = {}",
            count_triangles(&sub)
        );
    }

    #[test]
    fn all_datasets_synthesize_deterministically() {
        for ds in SnapDataset::TABLE4 {
            let a = ds.synthesize(5);
            let b = ds.synthesize(5);
            assert_eq!(a.edge_count(), b.edge_count(), "{}", ds.name());
            assert_eq!(a.n(), ds.stats().n);
        }
    }

    #[test]
    fn table3_presets_cover_five_graphs() {
        use SnapDataset::{AstroPh, CondMat, GrQc, HepPh, HepTh};
        for ds in [CondMat, AstroPh, HepPh, HepTh, GrQc] {
            assert!(ds.stats().d_max > 0);
        }
    }

    #[test]
    fn load_or_synthesize_falls_back_without_data_dir() {
        let (g, origin) = SnapDataset::GrQc.load_or_synthesize(None, 1);
        assert_eq!(origin, DataOrigin::Synthetic);
        assert_eq!(g.n(), SnapDataset::GrQc.stats().n);
    }

    #[test]
    fn load_or_synthesize_reads_real_file_when_present() {
        let dir = std::env::temp_dir().join("cargo_graph_presets_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grqc.txt");
        std::fs::write(&path, "# tiny\n0\t1\n1\t2\n2\t0\n").unwrap();
        let (g, origin) = SnapDataset::GrQc.load_or_synthesize(Some(&dir), 1);
        assert_eq!(origin, DataOrigin::RealEdgeList);
        assert_eq!(g.edge_count(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hub_first_ordering_preserves_dmax_under_prefix() {
        let g = SnapDataset::Wiki.synthesize(3);
        let sub = g.induced_prefix(2000);
        // Hubs live at low ids, so the subsample keeps a large dmax.
        assert!(
            sub.max_degree() >= sub.n() / 10,
            "prefix dmax {} too small",
            sub.max_degree()
        );
    }
}
