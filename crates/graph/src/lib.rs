//! # cargo-graph — graph substrate for the CARGO reproduction
//!
//! This crate provides everything the CARGO protocols need to know about
//! graphs:
//!
//! * [`Graph`] — an undirected, simple graph stored as sorted adjacency
//!   lists (CSR-like), the canonical representation for ground truth and
//!   plaintext baselines.
//! * [`BitMatrix`] / [`BitVec`] — packed adjacency bit vectors: the paper
//!   models each user `v_i` as owning an *adjacent bit vector*
//!   `A_i = {a_i1, ..., a_in}`; the secure protocols operate on these.
//! * [`CsrGraph`] — a compressed-sparse-row view with a degree-ordered
//!   orientation and wedge enumeration: the substrate of the *sparse*
//!   Count schedule, which touches only the triples a public candidate
//!   structure admits instead of the full `n³` cube.
//! * [`generators`] — synthetic graph models (Erdős–Rényi,
//!   Barabási–Albert, Chung–Lu, Watts–Strogatz) and SNAP-calibrated
//!   presets standing in for the paper's datasets when the real edge
//!   lists are not on disk.
//! * [`io`] — SNAP edge-list reader/writer so the real datasets drop in.
//! * [`triangles`] — exact triangle counting (node-iterator,
//!   edge-iterator, and adjacency-matrix algorithms) used for ground
//!   truth `T` and for per-node/per-edge triangle statistics.
//! * [`degree`] — degree sequences and summary statistics (Table IV).
//!
//! The crate is dependency-light (only `rand` for the generators) and
//! deterministic: every generator takes an explicit seed.

pub mod bitvec;
pub mod components;
pub mod csr;
pub mod degree;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod triangles;

pub use bitvec::{BitMatrix, BitVec};
pub use components::{connected_components, largest_component, random_induced_subgraph};
pub use csr::{CsrGraph, NeighborMarks};
pub use degree::{degree_sequence, DegreeStats};
pub use error::GraphError;
pub use graph::{Graph, GraphBuilder};
pub use io::{
    read_edge_list, read_edge_list_csr, read_edge_list_csr_from_stats, read_edge_list_from,
    read_edge_list_from_stats, read_edge_list_stats, write_edge_list, LoadStats,
};
pub use triangles::{
    count_triangles, count_triangles_matrix, count_triangles_node_iterator, local_triangle_counts,
};
