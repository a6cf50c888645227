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
//!   truth `T`.
//! * [`degree`] — degree summary statistics (Table IV).
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
pub use components::{connected_components, largest_component};
pub use csr::{CsrGraph, NeighborMarks};
pub use degree::DegreeStats;
pub use error::GraphError;
pub use graph::{Graph, GraphBuilder};
pub use io::{
    read_edge_list, read_edge_list_csr, read_edge_list_csr_from_stats, read_edge_list_from_stats,
    read_edge_list_stats, write_edge_list, LoadStats,
};
pub use triangles::{count_triangles, count_triangles_matrix, count_triangles_node_iterator};

/// Asks the CPU to start loading `r`'s cache line now, so that a later
/// read of it finds the line on chip: the relabeller, the CSR scatter
/// and the index walk call it for items they reach a little later,
/// and so overlap misses they would otherwise wait on one by one. A
/// hint only — it changes no value, and a no-op off x86-64.
#[inline(always)]
pub(crate) fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` reads nothing the program can observe and
    // cannot fault (SSE, part of the x86-64 baseline); its address
    // comes from a live reference, so it is in bounds anyway.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}
