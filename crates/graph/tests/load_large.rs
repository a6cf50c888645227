//! Both edge-list loaders at scale, in release — CI's
//! `sparse-large-smoke` job runs this with `-- --ignored`; tier-1 does
//! not (a debug-mode million-line parse is minutes, not seconds).

use cargo_graph::generators::chung_lu;
use cargo_graph::{
    count_triangles, read_edge_list_csr, read_edge_list_stats, write_edge_list, CsrGraph,
};
use std::time::Instant;

#[test]
#[ignore = "release-only: cargo test --release -p cargo-graph --test load_large -- --ignored"]
fn both_loaders_agree_on_a_200k_node_power_law_list() {
    let generated = chung_lu(200_000, 800_000, 900, 2.5, 7);
    let path = std::env::temp_dir().join(format!("cargo_graph_load_large_{}.txt", std::process::id()));
    write_edge_list(&generated, &path).unwrap();

    let t0 = Instant::now();
    let (csr, csr_stats) = read_edge_list_csr(&path).unwrap();
    let csr_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (graph, graph_stats) = read_edge_list_stats(&path).unwrap();
    let graph_s = t0.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();

    let edges = generated.edge_count();
    println!(
        "{edges} edges: read_edge_list_csr {:.1} ns/edge, read_edge_list {:.1} ns/edge",
        csr_s * 1e9 / edges as f64,
        graph_s * 1e9 / edges as f64,
    );
    assert_eq!(csr_stats, graph_stats);
    assert!(csr_stats.is_clean() && csr_stats.edges == edges, "{csr_stats:?}");
    assert_eq!(csr, CsrGraph::from_graph(&graph));
    // Relabelling (isolated nodes drop out, ids permute) keeps the count.
    assert_eq!(csr.count_triangles(), count_triangles(&generated));
}
