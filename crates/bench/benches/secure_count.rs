//! The O(n³) secure count: scaling in n, thread count, and batch size
//! (the `CountScheduler` sweep axes), plus the plaintext counters for
//! reference (the "crypto markup"). Trend-only timings: end-to-end
//! numbers come from the `benchmark/` package at the repo root.

use cargo_core::{count_local, CountJob};
use cargo_graph::generators::presets::SnapDataset;
use cargo_graph::{count_triangles, count_triangles_matrix};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn job(threads: usize, batch: usize) -> CountJob {
    CountJob { threads, batch, ..CountJob::new(1) }
}

fn bench_n_scaling(c: &mut Criterion) {
    let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
    let mut g = c.benchmark_group("secure_count");
    g.sample_size(10);
    for n in [100usize, 200, 400] {
        let m = full.induced_prefix(n).to_bit_matrix();
        g.bench_with_input(BenchmarkId::new("n", n), &m, |b, m| {
            b.iter(|| black_box(count_local(m, &job(0, 0))))
        });
    }
    g.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
    let m = full.induced_prefix(300).to_bit_matrix();
    let mut g = c.benchmark_group("secure_count_threads");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| black_box(count_local(&m, &job(t, 0))))
        });
    }
    g.finish();
}

fn bench_batch_scaling(c: &mut Criterion) {
    // The scheduler's other axis: triples per round / PRG block. Shares
    // are identical across the sweep; only round granularity and
    // per-call overhead move.
    let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
    let m = full.induced_prefix(300).to_bit_matrix();
    let mut g = c.benchmark_group("secure_count_batch");
    g.sample_size(10);
    for batch in [1usize, 8, 64, 512] {
        g.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            b.iter(|| black_box(count_local(&m, &job(1, batch))))
        });
    }
    g.finish();
}

fn bench_thread_batch_grid(c: &mut Criterion) {
    // The joint grid: threads × batch at one n.
    let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
    let m = full.induced_prefix(200).to_bit_matrix();
    let mut g = c.benchmark_group("secure_count_grid_n200");
    g.sample_size(10);
    for threads in [1usize, 4] {
        for batch in [1usize, 64] {
            g.bench_with_input(
                BenchmarkId::new("threads_batch", format!("{threads}x{batch}")),
                &(threads, batch),
                |b, &(t, batch)| b.iter(|| black_box(count_local(&m, &job(t, batch)))),
            );
        }
    }
    g.finish();
}

fn bench_plaintext_counters(c: &mut Criterion) {
    let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
    let sub = full.induced_prefix(400);
    let m = sub.to_bit_matrix();
    let mut g = c.benchmark_group("plaintext_count");
    g.bench_function("edge_iterator_n400", |b| {
        b.iter(|| black_box(count_triangles(&sub)))
    });
    g.bench_function("matrix_triple_loop_n400", |b| {
        b.iter(|| black_box(count_triangles_matrix(&m)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_n_scaling,
    bench_thread_scaling,
    bench_batch_scaling,
    bench_thread_batch_grid,
    bench_plaintext_counters
);
criterion_main!(benches);
