//! Streamed-schedule equivalence suite: the CSR-streamed Count plan
//! may change *when* candidates are generated — never the triples, the
//! shares, or the wire ledger.
//!
//! Contracts, pinned against the eager sparse schedule
//! (`SchedulePlan::CandidatePairs`, itself pinned to the dense cube by
//! `sparse_equivalence.rs`):
//!
//! 1. **Plan bit-identity** — `SchedulePlan::CsrStream` produces the
//!    same `SecureCountResult` (both shares, triples, and the full
//!    `NetStats`) as the eager plan built from the same support, at
//!    every `threads × batch`, with dealer and OT-extension material.
//! 2. **Round boundaries** — no chunk, a single one-triple run, and
//!    one-triple rounds all reproduce the eager run.
//! 3. **CSR-native input** — `count_local` over a `CsrGraph`, which
//!    never materialises an `n × n` matrix, equals the matrix-shaped
//!    run over `g.to_bit_matrix()` exactly, in dealer and OT mode.
//! 4. **Sampled composition** — sampling over the streamed plan picks
//!    the same coins and draws as over the eager plan.
//!
//! And the benchmark's entry point, `secure_triangle_count_streamed`,
//! equals the eager run whatever tile threshold it is handed.

use cargo_core::{
    count_local, count_sampled, secure_triangle_count_streamed, CandidateSet, CountJob,
    OfflineMode, SchedulePlan, DEFAULT_TILE_THRESHOLD,
};
use cargo_graph::{generators, BitMatrix, CsrGraph, Graph};
use cargo_mpc::SplitMix64;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: an arbitrary n×n bit matrix (not necessarily symmetric —
/// projection produces one-directional deletions) with a seeded
/// density in (0, 1).
fn arb_bit_matrix(max_n: usize) -> impl Strategy<Value = BitMatrix> {
    (3usize..max_n, 1u32..10, any::<u64>()).prop_map(|(n, tenths, seed)| {
        let mut rng = SplitMix64::new(seed);
        let threshold = (tenths as u64) * (u64::MAX / 10);
        let mut m = BitMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.next_u64() < threshold {
                    m.set(i, j, true);
                }
            }
        }
        m
    })
}

/// The two plans every test compares: the eager candidate set and the
/// streamed CSR graph, both derived from the same upper-triangle
/// support.
fn both_plans(m: &BitMatrix) -> (SchedulePlan, SchedulePlan) {
    (
        SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_support(m))),
        SchedulePlan::CsrStream(Arc::new(CsrGraph::from_support(m))),
    )
}

fn job(seed: u64, threads: usize, batch: usize, plan: SchedulePlan) -> CountJob {
    CountJob { threads, batch, plan, ..CountJob::new(seed) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1 in dealer mode: full `SecureCountResult` equality
    /// across a threads × batch grid.
    #[test]
    fn streamed_plan_equals_eager_sparse_on_the_batched_kernel(
        m in arb_bit_matrix(28),
        seed in any::<u64>(),
    ) {
        let (eager_plan, stream_plan) = both_plans(&m);
        for threads in [1usize, 2, 4] {
            for batch in [1usize, 7, 64] {
                let eager = count_local(&m, &job(seed, threads, batch, eager_plan.clone()));
                let streamed = count_local(&m, &job(seed, threads, batch, stream_plan.clone()));
                prop_assert_eq!(eager, streamed);
            }
        }
    }

    /// The benchmark's entry point, `secure_triangle_count_streamed`,
    /// keeps the positional tile threshold θ of the retired tiled
    /// kernel and ignores it: at every θ it reproduces the eager matrix
    /// run bit for bit.
    #[test]
    fn tile_threshold_never_changes_the_result(
        n in 3usize..24,
        tenths in 1u32..6,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, tenths as f64 / 10.0, seed);
        let m = g.to_bit_matrix();
        let csr = Arc::new(CsrGraph::from_graph(&g));
        let (eager_plan, _) = both_plans(&m);
        for batch in [1usize, 5, 64] {
            let eager = count_local(&m, &job(seed, 2, batch, eager_plan.clone()));
            for tile_threshold in [0u32, 1, 3, DEFAULT_TILE_THRESHOLD, u32::MAX] {
                let streamed = secure_triangle_count_streamed(&csr, seed, 2, batch, tile_threshold);
                prop_assert_eq!(eager, streamed);
            }
        }
    }

    /// Contract 4: the sampled estimator draws the same public coins
    /// and canonical dealer offsets under either plan, so the raw
    /// sampled shares (and the ledger) are identical.
    #[test]
    fn sampled_count_composes_with_the_streamed_plan(
        m in arb_bit_matrix(24),
        seed in any::<u64>(),
    ) {
        let (eager_plan, stream_plan) = both_plans(&m);
        for (rate, batch) in [(0.5f64, 1usize), (0.25, 8), (1.0, 64)] {
            let eager = count_sampled(&m, rate, &job(seed, 2, batch, eager_plan.clone()));
            let streamed = count_sampled(&m, rate, &job(seed, 2, batch, stream_plan.clone()));
            prop_assert_eq!(eager, streamed);
        }
    }
}

/// Contract 1 in both offline modes: the OT-extension offline phase
/// consumes the plan through the same `chunk_plan` interface, so the
/// streamed plan must be invisible to it too (offline ledger included
/// — chunk ids, which key the amortised OT sessions, are pinned equal
/// by the scheduler suite).
#[test]
fn scalar_and_ot_paths_accept_streamed_plans() {
    for (n, p, seed) in [(20usize, 0.3, 7u64), (36, 0.15, 3)] {
        let g = generators::erdos_renyi(n, p, seed);
        let m = g.to_bit_matrix();
        let (eager_plan, stream_plan) = both_plans(&m);
        for offline in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            let eager = count_local(&m, &CountJob { offline, ..job(seed, 2, 8, eager_plan.clone()) });
            let streamed =
                count_local(&m, &CountJob { offline, ..job(seed, 2, 8, stream_plan.clone()) });
            assert_eq!(eager, streamed, "n={n} mode={offline:?}");
        }
    }
}

/// Contract 3: a CSR input — no `n × n` matrix anywhere — equals the
/// matrix-shaped eager run on the same graph, across threads × batch,
/// and in OT mode.
#[test]
fn csr_native_streamed_count_equals_the_matrix_run() {
    for (n, p, seed) in [(30usize, 0.2, 1u64), (80, 0.1, 5), (60, 0.35, 9)] {
        let g = generators::erdos_renyi(n, p, seed);
        let m = g.to_bit_matrix();
        let eager_plan = SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_support(&m)));
        let csr = Arc::new(CsrGraph::from_graph(&g));
        let stream_plan = SchedulePlan::CsrStream(Arc::clone(&csr));
        for threads in [1usize, 3] {
            for batch in [1usize, 16] {
                let eager = count_local(&m, &job(seed, threads, batch, eager_plan.clone()));
                let streamed = count_local(&*csr, &job(seed, threads, batch, stream_plan.clone()));
                assert_eq!(eager, streamed, "n={n} threads={threads} batch={batch}");
            }
        }
        if n <= 30 {
            // OT mode pays 6 Gilboa products per triple: smallest graph only.
            let ot = |plan| CountJob { offline: OfflineMode::OtExtension, ..job(seed, 2, 8, plan) };
            let eager = count_local(&m, &ot(eager_plan.clone()));
            let streamed = count_local(&*csr, &ot(stream_plan.clone()));
            assert_eq!(eager, streamed, "n={n} OT");
        }
    }
}

/// Contract 2, the boundaries the sweep can miss: a triangle-free
/// support (zero chunks), a single triangle (one run of one group),
/// and batch = 1 (every round is one lane).
#[test]
fn tile_boundary_cases() {
    // Triangle-free: candidate pairs exist but no run survives.
    let path = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
    let csr = Arc::new(CsrGraph::from_graph(&path));
    let streamed = |csr: &Arc<CsrGraph>, seed, threads, batch| {
        let plan = SchedulePlan::CsrStream(Arc::clone(csr));
        count_local(&**csr, &job(seed, threads, batch, plan))
    };
    let r = streamed(&csr, 42, 2, 8);
    assert_eq!(r.triples, 0);
    assert_eq!(r.reconstruct().to_u64(), 0);
    assert_eq!(r.net.elements, 0);

    // One triangle: a single run of one group must open to 1.
    let tri = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]).unwrap();
    let csr = Arc::new(CsrGraph::from_graph(&tri));
    for batch in [1usize, 4, 64] {
        let r = streamed(&csr, 7, 1, batch);
        assert_eq!(r.triples, 1, "batch={batch}");
        assert_eq!(r.reconstruct().to_u64(), 1, "batch={batch}");
    }

    // batch = 1 with a mixed-run graph: every round is one lane, and
    // carry-over across pairs cannot hide.
    let g = generators::erdos_renyi(25, 0.4, 13);
    let m = g.to_bit_matrix();
    let (eager_plan, stream_plan) = both_plans(&m);
    let eager = count_local(&m, &job(13, 1, 1, eager_plan));
    assert_eq!(eager, count_local(&m, &job(13, 1, 1, stream_plan)));
}
