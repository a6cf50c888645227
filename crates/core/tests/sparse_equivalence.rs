//! Sparse-schedule equivalence suite: the candidate-driven Count
//! schedule may skip triples, never *change* them.
//!
//! Three contracts, for arbitrary (asymmetric) bit matrices:
//!
//! 1. **Coverage** — the sparse plan's draws enumerate exactly the
//!    candidate-filtered triples of the dense cube, each at its
//!    canonical dealer-stream offset.
//! 2. **Bit-identity** — with the complete candidate set the sparse
//!    schedule *is* the dense cube: share pair, triple count, and the
//!    full `NetStats` (offline ledger included) are equal bit for bit.
//!    With an edge-support candidate set, every surviving triple's
//!    Multiplication Group is drawn at the same stream position the
//!    dense cube would use, so the reconstruction equals the support's
//!    triangle count — under every `threads × batch × offline-mode`
//!    combination and on the message-passing runtime.
//! 3. **Ledger** — a sparse OT-extension run's offline ledger follows
//!    the same chunk-amortised closed form as the dense one:
//!    `Σ_chunks chunk_offline_ledger(chunk_plan) + ot_setup_ledger`.

use cargo_core::{
    count_local, count_two_party, CandidateSet, CountJob, CountKernel, CountScheduler,
    OfflineMode, SchedulePlan,
};
use cargo_graph::BitMatrix;
use cargo_mpc::{
    chunk_offline_ledger, memory_pair, Backpressure, OfflineLedger, PoolPolicy, SplitMix64,
};
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

/// Brute-force reference: the triples `i < j < k` whose three
/// upper-triangle entries are all set — exactly what the secure
/// product can count as 1.
fn support_triples(m: &BitMatrix) -> Vec<(u32, u32, u32)> {
    let n = m.n();
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                if m.get(i, j) && m.get(i, k) && m.get(j, k) {
                    out.push((i as u32, j as u32, k as u32));
                }
            }
        }
    }
    out
}

fn sparse_plan(m: &BitMatrix) -> SchedulePlan {
    SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_support(m)))
}

fn job(seed: u64, threads: usize, batch: usize, plan: SchedulePlan) -> CountJob {
    CountJob { threads, batch, plan, ..CountJob::new(seed) }
}

/// The chunk-amortised offline closed form for an arbitrary schedule
/// (the dense analogue is pinned in `offline_equivalence.rs`).
fn expected_offline(sched: &CountScheduler) -> OfflineLedger {
    let mut ledger = OfflineLedger::new();
    for chunk in sched.chunks() {
        ledger.merge(&chunk_offline_ledger(&sched.chunk_plan(chunk)));
    }
    if !sched.chunks().is_empty() {
        ledger.merge(&cargo_mpc::ot_setup_ledger());
    }
    ledger
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sparse_plan_enumerates_exactly_the_candidate_filtered_triples(
        m in arb_bit_matrix(24),
        threads in 1usize..4,
        batch in 1usize..16,
    ) {
        let cs = Arc::new(CandidateSet::from_support(&m));
        let sched = CountScheduler::with_plan(
            m.n(), threads, batch, SchedulePlan::CandidatePairs(Arc::clone(&cs)));
        let mut planned = Vec::new();
        for chunk in sched.chunks() {
            for d in sched.chunk_plan(chunk) {
                // Draw (i, j, start, groups) covers k = j+1+start .. +groups,
                // each group at its canonical stream offset k − j − 1.
                for g in 0..d.groups {
                    planned.push((d.i, d.j, d.j + 1 + d.start + g));
                }
            }
        }
        // Plans come out in schedule order, which is lexicographic in
        // (i, j, k) — no sort needed for the comparison.
        prop_assert_eq!(planned, support_triples(&m));
        prop_assert_eq!(sched.total_triples(), cs.total_triples());
    }

    #[test]
    fn complete_candidates_make_sparse_bit_identical_to_dense(
        m in arb_bit_matrix(16),
        seed: u64,
        threads in 1usize..4,
        batch in 1usize..16,
    ) {
        let dense = count_local(&m, &job(seed, threads, batch, SchedulePlan::DenseCube));
        let plan = SchedulePlan::CandidatePairs(Arc::new(CandidateSet::complete(m.n())));
        let sparse = count_local(&m, &job(seed, threads, batch, plan));
        // The complete candidate set degenerates to the dense cube —
        // not just the same opening: the same share pair, the same
        // chunk structure, the same ledger.
        prop_assert_eq!(sparse.share1, dense.share1);
        prop_assert_eq!(sparse.share2, dense.share2);
        prop_assert_eq!(sparse.triples, dense.triples);
        prop_assert_eq!(sparse.net, dense.net);
    }

    #[test]
    fn sparse_reconstruction_counts_the_support_triangles(
        m in arb_bit_matrix(20),
        seed: u64,
        threads in 1usize..4,
        batch in 1usize..16,
    ) {
        let sparse = count_local(&m, &job(seed, threads, batch, sparse_plan(&m)));
        let want = support_triples(&m).len() as u64;
        prop_assert_eq!(sparse.reconstruct().0, want);
        // from_support admits exactly the support's triangles.
        prop_assert_eq!(sparse.triples, want);
        // Skipped triples contribute 0 to the sum of shares, so the
        // dense cube opens to the same count (its individual shares
        // differ: they sum masks over all C(n,3) triples).
        let dense = count_local(&m, &job(seed, threads, batch, SchedulePlan::DenseCube));
        prop_assert_eq!(dense.reconstruct().0, want);
    }

    #[test]
    fn sparse_schedule_is_invariant_across_threads_batch_and_runtime(
        m in arb_bit_matrix(18),
        seed: u64,
    ) {
        let plan = sparse_plan(&m);
        let base = count_local(&m, &job(seed, 1, 1, plan.clone()));
        for (threads, batch) in [(1usize, 7usize), (2, 1), (3, 64)] {
            for kernel in [CountKernel::Scalar, CountKernel::Bitsliced] {
                let r = count_local(
                    &m, &CountJob { kernel, ..job(seed, threads, batch, plan.clone()) });
                prop_assert_eq!(r.share1, base.share1);
                prop_assert_eq!(r.share2, base.share2);
                prop_assert_eq!(r.net.elements, base.net.elements);
                prop_assert_eq!(r.net.bytes, base.net.bytes);
            }
            // The message-passing runtime must stay pinned to the fast
            // path share for share, NetStats included.
            let (end1, end2) = memory_pair();
            let rt = count_two_party(
                &m, &job(seed, threads, batch, plan.clone()), &Arc::new(end1), &Arc::new(end2));
            prop_assert_eq!(rt.share1, base.share1);
            prop_assert_eq!(rt.share2, base.share2);
            prop_assert_eq!(rt.net.elements, base.net.elements);
        }
    }
}

proptest! {
    // OT extension pays 512 extended OTs per admitted triple — fewer
    // cases, smaller matrices.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sparse_offline_modes_open_identically_and_follow_the_ledger_closed_form(
        m in arb_bit_matrix(14),
        seed: u64,
        batch in 1usize..8,
    ) {
        let plan = sparse_plan(&m);
        let dealer = count_local(&m, &job(seed, 1, batch, plan.clone()));
        let ot_job = CountJob { offline: OfflineMode::OtExtension, ..job(seed, 1, batch, plan.clone()) };
        let ot = count_local(&m, &ot_job);
        prop_assert_eq!(ot.share1, dealer.share1);
        prop_assert_eq!(ot.share2, dealer.share2);
        prop_assert_eq!(ot.net.online(), dealer.net.online());
        prop_assert!(dealer.net.offline.is_empty());
        // The sparse offline ledger follows the same chunk-amortised
        // closed form as the dense one, over the sparse chunk plans.
        let sched = CountScheduler::with_plan(m.n(), 1, batch, plan.clone());
        prop_assert_eq!(ot.net.offline, expected_offline(&sched));
        // Payload OTs are per admitted triple, not per cube triple.
        prop_assert_eq!(ot.net.offline.extended_ots, 512 * sched.total_triples());
        // Background triple pool: a scheduling change only.
        let pool = PoolPolicy { factory_threads: 1, depth: 2, backpressure: Backpressure::Block };
        let pooled = count_local(&m, &CountJob { pool, ..ot_job });
        prop_assert_eq!(pooled.share1, dealer.share1);
        prop_assert_eq!(pooled.share2, dealer.share2);
        prop_assert_eq!(pooled.net, ot.net);
    }
}
