//! Scheduler-invariance property suite: the batched `CountScheduler`
//! may change *who* computes *when*, but never *what*.
//!
//! For arbitrary (asymmetric!) bit matrices, the servers' share pair,
//! the triple count, and the `NetStats` element/byte totals must be
//! identical across every `threads × batch` combination — and the
//! message-passing runtime must stay pinned to the fast path share for
//! share. This is the contract that makes sharding a pure speedup: no
//! adjacency-dependent scheduling, no randomness keyed by worker or
//! chunk.
//!
//! The one thing `batch` does decide is the round structure, and that
//! is pinned here too: on every plan kind the shared cutter fills each
//! round of a chunk to exactly `batch` triples across draws and pairs,
//! and the in-process ledger is that cut in closed form.

use cargo_core::{
    count_local, count_sampled, count_two_party, CandidateSet, CountJob, CountScheduler,
    SchedulePlan,
};
use cargo_graph::{generators::erdos_renyi, BitMatrix, CsrGraph};
use cargo_mpc::{memory_pair, plan_rounds, NetStats, SplitMix64};
use proptest::prelude::*;
use std::sync::Arc;

fn job(seed: u64, threads: usize, batch: usize) -> CountJob {
    CountJob { threads, batch, ..CountJob::new(seed) }
}

const THREADS: [usize; 3] = [1, 2, 4];
const BATCHES: [usize; 3] = [1, 7, 64];

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shares_and_elements_invariant_across_threads_and_batch(
        m in arb_bit_matrix(24),
        seed: u64,
    ) {
        let base = count_local(&m, &job(seed, 1, 1));
        for threads in THREADS {
            for batch in BATCHES {
                let r = count_local(&m, &job(seed, threads, batch));
                prop_assert_eq!(r.share1, base.share1);
                prop_assert_eq!(r.share2, base.share2);
                prop_assert_eq!(r.triples, base.triples);
                // Element counts must be per-triple exact regardless
                // of the round structure.
                prop_assert_eq!(r.net.elements, base.net.elements);
                prop_assert_eq!(r.net.bytes, base.net.bytes);
                prop_assert_eq!(r.upload_elements, base.upload_elements);
            }
        }
    }

    #[test]
    fn runtime_stays_pinned_to_the_fast_path(
        m in arb_bit_matrix(16),
        seed: u64,
    ) {
        let fast = count_local(&m, &job(seed, 1, 0));
        for (threads, batch) in [(1usize, 0usize), (2, 7), (2, 1), (4, 64)] {
            let (end1, end2) = memory_pair();
            let rt =
                count_two_party(&m, &job(seed, threads, batch), &Arc::new(end1), &Arc::new(end2));
            prop_assert_eq!(rt.share1, fast.share1);
            prop_assert_eq!(rt.share2, fast.share2);
            prop_assert_eq!(rt.triples, fast.triples);
            prop_assert_eq!(rt.net.elements, fast.net.elements);
        }
    }

    #[test]
    fn sampled_estimator_invariant_across_threads_and_batch(
        m in arb_bit_matrix(20),
        seed: u64,
        rate_tenths in 1u32..=10,
    ) {
        let rate = rate_tenths as f64 / 10.0;
        let base = count_sampled(&m, rate, &job(seed, 1, 1));
        for threads in THREADS {
            for batch in BATCHES {
                let r = count_sampled(&m, rate, &job(seed, threads, batch));
                prop_assert_eq!(r.share1, base.share1);
                prop_assert_eq!(r.share2, base.share2);
                prop_assert_eq!(r.evaluated, base.evaluated);
                prop_assert_eq!(r.net.elements, base.net.elements);
            }
        }
    }

    #[test]
    fn online_rounds_cut_every_plan_into_full_batches(
        n in 3usize..28,
        tenths in 1u32..10,
        seed: u64,
    ) {
        let g = erdos_renyi(n, tenths as f64 / 10.0, seed);
        let m = g.to_bit_matrix();
        let eager = CandidateSet::from_graph(&g);
        // Every other triangle: gappy k-lists, so runs of length one.
        let every_other: Vec<(u32, u32, u32)> = (0..eager.len())
            .flat_map(|p| {
                let (i, j) = eager.pair(p);
                eager.ks(p).iter().map(move |&k| (i, j, k)).collect::<Vec<_>>()
            })
            .step_by(2)
            .collect();
        let plans = [
            SchedulePlan::DenseCube,
            SchedulePlan::CandidatePairs(Arc::new(eager)),
            SchedulePlan::CsrStream(Arc::new(CsrGraph::from_graph(&g))),
            SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_triples(n, &every_other))),
        ];
        for plan in plans {
            for batch in [1usize, 7, 64, usize::MAX] {
                let sched = CountScheduler::with_plan(n, 1, batch, plan.clone());
                let b = sched.batch();
                let mut cut = NetStats::new();
                let mut closed = NetStats::new();
                for chunk in sched.chunks() {
                    let draws = sched.chunk_plan(chunk);
                    // Expanding the rounds' segments group by group
                    // must give back the plan, in order.
                    let mut rebuilt = Vec::new();
                    let mut sizes = Vec::new();
                    let mut pieces = vec![0usize; draws.len()];
                    let mut rounds = plan_rounds(&draws, b);
                    while let Some(round) = rounds.next_round() {
                        for seg in round {
                            prop_assert!(seg.len > 0);
                            rebuilt.extend((seg.offset..seg.offset + seg.len).map(|g| (seg.draw, g)));
                            pieces[seg.draw] += 1;
                        }
                        sizes.push(round.iter().map(|seg| seg.len).sum::<usize>());
                        cut.exchange(3 * *sizes.last().expect("just pushed") as u64);
                    }
                    let want: Vec<(usize, usize)> = draws
                        .iter()
                        .enumerate()
                        .flat_map(|(idx, d)| (0..d.groups as usize).map(move |g| (idx, g)))
                        .collect();
                    prop_assert_eq!(&rebuilt, &want);
                    prop_assert_eq!(want.len() as u64, chunk.triples);
                    // Every round but the chunk's last is exactly full.
                    let (last, full) = sizes.split_last().expect("chunks are non-empty");
                    prop_assert!(full.iter().all(|&len| len == b));
                    prop_assert!((1..=b).contains(last));
                    // A draw longer than a round is split mid-draw.
                    for (d, &count) in draws.iter().zip(&pieces) {
                        prop_assert!(count >= (d.groups as usize).div_ceil(b));
                    }
                    closed.exchange_triples(chunk.triples, b as u64);
                }
                // rounds == batches == Σ_chunks ⌈W_c/b⌉, on the cutter,
                // the closed form and the executor alike.
                let want_rounds: u64 =
                    sched.chunks().iter().map(|c| c.triples.div_ceil(b as u64)).sum();
                prop_assert_eq!(cut, closed);
                prop_assert_eq!(cut.rounds, want_rounds);
                prop_assert_eq!(cut.batches, want_rounds);
                let job = CountJob { plan: plan.clone(), ..job(seed, 1, batch) };
                prop_assert_eq!(count_local(&m, &job).net, closed);
            }
        }
    }
}
