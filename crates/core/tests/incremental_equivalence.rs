//! Delta-replay equivalence suite: the incremental engine must be a
//! *lossless* compression of re-running the pipeline from scratch.
//!
//! The pins, for random graphs and random delta sequences:
//!
//! 1. **Bit-identical shares.** After every epoch, the incremental
//!    counter's `(⟨T⟩₁, ⟨T⟩₂)` equal a from-scratch sparse run on the
//!    updated graph — not approximately, not post-reconstruction:
//!    share for share in `Z_{2^64}`. This works because each triple's
//!    contribution is a pure function of the root seed and its
//!    canonical dealer-stream offset, so the share sum decomposes
//!    over the triangle set no matter which schedule produced it.
//! 2. **Knob invariance.** Epoch outcomes don't change across
//!    `threads × batch × offline-mode`: shares are identical
//!    everywhere; the online `NetStats` is identical at fixed batch
//!    and keeps identical element/byte totals when the batch changes.
//! 3. **Reversibility.** Removing edges and re-adding them restores
//!    the *exact* original share state — the algebraic cancellation
//!    `+u(T) − u(T) = 0` really happens in the ring.
//! 4. **Budget refusal.** A session whose schedule allots `k` epochs
//!    serves exactly `k` and refuses the `(k+1)`-th via the
//!    accountant (an error value, nothing mutated).

use cargo_core::{
    count_local, inline_evaluator, CandidateSet, CargoConfig, CountJob, EdgeDelta,
    EpochCount, IncrementalCounter, SchedulePlan, Session, SessionError,
};
use cargo_graph::{count_triangles, Graph, GraphBuilder};
use cargo_mpc::{OfflineMode, Ring64, SplitMix64};
use proptest::prelude::*;
use std::sync::Arc;

fn random_graph(n: usize, density_tenths: u64, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let threshold = density_tenths.saturating_mul(u64::MAX / 10);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.next_u64() < threshold {
                b.add_edge(u, v).unwrap();
            }
        }
    }
    b.build()
}

/// Random delta batches: adds and removes of arbitrary (possibly
/// redundant) edges, never self-loops.
fn random_epochs(n: u32, seed: u64, epochs: usize, batch: usize) -> Vec<Vec<EdgeDelta>> {
    let mut rng = SplitMix64::new(seed ^ 0xDE17A);
    (0..epochs)
        .map(|_| {
            (0..batch)
                .map(|_| {
                    let u = (rng.next_u64() % n as u64) as u32;
                    let d = 1 + (rng.next_u64() % (n as u64 - 1)) as u32;
                    let v = (u + d) % n;
                    if rng.next_u64() & 1 == 0 {
                        EdgeDelta::Add(u, v)
                    } else {
                        EdgeDelta::Remove(u, v)
                    }
                })
                .collect()
        })
        .collect()
}

/// From-scratch sparse shares of `g` under the same seed and knobs.
fn scratch(g: &Graph, job: &CountJob) -> (Ring64, Ring64) {
    let cs = CandidateSet::from_graph(g);
    if cs.is_empty() {
        return (Ring64::ZERO, Ring64::ZERO);
    }
    let plan = SchedulePlan::CandidatePairs(Arc::new(cs));
    let r = count_local(&g.to_bit_matrix(), &CountJob { plan, ..job.clone() });
    (r.share1, r.share2)
}

/// Replays `epochs` through a fresh incremental counter under the
/// given knobs, returning the per-epoch outcomes.
fn replay(g: &Graph, epochs: &[Vec<EdgeDelta>], job: CountJob) -> Vec<EpochCount> {
    let mut eval = inline_evaluator(job);
    let mut counter = IncrementalCounter::new_with(g.clone(), &mut eval);
    epochs
        .iter()
        .map(|b| counter.apply_with(b, &mut eval).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_replay_is_bit_identical_to_from_scratch(
        n in 8usize..28,
        tenths in 1u64..6,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, tenths, seed);
        let epochs = random_epochs(n as u32, seed, 3, 6);
        let job = CountJob::new(seed ^ 0xC0DE);
        let mut eval = inline_evaluator(job.clone());
        let mut counter = IncrementalCounter::new_with(g, &mut eval);
        for batch in &epochs {
            let ec = counter.apply_with(batch, &mut eval).unwrap();
            let (s1, s2) = scratch(counter.graph(), &job);
            prop_assert_eq!(ec.share1, s1);
            prop_assert_eq!(ec.share2, s2);
            prop_assert_eq!(
                (ec.share1 + ec.share2).to_u64(),
                count_triangles(counter.graph()) as u64
            );
        }
    }

    #[test]
    fn epoch_outcomes_are_invariant_across_the_knob_grid(
        n in 8usize..20,
        tenths in 2u64..6,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, tenths, seed);
        let epochs = random_epochs(n as u32, seed, 2, 5);
        let job = CountJob::new(seed ^ 0xC0DE);
        let base = replay(&g, &epochs, job.clone());

        // Same batch: the whole online NetStats must match, along with
        // the shares, for every thread count and offline mode.
        for (threads, offline) in [(2usize, OfflineMode::TrustedDealer), (3, OfflineMode::OtExtension)] {
            let other = replay(&g, &epochs, CountJob { threads, offline, ..job.clone() });
            for (b, o) in base.iter().zip(&other) {
                prop_assert_eq!(b.share1, o.share1);
                prop_assert_eq!(b.share2, o.share2);
                prop_assert_eq!(b.triples, o.triples);
                prop_assert_eq!(b.net.online(), o.net.online());
            }
        }

        // Different batch: rounds regroup but the element/byte totals
        // and the shares cannot move.
        let other = replay(&g, &epochs, CountJob { batch: 7, ..job });
        for (b, o) in base.iter().zip(&other) {
            prop_assert_eq!(b.share1, o.share1);
            prop_assert_eq!(b.share2, o.share2);
            prop_assert_eq!(b.net.elements, o.net.elements);
            prop_assert_eq!(b.net.bytes, o.net.bytes);
        }
    }

    #[test]
    fn remove_then_re_add_restores_the_exact_share_state(
        n in 8usize..24,
        tenths in 3u64..7,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, tenths, seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for &v in g.neighbors(u).iter().filter(|&&v| (v as usize) > u) {
                edges.push((u as u32, v));
            }
        }
        prop_assume!(!edges.is_empty());
        edges.truncate(5);
        let mut eval = inline_evaluator(CountJob::new(seed ^ 0xC0DE));
        let mut counter = IncrementalCounter::new_with(g.clone(), &mut eval);
        let baseline = counter.shares();
        let removes: Vec<_> = edges.iter().map(|&(u, v)| EdgeDelta::Remove(u, v)).collect();
        let adds: Vec<_> = edges.iter().map(|&(u, v)| EdgeDelta::Add(u, v)).collect();
        counter.apply_with(&removes, &mut eval).unwrap();
        let restored = counter.apply_with(&adds, &mut eval).unwrap();
        prop_assert_eq!(counter.graph(), &g);
        prop_assert_eq!((restored.share1, restored.share2), baseline);
    }
}

/// Real multi-thread scheduling (the in-process planner clamps to one
/// worker below n = 64, so the proptest sizes never exercise it).
#[test]
fn thread_counts_do_not_change_epoch_outcomes_at_scale() {
    let g = random_graph(80, 2, 0xBEEF);
    let epochs = random_epochs(80, 0xBEEF, 2, 12);
    let base = replay(&g, &epochs, CountJob::new(7));
    for threads in [2usize, 4] {
        let other = replay(&g, &epochs, CountJob { threads, ..CountJob::new(7) });
        for (b, o) in base.iter().zip(&other) {
            assert_eq!(b.share1, o.share1, "threads={threads}");
            assert_eq!(b.share2, o.share2);
            assert_eq!(b.net, o.net, "full NetStats equality at fixed batch");
        }
    }
}

/// The acceptance criterion on the budget side: a schedule allotting
/// `k` epochs serves exactly `k` and the accountant — not a panic —
/// refuses the `(k+1)`-th, with the full ε spent.
#[test]
fn session_refuses_the_k_plus_first_release() {
    for k in [1u64, 3, 5] {
        let g = random_graph(16, 4, 99);
        let cfg = CargoConfig::new(1.5).with_seed(3).with_horizon(k);
        let mut s = Session::new(g, &cfg);
        for t in 1..=k {
            let out = s.step(&[EdgeDelta::Add(0, t as u32)]).unwrap();
            assert_eq!(out.epoch, t);
        }
        assert!((s.schedule().accountant().spent() - 1.5).abs() < 1e-9);
        let err = s.step(&[]).unwrap_err();
        assert!(matches!(err, SessionError::Refused(_)), "k={k}: {err}");
        assert_eq!(s.schedule().released(), k);
    }
}
