//! Serve mode opens every pair at one value under its one mask.
//!
//! A Count keys its masks by pair (`e_ij = a_ij − λ_ij`, PROTOCOL.md
//! §5), and the mask is a function of the Count seed and the pair only,
//! so a serve run — a baseline Count and one signed Count an epoch, all
//! under one seed — opens a pair under the same mask in every Count that
//! reads it. That is safe exactly while the pair is opened at one value:
//! two values would open their difference. This suite pins the
//! invariant PROTOCOL.md §10.4 states: every pair the baseline plan or
//! an epoch's signed plan reads is 1 in the matrix that Count
//! evaluates — the baseline counts the graph's own triangles, and an
//! epoch counts its created and destroyed triangles over pre ∪ post —
//! so across a whole run no pair is opened at two values.

use cargo_core::{count_local, CountJob, CountScheduler, EdgeDelta, IncrementalCounter, SchedulePlan};
use cargo_graph::{BitMatrix, Graph, GraphBuilder};
use cargo_mpc::SplitMix64;
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// Random delta batches, adds and removes of arbitrary (possibly
/// redundant) edges.
fn random_epochs(n: u32, seed: u64, epochs: usize, batch: usize) -> Vec<Vec<EdgeDelta>> {
    let mut rng = SplitMix64::new(seed ^ 0x5E4E);
    (0..epochs)
        .map(|_| {
            (0..batch)
                .map(|_| {
                    let u = (rng.next_u64() % n as u64) as u32;
                    let v = (u + 1 + (rng.next_u64() % (n as u64 - 1)) as u32) % n;
                    match rng.next_u64() & 1 {
                        0 => EdgeDelta::Add(u, v),
                        _ => EdgeDelta::Remove(u, v),
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_serve_run_opens_every_pair_at_one_under_its_one_mask(
        n in 5usize..28,
        density in 2u64..8,
        seed: u64,
        epochs in 1usize..8,
        batch in 1usize..10,
    ) {
        let job = CountJob::new(seed);
        // Every pair some Count of the run opened, and its bit there.
        let mut opened: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut counts = 0usize;
        let mut eval = |m: &BitMatrix, plan: SchedulePlan| {
            let pairs = CountScheduler::with_plan(m.n(), 1, 0, plan.clone()).pair_set();
            pairs.for_each_run(0..pairs.len(), |_, i, j, len| {
                for k in j..j + len as u32 {
                    let bit = u64::from(m.get(i as usize, k as usize));
                    assert_eq!(bit, 1, "Count {counts} reads pair ({i}, {k}) at 0");
                    let first = *opened.entry((i, k)).or_insert(bit);
                    assert_eq!(first, bit, "pair ({i}, {k}) opened at two values");
                }
            });
            counts += 1;
            count_local(m, &CountJob { plan, ..job.clone() })
        };
        let mut counter = IncrementalCounter::new_with(random_graph(n, density, seed), &mut eval);
        for batch in random_epochs(n as u32, seed, epochs, batch) {
            counter.apply_with(&batch, &mut eval).expect("endpoints in range");
        }
        // The run opened something whenever its graphs had a triangle.
        prop_assert!(counts == 0 || !opened.is_empty());
    }
}
