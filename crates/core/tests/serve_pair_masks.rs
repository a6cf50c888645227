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
//!
//! It also pins what a serve run makes of that: a pair's opening never
//! changes, so the run keeps them ([`OpenedPairs`]) and each Count
//! exchanges only the pairs of its plan no earlier Count opened. An
//! epoch then costs `⌈new ÷ batch⌉ + 1` rounds and `16·new + 16` bytes
//! on the wire — the `+ 1` and the 16 its final opening.

use cargo_core::{
    count_local, count_local_reusing, CargoConfig, CountJob, CountScheduler, EdgeDelta,
    EpochOutcome, IncrementalCounter, OpenedPairs, PartySession, SchedulePlan, Session,
};
use cargo_graph::{BitMatrix, Graph, GraphBuilder};
use cargo_mpc::{mask_prf, ServerId, SplitMix64, TcpConfig, TcpTransport, Transport};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
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

/// The pairs `plan` reads over `n` vertices, in canonical order.
fn plan_pairs(n: usize, plan: &SchedulePlan) -> Vec<(u32, u32)> {
    let pairs = CountScheduler::with_plan(n, 1, 0, plan.clone()).pair_set();
    let mut out = Vec::with_capacity(pairs.len());
    pairs.for_each_run(0..pairs.len(), |_, i, j, len| {
        out.extend((j..j + len as u32).map(|k| (i, k)));
    });
    out
}

/// Pair `(i, j)`'s opening at the value 1 under the Count seed `seed`:
/// `1 − λ⁽¹⁾ − λ⁽²⁾`.
fn opening_at_one(seed: u64, (i, j): (u32, u32)) -> u64 {
    let [l1, l2] = [ServerId::S1, ServerId::S2].map(|s| mask_prf(seed, s, i, j));
    1u64.wrapping_sub(l1).wrapping_sub(l2)
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
            Ok(count_local(m, &CountJob { plan, ..job.clone() }))
        };
        let mut counter = IncrementalCounter::new_with(random_graph(n, density, seed), &mut eval).expect("in process");
        for batch in random_epochs(n as u32, seed, epochs, batch) {
            counter.apply_with(&batch, &mut eval).expect("endpoints in range");
        }
        // The run opened something whenever its graphs had a triangle.
        prop_assert!(counts == 0 || !opened.is_empty());
    }

    #[test]
    fn a_serve_count_exchanges_only_the_pairs_no_earlier_count_opened(
        n in 5usize..28,
        density in 2u64..8,
        seed: u64,
        epochs in 1usize..8,
        batch in 1usize..10,
        rounds_of in 1usize..6,
    ) {
        let job = CountJob { batch: rounds_of, ..CountJob::new(seed) };
        let mut kept = OpenedPairs::new(seed, n);
        let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut eval = |m: &BitMatrix, plan: SchedulePlan| {
            let pairs = plan_pairs(m.n(), &plan);
            let new = pairs.iter().filter(|&&p| seen.insert(p)).count() as u64;
            let count = CountJob { plan, ..job.clone() };
            let res = count_local_reusing(m, &count, Some(&mut kept));
            // A Count that exchanges every pair computes the same share
            // pair; this one sends the new pairs' words alone.
            let plain = count_local(m, &count);
            assert_eq!((res.share1, res.share2, res.triples), (plain.share1, plain.share2, plain.triples));
            assert_eq!(res.net.elements, 2 * new, "each new pair once each way, no kept one");
            let per_round = CountScheduler::with_plan(m.n(), 1, rounds_of, count.plan.clone()).batch();
            assert_eq!(res.net.rounds, new.div_ceil(per_round as u64));
            // Every pair the Count read is kept, at its reopening.
            for &p in &pairs {
                assert_eq!(kept.get(p.0, p.1), Some(opening_at_one(seed, p)), "pair {p:?}");
            }
            assert_eq!(kept.len(), seen.len());
            Ok(res)
        };
        let mut counter = IncrementalCounter::new_with(random_graph(n, density, seed), &mut eval).expect("in process");
        for batch in random_epochs(n as u32, seed, epochs, batch) {
            counter.apply_with(&batch, &mut eval).expect("endpoints in range");
        }
    }
}

/// Each epoch's new pairs — those its Count opens for the first time in
/// the run, zero for an epoch with no Count — replayed in process.
fn new_pairs_per_epoch(base: &Graph, epochs: &[Vec<EdgeDelta>]) -> Vec<u64> {
    let (mut seen, new) = (BTreeSet::new(), Cell::new(0u64));
    let mut eval = |m: &BitMatrix, plan: SchedulePlan| {
        new.set(plan_pairs(m.n(), &plan).into_iter().filter(|&p| seen.insert(p)).count() as u64);
        Ok(count_local(m, &CountJob { plan, ..CountJob::new(0) }))
    };
    let mut counter = IncrementalCounter::new_with(base.clone(), &mut eval).expect("in process");
    let mut each = |batch: &Vec<EdgeDelta>| {
        new.set(0);
        counter.apply_with(batch, &mut eval).expect("endpoints in range");
        new.get()
    };
    epochs.iter().map(&mut each).collect()
}

/// Steps two party sessions over a loopback TCP pair through `epochs`:
/// S₁'s outcomes, each beside the frames S₁ sent in the epoch.
fn tcp_epochs(base: &Graph, cfg: &CargoConfig, epochs: &[Vec<EdgeDelta>]) -> Vec<(EpochOutcome, u64)> {
    let (end1, end2, _) = TcpTransport::loopback_pair(&TcpConfig::default()).expect("loopback pair");
    let (end1, end2) = (Arc::new(end1), Arc::new(end2));
    std::thread::scope(|scope| {
        let s2 = scope.spawn(|| {
            let mut s2 = PartySession::new(base.clone(), cfg, ServerId::S2, end2).expect("S2 baseline");
            epochs.iter().map(|b| s2.step(b).expect("S2 epoch")).collect::<Vec<_>>()
        });
        let mut s1 = PartySession::new(base.clone(), cfg, ServerId::S1, Arc::clone(&end1)).expect("S1 baseline");
        let outs: Vec<_> = epochs
            .iter()
            .map(|b| {
                let before = end1.stats().frames_sent;
                let out = s1.step(b).expect("S1 epoch");
                (out, end1.stats().frames_sent - before)
            })
            .collect();
        let theirs = s2.join().expect("S2 panicked");
        assert!(outs.iter().map(|o| &o.0).eq(&theirs), "the parties' transcripts agree");
        outs
    })
}

#[test]
fn a_tcp_epoch_costs_its_new_pairs_rounds_plus_the_opening() {
    // Over real sockets, epoch by epoch: rounds ⌈new ÷ batch⌉ + 1 and
    // 16·new + 16 bytes, measured == modeled, one frame a round plus
    // the commit — and the transcript is the in-process session's.
    let base = random_graph(30, 3, 11);
    let epochs = random_epochs(30, 11, 8, 10);
    let cfg = CargoConfig { batch: 3, ..CargoConfig::new(2.0).with_seed(5).with_horizon(epochs.len() as u64) };
    let news = new_pairs_per_epoch(&base, &epochs);
    assert!(news.iter().any(|&new| new > 3), "some epoch opens more than a round: {news:?}");
    let mut local = Session::new(base.clone(), &cfg);
    for ((out, frames), new) in tcp_epochs(&base, &cfg, &epochs).iter().zip(news) {
        let at = format!("epoch {}, {new} new pairs", out.epoch);
        assert_eq!(out.net.rounds, new.div_ceil(3) + 1, "{at}");
        assert_eq!((out.net.elements, out.net.bytes), (2 * new + 2, 16 * new + 16), "{at}");
        assert_eq!(out.net.wire_bytes, out.net.bytes, "{at}: measured == modeled");
        assert_eq!(*frames, out.net.rounds + 1, "{at}: a frame a round, and the commit");
        assert_eq!(out, &local.step(&epochs[out.epoch as usize - 1]).unwrap(), "{at}");
    }
}

#[test]
fn a_destroy_only_epoch_over_tcp_sends_no_pair_frame() {
    // Every triangle an epoch destroys was counted when it was created
    // or at the baseline, so its pairs are kept: a destroy-only epoch
    // is its final opening alone — one round, 16 bytes — and S₁ sends
    // only the commit and that opening.
    let base = random_graph(24, 5, 3);
    let u = (0..24).find(|&u| !base.neighbors(u).is_empty()).unwrap();
    let v = base.neighbors(u)[0];
    let (remove, add) = (EdgeDelta::Remove(u as u32, v), EdgeDelta::Add(u as u32, v));
    let epochs = vec![vec![remove], vec![add], vec![remove]];
    let cfg = CargoConfig::new(2.0).with_seed(8).with_horizon(3);
    let outs = tcp_epochs(&base, &cfg, &epochs);
    for (out, frames) in [&outs[0], &outs[2]] {
        assert!(out.destroyed > 0 && out.created == 0, "epoch {} destroys only", out.epoch);
        assert_eq!((out.net.rounds, out.net.bytes, out.net.wire_bytes), (1, 16, 16));
        assert_eq!(*frames, 2, "the commit and the final opening, no pair frame");
    }
    // Re-adding the edge re-creates the triangles over kept pairs too.
    assert_eq!((outs[1].0.net.rounds, outs[1].0.net.bytes, outs[1].1), (1, 16, 2));
}
