//! Delta-replay equivalence suite: the incremental engine must be a
//! *lossless* compression of re-running the pipeline from scratch.
//!
//! The pins, for random graphs and random delta sequences:
//!
//! 1. **Incremental ≡ from-scratch at the opening.** After every epoch,
//!    the incremental counter's `(⟨T⟩₁, ⟨T⟩₂)` open to a from-scratch
//!    sparse run's count on the updated graph — exactly, in `Z_{2^64}`.
//!    The shares are the epoch's own: a Count's product material is one
//!    dealer word a pair and one a Count
//!    (`cargo_mpc::PairTable::count_term`), so a share pair does not
//!    decompose over the triangle set; its opening does. OT mode makes
//!    the same words (its offline dialogue derandomises onto them), so
//!    each epoch's share pair is bit for bit the same in both offline
//!    modes.
//! 2. **Knob invariance.** Epoch outcomes don't change across
//!    `threads × batch × offline-mode`: shares are identical across
//!    threads and batches, openings across offline modes; the online
//!    `NetStats` is identical at fixed batch and keeps identical
//!    element/byte totals when the batch changes.
//! 3. **Reversibility.** Removing edges and re-adding them restores
//!    the original opening — the cancellation `+T − T = 0` really
//!    happens in the ring. The shares move, since each epoch's words are
//!    its own Count's, bit for bit alike in both offline modes.
//! 4. **Budget refusal.** A session whose schedule allots `k` epochs
//!    serves exactly `k` and refuses the `(k+1)`-th via the
//!    accountant (an error value, nothing mutated).

use cargo_core::{
    count_local, inline_evaluator, replay_committed, state_digest, CandidateSet, CargoConfig,
    CountJob, DeltaPlan, EdgeDelta, EpochCount, EpochJournal, EpochRecord, IncrementalCounter,
    SchedulePlan, Session, SessionError,
};
use cargo_graph::{count_triangles, Graph, GraphBuilder, GraphError};
use cargo_mpc::{OfflineMode, Ring64, SplitMix64};
use proptest::prelude::*;
use std::collections::HashMap;
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
        let mut shares = Vec::new();
        for offline in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            let job = CountJob { offline, ..CountJob::new(seed ^ 0xC0DE) };
            let mut eval = inline_evaluator(job.clone());
            let mut counter = IncrementalCounter::new_with(g.clone(), &mut eval);
            for batch in &epochs {
                let ec = counter.apply_with(batch, &mut eval).unwrap();
                let (s1, s2) = scratch(counter.graph(), &job);
                prop_assert_eq!(ec.share1 + ec.share2, s1 + s2);
                prop_assert_eq!(
                    (ec.share1 + ec.share2).to_u64(),
                    count_triangles(counter.graph()) as u64
                );
                shares.push((offline, ec.share1, ec.share2));
            }
        }
        // Each epoch's shares are its own plan's, not a scratch run's
        // (the words are per pair and per Count): bit for bit the same
        // in both offline modes.
        let (dealer, ot) = shares.split_at(epochs.len());
        for (d, o) in dealer.iter().zip(ot) {
            prop_assert_eq!((d.1, d.2), (o.1, o.2));
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
        // the shares for every thread count and offline mode.
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
    fn remove_then_re_add_restores_the_count_in_both_modes(
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
        let removes: Vec<_> = edges.iter().map(|&(u, v)| EdgeDelta::Remove(u, v)).collect();
        let adds: Vec<_> = edges.iter().map(|&(u, v)| EdgeDelta::Add(u, v)).collect();
        let mut states = Vec::new();
        for offline in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            let mut eval = inline_evaluator(CountJob { offline, ..CountJob::new(seed ^ 0xC0DE) });
            let mut counter = IncrementalCounter::new_with(g.clone(), &mut eval);
            let baseline = counter.shares();
            counter.apply_with(&removes, &mut eval).unwrap();
            let restored = counter.apply_with(&adds, &mut eval).unwrap();
            prop_assert_eq!(counter.graph(), &g);
            prop_assert_eq!(restored.share1 + restored.share2, baseline.0 + baseline.1);
            states.push((baseline, counter.shares()));
        }
        // Each epoch's words are its own Count's, so the shares move and
        // only the count is restored — bit for bit alike in both modes.
        prop_assert_eq!(states[0], states[1]);
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

/// What a delta plan reports: created and destroyed triangles,
/// `edge_net`, applied and redundant deltas.
type PlanView = (Vec<(u32, u32, u32)>, Vec<(u32, u32, u32)>, Vec<((u32, u32), bool)>, usize, usize);

fn view(plan: &DeltaPlan) -> PlanView {
    (
        plan.created().to_vec(),
        plan.destroyed().to_vec(),
        plan.edge_net().to_vec(),
        plan.applied(),
        plan.redundant(),
    )
}

/// The planner's oracle: the batch replayed one delta at a time into a
/// signed triangle tally, as the first incremental engine planned it.
fn replay_plan(graph: &mut Graph, batch: &[EdgeDelta]) -> Result<PlanView, GraphError> {
    let n = graph.n();
    for d in batch {
        let (u, v) = d.endpoints();
        for w in [u, v] {
            if w as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: w as usize, n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u as usize });
        }
    }
    let ordered = |a: u32, b: u32, c: u32| {
        let mut t = [a, b, c];
        t.sort_unstable();
        (t[0], t[1], t[2])
    };
    let mut tri_net: HashMap<(u32, u32, u32), i32> = HashMap::new();
    let mut edge_tally: HashMap<(u32, u32), i32> = HashMap::new();
    let (mut applied, mut redundant) = (0usize, 0usize);
    for d in batch {
        let (du, dv) = d.endpoints();
        let (u, v) = (du as usize, dv as usize);
        if graph.has_edge(u, v) == d.is_add() {
            redundant += 1;
            continue;
        }
        let step = if d.is_add() { 1 } else { -1 };
        for &w in graph.neighbors(u) {
            if graph.has_edge(v, w as usize) {
                *tri_net.entry(ordered(du, dv, w)).or_insert(0) += step;
            }
        }
        if d.is_add() {
            graph.add_edge(u, v)?;
        } else {
            graph.remove_edge(u, v)?;
        }
        *edge_tally.entry((du.min(dv), du.max(dv))).or_insert(0) += step;
        applied += 1;
    }
    let pick = |sign: i32| {
        let mut ts: Vec<_> = tri_net.iter().filter(|&(_, &c)| c == sign).map(|(&t, _)| t).collect();
        ts.sort_unstable();
        ts
    };
    let mut edge_net: Vec<_> =
        edge_tally.iter().filter(|&(_, &c)| c != 0).map(|(&e, &c)| (e, c > 0)).collect();
    edge_net.sort_unstable();
    Ok((pick(1), pick(-1), edge_net, applied, redundant))
}

/// Plans every batch of `script` from `g` both ways and asserts the
/// two plans, and the graphs they leave, agree batch by batch.
fn assert_planner_matches_replay(g: &Graph, script: &[Vec<EdgeDelta>]) {
    let (mut planned, mut replayed) = (g.clone(), g.clone());
    for (e, batch) in script.iter().enumerate() {
        let want = replay_plan(&mut replayed, batch);
        let got = DeltaPlan::apply(&mut planned, batch);
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(view(&got), want, "batch {e}"),
            (got, want) => assert_eq!(
                format!("{:?}", got.err()),
                format!("{:?}", want.err()),
                "batch {e}"
            ),
        }
        assert_eq!(planned, replayed, "graph after batch {e}");
    }
}

/// A script that hammers a few hot vertices, so batches touch one
/// triangle through several edges, re-touch edges and repeat deltas.
fn hot_script(n: u32, seed: u64, epochs: usize, batch: usize) -> Vec<Vec<EdgeDelta>> {
    let mut rng = SplitMix64::new(seed ^ 0x0A7C1E);
    let hot = n.min(6);
    (0..epochs)
        .map(|_| {
            (0..batch)
                .map(|_| {
                    let pool = if rng.next_u64().is_multiple_of(4) { n } else { hot };
                    let u = (rng.next_u64() % pool as u64) as u32;
                    let v = (u + 1 + (rng.next_u64() % (pool as u64 - 1)) as u32) % pool;
                    if rng.next_u64() & 1 == 0 {
                        EdgeDelta::Add(u, v)
                    } else {
                        EdgeDelta::Remove(v, u)
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_plans_equal_the_sequential_replay(
        n in 4usize..40,
        tenths in 0u64..9,
        seed in any::<u64>(),
        batch in 1usize..40,
    ) {
        let g = random_graph(n, tenths, seed);
        let mut script = hot_script(n as u32, seed, 4, batch);
        script.extend(random_epochs(n as u32, seed, 2, batch));
        assert_planner_matches_replay(&g, &script);
    }
}

/// The shapes the ordered derivatives must get right, on purpose: a
/// triangle whose three edges all change in one batch, both ways; one
/// edge added while another of the same triangle is removed;
/// remove-then-re-add and add-then-remove; redundant and repeated
/// deltas; and one 10⁴-delta batch at n = 400.
#[test]
fn delta_plans_equal_the_sequential_replay_on_named_shapes() {
    use EdgeDelta::{Add, Remove};
    // K5 on 0..5 plus a pendant path 5-6-7.
    let mut b = GraphBuilder::new(9);
    for u in 0..5 {
        for v in (u + 1)..5 {
            b.add_edge(u, v).unwrap();
        }
    }
    b.add_edge(5, 6).unwrap();
    b.add_edge(6, 7).unwrap();
    let g = b.build();
    let script = vec![
        // The whole triangle (0, 1, 2) dies in one batch...
        vec![Remove(0, 1), Remove(2, 1), Remove(0, 2)],
        // ...and is born again in one batch, edges in another order.
        vec![Add(2, 0), Add(0, 1), Add(1, 2)],
        // (5, 6, 7) closes while (0, 1, 3) loses an edge and (0, 3, 4)
        // gains none: one add, one remove in different triangles.
        vec![Add(5, 7), Remove(1, 3)],
        // Triangle (1, 3, 4): one edge added, another removed.
        vec![Add(3, 1), Remove(1, 4)],
        // Remove-then-re-add, add-then-remove, both netting nothing.
        vec![Remove(2, 3), Add(3, 2), Add(1, 4), Remove(4, 1)],
        // Redundant and repeated deltas around real changes.
        vec![Add(0, 1), Add(0, 1), Remove(6, 8), Remove(0, 4), Remove(4, 0), Add(8, 0), Add(0, 8)],
        // Toggles an odd and an even number of times.
        vec![
            Remove(0, 2), Add(0, 2), Remove(0, 2),
            Add(1, 2), Remove(1, 2), Add(1, 2), Remove(1, 2),
        ],
        // A bad endpoint refuses the whole batch.
        vec![Add(0, 3), Add(0, 9)],
        vec![],
    ];
    assert_planner_matches_replay(&g, &script);

    let g = random_graph(400, 1, 0x10_000);
    let big = hot_script(400, 0x10_000, 1, 10_000);
    let mut wide = random_epochs(400, 0x10_001, 1, 10_000);
    wide.extend(big);
    assert_planner_matches_replay(&g, &wide);
}

/// The O(Δ) digest a counter keeps equals the O(m) one recomputed from
/// its graph.
fn assert_digest_is_current(session: &Session, at: &str) {
    let counter = session.counter();
    assert_eq!(counter.digest(), state_digest(counter.epochs(), counter.graph()), "{at}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn kept_digests_equal_recomputed_ones_fresh_replayed_and_resumed(
        n in 6usize..24,
        tenths in 1u64..6,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, tenths, seed);
        let mut script = hot_script(n as u32, seed, 3, 8);
        script.extend(random_epochs(n as u32, seed, 2, 8));
        let cfg = CargoConfig::new(2.0).with_seed(seed).with_horizon(script.len() as u64);
        let mut fresh = Session::new(g.clone(), &cfg);
        assert_digest_is_current(&fresh, "baseline");
        let mut records = Vec::new();
        for (e, batch) in script.iter().enumerate() {
            let out = fresh.step(batch).unwrap();
            assert_digest_is_current(&fresh, &format!("fresh epoch {}", e + 1));
            prop_assert_eq!(out.digest, fresh.counter().digest());
            records.push(EpochRecord::from(&out));
        }
        let dir = std::env::temp_dir()
            .join(format!("cargo-digest-{}-{seed:x}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for cut in 0..=records.len() {
            let path = dir.join(format!("cut{cut}.journal"));
            let _ = std::fs::remove_file(&path);
            let mut journal = EpochJournal::create(&path, &cfg, n).unwrap();
            for record in &records[..cut] {
                journal.append(*record).unwrap();
            }
            let (mut resumed, _) = replay_committed(g.clone(), &cfg, &script, &journal).unwrap();
            assert_digest_is_current(&resumed, &format!("replayed to epoch {cut}"));
            for (e, batch) in script.iter().enumerate().skip(cut) {
                let out = resumed.step(batch).unwrap();
                assert_digest_is_current(&resumed, &format!("cut {cut}, resumed epoch {}", e + 1));
                prop_assert_eq!(EpochRecord::from(&out), records[e]);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
