//! Offline/online equivalence suite: the OT-extension offline phase
//! must be a *cost* change, never a *value* change.
//!
//! For arbitrary (asymmetric) bit matrices, `OfflineMode::OtExtension`
//! and `OfflineMode::TrustedDealer` must produce identical
//! reconstructions and identical **online** `NetStats` ledgers on every
//! Count path — while the OT mode's offline ledger follows the pinned
//! chunk-amortised formula exactly: one extension session per scheduler
//! chunk, one five-round dialogue and digest pair per flight
//! ([`cargo_mpc::plan_flights`]), payload bytes linear in the
//! Multiplication Groups. The share pairs differ by design — dealer
//! words are per pair, OT groups per triple — so OT mode's share pair is
//! pinned to `secure_count_reference`, the per-triple MG protocol over
//! the same canonical groups. Because S₂'s shares are assembled from OT
//! outputs plus public derandomisation offsets (see `cargo_mpc::offline`),
//! that share equality is a genuine end-to-end check of the IKNP
//! extension and the Gilboa multiplications, not a tautology.

use cargo_core::{
    count_local, count_sampled, count_two_party, secure_count_reference, CountJob, CountScheduler,
    OfflineMode,
};
use cargo_graph::BitMatrix;
use cargo_mpc::offline::{MG_EXT_OTS_PER_GROUP, MG_OFFLINE_BYTES_PER_GROUP};
use cargo_mpc::{chunk_offline_ledger, memory_pair, OfflineLedger, SplitMix64};
use proptest::prelude::*;
use std::sync::Arc;

fn job(seed: u64, threads: usize, batch: usize, offline: OfflineMode) -> CountJob {
    CountJob { threads, batch, offline, ..CountJob::new(seed) }
}

/// Strategy: an arbitrary n×n bit matrix (not necessarily symmetric)
/// with a seeded density in (0, 1). Kept small: OT mode pays 512
/// extended OTs per triple.
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

/// The closed-form offline cost of an exact count: one base-OT setup
/// plus, per scheduler chunk, [`chunk_offline_ledger`] of the chunk's
/// plan (one draw per pair, the full `k`-range each). Depends on `n`
/// only — the scheduler's chunk partition is worker-invariant, and
/// the flight structure ignores the online batch size. This is the
/// fixture the ledger is pinned to.
fn expected_offline(n: usize) -> OfflineLedger {
    let sched = CountScheduler::new(n, 1, 0);
    let mut ledger = OfflineLedger::new();
    for chunk in sched.chunks() {
        ledger.merge(&chunk_offline_ledger(&sched.chunk_plan(chunk)));
    }
    if !sched.chunks().is_empty() {
        ledger.merge(&cargo_mpc::ot_setup_ledger());
    }
    ledger
}

#[test]
fn offline_cost_formula_is_pinned() {
    // Golden fixture for the chunk-amortised cost model: n = 10.
    //   C(10,3) = 120 MGs ≤ 512 ⇒ ONE chunk, ONE flight:
    //   5 rounds + 2 base-OT rounds, one 16 B digest pair.
    //   bytes = 120·12 320 + 16 + 16 384 = 1 494 800.
    // (The pre-amortisation engine paid 5 rounds and a digest per
    // k-block: 232 rounds and 1 495 520 bytes on the same input.)
    let m = BitMatrix::zeros(10);
    for batch in [1usize, 4, 0] {
        let res = count_local(&m, &job(1, 1, batch, OfflineMode::OtExtension));
        assert_eq!(res.triples, 120);
        let off = res.net.offline;
        assert_eq!(off.base_ots, 256);
        assert_eq!(off.extended_ots, 512 * 120);
        assert_eq!(off, expected_offline(10), "batch {batch}");
        // Absolute numbers, hard-coded so any formula change must be
        // a deliberate, reviewed edit:
        assert_eq!(off.bytes, 1_494_800);
        assert_eq!(off.rounds, 5 + 2);
    }
}

#[test]
fn offline_rounds_follow_the_chunk_flight_structure() {
    // n = 30: C(30,3) = 4 060 triples spread over several 512-triple
    // chunks — the rounds/digest terms must follow the scheduler's
    // chunk × flight structure exactly, and nothing else.
    let m = BitMatrix::zeros(30);
    let res = count_local(&m, &job(3, 1, 0, OfflineMode::OtExtension));
    assert_eq!(res.triples, 4060);
    let off = res.net.offline;
    assert_eq!(off, expected_offline(30));
    assert_eq!(off.extended_ots, 512 * 4060);
    let sched = CountScheduler::new(30, 1, 0);
    let flights: u64 = sched
        .chunks()
        .iter()
        .map(|c| cargo_mpc::plan_flights(&sched.chunk_plan(c)).len() as u64)
        .sum();
    assert!(flights >= sched.chunks().len() as u64);
    assert_eq!(off.rounds, 5 * flights + 2);
    assert_eq!(
        off.bytes,
        MG_OFFLINE_BYTES_PER_GROUP * 4060 + 16 * flights + 16_384
    );
    // The amortisation claim, concretely: the pre-amortisation engine
    // paid 5 rounds per (pair, k-block) — 406 pairs ⇒ ≥ 2 030 rounds.
    // The chunk session pays 5 per flight.
    assert!(off.rounds < 100, "{} rounds", off.rounds);
    assert_eq!(MG_EXT_OTS_PER_GROUP, 512);
}

#[test]
fn empty_and_tiny_matrices_cost_nothing_offline() {
    for n in [0usize, 1, 2] {
        let m = BitMatrix::zeros(n);
        let res = count_local(&m, &job(1, 1, 0, OfflineMode::OtExtension));
        assert!(res.net.offline.is_empty(), "n = {n}: no pairs, no setup");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn ot_and_dealer_modes_open_identically(
        m in arb_bit_matrix(16),
        seed: u64,
        batch in 1usize..10,
    ) {
        let dealer = count_local(&m, &job(seed, 1, batch, OfflineMode::TrustedDealer));
        let ot = count_local(&m, &job(seed, 1, batch, OfflineMode::OtExtension));
        // Identical openings; OT mode's share pair itself is the
        // per-triple reference's.
        let reference = secure_count_reference(&m, seed);
        prop_assert_eq!((ot.share1, ot.share2), (reference.share1, reference.share2));
        prop_assert_eq!(ot.reconstruct(), dealer.reconstruct());
        prop_assert_eq!(ot.triples, dealer.triples);
        // Identical ONLINE ledgers; the offline ledger follows the
        // pinned chunk-amortised formula — independent of the online
        // batch size.
        prop_assert_eq!(ot.net.online(), dealer.net.online());
        prop_assert!(dealer.net.offline.is_empty());
        prop_assert_eq!(ot.net.offline, expected_offline(m.n()));
    }

    #[test]
    fn ot_runtime_and_kernel_agree_on_random_graphs(
        m in arb_bit_matrix(12),
        seed: u64,
    ) {
        let fast = count_local(&m, &job(seed, 1, 4, OfflineMode::OtExtension));
        let (end1, end2) = memory_pair();
        let rt = count_two_party(
            &m, &job(seed, 2, 4, OfflineMode::OtExtension), &Arc::new(end1), &Arc::new(end2));
        prop_assert_eq!(rt.share1, fast.share1);
        prop_assert_eq!(rt.share2, fast.share2);
        // Full NetStats equality, offline ledger included.
        prop_assert_eq!(rt.net, fast.net);
    }

    #[test]
    fn sampled_estimator_is_mode_invariant(
        m in arb_bit_matrix(14),
        seed: u64,
        rate_tenths in 1u32..=10,
    ) {
        let rate = rate_tenths as f64 / 10.0;
        let dealer = count_sampled(&m, rate, &job(seed, 1, 6, OfflineMode::TrustedDealer));
        let ot = count_sampled(&m, rate, &job(seed, 1, 6, OfflineMode::OtExtension));
        prop_assert_eq!(ot.reconstruct_raw(), dealer.reconstruct_raw());
        prop_assert_eq!(ot.evaluated, dealer.evaluated);
        prop_assert_eq!(ot.net.online(), dealer.net.online());
        // Payload OTs are per sampled triple; rounds amortise per
        // chunk session, so they are bounded by the exact count's.
        prop_assert_eq!(ot.net.offline.extended_ots, 512 * dealer.evaluated);
        prop_assert!(ot.net.offline.rounds <= expected_offline(m.n()).rounds);
    }
}
