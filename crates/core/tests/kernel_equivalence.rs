//! Kernel-equivalence property suite: `count_local` — each server's
//! weighted pass over a chunk's runs — may change *how* the
//! Multiplication-Group arithmetic is scheduled, but never *what* it
//! opens.
//!
//! The oracle is `secure_count_reference`, which drives the protocol
//! objects one `mul3` call per triple on the same canonical streams
//! (input shares from `share_prf`, groups from each pair's dealer
//! stream). For arbitrary (asymmetric!) bit matrices, `count_local`
//! must reproduce its opened count, triple count and element/byte
//! ledger exactly — across `threads × batch`, with dealer and OT
//! material, on the exact count, on the sampled estimator at rate 1,
//! and on the golden fixtures. Both materials are per pair and per
//! Count, so a share pair is pinned to the aggregated oracle
//! (`count.rs`'s unit tests), here to itself across the knobs, and the
//! OT mode's to the dealer's bit for bit. Rounds are not compared: the
//! reference opens one pair a round.

use cargo_core::{
    count_local, count_sampled, secure_count_reference, CountJob, OfflineMode, SecureCountResult,
};
use cargo_graph::BitMatrix;
use cargo_mpc::SplitMix64;
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];
const BATCHES: [usize; 3] = [1, 7, 64];

fn job(seed: u64, threads: usize, batch: usize, offline: OfflineMode) -> CountJob {
    CountJob { threads, batch, offline, ..CountJob::new(seed) }
}

/// What `count_local` shares with the reference: the opened count,
/// the triple count, and the elements and bytes the openings move.
fn opened_view(r: &SecureCountResult) -> (u64, u64, u64, u64) {
    (r.reconstruct().0, r.triples, r.net.elements, r.net.bytes)
}

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
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kernels_agree_on_the_exact_count(
        m in arb_bit_matrix(40),
        seed: u64,
    ) {
        let want = opened_view(&secure_count_reference(&m, seed));
        let base = count_local(&m, &job(seed, 1, 1, OfflineMode::TrustedDealer));
        for threads in THREADS {
            for batch in BATCHES {
                let local = count_local(&m, &job(seed, threads, batch, OfflineMode::TrustedDealer));
                // The reference's opening and element/byte ledger, and
                // one share pair across the knobs.
                let got = opened_view(&local);
                prop_assert!(got == want, "threads {threads} batch {batch}: {got:?} ≠ {want:?}");
                prop_assert_eq!((local.share1, local.share2), (base.share1, base.share2));
            }
        }
    }

    #[test]
    fn kernels_agree_under_the_ot_offline_mode(
        m in arb_bit_matrix(14),
        seed: u64,
        batch in 1usize..10,
    ) {
        // The offline dialogue derandomises onto the dealer's words: the
        // reference's opening, the dealer's share pair.
        let want = opened_view(&secure_count_reference(&m, seed));
        let local = count_local(&m, &job(seed, 1, batch, OfflineMode::OtExtension));
        let got = opened_view(&local);
        prop_assert!(got == want, "{got:?} ≠ {want:?}");
        let dealer = count_local(&m, &job(seed, 1, batch, OfflineMode::TrustedDealer));
        prop_assert_eq!((local.share1, local.share2), (dealer.share1, dealer.share2));
        prop_assert!(!local.net.offline.is_empty());
    }

    #[test]
    fn kernels_agree_on_the_sampled_estimator(
        m in arb_bit_matrix(30),
        seed: u64,
        rate_tenths in 1u32..10,
        batch in 1usize..12,
    ) {
        // At rate 1 the sampled plan is the cube, so the estimator opens
        // the reference's count; at any rate the material source cannot
        // move a share or the online ledger.
        let want = opened_view(&secure_count_reference(&m, seed));
        let rate = rate_tenths as f64 / 10.0;
        let dealer = job(seed, 1, batch, OfflineMode::TrustedDealer);
        let ot = job(seed, 1, batch, OfflineMode::OtExtension);
        for r in [1.0, rate] {
            let by_dealer = count_sampled(&m, r, &dealer);
            let by_ot = count_sampled(&m, r, &ot);
            prop_assert_eq!((by_ot.share1, by_ot.share2), (by_dealer.share1, by_dealer.share2));
            prop_assert_eq!(by_ot.evaluated, by_dealer.evaluated);
            prop_assert_eq!(by_ot.net.online(), by_dealer.net);
            if r == 1.0 {
                let got = (by_ot.reconstruct_raw().0, by_ot.evaluated);
                prop_assert_eq!(got, (want.0, want.1));
                prop_assert_eq!((by_dealer.net.elements, by_dealer.net.bytes), (want.2, want.3));
            }
        }
    }
}

#[test]
fn kernels_agree_on_golden_fixtures() {
    // Deterministic anchor alongside the property tests: every golden
    // graph against the reference at the opening, in both modes, and
    // OT share for share with the dealer.
    for f in cargo_testutil::golden_fixtures() {
        let m = f.graph.to_bit_matrix();
        let local = count_local(&m, &job(0xCA60, 2, 0, OfflineMode::TrustedDealer));
        let reference = secure_count_reference(&m, 0xCA60);
        assert_eq!(opened_view(&local), opened_view(&reference), "{}", f.name);
        assert_eq!(local.reconstruct(), cargo_mpc::Ring64(f.triangles), "{}", f.name);
        let ot = count_local(&m, &job(0xCA60, 2, 0, OfflineMode::OtExtension));
        assert_eq!(opened_view(&ot), opened_view(&reference), "{} OT", f.name);
        assert_eq!((ot.share1, ot.share2), (local.share1, local.share2), "{} OT", f.name);
    }
}
