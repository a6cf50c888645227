//! SIMD/scalar equivalence suite for the OT-extension inner loops.
//!
//! The vectorised transpose ([`cols_to_rows_simd`]) and batch
//! correlation-robust hash ([`cr_hash_batch`]) are the hot paths of
//! the offline phase; the scalar kernels ([`cols_to_rows_scalar`],
//! [`cr_hash_scalar`]) are retained as A/B references. This suite pins
//! the vector paths **bit-exactly** against the references over random
//! matrices and every dispatch tier the host CPU supports — the
//! force-portable generic body always included
//! ([`SimdTier::available`] ends with [`SimdTier::Portable`]), so the
//! property holds even on machines with no vector units at all. A
//! final end-to-end property checks the one-pass extension
//! (`extend`/`absorb`) at every tier: each unit of 64 OTs yields the
//! Gilboa product `a · r`, and every tier sends the same words.

use cargo_mpc::ot::{cot_finish, simulated_base_ots, UnitSplit, OT_KAPPA};
use cargo_mpc::{
    cols_to_rows_scalar, cols_to_rows_simd, cr_hash_batch, cr_hash_scalar, SimdTier, SplitMix64,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The SoA transpose matches the scalar reference row-for-row at
    /// every supported tier, for every slab width (vector main loop,
    /// scalar tail, and mixes of both — `words` sweeps below, at, and
    /// above the 8-block lane width).
    #[test]
    fn transpose_matches_scalar_reference_at_every_tier(
        words in 1usize..22,
        seed in any::<u64>(),
    ) {
        let mut g = SplitMix64::new(seed);
        let cols: Vec<u64> = (0..OT_KAPPA * words).map(|_| g.next_u64()).collect();
        let reference = cols_to_rows_scalar(&cols, words);
        for tier in SimdTier::available() {
            let (lo, hi) = cols_to_rows_simd(tier, &cols, words);
            prop_assert_eq!(lo.len(), 64 * words);
            prop_assert_eq!(hi.len(), 64 * words);
            for (j, r) in reference.iter().enumerate() {
                prop_assert!(
                    [lo[j], hi[j]] == *r,
                    "tier {tier}, words {words}, row {j}: {:?} != {:?}",
                    [lo[j], hi[j]],
                    r
                );
            }
        }
    }

    /// The batch hash matches the scalar reference per row at every
    /// supported tier, including the xor-delta (sender pad) branch and
    /// non-lane-multiple batch lengths.
    #[test]
    fn hash_matches_scalar_reference_at_every_tier(
        n in 1usize..100,
        tweak0 in any::<u64>(),
        d0 in any::<u64>(),
        d1 in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut g = SplitMix64::new(seed);
        let lo: Vec<u64> = (0..n).map(|_| g.next_u64()).collect();
        let hi: Vec<u64> = (0..n).map(|_| g.next_u64()).collect();
        for delta in [[0u64, 0u64], [d0, d1]] {
            for tier in SimdTier::available() {
                let mut out = vec![0u64; n];
                cr_hash_batch(tier, tweak0, &lo, &hi, delta, &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let want = cr_hash_scalar(
                        tweak0.wrapping_add(j as u64),
                        [lo[j] ^ delta[0], hi[j] ^ delta[1]],
                    );
                    prop_assert!(got == want, "tier {tier}, row {j}: {got:#x} != {want:#x}");
                }
            }
        }
    }

    /// End to end: the one-pass extension at every tier turns each
    /// unit of 64 OTs into a Gilboa product — the sender's `−Σ m⁰`
    /// plus the receiver's finished sum is `a · r` in `Z_{2^64}` — for
    /// arbitrary seeds, correlations and choice words, over batch
    /// lengths below, at and above the 8-word lane block (tail lanes),
    /// and every tier produces the same `u`, corrections and sums.
    #[test]
    fn extension_flow_stays_correlated(
        seed in any::<u64>(),
        words in 1usize..22,
        value_seed in any::<u64>(),
    ) {
        let mut g = SplitMix64::new(value_seed);
        let choice: Vec<u64> = (0..words).map(|_| g.next_u64()).collect();
        let a: Vec<u64> = (0..words).map(|_| g.next_u64()).collect();
        check_gilboa_products(seed, &choice, &a)?;
    }
}

/// The property of `extension_flow_stays_correlated` for one batch.
fn check_gilboa_products(seed: u64, choice: &[u64], a: &[u64]) -> Result<(), TestCaseError> {
    let words = choice.len();
    let mut first = None;
    for tier in SimdTier::available() {
        let (mut sender, mut receiver) = simulated_base_ots(seed);
        let (mut u, mut recv_sums) = (vec![0u64; OT_KAPPA * words], vec![0u64; words]);
        receiver.extend(tier, choice, &mut u, &mut recv_sums);
        let (mut d, mut m0_sums) = (vec![0u64; 64 * words], vec![0u64; words]);
        sender.absorb(tier, &u, a, UnitSplit::ALL_SENT, &mut d, &mut [], &mut m0_sums);
        for b in 0..words {
            let got = cot_finish(recv_sums[b], choice[b], &d[64 * b..][..64]).wrapping_sub(m0_sums[b]);
            let want = a[b].wrapping_mul(choice[b]);
            prop_assert!(got == want, "tier {tier}, unit {b}: {got:#x} != {want:#x}");
        }
        let words_sent = (u, d, recv_sums, m0_sums);
        match &first {
            None => first = Some(words_sent),
            Some(want) => prop_assert!(*want == words_sent, "tier {tier} differs from the first tier"),
        }
    }
    Ok(())
}

/// Non-property pin: a 130-word batch (sixteen full 8-word blocks and a
/// ragged tail, more than the old 64-word slab) keeps every product
/// exact at every tier — guards against per-block tweak or counter
/// bases drifting.
#[test]
fn extension_spanning_multiple_slabs_stays_correlated() {
    let choice: Vec<u64> = (0..130u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
    let a: Vec<u64> = (0..130u64).map(|i| 42 + i.wrapping_mul(0xBF58476D1CE4E5B9)).collect();
    check_gilboa_products(0xA5A5_5A5A, &choice, &a).expect("products hold");
}
