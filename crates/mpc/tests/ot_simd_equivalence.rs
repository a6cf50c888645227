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
//! final end-to-end property checks the key extension
//! (`extend`/`absorb`) and the vector OLE (`correct`/`receive`) at
//! every tier: each element yields the Gilboa product of its
//! correlation and its unit's choice word, and every tier sends the
//! same words.

use cargo_mpc::ot::{simulated_base_ots, OleElement, OT_KAPPA};
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

    /// End to end: the extension and the vector OLE at every tier turn
    /// each element into a Gilboa product — the sender's `−Σ m⁰` plus
    /// the receiver's sum is `a · r` in `Z_{2^64}` — for arbitrary
    /// seeds, correlations and choice words, with every unit reused by
    /// three elements under distinct tweaks, over batch lengths below,
    /// at and above the 8-word transpose block, and every tier produces
    /// the same `u`, corrections and sums.
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

/// The property of `extension_flow_stays_correlated` for one batch:
/// three elements per unit, element `e` correlated by `a[e / 3]` shifted
/// by `e % 3`.
fn check_gilboa_products(seed: u64, choice: &[u64], a: &[u64]) -> Result<(), TestCaseError> {
    let words = choice.len();
    let elements: Vec<OleElement> =
        (0..3 * words).map(|e| OleElement { unit: (e / 3) as u32, tweak: 64 * e as u64 + 7 }).collect();
    let corr: Vec<u64> = (0..3 * words).map(|e| a[e / 3] << (e % 3)).collect();
    let mut first = None;
    for tier in SimdTier::available() {
        let (mut sender, mut receiver) = simulated_base_ots(seed);
        let mut u = vec![0u64; OT_KAPPA * words];
        receiver.extend(tier, choice, &mut u);
        sender.absorb(tier, &u);
        let (mut d, mut m0_sums) = (vec![0u64; 64 * elements.len()], vec![0u64; elements.len()]);
        sender.correct(tier, &elements, &corr, &mut d, &mut m0_sums);
        let mut recv_sums = vec![0u64; elements.len()];
        receiver.receive(tier, &elements, &d, &mut recv_sums);
        for (e, (r, m)) in recv_sums.iter().zip(&m0_sums).enumerate() {
            let got = r.wrapping_sub(*m);
            let want = corr[e].wrapping_mul(choice[e / 3]);
            prop_assert!(got == want, "tier {tier}, element {e}: {got:#x} != {want:#x}");
        }
        let words_sent = (u, d, recv_sums, m0_sums);
        match &first {
            None => first = Some(words_sent),
            Some(want) => prop_assert!(*want == words_sent, "tier {tier} differs from the first tier"),
        }
    }
    Ok(())
}

/// Non-property pin: a 130-word batch (sixteen full 8-word transpose
/// blocks and a ragged tail) keeps every product exact at every tier —
/// guards against per-block tweak or counter bases drifting.
#[test]
fn extension_spanning_multiple_slabs_stays_correlated() {
    let choice: Vec<u64> = (0..130u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
    let a: Vec<u64> = (0..130u64).map(|i| 42 + i.wrapping_mul(0xBF58476D1CE4E5B9)).collect();
    check_gilboa_products(0xA5A5_5A5A, &choice, &a).expect("products hold");
}
