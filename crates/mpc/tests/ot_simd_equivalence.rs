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
//! same words. The corrections travel packed — OT `j` of a unit keeps
//! the low `64 − j` bits of its correction — and the last properties
//! pin that packing: it keeps exactly those bits, the bits it drops
//! never reach the receiver's sums, the products hold at the edge
//! values, and an odd batch is refused.

use cargo_mpc::ot::{
    pack_corrections, packed_words, simulated_base_ots, unpack_corrections, CotReceiver, CotSender,
    OleElement, CORRECTION_BYTES, OT_KAPPA,
};
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
    /// each element into a Gilboa product — the sender's `−Σ m⁰_j ≪ j`
    /// plus the receiver's sum is `a · r` in `Z_{2^64}` — for arbitrary
    /// seeds, correlations and choice words, with units reused by up to
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

    /// Packing then unpacking keeps exactly the low `64 − j` bits of
    /// every `d_j`, in `CORRECTION_BYTES` an element.
    #[test]
    fn packing_keeps_the_low_64_minus_j_bits(
        pairs in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut g = SplitMix64::new(seed);
        let d: Vec<u64> = (0..128 * pairs).map(|_| g.next_u64()).collect();
        let mut packed = vec![0u64; packed_words(2 * pairs)];
        pack_corrections(&d, &mut packed);
        prop_assert_eq!(8 * packed.len(), 2 * pairs * CORRECTION_BYTES);
        let mut back = vec![0u64; d.len()];
        unpack_corrections(&packed, &mut back);
        for (i, (&got, &sent)) in back.iter().zip(&d).enumerate() {
            let j = i % 64;
            prop_assert!(got == sent & (u64::MAX >> j), "element {}, OT {j}: {got:#x} from {sent:#x}", i / 64);
        }
    }

    /// At every tier, randomising the top `j` bits of every `d_j` the
    /// sender computed — the bits the packing drops — before the
    /// receiver finishes leaves its sums unchanged.
    #[test]
    fn the_dropped_top_bits_never_reach_the_receiver(
        seed in any::<u64>(),
        words in 1usize..6,
        value_seed in any::<u64>(),
    ) {
        let mut g = SplitMix64::new(value_seed);
        let choice: Vec<u64> = (0..words).map(|_| g.next_u64()).collect();
        let a: Vec<u64> = (0..2 * words).map(|_| g.next_u64()).collect();
        let elements = two_per_unit(words);
        for tier in SimdTier::available() {
            let (sender, receiver, _) = extended(tier, seed, &choice);
            let (d, m0_sums) = corrected(tier, &sender, &elements, &a);
            let want = received(tier, &receiver, &elements, &d);
            let mut raw = vec![0u64; 64 * elements.len()];
            unpack_corrections(&d, &mut raw);
            for (i, w) in raw.iter_mut().enumerate() {
                *w |= g.next_u64() & !(u64::MAX >> (i % 64));
            }
            let mut noisy = vec![0u64; d.len()];
            pack_corrections(&raw, &mut noisy);
            prop_assert_eq!(received(tier, &receiver, &elements, &noisy), want.clone());
            for (e, (r, m)) in want.iter().zip(&m0_sums).enumerate() {
                let (got, want) = (r.wrapping_sub(*m), a[e].wrapping_mul(choice[e / 2]));
                prop_assert!(got == want, "tier {tier}, element {e}: {got:#x} != {want:#x}");
            }
        }
    }
}

/// Both roles after extending `choice` at `tier` from base-OT `seed`,
/// and the column message `u` between them.
fn extended(tier: SimdTier, seed: u64, choice: &[u64]) -> (CotSender, CotReceiver, Vec<u64>) {
    let (mut sender, mut receiver) = simulated_base_ots(seed);
    let mut u = vec![0u64; OT_KAPPA * choice.len()];
    receiver.extend(tier, choice, &mut u);
    sender.absorb(tier, &u);
    (sender, receiver, u)
}

/// The sender's packed corrections and `Σ m⁰_j ≪ j` sums.
fn corrected(tier: SimdTier, sender: &CotSender, elements: &[OleElement], a: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let (mut d, mut sums) = (vec![0u64; packed_words(elements.len())], vec![0u64; elements.len()]);
    sender.correct(tier, elements, a, &mut d, &mut sums);
    (d, sums)
}

/// The receiver's sums against the packed corrections `d`.
fn received(tier: SimdTier, receiver: &CotReceiver, elements: &[OleElement], d: &[u64]) -> Vec<u64> {
    let mut sums = vec![0u64; elements.len()];
    receiver.receive(tier, elements, d, &mut sums);
    sums
}

/// Two elements on each of `units` units, element `e` on unit `e / 2`.
fn two_per_unit(units: usize) -> Vec<OleElement> {
    (0..2 * units).map(|e| OleElement { unit: (e / 2) as u32, tweak: 64 * e as u64 }).collect()
}

/// The property of `extension_flow_stays_correlated` for one batch:
/// three elements per unit — the last unit two when that count is odd,
/// since elements pack in pairs — element `e` correlated by `a[e / 3]`
/// shifted by `e % 3`.
fn check_gilboa_products(seed: u64, choice: &[u64], a: &[u64]) -> Result<(), TestCaseError> {
    let count = (3 * choice.len()) & !1;
    let elements: Vec<OleElement> =
        (0..count).map(|e| OleElement { unit: (e / 3) as u32, tweak: 64 * e as u64 + 7 }).collect();
    let corr: Vec<u64> = (0..count).map(|e| a[e / 3] << (e % 3)).collect();
    let mut first = None;
    for tier in SimdTier::available() {
        let (sender, receiver, u) = extended(tier, seed, choice);
        let (d, m0_sums) = corrected(tier, &sender, &elements, &corr);
        let recv_sums = received(tier, &receiver, &elements, &d);
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

/// `recv − send == a · r` at the edge values `a, r ∈ {0, 1, 2^63, !0}`
/// — all sixteen couples — at every tier.
#[test]
fn products_hold_at_the_edge_values_at_every_tier() {
    let edges = [0u64, 1, 1 << 63, u64::MAX];
    let elements: Vec<OleElement> =
        (0..16).map(|e| OleElement { unit: e / 4, tweak: 64 * e as u64 }).collect();
    let a: Vec<u64> = (0..16).map(|e| edges[e % 4]).collect();
    for tier in SimdTier::available() {
        let (sender, receiver, _) = extended(tier, 0xED6E, &edges);
        let (d, m0_sums) = corrected(tier, &sender, &elements, &a);
        let recv_sums = received(tier, &receiver, &elements, &d);
        for (e, (r, m)) in recv_sums.iter().zip(&m0_sums).enumerate() {
            let (a, r_word) = (a[e], edges[e / 4]);
            assert_eq!(r.wrapping_sub(*m), a.wrapping_mul(r_word), "tier {tier}: a = {a:#x}, r = {r_word:#x}");
        }
    }
}

/// An odd batch is refused with a panic naming it — never padded with a
/// silent zero element — by both roles at every tier and by the packer.
#[test]
fn an_odd_element_count_is_refused_at_every_tier() {
    let odd: Vec<OleElement> = two_per_unit(2).into_iter().take(3).collect();
    let refusal = |f: &mut dyn FnMut()| {
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("an odd batch must panic");
        let msg = died.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("a batch of 3 elements is odd"), "unclear refusal: {msg:?}");
    };
    for tier in SimdTier::available() {
        let (sender, receiver, _) = extended(tier, 5, &[3, 4]);
        let (mut d, mut sums) = (vec![0u64; 2 * 65], [0u64; 3]);
        refusal(&mut || sender.correct(tier, &odd, &[1, 2, 3], &mut d, &mut sums));
        refusal(&mut || receiver.receive(tier, &odd, &d, &mut sums));
    }
    refusal(&mut || pack_corrections(&[0u64; 3 * 64], &mut [0u64; 2 * 65]));
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
