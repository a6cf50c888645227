//! IKNP-style correlated oblivious-transfer extension.
//!
//! The paper precomputes its Multiplication Groups with OT \[42, 43\].
//! This module implements the extension machinery that makes that
//! affordable: κ = 128 *base* OTs are stretched into millions of
//! *correlated* OTs (COTs) using only a PRG and a correlation-robust
//! hash — the classic IKNP03 construction in its semi-honest,
//! correlated-OT form:
//!
//! 1. **Base OTs** (once, role-reversed): the extension *sender*
//!    plays base-OT receiver with a secret choice vector
//!    `s ∈ {0,1}^κ`, ending with one seed `k_{s_i}` per base OT; the
//!    extension *receiver* plays base-OT sender and keeps both seeds
//!    `(k⁰_i, k¹_i)`. [`simulated_base_ots`] stands in for the
//!    public-key protocol (Naor–Pinkas): like the rest of this
//!    reproduction's randomness (DESIGN.md §4), the seeds are drawn
//!    from a seeded [`SplitMix64`] rather than real key exchange, but
//!    the message/round *costs* are accounted
//!    ([`BASE_OT_BYTES`]/[`BASE_OT_ROUNDS`]).
//! 2. **Column-wise extension** ([`CotReceiver::extend`] /
//!    [`CotSender::absorb`]): for `m` extended OTs the receiver
//!    expands each base seed into an `m`-bit column `t^i = G(k⁰_i)`
//!    and sends `u^i = t^i ⊕ G(k¹_i) ⊕ r` (`r` = its `m` choice
//!    bits); the sender reconstructs `q^i = (s_i · u^i) ⊕ G(k_{s_i})`,
//!    so row-wise `q_j = t_j ⊕ (r_j · s)`. The 128 × m bit matrix is
//!    transposed with a word-level 64×64 kernel ([`transpose64`]), and
//!    both roles keep their rows: 64 per choice word, a *unit*.
//! 3. **Vector OLE over the units** ([`CotSender::correct`] /
//!    [`CotReceiver::receive`]): hashing rows breaks the correlation,
//!    and the hash tweak picks which correlation. An *element* is one
//!    Gilboa product over one unit under its own tweak `τ`, with OT `j`
//!    an `(64 − j)`-bit correlated OT (ABY's `(ℓ − j)`-bit
//!    multiplication, Demmler–Schneider–Zohner, NDSS 2015): the
//!    sender's OT-`j` messages are `m⁰_j = H(τ + j, q_j)` and
//!    `m¹_j = m⁰_j + a`, both only ever used shifted by `j`; one
//!    correction `d_j = m⁰_j + a − H(τ + j, q_j ⊕ s)` of `64 − j` bits
//!    per OT lets the receiver finish with
//!    `(H(τ + j, t_j) + r_j·d_j) ≪ j = m^{r_j}_j ≪ j`. Summed over the
//!    unit, the receiver holds `Σ (m⁰_j ≪ j) + a·r` and the sender
//!    `Σ (m⁰_j ≪ j)` — its `j = 0` term a full one-time pad: additive
//!    shares of `a · r` in `Z_{2^64}`. The corrections travel packed,
//!    [`CORRECTION_BYTES`] an element with no dead bit
//!    ([`pack_corrections`]). So one unit — one key word of the
//!    receiver — multiplies any number of sender values, each under a
//!    tweak no other element of the unit uses ([`crate::offline`] gives
//!    each element its key's unit and the pair it lands on).
//! 4. **Consistency hashing** ([`transcript_digest`]): the offline
//!    dialogue's tail carries a digest of the extension columns the
//!    sender absorbed — 32 position-tweaked chains of the modeled hash
//!    run side by side, so the check costs multiplier throughput rather
//!    than multiply latency — and the receiver compares it with its
//!    own, so a desynchronised or corrupted transcript fails loudly
//!    instead of silently producing garbage shares. (This is an
//!    engineering integrity check, *not* the malicious-security
//!    consistency check of KOS15 — the threat model stays semi-honest,
//!    Definition 6.)
//!
//! Like [`crate::prg`], the hash here ([`cr_hash_scalar`]) is a
//! statistical stand-in, NOT cryptographic — the simulation models
//! costs and share distributions, and every derived share is pinned
//! bit-for-bit by the equivalence suites.
//!
//! # Vectorisation
//!
//! The extension expands each column with the block PRG
//! ([`SplitMix64::fill_block_tier`]) and transposes a batch with the
//! lane-parallel transpose ([`cols_to_rows_simd_into`]: eight 64×64
//! blocks at once, one block per lane). The vector-OLE pass is compiled
//! per [`SimdTier`] (AVX-512/AVX2/portable, like [`crate::triple_mul`]):
//! per element it hashes its unit's 64 rows as eight blocks of
//! [`LANES`] consecutive rows — contiguous loads, lane `l` at tweak
//! `τ + 8b + l` — and reduces straight into the element's sum. The
//! elements go in pairs, whose corrections the sender packs and the
//! receiver unpacks in the same pass, so no hash or pad outlives its
//! pair of elements.
//!
//! The standalone kernels — the batch hash ([`cr_hash_batch`]) on the
//! same dispatch, and the scalar references ([`transpose64`],
//! [`cols_to_rows_scalar`], [`cr_hash_scalar`]) — are kept as A/B
//! references and probes; the `ot_simd_equivalence` suite pins every
//! tier bit-exactly against the references and the OLE products at
//! every tier. Digesting every `u` message twice takes the same
//! dispatch.

use crate::prg::SplitMix64;
use crate::simd::{lane_steps, SimdTier, U64xN, LANES};

/// OT-extension security parameter: base-OT count = column count.
pub const OT_KAPPA: usize = 128;

/// Modeled wire bytes per base OT (two 16-byte seed ciphertexts plus
/// the receiver's 32-byte key message of the Naor–Pinkas protocol the
/// seeded setup stands in for).
pub const BASE_OT_BYTES: u64 = 64;

/// Modeled rounds for one base-OT batch (receiver keys out, sender
/// ciphertexts back — all κ base OTs run in parallel).
pub const BASE_OT_ROUNDS: u64 = 2;

/// Multiplier mixed into the hash tweak (the SplitMix64 γ constant).
const CRH_GAMMA: u64 = 0x9E3779B97F4A7C15;
/// First avalanche multiplier of the modeled hash.
const CRH_M1: u64 = 0xBF58476D1CE4E5B9;
/// Second avalanche multiplier of the modeled hash.
const CRH_M2: u64 = 0x94D049BB133111EB;

/// The modeled correlation-robust hash `H(tweak, row)`: a SplitMix64-
/// style avalanche over the 128-bit row and the per-OT tweak.
#[inline(always)]
fn cr_hash(tweak: u64, row: [u64; 2]) -> u64 {
    let mut z = tweak.wrapping_mul(CRH_GAMMA)
        ^ row[0].wrapping_mul(CRH_M1)
        ^ row[1].rotate_left(32).wrapping_mul(CRH_M2);
    z = (z ^ (z >> 30)).wrapping_mul(CRH_M1);
    z = (z ^ (z >> 27)).wrapping_mul(CRH_M2);
    z ^ (z >> 31)
}

/// Scalar reference of the modeled correlation-robust hash — the A/B
/// baseline the vectorised [`cr_hash_batch`] must match bit-for-bit
/// (and what the microbenches compare against).
#[inline]
pub fn cr_hash_scalar(tweak: u64, row: [u64; 2]) -> u64 {
    cr_hash(tweak, row)
}

/// One lane-parallel round of the modeled hash over `N` rows held in
/// structure-of-arrays form: lane `l` computes
/// `H(tweak0 + l, [lo_l ⊕ delta[0], hi_l ⊕ delta[1]])`. The optional
/// xor-delta folds the sender's `q_j ⊕ s` branch into the same kernel
/// (`delta = [0, 0]` for the plain rows).
#[inline(always)]
fn cr_hash_lanes<const N: usize>(
    tweak0: u64,
    lane_off: U64xN<N>,
    lo: U64xN<N>,
    hi: U64xN<N>,
    delta: [u64; 2],
) -> U64xN<N> {
    let r0 = lo ^ U64xN::splat(delta[0]);
    let r1 = (hi ^ U64xN::splat(delta[1])).rotate_left(32);
    let tw = U64xN::splat(tweak0) + lane_off;
    let mut z = (tw * U64xN::splat(CRH_GAMMA))
        ^ (r0 * U64xN::splat(CRH_M1))
        ^ (r1 * U64xN::splat(CRH_M2));
    z = (z ^ (z >> 30)) * U64xN::splat(CRH_M1);
    z = (z ^ (z >> 27)) * U64xN::splat(CRH_M2);
    z ^ (z >> 31)
}

/// Body of the batch hash, compiled once per dispatch tier: a plain row
/// loop, which vectorises to contiguous loads and stores (written over
/// `U64xN` lanes, LLVM compiles it to strided `vpgatherqq` loads and
/// `vpscatterqq` stores).
#[inline(always)]
fn cr_hash_batch_body(tweak0: u64, lo: &[u64], hi: &[u64], delta: [u64; 2], out: &mut [u64]) {
    for (j, ((o, &l), &h)) in out.iter_mut().zip(lo).zip(hi).enumerate() {
        *o = cr_hash(tweak0.wrapping_add(j as u64), [l ^ delta[0], h ^ delta[1]]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn cr_hash_batch_avx512(tweak0: u64, lo: &[u64], hi: &[u64], delta: [u64; 2], out: &mut [u64]) {
    cr_hash_batch_body(tweak0, lo, hi, delta, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cr_hash_batch_avx2(tweak0: u64, lo: &[u64], hi: &[u64], delta: [u64; 2], out: &mut [u64]) {
    cr_hash_batch_body(tweak0, lo, hi, delta, out)
}

/// Hashes a batch of 128-bit rows in structure-of-arrays form:
/// `out[j] = H(tweak0 + j, [lo[j] ⊕ delta[0], hi[j] ⊕ delta[1]])`,
/// dispatched to the requested [`SimdTier`]. Bit-identical to
/// [`cr_hash_scalar`] row by row at every tier.
///
/// # Panics
/// Panics if the tier is unsupported on this CPU or the slices differ
/// in length.
pub fn cr_hash_batch(
    tier: SimdTier,
    tweak0: u64,
    lo: &[u64],
    hi: &[u64],
    delta: [u64; 2],
    out: &mut [u64],
) {
    assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
    assert_eq!(lo.len(), out.len(), "one lo word per row");
    assert_eq!(hi.len(), out.len(), "one hi word per row");
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { cr_hash_batch_avx512(tweak0, lo, hi, delta, out) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { cr_hash_batch_avx2(tweak0, lo, hi, delta, out) },
        _ => cr_hash_batch_body(tweak0, lo, hi, delta, out),
    }
}

/// Independent hash chains of [`transcript_digest`]: four `u64x8`
/// vectors' worth, because one chain step is ~50 cycles of *vector*
/// multiply latency and only independent vectors hide it (8 lanes on
/// AVX-512 measure 3.8 ns/word, 32 measure 0.8; scalar code is
/// multiplier-bound at ≈ 1.8 either way).
const DIGEST_LANES: usize = 32;

/// Body of [`transcript_digest`], compiled once per dispatch tier.
#[inline(always)]
fn transcript_digest_body(words: &[u64]) -> u64 {
    const N: usize = DIGEST_LANES;
    const DOMAIN: u64 = 0x243F6A8885A308D3;
    let step = |acc: u64, tweak: u64, w: u64| cr_hash(acc ^ tweak, [w, acc.rotate_left(17)]);
    let mut lanes = [0u64; N];
    for (l, lane) in lanes.iter_mut().enumerate() {
        *lane = DOMAIN.wrapping_add((l as u64).wrapping_mul(CRH_GAMMA));
    }
    let mut rows = words.chunks_exact(N);
    let mut at = 0u64;
    for row in &mut rows {
        for l in 0..N {
            lanes[l] = step(lanes[l], at + l as u64, row[l]);
        }
        at += N as u64;
    }
    for (l, &w) in rows.remainder().iter().enumerate() {
        lanes[l] = step(lanes[l], at + l as u64, w);
    }
    let mut acc = DOMAIN ^ words.len() as u64;
    for (l, &lane) in lanes.iter().enumerate() {
        acc = step(acc, l as u64, lane);
    }
    acc
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn transcript_digest_avx512(words: &[u64]) -> u64 {
    transcript_digest_body(words)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transcript_digest_avx2(words: &[u64]) -> u64 {
    transcript_digest_body(words)
}

/// [`transcript_digest`] on an explicit [`SimdTier`] — bit-identical
/// at every tier (the equivalence the unit tests sweep).
///
/// # Panics
/// Panics if the tier is unsupported on this CPU.
fn transcript_digest_tier(tier: SimdTier, words: &[u64]) -> u64 {
    assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
    match tier {
        // SAFETY: `supported()` just confirmed the CPU features the
        // callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { transcript_digest_avx512(words) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { transcript_digest_avx2(words) },
        _ => transcript_digest_body(words),
    }
}

/// Digest of one protocol message (a word slice) for the transcript-
/// consistency check: 32 running folds of the modeled
/// correlation-robust hash, word `i` going to lane `i mod 32` under the
/// position tweak `i`, folded in lane order with the message length.
///
/// One chain would serialise ~17 cycles of multiply latency per word
/// (6.4 ns); seeded-apart chains run at multiplier throughput instead
/// and hash every word exactly as hard. A changed word changes its
/// lane (the hash is a bijection of the row word), and a moved word
/// meets a different tweak, lane seed or fold position.
pub fn transcript_digest(words: &[u64]) -> u64 {
    transcript_digest_tier(SimdTier::detect(), words)
}

/// Transposes a 64×64 bit matrix in place: output word `j` holds, at
/// bit `c`, the former bit `j` of word `c`. The standard
/// Hacker's-Delight block-swap kernel — `O(64 log 64)` word operations
/// instead of 4096 single-bit gathers.
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = (m[k] ^ (m[k + j] << j)) & !mask;
            m[k] ^= t;
            m[k + j] ^= t >> j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Scalar reference transpose: `OT_KAPPA` columns of `words` u64s each
/// (column-major, as sent on the wire) into `64·words` rows of
/// 128 bits. Retained as the A/B baseline for the vectorised
/// [`cols_to_rows_simd`] (and the microbenches).
pub fn cols_to_rows_scalar(cols: &[u64], words: usize) -> Vec<[u64; 2]> {
    debug_assert_eq!(cols.len(), OT_KAPPA * words);
    let m = 64 * words;
    let mut rows = vec![[0u64; 2]; m];
    let mut block = [0u64; 64];
    for half in 0..2 {
        // Columns 64·half .. 64·half+63 feed rows' word `half`.
        for b in 0..words {
            for (c, slot) in block.iter_mut().enumerate() {
                *slot = cols[(half * 64 + c) * words + b];
            }
            transpose64(&mut block);
            for j in 0..64 {
                rows[b * 64 + j][half] = block[j];
            }
        }
    }
    rows
}

/// The keep masks of [`transpose64`]'s six butterfly stages, shift 32
/// first: stage `s` swaps the `32 >> s`-bit sub-blocks these bits
/// select.
const STAGE_KEEP: [u64; 6] = [
    0xFFFF_FFFF_0000_0000,
    0xFFFF_0000_FFFF_0000,
    0xFF00_FF00_FF00_FF00,
    0xF0F0_F0F0_F0F0_F0F0,
    0xCCCC_CCCC_CCCC_CCCC,
    0xAAAA_AAAA_AAAA_AAAA,
];

/// One butterfly of stage `stage` on words `a` and `b` of `v`.
#[inline(always)]
fn butterfly<const N: usize>(v: &mut [U64xN<N>; 8], a: usize, b: usize, stage: usize) {
    let sh = 32u32 >> stage;
    let t = (v[a] ^ (v[b] << sh)) & U64xN::splat(STAGE_KEEP[stage]);
    v[a] = v[a] ^ t;
    v[b] = v[b] ^ (t >> sh);
}

/// Stages `first .. first + 3` of [`transpose64`] on the eight words
/// `m[base + q·stride]`, held in registers: they pair `q` with `q + 4`,
/// `q + 2`, then `q + 1`. (Every index is below 64; the `& 63` lets the
/// compiler see it and drop the bounds checks.)
#[inline(always)]
fn butterfly3<const N: usize>(m: &mut [U64xN<N>; 64], base: usize, stride: usize, first: usize) {
    let mut v = [U64xN::ZERO; 8];
    for (q, slot) in v.iter_mut().enumerate() {
        *slot = m[(base + q * stride) & 63];
    }
    butterfly(&mut v, 0, 4, first);
    butterfly(&mut v, 1, 5, first);
    butterfly(&mut v, 2, 6, first);
    butterfly(&mut v, 3, 7, first);
    butterfly(&mut v, 0, 2, first + 1);
    butterfly(&mut v, 1, 3, first + 1);
    butterfly(&mut v, 4, 6, first + 1);
    butterfly(&mut v, 5, 7, first + 1);
    butterfly(&mut v, 0, 1, first + 2);
    butterfly(&mut v, 2, 3, first + 2);
    butterfly(&mut v, 4, 5, first + 2);
    butterfly(&mut v, 6, 7, first + 2);
    for (q, w) in v.into_iter().enumerate() {
        m[(base + q * stride) & 63] = w;
    }
}

/// The Hacker's-Delight butterfly of [`transpose64`] run lane-wise over
/// `N` *independent* 64×64 blocks at once: `m[k]` holds word `k` of
/// all `N` blocks, one block per lane. Identical op sequence per lane,
/// so each lane is bit-identical to the scalar kernel.
///
/// Stages 0–2 (shifts 32, 16, 8) pair words 32, 16 and 8 apart, so
/// they transpose each residue class mod 8 on its own; stages 3–5 pair
/// words within each run of eight. So the six stages are two passes of
/// eight register-resident [`butterfly3`]s, each word loaded and stored
/// twice. The classes and runs are visited in the order
/// `k ← (k + 5) mod 8`: LLVM cannot count that loop, and its loop
/// vectorizer leaves an uncounted loop alone, where it turned a counted
/// one inside out into strided gathers across the lanes (DESIGN.md §8.1).
#[inline(always)]
fn transpose64_lanes<const N: usize>(m: &mut [U64xN<N>; 64]) {
    let mut k = 0;
    loop {
        butterfly3(m, k, 8, 0);
        k = (k + 5) & 7;
        if k == 0 {
            break;
        }
    }
    loop {
        butterfly3(m, 8 * k, 1, 3);
        k = (k + 5) & 7;
        if k == 0 {
            break;
        }
    }
}

/// Body of the batched transpose, writing the rows in
/// structure-of-arrays form (`lo[j]`/`hi[j]` = row `j`'s two words).
///
/// The vector main loop handles [`LANES`] consecutive 64×64 blocks
/// per butterfly pass: word `c` of blocks `b..b+8` is the contiguous
/// slice `cols[(half·64 + c)·words + b ..][..8]`, so every load is a
/// plain `U64xN::load`. The `words % 8` tail falls back to the scalar
/// [`transpose64`].
///
/// The de-interleave writing the "one block per lane" result back out
/// stays a plain element loop on purpose: a shuffle-based 8×8 lane
/// transpose (three blend+permute passes per eight registers) measured
/// *slower* than these 64 scalar moves on both the AVX-512 and AVX2
/// tiers — the stores dominate either way, and the scalar form costs
/// no cross-lane permute uops.
#[inline(always)]
fn cols_to_rows_body(cols: &[u64], words: usize, lo: &mut [u64], hi: &mut [u64]) {
    const N: usize = LANES;
    debug_assert_eq!(cols.len(), OT_KAPPA * words);
    debug_assert_eq!(lo.len(), 64 * words);
    debug_assert_eq!(hi.len(), 64 * words);
    let full = words - words % N;
    for half in 0..2 {
        let out: &mut [u64] = if half == 0 { &mut *lo } else { &mut *hi };
        let mut b = 0;
        while b < full {
            let mut blk = [U64xN::<N>::ZERO; 64];
            for (c, slot) in blk.iter_mut().enumerate() {
                *slot = U64xN::load(&cols[(half * 64 + c) * words + b..]);
            }
            transpose64_lanes(&mut blk);
            for l in 0..N {
                let dst = &mut out[(b + l) * 64..(b + l + 1) * 64];
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = blk[j].0[l];
                }
            }
            b += N;
        }
        let mut block = [0u64; 64];
        for b in full..words {
            for (c, slot) in block.iter_mut().enumerate() {
                *slot = cols[(half * 64 + c) * words + b];
            }
            transpose64(&mut block);
            out[b * 64..(b + 1) * 64].copy_from_slice(&block);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn cols_to_rows_avx512(cols: &[u64], words: usize, lo: &mut [u64], hi: &mut [u64]) {
    cols_to_rows_body(cols, words, lo, hi)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cols_to_rows_avx2(cols: &[u64], words: usize, lo: &mut [u64], hi: &mut [u64]) {
    cols_to_rows_body(cols, words, lo, hi)
}

/// Vectorised transpose of `OT_KAPPA` column-major columns into
/// `64·words` rows written to caller-owned structure-of-arrays buffers
/// (`lo[j]`/`hi[j]` = row `j`'s two words) — bit-identical to
/// [`cols_to_rows_scalar`] at every [`SimdTier`]. The extension passes
/// transpose in-lane instead and store no rows; this is the standalone
/// form the microbenches and trace probes time, and
/// [`cols_to_rows_simd`] its allocating convenience wrapper.
///
/// # Panics
/// Panics if the tier is unsupported on this CPU, `cols` is not
/// `OT_KAPPA · words` long, or `lo`/`hi` are not `64 · words` long.
pub fn cols_to_rows_simd_into(
    tier: SimdTier,
    cols: &[u64],
    words: usize,
    lo: &mut [u64],
    hi: &mut [u64],
) {
    assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
    assert_eq!(cols.len(), OT_KAPPA * words, "κ columns of `words` u64s");
    assert_eq!(lo.len(), 64 * words, "one lo word per row");
    assert_eq!(hi.len(), 64 * words, "one hi word per row");
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { cols_to_rows_avx512(cols, words, lo, hi) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { cols_to_rows_avx2(cols, words, lo, hi) },
        _ => cols_to_rows_body(cols, words, lo, hi),
    }
}

/// Vectorised transpose of `OT_KAPPA` column-major columns into
/// `64·words` rows, returned in structure-of-arrays form
/// `(lo, hi)` — bit-identical to [`cols_to_rows_scalar`] at every
/// [`SimdTier`].
///
/// # Panics
/// Panics if the tier is unsupported on this CPU or `cols` is not
/// `OT_KAPPA · words` long.
pub fn cols_to_rows_simd(tier: SimdTier, cols: &[u64], words: usize) -> (Vec<u64>, Vec<u64>) {
    let mut lo = vec![0u64; 64 * words];
    let mut hi = vec![0u64; 64 * words];
    cols_to_rows_simd_into(tier, cols, words, &mut lo, &mut hi);
    (lo, hi)
}

/// Rows of one role's correlated OTs, 64 per key word (unit) in
/// structure-of-arrays form: row `64·u + j` — OT `j` of unit `u` — is
/// `[lo[64u + j], hi[64u + j]]`.
#[derive(Debug, Clone, Default)]
struct Rows {
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl Rows {
    /// Transposes `OT_KAPPA` columns of `words` words each onto the end
    /// of the rows.
    fn append(&mut self, tier: SimdTier, cols: &[u64], words: usize) {
        let at = self.lo.len();
        self.lo.resize(at + 64 * words, 0);
        self.hi.resize(at + 64 * words, 0);
        cols_to_rows_simd_into(tier, cols, words, &mut self.lo[at..], &mut self.hi[at..]);
    }

    /// Unit `u`'s 64 rows.
    #[inline(always)]
    fn unit(&self, u: u32) -> (&[u64], &[u64]) {
        let at = 64 * u as usize;
        (&self.lo[at..at + 64], &self.hi[at..at + 64])
    }
}

/// The extension sender's long-lived state: the secret choice vector
/// `s`, the κ base-OT seeds `k_{s_i}` it received, and the rows
/// `q_j = t_j ⊕ r_j·s` of every unit extended so far.
///
/// "Sender" is the *extension* role (it will hold both messages of
/// every extended OT); in the base OTs it acted as receiver.
#[derive(Debug, Clone)]
pub struct CotSender {
    /// `s` packed as two words (bit `i` of the 128-bit vector).
    delta: [u64; 2],
    /// The chosen seed of each base OT, as a PRG stream.
    seeds: Vec<SplitMix64>,
    rows: Rows,
}

/// The extension receiver's long-lived state: both base-OT seeds per
/// column (it acted as base-OT *sender*), and the choice word and rows
/// `t_j` of every unit extended so far.
#[derive(Debug, Clone)]
pub struct CotReceiver {
    seeds0: Vec<SplitMix64>,
    seeds1: Vec<SplitMix64>,
    choice: Vec<u64>,
    rows: Rows,
}

/// Simulates the κ base OTs of one extension direction from a seed:
/// the receiver ends with both seed streams, the sender with its
/// secret `s` and the matching seed stream per column.
///
/// Costs are **not** tallied here — callers account one base-OT batch
/// per protocol execution (see [`crate::offline::ot_setup_ledger`]).
pub fn simulated_base_ots(seed: u64) -> (CotSender, CotReceiver) {
    let mut root = SplitMix64::new(seed ^ 0x0B45E07E0B45E07E);
    let delta = [root.next_u64(), root.next_u64()];
    let mut seeds0 = Vec::with_capacity(OT_KAPPA);
    let mut seeds1 = Vec::with_capacity(OT_KAPPA);
    let mut chosen = Vec::with_capacity(OT_KAPPA);
    for i in 0..OT_KAPPA {
        let k0 = root.next_u64();
        let k1 = root.next_u64();
        let s_i = (delta[i / 64] >> (i % 64)) & 1;
        chosen.push(SplitMix64::new(if s_i == 1 { k1 } else { k0 }));
        seeds0.push(SplitMix64::new(k0));
        seeds1.push(SplitMix64::new(k1));
    }
    (
        CotSender { delta, seeds: chosen, rows: Rows::default() },
        CotReceiver { seeds0, seeds1, choice: Vec::new(), rows: Rows::default() },
    )
}

impl CotReceiver {
    /// Extends `64 · choice.len()` correlated OTs, one *unit* of 64 per
    /// choice word, appended to the units extended before: writes the
    /// column message `u^i = G(k⁰_i) ⊕ G(k¹_i) ⊕ r` to send into
    /// `u_cols` (column-major, `OT_KAPPA · choice.len()` words) and keeps
    /// the units' choice words and rows `t_j` (columns `G(k⁰_i)`,
    /// transposed) for [`Self::receive`].
    ///
    /// # Panics
    /// Panics if the tier is unsupported on this CPU or `u_cols` is not
    /// `OT_KAPPA · choice.len()` words.
    pub fn extend(&mut self, tier: SimdTier, choice: &[u64], u_cols: &mut [u64]) {
        let words = choice.len();
        assert_eq!(u_cols.len(), OT_KAPPA * words, "κ columns of one word per unit");
        if words == 0 {
            return;
        }
        let mut t = vec![0u64; OT_KAPPA * words];
        for (i, (t, u)) in t.chunks_exact_mut(words).zip(u_cols.chunks_exact_mut(words)).enumerate() {
            self.seeds0[i].fill_block_tier(tier, t);
            self.seeds1[i].fill_block_tier(tier, u);
            for ((u, t), r) in u.iter_mut().zip(&*t).zip(choice) {
                *u ^= t ^ r;
            }
        }
        self.choice.extend_from_slice(choice);
        self.rows.append(tier, &t, words);
    }

    /// Finishes a batch of Gilboa products against the sender's packed
    /// corrections `d` ([`packed_words`] of them, see
    /// [`CotSender::correct`]): `sums[e] = Σ_j (H(τₑ + j, t_j) + r_j·d_j) ≪ j`
    /// over element `e`'s unit, which is `Σ_j (m⁰_j ≪ j) + aₑ · r` in
    /// `Z_{2^64}` — the sender's sum plus the product of its correlation
    /// and the unit's choice word.
    ///
    /// # Panics
    /// Panics if the tier is unsupported, an element names a unit not
    /// extended yet, the element count is odd, or `d` / `sums` are not
    /// [`packed_words`] / one word per element.
    pub fn receive(&self, tier: SimdTier, elements: &[OleElement], d: &[u64], sums: &mut [u64]) {
        assert_eq!(d.len(), packed_words(elements.len()), "packed corrections of every element");
        let pass = OlePass::Receive { choice: &self.choice, d };
        ole_tier(tier, &self.rows, elements, pass, sums);
    }
}

impl CotSender {
    /// Absorbs the receiver's column message of one [`CotReceiver::extend`]
    /// batch: rebuilds its columns `q^i = G(k_{s_i}) ⊕ s_i·u^i` and keeps
    /// their rows, so row-wise `q_j = t_j ⊕ (r_j · s)`.
    ///
    /// # Panics
    /// Panics if the tier is unsupported on this CPU or `u_cols` is not
    /// whole `OT_KAPPA` columns.
    pub fn absorb(&mut self, tier: SimdTier, u_cols: &[u64]) {
        assert_eq!(u_cols.len() % OT_KAPPA, 0, "u message must be κ columns of one word per unit");
        let words = u_cols.len() / OT_KAPPA;
        if words == 0 {
            return;
        }
        let mut q = vec![0u64; u_cols.len()];
        for (i, (q, u)) in q.chunks_exact_mut(words).zip(u_cols.chunks_exact(words)).enumerate() {
            self.seeds[i].fill_block_tier(tier, q);
            let s_i = 0u64.wrapping_sub((self.delta[i / 64] >> (i % 64)) & 1);
            for (q, u) in q.iter_mut().zip(u) {
                *q ^= u & s_i;
            }
        }
        self.rows.append(tier, &q, words);
    }

    /// Gilboa-multiplies a batch of elements by the receiver's choice
    /// words: element `e` correlates OT `j` of its unit with `aₑ` under
    /// its own hash tweak `τₑ + j`, so units are reused by any number of
    /// elements; OT `j` is an `(64 − j)`-bit correlated OT, its
    /// correction `d_j = m⁰_j + aₑ − m¹'_j mod 2^(64−j)`, where
    /// `m⁰_j = H(τₑ + j, q_j)` and `m¹'_j = H(τₑ + j, q_j ⊕ s)`. Writes
    /// every element's corrections to `d`, packed two elements to
    /// [`PACKED_PAIR_WORDS`] words ([`pack_corrections`]), and
    /// `Σ_j (m⁰_j ≪ j)` to `sums[e]`. The receiver's
    /// [`CotReceiver::receive`] of the element minus this sum is
    /// `aₑ · r`. No row, hash or pad outlives its pair of elements.
    ///
    /// # Panics
    /// Panics if the tier is unsupported, an element names a unit not
    /// absorbed yet, the element count is odd, or `a` / `d` / `sums`
    /// are not one / [`packed_words`] / one word per element.
    pub fn correct(&self, tier: SimdTier, elements: &[OleElement], a: &[u64], d: &mut [u64], sums: &mut [u64]) {
        assert_eq!(a.len(), elements.len(), "one correlation per element");
        assert_eq!(d.len(), packed_words(elements.len()), "packed corrections of every element");
        let pass = OlePass::Send { delta: self.delta, a, d };
        ole_tier(tier, &self.rows, elements, pass, sums);
    }
}

/// One Gilboa product of a vector OLE: the unit (choice word) it
/// multiplies by and the base of its hash tweaks. Elements that share a
/// unit must have distinct tweaks `τ`, at least 64 apart: OTs
/// `0 ..= 63` hash under `τ ..= τ + 63`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OleElement {
    /// The unit: the ordinal of its choice word among those extended.
    pub unit: u32,
    /// Its OT `j` hashes under tweak `tweak + j`.
    pub tweak: u64,
}

/// The role an [`ole_body`] pass plays.
enum OlePass<'a> {
    /// The sender: correlations in, corrections out.
    Send { delta: [u64; 2], a: &'a [u64], d: &'a mut [u64] },
    /// The receiver: every unit's choice word, the corrections in.
    Receive { choice: &'a [u64], d: &'a [u64] },
}

/// `1 ≪ l` in lane `l`: shifted left by `8b`, lane `l`'s multiplier
/// `2^(8b + l)`; against a choice word shifted right by `8b`, its bit
/// `8b + l`.
const LANE_BIT: U64xN<LANES> = U64xN([1, 2, 4, 8, 16, 32, 64, 128]);
/// `1 ≪ (63 − l)` in lane `l`: moves a lane's isolated bit to the top.
const LANE_TOP: U64xN<LANES> = U64xN([1 << 63, 1 << 62, 1 << 61, 1 << 60, 1 << 59, 1 << 58, 1 << 57, 1 << 56]);

/// Bytes of one element's packed corrections: OT `j` of its unit
/// carries `64 − j` live bits, `Σ_j (64 − j) = 2 080` bits in all.
pub const CORRECTION_BYTES: usize = 260;

/// Words of two elements' packed corrections, the packing's unit:
/// `2 · 260 / 8 = 65`.
pub const PACKED_PAIR_WORDS: usize = 2 * CORRECTION_BYTES / 8;

/// Words of packed corrections for a batch of `elements` elements.
///
/// # Panics
/// Panics if `elements` is odd: elements pack in pairs, and an odd
/// batch is refused rather than padded with a dead half-word.
pub fn packed_words(elements: usize) -> usize {
    assert!(
        elements.is_multiple_of(2),
        "Gilboa corrections pack two elements at a time: a batch of {elements} elements is odd"
    );
    elements / 2 * PACKED_PAIR_WORDS
}

/// Packs two elements' corrections `d` (64 words each, `d[e][j]` OT
/// `j`'s) into `w`'s [`PACKED_PAIR_WORDS`] words, keeping the low
/// `64 − j` bits of each `d_j` and nothing else: element `e`'s words
/// `32e .. 32e + 32` are `d_0`, then `lo_{64−j}(d_j) | d_{64−j} ≪ (64−j)`
/// for `j = 1 ..= 31`; the last word is `lo_32(d_32)` of element 0 with
/// element 1's `d_32` above it.
#[inline(always)]
fn pack_pair(d: &[[u64; 64]; 2], w: &mut [u64]) {
    let w = &mut w[..PACKED_PAIR_WORDS];
    for (d, w) in d.iter().zip(w.chunks_exact_mut(32)) {
        w[0] = d[0];
        for j in 1..32 {
            w[j] = (d[j] & (!0 >> j)) | (d[64 - j] << (64 - j));
        }
    }
    w[64] = (d[0][32] & 0xFFFF_FFFF) | (d[1][32] << 32);
}

/// Inverse of [`pack_pair`]: each `d_j` back to its low `64 − j` bits.
#[inline(always)]
fn unpack_pair(w: &[u64], d: &mut [[u64; 64]; 2]) {
    let w = &w[..PACKED_PAIR_WORDS];
    for (e, (d, v)) in d.iter_mut().zip(w.chunks_exact(32)).enumerate() {
        d[0] = v[0];
        for j in 1..32 {
            d[j] = v[j] & (!0 >> j);
            d[64 - j] = v[j] >> (64 - j);
        }
        d[32] = (w[64] >> (32 * e)) & 0xFFFF_FFFF;
    }
}

/// Packs the corrections `d` of an even number of elements (64 words
/// each, OT `j`'s at `d[64e + j]`) into [`packed_words`] words, two
/// elements to [`PACKED_PAIR_WORDS`]: the low `64 − j` bits of each
/// `d_j`, every bit of the output live. [`CotSender::correct`] emits
/// this layout.
///
/// # Panics
/// Panics if the element count is odd or `out` is not
/// [`packed_words`] long.
pub fn pack_corrections(d: &[u64], out: &mut [u64]) {
    assert_eq!(d.len() % 64, 0, "64 corrections per element");
    assert_eq!(out.len(), packed_words(d.len() / 64), "packed corrections of every element");
    let mut pair = [[0u64; 64]; 2];
    for (d, w) in d.chunks_exact(128).zip(out.chunks_exact_mut(PACKED_PAIR_WORDS)) {
        pair[0].copy_from_slice(&d[..64]);
        pair[1].copy_from_slice(&d[64..]);
        pack_pair(&pair, w);
    }
}

/// Unpacks [`pack_corrections`]' words into 64 words an element, OT
/// `j`'s correction reduced to its low `64 − j` bits.
///
/// # Panics
/// Panics if `packed` is not whole pairs of elements or `out` is not
/// 64 words per element.
pub fn unpack_corrections(packed: &[u64], out: &mut [u64]) {
    assert_eq!(packed.len() % PACKED_PAIR_WORDS, 0, "whole pairs of packed elements");
    assert_eq!(out.len(), 64 * 2 * (packed.len() / PACKED_PAIR_WORDS), "64 corrections per element");
    let mut pair = [[0u64; 64]; 2];
    for (w, d) in packed.chunks_exact(PACKED_PAIR_WORDS).zip(out.chunks_exact_mut(128)) {
        unpack_pair(w, &mut pair);
        d[..64].copy_from_slice(&pair[0]);
        d[64..].copy_from_slice(&pair[1]);
    }
}

/// One element's OTs `8b .. 8b + 8`, one per lane, of the sender: its
/// corrections `m⁰_j + a − m¹'_j` stored to `d`, `m⁰_j ≪ j` returned.
#[inline(always)]
fn send_block(rows: (&[u64], &[u64]), delta: [u64; 2], tweak: u64, a: u64, b: usize, d: &mut [u64; 64]) -> U64xN<LANES> {
    let (lo, hi) = (U64xN::load(&rows.0[8 * b..]), U64xN::load(&rows.1[8 * b..]));
    let tw = tweak.wrapping_add(8 * b as u64);
    let m0 = cr_hash_lanes(tw, lane_steps(1), lo, hi, [0, 0]);
    let m1 = cr_hash_lanes(tw, lane_steps(1), lo, hi, delta);
    (m0 + U64xN::splat(a) - m1).store(&mut d[8 * b..]);
    m0 * (LANE_BIT << (8 * b as u32))
}

/// One element's OTs `8b .. 8b + 8` of the receiver:
/// `(H(τ + j, t_j) + r_j·d_j) ≪ j`. Only the low `64 − j` bits of `d_j`
/// reach the result.
#[inline(always)]
fn receive_block(rows: (&[u64], &[u64]), choice: u64, tweak: u64, b: usize, d: &[u64; 64]) -> U64xN<LANES> {
    let (lo, hi) = (U64xN::load(&rows.0[8 * b..]), U64xN::load(&rows.1[8 * b..]));
    let tw = tweak.wrapping_add(8 * b as u64);
    let bit = ((U64xN::splat(choice >> (8 * b)) & LANE_BIT) * LANE_TOP) >> 63;
    let h = cr_hash_lanes(tw, lane_steps(1), lo, hi, [0, 0]);
    (h + (U64xN::load(&d[8 * b..]) & (U64xN::ZERO - bit))) * (LANE_BIT << (8 * b as u32))
}

/// One element's 64 OTs of the sender, as eight blocks of [`LANES`]
/// consecutive rows of its unit in the order `b ← (b + 5) mod 8` —
/// uncounted, like the transpose's passes, so LLVM's loop vectorizer
/// does not turn the element loop into gathers of rows across units.
/// Writes its corrections to `d` and returns `Σ_j m⁰_j ≪ j`.
#[inline(always)]
fn send_element(rows: &Rows, delta: [u64; 2], el: OleElement, a: u64, d: &mut [u64; 64]) -> u64 {
    let unit = rows.unit(el.unit);
    let (mut sum, mut b) = (U64xN::ZERO, 0);
    loop {
        sum = sum + send_block(unit, delta, el.tweak, a, b, d);
        b = (b + 5) & 7;
        if b == 0 {
            break;
        }
    }
    sum.hsum()
}

/// One element's 64 OTs of the receiver, in [`send_element`]'s order,
/// against its corrections `d`: `Σ_j (H(τ + j, t_j) + r_j·d_j) ≪ j`.
#[inline(always)]
fn receive_element(rows: &Rows, choice: &[u64], el: OleElement, d: &[u64; 64]) -> u64 {
    let (unit, r) = (rows.unit(el.unit), choice[el.unit as usize]);
    let (mut sum, mut b) = (U64xN::ZERO, 0);
    loop {
        sum = sum + receive_block(unit, r, el.tweak, b, d);
        b = (b + 5) & 7;
        if b == 0 {
            break;
        }
    }
    sum.hsum()
}

/// Body of the vector-OLE passes, compiled once per dispatch tier: the
/// elements two at a time, whose corrections the sender packs
/// ([`pack_pair`]) and the receiver unpacks ([`unpack_pair`]) on the
/// stack.
#[inline(always)]
fn ole_body(rows: &Rows, elements: &[OleElement], pass: OlePass, sums: &mut [u64]) {
    let mut pair = [[0u64; 64]; 2];
    let els = elements.chunks_exact(2).zip(sums.chunks_exact_mut(2));
    match pass {
        OlePass::Send { delta, a, d } => {
            for (((el, sums), a), w) in els.zip(a.chunks_exact(2)).zip(d.chunks_exact_mut(PACKED_PAIR_WORDS)) {
                sums[0] = send_element(rows, delta, el[0], a[0], &mut pair[0]);
                sums[1] = send_element(rows, delta, el[1], a[1], &mut pair[1]);
                pack_pair(&pair, w);
            }
        }
        OlePass::Receive { choice, d } => {
            for ((el, sums), w) in els.zip(d.chunks_exact(PACKED_PAIR_WORDS)) {
                unpack_pair(w, &mut pair);
                sums[0] = receive_element(rows, choice, el[0], &pair[0]);
                sums[1] = receive_element(rows, choice, el[1], &pair[1]);
            }
        }
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn ole_avx512(rows: &Rows, elements: &[OleElement], pass: OlePass, sums: &mut [u64]) {
    ole_body(rows, elements, pass, sums)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ole_avx2(rows: &Rows, elements: &[OleElement], pass: OlePass, sums: &mut [u64]) {
    ole_body(rows, elements, pass, sums)
}

/// Runs one vector-OLE pass at `tier`.
fn ole_tier(tier: SimdTier, rows: &Rows, elements: &[OleElement], pass: OlePass, sums: &mut [u64]) {
    assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
    assert_eq!(sums.len(), elements.len(), "one sum per element");
    let units = rows.lo.len() / 64;
    assert!(elements.iter().all(|e| (e.unit as usize) < units), "element of a unit not extended");
    match tier {
        // SAFETY: `supported()` just confirmed the CPU features the
        // callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { ole_avx512(rows, elements, pass, sums) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { ole_avx2(rows, elements, pass, sums) },
        _ => ole_body(rows, elements, pass, sums),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference for the transpose kernels.
    fn naive_rows(cols: &[u64], words: usize) -> Vec<[u64; 2]> {
        let m = 64 * words;
        let mut rows = vec![[0u64; 2]; m];
        for i in 0..OT_KAPPA {
            for j in 0..m {
                let bit = (cols[i * words + j / 64] >> (j % 64)) & 1;
                rows[j][i / 64] |= bit << (i % 64);
            }
        }
        rows
    }

    #[test]
    fn transpose64_matches_naive() {
        let mut g = SplitMix64::new(1);
        let mut m = [0u64; 64];
        for w in m.iter_mut() {
            *w = g.next_u64();
        }
        let orig = m;
        transpose64(&mut m);
        for (r, &row) in m.iter().enumerate() {
            for (c, &col) in orig.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "bit ({r},{c})");
            }
        }
        // Involution: transposing twice restores the matrix.
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn cols_to_rows_matches_naive_gather() {
        let mut g = SplitMix64::new(2);
        for words in [1usize, 3, 4] {
            let cols: Vec<u64> = (0..OT_KAPPA * words).map(|_| g.next_u64()).collect();
            assert_eq!(cols_to_rows_scalar(&cols, words), naive_rows(&cols, words));
        }
    }

    #[test]
    fn simd_transpose_matches_scalar_at_every_tier() {
        let mut g = SplitMix64::new(11);
        // Cover: pure tail (< LANES), exact vector width, vector + tail.
        for words in [1usize, 7, 8, 19] {
            let cols: Vec<u64> = (0..OT_KAPPA * words).map(|_| g.next_u64()).collect();
            let reference = cols_to_rows_scalar(&cols, words);
            for tier in SimdTier::available() {
                let (lo, hi) = cols_to_rows_simd(tier, &cols, words);
                for (j, r) in reference.iter().enumerate() {
                    assert_eq!([lo[j], hi[j]], *r, "tier {tier}, words {words}, row {j}");
                }
            }
        }
    }

    #[test]
    fn simd_hash_matches_scalar_at_every_tier() {
        let mut g = SplitMix64::new(12);
        let n = 100; // not a lane multiple: exercises the scalar tail
        let lo: Vec<u64> = (0..n).map(|_| g.next_u64()).collect();
        let hi: Vec<u64> = (0..n).map(|_| g.next_u64()).collect();
        for delta in [[0u64, 0u64], [g.next_u64(), g.next_u64()]] {
            for tier in SimdTier::available() {
                let mut out = vec![0u64; n];
                cr_hash_batch(tier, 777, &lo, &hi, delta, &mut out);
                for j in 0..n {
                    let want = cr_hash_scalar(777 + j as u64, [lo[j] ^ delta[0], hi[j] ^ delta[1]]);
                    assert_eq!(out[j], want, "tier {tier}, row {j}");
                }
            }
        }
    }

    /// One extension batch in both roles at `tier`, then two elements
    /// per unit, element `e` on unit `e / 2` correlated by `a[e]`: the
    /// `u` message, the packed corrections, the receiver's sums and the
    /// sender's `Σ m⁰_j ≪ j`.
    fn run_batch(
        tier: SimdTier,
        sender: &mut CotSender,
        receiver: &mut CotReceiver,
        choice: &[u64],
        a: &[u64],
    ) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) {
        let (words, first) = (choice.len(), receiver.choice.len() as u32);
        assert_eq!(a.len(), 2 * words, "two elements per unit");
        let mut u = vec![0u64; OT_KAPPA * words];
        receiver.extend(tier, choice, &mut u);
        sender.absorb(tier, &u);
        let elements: Vec<OleElement> = (0..2 * words as u32)
            .map(|e| OleElement { unit: first + e / 2, tweak: 64 * (2 * first + e) as u64 })
            .collect();
        let (mut d, mut m0_sums) = (vec![0u64; packed_words(a.len())], vec![0u64; a.len()]);
        sender.correct(tier, &elements, a, &mut d, &mut m0_sums);
        let mut recv_sums = vec![0u64; a.len()];
        receiver.receive(tier, &elements, &d, &mut recv_sums);
        (recv_sums, u, d, m0_sums)
    }

    /// The Gilboa product of every element: the receiver's sum minus the
    /// sender's `Σ m⁰_j ≪ j`.
    fn products(recv_sums: &[u64], m0_sums: &[u64]) -> Vec<u64> {
        recv_sums.iter().zip(m0_sums).map(|(r, m)| r.wrapping_sub(*m)).collect()
    }

    /// The products `run_batch` must yield: `a[e] · choice[e / 2]`.
    fn want_products(choice: &[u64], a: &[u64]) -> Vec<u64> {
        a.iter().enumerate().map(|(e, a)| a.wrapping_mul(choice[e / 2])).collect()
    }

    /// The heart of IKNP: after extension, `q_j = t_j ⊕ (r_j · s)` row
    /// by row — and so, under the zero correlation, the receiver's sums
    /// are the sender's `Σ m⁰_j ≪ j` whatever its choice bits.
    #[test]
    fn extension_rows_satisfy_the_iknp_invariant() {
        let (mut sender, mut receiver) = simulated_base_ots(7);
        let choice: Vec<u64> = {
            let mut g = SplitMix64::new(9);
            (0..3).map(|_| g.next_u64()).collect()
        };
        let tier = SimdTier::detect();
        let (recv_sums, _, _, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &[0; 6]);
        assert_eq!(products(&recv_sums, &m0_sums), vec![0; 6]);
        for (row, (q, t)) in sender.rows.lo.iter().zip(&sender.rows.hi).zip(receiver.rows.lo.iter().zip(&receiver.rows.hi)).enumerate() {
            let r = (choice[row / 64] >> (row % 64)) & 1;
            let s = [sender.delta[0] & 0u64.wrapping_sub(r), sender.delta[1] & 0u64.wrapping_sub(r)];
            assert_eq!([q.0 ^ s[0], q.1 ^ s[1]], [*t.0, *t.1], "row {row}");
        }
    }

    #[test]
    fn correlated_ot_delivers_m0_plus_c_on_one_branch() {
        // One chosen OT per unit picks up exactly `a ≪ j`; the others
        // deliver `m⁰` and add nothing.
        let (mut sender, mut receiver) = simulated_base_ots(13);
        let choice = [1u64, 1 << 5, 1 << 63, 0xF0F0_F0F0_F0F0_F0F0, 0];
        let a = [1000u64, 2000, 1001, 2001, 1002, 2002, 1003, 2003, 1004, 2004];
        let tier = SimdTier::detect();
        let (recv_sums, _, _, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &a);
        let got = products(&recv_sums, &m0_sums);
        assert_eq!(got[..6], [1000, 2000, 1001 << 5, 2001 << 5, 1002 << 63, 0]);
        assert_eq!(got, want_products(&choice, &a));
    }

    #[test]
    fn batches_stay_in_lockstep_across_calls() {
        // Consecutive batches must keep the seed streams aligned and
        // append their units: every batch's products stay exact, and a
        // unit of the first batch still multiplies after the third.
        let (mut sender, mut receiver) = simulated_base_ots(21);
        for round in 0..3u64 {
            let choice = vec![round.wrapping_mul(0x9E3779B97F4A7C15); 2 + round as usize];
            let a = vec![7u64; 2 * choice.len()];
            let tier = SimdTier::detect();
            let (recv_sums, _, _, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &a);
            assert_eq!(products(&recv_sums, &m0_sums), want_products(&choice, &a), "round {round}");
        }
        let reused = [OleElement { unit: 0, tweak: 1 << 40 }, OleElement { unit: 0, tweak: (1 << 40) + 64 }];
        let (mut d, mut m0, mut got) = (vec![0u64; PACKED_PAIR_WORDS], [0u64; 2], [0u64; 2]);
        sender.correct(SimdTier::detect(), &reused, &[3, 5], &mut d, &mut m0);
        receiver.receive(SimdTier::detect(), &reused, &d, &mut got);
        assert_eq!(products(&got, &m0), [0, 0], "unit 0 chose the zero word");
    }

    #[test]
    fn sender_messages_look_uniform() {
        // What the receiver sees of the sender: its packed corrections,
        // every bit of them live.
        let (mut sender, mut receiver) = simulated_base_ots(5);
        let choice = vec![0u64; 4];
        let tier = SimdTier::detect();
        let (_, _, d, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &[0; 8]);
        assert_eq!(d.len(), 4 * PACKED_PAIR_WORDS);
        let pop: u32 = d.iter().map(|w| w.count_ones()).sum();
        let mean = pop as f64 / d.len() as f64;
        assert!((mean - 32.0).abs() < 2.0, "correction popcount mean {mean}");
        assert!(m0_sums.iter().all(|&s| s != 0));
    }

    /// Random corrections of `elements` elements, 64 words each.
    fn random_corrections(seed: u64, elements: usize) -> Vec<u64> {
        let mut g = SplitMix64::new(seed);
        (0..64 * elements).map(|_| g.next_u64()).collect()
    }

    #[test]
    fn packing_keeps_exactly_the_live_bits() {
        // Every d_j keeps its low 64 − j bits through pack and unpack,
        // and the packed words are 260 bytes an element.
        for elements in [2usize, 6, 10] {
            let d = random_corrections(elements as u64, elements);
            let mut packed = vec![0u64; packed_words(elements)];
            pack_corrections(&d, &mut packed);
            assert_eq!(8 * packed.len(), CORRECTION_BYTES * elements);
            let mut back = vec![0u64; d.len()];
            unpack_corrections(&packed, &mut back);
            for (i, (&got, &sent)) in back.iter().zip(&d).enumerate() {
                let j = i % 64;
                assert_eq!(got, sent & (!0 >> j), "element {}, OT {j}", i / 64);
            }
        }
    }

    #[test]
    fn the_receiver_reads_only_the_low_64_minus_j_bits_of_d_j() {
        // The receiver's element sum is unchanged when the top j bits of
        // each d_j are randomised before the pass: the shift by j drops
        // them, so the packing drops nothing the product needs.
        let (mut sender, mut receiver) = simulated_base_ots(17);
        let choice = [0xDEAD_BEEF_F00D_CAFEu64, !0];
        let a = [u64::MAX, 1 << 63, 12345, 0x0123_4567_89AB_CDEF];
        let tier = SimdTier::detect();
        let (recv_sums, _, packed, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &a);
        assert_eq!(products(&recv_sums, &m0_sums), want_products(&choice, &a));
        let mut d = vec![0u64; 64 * a.len()];
        unpack_corrections(&packed, &mut d);
        let mut g = SplitMix64::new(99);
        let elements: Vec<OleElement> = (0..4).map(|e| OleElement { unit: e / 2, tweak: 64 * e as u64 }).collect();
        for (e, el) in elements.into_iter().enumerate() {
            let mut noisy = [0u64; 64];
            for (j, w) in noisy.iter_mut().enumerate() {
                *w = d[64 * e + j] | (g.next_u64() & !(!0 >> j));
            }
            assert_eq!(receive_element(&receiver.rows, &receiver.choice, el, &noisy), recv_sums[e], "element {e}");
        }
    }

    #[test]
    fn edge_values_multiply_exactly_at_every_tier() {
        // a and r at 0, 1, 2^63 and !0: the top OT's one-bit correction
        // and the full-width d_0 both carry their products.
        let edges = [0u64, 1, 1 << 63, !0];
        let a: Vec<u64> = edges.iter().flat_map(|_| edges).collect();
        for tier in SimdTier::available() {
            let (mut sender, mut receiver) = simulated_base_ots(31);
            let (mut u, first) = (vec![0u64; OT_KAPPA * edges.len()], receiver.choice.len() as u32);
            receiver.extend(tier, &edges, &mut u);
            sender.absorb(tier, &u);
            let elements: Vec<OleElement> =
                (0..a.len() as u32).map(|e| OleElement { unit: first + e / 4, tweak: 64 * e as u64 }).collect();
            let (mut d, mut m0) = (vec![0u64; packed_words(a.len())], vec![0u64; a.len()]);
            sender.correct(tier, &elements, &a, &mut d, &mut m0);
            let mut got = vec![0u64; a.len()];
            receiver.receive(tier, &elements, &d, &mut got);
            for (e, p) in products(&got, &m0).into_iter().enumerate() {
                let (a, r) = (a[e], edges[e / 4]);
                assert_eq!(p, a.wrapping_mul(r), "tier {tier}: a = {a:#x}, r = {r:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "is odd")]
    fn an_odd_batch_is_refused_not_padded() {
        let (mut sender, mut receiver) = simulated_base_ots(3);
        let mut u = vec![0u64; OT_KAPPA];
        receiver.extend(SimdTier::Portable, &[5], &mut u);
        sender.absorb(SimdTier::Portable, &u);
        let odd = [0u64, 64, 128].map(|tweak| OleElement { unit: 0, tweak });
        let (mut d, mut sums) = (vec![0u64; 2 * PACKED_PAIR_WORDS], [0u64; 3]);
        sender.correct(SimdTier::Portable, &odd, &[1, 2, 3], &mut d, &mut sums);
    }

    #[test]
    fn different_base_seeds_give_unrelated_extensions() {
        let (mut s1, mut r1) = simulated_base_ots(1);
        let (mut s2, mut r2) = simulated_base_ots(2);
        let choice = [0xABCDu64];
        let tier = SimdTier::detect();
        let (sums1, u1, _, m1) = run_batch(tier, &mut s1, &mut r1, &choice, &[0, 0]);
        let (sums2, u2, _, m2) = run_batch(tier, &mut s2, &mut r2, &choice, &[0, 0]);
        assert_ne!(u1, u2, "column messages differ");
        assert_ne!(sums1, sums2);
        assert_ne!(m1, m2);
    }

    /// Distinct, non-zero message words.
    fn digest_words(len: usize) -> Vec<u64> {
        (1..=len as u64).map(|w| w.wrapping_mul(CRH_GAMMA)).collect()
    }

    #[test]
    fn transcript_digest_detects_a_flip_at_every_word() {
        // Short messages never fill a row; 31..=33 straddle one; 100
        // is several rows deep with a ragged last one.
        for len in (1..=17).chain([31, 32, 33, 50, 100]) {
            let words = digest_words(len);
            let base = transcript_digest(&words);
            assert_eq!(transcript_digest(&words), base, "deterministic");
            for flip in 0..len {
                for bit in [0, 17, 63] {
                    let mut tampered = words.clone();
                    tampered[flip] ^= 1 << bit;
                    assert_ne!(transcript_digest(&tampered), base, "len {len}: word {flip} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn transcript_digest_is_the_same_function_at_every_tier() {
        for len in [0usize, 1, 31, 32, 33, 64, 100, 1000] {
            let words = digest_words(len);
            let want = transcript_digest_tier(SimdTier::Portable, &words);
            for tier in SimdTier::available() {
                assert_eq!(transcript_digest_tier(tier, &words), want, "tier {tier}, len {len}");
            }
        }
    }

    #[test]
    fn transcript_digest_detects_moved_words() {
        for len in [2usize, 9, 16, 17, 50, 100] {
            let words = digest_words(len);
            let base = transcript_digest(&words);
            // Adjacent words (and words 8 apart) sit in different
            // lanes; words a lane stride apart are consecutive inputs
            // of one lane.
            for stride in [1, 8, DIGEST_LANES] {
                for at in 0..len.saturating_sub(stride) {
                    let mut swapped = words.clone();
                    swapped.swap(at, at + stride);
                    assert_ne!(transcript_digest(&swapped), base, "len {len}: {at} <-> {}", at + stride);
                }
            }
            let mut rotated = words.clone();
            rotated.rotate_left(1);
            assert_ne!(transcript_digest(&rotated), base, "len {len}: rotated");
        }
    }

    #[test]
    fn transcript_digest_binds_the_length() {
        // Zero words appended (or a message of nothing but zeros grown)
        // are not absorbed silently.
        for len in [0usize, 1, 31, 32, 33, 50] {
            let words = digest_words(len);
            let mut seen = vec![transcript_digest(&words)];
            let mut longer = words.clone();
            for _ in 0..=DIGEST_LANES {
                longer.push(0);
                let d = transcript_digest(&longer);
                assert!(!seen.contains(&d), "len {len} + {} zeros collides", longer.len() - len);
                seen.push(d);
            }
        }
    }

    #[test]
    #[should_panic(expected = "κ columns")]
    fn absorb_rejects_ragged_messages() {
        let (mut sender, _) = simulated_base_ots(3);
        sender.absorb(SimdTier::Portable, &[0u64; 100]);
    }
}
