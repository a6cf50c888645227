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
//!    transposed with a word-level 64×64 kernel ([`transpose64`]).
//! 3. **Correlation, summed per unit** ([`cot_finish`]): hashing rows
//!    breaks the correlation — the sender's OT-j messages are
//!    `m⁰_j = H(j, q_j)` and `m¹_j = m⁰_j + c_j`; one correction word
//!    `d_j = m⁰_j + c_j − H(j, q_j ⊕ s)` per OT lets the receiver
//!    finish with `m^{r_j}_j = H(j, t_j) + r_j·d_j`. Gilboa-style share
//!    multiplication ([`crate::offline`]) consumes these 64 at a time:
//!    one choice word `r` is one *unit*, correlated by
//!    `c_j = a ≪ j`, and only the unit's sums matter — the sender's
//!    `Σ_j m⁰_j` and the receiver's `Σ_j m^{r_j}_j`, which differ by
//!    `a · r` in `Z_{2^64}`. So neither role keeps a per-OT value:
//!    the receiver keeps `Σ_j H(j, t_j)` per unit and adds the
//!    corrections its choice bits select when they arrive; the sender
//!    writes each correction straight into its outgoing message and
//!    keeps `Σ_j m⁰_j` per unit. A unit whose `a` is not yet known is
//!    *held* as `m⁰_j − H(j, q_j ⊕ s)` and corrected later
//!    ([`UnitSplit`], [`cot_correct_held`]).
//! 4. **Consistency hashing** ([`transcript_digest`]): each
//!    correction message carries a digest of the extension columns it
//!    answers — 32 position-tweaked chains of the modeled hash run
//!    side by side, so the check costs multiplier throughput rather
//!    than multiply latency — and both parties recompute and compare,
//!    so a desynchronised or corrupted transcript fails loudly instead
//!    of silently producing garbage shares. (This is an engineering
//!    integrity check, *not* the malicious-security consistency check
//!    of KOS15 — the threat model stays semi-honest, Definition 6.)
//!
//! Like [`crate::prg`], the hash here ([`cr_hash_scalar`]) is a
//! statistical stand-in, NOT cryptographic — the simulation models
//! costs and share distributions, and every derived share is pinned
//! bit-for-bit by the equivalence suites.
//!
//! # Vectorisation
//!
//! Each role makes **one pass** over its batch, [`LANES`] choice words
//! (512 OTs) at a time, one word per lane, compiled per [`SimdTier`]
//! (AVX-512/AVX2/portable, like [`crate::triple_mul`]): it expands the
//! 128 column words of those eight units in-lane from the seed
//! streams' counter states (SplitMix64 output `k` is a pure function
//! of `state + (k+1)·γ`), writes `u` (receiver) or xors it in
//! (sender), runs the 64×64 transpose on all eight blocks at once
//! (`transpose64_lanes`: one block per lane, so no lane
//! de-interleave), hashes lane-wise with lane `l` at tweak
//! `64(b+l) + j`, and reduces straight into the per-unit sums. A
//! batch whose length is not a multiple of eight runs its last block
//! with the missing lanes computed and dropped. What such a pass
//! stores is the wire message, one sum per unit and (sender) the held
//! units; the rows, hashes and pads live only in the block's working
//! set.
//!
//! The standalone kernels — the batched transpose
//! ([`cols_to_rows_simd_into`]) and batch hash ([`cr_hash_batch`]) on
//! the same dispatch, and the scalar references ([`transpose64`],
//! [`cols_to_rows_scalar`], [`cr_hash_scalar`]) — are kept as A/B
//! references and probes; the `ot_simd_equivalence` suite pins every
//! tier bit-exactly against the references and the passes' Gilboa
//! products at every tier. Digesting every `u` message twice takes the
//! same dispatch ([`transcript_digest_tier`]).

use crate::prg::{mix_lanes, SplitMix64, SM_GAMMA};
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

/// Extension-receiver bytes per extended OT: κ = 128 column bits.
pub const EXT_COLUMN_BYTES_PER_OT: u64 = (OT_KAPPA as u64) / 8;

/// Extension-sender bytes per extended correlated OT: one 8-byte
/// correction word.
pub const EXT_CORRECTION_BYTES_PER_OT: u64 = 8;

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
pub const DIGEST_LANES: usize = 32;

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
pub fn transcript_digest_tier(tier: SimdTier, words: &[u64]) -> u64 {
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
/// consistency check: [`DIGEST_LANES`] running folds of the modeled
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

/// The extension sender's long-lived state: the secret choice vector
/// `s` and the κ base-OT seeds `k_{s_i}` it received.
///
/// "Sender" is the *extension* role (it will hold both messages of
/// every extended OT); in the base OTs it acted as receiver.
#[derive(Debug, Clone)]
pub struct CotSender {
    /// `s` packed as two words (bit `i` of the 128-bit vector).
    delta: [u64; 2],
    /// The chosen seed of each base OT, as a PRG stream.
    seeds: Vec<SplitMix64>,
    /// Monotone per-OT hash tweak, kept in lockstep with the receiver.
    tweak: u64,
}

/// The extension receiver's long-lived state: both base-OT seeds per
/// column (it acted as base-OT *sender*).
#[derive(Debug, Clone)]
pub struct CotReceiver {
    seeds0: Vec<SplitMix64>,
    seeds1: Vec<SplitMix64>,
    tweak: u64,
}

/// Simulates the κ base OTs of one extension direction from a seed:
/// the receiver ends with both seed streams, the sender with its
/// secret `s` and the matching seed stream per column.
///
/// Costs are **not** tallied here — callers account one base-OT batch
/// per direction per protocol execution (see
/// [`crate::offline::ot_setup_ledger`]).
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
        CotSender { delta, seeds: chosen, tweak: 0 },
        CotReceiver { seeds0, seeds1, tweak: 0 },
    )
}

/// The counter states of κ seed streams, each then advanced past the
/// `words` outputs a pass expands from it in closed counter form.
fn take_states(seeds: &mut [SplitMix64], words: usize) -> [u64; OT_KAPPA] {
    let mut states = [0u64; OT_KAPPA];
    for (state, seed) in states.iter_mut().zip(seeds) {
        *state = seed.state_raw();
        seed.skip(words);
    }
    states
}

/// The first `valid` lanes from the front of `src`, the rest zero — a
/// block's load when fewer than `N` choice words are left.
#[inline(always)]
fn load_part<const N: usize>(src: &[u64], valid: usize) -> U64xN<N> {
    if valid == N {
        U64xN::load(src)
    } else {
        let mut out = [0u64; N];
        out[..valid].copy_from_slice(&src[..valid]);
        U64xN(out)
    }
}

/// Stores the first `valid` lanes of `v` to the front of `dst`.
#[inline(always)]
fn store_part<const N: usize>(v: U64xN<N>, dst: &mut [u64], valid: usize) {
    if valid == N {
        v.store(dst)
    } else {
        dst[..valid].copy_from_slice(&v.0[..valid]);
    }
}

/// Column word `b + l` of the stream whose counter state is `state`,
/// in lane `l`: `ctr` holds `(b + l + 1)·γ` per lane.
#[inline(always)]
fn column_lanes<const N: usize>(state: u64, ctr: U64xN<N>) -> U64xN<N> {
    mix_lanes(U64xN::splat(state) + ctr)
}

/// `(b + l + 1)·γ` in lane `l`: the counter offsets of choice words
/// `b .. b + N` in every seed stream.
#[inline(always)]
fn block_counters<const N: usize>(b: usize) -> U64xN<N> {
    U64xN::splat(SM_GAMMA.wrapping_mul(b as u64 + 1)) + lane_steps(SM_GAMMA)
}

/// The receiver's pass over choice words `b .. b + valid` (lane `l` is
/// word `b + l`): expands `t` and `G(k¹)` in-lane, writes
/// `u = t ⊕ G(k¹) ⊕ r` to each column, transposes `t` into `rows` and
/// returns `Σ_j H(64(b+l) + j, t_j)` per lane.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn extend_block<const N: usize>(
    states0: &[u64; OT_KAPPA],
    states1: &[u64; OT_KAPPA],
    tweak: u64,
    choice: &[u64],
    b: usize,
    valid: usize,
    u_cols: &mut [u64],
    rows: &mut [[U64xN<N>; 64]; 2],
) -> U64xN<N> {
    let words = choice.len();
    let ctr = block_counters::<N>(b);
    let r = load_part::<N>(&choice[b..], valid);
    for (half, block) in rows.iter_mut().enumerate() {
        for (c, slot) in block.iter_mut().enumerate() {
            let i = half * 64 + c;
            let t = column_lanes(states0[i], ctr);
            let g1 = column_lanes(states1[i], ctr);
            store_part(t ^ g1 ^ r, &mut u_cols[i * words + b..], valid);
            *slot = t;
        }
        transpose64_lanes(block);
    }
    let lane_tweaks = lane_steps::<N>(64);
    let first = tweak.wrapping_add(64 * b as u64);
    let mut sum = U64xN::ZERO;
    // Rows in the order j ← (j + 5) mod 64, uncounted like the
    // transpose's passes, so the hash stays lane-parallel.
    let mut j = 0;
    loop {
        let tw = first.wrapping_add(j as u64);
        sum = sum + cr_hash_lanes(tw, lane_tweaks, rows[0][j], rows[1][j], [0, 0]);
        j = (j + 5) & 63;
        if j == 0 {
            break;
        }
    }
    sum
}

/// Body of [`CotReceiver::extend`], compiled once per dispatch tier:
/// [`extend_block`] over every `N` choice words, the last block's
/// missing lanes computed and dropped. (The full blocks pass `valid`
/// as the constant `N`, so their loads and stores are whole vectors.)
#[inline(always)]
fn extend_body<const N: usize>(
    states0: &[u64; OT_KAPPA],
    states1: &[u64; OT_KAPPA],
    tweak: u64,
    choice: &[u64],
    u_cols: &mut [u64],
    sums: &mut [u64],
) {
    let words = choice.len();
    let full = words - words % N;
    let mut rows = [[U64xN::<N>::ZERO; 64]; 2];
    for b in (0..full).step_by(N) {
        let sum = extend_block::<N>(states0, states1, tweak, choice, b, N, u_cols, &mut rows);
        sum.store(&mut sums[b..]);
    }
    if full < words {
        let valid = words - full;
        let sum =
            extend_block::<N>(states0, states1, tweak, choice, full, valid, u_cols, &mut rows);
        store_part(sum, &mut sums[full..], valid);
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn extend_avx512(
    states0: &[u64; OT_KAPPA],
    states1: &[u64; OT_KAPPA],
    tweak: u64,
    choice: &[u64],
    u_cols: &mut [u64],
    sums: &mut [u64],
) {
    extend_body::<LANES>(states0, states1, tweak, choice, u_cols, sums)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn extend_avx2(
    states0: &[u64; OT_KAPPA],
    states1: &[u64; OT_KAPPA],
    tweak: u64,
    choice: &[u64],
    u_cols: &mut [u64],
    sums: &mut [u64],
) {
    extend_body::<LANES>(states0, states1, tweak, choice, u_cols, sums)
}

impl CotReceiver {
    /// Runs one extension batch over the packed `choice` bits in one
    /// pass (`m = 64 · choice.len()` extended OTs, one *unit* of 64 per
    /// choice word): writes the column message `u` to send into
    /// `u_cols` (column-major, `OT_KAPPA · choice.len()` words) and,
    /// per unit `b`, the sum of its 64 hashed rows
    /// `Σ_j H(64b + j, t_j)` into `sums[b]` — all a Gilboa
    /// multiplication needs of the receiver's side before the
    /// corrections arrive ([`cot_finish`]). No row or hash is stored.
    ///
    /// # Panics
    /// Panics if the tier is unsupported on this CPU, `u_cols` is not
    /// `OT_KAPPA · choice.len()` words or `sums` not `choice.len()`.
    pub fn extend(&mut self, tier: SimdTier, choice: &[u64], u_cols: &mut [u64], sums: &mut [u64]) {
        assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
        let words = choice.len();
        assert_eq!(u_cols.len(), OT_KAPPA * words, "κ columns of one word per unit");
        assert_eq!(sums.len(), words, "one sum per unit");
        let states0 = take_states(&mut self.seeds0, words);
        let states1 = take_states(&mut self.seeds1, words);
        let tweak = self.tweak;
        self.tweak += (64 * words) as u64;
        match tier {
            // SAFETY: `supported()` just confirmed the CPU features the
            // callee is compiled for.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe {
                extend_avx512(&states0, &states1, tweak, choice, u_cols, sums)
            },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { extend_avx2(&states0, &states1, tweak, choice, u_cols, sums) },
            _ => extend_body::<LANES>(&states0, &states1, tweak, choice, u_cols, sums),
        }
    }
}

/// The receiver's finished Gilboa sum over one unit of 64 OTs with
/// choice word `choice`: `Σ_j m^{r_j}_j = sum + Σ_{r_j = 1} d_j`, where
/// `sum` is the unit's [`CotReceiver::extend`] output and `d` its 64
/// correction words. Under corrections for correlation `a` (see
/// [`CotSender::absorb`]) this is `Σ_j m⁰_j + a · choice` in `Z_{2^64}`.
///
/// # Panics
/// Panics if `d` is not 64 words.
#[inline]
pub fn cot_finish(sum: u64, choice: u64, d: &[u64]) -> u64 {
    assert_eq!(d.len(), 64, "one correction per OT of the unit");
    let mut acc = sum;
    for (j, &d_j) in d.iter().enumerate() {
        acc = acc.wrapping_add(d_j & 0u64.wrapping_sub((choice >> j) & 1));
    }
    acc
}

/// Where a sender pass puts each unit's 64 words: units come in
/// periods of `period` (one Multiplication Group's multiplications of
/// a direction); the first `sent` units of a period are corrections
/// for the outgoing message, the rest are *held* as `m⁰_j − H(j, q_j ⊕ s)`
/// until their correlation is known ([`cot_correct_held`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSplit {
    /// Units per period (≥ 1).
    pub period: usize,
    /// Units per period that go to the message (≤ `period`).
    pub sent: usize,
}

impl UnitSplit {
    /// Every unit's corrections go to the message.
    pub const ALL_SENT: UnitSplit = UnitSplit { period: 1, sent: 1 };

    /// Words of `units` units that go to the message, and that are held.
    fn words(self, units: usize) -> (usize, usize) {
        assert!(self.period > 0 && self.sent <= self.period, "invalid unit split {self:?}");
        assert_eq!(units % self.period, 0, "whole periods of units");
        let periods = units / self.period;
        (64 * self.sent * periods, 64 * (self.period - self.sent) * periods)
    }
}

/// The two output slices of a sender pass, routed per unit by a
/// [`UnitSplit`].
struct SenderOut<'a> {
    split: UnitSplit,
    sent: &'a mut [u64],
    held: &'a mut [u64],
}

impl SenderOut<'_> {
    /// The 64 output words of unit `v`.
    #[inline(always)]
    fn unit(&mut self, v: usize) -> &mut [u64] {
        let UnitSplit { period, sent } = self.split;
        let (p, m) = (v / period, v % period);
        if m < sent {
            &mut self.sent[64 * (p * sent + m)..][..64]
        } else {
            &mut self.held[64 * (p * (period - sent) + m - sent)..][..64]
        }
    }
}

/// A sender block's working set: its transposed rows and its
/// corrections, lane `l` being unit `b + l`.
struct SenderBlock<const N: usize> {
    rows: [[U64xN<N>; 64]; 2],
    d: [U64xN<N>; 64],
}

/// The sender's pass over units `b .. b + valid` (lane `l` is unit
/// `b + l`): rebuilds `q = G(k_s) ⊕ s·u` in-lane, transposes it into
/// rows, hashes both branches, writes
/// `d_j = m⁰_j + (a_l ≪ j) − H(j, q_j ⊕ s)` to each unit's slot in
/// `out` and returns `Σ_j m⁰_j` per lane.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn absorb_block<const N: usize>(
    states: &[u64; OT_KAPPA],
    delta: [u64; 2],
    tweak: u64,
    u_cols: &[u64],
    a: &[u64],
    b: usize,
    valid: usize,
    out: &mut SenderOut<'_>,
    work: &mut SenderBlock<N>,
) -> U64xN<N> {
    let words = a.len();
    let ctr = block_counters::<N>(b);
    let SenderBlock { rows, d } = work;
    for (half, block) in rows.iter_mut().enumerate() {
        for (c, slot) in block.iter_mut().enumerate() {
            let i = half * 64 + c;
            let s_i = U64xN::splat(0u64.wrapping_sub((delta[half] >> c) & 1));
            let u = load_part::<N>(&u_cols[i * words + b..], valid);
            *slot = column_lanes(states[i], ctr) ^ (u & s_i);
        }
        transpose64_lanes(block);
    }
    let a = load_part::<N>(&a[b..], valid);
    let lane_tweaks = lane_steps::<N>(64);
    let first = tweak.wrapping_add(64 * b as u64);
    let mut sum = U64xN::ZERO;
    // Rows in the uncounted order of `extend_block`.
    let mut j = 0;
    loop {
        let tw = first.wrapping_add(j as u64);
        let m0 = cr_hash_lanes(tw, lane_tweaks, rows[0][j], rows[1][j], [0, 0]);
        let pad1 = cr_hash_lanes(tw, lane_tweaks, rows[0][j], rows[1][j], delta);
        sum = sum + m0;
        d[j] = m0 + (a << j as u32) - pad1;
        j = (j + 5) & 63;
        if j == 0 {
            break;
        }
    }
    for l in 0..valid {
        for (slot, d_j) in out.unit(b + l).iter_mut().zip(d.iter()) {
            *slot = d_j.0[l];
        }
    }
    sum
}

/// Body of [`CotSender::absorb`], compiled once per dispatch tier.
#[inline(always)]
fn absorb_body<const N: usize>(
    states: &[u64; OT_KAPPA],
    delta: [u64; 2],
    tweak: u64,
    u_cols: &[u64],
    a: &[u64],
    out: &mut SenderOut<'_>,
    sums: &mut [u64],
) {
    let words = a.len();
    let full = words - words % N;
    let mut work = SenderBlock { rows: [[U64xN::ZERO; 64]; 2], d: [U64xN::ZERO; 64] };
    for b in (0..full).step_by(N) {
        let sum = absorb_block::<N>(states, delta, tweak, u_cols, a, b, N, out, &mut work);
        sum.store(&mut sums[b..]);
    }
    if full < words {
        let valid = words - full;
        let sum =
            absorb_block::<N>(states, delta, tweak, u_cols, a, full, valid, out, &mut work);
        store_part(sum, &mut sums[full..], valid);
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn absorb_avx512(
    states: &[u64; OT_KAPPA],
    delta: [u64; 2],
    tweak: u64,
    u_cols: &[u64],
    a: &[u64],
    out: &mut SenderOut<'_>,
    sums: &mut [u64],
) {
    absorb_body::<LANES>(states, delta, tweak, u_cols, a, out, sums)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn absorb_avx2(
    states: &[u64; OT_KAPPA],
    delta: [u64; 2],
    tweak: u64,
    u_cols: &[u64],
    a: &[u64],
    out: &mut SenderOut<'_>,
    sums: &mut [u64],
) {
    absorb_body::<LANES>(states, delta, tweak, u_cols, a, out, sums)
}

impl CotSender {
    /// Absorbs the receiver's column message for a batch of
    /// `m = 64 · a.len()` extended OTs in one pass, correlating unit
    /// `b`'s OT `j` with `c_j = a[b] ≪ j` (a Gilboa multiplication by
    /// `a[b]`): writes the correction words
    /// `d_j = m⁰_j + c_j − H(j, q_j ⊕ s)` of each unit to `sent` or
    /// `held` as `split` routes it (a held unit's `a` should be 0; see
    /// [`cot_correct_held`]) and `Σ_j m⁰_j` per unit into `sums`. The
    /// receiver's [`cot_finish`] of a unit minus this sum is
    /// `a[b] · r_b`. No row, hash or pad is stored.
    ///
    /// # Panics
    /// Panics if the tier is unsupported on this CPU, `u_cols` is not
    /// `OT_KAPPA` columns of `a.len()` words, `sums` is not `a.len()`
    /// words, `a.len()` is not whole periods of `split`, or `sent` /
    /// `held` are not 64 words per sent / held unit.
    #[allow(clippy::too_many_arguments)]
    pub fn absorb(
        &mut self,
        tier: SimdTier,
        u_cols: &[u64],
        a: &[u64],
        split: UnitSplit,
        sent: &mut [u64],
        held: &mut [u64],
        sums: &mut [u64],
    ) {
        assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
        let words = a.len();
        assert_eq!(
            u_cols.len(),
            OT_KAPPA * words,
            "u message must be κ columns of one word per unit"
        );
        assert_eq!(sums.len(), words, "one sum per unit");
        let (sent_words, held_words) = split.words(words);
        assert_eq!(sent.len(), sent_words, "sent corrections");
        assert_eq!(held.len(), held_words, "held corrections");
        let states = take_states(&mut self.seeds, words);
        let tweak = self.tweak;
        self.tweak += (64 * words) as u64;
        let delta = self.delta;
        let mut out = SenderOut { split, sent, held };
        match tier {
            // SAFETY: `supported()` just confirmed the CPU features the
            // callee is compiled for.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe {
                absorb_avx512(&states, delta, tweak, u_cols, a, &mut out, sums)
            },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { absorb_avx2(&states, delta, tweak, u_cols, a, &mut out, sums) },
            _ => absorb_body::<LANES>(&states, delta, tweak, u_cols, a, &mut out, sums),
        }
    }
}

/// Finishes a held unit once its correlation `a` is known: appends
/// `held_j + (a ≪ j)` — the unit's correction words — to `msg`.
///
/// # Panics
/// Panics if `held` is not 64 words.
#[inline]
pub fn cot_correct_held(held: &[u64], a: u64, msg: &mut Vec<u64>) {
    assert_eq!(held.len(), 64, "one held word per OT of the unit");
    msg.extend(held.iter().enumerate().map(|(j, &h)| h.wrapping_add(a.wrapping_shl(j as u32))));
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

    /// One extension batch in both roles at `tier`, every unit's
    /// corrections sent: the receiver's per-unit sums, the `u` message,
    /// the corrections and the sender's per-unit `Σ m⁰`.
    fn run_batch(
        tier: SimdTier,
        sender: &mut CotSender,
        receiver: &mut CotReceiver,
        choice: &[u64],
        a: &[u64],
    ) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) {
        let words = choice.len();
        let (mut u, mut recv_sums) = (vec![0u64; OT_KAPPA * words], vec![0u64; words]);
        receiver.extend(tier, choice, &mut u, &mut recv_sums);
        let (mut d, mut m0_sums) = (vec![0u64; 64 * words], vec![0u64; words]);
        sender.absorb(tier, &u, a, UnitSplit::ALL_SENT, &mut d, &mut [], &mut m0_sums);
        (recv_sums, u, d, m0_sums)
    }

    /// The Gilboa product of every unit: the receiver's finished sum
    /// minus the sender's `Σ m⁰`.
    fn products(choice: &[u64], recv_sums: &[u64], d: &[u64], m0_sums: &[u64]) -> Vec<u64> {
        (0..choice.len())
            .map(|b| {
                let finished = cot_finish(recv_sums[b], choice[b], &d[64 * b..][..64]);
                finished.wrapping_sub(m0_sums[b])
            })
            .collect()
    }

    /// The heart of IKNP: after extension, `q_j = t_j ⊕ (r_j · s)`, so
    /// under the zero correlation the receiver's outputs are the
    /// sender's `m⁰_j` whatever its choice bits — per unit, its
    /// finished sum is `Σ m⁰`.
    #[test]
    fn extension_rows_satisfy_the_iknp_invariant() {
        let (mut sender, mut receiver) = simulated_base_ots(7);
        let choice: Vec<u64> = {
            let mut g = SplitMix64::new(9);
            (0..3).map(|_| g.next_u64()).collect()
        };
        let tier = SimdTier::detect();
        let (recv_sums, _, d, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &[0; 3]);
        assert_eq!(products(&choice, &recv_sums, &d, &m0_sums), vec![0; 3]);
    }

    #[test]
    fn correlated_ot_delivers_m0_plus_c_on_one_branch() {
        // One chosen OT per unit picks up exactly `a ≪ j`; the others
        // deliver `m⁰` and add nothing.
        let (mut sender, mut receiver) = simulated_base_ots(13);
        let choice = [1u64, 1 << 5, 1 << 63, 0xF0F0_F0F0_F0F0_F0F0, 0];
        let a = [1000u64, 1001, 1002, 1003, 1004];
        let tier = SimdTier::detect();
        let (recv_sums, _, d, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &a);
        assert_eq!(
            products(&choice, &recv_sums, &d, &m0_sums),
            vec![1000, 1001 << 5, 1002 << 63, 1003u64.wrapping_mul(0xF0F0_F0F0_F0F0_F0F0), 0]
        );
    }

    #[test]
    fn batches_stay_in_lockstep_across_calls() {
        // Consecutive batches must keep the seed streams and hash
        // tweaks aligned: every batch's products stay exact.
        let (mut sender, mut receiver) = simulated_base_ots(21);
        for round in 0..3u64 {
            let choice = vec![round.wrapping_mul(0x9E3779B97F4A7C15); 2 + round as usize];
            let a = vec![7u64; choice.len()];
            let tier = SimdTier::detect();
            let (recv_sums, _, d, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &a);
            let want: Vec<u64> = choice.iter().map(|r| r.wrapping_mul(7)).collect();
            assert_eq!(products(&choice, &recv_sums, &d, &m0_sums), want, "round {round}");
        }
    }

    #[test]
    fn sender_messages_look_uniform() {
        // What the receiver sees of the sender: its corrections.
        let (mut sender, mut receiver) = simulated_base_ots(5);
        let choice = vec![0u64; 4];
        let tier = SimdTier::detect();
        let (_, _, d, m0_sums) = run_batch(tier, &mut sender, &mut receiver, &choice, &[0; 4]);
        let pop: u32 = d.iter().map(|w| w.count_ones()).sum();
        let mean = pop as f64 / d.len() as f64;
        assert!((mean - 32.0).abs() < 2.0, "correction popcount mean {mean}");
        assert!(m0_sums.iter().all(|&s| s != 0));
    }

    #[test]
    fn held_units_finish_to_the_sent_corrections() {
        // Routing a unit to the held buffer and correcting it later
        // gives the words the pass would have sent.
        let choice: Vec<u64> = (1..=12u64).map(|w| w.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let a: Vec<u64> = (0..12u64).map(|b| if b % 4 == 3 { 0 } else { b + 100 }).collect();
        let late: Vec<u64> = (0..3u64).map(|p| p.wrapping_mul(0xDEAD_BEEF) + 1).collect();
        let (mut sender, mut receiver) = simulated_base_ots(31);
        let mut all_a = a.clone();
        for (p, &o) in late.iter().enumerate() {
            all_a[4 * p + 3] = o;
        }
        let tier = SimdTier::detect();
        let (_, u, d_all, sums_all) = run_batch(tier, &mut sender, &mut receiver, &choice, &all_a);
        let (mut split_sender, _) = simulated_base_ots(31);
        let split = UnitSplit { period: 4, sent: 3 };
        let (mut sent, mut held) = (vec![0u64; 64 * 9], vec![0u64; 64 * 3]);
        let mut sums = vec![0u64; 12];
        split_sender.absorb(tier, &u, &a, split, &mut sent, &mut held, &mut sums);
        assert_eq!(sums, sums_all);
        for p in 0..3 {
            for m in 0..3 {
                assert_eq!(sent[64 * (3 * p + m)..][..64], d_all[64 * (4 * p + m)..][..64]);
            }
            let mut finished = Vec::new();
            cot_correct_held(&held[64 * p..][..64], late[p], &mut finished);
            assert_eq!(finished, d_all[64 * (4 * p + 3)..][..64], "period {p}");
        }
    }

    #[test]
    fn different_base_seeds_give_unrelated_extensions() {
        let (mut s1, mut r1) = simulated_base_ots(1);
        let (mut s2, mut r2) = simulated_base_ots(2);
        let choice = [0xABCDu64];
        let tier = SimdTier::detect();
        let (sums1, u1, _, m1) = run_batch(tier, &mut s1, &mut r1, &choice, &[0]);
        let (sums2, u2, _, m2) = run_batch(tier, &mut s2, &mut r2, &choice, &[0]);
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
        let (mut d, split) = ([0u64; 64], UnitSplit::ALL_SENT);
        sender.absorb(SimdTier::Portable, &[0u64; 100], &[0], split, &mut d, &mut [], &mut [0]);
    }
}
