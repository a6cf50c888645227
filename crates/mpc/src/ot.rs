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
//! 3. **Correlation** ([`SendBatch::correction`] /
//!    [`RecvBatch::outputs`]): hashing rows breaks the correlation —
//!    the sender's OT-j messages are `m⁰_j = H(j, q_j)` and
//!    `m¹_j = m⁰_j + c_j`; one correction word
//!    `d_j = m⁰_j + c_j − H(j, q_j ⊕ s)` per OT lets the receiver
//!    finish with `m^{r_j}_j = H(j, t_j) + r_j·d_j`. This is exactly
//!    the COT flavour Gilboa-style share multiplication consumes
//!    ([`crate::offline`]).
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
//! The two inner loops that dominate extension — the 64×64 bit
//! transpose and the correlation-robust hash — are routed through
//! [`crate::simd`] `U64xN` lanes with the same runtime
//! AVX-512/AVX2/portable dispatch as [`crate::triple_mul`]
//! ([`SimdTier`]). The transpose is batched *across* [`LANES`]
//! independent 64×64 blocks (one block per lane: column loads are
//! contiguous because consecutive blocks of one column are adjacent in
//! the column-major wire layout), and the hash runs lane-parallel over
//! the transposed rows kept in structure-of-arrays form. The scalar
//! kernels ([`transpose64`], [`cols_to_rows_scalar`],
//! [`cr_hash_scalar`]) are retained as A/B references; the
//! `ot_simd_equivalence` proptest suite pins every dispatch tier
//! bit-exactly against them.
//!
//! The two terms left after that — expanding the base seeds into
//! columns (6 PRG words per extended OT across both roles) and
//! digesting every `u` message twice — take the same dispatch:
//! [`SplitMix64::fill_block_tier`] and [`transcript_digest_tier`]. Each
//! role keeps its slab working set across batches, so a flight
//! allocates only what it returns.

use crate::prg::SplitMix64;
use crate::simd::{SimdTier, U64xN, LANES};

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

/// Generic body of the batch hash: vector main loop plus a scalar tail
/// (`out.len() % N` rows). Compiled once per dispatch tier.
#[inline(always)]
fn cr_hash_batch_body<const N: usize>(
    tweak0: u64,
    lo: &[u64],
    hi: &[u64],
    delta: [u64; 2],
    out: &mut [u64],
) {
    let n = out.len();
    debug_assert_eq!(lo.len(), n);
    debug_assert_eq!(hi.len(), n);
    let mut off = [0u64; N];
    for (l, v) in off.iter_mut().enumerate() {
        *v = l as u64;
    }
    let lane_off = U64xN(off);
    let full = n - n % N;
    let mut j = 0;
    while j < full {
        let z = cr_hash_lanes::<N>(
            tweak0.wrapping_add(j as u64),
            lane_off,
            U64xN::load(&lo[j..]),
            U64xN::load(&hi[j..]),
            delta,
        );
        z.store(&mut out[j..]);
        j += N;
    }
    for j in full..n {
        out[j] = cr_hash(
            tweak0.wrapping_add(j as u64),
            [lo[j] ^ delta[0], hi[j] ^ delta[1]],
        );
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn cr_hash_batch_avx512(tweak0: u64, lo: &[u64], hi: &[u64], delta: [u64; 2], out: &mut [u64]) {
    cr_hash_batch_body::<LANES>(tweak0, lo, hi, delta, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cr_hash_batch_avx2(tweak0: u64, lo: &[u64], hi: &[u64], delta: [u64; 2], out: &mut [u64]) {
    cr_hash_batch_body::<LANES>(tweak0, lo, hi, delta, out)
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
        _ => cr_hash_batch_body::<LANES>(tweak0, lo, hi, delta, out),
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

/// The Hacker's-Delight butterfly of [`transpose64`] run lane-wise over
/// `N` *independent* 64×64 blocks at once: `m[k]` holds word `k` of
/// all `N` blocks, one block per lane. Identical op sequence per lane,
/// so each lane is bit-identical to the scalar kernel.
#[inline(always)]
fn transpose64_lanes<const N: usize>(m: &mut [U64xN<N>; 64]) {
    let mut j = 32usize;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let keep = U64xN::<N>::splat(!mask);
        let sh = j as u32;
        let mut k = 0;
        while k < 64 {
            let t = (m[k] ^ (m[k + j] << sh)) & keep;
            m[k] = m[k] ^ t;
            m[k + j] = m[k + j] ^ (t >> sh);
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
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
/// [`cols_to_rows_scalar`] at every [`SimdTier`]. This is the
/// allocation-free form the extension engine runs per slab, reusing
/// one pair of buffers across the whole chunk; [`cols_to_rows_simd`]
/// is the allocating convenience wrapper.
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
    scratch: SlabScratch,
}

/// The per-slab working set of one extension role, kept across batches
/// (a chunk session runs one batch per flight; re-allocating and
/// zero-filling ~130 KB per call was pure overhead). Sized on first
/// use, so the half of [`simulated_base_ots`] a party drops costs
/// nothing.
#[derive(Debug, Clone, Default)]
struct SlabScratch {
    /// κ expanded columns of one slab (`t` on the receiver, `q` on the
    /// sender), column-major.
    cols: Vec<u64>,
    /// The slab's transposed rows, structure-of-arrays.
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// The receiver's `G(k¹_i)` column.
    g1: Vec<u64>,
}

impl SlabScratch {
    fn ensure(&mut self) {
        self.cols.resize(OT_KAPPA * EXT_SLAB_WORDS, 0);
        self.lo.resize(64 * EXT_SLAB_WORDS, 0);
        self.hi.resize(64 * EXT_SLAB_WORDS, 0);
        self.g1.resize(EXT_SLAB_WORDS, 0);
    }
}

/// The extension receiver's long-lived state: both base-OT seeds per
/// column (it acted as base-OT *sender*).
#[derive(Debug, Clone)]
pub struct CotReceiver {
    seeds0: Vec<SplitMix64>,
    seeds1: Vec<SplitMix64>,
    tweak: u64,
    scratch: SlabScratch,
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
        CotSender {
            delta,
            seeds: chosen,
            tweak: 0,
            scratch: SlabScratch::default(),
        },
        CotReceiver {
            seeds0,
            seeds1,
            tweak: 0,
            scratch: SlabScratch::default(),
        },
    )
}

/// One extension batch on the receiver side: the `t_j` rows plus the
/// state needed to finish each OT once the corrections arrive.
#[derive(Debug, Clone)]
pub struct RecvBatch {
    /// `H(j, t_j)` per extended OT (hashed eagerly).
    hashed: Vec<u64>,
    /// The batch's choice bits, packed.
    choice: Vec<u64>,
}

impl RecvBatch {
    /// Number of extended OTs in the batch.
    pub fn len(&self) -> usize {
        self.hashed.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.hashed.is_empty()
    }

    /// Finishes OT `j` given its correction word:
    /// `out_j = H(j, t_j) + r_j · d_j`, i.e. the receiver's chosen
    /// message `m^{r_j}_j`. The offline engines apply corrections
    /// mult-by-mult (they arrive in separate messages), hence the
    /// per-OT form.
    #[inline]
    pub fn output_at(&self, j: usize, d_j: u64) -> u64 {
        let h = self.hashed[j];
        if (self.choice[j / 64] >> (j % 64)) & 1 == 1 {
            h.wrapping_add(d_j)
        } else {
            h
        }
    }

    /// Finishes the whole batch (see [`Self::output_at`]).
    ///
    /// # Panics
    /// Panics if `d` does not hold one correction word per OT.
    pub fn outputs(&self, d: &[u64]) -> Vec<u64> {
        assert_eq!(d.len(), self.hashed.len(), "one correction per OT");
        (0..self.hashed.len())
            .map(|j| self.output_at(j, d[j]))
            .collect()
    }
}

/// Internal slab width (in 64-OT words) for the extension passes:
/// batches are expanded, transposed, and hashed `EXT_SLAB_WORDS` words
/// at a time so the working set (κ columns of a slab plus its
/// transposed rows, ~200 KB) stays cache-resident however large the
/// amortised flight is. Pure compute scheduling — the wire messages,
/// per-seed streams, and hash tweaks are identical to a single pass
/// over the whole batch.
const EXT_SLAB_WORDS: usize = 64;

impl CotReceiver {
    /// Runs one extension batch over the packed `choice` bits
    /// (`m = 64 · choice.len()` extended OTs): returns the local batch
    /// state and the column message `u` to send (column-major,
    /// `OT_KAPPA · choice.len()` words).
    pub fn extend(&mut self, choice: &[u64]) -> (RecvBatch, Vec<u64>) {
        self.extend_into(choice, Vec::new())
    }

    /// [`CotReceiver::extend`] writing the column message into the
    /// allocation of `u_cols` (whose contents are discarded), so a
    /// caller can recycle a spent message's buffer.
    pub(crate) fn extend_into(
        &mut self,
        choice: &[u64],
        mut u_cols: Vec<u64>,
    ) -> (RecvBatch, Vec<u64>) {
        let tier = SimdTier::detect();
        let words = choice.len();
        u_cols.clear();
        u_cols.resize(OT_KAPPA * words, 0);
        let mut hashed = vec![0u64; 64 * words];
        self.scratch.ensure();
        let SlabScratch { cols: t_slab, lo, hi, g1 } = &mut self.scratch;
        let base = self.tweak;
        self.tweak += (64 * words) as u64;
        for (s, chunk) in choice.chunks(EXT_SLAB_WORDS).enumerate() {
            let off = s * EXT_SLAB_WORDS;
            let w = chunk.len();
            for i in 0..OT_KAPPA {
                let t = &mut t_slab[i * w..(i + 1) * w];
                let g1 = &mut g1[..w];
                self.seeds0[i].fill_block_tier(tier, t);
                self.seeds1[i].fill_block_tier(tier, g1);
                let u = &mut u_cols[i * words + off..][..w];
                for b in 0..w {
                    u[b] = t[b] ^ g1[b] ^ chunk[b];
                }
            }
            cols_to_rows_simd_into(tier, &t_slab[..OT_KAPPA * w], w, &mut lo[..64 * w], &mut hi[..64 * w]);
            cr_hash_batch(
                tier,
                base + (64 * off) as u64,
                &lo[..64 * w],
                &hi[..64 * w],
                [0, 0],
                &mut hashed[64 * off..64 * (off + w)],
            );
        }
        (
            RecvBatch {
                hashed,
                choice: choice.to_vec(),
            },
            u_cols,
        )
    }
}

/// One extension batch on the sender side: per-OT message pairs, ready
/// to be correlated.
#[derive(Debug, Clone)]
pub struct SendBatch {
    /// `m⁰_j = H(j, q_j)` per OT.
    m0: Vec<u64>,
    /// `H(j, q_j ⊕ s)` per OT (the pad under the receiver's `r_j = 1`
    /// branch).
    pad1: Vec<u64>,
}

impl SendBatch {
    /// Number of extended OTs in the batch.
    pub fn len(&self) -> usize {
        self.m0.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.m0.is_empty()
    }

    /// The sender's zero-message `m⁰_j` of OT `j` (uniform-looking; a
    /// Gilboa multiplication sums these into its share).
    pub fn m0(&self, j: usize) -> u64 {
        self.m0[j]
    }

    /// Correction word for OT `j` under correlation `c_j`:
    /// `d_j = m⁰_j + c_j − H(j, q_j ⊕ s)`, so the receiver's `r_j = 1`
    /// branch evaluates to `m⁰_j + c_j`.
    pub fn correction(&self, j: usize, c_j: u64) -> u64 {
        self.m0[j].wrapping_add(c_j).wrapping_sub(self.pad1[j])
    }
}

impl CotSender {
    /// Absorbs the receiver's column message for a batch of
    /// `m = 64 · (u_cols.len() / OT_KAPPA)` extended OTs and returns
    /// the sender-side batch state.
    ///
    /// # Panics
    /// Panics if `u_cols` is not `OT_KAPPA` whole columns.
    pub fn absorb(&mut self, u_cols: &[u64]) -> SendBatch {
        assert_eq!(u_cols.len() % OT_KAPPA, 0, "u message must be κ columns");
        let tier = SimdTier::detect();
        let words = u_cols.len() / OT_KAPPA;
        let mut m0 = vec![0u64; 64 * words];
        let mut pad1 = vec![0u64; 64 * words];
        self.scratch.ensure();
        let SlabScratch { cols: q_slab, lo, hi, .. } = &mut self.scratch;
        let base = self.tweak;
        self.tweak += (64 * words) as u64;
        let mut off = 0usize;
        while off < words {
            let w = (words - off).min(EXT_SLAB_WORDS);
            for i in 0..OT_KAPPA {
                let q = &mut q_slab[i * w..(i + 1) * w];
                self.seeds[i].fill_block_tier(tier, q);
                if (self.delta[i / 64] >> (i % 64)) & 1 == 1 {
                    let u = &u_cols[i * words + off..][..w];
                    for b in 0..w {
                        q[b] ^= u[b];
                    }
                }
            }
            cols_to_rows_simd_into(tier, &q_slab[..OT_KAPPA * w], w, &mut lo[..64 * w], &mut hi[..64 * w]);
            let t0 = base + (64 * off) as u64;
            cr_hash_batch(tier, t0, &lo[..64 * w], &hi[..64 * w], [0, 0], &mut m0[64 * off..64 * (off + w)]);
            cr_hash_batch(
                tier,
                t0,
                &lo[..64 * w],
                &hi[..64 * w],
                self.delta,
                &mut pad1[64 * off..64 * (off + w)],
            );
            off += w;
        }
        SendBatch { m0, pad1 }
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

    /// The heart of IKNP: after extension, `q_j = t_j ⊕ (r_j · s)`.
    #[test]
    fn extension_rows_satisfy_the_iknp_invariant() {
        let (mut sender, mut receiver) = simulated_base_ots(7);
        let choice: Vec<u64> = {
            let mut g = SplitMix64::new(9);
            (0..3).map(|_| g.next_u64()).collect()
        };
        // Drive the internals directly: recompute rows the long way.
        let (batch, u_cols) = receiver.extend(&choice);
        let send = sender.absorb(&u_cols);
        // Correlate with c_j = 0: receiver output must equal m0_j for
        // every OT regardless of its choice bit.
        let d: Vec<u64> = (0..send.len()).map(|j| send.correction(j, 0)).collect();
        let out = batch.outputs(&d);
        for (j, &o) in out.iter().enumerate() {
            assert_eq!(o, send.m0(j), "OT {j}");
        }
    }

    #[test]
    fn correlated_ot_delivers_m0_plus_c_on_one_branch() {
        let (mut sender, mut receiver) = simulated_base_ots(13);
        let choice = vec![0xF0F0_F0F0_F0F0_F0F0u64];
        let (batch, u_cols) = receiver.extend(&choice);
        let send = sender.absorb(&u_cols);
        let c: Vec<u64> = (0..64).map(|j| 1000 + j as u64).collect();
        let d: Vec<u64> = c.iter().enumerate().map(|(j, &cj)| send.correction(j, cj)).collect();
        let out = batch.outputs(&d);
        for j in 0..64usize {
            let r_j = (choice[0] >> j) & 1;
            let want = if r_j == 1 {
                send.m0(j).wrapping_add(c[j])
            } else {
                send.m0(j)
            };
            assert_eq!(out[j], want, "OT {j} (r = {r_j})");
        }
    }

    #[test]
    fn batches_stay_in_lockstep_across_calls() {
        // Two consecutive batches must keep the hash tweaks aligned:
        // the second batch's outputs still satisfy the COT relation.
        let (mut sender, mut receiver) = simulated_base_ots(21);
        for round in 0..3u64 {
            let choice = vec![round.wrapping_mul(0x9E3779B97F4A7C15); 2];
            let (batch, u_cols) = receiver.extend(&choice);
            let send = sender.absorb(&u_cols);
            let d: Vec<u64> = (0..send.len()).map(|j| send.correction(j, 7)).collect();
            let out = batch.outputs(&d);
            for j in 0..batch.len() {
                let r_j = (choice[j / 64] >> (j % 64)) & 1;
                let want = if r_j == 1 {
                    send.m0(j).wrapping_add(7)
                } else {
                    send.m0(j)
                };
                assert_eq!(out[j], want, "round {round}, OT {j}");
            }
        }
    }

    #[test]
    fn sender_messages_look_uniform() {
        let (mut sender, mut receiver) = simulated_base_ots(5);
        let choice = vec![0u64; 4];
        let (_, u_cols) = receiver.extend(&choice);
        let send = sender.absorb(&u_cols);
        let mut pop = 0u32;
        for j in 0..send.len() {
            pop += send.m0(j).count_ones();
        }
        let mean = pop as f64 / send.len() as f64;
        assert!((mean - 32.0).abs() < 2.0, "m0 popcount mean {mean}");
    }

    #[test]
    fn different_base_seeds_give_unrelated_extensions() {
        let (mut s1, mut r1) = simulated_base_ots(1);
        let (mut s2, mut r2) = simulated_base_ots(2);
        let choice = vec![0xABCDu64];
        let (_, u1) = r1.extend(&choice);
        let (_, u2) = r2.extend(&choice);
        assert_ne!(u1, u2, "column messages differ");
        let b1 = s1.absorb(&u1);
        let b2 = s2.absorb(&u2);
        assert_ne!(b1.m0(0), b2.m0(0));
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
        sender.absorb(&[0u64; 100]);
    }
}
