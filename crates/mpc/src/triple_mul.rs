//! The paper's three-value multiplication protocol (Section III-D).
//!
//! Existing ASS protocols multiply *two* secrets; triangle counting
//! needs the product of *three* adjacency bits `a_ij · a_ik · a_jk` per
//! triple. The paper introduces **Multiplication Groups (MGs)**: shared
//! random values `x, y, z` together with shares of all their products
//! `w = xyz, o = xy, p = xz, q = yz`, precomputed offline.
//!
//! Online, to multiply shared secrets `(a, b, c)`:
//!
//! 1. Each server `Sᵢ` locally computes `⟨e⟩ᵢ = ⟨a⟩ᵢ − ⟨x⟩ᵢ`,
//!    `⟨f⟩ᵢ = ⟨b⟩ᵢ − ⟨y⟩ᵢ`, `⟨g⟩ᵢ = ⟨c⟩ᵢ − ⟨z⟩ᵢ`.
//! 2. One round reconstructs the masked values `e, f, g` (which reveal
//!    nothing: they are one-time-padded by `x, y, z`).
//! 3. `⟨d⟩ᵢ = ⟨w⟩ᵢ + ⟨xy⟩ᵢ·g + ⟨xz⟩ᵢ·f + ⟨yz⟩ᵢ·e + ⟨x⟩ᵢ·fg +
//!    ⟨y⟩ᵢ·eg + ⟨z⟩ᵢ·ef + (i−1)·efg`.
//!
//! Correctness (Theorem 1): summing the two output shares telescopes to
//! `w + xyg + xzf + yze + xfg + yeg + zef + efg = (x+e)(y+f)(z+g) = abc`.

use crate::channel::NetStats;
use crate::dealer::{PairDealer, MG_WORDS};
use crate::offline::MgDraw;
use crate::prg::{SplitMix64, SM_GAMMA, SM_M1, SM_M2};
use crate::ring::Ring64;
use crate::simd::{SimdTier, U64x8, U64xN, LANES};
use crate::ServerId;

/// One server's share of a Multiplication Group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulGroupShare {
    /// Share of the mask `x`.
    pub x: Ring64,
    /// Share of the mask `y`.
    pub y: Ring64,
    /// Share of the mask `z`.
    pub z: Ring64,
    /// Share of `w = x·y·z`.
    pub w: Ring64,
    /// Share of `o = x·y`.
    pub o: Ring64,
    /// Share of `p = x·z`.
    pub p: Ring64,
    /// Share of `q = y·z`.
    pub q: Ring64,
}

/// The masked openings `(e, f, g)` both servers learn during [`mul3`];
/// exposed so the security tests ([`crate::view`]) can check they are
/// indistinguishable from uniform randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mul3Opening {
    /// `e = a − x`.
    pub e: Ring64,
    /// `f = b − y`.
    pub f: Ring64,
    /// `g = c − z`.
    pub g: Ring64,
}

/// One server's local step 1 + step 3 of the protocol, split out so the
/// hot secure-count loop can inline it. `efg_term` is `(i−1)·efg`
/// (zero for S₁).
#[inline(always)]
pub fn mul3_combine(
    share: (Ring64, Ring64, Ring64), // (⟨a⟩ᵢ, ⟨b⟩ᵢ, ⟨c⟩ᵢ)
    mg: &MulGroupShare,
    opening: Mul3Opening,
    efg_term: Ring64,
) -> Ring64 {
    let _ = share; // inputs are consumed in the masking step; kept for clarity
    let Mul3Opening { e, f, g } = opening;
    mg.w + mg.o * g + mg.p * f + mg.q * e + mg.x * (f * g) + mg.y * (e * g) + mg.z * (e * f)
        + efg_term
}

/// Runs the full three-value multiplication on shares of `(a, b, c)`,
/// returning the two shares of `d = a·b·c`.
///
/// `net` is charged one round of 3 ring elements each way (the
/// `e, f, g` openings), matching Algorithm 4 lines 6–8.
pub fn mul3(
    a: (Ring64, Ring64),
    b: (Ring64, Ring64),
    c: (Ring64, Ring64),
    mg: (MulGroupShare, MulGroupShare),
    net: &mut NetStats,
) -> (Ring64, Ring64) {
    let (mg1, mg2) = mg;
    // Step 1: local masking on each server.
    let e1 = a.0 - mg1.x;
    let f1 = b.0 - mg1.y;
    let g1 = c.0 - mg1.z;
    let e2 = a.1 - mg2.x;
    let f2 = b.1 - mg2.y;
    let g2 = c.1 - mg2.z;
    // Step 2: one communication round opens e, f, g.
    net.exchange(3);
    let opening = Mul3Opening {
        e: e1 + e2,
        f: f1 + f2,
        g: g1 + g2,
    };
    // Step 3: local combination; only S₂ adds the efg term.
    let efg = opening.e * opening.f * opening.g;
    let d1 = mul3_combine((a.0, b.0, c.0), &mg1, opening, Ring64::ZERO);
    let d2 = mul3_combine((a.1, b.1, c.1), &mg2, opening, efg);
    (d1, d2)
}

/// Batched, fused form of [`mul3`] over raw dealer words — the hot
/// kernel of the fast secure count (`CountKernel::Bitsliced`).
///
/// Evaluates `L` consecutive Multiplication-Group protocols in
/// structure-of-arrays passes of [`LANES`] lanes: `words` holds the
/// `L·`[`MG_WORDS`] AoS dealer words exactly as
/// [`crate::PairDealer::fill_words`] emits them, `a` is the
/// reconstructed first secret (fixed across the batch — `a_ij` in the
/// Count phase), and `b`/`c` hold the reconstructed second/third
/// secrets per lane. Returns the wrapping partial sums
/// `(Σ⟨d⟩₁, Σ⟨d⟩₂)` over the batch.
///
/// This is the *simulation-fused* kernel: like the scalar fast path it
/// evaluates both servers' arithmetic in one loop, so the opened
/// maskings collapse algebraically (`f = ⟨f⟩₁+⟨f⟩₂ = b − y`) and the
/// per-share PRF terms cancel — which is precisely why it is faster,
/// while every produced share stays **bit-identical** to the scalar
/// transcription (wrapping sums are order-independent). The kernel
/// equivalence suite pins this against [`mul3`] per triple.
///
/// # Panics
/// Panics if the slab lengths disagree (`words.len() ≠ MG_WORDS·L`).
pub fn mul3_batch(words: &[u64], a: u64, b: &[u64], c: &[u64]) -> (u64, u64) {
    let l = b.len();
    assert_eq!(words.len(), MG_WORDS * l, "AoS word slab length");
    assert_eq!(c.len(), l, "b/c slab lengths");
    let av = U64x8::splat(a);
    let mut acc1 = U64x8::ZERO;
    let mut acc2 = U64x8::ZERO;
    let full = l / LANES;
    for lane0 in (0..full * LANES).step_by(LANES) {
        let base = MG_WORDS * lane0;
        let x1 = U64x8::gather::<MG_WORDS>(words, base);
        let x2 = U64x8::gather::<MG_WORDS>(words, base + 1);
        let y1 = U64x8::gather::<MG_WORDS>(words, base + 2);
        let y2 = U64x8::gather::<MG_WORDS>(words, base + 3);
        let z1 = U64x8::gather::<MG_WORDS>(words, base + 4);
        let z2 = U64x8::gather::<MG_WORDS>(words, base + 5);
        let o1 = U64x8::gather::<MG_WORDS>(words, base + 6);
        let p1 = U64x8::gather::<MG_WORDS>(words, base + 7);
        let q1 = U64x8::gather::<MG_WORDS>(words, base + 8);
        let w1 = U64x8::gather::<MG_WORDS>(words, base + 9);
        let x = x1 + x2;
        let y = y1 + y2;
        let z = z1 + z2;
        let o = x * y;
        let p = x * z;
        let q = y * z;
        let wv = o * z;
        let e = av - x;
        let f = U64x8::load(&b[lane0..]) - y;
        let g = U64x8::load(&c[lane0..]) - z;
        let fg = f * g;
        let eg = e * g;
        let ef = e * f;
        acc1 = acc1 + w1 + o1 * g + p1 * f + q1 * e + x1 * fg + y1 * eg + z1 * ef;
        acc2 = acc2
            + (wv - w1)
            + (o - o1) * g
            + (p - p1) * f
            + (q - q1) * e
            + x2 * fg
            + y2 * eg
            + z2 * ef
            + ef * g;
    }
    let mut t1 = acc1.hsum();
    let mut t2 = acc2.hsum();
    // Scalar tail (< LANES lanes), same formulas.
    for lane in full * LANES..l {
        let w = &words[MG_WORDS * lane..MG_WORDS * (lane + 1)];
        let (x1, x2, y1, y2, z1, z2, o1, p1, q1, w1) =
            (w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8], w[9]);
        let x = x1.wrapping_add(x2);
        let y = y1.wrapping_add(y2);
        let z = z1.wrapping_add(z2);
        let o = x.wrapping_mul(y);
        let p = x.wrapping_mul(z);
        let q = y.wrapping_mul(z);
        let wv = o.wrapping_mul(z);
        let e = a.wrapping_sub(x);
        let f = b[lane].wrapping_sub(y);
        let g = c[lane].wrapping_sub(z);
        let fg = f.wrapping_mul(g);
        let eg = e.wrapping_mul(g);
        let ef = e.wrapping_mul(f);
        t1 = t1
            .wrapping_add(w1)
            .wrapping_add(o1.wrapping_mul(g))
            .wrapping_add(p1.wrapping_mul(f))
            .wrapping_add(q1.wrapping_mul(e))
            .wrapping_add(x1.wrapping_mul(fg))
            .wrapping_add(y1.wrapping_mul(eg))
            .wrapping_add(z1.wrapping_mul(ef));
        t2 = t2
            .wrapping_add(wv.wrapping_sub(w1))
            .wrapping_add(o.wrapping_sub(o1).wrapping_mul(g))
            .wrapping_add(p.wrapping_sub(p1).wrapping_mul(f))
            .wrapping_add(q.wrapping_sub(q1).wrapping_mul(e))
            .wrapping_add(x2.wrapping_mul(fg))
            .wrapping_add(y2.wrapping_mul(eg))
            .wrapping_add(z2.wrapping_mul(ef))
            .wrapping_add(ef.wrapping_mul(g));
    }
    (t1, t2)
}

/// The gathered-tile body — [`mul3_batch`] with a **per-lane** first
/// secret. `#[inline(always)]` so each ISA-dispatch wrapper compiles
/// its own copy with its vector features enabled.
#[inline(always)]
fn mul3_tile_body(words: &[u64], a: &[u64], b: &[u64], c: &[u64]) -> (u64, u64) {
    let l = a.len();
    assert_eq!(words.len(), MG_WORDS * l, "AoS word slab length");
    assert!(b.len() == l && c.len() == l, "a/b/c slab lengths");
    let mut acc1 = U64x8::ZERO;
    let mut acc2 = U64x8::ZERO;
    let full = l / LANES;
    for lane0 in (0..full * LANES).step_by(LANES) {
        let base = MG_WORDS * lane0;
        let x1 = U64x8::gather::<MG_WORDS>(words, base);
        let x2 = U64x8::gather::<MG_WORDS>(words, base + 1);
        let y1 = U64x8::gather::<MG_WORDS>(words, base + 2);
        let y2 = U64x8::gather::<MG_WORDS>(words, base + 3);
        let z1 = U64x8::gather::<MG_WORDS>(words, base + 4);
        let z2 = U64x8::gather::<MG_WORDS>(words, base + 5);
        let o1 = U64x8::gather::<MG_WORDS>(words, base + 6);
        let p1 = U64x8::gather::<MG_WORDS>(words, base + 7);
        let q1 = U64x8::gather::<MG_WORDS>(words, base + 8);
        let w1 = U64x8::gather::<MG_WORDS>(words, base + 9);
        let x = x1 + x2;
        let y = y1 + y2;
        let z = z1 + z2;
        let o = x * y;
        let p = x * z;
        let q = y * z;
        let wv = o * z;
        let e = U64x8::load(&a[lane0..]) - x;
        let f = U64x8::load(&b[lane0..]) - y;
        let g = U64x8::load(&c[lane0..]) - z;
        let fg = f * g;
        let eg = e * g;
        let ef = e * f;
        acc1 = acc1 + w1 + o1 * g + p1 * f + q1 * e + x1 * fg + y1 * eg + z1 * ef;
        acc2 = acc2
            + (wv - w1)
            + (o - o1) * g
            + (p - p1) * f
            + (q - q1) * e
            + x2 * fg
            + y2 * eg
            + z2 * ef
            + ef * g;
    }
    let mut t1 = acc1.hsum();
    let mut t2 = acc2.hsum();
    // Scalar tail (< LANES lanes), same formulas.
    for lane in full * LANES..l {
        let w = &words[MG_WORDS * lane..MG_WORDS * (lane + 1)];
        let (x1, x2, y1, y2, z1, z2, o1, p1, q1, w1) =
            (w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8], w[9]);
        let x = x1.wrapping_add(x2);
        let y = y1.wrapping_add(y2);
        let z = z1.wrapping_add(z2);
        let o = x.wrapping_mul(y);
        let p = x.wrapping_mul(z);
        let q = y.wrapping_mul(z);
        let wv = o.wrapping_mul(z);
        let e = a[lane].wrapping_sub(x);
        let f = b[lane].wrapping_sub(y);
        let g = c[lane].wrapping_sub(z);
        let fg = f.wrapping_mul(g);
        let eg = e.wrapping_mul(g);
        let ef = e.wrapping_mul(f);
        t1 = t1
            .wrapping_add(w1)
            .wrapping_add(o1.wrapping_mul(g))
            .wrapping_add(p1.wrapping_mul(f))
            .wrapping_add(q1.wrapping_mul(e))
            .wrapping_add(x1.wrapping_mul(fg))
            .wrapping_add(y1.wrapping_mul(eg))
            .wrapping_add(z1.wrapping_mul(ef));
        t2 = t2
            .wrapping_add(wv.wrapping_sub(w1))
            .wrapping_add(o.wrapping_sub(o1).wrapping_mul(g))
            .wrapping_add(p.wrapping_sub(p1).wrapping_mul(f))
            .wrapping_add(q.wrapping_sub(q1).wrapping_mul(e))
            .wrapping_add(x2.wrapping_mul(fg))
            .wrapping_add(y2.wrapping_mul(eg))
            .wrapping_add(z2.wrapping_mul(ef))
            .wrapping_add(ef.wrapping_mul(g));
    }
    (t1, t2)
}

/// AVX-512 compilation of the gathered-tile body; selected at runtime
/// when the CPU supports it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mul3_tile_avx512(words: &[u64], a: &[u64], b: &[u64], c: &[u64]) -> (u64, u64) {
    mul3_tile_body(words, a, b, c)
}

/// AVX2 compilation of the gathered-tile body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul3_tile_avx2(words: &[u64], a: &[u64], b: &[u64], c: &[u64]) -> (u64, u64) {
    mul3_tile_body(words, a, b, c)
}

/// [`mul3_batch`] with a **per-lane** first secret — the gathered-tile
/// entry point of the hybrid sparse kernel.
///
/// A ragged sparse plan leaves the fused stream kernel
/// ([`mul3_batch_stream`]) running short blocks: a pair whose
/// surviving `k`-run is 2 triples long fills 2 of 8 lanes. The hybrid
/// path instead *gathers* many such straggler runs — from different
/// `(i, j)` pairs, hence different `a_ij` — into one AoS slab (each
/// run's words drawn from its own [`crate::PairDealer`] at its
/// canonical offset) and evaluates them here at full width, with `a`
/// varying per lane. Bit-identity with per-run [`mul3_batch`] calls
/// follows from the wrapping sums being order-independent; the tile
/// equivalence proptests pin it.
///
/// Dispatched like the stream kernel: AVX-512, AVX2, portable — one
/// generic body, so the paths cannot diverge.
///
/// # Panics
/// Panics if the slab lengths disagree (`words.len() ≠ MG_WORDS·L` or
/// `a/b/c` differing).
pub fn mul3_tile_batch(words: &[u64], a: &[u64], b: &[u64], c: &[u64]) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512dq") {
            // SAFETY: the target features the callee enables were just
            // verified present on the running CPU.
            return unsafe { mul3_tile_avx512(words, a, b, c) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { mul3_tile_avx2(words, a, b, c) };
        }
    }
    mul3_tile_body(words, a, b, c)
}

/// Lane-wise SplitMix64 finaliser: `mix(s)` equals
/// [`SplitMix64::next_u64`]'s output for counter value `s`, per lane.
#[inline(always)]
fn mix<const N: usize>(s: U64xN<N>) -> U64xN<N> {
    let z = (s ^ (s >> 30)) * U64xN::splat(SM_M1);
    let z = (z ^ (z >> 27)) * U64xN::splat(SM_M2);
    z ^ (z >> 31)
}

/// Scalar SplitMix64 word at counter offset `k` from `state` — the
/// closed form of [`SplitMix64::fill_block`]'s `k`-th output.
#[inline(always)]
fn sm_word(state: u64, k: u64) -> u64 {
    let mut z = state.wrapping_add(SM_GAMMA.wrapping_mul(k + 1));
    z = (z ^ (z >> 30)).wrapping_mul(SM_M1);
    z = (z ^ (z >> 27)).wrapping_mul(SM_M2);
    z ^ (z >> 31)
}

/// `[0, step, 2·step, …]` — lane `t`'s offset from lane 0 (wrapping).
const fn lane_steps<const N: usize>(step: u64) -> U64xN<N> {
    let mut out = [0u64; N];
    let mut t = 0;
    while t < N {
        out[t] = step.wrapping_mul(t as u64);
        t += 1;
    }
    U64xN(out)
}

/// A dealer stream in structure-of-arrays form, each word computed in
/// closed counter form.
#[derive(Clone, Copy)]
struct MgLanes {
    state: u64,
}

impl MgLanes {
    /// Field `f` (see [`MG_WORDS`] for the order) of the `N`
    /// consecutive groups starting `lane0` groups past `state`, one
    /// group per lane; groups are [`MG_WORDS`] words apart.
    #[inline(always)]
    fn field<const N: usize>(self, lane0: usize, f: u64) -> U64xN<N> {
        let step = const { lane_steps::<N>(SM_GAMMA.wrapping_mul(MG_WORDS as u64)) };
        let k = (MG_WORDS * lane0) as u64 + f + 1;
        mix(U64xN::splat(self.state.wrapping_add(SM_GAMMA.wrapping_mul(k))) + step)
    }
}

/// The fused kernel body: expands the dealer words *inside* the SoA
/// loop (SplitMix64 is counter-based, so every word is an independent
/// function of `state`) and runs the MG arithmetic on them in
/// registers — no AoS buffer, no strided re-loads. `#[inline(always)]`
/// so each ISA-dispatch wrapper compiles its own copy with its vector
/// features enabled.
#[inline(always)]
fn mul3_batch_prg_body(state: u64, a: u64, b: &[u64], c: &[u64]) -> (u64, u64) {
    let l = b.len();
    assert_eq!(c.len(), l, "b/c slab lengths");
    let av = U64x8::splat(a);
    let mut acc1 = U64x8::ZERO;
    let mut acc2 = U64x8::ZERO;
    let full = l / LANES;
    let mg = MgLanes { state };
    for g in 0..full {
        let lane0 = g * LANES;
        let x1 = mg.field::<LANES>(lane0, 0);
        let x2 = mg.field(lane0, 1);
        let y1 = mg.field(lane0, 2);
        let y2 = mg.field(lane0, 3);
        let z1 = mg.field(lane0, 4);
        let z2 = mg.field(lane0, 5);
        let o1 = mg.field(lane0, 6);
        let p1 = mg.field(lane0, 7);
        let q1 = mg.field(lane0, 8);
        let w1 = mg.field(lane0, 9);
        let x = x1 + x2;
        let y = y1 + y2;
        let z = z1 + z2;
        let o = x * y;
        let p = x * z;
        let q = y * z;
        let wv = o * z;
        let e = av - x;
        let f = U64x8::load(&b[lane0..]) - y;
        let gg = U64x8::load(&c[lane0..]) - z;
        let fg = f * gg;
        let eg = e * gg;
        let ef = e * f;
        acc1 = acc1 + w1 + o1 * gg + p1 * f + q1 * e + x1 * fg + y1 * eg + z1 * ef;
        acc2 = acc2
            + (wv - w1)
            + (o - o1) * gg
            + (p - p1) * f
            + (q - q1) * e
            + x2 * fg
            + y2 * eg
            + z2 * ef
            + ef * gg;
    }
    let mut t1 = acc1.hsum();
    let mut t2 = acc2.hsum();
    // Scalar tail (< LANES lanes), same closed-form words.
    for lane in full * LANES..l {
        let base_k = (MG_WORDS * lane) as u64;
        let x1 = sm_word(state, base_k);
        let x2 = sm_word(state, base_k + 1);
        let y1 = sm_word(state, base_k + 2);
        let y2 = sm_word(state, base_k + 3);
        let z1 = sm_word(state, base_k + 4);
        let z2 = sm_word(state, base_k + 5);
        let o1 = sm_word(state, base_k + 6);
        let p1 = sm_word(state, base_k + 7);
        let q1 = sm_word(state, base_k + 8);
        let w1 = sm_word(state, base_k + 9);
        let x = x1.wrapping_add(x2);
        let y = y1.wrapping_add(y2);
        let z = z1.wrapping_add(z2);
        let o = x.wrapping_mul(y);
        let p = x.wrapping_mul(z);
        let q = y.wrapping_mul(z);
        let wv = o.wrapping_mul(z);
        let e = a.wrapping_sub(x);
        let f = b[lane].wrapping_sub(y);
        let g = c[lane].wrapping_sub(z);
        let fg = f.wrapping_mul(g);
        let eg = e.wrapping_mul(g);
        let ef = e.wrapping_mul(f);
        t1 = t1
            .wrapping_add(w1)
            .wrapping_add(o1.wrapping_mul(g))
            .wrapping_add(p1.wrapping_mul(f))
            .wrapping_add(q1.wrapping_mul(e))
            .wrapping_add(x1.wrapping_mul(fg))
            .wrapping_add(y1.wrapping_mul(eg))
            .wrapping_add(z1.wrapping_mul(ef));
        t2 = t2
            .wrapping_add(wv.wrapping_sub(w1))
            .wrapping_add(o.wrapping_sub(o1).wrapping_mul(g))
            .wrapping_add(p.wrapping_sub(p1).wrapping_mul(f))
            .wrapping_add(q.wrapping_sub(q1).wrapping_mul(e))
            .wrapping_add(x2.wrapping_mul(fg))
            .wrapping_add(y2.wrapping_mul(eg))
            .wrapping_add(z2.wrapping_mul(ef))
            .wrapping_add(ef.wrapping_mul(g));
    }
    (t1, t2)
}

/// AVX-512 compilation of the fused body (native 8×64-bit lane
/// multiplies via `vpmullq`); selected at runtime when the CPU
/// supports it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mul3_batch_prg_avx512(state: u64, a: u64, b: &[u64], c: &[u64]) -> (u64, u64) {
    mul3_batch_prg_body(state, a, b, c)
}

/// AVX2 compilation of the fused body (4-lane 64-bit multiplies via
/// the `vpmuludq` decomposition — still well ahead of scalar `imul`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul3_batch_prg_avx2(state: u64, a: u64, b: &[u64], c: &[u64]) -> (u64, u64) {
    mul3_batch_prg_body(state, a, b, c)
}

/// [`mul3_batch`] with the dealer-word expansion fused in: draws the
/// batch's `MG_WORDS·L` words straight from `rng`'s counter stream
/// inside the lane loop (bit-identical to
/// [`SplitMix64::fill_block`] + [`mul3_batch`], which the proptests
/// pin) and advances `rng` past them. This is the Count phase's hot
/// kernel proper: the PRG mixing is ~70% of the per-triple work, and
/// fusing it removes the AoS buffer round-trip and lets the whole
/// body — mixing and MG arithmetic — vectorise as one loop.
///
/// On x86-64 the body is compiled three times and dispatched by
/// runtime feature detection: AVX-512 (`vpmullq`), AVX2, and the
/// portable baseline. All paths share one generic implementation, so
/// they cannot diverge.
pub fn mul3_batch_stream(rng: &mut SplitMix64, a: u64, b: &[u64], c: &[u64]) -> (u64, u64) {
    assert_eq!(b.len(), c.len(), "b/c slab lengths");
    let state = rng.state_raw();
    rng.skip(MG_WORDS * b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512dq") {
            // SAFETY: the target features the callee enables were just
            // verified present on the running CPU.
            return unsafe { mul3_batch_prg_avx512(state, a, b, c) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { mul3_batch_prg_avx2(state, a, b, c) };
        }
    }
    mul3_batch_prg_body(state, a, b, c)
}

/// The key [`share_prf`](crate::share_prf) mixes for entry
/// `(row, k)`: consecutive columns of a row are keys [`SM_GAMMA`] apart.
#[inline(always)]
fn prf_key(row: u32, k: u64) -> u64 {
    (((row as u64) << 32) | k).wrapping_mul(SM_GAMMA)
}

/// [`share_prf`](crate::share_prf) of each lane's key ([`prf_key`]).
#[inline(always)]
fn prf_keyed<const N: usize>(seed: u64, keys: U64xN<N>) -> U64xN<N> {
    mix((keys ^ U64xN::splat(seed)) + U64xN::splat(SM_GAMMA))
}

/// Lane `t` is [`share_prf`](crate::share_prf)`(seed, row, k + t)`.
#[inline(always)]
fn prf<const N: usize>(seed: u64, row: u32, k: u64) -> U64xN<N> {
    let step = const { lane_steps::<N>(SM_GAMMA) };
    prf_keyed(seed, U64xN::splat(prf_key(row, k)) + step)
}

// The per-party kernels below write each step once, generic over the
// lane count: `N = LANES` for the vector loop, `N = 1` for the scalar
// tail, so both run the same formula. Every step is an
// `#[inline(always)]` function, never a closure with a body of its
// own: a tier's wrapper vectorises only what is inlined into it, and
// LLVM may leave a large closure out-of-line (and scalar).

/// `N` lanes from column `k` of one server's input shares along
/// `row`: S₁'s are the PRF, S₂'s the plaintext `bits` minus it.
#[inline(always)]
fn input_share_lanes<const N: usize>(
    seed: u64,
    server: ServerId,
    row: u32,
    k: u64,
    bits: U64xN<N>,
) -> U64xN<N> {
    let s1 = prf(seed, row, k);
    match server {
        ServerId::S1 => s1,
        ServerId::S2 => bits - s1,
    }
}

/// [`expand_input_shares`]' body, compiled once per ISA tier.
#[inline(always)]
fn input_shares_body(seed: u64, server: ServerId, row: u32, k0: u32, words: &mut [u64]) {
    let full = words.len() / LANES * LANES;
    for lane0 in (0..full).step_by(LANES) {
        let k = k0 as u64 + lane0 as u64;
        input_share_lanes::<LANES>(seed, server, row, k, U64x8::load(&words[lane0..]))
            .store(&mut words[lane0..]);
    }
    for (t, word) in words.iter_mut().enumerate().skip(full) {
        let k = k0 as u64 + t as u64;
        *word = input_share_lanes(seed, server, row, k, U64xN([*word])).0[0];
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn input_shares_avx512(seed: u64, server: ServerId, row: u32, k0: u32, words: &mut [u64]) {
    input_shares_body(seed, server, row, k0, words)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn input_shares_avx2(seed: u64, server: ServerId, row: u32, k0: u32, words: &mut [u64]) {
    input_shares_body(seed, server, row, k0, words)
}

/// One server's input shares along row `row`, columns
/// `k0 .. k0 + words.len()`, lane-parallel: S₁'s are
/// [`share_prf`](crate::share_prf)`(seed, row, k)`, S₂'s
/// `a_row,k − share_prf(seed, row, k)`. `words` holds the plaintext
/// bits on entry — S₂ reads them, S₁'s shares do not depend on them —
/// and the shares on return. Bit-identical to the scalar `share_prf`
/// at every tier.
pub fn expand_input_shares(seed: u64, server: ServerId, row: u32, k0: u32, words: &mut [u64]) {
    expand_input_shares_tier(SimdTier::detect(), seed, server, row, k0, words)
}

fn expand_input_shares_tier(
    tier: SimdTier,
    seed: u64,
    server: ServerId,
    row: u32,
    k0: u32,
    words: &mut [u64],
) {
    assert!(
        tier.supported(),
        "SIMD tier {tier} not supported on this CPU"
    );
    match tier {
        // SAFETY: `supported()` just confirmed the CPU features the
        // callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { input_shares_avx512(seed, server, row, k0, words) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { input_shares_avx2(seed, server, row, k0, words) },
        _ => input_shares_body(seed, server, row, k0, words),
    }
}

/// One online round of one server, cut into lanes — one lane per
/// triple, in structure-of-arrays form — which [`mask_round`] and
/// [`combine_round`] each evaluate in one pass, whatever `k`-runs the
/// round is cut from.
///
/// A segment `(draw, offset, len)` of the round ([`crate::plan_rounds`])
/// adds `len` lanes ([`RoundLanes::push_run`]). Lane `t` of it, triple
/// `(i, j, k)` with `k = draw.k_at(offset) + t`, holds the
/// [`share_prf`](crate::share_prf) keys of `(i, k)` and `(j, k)`, this
/// server's share of `a_ij`, and the dealer-stream counter its group
/// starts at (the draw's [`crate::PairDealer`] sought `offset + t` groups
/// on); on S₂ also the plaintext bits of `(i, k)` and `(j, k)`. Lanes
/// are in plan order, so a round's lanes also line up with the next
/// `len` groups of a plan-ordered slab of preprocessed material.
///
/// ```
/// use cargo_mpc::{combine_round, mask_round, share_prf, MgDraw, RoundLanes, ServerId};
/// // One round of five triples cut from two k-runs, (0, 1, k) for
/// // k = 2, 3, 4 and (0, 2, k) for k = 3, 4, every adjacency bit 1.
/// let seed = 7;
/// let runs = [MgDraw::dense(0, 1, 3), MgDraw::dense(0, 2, 2)];
/// let (mut tables, mut slabs) = (Vec::new(), Vec::new());
/// for server in [ServerId::S1, ServerId::S2] {
///     let mut lanes = RoundLanes::new(seed, server);
///     for run in &runs {
///         let prf = share_prf(seed, run.i, run.j);
///         let a = if server == ServerId::S1 { prf } else { 1u64.wrapping_sub(prf) };
///         if let Some([b, c]) = lanes.push_run(run, 0, run.groups as usize, a) {
///             b.fill(1);
///             c.fill(1);
///         }
///     }
///     let mut efg = vec![0; 3 * lanes.len()];
///     mask_round(&lanes, None, &mut efg);
///     tables.push(lanes);
///     slabs.push(efg);
/// }
/// let d1 = combine_round(&tables[0], None, &slabs[0], &slabs[1]);
/// let d2 = combine_round(&tables[1], None, &slabs[1], &slabs[0]);
/// assert_eq!(d1.wrapping_add(d2), 5);
/// ```
#[derive(Debug, Clone)]
pub struct RoundLanes {
    seed: u64,
    server: ServerId,
    /// Lanes in the round. The columns below keep the length of the
    /// longest round met, so a round writes them in place.
    len: usize,
    /// This server's share of each lane's `a_ij`.
    a: Vec<u64>,
    /// Each lane's [`prf_key`]s of `(i, k)` and `(j, k)`.
    keys: [Vec<u64>; 2],
    /// The dealer-stream counter each lane's group starts at.
    state: Vec<u64>,
    /// S₂ only: each lane's plaintext bits of `(i, k)` and `(j, k)`.
    bits: [Vec<u64>; 2],
}

impl RoundLanes {
    /// An empty table for `server` under the Count seed `seed`, which
    /// keys both the input-share PRF and the dealer streams.
    pub fn new(seed: u64, server: ServerId) -> Self {
        RoundLanes {
            seed,
            server,
            len: 0,
            a: Vec::new(),
            keys: [Vec::new(), Vec::new()],
            state: Vec::new(),
            bits: [Vec::new(), Vec::new()],
        }
    }

    /// Empties the table for the next round, keeping its buffers.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Lanes (triples) in the round so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the round has no lane yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the round segment `(draw, offset, len)`: `len` lanes, the
    /// triples `(i, j, draw.k_at(offset) + t)`, whose first secret is
    /// `a_ij` and `a` this server's share of it. On S₂ returns the new
    /// lanes' bit slices of rows `i` and `j`, columns
    /// `draw.k_at(offset) ..`, for the caller to overwrite with the
    /// users' plaintext bits; S₁ reads no bit and gets `None`.
    pub fn push_run(
        &mut self,
        draw: &MgDraw,
        offset: usize,
        len: usize,
        a: u64,
    ) -> Option<[&mut [u64]; 2]> {
        let (at, end) = (self.len, self.len + len);
        if self.a.len() < end + FILL_BLOCK {
            let bits = self.bits.iter_mut().filter(|_| self.server == ServerId::S2);
            let columns = [&mut self.a, &mut self.state].into_iter().chain(&mut self.keys);
            for column in columns.chain(bits) {
                column.resize(end + FILL_BLOCK, 0);
            }
        }
        self.len = end;
        let k = draw.k_at(offset) as u64;
        fill_steps(&mut self.a, at..end, a, 0);
        for (keys, row) in self.keys.iter_mut().zip([draw.i, draw.j]) {
            fill_steps(keys, at..end, prf_key(row, k), SM_GAMMA);
        }
        let state = PairDealer::group_state(self.seed, draw, offset);
        fill_steps(&mut self.state, at..end, state, SM_GAMMA.wrapping_mul(MG_WORDS as u64));
        match self.server {
            ServerId::S1 => None,
            ServerId::S2 => Some(self.bits.each_mut().map(|bits| &mut bits[at..end])),
        }
    }
}

/// Lanes of a [`RoundLanes`] column written at a time: the last block
/// of a segment runs past it into lanes the next segment overwrites (a
/// column keeps `FILL_BLOCK` lanes of slack), so each short `k`-run of
/// a sparse round costs one block store per column, not a loop's set-up.
const FILL_BLOCK: usize = 4;

/// `column[at + t] = first + t·step` (wrapping) for each lane `at + t`
/// of `lanes`, written in blocks of [`FILL_BLOCK`].
#[inline(always)]
fn fill_steps(column: &mut [u64], lanes: std::ops::Range<usize>, first: u64, step: u64) {
    let mut v = U64xN::<FILL_BLOCK>::splat(first) + lane_steps(step);
    let jump = U64xN::splat(step.wrapping_mul(FILL_BLOCK as u64));
    for block in lanes.step_by(FILL_BLOCK) {
        v.store(&mut column[block..]);
        v = v + jump;
    }
}

// The round kernels below are written like the input-share kernel
// above — generic over the lane count, so a round's scalar tail (at
// most `LANES − 1` lanes) runs the vector loop's formula — and also
// generic over where the round's groups come from.

/// Where a round's Multiplication Groups come from, lane by lane.
trait LaneGroups: Copy {
    /// `N` lanes from `lane0` of this server's mask shares `x, y, z`.
    fn xyz<const S2: bool, const N: usize>(self, lane0: usize) -> [U64xN<N>; 3];
    /// `N` lanes from `lane0` of this server's `⟨d⟩` shares from the
    /// opened `e, f, g`.
    fn d<const S2: bool, const N: usize>(self, lane0: usize, efg: [U64xN<N>; 3]) -> U64xN<N>;
}

/// Dealer material: each lane's group drawn from its own counter
/// ([`RoundLanes`]' `state`), in closed form.
#[derive(Clone, Copy)]
struct DealerLanes<'a>(&'a [u64]);

impl DealerLanes<'_> {
    /// Field `f` (see [`MG_WORDS`] for the order) of the groups of
    /// lanes `lane0 .. lane0 + N`.
    #[inline(always)]
    fn field<const N: usize>(self, lane0: usize, f: u64) -> U64xN<N> {
        mix(U64xN::load(&self.0[lane0..]) + U64xN::splat(SM_GAMMA.wrapping_mul(f + 1)))
    }
}

impl LaneGroups for DealerLanes<'_> {
    /// Server `s`'s (0 or 1) words `x_s, y_s, z_s` are fields `s`,
    /// `2 + s`, `4 + s` of each group.
    #[inline(always)]
    fn xyz<const S2: bool, const N: usize>(self, lane0: usize) -> [U64xN<N>; 3] {
        let s = S2 as u64;
        [self.field(lane0, s), self.field(lane0, 2 + s), self.field(lane0, 4 + s)]
    }

    /// S₁ re-derives its seven words `x₁ y₁ z₁ o₁ p₁ q₁ w₁` and forms no
    /// mask products; S₂ re-derives all ten and forms `o, p, q, w` to
    /// difference its shares out of them, exactly as
    /// [`crate::split_mg_words`] does.
    #[inline(always)]
    fn d<const S2: bool, const N: usize>(self, lane0: usize, [e, f, g]: [U64xN<N>; 3]) -> U64xN<N> {
        let (fg, eg, ef) = (f * g, e * g, e * f);
        let (x1, y1, z1) = (self.field(lane0, 0), self.field(lane0, 2), self.field(lane0, 4));
        let (o1, p1, q1) = (self.field(lane0, 6), self.field(lane0, 7), self.field(lane0, 8));
        let w1 = self.field(lane0, 9);
        if S2 {
            let (x2, y2, z2) = (self.field(lane0, 1), self.field(lane0, 3), self.field(lane0, 5));
            let (x, y, z) = (x1 + x2, y1 + y2, z1 + z2);
            let o = x * y;
            (o * z - w1)
                + (o - o1) * g
                + (x * z - p1) * f
                + (y * z - q1) * e
                + x2 * fg
                + y2 * eg
                + z2 * ef
                + ef * g
        } else {
            w1 + o1 * g + p1 * f + q1 * e + x1 * fg + y1 * eg + z1 * ef
        }
    }
}

/// Preprocessed material (OT extension or the pool): this server's
/// share structs, one per lane.
#[derive(Clone, Copy)]
struct ShareLanes<'a>(&'a [MulGroupShare]);

impl ShareLanes<'_> {
    /// Lanes `lane0 .. lane0 + N` of the seven shares, in
    /// `x y z w o p q` order.
    #[inline(always)]
    fn fields<const N: usize>(self, lane0: usize) -> [U64xN<N>; 7] {
        let mut out = [U64xN::ZERO; 7];
        for (t, mg) in self.0[lane0..lane0 + N].iter().enumerate() {
            for (field, share) in out.iter_mut().zip([mg.x, mg.y, mg.z, mg.w, mg.o, mg.p, mg.q]) {
                field.0[t] = share.0;
            }
        }
        out
    }
}

impl LaneGroups for ShareLanes<'_> {
    #[inline(always)]
    fn xyz<const S2: bool, const N: usize>(self, lane0: usize) -> [U64xN<N>; 3] {
        let [x, y, z, ..] = self.fields(lane0);
        [x, y, z]
    }

    /// [`mul3_combine_batch`]'s term, lane-wise.
    #[inline(always)]
    fn d<const S2: bool, const N: usize>(self, lane0: usize, [e, f, g]: [U64xN<N>; 3]) -> U64xN<N> {
        let [x, y, z, w, o, p, q] = self.fields(lane0);
        let (fg, eg, ef) = (f * g, e * g, e * f);
        let d = w + o * g + p * f + q * e + x * fg + y * eg + z * ef;
        if S2 {
            d + ef * g
        } else {
            d
        }
    }
}

/// `N` lanes from `lane0` of one server's input shares of entry `r`
/// (0: `(i, k)`, 1: `(j, k)`): S₁'s are the PRF, S₂'s the plaintext
/// bits minus it.
#[inline(always)]
fn lane_inputs<const S2: bool, const N: usize>(
    lanes: &RoundLanes,
    r: usize,
    lane0: usize,
) -> U64xN<N> {
    let s1 = prf_keyed(lanes.seed, U64xN::load(&lanes.keys[r][lane0..]));
    if S2 {
        U64xN::load(&lanes.bits[r][lane0..]) - s1
    } else {
        s1
    }
}

/// `N` lanes from `lane0` of one server's maskings
/// `⟨e⟩ = a − x, ⟨f⟩ = b − y, ⟨g⟩ = c − z`.
#[inline(always)]
fn mask_lanes<const S2: bool, const N: usize, G: LaneGroups>(
    lanes: &RoundLanes,
    groups: G,
    lane0: usize,
) -> [U64xN<N>; 3] {
    let [x, y, z] = groups.xyz::<S2, N>(lane0);
    [
        U64xN::load(&lanes.a[lane0..]) - x,
        lane_inputs::<S2, N>(lanes, 0, lane0) - y,
        lane_inputs::<S2, N>(lanes, 1, lane0) - z,
    ]
}

/// [`mask_round`]'s pass for one server and one material source.
#[inline(always)]
fn mask_pass<const S2: bool, G: LaneGroups>(lanes: &RoundLanes, groups: G, out: &mut [u64]) {
    let l = lanes.len();
    let full = l / LANES * LANES;
    for lane0 in (0..full).step_by(LANES) {
        for (slab, v) in mask_lanes::<S2, LANES, G>(lanes, groups, lane0).into_iter().enumerate() {
            v.store(&mut out[slab * l + lane0..]);
        }
    }
    for t in full..l {
        for (slab, v) in mask_lanes::<S2, 1, G>(lanes, groups, t).into_iter().enumerate() {
            out[slab * l + t] = v.0[0];
        }
    }
}

/// Lanes `at .. at + N` of the opened slab `mine + theirs`.
#[inline(always)]
fn open_lanes<const N: usize>(mine: &[u64], theirs: &[u64], at: usize) -> U64xN<N> {
    U64xN::load(&mine[at..]) + U64xN::load(&theirs[at..])
}

/// [`combine_round`]'s pass for one server and one material source.
#[inline(always)]
fn combine_pass<const S2: bool, G: LaneGroups>(groups: G, mine: &[u64], theirs: &[u64]) -> u64 {
    let l = mine.len() / 3;
    let full = l / LANES * LANES;
    let mut acc = U64x8::ZERO;
    for lane0 in (0..full).step_by(LANES) {
        let efg = [lane0, l + lane0, 2 * l + lane0].map(|at| open_lanes::<LANES>(mine, theirs, at));
        acc = acc + groups.d::<S2, LANES>(lane0, efg);
    }
    let mut total = acc.hsum();
    for t in full..l {
        let efg = [t, l + t, 2 * l + t].map(|at| open_lanes::<1>(mine, theirs, at));
        total = total.wrapping_add(groups.d::<S2, 1>(t, efg).0[0]);
    }
    total
}

/// [`mask_round`]'s body, compiled once per ISA tier.
#[inline(always)]
fn mask_body(lanes: &RoundLanes, groups: Option<&[MulGroupShare]>, out: &mut [u64]) {
    let dealer = DealerLanes(&lanes.state);
    match (lanes.server, groups) {
        (ServerId::S1, None) => mask_pass::<false, _>(lanes, dealer, out),
        (ServerId::S2, None) => mask_pass::<true, _>(lanes, dealer, out),
        (ServerId::S1, Some(g)) => mask_pass::<false, _>(lanes, ShareLanes(g), out),
        (ServerId::S2, Some(g)) => mask_pass::<true, _>(lanes, ShareLanes(g), out),
    }
}

/// [`combine_round`]'s body, compiled once per ISA tier.
#[inline(always)]
fn combine_body(
    lanes: &RoundLanes,
    groups: Option<&[MulGroupShare]>,
    mine: &[u64],
    theirs: &[u64],
) -> u64 {
    let dealer = DealerLanes(&lanes.state);
    match (lanes.server, groups) {
        (ServerId::S1, None) => combine_pass::<false, _>(dealer, mine, theirs),
        (ServerId::S2, None) => combine_pass::<true, _>(dealer, mine, theirs),
        (ServerId::S1, Some(g)) => combine_pass::<false, _>(ShareLanes(g), mine, theirs),
        (ServerId::S2, Some(g)) => combine_pass::<true, _>(ShareLanes(g), mine, theirs),
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mask_avx512(lanes: &RoundLanes, groups: Option<&[MulGroupShare]>, out: &mut [u64]) {
    mask_body(lanes, groups, out)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask_avx2(lanes: &RoundLanes, groups: Option<&[MulGroupShare]>, out: &mut [u64]) {
    mask_body(lanes, groups, out)
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn combine_avx512(
    lanes: &RoundLanes,
    groups: Option<&[MulGroupShare]>,
    mine: &[u64],
    theirs: &[u64],
) -> u64 {
    combine_body(lanes, groups, mine, theirs)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn combine_avx2(
    lanes: &RoundLanes,
    groups: Option<&[MulGroupShare]>,
    mine: &[u64],
    theirs: &[u64],
) -> u64 {
    combine_body(lanes, groups, mine, theirs)
}

/// One server's step 1 over a whole round, in one pass over its
/// [`RoundLanes`]: each lane's input shares of `(i, k)` and `(j, k)`
/// (the PRF, minus S₂'s plaintext bits) and its maskings
/// `⟨e⟩ = a − ⟨x⟩, ⟨f⟩ = b − ⟨y⟩, ⟨g⟩ = c − ⟨z⟩`, written into `out`
/// as the round-wide slab `[e(L) | f(L) | g(L)]` — [`mul3_mask_batch`]'s
/// layout over all `L` lanes, whatever segments they come from.
///
/// `groups` is the round's material: `None` draws this server's words
/// from each lane's dealer counter inside the lane loop (the other
/// server's column is never expanded); `Some` reads this server's
/// preprocessed groups, one per lane in lane order. Bit-identical, lane
/// for lane, to [`crate::share_prf`] and, per segment,
/// `PairDealer::for_draw` + [`crate::PairDealer::fill_words`] +
/// [`crate::split_mg_words`] + [`mul3_mask_batch`] on the server's
/// column, at every [`SimdTier`] — which the per-party proptests pin.
///
/// # Panics
/// Panics if `out.len() ≠ 3·L` or `groups` does not hold `L` groups.
pub fn mask_round(lanes: &RoundLanes, groups: Option<&[MulGroupShare]>, out: &mut [u64]) {
    mask_round_tier(SimdTier::detect(), lanes, groups, out)
}

fn mask_round_tier(
    tier: SimdTier,
    lanes: &RoundLanes,
    groups: Option<&[MulGroupShare]>,
    out: &mut [u64],
) {
    let l = lanes.len();
    assert_eq!(out.len(), 3 * l, "efg slab length");
    assert!(groups.is_none_or(|g| g.len() == l), "one preprocessed group per lane");
    assert!(
        tier.supported(),
        "SIMD tier {tier} not supported on this CPU"
    );
    match tier {
        // SAFETY: `supported()` just confirmed the CPU features the
        // callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { mask_avx512(lanes, groups, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { mask_avx2(lanes, groups, out) },
        _ => mask_body(lanes, groups, out),
    }
}

/// One server's steps 2–3 over the round [`mask_round`] masked from
/// the same lanes and material: opens `mine + theirs` lane by lane and
/// returns the wrapping sum of this server's `⟨d⟩` shares — in dealer
/// mode re-deriving the words it needs from each lane's counter (S₁
/// seven, S₂ all ten). Bit-identical to [`mul3_open_batch`] +
/// [`mul3_combine_batch`] over the round's groups of this server's
/// column.
///
/// # Panics
/// Panics if `mine` or `theirs` is not `3·L` long, or `groups` does not
/// hold `L` groups.
pub fn combine_round(
    lanes: &RoundLanes,
    groups: Option<&[MulGroupShare]>,
    mine: &[u64],
    theirs: &[u64],
) -> u64 {
    combine_round_tier(SimdTier::detect(), lanes, groups, mine, theirs)
}

fn combine_round_tier(
    tier: SimdTier,
    lanes: &RoundLanes,
    groups: Option<&[MulGroupShare]>,
    mine: &[u64],
    theirs: &[u64],
) -> u64 {
    let l = lanes.len();
    assert!(
        mine.len() == 3 * l && theirs.len() == 3 * l,
        "opened efg slab lengths"
    );
    assert!(groups.is_none_or(|g| g.len() == l), "one preprocessed group per lane");
    assert!(
        tier.supported(),
        "SIMD tier {tier} not supported on this CPU"
    );
    match tier {
        // SAFETY: `supported()` just confirmed the CPU features the
        // callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { combine_avx512(lanes, groups, mine, theirs) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { combine_avx2(lanes, groups, mine, theirs) },
        _ => combine_body(lanes, groups, mine, theirs),
    }
}

/// One server's batched step 1 (local maskings) over `L` triples:
/// writes its `⟨e⟩, ⟨f⟩, ⟨g⟩` shares into `out` as three contiguous
/// slabs `[e₀..e_{L−1} | f₀.. | g₀..]` — the flat layout the sharded
/// runtime ships as one slab-opening message per round.
///
/// `a` is this server's share of the fixed first secret; `b`/`c` its
/// per-triple shares of the second/third, as [`expand_input_shares`]
/// writes them.
///
/// # Panics
/// Panics if the slab lengths disagree (`out.len() ≠ 3·L`).
pub fn mul3_mask_batch(a: u64, b: &[u64], c: &[u64], groups: &[MulGroupShare], out: &mut [u64]) {
    let l = groups.len();
    assert_eq!(b.len(), l, "b slab length");
    assert_eq!(c.len(), l, "c slab length");
    assert_eq!(out.len(), 3 * l, "efg slab length");
    let (e_out, rest) = out.split_at_mut(l);
    let (f_out, g_out) = rest.split_at_mut(l);
    for lane in 0..l {
        let mg = &groups[lane];
        e_out[lane] = a.wrapping_sub(mg.x.0);
        f_out[lane] = b[lane].wrapping_sub(mg.y.0);
        g_out[lane] = c[lane].wrapping_sub(mg.z.0);
    }
}

/// Lane-wise reconstruction of a slab-opening round:
/// `opened[i] = mine[i] + theirs[i]` (wrapping).
///
/// # Panics
/// Panics if the three slabs differ in length.
pub fn mul3_open_batch(mine: &[u64], theirs: &[u64], opened: &mut [u64]) {
    assert_eq!(mine.len(), theirs.len(), "peer slab length");
    assert_eq!(mine.len(), opened.len(), "output slab length");
    for ((o, m), t) in opened.iter_mut().zip(mine).zip(theirs) {
        *o = m.wrapping_add(*t);
    }
}

/// One server's batched step 3 over an opened `[e|f|g]` slab: the sum
/// of its `⟨d⟩` shares for the batch (only S₂ adds the `efg` terms).
/// Lane-for-lane identical to [`mul3_combine`]; the slab layout
/// matches [`mul3_mask_batch`].
///
/// # Panics
/// Panics if `opened.len() ≠ 3·groups.len()`.
pub fn mul3_combine_batch(groups: &[MulGroupShare], opened: &[u64], server: ServerId) -> Ring64 {
    let l = groups.len();
    assert_eq!(opened.len(), 3 * l, "opened efg slab length");
    let (e_s, rest) = opened.split_at(l);
    let (f_s, g_s) = rest.split_at(l);
    let mut acc = 0u64;
    for lane in 0..l {
        let mg = &groups[lane];
        let (e, f, g) = (e_s[lane], f_s[lane], g_s[lane]);
        let fg = f.wrapping_mul(g);
        let eg = e.wrapping_mul(g);
        let ef = e.wrapping_mul(f);
        let mut u = mg
            .w
            .0
            .wrapping_add(mg.o.0.wrapping_mul(g))
            .wrapping_add(mg.p.0.wrapping_mul(f))
            .wrapping_add(mg.q.0.wrapping_mul(e))
            .wrapping_add(mg.x.0.wrapping_mul(fg))
            .wrapping_add(mg.y.0.wrapping_mul(eg))
            .wrapping_add(mg.z.0.wrapping_mul(ef));
        if server == ServerId::S2 {
            u = u.wrapping_add(ef.wrapping_mul(g));
        }
        acc = acc.wrapping_add(u);
    }
    Ring64(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::Dealer;
    use crate::share::{reconstruct, share_with};
    use proptest::prelude::*;

    fn run(a: u64, b: u64, c: u64, seed: u64) -> (Ring64, NetStats) {
        let mut dealer = Dealer::new(seed);
        let pa = share_with(Ring64(a), dealer.rng_mut());
        let pb = share_with(Ring64(b), dealer.rng_mut());
        let pc = share_with(Ring64(c), dealer.rng_mut());
        let mg = dealer.mul_group();
        let mut net = NetStats::new();
        let (d1, d2) = mul3(
            (pa.s1, pa.s2),
            (pb.s1, pb.s2),
            (pc.s1, pc.s2),
            mg,
            &mut net,
        );
        (reconstruct(d1, d2), net)
    }

    #[test]
    fn multiplies_bits_like_algorithm_4() {
        // All 8 bit combinations: product is 1 iff all three bits are 1
        // (the "triangle exists" predicate).
        for a in 0..2u64 {
            for b in 0..2u64 {
                for c in 0..2u64 {
                    let (d, _) = run(a, b, c, 17 + a * 4 + b * 2 + c);
                    assert_eq!(d, Ring64(a * b * c), "bits ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn communication_is_one_round_of_three_openings() {
        let (_, net) = run(1, 1, 1, 5);
        assert_eq!(net.rounds, 1);
        assert_eq!(net.elements, 6); // 3 each way
        assert_eq!(net.bytes, 48);
    }

    #[test]
    fn multiplies_general_ring_values() {
        let (d, _) = run(123, 456, 789, 9);
        assert_eq!(d, Ring64(123 * 456 * 789));
    }

    #[test]
    fn handles_negative_signed_values() {
        let a = Ring64::from_i64(-3).to_u64();
        let (d, _) = run(a, 5, 7, 11);
        assert_eq!(d.to_i64(), -105);
    }

    proptest! {
        #[test]
        fn theorem_1_correctness(a: u64, b: u64, c: u64, seed: u64) {
            let (d, _) = run(a, b, c, seed);
            prop_assert_eq!(d, Ring64(a) * Ring64(b) * Ring64(c));
        }
    }

    use crate::dealer::{split_mg_words, PairDealer};
    use crate::prg::SplitMix64;
    use crate::share::share_prf;

    /// Scalar reference for the batch kernels: per triple, drive the
    /// protocol objects ([`mul3`]) on arbitrary share splits of the
    /// same secrets over the same dealer words.
    fn scalar_reference(words: &[u64], a: u64, b: &[u64], c: &[u64]) -> (u64, u64) {
        let mut rng = SplitMix64::new(0xA5A5);
        let mut t1 = Ring64::ZERO;
        let mut t2 = Ring64::ZERO;
        for (lane, w) in words.chunks(MG_WORDS).enumerate() {
            let mut split = |v: u64| {
                let r = rng.next_u64();
                (Ring64(r), Ring64(v.wrapping_sub(r)))
            };
            let mut net = NetStats::new();
            let (d1, d2) = mul3(
                split(a),
                split(b[lane]),
                split(c[lane]),
                split_mg_words(w),
                &mut net,
            );
            t1 += d1;
            t2 += d2;
        }
        (t1.0, t2.0)
    }

    proptest! {
        #[test]
        fn batch_kernel_matches_protocol_objects(seed: u64, a: u64, len in 0usize..40) {
            // Arbitrary batch length covers the ×8 lanes AND the
            // scalar tail; secrets are arbitrary ring values, not just
            // bits, so the kernel is pinned on the full domain.
            let mut dealer = PairDealer::for_pair(seed, 1, 2);
            let mut words = vec![0u64; MG_WORDS * len];
            dealer.fill_words(&mut words);
            let mut rng = SplitMix64::new(seed ^ 0xBEEF);
            let b: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let c: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let (t1, t2) = mul3_batch(&words, a, &b, &c);
            let (r1, r2) = scalar_reference(&words, a, &b, &c);
            prop_assert_eq!(t1, r1);
            prop_assert_eq!(t2, r2);
            // And the reconstruction telescopes to Σ a·b·c.
            let want: u64 = (0..len).fold(0u64, |acc, l| {
                acc.wrapping_add(a.wrapping_mul(b[l]).wrapping_mul(c[l]))
            });
            prop_assert_eq!(t1.wrapping_add(t2), want);
        }

        #[test]
        fn fused_stream_kernel_matches_fill_plus_batch(seed: u64, a: u64, len in 0usize..40) {
            // The fused PRG+arithmetic kernel must consume and mix the
            // stream exactly like fill_words + mul3_batch — including
            // the state it leaves behind.
            let mut rng = SplitMix64::new(seed ^ 0xCAFE);
            let b: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let c: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let mut via_fill = PairDealer::for_pair(seed, 4, 9);
            let mut words = vec![0u64; MG_WORDS * len];
            via_fill.fill_words(&mut words);
            let want = mul3_batch(&words, a, &b, &c);
            let mut via_fused = PairDealer::for_pair(seed, 4, 9);
            let got = via_fused.count_block(a, &b, &c);
            prop_assert_eq!(got, want);
            // Both streams advanced identically: next draws coincide.
            prop_assert_eq!(via_fused.next_group_pair(), via_fill.next_group_pair());
        }

        #[test]
        fn tile_kernel_matches_per_run_batches(seed: u64, len in 0usize..40) {
            // The gathered-tile kernel evaluates lanes whose first
            // secrets differ (straggler runs from many pairs packed
            // into one slab). Splitting the same slab at every point
            // into two splatted-`a` batches with a[..] constant is not
            // possible — instead pin against the scalar tail itself:
            // a length-1 mul3_batch per lane, each with its own a.
            let mut rng = SplitMix64::new(seed ^ 0x7E57);
            let a: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let b: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let c: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let mut words = vec![0u64; MG_WORDS * len];
            PairDealer::for_pair(seed, 2, 6).fill_words(&mut words);
            let got = mul3_tile_batch(&words, &a, &b, &c);
            let (mut r1, mut r2) = (0u64, 0u64);
            for lane in 0..len {
                let w = &words[MG_WORDS * lane..MG_WORDS * (lane + 1)];
                let (u1, u2) = mul3_batch(w, a[lane], &b[lane..=lane], &c[lane..=lane]);
                r1 = r1.wrapping_add(u1);
                r2 = r2.wrapping_add(u2);
            }
            prop_assert_eq!(got, (r1, r2));
            // Constant-a slabs degenerate to the splatted kernel.
            if len > 0 {
                let av = vec![a[0]; len];
                prop_assert_eq!(
                    mul3_tile_batch(&words, &av, &b, &c),
                    mul3_batch(&words, a[0], &b, &c)
                );
            }
        }

        #[test]
        fn mask_open_combine_batch_matches_mul3(seed: u64, len in 1usize..24) {
            // The per-server slab helpers, driven like the sharded
            // runtime drives them, must reproduce mul3 exactly.
            let mut dealer = PairDealer::for_pair(seed, 3, 4);
            let mut rng = SplitMix64::new(seed ^ 0xD15C);
            let mut g1s = Vec::new();
            let mut g2s = Vec::new();
            for _ in 0..len {
                let (g1, g2) = dealer.next_group_pair();
                g1s.push(g1);
                g2s.push(g2);
            }
            let a = rng.next_u64();
            let a1 = rng.next_u64();
            let a2 = a.wrapping_sub(a1);
            let secrets: Vec<(u64, u64)> = (0..len)
                .map(|_| (rng.next_u64(), rng.next_u64()))
                .collect();
            let b1: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let c1: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let b2: Vec<u64> = (0..len).map(|l| secrets[l].0.wrapping_sub(b1[l])).collect();
            let c2: Vec<u64> = (0..len).map(|l| secrets[l].1.wrapping_sub(c1[l])).collect();
            let mut mine = vec![0u64; 3 * len];
            let mut theirs = vec![0u64; 3 * len];
            let mut opened = vec![0u64; 3 * len];
            mul3_mask_batch(a1, &b1, &c1, &g1s, &mut mine);
            mul3_mask_batch(a2, &b2, &c2, &g2s, &mut theirs);
            mul3_open_batch(&mine, &theirs, &mut opened);
            let t1 = mul3_combine_batch(&g1s, &opened, ServerId::S1);
            let t2 = mul3_combine_batch(&g2s, &opened, ServerId::S2);
            // Reference: one mul3 protocol object per triple.
            let mut r1 = Ring64::ZERO;
            let mut r2 = Ring64::ZERO;
            let mut net = NetStats::new();
            for l in 0..len {
                let (d1, d2) = mul3(
                    (Ring64(a1), Ring64(a2)),
                    (Ring64(b1[l]), Ring64(b2[l])),
                    (Ring64(c1[l]), Ring64(c2[l])),
                    (g1s[l], g2s[l]),
                    &mut net,
                );
                r1 += d1;
                r2 += d2;
            }
            prop_assert_eq!(t1, r1);
            prop_assert_eq!(t2, r2);
        }

        #[test]
        fn per_party_kernels_match_split_words_at_every_tier(
            seed: u64,
            mix: u64,
            runs in 1usize..8,
        ) {
            // One server's round-wide mask and combine over lanes cut
            // from a random mix of segments — k-runs of lengths around
            // the lane width and a full round, some resuming their draw
            // (offset > 0) — against the protocol-object path, segment by
            // segment: the draw's stream sought to the segment, AoS words,
            // split_mg_words, the per-server slab helpers. Per server, per
            // tier, from the dealer counters and from the same groups
            // preprocessed.
            let servers = [ServerId::S1, ServerId::S2];
            let mut rng = SplitMix64::new(mix);
            let mut below = |bound: u64| rng.next_u64() % bound;
            let lens = [1usize, 3, 7, 8, 9, 64, 1024];
            let segs: Vec<(MgDraw, usize, usize)> = (0..runs)
                .map(|_| {
                    let len = lens[below(lens.len() as u64) as usize];
                    let offset = if below(2) == 0 { 0 } else { 1 + below(100) as usize };
                    let i = below(1 << 20) as u32;
                    let j = i + 1 + below(1 << 20) as u32;
                    let groups = (offset + len) as u32 + below(4) as u32;
                    (MgDraw { i, j, start: below(1 << 10) as u32, groups }, offset, len)
                })
                .collect();
            let total: usize = segs.iter().map(|seg| seg.2).sum();
            let mut secrets = SplitMix64::new(seed ^ mix);
            let a: Vec<u64> = segs.iter().map(|_| secrets.next_u64()).collect();
            let a1: Vec<u64> = segs.iter().map(|_| secrets.next_u64()).collect();
            let a2 = a.iter().zip(&a1).map(|(a, a1)| a.wrapping_sub(*a1)).collect();
            let a_share = [a1, a2];
            let b: Vec<u64> = (0..total).map(|_| secrets.next_u64()).collect();
            let c: Vec<u64> = (0..total).map(|_| secrets.next_u64()).collect();
            let input = |server: ServerId, row: u32, k: u32, v: &[u64]| -> Vec<u64> {
                v.iter()
                    .enumerate()
                    .map(|(t, &bit)| {
                        let s1 = share_prf(seed, row, k + t as u32);
                        if server == ServerId::S1 { s1 } else { bit.wrapping_sub(s1) }
                    })
                    .collect()
            };
            let mut want_efg = [vec![0u64; 3 * total], vec![0u64; 3 * total]];
            let mut columns: [Vec<MulGroupShare>; 2] = [Vec::new(), Vec::new()];
            let mut fused = [0u64; 2];
            let mut lane = 0usize;
            for (n, &(draw, offset, len)) in segs.iter().enumerate() {
                let k = draw.k_at(offset) as u32;
                let mut dealer = PairDealer::for_draw(seed, &draw);
                dealer.skip_groups(offset);
                let (bv, cv) = (&b[lane..lane + len], &c[lane..lane + len]);
                let both = dealer.clone().count_block(a[n], bv, cv);
                fused = [fused[0].wrapping_add(both.0), fused[1].wrapping_add(both.1)];
                let mut words = vec![0u64; MG_WORDS * len];
                dealer.fill_words(&mut words);
                let groups: Vec<_> = words.chunks_exact(MG_WORDS).map(split_mg_words).collect();
                for (s, &server) in servers.iter().enumerate() {
                    let column: Vec<_> =
                        groups.iter().map(|g| if s == 0 { g.0 } else { g.1 }).collect();
                    let mut seg_efg = vec![0u64; 3 * len];
                    mul3_mask_batch(
                        a_share[s][n],
                        &input(server, draw.i, k, bv),
                        &input(server, draw.j, k, cv),
                        &column,
                        &mut seg_efg,
                    );
                    // The segment's [e|f|g] lands in the round-wide slab.
                    for (part, words) in seg_efg.chunks_exact(len).enumerate() {
                        want_efg[s][part * total + lane..][..len].copy_from_slice(words);
                    }
                    columns[s].extend(column);
                }
                lane += len;
            }
            let mut opened = vec![0u64; 3 * total];
            mul3_open_batch(&want_efg[0], &want_efg[1], &mut opened);
            let want_d = [
                mul3_combine_batch(&columns[0], &opened, ServerId::S1).0,
                mul3_combine_batch(&columns[1], &opened, ServerId::S2).0,
            ];
            // S₁ + S₂, share for share, is the in-process kernel.
            prop_assert_eq!(want_d, fused);
            for tier in SimdTier::available() {
                let mut tables = Vec::new();
                for (s, &server) in servers.iter().enumerate() {
                    let mut lanes = RoundLanes::new(seed, server);
                    let mut lane = 0usize;
                    for (n, &(draw, offset, len)) in segs.iter().enumerate() {
                        // count_local's row-wise input shares agree too.
                        let k = draw.k_at(offset) as u32;
                        let (bv, cv) = (&b[lane..lane + len], &c[lane..lane + len]);
                        for (row, v) in [(draw.i, bv), (draw.j, cv)] {
                            let mut shares = v.to_vec();
                            expand_input_shares_tier(tier, seed, server, row, k, &mut shares);
                            let want = input(server, row, k, v);
                            prop_assert!(shares == want, "{tier} {server:?}: shares");
                        }
                        let a = a_share[s][n];
                        if let Some([bits_b, bits_c]) = lanes.push_run(&draw, offset, len, a) {
                            bits_b.copy_from_slice(&b[lane..lane + len]);
                            bits_c.copy_from_slice(&c[lane..lane + len]);
                        }
                        lane += len;
                    }
                    prop_assert_eq!(lanes.len(), total);
                    tables.push(lanes);
                }
                let mut efg = [vec![0u64; 3 * total], vec![0u64; 3 * total]];
                for (s, &server) in servers.iter().enumerate() {
                    let at = format!("{tier} {server:?} lanes {total}");
                    mask_round_tier(tier, &tables[s], None, &mut efg[s]);
                    prop_assert!(efg[s] == want_efg[s], "{at}: dealer mask");
                    let mut pre = vec![0u64; 3 * total];
                    mask_round_tier(tier, &tables[s], Some(&columns[s]), &mut pre);
                    prop_assert!(pre == want_efg[s], "{at}: preprocessed mask");
                }
                for (s, &server) in servers.iter().enumerate() {
                    let at = format!("{tier} {server:?} lanes {total}");
                    let (mine, theirs) = (&efg[s], &efg[1 - s]);
                    let d = combine_round_tier(tier, &tables[s], None, mine, theirs);
                    prop_assert!(d == want_d[s], "{at}: dealer combine");
                    let d = combine_round_tier(tier, &tables[s], Some(&columns[s]), mine, theirs);
                    prop_assert!(d == want_d[s], "{at}: preprocessed combine");
                }
            }
        }
    }
}
