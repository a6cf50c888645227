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
use crate::prg::{mix_lanes, SM_GAMMA};
use crate::ring::Ring64;
use crate::simd::{lane_steps, SimdTier, U64x8, U64xN, LANES};
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

/// Batched, fused form of [`mul3`] over raw dealer words — the
/// array-of-structures reference of [`count_round`].
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
/// Like [`count_round`] it evaluates both servers' arithmetic in one
/// loop, so the opened maskings collapse algebraically
/// (`f = ⟨f⟩₁+⟨f⟩₂ = b − y`) and the per-share PRF terms cancel, while
/// every produced share stays **bit-identical** to the two-party
/// transcription (wrapping sums are order-independent). The proptests
/// pin it against [`mul3`] per triple.
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

/// The key [`share_prf`](crate::share_prf) mixes for entry
/// `(row, k)`: consecutive columns of a row are keys [`SM_GAMMA`] apart.
#[inline(always)]
fn prf_key(row: u32, k: u64) -> u64 {
    (((row as u64) << 32) | k).wrapping_mul(SM_GAMMA)
}

/// [`share_prf`](crate::share_prf) of each lane's key ([`prf_key`]).
#[inline(always)]
fn prf_keyed<const N: usize>(seed: u64, keys: U64xN<N>) -> U64xN<N> {
    mix_lanes((keys ^ U64xN::splat(seed)) + U64xN::splat(SM_GAMMA))
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

/// One online round cut into lanes — one lane per triple, in
/// structure-of-arrays form. A server's table ([`RoundLanes::new`]) is
/// what [`mask_round`] and [`combine_round`] each evaluate in one pass;
/// a fused table ([`RoundLanes::fused`]) holds both servers' round for
/// [`count_round`]. Either way one pass covers the round, whatever
/// `k`-runs it is cut from.
///
/// A segment `(draw, offset, len)` of the round ([`crate::plan_rounds`])
/// adds `len` lanes ([`RoundLanes::push_run`]). Lane `t` of it, triple
/// `(i, j, k)` with `k = draw.k_at(offset) + t`, holds the first secret
/// `a_ij` (a server's share of it, or the plaintext bit in a fused
/// table) and the dealer-stream counter its group starts at (the draw's
/// [`crate::PairDealer`] sought `offset + t` groups on). A server's
/// table adds the [`share_prf`](crate::share_prf) keys of `(i, k)` and
/// `(j, k)`; S₂'s and a fused table add the plaintext bits of `(i, k)`
/// and `(j, k)`. Lanes are in plan order, so a round's lanes also line
/// up with the next `len` groups of a plan-ordered slab of preprocessed
/// material.
///
/// A lane's product enters the round's sum with a public sign, `+` unless
/// [`RoundLanes::set_signs`] marks it `−`: a signed plan subtracts some
/// triples in the same round that adds others. [`combine_round`] and
/// [`count_round`] apply the sign as a conditional negate of each lane's
/// `⟨d⟩` share; [`mask_round`] never reads it.
///
/// ```
/// use cargo_mpc::{
///     combine_round, count_round, mask_round, share_prf, MgDraw, RoundLanes, ServerId,
/// };
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
/// // Both servers in one pass: the same two shares.
/// let mut fused = RoundLanes::fused(seed);
/// for run in &runs {
///     if let Some([b, c]) = fused.push_run(run, 0, run.groups as usize, 1) {
///         b.fill(1);
///         c.fill(1);
///     }
/// }
/// assert_eq!(count_round(&fused, None), (d1, d2));
/// ```
#[derive(Debug, Clone)]
pub struct RoundLanes {
    seed: u64,
    /// Whose round: one server's, or both servers' (`None`).
    server: Option<ServerId>,
    /// Lanes in the round. The columns below keep the length of the
    /// longest round met, so a round writes them in place.
    len: usize,
    /// Each lane's `a_ij`: this server's share of it, or in a fused
    /// table the plaintext bit.
    a: Vec<u64>,
    /// A server's table only: each lane's [`prf_key`]s of `(i, k)` and
    /// `(j, k)`.
    keys: [Vec<u64>; 2],
    /// The dealer-stream counter each lane's group starts at.
    state: Vec<u64>,
    /// S₂'s and a fused table only: each lane's plaintext bits of
    /// `(i, k)` and `(j, k)`.
    bits: [Vec<u64>; 2],
    /// Each lane's sign mask, `0` (add) or `!0` (subtract); read only
    /// while `signed`.
    negate: Vec<u64>,
    /// Whether [`RoundLanes::set_signs`] gave this round signs.
    signed: bool,
}

impl RoundLanes {
    /// An empty table for `server` under the Count seed `seed`, which
    /// keys both the input-share PRF and the dealer streams.
    pub fn new(seed: u64, server: ServerId) -> Self {
        Self::holding(seed, Some(server))
    }

    /// An empty table of both servers' round under the Count seed
    /// `seed`, for [`count_round`]: it holds the plaintext inputs of
    /// each lane and no PRF key, since the input shares cancel in the
    /// openings.
    pub fn fused(seed: u64) -> Self {
        Self::holding(seed, None)
    }

    fn holding(seed: u64, server: Option<ServerId>) -> Self {
        RoundLanes {
            seed,
            server,
            len: 0,
            a: Vec::new(),
            keys: [Vec::new(), Vec::new()],
            state: Vec::new(),
            bits: [Vec::new(), Vec::new()],
            negate: Vec::new(),
            signed: false,
        }
    }

    /// Empties the table for the next round, keeping its buffers; the
    /// next round's lanes are all `+` until [`Self::set_signs`].
    pub fn clear(&mut self) {
        self.len = 0;
        self.signed = false;
    }

    /// Signs the round's lanes: lane `t`'s product is subtracted from
    /// the round's sum where `negate[t]` is `!0` and added where it is
    /// `0`. Call once the round's segments are pushed.
    ///
    /// # Panics
    /// Panics unless `negate` holds one mask per lane, each `0` or `!0`.
    pub fn set_signs(&mut self, negate: &[u64]) {
        assert_eq!(negate.len(), self.len, "one sign mask per lane");
        assert!(negate.iter().all(|&m| m == 0 || m == !0), "sign masks are 0 or !0");
        self.negate.clear();
        self.negate.extend_from_slice(negate);
        self.signed = true;
    }

    /// The round's sign masks, if it has any `−` lane to apply.
    fn signs(&self) -> Option<&[u64]> {
        self.signed.then(|| &self.negate[..self.len])
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
    /// `a_ij` and `a` this server's share of it (in a fused table,
    /// `a_ij` itself). On S₂ and in a fused table returns the new lanes'
    /// bit slices of rows `i` and `j`, columns `draw.k_at(offset) ..`,
    /// for the caller to overwrite with the users' plaintext bits; S₁
    /// reads no bit and gets `None`.
    pub fn push_run(
        &mut self,
        draw: &MgDraw,
        offset: usize,
        len: usize,
        a: u64,
    ) -> Option<[&mut [u64]; 2]> {
        let k = draw.k_at(offset) as u64;
        let keys = [prf_key(draw.i, k), prf_key(draw.j, k)];
        self.push_lanes(PairDealer::group_state(self.seed, draw, offset), keys, len, a)
    }

    /// [`Self::push_run`] from the dealer-stream counter `state` of the
    /// segment's first group and the PRF `keys` of its first lane.
    pub(crate) fn push_lanes(
        &mut self,
        state: u64,
        keys: [u64; 2],
        len: usize,
        a: u64,
    ) -> Option<[&mut [u64]; 2]> {
        let (keyed, with_bits) = (self.server.is_some(), self.server != Some(ServerId::S1));
        let (at, end) = (self.len, self.len + len);
        if self.a.len() < end + FILL_BLOCK {
            let key_columns = self.keys.iter_mut().filter(|_| keyed);
            let bit_columns = self.bits.iter_mut().filter(|_| with_bits);
            let columns = [&mut self.a, &mut self.state].into_iter().chain(key_columns);
            for column in columns.chain(bit_columns) {
                column.resize(end + FILL_BLOCK, 0);
            }
        }
        self.len = end;
        fill_steps(&mut self.a, at..end, a, 0);
        if keyed {
            for (column, key) in self.keys.iter_mut().zip(keys) {
                fill_steps(column, at..end, key, SM_GAMMA);
            }
        }
        fill_steps(&mut self.state, at..end, state, SM_GAMMA.wrapping_mul(MG_WORDS as u64));
        with_bits.then(|| self.bits.each_mut().map(|bits| &mut bits[at..end]))
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
        mix_lanes(U64xN::load(&self.0[lane0..]) + U64xN::splat(SM_GAMMA.wrapping_mul(f + 1)))
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

/// Where both servers' Multiplication Groups of a fused round come
/// from, lane by lane.
trait BothGroups: Copy {
    /// `N` lanes from `lane0` of both servers' `⟨d⟩` shares of the
    /// triples whose plaintext inputs are `a, b, c`: opens
    /// `e = a − x, f = b − y, g = c − z` directly, the two servers'
    /// maskings summed.
    fn d_both<const N: usize>(self, lane0: usize, abc: [U64xN<N>; 3]) -> [U64xN<N>; 2];
}

impl BothGroups for DealerLanes<'_> {
    /// Each of the group's ten words is mixed once. S₂'s share is the
    /// product less S₁'s: the dealer differences S₂'s `o, p, q, w`
    /// shares out of the products ([`crate::split_mg_words`]), so the
    /// group is consistent by construction and Theorem 1 gives
    /// `⟨d⟩₂ = abc − ⟨d⟩₁` exactly — the value S₂'s own combination
    /// yields, for 14 multiplications fewer. Preprocessed material gets
    /// no such shortcut: there S₂'s arithmetic is what checks S₂'s
    /// groups.
    #[inline(always)]
    fn d_both<const N: usize>(self, lane0: usize, [a, b, c]: [U64xN<N>; 3]) -> [U64xN<N>; 2] {
        let (x1, x2, y1) = (self.field(lane0, 0), self.field(lane0, 1), self.field(lane0, 2));
        let (y2, z1, z2) = (self.field(lane0, 3), self.field(lane0, 4), self.field(lane0, 5));
        let (o1, p1, q1) = (self.field(lane0, 6), self.field(lane0, 7), self.field(lane0, 8));
        let w1 = self.field(lane0, 9);
        let (x, y, z) = (x1 + x2, y1 + y2, z1 + z2);
        let (e, f, g) = (a - x, b - y, c - z);
        let (fg, eg, ef) = (f * g, e * g, e * f);
        let d1 = w1 + o1 * g + p1 * f + q1 * e + x1 * fg + y1 * eg + z1 * ef;
        [d1, a * b * c - d1]
    }
}

/// Both servers' columns of one material source, S₁'s first.
impl<G: LaneGroups> BothGroups for [G; 2] {
    #[inline(always)]
    fn d_both<const N: usize>(self, lane0: usize, [a, b, c]: [U64xN<N>; 3]) -> [U64xN<N>; 2] {
        let [x1, y1, z1] = self[0].xyz::<false, N>(lane0);
        let [x2, y2, z2] = self[1].xyz::<true, N>(lane0);
        let efg = [a - (x1 + x2), b - (y1 + y2), c - (z1 + z2)];
        [self[0].d::<false, N>(lane0, efg), self[1].d::<true, N>(lane0, efg)]
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

/// `N` lanes from `lane0` of `d` under the round's signs: `(d ^ m) − m`
/// is `d` where the mask `m` is `0` and `−d` where it is `!0`. A pass
/// over an unsigned round is compiled with `SIGNED = false`, so it reads
/// no sign and runs exactly the unsigned code.
#[inline(always)]
fn signed<const SIGNED: bool, const N: usize>(
    signs: &[u64],
    lane0: usize,
    d: U64xN<N>,
) -> U64xN<N> {
    if SIGNED {
        let m = U64xN::load(&signs[lane0..]);
        (d ^ m) - m
    } else {
        d
    }
}

/// [`combine_round`]'s pass for one server and one material source.
#[inline(always)]
fn combine_pass<const S2: bool, const SIGNED: bool, G: LaneGroups>(
    groups: G,
    signs: &[u64],
    mine: &[u64],
    theirs: &[u64],
) -> u64 {
    let l = mine.len() / 3;
    let full = l / LANES * LANES;
    let mut acc = U64x8::ZERO;
    for lane0 in (0..full).step_by(LANES) {
        let efg = [lane0, l + lane0, 2 * l + lane0].map(|at| open_lanes::<LANES>(mine, theirs, at));
        acc = acc + signed::<SIGNED, LANES>(signs, lane0, groups.d::<S2, LANES>(lane0, efg));
    }
    let mut total = acc.hsum();
    for t in full..l {
        let efg = [t, l + t, 2 * l + t].map(|at| open_lanes::<1>(mine, theirs, at));
        total = total.wrapping_add(signed::<SIGNED, 1>(signs, t, groups.d::<S2, 1>(t, efg)).0[0]);
    }
    total
}

/// `N` lanes from `lane0` of a fused table's plaintext inputs
/// `a_ij, a_ik, a_jk`.
#[inline(always)]
fn plain_lanes<const N: usize>(lanes: &RoundLanes, lane0: usize) -> [U64xN<N>; 3] {
    [&lanes.a, &lanes.bits[0], &lanes.bits[1]].map(|column| U64xN::load(&column[lane0..]))
}

/// [`count_round`]'s pass for one material source.
#[inline(always)]
fn count_pass<const SIGNED: bool, G: BothGroups>(
    lanes: &RoundLanes,
    signs: &[u64],
    groups: G,
) -> (u64, u64) {
    let l = lanes.len();
    let full = l / LANES * LANES;
    let (mut acc1, mut acc2) = (U64x8::ZERO, U64x8::ZERO);
    for lane0 in (0..full).step_by(LANES) {
        let [d1, d2] = groups.d_both::<LANES>(lane0, plain_lanes(lanes, lane0));
        acc1 = acc1 + signed::<SIGNED, LANES>(signs, lane0, d1);
        acc2 = acc2 + signed::<SIGNED, LANES>(signs, lane0, d2);
    }
    let (mut t1, mut t2) = (acc1.hsum(), acc2.hsum());
    for t in full..l {
        let [d1, d2] = groups.d_both::<1>(t, plain_lanes(lanes, t));
        let (d1, d2) = (signed::<SIGNED, 1>(signs, t, d1), signed::<SIGNED, 1>(signs, t, d2));
        (t1, t2) = (t1.wrapping_add(d1.0[0]), t2.wrapping_add(d2.0[0]));
    }
    (t1, t2)
}

/// [`mask_round`]'s body, compiled once per ISA tier.
#[inline(always)]
fn mask_body(lanes: &RoundLanes, groups: Option<&[MulGroupShare]>, out: &mut [u64]) {
    let dealer = DealerLanes(&lanes.state);
    match (lanes.server == Some(ServerId::S2), groups) {
        (false, None) => mask_pass::<false, _>(lanes, dealer, out),
        (true, None) => mask_pass::<true, _>(lanes, dealer, out),
        (false, Some(g)) => mask_pass::<false, _>(lanes, ShareLanes(g), out),
        (true, Some(g)) => mask_pass::<true, _>(lanes, ShareLanes(g), out),
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
    match lanes.signs() {
        None => combine_material::<false>(lanes, groups, &[], mine, theirs),
        Some(signs) => combine_material::<true>(lanes, groups, signs, mine, theirs),
    }
}

/// [`combine_body`] for signed or unsigned rounds.
#[inline(always)]
fn combine_material<const SIGNED: bool>(
    lanes: &RoundLanes,
    groups: Option<&[MulGroupShare]>,
    signs: &[u64],
    mine: &[u64],
    theirs: &[u64],
) -> u64 {
    let dealer = DealerLanes(&lanes.state);
    match (lanes.server == Some(ServerId::S2), groups) {
        (false, None) => combine_pass::<false, SIGNED, _>(dealer, signs, mine, theirs),
        (true, None) => combine_pass::<true, SIGNED, _>(dealer, signs, mine, theirs),
        (false, Some(g)) => combine_pass::<false, SIGNED, _>(ShareLanes(g), signs, mine, theirs),
        (true, Some(g)) => combine_pass::<true, SIGNED, _>(ShareLanes(g), signs, mine, theirs),
    }
}

/// [`count_round`]'s body, compiled once per ISA tier.
#[inline(always)]
fn count_body(lanes: &RoundLanes, groups: Option<[&[MulGroupShare]; 2]>) -> (u64, u64) {
    let dealer = DealerLanes(&lanes.state);
    match (lanes.signs(), groups) {
        (None, None) => count_pass::<false, _>(lanes, &[], dealer),
        (Some(signs), None) => count_pass::<true, _>(lanes, signs, dealer),
        (None, Some(c)) => count_pass::<false, _>(lanes, &[], c.map(ShareLanes)),
        (Some(signs), Some(c)) => count_pass::<true, _>(lanes, signs, c.map(ShareLanes)),
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
    assert!(lanes.server.is_some(), "mask_round takes one server's table");
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
/// returns the wrapping sum `Σ sₜ·⟨d⟩ₜ` of this server's `⟨d⟩` shares
/// under the lanes' signs ([`RoundLanes::set_signs`]; all `+` by
/// default) — in dealer mode re-deriving the words it needs from each
/// lane's counter (S₁ seven, S₂ all ten). On an all-`+` round,
/// bit-identical to [`mul3_open_batch`] + [`mul3_combine_batch`] over
/// the round's groups of this server's column.
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
    assert!(lanes.server.is_some(), "combine_round takes one server's table");
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

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn count_avx512(lanes: &RoundLanes, groups: Option<[&[MulGroupShare]; 2]>) -> (u64, u64) {
    count_body(lanes, groups)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_avx2(lanes: &RoundLanes, groups: Option<[&[MulGroupShare]; 2]>) -> (u64, u64) {
    count_body(lanes, groups)
}

/// Both servers' steps 1–3 over a whole round, in one pass over a fused
/// [`RoundLanes`] table ([`RoundLanes::fused`]): returns the wrapping
/// sums `(Σ sₜ·⟨d⟩₁, Σ sₜ·⟨d⟩₂)` of the round's triples under the lanes'
/// signs ([`RoundLanes::set_signs`]; all `+` by default). Each lane opens
/// `e = a − x, f = b − y, g = c − z` from its plaintext inputs directly
/// — the two servers' input shares cancel in the openings, so the
/// input-share PRF is never evaluated. In dealer mode it mixes each of
/// its group's ten words once and takes S₂'s share as `abc − ⟨d⟩₁`,
/// exact for the dealer's consistent groups (Theorem 1).
///
/// `groups` is the round's material: `None` draws each lane's group
/// from its dealer counter; `Some([s1, s2])` reads both servers'
/// preprocessed groups, one per lane in lane order. Bit-identical,
/// share for share, to the two servers' [`mask_round`]s followed by
/// their [`combine_round`]s over the same round and material, at every
/// [`SimdTier`] — which the per-party proptests pin.
///
/// # Panics
/// Panics if `lanes` is one server's table, or a column of `groups`
/// does not hold `L` groups.
pub fn count_round(lanes: &RoundLanes, groups: Option<[&[MulGroupShare]; 2]>) -> (u64, u64) {
    count_round_tier(SimdTier::detect(), lanes, groups)
}

fn count_round_tier(
    tier: SimdTier,
    lanes: &RoundLanes,
    groups: Option<[&[MulGroupShare]; 2]>,
) -> (u64, u64) {
    let l = lanes.len();
    assert!(lanes.server.is_none(), "count_round takes a fused table");
    assert!(
        groups.is_none_or(|g| g.iter().all(|g| g.len() == l)),
        "one preprocessed group per lane"
    );
    assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
    match tier {
        // SAFETY: `supported()` just confirmed the CPU features the
        // callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { count_avx512(lanes, groups) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { count_avx2(lanes, groups) },
        _ => count_body(lanes, groups),
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
            // preprocessed; and both servers' fused pass over the same
            // round, which must equal the two combines share for share.
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
                // The count_block shim is fill_words + mul3_batch.
                prop_assert_eq!(both, mul3_batch(&words, a[n], bv, cv));
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
            // The fused table: plaintext a_ij, both rows' bits.
            let mut both = RoundLanes::fused(seed);
            let mut lane = 0usize;
            for (n, &(draw, offset, len)) in segs.iter().enumerate() {
                if let Some([bits_b, bits_c]) = both.push_run(&draw, offset, len, a[n]) {
                    bits_b.copy_from_slice(&b[lane..lane + len]);
                    bits_c.copy_from_slice(&c[lane..lane + len]);
                }
                lane += len;
            }
            prop_assert_eq!(both.len(), total);
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
                let at = format!("{tier} fused lanes {total}");
                let d = count_round_tier(tier, &both, None);
                prop_assert!(d == (want_d[0], want_d[1]), "{at}: dealer count");
                let d = count_round_tier(tier, &both, Some([&columns[0], &columns[1]]));
                prop_assert!(d == (want_d[0], want_d[1]), "{at}: preprocessed count");
            }
        }

        #[test]
        fn signed_rounds_match_the_scalar_reference_at_every_tier(
            seed: u64,
            mix: u64,
            runs in 1usize..6,
        ) {
            // A round whose lanes carry random public signs: at every
            // tier, both servers' combines and the fused count return
            // Σ sₜ·⟨d⟩ₜ of the protocol objects' per-triple shares (one
            // mul3 per lane, the group at the lane's stream position),
            // from dealer counters and from the same groups
            // preprocessed; and all-`+` signs change no bit of the
            // unsigned round.
            let servers = [ServerId::S1, ServerId::S2];
            let mut rng = SplitMix64::new(mix);
            let mut below = |bound: u64| rng.next_u64() % bound;
            let lens = [1usize, 3, 7, 8, 9, 64, 1024];
            let segs: Vec<(MgDraw, usize, usize)> = (0..runs)
                .map(|_| {
                    let len = lens[below(lens.len() as u64) as usize];
                    let offset = below(3) as usize;
                    let i = below(1 << 20) as u32;
                    let j = i + 1 + below(1 << 20) as u32;
                    let groups = (offset + len) as u32;
                    (MgDraw { i, j, start: below(1 << 10) as u32, groups }, offset, len)
                })
                .collect();
            let total: usize = segs.iter().map(|seg| seg.2).sum();
            let negate: Vec<u64> = (0..total).map(|_| 0u64.wrapping_sub(below(2))).collect();
            let mut secrets = SplitMix64::new(seed ^ mix);
            let a: Vec<u64> = segs.iter().map(|_| secrets.next_u64() & 1).collect();
            let a1: Vec<u64> = segs.iter().map(|_| secrets.next_u64()).collect();
            let bc: Vec<[u64; 2]> =
                (0..total).map(|_| [secrets.next_u64() & 1, secrets.next_u64() & 1]).collect();
            // The scalar reference, lane by lane.
            let share = |row: u32, k: u32, bit: u64| {
                let s1 = share_prf(seed, row, k);
                (Ring64(s1), Ring64(bit.wrapping_sub(s1)))
            };
            let mut columns: [Vec<MulGroupShare>; 2] = [Vec::new(), Vec::new()];
            let (mut want, mut unsigned) = ([Ring64::ZERO; 2], [Ring64::ZERO; 2]);
            let mut lane = 0usize;
            for (n, &(draw, offset, len)) in segs.iter().enumerate() {
                let mut dealer = PairDealer::for_draw(seed, &draw);
                dealer.skip_groups(offset);
                for t in 0..len {
                    let k = draw.k_at(offset + t) as u32;
                    let mg = dealer.next_group_pair();
                    columns[0].push(mg.0);
                    columns[1].push(mg.1);
                    let a_ij = (Ring64(a1[n]), Ring64(a[n].wrapping_sub(a1[n])));
                    let [b, c] = bc[lane + t];
                    let (b, c) = (share(draw.i, k, b), share(draw.j, k, c));
                    let d = mul3(a_ij, b, c, mg, &mut NetStats::new());
                    for (s, d) in [d.0, d.1].into_iter().enumerate() {
                        unsigned[s] += d;
                        want[s] += if negate[lane + t] == 0 { d } else { -d };
                    }
                }
                lane += len;
            }
            let want = (want[0].0, want[1].0);
            let unsigned = (unsigned[0].0, unsigned[1].0);
            // The tables: each server's, and the fused one.
            let table = |server: Option<ServerId>| {
                let mut lanes = match server {
                    Some(server) => RoundLanes::new(seed, server),
                    None => RoundLanes::fused(seed),
                };
                let mut lane = 0usize;
                for (n, &(draw, offset, len)) in segs.iter().enumerate() {
                    let a = match server {
                        Some(ServerId::S1) => a1[n],
                        Some(ServerId::S2) => a[n].wrapping_sub(a1[n]),
                        None => a[n],
                    };
                    if let Some([b, c]) = lanes.push_run(&draw, offset, len, a) {
                        for (t, [bit_b, bit_c]) in bc[lane..lane + len].iter().enumerate() {
                            (b[t], c[t]) = (*bit_b, *bit_c);
                        }
                    }
                    lane += len;
                }
                lanes
            };
            let plus = vec![0u64; total];
            for tier in SimdTier::available() {
                for (signs, want, what) in [(&negate, want, "signed"), (&plus, unsigned, "all +")] {
                    let at = format!("{tier} {what} lanes {total}");
                    let mut tables = servers.map(|server| table(Some(server)));
                    let mut efg = [vec![0u64; 3 * total], vec![0u64; 3 * total]];
                    for s in 0..2 {
                        mask_round_tier(tier, &tables[s], None, &mut efg[s]);
                        tables[s].set_signs(signs);
                    }
                    for material in [None, Some(&columns)] {
                        let d: Vec<u64> = (0..2)
                            .map(|s| {
                                let groups = material.map(|c| c[s].as_slice());
                                combine_round_tier(tier, &tables[s], groups, &efg[s], &efg[1 - s])
                            })
                            .collect();
                        let preprocessed = material.is_some();
                        prop_assert!((d[0], d[1]) == want, "{at}: combine, {preprocessed}");
                    }
                    let mut fused = table(None);
                    fused.set_signs(signs);
                    let d = count_round_tier(tier, &fused, None);
                    prop_assert!(d == want, "{at}: dealer count");
                    let d = count_round_tier(tier, &fused, Some([&columns[0], &columns[1]]));
                    prop_assert!(d == want, "{at}: preprocessed count");
                    // A cleared table forgets its signs.
                    fused.clear();
                    prop_assert!(fused.signs().is_none(), "{at}: clear resets the signs");
                }
            }
        }
    }
}
