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
//!
//! ## Masks keyed by pair
//!
//! A Count's three secrets are *pair* bits, `a_ij`, `a_ik` and `a_jk`,
//! and every pair bit enters up to `n − 2` triples. The Count therefore
//! keys each Multiplication Group's masks by pair — `x = λ_ij`,
//! `y = λ_ik`, `z = λ_jk`, each server's share of `λ` a PRF of
//! `(seed, i, j, server)` ([`crate::mask_prf`]) — and only the products
//! `o, p, q, w` per triple (ABY2.0's input-independent masking, Patra
//! et al., USENIX Security 2021, applied to the three-value MG). Step 2
//! then opens `e_ij = a_ij − λ_ij` **once per pair** and every triple
//! that reads the pair reuses it; step 3 is unchanged. A Count is a few
//! rounds of pair openings ([`mask_round`] into each server's
//! [`PairTable`]) and a local sum: each server's [`combine_round`] over
//! its lane tables ([`RoundLanes`]), which read `e, f, g` and `x, y, z`
//! per pair. Every executor runs these per-server kernels — the
//! in-process Count runs both servers' in turn — so a plaintext bit
//! enters only S₂'s pair masking. [`mul3`] stays the one-triple
//! protocol object with free masks.

use crate::channel::NetStats;
use crate::dealer::{PairDealer, GROUP_WORDS};
use crate::offline::MgDraw;
use crate::prg::{mix_lanes, SM_GAMMA};
use crate::ring::Ring64;
use crate::share::MASK_TWEAK;
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

/// The [`share_prf`](crate::share_prf) key of pair `(i, j)`: the key
/// [`mask_round`] and the lane passes mix a pair's input and mask
/// shares from. Consecutive columns of a row are keys [`PAIR_KEY_STEP`]
/// apart, so a row's run of pairs `(i, j₀ + t)` is
/// `pair_key(i, j₀) + t·PAIR_KEY_STEP`.
#[inline(always)]
pub fn pair_key(i: u32, j: u32) -> u64 {
    prf_key(i, j as u64)
}

/// The key step between consecutive columns of a row ([`pair_key`]).
pub const PAIR_KEY_STEP: u64 = SM_GAMMA;

/// `N` lanes of server `s`'s (0 or 1) mask shares
/// ([`crate::mask_prf`]) of the pairs keyed `keys`.
#[inline(always)]
fn mask_lanes<const N: usize>(seed: u64, s: usize, keys: U64xN<N>) -> U64xN<N> {
    prf_keyed(seed ^ MASK_TWEAK[s], keys)
}

/// One server's pair table over a Count plan's **pair set**: the
/// opened `e = a − λ` of every pair, in the plan's canonical pair
/// order.
///
/// Every Multiplication Group of the Count is keyed by pair: triple
/// `(i, j, k)`'s masks are `x = λ_ij, y = λ_ik, z = λ_jk`
/// ([`crate::mask_prf`]), so its openings `e, f, g` are the openings of
/// its three pairs — opened once per Count however many triples read
/// them — and a server's mask shares are its PRF of the pair, derived
/// where a lane needs them ([`RoundLanes`]). What the combine makes of
/// them depends on whose table it is and where the groups come from —
/// never on a plaintext bit:
///
/// * S₁ combines its own product shares with `λ⁽¹⁾`.
/// * S₂ combines its own with `λ⁽²⁾`, plus `efg`. With preprocessed
///   material those are its groups' words. With dealer material they
///   are the full masks' products less S₁'s words
///   ([`crate::split_mg_words`]: `o₂ = xy − o₁`, …, with
///   `x = λ⁽¹⁾ + λ⁽²⁾`), and substituted into the combination they
///   telescope to `⟨d⟩₂ = (x + e)(y + f)(z + g) − ⟨d⟩₁`, which is how S₂
///   evaluates it: from both servers' mask shares, S₁'s words and the
///   openings.
#[derive(Debug, Clone)]
pub struct PairTable {
    seed: u64,
    /// Whose table.
    server: ServerId,
    /// Whether the groups come from preprocessed material
    /// ([`RoundLanes::set_groups`]) rather than the dealer streams.
    preprocessed: bool,
    /// Each pair's opened `e = a − λ`.
    e: Vec<u64>,
}

impl PairTable {
    /// An empty table for `server` under the Count seed `seed`, whose
    /// groups come from the dealer streams or, `preprocessed`, from
    /// preprocessed material.
    pub fn new(seed: u64, server: ServerId, preprocessed: bool) -> Self {
        PairTable { seed, server, preprocessed, e: Vec::new() }
    }

    /// Pairs in the table.
    pub fn len(&self) -> usize {
        self.e.len()
    }

    /// Whether the table holds no pair yet.
    pub fn is_empty(&self) -> bool {
        self.e.is_empty()
    }

    /// Appends a round of pairs' openings `e`: the sum of both servers'
    /// [`mask_round`] slabs.
    pub fn push(&mut self, opened: &[u64]) {
        self.e.extend_from_slice(opened);
    }
}

/// `N` lanes from `lane0` of the pair maskings [`mask_round`] writes for
/// S₁ or, `S2`, for S₂. S₁ reads no bit.
#[inline(always)]
fn pair_mask_lanes<const S2: bool, const N: usize>(
    seed: u64,
    keys: &[u64],
    bits: &[u64],
    lane0: usize,
) -> U64xN<N> {
    let k = U64xN::load(&keys[lane0..]);
    if S2 {
        U64xN::load(&bits[lane0..]) - prf_keyed(seed, k) - mask_lanes(seed, 1, k)
    } else {
        prf_keyed(seed, k) - mask_lanes(seed, 0, k)
    }
}

/// [`mask_body`] for one server.
#[inline(always)]
fn mask_pass<const S2: bool>(seed: u64, keys: &[u64], bits: &[u64], out: &mut [u64]) {
    let full = keys.len() / LANES * LANES;
    for lane0 in Blocks::below(full) {
        pair_mask_lanes::<S2, LANES>(seed, keys, bits, lane0).store(&mut out[lane0..]);
    }
    for (t, word) in out.iter_mut().enumerate().skip(full) {
        *word = pair_mask_lanes::<S2, 1>(seed, keys, bits, t).0[0];
    }
}

/// The first lanes of a round's full blocks of [`LANES`], in the order
/// `k ← (k + 5) mod span` over block numbers (`span` the power of two at
/// or above the block count, numbers past the count skipped) — every
/// block once. LLVM cannot count that loop, so its loop vectorizer
/// leaves it alone; over a counted loop it unrolled each block's lanes
/// into scalar chains and turned the loop inside out into strided
/// gathers across blocks (DESIGN.md §8.1). The passes' sums are wrapping
/// additions and their stores per block, so the order is free.
struct Blocks {
    /// The next block number to visit, or `None` once every one was.
    next: Option<usize>,
    blocks: usize,
    mask: usize,
}

impl Blocks {
    /// The blocks of the `full` lanes (a multiple of [`LANES`]).
    #[inline(always)]
    fn below(full: usize) -> Self {
        let blocks = full / LANES;
        Blocks { next: (blocks > 0).then_some(0), blocks, mask: blocks.next_power_of_two() - 1 }
    }
}

impl Iterator for Blocks {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        loop {
            let k = self.next?;
            let after = (k + 5) & self.mask;
            self.next = (after != 0).then_some(after);
            if k < self.blocks {
                return Some(k * LANES);
            }
        }
    }
}

/// [`mask_round`]'s body, compiled once per ISA tier.
#[inline(always)]
fn mask_body(seed: u64, server: ServerId, keys: &[u64], bits: &[u64], out: &mut [u64]) {
    match server {
        ServerId::S1 => mask_pass::<false>(seed, keys, bits, out),
        ServerId::S2 => mask_pass::<true>(seed, keys, bits, out),
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mask_avx512(seed: u64, server: ServerId, keys: &[u64], bits: &[u64], out: &mut [u64]) {
    mask_body(seed, server, keys, bits, out)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask_avx2(seed: u64, server: ServerId, keys: &[u64], bits: &[u64], out: &mut [u64]) {
    mask_body(seed, server, keys, bits, out)
}

/// Masks a round of pairs for `table`'s owner, lane-parallel, from the
/// pairs' [`pair_key`]s: the server's masking `⟨e⟩ᵢ = ⟨a⟩ᵢ − λ⁽ⁱ⁾` —
/// S₁'s input share is [`share_prf`](crate::share_prf), S₂'s the
/// plaintext bit less it. `bits` holds the pairs' plaintext bits on S₂;
/// S₁ reads none (pass an empty slice). Bit-identical to the scalar
/// PRFs at every [`SimdTier`].
///
/// # Panics
/// Panics if `out` (or, where read, `bits`) is not `keys.len()` long.
pub fn mask_round(table: &PairTable, keys: &[u64], bits: &[u64], out: &mut [u64]) {
    mask_round_tier(SimdTier::detect(), table, keys, bits, out)
}

fn mask_round_tier(tier: SimdTier, table: &PairTable, keys: &[u64], bits: &[u64], out: &mut [u64]) {
    let (seed, server) = (table.seed, table.server);
    assert_eq!(out.len(), keys.len(), "one masking per pair");
    if server == ServerId::S2 {
        assert_eq!(bits.len(), keys.len(), "one plaintext bit per pair");
    }
    assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
    match tier {
        // SAFETY: `supported()` just confirmed the CPU features the
        // callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { mask_avx512(seed, server, keys, bits, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { mask_avx2(seed, server, keys, bits, out) },
        _ => mask_body(seed, server, keys, bits, out),
    }
}

/// A round of a chunk's triples cut into lanes — one lane per triple, in
/// structure-of-arrays form — for one server's [`combine_round`]. One
/// pass covers the round, whatever `k`-runs it is cut from, and reads no
/// message: every opening it needs is already in the server's
/// [`PairTable`].
///
/// A segment `(draw, offset, len)` of the round ([`crate::plan_rounds`])
/// adds `len` lanes ([`RoundLanes::push_run`]). Lane `t` of it, triple
/// `(i, j, k)` with `k = draw.k_at(offset) + t`, holds the openings of
/// its three pairs — `(i, j)`'s in every lane of the segment, `(i, k)`'s
/// and `(j, k)`'s copied as contiguous runs of the table, because a
/// `k`-run's pairs of one row are consecutive in the pair order — the
/// mask share of `(i, j)` and the [`pair_key`]s of `(i, k)` and `(j, k)`
/// (their mask shares are mixed in the lane pass) and, with dealer
/// material, the dealer-stream counter its group starts at (the draw's
/// [`crate::PairDealer`] sought `offset + t` groups on). No lane holds a
/// plaintext bit. With preprocessed material the round's groups are set
/// once the round is pushed ([`RoundLanes::set_groups`]). Lanes are in
/// plan order, so a round's lanes line up with the next `len` groups of
/// a plan-ordered slab of preprocessed material.
///
/// A lane's product enters the round's sum with a public sign, `+` unless
/// [`RoundLanes::set_signs`] marks it `−`: a signed plan subtracts some
/// triples in the same round that adds others. [`combine_round`] applies
/// the sign as a conditional negate of each lane's `⟨d⟩` share.
///
/// ```
/// use cargo_mpc::{combine_round, mask_round, pair_key, MgDraw, PairTable, RoundLanes, ServerId};
/// // Triples (0, 1, k) for k = 2, 3, 4, every adjacency bit 1. Their
/// // pairs, in order: (0, 1); (0, 2), (0, 3), (0, 4); (1, 2), (1, 3), (1, 4).
/// let seed = 7;
/// let pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)];
/// let keys: Vec<u64> = pairs.iter().map(|&(i, j)| pair_key(i, j)).collect();
/// let bits = vec![1; pairs.len()];
/// let draw = MgDraw::dense(0, 1, 3);
/// // Each server masks every pair once; the sums are the openings.
/// let mut tables = [ServerId::S1, ServerId::S2].map(|s| PairTable::new(seed, s, false));
/// let mut slabs = [vec![0; 7], vec![0; 7]];
/// for (table, slab) in tables.iter().zip(&mut slabs) {
///     mask_round(table, &keys, &bits, slab);
/// }
/// let opened: Vec<u64> = slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
/// let d: Vec<u64> = tables
///     .iter_mut()
///     .map(|table| {
///         table.push(&opened);
///         let mut lanes = RoundLanes::new(table, 3);
///         lanes.push_run(table, &draw, 0, 3, [0, 1, 4]);
///         combine_round(&lanes)
///     })
///     .collect();
/// assert_eq!(d[0].wrapping_add(d[1]), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RoundLanes {
    seed: u64,
    /// Whose round.
    server: ServerId,
    /// Whether the groups come from [`RoundLanes::set_groups`].
    preprocessed: bool,
    /// Lanes in the round. The columns below keep the length of the
    /// longest round met, so a round writes them in place.
    len: usize,
    /// Each lane's `e, f, g`: the table's openings of `(i, j)`, `(i, k)`
    /// and `(j, k)`.
    open: [Vec<u64>; 3],
    /// Each lane's mask shares `x` of `(i, j)` ([`RoundLanes::x_masks`]):
    /// S₁'s, except S₂'s on an S₂ table over preprocessed material; S₂'s
    /// besides S₁'s on an S₂ table over dealer material.
    x: [Vec<u64>; 2],
    /// Each lane's [`pair_key`]s of `(i, k)` and `(j, k)`, whose mask
    /// shares are the lane's `y` and `z`.
    keys: [Vec<u64>; 2],
    /// Dealer material only: the dealer-stream counter each lane's group
    /// starts at.
    state: Vec<u64>,
    /// Preprocessed material only: each lane's `w, o, p, q` shares.
    products: [Vec<u64>; 4],
    /// Each lane's sign mask, `0` (add) or `!0` (subtract); read only
    /// while `signed`.
    negate: Vec<u64>,
    /// Whether [`RoundLanes::set_signs`] gave this round signs.
    signed: bool,
    /// Whether [`RoundLanes::set_groups`] gave this round its groups.
    grouped: bool,
}

impl RoundLanes {
    /// An empty lane table over `table`'s pairs — the same owner, Count
    /// seed and material source — with room for rounds of `lanes`
    /// lanes (a longer round grows it).
    pub fn new(table: &PairTable, lanes: usize) -> Self {
        let mut round = RoundLanes {
            seed: table.seed,
            server: table.server,
            preprocessed: table.preprocessed,
            len: 0,
            open: Default::default(),
            x: Default::default(),
            keys: Default::default(),
            state: Vec::new(),
            products: Default::default(),
            negate: Vec::new(),
            signed: false,
            grouped: false,
        };
        round.grow(lanes);
        round
    }

    /// Sizes the lane columns for `lanes` lanes and the slack of a
    /// segment's last block.
    fn grow(&mut self, lanes: usize) {
        let columns = self.open.iter_mut().chain(&mut self.x).chain(&mut self.keys);
        for column in columns.chain([&mut self.state]) {
            column.resize(lanes + FILL_BLOCK, 0);
        }
    }

    /// Empties the table for the next round, keeping its buffers; the
    /// next round's lanes are all `+` until [`Self::set_signs`], and a
    /// preprocessed round has no groups until [`Self::set_groups`].
    pub fn clear(&mut self) {
        self.len = 0;
        self.signed = false;
        self.grouped = false;
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

    /// Sets the round's preprocessed groups — this server's, one per
    /// lane in lane order. Call once the round's segments are pushed.
    /// The groups' mask shares are the pairs' ([`crate::mask_prf`]);
    /// only their product shares are read.
    ///
    /// # Panics
    /// Panics on a dealer table, or unless `groups` holds one group per
    /// lane.
    pub fn set_groups(&mut self, groups: &[MulGroupShare]) {
        assert!(self.preprocessed, "a dealer table draws its groups from the streams");
        assert_eq!(groups.len(), self.len, "one preprocessed group per lane");
        let [w, o, p, q] = &mut self.products;
        for words in [&mut *w, &mut *o, &mut *p, &mut *q] {
            words.clear();
        }
        for g in groups {
            w.push(g.w.0);
            o.push(g.o.0);
            p.push(g.p.0);
            q.push(g.q.0);
        }
        self.grouped = true;
    }

    /// Lanes (triples) in the round so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the round has no lane yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the round segment `(draw, offset, len)` of `table`'s
    /// plan: `len` lanes, the triples `(i, j, draw.k_at(offset) + t)`.
    /// `slots` are the table positions of pair `(i, j)` and of the
    /// segment's first `(i, k)` and `(j, k)`; lane `t` reads `(i, k)` and
    /// `(j, k)` `t` positions on.
    ///
    /// # Panics
    /// Panics if a slot run leaves the table.
    pub fn push_run(
        &mut self,
        table: &PairTable,
        draw: &MgDraw,
        offset: usize,
        len: usize,
        slots: [usize; 3],
    ) {
        let state =
            if self.preprocessed { 0 } else { PairDealer::group_state(self.seed, draw, offset) };
        let k = draw.k_at(offset) as u32;
        let keys = [pair_key(draw.i, k), pair_key(draw.j, k)];
        let key = U64xN([pair_key(draw.i, draw.j)]);
        let (s2_own, both) = self.x_masks();
        let lambda = |s: usize| mask_lanes(self.seed, s, key).0[0];
        let x = [lambda(usize::from(s2_own)), if both { lambda(1) } else { 0 }];
        self.push_lanes(table, state, slots, keys, x, len)
    }

    /// Which of S₂'s mask shares of `(i, j)` the table reads: its own
    /// alone in the first `x` column (an S₂ table over preprocessed
    /// material), or in the second beside S₁'s in the first (an S₂ table
    /// over dealer material).
    fn x_masks(&self) -> (bool, bool) {
        match (self.server, self.preprocessed) {
            (ServerId::S1, _) => (false, false),
            (ServerId::S2, preprocessed) => (preprocessed, !preprocessed),
        }
    }

    /// [`Self::push_run`] from the dealer-stream counter `state` of the
    /// segment's first group, the keys of its first `(i, k)` and
    /// `(j, k)`, and the mask shares `x` of `(i, j)` the table reads
    /// ([`Self::x_masks`]: S₁'s or S₂'s own first, S₂'s second beside
    /// S₁'s).
    pub(crate) fn push_lanes(
        &mut self,
        table: &PairTable,
        state: u64,
        [ij, ik, jk]: [usize; 3],
        keys: [u64; 2],
        x: [u64; 2],
        len: usize,
    ) {
        let (at, end) = (self.len, self.len + len);
        if self.state.len() < end + FILL_BLOCK {
            self.grow(end.next_power_of_two());
        }
        self.len = end;
        let (x2, dealer) = (self.x_masks().1, !self.preprocessed);
        if len == 1 {
            // A sparse plan's k-runs are mostly one long: one store a
            // column.
            let [e, f, g] = &mut self.open;
            (e[at], f[at], g[at]) = (table.e[ij], table.e[ik], table.e[jk]);
            (self.x[0][at], self.keys[0][at], self.keys[1][at]) = (x[0], keys[0], keys[1]);
            if x2 {
                self.x[1][at] = x[1];
            }
            if dealer {
                self.state[at] = state;
            }
        } else {
            fill_steps(&mut self.open[0], at..end, table.e[ij], 0);
            self.open[1][at..end].copy_from_slice(&table.e[ik..ik + len]);
            self.open[2][at..end].copy_from_slice(&table.e[jk..jk + len]);
            fill_steps(&mut self.x[0], at..end, x[0], 0);
            if x2 {
                fill_steps(&mut self.x[1], at..end, x[1], 0);
            }
            for (column, key) in self.keys.iter_mut().zip(keys) {
                fill_steps(column, at..end, key, PAIR_KEY_STEP);
            }
            if dealer {
                let step = SM_GAMMA.wrapping_mul(GROUP_WORDS as u64);
                fill_steps(&mut self.state, at..end, state, step);
            }
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
// generic over where a round's product shares come from. Every step is
// an `#[inline(always)]` function, never a closure with a body of its
// own: a tier's wrapper vectorises only what is inlined into it, and
// LLVM may leave a large closure out-of-line (and scalar).

/// `N` lanes from `lane0` of three lane columns.
#[inline(always)]
fn load3<const N: usize>(columns: &[Vec<u64>; 3], lane0: usize) -> [U64xN<N>; 3] {
    let [a, b, c] = columns;
    [U64xN::load(&a[lane0..]), U64xN::load(&b[lane0..]), U64xN::load(&c[lane0..])]
}

/// One server's `⟨d⟩ = ⟨w⟩ + ⟨o⟩g + ⟨p⟩f + ⟨q⟩e + ⟨x⟩fg + ⟨y⟩eg + ⟨z⟩ef`
/// (without S₂'s `efg`), from its product shares `[w, o, p, q]`, the
/// openings and its mask shares.
#[inline(always)]
fn d_share<const N: usize>(
    [w, o, p, q]: [U64xN<N>; 4],
    [e, f, g]: [U64xN<N>; 3],
    [x, y, z]: [U64xN<N>; 3],
) -> U64xN<N> {
    w + o * g + p * f + q * e + x * (f * g) + y * (e * g) + z * (e * f)
}

/// Where a round's product shares `w, o, p, q` come from, lane by lane.
trait Products: Copy {
    /// `N` lanes from `lane0` of `[w, o, p, q]`.
    fn wopq<const N: usize>(self, lane0: usize) -> [U64xN<N>; 4];
}

/// Dealer material: S₁'s words `o₁ p₁ q₁ w₁` of each lane's group,
/// mixed from its counter ([`RoundLanes`]' `state`) in closed form.
#[derive(Clone, Copy)]
struct DealerWords<'a>(&'a [u64]);

impl DealerWords<'_> {
    /// Word `f` (`o₁ p₁ q₁ w₁` in order) of the groups whose counters are
    /// `state`.
    #[inline(always)]
    fn word<const N: usize>(state: U64xN<N>, f: u64) -> U64xN<N> {
        mix_lanes(state + U64xN::splat(SM_GAMMA.wrapping_mul(f + 1)))
    }
}

impl Products for DealerWords<'_> {
    #[inline(always)]
    fn wopq<const N: usize>(self, lane0: usize) -> [U64xN<N>; 4] {
        let state = U64xN::load(&self.0[lane0..]);
        let (o, p, q) = (Self::word(state, 0), Self::word(state, 1), Self::word(state, 2));
        [Self::word(state, 3), o, p, q]
    }
}

/// Preprocessed material: one server's columns of the round's groups
/// ([`RoundLanes::set_groups`]).
#[derive(Clone, Copy)]
struct Preprocessed<'a>(&'a [Vec<u64>; 4]);

impl Products for Preprocessed<'_> {
    #[inline(always)]
    fn wopq<const N: usize>(self, lane0: usize) -> [U64xN<N>; 4] {
        let [w, o, p, q] = self.0;
        let (w, o) = (U64xN::load(&w[lane0..]), U64xN::load(&o[lane0..]));
        [w, o, U64xN::load(&p[lane0..]), U64xN::load(&q[lane0..])]
    }
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

/// `N` lanes from `lane0` of server `S`'s (0 or 1) mask shares
/// `x, y, z` of the lanes' three pairs: `x` from lane column `X`, `y`
/// and `z` mixed from the pairs' keys.
#[inline(always)]
fn lane_masks<const S: usize, const X: usize, const N: usize>(
    lanes: &RoundLanes,
    lane0: usize,
) -> [U64xN<N>; 3] {
    let [ik, jk] = &lanes.keys;
    let x = U64xN::load(&lanes.x[X][lane0..]);
    let y = mask_lanes(lanes.seed, S, U64xN::load(&ik[lane0..]));
    [x, y, mask_lanes(lanes.seed, S, U64xN::load(&jk[lane0..]))]
}

/// `N` lanes from `lane0` of one server's `⟨d⟩`: [`d_share`] with S₁'s
/// mask shares — then, with `S2_DEALER` (S₂ with dealer material), S₂'s
/// own combination, telescoped to `(x + e)(y + f)(z + g)` less it
/// ([`PairTable`]) — or, with `EFG` (S₂ with preprocessed material),
/// with S₂'s mask shares, plus `efg`.
#[inline(always)]
fn party_d<const S2_DEALER: bool, const EFG: bool, const N: usize, P: Products>(
    lanes: &RoundLanes,
    products: P,
    lane0: usize,
) -> U64xN<N> {
    let efg = load3(&lanes.open, lane0);
    let xyz = if EFG { lane_masks::<1, 0, N>(lanes, lane0) } else { lane_masks::<0, 0, N>(lanes, lane0) };
    let d = d_share(products.wopq(lane0), efg, xyz);
    if S2_DEALER {
        let [x2, y2, z2] = lane_masks::<1, 1, N>(lanes, lane0);
        let [x1, y1, z1] = xyz;
        let [e, f, g] = efg;
        (x1 + x2 + e) * (y1 + y2 + f) * (z1 + z2 + g) - d
    } else if EFG {
        d + efg[0] * efg[1] * efg[2]
    } else {
        d
    }
}

/// [`combine_round`]'s pass for one server and one material source.
#[inline(always)]
fn combine_pass<const SIGNED: bool, const S2_DEALER: bool, const EFG: bool, P: Products>(
    lanes: &RoundLanes,
    signs: &[u64],
    products: P,
) -> u64 {
    let l = lanes.len();
    let full = l / LANES * LANES;
    let mut acc = U64x8::ZERO;
    for lane0 in Blocks::below(full) {
        let d = party_d::<S2_DEALER, EFG, LANES, P>(lanes, products, lane0);
        acc = acc + signed::<SIGNED, LANES>(signs, lane0, d);
    }
    let mut total = acc.hsum();
    for t in full..l {
        let d = party_d::<S2_DEALER, EFG, 1, P>(lanes, products, t);
        total = total.wrapping_add(signed::<SIGNED, 1>(signs, t, d).0[0]);
    }
    total
}

/// [`combine_round`]'s body, compiled once per ISA tier.
#[inline(always)]
fn combine_body(lanes: &RoundLanes) -> u64 {
    match lanes.signs() {
        None => combine_material::<false>(lanes, &[]),
        Some(signs) => combine_material::<true>(lanes, signs),
    }
}

/// [`combine_body`] for signed or unsigned rounds.
#[inline(always)]
fn combine_material<const SIGNED: bool>(lanes: &RoundLanes, signs: &[u64]) -> u64 {
    let (dealer, pre) = (DealerWords(&lanes.state), Preprocessed(&lanes.products));
    match (lanes.server == ServerId::S2, lanes.preprocessed) {
        (false, false) => combine_pass::<SIGNED, false, false, _>(lanes, signs, dealer),
        (false, true) => combine_pass::<SIGNED, false, false, _>(lanes, signs, pre),
        (true, false) => combine_pass::<SIGNED, true, false, _>(lanes, signs, dealer),
        (true, true) => combine_pass::<SIGNED, false, true, _>(lanes, signs, pre),
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn combine_avx512(lanes: &RoundLanes) -> u64 {
    combine_body(lanes)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn combine_avx2(lanes: &RoundLanes) -> u64 {
    combine_body(lanes)
}

/// One server's step 3 over a whole round, in one pass over its
/// [`RoundLanes`]: returns the wrapping sum `Σ sₜ·⟨d⟩ₜ` of this server's
/// `⟨d⟩` shares under the lanes' signs ([`RoundLanes::set_signs`]; all
/// `+` by default). The openings are the pair table's, so the round
/// sends nothing. With dealer material S₁ mixes each lane's four words
/// `o₁ p₁ q₁ w₁`, and S₂ mixes the same words: the dealer differences
/// S₂'s product shares out of the full masks' products, so its own
/// combination is `(x + e)(y + f)(z + g) − ⟨d⟩₁` ([`PairTable`]); with
/// preprocessed material each server combines its own groups. On an
/// all-`+` round, bit-identical to [`mul3_combine`] per triple over the
/// groups [`crate::PairDealer::next_group_pair`] draws — which the
/// per-party proptests pin at every [`SimdTier`].
///
/// # Panics
/// Panics if `lanes` is a preprocessed table whose groups were not set
/// for this round.
pub fn combine_round(lanes: &RoundLanes) -> u64 {
    combine_round_tier(SimdTier::detect(), lanes)
}

fn combine_round_tier(tier: SimdTier, lanes: &RoundLanes) -> u64 {
    assert!(!lanes.preprocessed || lanes.grouped, "one preprocessed group per lane");
    assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
    match tier {
        // SAFETY: `supported()` just confirmed the CPU features the
        // callee is compiled for.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { combine_avx512(lanes) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { combine_avx2(lanes) },
        _ => combine_body(lanes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::{split_mg_words, Dealer};
    use crate::prg::SplitMix64;
    use crate::share::{mask_prf, reconstruct, share_prf, share_with};
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

    /// A round cut from random segments `(draw, offset, len)` — `k`-runs
    /// of lengths around the lane width and a full round, some resuming
    /// their draw — with a pair table laid out segment by segment: pair
    /// `(i, j)`, then the run's `(i, k)`, then its `(j, k)`, each holding
    /// an arbitrary ring value as its "bit".
    struct Round {
        seed: u64,
        segs: Vec<(MgDraw, usize, usize)>,
        keys: Vec<u64>,
        bits: Vec<u64>,
        /// Each segment's table slots of `(i, j)`, `(i, k₀)`, `(j, k₀)`.
        slots: Vec<[usize; 3]>,
        /// Each lane's sign mask.
        negate: Vec<u64>,
    }

    impl Round {
        fn new(seed: u64, mix: u64, runs: usize) -> Self {
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
            let (mut keys, mut slots) = (Vec::new(), Vec::new());
            for &(draw, offset, len) in &segs {
                let k0 = draw.k_at(offset) as u32;
                let at = keys.len();
                slots.push([at, at + 1, at + 1 + len]);
                keys.push(pair_key(draw.i, draw.j));
                keys.extend((0..len as u32).map(|t| pair_key(draw.i, k0 + t)));
                keys.extend((0..len as u32).map(|t| pair_key(draw.j, k0 + t)));
            }
            let mut values = SplitMix64::new(seed ^ mix);
            let bits = keys.iter().map(|_| values.next_u64()).collect();
            let total: usize = segs.iter().map(|seg| seg.2).sum();
            let negate = (0..total).map(|_| 0u64.wrapping_sub(values.next_u64() & 1)).collect();
            Round { seed, segs, keys, bits, slots, negate }
        }

        /// Each server's groups of the round's lanes, in lane order,
        /// from the protocol objects; and `Σ sₜ·⟨d⟩ₜ` per server by
        /// `mul3_combine` per triple, under `signs` (or all `+`).
        fn reference(&self, signs: bool) -> ([Vec<MulGroupShare>; 2], (u64, u64)) {
            let mut columns: [Vec<MulGroupShare>; 2] = [Vec::new(), Vec::new()];
            let (mut d1, mut d2) = (Ring64::ZERO, Ring64::ZERO);
            let lambda = |key: usize, s| {
                let (i, j) = unkey(&self.segs, &self.slots, key);
                mask_prf(self.seed, s, i, j)
            };
            let open = |slot: usize| {
                let l = lambda(slot, ServerId::S1).wrapping_add(lambda(slot, ServerId::S2));
                Ring64(self.bits[slot].wrapping_sub(l))
            };
            let mut lane = 0;
            for (&(draw, offset, len), &[ij, ik, jk]) in self.segs.iter().zip(&self.slots) {
                let mut dealer = PairDealer::for_draw(self.seed, &draw);
                dealer.skip_groups(offset);
                for t in 0..len {
                    let (g1, g2) = dealer.next_group_pair();
                    let opening = Mul3Opening { e: open(ij), f: open(ik + t), g: open(jk + t) };
                    let efg = opening.e * opening.f * opening.g;
                    let zero = (Ring64::ZERO, Ring64::ZERO, Ring64::ZERO);
                    let (u1, u2) = (
                        mul3_combine(zero, &g1, opening, Ring64::ZERO),
                        mul3_combine(zero, &g2, opening, efg),
                    );
                    let minus = signs && self.negate[lane] != 0;
                    d1 += if minus { -u1 } else { u1 };
                    d2 += if minus { -u2 } else { u2 };
                    columns[0].push(g1);
                    columns[1].push(g2);
                    lane += 1;
                }
            }
            (columns, (d1.0, d2.0))
        }

        /// `table`'s owner's lane table of the whole round, after the
        /// pair phase: each server's maskings summed and pushed at `tier`.
        fn lanes(&self, tier: SimdTier, table: &mut PairTable) -> RoundLanes {
            let slabs = [ServerId::S1, ServerId::S2].map(|s| {
                let mut slab = vec![0; self.keys.len()];
                let peer = PairTable::new(self.seed, s, false);
                mask_round_tier(tier, &peer, &self.keys, &self.bits, &mut slab);
                slab
            });
            let opened: Vec<u64> =
                slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
            table.push(&opened);
            let mut lanes = RoundLanes::new(table, 0);
            for (&(draw, offset, len), &slots) in self.segs.iter().zip(&self.slots) {
                lanes.push_run(table, &draw, offset, len, slots);
            }
            lanes
        }
    }

    #[test]
    fn both_wire_servers_combine_against_the_openings() {
        // An opening both servers receive wrong moves the wire Count:
        // S₂ combines its own shares against the openings, as S₁ does,
        // rather than taking a·b·c − ⟨d⟩₁ from the plaintext bits.
        let round = Round::new(3, 5, 2);
        let (_, (d1, d2)) = round.reference(false);
        let tier = SimdTier::detect();
        let shares = [ServerId::S1, ServerId::S2].map(|s| {
            let mut right = PairTable::new(3, s, false);
            round.lanes(tier, &mut right);
            let mut e = right.e.clone();
            let ij = round.slots[0][0];
            e[ij] = e[ij].wrapping_add(1);
            let mut table = PairTable::new(3, s, false);
            table.push(&e);
            let mut lanes = RoundLanes::new(&table, 0);
            for (&(draw, offset, len), &slots) in round.segs.iter().zip(&round.slots) {
                lanes.push_run(&table, &draw, offset, len, slots);
            }
            combine_round_tier(tier, &lanes)
        });
        assert_ne!(shares[0].wrapping_add(shares[1]), d1.wrapping_add(d2));
    }

    /// The pair at table slot `slot` of a [`Round`]'s layout.
    fn unkey(segs: &[(MgDraw, usize, usize)], slots: &[[usize; 3]], slot: usize) -> (u32, u32) {
        for (&(draw, offset, len), &[ij, ik, jk]) in segs.iter().zip(slots) {
            let k0 = draw.k_at(offset) as u32;
            if slot == ij {
                return (draw.i, draw.j);
            } else if (ik..ik + len).contains(&slot) {
                return (draw.i, k0 + (slot - ik) as u32);
            } else if (jk..jk + len).contains(&slot) {
                return (draw.j, k0 + (slot - jk) as u32);
            }
        }
        unreachable!("slot {slot} is in no segment")
    }

    proptest! {
        #[test]
        fn batch_kernel_matches_protocol_objects(seed: u64, mix: u64, runs in 1usize..6) {
            // The protocol objects' shares — one mul3_combine per triple
            // on the groups the pair streams draw, over arbitrary ring
            // values, not just bits — sum to Σ a·b·c.
            let round = Round::new(seed, mix, runs);
            let (_, want) = round.reference(false);
            let mut abc = 0u64;
            for (&(_, _, len), &[ij, ik, jk]) in round.segs.iter().zip(&round.slots) {
                for t in 0..len {
                    let product = round.bits[ij].wrapping_mul(round.bits[ik + t]);
                    abc = abc.wrapping_add(product.wrapping_mul(round.bits[jk + t]));
                }
            }
            prop_assert_eq!(want.0.wrapping_add(want.1), abc);
        }

        #[test]
        fn count_block_matches_the_protocol_objects(seed: u64, a: u64, len in 0usize..40) {
            // The benchmark's fused-stream shim evaluates the stream's
            // next groups' triples (0, 1, k) and advances it past them.
            let mut rng = SplitMix64::new(seed ^ 0xCAFE);
            let b: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let c: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let mut fused = PairDealer::for_pair(seed, 4, 9);
            fused.skip_groups(3);
            let got = fused.count_block(a, &b, &c);
            let mut objects = PairDealer::for_pair(seed, 4, 9);
            objects.skip_groups(3);
            let lambda = |i, k| {
                mask_prf(seed, ServerId::S1, i, k).wrapping_add(mask_prf(seed, ServerId::S2, i, k))
            };
            let mut want = (Ring64::ZERO, Ring64::ZERO);
            for t in 0..len {
                let k = 13 + t as u32;
                let (g1, g2) = objects.next_group_pair();
                let opening = Mul3Opening {
                    e: Ring64(a.wrapping_sub(lambda(4, 9))),
                    f: Ring64(b[t].wrapping_sub(lambda(4, k))),
                    g: Ring64(c[t].wrapping_sub(lambda(9, k))),
                };
                let zero = (Ring64::ZERO, Ring64::ZERO, Ring64::ZERO);
                want.0 += mul3_combine(zero, &g1, opening, Ring64::ZERO);
                want.1 += mul3_combine(zero, &g2, opening, opening.e * opening.f * opening.g);
            }
            prop_assert_eq!(got, (want.0 .0, want.1 .0));
            prop_assert_eq!(fused.next_group_pair(), objects.next_group_pair());
        }

        #[test]
        fn mask_open_combine_batch_matches_mul3(seed: u64, len in 1usize..24) {
            // The wire parties' steps, driven like the runtime drives
            // them — each server masks every pair once, the slabs are
            // summed, each combines — against mul3 on the protocol
            // objects per triple: input shares from share_prf, groups
            // from the pair stream.
            let draw = MgDraw::dense(2, 5, len as u32);
            let mut pairs = vec![(2, 5)];
            pairs.extend((0..len as u32).map(|t| (2, 6 + t)));
            pairs.extend((0..len as u32).map(|t| (5, 6 + t)));
            let keys: Vec<u64> = pairs.iter().map(|&(i, j)| pair_key(i, j)).collect();
            let mut rng = SplitMix64::new(seed ^ 0xD15C);
            let bits: Vec<u64> = pairs.iter().map(|_| rng.next_u64() & 1).collect();
            let mut tables = [ServerId::S1, ServerId::S2].map(|s| PairTable::new(seed, s, false));
            let mut slabs = [vec![0; keys.len()], vec![0; keys.len()]];
            for (table, slab) in tables.iter().zip(&mut slabs) {
                mask_round(table, &keys, &bits, slab);
            }
            let opened: Vec<u64> = slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
            let d: Vec<u64> = tables
                .iter_mut()
                .map(|table| {
                    table.push(&opened);
                    let mut lanes = RoundLanes::new(table, len);
                    lanes.push_run(table, &draw, 0, len, [0, 1, 1 + len]);
                    combine_round(&lanes)
                })
                .collect();
            let share = |slot: usize| {
                let (i, j) = pairs[slot];
                let s1 = share_prf(seed, i, j);
                (Ring64(s1), Ring64(bits[slot].wrapping_sub(s1)))
            };
            let mut dealer = PairDealer::for_pair(seed, 2, 5);
            let (mut r1, mut r2) = (Ring64::ZERO, Ring64::ZERO);
            let mut net = NetStats::new();
            for t in 0..len {
                let mg = dealer.next_group_pair();
                let (u1, u2) = mul3(share(0), share(1 + t), share(1 + len + t), mg, &mut net);
                r1 += u1;
                r2 += u2;
            }
            prop_assert_eq!((d[0], d[1]), (r1.0, r2.0));
        }

        #[test]
        fn per_party_kernels_match_split_words_at_every_tier(seed: u64, mix: u64, runs in 1usize..8) {
            // One server's pair masking and round-wide combine, from the
            // dealer counters and from the same groups preprocessed, per
            // tier, against the reference groups split_mg_words builds
            // from the pairs' mask shares and the stream words. The
            // maskings are each server's PRFs of the pairs.
            let round = Round::new(seed, mix, runs);
            let (columns, want) = round.reference(false);
            let mut words = vec![0; GROUP_WORDS];
            let (draw, offset, _) = round.segs[0];
            let mut dealer = PairDealer::for_draw(seed, &draw);
            dealer.skip_groups(offset);
            dealer.fill_words(&mut words);
            let k = draw.k_at(offset) as u32;
            let masks = [(draw.i, draw.j), (draw.i, k), (draw.j, k)]
                .map(|(u, v)| [ServerId::S1, ServerId::S2].map(|s| mask_prf(seed, s, u, v)));
            prop_assert_eq!(split_mg_words(masks, &words), (columns[0][0], columns[1][0]));
            for tier in SimdTier::available() {
                for (s, server) in [ServerId::S1, ServerId::S2].into_iter().enumerate() {
                    let at = format!("{tier} {server:?}");
                    let table = PairTable::new(seed, server, false);
                    let mut slab = vec![0; round.keys.len()];
                    mask_round_tier(tier, &table, &round.keys, &round.bits, &mut slab);
                    for (slot, &got) in slab.iter().enumerate() {
                        let (i, j) = unkey(&round.segs, &round.slots, slot);
                        let input = share_prf(seed, i, j);
                        let input = if s == 0 { input } else { round.bits[slot].wrapping_sub(input) };
                        prop_assert!(got == input.wrapping_sub(mask_prf(seed, server, i, j)), "{at}: mask");
                    }
                    let want_s = [want.0, want.1][s];
                    let lanes = round.lanes(tier, &mut PairTable::new(seed, server, false));
                    prop_assert!(combine_round_tier(tier, &lanes) == want_s, "{at}: dealer combine");
                    let mut lanes = round.lanes(tier, &mut PairTable::new(seed, server, true));
                    lanes.set_groups(&columns[s]);
                    prop_assert!(combine_round_tier(tier, &lanes) == want_s, "{at}: preprocessed combine");
                }
            }
        }

        #[test]
        fn signed_rounds_match_the_scalar_reference_at_every_tier(
            seed: u64,
            mix: u64,
            runs in 1usize..6,
        ) {
            // A round whose lanes carry random public signs: at every
            // tier, both servers' combines return Σ sₜ·⟨d⟩ₜ of the
            // protocol objects' per-triple shares, from dealer counters
            // and from the same groups preprocessed; all-`+` signs change
            // no bit of the unsigned round.
            let round = Round::new(seed, mix, runs);
            let (columns, want) = round.reference(true);
            let (_, unsigned) = round.reference(false);
            let plus = vec![0u64; round.negate.len()];
            for tier in SimdTier::available() {
                for (signs, want, what) in [(&round.negate, want, "signed"), (&plus, unsigned, "all +")] {
                    let at = format!("{tier} {what}");
                    for preprocessed in [false, true] {
                        let mut d = [0u64; 2];
                        for (s, server) in [ServerId::S1, ServerId::S2].into_iter().enumerate() {
                            let mut table = PairTable::new(seed, server, preprocessed);
                            let mut lanes = round.lanes(tier, &mut table);
                            if preprocessed {
                                lanes.set_groups(&columns[s]);
                            }
                            lanes.set_signs(signs);
                            d[s] = combine_round_tier(tier, &lanes);
                            // A cleared table forgets its signs and groups.
                            lanes.clear();
                            prop_assert!(lanes.signs().is_none() && !lanes.grouped, "{at}: clear");
                        }
                        prop_assert!((d[0], d[1]) == want, "{at}: combine, {preprocessed}");
                    }
                }
            }
        }
    }
}
