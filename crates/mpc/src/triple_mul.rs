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
//! et al., USENIX Security 2021, <https://eprint.iacr.org/2020/1225>,
//! applied to the three-value MG). Step 2 then opens `e_ij = a_ij − λ_ij`
//! **once per pair** and every triple that reads the pair reuses it: a
//! Count is a few rounds of pair openings ([`mask_round`] into each
//! server's [`PairTable`]) and a local sum.
//!
//! Step 3's sum over a plan's triples `t`, each with a public sign
//! `sₜ`, regroups exactly by pair: each server's share of `Σₜ sₜ·dₜ` is
//!
//! ```text
//! ⟨Σ sₜ·w⟩ + Σ_p e_p·⟨M_p⟩ + Σ_p ⟨λ_p⟩·W_p   (+ Σ sₜ·efg on S₂)
//! ```
//!
//! where `W_p` is the sign-weighted sum, over the triples that read
//! pair `p`, of the other two pairs' openings' product, and `M_p` the
//! same over their masks — SecureML's aggregated correlations (Mohassel
//! & Zhang, S&P 2017, <https://eprint.iacr.org/2017/396>) over the pair
//! masks. Each server evaluates it in one [`weighted_pass`] over a
//! chunk's `k`-runs ([`PairRun`]): a few dot products of contiguous
//! rows of its table per run. `⟨M_p⟩₁` is one dealer word a pair and
//! `⟨Σ w⟩₁` one a Count ([`PairTable::count_term`]); with preprocessed
//! material the offline phase ([`crate::offline`]) makes S₂'s words to
//! match them. Every executor
//! runs these per-server kernels — the in-process Count runs both
//! servers' in turn — so a plaintext bit enters only S₂'s pair masking.
//! [`mul3`] stays the one-triple protocol object with free masks.

use crate::channel::NetStats;
use crate::dealer::{PairDealer, PAIR_WORD_TWEAK};
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
/// [`mask_round`] mixes a pair's input share, mask shares and dealer
/// word from. Consecutive columns of a row are keys [`PAIR_KEY_STEP`]
/// apart, so a row's run of pairs `(i, j₀ + t)` is
/// `pair_key(i, j₀) + t·PAIR_KEY_STEP`.
#[inline(always)]
pub fn pair_key(i: u32, j: u32) -> u64 {
    prf_key(i, j as u64)
}

/// The key step between consecutive columns of a row ([`pair_key`]).
pub const PAIR_KEY_STEP: u64 = SM_GAMMA;

/// The pair whose [`pair_key`] is `key`: a key is the packed pair
/// `i·2³² + j` times an odd constant, so it names its pair exactly.
#[inline]
pub fn key_pair(key: u64) -> (u32, u32) {
    // The inverse of SM_GAMMA mod 2⁶⁴: each Newton step doubles the
    // bits of x·γ ≡ 1 that hold, three from the start.
    const INVERSE: u64 = {
        let mut x = SM_GAMMA;
        let mut steps = 0;
        while steps < 5 {
            x = x.wrapping_mul(2u64.wrapping_sub(SM_GAMMA.wrapping_mul(x)));
            steps += 1;
        }
        x
    };
    let pair = key.wrapping_mul(INVERSE);
    ((pair >> 32) as u32, pair as u32)
}

/// `N` lanes of server `s`'s (0 or 1) mask shares
/// ([`crate::mask_prf`]) of the pairs keyed `keys`.
#[inline(always)]
fn mask_lanes<const N: usize>(seed: u64, s: usize, keys: U64xN<N>) -> U64xN<N> {
    prf_keyed(seed ^ MASK_TWEAK[s], keys)
}

/// One server's pair table over a Count plan's **pair set**: in the
/// plan's canonical pair order, the opened `e = a − λ` of every pair
/// beside the mask shares this server's [`weighted_pass`] dots with the
/// openings, stored as [`mask_round`] computes them.
///
/// Every Multiplication Group of the Count is keyed by pair: triple
/// `(i, j, k)`'s masks are `x = λ_ij, y = λ_ik, z = λ_jk`
/// ([`crate::mask_prf`]), so its openings `e, f, g` are the openings of
/// its three pairs — opened once per Count however many triples read
/// them. What the pass makes of them depends on whose table it is and
/// where the groups come from — never on a plaintext bit:
///
/// * S₁ dots its own mask shares `λ⁽¹⁾` with the openings; its product
///   shares are one dealer word a pair and one a Count
///   ([`PairDealer::pair_word`], [`PairDealer::count_word`]), summed into
///   [`PairTable::count_term`] — in OT mode too, where the offline phase
///   derandomises onto them ([`crate::offline`]).
/// * S₂ with preprocessed material runs S₁'s pass shape over its own
///   `λ⁽²⁾`, plus `efg`; the offline phase installs its words
///   `M_p − ⟨M_p⟩₁` and `W − ⟨W⟩₁` ([`crate::OfflineS2::finish`]),
///   which [`PairTable::count_term`] sums like S₁'s.
/// * S₂ with dealer material holds S₁'s mask shares and the full masks
///   `λ = λ⁽¹⁾ + λ⁽²⁾` beside the openings: the dealer differences S₂'s
///   product shares out of the full masks' products less S₁'s words
///   ([`crate::split_mg_words`] is the per-triple form), and substituted
///   into the combination they telescope to
///   `⟨d⟩₂ = (λ_ij + e)(λ_ik + f)(λ_jk + g) − ⟨d⟩₁`, which is how S₂
///   evaluates it.
#[derive(Debug, Clone)]
pub struct PairTable {
    seed: u64,
    /// Whose table.
    server: ServerId,
    /// Whether the Count's words come from the offline phase rather
    /// than the dealer.
    preprocessed: bool,
    /// The ISA tier [`mask_round`] and [`weighted_pass`] run at.
    tier: SimdTier,
    /// Each pair's opened `e = a − λ`.
    e: Vec<u64>,
    /// Each pair's mask share the pass reads: the owner's, except S₁'s
    /// on a dealer S₂ table. A round's are written by [`mask_round`]
    /// before its openings are pushed.
    lam: Vec<u64>,
    /// Dealer S₂ tables only: each pair's full mask `λ⁽¹⁾ + λ⁽²⁾`.
    full: Vec<u64>,
    /// Dealer and S₁ tables: S₁'s dealer words of the round masked last
    /// — of every pair on a preprocessed S₁ table, whose offline phase
    /// derandomises onto them.
    words: Vec<u64>,
    /// `Σ_p e_p·⟨M_p⟩` over the pushed pairs: S₁'s words, or the words a
    /// preprocessed S₂ table was installed with.
    word_sum: u64,
    /// The Count's word `⟨W⟩`: S₁'s dealer word, or what a preprocessed
    /// table's offline phase installed (zero until it runs).
    count_word: u64,
}

impl PairTable {
    /// An empty table for `server` under the Count seed `seed`, whose
    /// words come from the dealer or, `preprocessed`, from the offline
    /// phase.
    pub fn new(seed: u64, server: ServerId, preprocessed: bool) -> Self {
        PairTable {
            seed,
            server,
            preprocessed,
            tier: SimdTier::detect(),
            e: Vec::new(),
            lam: Vec::new(),
            full: Vec::new(),
            words: Vec::new(),
            word_sum: 0,
            count_word: if preprocessed { 0 } else { PairDealer::count_word(seed) },
        }
    }

    /// The same table run at `tier` — for the suites that pin every
    /// tier to the scalar formula.
    ///
    /// # Panics
    /// Panics if this CPU does not support `tier`.
    #[doc(hidden)]
    pub fn at_tier(self, tier: SimdTier) -> Self {
        assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
        PairTable { tier, ..self }
    }

    /// Makes room for `pairs` more pairs in every column the table
    /// keeps, so a Count that knows its pair set grows them once.
    pub fn reserve(&mut self, pairs: usize) {
        self.e.reserve_exact(pairs);
        self.lam.reserve_exact(pairs);
        if !self.preprocessed && self.server == ServerId::S2 {
            self.full.reserve_exact(pairs);
        }
        if self.keeps_words() {
            self.words.reserve_exact(pairs);
        }
    }

    /// Whether the table keeps every pair's dealer word, not a round's:
    /// a preprocessed S₁ table.
    fn keeps_words(&self) -> bool {
        self.preprocessed && self.server == ServerId::S1
    }

    /// The Count seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The owner's mask shares of the opened pairs, by slot.
    pub(crate) fn mask_shares(&self) -> &[u64] {
        &self.lam[..self.e.len()]
    }

    /// Whose table.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// The dealer words the table keeps ([`Self::keeps_words`]).
    pub(crate) fn pair_words(&self) -> &[u64] {
        &self.words
    }

    /// Installs a preprocessed table's offline material once every pair
    /// is pushed: S₂'s words `M_p − ⟨M_p⟩₁` by slot and `W − ⟨W⟩₁`, or on
    /// S₁ (`None`) its own dealer words.
    ///
    /// # Panics
    /// Panics on a dealer table, or unless S₂'s words are one a pair.
    pub fn install(&mut self, material: Option<(&[u64], u64)>) {
        assert!(self.preprocessed, "dealer tables hold their words already");
        match material {
            None => self.count_word = PairDealer::count_word(self.seed),
            Some((words, count)) => {
                assert_eq!(words.len(), self.e.len(), "one offline word per opened pair");
                let products = self.e.iter().zip(words).map(|(e, m)| e.wrapping_mul(*m));
                self.word_sum = products.fold(0, u64::wrapping_add);
                self.count_word = count;
            }
        }
    }

    /// Pairs in the table.
    pub fn len(&self) -> usize {
        self.e.len()
    }

    /// Whether the table holds no pair yet.
    pub fn is_empty(&self) -> bool {
        self.e.is_empty()
    }

    /// The pushed pairs' openings `e = a − λ`, by slot.
    pub fn openings(&self) -> &[u64] {
        &self.e
    }

    /// Appends the openings `e` of the round [`mask_round`] masked last:
    /// the sum of both servers' slabs.
    ///
    /// # Panics
    /// Panics unless `opened` holds one opening per pair of that round.
    pub fn push(&mut self, opened: &[u64]) {
        assert_eq!(opened.len(), self.lam.len() - self.e.len(), "one opening per pair masked");
        self.e.extend_from_slice(opened);
        let round = &self.words[self.words.len().saturating_sub(opened.len())..];
        let words = opened.iter().zip(round);
        self.word_sum = words.fold(self.word_sum, |sum, (e, m)| sum.wrapping_add(e.wrapping_mul(*m)));
    }

    /// This server's Count-level share, added once per Count beside its
    /// passes' sums: its Count word plus `Σ_p e_p·⟨M_p⟩` over the
    /// table's pairs — S₁'s dealer words, or S₂'s installed offline words
    /// — and with dealer material on S₂ the negation of S₁'s (S₂'s pass
    /// telescopes against S₁'s share). A preprocessed table whose offline
    /// phase has not run adds nothing.
    pub fn count_term(&self) -> u64 {
        let own = self.count_word.wrapping_add(self.word_sum);
        if self.server == ServerId::S2 && !self.preprocessed {
            own.wrapping_neg()
        } else {
            own
        }
    }
}

/// The columns [`mask_round`] writes for a round of pairs: the
/// maskings, the mask shares the table keeps and, with dealer material,
/// the full masks (S₂) and S₁'s pair words.
struct MaskColumns<'a> {
    out: &'a mut [u64],
    lam: &'a mut [u64],
    full: &'a mut [u64],
    words: &'a mut [u64],
}

/// `N` lanes from `lane0` of the pair maskings [`mask_round`] writes for
/// S₁ or, `S2`, for S₂, and the table columns beside them. S₁ reads no
/// bit.
#[inline(always)]
fn pair_mask_lanes<const S2: bool, const DEALER: bool, const N: usize>(
    seed: u64,
    keys: &[u64],
    bits: &[u64],
    cols: &mut MaskColumns,
    lane0: usize,
) {
    let k = U64xN::<N>::load(&keys[lane0..]);
    let own = mask_lanes(seed, usize::from(S2), k);
    let masked = if S2 {
        U64xN::load(&bits[lane0..]) - prf_keyed(seed, k) - own
    } else {
        prf_keyed(seed, k) - own
    };
    masked.store(&mut cols.out[lane0..]);
    if S2 && DEALER {
        let peer = mask_lanes(seed, 0, k);
        peer.store(&mut cols.lam[lane0..]);
        (peer + own).store(&mut cols.full[lane0..]);
    } else {
        own.store(&mut cols.lam[lane0..]);
    }
    if DEALER {
        prf_keyed(seed ^ PAIR_WORD_TWEAK, k).store(&mut cols.words[lane0..]);
    }
}

/// [`mask_body`] for one server and material source.
#[inline(always)]
fn mask_pass<const S2: bool, const DEALER: bool>(
    seed: u64,
    keys: &[u64],
    bits: &[u64],
    cols: &mut MaskColumns,
) {
    let full = keys.len() / LANES * LANES;
    for b in Blocks::below(full / LANES) {
        pair_mask_lanes::<S2, DEALER, LANES>(seed, keys, bits, cols, b * LANES);
    }
    for t in full..keys.len() {
        pair_mask_lanes::<S2, DEALER, 1>(seed, keys, bits, cols, t);
    }
}

/// The numbers of a pass's full blocks of [`LANES`], in the order
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
    /// Block numbers below `blocks`.
    #[inline(always)]
    fn below(blocks: usize) -> Self {
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
                return Some(k);
            }
        }
    }
}

/// [`mask_round`]'s body, compiled once per ISA tier.
#[inline(always)]
fn mask_body(seed: u64, kind: (ServerId, bool), keys: &[u64], bits: &[u64], mut cols: MaskColumns) {
    match kind {
        (ServerId::S1, _) => mask_pass::<false, true>(seed, keys, bits, &mut cols),
        (ServerId::S2, false) => mask_pass::<true, true>(seed, keys, bits, &mut cols),
        (ServerId::S2, true) => mask_pass::<true, false>(seed, keys, bits, &mut cols),
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mask_avx512(seed: u64, kind: (ServerId, bool), keys: &[u64], bits: &[u64], cols: MaskColumns) {
    mask_body(seed, kind, keys, bits, cols)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask_avx2(seed: u64, kind: (ServerId, bool), keys: &[u64], bits: &[u64], cols: MaskColumns) {
    mask_body(seed, kind, keys, bits, cols)
}

/// Masks a round of pairs for `table`'s owner, lane-parallel, from the
/// pairs' [`pair_key`]s: the server's masking `⟨e⟩ᵢ = ⟨a⟩ᵢ − λ⁽ⁱ⁾` into
/// `out` — S₁'s input share is [`share_prf`](crate::share_prf), S₂'s the
/// plaintext bit less it — and, into `table`, the round's mask shares
/// its pass reads and, on S₁ or with dealer material, S₁'s pair words
/// ([`PairDealer::pair_word`]); [`PairTable::push`] then appends the
/// round's openings. `bits` holds the pairs' plaintext bits on S₂; S₁
/// reads none (pass an empty slice). Bit-identical to the scalar PRFs at
/// every [`SimdTier`].
///
/// A round masked but not yet pushed is replaced.
///
/// # Panics
/// Panics if `out` (or, where read, `bits`) is not `keys.len()` long.
pub fn mask_round(table: &mut PairTable, keys: &[u64], bits: &[u64], out: &mut [u64]) {
    let (seed, server, tier) = (table.seed, table.server, table.tier);
    assert_eq!(out.len(), keys.len(), "one masking per pair");
    if server == ServerId::S2 {
        assert_eq!(bits.len(), keys.len(), "one plaintext bit per pair");
    }
    let (at, dealer) = (table.e.len(), !table.preprocessed);
    table.lam.resize(at + keys.len(), 0);
    if dealer && server == ServerId::S2 {
        table.full.resize(at + keys.len(), 0);
    }
    let words_at = if table.keeps_words() { at } else { 0 };
    let words = if dealer || server == ServerId::S1 { keys.len() } else { 0 };
    table.words.resize(words_at + words, 0);
    let full_at = at.min(table.full.len());
    let cols = MaskColumns {
        out,
        lam: &mut table.lam[at..],
        full: &mut table.full[full_at..],
        words: &mut table.words[words_at..],
    };
    let kind = (server, table.preprocessed);
    match tier {
        // SAFETY: the table's tier is supported (`at_tier` checks it).
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { mask_avx512(seed, kind, keys, bits, cols) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { mask_avx2(seed, kind, keys, bits, cols) },
        _ => mask_body(seed, kind, keys, bits, cols),
    }
}

/// One `k`-run of a chunk's plan as [`weighted_pass`] reads it: the
/// triples `(i, j, k₀ + t)` for `t < len`, whose pairs `(i, k₀ + t)` and
/// `(j, k₀ + t)` are consecutive slots of the pair table, because a
/// run's `k`s are consecutive and every pair of the run is in the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRun {
    /// The table slots of `(i, j)` and of the run's first `(i, k₀)` and
    /// `(j, k₀)`.
    pub slots: [usize; 3],
    /// Triples in the run.
    pub len: usize,
    /// The position of the run's first triple in the chunk's plan order:
    /// where its signs start.
    pub at: usize,
}

// The weighted pass below is written like the mask pass above —
// generic over the lane count, so a run's scalar tail (at most
// `LANES − 1` triples) runs the vector loop's formula — and also
// generic over the server's shape and the signs. Every
// step is an `#[inline(always)]` function, never a closure with more
// than a line of body: a tier's wrapper vectorises only what is
// inlined into it, and LLVM may leave a large closure out-of-line (and
// scalar).

/// The slices one server's pass reads: its table's columns and the
/// plan's sign masks (signed passes only).
#[derive(Clone, Copy)]
struct PassColumns<'a> {
    e: &'a [u64],
    lam: &'a [u64],
    full: &'a [u64],
    signs: &'a [u64],
}

/// One run's words, from its first triple on and cut at its length —
/// as `u64`s, or as blocks of [`LANES`] for the vector loop: the
/// `(i, k)` row's openings `f` and mask shares `y`, the `(j, k)` row's
/// `g` and `z`, on a dealer S₂ table the two rows' full masks `bl` and
/// `cl`, and the run's sign masks `m`. Columns a pass does not read are
/// empty.
#[derive(Clone, Copy)]
struct RunRows<'a, T> {
    f: &'a [T],
    g: &'a [T],
    y: &'a [T],
    z: &'a [T],
    bl: &'a [T],
    cl: &'a [T],
    m: &'a [T],
}

/// `N` triples' words of a run ([`RunRows`]), the columns a pass does
/// not read zero.
#[derive(Clone, Copy)]
struct Lanes<const N: usize> {
    f: U64xN<N>,
    g: U64xN<N>,
    y: U64xN<N>,
    z: U64xN<N>,
    bl: U64xN<N>,
    cl: U64xN<N>,
    m: U64xN<N>,
}

impl<'a> RunRows<'a, u64> {
    /// `run`'s rows of `c`: the columns a pass of this kind reads.
    #[inline(always)]
    fn of<const SIGNED: bool, const S2_DEALER: bool>(c: &PassColumns<'a>, run: &PairRun) -> Self {
        let [_, ik, jk] = run.slots;
        let (len, at) = (run.len, run.at);
        let cut = |column: &'a [u64], from: usize, used: bool| -> &'a [u64] {
            if used {
                &column[from..from + len]
            } else {
                &[]
            }
        };
        RunRows {
            f: cut(c.e, ik, true),
            g: cut(c.e, jk, true),
            y: cut(c.lam, ik, true),
            z: cut(c.lam, jk, true),
            bl: cut(c.full, ik, S2_DEALER),
            cl: cut(c.full, jk, S2_DEALER),
            m: cut(c.signs, at, SIGNED),
        }
    }

    /// The rows' full blocks of [`LANES`].
    #[inline(always)]
    fn blocks(&self) -> RunRows<'a, [u64; LANES]> {
        let blocks = |column: &'a [u64]| column.as_chunks::<LANES>().0;
        RunRows {
            f: blocks(self.f),
            g: blocks(self.g),
            y: blocks(self.y),
            z: blocks(self.z),
            bl: blocks(self.bl),
            cl: blocks(self.cl),
            m: blocks(self.m),
        }
    }

    /// Triple `t`'s words, for the scalar tail.
    #[inline(always)]
    fn lane<const SIGNED: bool, const S2_DEALER: bool>(&self, t: usize) -> Lanes<1> {
        let word = |column: &[u64], used: bool| U64xN([if used { column[t] } else { 0 }]);
        Lanes {
            f: word(self.f, true),
            g: word(self.g, true),
            y: word(self.y, true),
            z: word(self.z, true),
            bl: word(self.bl, S2_DEALER),
            cl: word(self.cl, S2_DEALER),
            m: word(self.m, SIGNED),
        }
    }
}

impl RunRows<'_, [u64; LANES]> {
    /// Block `b`'s words.
    #[inline(always)]
    fn lanes<const SIGNED: bool, const S2_DEALER: bool>(&self, b: usize) -> Lanes<LANES> {
        let block = |column: &[[u64; LANES]], used: bool| U64xN(if used { column[b] } else { [0; LANES] });
        Lanes {
            f: block(self.f, true),
            g: block(self.g, true),
            y: block(self.y, true),
            z: block(self.z, true),
            bl: block(self.bl, S2_DEALER),
            cl: block(self.cl, S2_DEALER),
            m: block(self.m, SIGNED),
        }
    }

    /// Block `b`'s words of a tile's run whose `(j, k)` row is
    /// `shared`'s: its own `(i, k)` row's words and signs, beside the
    /// shared row's `g`, `z` and `cl` as `shared` loaded them.
    #[inline(always)]
    fn beside<const SIGNED: bool, const S2_DEALER: bool>(&self, b: usize, shared: &Lanes<LANES>) -> Lanes<LANES> {
        let block = |column: &[[u64; LANES]], used: bool| U64xN(if used { column[b] } else { [0; LANES] });
        Lanes {
            f: block(self.f, true),
            y: block(self.y, true),
            bl: block(self.bl, S2_DEALER),
            m: block(self.m, SIGNED),
            ..*shared
        }
    }
}

/// `(v ^ m) − m`: `v` where the sign mask `m` is `0` and `−v` where it
/// is `!0`. An unsigned pass is compiled with `SIGNED = false`, so it
/// reads no sign and runs exactly the unsigned code.
#[inline(always)]
fn signed<const SIGNED: bool, const N: usize>(m: U64xN<N>, v: U64xN<N>) -> U64xN<N> {
    if SIGNED {
        (v ^ m) - m
    } else {
        v
    }
}

/// A run's accumulators: `Σ s·f·g`, `Σ s·(⟨y⟩·g + f·⟨z⟩)` and S₂'s
/// telescoped `Σ s·(λ_ik + f)(λ_jk + g)` with dealer material.
type RunSums<const N: usize> = [U64xN<N>; 3];

/// How a tier's pass adds a product of `N` lanes by `N` lanes into a
/// sum: `sum + a·b`.
trait LaneMul<const N: usize> {
    fn mul_add(sum: U64xN<N>, a: U64xN<N>, b: U64xN<N>) -> U64xN<N>;
}

/// [`U64xN`]'s own `*` and `+`, as LLVM compiles them at the wrapper's
/// ISA.
struct Plain;

impl<const N: usize> LaneMul<N> for Plain {
    #[inline(always)]
    fn mul_add(sum: U64xN<N>, a: U64xN<N>, b: U64xN<N>) -> U64xN<N> {
        sum + a * b
    }
}

/// AVX-512's lane product with its destination zeroed first, added into
/// a sum held in a vector register ([`mul_add_zeroed`]).
#[cfg(target_arch = "x86_64")]
struct Zeroed;

#[cfg(target_arch = "x86_64")]
impl LaneMul<LANES> for Zeroed {
    #[inline(always)]
    fn mul_add(sum: U64x8, a: U64x8, b: U64x8) -> U64x8 {
        // SAFETY: only `weighted_avx512` passes with `Zeroed`, and its
        // callers check the CPU runs AVX-512 first.
        unsafe { mul_add_zeroed(sum, a, b) }
    }
}

/// `sum + a·b` by a `vpmullq` into a register a `vpxorq` zeroes first.
/// On the reference Xeon `vpmullq` waits on the last write of its
/// destination register — a false dependency LLVM does not break at a
/// generic target, so a loop whose products land in a register an
/// earlier product wrote chains them: a loop of one `vpmullq` an
/// iteration ran at ≈ 8 ns an iteration plain and ≈ 1.5 ns with the
/// zeroing (DESIGN.md §8.1). The sum stays in a vector register, so a
/// tile's accumulators stay whole vectors.
///
/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
unsafe fn mul_add_zeroed(sum: U64x8, a: U64x8, b: U64x8) -> U64x8 {
    use std::arch::x86_64::__m512i;
    use std::mem::transmute;
    // SAFETY: both types are 64 bytes of plain data, every bit pattern
    // valid in either; the asm is register-only AVX-512 arithmetic,
    // which the caller vouches the CPU has, and `out` keeps the
    // product's register apart from the inputs, which the zeroing
    // would clobber.
    unsafe {
        let mut sum = transmute::<U64x8, __m512i>(sum);
        let (a, b) = (transmute::<U64x8, __m512i>(a), transmute::<U64x8, __m512i>(b));
        std::arch::asm!(
            "vpxorq {p}, {p}, {p}",
            "vpmullq {p}, {a}, {b}",
            "vpaddq {sum}, {sum}, {p}",
            sum = inout(zmm_reg) sum,
            p = out(zmm_reg) _,
            a = in(zmm_reg) a,
            b = in(zmm_reg) b,
            options(pure, nomem, nostack, preserves_flags),
        );
        transmute::<__m512i, U64x8>(sum)
    }
}

/// Adds `N` triples of a run into its sums. Signs negate the `(j, k)`
/// row's words, so every product with one is signed.
#[inline(always)]
fn accumulate<const SIGNED: bool, const S2_DEALER: bool, const N: usize, M: LaneMul<N>>(
    l: Lanes<N>,
    sums: &mut RunSums<N>,
) {
    let (f, g) = (l.f, signed::<SIGNED, N>(l.m, l.g));
    let (y, z) = (l.y, signed::<SIGNED, N>(l.m, l.z));
    sums[0] = M::mul_add(sums[0], f, g);
    sums[1] = M::mul_add(M::mul_add(sums[1], y, g), f, z);
    if S2_DEALER {
        let (b, c) = (f + l.bl, g + signed::<SIGNED, N>(l.m, l.cl));
        sums[2] = M::mul_add(sums[2], b, c);
    }
}

/// A run's share from its sums and the table's words of its pair
/// `(i, j)` — opening `e`, mask share `x` and, on a dealer S₂ table,
/// full mask `λ`: `x·Σfg + e·Σ(yg + fz)`, with `x + e` for `x` on S₂
/// with preprocessed material (its `efg`), and on S₂ with dealer
/// material `(λ + e)·Σbc` less S₁'s share.
#[inline(always)]
fn run_share<const S2_DEALER: bool, const EFG: bool, const N: usize>(
    [e, x, full]: [u64; 3],
    [fg, cross, bc]: RunSums<N>,
) -> U64xN<N> {
    let x = if EFG { x.wrapping_add(e) } else { x };
    let share = U64xN::splat(x) * fg + U64xN::splat(e) * cross;
    if S2_DEALER {
        U64xN::splat(full.wrapping_add(e)) * bc - share
    } else {
        share
    }
}

/// A pass's running total: its runs' vector shares and their scalar
/// tails' shares.
type PassTotal = (U64x8, U64xN<1>);

/// Adds a tile of `T` runs that share their `(j, k)` row — equal
/// `slots[2]` and `len` — into `total`: per full block of [`LANES`],
/// the shared row's words are loaded once, beside each run's own
/// ([`RunRows::beside`]), and each run keeps its own sums, folded
/// through [`run_share`] with its own pair words; then each run's tail
/// into scalar sums, multiplied [`Plain`]ly. A tile of one is a run on
/// its own.
#[inline(always)]
fn tile_pass<const SIGNED: bool, const S2_DEALER: bool, const EFG: bool, const T: usize, M: LaneMul<LANES>>(
    c: &PassColumns,
    tile: &[PairRun; T],
    total: &mut PassTotal,
) {
    // The runs' lengths are equal: every run's rows are cut at the
    // first's, so a block or tail index of the first's is one of
    // every run's. The arrays are filled by counted loops, not by
    // closures a tier's wrapper might leave out of line.
    let len = tile[0].len;
    let mut rows = [RunRows::of::<SIGNED, S2_DEALER>(c, &tile[0]); T];
    for t in 1..T {
        rows[t] = RunRows::of::<SIGNED, S2_DEALER>(c, &PairRun { len, ..tile[t] });
    }
    let mut blocks = [rows[0].blocks(); T];
    let mut pair_ij = [[0; 3]; T];
    for t in 0..T {
        blocks[t] = rows[t].blocks();
        let ij = tile[t].slots[0];
        pair_ij[t] = [c.e[ij], c.lam[ij], if S2_DEALER { c.full[ij] } else { 0 }];
    }
    let count = blocks[0].f.len();
    if count > 0 {
        let mut sums = [[U64x8::ZERO; 3]; T];
        for b in Blocks::below(count) {
            let shared = blocks[0].lanes::<SIGNED, S2_DEALER>(b);
            accumulate::<SIGNED, S2_DEALER, LANES, M>(shared, &mut sums[0]);
            for t in 1..T {
                let lanes = blocks[t].beside::<SIGNED, S2_DEALER>(b, &shared);
                accumulate::<SIGNED, S2_DEALER, LANES, M>(lanes, &mut sums[t]);
            }
        }
        for t in 0..T {
            total.0 = total.0 + run_share::<S2_DEALER, EFG, LANES>(pair_ij[t], sums[t]);
        }
    }
    let full = count * LANES;
    if full < len {
        for t in 0..T {
            let mut sums = [U64xN::<1>::ZERO; 3];
            for k in full..len {
                accumulate::<SIGNED, S2_DEALER, 1, Plain>(rows[t].lane::<SIGNED, S2_DEALER>(k), &mut sums);
            }
            total.1 = total.1 + run_share::<S2_DEALER, EFG, 1>(pair_ij[t], sums);
        }
    }
}

/// [`weighted_pass`]'s pass for one server shape and sign mode, in
/// tiles of up to `R` runs ([`tile_pass`]): `R` consecutive runs that
/// share their `(j, k)` row make a tile, any other run passes on its
/// own. Passes of one-run tiles, signed passes and passes whose runs
/// average under a block of [`LANES`] pass every run on its own, with
/// no look for a tile.
#[inline(always)]
fn weighted_runs<const SIGNED: bool, const S2_DEALER: bool, const EFG: bool, const R: usize, M: LaneMul<LANES>>(
    c: &PassColumns,
    runs: &[PairRun],
) -> u64 {
    let mut total = (U64x8::ZERO, U64xN::<1>::ZERO);
    let tiled = R > 1 && !SIGNED && runs.iter().map(|run| run.len).sum::<usize>() >= LANES * runs.len();
    if !tiled {
        for run in runs {
            tile_pass::<SIGNED, S2_DEALER, EFG, 1, M>(c, std::array::from_ref(run), &mut total);
        }
    } else {
        let mut rest = runs;
        while let Some(first) = rest.first() {
            let shares_row = |run: &PairRun| (run.slots[2], run.len) == (first.slots[2], first.len);
            match rest.first_chunk::<R>() {
                Some(tile) if tile.iter().all(shares_row) => {
                    tile_pass::<SIGNED, S2_DEALER, EFG, R, M>(c, tile, &mut total);
                    rest = &rest[R..];
                }
                _ => {
                    tile_pass::<SIGNED, S2_DEALER, EFG, 1, M>(c, std::array::from_ref(first), &mut total);
                    rest = &rest[1..];
                }
            }
        }
    }
    total.0.hsum().wrapping_add(total.1 .0[0])
}

/// [`weighted_pass`]'s body, compiled once per ISA tier in tiles of up
/// to `R` runs, multiplying by `M`: `kind` is the table's owner and
/// material source, and whether the plan is signed.
#[inline(always)]
fn weighted_body<const R: usize, M: LaneMul<LANES>>(c: &PassColumns, runs: &[PairRun], kind: (ServerId, bool, bool)) -> u64 {
    match kind {
        (ServerId::S1, _, false) => weighted_runs::<false, false, false, R, M>(c, runs),
        (ServerId::S1, _, true) => weighted_runs::<true, false, false, R, M>(c, runs),
        (ServerId::S2, false, false) => weighted_runs::<false, true, false, R, M>(c, runs),
        (ServerId::S2, true, false) => weighted_runs::<false, false, true, R, M>(c, runs),
        (ServerId::S2, false, true) => weighted_runs::<true, true, false, R, M>(c, runs),
        (ServerId::S2, true, true) => weighted_runs::<true, false, true, R, M>(c, runs),
    }
}

/// The runs an AVX-512 pass tiles ([`tile_pass`]): four runs' sums — up
/// to twelve accumulators on a dealer S₂ — beside the shared row's
/// words and each run's own fit the 32 vector registers; tiles of 2, 6
/// and 8 runs measured within the box's spread of it (DESIGN.md §8.1).
/// The AVX2 and portable passes keep one run a tile: their sixteen
/// registers hold no more.
const AVX512_TILE: usize = 4;

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn weighted_avx512(c: &PassColumns, runs: &[PairRun], kind: (ServerId, bool, bool)) -> u64 {
    weighted_body::<AVX512_TILE, Zeroed>(c, runs, kind)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weighted_avx2(c: &PassColumns, runs: &[PairRun], kind: (ServerId, bool, bool)) -> u64 {
    weighted_body::<1, Plain>(c, runs, kind)
}

/// One server's local sum over a chunk's `k`-runs, in one weighted pass
/// over its opened [`PairTable`]: returns its share of `Σₜ sₜ·dₜ` over
/// the runs' triples `t`, less the Count-level terms
/// ([`PairTable::count_term`]). `signs` are the plan's sign masks (`0`
/// adds a triple, `!0` subtracts it) in plan order ([`PairRun::at`]).
///
/// The masks are keyed by pair, so the sum regroups exactly by pair:
/// `Σ⟨w⟩ + Σ_p e_p·⟨M_p⟩ + Σ_p ⟨λ_p⟩·W_p (+ Σ efg on S₂)`, where `W_p`
/// is the sign-weighted sum, over the triples that read pair `p`, of the
/// other two pairs' openings' product and `M_p` the same over their
/// masks. Per run of outer pair `(i, j)` that is a few dot products of
/// the table's row slices `e_i·, e_j·, λ_i·, λ_j·` — contiguous loads
/// only — weighted by the words of `(i, j)`. `M_p` and `Σ w` are
/// [`PairTable::count_term`]'s, whichever the material source, and the
/// pass holds the rest.
///
/// Consecutive runs with equal `slots[2]` and `len` share their `(j, k)`
/// row slice — on the cube, a row block's runs `(i, j, j+1..n)`, which
/// the Count lists side by side. An unsigned AVX-512 pass whose runs
/// average a block of [`LANES`] sums up to four such runs as one
/// register tile: each block of the shared row is loaded once, beside
/// each run's own `(i, k)` row, and each run keeps its own sums. The
/// AVX2 and portable passes, signed passes and short runs go run by run.
/// The sums are wrapping additions, so neither the tile nor the order of
/// the runs moves a bit.
///
/// ```
/// use cargo_mpc::{mask_round, pair_key, weighted_pass, PairRun, PairTable, ServerId};
/// // Triples (0, 1, k) for k = 2, 3, 4, every adjacency bit 1. Their
/// // pairs, in order: (0, 1); (0, 2), (0, 3), (0, 4); (1, 2), (1, 3), (1, 4).
/// let pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)];
/// let keys: Vec<u64> = pairs.iter().map(|&(i, j)| pair_key(i, j)).collect();
/// let bits = vec![1; pairs.len()];
/// // Each server masks every pair once; the sums are the openings.
/// let mut tables = [ServerId::S1, ServerId::S2].map(|s| PairTable::new(7, s, false));
/// let mut slabs = [vec![0; 7], vec![0; 7]];
/// for (table, slab) in tables.iter_mut().zip(&mut slabs) {
///     mask_round(table, &keys, &bits, slab);
/// }
/// let opened: Vec<u64> = slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
/// let run = [PairRun { slots: [0, 1, 4], len: 3, at: 0 }];
/// let d: Vec<u64> = tables
///     .iter_mut()
///     .map(|table| {
///         table.push(&opened);
///         weighted_pass(table, &run, None).wrapping_add(table.count_term())
///     })
///     .collect();
/// assert_eq!(d[0].wrapping_add(d[1]), 3);
/// ```
///
/// # Panics
/// Panics if a run leaves the table or the signs.
pub fn weighted_pass(table: &PairTable, runs: &[PairRun], signs: Option<&[u64]>) -> u64 {
    let triples = runs.iter().map(|run| run.at + run.len).max().unwrap_or(0);
    if let Some(signs) = signs {
        assert!(signs.len() >= triples, "one sign mask per triple");
    }
    let c = PassColumns {
        e: &table.e,
        lam: &table.lam[..table.e.len()],
        full: &table.full[..table.full.len().min(table.e.len())],
        signs: signs.unwrap_or_default(),
    };
    let kind = (table.server, table.preprocessed, signs.is_some());
    match table.tier {
        // SAFETY: the table's tier is supported (`at_tier` checks it).
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { weighted_avx512(&c, runs, kind) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { weighted_avx2(&c, runs, kind) },
        _ => weighted_body::<1, Plain>(&c, runs, kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pair_key_names_its_pair() {
        for (i, j) in [(0, 1), (3, 70), (131, 139), (70_000, 1_000_000), (u32::MAX - 2, u32::MAX - 1)] {
            assert_eq!(key_pair(pair_key(i, j)), (i, j));
            assert_eq!(pair_key(i, j + 1), pair_key(i, j).wrapping_add(PAIR_KEY_STEP));
        }
    }
    use crate::dealer::{split_mg_words, Dealer, GROUP_WORDS};
    use crate::offline::{pair_offline_in_process, push_triples, MgDraw, SlotTriple};
    use crate::prg::SplitMix64;
    use crate::share::{mask_prf, reconstruct, share_prf, share_with};
    use proptest::prelude::*;

    /// `draw`'s pair stream, sought to the draw's first group.
    fn draw_stream(seed: u64, draw: &MgDraw) -> PairDealer {
        let mut dealer = PairDealer::for_pair(seed, draw.i, draw.j);
        dealer.skip_groups(draw.start as usize);
        dealer
    }

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

    /// Random `k`-runs — lengths around the lane width and a full batch,
    /// at random canonical offsets of their pairs' streams — over a pair
    /// table laid out run by run: pair `(i, j)`, then the run's `(i, k)`,
    /// then its `(j, k)`, each holding an arbitrary ring value as its
    /// "bit"; each triple with a random public sign.
    struct Runs {
        seed: u64,
        draws: Vec<MgDraw>,
        pairs: Vec<(u32, u32)>,
        bits: Vec<u64>,
        runs: Vec<PairRun>,
        negate: Vec<u64>,
    }

    impl Runs {
        fn new(seed: u64, mix: u64, count: usize) -> Self {
            let mut rng = SplitMix64::new(mix);
            let mut below = |bound: u64| rng.next_u64() % bound;
            let lens = [1u32, 3, 7, 8, 9, 64, 1024];
            let (mut draws, mut pairs, mut runs) = (Vec::new(), Vec::new(), Vec::new());
            let mut at = 0;
            for _ in 0..count {
                let len = lens[below(lens.len() as u64) as usize];
                let i = below(1 << 20) as u32;
                let j = i + 1 + below(1 << 20) as u32;
                let draw = MgDraw { i, j, start: below(1 << 10) as u32, groups: len };
                let k0 = draw.k_at(0) as u32;
                let slot = pairs.len();
                runs.push(PairRun { slots: [slot, slot + 1, slot + 1 + len as usize], len: len as usize, at });
                pairs.push((i, j));
                pairs.extend((0..len).map(|t| (i, k0 + t)));
                pairs.extend((0..len).map(|t| (j, k0 + t)));
                draws.push(draw);
                at += len as usize;
            }
            Self::valued(seed, mix, draws, pairs, runs)
        }

        /// Stretches of 1–9 runs that share their `(j, k)` row — one
        /// `j`, one first `k` and one length of 0–40 — each run with its
        /// own `(i, j)` and `(i, k)` rows, as the Count's blocked order
        /// lists a row block's runs: the tiles of an AVX-512 pass, and
        /// lone runs where a stretch is one run. No draws.
        fn stretches(seed: u64, mix: u64, count: usize) -> Self {
            let mut rng = SplitMix64::new(mix);
            let mut below = |bound: u64| rng.next_u64() % bound;
            let (mut pairs, mut runs, mut at) = (Vec::new(), Vec::new(), 0);
            for _ in 0..count {
                let (stretch, len) = (1 + below(9), below(41) as u32);
                let j = (1 << 20) + below(1 << 20) as u32;
                let k0 = j + 1 + below(1 << 10) as u32;
                let shared = pairs.len();
                pairs.extend((0..len).map(|t| (j, k0 + t)));
                for _ in 0..stretch {
                    let i = below(1 << 20) as u32;
                    let slot = pairs.len();
                    runs.push(PairRun { slots: [slot, slot + 1, shared], len: len as usize, at });
                    pairs.push((i, j));
                    pairs.extend((0..len).map(|t| (i, k0 + t)));
                    at += len as usize;
                }
            }
            Self::valued(seed, mix, Vec::new(), pairs, runs)
        }

        /// The runs over `pairs` with an arbitrary ring value as each
        /// pair's "bit" and a random public sign for each triple.
        fn valued(seed: u64, mix: u64, draws: Vec<MgDraw>, pairs: Vec<(u32, u32)>, runs: Vec<PairRun>) -> Self {
            let mut values = SplitMix64::new(seed ^ mix);
            let bits = pairs.iter().map(|_| values.next_u64()).collect();
            let triples = runs.iter().map(|run| run.len).sum();
            let negate = (0..triples).map(|_| 0u64.wrapping_sub(values.next_u64() & 1)).collect();
            Runs { seed, draws, pairs, bits, runs, negate }
        }

        fn keys(&self) -> Vec<u64> {
            self.pairs.iter().map(|&(i, j)| pair_key(i, j)).collect()
        }

        /// Each triple's pair slots, in plan order.
        fn triples(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
            self.runs.iter().flat_map(|r| (0..r.len).map(move |t| [r.slots[0], r.slots[1] + t, r.slots[2] + t]))
        }

        /// Each server's groups of the triples, in plan order, from the
        /// pairs' streams at the triples' canonical positions.
        fn groups(&self) -> [Vec<MulGroupShare>; 2] {
            let mut columns = [Vec::new(), Vec::new()];
            for draw in &self.draws {
                let mut dealer = draw_stream(self.seed, draw);
                for _ in 0..draw.groups {
                    let (g1, g2) = dealer.next_group_pair();
                    columns[0].push(g1);
                    columns[1].push(g2);
                }
            }
            columns
        }

        fn lambda(&self, slot: usize, server: ServerId) -> Ring64 {
            let (i, j) = self.pairs[slot];
            Ring64(mask_prf(self.seed, server, i, j))
        }

        /// The scalar oracle: each server's share of `Σ sₜ·dₜ` by the
        /// naive triple loop, without the Count terms: S₁'s
        /// `x₁·fg + y₁·eg + z₁·ef`; with preprocessed material S₂'s
        /// `x₂·fg + y₂·eg + z₂·ef + efg`, with dealer material
        /// `(x + e)(y + f)(z + g)` less S₁'s.
        fn oracle(&self, preprocessed: bool, signs: bool) -> [u64; 2] {
            let (mut d1, mut d2) = (Ring64::ZERO, Ring64::ZERO);
            for (t, slots) in self.triples().enumerate() {
                let masks = slots.map(|s| [ServerId::S1, ServerId::S2].map(|server| self.lambda(s, server)));
                let [e, f, g] = [0, 1, 2].map(|r| Ring64(self.bits[slots[r]]) - masks[r][0] - masks[r][1]);
                let [[x1, x2], [y1, y2], [z1, z2]] = masks;
                let s1 = x1 * f * g + y1 * e * g + z1 * e * f;
                let (u1, u2) = if preprocessed {
                    (s1, x2 * f * g + y2 * e * g + z2 * e * f + e * f * g)
                } else {
                    (s1, (x1 + x2 + e) * (y1 + y2 + f) * (z1 + z2 + g) - s1)
                };
                let minus = signs && self.negate[t] != 0;
                d1 += if minus { -u1 } else { u1 };
                d2 += if minus { -u2 } else { u2 };
            }
            [d1.0, d2.0]
        }

        /// The Count-level terms both servers' words share:
        /// `Σ sₜ·(λλλ + λλ·g + λλ·f + λλ·e)` over the full masks.
        fn count_terms(&self, signs: bool) -> u64 {
            let mut sum = Ring64::ZERO;
            for (t, slots) in self.triples().enumerate() {
                let full = slots.map(|s| self.lambda(s, ServerId::S1) + self.lambda(s, ServerId::S2));
                let [e, f, g] = [0, 1, 2].map(|r| Ring64(self.bits[slots[r]]) - full[r]);
                let [x, y, z] = full;
                let term = x * y * z + x * y * g + x * z * f + y * z * e;
                sum += if signs && self.negate[t] != 0 { -term } else { term };
            }
            sum.0
        }

        /// The plan's triples as the offline phase reads them.
        fn slot_triples(&self, signs: bool) -> Vec<SlotTriple> {
            let mut triples = Vec::new();
            push_triples(&self.runs, signs.then_some(&self.negate[..]), &mut triples);
            triples
        }

        /// `Σ sₜ·aₜ·bₜ·cₜ` over the triples' "bits".
        fn product_sum(&self, signs: bool) -> u64 {
            let mut sum = Ring64::ZERO;
            for (t, [ij, ik, jk]) in self.triples().enumerate() {
                let abc = Ring64(self.bits[ij]) * Ring64(self.bits[ik]) * Ring64(self.bits[jk]);
                sum += if signs && self.negate[t] != 0 { -abc } else { abc };
            }
            sum.0
        }

        /// Both servers' tables at `tier` after the pair phase: each
        /// server's round masked, the slabs summed and pushed.
        fn tables(&self, tier: SimdTier, preprocessed: bool) -> [PairTable; 2] {
            let keys = self.keys();
            let mut tables = [ServerId::S1, ServerId::S2]
                .map(|s| PairTable::new(self.seed, s, preprocessed).at_tier(tier));
            let mut slabs = [vec![0; keys.len()], vec![0; keys.len()]];
            for (table, slab) in tables.iter_mut().zip(&mut slabs) {
                mask_round(table, &keys, &self.bits, slab);
            }
            let opened: Vec<u64> =
                slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
            tables.iter_mut().for_each(|table| table.push(&opened));
            tables
        }

        /// `table`'s pass over the runs, under the plan's signs or none.
        fn pass(&self, table: &PairTable, signs: bool) -> u64 {
            weighted_pass(table, &self.runs, signs.then_some(&self.negate[..]))
        }
    }

    #[test]
    fn both_wire_servers_combine_against_the_openings() {
        // An opening both servers receive wrong moves the wire Count:
        // S₂ combines its own shares against the openings, as S₁ does,
        // rather than taking a·b·c − ⟨d⟩₁ from the plaintext bits.
        let runs = Runs::new(3, 5, 2);
        let want = runs.product_sum(false);
        for preprocessed in [false, true] {
            let keys = runs.keys();
            let mut tables = [ServerId::S1, ServerId::S2].map(|s| PairTable::new(3, s, preprocessed));
            let mut slabs = [vec![0; keys.len()], vec![0; keys.len()]];
            for (table, slab) in tables.iter_mut().zip(&mut slabs) {
                mask_round(table, &keys, &runs.bits, slab);
            }
            let mut opened: Vec<u64> =
                slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
            opened[runs.runs[0].slots[0]] ^= 1;
            tables.iter_mut().for_each(|table| table.push(&opened));
            if preprocessed {
                pair_offline_in_process(&mut tables, &runs.slot_triples(false), |_, _| {});
            }
            let got = tables.each_ref().map(|table| runs.pass(table, false).wrapping_add(table.count_term()));
            assert_ne!(got[0].wrapping_add(got[1]), want, "preprocessed {preprocessed}");
        }
    }

    proptest! {
        #[test]
        fn batch_kernel_matches_protocol_objects(seed: u64, mix: u64, count in 1usize..6) {
            // The naive per-triple oracle, from either material source
            // and under signs or none, sums to Σ sₜ·a·b·c over arbitrary
            // ring values, not just bits: the dealer's Count terms are
            // ±the same word, so they cancel, and the preprocessed
            // material's are shares of the Count-level terms.
            let runs = Runs::new(seed, mix, count);
            for signs in [false, true] {
                let [d1, d2] = runs.oracle(false, signs);
                prop_assert_eq!(d1.wrapping_add(d2), runs.product_sum(signs));
                let [d1, d2] = runs.oracle(true, signs);
                let terms = runs.count_terms(signs);
                prop_assert_eq!(d1.wrapping_add(d2).wrapping_add(terms), runs.product_sum(signs));
            }
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
            let (d1, d2) = fused.count_block(a, &b, &c);
            let abc = (0..len).fold(0u64, |sum, t| sum.wrapping_add(a.wrapping_mul(b[t]).wrapping_mul(c[t])));
            prop_assert_eq!(d1.wrapping_add(d2), abc);
            let mut objects = PairDealer::for_pair(seed, 4, 9);
            objects.skip_groups(3 + len);
            prop_assert_eq!(fused.next_group_pair(), objects.next_group_pair());
        }

        #[test]
        fn mask_open_combine_batch_matches_mul3(seed: u64, len in 1usize..24) {
            // The wire parties' steps, driven like the runtime drives
            // them — each server masks every pair once, the slabs are
            // summed, each passes — against mul3 on the protocol objects
            // per triple: input shares from share_prf, groups from the
            // pair stream. The reconstruction is mul3's, and the
            // preprocessed material's shares are the dealer's.
            let draw = MgDraw::dense(2, 5, len as u32);
            let mut pairs = vec![(2, 5)];
            pairs.extend((0..len as u32).map(|t| (2, 6 + t)));
            pairs.extend((0..len as u32).map(|t| (5, 6 + t)));
            let keys: Vec<u64> = pairs.iter().map(|&(i, j)| pair_key(i, j)).collect();
            let mut rng = SplitMix64::new(seed ^ 0xD15C);
            let bits: Vec<u64> = pairs.iter().map(|_| rng.next_u64() & 1).collect();
            let share = |slot: usize| {
                let (i, j) = pairs[slot];
                let s1 = share_prf(seed, i, j);
                (Ring64(s1), Ring64(bits[slot].wrapping_sub(s1)))
            };
            let mut dealer = draw_stream(seed, &draw);
            let (mut r1, mut r2) = (Ring64::ZERO, Ring64::ZERO);
            let mut net = NetStats::new();
            for t in 0..len {
                let mg = dealer.next_group_pair();
                let (u1, u2) = mul3(share(0), share(1 + t), share(1 + len + t), mg, &mut net);
                r1 += u1;
                r2 += u2;
            }
            let run = [PairRun { slots: [0, 1, 1 + len], len, at: 0 }];
            let mut triples = Vec::new();
            push_triples(&run, None, &mut triples);
            let shares = [false, true].map(|preprocessed| {
                let mut tables = [ServerId::S1, ServerId::S2].map(|s| PairTable::new(seed, s, preprocessed));
                let mut slabs = [vec![0; keys.len()], vec![0; keys.len()]];
                for (table, slab) in tables.iter_mut().zip(&mut slabs) {
                    mask_round(table, &keys, &bits, slab);
                }
                let opened: Vec<u64> = slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
                tables.iter_mut().for_each(|table| table.push(&opened));
                if preprocessed {
                    pair_offline_in_process(&mut tables, &triples, |_, _| {});
                }
                tables.each_ref().map(|table| weighted_pass(table, &run, None).wrapping_add(table.count_term()))
            });
            prop_assert_eq!(shares[0][0].wrapping_add(shares[0][1]), (r1 + r2).0);
            prop_assert_eq!(shares[1], shares[0]);
        }

        #[test]
        fn per_party_kernels_match_split_words_at_every_tier(seed: u64, mix: u64, count in 1usize..8) {
            // Per tier and server, from the dealer and preprocessed: the
            // table the pair phase leaves — openings, the mask shares
            // and, on a dealer S₂, the full masks — and the weighted
            // pass, share for share against the naive triple loop. The
            // dealer's Count terms are S₁'s words, ±; a preprocessed
            // table's hold S₁'s pair words only until its offline phase
            // installs the rest. The stream groups are split_mg_words of
            // the pairs' mask shares and the stream words.
            let runs = Runs::new(seed, mix, count);
            let groups = runs.groups();
            let draw = runs.draws[0];
            let mut words = vec![0; GROUP_WORDS];
            draw_stream(seed, &draw).fill_words(&mut words);
            let k = draw.k_at(0) as u32;
            let masks = [(draw.i, draw.j), (draw.i, k), (draw.j, k)]
                .map(|(u, v)| [ServerId::S1, ServerId::S2].map(|s| mask_prf(seed, s, u, v)));
            prop_assert_eq!(split_mg_words(masks, &words), (groups[0][0], groups[1][0]));
            for tier in SimdTier::available() {
                for preprocessed in [false, true] {
                    let tables = runs.tables(tier, preprocessed);
                    for (s, table) in tables.iter().enumerate() {
                        let at = format!("{tier} {:?} preprocessed {preprocessed}", table.server);
                        let dealer_s2 = s == 1 && !preprocessed;
                        let mut word_sum = PairDealer::count_word(seed);
                        for (slot, &(i, j)) in runs.pairs.iter().enumerate() {
                            let [l1, l2] = [ServerId::S1, ServerId::S2].map(|s| mask_prf(seed, s, i, j));
                            let opened = runs.bits[slot].wrapping_sub(l1).wrapping_sub(l2);
                            prop_assert!(table.e[slot] == opened, "{at}: opening");
                            let lam = if s == 0 || dealer_s2 { l1 } else { l2 };
                            prop_assert!(table.lam[slot] == lam, "{at}: mask share");
                            if dealer_s2 {
                                prop_assert!(table.full[slot] == l1.wrapping_add(l2), "{at}: full mask");
                            }
                            let word = PairDealer::pair_word(seed, i, j);
                            word_sum = word_sum.wrapping_add(opened.wrapping_mul(word));
                        }
                        let term = match (preprocessed, s) {
                            (true, 0) => word_sum.wrapping_sub(PairDealer::count_word(seed)),
                            (true, _) => 0,
                            (false, 0) => word_sum,
                            (false, _) => word_sum.wrapping_neg(),
                        };
                        prop_assert!(table.count_term() == term, "{at}: count term");
                        let want = runs.oracle(preprocessed, false)[s];
                        prop_assert!(runs.pass(table, false) == want, "{at}: pass");
                    }
                }
            }
        }

        #[test]
        fn signed_rounds_match_the_scalar_reference_at_every_tier(
            seed: u64,
            mix: u64,
            count in 1usize..6,
        ) {
            // Runs whose triples carry random public signs: at every
            // tier, both servers' passes return the naive loop's
            // Σ sₜ·⟨d⟩ₜ, from the dealer and preprocessed; all-`+`
            // signs change no bit of the unsigned pass.
            let runs = Runs::new(seed, mix, count);
            let plus = vec![0u64; runs.negate.len()];
            for tier in SimdTier::available() {
                for preprocessed in [false, true] {
                    let want = runs.oracle(preprocessed, true);
                    let tables = runs.tables(tier, preprocessed);
                    for (s, table) in tables.iter().enumerate() {
                        let at = format!("{tier} {:?} preprocessed {preprocessed}", table.server);
                        prop_assert!(runs.pass(table, true) == want[s], "{at}: signed");
                        let all_plus = weighted_pass(table, &runs.runs, Some(&plus));
                        prop_assert!(all_plus == runs.pass(table, false), "{at}: all +");
                    }
                }
            }
        }

        #[test]
        fn tiled_stretches_match_the_scalar_reference_at_every_tier(seed: u64, mix: u64, count in 1usize..8) {
            // Stretches of runs that share their (j, k) row beside lone
            // runs: every tier's pass — AVX-512's in tiles where the
            // runs average a block, each other's run by run — returns
            // the naive loop's share for S₁, a dealer S₂ and a
            // preprocessed S₂, signed (never tiled) and unsigned.
            let runs = Runs::stretches(seed, mix, count);
            for tier in SimdTier::available() {
                for preprocessed in [false, true] {
                    let tables = runs.tables(tier, preprocessed);
                    for signs in [false, true] {
                        let want = runs.oracle(preprocessed, signs);
                        for (s, table) in tables.iter().enumerate() {
                            let at = format!("{tier} {:?} preprocessed {preprocessed} signs {signs}", table.server);
                            prop_assert!(runs.pass(table, signs) == want[s], "{at}");
                        }
                    }
                }
            }
        }

        #[test]
        fn masked_slabs_are_each_server_s_prfs_at_every_tier(seed: u64, mix: u64, count in 1usize..6) {
            // The slab a server sends is its input share less its mask
            // share, at every tier and from either material source.
            let runs = Runs::new(seed, mix, count);
            let keys = runs.keys();
            for tier in SimdTier::available() {
                for preprocessed in [false, true] {
                    for server in [ServerId::S1, ServerId::S2] {
                        let mut table = PairTable::new(seed, server, preprocessed).at_tier(tier);
                        let mut slab = vec![0; keys.len()];
                        mask_round(&mut table, &keys, &runs.bits, &mut slab);
                        for (slot, &(i, j)) in runs.pairs.iter().enumerate() {
                            let input = share_prf(seed, i, j);
                            let input = match server {
                                ServerId::S1 => input,
                                ServerId::S2 => runs.bits[slot].wrapping_sub(input),
                            };
                            let want = input.wrapping_sub(mask_prf(seed, server, i, j));
                            prop_assert!(slab[slot] == want, "{tier} {server:?}: mask");
                            if !preprocessed || server == ServerId::S1 {
                                let word = PairDealer::pair_word(seed, i, j);
                                prop_assert!(table.words[slot] == word, "{tier} {server:?}: pair word");
                            }
                        }
                    }
                }
            }
        }
    }
}
