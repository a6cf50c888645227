//! Streaming trusted dealer: the simulated offline phase.
//!
//! The paper precomputes Multiplication Groups via oblivious transfer
//! \[42, 43\] before the online protocol starts. Materialising the
//! `O(n³)` groups Algorithm 4 consumes would need terabytes at the
//! paper's scales, so — like production MPC systems that expand
//! correlated randomness from seeds — the dealer here *streams* groups
//! from a [`SplitMix64`] generator on demand. Each group is drawn
//! exactly as the offline phase would: masks `x, y, z` uniform in
//! `Z_{2^64}`, products formed, every value split into two additive
//! shares with fresh randomness.
//!
//! Security note: in the simulation the dealer knows the masks (as the
//! OT sender pair effectively does in the real preprocessing); the
//! *servers* never learn them, which is the property the semi-honest
//! argument (Definition 6 / [`crate::view`]) relies on.

use crate::beaver::BeaverShare;
use crate::prg::SplitMix64;
use crate::ring::Ring64;
use crate::share::{mask_prf, share_prf, share_with, SharePair};
use crate::simd::SimdTier;
use crate::triple_mul::{mask_round, pair_key, weighted_pass, MulGroupShare, PairRun, PairTable};
use crate::ServerId;

/// A trusted dealer producing correlated randomness for the two servers.
#[derive(Debug, Clone)]
pub struct Dealer {
    rng: SplitMix64,
}

impl Dealer {
    /// Creates a dealer from a seed.
    pub fn new(seed: u64) -> Self {
        Dealer {
            rng: SplitMix64::new(seed),
        }
    }

    /// Access to the dealer's RNG (tests and user-side sharing reuse it
    /// as a convenient deterministic randomness source).
    pub fn rng_mut(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Splits a value into the two servers' shares.
    #[inline]
    pub fn share(&mut self, v: Ring64) -> SharePair {
        share_with(v, &mut self.rng)
    }

    /// Draws one Beaver triple `(a, b, c = ab)` and shares it.
    pub fn beaver(&mut self) -> (BeaverShare, BeaverShare) {
        let a = self.rng.next_ring();
        let b = self.rng.next_ring();
        let c = a * b;
        let pa = self.share(a);
        let pb = self.share(b);
        let pc = self.share(c);
        (
            BeaverShare {
                a: pa.s1,
                b: pb.s1,
                c: pc.s1,
            },
            BeaverShare {
                a: pa.s2,
                b: pb.s2,
                c: pc.s2,
            },
        )
    }

    /// Draws one Multiplication Group
    /// `(x, y, z, w = xyz, o = xy, p = xz, q = yz)` and shares all seven
    /// values (Algorithm 4 line 5).
    #[inline]
    pub fn mul_group(&mut self) -> (MulGroupShare, MulGroupShare) {
        let x = self.rng.next_ring();
        let y = self.rng.next_ring();
        let z = self.rng.next_ring();
        let o = x * y;
        let p = x * z;
        let q = y * z;
        let w = o * z;
        let px = self.share(x);
        let py = self.share(y);
        let pz = self.share(z);
        let pw = self.share(w);
        let po = self.share(o);
        let pp = self.share(p);
        let pq = self.share(q);
        (
            MulGroupShare {
                x: px.s1,
                y: py.s1,
                z: pz.s1,
                w: pw.s1,
                o: po.s1,
                p: pp.s1,
                q: pq.s1,
            },
            MulGroupShare {
                x: px.s2,
                y: py.s2,
                z: pz.s2,
                w: pw.s2,
                o: po.s2,
                p: pp.s2,
                q: pq.s2,
            },
        )
    }
}

/// Dealer words per Multiplication Group of a pair stream: S₁'s
/// product shares `o₁ p₁ q₁ w₁` of one triple. The masks are not stream
/// words — they are keyed by pair ([`crate::mask_prf`]) — and S₂'s
/// product shares are differences, not fresh draws ([`split_mg_words`]).
/// Only [`crate::mul3`]'s callers and the per-triple reference Count read
/// these streams. A Count's product shares are per pair and per Count,
/// in either offline mode ([`PairDealer::pair_word`],
/// [`PairDealer::count_word`]).
pub const GROUP_WORDS: usize = 4;

/// Pinned by the benchmark's trace probes, which size a dealer block
/// with it; it is [`GROUP_WORDS`].
#[doc(hidden)]
pub const MG_WORDS: usize = GROUP_WORDS;

/// Seed tweaks of S₁'s dealer words in a dealer-mode Count — per pair
/// and per Count — the third and fourth of SHA-512's initial hash words
/// (the two mask streams take the first two), so they are
/// domain-separated from the input shares and the masks.
pub(crate) const PAIR_WORD_TWEAK: u64 = 0x3C6E_F372_FE94_F82B;
const COUNT_WORD_TWEAK: u64 = 0xA54F_F53A_5F1D_36F1;

/// A dealer stream *split per outer `(i, j)` pair* of the Count phase.
///
/// The batched scheduler partitions the `(i, j)` pair space across
/// workers and chunks; keying the offline randomness by the pair
/// itself (rather than by worker or chunk) makes the servers' share
/// pairs bit-identical for **every** thread count and batch size — the
/// partition only decides *who* consumes a stream, never *what* the
/// stream contains. Group `k − j − 1` of pair `(i, j)`'s stream holds
/// the product words of triple `(i, j, k)`; its masks `x = λ_ij`,
/// `y = λ_ik`, `z = λ_jk` are the pairs' own ([`crate::mask_prf`]).
/// The per-triple reference Count draws these groups; a Count reads the
/// pair and Count words instead ([`Self::pair_word`],
/// [`Self::count_word`]), which the OT offline phase makes too.
#[derive(Debug, Clone)]
pub struct PairDealer {
    rng: SplitMix64,
    /// The Count seed and pair the stream is keyed by, and the stream
    /// words drawn so far: what [`Self::next_group_pair`] and
    /// [`Self::count_block`] need to name the triple of the next group.
    root: u64,
    pair: (u32, u32),
    words: u64,
}

impl PairDealer {
    /// Creates the stream for pair `(i, j)` under `root` (the Count
    /// phase's seed). Domain-separated from the input-share PRF.
    ///
    /// ```
    /// use cargo_mpc::{reconstruct, PairDealer};
    /// // Same (root, i, j) ⇒ same stream; the partition of the pair
    /// // space across workers never changes what a pair's stream holds.
    /// let (a1, a2) = PairDealer::for_pair(42, 3, 7).next_group_pair();
    /// let (b1, b2) = PairDealer::for_pair(42, 3, 7).next_group_pair();
    /// assert_eq!((a1, a2), (b1, b2));
    /// // And the group satisfies the MG relations, e.g. o = x·y:
    /// let (x, y) = (reconstruct(a1.x, a2.x), reconstruct(a1.y, a2.y));
    /// assert_eq!(reconstruct(a1.o, a2.o), x * y);
    /// ```
    pub fn for_pair(root: u64, i: u32, j: u32) -> Self {
        let pair = ((i as u64) << 32) | j as u64;
        let mut mixer =
            SplitMix64::new(root ^ pair.wrapping_mul(0xD1B54A32D192ED03) ^ 0x8CB92BA72F3D8DD7);
        PairDealer {
            rng: SplitMix64::new(mixer.next_u64()),
            root,
            pair: (i, j),
            words: 0,
        }
    }

    /// Block-expands the next `out.len()` raw dealer words (see
    /// [`GROUP_WORDS`] for the per-group layout) at the best
    /// [`SimdTier`] of this CPU ([`SplitMix64::fill_block_tier`]).
    /// Stream-equivalent to scalar draws at every tier.
    #[inline]
    pub fn fill_words(&mut self, out: &mut [u64]) {
        self.rng.fill_block_tier(SimdTier::detect(), out);
        self.words += out.len() as u64;
    }

    /// Advances the stream past `groups` Multiplication Groups without
    /// computing them — O(1) in `groups`, because SplitMix64 is a
    /// counter PRG: the group of triple `(i, j, k)` sits at its
    /// **canonical** stream position `k − j − 1` whichever `k`s before
    /// it are drawn.
    #[inline]
    pub fn skip_groups(&mut self, groups: usize) {
        self.rng.skip(GROUP_WORDS * groups);
        self.words += (GROUP_WORDS * groups) as u64;
    }

    /// The `k` of the triple whose group the stream draws next.
    fn next_k(&self) -> u32 {
        self.pair.1 + 1 + (self.words / GROUP_WORDS as u64) as u32
    }

    /// S₁'s dealer word of pair `(i, j)` in a dealer-mode Count under
    /// `root`: its share `⟨M_ij⟩₁` of the pair's aggregated mask product
    /// `M_ij`, the sign-weighted sum, over the plan's triples that read
    /// the pair, of their other two pairs' masks' product. One word a
    /// pair, where the per-triple streams hold four a triple: the
    /// Count's `o p q` terms all multiply the pair's opening `e_ij`, so
    /// they merge. S₂'s share `M_ij − ⟨M_ij⟩₁` is never formed — its pass
    /// telescopes against S₁'s ([`crate::PairTable`]). [`mask_round`]
    /// draws it lane-parallel beside the pair's mask shares.
    pub fn pair_word(root: u64, i: u32, j: u32) -> u64 {
        share_prf(root ^ PAIR_WORD_TWEAK, i, j)
    }

    /// S₁'s dealer word of a dealer-mode Count under `root`: its share
    /// of `Σₜ sₜ·λ_ij·λ_ik·λ_jk` over the plan's triples, the Count's
    /// one `w` word ([`crate::PairTable::count_term`]).
    pub fn count_word(root: u64) -> u64 {
        share_prf(root ^ COUNT_WORD_TWEAK, u32::MAX, u32::MAX)
    }

    /// Evaluates the next `L = b.len()` groups' triples `(i, j, k)`,
    /// both servers in turn, as a dealer-mode Count of the one `k`-run,
    /// and advances the stream past them: `a` is the first secret
    /// (`a_ij`), `b` and `c` the second and third per triple, each opened
    /// under its pair's mask. Returns the servers' shares
    /// `(⟨Σd⟩₁, ⟨Σd⟩₂)` — each its [`weighted_pass`] plus its Count
    /// term — whose sum is `Σ a·bₜ·cₜ`.
    ///
    /// Pinned by the benchmark's trace probes: it builds each server's
    /// pair table of its `2L + 1` pairs on every call, which the Count
    /// never does, before that server's pass.
    ///
    /// # Panics
    /// Panics if `b` and `c` differ in length.
    #[doc(hidden)]
    pub fn count_block(&mut self, a: u64, b: &[u64], c: &[u64]) -> (u64, u64) {
        assert_eq!(b.len(), c.len(), "b/c slab lengths");
        let ((i, j), k0, len) = (self.pair, self.next_k(), b.len());
        let mut keys = vec![pair_key(i, j)];
        keys.extend((0..len as u32).map(|t| pair_key(i, k0 + t)));
        keys.extend((0..len as u32).map(|t| pair_key(j, k0 + t)));
        let bits = [&[a][..], b, c].concat();
        let mut tables = [ServerId::S1, ServerId::S2].map(|s| PairTable::new(self.root, s, false));
        let slabs = tables.each_mut().map(|table| {
            let mut slab = vec![0; keys.len()];
            mask_round(table, &keys, &bits, &mut slab);
            slab
        });
        let opened: Vec<u64> = slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
        let run = [PairRun { slots: [0, 1, 1 + len], len, at: 0 }];
        let [d1, d2] = tables.each_mut().map(|table| {
            table.push(&opened);
            weighted_pass(table, &run, None).wrapping_add(table.count_term())
        });
        self.skip_groups(len);
        (d1, d2)
    }

    /// Draws the next Multiplication Group as the two servers' share
    /// structs: the pairs' mask shares ([`crate::mask_prf`]) and
    /// exactly [`GROUP_WORDS`] stream words, so a runtime driving share
    /// structs stays word-for-word aligned with a kernel reading the
    /// stream.
    pub fn next_group_pair(&mut self) -> (MulGroupShare, MulGroupShare) {
        let ((i, j), k) = (self.pair, self.next_k());
        let masks = [(i, j), (i, k), (j, k)]
            .map(|(u, v)| [ServerId::S1, ServerId::S2].map(|s| mask_prf(self.root, s, u, v)));
        let mut w = [0u64; GROUP_WORDS];
        self.fill_words(&mut w);
        split_mg_words(masks, &w)
    }
}

/// Assembles one Multiplication Group's two share structs from the
/// mask shares `[[x₁, x₂], [y₁, y₂], [z₁, z₂]]` of its three pairs and
/// its [`GROUP_WORDS`] stream words `o₁ p₁ q₁ w₁`: S₂'s product shares
/// are the products less S₁'s (shared by [`PairDealer`] and the offline
/// phase so the arithmetic lives in one place).
#[inline]
pub fn split_mg_words(masks: [[u64; 2]; 3], w: &[u64]) -> (MulGroupShare, MulGroupShare) {
    let &[o1, p1, q1, w1] = &w[..GROUP_WORDS] else {
        panic!("split_mg_words needs {GROUP_WORDS} words");
    };
    let [[x1, x2], [y1, y2], [z1, z2]] = masks;
    let (x, y, z) = (x1.wrapping_add(x2), y1.wrapping_add(y2), z1.wrapping_add(z2));
    let o = x.wrapping_mul(y);
    let p = x.wrapping_mul(z);
    let q = y.wrapping_mul(z);
    let wv = o.wrapping_mul(z);
    (
        MulGroupShare {
            x: Ring64(x1),
            y: Ring64(y1),
            z: Ring64(z1),
            w: Ring64(w1),
            o: Ring64(o1),
            p: Ring64(p1),
            q: Ring64(q1),
        },
        MulGroupShare {
            x: Ring64(x2),
            y: Ring64(y2),
            z: Ring64(z2),
            w: Ring64(wv.wrapping_sub(w1)),
            o: Ring64(o.wrapping_sub(o1)),
            p: Ring64(p.wrapping_sub(p1)),
            q: Ring64(q.wrapping_sub(q1)),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::reconstruct;

    #[test]
    fn beaver_triples_satisfy_c_eq_ab() {
        let mut d = Dealer::new(1);
        for _ in 0..64 {
            let (t1, t2) = d.beaver();
            let a = reconstruct(t1.a, t2.a);
            let b = reconstruct(t1.b, t2.b);
            let c = reconstruct(t1.c, t2.c);
            assert_eq!(c, a * b);
        }
    }

    #[test]
    fn mul_groups_satisfy_all_product_relations() {
        let mut d = Dealer::new(2);
        for _ in 0..64 {
            let (m1, m2) = d.mul_group();
            let x = reconstruct(m1.x, m2.x);
            let y = reconstruct(m1.y, m2.y);
            let z = reconstruct(m1.z, m2.z);
            assert_eq!(reconstruct(m1.o, m2.o), x * y, "o = xy");
            assert_eq!(reconstruct(m1.p, m2.p), x * z, "p = xz");
            assert_eq!(reconstruct(m1.q, m2.q), y * z, "q = yz");
            assert_eq!(reconstruct(m1.w, m2.w), x * y * z, "w = xyz");
        }
    }

    #[test]
    fn dealer_is_deterministic() {
        let mut a = Dealer::new(7);
        let mut b = Dealer::new(7);
        assert_eq!(a.mul_group(), b.mul_group());
        assert_eq!(a.beaver(), b.beaver());
    }

    #[test]
    fn pair_streams_are_independent_and_deterministic() {
        let mut a = PairDealer::for_pair(7, 1, 2);
        let mut b = PairDealer::for_pair(7, 1, 2);
        assert_eq!(a.next_group_pair(), b.next_group_pair());
        let mut c = PairDealer::for_pair(7, 2, 1);
        let mut d = PairDealer::for_pair(8, 1, 2);
        let (a1, _) = a.next_group_pair();
        assert_ne!(a1, c.next_group_pair().0, "pair order matters");
        assert_ne!(a1, d.next_group_pair().0, "root seed matters");
    }

    #[test]
    fn pair_stream_groups_satisfy_product_relations() {
        let mut d = PairDealer::for_pair(3, 5, 9);
        for _ in 0..32 {
            let (m1, m2) = d.next_group_pair();
            let x = reconstruct(m1.x, m2.x);
            let y = reconstruct(m1.y, m2.y);
            let z = reconstruct(m1.z, m2.z);
            assert_eq!(reconstruct(m1.o, m2.o), x * y, "o = xy");
            assert_eq!(reconstruct(m1.p, m2.p), x * z, "p = xz");
            assert_eq!(reconstruct(m1.q, m2.q), y * z, "q = yz");
            assert_eq!(reconstruct(m1.w, m2.w), x * y * z, "w = xyz");
        }
    }

    #[test]
    fn group_pair_consumes_exactly_mg_words_of_the_stream() {
        // The struct form and the raw-word form must stay aligned so a
        // runtime can interleave with a kernel on the same stream: the
        // first group is triple (0, 1, 2), its masks the pairs'.
        let mut via_groups = PairDealer::for_pair(11, 0, 1);
        let mut via_words = PairDealer::for_pair(11, 0, 1);
        let g = via_groups.next_group_pair();
        let mut w = [0u64; MG_WORDS];
        via_words.fill_words(&mut w);
        let masks = [(0, 1), (0, 2), (1, 2)]
            .map(|(i, j)| [ServerId::S1, ServerId::S2].map(|s| mask_prf(11, s, i, j)));
        assert_eq!(g, split_mg_words(masks, &w));
        // Both streams are now at the same offset.
        assert_eq!(via_groups.next_group_pair(), via_words.next_group_pair());
    }

    #[test]
    fn fill_words_matches_every_tier_and_the_scalar_stream() {
        // fill_words dispatches to the best tier; every tier, and the
        // scalar draws, must produce the same words and leave the stream
        // at the same position — for lengths around the lane width and
        // a whole round.
        let lens = [0usize, 1, 7, 8, 9, GROUP_WORDS, 63, 64, 65, GROUP_WORDS * 1024 + 3];
        for len in lens {
            let mut dealer = PairDealer::for_pair(5, 2, 9);
            let mut got = vec![0u64; len];
            dealer.fill_words(&mut got);
            let mut scalar = PairDealer::for_pair(5, 2, 9).rng;
            let want: Vec<u64> = (0..len).map(|_| scalar.next_u64()).collect();
            assert_eq!(got, want, "len {len}");
            assert_eq!(dealer.rng, scalar, "len {len}: stream position");
            for tier in SimdTier::available() {
                let mut rng = PairDealer::for_pair(5, 2, 9).rng;
                let mut words = vec![0u64; len];
                rng.fill_block_tier(tier, &mut words);
                assert_eq!(words, want, "tier {tier}, len {len}");
                assert_eq!(rng, scalar, "tier {tier}, len {len}: stream position");
            }
        }
    }

    #[test]
    fn masks_look_uniform() {
        // Mean popcount of the reconstructed masks ≈ 32 bits.
        let mut d = Dealer::new(11);
        let mut pop = 0u32;
        const N: usize = 2048;
        for _ in 0..N {
            let (m1, m2) = d.mul_group();
            pop += reconstruct(m1.x, m2.x).to_u64().count_ones();
        }
        let mean = pop as f64 / N as f64;
        assert!((mean - 32.0).abs() < 0.6, "mask popcount mean {mean}");
    }
}
