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
use crate::share::{share_with, SharePair};
use crate::triple_mul::MulGroupShare;

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

/// Dealer words consumed per Multiplication Group by the streaming
/// form: `x₁ x₂ y₁ y₂ z₁ z₂ o₁ p₁ q₁ w₁` (the second shares of the
/// derived values `o, p, q, w` are differences, not fresh draws).
pub const MG_WORDS: usize = 10;

/// A dealer stream *split per outer `(i, j)` pair* of the Count phase.
///
/// The batched scheduler partitions the `(i, j)` pair space across
/// workers and chunks; keying the offline randomness by the pair
/// itself (rather than by worker or chunk) makes the servers' share
/// pairs bit-identical for **every** thread count and batch size — the
/// partition only decides *who* consumes a stream, never *what* the
/// stream contains. Every Count executor (fast kernel — sampled or
/// not — and message-passing runtime) draws from these streams.
#[derive(Debug, Clone)]
pub struct PairDealer {
    rng: SplitMix64,
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
        }
    }

    /// Creates the stream for `draw`'s pair, already sought to the
    /// draw's canonical group offset — the tile entry point: a hybrid
    /// kernel gathering straggler runs from many pairs into one batch
    /// opens each run's stream with this and [`Self::fill_words`]s it
    /// straight into the gather slab.
    pub fn for_draw(root: u64, draw: &crate::MgDraw) -> Self {
        let mut d = Self::for_pair(root, draw.i, draw.j);
        d.skip_groups(draw.start as usize);
        d
    }

    /// Block-expands the next `out.len()` raw dealer words (see
    /// [`MG_WORDS`] for the per-group layout). Stream-equivalent to
    /// scalar draws; the hot kernel fills one batch at a time.
    #[inline]
    pub fn fill_words(&mut self, out: &mut [u64]) {
        self.rng.fill_block(out);
    }

    /// Advances the stream past `groups` Multiplication Groups without
    /// computing them — O(1) in `groups`, because SplitMix64 is a
    /// counter PRG. This is what lets a *sparse* Count schedule draw a
    /// pair's group for triple `(i, j, k)` at its **canonical** stream
    /// position `k − j − 1` (the offset the dense cube would use)
    /// while paying nothing for the skipped, non-candidate `k`s — so a
    /// surviving triple's material is bit-identical under every
    /// schedule.
    #[inline]
    pub fn skip_groups(&mut self, groups: usize) {
        self.rng.skip(MG_WORDS * groups);
    }

    /// The fused hot kernel of the batched Count: evaluates one
    /// `k`-block of Multiplication-Group protocols directly against
    /// this stream ([`crate::triple_mul::mul3_batch_stream`]), drawing
    /// and mixing the block's [`MG_WORDS`]`·L` words inside the lane
    /// loop. Consumes exactly the words [`Self::fill_words`] would for
    /// the same block, and returns the wrapping partial sums
    /// `(Σ⟨d⟩₁, Σ⟨d⟩₂)` — bit-identical to the scalar transcription.
    #[inline]
    pub fn count_block(&mut self, a: u64, b: &[u64], c: &[u64]) -> (u64, u64) {
        crate::triple_mul::mul3_batch_stream(&mut self.rng, a, b, c)
    }

    /// Draws one Multiplication Group as the two servers' share
    /// structs — the protocol-object form of the same stream: consumes
    /// exactly [`MG_WORDS`] words in the canonical order, so a runtime
    /// driving share structs stays word-for-word aligned with a kernel
    /// consuming [`Self::fill_words`].
    pub fn next_group_pair(&mut self) -> (MulGroupShare, MulGroupShare) {
        let mut w = [0u64; MG_WORDS];
        self.fill_words(&mut w);
        let (g1, g2) = split_mg_words(&w);
        (g1, g2)
    }
}

/// Expands [`MG_WORDS`] raw dealer words into the two servers'
/// Multiplication-Group shares (shared by [`PairDealer`] and the
/// Count kernels so the arithmetic lives in one place).
#[inline]
pub fn split_mg_words(w: &[u64]) -> (MulGroupShare, MulGroupShare) {
    let &[x1, x2, y1, y2, z1, z2, o1, p1, q1, w1] = &w[..MG_WORDS] else {
        panic!("split_mg_words needs {MG_WORDS} words");
    };
    let x = x1.wrapping_add(x2);
    let y = y1.wrapping_add(y2);
    let z = z1.wrapping_add(z2);
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
        // runtime can interleave with a kernel on the same stream.
        let mut via_groups = PairDealer::for_pair(11, 0, 1);
        let mut via_words = PairDealer::for_pair(11, 0, 1);
        let g = via_groups.next_group_pair();
        let mut w = [0u64; MG_WORDS];
        via_words.fill_words(&mut w);
        assert_eq!(g, split_mg_words(&w));
        // Both streams are now at the same offset.
        assert_eq!(via_groups.next_group_pair(), via_words.next_group_pair());
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
