//! Portable fixed-width `u64` lane helpers for the batched MG kernel.
//!
//! The hot Count kernel evaluates one Multiplication Group per triple
//! — ~20 wrapping `u64` multiplications and as many additions. Done one
//! scalar at a time the compiler has little room to schedule; done over
//! a structure-of-arrays batch it can keep several independent lanes in
//! flight (and, where the target supports 64-bit vector multiplies,
//! auto-vectorise outright). This module provides the lane type those
//! batch kernels ([`crate::mask_round`], [`crate::combine_round`]) are
//! written in:
//! a plain fixed-width array of `u64` with wrapping lane-wise
//! arithmetic — **no nightly features, no intrinsics, no `unsafe`** —
//! unrolled ×4 or ×8 through the [`U64x4`]/[`U64x8`] aliases.
//!
//! All arithmetic is wrapping (the ring `Z_{2^64}`), matching
//! [`crate::Ring64`]; the operator impls exist so kernel code reads
//! like the scalar protocol arithmetic it must stay bit-identical to.

use std::ops::{Add, BitAnd, BitXor, Mul, Shl, Shr, Sub};

/// Lane width of the default batch kernel (`u64x8`: one AVX-512
/// register, two AVX2 registers, or eight scalar registers — all of
/// which the unrolled loop body schedules well on).
pub const LANES: usize = 8;

/// Runtime ISA tier for the dispatched lane kernels.
///
/// The batch kernels ([`crate::triple_mul`], the OT-extension
/// transpose/hash in [`crate::ot`]) compile one generic lane body
/// several times under different `#[target_feature]` attributes and
/// pick a tier at runtime. Every tier computes **bit-identical**
/// results — the tier only changes codegen, never semantics — which is
/// what lets the equivalence suites pin the vector paths against the
/// scalar references on whatever machine runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// AVX-512 (`avx512f` + `avx512dq`: 8×64-bit lanes per register).
    Avx512,
    /// AVX2 (4×64-bit lanes per register; the ×8 body splits in two).
    Avx2,
    /// The plain generic body — no `target_feature`, any CPU.
    Portable,
}

impl SimdTier {
    /// The best tier this CPU supports (what the hot paths dispatch to).
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                return SimdTier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdTier::Avx2;
            }
        }
        SimdTier::Portable
    }

    /// Whether this CPU can run the tier at all (forcing an unsupported
    /// tier would execute illegal instructions, so the dispatchers
    /// refuse it).
    pub fn supported(self) -> bool {
        match self {
            SimdTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
            }
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every tier this CPU supports, best first ([`SimdTier::Portable`]
    /// always included) — the set the equivalence tests sweep.
    pub fn available() -> Vec<Self> {
        [SimdTier::Avx512, SimdTier::Avx2, SimdTier::Portable]
            .into_iter()
            .filter(|t| t.supported())
            .collect()
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdTier::Avx512 => "avx512",
            SimdTier::Avx2 => "avx2",
            SimdTier::Portable => "portable",
        })
    }
}

/// A fixed-width vector of `N` ring elements with wrapping lane-wise
/// arithmetic.
///
/// ```
/// use cargo_mpc::simd::U64x4;
/// let a = U64x4::load(&[1, 2, 3, u64::MAX]);
/// let b = U64x4::splat(1);
/// assert_eq!((a + b).0, [2, 3, 4, 0]); // wrapping, like Ring64
/// assert_eq!((a * b).hsum(), 1u64.wrapping_add(2).wrapping_add(3).wrapping_add(u64::MAX));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U64xN<const N: usize>(pub [u64; N]);

/// Four-lane vector (×4 unroll).
pub type U64x4 = U64xN<4>;
/// Eight-lane vector (×8 unroll — the batch kernel's default width).
pub type U64x8 = U64xN<8>;

impl<const N: usize> U64xN<N> {
    /// All-zero lanes.
    pub const ZERO: Self = U64xN([0; N]);

    /// Broadcasts one value to every lane.
    #[inline(always)]
    pub fn splat(v: u64) -> Self {
        U64xN([v; N])
    }

    /// Loads `N` consecutive values from the front of `src`.
    ///
    /// # Panics
    /// Panics if `src` holds fewer than `N` values.
    #[inline(always)]
    pub fn load(src: &[u64]) -> Self {
        let mut out = [0u64; N];
        out.copy_from_slice(&src[..N]);
        U64xN(out)
    }

    /// Stores the lanes to the front of `dst`.
    ///
    /// # Panics
    /// Panics if `dst` holds fewer than `N` slots.
    #[inline(always)]
    pub fn store(self, dst: &mut [u64]) {
        dst[..N].copy_from_slice(&self.0);
    }

    /// Wrapping horizontal sum of all lanes (order-independent in
    /// `Z_{2^64}`, so reductions stay bit-identical to any scalar
    /// accumulation order).
    #[inline(always)]
    pub fn hsum(self) -> u64 {
        self.0.iter().fold(0u64, |acc, &v| acc.wrapping_add(v))
    }

    /// Lane-wise `u64::rotate_left` — the OT correlation-robust hash
    /// rotates the second row word before mixing, and the rotation must
    /// stay bit-identical to the scalar reference.
    #[inline(always)]
    pub fn rotate_left(self, r: u32) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = o.rotate_left(r);
        }
        U64xN(out)
    }

}

/// `[0, step, 2·step, …]` — lane `t`'s offset from lane 0 (wrapping).
pub(crate) const fn lane_steps<const N: usize>(step: u64) -> U64xN<N> {
    let mut out = [0u64; N];
    let mut t = 0;
    while t < N {
        out[t] = step.wrapping_mul(t as u64);
        t += 1;
    }
    U64xN(out)
}

impl<const N: usize> Add for U64xN<N> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o = o.wrapping_add(*r);
        }
        U64xN(out)
    }
}

impl<const N: usize> Sub for U64xN<N> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o = o.wrapping_sub(*r);
        }
        U64xN(out)
    }
}

impl<const N: usize> Mul for U64xN<N> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o = o.wrapping_mul(*r);
        }
        U64xN(out)
    }
}

impl<const N: usize> BitXor for U64xN<N> {
    type Output = Self;
    #[inline(always)]
    fn bitxor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o ^= *r;
        }
        U64xN(out)
    }
}

impl<const N: usize> BitAnd for U64xN<N> {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o &= *r;
        }
        U64xN(out)
    }
}

impl<const N: usize> Shr<u32> for U64xN<N> {
    type Output = Self;
    #[inline(always)]
    fn shr(self, rhs: u32) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o >>= rhs;
        }
        U64xN(out)
    }
}

impl<const N: usize> Shl<u32> for U64xN<N> {
    type Output = Self;
    #[inline(always)]
    fn shl(self, rhs: u32) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o <<= rhs;
        }
        U64xN(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_arithmetic_wraps_like_the_ring() {
        let a = U64x8::splat(u64::MAX);
        let b = U64x8::splat(2);
        assert_eq!((a + b).0, [1; 8]);
        assert_eq!((b - a).0, [3; 8]);
        assert_eq!((a * b).0, [u64::MAX.wrapping_mul(2); 8]);
    }

    #[test]
    fn load_store_round_trip() {
        let src = [5u64, 6, 7, 8, 9, 10, 11, 12, 99];
        let v = U64x8::load(&src);
        let mut dst = [0u64; 9];
        v.store(&mut dst);
        assert_eq!(&dst[..8], &src[..8]);
        assert_eq!(dst[8], 0, "store writes exactly N lanes");
    }

    #[test]
    fn hsum_is_wrapping_and_order_independent() {
        let v = U64x4::load(&[u64::MAX, 1, u64::MAX, 3]);
        let want = u64::MAX
            .wrapping_add(1)
            .wrapping_add(u64::MAX)
            .wrapping_add(3);
        assert_eq!(v.hsum(), want);
        // Reversed lanes, same sum.
        let r = U64x4::load(&[3, u64::MAX, 1, u64::MAX]);
        assert_eq!(r.hsum(), want);
    }

    #[test]
    fn splat_fills_all_lanes() {
        assert_eq!(U64x4::splat(7).0, [7; 4]);
        assert_eq!(U64x8::ZERO.0, [0; 8]);
    }

    #[test]
    fn xor_and_shift_are_lane_wise() {
        let a = U64x4::load(&[0b1100, 0b1010, u64::MAX, 1]);
        let b = U64x4::splat(0b1001);
        assert_eq!((a ^ b).0, [0b0101, 0b0011, u64::MAX ^ 0b1001, 0b1000]);
        assert_eq!((a >> 2).0, [0b11, 0b10, u64::MAX >> 2, 0]);
        assert_eq!((a << 2).0, [0b110000, 0b101000, u64::MAX << 2, 4]);
    }

    #[test]
    fn tier_detection_is_consistent() {
        let best = SimdTier::detect();
        assert!(best.supported(), "detected tier must be runnable");
        let avail = SimdTier::available();
        assert_eq!(avail.first(), Some(&best), "detect() is the best available tier");
        assert_eq!(avail.last(), Some(&SimdTier::Portable), "portable always available");
        assert_eq!(SimdTier::Portable.to_string(), "portable");
    }

    #[test]
    fn and_and_rotate_are_lane_wise() {
        let a = U64x4::load(&[0b1100, 0b1010, u64::MAX, 1 << 63]);
        let m = U64x4::splat(0b1010);
        assert_eq!((a & m).0, [0b1000, 0b1010, 0b1010, 0]);
        assert_eq!(
            a.rotate_left(32).0,
            [
                0b1100u64.rotate_left(32),
                0b1010u64.rotate_left(32),
                u64::MAX,
                (1u64 << 63).rotate_left(32),
            ]
        );
    }
}
