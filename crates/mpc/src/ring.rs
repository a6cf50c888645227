//! Arithmetic in the ring `Z_{2^64}`.
//!
//! The paper represents every shared value as an `l`-bit integer in
//! `Z_{2^l}` (Section II-C); we fix `l = 64`. All operations wrap; the
//! signed decoding [`Ring64::to_i64`] interprets elements in
//! `[2^63, 2^64)` as negative, which is how reconstructed noisy counts
//! (which may dip below zero) are read out.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of `Z_{2^64}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Ring64(pub u64);

impl Ring64 {
    /// The additive identity.
    pub const ZERO: Ring64 = Ring64(0);
    /// The multiplicative identity.
    pub const ONE: Ring64 = Ring64(1);

    /// Lifts an unsigned integer.
    #[inline]
    pub const fn new(v: u64) -> Self {
        Ring64(v)
    }

    /// Embeds a signed integer (two's complement).
    #[inline]
    pub const fn from_i64(v: i64) -> Self {
        Ring64(v as u64)
    }

    /// Embeds a bit (0 or 1) — the adjacency-bit case of Algorithm 4.
    #[inline]
    pub const fn from_bit(b: bool) -> Self {
        Ring64(b as u64)
    }

    /// Signed interpretation: values `< 2^63` are themselves, values
    /// `>= 2^63` are negative.
    #[inline]
    pub const fn to_i64(self) -> i64 {
        self.0 as i64
    }

    /// Raw unsigned value.
    #[inline]
    pub const fn to_u64(self) -> u64 {
        self.0
    }

    /// Wrapping exponentiation by squaring (test-only: no protocol
    /// path raises a ring element to a power).
    #[cfg(test)]
    fn pow(self, mut e: u32) -> Ring64 {
        let mut base = self;
        let mut acc = Ring64::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }
}

impl Add for Ring64 {
    type Output = Ring64;
    #[inline]
    fn add(self, rhs: Ring64) -> Ring64 {
        Ring64(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for Ring64 {
    #[inline]
    fn add_assign(&mut self, rhs: Ring64) {
        self.0 = self.0.wrapping_add(rhs.0);
    }
}

impl Sub for Ring64 {
    type Output = Ring64;
    #[inline]
    fn sub(self, rhs: Ring64) -> Ring64 {
        Ring64(self.0.wrapping_sub(rhs.0))
    }
}

impl SubAssign for Ring64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Ring64) {
        self.0 = self.0.wrapping_sub(rhs.0);
    }
}

impl Mul for Ring64 {
    type Output = Ring64;
    #[inline]
    fn mul(self, rhs: Ring64) -> Ring64 {
        Ring64(self.0.wrapping_mul(rhs.0))
    }
}

impl MulAssign for Ring64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Ring64) {
        self.0 = self.0.wrapping_mul(rhs.0);
    }
}

impl Neg for Ring64 {
    type Output = Ring64;
    #[inline]
    fn neg(self) -> Ring64 {
        Ring64(self.0.wrapping_neg())
    }
}

impl Sum for Ring64 {
    fn sum<I: Iterator<Item = Ring64>>(iter: I) -> Ring64 {
        iter.fold(Ring64::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Ring64 {
    fn from(v: u64) -> Self {
        Ring64(v)
    }
}

impl From<bool> for Ring64 {
    fn from(b: bool) -> Self {
        Ring64::from_bit(b)
    }
}

impl fmt::Debug for Ring64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print the signed decoding when it is small, else hex.
        let s = self.to_i64();
        if s.unsigned_abs() < 1 << 40 {
            write!(f, "Ring64({s})")
        } else {
            write!(f, "Ring64(0x{:016x})", self.0)
        }
    }
}

impl fmt::Display for Ring64 {
    /// Displays the signed decoding (what callers read out of
    /// reconstructed noisy counts).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_i64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_wraps() {
        assert_eq!(Ring64(u64::MAX) + Ring64::ONE, Ring64::ZERO);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(Ring64::ZERO - Ring64::ONE, Ring64(u64::MAX));
        assert_eq!((Ring64::ZERO - Ring64::ONE).to_i64(), -1);
    }

    #[test]
    fn signed_roundtrip() {
        for v in [-5i64, 0, 7, i64::MIN, i64::MAX] {
            assert_eq!(Ring64::from_i64(v).to_i64(), v);
        }
    }

    #[test]
    fn bit_embedding() {
        assert_eq!(Ring64::from_bit(true), Ring64::ONE);
        assert_eq!(Ring64::from_bit(false), Ring64::ZERO);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let b = Ring64(3);
        assert_eq!(b.pow(0), Ring64::ONE);
        assert_eq!(b.pow(1), b);
        assert_eq!(b.pow(5), Ring64(243));
        // Wrapping case.
        assert_eq!(Ring64(2).pow(64), Ring64::ZERO);
    }

    #[test]
    fn sum_folds() {
        let s: Ring64 = [1u64, 2, 3].into_iter().map(Ring64::new).sum();
        assert_eq!(s, Ring64(6));
    }

    #[test]
    fn debug_prints_signed_when_small() {
        assert_eq!(format!("{:?}", Ring64::from_i64(-3)), "Ring64(-3)");
    }

    proptest! {
        #[test]
        fn addition_commutes(a: u64, b: u64) {
            prop_assert_eq!(Ring64(a) + Ring64(b), Ring64(b) + Ring64(a));
        }

        #[test]
        fn addition_associates(a: u64, b: u64, c: u64) {
            prop_assert_eq!(
                (Ring64(a) + Ring64(b)) + Ring64(c),
                Ring64(a) + (Ring64(b) + Ring64(c))
            );
        }

        #[test]
        fn multiplication_distributes(a: u64, b: u64, c: u64) {
            prop_assert_eq!(
                Ring64(a) * (Ring64(b) + Ring64(c)),
                Ring64(a) * Ring64(b) + Ring64(a) * Ring64(c)
            );
        }

        #[test]
        fn neg_is_additive_inverse(a: u64) {
            prop_assert_eq!(Ring64(a) + (-Ring64(a)), Ring64::ZERO);
        }

        #[test]
        fn sub_is_add_neg(a: u64, b: u64) {
            prop_assert_eq!(Ring64(a) - Ring64(b), Ring64(a) + (-Ring64(b)));
        }
    }
}
