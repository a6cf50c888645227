//! Fixed-point encoding of real-valued noise into `Z_{2^64}`.
//!
//! Algorithm 5 secret-shares the real-valued partial noises `γᵢ` over
//! the integer ring. We encode `x ∈ ℝ` as `round(x · 2^frac_bits)`
//! interpreted in two's complement, so additive sharing, aggregation,
//! and the final `⟨T'⟩ = ⟨T⟩·2^f + ⟨γ⟩` combination are exact ring
//! operations; only the initial rounding loses precision (≤ 2^{−f−1}
//! per user, i.e. ≤ n·2^{−f−1} total — about 0.015 counts for
//! n = 2000 at the default 16 fractional bits, far below the DP noise
//! floor).

use cargo_mpc::Ring64;

/// A fixed-point codec with `frac_bits` fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointCodec {
    frac_bits: u32,
}

impl FixedPointCodec {
    /// Creates a codec. `frac_bits` must leave headroom for the integer
    /// part (we require `frac_bits <= 32`).
    ///
    /// # Panics
    /// Panics if `frac_bits > 32`.
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits <= 32, "frac_bits {frac_bits} too large");
        FixedPointCodec { frac_bits }
    }

    /// The number of fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The scale factor `2^frac_bits` as a ring element (multiply an
    /// integer-valued share by this to align denominators).
    fn scale_ring(&self) -> Ring64 {
        Ring64(1u64 << self.frac_bits)
    }

    /// The scale factor as a float.
    pub fn scale_f64(&self) -> f64 {
        (1u64 << self.frac_bits) as f64
    }

    /// Encodes a real value. Saturates on overflow of the signed
    /// integer range (which would require |x| ≈ 2^{63−f}; unreachable
    /// for DP noise at experiment scales).
    pub fn encode(&self, x: f64) -> Ring64 {
        let scaled = (x * self.scale_f64()).round();
        let clamped = scaled.clamp(i64::MIN as f64, i64::MAX as f64);
        Ring64::from_i64(clamped as i64)
    }

    /// Decodes a ring element back to a real value.
    pub fn decode(&self, r: Ring64) -> f64 {
        r.to_i64() as f64 / self.scale_f64()
    }

    /// Lifts an *integer* count into the fixed-point domain
    /// (`x · 2^f`), the operation each server applies locally to its
    /// share of `T` before adding noise shares.
    pub fn lift_integer(&self, r: Ring64) -> Ring64 {
        r * self.scale_ring()
    }
}

impl Default for FixedPointCodec {
    /// 16 fractional bits: rounding error per value ≤ 2^{-17} ≈ 7.6e-6.
    fn default() -> Self {
        FixedPointCodec::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_exact_for_representable_values() {
        let c = FixedPointCodec::new(16);
        for x in [0.0, 1.0, -1.0, 0.5, -0.25, 1234.0625] {
            assert_eq!(c.decode(c.encode(x)), x, "value {x}");
        }
    }

    #[test]
    fn roundtrip_error_bounded_by_half_ulp() {
        let c = FixedPointCodec::new(16);
        let ulp = 1.0 / c.scale_f64();
        for i in 0..1000 {
            let x = (i as f64) * 0.318281828 - 159.0;
            let err = (c.decode(c.encode(x)) - x).abs();
            assert!(err <= ulp / 2.0 + 1e-12, "x={x} err={err}");
        }
    }

    #[test]
    fn encoding_is_additively_homomorphic() {
        let c = FixedPointCodec::new(16);
        let a = c.encode(3.25);
        let b = c.encode(-1.5);
        assert_eq!(c.decode(a + b), 1.75);
    }

    #[test]
    fn lift_integer_aligns_denominators() {
        let c = FixedPointCodec::new(8);
        let t = Ring64(42); // an integer triangle count share
        let lifted = c.lift_integer(t);
        assert_eq!(c.decode(lifted), 42.0);
        // Lifted count + encoded noise decodes to count + noise.
        let noisy = lifted + c.encode(-2.5);
        assert_eq!(c.decode(noisy), 39.5);
    }

    #[test]
    fn negative_values_roundtrip_through_ring_wraparound() {
        let c = FixedPointCodec::new(16);
        let r = c.encode(-1000.125);
        // The raw ring value is huge (two's complement) …
        assert!(r.to_u64() > 1 << 62);
        // … but decodes correctly.
        assert_eq!(c.decode(r), -1000.125);
    }

    #[test]
    fn default_is_16_bits() {
        assert_eq!(FixedPointCodec::default().frac_bits(), 16);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_frac_bits_panics() {
        FixedPointCodec::new(33);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_error_bounded(x in -1e12f64..1e12f64) {
            let c = FixedPointCodec::new(16);
            let err = (c.decode(c.encode(x)) - x).abs();
            prop_assert!(err <= 0.5 / c.scale_f64() + x.abs() * 1e-15);
        }

        #[test]
        fn prop_additive_homomorphism(a in -1e9f64..1e9f64, b in -1e9f64..1e9f64) {
            let c = FixedPointCodec::new(16);
            let sum = c.decode(c.encode(a) + c.encode(b));
            // Two roundings, each ≤ half an ulp.
            prop_assert!((sum - (a + b)).abs() <= 1.0 / c.scale_f64());
        }
    }
}
