//! Ring-layer correctness suite: wrap-around semantics,
//! share/reconstruct identity, and multiplication-triple protocols,
//! driven through the shared `cargo-testutil` fixtures.

use cargo_mpc::{beaver_mul, mul3, reconstruct, share_with, Dealer, NetStats, Ring64, SplitMix64};
use cargo_testutil::sharing::{assert_share_roundtrip, ring_test_values};

#[test]
fn ring_wraps_at_both_ends() {
    assert_eq!(Ring64(u64::MAX) + Ring64(1), Ring64(0));
    assert_eq!(Ring64(0) - Ring64(1), Ring64(u64::MAX));
    assert_eq!(Ring64(1 << 63) + Ring64(1 << 63), Ring64(0));
    assert_eq!(Ring64(u64::MAX) * Ring64(2), Ring64::from_i64(-2));
    // Signed decoding wraps consistently with two's complement.
    assert_eq!((Ring64::from_i64(i64::MIN) - Ring64(1)).to_i64(), i64::MAX);
}

#[test]
fn ring_additive_inverses_on_edge_values() {
    for v in ring_test_values() {
        assert_eq!(v + (-v), Ring64(0), "inverse failed for {v:?}");
        assert_eq!(v - v, Ring64(0), "self-subtraction failed for {v:?}");
    }
}

#[test]
fn share_reconstruct_identity_over_edge_and_random_values() {
    for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
        assert_share_roundtrip(seed, 256);
    }
}

#[test]
fn shares_of_same_secret_differ_across_draws() {
    // Fresh randomness per sharing: the same secret must not produce
    // the same share twice (overwhelmingly) — a regression here would
    // mean the dealer reuses masks and leaks linear relations.
    let mut rng = SplitMix64::new(7);
    let x = Ring64(123_456_789);
    let a = share_with(x, &mut rng);
    let b = share_with(x, &mut rng);
    assert_ne!(a.s1, b.s1);
    assert_eq!(a.reconstruct(), b.reconstruct());
}

#[test]
fn dealer_beaver_triples_satisfy_c_eq_ab() {
    let mut dealer = Dealer::new(99);
    for _ in 0..100 {
        let (t1, t2) = dealer.beaver();
        let a = t1.a + t2.a;
        let b = t1.b + t2.b;
        let c = t1.c + t2.c;
        assert_eq!(c, a * b, "malformed Beaver triple");
    }
}

#[test]
fn dealer_mul_groups_satisfy_all_four_relations() {
    let mut dealer = Dealer::new(100);
    for _ in 0..100 {
        let (m1, m2) = dealer.mul_group();
        let (x, y, z) = (m1.x + m2.x, m1.y + m2.y, m1.z + m2.z);
        assert_eq!(m1.w + m2.w, x * y * z, "w != xyz");
        assert_eq!(m1.o + m2.o, x * y, "o != xy");
        assert_eq!(m1.p + m2.p, x * z, "p != xz");
        assert_eq!(m1.q + m2.q, y * z, "q != yz");
    }
}

#[test]
fn beaver_multiplication_correct_on_edge_values() {
    let mut dealer = Dealer::new(101);
    for x in ring_test_values() {
        for y in ring_test_values() {
            let px = share_with(x, dealer.rng_mut());
            let py = share_with(y, dealer.rng_mut());
            let triple = dealer.beaver();
            let mut net = NetStats::new();
            let (o1, o2) = beaver_mul((px.s1, px.s2), (py.s1, py.s2), triple, &mut net);
            assert_eq!(reconstruct(o1, o2), x * y, "beaver {x:?} * {y:?}");
        }
    }
}

#[test]
fn mul3_matches_plain_triple_product_on_edge_values() {
    let mut dealer = Dealer::new(102);
    let values = ring_test_values();
    for &a in &values {
        for &b in &values {
            for &c in &[Ring64(0), Ring64(1), Ring64(u64::MAX), Ring64(1 << 63)] {
                let pa = share_with(a, dealer.rng_mut());
                let pb = share_with(b, dealer.rng_mut());
                let pc = share_with(c, dealer.rng_mut());
                let mg = dealer.mul_group();
                let mut net = NetStats::new();
                let (d1, d2) = mul3(
                    (pa.s1, pa.s2),
                    (pb.s1, pb.s2),
                    (pc.s1, pc.s2),
                    mg,
                    &mut net,
                );
                assert_eq!(reconstruct(d1, d2), a * b * c, "mul3 {a:?}*{b:?}*{c:?}");
                assert_eq!(net.rounds, 1, "mul3 must cost exactly one round");
            }
        }
    }
}
