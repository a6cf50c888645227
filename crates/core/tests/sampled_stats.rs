//! Statistical pinning of the sampled estimator against the *exact
//! secure count* on the golden fixture graphs, with CLT-sized bands
//! from `cargo_testutil::stats` (no hand-tuned tolerances).
//!
//! The Horvitz–Thompson estimator `T̂ = raw/q` is unbiased with
//! per-run variance `T(1−q)/q`; averaging over `TRIALS` independent
//! public coins shrinks the standard error by `√TRIALS`, and the
//! assertions budget `z = 6` standard errors (spurious failure
//! probability < 1e-8 under fixed seeds).

use cargo_core::{
    count_local, count_sampled, CandidateSet, CountJob, OfflineMode, SampledCountResult,
    SchedulePlan,
};
use cargo_graph::CsrGraph;
use cargo_mpc::Ring64;
use std::sync::Arc;
use cargo_testutil::golden_fixtures;
use cargo_testutil::stats::{assert_mean_close, variance, DEFAULT_Z};

const TRIALS: u64 = 60;

fn job(seed: u64, threads: usize) -> CountJob {
    CountJob { threads, ..CountJob::new(seed) }
}

#[test]
fn sampled_estimate_is_unbiased_against_the_exact_secure_count() {
    for f in golden_fixtures() {
        let m = f.graph.to_bit_matrix();
        // The reference value is the secure protocol's own exact count,
        // not the plaintext counter (they must agree, and do — pinned
        // elsewhere — but this suite targets the sampled variant).
        let exact = count_local(&m, &job(0xCA60, 2));
        assert_eq!(exact.reconstruct(), Ring64(f.triangles), "{}", f.name);
        let t = f.triangles as f64;
        for rate in [0.5f64, 0.25] {
            let estimates: Vec<f64> = (0..TRIALS)
                .map(|s| count_sampled(&m, rate, &job(0xBEEF + s * 7919, 2)).estimate())
                .collect();
            assert_mean_close(
                &format!("{} sampled q={rate}", f.name),
                &estimates,
                t,
                SampledCountResult::sampling_variance(t, rate),
                DEFAULT_Z,
            );
        }
    }
}

#[test]
fn sampled_estimator_variance_tracks_the_formula() {
    // On the densest generator fixture the empirical variance of the
    // estimator should sit in a CLT-sized band around T(1−q)/q.
    // Var[sample variance] ≈ 2σ⁴/(n−1) · kurtosis factor; the
    // binomially-thinned sum is close to Gaussian here, factor 2 is
    // generous.
    let fixtures = golden_fixtures();
    let f = fixtures.iter().find(|f| f.name == "ba_64").expect("fixture");
    let m = f.graph.to_bit_matrix();
    let t = f.triangles as f64;
    let rate = 0.5;
    let estimates: Vec<f64> = (0..200u64)
        .map(|s| count_sampled(&m, rate, &job(0x5EED + s * 104729, 2)).estimate())
        .collect();
    let want = SampledCountResult::sampling_variance(t, rate);
    let got = variance(&estimates);
    let se = (2.0 * 2.0 * want * want / (estimates.len() - 1) as f64).sqrt();
    assert!(
        (got - want).abs() <= DEFAULT_Z * se,
        "empirical variance {got:.1} outside {want:.1} ± {:.1}",
        DEFAULT_Z * se
    );
}

#[test]
fn zero_triangle_fixtures_always_estimate_zero() {
    // With T = 0 every sampled subset sums to zero: the estimator is
    // exact, not merely unbiased.
    for f in golden_fixtures().iter().filter(|f| f.triangles == 0) {
        let m = f.graph.to_bit_matrix();
        for s in 0..10u64 {
            let est = count_sampled(&m, 0.3, &CountJob::new(s)).estimate();
            assert_eq!(est, 0.0, "{} seed {s}", f.name);
        }
    }
}

/// `(fixture, rate, plan, OT offline?, share1, share2, evaluated,
/// net.rounds, net.offline.bytes)`.
type Anchor = (&'static str, f64, &'static str, bool, u64, u64, u64, u64, u64);

/// What
/// `count_sampled(m, rate, &CountJob { plan, offline, threads: 2, ..CountJob::new(0xA11C0) })`
/// returned on the last commit that evaluated sampled chunks with their
/// own hand-written workers (PR 16, `0a16d4e`).
#[rustfmt::skip]
const GOLDEN_SAMPLED: [Anchor; 24] = [
    ("er_64", 0.25, "dense", false, 0x439ddc4bcc7b8b58, 0xbc6223b4338474ba, 10330, 188, 0),
    ("er_64", 0.25, "dense", true, 0x439ddc4bcc7b8b58, 0xbc6223b4338474ba, 10330, 188, 127282992),
    ("er_64", 0.25, "support", false, 0x80815015686b2a92, 0x7f7eafea9794d580, 18, 1, 0),
    ("er_64", 0.25, "support", true, 0x80815015686b2a92, 0x7f7eafea9794d580, 18, 1, 238160),
    ("er_64", 0.25, "stream", false, 0x80815015686b2a92, 0x7f7eafea9794d580, 18, 1, 0),
    ("er_64", 0.25, "stream", true, 0x80815015686b2a92, 0x7f7eafea9794d580, 18, 1, 238160),
    ("er_64", 0.5, "dense", false, 0x8af1414aea5f73b0, 0x750ebeb515a08c73, 20875, 361, 0),
    ("er_64", 0.5, "dense", true, 0x8af1414aea5f73b0, 0x750ebeb515a08c73, 20875, 361, 257197392),
    ("er_64", 0.5, "support", false, 0x9bff1554f4126f58, 0x6400eaab0bed90cb, 35, 1, 0),
    ("er_64", 0.5, "support", true, 0x9bff1554f4126f58, 0x6400eaab0bed90cb, 35, 1, 447600),
    ("er_64", 0.5, "stream", false, 0x9bff1554f4126f58, 0x6400eaab0bed90cb, 35, 1, 0),
    ("er_64", 0.5, "stream", true, 0x9bff1554f4126f58, 0x6400eaab0bed90cb, 35, 1, 447600),
    ("ba_64", 0.25, "dense", false, 0xc9b92077ef4217c4, 0x3646df8810bde85f, 10330, 188, 0),
    ("ba_64", 0.25, "dense", true, 0xc9b92077ef4217c4, 0x3646df8810bde85f, 10330, 188, 127282992),
    ("ba_64", 0.25, "support", false, 0x037cd6a316a141ff, 0xfc83295ce95ebe24, 35, 1, 0),
    ("ba_64", 0.25, "support", true, 0x037cd6a316a141ff, 0xfc83295ce95ebe24, 35, 1, 447600),
    ("ba_64", 0.25, "stream", false, 0x037cd6a316a141ff, 0xfc83295ce95ebe24, 35, 1, 0),
    ("ba_64", 0.25, "stream", true, 0x037cd6a316a141ff, 0xfc83295ce95ebe24, 35, 1, 447600),
    ("ba_64", 0.5, "dense", false, 0x1ae5923433bc74d1, 0xe51a6dcbcc438b72, 20875, 361, 0),
    ("ba_64", 0.5, "dense", true, 0x1ae5923433bc74d1, 0xe51a6dcbcc438b72, 20875, 361, 257197392),
    ("ba_64", 0.5, "support", false, 0x4cf8b66b7b894840, 0xb30749948476b803, 67, 2, 0),
    ("ba_64", 0.5, "support", true, 0x4cf8b66b7b894840, 0xb30749948476b803, 67, 2, 841840),
    ("ba_64", 0.5, "stream", false, 0x4cf8b66b7b894840, 0xb30749948476b803, 67, 2, 0),
    ("ba_64", 0.5, "stream", true, 0x4cf8b66b7b894840, 0xb30749948476b803, 67, 2, 841840),
];

#[test]
fn sampled_shares_reproduce_the_recorded_anchors_word_for_word() {
    // Everything else in this suite is relative (sampled ≡ sampled
    // under another knob) or statistical. These are absolute: a moved
    // coin, a shifted dealer offset, a different evaluated set or a
    // different OT flight cut changes a word below.
    let fixtures = golden_fixtures();
    for (name, rate, plan_name, ot, share1, share2, evaluated, rounds, offline_bytes) in
        GOLDEN_SAMPLED
    {
        let f = fixtures.iter().find(|f| f.name == name).expect("fixture");
        let m = f.graph.to_bit_matrix();
        let plan = match plan_name {
            "dense" => SchedulePlan::DenseCube,
            "support" => SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_support(&m))),
            "stream" => SchedulePlan::CsrStream(Arc::new(CsrGraph::from_support(&m))),
            other => unreachable!("plan {other}"),
        };
        let offline = if ot { OfflineMode::OtExtension } else { OfflineMode::TrustedDealer };
        let r = count_sampled(&m, rate, &CountJob { plan, offline, ..job(0xA11C0, 2) });
        assert_eq!(
            (r.share1.to_u64(), r.share2.to_u64(), r.evaluated, r.net.rounds, r.net.offline.bytes),
            (share1, share2, evaluated, rounds, offline_bytes),
            "{name} q={rate} plan={plan_name} ot={ot}"
        );
    }
}
