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
/// `count_sampled(m, rate, &CountJob { plan, offline, threads: 2, batch: 64, ..CountJob::new(0xA11C0) })`
/// returns. The anchors were first recorded on the last commit that
/// evaluated sampled chunks with their own hand-written workers (commit
/// `0a16d4e`), when 64 was the default batch, so the job names it. They
/// were re-recorded when the Count's masks were keyed by pair: every
/// row's `share1 + share2` (wrapping), `evaluated` and offline bytes
/// are the earlier recording's; the share split moved, and the
/// `net.rounds` column became `⌈P/64⌉` over the `P` pairs the sampled
/// triples read (it was `Σ_chunks ⌈W_c/64⌉`). The dealer rows were
/// re-recorded again when dealer words became per pair and per Count:
/// each row's `share1 + share2` and every other column stayed; the OT
/// rows, whose groups were still per triple, did not move. The OT rows
/// were re-recorded when OT mode made the dealer's words: each row's
/// shares became its dealer row's, its offline bytes the dialogue's
/// (e.g. `er_64` dense at 0.25: 127 282 992 → 37 951 248), and its
/// `evaluated` and rounds stayed.
#[rustfmt::skip]
const GOLDEN_SAMPLED: [Anchor; 24] = [
    ("er_64", 0.25, "dense", false, 0x06b2255f2d7f7a9c, 0xf94ddaa0d2808576, 10330, 32, 0),
    ("er_64", 0.25, "dense", true, 0x06b2255f2d7f7a9c, 0xf94ddaa0d2808576, 10330, 32, 37951248),
    ("er_64", 0.25, "support", false, 0xdebd1e0691ff4078, 0x2142e1f96e00bf9a, 18, 1, 0),
    ("er_64", 0.25, "support", true, 0xdebd1e0691ff4078, 0x2142e1f96e00bf9a, 18, 1, 211344),
    ("er_64", 0.25, "stream", false, 0xdebd1e0691ff4078, 0x2142e1f96e00bf9a, 18, 1, 0),
    ("er_64", 0.25, "stream", true, 0xdebd1e0691ff4078, 0x2142e1f96e00bf9a, 18, 1, 211344),
    ("er_64", 0.5, "dense", false, 0xd42b23bb59391e75, 0x2bd4dc44a6c6e1ae, 20875, 32, 0),
    ("er_64", 0.5, "dense", true, 0xd42b23bb59391e75, 0x2bd4dc44a6c6e1ae, 20875, 32, 70345488),
    ("er_64", 0.5, "support", false, 0x11a8843dbcfa91e2, 0xee577bc243056e41, 35, 2, 0),
    ("er_64", 0.5, "support", true, 0x11a8843dbcfa91e2, 0xee577bc243056e41, 35, 2, 386768),
    ("er_64", 0.5, "stream", false, 0x11a8843dbcfa91e2, 0xee577bc243056e41, 35, 2, 0),
    ("er_64", 0.5, "stream", true, 0x11a8843dbcfa91e2, 0xee577bc243056e41, 35, 2, 386768),
    ("ba_64", 0.25, "dense", false, 0x5c64fbe8c98fef9d, 0xa39b041736701086, 10330, 32, 0),
    ("ba_64", 0.25, "dense", true, 0x5c64fbe8c98fef9d, 0xa39b041736701086, 10330, 32, 37951248),
    ("ba_64", 0.25, "support", false, 0xfd03b076dcf682cc, 0x02fc4f8923097d57, 35, 2, 0),
    ("ba_64", 0.25, "support", true, 0xfd03b076dcf682cc, 0x02fc4f8923097d57, 35, 2, 355968),
    ("ba_64", 0.25, "stream", false, 0xfd03b076dcf682cc, 0x02fc4f8923097d57, 35, 2, 0),
    ("ba_64", 0.25, "stream", true, 0xfd03b076dcf682cc, 0x02fc4f8923097d57, 35, 2, 355968),
    ("ba_64", 0.5, "dense", false, 0x1592dca56c275db8, 0xea6d235a93d8a28b, 20875, 32, 0),
    ("ba_64", 0.5, "dense", true, 0x1592dca56c275db8, 0xea6d235a93d8a28b, 20875, 32, 70345488),
    ("ba_64", 0.5, "support", false, 0xc9376bb1d2b1a624, 0x36c8944e2d4e5a1f, 67, 2, 0),
    ("ba_64", 0.5, "support", true, 0xc9376bb1d2b1a624, 0x36c8944e2d4e5a1f, 67, 2, 574392),
    ("ba_64", 0.5, "stream", false, 0xc9376bb1d2b1a624, 0x36c8944e2d4e5a1f, 67, 2, 0),
    ("ba_64", 0.5, "stream", true, 0xc9376bb1d2b1a624, 0x36c8944e2d4e5a1f, 67, 2, 574392),
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
        let r = count_sampled(&m, rate, &CountJob { plan, offline, batch: 64, ..job(0xA11C0, 2) });
        assert_eq!(
            (r.share1.to_u64(), r.share2.to_u64(), r.evaluated, r.net.rounds, r.net.offline.bytes),
            (share1, share2, evaluated, rounds, offline_bytes),
            "{name} q={rate} plan={plan_name} ot={ot}"
        );
    }
}
