//! Privacy-facing integration tests: budget accounting, noise
//! presence, and the distributed-noise privacy argument's mechanics.

use cargo_repro::core::{CargoConfig, CargoSystem};
use cargo_repro::dp::{DistributedLaplace, PrivacyAccountant, PrivacyBudget};
use cargo_repro::graph::generators::barabasi_albert;
use cargo_testutil::stats::{
    assert_mean_close, assert_sign_balanced, assert_variance_close, variance, DEFAULT_Z,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_run_spends_exactly_the_declared_budget() {
    let g = barabasi_albert(120, 4, 1);
    for eps in [0.5, 1.0, 2.0, 3.0] {
        let out = CargoSystem::new(CargoConfig::new(eps).with_seed(1)).run(&g);
        let spent: f64 = out.ledger.iter().map(|(_, e)| e).sum();
        assert!(
            (spent - eps).abs() < 1e-9,
            "eps={eps}: ledger spent {spent}"
        );
    }
}

#[test]
fn split_fraction_controls_the_ledger() {
    let g = barabasi_albert(100, 4, 2);
    let out = CargoSystem::new(CargoConfig {
        split_fraction: 0.25,
        ..CargoConfig::new(2.0).with_seed(1)
    })
    .run(&g);
    assert!((out.ledger[0].1 - 0.5).abs() < 1e-9, "Max gets 0.25*2");
    assert!((out.ledger[1].1 - 1.5).abs() < 1e-9, "Perturb gets 0.75*2");
}

#[test]
fn noise_is_actually_present_at_small_epsilon() {
    // A DP mechanism that returns the exact count is broken. At tiny ε
    // the output must differ from the exact (projected) count
    // essentially always, and by a lot.
    let g = barabasi_albert(100, 4, 3);
    let mut big_deviation = 0;
    const RUNS: u64 = 30;
    for s in 0..RUNS {
        let out = CargoSystem::new(CargoConfig::new(0.1).with_seed(s * 2654435761)).run(&g);
        if (out.noisy_count - out.projected_count as f64).abs() > 10.0 {
            big_deviation += 1;
        }
    }
    assert!(
        big_deviation > RUNS / 2,
        "only {big_deviation}/{RUNS} runs deviated at eps=0.1"
    );
}

#[test]
fn accountant_blocks_overdraft_in_sequence() {
    let mut acc = PrivacyAccountant::new(PrivacyBudget::new(1.0));
    acc.spend("q1", 0.6).unwrap();
    assert!(acc.spend("q2", 0.6).is_err());
    acc.spend("q2-retry", 0.4).unwrap();
    assert_eq!(acc.remaining(), 0.0);
    assert_eq!(acc.ledger().len(), 2);
}

#[test]
fn partial_noise_alone_is_insufficient_but_aggregate_is_sufficient() {
    // The design principle of Algorithm 5: each user's γᵢ has variance
    // 2λ²/n ("insufficient to provide an LDP guarantee"), while the sum
    // has the full central-model variance 2λ².
    let n = 100;
    let dist = DistributedLaplace::new(n, 20.0, 1.0); // λ = 20
    let mut rng = StdRng::seed_from_u64(4);
    const TRIALS: usize = 30_000;
    let partials: Vec<f64> = (0..TRIALS).map(|_| dist.sample_partial(&mut rng)).collect();
    let partial_var = variance(&partials);
    let full_var = dist.aggregate_variance();
    assert!(
        partial_var < full_var / (n as f64) * 1.3,
        "partial variance {partial_var} vs full {full_var}"
    );
    // γᵢ = Gam(1/n) − Gam(1/n) is symmetric and must match its
    // documented per-user variance; the difference of two small-shape
    // Gammas is extremely heavy-tailed, hence the large kurtosis
    // factor in the CLT band.
    assert_mean_close("partial noise", &partials, 0.0, partial_var, DEFAULT_Z);
    assert_variance_close(
        "partial noise",
        &partials,
        dist.partial_variance(),
        3.0 * n as f64,
        DEFAULT_Z,
    );
    assert_sign_balanced("partial noise", &partials, DEFAULT_Z);
}

#[test]
fn epsilon_controls_output_concentration() {
    // Empirical DP sanity: at fixed seed set, the spread of outputs
    // shrinks monotonically as ε grows through the paper's sweep.
    let g = barabasi_albert(150, 5, 5);
    let t = cargo_repro::graph::count_triangles(&g) as f64;
    let spread = |eps: f64| -> f64 {
        (0..12u64)
            .map(|s| {
                let out =
                    CargoSystem::new(CargoConfig::new(eps).with_seed(s * 7907 + 3)).run(&g);
                (out.noisy_count - t).abs()
            })
            .sum::<f64>()
            / 12.0
    };
    let s05 = spread(0.5);
    let s30 = spread(3.0);
    assert!(
        s05 > 2.0 * s30,
        "spread at eps=0.5 ({s05}) vs eps=3 ({s30})"
    );
}
