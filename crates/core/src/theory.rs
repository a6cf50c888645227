//! Table II — closed-form theoretical bounds.
//!
//! | | CentralLap△ | CARGO | Local2Rounds△ |
//! |---|---|---|---|
//! | Server | trusted | untrusted | untrusted |
//! | Privacy | ε-Edge CDP | (ε₁+ε₂)-Edge DDP | ε-Edge LDP |
//! | Utility | O(d²_max/ε²) | O(d'²_max/ε₂²) | O(e^ε/(e^ε−1)² (d³_max n + e^ε/ε² d²_max n)) |
//! | Time | O(1) | O(n³) | O(n² + n d²_max) |
//!
//! The utility rows are expected-l2-loss bounds; for the two Laplace
//! mechanisms we report the *exact* variance `2λ²` rather than the
//! O-constant-free form, so the experiment harness can overlay theory
//! curves on the measured ones.

/// Expected l2 loss of `CentralLap△`: variance of `Lap(d_max/ε)`.
fn central_lap_expected_l2(d_max: f64, epsilon: f64) -> f64 {
    assert!(epsilon > 0.0);
    2.0 * (d_max / epsilon).powi(2)
}

/// Expected l2 loss of CARGO's perturbation: variance of
/// `Lap(d'_max/ε₂)` (Theorem 6; projection loss excluded as in the
/// paper's analysis).
pub fn cargo_expected_l2(d_max_noisy: f64, epsilon2: f64) -> f64 {
    assert!(epsilon2 > 0.0);
    2.0 * (d_max_noisy / epsilon2).powi(2)
}

/// Upper bound on the expected l2 loss of `Local2Rounds△`
/// (Imola et al., Table 2 of \[11\], as cited in the paper):
/// `e^ε/(e^ε−1)² · (d³_max·n + e^ε/ε² · d²_max·n)`.
fn local2rounds_expected_l2(d_max: f64, n: f64, epsilon: f64) -> f64 {
    assert!(epsilon > 0.0);
    let ee = epsilon.exp();
    let front = ee / ((ee - 1.0) * (ee - 1.0));
    front * (d_max.powi(3) * n + ee / (epsilon * epsilon) * d_max.powi(2) * n)
}

/// Asymptotic time complexities of Table II, as printable strings.
pub fn time_complexity(protocol: &str) -> &'static str {
    match protocol {
        "CentralLap" => "O(1)",
        "CARGO" => "O(n^3)",
        "Local2Rounds" => "O(n^2 + n*d_max^2)",
        _ => "unknown",
    }
}

/// The headline comparison the paper's abstract makes: CARGO's expected
/// error is within a constant of the central model and orders of
/// magnitude below the local model. Returns
/// `(central, cargo, local)` expected l2 losses under the paper's
/// ε split.
pub fn table2_comparison(d_max: f64, d_max_noisy: f64, n: f64, epsilon: f64) -> (f64, f64, f64) {
    let eps2 = 0.9 * epsilon;
    (
        central_lap_expected_l2(d_max, epsilon),
        cargo_expected_l2(d_max_noisy, eps2),
        local2rounds_expected_l2(d_max, n, epsilon),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_variance_formula() {
        assert_eq!(central_lap_expected_l2(10.0, 1.0), 200.0);
        assert_eq!(central_lap_expected_l2(10.0, 2.0), 50.0);
    }

    #[test]
    fn cargo_close_to_central_when_dmax_estimates_well() {
        // With d'_max ≈ d_max and ε₂ = 0.9ε, CARGO's bound is
        // (1/0.9)² ≈ 1.23× the central bound.
        let c = central_lap_expected_l2(100.0, 2.0);
        let g = cargo_expected_l2(100.0, 1.8);
        assert!((g / c - (1.0f64 / 0.81)).abs() < 1e-9);
        assert!(g < 2.0 * c, "CARGO within 2x of central");
    }

    #[test]
    fn local_model_is_orders_of_magnitude_worse() {
        // The paper's headline: ≥ 5 orders of utility improvement.
        let (central, cargo, local) = table2_comparison(1000.0, 1010.0, 2000.0, 2.0);
        assert!(local / cargo > 1e4, "ratio {}", local / cargo);
        assert!(cargo / central < 10.0);
    }

    #[test]
    fn local_error_grows_linearly_in_n() {
        let a = local2rounds_expected_l2(100.0, 1000.0, 1.0);
        let b = local2rounds_expected_l2(100.0, 2000.0, 1.0);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn error_decreases_with_epsilon() {
        assert!(
            local2rounds_expected_l2(100.0, 1000.0, 3.0)
                < local2rounds_expected_l2(100.0, 1000.0, 0.5)
        );
        assert!(cargo_expected_l2(50.0, 3.0) < cargo_expected_l2(50.0, 0.5));
    }

    #[test]
    fn complexity_strings() {
        assert_eq!(time_complexity("CARGO"), "O(n^3)");
        assert_eq!(time_complexity("CentralLap"), "O(1)");
        assert_eq!(time_complexity("Local2Rounds"), "O(n^2 + n*d_max^2)");
        assert_eq!(time_complexity("???"), "unknown");
    }
}
