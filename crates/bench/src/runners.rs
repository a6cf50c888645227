//! Trial runners: execute each protocol repeatedly and aggregate the
//! paper's utility metrics.

use cargo_baselines::{
    central_lap_triangles, local2rounds_triangles, Local2RoundsConfig,
};
use cargo_core::{l2_loss, relative_error, CargoConfig, CargoSystem};
use cargo_graph::Graph;
use cargo_mpc::NetStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Derives a well-separated per-trial seed. The naive `seed ^ trial`
/// scheme is NOT enough: `StdRng` streams for nearby seeds consume the
/// same uniform draws at the same positions, so every (dataset, ε)
/// cell of a figure would reuse one rescaled noise realisation. A full
/// SplitMix64 avalanche over (seed, trial, ε bits, n) decorrelates
/// every cell.
pub fn trial_seed(seed: u64, trial: usize, epsilon: f64, fingerprint: usize) -> u64 {
    let mut z = seed
        ^ (trial as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ epsilon.to_bits().rotate_left(17)
        ^ (fingerprint as u64).wrapping_mul(0xA24BAED4963EE407);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A graph fingerprint for seed derivation: distinguishes datasets
/// that share the same n (the sweep keeps n fixed across datasets).
fn fingerprint(g: &Graph) -> usize {
    g.n().wrapping_mul(1_000_003).wrapping_add(g.edge_count())
}

/// Aggregated utility of one protocol at one parameter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityPoint {
    /// Mean l2 loss over trials.
    pub l2: f64,
    /// Mean relative error over trials.
    pub rel: f64,
    /// Mean wall-clock time per trial.
    pub time: Duration,
    /// Mean wall-clock time of the `Count` step only (CARGO; zero for
    /// baselines).
    pub count_time: Duration,
    /// Server↔server traffic of the last trial (CARGO only; identical
    /// across trials up to the noisy projection's trims). Carries the
    /// offline ledger when the run used `OfflineMode::OtExtension`.
    pub net: NetStats,
    /// Triples the last trial's Count evaluated (CARGO only).
    pub triples: u64,
}

fn aggregate(
    t_true: f64,
    estimates: &[f64],
    times: &[Duration],
    count_times: &[Duration],
    (net, triples): (NetStats, u64),
) -> UtilityPoint {
    let n = estimates.len().max(1) as u32;
    UtilityPoint {
        net,
        triples,
        l2: estimates.iter().map(|&e| l2_loss(t_true, e)).sum::<f64>() / n as f64,
        rel: estimates
            .iter()
            .map(|&e| relative_error(t_true, e))
            .sum::<f64>()
            / n as f64,
        time: times.iter().sum::<Duration>() / n,
        count_time: count_times.iter().sum::<Duration>() / n,
    }
}

/// Runs CARGO `trials` times under a pipeline configuration (the
/// CLI's is [`crate::cli::Options::config`]) and aggregates. `cfg.seed`
/// is the root seed: each trial runs under its own [`trial_seed`]
/// derived from it.
pub fn run_cargo_with(g: &Graph, trials: usize, cfg: &CargoConfig) -> UtilityPoint {
    let t_true = cargo_graph::count_triangles(g) as f64;
    let mut estimates = Vec::with_capacity(trials);
    let mut times = Vec::with_capacity(trials);
    let mut count_times = Vec::with_capacity(trials);
    let (mut net, mut triples) = (NetStats::new(), 0);
    for t in 0..trials {
        let cfg = cfg.with_seed(trial_seed(cfg.seed, t, cfg.epsilon, fingerprint(g)));
        let start = Instant::now();
        let out = CargoSystem::new(cfg).run(g);
        times.push(start.elapsed());
        count_times.push(out.timings.count);
        estimates.push(out.noisy_count);
        (net, triples) = (out.net, out.triples);
    }
    aggregate(t_true, &estimates, &times, &count_times, (net, triples))
}

/// Runs CentralLap△ `trials` times and aggregates.
pub fn run_central(g: &Graph, epsilon: f64, trials: usize, seed: u64) -> UtilityPoint {
    let t_true = cargo_graph::count_triangles(g) as f64;
    let mut estimates = Vec::with_capacity(trials);
    let mut times = Vec::with_capacity(trials);
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(trial_seed(seed ^ 0xA5A5, t, epsilon, fingerprint(g)));
        let start = Instant::now();
        let out = central_lap_triangles(g, epsilon, &mut rng);
        times.push(start.elapsed());
        estimates.push(out.noisy_count);
    }
    aggregate(t_true, &estimates, &times, &[Duration::ZERO], (NetStats::new(), 0))
}

/// Runs Local2Rounds△ `trials` times and aggregates.
pub fn run_local2rounds(g: &Graph, epsilon: f64, trials: usize, seed: u64) -> UtilityPoint {
    let t_true = cargo_graph::count_triangles(g) as f64;
    let mut estimates = Vec::with_capacity(trials);
    let mut times = Vec::with_capacity(trials);
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(trial_seed(seed ^ 0x5A5A, t, epsilon, fingerprint(g)));
        let start = Instant::now();
        let out = local2rounds_triangles(g, Local2RoundsConfig::paper_split(epsilon), &mut rng);
        times.push(start.elapsed());
        estimates.push(out.noisy_count);
    }
    aggregate(t_true, &estimates, &times, &[Duration::ZERO], (NetStats::new(), 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_core::{OfflineMode, ScheduleKind};
    use cargo_graph::generators::barabasi_albert;

    #[test]
    fn runners_produce_finite_metrics() {
        let g = barabasi_albert(100, 4, 1);
        // OT preprocessing costs ~512 COTs per triple, so its smoke
        // point uses a small graph (equivalence to dealer mode is
        // pinned exhaustively in crates/core).
        let small = barabasi_albert(30, 3, 1);
        let cfg = CargoConfig::new(2.0).with_seed(1);
        let sharded = CargoConfig {
            batch: 16,
            ..cfg.with_threads(2)
        };
        for point in [
            run_cargo_with(&g, 2, &cfg),
            run_cargo_with(&g, 2, &sharded),
            run_cargo_with(&small, 1, &cfg.with_threads(1).with_offline(OfflineMode::OtExtension)),
            run_cargo_with(&g, 2, &sharded.with_schedule(ScheduleKind::Sparse)),
            run_central(&g, 2.0, 2, 1),
            run_local2rounds(&g, 2.0, 2, 1),
        ] {
            assert!(point.l2.is_finite() && point.l2 >= 0.0);
            assert!(point.rel.is_finite() && point.rel >= 0.0);
        }
    }

    #[test]
    fn ot_mode_surfaces_an_offline_ledger_through_the_runner() {
        let g = barabasi_albert(30, 3, 2);
        let cfg = CargoConfig::new(2.0).with_seed(1).with_threads(1);
        let dealer = run_cargo_with(&g, 1, &cfg);
        let ot = run_cargo_with(&g, 1, &cfg.with_offline(OfflineMode::OtExtension));
        assert!(dealer.net.offline.is_empty());
        assert!(ot.net.offline.bytes > 0);
        assert_eq!(ot.net.online(), dealer.net.online());
    }

    #[test]
    fn utility_ordering_matches_paper_at_default_epsilon() {
        // central ≤ cargo ≪ local — the headline of Figs. 5/6. The
        // release is schedule-invariant, so the sparse schedule gives
        // the dense cube's numbers without walking C(300, 3) triples.
        let g = barabasi_albert(300, 6, 2);
        let trials = 8;
        let central = run_central(&g, 2.0, trials, 3);
        let sparse = CargoConfig::new(2.0)
            .with_seed(3)
            .with_schedule(ScheduleKind::Sparse);
        let cargo = run_cargo_with(&g, trials, &sparse);
        let local = run_local2rounds(&g, 2.0, trials, 3);
        assert!(
            local.l2 > cargo.l2,
            "local {} should exceed cargo {}",
            local.l2,
            cargo.l2
        );
        assert!(
            cargo.l2 < 100.0 * central.l2.max(1.0),
            "cargo {} should be within ~constant of central {}",
            cargo.l2,
            central.l2
        );
    }
}
