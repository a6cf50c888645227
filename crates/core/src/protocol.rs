//! Algorithm 1 — the overall CARGO protocol.
//!
//! Wires the three steps together exactly as the paper's system
//! architecture (Fig. 2) describes:
//!
//! 1. **Similarity-based projection** — `Max` (ε₁) then `Project`.
//! 2. **ASS-based triangle counting** — `Count` over the projected
//!    matrix, yielding `⟨T⟩₁, ⟨T⟩₂`.
//! 3. **Distributed perturbation** — `Perturb` (ε₂), yielding `T'`
//!    under `(ε₁ + ε₂)`-Edge DDP (Theorem 4).
//!
//! The steps are written once: one private step sequence, generic over
//! the party seam ([`EpochParty`]) and taking the DP unit (edge / node)
//! as a value. [`CargoSystem::run`] and [`crate::node_dp::run_node_dp`]
//! run it with both servers in this process, [`crate::party::try_run_party`]
//! as one server over a link.
//!
//! [`CargoOutput`] also carries diagnostics a real deployment would
//! never see (the exact count, the projected exact count): they exist
//! because this is a reproduction and the experiments must decompose
//! the error into projection loss vs perturbation error (Theorems 5/6).

use crate::config::CargoConfig;
use crate::count::{CountJob, SecureCountResult};
use crate::count_sched::SchedulePlan;
use crate::max_degree::{noisy_max_degree, MaxDegreeEstimate};
use crate::node_dp::node_dp_count_sensitivity;
use crate::party::{EpochParty, InProcess, PartyError};
use crate::perturb::aggregate_noise_shares;
use crate::projection::project_matrix;
use cargo_dp::{FixedPointCodec, PrivacyAccountant, PrivacyBudget};
use cargo_graph::{count_triangles_matrix, Graph};
use cargo_mpc::NetStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Tweak XORed into the root seed to derive the users'
/// noise-share-splitting seed (Algorithm 5).
pub(crate) const NOISE_SEED_TWEAK: u64 = 0xD00F;

/// The unit of adjacency the pipeline hides (Section III-B): one edge,
/// or one user with all her edges. It decides Max's Laplace scale,
/// Perturb's sensitivity and the two ledger labels; every other step of
/// Algorithm 1 is the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DpUnit {
    /// ε-Edge DDP ([`CargoSystem::run`], [`crate::party::try_run_party`]).
    Edge,
    /// ε-Node DDP ([`crate::node_dp::run_node_dp`]).
    Node,
}

impl DpUnit {
    /// Each user's `Lap` scale in `Max`: one edge moves one degree by
    /// one, one node up to `n` degrees.
    pub(crate) fn max_scale(self, n: usize, epsilon1: f64) -> f64 {
        match self {
            DpUnit::Edge => 1.0 / epsilon1,
            DpUnit::Node => n as f64 / epsilon1,
        }
    }

    /// Perturb's Δ: after projection to `d'_max` one edge closes at
    /// most `d'_max` triangles and one node `C(d'_max, 2)`; without
    /// projection, `n` and `C(n − 1, 2)`.
    fn sensitivity(self, projection: bool, max_est: &MaxDegreeEstimate, n: usize) -> f64 {
        match (self, projection) {
            (DpUnit::Edge, true) => max_est.as_sensitivity(),
            (DpUnit::Edge, false) => n as f64,
            (DpUnit::Node, true) => node_dp_count_sensitivity(max_est.d_max_noisy),
            (DpUnit::Node, false) => node_dp_count_sensitivity(n as f64 - 1.0),
        }
    }

    /// The ε ledger's `(Max, Perturb)` labels.
    fn labels(self) -> (&'static str, &'static str) {
        match self {
            DpUnit::Edge => ("Max (Algorithm 2)", "Perturb (Algorithm 5)"),
            DpUnit::Node => ("Max (Node DP)", "Perturb (Node DP)"),
        }
    }
}

/// What one run of [`algorithm1`] computes, whichever [`EpochParty`]
/// ran it.
pub(crate) struct Run {
    /// The Count: both share slots in process, the own role's on a wire.
    pub count: SecureCountResult,
    /// The opened release `T'`.
    pub noisy_count: f64,
    /// `d'_max`.
    pub d_max_noisy: f64,
    /// Users whose rows projection truncated.
    pub truncated_users: usize,
    /// Diagnostic: the exact count of the projected matrix.
    pub projected_count: u64,
    /// The Count's ledger plus the final opening; `wire_bytes` measured
    /// when the party has a link.
    pub net: NetStats,
    /// Per-step wall-clock.
    pub timings: StepTimings,
    /// The ε ledger.
    pub ledger: Vec<(String, f64)>,
}

/// Algorithm 1, the one step sequence of every one-shot shape: `Max`
/// (ε₁) → `Project` → `Count` → `Perturb` (ε₂), over `party`.
///
/// Every random choice comes from the public seed in a fixed order —
/// the `Max` noise, then the users' Gamma draws from the same rng, with
/// their share splitting under `seed ^ NOISE_SEED_TWEAK` — so both wire
/// parties derive the identical projected matrix, schedule plan and
/// noise with no communication, and every shape opens the same `T'`.
///
/// `cfg.schedule` selects the fully-oblivious dense cube or the
/// candidate-driven sparse walk over the projected support (modeling a
/// deployment where the candidate structure is public — see
/// PROTOCOL.md § "Sparse Count schedule" for the leakage analysis);
/// surviving-triple shares are bit-identical either way, so the release
/// does not depend on this choice.
///
/// # Errors
/// A [`PartyError`] naming the step — the Count or the final opening —
/// at which the peer was lost or went off this server's cut.
///
/// # Panics
/// Panics if the graph has no nodes or the config is invalid.
pub(crate) fn algorithm1<P: EpochParty>(
    graph: &Graph,
    cfg: &CargoConfig,
    unit: DpUnit,
    party: &P,
) -> Result<Run, PartyError> {
    let split = cfg.epsilon_split();
    let (max_label, perturb_label) = unit.labels();
    let mut accountant = PrivacyAccountant::new(PrivacyBudget::new(cfg.epsilon));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = graph.n();
    assert!(n > 0, "graph must have at least one user");

    // ---- Step 1: similarity-based projection ----
    let t0 = Instant::now();
    let degrees = graph.degrees();
    let max_est = noisy_max_degree(&degrees, unit.max_scale(n, split.epsilon1), &mut rng);
    accountant
        .spend(max_label, split.epsilon1)
        .expect("budget split cannot exceed the cap");
    let t_max = t0.elapsed();
    let t0 = Instant::now();
    let mut matrix = graph.to_bit_matrix();
    let mut truncated_users = 0;
    if cfg.projection {
        let res = project_matrix(&matrix, &degrees, &max_est.noisy_degrees, max_est.as_parameter());
        (matrix, truncated_users) = (res.matrix, res.truncated_users);
    }
    let t_project = t0.elapsed();

    // ---- Step 2: ASS-based triangle counting (the plan is a pure
    // function of shared public state, never a message) ----
    let t0 = Instant::now();
    let job = CountJob::from_config(cfg, SchedulePlan::for_support(cfg.schedule, &matrix));
    let count = party.count(&matrix, &job, None).map_err(|e| PartyError::at("Count", e))?;
    let t_count = t0.elapsed();

    // ---- Step 3: distributed perturbation ----
    let t0 = Instant::now();
    let codec = FixedPointCodec::new(cfg.frac_bits);
    let (gamma1, gamma2) = aggregate_noise_shares(
        n,
        unit.sensitivity(cfg.projection, &max_est, n),
        split.epsilon2,
        codec,
        &mut rng,
        cfg.seed ^ NOISE_SEED_TWEAK,
    );
    let finals = (
        codec.lift_integer(count.share1) + gamma1,
        codec.lift_integer(count.share2) + gamma2,
    );
    let opened = party.open(finals).map_err(|e| PartyError::at("final opening", e))?;
    accountant
        .spend(perturb_label, split.epsilon2)
        .expect("budget split cannot exceed the cap");
    let t_perturb = t0.elapsed();

    let mut net = count.net;
    net.exchange(1); // the final opening
    if let Some(payload) = party.payload() {
        // Measured == modeled, the final opening included.
        net.wire_bytes = payload;
    }
    Ok(Run {
        noisy_count: codec.decode(opened),
        d_max_noisy: max_est.d_max_noisy,
        truncated_users,
        projected_count: count_triangles_matrix(&matrix),
        net,
        timings: StepTimings {
            max: t_max,
            project: t_project,
            count: t_count,
            perturb: t_perturb,
        },
        ledger: accountant.ledger().to_vec(),
        count,
    })
}

/// [`algorithm1`] with both servers in this process.
pub(crate) fn run_in_process(graph: &Graph, cfg: &CargoConfig, unit: DpUnit) -> CargoOutput {
    let run = algorithm1(graph, cfg, unit, &InProcess).expect("an in-process run has no peer to lose");
    CargoOutput {
        noisy_count: run.noisy_count,
        true_count: cargo_graph::count_triangles(graph),
        projected_count: run.projected_count,
        d_max_noisy: run.d_max_noisy,
        truncated_users: run.truncated_users,
        timings: run.timings,
        net: run.net,
        // Input shares plus one noise share to each server per user.
        upload_elements: run.count.upload_elements + 2 * graph.n() as u64,
        triples: run.count.triples,
        ledger: run.ledger,
    }
}

/// Wall-clock timing of each pipeline step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimings {
    /// Algorithm 2 (`Max`).
    pub max: Duration,
    /// Algorithm 3 (`Project`).
    pub project: Duration,
    /// Algorithm 4 (`Count`) — the paper's dominant cost (Fig. 12).
    pub count: Duration,
    /// Algorithm 5 (`Perturb`).
    pub perturb: Duration,
}

impl StepTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.max + self.project + self.count + self.perturb
    }

    /// Fraction of total time spent in the secure count.
    pub fn count_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.count.as_secs_f64() / total
    }
}

/// Everything a CARGO run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CargoOutput {
    /// The `(ε₁+ε₂)`-Edge-DDP triangle estimate `T'` — the only value
    /// released to the analyst.
    pub noisy_count: f64,
    /// Diagnostic: the exact triangle count `T` of the input graph.
    pub true_count: u64,
    /// Diagnostic: the exact count after projection `T̂` (so that
    /// `T − T̂` is the projection loss of Theorem 5 and `T' − T̂` the
    /// perturbation error of Theorem 6).
    pub projected_count: u64,
    /// The noisy maximum degree `d'_max` used as projection parameter
    /// and sensitivity.
    pub d_max_noisy: f64,
    /// Users whose rows were truncated by projection.
    pub truncated_users: usize,
    /// Per-step wall-clock timings.
    pub timings: StepTimings,
    /// Server↔server communication (count + perturb phases).
    pub net: NetStats,
    /// Ring elements uploaded by users (input shares + noise shares).
    pub upload_elements: u64,
    /// Triples the Count evaluated (`C(n, 3)` on the dense cube).
    pub triples: u64,
    /// The ε ledger: `(mechanism, ε)` entries summing to the budget.
    pub ledger: Vec<(String, f64)>,
}

/// The CARGO system: two semi-honest non-colluding servers plus `n`
/// users, simulated in-process.
#[derive(Debug, Clone, Copy)]
pub struct CargoSystem {
    config: CargoConfig,
}

impl CargoSystem {
    /// Creates a system with the given configuration.
    pub fn new(config: CargoConfig) -> Self {
        CargoSystem { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CargoConfig {
        &self.config
    }

    /// Runs Algorithm 1 end to end on `graph` (each node = one user
    /// holding her adjacency row).
    ///
    /// # Panics
    /// Panics if the graph has no nodes or the config is invalid.
    pub fn run(&self, graph: &Graph) -> CargoOutput {
        run_in_process(graph, &self.config, DpUnit::Edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_graph::generators::{barabasi_albert, erdos_renyi};

    #[test]
    fn end_to_end_is_accurate_at_large_epsilon() {
        let g = barabasi_albert(250, 6, 3);
        let t = cargo_graph::count_triangles(&g) as f64;
        let out = CargoSystem::new(CargoConfig::new(8.0).with_seed(1).with_threads(2)).run(&g);
        assert_eq!(out.true_count as f64, t);
        // At ε = 8 the noise scale is ~d'max/7.2; relative error small.
        let rel = (out.noisy_count - t).abs() / t;
        assert!(rel < 0.25, "relative error {rel} too large (T={t}, T'={})", out.noisy_count);
    }

    #[test]
    fn error_decomposes_into_projection_and_perturbation() {
        let g = barabasi_albert(200, 5, 7);
        let out = CargoSystem::new(CargoConfig::new(4.0).with_seed(2).with_threads(2)).run(&g);
        // Projection can only lose triangles.
        assert!(out.projected_count <= out.true_count);
        // The perturbation is centred on the projected count.
        assert!(out.projected_count > 0);
    }

    #[test]
    fn ledger_sums_to_total_budget() {
        let g = erdos_renyi(60, 0.2, 5);
        let out = CargoSystem::new(CargoConfig::new(2.0).with_seed(3)).run(&g);
        let spent: f64 = out.ledger.iter().map(|(_, e)| e).sum();
        assert!((spent - 2.0).abs() < 1e-9, "ledger total {spent}");
        assert_eq!(out.ledger.len(), 2);
        assert!(out.ledger[0].0.contains("Max"));
        assert!(out.ledger[1].0.contains("Perturb"));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = erdos_renyi(70, 0.15, 9);
        let cfg = CargoConfig::new(1.0).with_seed(42).with_threads(2);
        let a = CargoSystem::new(cfg).run(&g);
        let b = CargoSystem::new(cfg).run(&g);
        assert_eq!(a.noisy_count, b.noisy_count);
        assert_eq!(a.d_max_noisy, b.d_max_noisy);
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let g = erdos_renyi(70, 0.15, 9);
        let a = CargoSystem::new(CargoConfig::new(1.0).with_seed(1)).run(&g);
        let b = CargoSystem::new(CargoConfig::new(1.0).with_seed(2)).run(&g);
        assert_ne!(a.noisy_count, b.noisy_count);
        assert_eq!(a.true_count, b.true_count);
    }

    #[test]
    fn disabling_projection_keeps_all_triangles_but_more_noise() {
        let g = barabasi_albert(150, 5, 11);
        let t = cargo_graph::count_triangles(&g);
        let out = CargoSystem::new(CargoConfig {
            projection: false,
            ..CargoConfig::new(2.0).with_seed(4)
        })
        .run(&g);
        assert_eq!(out.projected_count, t, "no projection ⇒ no loss");
        assert_eq!(out.truncated_users, 0);
    }

    #[test]
    fn ot_offline_mode_changes_only_the_offline_ledger() {
        use cargo_mpc::OfflineMode;
        let g = erdos_renyi(40, 0.2, 7);
        let base = CargoConfig::new(2.0).with_seed(13);
        let dealer = CargoSystem::new(base).run(&g);
        let ot = CargoSystem::new(base.with_offline(OfflineMode::OtExtension)).run(&g);
        // Same noise, same counts, same online traffic — end to end.
        assert_eq!(ot.noisy_count, dealer.noisy_count);
        assert_eq!(ot.projected_count, dealer.projected_count);
        assert_eq!(ot.net.online(), dealer.net.online());
        assert!(dealer.net.offline.is_empty());
        assert!(ot.net.offline.bytes > 0, "offline phase is costed");
        assert!(ot.net.offline.rounds > 0);
        assert_eq!(ot.net.offline.base_ots, 128, "one base-OT direction");
    }

    #[test]
    fn sparse_schedule_releases_the_same_noisy_count_for_far_fewer_triples() {
        use crate::ScheduleKind;
        let g = barabasi_albert(120, 4, 17);
        let base = CargoConfig::new(2.0).with_seed(8).with_threads(2);
        let dense = CargoSystem::new(base).run(&g);
        let sparse = CargoSystem::new(base.with_schedule(ScheduleKind::Sparse)).run(&g);
        // The non-candidate triples contribute exactly zero to the
        // reconstruction, so skipping them changes the release not at
        // all — while the evaluated triple count collapses from C(n,3)
        // to the candidate mass.
        assert_eq!(sparse.noisy_count, dense.noisy_count, "bit-identical release");
        assert_eq!(sparse.projected_count, dense.projected_count);
        assert!(
            sparse.net.elements < dense.net.elements / 10,
            "sparse {} vs dense {} online elements",
            sparse.net.elements,
            dense.net.elements
        );
    }

    #[test]
    fn timings_and_accounting_are_populated() {
        let g = erdos_renyi(80, 0.2, 1);
        let out = CargoSystem::new(CargoConfig::new(2.0).with_seed(5)).run(&g);
        assert!(out.timings.count > Duration::ZERO);
        assert!(out.timings.count_fraction() > 0.0);
        assert!(out.net.elements > 0);
        assert!(out.upload_elements >= 2 * 80 * 80);
    }

    #[test]
    fn unbiasedness_across_seeds() {
        // Average of many runs should approach the projected count.
        let g = barabasi_albert(100, 4, 21);
        let mut sum = 0.0;
        let mut proj = 0.0;
        const RUNS: usize = 60;
        for s in 0..RUNS {
            let out =
                CargoSystem::new(CargoConfig::new(2.0).with_seed(s as u64).with_threads(2)).run(&g);
            sum += out.noisy_count;
            proj += out.projected_count as f64;
        }
        let mean = sum / RUNS as f64;
        let proj_mean = proj / RUNS as f64;
        let tol = proj_mean * 0.15 + 50.0;
        assert!(
            (mean - proj_mean).abs() < tol,
            "mean {mean} vs projected mean {proj_mean}"
        );
    }
}
