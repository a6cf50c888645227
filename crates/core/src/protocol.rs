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
//! [`CargoOutput`] also carries diagnostics a real deployment would
//! never see (the exact count, the projected exact count): they exist
//! because this is a reproduction and the experiments must decompose
//! the error into projection loss vs perturbation error (Theorems 5/6).

use crate::config::{CargoConfig, TransportKind};
use crate::count::{count_local, CountJob, SecureCountResult};
use crate::count_runtime::count_two_party;
use crate::count_sched::SchedulePlan;
use crate::max_degree::{estimate_max_degree, MaxDegreeEstimate};
use crate::perturb::{perturb, PerturbInputs};
use crate::projection::project_matrix;
use cargo_dp::{FixedPointCodec, PrivacyAccountant, PrivacyBudget};
use cargo_graph::{count_triangles_matrix, BitMatrix, Graph};
use cargo_mpc::{NetStats, OfflineMode, TcpConfig, TcpTransport};
use std::sync::Arc;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Tweak XORed into the root seed to derive the users'
/// noise-share-splitting seed (Algorithm 5).
pub(crate) const NOISE_SEED_TWEAK: u64 = 0xD00F;

/// Step 1 of Algorithm 1 (`Max` then `Project`), shared verbatim by
/// [`CargoSystem::run`] and [`crate::party::run_party`]: both shapes
/// must derive the identical projected matrix from the public seed.
#[derive(Debug, Clone)]
pub(crate) struct ProjectedInput {
    /// The (possibly projected) adjacency matrix the Count runs on.
    pub matrix: BitMatrix,
    /// The noisy max-degree estimate (projection parameter Δ source).
    pub max_est: MaxDegreeEstimate,
    /// Users whose rows projection truncated.
    pub truncated_users: usize,
    /// Wall-clock of the `Max` round.
    pub t_max: Duration,
    /// Wall-clock of the `Project` round.
    pub t_project: Duration,
}

/// Runs `Max` (ε₁) then `Project` on `graph` — see [`ProjectedInput`].
pub(crate) fn max_and_project<R: Rng + ?Sized>(
    graph: &Graph,
    cfg: &CargoConfig,
    rng: &mut R,
) -> ProjectedInput {
    let split = cfg.epsilon_split();
    let t0 = Instant::now();
    let degrees = graph.degrees();
    let max_est = estimate_max_degree(&degrees, split.epsilon1, rng);
    let t_max = t0.elapsed();
    let t0 = Instant::now();
    let matrix = graph.to_bit_matrix();
    let theta = max_est.as_parameter();
    let (matrix, truncated_users) = if cfg.projection {
        let res = project_matrix(&matrix, &degrees, &max_est.noisy_degrees, theta);
        (res.matrix, res.truncated_users)
    } else {
        (matrix, 0)
    };
    ProjectedInput {
        matrix,
        max_est,
        truncated_users,
        t_max,
        t_project: t0.elapsed(),
    }
}

/// The perturbation sensitivity Δ both deployment shapes use: one edge
/// change affects at most `d'_max` triangles after projection (the
/// paper's Δ; without projection it is `n`).
pub(crate) fn count_sensitivity(cfg: &CargoConfig, max_est: &MaxDegreeEstimate, n: usize) -> f64 {
    if cfg.projection {
        max_est.as_sensitivity()
    } else {
        n as f64
    }
}

/// Step 2 of Algorithm 1 for the in-process pipelines
/// ([`CargoSystem::run`], [`crate::node_dp::run_node_dp`]): `Count`
/// over the projected matrix, preceded by the offline phase (trusted
/// dealer or OT extension per `cfg.offline` — shares are identical
/// either way, the offline ledger in `net.offline` differs).
///
/// `cfg.schedule` selects the fully-oblivious dense cube or the
/// candidate-driven sparse walk over the projected support (modeling a
/// deployment where the candidate structure is public — see
/// PROTOCOL.md § "Sparse Count schedule" for the leakage analysis);
/// surviving-triple shares are bit-identical either way, so the
/// reconstructed count — and hence the noisy release — does not depend
/// on this choice. `cfg.transport` selects the wire: the in-process
/// fast kernel, or both server pools over real loopback TCP sockets —
/// shares and ledgers are bit-identical across transports, but TCP
/// *measures* the byte ledger.
pub(crate) fn count_projected(cfg: &CargoConfig, projected: &BitMatrix) -> SecureCountResult {
    let job = CountJob::from_config(cfg, SchedulePlan::for_support(cfg.schedule, projected));
    if job.pool.enabled() && job.offline != OfflineMode::OtExtension {
        eprintln!(
            "warning: --factory-threads only applies to --offline-mode ot \
             (the trusted dealer has no offline phase to pool); running inline"
        );
    }
    match cfg.transport {
        TransportKind::Memory => count_local(projected, &job),
        TransportKind::Tcp => {
            let tcp = TcpConfig { recv_timeout: cfg.recv_timeout, ..TcpConfig::default() };
            let (end1, end2, _) = TcpTransport::loopback_pair(&tcp).expect("loopback socket pair");
            count_two_party(projected, &job, &Arc::new(end1), &Arc::new(end2))
        }
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
        let cfg = &self.config;
        let split = cfg.epsilon_split();
        let mut accountant = PrivacyAccountant::new(PrivacyBudget::new(cfg.epsilon));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = graph.n();
        assert!(n > 0, "graph must have at least one user");

        // ---- Step 1: similarity-based projection ----
        let input = max_and_project(graph, cfg, &mut rng);
        accountant
            .spend("Max (Algorithm 2)", split.epsilon1)
            .expect("budget split cannot exceed the cap");
        let ProjectedInput {
            matrix: projected,
            max_est,
            truncated_users,
            t_max,
            t_project,
        } = input;

        // ---- Step 2: ASS-based triangle counting ----
        let t0 = Instant::now();
        let count = count_projected(cfg, &projected);
        let t_count = t0.elapsed();

        // ---- Step 3: distributed perturbation ----
        let t0 = Instant::now();
        let sensitivity = count_sensitivity(cfg, &max_est, n);
        let perturbed = perturb(PerturbInputs {
            share1: count.share1,
            share2: count.share2,
            n_users: n,
            sensitivity,
            epsilon2: split.epsilon2,
            codec: FixedPointCodec::new(cfg.frac_bits),
            noise_rng: &mut rng,
            share_seed: cfg.seed ^ NOISE_SEED_TWEAK,
        });
        accountant
            .spend("Perturb (Algorithm 5)", split.epsilon2)
            .expect("budget split cannot exceed the cap");
        let t_perturb = t0.elapsed();

        let mut net = count.net;
        net.merge(&perturbed.net);

        CargoOutput {
            noisy_count: perturbed.noisy_count,
            true_count: cargo_graph::count_triangles(graph),
            projected_count: count_triangles_matrix(&projected),
            d_max_noisy: max_est.d_max_noisy,
            truncated_users,
            timings: StepTimings {
                max: t_max,
                project: t_project,
                count: t_count,
                perturb: t_perturb,
            },
            net,
            upload_elements: count.upload_elements + perturbed.upload_elements,
            ledger: accountant.ledger().to_vec(),
        }
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
        let out = CargoSystem::new(
            CargoConfig::new(2.0).with_seed(4).without_projection(),
        )
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
        assert_eq!(ot.net.offline.base_ots, 256);
    }

    #[test]
    fn pooled_factory_changes_nothing_but_the_counters() {
        use cargo_mpc::OfflineMode;
        let g = erdos_renyi(40, 0.2, 7);
        let base = CargoConfig::new(2.0)
            .with_seed(13)
            .with_offline(OfflineMode::OtExtension);
        let inline = CargoSystem::new(base).run(&g);
        let pooled = CargoSystem::new(base.with_factory_threads(2).with_pool_depth(2)).run(&g);
        // Same output, same full ledger (offline included) — the pool
        // only moves *where* preprocessing runs.
        assert_eq!(pooled.noisy_count, inline.noisy_count);
        assert_eq!(pooled.projected_count, inline.projected_count);
        assert_eq!(pooled.net, inline.net, "modeled ledger unchanged");
    }

    #[test]
    fn tcp_transport_changes_nothing_but_measures_the_wire() {
        use crate::TransportKind;
        let g = erdos_renyi(50, 0.25, 6);
        let base = CargoConfig::new(2.0).with_seed(3).with_threads(2);
        let mem = CargoSystem::new(base).run(&g);
        let tcp = CargoSystem::new(base.with_transport(TransportKind::Tcp)).run(&g);
        assert_eq!(tcp.noisy_count, mem.noisy_count, "bit-identical output");
        assert_eq!(tcp.projected_count, mem.projected_count);
        assert_eq!(tcp.net, mem.net, "measured wire == modeled ledger");
        assert_eq!(tcp.net.wire_bytes, tcp.net.online().bytes);
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
