//! One deployable party of the CARGO pipeline.
//!
//! [`CargoSystem`](crate::CargoSystem) simulates both servers in one
//! process; this module is the *deployment* shape: [`run_party`] plays
//! exactly one of S₁/S₂ — max-degree estimation, projection, the
//! sharded secure count, and the distributed perturbation — against a
//! live peer on the other end of a [`Transport`]. The `party` binary
//! wraps it so the full pipeline runs as **two real OS processes over
//! loopback (or cross-machine) TCP**.
//!
//! ## What is local, what crosses the wire
//!
//! * **Input shares** — each party expands only *its own* share matrix
//!   ([`party_input_shares`]): what its users uploaded to it. The
//!   party holds the plaintext graph solely to play its users; the
//!   count itself touches only the shares.
//! * **Max + Project** — the noisy max degree and the projection are
//!   deterministic in the public seed (the DP noise of Algorithm 2 is
//!   drawn from the seeded public coin), so both parties compute them
//!   identically with no communication, as both servers of the paper
//!   hold `d'_max` and the users project their own rows.
//! * **Count** — every `e, f, g` opening crosses the wire as an
//!   encoded [`cargo_mpc::OpeningMsg`] frame; in OT mode the whole
//!   preprocessing dialogue does too.
//! * **Perturb** — the users' noise-share uploads are replayed
//!   deterministically ([`aggregate_noise_shares`]); the final noisy
//!   shares are opened over the wire ([`cargo_mpc::FinalOpeningMsg`]),
//!   which is the pipeline's last modeled exchange.
//!
//! Both parties therefore compute **the same noisy count, the same
//! full modeled [`NetStats`], and the same measured `wire_bytes`** —
//! each party tallies the bidirectional model itself and measures
//! `sent + received` on its own endpoint. The CI `tcp-smoke` job
//! diffs the two processes' transcripts against an in-memory
//! reference run ([`run_party_local`]) line by line.

use crate::config::CargoConfig;
use crate::count::CountJob;
use crate::count_runtime::count_party;
use crate::count_sched::SchedulePlan;
use crate::perturb::aggregate_noise_shares;
use crate::protocol::{count_sensitivity, max_and_project, NOISE_SEED_TWEAK};
use cargo_dp::FixedPointCodec;
use cargo_graph::{count_triangles_matrix, Graph};
use cargo_mpc::{
    memory_pair, recv_msg, send_msg, FinalOpeningMsg, NetStats, Ring64, ServerId, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

pub use crate::count_runtime::party_input_shares;

/// Everything one party's pipeline run produces. Both parties of a run
/// produce identical reports except for [`PartyReport::count_share`]
/// (each holds only its own share — the one secret field).
#[derive(Debug, Clone, PartialEq)]
pub struct PartyReport {
    /// Which server this party played.
    pub role: ServerId,
    /// The `(ε₁+ε₂)`-Edge-DDP triangle estimate `T'` — identical on
    /// both parties (each opens the same pair of final shares).
    pub noisy_count: f64,
    /// This party's share `⟨T⟩ᵢ` of the exact count (never leaves the
    /// process un-noised).
    pub count_share: Ring64,
    /// The noisy maximum degree used as projection parameter.
    pub d_max_noisy: f64,
    /// Users whose rows were truncated by projection.
    pub truncated_users: usize,
    /// Diagnostic (simulation only): the exact count after projection.
    pub projected_count: u64,
    /// The full bidirectional modeled ledger — count rounds plus the
    /// final opening — with `wire_bytes` overwritten by the bytes this
    /// party's endpoint actually measured (sent + received), which
    /// must equal the modeled `online().bytes` exactly.
    pub net: NetStats,
    /// Triples the count evaluated.
    pub triples: u64,
    /// Offline triple-factory counters (zero when preprocessing ran
    /// inline); both parties' pools fill and drain identically.
    pub pool: cargo_mpc::PoolStats,
}

/// Runs the full pipeline as server `role` against a live peer over
/// `link`. Panics (loudly) if the peer disconnects or wedges past the
/// link's [`Transport::recv_timeout`].
pub fn run_party<T: Transport>(
    graph: &Graph,
    cfg: &CargoConfig,
    role: ServerId,
    link: &Arc<T>,
) -> PartyReport {
    let split = cfg.epsilon_split();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = graph.n();
    assert!(n > 0, "graph must have at least one user");

    // ---- Step 1: similarity-based projection (local, seeded — the
    // exact step CargoSystem::run executes, shared code) ----
    let input = max_and_project(graph, cfg, &mut rng);
    let (projected, max_est, truncated_users) =
        (input.matrix, input.max_est, input.truncated_users);

    // ---- Step 2: ASS-based triangle counting (over the wire; with
    // --factory-threads in OT mode, preprocessing runs on this
    // party's local background triple pool instead). Both parties
    // derive the projected matrix from the same public seed, so each
    // builds the identical sparse candidate plan locally — the plan is
    // a pure function of shared public state, never a message. ----
    let job = CountJob::from_config(cfg, SchedulePlan::for_support(cfg.schedule, &projected));
    let count = count_party(&projected, &job, role, link);
    let count_share = match role {
        ServerId::S1 => count.share1,
        ServerId::S2 => count.share2,
    };
    let mut net = count.net;

    // ---- Step 3: distributed perturbation (opening over the wire) ----
    let sensitivity = count_sensitivity(cfg, &max_est, n);
    let codec = FixedPointCodec::new(cfg.frac_bits);
    let (gamma1, gamma2) = aggregate_noise_shares(
        n,
        sensitivity,
        split.epsilon2,
        codec,
        &mut rng,
        cfg.seed ^ NOISE_SEED_TWEAK,
    );
    let my_gamma = match role {
        ServerId::S1 => gamma1,
        ServerId::S2 => gamma2,
    };
    let my_final = codec.lift_integer(count_share) + my_gamma;
    send_msg(&**link, &FinalOpeningMsg { share: my_final })
        .expect("peer hung up before the final opening");
    let theirs: FinalOpeningMsg = recv_msg(&**link, 0, Some(link.recv_timeout()))
        .unwrap_or_else(|e| panic!("peer lost at the final opening: {e}"));
    net.exchange(1);
    let noisy_count = codec.decode(my_final + theirs.share);

    // Measured == modeled, now including the final opening.
    net.wire_bytes = link.stats().online_payload_both();

    PartyReport {
        role,
        noisy_count,
        count_share,
        d_max_noisy: max_est.d_max_noisy,
        truncated_users,
        projected_count: count_triangles_matrix(&projected),
        net,
        triples: count.triples,
        pool: count.pool,
    }
}

/// The in-process reference run: both parties over the two ends of an
/// in-memory byte link, via the *same* [`run_party`] code path the TCP
/// processes execute. Returns `(S₁'s report, S₂'s report)` after
/// asserting the two parties opened the same noisy count.
///
/// `party --role local` prints this run in the same transcript format
/// as `--role s1`/`--role s2`, so the CI smoke can diff a two-process
/// loopback run against it byte for byte.
pub fn run_party_local(graph: &Graph, cfg: &CargoConfig) -> (PartyReport, PartyReport) {
    let (end1, end2) = memory_pair();
    let (end1, end2) = (Arc::new(end1), Arc::new(end2));
    let (r1, r2) = std::thread::scope(|scope| {
        let h1 = {
            let end1 = &end1;
            scope.spawn(move || run_party(graph, cfg, ServerId::S1, end1))
        };
        let h2 = {
            let end2 = &end2;
            scope.spawn(move || run_party(graph, cfg, ServerId::S2, end2))
        };
        (
            h1.join().expect("party S1 panicked"),
            h2.join().expect("party S2 panicked"),
        )
    });
    assert_eq!(
        r1.noisy_count, r2.noisy_count,
        "the two parties opened different noisy counts"
    );
    (r1, r2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CargoSystem;
    use cargo_graph::generators::{barabasi_albert, erdos_renyi};

    #[test]
    fn party_pipeline_reproduces_the_monolithic_system_bit_for_bit() {
        // The acceptance criterion at pipeline level: two parties over
        // a real byte link open the exact noisy count the in-process
        // CargoSystem computes from the same seed/config, with the
        // same online ledger, and the measured wire equals the model.
        let g = barabasi_albert(80, 4, 3);
        for (threads, batch) in [(1usize, 0usize), (2, 16)] {
            let cfg = CargoConfig::new(2.0)
                .with_seed(11)
                .with_threads(threads)
                .with_batch(batch);
            let mono = CargoSystem::new(cfg).run(&g);
            let (r1, r2) = run_party_local(&g, &cfg);
            assert_eq!(r1.noisy_count, mono.noisy_count, "t={threads} b={batch}");
            assert_eq!(r1.d_max_noisy, mono.d_max_noisy);
            assert_eq!(r1.truncated_users, mono.truncated_users);
            assert_eq!(r1.projected_count, mono.projected_count);
            assert_eq!(r1.net, mono.net, "party ledger == monolithic ledger");
            assert_eq!(r2.net, mono.net, "both parties report the same ledger");
            assert_eq!(r1.net.wire_bytes, r1.net.online().bytes, "measured == modeled");
            assert_ne!(r1.count_share, r2.count_share, "shares stay split");
        }
    }

    #[test]
    fn party_pipeline_in_ot_mode_carries_the_offline_ledger() {
        use cargo_mpc::OfflineMode;
        let g = erdos_renyi(30, 0.3, 5);
        let cfg = CargoConfig::new(2.0)
            .with_seed(4)
            .with_offline(OfflineMode::OtExtension);
        let mono = CargoSystem::new(cfg).run(&g);
        let (r1, r2) = run_party_local(&g, &cfg);
        assert_eq!(r1.noisy_count, mono.noisy_count);
        assert_eq!(r1.net, mono.net, "offline ledger included");
        assert_eq!(r2.net, mono.net);
        assert!(!r1.net.offline.is_empty());
    }

    #[test]
    fn pooled_party_pipeline_matches_the_inline_ot_run() {
        use cargo_mpc::OfflineMode;
        let g = erdos_renyi(30, 0.3, 5);
        let base = CargoConfig::new(2.0)
            .with_seed(4)
            .with_threads(2)
            .with_offline(OfflineMode::OtExtension);
        let (i1, _) = run_party_local(&g, &base);
        let pooled_cfg = base.with_factory_threads(2).with_pool_depth(1);
        let (p1, p2) = run_party_local(&g, &pooled_cfg);
        assert_eq!(p1.noisy_count, i1.noisy_count);
        assert_eq!(p1.count_share, i1.count_share, "bit-identical shares");
        assert_eq!(p1.net, i1.net, "modeled ledger unchanged by pooling");
        assert!(p1.pool.fills > 0, "the factory actually ran");
        assert_eq!(p1.pool, p2.pool, "both parties' pools fill identically");
        assert_eq!(i1.pool, cargo_mpc::PoolStats::default());
    }

    #[test]
    fn sparse_party_pipeline_opens_the_dense_noisy_count() {
        let g = barabasi_albert(70, 4, 13);
        let base = CargoConfig::new(2.0).with_seed(6).with_threads(2);
        let (d1, _) = run_party_local(&g, &base);
        let sparse_cfg = base.with_schedule(crate::ScheduleKind::Sparse);
        let mono = CargoSystem::new(sparse_cfg).run(&g);
        let (s1, s2) = run_party_local(&g, &sparse_cfg);
        // Same release as the dense schedule, same ledger as the
        // sparse monolithic run, far fewer evaluated triples.
        assert_eq!(s1.noisy_count, d1.noisy_count, "schedule-invariant release");
        assert_eq!(s1.noisy_count, mono.noisy_count);
        assert_eq!(s1.net, mono.net, "party ledger == sparse monolithic ledger");
        assert_eq!(s2.net, mono.net);
        assert_eq!(s1.net.wire_bytes, s1.net.online().bytes, "measured == modeled");
        assert!(s1.triples < d1.triples / 10, "{} vs {}", s1.triples, d1.triples);
    }

    #[test]
    fn reports_are_identical_except_the_secret_share() {
        let g = barabasi_albert(60, 3, 9);
        let cfg = CargoConfig::new(1.5).with_seed(2);
        let (r1, mut r2) = run_party_local(&g, &cfg);
        assert_eq!(r1.role, ServerId::S1);
        assert_eq!(r2.role, ServerId::S2);
        // Erase the two fields that legitimately differ…
        r2.role = ServerId::S1;
        r2.count_share = r1.count_share;
        // …and everything else must match exactly.
        assert_eq!(r1, r2);
    }
}
