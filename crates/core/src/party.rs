//! One deployable party of the CARGO pipeline, and the seam every
//! pipeline shape runs over.
//!
//! [`EpochParty`] is the one place the deployments differ: how the
//! Count runs and how a release opens. [`InProcess`] plays both servers
//! in one process; [`Wire`] plays exactly one of S₁/S₂ against a live
//! peer on the other end of a [`Transport`]. Algorithm 1's one step
//! sequence ([`crate::protocol`]) runs over it for the one-shot
//! pipeline, and [`crate::session::ServeSession`] for every serve
//! epoch.
//!
//! [`try_run_party`] is that sequence over a [`Wire`] — max-degree
//! estimation, projection, the sharded secure count and the distributed
//! perturbation — and the `party` binary wraps it so the full pipeline
//! runs as **two real OS processes over loopback (or cross-machine)
//! TCP**.
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
//! * **Count** — every pair opening (the `e, f, g` of the triples that
//!   read the pair) crosses the wire in a [`cargo_mpc::PairOpeningMsg`]
//!   frame, once per Count — once per run in serve mode, whose Counts
//!   keep the openings ([`OpenedPairs`]); in OT mode the whole
//!   preprocessing dialogue does too.
//! * **Perturb** — the users' noise-share uploads are replayed
//!   deterministically ([`crate::aggregate_noise_shares`]); the final
//!   noisy shares are opened with one [`FinalOpeningMsg`] each way,
//!   the pipeline's last modeled exchange. Only a serve epoch runs the
//!   [`CommitMsg`] handshake first.
//!
//! Both parties therefore compute **the same noisy count, the same
//! full modeled [`NetStats`], and the same measured `wire_bytes`** —
//! each party tallies the bidirectional model itself and measures
//! `sent + received` on its own endpoint. The CI `tcp-smoke` job
//! diffs the two processes' transcripts against an in-memory
//! reference run ([`run_party_local`]) line by line.

use crate::config::CargoConfig;
use crate::count::{count_local_reusing, CountFailure, CountJob, SecureCountResult};
use crate::count_runtime::count_party_reusing;
use crate::pair_phase::OpenedPairs;
use crate::protocol::{algorithm1, DpUnit};
use crate::session::SessionError;
use cargo_graph::{BitMatrix, Graph};
use cargo_mpc::{
    memory_pair, recv_msg, send_msg, CommitMsg, FinalOpeningMsg, IntoFrame, NetStats, Ring64,
    ServerId, Transport, WireMessage,
};
use std::fmt;
use std::sync::Arc;

pub use crate::count_runtime::party_input_shares;

/// How a pipeline runs its Count and opens its release — the one thing
/// the in-process shapes and a wire role do differently.
pub trait EpochParty {
    /// One Count of `job` over `matrix`, through the run's kept
    /// openings where the caller keeps them (a serve session does; a
    /// one-shot run passes `None`). Its `wire_bytes` are the Count's
    /// own: what its frames carried on a link, the modeled bytes in
    /// process. The caller measures the wire past the Count through
    /// [`payload`](Self::payload). A wire Count fails with its peer.
    fn count(
        &self,
        matrix: &BitMatrix,
        job: &CountJob,
        opened: Option<&mut OpenedPairs>,
    ) -> Result<SecureCountResult, CountFailure>;

    /// Agrees with the peer on `commit` (a serve epoch and its
    /// post-apply state digest) before the epoch opens its release.
    /// The one-shot pipeline has nothing to agree on and never calls it.
    fn commit(&self, commit: CommitMsg) -> Result<(), SessionError>;

    /// Opens a release from the fixed-point final shares `(f₁, f₂)` —
    /// both live in process, only the own role's on the wire. Returns
    /// the opened ring value.
    fn open(&self, finals: (Ring64, Ring64)) -> Result<Ring64, SessionError>;

    /// Online payload moved over the link so far, both directions;
    /// `None` without a link (the modeled bytes stand).
    fn payload(&self) -> Option<u64>;
}

/// Both servers in one process: [`count_local_reusing`] fills both
/// share slots and the release opens locally. (Public because
/// [`crate::Session`] names it.)
#[derive(Debug)]
pub struct InProcess;

impl EpochParty for InProcess {
    fn count(
        &self,
        matrix: &BitMatrix,
        job: &CountJob,
        opened: Option<&mut OpenedPairs>,
    ) -> Result<SecureCountResult, CountFailure> {
        Ok(count_local_reusing(matrix, job, opened))
    }

    fn commit(&self, _: CommitMsg) -> Result<(), SessionError> {
        Ok(())
    }

    fn open(&self, (f1, f2): (Ring64, Ring64)) -> Result<Ring64, SessionError> {
        Ok(f1 + f2)
    }

    fn payload(&self) -> Option<u64> {
        None
    }
}

/// One server over a [`Transport`] link: its Count — [`count_party`](crate::count_party),
/// through the run's kept openings in serve mode — fills the own role's
/// share slot (the other stays zero), and a release opens with one
/// [`FinalOpeningMsg`] each way.
pub struct Wire<T> {
    role: ServerId,
    link: Arc<T>,
}

impl<T: Transport> Wire<T> {
    /// Server `role` on its end of `link`.
    pub(crate) fn new(role: ServerId, link: Arc<T>) -> Self {
        Wire { role, link }
    }

    pub(crate) fn send(&self, what: &str, msg: impl IntoFrame) -> Result<(), SessionError> {
        send_msg(&*self.link, msg).map_err(|e| SessionError::Peer(format!("{what} send: {e}")))
    }

    pub(crate) fn recv<M: WireMessage>(&self, what: &str) -> Result<M, SessionError> {
        recv_msg(&*self.link, 0, Some(self.link.recv_timeout()))
            .map_err(|e| SessionError::Peer(format!("{what} recv: {e}")))
    }
}

impl<T: Transport> EpochParty for Wire<T> {
    fn count(
        &self,
        matrix: &BitMatrix,
        job: &CountJob,
        opened: Option<&mut OpenedPairs>,
    ) -> Result<SecureCountResult, CountFailure> {
        count_party_reusing(matrix, job, self.role, &self.link, opened)
    }

    fn commit(&self, commit: CommitMsg) -> Result<(), SessionError> {
        // Idempotent epoch-commit handshake: agree on the epoch id and
        // post-apply state digest *before* any noise share crosses the
        // wire. A desynced pair (one party replayed a different script,
        // resumed from a stale journal, …) stops typed here instead of
        // publishing forked releases. CommitMsg payload rides outside
        // both cost classes, so the measured online payload still
        // equals the modeled ledger.
        self.send("epoch commit", commit)?;
        let peer: CommitMsg = self.recv("epoch commit")?;
        agree("committed epoch", commit.epoch, peer.epoch)?;
        agree("state digest", commit.digest, peer.digest)
    }

    fn open(&self, finals: (Ring64, Ring64)) -> Result<Ring64, SessionError> {
        let mine = own_slot(self.role, finals);
        self.send("final opening", FinalOpeningMsg { share: mine })?;
        let theirs: FinalOpeningMsg = self.recv("final opening")?;
        Ok(mine + theirs.share)
    }

    fn payload(&self) -> Option<u64> {
        Some(self.link.stats().online_payload_both())
    }
}

/// `Ok` when the two parties' `what` agree, else [`SessionError::Desync`].
pub(crate) fn agree(what: &'static str, ours: u64, theirs: u64) -> Result<(), SessionError> {
    if ours == theirs {
        Ok(())
    } else {
        Err(SessionError::Desync { what, ours, theirs })
    }
}

/// `role`'s slot of a share pair.
fn own_slot(role: ServerId, (s1, s2): (Ring64, Ring64)) -> Ring64 {
    match role {
        ServerId::S1 => s1,
        ServerId::S2 => s2,
    }
}

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
}

/// Why a one-shot run stopped before its release: its peer hung up,
/// stalled past the link's receive timeout or went off this server's
/// cut. Its text is `peer failure at the <step>: <cause>`, with no
/// epoch in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartyError(String);

impl PartyError {
    /// `step` failed with a [`CountFailure`] or the link's [`SessionError::Peer`].
    pub(crate) fn at(step: &str, e: impl Into<SessionError>) -> Self {
        let cause = match e.into() { SessionError::Peer(cause) => cause, e => e.to_string() };
        PartyError(format!("peer failure at the {step}: {cause}"))
    }
}

impl fmt::Display for PartyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PartyError {}

/// Runs the full pipeline as server `role` against a live peer over
/// `link`; a [`PartyError`] if the peer disconnects, wedges past the
/// link's [`Transport::recv_timeout`] or runs another job.
pub fn try_run_party<T: Transport>(
    graph: &Graph,
    cfg: &CargoConfig,
    role: ServerId,
    link: &Arc<T>,
) -> Result<PartyReport, PartyError> {
    let run = algorithm1(graph, cfg, DpUnit::Edge, &Wire::new(role, Arc::clone(link)))?;
    Ok(PartyReport {
        role,
        noisy_count: run.noisy_count,
        count_share: own_slot(role, (run.count.share1, run.count.share2)),
        d_max_noisy: run.d_max_noisy,
        truncated_users: run.truncated_users,
        projected_count: run.projected_count,
        net: run.net,
        triples: run.count.triples,
    })
}

/// Pinned by `benchmark/src/sut.rs`, which calls it positionally and
/// reads the report: [`try_run_party`], panicking with its error's text.
#[doc(hidden)]
pub fn run_party<T: Transport>(graph: &Graph, cfg: &CargoConfig, role: ServerId, link: &Arc<T>) -> PartyReport {
    try_run_party(graph, cfg, role, link).unwrap_or_else(|e| panic!("{e}"))
}

/// The in-process reference run: both parties over the two ends of an
/// in-memory byte link, via the *same* [`try_run_party`] code path the
/// TCP processes execute. Returns `(S₁'s report, S₂'s report)` after
/// asserting the two parties opened the same noisy count; S₁'s
/// [`PartyError`] if its run failed, else S₂'s.
///
/// `party --role local` prints this run in the same transcript format
/// as `--role s1`/`--role s2`, so the CI smoke can diff a two-process
/// loopback run against it byte for byte.
pub fn run_party_local(graph: &Graph, cfg: &CargoConfig) -> Result<(PartyReport, PartyReport), PartyError> {
    run_pair(graph, [cfg, cfg])
}

/// [`run_party_local`] with a config per role (S₁'s, S₂'s).
fn run_pair(graph: &Graph, cfgs: [&CargoConfig; 2]) -> Result<(PartyReport, PartyReport), PartyError> {
    let (end1, end2) = memory_pair();
    let ends = [Arc::new(end1), Arc::new(end2)];
    let [r1, r2] = std::thread::scope(|scope| {
        [(ServerId::S1, &ends[0], cfgs[0]), (ServerId::S2, &ends[1], cfgs[1])]
            .map(|(id, end, cfg)| scope.spawn(move || try_run_party(graph, cfg, id, end)))
            .map(|party| party.join().expect("a party's thread panicked"))
    });
    let (r1, r2) = (r1?, r2?);
    assert_eq!(r1.noisy_count, r2.noisy_count, "the two parties opened different noisy counts");
    Ok((r1, r2))
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
            let cfg = CargoConfig {
                batch,
                ..CargoConfig::new(2.0).with_seed(11).with_threads(threads)
            };
            let mono = CargoSystem::new(cfg).run(&g);
            let (r1, r2) = run_party_local(&g, &cfg).unwrap();
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
        let (r1, r2) = run_party_local(&g, &cfg).unwrap();
        assert_eq!(r1.noisy_count, mono.noisy_count);
        assert_eq!(r1.net, mono.net, "offline ledger included");
        assert_eq!(r2.net, mono.net);
        assert!(!r1.net.offline.is_empty());
    }

    #[test]
    fn sparse_party_pipeline_opens_the_dense_noisy_count() {
        let g = barabasi_albert(70, 4, 13);
        let base = CargoConfig::new(2.0).with_seed(6).with_threads(2);
        let (d1, _) = run_party_local(&g, &base).unwrap();
        let sparse_cfg = base.with_schedule(crate::ScheduleKind::Sparse);
        let mono = CargoSystem::new(sparse_cfg).run(&g);
        let (s1, s2) = run_party_local(&g, &sparse_cfg).unwrap();
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
    fn a_diverged_peer_surfaces_its_round_through_the_local_run() {
        // Two parties handed different batches disagree from the first
        // round on. The local run must return the party's own failure,
        // naming the round, not a generic "party failed".
        let g = erdos_renyi(30, 0.3, 21);
        let cfg = CargoConfig { batch: 16, ..CargoConfig::new(2.0).with_seed(17).with_threads(1) };
        let peer = CargoConfig { batch: 24, ..cfg };
        let text = run_pair(&g, [&cfg, &peer]).expect_err("a diverged pair must not open a count").to_string();
        assert!(text.contains("peer slab size mismatch in the round at pair round 0"), "{text}");
    }

    #[test]
    fn mismatched_offline_modes_stop_at_the_first_foreign_frame() {
        // S₁ runs dealer mode, S₂ OT mode: their pair rounds agree, then
        // S₁ sends its final opening while S₂ sends its first key
        // flight. Each must refuse the other's frame as it arrives —
        // long before the link's stall bound — and name its type.
        use cargo_mpc::{memory_pair_with_timeout, OfflineMode};
        let g = erdos_renyi(40, 0.3, 5);
        let dealer = CargoConfig::new(2.0).with_seed(4);
        let ot = dealer.with_offline(OfflineMode::OtExtension);
        let stall = std::time::Duration::from_secs(60);
        let (end1, end2) = memory_pair_with_timeout(stall);
        let (end1, end2) = (Arc::new(end1), Arc::new(end2));
        let started = std::time::Instant::now();
        let (r1, r2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| try_run_party(&g, &dealer, ServerId::S1, &end1));
            let h2 = scope.spawn(|| try_run_party(&g, &ot, ServerId::S2, &end2));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert!(started.elapsed() < stall / 2, "failed on the first foreign frame, not on the timeout");
        let text = |outcome: Result<PartyReport, PartyError>| {
            outcome.expect_err("a mismatched pair must not open a count").to_string()
        };
        let (t1, t2) = (text(r1), text(r2));
        assert!(t1.contains("got an offline flight (type 3, tag 0) where a final opening"), "{t1}");
        assert!(t2.contains("got a final opening (type 4, tag 0) where an offline flight"), "{t2}");
        assert!(t2.contains("peer out of lockstep during offline dialogue"), "{t2}");
        assert!(!t2.contains("peer lost"), "a frame out of lockstep is no lost peer: {t2}");
        for text in [&t1, &t2] {
            assert!(!text.contains("mid-epoch"), "a one-shot run has no epoch: {text}");
        }
    }

    #[test]
    fn reports_are_identical_except_the_secret_share() {
        let g = barabasi_albert(60, 3, 9);
        let cfg = CargoConfig::new(1.5).with_seed(2);
        let (r1, mut r2) = run_party_local(&g, &cfg).unwrap();
        assert_eq!(r1.role, ServerId::S1);
        assert_eq!(r2.role, ServerId::S2);
        // Erase the two fields that legitimately differ…
        r2.role = ServerId::S1;
        r2.count_share = r1.count_share;
        // …and everything else must match exactly.
        assert_eq!(r1, r2);
    }
}
