//! The continuous-release epoch loop: `apply deltas → incremental
//! count → per-epoch DP release`.
//!
//! A serve session starts from a base graph, runs a baseline sparse
//! count of it (share state only — nothing is published), and then
//! consumes delta batches. Each committed batch is one **epoch**, and
//! [`ServeSession::step`] is its one implementation:
//!
//! 1. check every delta's endpoints against the graph, then ask the
//!    [`ReleaseSchedule`] for a grant — a malformed batch or a refusal
//!    (budget or horizon exhausted) stops the epoch *before* any ε is
//!    charged, any graph mutation, or any wire traffic;
//! 2. apply the batch through [`IncrementalCounter`], which securely
//!    evaluates only the created and destroyed triangles in one signed
//!    Count — through the session's kept pair openings
//!    ([`OpenedPairs`]), so the Count exchanges only the pairs no
//!    earlier Count of the run opened;
//! 3. add the grant's node noises to the cumulative shares and open
//!    one noisy total count.
//!
//! Noise is attached to the schedule's [`TreeNode`]s, not to epochs:
//! node `ν`'s Laplace shares are derived deterministically from
//! `seed ⊕ NOISE_TWEAK ⊕ mix(ν.id())`, so under binary-tree
//! composition every release that covers `ν` reuses the *same* noise
//! (the tree mechanism's correctness requirement), and the two wire
//! parties derive identical γ-shares with no extra communication.
//!
//! Serve mode runs **without projection**: a per-epoch θ would change
//! the truncated matrix under the incremental counter and break
//! bit-equivalence with from-scratch runs, so the sensitivity is the
//! no-projection bound `Δ = n` and the whole ε is metered by the
//! schedule. A projected/padded continuous mode is a ROADMAP item.
//!
//! What differs between deployments is only how an epoch's Count runs
//! and how its release opens — the [`EpochParty`] a session is built
//! over, the same seam the one-shot pipeline runs over. [`Session`]
//! plays both servers in process (the `--role local` reference; its
//! Count is always in memory); [`PartySession`] is one role over a real
//! [`Transport`] link ([`Wire`]), the only shape whose epochs run the
//! [`CommitMsg`] handshake. Their per-epoch [`EpochOutcome`]s are
//! bit-identical, which is what lets CI diff a two-process TCP serve
//! transcript against the local one.

use crate::config::CargoConfig;
use crate::count::{CountFailure, CountJob, SecureCountResult};
use crate::count_sched::SchedulePlan;
use crate::delta::{check_batch, EdgeDelta, EpochCount, IncrementalCounter};
use crate::pair_phase::OpenedPairs;
use crate::party::{agree, EpochParty, InProcess, Wire};
use crate::perturb::aggregate_noise_shares;
use crate::protocol::NOISE_SEED_TWEAK;
use cargo_dp::{Composition, FixedPointCodec, ReleaseGrant, ReleaseRefused, ReleaseSchedule, TreeNode};
use cargo_graph::{BitMatrix, Graph, GraphError};
use cargo_mpc::{CommitMsg, NetStats, Ring64, ServerId, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, Lines};
use std::sync::Arc;
/// Everything one epoch publishes. Role-independent: both wire
/// parties and the in-process reference produce identical outcomes
/// (the transcript CI diffs them byte for byte).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// 1-based epoch number (== the schedule's release counter).
    pub epoch: u64,
    /// The released noisy triangle count of the *current* graph.
    pub noisy_count: f64,
    /// Non-redundant deltas applied this epoch.
    pub applied: usize,
    /// Redundant deltas skipped this epoch.
    pub redundant: usize,
    /// Triangles born this epoch.
    pub created: u64,
    /// Triangles destroyed this epoch.
    pub destroyed: u64,
    /// Triples securely evaluated this epoch.
    pub triples: u64,
    /// Fresh ε charged to the accountant by this release (0 for
    /// tree-composition epochs whose levels were already paid for).
    pub charged: f64,
    /// Per-node ε of the grant's noise nodes.
    pub node_epsilon: f64,
    /// Cumulative ε spent after this release.
    pub spent: f64,
    /// [`crate::state_digest`] of the post-epoch state: what the commit
    /// handshake agrees on and the journal records.
    pub digest: u64,
    /// This epoch's server↔server traffic (its one signed Count + the
    /// final opening). `wire_bytes` is measured on wire sessions and always
    /// equals the modeled `bytes`.
    pub net: NetStats,
}

/// Why a serve session stopped (or refused to start an epoch).
#[derive(Debug)]
pub enum SessionError {
    /// The release schedule refused the epoch — ε or horizon
    /// exhausted. The graph and shares are untouched; this is the
    /// clean end of a session's release lifetime.
    Refused(ReleaseRefused),
    /// A delta referenced an invalid edge (out of range / self-loop).
    Graph(GraphError),
    /// The peer died, the link failed or the peer went off this
    /// server's cut mid-epoch — in a Count ([`CountFailure`]'s text) or
    /// a frame exchange. No release was opened for the epoch; the
    /// session is poisoned.
    Peer(String),
    /// A malformed line in a delta script.
    Script {
        /// 1-based line number.
        line: usize,
        /// What failed to parse.
        message: String,
    },
    /// The epoch-commit handshake found the two parties in different
    /// states — different committed epoch or different state digest.
    /// Proceeding would fork the release transcript, so the session
    /// stops before opening anything.
    Desync {
        /// Which handshake field disagreed.
        what: &'static str,
        /// Our side's value.
        ours: u64,
        /// The peer's value.
        theirs: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Refused(r) => write!(f, "{r}"),
            SessionError::Graph(e) => write!(f, "bad delta: {e}"),
            SessionError::Peer(msg) => write!(f, "peer failure mid-epoch: {msg}"),
            SessionError::Script { line, message } => write!(f, "delta script line {line}: {message}"),
            SessionError::Desync { what, ours, theirs } => {
                write!(f, "parties desynced on {what}: ours {ours:#x}, theirs {theirs:#x}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ReleaseRefused> for SessionError {
    fn from(r: ReleaseRefused) -> Self {
        SessionError::Refused(r)
    }
}

impl From<GraphError> for SessionError {
    fn from(e: GraphError) -> Self {
        SessionError::Graph(e)
    }
}

impl From<CountFailure> for SessionError {
    fn from(e: CountFailure) -> Self {
        SessionError::Peer(e.to_string())
    }
}

/// Mixes a [`TreeNode`] id into a seed tweak (the id's raw form is
/// small and structured; the multiply spreads it over the word).
fn node_tweak(node: TreeNode) -> u64 {
    node.id().wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Schedule + per-node noise cache.
struct ReleaseState {
    schedule: ReleaseSchedule,
    codec: FixedPointCodec,
    sensitivity: f64,
    n: usize,
    seed: u64,
    /// Node id → `(γ₁, γ₂)`. Deterministic, so the cache is purely an
    /// optimisation — but it documents the tree mechanism's intent:
    /// one noise draw per node, reused by every release covering it.
    node_noise: HashMap<u64, (Ring64, Ring64)>,
}

impl ReleaseState {
    fn new(cfg: &CargoConfig, n: usize) -> Self {
        let schedule = match cfg.composition {
            Composition::Fixed => ReleaseSchedule::fixed(cfg.epsilon, cfg.horizon),
            Composition::BinaryTree => ReleaseSchedule::binary_tree(cfg.epsilon, cfg.horizon),
        };
        ReleaseState {
            schedule,
            codec: FixedPointCodec::new(cfg.frac_bits),
            sensitivity: n as f64,
            n,
            seed: cfg.seed,
            node_noise: HashMap::new(),
        }
    }

    /// Sum of the grant's node noise shares, `(Σγ₁, Σγ₂)`.
    fn gammas(&mut self, grant: &ReleaseGrant) -> (Ring64, Ring64) {
        let mut g1 = Ring64::ZERO;
        let mut g2 = Ring64::ZERO;
        for &node in &grant.nodes {
            let (n_users, sensitivity, codec, seed, eps) =
                (self.n, self.sensitivity, self.codec, self.seed, grant.node_epsilon);
            let (a, b) = *self.node_noise.entry(node.id()).or_insert_with(|| {
                let tweak = node_tweak(node);
                aggregate_noise_shares(
                    n_users,
                    sensitivity,
                    eps,
                    codec,
                    &mut StdRng::seed_from_u64(seed ^ NOISE_SEED_TWEAK ^ tweak),
                    seed ^ NOISE_SEED_TWEAK ^ tweak.rotate_left(32),
                )
            });
            g1 += a;
            g2 += b;
        }
        (g1, g2)
    }
}

/// A continuous-release session over an [`EpochParty`]: the baseline
/// count, the release schedule and the one epoch [`step`](Self::step).
/// Used as [`Session`] or [`PartySession`].
///
/// A failure after an epoch's grant — a peer lost mid-epoch (a
/// [`CountFailure`] or a failed frame exchange: disconnect at once,
/// timeout after the link's [`Transport::recv_timeout`]) or a commit
/// handshake that finds the pair desynced ([`SessionError::Desync`]) —
/// emits **no** release for the epoch, keeps its grant spent, and
/// poisons the session.
pub struct ServeSession<P> {
    party: P,
    job: CountJob,
    /// Every pair opening the run's Counts have exchanged: each Count
    /// exchanges only the pairs of its plan no earlier one opened.
    opened: OpenedPairs,
    counter: IncrementalCounter,
    release: ReleaseState,
    poisoned: bool,
}

/// The in-process session: owns both share slots and opens releases
/// locally. This is the `--role local` reference the wire transcripts
/// are diffed against, and the cheap harness for the equivalence
/// suites.
pub type Session = ServeSession<InProcess>;

/// One wire party's session: bit-identical [`EpochOutcome`]s to
/// [`Session`] under the same config.
pub type PartySession<T> = ServeSession<Wire<T>>;

impl<P: EpochParty> ServeSession<P> {
    /// Counts the base graph (baseline share state; nothing released)
    /// and arms the release schedule.
    fn start(graph: Graph, cfg: &CargoConfig, party: P) -> Result<Self, SessionError> {
        let job = CountJob::from_config(cfg, SchedulePlan::DenseCube);
        // A serve run's vertex set is its base graph's: a delta outside
        // it is refused.
        let mut opened = OpenedPairs::new(job.seed, graph.n());
        let counter = IncrementalCounter::new_with(graph, evaluator(&party, &job, &mut opened))?;
        let release = ReleaseState::new(cfg, counter.graph().n());
        Ok(ServeSession { party, job, opened, counter, release, poisoned: false })
    }

    /// The incremental engine (graph, shares, cumulative stats).
    pub fn counter(&self) -> &IncrementalCounter {
        &self.counter
    }

    /// The release schedule's accountant view.
    pub fn schedule(&self) -> &ReleaseSchedule {
        &self.release.schedule
    }

    /// Runs one epoch. A batch with a bad endpoint and a refused grant
    /// change nothing — not the graph, the shares, the ledger or the
    /// link; a later failure poisons the session.
    pub fn step(&mut self, batch: &[EdgeDelta]) -> Result<EpochOutcome, SessionError> {
        if self.poisoned {
            return Err(SessionError::Peer("session poisoned by an earlier peer failure".into()));
        }
        check_batch(self.counter.graph().n(), batch)?;
        let grant = self.release.schedule.next_release()?;
        let before = self.party.payload();
        let (ec, digest, noisy_count) = self.release_epoch(batch, &grant).inspect_err(|_| self.poisoned = true)?;
        let mut net = ec.net;
        net.exchange(1); // the final opening
        if let (Some(before), Some(now)) = (before, self.party.payload()) {
            // Measured on the wire: the epoch's counts + final opening,
            // which must land on the modeled bytes.
            net.wire_bytes = now - before;
        }
        Ok(EpochOutcome {
            epoch: grant.epoch,
            noisy_count,
            applied: ec.applied,
            redundant: ec.redundant,
            created: ec.created,
            destroyed: ec.destroyed,
            triples: ec.triples,
            charged: grant.charged,
            node_epsilon: grant.node_epsilon,
            spent: self.release.schedule.accountant().spent(),
            digest,
            net,
        })
    }

    /// The granted epoch's Count, commit and opening: its share state,
    /// post-epoch digest and released value.
    fn release_epoch(&mut self, batch: &[EdgeDelta], grant: &ReleaseGrant) -> Result<(EpochCount, u64, f64), SessionError> {
        let ServeSession { party, job, opened, counter, release, .. } = self;
        let ec = counter.apply_with(batch, evaluator(party, job, opened))?;
        let digest = counter.digest();
        let (g1, g2) = release.gammas(grant);
        let codec = release.codec;
        let finals = (codec.lift_integer(ec.share1) + g1, codec.lift_integer(ec.share2) + g2);
        party.commit(CommitMsg { epoch: grant.epoch, digest })?;
        let opened = party.open(finals)?;
        Ok((ec, digest, codec.decode(opened)))
    }

    /// The session's next epoch and current [`crate::state_digest`].
    fn announce(&self) -> CommitMsg {
        CommitMsg {
            epoch: self.release.schedule.released() + 1,
            digest: self.counter.digest(),
        }
    }
}

impl Session {
    /// Counts the base graph (baseline share state; nothing released)
    /// and arms the release schedule.
    pub fn new(graph: Graph, cfg: &CargoConfig) -> Self {
        Self::start(graph, cfg, InProcess).expect("an in-process baseline has no peer to lose")
    }
}

impl<T: Transport> PartySession<T> {
    /// Runs the baseline count of `graph` over `link` and arms the
    /// schedule. Fails with [`SessionError::Peer`] if the peer dies
    /// during the baseline.
    pub fn new(
        graph: Graph,
        cfg: &CargoConfig,
        role: ServerId,
        link: Arc<T>,
    ) -> Result<Self, SessionError> {
        Self::start(graph, cfg, Wire::new(role, link))
    }

    /// Reconnects a crashed party to its peer and synchronises the
    /// two committed frontiers.
    ///
    /// `replayed` is the locally recomputed pre-crash session (from
    /// [`crate::recovery::replay_committed`]); `pending` are the delta
    /// batches *after* its committed frontier, in epoch order. The
    /// handshake is symmetric and message-balanced:
    ///
    /// * each party announces `(next epoch, state digest)` once;
    /// * the party that is *behind* replays the missing epochs from
    ///   `pending` **locally** (every Count is a deterministic function
    ///   of the seed and its public plan, so the recomputation is
    ///   bit-identical to the lost live epochs — zero counting traffic)
    ///   and re-announces after each;
    /// * the party that is *ahead* keeps receiving announcements until
    ///   the frontiers meet;
    /// * at the meeting point the digests must agree, else the pair
    ///   stops with [`SessionError::Desync`].
    ///
    /// Since the replayed schedule only re-granted *committed* epochs,
    /// the grant consumed by a crashed in-flight epoch is never
    /// double-spent: total ε after resume equals an uninterrupted run.
    ///
    /// Returns the live session plus the outcomes of the epochs caught
    /// up during the handshake (bit-identical to what an uninterrupted
    /// run would have published; the caller journals them before
    /// publishing); the caller continues stepping from
    /// `pending[caught_up.len()..]`.
    pub fn resume(
        replayed: Session,
        role: ServerId,
        link: Arc<T>,
        pending: &[Vec<EdgeDelta>],
    ) -> Result<(Self, Vec<EpochOutcome>), SessionError> {
        let mut session = replayed;
        let wire = Wire::new(role, link);
        let mut caught_up = Vec::new();
        wire.send("resume handshake", session.announce())?;
        let mut theirs: CommitMsg = wire.recv("resume handshake")?;
        loop {
            let ours = session.announce();
            if theirs.epoch > ours.epoch {
                // The peer committed epochs we crashed out of: replay
                // them locally and announce each catch-up step.
                let batch = pending.get(caught_up.len()).ok_or_else(|| {
                    SessionError::Peer(format!(
                        "peer committed epoch {} past our delta script",
                        theirs.epoch - 1
                    ))
                })?;
                caught_up.push(session.step(batch)?);
                wire.send("resume handshake", session.announce())?;
            } else if theirs.epoch < ours.epoch {
                // The peer is catching up; wait for its announcements.
                theirs = wire.recv("resume handshake")?;
            } else {
                agree("resume state digest", ours.digest, theirs.digest)?;
                break;
            }
        }
        // The replay derived the same openings in process: the live
        // session goes on from them, as an uninterrupted one would.
        let ServeSession { job, opened, counter, release, poisoned, .. } = session;
        Ok((ServeSession { party: wire, job, opened, counter, release, poisoned }, caught_up))
    }
}

/// `party`'s Count as the [`IncrementalCounter`] evaluator (each call's
/// delta plan replaces the job's placeholder), through the run's kept
/// `opened` pairs.
fn evaluator<'a, P: EpochParty>(
    party: &'a P,
    job: &'a CountJob,
    opened: &'a mut OpenedPairs,
) -> impl FnMut(&BitMatrix, SchedulePlan) -> Result<SecureCountResult, CountFailure> + 'a {
    move |matrix, plan| party.count(matrix, &CountJob { plan, ..job.clone() }, Some(&mut *opened))
}

/// Reads the serve wire syntax one epoch batch at a time — lazily, so
/// a live stream (stdin) steps each epoch as its `commit` arrives.
///
/// Line syntax: `+u v` / `-u v` deltas, `commit` ends an epoch (an
/// empty epoch is legal — it re-releases the current count under fresh
/// schedule noise), `#`-prefixed and blank lines are ignored. Trailing
/// deltas without a final `commit` form a last epoch. A malformed line
/// yields [`SessionError::Script`].
pub struct DeltaBatches<R> {
    lines: Lines<R>,
    line: usize,
}

impl<R: BufRead> DeltaBatches<R> {
    /// Batches the lines of `reader`.
    pub fn new(reader: R) -> Self {
        DeltaBatches { lines: reader.lines(), line: 0 }
    }
}

impl<R: BufRead> Iterator for DeltaBatches<R> {
    type Item = Result<Vec<EdgeDelta>, SessionError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut batch = Vec::new();
        for line in self.lines.by_ref() {
            self.line += 1;
            let script = |message| Some(Err(SessionError::Script { line: self.line, message }));
            let line = match line {
                Ok(line) => line,
                Err(e) => return script(format!("io error: {e}")),
            };
            match line.trim() {
                "commit" => return Some(Ok(batch)),
                t if t.is_empty() || t.starts_with('#') => {}
                t => match t.parse() {
                    Ok(delta) => batch.push(delta),
                    Err(message) => return script(message),
                },
            }
        }
        (!batch.is_empty()).then_some(Ok(batch))
    }
}

/// Parses a whole delta script into per-epoch batches ([`DeltaBatches`]
/// collected).
pub fn parse_delta_script<R: BufRead>(reader: R) -> Result<Vec<Vec<EdgeDelta>>, SessionError> {
    DeltaBatches::new(reader).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_graph::{count_triangles, generators};
    use cargo_mpc::memory_pair;

    fn serve_cfg() -> CargoConfig {
        CargoConfig::new(2.0).with_seed(42).with_horizon(4)
    }

    #[test]
    fn script_parsing_batches_by_commit() {
        let script = "# warmup\n+0 1\n-2 3\ncommit\n\ncommit\n+4 5\n";
        let epochs = parse_delta_script(script.as_bytes()).unwrap();
        assert_eq!(
            epochs,
            vec![
                vec![EdgeDelta::Add(0, 1), EdgeDelta::Remove(2, 3)],
                vec![],
                vec![EdgeDelta::Add(4, 5)],
            ]
        );
        assert!(matches!(
            parse_delta_script("+1 bad\n".as_bytes()),
            Err(SessionError::Script { line: 1, .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn delta_lines_never_panic_on_hostile_text(
            text in cargo_testutil::text::operator_text(&["+", "-", "commit", "#", "\n"])
        ) {
            let _ = parse_delta_script(text.as_bytes());
            let _ = text.parse::<EdgeDelta>();
        }
    }

    #[test]
    fn local_session_releases_and_then_refuses() {
        let g = generators::erdos_renyi(24, 0.25, 5);
        let mut s = Session::new(g, &serve_cfg());
        let mut last_spent = 0.0;
        for t in 1..=4u64 {
            let out = s
                .step(&[EdgeDelta::Add(0, t as u32), EdgeDelta::Remove(1, (t + 4) as u32)])
                .unwrap();
            assert_eq!(out.epoch, t);
            assert!(out.spent > last_spent);
            last_spent = out.spent;
            // The release is the noisy count of the *live* graph.
            let true_count = count_triangles(s.counter().graph()) as f64;
            assert!((out.noisy_count - true_count).abs() < 1e6);
            assert_eq!(out.net.wire_bytes, out.net.bytes);
        }
        // Budget exhausted: the 5th epoch is refused cleanly.
        let graph_before = s.counter().graph().clone();
        let err = s.step(&[EdgeDelta::Add(9, 10)]).unwrap_err();
        assert!(matches!(err, SessionError::Refused(_)), "{err}");
        assert_eq!(s.counter().graph(), &graph_before, "refusal mutates nothing");
        assert_eq!(s.counter().epochs(), 4);
    }

    #[test]
    fn a_bad_delta_is_refused_before_the_grant() {
        let g = generators::erdos_renyi(20, 0.3, 3);
        let mut s = Session::new(g.clone(), &CargoConfig::new(2.0).with_seed(5).with_horizon(4));
        let err = s.step(&[EdgeDelta::Add(0, 2), EdgeDelta::Add(0, 99)]).unwrap_err();
        assert!(matches!(err, SessionError::Graph(_)), "{err}");
        // Refused like a budget refusal: no ε, no release, no edit.
        assert_eq!(s.schedule().accountant().spent(), 0.0);
        assert_eq!(s.schedule().released(), 0);
        assert_eq!(s.counter().graph(), &g);
        let out = s.step(&[EdgeDelta::Add(0, 2)]).unwrap();
        assert_eq!(out.epoch, 1);
        let (s1, s2) = s.counter().shares();
        assert_eq!((s1 + s2).to_u64(), count_triangles(s.counter().graph()) as u64);
    }

    #[test]
    fn party_sessions_match_the_local_reference_bit_for_bit() {
        let g = generators::erdos_renyi(20, 0.3, 9);
        let cfg = CargoConfig {
            composition: Composition::BinaryTree,
            ..serve_cfg()
        };
        let epochs: Vec<Vec<EdgeDelta>> = vec![
            vec![EdgeDelta::Add(0, 1), EdgeDelta::Add(1, 2), EdgeDelta::Add(0, 2)],
            vec![EdgeDelta::Remove(0, 1)],
            vec![],
        ];
        let mut local = Session::new(g.clone(), &cfg);
        let local_outs: Vec<_> = epochs.iter().map(|b| local.step(b).unwrap()).collect();

        let (e1, e2) = memory_pair();
        let (e1, e2) = (Arc::new(e1), Arc::new(e2));
        let (outs1, outs2) = std::thread::scope(|scope| {
            let run = |role, link: Arc<cargo_mpc::InMemoryTransport>| {
                let g = g.clone();
                let epochs = &epochs;
                scope.spawn(move || {
                    let mut s = PartySession::new(g, &cfg, role, link).unwrap();
                    epochs.iter().map(|b| s.step(b).unwrap()).collect::<Vec<_>>()
                })
            };
            let h1 = run(ServerId::S1, Arc::clone(&e1));
            let h2 = run(ServerId::S2, Arc::clone(&e2));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(outs1, outs2, "the two parties' transcripts agree");
        assert_eq!(outs1, local_outs, "wire == local reference, bit for bit");
    }
}
