//! The continuous-release epoch loop: `apply deltas → incremental
//! count → per-epoch DP release`.
//!
//! A serve session starts from a base graph, runs a baseline sparse
//! count of it (share state only — nothing is published), and then
//! consumes delta batches. Each committed batch is one **epoch**:
//!
//! 1. ask the [`ReleaseSchedule`] for a grant — a refusal (budget or
//!    horizon exhausted) stops the session *before* any graph
//!    mutation or wire traffic for that epoch;
//! 2. apply the batch through [`IncrementalCounter`], which securely
//!    evaluates only the created/destroyed triangles at their
//!    canonical dealer offsets;
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
//! Two flavors share all of the above: [`Session`] (in-process, owns
//! both shares — the `--role local` reference) and [`PartySession`]
//! (one role over a real [`Transport`] link). Their per-epoch
//! [`EpochOutcome`]s are bit-identical, which is what lets CI diff a
//! two-process TCP serve transcript against the local one.

use crate::config::CargoConfig;
use crate::count::{CountJob, SecureCountResult};
use crate::count_runtime::count_party;
use crate::count_sched::SchedulePlan;
use crate::delta::{inline_evaluator, EdgeDelta, EpochCount, IncrementalCounter};
use crate::protocol::NOISE_SEED_TWEAK;
use crate::perturb::aggregate_noise_shares;
use crate::recovery::state_digest;
use cargo_dp::{Composition, FixedPointCodec, ReleaseGrant, ReleaseRefused, ReleaseSchedule, TreeNode};
use cargo_graph::{BitMatrix, Graph, GraphError};
use cargo_mpc::{
    recv_msg, send_msg, CommitMsg, FinalOpeningMsg, NetStats, Ring64, ServerId, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// This epoch's server↔server traffic (sub-counts + the final
    /// opening). `wire_bytes` is measured on wire sessions and always
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
    /// The peer died or the link failed mid-epoch. No release was
    /// opened for the epoch; the session is poisoned.
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
            SessionError::Script { line, message } => {
                write!(f, "delta script line {line}: {message}")
            }
            SessionError::Desync { what, ours, theirs } => {
                write!(
                    f,
                    "parties desynced on {what}: ours {ours:#x}, theirs {theirs:#x}"
                )
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

/// Mixes a [`TreeNode`] id into a seed tweak (the id's raw form is
/// small and structured; the multiply spreads it over the word).
fn node_tweak(node: TreeNode) -> u64 {
    node.id().wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Schedule + per-node noise cache, shared by both session flavors.
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

fn outcome(
    grant: &ReleaseGrant,
    ec: &EpochCount,
    noisy_count: f64,
    spent: f64,
    net: NetStats,
) -> EpochOutcome {
    EpochOutcome {
        epoch: grant.epoch,
        noisy_count,
        applied: ec.applied,
        redundant: ec.redundant,
        created: ec.created,
        destroyed: ec.destroyed,
        triples: ec.triples,
        charged: grant.charged,
        node_epsilon: grant.node_epsilon,
        spent,
        net,
    }
}

/// The in-process continuous-release session: owns both share slots
/// and opens releases locally. This is the `--role local` reference
/// the wire transcripts are diffed against, and the cheap harness for
/// the equivalence suites.
pub struct Session {
    cfg: CargoConfig,
    counter: IncrementalCounter,
    release: ReleaseState,
}

impl Session {
    /// Counts the base graph (baseline share state; nothing released)
    /// and arms the release schedule.
    pub fn new(graph: Graph, cfg: &CargoConfig) -> Self {
        let counter = IncrementalCounter::new_with(graph, local_evaluator(cfg));
        let n = counter.graph().n();
        Session {
            cfg: *cfg,
            counter,
            release: ReleaseState::new(cfg, n),
        }
    }

    /// The incremental engine (graph, shares, cumulative stats).
    pub fn counter(&self) -> &IncrementalCounter {
        &self.counter
    }

    /// The release schedule's accountant view.
    pub fn schedule(&self) -> &ReleaseSchedule {
        &self.release.schedule
    }

    /// Runs one epoch. On refusal, nothing changed — not the graph,
    /// not the shares, not the ledger.
    pub fn step(&mut self, batch: &[EdgeDelta]) -> Result<EpochOutcome, SessionError> {
        let grant = self.release.schedule.next_release()?;
        let ec = self.counter.apply_with(batch, local_evaluator(&self.cfg))?;
        let (g1, g2) = self.release.gammas(&grant);
        let codec = self.release.codec;
        let f1 = codec.lift_integer(ec.share1) + g1;
        let f2 = codec.lift_integer(ec.share2) + g2;
        let noisy = codec.decode(f1 + f2);
        let mut net = ec.net;
        net.exchange(1); // the final opening
        let spent = self.release.schedule.accountant().spent();
        Ok(outcome(&grant, &ec, noisy, spent, net))
    }
}

/// One wire party's continuous-release session. Bit-identical
/// [`EpochOutcome`]s to [`Session`] under the same config; only the
/// role-local share slot is live internally.
///
/// A peer failure mid-epoch surfaces as [`SessionError::Peer`] (the
/// worker `RecvError` path — disconnect immediately, timeout after
/// the link's [`Transport::recv_timeout`]), emits **no** release for
/// the incomplete epoch, and poisons the session. Before the final
/// opening, the parties run an idempotent epoch-commit handshake
/// (exchange of [`CommitMsg`]) so a divergent pair stops with
/// [`SessionError::Desync`] instead of publishing forked releases.
pub struct PartySession<T: Transport> {
    cfg: CargoConfig,
    role: ServerId,
    link: Arc<T>,
    counter: IncrementalCounter,
    release: ReleaseState,
    /// Link payload watermark at the last epoch boundary — measured
    /// per-epoch `wire_bytes` is the delta across it.
    wire_mark: u64,
    poisoned: bool,
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
        let counter = {
            let link = &link;
            catch_unwind(AssertUnwindSafe(|| {
                IncrementalCounter::new_with(graph, party_evaluator(cfg, role, link))
            }))
            .map_err(|p| SessionError::Peer(panic_message(&*p)))?
        };
        let n = counter.graph().n();
        let wire_mark = link.stats().online_payload_both();
        Ok(PartySession {
            cfg: *cfg,
            role,
            link,
            counter,
            release: ReleaseState::new(cfg, n),
            wire_mark,
            poisoned: false,
        })
    }

    /// The incremental engine (graph, shares, cumulative stats).
    pub fn counter(&self) -> &IncrementalCounter {
        &self.counter
    }

    /// The release schedule's accountant view.
    pub fn schedule(&self) -> &ReleaseSchedule {
        &self.release.schedule
    }

    /// Runs one epoch against the peer. Refusals are clean (no wire
    /// traffic, nothing mutated); peer failures poison the session.
    pub fn step(&mut self, batch: &[EdgeDelta]) -> Result<EpochOutcome, SessionError> {
        if self.poisoned {
            return Err(SessionError::Peer(
                "session poisoned by an earlier peer failure".into(),
            ));
        }
        let grant = self.release.schedule.next_release()?;
        let (cfg, role) = (self.cfg, self.role);
        let counter = &mut self.counter;
        let release = &mut self.release;
        let link = &self.link;
        let stepped = catch_unwind(AssertUnwindSafe(
            || -> Result<(EpochCount, f64), SessionError> {
                let ec = counter.apply_with(batch, party_evaluator(&cfg, role, link))?;
                // Idempotent epoch-commit handshake: agree on the
                // epoch id and post-apply state digest *before* any
                // noise share crosses the wire. A desynced pair (one
                // party replayed a different script, resumed from a
                // stale journal, …) stops typed here instead of
                // publishing forked releases. CommitMsg payload rides
                // outside both cost classes, so the measured online
                // payload still equals the modeled ledger.
                let digest = state_digest(counter.epochs(), counter.graph());
                send_msg(&**link, CommitMsg { epoch: grant.epoch, digest })
                    .map_err(|e| SessionError::Peer(format!("epoch commit send: {e}")))?;
                let peer: CommitMsg = recv_msg(&**link, 0, Some(link.recv_timeout()))
                    .map_err(|e| SessionError::Peer(format!("epoch commit recv: {e}")))?;
                if peer.epoch != grant.epoch {
                    return Err(SessionError::Desync {
                        what: "committed epoch",
                        ours: grant.epoch,
                        theirs: peer.epoch,
                    });
                }
                if peer.digest != digest {
                    return Err(SessionError::Desync {
                        what: "state digest",
                        ours: digest,
                        theirs: peer.digest,
                    });
                }
                let (g1, g2) = release.gammas(&grant);
                let my_gamma = match role {
                    ServerId::S1 => g1,
                    ServerId::S2 => g2,
                };
                let my_share = match role {
                    ServerId::S1 => ec.share1,
                    ServerId::S2 => ec.share2,
                };
                let my_final = release.codec.lift_integer(my_share) + my_gamma;
                send_msg(&**link, FinalOpeningMsg { share: my_final })
                    .map_err(|e| SessionError::Peer(format!("final opening send: {e}")))?;
                let theirs: FinalOpeningMsg = recv_msg(&**link, 0, Some(link.recv_timeout()))
                    .map_err(|e| SessionError::Peer(format!("final opening recv: {e}")))?;
                Ok((ec, release.codec.decode(my_final + theirs.share)))
            },
        ));
        let (ec, noisy) = match stepped {
            Ok(Ok(pair)) => pair,
            Ok(Err(e)) => {
                self.poisoned = true;
                return Err(e);
            }
            Err(p) => {
                self.poisoned = true;
                return Err(SessionError::Peer(panic_message(&*p)));
            }
        };
        let mut net = ec.net;
        net.exchange(1); // the final opening
        // Measured wire bytes for the epoch: counts + final opening.
        // The modeled paths keep `wire_bytes == bytes`; the wire
        // session *measures* and must land on the same number.
        let now = self.link.stats().online_payload_both();
        net.wire_bytes = now - self.wire_mark;
        self.wire_mark = now;
        let spent = self.release.schedule.accountant().spent();
        Ok(outcome(&grant, &ec, noisy, spent, net))
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
    ///   `pending` **locally** (canonical dealer offsets make the
    ///   recomputation bit-identical to the lost live epochs — zero
    ///   counting traffic) and re-announces after each;
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
    /// run would have published), each paired with its post-epoch
    /// [`state_digest`] so the caller can journal them before
    /// publishing; the caller continues stepping from
    /// `pending[caught_up.len()..]`.
    pub fn resume(
        replayed: Session,
        role: ServerId,
        link: Arc<T>,
        pending: &[Vec<EdgeDelta>],
    ) -> Result<(Self, Vec<(EpochOutcome, u64)>), SessionError> {
        let mut session = replayed;
        let digest_of =
            |s: &Session| state_digest(s.counter.epochs(), s.counter.graph());
        let mut my_next = s_released(&session) + 1;
        let mut catchup = Vec::new();
        send_msg(
            &*link,
            CommitMsg { epoch: my_next, digest: digest_of(&session) },
        )
        .map_err(|e| SessionError::Peer(format!("resume handshake send: {e}")))?;
        let mut theirs: CommitMsg = recv_msg(&*link, 0, Some(link.recv_timeout()))
            .map_err(|e| SessionError::Peer(format!("resume handshake recv: {e}")))?;
        loop {
            if theirs.epoch > my_next {
                // The peer committed epochs we crashed out of: replay
                // them locally and announce each catch-up step.
                let batch = pending.get(catchup.len()).ok_or_else(|| {
                    SessionError::Peer(format!(
                        "peer committed epoch {} past our delta script",
                        theirs.epoch.saturating_sub(1)
                    ))
                })?;
                let out = session.step(batch)?;
                let digest = digest_of(&session);
                catchup.push((out, digest));
                my_next += 1;
                send_msg(
                    &*link,
                    CommitMsg { epoch: my_next, digest: digest_of(&session) },
                )
                .map_err(|e| SessionError::Peer(format!("resume handshake send: {e}")))?;
            } else if theirs.epoch < my_next {
                // The peer is catching up; wait for its announcements.
                theirs = recv_msg(&*link, 0, Some(link.recv_timeout()))
                    .map_err(|e| SessionError::Peer(format!("resume handshake recv: {e}")))?;
            } else {
                let ours = digest_of(&session);
                if theirs.digest != ours {
                    return Err(SessionError::Desync {
                        what: "resume state digest",
                        ours,
                        theirs: theirs.digest,
                    });
                }
                break;
            }
        }
        let Session { cfg, counter, release } = session;
        let wire_mark = link.stats().online_payload_both();
        Ok((
            PartySession {
                cfg,
                role,
                link,
                counter,
                release,
                wire_mark,
                poisoned: false,
            },
            catchup,
        ))
    }
}

/// The session's committed-release frontier (how many epochs its
/// schedule has granted).
fn s_released(s: &Session) -> u64 {
    s.release.schedule.released()
}

/// The in-process evaluator of a session's config (each call's delta
/// plan replaces the placeholder).
fn local_evaluator(cfg: &CargoConfig) -> impl FnMut(&BitMatrix, SchedulePlan) -> SecureCountResult {
    inline_evaluator(CountJob::from_config(cfg, SchedulePlan::DenseCube))
}

/// The wire evaluator: party counts whose `wire_bytes` are restored to
/// the modeled invariant ([`count_party`] reports the link's
/// cumulative payload; per-epoch measurement happens at the session
/// layer instead).
fn party_evaluator<'a, T: Transport>(
    cfg: &CargoConfig,
    role: ServerId,
    link: &'a Arc<T>,
) -> impl FnMut(&BitMatrix, SchedulePlan) -> SecureCountResult + 'a {
    let job = CountJob::from_config(cfg, SchedulePlan::DenseCube);
    move |matrix, plan| {
        let mut r = count_party(matrix, &CountJob { plan, ..job.clone() }, role, link);
        r.net.wire_bytes = r.net.bytes;
        r
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque worker panic".into())
}

/// Parses a whole delta script into per-epoch batches.
///
/// Line syntax: `+u v` / `-u v` deltas, `commit` ends an epoch (an
/// empty epoch is legal — it re-releases the current count under
/// fresh schedule noise), `#`-prefixed and blank lines are ignored.
/// Trailing deltas without a final `commit` form a last epoch.
pub fn parse_delta_script<R: BufRead>(reader: R) -> Result<Vec<Vec<EdgeDelta>>, SessionError> {
    let mut epochs = Vec::new();
    let mut batch = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| SessionError::Script {
            line: idx + 1,
            message: format!("io error: {e}"),
        })?;
        match classify_delta_line(&line).map_err(|message| SessionError::Script {
            line: idx + 1,
            message,
        })? {
            DeltaLine::Blank => {}
            DeltaLine::Commit => epochs.push(std::mem::take(&mut batch)),
            DeltaLine::Delta(d) => batch.push(d),
        }
    }
    if !batch.is_empty() {
        epochs.push(batch);
    }
    Ok(epochs)
}

/// One classified line of a delta script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaLine {
    /// Comment or whitespace.
    Blank,
    /// End of the current epoch's batch.
    Commit,
    /// An edge mutation.
    Delta(EdgeDelta),
}

/// Classifies one line of the serve wire syntax (shared by the script
/// parser and the binaries' streaming stdin loop).
pub fn classify_delta_line(line: &str) -> Result<DeltaLine, String> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') {
        Ok(DeltaLine::Blank)
    } else if t == "commit" {
        Ok(DeltaLine::Commit)
    } else {
        t.parse::<EdgeDelta>().map(DeltaLine::Delta)
    }
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
    fn party_sessions_match_the_local_reference_bit_for_bit() {
        let g = generators::erdos_renyi(20, 0.3, 9);
        let cfg = serve_cfg().with_composition(Composition::BinaryTree);
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
