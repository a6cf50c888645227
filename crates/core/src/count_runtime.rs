//! A *distributed-systems-faithful* runtime for Algorithm 4.
//!
//! [`crate::count::count_local`] is the fast simulation: it evaluates
//! both servers' arithmetic in one loop. This module runs the same
//! [`CountJob`] the way a deployment would be shaped:
//!
//! * **separate OS threads (or processes)** — [`count_party`] runs
//!   exactly one server, which is what the `party` binary's two
//!   genuinely separate OS processes execute; [`count_two_party`] is
//!   two of them in one process, one per end of a link pair. There is
//!   no third role: trusted-dealer material is a seeded stream each
//!   party expands its own column of, as if predistributed;
//! * **real bytes on a real wire** — servers exchange masked openings
//!   as [`cargo_mpc::wire`] frames over whatever [`Transport`]
//!   the caller hands in: `cargo_mpc::memory_pair()` for the in-memory
//!   byte transport, `TcpTransport::loopback_pair(..)` (or a
//!   cross-machine socket) for TCP. Neither party can read the other's
//!   state, and neither ever uses a plaintext adjacency bit other than
//!   to expand its own share matrix, as uploaded by the users;
//! * **sharded, batched rounds** — the shared [`CountScheduler`]
//!   partitions the `(i, j)` pair space into chunks; each server
//!   worker owns the chunks congruent to its index. A chunk's draw
//!   plan is cut by [`cargo_mpc::plan_rounds`] into rounds of exactly
//!   `batch` triples ([`crate::DEFAULT_COUNT_BATCH`] = 1 024 by
//!   default) **in plan order, across `k`-run and pair boundaries**
//!   (only the chunk's last round is short), and every round travels as
//!   **one frame** ([`cargo_mpc::OpeningMsg`]): the round's triples,
//!   whatever segments `(draw, offset, len)` they are cut from, masked
//!   into one round-wide `[e | f | g]` slab, opened element-wise and
//!   combined. The header names the round's first `(pair, k)`; S₁ and
//!   S₂ derive the cut — and so the slab's word order — from the public
//!   plan and `batch` alone, and four lockstep checks (chunk, pair,
//!   first `k`, slab length) stop a peer that cut differently inside
//!   the first disagreeing round. All workers of a
//!   server share one multiplexed link whose frames carry the chunk
//!   id, so rounds from different shards interleave safely on the same
//!   wire. In OT mode each chunk is preceded by its amortised offline
//!   session on the same link ([`cargo_mpc::mg_offline_over_wire`]);
//! * **one server's arithmetic at kernel speed** — a round is a table
//!   of lanes, one per triple ([`RoundLanes`]: the PRF keys of its
//!   `(i, k)` and `(j, k)`, this server's share of `a_ij`, the
//!   dealer-stream counter of its group and, on S₂ only, its plaintext
//!   bits), and two lane-parallel passes over it, however short the
//!   round's `k`-runs: the input shares and maskings ([`mask_round`];
//!   S₁ never reads the matrix) and, once the peer's slab is in, the
//!   opening and combination ([`combine_round`]: in dealer mode S₁
//!   re-derives seven words of each lane's group, S₂ all ten). No
//!   dealer word is buffered and the other server's column is never
//!   expanded. OT and pool mode run the same passes over the round's
//!   next `len` preprocessed groups instead of the counters.
//!
//! Every frame is byte-counted by the transport, and the runtime
//! **overwrites** [`NetStats::wire_bytes`] with the measured online
//! payload — the modeled paths keep `wire_bytes == bytes` by
//! construction, so every test that compares whole `NetStats` structs
//! across paths pins measured == modeled exactly (DESIGN.md §8).
//!
//! The test suite pins this runtime's output to the fast path, which
//! is the strongest fidelity evidence the repo offers: an optimised
//! single-loop kernel and a strict two-party message-passing execution
//! compute identical share pairs — for every worker count, batch
//! size, and transport backend, because both key their randomness per
//! `(i, j)` pair.

use crate::count::{finish, push_round, AdjacencyBits, CountJob, CountPart, SecureCountResult};
use crate::count_sched::{CountScheduler, PairChunk, SchedulePlan};
use cargo_graph::BitMatrix;
use cargo_mpc::{
    combine_round, expand_input_shares, mask_round, mg_offline_over_wire, ot_setup_ledger,
    plan_rounds, recv_msg, send_msg, share_prf, MgDraw, NetStats, OfflineMode, OpeningMsg,
    PoolPolicy, Ring64, RoundLanes, RoundSegment, ServerId, Transport, TriplePool, WordBuffers,
};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// One server of the sharded runtime — the state its worker pool
/// shares. Worker `w` of `workers` owns the chunks with
/// `id ≡ w (mod workers)`.
struct Server<'a, T: Transport> {
    id: ServerId,
    job: &'a CountJob,
    sched: &'a CountScheduler,
    /// The users' plaintext rows, touched only to expand **this
    /// server's** input shares lazily: `⟨a_ij⟩₁ = PRF(seed, i, j)` and
    /// `⟨a_ij⟩₂ = a_ij − ⟨a_ij⟩₁` (so only S₂ reads it), recomputed on
    /// demand instead of materialised up front. An n×n `Ring64` table
    /// is ~3.2 GB at n = 20 000 — the scale the sparse schedule exists
    /// to reach — while the packed [`BitMatrix`] it expands from is
    /// n²/8 bytes.
    matrix: &'a BitMatrix,
    /// The server↔server wire (openings + offline dialogue).
    peer: &'a T,
    /// Background triple factory (OT mode only): when set, chunk
    /// material is *drawn* from this server's private pool keyed by the
    /// chunk id instead of being preprocessed inline on the peer link —
    /// the predistribution stance of the local dealer, but with the
    /// generation cost still modeled via the pooled per-chunk ledger.
    /// The factory derives both share columns of each chunk locally
    /// and the worker keeps only its own side.
    pool: Option<&'a TriplePool>,
}

impl<'env, T: Transport> Server<'env, T> {
    /// This server's share of `a_ij` from the users' PRF: S₁'s is the
    /// PRF alone, S₂ reads the plaintext bit to subtract it.
    fn a_share(&self, i: usize, j: usize) -> u64 {
        let prf = share_prf(self.job.seed, i as u32, j as u32);
        match self.id {
            ServerId::S1 => prf,
            ServerId::S2 => self.matrix.bit(i, j).wrapping_sub(prf),
        }
    }

    /// Runs this server's worker pool — no more workers than there are
    /// chunks to own — and returns each worker's part. Worker 0 runs on
    /// the calling thread, so a pool of one starts no thread: a Count
    /// per serve epoch would otherwise start a thread per party per
    /// epoch, and every fresh thread may land its round buffers in
    /// another malloc arena.
    fn run_workers(&self) -> Vec<CountPart> {
        let workers = self.sched.workers().min(self.sched.chunks().len()).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (1..workers).map(|w| scope.spawn(move || self.run(w, workers))).collect();
            let first = self.run(0, workers);
            std::iter::once(first).chain(handles.into_iter().map(join)).collect()
        })
    }

    /// Runs worker `w`'s share of the protocol: its partial `⟨T⟩` (in
    /// this server's slot), traffic tally and triple count.
    fn run(&self, w: usize, workers: usize) -> CountPart {
        let mut t_share = Ring64::ZERO;
        let mut net = NetStats::new();
        let mut triples = 0u64;
        // OT mode: the offline dialogue's message buffers, circulating
        // between the parties across all of this worker's chunks.
        let mut spare = WordBuffers::default();
        for chunk in self.sched.chunks().iter().filter(|c| c.id as usize % workers == w) {
            t_share += self.run_chunk(chunk, &mut net, &mut triples, &mut spare);
        }
        match self.id {
            ServerId::S1 => (t_share, Ring64::ZERO, net, triples),
            ServerId::S2 => (Ring64::ZERO, t_share, net, triples),
        }
    }

    fn run_chunk(
        &self,
        chunk: &PairChunk,
        net: &mut NetStats,
        triples: &mut u64,
        spare: &mut WordBuffers,
    ) -> Ring64 {
        let batch = self.sched.batch();
        let seed = self.job.seed;
        let mut t_share = Ring64::ZERO;
        // The chunk's draw plan — a pure function of the chunk id and
        // the public schedule: one full-range draw per pair on the
        // dense cube, one draw per surviving k-run on a sparse
        // candidate schedule. Both servers and every offline source
        // walk this same list in the same order.
        let plan = self.sched.chunk_plan(chunk);
        // OT mode preprocesses the whole chunk up front — inline in
        // one amortised session over the peer link, or by drawing the
        // chunk's entry from the background pool — into one slab of
        // this server's groups in plan order; in dealer mode the
        // server expands its own column of the seeded pair streams
        // round by round below, as if predistributed.
        let material = match (self.pool, self.job.offline) {
            (Some(pool), _) => {
                let (mat, ledger) = pool.take(chunk.id).unwrap_or_else(|e| {
                    panic!("offline triple pool failed on chunk {}: {e}", chunk.id)
                });
                net.offline.merge(&ledger);
                Some(mat.columns()[self.id.index() as usize].to_vec())
            }
            (None, OfflineMode::TrustedDealer) => None,
            (None, OfflineMode::OtExtension) => Some(mg_offline_over_wire(
                self.peer,
                self.id,
                seed,
                chunk.id,
                &plan,
                &mut net.offline,
                spare,
            )),
        };
        if let Some(groups) = &material {
            let want: usize = plan.iter().map(|d| d.groups as usize).sum();
            assert_eq!(groups.len(), want, "offline material size mismatch on chunk {}", chunk.id);
        }
        // One opening message per worker: each round masks straight
        // into its slab and sends a copy of it by reference (step 3
        // still reads the slab).
        let mut mine =
            OpeningMsg { chunk: chunk.id, pair: (0, 0), k0: 0, efg: Vec::with_capacity(3 * batch) };
        // The round's lanes, one per triple, rebuilt every round in the
        // same buffers.
        let mut lanes = RoundLanes::new(seed, self.id);
        let signs = self.sched.chunk_signs(chunk);
        // Groups of the chunk already opened — in OT mode a round's
        // material is the next `len` groups of the plan-ordered slab.
        let mut done = 0usize;
        let mut rounds = plan_rounds(&plan, batch);
        while let Some(round) = rounds.next_round() {
            let (pair, k0) = round_header(&plan, round);
            let at = format_args!("chunk {}, first pair {pair:?}, first k {k0}", chunk.id);
            // Step 1: local maskings — the round's lanes, segment by
            // segment, then one pass over all of them into the round's
            // [e|f|g] slab, the one opening frame.
            let signs = signs.map(|s| &s[done..]);
            push_round(&mut lanes, self.matrix, &plan, round, signs, |d| {
                self.a_share(d.i as usize, d.j as usize)
            });
            let len = lanes.len();
            let groups = material.as_deref().map(|groups| &groups[done..done + len]);
            let slab = 3 * len;
            (mine.pair, mine.k0) = (pair, k0);
            mine.efg.resize(slab, 0);
            mask_round(&lanes, groups, &mut mine.efg);
            // Step 2: one round — send mine, receive the peer's.
            net.exchange(slab as u64);
            *triples += len as u64;
            send_msg(self.peer, &mine).expect("peer hung up");
            let theirs: OpeningMsg = recv_msg(self.peer, chunk.id, Some(self.peer.recv_timeout()))
                .unwrap_or_else(|e| panic!("peer lost in the online round at {at}: {e}"));
            assert_eq!(theirs.chunk, chunk.id, "demux routed a foreign chunk ({at})");
            assert_eq!(theirs.pair, pair, "peer out of lockstep in the round at {at}");
            assert_eq!(theirs.k0, k0, "peer batch out of lockstep in the round at {at}");
            assert_eq!(theirs.efg.len(), slab, "peer slab size mismatch in the round at {at}");
            // Step 3: the round's reconstruction and local combination,
            // one pass.
            t_share += Ring64(combine_round(&lanes, groups, &mine.efg, &theirs.efg));
            done += len;
        }
        t_share
    }
}

/// A round's identity on the wire — the `(pair, k)` of its first triple,
/// the header of its [`OpeningMsg`].
fn round_header(plan: &[MgDraw], round: &[RoundSegment]) -> ((u32, u32), u32) {
    let first = &plan[round[0].draw];
    ((first.i, first.j), first.k_at(round[0].offset) as u32)
}

/// Joins a worker (or a whole party). Its panic — a lost peer, a
/// lockstep check — is re-raised as is, so whoever catches it reads
/// which round diverged rather than "a worker panicked".
pub(crate) fn join<R>(handle: ScopedJoinHandle<'_, R>) -> R {
    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Expands the input share matrix one party holds: S₁'s shares come
/// from the users' PRF (`share_prf`), S₂'s are `bit − ⟨·⟩₁`. Each
/// server receives ONLY its own matrix — what the users uploaded to
/// it — which is why a `party` process needs the graph solely to play
/// its own users.
pub fn party_input_shares(matrix: &BitMatrix, seed: u64, id: ServerId) -> Vec<Vec<Ring64>> {
    let n = matrix.n();
    let mut row = vec![0u64; n];
    (0..n)
        .map(|i| {
            if id == ServerId::S2 {
                matrix.fill_bits(i, 0, &mut row);
            }
            expand_input_shares(seed, id, i as u32, 0, &mut row);
            row.iter().map(|&w| Ring64(w)).collect()
        })
        .collect()
}

/// Runs ONE server's worker pool of `job` against a live peer on the
/// other end of `link` — the executor of the `party` binaries (via
/// [`crate::party`]) and of the serve sessions.
///
/// The party tallies the full bidirectional modeled ledger itself
/// (both processes report identical `NetStats`), expands dealer
/// material locally in trusted-dealer mode, and in OT mode either runs
/// the preprocessing dialogue over `link` or — with [`CountJob::pool`]
/// enabled — draws chunk material from a private background
/// [`TriplePool`], the generation cost still tallied from the pooled
/// per-chunk ledgers (so the modeled [`NetStats`] equals the inline OT
/// party's; fill/drain counters land in [`SecureCountResult::pool`]).
/// Finally it overwrites [`NetStats::wire_bytes`] with the online
/// payload bytes the transport measured — which the equivalence suites
/// pin equal to the modeled `bytes`.
///
/// Both parties must be handed the same job (or the lockstep asserts
/// fire). The other share lives in the peer process: the result
/// carries ours in the slot matching `id` and zero in the other.
pub fn count_party<T: Transport>(
    matrix: &BitMatrix,
    job: &CountJob,
    id: ServerId,
    link: &Arc<T>,
) -> SecureCountResult {
    let sched = job.scheduler(matrix.n());
    let pool = job.spawn_pool(&sched);
    let server = Server {
        id,
        job,
        sched: &sched,
        matrix,
        peer: &**link,
        pool: pool.as_ref(),
    };
    let parts = server.run_workers();
    let pool = pool.map(|p| p.stats()).unwrap_or_default();
    let mut result = finish(&sched, job.offline, parts, pool);
    result.net.wire_bytes = link.stats().online_payload_both();
    result
}

/// Pinned by `benchmark/src/bin/trace/pipeline.rs`, which calls it
/// positionally.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn run_party_count_planned<T: Transport>(
    matrix: &BitMatrix,
    seed: u64,
    threads: usize,
    batch: usize,
    offline: OfflineMode,
    id: ServerId,
    link: &Arc<T>,
    pool: PoolPolicy,
    plan: SchedulePlan,
) -> SecureCountResult {
    let job = CountJob { threads, batch, offline, pool, plan, ..CountJob::new(seed) };
    count_party(matrix, &job, id, link)
}

/// Runs `job` with **both** parties in this process: [`count_party`]
/// as S₁ on `end1` and as S₂ on `end2`, the two ends of a link pair the
/// caller made (`memory_pair()`, a `TcpTransport::loopback_pair` with
/// whatever recv timeout the caller wants, a fault-injecting decorator,
/// …). Nothing but what two `party` processes exchange crosses it.
///
/// Shares, the online [`NetStats`] and the offline ledger are
/// bit-identical to [`crate::count::count_local`] on the same job;
/// `wire_bytes` is what `end1` actually measured, and the factory
/// counters are S₁'s (S₂'s pool saw the same fills and drains).
///
/// # Panics
/// Re-raises a party's panic as is; panics if the two parties' ledgers
/// or triple counts disagree.
pub fn count_two_party<T: Transport>(
    matrix: &BitMatrix,
    job: &CountJob,
    end1: &Arc<T>,
    end2: &Arc<T>,
) -> SecureCountResult {
    let (r1, r2) = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| count_party(matrix, job, ServerId::S1, end1));
        let h2 = scope.spawn(|| count_party(matrix, job, ServerId::S2, end2));
        (join(h1), join(h2))
    });
    assert_eq!(r1.net, r2.net, "the parties' ledgers (modeled and measured) disagree");
    assert_eq!(r1.triples, r2.triples, "the parties evaluated different triple counts");
    // Measured-vs-modeled: the offline payload that actually crossed
    // the wire must equal the modeled flight ledger (the base-OT setup
    // is a per-run constant that never crosses this link). In pooled
    // mode the material is predistributed locally: zero offline bytes
    // cross the link while the modeled ledger still carries the
    // generation cost, so the pin only applies inline.
    let flights = if job.pool.enabled() || r1.net.offline.is_empty() {
        0
    } else {
        r1.net.offline.bytes - ot_setup_ledger().bytes
    };
    debug_assert_eq!(end1.stats().offline_payload_both(), flights);
    SecureCountResult { share2: r2.share2, ..r1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_local;
    use crate::DEFAULT_COUNT_BATCH;
    use cargo_graph::generators::{barabasi_albert, erdos_renyi};
    use cargo_graph::{count_triangles_matrix, CsrGraph};
    use cargo_mpc::{TcpConfig, TcpTransport};
    use cargo_testutil::golden_fixtures;

    fn job(seed: u64, threads: usize, batch: usize) -> CountJob {
        CountJob { threads, batch, ..CountJob::new(seed) }
    }

    fn ot_job(seed: u64, threads: usize, batch: usize) -> CountJob {
        CountJob { offline: OfflineMode::OtExtension, ..job(seed, threads, batch) }
    }

    /// Runs both parties over a link pair. In dealer mode nothing but
    /// openings crosses it, so measured == modeled extends from bytes
    /// to rounds: each party sent exactly one frame per modeled round.
    fn over_pair<T: Transport>(m: &BitMatrix, job: &CountJob, ends: (T, T)) -> SecureCountResult {
        let (end1, end2) = (Arc::new(ends.0), Arc::new(ends.1));
        let res = count_two_party(m, job, &end1, &end2);
        if job.offline == OfflineMode::TrustedDealer {
            assert_eq!(end1.stats().frames_sent, res.net.rounds, "one opening frame per round");
            assert_eq!(end1.stats().frames_recv, res.net.rounds, "and one back");
            assert_eq!(end2.stats().frames_sent, end1.stats().frames_recv, "S2 mirrors S1");
            assert_eq!(end2.stats().frames_recv, end1.stats().frames_sent, "S2 mirrors S1");
        }
        res
    }

    fn over_memory(m: &BitMatrix, job: &CountJob) -> SecureCountResult {
        over_pair(m, job, cargo_mpc::memory_pair())
    }

    fn over_tcp(m: &BitMatrix, job: &CountJob) -> SecureCountResult {
        let (end1, end2, _) =
            TcpTransport::loopback_pair(&TcpConfig::default()).expect("loopback socket pair");
        over_pair(m, job, (end1, end2))
    }

    #[test]
    fn threaded_runtime_matches_plaintext() {
        for seed in 0..3u64 {
            let g = erdos_renyi(50, 0.25, seed);
            let m = g.to_bit_matrix();
            let res = over_memory(&m, &CountJob::new(seed));
            assert_eq!(
                res.reconstruct(),
                Ring64(count_triangles_matrix(&m)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn threaded_runtime_matches_fast_path_share_for_share() {
        // The strongest equivalence: identical SHARES, not just the
        // reconstructed value — both runtimes expand the same PRF
        // streams through genuinely different executions. NetStats
        // equality here includes wire_bytes: the runtime's measured
        // online payload vs the fast path's modeled bytes.
        let g = barabasi_albert(60, 4, 7);
        let m = g.to_bit_matrix();
        let fast = count_local(&m, &CountJob::new(99));
        let threaded = over_memory(&m, &CountJob::new(99));
        assert_eq!(fast.share1, threaded.share1);
        assert_eq!(fast.share2, threaded.share2);
        assert_eq!(fast.triples, threaded.triples);
        assert_eq!(fast.upload_elements, threaded.upload_elements);
        assert_eq!(fast.net, threaded.net, "identical round accounting");
        assert_eq!(
            threaded.net.wire_bytes,
            threaded.net.online().bytes,
            "measured == modeled"
        );
    }

    #[test]
    fn sharded_runtime_matches_fast_path_on_golden_fixtures() {
        // The acceptance bar for the scheduler rewrite: ≥2 workers per
        // server reproduce the fast path's exact share pair on every
        // golden fixture, across batch sizes.
        for f in golden_fixtures() {
            let m = f.graph.to_bit_matrix();
            let fast = count_local(&m, &CountJob::new(0xCA60));
            assert_eq!(fast.reconstruct(), Ring64(f.triangles), "{}", f.name);
            for (workers, batch) in [(2usize, 0usize), (2, 7), (3, 16)] {
                let sharded = over_memory(&m, &job(0xCA60, workers, batch));
                assert_eq!(
                    sharded.share1, fast.share1,
                    "{} workers={workers} batch={batch}",
                    f.name
                );
                assert_eq!(
                    sharded.share2, fast.share2,
                    "{} workers={workers} batch={batch}",
                    f.name
                );
                assert_eq!(sharded.triples, fast.triples, "{}", f.name);
            }
        }
    }

    #[test]
    fn sharded_runtime_net_matches_batched_fast_path() {
        let g = erdos_renyi(40, 0.3, 9);
        let m = g.to_bit_matrix();
        for batch in [1usize, 5, 64] {
            let fast = count_local(&m, &job(4, 1, batch));
            let sharded = over_memory(&m, &job(4, 2, batch));
            assert_eq!(sharded.share1, fast.share1, "batch {batch}");
            assert_eq!(sharded.share2, fast.share2, "batch {batch}");
            assert_eq!(sharded.net, fast.net, "batch {batch}");
        }
    }

    #[test]
    fn tcp_runtime_matches_fast_path_bit_for_bit() {
        // Real loopback sockets, same shares, same full NetStats —
        // the measured wire now pins the cost model over a kernel
        // network stack.
        let g = erdos_renyi(36, 0.3, 6);
        let m = g.to_bit_matrix();
        for (workers, batch) in [(1usize, 0usize), (2, 7)] {
            let fast = count_local(&m, &job(13, 1, batch));
            let tcp = over_tcp(&m, &job(13, workers, batch));
            assert_eq!(tcp.share1, fast.share1, "w={workers} b={batch}");
            assert_eq!(tcp.share2, fast.share2, "w={workers} b={batch}");
            assert_eq!(tcp.net, fast.net, "w={workers} b={batch}");
            assert_eq!(tcp.net.wire_bytes, tcp.net.online().bytes);
        }
    }

    #[test]
    fn rounds_that_cut_a_draw_mid_run_match_the_fast_path_over_memory_and_tcp() {
        // A round that ends inside a draw leaves the rest of its k-run
        // to the next round, which resumes the draw's stream where the
        // mask stopped; each segment's combine re-derives its words from
        // the stream position its own mask started at. Batches 1 and 7
        // cut almost every draw of n = 30; at n = 120 the dense cube's
        // chunks (≈ 4 400 triples) take several rounds of the default
        // batch.
        for (n, batch) in [(30usize, 1usize), (30, 7), (120, DEFAULT_COUNT_BATCH)] {
            let m = erdos_renyi(n, 0.3, 12).to_bit_matrix();
            let wire = job(31, 2, batch);
            let sched = wire.scheduler(n);
            assert_eq!(sched.batch(), batch, "n = {n}: a chunk outweighs the batch");
            let resumes_a_draw = sched.chunks().iter().any(|chunk| {
                let plan = sched.chunk_plan(chunk);
                let mut rounds = plan_rounds(&plan, batch);
                let mut resumed = false;
                while let Some(round) = rounds.next_round() {
                    resumed |= round.iter().any(|seg| seg.offset > 0);
                }
                resumed
            });
            assert!(resumes_a_draw, "n = {n}, batch {batch}: no round starts mid-draw");
            let fast = count_local(&m, &job(31, 1, batch));
            for (link, res) in [("memory", over_memory(&m, &wire)), ("tcp", over_tcp(&m, &wire))] {
                let at = format!("{link}, n = {n}, batch {batch}");
                assert_eq!((res.share1, res.share2), (fast.share1, fast.share2), "{at}");
                assert_eq!(res.net, fast.net, "{at}");
                assert_eq!(res.triples, fast.triples, "{at}");
            }
        }
    }

    #[test]
    fn sparse_rounds_of_short_runs_match_the_fast_path_in_every_mode() {
        // On a sparse candidate schedule a round's lanes come from many
        // draws, most of them k-runs shorter than a vector, and a round
        // may resume a draw the previous round cut. Dealer, inline-OT
        // and pool material, over memory and TCP, must reproduce the
        // fast path share for share.
        let g = erdos_renyi(90, 0.15, 4);
        let m = g.to_bit_matrix();
        let plan = SchedulePlan::CsrStream(Arc::new(CsrGraph::from_graph(&g)));
        let ot = CountJob { offline: OfflineMode::OtExtension, ..job(23, 2, 0) };
        let pool = PoolPolicy { factory_threads: 1, ..PoolPolicy::INLINE };
        let modes = [job(23, 2, 0), ot.clone(), CountJob { pool, ..ot }];
        let mut resumes_a_draw = false;
        for batch in [7usize, DEFAULT_COUNT_BATCH] {
            let sched = CountJob { plan: plan.clone(), ..job(23, 2, batch) }.scheduler(m.n());
            let (mut draws, mut short) = (0usize, 0usize);
            for chunk in sched.chunks() {
                let plan = sched.chunk_plan(chunk);
                draws += plan.len();
                short += plan.iter().filter(|d| d.groups < 8).count();
                let mut rounds = plan_rounds(&plan, sched.batch());
                while let Some(round) = rounds.next_round() {
                    resumes_a_draw |= round.iter().any(|seg| seg.offset > 0);
                }
            }
            assert!(4 * short > 3 * draws, "batch {batch}: {short} of {draws} runs are short");
            for mode in &modes {
                let wire = CountJob { plan: plan.clone(), batch, ..mode.clone() };
                let fast = count_local(&m, &CountJob { threads: 1, ..wire.clone() });
                assert!(fast.triples > 0);
                let runs = [("memory", over_memory(&m, &wire)), ("tcp", over_tcp(&m, &wire))];
                for (link, res) in runs {
                    let (mode, pooled) = (wire.offline, wire.pool.enabled());
                    let at = format!("{link}, batch {batch}, {mode:?}, pool {pooled}");
                    assert_eq!((res.share1, res.share2), (fast.share1, fast.share2), "{at}");
                    assert_eq!(res.net, fast.net, "{at}");
                    assert_eq!(res.triples, fast.triples, "{at}");
                }
            }
        }
        assert!(resumes_a_draw, "no round starts mid-draw");
    }

    #[test]
    fn tcp_runtime_runs_the_ot_offline_dialogue_over_sockets() {
        let g = erdos_renyi(24, 0.3, 3);
        let m = g.to_bit_matrix();
        let fast = count_local(&m, &ot_job(8, 1, 16));
        let tcp = over_tcp(&m, &ot_job(8, 2, 16));
        assert_eq!(tcp.share1, fast.share1);
        assert_eq!(tcp.share2, fast.share2);
        assert_eq!(tcp.net, fast.net, "full NetStats incl. offline ledger");
    }

    #[test]
    fn party_pools_over_an_explicit_pair_match_the_runtime() {
        // The two-process shape, in miniature: each party runs
        // count_party over one end of a link; shares and ledgers
        // reassemble to the fast path.
        let g = erdos_renyi(40, 0.3, 21);
        let m = g.to_bit_matrix();
        for mode in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            let fast = count_local(&m, &CountJob { offline: mode, ..job(17, 1, 16) });
            let party = CountJob { offline: mode, ..job(17, 2, 16) };
            let (end1, end2) = cargo_mpc::memory_pair();
            let (end1, end2) = (Arc::new(end1), Arc::new(end2));
            let (r1, r2) = std::thread::scope(|scope| {
                let h1 = scope.spawn(|| count_party(&m, &party, ServerId::S1, &end1));
                let h2 = scope.spawn(|| count_party(&m, &party, ServerId::S2, &end2));
                (h1.join().unwrap(), h2.join().unwrap())
            });
            assert_eq!(r1.share1, fast.share1, "{mode:?}");
            assert_eq!(r2.share2, fast.share2, "{mode:?}");
            assert_eq!(r1.share2, Ring64::ZERO, "a party holds only its share");
            assert_eq!(
                r1.share1 + r2.share2,
                Ring64(count_triangles_matrix(&m)),
                "{mode:?}"
            );
            // Each party independently tallies the full bidirectional
            // model and measures the full bidirectional wire.
            assert_eq!(r1.net, r2.net, "{mode:?}: identical party ledgers");
            assert_eq!(r1.net, fast.net, "{mode:?}: party ledger == fast path");
            assert_eq!(r1.triples, fast.triples, "{mode:?}");
            assert_eq!(r1.net.wire_bytes, r1.net.online().bytes, "{mode:?}");
        }
    }

    #[test]
    fn two_party_report_is_party_one_with_party_two_s_share() {
        // Pooled OT mode, where the report carries factory counters:
        // count_two_party is S₁'s count_party result plus S₂'s share.
        let m = erdos_renyi(24, 0.3, 5).to_bit_matrix();
        let pool = PoolPolicy { factory_threads: 2, ..PoolPolicy::INLINE };
        let pooled = CountJob { pool, ..ot_job(8, 2, 16) };
        let both = over_memory(&m, &pooled);
        let (end1, end2) = cargo_mpc::memory_pair();
        let (end1, end2) = (Arc::new(end1), Arc::new(end2));
        let (r1, r2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| count_party(&m, &pooled, ServerId::S1, &end1));
            let h2 = scope.spawn(|| count_party(&m, &pooled, ServerId::S2, &end2));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert!(r1.pool.fills > 0, "the factory ran");
        assert_eq!(both.pool, r1.pool);
        assert_eq!((both.share1, both.share2), (r1.share1, r2.share2));
        assert_eq!((both.net, both.triples), (r1.net, r1.triples));
    }

    /// The panic message of a party that must not have returned a
    /// count.
    fn panic_text(outcome: std::thread::Result<SecureCountResult>) -> String {
        let payload = outcome.expect_err("a diverged party must fail, not return a count");
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload.downcast::<&str>().map(|t| t.to_string()).unwrap_or_default(),
        }
    }

    #[test]
    fn parties_with_different_batches_fail_in_the_first_round() {
        // The round cut is a function of (plan, batch): two parties
        // handed different batches disagree from the chunk's first
        // round on, and its slab-length check must stop both at once —
        // long before the link's stall bound, and with no count.
        let m = erdos_renyi(30, 0.3, 21).to_bit_matrix();
        let stall = std::time::Duration::from_secs(60);
        let (end1, end2) = cargo_mpc::memory_pair_with_timeout(stall);
        let (end1, end2) = (Arc::new(end1), Arc::new(end2));
        let started = std::time::Instant::now();
        let (r1, r2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| count_party(&m, &job(17, 1, 16), ServerId::S1, &end1));
            let h2 = scope.spawn(|| count_party(&m, &job(17, 1, 24), ServerId::S2, &end2));
            (h1.join(), h2.join())
        });
        assert!(started.elapsed() < stall / 2, "failed on a check, not on the timeout");
        for text in [panic_text(r1), panic_text(r2)] {
            assert!(text.contains("peer slab size mismatch"), "{text}");
            assert!(text.contains("chunk 0, first pair (0, 1), first k 2"), "{text}");
        }
        assert_eq!(end1.stats().frames_sent, 1, "S1 stopped inside the first round");
        assert_eq!(end2.stats().frames_sent, 1, "S2 stopped inside the first round");
    }

    #[test]
    fn a_peer_off_the_round_cut_trips_the_lockstep_checks() {
        // A scripted S₂ answers the first round with a frame that is
        // off the cut in one way at a time: a slab one segment short, a
        // later k, another pair. S₁ must stop on the matching check,
        // naming the round.
        let m = erdos_renyi(12, 0.5, 3).to_bit_matrix();
        let s1_job = job(5, 1, 16);
        let sched = s1_job.scheduler(m.n());
        let plan = sched.chunk_plan(&sched.chunks()[0]);
        let mut rounds = plan_rounds(&plan, sched.batch());
        let round = rounds.next_round().expect("C(12, 3) triples").to_vec();
        assert!(round.len() > 1, "batch 16 spans pairs at n = 12");
        let full: usize = round.iter().map(|seg| seg.len).sum();
        let short = full - round.last().expect("non-empty").len;
        let (pair, k0) = round_header(&plan, &round);
        assert_eq!((pair, k0), ((0, 1), 2), "the dense cube starts at triple (0, 1, 2)");
        let honest = OpeningMsg { chunk: 0, pair, k0, efg: vec![0; 3 * full] };
        let cases = [
            (OpeningMsg { efg: vec![0; 3 * short], ..honest.clone() }, "peer slab size mismatch"),
            (OpeningMsg { k0: 3, ..honest.clone() }, "peer batch out of lockstep"),
            (OpeningMsg { pair: (0, 2), ..honest.clone() }, "peer out of lockstep"),
        ];
        for (frame, check) in cases {
            let stall = std::time::Duration::from_secs(60);
            let (end1, end2) = cargo_mpc::memory_pair_with_timeout(stall);
            let end1 = Arc::new(end1);
            let started = std::time::Instant::now();
            let r1 = std::thread::scope(|scope| {
                let h1 = scope.spawn(|| count_party(&m, &s1_job, ServerId::S1, &end1));
                send_msg(&end2, &frame).expect("S1 is listening");
                h1.join()
            });
            assert!(started.elapsed() < stall / 2, "{check}: stopped by the timeout");
            let text = panic_text(r1);
            assert!(text.contains(check), "{check}: {text}");
            assert!(text.contains("chunk 0, first pair (0, 1), first k 2"), "{check}: {text}");
        }
    }

    #[test]
    fn threaded_runtime_on_asymmetric_matrix() {
        let g = erdos_renyi(40, 0.3, 5);
        let mut m = g.to_bit_matrix();
        // Simulate projection deleting a few one-directional bits.
        for (i, j) in [(1usize, 2usize), (3, 9), (10, 20)] {
            m.set(i, j, false);
        }
        let want = count_triangles_matrix(&m);
        assert_eq!(over_memory(&m, &CountJob::new(3)).reconstruct(), Ring64(want));
        assert_eq!(over_memory(&m, &job(3, 4, 3)).reconstruct(), Ring64(want));
    }

    #[test]
    fn tiny_inputs_do_not_deadlock() {
        for n in [0usize, 1, 2, 3] {
            let m = BitMatrix::zeros(n);
            for workers in [1usize, 2, 4] {
                let res = over_memory(&m, &job(1, workers, 2));
                assert_eq!(res.reconstruct(), Ring64::ZERO, "n = {n}, w = {workers}");
                let ot = over_memory(&m, &ot_job(1, workers, 2));
                assert_eq!(ot.reconstruct(), Ring64::ZERO, "OT n = {n}, w = {workers}");
            }
        }
    }

    #[test]
    fn ot_runtime_matches_ot_fast_path_ledger_included() {
        // The two-party preprocessing dialogue over the multiplexed
        // links must reproduce the in-process engine exactly: shares,
        // online ledger, AND the offline ledger.
        let g = erdos_renyi(28, 0.3, 11);
        let m = g.to_bit_matrix();
        for (workers, batch) in [(1usize, 0usize), (2, 7), (3, 16)] {
            let fast = count_local(&m, &ot_job(21, 1, batch));
            let rt = over_memory(&m, &ot_job(21, workers, batch));
            assert_eq!(rt.share1, fast.share1, "w={workers} b={batch}");
            assert_eq!(rt.share2, fast.share2, "w={workers} b={batch}");
            assert_eq!(rt.net, fast.net, "full NetStats incl. offline ledger");
            assert_eq!(
                rt.reconstruct(),
                Ring64(count_triangles_matrix(&m)),
                "w={workers} b={batch}"
            );
        }
    }

    #[test]
    fn ot_runtime_matches_dealer_runtime_shares() {
        let g = erdos_renyi(30, 0.25, 4);
        let m = g.to_bit_matrix();
        let dealer = over_memory(&m, &job(9, 2, 8));
        let ot = over_memory(&m, &ot_job(9, 2, 8));
        assert_eq!(ot.share1, dealer.share1);
        assert_eq!(ot.share2, dealer.share2);
        assert_eq!(ot.net.online(), dealer.net, "online ledgers coincide");
        assert!(dealer.net.offline.is_empty());
        assert!(!ot.net.offline.is_empty());
    }
}
