//! A *distributed-systems-faithful* runtime for Algorithm 4.
//!
//! [`crate::count::count_local`] runs both servers' steps in one
//! process with the link cut out. This module runs the same steps —
//! the same pair rounds and the same chunk loop, one kernel per
//! server — the way a deployment would be shaped:
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
//!   state, and S₁ never reads a plaintext adjacency bit; S₂ reads its
//!   users' bits only to expand its own shares in the pair phase — its
//!   chunks combine openings, masks and product shares alone
//!   ([`PairTable`]), as `count_local`'s do;
//! * **a pair phase, then local chunks** — a Count's masks are keyed
//!   by pair, so its online phase opens the plan's pair set
//!   ([`CountScheduler::pair_set`]) once, in canonical order, `batch`
//!   pairs a round ([`crate::DEFAULT_COUNT_BATCH`] = 1 024 by default):
//!   each round is **one frame** each way ([`cargo_mpc::PairOpeningMsg`],
//!   one masking word per pair), summed into the party's
//!   [`PairTable`]. The header names the round and its first pair; S₁
//!   and S₂ derive the pair set — and so every round's word order —
//!   from the public plan and `batch` alone, and three lockstep checks
//!   (round, first pair, slab length) stop a peer that cut differently
//!   inside the first disagreeing round. The pair phase runs before any
//!   worker — and in OT mode the Count's offline dialogue after it, on
//!   the same link ([`cargo_mpc::pair_offline_over_wire`]); then the
//!   shared [`CountScheduler`] partitions the `(i, j)` pair space into
//!   chunks and each server worker owns the chunks congruent to its
//!   index, combining them **locally**: no chunk sends a frame;
//! * **one server's arithmetic at kernel speed** — the pair phase masks
//!   a round of pairs in one lane-parallel pass ([`mask_round`]; S₁
//!   never reads the input), which also keeps the round's mask shares
//!   in the table, and a chunk's triples are evaluated by one weighted
//!   pass over its `k`-runs ([`cargo_mpc::weighted_pass`]: a few dot
//!   products of contiguous table rows per run; with dealer material S₂
//!   also holds S₁'s mask shares and words, which the simulated
//!   dealer's predistribution hands it). No dealer word is buffered
//!   beyond a round's and the other server's column is never expanded.
//!   OT mode runs S₁'s pass shape on both servers, S₂'s words installed
//!   by the offline dialogue. The chunk loop is `count_local`'s, which
//!   runs it once per server.
//!
//! Every frame is byte-counted by the transport, and the runtime
//! **overwrites** [`NetStats::wire_bytes`] with the measured online
//! payload — the modeled paths keep `wire_bytes == bytes` by
//! construction, so every test that compares whole `NetStats` structs
//! across paths pins measured == modeled exactly (DESIGN.md §8).
//!
//! The test suite pins this runtime's output to `count_local`: the same
//! per-server steps with and without a link between them compute
//! identical share pairs — for every worker count, batch size, and
//! transport backend, because both key their randomness per `(i, j)`
//! pair.

use crate::count::{
    combine_chunk, count_term, finish, pair_round, plan_triples, runs_offline, AdjacencyBits,
    CountInput, CountJob, CountPart, SecureCountResult,
};
use crate::config::PoolPolicy;
use crate::count_sched::{CountScheduler, PairChunk, PairSet, SchedulePlan};
use cargo_graph::BitMatrix;
use cargo_mpc::{
    expand_input_shares, mask_round, ot_setup_ledger, pair_offline_over_wire, recv_msg, send_msg,
    NetStats, OfflineMode, PairOpeningMsg, PairRun, PairTable, Ring64, ServerId, Transport,
};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// Runs one server's pair phase of `sched`'s Count against the peer on
/// `peer`: `pairs` in rounds of the batch, each round this server's
/// maskings of the round's pairs ([`mask_round`]) sent as one
/// [`PairOpeningMsg`], the peer's received, checked against this
/// server's own cut and summed into the returned table. S₂ reads its
/// users' bits of the round's pairs from `bits`; S₁ reads none. Each
/// round is tallied into `net`.
///
/// # Panics
/// Panics if the peer hangs up, stalls past the link's receive
/// timeout, or sends a round off this server's cut — naming the round.
fn open_pairs<B: AdjacencyBits, T: Transport>(
    id: ServerId,
    job: &CountJob,
    sched: &CountScheduler,
    pairs: &PairSet,
    bits: &B,
    peer: &T,
    net: &mut NetStats,
) -> PairTable {
    let batch = sched.batch();
    let mut table = PairTable::new(job.seed, id, job.offline == OfflineMode::OtExtension);
    table.reserve(pairs.len());
    let bits = (id == ServerId::S2).then_some(bits);
    let (mut keys, mut plain, mut opened) = (Vec::new(), Vec::new(), Vec::new());
    let mut mine = PairOpeningMsg { round: 0, pair: (0, 0), words: Vec::with_capacity(batch) };
    for (round, start) in (0..pairs.len()).step_by(batch).enumerate() {
        let range = start..(start + batch).min(pairs.len());
        let len = range.len();
        let pair = pair_round(pairs, range, bits, &mut keys, &mut plain);
        let at = format_args!("pair round {round}, first pair {pair:?}");
        (mine.round, mine.pair) = (round as u32, pair);
        mine.words.resize(len, 0);
        mask_round(&mut table, &keys, &plain, &mut mine.words);
        net.exchange(len as u64);
        send_msg(peer, &mine).expect("peer hung up");
        let theirs: PairOpeningMsg = recv_msg(peer, mine.round, Some(peer.recv_timeout()))
            .unwrap_or_else(|e| panic!("peer lost in the online round at {at}: {e}"));
        assert_eq!(theirs.round, mine.round, "demux routed a foreign round ({at})");
        assert_eq!(theirs.pair, pair, "peer out of lockstep in the round at {at}");
        assert_eq!(theirs.words.len(), len, "peer slab size mismatch in the round at {at}");
        opened.clear();
        opened.extend(mine.words.iter().zip(&theirs.words).map(|(a, b)| a.wrapping_add(*b)));
        table.push(&opened);
    }
    table
}

/// One server of the sharded runtime — the state its worker pool
/// shares once the pair phase is done. Worker `w` of `workers` owns the
/// chunks with `id ≡ w (mod workers)`.
struct Server<'a> {
    id: ServerId,
    sched: &'a CountScheduler,
    /// The plan's pair set and this server's table of its openings.
    opened: (&'a PairSet, &'a PairTable),
}

impl Server<'_> {
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
    /// this server's slot) and triple count.
    fn run(&self, w: usize, workers: usize) -> CountPart {
        let (mut t_share, mut triples) = (Ring64::ZERO, 0u64);
        // The chunks' runs, rebuilt every chunk in the same buffer.
        let mut runs = Vec::new();
        for chunk in self.sched.chunks().iter().filter(|c| c.id as usize % workers == w) {
            t_share += self.run_chunk(chunk, &mut runs, &mut triples);
        }
        match self.id {
            ServerId::S1 => (t_share, Ring64::ZERO, NetStats::new(), triples),
            ServerId::S2 => (Ring64::ZERO, t_share, NetStats::new(), triples),
        }
    }

    /// Combines one chunk over this server's table: its words are in
    /// the table — the dealer's, as if predistributed, or installed by
    /// the offline dialogue.
    fn run_chunk(&self, chunk: &PairChunk, runs: &mut Vec<PairRun>, triples: &mut u64) -> Ring64 {
        let (pairs, table) = self.opened;
        let ([share], done) = combine_chunk(runs, (pairs, [table]), self.sched, chunk);
        *triples += done as u64;
        share
    }
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
/// [`crate::party`]) and of the serve sessions. The input is a
/// [`BitMatrix`] or a [`CsrGraph`](cargo_graph::CsrGraph), as for
/// [`crate::count::count_local`]; only S₂ reads it, in the pair phase.
///
/// The party tallies the full bidirectional modeled ledger itself
/// (both processes report identical `NetStats`), expands dealer
/// material locally in trusted-dealer mode, and in OT mode runs the
/// Count's offline dialogue over `link` after the pair rounds. Finally
/// it overwrites [`NetStats::wire_bytes`] with the online payload bytes
/// the transport measured — which the equivalence suites pin equal to
/// the modeled `bytes`.
///
/// Both parties must be handed the same job (or the lockstep asserts
/// fire). The other share lives in the peer process: the result
/// carries ours in the slot matching `id` and zero in the other.
pub fn count_party<'a, T: Transport>(
    input: impl Into<CountInput<'a>>,
    job: &CountJob,
    id: ServerId,
    link: &Arc<T>,
) -> SecureCountResult {
    match input.into() {
        CountInput::Matrix(m) => party_scheduled(m, &job.scheduler(m.n()), job, id, link),
        CountInput::Csr(g) => party_scheduled(g, &job.scheduler(g.n()), job, id, link),
    }
}

/// [`count_party`] past scheduler construction.
fn party_scheduled<B: AdjacencyBits, T: Transport>(
    bits: &B,
    sched: &CountScheduler,
    job: &CountJob,
    id: ServerId,
    link: &Arc<T>,
) -> SecureCountResult {
    let pairs = sched.pair_set();
    let mut online = NetStats::new();
    let mut table = open_pairs(id, job, sched, &pairs, bits, &**link, &mut online);
    if runs_offline(job, sched) {
        pair_offline_over_wire(&**link, &mut table, &plan_triples(&pairs, sched));
    }
    let server = Server { id, sched, opened: (&*pairs, &table) };
    let parts = server.run_workers();
    let term = count_term(sched, &table);
    let online = match id {
        ServerId::S1 => (term, Ring64::ZERO, online, 0),
        ServerId::S2 => (Ring64::ZERO, term, online, 0),
    };
    let mut result = finish(sched, job.offline, pairs.len(), parts.into_iter().chain([online]));
    result.net.wire_bytes = link.stats().online_payload_both();
    result
}

/// Pinned by `benchmark/src/bin/trace/pipeline.rs`, which calls it
/// positionally; `_pool` is the placeholder `CargoConfig::pool_policy`
/// returns, and is ignored.
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
    _pool: PoolPolicy,
    plan: SchedulePlan,
) -> SecureCountResult {
    let job = CountJob { threads, batch, offline, plan, ..CountJob::new(seed) };
    count_party(matrix, &job, id, link)
}

/// Runs `job` with **both** parties in this process: [`count_party`]
/// as S₁ on `end1` and as S₂ on `end2`, the two ends of a link pair the
/// caller made (`memory_pair()`, a `TcpTransport::loopback_pair` with
/// whatever recv timeout the caller wants, a fault-injecting decorator,
/// …). Nothing but what two `party` processes exchange crosses it.
///
/// Shares, the online [`NetStats`] and the offline ledger are
/// bit-identical to [`crate::count::count_local`] on the same input and
/// job;
/// `wire_bytes` is what `end1` actually measured.
///
/// # Panics
/// Re-raises a party's panic as is; panics if the two parties' ledgers
/// or triple counts disagree, or if the offline payload `end1`
/// measured is not the modeled flight ledger.
pub fn count_two_party<'a, T: Transport>(
    input: impl Into<CountInput<'a>>,
    job: &CountJob,
    end1: &Arc<T>,
    end2: &Arc<T>,
) -> SecureCountResult {
    let input = input.into();
    let (r1, r2) = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| count_party(input, job, ServerId::S1, end1));
        let h2 = scope.spawn(|| count_party(input, job, ServerId::S2, end2));
        (join(h1), join(h2))
    });
    assert_eq!(r1.net, r2.net, "the parties' ledgers (modeled and measured) disagree");
    assert_eq!(r1.triples, r2.triples, "the parties evaluated different triple counts");
    // Measured-vs-modeled: the offline payload that actually crossed
    // the wire must equal the modeled dialogue ledger (the base-OT setup
    // is a per-run constant that never crosses this link).
    let flights = if r1.net.offline.is_empty() {
        0
    } else {
        r1.net.offline.bytes - ot_setup_ledger().bytes
    };
    assert_eq!(
        end1.stats().offline_payload_both(),
        flights,
        "the offline payload on the link is not the modeled flight ledger"
    );
    SecureCountResult { share2: r2.share2, ..r1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_local;
    use crate::DEFAULT_COUNT_BATCH;
    use cargo_graph::generators::{barabasi_albert, erdos_renyi};
    use crate::count_sched::CandidateSet;
    use cargo_graph::{count_triangles_matrix, CsrGraph, Graph};
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

    /// Whether some pair round of `batch` pairs ends inside a row's run
    /// of the pair set, so that a `k`-run's pairs open over two rounds.
    fn a_round_cuts_a_row(pairs: &PairSet, batch: usize) -> bool {
        let mut cut = false;
        pairs.for_each_run(0..pairs.len(), |slot, _, _, len| {
            cut |= (slot + 1..slot + len).any(|s| s % batch == 0);
        });
        cut
    }

    #[test]
    fn rounds_that_cut_a_draw_mid_run_match_the_fast_path_over_memory_and_tcp() {
        // A pair round that ends inside a row leaves the rest of a
        // k-run's pairs to the next round; each chunk's pass reads the
        // run's pairs from the table wherever they were opened. Batches
        // 1 and 7 cut almost every row of n = 30; at n = 120 the default
        // batch cuts rows of the cube's 7 140 pairs.
        for (n, batch) in [(30usize, 1usize), (30, 7), (120, DEFAULT_COUNT_BATCH)] {
            let m = erdos_renyi(n, 0.3, 12).to_bit_matrix();
            let wire = job(31, 2, batch);
            let sched = wire.scheduler(n);
            assert_eq!(sched.batch(), batch, "n = {n}: a chunk outweighs the batch");
            let cut = a_round_cuts_a_row(&sched.pair_set(), batch);
            assert!(cut, "n = {n}, batch {batch}: no pair round ends inside a row");
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
        // On a sparse candidate schedule a chunk's runs are mostly
        // shorter than a vector, so the pass runs most triples in its
        // scalar tails, and a pair round may end inside a row. Dealer and
        // OT material, over memory and TCP, must reproduce the fast path
        // share for share.
        let g = erdos_renyi(90, 0.15, 4);
        let m = g.to_bit_matrix();
        let plan = SchedulePlan::CsrStream(Arc::new(CsrGraph::from_graph(&g)));
        let ot = CountJob { offline: OfflineMode::OtExtension, ..job(23, 2, 0) };
        let modes = [job(23, 2, 0), ot];
        let mut cuts_a_row = false;
        for batch in [7usize, DEFAULT_COUNT_BATCH] {
            let sched = CountJob { plan: plan.clone(), ..job(23, 2, batch) }.scheduler(m.n());
            let (mut draws, mut short) = (0usize, 0usize);
            for chunk in sched.chunks() {
                let plan = sched.chunk_plan(chunk);
                draws += plan.len();
                short += plan.iter().filter(|d| d.groups < 8).count();
            }
            cuts_a_row |= a_round_cuts_a_row(&sched.pair_set(), sched.batch());
            assert!(4 * short > 3 * draws, "batch {batch}: {short} of {draws} runs are short");
            for mode in &modes {
                let wire = CountJob { plan: plan.clone(), batch, ..mode.clone() };
                let fast = count_local(&m, &CountJob { threads: 1, ..wire.clone() });
                assert!(fast.triples > 0);
                let runs = [("memory", over_memory(&m, &wire)), ("tcp", over_tcp(&m, &wire))];
                for (link, res) in runs {
                    let at = format!("{link}, batch {batch}, {:?}", wire.offline);
                    assert_eq!((res.share1, res.share2), (fast.share1, fast.share2), "{at}");
                    assert_eq!(res.net, fast.net, "{at}");
                    assert_eq!(res.triples, fast.triples, "{at}");
                }
            }
        }
        assert!(cuts_a_row, "no pair round ends inside a row");
    }

    #[test]
    fn a_wire_count_over_a_csr_matches_the_local_count_over_it() {
        // A wire party reads its input only in the pair phase, so it
        // takes a CSR as count_local does: over the graph's own streamed
        // plan, both match share for share and ledger for ledger.
        let csr = Arc::new(CsrGraph::from_graph(&barabasi_albert(90, 4, 3)));
        let plan = SchedulePlan::CsrStream(Arc::clone(&csr));
        for mode in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            for (threads, batch) in [(1usize, 0usize), (2, 7)] {
                let wire = CountJob { offline: mode, plan: plan.clone(), ..job(41, threads, batch) };
                let local = count_local(&*csr, &wire);
                let (end1, end2) = cargo_mpc::memory_pair();
                let res = count_two_party(&*csr, &wire, &Arc::new(end1), &Arc::new(end2));
                let at = format!("{mode:?}, threads {threads}, batch {batch}");
                assert!(local.triples > 0, "{at}");
                assert_eq!((res.share1, res.share2), (local.share1, local.share2), "{at}");
                assert_eq!(res.triples, local.triples, "{at}");
                assert_eq!(res.net, local.net, "{at}");
            }
        }
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
        // OT mode: count_two_party is S₁'s count_party result plus
        // S₂'s share.
        let m = erdos_renyi(24, 0.3, 5).to_bit_matrix();
        let ot = ot_job(8, 2, 16);
        let both = over_memory(&m, &ot);
        let (end1, end2) = cargo_mpc::memory_pair();
        let (end1, end2) = (Arc::new(end1), Arc::new(end2));
        let (r1, r2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| count_party(&m, &ot, ServerId::S1, &end1));
            let h2 = scope.spawn(|| count_party(&m, &ot, ServerId::S2, &end2));
            (h1.join().unwrap(), h2.join().unwrap())
        });
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
        // The pair rounds are a function of (plan, batch): two parties
        // handed different batches disagree from the first round on, and
        // its slab-length check must stop both at once — long before the
        // link's stall bound, and with no count.
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
            assert!(text.contains("pair round 0, first pair (0, 1)"), "{text}");
        }
        assert_eq!(end1.stats().frames_sent, 1, "S1 stopped inside the first round");
        assert_eq!(end2.stats().frames_sent, 1, "S2 stopped inside the first round");
    }

    #[test]
    fn a_peer_off_the_round_cut_trips_the_lockstep_checks() {
        // A scripted S₂ answers the first pair round with a frame that
        // is off the cut in one way at a time: a slab one pair short,
        // another first pair. S₁ must stop on the matching check, naming
        // the round. (A frame of another round is never routed to this
        // one: the demux keys by round.)
        let m = erdos_renyi(12, 0.5, 3).to_bit_matrix();
        let s1_job = job(5, 1, 16);
        let honest = PairOpeningMsg { round: 0, pair: (0, 1), words: vec![0; 16] };
        let cases = [
            (PairOpeningMsg { words: vec![0; 15], ..honest.clone() }, "peer slab size mismatch"),
            (PairOpeningMsg { pair: (0, 2), ..honest.clone() }, "peer out of lockstep"),
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
            assert!(text.contains("pair round 0, first pair (0, 1)"), "{check}: {text}");
        }
    }

    #[test]
    fn a_wire_count_opens_each_pair_once() {
        // The cube of 30 users reads each of its 435 pairs from up to 28
        // triples; a complete graph's support plan reads its 190 pairs
        // from up to 18. Either way each party sends exactly one word a
        // pair over ⌈P/batch⌉ frames and receives as many: 8·P bytes
        // each way, however many triples read a pair.
        let complete = Graph::from_edges(20, &(0..20).flat_map(|u| (u + 1..20).map(move |v| (u, v))).collect::<Vec<_>>()).unwrap();
        let cases = [
            (erdos_renyi(30, 0.3, 2).to_bit_matrix(), SchedulePlan::DenseCube, 435u64),
            (
                complete.to_bit_matrix(),
                SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_graph(&complete))),
                190,
            ),
        ];
        for (m, plan, pairs) in cases {
            let batch = 64;
            let wire = CountJob { plan, ..job(3, 2, batch) };
            assert_eq!(wire.scheduler(m.n()).pair_set().len() as u64, pairs);
            let (end1, end2) = cargo_mpc::memory_pair();
            let (end1, end2) = (Arc::new(end1), Arc::new(end2));
            let res = count_two_party(&m, &wire, &end1, &end2);
            assert!(res.triples > pairs, "pairs are read by many triples");
            for end in [&end1, &end2] {
                let stats = end.stats();
                assert_eq!(stats.online_payload_sent, 8 * pairs, "one word a pair sent");
                assert_eq!(stats.online_payload_recv, 8 * pairs, "one word a pair received");
                assert_eq!(stats.frames_sent, pairs.div_ceil(batch as u64));
            }
            assert_eq!((res.net.elements, res.net.bytes), (2 * pairs, 16 * pairs));
            assert_eq!(res.net.rounds, pairs.div_ceil(batch as u64));
            assert_eq!(res.reconstruct(), Ring64(count_triangles_matrix(&m)));
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
        // The same share pair and online ledger: the OT dialogue over
        // the link derandomises onto the dealer's words.
        let g = erdos_renyi(30, 0.25, 4);
        let m = g.to_bit_matrix();
        let dealer = over_memory(&m, &job(9, 2, 8));
        let ot = over_memory(&m, &ot_job(9, 2, 8));
        assert_eq!((ot.share1, ot.share2), (dealer.share1, dealer.share2));
        assert_eq!(ot.reconstruct(), Ring64(count_triangles_matrix(&m)));
        assert_eq!(ot.net.online(), dealer.net, "online ledgers coincide");
        assert!(dealer.net.offline.is_empty());
        assert!(!ot.net.offline.is_empty());
    }
}
