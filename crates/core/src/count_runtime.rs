//! Algorithm 4 the way a deployment runs it: one server per party.
//!
//! [`count_party`] is the wire driver of a server's Count machine
//! (`count_machine::ServerCount`, which [`crate::count::count_local`]
//! steps both of in process): it runs one server, as each of the `party`
//! binary's two OS processes does, against its peer on whatever
//! [`Transport`] the caller hands in — `cargo_mpc::memory_pair()`,
//! `TcpTransport::loopback_pair(..)` or a cross-machine socket.
//! [`count_two_party`] runs two, one per end of a link pair. There is no
//! third role: dealer material is a seeded stream each party expands its
//! own column of, as if predistributed.
//!
//! Each message the machine sends crosses as one frame: a pair round's
//! words ([`cargo_mpc::PairOpeningMsg`], one masking word per new pair,
//! under the round's tag) or an offline flight
//! ([`cargo_mpc::OfflineMsg`]). Both parties derive every round's cut
//! from the public plan, `batch` and the run's past plans; the machine's
//! lockstep checks (round, first pair, slab length, fold of the new pair
//! keys) stop a peer that cut differently in the first round it
//! disagrees. S₁ never reads a plaintext bit. The chunks then combine
//! locally under [`crate::CountScheduler::run_chunks`], sending nothing.
//! The online payload the link carries over the Count is its
//! `wire_bytes`, which the equivalence suites pin equal to the modeled
//! bytes (DESIGN.md §8).

use crate::config::PoolPolicy;
use crate::count::{run_count, AdjacencyBits, CountFailure, CountInput, CountJob, SecureCountResult};
use crate::count_machine::{Awaited, CountError, CountMsg, ServerCount, Step};
use crate::count_sched::SchedulePlan;
use crate::pair_phase::OpenedPairs;
use cargo_graph::BitMatrix;
use cargo_mpc::{
    expand_input_shares, ot_setup_ledger, recv_msg, send_msg, OfflineMode, Ring64, ServerId,
    SimdTier, Transport,
};
use std::sync::Arc;

/// The wire driver: one server's machine against its peer on `link`.
/// A send goes out as its frame, an await waits for its frame under the
/// link's receive timeout (a pair round's by its round tag); a failed
/// send or receive is a [`CountError`]. Returns the online payload the
/// link carried from the machine's first poll to its last.
fn drive_wire<B: AdjacencyBits, T: Transport>(link: &T, [machine]: &mut [ServerCount<'_, B>; 1]) -> Result<Option<u64>, CountError> {
    let (before, timeout) = (link.stats().online_payload_both(), Some(link.recv_timeout()));
    let mut inbox = None;
    loop {
        match machine.poll(inbox.take())? {
            Step::Send(CountMsg::Pair(msg)) => send_msg(link, msg).map_err(|error| CountError::Send { offline: false, error })?,
            Step::Send(CountMsg::Offline(msg)) => send_msg(link, msg).map_err(|error| CountError::Send { offline: true, error })?,
            Step::Await(awaited) => {
                let got = match awaited {
                    Awaited::Pair { round, .. } => recv_msg(link, round, timeout).map(CountMsg::Pair),
                    Awaited::Offline { .. } => recv_msg(link, 0, timeout).map(CountMsg::Offline),
                };
                inbox = Some(got.map_err(|error| CountError::Recv { awaited, error })?);
            }
            Step::Done => return Ok(Some(link.stats().online_payload_both() - before)),
        }
    }
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

/// Runs server `id`'s side of `job` against a live peer on the other
/// end of `link` — the Count of the `party` binaries (via
/// [`crate::party`]) and of the serve sessions. The input is a
/// [`BitMatrix`] or a [`CsrGraph`](cargo_graph::CsrGraph), as for
/// [`crate::count::count_local`]; only S₂ reads it, in the pair phase.
/// The party tallies the full bidirectional ledger itself (both report
/// identical ones); its `wire_bytes` are the online payload this
/// Count's frames carried, both ways. The result carries this server's
/// share in its slot and zero in the other.
///
/// # Errors
/// A [`CountFailure`] if the peer hangs up, stalls past the link's
/// receive timeout or sends a message off this server's cut (a peer
/// handed another job) — naming the round or flight.
pub fn count_party<'a, T: Transport>(
    input: impl Into<CountInput<'a>>,
    job: &CountJob,
    id: ServerId,
    link: &Arc<T>,
) -> Result<SecureCountResult, CountFailure> {
    count_party_reusing(input, job, id, link, None)
}

/// [`count_party`] through a run's kept openings, as
/// [`crate::count::count_local_reusing`]: the peer must keep the same.
/// Fails as [`count_party`], keeping no new opening.
///
/// # Panics
/// Panics if `opened` was kept under another Count seed, and on S₂ if a
/// kept pair's bit reads 0 — naming the pair.
pub(crate) fn count_party_reusing<'a, T: Transport>(
    input: impl Into<CountInput<'a>>,
    job: &CountJob,
    id: ServerId,
    link: &Arc<T>,
    opened: Option<&mut OpenedPairs>,
) -> Result<SecureCountResult, CountFailure> {
    let (one, link) = (([id], SimdTier::detect()), &**link);
    match input.into() {
        CountInput::Matrix(m) => run_count(m, (job, &job.scheduler(m.n())), one, opened, |ms| drive_wire(link, ms)),
        CountInput::Csr(g) => run_count(g, (job, &job.scheduler(g.n())), one, opened, |ms| drive_wire(link, ms)),
    }
}

/// Pinned by `benchmark/src/bin/trace/pipeline.rs`, which calls it
/// positionally and reads its result: [`count_party`], panicking with
/// the failure's text. `_pool` is the placeholder
/// `CargoConfig::pool_policy` returns, and is ignored.
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
    count_party(matrix, &job, id, link).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `job` with **both** parties in this process: [`count_party`]
/// as S₁ on `end1` and as S₂ on `end2`, the two ends of a link pair the
/// caller made (`memory_pair()`, a `TcpTransport::loopback_pair`, a
/// fault-injecting decorator, …). Shares and ledger are
/// [`crate::count::count_local`]'s on the same input and job; S₁'s
/// [`CountFailure`] if its Count failed, else S₂'s.
///
/// # Panics
/// Panics if the two parties' ledgers or triple counts disagree, or if
/// the offline payload the Count moved on `end1` is not the modeled
/// flight ledger.
pub fn count_two_party<'a, T: Transport>(
    input: impl Into<CountInput<'a>>,
    job: &CountJob,
    end1: &Arc<T>,
    end2: &Arc<T>,
) -> Result<SecureCountResult, CountFailure> {
    let input = input.into();
    let before = end1.stats().offline_payload_both();
    let [r1, r2] = std::thread::scope(|scope| {
        [(ServerId::S1, end1), (ServerId::S2, end2)]
            .map(|(id, end)| scope.spawn(move || count_party(input, job, id, end)))
            .map(|party| party.join().expect("a party's thread panicked"))
    });
    let (r1, r2) = (r1?, r2?);
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
        end1.stats().offline_payload_both() - before,
        flights,
        "the offline payload on the link is not the modeled flight ledger"
    );
    Ok(SecureCountResult { share2: r2.share2, ..r1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::{count_local, count_local_reusing};
    use crate::DEFAULT_COUNT_BATCH;
    use cargo_graph::generators::{barabasi_albert, erdos_renyi};
    use crate::count_sched::{CandidateSet, PairSet};
    use cargo_graph::{count_triangles_matrix, CsrGraph, Graph};
    use cargo_mpc::{PairOpeningMsg, TcpConfig, TcpTransport};
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
        let res = count_two_party(m, job, &end1, &end2).expect("both parties follow one job");
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
                let res = count_two_party(&*csr, &wire, &Arc::new(end1), &Arc::new(end2)).unwrap();
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
                (h1.join().unwrap().unwrap(), h2.join().unwrap().unwrap())
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
            (h1.join().unwrap().unwrap(), h2.join().unwrap().unwrap())
        });
        assert_eq!((both.share1, both.share2), (r1.share1, r2.share2));
        assert_eq!((both.net, both.triples), (r1.net, r1.triples));
    }

    #[test]
    fn a_count_on_a_used_link_reports_its_own_payload() {
        // Three Counts in turn on one link: each reports the payload its
        // own frames carried, online and offline, not the link's totals.
        let m = erdos_renyi(30, 0.3, 4).to_bit_matrix();
        let (end1, end2) = cargo_mpc::memory_pair();
        let (end1, end2) = (Arc::new(end1), Arc::new(end2));
        for count in [job(5, 1, 16), ot_job(6, 2, 7), ot_job(7, 1, 0)] {
            let res = count_two_party(&m, &count, &end1, &end2).unwrap();
            assert_eq!(res.net.wire_bytes, res.net.bytes, "{count:?}");
            assert_eq!(res.net, count_local(&m, &count).net, "{count:?}");
        }
    }

    /// The failure of a party that must not have returned a count.
    fn failure(outcome: Result<SecureCountResult, CountFailure>) -> String {
        outcome.expect_err("a diverged party must fail, not return a count").to_string()
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
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert!(started.elapsed() < stall / 2, "failed on a check, not on the timeout");
        for text in [failure(r1), failure(r2)] {
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
        // another first pair, another round. S₁ must stop on the
        // matching check, naming the round.
        let m = erdos_renyi(12, 0.5, 3).to_bit_matrix();
        let s1_job = job(5, 1, 16);
        let honest = PairOpeningMsg { round: 0, pair: (0, 1), fold: 0, words: vec![0; 16] };
        let cases = [
            (PairOpeningMsg { words: vec![0; 15], ..honest.clone() }, "peer slab size mismatch"),
            (PairOpeningMsg { pair: (0, 2), ..honest.clone() }, "peer out of lockstep"),
            (PairOpeningMsg { round: 1, ..honest.clone() }, "got a pair opening (type 6, tag 1)"),
        ];
        for (frame, check) in cases {
            let stall = std::time::Duration::from_secs(60);
            let (end1, end2) = cargo_mpc::memory_pair_with_timeout(stall);
            let end1 = Arc::new(end1);
            let started = std::time::Instant::now();
            let r1 = std::thread::scope(|scope| {
                let h1 = scope.spawn(|| count_party(&m, &s1_job, ServerId::S1, &end1));
                send_msg(&end2, &frame).expect("S1 is listening");
                h1.join().unwrap()
            });
            assert!(started.elapsed() < stall / 2, "{check}: stopped by the timeout");
            let text = failure(r1);
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
            let res = count_two_party(&m, &wire, &end1, &end2).unwrap();
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

    /// Two Counts of one run over overlapping triangle plans of `m` —
    /// the second reads pairs the first opened and pairs it did not.
    fn overlapping_plans(m: &BitMatrix) -> [SchedulePlan; 2] {
        let g = Graph::from_bit_matrix(m);
        let cs = CandidateSet::from_graph(&g);
        let triangles: Vec<_> = (0..cs.len())
            .flat_map(|p| {
                let (i, j) = cs.pair(p);
                cs.ks(p).iter().map(move |&k| (i, j, k)).collect::<Vec<_>>()
            })
            .collect();
        let (first, _) = triangles.split_at(triangles.len() / 2);
        let (plus, minus) = triangles.split_at(triangles.len() / 3);
        [
            SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_triples(m.n(), first))),
            SchedulePlan::CandidatePairs(Arc::new(CandidateSet::signed(m.n(), plus, minus))),
        ]
    }

    /// Runs `counts` in turn over `ends`, both parties keeping the
    /// run's openings, and checks each against `local` — the same
    /// Counts in process: shares, ledgers and, in dealer mode, one frame
    /// a round. Returns what the two parties kept.
    fn kept_run<T: Transport>(
        m: &BitMatrix,
        counts: &[CountJob],
        local: &[SecureCountResult],
        (end1, end2): (T, T),
    ) -> [OpenedPairs; 2] {
        let (end1, end2) = (Arc::new(end1), Arc::new(end2));
        let seed = counts[0].seed;
        let [mut k1, mut k2] = [OpenedPairs::new(seed, m.n()), OpenedPairs::new(seed, m.n())];
        for (count, local) in counts.iter().zip(local) {
            let before = end1.stats();
            let (r1, r2) = std::thread::scope(|scope| {
                let h1 = scope.spawn(|| count_party_reusing(m, count, ServerId::S1, &end1, Some(&mut k1)));
                let h2 = scope.spawn(|| count_party_reusing(m, count, ServerId::S2, &end2, Some(&mut k2)));
                (h1.join().unwrap().unwrap(), h2.join().unwrap().unwrap())
            });
            let at = format!("{:?}, threads {}, batch {}", count.offline, count.threads, count.batch);
            assert_eq!((r1.share1, r2.share2), (local.share1, local.share2), "{at}");
            assert_eq!(r1.net, local.net, "{at}");
            assert_eq!(r2.net, r1.net, "{at}");
            if count.offline == OfflineMode::TrustedDealer {
                let sent = end1.stats().frames_sent - before.frames_sent;
                assert_eq!(sent, local.net.rounds, "{at}: one frame a round");
            }
        }
        [k1, k2]
    }

    #[test]
    fn wire_counts_through_kept_openings_match_the_local_counts_over_memory_and_tcp() {
        // A run of two Counts, both parties keeping the openings: each
        // Count's shares are the uncached Count's, its ledger the local
        // cached Count's — only the new pairs cross, one frame a round
        // each way — and both parties end up keeping what the local run
        // keeps.
        let m = erdos_renyi(40, 0.35, 8).to_bit_matrix();
        for mode in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            for (threads, batch) in [(1usize, 0usize), (2, 5)] {
                let wire = CountJob { offline: mode, ..job(19, threads, batch) };
                let counts = overlapping_plans(&m).map(|plan| CountJob { plan, ..wire.clone() });
                let mut local_kept = OpenedPairs::new(wire.seed, m.n());
                let mut local = Vec::new();
                for count in &counts {
                    let plain = count_local(&m, count);
                    let before = local_kept.len() as u64;
                    let res = count_local_reusing(&m, count, Some(&mut local_kept));
                    let new = local_kept.len() as u64 - before;
                    let pairs = count.scheduler(40).pair_set().len() as u64;
                    assert!(new > 0 && (new < pairs) == (before > 0), "{new} of {pairs} new");
                    assert_eq!((res.share1, res.share2), (plain.share1, plain.share2));
                    assert_eq!(res.net.elements, 2 * new, "{mode:?}: the new pairs alone");
                    let batch = count.scheduler(40).batch() as u64;
                    assert_eq!(res.net.rounds, new.div_ceil(batch), "{mode:?}");
                    local.push(res);
                }
                let (a, b, _) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
                let runs = [
                    ("memory", kept_run(&m, &counts, &local, cargo_mpc::memory_pair())),
                    ("tcp", kept_run(&m, &counts, &local, (a, b))),
                ];
                for (name, [k1, k2]) in &runs {
                    assert_eq!(k1.len(), local_kept.len(), "{name}");
                    for (i, j) in (0..40u32).flat_map(|i| (i + 1..40).map(move |j| (i, j))) {
                        let want = local_kept.get(i, j);
                        assert_eq!((k1.get(i, j), k2.get(i, j)), (want, want), "{name}: ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn s2_refuses_a_kept_pair_whose_bit_reads_zero() {
        // Kept openings are of the value 1: a Count that read a kept
        // pair at 0 would count it at the wrong value. S₂ — the one
        // party reading bits — stops before its first frame, naming
        // the pair.
        let complete = Graph::from_edges(6, &(0..6).flat_map(|u| (u + 1..6).map(move |v| (u, v))).collect::<Vec<_>>()).unwrap();
        let mut m = complete.to_bit_matrix();
        let plan = SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_graph(&complete)));
        let count = CountJob { plan, ..job(3, 1, 4) };
        let mut kept = OpenedPairs::new(count.seed, m.n());
        count_local_reusing(&m, &count, Some(&mut kept));
        assert_eq!(kept.len(), 15);
        m.set(1, 3, false);
        let (_, end2) = cargo_mpc::memory_pair();
        let end2 = Arc::new(end2);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            count_party_reusing(&m, &count, ServerId::S2, &end2, Some(&mut kept))
        }));
        let panic = refused.expect_err("a kept pair read at 0 must not count");
        let text = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("pair (1, 3) was opened at 1"), "{text}");
        assert_eq!(end2.stats().frames_sent, 0, "refused before any frame");
        assert_eq!(kept.len(), 15, "a failed Count keeps nothing new");
    }

    #[test]
    fn a_count_against_a_dropped_peer_fails_and_keeps_nothing() {
        // The run kept the first plan's openings; the second Count's
        // first round goes out, then its peer drops its end. S₁ returns
        // the lost peer as a value, keeps no opening of that Count and
        // sends nothing more.
        let m = erdos_renyi(40, 0.35, 8).to_bit_matrix();
        let [first, second] = overlapping_plans(&m).map(|plan| CountJob { plan, ..job(19, 1, 4) });
        let mut kept = OpenedPairs::new(first.seed, m.n());
        count_local_reusing(&m, &first, Some(&mut kept));
        let before = kept.len();
        assert!(before > 0);
        let (end1, end2) = cargo_mpc::memory_pair();
        let end1 = Arc::new(end1);
        let lost = std::thread::scope(|scope| {
            scope.spawn(move || {
                let _: PairOpeningMsg = recv_msg(&end2, 0, None).expect("S1's first round");
                drop(end2);
            });
            count_party_reusing(&m, &second, ServerId::S1, &end1, Some(&mut kept))
        });
        let text = failure(lost);
        assert!(text.contains("peer lost in the online round at pair round 0"), "{text}");
        assert_eq!(kept.len(), before, "a failed Count keeps nothing new");
        assert_eq!(end1.stats().frames_sent, 1, "no frame after the failure");
    }

    #[test]
    fn parties_whose_kept_openings_differ_by_one_pair_fail_in_the_first_round() {
        // S₁ keeps pair (0, 4) — slot 3 of K₈'s 28 — and S₂ keeps
        // nothing. Both send 8 words in round 0 under the first pair
        // (0, 1), S₁'s walked one slot further: only the fold of the
        // round's new pair keys tells the two cuts apart, and it must
        // stop both before either opens a word.
        let complete = Graph::from_edges(8, &(0..8).flat_map(|u| (u + 1..8).map(move |v| (u, v))).collect::<Vec<_>>()).unwrap();
        let m = complete.to_bit_matrix();
        let plan = SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_graph(&complete)));
        let count = CountJob { plan, ..job(9, 1, 8) };
        let [mut k1, mut k2] = [OpenedPairs::new(count.seed, 8), OpenedPairs::new(count.seed, 8)];
        let [l1, l2] = [ServerId::S1, ServerId::S2].map(|s| cargo_mpc::mask_prf(count.seed, s, 0, 4));
        k1.record(&[(0, cargo_mpc::pair_key(0, 4))], &[1u64.wrapping_sub(l1).wrapping_sub(l2)]);
        let stall = std::time::Duration::from_secs(60);
        let (end1, end2) = cargo_mpc::memory_pair_with_timeout(stall);
        let (end1, end2) = (Arc::new(end1), Arc::new(end2));
        let started = std::time::Instant::now();
        let (r1, r2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| count_party_reusing(&m, &count, ServerId::S1, &end1, Some(&mut k1)));
            let h2 = scope.spawn(|| count_party_reusing(&m, &count, ServerId::S2, &end2, Some(&mut k2)));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert!(started.elapsed() < stall / 2, "failed on a check, not on the timeout");
        for text in [failure(r1), failure(r2)] {
            assert!(text.contains("peer out of lockstep past the first pair"), "{text}");
            assert!(text.contains("pair round 0, first pair (0, 1)"), "{text}");
        }
        assert_eq!((end1.stats().frames_sent, end2.stats().frames_sent), (1, 1), "stopped inside round 0");
        assert_eq!((k1.len(), k2.len()), (1, 0), "a failed Count keeps nothing new");
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
        // The two-party preprocessing dialogue over the link must
        // reproduce the in-process engine exactly: shares,
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
