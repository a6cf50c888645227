//! Offline/online equivalence suite: the OT-extension offline phase
//! must be a *cost* change, never a *value* change.
//!
//! For arbitrary (asymmetric) bit matrices, `OfflineMode::OtExtension`
//! and `OfflineMode::TrustedDealer` must produce identical share pairs
//! and identical **online** `NetStats` ledgers on every Count path —
//! while the OT mode's offline ledger follows the pinned closed form
//! exactly: one dialogue per Count over its `P` pairs and `T` triples
//! ([`cargo_mpc::count_offline_ledger`]) plus one base-OT setup. Because
//! S₂'s words are assembled from OT outputs plus public derandomisation
//! offsets (see `cargo_mpc::offline`), that share equality is a genuine
//! end-to-end check of the IKNP extension and the Gilboa products, not a
//! tautology; `secure_count_reference`, the per-triple MG protocol, opens
//! the same count.

use cargo_core::{
    count_local, count_two_party, secure_count_reference, CandidateSet, CountJob,
    CountScheduler, OfflineMode, SchedulePlan,
};
use cargo_graph::{BitMatrix, CsrGraph, Graph};
use cargo_mpc::{
    count_offline_ledger, memory_pair, ot_setup_ledger, Frame, InMemoryTransport, OfflineLedger,
    OfflineMsg, RecvError, SplitMix64, TcpConfig, TcpTransport, Transport, WireMessage, WireStats,
    MAX_FLIGHT_PAIRS, MAX_FLIGHT_TRIPLES,
};
use cargo_mpc::ot::CORRECTION_BYTES;
use cargo_mpc::wire::MAX_FRAME_PAYLOAD_BYTES;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn job(seed: u64, threads: usize, batch: usize, offline: OfflineMode) -> CountJob {
    CountJob { threads, batch, offline, ..CountJob::new(seed) }
}

/// Strategy: an arbitrary n×n bit matrix (not necessarily symmetric)
/// with a seeded density in (0, 1).
fn arb_bit_matrix(max_n: usize) -> impl Strategy<Value = BitMatrix> {
    (3usize..max_n, 1u32..10, any::<u64>()).prop_map(|(n, tenths, seed)| {
        let mut rng = SplitMix64::new(seed);
        let threshold = (tenths as u64) * (u64::MAX / 10);
        let mut m = BitMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.next_u64() < threshold {
                    m.set(i, j, true);
                }
            }
        }
        m
    })
}

/// The closed-form offline cost of a Count over `sched`: one base-OT
/// setup plus one dialogue over the plan's pair set and triples —
/// independent of the workers and of the online batch. This is the
/// fixture the ledger is pinned to.
fn expected_offline(sched: &CountScheduler) -> OfflineLedger {
    let mut ledger = OfflineLedger::new();
    if !sched.chunks().is_empty() {
        ledger.merge(&count_offline_ledger(sched.pair_set().len() as u64, sched.total_triples()));
        ledger.merge(&ot_setup_ledger());
    }
    ledger
}

#[test]
fn offline_cost_formula_is_pinned() {
    // Golden fixture for the cost model: n = 10, P = 45 pairs,
    // T = C(10,3) = 120 triples.
    //   key columns  16 · 128 · 45            =  92 160
    //   corrections  260 · (6·120 + 2·45)      = 210 600
    //   offsets      8 · 46, digest 8          =     376
    //   base OTs     128 · 64                  =   8 192
    //   bytes = 311 328 in 2 + 2 rounds.
    // (Full-word corrections, 512 B an element, paid 515 448.)
    // (The per-triple Multiplication Groups paid 512 extended OTs and
    // 12 320 bytes a triple: 1 494 800 bytes and 7 rounds here.)
    let m = BitMatrix::zeros(10);
    for batch in [1usize, 4, 0] {
        let res = count_local(&m, &job(1, 1, batch, OfflineMode::OtExtension));
        assert_eq!(res.triples, 120);
        let off = res.net.offline;
        assert_eq!(off.base_ots, 128);
        assert_eq!(off.extended_ots, 128 * 45);
        assert_eq!(off, expected_offline(&CountScheduler::new(10, 1, batch)), "batch {batch}");
        // Absolute numbers, hard-coded so any formula change must be
        // a deliberate, reviewed edit:
        assert_eq!(off.bytes, 311_328);
        assert_eq!(off.rounds, 2 + 2);
    }
}

#[test]
fn offline_rounds_follow_the_chunk_flight_structure() {
    // n = 30: C(30,3) = 4 060 triples over several chunks and four
    // correction flights — the rounds stay the dialogue's two, whatever
    // the chunks and flights, and the bytes follow the pairs and
    // triples alone.
    let m = BitMatrix::zeros(30);
    let res = count_local(&m, &job(3, 1, 0, OfflineMode::OtExtension));
    assert_eq!(res.triples, 4060);
    let sched = CountScheduler::new(30, 1, 0);
    assert!(sched.chunks().len() > 1);
    assert_eq!(4060usize.div_ceil(MAX_FLIGHT_TRIPLES), 4);
    let off = res.net.offline;
    assert_eq!(off, expected_offline(&sched));
    assert_eq!(off.extended_ots, 128 * 435);
    assert_eq!(off.rounds, 2 + 2);
    assert_eq!(off.bytes, 2048 * 435 + 260 * (6 * 4060 + 2 * 435) + 8 * 436 + 8 + 8192);
    assert_eq!(off.bytes, 7_462_368);
}

#[test]
fn empty_and_tiny_matrices_cost_nothing_offline() {
    for n in [0usize, 1, 2] {
        let m = BitMatrix::zeros(n);
        let res = count_local(&m, &job(1, 1, 0, OfflineMode::OtExtension));
        assert!(res.net.offline.is_empty(), "n = {n}: no pairs, no setup");
    }
}

/// A graph on `n` users with a triangle on every third vertex and a
/// sprinkle of chords, and the plans a Count runs over it: the dense
/// cube, the eager sparse plan, the streamed plan and a signed plan.
fn plans(n: usize, seed: u64) -> (BitMatrix, Vec<(&'static str, SchedulePlan)>) {
    let mut rng = SplitMix64::new(seed);
    let mut edges: Vec<(usize, usize)> =
        (0..n / 3).flat_map(|t| [(3 * t, 3 * t + 1), (3 * t + 1, 3 * t + 2), (3 * t, 3 * t + 2)]).collect();
    edges.extend(
        (0..n)
            .map(|_| ((rng.next_u64() % n as u64) as usize, (rng.next_u64() % n as u64) as usize))
            .filter(|(u, v)| u != v),
    );
    let g = Graph::from_edges(n, &edges).unwrap();
    let eager = CandidateSet::from_graph(&g);
    let triangles: Vec<(u32, u32, u32)> = (0..eager.len())
        .flat_map(|p| {
            let (i, j) = eager.pair(p);
            eager.ks(p).iter().map(move |&k| (i, j, k)).collect::<Vec<_>>()
        })
        .collect();
    let (plus, minus): (Vec<_>, Vec<_>) = triangles.iter().partition(|t| t.0 % 2 == 0);
    let signed = CandidateSet::signed(n, &plus, &minus);
    let plans = vec![
        ("dense", SchedulePlan::DenseCube),
        ("eager", SchedulePlan::CandidatePairs(Arc::new(eager))),
        ("streamed", SchedulePlan::CsrStream(Arc::new(CsrGraph::from_graph(&g)))),
        ("signed", SchedulePlan::CandidatePairs(Arc::new(signed))),
    ];
    (g.to_bit_matrix(), plans)
}

#[test]
fn the_offline_ledger_is_invariant_and_measured_over_memory_and_tcp_on_every_plan() {
    // Every plan kind, in process and over both links, across threads
    // and batches: one share pair (the dealer's), one offline ledger —
    // the closed form over the plan's pairs and triples — and on the
    // links count_two_party's own check that the offline payload they
    // carried is that ledger less the base-OT setup.
    let (m, plans) = plans(27, 5);
    for (name, plan) in plans {
        let at = |what: &str| format!("{name}: {what}");
        let ot = |threads, batch| CountJob { plan: plan.clone(), ..job(0xB0, threads, batch, OfflineMode::OtExtension) };
        let dealer = count_local(&m, &CountJob { offline: OfflineMode::TrustedDealer, ..ot(1, 0) });
        let sched = CountScheduler::with_plan(m.n(), 1, 0, plan.clone());
        assert!(sched.total_triples() > 0, "{}", at("a plan with triples"));
        for (threads, batch) in [(1usize, 0usize), (2, 7), (3, 1)] {
            let local = count_local(&m, &ot(threads, batch));
            assert_eq!((local.share1, local.share2), (dealer.share1, dealer.share2), "{}", at("shares"));
            assert_eq!(local.net.offline, expected_offline(&sched), "{}", at("ledger"));
            let (mem1, mem2) = memory_pair();
            let (tcp1, tcp2, _) = TcpTransport::loopback_pair(&TcpConfig::default()).expect("loopback pair");
            let over_memory = count_two_party(&m, &ot(threads, batch), &Arc::new(mem1), &Arc::new(mem2));
            let over_tcp = count_two_party(&m, &ot(threads, batch), &Arc::new(tcp1), &Arc::new(tcp2));
            for res in [over_memory, over_tcp] {
                assert_eq!((res.share1, res.share2), (local.share1, local.share2), "{}", at("wire shares"));
                assert_eq!(res.net, local.net, "{}", at("wire ledger"));
            }
        }
    }
}

/// An in-memory link end that records the largest offline frame it
/// sends, the largest correction frame (step 2) and how many offline
/// frames it sends.
struct Recording {
    inner: InMemoryTransport,
    offline_frames: AtomicUsize,
    largest: AtomicUsize,
    largest_correction: AtomicUsize,
}

impl Transport for Recording {
    fn send(&self, frame: &Frame) -> Result<(), RecvError> {
        if frame.msg_type == OfflineMsg::MSG_TYPE {
            self.offline_frames.fetch_add(1, Ordering::Relaxed);
            self.largest.fetch_max(frame.payload.len(), Ordering::Relaxed);
            if frame.step == 2 {
                self.largest_correction.fetch_max(frame.payload.len(), Ordering::Relaxed);
            }
        }
        self.inner.send(frame)
    }

    fn recv(&self, msg_type: u8, tag: u32, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        self.inner.recv(msg_type, tag, timeout)
    }

    fn stats(&self) -> WireStats {
        self.inner.stats()
    }

    fn close(&self) {
        self.inner.close()
    }
}

#[test]
fn a_wide_plan_splits_its_key_columns_into_flights_under_the_frame_cap() {
    // 1 100 disjoint triangles: a sparse plan of 3 300 pairs — four
    // key flights — and 1 100 triples, one full correction flight and
    // a short one.
    let edges: Vec<(usize, usize)> =
        (0..1100).flat_map(|t| [(3 * t, 3 * t + 1), (3 * t + 1, 3 * t + 2), (3 * t, 3 * t + 2)]).collect();
    let g = Graph::from_edges(3300, &edges).unwrap();
    let plan = SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_graph(&g)));
    let wide = CountJob { plan, ..job(9, 2, 0, OfflineMode::OtExtension) };
    let m = g.to_bit_matrix();
    let [end1, end2] = {
        let (a, b) = memory_pair();
        [a, b].map(|inner| {
            let [offline_frames, largest, largest_correction] = [0; 3].map(AtomicUsize::new);
            Arc::new(Recording { inner, offline_frames, largest, largest_correction })
        })
    };
    let res = count_two_party(&m, &wide, &end1, &end2);
    assert_eq!(res.reconstruct().to_u64(), 1100);
    let (pairs, triples) = (3300usize, 1100usize);
    let key_flights = pairs.div_ceil(MAX_FLIGHT_PAIRS);
    assert_eq!(key_flights, 4, "the key columns overflow one flight");
    assert_eq!(triples.div_ceil(MAX_FLIGHT_TRIPLES), 2, "the corrections overflow one flight");
    assert_eq!(end2.offline_frames.load(Ordering::Relaxed), key_flights, "S₂ sends the key flights");
    assert_eq!(
        end1.offline_frames.load(Ordering::Relaxed),
        triples.div_ceil(MAX_FLIGHT_TRIPLES) + key_flights,
        "S₁ sends the correction flights and a tail flight per key flight"
    );
    let largest = end1.largest.load(Ordering::Relaxed).max(end2.largest.load(Ordering::Relaxed));
    assert_eq!(largest, 8 * 128 * 2 * MAX_FLIGHT_PAIRS, "a full key flight is the largest frame");
    assert!(largest <= MAX_FRAME_PAYLOAD_BYTES);
    let correction = end1.largest_correction.load(Ordering::Relaxed);
    assert_eq!(correction, 6 * MAX_FLIGHT_TRIPLES * CORRECTION_BYTES, "a full correction flight, 260 B an element");
    assert!(correction <= MAX_FRAME_PAYLOAD_BYTES, "a correction flight fits a frame");
    let dealer = count_local(&m, &CountJob { offline: OfflineMode::TrustedDealer, ..wide.clone() });
    assert_eq!((res.share1, res.share2), (dealer.share1, dealer.share2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn ot_and_dealer_modes_open_identically(
        m in arb_bit_matrix(16),
        seed: u64,
        batch in 1usize..10,
    ) {
        let dealer = count_local(&m, &job(seed, 1, batch, OfflineMode::TrustedDealer));
        let ot = count_local(&m, &job(seed, 1, batch, OfflineMode::OtExtension));
        // Identical share pairs, and the per-triple reference opens the
        // same count.
        prop_assert_eq!((ot.share1, ot.share2), (dealer.share1, dealer.share2));
        prop_assert_eq!(ot.reconstruct(), secure_count_reference(&m, seed).reconstruct());
        prop_assert_eq!(ot.triples, dealer.triples);
        // Identical ONLINE ledgers; the offline ledger follows the
        // pinned closed form — independent of the online batch size.
        prop_assert_eq!(ot.net.online(), dealer.net.online());
        prop_assert!(dealer.net.offline.is_empty());
        prop_assert_eq!(ot.net.offline, expected_offline(&CountScheduler::new(m.n(), 1, batch)));
    }

    #[test]
    fn ot_runtime_and_kernel_agree_on_random_graphs(
        m in arb_bit_matrix(12),
        seed: u64,
    ) {
        let fast = count_local(&m, &job(seed, 1, 4, OfflineMode::OtExtension));
        let (end1, end2) = memory_pair();
        let rt = count_two_party(
            &m, &job(seed, 2, 4, OfflineMode::OtExtension), &Arc::new(end1), &Arc::new(end2));
        prop_assert_eq!(rt.share1, fast.share1);
        prop_assert_eq!(rt.share2, fast.share2);
        // Full NetStats equality, offline ledger included.
        prop_assert_eq!(rt.net, fast.net);
    }
}
