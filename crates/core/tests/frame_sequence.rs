//! Pins the frames a Count and a serve run put on the wire.
//!
//! Each end of a `memory_pair` is wrapped in a recorder that logs, in
//! send order, every frame's message type, tag, step and payload
//! length; the two ends' logs fold into one digest per workload, which
//! is compared with a constant. The equivalence suites pin what a Count
//! computes and the ledger it reports; this pin fixes the frame
//! sequence itself — which frame goes when, under which tag, how long —
//! so a refactor of the Count's drivers must send exactly what they sent
//! before. The fault indices of the chaos smoke (`delay@10`,
//! `corrupt@11`) and the bench smoke's pins count these frames.

use cargo_core::{
    count_two_party, CargoConfig, CountJob, EdgeDelta, OfflineMode, PartySession, SchedulePlan,
};
use cargo_graph::generators::{barabasi_albert, erdos_renyi};
use cargo_graph::CsrGraph;
use cargo_mpc::{
    memory_pair, Frame, InMemoryTransport, RecvError, ServerId, SplitMix64, Transport, WireStats,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One end of an in-memory link that logs every frame it sends.
struct Logged {
    inner: InMemoryTransport,
    sent: Mutex<Vec<[u64; 4]>>,
}

impl Transport for Logged {
    fn send(&self, frame: &Frame) -> Result<(), RecvError> {
        self.send_owned(frame.clone())
    }

    fn send_owned(&self, frame: Frame) -> Result<(), RecvError> {
        let entry = [frame.msg_type.into(), frame.tag.into(), frame.step.into(), frame.payload.len() as u64];
        self.sent.lock().unwrap().push(entry);
        self.inner.send_owned(frame)
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

fn logged_pair() -> (Arc<Logged>, Arc<Logged>) {
    let (a, b) = memory_pair();
    let wrap = |inner| Arc::new(Logged { inner, sent: Mutex::new(Vec::new()) });
    (wrap(a), wrap(b))
}

/// SplitMix64's finaliser over a running state, word by word.
fn fold(state: u64, w: u64) -> u64 {
    let mut z = (state ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Both ends' logs, S₁'s then S₂'s, each headed by its frame count.
fn digest(ends: &[Arc<Logged>; 2]) -> u64 {
    let mut state = 0;
    for end in ends {
        let sent = end.sent.lock().unwrap();
        state = fold(state, sent.len() as u64);
        for w in sent.iter().flatten() {
            state = fold(state, *w);
        }
    }
    state
}

/// The digest of one Count of `job` over `input` on a logged pair.
fn count_digest<'a>(input: impl Into<cargo_core::CountInput<'a>>, job: &CountJob) -> u64 {
    let (end1, end2) = logged_pair();
    let res = count_two_party(input, job, &end1, &end2);
    assert!(res.triples > 0);
    digest(&[end1, end2])
}

#[test]
fn a_dense_dealer_count_sends_the_pinned_frames() {
    let m = erdos_renyi(40, 0.3, 9).to_bit_matrix();
    let job = CountJob { threads: 2, batch: 64, ..CountJob::new(4) };
    assert_eq!(count_digest(&m, &job), 0xc9dc_8633_2223_2f27);
}

#[test]
fn an_ot_count_sends_the_pinned_frames() {
    let m = erdos_renyi(24, 0.3, 5).to_bit_matrix();
    let job = CountJob { batch: 16, offline: OfflineMode::OtExtension, ..CountJob::new(8) };
    assert_eq!(count_digest(&m, &job), 0xa3f6_1cf4_ed31_3c93);
}

#[test]
fn a_sparse_stream_count_sends_the_pinned_frames() {
    let csr = Arc::new(CsrGraph::from_graph(&barabasi_albert(90, 4, 3)));
    let plan = SchedulePlan::CsrStream(Arc::clone(&csr));
    let job = CountJob { batch: 7, plan, ..CountJob::new(41) };
    assert_eq!(count_digest(&*csr, &job), 0xc028_ebe7_ea58_383d);
}

#[test]
fn three_serve_epochs_with_kept_openings_send_the_pinned_frames() {
    let base = erdos_renyi(30, 0.3, 11);
    let mut rng = SplitMix64::new(0x5E4E);
    let epochs: Vec<Vec<EdgeDelta>> = (0..3)
        .map(|_| {
            (0..10)
                .map(|_| {
                    let u = (rng.next_u64() % 30) as u32;
                    let v = (u + 1 + (rng.next_u64() % 29) as u32) % 30;
                    match rng.next_u64() & 1 {
                        0 => EdgeDelta::Add(u, v),
                        _ => EdgeDelta::Remove(u, v),
                    }
                })
                .collect()
        })
        .collect();
    let cfg = CargoConfig { batch: 3, ..CargoConfig::new(2.0).with_seed(5).with_horizon(3) };
    let (end1, end2) = logged_pair();
    std::thread::scope(|scope| {
        let s2 = scope.spawn(|| {
            let mut s2 = PartySession::new(base.clone(), &cfg, ServerId::S2, Arc::clone(&end2)).unwrap();
            epochs.iter().map(|b| s2.step(b).unwrap()).collect::<Vec<_>>()
        });
        let mut s1 = PartySession::new(base.clone(), &cfg, ServerId::S1, Arc::clone(&end1)).unwrap();
        let ours: Vec<_> = epochs.iter().map(|b| s1.step(b).unwrap()).collect();
        assert_eq!(ours, s2.join().unwrap(), "the parties' outcomes agree");
        assert!(ours.iter().any(|o| o.net.rounds > 1), "some epoch exchanges pairs");
    });
    assert_eq!(digest(&[end1, end2]), 0xad38_644e_7a33_b6dd);
}
