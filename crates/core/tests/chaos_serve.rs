//! Chaos sweep for the crash-safe serve loop: a disconnect injected
//! at **every** frame index must leave the pair in exactly one of two
//! states — a clean typed [`SessionError`] from which `resume`
//! reconstructs the reference transcript bit-for-bit, or an untouched
//! run whose transcript already equals the reference. Never a hang,
//! never a partial release, never a double-spent ε.

use cargo_core::{CargoConfig, EdgeDelta, EpochOutcome, PartySession, Session, SessionError};
use cargo_graph::{generators, Graph};
use cargo_mpc::{memory_pair, FaultPlan, FaultyTransport, ServerId, Transport};
use std::sync::Arc;
use std::time::Duration;

fn chaos_cfg() -> CargoConfig {
    CargoConfig::new(2.0).with_seed(7).with_horizon(4)
}

fn chaos_script() -> Vec<Vec<EdgeDelta>> {
    vec![
        vec![EdgeDelta::Add(0, 1), EdgeDelta::Add(1, 2), EdgeDelta::Add(0, 2)],
        vec![EdgeDelta::Remove(0, 1), EdgeDelta::Add(2, 3)],
        vec![EdgeDelta::Add(0, 3)],
    ]
}

/// Steps every batch of `script` against the wire, collecting the
/// committed outcomes and the first error (if the link dies).
fn run_party_over<T: Transport + 'static>(
    g: &Graph,
    cfg: &CargoConfig,
    role: ServerId,
    link: Arc<T>,
    script: &[Vec<EdgeDelta>],
) -> (Vec<EpochOutcome>, Option<SessionError>) {
    let mut s = match PartySession::new(g.clone(), cfg, role, link) {
        Ok(s) => s,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut outs = Vec::new();
    for batch in script {
        match s.step(batch) {
            Ok(out) => outs.push(out),
            Err(e) => return (outs, Some(e)),
        }
    }
    (outs, None)
}

/// The full recovery path a crashed party runs: local replay of its
/// `committed` prefix, the resume handshake (catching up any epochs
/// the peer committed past it), then the rest of the script. Returns
/// the complete transcript from epoch 1.
fn resume_party_over<T: Transport + 'static>(
    g: &Graph,
    cfg: &CargoConfig,
    role: ServerId,
    link: Arc<T>,
    committed: usize,
    script: &[Vec<EdgeDelta>],
) -> Vec<EpochOutcome> {
    let mut replayed = Session::new(g.clone(), cfg);
    let mut outs = Vec::new();
    for batch in &script[..committed] {
        outs.push(replayed.step(batch).expect("local replay cannot fail"));
    }
    let pending = &script[committed..];
    let (mut s, catchup) =
        PartySession::resume(replayed, role, link, pending).expect("resume handshake");
    let caught_up = catchup.len();
    outs.extend(catchup);
    for batch in &pending[caught_up..] {
        outs.push(s.step(batch).expect("post-resume epoch"));
    }
    outs
}

/// Runs `trial` under a wall-clock watchdog: a hung trial fails the
/// test instead of wedging the suite.
fn with_watchdog(label: String, trial: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        trial();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            handle.join().expect("chaos trial panicked")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos trial hung past the watchdog: {label}")
        }
    }
}

/// One disconnect trial at frame index `f`: crash, assert the
/// trichotomy, then resume both parties and assert the combined
/// transcript equals the reference exactly.
fn disconnect_trial(f: u64, g: &Graph, cfg: &CargoConfig, reference: &[EpochOutcome]) {
    let script = chaos_script();
    let (e1, e2) = memory_pair();
    let faulty = Arc::new(FaultyTransport::new(e2, &FaultPlan::disconnect_at(f)));
    let e1 = Arc::new(e1);

    let ((outs1, err1), (outs2, err2)) = std::thread::scope(|scope| {
        let h2 = {
            let (g, cfg, script, link) = (g.clone(), *cfg, script.clone(), faulty.clone());
            scope.spawn(move || run_party_over(&g, &cfg, ServerId::S2, link, &script))
        };
        let r1 = run_party_over(g, cfg, ServerId::S1, e1.clone(), &script);
        (r1, h2.join().unwrap())
    });

    // Committed prefixes are bit-identical to the reference — a crash
    // never publishes a partial or divergent release.
    assert_eq!(outs1.as_slice(), &reference[..outs1.len()], "frame {f}: S1 prefix");
    assert_eq!(outs2.as_slice(), &reference[..outs2.len()], "frame {f}: S2 prefix");
    assert!(
        (outs1.len() as i64 - outs2.len() as i64).abs() <= 1,
        "frame {f}: committed frontiers may differ by at most the in-flight epoch"
    );
    for (who, err) in [("S1", &err1), ("S2", &err2)] {
        if let Some(e) = err {
            assert!(
                matches!(e, SessionError::Peer(_)),
                "frame {f}: {who} died untyped: {e}"
            );
        }
    }
    if err1.is_none() && err2.is_none() {
        // The plan never fired (index past the run) — nothing to resume.
        assert_eq!(outs1.len(), reference.len(), "frame {f}: clean run is complete");
        assert_eq!(outs2.len(), reference.len(), "frame {f}: clean run is complete");
        return;
    }

    // Recovery: both parties replay their committed prefix locally and
    // meet again over a fresh link. The behind party catches up inside
    // the handshake; the combined transcripts equal the reference.
    let (r1, r2) = memory_pair();
    let (r1, r2) = (Arc::new(r1), Arc::new(r2));
    let (full1, full2) = std::thread::scope(|scope| {
        let h2 = {
            let (g, cfg, script, n) = (g.clone(), *cfg, script.clone(), outs2.len());
            scope.spawn(move || resume_party_over(&g, &cfg, ServerId::S2, r2, n, &script))
        };
        let f1 = resume_party_over(g, cfg, ServerId::S1, r1, outs1.len(), &script);
        (f1, h2.join().unwrap())
    });
    assert_eq!(full1.as_slice(), reference, "frame {f}: S1 resumed transcript");
    assert_eq!(full2.as_slice(), reference, "frame {f}: S2 resumed transcript");
    // ε accounting survived the crash: the resumed run's cumulative
    // spend (carried in each outcome) equals the uninterrupted run's,
    // so the in-flight epoch's grant was never spent twice.
    let spent = reference.last().expect("non-empty reference").spent;
    assert_eq!(full1.last().unwrap().spent, spent, "frame {f}: S1 ε spent");
    assert_eq!(full2.last().unwrap().spent, spent, "frame {f}: S2 ε spent");
}

/// The sweep: a disconnect at every frame index the serve run ever
/// processes, each trial asserting crash-cleanliness and bit-exact
/// recovery.
#[test]
fn disconnect_sweep_recovers_or_fails_clean_at_every_frame() {
    let g = generators::erdos_renyi(14, 0.3, 7);
    let cfg = chaos_cfg();
    let script = chaos_script();

    // The uninterrupted reference, computed locally (the wire serve
    // loop is pinned bit-identical to this elsewhere).
    let mut local = Session::new(g.clone(), &cfg);
    let reference: Vec<EpochOutcome> = script
        .iter()
        .map(|b| local.step(b).expect("reference step"))
        .collect();

    // A fault-free instrumented run tells us how many frame events the
    // serve protocol processes — the sweep range.
    let (e1, e2) = memory_pair();
    let counter = Arc::new(FaultyTransport::new(e2, &FaultPlan::new(0)));
    let e1 = Arc::new(e1);
    let ((outs1, err1), (outs2, err2)) = std::thread::scope(|scope| {
        let h2 = {
            let (g, cfg, script, link) = (g.clone(), cfg, script.clone(), counter.clone());
            scope.spawn(move || run_party_over(&g, &cfg, ServerId::S2, link, &script))
        };
        let r1 = run_party_over(&g, &cfg, ServerId::S1, e1.clone(), &script);
        (r1, h2.join().unwrap())
    });
    assert!(err1.is_none() && err2.is_none(), "fault-free run must succeed");
    assert_eq!(outs1.as_slice(), reference.as_slice(), "wire == local reference");
    assert_eq!(outs2.as_slice(), reference.as_slice(), "wire == local reference");
    let total = counter.events();
    assert!(total > 0, "the serve run must move frames");

    for f in 0..total {
        let (g, cfg, reference) = (g.clone(), cfg, reference.clone());
        with_watchdog(format!("disconnect@{f}"), move || {
            disconnect_trial(f, &g, &cfg, &reference)
        });
    }
}
