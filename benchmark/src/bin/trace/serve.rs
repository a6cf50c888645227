//! `serve-tcp` traced: the epoch loop of `party --mode serve`, written
//! out with a span around each step, over a [`TracedTransport`].
//!
//! The untraced half runs the gate's own `ServePair` over the same
//! prefix of the same delta script; the two must publish bit-identical
//! epochs.

use crate::probes;
use crate::span::{Span, Tracer};
use crate::traced::{LinkTrace, TracedTransport};
use crate::Layers;
use cargo_benchmark::inputs::Inputs;
use cargo_benchmark::procfs::Counters;
use cargo_benchmark::report::Outcome;
use cargo_benchmark::runner::serve_release_seconds;
use cargo_benchmark::stats::{median, percentile};
use cargo_benchmark::sut::{self, DeltaScript, LoadedGraph, ServePair};
use cargo_core::{
    aggregate_noise_shares, state_digest, CargoConfig, DeltaPlan, EdgeDelta, EpochJournal,
    EpochOutcome, EpochRecord, PartySession,
};
use cargo_dp::{FixedPointCodec, ReleaseSchedule};
use cargo_graph::Graph;
use cargo_mpc::{ServerId, TcpTransport, Transport, WireStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

type Link = Arc<TracedTransport<TcpTransport>>;

/// What a party had seen and spent when its baseline Count finished —
/// subtracted from the end-of-run totals to get the epochs' share.
struct AtBaseline {
    link: LinkTrace,
    stats: WireStats,
    counters: Counters,
}

/// One party of the traced serve run: baseline, then one epoch per
/// batch — `step`, state digest, journal append — as the `party`
/// binary's serve loop does them.
fn traced_party(
    base: &Graph,
    cfg: &CargoConfig,
    role: ServerId,
    link: Link,
    journal_path: &Path,
    batches: &[Vec<EdgeDelta>],
    t: &mut Tracer,
) -> Result<(Vec<EpochOutcome>, AtBaseline), String> {
    let view = Arc::clone(&link);
    let mut session = t
        .span("core.session.baseline", |_| {
            PartySession::new(base.clone(), cfg, role, link)
        })
        .map_err(|e| e.to_string())?;
    let at_baseline = AtBaseline {
        link: view.trace(),
        stats: view.stats(),
        counters: Counters::now()?,
    };
    let _ = std::fs::remove_file(journal_path);
    let mut journal =
        EpochJournal::create(journal_path, cfg, base.n()).map_err(|e| e.to_string())?;
    let mut outcomes = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        t.set_release(i as u32 + 1);
        let out = t.span("core.session.epoch", |t| {
            let out = t
                .span("core.session.step", |_| session.step(batch))
                .map_err(|e| e.to_string())?;
            let counter = session.counter();
            let digest = t.span("core.recovery.digest", |_| {
                state_digest(counter.epochs(), counter.graph())
            });
            let record = EpochRecord {
                epoch: out.epoch,
                spent: out.spent,
                digest,
            };
            t.span("core.recovery.append", |_| journal.append(record))
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(out)
        })?;
        outcomes.push(out);
    }
    Ok((outcomes, at_baseline))
}

/// Traces the serve workload: `epochs` untraced epochs through the
/// gate's `ServePair`, the same `epochs` traced, then the probes.
#[allow(clippy::too_many_arguments)]
pub fn trace(
    seed: u64,
    inputs: &Inputs,
    epochs: usize,
    journal_dir: &Path,
    origin: Instant,
    layers: &mut Layers,
    outcome: &mut Outcome,
    log: &mut Vec<Span>,
) -> Result<(), String> {
    let mut main = Tracer::new(origin, "main");
    let loaded = main.span("graph.io.load", |_| LoadedGraph::read(&inputs.graph))?;
    layers.set("graph.io.load_s", main.seconds("graph.io.load")[0]);
    layers.set("graph.io.edges", loaded.edges() as f64);
    let script = DeltaScript::read(&inputs.deltas)?;
    let batches = &script.batches()[..epochs];
    let horizon = epochs as u64;
    let cfg = sut::serve_config(seed, horizon);

    // Untraced: the gate's path.
    let (a, b) = sut::tcp_pair()?;
    let mut pair = ServePair::start(
        &loaded,
        seed,
        horizon,
        (Arc::new(a), Arc::new(b)),
        journal_dir,
    )?;
    let untraced = pair.run(&script, epochs)?;
    drop(pair);

    // Traced: the same epochs, unrolled.
    let (a, b) = sut::tcp_pair()?;
    let (end1, end2) = (
        Arc::new(TracedTransport::new(a)),
        Arc::new(TracedTransport::new(b)),
    );
    let mut tracers = [Tracer::new(origin, "s1"), Tracer::new(origin, "s2")];
    let [t1, t2] = &mut tracers;
    let (j1, j2) = (
        journal_dir.join("traced-s1.journal"),
        journal_dir.join("traced-s2.journal"),
    );
    let graph = loaded.graph();
    let (o1, o2) = std::thread::scope(|scope| {
        let h1 = {
            let link = Arc::clone(&end1);
            scope.spawn(|| traced_party(graph, &cfg, ServerId::S1, link, &j1, batches, t1))
        };
        let h2 = {
            let link = Arc::clone(&end2);
            scope.spawn(|| traced_party(graph, &cfg, ServerId::S2, link, &j2, batches, t2))
        };
        (
            h1.join().expect("party S1 panicked"),
            h2.join().expect("party S2 panicked"),
        )
    });
    let ((o1, base), (o2, _)) = (o1?, o2?);
    let counters = Counters::now()?.since(&base.counters);

    // Every traced epoch must equal the gate's, bit for bit.
    for (i, ((a, b), want)) in o1.iter().zip(&o2).zip(&untraced.opened).enumerate() {
        let mut problems = Vec::new();
        if (a.noisy_count, b.noisy_count) != *want {
            problems.push(format!(
                "epoch {}: unrolled loop opened ({}, {}), ServePair opened {want:?}",
                i + 1,
                a.noisy_count,
                b.noisy_count
            ));
        }
        if a.net.rounds != untraced.epoch_rounds[i] || a.triples != untraced.epoch_triples[i] {
            problems.push(format!("epoch {}: unrolled and gate ledgers differ", i + 1));
        }
        outcome.op(problems);
    }

    let s1 = &tracers[0];
    let epoch_s = s1.seconds("core.session.epoch");
    // Both sides by the gate's statistic (`serve_release_seconds`):
    // the two halves run minutes apart, on whatever speed the machine
    // then has.
    let rounds: Vec<u64> = o1.iter().map(|o| o.net.rounds).collect();
    let traced_s = serve_release_seconds(&epoch_s, &rounds);
    let untraced_s = serve_release_seconds(&untraced.epoch_seconds, &untraced.epoch_rounds);
    layers.set("trace.overhead_ratio", traced_s / untraced_s);
    layers.set("trace.releases", epoch_s.len() as f64);
    layers.set(
        "core.session.epoch_p95_ms",
        percentile(&epoch_s, 0.95) * 1e3,
    );
    layers.set("core.session.epoch_max_ms", percentile(&epoch_s, 1.0) * 1e3);
    layers.set(
        "core.recovery.append_ms",
        median(&s1.seconds("core.recovery.append")) * 1e3,
    );
    layers.set(
        "core.recovery.digest_us",
        median(&s1.seconds("core.recovery.digest")) * 1e6,
    );
    let per_epoch = |xs: Vec<f64>| median(&xs);
    layers.set(
        "core.session.rounds_per_epoch_p50",
        per_epoch(o1.iter().map(|o| o.net.rounds as f64).collect()),
    );
    layers.set(
        "core.delta.triples_per_epoch",
        o1.iter().map(|o| o.triples as f64).sum::<f64>() / epochs as f64,
    );
    outcome.fact("traced_release_s", traced_s);
    outcome.fact("untraced_release_s", untraced_s);
    outcome.fact("baseline_s", s1.seconds("core.session.baseline")[0]);

    // S1's link over the epochs alone (totals minus the baseline's),
    // per epoch.
    let link = end1.trace().since(&base.link);
    let (stats, stats0) = (end1.stats(), base.stats);
    let e = epochs as f64;
    layers.set("mpc.transport.send_s", link.send_s / e);
    layers.set("mpc.transport.recv_wait_s", link.recv_wait_s / e);
    layers.set("mpc.transport.frames_sent", link.frames_sent() as f64 / e);
    layers.set(
        "mpc.transport.bytes_sent",
        (stats.bytes_sent - stats0.bytes_sent) as f64 / e,
    );
    layers.set(
        "mpc.transport.frame_bytes_p50",
        f64::from(link.frame_bytes_p50()),
    );
    layers.set(
        "mpc.transport.framing_overhead",
        (stats.total_bytes() - stats0.total_bytes()) as f64
            / (stats.online_payload_both() - stats0.online_payload_both()) as f64,
    );
    layers.set("proc.cpu_user_s", counters.cpu_user_s / e);
    layers.set("proc.cpu_sys_s", counters.cpu_sys_s / e);
    layers.set("proc.ctx_switches", counters.ctx_switches as f64 / e);
    layers.set("proc.minor_faults", counters.minor_faults as f64 / e);

    // Probes on this workload's shapes.
    let median_frame = link.frame_bytes_p50() as usize;
    let (a, b) = sut::tcp_pair()?;
    layers.set(
        "mpc.transport.rtt_us",
        probes::rtt_us(&Arc::new(a), &Arc::new(b), median_frame),
    );
    let codec = probes::codec(median_frame);
    layers.set("mpc.wire.encode_ns_per_byte", codec.encode_ns_per_byte);
    layers.set("mpc.wire.decode_ns_per_byte", codec.decode_ns_per_byte);
    layers.set("mpc.wire.encode_ns_per_frame", codec.encode_ns_per_frame);
    layers.set(
        "mpc.dealer.expand_ns_per_group",
        probes::dealer_expand_ns_per_group(seed),
    );
    layers.set(
        "mpc.triple_mul.kernel_ns_per_triple",
        probes::kernel_ns_per_triple(seed),
    );

    // Delta planning alone: the plaintext half of an epoch.
    let mut live = graph.clone();
    let mut apply_us = Vec::with_capacity(epochs);
    for batch in batches {
        let t0 = Instant::now();
        black_box(DeltaPlan::apply(&mut live, batch).map_err(|e| e.to_string())?);
        apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    layers.set("core.delta.apply_us", median(&apply_us));

    // One epoch's budget grant, noise draw and final opening.
    let mut schedule = ReleaseSchedule::fixed(cfg.epsilon, horizon);
    let t0 = Instant::now();
    for _ in 0..epochs {
        black_box(schedule.next_release().map_err(|e| e.to_string())?);
    }
    layers.set("dp.budget.grant_us", t0.elapsed().as_secs_f64() * 1e6 / e);
    let n = graph.n();
    let noise: Vec<f64> = (0..5)
        .map(|i| {
            let t0 = Instant::now();
            black_box(aggregate_noise_shares(
                n,
                n as f64,
                cfg.epsilon / e,
                FixedPointCodec::new(cfg.frac_bits),
                &mut StdRng::seed_from_u64(seed + i),
                seed,
            ));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("core.perturb.noise_s", median(&noise));
    let (a, b) = sut::tcp_pair()?;
    layers.set(
        "core.perturb.open_s",
        probes::rtt_us(&Arc::new(a), &Arc::new(b), 40) / 1e6,
    );

    log.extend(main.spans().iter().cloned());
    log.extend(tracers.iter().flat_map(|t| t.spans().iter().cloned()));
    Ok(())
}
