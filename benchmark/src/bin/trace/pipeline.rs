//! The one-shot pipeline, unrolled.
//!
//! `run_party` is rebuilt here stage by stage from the public functions
//! it calls, with a span around each stage, over a [`TracedTransport`].
//! The rebuilt pipeline must open the bit-identical noisy count and
//! report the identical ledger as the real `run_party` of the untraced
//! release it alternates with — that equality, checked on every traced
//! release, is what keeps this copy from drifting.

use crate::probes;
use crate::span::{Span, Tracer};
use crate::traced::{LinkTrace, TracedTransport};
use crate::Layers;
use cargo_benchmark::inputs::Inputs;
use cargo_benchmark::procfs::Counters;
use cargo_benchmark::report::Outcome;
use cargo_benchmark::runner::fastest;
use cargo_benchmark::sut::{self, Link, LoadedGraph, Offline, PipelineSpec, Release, Schedule};
use cargo_core::{
    aggregate_noise_shares, estimate_max_degree, party_input_shares, project_matrix,
    run_party_count_planned, CargoConfig, MaxDegreeEstimate, SchedulePlan,
};
use cargo_dp::FixedPointCodec;
use cargo_graph::{BitMatrix, CsrGraph, Graph};
use cargo_mpc::{recv_msg, send_msg, FinalOpeningMsg, NetStats, ServerId, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// `COUNT_SEED_TWEAK` of `cargo_core::protocol` (crate-private there).
const COUNT_SEED_TWEAK: u64 = 0xC0DE;
/// `NOISE_SEED_TWEAK` of `cargo_core::protocol` (crate-private there).
const NOISE_SEED_TWEAK: u64 = 0xD00F;

/// Step 1 of the pipeline (`Max` then `Project`), as `run_party` runs
/// it, with a span around each algorithm.
pub fn max_and_project(
    graph: &Graph,
    cfg: &CargoConfig,
    rng: &mut StdRng,
    t: &mut Tracer,
) -> (BitMatrix, MaxDegreeEstimate) {
    let split = cfg.epsilon_split();
    let (degrees, max_est) = t.span("core.max_degree.estimate", |_| {
        let degrees = graph.degrees();
        let max_est = estimate_max_degree(&degrees, split.epsilon1, rng);
        (degrees, max_est)
    });
    let projected = t.span("core.projection.project", |_| {
        let matrix = graph.to_bit_matrix();
        project_matrix(
            &matrix,
            &degrees,
            &max_est.noisy_degrees,
            max_est.as_parameter(),
        )
        .matrix
    });
    (projected, max_est)
}

/// The Count plan `run_party` derives for `schedule`.
fn plan_for(schedule: Schedule, projected: &BitMatrix, t: &mut Tracer) -> SchedulePlan {
    match schedule {
        Schedule::Dense => SchedulePlan::DenseCube,
        Schedule::SparseStream => SchedulePlan::CsrStream(Arc::new(
            t.span("graph.csr.build", |_| CsrGraph::from_support(projected)),
        )),
    }
}

/// What one party of a traced release produced.
pub struct PartyOut {
    /// The noisy count this party opened.
    pub noisy: f64,
    /// The full modeled ledger, `wire_bytes` measured.
    pub net: NetStats,
    /// Triples the Count evaluated.
    pub triples: u64,
    /// What the decorator had seen when the Count span closed (the
    /// final opening comes after, inside its own span).
    pub count_link: LinkTrace,
}

/// One party of the pipeline: `cargo_core::party::run_party`, stage by
/// stage.
pub fn traced_party<T: Transport>(
    graph: &Graph,
    cfg: &CargoConfig,
    schedule: Schedule,
    role: ServerId,
    link: &Arc<TracedTransport<T>>,
    t: &mut Tracer,
) -> PartyOut {
    let split = cfg.epsilon_split();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = graph.n();
    let (projected, max_est) = max_and_project(graph, cfg, &mut rng, t);
    let plan = plan_for(schedule, &projected, t);
    let count = t.span("core.count_runtime.count", |_| {
        run_party_count_planned(
            &projected,
            cfg.seed ^ COUNT_SEED_TWEAK,
            cfg.effective_threads(),
            cfg.effective_batch(),
            cfg.offline,
            role,
            link,
            cfg.pool_policy(),
            plan,
        )
    });
    let count_link = link.trace();
    let count_share = match role {
        ServerId::S1 => count.share1,
        ServerId::S2 => count.share2,
    };
    let mut net = count.net;

    let codec = FixedPointCodec::new(cfg.frac_bits);
    let (gamma1, gamma2) = t.span("core.perturb.noise", |_| {
        aggregate_noise_shares(
            n,
            max_est.as_sensitivity(),
            split.epsilon2,
            codec,
            &mut rng,
            cfg.seed ^ NOISE_SEED_TWEAK,
        )
    });
    let my_gamma = match role {
        ServerId::S1 => gamma1,
        ServerId::S2 => gamma2,
    };
    let my_final = codec.lift_integer(count_share) + my_gamma;
    let theirs: FinalOpeningMsg = t.span("core.perturb.open", |_| {
        send_msg(&**link, &FinalOpeningMsg { share: my_final })
            .expect("peer hung up before the final opening");
        recv_msg(&**link, 0, Some(link.recv_timeout())).expect("peer lost at the final opening")
    });
    net.exchange(1);
    net.wire_bytes = link.stats().online_payload_both();
    PartyOut {
        noisy: codec.decode(my_final + theirs.share),
        net,
        triples: count.triples,
        count_link,
    }
}

/// One traced release: both parties, their spans, S₁'s link view.
struct TracedRelease {
    seconds: f64,
    s1: PartyOut,
    s2: PartyOut,
    spans: [Tracer; 2],
    link: LinkTrace,
    link_bytes: u64,
    counters: Counters,
}

fn traced_release<T: Transport>(
    graph: &Graph,
    cfg: &CargoConfig,
    schedule: Schedule,
    ends: (T, T),
    origin: Instant,
    release: u32,
) -> Result<TracedRelease, String> {
    let end1 = Arc::new(TracedTransport::new(ends.0));
    let end2 = Arc::new(TracedTransport::new(ends.1));
    let mut tracers = [Tracer::new(origin, "s1"), Tracer::new(origin, "s2")];
    tracers.iter_mut().for_each(|t| t.set_release(release));
    let [t1, t2] = &mut tracers;
    let before = Counters::now()?;
    let t0 = Instant::now();
    let (s1, s2) = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| traced_party(graph, cfg, schedule, ServerId::S1, &end1, t1));
        let h2 = scope.spawn(|| traced_party(graph, cfg, schedule, ServerId::S2, &end2, t2));
        (
            h1.join().expect("party S1 panicked"),
            h2.join().expect("party S2 panicked"),
        )
    });
    let seconds = t0.elapsed().as_secs_f64();
    let counters = Counters::now()?.since(&before);
    Ok(TracedRelease {
        seconds,
        s1,
        s2,
        spans: tracers,
        link: end1.trace(),
        link_bytes: end1.stats().total_bytes(),
        counters,
    })
}

/// Checks a traced release against the untraced one it alternates
/// with: same opened count on both parties, same ledger, bit for bit.
fn check_against(label: &str, traced: &TracedRelease, untraced: &Release) -> Vec<String> {
    let mut problems = Vec::new();
    let opened = (traced.s1.noisy, traced.s2.noisy);
    if opened != untraced.opened {
        problems.push(format!(
            "{label}: unrolled pipeline opened {opened:?}, run_party opened {:?}",
            untraced.opened
        ));
    }
    let net = &traced.s1.net;
    let got = (
        net.wire_bytes,
        net.online().bytes,
        net.rounds,
        net.offline.bytes,
        traced.link_bytes,
        traced.s1.triples,
    );
    let c = &untraced.cost;
    let want = (
        c.wire_bytes,
        c.modeled_bytes,
        c.rounds,
        c.offline_bytes,
        c.link_bytes,
        c.triples,
    );
    if got != want {
        problems.push(format!(
            "{label}: unrolled (wire, modeled, rounds, offline, link, triples) = {got:?}, run_party's = {want:?}"
        ));
    }
    if traced.s1.net != traced.s2.net {
        problems.push(format!(
            "{label}: the two unrolled parties report different ledgers"
        ));
    }
    problems
}

/// Duration of S₁'s span called `name` in one release (0 when the
/// workload never enters that stage).
fn span_seconds(release: &TracedRelease, name: &str) -> f64 {
    release.spans[0]
        .seconds(name)
        .first()
        .copied()
        .unwrap_or(0.0)
}

/// Traces a one-shot pipeline workload: `pairs` untraced/traced
/// release pairs, then the probes.
pub fn trace(
    spec: &PipelineSpec,
    inputs: &Inputs,
    pairs: usize,
    origin: Instant,
    layers: &mut Layers,
    outcome: &mut Outcome,
    log: &mut Vec<Span>,
) -> Result<(), String> {
    let mut main = Tracer::new(origin, "main");
    let loaded = main.span("graph.io.load", |_| LoadedGraph::read(&inputs.graph))?;
    let graph = loaded.graph();
    layers.set("graph.io.load_s", main.seconds("graph.io.load")[0]);
    layers.set("graph.io.edges", graph.edge_count() as f64);
    let cfg = spec.config();

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        let u = sut::run_pipeline(&loaded, spec)?;
        let release = pair as u32 + 1;
        let t = match spec.link {
            Link::Memory => {
                traced_release(graph, &cfg, spec.schedule, sut::mem_pair(), origin, release)?
            }
            Link::Tcp => traced_release(
                graph,
                &cfg,
                spec.schedule,
                sut::tcp_pair()?,
                origin,
                release,
            )?,
        };
        outcome.op(check_against(&format!("release {release}"), &t, &u));
        untraced.push(u);
        traced.push(t);
    }

    // Every per-layer time below is read off ONE release, the fastest
    // traced one: the least disturbed by the rest of the machine (see
    // `runner`), and the only way count_s = send_s + recv_wait_s +
    // compute_s can hold exactly. S1's spans; the parties are symmetric.
    let best = traced
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("at least one pair");
    for (metric, span) in [
        ("core.max_degree.estimate_s", "core.max_degree.estimate"),
        ("core.projection.project_s", "core.projection.project"),
        ("graph.csr.build_s", "graph.csr.build"),
        ("core.count_runtime.count_s", "core.count_runtime.count"),
        ("core.perturb.noise_s", "core.perturb.noise"),
        ("core.perturb.open_s", "core.perturb.open"),
    ] {
        layers.set(metric, span_seconds(best, span));
    }
    let count_s = layers.get("core.count_runtime.count_s");
    let (send_s, recv_wait_s) = (best.s1.count_link.send_s, best.s1.count_link.recv_wait_s);
    layers.set("mpc.transport.send_s", send_s);
    layers.set("mpc.transport.recv_wait_s", recv_wait_s);
    layers.set(
        "core.count_runtime.compute_s",
        count_s - send_s - recv_wait_s,
    );
    layers.set("proc.cpu_user_s", best.counters.cpu_user_s);
    layers.set("proc.cpu_sys_s", best.counters.cpu_sys_s);
    layers.set("proc.ctx_switches", best.counters.ctx_switches as f64);
    layers.set("proc.minor_faults", best.counters.minor_faults as f64);

    // Link counts are identical on every release of one run.
    let payload = best.s1.net.wire_bytes
        + best
            .s1
            .net
            .offline
            .bytes
            .saturating_sub(sut::ot_setup_bytes());
    let bytes_sent: u64 = best
        .link
        .sizes
        .iter()
        .map(|(&size, &count)| u64::from(size) * count)
        .sum();
    layers.set("mpc.transport.frames_sent", best.link.frames_sent() as f64);
    layers.set("mpc.transport.bytes_sent", bytes_sent as f64);
    layers.set(
        "mpc.transport.frame_bytes_p50",
        f64::from(best.link.frame_bytes_p50()),
    );
    layers.set(
        "mpc.transport.framing_overhead",
        best.link_bytes as f64 / payload as f64,
    );
    layers.set("mpc.offline.bytes", best.s1.net.offline.bytes as f64);

    let traced_s: Vec<f64> = traced.iter().map(|r| r.seconds).collect();
    let untraced_s: Vec<f64> = untraced.iter().map(|r| r.seconds).collect();
    layers.set_overhead(&traced_s, &untraced_s);
    outcome.fact("traced_release_s", best.seconds);
    outcome.fact("untraced_release_s", fastest(&untraced_s));
    outcome.fact("triples_per_release", best.s1.triples);
    outcome.fact("online_rounds", best.s1.net.rounds);

    // Probes, on this workload's shapes.
    let median_frame = best.link.frame_bytes_p50() as usize;
    let rtt = match spec.link {
        Link::Memory => {
            let (a, b) = sut::mem_pair();
            probes::rtt_us(&Arc::new(a), &Arc::new(b), median_frame)
        }
        Link::Tcp => {
            let (a, b) = sut::tcp_pair()?;
            probes::rtt_us(&Arc::new(a), &Arc::new(b), median_frame)
        }
    };
    layers.set("mpc.transport.rtt_us", rtt);
    let codec = probes::codec(median_frame);
    layers.set("mpc.wire.encode_ns_per_byte", codec.encode_ns_per_byte);
    layers.set("mpc.wire.decode_ns_per_byte", codec.decode_ns_per_byte);
    layers.set("mpc.wire.encode_ns_per_frame", codec.encode_ns_per_frame);

    let count_seed = cfg.seed ^ COUNT_SEED_TWEAK;
    let (projected, _) =
        max_and_project(graph, &cfg, &mut StdRng::seed_from_u64(cfg.seed), &mut main);
    let t0 = Instant::now();
    std::hint::black_box(party_input_shares(&projected, count_seed, ServerId::S1));
    layers.set("core.count_runtime.shares_s", t0.elapsed().as_secs_f64());
    let plan = probes::plan(graph.n(), plan_for(spec.schedule, &projected, &mut main));
    layers.set("core.count_sched.plan_s", plan.plan_s);
    layers.set("core.count_sched.chunks", plan.chunks as f64);
    layers.set("core.count_sched.candidates", plan.candidates as f64);
    match spec.offline {
        Offline::Dealer => {
            layers.set(
                "mpc.dealer.expand_ns_per_group",
                probes::dealer_expand_ns_per_group(count_seed),
            );
            layers.set(
                "mpc.triple_mul.kernel_ns_per_triple",
                probes::kernel_ns_per_triple(count_seed),
            );
        }
        Offline::OtInline => {
            let offline = probes::offline(count_seed, &plan.first_chunk);
            layers.set(
                "mpc.offline.preprocess_us_per_mg",
                offline.preprocess_us_per_mg,
            );
            layers.set("mpc.offline.bytes_per_mg", offline.bytes_per_mg);
            let (transpose_ns, hash_ns) = probes::ot_inner_loops();
            layers.set("mpc.ot.transpose_ns_per_ot", transpose_ns);
            layers.set("mpc.ot.hash_ns_per_ot", hash_ns);
        }
    }

    log.extend(main.spans().iter().cloned());
    for release in &traced {
        log.extend(release.spans.iter().flat_map(|t| t.spans().iter().cloned()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(n: usize) -> LoadedGraph {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-graph-{n}-{}.txt", std::process::id()));
        sut::write_facebook_prefix(n, 5, &path).unwrap();
        let loaded = LoadedGraph::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        loaded
    }

    /// A traced pipeline opens the bit-identical noisy count and ledger
    /// as the untraced `run_party`: dense and sparse at n = 60, and the
    /// OT offline phase at n = 24 (2 024 groups; a debug build spends a
    /// minute on n = 60).
    #[test]
    fn traced_pipeline_is_bit_identical_to_run_party() {
        for (n, schedule, offline) in [
            (60, Schedule::Dense, Offline::Dealer),
            (60, Schedule::SparseStream, Offline::Dealer),
            (24, Schedule::Dense, Offline::OtInline),
        ] {
            let loaded = prefix(n);
            let spec = PipelineSpec {
                link: Link::Memory,
                schedule,
                offline,
                seed: 9,
            };
            let untraced = sut::run_pipeline(&loaded, &spec).unwrap();
            let traced = traced_release(
                loaded.graph(),
                &spec.config(),
                schedule,
                sut::mem_pair(),
                Instant::now(),
                1,
            )
            .unwrap();
            assert_eq!(
                check_against("r", &traced, &untraced),
                Vec::<String>::new(),
                "{schedule:?} {offline:?}"
            );
            assert_eq!(traced.s1.noisy.to_bits(), untraced.opened.0.to_bits());
            // count_s is send + recv-wait + compute by construction, so
            // the transport's share can never exceed the span.
            let count_s = traced.spans[0].seconds("core.count_runtime.count");
            assert_eq!(count_s.len(), 1);
            assert!(traced.s1.count_link.send_s + traced.s1.count_link.recv_wait_s <= count_s[0]);
        }
    }

    #[test]
    fn a_diverging_copy_is_caught() {
        let loaded = prefix(40);
        let graph = loaded.graph();
        let spec = PipelineSpec {
            link: Link::Memory,
            schedule: Schedule::Dense,
            offline: Offline::Dealer,
            seed: 9,
        };
        let traced = traced_release(
            graph,
            &spec.config(),
            Schedule::Dense,
            sut::mem_pair(),
            Instant::now(),
            1,
        )
        .unwrap();
        let net = &traced.s1.net;
        let mut honest = Release {
            seconds: 1.0,
            opened: (traced.s1.noisy, traced.s2.noisy),
            cost: sut::Cost {
                wire_bytes: net.wire_bytes,
                modeled_bytes: net.online().bytes,
                link_bytes: traced.link_bytes,
                rounds: net.rounds,
                offline_bytes: 0,
                offline_wire_bytes: 0,
                triples: traced.s1.triples,
            },
        };
        assert!(check_against("r", &traced, &honest).is_empty());
        honest.opened.0 += 1.0;
        honest.cost.rounds += 1;
        assert_eq!(check_against("r", &traced, &honest).len(), 2);
    }
}
