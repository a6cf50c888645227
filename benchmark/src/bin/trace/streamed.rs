//! `stream-1m` traced: the loader, the planner and the streamed Count,
//! each timed from outside.

use crate::probes;
use crate::span::{Span, Tracer};
use crate::Layers;
use cargo_benchmark::inputs::Inputs;
use cargo_benchmark::procfs::Counters;
use cargo_benchmark::report::Outcome;
use cargo_benchmark::runner::fastest;
use cargo_benchmark::sut::{self, LoadedCsr};
use cargo_core::{secure_triangle_count_streamed, SchedulePlan, DEFAULT_TILE_THRESHOLD};
use cargo_graph::CsrGraph;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Traces the streamed Count: `pairs` untraced/traced release pairs on
/// one loaded graph, then the planner and CSR-build probes.
pub fn trace(
    seed: u64,
    inputs: &Inputs,
    pairs: usize,
    origin: Instant,
    layers: &mut Layers,
    outcome: &mut Outcome,
    log: &mut Vec<Span>,
) -> Result<(), String> {
    let mut main = Tracer::new(origin, "main");
    let loaded = main.span("graph.io.load", |_| LoadedCsr::read(&inputs.graph))?;
    let csr = Arc::clone(loaded.csr());
    layers.set("graph.io.load_s", main.seconds("graph.io.load")[0]);
    layers.set("graph.io.edges", csr.edge_count() as f64);
    let triangles = csr.count_triangles();

    let (mut untraced, mut traced, mut counters) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let u = sut::run_streamed(&loaded, seed);
        main.set_release(pair as u32 + 1);
        let before = Counters::now()?;
        let t = main.span("core.count.streamed", |_| {
            secure_triangle_count_streamed(&csr, seed, 1, 0, DEFAULT_TILE_THRESHOLD)
        });
        counters.push(Counters::now()?.since(&before));
        let mut problems = Vec::new();
        let opened = t.reconstruct().0;
        if opened != triangles || opened as f64 != u.opened.0 {
            problems.push(format!(
                "release {}: traced Count opened {opened}, untraced {}, plaintext {triangles}",
                pair + 1,
                u.opened.0
            ));
        }
        if (t.net.wire_bytes, t.net.rounds, t.triples)
            != (u.cost.wire_bytes, u.cost.rounds, u.cost.triples)
        {
            problems.push(format!(
                "release {}: traced and untraced ledgers differ",
                pair + 1
            ));
        }
        outcome.op(problems);
        untraced.push(u.seconds);
        traced.push(t);
    }
    main.set_release(0);
    // As in the gate, the fastest release speaks for the run.
    let traced_s = main.seconds("core.count.streamed");
    let best = (0..traced_s.len())
        .min_by(|&a, &b| traced_s[a].total_cmp(&traced_s[b]))
        .expect("at least one pair");
    layers.set("core.count.streamed_s", traced_s[best]);
    layers.set_overhead(&traced_s, &untraced);
    layers.set("proc.cpu_user_s", counters[best].cpu_user_s);
    layers.set("proc.cpu_sys_s", counters[best].cpu_sys_s);
    layers.set("proc.ctx_switches", counters[best].ctx_switches as f64);
    layers.set("proc.minor_faults", counters[best].minor_faults as f64);
    outcome.fact("traced_release_s", traced_s[best]);
    outcome.fact("untraced_release_s", fastest(&untraced));
    outcome.fact("triples_per_release", traced[0].triples);
    outcome.fact("online_rounds", traced[0].net.rounds);

    // What the Count spends learning *which* triples to evaluate.
    let plan = probes::plan(csr.n(), SchedulePlan::CsrStream(Arc::clone(&csr)));
    layers.set("core.count_sched.plan_s", plan.plan_s);
    layers.set("core.count_sched.chunks", plan.chunks as f64);
    layers.set("core.count_sched.candidates", plan.candidates as f64);

    // CSR construction alone, from this graph's edge pairs (the loader
    // builds its CSR while parsing, so the two cannot be split there).
    let edges: Vec<(u32, u32)> = (0..csr.n())
        .flat_map(|u| {
            let csr = &csr;
            csr.neighbors(u)
                .iter()
                .filter(move |&&v| v as usize > u)
                .map(move |&v| (u as u32, v))
        })
        .collect();
    let built = main.span("graph.csr.build", |_| CsrGraph::from_pairs(csr.n(), &edges));
    black_box(built);
    layers.set("graph.csr.build_s", main.seconds("graph.csr.build")[0]);

    layers.set(
        "mpc.dealer.expand_ns_per_group",
        probes::dealer_expand_ns_per_group(seed),
    );
    layers.set(
        "mpc.triple_mul.kernel_ns_per_triple",
        probes::kernel_ns_per_triple(seed),
    );

    log.extend(main.spans().iter().cloned());
    Ok(())
}
