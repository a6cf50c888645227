//! The metric tables: the single definition `BENCHMARK.json`, the
//! `aa` self-check and the README are all held to.

use crate::report::json_string;
use crate::workload::Workload;

/// An end-to-end metric: something a user of the system sees. All are
/// lower-is-better.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// An absolute difference below which two medians agree whatever
    /// the share (only `setup_s`, whose cheapest set-ups are a few
    /// milliseconds; used by `bench aa`, not by the driver).
    pub floor: f64,
    /// Whether the value is a count the system computes (identical in
    /// every run at one seed) rather than a measurement.
    pub exact: bool,
}

/// The end-to-end metrics, in reporting order.
///
/// The bounds are what this box can defend, not what one would wish:
/// * times: the fastest-sample statistic repeats within 2–7 % on the
///   shared 2-vCPU reference box (medians: 14–31 %) and within 17 % in
///   its noisiest half hour; a bound must sit three typical spreads
///   out and above the worst;
/// * bytes and rounds are exact at a given seed (`bench aa` insists on
///   that); their bound is not ~0 only because every seed is a fresh
///   graph, whose candidate triples differ by 2–4 % from the next;
/// * peak RSS repeats within 0.1 % on `stream-1m`, which carries the
///   memory claim, but the 5–13 MB processes of the other workloads
///   move by a malloc arena (up to 15 %) from run to run.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.05,
        exact: false,
    },
    EndToEnd {
        name: "release_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
        exact: false,
    },
    EndToEnd {
        name: "wire_bytes",
        unit: "bytes",
        bound: 0.12,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "link_bytes",
        unit: "bytes",
        bound: 0.12,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "online_rounds",
        unit: "count",
        bound: 0.12,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
        floor: 0.0,
        exact: false,
    },
];

/// A per-layer metric: one layer's work, busy time, or waiting.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name: `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

/// The per-layer metrics the `trace` binary emits, outside in. A
/// metric whose layer a workload does not exercise reads 0 there. The
/// comment on each says which end-to-end metric it should move, on
/// which workload (`B@W`); README.md explains each at length.
pub const PER_LAYER: [PerLayer; 46] = [
    // Unrolled pipeline stages.
    layer("graph.io.load_s", "s"), // -> setup_s@all, mostly stream-1m
    layer("graph.io.edges", "count"), // -> setup_s@all (work done by the loader)
    layer("graph.csr.build_s", "s"), // -> setup_s@stream-1m; release_s@sparse-tcp
    layer("core.max_degree.estimate_s", "s"), // -> release_s@dense-mem (guard: expected < 2 %)
    layer("core.projection.project_s", "s"), // -> release_s@dense-mem (guard: expected < 2 %)
    layer("core.count_sched.plan_s", "s"), // -> release_s@stream-1m (most), sparse-tcp (little), none@dense-mem
    layer("core.count_sched.chunks", "count"), // -> release_s@stream-1m (work done by the planner)
    layer("core.count_sched.candidates", "count"), // -> release_s, wire_bytes@sparse-tcp, stream-1m
    layer("core.count_runtime.shares_s", "s"), // -> release_s@dense-mem, ot-mem, sparse-tcp
    layer("core.count_runtime.count_s", "s"), // -> release_s@dense-mem, ot-mem, sparse-tcp
    layer("core.count_runtime.compute_s", "s"), // -> release_s@dense-mem (count_s - send_s - recv_wait_s: self time)
    layer("core.count.streamed_s", "s"),        // -> release_s@stream-1m
    layer("core.perturb.noise_s", "s"),         // -> release_s@serve-tcp
    layer("core.perturb.open_s", "s"),          // -> release_s@serve-tcp
    // Transport decorator.
    layer("mpc.transport.frames_sent", "count"), // -> link_bytes@sparse-tcp, serve-tcp
    layer("mpc.transport.bytes_sent", "bytes"),  // -> link_bytes@all but stream-1m
    layer("mpc.transport.frame_bytes_p50", "bytes"), // -> link_bytes@sparse-tcp, serve-tcp
    layer("mpc.transport.framing_overhead", "ratio"), // -> link_bytes@sparse-tcp, serve-tcp (link / payload, exact)
    layer("mpc.transport.send_s", "s"), // -> release_s@dense-mem (busy: encode + checksum + enqueue or syscall)
    layer("mpc.transport.recv_wait_s", "s"), // -> release_s@sparse-tcp, serve-tcp (blocked on peer + link + decode)
    // Probes on workload-shaped inputs, fixed operation counts.
    layer("mpc.transport.rtt_us", "us"), // -> release_s@sparse-tcp, serve-tcp (online_rounds x rtt_us should explain it)
    layer("mpc.wire.encode_ns_per_byte", "ns"), // -> release_s@dense-mem (by bytes)
    layer("mpc.wire.decode_ns_per_byte", "ns"), // -> release_s@dense-mem (by bytes)
    layer("mpc.wire.encode_ns_per_frame", "ns"), // -> release_s@sparse-tcp (by frames)
    layer("mpc.dealer.expand_ns_per_group", "ns"), // -> release_s@dense-mem
    layer("mpc.triple_mul.kernel_ns_per_triple", "ns"), // -> release_s@dense-mem
    layer("mpc.offline.preprocess_us_per_mg", "us"), // -> release_s@ot-mem only
    layer("mpc.offline.bytes_per_mg", "bytes"), // -> link_bytes@ot-mem only
    layer("mpc.offline.bytes", "bytes"), // -> link_bytes@ot-mem only (NetStats::offline.bytes of one release)
    layer("mpc.ot.transpose_ns_per_ot", "ns"), // -> release_s@ot-mem only
    layer("mpc.ot.hash_ns_per_ot", "ns"), // -> release_s@ot-mem only
    layer("core.delta.apply_us", "us"),  // -> release_s@serve-tcp only
    layer("core.delta.triples_per_epoch", "count"), // -> release_s, wire_bytes@serve-tcp only
    layer("core.session.rounds_per_epoch_p50", "count"), // -> release_s@serve-tcp only
    layer("core.session.epoch_p95_ms", "ms"), // -> tail of release_s@serve-tcp (reported, not gated)
    layer("core.session.epoch_max_ms", "ms"), // -> tail of release_s@serve-tcp (reported, not gated)
    layer("core.recovery.append_ms", "ms"), // -> release_s@serve-tcp only (journal append + fsync; disk-dependent)
    layer("core.recovery.digest_us", "us"), // -> release_s@serve-tcp only
    layer("dp.budget.grant_us", "us"),      // -> release_s@serve-tcp only
    // Process counters over the timed region.
    layer("proc.cpu_user_s", "s"), // -> release_s@dense-mem, ot-mem, stream-1m (the kernel budget)
    layer("proc.cpu_sys_s", "s"), // -> release_s@sparse-tcp, serve-tcp (the syscall and wake-up budget)
    layer("proc.ctx_switches", "count"), // -> release_s@sparse-tcp, serve-tcp
    layer("proc.minor_faults", "count"), // -> peak_rss_mb, release_s@stream-1m
    // The trace's own cost and sample counts.
    layer("trace.overhead_ratio", "ratio"), // -> none: traced / untraced release_s (fastest of each; serve-tcp: medians), must stay <= 1.05
    layer("trace.releases", "count"), // -> none: traced releases (serve-tcp: epochs) behind the numbers above
    layer("trace.spans", "count"),    // -> none: spans written to out/trace-<workload>.jsonl
];

/// Seconds one run measures — `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`. The committed file must equal this
/// (pinned by a test), so the tables above cannot drift from it.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_manifest_limits_and_are_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].bound, widest, "setup_s has the largest bound");
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention `{name}`"
            );
        }
    }
}
