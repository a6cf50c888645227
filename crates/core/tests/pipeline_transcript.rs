//! Pins Algorithm 1's one-shot pipeline end to end: every value the
//! three entry points report — `CargoSystem::run` (edge DP),
//! `run_node_dp` (node DP) and both reports of `run_party_local` — over
//! the golden fixtures and one larger Barabási–Albert graph, folded into
//! one digest and compared with a constant.
//!
//! The equivalence suites prove the entry points agree with each other;
//! this pin also fixes *what* they agree on: the noisy release and the
//! noisy max degree bit for bit, the projection's effect, the whole
//! ledger (offline included), the users' uploads, the ε ledger's labels
//! and values. A refactor of the pipeline must keep every folded word.
//! Timings are left out.

use cargo_core::node_dp::run_node_dp;
use cargo_core::{
    run_party_local, CargoConfig, CargoOutput, CargoSystem, OfflineMode, PartyReport,
    ScheduleKind, TransportKind,
};
use cargo_graph::generators::barabasi_albert;
use cargo_graph::Graph;
use cargo_mpc::{NetStats, OfflineLedger};
use cargo_testutil::golden_fixtures;

/// A word-by-word fold (SplitMix64's finaliser over a running state):
/// independent of the library's own hashes, so the pin cannot move with
/// them.
#[derive(Default)]
struct Fold(u64);

impl Fold {
    fn word(&mut self, w: u64) {
        let mut z = (self.0 ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn net(&mut self, net: &NetStats) {
        // Destructured so a new ledger field fails to compile here
        // instead of slipping past the pin.
        let NetStats { elements, bytes, rounds, peak_batch, wire_bytes, offline } = *net;
        let OfflineLedger { base_ots, extended_ots, bytes: off_bytes, rounds: off_rounds } =
            offline;
        for w in [
            elements,
            bytes,
            rounds,
            peak_batch,
            wire_bytes,
            base_ots,
            extended_ots,
            off_bytes,
            off_rounds,
        ] {
            self.word(w);
        }
    }

    fn output(&mut self, out: &CargoOutput) {
        self.word(out.noisy_count.to_bits());
        self.word(out.true_count);
        self.word(out.projected_count);
        self.word(out.d_max_noisy.to_bits());
        self.word(out.truncated_users as u64);
        self.net(&out.net);
        self.word(out.upload_elements);
        self.word(out.ledger.len() as u64);
        for (label, eps) in &out.ledger {
            self.text(label);
            self.word(eps.to_bits());
        }
    }

    fn report(&mut self, r: &PartyReport) {
        self.word(r.role as u64);
        self.word(r.noisy_count.to_bits());
        self.word(r.count_share.0);
        self.word(r.d_max_noisy.to_bits());
        self.word(r.truncated_users as u64);
        self.word(r.projected_count);
        self.net(&r.net);
        self.word(r.triples);
        self.word(r.pool.fills);
        self.word(r.pool.drains);
    }
}

/// The graphs every run covers: the golden fixtures plus one larger
/// power-law graph.
fn inputs() -> Vec<(String, Graph)> {
    let mut graphs: Vec<(String, Graph)> = golden_fixtures()
        .into_iter()
        .map(|f| (f.name.to_string(), f.graph))
        .collect();
    graphs.push(("ba_120".into(), barabasi_albert(120, 4, 0x5EED)));
    graphs
}

/// The edge-DP shapes `CargoSystem::run` is folded under. OT over the
/// dense cube is folded only up to 64 users (the cube's preprocessing
/// dominates the suite beyond that); the larger graph runs it sparse.
fn edge_configs(base: CargoConfig, n: usize) -> Vec<(&'static str, CargoConfig)> {
    let ot = if n <= 64 {
        base.with_offline(OfflineMode::OtExtension)
    } else {
        base.with_offline(OfflineMode::OtExtension).with_schedule(ScheduleKind::SparseStream)
    };
    vec![
        ("dealer-dense", base),
        ("ot", ot),
        ("sparse-stream", base.with_schedule(ScheduleKind::SparseStream)),
        ("no-projection", CargoConfig { projection: false, ..base }),
        ("tcp", CargoConfig { transport: TransportKind::Tcp, ..base }),
    ]
}

/// Folds every run over every input, in a fixed order.
fn pipeline_digest() -> u64 {
    let mut fold = Fold::default();
    for (name, graph) in inputs() {
        fold.text(&name);
        let base = CargoConfig::new(2.0).with_seed(0xCA60 ^ graph.n() as u64).with_threads(2);
        for (label, cfg) in edge_configs(base, graph.n()) {
            fold.text(label);
            fold.output(&CargoSystem::new(cfg).run(&graph));
        }
        for projection in [true, false] {
            fold.text(if projection { "node-dp" } else { "node-dp-no-projection" });
            fold.output(&run_node_dp(&CargoConfig { projection, ..base }, &graph));
        }
        fold.text("party-local");
        let (r1, r2) = run_party_local(&graph, &base);
        fold.report(&r1);
        fold.report(&r2);
    }
    fold.0
}

#[test]
fn the_one_shot_pipeline_transcript_is_pinned() {
    assert_eq!(pipeline_digest(), 0xB2E6_4ECD_9BC5_217F);
}
