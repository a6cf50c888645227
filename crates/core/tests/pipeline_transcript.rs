//! Pins Algorithm 1's one-shot pipeline end to end: every value the
//! three entry points report — `CargoSystem::run` (edge DP),
//! `run_node_dp` (node DP) and both reports of `run_party_local` — over
//! the golden fixtures and one larger Barabási–Albert graph, folded into
//! two digests and compared with constants.
//!
//! The equivalence suites prove the entry points agree with each other;
//! these pins also fix *what* they agree on. The **transcript** digest
//! folds every reported word: the noisy release and the noisy max degree
//! bit for bit, the projection's effect, the count shares, the whole
//! ledger (online and offline), the users' uploads, the ε ledger's labels
//! and values. A refactor of the pipeline must keep every folded word.
//! The **invariant** digest folds only what no change to the Count's
//! masking may move: the releases, the projection, the triples
//! evaluated, the uploads, the offline ledger and the ε ledger — not the
//! shares, the online bytes or the online rounds. Timings are left out
//! of both.

use cargo_core::node_dp::run_node_dp;
use cargo_core::{
    run_party_local, CargoConfig, CargoOutput, CargoSystem, OfflineMode, PartyReport,
    ScheduleKind,
};
use cargo_graph::generators::barabasi_albert;
use cargo_graph::Graph;
use cargo_mpc::{NetStats, OfflineLedger};
use cargo_testutil::golden_fixtures;
use std::sync::OnceLock;

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

    fn offline(&mut self, offline: &OfflineLedger) {
        let OfflineLedger { base_ots, extended_ots, bytes, rounds } = *offline;
        for w in [base_ots, extended_ots, bytes, rounds] {
            self.word(w);
        }
    }

    /// The words of `out` that do not depend on how the Count masks its
    /// inputs.
    fn output_invariants(&mut self, out: &CargoOutput) {
        self.word(out.noisy_count.to_bits());
        self.word(out.true_count);
        self.word(out.projected_count);
        self.word(out.d_max_noisy.to_bits());
        self.word(out.truncated_users as u64);
        self.offline(&out.net.offline);
        self.word(out.upload_elements);
        self.word(out.ledger.len() as u64);
        for (label, eps) in &out.ledger {
            self.text(label);
            self.word(eps.to_bits());
        }
    }

    /// The words of `r` that do not depend on how the Count masks its
    /// inputs.
    fn report_invariants(&mut self, r: &PartyReport) {
        self.word(r.role as u64);
        self.word(r.noisy_count.to_bits());
        self.word(r.d_max_noisy.to_bits());
        self.word(r.truncated_users as u64);
        self.word(r.projected_count);
        self.offline(&r.net.offline);
        self.word(r.triples);
        // Two zero words where the deleted triple pool's fill and drain
        // counters were folded (0 on every run pinned here), so the
        // pinned digests still hold.
        self.word(0);
        self.word(0);
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
        // The pool counters' zero words, as in `report_invariants`.
        self.word(0);
        self.word(0);
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
    ]
}

/// Folds every run over every input, in a fixed order, into the
/// transcript digest and the invariant digest. The runs are made once
/// for both tests.
fn pipeline_digests() -> (u64, u64) {
    static DIGESTS: OnceLock<(u64, u64)> = OnceLock::new();
    *DIGESTS.get_or_init(|| {
        let (mut all, mut invariant) = (Fold::default(), Fold::default());
        for (name, graph) in inputs() {
            all.text(&name);
            invariant.text(&name);
            let base = CargoConfig::new(2.0).with_seed(0xCA60 ^ graph.n() as u64).with_threads(2);
            let mut outputs = Vec::new();
            for (label, cfg) in edge_configs(base, graph.n()) {
                outputs.push((label, CargoSystem::new(cfg).run(&graph)));
            }
            for projection in [true, false] {
                let label = if projection { "node-dp" } else { "node-dp-no-projection" };
                outputs.push((label, run_node_dp(&CargoConfig { projection, ..base }, &graph)));
            }
            for (label, out) in &outputs {
                all.text(label);
                all.output(out);
                invariant.text(label);
                invariant.output_invariants(out);
            }
            all.text("party-local");
            invariant.text("party-local");
            let (r1, r2) = run_party_local(&graph, &base).expect("both parties follow one job");
            for r in [&r1, &r2] {
                all.report(r);
                invariant.report_invariants(r);
            }
        }
        (all.0, invariant.0)
    })
}

#[test]
fn the_one_shot_pipeline_transcript_is_pinned() {
    // Re-captured when dealer words became per pair and per Count: the
    // dealer runs' shares moved, and nothing the invariants fold did.
    // Re-captured again when OT mode made the dealer's words: the OT
    // runs' shares became the dealer's and their offline ledger moved.
    // Re-captured when the Gilboa corrections were packed to their live
    // width (0xC8EE_C811_33AE_B520 before): only the offline bytes
    // moved — with that word left out the fold is 0xAD5C_53F2_751C_EF05
    // on both sides of the change.
    // Re-captured when the one-shot pipeline lost its in-process TCP
    // fork (0x49F7_107D_CDE8_2611 before): the fold lost the "tcp" run,
    // and the parent folds this value with that run left out.
    let digest = pipeline_digests().0;
    assert_eq!(digest, 0x6E5E_0817_B2A4_D57A, "transcript digest {digest:#018x}");
}

#[test]
fn the_one_shot_pipeline_invariants_are_pinned() {
    // Captured before the Count's masks were keyed by pair: a change to
    // the masking moves shares, online bytes and online rounds only.
    // Re-captured when the OT offline phase moved from one MG per triple
    // to one vector-OLE key per pair: the offline ledger it folds moved
    // (0x1B2C_C4CF_04EC_0D0C before); with the offline words left out the
    // fold is 0xCEAE_B7DA_E3C4_AF19 on both sides of that change.
    // Re-captured when the Gilboa corrections were packed to their live
    // width (0xA6A2_C6BD_A831_8906 before): with the offline bytes left
    // out the fold is 0x711A_39A9_5977_58F0 on both sides of the change.
    // Re-captured when the in-process TCP fork went (0x89A6_1D05_7B0A_E60F
    // before): as for the transcript, the parent folds this value with
    // the "tcp" run left out.
    let digest = pipeline_digests().1;
    assert_eq!(digest, 0x9F57_23FF_4013_FEB8, "invariant digest {digest:#018x}");
}
