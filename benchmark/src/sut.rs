//! The system under test, behind one file.
//!
//! This is the only file of the library and the `bench` binary that
//! names an item of the `cargo_*` crates, and it names only the entry
//! points a user of the system has: `run_party`, `PartySession::{new,
//! step}`, `Session::{new, step}`, `CargoSystem::run`,
//! `EpochJournal::{create, append}`, `state_digest`,
//! `secure_triangle_count_streamed`, the edge-list reader/writer, the
//! delta-script parser, the `CargoConfig` builders, `memory_pair`,
//! `TcpTransport::loopback_pair` and the `Transport` trait — plus the
//! graph generators the input generator needs. When the Count API is
//! collapsed (ROADMAP), this file is what has to follow; the gate's
//! workloads, metrics and checks do not.
//!
//! Everything returned from here is in the benchmark's own plain
//! types, and every function plays **both** servers as two threads of
//! the calling process with one worker thread per party.

use cargo_core::{
    parse_delta_script, run_party, secure_triangle_count_streamed, state_digest, CargoConfig,
    CargoSystem, EdgeDelta, EpochJournal, EpochRecord, OfflineMode, PartySession, ScheduleKind,
    Session, DEFAULT_TILE_THRESHOLD,
};
use cargo_graph::generators::chung_lu;
use cargo_graph::generators::presets::SnapDataset;
use cargo_graph::{read_edge_list, read_edge_list_csr, write_edge_list, CsrGraph, Graph};
use cargo_mpc::{
    memory_pair, InMemoryTransport, ServerId, TcpConfig, TcpTransport, Transport, WireStats,
};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Total privacy budget of every workload (the paper's default
/// operating point; the benchmark measures cost, not utility).
const EPSILON: f64 = 2.0;

/// Which link the two parties of a pipeline talk over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// `memory_pair()`: encoded frames through an in-process queue.
    Memory,
    /// `TcpTransport::loopback_pair`: real sockets on 127.0.0.1.
    Tcp,
}

/// Which triples the Count phase schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The fully oblivious `C(n, 3)` cube.
    Dense,
    /// The lazily streamed CSR candidate plan.
    SparseStream,
}

/// How the Count phase's correlated randomness is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offline {
    /// Seeded trusted dealer: no offline traffic.
    Dealer,
    /// OT extension, inline on the query path, over the same link.
    OtInline,
}

/// The knobs of a one-shot pipeline workload.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSpec {
    /// The link the parties use.
    pub link: Link,
    /// The Count schedule.
    pub schedule: Schedule,
    /// The offline mode.
    pub offline: Offline,
    /// Root seed of every random choice of the run.
    pub seed: u64,
}

impl PipelineSpec {
    /// The system configuration of this workload (public for the trace
    /// binary, which must unroll the pipeline under the same config).
    pub fn config(&self) -> CargoConfig {
        CargoConfig::new(EPSILON)
            .with_seed(self.seed)
            .with_threads(1)
            .with_schedule(match self.schedule {
                Schedule::Dense => ScheduleKind::Dense,
                Schedule::SparseStream => ScheduleKind::SparseStream,
            })
            .with_offline(match self.offline {
                Offline::Dealer => OfflineMode::TrustedDealer,
                Offline::OtInline => OfflineMode::OtExtension,
            })
    }
}

/// What one release cost, as the system itself reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Online payload measured on S₁'s endpoint, both directions
    /// (the modeled ledger where no link exists).
    pub wire_bytes: u64,
    /// The modeled online ledger (`NetStats::bytes`).
    pub modeled_bytes: u64,
    /// Everything S₁'s endpoint moved: payload of both phases, frame
    /// headers and checksums (`WireStats::total_bytes()`); the modeled
    /// ledger where no link exists.
    pub link_bytes: u64,
    /// Online communication rounds (`NetStats::rounds`).
    pub rounds: u64,
    /// Modeled offline traffic (`NetStats::offline.bytes`).
    pub offline_bytes: u64,
    /// Offline payload measured on S₁'s endpoint, both directions.
    pub offline_wire_bytes: u64,
    /// Triples the Count evaluated.
    pub triples: u64,
}

impl Cost {
    /// Adds another release's cost (serve epochs accumulate).
    pub fn add(&mut self, other: &Cost) {
        self.wire_bytes += other.wire_bytes;
        self.modeled_bytes += other.modeled_bytes;
        self.link_bytes += other.link_bytes;
        self.rounds += other.rounds;
        self.offline_bytes += other.offline_bytes;
        self.offline_wire_bytes += other.offline_wire_bytes;
        self.triples += other.triples;
    }
}

/// One timed release of a one-shot workload.
#[derive(Debug, Clone, Copy)]
pub struct Release {
    /// Wall-clock from "inputs ready" to "both parties hold the
    /// opened count".
    pub seconds: f64,
    /// The count each party opened (S₁, S₂).
    pub opened: (f64, f64),
    /// What it cost.
    pub cost: Cost,
}

// ---------------------------------------------------------------------
// Input generation (runs in the `bench gen` child process only).
// ---------------------------------------------------------------------

/// Writes the first `n` users of the calibrated Facebook preset,
/// synthesized from `seed`, as a SNAP edge list.
pub fn write_facebook_prefix(n: usize, seed: u64, path: &Path) -> Result<(), String> {
    let graph = SnapDataset::Facebook.synthesize(seed).induced_prefix(n);
    write_edge_list(&graph, path).map_err(|e| e.to_string())
}

/// Writes a Chung–Lu power-law graph (`edges_per_user · n` edges,
/// `d_max = 2√n`, γ = 2.5 — the `party --dataset powerlaw` recipe,
/// which uses 4 edges per user) as a SNAP edge list.
pub fn write_power_law(
    n: usize,
    edges_per_user: usize,
    seed: u64,
    path: &Path,
) -> Result<(), String> {
    let d_max = (((n as f64).sqrt() * 2.0) as usize).max(8);
    let graph = chung_lu(n, edges_per_user * n, d_max, 2.5, seed);
    write_edge_list(&graph, path).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Loading (set-up of the measuring process).
// ---------------------------------------------------------------------

/// A loaded adjacency-list graph (one-shot pipelines and serve).
pub struct LoadedGraph(Graph);

impl LoadedGraph {
    /// Reads a SNAP edge list.
    pub fn read(path: &Path) -> Result<Self, String> {
        read_edge_list(path)
            .map(LoadedGraph)
            .map_err(|e| e.to_string())
    }

    /// Number of users.
    pub fn n(&self) -> usize {
        self.0.n()
    }

    /// Number of undirected edges.
    pub fn edges(&self) -> usize {
        self.0.edge_count()
    }

    /// The system's own graph type (for the trace binary).
    pub fn graph(&self) -> &Graph {
        &self.0
    }

    /// The undirected edges `(u, v)`, `u < v`, in ascending order.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        self.0.edges().map(|(u, v)| (u as u32, v as u32)).collect()
    }
}

/// A loaded CSR graph (the streamed million-node Count).
pub struct LoadedCsr(Arc<CsrGraph>);

impl LoadedCsr {
    /// Reads a SNAP edge list straight into CSR form.
    pub fn read(path: &Path) -> Result<Self, String> {
        read_edge_list_csr(path)
            .map(|(csr, _)| LoadedCsr(Arc::new(csr)))
            .map_err(|e| e.to_string())
    }

    /// Number of users.
    pub fn n(&self) -> usize {
        self.0.n()
    }

    /// Number of undirected edges.
    pub fn edges(&self) -> usize {
        self.0.edge_count()
    }

    /// The system's own CSR type (for the trace binary).
    pub fn csr(&self) -> &Arc<CsrGraph> {
        &self.0
    }

    /// Plaintext triangle count — the streamed Count's reference.
    pub fn count_triangles(&self) -> u64 {
        self.0.count_triangles()
    }
}

// ---------------------------------------------------------------------
// One-shot pipelines: run_party × 2 over a fresh link.
// ---------------------------------------------------------------------

fn cost_of(net: &cargo_mpc::NetStats, triples: u64, wire: &WireStats) -> Cost {
    Cost {
        wire_bytes: net.wire_bytes,
        modeled_bytes: net.online().bytes,
        link_bytes: wire.total_bytes(),
        rounds: net.rounds,
        offline_bytes: net.offline.bytes,
        offline_wire_bytes: wire.offline_payload_both(),
        triples,
    }
}

/// Runs both parties of the full pipeline over the two ends of a
/// link the caller made (and, in the trace binary, decorated). The
/// clock covers `run_party` on both parties and nothing else.
pub fn run_pipeline_over<T: Transport>(
    graph: &LoadedGraph,
    spec: &PipelineSpec,
    end1: &Arc<T>,
    end2: &Arc<T>,
) -> Release {
    let cfg = spec.config();
    let t0 = Instant::now();
    let (r1, r2) = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| run_party(&graph.0, &cfg, ServerId::S1, end1));
        let h2 = scope.spawn(|| run_party(&graph.0, &cfg, ServerId::S2, end2));
        (
            h1.join().expect("party S1 panicked"),
            h2.join().expect("party S2 panicked"),
        )
    });
    let seconds = t0.elapsed().as_secs_f64();
    Release {
        seconds,
        opened: (r1.noisy_count, r2.noisy_count),
        cost: cost_of(&r1.net, r1.triples, &end1.stats()),
    }
}

/// Runs one release of a one-shot pipeline workload over a fresh link
/// (made before the clock starts: a link's counters are cumulative,
/// and `run_party` reports them as the release's measured bytes).
pub fn run_pipeline(graph: &LoadedGraph, spec: &PipelineSpec) -> Result<Release, String> {
    Ok(match spec.link {
        Link::Memory => {
            let (a, b) = mem_pair();
            run_pipeline_over(graph, spec, &Arc::new(a), &Arc::new(b))
        }
        Link::Tcp => {
            let (a, b) = tcp_pair()?;
            run_pipeline_over(graph, spec, &Arc::new(a), &Arc::new(b))
        }
    })
}

/// An in-process link pair.
pub fn mem_pair() -> (InMemoryTransport, InMemoryTransport) {
    memory_pair()
}

/// A connected loopback TCP pair with the default socket settings.
pub fn tcp_pair() -> Result<(TcpTransport, TcpTransport), String> {
    TcpTransport::loopback_pair(&TcpConfig::default())
        .map(|(a, b, _)| (a, b))
        .map_err(|e| format!("loopback pair: {e}"))
}

/// Bytes of the simulated base-OT set-up: tallied once per OT-mode
/// run by the modeled offline ledger, never sent over the link.
pub fn ot_setup_bytes() -> u64 {
    cargo_mpc::ot_setup_ledger().bytes
}

/// The reference a pipeline release is checked against: the monolithic
/// in-process `CargoSystem::run` under the same seed, always with the
/// trusted dealer (shares, noise and the online ledger are identical
/// across offline modes, and the dealer run costs milliseconds where
/// an OT run would cost a whole extra release).
pub fn pipeline_reference(graph: &LoadedGraph, spec: &PipelineSpec) -> (f64, u64, u64) {
    let cfg = spec.config().with_offline(OfflineMode::TrustedDealer);
    let out = CargoSystem::new(cfg).run(&graph.0);
    (out.noisy_count, out.net.online().bytes, out.net.rounds)
}

// ---------------------------------------------------------------------
// Streamed million-node Count.
// ---------------------------------------------------------------------

/// One in-process streamed secure Count over a CSR graph; `opened` is
/// the reconstructed exact count on both sides (this entry point stops
/// before Perturb), and the cost is the modeled ledger.
pub fn run_streamed(csr: &LoadedCsr, seed: u64) -> Release {
    let t0 = Instant::now();
    let r = secure_triangle_count_streamed(&csr.0, seed, 1, 0, DEFAULT_TILE_THRESHOLD);
    let seconds = t0.elapsed().as_secs_f64();
    let opened = r.reconstruct().0 as f64;
    Release {
        seconds,
        opened: (opened, opened),
        cost: Cost {
            wire_bytes: r.net.wire_bytes,
            modeled_bytes: r.net.online().bytes,
            link_bytes: r.net.wire_bytes,
            rounds: r.net.rounds,
            offline_bytes: r.net.offline.bytes,
            offline_wire_bytes: 0,
            triples: r.triples,
        },
    }
}

// ---------------------------------------------------------------------
// Continuous release: PartySession × 2 over loopback TCP + journals.
// ---------------------------------------------------------------------

/// A parsed delta script: one batch per epoch.
pub struct DeltaScript(Vec<Vec<EdgeDelta>>);

impl DeltaScript {
    /// Parses the serve wire syntax (`+u v`, `-u v`, `commit`).
    pub fn read(path: &Path) -> Result<Self, String> {
        let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse_delta_script(BufReader::new(file))
            .map(DeltaScript)
            .map_err(|e| e.to_string())
    }

    /// Number of epochs.
    pub fn epochs(&self) -> usize {
        self.0.len()
    }

    /// The per-epoch batches (for the trace binary).
    pub fn batches(&self) -> &[Vec<EdgeDelta>] {
        &self.0
    }
}

/// The system configuration of the serve workload (public for the
/// trace binary).
pub fn serve_config(seed: u64, horizon: u64) -> CargoConfig {
    CargoConfig::new(EPSILON)
        .with_seed(seed)
        .with_threads(1)
        .with_horizon(horizon)
}

/// Two live party sessions (baseline already counted) with a journal
/// each, ready to step.
pub struct ServePair<T: Transport> {
    s1: PartySession<T>,
    s2: PartySession<T>,
    j1: EpochJournal,
    j2: EpochJournal,
    end1: Arc<T>,
}

/// What stepping a script produced.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Per-epoch latency seen by S₁: `step` + journal append.
    pub epoch_seconds: Vec<f64>,
    /// Per-epoch opened counts on (S₁, S₂).
    pub opened: Vec<(f64, f64)>,
    /// Per-epoch online rounds.
    pub epoch_rounds: Vec<u64>,
    /// Per-epoch triples evaluated.
    pub epoch_triples: Vec<u64>,
    /// Summed cost of the epochs (baseline excluded).
    pub cost: Cost,
}

impl<T: Transport> ServePair<T> {
    /// Set-up of the serve workload on a link pair the caller made:
    /// both parties count the base graph over the link (the baseline a
    /// session pays once) and create their journals in `journal_dir`.
    pub fn start(
        graph: &LoadedGraph,
        seed: u64,
        horizon: u64,
        ends: (Arc<T>, Arc<T>),
        journal_dir: &Path,
    ) -> Result<Self, String> {
        let cfg = serve_config(seed, horizon);
        let base = &graph.0;
        let (end1, end2) = ends;
        let (s1, s2) = std::thread::scope(|scope| {
            let h1 = {
                let link = Arc::clone(&end1);
                scope.spawn(|| PartySession::new(base.clone(), &cfg, ServerId::S1, link))
            };
            let h2 = scope.spawn(|| PartySession::new(base.clone(), &cfg, ServerId::S2, end2));
            (
                h1.join().expect("party S1 panicked"),
                h2.join().expect("party S2 panicked"),
            )
        });
        let s1 = s1.map_err(|e| format!("S1 baseline: {e}"))?;
        let s2 = s2.map_err(|e| format!("S2 baseline: {e}"))?;
        let journal = |name: &str| {
            let path = journal_dir.join(name);
            // A journal refuses to overwrite; a file already here is
            // this benchmark's own leftover, not a durable record.
            let _ = std::fs::remove_file(&path);
            EpochJournal::create(&path, &cfg, base.n()).map_err(|e| e.to_string())
        };
        let (j1, j2) = (journal(JOURNAL_S1)?, journal(JOURNAL_S2)?);
        Ok(ServePair {
            s1,
            s2,
            j1,
            j2,
            end1,
        })
    }

    /// Steps both parties through `epochs` batches of `script`,
    /// journalling each committed epoch before the next begins
    /// (commit-then-publish, as `party --mode serve` does).
    pub fn run(&mut self, script: &DeltaScript, epochs: usize) -> Result<ServeRun, String> {
        let batches = &script.0[..epochs];
        let before = self.end1.stats();
        let (s1, s2, j1, j2) = (&mut self.s1, &mut self.s2, &mut self.j1, &mut self.j2);
        let (r1, r2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| step_party(s1, j1, batches));
            let h2 = scope.spawn(|| step_party(s2, j2, batches));
            (
                h1.join().expect("party S1 panicked"),
                h2.join().expect("party S2 panicked"),
            )
        });
        let (r1, r2) = (r1?, r2?);
        let after = self.end1.stats();
        let mut run = ServeRun::default();
        for (a, b) in r1.iter().zip(&r2) {
            run.epoch_seconds.push(a.seconds);
            run.opened.push((a.noisy, b.noisy));
            run.epoch_rounds.push(a.cost.rounds);
            run.epoch_triples.push(a.cost.triples);
            run.cost.add(&a.cost);
        }
        run.cost.link_bytes = after.total_bytes() - before.total_bytes();
        run.cost.offline_wire_bytes = after.offline_payload_both() - before.offline_payload_both();
        Ok(run)
    }
}

/// File names of the two parties' journals inside the journal dir.
pub const JOURNAL_S1: &str = "s1.journal";
/// See [`JOURNAL_S1`].
pub const JOURNAL_S2: &str = "s2.journal";

struct Epoch {
    seconds: f64,
    noisy: f64,
    cost: Cost,
}

fn step_party<T: Transport>(
    session: &mut PartySession<T>,
    journal: &mut EpochJournal,
    batches: &[Vec<EdgeDelta>],
) -> Result<Vec<Epoch>, String> {
    let mut epochs = Vec::with_capacity(batches.len());
    for batch in batches {
        let t0 = Instant::now();
        let out = session.step(batch).map_err(|e| e.to_string())?;
        let counter = session.counter();
        let record = EpochRecord {
            epoch: out.epoch,
            spent: out.spent,
            digest: state_digest(counter.epochs(), counter.graph()),
        };
        journal.append(record).map_err(|e| e.to_string())?;
        epochs.push(Epoch {
            seconds: t0.elapsed().as_secs_f64(),
            noisy: out.noisy_count,
            cost: Cost {
                wire_bytes: out.net.wire_bytes,
                modeled_bytes: out.net.online().bytes,
                rounds: out.net.rounds,
                offline_bytes: out.net.offline.bytes,
                triples: out.triples,
                ..Cost::default()
            },
        });
    }
    Ok(epochs)
}

/// The serve reference: the in-process `Session` under the same seed
/// stepping the same batches. Returns the per-epoch noisy counts and
/// the summed modeled online bytes and rounds.
pub fn serve_reference(
    graph: &LoadedGraph,
    seed: u64,
    horizon: u64,
    script: &DeltaScript,
    epochs: usize,
) -> Result<(Vec<f64>, u64, u64), String> {
    let mut session = Session::new(graph.0.clone(), &serve_config(seed, horizon));
    let (mut noisy, mut bytes, mut rounds) = (Vec::with_capacity(epochs), 0, 0);
    for batch in &script.0[..epochs] {
        let out = session.step(batch).map_err(|e| e.to_string())?;
        noisy.push(out.noisy_count);
        bytes += out.net.online().bytes;
        rounds += out.net.rounds;
    }
    Ok((noisy, bytes, rounds))
}
