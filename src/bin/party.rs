//! `party` — one CARGO server as a real OS process.
//!
//! Runs the full pipeline (max-degree → projection → secure count →
//! perturb) as server S₁ or S₂ over a TCP connection to the peer
//! process, or — with `--role local` — as both parties in one process
//! over the in-memory byte transport, printing the *same* transcript
//! format so the two deployments can be diffed line by line (the CI
//! `tcp-smoke` job does exactly that).
//!
//! ```text
//! # terminal 1                                # terminal 2
//! party --role s1 --listen 127.0.0.1:7000 \   party --role s2 --connect 127.0.0.1:7000 \
//!       --n 200 --epsilon 2 --seed 7                --n 200 --epsilon 2 --seed 7
//! ```
//!
//! Both processes must agree on the graph flags (`--dataset`, `--n`,
//! `--seed`, `--data-dir`) and protocol knobs — each party derives its
//! own input shares from them, playing its users. `RESULT` lines are
//! role-independent (the noisy count, the modeled ledger, and the
//! measured `wire_bytes` are identical on both sides by construction);
//! everything else goes to stderr.

use cargo_core::session::{classify_delta_line, parse_delta_script, DeltaLine};
use cargo_core::{
    replay_committed_on, run_party, run_party_local, state_digest, CargoConfig, EdgeDelta,
    EpochJournal, EpochOutcome, EpochRecord, IncrementalCounter, PartyReport, PartySession,
    ScheduleKind, Session, SessionError, DEFAULT_COUNT_BATCH,
};
use cargo_dp::Composition;
use cargo_graph::generators::chung_lu;
use cargo_graph::generators::presets::SnapDataset;
use cargo_graph::Graph;
use cargo_mpc::{
    FaultPlan, FaultyTransport, ServerId, TcpConfig, TcpTransport, Transport,
    DEFAULT_RECV_TIMEOUT,
};
use cargo_repro as _;
use std::io::BufRead;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    S1,
    S2,
    Local,
}

/// One-shot pipeline (the default) or the continuous-release epoch
/// loop over an edge-delta stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Pipeline,
    Serve,
}

/// Where the input graph comes from. SNAP presets top out around 12k
/// nodes; `powerlaw` synthesizes a heavy-tailed Chung–Lu graph at any
/// `--n`, which is the large-graph entry point for `--schedule sparse`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphSource {
    Snap(SnapDataset),
    PowerLaw,
}

impl GraphSource {
    /// Builds the n-node input graph. Both parties run this from the
    /// same public flags, so they derive identical inputs.
    fn build(self, n: usize, seed: u64, data_dir: Option<&std::path::Path>) -> (Graph, String) {
        match self {
            GraphSource::Snap(ds) => {
                let (full, origin) = ds.load_or_synthesize(data_dir, seed);
                (full.induced_prefix(n), format!("{ds:?} ({origin:?})"))
            }
            GraphSource::PowerLaw => {
                let d_max = ((n as f64).sqrt() * 2.0) as usize;
                (
                    chung_lu(n, 4 * n, d_max.max(8), 2.5, seed),
                    "PowerLaw (Synthetic)".to_string(),
                )
            }
        }
    }
}

struct Args {
    role: Role,
    listen: Option<String>,
    connect: Option<String>,
    dataset: GraphSource,
    n: usize,
    epsilon: f64,
    seed: u64,
    threads: usize,
    batch: usize,
    offline: cargo_mpc::OfflineMode,
    factory_threads: usize,
    pool_depth: usize,
    pool_backpressure: cargo_mpc::Backpressure,
    schedule: ScheduleKind,
    data_dir: Option<PathBuf>,
    no_projection: bool,
    mode: Mode,
    deltas: Option<PathBuf>,
    horizon: u64,
    composition: Composition,
    recv_timeout: Duration,
    fault_plan: Option<FaultPlan>,
    journal: Option<PathBuf>,
    resume: bool,
}

fn usage() -> String {
    format!(
        "usage: party --role s1|s2|local [--listen ADDR | --connect ADDR]\n\
     \x20      [--dataset facebook|wiki|hepph|enron|powerlaw (default facebook)]\n\
     \x20      [--n <users=200>] [--epsilon <e=2.0>] [--seed <s=0>]\n\
     \x20      [--threads <w=1>] [--batch <b=0 (default {DEFAULT_COUNT_BATCH})>]\n\
     \x20      [--offline-mode dealer|ot] [--data-dir <snap-dir>] [--no-projection]\n\
     \x20      [--factory-threads <f=0 (inline)>] [--pool-depth <d=0 (default 4)>]\n\
     \x20      [--pool-backpressure block|fail-fast]\n\
     \x20      [--schedule dense|sparse|sparse-stream (default dense)]\n\
     \x20      [--mode pipeline|serve (default pipeline)]\n\
     \x20      [--deltas FILE|- (serve: edge-delta script; default stdin)]\n\
     \x20      [--horizon <epochs=16>] [--composition fixed|tree]\n\
     \x20      [--recv-timeout <seconds=120>]\n\
     \x20      [--journal FILE (serve: committed-epoch journal)]\n\
     \x20      [--resume (serve: replay the journal, reconnect, continue)]\n\
     \x20      [--fault-plan seed=N,disconnect@F,delay@F:MS,corrupt@F,truncate@F]\n\
     \n\
     s1 listens, s2 connects (either may take --listen or --connect);\n\
     local runs both parties in-process over the in-memory transport\n\
     and prints the identical RESULT transcript.\n\
     \n\
     serve mode reads `+u v` / `-u v` lines, `commit` ends an epoch\n\
     (incremental secure recount + one DP release); the schedule\n\
     refuses releases once epsilon or the horizon is exhausted.\n\
     \n\
     --journal appends each committed epoch (id, epsilon spent, state\n\
     digest) durably BEFORE its RESULT lines print; after a crash,\n\
     --resume (requires --deltas FILE) replays the script to the last\n\
     committed epoch bit-identically, re-prints its transcript,\n\
     reconnects with backoff, and continues without double-spending\n\
     epsilon. --fault-plan injects deterministic link faults at frame\n\
     indices (testing; wire roles only)."
    )
}

fn parse_dataset(s: &str) -> Result<GraphSource, String> {
    match s.to_ascii_lowercase().as_str() {
        "facebook" => Ok(GraphSource::Snap(SnapDataset::Facebook)),
        "wiki" => Ok(GraphSource::Snap(SnapDataset::Wiki)),
        "hepph" => Ok(GraphSource::Snap(SnapDataset::HepPh)),
        "enron" => Ok(GraphSource::Snap(SnapDataset::Enron)),
        "powerlaw" => Ok(GraphSource::PowerLaw),
        other => Err(format!(
            "unknown dataset {other:?} (expected facebook|wiki|hepph|enron|powerlaw)"
        )),
    }
}

/// `Ok(None)` means `--help`/`-h` was given — anywhere, even beside
/// invalid flags: print [`usage`] to stdout, exit 0 (as `dp_triangles`
/// and the bench binaries do).
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    parse_flags(argv).map(Some)
}

fn parse_flags(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        role: Role::Local,
        listen: None,
        connect: None,
        dataset: GraphSource::Snap(SnapDataset::Facebook),
        n: 200,
        epsilon: 2.0,
        seed: 0,
        threads: 1,
        batch: 0,
        offline: cargo_mpc::OfflineMode::TrustedDealer,
        factory_threads: 0,
        pool_depth: 0,
        pool_backpressure: cargo_mpc::Backpressure::Block,
        schedule: ScheduleKind::Dense,
        data_dir: None,
        no_projection: false,
        mode: Mode::Pipeline,
        deltas: None,
        horizon: 16,
        composition: Composition::Fixed,
        recv_timeout: DEFAULT_RECV_TIMEOUT,
        fault_plan: None,
        journal: None,
        resume: false,
    };
    let mut role_given = false;
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {} needs a value", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--role" => {
                role_given = true;
                args.role = match take(&mut i)?.as_str() {
                    "s1" => Role::S1,
                    "s2" => Role::S2,
                    "local" => Role::Local,
                    other => return Err(format!("unknown role {other:?}")),
                };
            }
            "--listen" => args.listen = Some(take(&mut i)?),
            "--connect" => args.connect = Some(take(&mut i)?),
            "--dataset" => args.dataset = parse_dataset(&take(&mut i)?)?,
            "--n" => args.n = take(&mut i)?.parse().map_err(|e| format!("--n: {e}"))?,
            "--epsilon" => {
                args.epsilon = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--epsilon: {e}"))?
            }
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                args.threads = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--batch" => args.batch = take(&mut i)?.parse().map_err(|e| format!("--batch: {e}"))?,
            "--offline-mode" => {
                args.offline = take(&mut i)?
                    .parse()
                    .map_err(|e: String| format!("--offline-mode: {e}"))?
            }
            "--factory-threads" => {
                args.factory_threads = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--factory-threads: {e}"))?
            }
            "--pool-depth" => {
                args.pool_depth = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--pool-depth: {e}"))?
            }
            "--pool-backpressure" => {
                args.pool_backpressure = take(&mut i)?
                    .parse()
                    .map_err(|e: String| format!("--pool-backpressure: {e}"))?
            }
            "--schedule" => {
                args.schedule = take(&mut i)?
                    .parse()
                    .map_err(|e: String| format!("--schedule: {e}"))?
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(take(&mut i)?)),
            "--no-projection" => args.no_projection = true,
            "--mode" => {
                args.mode = match take(&mut i)?.as_str() {
                    "pipeline" => Mode::Pipeline,
                    "serve" => Mode::Serve,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--deltas" => args.deltas = Some(PathBuf::from(take(&mut i)?)),
            "--horizon" => {
                args.horizon = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?
            }
            "--composition" => {
                args.composition = take(&mut i)?
                    .parse()
                    .map_err(|e: String| format!("--composition: {e}"))?
            }
            "--recv-timeout" => {
                let secs: f64 = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--recv-timeout: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--recv-timeout: must be a positive number of seconds".into());
                }
                args.recv_timeout = Duration::from_secs_f64(secs);
            }
            "--fault-plan" => {
                args.fault_plan = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e: String| format!("--fault-plan: {e}"))?,
                )
            }
            "--journal" => args.journal = Some(PathBuf::from(take(&mut i)?)),
            "--resume" => args.resume = true,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
        i += 1;
    }
    if !role_given {
        return Err(format!("--role is required\n{}", usage()));
    }
    if !(args.epsilon > 0.0 && args.epsilon.is_finite()) {
        return Err("--epsilon must be finite and > 0".into());
    }
    if args.n == 0 {
        return Err("--n must be >= 1".into());
    }
    if args.mode == Mode::Pipeline && args.deltas.is_some() {
        return Err("--deltas only makes sense with --mode serve".into());
    }
    if args.mode == Mode::Serve && args.horizon == 0 {
        return Err("--horizon must be >= 1".into());
    }
    if args.mode == Mode::Pipeline && (args.journal.is_some() || args.resume) {
        return Err("--journal/--resume only make sense with --mode serve".into());
    }
    if args.resume {
        if args.journal.is_none() {
            return Err("--resume requires --journal".into());
        }
        match args.deltas.as_deref() {
            Some(p) if p.as_os_str() != "-" => {}
            _ => {
                return Err(
                    "--resume requires --deltas FILE (the script is replayed from the start)"
                        .into(),
                )
            }
        }
    }
    if args.fault_plan.is_some() && args.role == Role::Local {
        return Err("--fault-plan wraps the TCP link; it requires --role s1|s2".into());
    }
    match args.role {
        Role::S1 | Role::S2 => {
            if args.listen.is_none() && args.connect.is_none() {
                return Err(format!(
                    "role {:?} needs --listen or --connect\n{}",
                    args.role,
                    usage()
                ));
            }
        }
        Role::Local => {
            if args.listen.is_some() || args.connect.is_some() {
                return Err("--role local takes neither --listen nor --connect".into());
            }
        }
    }
    Ok(args)
}

/// Prints the role-independent transcript both parties must agree on.
/// `{}` on f64 prints the shortest round-tripping decimal, so two
/// bit-identical noisy counts print identically.
fn print_result(report: &PartyReport, schedule: ScheduleKind) {
    println!("RESULT noisy_count={}", report.noisy_count);
    // A sparse schedule's candidates are the projected edge set itself:
    // every scheduled bit is 1, so the count is public to both servers
    // (PROTOCOL.md §6.1).
    let candidates = if schedule == ScheduleKind::Dense {
        ""
    } else {
        " candidates=support"
    };
    println!(
        "RESULT d_max_noisy={} truncated_users={} projected_count={} triples={}{candidates}",
        report.d_max_noisy, report.truncated_users, report.projected_count, report.triples
    );
    let net = &report.net;
    println!(
        "RESULT online_elements={} online_bytes={} online_rounds={} wire_bytes={}",
        net.elements, net.bytes, net.rounds, net.wire_bytes
    );
    println!(
        "RESULT offline_bytes={} offline_rounds={} offline_ext_ots={} offline_base_ots={}",
        net.offline.bytes, net.offline.rounds, net.offline.extended_ots, net.offline.base_ots
    );
    assert_eq!(
        net.wire_bytes,
        net.online().bytes,
        "measured wire bytes diverged from the modeled ledger"
    );
}

/// Reports this process's peak resident set size (stderr: VmHWM is a
/// per-process, allocator- and timing-dependent number, so like the
/// pool counters it must stay out of the role-diffed RESULT
/// transcript). Prints nothing off-Linux rather than a misleading 0.
fn print_peak_rss() {
    if let Some(bytes) = cargo_core::peak_rss_bytes() {
        eprintln!("[party] STAT peak_rss_mb={:.1}", bytes as f64 / 1e6);
    }
}

/// Reports the offline triple factory's counters (stderr: peak depth
/// is timing-dependent, so it must stay out of the diffable RESULT
/// transcript).
fn print_pool(report: &PartyReport) {
    if report.pool.fills > 0 {
        eprintln!(
            "[party] triple pool: fills={} drains={} peak_depth={}",
            report.pool.fills, report.pool.drains, report.pool.peak_depth
        );
    }
}

/// Serve-mode transcript: the baseline count of the starting graph
/// (share state only — nothing is released for it).
fn print_baseline(counter: &IncrementalCounter) {
    let net = counter.net();
    println!(
        "RESULT baseline triples={} online_elements={} online_bytes={} online_rounds={} wire_bytes={}",
        counter.triples(),
        net.elements,
        net.bytes,
        net.rounds,
        net.wire_bytes
    );
}

/// Serve-mode transcript: one released epoch. Role-independent, like
/// the pipeline's RESULT block.
fn print_epoch(out: &EpochOutcome) {
    println!("RESULT epoch={} noisy_count={}", out.epoch, out.noisy_count);
    println!(
        "RESULT epoch={} applied={} redundant={} created={} destroyed={} triples={} \
         charged={} node_epsilon={} spent={}",
        out.epoch,
        out.applied,
        out.redundant,
        out.created,
        out.destroyed,
        out.triples,
        out.charged,
        out.node_epsilon,
        out.spent
    );
    println!(
        "RESULT epoch={} online_elements={} online_bytes={} online_rounds={} wire_bytes={}",
        out.epoch, out.net.elements, out.net.bytes, out.net.rounds, out.net.wire_bytes
    );
    assert_eq!(
        out.net.wire_bytes,
        out.net.online().bytes,
        "measured epoch wire bytes diverged from the modeled ledger"
    );
}

/// Streams delta lines, stepping one epoch per `commit` (EOF flushes a
/// trailing non-empty batch). Returns the process exit code: a refused
/// release is the clean end of the schedule (0); a peer loss, bad
/// delta, or parse error aborts without emitting a release (1).
fn serve_loop(
    reader: impl BufRead,
    mut step: impl FnMut(&[EdgeDelta]) -> Result<EpochOutcome, SessionError>,
) -> i32 {
    let mut batch: Vec<EdgeDelta> = Vec::new();
    let mut run_epoch = |batch: &mut Vec<EdgeDelta>| -> Option<i32> {
        match step(batch) {
            Ok(out) => {
                print_epoch(&out);
                batch.clear();
                None
            }
            Err(SessionError::Refused(r)) => {
                println!("RESULT refused reason=\"{r}\"");
                eprintln!("[party serve] schedule exhausted; stopping cleanly");
                Some(0)
            }
            Err(e) => {
                eprintln!("[party serve] epoch failed, no release emitted: {e}");
                Some(1)
            }
        }
    };
    for (idx, line) in reader.lines().enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("[party serve] delta stream line {}: {e}", idx + 1);
                return 1;
            }
        };
        match classify_delta_line(&line) {
            Ok(DeltaLine::Blank) => {}
            Ok(DeltaLine::Delta(d)) => batch.push(d),
            Ok(DeltaLine::Commit) => {
                if let Some(code) = run_epoch(&mut batch) {
                    return code;
                }
            }
            Err(msg) => {
                eprintln!("[party serve] delta stream line {}: {msg}", idx + 1);
                return 1;
            }
        }
    }
    if !batch.is_empty() {
        if let Some(code) = run_epoch(&mut batch) {
            return code;
        }
    }
    0
}

/// Opens the party link per the `--listen`/`--connect` flags.
/// `TcpTransport::connect` already retries with exponential backoff
/// until its connect timeout; the listen side additionally retries the
/// bind, because a restarted (`--resume`) party may race the kernel's
/// `TIME_WAIT` hold on its old port.
fn open_tcp_link(args: &Args, id: ServerId) -> TcpTransport {
    let tcp_cfg = TcpConfig {
        recv_timeout: args.recv_timeout,
        ..TcpConfig::default()
    };
    if let Some(addr) = &args.listen {
        let listener = {
            let mut attempt = 0u32;
            loop {
                match TcpListener::bind(addr) {
                    Ok(l) => break l,
                    Err(e) if attempt < 6 => {
                        let backoff = Duration::from_millis(250u64 << attempt.min(3));
                        eprintln!(
                            "[party {id:?}] bind {addr} failed ({e}); retrying in {backoff:?}"
                        );
                        std::thread::sleep(backoff);
                        attempt += 1;
                    }
                    Err(e) => {
                        eprintln!("error: cannot listen on {addr}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        };
        eprintln!("[party {id:?}] listening on {addr}");
        TcpTransport::accept_on(&listener, &tcp_cfg).unwrap_or_else(|e| {
            eprintln!("error: accept failed: {e}");
            std::process::exit(1);
        })
    } else {
        let addr = args.connect.as_deref().expect("checked in parse_args");
        eprintln!("[party {id:?}] connecting to {addr}");
        TcpTransport::connect(addr, &tcp_cfg).unwrap_or_else(|e| {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        })
    }
}

/// Commit-then-publish: appends the epoch to the journal (flushed and
/// fsynced) *before* its RESULT lines print. A journal write failure
/// is fatal — continuing would publish releases the journal cannot
/// vouch for after a crash.
fn journal_commit(
    journal: Option<&mut EpochJournal>,
    out: &EpochOutcome,
    counter: &IncrementalCounter,
) {
    if let Some(j) = journal {
        let digest = state_digest(counter.epochs(), counter.graph());
        let record = EpochRecord {
            epoch: out.epoch,
            spent: out.spent,
            digest,
        };
        if let Err(e) = j.append(record) {
            eprintln!("[party serve] journal append failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Steps the already-parsed remaining epoch batches — the resume
/// path's twin of [`serve_loop`], with identical refusal/error exit
/// semantics.
fn serve_batches(
    batches: &[Vec<EdgeDelta>],
    mut step: impl FnMut(&[EdgeDelta]) -> Result<EpochOutcome, SessionError>,
) -> i32 {
    for batch in batches {
        match step(batch) {
            Ok(out) => print_epoch(&out),
            Err(SessionError::Refused(r)) => {
                println!("RESULT refused reason=\"{r}\"");
                eprintln!("[party serve] schedule exhausted; stopping cleanly");
                return 0;
            }
            Err(e) => {
                eprintln!("[party serve] epoch failed, no release emitted: {e}");
                return 1;
            }
        }
    }
    0
}

/// The fresh (non-resume) wire serve, generic over the link so the
/// `--fault-plan` wrapper and the bare TCP transport share one body.
fn serve_wire_fresh<T: Transport>(
    args: &Args,
    graph: Graph,
    cfg: &CargoConfig,
    id: ServerId,
    link: Arc<T>,
    reader: Box<dyn BufRead>,
) -> i32 {
    eprintln!("[party {id:?}] connected; serving");
    let session = match PartySession::new(graph, cfg, id, link) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[party serve] baseline count failed: {e}");
            return 1;
        }
    };
    print_baseline(session.counter());
    let mut journal = match &args.journal {
        Some(path) => match EpochJournal::create(path, cfg, session.counter().graph().n()) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("error: cannot create journal {}: {e}", path.display());
                return 1;
            }
        },
        None => None,
    };
    let mut session = session;
    serve_loop(reader, move |batch| {
        let out = session.step(batch)?;
        journal_commit(journal.as_mut(), &out, session.counter());
        Ok(out)
    })
}

/// The wire half of `--resume`: reconnect, run the resume handshake
/// (catching up any epochs the peer committed past our journal), then
/// continue stepping the rest of the script with journaling.
fn serve_wire_resume<T: Transport>(
    id: ServerId,
    link: Arc<T>,
    replayed: Session,
    mut journal: EpochJournal,
    pending: &[Vec<EdgeDelta>],
) -> i32 {
    eprintln!("[party {id:?}] reconnected; running the resume handshake");
    let (mut session, catchup) = match PartySession::resume(replayed, id, link, pending) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("[party serve] resume handshake failed: {e}");
            return 1;
        }
    };
    if !catchup.is_empty() {
        eprintln!(
            "[party serve] caught up {} epoch(s) the peer had already committed",
            catchup.len()
        );
    }
    for (out, digest) in &catchup {
        let record = EpochRecord {
            epoch: out.epoch,
            spent: out.spent,
            digest: *digest,
        };
        if let Err(e) = journal.append(record) {
            eprintln!("[party serve] journal append failed: {e}");
            return 1;
        }
        print_epoch(out);
    }
    let remaining = &pending[catchup.len()..];
    let mut journal = Some(journal);
    serve_batches(remaining, move |batch| {
        let out = session.step(batch)?;
        journal_commit(journal.as_mut(), &out, session.counter());
        Ok(out)
    })
}

/// Runs `--mode serve --resume`: validate the journal against this
/// run's config, replay the script's committed prefix locally (bit
/// identically, zero wire traffic), re-print its transcript, then —
/// for wire roles — reconnect and continue live.
fn run_serve_resume(args: &Args, graph: Graph, cfg: &CargoConfig) -> i32 {
    let journal_path = args.journal.as_deref().expect("checked in parse_args");
    let deltas_path = args.deltas.as_deref().expect("checked in parse_args");
    let script = match std::fs::File::open(deltas_path) {
        Ok(f) => match parse_delta_script(std::io::BufReader::new(f)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        },
        Err(e) => {
            eprintln!("error: cannot open {}: {e}", deltas_path.display());
            return 1;
        }
    };
    let journal = match EpochJournal::resume(journal_path, cfg, graph.n()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: cannot resume journal {}: {e}", journal_path.display());
            return 1;
        }
    };
    let committed = journal.committed() as usize;
    eprintln!(
        "[party serve] resuming: journal {} holds {committed} committed epoch(s); replaying",
        journal_path.display()
    );
    let mut session = Session::new(graph, cfg);
    // Re-print the committed prefix (baseline first, from the pristine
    // pre-replay state): a resumed transcript alone diffs clean against
    // an uninterrupted reference run.
    print_baseline(session.counter());
    let replayed = match replay_committed_on(&mut session, &script, &journal) {
        Ok(outs) => outs,
        Err(e) => {
            eprintln!("error: replay disagrees with the journal: {e}");
            return 1;
        }
    };
    for out in &replayed {
        print_epoch(out);
    }
    let pending = &script[committed..];
    match args.role {
        Role::Local => {
            let mut session = session;
            let mut journal = Some(journal);
            serve_batches(pending, move |batch| {
                let out = session.step(batch)?;
                journal_commit(journal.as_mut(), &out, session.counter());
                Ok(out)
            })
        }
        role @ (Role::S1 | Role::S2) => {
            let id = match role {
                Role::S1 => ServerId::S1,
                _ => ServerId::S2,
            };
            let tcp = open_tcp_link(args, id);
            match &args.fault_plan {
                Some(plan) => serve_wire_resume(
                    id,
                    Arc::new(FaultyTransport::new(tcp, plan)),
                    session,
                    journal,
                    pending,
                ),
                None => serve_wire_resume(id, Arc::new(tcp), session, journal, pending),
            }
        }
    }
}

/// Runs `--mode serve` for whichever role, returning the exit code.
fn run_serve(args: &Args, graph: Graph, cfg: &CargoConfig) -> i32 {
    eprintln!(
        "[party serve] horizon={} composition={} sensitivity=n={} \
         (serve runs without projection; the whole epsilon is metered per epoch)",
        cfg.horizon,
        cfg.composition,
        graph.n()
    );
    if args.resume {
        return run_serve_resume(args, graph, cfg);
    }
    let reader: Box<dyn BufRead> = match args.deltas.as_deref() {
        None => Box::new(std::io::stdin().lock()),
        Some(p) if p.as_os_str() == "-" => Box::new(std::io::stdin().lock()),
        Some(p) => match std::fs::File::open(p) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!("error: cannot open {}: {e}", p.display());
                return 1;
            }
        },
    };
    match args.role {
        Role::Local => {
            let session = Session::new(graph, cfg);
            print_baseline(session.counter());
            let mut journal = match &args.journal {
                Some(path) => {
                    match EpochJournal::create(path, cfg, session.counter().graph().n()) {
                        Ok(j) => Some(j),
                        Err(e) => {
                            eprintln!("error: cannot create journal {}: {e}", path.display());
                            return 1;
                        }
                    }
                }
                None => None,
            };
            let mut session = session;
            serve_loop(reader, move |batch| {
                let out = session.step(batch)?;
                journal_commit(journal.as_mut(), &out, session.counter());
                Ok(out)
            })
        }
        role @ (Role::S1 | Role::S2) => {
            let id = match role {
                Role::S1 => ServerId::S1,
                _ => ServerId::S2,
            };
            let tcp = open_tcp_link(args, id);
            match &args.fault_plan {
                Some(plan) => serve_wire_fresh(
                    args,
                    graph,
                    cfg,
                    id,
                    Arc::new(FaultyTransport::new(tcp, plan)),
                    reader,
                ),
                None => serve_wire_fresh(args, graph, cfg, id, Arc::new(tcp), reader),
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let (graph, dataset_label) = args
        .dataset
        .build(args.n, args.seed, args.data_dir.as_deref());
    let mut cfg = CargoConfig::new(args.epsilon)
        .with_seed(args.seed)
        .with_threads(args.threads)
        .with_batch(args.batch)
        .with_offline(args.offline)
        .with_factory_threads(args.factory_threads)
        .with_pool_depth(args.pool_depth)
        .with_pool_backpressure(args.pool_backpressure)
        .with_schedule(args.schedule)
        .with_horizon(args.horizon)
        .with_composition(args.composition)
        .with_recv_timeout(args.recv_timeout);
    if args.no_projection {
        cfg = cfg.without_projection();
    }
    eprintln!(
        "[party] dataset={dataset_label} n={} edges={} seed={} threads={} batch={} offline={} \
         factory_threads={} pool_depth={} pool_backpressure={} schedule={}",
        graph.n(),
        graph.edge_count(),
        args.seed,
        args.threads,
        cfg.effective_batch(),
        args.offline,
        args.factory_threads,
        args.pool_depth,
        args.pool_backpressure,
        args.schedule,
    );

    if args.mode == Mode::Serve {
        let code = run_serve(&args, graph, &cfg);
        print_peak_rss();
        std::process::exit(code);
    }

    match args.role {
        Role::Local => {
            let (r1, _r2) = run_party_local(&graph, &cfg);
            eprintln!("[party local] both in-process parties agree");
            print_pool(&r1);
            print_peak_rss();
            print_result(&r1, args.schedule);
        }
        role @ (Role::S1 | Role::S2) => {
            let id = match role {
                Role::S1 => ServerId::S1,
                _ => ServerId::S2,
            };
            let link = open_tcp_link(&args, id);
            eprintln!("[party {id:?}] connected; running the pipeline");
            let link = Arc::new(link);
            let report = run_party(&graph, &cfg, id, &link);
            let stats = cargo_mpc::Transport::stats(&*link);
            eprintln!(
                "[party {id:?}] done: T' = {} ({} online payload bytes measured, \
                 {} total on the socket incl. headers)",
                report.noisy_count,
                report.net.wire_bytes,
                stats.total_bytes(),
            );
            print_pool(&report);
            print_peak_rss();
            print_result(&report, args.schedule);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Option<Args>, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn refusal(v: &[&str]) -> String {
        parse(v).err().unwrap_or_else(|| panic!("{v:?} must be refused"))
    }

    #[test]
    fn help_short_circuits_parsing() {
        assert!(matches!(parse(&["--help"]), Ok(None)));
        // --help wins beside an unknown flag, a missing value, no role.
        assert!(matches!(parse(&["--wat", "-h"]), Ok(None)));
        assert!(matches!(parse(&["-h", "--n"]), Ok(None)));
    }

    #[test]
    fn usage_names_the_default_batch() {
        let default = format!("--batch <b=0 (default {DEFAULT_COUNT_BATCH})>");
        assert!(usage().contains(&default), "{}", usage());
    }

    #[test]
    fn unknown_flags_and_missing_values_are_refused() {
        assert!(refusal(&["--role", "local", "--wat"]).starts_with("unknown flag --wat\nusage: party"));
        assert!(refusal(&["--role", "local", "--tile-threshold", "8"]).starts_with("unknown flag"));
        assert_eq!(refusal(&["--role", "local", "--n"]), "flag --n needs a value");
        assert!(refusal(&["--role", "local", "--n", "many"]).starts_with("--n: "));
        assert!(refusal(&["--role", "s3"]).starts_with("unknown role"));
        assert!(refusal(&["--n", "60"]).starts_with("--role is required"));
    }

    #[test]
    fn numeric_flags_out_of_range_are_refused_at_parse_time() {
        for eps in ["0", "-1", "nan", "inf"] {
            let msg = refusal(&["--role", "local", "--epsilon", eps]);
            assert_eq!(msg, "--epsilon must be finite and > 0", "--epsilon {eps}");
        }
        assert_eq!(refusal(&["--role", "local", "--n", "0"]), "--n must be >= 1");
        let a = parse(&["--role", "local", "--epsilon", "0.5", "--n", "1"]).unwrap().unwrap();
        assert_eq!((a.epsilon, a.n), (0.5, 1));
    }

    #[test]
    fn serve_only_flags_are_refused_in_pipeline_mode_and_resume_needs_its_inputs() {
        let serve = ["--role", "local", "--mode", "serve"];
        let with = |extra: &[&'static str]| [&serve[..], extra].concat();
        assert!(refusal(&["--role", "local", "--deltas", "d.txt"]).starts_with("--deltas only"));
        assert!(refusal(&["--role", "local", "--journal", "j"]).starts_with("--journal/--resume"));
        assert!(refusal(&["--role", "local", "--resume"]).starts_with("--journal/--resume"));
        assert_eq!(refusal(&with(&["--resume"])), "--resume requires --journal");
        // The script is replayed from the start: stdin cannot be.
        assert!(refusal(&with(&["--resume", "--journal", "j"])).starts_with("--resume requires --deltas"));
        assert!(refusal(&with(&["--resume", "--journal", "j", "--deltas", "-"]))
            .starts_with("--resume requires --deltas"));
        assert!(refusal(&with(&["--horizon", "0"])).starts_with("--horizon"));
        let a = parse(&with(&["--resume", "--journal", "j", "--deltas", "d.txt"])).unwrap().unwrap();
        assert!(a.resume && a.mode == Mode::Serve);
        assert_eq!((a.journal, a.deltas), (Some("j".into()), Some("d.txt".into())));
    }

    #[test]
    fn wire_roles_need_an_endpoint_and_local_takes_none() {
        assert!(refusal(&["--role", "s1"]).starts_with("role S1 needs --listen or --connect"));
        assert!(refusal(&["--role", "s2"]).starts_with("role S2 needs --listen or --connect"));
        assert!(refusal(&["--role", "local", "--listen", "127.0.0.1:1"]).contains("neither"));
        assert!(refusal(&["--role", "local", "--connect", "127.0.0.1:1"]).contains("neither"));
        assert!(refusal(&["--role", "local", "--fault-plan", "seed=1,corrupt@3"])
            .starts_with("--fault-plan"));
        // Either wire role may take either end of the connection.
        for (role, end) in [("s1", "--listen"), ("s1", "--connect"), ("s2", "--listen")] {
            let a = parse(&["--role", role, end, "127.0.0.1:1"]).unwrap().unwrap();
            assert_eq!(a.listen.is_some(), end == "--listen");
            assert_eq!(a.connect.is_some(), end == "--connect");
        }
    }
}
