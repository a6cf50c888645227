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
//! `--data-dir`) and the config flags (`cargo_core::config`) — each
//! party derives its own input shares from them, playing its users.
//! `RESULT` lines are role-independent (the noisy count, the modeled
//! ledger, and the measured `wire_bytes` are identical on both sides by
//! construction); everything else goes to stderr.

use cargo_core::config::{self, parse_argv, parse_value, ArgvError, ConfigFlag, Flag};
use cargo_core::{
    replay_committed, run_party, run_party_local, CargoConfig, DeltaBatches, EdgeDelta,
    EpochJournal, EpochOutcome, EpochParty, EpochRecord, IncrementalCounter, PartyReport,
    PartySession, ScheduleKind, ServeSession, Session, SessionError,
};
use cargo_graph::generators::chung_lu;
use cargo_graph::generators::presets::SnapDataset;
use cargo_graph::Graph;
use cargo_mpc::{FaultPlan, FaultyTransport, ServerId, TcpConfig, TcpTransport, Transport};
use cargo_repro as _;
use std::io::BufRead;
use std::net::TcpListener;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    S1,
    S2,
    Local,
}

impl Role {
    /// The server a wire role plays; `None` for `local`.
    fn server(self) -> Option<ServerId> {
        match self {
            Role::S1 => Some(ServerId::S1),
            Role::S2 => Some(ServerId::S2),
            Role::Local => None,
        }
    }
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

/// `party`'s parsed flags: its own, over the config both servers must
/// agree on (read through `Deref`).
struct Args {
    role: Role,
    listen: Option<String>,
    connect: Option<String>,
    dataset: GraphSource,
    n: usize,
    data_dir: Option<PathBuf>,
    mode: Mode,
    deltas: Option<PathBuf>,
    fault_plan: Option<FaultPlan>,
    journal: Option<PathBuf>,
    resume: bool,
    cfg: CargoConfig,
}

impl Deref for Args {
    type Target = CargoConfig;
    fn deref(&self) -> &CargoConfig {
        &self.cfg
    }
}

const OWN: [Flag; 11] = [
    "--role <s1|s2|local>  which server this process plays (required)",
    "--listen <ADDR>  take the peer's connection on ADDR",
    "--connect <ADDR>  connect to the peer at ADDR",
    "--dataset <facebook|wiki|hepph|enron|powerlaw=facebook>  the input graph",
    "--n <users=200>  number of users",
    "--data-dir <snap-dir>  directory of real SNAP edge lists",
    "--mode <pipeline|serve=pipeline>  one release, or one per delta epoch",
    "--deltas <FILE|->  serve: the edge-delta script (default stdin)",
    "--journal <FILE>  serve: the committed-epoch journal",
    "--resume  serve: replay the journal, reconnect, continue",
    "--fault-plan <seed=N,disconnect@F,delay@F:MS,corrupt@F,truncate@F>  testing",
];

fn base_config() -> CargoConfig {
    CargoConfig::new(2.0).with_threads(1)
}

fn usage() -> String {
    let head = "usage: party --role s1|s2|local [--listen ADDR | --connect ADDR] [flags]";
    let flags = config::usage(head, &OWN, &ConfigFlag::ALL, &base_config());
    format!(
        "{flags}\n\n\
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
/// invalid flags: print [`usage`] to stdout, exit 0 (as every binary
/// of the workspace does).
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        role: Role::Local,
        listen: None,
        connect: None,
        dataset: GraphSource::Snap(SnapDataset::Facebook),
        n: 200,
        data_dir: None,
        mode: Mode::Pipeline,
        deltas: None,
        fault_plan: None,
        journal: None,
        resume: false,
        cfg: base_config(),
    };
    let unknown = |flag: &str| format!("unknown flag {flag}\n{}", usage());
    let walked = match parse_argv(argv, &OWN, &ConfigFlag::ALL, &mut args.cfg) {
        Ok(None) => return Ok(None),
        Ok(Some(walked)) => walked,
        Err(ArgvError::Unknown(flag)) => return Err(unknown(&flag)),
        Err(ArgvError::Refused(message)) => return Err(message),
    };
    if let Some(arg) = walked.positional.first() {
        return Err(unknown(arg));
    }
    let mut role_given = false;
    for (flag, v) in walked.own {
        match flag.as_str() {
            "--role" => {
                role_given = true;
                args.role = match v.as_str() {
                    "s1" => Role::S1,
                    "s2" => Role::S2,
                    "local" => Role::Local,
                    other => return Err(format!("unknown role {other:?}")),
                };
            }
            "--listen" => args.listen = Some(v),
            "--connect" => args.connect = Some(v),
            "--dataset" => args.dataset = parse_dataset(&v)?,
            "--n" => args.n = parse_value(&flag, &v)?,
            "--data-dir" => args.data_dir = Some(PathBuf::from(v)),
            "--mode" => {
                args.mode = match v.as_str() {
                    "pipeline" => Mode::Pipeline,
                    "serve" => Mode::Serve,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--deltas" => args.deltas = Some(PathBuf::from(v)),
            "--journal" => args.journal = Some(PathBuf::from(v)),
            "--resume" => args.resume = true,
            "--fault-plan" => args.fault_plan = Some(parse_value(&flag, &v)?),
            other => unreachable!("{other} is not one of party's flags"),
        }
    }
    if !role_given {
        return Err(format!("--role is required\n{}", usage()));
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
    Ok(Some(args))
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
/// per-process, allocator- and timing-dependent number, so it must
/// stay out of the role-diffed RESULT transcript). Prints nothing
/// off-Linux rather than a misleading 0.
fn print_peak_rss() {
    if let Some(bytes) = cargo_core::peak_rss_bytes() {
        eprintln!("[party] STAT peak_rss_mb={:.1}", bytes as f64 / 1e6);
    }
}

/// Serve-mode transcript: the baseline count of the starting graph
/// (share state only — nothing is released for it).
fn print_baseline(counter: &IncrementalCounter) {
    let (triples, net) = counter.baseline();
    println!(
        "RESULT baseline triples={} online_elements={} online_bytes={} online_rounds={} wire_bytes={}",
        triples,
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

/// Opens the party link per the `--listen`/`--connect` flags, under the
/// `--fault-plan` (the empty plan when none is given).
/// `TcpTransport::connect` already retries with exponential backoff
/// until its connect timeout; the listen side additionally retries the
/// bind, because a restarted (`--resume`) party may race the kernel's
/// `TIME_WAIT` hold on its old port.
fn open_link(args: &Args, id: ServerId) -> Arc<FaultyTransport<TcpTransport>> {
    let tcp_cfg = TcpConfig {
        recv_timeout: args.recv_timeout,
        ..TcpConfig::default()
    };
    let tcp = if let Some(addr) = &args.listen {
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
    };
    eprintln!("[party {id:?}] connected");
    let plan = args.fault_plan.clone().unwrap_or_default();
    Arc::new(FaultyTransport::new(tcp, &plan))
}

/// The one serve driver, for every role, fresh or resumed: prints the
/// baseline, publishes `done` (a resume's replayed and caught-up
/// epochs), then steps one epoch per batch. Commit-then-publish: an
/// epoch the journal does not hold yet is appended (flushed and
/// fsynced) *before* its RESULT lines print. Returns the exit code: a
/// refused release is the clean end of the schedule (0); a peer loss,
/// bad delta, parse error or journal failure aborts without emitting a
/// release (1).
fn serve<P: EpochParty>(
    mut session: ServeSession<P>,
    mut journal: Option<EpochJournal>,
    done: Vec<EpochOutcome>,
    batches: impl IntoIterator<Item = Result<Vec<EdgeDelta>, SessionError>>,
) -> i32 {
    print_baseline(session.counter());
    let stepped = batches.into_iter().map(|batch| session.step(&batch?));
    for epoch in done.into_iter().map(Ok).chain(stepped) {
        let out = match epoch {
            Ok(out) => out,
            Err(SessionError::Refused(r)) => {
                println!("RESULT refused reason=\"{r}\"");
                eprintln!("[party serve] schedule exhausted; stopping cleanly");
                return 0;
            }
            Err(e) => {
                eprintln!("[party serve] epoch failed, no release emitted: {e}");
                return 1;
            }
        };
        if let Some(j) = journal.as_mut().filter(|j| out.epoch > j.committed()) {
            if let Err(e) = j.append(EpochRecord::from(&out)) {
                eprintln!("[party serve] journal append failed: {e}");
                return 1;
            }
        }
        print_epoch(&out);
    }
    0
}

/// Runs `--mode serve` for whichever role, returning the exit code (an
/// `Err` is a run refused before its first epoch). `--resume`
/// validates the journal against this run's config and replays the
/// script's committed prefix locally (bit-identically, zero wire
/// traffic); a wire role then reconnects and runs the resume handshake
/// before continuing live.
fn run_serve(args: &Args, graph: Graph, cfg: &CargoConfig) -> Result<i32, String> {
    eprintln!(
        "[party serve] horizon={} composition={} sensitivity=n={} \
         (serve runs without projection; the whole epsilon is metered per epoch)",
        cfg.horizon,
        cfg.composition,
        graph.n()
    );
    let reader: Box<dyn BufRead> = match args.deltas.as_deref() {
        Some(p) if p.as_os_str() != "-" => Box::new(std::io::BufReader::new(
            std::fs::File::open(p).map_err(|e| format!("cannot open {}: {e}", p.display()))?,
        )),
        _ => Box::new(std::io::stdin().lock()),
    };
    let batches = DeltaBatches::new(reader);
    if !args.resume {
        let journal = args
            .journal
            .as_deref()
            .map(|path| {
                EpochJournal::create(path, cfg, graph.n())
                    .map_err(|e| format!("cannot create journal {}: {e}", path.display()))
            })
            .transpose()?;
        return Ok(match args.role.server() {
            None => serve(Session::new(graph, cfg), journal, Vec::new(), batches),
            Some(id) => {
                let session = PartySession::new(graph, cfg, id, open_link(args, id))
                    .map_err(|e| format!("baseline count failed: {e}"))?;
                serve(session, journal, Vec::new(), batches)
            }
        });
    }
    let journal_path = args.journal.as_deref().expect("checked in parse_args");
    let script = batches.collect::<Result<Vec<_>, _>>().map_err(|e| e.to_string())?;
    let journal = EpochJournal::resume(journal_path, cfg, graph.n())
        .map_err(|e| format!("cannot resume journal {}: {e}", journal_path.display()))?;
    eprintln!(
        "[party serve] resuming: journal {} holds {} committed epoch(s); replaying",
        journal_path.display(),
        journal.committed()
    );
    let (session, mut done) = replay_committed(graph, cfg, &script, &journal)
        .map_err(|e| format!("replay disagrees with the journal: {e}"))?;
    let pending = &script[done.len()..];
    let rest = |from: usize| pending[from..].iter().cloned().map(Ok);
    Ok(match args.role.server() {
        None => serve(session, Some(journal), done, rest(0)),
        Some(id) => {
            let (session, caught_up) =
                PartySession::resume(session, id, open_link(args, id), pending)
                    .map_err(|e| format!("resume handshake failed: {e}"))?;
            let from = caught_up.len();
            eprintln!("[party serve] caught up {from} epoch(s) the peer had already committed");
            done.extend(caught_up);
            serve(session, Some(journal), done, rest(from))
        }
    })
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
    let cfg = args.cfg;
    let settings: Vec<String> = ConfigFlag::ALL
        .iter()
        .map(|c| format!("{}={}", &c.spec().0[2..], c.show(&cfg)))
        .collect();
    eprintln!(
        "[party] dataset={dataset_label} n={} edges={} {}",
        graph.n(),
        graph.edge_count(),
        settings.join(" "),
    );

    if args.mode == Mode::Serve {
        let code = run_serve(&args, graph, &cfg).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            1
        });
        print_peak_rss();
        std::process::exit(code);
    }

    match args.role.server() {
        None => {
            let (r1, _r2) = run_party_local(&graph, &cfg);
            eprintln!("[party local] both in-process parties agree");
            print_peak_rss();
            print_result(&r1, args.schedule);
        }
        Some(id) => {
            let link = open_link(&args, id);
            let report = run_party(&graph, &cfg, id, &link);
            eprintln!(
                "[party {id:?}] done: T' = {} ({} online payload bytes measured, \
                 {} total on the socket incl. headers)",
                report.noisy_count,
                report.net.wire_bytes,
                link.stats().total_bytes(),
            );
            print_peak_rss();
            print_result(&report, args.schedule);
        }
    }
}

#[cfg(test)]
use cargo_core::DEFAULT_COUNT_BATCH;

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

    #[test]
    fn takes_the_flags_it_always_took() {
        let own = OWN.map(|f| f.split(' ').next().unwrap());
        let config = ConfigFlag::ALL.map(|c| c.spec().0);
        let names: Vec<&str> = own.into_iter().chain(config).collect();
        assert_eq!(
            names.join(" "),
            "--role --listen --connect --dataset --n --data-dir --mode --deltas --journal \
             --resume --fault-plan --epsilon --seed --threads --batch --offline-mode \
             --schedule --no-projection --horizon --composition --recv-timeout"
        );
        // Every own flag is handled; the config keeps party's defaults.
        let every = "--role s1 --listen a --connect b --dataset wiki --n 7 --data-dir d --mode \
                     serve --deltas x --journal j --resume --fault-plan seed=1";
        let every: Vec<&str> = every.split_whitespace().collect();
        let a = parse(&every).unwrap().unwrap();
        assert_eq!((a.role, a.n), (Role::S1, 7));
        assert_eq!(a.dataset, GraphSource::Snap(SnapDataset::Wiki));
        assert!(a.resume && a.fault_plan.is_some() && a.data_dir.is_some());
        assert_eq!(a.cfg, CargoConfig::new(2.0).with_threads(1));
    }
}
