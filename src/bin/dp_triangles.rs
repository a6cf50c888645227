//! `dp-triangles` — command-line front end for the CARGO pipeline.
//!
//! Counts triangles in a SNAP-format edge list under Edge DDP with the
//! full CARGO protocol (or the baselines, for comparison):
//!
//! ```text
//! cargo run --release --bin dp_triangles -- --input graph.txt --epsilon 2
//! ```
//!
//! `--help` prints every flag with its default.
//!
//! `exact` prints the non-private count (for offline validation only —
//! it obviously provides no privacy). `replay` replays a delta script
//! (`+u v` / `-u v` / `commit` lines) as continuous-release epochs and
//! reports utility over time: released value vs. the exact count after
//! each epoch, plus the ε the accountant has spent.

use cargo_repro::baselines::{
    central_lap_triangles, local2rounds_triangles, local_rr_triangles, Local2RoundsConfig,
};
use cargo_repro::core::config::{self, parse_argv, parse_value, ConfigFlag, Flag};
use cargo_repro::core::{parse_delta_script, CargoConfig, CargoSystem, Session, SessionError};
use cargo_repro::graph::{count_triangles, io::read_edge_list, largest_component, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Deref;
use std::path::PathBuf;
use std::process::ExitCode;

/// `dp_triangles`' parsed flags: its own, over the config of the run
/// (read through `Deref`).
#[derive(Debug, Clone, PartialEq)]
struct Args {
    input: PathBuf,
    protocol: String,
    n: Option<usize>,
    lcc: bool,
    deltas: Option<PathBuf>,
    cfg: CargoConfig,
}

impl Deref for Args {
    type Target = CargoConfig;
    fn deref(&self) -> &CargoConfig {
        &self.cfg
    }
}

const CONFIG: [ConfigFlag; 5] = [
    ConfigFlag::Epsilon,
    ConfigFlag::Seed,
    ConfigFlag::Threads,
    ConfigFlag::Horizon,
    ConfigFlag::Composition,
];

const OWN: [Flag; 5] = [
    "--input <path>  SNAP edge list (whitespace-separated, # comments)",
    "--protocol <p=cargo>  cargo | central | local2rounds | localrr | exact | replay",
    "--n <k>  subsample to the first k users",
    "--lcc  restrict to the largest connected component",
    "--deltas <path>  delta script for --protocol replay",
];

fn base_config() -> CargoConfig {
    CargoConfig::new(2.0)
}

fn usage() -> String {
    let head = "usage: dp_triangles --input <edge-list> [flags]";
    config::usage(head, &OWN, &CONFIG, &base_config())
}

/// `Ok(None)` means `--help` was requested: print [`usage`], exit 0.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut cfg = base_config();
    let Some(walked) = parse_argv(argv, &OWN, &CONFIG, &mut cfg).map_err(|e| e.to_string())? else {
        return Ok(None);
    };
    if let Some(arg) = walked.positional.first() {
        return Err(format!("unexpected argument {arg:?}"));
    }
    let (mut input, mut protocol, mut n, mut lcc, mut deltas) = (None, "cargo", None, false, None);
    for (flag, v) in &walked.own {
        match flag.as_str() {
            "--input" => input = Some(PathBuf::from(v)),
            "--protocol" => protocol = v.as_str(),
            "--n" => n = Some(parse_value(flag, v)?),
            "--lcc" => lcc = true,
            "--deltas" => deltas = Some(PathBuf::from(v)),
            other => unreachable!("{other} is not one of dp_triangles' flags"),
        }
    }
    let input = input.ok_or("missing required flag --input")?;
    let known = ["cargo", "central", "local2rounds", "localrr", "exact", "replay"];
    if !known.contains(&protocol) {
        return Err(format!("--protocol must be one of {known:?}"));
    }
    if protocol == "replay" && deltas.is_none() {
        return Err("--protocol replay needs --deltas <file>".into());
    }
    if deltas.is_some() && protocol != "replay" {
        return Err("--deltas only applies to --protocol replay".into());
    }
    if cfg.horizon == 0 {
        return Err("--horizon must be at least 1".into());
    }
    let protocol = protocol.to_string();
    Ok(Some(Args {
        input,
        protocol,
        n,
        lcc,
        deltas,
        cfg,
    }))
}

fn run(args: &Args) -> Result<(), String> {
    let mut graph: Graph =
        read_edge_list(&args.input).map_err(|e| format!("reading {:?}: {e}", args.input))?;
    if args.lcc {
        let (g, _) = largest_component(&graph);
        graph = g;
    }
    if let Some(k) = args.n {
        graph = graph.induced_prefix(k);
    }
    eprintln!(
        "graph: {} users, {} edges, d_max = {}",
        graph.n(),
        graph.edge_count(),
        graph.max_degree()
    );
    let mut rng = StdRng::seed_from_u64(args.seed);
    match args.protocol.as_str() {
        "cargo" => {
            let out = CargoSystem::new(args.cfg).run(&graph);
            eprintln!(
                "d'_max = {:.1}; Count took {:?} ({}% of pipeline); privacy: ({:.3} + {:.3})-Edge DDP",
                out.d_max_noisy,
                out.timings.count,
                (out.timings.count_fraction() * 100.0) as u32,
                out.ledger[0].1,
                out.ledger[1].1,
            );
            println!("{:.2}", out.noisy_count);
        }
        "central" => {
            let out = central_lap_triangles(&graph, args.epsilon, &mut rng);
            eprintln!("privacy: {:.3}-Edge CDP (requires a TRUSTED server)", args.epsilon);
            println!("{:.2}", out.noisy_count);
        }
        "local2rounds" => {
            let out = local2rounds_triangles(
                &graph,
                Local2RoundsConfig::paper_split(args.epsilon),
                &mut rng,
            );
            eprintln!("privacy: {:.3}-Edge LDP", args.epsilon);
            println!("{:.2}", out.noisy_count);
        }
        "localrr" => {
            let out = local_rr_triangles(&graph, args.epsilon, &mut rng);
            eprintln!("privacy: {:.3}-Edge LDP (one round)", args.epsilon);
            println!("{:.2}", out.noisy_count);
        }
        "exact" => {
            eprintln!("WARNING: exact count, no privacy");
            println!("{}", count_triangles(&graph));
        }
        "replay" => {
            let path = args.deltas.as_ref().expect("validated in parse_args");
            let file = std::fs::File::open(path).map_err(|e| format!("opening {path:?}: {e}"))?;
            let epochs = parse_delta_script(std::io::BufReader::new(file))
                .map_err(|e| format!("parsing {path:?}: {e}"))?;
            let mut session = Session::new(graph, &args.cfg);
            eprintln!(
                "replay: {} epoch(s), horizon {}, {} composition",
                epochs.len(),
                args.horizon,
                args.composition,
            );
            for (t, batch) in epochs.iter().enumerate() {
                match session.step(batch) {
                    Ok(out) => {
                        let exact = count_triangles(session.counter().graph()) as f64;
                        eprintln!(
                            "epoch {}: exact = {}, released = {:.2}, |error| = {:.2}, \
                             ε spent = {:.3}",
                            out.epoch,
                            exact,
                            out.noisy_count,
                            (out.noisy_count - exact).abs(),
                            out.spent,
                        );
                        println!("{:.2}", out.noisy_count);
                    }
                    Err(SessionError::Refused(r)) => {
                        eprintln!("epoch {}: {r}", t + 1);
                        break;
                    }
                    Err(e) => return Err(format!("epoch {}: {e}", t + 1)),
                }
            }
        }
        _ => unreachable!("validated in parse_args"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(None) => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n{}", usage());
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
use cargo_repro::dp::Composition;

/// [`parse_args`] of an argv without `--help`.
#[cfg(test)]
fn parse_args_inner(argv: &[String]) -> Result<Args, String> {
    parse_args(argv).map(|args| args.expect("no --help in the argv"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args_inner(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_short_circuits_parsing() {
        let argv = vec!["--help".to_string()];
        assert_eq!(parse_args(&argv).unwrap(), None);
        // --help wins even alongside invalid flags.
        let argv = vec!["--wat".to_string(), "-h".to_string()];
        assert_eq!(parse_args(&argv).unwrap(), None);
    }

    #[test]
    fn minimal_invocation() {
        let a = parse(&["--input", "g.txt"]).unwrap();
        assert_eq!(a.epsilon, 2.0);
        assert_eq!(a.protocol, "cargo");
        assert_eq!(a.n, None);
        assert!(!a.lcc);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--input", "g.txt", "--epsilon", "1.5", "--protocol", "central", "--n", "100",
            "--seed", "7", "--threads", "4", "--lcc",
        ])
        .unwrap();
        assert_eq!(a.epsilon, 1.5);
        assert_eq!(a.protocol, "central");
        assert_eq!(a.n, Some(100));
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 4);
        assert!(a.lcc);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err(), "missing --input");
        for eps in ["0", "-1", "nan", "inf", "-inf"] {
            let msg = parse(&["--input", "g", "--epsilon", eps]).err();
            assert_eq!(
                msg.as_deref(),
                Some("--epsilon must be finite and > 0"),
                "--epsilon {eps}"
            );
        }
        assert!(parse(&["--input", "g", "--protocol", "wat"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--input"]).is_err(), "missing value");
    }

    #[test]
    fn replay_flag_validation() {
        let a = parse(&[
            "--input", "g.txt", "--protocol", "replay", "--deltas", "d.txt", "--horizon", "8",
            "--composition", "tree",
        ])
        .unwrap();
        assert_eq!(a.protocol, "replay");
        assert_eq!(a.deltas, Some(PathBuf::from("d.txt")));
        assert_eq!(a.horizon, 8);
        assert_eq!(a.composition, Composition::BinaryTree);
        // replay needs a script; --deltas is replay-only; horizon >= 1.
        assert!(parse(&["--input", "g", "--protocol", "replay"]).is_err());
        assert!(parse(&["--input", "g", "--deltas", "d.txt"]).is_err());
        assert!(parse(&["--input", "g", "--protocol", "replay", "--deltas", "d", "--horizon", "0"]).is_err());
    }

    #[test]
    fn end_to_end_on_temp_file() {
        // Write a small graph, run every protocol through the CLI core.
        let dir = std::env::temp_dir().join("dp_triangles_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        let g = cargo_repro::graph::generators::barabasi_albert(60, 3, 1);
        cargo_repro::graph::io::write_edge_list(&g, &path).unwrap();
        for proto in ["cargo", "central", "local2rounds", "localrr", "exact"] {
            let args = Args {
                input: path.clone(),
                protocol: proto.into(),
                n: None,
                lcc: true,
                deltas: None,
                cfg: CargoConfig::new(2.0).with_seed(1).with_threads(2),
            };
            run(&args).unwrap_or_else(|e| panic!("{proto}: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_end_to_end_on_temp_files() {
        let dir = std::env::temp_dir().join("dp_triangles_replay_test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("toy.txt");
        let deltas_path = dir.join("deltas.txt");
        let g = cargo_repro::graph::generators::barabasi_albert(40, 3, 1);
        cargo_repro::graph::io::write_edge_list(&g, &graph_path).unwrap();
        // Two epochs, then a horizon-2 schedule refuses the third.
        std::fs::write(&deltas_path, "+0 1\n+1 2\n+0 2\ncommit\n-0 1\ncommit\ncommit\n").unwrap();
        let args = Args {
            input: graph_path.clone(),
            protocol: "replay".into(),
            n: None,
            lcc: false,
            deltas: Some(deltas_path.clone()),
            cfg: CargoConfig {
                composition: Composition::BinaryTree,
                horizon: 2,
                ..CargoConfig::new(2.0).with_seed(1).with_threads(1)
            },
        };
        run(&args).unwrap();
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&deltas_path).ok();
    }

    #[test]
    fn takes_the_flags_it_always_took() {
        let own = OWN.map(|f| f.split(' ').next().unwrap());
        let names: Vec<&str> = own.into_iter().chain(CONFIG.map(|c| c.spec().0)).collect();
        assert_eq!(
            names.join(" "),
            "--input --protocol --n --lcc --deltas --epsilon --seed --threads --horizon \
             --composition"
        );
        let a = parse(&["--input", "g.txt"]).unwrap();
        assert_eq!(a.cfg, CargoConfig::new(2.0), "seed 0, all cores, fixed, 16");
        let a = parse(&["--input", "g", "--deltas", "d", "--protocol", "replay"]).unwrap();
        assert_eq!(a.deltas, Some(PathBuf::from("d")));
    }
}
