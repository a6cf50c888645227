//! `dp-triangles` — command-line front end for the CARGO pipeline.
//!
//! Counts triangles in a SNAP-format edge list under Edge DDP with the
//! full CARGO protocol (or the baselines, for comparison):
//!
//! ```text
//! cargo run --release --bin dp_triangles -- --input graph.txt --epsilon 2
//!
//! flags:
//!   --input <path>       SNAP edge list (whitespace-separated, # comments)
//!   --epsilon <e=2.0>    total privacy budget
//!   --protocol <p=cargo> cargo | central | local2rounds | localrr | exact | replay
//!   --n <k>              subsample to the first k users
//!   --seed <s=0>         RNG seed (fixed seed = reproducible run)
//!   --threads <t=0>      secure-count workers (0 = all cores)
//!   --lcc                restrict to the largest connected component
//!   --deltas <path>      delta script for --protocol replay
//!   --horizon <k=16>     release horizon for --protocol replay
//!   --composition <c>    fixed | tree  (replay budget composition)
//! ```
//!
//! `exact` prints the non-private count (for offline validation only —
//! it obviously provides no privacy). `replay` replays a delta script
//! (`+u v` / `-u v` / `commit` lines) as continuous-release epochs and
//! reports utility over time: released value vs. the exact count after
//! each epoch, plus the ε the accountant has spent.

use cargo_repro::baselines::{
    central_lap_triangles, local2rounds_triangles, local_rr_triangles, Local2RoundsConfig,
};
use cargo_repro::core::{parse_delta_script, CargoConfig, CargoSystem, Session, SessionError};
use cargo_repro::dp::Composition;
use cargo_repro::graph::{count_triangles, io::read_edge_list, largest_component, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dp_triangles --input <edge-list> [flags]

flags:
  --input <path>       SNAP edge list (whitespace-separated, # comments)
  --epsilon <e=2.0>    total privacy budget
  --protocol <p=cargo> cargo | central | local2rounds | localrr | exact | replay
  --n <k>              subsample to the first k users
  --seed <s=0>         RNG seed (fixed seed = reproducible run)
  --threads <t=0>      secure-count workers (0 = all cores)
  --lcc                restrict to the largest connected component
  --deltas <path>      delta script for --protocol replay
  --horizon <k=16>     release horizon for --protocol replay
  --composition <c>    fixed | tree  (replay budget composition)";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    input: PathBuf,
    epsilon: f64,
    protocol: String,
    n: Option<usize>,
    seed: u64,
    threads: usize,
    lcc: bool,
    deltas: Option<PathBuf>,
    horizon: u64,
    composition: Composition,
}

/// `Ok(None)` means `--help` was requested: print [`USAGE`], exit 0.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    parse_args_inner(argv).map(Some)
}

fn parse_args_inner(argv: &[String]) -> Result<Args, String> {
    let mut input = None;
    let mut epsilon = 2.0;
    let mut protocol = "cargo".to_string();
    let mut n = None;
    let mut seed = 0u64;
    let mut threads = 0usize;
    let mut lcc = false;
    let mut deltas = None;
    let mut horizon = 16u64;
    let mut composition = Composition::Fixed;
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {} needs a value", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--input" => input = Some(PathBuf::from(value(&mut i)?)),
            "--epsilon" => epsilon = value(&mut i)?.parse().map_err(|e| format!("--epsilon: {e}"))?,
            "--protocol" => protocol = value(&mut i)?,
            "--n" => n = Some(value(&mut i)?.parse().map_err(|e| format!("--n: {e}"))?),
            "--seed" => seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => threads = value(&mut i)?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--lcc" => lcc = true,
            "--deltas" => deltas = Some(PathBuf::from(value(&mut i)?)),
            "--horizon" => horizon = value(&mut i)?.parse().map_err(|e| format!("--horizon: {e}"))?,
            "--composition" => {
                composition = value(&mut i)?.parse().map_err(|e| format!("--composition: {e}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    let input = input.ok_or("missing required flag --input")?;
    if epsilon <= 0.0 {
        return Err("--epsilon must be positive".into());
    }
    let known = ["cargo", "central", "local2rounds", "localrr", "exact", "replay"];
    if !known.contains(&protocol.as_str()) {
        return Err(format!("--protocol must be one of {known:?}"));
    }
    if protocol == "replay" && deltas.is_none() {
        return Err("--protocol replay needs --deltas <file>".into());
    }
    if deltas.is_some() && protocol != "replay" {
        return Err("--deltas only applies to --protocol replay".into());
    }
    if horizon == 0 {
        return Err("--horizon must be at least 1".into());
    }
    Ok(Args {
        input,
        epsilon,
        protocol,
        n,
        seed,
        threads,
        lcc,
        deltas,
        horizon,
        composition,
    })
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
            let cfg = CargoConfig::new(args.epsilon)
                .with_seed(args.seed)
                .with_threads(args.threads);
            let out = CargoSystem::new(cfg).run(&graph);
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
            let cfg = CargoConfig::new(args.epsilon)
                .with_seed(args.seed)
                .with_threads(args.threads)
                .with_horizon(args.horizon)
                .with_composition(args.composition);
            let mut session = Session::new(graph, &cfg);
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
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
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
        assert!(parse(&["--input", "g", "--epsilon", "-1"]).is_err());
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
                epsilon: 2.0,
                protocol: proto.into(),
                n: None,
                seed: 1,
                threads: 2,
                lcc: true,
                deltas: None,
                horizon: 16,
                composition: Composition::Fixed,
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
            epsilon: 2.0,
            protocol: "replay".into(),
            n: None,
            seed: 1,
            threads: 1,
            lcc: false,
            deltas: Some(deltas_path.clone()),
            horizon: 2,
            composition: Composition::BinaryTree,
        };
        run(&args).unwrap();
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&deltas_path).ok();
    }
}
