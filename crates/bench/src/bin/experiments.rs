//! The experiment driver: regenerates every table and figure of the
//! CARGO paper's evaluation. See `cargo-bench`'s crate docs or run with
//! no arguments for usage.

use cargo_bench::experiments;
use cargo_bench::Options;

fn usage() -> String {
    Options::usage(&format!(
        "usage: experiments [flags] <cmd> [<cmd> ...]\n\
         commands: {} | all | sparse",
        experiments::ALL.join(" | ")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (opts, cmds) = match Options::parse(&argv) {
        Ok(Some(x)) => x,
        Ok(None) => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if cmds.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    let expanded: Vec<&str> = if cmds.iter().any(|c| c == "all") {
        experiments::ALL.to_vec()
    } else {
        cmds.iter().map(String::as_str).collect()
    };
    println!(
        "# CARGO reproduction experiments (n={}, trials={}, seed={}, out={})",
        opts.n,
        opts.trials,
        opts.seed,
        opts.out_dir.display()
    );
    for cmd in expanded {
        let start = std::time::Instant::now();
        match experiments::run(cmd, &opts) {
            Ok(tables) => {
                eprintln!(
                    "[{cmd}] done in {:.1}s ({} tables, CSVs in {})",
                    start.elapsed().as_secs_f64(),
                    tables.len(),
                    opts.out_dir.display()
                );
            }
            Err(e) => {
                eprintln!("error: {e}\n{}", usage());
                std::process::exit(2);
            }
        }
    }
}
