//! The experiment driver: regenerates every table and figure of the
//! CARGO paper's evaluation. See `cargo-bench`'s crate docs or run with
//! no arguments for usage.

use cargo_bench::experiments;
use cargo_bench::Options;

fn usage() -> String {
    format!(
        "usage: experiments [flags] <cmd> [<cmd> ...]\n\
         commands: {} | all | sparse\n\
         flags: --n <users=2000> --trials <t=5> --seed <s=0>\n\
         \x20      --out-dir <dir=results> --data-dir <snap-dir>\n\
         \x20      --threads <w=0 (all cores)> --batch <b=0 (default 64)>\n\
         \x20      --offline-mode <dealer|ot (default dealer)>\n\
         \x20      --kernel <scalar|bitsliced (default bitsliced)>\n\
         \x20      --transport <memory|tcp (default memory)>\n\
         \x20      --recv-timeout <seconds=120 (tcp only)>\n\
         \x20      --factory-threads <f=0 (inline)> --pool-depth <d=0 (default 4)>\n\
         \x20      --pool-backpressure <block|fail-fast (default block)>\n\
         \x20      --schedule <dense|sparse|sparse-stream (default dense)> --quick",
        experiments::ALL.join(" | ")
    )
}

fn main() {
    let args = cargo_bench::cli::argv_or_help(&usage());
    let (opts, cmds) = match Options::parse(&args) {
        Ok(x) => x,
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
