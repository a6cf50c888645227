//! The gate binary. See `README.md` in this directory.
//!
//! ```text
//! bench --workload <name> [--seed N] [--seconds S] [--trace 0] [--out DIR]
//! bench all      [--seed N] [--seconds S] [--out DIR]    every workload, every metric
//! bench aa       [--runs 5] [--seed N] [--seconds S]     A/A self-check, exits 1 on disagreement
//! bench gen      --workload <name> --seed N --out DIR    write one workload's inputs
//! bench manifest                                         print BENCHMARK.json
//! ```

use cargo_benchmark::cli::{parse_flags, Flags};
use cargo_benchmark::{host, inputs, metrics, report, runner, selfcheck};
use std::process::ExitCode;

fn run(flags: &Flags) -> Result<bool, String> {
    if flags.trace {
        return Err("--trace 1 is the `trace` binary's job (run.sh picks it)".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let args = flags.run_args(exe)?;
    let (cpu, outcome) = runner::measure(&args)?;
    report::print_and_record("bench", &args.out, &host::metadata(cpu), &outcome)?;
    Ok(true)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let exe = || std::env::current_exe().map_err(|e| format!("current_exe: {e}"));
    match args.first().map(String::as_str) {
        Some("gen") => {
            let flags = parse_flags(&args[1..])?;
            let workload = flags.workload.ok_or("gen: --workload is required")?;
            inputs::generate_into_cache(workload, flags.seed, &flags.out).map(|()| true)
        }
        Some("all") => selfcheck::all(&exe()?, &parse_flags(&args[1..])?),
        Some("aa") => selfcheck::aa(&exe()?, &parse_flags(&args[1..])?),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => run(&parse_flags(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
