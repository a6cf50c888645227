//! Command-line flags shared by the `bench` and `trace` binaries.

use crate::metrics::RUN_SECONDS;
use crate::runner::RunArgs;
use crate::workload::Workload;
use std::path::PathBuf;

/// The flags of every sub-command, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flags {
    /// `--workload <name>`.
    pub workload: Option<Workload>,
    /// `--seed <n>` (default 1).
    pub seed: u64,
    /// `--seconds <n>` (default: `run_seconds` of `BENCHMARK.json`).
    pub seconds: u64,
    /// `--trace <0|1>` (default 0): which binary the run belongs to.
    pub trace: bool,
    /// `--out <dir>` (default `benchmark/out`, relative to the root of
    /// the checkout the benchmark is run from).
    pub out: PathBuf,
    /// `--runs <n>` (default 5): pairs of runs of `bench aa`.
    pub runs: usize,
}

/// Parses `--flag value` pairs. Every flag takes a value; an unknown
/// flag, a missing or malformed value, or a stray word is an error.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let workload = Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?;
                flags.workload = Some(workload);
            }
            "--seed" => flags.seed = number()?,
            "--seconds" => {
                flags.seconds = number()?;
                if !(1..=60).contains(&flags.seconds) {
                    return Err(format!("--seconds {value} is outside 1..=60"));
                }
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => flags.out = PathBuf::from(value),
            "--runs" => {
                flags.runs = number()? as usize;
                if flags.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

impl Flags {
    /// The arguments of one measured run; `--workload` is required.
    pub fn run_args(&self, gen_exe: PathBuf) -> Result<RunArgs, String> {
        Ok(RunArgs {
            workload: self.workload.ok_or("--workload is required")?,
            seed: self.seed,
            seconds: self.seconds,
            out: self.out.clone(),
            gen_exe,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Flags, String> {
        parse_flags(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let flags = parse(&[
            "--workload",
            "serve-tcp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(flags.workload, Some(Workload::ServeTcp));
        assert_eq!((flags.seed, flags.seconds, flags.trace), (7, 10, true));
        assert_eq!(flags.out, PathBuf::from("benchmark/out"));
    }

    #[test]
    fn defaults_are_seed_one_and_the_manifest_run_length() {
        let flags = parse(&[]).unwrap();
        assert_eq!(
            (flags.seed, flags.seconds, flags.trace, flags.runs),
            (1, RUN_SECONDS, false, 5)
        );
        assert!(
            flags.run_args(PathBuf::new()).is_err(),
            "a run needs a workload"
        );
    }

    #[test]
    fn bad_input_is_an_error_not_a_default() {
        for bad in [
            &["--workload", "dense"][..],
            &["--seed", "-1"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--runs", "0"],
            &["--frobnicate", "1"],
            &["stray"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
