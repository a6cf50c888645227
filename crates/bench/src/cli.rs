//! Hand-rolled flag parsing for the `experiments` binary (no external
//! CLI dependency in the approved set), and the `--help` convention
//! every binary of this package shares.

use cargo_core::{CargoConfig, CountKernel, ScheduleKind, TransportKind};
use cargo_mpc::{Backpressure, OfflineMode, DEFAULT_RECV_TIMEOUT};
use std::path::PathBuf;
use std::time::Duration;

/// The process's arguments — unless `--help`/`-h` is among them, in
/// which case `usage` goes to **stdout** and the process exits 0. Help
/// wins over everything else on the line, invalid flags included (the
/// semantics of `dp_triangles` and `party`); usage on *stderr* with
/// exit code 2 is reserved for actual parse errors.
pub fn argv_or_help(usage: &str) -> Vec<String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    argv
}

/// Parsed command-line options with the paper's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Default number of users (the paper's default is 2000).
    pub n: usize,
    /// Trials to average per data point.
    pub trials: usize,
    /// Root seed.
    pub seed: u64,
    /// Directory for CSV outputs.
    pub out_dir: PathBuf,
    /// Optional directory with real SNAP edge lists.
    pub data_dir: Option<PathBuf>,
    /// Secure-count worker threads (0 = all cores).
    pub threads: usize,
    /// Secure-count batch size (0 = default).
    pub batch: usize,
    /// Offline-phase implementation for the secure count
    /// (`--offline-mode dealer|ot`).
    pub offline: OfflineMode,
    /// Count kernel (`--kernel scalar|bitsliced`).
    pub kernel: CountKernel,
    /// Count wire (`--transport memory|tcp`): in-process memory
    /// (default) or the message-passing runtime over real loopback
    /// sockets. Results are bit-identical; TCP measures the ledger.
    pub transport: TransportKind,
    /// Background triple-factory threads (`--factory-threads`;
    /// 0 = preprocessing stays inline on the query path). Only takes
    /// effect together with `--offline-mode ot`.
    pub factory_threads: usize,
    /// Triple-pool depth in chunks (`--pool-depth`; 0 = default).
    pub pool_depth: usize,
    /// Pool backpressure (`--pool-backpressure block|fail-fast`).
    pub pool_backpressure: Backpressure,
    /// Count schedule (`--schedule dense|sparse|sparse-stream`): the
    /// fully-oblivious cube (default) or the candidate-driven sparse
    /// walk (eager or streamed) that makes large power-law graphs
    /// tractable.
    pub schedule: ScheduleKind,
    /// Wire recv timeout in seconds (`--recv-timeout`): how long a
    /// TCP count waits on a silent peer before failing typed instead
    /// of hanging. Only meaningful with `--transport tcp`.
    pub recv_timeout: Duration,
    /// Quick mode: shrink n and trials for smoke runs.
    pub quick: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            n: 2000,
            trials: 5,
            seed: 0,
            out_dir: PathBuf::from("results"),
            data_dir: None,
            threads: 0,
            batch: 0,
            offline: OfflineMode::TrustedDealer,
            kernel: CountKernel::Bitsliced,
            transport: TransportKind::Memory,
            factory_threads: 0,
            pool_depth: 0,
            pool_backpressure: Backpressure::Block,
            schedule: ScheduleKind::Dense,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            quick: false,
        }
    }
}

impl Options {
    /// The pipeline configuration these options describe at budget
    /// `epsilon` — the one place a flag becomes a [`CargoConfig`]
    /// field, so a knob cannot reach some experiments and miss others.
    /// `0` knobs (`--threads`, `--batch`, `--pool-depth`) stay `0`: the
    /// config resolves them.
    pub fn config(&self, epsilon: f64) -> CargoConfig {
        CargoConfig::new(epsilon)
            .with_seed(self.seed)
            .with_threads(self.threads)
            .with_batch(self.batch)
            .with_offline(self.offline)
            .with_kernel(self.kernel)
            .with_transport(self.transport)
            .with_factory_threads(self.factory_threads)
            .with_pool_depth(self.pool_depth)
            .with_pool_backpressure(self.pool_backpressure)
            .with_schedule(self.schedule)
            .with_recv_timeout(self.recv_timeout)
    }
}

impl Options {
    /// Parses `--flag value` pairs, returning the options and the
    /// positional arguments (subcommands).
    pub fn parse(args: &[String]) -> Result<(Options, Vec<String>), String> {
        let mut opts = Options::default();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let take_value = |i: &mut usize| -> Result<String, String> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| format!("flag {arg} needs a value"))
            };
            match arg.as_str() {
                "--n" => {
                    opts.n = take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--n: {e}"))?
                }
                "--trials" => {
                    opts.trials = take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?
                }
                "--seed" => {
                    opts.seed = take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--threads" => {
                    opts.threads = take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?
                }
                "--batch" => {
                    opts.batch = take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--batch: {e}"))?
                }
                "--offline-mode" => {
                    opts.offline = take_value(&mut i)?
                        .parse()
                        .map_err(|e: String| format!("--offline-mode: {e}"))?
                }
                "--kernel" => {
                    opts.kernel = take_value(&mut i)?
                        .parse()
                        .map_err(|e: String| format!("--kernel: {e}"))?
                }
                "--transport" => {
                    opts.transport = take_value(&mut i)?
                        .parse()
                        .map_err(|e: String| format!("--transport: {e}"))?
                }
                "--factory-threads" => {
                    opts.factory_threads = take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--factory-threads: {e}"))?
                }
                "--pool-depth" => {
                    opts.pool_depth = take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--pool-depth: {e}"))?
                }
                "--pool-backpressure" => {
                    opts.pool_backpressure = take_value(&mut i)?
                        .parse()
                        .map_err(|e: String| format!("--pool-backpressure: {e}"))?
                }
                "--schedule" => {
                    opts.schedule = take_value(&mut i)?
                        .parse()
                        .map_err(|e: String| format!("--schedule: {e}"))?
                }
                "--recv-timeout" => {
                    let secs: f64 = take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--recv-timeout: {e}"))?;
                    if !(secs > 0.0 && secs.is_finite()) {
                        return Err("--recv-timeout: must be a positive number of seconds".into());
                    }
                    opts.recv_timeout = Duration::from_secs_f64(secs);
                }
                "--out-dir" => opts.out_dir = PathBuf::from(take_value(&mut i)?),
                "--data-dir" => opts.data_dir = Some(PathBuf::from(take_value(&mut i)?)),
                "--quick" => opts.quick = true,
                _ if arg.starts_with("--") => return Err(format!("unknown flag {arg}")),
                _ => positional.push(arg.clone()),
            }
            i += 1;
        }
        if opts.quick {
            opts.n = opts.n.min(500);
            opts.trials = opts.trials.min(2);
        }
        Ok((opts, positional))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_mpc::DEFAULT_POOL_DEPTH;

    fn parse(v: &[&str]) -> Result<(Options, Vec<String>), String> {
        let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        Options::parse(&args)
    }

    #[test]
    fn defaults_match_paper() {
        let (o, pos) = parse(&["fig5"]).unwrap();
        assert_eq!(o.n, 2000);
        assert_eq!(o.trials, 5);
        assert_eq!(pos, vec!["fig5"]);
    }

    #[test]
    fn flags_override() {
        let (o, pos) =
            parse(&["--n", "500", "fig7", "--trials", "3", "--seed", "9"]).unwrap();
        assert_eq!(o.n, 500);
        assert_eq!(o.trials, 3);
        assert_eq!(o.seed, 9);
        assert_eq!(pos, vec!["fig7"]);
    }

    #[test]
    fn count_knobs_parse() {
        let (o, _) = parse(&["--threads", "4", "--batch", "16", "fig11"]).unwrap();
        assert_eq!(o.threads, 4);
        assert_eq!(o.batch, 16);
        let (o, _) = parse(&["fig11"]).unwrap();
        assert_eq!((o.threads, o.batch), (0, 0), "defaults defer to config");
    }

    #[test]
    fn offline_mode_parses() {
        let (o, _) = parse(&["--offline-mode", "ot", "table2"]).unwrap();
        assert_eq!(o.offline, OfflineMode::OtExtension);
        let (o, _) = parse(&["--offline-mode", "dealer", "table2"]).unwrap();
        assert_eq!(o.offline, OfflineMode::TrustedDealer);
        let (o, _) = parse(&["table2"]).unwrap();
        assert_eq!(o.offline, OfflineMode::TrustedDealer, "dealer is default");
        assert!(parse(&["--offline-mode", "wat"]).is_err());
    }

    #[test]
    fn kernel_parses() {
        let (o, _) = parse(&["--kernel", "scalar", "table2"]).unwrap();
        assert_eq!(o.kernel, CountKernel::Scalar);
        let (o, _) = parse(&["--kernel", "bitsliced", "table2"]).unwrap();
        assert_eq!(o.kernel, CountKernel::Bitsliced);
        let (o, _) = parse(&["table2"]).unwrap();
        assert_eq!(o.kernel, CountKernel::Bitsliced, "bitsliced is default");
        assert!(parse(&["--kernel", "wat"]).is_err());
    }

    #[test]
    fn transport_parses() {
        let (o, _) = parse(&["--transport", "tcp", "table2"]).unwrap();
        assert_eq!(o.transport, TransportKind::Tcp);
        let (o, _) = parse(&["table2"]).unwrap();
        assert_eq!(o.transport, TransportKind::Memory, "memory is default");
        assert!(parse(&["--transport", "udp"]).is_err());
    }

    #[test]
    fn pool_knobs_parse() {
        let (o, _) = parse(&[
            "--factory-threads",
            "2",
            "--pool-depth",
            "8",
            "--pool-backpressure",
            "fail-fast",
            "table2",
        ])
        .unwrap();
        assert_eq!(o.factory_threads, 2);
        assert_eq!(o.pool_depth, 8);
        assert_eq!(o.pool_backpressure, Backpressure::FailFast);
        assert_eq!(o.config(2.0).pool_policy().depth, 8);
        let (o, _) = parse(&["table2"]).unwrap();
        assert_eq!(o.factory_threads, 0, "inline by default");
        assert!(!o.config(2.0).pool_policy().enabled());
        assert_eq!(o.config(2.0).pool_policy().depth, DEFAULT_POOL_DEPTH, "0 = default");
        assert!(parse(&["--pool-backpressure", "wat"]).is_err());
    }

    #[test]
    fn schedule_parses() {
        let (o, _) = parse(&["--schedule", "sparse", "table2"]).unwrap();
        assert_eq!(o.schedule, ScheduleKind::Sparse);
        let (o, _) = parse(&["table2"]).unwrap();
        assert_eq!(o.schedule, ScheduleKind::Dense, "dense is default");
        assert!(parse(&["--schedule", "wat"]).is_err());
    }

    #[test]
    fn recv_timeout_parses() {
        let (o, _) = parse(&["--recv-timeout", "2.5", "table2"]).unwrap();
        assert_eq!(o.recv_timeout, Duration::from_millis(2500));
        let (o, _) = parse(&["table2"]).unwrap();
        assert_eq!(o.recv_timeout, DEFAULT_RECV_TIMEOUT, "120 s default");
        assert!(parse(&["--recv-timeout", "0"]).is_err());
        assert!(parse(&["--recv-timeout", "wat"]).is_err());
    }

    #[test]
    fn quick_mode_shrinks() {
        let (o, _) = parse(&["--quick", "all"]).unwrap();
        assert!(o.n <= 500);
        assert!(o.trials <= 2);
    }

    #[test]
    fn data_dir_is_optional_path() {
        let (o, _) = parse(&["--data-dir", "/tmp/snap", "table4"]).unwrap();
        assert_eq!(o.data_dir.unwrap(), PathBuf::from("/tmp/snap"));
    }

    #[test]
    fn unknown_flag_errors() {
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--n"]).is_err(), "missing value");
    }
}
