//! Configuration of a CARGO run, and the one table that maps each
//! command-line flag to the [`CargoConfig`] field it sets.
//!
//! Both servers of a run must agree on its public parameters, so every
//! binary takes them through the same [`ConfigFlag`] rows. A binary
//! lists the config flags it takes beside its own [`Flag`]s;
//! [`parse_argv`] walks an argv over both and [`usage`] prints them.

use crate::count_sched::{DEFAULT_COUNT_BATCH, MAX_COUNT_BATCH};
use cargo_dp::{Composition, EpsilonSplit, PrivacyBudget};
use cargo_mpc::OfflineMode;
use std::fmt::{Display, Write as _};
use std::str::FromStr;
use std::time::Duration;

/// What [`CargoConfig::pool_policy`] returns: nothing. Pinned by the
/// benchmark trace, which passes it to [`crate::run_party_count_planned`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolPolicy;

/// Selects which triples the Count phase schedules.
///
/// The dense cube is the paper's fully-oblivious `O(n³)` walk; the
/// sparse schedule evaluates only the triples a **public** candidate
/// structure (the degree-ordered wedge closure of the projected
/// support) admits. Shares of every surviving triple are
/// **bit-identical** across the two schedules (pinned by
/// `crates/core/tests/sparse_equivalence.rs`): MG material and input
/// shares are keyed per `(i, j, k)` triple, so the schedule changes
/// only *which* triples are touched, never their values. See
/// PROTOCOL.md § "Sparse Count schedule" for the leakage analysis.
///
/// ```
/// use cargo_core::ScheduleKind;
/// assert_eq!("dense".parse::<ScheduleKind>(), Ok(ScheduleKind::Dense));
/// assert_eq!("sparse".parse::<ScheduleKind>(), Ok(ScheduleKind::Sparse));
/// assert_eq!(
///     "sparse-stream".parse::<ScheduleKind>(),
///     Ok(ScheduleKind::SparseStream)
/// );
/// assert_eq!(ScheduleKind::default(), ScheduleKind::Dense);
/// assert_eq!(ScheduleKind::Sparse.to_string(), "sparse");
/// assert_eq!(ScheduleKind::SparseStream.to_string(), "sparse-stream");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleKind {
    /// The default: every ordered triple `i < j < k` of the full cube —
    /// fully oblivious, cost independent of the input graph.
    #[default]
    Dense,
    /// Candidate-driven: only the `(i, j, k)` triples admitted by the
    /// public candidate structure built from the projected support.
    /// Reveals the candidate set's shape (already public in the
    /// local-projection deployment), in exchange for triple counts
    /// proportional to the graph's wedge mass instead of `n³`.
    Sparse,
    /// The same triples as [`ScheduleKind::Sparse`] — same chunks, same
    /// shares, bit for bit — but streamed from the CSR adjacency (plus
    /// a 4-byte-per-edge index) instead of materialising every
    /// candidate pair and `k`-list up front: peak memory O(n + m +
    /// chunk) instead of O(#candidates), which is what makes
    /// million-node graphs fit. Evaluated by the same round kernel as
    /// every other schedule.
    SparseStream,
}

impl std::str::FromStr for ScheduleKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "dense" | "cube" => Ok(ScheduleKind::Dense),
            "sparse" => Ok(ScheduleKind::Sparse),
            "sparse-stream" | "stream" => Ok(ScheduleKind::SparseStream),
            other => Err(format!(
                "unknown schedule {other:?} (expected \"dense\", \"sparse\", or \"sparse-stream\")"
            )),
        }
    }
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScheduleKind::Dense => "dense",
            ScheduleKind::Sparse => "sparse",
            ScheduleKind::SparseStream => "sparse-stream",
        })
    }
}

/// Tunable parameters of the CARGO pipeline (defaults follow the
/// paper's experimental setting, Section V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CargoConfig {
    /// Total privacy budget `ε = ε₁ + ε₂`.
    pub epsilon: f64,
    /// Fraction of ε spent on the `Max` round (`ε₁ = fraction · ε`);
    /// the paper uses 0.1.
    pub split_fraction: f64,
    /// Fixed-point fractional bits for encoding noise in the ring.
    pub frac_bits: u32,
    /// Root seed for every random choice (dealer streams, user shares,
    /// noise) — fixed seed ⇒ bit-identical run.
    pub seed: u64,
    /// Worker threads for the `O(n³)` secure count (0 = all cores).
    /// Governs the chunk loop of both Count drivers, in process and on
    /// the wire.
    pub threads: usize,
    /// Pairs per Count communication round
    /// (0 = [`crate::count_sched::DEFAULT_COUNT_BATCH`]). A Count opens
    /// the `P` pairs its plan reads in `⌈P/batch⌉` rounds. Shares are
    /// identical for every batch size; only rounds and wall-clock
    /// change.
    pub batch: usize,
    /// Whether to run the similarity-based projection (disable only for
    /// ablation studies; without projection the sensitivity is `n`).
    pub projection: bool,
    /// How the Count phase's correlated randomness is precomputed:
    /// the seeded trusted dealer (default, zero offline cost) or the
    /// OT-extension offline phase (real preprocessing traffic,
    /// reported in [`cargo_mpc::NetStats::offline`]). Shares are
    /// bit-identical either way.
    pub offline: OfflineMode,
    /// Which triples the Count phase schedules: the fully-oblivious
    /// dense cube (default) or the candidate-driven sparse walk over
    /// the public support. Shares of surviving triples are
    /// bit-identical either way.
    pub schedule: ScheduleKind,
    /// Continuous-release horizon: how many delta epochs `--mode
    /// serve` budgets for. Ignored by the one-shot pipeline.
    pub horizon: u64,
    /// How per-epoch releases compose against ε in serve mode: an even
    /// fixed split or the binary-tree mechanism. Ignored by the
    /// one-shot pipeline.
    pub composition: Composition,
    /// How long a wire recv blocks on a silent peer before the epoch
    /// fails typed ([`cargo_mpc::RecvError::Timeout`]). Defaults to
    /// [`cargo_mpc::DEFAULT_RECV_TIMEOUT`]; threaded into every
    /// runtime recv path through [`cargo_mpc::Transport::recv_timeout`].
    pub recv_timeout: std::time::Duration,
}

impl CargoConfig {
    /// Creates a config with the paper's defaults and the given total ε.
    pub fn new(epsilon: f64) -> Self {
        CargoConfig {
            epsilon,
            split_fraction: 0.1,
            frac_bits: 16,
            seed: 0,
            threads: 0,
            batch: 0,
            projection: true,
            offline: OfflineMode::TrustedDealer,
            schedule: ScheduleKind::Dense,
            horizon: 16,
            composition: Composition::Fixed,
            recv_timeout: cargo_mpc::DEFAULT_RECV_TIMEOUT,
        }
    }

    /// Sets the continuous-release horizon (serve mode).
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// assert_eq!(CargoConfig::new(2.0).with_horizon(8).horizon, 8);
    /// ```
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the secure-count worker-thread count (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the offline-phase implementation.
    ///
    /// ```
    /// use cargo_core::CargoConfig;
    /// use cargo_mpc::OfflineMode;
    /// let cfg = CargoConfig::new(2.0).with_offline(OfflineMode::OtExtension);
    /// assert_eq!(cfg.offline, OfflineMode::OtExtension);
    /// ```
    pub fn with_offline(mut self, offline: OfflineMode) -> Self {
        self.offline = offline;
        self
    }

    /// Selects the Count schedule.
    ///
    /// ```
    /// use cargo_core::{CargoConfig, ScheduleKind};
    /// let cfg = CargoConfig::new(2.0).with_schedule(ScheduleKind::Sparse);
    /// assert_eq!(cfg.schedule, ScheduleKind::Sparse);
    /// ```
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// Pinned by `benchmark/src/bin/trace/pipeline.rs`, which passes
    /// the result to [`crate::run_party_count_planned`]; a placeholder.
    #[doc(hidden)]
    pub fn pool_policy(&self) -> PoolPolicy {
        PoolPolicy
    }

    /// The validated budget split `(ε₁, ε₂)`.
    pub fn epsilon_split(&self) -> EpsilonSplit {
        PrivacyBudget::new(self.epsilon).split(self.split_fraction)
    }

    /// Effective thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Effective Count batch size.
    pub fn effective_batch(&self) -> usize {
        if self.batch == 0 {
            crate::count_sched::DEFAULT_COUNT_BATCH
        } else {
            self.batch
        }
    }
}

/// A flag a binary declares beside its [`ConfigFlag`]s, as its usage
/// line: `--name <placeholder>  help`, or `--name  help` for a switch,
/// which takes no value. A default goes in the placeholder. Its values
/// are handed to the binary ([`Argv::own`]).
pub type Flag = &'static str;

/// Declares [`ConfigFlag`], its `ALL` list and its name, placeholder
/// and help rows, each flag once.
macro_rules! config_flags {
    ($($flag:ident => $name:literal, $value:literal, $help:literal;)*) => {
        /// The [`CargoConfig`] fields a command line sets: the public
        /// parameters both servers of a run must agree on. Each flag's
        /// name, placeholder and help ([`ConfigFlag::spec`]), parser and
        /// validator ([`ConfigFlag::apply`]) and printed setting
        /// ([`ConfigFlag::show`]) are declared once, here; a binary lists
        /// the flags it takes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum ConfigFlag {
            $(#[doc = concat!("`", $name, "`: ", $help, ".")] $flag,)*
        }

        impl ConfigFlag {
            /// Every config flag, in usage order.
            pub const ALL: [ConfigFlag; [$($name),*].len()] = [$(ConfigFlag::$flag),*];

            /// The flag's name, value placeholder (empty for a switch) and
            /// help line.
            pub fn spec(self) -> (&'static str, &'static str, &'static str) {
                match self {
                    $(ConfigFlag::$flag => ($name, $value, $help),)*
                }
            }
        }
    };
}

config_flags! {
    Epsilon => "--epsilon", "e", "total privacy budget ε = ε₁ + ε₂";
    Seed => "--seed", "s", "root seed of every random choice (fixed seed, same run)";
    Threads => "--threads", "w", "Count worker threads";
    Batch => "--batch", "b", "pairs per Count round (the shares never change)";
    OfflineMode => "--offline-mode", "dealer|ot", "Count preprocessing: trusted dealer or OT";
    Schedule => "--schedule", "dense|sparse|sparse-stream", "the triples the Count walks";
    NoProjection => "--no-projection", "", "skip the projection (the sensitivity becomes n)";
    Horizon => "--horizon", "epochs", "continuous release: delta epochs the budget covers";
    Composition => "--composition", "fixed|tree", "continuous release: how epochs compose";
    RecvTimeout => "--recv-timeout", "seconds", "how long a recv waits on a silent peer";
}

impl ConfigFlag {
    /// Parses and validates `value` into the field this flag sets; the
    /// error names the flag.
    pub fn apply(self, cfg: &mut CargoConfig, value: &str) -> Result<(), String> {
        use ConfigFlag::*;
        let flag = self.spec().0;
        match self {
            Epsilon => {
                cfg.epsilon = parse_value(flag, value)?;
                if !(cfg.epsilon > 0.0 && cfg.epsilon.is_finite()) {
                    return Err(format!("{flag} must be finite and > 0"));
                }
            }
            Seed => cfg.seed = parse_value(flag, value)?,
            Threads => cfg.threads = parse_value(flag, value)?,
            Batch => {
                cfg.batch = parse_value(flag, value)?;
                if cfg.batch > MAX_COUNT_BATCH {
                    return Err(format!("{flag}: at most {MAX_COUNT_BATCH} pairs per round"));
                }
            }
            OfflineMode => cfg.offline = parse_value(flag, value)?,
            Schedule => cfg.schedule = parse_value(flag, value)?,
            NoProjection => cfg.projection = false,
            Horizon => cfg.horizon = parse_value(flag, value)?,
            Composition => cfg.composition = parse_value(flag, value)?,
            RecvTimeout => {
                let secs: f64 = parse_value(flag, value)?;
                cfg.recv_timeout = Duration::try_from_secs_f64(secs)
                    .ok()
                    .filter(|_| secs > 0.0)
                    .ok_or_else(|| {
                        format!("{flag}: must be a positive number of seconds < 2^64")
                    })?;
            }
        }
        Ok(())
    }

    /// The flag's setting in `cfg`: usage prints it as the default, a
    /// banner as the run's value.
    pub fn show(self, cfg: &CargoConfig) -> String {
        use ConfigFlag::*;
        let zero_means = |n: usize, meaning: &str| match n {
            0 => format!("0 ({meaning})"),
            n => n.to_string(),
        };
        match self {
            Epsilon => cfg.epsilon.to_string(),
            Seed => cfg.seed.to_string(),
            Threads => zero_means(cfg.threads, "all cores"),
            Batch => zero_means(cfg.batch, &format!("default {DEFAULT_COUNT_BATCH}")),
            OfflineMode => cfg.offline.to_string(),
            Schedule => cfg.schedule.to_string(),
            NoProjection => (!cfg.projection).to_string(),
            Horizon => cfg.horizon.to_string(),
            Composition => cfg.composition.to_string(),
            RecvTimeout => cfg.recv_timeout.as_secs_f64().to_string(),
        }
    }
}

/// Parses a flag's value as a `V`; the error names the flag.
pub fn parse_value<V: FromStr>(flag: &str, value: &str) -> Result<V, String>
where
    V::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// An argv as [`parse_argv`] walked it.
#[derive(Debug, Default, PartialEq)]
pub struct Argv {
    /// The binary's own flags given, in order, with their values
    /// (empty for a switch).
    pub own: Vec<(String, String)>,
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
}

/// Why [`parse_argv`] refused an argv.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgvError {
    /// A flag the binary does not take.
    Unknown(String),
    /// A flag without its value, or a value the flag refuses; the
    /// message names the flag.
    Refused(String),
}

impl Display for ArgvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgvError::Unknown(flag) => write!(f, "unknown flag {flag}"),
            ArgvError::Refused(message) => f.write_str(message),
        }
    }
}

/// Walks `argv`: applies the `config` flags to `cfg` and hands back
/// the binary's `own` flags and the positional arguments. `Ok(None)`
/// means `--help` or `-h` was given: it wins anywhere on the line,
/// beside invalid flags too.
pub fn parse_argv(
    argv: &[String],
    own: &[Flag],
    config: &[ConfigFlag],
    cfg: &mut CargoConfig,
) -> Result<Option<Argv>, ArgvError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let mut walked = Argv::default();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        let config_flag = config.iter().find(|c| c.spec().0 == arg);
        let own_flag = own
            .iter()
            .find(|f| f.split(' ').next() == Some(arg.as_str()));
        let takes_value = match (config_flag, own_flag) {
            (Some(c), _) => !c.spec().1.is_empty(),
            (None, Some(flag)) => flag[arg.len()..].starts_with(" <"),
            (None, None) if arg.starts_with('-') => return Err(ArgvError::Unknown(arg.clone())),
            (None, None) => {
                walked.positional.push(arg.clone());
                continue;
            }
        };
        let value = if takes_value {
            let missing = || ArgvError::Refused(format!("flag {arg} needs a value"));
            rest.next().ok_or_else(missing)?.clone()
        } else {
            String::new()
        };
        match config_flag {
            Some(c) => c.apply(cfg, &value).map_err(ArgvError::Refused)?,
            None => walked.own.push((arg.clone(), value)),
        }
    }
    Ok(Some(walked))
}

/// A binary's usage text: `head`, then a line per flag — its own, then
/// its `config` flags with their defaults as `base` sets them.
pub fn usage(head: &str, own: &[Flag], config: &[ConfigFlag], base: &CargoConfig) -> String {
    let config_rows = config.iter().map(|c| match c.spec() {
        (name, "", help) => (name.to_string(), help),
        (name, value, help) => (format!("{name} <{value}={}>", c.show(base)), help),
    });
    let own_rows = own.iter().map(|f| {
        let (spec, help) = f.split_once("  ").unwrap_or((f, ""));
        (spec.to_string(), help.trim_start())
    });
    let rows: Vec<_> = own_rows.chain(config_rows).collect();
    let width = rows
        .iter()
        .map(|(spec, _)| spec.chars().count())
        .max()
        .unwrap_or(0);
    let mut text = format!("{head}\n\nflags:");
    for (spec, help) in rows {
        write!(text, "\n  {spec:width$}  {help}").expect("writing to a String");
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CargoConfig::new(2.0);
        let s = c.epsilon_split();
        assert!((s.epsilon1 - 0.2).abs() < 1e-12);
        assert!((s.epsilon2 - 1.8).abs() < 1e-12);
        assert!(c.projection);
        assert_eq!(c.frac_bits, 16);
    }

    #[test]
    fn builder_methods_compose() {
        let c = CargoConfig {
            split_fraction: 0.5,
            batch: 16,
            projection: false,
            ..CargoConfig::new(1.0)
        }
        .with_seed(9)
        .with_threads(2)
        .with_offline(OfflineMode::OtExtension);
        assert_eq!(c.seed, 9);
        assert_eq!(c.threads, 2);
        assert_eq!(c.batch, 16);
        assert_eq!(c.offline, OfflineMode::OtExtension);
        assert!(!c.projection);
        assert!((c.epsilon_split().epsilon1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn offline_defaults_to_the_trusted_dealer() {
        assert_eq!(CargoConfig::new(1.0).offline, OfflineMode::TrustedDealer);
    }

    #[test]
    fn effective_threads_is_positive() {
        assert!(CargoConfig::new(1.0).effective_threads() >= 1);
        assert_eq!(CargoConfig::new(1.0).with_threads(3).effective_threads(), 3);
    }

    #[test]
    fn effective_batch_resolves_default() {
        assert_eq!(
            CargoConfig::new(1.0).effective_batch(),
            crate::count_sched::DEFAULT_COUNT_BATCH
        );
        let seven = CargoConfig {
            batch: 7,
            ..CargoConfig::new(1.0)
        };
        assert_eq!(seven.effective_batch(), 7);
    }

    #[test]
    fn schedule_defaults_to_dense_and_parses() {
        assert_eq!(CargoConfig::new(1.0).schedule, ScheduleKind::Dense);
        assert_eq!(
            CargoConfig::new(1.0)
                .with_schedule(ScheduleKind::Sparse)
                .schedule,
            ScheduleKind::Sparse
        );
        assert_eq!("cube".parse::<ScheduleKind>(), Ok(ScheduleKind::Dense));
        assert_eq!(
            "stream".parse::<ScheduleKind>(),
            Ok(ScheduleKind::SparseStream)
        );
        assert!("hexagonal".parse::<ScheduleKind>().is_err());
        assert_eq!(ScheduleKind::Dense.to_string(), "dense");
    }

    fn strings(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|s| s.to_string()).collect()
    }

    /// Walks `argv` with every config flag and one own flag and switch.
    fn walk(argv: &[&str]) -> Result<Option<(Argv, CargoConfig)>, ArgvError> {
        let own = ["--n <users=200>  users", "--quick  smoke run"];
        let mut cfg = CargoConfig::new(2.0);
        let walked = parse_argv(&strings(argv), &own, &ConfigFlag::ALL, &mut cfg)?;
        Ok(walked.map(|walked| (walked, cfg)))
    }

    fn apply(argv: &[&str]) -> Result<CargoConfig, String> {
        let walked = walk(argv).map_err(|e| e.to_string())?;
        Ok(walked.expect("no --help in the argv").1)
    }

    #[test]
    fn every_config_flag_parses_validates_and_shows() {
        let base = CargoConfig::new(2.0);
        // Each accepted value, and what it sets on the base config.
        type Sets = fn(&mut CargoConfig);
        let accepted: [(&[&str], Sets); 11] = [
            (&["--epsilon", "0.5"], |c| c.epsilon = 0.5),
            (&["--seed", "9"], |c| c.seed = 9),
            (&["--threads", "4"], |c| c.threads = 4),
            (&["--batch", "16"], |c| c.batch = 16),
            // 2¹⁶ is the most the scheduler takes; it would clamp more.
            (&["--batch", "65536"], |c| c.batch = 1 << 16),
            (&["--offline-mode", "ot"], |c| {
                c.offline = OfflineMode::OtExtension
            }),
            (&["--schedule", "sparse"], |c| {
                c.schedule = ScheduleKind::Sparse
            }),
            (&["--no-projection"], |c| c.projection = false),
            (&["--horizon", "8"], |c| c.horizon = 8),
            (&["--composition", "tree"], |c| {
                c.composition = Composition::BinaryTree
            }),
            (&["--recv-timeout", "2.5"], |c| {
                c.recv_timeout = Duration::from_millis(2500)
            }),
        ];
        for (argv, set) in &accepted {
            let mut want = base;
            set(&mut want);
            assert_eq!(apply(argv), Ok(want), "{argv:?}");
        }
        // Every row is exercised, and no two rows share a name.
        for flag in ConfigFlag::ALL {
            let name = flag.spec().0;
            assert!(accepted.iter().any(|(argv, _)| argv[0] == name), "{name}");
            assert_eq!(
                ConfigFlag::ALL
                    .iter()
                    .filter(|c| c.spec().0 == name)
                    .count(),
                1
            );
        }
        // Refused values name the flag; none panics.
        for (argv, refusal) in [
            (["--epsilon", "nan"], "--epsilon must be finite and > 0"),
            (["--epsilon", "0"], "--epsilon must be finite and > 0"),
            (["--epsilon", "wat"], "--epsilon: "),
            (["--seed", "-1"], "--seed: "),
            (["--threads", "many"], "--threads: "),
            (
                ["--batch", "65537"],
                "--batch: at most 65536 pairs per round",
            ),
            (["--offline-mode", "wat"], "--offline-mode: "),
            (["--schedule", "wat"], "--schedule: "),
            (["--horizon", "forever"], "--horizon: "),
            (["--composition", "wat"], "--composition: "),
            (
                ["--recv-timeout", "0"],
                "--recv-timeout: must be a positive number",
            ),
            (["--recv-timeout", "wat"], "--recv-timeout: "),
            // Beyond `Duration`'s range: refused, not a panic.
            (
                ["--recv-timeout", "1e20"],
                "--recv-timeout: must be a positive number",
            ),
            // Retired knobs are no flags at all: the triple pool's, and
            // the in-process Count's TCP fork.
            (["--transport", "tcp"], "unknown flag --transport"),
            (["--factory-threads", "2"], "unknown flag --factory-threads"),
            (["--pool-depth", "2"], "unknown flag --pool-depth"),
            (["--pool-backpressure", "block"], "unknown flag --pool-backpressure"),
        ] {
            let message = apply(&argv).expect_err(argv[1]);
            assert!(message.starts_with(refusal), "{argv:?}: {message}");
        }
        assert_eq!(base.recv_timeout, cargo_mpc::DEFAULT_RECV_TIMEOUT);
    }

    #[test]
    fn the_walker_takes_help_anywhere_and_names_what_it_refuses() {
        assert_eq!(walk(&["--help"]), Ok(None));
        assert_eq!(walk(&["--wat", "-h"]), Ok(None));
        assert_eq!(walk(&["--batch", "-h"]), Ok(None));
        assert_eq!(walk(&["--wat"]), Err(ArgvError::Unknown("--wat".into())));
        assert_eq!(
            walk(&["--wat"]).unwrap_err().to_string(),
            "unknown flag --wat"
        );
        for flag in ["--seed", "--n"] {
            let refusal = ArgvError::Refused(format!("flag {flag} needs a value"));
            assert_eq!(walk(&[flag]), Err(refusal));
        }
        let argv = [
            "t2",
            "--no-projection",
            "--n",
            "60",
            "--quick",
            "--seed",
            "3",
            "f5",
        ];
        let (walked, cfg) = walk(&argv).unwrap().unwrap();
        let own = [
            ("--n".to_string(), "60".to_string()),
            ("--quick".into(), String::new()),
        ];
        assert_eq!(walked.own, own);
        assert_eq!(walked.positional, ["t2", "f5"]);
        assert_eq!((cfg.projection, cfg.seed), (false, 3));
        // A later value wins, as in every shell tool.
        assert_eq!(apply(&["--seed", "1", "--seed", "2"]).unwrap().seed, 2);
    }

    #[test]
    fn usage_prints_the_base_settings() {
        let own = ["--n <users=200>  number of users", "--quick  smoke run"];
        let base = CargoConfig::new(2.0).with_threads(1);
        let text = usage("usage: probe [flags]", &own, &ConfigFlag::ALL, &base);
        assert!(
            text.starts_with("usage: probe [flags]\n\nflags:\n"),
            "{text}"
        );
        for spec in [
            "--n <users=200> ",
            "--quick ",
            "--epsilon <e=2> ",
            "--threads <w=1> ",
            "--batch <b=0 (default 1024)> ",
            "--no-projection ",
            "--recv-timeout <seconds=120> ",
            "--schedule <dense|sparse|sparse-stream=dense> ",
        ] {
            assert!(text.contains(spec), "{spec:?} in {text}");
        }
        let run = apply(&["--batch", "16", "--no-projection"]).unwrap();
        let shown = ConfigFlag::ALL.map(|c| c.show(&run));
        assert_eq!(shown[1..4], ["0", "0 (all cores)", "16"]);
        assert_eq!(shown[6], "true", "--no-projection given");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn the_walker_never_panics_on_hostile_argv(
            pieces in proptest::collection::vec(
                (
                    (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()),
                    cargo_testutil::text::operator_text(&["dealer", "ot", "tcp", "tree"]),
                ),
                0..8,
            )
        ) {
            // Mostly flag-value pairs, the value often a number at an edge.
            let numbers: Vec<&str> = cargo_testutil::text::EDGE_NUMBERS.split(' ').collect();
            let mut argv = Vec::new();
            for ((flag, value), text) in pieces {
                if flag % 4 != 0 {
                    let flags = ConfigFlag::ALL;
                    argv.push(flags[flag as usize % flags.len()].spec().0.to_string());
                }
                argv.push(match value % 2 {
                    0 => numbers[value as usize / 2 % numbers.len()].to_string(),
                    _ => text,
                });
            }
            let mut cfg = CargoConfig::new(2.0);
            if parse_argv(&argv, &[], &ConfigFlag::ALL, &mut cfg).is_ok() {
                usage("usage: probe", &[], &ConfigFlag::ALL, &cfg);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_epsilon_rejected_at_split() {
        CargoConfig::new(-1.0).epsilon_split();
    }
}
