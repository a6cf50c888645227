//! The `experiments` binary's flags: its own, over the config of the
//! runs (`cargo_core::config` declares the config flags).

use cargo_core::config::{self, parse_argv, parse_value, ConfigFlag, Flag};
use cargo_core::CargoConfig;
use std::ops::Deref;
use std::path::PathBuf;

/// Parsed command-line options with the paper's defaults: the bench's
/// own, over the config of the runs (read through `Deref`).
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Default number of users (the paper's default is 2000).
    pub n: usize,
    /// Trials to average per data point.
    pub trials: usize,
    /// Directory for CSV outputs.
    pub out_dir: PathBuf,
    /// Optional directory with real SNAP edge lists.
    pub data_dir: Option<PathBuf>,
    /// Quick mode: shrink n and trials for smoke runs.
    pub quick: bool,
    /// What the config flags set: the root seed and the Count's knobs.
    /// [`Options::config`] gives it an experiment's ε.
    pub cfg: CargoConfig,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            n: 2000,
            trials: 5,
            out_dir: PathBuf::from("results"),
            data_dir: None,
            quick: false,
            cfg: CargoConfig::new(2.0),
        }
    }
}

impl Deref for Options {
    type Target = CargoConfig;
    fn deref(&self) -> &CargoConfig {
        &self.cfg
    }
}

/// The seed and the Count's knobs: ε, projection and the serve knobs
/// are each experiment's to set, and an experiment's Count crosses no
/// link that a recv timeout could bound.
fn config_flags() -> Vec<ConfigFlag> {
    use ConfigFlag::{Composition, Epsilon, Horizon, NoProjection, RecvTimeout};
    let mut flags = ConfigFlag::ALL.to_vec();
    flags.retain(|c| ![Epsilon, NoProjection, Horizon, Composition, RecvTimeout].contains(c));
    flags
}

const OWN: [Flag; 5] = [
    "--n <users=2000>  number of users",
    "--trials <t=5>  trials averaged per data point",
    "--out-dir <dir=results>  where the CSVs go",
    "--data-dir <snap-dir>  directory of real SNAP edge lists",
    "--quick  smoke run: at most 500 users and 2 trials",
];

impl Options {
    /// The pipeline configuration of an experiment at budget
    /// `epsilon`: the command line's config with that ε. `0` knobs
    /// (`--threads`, `--batch`) stay `0`: the config resolves them.
    pub fn config(&self, epsilon: f64) -> CargoConfig {
        CargoConfig {
            epsilon,
            ..self.cfg
        }
    }

    /// The usage text: `head`, then every flag with its default.
    pub fn usage(head: &str) -> String {
        config::usage(head, &OWN, &config_flags(), &Options::default().cfg)
    }

    /// Parses the flags, returning the options and the positional
    /// arguments (subcommands); `Ok(None)` means `--help`/`-h` was
    /// given, anywhere on the line.
    pub fn parse(args: &[String]) -> Result<Option<(Options, Vec<String>)>, String> {
        let mut opts = Options::default();
        let walked =
            parse_argv(args, &OWN, &config_flags(), &mut opts.cfg).map_err(|e| e.to_string())?;
        let Some(walked) = walked else {
            return Ok(None);
        };
        for (flag, v) in walked.own {
            match flag.as_str() {
                "--n" => opts.n = parse_value(&flag, &v)?,
                "--trials" => opts.trials = parse_value(&flag, &v)?,
                "--out-dir" => opts.out_dir = PathBuf::from(v),
                "--data-dir" => opts.data_dir = Some(PathBuf::from(v)),
                "--quick" => opts.quick = true,
                other => unreachable!("{other} is not one of the bench's flags"),
            }
        }
        if opts.quick {
            opts.n = opts.n.min(500);
            opts.trials = opts.trials.min(2);
        }
        Ok(Some((opts, walked.positional)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_core::ScheduleKind;
    use cargo_mpc::OfflineMode;

    fn parse(v: &[&str]) -> Result<(Options, Vec<String>), String> {
        let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        Options::parse(&args).map(|parsed| parsed.expect("no --help in the argv"))
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
    fn schedule_parses() {
        let (o, _) = parse(&["--schedule", "sparse", "table2"]).unwrap();
        assert_eq!(o.schedule, ScheduleKind::Sparse);
        let (o, _) = parse(&["table2"]).unwrap();
        assert_eq!(o.schedule, ScheduleKind::Dense, "dense is default");
        assert!(parse(&["--schedule", "wat"]).is_err());
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
        for retired in [["--kernel", "scalar"], ["--transport", "tcp"], ["--recv-timeout", "5"]] {
            let refusal = parse(&[retired[0], retired[1], "table2"]).unwrap_err();
            assert_eq!(refusal, format!("unknown flag {}", retired[0]), "retired knob");
        }
        assert!(parse(&["--n"]).is_err(), "missing value");
    }

    #[test]
    fn takes_the_flags_it_always_took() {
        let own = OWN.map(|f| f.split(' ').next().unwrap());
        let config = config_flags().into_iter().map(|c| c.spec().0);
        let names: Vec<&str> = own.into_iter().chain(config).collect();
        assert_eq!(
            names.join(" "),
            "--n --trials --out-dir --data-dir --quick --seed --threads --batch --offline-mode \
             --schedule"
        );
        let (o, _) = parse(&["--out-dir", "o", "table2"]).unwrap();
        assert_eq!(o.out_dir, PathBuf::from("o"));
        assert_eq!(o.config(1.5), CargoConfig::new(1.5));
        assert_eq!(Options::default().out_dir, PathBuf::from("results"));
    }
}
