//! The gate: one workload, measured end to end with tracing off.
//!
//! A run pins itself to one CPU, has its inputs generated by a child
//! process, then alternates set-ups and releases — a number of
//! releases fixed by its arguments — reads its peak RSS, and only then
//! spends time on the reference checks.
//!
//! **Which sample is reported.** The reference box shares its host:
//! its speed moves in steps of +30–40 % that last 4–15 s, so the
//! samples of one run sit on two or three levels and their median
//! reports which level the run mostly met (±20–30 % from run to run,
//! measured). Interference only ever adds time, so a run reports the
//! **fastest** of its many short samples — the one least disturbed —
//! which repeats within 3–7 %. The median and the tail are recorded
//! beside it as facts.

use crate::inputs::{self, Inputs};
use crate::metrics::END_TO_END;
use crate::procfs;
use crate::report::{Metric, Outcome};
use crate::stats::{median, tail};
use crate::sut::{
    self, Cost, DeltaScript, Link, LoadedCsr, LoadedGraph, Offline, PipelineSpec, Release,
    Schedule, ServePair, ServeRun,
};
use crate::workload::Workload;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs and of every random choice of the system.
    pub seed: u64,
    /// Seconds to measure for; fixes the operation count.
    pub seconds: u64,
    /// The benchmark's output directory (inputs cache, journals,
    /// records).
    pub out: PathBuf,
    /// The `bench` executable, for the `gen` child process.
    pub gen_exe: PathBuf,
}

/// Fewest set-ups a run times.
const MIN_SETUPS: usize = 3;
/// A one-shot run sets up afresh before each release until set-ups
/// have taken this share of `--seconds` (a 2 ms set-up precedes every
/// release, a 1 s one only the first three), so the set-up samples
/// are spread over the run like the release samples.
const SETUP_SHARE: f64 = 0.3;

/// The least of `xs` — see the module documentation for why.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `setup` [`MIN_SETUPS`] times and returns the last state with
/// every set-up's duration. The previous state is dropped before the
/// next set-up starts, so two copies of the inputs are never resident.
pub fn repeat_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        let state = setup()?;
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() == MIN_SETUPS {
            return Ok((state, samples));
        }
        drop(state);
    }
}

/// Runs `reps` releases, each on the most recent set-up; sets up
/// afresh before a release while fewer than [`MIN_SETUPS`] set-ups
/// have run or they have taken less than [`SETUP_SHARE`] of `seconds`.
/// Returns the last state, the set-up durations and the releases.
pub fn cycle<S, R>(
    reps: usize,
    seconds: u64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut release: impl FnMut(&S) -> Result<R, String>,
) -> Result<(S, Vec<f64>, Vec<R>), String> {
    let budget = SETUP_SHARE * seconds as f64;
    let (mut setups, mut releases) = (Vec::new(), Vec::with_capacity(reps));
    let mut state = None;
    for _ in 0..reps.max(1) {
        if setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < budget {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(setup()?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        releases.push(release(state.as_ref().expect("set up above"))?);
    }
    Ok((state.expect("at least one repetition"), setups, releases))
}

/// The pipeline knobs of a one-shot workload (`None` for the two that
/// are not `run_party` pipelines).
pub fn pipeline_spec(workload: Workload, seed: u64) -> Option<PipelineSpec> {
    let (link, schedule, offline) = match workload {
        Workload::DenseMem => (Link::Memory, Schedule::Dense, Offline::Dealer),
        Workload::OtMem => (Link::Memory, Schedule::Dense, Offline::OtInline),
        Workload::SparseTcp => (Link::Tcp, Schedule::SparseStream, Offline::Dealer),
        Workload::ServeTcp | Workload::Stream1m => return None,
    };
    Some(PipelineSpec {
        link,
        schedule,
        offline,
        seed,
    })
}

/// What a release must have opened and cost.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// The count the reference implementation opens.
    pub opened: f64,
    /// Its modeled online bytes and rounds, where the reference models
    /// the same execution.
    pub ledger: Option<(u64, u64)>,
}

/// Every check one release must pass; returns the ones it failed.
pub fn check_release(label: &str, release: &Release, reference: &Reference) -> Vec<String> {
    let mut problems = Vec::new();
    let (c, (s1, s2)) = (&release.cost, release.opened);
    if s1 != s2 {
        problems.push(format!(
            "{label}: parties disagree: S1 opened {s1}, S2 opened {s2}"
        ));
    }
    if s1 != reference.opened {
        problems.push(format!(
            "{label}: opened {s1}, reference opens {}",
            reference.opened
        ));
    }
    if c.wire_bytes != c.modeled_bytes {
        problems.push(format!(
            "{label}: measured {} online bytes, modeled {}",
            c.wire_bytes, c.modeled_bytes
        ));
    }
    if let Some((bytes, rounds)) = reference.ledger {
        if (c.modeled_bytes, c.rounds) != (bytes, rounds) {
            problems.push(format!(
                "{label}: ledger {} bytes / {} rounds, reference {bytes} / {rounds}",
                c.modeled_bytes, c.rounds
            ));
        }
    }
    if c.offline_bytes > 0 && c.offline_wire_bytes + sut::ot_setup_bytes() != c.offline_bytes {
        problems.push(format!(
            "{label}: measured {} offline bytes (+ {} simulated base-OT), modeled {}",
            c.offline_wire_bytes,
            sut::ot_setup_bytes(),
            c.offline_bytes
        ));
    }
    problems
}

/// The end-to-end metrics of a run, in `END_TO_END` order.
fn end_to_end(
    setups: &[f64],
    release_s: f64,
    per_release: [f64; 3],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let [wire, link, rounds] = per_release;
    let values = [fastest(setups), release_s, wire, link, rounds, peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| Metric::new(m.name, v, m.unit))
        .collect()
}

fn timing_facts(outcome: &mut Outcome, setups: &[f64], releases: &[f64]) {
    outcome.fact("setup_samples", setups.len());
    outcome.fact("release_samples", releases.len());
    outcome
        .samples
        .push(("setup_s".to_string(), setups.to_vec()));
    outcome
        .samples
        .push(("release_s".to_string(), releases.to_vec()));
    outcome.fact("setup_median_s", median(setups));
    outcome.fact("release_median_s", median(releases));
    outcome.fact(
        "release_max_s",
        releases.iter().copied().fold(0.0, f64::max),
    );
    if let Some((label, value)) = tail(releases) {
        outcome.fact(&format!("release_{label}_s"), value);
    }
}

/// Pins, generates inputs, and measures `args.workload`.
pub fn measure(args: &RunArgs) -> Result<(usize, Outcome), String> {
    let cpu = procfs::pin_to_first_allowed_cpu()?;
    let inputs = inputs::ensure(args.workload, args.seed, &args.out, &args.gen_exe)?;
    let ops = args.workload.ops_for(args.seconds);
    let mut outcome = Outcome::default();
    outcome.fact("workload", args.workload);
    outcome.fact("seed", args.seed);
    outcome.fact("seconds", args.seconds);
    outcome.fact("ops", ops);
    match pipeline_spec(args.workload, args.seed) {
        Some(spec) => measure_pipeline(&spec, &inputs, ops, args.seconds, &mut outcome)?,
        None if args.workload == Workload::Stream1m => {
            measure_streamed(args.seed, &inputs, ops, args.seconds, &mut outcome)?
        }
        None => measure_serve(args, &inputs, ops, &mut outcome)?,
    }
    Ok((cpu, outcome))
}

fn measure_pipeline(
    spec: &PipelineSpec,
    inputs: &Inputs,
    reps: usize,
    seconds: u64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let setup = || {
        let graph = LoadedGraph::read(&inputs.graph)?;
        // "Link up" is part of being ready; each release below makes
        // its own link, because a link's byte counters are cumulative.
        match spec.link {
            Link::Memory => drop(sut::mem_pair()),
            Link::Tcp => drop(sut::tcp_pair()?),
        }
        Ok(graph)
    };
    let (graph, setups, releases) =
        cycle(reps, seconds, setup, |graph| sut::run_pipeline(graph, spec))?;
    let peak_rss_mb = procfs::peak_rss_mb()?;

    let (opened, bytes, rounds) = sut::pipeline_reference(&graph, spec);
    let reference = Reference {
        opened,
        ledger: Some((bytes, rounds)),
    };
    finish_releases(outcome, &setups, &releases, &reference, peak_rss_mb);
    outcome.fact("users", graph.n());
    outcome.fact("edges", graph.edges());
    Ok(())
}

fn measure_streamed(
    seed: u64,
    inputs: &Inputs,
    reps: usize,
    seconds: u64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (csr, setups, releases) = cycle(
        reps,
        seconds,
        || LoadedCsr::read(&inputs.graph),
        |csr| Ok(sut::run_streamed(csr, seed)),
    )?;
    let peak_rss_mb = procfs::peak_rss_mb()?;

    let reference = Reference {
        opened: csr.count_triangles() as f64,
        ledger: None,
    };
    finish_releases(outcome, &setups, &releases, &reference, peak_rss_mb);
    outcome.fact("users", csr.n());
    outcome.fact("edges", csr.edges());
    Ok(())
}

/// Checks every release and fills in the metrics of a one-shot run.
fn finish_releases(
    outcome: &mut Outcome,
    setups: &[f64],
    releases: &[Release],
    reference: &Reference,
    peak_rss_mb: f64,
) {
    for (i, release) in releases.iter().enumerate() {
        outcome.op(check_release(
            &format!("release {}", i + 1),
            release,
            reference,
        ));
    }
    // Every release of one run has the same inputs, so the same cost;
    // a run whose releases disagree has no cost to report.
    let cost = releases[0].cost;
    outcome.run_check(
        releases
            .iter()
            .any(|r| r.cost != cost)
            .then(|| "releases of one run report different costs".to_string()),
    );
    let seconds: Vec<f64> = releases.iter().map(|r| r.seconds).collect();
    outcome.metrics = end_to_end(
        setups,
        fastest(&seconds),
        [
            cost.wire_bytes as f64,
            cost.link_bytes as f64,
            cost.rounds as f64,
        ],
        peak_rss_mb,
    );
    timing_facts(outcome, setups, &seconds);
    outcome.fact("triples_per_release", cost.triples);
    outcome.fact("offline_bytes_per_release", cost.offline_bytes);
}

/// Number of committed-epoch records in a journal file.
pub fn journal_records(path: &Path) -> Result<usize, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|line| line.starts_with("epoch="))
        .count())
}

fn measure_serve(
    args: &RunArgs,
    inputs: &Inputs,
    epochs: usize,
    outcome: &mut Outcome,
) -> Result<(), String> {
    // Inside the checkout, as every file of the benchmark must be: the
    // journal's fsync therefore hits the checkout's real file system.
    let journal_dir = args.out.join("journal").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    fs::create_dir_all(&journal_dir).map_err(|e| format!("{}: {e}", journal_dir.display()))?;
    let horizon = epochs as u64;
    let measured = (|| {
        let ((graph, script, mut pair), setups) = repeat_setup(|| {
            let graph = LoadedGraph::read(&inputs.graph)?;
            let script = DeltaScript::read(&inputs.deltas)?;
            let (a, b) = sut::tcp_pair()?;
            let ends = (Arc::new(a), Arc::new(b));
            let pair = ServePair::start(&graph, args.seed, horizon, ends, &journal_dir)?;
            Ok((graph, script, pair))
        })?;
        if script.epochs() < epochs {
            return Err(format!(
                "delta script holds {} epochs, need {epochs}",
                script.epochs()
            ));
        }
        let run = pair.run(&script, epochs)?;
        let peak_rss_mb = procfs::peak_rss_mb()?;
        drop(pair);
        let reference = sut::serve_reference(&graph, args.seed, horizon, &script, epochs)?;
        let records = (
            journal_records(&journal_dir.join(sut::JOURNAL_S1))?,
            journal_records(&journal_dir.join(sut::JOURNAL_S2))?,
        );
        Ok((graph, setups, run, reference, records, peak_rss_mb))
    })();
    let _ = fs::remove_dir_all(&journal_dir);
    let (graph, setups, run, reference, records, peak_rss_mb) = measured?;
    finish_serve(outcome, &setups, &run, &reference, records, peak_rss_mb);
    outcome.fact("users", graph.n());
    outcome.fact("edges", graph.edges());
    Ok(())
}

/// Epochs per serve sample.
const SERVE_BLOCK: usize = 10;

/// The epoch latency a serve run reports.
///
/// Epochs differ in work (a batch of deltas touches more or fewer
/// triangles), so the fastest epoch is merely the cheapest batch. A
/// sample is therefore [`SERVE_BLOCK`] consecutive epochs — about as
/// long as one release of the one-shot workloads — costed in seconds
/// **per online round**, which is what an epoch's latency is made of;
/// the run reports the fastest sample's rate times its own mean rounds
/// per epoch: the latency of an average epoch of this run, undisturbed.
pub fn serve_release_seconds(epoch_seconds: &[f64], epoch_rounds: &[u64]) -> f64 {
    assert_eq!(epoch_seconds.len(), epoch_rounds.len());
    let rates: Vec<f64> = epoch_seconds
        .chunks(SERVE_BLOCK)
        .zip(epoch_rounds.chunks(SERVE_BLOCK))
        .filter(|(s, _)| s.len() == SERVE_BLOCK || epoch_seconds.len() < SERVE_BLOCK)
        .map(|(s, r)| s.iter().sum::<f64>() / r.iter().sum::<u64>().max(1) as f64)
        .collect();
    let mean_rounds = epoch_rounds.iter().sum::<u64>() as f64 / epoch_rounds.len() as f64;
    fastest(&rates) * mean_rounds
}

/// Checks every epoch and fills in the metrics of a serve run.
pub fn finish_serve(
    outcome: &mut Outcome,
    setups: &[f64],
    run: &ServeRun,
    reference: &(Vec<f64>, u64, u64),
    journal_records: (usize, usize),
    peak_rss_mb: f64,
) {
    let epochs = run.opened.len();
    let (ref_opened, ref_bytes, ref_rounds) = reference;
    for (i, (&(s1, s2), want)) in run.opened.iter().zip(ref_opened).enumerate() {
        let mut problems = Vec::new();
        if s1 != s2 {
            problems.push(format!(
                "epoch {}: parties disagree: S1 opened {s1}, S2 opened {s2}",
                i + 1
            ));
        }
        if s1 != *want {
            problems.push(format!(
                "epoch {}: opened {s1}, reference opens {want}",
                i + 1
            ));
        }
        outcome.op(problems);
    }
    let Cost {
        wire_bytes,
        modeled_bytes,
        link_bytes,
        rounds,
        ..
    } = run.cost;
    outcome.run_check((wire_bytes != modeled_bytes).then(|| {
        format!("measured {wire_bytes} online bytes over the epochs, modeled {modeled_bytes}")
    }));
    outcome.run_check(((modeled_bytes, rounds) != (*ref_bytes, *ref_rounds)).then(|| {
        format!("ledger {modeled_bytes} bytes / {rounds} rounds, reference {ref_bytes} / {ref_rounds}")
    }));
    outcome.run_check(
        (journal_records != (epochs, epochs))
            .then(|| format!("journals hold {journal_records:?} records, want {epochs} each")),
    );
    let per_epoch = |total: u64| total as f64 / epochs as f64;
    outcome.metrics = end_to_end(
        setups,
        serve_release_seconds(&run.epoch_seconds, &run.epoch_rounds),
        [
            per_epoch(wire_bytes),
            per_epoch(link_bytes),
            per_epoch(rounds),
        ],
        peak_rss_mb,
    );
    timing_facts(outcome, setups, &run.epoch_seconds);
    outcome.samples.push((
        "epoch_rounds".to_string(),
        run.epoch_rounds.iter().map(|&r| r as f64).collect(),
    ));
    outcome.fact("triples_per_release", per_epoch(run.cost.triples));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn release(opened: (f64, f64), wire: u64) -> Release {
        Release {
            seconds: 1.0,
            opened,
            cost: Cost {
                wire_bytes: wire,
                modeled_bytes: 4800,
                link_bytes: 5000,
                rounds: 100,
                ..Cost::default()
            },
        }
    }

    const REFERENCE: Reference = Reference {
        opened: 41.5,
        ledger: Some((4800, 100)),
    };

    #[test]
    fn a_correct_release_passes_every_check() {
        assert_eq!(
            check_release("r", &release((41.5, 41.5), 4800), &REFERENCE),
            Vec::<String>::new()
        );
    }

    #[test]
    fn each_broken_invariant_is_reported() {
        let disagree = check_release("r", &release((41.5, 40.5), 4800), &REFERENCE);
        assert!(
            disagree.len() == 1 && disagree[0].contains("parties disagree"),
            "{disagree:?}"
        );
        let unmodeled = check_release("r", &release((41.5, 41.5), 4808), &REFERENCE);
        assert!(
            unmodeled.len() == 1 && unmodeled[0].contains("measured 4808"),
            "{unmodeled:?}"
        );
        let wrong_ledger = Reference {
            ledger: Some((4800, 99)),
            ..REFERENCE
        };
        assert_eq!(
            check_release("r", &release((41.5, 41.5), 4800), &wrong_ledger).len(),
            1
        );
        let mut ot = release((41.5, 41.5), 4800);
        ot.cost.offline_bytes = 1_000_000;
        ot.cost.offline_wire_bytes = 1_000_000; // the simulated base-OT bytes are missing
        assert_eq!(check_release("r", &ot, &REFERENCE).len(), 1);
    }

    #[test]
    fn a_deliberately_wrong_reference_fails_exactly_that_operation() {
        let mut outcome = Outcome::default();
        let releases = [release((41.5, 41.5), 4800); 3];
        let references = [
            REFERENCE,
            Reference {
                opened: 42.5,
                ..REFERENCE
            },
            REFERENCE,
        ];
        for (i, (rel, reference)) in releases.iter().zip(&references).enumerate() {
            outcome.op(check_release(&format!("release {}", i + 1), rel, reference));
        }
        assert_eq!((outcome.attempted, outcome.failed), (3, 1));
        assert!(outcome.failures[0].starts_with("release 2: opened 41.5, reference opens 42.5"));
        assert!(!outcome.correct());
    }

    #[test]
    fn serve_checks_cover_epochs_ledger_and_journals() {
        let run = ServeRun {
            epoch_seconds: vec![0.03, 0.02, 0.04],
            opened: vec![(1.0, 1.0), (2.0, 2.5), (3.0, 3.0)],
            epoch_rounds: vec![10, 10, 10],
            epoch_triples: vec![5, 5, 5],
            cost: Cost {
                wire_bytes: 300,
                modeled_bytes: 300,
                link_bytes: 600,
                rounds: 30,
                triples: 15,
                ..Cost::default()
            },
        };
        let mut ok = Outcome::default();
        let reference = (vec![1.0, 2.0, 3.0], 300, 30);
        finish_serve(&mut ok, &[1.0, 1.2, 1.1], &run, &reference, (3, 3), 50.0);
        assert_eq!((ok.attempted, ok.failed), (3, 1), "{:?}", ok.failures);
        // One (short) block: 0.09 s over 30 rounds, 10 rounds an epoch.
        assert!((ok.metric("release_s").unwrap() - 0.03).abs() < 1e-12);
        assert_eq!(ok.metric("setup_s"), Some(1.0));
        assert_eq!(ok.metric("wire_bytes"), Some(100.0));
        assert_eq!(ok.metric("link_bytes"), Some(200.0));
        assert_eq!(ok.metric("online_rounds"), Some(10.0));

        let mut short_journal = Outcome::default();
        finish_serve(
            &mut short_journal,
            &[1.0, 1.0, 1.0],
            &run,
            &reference,
            (3, 2),
            50.0,
        );
        assert_eq!(short_journal.failed, 2);
        assert!(short_journal
            .failures
            .iter()
            .any(|f| f.contains("journals hold (3, 2)")));
    }

    #[test]
    fn serve_latency_is_the_fastest_blocks_rate_at_the_runs_mean_work() {
        // Three blocks of ten epochs, 100 rounds each epoch except the
        // last block's 200. Block rates: 1 ms, 0.5 ms, 0.75 ms a round.
        let seconds: Vec<f64> = [0.1, 0.05, 0.15].iter().flat_map(|&s| [s; 10]).collect();
        let rounds: Vec<u64> = [100, 100, 200].iter().flat_map(|&r| [r; 10]).collect();
        let mean_rounds = 4000.0 / 30.0;
        assert!((serve_release_seconds(&seconds, &rounds) - 0.0005 * mean_rounds).abs() < 1e-12);
        // A trailing partial block is not a sample.
        let (mut s2, mut r2) = (seconds.clone(), rounds.clone());
        s2.extend([0.0001; 3]);
        r2.extend([100; 3]);
        let with_tail = serve_release_seconds(&s2, &r2);
        assert!((with_tail - 0.0005 * (4300.0 / 33.0)).abs() < 1e-12);
    }

    #[test]
    fn setups_are_interleaved_until_their_budget_is_spent() {
        // An instant set-up precedes every release.
        let (mut setups, mut releases) = (0, 0);
        let (_, samples, out) = cycle(
            6,
            10,
            || {
                setups += 1;
                Ok(setups)
            },
            |&state| {
                releases += 1;
                Ok(state)
            },
        )
        .unwrap();
        assert_eq!((samples.len(), out), (6, vec![1, 2, 3, 4, 5, 6]));
        // A slow one (0.4 s against a 1 s run: budget 0.3 s) stops at
        // the minimum of three; later releases reuse the third state.
        let mut calls = 0;
        let (last, samples, out) = cycle(
            5,
            1,
            || {
                calls += 1;
                std::thread::sleep(Duration::from_millis(400));
                Ok(calls)
            },
            |&state| Ok(state),
        )
        .unwrap();
        assert_eq!((last, samples.len(), out), (3, 3, vec![1, 2, 3, 3, 3]));
        assert!(cycle(
            3,
            1,
            || Err::<(), _>("no such file".to_string()),
            |_| Ok(())
        )
        .is_err());
        let (_, three) = repeat_setup(|| Ok(())).unwrap();
        assert_eq!(three.len(), MIN_SETUPS);
    }

    #[test]
    fn journal_records_counts_committed_epochs_only() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-journal-{}", std::process::id()));
        fs::write(
            &path,
            "cargo-journal v1 seed=1\nepoch=1 spent=0x0 digest=0x1\nepoch=2 spent=0x0 digest=0x2\n",
        )
        .unwrap();
        assert_eq!(journal_records(&path), Ok(2));
        fs::remove_file(&path).unwrap();
        assert!(journal_records(&path).is_err());
    }
}
