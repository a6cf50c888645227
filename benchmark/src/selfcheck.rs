//! `bench all` and `bench aa`: every workload in a fresh child process
//! each, and the A/A self-check that two sets of runs of one binary
//! agree within the benchmark's own bounds.

use crate::cli::Flags;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::report::parse_metric_lines;
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use std::path::Path;
use std::process::Command;

/// What one child run reported.
#[derive(Debug, Clone, Default)]
pub struct ChildRun {
    /// `(name, value)` of every `METRIC` line.
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Parses the `OPS <attempted> <failed>` line of a child's output.
pub fn parse_ops_line(text: &str) -> Option<(u64, u64)> {
    let mut parts = text
        .lines()
        .find_map(|l| l.strip_prefix("OPS "))?
        .split(' ');
    Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
}

/// Runs one workload in a fresh `exe` process and collects its report.
/// The child's own output is passed through, indented, so nothing it
/// printed (a failed check above all) is lost.
pub fn run_child(exe: &Path, workload: Workload, flags: &Flags) -> Result<ChildRun, String> {
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .arg("--out")
        .arg(&flags.out)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout
        .lines()
        .chain(String::from_utf8_lossy(&output.stderr).lines())
    {
        if !line.starts_with('{') {
            println!("    {line}");
        }
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let (attempted, failed) =
        parse_ops_line(&stdout).ok_or_else(|| format!("{workload}: child printed no OPS line"))?;
    Ok(ChildRun {
        metrics: parse_metric_lines(&stdout),
        attempted,
        failed,
    })
}

/// `bench all`: every workload once; prints every metric by name with
/// its unit. Returns whether every operation of every workload passed
/// its checks.
pub fn all(exe: &Path, flags: &Flags) -> Result<bool, String> {
    let mut correct = true;
    let mut summary = Vec::new();
    for workload in Workload::ALL {
        println!("== {workload}");
        let run = run_child(exe, workload, flags)?;
        correct &= run.failed == 0;
        summary.push((workload, run));
    }
    println!(
        "== summary (seed {}, {} s per workload)",
        flags.seed, flags.seconds
    );
    for (workload, run) in &summary {
        for m in &END_TO_END {
            if let Some(value) = run.metric(m.name) {
                println!("{workload}/{} = {value} {}", m.name, m.unit);
            }
        }
        println!(
            "{workload}/ops = {} attempted, {} failed",
            run.attempted, run.failed
        );
    }
    Ok(correct)
}

/// How two sets of values of one metric on one workload compare.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The sets agree within the metric's bound.
    Agree,
    /// They do not; the string says how.
    Differ(String),
}

/// Compares set A with set B under `metric`'s rule: a count must be
/// identical in every run of both sets; a measurement's two medians
/// may differ by at most the metric's bound (as a share of A's) or its
/// absolute floor, whichever allows more.
pub fn compare(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if metric.exact {
        let first = a[0];
        return match a.iter().chain(b).find(|&&v| v != first) {
            None => Verdict::Agree,
            Some(other) => {
                Verdict::Differ(format!("a count that must repeat read {first} and {other}"))
            }
        };
    }
    let (ma, mb) = (median(a), median(b));
    let diff = (mb - ma).abs();
    if diff <= metric.bound * ma.abs() || diff <= metric.floor {
        Verdict::Agree
    } else {
        Verdict::Differ(format!(
            "medians {ma} and {mb} differ by {:.1} % (bound {:.0} %)",
            100.0 * diff / ma.abs(),
            100.0 * metric.bound
        ))
    }
}

fn quartile_text(xs: &[f64]) -> String {
    if xs.len() < 2 {
        return format!("{}", xs[0]);
    }
    let (q1, q2, q3) = quartiles(xs);
    format!("{q2:.6} [{q1:.6} .. {q3:.6}]")
}

/// `bench aa`: `flags.runs` interleaved pairs (A B A B …) of every
/// workload on this one binary. Returns whether every metric of every
/// workload agreed between the sets and no operation failed.
pub fn aa(exe: &Path, flags: &Flags) -> Result<bool, String> {
    let per_workload = vec![Vec::new(); Workload::ALL.len()];
    let mut sets: [Vec<Vec<ChildRun>>; 2] = [per_workload.clone(), per_workload];
    for round in 1..=flags.runs {
        for (set, label) in sets.iter_mut().zip(["A", "B"]) {
            for (slot, workload) in set.iter_mut().zip(Workload::ALL) {
                println!("== round {round}/{} set {label}: {workload}", flags.runs);
                slot.push(run_child(exe, workload, flags)?);
            }
        }
    }
    let mut agree = true;
    println!(
        "== A/A verdict (median [q1 .. q3] of {} runs per set)",
        flags.runs
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for metric in &END_TO_END {
            let values = |set: &Vec<Vec<ChildRun>>| -> Result<Vec<f64>, String> {
                set[w]
                    .iter()
                    .map(|run| {
                        run.metric(metric.name)
                            .ok_or_else(|| format!("{workload}: no {} reported", metric.name))
                    })
                    .collect()
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            let verdict = compare(metric, &a, &b);
            println!(
                "{workload}/{}: A {}  B {}  {}",
                metric.name,
                quartile_text(&a),
                quartile_text(&b),
                match &verdict {
                    Verdict::Agree => "ok".to_string(),
                    Verdict::Differ(why) => format!("DIFFER: {why}"),
                }
            );
            agree &= verdict == Verdict::Agree;
        }
        let failed: u64 = sets.iter().flat_map(|s| &s[w]).map(|run| run.failed).sum();
        if failed > 0 {
            println!("{workload}: {failed} operations failed their checks");
            agree = false;
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rules under test, independent of the bounds the tables pick.
    fn rule(bound: f64, floor: f64, exact: bool) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            bound,
            floor,
            exact,
        }
    }

    #[test]
    fn timings_agree_within_the_bound_and_differ_beyond_it() {
        let release = rule(0.10, 0.0, false);
        assert_eq!(
            compare(&release, &[3.0, 3.1, 3.2], &[3.3, 3.4, 3.2]),
            Verdict::Agree
        );
        let Verdict::Differ(why) = compare(&release, &[3.0, 3.1, 3.2], &[3.5, 3.6, 3.4]) else {
            panic!("12.9 % apart must differ at a 10 % bound");
        };
        assert!(why.contains("12.9 %"), "{why}");
        // A faster B is as much a disagreement as a slower one: both
        // sets ran the same binary.
        assert!(matches!(
            compare(&release, &[3.5, 3.6, 3.4], &[3.0, 3.1, 3.2]),
            Verdict::Differ(_)
        ));
    }

    #[test]
    fn a_cheap_setup_agrees_by_its_absolute_floor() {
        let setup = rule(0.10, 0.05, false);
        // 2 ms against 3 ms is 50 % apart but far inside 0.05 s.
        assert_eq!(compare(&setup, &[0.002; 3], &[0.003; 3]), Verdict::Agree);
        assert!(matches!(
            compare(&setup, &[1.0; 3], &[1.4; 3]),
            Verdict::Differ(_)
        ));
    }

    #[test]
    fn a_count_must_repeat_in_every_run_of_both_sets() {
        let wire = rule(0.12, 0.0, true);
        assert_eq!(compare(&wire, &[508.0; 3], &[508.0; 3]), Verdict::Agree);
        // Identical medians do not rescue one deviant run.
        assert!(matches!(
            compare(&wire, &[508.0, 508.0, 508.0], &[508.0, 516.0, 508.0]),
            Verdict::Differ(_)
        ));
    }

    #[test]
    fn ops_line_parses() {
        assert_eq!(
            parse_ops_line("HOST x\nOPS 300 2\nMETRIC a 1 s\n"),
            Some((300, 2))
        );
        assert_eq!(parse_ops_line("no such line"), None);
    }
}
