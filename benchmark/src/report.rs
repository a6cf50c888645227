//! Metric records and their three renderings: the `METRIC` lines a
//! person (or `bench all` / `bench aa`) reads, the one-line JSON result
//! the driver reads, and the per-run JSON record with host metadata.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A new metric value.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The result of one benchmark process.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (releases; serve epochs).
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// One line per failed check — printed, never dropped.
    pub failures: Vec<String>,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// `key=value` facts about the run (sample counts, sizes).
    pub facts: Vec<(String, String)>,
    /// Every raw timing sample behind a reported statistic, by metric
    /// name (record file only).
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    /// Records one more `key=value` fact.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Records one attempted operation and the checks it failed (none,
    /// if it is correct). However many checks fail, it is one failed
    /// operation.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// Records a check on the run as a whole (journal length, summed
    /// ledgers). A failure counts as one failed operation, so no failed
    /// check can leave `failed` at zero.
    pub fn run_check(&mut self, problem: Option<String>) {
        if let Some(problem) = problem {
            self.failed = (self.failed + 1).min(self.attempted.max(1));
            self.failures.push(problem);
        }
    }

    /// Whether every attempted operation passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: Rust's shortest round-trip form, which keeps every
/// digit measured. Non-finite values (a bug) become `null`, which the
/// driver rejects loudly instead of reading as a number.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The driver's contract line: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_object(&outcome.metrics)
    )
}

/// The `METRIC <name> <value> <unit>` lines, one per metric.
pub fn metric_lines(outcome: &Outcome) -> String {
    let mut out = String::new();
    for m in &outcome.metrics {
        writeln!(out, "METRIC {} {} {}", m.name, json_number(m.value), m.unit)
            .expect("write to a String");
    }
    out
}

/// Parses the `METRIC` lines of a child's output back into metrics
/// (units are dropped: the parent already knows them by name).
pub fn parse_metric_lines(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.strip_prefix("METRIC ")?.split(' ');
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect()
}

/// The per-run record: host metadata, run facts, metrics, failures.
pub fn record_json(host: &[(String, String)], outcome: &Outcome) -> String {
    let object = |pairs: &[(String, String)]| {
        let fields: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_string(f)).collect();
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
            format!("{}: [{}]", json_string(name), values.join(", "))
        })
        .collect();
    format!(
        "{{\"host\": {}, \"run\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failures\": [{}], \"metrics\": {}, \"samples\": {{{}}}}}\n",
        object(host),
        object(&outcome.facts),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        failures.join(", "),
        metrics_object(&outcome.metrics),
        samples.join(", ")
    )
}

/// Prints a finished run — host, facts, every metric by name with its
/// unit, every failed check, and last the driver's result line — and
/// writes the record to `out/records/<binary>-<workload>-<seed>.json`.
pub fn print_and_record(
    binary: &str,
    out: &std::path::Path,
    host: &[(String, String)],
    outcome: &Outcome,
) -> Result<(), String> {
    let pairs = |pairs: &[(String, String)]| {
        let words: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        words.join(" ")
    };
    println!("HOST {}", pairs(host));
    println!("RUN {}", pairs(&outcome.facts));
    print!("{}", metric_lines(outcome));
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    println!("OPS {} {}", outcome.attempted, outcome.failed);

    let fact = |key: &str| {
        outcome
            .facts
            .iter()
            .find(|(k, _)| k == key)
            .map_or("unknown", |(_, v)| v.as_str())
    };
    let dir = out.join("records");
    let path = dir.join(format!(
        "{binary}-{}-{}.json",
        fact("workload"),
        fact("seed")
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, record_json(host, outcome)))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!("{}", result_line(outcome));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            attempted: 3,
            failed: 0,
            failures: vec![],
            metrics: vec![
                Metric::new("release_s", 3.25, "s"),
                Metric::new("wire_bytes", 508166416.0, "bytes"),
            ],
            facts: vec![("seed".into(), "1".into())],
            samples: vec![("release_s".into(), vec![3.25, 3.5])],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        assert_eq!(
            result_line(&sample()),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"release_s\": {\"value\": 3.25, \"unit\": \"s\"}, \
             \"wire_bytes\": {\"value\": 508166416, \"unit\": \"bytes\"}}}"
        );
    }

    #[test]
    fn a_failed_check_is_counted_and_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.op(vec![]);
        o.op(vec![
            "rep 2: parties disagree".into(),
            "rep 2: wire != modeled".into(),
        ]);
        o.op(vec![]);
        assert_eq!((o.attempted, o.failed, o.failures.len()), (3, 1, 2));
        o.run_check(None);
        o.run_check(Some("journal holds 2 records, want 3".into()));
        assert_eq!(o.failed, 2);
        assert!(!o.correct());
        assert!(
            result_line(&o).starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2,")
        );
    }

    #[test]
    fn metric_lines_round_trip() {
        let o = sample();
        let parsed = parse_metric_lines(&format!("noise\n{}more noise\n", metric_lines(&o)));
        assert_eq!(
            parsed,
            vec![
                ("release_s".to_string(), 3.25),
                ("wire_bytes".to_string(), 508166416.0)
            ]
        );
    }

    #[test]
    fn strings_are_escaped_and_bad_numbers_are_not_numbers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }
}
