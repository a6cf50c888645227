//! Perf-regression gate: diffs a fresh `BENCH_secure_count.json`
//! against the committed baseline.
//!
//! For every `(n, threads, batch, kernel, transport, pool, schedule)`
//! row present in **both** reports:
//!
//! * `bytes_per_triple` must match exactly — the protocol's
//!   communication cost is deterministic, so any drift is a protocol
//!   change, not noise;
//! * `ns_per_triple` must not exceed the baseline by more than
//!   `tolerance` (relative; default 20%) — a one-sided wall-clock
//!   regression gate: a row faster than the baseline by more than the
//!   tolerance passes and is flagged `improved — refresh the baseline`,
//!   so an optimisation cannot fail CI against the numbers it beat.
//!   Both sides' `ns_per_triple` are **medians** (of the `--repeat`
//!   samples `bench_offline` takes); the persisted IQR column is
//!   displayed as the noise bar the verdict should be read against.
//!
//! Rows present on only one side are reported but do not fail the
//! gate (sweeps may grow or shrink). Exit code 1 on any violation.
//! The current report's `peak_rss_mb` column is displayed for the
//! reader (the large-graph smoke bounds it with `ulimit -v` instead of
//! a tolerance — high-water marks vary with allocator and thread
//! count, wall-clock-style gating would flake).
//!
//! ```text
//! usage: bench_compare <baseline.json> <current.json> [--tolerance 0.20]
//! ```

use cargo_bench::baseline::BenchReport;
use std::path::PathBuf;

fn usage() -> String {
    "usage: bench_compare <baseline.json> <current.json> [--tolerance 0.20]".to_string()
}

fn main() {
    let argv = cargo_bench::cli::argv_or_help(&usage());
    let mut tolerance = 0.20f64;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--tolerance" => {
                i += 1;
                tolerance = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--tolerance needs a float\n{}", usage());
                        std::process::exit(2);
                    });
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}\n{}", usage());
                std::process::exit(2);
            }
            p => paths.push(PathBuf::from(p)),
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    let baseline = BenchReport::read(&paths[0]).unwrap_or_else(|e| {
        eprintln!("baseline: {e}");
        std::process::exit(2);
    });
    let current = BenchReport::read(&paths[1]).unwrap_or_else(|e| {
        eprintln!("current: {e}");
        std::process::exit(2);
    });
    if baseline.bench != current.bench {
        eprintln!(
            "bench mismatch: baseline {:?} vs current {:?}",
            baseline.bench, current.bench
        );
        std::process::exit(1);
    }

    let mut failures = 0usize;
    let mut compared = 0usize;
    println!(
        "| n | threads | batch | kernel | transport | pool | schedule | base ns/T | cur ns/T | cur IQR | delta | bytes/T | peak MB | verdict |\n\
         |---|---------|-------|--------|-----------|------|----------|-----------|----------|---------|-------|---------|---------|---------|"
    );
    for cur in &current.rows {
        let Some(base) = baseline.find(
            cur.n,
            cur.threads,
            cur.batch,
            &cur.kernel,
            &cur.transport,
            &cur.pool,
            &cur.schedule,
        ) else {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | — | {:.2} | {:.2} | — | {:.1} | {:.1} | NEW (not gated) |",
                cur.n, cur.threads, cur.batch, cur.kernel, cur.transport, cur.pool, cur.schedule,
                cur.ns_per_triple, cur.iqr_ns, cur.bytes_per_triple, cur.peak_rss_mb
            );
            continue;
        };
        compared += 1;
        // Median vs median: the persisted ns/T is already the median
        // of the sweep's repeats, so a single outlier run cannot trip
        // (or mask) the gate.
        let delta = (cur.ns_per_triple - base.ns_per_triple) / base.ns_per_triple;
        let bytes_ok = (cur.bytes_per_triple - base.bytes_per_triple).abs() < 1e-9
            && cur.triples == base.triples;
        let time_ok = delta <= tolerance;
        let verdict = match (bytes_ok, time_ok) {
            (true, true) if delta < -tolerance => "PASS (improved — refresh the baseline)",
            (true, true) => "PASS",
            (false, _) => "FAIL (cost model drifted)",
            (_, false) => "FAIL (time regressed)",
        };
        if !(bytes_ok && time_ok) {
            failures += 1;
        }
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:+.1}% | {:.1} | {:.1} | {verdict} |",
            cur.n,
            cur.threads,
            cur.batch,
            cur.kernel,
            cur.transport,
            cur.pool,
            cur.schedule,
            base.ns_per_triple,
            cur.ns_per_triple,
            cur.iqr_ns,
            delta * 100.0,
            cur.bytes_per_triple,
            cur.peak_rss_mb
        );
    }
    for base in &baseline.rows {
        if current
            .find(
                base.n,
                base.threads,
                base.batch,
                &base.kernel,
                &base.transport,
                &base.pool,
                &base.schedule,
            )
            .is_none()
        {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.2} | — | — | — | — | — | MISSING (not gated) |",
                base.n, base.threads, base.batch, base.kernel, base.transport, base.pool,
                base.schedule, base.ns_per_triple
            );
        }
    }
    println!(
        "\n{compared} rows compared, {failures} failures (tolerance +{:.0}%)",
        tolerance * 100.0
    );
    if compared == 0 {
        eprintln!("error: no overlapping rows between the two reports");
        std::process::exit(1);
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
