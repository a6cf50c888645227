//! Secure-count bench sweep → `BENCH_secure_count.json`.
//!
//! Measures the batched/sharded Count kernel over an
//! `n × threads × batch` grid on the Facebook-calibrated preset and
//! persists `(n, threads, batch, triples, ns/triple, bytes/triple)`
//! rows through the criterion shim's measurement loop
//! ([`criterion::measure_median_ns`]). The committed baseline lives at
//! `crates/bench/baselines/BENCH_secure_count.json`; CI regenerates a
//! fresh report and gates it with `bench_compare`.
//!
//! ```text
//! usage: bench_secure_count [--n 200,400,600] [--threads 1,2,4]
//!                           [--batch 1,64] [--transport memory|tcp]
//!                           [--out BENCH_secure_count.json]
//!                           [--measure-ms 700] [--quick]
//! ```
//!
//! `--transport memory` (the default — and what every legacy report's
//! rows were) measures the in-process kernel; `--transport tcp`
//! measures the sharded message-passing runtime over **real loopback
//! sockets**, the sweep behind the committed `BENCH_transport.json`
//! baseline. Before timing a TCP point the harness asserts its shares
//! and online ledger equal the in-process run's, so the baseline
//! doubles as a transport-equivalence gate in release mode.

use cargo_bench::baseline::{BenchReport, BenchRow};
use cargo_bench::experiments::sparse::power_law;
use cargo_core::{
    count_local, count_two_party, peak_rss_bytes, CountJob, CountKernel, ScheduleKind,
    SchedulePlan, SecureCountResult, TransportKind, DEFAULT_TILE_THRESHOLD,
};
use cargo_graph::generators::presets::SnapDataset;
use cargo_graph::CsrGraph;
use cargo_mpc::{TcpConfig, TcpTransport};
use criterion::{black_box, measure_median_iqr_ns};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    ns: Vec<usize>,
    threads: Vec<usize>,
    batches: Vec<usize>,
    transport: TransportKind,
    schedule: ScheduleKind,
    powerlaw: bool,
    tile_threshold: u32,
    out: PathBuf,
    measure_ms: u64,
}

fn usage() -> String {
    "usage: bench_secure_count [--n 200,400,600] [--threads 1,2,4] [--batch 1,64]\n\
     \x20      [--transport memory|tcp] [--schedule dense|sparse|sparse-stream]\n\
     \x20      [--powerlaw] [--tile-threshold 8]\n\
     \x20      [--out BENCH_secure_count.json] [--measure-ms 700] [--quick]\n\
     \n\
     --powerlaw sizes a synthetic heavy-tailed Chung-Lu graph per n instead\n\
     of slicing the Facebook preset — the only shape that scales to n = 10^6.\n\
     --schedule sparse-stream runs the CSR-native streamed count (memory\n\
     transport only, no n x n matrix anywhere) and reports peak RSS per row."
        .to_string()
}

fn parse_list(v: &str, flag: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|x| x.trim().parse::<usize>().map_err(|e| format!("{flag}: {e}")))
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        ns: vec![200, 400, 600],
        threads: vec![1, 2, 4],
        batches: vec![1, 64],
        transport: TransportKind::Memory,
        schedule: ScheduleKind::Dense,
        powerlaw: false,
        tile_threshold: DEFAULT_TILE_THRESHOLD,
        out: PathBuf::from("BENCH_secure_count.json"),
        measure_ms: 700,
    };
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| "flag needs a value".to_string())
        };
        match argv[i].as_str() {
            "--n" => args.ns = parse_list(&take(&mut i)?, "--n")?,
            "--threads" => args.threads = parse_list(&take(&mut i)?, "--threads")?,
            "--batch" => args.batches = parse_list(&take(&mut i)?, "--batch")?,
            "--transport" => {
                args.transport = take(&mut i)?
                    .parse()
                    .map_err(|e: String| format!("--transport: {e}"))?
            }
            "--schedule" => {
                args.schedule = take(&mut i)?
                    .parse()
                    .map_err(|e: String| format!("--schedule: {e}"))?
            }
            "--powerlaw" => args.powerlaw = true,
            "--tile-threshold" => {
                args.tile_threshold = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--tile-threshold: {e}"))?
            }
            "--out" => args.out = PathBuf::from(take(&mut i)?),
            "--measure-ms" => {
                args.measure_ms = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--measure-ms: {e}"))?
            }
            "--quick" => {
                args.ns = vec![100, 200];
                args.measure_ms = 300;
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let argv = cargo_bench::cli::argv_or_help(&usage());
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let max_threads = args.threads.iter().copied().max().unwrap_or(1);
    if cores < max_threads {
        eprintln!(
            "warning: sweeping up to {max_threads} threads on a {cores}-core machine — \
             thread-scaling rows will be flat here and only meaningful on multi-core hardware"
        );
    }
    if args.schedule == ScheduleKind::SparseStream && args.transport == TransportKind::Tcp {
        eprintln!(
            "--schedule sparse-stream is the CSR-native in-process sweep; \
             --transport tcp is not supported there (the TCP runtime accepts \
             CsrStream plans through the library API)"
        );
        std::process::exit(2);
    }
    // The Facebook preset only matters for the matrix-shaped sweeps;
    // --powerlaw sizes a synthetic graph per n instead.
    let full = if args.powerlaw {
        None
    } else {
        Some(SnapDataset::Facebook.load_or_synthesize(None, 0).0)
    };
    let mut report = BenchReport {
        bench: "secure_count".into(),
        rows: Vec::new(),
    };
    let transport = args.transport.to_string();
    let schedule = args.schedule.to_string();
    for &n in &args.ns {
        let g = match &full {
            Some(full) => full.induced_prefix(n),
            None => power_law(n, 0),
        };
        if args.schedule == ScheduleKind::SparseStream {
            // CSR-native streamed path: no n × n matrix is ever built —
            // at n = 10⁶ the BitMatrix alone would be 125 GB. The CSR
            // arrays plus O(chunk) worker scratch are the whole
            // footprint, and the per-row peak-RSS column is the proof.
            let csr = Arc::new(CsrGraph::from_graph(&g));
            drop(g);
            for &threads in &args.threads {
                for &batch in &args.batches {
                    let job = CountJob {
                        threads,
                        batch,
                        plan: SchedulePlan::CsrStream(Arc::clone(&csr)),
                        tile_threshold: args.tile_threshold,
                        ..CountJob::new(1)
                    };
                    let run = || count_local(&*csr, &job);
                    let t0 = std::time::Instant::now();
                    let probe = run();
                    let probe_ns = t0.elapsed().as_nanos() as f64;
                    let triples = probe.triples.max(1);
                    // --measure-ms 0: trust the probe's single timing —
                    // the large-graph smoke can't afford repeat runs.
                    let (median_ns, iqr_ns) = if args.measure_ms == 0 {
                        (probe_ns, 0.0)
                    } else {
                        measure_median_iqr_ns(10, Duration::from_millis(args.measure_ms), || {
                            black_box(run())
                        })
                    };
                    let row = BenchRow {
                        n,
                        threads,
                        batch,
                        kernel: CountKernel::default().to_string(),
                        transport: transport.clone(),
                        pool: "inline".into(),
                        schedule: schedule.clone(),
                        triples: probe.triples,
                        ns_per_triple: median_ns / triples as f64,
                        bytes_per_triple: probe.net.bytes as f64 / triples as f64,
                        iqr_ns: iqr_ns / triples as f64,
                        peak_rss_mb: peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6),
                    };
                    println!(
                        "n={n:<7} threads={threads:<2} batch={batch:<4} transport={transport:<6} \
                         schedule={schedule:<13} {:>8.2} ns/triple  {:>5.1} B/triple  \
                         peak {:>7.1} MB",
                        row.ns_per_triple, row.bytes_per_triple, row.peak_rss_mb
                    );
                    report.rows.push(row);
                }
            }
            continue;
        }
        let m = g.to_bit_matrix();
        // Both parties derive the same plan from the public matrix; the
        // sweep builds it once per n, outside the timed loop (real
        // deployments amortise it the same way).
        let plan = SchedulePlan::for_support(args.schedule, &m);
        for &threads in &args.threads {
            for &batch in &args.batches {
                // One untimed run pins the deterministic cost model —
                // and, for TCP, gates the transport equivalence before
                // any timing is trusted.
                let job = CountJob {
                    threads,
                    batch,
                    plan: plan.clone(),
                    tile_threshold: args.tile_threshold,
                    ..CountJob::new(1)
                };
                let memory_run = || count_local(&m, &job);
                let tcp_run = || {
                    let (end1, end2, _) = TcpTransport::loopback_pair(&TcpConfig::default())
                        .expect("loopback socket pair");
                    count_two_party(&m, &job, &Arc::new(end1), &Arc::new(end2))
                };
                let run: &dyn Fn() -> SecureCountResult = match args.transport {
                    TransportKind::Memory => &memory_run,
                    TransportKind::Tcp => &tcp_run,
                };
                let probe = run();
                if args.transport == TransportKind::Tcp {
                    let reference = memory_run();
                    assert_eq!(probe.share1, reference.share1, "TCP shares diverged");
                    assert_eq!(probe.share2, reference.share2, "TCP shares diverged");
                    assert_eq!(probe.net, reference.net, "TCP wire != modeled ledger");
                }
                let triples = probe.triples.max(1);
                let (median_ns, iqr_ns) = measure_median_iqr_ns(
                    10,
                    Duration::from_millis(args.measure_ms),
                    || black_box(run()),
                );
                let row = BenchRow {
                    n,
                    threads,
                    batch,
                    kernel: CountKernel::default().to_string(),
                    transport: transport.clone(),
                    pool: "inline".into(),
                    schedule: schedule.clone(),
                    triples: probe.triples,
                    ns_per_triple: median_ns / triples as f64,
                    bytes_per_triple: probe.net.bytes as f64 / triples as f64,
                    iqr_ns: iqr_ns / triples as f64,
                    peak_rss_mb: peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6),
                };
                println!(
                    "n={n:<5} threads={threads:<2} batch={batch:<4} transport={transport:<6} \
                     schedule={schedule:<6} {:>8.2} ns/triple  {:>5.1} B/triple",
                    row.ns_per_triple, row.bytes_per_triple
                );
                report.rows.push(row);
            }
        }
        // Per-n thread-scaling summary at the largest batch.
        if let Some(&b) = args.batches.iter().max() {
            let kernel = CountKernel::default().to_string();
            if let (Some(one), Some(best)) = (
                report.find(n, 1, b, &kernel, &transport, "inline", &schedule),
                args.threads
                    .iter()
                    .filter_map(|&t| report.find(n, t, b, &kernel, &transport, "inline", &schedule))
                    .min_by(|a, c| a.ns_per_triple.total_cmp(&c.ns_per_triple)),
            ) {
                println!(
                    "  -> n={n}: best {}t is {:.2}x the 1-thread throughput (batch {b})",
                    best.threads,
                    one.ns_per_triple / best.ns_per_triple
                );
            }
        }
    }
    if let Err(e) = report.write(&args.out) {
        eprintln!("error writing {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} rows)", args.out.display(), report.rows.len());
}
