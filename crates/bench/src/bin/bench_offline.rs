//! Offline-phase bench sweep → `BENCH_offline.json`.
//!
//! Measures the secure count with `OfflineMode::OtExtension` — the
//! IKNP/Gilboa preprocessing dominates, so this is effectively the
//! offline phase's cost — over an `n × batch` grid on the
//! Facebook-calibrated preset, and persists
//! `(n, threads, batch, pool, triples, ns/triple, bytes/triple, iqr)`
//! rows, where `bytes/triple` is the **offline** bytes per
//! Multiplication Group (deterministic: the
//! extension-column/correction/derandomisation formula pinned in
//! `cargo_mpc::offline`, amortised over `C(n,3)` groups).
//!
//! Each grid point is additionally swept over the **triple-factory
//! grid** (`--factory-threads × --pool-depth`): `0` factory threads is
//! the inline preprocessing dialogue (`pool` column `"inline"`, the
//! only shape legacy baselines know), `f > 0` routes generation
//! through a background [`cargo_mpc::TriplePool`] (`"pool/t{f}d{d}"`).
//! Timings are the **median of `--repeat` samples** with the
//! interquartile range persisted alongside, so the `bench_compare`
//! gate judges a stable statistic instead of a single noisy run.
//! The committed baseline lives at
//! `crates/bench/baselines/BENCH_offline.json`.
//!
//! ```text
//! usage: bench_offline [--n 40,60,80] [--batch 1,64]
//!                      [--factory-threads 0,2] [--pool-depth 4]
//!                      [--repeat 5] [--out BENCH_offline.json]
//!                      [--measure-ms 400] [--quick]
//! ```

use cargo_bench::baseline::{BenchReport, BenchRow};
use cargo_core::{count_local, CountJob, CountKernel};
use cargo_graph::generators::presets::SnapDataset;
use cargo_mpc::{Backpressure, OfflineMode, PoolPolicy};
use criterion::{black_box, measure_median_iqr_ns};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    ns: Vec<usize>,
    batches: Vec<usize>,
    factory_threads: Vec<usize>,
    pool_depths: Vec<usize>,
    repeat: usize,
    out: PathBuf,
    measure_ms: u64,
}

fn usage() -> String {
    "usage: bench_offline [--n 40,60,80] [--batch 1,64]\n\
     \x20      [--factory-threads 0,2] [--pool-depth 4] [--repeat 5]\n\
     \x20      [--out BENCH_offline.json] [--measure-ms 400] [--quick]"
        .to_string()
}

fn parse_list(v: &str, flag: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|x| x.trim().parse::<usize>().map_err(|e| format!("{flag}: {e}")))
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        ns: vec![40, 60, 80],
        batches: vec![1, 64],
        factory_threads: vec![0, 2],
        pool_depths: vec![4],
        repeat: 5,
        out: PathBuf::from("BENCH_offline.json"),
        measure_ms: 400,
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
            "--batch" => args.batches = parse_list(&take(&mut i)?, "--batch")?,
            "--factory-threads" => {
                args.factory_threads = parse_list(&take(&mut i)?, "--factory-threads")?
            }
            "--pool-depth" => args.pool_depths = parse_list(&take(&mut i)?, "--pool-depth")?,
            "--repeat" => {
                args.repeat = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => args.out = PathBuf::from(take(&mut i)?),
            "--measure-ms" => {
                args.measure_ms = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--measure-ms: {e}"))?
            }
            "--quick" => {
                args.ns = vec![40, 60];
                args.measure_ms = 200;
                args.repeat = 3;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
        i += 1;
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

/// The keyed `pool` column value for one factory grid point.
fn pool_label(factory_threads: usize, depth: usize) -> String {
    if factory_threads == 0 {
        "inline".to_string()
    } else {
        format!("pool/t{factory_threads}d{depth}")
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
    let mut report = BenchReport {
        bench: "offline".into(),
        rows: Vec::new(),
    };
    for &n in &args.ns {
        let m = full.induced_prefix(n).to_bit_matrix();
        for &batch in &args.batches {
            // One untimed run pins the deterministic offline cost model.
            let job = |offline, pool| CountJob { batch, offline, pool, ..CountJob::new(1) };
            let probe = count_local(&m, &job(OfflineMode::OtExtension, PoolPolicy::INLINE));
            let dealer = count_local(&m, &job(OfflineMode::TrustedDealer, PoolPolicy::INLINE));
            assert_eq!(
                (probe.share1, probe.share2),
                (dealer.share1, dealer.share2),
                "OT offline material must be bit-identical to the dealer's"
            );
            let triples = probe.triples.max(1);
            for &f in &args.factory_threads {
                // Depth only matters once a factory exists; collapse
                // the f = 0 column to one inline row per (n, batch).
                let depths: &[usize] = if f == 0 { &[0] } else { &args.pool_depths };
                for &d in depths {
                    let policy = PoolPolicy {
                        factory_threads: f,
                        depth: d.max(1),
                        backpressure: Backpressure::Block,
                    };
                    let (median_ns, iqr_ns) = measure_median_iqr_ns(
                        args.repeat,
                        Duration::from_millis(args.measure_ms),
                        // f = 0 is the disabled policy: inline preprocessing.
                        || black_box(count_local(&m, &job(OfflineMode::OtExtension, policy))),
                    );
                    let row = BenchRow {
                        n,
                        threads: 1,
                        batch,
                        kernel: CountKernel::default().to_string(),
                        transport: "memory".into(),
                        pool: pool_label(f, d),
                        schedule: "dense".into(),
                        triples: probe.triples,
                        ns_per_triple: median_ns / triples as f64,
                        // Pooling never changes the modeled ledger —
                        // pinned by the pool_equivalence suite — so the
                        // probe's cost model covers every grid point.
                        bytes_per_triple: probe.net.offline.bytes as f64 / triples as f64,
                        iqr_ns: iqr_ns / triples as f64,
                        peak_rss_mb: 0.0,
                    };
                    println!(
                        "n={n:<4} batch={batch:<4} pool={:<10} {:>10.1} ns/MG  \
                         iqr {:>7.1}  {:>8.1} offline B/MG  \
                         ({} ext OTs, {} offline rounds)",
                        row.pool,
                        row.ns_per_triple,
                        row.iqr_ns,
                        row.bytes_per_triple,
                        probe.net.offline.extended_ots,
                        probe.net.offline.rounds
                    );
                    report.rows.push(row);
                }
            }
        }
    }
    if let Err(e) = report.write(&args.out) {
        eprintln!("error writing {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} rows)", args.out.display(), report.rows.len());
}
