//! Scalar-vs-batch MG-kernel sweep → `BENCH_mg_kernel.json`.
//!
//! The A/B harness for `CargoConfig::kernel`: measures the secure
//! count under both Count kernels — the per-triple scalar
//! transcription and the structure-of-arrays batch kernel
//! ([`cargo_mpc::mul3_batch`]) — over an `n × batch` grid on the
//! Facebook-calibrated preset, emitting one row per
//! `(n, batch, kernel)` with `ns/triple` and the (kernel-invariant)
//! `bytes/triple`. Before timing anything it asserts the two kernels
//! produce identical share pairs, so a drifting kernel can never
//! publish a number.
//!
//! The committed baseline lives at
//! `crates/bench/baselines/BENCH_mg_kernel.json`; the acceptance bar
//! is the batch kernel at ≥2× the scalar throughput at `n ≥ 200`,
//! which `bench_compare` then protects like every other baseline.
//!
//! ```text
//! usage: bench_mg_kernel [--n 200,400] [--batch 16,64,256]
//!                        [--out BENCH_mg_kernel.json] [--measure-ms 600] [--quick]
//! ```

use cargo_bench::baseline::{BenchReport, BenchRow};
use cargo_core::{count_local, CountJob, CountKernel};
use cargo_graph::generators::presets::SnapDataset;
use criterion::{black_box, measure_median_iqr_ns};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    ns: Vec<usize>,
    batches: Vec<usize>,
    out: PathBuf,
    measure_ms: u64,
}

fn usage() -> String {
    "usage: bench_mg_kernel [--n 200,400] [--batch 16,64,256]\n\
     \x20      [--out BENCH_mg_kernel.json] [--measure-ms 600] [--quick]"
        .to_string()
}

fn parse_list(v: &str, flag: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|x| x.trim().parse::<usize>().map_err(|e| format!("{flag}: {e}")))
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        ns: vec![200, 400],
        batches: vec![16, 64, 256],
        out: PathBuf::from("BENCH_mg_kernel.json"),
        measure_ms: 600,
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
            "--out" => args.out = PathBuf::from(take(&mut i)?),
            "--measure-ms" => {
                args.measure_ms = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--measure-ms: {e}"))?
            }
            "--quick" => {
                args.ns = vec![200];
                args.batches = vec![64];
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
    let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
    let mut report = BenchReport {
        bench: "mg_kernel".into(),
        rows: Vec::new(),
    };
    for &n in &args.ns {
        let m = full.induced_prefix(n).to_bit_matrix();
        for &batch in &args.batches {
            // Equivalence gate before any timing: both kernels, same
            // shares, same online ledger.
            let job = |kernel| CountJob { batch, kernel, ..CountJob::new(1) };
            let probe_scalar = count_local(&m, &job(CountKernel::Scalar));
            let probe_batch = count_local(&m, &job(CountKernel::Bitsliced));
            assert_eq!(
                probe_scalar, probe_batch,
                "kernels must be bit-identical before being compared"
            );
            let triples = probe_scalar.triples.max(1);
            let mut per_kernel = [0.0f64; 2];
            for (slot, kernel) in [CountKernel::Scalar, CountKernel::Bitsliced]
                .into_iter()
                .enumerate()
            {
                let (median_ns, iqr_ns) =
                    measure_median_iqr_ns(8, Duration::from_millis(args.measure_ms), || {
                        black_box(count_local(&m, &job(kernel)))
                    });
                let row = BenchRow {
                    n,
                    threads: 1,
                    batch,
                    kernel: kernel.to_string(),
                    transport: "memory".into(),
                    pool: "inline".into(),
                    schedule: "dense".into(),
                    triples: probe_scalar.triples,
                    ns_per_triple: median_ns / triples as f64,
                    bytes_per_triple: probe_scalar.net.bytes as f64 / triples as f64,
                    iqr_ns: iqr_ns / triples as f64,
                    peak_rss_mb: 0.0,
                };
                per_kernel[slot] = row.ns_per_triple;
                println!(
                    "n={n:<5} batch={batch:<4} kernel={:<9} {:>8.2} ns/triple  {:>5.1} B/triple",
                    row.kernel, row.ns_per_triple, row.bytes_per_triple
                );
                report.rows.push(row);
            }
            println!(
                "  -> n={n} batch={batch}: batch kernel is {:.2}x the scalar throughput",
                per_kernel[0] / per_kernel[1]
            );
        }
    }
    if let Err(e) = report.write(&args.out) {
        eprintln!("error writing {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} rows)", args.out.display(), report.rows.len());
}
