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
//! `--breakdown` answers "where does a Multiplication Group's time
//! go" instead of sweeping: it drives the public step machines
//! ([`MgOfflineS1`]/[`MgOfflineS2`]) over the dense cube of each `--n`
//! as the wire dialogue would — every message through the
//! [`OfflineMsg`] codec — with a clock around each step, and prints
//! µs per MG, both parties summed (on a one-core host that sum *is*
//! the wall time). No report is written. DESIGN.md §8 carries the
//! table.
//!
//! ```text
//! usage: bench_offline [--n 40,60,80] [--batch 1,64]
//!                      [--factory-threads 0,2] [--pool-depth 4]
//!                      [--repeat 5] [--out BENCH_offline.json]
//!                      [--measure-ms 400] [--quick] [--breakdown]
//! ```

use cargo_bench::baseline::{BenchReport, BenchRow};
use cargo_core::{count_local, CountJob, CountKernel};
use cargo_graph::generators::presets::SnapDataset;
use cargo_mpc::ot::{simulated_base_ots, transcript_digest};
use cargo_mpc::{
    plan_flights, Backpressure, MgDraw, MgOfflineS1, MgOfflineS2, OfflineMode, OfflineMsg,
    PoolPolicy, WireMessage,
};
use criterion::{black_box, measure_median_iqr_ns};
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    ns: Vec<usize>,
    batches: Vec<usize>,
    factory_threads: Vec<usize>,
    pool_depths: Vec<usize>,
    repeat: usize,
    out: PathBuf,
    measure_ms: u64,
    breakdown: bool,
}

fn usage() -> String {
    "usage: bench_offline [--n 40,60,80] [--batch 1,64]\n\
     \x20      [--factory-threads 0,2] [--pool-depth 4] [--repeat 5]\n\
     \x20      [--out BENCH_offline.json] [--measure-ms 400] [--quick] [--breakdown]"
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
        breakdown: false,
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
            "--breakdown" => args.breakdown = true,
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

/// The rows of the `--breakdown` table, in the order the dialogue
/// runs them; the last is every message's encode + decode.
const STEPS: [&str; 7] = [
    "ucols",
    "corrections",
    "derand_opq",
    "absorb_corrections",
    "corrections_w",
    "derand_w",
    "codec",
];
const CODEC: usize = 6;

/// Runs `f` and adds its wall time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// One pass of the offline dialogue over `plan` with a clock around
/// each step of both machines; every message crosses the codec exactly
/// as `mg_offline_over_wire` sends it (typed message → frame → bytes →
/// frame → typed message).
fn timed_dialogue(plan: &[MgDraw]) -> [Duration; STEPS.len()] {
    let mut all = [Duration::ZERO; STEPS.len()];
    let (t, codec) = all.split_at_mut(CODEC);
    let mut s1 = MgOfflineS1::for_chunk(1, 0);
    let mut s2 = MgOfflineS2::for_chunk(1, 0);
    for (f, range) in plan_flights(plan).into_iter().enumerate() {
        let flight = &plan[range];
        let mut wire = |step: u8, words: Vec<u64>| {
            timed(&mut codec[0], || {
                let msg = OfflineMsg { chunk: 0, flight: f as u32, step, words };
                OfflineMsg::decode(&msg.encode()).expect("round trip").words
            })
        };
        let u1 = wire(1, timed(&mut t[0], || s1.ucols(flight)));
        let u2 = wire(1, timed(&mut t[0], || s2.ucols(flight)));
        let d_a = wire(2, timed(&mut t[1], || s1.corrections(&u2)));
        let d_b = wire(2, timed(&mut t[1], || s2.corrections(&u1)));
        let c_opq = wire(3, timed(&mut t[2], || s1.derand_opq(&d_b)));
        timed(&mut t[3], || s2.absorb_corrections(&d_a));
        let d_b4 = wire(3, timed(&mut t[4], || s2.corrections_w(&c_opq)));
        let c_w = wire(4, timed(&mut t[5], || s1.derand_w(&d_b4)));
        black_box((s1.groups(), s2.groups(&c_w)));
    }
    all
}

/// Prints the per-step cost of one Multiplication Group on the dense
/// cube of `n` users (median of `repeat` passes), then the three
/// kernels inside the steps measured on their own over a full flight.
fn breakdown(n: usize, repeat: usize) {
    let plan: Vec<MgDraw> = (0..n as u32)
        .flat_map(|i| (i + 1..n as u32 - 1).map(move |j| MgDraw::dense(i, j, n as u32 - 1 - j)))
        .collect();
    let groups: u64 = plan.iter().map(|d| d.groups as u64).sum();
    let mut passes: Vec<_> = (0..repeat).map(|_| timed_dialogue(&plan)).collect();
    let us_per_mg = |d: Duration| d.as_secs_f64() * 1e6 / groups as f64;
    println!("n={n}: {groups} MGs, µs per MG (both parties), median of {repeat}");
    let mut total = 0.0;
    for (s, name) in STEPS.iter().enumerate() {
        passes.sort_unstable_by_key(|p| p[s]);
        let us = us_per_mg(passes[repeat / 2][s]);
        total += us;
        println!("  {name:<20} {us:>8.2}");
    }
    println!("  {:<20} {total:>8.2}", "sum");

    // Inside the steps: one flight's worth of extension in each role
    // and its digest. A MG costs 2 extends, 2 absorbs (one per
    // direction) and 4 digests (each party digests both `u` messages).
    let flight_groups = (cargo_mpc::MAX_FLIGHT_GROUPS).min(groups) as usize;
    let choice: Vec<u64> = (0..4 * flight_groups as u64)
        .map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let (mut sender, mut receiver) = simulated_base_ots(1);
    let u = receiver.extend(&choice).1;
    let budget = Duration::from_millis(200);
    let kernel = |name: &str, per_mg: f64, ns: f64| {
        println!("  of which {name:<11} {:>8.2}", per_mg * ns / 1e3 / flight_groups as f64);
    };
    kernel("extend", 2.0, measure_median_iqr_ns(repeat, budget, || black_box(receiver.extend(&choice))).0);
    kernel("absorb", 2.0, measure_median_iqr_ns(repeat, budget, || black_box(sender.absorb(&u))).0);
    kernel("digest", 4.0, measure_median_iqr_ns(repeat, budget, || black_box(transcript_digest(&u))).0);
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
    if args.breakdown {
        for &n in &args.ns {
            breakdown(n, args.repeat);
        }
        return;
    }
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
