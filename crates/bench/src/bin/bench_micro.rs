//! Micro-benchmark sweep of the non-Count hot paths →
//! `BENCH_micro.json`.
//!
//! The criterion-shim benches (`mul3`, `perturb`, `projection`, …)
//! print trend-only timings; this binary measures the same operations
//! through the shim's measurement loop into the machine-readable
//! baseline schema so `bench_compare` can gate them like the Count
//! sweeps — every committed baseline under `crates/bench/baselines/`
//! is enforced, not just the secure-count ones.
//!
//! Rows reuse the shared schema with the `kernel` column carrying the
//! operation name; `n` is the input size, `triples` the operations per
//! measured iteration, and `bytes_per_triple` the deterministic wire
//! bytes per operation (zero for the local-only ones).
//!
//! ```text
//! usage: bench_micro [--out BENCH_micro.json] [--measure-ms 400] [--quick]
//! ```

use cargo_bench::baseline::{BenchReport, BenchRow};
use cargo_core::{estimate_max_degree, project_matrix};
use cargo_dp::DistributedLaplace;
use cargo_graph::generators::chung_lu;
use cargo_graph::generators::presets::SnapDataset;
use cargo_graph::io::scan_edge_list;
use cargo_graph::CsrGraph;
use cargo_mpc::ot::{transcript_digest, OT_KAPPA};
use cargo_mpc::wire::frame_checksum;
use cargo_mpc::{
    beaver_mul, cols_to_rows_scalar, cols_to_rows_simd, cols_to_rows_simd_into, cr_hash_batch, cr_hash_scalar, mul3,
    Dealer, NetStats, Ring64, SimdTier, SplitMix64,
};
use criterion::{black_box, measure_median_iqr_ns};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    out: PathBuf,
    measure_ms: u64,
}

fn usage() -> String {
    "usage: bench_micro [--out BENCH_micro.json] [--measure-ms 400] [--quick]".to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("BENCH_micro.json"),
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
            "--out" => args.out = PathBuf::from(take(&mut i)?),
            "--measure-ms" => {
                args.measure_ms = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--measure-ms: {e}"))?
            }
            "--quick" => args.measure_ms = 150,
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
    let budget = Duration::from_millis(args.measure_ms);
    let mut report = BenchReport {
        bench: "micro".into(),
        rows: Vec::new(),
    };
    let mut push = |kernel: &str, n: usize, ops: u64, timing: (f64, f64), bytes_per_op: f64| {
        let (median_ns, iqr_ns) = timing;
        let row = BenchRow {
            n,
            threads: 1,
            batch: 1,
            kernel: kernel.into(),
            transport: "memory".into(),
            pool: "inline".into(),
            schedule: "dense".into(),
            triples: ops,
            ns_per_triple: median_ns / ops as f64,
            bytes_per_triple: bytes_per_op,
            iqr_ns: iqr_ns / ops as f64,
            peak_rss_mb: 0.0,
        };
        println!(
            "{kernel:<18} n={n:<5} {:>10.2} ns/op  {:>5.1} B/op",
            row.ns_per_triple, row.bytes_per_triple
        );
        report.rows.push(row);
    };

    // mul3: the protocol-object three-value multiplication, including
    // the streaming dealer draw (the shape the mul3 criterion bench
    // measures). One opening round: 6 elements, 48 bytes.
    {
        let mut dealer = Dealer::new(1);
        let sa = dealer.share(Ring64::ONE);
        let sb = dealer.share(Ring64::ONE);
        let sc = dealer.share(Ring64::ZERO);
        let mut probe_net = NetStats::new();
        mul3(
            (sa.s1, sa.s2),
            (sb.s1, sb.s2),
            (sc.s1, sc.s2),
            dealer.mul_group(),
            &mut probe_net,
        );
        let ns = measure_median_iqr_ns(12, budget, || {
            let mg = dealer.mul_group();
            let mut net = NetStats::new();
            black_box(mul3(
                (sa.s1, sa.s2),
                (sb.s1, sb.s2),
                (sc.s1, sc.s2),
                mg,
                &mut net,
            ))
        });
        push("mul3", 1, 1, ns, probe_net.bytes as f64);
    }

    // beaver_mul: the classic two-value multiplication it improves on.
    {
        let mut dealer = Dealer::new(2);
        let sa = dealer.share(Ring64::ONE);
        let sb = dealer.share(Ring64::ONE);
        let mut probe_net = NetStats::new();
        beaver_mul((sa.s1, sa.s2), (sb.s1, sb.s2), dealer.beaver(), &mut probe_net);
        let ns = measure_median_iqr_ns(12, budget, || {
            let t = dealer.beaver();
            let mut net = NetStats::new();
            black_box(beaver_mul((sa.s1, sa.s2), (sb.s1, sb.s2), t, &mut net))
        });
        push("beaver_mul", 1, 1, ns, probe_net.bytes as f64);
    }

    // projection: Algorithm 3 over the Facebook preset (ns per user
    // row; local computation, zero wire bytes).
    {
        let n = 1000usize;
        let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
        let g = full.induced_prefix(n);
        let matrix = g.to_bit_matrix();
        let degrees = g.degrees();
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = estimate_max_degree(&degrees, 0.2, &mut rng).noisy_degrees;
        let ns = measure_median_iqr_ns(6, budget, || {
            black_box(project_matrix(&matrix, &degrees, &noisy, 100))
        });
        push("projection", n, n as u64, ns, 0.0);
    }

    // perturb_noise: Algorithm 5's distributed Gamma noise, all users
    // (ns per user; the shares ride the existing upload, zero
    // server↔server bytes).
    {
        let n = 2000usize;
        let dist = DistributedLaplace::new(n, 1000.0, 1.8);
        let mut rng = StdRng::seed_from_u64(5);
        let ns = measure_median_iqr_ns(6, budget, || black_box(dist.sample_all(&mut rng)));
        push("perturb_noise", n, n as u64, ns, 0.0);
    }

    // max_degree: Algorithm 2 over all users (ns per user).
    {
        let n = 2000usize;
        let degrees: Vec<usize> = (0..n).map(|i| i % 97).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let ns = measure_median_iqr_ns(6, budget, || {
            black_box(estimate_max_degree(&degrees, 0.2, &mut rng))
        });
        push("max_degree", n, n as u64, ns, 0.0);
    }

    // ot_transpose / ot_hash: the two OT-extension inner loops, scalar
    // reference vs the runtime-dispatched SIMD kernels, over one
    // extension slab (64 words = 4096 rows — exactly what
    // `OtMgEngine` transposes and hashes per batch). The `_simd` rows
    // are the microbench evidence for the vectorisation speedup;
    // bit-equality across tiers is pinned by the
    // `ot_simd_equivalence` proptest suite.
    {
        let words = 64usize;
        let rows = 64 * words;
        let tier = SimdTier::detect();
        let mut seed = 0x9E3779B97F4A7C15u64;
        let cols: Vec<u64> = (0..OT_KAPPA * words)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                seed
            })
            .collect();

        let ns = measure_median_iqr_ns(12, budget, || black_box(cols_to_rows_scalar(&cols, words)));
        push("ot_transpose", rows, rows as u64, ns, 0.0);
        // The engine runs the into-form, reusing one buffer pair per
        // chunk — time that, not the allocating wrapper.
        let (mut lo, mut hi) = (vec![0u64; rows], vec![0u64; rows]);
        let ns = measure_median_iqr_ns(12, budget, || {
            cols_to_rows_simd_into(tier, &cols, words, &mut lo, &mut hi);
            black_box(lo[rows - 1])
        });
        push(&format!("ot_transpose_simd/{tier}"), rows, rows as u64, ns, 0.0);

        let (lo, hi) = cols_to_rows_simd(tier, &cols, words);
        let mut out = vec![0u64; rows];
        let ns = measure_median_iqr_ns(12, budget, || {
            for j in 0..rows {
                out[j] = cr_hash_scalar(j as u64, [lo[j], hi[j]]);
            }
            black_box(out[rows - 1])
        });
        push("ot_hash", rows, rows as u64, ns, 0.0);
        let ns = measure_median_iqr_ns(12, budget, || {
            cr_hash_batch(tier, 0, &lo, &hi, [0, 0], &mut out);
            black_box(out[rows - 1])
        });
        push(&format!("ot_hash_simd/{tier}"), rows, rows as u64, ns, 0.0);
    }

    // frame_checksum / transcript_digest: the two integrity hashes on
    // every offline byte (DESIGN.md §8). The checksum at an online
    // round's frame size (1.5 kB) and an offline flight's (2 MB), in
    // ns per byte; the digest over one flight's `u` message (512 MGs ×
    // 512 words), in ns per word.
    {
        let mut prg = SplitMix64::new(1);
        let header = [3u8; 24];
        for bytes in [1536usize, 2 << 20] {
            let payload: Vec<u8> = (0..bytes / 8).flat_map(|_| prg.next_u64().to_le_bytes()).collect();
            let ns = measure_median_iqr_ns(12, budget, || {
                black_box(frame_checksum(black_box(&header), black_box(&payload)))
            });
            push("frame_checksum", bytes, bytes as u64, ns, 0.0);
        }
        let mut u_msg = vec![0u64; 512 * 512];
        prg.fill_block(&mut u_msg);
        let ns = measure_median_iqr_ns(12, budget, || black_box(transcript_digest(black_box(&u_msg))));
        push("transcript_digest", u_msg.len(), u_msg.len() as u64, ns, 0.0);
    }

    // edge_list_parse / csr_build: the two halves of
    // `read_edge_list_csr` (DESIGN.md §9), in ns per edge, on a
    // 2¹⁸-edge power-law list at `stream-1m`'s density, written the way
    // `write_edge_list` writes it and parsed from memory. The first is
    // the tokenizer and the relabeller filling the pair list; the
    // second turns that list, as parsed, into the adjacency.
    {
        let n = 1usize << 17;
        let g = chung_lu(n, 2 * n, 724, 2.5, 1);
        let edges = g.edge_count();
        let mut text = String::from("# FromNodeId\tToNodeId\n");
        for (u, v) in g.edges() {
            writeln!(text, "{u}\t{v}").expect("write to a String");
        }
        let parse = || {
            let mut pairs = Vec::new();
            let scan = scan_edge_list(black_box(text.as_bytes()), |u, v| pairs.push((u, v)))
                .expect("a generated list parses");
            (scan.nodes, pairs)
        };
        let ns = measure_median_iqr_ns(12, budget, parse);
        push("edge_list_parse", edges, edges as u64, ns, 0.0);
        let (nodes, pairs) = parse();
        let ns = measure_median_iqr_ns(12, budget, || {
            black_box(CsrGraph::from_unsorted_pairs(nodes, black_box(&pairs)))
        });
        push("csr_build", edges, edges as u64, ns, 0.0);
    }

    if let Err(e) = report.write(&args.out) {
        eprintln!("error writing {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} rows)", args.out.display(), report.rows.len());
}
