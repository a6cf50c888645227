//! Micro-benchmarks of the hot paths below the Count, one table row
//! per operation on stdout: median and interquartile range in ns per
//! operation, and the deterministic wire bytes per operation (zero for
//! the local-only ones). `n` is the input size.
//!
//! The `mg/*` rows answer where an OT-mode Count's offline time goes
//! (DESIGN.md §8.1): an operation there is one triple of the Count,
//! both parties summed — on a one-core host that sum *is* the wall time;
//! `wire/byte_codec` beside them is the byte codec (`encode` /
//! `decode`, which no transport takes) on the same messages. The
//! other `wire/*` rows attribute a wire party's Count the same way, per
//! pair or triple and per server, and the `local/*` rows the in-process
//! Count's weighted passes on the same runs, per triple for both
//! servers.
//!
//! ```text
//! usage: bench_micro [--measure-ms 400] [--quick]
//! ```

use cargo_core::config::{self, parse_argv, parse_value, Flag};
use cargo_core::{
    estimate_max_degree, project_matrix, CargoConfig, CountScheduler, SchedulePlan,
    DEFAULT_COUNT_BATCH,
};
use cargo_dp::DistributedLaplace;
use cargo_graph::generators::chung_lu;
use cargo_graph::generators::presets::SnapDataset;
use cargo_graph::io::scan_edge_list;
use cargo_graph::CsrGraph;
use cargo_mpc::ot::{transcript_digest, OT_KAPPA};
use cargo_mpc::wire::frame_checksum;
use cargo_mpc::{
    beaver_mul, cols_to_rows_scalar, cols_to_rows_simd, cols_to_rows_simd_into, cr_hash_batch,
    cr_hash_scalar, mask_round, mul3, pair_key, push_triples, weighted_pass, Dealer, Frame,
    IntoFrame, MgDraw, NetStats, OfflineMsg, OfflineS1, OfflineS2, PairDealer, PairRun, PairTable,
    Ring64, ServerId, SimdTier, SlotTriple, SplitMix64, WireMessage, GROUP_WORDS,
    MAX_FLIGHT_TRIPLES,
};
use criterion::{black_box, measure_median_iqr_ns};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// bench_micro takes no config flags, only these.
const FLAGS: [Flag; 2] = [
    "--measure-ms <ms=400>  measurement budget per row",
    "--quick  a 150 ms budget per row",
];

fn usage() -> String {
    let head = "usage: bench_micro [flags]";
    config::usage(head, &FLAGS, &[], &CargoConfig::new(2.0))
}

/// The per-row measurement budget in ms; `Ok(None)` means `--help`.
fn parse_args(argv: &[String]) -> Result<Option<u64>, String> {
    let walked = parse_argv(argv, &FLAGS, &[], &mut CargoConfig::new(2.0));
    let Some(walked) = walked.map_err(|e| e.to_string())? else {
        return Ok(None);
    };
    if let Some(arg) = walked.positional.first() {
        return Err(format!("unexpected argument {arg:?}"));
    }
    let mut measure_ms = 400;
    for (flag, v) in walked.own {
        measure_ms = match flag.as_str() {
            "--quick" => 150,
            _ => parse_value(&flag, &v)?,
        };
    }
    Ok(Some(measure_ms))
}

/// Prints one table row; `timing` is the (median, IQR) of one sample
/// of `ops` operations.
fn row(name: &str, n: usize, ops: u64, timing: (f64, f64), bytes_per_op: f64) {
    let (median_ns, iqr_ns) = timing;
    println!(
        "{name:<24} n={n:<7} {:>10.2} ns/op  iqr {:>8.2}  {bytes_per_op:>5.1} B/op",
        median_ns / ops as f64,
        iqr_ns / ops as f64
    );
}

/// The steps of the OT offline dialogue, in the order it runs them
/// (`local` is both parties' products of their own mask shares); the
/// last is every message's trip through the codec as a party makes it:
/// `into_frame` → `header` → `from_parts` → `from_frame`.
const STEPS: [&str; 8] = ["local", "keys", "absorb", "corrections", "receive", "tail", "finish", "codec"];
const CODEC: usize = 7;
/// Passes of the whole dialogue the `mg/*` step rows take the median of.
const MG_PASSES: usize = 9;

/// Runs `f` and adds its wall time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// Both servers' opened tables over the pairs of the cube of `n` users
/// (every opening zero: the dialogue reads none) and the cube's
/// triples over them, as a Count in OT mode lists them.
fn cube_count(n: u32) -> ([PairTable; 2], Vec<SlotTriple>) {
    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
    let slot = |p: (u32, u32)| pairs.binary_search(&p).expect("a cube pair");
    let (mut runs, mut at) = (Vec::new(), 0);
    for (i, j) in pairs.iter().copied().filter(|&(_, j)| j + 1 < n) {
        let slots = [slot((i, j)), slot((i, j + 1)), slot((j, j + 1))];
        runs.push(PairRun { slots, len: (n - j - 1) as usize, at });
        at += (n - j - 1) as usize;
    }
    let mut triples = Vec::new();
    push_triples(&runs, None, &mut triples);
    let keys: Vec<u64> = pairs.iter().map(|&(i, j)| pair_key(i, j)).collect();
    let zeros = vec![0u64; keys.len()];
    let tables = [ServerId::S1, ServerId::S2].map(|server| {
        let mut table = PairTable::new(1, server, true);
        mask_round(&mut table, &keys, &zeros, &mut zeros.clone());
        table.push(&zeros);
        table
    });
    (tables, triples)
}

/// One pass of the offline dialogue over `count` with a clock around
/// each step of both machines; every message crosses the codec exactly
/// as `pair_offline_over_wire` sends and receives it (typed message →
/// header + payload → checked frame → typed message). The second value
/// is the byte codec (`encode` / `decode`, header ‖ payload bytes) on a
/// copy of the same messages, timed apart and not part of the dialogue.
fn timed_dialogue((tables, triples): &([PairTable; 2], Vec<SlotTriple>)) -> ([Duration; STEPS.len()], Duration) {
    let mut all = [Duration::ZERO; STEPS.len()];
    let mut byte_codec = Duration::ZERO;
    let (t, codec) = all.split_at_mut(CODEC);
    let tier = SimdTier::detect();
    let mut wire = |step: u8, flight: usize, words: Vec<u64>| {
        let msg = OfflineMsg { chunk: 0, flight: flight as u32, step, words };
        let copy = msg.clone();
        timed(&mut byte_codec, || black_box(OfflineMsg::decode(&copy.encode()).expect("round trip")));
        timed(&mut codec[0], || {
            let frame = msg.into_frame();
            let header = frame.header().expect("a flight fits a frame");
            let frame = Frame::from_parts(&header, frame.payload).expect("intact");
            OfflineMsg::from_frame(frame).expect("an offline frame").words
        })
    };
    let (mut s1, mut s2) = timed(&mut t[0], || (OfflineS1::new(&tables[0], triples), OfflineS2::new(&tables[1], triples)));
    for (f, u) in timed(&mut t[1], || s2.keys(tier)).into_iter().enumerate() {
        let u = wire(1, f, u);
        timed(&mut t[2], || s1.absorb_keys(tier, &u));
    }
    for (f, flight) in triples.chunks(MAX_FLIGHT_TRIPLES).enumerate() {
        let d = wire(2, f, timed(&mut t[3], || s1.corrections(tier, flight)));
        timed(&mut t[4], || s2.receive(tier, flight, &d));
    }
    let tail = timed(&mut t[5], || s1.tail(tier));
    let tail: Vec<_> = tail.into_iter().enumerate().map(|(f, msg)| wire(3, f, msg)).collect();
    black_box(timed(&mut t[6], || s2.finish(tier, &tail)));
    (all, byte_codec)
}

/// Median and interquartile range in ns, taken as the criterion shim
/// takes them.
fn median_iqr(mut samples: Vec<Duration>) -> (f64, f64) {
    samples.sort_unstable();
    let ns = |i: usize| samples[i].as_nanos() as f64;
    let len = samples.len();
    (ns(len / 2), ns(3 * len / 4) - ns(len / 4))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let measure_ms = match parse_args(&argv) {
        Ok(Some(ms)) => ms,
        Ok(None) => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let budget = Duration::from_millis(measure_ms);

    // mg/*: the public step machines run the offline dialogue over the
    // dense cube of n = 32 users (the `ot-mem` Count), per triple, then
    // the transcript digest each party takes of the key columns, per
    // OT. These rows come first so the dialogue's megabyte messages meet
    // the fresh heap a party meets; after the rows below the allocator
    // recycles them and the steps read cheaper than in a real run.
    {
        let n = 32u32;
        let count = cube_count(n);
        let triples = count.1.len() as u64;
        let passes: Vec<_> = (0..MG_PASSES).map(|_| timed_dialogue(&count)).collect();
        for (s, name) in STEPS.iter().enumerate() {
            let step = median_iqr(passes.iter().map(|p| p.0[s]).collect());
            row(&format!("mg/{name}"), n as usize, triples, step, 0.0);
        }
        let total = median_iqr(passes.iter().map(|p| p.0.iter().sum()).collect());
        row("mg/sum", n as usize, triples, total, 0.0);
        let bytes = median_iqr(passes.iter().map(|p| p.1).collect());
        row("wire/byte_codec", n as usize, triples, bytes, 0.0);
        let u: Vec<u64> = (0..OT_KAPPA as u64 * 992)
            .map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let ns = measure_median_iqr_ns(12, budget, || black_box(transcript_digest(&u)));
        row("mg/digest", n as usize, 64 * 992, ns, 0.0);
    }

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
        row("mul3", 1, 1, ns, probe_net.bytes as f64);
    }

    // wire/*: one party of the wire Count in two shapes: `run`, one
    // k-run of 1 024 triples, and `mix`, the middle chunk of
    // `sparse-tcp`'s plan (the Facebook preset's 120-user prefix at
    // seed 1 on the streamed sparse schedule, whose runs average 3.65
    // triples). First the pair phase's mask pass over the shape's pair
    // set, per pair; then the weighted pass over the shape's runs, per
    // triple (the runs listed over the pair table beforehand, as the
    // Count lists a chunk's). Then `local/*`, the same runs as
    // `count_local` evaluates them: each server's pass in turn, per
    // triple for both servers. Last fill_words, the expansion of a
    // group's four stream words (the reference Count's per-triple
    // groups), per group.
    // DESIGN.md §8.1 reads these rows.
    {
        let len = DEFAULT_COUNT_BATCH;
        let run_plan = vec![MgDraw::dense(3, 5, len as u32)];
        let run_pairs = CountScheduler::new(len + 6, 1, len).pair_set();
        let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 1);
        let csr = Arc::new(CsrGraph::from_graph(&full.induced_prefix(120)));
        let sched = CountScheduler::with_plan(120, 1, len, SchedulePlan::CsrStream(csr));
        let mix = sched.chunk_plan(&sched.chunks()[sched.chunks().len() / 2]);
        for (shape, plan, pairs) in [("run", run_plan, run_pairs), ("mix", mix, sched.pair_set())] {
            let mut keys = Vec::new();
            pairs.for_each_run(0..pairs.len(), |_, i, j, run| {
                keys.extend((0..run as u32).map(|t| pair_key(i, j + t)));
            });
            let bits = vec![1u64; keys.len()];
            let mut runs = Vec::new();
            let mut at = 0;
            for d in &plan {
                let k = d.k_at(0) as u32;
                let slots = [pairs.slot(d.i, d.j), pairs.slot(d.i, k), pairs.slot(d.j, k)];
                runs.push(PairRun { slots, len: d.groups as usize, at });
                at += d.groups as usize;
            }
            let servers = [ServerId::S1, ServerId::S2];
            let mut tables = servers.map(|server| PairTable::new(7, server, false));
            let mut slabs = [vec![0u64; keys.len()], vec![0u64; keys.len()]];
            for (s, server) in servers.into_iter().enumerate() {
                let ns = measure_median_iqr_ns(12, budget, || {
                    mask_round(&mut tables[s], &keys, &bits, &mut slabs[s]);
                    black_box(slabs[s][keys.len() - 1])
                });
                row(&format!("wire/mask/{shape}/{server:?}"), keys.len(), keys.len() as u64, ns, 8.0);
            }
            let opened: Vec<u64> =
                slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
            tables.iter_mut().for_each(|table| table.push(&opened));
            for (server, table) in servers.into_iter().zip(&tables) {
                let ns = measure_median_iqr_ns(12, budget, || {
                    black_box(weighted_pass(table, &runs, None))
                });
                row(&format!("wire/pass/{shape}/{server:?}"), at, at as u64, ns, 0.0);
            }
            let ns = measure_median_iqr_ns(12, budget, || {
                black_box(tables.each_ref().map(|table| weighted_pass(table, &runs, None)))
            });
            row(&format!("local/{shape}"), at, at as u64, ns, 0.0);
        }
        let mut words = vec![0u64; GROUP_WORDS * len];
        let mut dealer = PairDealer::for_pair(7, 3, 5);
        let ns = measure_median_iqr_ns(12, budget, || {
            dealer.fill_words(&mut words);
            black_box(words[GROUP_WORDS * len - 1])
        });
        row("dealer/fill_words", len, len as u64, ns, 0.0);
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
        row("beaver_mul", 1, 1, ns, probe_net.bytes as f64);
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
        row("projection", n, n as u64, ns, 0.0);
    }

    // perturb_noise: Algorithm 5's distributed Gamma noise, all users
    // (ns per user; the shares ride the existing upload, zero
    // server↔server bytes).
    {
        let n = 2000usize;
        let dist = DistributedLaplace::new(n, 1000.0, 1.8);
        let mut rng = StdRng::seed_from_u64(5);
        let ns = measure_median_iqr_ns(6, budget, || black_box(dist.sample_all(&mut rng)));
        row("perturb_noise", n, n as u64, ns, 0.0);
    }

    // max_degree: Algorithm 2 over all users (ns per user).
    {
        let n = 2000usize;
        let degrees: Vec<usize> = (0..n).map(|i| i % 97).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let ns = measure_median_iqr_ns(6, budget, || {
            black_box(estimate_max_degree(&degrees, 0.2, &mut rng))
        });
        row("max_degree", n, n as u64, ns, 0.0);
    }

    // ot_transpose / ot_hash: the standalone OT-extension kernels,
    // scalar reference vs the runtime-dispatched SIMD kernels, over
    // 64 words = 4096 rows (the extension passes run the same transpose
    // and hash in-lane, eight words at a time, and store no rows: the
    // mg/extend and mg/absorb rows time them). Bit-equality across
    // tiers is pinned by the `ot_simd_equivalence` proptest suite.
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
        row("ot_transpose", rows, rows as u64, ns, 0.0);
        // The engine runs the into-form, reusing one buffer pair per
        // chunk — time that, not the allocating wrapper.
        let (mut lo, mut hi) = (vec![0u64; rows], vec![0u64; rows]);
        let ns = measure_median_iqr_ns(12, budget, || {
            cols_to_rows_simd_into(tier, &cols, words, &mut lo, &mut hi);
            black_box(lo[rows - 1])
        });
        row(&format!("ot_transpose_simd/{tier}"), rows, rows as u64, ns, 0.0);

        let (lo, hi) = cols_to_rows_simd(tier, &cols, words);
        let mut out = vec![0u64; rows];
        let ns = measure_median_iqr_ns(12, budget, || {
            for j in 0..rows {
                out[j] = cr_hash_scalar(j as u64, [lo[j], hi[j]]);
            }
            black_box(out[rows - 1])
        });
        row("ot_hash", rows, rows as u64, ns, 0.0);
        let ns = measure_median_iqr_ns(12, budget, || {
            cr_hash_batch(tier, 0, &lo, &hi, [0, 0], &mut out);
            black_box(out[rows - 1])
        });
        row(&format!("ot_hash_simd/{tier}"), rows, rows as u64, ns, 0.0);
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
            let payload: Vec<u64> = (0..bytes / 8).map(|_| prg.next_u64()).collect();
            let ns = measure_median_iqr_ns(12, budget, || {
                black_box(frame_checksum(black_box(&header), black_box(&payload)))
            });
            row("frame_checksum", bytes, bytes as u64, ns, 0.0);
        }
        let mut u_msg = vec![0u64; 512 * 512];
        prg.fill_block(&mut u_msg);
        let ns = measure_median_iqr_ns(12, budget, || black_box(transcript_digest(black_box(&u_msg))));
        row("transcript_digest", u_msg.len(), u_msg.len() as u64, ns, 0.0);
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
        row("edge_list_parse", edges, edges as u64, ns, 0.0);
        let (nodes, pairs) = parse();
        let ns = measure_median_iqr_ns(12, budget, || {
            black_box(CsrGraph::from_unsorted_pairs(nodes, black_box(&pairs)))
        });
        row("csr_build", edges, edges as u64, ns, 0.0);
    }
}
