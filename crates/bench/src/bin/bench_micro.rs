//! Micro-benchmarks of the hot paths below the Count, one table row
//! per operation on stdout: median and interquartile range in ns per
//! operation, and the deterministic wire bytes per operation (zero for
//! the local-only ones). `n` is the input size.
//!
//! The `mg/*` rows answer where an OT-mode Multiplication Group's time
//! goes (DESIGN.md §8.1): an operation there is one MG, both parties
//! summed — on a one-core host that sum *is* the wall time;
//! `wire/byte_codec` beside them is the byte codec (`encode` /
//! `decode`, which no transport takes) on the same messages. The
//! other `wire/*` rows attribute a wire party's Count the same way, per
//! pair or triple and per server, and the `local/*` rows the in-process
//! Count on the same rounds, per triple for both servers.
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
use cargo_mpc::ot::{simulated_base_ots, transcript_digest, UnitSplit, OT_KAPPA};
use cargo_mpc::wire::frame_checksum;
use cargo_mpc::{
    beaver_mul, cols_to_rows_scalar, cols_to_rows_simd, cols_to_rows_simd_into, combine_round,
    cr_hash_batch, cr_hash_scalar, mask_round, mul3, pair_key, plan_flights,
    plan_rounds, Dealer, Frame, IntoFrame, MgDraw, MgOfflineS1, MgOfflineS2, NetStats, OfflineMsg,
    PairDealer, PairTable, Ring64, RoundLanes, RoundSegment, ServerId, SimdTier, SplitMix64,
    WireMessage, GROUP_WORDS, MAX_FLIGHT_GROUPS,
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

/// The steps of the OT offline dialogue, in the order it runs them;
/// the last is every message's trip through the codec as a party makes
/// it: `into_frame` → `header` → `from_parts` → `from_frame`.
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
/// Passes of the whole dialogue the `mg/*` step rows take the median of.
const MG_PASSES: usize = 9;

/// Runs `f` and adds its wall time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// One pass of the offline dialogue over `plan` with a clock around
/// each step of both machines; every message crosses the codec exactly
/// as `mg_offline_over_wire` sends and receives it (typed message →
/// header + payload → checked frame → typed message). The second value
/// is the byte codec (`encode` / `decode`, header ‖ payload bytes) on a
/// copy of the same messages, timed apart and not part of the dialogue.
fn timed_dialogue(plan: &[MgDraw]) -> ([Duration; STEPS.len()], Duration) {
    let mut all = [Duration::ZERO; STEPS.len()];
    let mut byte_codec = Duration::ZERO;
    let (t, codec) = all.split_at_mut(CODEC);
    let mut s1 = MgOfflineS1::for_chunk(1, 0);
    let mut s2 = MgOfflineS2::for_chunk(1, 0);
    for (f, range) in plan_flights(plan).into_iter().enumerate() {
        let flight = &plan[range];
        let mut wire = |step: u8, words: Vec<u64>| {
            let msg = OfflineMsg { chunk: 0, flight: f as u32, step, words };
            let copy = msg.clone();
            timed(&mut byte_codec, || {
                black_box(OfflineMsg::decode(&copy.encode()).expect("round trip"))
            });
            timed(&mut codec[0], || {
                let frame = msg.into_frame();
                let header = frame.header().expect("a flight fits a frame");
                let frame = Frame::from_parts(&header, frame.payload).expect("intact");
                OfflineMsg::from_frame(frame).expect("an offline frame").words
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
    // dense cube of n = 32 users (the `ot-mem` plan), then the three
    // kernels inside the steps run on their own over one flight: an MG
    // costs 2 extends, 2 absorbs (one per direction: the one-pass
    // extension kernels, sums and corrections included) and 4 digests
    // (each party digests both `u` messages). These rows come first so
    // the dialogue's megabyte messages meet the fresh heap a party
    // meets; after the rows below the allocator recycles them and the
    // steps read cheaper than in a real run.
    {
        let n = 32u32;
        let plan: Vec<MgDraw> = (0..n)
            .flat_map(|i| (i + 1..n - 1).map(move |j| MgDraw::dense(i, j, n - 1 - j)))
            .collect();
        let groups: u64 = plan.iter().map(|d| d.groups as u64).sum();
        let passes: Vec<_> = (0..MG_PASSES).map(|_| timed_dialogue(&plan)).collect();
        for (s, name) in STEPS.iter().enumerate() {
            let step = median_iqr(passes.iter().map(|p| p.0[s]).collect());
            row(&format!("mg/{name}"), n as usize, groups, step, 0.0);
        }
        let total = median_iqr(passes.iter().map(|p| p.0.iter().sum()).collect());
        row("mg/sum", n as usize, groups, total, 0.0);
        let bytes = median_iqr(passes.iter().map(|p| p.1).collect());
        row("wire/byte_codec", n as usize, groups, bytes, 0.0);

        let flight_groups = MAX_FLIGHT_GROUPS.min(groups);
        let choice: Vec<u64> = (0..4 * flight_groups)
            .map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let a: Vec<u64> = choice.iter().map(|w| w.rotate_left(17)).collect();
        let words = choice.len();
        let tier = SimdTier::detect();
        let (mut sender, mut receiver) = simulated_base_ots(1);
        let (mut u, mut sums) = (vec![0u64; OT_KAPPA * words], vec![0u64; words]);
        let ns = measure_median_iqr_ns(12, budget, || {
            receiver.extend(tier, &choice, &mut u, &mut sums);
            black_box(sums[words - 1])
        });
        row("mg/extend", n as usize, flight_groups / 2, ns, 0.0);
        let mut d = vec![0u64; 64 * words];
        let ns = measure_median_iqr_ns(12, budget, || {
            sender.absorb(tier, &u, &a, UnitSplit::ALL_SENT, &mut d, &mut [], &mut sums);
            black_box(sums[words - 1])
        });
        row("mg/absorb", n as usize, flight_groups / 2, ns, 0.0);
        let ns = measure_median_iqr_ns(12, budget, || black_box(transcript_digest(&u)));
        row("mg/digest", n as usize, flight_groups / 4, ns, 0.0);
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

    // wire/*: one party of the wire Count over one default round of
    // triples in two shapes: `run`, one k-run of 1 024 triples, and
    // `mix`, the round with the median number of runs of `sparse-tcp`'s
    // plan (the Facebook preset's 120-user prefix at seed 1 on the
    // streamed sparse schedule: 271 runs, 3.8 triples each; the whole
    // plan averages 3.65). First the pair phase's mask pass over the
    // shape's pair set, per pair; then the round's two local steps, per
    // triple: its lane table (each lane's three pairs' columns copied
    // from the pair table) and the combine pass (the dealer words and
    // mask shares drawn in-lane; S₂ draws both servers' mask shares).
    // Then `local/*`, the same round as `count_local` evaluates it: each
    // server's lane table and combine pass in turn, per triple for both
    // servers. Last fill_words, the expansion of a group's four stream
    // words, per group. DESIGN.md §8.1 reads these rows.
    {
        let len = DEFAULT_COUNT_BATCH;
        let run = vec![RoundSegment { draw: 0, offset: 0, len }];
        let run_plan = vec![MgDraw::dense(3, 5, len as u32)];
        let run_pairs = CountScheduler::new(len + 6, 1, len).pair_set();
        let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 1);
        let csr = Arc::new(CsrGraph::from_graph(&full.induced_prefix(120)));
        let sched = CountScheduler::with_plan(120, 1, len, SchedulePlan::CsrStream(csr));
        let mix_plan: Vec<MgDraw> =
            sched.chunks().iter().flat_map(|c| sched.chunk_plan(c)).collect();
        // The full round with the median number of runs.
        let mut rounds = Vec::new();
        let mut cut = plan_rounds(&mix_plan, len);
        while let Some(round) = cut.next_round() {
            if round.iter().map(|seg| seg.len).sum::<usize>() == len {
                rounds.push(round.to_vec());
            }
        }
        rounds.sort_by_key(|round| round.len());
        let mix = rounds.swap_remove(rounds.len() / 2);
        let shapes = [("run", &run_plan, run, run_pairs), ("mix", &mix_plan, mix, sched.pair_set())];
        for (shape, plan, round, pairs) in shapes {
            let triples: usize = round.iter().map(|seg| seg.len).sum();
            let mut keys = Vec::new();
            pairs.for_each_run(0..pairs.len(), |_, i, j, run| {
                keys.extend((0..run as u32).map(|t| pair_key(i, j + t)));
            });
            let bits = vec![1u64; keys.len()];
            // The slots are looked up as the Count's rounds look them up:
            // a pair's own once, its runs' pairs in rows i and j from where
            // the last lookup in the row stopped.
            let push = |lanes: &mut RoundLanes, table: &PairTable| {
                lanes.clear();
                let (mut ij, mut rows) = (((u32::MAX, u32::MAX), 0), [0, 0]);
                for seg in &round {
                    let draw = &plan[seg.draw];
                    if ij.0 != (draw.i, draw.j) {
                        rows = [0, 0];
                        ij = ((draw.i, draw.j), pairs.slot_near(draw.i, draw.j, &mut rows[0]));
                    }
                    let k = draw.k_at(seg.offset) as u32;
                    let (ik, jk) =
                        (pairs.slot_near(draw.i, k, &mut rows[0]), pairs.slot_near(draw.j, k, &mut rows[1]));
                    lanes.push_run(table, draw, seg.offset, seg.len, [ij.1, ik, jk]);
                }
            };
            let servers = [ServerId::S1, ServerId::S2];
            let mut slabs = [vec![0u64; keys.len()], vec![0u64; keys.len()]];
            for (s, server) in servers.into_iter().enumerate() {
                let table = PairTable::new(7, server, false);
                let ns = measure_median_iqr_ns(12, budget, || {
                    mask_round(&table, &keys, &bits, &mut slabs[s]);
                    black_box(slabs[s][keys.len() - 1])
                });
                row(&format!("wire/mask/{shape}/{server:?}"), keys.len(), keys.len() as u64, ns, 8.0);
            }
            let opened: Vec<u64> =
                slabs[0].iter().zip(&slabs[1]).map(|(a, b)| a.wrapping_add(*b)).collect();
            let tables = servers.map(|server| {
                let mut table = PairTable::new(7, server, false);
                table.push(&opened);
                table
            });
            let mut lanes = tables.each_ref().map(|table| RoundLanes::new(table, triples));
            for ((server, table), lanes) in servers.into_iter().zip(&tables).zip(&mut lanes) {
                let ns = measure_median_iqr_ns(12, budget, || {
                    push(lanes, table);
                    black_box(lanes.len())
                });
                row(&format!("wire/lanes/{shape}/{server:?}"), triples, triples as u64, ns, 0.0);
                let ns = measure_median_iqr_ns(12, budget, || black_box(combine_round(lanes)));
                row(&format!("wire/combine/{shape}/{server:?}"), triples, triples as u64, ns, 0.0);
            }
            let ns = measure_median_iqr_ns(12, budget, || {
                let [d1, d2] = [0, 1].map(|s| {
                    push(&mut lanes[s], &tables[s]);
                    combine_round(&lanes[s])
                });
                black_box((d1, d2))
            });
            row(&format!("local/{shape}"), triples, triples as u64, ns, 0.0);
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
