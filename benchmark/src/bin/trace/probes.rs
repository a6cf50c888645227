//! Probes: single layers driven directly, on inputs shaped like the
//! workload's (its frame size, its batch, its first chunk), for a
//! **fixed number of operations** — so a probe's value is a cost per
//! operation that can be multiplied back by the work counts of the
//! traced run.

use cargo_core::{CountScheduler, SchedulePlan, DEFAULT_COUNT_BATCH};
use cargo_mpc::{
    cols_to_rows_simd_into, cr_hash_batch, Frame, MgDraw, OpeningMsg, OtMgEngine, PairDealer,
    SimdTier, Transport, WireMessage, FRAME_HEADER_BYTES, MG_WORDS,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Round trips a ping-pong probe times.
const RTT_ROUND_TRIPS: usize = 20_000;
/// Frames the codec probes encode and decode.
const CODEC_FRAMES: usize = 20_000;
/// Multiplication groups the dealer and kernel probes process.
const KERNEL_GROUPS: usize = 64 * 20_000;
/// Rows (OTs) the transpose and hash probes process per pass.
const OT_ROWS: usize = 64 * 256;
/// Passes of the transpose and hash probes.
const OT_PASSES: usize = 200;

/// An online-phase frame of `wire_bytes` bytes on the wire (header
/// included), as a Count round sends it.
fn frame_of(wire_bytes: usize) -> Frame {
    let words = wire_bytes
        .saturating_sub(FRAME_HEADER_BYTES)
        .div_ceil(8)
        .max(1);
    OpeningMsg {
        chunk: 0,
        pair: (0, 1),
        k0: 2,
        efg: (0..words as u64)
            .map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
    }
    .to_frame()
}

/// Mean microseconds of one round trip of a `wire_bytes`-byte frame
/// between the two ends of a link, each end on its own thread — one
/// protocol round, with nothing to compute in it.
pub fn rtt_us<T: Transport>(a: &Arc<T>, b: &Arc<T>, wire_bytes: usize) -> f64 {
    let frame = frame_of(wire_bytes);
    let timeout = Some(a.recv_timeout());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            for _ in 0..RTT_ROUND_TRIPS {
                let got = b
                    .recv(frame.msg_type, frame.tag, timeout)
                    .expect("probe peer hung up");
                b.send(&got).expect("probe peer hung up");
            }
        });
        for _ in 0..RTT_ROUND_TRIPS {
            a.send(&frame).expect("probe peer hung up");
            black_box(
                a.recv(frame.msg_type, frame.tag, timeout)
                    .expect("probe peer hung up"),
            );
        }
        echo.join().expect("probe echo thread panicked");
    });
    t0.elapsed().as_secs_f64() * 1e6 / RTT_ROUND_TRIPS as f64
}

/// Codec cost on the workload's median frame.
#[derive(Debug, Clone, Copy)]
pub struct CodecCost {
    /// Encode + checksum, per byte on the wire.
    pub encode_ns_per_byte: f64,
    /// Checksum verify + decode, per byte on the wire.
    pub decode_ns_per_byte: f64,
    /// Encode + checksum, per frame.
    pub encode_ns_per_frame: f64,
}

/// Times `Frame::encode` and `Frame::decode` on a `wire_bytes` frame.
pub fn codec(wire_bytes: usize) -> CodecCost {
    let frame = frame_of(wire_bytes);
    let t0 = Instant::now();
    for _ in 0..CODEC_FRAMES {
        black_box(black_box(&frame).encode());
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / CODEC_FRAMES as f64;
    let bytes = frame.encode();
    let t0 = Instant::now();
    for _ in 0..CODEC_FRAMES {
        black_box(Frame::decode(black_box(&bytes)).expect("a frame this probe encoded"));
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / CODEC_FRAMES as f64;
    CodecCost {
        encode_ns_per_byte: encode_ns / bytes.len() as f64,
        decode_ns_per_byte: decode_ns / bytes.len() as f64,
        encode_ns_per_frame: encode_ns,
    }
}

/// Nanoseconds to expand one multiplication group's dealer words
/// (`PairDealer::fill_words`, one default batch at a time).
pub fn dealer_expand_ns_per_group(seed: u64) -> f64 {
    let mut words = vec![0u64; MG_WORDS * DEFAULT_COUNT_BATCH];
    let mut dealer = PairDealer::for_pair(seed, 0, 1);
    let blocks = KERNEL_GROUPS / DEFAULT_COUNT_BATCH;
    let t0 = Instant::now();
    for _ in 0..blocks {
        dealer.fill_words(black_box(&mut words));
    }
    black_box(&words);
    t0.elapsed().as_nanos() as f64 / (blocks * DEFAULT_COUNT_BATCH) as f64
}

/// Nanoseconds per triple of the fused Count kernel
/// (`PairDealer::count_block`: dealer expansion + the MG arithmetic),
/// one default batch at a time.
pub fn kernel_ns_per_triple(seed: u64) -> f64 {
    let b: Vec<u64> = (0..DEFAULT_COUNT_BATCH as u64)
        .map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .collect();
    let c: Vec<u64> = b.iter().map(|x| x.rotate_left(17)).collect();
    let mut dealer = PairDealer::for_pair(seed, 0, 1);
    let blocks = KERNEL_GROUPS / DEFAULT_COUNT_BATCH;
    let mut acc = (0u64, 0u64);
    let t0 = Instant::now();
    for i in 0..blocks {
        let (d1, d2) = dealer.count_block(black_box(i as u64), black_box(&b), black_box(&c));
        acc = (acc.0.wrapping_add(d1), acc.1.wrapping_add(d2));
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64 / (blocks * DEFAULT_COUNT_BATCH) as f64
}

/// The planner's cost and output on a workload's plan.
#[derive(Debug, Clone)]
pub struct PlanCost {
    /// `CountScheduler::with_plan` plus every chunk's `chunk_plan` —
    /// exactly what every Count path does to learn *which* triples to
    /// evaluate, and nothing of the evaluation.
    pub plan_s: f64,
    /// Chunks of the schedule.
    pub chunks: u64,
    /// Candidate triples of the schedule.
    pub candidates: u64,
    /// The first chunk's draw list (the OT probe's input).
    pub first_chunk: Vec<MgDraw>,
}

/// Times the planner walks a plan; the fastest walk is reported.
const PLAN_WALKS: usize = 3;

/// Builds the schedule for `plan` and walks all of it.
pub fn plan(n: usize, plan: SchedulePlan) -> PlanCost {
    let mut best: Option<PlanCost> = None;
    for _ in 0..PLAN_WALKS {
        let t0 = Instant::now();
        let sched = CountScheduler::with_plan(n, 1, 0, plan.clone());
        let mut first_chunk = Vec::new();
        for chunk in sched.chunks() {
            let draws = sched.chunk_plan(chunk);
            if chunk.id == 0 {
                first_chunk = draws;
            } else {
                black_box(draws);
            }
        }
        let cost = PlanCost {
            plan_s: t0.elapsed().as_secs_f64(),
            chunks: sched.chunks().len() as u64,
            candidates: sched.total_triples(),
            first_chunk,
        };
        if best.as_ref().is_none_or(|b| cost.plan_s < b.plan_s) {
            best = Some(cost);
        }
    }
    best.expect("PLAN_WALKS > 0")
}

/// The offline phase on one chunk.
#[derive(Debug, Clone, Copy)]
pub struct OfflineCost {
    /// Microseconds to preprocess one multiplication group, both
    /// servers' roles played in one thread (no link).
    pub preprocess_us_per_mg: f64,
    /// Offline bytes the dialogue would put on the wire, per group.
    pub bytes_per_mg: f64,
}

/// Runs `OtMgEngine::preprocess` on `draws` (a chunk's plan).
pub fn offline(seed: u64, draws: &[MgDraw]) -> OfflineCost {
    let groups: u64 = draws.iter().map(|d| u64::from(d.groups)).sum();
    let mut engine = OtMgEngine::for_chunk(seed, 0);
    let t0 = Instant::now();
    black_box(engine.preprocess(black_box(draws)));
    let seconds = t0.elapsed().as_secs_f64();
    OfflineCost {
        preprocess_us_per_mg: seconds * 1e6 / groups.max(1) as f64,
        bytes_per_mg: engine.ledger().bytes as f64 / groups.max(1) as f64,
    }
}

/// Nanoseconds per extended OT of the two vectorised inner loops of
/// OT extension, at the best SIMD tier of this CPU: the κ-column to
/// row transpose and the correlation-robust hash.
pub fn ot_inner_loops() -> (f64, f64) {
    let tier = SimdTier::detect();
    let words = OT_ROWS / 64;
    let cols: Vec<u64> = (0..(cargo_mpc::ot::OT_KAPPA * words) as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3))
        .collect();
    let (mut lo, mut hi) = (vec![0u64; OT_ROWS], vec![0u64; OT_ROWS]);
    let t0 = Instant::now();
    for _ in 0..OT_PASSES {
        cols_to_rows_simd_into(tier, black_box(&cols), words, &mut lo, &mut hi);
    }
    let transpose_ns = t0.elapsed().as_nanos() as f64 / (OT_PASSES * OT_ROWS) as f64;
    let mut out = vec![0u64; OT_ROWS];
    let t0 = Instant::now();
    for pass in 0..OT_PASSES {
        cr_hash_batch(
            tier,
            pass as u64,
            black_box(&lo),
            black_box(&hi),
            [3, 5],
            &mut out,
        );
    }
    black_box(&out);
    let hash_ns = t0.elapsed().as_nanos() as f64 / (OT_PASSES * OT_ROWS) as f64;
    (transpose_ns, hash_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_frames_have_the_requested_wire_size() {
        for wire in [40, 72, 104, 1568] {
            assert_eq!(frame_of(wire).encode().len(), wire);
        }
        // Below one word of payload the smallest real frame is used.
        assert_eq!(frame_of(0).encode().len(), FRAME_HEADER_BYTES + 8);
    }

    #[test]
    fn dense_plan_counts_every_triple() {
        let cost = plan(20, SchedulePlan::DenseCube);
        assert_eq!(cost.candidates, 20 * 19 * 18 / 6);
        assert!(cost.chunks >= 1);
        let groups: u64 = cost.first_chunk.iter().map(|d| u64::from(d.groups)).sum();
        assert!(groups > 0 && groups <= cost.candidates);
    }
}
