//! Kernel-equivalence property suite: the batched structure-of-arrays
//! kernel ([`cargo_core::CountKernel::Bitsliced`]) may change *how*
//! the Multiplication-Group arithmetic is scheduled — lanes, slabs,
//! fused servers, bulk ledger updates — but never *what* it computes.
//!
//! For arbitrary (asymmetric!) bit matrices, the scalar and bitsliced
//! kernels must produce identical share pairs (hence identical
//! openings: every opened value is a deterministic function of the
//! shares both kernels already agree on), identical triple counts, and
//! identical online `NetStats` ledgers — across `threads × batch ×
//! offline-mode`, on the exact count and on the sampled estimator.

use cargo_core::{count_local, count_sampled, CountJob, CountKernel, OfflineMode};
use cargo_graph::BitMatrix;
use cargo_mpc::SplitMix64;
use proptest::prelude::*;

const THREADS: [usize; 2] = [1, 4];
const BATCHES: [usize; 3] = [1, 7, 64];

fn job(
    seed: u64,
    threads: usize,
    batch: usize,
    offline: OfflineMode,
    kernel: CountKernel,
) -> CountJob {
    CountJob { threads, batch, offline, kernel, ..CountJob::new(seed) }
}

/// Strategy: an arbitrary n×n bit matrix (not necessarily symmetric —
/// projection produces one-directional deletions) with a seeded
/// density in (0, 1).
fn arb_bit_matrix(max_n: usize) -> impl Strategy<Value = BitMatrix> {
    (3usize..max_n, 1u32..10, any::<u64>()).prop_map(|(n, tenths, seed)| {
        let mut rng = SplitMix64::new(seed);
        let threshold = (tenths as u64) * (u64::MAX / 10);
        let mut m = BitMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.next_u64() < threshold {
                    m.set(i, j, true);
                }
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kernels_agree_on_the_exact_count(
        m in arb_bit_matrix(40),
        seed: u64,
    ) {
        for threads in THREADS {
            for batch in BATCHES {
                let scalar = count_local(&m, &job(
                    seed, threads, batch, OfflineMode::TrustedDealer, CountKernel::Scalar));
                let batched = count_local(&m, &job(
                    seed, threads, batch, OfflineMode::TrustedDealer, CountKernel::Bitsliced));
                // Bit-identical shares — not merely equal
                // reconstructions — and the full online ledger:
                // elements, bytes, rounds, batches, peak batch.
                prop_assert_eq!(scalar, batched);
            }
        }
    }

    #[test]
    fn kernels_agree_under_the_ot_offline_mode(
        m in arb_bit_matrix(14),
        seed: u64,
        batch in 1usize..10,
    ) {
        // Small n: OT mode pays 512 extended OTs per triple. The
        // offline ledger must also coincide — both kernels drive the
        // same chunk-amortised sessions.
        let scalar = count_local(
            &m, &job(seed, 1, batch, OfflineMode::OtExtension, CountKernel::Scalar));
        let batched = count_local(
            &m, &job(seed, 1, batch, OfflineMode::OtExtension, CountKernel::Bitsliced));
        prop_assert_eq!(scalar, batched);
    }

    #[test]
    fn kernels_agree_on_the_sampled_estimator(
        m in arb_bit_matrix(30),
        seed: u64,
        rate_tenths in 1u32..=10,
        batch in 1usize..12,
    ) {
        let rate = rate_tenths as f64 / 10.0;
        for mode in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            let scalar = count_sampled(
                &m, rate, &job(seed, 1, batch, mode, CountKernel::Scalar));
            let batched = count_sampled(
                &m, rate, &job(seed, 1, batch, mode, CountKernel::Bitsliced));
            prop_assert_eq!(scalar, batched);
        }
    }
}

#[test]
fn kernels_agree_on_golden_fixtures() {
    // Deterministic anchor alongside the property tests: every golden
    // graph, both kernels, exact equality of the full result struct.
    for f in cargo_testutil::golden_fixtures() {
        let m = f.graph.to_bit_matrix();
        let scalar =
            count_local(&m, &job(0xCA60, 2, 0, OfflineMode::TrustedDealer, CountKernel::Scalar));
        let batched =
            count_local(&m, &job(0xCA60, 2, 0, OfflineMode::TrustedDealer, CountKernel::Bitsliced));
        assert_eq!(scalar, batched, "{}", f.name);
        assert_eq!(
            batched.reconstruct(),
            cargo_mpc::Ring64(f.triangles),
            "{}",
            f.name
        );
    }
}
