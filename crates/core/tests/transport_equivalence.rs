//! Transport-equivalence suite: promoting the wire from a model to a
//! measurement must never change a single bit of the protocol.
//!
//! Two families of pins:
//!
//! 1. **Bit-identical results across transports.** For an `n × batch`
//!    grid across `threads × kernel × offline-mode`, the fast
//!    in-process kernel, the message-passing runtime over the
//!    in-memory byte transport, and the same runtime over real
//!    loopback TCP sockets produce identical shares and identical
//!    **full** `NetStats` structs.
//! 2. **Measured == modeled, exactly.** `NetStats::wire_bytes` is the
//!    online payload the transport actually serialised (both
//!    directions); on modeled paths it tracks `bytes` by construction.
//!    The equality is an invariant, not a tolerance (DESIGN.md §8):
//!    a single byte of drift between the codec, the transports, and
//!    the cost model fails these tests. The grid covers all three
//!    Count paths — exact fast kernel, message-passing runtime, and
//!    sampled estimator.

use cargo_core::{
    count_local, count_sampled, count_two_party, CountJob, CountKernel, OfflineMode,
    SecureCountResult,
};
use cargo_graph::BitMatrix;
use cargo_mpc::{memory_pair, SplitMix64, TcpConfig, TcpTransport};
use proptest::prelude::*;
use std::sync::Arc;

fn job(seed: u64, threads: usize, batch: usize, offline: OfflineMode) -> CountJob {
    CountJob { threads, batch, offline, ..CountJob::new(seed) }
}

/// Both server pools over the in-memory byte transport.
fn over_memory(m: &BitMatrix, job: &CountJob) -> SecureCountResult {
    let (end1, end2) = memory_pair();
    count_two_party(m, job, &Arc::new(end1), &Arc::new(end2))
}

/// An arbitrary (possibly asymmetric) bit matrix, sized for the OT
/// grid (512 extended OTs per triple).
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pin family 1 for the in-memory byte transport, on the full
    /// threads × batch × kernel × offline-mode grid.
    #[test]
    fn memory_transport_runtime_equals_fast_path_on_the_grid(
        m in arb_bit_matrix(28),
        seed in any::<u64>(),
    ) {
        for mode in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            for kernel in [CountKernel::Bitsliced, CountKernel::Scalar] {
                for (threads, batch) in [(1usize, 1usize), (2, 7), (3, 0)] {
                    let fast = count_local(&m, &CountJob { kernel, ..job(seed, 1, batch, mode) });
                    let rt = over_memory(&m, &job(seed, threads, batch, mode));
                    prop_assert_eq!(rt.share1, fast.share1);
                    prop_assert_eq!(rt.share2, fast.share2);
                    prop_assert_eq!(rt.net, fast.net);
                    prop_assert_eq!(rt.net.wire_bytes, rt.net.online().bytes);
                }
            }
        }
    }

    /// Pin family 2 on all three Count paths: measured (or modeled)
    /// wire_bytes equals the modeled online byte ledger exactly, for
    /// an n × batch grid.
    #[test]
    fn wire_bytes_equal_modeled_online_bytes_on_every_count_path(
        m in arb_bit_matrix(26),
        seed in any::<u64>(),
    ) {
        for batch in [1usize, 5, 0] {
            // Path 1: the exact fast kernel (modeled wire).
            let fast = count_local(&m, &job(seed, 1, batch, OfflineMode::TrustedDealer));
            prop_assert_eq!(fast.net.wire_bytes, fast.net.online().bytes);
            // Path 2: the message-passing runtime (measured wire).
            let rt = over_memory(&m, &job(seed, 2, batch, OfflineMode::TrustedDealer));
            prop_assert_eq!(rt.net.wire_bytes, rt.net.online().bytes);
            prop_assert_eq!(rt.net.wire_bytes, fast.net.wire_bytes);
            // Path 3: the sampled estimator (modeled wire).
            let sampled =
                count_sampled(&m, 0.5, &job(seed, 1, batch, OfflineMode::TrustedDealer));
            prop_assert_eq!(sampled.net.wire_bytes, sampled.net.online().bytes);
        }
    }
}

/// Pin family 1 over real loopback sockets (deterministic seeds — TCP
/// runs cost a socket pair each, so the grid is explicit rather than
/// property-driven).
#[test]
fn tcp_transport_runtime_equals_fast_path_on_the_grid() {
    let mut rng = SplitMix64::new(0x7C9);
    for n in [9usize, 21, 34] {
        let mut m = BitMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.next_u64().is_multiple_of(3) {
                    m.set(i, j, true);
                }
            }
        }
        for (threads, batch, mode) in [
            (1usize, 1usize, OfflineMode::TrustedDealer),
            (2, 16, OfflineMode::TrustedDealer),
            (2, 0, OfflineMode::OtExtension),
        ] {
            let fast = count_local(&m, &job(n as u64, 1, batch, mode));
            let (end1, end2, _) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
            let tcp = count_two_party(
                &m,
                &job(n as u64, threads, batch, mode),
                &Arc::new(end1),
                &Arc::new(end2),
            );
            assert_eq!(tcp.share1, fast.share1, "n={n} t={threads} b={batch}");
            assert_eq!(tcp.share2, fast.share2, "n={n} t={threads} b={batch}");
            assert_eq!(tcp.net, fast.net, "n={n} {mode:?}: measured == modeled");
            assert_eq!(tcp.net.wire_bytes, tcp.net.online().bytes);
        }
    }
}
