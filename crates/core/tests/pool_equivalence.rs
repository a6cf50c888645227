//! Pooled-offline equivalence: the background triple factory must be
//! a pure *scheduling* change.
//!
//! Every Count path — the fast kernel, the sharded message-passing
//! runtime, and loopback TCP — must produce **bit-identical shares and
//! an unchanged modeled ledger** when preprocessing moves from the
//! inline query path onto a [`cargo_mpc::TriplePool`], at every
//! `factory_threads × pool_depth` grid point (the `(pair, chunk)` draw
//! key decides every bit, not factory timing). The fail-fast
//! backpressure discipline must surface a drained pool as a loud
//! `RecvError`-style error, never a deadlock.

use cargo_core::{count_local, count_two_party, CountJob, CountScheduler, OfflineMode};
use cargo_graph::generators::erdos_renyi;
use cargo_mpc::{
    memory_pair, Backpressure, PoolError, PoolPolicy, TcpConfig, TcpTransport, TriplePool,
};
use std::sync::Arc;

fn block_policy(factory_threads: usize, depth: usize) -> PoolPolicy {
    PoolPolicy {
        factory_threads,
        depth,
        backpressure: Backpressure::Block,
    }
}

/// The OT-mode job under `pool` (`PoolPolicy::INLINE` preprocesses on
/// the query path).
fn ot_job(seed: u64, threads: usize, batch: usize, pool: PoolPolicy) -> CountJob {
    CountJob { threads, batch, offline: OfflineMode::OtExtension, pool, ..CountJob::new(seed) }
}

#[test]
fn pooled_kernel_matches_dealer_and_inline_ot_at_every_grid_point() {
    let m = erdos_renyi(26, 0.3, 9).to_bit_matrix();
    let (seed, threads, batch) = (17u64, 2usize, 8usize);
    let dealer = count_local(&m, &CountJob { threads, batch, ..CountJob::new(seed) });
    let inline_ot = count_local(&m, &ot_job(seed, threads, batch, PoolPolicy::INLINE));
    assert_eq!(inline_ot.share1, dealer.share1);
    assert_eq!(inline_ot.share2, dealer.share2);
    let chunks = CountScheduler::new(m.n(), threads, batch).chunks().len() as u64;
    for factory_threads in [1usize, 2, 4] {
        for depth in [1usize, chunks as usize] {
            let pooled = count_local(
                &m,
                &ot_job(seed, threads, batch, block_policy(factory_threads, depth)),
            );
            let tag = format!("t{factory_threads} d{depth}");
            assert_eq!(pooled.share1, dealer.share1, "{tag}: share1 == dealer");
            assert_eq!(pooled.share2, dealer.share2, "{tag}: share2 == dealer");
            assert_eq!(pooled.net, inline_ot.net, "{tag}: ledger == inline OT");
            assert_eq!(pooled.triples, inline_ot.triples, "{tag}");
            assert_eq!(pooled.pool.fills, chunks, "{tag}: every chunk produced");
            assert_eq!(pooled.pool.drains, chunks, "{tag}: every chunk consumed");
        }
    }
}

#[test]
fn pooled_runtime_matches_the_inline_ot_runtime() {
    // The message-passing runtime with per-server pools: shares, the
    // online ledger AND the modeled offline ledger coincide with the
    // inline OT dialogue (no offline bytes cross the link, but the
    // generation cost is still costed identically).
    let m = erdos_renyi(24, 0.3, 4).to_bit_matrix();
    let over_memory = |pool| {
        let (end1, end2) = memory_pair();
        count_two_party(&m, &ot_job(7, 2, 8, pool), &Arc::new(end1), &Arc::new(end2))
    };
    let inline = over_memory(PoolPolicy::INLINE);
    for factory_threads in [1usize, 2] {
        for depth in [1usize, 16] {
            let pooled = over_memory(block_policy(factory_threads, depth));
            let tag = format!("t{factory_threads} d{depth}");
            assert_eq!(pooled.share1, inline.share1, "{tag}");
            assert_eq!(pooled.share2, inline.share2, "{tag}");
            assert_eq!(pooled.net, inline.net, "{tag}: full NetStats");
            assert!(pooled.pool.fills > 0, "{tag}: the factory ran");
        }
    }
}

#[test]
fn pooled_tcp_runtime_matches_the_fast_pooled_path() {
    // Real loopback sockets under a pooled offline phase: only online
    // openings cross the wire, and the result is still bit-identical
    // to the fast path in OT mode.
    let m = erdos_renyi(20, 0.3, 2).to_bit_matrix();
    let fast = count_local(&m, &ot_job(3, 1, 16, PoolPolicy::INLINE));
    let (end1, end2, _) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
    let tcp =
        count_two_party(&m, &ot_job(3, 2, 16, block_policy(2, 2)), &Arc::new(end1), &Arc::new(end2));
    assert_eq!(tcp.share1, fast.share1);
    assert_eq!(tcp.share2, fast.share2);
    assert_eq!(tcp.net, fast.net, "full NetStats incl. offline ledger");
    assert_eq!(tcp.net.wire_bytes, tcp.net.online().bytes, "measured == modeled online");
}

#[test]
fn drained_fail_fast_pool_fails_loudly_on_scheduler_plans() {
    // The exact plans the Count scheduler feeds the pool, under the
    // fail-fast discipline: asking for the last chunk while a depth-1
    // factory grinds chunk 0 errors immediately (RecvError-style),
    // instead of deadlocking the query path.
    let sched = CountScheduler::new(40, 4, 8);
    let plans: Vec<_> = sched.chunks().iter().map(|c| sched.chunk_plan(c)).collect();
    assert!(plans.len() > 1, "need multiple chunks to drain");
    let last = (plans.len() - 1) as u32;
    let pool = TriplePool::new(
        11,
        plans,
        PoolPolicy {
            factory_threads: 1,
            depth: 1,
            backpressure: Backpressure::FailFast,
        },
    );
    match pool.take(last) {
        Err(PoolError::Drained(c)) => assert_eq!(c, last),
        other => panic!("expected PoolError::Drained, got {other:?}"),
    }
}
