//! The offline **triple factory**: a bounded, background pool of
//! preprocessed MG material.
//!
//! The paper's cost split (measured by the repo benchmark's `ot-mem`
//! workload) makes the offline phase the wall: ~3 orders of magnitude
//! more time per Multiplication Group than the online evaluation. Production
//! deployments amortise that by running preprocessing *off the query
//! path* — triples are manufactured ahead of time and queries only
//! draw from a pool. [`TriplePool`] reproduces that shape:
//!
//! * **Factory threads** claim chunk ids in ascending order and run
//!   one [`OtMgEngine`] chunk session each
//!   (`OtMgEngine::for_chunk(root, chunk_id)` +
//!   [`OtMgEngine::preprocess`]), exactly the sessions the inline OT
//!   path runs — so the material, and therefore every derived share,
//!   is **bit-identical** to inline generation at any thread count.
//! * **Bounded depth**: at most `depth` chunks are in flight
//!   (generating or ready) at once; factories block on a free slot
//!   before claiming the next id. Because ids are claimed *inside*
//!   the slot acquisition, the in-flight window always covers the
//!   next chunk the consumer will draw — no `depth × threads`
//!   combination can deadlock.
//! * **Draw discipline**: consumers call [`TriplePool::take`] keyed by
//!   chunk id (the scheduler's `(pair, chunk)` order). Material is a
//!   pure function of `(root, chunk_id, plan)`, so draw timing,
//!   factory interleaving, and pool depth cannot change a single bit.
//! * **Backpressure** ([`Backpressure`]): a drained pool either blocks
//!   until the factory catches up ([`Backpressure::Block`], with a
//!   loud [`PoolError::Timeout`] guard instead of a silent hang) or
//!   fails immediately ([`Backpressure::FailFast`],
//!   [`PoolError::Drained`]) — the `RecvError`-style contract the
//!   concurrency suite pins.
//!
//! The pool is a *predistribution* stance, like
//! `DealerSource::Local` in the runtime: no offline bytes cross the
//! query-path link. The modeled [`OfflineLedger`] is unchanged — each
//! drawn chunk carries the same per-session ledger the inline engine
//! would have recorded (see PROTOCOL.md §"Pooled preprocessing").

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::channel::OfflineLedger;
use crate::offline::{MgChunkMaterial, MgDraw, OtMgEngine};

/// Default bounded pool depth (in chunks) when pooling is enabled but
/// no explicit depth is configured.
pub const DEFAULT_POOL_DEPTH: usize = 4;

/// Guard timeout for a blocking [`TriplePool::take`]: a pool that
/// cannot produce the requested chunk within this window reports
/// [`PoolError::Timeout`] instead of hanging the query path.
pub const POOL_BLOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// What a consumer experiences when it outruns the factory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block until the chunk is ready (guarded by
    /// [`POOL_BLOCK_TIMEOUT`]); the production default.
    Block,
    /// Error immediately with [`PoolError::Drained`] — a capacity
    /// probe: the draw path must never wait.
    FailFast,
}

impl std::str::FromStr for Backpressure {
    type Err = String;

    /// Parses `block` or `fail-fast` (also accepts `failfast`).
    ///
    /// ```
    /// use cargo_mpc::pool::Backpressure;
    /// assert_eq!("block".parse::<Backpressure>().unwrap(), Backpressure::Block);
    /// assert_eq!("fail-fast".parse::<Backpressure>().unwrap(), Backpressure::FailFast);
    /// assert!("drop".parse::<Backpressure>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "block" => Ok(Backpressure::Block),
            "fail-fast" | "failfast" => Ok(Backpressure::FailFast),
            other => Err(format!(
                "unknown backpressure `{other}` (expected `block` or `fail-fast`)"
            )),
        }
    }
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backpressure::Block => "block",
            Backpressure::FailFast => "fail-fast",
        })
    }
}

/// The pool knobs, as carried by `CargoConfig` and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPolicy {
    /// Background factory threads. `0` disables the pool (inline
    /// preprocessing on the query path — the default).
    pub factory_threads: usize,
    /// Bounded pool depth in chunks (ready + in generation).
    pub depth: usize,
    /// Drained-pool behaviour.
    pub backpressure: Backpressure,
}

impl PoolPolicy {
    /// Inline preprocessing: no pool at all.
    pub const INLINE: PoolPolicy = PoolPolicy {
        factory_threads: 0,
        depth: DEFAULT_POOL_DEPTH,
        backpressure: Backpressure::Block,
    };

    /// Whether a background pool should be spun up.
    pub fn enabled(&self) -> bool {
        self.factory_threads > 0
    }
}

impl Default for PoolPolicy {
    fn default() -> Self {
        PoolPolicy::INLINE
    }
}

/// Loud, `RecvError`-style failure of a pool draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// Fail-fast draw on a chunk the factory has not produced yet.
    Drained(u32),
    /// Every factory thread exited (shutdown or all chunks consumed)
    /// before the requested chunk could become ready.
    Disconnected,
    /// A blocking draw outwaited [`POOL_BLOCK_TIMEOUT`].
    Timeout,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Drained(c) => {
                write!(f, "triple pool drained (fail-fast): chunk {c} not ready")
            }
            PoolError::Disconnected => {
                f.write_str("triple pool factories exited before the chunk became ready")
            }
            PoolError::Timeout => f.write_str("timed out waiting for a pooled chunk"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Per-pool fill/drain/depth counters, folded into the stats reporting.
///
/// `fills`/`drains` are deterministic (one each per chunk on a
/// complete run). `peak_depth` is a *scheduling observable* — it
/// depends on thread timing — so it is deliberately excluded from
/// `PartialEq`: results that differ only in how full the pool happened
/// to get are the same protocol outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Chunks produced by factory threads.
    pub fills: u64,
    /// Chunks drawn by consumers.
    pub drains: u64,
    /// High-water mark of ready (filled, undrawn) chunks.
    pub peak_depth: u64,
}

impl PartialEq for PoolStats {
    fn eq(&self, other: &Self) -> bool {
        self.fills == other.fills && self.drains == other.drains
    }
}

impl Eq for PoolStats {}

/// One produced chunk: the MG material plus the offline ledger its
/// engine session recorded (identical to what the inline path would
/// have merged for this chunk).
type ChunkEntry = (MgChunkMaterial, OfflineLedger);

struct PoolState {
    /// Filled, undrawn chunks keyed by chunk id.
    ready: BTreeMap<u32, ChunkEntry>,
    /// Chunks claimed but not yet drained (generating + ready): the
    /// quantity bounded by `depth`.
    in_flight: usize,
    /// Next chunk id to claim.
    next: usize,
    /// Factory threads still running.
    live_factories: usize,
    fills: u64,
    drains: u64,
    peak_depth: u64,
}

struct Shared {
    root: u64,
    plans: Vec<Vec<MgDraw>>,
    depth: usize,
    stop: std::sync::atomic::AtomicBool,
    state: Mutex<PoolState>,
    /// Signalled when a chunk becomes ready or the factories exit.
    ready_cv: Condvar,
    /// Signalled when a drain frees an in-flight slot (or on stop).
    slot_cv: Condvar,
}

/// A background, multi-threaded factory of MG chunk material.
///
/// Construction spawns `policy.factory_threads` threads that fill a
/// bounded pool with [`OtMgEngine`] chunk sessions for `plans[0..]`;
/// [`TriplePool::take`] draws them keyed by chunk id. Dropping the
/// pool stops and **joins** every factory thread — no threads outlive
/// the pool.
pub struct TriplePool {
    shared: Arc<Shared>,
    backpressure: Backpressure,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TriplePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriplePool")
            .field("chunks", &self.shared.plans.len())
            .field("depth", &self.shared.depth)
            .field("factories", &self.handles.len())
            .field("backpressure", &self.backpressure)
            .finish()
    }
}

impl TriplePool {
    /// Spawns the factory for the given chunk plans. `root` is the
    /// offline root seed (the same one the inline OT path hands to
    /// `OtMgEngine::for_chunk(root, chunk_id)`), so pooled material is
    /// bit-identical to inline generation.
    ///
    /// # Panics
    /// Panics if `policy.factory_threads == 0` (use the inline path)
    /// or `policy.depth == 0`.
    pub fn new(root: u64, plans: Vec<Vec<MgDraw>>, policy: PoolPolicy) -> Self {
        assert!(policy.enabled(), "TriplePool requires factory_threads >= 1");
        assert!(policy.depth >= 1, "pool depth must be >= 1");
        let threads = policy.factory_threads;
        let shared = Arc::new(Shared {
            root,
            plans,
            depth: policy.depth,
            stop: std::sync::atomic::AtomicBool::new(false),
            state: Mutex::new(PoolState {
                ready: BTreeMap::new(),
                in_flight: 0,
                next: 0,
                live_factories: threads,
                fills: 0,
                drains: 0,
                peak_depth: 0,
            }),
            ready_cv: Condvar::new(),
            slot_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || factory_main(&sh))
            })
            .collect();
        TriplePool {
            shared,
            backpressure: policy.backpressure,
            handles,
        }
    }

    /// Number of chunks this pool will produce in total.
    pub fn chunks(&self) -> usize {
        self.shared.plans.len()
    }

    /// Draws chunk `chunk` (and its per-session offline ledger) from
    /// the pool. Material is a pure function of `(root, chunk, plan)`,
    /// so the result is independent of factory threading and pool
    /// depth.
    ///
    /// Under [`Backpressure::Block`] a not-yet-ready chunk blocks
    /// (bounded by [`POOL_BLOCK_TIMEOUT`]); under
    /// [`Backpressure::FailFast`] it returns [`PoolError::Drained`]
    /// immediately. Each chunk can be drawn exactly once.
    ///
    /// # Panics
    /// Panics if `chunk` is out of range or already drawn.
    pub fn take(&self, chunk: u32) -> Result<ChunkEntry, PoolError> {
        assert!(
            (chunk as usize) < self.shared.plans.len(),
            "chunk {chunk} out of range"
        );
        let deadline = Instant::now() + POOL_BLOCK_TIMEOUT;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let Some(entry) = st.ready.remove(&chunk) {
                st.in_flight -= 1;
                st.drains += 1;
                self.shared.slot_cv.notify_all();
                return Ok(entry);
            }
            match self.backpressure {
                Backpressure::FailFast => return Err(PoolError::Drained(chunk)),
                Backpressure::Block => {
                    if st.live_factories == 0 {
                        return Err(PoolError::Disconnected);
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(PoolError::Timeout);
                    }
                    let (guard, _) = self
                        .shared
                        .ready_cv
                        .wait_timeout(st, deadline - now)
                        .unwrap();
                    st = guard;
                }
            }
        }
    }

    /// Snapshot of the fill/drain/depth counters.
    pub fn stats(&self) -> PoolStats {
        let st = self.shared.state.lock().unwrap();
        PoolStats {
            fills: st.fills,
            drains: st.drains,
            peak_depth: st.peak_depth,
        }
    }

    /// Blocks until the factory has produced at least `n` chunks in
    /// total (fills are monotone) or every factory exited. Test/ops
    /// helper — e.g. prefill before a fail-fast run.
    pub fn wait_for_fills(&self, n: u64) {
        let mut st = self.shared.state.lock().unwrap();
        while st.fills < n && st.live_factories > 0 {
            st = self.shared.ready_cv.wait(st).unwrap();
        }
    }
}

impl Drop for TriplePool {
    fn drop(&mut self) {
        self.shared
            .stop
            .store(true, std::sync::atomic::Ordering::SeqCst);
        // Wake factories blocked on a slot and takers blocked on ready.
        {
            let _st = self.shared.state.lock().unwrap();
            self.shared.slot_cv.notify_all();
            self.shared.ready_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One factory thread: claim the next chunk id *inside* the bounded
/// slot acquisition (so the in-flight window is always the lowest
/// unproduced ids), generate outside the lock, publish, repeat.
fn factory_main(sh: &Shared) {
    use std::sync::atomic::Ordering;
    loop {
        let chunk = {
            let mut st = sh.state.lock().unwrap();
            loop {
                if sh.stop.load(Ordering::SeqCst) || st.next >= sh.plans.len() {
                    st.live_factories -= 1;
                    // Last one out wakes blocked takers so they can
                    // observe Disconnected instead of waiting out the
                    // guard timeout.
                    sh.ready_cv.notify_all();
                    return;
                }
                if st.in_flight < sh.depth {
                    st.in_flight += 1;
                    let c = st.next;
                    st.next += 1;
                    break c;
                }
                st = sh.slot_cv.wait(st).unwrap();
            }
        };
        let mut engine = OtMgEngine::for_chunk(sh.root, chunk as u64);
        let material = engine.preprocess(&sh.plans[chunk]);
        let ledger = engine.ledger();
        let mut st = sh.state.lock().unwrap();
        st.ready.insert(chunk as u32, (material, ledger));
        st.fills += 1;
        st.peak_depth = st.peak_depth.max(st.ready.len() as u64);
        sh.ready_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::chunk_offline_ledger;

    fn plans() -> Vec<Vec<MgDraw>> {
        (0..6u32)
            .map(|c| {
                vec![
                    MgDraw::dense(0, 1 + c, 3),
                    MgDraw::dense(1, 2 + c, 2),
                ]
            })
            .collect()
    }

    fn inline_entry(root: u64, chunk: u32, plan: &[MgDraw]) -> ChunkEntry {
        let mut engine = OtMgEngine::for_chunk(root, chunk as u64);
        let material = engine.preprocess(plan);
        (material, engine.ledger())
    }

    #[test]
    fn pooled_material_is_bit_identical_to_inline() {
        let root = 0xFEED;
        let plans = plans();
        for (threads, depth) in [(1usize, 1usize), (2, 1), (4, 2), (3, 16)] {
            let pool = TriplePool::new(
                root,
                plans.clone(),
                PoolPolicy {
                    factory_threads: threads,
                    depth,
                    backpressure: Backpressure::Block,
                },
            );
            for (c, plan) in plans.iter().enumerate() {
                let (material, ledger) = pool.take(c as u32).expect("chunk ready");
                let (want_m, want_l) = inline_entry(root, c as u32, plan);
                assert_eq!(ledger, want_l, "t{threads} d{depth} chunk {c} ledger");
                assert_eq!(ledger, chunk_offline_ledger(plan), "ledger matches the model");
                for idx in 0..plan.len() {
                    assert_eq!(
                        material.pair(idx),
                        want_m.pair(idx),
                        "t{threads} d{depth} chunk {c} pair {idx}"
                    );
                }
            }
            let stats = pool.stats();
            assert_eq!(stats.fills, plans.len() as u64);
            assert_eq!(stats.drains, plans.len() as u64);
        }
    }

    #[test]
    fn fail_fast_on_a_drained_pool_errors_loudly() {
        let plans = plans();
        let pool = TriplePool::new(
            7,
            plans.clone(),
            PoolPolicy {
                factory_threads: 1,
                depth: plans.len(),
                backpressure: Backpressure::FailFast,
            },
        );
        // Prefill everything, drain everything, then draw past the end
        // of what was produced for THIS take (already-drawn chunk would
        // panic; we probe a never-ready chunk via a fresh pool below).
        pool.wait_for_fills(plans.len() as u64);
        for c in 0..plans.len() as u32 {
            pool.take(c).expect("prefilled");
        }
        // A depth-1 fail-fast pool asked for the LAST chunk first: the
        // factory is filling chunk 0, so the draw must error, not hang.
        let pool = TriplePool::new(
            7,
            plans.clone(),
            PoolPolicy {
                factory_threads: 1,
                depth: 1,
                backpressure: Backpressure::FailFast,
            },
        );
        let last = (plans.len() - 1) as u32;
        assert_eq!(pool.take(last), Err(PoolError::Drained(last)));
    }

    #[test]
    fn out_of_order_draw_does_not_deadlock_at_depth_one() {
        // Ascending claims + bounded slots: even a depth-1 pool serves
        // an ascending consumer regardless of factory count.
        let plans = plans();
        for threads in [1usize, 2, 4] {
            let pool = TriplePool::new(
                9,
                plans.clone(),
                PoolPolicy {
                    factory_threads: threads,
                    depth: 1,
                    backpressure: Backpressure::Block,
                },
            );
            for c in 0..plans.len() as u32 {
                pool.take(c).expect("ascending draws always complete");
            }
        }
    }

    #[test]
    fn drop_joins_all_factory_threads() {
        let pool = TriplePool::new(
            3,
            plans(),
            PoolPolicy {
                factory_threads: 4,
                depth: 1,
                backpressure: Backpressure::Block,
            },
        );
        // Drop with most chunks unproduced: factories blocked on slots
        // must wake, exit, and be joined.
        drop(pool);
    }

    #[test]
    fn policy_parsing_round_trips() {
        assert_eq!(Backpressure::Block.to_string(), "block");
        assert_eq!(Backpressure::FailFast.to_string(), "fail-fast");
        assert_eq!(
            "fail-fast".parse::<Backpressure>().unwrap(),
            Backpressure::FailFast
        );
        assert!(PoolPolicy::INLINE.factory_threads == 0 && !PoolPolicy::INLINE.enabled());
        assert!(
            PoolPolicy {
                factory_threads: 2,
                ..PoolPolicy::INLINE
            }
            .enabled()
        );
    }
}
