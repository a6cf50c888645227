//! Algorithm 4 — `Count`: ASS-based secure triangle counting.
//!
//! Every user secret-shares each bit of her (projected) adjacent bit
//! vector to the two servers; the servers then evaluate, for every
//! scheduled triple `i < j < k`, the three-value product
//! `u = a_ij · a_ik · a_jk` with the Multiplication-Group protocol of
//! [`cargo_mpc::triple_mul`] and accumulate `⟨T⟩₁, ⟨T⟩₂`. Neither
//! server learns anything: every opened value is one-time-padded, and
//! the accumulated shares are uniform.
//!
//! ## One request, one function per execution model
//!
//! A [`CountJob`] names every knob of a Count run; the executors differ
//! only in *where* the two servers live:
//!
//! | Executor | Shape |
//! |---|---|
//! | [`count_local`] | both servers' arithmetic in one loop (this module) — over a [`BitMatrix`] or, with no `n × n` storage, a [`CsrGraph`] |
//! | [`crate::count_runtime::count_party`] | one server over a live [`cargo_mpc::Transport`] link |
//! | [`crate::count_runtime::count_two_party`] | two [`count_party`](crate::count_runtime::count_party)s, one per end of a caller-made link pair |
//! | [`crate::count_sampled::count_sampled`] | [`count_local`] over a plan thinned by a public coin — the triple-sampling estimator |
//!
//! All of them produce **bit-identical** share pairs and ledgers for
//! the same job (the equivalence suites under `crates/core/tests/` pin
//! this); [`secure_count_reference`] is the un-inlined protocol object
//! they are anchored to.
//!
//! ## Engineering notes
//!
//! * **Share expansion.** User bit shares are expanded from a PRF
//!   (`⟨a_ij⟩₁ = PRF(seed, i, j)`, `⟨a_ij⟩₂ = a_ij − ⟨a_ij⟩₁`) instead of
//!   materialising two `n × n` ring matrices; this mirrors how real
//!   deployments compress input sharing with a PRG and keeps the memory
//!   footprint at the bit matrix itself.
//! * **Scheduling.** The `(i, j)` pair space is partitioned by the
//!   shared [`CountScheduler`]; dealer randomness is keyed *per pair*
//!   ([`cargo_mpc::PairDealer`]), so the share pairs are bit-identical
//!   for every thread count and batch size.
//! * **One kernel.** A chunk's draw plan is cut into the rounds the wire
//!   parties cut ([`cargo_mpc::plan_rounds`]), each round becomes one
//!   lane table, one lane per triple ([`RoundLanes`]), and one
//!   lane-parallel pass evaluates it, whatever `k`-runs the round is cut
//!   from and whatever the material source: [`cargo_mpc::count_round`]
//!   here, both servers at once; [`cargo_mpc::mask_round`] and
//!   [`cargo_mpc::combine_round`] on either side of the exchange on the
//!   wire. The segments become lanes in one place (`push_round`).
//! * **Communication accounting.** Algorithm 4's multiplications are
//!   mutually independent, so the `e, f, g` openings of a scheduler
//!   chunk travel `batch` triples a round
//!   ([`crate::count_sched::DEFAULT_COUNT_BATCH`] by default) **across
//!   `k`-run and pair boundaries** — `3·batch` elements each way, one
//!   short round at the chunk's end — which is how any sane deployment
//!   would schedule them. The workers here tally that in closed form
//!   ([`NetStats::exchange_triples`], once per chunk); the wire
//!   executors cut the very same rounds with [`cargo_mpc::plan_rounds`].
//!   Element/byte counts are per-triple exact.

use crate::config::CargoConfig;
use crate::count_sched::{CountScheduler, PairChunk, SchedulePlan};
use cargo_graph::{BitMatrix, CsrGraph};
use cargo_mpc::{
    count_round, mul3, ot_setup_ledger, plan_rounds, share_prf, MgDraw, NetStats, OfflineMode,
    OtMgEngine, PairDealer, PoolPolicy, PoolStats, Ring64, RoundLanes, RoundSegment, TriplePool,
    LANES,
};
use std::sync::Arc;

/// Pinned by the benchmark harness, which passes it to
/// [`secure_triangle_count_streamed`]; that function ignores it.
#[doc(hidden)]
pub const DEFAULT_TILE_THRESHOLD: u32 = LANES as u32;

/// Tweak XORed into the root seed to derive the Count phase's seed —
/// read only by [`CountJob::from_config`], so the monolithic system,
/// the party pipeline and the serve sessions can never desynchronise.
const COUNT_SEED_TWEAK: u64 = 0xC0DE;

/// Result of the secure count: the two servers' shares of the exact
/// triangle count plus cost accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecureCountResult {
    /// Server S₁'s share `⟨T⟩₁`.
    pub share1: Ring64,
    /// Server S₂'s share `⟨T⟩₂`.
    pub share2: Ring64,
    /// Server↔server traffic of the online phase.
    pub net: NetStats,
    /// Ring elements uploaded by users when input-sharing their bit
    /// vectors (`2n²`: each of `n` users shares `n` bits to 2 servers).
    pub upload_elements: u64,
    /// Number of triples evaluated (`C(n, 3)` on the dense cube).
    pub triples: u64,
    /// Triple-pool counters (all zero when preprocessing ran inline;
    /// see [`cargo_mpc::PoolStats`] for why `peak_depth` is excluded
    /// from equality).
    pub pool: PoolStats,
}

impl SecureCountResult {
    /// Reconstructs the exact count (done only at the very end of the
    /// pipeline, after noise has been added — exposed for tests and for
    /// the non-private ablation).
    pub fn reconstruct(&self) -> Ring64 {
        self.share1 + self.share2
    }
}

/// One Count request: everything that decides *what* is computed and
/// how it is scheduled, independent of *where* the two servers run.
/// Hand the same job to [`count_local`],
/// [`count_party`](crate::count_runtime::count_party) or
/// [`count_two_party`](crate::count_runtime::count_two_party) and the
/// share pair, the triple count and the modeled [`NetStats`] are
/// bit-identical. Build one with struct-update syntax:
///
/// ```
/// use cargo_core::{count_local, CountJob, OfflineMode};
/// use cargo_graph::generators::erdos_renyi;
/// let m = erdos_renyi(30, 0.3, 1).to_bit_matrix();
/// let dealer = count_local(&m, &CountJob::new(7));
/// let ot = count_local(&m, &CountJob { offline: OfflineMode::OtExtension, ..CountJob::new(7) });
/// assert_eq!((ot.share1, ot.share2), (dealer.share1, dealer.share2));
/// ```
#[derive(Debug, Clone)]
pub struct CountJob {
    /// Keys every random choice (input shares + dealer streams).
    pub seed: u64,
    /// Worker threads (per server on the wire executors); `0` ⇒ all
    /// cores. The result is identical for every thread count.
    pub threads: usize,
    /// Triples per communication round (and the most one PRG block
    /// expands); `0` ⇒ [`crate::count_sched::DEFAULT_COUNT_BATCH`]. A
    /// round is filled across `k`-runs and pairs, so a chunk of `W`
    /// triples costs `⌈W/batch⌉` rounds. Shares and element counts are
    /// identical for every batch; only wall-clock and round granularity
    /// change.
    pub batch: usize,
    /// Where the Multiplication Groups come from: the seeded trusted
    /// dealer, or the chunk-amortised IKNP/Gilboa OT-extension offline
    /// phase ([`cargo_mpc::OtMgEngine`]) — one extension session per
    /// scheduler chunk, its cost in [`NetStats::offline`] (per-flight
    /// traffic plus one global base-OT setup). Shares and the online
    /// ledger are bit-identical either way.
    pub offline: OfflineMode,
    /// Background triple factory for the OT offline phase: when
    /// enabled, chunk material is drawn from a [`TriplePool`] keyed by
    /// chunk id instead of being preprocessed on the query path.
    /// Material is a pure function of `(seed, chunk, plan)`, so shares
    /// and the modeled ledger equal the inline run's at every
    /// `factory_threads × depth`; a drained fail-fast pool panics
    /// loudly instead of deadlocking. Ignored under
    /// [`OfflineMode::TrustedDealer`], which has no offline phase to
    /// pool.
    pub pool: PoolPolicy,
    /// Which triples are evaluated. Every surviving triple's
    /// Multiplication Group is drawn at its **canonical** dealer-stream
    /// position, so its share pair is the one the dense cube produces
    /// for that triple; the execution's shape (chunking, rounds,
    /// offline ledger) is a pure function of the public plan. Both
    /// wire parties must be handed the same plan.
    pub plan: SchedulePlan,
}

impl CountJob {
    /// The default job under `seed`: one worker, default batch, trusted
    /// dealer, inline preprocessing, dense cube.
    pub fn new(seed: u64) -> Self {
        CountJob {
            seed,
            threads: 1,
            batch: 0,
            offline: OfflineMode::TrustedDealer,
            pool: PoolPolicy::INLINE,
            plan: SchedulePlan::DenseCube,
        }
    }

    /// The job a pipeline configuration describes, over `plan` — the
    /// one place the Count seed is derived from the root seed and the
    /// config's `0 ⇒ default` knobs are resolved.
    pub fn from_config(cfg: &CargoConfig, plan: SchedulePlan) -> Self {
        CountJob {
            threads: cfg.effective_threads(),
            batch: cfg.effective_batch(),
            offline: cfg.offline,
            pool: cfg.pool_policy(),
            plan,
            ..CountJob::new(cfg.seed ^ COUNT_SEED_TWEAK)
        }
    }

    /// The job's scheduler over an `n × n` input.
    pub(crate) fn scheduler(&self, n: usize) -> CountScheduler {
        CountScheduler::with_plan(n, self.threads, self.batch, self.plan.clone())
    }

    /// [`CountJob::scheduler`] for the in-process executors: spawning
    /// workers for sub-millisecond inputs costs more than it saves, and
    /// randomness is per-pair, so clamping cannot change shares.
    pub(crate) fn local_scheduler(&self, n: usize) -> CountScheduler {
        let threads = if n < 64 { 1 } else { self.threads };
        CountScheduler::with_plan(n, threads, self.batch, self.plan.clone())
    }

    /// Starts the background triple factory when the job asks for one
    /// and there is an offline phase to pool.
    pub(crate) fn spawn_pool(&self, sched: &CountScheduler) -> Option<TriplePool> {
        if !self.pool.enabled()
            || self.offline != OfflineMode::OtExtension
            || sched.chunks().is_empty()
        {
            return None;
        }
        let plans = sched.chunks().iter().map(|c| sched.chunk_plan(c)).collect();
        Some(TriplePool::new(self.seed, plans, self.pool))
    }
}

/// What [`count_local`] counts over: the dense bit matrix, or CSR
/// neighbor slices with no `n × n` storage anywhere (at n = 10⁶ a
/// [`BitMatrix`] would be 125 GB; a CSR run peaks at the CSR arrays
/// plus O(chunk) scratch per worker).
#[derive(Debug, Clone, Copy)]
pub enum CountInput<'a> {
    /// The (projected, possibly asymmetric) adjacency matrix.
    Matrix(&'a BitMatrix),
    /// A graph that is both the data and — under
    /// [`SchedulePlan::CsrStream`] of the same graph — the candidate
    /// structure: every scheduled adjacency bit is then 1 by
    /// construction, while the MPC evaluation runs unchanged.
    Csr(&'a CsrGraph),
}

impl<'a> From<&'a BitMatrix> for CountInput<'a> {
    fn from(m: &'a BitMatrix) -> Self {
        CountInput::Matrix(m)
    }
}

impl<'a> From<&'a CsrGraph> for CountInput<'a> {
    fn from(g: &'a CsrGraph) -> Self {
        CountInput::Csr(g)
    }
}

/// Runs `job` in-process, both servers' arithmetic in one pass per
/// round — the fast simulation every other executor is pinned to, and
/// itself pinned share for share to [`secure_count_reference`]. It cuts
/// the rounds the wire parties cut and evaluates each with
/// [`count_round`], so it differs from
/// [`count_two_party`](crate::count_runtime::count_two_party) in the
/// link only. Input kind, plan, offline mode and pool are orthogonal: a
/// CSR input in OT mode over the eager sparse plan is as valid as the
/// dense matrix cube.
///
/// # Panics
/// Panics if a fail-fast pool is drained.
pub fn count_local<'a>(input: impl Into<CountInput<'a>>, job: &CountJob) -> SecureCountResult {
    match input.into() {
        CountInput::Matrix(m) => run_scheduled(m, job, &job.local_scheduler(m.n())),
        CountInput::Csr(g) => run_scheduled(g, job, &job.local_scheduler(g.n())),
    }
}

/// [`count_local`] past scheduler construction: runs `job`'s workers
/// over `sched`'s chunks and sums the parts. `sched` is the job's own
/// [`CountJob::local_scheduler`], or that scheduler under the sampled
/// estimator's plan filter — the workers only ever see a draw plan.
pub(crate) fn run_scheduled<B: AdjacencyBits>(
    bits: &B,
    job: &CountJob,
    sched: &CountScheduler,
) -> SecureCountResult {
    let pool = job.spawn_pool(sched);
    let parts = sched.run_chunks(|chunk| chunk_part(bits, job, sched, chunk, pool.as_ref()));
    let pool = pool.map(|p| p.stats()).unwrap_or_default();
    finish(sched, job.offline, parts, pool)
}

/// Pinned by `benchmark/src/sut.rs` and
/// `benchmark/src/bin/trace/streamed.rs`, which call it positionally;
/// `_tile_threshold` is ignored.
#[doc(hidden)]
pub fn secure_triangle_count_streamed(
    csr: &Arc<CsrGraph>,
    seed: u64,
    threads: usize,
    batch: usize,
    _tile_threshold: u32,
) -> SecureCountResult {
    let plan = SchedulePlan::CsrStream(Arc::clone(csr));
    count_local(&**csr, &CountJob { threads, batch, plan, ..CountJob::new(seed) })
}

/// One worker's (or one chunk's) contribution to a run:
/// `(⟨T⟩₁ part, ⟨T⟩₂ part, ledger part, triples evaluated)`.
pub(crate) type CountPart = (Ring64, Ring64, NetStats, u64);

/// Sums the parts of a run over `sched` into its result — the one
/// reduction every executor ends with. In OT mode a non-empty run also
/// pays the single base-OT setup (per-chunk extension sessions are
/// derived locally from it).
pub(crate) fn finish(
    sched: &CountScheduler,
    offline: OfflineMode,
    parts: impl IntoIterator<Item = CountPart>,
    pool: PoolStats,
) -> SecureCountResult {
    let mut share1 = Ring64::ZERO;
    let mut share2 = Ring64::ZERO;
    let mut net = NetStats::new();
    let mut triples = 0u64;
    for (s1, s2, stats, t) in parts {
        share1 += s1;
        share2 += s2;
        net.merge(&stats);
        triples += t;
    }
    if offline == OfflineMode::OtExtension && !sched.chunks().is_empty() {
        net.offline.merge(&ot_setup_ledger());
    }
    let n = sched.n() as u64;
    SecureCountResult { share1, share2, net, upload_elements: 2 * n * n, triples, pool }
}

/// Adjacency-bit source of the chunk workers: the one interface that
/// lets the same worker read a dense [`BitMatrix`] or a [`CsrGraph`]
/// with no `n × n` storage. Both report `{0, 1}` as `u64` words, the
/// shape a [`RoundLanes`] bit column holds.
pub(crate) trait AdjacencyBits: Sync {
    /// The adjacency bit `A[u][v]`.
    fn bit(&self, u: usize, v: usize) -> u64;
    /// Fills `out[t] = A[u][k0 + t]` for every `t`.
    fn fill_bits(&self, u: usize, k0: usize, out: &mut [u64]);
}

impl AdjacencyBits for BitMatrix {
    #[inline]
    fn bit(&self, u: usize, v: usize) -> u64 {
        self.row(u).get(v) as u64
    }

    #[inline]
    fn fill_bits(&self, u: usize, k0: usize, out: &mut [u64]) {
        self.row(u).fill_bits_u64(k0, out);
    }
}

/// The million-node source. `fill_bits` scatters the (sorted)
/// neighbors that land in `[k0, k0 + out.len())` into an all-zero
/// window; on sparse-schedule candidate runs every bit is 1 by
/// construction, so this agrees with the dense matrix wherever the
/// schedule actually looks.
impl AdjacencyBits for CsrGraph {
    #[inline]
    fn bit(&self, u: usize, v: usize) -> u64 {
        self.has_edge(u, v) as u64
    }

    #[inline]
    fn fill_bits(&self, u: usize, k0: usize, out: &mut [u64]) {
        out.fill(0);
        let nei = self.neighbors(u);
        let lo = k0 as u32;
        let mut at = nei.partition_point(|&x| x < lo);
        while at < nei.len() {
            let rel = (nei[at] as usize) - k0;
            if rel >= out.len() {
                break;
            }
            out[rel] = 1;
            at += 1;
        }
    }
}

/// Appends `round`, a cut of `plan`, to the emptied `lanes`: one
/// [`RoundLanes::push_run`] per segment, its first secret `a(draw)`,
/// and — where the table holds plaintext bits (S₂'s, or a fused
/// table's) — rows `i` and `j` of `bits` over the segment's columns.
/// A signed plan's `signs` are the sign masks of the chunk's triples
/// from the round's first on ([`CountScheduler::chunk_signs`]). The one
/// place a round's segments become lanes, for [`count_local`] and the
/// wire party alike.
pub(crate) fn push_round<B: AdjacencyBits>(
    lanes: &mut RoundLanes,
    bits: &B,
    plan: &[MgDraw],
    round: &[RoundSegment],
    signs: Option<&[u64]>,
    a: impl Fn(&MgDraw) -> u64,
) {
    lanes.clear();
    for seg in round {
        let d = &plan[seg.draw];
        let k = d.k_at(seg.offset);
        if let Some([b, c]) = lanes.push_run(d, seg.offset, seg.len, a(d)) {
            bits.fill_bits(d.i as usize, k, b);
            bits.fill_bits(d.j as usize, k, c);
        }
    }
    if let Some(signs) = signs {
        lanes.set_signs(&signs[..lanes.len()]);
    }
}

/// Evaluates every triple of one pair-space chunk, both servers at
/// once. The chunk's **draw plan** — one `(pair, k-run)` per
/// [`MgDraw`], at the run's canonical stream offset — is cut into the
/// rounds [`plan_rounds`] cuts for the wire, each round filled into one
/// fused [`RoundLanes`] table ([`push_round`]) and evaluated by one
/// [`count_round`] pass.
///
/// The round's groups come from each lane's dealer counter, or in OT
/// mode from the chunk's slab of both servers' preprocessed groups, the
/// round's `len` of them at the groups already opened: one
/// chunk-amortised [`OtMgEngine`] session run inline, or the background
/// `pool`'s entry for `chunk.id`, which holds the bits the inline
/// session would have produced. Its ledger lands in the chunk's
/// [`NetStats::offline`]. The online ledger is the chunk's closed form
/// ([`NetStats::exchange_triples`]).
fn chunk_part<B: AdjacencyBits>(
    bits: &B,
    job: &CountJob,
    sched: &CountScheduler,
    chunk: &PairChunk,
    pool: Option<&TriplePool>,
) -> CountPart {
    let plan = sched.chunk_plan(chunk);
    let mut net = NetStats::new();
    let material = match (pool, job.offline) {
        (Some(pool), _) => {
            let (material, ledger) = pool
                .take(chunk.id)
                .unwrap_or_else(|e| panic!("offline triple pool failed on chunk {}: {e}", chunk.id));
            net.offline.merge(&ledger);
            Some(material)
        }
        (None, OfflineMode::TrustedDealer) => None,
        (None, OfflineMode::OtExtension) => {
            let mut engine = OtMgEngine::for_chunk(job.seed, chunk.id as u64);
            let material = engine.preprocess(&plan);
            net.offline.merge(&engine.ledger());
            Some(material)
        }
    };
    let (mut t1, mut t2) = (0u64, 0u64);
    let mut lanes = RoundLanes::fused(job.seed);
    let signs = sched.chunk_signs(chunk);
    let mut done = 0usize;
    let mut rounds = plan_rounds(&plan, sched.batch());
    while let Some(round) = rounds.next_round() {
        let signs = signs.map(|s| &s[done..]);
        push_round(&mut lanes, bits, &plan, round, signs, |d| bits.bit(d.i as usize, d.j as usize));
        let len = lanes.len();
        let groups = material.as_ref().map(|m| m.columns().map(|c| &c[done..done + len]));
        let (u1, u2) = count_round(&lanes, groups);
        (t1, t2) = (t1.wrapping_add(u1), t2.wrapping_add(u2));
        done += len;
    }
    let triples = done as u64;
    net.exchange_triples(triples, sched.batch() as u64);
    (Ring64(t1), Ring64(t2), net, triples)
}

/// Reference implementation: drives the *protocol objects* of
/// `cargo-mpc` with no rounds, lanes or inlining — one [`mul3`] call
/// per triple of the dense cube, on input shares from [`share_prf`]
/// (`⟨a⟩₁ = PRF`, `⟨a⟩₂ = a − PRF`) and the Multiplication Group at the
/// triple's canonical position of its pair's stream
/// ([`PairDealer::for_pair`], [`PairDealer::next_group_pair`]). It is
/// the share-level oracle: [`count_local`] reproduces its share pair,
/// triple count and element and byte ledger exactly, for every plan
/// that schedules the cube (its rounds differ: the reference opens one
/// triple a round).
pub fn secure_count_reference(matrix: &BitMatrix, seed: u64) -> SecureCountResult {
    let n = matrix.n();
    let shares = |i: usize, j: usize| {
        let s1 = Ring64(share_prf(seed, i as u32, j as u32));
        (s1, Ring64::from_bit(matrix.get(i, j)) - s1)
    };
    let mut net = NetStats::new();
    let (mut share1, mut share2) = (Ring64::ZERO, Ring64::ZERO);
    let mut triples = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            let mut dealer = PairDealer::for_pair(seed, i as u32, j as u32);
            for k in (j + 1)..n {
                let mg = dealer.next_group_pair();
                let (u1, u2) = mul3(shares(i, j), shares(i, k), shares(j, k), mg, &mut net);
                share1 += u1;
                share2 += u2;
                triples += 1;
            }
        }
    }
    SecureCountResult {
        share1,
        share2,
        net,
        upload_elements: 2 * (n as u64) * (n as u64),
        triples,
        pool: PoolStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_graph::generators::{barabasi_albert, erdos_renyi};
    use cargo_graph::{count_triangles_matrix, Graph};

    fn job(seed: u64, threads: usize, batch: usize) -> CountJob {
        CountJob { threads, batch, ..CountJob::new(seed) }
    }

    fn ot_job(seed: u64, threads: usize, batch: usize) -> CountJob {
        CountJob { offline: OfflineMode::OtExtension, ..job(seed, threads, batch) }
    }

    #[test]
    fn secure_count_matches_plaintext_on_random_graphs() {
        for seed in 0..3u64 {
            let g = erdos_renyi(80, 0.2, seed);
            let m = g.to_bit_matrix();
            let want = count_triangles_matrix(&m);
            let res = count_local(&m, &CountJob::new(seed));
            assert_eq!(res.reconstruct(), Ring64(want), "seed {seed}");
        }
    }

    #[test]
    fn secure_count_matches_reference_protocol() {
        let g = erdos_renyi(24, 0.3, 5);
        let m = g.to_bit_matrix();
        let fast = count_local(&m, &CountJob::new(7));
        let slow = secure_count_reference(&m, 7);
        // The same canonical streams ⇒ the same shares, not just the
        // same reconstruction.
        assert_eq!((fast.share1, fast.share2), (slow.share1, slow.share2));
        assert_eq!(fast.reconstruct(), Ring64(count_triangles_matrix(&m)));
        assert_eq!(fast.triples, slow.triples);
        assert_eq!((fast.net.elements, fast.net.bytes), (slow.net.elements, slow.net.bytes));
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let g = barabasi_albert(120, 5, 1);
        let m = g.to_bit_matrix();
        let one = count_local(&m, &job(3, 1, 0));
        let four = count_local(&m, &job(3, 4, 0));
        let many = count_local(&m, &job(3, 16, 0));
        assert_eq!(one, four, "full result equality, NetStats included");
        assert_eq!(four.reconstruct(), many.reconstruct());
        assert_eq!(four.share1, many.share1);
        assert_eq!(four.net, many.net);
    }

    #[test]
    fn batch_size_does_not_change_shares() {
        let g = erdos_renyi(90, 0.25, 4);
        let m = g.to_bit_matrix();
        let base = count_local(&m, &job(9, 2, 0));
        for batch in [1usize, 7, 64, 1000] {
            let r = count_local(&m, &job(9, 2, batch));
            assert_eq!(r.share1, base.share1, "batch {batch}");
            assert_eq!(r.share2, base.share2, "batch {batch}");
            assert_eq!(r.triples, base.triples, "batch {batch}");
            // Elements/bytes are per-triple exact regardless of the
            // round structure; rounds shrink as the batch grows.
            assert_eq!(r.net.elements, base.net.elements, "batch {batch}");
            assert_eq!(r.net.bytes, base.net.bytes, "batch {batch}");
        }
        let fine = count_local(&m, &job(9, 1, 1));
        let coarse = count_local(&m, &job(9, 1, 1000));
        assert!(fine.net.rounds > coarse.net.rounds, "batching buys rounds");
        assert_eq!(fine.net.peak_batch, 3, "batch=1 opens one triple/round");
    }

    #[test]
    fn ot_offline_mode_matches_dealer_mode_bit_for_bit() {
        // The tentpole acceptance at kernel level: identical share
        // pair, identical ONLINE ledger, nonzero offline ledger.
        let g = erdos_renyi(40, 0.3, 2);
        let m = g.to_bit_matrix();
        for batch in [1usize, 7, 0] {
            let dealer = count_local(&m, &job(5, 1, batch));
            let ot = count_local(&m, &ot_job(5, 1, batch));
            assert_eq!(ot.share1, dealer.share1, "batch {batch}");
            assert_eq!(ot.share2, dealer.share2, "batch {batch}");
            assert_eq!(ot.triples, dealer.triples);
            assert_eq!(ot.net.online(), dealer.net, "online ledgers equal");
            assert!(dealer.net.offline.is_empty(), "dealer pays no offline");
            assert_eq!(ot.net.offline.base_ots, 256, "one base-OT setup");
            assert_eq!(
                ot.net.offline.extended_ots,
                512 * dealer.triples,
                "512 extended OTs per MG"
            );
            assert!(ot.net.offline.bytes > 0);
            assert!(ot.net.offline.rounds > 0);
        }
    }

    #[test]
    fn ot_offline_ledger_is_thread_invariant() {
        // n = 64 is the smallest size where the worker clamp lifts, so
        // threads = 4 genuinely shards the OT preprocessing.
        let g = erdos_renyi(64, 0.2, 8);
        let m = g.to_bit_matrix();
        let one = count_local(&m, &ot_job(3, 1, 64));
        let four = count_local(&m, &ot_job(3, 4, 64));
        assert_eq!(one, four, "full equality including the offline ledger");
    }

    #[test]
    fn works_on_asymmetric_projected_matrices() {
        // Triangle 0-1-2; user 1 deleted a_12 → no triangle counted.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let mut m = g.to_bit_matrix();
        assert_eq!(count_local(&m, &CountJob::new(1)).reconstruct(), Ring64(1));
        m.set(1, 2, false);
        assert_eq!(
            count_local(&m, &CountJob::new(1)).reconstruct(),
            Ring64(count_triangles_matrix(&m))
        );
        assert_eq!(count_local(&m, &CountJob::new(1)).reconstruct(), Ring64(0));
    }

    #[test]
    fn individual_shares_are_not_the_count() {
        // A share alone reveals nothing: on a graph with T = 4 the
        // share should (overwhelmingly) not equal 4.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let res = count_local(&g.to_bit_matrix(), &CountJob::new(99));
        assert_eq!(res.reconstruct(), Ring64(4));
        assert_ne!(res.share1, Ring64(4));
        assert_ne!(res.share2, Ring64(4));
        // And shares should be "large" (uniform-looking), not small ints.
        assert!(res.share1.to_u64() > 1 << 32 || res.share2.to_u64() > 1 << 32);
    }

    #[test]
    fn communication_matches_triple_count() {
        let n = 20;
        let g = erdos_renyi(n, 0.5, 2);
        let res = count_local(&g.to_bit_matrix(), &CountJob::new(1));
        let c3 = (n * (n - 1) * (n - 2) / 6) as u64;
        assert_eq!(res.triples, c3);
        // 3 openings each way per triple.
        assert_eq!(res.net.elements, 6 * c3);
        assert_eq!(res.upload_elements, 2 * (n * n) as u64);
        // Rounds: a chunk of W triples is opened b at a time across
        // pair boundaries — rounds == Σ_chunks ⌈W_c/b⌉.
        for b in [5usize, 64, 1_000_000] {
            let batched = count_local(&g.to_bit_matrix(), &job(1, 1, b));
            let sched = job(1, 1, b).local_scheduler(n);
            assert!(sched.chunks().len() > 1, "C(20, 3) spans chunks");
            let want_rounds: u64 =
                sched.chunks().iter().map(|c| c.triples.div_ceil(sched.batch() as u64)).sum();
            assert_eq!(batched.net.rounds, want_rounds, "batch {b}");
            assert_eq!(batched.net.peak_batch, 3 * sched.batch() as u64, "batch {b}");
            assert_eq!(batched.net.elements, 6 * c3, "batch {b}");
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let m = Graph::empty(2).to_bit_matrix();
        let res = count_local(&m, &CountJob::new(1));
        assert_eq!(res.reconstruct(), Ring64::ZERO);
        assert_eq!(res.triples, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = erdos_renyi(50, 0.2, 3);
        let m = g.to_bit_matrix();
        let a = count_local(&m, &job(11, 2, 0));
        let b = count_local(&m, &job(11, 2, 0));
        assert_eq!(a, b);
        let c = count_local(&m, &job(12, 2, 0));
        assert_eq!(a.reconstruct(), c.reconstruct());
        assert_ne!(a.share1, c.share1, "different seed, different shares");
    }
}
