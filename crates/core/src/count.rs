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
//! * **The hot kernel** comes in two bit-identical flavours behind
//!   [`CountKernel`]: the scalar per-triple transcription of
//!   [`cargo_mpc::mul3`], and the default structure-of-arrays batch
//!   kernel that evaluates a whole scheduler block per call over
//!   block-expanded dealer words ([`cargo_mpc::PairDealer::fill_words`])
//!   and word-widened adjacency bits, gathering short runs across pairs
//!   into full-width tiles ([`CountJob::tile_threshold`]).
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

use crate::config::{CargoConfig, CountKernel};
use crate::count_sched::{CountScheduler, PairChunk, SchedulePlan};
use cargo_graph::{BitMatrix, CsrGraph};
use cargo_mpc::{
    expand_input_shares, mul3, mul3_combine, mul3_combine_batch, mul3_mask_batch, mul3_open_batch,
    mul3_tile_batch, ot_setup_ledger, share_prf, Dealer, Mul3Opening, NetStats, OfflineMode, OtMgEngine,
    PairDealer, PoolPolicy, PoolStats, Ring64, ServerId, TriplePool, LANES, MG_WORDS,
};
use std::sync::Arc;

/// Default density threshold of the hybrid tile kernel: runs of at
/// least one full SIMD register ([`cargo_mpc::LANES`] triples) stream
/// through the fused kernel; shorter straggler runs are gathered
/// across pairs into full-width tiles. A **public** parameter — it
/// regroups kernel evaluation order, never which triples are evaluated
/// or what travels on the wire — so any value yields bit-identical
/// shares (`0` streams everything, `u32::MAX` gathers everything; the
/// tile equivalence tests pin both degenerate ends).
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
    /// Inner kernel of [`count_local`] (bit-identical either way; the
    /// wire executors' slab rounds *are* the batched kernel and ignore
    /// this). No configuration sets it: the scalar kernel is the
    /// equivalence suites' oracle.
    pub kernel: CountKernel,
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
    /// Density threshold θ of the dealer-mode bitsliced worker: runs
    /// of at least θ triples stream through the fused kernel, shorter
    /// ones are gathered across pairs into shared lanes. Applies on
    /// every plan and either input kind; regroups kernel evaluation
    /// only (never shares, triples or the ledger). Inert for the scalar
    /// kernel, the OT workers and the wire executors. No configuration
    /// sets it; the equivalence suites drive it to both extremes.
    pub tile_threshold: u32,
}

impl CountJob {
    /// The default job under `seed`: one worker, default batch, trusted
    /// dealer, bitsliced kernel, inline preprocessing, dense cube,
    /// [`DEFAULT_TILE_THRESHOLD`].
    pub fn new(seed: u64) -> Self {
        CountJob {
            seed,
            threads: 1,
            batch: 0,
            offline: OfflineMode::TrustedDealer,
            kernel: CountKernel::default(),
            pool: PoolPolicy::INLINE,
            plan: SchedulePlan::DenseCube,
            tile_threshold: DEFAULT_TILE_THRESHOLD,
        }
    }

    /// The job a pipeline configuration describes, over `plan` — the
    /// one place the Count seed is derived from the root seed and the
    /// config's `0 ⇒ default` knobs are resolved. Kernel and θ keep
    /// [`CountJob::new`]'s defaults: no configuration changes them.
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

/// Runs `job` in-process, both servers' arithmetic in one loop — the
/// fast simulation every other executor is pinned to. Input kind,
/// plan, offline mode, kernel and pool are orthogonal: a CSR input in
/// OT mode over the eager sparse plan is as valid as the dense matrix
/// cube.
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
    let parts = sched.run_chunks(|chunk| match (job.offline, job.kernel) {
        (OfflineMode::TrustedDealer, CountKernel::Scalar) => {
            count_chunk(bits, job.seed, sched, chunk)
        }
        (OfflineMode::TrustedDealer, CountKernel::Bitsliced) => {
            count_chunk_tiled(bits, job.seed, sched, chunk, job.tile_threshold)
        }
        (OfflineMode::OtExtension, kernel) => {
            count_chunk_ot(bits, job.seed, sched, chunk, kernel, pool.as_ref())
        }
    });
    let pool = pool.map(|p| p.stats()).unwrap_or_default();
    finish(sched, job.offline, parts, pool)
}

/// Pinned by `benchmark/src/sut.rs` and
/// `benchmark/src/bin/trace/streamed.rs`, which call it positionally.
#[doc(hidden)]
pub fn secure_triangle_count_streamed(
    csr: &Arc<CsrGraph>,
    seed: u64,
    threads: usize,
    batch: usize,
    tile_threshold: u32,
) -> SecureCountResult {
    let plan = SchedulePlan::CsrStream(Arc::clone(csr));
    count_local(&**csr, &CountJob { threads, batch, plan, tile_threshold, ..CountJob::new(seed) })
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
/// shape [`mul3_tile_batch`] and [`PairDealer::count_block`] consume.
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

/// Evaluates every triple of one pair-space chunk, one Multiplication
/// Group at a time ([`CountKernel::Scalar`]): the inlined per-triple
/// transcription of the MG protocol over block-expanded dealer words.
/// Retained as the equivalence suites' oracle and as the readable
/// reference of what [`count_chunk_tiled`] computes.
///
/// Like every worker below, it walks the chunk's **draw plan** — one
/// `(pair, k-run)` per [`cargo_mpc::MgDraw`], at the run's canonical
/// stream offset. For the dense cube that is one full-range draw per
/// pair at offset 0; a sparse plan visits only the admitted runs and
/// seeks the dealer past the gaps.
fn count_chunk<B: AdjacencyBits>(
    bits: &B,
    seed: u64,
    sched: &CountScheduler,
    chunk: &PairChunk,
) -> CountPart {
    let batch = sched.batch();
    let mut t1 = 0u64; // ⟨T⟩₁ accumulator (wrapping u64 = Ring64)
    let mut t2 = 0u64;
    let mut net = NetStats::new();
    let mut triples = 0u64;
    // One block of dealer words and adjacency bits, reused across batches.
    let mut words = vec![0u64; MG_WORDS * batch];
    let mut b_bits = vec![0u64; batch];
    let mut c_bits = vec![0u64; batch];

    for d in sched.chunk_plan(chunk) {
        let (i, j) = (d.i as usize, d.j as usize);
        // User i's shares of a_ij — fixed across the k loop.
        let aij = bits.bit(i, j);
        let aij1 = share_prf(seed, d.i, d.j);
        let aij2 = aij.wrapping_sub(aij1);
        let mut dealer = PairDealer::for_draw(seed, &d);
        let mut k = j + 1 + d.start as usize;
        let end = k + d.groups as usize;
        while k < end {
            let block = (end - k).min(batch);
            // Offline: block-expand the batch's Multiplication Groups.
            dealer.fill_words(&mut words[..MG_WORDS * block]);
            bits.fill_bits(i, k, &mut b_bits[..block]);
            bits.fill_bits(j, k, &mut c_bits[..block]);
            for (b, kk) in (k..k + block).enumerate() {
                let w = &words[MG_WORDS * b..MG_WORDS * (b + 1)];
                let x1 = w[0];
                let x2 = w[1];
                let y1 = w[2];
                let y2 = w[3];
                let z1 = w[4];
                let z2 = w[5];
                let o1 = w[6];
                let p1 = w[7];
                let q1 = w[8];
                let w1 = w[9];
                let x = x1.wrapping_add(x2);
                let y = y1.wrapping_add(y2);
                let z = z1.wrapping_add(z2);
                let o = x.wrapping_mul(y);
                let p = x.wrapping_mul(z);
                let q = y.wrapping_mul(z);
                let wv = o.wrapping_mul(z);
                let o2 = o.wrapping_sub(o1);
                let p2 = p.wrapping_sub(p1);
                let q2 = q.wrapping_sub(q1);
                let w2 = wv.wrapping_sub(w1);

                // User shares of a_ik (row i) and a_jk (row j).
                let aik1 = share_prf(seed, i as u32, kk as u32);
                let aik2 = b_bits[b].wrapping_sub(aik1);
                let ajk1 = share_prf(seed, j as u32, kk as u32);
                let ajk2 = c_bits[b].wrapping_sub(ajk1);

                // Online step 1: local maskings.
                let e1 = aij1.wrapping_sub(x1);
                let e2 = aij2.wrapping_sub(x2);
                let f1 = aik1.wrapping_sub(y1);
                let f2 = aik2.wrapping_sub(y2);
                let g1 = ajk1.wrapping_sub(z1);
                let g2 = ajk2.wrapping_sub(z2);
                // Step 2: openings (tallied per chunk below).
                let e = e1.wrapping_add(e2);
                let f = f1.wrapping_add(f2);
                let g = g1.wrapping_add(g2);
                // Step 3: local combination (Theorem 1's formula).
                let fg = f.wrapping_mul(g);
                let eg = e.wrapping_mul(g);
                let ef = e.wrapping_mul(f);
                let u1 = w1
                    .wrapping_add(o1.wrapping_mul(g))
                    .wrapping_add(p1.wrapping_mul(f))
                    .wrapping_add(q1.wrapping_mul(e))
                    .wrapping_add(x1.wrapping_mul(fg))
                    .wrapping_add(y1.wrapping_mul(eg))
                    .wrapping_add(z1.wrapping_mul(ef));
                let u2 = w2
                    .wrapping_add(o2.wrapping_mul(g))
                    .wrapping_add(p2.wrapping_mul(f))
                    .wrapping_add(q2.wrapping_mul(e))
                    .wrapping_add(x2.wrapping_mul(fg))
                    .wrapping_add(y2.wrapping_mul(eg))
                    .wrapping_add(z2.wrapping_mul(ef))
                    .wrapping_add(ef.wrapping_mul(g));
                t1 = t1.wrapping_add(u1);
                t2 = t2.wrapping_add(u2);
            }
            triples += block as u64;
            k += block;
        }
    }
    net.exchange_triples(triples, batch as u64);
    (Ring64(t1), Ring64(t2), net, triples)
}

/// [`CountKernel::Bitsliced`] in dealer mode: the hybrid
/// dense-block/tile worker. Each candidate run (one
/// [`cargo_mpc::MgDraw`]) is routed by its length against the public
/// `tile_threshold` θ:
///
/// * `groups ≥ θ` — **streamed**: the run is long enough to fill SIMD
///   lanes on its own, so each `k`-block is one word-level bit-slab
///   extraction per row and one fused PRG-expansion + SoA arithmetic
///   pass ([`PairDealer::count_block`]).
/// * `groups < θ` — **gathered**: short straggler runs are packed
///   across pairs into a pair-block × k-range tile (an AoS word slab
///   plus per-lane `a/b/c` bits) and flushed through
///   [`mul3_tile_batch`] whenever `batch` lanes fill, so locally dense
///   regions of many short runs still run full-width lanes instead of
///   degenerating to scalar tails.
///
/// θ = 0 streams everything; θ = `u32::MAX` gathers everything. Every
/// θ produces shares bit-identical to each other and to
/// [`count_chunk`]: each lane's MG words come from the same canonical
/// dealer offset either way, wrapping sums are order-independent, and
/// the opened maskings collapse to the values the scalar path
/// reconstructs share by share. The [`NetStats`] ledger is the chunk's
/// closed form ([`NetStats::exchange_triples`]): wire rounds are cut
/// from the plan and `batch` alone, so neither θ nor how the kernel
/// groups lanes can move them.
fn count_chunk_tiled<B: AdjacencyBits>(
    bits: &B,
    seed: u64,
    sched: &CountScheduler,
    chunk: &PairChunk,
    tile_threshold: u32,
) -> CountPart {
    let batch = sched.batch();
    let mut t1 = 0u64;
    let mut t2 = 0u64;
    let mut net = NetStats::new();
    let mut triples = 0u64;
    let mut b_bits = vec![0u64; batch];
    let mut c_bits = vec![0u64; batch];
    // Gather tile: AoS MG words plus per-lane a/b/c bit arrays.
    let mut slab = vec![0u64; MG_WORDS * batch];
    let mut ga = vec![0u64; batch];
    let mut gb = vec![0u64; batch];
    let mut gc = vec![0u64; batch];
    let mut lanes = 0usize;

    for d in sched.chunk_plan(chunk) {
        let (i, j) = (d.i as usize, d.j as usize);
        let aij = bits.bit(i, j);
        let len = d.groups as usize;
        triples += len as u64;
        let mut dealer = PairDealer::for_draw(seed, &d);
        let mut k = j + 1 + d.start as usize;
        if d.groups >= tile_threshold {
            let end = k + len;
            while k < end {
                let block = (end - k).min(batch);
                bits.fill_bits(i, k, &mut b_bits[..block]);
                bits.fill_bits(j, k, &mut c_bits[..block]);
                let (u1, u2) = dealer.count_block(aij, &b_bits[..block], &c_bits[..block]);
                t1 = t1.wrapping_add(u1);
                t2 = t2.wrapping_add(u2);
                k += block;
            }
        } else {
            let mut left = len;
            while left > 0 {
                let take = left.min(batch - lanes);
                dealer.fill_words(&mut slab[MG_WORDS * lanes..MG_WORDS * (lanes + take)]);
                ga[lanes..lanes + take].fill(aij);
                bits.fill_bits(i, k, &mut gb[lanes..lanes + take]);
                bits.fill_bits(j, k, &mut gc[lanes..lanes + take]);
                lanes += take;
                k += take;
                left -= take;
                if lanes == batch {
                    let (u1, u2) = mul3_tile_batch(&slab, &ga, &gb, &gc);
                    t1 = t1.wrapping_add(u1);
                    t2 = t2.wrapping_add(u2);
                    lanes = 0;
                }
            }
        }
    }
    if lanes > 0 {
        let (u1, u2) =
            mul3_tile_batch(&slab[..MG_WORDS * lanes], &ga[..lanes], &gb[..lanes], &gc[..lanes]);
        t1 = t1.wrapping_add(u1);
        t2 = t2.wrapping_add(u2);
    }
    net.exchange_triples(triples, batch as u64);
    (Ring64(t1), Ring64(t2), net, triples)
}

/// The OT-extension worker: the same online ledger, but the chunk's
/// Multiplication Groups (both servers' share structs, S₂'s built from
/// OT outputs + derandomisation offsets) come out of one
/// chunk-amortised [`OtMgEngine`] session — run inline here, or drawn
/// from the background `pool` keyed by `chunk.id`, so the consumed
/// bits are exactly the ones the inline session would have produced.
/// Offline traffic accumulates in the chunk's [`NetStats::offline`]
/// ledger — one extension session, one flight structure, one digest
/// pair per flight for the whole chunk (inline or in a factory thread;
/// same modeled cost).
///
/// NOTE on memory: the material is held for the chunk (~1/64 of the
/// run), which is the *streaming* shape relative to a real offline
/// phase that stores all C(n,3) groups; OT mode is only practical at
/// small n anyway.
fn count_chunk_ot<B: AdjacencyBits>(
    bits: &B,
    seed: u64,
    sched: &CountScheduler,
    chunk: &PairChunk,
    kernel: CountKernel,
    pool: Option<&TriplePool>,
) -> CountPart {
    let plan = sched.chunk_plan(chunk);
    let (material, offline) = match pool {
        Some(pool) => pool
            .take(chunk.id)
            .unwrap_or_else(|e| panic!("offline triple pool failed on chunk {}: {e}", chunk.id)),
        None => {
            let mut engine = OtMgEngine::for_chunk(seed, chunk.id as u64);
            let material = engine.preprocess(&plan);
            (material, engine.ledger())
        }
    };
    let batch = sched.batch();
    let mut t1 = Ring64::ZERO;
    let mut t2 = Ring64::ZERO;
    let mut net = NetStats::new();
    let mut triples = 0u64;
    net.offline.merge(&offline);

    // Both servers' input shares of one block, then the batch kernel's
    // scratch (slab layouts of the per-server helpers).
    let mut b1 = vec![0u64; batch];
    let mut b2 = vec![0u64; batch];
    let mut c1 = vec![0u64; batch];
    let mut c2 = vec![0u64; batch];
    let mut mine = vec![0u64; 3 * batch];
    let mut theirs = vec![0u64; 3 * batch];
    let mut opened = vec![0u64; 3 * batch];

    for (idx, d) in plan.iter().enumerate() {
        let (i, j) = (d.i as usize, d.j as usize);
        let (g1s, g2s) = material.pair(idx);
        let aij1 = share_prf(seed, d.i, d.j);
        let aij2 = bits.bit(i, j).wrapping_sub(aij1);
        let mut k = j + 1 + d.start as usize;
        let end = k + d.groups as usize;
        let mut off = 0usize;
        while k < end {
            let block = (end - k).min(batch);
            let g1b = &g1s[off..off + block];
            let g2b = &g2s[off..off + block];
            for (row, s1, s2) in [(d.i, &mut b1, &mut b2), (d.j, &mut c1, &mut c2)] {
                expand_input_shares(seed, ServerId::S1, row, k as u32, &mut s1[..block]);
                bits.fill_bits(row as usize, k, &mut s2[..block]);
                expand_input_shares(seed, ServerId::S2, row, k as u32, &mut s2[..block]);
            }
            match kernel {
                CountKernel::Scalar => {
                    let (a1, a2) = (Ring64(aij1), Ring64(aij2));
                    for (l, (g1, g2)) in g1b.iter().zip(g2b).enumerate() {
                        let (b1, b2) = (Ring64(b1[l]), Ring64(b2[l]));
                        let (c1, c2) = (Ring64(c1[l]), Ring64(c2[l]));
                        // Online steps 1–3 of the MG protocol on share
                        // structs, via the protocol-object combination.
                        let opening = Mul3Opening {
                            e: (a1 - g1.x) + (a2 - g2.x),
                            f: (b1 - g1.y) + (b2 - g2.y),
                            g: (c1 - g1.z) + (c2 - g2.z),
                        };
                        let efg = opening.e * opening.f * opening.g;
                        t1 += mul3_combine((a1, b1, c1), g1, opening, Ring64::ZERO);
                        t2 += mul3_combine((a2, b2, c2), g2, opening, efg);
                    }
                }
                CountKernel::Bitsliced => {
                    let slab = 3 * block;
                    mul3_mask_batch(aij1, &b1[..block], &c1[..block], g1b, &mut mine[..slab]);
                    mul3_mask_batch(aij2, &b2[..block], &c2[..block], g2b, &mut theirs[..slab]);
                    mul3_open_batch(&mine[..slab], &theirs[..slab], &mut opened[..slab]);
                    t1 += mul3_combine_batch(g1b, &opened[..slab], ServerId::S1);
                    t2 += mul3_combine_batch(g2b, &opened[..slab], ServerId::S2);
                }
            }
            triples += block as u64;
            off += block;
            k += block;
        }
    }
    net.exchange_triples(triples, batch as u64);
    (t1, t2, net, triples)
}

/// Reference implementation: drives the *protocol objects* from
/// `cargo-mpc` (one [`mul3`] call per triple, shares via
/// [`Dealer::share`]) with no batching or inlining. Quadratically
/// slower; exists so tests can pin the optimised kernel to the
/// protocol's semantics.
pub fn secure_count_reference(matrix: &BitMatrix, seed: u64) -> SecureCountResult {
    let n = matrix.n();
    let mut dealer = Dealer::new(seed);
    let mut net = NetStats::new();
    let mut share1 = Ring64::ZERO;
    let mut share2 = Ring64::ZERO;
    let mut triples = 0u64;
    // Input sharing: each user's row, bit by bit.
    let mut s1 = vec![vec![Ring64::ZERO; n]; n];
    let mut s2 = vec![vec![Ring64::ZERO; n]; n];
    for i in 0..n {
        for j in 0..n {
            let p = dealer.share(Ring64::from_bit(matrix.get(i, j)));
            s1[i][j] = p.s1;
            s2[i][j] = p.s2;
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                let mg = dealer.mul_group();
                let (u1, u2) = mul3(
                    (s1[i][j], s2[i][j]),
                    (s1[i][k], s2[i][k]),
                    (s1[j][k], s2[j][k]),
                    mg,
                    &mut net,
                );
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
        // Different randomness ⇒ different shares, same reconstruction.
        assert_eq!(fast.reconstruct(), slow.reconstruct());
        assert_eq!(fast.triples, slow.triples);
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
