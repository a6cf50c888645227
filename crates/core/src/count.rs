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
//! The Multiplication Groups' masks are keyed by **pair**
//! (`x = λ_ij, y = λ_ik, z = λ_jk`), so a Count runs in two steps: it
//! opens every pair its plan reads once — `e_ij = a_ij − λ_ij`, the
//! plan's pair set ([`CountScheduler::pair_set`]) in canonical order,
//! `batch` pairs a round — and then every chunk combines its triples
//! locally from those openings, exchanging nothing.
//!
//! ## One request, one function per execution model
//!
//! A [`CountJob`] names every knob of a Count run; the executors differ
//! only in *where* the two servers live:
//!
//! | Executor | Shape |
//! |---|---|
//! | [`count_local`] | both servers in one process (this module): the wire party's steps with the link cut out — over a [`BitMatrix`] or, with no `n × n` storage, a [`CsrGraph`] |
//! | [`crate::count_runtime::count_party`] | one server over a live [`cargo_mpc::Transport`] link |
//! | [`crate::count_runtime::count_two_party`] | two [`count_party`](crate::count_runtime::count_party)s, one per end of a caller-made link pair |
//! //!
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
//! * **One kernel per server.** Each server masks every round of the
//!   pair set ([`cargo_mpc::mask_round`], which also keeps the round's
//!   mask shares in its table) and sums its slab with the other
//!   server's into its own [`PairTable`] — on the wire the slabs cross
//!   the link, here they are summed in place. A chunk's draw plan is
//!   then listed as `k`-runs over the table's slots (`plan_runs`; long
//!   runs in cache blocks of `ROW_BLOCK` `i` rows, so each `j` row is
//!   read once a block rather than once a row) and each server's
//!   [`weighted_pass`] sums its share over them: a few dot products of
//!   contiguous table rows per run, whatever the plan and the material
//!   source. Each server adds its table's Count term once
//!   ([`PairTable::count_term`]). Every executor runs the one chunk
//!   loop (`combine_chunk`) per server, so a plaintext adjacency bit is
//!   read in one place only: S₂'s pair masking (`PairPhase::next_round`).
//! * **Communication accounting.** The pair openings are mutually
//!   independent, so they travel `batch` pairs a round
//!   ([`crate::count_sched::DEFAULT_COUNT_BATCH`] by default) — one
//!   element each way per pair, one short round at the end: `16·P`
//!   bytes in `⌈P/batch⌉` rounds for a plan reading `P` pairs. A serve
//!   run keeps the openings its Counts exchanged ([`OpenedPairs`]), and
//!   its Counts exchange only the `new` pairs no earlier one opened:
//!   `16·new` bytes in `⌈new/batch⌉` rounds ([`count_local_reusing`],
//!   [`crate::pair_phase`]). The in-process executor tallies that in
//!   closed form ([`NetStats::exchange_pairs`]); the wire executors send
//!   exactly those rounds.

use crate::config::CargoConfig;
use crate::count_sched::{CountScheduler, PairChunk, PairSet, SchedulePlan};
use crate::pair_phase::{OpenedPairs, PairPhase};
use cargo_graph::{BitMatrix, CsrGraph};
use cargo_mpc::{
    count_offline_ledger, mask_prf, mask_round, mul3_combine, ot_setup_ledger,
    pair_offline_in_process, push_triples, share_prf, weighted_pass, MgDraw,
    Mul3Opening, NetStats, OfflineMode, PairDealer, PairRun, PairTable, Ring64, ServerId,
    SimdTier, SlotTriple, LANES,
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
/// assert_eq!(ot.reconstruct(), dealer.reconstruct());
/// assert_eq!(ot.net.online(), dealer.net);
/// ```
#[derive(Debug, Clone)]
pub struct CountJob {
    /// Keys every random choice (input shares + dealer streams).
    pub seed: u64,
    /// Worker threads (per server on the wire executors); `0` ⇒ all
    /// cores. The result is identical for every thread count.
    pub threads: usize,
    /// Pairs per communication round; `0` ⇒
    /// [`crate::count_sched::DEFAULT_COUNT_BATCH`]. A Count over a plan
    /// reading `P` pairs costs `⌈P/batch⌉` rounds. Shares and element
    /// counts are identical for every batch; only wall-clock and round
    /// granularity change.
    pub batch: usize,
    /// Where the correlated randomness comes from: the seeded trusted
    /// dealer, or the IKNP/Gilboa OT-extension offline phase
    /// ([`cargo_mpc::pair_offline_over_wire`]) — one vector-OLE key per
    /// pair, extended once per Count after the pair rounds, its cost in
    /// [`NetStats::offline`] (the Count's dialogue plus one base-OT
    /// setup). Shares and the online ledger are bit-identical either
    /// way.
    pub offline: OfflineMode,
    /// Which triples are evaluated. The execution's shape (pair set,
    /// chunking, rounds, offline ledger) is a pure function of the
    /// public plan. Both wire parties must be handed the same plan.
    pub plan: SchedulePlan,
}

impl CountJob {
    /// The default job under `seed`: one worker, default batch, trusted
    /// dealer, dense cube.
    pub fn new(seed: u64) -> Self {
        CountJob {
            seed,
            threads: 1,
            batch: 0,
            offline: OfflineMode::TrustedDealer,
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

/// Runs `job` in-process, both servers in one process — the simulation
/// every other executor is pinned to, and itself pinned to
/// [`secure_count_reference`] at the opened count. It runs each
/// server's steps as a wire party runs them — the same pair rounds, the
/// same offline dialogue, the same chunk loop and [`weighted_pass`] —
/// so it differs from
/// [`count_two_party`](crate::count_runtime::count_two_party) in the
/// link only: the pair slabs are summed in place, and each chunk is
/// combined once per server. Input kind, plan and offline mode are
/// orthogonal: a CSR input in OT mode over the eager sparse plan is as
/// valid as the dense matrix cube.
pub fn count_local<'a>(input: impl Into<CountInput<'a>>, job: &CountJob) -> SecureCountResult {
    count_local_reusing(input, job, None)
}

/// [`count_local`] through a run's kept openings, if the caller keeps
/// any: the pair phase exchanges only the plan's pairs `opened` does
/// not hold — the ledger tallies those alone — and checks every kept
/// opening against the one it recomputes; `opened` then keeps the new
/// pairs' openings. Shares and triples are [`count_local`]'s.
///
/// # Panics
/// Panics if `opened` was kept under another Count seed, or if a kept
/// opening differs from its recomputation (the pair's bit changed).
pub fn count_local_reusing<'a>(
    input: impl Into<CountInput<'a>>,
    job: &CountJob,
    opened: Option<&mut OpenedPairs>,
) -> SecureCountResult {
    let tier = SimdTier::detect();
    match input.into() {
        CountInput::Matrix(m) => run_scheduled(m, job, &job.local_scheduler(m.n()), tier, opened),
        CountInput::Csr(g) => run_scheduled(g, job, &job.local_scheduler(g.n()), tier, opened),
    }
}

/// [`count_local_reusing`] past scheduler construction: opens the
/// pairs, runs the offline dialogue in OT mode, runs `job`'s workers
/// over `sched`'s chunks, the kernels at `tier`, and sums the parts —
/// each server's Count term ([`PairTable::count_term`]) with the pair
/// phase's. `sched` is the job's own [`CountJob::local_scheduler`].
pub(crate) fn run_scheduled<B: AdjacencyBits>(
    bits: &B,
    job: &CountJob,
    sched: &CountScheduler,
    tier: SimdTier,
    opened: Option<&mut OpenedPairs>,
) -> SecureCountResult {
    let pairs = sched.pair_set();
    let mut phase = PairPhase::new((sched, &pairs), Some(bits), (job.seed, opened.as_deref()));
    let mut tables = open_pairs(job, &mut phase, tier);
    if runs_offline(job, sched) {
        pair_offline_in_process(&mut tables, &plan_triples(&pairs, sched));
    }
    let parts = sched.run_chunks(|chunk| chunk_part(sched, (&*pairs, &tables), chunk));
    let mut online = NetStats::new();
    online.exchange_pairs(phase.exchanged(), sched.batch() as u64);
    let [t1, t2] = tables.each_ref().map(|table| count_term(sched, table));
    let result =
        finish(sched, job.offline, pairs.len(), parts.into_iter().chain([(t1, t2, online, 0)]));
    let fresh = phase.into_fresh();
    if let Some(opened) = opened {
        opened.record(&fresh, tables[0].openings());
    }
    result
}

/// `table`'s Count term ([`PairTable::count_term`]) in a Count over
/// `sched`: none for a plan with no triples, which has no words to
/// derandomise onto, so an empty Count's shares are `(0, 0)` in either
/// offline mode.
pub(crate) fn count_term(sched: &CountScheduler, table: &PairTable) -> Ring64 {
    if sched.chunks().is_empty() {
        Ring64::ZERO
    } else {
        Ring64(table.count_term())
    }
}

/// Whether `job` over `sched` runs the OT offline dialogue: in OT mode,
/// for a plan with triples.
pub(crate) fn runs_offline(job: &CountJob, sched: &CountScheduler) -> bool {
    job.offline == OfflineMode::OtExtension && !sched.chunks().is_empty()
}

/// The plan's triples as the offline dialogue reads them: chunk by
/// chunk, in the order the chunk loop's passes walk them
/// ([`walk_slices`]), with their signs.
pub(crate) fn plan_triples(pairs: &PairSet, sched: &CountScheduler) -> Vec<SlotTriple> {
    let (mut runs, mut triples) = (Vec::new(), Vec::new());
    for chunk in sched.chunks() {
        let signs = sched.chunk_signs(chunk);
        walk_slices(&mut runs, pairs, &sched.chunk_plan(chunk), |runs, done| {
            push_triples(runs, signs.map(|s| &s[done..]), &mut triples)
        });
    }
    triples
}

/// The pair phase in-process: the wire parties' pair rounds with the
/// link cut out. Each round's pairs are read once ([`PairPhase::next_round`]),
/// each server masks them ([`mask_round`]), and the two slabs are
/// summed into both servers' tables instead of being exchanged — kept
/// pairs too, whose sums must be their kept openings.
fn open_pairs<B: AdjacencyBits>(
    job: &CountJob,
    phase: &mut PairPhase<B>,
    tier: SimdTier,
) -> [PairTable; 2] {
    let preprocessed = job.offline == OfflineMode::OtExtension;
    let mut tables = [ServerId::S1, ServerId::S2].map(|s| {
        let mut table = PairTable::new(job.seed, s, preprocessed).at_tier(tier);
        table.reserve(phase.len());
        table
    });
    let mut slabs = [Vec::new(), Vec::new()];
    while phase.next_round().is_some() {
        let (keys, plain) = phase.read();
        for (table, slab) in tables.iter_mut().zip(&mut slabs) {
            slab.resize(keys.len(), 0);
            mask_round(table, keys, plain, slab);
        }
        let [opened, theirs] = &mut slabs;
        opened.iter_mut().zip(&*theirs).for_each(|(e, w)| *e = e.wrapping_add(*w));
        phase.check_kept(opened);
        tables.iter_mut().for_each(|table| table.push(opened));
    }
    tables
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

/// Sums the parts of a run over `sched`, reading `pairs` pairs, into its
/// result — the one reduction every executor ends with. In OT mode a
/// non-empty run also pays the base-OT setup and its offline dialogue
/// ([`count_offline_ledger`]).
pub(crate) fn finish(
    sched: &CountScheduler,
    offline: OfflineMode,
    pairs: usize,
    parts: impl IntoIterator<Item = CountPart>,
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
        net.offline.merge(&count_offline_ledger(pairs as u64, triples));
    }
    let n = sched.n() as u64;
    SecureCountResult { share1, share2, net, upload_elements: 2 * n * n, triples }
}

/// Adjacency-bit source of the pair phase: the one interface that lets
/// the same code read a dense [`BitMatrix`] or a [`CsrGraph`] with no
/// `n × n` storage. Both report `{0, 1}` as `u64` words, the shape
/// [`mask_round`] reads.
pub(crate) trait AdjacencyBits: Sync {
    /// Fills `out[t] = A[u][k0 + t]` for every `t`.
    fn fill_bits(&self, u: usize, k0: usize, out: &mut [u64]);
}

impl AdjacencyBits for BitMatrix {
    #[inline]
    fn fill_bits(&self, u: usize, k0: usize, out: &mut [u64]) {
        // A sparse plan's pairs and k-runs are mostly one long.
        match out {
            [bit] => *bit = self.row(u).get(k0) as u64,
            _ => self.row(u).fill_bits_u64(k0, out),
        }
    }
}

/// The million-node source. `fill_bits` scatters the (sorted)
/// neighbors that land in `[k0, k0 + out.len())` into an all-zero
/// window; on sparse-schedule candidate runs every bit is 1 by
/// construction, so this agrees with the dense matrix wherever the
/// schedule actually looks.
impl AdjacencyBits for CsrGraph {
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

/// Rows `i` a slice of a chunk's runs is walked in at a time
/// ([`plan_runs`]): the block's rows read every `j` row they share
/// while it is in cache. Eight rows of three table columns at
/// n = 4 000 are ≈ 0.8 MB, within a 2 MB L2.
const ROW_BLOCK: u32 = 8;

/// Draws a slice of a chunk's plan takes at least ([`combine_chunk`])
/// before it ends, at the end of a block of [`ROW_BLOCK`] rows: the
/// bound on the runs a worker lists at a time.
const SLICE_DRAWS: usize = 1024;

/// The mean run length from which a slice's runs are walked in cache
/// blocks ([`plan_runs`]): shorter runs read too little of a row for
/// the block order to pay for its sort.
const BLOCKED_RUN: usize = 32;

/// Lists `plan`'s `k`-runs into `runs` as the weighted pass reads them
/// ([`PairRun`]): their pairs' slots in `pairs`, and each run's
/// position in plan order — where its signs start. Where the runs are long (a mean of [`BLOCKED_RUN`] triples)
/// they are walked in cache blocks: by block of [`ROW_BLOCK`] rows `i`,
/// then by `j`, so a block's runs that share a `j` row read it in turn.
/// The pass's sums are wrapping additions, so the order is free.
/// Returns the plan's triples.
fn plan_runs(pairs: &PairSet, plan: &[MgDraw], runs: &mut Vec<PairRun>) -> usize {
    runs.clear();
    let mut at = 0;
    // A pair's k-runs are consecutive draws: its own slot is looked up
    // once, and its runs' pairs in rows i and j from where the last
    // lookup in the row stopped (their k ascend).
    let (mut ij, mut rows) = (((u32::MAX, u32::MAX), 0), [0, 0]);
    for d in plan {
        if ij.0 != (d.i, d.j) {
            rows = [0, 0];
            ij = ((d.i, d.j), pairs.slot_near(d.i, d.j, &mut rows[0]));
        }
        let k = d.k_at(0) as u32;
        let slots =
            [ij.1, pairs.slot_near(d.i, k, &mut rows[0]), pairs.slot_near(d.j, k, &mut rows[1])];
        runs.push(PairRun { slots, len: d.groups as usize, at });
        at += d.groups as usize;
    }
    if at >= BLOCKED_RUN * runs.len() {
        let keys = plan.iter().map(|d| (d.i / ROW_BLOCK, d.j));
        let mut blocked: Vec<_> = keys.zip(runs.iter()).map(|(key, &run)| (key, run)).collect();
        blocked.sort_unstable_by_key(|&(key, run)| (key, run.at));
        runs.clear();
        runs.extend(blocked.into_iter().map(|(_, run)| run));
    }
    at
}

/// Walks a chunk's **draw plan** `plan` — one `(pair, k-run)` per
/// [`MgDraw`] — in slices of at least [`SLICE_DRAWS`] draws, cut at row
/// blocks: lists each slice as runs over the pair set once
/// ([`plan_runs`], into the scratch `runs`) and calls `f` with them and
/// the triples before the slice. Returns the plan's triples.
fn walk_slices(
    runs: &mut Vec<PairRun>,
    pairs: &PairSet,
    plan: &[MgDraw],
    mut f: impl FnMut(&[PairRun], usize),
) -> usize {
    let (mut done, mut rest) = (0, plan);
    while !rest.is_empty() {
        let first = SLICE_DRAWS.min(rest.len());
        let block = rest[first - 1].i / ROW_BLOCK;
        let end = first + rest[first..].iter().take_while(|d| d.i / ROW_BLOCK == block).count();
        let (slice, after) = rest.split_at(end);
        let triples = plan_runs(pairs, slice, runs);
        f(runs, done);
        (done, rest) = (done + triples, after);
    }
    done
}

/// One chunk's evaluation by each server of `tables` in turn — the one
/// chunk loop, which [`count_local`] runs for both servers and a wire
/// party for its own: each server's [`weighted_pass`] sums its share
/// over each slice's runs ([`walk_slices`]) under the slice's signs.
/// Returns each server's share of the chunk's sum and the triples
/// evaluated.
pub(crate) fn combine_chunk<const S: usize>(
    runs: &mut Vec<PairRun>,
    (pairs, tables): (&PairSet, [&PairTable; S]),
    sched: &CountScheduler,
    chunk: &PairChunk,
) -> ([Ring64; S], usize) {
    let signs = sched.chunk_signs(chunk);
    let mut shares = [Ring64::ZERO; S];
    let done = walk_slices(runs, pairs, &sched.chunk_plan(chunk), |runs, done| {
        for (share, table) in shares.iter_mut().zip(tables) {
            *share += Ring64(weighted_pass(table, runs, signs.map(|s| &s[done..])));
        }
    });
    (shares, done)
}

/// Evaluates every triple of one pair-space chunk, each server over its
/// own opened pair table ([`combine_chunk`]); a chunk has no traffic.
fn chunk_part(
    sched: &CountScheduler,
    (pairs, tables): (&PairSet, &[PairTable; 2]),
    chunk: &PairChunk,
) -> CountPart {
    let opened = (pairs, [&tables[0], &tables[1]]);
    let ([t1, t2], triples) = combine_chunk(&mut Vec::new(), opened, sched, chunk);
    (t1, t2, NetStats::new(), triples as u64)
}

/// Reference implementation: drives the *protocol objects* of
/// `cargo-mpc` with no rounds, lanes, inlining or aggregation over the
/// dense cube — the paper's per-triple Multiplication Groups.
/// It opens each pair once, one opening a round — `e_ij = a_ij − λ_ij`
/// from each server's input share ([`share_prf`]: `⟨a⟩₁ = PRF`,
/// `⟨a⟩₂ = a − PRF`) less its mask share ([`mask_prf`]) — and then calls
/// [`mul3_combine`] once per triple with its three pairs' openings and
/// the Multiplication Group at the triple's canonical position of its
/// pair's stream ([`PairDealer::for_pair`],
/// [`PairDealer::next_group_pair`]). It is the oracle of the opening:
/// [`count_local`] reproduces its opened count, triple count and element
/// and byte ledger exactly, for every plan that schedules the cube (its
/// shares differ — its product shares are per triple, the Count's per
/// pair and per Count — and so do its rounds: it opens one pair a
/// round).
pub fn secure_count_reference(matrix: &BitMatrix, seed: u64) -> SecureCountResult {
    let n = matrix.n();
    let shares = |i: usize, j: usize| {
        let s1 = Ring64(share_prf(seed, i as u32, j as u32));
        (s1, Ring64::from_bit(matrix.get(i, j)) - s1)
    };
    let mut net = NetStats::new();
    // The pair phase: every pair of a cube with a triple, opened once.
    let mut opened = vec![Ring64::ZERO; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            if n < 3 {
                break;
            }
            let (a1, a2) = shares(i, j);
            let (u, v) = (i as u32, j as u32);
            let [l1, l2] = [ServerId::S1, ServerId::S2].map(|s| mask_prf(seed, s, u, v));
            net.exchange(1);
            opened[i * n + j] = (a1 - Ring64(l1)) + (a2 - Ring64(l2));
        }
    }
    let (mut share1, mut share2) = (Ring64::ZERO, Ring64::ZERO);
    let mut triples = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            let mut dealer = PairDealer::for_pair(seed, i as u32, j as u32);
            for k in (j + 1)..n {
                let (g1, g2) = dealer.next_group_pair();
                let pairs = [(i, j), (i, k), (j, k)];
                let [(a1, a2), (b1, b2), (c1, c2)] = pairs.map(|(u, v)| shares(u, v));
                let [e, f, g] = [(i, j), (i, k), (j, k)].map(|(u, v)| opened[u * n + v]);
                let opening = Mul3Opening { e, f, g };
                share1 += mul3_combine((a1, b1, c1), &g1, opening, Ring64::ZERO);
                share2 += mul3_combine((a2, b2, c2), &g2, opening, e * f * g);
                triples += 1;
            }
        }
    }
    SecureCountResult { share1, share2, net, upload_elements: 2 * (n as u64) * (n as u64), triples }
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
        let slow = secure_count_reference(&m, 7);
        // Both materials are per pair and per Count, where the
        // reference's groups are per triple: the same count opens, and
        // OT mode derandomises onto the dealer's shares.
        let ot = count_local(&m, &ot_job(7, 1, 0));
        let fast = count_local(&m, &CountJob::new(7));
        assert_eq!((ot.share1, ot.share2), (fast.share1, fast.share2));
        assert_eq!(fast.reconstruct(), slow.reconstruct());
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
            // Elements/bytes are one opening a pair regardless of the
            // round structure; rounds shrink as the batch grows.
            assert_eq!(r.net.elements, base.net.elements, "batch {batch}");
            assert_eq!(r.net.bytes, base.net.bytes, "batch {batch}");
        }
        let fine = count_local(&m, &job(9, 1, 1));
        let coarse = count_local(&m, &job(9, 1, 1000));
        assert!(fine.net.rounds > coarse.net.rounds, "batching buys rounds");
        assert_eq!(fine.net.peak_batch, 1, "batch=1 opens one pair a round");
    }

    #[test]
    fn ot_offline_mode_matches_dealer_mode_bit_for_bit() {
        // The offline modes at kernel level: the identical share pair
        // and ONLINE ledger, a nonzero offline ledger of 128 extended
        // OTs a pair.
        let g = erdos_renyi(40, 0.3, 2);
        let m = g.to_bit_matrix();
        let pairs = (40 * 39 / 2) as u64;
        for batch in [1usize, 7, 0] {
            let dealer = count_local(&m, &job(5, 1, batch));
            let ot = count_local(&m, &ot_job(5, 1, batch));
            assert_eq!((ot.share1, ot.share2), (dealer.share1, dealer.share2), "batch {batch}");
            assert_eq!(ot.triples, dealer.triples);
            assert_eq!(ot.net.online(), dealer.net, "online ledgers equal");
            assert!(dealer.net.offline.is_empty(), "dealer pays no offline");
            assert_eq!(ot.net.offline.base_ots, 128, "one base-OT setup, one direction");
            assert_eq!(ot.net.offline.extended_ots, 128 * pairs, "two keys a pair");
            assert!(ot.net.offline.bytes > 0);
            assert_eq!(ot.net.offline.rounds, 2 + 2, "base OTs and the Count's dialogue");
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

    /// The test-only oracle of each server's aggregated share: a naive
    /// loop over `job`'s plan, triple by triple in chunk order, from the
    /// scalar PRFs. S₁'s share is its Count word, `Σ_p e_p·⟨M_p⟩₁` over
    /// the pair set and `Σₜ sₜ·(x₁fg + y₁eg + z₁ef)`, and S₂'s is
    /// `Σₜ sₜ·abc` less it — in OT mode too, whose S₂ words come from the
    /// OT products, so a wrong product fails it.
    fn aggregated_oracle<B: AdjacencyBits>(bits: &B, n: usize, job: &CountJob) -> (Ring64, Ring64) {
        let (sched, seed) = (job.local_scheduler(n), job.seed);
        let bit = |i: u32, j: u32| {
            let mut out = [0];
            bits.fill_bits(i as usize, j as usize, &mut out);
            Ring64(out[0])
        };
        let lambda = |s, (i, j)| Ring64(mask_prf(seed, s, i, j));
        let open = |p: (u32, u32)| bit(p.0, p.1) - lambda(ServerId::S1, p) - lambda(ServerId::S2, p);
        let pairs = sched.pair_set();
        let mut term = Ring64(PairDealer::count_word(seed));
        pairs.for_each_run(0..pairs.len(), |_, i, j, len| {
            for j in j..j + len as u32 {
                term += open((i, j)) * Ring64(PairDealer::pair_word(seed, i, j));
            }
        });
        let (mut d1, mut d2) = (term, -term);
        for chunk in sched.chunks() {
            let signs = sched.chunk_signs(chunk);
            let mut t = 0;
            for d in sched.chunk_plan(chunk) {
                for g in 0..d.groups as usize {
                    let k = d.k_at(g) as u32;
                    let pairs = [(d.i, d.j), (d.i, k), (d.j, k)];
                    let [e, f, g] = pairs.map(open);
                    let [x1, y1, z1] = pairs.map(|p| lambda(ServerId::S1, p));
                    let s1 = x1 * f * g + y1 * e * g + z1 * e * f;
                    let [a, b, c] = pairs.map(|p| bit(p.0, p.1));
                    let (u1, u2) = (s1, a * b * c - s1);
                    let minus = signs.is_some_and(|s| s[t] != 0);
                    d1 += if minus { -u1 } else { u1 };
                    d2 += if minus { -u2 } else { u2 };
                    t += 1;
                }
            }
        }
        (d1, d2)
    }

    #[test]
    fn count_local_is_the_aggregated_oracle_share_for_share_at_every_tier() {
        // Every plan kind — the dense cube, an asymmetric projected
        // matrix's cube, the eager sparse plan, the CSR-streamed plan
        // over a matrix and over the CSR itself, a signed (serve) plan —
        // in both offline modes, at every SIMD tier and across threads
        // and batches: count_local's share pair is the naive loop's —
        // the dealer's, so in OT mode every OT product stays checked bit
        // for bit.
        let g = barabasi_albert(22, 4, 9);
        let m = g.to_bit_matrix();
        let mut projected = erdos_renyi(18, 0.5, 3).to_bit_matrix();
        for (i, j) in [(0usize, 1usize), (2, 9), (4, 5), (7, 12)] {
            projected.set(i, j, false);
        }
        let csr = Arc::new(CsrGraph::from_graph(&g));
        let eager = Arc::new(crate::count_sched::CandidateSet::from_graph(&g));
        let triangles: Vec<(u32, u32, u32)> = (0..eager.len())
            .flat_map(|p| {
                let (i, j) = eager.pair(p);
                eager.ks(p).iter().map(move |&k| (i, j, k)).collect::<Vec<_>>()
            })
            .collect();
        let (plus, minus): (Vec<_>, Vec<_>) = triangles.iter().partition(|t| (t.0 + t.2) % 3 != 0);
        let signed = crate::count_sched::CandidateSet::signed(22, &plus, &minus);
        let plans = [
            ("dense", &m, SchedulePlan::DenseCube),
            ("projected", &projected, SchedulePlan::DenseCube),
            ("eager", &m, SchedulePlan::CandidatePairs(eager)),
            ("streamed", &m, SchedulePlan::CsrStream(Arc::clone(&csr))),
            ("signed", &m, SchedulePlan::CandidatePairs(Arc::new(signed))),
        ];
        let want = |name| match name {
            "signed" => Ring64(plus.len() as u64) - Ring64(minus.len() as u64),
            "projected" => Ring64(count_triangles_matrix(&projected)),
            _ => Ring64(count_triangles_matrix(&m)),
        };
        for tier in SimdTier::available() {
            for offline in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
                for (name, matrix, plan) in &plans {
                    for (threads, batch) in [(1usize, 0usize), (2, 7)] {
                        let job = CountJob { offline, plan: plan.clone(), ..job(29, threads, batch) };
                        let at = format!("{tier} {offline:?} {name} threads {threads} batch {batch}");
                        let oracle = aggregated_oracle(*matrix, matrix.n(), &job);
                        let got = run_scheduled(*matrix, &job, &job.local_scheduler(matrix.n()), tier, None);
                        assert_eq!((got.share1, got.share2), oracle, "{at}");
                        assert_eq!(got.reconstruct(), want(name), "{at}");
                    }
                }
                let job = CountJob { offline, plan: SchedulePlan::CsrStream(Arc::clone(&csr)), ..job(29, 2, 7) };
                let got = run_scheduled(&*csr, &job, &job.local_scheduler(csr.n()), tier, None);
                let at = format!("{tier} {offline:?} CSR input");
                assert_eq!((got.share1, got.share2), aggregated_oracle(&*csr, csr.n(), &job), "{at}");
            }
        }
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
    fn communication_matches_pair_count() {
        let n = 20;
        let g = erdos_renyi(n, 0.5, 2);
        let res = count_local(&g.to_bit_matrix(), &CountJob::new(1));
        let (c3, c2) = ((n * (n - 1) * (n - 2) / 6) as u64, (n * (n - 1) / 2) as u64);
        assert_eq!(res.triples, c3);
        // One opening each way per pair the cube reads — every pair —
        // however many triples read it.
        assert_eq!(res.net.elements, 2 * c2);
        assert_eq!(res.net.bytes, 16 * c2);
        assert_eq!(res.upload_elements, 2 * (n * n) as u64);
        // Rounds: the pairs are opened b at a time — rounds == ⌈P/b⌉.
        for b in [5usize, 64, 1_000_000] {
            let batched = count_local(&g.to_bit_matrix(), &job(1, 1, b));
            let sched = job(1, 1, b).local_scheduler(n);
            assert_eq!(sched.pair_set().len() as u64, c2);
            let batch = sched.batch() as u64;
            assert_eq!(batched.net.rounds, c2.div_ceil(batch), "batch {b}");
            assert_eq!(batched.net.peak_batch, batch.min(c2), "batch {b}");
            assert_eq!(batched.net.elements, 2 * c2, "batch {b}");
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
