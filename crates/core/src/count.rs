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
//! The masks are keyed by **pair** (`x = λ_ij, y = λ_ik, z = λ_jk`), so
//! a Count runs in two steps. First it opens every pair its plan reads
//! once — `e_ij = a_ij − λ_ij`, the plan's pair set
//! ([`CountScheduler::pair_set`]) in canonical order, `batch` pairs a
//! round — and in OT mode runs the offline dialogue. Each server's side
//! of that step is one machine with no I/O in it
//! (`count_machine::ServerCount`), and two drivers run the machines:
//!
//! | Driver | Shape |
//! |---|---|
//! | [`count_local`] | both servers' machines stepped in one thread, each message handed over unencoded — over a [`BitMatrix`] or, with no `n × n` storage, a [`CsrGraph`] |
//! | [`crate::count_runtime::count_party`] | one server's machine against its peer over a live [`cargo_mpc::Transport`] link; [`crate::count_runtime::count_two_party`] runs two, one per end of a link pair |
//!
//! Then every chunk combines its triples locally, exchanging nothing: the
//! one chunk loop (`combine_chunk` under [`CountScheduler::run_chunks`])
//! runs each server's [`weighted_pass`] over `k`-runs of its
//! [`PairTable`], in cache blocks of `ROW_BLOCK` rows (`plan_runs`). The
//! drivers produce **bit-identical** share pairs and ledgers for the same
//! [`CountJob`] (the equivalence suites under `crates/core/tests/` pin
//! this); [`secure_count_reference`] is the un-inlined protocol object
//! they are anchored to.
//!
//! * **Share expansion.** `⟨a_ij⟩₁ = PRF(seed, i, j)`, `⟨a_ij⟩₂ = a_ij −
//!   ⟨a_ij⟩₁`: no ring matrix is materialised, and S₂'s pair masking is
//!   the one place a plaintext bit is read. Dealer randomness is keyed
//!   per pair ([`cargo_mpc::PairDealer`]), so the shares are
//!   bit-identical for every thread count and batch size.
//! * **Communication.** A plan reading `P` pairs costs `16·P` bytes in
//!   `⌈P/batch⌉` rounds. A serve run keeps the openings its Counts
//!   exchanged ([`OpenedPairs`]), and a Count exchanges only the `new`
//!   pairs no earlier one opened: `16·new` bytes in `⌈new/batch⌉` rounds
//!   ([`count_local_reusing`], [`crate::pair_phase`]). Both drivers tally
//!   it in closed form ([`NetStats::exchange_pairs`]); on a link,
//!   `wire_bytes` are what the Count's frames carried.

use crate::config::CargoConfig;
use crate::count_machine::{CountError, CountMsg, ServerCount, Step};
use crate::count_sched::{CountScheduler, PairChunk, PairSet, SchedulePlan};
use crate::pair_phase::{OpenedPairs, PairPhase};
use cargo_graph::{BitMatrix, CsrGraph};
use cargo_mpc::{
    count_offline_ledger, mask_prf, mul3_combine, ot_setup_ledger, push_triples, share_prf,
    weighted_pass, MgDraw, Mul3Opening, NetStats, OfflineMode, PairDealer, PairRun, PairTable,
    RecvError, Ring64, ServerId, SimdTier, SlotTriple, LANES,
};
use std::collections::VecDeque;
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
    /// Worker threads (per server on the wire); `0` ⇒ all
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
    /// ([`cargo_mpc::offline`]) — one vector-OLE key per
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
/// [`secure_count_reference`] at the opened count. It steps both
/// servers' machines, the ones a wire party steps one of, and runs the
/// same chunk loop, so it differs from
/// [`count_two_party`](crate::count_runtime::count_two_party) in the
/// link only. Input kind, plan and offline mode are orthogonal: a CSR
/// input in OT mode over the eager sparse plan is as valid as the dense
/// matrix cube.
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
    let both = ([ServerId::S1, ServerId::S2], SimdTier::detect());
    match input.into() {
        CountInput::Matrix(m) => run_count(m, (job, &job.local_scheduler(m.n())), both, opened, drive_local),
        CountInput::Csr(g) => run_count(g, (job, &job.local_scheduler(g.n())), both, opened, drive_local),
    }
}

/// Runs `job` over `sched` as `servers` — the one Count function,
/// whichever driver plays them: builds each server's machine
/// ([`ServerCount`], its table at `tier`), has `drive` poll them to their
/// tables, runs the chunk loop over those ([`combine_chunk`] under
/// [`CountScheduler::run_chunks`]) and adds each server's Count term.
/// The ledger is the pair phase's in closed form, in OT mode with the
/// offline dialogue's; its `wire_bytes` are what `drive` measured on a
/// link, if it has one. `opened` then keeps the new pairs' openings.
///
/// # Panics
/// Panics with a Count's error — a lost peer, a message off this
/// server's cut — the one place one becomes a panic.
pub(crate) fn run_count<B: AdjacencyBits, const S: usize>(
    bits: &B,
    (job, sched): (&CountJob, &CountScheduler),
    (servers, tier): ([ServerId; S], SimdTier),
    opened: Option<&mut OpenedPairs>,
    drive: impl FnOnce(&mut [ServerCount<'_, B>; S]) -> Result<Option<u64>, CountError>,
) -> SecureCountResult {
    // A plan with no triples has no words to derandomise onto: no
    // offline dialogue, no Count term, and shares (0, 0).
    let (pairs, any) = (sched.pair_set(), !sched.chunks().is_empty());
    let offline = any && job.offline == OfflineMode::OtExtension;
    let triples = offline.then(|| plan_triples(&pairs, sched));
    let mut machines = servers.map(|id| {
        let bits = (id == ServerId::S2).then_some(bits);
        let phase = PairPhase::new((sched, &pairs), bits, (job.seed, opened.as_deref()));
        let mut table = PairTable::new(job.seed, id, job.offline == OfflineMode::OtExtension).at_tier(tier);
        table.reserve(pairs.len());
        ServerCount::new(phase, table, triples.as_deref())
    });
    let measured = drive(&mut machines).unwrap_or_else(|e| panic!("{e}"));
    let (mut exchanged, mut fresh) = (0, Vec::new());
    let tables = machines.map(|machine| {
        let table;
        (table, exchanged, fresh) = machine.into_parts();
        table
    });
    let parts = sched.run_chunks(|chunk| combine_chunk(&mut Vec::new(), (&*pairs, tables.each_ref()), sched, chunk));
    let mut shares = [Ring64::ZERO; 2];
    for (id, table) in servers.iter().zip(&tables).filter(|_| any) {
        shares[*id as usize] += Ring64(table.count_term());
    }
    let mut triples_done = 0;
    for (part, done) in parts {
        servers.iter().zip(part).for_each(|(id, share)| shares[*id as usize] += share);
        triples_done += done as u64;
    }
    let mut net = NetStats::new();
    net.exchange_pairs(exchanged, sched.batch() as u64);
    net.wire_bytes = measured.unwrap_or(net.bytes);
    if offline {
        net.offline.merge(&ot_setup_ledger());
        net.offline.merge(&count_offline_ledger(pairs.len() as u64, triples_done));
    }
    if let Some(opened) = opened {
        opened.record(&fresh, tables[0].openings());
    }
    let n = sched.n() as u64;
    let [share1, share2] = shares;
    SecureCountResult { share1, share2, net, upload_elements: 2 * n * n, triples: triples_done }
}

/// The local driver: both servers' machines polled in turn in this
/// thread, each message handed to the other as it is, never encoded. In
/// a turn each machine runs until it sends one message, awaits one not
/// yet sent, or is done; each round's kept openings are rechecked
/// ([`ServerCount::recheck_kept`]).
fn drive_local<B: AdjacencyBits>(machines: &mut [ServerCount<'_, B>; 2]) -> Result<Option<u64>, CountError> {
    let mut queues: [VecDeque<CountMsg>; 2] = Default::default();
    let (mut done, mut checked) = ([false; 2], None);
    while done != [true; 2] {
        let (mut waiting, mut sent) = (None, false);
        for s in 0..2 {
            let mut inbox = None;
            while !done[s] {
                match machines[s].poll(inbox.take())? {
                    Step::Send(msg) => {
                        queues[1 - s].push_back(msg);
                        sent = true;
                        break;
                    }
                    Step::Await(awaited) => {
                        inbox = queues[s].pop_front();
                        if inbox.is_none() {
                            waiting = waiting.or(Some(awaited));
                            break;
                        }
                    }
                    Step::Done => done[s] = true,
                }
            }
        }
        machines[0].recheck_kept(&machines[1], &mut checked);
        // A machine awaits and neither sent: what it awaits will never
        // come, as from a peer that hung up.
        if let (Some(awaited), false) = (waiting, sent) {
            return Err(CountError::Recv { awaited, error: RecvError::Disconnected });
        }
    }
    Ok(None)
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
/// the block order to pay for itself.
const BLOCKED_RUN: usize = 32;

/// Lists `plan`'s `k`-runs into `runs` as the weighted pass reads them
/// ([`PairRun`]): their pairs' slots in `pairs`, and each run's
/// position in plan order — where its signs start. Where the runs are
/// long (a mean of [`BLOCKED_RUN`] triples) they are walked in cache
/// blocks: by block of [`ROW_BLOCK`] rows `i`, then by `j`, then in plan
/// order, so a block's runs that share a `(j, k)` row read it in turn —
/// side by side, where the pass tiles them. The pass's sums are wrapping
/// additions, so the order is free for the sum; the OT dialogue lists
/// the triples in it ([`plan_triples`]).
///
/// Every plan lists its pairs in `(i, j)` order and a pair's runs in `k`
/// order, so a block is contiguous and each of its rows ascends in `j`:
/// the blocked order is a merge of the block's at most [`ROW_BLOCK`]
/// rows, taken one `j` at a time with the rows in plan order — one
/// linear pass, no sort. Returns the plan's triples.
fn plan_runs(pairs: &PairSet, plan: &[MgDraw], runs: &mut Vec<PairRun>) -> usize {
    runs.clear();
    let triples = plan.iter().map(|d| d.groups as usize).sum();
    let mut slots = RunSlots { pairs, pair: None, slot: 0, rows: [0, 0] };
    if triples < BLOCKED_RUN * plan.len() {
        let mut at = 0;
        for d in plan {
            runs.push(slots.run(d, at));
            at += d.groups as usize;
        }
        return triples;
    }
    // Each row of a block: its draws not yet listed, and where the
    // first of them starts in plan order.
    let (mut rows, mut at) = (Vec::with_capacity(ROW_BLOCK as usize), 0);
    for block in plan.chunk_by(|a, b| a.i / ROW_BLOCK == b.i / ROW_BLOCK) {
        rows.clear();
        for row in block.chunk_by(|a, b| a.i == b.i) {
            rows.push((row, at));
            at += row.iter().map(|d| d.groups as usize).sum::<usize>();
        }
        while let Some(j) = rows.iter().filter_map(|(row, _)| Some(row.first()?.j)).min() {
            for (row, at) in &mut rows {
                while let Some((d, rest)) = row.split_first().filter(|(d, _)| d.j == j) {
                    runs.push(slots.run(d, *at));
                    (*row, *at) = (rest, *at + d.groups as usize);
                }
            }
        }
    }
    triples
}

/// Looks up runs' slots for [`plan_runs`]: a pair's own slot once, and
/// its runs' pairs in rows `i` and `j` from where its last lookup in the
/// row stopped (a pair's runs come in ascending `k`, whichever order
/// the pairs come in).
struct RunSlots<'a> {
    pairs: &'a PairSet,
    /// The pair of the run listed last, and its slot.
    pair: Option<(u32, u32)>,
    slot: usize,
    /// The lookup hints in rows `i` and `j`.
    rows: [usize; 2],
}

impl RunSlots<'_> {
    /// Draw `d` as a run starting at plan position `at`.
    fn run(&mut self, d: &MgDraw, at: usize) -> PairRun {
        if self.pair != Some((d.i, d.j)) {
            self.rows = [0, 0];
            self.pair = Some((d.i, d.j));
            self.slot = self.pairs.slot_near(d.i, d.j, &mut self.rows[0]);
        }
        let k = d.k_at(0) as u32;
        let (ik, jk) = (self.pairs.slot_near(d.i, k, &mut self.rows[0]), self.pairs.slot_near(d.j, k, &mut self.rows[1]));
        PairRun { slots: [self.slot, ik, jk], len: d.groups as usize, at }
    }
}

/// Walks a chunk's **draw plan** `plan` — one `(pair, k-run)` per
/// [`MgDraw`] — in slices of at least [`SLICE_DRAWS`] draws, cut at row
/// blocks: lists each slice as runs over the pair set once
/// ([`plan_runs`], into the scratch `runs`) and calls `f` with them and
/// the triples before the slice. Returns the plan's triples. Public,
/// hidden, for the micro-benchmarks' rows of the listing and the pass.
#[doc(hidden)]
pub fn walk_slices(
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
                        let sched = job.local_scheduler(matrix.n());
                        let both = ([ServerId::S1, ServerId::S2], tier);
                        let got = run_count(*matrix, (&job, &sched), both, None, drive_local);
                        assert_eq!((got.share1, got.share2), oracle, "{at}");
                        assert_eq!(got.reconstruct(), want(name), "{at}");
                    }
                }
                let job = CountJob { offline, plan: SchedulePlan::CsrStream(Arc::clone(&csr)), ..job(29, 2, 7) };
                let both = ([ServerId::S1, ServerId::S2], tier);
                let got = run_count(&*csr, (&job, &job.local_scheduler(csr.n())), both, None, drive_local);
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
    fn count_local_refuses_a_kept_opening_that_reopens_differently() {
        // K₆'s 15 pairs in rounds of 4, slot 0's kept opening off by
        // one: refused when its round sends (the run keeps that pair
        // alone) and when its round is a last round of kept pairs only,
        // which sends nothing (the run keeps all 15).
        let all: Vec<(u32, u32)> = (0..6).flat_map(|i| (i + 1..6).map(move |j| (i, j))).collect();
        let edges: Vec<(usize, usize)> = all.iter().map(|&(i, j)| (i as usize, j as usize)).collect();
        let complete = Graph::from_edges(6, &edges).unwrap();
        let plan = SchedulePlan::CandidatePairs(Arc::new(crate::count_sched::CandidateSet::from_graph(&complete)));
        let count = CountJob { plan, ..job(3, 1, 4) };
        let at_one = |&(i, j): &(u32, u32)| {
            [ServerId::S1, ServerId::S2].iter().fold(1u64, |e, &s| e.wrapping_sub(mask_prf(count.seed, s, i, j)))
        };
        for keep in [&all[..1], &all[..]] {
            let mut kept = OpenedPairs::new(count.seed, 6);
            let fresh: Vec<_> = keep.iter().enumerate().map(|(slot, &(i, j))| (slot, cargo_mpc::pair_key(i, j))).collect();
            let mut openings: Vec<u64> = keep.iter().map(at_one).collect();
            openings[0] = openings[0].wrapping_add(1);
            kept.record(&fresh, &openings);
            let m = complete.to_bit_matrix();
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                count_local_reusing(&m, &count, Some(&mut kept))
            }));
            let panic = refused.expect_err("a wrong kept opening must not count");
            let text = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(text.contains("the pair at slot 0 reopens at another value"), "{} kept: {text}", keep.len());
        }
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

    /// The blocked order by a comparison sort, as the listing took it
    /// before it merged: the runs in plan order and, where they average
    /// [`BLOCKED_RUN`] triples, sorted by `(i / ROW_BLOCK, j, at)`.
    fn sorted_runs(pairs: &PairSet, plan: &[MgDraw]) -> Vec<PairRun> {
        let mut at = 0;
        let mut keyed: Vec<_> = plan
            .iter()
            .map(|d| {
                let k = d.k_at(0) as u32;
                let slots = [pairs.slot(d.i, d.j), pairs.slot(d.i, k), pairs.slot(d.j, k)];
                at += d.groups as usize;
                ((d.i / ROW_BLOCK, d.j), PairRun { slots, len: d.groups as usize, at: at - d.groups as usize })
            })
            .collect();
        if at >= BLOCKED_RUN * keyed.len() {
            keyed.sort_unstable_by_key(|&(key, run)| (key, run.at));
        }
        keyed.into_iter().map(|(_, run)| run).collect()
    }

    /// `plan_runs` over `plan`, checked against the sort; whether the
    /// slice was blocked and its order differs from plan order.
    fn check_listing(pairs: &PairSet, plan: &[MgDraw]) -> bool {
        let mut runs = Vec::new();
        let triples = plan_runs(pairs, plan, &mut runs);
        let want = sorted_runs(pairs, plan);
        assert_eq!(triples, plan.iter().map(|d| d.groups as usize).sum::<usize>());
        assert_eq!(runs, want, "{} draws", plan.len());
        runs.iter().zip(1..).any(|(run, next)| want.get(next).is_some_and(|after| after.at < run.at))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn blocked_listing_is_the_sorted_order(
            n in 3u32..120,
            pair_odds in 0.2f64..1.0,
            k_odds in 0usize..4,
            cut in (0.0f64..1.0, 0.0f64..1.0),
            seed: u64,
        ) {
            // A random plan over the cube's pairs: some pairs, each with
            // its kept `k`s as maximal runs (several a pair where `k`s
            // drop out), listed as a plan lists them; then any slice of
            // it, so the first and last blocks are partial. Dense `k`s
            // at large `n` average far above BLOCKED_RUN, sparse ones
            // far below.
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (n, k_odds): (u32, f64) = (n, [1.0, 0.97, 0.6, 0.15][k_odds]);
            let mut plan = Vec::new();
            for i in 0..n {
                for j in i + 1..n.saturating_sub(1) {
                    let ks: Vec<u32> = (j + 1..n).filter(|_| rng.gen_bool(k_odds)).collect();
                    if rng.gen_bool(pair_odds) && !ks.is_empty() {
                        crate::count_sched::push_runs(&mut plan, i, j, &ks);
                    }
                }
            }
            let pairs = CountScheduler::new(n as usize, 1, 64).pair_set();
            let [a, b] = [cut.0, cut.1].map(|f| (f * plan.len() as f64) as usize);
            check_listing(&pairs, &plan[a.min(b)..a.max(b)]);
        }
    }

    #[test]
    fn every_slice_of_a_count_lists_its_runs_in_the_sorted_order() {
        // The Count's own slices: the cube's chunks start at any pair, so
        // their first blocks are partial; its early slices average far
        // above BLOCKED_RUN and its last ones below, and every slice of
        // a sparse plan, whose pairs hold several k-runs, below.
        let g = erdos_renyi(150, 0.4, 2);
        let sparse = SchedulePlan::CandidatePairs(Arc::new(crate::count_sched::CandidateSet::from_graph(&g)));
        for (plan, dense) in [(SchedulePlan::DenseCube, true), (sparse, false)] {
            let sched = CountScheduler::with_plan(150, 1, 64, plan);
            let pairs = sched.pair_set();
            let (mut blocked, mut slices) = (0, 0);
            for chunk in sched.chunks() {
                let plan = sched.chunk_plan(chunk);
                // Each draw's first triple in plan order names its slice.
                let starts: Vec<usize> = plan.iter().scan(0, |at, d| Some(std::mem::replace(at, *at + d.groups as usize))).collect();
                walk_slices(&mut Vec::new(), &pairs, &plan, |runs, done| {
                    let first = starts.partition_point(|&at| at < done);
                    blocked += usize::from(check_listing(&pairs, &plan[first..first + runs.len()]));
                    slices += 1;
                });
            }
            assert!(slices > blocked, "some slices are listed in plan order");
            assert_eq!(blocked > 0, dense, "the cube's long runs are blocked, the sparse plan's are not");
        }
    }
}
