//! The shared scheduler behind every Count implementation.
//!
//! Algorithm 4 evaluates one Multiplication Group per triple
//! `i < j < k`. Every executor in this crate — the fast kernel
//! ([`crate::count`], which the sampled estimator of
//! [`mod@crate::count_sampled`] also runs) and the message-passing
//! runtime ([`crate::count_runtime`]) — iterates the same space: an
//! outer walk over the `(i, j)` pairs with a non-empty `k` range, an
//! inner batched `k` loop per pair. This module owns that shape once:
//!
//! * **Three plan meanings, one walk.** A [`SchedulePlan`] says *which*
//!   triples are scheduled, in one of three ways that mean different
//!   things: [`SchedulePlan::DenseCube`] is the whole cube in closed
//!   form — the fully oblivious default; [`SchedulePlan::CandidatePairs`]
//!   is an explicit public triple list (a [`CandidateSet`]: a graph's
//!   triangles, a delta epoch's signed created and destroyed triples, …);
//!   [`SchedulePlan::CsrStream`] is the triangle closure of a public
//!   graph, regenerated chunk by chunk instead of stored. The secret
//!   stays what it always was (edge existence between scheduled pairs).
//!   All three are walked in exactly one place — the pair + `k`-list
//!   walk under [`CountScheduler::chunk_plan`] — and every
//!   scheduled triple's Multiplication Group is drawn at its
//!   **canonical** stream position (`k − j − 1` into pair `(i, j)`'s
//!   dealer stream), so its share pair is bit-identical under every
//!   plan that schedules it.
//! * **One filter seam.** That walk optionally passes each pair's
//!   `k`-list through a crate-private public-coin filter (the
//!   triple-sampling estimator's [`mod@crate::count_sampled`] coin): pairs
//!   whose filtered list is empty are dropped and the survivors keep
//!   their canonical offsets, so a sampled run is an ordinary run over
//!   a sparser plan. Chunk list, chunk ids and batch stay those of the
//!   unfiltered schedule.
//! * **Pair-space partitioning.** The pair list is cut into contiguous
//!   [`PairChunk`]s of roughly equal *triple* weight. The partition
//!   depends on the schedule's public inputs **only** — `n` for the
//!   dense cube, the candidate list for a sparse plan — never on
//!   worker count or machine, because chunk ids key the amortised OT
//!   offline sessions and the offline ledger must stay
//!   schedule-invariant. Workers pull chunks from an atomic queue.
//! * **Batched rounds.** A chunk's triples are opened
//!   [`CountScheduler::batch`] at a time **in plan order, across draw
//!   and pair boundaries** ([`cargo_mpc::plan_rounds`]): every round
//!   but a chunk's last carries exactly `3·batch` elements each way, so
//!   a chunk of `W` triples costs `⌈W/batch⌉` rounds however short its
//!   `k`-runs are. The cut is a pure function of the chunk's public
//!   plan and `batch`. (Kernel evaluation inside a party still walks
//!   the plan run by run, in blocks of at most `batch` — that grouping
//!   never reaches the wire.)
//! * **Determinism by construction.** Randomness is keyed per pair
//!   ([`cargo_mpc::PairDealer`], [`cargo_mpc::share_prf`]), never
//!   per worker or per chunk, so the servers' share pairs are bit-identical for
//!   every thread count and batch size — the partition only decides
//!   *who* consumes a stream. The scheduler-invariance property suite
//!   (`crates/core/tests/scheduler_invariance.rs`) pins this.

use crate::config::ScheduleKind;
use crate::count_sampled::TripleSampler;
use cargo_graph::{BitMatrix, CsrGraph, Graph, GraphBuilder, NeighborMarks};
use cargo_mpc::MgDraw;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default batch: 1 024 triples per round — a 24 kB opening frame each
/// way. Chosen by sweeping {256, 512, 1 024, 2 048} on the repo
/// benchmark's five workloads (`CHANGES.md`): on one core a round costs
/// a fixed hand-off (≈ 12 µs on the reference box) on top of its
/// arithmetic, so `release_s` falls with the round count up to 1 024
/// and no further, while `peak_rss_mb` stays within +10 % of the
/// previous default of 64.
pub const DEFAULT_COUNT_BATCH: usize = 1024;

/// Ceiling on the batch. A round is one frame each way — 24 B of
/// opening slab per triple — and every executor sizes its per-chunk
/// scratch by the batch (the in-process tile worker gathers 80 B of
/// dealer words per lane; a wire party holds its 24 B slab, the peer's
/// and 16 B of input shares per triple), so an unchecked `--batch` must
/// neither approach [`cargo_mpc::wire::MAX_FRAME_PAYLOAD_BYTES`] nor
/// drive a multi-gigabyte allocation: 2¹⁶ triples are a 1.5 MB frame.
pub(crate) const MAX_COUNT_BATCH: usize = 1 << 16;

/// Target number of chunks the pair walk is cut into. Fixed —
/// deliberately **not** scaled by the worker count — so the chunk list
/// is a function of the schedule's public inputs alone: the
/// chunk-amortised OT offline sessions are keyed by chunk id, and a
/// machine-dependent partition would make the offline ledger depend on
/// core count. 64 parts oversubscribes any worker pool this side of a
/// rack while keeping per-chunk state (one OT session, one batch
/// scratch) coarse.
const CHUNK_PARTS: u64 = 64;

/// Floor on a chunk's triple weight: below this, splitting buys no
/// wall-clock (a 512-triple chunk runs in ~15 µs) but costs one OT
/// session per chunk in the amortised offline phase. Small inputs
/// therefore collapse to a handful of chunks instead of shattering
/// into near-per-pair ones.
const MIN_CHUNK_TRIPLES: u64 = 512;

/// A **public** candidate structure for the sparse Count schedule: the
/// `(i, j)` pairs that may host an edge, with, per pair, the sorted
/// list of `k > j` for which both `(i, k)` and `(j, k)` are also
/// candidate pairs — i.e. exactly the triples the candidate structure
/// admits as triangles.
///
/// Only pairs with a **non-empty** `k`-list are stored (a pair without
/// closing candidates contributes no triple and would produce a
/// zero-group offline draw). The schedule — chunk partition, offline
/// plans, chunk ids — is a pure function of this list, which is why a
/// sparse run's OT sessions and [`cargo_mpc::OfflineLedger`] are
/// reproducible from public information alone.
///
/// Privacy: using a candidate set *reveals* it (that is the point —
/// see `PROTOCOL.md`'s leakage analysis). The canonical instantiation
/// is public structural knowledge such as the symmetrised edge
/// *support* of the dataset; the protocol's secrets remain the actual
/// edge bits between candidate pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    n: usize,
    /// Candidate pairs `(i, j)`, `i < j`, lexicographic, non-empty
    /// `k`-lists only.
    pairs: Vec<(u32, u32)>,
    /// `k`-list extents: pair `p`'s list is
    /// `ks[k_offsets[p]..k_offsets[p + 1]]`.
    k_offsets: Vec<usize>,
    /// Concatenated ascending `k`-lists.
    ks: Vec<u32>,
    /// Each admitted triple's public sign, parallel to `ks`: `0` adds
    /// its product to the count, `!0` subtracts it. Empty when every
    /// triple adds ([`CandidateSet::signed`] is the only signer).
    negate: Vec<u64>,
}

impl CandidateSet {
    /// Builds the candidate structure from a public graph: candidate
    /// pairs are `g`'s (symmetrised) edges, and pair `(i, j)`'s
    /// `k`-list is the sorted common neighborhood above `j` — the
    /// triples this structure admits are exactly `g`'s triangles.
    ///
    /// Because the Project phase only *deletes* edges, any θ-truncated
    /// version of `g` is still covered by this candidate set, so a
    /// sparse secure count over it equals the dense cube's count.
    pub fn from_graph(g: &Graph) -> Self {
        let csr = CsrGraph::from_graph(g);
        let n = g.n();
        let mut pairs = Vec::new();
        let mut k_offsets = vec![0usize];
        let mut ks = Vec::new();
        for i in 0..n {
            for &j in csr.neighbors(i).iter().filter(|&&j| (j as usize) > i) {
                let before = ks.len();
                csr.common_neighbors_above(i, j as usize, j as usize, &mut ks);
                if ks.len() > before {
                    pairs.push((i as u32, j));
                    k_offsets.push(ks.len());
                }
            }
        }
        CandidateSet {
            n,
            pairs,
            k_offsets,
            ks,
            negate: Vec::new(),
        }
    }

    /// Builds the candidate structure from a (possibly asymmetric,
    /// e.g. θ-projected) matrix's **upper-triangle support**: the
    /// secure product of triple `i < j < k` multiplies exactly the
    /// upper entries `(i,j)`, `(i,k)`, `(j,k)`, so the triples this
    /// set admits are precisely those the dense cube could count as 1.
    pub fn from_support(m: &BitMatrix) -> Self {
        let n = m.n();
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in m.row(i).iter_ones().filter(|&j| j > i) {
                b.add_edge(i, j).expect("in range");
            }
        }
        Self::from_graph(&b.build())
    }

    /// The complete candidate structure on `n` vertices: every pair,
    /// every `k` — the sparse schedule degenerates to the dense cube.
    /// Mainly for equivalence tests; it costs `C(n, 3)` entries.
    pub fn complete(n: usize) -> Self {
        let mut pairs = Vec::new();
        let mut k_offsets = vec![0usize];
        let mut ks = Vec::new();
        if n >= 3 {
            for i in 0..(n as u32) {
                for j in (i + 1)..(n as u32 - 1) {
                    pairs.push((i, j));
                    ks.extend((j + 1)..(n as u32));
                    k_offsets.push(ks.len());
                }
            }
        }
        CandidateSet {
            n,
            pairs,
            k_offsets,
            ks,
            negate: Vec::new(),
        }
    }

    /// Builds the candidate structure from an explicit triple list —
    /// `(i, j, k)` with `i < j < k < n`, **sorted lexicographically
    /// and unique**. The structure admits exactly the listed triples,
    /// each at its canonical dealer-stream offset (`k − j − 1` within
    /// pair `(i, j)`'s stream), so a planned count over it draws the
    /// very same MG words a full sparse run would for those triples.
    /// Every triple adds; [`Self::signed`] lists triples that subtract.
    ///
    /// Panics on unsorted, duplicate, degenerate, or out-of-range
    /// input — the delta layer produces canonical lists by
    /// construction, so a violation is a caller bug.
    pub fn from_triples(n: usize, triples: &[(u32, u32, u32)]) -> Self {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut k_offsets = vec![0usize];
        let mut ks: Vec<u32> = Vec::new();
        for &(i, j, k) in triples {
            assert!(
                i < j && j < k && (k as usize) < n,
                "triple ({i},{j},{k}) is not i<j<k within n={n}"
            );
            if pairs.last() == Some(&(i, j)) {
                let prev = *ks.last().expect("pair exists, so its list is non-empty");
                assert!(prev < k, "triples must be sorted and unique");
                ks.push(k);
                *k_offsets.last_mut().expect("seeded with 0") = ks.len();
            } else {
                if let Some(&prev) = pairs.last() {
                    assert!(prev < (i, j), "triples must be sorted by (i, j)");
                }
                pairs.push((i, j));
                ks.push(k);
                k_offsets.push(ks.len());
            }
        }
        CandidateSet {
            n,
            pairs,
            k_offsets,
            ks,
            negate: Vec::new(),
        }
    }

    /// [`Self::from_triples`] over the union of two disjoint sorted
    /// triple lists, each triple carrying the public sign of its list: a
    /// Count over the set adds the products of `plus` and subtracts those
    /// of `minus`. This is the incremental engine's entry point: a delta
    /// epoch's created triangles add and its destroyed ones subtract, in
    /// one Count.
    ///
    /// Panics as [`Self::from_triples`] does, and on a triple in both
    /// lists.
    pub fn signed(n: usize, plus: &[(u32, u32, u32)], minus: &[(u32, u32, u32)]) -> Self {
        let (mut triples, mut negate) = (Vec::with_capacity(plus.len() + minus.len()), Vec::new());
        let (mut p, mut m) = (plus.iter().peekable(), minus.iter().peekable());
        // Merge the two sorted lists; `from_triples` checks the result.
        while let Some(&&t) = p.peek().into_iter().chain(m.peek()).min() {
            let from_plus = p.next_if_eq(&&t).is_some();
            if !from_plus {
                m.next();
            }
            triples.push(t);
            negate.push(if from_plus { 0 } else { !0 });
        }
        let mut cs = Self::from_triples(n, &triples);
        if !minus.is_empty() {
            cs.negate = negate;
        }
        cs
    }

    /// Vertex-space dimension the candidate pairs live in.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of candidate pairs with a non-empty `k`-list.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the structure admits no triple at all.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `idx`-th candidate pair (lexicographic order).
    pub fn pair(&self, idx: usize) -> (u32, u32) {
        self.pairs[idx]
    }

    /// The `idx`-th pair's ascending `k`-list (never empty).
    pub fn ks(&self, idx: usize) -> &[u32] {
        &self.ks[self.k_offsets[idx]..self.k_offsets[idx + 1]]
    }

    /// Total triples the structure admits — the sparse schedule's
    /// whole workload.
    pub fn total_triples(&self) -> u64 {
        self.ks.len() as u64
    }
}

/// Which region of the `i < j < k` cube a [`CountScheduler`] covers —
/// three *meanings*, not three implementations of one: the cube in
/// closed form, an explicit triple list, and a graph's triangle closure
/// streamed from its adjacency. The scheduler walks all of them in one
/// place.
#[derive(Debug, Clone, Default)]
pub enum SchedulePlan {
    /// Every triple, in closed form — the fully oblivious default: the
    /// execution's shape reveals nothing but `n`.
    #[default]
    DenseCube,
    /// An explicit public triple list: only the triples a
    /// [`CandidateSet`] admits — a graph's triangles
    /// ([`CandidateSet::from_graph`]) or any sorted list, such as a
    /// delta epoch's created and destroyed triples, signed
    /// ([`CandidateSet::signed`]). Reveals the candidate
    /// structure (and nothing else); turns the `O(n³)` cube into work
    /// linear in the candidate triple count.
    CandidatePairs(Arc<CandidateSet>),
    /// The same candidate triples as
    /// `CandidatePairs(CandidateSet::from_graph(g))` — same pairs, same
    /// `k`-lists, same chunk partition, bit-identical shares — but
    /// generated **lazily from the CSR adjacency** instead of being
    /// materialised up front. [`CountScheduler::chunk_plan`] walks the
    /// chunk's pairs through [`CsrGraph::walk_upper_edges`] into a
    /// reusable scratch on demand, so a planned run's peak memory is
    /// O(n + m + chunk), never O(#candidate triples).
    ///
    /// What the scheduler does remember is one `u32` per edge — the
    /// length of that edge's `k`-list, a pure function of the public
    /// CSR — computed in a single marked-intersection pass at
    /// construction. Total, chunk cut and each chunk's resume point all
    /// come from that array, and a chunk-plan request re-intersects
    /// only the chunk's own candidate edges (the ones with a non-zero
    /// entry), so every candidate's `k`-list is computed exactly twice
    /// per Count and every non-candidate edge once. The
    /// stream-equivalence suite pins this plan's chunks and draws equal
    /// to the eager plan's.
    ///
    /// Edges are numbered with `u32` ordinals: a graph with more than
    /// `u32::MAX` edges is rejected at construction.
    CsrStream(Arc<CsrGraph>),
}

impl SchedulePlan {
    /// The plan a configured [`ScheduleKind`] denotes over the
    /// (projected) matrix `m` — the oblivious cube, or the candidate
    /// structure of `m`'s upper-triangle support, eager or streamed.
    /// A pure function of public state: both wire parties derive the
    /// identical plan locally, it is never a message.
    pub fn for_support(kind: ScheduleKind, m: &BitMatrix) -> Self {
        match kind {
            ScheduleKind::Dense => SchedulePlan::DenseCube,
            ScheduleKind::Sparse => {
                SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_support(m)))
            }
            ScheduleKind::SparseStream => {
                SchedulePlan::CsrStream(Arc::new(CsrGraph::from_support(m)))
            }
        }
    }
}

/// A contiguous run of `(i, j)` pairs in schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairChunk {
    /// Chunk index — the tag its messages travel under in the sharded
    /// runtime.
    pub id: u32,
    /// First pair of the run.
    start: (u32, u32),
    /// Ordinal of the first pair within the schedule's pair list
    /// (index into [`CandidateSet`] for sparse plans).
    first: u32,
    /// Number of pairs in the run.
    pub pairs: u32,
    /// Total triples across the run (the chunk's work weight).
    pub triples: u64,
}

/// Deterministic partition of the Count phase's `(i, j)` pair space.
#[derive(Debug, Clone)]
pub struct CountScheduler {
    n: usize,
    workers: usize,
    batch: usize,
    plan: SchedulePlan,
    chunks: Vec<PairChunk>,
    total_triples: u64,
    /// Empty unless the plan is [`SchedulePlan::CsrStream`].
    stream: StreamIndex,
    /// The public-coin filter on the pair walk, if this is a sampled
    /// run's schedule.
    sampler: Option<TripleSampler>,
}

/// What a [`SchedulePlan::CsrStream`] schedule remembers of its one
/// intersection pass — 4 bytes per edge, a pure function of the public
/// CSR. Lives beside the chunk list rather than in [`PairChunk`], which
/// stays field-for-field equal to the eager plan's.
#[derive(Debug, Clone, Default)]
struct StreamIndex {
    /// `weights[e]` is the `k`-list length of upper edge `e` (edges
    /// numbered in [`CsrGraph::walk_upper_edges`] order); non-zero
    /// exactly on the candidate pairs.
    weights: Vec<u32>,
    /// `chunk_edge[chunk.id]` is the edge ordinal of the chunk's first
    /// pair — where its walk resumes.
    chunk_edge: Vec<u32>,
}

impl CountScheduler {
    /// Builds the dense-cube schedule for an `n × n` matrix.
    ///
    /// * `threads` — worker threads; `0` means all cores.
    /// * `batch` — triples per round; `0` means
    ///   [`DEFAULT_COUNT_BATCH`]. Clamped to the heaviest chunk (no
    ///   round can be fuller than that) and to 2¹⁶.
    ///
    /// The share pairs produced under this schedule are identical for
    /// every `(threads, batch)` choice; only wall-clock and round
    /// granularity change.
    pub fn new(n: usize, threads: usize, batch: usize) -> Self {
        Self::with_plan(n, threads, batch, SchedulePlan::DenseCube)
    }

    /// Builds the schedule for an explicit [`SchedulePlan`].
    ///
    /// For [`SchedulePlan::CandidatePairs`] the candidate set's `n`
    /// must match (it indexes the same share matrix).
    pub fn with_plan(n: usize, threads: usize, batch: usize, plan: SchedulePlan) -> Self {
        match &plan {
            SchedulePlan::DenseCube => {}
            SchedulePlan::CandidatePairs(cs) => {
                assert_eq!(cs.n(), n, "candidate set dimension must match the matrix");
            }
            SchedulePlan::CsrStream(csr) => {
                assert_eq!(csr.n(), n, "candidate set dimension must match the matrix");
            }
        }
        let workers = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        }
        .max(1);
        let (total_triples, chunks, stream) = match &plan {
            SchedulePlan::DenseCube => {
                pair_ordinals("dense-cube pairs", dense_pair_count(n));
                let total = if n < 3 {
                    0
                } else {
                    (n as u64) * (n as u64 - 1) * (n as u64 - 2) / 6
                };
                (total, build_chunks(n, total), StreamIndex::default())
            }
            SchedulePlan::CandidatePairs(cs) => {
                (cs.total_triples(), build_sparse_chunks(cs), StreamIndex::default())
            }
            SchedulePlan::CsrStream(csr) => build_csr_chunks(csr),
        };
        // Rounds never span chunks, so a batch above the heaviest
        // chunk's weight changes nothing but scratch sizes.
        let heaviest = chunks.iter().map(|c| c.triples).max().unwrap_or(0);
        let batch = if batch == 0 { DEFAULT_COUNT_BATCH } else { batch }
            .min(MAX_COUNT_BATCH)
            .min(usize::try_from(heaviest).unwrap_or(usize::MAX))
            .max(1);
        CountScheduler {
            n,
            workers,
            batch,
            plan,
            chunks,
            total_triples,
            stream,
            sampler: None,
        }
    }

    /// The same schedule — chunk list, chunk ids, batch — with every
    /// pair's `k`-list passed through `sampler`'s public coins.
    ///
    /// # Panics
    /// Panics on a signed plan, whose signs follow the unfiltered lists.
    pub(crate) fn sampled(mut self, sampler: TripleSampler) -> Self {
        assert!(
            !matches!(&self.plan, SchedulePlan::CandidatePairs(cs) if !cs.negate.is_empty()),
            "a signed plan cannot be sampled"
        );
        self.sampler = Some(sampler);
        self
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resolved worker count (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Resolved batch size (≥ 1).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The chunk list (empty when the schedule admits no triple).
    pub fn chunks(&self) -> &[PairChunk] {
        &self.chunks
    }

    /// Every triple the schedule covers exactly once — `C(n, 3)` for
    /// the dense cube, the candidate structure's admitted-triple count
    /// for a sparse plan.
    pub fn total_triples(&self) -> u64 {
        self.total_triples
    }

    /// The schedule's plan.
    pub fn plan(&self) -> &SchedulePlan {
        &self.plan
    }

    /// The chunk's offline preprocessing plan: one [`MgDraw`] per pair
    /// and maximal contiguous `k`-run, **at the run's canonical stream
    /// offset** (`k₀ − j − 1`). For the dense cube every pair is one
    /// full-range draw starting at offset 0; a sparse plan draws each
    /// surviving run exactly where the dense cube would have, skipping
    /// (for free — the dealer PRG seeks in `O(1)`) everything between.
    /// Single source of truth for every consumer of the chunk-keyed OT
    /// sessions (fast kernel, sharded runtime, ledger fixtures) — and,
    /// under a sampler, the sampled estimator's sparser plan.
    pub fn chunk_plan(&self, chunk: &PairChunk) -> Vec<MgDraw> {
        let mut draws = Vec::new();
        self.for_each_pair(chunk, |i, j, ks| match ks {
            None => draws.push(MgDraw::dense(i as u32, j as u32, (self.n - j - 1) as u32)),
            Some(ks) => push_runs(&mut draws, i as u32, j as u32, ks),
        });
        draws
    }

    /// The sign masks of `chunk`'s triples in plan order — lane `t` of the
    /// chunk's rounds is triple `t` ([`CandidateSet::signed`]) — or `None`
    /// when every triple of the plan adds.
    pub(crate) fn chunk_signs(&self, chunk: &PairChunk) -> Option<&[u64]> {
        match &self.plan {
            SchedulePlan::CandidatePairs(cs) if !cs.negate.is_empty() => {
                let (first, end) = (chunk.first as usize, (chunk.first + chunk.pairs) as usize);
                Some(&cs.negate[cs.k_offsets[first]..cs.k_offsets[end]])
            }
            _ => None,
        }
    }

    /// Calls `f(i, j, ks)` for each of `chunk`'s pairs in schedule
    /// order with the pair's public ascending `k`-list — `None` on the
    /// unfiltered dense cube, where every `k > j` is scheduled. The one
    /// place a plan kind is walked. A streamed plan regenerates exactly
    /// this chunk's lists: the walk resumes at the chunk's edge ordinal,
    /// re-intersects only the edges the index weighs non-zero, and the
    /// lists live only in the walker's scratch.
    ///
    /// Under a sampler each list is first thinned by the pair's public
    /// coins and pairs left with nothing are skipped; without one the
    /// seam costs an untaken branch per pair.
    pub(crate) fn for_each_pair(
        &self,
        chunk: &PairChunk,
        mut f: impl FnMut(usize, usize, Option<&[u32]>),
    ) {
        let mut scratch = Vec::new();
        let mut emit = |i: usize, j: usize, ks: Option<&[u32]>| match &self.sampler {
            None => f(i, j, ks),
            Some(sampler) => {
                let kept = sampler.sample(i as u32, j as u32, self.n, ks, &mut scratch);
                if !kept.is_empty() {
                    f(i, j, Some(kept));
                }
            }
        };
        match &self.plan {
            SchedulePlan::DenseCube => {
                let (mut i, mut j) = (chunk.start.0 as usize, chunk.start.1 as usize);
                for _ in 0..chunk.pairs {
                    emit(i, j, None);
                    // Next pair with a non-empty k range (j ≤ n − 2).
                    if j + 2 < self.n {
                        j += 1;
                    } else {
                        i += 1;
                        j = i + 1;
                    }
                }
            }
            SchedulePlan::CandidatePairs(cs) => {
                for idx in chunk.first as usize..chunk.first as usize + chunk.pairs as usize {
                    let (i, j) = cs.pair(idx);
                    emit(i as usize, j as usize, Some(cs.ks(idx)));
                }
            }
            SchedulePlan::CsrStream(csr) => {
                let weights = &self.stream.weights;
                let mut left = chunk.pairs;
                csr.walk_upper_edges(
                    chunk.start,
                    self.stream.chunk_edge[chunk.id as usize] as usize,
                    &mut NeighborMarks::new(csr.n()),
                    |e| weights[e] > 0,
                    |_, i, j, ks| {
                        emit(i, j, Some(ks));
                        left -= 1;
                        left > 0
                    },
                );
            }
        }
    }

    /// Runs `work` over every chunk on the scheduler's worker pool
    /// (scoped threads pulling chunk indices from an atomic queue) and
    /// returns the per-chunk results in chunk order. With one worker —
    /// or one chunk — everything runs inline on the caller's thread.
    pub fn run_chunks<R, F>(&self, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&PairChunk) -> R + Sync,
    {
        let chunks = &self.chunks;
        let spawn = self.workers.min(chunks.len());
        if spawn <= 1 {
            return chunks.iter().map(work).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(chunks.len()));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawn)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= chunks.len() {
                                break;
                            }
                            local.push((idx, work(&chunks[idx])));
                        }
                        slots.lock().expect("result lock poisoned").extend(local);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("count worker panicked");
            }
        });
        let mut collected = slots.into_inner().expect("result lock poisoned");
        collected.sort_by_key(|(idx, _)| *idx);
        collected.into_iter().map(|(_, r)| r).collect()
    }
}

/// Appends one [`MgDraw`] per maximal contiguous run of `ks` for pair
/// `(i, j)`, each at its canonical stream offset `k₀ − j − 1`.
pub(crate) fn push_runs(draws: &mut Vec<MgDraw>, i: u32, j: u32, ks: &[u32]) {
    let mut r = 0;
    while r < ks.len() {
        let mut end = r + 1;
        while end < ks.len() && ks[end] == ks[end - 1] + 1 {
            end += 1;
        }
        draws.push(MgDraw {
            i,
            j,
            start: ks[r] - j - 1,
            groups: (end - r) as u32,
        });
        r = end;
    }
}

/// The one cut rule of every plan: packs pairs, in schedule order, into
/// chunks of roughly `total / CHUNK_PARTS` triples each (floored at
/// [`MIN_CHUNK_TRIPLES`]). The cut depends only on the pushed
/// `(pair, weight)` sequence — see [`CHUNK_PARTS`] for why worker count
/// must not leak in — so plans that list the same pairs with the same
/// weights get the identical chunk list.
struct ChunkCutter {
    target: u64,
    chunks: Vec<PairChunk>,
    /// Pairs pushed so far — the next pair's ordinal.
    ordinal: u32,
    /// The chunk still filling, if a pair was pushed since the last cut.
    open: Option<PairChunk>,
}

impl ChunkCutter {
    fn new(total_triples: u64) -> Self {
        ChunkCutter {
            target: (total_triples / CHUNK_PARTS).max(MIN_CHUNK_TRIPLES),
            chunks: Vec::new(),
            ordinal: 0,
            open: None,
        }
    }

    /// Appends the next pair and its triple weight; `true` when the
    /// pair opened a new chunk.
    fn push(&mut self, pair: (u32, u32), triples: u64) -> bool {
        let opened = self.open.is_none();
        let chunk = self.open.get_or_insert(PairChunk {
            id: self.chunks.len() as u32,
            start: pair,
            first: self.ordinal,
            pairs: 0,
            triples: 0,
        });
        chunk.pairs += 1;
        chunk.triples += triples;
        self.ordinal += 1;
        if chunk.triples >= self.target {
            self.chunks.extend(self.open.take());
        }
        opened
    }

    fn finish(mut self) -> Vec<PairChunk> {
        self.chunks.extend(self.open.take());
        self.chunks
    }
}

/// The dense cube's chunk list: every pair `(i, j)` with a non-empty
/// `k` range, weighing `n − j − 1` triples. Depends only on `n`.
fn build_chunks(n: usize, total_triples: u64) -> Vec<PairChunk> {
    let mut cut = ChunkCutter::new(total_triples);
    for i in 0..n.saturating_sub(2) {
        for j in (i + 1)..(n - 1) {
            cut.push((i as u32, j as u32), (n - j - 1) as u64);
        }
    }
    cut.finish()
}

/// The eager sparse plan's chunk list: a pure function of the candidate
/// list, for the same reason the dense partition is a pure function of
/// `n`.
fn build_sparse_chunks(cs: &CandidateSet) -> Vec<PairChunk> {
    pair_ordinals("candidate pairs", cs.len() as u64);
    let mut cut = ChunkCutter::new(cs.total_triples());
    for idx in 0..cs.len() {
        cut.push(cs.pair(idx), cs.ks(idx).len() as u64);
    }
    cut.finish()
}

/// [`PairChunk`] numbers a schedule's pairs — and a streamed plan its
/// edges — in `u32`, and [`ChunkCutter`] counts them unchecked: refuses,
/// before anything is walked, a plan whose ordinals would wrap, naming
/// the limit.
fn pair_ordinals(what: &str, count: u64) -> u32 {
    u32::try_from(count).unwrap_or_else(|_| {
        panic!("pair ordinals are u32: {count} {what} exceed the limit of {}", u32::MAX)
    })
}

/// Pairs of the dense cube with a non-empty `k` range, `C(n − 1, 2)` —
/// in closed form, so an oversized `n` fails before the 4·10⁹-pair cut.
fn dense_pair_count(n: usize) -> u64 {
    let n = n as u64;
    n.saturating_sub(1).saturating_mul(n.saturating_sub(2)) / 2
}

/// The streaming analogue of [`build_sparse_chunks`]: **one** pass of
/// marked intersections over the upper edges fills the per-edge weight
/// index; total, cut and resume ordinals then come from an
/// intersection-free sweep over that array. Produces the **identical**
/// chunk list (same cut rule, same candidate order), which the
/// stream-equivalence tests pin — chunk ids key the amortised OT
/// offline sessions, so the two sparse plans must agree chunk for
/// chunk.
fn build_csr_chunks(csr: &CsrGraph) -> (u64, Vec<PairChunk>, StreamIndex) {
    let mut weights = vec![0u32; pair_ordinals("CSR edges", csr.edge_count() as u64) as usize];
    csr.walk_upper_edges(
        (0, 0),
        0,
        &mut NeighborMarks::new(csr.n()),
        |_| true,
        // A k-list is a set of vertex ids, so its length fits u32.
        |e, _, _, ks| {
            weights[e] = ks.len() as u32;
            true
        },
    );
    let total = weights.iter().map(|&w| w as u64).sum();
    let mut cut = ChunkCutter::new(total);
    let mut chunk_edge = Vec::new();
    let mut e = 0u32;
    for i in 0..csr.n() {
        for &j in csr.upper_neighbors(i) {
            let w = weights[e as usize];
            if w > 0 && cut.push((i as u32, j), w as u64) {
                chunk_edge.push(e);
            }
            e += 1;
        }
    }
    (total, cut.finish(), StreamIndex { weights, chunk_edge })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_sampled::pair_coin;
    use cargo_graph::generators;

    #[test]
    fn chunk_weights_are_balanced() {
        let sched = CountScheduler::new(200, 4, 0);
        assert!(sched.chunks().len() >= 8, "oversubscribed chunking");
        let max = sched.chunks().iter().map(|c| c.triples).max().unwrap();
        let target = sched.total_triples() / sched.chunks().len() as u64;
        // No chunk should dominate: the last pair of a chunk can
        // overshoot by at most one pair's weight (< n triples).
        assert!(max <= target + 200, "max {max} vs target {target}");
    }

    #[test]
    fn chunk_list_is_independent_of_workers_and_batch() {
        // The chunk partition is keyed into the amortised offline
        // sessions, so it must be a function of n alone.
        for n in [5usize, 40, 150] {
            let base = CountScheduler::new(n, 1, 0);
            for (workers, batch) in [(2usize, 1usize), (4, 7), (16, 64), (0, 0)] {
                let other = CountScheduler::new(n, workers, batch);
                assert_eq!(other.chunks(), base.chunks(), "n={n} w={workers}");
            }
        }
    }

    #[test]
    fn small_inputs_use_few_coarse_chunks() {
        // The 512-triple floor keeps tiny pair spaces from shattering
        // into near-per-pair chunks (each chunk is one OT session).
        let sched = CountScheduler::new(24, 4, 0); // C(24,3) = 2024
        assert!(sched.chunks().len() <= 4, "{} chunks", sched.chunks().len());
    }

    #[test]
    fn zero_knobs_resolve_to_defaults() {
        let sched = CountScheduler::new(100, 0, 0);
        assert!(sched.workers() >= 1);
        assert_eq!(sched.batch(), DEFAULT_COUNT_BATCH);
    }

    #[test]
    fn oversized_batch_is_clamped_to_the_heaviest_chunk() {
        // A round never spans chunks, so nothing above the heaviest
        // chunk's weight changes the rounds — it would only inflate the
        // per-chunk scratch, and usize::MAX must not drive that
        // allocation. C(10, 3) = 120 triples are one chunk.
        assert_eq!(CountScheduler::new(10, 1, usize::MAX).batch(), 120);
        assert_eq!(CountScheduler::new(10, 1, 4).batch(), 4);
        assert_eq!(CountScheduler::new(0, 1, 0).batch(), 1);
        assert_eq!(CountScheduler::new(2, 1, 64).batch(), 1);
        // Heavy chunks: the frame-size ceiling takes over.
        let big = CountScheduler::new(400, 1, usize::MAX);
        assert!(big.chunks().iter().any(|c| c.triples > MAX_COUNT_BATCH as u64));
        assert_eq!(big.batch(), MAX_COUNT_BATCH);
    }

    #[test]
    fn tiny_n_has_no_chunks() {
        for n in 0..3 {
            let sched = CountScheduler::new(n, 4, 8);
            assert!(sched.chunks().is_empty());
            assert_eq!(sched.total_triples(), 0);
        }
    }

    #[test]
    fn run_chunks_preserves_chunk_order() {
        let sched = CountScheduler::new(60, 3, 0);
        let ids = sched.run_chunks(|c| c.id);
        let want: Vec<u32> = (0..sched.chunks().len() as u32).collect();
        assert_eq!(ids, want);
    }

    // ------------------------------------------------------ sparse --

    #[test]
    fn candidate_set_from_graph_lists_exactly_the_triangles_of_the_support() {
        // Diamond: triangles (0,1,2) and (1,2,3).
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
        let cs = CandidateSet::from_graph(&g);
        assert_eq!(cs.n(), 4);
        assert_eq!(cs.total_triples(), 2);
        let listed: Vec<_> = (0..cs.len())
            .flat_map(|p| {
                let (i, j) = cs.pair(p);
                cs.ks(p).iter().map(move |&k| (i, j, k)).collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(listed, vec![(0, 1, 2), (1, 2, 3)]);
        // Pairs without a closing candidate are dropped entirely.
        assert!((0..cs.len()).all(|p| !cs.ks(p).is_empty()));
    }

    #[test]
    fn complete_candidate_set_degenerates_to_the_dense_cube() {
        for n in [0usize, 1, 2, 3, 4, 5, 12] {
            let cs = CandidateSet::complete(n);
            let dense = CountScheduler::new(n, 1, 0);
            let sparse =
                CountScheduler::with_plan(n, 1, 0, SchedulePlan::CandidatePairs(Arc::new(cs)));
            assert_eq!(sparse.total_triples(), dense.total_triples(), "n={n}");
            // Same plans per chunk: one full-range draw per pair.
            let dense_plan: Vec<_> = dense
                .chunks()
                .iter()
                .flat_map(|c| dense.chunk_plan(c))
                .collect();
            let sparse_plan: Vec<_> = sparse
                .chunks()
                .iter()
                .flat_map(|c| sparse.chunk_plan(c))
                .collect();
            assert_eq!(sparse_plan, dense_plan, "n={n}");
        }
    }

    #[test]
    fn sparse_plans_draw_runs_at_canonical_offsets() {
        let mut draws = Vec::new();
        // Pair (2, 5) with ks = [6, 7, 9, 12, 13]: runs [6,7], [9], [12,13].
        push_runs(&mut draws, 2, 5, &[6, 7, 9, 12, 13]);
        assert_eq!(
            draws,
            vec![
                MgDraw { i: 2, j: 5, start: 0, groups: 2 },
                MgDraw { i: 2, j: 5, start: 3, groups: 1 },
                MgDraw { i: 2, j: 5, start: 6, groups: 2 },
            ]
        );
    }

    #[test]
    fn sparse_chunking_is_independent_of_workers_and_batch() {
        let g = generators::erdos_renyi(60, 0.2, 3);
        let cs = Arc::new(CandidateSet::from_graph(&g));
        let base =
            CountScheduler::with_plan(60, 1, 0, SchedulePlan::CandidatePairs(Arc::clone(&cs)));
        for (workers, batch) in [(2usize, 1usize), (4, 7), (0, 0)] {
            let other = CountScheduler::with_plan(
                60,
                workers,
                batch,
                SchedulePlan::CandidatePairs(Arc::clone(&cs)),
            );
            assert_eq!(other.chunks(), base.chunks());
        }
    }

    /// Graph families the streamed plan is held to the eager one on:
    /// random, power-law, a mid-id hub under low-degree sources,
    /// complete (chunks cut mid-vertex), triangle-free and empty.
    fn stream_families() -> Vec<(&'static str, Graph)> {
        let mut star_of_stars: Vec<(usize, usize)> =
            (0..200).filter(|&v| v != 100).map(|v| (100, v)).collect();
        star_of_stars.extend((0..60).map(|i| (i, 199 - i)));
        star_of_stars.extend((0..40).chain(160..199).map(|v| (150, v)));
        let bipartite: Vec<(usize, usize)> =
            (0..12).flat_map(|u| (12..24).map(move |v| (u, v))).collect();
        let complete: Vec<(usize, usize)> =
            (0..40).flat_map(|u| (u + 1..40).map(move |v| (u, v))).collect();
        vec![
            ("gnp-3", generators::erdos_renyi(3, 0.9, 1)),
            ("gnp-30", generators::erdos_renyi(30, 0.05, 2)),
            ("gnp-80", generators::erdos_renyi(80, 0.15, 11)),
            ("gnp-60", generators::erdos_renyi(60, 0.4, 5)),
            ("power-law", generators::chung_lu(400, 1600, 90, 2.2, 7)),
            ("star-of-stars", Graph::from_edges(200, &star_of_stars).unwrap()),
            ("complete", Graph::from_edges(40, &complete).unwrap()),
            ("bipartite", Graph::from_edges(24, &bipartite).unwrap()),
            ("edgeless", Graph::empty(7)),
            ("null", Graph::empty(0)),
        ]
    }

    /// `sched`'s whole schedule as `(i, j, canonical offset)`, one entry
    /// per scheduled triple: `chunk_plan` concatenated over the chunks
    /// and expanded draw by draw.
    fn expand(sched: &CountScheduler) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        for c in sched.chunks() {
            for d in sched.chunk_plan(c) {
                out.extend((d.start..d.start + d.groups).map(|off| (d.i, d.j, off)));
            }
        }
        out
    }

    /// The one plan-level property: whatever the plan kind, the
    /// schedule is the brute-force list of admitted triples in
    /// lexicographic order, each at its canonical offset `k − j − 1` —
    /// and under the sampling filter, exactly the sub-sequence a
    /// brute-force replay of the public coins selects.
    fn check_plan(name: &str, n: usize, plan: SchedulePlan, admitted: &[(u32, u32, u32)]) {
        let want: Vec<_> = admitted.iter().map(|&(i, j, k)| (i, j, k - j - 1)).collect();
        // The coin of (i, j, k) is output k − j − 1 of the pair's
        // stream, thresholded — a function of the triple alone, so the
        // same `keeps` set serves every plan kind that admits it.
        let (seed, rate) = (0xC01A, 0.3);
        let threshold = (rate * u64::MAX as f64) as u64;
        let want_sampled: Vec<_> = want
            .iter()
            .copied()
            .filter(|&(i, j, off)| {
                let mut coin = pair_coin(seed, i, j);
                (0..=off).map(|_| coin.next_u64()).last() <= Some(threshold)
            })
            .collect();
        // Workers and batch never move the schedule (the proptest this
        // replaces drew them at random).
        for (workers, batch) in [(1usize, 0usize), (2, 1), (4, 7), (7, 79)] {
            let sched = CountScheduler::with_plan(n, workers, batch, plan.clone());
            // Every admitted triple exactly once, in order, at its
            // canonical offset — hence every pair with a non-empty k
            // range exactly once, in order.
            assert_eq!(expand(&sched), want, "{name} w={workers} b={batch}");
            assert_eq!(sched.total_triples(), want.len() as u64, "{name}");
            for c in sched.chunks() {
                // A chunk resumes on its own, at its recorded first
                // pair, and its header counts what its walk yields.
                let draws = sched.chunk_plan(c);
                assert_eq!((draws[0].i, draws[0].j), c.start, "{name} chunk {}", c.id);
                let mut pairs: Vec<_> = draws.iter().map(|d| (d.i, d.j)).collect();
                pairs.dedup();
                assert_eq!(pairs.len(), c.pairs as usize, "{name} chunk {}", c.id);
                let groups: u64 = draws.iter().map(|d| d.groups as u64).sum();
                assert_eq!(groups, c.triples, "{name} chunk {}", c.id);
                // One draw per *maximal* run: same-pair neighbours gap.
                for w in draws.windows(2) {
                    let (a, b) = (&w[0], &w[1]);
                    assert!((a.i, a.j) != (b.i, b.j) || a.start + a.groups < b.start, "{name}");
                }
            }
            // Rate 1 keeps every coin: the plan is unchanged, draw for
            // draw (the dense cube's full ranges included).
            let all = sched.clone().sampled(TripleSampler::new(seed, 1.0));
            for c in sched.chunks() {
                assert_eq!(all.chunk_plan(c), sched.chunk_plan(c), "{name} chunk {}", c.id);
            }
            // Rate q: the replayed sub-sequence, over the unfiltered
            // chunk list.
            let some = sched.clone().sampled(TripleSampler::new(seed, rate));
            assert_eq!(some.chunks(), sched.chunks(), "{name}");
            assert_eq!(some.total_triples(), sched.total_triples(), "{name}");
            assert_eq!(expand(&some), want_sampled, "{name} w={workers} b={batch} q={rate}");
        }
    }

    fn cube_triples(n: usize) -> Vec<(u32, u32, u32)> {
        let n = n as u32;
        (0..n)
            .flat_map(|i| (i + 1..n).flat_map(move |j| (j + 1..n).map(move |k| (i, j, k))))
            .collect()
    }

    #[test]
    fn every_plan_kind_schedules_exactly_its_admitted_triples_filtered_or_not() {
        // Replaces the four tests that compared the deleted per-chunk
        // pair iterator to a pair list — `chunks_cover_the_pair_space_exactly_once`
        // (cube, n and workers below), the proptest
        // `schedule_covers_every_pair_exactly_once` (cube, arbitrary
        // workers × batch), `sparse_chunks_cover_the_candidate_list_exactly_once`
        // (eager list: per-chunk pair counts, first pair, Σ weights,
        // Σ plan groups) and the pair-walk half of
        // `csr_stream_schedule_equals_the_eager_sparse_schedule` — by
        // checking the triples themselves, which subsumes the pairs.
        for n in [0usize, 1, 2, 3, 4, 5, 17, 64, 101] {
            let cube = cube_triples(n);
            check_plan(&format!("cube-{n}"), n, SchedulePlan::DenseCube, &cube);
            if n <= 17 {
                let complete = Arc::new(CandidateSet::complete(n));
                check_plan(
                    &format!("complete-{n}"),
                    n,
                    SchedulePlan::CandidatePairs(complete),
                    &cube,
                );
            }
        }
        for (name, g) in stream_families() {
            let n = g.n();
            // Brute force: the support's triangles, lexicographic.
            let mut triangles = Vec::new();
            for (i, j) in g.edges() {
                for k in j + 1..n {
                    if g.has_edge(i, k) && g.has_edge(j, k) {
                        triangles.push((i as u32, j as u32, k as u32));
                    }
                }
            }
            triangles.sort_unstable();
            let eager = Arc::new(CandidateSet::from_graph(&g));
            check_plan(&format!("{name}/eager"), n, SchedulePlan::CandidatePairs(eager), &triangles);
            let csr = Arc::new(CsrGraph::from_graph(&g));
            check_plan(&format!("{name}/stream"), n, SchedulePlan::CsrStream(csr), &triangles);
            // An explicit list with holes punched into the k-runs (a
            // delta epoch's shape): admitted means listed, nothing more.
            let gappy: Vec<_> =
                triangles.iter().copied().filter(|&(i, j, k)| (i + 2 * j + k) % 3 != 0).collect();
            let listed = Arc::new(CandidateSet::from_triples(n, &gappy));
            check_plan(&format!("{name}/listed"), n, SchedulePlan::CandidatePairs(listed), &gappy);
        }
    }

    #[test]
    fn csr_stream_schedule_equals_the_eager_sparse_schedule() {
        // The streamed plan must be indistinguishable from the eager
        // one at the scheduler level: same chunk list (ids key OT
        // sessions), same draws at the same canonical offsets — lazily
        // regenerated instead of stored.
        let mut mid_vertex_starts = 0;
        for (name, g) in stream_families() {
            let n = g.n();
            let cs = Arc::new(CandidateSet::from_graph(&g));
            let csr = Arc::new(CsrGraph::from_graph(&g));
            let eager =
                CountScheduler::with_plan(n, 3, 0, SchedulePlan::CandidatePairs(cs));
            let streamed =
                CountScheduler::with_plan(n, 3, 0, SchedulePlan::CsrStream(Arc::clone(&csr)));
            assert_eq!(streamed.chunks(), eager.chunks(), "{name}");
            assert_eq!(streamed.total_triples(), eager.total_triples(), "{name}");
            for (sc, ec) in streamed.chunks().iter().zip(eager.chunks()) {
                // Each chunk resumes on its own: the eager draws are the
                // matching slice of a from-zero walk by construction.
                assert_eq!(streamed.chunk_plan(sc), eager.chunk_plan(ec), "{name} chunk={}", sc.id);
                let (i, j) = sc.start;
                mid_vertex_starts += (csr.upper_neighbors(i as usize)[0] != j) as usize;
            }
        }
        assert!(mid_vertex_starts > 0, "no chunk resumed inside a vertex's edge run");
    }

    #[test]
    fn csr_stream_with_no_triangles_has_no_chunks() {
        // A path graph has candidate pairs but no closing k anywhere:
        // the streamed schedule must collapse to zero chunks, exactly
        // like the eager one drops empty-k pairs.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let sched = CountScheduler::with_plan(
            5,
            2,
            0,
            SchedulePlan::CsrStream(Arc::new(CsrGraph::from_graph(&g))),
        );
        assert!(sched.chunks().is_empty());
        assert_eq!(sched.total_triples(), 0);
    }

    #[test]
    fn stream_index_weighs_each_edge_by_its_k_list() {
        for (name, g) in stream_families() {
            let cs = CandidateSet::from_graph(&g);
            let csr = Arc::new(CsrGraph::from_graph(&g));
            let sched =
                CountScheduler::with_plan(g.n(), 1, 0, SchedulePlan::CsrStream(Arc::clone(&csr)));
            // Walk order = lexicographic upper edges; the eager list is
            // its non-zero subsequence.
            let mut want = Vec::new();
            let mut idx = 0;
            for i in 0..g.n() {
                for &j in csr.upper_neighbors(i) {
                    if idx < cs.len() && cs.pair(idx) == (i as u32, j) {
                        want.push(cs.ks(idx).len() as u32);
                        idx += 1;
                    } else {
                        want.push(0);
                    }
                }
            }
            assert_eq!(idx, cs.len(), "{name}: every eager pair is an upper edge");
            assert_eq!(sched.stream.weights, want, "{name}");
            assert_eq!(sched.stream.chunk_edge.len(), sched.chunks().len(), "{name}");
        }
    }

    #[test]
    fn a_million_leaf_star_is_indexed_in_linear_time() {
        // Leaves have at most one upper neighbor (no marking, O(1));
        // the hub marks once and meets an empty window per leaf. A
        // per-vertex O(n) anywhere would take minutes here.
        let n = 1_000_001usize;
        for hub in [0u32, 500_000] {
            let pairs: Vec<(u32, u32)> = (0..n as u32)
                .filter(|&v| v != hub)
                .map(|v| (v.min(hub), v.max(hub)))
                .collect();
            let csr = Arc::new(CsrGraph::from_pairs(n, &pairs));
            let t = std::time::Instant::now();
            let sched = CountScheduler::with_plan(n, 1, 0, SchedulePlan::CsrStream(csr));
            let took = t.elapsed();
            assert!(sched.chunks().is_empty() && sched.total_triples() == 0);
            // ≈ 0.2 s in a debug build, ≈ 10 ms optimised; the slack
            // is for a loaded test host.
            assert!(took.as_secs_f64() < 2.0, "index pass took {took:?} (hub {hub})");
        }
    }

    #[test]
    #[should_panic(expected = "exceed the limit of 4294967295")]
    fn stream_plans_refuse_more_edges_than_u32_ordinals() {
        pair_ordinals("CSR edges", u32::MAX as u64 + 1);
    }

    #[test]
    #[should_panic(
        expected = "pair ordinals are u32: 4295022903 dense-cube pairs exceed the limit of 4294967295"
    )]
    fn dense_cube_refuses_more_pairs_than_u32_ordinals() {
        // n = 92 683 is the last cube whose C(n − 1, 2) pairs fit; one
        // more used to cut chunks with wrapped `first`/`pairs`. The
        // refusal is closed-form, so this returns at once.
        assert_eq!(pair_ordinals("dense-cube pairs", dense_pair_count(92_683)), 4_294_930_221);
        assert!(dense_pair_count(usize::MAX) > u32::MAX as u64, "saturates, never wraps");
        CountScheduler::new(92_684, 1, 0);
    }

    #[test]
    #[should_panic(expected = "candidate set dimension")]
    fn mismatched_stream_dimension_panics() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let csr = Arc::new(CsrGraph::from_graph(&g));
        CountScheduler::with_plan(6, 1, 0, SchedulePlan::CsrStream(csr));
    }

    #[test]
    #[should_panic(expected = "candidate set dimension")]
    fn mismatched_candidate_dimension_panics() {
        let cs = Arc::new(CandidateSet::complete(5));
        CountScheduler::with_plan(6, 1, 0, SchedulePlan::CandidatePairs(cs));
    }

    #[test]
    fn from_triples_reproduces_from_graph() {
        // Enumerating a graph's triangles and handing them to
        // `from_triples` must rebuild the exact structure `from_graph`
        // derives — same pairs, same k-lists, same stream offsets.
        let g = generators::erdos_renyi(40, 0.25, 11);
        let cs = CandidateSet::from_graph(&g);
        let mut triples = Vec::new();
        for idx in 0..cs.len() {
            let (i, j) = cs.pair(idx);
            for &k in cs.ks(idx) {
                triples.push((i, j, k));
            }
        }
        assert_eq!(CandidateSet::from_triples(40, &triples), cs);
        assert!(CandidateSet::from_triples(40, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn from_triples_rejects_duplicates() {
        CandidateSet::from_triples(5, &[(0, 1, 2), (0, 1, 2)]);
    }

    #[test]
    fn signed_sets_sign_each_triple_and_chunks_slice_the_signs() {
        let plus = [(0, 1, 2), (0, 1, 5), (1, 2, 3)];
        let minus = [(0, 1, 3), (0, 2, 4)];
        let cs = CandidateSet::signed(6, &plus, &minus);
        let mut all = [plus.as_slice(), minus.as_slice()].concat();
        all.sort_unstable();
        let want = CandidateSet { negate: vec![0, !0, 0, !0, 0], ..CandidateSet::from_triples(6, &all) };
        assert_eq!(cs, want);
        // Unsigned: no sign column, whatever the constructor.
        assert_eq!(CandidateSet::signed(6, &plus, &[]), CandidateSet::from_triples(6, &plus));
        let signed = CountScheduler::with_plan(6, 1, 2, SchedulePlan::CandidatePairs(Arc::new(cs)));
        let signs: Vec<u64> =
            signed.chunks().iter().flat_map(|c| signed.chunk_signs(c).unwrap().to_vec()).collect();
        assert_eq!(signs, [0, !0, 0, !0, 0]);
        let unsigned = SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_triples(6, &plus)));
        let plain = CountScheduler::with_plan(6, 1, 2, unsigned);
        assert!(plain.chunks().iter().all(|c| plain.chunk_signs(c).is_none()));
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn a_triple_cannot_both_add_and_subtract() {
        CandidateSet::signed(5, &[(0, 1, 2)], &[(0, 1, 2)]);
    }
}
