//! The shared scheduler behind every Count implementation.
//!
//! Algorithm 4 evaluates one Multiplication Group per triple
//! `i < j < k`. Both Count drivers in this crate — in process
//! ([`crate::count`]) and on the wire ([`crate::count_runtime`]) —
//! iterate the same space: an
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
//!   walk under [`CountScheduler::chunk_plan`] — as `k`-runs of each
//!   pair `(i, j)`, each named by its offset `k − j − 1`.
//! * **Pair-space partitioning.** The pair list is cut into contiguous
//!   [`PairChunk`]s of roughly equal *triple* weight. The partition
//!   depends on the schedule's public inputs **only** — `n` for the
//!   dense cube, the candidate list for a sparse plan — never on
//!   worker count or machine, because the chunk order is the order the
//!   OT offline dialogue lists a Count's triples in, which both servers
//!   must agree on. Workers pull chunks from an atomic queue.
//! * **One pair set, batched rounds.** The Count's masks are keyed by
//!   pair, so its online phase opens the plan's **pair set**
//!   ([`CountScheduler::pair_set`]: every pair a scheduled triple reads)
//!   once, [`CountScheduler::batch`] pairs a round in canonical order:
//!   a plan reading `P` pairs costs `⌈P/batch⌉` rounds, however many
//!   triples read a pair. A chunk's triples are then evaluated locally,
//!   one weighted pass per server over its `k`-runs
//!   ([`cargo_mpc::weighted_pass`]), which never reaches the wire. The
//!   cut is a pure function of the public plan and `batch`.
//! * **Determinism by construction.** Randomness is keyed per pair
//!   ([`cargo_mpc::PairDealer`], [`cargo_mpc::share_prf`],
//!   [`cargo_mpc::mask_prf`]), never per worker or per chunk, so the
//!   servers' share pairs are bit-identical for every thread count and
//!   batch size — the partition only decides *who* consumes a stream.
//!   The scheduler-invariance property suite
//!   (`crates/core/tests/scheduler_invariance.rs`) pins this.

use crate::config::ScheduleKind;
use cargo_graph::{BitMatrix, CsrGraph, Graph, GraphBuilder, NeighborMarks};
use cargo_mpc::MgDraw;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default batch: 1 024 pairs per online round — an 8 kB opening frame
/// each way. Chosen by sweeping
/// {256, 512, 1 024, 2 048} on the repo benchmark's five workloads
/// (`CHANGES.md`) when a round opened triples: on one core a round costs
/// a fixed hand-off (≈ 12 µs on the reference box) on top of its
/// arithmetic, so `release_s` fell with the round count up to 1 024
/// and no further. Swept again over {256 … 4 096} once rounds opened
/// pairs: a Count is then a few rounds (21 on `dense-mem`), and no
/// value's `release_s` separated from the box's drift — `ot-mem`, whose
/// two rounds no batch changes, moved as much — so the value stayed;
/// larger batches cut rounds further.
pub const DEFAULT_COUNT_BATCH: usize = 1024;

/// Ceiling on the batch. A pair round is one frame each way — 8 B a
/// pair — and every executor sizes its scratch by the batch, so an
/// unchecked `--batch` must neither approach
/// [`cargo_mpc::wire::MAX_FRAME_PAYLOAD_BYTES`] nor drive a
/// multi-gigabyte allocation: 2¹⁶ pairs are a 512 kB frame.
pub(crate) const MAX_COUNT_BATCH: usize = 1 << 16;

/// Target number of chunks the pair walk is cut into. Fixed —
/// deliberately **not** scaled by the worker count — so the chunk list
/// is a function of the schedule's public inputs alone: the chunk
/// loop's slices — the order the OT offline dialogue lists the triples
/// in — follow the chunks, and a machine-dependent partition would make
/// that order depend on core count. 64 parts oversubscribes any worker
/// pool this side of a rack while keeping per-chunk state (one batch
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
/// closing candidates contributes no triple and would produce an empty
/// draw). The schedule — chunk partition, draw plans, chunk ids — is a
/// pure function of this list, which is why a sparse run's OT dialogue
/// and [`cargo_mpc::OfflineLedger`] are reproducible from public
/// information alone.
///
/// Privacy: using a candidate set *reveals* it (that is the point —
/// see `PROTOCOL.md`'s leakage analysis). The canonical instantiation
/// is public structural knowledge such as the symmetrised edge
/// *support* of the dataset; the protocol's secrets remain the actual
/// edge bits between candidate pairs.
///
/// Equality is over the admitted triples and their signs.
#[derive(Debug, Clone)]
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
    /// The graph whose triangles the set lists, when it was built from
    /// one: every pair a triple reads is one of its edges, so the plan's
    /// pair set is marked over it ([`CountScheduler::pair_set`]).
    graph: Option<Arc<CsrGraph>>,
}

impl PartialEq for CandidateSet {
    fn eq(&self, other: &Self) -> bool {
        (self.n, &self.pairs, &self.k_offsets, &self.ks, &self.negate)
            == (other.n, &other.pairs, &other.k_offsets, &other.ks, &other.negate)
    }
}

impl Eq for CandidateSet {}

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
        // The marked walk lists every upper edge with a non-empty k-list.
        csr.walk_upper_edges((0, 0), 0, &mut NeighborMarks::new(n), |_| true, |_, i, j, list| {
            pairs.push((i as u32, j as u32));
            ks.extend_from_slice(list);
            k_offsets.push(ks.len());
            true
        });
        CandidateSet {
            n,
            pairs,
            k_offsets,
            ks,
            negate: Vec::new(),
            graph: Some(Arc::new(csr)),
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
            graph: None,
        }
    }

    /// Builds the candidate structure from an explicit triple list —
    /// `(i, j, k)` with `i < j < k < n`, **sorted lexicographically
    /// and unique**. The structure admits exactly the listed triples,
    /// each at its canonical offset (`k − j − 1` within pair `(i, j)`'s
    /// `k` range). Every triple adds; [`Self::signed`] lists triples
    /// that subtract.
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
            graph: None,
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
    /// Chunk index, in schedule order.
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
    /// `Some` exactly when the plan is [`SchedulePlan::CsrStream`].
    stream: Option<StreamIndex>,
}

/// What a [`SchedulePlan::CsrStream`] schedule remembers of its one
/// intersection pass — 4 bytes per edge, a pure function of the public
/// CSR. Lives beside the chunk list rather than in [`PairChunk`], which
/// stays field-for-field equal to the eager plan's.
#[derive(Debug, Clone)]
struct StreamIndex {
    /// `weights[e]` is the `k`-list length of upper edge `e` (edges
    /// numbered in [`CsrGraph::walk_upper_edges`] order); non-zero
    /// exactly on the candidate pairs.
    weights: Vec<u32>,
    /// `chunk_edge[chunk.id]` is the edge ordinal of the chunk's first
    /// pair — where its walk resumes.
    chunk_edge: Vec<u32>,
    /// The plan's pair set ([`CountScheduler::pair_set`]), collected by
    /// the same pass.
    pairs: Arc<PairSet>,
}

impl CountScheduler {
    /// Builds the dense-cube schedule for an `n × n` matrix.
    ///
    /// * `threads` — worker threads; `0` means all cores.
    /// * `batch` — pairs per round; `0` means
    ///   [`DEFAULT_COUNT_BATCH`]. Clamped to a bound on the plan's pairs
    ///   (no round can be fuller than that) and to 2¹⁶.
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
                (total, build_chunks(n, total), None)
            }
            SchedulePlan::CandidatePairs(cs) => (cs.total_triples(), build_sparse_chunks(cs), None),
            SchedulePlan::CsrStream(csr) => {
                let (total, chunks, stream) = build_csr_chunks(csr);
                (total, chunks, Some(stream))
            }
        };
        // A round opens at most the plan's pairs, so a batch above them
        // changes nothing but scratch sizes. The pair count is bounded
        // in closed form: every pair of the cube, at most three a triple
        // otherwise.
        let cube_pairs = if n < 3 { 0 } else { dense_pair_count(n) + n as u64 - 1 };
        let pairs = match &plan {
            SchedulePlan::DenseCube => cube_pairs,
            _ => cube_pairs.min(total_triples.saturating_mul(3)),
        };
        let batch = if batch == 0 { DEFAULT_COUNT_BATCH } else { batch }
            .min(MAX_COUNT_BATCH)
            .min(usize::try_from(pairs).unwrap_or(usize::MAX))
            .max(1);
        CountScheduler {
            n,
            workers,
            batch,
            plan,
            chunks,
            total_triples,
            stream,
        }
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

    /// The chunk's draw plan: one [`MgDraw`] per pair and maximal
    /// contiguous `k`-run, **at the run's canonical offset**
    /// (`k₀ − j − 1`). For the dense cube every pair is one full-range
    /// draw starting at offset 0; a sparse plan names each surviving
    /// run where the dense cube has it. Single source of truth for the
    /// chunk loop and the offline dialogue's triple list in every
    /// executor.
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
    /// dense cube, where every `k > j` is scheduled. The one place a
    /// plan kind is walked. A streamed plan regenerates exactly this
    /// chunk's lists: the walk resumes at the chunk's edge ordinal,
    /// re-intersects only the edges the index weighs non-zero, and the
    /// lists live only in the walker's scratch.
    pub(crate) fn for_each_pair(
        &self,
        chunk: &PairChunk,
        mut f: impl FnMut(usize, usize, Option<&[u32]>),
    ) {
        match &self.plan {
            SchedulePlan::DenseCube => {
                let (mut i, mut j) = (chunk.start.0 as usize, chunk.start.1 as usize);
                for _ in 0..chunk.pairs {
                    f(i, j, None);
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
                    f(i as usize, j as usize, Some(cs.ks(idx)));
                }
            }
            SchedulePlan::CsrStream(csr) => {
                let stream = self.stream.as_ref().expect("a streamed plan has its index");
                let mut left = chunk.pairs;
                csr.walk_upper_edges(
                    chunk.start,
                    stream.chunk_edge[chunk.id as usize] as usize,
                    &mut NeighborMarks::new(csr.n()),
                    |e| stream.weights[e] > 0,
                    |_, i, j, ks| {
                        f(i, j, Some(ks));
                        left -= 1;
                        left > 0
                    },
                );
            }
        }
    }

    /// The plan's **pair set**: every pair `(i, j)`, `i < j`, that some
    /// scheduled triple reads as `(i, j)`, `(i, k)` or `(j, k)` — the
    /// pairs a Count opens, each once, before any chunk is evaluated. A
    /// pure function of the public plan, so both parties derive it
    /// locally: in closed form on the cube, where every pair is read;
    /// marked by the index pass on a streamed plan; and otherwise by one
    /// walk of the chunks' plans (marked in the `n × n` square, or at the
    /// pairs' positions in a graph that holds them, whichever is smaller).
    pub fn pair_set(&self) -> Arc<PairSet> {
        match &self.plan {
            SchedulePlan::DenseCube => {
                Arc::new(PairSet(PairIndex::Cube { n: if self.n < 3 { 0 } else { self.n } }))
            }
            SchedulePlan::CsrStream(_) => {
                Arc::clone(&self.stream.as_ref().expect("a streamed plan has its index").pairs)
            }
            SchedulePlan::CandidatePairs(cs) => {
                // Without a graph a plan reads at most three pairs a
                // triple.
                let reads = self.total_triples.saturating_mul(3);
                let mut marks =
                    PairPositions::choose(self.n, cs.graph.as_ref(), reads).map(PairMarks::new);
                let mut reads = Vec::new();
                for chunk in &self.chunks {
                    self.for_each_pair(chunk, |i, j, ks| {
                        let ks = ks.expect("a candidate plan lists its k ranges");
                        match &mut marks {
                            Some(marks) => marks.triples(i, j, ks),
                            None => {
                                reads.push((i as u32, j as u32));
                                reads.extend(ks.iter().flat_map(|&k| [(i as u32, k), (j as u32, k)]));
                            }
                        }
                    });
                }
                Arc::new(match marks {
                    Some(marks) => marks.finish(),
                    None => PairSet::from_pairs(self.n, &reads),
                })
            }
        }
    }

    /// Runs `work` over every chunk on the scheduler's worker pool
    /// (scoped threads pulling chunk indices from an atomic queue) and
    /// returns the per-chunk results in chunk order. With one worker —
    /// or one chunk — everything runs inline on the caller's thread.
    ///
    /// # Panics
    /// Panics once every worker is done if `work` panicked in one; the
    /// panic hook has printed that worker's own message.
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
            for _ in 0..spawn {
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
                });
            }
        });
        let mut collected = slots.into_inner().expect("result lock poisoned");
        collected.sort_by_key(|(idx, _)| *idx);
        collected.into_iter().map(|(_, r)| r).collect()
    }
}

/// The pairs a Count plan reads ([`CountScheduler::pair_set`]), in
/// canonical order — lexicographic `(i, j)` — and each pair's **slot**,
/// its ordinal in that order: where the pair phase opens it and where
/// the chunk rounds read its opening. A `k`-run's pairs `(i, k₀ + t)`
/// are consecutive slots, because the `k`s of a run are consecutive and
/// every pair of the run is in the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSet(PairIndex);

#[derive(Debug, Clone, PartialEq, Eq)]
enum PairIndex {
    /// Every pair of `n` vertices (none below three): row `i` holds
    /// `(i, i + 1) .. (i, n − 1)`, so `(i, j)` is at slot
    /// `row(i) + j − i − 1`, `row(i) = i·(2n − i − 1)/2`.
    Cube { n: usize },
    /// The pairs' positions ([`PairPositions`]) marked in a bitmap:
    /// `words[w]` holds positions `64·w ..` beside its rank, the set bits
    /// before it, so a lookup reads one line for both; `len` is the
    /// total. Positions ascend with the pairs, so a pair's slot is the
    /// rank of its position.
    Marked { at: PairPositions, words: Vec<[u64; 2]>, len: usize },
}

/// Where a [`PairSet`]'s bitmap puts pair `(i, j)`: at `i·n + j` in the
/// `n × n` square, found in closed form, or at its adjacency position
/// ([`CsrGraph::adjacency`]) in a graph that holds every pair of the
/// plan, found by a search of row `i`. The square is faster to look up;
/// it is chosen whenever its bitmap is no larger than the graph's
/// adjacency array, which leaves the graph to plans over millions of
/// vertices, where no square fits.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PairPositions {
    Square { n: usize },
    Csr(Arc<CsrGraph>),
}

impl PairPositions {
    /// The positions for a plan over `n` vertices whose pairs are edges
    /// of `graph`, or, without one, number at most `reads`: `None` when
    /// the square is too large and there is no graph — the plan then
    /// builds the graph of its reads ([`PairSet::from_pairs`]).
    fn choose(n: usize, graph: Option<&Arc<CsrGraph>>, reads: u64) -> Option<Self> {
        // Bytes: the square's bitmap against a graph's `u32` adjacency,
        // two entries an edge.
        let adjacency = graph.map_or(reads.saturating_mul(2), |g| g.adjacency().1.len() as u64);
        let square = (n as u64).saturating_mul(n as u64) / 8;
        if square <= adjacency.saturating_mul(4) {
            Some(PairPositions::Square { n })
        } else {
            graph.map(|g| PairPositions::Csr(Arc::clone(g)))
        }
    }

    /// Positions in all.
    fn count(&self) -> usize {
        match self {
            PairPositions::Square { n } => n * n,
            PairPositions::Csr(csr) => csr.adjacency().1.len(),
        }
    }

    /// The position of `(i, j)`, `i < j`, or `None` if it has none. A
    /// graph's row `i` is searched from `hint`, the row index the last
    /// lookup in the row left there, which this one updates — so
    /// ascending lookups in one row cost the gaps between them.
    #[inline(always)]
    fn find(&self, i: u32, j: u32, hint: &mut usize) -> Option<usize> {
        match self {
            PairPositions::Square { n } => (i < j && (j as usize) < *n).then(|| i as usize * n + j as usize),
            PairPositions::Csr(_) if i >= j => None,
            PairPositions::Csr(csr) => {
                let (offsets, targets) = csr.adjacency();
                let row = &targets[offsets[i as usize]..offsets[i as usize + 1]];
                *hint = gallop(row, (*hint).min(row.len()), j);
                (row.get(*hint) == Some(&j)).then(|| offsets[i as usize] + *hint)
            }
        }
    }

    /// The pair at position `at`; `row` is the graph row the last call
    /// found (positions are visited in ascending order).
    #[inline]
    fn pair_at(&self, at: usize, row: &mut usize) -> (u32, u32) {
        match self {
            PairPositions::Square { n } => ((at / n) as u32, (at % n) as u32),
            PairPositions::Csr(csr) => {
                let (offsets, targets) = csr.adjacency();
                if offsets[*row + 1] <= at {
                    *row = gallop(offsets, *row + 1, at + 1) - 1;
                }
                (*row as u32, targets[at])
            }
        }
    }
}

impl PairSet {
    /// The set of the pairs at the positions `bits` marks.
    fn marked(at: PairPositions, bits: Vec<u64>) -> Self {
        let mut total = 0u64;
        let words = bits
            .into_iter()
            .map(|word| {
                let rank = total;
                total += u64::from(word.count_ones());
                [word, rank]
            })
            .collect();
        let len = pair_ordinals("pairs", total) as usize;
        PairSet(PairIndex::Marked { at, words, len })
    }

    /// The set of `pairs` (any order, either orientation, repeats
    /// allowed) over `n` vertices, at their positions in their own graph.
    fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let csr = CsrGraph::from_unsorted_pairs(n, pairs).0;
        let (offsets, targets) = csr.adjacency();
        let mut bits = vec![0u64; targets.len().div_ceil(64)];
        for u in 0..n {
            let upper = csr.neighbors(u).partition_point(|&v| v as usize <= u);
            for p in offsets[u] + upper..offsets[u + 1] {
                bits[p / 64] |= 1 << (p % 64);
            }
        }
        Self::marked(PairPositions::Csr(Arc::new(csr)), bits)
    }

    /// Pairs in the set — the Count's `P`.
    pub fn len(&self) -> usize {
        match &self.0 {
            PairIndex::Cube { n } => n * n.saturating_sub(1) / 2,
            PairIndex::Marked { len, .. } => *len,
        }
    }

    /// Whether the plan reads no pair.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot of pair `(i, j)`, `i < j`.
    ///
    /// # Panics
    /// Panics if the set does not hold the pair.
    pub fn slot(&self, i: u32, j: u32) -> usize {
        self.slot_near(i, j, &mut 0)
    }

    /// [`Self::slot`], searching row `i` from `hint` — the row index the
    /// previous lookup in the row left there, which this one updates —
    /// so ascending lookups in one row cost the gaps between them.
    ///
    /// # Panics
    /// Panics if the set does not hold the pair.
    #[inline]
    pub fn slot_near(&self, i: u32, j: u32, hint: &mut usize) -> usize {
        let missing = || panic!("pair ({i}, {j}) is not in the plan's pair set");
        match &self.0 {
            PairIndex::Cube { n } => {
                assert!(i < j && (j as usize) < *n, "pair ({i}, {j}) is not in the cube");
                cube_row(*n, i as usize) + (j - i - 1) as usize
            }
            PairIndex::Marked { at, words, .. } => {
                let at = at.find(i, j, hint).unwrap_or_else(missing);
                let ([word, rank], bit) = (words[at / 64], at % 64);
                if word >> bit & 1 == 0 {
                    missing();
                }
                rank as usize + (word & ((1 << bit) - 1)).count_ones() as usize
            }
        }
    }

    /// Calls `f(slot, i, j, len)` for each maximal run of the slots in
    /// `range` that one row holds at consecutive columns: the pairs
    /// `(i, j + t)` at slots `slot + t` for `t < len`. Runs come in slot
    /// order and cover `range` exactly.
    pub fn for_each_run(&self, range: Range<usize>, mut f: impl FnMut(usize, u32, u32, usize)) {
        let mut slot = range.start;
        match &self.0 {
            PairIndex::Cube { n } => {
                let n = *n;
                // The row holding the range's first slot: the last row
                // starting at or before it (rows start in ascending slot
                // order, and only the last row, n − 1, is empty).
                let (mut i, mut above) = (0, n);
                while above - i > 1 {
                    let mid = (i + above) / 2;
                    if cube_row(n, mid) <= range.start {
                        i = mid;
                    } else {
                        above = mid;
                    }
                }
                while slot < range.end {
                    let (row, row_end) = (cube_row(n, i), cube_row(n, i + 1));
                    let len = row_end.min(range.end) - slot;
                    f(slot, i as u32, (i + 1 + slot - row) as u32, len);
                    slot += len;
                    i += 1;
                }
            }
            PairIndex::Marked { at: positions, words, len } => {
                if range.is_empty() {
                    return;
                }
                assert!(range.end <= *len, "slots {range:?} leave the pair set of {len}");
                // The word holding the range's first slot, then its set
                // bits from that slot on, in order.
                let mut w = words.partition_point(|&[_, rank]| rank as usize <= range.start) - 1;
                let [mut word, rank] = words[w];
                for _ in rank as usize..range.start {
                    word &= word - 1;
                }
                let mut row = 0;
                let mut run: Option<(usize, u32, u32, usize)> = None;
                while slot < range.end {
                    while word == 0 {
                        w += 1;
                        word = words[w][0];
                    }
                    let at = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let (i, j) = positions.pair_at(at, &mut row);
                    run = match run {
                        Some((first, ri, rj, len)) if ri == i && rj + len as u32 == j => {
                            Some((first, ri, rj, len + 1))
                        }
                        Some((first, ri, rj, len)) => {
                            f(first, ri, rj, len);
                            Some((slot, i, j, 1))
                        }
                        None => Some((slot, i, j, 1)),
                    };
                    slot += 1;
                }
                if let Some((first, i, j, len)) = run {
                    f(first, i, j, len);
                }
            }
        }
    }
}

/// The pairs a plan's triples read, marked at their [`PairPositions`].
struct PairMarks {
    at: PairPositions,
    /// One bit per position.
    bits: Vec<u64>,
}

impl PairMarks {
    fn new(at: PairPositions) -> Self {
        let bits = vec![0u64; at.count().div_ceil(64)];
        PairMarks { at, bits }
    }

    /// Marks the pairs of the triples `(i, j, k)`, `i < j`, for each `k`
    /// of the ascending `ks` (all above `j`).
    fn triples(&mut self, i: usize, j: usize, ks: &[u32]) {
        self.row(i as u32, std::iter::once(j as u32).chain(ks.iter().copied()));
        self.row(j as u32, ks.iter().copied());
    }

    /// Marks the pairs `(u, v)` for each `v` of the ascending `vs`.
    fn row(&mut self, u: u32, vs: impl Iterator<Item = u32>) {
        let PairMarks { at, bits } = self;
        let mut hint = 0;
        for v in vs {
            let p = at.find(u, v, &mut hint);
            let p = p.unwrap_or_else(|| panic!("pair ({u}, {v}) is not an edge of the plan"));
            bits[p / 64] |= 1 << (p % 64);
        }
    }

    fn finish(self) -> PairSet {
        PairSet::marked(self.at, self.bits)
    }
}

/// The first index of the ascending `row` holding a value `≥ v`,
/// searched from `from` if `row[from] < v` — steps doubling, then
/// halving, so a search costs the log of its distance — and from the
/// start otherwise.
fn gallop<T: Copy + Ord>(row: &[T], from: usize, v: T) -> usize {
    if row.get(from).is_none_or(|&x| x >= v) {
        return row[..from].partition_point(|&x| x < v);
    }
    // row[lo] < v throughout; the answer is in (lo, hi].
    let (mut lo, mut step) = (from, 1);
    while lo + step < row.len() && row[lo + step] < v {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(row.len());
    lo + 1 + row[lo + 1..hi].partition_point(|&x| x < v)
}

/// The slot of row `i`'s first pair `(i, i + 1)` in an `n`-vertex cube.
fn cube_row(n: usize, i: usize) -> usize {
    i * (2 * n - i - 1) / 2
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
fn build_csr_chunks(csr: &Arc<CsrGraph>) -> (u64, Vec<PairChunk>, StreamIndex) {
    let mut weights = vec![0u32; pair_ordinals("CSR edges", csr.edge_count() as u64) as usize];
    let positions = PairPositions::choose(csr.n(), Some(csr), 0);
    let mut marks = PairMarks::new(positions.expect("a graph always gives positions"));
    csr.walk_upper_edges(
        (0, 0),
        0,
        &mut NeighborMarks::new(csr.n()),
        |_| true,
        // A k-list is a set of vertex ids, so its length fits u32.
        |e, i, j, ks| {
            weights[e] = ks.len() as u32;
            marks.triples(i, j, ks);
            true
        },
    );
    let pairs = Arc::new(marks.finish());
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
    (total, cut.finish(), StreamIndex { weights, chunk_edge, pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn oversized_batch_is_clamped_to_the_pair_bound() {
        // A round opens at most the plan's pairs, so nothing above them
        // changes the rounds — it would only inflate the round scratch,
        // and usize::MAX must not drive that allocation. The cube of 10
        // reads C(10, 2) = 45 pairs, all in one round.
        let ten = CountScheduler::new(10, 1, usize::MAX);
        assert_eq!(ten.batch(), 45);
        assert_eq!(ten.pair_set().len(), 45);
        assert_eq!(CountScheduler::new(10, 1, 4).batch(), 4);
        assert_eq!(CountScheduler::new(0, 1, 0).batch(), 1);
        assert_eq!(CountScheduler::new(2, 1, 64).batch(), 1);
        // A sparse plan: at most three pairs a triple.
        let triangle = Arc::new(CandidateSet::signed(10, &[(1, 4, 7)], &[]));
        let sparse = CountScheduler::with_plan(10, 1, usize::MAX, SchedulePlan::CandidatePairs(triangle));
        assert_eq!((sparse.batch(), sparse.pair_set().len()), (3, 3));
        // Many pairs: the frame-size ceiling takes over.
        let big = CountScheduler::new(400, 1, usize::MAX);
        assert!(big.pair_set().len() > MAX_COUNT_BATCH);
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

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        // With two workers a panic of the caller's own `work` on one
        // chunk must stop the run in the caller, not return the other
        // chunks' results as if complete.
        let sched = CountScheduler::new(40, 2, 0);
        assert!(sched.chunks().len() > 1 && sched.workers() > 1);
        let outcome = std::panic::catch_unwind(|| {
            sched.run_chunks(|c| {
                assert_ne!(c.id, 1, "the caller's work fails on chunk 1");
                c.id
            })
        });
        assert!(outcome.is_err(), "the chunk's panic reaches the caller");
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
    /// lexicographic order, each at its canonical offset `k − j − 1`.
    fn check_plan(name: &str, n: usize, plan: SchedulePlan, admitted: &[(u32, u32, u32)]) {
        let want: Vec<_> = admitted.iter().map(|&(i, j, k)| (i, j, k - j - 1)).collect();
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
        }
    }

    fn cube_triples(n: usize) -> Vec<(u32, u32, u32)> {
        let n = n as u32;
        (0..n)
            .flat_map(|i| (i + 1..n).flat_map(move |j| (j + 1..n).map(move |k| (i, j, k))))
            .collect()
    }

    #[test]
    fn every_plan_kind_schedules_exactly_the_triples_it_admits() {
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
            let stream = sched.stream.as_ref().expect("a streamed plan has its index");
            assert_eq!(stream.weights, want, "{name}");
            assert_eq!(stream.chunk_edge.len(), sched.chunks().len(), "{name}");
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

    /// `g`'s candidate set with each upper edge's `k`-list taken by a
    /// sorted merge of its two neighbor lists above `j`.
    fn merged_candidates(g: &Graph) -> CandidateSet {
        let csr = CsrGraph::from_graph(g);
        let (mut pairs, mut k_offsets, mut ks) = (Vec::new(), vec![0], Vec::new());
        for i in 0..g.n() {
            for &j in csr.upper_neighbors(i) {
                let above = |v: usize| csr.neighbors(v).iter().copied().filter(move |&k| k > j);
                let (mut a, mut b) = (above(i).peekable(), above(j as usize).peekable());
                let before = ks.len();
                while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
                    if x <= y {
                        a.next();
                    }
                    if y <= x {
                        b.next();
                    }
                    if x == y {
                        ks.push(x);
                    }
                }
                if ks.len() > before {
                    pairs.push((i as u32, j));
                    k_offsets.push(ks.len());
                }
            }
        }
        let graph = Some(Arc::new(csr));
        CandidateSet { n: g.n(), pairs, k_offsets, ks, negate: Vec::new(), graph }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn from_graph_is_the_merged_candidate_set(n in 0usize..90, p in 0.0f64..0.6, seed: u64, hubs: bool) {
            let g = if hubs {
                generators::chung_lu(n + 30, 4 * n, n / 2 + 2, 2.2, seed)
            } else {
                generators::erdos_renyi(n, p, seed)
            };
            let (got, want) = (CandidateSet::from_graph(&g), merged_candidates(&g));
            proptest::prop_assert_eq!((&got.pairs, &got.k_offsets, &got.ks), (&want.pairs, &want.k_offsets, &want.ks));
            proptest::prop_assert_eq!((got.n, &got.negate, &got.graph), (want.n, &want.negate, &want.graph));
        }
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

    /// `set`'s runs over `range`, in order.
    fn runs(set: &PairSet, range: Range<usize>) -> Vec<(usize, u32, u32, usize)> {
        let mut out = Vec::new();
        set.for_each_run(range, |slot, i, j, len| out.push((slot, i, j, len)));
        out
    }

    #[test]
    fn pair_sets_slot_and_run_the_sorted_pairs() {
        // A graph's edges marked in the square, marked at their positions
        // in the graph, and as the graph of a read list — and the cube,
        // on the complete list — each give a pair its index in the
        // sorted list as its slot, and cut every range into that list's
        // row runs.
        let sorted_runs = |pairs: &[(u32, u32)], range: Range<usize>| {
            let mut out: Vec<(usize, u32, u32, usize)> = Vec::new();
            for slot in range {
                let (i, j) = pairs[slot];
                match out.last_mut() {
                    Some(run) if run.1 == i && run.2 + run.3 as u32 == j => run.3 += 1,
                    _ => out.push((slot, i, j, 1)),
                }
            }
            out
        };
        let complete: Vec<(u32, u32)> = (0..9).flat_map(|i| (i + 1..9).map(move |j| (i, j))).collect();
        let mut sets = vec![("cube".to_string(), complete.clone(), PairSet(PairIndex::Cube { n: 9 }))];
        for (name, g) in stream_families() {
            let mut pairs: Vec<(u32, u32)> = g.edges().map(|(i, j)| (i as u32, j as u32)).collect();
            pairs.sort_unstable();
            let csr = Arc::new(CsrGraph::from_graph(&g));
            for at in [PairPositions::Square { n: g.n() }, PairPositions::Csr(csr)] {
                let kind = if matches!(at, PairPositions::Square { .. }) { "square" } else { "graph" };
                let mut marks = PairMarks::new(at);
                for &(i, j) in &pairs {
                    marks.row(i, [j].into_iter());
                }
                sets.push((format!("{name} {kind}"), pairs.clone(), marks.finish()));
            }
            // Repeated and reversed reads collapse into the one pair.
            let reads: Vec<_> = pairs.iter().flat_map(|&(i, j)| [(i, j), (j, i), (i, j)]).collect();
            sets.push((format!("{name} reads"), pairs, PairSet::from_pairs(g.n(), &reads)));
        }
        for (name, pairs, set) in &sets {
            assert_eq!(set.len(), pairs.len(), "{name}");
            for (slot, &(i, j)) in pairs.iter().enumerate() {
                assert_eq!(set.slot(i, j), slot, "{name} ({i}, {j})");
            }
            let len = pairs.len();
            for range in [0..len, 0..len / 2, len / 3..len, len / 4..(len / 4 + 1).min(len), len..len] {
                assert_eq!(runs(set, range.clone()), sorted_runs(pairs, range.clone()), "{name} {range:?}");
            }
        }
    }

    #[test]
    fn every_plan_over_a_graph_marks_the_pairs_of_its_triangles() {
        // The same triangles' pair set three ways — marked by the
        // streamed plan's index pass, marked by a walk of the eager
        // plan, and built from an explicit triple list's reads — on
        // each family, and on each family spread over 10⁵ vertices,
        // where no square fits and the positions are a graph's.
        for (name, g) in stream_families() {
            for n in [g.n(), 100_000] {
                let mut b = GraphBuilder::new(n);
                g.edges().for_each(|(i, j)| b.add_edge(i, j).unwrap());
                let g = b.build();
                let cs = CandidateSet::from_graph(&g);
                let mut triples = Vec::new();
                for idx in 0..cs.len() {
                    let (i, j) = cs.pair(idx);
                    triples.extend(cs.ks(idx).iter().map(|&k| (i, j, k)));
                }
                let plans = [
                    SchedulePlan::CsrStream(Arc::new(CsrGraph::from_graph(&g))),
                    SchedulePlan::CandidatePairs(Arc::new(cs)),
                    SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_triples(n, &triples))),
                ];
                let sets = plans.map(|plan| {
                    let set = CountScheduler::with_plan(n, 1, 0, plan).pair_set();
                    runs(&set, 0..set.len())
                });
                assert_eq!(sets[0], sets[1], "{name} n={n}");
                assert_eq!(sets[0], sets[2], "{name} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not in the plan's pair set")]
    fn a_pair_outside_the_set_has_no_slot() {
        PairSet::from_pairs(5, &[(0, 1), (1, 2)]).slot(0, 2);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn a_triple_cannot_both_add_and_subtract() {
        CandidateSet::signed(5, &[(0, 1, 2)], &[(0, 1, 2)]);
    }
}
