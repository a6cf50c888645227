//! Incremental Count: edge-delta batches and share maintenance.
//!
//! The one-shot pipeline counts every admitted triple once. A
//! long-running service instead receives **edge deltas** (`+u v` /
//! `-u v`) and must keep the secret-shared triangle count current
//! without re-counting the whole graph. The key identity making that
//! exact (not approximate) is that a planned sparse count opens to a
//! plain ring sum of per-triple products: a triple's masks are its
//! pairs' and its product material is one word a pair and one a Count,
//! so what triple `(i, j, k)` adds at the opening is `a_ij·a_ik·a_jk`
//! alone — independent of which other triples the plan contains, of
//! chunking, threads, batch, and offline mode. So:
//!
//! ```text
//! T(G ∪ Δ) = T(G) + Σ_{T created} 1 − Σ_{T destroyed} 1
//! ```
//!
//! exactly in `Z_{2^64}` at the opening, where each triple's three bits
//! are read from a matrix holding all three edges, as a from-scratch run
//! that admits it reads them. The share pairs split per Count — each
//! epoch's words are its own — so the running shares open to the
//! from-scratch count without being a from-scratch run's shares.
//!
//! [`DeltaPlan::apply`] turns a delta batch into exactly those two
//! triple sets by **ordered derivatives**: each edge's deltas are netted
//! in batch order (an edge removed and re-added inside one batch
//! contributes nothing), and only the net-changed edges are walked, so
//! a triangle with several changed edges comes out once, from its first
//! removed or last added edge — no per-delta replay and no triangle
//! tally. [`IncrementalCounter`] then folds **one signed Count** an
//! epoch into the running share state: over the matrix raised to
//! pre ∪ post (every bit either set reads is 1 there), a plan whose
//! created triples add and destroyed ones subtract
//! (`DeltaPlan::count_plan`). It also keeps the edge term of the
//! state digest from each epoch's changed edges, so
//! [`IncrementalCounter::digest`] costs O(Δ), not O(m). The evaluator
//! is a closure so the same engine drives both the in-process kernels
//! and the two-party wire runtime — see [`crate::session`].

use crate::count::{count_local, CountFailure, CountJob, SecureCountResult};
use crate::count_sched::{CandidateSet, SchedulePlan};
use crate::recovery::{digest_of, edge_sum, edge_word};
use crate::session::SessionError;
use cargo_graph::{BitMatrix, Graph, GraphError};
use cargo_mpc::{NetStats, Ring64};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// One edge mutation in a delta batch. Endpoints are unordered (the
/// graphs are simple and undirected); `Add` of a present edge and
/// `Remove` of an absent one are counted as redundant, not errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeDelta {
    /// Insert edge `{u, v}`.
    Add(u32, u32),
    /// Delete edge `{u, v}`.
    Remove(u32, u32),
}

impl EdgeDelta {
    /// The (unordered) endpoints.
    pub fn endpoints(&self) -> (u32, u32) {
        match *self {
            EdgeDelta::Add(u, v) | EdgeDelta::Remove(u, v) => (u, v),
        }
    }

    /// Whether this is an insertion.
    pub fn is_add(&self) -> bool {
        matches!(self, EdgeDelta::Add(..))
    }
}

impl fmt::Display for EdgeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EdgeDelta::Add(u, v) => write!(f, "+{u} {v}"),
            EdgeDelta::Remove(u, v) => write!(f, "-{u} {v}"),
        }
    }
}

impl FromStr for EdgeDelta {
    type Err = String;

    /// Parses the wire syntax `+u v` / `-u v` (whitespace after the
    /// sign is allowed). Validation of ranges and self-loops happens
    /// at apply time, against the live graph.
    ///
    /// ```
    /// use cargo_core::EdgeDelta;
    /// assert_eq!("+3 7".parse::<EdgeDelta>(), Ok(EdgeDelta::Add(3, 7)));
    /// assert_eq!("- 12 4".parse::<EdgeDelta>(), Ok(EdgeDelta::Remove(12, 4)));
    /// assert!("3 7".parse::<EdgeDelta>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (is_add, rest) = if let Some(r) = s.strip_prefix('+') {
            (true, r)
        } else if let Some(r) = s.strip_prefix('-') {
            (false, r)
        } else {
            return Err(format!("delta line must start with '+' or '-', got {s:?}"));
        };
        let mut nums = rest.split_whitespace().map(|t| {
            t.parse::<u32>()
                .map_err(|e| format!("bad node id {t:?}: {e}"))
        });
        let u = nums.next().ok_or_else(|| format!("missing endpoints in {s:?}"))??;
        let v = nums.next().ok_or_else(|| format!("missing second endpoint in {s:?}"))??;
        if nums.next().is_some() {
            return Err(format!("trailing tokens in delta line {s:?}"));
        }
        Ok(if is_add {
            EdgeDelta::Add(u, v)
        } else {
            EdgeDelta::Remove(u, v)
        })
    }
}

/// Checks every delta of `batch` against an `n`-node graph: the first
/// out-of-range endpoint or self-loop, in batch order, is the error.
pub(crate) fn check_batch(n: usize, batch: &[EdgeDelta]) -> Result<(), GraphError> {
    for d in batch {
        let (u, v) = d.endpoints();
        let (u, v) = (u as usize, v as usize);
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
    }
    Ok(())
}

fn ordered(a: u32, b: u32, c: u32) -> (u32, u32, u32) {
    let mut t = [a, b, c];
    t.sort_unstable();
    (t[0], t[1], t[2])
}

/// Ascending intersection of two sorted neighbor lists — the common
/// neighborhood `N(u) ∩ N(v)`, i.e. the third vertices of every
/// triangle through edge `{u, v}`. Branch-free: each step writes `a`'s
/// head and keeps it only on a match, so no data-dependent comparison
/// can mispredict.
fn common_neighbors(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.resize(a.len().min(b.len()), 0);
    let (mut i, mut j, mut len) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[len] = x;
        len += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.truncate(len);
}

/// Sorts triples lexicographically, by one `u128` comparison each — the
/// whole `u32` id space, at half the cost of comparing tuples.
fn sort_triples(triples: &mut [(u32, u32, u32)]) {
    triples.sort_unstable_by_key(|&(i, j, k)| {
        (u128::from(i) << 64) | (u128::from(j) << 32) | u128::from(k)
    });
}

/// The net effect of one delta batch on a graph: which triangles were
/// born, which died, and which edges actually changed — with full
/// cancellation across the batch (remove-then-re-add of an edge, or a
/// triangle destroyed and later recreated, nets to nothing).
///
/// Produced by [`DeltaPlan::apply`], which mutates the graph in the
/// same step so plan and graph can never drift apart.
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    n: usize,
    created: Vec<(u32, u32, u32)>,
    destroyed: Vec<(u32, u32, u32)>,
    edge_net: Vec<((u32, u32), bool)>,
    applied: usize,
    redundant: usize,
}

impl DeltaPlan {
    /// Applies `batch` to `graph` **in order** and returns the net
    /// plan. Every delta is checked before the first edit: a batch
    /// referencing an out-of-range node or a self-loop is an error that
    /// leaves `graph` untouched, never partly applied.
    ///
    /// Planned by ordered derivatives, not by replay. The batch is
    /// sorted by edge key (stably, so each key keeps its deltas in batch
    /// order) and each key's run is netted against the edge's pre-batch
    /// state: that decides its applied and redundant deltas and whether
    /// the edge changed at all. Only the changed edges are then walked,
    /// in key order: each net-removed edge on the pre-batch graph less
    /// the removed edges before it, then each net-added edge on the
    /// post-batch graph less the added edges after it. A destroyed
    /// triangle is emitted by its first removed edge and a created one
    /// by its last added edge — once each, with no triangle tally.
    pub fn apply(graph: &mut Graph, batch: &[EdgeDelta]) -> Result<DeltaPlan, GraphError> {
        let n = graph.n();
        check_batch(n, batch)?;
        let mut keyed: Vec<((u32, u32), bool)> = batch
            .iter()
            .map(|d| {
                let (u, v) = d.endpoints();
                ((u.min(v), u.max(v)), d.is_add())
            })
            .collect();
        keyed.sort_by_key(|&(key, _)| key);
        let (mut applied, mut redundant) = (0usize, 0usize);
        let mut edge_net = Vec::new();
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let (u, v) = run[0].0;
            let before = graph.has_edge(u as usize, v as usize);
            let mut present = before;
            for &(_, add) in run {
                if add == present {
                    redundant += 1;
                } else {
                    applied += 1;
                    present = add;
                }
            }
            if present != before {
                edge_net.push(((u, v), present));
            }
        }
        let mut common = Vec::new();
        let mut walk = |graph: &Graph, (u, v): (u32, u32), out: &mut Vec<(u32, u32, u32)>| {
            common_neighbors(graph.neighbors(u as usize), graph.neighbors(v as usize), &mut common);
            out.extend(common.iter().map(|&w| ordered(u, v, w)));
        };
        let mut destroyed = Vec::new();
        for &(e, _) in edge_net.iter().filter(|(_, present)| !present) {
            walk(graph, e, &mut destroyed);
            graph.remove_edge(e.0 as usize, e.1 as usize)?;
        }
        let mut created = Vec::new();
        for &(e, _) in edge_net.iter().filter(|(_, present)| *present) {
            walk(graph, e, &mut created);
            graph.add_edge(e.0 as usize, e.1 as usize)?;
        }
        sort_triples(&mut created);
        sort_triples(&mut destroyed);
        Ok(DeltaPlan {
            n,
            created,
            destroyed,
            edge_net,
            applied,
            redundant,
        })
    }

    /// Triangles present after the batch but not before (sorted).
    pub fn created(&self) -> &[(u32, u32, u32)] {
        &self.created
    }

    /// Triangles present before the batch but not after (sorted).
    pub fn destroyed(&self) -> &[(u32, u32, u32)] {
        &self.destroyed
    }

    /// Edges whose presence changed over the batch, with their final
    /// state (`true` = present after the batch).
    pub fn edge_net(&self) -> &[((u32, u32), bool)] {
        &self.edge_net
    }

    /// Non-redundant deltas applied.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Redundant deltas skipped (add of a present edge / remove of an
    /// absent one).
    pub fn redundant(&self) -> usize {
        self.redundant
    }

    /// The epoch's one signed Count plan: the created and destroyed
    /// triangles, created ones adding and destroyed ones subtracting
    /// ([`CandidateSet::signed`]); `None` when no triangle was born or
    /// died (an empty plan would exchange no messages, but skipping it
    /// keeps the in-process and two-party paths trivially symmetric).
    pub(crate) fn count_plan(&self) -> Option<SchedulePlan> {
        (!self.created.is_empty() || !self.destroyed.is_empty()).then(|| {
            SchedulePlan::CandidatePairs(Arc::new(CandidateSet::signed(
                self.n,
                &self.created,
                &self.destroyed,
            )))
        })
    }
}

/// What one epoch of incremental counting did. The shares are the
/// **cumulative** post-epoch share state (what a from-scratch sparse
/// run on the updated graph would produce — bit-for-bit); the traffic
/// and triple counters cover only this epoch's delta work.
#[derive(Debug, Clone)]
pub struct EpochCount {
    /// Non-redundant deltas applied.
    pub applied: usize,
    /// Redundant deltas skipped.
    pub redundant: usize,
    /// Triangles born this epoch.
    pub created: u64,
    /// Triangles destroyed this epoch.
    pub destroyed: u64,
    /// Triples securely evaluated this epoch (`created + destroyed` —
    /// the incremental saving vs. the updated graph's full triangle
    /// count).
    pub triples: u64,
    /// Modeled server↔server traffic of this epoch's one signed Count:
    /// `⌈pairs ÷ batch⌉` rounds over the pairs it exchanges — every pair
    /// its plan reads, or through a serve session's kept openings only
    /// those no earlier Count opened.
    pub net: NetStats,
    /// Cumulative share `⟨T⟩₁` after the epoch.
    pub share1: Ring64,
    /// Cumulative share `⟨T⟩₂` after the epoch.
    pub share2: Ring64,
}

/// The incremental engine: the live graph, its adjacency matrix, and
/// the running secret shares of its triangle count.
///
/// Generic over the **evaluator** — any `FnMut(&BitMatrix,
/// SchedulePlan) -> Result<SecureCountResult, CountFailure>` whose
/// per-triple contributions follow the canonical seed/offset
/// derivation. In-process callers pass a [`crate::count::count_local`]
/// closure ([`inline_evaluator`]); the two-party session passes
/// [`crate::count_runtime::count_party`], in which case only the
/// own-role share slot is live (the other stays zero through every
/// fold, so the same arithmetic serves both).
#[derive(Debug)]
pub struct IncrementalCounter {
    graph: Graph,
    matrix: BitMatrix,
    /// The live graph's [`edge_word`] sum, kept from each epoch's
    /// changed edges: the edge term of [`Self::digest`].
    edge_sum: u64,
    share1: Ring64,
    share2: Ring64,
    epochs: u64,
    triples: u64,
    net: NetStats,
    baseline: (u64, NetStats),
}

impl IncrementalCounter {
    /// Seeds the counter with a baseline sparse count of `graph`
    /// (skipped, with zero shares, when the graph is triangle-free), or
    /// returns its [`CountFailure`].
    pub fn new_with(
        graph: Graph,
        mut eval: impl FnMut(&BitMatrix, SchedulePlan) -> Result<SecureCountResult, CountFailure>,
    ) -> Result<Self, CountFailure> {
        let matrix = graph.to_bit_matrix();
        let cs = CandidateSet::from_graph(&graph);
        let edge_sum = edge_sum(&graph);
        let mut c = IncrementalCounter {
            graph,
            matrix,
            edge_sum,
            share1: Ring64::ZERO,
            share2: Ring64::ZERO,
            epochs: 0,
            triples: 0,
            net: NetStats::default(),
            baseline: (0, NetStats::default()),
        };
        if !cs.is_empty() {
            let r = eval(&c.matrix, SchedulePlan::CandidatePairs(Arc::new(cs)))?;
            c.share1 = r.share1;
            c.share2 = r.share2;
            c.triples = r.triples;
            c.net.merge(&r.net);
            c.baseline = (r.triples, c.net);
        }
        Ok(c)
    }

    /// Applies one delta batch and folds its one signed Count into the
    /// share state. The matrix is first raised to pre ∪ post: every bit a
    /// destroyed triangle's product reads is 1 before the batch and every
    /// bit a created one's reads is 1 after it, so over the union each
    /// contributes exactly what it would over its own matrix. One Count
    /// of the epoch's `DeltaPlan::count_plan` then adds the created triangles
    /// and subtracts the destroyed ones, and the matrix settles on the
    /// post-batch graph. `eval` runs at most once: not at all when no
    /// triangle was born or died. A bad endpoint fails before any edit,
    /// a failed Count ([`SessionError::Peer`]) before the fold.
    pub fn apply_with(
        &mut self,
        batch: &[EdgeDelta],
        mut eval: impl FnMut(&BitMatrix, SchedulePlan) -> Result<SecureCountResult, CountFailure>,
    ) -> Result<EpochCount, SessionError> {
        let plan = DeltaPlan::apply(&mut self.graph, batch)?;
        for &((u, v), present) in plan.edge_net() {
            let word = edge_word(u, v);
            if present {
                self.matrix.set_symmetric(u as usize, v as usize, true);
                self.edge_sum = self.edge_sum.wrapping_add(word);
            } else {
                self.edge_sum = self.edge_sum.wrapping_sub(word);
            }
        }
        let mut net = NetStats::default();
        let mut triples = 0u64;
        if let Some(p) = plan.count_plan() {
            let r = eval(&self.matrix, p)?;
            self.share1 += r.share1;
            self.share2 += r.share2;
            triples = r.triples;
            net = r.net;
        }
        for &((u, v), _) in plan.edge_net().iter().filter(|(_, present)| !present) {
            self.matrix.set_symmetric(u as usize, v as usize, false);
        }
        self.epochs += 1;
        self.triples += triples;
        self.net.merge(&net);
        Ok(EpochCount {
            applied: plan.applied(),
            redundant: plan.redundant(),
            created: plan.created().len() as u64,
            destroyed: plan.destroyed().len() as u64,
            triples,
            net,
            share1: self.share1,
            share2: self.share2,
        })
    }

    /// [`crate::state_digest`] of the live state, from the edge sum kept
    /// since the baseline: O(1), where `state_digest` walks every edge.
    pub fn digest(&self) -> u64 {
        digest_of(self.epochs, self.graph.n(), self.edge_sum)
    }

    /// The live graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The live adjacency matrix (kept in lock-step with the graph).
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Current cumulative shares `(⟨T⟩₁, ⟨T⟩₂)`.
    pub fn shares(&self) -> (Ring64, Ring64) {
        (self.share1, self.share2)
    }

    /// Delta batches applied so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Total triples securely evaluated (baseline + all epochs).
    pub fn triples(&self) -> u64 {
        self.triples
    }

    /// Cumulative modeled traffic (baseline + all epochs).
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// Triples evaluated and modeled traffic of the baseline count alone.
    pub fn baseline(&self) -> (u64, &NetStats) {
        (self.baseline.0, &self.baseline.1)
    }
}

/// Convenience evaluator over [`count_local`] — the closure shape
/// [`IncrementalCounter`] expects, capturing the Count knobs once
/// (`job.plan` is replaced by each call's delta plan).
pub fn inline_evaluator(job: CountJob) -> impl FnMut(&BitMatrix, SchedulePlan) -> Result<SecureCountResult, CountFailure> {
    move |matrix, plan| Ok(count_local(matrix, &CountJob { plan, ..job.clone() }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_sched::CountScheduler;
    use cargo_graph::{count_triangles, generators, GraphBuilder};
    use cargo_mpc::OfflineMode;

    fn k4() -> Graph {
        let mut b = GraphBuilder::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                b.add_edge(u, v).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn delta_lines_roundtrip() {
        for d in [EdgeDelta::Add(3, 7), EdgeDelta::Remove(0, 12)] {
            assert_eq!(d.to_string().parse::<EdgeDelta>(), Ok(d));
        }
        assert!("* 1 2".parse::<EdgeDelta>().is_err());
        assert!("+1".parse::<EdgeDelta>().is_err());
        assert!("+1 2 3".parse::<EdgeDelta>().is_err());
    }

    #[test]
    fn plan_tracks_created_and_destroyed_triangles() {
        // K4 minus edge (2,3): adding it creates triangles (0,2,3) and
        // (1,2,3); removing (0,1) then destroys (0,1,2) and (0,1,3).
        let mut g = k4();
        g.remove_edge(2, 3).unwrap();
        let plan =
            DeltaPlan::apply(&mut g, &[EdgeDelta::Add(2, 3), EdgeDelta::Remove(0, 1)]).unwrap();
        assert_eq!(plan.created(), &[(0, 2, 3), (1, 2, 3)]);
        assert_eq!(plan.destroyed(), &[(0, 1, 2), (0, 1, 3)]);
        assert_eq!(plan.applied(), 2);
        assert_eq!(plan.redundant(), 0);
        assert_eq!(plan.edge_net(), &[((0, 1), false), ((2, 3), true)]);
        assert_eq!(count_triangles(&g), 2);
    }

    #[test]
    fn remove_then_re_add_cancels_inside_a_batch() {
        let mut g = k4();
        let before = g.clone();
        let plan = DeltaPlan::apply(
            &mut g,
            &[
                EdgeDelta::Remove(0, 1),
                EdgeDelta::Add(1, 0),
                EdgeDelta::Add(0, 2), // redundant: already present
            ],
        )
        .unwrap();
        assert!(plan.created().is_empty());
        assert!(plan.destroyed().is_empty());
        assert!(plan.edge_net().is_empty());
        assert_eq!(plan.applied(), 2);
        assert_eq!(plan.redundant(), 1);
        assert_eq!(g, before);
    }

    #[test]
    fn bad_endpoints_are_errors() {
        let mut g = k4();
        assert!(matches!(
            DeltaPlan::apply(&mut g, &[EdgeDelta::Add(1, 9)]),
            Err(GraphError::NodeOutOfRange { node: 9, .. })
        ));
        assert!(matches!(
            DeltaPlan::apply(&mut g, &[EdgeDelta::Remove(2, 2)]),
            Err(GraphError::SelfLoop { node: 2 })
        ));
        // The whole batch is checked before its first edit.
        let half_bad = [EdgeDelta::Remove(0, 1), EdgeDelta::Add(1, 9)];
        assert!(DeltaPlan::apply(&mut g, &half_bad).is_err());
        assert_eq!(g, k4(), "a refused batch is never partly applied");
    }

    #[test]
    fn incremental_counter_matches_scratch_and_true_count() {
        let mut epochs = Vec::new();
        for offline in [OfflineMode::TrustedDealer, OfflineMode::OtExtension] {
            let g = generators::erdos_renyi(30, 0.3, 7);
            let mut eval = inline_evaluator(CountJob { offline, ..CountJob::new(0xFEED) });
            let mut counter = IncrementalCounter::new_with(g, &mut eval).unwrap();
            let epoch = counter
                .apply_with(
                    &[EdgeDelta::Add(0, 1), EdgeDelta::Remove(2, 3), EdgeDelta::Add(4, 5)],
                    &mut eval,
                )
                .unwrap();
            // Shares reconstruct to the live graph's true triangle count…
            assert_eq!(
                (epoch.share1 + epoch.share2).to_u64(),
                count_triangles(counter.graph()) as u64
            );
            // …and match a from-scratch sparse run at the opened count:
            // the words are per pair and per Count, so the shares are the
            // epoch plan's.
            let scratch = eval(
                &counter.graph().to_bit_matrix(),
                SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_graph(counter.graph()))),
            )
            .unwrap();
            assert_eq!(epoch.share1 + epoch.share2, scratch.reconstruct(), "{offline:?}");
            // The matrix was maintained in lock-step.
            assert_eq!(counter.matrix(), &counter.graph().to_bit_matrix());
            epochs.push((epoch.share1, epoch.share2));
        }
        assert_eq!(epochs[0], epochs[1], "OT mode derandomises onto the dealer's shares");
    }

    #[test]
    fn one_signed_count_an_epoch_and_its_closed_form_ledger() {
        // The batch destroys (0, 1, 2) and (0, 2, 3) and creates
        // (0, 1, 4) and (0, 1, 5): pair (0, 1) holds triples of both
        // signs, and its first round of two mixes them.
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (2, 3), (5, 6)] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        use EdgeDelta::{Add, Remove};
        let batch = [Remove(0, 2), Add(1, 4), Add(0, 5), Add(1, 5)];
        let job = CountJob { batch: 2, ..CountJob::new(0x5EED) };
        let calls = std::cell::Cell::new(0);
        let mut eval = |m: &BitMatrix, plan: SchedulePlan| {
            calls.set(calls.get() + 1);
            Ok(count_local(m, &CountJob { plan, ..job.clone() }))
        };
        let mut counter = IncrementalCounter::new_with(g.clone(), &mut eval).unwrap();
        let mut planned = g.clone();
        let plan = DeltaPlan::apply(&mut planned, &batch).unwrap();
        assert!(!plan.created().is_empty() && !plan.destroyed().is_empty());
        let calls_before = calls.get();
        let epoch = counter.apply_with(&batch, &mut eval).unwrap();
        assert_eq!(calls.get(), calls_before + 1, "one Count an epoch");
        // ⌈pairs ÷ batch⌉ rounds over the pairs the union plan reads.
        let sched = CountScheduler::with_plan(7, 1, 2, plan.count_plan().unwrap());
        assert_eq!(epoch.net.rounds, (sched.pair_set().len() as u64).div_ceil(2));
        assert_eq!(epoch.triples, (plan.created().len() + plan.destroyed().len()) as u64);
        assert_eq!((epoch.share1 + epoch.share2).to_u64(), count_triangles(counter.graph()) as u64);
        assert_eq!(counter.matrix(), &counter.graph().to_bit_matrix(), "settled on post");
        // An epoch with no triangle born or dead runs no Count.
        let quiet = counter.apply_with(&[Add(5, 6)], &mut eval).unwrap();
        assert_eq!((calls.get(), quiet.triples, quiet.net.rounds), (calls_before + 1, 0, 0));
    }
}
