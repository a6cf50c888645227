//! Incremental Count: edge-delta batches and share maintenance.
//!
//! The one-shot pipeline counts every admitted triple once. A
//! long-running service instead receives **edge deltas** (`+u v` /
//! `-u v`) and must keep the secret-shared triangle count current
//! without re-counting the whole graph. The key identity making that
//! exact (not approximate) is that a planned sparse count is a plain
//! ring sum of per-triple contributions, and each triple `(i, j, k)`'s
//! contribution is a pure function of the root seed and the canonical
//! dealer-stream offset `k − j − 1` within pair `(i, j)`'s stream —
//! independent of which other triples the plan contains, of chunking,
//! threads, batch, and offline mode (PRs 2–7 pin exactly this). So:
//!
//! ```text
//! share(G ∪ Δ) = share(G) + Σ_{T created} u(T) − Σ_{T destroyed} u(T)
//! ```
//!
//! bit-for-bit in `Z_{2^64}`, where the created triangles are counted
//! over the **post**-batch matrix and the destroyed ones over the
//! **pre**-batch matrix (in both, the triple's three edges are all
//! present, just as they are in a from-scratch run that admits it).
//!
//! [`DeltaPlan::apply`] turns a delta batch into exactly those two
//! triple sets (with cancellation: an edge removed and re-added inside
//! one batch contributes nothing), and [`IncrementalCounter`] folds
//! their planned counts into the running share state. The evaluator is
//! a closure so the same engine drives both the in-process kernels and
//! the two-party wire runtime — see [`crate::session`].

use crate::count::{count_local, CountJob, SecureCountResult};
use crate::count_sched::{CandidateSet, SchedulePlan};
use cargo_graph::{BitMatrix, Graph, GraphError};
use cargo_mpc::{NetStats, Ring64};
use std::collections::HashMap;
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
/// triangle through edge `{u, v}`.
fn common_neighbors(mut a: &[u32], mut b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => a = &a[1..],
            std::cmp::Ordering::Greater => b = &b[1..],
            std::cmp::Ordering::Equal => {
                out.push(x);
                a = &a[1..];
                b = &b[1..];
            }
        }
    }
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
    pub fn apply(graph: &mut Graph, batch: &[EdgeDelta]) -> Result<DeltaPlan, GraphError> {
        let n = graph.n();
        check_batch(n, batch)?;
        let mut tri_net: HashMap<(u32, u32, u32), i32> = HashMap::new();
        let mut edge_tally: HashMap<(u32, u32), i32> = HashMap::new();
        let mut common = Vec::new();
        let mut applied = 0usize;
        let mut redundant = 0usize;
        for d in batch {
            let (du, dv) = d.endpoints();
            let (u, v) = (du as usize, dv as usize);
            let present = graph.has_edge(u, v);
            let key = (du.min(dv), du.max(dv));
            match d {
                EdgeDelta::Add(..) if present => redundant += 1,
                EdgeDelta::Remove(..) if !present => redundant += 1,
                EdgeDelta::Add(..) => {
                    common_neighbors(graph.neighbors(u), graph.neighbors(v), &mut common);
                    for &w in &common {
                        *tri_net.entry(ordered(du, dv, w)).or_insert(0) += 1;
                    }
                    graph.add_edge(u, v)?;
                    *edge_tally.entry(key).or_insert(0) += 1;
                    applied += 1;
                }
                EdgeDelta::Remove(..) => {
                    common_neighbors(graph.neighbors(u), graph.neighbors(v), &mut common);
                    for &w in &common {
                        *tri_net.entry(ordered(du, dv, w)).or_insert(0) -= 1;
                    }
                    graph.remove_edge(u, v)?;
                    *edge_tally.entry(key).or_insert(0) -= 1;
                    applied += 1;
                }
            }
        }
        let mut created = Vec::new();
        let mut destroyed = Vec::new();
        for (t, net) in tri_net {
            debug_assert!((-1..=1).contains(&net), "triangle {t:?} net {net}");
            match net.cmp(&0) {
                std::cmp::Ordering::Greater => created.push(t),
                std::cmp::Ordering::Less => destroyed.push(t),
                std::cmp::Ordering::Equal => {}
            }
        }
        created.sort_unstable();
        destroyed.sort_unstable();
        let mut edge_net: Vec<((u32, u32), bool)> = edge_tally
            .into_iter()
            .filter(|&(_, net)| net != 0)
            .map(|(e, net)| (e, net > 0))
            .collect();
        edge_net.sort_unstable();
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

    /// Plan admitting exactly the created triangles, each at its
    /// canonical dealer-stream offset; `None` when no triangle was
    /// born (an empty plan would exchange no messages, but skipping it
    /// keeps the in-process and two-party paths trivially symmetric).
    pub fn created_plan(&self) -> Option<SchedulePlan> {
        (!self.created.is_empty()).then(|| {
            SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_triples(
                self.n,
                &self.created,
            )))
        })
    }

    /// Plan admitting exactly the destroyed triangles; `None` when no
    /// triangle died.
    pub fn destroyed_plan(&self) -> Option<SchedulePlan> {
        (!self.destroyed.is_empty()).then(|| {
            SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_triples(
                self.n,
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
    /// Modeled server↔server traffic of this epoch's two sub-counts.
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
/// SchedulePlan) -> SecureCountResult` whose per-triple contributions
/// follow the canonical seed/offset derivation. In-process callers
/// pass a [`crate::count::count_local`] closure ([`inline_evaluator`]);
/// the two-party session passes [`crate::count_runtime::count_party`], in
/// which case only the own-role share slot is live (the other stays
/// zero through every fold, so the same arithmetic serves both).
#[derive(Debug)]
pub struct IncrementalCounter {
    graph: Graph,
    matrix: BitMatrix,
    share1: Ring64,
    share2: Ring64,
    epochs: u64,
    triples: u64,
    net: NetStats,
    baseline: (u64, NetStats),
}

impl IncrementalCounter {
    /// Seeds the counter with a baseline sparse count of `graph`
    /// (skipped, with zero shares, when the graph is triangle-free).
    pub fn new_with(
        graph: Graph,
        mut eval: impl FnMut(&BitMatrix, SchedulePlan) -> SecureCountResult,
    ) -> Self {
        let matrix = graph.to_bit_matrix();
        let cs = CandidateSet::from_graph(&graph);
        let mut c = IncrementalCounter {
            graph,
            matrix,
            share1: Ring64::ZERO,
            share2: Ring64::ZERO,
            epochs: 0,
            triples: 0,
            net: NetStats::default(),
            baseline: (0, NetStats::default()),
        };
        if !cs.is_empty() {
            let r = eval(&c.matrix, SchedulePlan::CandidatePairs(Arc::new(cs)));
            c.share1 = r.share1;
            c.share2 = r.share2;
            c.triples = r.triples;
            c.net.merge(&r.net);
            c.baseline = (r.triples, c.net);
        }
        c
    }

    /// Applies one delta batch and folds the created/destroyed
    /// triangle counts into the share state: destroyed triangles are
    /// counted over the **pre**-batch matrix and subtracted, created
    /// ones over the **post**-batch matrix and added (always in that
    /// order — both parties of a wire session must agree on it).
    pub fn apply_with(
        &mut self,
        batch: &[EdgeDelta],
        mut eval: impl FnMut(&BitMatrix, SchedulePlan) -> SecureCountResult,
    ) -> Result<EpochCount, GraphError> {
        let plan = DeltaPlan::apply(&mut self.graph, batch)?;
        let mut net = NetStats::default();
        let mut triples = 0u64;
        if let Some(p) = plan.destroyed_plan() {
            let r = eval(&self.matrix, p);
            self.share1 -= r.share1;
            self.share2 -= r.share2;
            triples += r.triples;
            net.merge(&r.net);
        }
        for &((u, v), present) in plan.edge_net() {
            self.matrix.set_symmetric(u as usize, v as usize, present);
        }
        if let Some(p) = plan.created_plan() {
            let r = eval(&self.matrix, p);
            self.share1 += r.share1;
            self.share2 += r.share2;
            triples += r.triples;
            net.merge(&r.net);
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
pub fn inline_evaluator(job: CountJob) -> impl FnMut(&BitMatrix, SchedulePlan) -> SecureCountResult {
    move |matrix, plan| count_local(matrix, &CountJob { plan, ..job.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_graph::{count_triangles, generators, GraphBuilder};

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
        let g = generators::erdos_renyi(30, 0.3, 7);
        let mut eval = inline_evaluator(CountJob::new(0xFEED));
        let mut counter = IncrementalCounter::new_with(g, &mut eval);
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
        // …and match a from-scratch sparse run bit-for-bit.
        let scratch = eval(
            &counter.graph().to_bit_matrix(),
            SchedulePlan::CandidatePairs(Arc::new(CandidateSet::from_graph(counter.graph()))),
        );
        assert_eq!(epoch.share1, scratch.share1);
        assert_eq!(epoch.share2, scratch.share2);
        // The matrix was maintained in lock-step.
        assert_eq!(counter.matrix(), &counter.graph().to_bit_matrix());
    }
}
