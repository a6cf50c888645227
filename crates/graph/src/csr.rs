//! Compressed sparse row view with a degree-ordered orientation.
//!
//! The dense protocols walk every `(i, j, k)` cell of the adjacency
//! cube, so [`crate::BitMatrix`] is their natural substrate. The
//! *sparse* Count schedule instead enumerates only the triples a public
//! candidate structure admits, and for that it needs the classic
//! sparse-triangle toolkit:
//!
//! * a CSR adjacency layout ([`CsrGraph`]) with `O(1)`-slice neighbor
//!   access,
//! * a **degree-ordered orientation**: edges pointed from low to high
//!   in the total order `(degree, id)`, which bounds every vertex's
//!   forward degree by `O(√m)` on any graph and makes wedge
//!   enumeration near-linear in practice, and
//! * a `Wedges` iterator over the oriented two-paths `u ← v → w`
//!   (`rank(v) < rank(u) < rank(w)`), each of which is the unique
//!   candidate spot for one triangle.
//!
//! [`CsrGraph::count_triangles`] closes the wedges and cross-checks the
//! crate's other counters. It is the orientation's only consumer — the
//! secure Count reads `neighbors` / `upper_neighbors` / `edge_count` /
//! `adjacency` —
//! so a [`CsrGraph`] is its adjacency (copied from a [`Graph`], or
//! counting-sorted from a sorted pair list or the loader's unsorted
//! one), and the orientation is derived from it by whoever first asks
//! for a rank, a forward list or a wedge. The candidate-pair schedulers
//! build their public `k`-lists from two equivalent primitives:
//! `common_neighbors_above` intersects one pair by a sorted merge (the
//! eager plan, and the reference the tests compare against), and
//! [`CsrGraph::walk_upper_edges`] streams every upper edge's list by
//! *marking* the source's neighborhood once and validating the other
//! side against it (the streamed plan) — the smaller relation proposes,
//! the index validates, nothing merges through a hub's tail.

use crate::bitvec::BitMatrix;
use crate::graph::Graph;
use std::sync::OnceLock;

/// Compressed-sparse-row adjacency, plus a degree-ordered forward
/// orientation that is **built on first use**: only the plaintext
/// reference ([`Self::count_triangles`], through [`Self::rank`],
/// [`Self::forward_neighbors`] and its wedges) reads it, so the
/// secure Count's ingest and planning never pay for it.
///
/// Equality is over the adjacency `(n, offsets, targets)`, of which the
/// orientation is a pure function — a graph whose orientation has been
/// forced equals one whose has not.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    n: usize,
    /// Full adjacency: `targets[offsets[v]..offsets[v + 1]]` are `v`'s
    /// neighbors, ascending by id.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    orientation: OnceLock<Orientation>,
}

/// The `(degree, id)` orientation of a [`CsrGraph`].
#[derive(Debug, Clone)]
struct Orientation {
    /// Forward adjacency: only neighbors *above* `v` in the
    /// `(degree, id)` order, sorted ascending by **rank**.
    fwd_offsets: Vec<usize>,
    fwd_targets: Vec<u32>,
    /// Position of each vertex in the `(degree, id)` total order.
    rank: Vec<u32>,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        (self.n, &self.offsets, &self.targets) == (other.n, &other.offsets, &other.targets)
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Builds the CSR view (one `O(n + m)` copy of the sorted lists).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        for v in 0..n {
            targets.extend_from_slice(g.neighbors(v));
            offsets.push(targets.len());
        }
        Self::from_adjacency(n, offsets, targets)
    }

    /// Builds the CSR view directly from a **normalized pair list**:
    /// `(u, v)` with `u < v`, sorted lexicographically, deduplicated —
    /// `O(n + m)`, no intermediate [`Graph`] adjacency
    /// (`Vec<Vec<u32>>`). The edge-list loader, whose pairs arrive in
    /// file order with repeats, goes through
    /// [`Self::from_unsorted_pairs`] instead; both share one fill.
    ///
    /// Panics if the list is unsorted, contains duplicates, self-loops,
    /// or ids `≥ n`.
    pub fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let mut prev: Option<(u32, u32)> = None;
        for &(u, v) in pairs {
            assert!(u < v && (v as usize) < n, "pair ({u},{v}) not normalized for n={n}");
            assert!(prev < Some((u, v)), "pair list must be sorted and unique");
            prev = Some((u, v));
        }
        // Scattering a sorted pair list appends, for each vertex `x`,
        // first its below-`x` neighbors `w` (from pairs `(w, x)`,
        // ascending in `w`) and then its above-`x` neighbors `v` (from
        // pairs `(x, v)`, ascending in `v`) — so every adjacency slice
        // comes out ascending by id.
        let (offsets, targets) = scatter_pairs(n, pairs);
        Self::from_adjacency(n, offsets, targets)
    }

    /// Builds the CSR view from the pairs of an edge multiset — **any
    /// order, either orientation, repeats allowed** — and returns it
    /// with the number of pairs it collapsed as repeats of an earlier
    /// one. This is the streaming-ingest constructor: the pairs are
    /// scattered into their rows as they come (`O(n + m)`), then each
    /// row is sorted and deduplicated in place and the rows are
    /// compacted — no global sort of the pair list, and the peak
    /// footprint of loading a million-node edge list is the pair list
    /// plus the CSR arrays themselves.
    ///
    /// Panics on a self-loop or an id `≥ n`.
    pub fn from_unsorted_pairs(n: usize, pairs: &[(u32, u32)]) -> (Self, usize) {
        let (mut offsets, mut targets) = scatter_pairs(n, pairs);
        let mut kept = 0;
        for v in 0..n {
            let (from, to) = (offsets[v], offsets[v + 1]);
            targets[from..to].sort_unstable();
            offsets[v] = kept;
            for at in from..to {
                if at == from || targets[at] != targets[at - 1] {
                    targets[kept] = targets[at];
                    kept += 1;
                }
            }
        }
        offsets[n] = kept;
        // Every repeated pair left one extra entry in both its rows.
        let duplicates = (targets.len() - kept) / 2;
        targets.truncate(kept);
        targets.shrink_to_fit();
        (Self::from_adjacency(n, offsets, targets), duplicates)
    }

    /// Builds the CSR view of a (possibly asymmetric, e.g. θ-projected)
    /// matrix's **upper-triangle support** — the same symmetrised
    /// support graph the sparse candidate schedule is derived from.
    pub fn from_support(m: &BitMatrix) -> Self {
        let n = m.n();
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in m.row(i).iter_ones().filter(|&j| j > i) {
                pairs.push((i as u32, j as u32));
            }
        }
        Self::from_pairs(n, &pairs)
    }

    fn from_adjacency(n: usize, offsets: Vec<usize>, targets: Vec<u32>) -> Self {
        CsrGraph { n, offsets, targets, orientation: OnceLock::new() }
    }

    /// The degree-ordered forward orientation and rank, derived from
    /// the adjacency by the first caller that asks.
    fn orientation(&self) -> &Orientation {
        self.orientation.get_or_init(|| {
            let (n, offsets, targets) = (self.n, &self.offsets, &self.targets);
            // Total order: by degree, ties by id. `rank[v]` is v's position.
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&v| (offsets[v as usize + 1] - offsets[v as usize], v));
            let mut rank = vec![0u32; n];
            for (r, &v) in order.iter().enumerate() {
                rank[v as usize] = r as u32;
            }
            let mut fwd_offsets = Vec::with_capacity(n + 1);
            fwd_offsets.push(0usize);
            let mut fwd_targets = Vec::with_capacity(targets.len() / 2);
            for v in 0..n {
                let from = fwd_targets.len();
                fwd_targets.extend(
                    targets[offsets[v]..offsets[v + 1]]
                        .iter()
                        .copied()
                        .filter(|&u| rank[u as usize] > rank[v]),
                );
                fwd_targets[from..].sort_by_key(|&u| rank[u as usize]);
                fwd_offsets.push(fwd_targets.len());
            }
            Orientation { fwd_offsets, fwd_targets, rank }
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges (each stored in both its endpoints'
    /// rows). Reads the adjacency only: the release path sizes its
    /// weight index with it and must not force the orientation.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// `v`'s neighbors, ascending by id.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `v`'s degree.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// `v`'s position in the `(degree, id)` total order.
    pub fn rank(&self, v: usize) -> u32 {
        self.orientation().rank[v]
    }

    /// `v`'s neighbors above it in the `(degree, id)` order, ascending
    /// by rank. Its length is `v`'s *forward degree* — `O(√m)` on any
    /// graph, which is what tames wedge enumeration.
    pub fn forward_neighbors(&self, v: usize) -> &[u32] {
        let o = self.orientation();
        &o.fwd_targets[o.fwd_offsets[v]..o.fwd_offsets[v + 1]]
    }

    /// Whether `{u, v}` is an edge (binary search on the shorter list).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// Appends to `out` the common neighbors `k` of `u` and `v` with
    /// `k > floor`, ascending — a linear merge of two sorted adjacency
    /// slices. This is the public `k`-list primitive of the sparse
    /// Count schedule: for a candidate pair `(i, j)` it yields exactly
    /// the `k` for which both `(i, k)` and `(j, k)` are candidate
    /// pairs.
    pub fn common_neighbors_above(&self, u: usize, v: usize, floor: usize, out: &mut Vec<u32>) {
        let mut a = self.neighbors(u);
        let mut b = self.neighbors(v);
        // Skip the below-floor prefixes in O(log) rather than merging
        // through them.
        let fl = floor as u32;
        a = &a[a.partition_point(|&x| x <= fl)..];
        b = &b[b.partition_point(|&x| x <= fl)..];
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

    /// The adjacency arrays `(offsets, targets)`: `v`'s row is
    /// `targets[offsets[v]..offsets[v + 1]]`. An index into `targets` —
    /// a **position** — names one orientation of one edge, and the
    /// positions of the upper edges `(u, v > u)` ascend in the
    /// lexicographic order of the pairs.
    pub fn adjacency(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.targets)
    }

    /// `v`'s neighbors above it **by id** (`j > v`), ascending — the
    /// upper edges `(v, j)` of the lexicographic pair walk.
    pub fn upper_neighbors(&self, v: usize) -> &[u32] {
        let nei = self.neighbors(v);
        &nei[nei.partition_point(|&x| x as usize <= v)..]
    }

    /// Streams the upper edges `(i, j > i)` in lexicographic order —
    /// edge `from` (inclusive) onwards — and calls
    /// `f(ordinal, i, j, ks)` for every edge that `want(ordinal)` and
    /// whose `k`-list `ks = {k > j : k ∈ N(i) ∩ N(j)}` is **non-empty**,
    /// ascending exactly as [`Self::common_neighbors_above`]`(i, j, j)`
    /// lists it. `ordinal` numbers the upper edges in walk order
    /// (`from_ordinal` is `from`'s own); `f` returning `false` stops
    /// the walk. An unwanted edge costs one `want` call — `N(j)` is
    /// never touched.
    ///
    /// Per source vertex `i` the upper neighborhood is marked in
    /// `marks` once and each `N(j)` is validated against it, so a pair
    /// costs `O(|N(j) ∩ [lo, hi]|)` bit tests instead of a merge
    /// through both tails; a vertex with fewer than two upper neighbors
    /// closes nothing and costs `O(1)`. `marks` must span
    /// [`Self::n`] bits and is all-zero again when this returns.
    pub fn walk_upper_edges(
        &self,
        from: (u32, u32),
        from_ordinal: usize,
        marks: &mut NeighborMarks,
        mut want: impl FnMut(usize) -> bool,
        mut f: impl FnMut(usize, usize, usize, &[u32]) -> bool,
    ) {
        assert!(marks.words.len() * 64 >= self.n, "mark scratch narrower than the graph");
        let mut ks = Vec::new();
        let mut ordinal = from_ordinal;
        for i in from.0 as usize..self.n {
            let mut up = self.upper_neighbors(i);
            if i == from.0 as usize {
                up = &up[up.partition_point(|&x| x < from.1)..];
            }
            // `ks ⊆ N(i)` above `j`: the last upper neighbor has none.
            let mut marked = false;
            for p in 0..up.len().saturating_sub(1) {
                if !want(ordinal + p) {
                    continue;
                }
                if !marked {
                    marks.set(up);
                    marked = true;
                }
                ks.clear();
                self.closing_above(up[p], &up[p + 1..], marks, &mut ks);
                if !ks.is_empty() && !f(ordinal + p, i, up[p] as usize, &ks) {
                    marks.clear(up);
                    return;
                }
            }
            if marked {
                marks.clear(up);
            }
            ordinal += up.len();
        }
    }

    /// Appends `N(j) ∩ above`, ascending, where `above` (non-empty,
    /// ascending) is marked in `marks`. Only the window of `N(j)`
    /// inside `[above.first, above.last]` is looked at; when even that
    /// window dwarfs `above` (a hub `j` under a low-degree source) the
    /// short side probes it by binary search instead.
    fn closing_above(&self, j: u32, above: &[u32], marks: &NeighborMarks, out: &mut Vec<u32>) {
        let (lo, hi) = (above[0], above[above.len() - 1]);
        let b = self.neighbors(j as usize);
        let b = &b[b.partition_point(|&x| x < lo)..];
        let b = &b[..b.partition_point(|&x| x <= hi)];
        if b.is_empty() {
            return;
        }
        if above.len() * (b.len().ilog2() as usize + 1) < b.len() {
            out.extend(above.iter().filter(|k| b.binary_search(k).is_ok()));
        } else {
            out.extend(b.iter().filter(|&&k| marks.has(k)));
        }
    }

    /// Iterates the degree-ordered wedges `(v, u, w)`:
    /// `u` and `w` forward neighbors of the center `v` with
    /// `rank(u) < rank(w)`. Every triangle of the graph closes exactly
    /// one wedge (at its lowest-ranked corner), so the stream's length
    /// is the graph's candidate-triangle count.
    pub(crate) fn wedges(&self) -> Wedges<'_> {
        Wedges {
            g: self,
            v: 0,
            a: 0,
            b: 1,
        }
    }

    /// Exact triangle count by closing each wedge — the `O(m^{3/2})`
    /// degree-ordered algorithm. Used as a cross-check against the
    /// dense counters and as the plaintext reference on graphs too
    /// large for an `n × n` bit matrix.
    pub fn count_triangles(&self) -> u64 {
        let rank = &self.orientation().rank;
        let mut t = 0u64;
        for (_, u, w) in self.wedges() {
            // Closing edge check: w must be a forward neighbor of u
            // (rank(u) < rank(w), so if {u, w} is an edge it is stored
            // forward from u). Forward lists are rank-sorted.
            let rw = rank[w as usize];
            if self
                .forward_neighbors(u as usize)
                .binary_search_by_key(&rw, |&x| rank[x as usize])
                .is_ok()
            {
                t += 1;
            }
        }
        t
    }
}

/// The fill shared by the pair constructors: scatters pairs (`u ≠ v`,
/// both `< n`; panics otherwise) into CSR rows by counting sort —
/// degree count, prefix sum, one write per direction — and returns
/// `(offsets, targets)`. Each row keeps its pairs' input order.
fn scatter_pairs(n: usize, pairs: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    // Degrees are counted two slots up, so after the prefix sum
    // `offsets[x + 1]` is row `x`'s *start*; it then serves as the
    // row's write cursor and ends on the row's end — the next row's
    // start, which is what that slot must hold.
    let mut offsets = vec![0usize; n + 2];
    for &(u, v) in pairs {
        assert!(
            u != v && (u as usize) < n && (v as usize) < n,
            "pair ({u},{v}) is a self-loop or out of range for n={n}"
        );
        offsets[u as usize + 2] += 1;
        offsets[v as usize + 2] += 1;
    }
    for x in 2..n + 2 {
        offsets[x] += offsets[x - 1];
    }
    let mut targets = vec![0u32; 2 * pairs.len()];
    for &(u, v) in pairs {
        targets[offsets[u as usize + 1]] = v;
        offsets[u as usize + 1] += 1;
        targets[offsets[v as usize + 1]] = u;
        offsets[v as usize + 1] += 1;
    }
    offsets.pop();
    (offsets, targets)
}

/// Reusable `n`-bit membership scratch of
/// [`CsrGraph::walk_upper_edges`]: all-zero between source vertices, so
/// one allocation (`n / 8` bytes — 125 kB at `n = 10⁶`) serves a whole
/// walk and any number of walks after it.
#[derive(Debug, Clone)]
pub struct NeighborMarks {
    words: Vec<u64>,
}

impl NeighborMarks {
    /// An all-zero scratch for graphs of up to `n` vertices.
    pub fn new(n: usize) -> Self {
        NeighborMarks { words: vec![0; n.div_ceil(64)] }
    }

    /// Whether no bit is set — the state every walk leaves behind.
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn set(&mut self, ks: &[u32]) {
        for &k in ks {
            self.words[k as usize >> 6] |= 1 << (k & 63);
        }
    }

    /// Zeroes every word `set(ks)` touched.
    fn clear(&mut self, ks: &[u32]) {
        for &k in ks {
            self.words[k as usize >> 6] = 0;
        }
    }

    #[inline]
    fn has(&self, k: u32) -> bool {
        self.words[k as usize >> 6] >> (k & 63) & 1 == 1
    }
}

/// Iterator over degree-ordered wedges — see `CsrGraph::wedges`.
#[derive(Debug, Clone)]
pub(crate) struct Wedges<'a> {
    g: &'a CsrGraph,
    v: usize,
    a: usize,
    b: usize,
}

impl Iterator for Wedges<'_> {
    /// `(center, u, w)` with `rank(center) < rank(u) < rank(w)`.
    type Item = (u32, u32, u32);

    fn next(&mut self) -> Option<(u32, u32, u32)> {
        while self.v < self.g.n {
            let fwd = self.g.forward_neighbors(self.v);
            if self.b < fwd.len() {
                let out = (self.v as u32, fwd[self.a], fwd[self.b]);
                self.b += 1;
                if self.b == fwd.len() {
                    self.a += 1;
                    self.b = self.a + 1;
                }
                return Some(out);
            }
            self.v += 1;
            self.a = 0;
            self.b = 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::triangles::count_triangles;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn diamond() -> Graph {
        // 0-1-2-0 and 1-2-3-1: two triangles sharing edge (1,2).
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn csr_mirrors_the_adjacency_lists() {
        let g = diamond();
        let c = CsrGraph::from_graph(&g);
        assert_eq!(c.n(), 4);
        assert_eq!(c.edge_count(), 5);
        for v in 0..4 {
            assert_eq!(c.neighbors(v), g.neighbors(v));
            assert_eq!(c.degree(v), g.degree(v));
        }
        assert!(c.has_edge(1, 3) && c.has_edge(3, 1) && !c.has_edge(0, 3));
    }

    #[test]
    fn orientation_is_a_total_order_covering_each_edge_once() {
        let g = generators::erdos_renyi(60, 0.2, 7);
        let c = CsrGraph::from_graph(&g);
        let mut ranks_seen: Vec<u32> = (0..c.n()).map(|v| c.rank(v)).collect();
        ranks_seen.sort_unstable();
        assert_eq!(ranks_seen, (0..60).collect::<Vec<u32>>(), "rank is a permutation");
        let mut fwd_edges = 0;
        for v in 0..c.n() {
            let fwd = c.forward_neighbors(v);
            fwd_edges += fwd.len();
            for &u in fwd {
                assert!(c.rank(u as usize) > c.rank(v), "forward means rank-up");
            }
            assert!(
                fwd.windows(2).all(|w| c.rank(w[0] as usize) < c.rank(w[1] as usize)),
                "forward lists are rank-sorted"
            );
        }
        assert_eq!(fwd_edges, g.edge_count(), "each edge oriented exactly once");
    }

    #[test]
    fn wedges_are_exactly_the_oriented_two_paths() {
        let c = CsrGraph::from_graph(&diamond());
        let wedges: Vec<_> = c.wedges().collect();
        // Ranks: deg(0)=2, deg(3)=2, deg(1)=3, deg(2)=3 → order 0,3,1,2.
        // Forward lists: 0→{1,2}, 3→{1,2}, 1→{2}, 2→{}.
        assert_eq!(wedges, vec![(0, 1, 2), (3, 1, 2)]);
        for (v, u, w) in wedges {
            assert!(c.rank(v as usize) < c.rank(u as usize));
            assert!(c.rank(u as usize) < c.rank(w as usize));
        }
    }

    #[test]
    fn triangle_count_matches_the_dense_counters() {
        for (n, p, seed) in [(30usize, 0.3, 1u64), (80, 0.1, 2), (50, 0.5, 3)] {
            let g = generators::erdos_renyi(n, p, seed);
            let c = CsrGraph::from_graph(&g);
            assert_eq!(c.count_triangles(), count_triangles(&g), "n={n} p={p}");
        }
        let pl = generators::chung_lu(300, 900, 40, 2.5, 4);
        assert_eq!(
            CsrGraph::from_graph(&pl).count_triangles(),
            count_triangles(&pl)
        );
    }

    #[test]
    fn common_neighbors_above_is_a_floored_intersection() {
        let g = diamond();
        let c = CsrGraph::from_graph(&g);
        let mut out = Vec::new();
        c.common_neighbors_above(1, 2, 0, &mut out);
        assert_eq!(out, vec![3], "N(1) ∩ N(2) above 0, excluding each other");
        out.clear();
        c.common_neighbors_above(0, 1, 1, &mut out);
        assert_eq!(out, vec![2]);
        out.clear();
        c.common_neighbors_above(0, 1, 2, &mut out);
        assert!(out.is_empty(), "floor excludes everything");
    }

    /// Every upper edge's non-empty `k`-list by the reference merge:
    /// `(ordinal, i, j, ks)` in walk order.
    fn merged_lists(c: &CsrGraph) -> Vec<(usize, usize, usize, Vec<u32>)> {
        let mut lists = Vec::new();
        let mut ordinal = 0;
        for i in 0..c.n() {
            for &j in c.upper_neighbors(i) {
                let mut ks = Vec::new();
                c.common_neighbors_above(i, j as usize, j as usize, &mut ks);
                if !ks.is_empty() {
                    lists.push((ordinal, i, j as usize, ks));
                }
                ordinal += 1;
            }
        }
        lists
    }

    /// What the marked walk reports from edge `from` on, stopping after
    /// `stop_after` reports; asserts the scratch comes back all-zero.
    fn walked_lists(
        c: &CsrGraph,
        marks: &mut NeighborMarks,
        from: (u32, u32),
        from_ordinal: usize,
        want: impl FnMut(usize) -> bool,
        stop_after: usize,
    ) -> Vec<(usize, usize, usize, Vec<u32>)> {
        let mut lists = Vec::new();
        c.walk_upper_edges(from, from_ordinal, marks, want, |e, i, j, ks| {
            lists.push((e, i, j, ks.to_vec()));
            lists.len() < stop_after
        });
        assert!(marks.is_clear(), "scratch dirty after a walk from {from:?}");
        lists
    }

    #[test]
    fn upper_neighbors_are_the_ids_above() {
        let c = CsrGraph::from_graph(&diamond());
        assert_eq!(c.upper_neighbors(0), &[1, 2]);
        assert_eq!(c.upper_neighbors(1), &[2, 3]);
        assert_eq!(c.upper_neighbors(2), &[3]);
        assert!(c.upper_neighbors(3).is_empty());
    }

    #[test]
    fn a_hub_under_a_short_source_is_probed_not_scanned() {
        // Hub 10 with neighbors 11..=60; source 0 sees {10, 11, 60}, so
        // pair (0, 10) validates a 2-element list against a 50-element
        // window of N(10) — the binary-search side of `closing_above`.
        // Source 1 sees {10, 20, 61}: 61 is not the hub's.
        let mut edges: Vec<(usize, usize)> = (11..=60).map(|k| (10, k)).collect();
        edges.extend([(0, 10), (0, 11), (0, 60), (1, 10), (1, 20), (1, 61)]);
        let c = CsrGraph::from_graph(&Graph::from_edges(62, &edges).unwrap());
        let mut marks = NeighborMarks::new(c.n());
        let got = walked_lists(&c, &mut marks, (0, 0), 0, |_| true, usize::MAX);
        assert_eq!(got, merged_lists(&c));
        assert_eq!(got[0], (0, 0, 10, vec![11, 60]));
        assert_eq!(got[1], (3, 1, 10, vec![20]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn marked_walk_equals_the_merged_intersection(
            n in 1usize..70,
            p in 0.0f64..0.6,
            seed: u64,
            hubs: bool,
        ) {
            let g = if hubs {
                generators::chung_lu(n + 30, 4 * n, n / 2 + 2, 2.2, seed)
            } else {
                generators::erdos_renyi(n, p, seed)
            };
            let c = CsrGraph::from_graph(&g);
            let want = merged_lists(&c);
            // One scratch across every walk below: reuse safety.
            let mut marks = NeighborMarks::new(c.n());
            let all = walked_lists(&c, &mut marks, (0, 0), 0, |_| true, usize::MAX);
            prop_assert_eq!(&all, &want);
            // Resuming at any reported edge replays the tail, and an
            // early `false` leaves a prefix (and a clean scratch).
            for (at, (e, i, j, _)) in want.iter().enumerate() {
                let from = (*i as u32, *j as u32);
                let tail = walked_lists(&c, &mut marks, from, *e, |_| true, usize::MAX);
                prop_assert_eq!(&tail[..], &want[at..]);
                let head = walked_lists(&c, &mut marks, (0, 0), 0, |_| true, at + 1);
                prop_assert_eq!(&head[..], &want[..=at]);
            }
            // Unwanted edges are skipped, wanted ones unaffected.
            let odd = walked_lists(&c, &mut marks, (0, 0), 0, |e| e % 2 == 1, usize::MAX);
            let want_odd: Vec<_> = want.iter().filter(|l| l.0 % 2 == 1).cloned().collect();
            prop_assert_eq!(odd, want_odd);
        }
    }

    #[test]
    fn from_pairs_matches_from_graph() {
        for (n, p, seed) in [(1usize, 0.0, 1u64), (40, 0.2, 2), (75, 0.08, 3)] {
            let g = generators::erdos_renyi(n, p, seed);
            let mut pairs = Vec::new();
            for u in 0..n {
                for &v in g.neighbors(u).iter().filter(|&&v| (v as usize) > u) {
                    pairs.push((u as u32, v));
                }
            }
            pairs.sort_unstable();
            assert_eq!(CsrGraph::from_pairs(n, &pairs), CsrGraph::from_graph(&g), "n={n}");
        }
        assert_eq!(CsrGraph::from_pairs(0, &[]), CsrGraph::from_graph(&Graph::empty(0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The three constructors agree on an edge multiset, and the
        /// orientation nobody built yet is the `(degree, id)` one.
        #[test]
        fn unsorted_build_and_lazy_orientation_match_brute_force(
            n in 1usize..60,
            p in 0.0f64..0.5,
            tail in 0usize..4,
            seed: u64,
            hubs: bool,
        ) {
            let g = if hubs {
                generators::chung_lu(n + 30, 4 * n, n / 2 + 2, 2.2, seed)
            } else {
                generators::erdos_renyi(n, p, seed)
            };
            // The multiset: every edge 1–3 times, each copy in either
            // orientation, shuffled; `tail` isolated ids past the last.
            let total = g.n() + tail;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut list = Vec::new();
            for (u, v) in g.edges() {
                for _ in 0..rng.gen_range(1usize..=3) {
                    let (u, v) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
                    list.push((u as u32, v as u32));
                }
            }
            list.shuffle(&mut rng);
            let (built, duplicates) = CsrGraph::from_unsorted_pairs(total, &list);

            let mut sorted: Vec<_> = list.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(duplicates, list.len() - sorted.len());
            prop_assert_eq!(&built, &CsrGraph::from_pairs(total, &sorted));
            let padded = Graph::from_edges(total, &g.edges().collect::<Vec<_>>()).unwrap();
            prop_assert_eq!(&built, &CsrGraph::from_graph(&padded));
            for v in 0..total {
                prop_assert_eq!(built.neighbors(v), padded.neighbors(v));
            }

            // Nothing so far needed the orientation — `edge_count` and
            // `==` included.
            prop_assert_eq!(built.edge_count(), g.edge_count());
            prop_assert!(built.orientation.get().is_none());

            let mut order: Vec<usize> = (0..total).collect();
            order.sort_by_key(|&v| (padded.degree(v), v));
            let mut position = vec![0u32; total];
            for (at, &v) in order.iter().enumerate() {
                position[v] = at as u32;
            }
            for v in 0..total {
                prop_assert_eq!(built.rank(v), position[v]);
                let mut forward: Vec<u32> = padded.neighbors(v).to_vec();
                forward.retain(|&u| position[u as usize] > position[v]);
                forward.sort_by_key(|&u| position[u as usize]);
                prop_assert_eq!(built.forward_neighbors(v), &forward[..]);
            }
            prop_assert_eq!(built.count_triangles(), count_triangles(&padded));

            // A forced orientation does not make the graph a different one.
            let unforced = CsrGraph::from_graph(&padded);
            prop_assert!(built.orientation.get().is_some() && unforced.orientation.get().is_none());
            prop_assert_eq!(&built, &unforced);
            prop_assert_eq!(&built.clone(), &unforced);
        }
    }

    #[test]
    fn racing_first_uses_build_one_orientation() {
        let g = generators::chung_lu(400, 1600, 60, 2.2, 9);
        let want = count_triangles(&g);
        let c = std::sync::Arc::new(CsrGraph::from_graph(&g));
        let start = std::sync::Barrier::new(2);
        let counts: Vec<u64> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        c.count_triangles()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(counts, [want, want]);
        assert_eq!(c.count_triangles(), want);
    }

    #[test]
    #[should_panic(expected = "self-loop or out of range")]
    fn unsorted_build_rejects_self_loops() {
        CsrGraph::from_unsorted_pairs(3, &[(0, 1), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn from_pairs_rejects_duplicates() {
        CsrGraph::from_pairs(3, &[(0, 1), (0, 1)]);
    }

    #[test]
    fn from_support_reads_the_upper_triangle_only() {
        // Asymmetric matrix: (0,1) upper set, (2,1) lower set (ignored),
        // plus the (1,2)/(0,2) uppers closing a triangle.
        let mut m = BitMatrix::zeros(4);
        m.set(0, 1, true);
        m.set(0, 2, true);
        m.set(1, 2, true);
        m.set(2, 1, true); // lower-triangle echo, must not add an edge
        m.set(3, 1, true); // lower-triangle only: {1,3} is NOT support
        let c = CsrGraph::from_support(&m);
        assert_eq!(c.edge_count(), 3);
        assert!(c.has_edge(0, 1) && c.has_edge(0, 2) && c.has_edge(1, 2));
        assert!(!c.has_edge(1, 3));
        assert_eq!(c.count_triangles(), 1);
    }

    #[test]
    fn empty_and_tiny_graphs_work() {
        let c = CsrGraph::from_graph(&Graph::empty(0));
        assert_eq!(c.n(), 0);
        assert_eq!(c.wedges().count(), 0);
        assert_eq!(c.count_triangles(), 0);
        let c = CsrGraph::from_graph(&Graph::empty(3));
        assert_eq!(c.count_triangles(), 0);
    }
}
