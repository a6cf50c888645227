//! Packed bit vectors and bit matrices.
//!
//! The CARGO paper models each user `v_i` as holding an *adjacent bit
//! vector* `A_i = {a_i1, ..., a_in}` with `a_ij = 1` iff `⟨v_i, v_j⟩ ∈ E`
//! (Section II-A). [`BitVec`] is that vector, packed 64 bits per word;
//! [`BitMatrix`] is the stack of all `n` vectors, i.e. the (possibly
//! asymmetric, post-projection) adjacency matrix `A`.
//!
//! Asymmetry matters: under Edge LDP the two directed secrets
//! `⟨v_i, v_j⟩` and `⟨v_j, v_i⟩` are distinct (Definition 3), and the
//! similarity-based projection of Algorithm 3 removes bits from one row
//! without touching the mirrored bit of the other row.

/// A fixed-length packed bit vector.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has length zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits (the node degree when this is an adjacency row).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Number of positions set in both `self` and `other`
    /// (i.e. |N(u) ∩ N(v)| for adjacency rows — the count of common
    /// neighbours, which is exactly the number of triangles an edge
    /// participates in).
    pub fn intersection_count(&self, other: &BitVec) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Raw word access, used by the secure-count batcher.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Widens bits `start..start + out.len()` into one `u64` (0 or 1)
    /// per slot — the slab form the batched secure-count kernel
    /// consumes. Word-level shifts instead of `out.len()` single-bit
    /// probes: each source word yields up to 64 lanes.
    ///
    /// # Panics
    /// Panics if the range runs past the vector's length.
    pub fn fill_bits_u64(&self, start: usize, out: &mut [u64]) {
        assert!(
            start + out.len() <= self.len,
            "bit range {start}..{} out of range {}",
            start + out.len(),
            self.len
        );
        let mut i = start;
        let mut lane = 0usize;
        while lane < out.len() {
            let word = self.words[i / 64] >> (i % 64);
            let take = (64 - i % 64).min(out.len() - lane);
            for (l, slot) in out[lane..lane + take].iter_mut().enumerate() {
                *slot = (word >> l) & 1;
            }
            lane += take;
            i += take;
        }
    }
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[{}; ones={}]", self.len, self.count_ones())
    }
}

/// An `n × n` bit matrix: one [`BitVec`] row per user.
///
/// Row `i` is user `v_i`'s adjacent bit vector. The matrix is symmetric
/// for honest input graphs, but *may be asymmetric after projection*
/// (each user truncates her own row independently).
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    rows: Vec<BitVec>,
}

impl BitMatrix {
    /// Creates an all-zero `n × n` matrix.
    pub fn zeros(n: usize) -> Self {
        BitMatrix {
            n,
            rows: vec![BitVec::zeros(n); n],
        }
    }

    /// Builds a matrix from explicit rows.
    ///
    /// # Panics
    /// Panics if any row length differs from the number of rows.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let n = rows.len();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), n, "row {i} has length {} != n = {n}", r.len());
        }
        BitMatrix { n, rows }
    }

    /// Matrix dimension (number of users).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `a_ij`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i].get(j)
    }

    /// Sets entry `a_ij` (one direction only; see type docs on asymmetry).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        self.rows[i].set(j, value);
    }

    /// Sets both `a_ij` and `a_ji`.
    pub fn set_symmetric(&mut self, i: usize, j: usize, value: bool) {
        self.rows[i].set(j, value);
        self.rows[j].set(i, value);
    }

    /// Row `i` — user `v_i`'s adjacent bit vector.
    pub fn row(&self, i: usize) -> &BitVec {
        &self.rows[i]
    }

    /// Replaces row `i` wholesale.
    ///
    /// # Panics
    /// Panics if `row.len() != n`.
    pub fn set_row(&mut self, i: usize, row: BitVec) {
        assert_eq!(row.len(), self.n);
        self.rows[i] = row;
    }

    /// Degree of user `i` as recorded in her own row.
    pub fn degree(&self, i: usize) -> usize {
        self.rows[i].count_ones()
    }

    /// True iff `a_ij == a_ji` for all pairs.
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            for j in self.rows[i].iter_ones() {
                if j > i && !self.rows[j].get(i) {
                    return false;
                }
            }
            // Also catch ones in row j that are missing from row i.
        }
        // The loop above only checks i→j; do the full check cheaply by
        // comparing transposes word-wise for correctness.
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) != self.get(j, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Total number of set bits (2·|E| for symmetric matrices).
    pub fn total_ones(&self) -> usize {
        self.rows.iter().map(|r| r.count_ones()).sum()
    }

    /// The *conjunctive* symmetrization `a_ij ∧ a_ji`: an undirected edge
    /// survives only if both endpoints kept it. This is the effective
    /// graph whose triangles the secure count sees when triples are
    /// evaluated as `a_ij · a_ik · a_jk` with `i < j < k` (row owner is
    /// the lower index).
    pub fn symmetrize_and(&self) -> BitMatrix {
        let mut out = BitMatrix::zeros(self.n);
        for i in 0..self.n {
            for j in self.rows[i].iter_ones() {
                if j > i && self.rows[j].get(i) {
                    out.set_symmetric(i, j, true);
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitMatrix[{}x{}; ones={}]", self.n, self.n, self.total_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_bits_u64_matches_get_across_word_boundaries() {
        let mut v = BitVec::zeros(200);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            v.set(i, true);
        }
        for start in [0usize, 1, 60, 63, 64, 100, 190] {
            for len in [0usize, 1, 5, 64, 70] {
                if start + len > v.len() {
                    continue;
                }
                let mut out = vec![99u64; len];
                v.fill_bits_u64(start, &mut out);
                for (l, &b) in out.iter().enumerate() {
                    assert_eq!(b, v.get(start + l) as u64, "start {start} lane {l}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_bits_u64_rejects_overrun() {
        BitVec::zeros(10).fill_bits_u64(8, &mut [0u64; 3]);
    }

    #[test]
    fn zeros_has_no_ones() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.is_empty());
        assert!(BitVec::zeros(0).is_empty());
    }

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut v = BitVec::zeros(200);
        for &i in &[0usize, 1, 63, 64, 65, 127, 128, 199] {
            v.set(i, true);
            assert!(v.get(i), "bit {i} should be set");
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut v = BitVec::zeros(150);
        let idx = [3usize, 64, 65, 100, 149];
        for &i in &idx {
            v.set(i, true);
        }
        let got: Vec<usize> = v.iter_ones().collect();
        assert_eq!(got, idx);
    }

    #[test]
    fn intersection_counts_common_neighbours() {
        let mut a = BitVec::zeros(70);
        let mut b = BitVec::zeros(70);
        for i in [1usize, 5, 64, 69] {
            a.set(i, true);
        }
        for i in [5usize, 64, 68] {
            b.set(i, true);
        }
        assert_eq!(a.intersection_count(&b), 2);
    }

    #[test]
    fn matrix_symmetry_checks() {
        let mut m = BitMatrix::zeros(5);
        m.set_symmetric(0, 1, true);
        m.set_symmetric(1, 2, true);
        assert!(m.is_symmetric());
        m.set(3, 4, true); // one direction only
        assert!(!m.is_symmetric());
        assert_eq!(m.total_ones(), 5);
    }

    #[test]
    fn symmetrize_and_keeps_mutual_edges_only() {
        let mut m = BitMatrix::zeros(4);
        m.set_symmetric(0, 1, true); // mutual
        m.set(1, 2, true); // one-way
        m.set(3, 2, true); // one-way
        let s = m.symmetrize_and();
        assert!(s.get(0, 1) && s.get(1, 0));
        assert!(!s.get(1, 2) && !s.get(2, 1));
        assert!(!s.get(3, 2));
        assert!(s.is_symmetric());
    }

    #[test]
    fn degree_matches_row_ones() {
        let mut m = BitMatrix::zeros(6);
        m.set_symmetric(2, 0, true);
        m.set_symmetric(2, 4, true);
        m.set_symmetric(2, 5, true);
        assert_eq!(m.degree(2), 3);
        assert_eq!(m.degree(0), 1);
    }
}
