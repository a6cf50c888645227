//! A Count's pair phase cut into rounds, and the openings a serve run
//! keeps across its Counts.
//!
//! Every Count opens the pairs its plan reads — `e_uv = a_uv − λ_uv`,
//! PROTOCOL.md §5 — before any chunk combines. A serve run's Counts
//! share one Count seed, so a pair's mask is the same in every Count
//! that reads it, and every such Count reads the pair at 1
//! (PROTOCOL.md §10.4): a pair's opening never changes over the run.
//! [`OpenedPairs`] keeps the openings a run has exchanged, and a Count
//! handed it exchanges only the pairs of its plan that no earlier Count
//! opened. It still masks every pair of its plan, so its table, its
//! share pair and its opening are what they are without the cache; only
//! the words on the wire go.
//!
//! One cut serves every Count (`PairPhase`): a round walks the plan
//! on from where the last one ended until it holds `batch` new pairs or
//! the plan ends. A Count with no kept openings — every one-shot Count —
//! finds every pair new, so its rounds are `batch` slots each.

use crate::count::AdjacencyBits;
use crate::count_sched::{CountScheduler, PairSet};
use cargo_mpc::{key_pair, pair_key, PAIR_KEY_STEP};
use std::ops::Range;

/// The openings a run's Counts have exchanged, by pair, under one Count
/// seed over one vertex set — what a serve session
/// ([`crate::ServeSession`]) keeps from its baseline Count on, so each
/// epoch's Count exchanges only the pairs no earlier Count opened, in
/// process ([`count_local_reusing`](crate::count::count_local_reusing))
/// and on the wire alike.
///
/// Sound only while every Count of the run reads each pair at one value
/// (PROTOCOL.md §10.4): S₂'s Count machine, the one that reads a kept
/// pair's bit, refuses one that reads 0, and the in-process driver
/// checks every kept opening against the one it recomputes.
///
/// Kept by row, as a Count walks its pairs: row `i` marks its kept
/// columns, a bit a column, with beside each word of marks the row's
/// kept pairs in the words before it; its openings sit in column order,
/// found by the rank of their mark. An epoch reads pairs in runs along
/// a few rows, so its lookups share the rows' marks and openings' cache
/// lines. The marks take `12·n·⌈n ÷ 64⌉` bytes, one and a half times the
/// session's adjacency matrix; the openings, 8 bytes a kept pair.
#[derive(Debug, Clone)]
pub struct OpenedPairs {
    seed: u64,
    n: usize,
    /// Words a row's marks span: `⌈n ÷ 64⌉`.
    width: usize,
    /// Row `i`'s word `w` at `i·width + w`: bit `b` marks column
    /// `64·w + b` kept.
    marks: Vec<u64>,
    /// Beside each word of `marks`, the row's kept pairs in the words
    /// before it.
    ranks: Vec<u32>,
    /// Each row's kept openings, by column.
    open: Vec<Vec<u64>>,
    len: usize,
}

impl OpenedPairs {
    /// No opening yet, for the Counts of a run under the Count seed
    /// `seed` ([`crate::CountJob::seed`]) over `n` vertices.
    pub fn new(seed: u64, n: usize) -> Self {
        let width = n.div_ceil(64);
        let (marks, ranks) = (vec![0; n * width], vec![0; n * width]);
        OpenedPairs {
            seed,
            n,
            width,
            marks,
            ranks,
            open: vec![Vec::new(); n],
            len: 0,
        }
    }

    /// Pairs kept.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pair was opened yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The kept opening of pair `(i, j)`, `i < j`, if a Count opened it.
    pub fn get(&self, i: u32, j: u32) -> Option<u64> {
        (i < j && (j as usize) < self.n)
            .then(|| self.find(i, j))
            .flatten()
    }

    /// The kept opening of pair `(i, j)` of the `n` vertices.
    #[inline]
    fn find(&self, i: u32, j: u32) -> Option<u64> {
        let (at, below) = self.mark(i, j);
        let word = self.marks[at];
        (word >> (j % 64) & 1 == 1).then(|| {
            self.open[i as usize][self.ranks[at] as usize + (word & below).count_ones() as usize]
        })
    }

    /// Where pair `(i, j)`'s mark is: its word, and the bits of the
    /// columns before it in the word.
    #[inline]
    fn mark(&self, i: u32, j: u32) -> (usize, u64) {
        (
            i as usize * self.width + j as usize / 64,
            (1 << (j % 64)) - 1,
        )
    }

    /// Keeps the openings of a returned Count's `fresh` pairs — the new
    /// ones its pair phase walked, by slot and key
    /// ([`PairPhase::into_fresh`]) — read off its table's `openings` by
    /// slot.
    pub(crate) fn record(&mut self, fresh: &[(usize, u64)], openings: &[u64]) {
        for &(slot, key) in fresh {
            let (i, j) = key_pair(key);
            let (at, below) = self.mark(i, j);
            debug_assert_eq!(
                self.marks[at] >> (j % 64) & 1,
                0,
                "pair ({i}, {j}) is kept already"
            );
            let rank = self.ranks[at] as usize + (self.marks[at] & below).count_ones() as usize;
            self.open[i as usize].insert(rank, openings[slot]);
            self.marks[at] |= below + 1;
            let row_end = (i as usize + 1) * self.width;
            self.ranks[at + 1..row_end]
                .iter_mut()
                .for_each(|rank| *rank += 1);
        }
        self.len += fresh.len();
    }
}

/// A Count's pair phase: its plan's pairs in rounds, and what each
/// round masks, sends and opens — the one cut every Count machine walks.
///
/// A round walks the plan on from where its predecessor ended, `batch`
/// slots at a time, and ends at its `batch`-th new pair or at the end of
/// the plan; it masks every pair it walked and sends the new pairs'
/// words alone. Every round but the last sends `batch` words, so the
/// rounds that send are `⌈new ÷ batch⌉`; a last round of kept pairs
/// only is masked and sends nothing. The cut is a function of the public
/// plan, `batch` and the run's past plans, which both servers hold.
pub(crate) struct PairPhase<'a, B> {
    pairs: &'a PairSet,
    bits: Option<&'a B>,
    opened: Option<&'a OpenedPairs>,
    batch: usize,
    /// The slot the next round starts at.
    next: usize,
    /// Rounds walked.
    rounds: u32,
    /// The round walked last: its first slot, its pairs' keys and,
    /// where this party reads them, bits — what
    /// [`cargo_mpc::mask_round`] masks.
    start: usize,
    keys: Vec<u64>,
    plain: Vec<u64>,
    /// Its kept pairs: their offsets in the round and their openings.
    kept: Vec<(usize, u64)>,
    /// The new pairs walked so far, by slot and key — where the run
    /// keeps openings, to keep theirs once the Count returns — and
    /// where the round walked last starts in them.
    fresh: Vec<(usize, u64)>,
    fresh_at: usize,
    exchanged: u64,
}

impl<'a, B: AdjacencyBits> PairPhase<'a, B> {
    /// The pair phase of a Count under `seed` over `sched`'s `pairs`,
    /// its batch of new pairs a round, through the run's `opened` pairs
    /// if the caller keeps any. `bits` are S₂'s (or both servers', in
    /// process) — `None` on S₁, which reads none.
    ///
    /// # Panics
    /// Panics if `opened` was kept under another seed or over another
    /// vertex count.
    pub fn new(
        (sched, pairs): (&CountScheduler, &'a PairSet),
        bits: Option<&'a B>,
        (seed, opened): (u64, Option<&'a OpenedPairs>),
    ) -> Self {
        if let Some(opened) = opened {
            assert_eq!(
                opened.seed, seed,
                "openings kept under Count seed {:#x} cannot serve a Count under {seed:#x}",
                opened.seed
            );
            assert_eq!(
                opened.n,
                sched.n(),
                "openings kept over {} vertices cannot serve a Count over {}",
                opened.n,
                sched.n()
            );
        }
        // A serve epoch's first round usually walks its whole plan.
        let (batch, scratch) = (
            sched.batch(),
            if opened.is_some() {
                pairs.len()
            } else {
                sched.batch()
            },
        );
        PairPhase {
            pairs,
            bits,
            opened,
            batch,
            next: 0,
            rounds: 0,
            start: 0,
            keys: Vec::with_capacity(scratch),
            plain: Vec::with_capacity(if bits.is_some() { scratch } else { 0 }),
            kept: Vec::with_capacity(if opened.is_some() { scratch } else { 0 }),
            fresh: Vec::new(),
            fresh_at: 0,
            exchanged: 0,
        }
    }

    /// New pairs walked so far: once every round is, the pairs the
    /// phase exchanges.
    pub fn exchanged(&self) -> u64 {
        self.exchanged
    }

    /// Walks the next round, reading its pairs' keys and bits and
    /// looking up the kept ones; returns its index, or `None` past the
    /// end of the plan.
    ///
    /// # Panics
    /// Panics naming the first kept pair whose bit reads 0.
    pub fn next_round(&mut self) -> Option<u32> {
        let len = self.pairs.len();
        if self.next == len {
            return None;
        }
        let PairPhase {
            pairs,
            bits,
            opened,
            batch,
            next,
            start,
            keys,
            plain,
            kept,
            fresh,
            ..
        } = self;
        (*start, self.fresh_at) = (*next, fresh.len());
        keys.clear();
        plain.clear();
        kept.clear();
        let mut need = *batch;
        while need > 0 && *next < len {
            let (from, kept_from, fresh_from) = (keys.len(), kept.len(), fresh.len());
            let walk = *next..(*next + *batch).min(len);
            *next = walk.end;
            read_pairs(pairs, walk, *bits, keys, plain);
            if let Some(opened) = opened {
                for (t, &key) in keys.iter().enumerate().skip(from) {
                    let (i, j) = key_pair(key);
                    let Some(e) = opened.find(i, j) else {
                        fresh.push((*start + t, key));
                        continue;
                    };
                    assert!(
                        plain.get(t) != Some(&0),
                        "pair ({i}, {j}) was opened at 1 by an earlier Count of the run and reads \
                         0 now: its kept opening would count the wrong value"
                    );
                    kept.push((t, e));
                }
            }
            let new = keys.len() - from - (kept.len() - kept_from);
            if new < need {
                need -= new;
                continue;
            }
            // The round ends at this walk's `need`-th new pair: each kept
            // pair before that one moves the end on.
            let end = kept[kept_from..]
                .iter()
                .fold(from + need, |end, &(t, _)| end + usize::from(t < end));
            keys.truncate(end);
            plain.truncate(end);
            kept.truncate(kept_from + kept[kept_from..].partition_point(|&(t, _)| t < end));
            fresh.truncate(
                fresh_from + fresh[fresh_from..].partition_point(|&(slot, _)| slot < *start + end),
            );
            (*next, need) = (*start + end, 0);
        }
        self.exchanged += self.sends() as u64;
        self.rounds += 1;
        Some(self.rounds - 1)
    }

    /// The round's pair keys and, where this party reads them,
    /// plaintext bits — what [`cargo_mpc::mask_round`] masks.
    pub fn read(&self) -> (&[u64], &[u64]) {
        (&self.keys, &self.plain)
    }

    /// The round's header: its first new pair and, where the run keeps
    /// openings, a fold of its new pairs' keys, which a peer whose kept
    /// openings differ cannot match — `None` where the round sends
    /// nothing. Without kept openings the cut is the plan's and the
    /// batch's alone, which the first pair and the slab length check.
    pub fn header(&self) -> Option<((u32, u32), u32)> {
        let lead = self
            .kept
            .iter()
            .enumerate()
            .take_while(|&(k, &(t, _))| k == t)
            .count();
        let first = *self.keys.get(lead)?;
        let fold = self.fresh[self.fresh_at..]
            .iter()
            .fold(0u64, |sum, &(_, key)| sum.wrapping_add(mix64(key)));
        Some((key_pair(first), (fold ^ fold >> 32) as u32))
    }

    /// Words the round walked last sends: its new pairs'.
    fn sends(&self) -> usize {
        self.keys.len() - self.kept.len()
    }

    /// The words the round sends, out of `masked`, this party's masking
    /// of every pair of the round: the new pairs', in slot order.
    /// (Without kept openings every pair is new, and `fresh` holds none
    /// of them.)
    pub fn new_words(&self, masked: &[u64]) -> Vec<u64> {
        if self.kept.is_empty() {
            return masked.to_vec();
        }
        let fresh = &self.fresh[self.fresh_at..];
        fresh.iter().map(|&(slot, _)| masked[slot - self.start]).collect()
    }

    /// The round's openings into `out`, by slot: the kept ones, and at
    /// the new pairs the sums of this party's masking (`masked`, every
    /// pair of the round) and the peer's sent words.
    pub fn openings(&self, masked: &[u64], theirs: &[u64], out: &mut Vec<u64>) {
        out.clear();
        let mut theirs = theirs.iter();
        let mut sums = |out: &mut Vec<u64>, end: usize| {
            let new = masked[out.len()..end].iter().zip(theirs.by_ref());
            out.extend(new.map(|(a, b)| a.wrapping_add(*b)));
        };
        let mut kept = &self.kept[..];
        while let Some(&(at, _)) = kept.first() {
            sums(out, at);
            // Kept pairs come in long runs of slots.
            let run = kept.iter().zip(at..).take_while(|&(&(t, _), slot)| t == slot).count();
            out.extend(kept[..run].iter().map(|&(_, e)| e));
            kept = &kept[run..];
        }
        sums(out, masked.len());
    }

    /// Checks the in-process opening of the round from both servers'
    /// maskings of every pair of it: every kept opening must be the one
    /// they recompute, `m₁ + m₂`.
    ///
    /// # Panics
    /// Panics at the first kept pair opened at another value.
    pub fn check_kept(&self, [m1, m2]: [&[u64]; 2]) {
        for &(at, e) in &self.kept {
            assert_eq!(
                m1[at].wrapping_add(m2[at]),
                e,
                "the pair at slot {} reopens at another value",
                self.start + at
            );
        }
    }

    /// The new pairs the phase walked, by slot and key, where the run
    /// keeps openings: what [`OpenedPairs::record`] keeps once the Count
    /// has returned.
    pub fn into_fresh(self) -> Vec<(usize, u64)> {
        self.fresh
    }
}

/// Appends the [`pair_key`]s of `pairs`' slots `range` to `keys` and,
/// where `bits` is given, their plaintext bits to `plain`, row run by
/// row run. The one place a Count reads a plaintext adjacency bit: S₂'s
/// input to its pair masking (S₁ passes no bits).
fn read_pairs<B: AdjacencyBits>(
    pairs: &PairSet,
    range: Range<usize>,
    bits: Option<&B>,
    keys: &mut Vec<u64>,
    plain: &mut Vec<u64>,
) {
    pairs.for_each_run(range, |_, i, j, len| {
        let key = pair_key(i, j);
        keys.extend((0..len as u64).map(|t| key.wrapping_add(t.wrapping_mul(PAIR_KEY_STEP))));
        if let Some(bits) = bits {
            let at = plain.len();
            plain.resize(at + len, 0);
            bits.fill_bits(i as usize, j as usize, &mut plain[at..]);
        }
    });
}

/// The SplitMix64 finaliser: a round's header folds its new pairs'
/// keys through it, because keys along a row are evenly spaced and a
/// plain sum of them would not tell two sets of one sum apart.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_graph::BitMatrix;
    use std::ops::Range;
    use std::sync::Arc;

    /// The cube of five in rounds of `batch`: slots 0 .. 10 are (0, 1)
    /// (0, 2) (0, 3) (0, 4) (1, 2) (1, 3) (1, 4) (2, 3) (2, 4) (3, 4).
    fn cube5(batch: usize) -> (CountScheduler, Arc<PairSet>) {
        let sched = CountScheduler::new(5, 1, batch);
        let pairs = sched.pair_set();
        (sched, pairs)
    }

    /// The cube's pairs at `slots` kept under seed 1, at the openings
    /// `100 + slot`.
    fn kept(slots: &[usize]) -> OpenedPairs {
        let (sched, pairs) = cube5(1);
        let mut at = Vec::new();
        pairs.for_each_run(0..pairs.len(), |slot, i, j, len| {
            at.extend((0..len).map(|t| (slot + t, pair_key(i, j + t as u32))));
        });
        let fresh: Vec<_> = slots.iter().map(|&slot| at[slot]).collect();
        let mut kept = OpenedPairs::new(1, sched.n());
        kept.record(&fresh, &(100..110).collect::<Vec<_>>());
        kept
    }

    /// The cube's slots 0, 3, 4, 7 and 8 kept, so 1, 2, 5, 6 and 9 are
    /// new.
    const KEPT: [usize; 5] = [0, 3, 4, 7, 8];

    /// Each round's slots, new pairs and header pair.
    type Cut = Vec<(Range<usize>, u64, Option<(u32, u32)>)>;

    fn cut<B: AdjacencyBits>(phase: &mut PairPhase<B>) -> Cut {
        let mut rounds = Vec::new();
        let mut exchanged = 0;
        while let Some(r) = phase.next_round() {
            assert_eq!(r as usize, rounds.len(), "rounds count on");
            let new = phase.exchanged() - std::mem::replace(&mut exchanged, phase.exchanged());
            let slots = phase.start..phase.start + phase.read().0.len();
            rounds.push((slots, new, phase.header().map(|(pair, _)| pair)));
        }
        rounds
    }

    fn cube_cut(batch: usize, opened: Option<&OpenedPairs>) -> Cut {
        let (sched, pairs) = cube5(batch);
        cut(&mut PairPhase::<BitMatrix>::new(
            (&sched, &pairs),
            None,
            (1, opened),
        ))
    }

    #[test]
    fn without_kept_openings_every_batch_of_slots_is_a_round() {
        let cube = cube_cut(4, None);
        assert_eq!(
            cube,
            [
                (0..4, 4, Some((0, 1))),
                (4..8, 4, Some((1, 2))),
                (8..10, 2, Some((2, 4)))
            ]
        );
        // An empty cache cuts the same rounds.
        assert_eq!(cube_cut(4, Some(&kept(&[]))), cube);
        let (sched, pairs) = cube5(4);
        let mut phase = PairPhase::<BitMatrix>::new((&sched, &pairs), None, (1, None));
        phase.next_round();
        assert_eq!(
            (phase.read().0.len(), phase.read().1.len()),
            (4, 0),
            "S1 reads no bit"
        );
        assert_eq!(phase.new_words(&[1, 2, 3, 4]), [1, 2, 3, 4], "every word is sent");
        assert!(
            phase.into_fresh().is_empty(),
            "nothing to keep where the run keeps nothing"
        );
    }

    #[test]
    fn with_kept_openings_a_round_ends_at_its_last_new_pair() {
        let kept = kept(&KEPT);
        let rounds = [
            (0..3, 2, Some((0, 2))),
            (3..7, 2, Some((1, 3))),
            (7..10, 1, Some((3, 4))),
        ];
        assert_eq!(
            cube_cut(2, Some(&kept)),
            rounds,
            "each round headed by its first new pair"
        );
        assert_eq!(cube_cut(8, Some(&kept)), [(0..10, 5, Some((0, 2)))]);
        // A last round of kept pairs alone is masked and sends nothing.
        let tail = [
            (0..5, 4, Some((0, 2))),
            (5..9, 4, Some((1, 3))),
            (9..10, 0, None),
        ];
        assert_eq!(cube_cut(4, Some(&self::kept(&[0, 9]))), tail);
        // Every pair kept: one round that sends nothing; no pair, no round.
        let all = self::kept(&(0..10).collect::<Vec<_>>());
        assert_eq!(cube_cut(2, Some(&all)), [(0..10, 0, None)]);
        let none = CountScheduler::new(2, 1, 0);
        let empty = none.pair_set();
        let mut phase = PairPhase::<BitMatrix>::new((&none, &empty), None, (1, None));
        assert_eq!(phase.next_round(), None);
    }

    #[test]
    fn a_round_sends_its_new_words_and_opens_the_kept_ones_from_the_cache() {
        let ((sched, pairs), mut kept) = (cube5(2), kept(&KEPT));
        let mut phase = PairPhase::<BitMatrix>::new((&sched, &pairs), None, (1, Some(&kept)));
        phase.next_round();
        phase.next_round();
        assert_eq!(phase.read().0.len(), 4, "every slot of the round is masked");
        let masked = [13, 14, 15, 16];
        assert_eq!(phase.new_words(&masked), [15, 16]);
        let mut opened = Vec::new();
        phase.openings(&masked, &[1, 2], &mut opened);
        assert_eq!(opened, [103, 104, 16, 18]);
        phase.check_kept([&[100, 100, 15, 16], &[3, 4, 1, 2]]);
        while phase.next_round().is_some() {}
        let fresh = phase.into_fresh();
        let new: Vec<_> = fresh
            .iter()
            .map(|&(slot, key)| (slot, key_pair(key)))
            .collect();
        assert_eq!(
            new,
            [
                (1, (0, 2)),
                (2, (0, 3)),
                (5, (1, 3)),
                (6, (1, 4)),
                (9, (3, 4))
            ]
        );
        kept.record(&fresh, &(0..10).collect::<Vec<_>>());
        assert_eq!(kept.len(), 10);
        assert_eq!(
            [(0, 1), (0, 2), (1, 3), (3, 4)].map(|(i, j)| kept.get(i, j)),
            [100, 1, 5, 9].map(Some)
        );
    }

    #[test]
    fn a_peer_keeping_one_more_pair_folds_its_round_differently() {
        // A party that keeps (0, 3) on top of the other's kept pairs
        // walks one slot further for the same two new words under the
        // same first pair: only the fold of the round's keys differs.
        let headers = |kept: &OpenedPairs| {
            let (sched, pairs) = cube5(2);
            let mut phase = PairPhase::<BitMatrix>::new((&sched, &pairs), None, (1, Some(kept)));
            phase.next_round();
            phase.header().unwrap()
        };
        let ((pair, fold), (more_pair, more_fold)) =
            (headers(&kept(&[0])), headers(&kept(&[0, 2])));
        assert_eq!((pair, more_pair), ((0, 2), (0, 2)));
        assert_ne!(fold, more_fold);
        assert_eq!(headers(&kept(&[0])).1, fold, "one cut, one fold");
        // Keys along a row are evenly spaced: {3, 6} and {4, 5} sum alike
        // and must not fold alike.
        let fold_of = |cols: [u32; 2]| {
            cols.map(|j| mix64(pair_key(7, j)))
                .iter()
                .fold(0u64, |s, &m| s.wrapping_add(m))
        };
        assert_ne!(fold_of([3, 6]), fold_of([4, 5]));
    }

    #[test]
    #[should_panic(expected = "the pair at slot 4 reopens at another value")]
    fn a_kept_opening_that_reopens_differently_is_refused() {
        let ((sched, pairs), kept) = (cube5(2), kept(&KEPT));
        let mut phase = PairPhase::<BitMatrix>::new((&sched, &pairs), None, (1, Some(&kept)));
        phase.next_round();
        phase.next_round();
        phase.check_kept([&[100, 100, 15, 16], &[3, 5, 1, 2]]);
    }

    #[test]
    #[should_panic(
        expected = "pair (1, 2) was opened at 1 by an earlier Count of the run and reads 0"
    )]
    fn a_kept_pair_whose_bit_reads_zero_is_refused() {
        let ((sched, pairs), kept) = (cube5(2), kept(&KEPT));
        let mut m = BitMatrix::zeros(5);
        (0..5).for_each(|u| (0..5).filter(|&v| v != u).for_each(|v| m.set(u, v, true)));
        m.set(1, 2, false);
        let mut phase = PairPhase::new((&sched, &pairs), Some(&m), (1, Some(&kept)));
        while phase.next_round().is_some() {}
    }

    #[test]
    #[should_panic(expected = "cannot serve a Count under 0x2")]
    fn openings_serve_only_their_own_count_seed() {
        let ((sched, pairs), kept) = (cube5(2), kept(&KEPT));
        PairPhase::<BitMatrix>::new((&sched, &pairs), None, (2, Some(&kept)));
    }

    #[test]
    #[should_panic(expected = "openings kept over 6 vertices cannot serve a Count over 5")]
    fn openings_serve_only_their_own_vertex_count() {
        let (sched, pairs) = cube5(2);
        let kept = OpenedPairs::new(1, 6);
        PairPhase::<BitMatrix>::new((&sched, &pairs), None, (1, Some(&kept)));
    }

    #[test]
    fn pairs_kept_in_any_order_across_words_are_found() {
        let mut kept = OpenedPairs::new(1, 140);
        let fresh = [
            (70, (3, 70)),
            (3, (3, 4)),
            (65, (3, 65)),
            (4, (0, 4)),
            (130, (3, 130)),
            (5, (3, 5)),
        ];
        let fresh = fresh.map(|(slot, (i, j))| (slot, pair_key(i, j)));
        kept.record(&fresh, &(100..240).collect::<Vec<_>>());
        kept.record(
            &[(0, pair_key(131, 139)), (1, pair_key(3, 64))],
            &[231, 164],
        );
        let held: Vec<_> = (0..140)
            .filter_map(|j| kept.get(3, j).map(|e| (j, e)))
            .collect();
        assert_eq!(
            held,
            [
                (4, 103),
                (5, 105),
                (64, 164),
                (65, 165),
                (70, 170),
                (130, 230)
            ]
        );
        let others = [(0, 4), (131, 139), (139, 131), (200, 1), (3, 900), (3, 3)];
        assert_eq!(
            others.map(|(i, j)| kept.get(i, j)),
            [Some(104), Some(231), None, None, None, None]
        );
        assert_eq!(kept.len(), 8);
    }
}
