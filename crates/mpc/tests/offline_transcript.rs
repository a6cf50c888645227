//! Pins the OT offline dialogue's transcript: every word of every
//! message both party machines exchange, every message length, and S₂'s
//! material, folded into one digest and compared with a constant.
//!
//! The equivalence suites prove the *material* matches the dealer; this
//! pin also covers the wire words (key columns, corrections, tail
//! offsets, the digest), so a rewrite of the extension or of the Gilboa
//! products must keep every byte a peer sees identical. The plan covers
//! several key, correction and tail flights, runs at non-zero `k` offsets, flights of
//! a triple count that is not a multiple of the lane width, and a
//! one-triple Count.

use cargo_mpc::{
    mask_round, pair_flights, pair_key, push_triples, MgDraw, OfflineS1, OfflineS2, PairRun,
    PairTable, ServerId, SimdTier, MAX_FLIGHT_TRIPLES,
};

/// A word-by-word fold (SplitMix64's finaliser over a running state):
/// independent of the library's own hashes, so the pin cannot move with
/// them.
#[derive(Default)]
struct Fold(u64);

impl Fold {
    fn word(&mut self, w: u64) {
        let mut z = (self.0 ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn message(&mut self, words: &[u64]) {
        self.word(words.len() as u64);
        for &w in words {
            self.word(w);
        }
    }
}

/// Drives both machines of one Count over the triples of `plan`, in the
/// order a Count's machines exchange them, folding every
/// message and S₂'s material into `fold`. Returns the pairs, the
/// triples and the correction flights.
fn run_count(root: u64, plan: &[MgDraw], fold: &mut Fold) -> (usize, usize, usize) {
    let mut pairs: Vec<(u32, u32)> = plan
        .iter()
        .flat_map(|d| (0..d.groups as usize).flat_map(move |g| {
            let k = d.k_at(g) as u32;
            [(d.i, d.j), (d.i, k), (d.j, k)]
        }))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let slot = |p| pairs.binary_search(&p).unwrap();
    let (mut runs, mut at) = (Vec::new(), 0);
    for d in plan {
        let k = d.k_at(0) as u32;
        runs.push(PairRun { slots: [slot((d.i, d.j)), slot((d.i, k)), slot((d.j, k))], len: d.groups as usize, at });
        at += d.groups as usize;
    }
    let mut triples = Vec::new();
    push_triples(&runs, None, &mut triples);
    let keys: Vec<u64> = pairs.iter().map(|&(i, j)| pair_key(i, j)).collect();
    let opened: Vec<u64> = (0..keys.len() as u64).map(|w| w.wrapping_mul(0xD1B5_4A32_D192_ED03)).collect();
    let tables = [ServerId::S1, ServerId::S2].map(|s| {
        let mut table = PairTable::new(root, s, true);
        mask_round(&mut table, &keys, &opened, &mut vec![0; keys.len()]);
        table.push(&opened);
        table
    });
    let tier = SimdTier::detect();
    let mut s1 = OfflineS1::new(&tables[0], &triples);
    let mut s2 = OfflineS2::new(&tables[1], &triples);
    for _ in pair_flights(pairs.len()) {
        let u = s2.keys(tier);
        fold.message(&u);
        s1.absorb_keys(tier, &u).unwrap();
    }
    for flight in triples.chunks(MAX_FLIGHT_TRIPLES) {
        let d = s1.corrections(tier, flight);
        fold.message(&d);
        s2.receive(tier, flight, &d).unwrap();
    }
    for _ in pair_flights(pairs.len()) {
        let msg = s1.tail(tier);
        fold.message(&msg);
        s2.absorb_tail(tier, &msg).unwrap();
    }
    let (words, count) = s2.finish();
    fold.message(&words);
    fold.word(count);
    (pairs.len(), triples.len(), triples.len().div_ceil(MAX_FLIGHT_TRIPLES))
}

#[test]
fn offline_transcript_is_pinned() {
    let mut fold = Fold::default();
    let plan = [
        MgDraw { i: 1, j: 4, start: 7, groups: 301 },
        MgDraw { i: 2, j: 5, start: 3, groups: 206 },
        MgDraw { i: 9, j: 11, start: 0, groups: 14 },
        MgDraw { i: 3, j: 8, start: 40, groups: 99 },
        MgDraw { i: 6, j: 7, start: 1, groups: 406 },
        MgDraw { i: 6, j: 9, start: 2, groups: 3 },
    ];
    // Three key and tail flights of pairs, two correction flights, the
    // last of an odd number of triples.
    assert_eq!(run_count(0x0FF1_1E5E, &plan, &mut fold), (2057, 1029, 2));
    let tiny = [MgDraw { i: 0, j: 1, start: 11, groups: 1 }];
    assert_eq!(run_count(77, &tiny, &mut fold), (3, 1, 1));
    assert_eq!(fold.0, 0xe3f3_1b0a_2733_6f59, "offline transcript digest {:#018x}", fold.0);
}
