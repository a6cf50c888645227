//! Pins the OT offline dialogue's transcript: every word of every
//! message both party machines exchange, every message length, and both
//! parties' Multiplication Groups, folded into one digest and compared
//! with a constant.
//!
//! The equivalence suites prove the *groups* match the dealer; this pin
//! also covers the wire words (extension columns, corrections,
//! derandomisation offsets, digests), so a rewrite of the extension or
//! of the Gilboa steps must keep every byte a peer sees identical. The
//! plans cover several flights of one session, draws at non-zero
//! canonical offsets, flights whose choice-word count is not a multiple
//! of the 8-word lane block (odd group counts), one larger than a
//! 64-word slab, and a one-group flight of 4 words (tail only).

use cargo_mpc::{plan_flights, MgDraw, MgOfflineS1, MgOfflineS2, MulGroupShare};

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

    fn groups(&mut self, groups: &[MulGroupShare]) {
        self.word(groups.len() as u64);
        for g in groups {
            for v in [g.x, g.y, g.z, g.o, g.p, g.q, g.w] {
                self.word(v.0);
            }
        }
    }
}

/// Drives both machines of one session over `plan`, flight by flight,
/// in the order `mg_offline_over_wire` interleaves them, folding every
/// message and both parties' groups into `fold`. Returns the flight
/// sizes in groups.
fn run_session(root: u64, session: u64, plan: &[MgDraw], fold: &mut Fold) -> Vec<u64> {
    let mut s1 = MgOfflineS1::for_chunk(root, session);
    let mut s2 = MgOfflineS2::for_chunk(root, session);
    let mut sizes = Vec::new();
    for range in plan_flights(plan) {
        let flight = &plan[range];
        sizes.push(flight.iter().map(|d| u64::from(d.groups)).sum());
        let u1 = s1.ucols(flight);
        let u2 = s2.ucols(flight);
        let d_a = s1.corrections(&u2);
        let d_b = s2.corrections(&u1);
        let c_opq = s1.derand_opq(&d_b);
        s2.absorb_corrections(&d_a);
        let d_b4 = s2.corrections_w(&c_opq);
        let c_w = s1.derand_w(&d_b4);
        for msg in [&u1, &u2, &d_a, &d_b, &c_opq, &d_b4, &c_w] {
            fold.message(msg);
        }
        fold.groups(&s1.groups());
        fold.groups(&s2.groups(&c_w));
    }
    sizes
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
    let sizes = run_session(0x0FF1_1E5E, 5, &plan, &mut fold);
    // Three flights, each an odd number of groups (4·g choice words,
    // not a multiple of 8), the first spanning several 64-word slabs.
    assert_eq!(sizes, vec![507, 113, 409]);
    let tiny = [MgDraw { i: 0, j: 1, start: 11, groups: 1 }];
    assert_eq!(run_session(77, 2, &tiny, &mut fold), vec![1]);
    assert_eq!(fold.0, 0x2e70_0194_1f48_d17e, "offline transcript digest {:#018x}", fold.0);
}
