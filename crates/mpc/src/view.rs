//! Semi-honest security: real views vs simulated views.
//!
//! Definition 6 of the paper: a protocol is secure if each server's
//! real view is computationally indistinguishable from the output of a
//! simulator that sees only public information. For the additive-
//! sharing protocols here the argument is information-theoretic — every
//! message a server receives is one-time-padded by fresh uniform
//! randomness — so the simulator just emits uniform ring elements.
//!
//! This module makes that argument *testable*: [`record_mul3_view`]
//! captures exactly the messages S₁ receives during a three-value
//! multiplication, [`simulate_mul3_view`] emits the simulator's version,
//! and the tests compare the two distributions with a chi-square
//! statistic over value buckets. A Count keys its masks by pair, so its
//! online view is one opening per pair, not three per triple:
//! [`record_pair_view`] is what S₁ receives over a Count's pair rounds
//! and [`simulate_pair_view`] its simulator — one uniform word per
//! pair, however many triples read the pair. [`record_offline_view`] is
//! what each server receives in OT mode's offline dialogue — S₁ the key
//! columns, S₂ the corrections and the derandomisation offsets — each
//! one-time-padded by the peer's PRG outputs or hashes. It is not a proof (the code cannot
//! prove indistinguishability) but it pins the implementation to the
//! structure the proof relies on: received messages carry no input
//! dependence.

use crate::dealer::Dealer;
use crate::offline::{draw_tables, pair_offline_in_process, MgDraw, UNITS_PER_PAIR};
use crate::ot::packed_words;
use crate::prg::SplitMix64;
use crate::ring::Ring64;
use crate::triple_mul::{mask_round, pair_key, PairTable};
use crate::ServerId;

/// The messages server S₁ receives while multiplying three shared
/// secrets: its MG share arrival is offline; online it receives S₂'s
/// shares of the maskings `e, f, g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mul3View {
    /// S₂'s share of `e = a − x` as received on the wire.
    pub e2: Ring64,
    /// S₂'s share of `f = b − y`.
    pub f2: Ring64,
    /// S₂'s share of `g = c − z`.
    pub g2: Ring64,
}

/// Runs the masking phase of the real protocol on secrets `(a, b, c)`
/// and returns what S₁ receives.
pub fn record_mul3_view(a: Ring64, b: Ring64, c: Ring64, dealer: &mut Dealer) -> Mul3View {
    let pa = dealer.share(a);
    let pb = dealer.share(b);
    let pc = dealer.share(c);
    let (_mg1, mg2) = dealer.mul_group();
    Mul3View {
        e2: pa.s2 - mg2.x,
        f2: pb.s2 - mg2.y,
        g2: pc.s2 - mg2.z,
    }
}

/// The simulator: knows nothing about `(a, b, c)`, outputs fresh
/// uniform ring elements.
pub fn simulate_mul3_view(rng: &mut SplitMix64) -> Mul3View {
    Mul3View {
        e2: rng.next_ring(),
        f2: rng.next_ring(),
        g2: rng.next_ring(),
    }
}

/// What server S₁ receives over a Count's pair rounds under the Count
/// seed `seed`: S₂'s masking `⟨e⟩₂ = ⟨a⟩₂ − λ⁽²⁾` of every pair, one
/// word per pair, computed by the Count's own [`mask_round`]. `pairs`
/// lists the pair set with each pair's adjacency bit.
pub fn record_pair_view(seed: u64, pairs: &[((u32, u32), u64)]) -> Vec<Ring64> {
    let keys: Vec<u64> = pairs.iter().map(|&((i, j), _)| pair_key(i, j)).collect();
    let bits: Vec<u64> = pairs.iter().map(|&(_, bit)| bit).collect();
    let mut words = vec![0; pairs.len()];
    mask_round(&mut PairTable::new(seed, ServerId::S2, false), &keys, &bits, &mut words);
    words.into_iter().map(Ring64).collect()
}

/// The pair-phase simulator: knows only the number of pairs (public —
/// the plan is), outputs one fresh uniform ring element per pair.
pub fn simulate_pair_view(pairs: usize, rng: &mut SplitMix64) -> Vec<Ring64> {
    (0..pairs).map(|_| rng.next_ring()).collect()
}

/// What each server receives in the offline dialogue of a Count in OT
/// mode ([`crate::offline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineView {
    /// S₁: S₂'s key columns `u`, every flight.
    pub key_columns: Vec<u64>,
    /// S₂: S₁'s packed correction words, the `M` elements' and the
    /// `W` elements'.
    pub corrections: Vec<u64>,
    /// S₂: S₁'s `P + 1` derandomisation offsets.
    pub offsets: Vec<u64>,
}

/// Runs the offline dialogue of the dense cube of `n` users under the
/// Count seed `seed` — both machines, messages passed between them — and
/// returns what each server receives.
pub fn record_offline_view(seed: u64, n: u32) -> OfflineView {
    let draws: Vec<MgDraw> = (0..n).flat_map(|i| (i + 1..n - 1).map(move |j| MgDraw::dense(i, j, n - 1 - j))).collect();
    let (mut tables, triples) = draw_tables(seed, &draws, 0);
    let mut view = OfflineView { key_columns: Vec::new(), corrections: Vec::new(), offsets: Vec::new() };
    let mut tail = Vec::new();
    pair_offline_in_process(&mut tables, &triples, |step, words| match step {
        1 => view.key_columns.extend_from_slice(words),
        2 => view.corrections.extend_from_slice(words),
        _ => tail.push(words.to_vec()),
    });
    let pairs = tables[0].len();
    let flights = tail.len();
    for (f, msg) in tail.into_iter().enumerate() {
        let span = (pairs - f * crate::MAX_FLIGHT_PAIRS).min(crate::MAX_FLIGHT_PAIRS);
        let (d, rest) = msg.split_at(packed_words(UNITS_PER_PAIR * span));
        view.corrections.extend_from_slice(d);
        let offsets = if f + 1 == flights { &rest[..rest.len() - 1] } else { rest };
        view.offsets.extend_from_slice(offsets);
    }
    view
}

/// Chi-square statistic comparing two samples of `u64` values bucketed
/// by their top `bits` bits. Returns `(statistic, degrees_of_freedom)`.
///
/// Used by tests to check real and simulated views are statistically
/// indistinguishable (statistic stays near its expectation under H₀).
pub fn chi_square_top_bits(xs: &[u64], ys: &[u64], bits: u32) -> (f64, usize) {
    assert!((1..=16).contains(&bits));
    let buckets = 1usize << bits;
    let mut cx = vec![0f64; buckets];
    let mut cy = vec![0f64; buckets];
    for &x in xs {
        cx[(x >> (64 - bits)) as usize] += 1.0;
    }
    for &y in ys {
        cy[(y >> (64 - bits)) as usize] += 1.0;
    }
    // Two-sample chi-square with equal-ish sample sizes.
    let kx = (ys.len() as f64 / xs.len() as f64).sqrt();
    let ky = 1.0 / kx;
    let mut stat = 0.0;
    for b in 0..buckets {
        let denom = cx[b] + cy[b];
        if denom > 0.0 {
            let d = kx * cx[b] - ky * cy[b];
            stat += d * d / denom;
        }
    }
    (stat, buckets - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects `n` real views of multiplying FIXED secrets and `n`
    /// simulated views; their distributions must match.
    fn views(n: usize, secrets: (u64, u64, u64)) -> (Vec<u64>, Vec<u64>) {
        let mut dealer = Dealer::new(0xFEED);
        let mut sim_rng = SplitMix64::new(0xBEEF);
        let mut real = Vec::with_capacity(3 * n);
        let mut sim = Vec::with_capacity(3 * n);
        for _ in 0..n {
            let v = record_mul3_view(
                Ring64(secrets.0),
                Ring64(secrets.1),
                Ring64(secrets.2),
                &mut dealer,
            );
            real.extend([v.e2.to_u64(), v.f2.to_u64(), v.g2.to_u64()]);
            let s = simulate_mul3_view(&mut sim_rng);
            sim.extend([s.e2.to_u64(), s.f2.to_u64(), s.g2.to_u64()]);
        }
        (real, sim)
    }

    #[test]
    fn real_view_is_statistically_indistinguishable_from_simulated() {
        let (real, sim) = views(4000, (1, 1, 1));
        let (stat, dof) = chi_square_top_bits(&real, &sim, 6);
        // Under H₀, E[stat] = dof = 63, sd ≈ sqrt(2·63) ≈ 11.2.
        // 5 sigma ≈ 120 as a deterministic-test threshold.
        assert!(
            stat < dof as f64 + 60.0,
            "chi-square {stat} too large for dof {dof}"
        );
    }

    #[test]
    fn views_do_not_depend_on_the_secrets() {
        // Views when multiplying (0,0,0) vs (1,1,1): same distribution.
        let (zeros, _) = views(4000, (0, 0, 0));
        let (ones, _) = views(4000, (1, 1, 1));
        let (stat, dof) = chi_square_top_bits(&zeros, &ones, 6);
        assert!(
            stat < dof as f64 + 60.0,
            "view distribution leaked the inputs: chi-square {stat}"
        );
    }

    /// The pairs of a 90-vertex cube, each with the bit `bit(i, j)`.
    fn cube_pairs(bit: impl Fn(u32, u32) -> u64) -> Vec<((u32, u32), u64)> {
        (0..90u32).flat_map(|i| (i + 1..90).map(move |j| (i, j))).map(|(i, j)| ((i, j), bit(i, j))).collect()
    }

    fn words(view: Vec<Ring64>) -> Vec<u64> {
        view.into_iter().map(Ring64::to_u64).collect()
    }

    #[test]
    fn a_count_s_pair_view_is_one_uniform_word_per_pair() {
        // 4 005 pairs, every bit 1: the words S₁ receives against the
        // simulator's, which knows nothing but the pair count.
        let pairs = cube_pairs(|_, _| 1);
        let real = words(record_pair_view(0xFEED, &pairs));
        assert_eq!(real.len(), pairs.len(), "one opening per pair");
        let sim = words(simulate_pair_view(pairs.len(), &mut SplitMix64::new(0xBEEF)));
        let (stat, dof) = chi_square_top_bits(&real, &sim, 6);
        assert!(stat < dof as f64 + 60.0, "chi-square {stat} too large for dof {dof}");
    }

    #[test]
    fn pair_views_do_not_depend_on_the_bits() {
        // An empty graph and a complete one, under the same seed: the
        // same distribution of received words.
        let zeros = words(record_pair_view(0xFEED, &cube_pairs(|_, _| 0)));
        let ones = words(record_pair_view(0xFEED, &cube_pairs(|_, _| 1)));
        let (stat, dof) = chi_square_top_bits(&zeros, &ones, 6);
        assert!(stat < dof as f64 + 60.0, "pair view leaked the bits: chi-square {stat}");
        // And a pair's word moves with its bit by exactly that bit: the
        // mask, not the input, is what the peer sees.
        let mixed = words(record_pair_view(0xFEED, &cube_pairs(|i, j| u64::from((i + j) % 3 == 0))));
        for (t, ((i, j), _)) in cube_pairs(|_, _| 0).into_iter().enumerate() {
            let bit = u64::from((i + j) % 3 == 0);
            assert_eq!(mixed[t], zeros[t].wrapping_add(bit), "pair ({i}, {j})");
        }
    }

    /// The bit position whose set fraction over `words` strays furthest
    /// from ½, and by how many standard deviations of a fair coin.
    fn worst_bit(words: &[u64]) -> (usize, f64) {
        let mut ones = [0u64; 64];
        for w in words {
            for (b, n) in ones.iter_mut().enumerate() {
                *n += (w >> b) & 1;
            }
        }
        let n = words.len() as f64;
        let z = |b: usize| (ones[b] as f64 - n / 2.0).abs() / (n.sqrt() / 2.0);
        (0..64).map(|b| (b, z(b))).max_by(|x, y| x.1.total_cmp(&y.1)).expect("64 bits")
    }

    #[test]
    fn the_offline_dialogue_s_views_are_uniform_words() {
        // Over several seeds, each message stream a server receives in
        // the offline dialogue against the simulator's uniform words of
        // the same length: the key columns S₁ sees, the packed
        // corrections and the P + 1 offsets S₂ sees. Besides the top
        // bits, every one of the 64 bit positions must be set in about
        // half the words of each stream: a dead bit anywhere in the
        // packing would show there.
        let mut views: Vec<OfflineView> = (0..6).map(|s| record_offline_view(0xFEED + s, 14)).collect();
        let pairs = 14 * 13 / 2;
        assert!(views.iter().all(|v| v.offsets.len() == pairs + 1), "one offset a pair and the Count's");
        let streams: [fn(&mut OfflineView) -> Vec<u64>; 3] = [
            |v| std::mem::take(&mut v.key_columns),
            |v| std::mem::take(&mut v.corrections),
            |v| std::mem::take(&mut v.offsets),
        ];
        let mut sim = SplitMix64::new(0xBEEF);
        for (what, stream) in ["key columns", "corrections", "offsets"].into_iter().zip(streams) {
            let real: Vec<u64> = views.iter_mut().flat_map(stream).collect();
            let uniform: Vec<u64> = (0..real.len()).map(|_| sim.next_u64()).collect();
            let bits = if real.len() < 4000 { 4 } else { 6 };
            let (stat, dof) = chi_square_top_bits(&real, &uniform, bits);
            let bound = dof as f64 + 5.0 * (2.0 * dof as f64).sqrt();
            assert!(stat < bound, "{what}: chi-square {stat} for dof {dof} over {} words", real.len());
            let (bit, z) = worst_bit(&real);
            assert!(z < 5.0, "{what}: bit {bit} is {z:.1} σ off ½ over {} words", real.len());
        }
    }

    #[test]
    fn the_per_bit_test_fails_a_zero_padded_correction_layout() {
        // The same corrections laid out 33 words an element — d_32 alone
        // in a word whose top 32 bits are zero — lose one word in 33 of
        // every top bit: the per-bit test must refuse that layout.
        let packed: Vec<u64> = (0..6).flat_map(|s| record_offline_view(0xFEED + s, 14).corrections).collect();
        let mut d = vec![0u64; packed.len() / crate::ot::PACKED_PAIR_WORDS * 128];
        crate::ot::unpack_corrections(&packed, &mut d);
        let padded: Vec<u64> = d
            .chunks_exact(64)
            .flat_map(|d| {
                let pairs = (1..32).map(move |j| d[j] | (d[64 - j] << (64 - j)));
                std::iter::once(d[0]).chain(pairs).chain([d[32]])
            })
            .collect();
        assert_eq!(padded.len(), 33 * d.len() / 64);
        assert!(worst_bit(&packed).1 < 5.0, "the packed layout passes");
        let (bit, z) = worst_bit(&padded);
        assert!(bit >= 32 && z > 5.0, "the padded layout fails: bit {bit} only {z:.1} σ off");
    }

    #[test]
    fn chi_square_detects_actually_different_distributions() {
        // Sanity: the statistic must blow up on a biased sample,
        // otherwise the two tests above are vacuous.
        let uniform: Vec<u64> = {
            let mut rng = SplitMix64::new(1);
            (0..4000).map(|_| rng.next_u64()).collect()
        };
        let biased: Vec<u64> = (0..4000u64).collect(); // all tiny
        let (stat, dof) = chi_square_top_bits(&uniform, &biased, 6);
        assert!(stat > 10.0 * dof as f64, "statistic failed to detect bias");
    }
}
