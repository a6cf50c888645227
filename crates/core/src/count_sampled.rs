//! Sampled secure counting: trading accuracy for the O(n³) cost.
//!
//! The paper's conclusion names the `O(n³)` online cost of `Count` as
//! CARGO's main overhead (Fig. 12: ≥90% of the runtime). A standard
//! remedy from the (plaintext) triangle-counting literature — and the
//! direction of the authors' follow-up work on communication-efficient
//! protocols — is *triple sampling*: evaluate each triple independently
//! with probability `q` (a public coin, so no privacy is consumed) and
//! release `T̂ = (Σ sampled products)/q`.
//!
//! The estimator is unbiased with variance `T·(1−q)/q` — for
//! `q = 0.1`, ~9·T, which is far below the DP noise variance
//! `2(d'_max/ε₂)²` whenever `T ≪ (d'_max/ε₂)²`/5 — while cutting the
//! online multiplications, dealer material, and communication by
//! `1/q`.
//!
//! There is no sampled executor. The coin is a **filter on the
//! scheduler's pair walk** (the crate-private `TripleSampler`,
//! installed by [`count_sampled`] and reachable no other way): each
//! pair's public `k`-list is thinned by the pair's coin stream, the
//! survivors keep their canonical dealer offsets `k − j − 1`, and the
//! very workers of [`crate::count::count_local`] run over the thinned
//! plan. Thread count, batch and offline mode therefore behave
//! exactly as they do for the exact count, and at `rate = 1` the plan —
//! hence the share pair and the ledger — *is* the exact count's.
//!
//! Privacy note: the *sensitivity* of the scaled estimator grows to
//! `d'_max/q` in the worst case (an edge's triangles could all be
//! sampled), so callers keep ε-DDP by scaling the perturbation noise
//! with `1/q`. [`sampled_sensitivity`] returns that adjusted
//! sensitivity; the net effect (noise ×1/q vs time ×q) is the knob the
//! extension benchmarks sweep.

use crate::count::{run_scheduled, CountJob};
use cargo_graph::BitMatrix;
use cargo_mpc::{NetStats, Ring64, SimdTier, SplitMix64};

/// Result of the sampled secure count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledCountResult {
    /// Server shares of the *raw* sampled sum (unscaled).
    pub share1: Ring64,
    /// Second share.
    pub share2: Ring64,
    /// The public sampling rate used.
    pub rate: f64,
    /// Number of triples actually evaluated.
    pub evaluated: u64,
    /// Total triples in the cube.
    pub total_triples: u64,
    /// Online communication.
    pub net: NetStats,
}

impl SampledCountResult {
    /// Reconstructs the raw sampled sum.
    pub fn reconstruct_raw(&self) -> Ring64 {
        self.share1 + self.share2
    }

    /// The unbiased (Horvitz–Thompson) estimate `raw / rate`.
    pub fn estimate(&self) -> f64 {
        self.reconstruct_raw().to_i64() as f64 / self.rate
    }

    /// Variance of the sampling estimator given the true count `t`:
    /// `t · (1 − q)/q`.
    pub fn sampling_variance(t: f64, rate: f64) -> f64 {
        t * (1.0 - rate) / rate
    }
}

/// Worst-case Edge-DP sensitivity of the scaled estimator: one edge
/// participates in ≤ `d'_max` triangles, each inflated by `1/q` if
/// sampled — the conservative bound is `d'_max/q`.
pub fn sampled_sensitivity(d_max_noisy: f64, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate <= 1.0);
    d_max_noisy.max(1.0) / rate
}

/// The public sampling coin as a filter on the scheduler's pair walk:
/// triple `(i, j, k)` is kept iff the `(k − j − 1)`-th output of pair
/// `(i, j)`'s coin stream is at most `rate · 2⁶⁴`. Both servers derive
/// the same streams from the job seed; the coin is data-independent, so
/// it consumes no privacy budget and a sampled plan leaks nothing the
/// unsampled plan does not.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TripleSampler {
    seed: u64,
    /// Public threshold on the coin PRG's `u64` output.
    threshold: u64,
}

impl TripleSampler {
    pub(crate) fn new(seed: u64, rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "rate in (0,1]");
        TripleSampler { seed, threshold: (rate * u64::MAX as f64) as u64 }
    }

    /// The sampled subset of pair `(i, j)`'s scheduled `k`s — `cand`,
    /// or every `k` in `j+1..n` on the dense cube — compacted into the
    /// front of `scratch`. Every coin is drawn at its dense stream
    /// position whatever the plan, so the per-triple decision is
    /// schedule-invariant: a sparse plan's sample is *dense sample ∩
    /// candidate list*.
    pub(crate) fn sample<'a>(
        &self,
        i: u32,
        j: u32,
        n: usize,
        cand: Option<&[u32]>,
        scratch: &'a mut Vec<u32>,
    ) -> &'a [u32] {
        let mut coin = pair_coin(self.seed, i, j);
        let mut sampled = || (coin.next_u64() <= self.threshold) as usize;
        let span = n - j as usize - 1;
        if scratch.len() < span {
            scratch.resize(span, 0);
        }
        // Branch-free compaction — every k is written, the length moves
        // only past a keeper: a fair coin would mispredict every other k.
        let (mut len, mut c) = (0, 0);
        for k in (j + 1)..(n as u32) {
            scratch[len] = k;
            len += match cand {
                None => sampled(),
                Some(cand) => {
                    // The coin advances for unscheduled k too.
                    let scheduled = (cand.get(c) == Some(&k)) as usize;
                    c += scheduled;
                    sampled() & scheduled
                }
            };
        }
        &scratch[..len]
    }
}

/// The coin stream of pair `(i, j)`, domain-separated from the dealer
/// and share PRFs.
#[inline]
pub(crate) fn pair_coin(seed: u64, i: u32, j: u32) -> SplitMix64 {
    let pair = ((i as u64) << 32) | j as u64;
    SplitMix64::new(seed ^ pair.wrapping_mul(0xEB44ACCAB455D165) ^ 0x5851F42D4C957F2D)
}

/// Runs the sampled variant of Algorithm 4 under `job`: every triple
/// the job's plan schedules is included with independent public
/// probability `rate` (coins derived from `job.seed`, known to both
/// servers). It is [`crate::count::count_local`] over the filtered
/// plan: a triple surviving the coin contributes the same share pair
/// it would in the exact count under any plan that schedules it, OT
/// mode preprocesses exactly the sampled Multiplication Groups in the
/// chunk-amortised sessions, and the estimate, the share pair and the
/// ledger are invariant across `threads × batch` and offline modes.
///
/// `evaluated` counts the triples that survived; `total_triples` is
/// the unfiltered schedule's.
pub fn count_sampled(matrix: &BitMatrix, rate: f64, job: &CountJob) -> SampledCountResult {
    let sampler = TripleSampler::new(job.seed, rate);
    let sched = job.local_scheduler(matrix.n()).sampled(sampler);
    let sum = run_scheduled(matrix, job, &sched, SimdTier::detect());
    SampledCountResult {
        share1: sum.share1,
        share2: sum.share2,
        rate,
        evaluated: sum.triples,
        total_triples: sched.total_triples(),
        net: sum.net,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_local;
    use cargo_graph::count_triangles_matrix;
    use cargo_graph::generators::{barabasi_albert, erdos_renyi};
    use cargo_mpc::OfflineMode;

    fn job(seed: u64, threads: usize, batch: usize) -> CountJob {
        CountJob { threads, batch, ..CountJob::new(seed) }
    }

    #[test]
    fn rate_one_is_exact() {
        let g = erdos_renyi(60, 0.2, 1);
        let m = g.to_bit_matrix();
        let res = count_sampled(&m, 1.0, &job(3, 2, 0));
        assert_eq!(
            res.reconstruct_raw(),
            Ring64(count_triangles_matrix(&m))
        );
        assert_eq!(res.evaluated, res.total_triples);
        assert_eq!(res.estimate(), count_triangles_matrix(&m) as f64);
        // At rate 1 the streams are consumed exactly as the exact
        // kernel consumes them: the share PAIRS coincide, not just the
        // reconstruction.
        let exact = count_local(&m, &job(3, 2, 0));
        assert_eq!(res.share1, exact.share1);
        assert_eq!(res.share2, exact.share2);
        assert_eq!(res.net, exact.net);
    }

    #[test]
    fn estimator_is_unbiased_across_seeds() {
        let g = barabasi_albert(120, 6, 2);
        let m = g.to_bit_matrix();
        let t = count_triangles_matrix(&m) as f64;
        let rate = 0.2;
        let trials = 40;
        let mean: f64 = (0..trials)
            .map(|s| count_sampled(&m, rate, &job(1000 + s, 4, 0)).estimate())
            .sum::<f64>()
            / trials as f64;
        // sd of the mean ≈ sqrt(T(1-q)/q / trials) ≈ sqrt(4T/40).
        let sd = (SampledCountResult::sampling_variance(t, rate) / trials as f64).sqrt();
        assert!(
            (mean - t).abs() < 5.0 * sd + 1.0,
            "mean {mean} vs true {t} (sd {sd})"
        );
    }

    #[test]
    fn evaluated_fraction_matches_rate() {
        let g = erdos_renyi(100, 0.1, 3);
        let res = count_sampled(&g.to_bit_matrix(), 0.25, &job(7, 2, 0));
        let frac = res.evaluated as f64 / res.total_triples as f64;
        assert!((frac - 0.25).abs() < 0.01, "sampled fraction {frac}");
        // Communication is one opening each way a pair the sampled
        // triples read.
        let sched = job(7, 2, 0).local_scheduler(100).sampled(TripleSampler::new(7, 0.25));
        assert_eq!(res.net.elements, 2 * sched.pair_set().len() as u64);
    }

    #[test]
    fn threads_and_batch_do_not_change_the_estimate() {
        let g = erdos_renyi(80, 0.15, 11);
        let m = g.to_bit_matrix();
        let base = count_sampled(&m, 0.3, &job(5, 1, 1));
        for (threads, batch) in [(1usize, 64usize), (2, 7), (4, 1), (4, 64)] {
            let r = count_sampled(&m, 0.3, &job(5, threads, batch));
            assert_eq!(r.share1, base.share1, "t={threads} b={batch}");
            assert_eq!(r.share2, base.share2, "t={threads} b={batch}");
            assert_eq!(r.evaluated, base.evaluated, "t={threads} b={batch}");
            assert_eq!(r.net.elements, base.net.elements, "t={threads} b={batch}");
        }
    }

    #[test]
    fn sampling_cuts_work_and_inflates_noise_as_documented() {
        // The trade-off statement: time ∝ q, sensitivity ∝ 1/q.
        assert_eq!(sampled_sensitivity(100.0, 0.1), 1000.0);
        assert_eq!(sampled_sensitivity(100.0, 1.0), 100.0);
        let var_full = SampledCountResult::sampling_variance(1000.0, 1.0);
        assert_eq!(var_full, 0.0);
        assert!(SampledCountResult::sampling_variance(1000.0, 0.1) > 0.0);
    }

    #[test]
    fn ot_mode_matches_dealer_mode_on_the_sampled_estimator() {
        let g = erdos_renyi(40, 0.2, 6);
        let m = g.to_bit_matrix();
        for rate in [0.3, 1.0] {
            let dealer = count_sampled(&m, rate, &job(7, 1, 8));
            let ot = count_sampled(
                &m,
                rate,
                &CountJob { offline: OfflineMode::OtExtension, ..job(7, 1, 8) },
            );
            // One opened estimate; the share pairs differ by design
            // (dealer words per pair, OT groups per triple).
            assert_eq!(ot.reconstruct_raw(), dealer.reconstruct_raw(), "rate {rate}");
            assert_eq!(ot.evaluated, dealer.evaluated);
            assert_eq!(ot.net.online(), dealer.net, "online ledgers equal");
            assert_eq!(
                ot.net.offline.extended_ots,
                512 * dealer.evaluated,
                "one block per sampled triple"
            );
            assert_eq!(ot.net.offline.base_ots, 256);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = erdos_renyi(80, 0.15, 5);
        let m = g.to_bit_matrix();
        let a = count_sampled(&m, 0.3, &job(11, 3, 0));
        let b = count_sampled(&m, 0.3, &job(11, 3, 0));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn zero_rate_panics() {
        count_sampled(&BitMatrix::zeros(4), 0.0, &CountJob::new(1));
    }
}
