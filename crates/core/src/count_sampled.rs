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
//! `1/q`. This module implements the sampled variant of Algorithm 4
//! over the same per-pair share/dealer streams as the exact count
//! (routed through the shared [`CountScheduler`], so thread count and
//! batch size never change the estimate) and quantifies the trade-off
//! in tests and benches. At `rate = 1` it consumes the streams exactly
//! as the exact kernel does and reproduces its share pair bit for bit.
//!
//! Privacy note: the *sensitivity* of the scaled estimator grows to
//! `d'_max/q` in the worst case (an edge's triangles could all be
//! sampled), so the perturbation scale must use `Δ = d'_max · s/q`
//! where `s` is... — conservatively, callers keep ε-DDP by scaling the
//! noise with `1/q`. [`sampled_sensitivity`] returns that adjusted
//! sensitivity; the net effect (noise ×1/q vs time ×q) is the knob the
//! extension benchmarks sweep.

use crate::config::CountKernel;
use crate::count::{finish, CountJob};
use crate::count_sched::{push_runs, share_prf, CountScheduler, PairChunk};
use cargo_graph::BitMatrix;
use cargo_mpc::{
    mul3_combine, mul3_combine_batch, mul3_mask_batch, mul3_open_batch, split_mg_words, MgDraw,
    Mul3Opening, MulGroupShare, NetStats, OfflineMode, OtMgEngine, PairDealer, PoolStats, Ring64,
    ServerId, SplitMix64, MG_WORDS,
};

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

/// The public sampling coin for pair `(i, j)`: both servers derive the
/// same stream (the coin is data-independent, so it consumes no
/// privacy budget). Domain-separated from the dealer and share PRFs.
#[inline]
fn pair_coin(seed: u64, i: u32, j: u32) -> SplitMix64 {
    let pair = ((i as u64) << 32) | j as u64;
    SplitMix64::new(seed ^ pair.wrapping_mul(0xEB44ACCAB455D165) ^ 0x5851F42D4C957F2D)
}

/// Runs the sampled variant of Algorithm 4 under `job`: every triple
/// the job's plan schedules is included with independent public
/// probability `rate` (derived from `job.seed`, known to both
/// servers). Like the exact count, the estimate, the share pair and
/// the element counts are invariant across `threads × batch`, kernels
/// and offline modes.
///
/// * **OT mode** — the sampling coins are public, so both servers can
///   derive each pair's sampled count ahead of time and preprocess a
///   whole chunk's sampled Multiplication Groups in one amortised
///   extension session, exactly like the exact count with a sparser
///   plan.
/// * **Sparse plans** — sampling composes with a candidate schedule by
///   intersecting each pair's sampled `k` set with its public
///   candidate `k`-list. The per-`(i, j, k)` coin is drawn at the same
///   stream position under every plan, and every evaluated triple's
///   Multiplication Group comes from its canonical dealer offset, so a
///   triple surviving both filters contributes the same share pair it
///   would under dense sampling.
///
/// [`CountJob::pool`] and [`CountJob::tile_threshold`] are inert here.
pub fn count_sampled(matrix: &BitMatrix, rate: f64, job: &CountJob) -> SampledCountResult {
    assert!((0.0..=1.0).contains(&rate) && rate > 0.0, "rate in (0,1]");
    let seed = job.seed;
    let sched = job.local_scheduler(matrix.n());
    let parts = sched.run_chunks(|chunk| match (job.offline, job.kernel) {
        (OfflineMode::TrustedDealer, CountKernel::Scalar) => {
            sampled_chunk(matrix, seed, rate, &sched, chunk)
        }
        (OfflineMode::TrustedDealer, CountKernel::Bitsliced) => {
            sampled_chunk_batch(matrix, seed, rate, &sched, chunk)
        }
        (OfflineMode::OtExtension, kernel) => {
            sampled_chunk_ot(matrix, seed, rate, &sched, chunk, kernel)
        }
    });
    let sum = finish(&sched, job.offline, parts, PoolStats::default());
    SampledCountResult {
        share1: sum.share1,
        share2: sum.share2,
        rate,
        evaluated: sum.triples,
        total_triples: sched.total_triples(),
        net: sum.net,
    }
}

fn sampled_chunk(
    matrix: &BitMatrix,
    seed: u64,
    rate: f64,
    sched: &CountScheduler,
    chunk: &PairChunk,
) -> (Ring64, Ring64, NetStats, u64) {
    let n = sched.n();
    let batch = sched.batch();
    let mut t1 = 0u64;
    let mut t2 = 0u64;
    let mut net = NetStats::new();
    let mut evaluated = 0u64;
    // Public sampling threshold on the PRG's u64 output.
    let threshold = (rate * u64::MAX as f64) as u64;
    let mut words = [0u64; MG_WORDS];
    let mut ks: Vec<u32> = Vec::new();
    sched.for_each_pair(chunk, |i, j, cand| {
        let row_i = matrix.row(i);
        let row_j = matrix.row(j);
        let aij = row_i.get(j) as u64;
        let aij1 = share_prf(seed, i as u32, j as u32);
        let aij2 = aij.wrapping_sub(aij1);
        sampled_ks(seed, i as u32, j as u32, n, threshold, cand, &mut ks);
        if ks.is_empty() {
            return;
        }
        evaluated += ks.len() as u64;
        let mut dealer = PairDealer::for_pair(seed, i as u32, j as u32);
        // Canonical stream consumption: each sampled triple's group is
        // drawn at offset k − j − 1, skipping the unsampled gaps in
        // O(1) — so the same (i, j, k) yields the same group under
        // every sampling rate and schedule.
        let mut pos = 0usize;
        for &kk in &ks {
            let k = kk as usize;
            let off = k - j - 1;
            dealer.skip_groups(off - pos);
            pos = off + 1;
            dealer.fill_words(&mut words);
            let [x1, x2, y1, y2, z1, z2, o1, p1, q1, w1] = words;
            let x = x1.wrapping_add(x2);
            let y = y1.wrapping_add(y2);
            let z = z1.wrapping_add(z2);
            let o = x.wrapping_mul(y);
            let p = x.wrapping_mul(z);
            let q = y.wrapping_mul(z);
            let w = o.wrapping_mul(z);
            let aik = row_i.get(k) as u64;
            let aik1 = share_prf(seed, i as u32, k as u32);
            let aik2 = aik.wrapping_sub(aik1);
            let ajk = row_j.get(k) as u64;
            let ajk1 = share_prf(seed, j as u32, k as u32);
            let ajk2 = ajk.wrapping_sub(ajk1);
            let e = aij1.wrapping_sub(x1).wrapping_add(aij2.wrapping_sub(x2));
            let f = aik1.wrapping_sub(y1).wrapping_add(aik2.wrapping_sub(y2));
            let g = ajk1.wrapping_sub(z1).wrapping_add(ajk2.wrapping_sub(z2));
            let fg = f.wrapping_mul(g);
            let eg = e.wrapping_mul(g);
            let ef = e.wrapping_mul(f);
            t1 = t1
                .wrapping_add(w1)
                .wrapping_add(o1.wrapping_mul(g))
                .wrapping_add(p1.wrapping_mul(f))
                .wrapping_add(q1.wrapping_mul(e))
                .wrapping_add(x1.wrapping_mul(fg))
                .wrapping_add(y1.wrapping_mul(eg))
                .wrapping_add(z1.wrapping_mul(ef));
            t2 = t2
                .wrapping_add(w.wrapping_sub(w1))
                .wrapping_add(o.wrapping_sub(o1).wrapping_mul(g))
                .wrapping_add(p.wrapping_sub(p1).wrapping_mul(f))
                .wrapping_add(q.wrapping_sub(q1).wrapping_mul(e))
                .wrapping_add(x2.wrapping_mul(fg))
                .wrapping_add(y2.wrapping_mul(eg))
                .wrapping_add(z2.wrapping_mul(ef))
                .wrapping_add(ef.wrapping_mul(g));
        }
    });
    // The chunk's *sampled* triples are opened `batch` a round.
    net.exchange_triples(evaluated, batch as u64);
    (Ring64(t1), Ring64(t2), net, evaluated)
}

/// Draws pair `(i, j)`'s public sampling coins and collects the
/// sampled `k` indices — shared by every sampled path so the sample
/// set is identical across kernels and offline modes. When a public
/// candidate `k`-list is supplied (sparse schedule), the result is the
/// intersection *sampled ∩ candidate*: every coin is still drawn at
/// its dense stream position, so the per-triple decision is
/// schedule-invariant.
fn sampled_ks(
    seed: u64,
    i: u32,
    j: u32,
    n: usize,
    threshold: u64,
    cand: Option<&[u32]>,
    ks: &mut Vec<u32>,
) {
    ks.clear();
    let mut coin = pair_coin(seed, i, j);
    match cand {
        None => {
            for k in (j as usize + 1)..n {
                if coin.next_u64() <= threshold {
                    ks.push(k as u32);
                }
            }
        }
        Some(cks) => {
            let mut c = 0usize;
            for k in (j as usize + 1)..n {
                let sampled = coin.next_u64() <= threshold;
                if c < cks.len() && cks[c] as usize == k {
                    if sampled {
                        ks.push(k as u32);
                    }
                    c += 1;
                }
            }
        }
    }
}

/// [`CountKernel::Bitsliced`] sampled variant: the sampled `k` set of
/// each pair is collected first (the coin is public and cheap), each
/// block's Multiplication Groups are *gathered* from their canonical
/// dealer offsets, and the block is evaluated through the
/// structure-of-arrays [`mul3_mask_batch`]/[`mul3_combine_batch`]
/// kernels — identical stream positions, ledger, and shares to
/// [`sampled_chunk`].
fn sampled_chunk_batch(
    matrix: &BitMatrix,
    seed: u64,
    rate: f64,
    sched: &CountScheduler,
    chunk: &PairChunk,
) -> (Ring64, Ring64, NetStats, u64) {
    let n = sched.n();
    let batch = sched.batch();
    let mut t1 = Ring64::ZERO;
    let mut t2 = Ring64::ZERO;
    let mut net = NetStats::new();
    let mut evaluated = 0u64;
    let threshold = (rate * u64::MAX as f64) as u64;
    let mut ks: Vec<u32> = Vec::new();
    let mut words = [0u64; MG_WORDS];
    let mut g1v: Vec<MulGroupShare> = Vec::with_capacity(batch);
    let mut g2v: Vec<MulGroupShare> = Vec::with_capacity(batch);
    let mut b1 = vec![Ring64::ZERO; batch];
    let mut b2 = vec![Ring64::ZERO; batch];
    let mut c1 = vec![Ring64::ZERO; batch];
    let mut c2 = vec![Ring64::ZERO; batch];
    let mut mine = vec![0u64; 3 * batch];
    let mut theirs = vec![0u64; 3 * batch];
    let mut opened = vec![0u64; 3 * batch];
    sched.for_each_pair(chunk, |i, j, cand| {
        let row_i = matrix.row(i);
        let row_j = matrix.row(j);
        let aij = Ring64::from_bit(row_i.get(j));
        let aij1 = Ring64(share_prf(seed, i as u32, j as u32));
        let aij2 = aij - aij1;
        sampled_ks(seed, i as u32, j as u32, n, threshold, cand, &mut ks);
        if ks.is_empty() {
            return;
        }
        evaluated += ks.len() as u64;
        let mut dealer = PairDealer::for_pair(seed, i as u32, j as u32);
        let mut pos = 0usize;
        for blk in ks.chunks(batch) {
            let block = blk.len();
            // Gather the block's groups from their canonical offsets
            // (skipping unsampled gaps for free).
            g1v.clear();
            g2v.clear();
            for &kk in blk {
                let off = kk as usize - j - 1;
                dealer.skip_groups(off - pos);
                pos = off + 1;
                dealer.fill_words(&mut words);
                let (g1, g2) = split_mg_words(&words);
                g1v.push(g1);
                g2v.push(g2);
            }
            for (l, &kk) in blk.iter().enumerate() {
                let aik = Ring64::from_bit(row_i.get(kk as usize));
                let aik1 = Ring64(share_prf(seed, i as u32, kk));
                b1[l] = aik1;
                b2[l] = aik - aik1;
                let ajk = Ring64::from_bit(row_j.get(kk as usize));
                let ajk1 = Ring64(share_prf(seed, j as u32, kk));
                c1[l] = ajk1;
                c2[l] = ajk - ajk1;
            }
            let slab = 3 * block;
            mul3_mask_batch(aij1, &b1[..block], &c1[..block], &g1v, &mut mine[..slab]);
            mul3_mask_batch(aij2, &b2[..block], &c2[..block], &g2v, &mut theirs[..slab]);
            mul3_open_batch(&mine[..slab], &theirs[..slab], &mut opened[..slab]);
            t1 += mul3_combine_batch(&g1v, &opened[..slab], ServerId::S1);
            t2 += mul3_combine_batch(&g2v, &opened[..slab], ServerId::S2);
        }
    });
    net.exchange_triples(evaluated, batch as u64);
    (t1, t2, net, evaluated)
}

/// The OT-extension variant: identical sampling decisions and online
/// arithmetic, with the chunk's sampled Multiplication Groups
/// preprocessed by one chunk-amortised [`OtMgEngine`] session (the
/// plan lists each pair's sampled count, derivable by both servers
/// from the public coins).
fn sampled_chunk_ot(
    matrix: &BitMatrix,
    seed: u64,
    rate: f64,
    sched: &CountScheduler,
    chunk: &PairChunk,
    kernel: CountKernel,
) -> (Ring64, Ring64, NetStats, u64) {
    let n = sched.n();
    let batch = sched.batch();
    let mut t1 = Ring64::ZERO;
    let mut t2 = Ring64::ZERO;
    let mut net = NetStats::new();
    let mut evaluated = 0u64;
    let threshold = (rate * u64::MAX as f64) as u64;
    let mut ks: Vec<u32> = Vec::new();

    // Offline: derive the sampled plan from the public coins — keeping
    // each pair's sampled `k` set, so the coins are drawn once — and
    // preprocess the whole chunk in one amortised session. The plan
    // lists one draw per maximal contiguous sampled run, at its
    // canonical stream offset, so the engine derandomises onto exactly
    // the groups the dealer paths consume.
    let mut plan: Vec<MgDraw> = Vec::new();
    let mut entries: Vec<(u32, u32, Vec<u32>, std::ops::Range<usize>)> = Vec::new();
    sched.for_each_pair(chunk, |i, j, cand| {
        sampled_ks(seed, i as u32, j as u32, n, threshold, cand, &mut ks);
        if !ks.is_empty() {
            let d0 = plan.len();
            push_runs(&mut plan, i as u32, j as u32, &ks);
            entries.push((i as u32, j as u32, ks.clone(), d0..plan.len()));
        }
    });
    if plan.is_empty() {
        return (t1, t2, net, evaluated);
    }
    let mut engine = OtMgEngine::for_chunk(seed, chunk.id as u64);
    let material = engine.preprocess(&plan);
    net.offline.merge(&engine.ledger());

    let mut b1 = vec![Ring64::ZERO; batch];
    let mut b2 = vec![Ring64::ZERO; batch];
    let mut c1 = vec![Ring64::ZERO; batch];
    let mut c2 = vec![Ring64::ZERO; batch];
    let mut mine = vec![0u64; 3 * batch];
    let mut theirs = vec![0u64; 3 * batch];
    let mut opened = vec![0u64; 3 * batch];

    for (iu, ju, ks, drange) in &entries {
        let (i, j) = (*iu as usize, *ju as usize);
        let row_i = matrix.row(i);
        let row_j = matrix.row(j);
        evaluated += ks.len() as u64;
        let aij = Ring64::from_bit(row_i.get(j));
        let aij1 = Ring64(share_prf(seed, i as u32, j as u32));
        let aij2 = aij - aij1;
        // One pair's runs are consecutive plan entries, so its groups
        // are one contiguous material slice.
        let (g1s, g2s) = material.draws(drange.clone());
        let mut off = 0usize;
        for blk in ks.chunks(batch) {
            let block = blk.len();
            let g1b = &g1s[off..off + block];
            let g2b = &g2s[off..off + block];
            match kernel {
                CountKernel::Scalar => {
                    for (l, &kk) in blk.iter().enumerate() {
                        let (g1, g2) = (&g1b[l], &g2b[l]);
                        let aik = Ring64::from_bit(row_i.get(kk as usize));
                        let aik1 = Ring64(share_prf(seed, i as u32, kk));
                        let aik2 = aik - aik1;
                        let ajk = Ring64::from_bit(row_j.get(kk as usize));
                        let ajk1 = Ring64(share_prf(seed, j as u32, kk));
                        let ajk2 = ajk - ajk1;
                        let opening = Mul3Opening {
                            e: (aij1 - g1.x) + (aij2 - g2.x),
                            f: (aik1 - g1.y) + (aik2 - g2.y),
                            g: (ajk1 - g1.z) + (ajk2 - g2.z),
                        };
                        let efg = opening.e * opening.f * opening.g;
                        t1 += mul3_combine((aij1, aik1, ajk1), g1, opening, Ring64::ZERO);
                        t2 += mul3_combine((aij2, aik2, ajk2), g2, opening, efg);
                    }
                }
                CountKernel::Bitsliced => {
                    for (l, &kk) in blk.iter().enumerate() {
                        let aik = Ring64::from_bit(row_i.get(kk as usize));
                        let aik1 = Ring64(share_prf(seed, i as u32, kk));
                        b1[l] = aik1;
                        b2[l] = aik - aik1;
                        let ajk = Ring64::from_bit(row_j.get(kk as usize));
                        let ajk1 = Ring64(share_prf(seed, j as u32, kk));
                        c1[l] = ajk1;
                        c2[l] = ajk - ajk1;
                    }
                    let slab = 3 * block;
                    mul3_mask_batch(aij1, &b1[..block], &c1[..block], g1b, &mut mine[..slab]);
                    mul3_mask_batch(aij2, &b2[..block], &c2[..block], g2b, &mut theirs[..slab]);
                    mul3_open_batch(&mine[..slab], &theirs[..slab], &mut opened[..slab]);
                    t1 += mul3_combine_batch(g1b, &opened[..slab], ServerId::S1);
                    t2 += mul3_combine_batch(g2b, &opened[..slab], ServerId::S2);
                }
            }
            off += block;
        }
    }
    net.exchange_triples(evaluated, batch as u64);
    (t1, t2, net, evaluated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_local;
    use cargo_graph::count_triangles_matrix;
    use cargo_graph::generators::{barabasi_albert, erdos_renyi};

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
        // Communication shrinks proportionally.
        assert_eq!(res.net.elements, 6 * res.evaluated);
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
            assert_eq!(ot.share1, dealer.share1, "rate {rate}");
            assert_eq!(ot.share2, dealer.share2, "rate {rate}");
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
