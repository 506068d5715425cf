//! Distributed minibatch samplers.
//!
//! Reproduces §4.4.3's "distributed minibatch sampler": the sampler "first
//! splits the sorted trace indices into minibatch-sized chunks, so that all
//! traces in each minibatch are highly likely to be of the same type, then
//! optionally groups these chunks into several buckets. Within each bucket,
//! the chunks are assigned with a round-robin algorithm to different ranks,
//! such that each rank has roughly the same distribution of workload."
//! Chunk order is shuffled per epoch (sampling without replacement), which
//! keeps the gradient unbiased in expectation while chunks stay homogeneous.
//!
//! Also provided: multi-bucketing by trace length (§7.2), one of the
//! load-balancing schemes the paper evaluated. Its other one, token-based
//! dynamic batching, is not reproduced: no training run here uses it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Sampler configuration.
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    /// Local minibatch size (traces per rank per iteration).
    pub minibatch: usize,
    /// Number of data-parallel ranks.
    pub num_ranks: usize,
    /// Number of length buckets (1 = no bucketing).
    pub buckets: usize,
    /// Shuffle seed (combined with the epoch index).
    pub seed: u64,
}

/// One epoch's assignment: `per_rank[r]` is the list of minibatches (each a
/// list of dataset indices) rank `r` processes, aligned across ranks per
/// iteration.
#[derive(Debug)]
pub struct EpochPlan {
    /// Minibatches per rank.
    pub per_rank: Vec<Vec<Vec<usize>>>,
}

impl EpochPlan {
    /// Number of synchronized iterations in this epoch.
    pub fn iterations(&self) -> usize {
        self.per_rank.iter().map(|r| r.len()).min().unwrap_or(0)
    }
}

/// The distributed sampler over a dataset's (trace_type, length) metadata.
pub struct DistributedSampler {
    /// Per-record sort keys: (trace_type, length), in dataset order.
    meta: Vec<(u64, u32)>,
    config: SamplerConfig,
}

impl DistributedSampler {
    /// New sampler over the dataset metadata; panics on a degenerate config
    /// (programmer error). Callers holding *user-supplied* configuration —
    /// the training loops that load sampler metadata from a dataset —
    /// should use [`DistributedSampler::try_new`] so a zero minibatch in a
    /// config file surfaces as an error, not a process abort.
    pub fn new(meta: Vec<(u64, u32)>, config: SamplerConfig) -> Self {
        match Self::try_new(meta, config) {
            Ok(s) => s,
            Err(e) => panic!("{e}"), // etalumis: allow(panic-freedom, reason = "documented panicking constructor; try_new is the fallible API")
        }
    }

    /// Fallible constructor: a degenerate config (zero minibatch, ranks, or
    /// buckets) is a typed `InvalidInput` error.
    pub fn try_new(meta: Vec<(u64, u32)>, config: SamplerConfig) -> std::io::Result<Self> {
        if config.minibatch == 0 || config.num_ranks == 0 || config.buckets == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "sampler config must be non-degenerate: minibatch={} num_ranks={} buckets={}",
                    config.minibatch, config.num_ranks, config.buckets
                ),
            ));
        }
        Ok(Self { meta, config })
    }

    /// Build the plan for one epoch.
    pub fn epoch(&self, epoch: usize) -> EpochPlan {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (epoch as u64).wrapping_mul(0xA24B_1D59));
        let n = self.meta.len();
        // Contiguous chunks over the (assumed sorted) dataset order keep
        // each chunk nearly single-trace-type.
        let indices: Vec<usize> = (0..n).collect();
        let chunks: Vec<Vec<usize>> = indices
            .chunks(cfg.minibatch)
            .filter(|c| c.len() == cfg.minibatch)
            .map(|c| c.to_vec())
            .collect();
        // Optional multi-bucketing by mean chunk length.
        let mut bucketed: Vec<Vec<Vec<usize>>> = if cfg.buckets <= 1 {
            vec![chunks]
        } else {
            let mut keyed: Vec<(u32, Vec<usize>)> = chunks
                .into_iter()
                .map(|c| {
                    let mean_len =
                        c.iter().map(|&i| self.meta[i].1 as u64).sum::<u64>() / c.len() as u64;
                    (mean_len as u32, c)
                })
                .collect();
            keyed.sort_by_key(|&(l, _)| l);
            let per = keyed.len().div_ceil(cfg.buckets);
            keyed.chunks(per).map(|b| b.iter().map(|(_, c)| c.clone()).collect()).collect()
        };
        // Shuffle chunks within each bucket; shuffle bucket visit order.
        for b in &mut bucketed {
            b.shuffle(&mut rng);
        }
        bucketed.shuffle(&mut rng);
        // Round-robin chunks to ranks, bucket by bucket, keeping iterations
        // aligned: every rank gets one chunk per iteration from the same
        // bucket.
        let mut per_rank: Vec<Vec<Vec<usize>>> = vec![Vec::new(); cfg.num_ranks];
        for bucket in bucketed {
            let full_rounds = bucket.len() / cfg.num_ranks;
            for round in 0..full_rounds {
                for (r, rank_batches) in per_rank.iter_mut().enumerate() {
                    rank_batches.push(bucket[round * cfg.num_ranks + r].clone());
                }
            }
        }
        EpochPlan { per_rank }
    }
}

/// Fraction of minibatches that contain a single trace type — the quantity
/// the paper's sorting+chunking maximizes.
pub fn homogeneous_fraction(plan: &EpochPlan, meta: &[(u64, u32)]) -> f64 {
    let mut total = 0usize;
    let mut homo = 0usize;
    for rank in &plan.per_rank {
        for mb in rank {
            total += 1;
            let t0 = meta[mb[0]].0;
            if mb.iter().all(|&i| meta[i].0 == t0) {
                homo += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        homo as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic sorted metadata: 3 trace types with different lengths.
    fn sorted_meta(n: usize) -> Vec<(u64, u32)> {
        (0..n)
            .map(|i| {
                if i < n / 2 {
                    (1u64, 5u32)
                } else if i < 3 * n / 4 {
                    (2u64, 10u32)
                } else {
                    (3u64, 20u32)
                }
            })
            .collect()
    }

    fn shuffled_meta(n: usize, seed: u64) -> Vec<(u64, u32)> {
        let mut m = sorted_meta(n);
        m.shuffle(&mut StdRng::seed_from_u64(seed));
        m
    }

    #[test]
    fn plan_covers_each_index_at_most_once() {
        let meta = sorted_meta(128);
        let s = DistributedSampler::new(
            meta,
            SamplerConfig { minibatch: 8, num_ranks: 2, buckets: 1, seed: 1 },
        );
        let plan = s.epoch(0);
        let mut seen = std::collections::HashSet::new();
        for rank in &plan.per_rank {
            for mb in rank {
                assert_eq!(mb.len(), 8);
                for &i in mb {
                    assert!(seen.insert(i), "index {i} assigned twice");
                }
            }
        }
        // All ranks aligned.
        assert_eq!(plan.per_rank[0].len(), plan.per_rank[1].len());
        assert!(plan.iterations() > 0);
    }

    #[test]
    fn sorted_order_yields_homogeneous_minibatches() {
        let meta = sorted_meta(160);
        let s = DistributedSampler::new(
            meta.clone(),
            SamplerConfig { minibatch: 8, num_ranks: 2, buckets: 1, seed: 2 },
        );
        let frac_sorted = homogeneous_fraction(&s.epoch(0), &meta);
        assert!(frac_sorted > 0.85, "sorted homogeneity {frac_sorted}");
        let meta_shuf = shuffled_meta(160, 3);
        let s2 = DistributedSampler::new(
            meta_shuf.clone(),
            SamplerConfig { minibatch: 8, num_ranks: 2, buckets: 1, seed: 2 },
        );
        let frac_shuf = homogeneous_fraction(&s2.epoch(0), &meta_shuf);
        assert!(
            frac_sorted > frac_shuf + 0.3,
            "sorted {frac_sorted} should beat shuffled {frac_shuf}"
        );
    }

    #[test]
    fn epochs_shuffle_differently_but_reproducibly() {
        let meta = sorted_meta(64);
        let s = DistributedSampler::new(
            meta,
            SamplerConfig { minibatch: 4, num_ranks: 2, buckets: 1, seed: 7 },
        );
        let a0 = s.epoch(0);
        let a0_again = s.epoch(0);
        let a1 = s.epoch(1);
        assert_eq!(a0.per_rank, a0_again.per_rank, "same epoch must be deterministic");
        assert_ne!(a0.per_rank, a1.per_rank, "different epochs should differ");
    }

    #[test]
    fn bucketing_reduces_length_spread_within_iterations() {
        let meta = shuffled_meta(240, 11);
        let cfg = SamplerConfig { minibatch: 6, num_ranks: 2, buckets: 1, seed: 5 };
        let no_bucket = DistributedSampler::new(meta.clone(), cfg.clone()).epoch(0);
        let mut cfg_b = cfg;
        cfg_b.buckets = 4;
        let bucketed = DistributedSampler::new(meta.clone(), cfg_b).epoch(0);
        // Imbalance proxy: |len(rank0 batch) − len(rank1 batch)| per iteration.
        let imbalance = |plan: &EpochPlan| {
            let iters = plan.iterations();
            let mut total = 0.0;
            for it in 0..iters {
                let l0: u32 = plan.per_rank[0][it].iter().map(|&i| meta[i].1).sum();
                let l1: u32 = plan.per_rank[1][it].iter().map(|&i| meta[i].1).sum();
                total += (l0 as f64 - l1 as f64).abs();
            }
            total / iters as f64
        };
        assert!(
            imbalance(&bucketed) <= imbalance(&no_bucket) + 1e-9,
            "bucketing should not worsen imbalance: {} vs {}",
            imbalance(&bucketed),
            imbalance(&no_bucket)
        );
    }
}
