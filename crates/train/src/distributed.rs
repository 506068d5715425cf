//! Algorithm 2, one rank's loop: synchronous data-parallel SGD.
//!
//! Every [`TrainPlan`](crate::TrainPlan) runs this loop on each of its
//! ranks: take a batch → [`accumulate_minibatch`] → reduce → check the stop
//! bit → clip + optimizer + telemetry. Ranks are OS threads holding
//! bit-identical replicas of the pre-generated network (offline mode, §4.4)
//! with their own optimizer state; on more than one rank a step averages
//! the gradients with the §4.4.4 allreduce and sums `[loss·used, used,
//! stop]`, so every rank applies the same update and the replicas stay
//! bit-identical, exactly like MPI synchronous SGD. One rank reduces
//! nothing.
//!
//! Leaving together: a rank without a batch — its side of the stream is
//! exhausted, or a shard read failed (`etalumis_data::DecodeError`) —
//! cannot simply break, because the other ranks are already committed to
//! this step's collectives and would block forever. It joins them with an
//! empty minibatch (zero gradients) and raises the stop bit; every rank
//! sees the same reduced bit and leaves before the optimizer step, so the
//! replicas stay identical and the partial round trains nobody.
//!
//! Per-rank, per-step phase timings (minibatch read / forward / backward /
//! optimizer / sync) are the measurements behind the paper's Figure 4
//! load-imbalance analysis.

use crate::allreduce::{AllReduceCtx, AllReduceStrategy};
use crate::streaming::ReleaseFeed;
use crate::trainer::{accumulate_minibatch, PhaseTimings, Trainer};
use etalumis_data::{DistributedSampler, TraceDataset, TraceRecord};
use etalumis_nn::{Module, Optimizer};
use std::io;
use std::ops::Range;
use std::time::Instant;

/// Where one rank's minibatches come from.
pub(crate) enum Batches<'a> {
    /// This rank's slice `per_rank[rank]` of each remaining epoch's plan.
    Epochs {
        dataset: &'a TraceDataset,
        sampler: &'a DistributedSampler,
        epochs: Range<usize>,
        slice: std::vec::IntoIter<Vec<usize>>,
    },
    /// Global release `step·ranks + rank` of a stream.
    Stream(&'a ReleaseFeed),
}

impl Batches<'_> {
    fn next(
        &mut self,
        rank: usize,
        ranks: usize,
        step: usize,
    ) -> io::Result<Option<Vec<TraceRecord>>> {
        match self {
            Batches::Stream(feed) => Ok(feed.take(step * ranks + rank)),
            Batches::Epochs { dataset, sampler, epochs, slice } => loop {
                if let Some(minibatch) = slice.next() {
                    return dataset.get_many(&minibatch).map(Some);
                }
                let Some(epoch) = epochs.next() else { return Ok(None) };
                *slice = sampler.epoch(epoch).per_rank.swap_remove(rank).into_iter();
            },
        }
    }
}

/// The collective half of a step on more than one rank.
pub(crate) struct Reducer {
    pub(crate) ctx: AllReduceCtx,
    pub(crate) strategy: AllReduceStrategy,
}

/// What one rank's loop leaves behind.
#[derive(Default)]
pub(crate) struct RankLog {
    /// Global mean loss of every applied step (the same on every rank).
    pub(crate) losses: Vec<f64>,
    pub(crate) timings: Vec<PhaseTimings>,
    /// Traces this rank trained on.
    pub(crate) used: usize,
    /// Gradient elements this rank communicated.
    pub(crate) elems: usize,
    /// The read failure that stopped this rank.
    pub(crate) error: Option<io::Error>,
    /// Wall time of the loop.
    pub(crate) wall_secs: f64,
}

/// Train one rank until its batches run out on any rank, a read fails on
/// any rank, or `max_steps` steps have been applied.
pub(crate) fn rank_loop<O: Optimizer>(
    trainer: &mut Trainer<O>,
    rank: usize,
    mut batches: Batches<'_>,
    reducer: Option<&Reducer>,
    max_steps: Option<usize>,
) -> RankLog {
    let ranks = reducer.map_or(1, |r| r.ctx.num_ranks());
    let _worker = reducer.map(|_| trainer.tel.worker_scope(rank as u32));
    let started = Instant::now();
    let mut log = RankLog::default();
    while max_steps.is_none_or(|cap| log.losses.len() < cap) {
        // Dropped at the end of the step (or at the stop, where it covers
        // the final collective round) so the phase spans nest under it.
        let _step_span = trainer.tel.span("train.step");
        let t0 = Instant::now();
        let (records, stop) = match batches.next(rank, ranks, log.losses.len()) {
            Ok(Some(records)) => (records, false),
            Ok(None) => (Vec::new(), true),
            Err(e) => {
                log.error = Some(e);
                (Vec::new(), true)
            }
        };
        let batch_read = t0.elapsed().as_secs_f64();
        let mut res = accumulate_minibatch(&mut trainer.net, &records);
        res.timings.batch_read = batch_read;
        let (loss, stop) = match reducer {
            None => (res.loss, stop),
            Some(Reducer { ctx, strategy }) => {
                let t0 = Instant::now();
                let net = &mut trainer.net;
                log.elems += ctx.allreduce(rank, *strategy, &mut |f| {
                    net.visit_params("", &mut |_, p| f(p.grad.data_mut()))
                });
                let used = res.used as f64;
                let mut stats = [(res.loss * used) as f32, used as f32, f32::from(stop)];
                ctx.reduce_sum(rank, &mut stats);
                res.timings.sync = t0.elapsed().as_secs_f64();
                let loss =
                    if stats[1] > 0.0 { stats[0] as f64 / stats[1] as f64 } else { f64::NAN };
                (loss, stats[2] > 0.0)
            }
        };
        if stop {
            break;
        }
        trainer.apply(&mut res);
        log.losses.push(loss);
        log.timings.push(res.timings);
        log.used += res.used;
    }
    log.wall_secs = started.elapsed().as_secs_f64();
    log
}

#[cfg(test)]
mod tests {
    use crate::network::{IcConfig, IcNetwork};
    use crate::{AllReduceStrategy, TrainPlan, Trainer};
    use etalumis_data::{generate_dataset, sort_dataset, DistributedSampler, SamplerConfig};
    use etalumis_nn::{Adam, LrSchedule, Module};
    use etalumis_simulators::BranchingModel;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("etalumis_dist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn small_ic() -> IcConfig {
        IcConfig::small([1, 1, 1], 5)
    }

    fn trainer(lr: f64) -> Trainer<Adam> {
        Trainer::new(IcNetwork::new(small_ic()), Adam::new(LrSchedule::Constant(lr)))
    }

    #[test]
    fn distributed_losses_decrease_and_replicas_agree() {
        let dir = tmp("train");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 128, 64, &dir, 1, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 64).unwrap();
        let mut rank0 = trainer(2e-3);
        let (report, mut replicas) =
            TrainPlan::epochs(&ds, 8, 6, 0).ranks(2).run_with_replicas(&mut rank0).unwrap();
        assert!(!report.losses.is_empty());
        let n = report.losses.len();
        let head: f64 = report.losses[..3].iter().sum::<f64>() / 3.0;
        let tail: f64 = report.losses[n - 3..].iter().sum::<f64>() / 3.0;
        assert!(tail < head, "distributed loss should fall: {head} -> {tail}");
        assert!(report.traces_per_sec() > 0.0);
        let mut pa = Vec::new();
        rank0.net.visit_params("", &mut |_, p| pa.push(p.value.clone()));
        let mut pb = Vec::new();
        replicas[0].net.visit_params("", &mut |_, p| pb.push(p.value.clone()));
        assert!(pa == pb, "replicas must agree bit for bit");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_ranks_match_single_rank_big_batch() {
        // One distributed iteration with 2 ranks × B equals one serial
        // iteration with 2B traces (up to f32 reduction order).
        let dir = tmp("equiv");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 32, 32, &dir, 3, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 32).unwrap();
        let mut distributed = trainer(1e-3);
        let report =
            TrainPlan::epochs(&ds, 8, 1, 4).ranks(2).max_steps(1).run(&mut distributed).unwrap();
        // Reconstruct the union of both ranks' first minibatches.
        let meta: Vec<(u64, u32)> = (0..ds.len()).map(|i| ds.meta(i)).collect();
        let sampler = DistributedSampler::new(
            meta,
            SamplerConfig { minibatch: 8, num_ranks: 2, buckets: 1, seed: 4 },
        );
        let plan = sampler.epoch(0);
        let mut union: Vec<usize> = plan.per_rank[0][0].clone();
        union.extend(&plan.per_rank[1][0]);
        let records = ds.get_many(&union).unwrap();
        let all: Vec<usize> = (0..ds.len()).collect();
        let pregen = ds.get_many(&all).unwrap();
        let mut net = IcNetwork::new(small_ic());
        net.pregenerate(pregen.iter());
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
        let res = trainer.step(&records);
        assert_eq!(res.used, 16);
        // Compare parameters.
        let mut pa = Vec::new();
        distributed.net.visit_params("", &mut |n, p| pa.push((n.to_string(), p.value.clone())));
        let mut pb = Vec::new();
        trainer.net.visit_params("", &mut |n, p| pb.push((n.to_string(), p.value.clone())));
        assert_eq!(pa.len(), pb.len());
        let mut max_diff = 0.0f32;
        for ((na, va), (_nb, vb)) in pa.iter().zip(pb.iter()) {
            for (a, b) in va.data().iter().zip(vb.data().iter()) {
                let d = (a - b).abs();
                if d > max_diff {
                    max_diff = d;
                }
            }
            let _ = na;
        }
        assert!(
            max_diff < 2e-4,
            "2-rank and big-batch serial updates should match: max diff {max_diff}"
        );
        assert!(report.comm_elems_per_step > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distributed_training_surfaces_shard_errors_instead_of_panicking() {
        let dir = tmp("err");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 64, 32, &dir, 8, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 32).unwrap();
        // Truncate a shard under the open dataset: every rank's read path
        // must surface the error as Err — no panicking rank threads, no
        // rank left blocking in a collective.
        let bytes = std::fs::read(&ds.shards[0]).unwrap();
        std::fs::write(&ds.shards[0], &bytes[..bytes.len() / 2]).unwrap();
        let res = TrainPlan::epochs(&ds, 8, 1, 0).ranks(2).run(&mut trainer(1e-3));
        assert!(res.is_err(), "a truncated shard must surface as Err, not a panic");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_strategies_produce_identical_training() {
        let dir = tmp("strat");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 64, 64, &dir, 6, true).unwrap();
        let ds = sort_dataset(&ds, &dir.join("sorted"), 64).unwrap();
        let mut final_losses = Vec::new();
        for strategy in [
            AllReduceStrategy::DensePerTensor,
            AllReduceStrategy::SparsePerTensor,
            AllReduceStrategy::SparseConcat,
        ] {
            let plan = TrainPlan::epochs(&ds, 8, 2, 9).ranks(2).strategy(strategy);
            let report = plan.run(&mut trainer(1e-3)).unwrap();
            final_losses.push(report.losses.clone());
        }
        assert_eq!(final_losses[0], final_losses[1], "dense vs sparse");
        assert_eq!(final_losses[0], final_losses[2], "dense vs concat");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
