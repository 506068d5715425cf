//! One way to train: a [`TrainPlan`] value run by one rank loop.
//!
//! The paper trains its IC network one way — Algorithm 2's synchronous
//! data-parallel SGD with the §4.4.4 allreduce, fed from an offline
//! pre-generated dataset or online from the simulator. A plan is that
//! algorithm with its two choices as values:
//!
//! * **source** — [`TrainPlan::epochs`]: each rank reads its own
//!   `DistributedSampler` slice of every epoch of a (sorted) dataset on its
//!   own thread; or [`TrainPlan::stream`]: the records of a live channel or
//!   a replayed dataset, bucketed online by trace type
//!   ([`crate::streaming`]).
//! * **ranks** — 1 (the default) reduces nothing; n > 1 runs n − 1 replica
//!   threads beside the caller's trainer, which is rank 0, with one
//!   allreduce per step between them. Replicas need identical parameter
//!   sets, so the network is always frozen at pre-generation.
//!
//! plus `max_steps`, a cap on optimizer steps. Learning rate, LARC,
//! clipping and telemetry come from the [`Trainer`]; the plan adds no
//! option.

use crate::allreduce::{AllReduceCtx, AllReduceStrategy};
use crate::distributed::{rank_loop, Batches, RankLog, Reducer};
use crate::streaming::{distribute, RecordReader, Records, ReleaseFeed};
use crate::trainer::{PhaseTimings, Trainer};
use etalumis_data::{
    BucketerConfig, DistributedSampler, SamplerConfig, TraceBucketer, TraceDataset,
};
use etalumis_nn::Optimizer;
use std::io;

#[derive(Clone, Copy)]
enum Source<'a> {
    Epochs { dataset: &'a TraceDataset, minibatch: usize, epochs: usize, seed: u64 },
    Stream { records: Records<'a>, bucketer: BucketerConfig, warmup: usize },
}

/// A training run: batch source × rank count, see the module docs.
#[derive(Clone, Copy)]
pub struct TrainPlan<'a> {
    source: Source<'a>,
    ranks: usize,
    strategy: AllReduceStrategy,
    max_steps: Option<usize>,
}

/// What a [`TrainPlan`] run did.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Global mean loss of every applied step.
    pub losses: Vec<f64>,
    /// Traces trained on, over all ranks.
    pub traces: usize,
    /// Wall time of the training steps: the slowest rank's loop, without
    /// pre-generation.
    pub wall_secs: f64,
    /// Phase timings: `[rank][step]`.
    pub per_rank_timings: Vec<Vec<PhaseTimings>>,
    /// Scalar gradient elements one rank communicated per step (mean; 0
    /// on one rank).
    pub comm_elems_per_step: f64,
    /// Stream records pulled to pre-generate the network (short when the
    /// stream ended early).
    pub warmup_used: usize,
    /// Stream releases that reached full batch size, and undersized ones
    /// forced by the spill policy or the final flush. Counted as the
    /// bucketer made them: a run stopped by `max_steps` may count up to
    /// `2·ranks + 1` releases nobody trained on.
    pub fills: usize,
    /// See [`TrainReport::fills`].
    pub spills: usize,
}

impl TrainReport {
    /// Aggregate throughput in traces/s.
    pub fn traces_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.traces as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Figure 4 decomposition: per-phase (actual, best) times, where
    /// *actual* sums the per-step maxima over ranks (what the job really
    /// took) and *best* sums the per-step means (the no-imbalance bound).
    pub fn actual_vs_best(&self) -> (PhaseTimings, PhaseTimings) {
        let steps = self.per_rank_timings.iter().map(|r| r.len()).min().unwrap_or(0);
        let ranks = self.per_rank_timings.len();
        let mut actual = PhaseTimings::default();
        let mut best = PhaseTimings::default();
        for it in 0..steps {
            // Max total work across ranks (the rank everyone waits for).
            let mut max_total = 0.0;
            let mut max_rank = 0;
            let mut mean = PhaseTimings::default();
            for r in 0..ranks {
                let t = &self.per_rank_timings[r][it];
                let work = t.batch_read + t.forward + t.backward + t.optimizer;
                if work > max_total {
                    max_total = work;
                    max_rank = r;
                }
                mean.add(t);
            }
            actual.add(&self.per_rank_timings[max_rank][it]);
            best.add(&mean.scale(1.0 / ranks as f64));
        }
        (actual, best)
    }

    /// Rank 0's losses, every rank's traces, timings and traffic; the first
    /// rank's read error instead, if any rank failed.
    fn from_ranks(logs: Vec<RankLog>) -> io::Result<Self> {
        let ranks = logs.len();
        let (mut report, mut elems) = (TrainReport::default(), 0);
        for (rank, log) in logs.into_iter().enumerate() {
            if let Some(e) = log.error {
                return Err(e);
            }
            if rank == 0 {
                report.losses = log.losses;
            }
            report.traces += log.used;
            report.wall_secs = report.wall_secs.max(log.wall_secs);
            elems += log.elems;
            report.per_rank_timings.push(log.timings);
        }
        let rank_steps = report.losses.len() * ranks;
        if rank_steps > 0 {
            report.comm_elems_per_step = elems as f64 / rank_steps as f64;
        }
        Ok(report)
    }
}

impl<'a> TrainPlan<'a> {
    /// Offline mode (§4.4): `epochs` passes over `dataset`, each rank
    /// training on its own `minibatch`-trace slice of every epoch's
    /// sampler plan. The network is first pre-generated from the whole
    /// dataset.
    pub fn epochs(dataset: &'a TraceDataset, minibatch: usize, epochs: usize, seed: u64) -> Self {
        Self::new(Source::Epochs { dataset, minibatch, epochs, seed })
    }

    /// Online mode: pre-generate from the first `warmup` records, then
    /// bucket those and every further record by trace type and take one
    /// step per release and rank. At the end of the stream the bucketer is
    /// flushed, so on one rank every delivered trace trains (on n ranks a
    /// trailing round of fewer than n releases is discarded).
    pub fn stream(records: Records<'a>, bucketer: BucketerConfig, warmup: usize) -> Self {
        Self::new(Source::Stream { records, bucketer, warmup })
    }

    fn new(source: Source<'a>) -> Self {
        Self { source, ranks: 1, strategy: AllReduceStrategy::SparseConcat, max_steps: None }
    }

    /// Data-parallel ranks (default 1; 0 is rejected by [`TrainPlan::run`]).
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Gradient-reduction strategy on more than one rank (default
    /// [`AllReduceStrategy::SparseConcat`]).
    pub fn strategy(mut self, strategy: AllReduceStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Stop after `steps` optimizer steps.
    pub fn max_steps(mut self, steps: usize) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Train `trainer`'s network. It is rank 0 and runs on the calling
    /// thread; ranks 1.. are clones of it after pre-generation, so they
    /// start bit-equal to it, and they end bit-equal to it.
    ///
    /// Errors: zero ranks or a degenerate sampler config is
    /// `InvalidInput`; a shard I/O error on any rank (truncated file,
    /// corrupt record — see `etalumis_data::DecodeError`) ends the run with
    /// that error instead of a panic or a rank left blocking in a barrier.
    /// A channel source is closed on every exit, so its producer drains
    /// instead of blocking on a consumer that is gone.
    pub fn run<O: Optimizer + Clone + Send>(
        self,
        trainer: &mut Trainer<O>,
    ) -> io::Result<TrainReport> {
        self.run_with_replicas(trainer).map(|(report, _)| report)
    }

    /// [`TrainPlan::run`], also returning the replicas (ranks 1..).
    pub(crate) fn run_with_replicas<O: Optimizer + Clone + Send>(
        self,
        trainer: &mut Trainer<O>,
    ) -> io::Result<(TrainReport, Vec<Trainer<O>>)> {
        let run = match self.source {
            _ if self.ranks == 0 => {
                Err(io::Error::new(io::ErrorKind::InvalidInput, "a training plan needs a rank"))
            }
            Source::Epochs { dataset, minibatch, epochs, seed } => self.run_epochs(
                trainer,
                dataset,
                SamplerConfig { minibatch, num_ranks: self.ranks, buckets: 1, seed },
                epochs,
            ),
            Source::Stream { records, bucketer, warmup } => {
                self.run_stream(trainer, records, bucketer, warmup)
            }
        };
        if let Source::Stream { records, .. } = self.source {
            records.close();
        }
        run
    }

    fn run_epochs<O: Optimizer + Clone + Send>(
        self,
        trainer: &mut Trainer<O>,
        dataset: &TraceDataset,
        sampler: SamplerConfig,
        epochs: usize,
    ) -> io::Result<(TrainReport, Vec<Trainer<O>>)> {
        let meta = (0..dataset.len()).map(|i| dataset.meta(i)).collect();
        let sampler = DistributedSampler::try_new(meta, sampler)?;
        let all: Vec<usize> = (0..dataset.len()).collect();
        trainer.net.pregenerate(dataset.get_many(&all)?.iter());
        let (logs, replicas) = self.run_ranks(trainer, || Batches::Epochs {
            dataset,
            sampler: &sampler,
            epochs: 0..epochs,
            slice: Vec::new().into_iter(),
        });
        Ok((TrainReport::from_ranks(logs)?, replicas))
    }

    fn run_stream<O: Optimizer + Clone + Send>(
        self,
        trainer: &mut Trainer<O>,
        records: Records<'_>,
        bucketer: BucketerConfig,
        warmup: usize,
    ) -> io::Result<(TrainReport, Vec<Trainer<O>>)> {
        let mut reader = RecordReader::new(records);
        let warmup = reader.by_ref().take(warmup).collect::<io::Result<Vec<_>>>()?;
        trainer.net.pregenerate(warmup.iter());
        let warmup_used = warmup.len();
        let bucketer = TraceBucketer::new(bucketer).with_telemetry(trainer.tel.clone());
        let feed = ReleaseFeed::new(2 * self.ranks);
        let (ranks, distributed) = std::thread::scope(|s| {
            let distributor = s.spawn(|| distribute(reader, warmup, bucketer, &feed));
            let ranks = self.run_ranks(trainer, || Batches::Stream(&feed));
            // The ranks are gone: a distributor blocked on the feed or the
            // channel must not wait for them.
            feed.finish();
            records.close();
            (ranks, distributor.join())
        });
        let (fills, spills) = distributed.unwrap_or_else(|p| std::panic::resume_unwind(p))?;
        let (logs, replicas) = ranks;
        let report = TrainReport { warmup_used, fills, spills, ..TrainReport::from_ranks(logs)? };
        Ok((report, replicas))
    }

    /// Run every rank: replicas on their own threads, rank 0 on this one.
    fn run_ranks<'b, O: Optimizer + Clone + Send>(
        self,
        trainer: &mut Trainer<O>,
        batches: impl Fn() -> Batches<'b> + Sync,
    ) -> (Vec<RankLog>, Vec<Trainer<O>>) {
        let reducer = (self.ranks > 1)
            .then(|| Reducer { ctx: AllReduceCtx::new(self.ranks), strategy: self.strategy });
        let (reducer, max_steps) = (reducer.as_ref(), self.max_steps);
        let replicas: Vec<Trainer<O>> = (1..self.ranks).map(|_| trainer.clone()).collect();
        std::thread::scope(|s| {
            let batches = &batches;
            let handles: Vec<_> = (1..)
                .zip(replicas)
                .map(|(rank, mut replica)| {
                    s.spawn(move || {
                        (rank_loop(&mut replica, rank, batches(), reducer, max_steps), replica)
                    })
                })
                .collect();
            let mut logs = vec![rank_loop(trainer, 0, batches(), reducer, max_steps)];
            let (more, replicas): (Vec<_>, Vec<_>) = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .unzip();
            logs.extend(more);
            (logs, replicas)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{IcConfig, IcNetwork};
    use etalumis_data::{generate_dataset, TraceChannel, TraceRecord};
    use etalumis_nn::{Adam, LrSchedule, Module};
    use etalumis_simulators::BranchingModel;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const BUCKETS: BucketerConfig = BucketerConfig { batch: 8, spill_after: 24 };

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("etalumis_plan_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn dataset(dir: &Path, n: usize, per_shard: usize) -> TraceDataset {
        generate_dataset(&mut BranchingModel::standard(), n, per_shard, dir, 5, true).unwrap()
    }

    fn all(ds: &TraceDataset) -> Vec<TraceRecord> {
        ds.get_many(&(0..ds.len()).collect::<Vec<_>>()).unwrap()
    }

    /// A closed channel preloaded with `recs`.
    fn channel(recs: Vec<TraceRecord>) -> TraceChannel {
        let chan = TraceChannel::bounded(recs.len());
        for r in recs {
            chan.send(r).unwrap();
        }
        chan.close();
        chan
    }

    fn trainer() -> Trainer<Adam> {
        Trainer::new(
            IcNetwork::new(IcConfig::small([1, 1, 1], 3)),
            Adam::new(LrSchedule::Constant(2e-3)),
        )
    }

    fn params(net: &mut IcNetwork) -> Vec<(String, Vec<u32>)> {
        let mut out = Vec::new();
        net.visit_params("", &mut |n, p| {
            out.push((n.to_string(), p.value.data().iter().map(|v| v.to_bits()).collect()))
        });
        out
    }

    fn bits(losses: &[f64]) -> Vec<u64> {
        losses.iter().map(|l| l.to_bits()).collect()
    }

    /// Every source × rank-count cell: two runs are bit-identical (losses
    /// and every parameter), replicas end equal to rank 0, and a live
    /// channel and a replay of the same records train identically.
    #[test]
    fn every_source_and_rank_count_is_reproducible_with_replicas_equal_to_rank_0() {
        let dir = tmp("axes");
        let ds = dataset(&dir, 96, 32);
        for ranks in [1, 2, 3] {
            let mut streams = Vec::new();
            for source in ["epochs", "channel", "replay"] {
                let run = || {
                    let chan = channel(all(&ds));
                    let plan = match source {
                        "epochs" => TrainPlan::epochs(&ds, 8, 2, 3),
                        "channel" => TrainPlan::stream(Records::Channel(&chan), BUCKETS, 16),
                        _ => TrainPlan::stream(Records::Replay(&ds), BUCKETS, 16),
                    };
                    let mut rank0 = trainer();
                    let (report, mut replicas) =
                        plan.ranks(ranks).run_with_replicas(&mut rank0).unwrap();
                    let rank0 = params(&mut rank0.net);
                    assert_eq!(replicas.len(), ranks - 1);
                    for replica in &mut replicas {
                        assert!(params(&mut replica.net) == rank0, "{source} × {ranks}: replica");
                    }
                    (bits(&report.losses), rank0)
                };
                let first = run();
                assert!(!first.0.is_empty(), "{source} × {ranks}: no step");
                assert!(first == run(), "{source} × {ranks}: two runs differ");
                if source != "epochs" {
                    streams.push(first);
                }
            }
            assert!(streams[0] == streams[1], "channel and replay differ at {ranks} ranks");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_rank_stream_is_a_hand_loop_of_trainer_steps_over_bucketer_releases() {
        let dir = tmp("hand");
        let recs = all(&dataset(&dir, 96, 32));
        let mut planned = trainer();
        let report = TrainPlan::stream(Records::Channel(&channel(recs.clone())), BUCKETS, 16)
            .run(&mut planned)
            .unwrap();

        let mut by_hand = trainer();
        by_hand.net.pregenerate(recs[..16].iter());
        let mut bucketer = TraceBucketer::new(BUCKETS);
        let mut releases: Vec<_> = recs.into_iter().filter_map(|r| bucketer.push(r)).collect();
        releases.extend(std::iter::from_fn(|| bucketer.flush()));
        let losses: Vec<f64> = releases.iter().map(|r| by_hand.step(r).loss).collect();

        assert_eq!(bits(&report.losses), bits(&losses));
        assert!(params(&mut planned.net) == params(&mut by_hand.net));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_ranks_is_invalid_input_and_closes_the_channel() {
        let chan = TraceChannel::bounded(4);
        let err = TrainPlan::stream(Records::Channel(&chan), BUCKETS, 4)
            .ranks(0)
            .run(&mut trainer())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(chan.is_closed(), "the producer must not be left blocking");
    }

    #[test]
    fn max_steps_stops_a_replay() {
        let dir = tmp("replay_cap");
        let ds = dataset(&dir, 96, 32);
        let small = BucketerConfig { batch: 4, spill_after: 12 };
        // The whole replay makes at least 96 / 4 = 24 releases.
        for ranks in [1, 2] {
            let report = TrainPlan::stream(Records::Replay(&ds), small, 16)
                .ranks(ranks)
                .max_steps(3)
                .run(&mut trainer());
            let report = report.unwrap();
            assert_eq!(report.losses.len(), 3);
            // Trained on, held by the feed, held by the blocked distributor.
            let made = report.fills + report.spills;
            assert!(made <= 3 * ranks + 2 * ranks + 1, "{made} releases at {ranks} ranks");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The bounded feed keeps back-pressure on the producer: a run capped
    /// at one step on two ranks pulls at most the warm-up plus the records
    /// that make the releases trained on, the `2·ranks` the feed holds and
    /// the one the blocked distributor holds (each release takes at most
    /// `spill_after` pushes) — and the channel's capacity more is sent.
    #[test]
    fn a_capped_run_leaves_the_producer_bounded() {
        let (capacity, warmup, ranks, steps) = (4, 16, 2, 1);
        let pool = all(&dataset(&tmp("backpressure"), 200, 200));
        let chan = TraceChannel::bounded(capacity);
        let sent = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                for i in 0..5_000 {
                    if chan.send(pool[i % pool.len()].clone()).is_err() {
                        return;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                }
                chan.close();
            });
            let plan = TrainPlan::stream(Records::Channel(&chan), BUCKETS, warmup)
                .ranks(ranks)
                .max_steps(steps);
            assert_eq!(plan.run(&mut trainer()).unwrap().losses.len(), steps);
            producer.join().unwrap();
        });
        let bound = warmup + capacity + (ranks * steps + 2 * ranks + 1) * BUCKETS.spill_after;
        let sent = sent.into_inner();
        assert!(sent <= bound, "{sent} records sent, bound {bound}");
        std::fs::remove_dir_all(tmp("backpressure")).unwrap();
    }

    /// A truncated shard (see `etalumis_data::DecodeError`) ends the run
    /// with `Err` at every rank count — no panicking rank thread, no rank
    /// left blocking in a collective. A plan's epochs fail in
    /// pre-generation, which reads the whole dataset; the replay fails
    /// mid-run, after steps on the intact prefix; and a shard truncated
    /// after pre-generation fails a rank's read inside the rank loop.
    #[test]
    fn truncated_shards_surface_as_errors_instead_of_hanging() {
        let dir = tmp("truncated");
        let ds = dataset(&dir, 320, 64);
        let mut pregenerated = trainer();
        pregenerated.net.pregenerate(all(&ds).iter());
        let last = &ds.shards[ds.shards.len() - 1];
        let bytes = std::fs::read(last).unwrap();
        std::fs::write(last, &bytes[..bytes.len() / 2]).unwrap();
        for ranks in [1, 2] {
            let plan = TrainPlan::epochs(&ds, 8, 1, 0).ranks(ranks);
            let meta = (0..ds.len()).map(|i| ds.meta(i)).collect();
            let cfg = SamplerConfig { minibatch: 8, num_ranks: ranks, buckets: 1, seed: 0 };
            let sampler = DistributedSampler::new(meta, cfg);
            let (logs, _) = plan.run_ranks(&mut pregenerated.clone(), || Batches::Epochs {
                dataset: &ds,
                sampler: &sampler,
                epochs: 0..1,
                slice: Vec::new().into_iter(),
            });
            let steps: Vec<usize> = logs.iter().map(|log| log.losses.len()).collect();
            assert!(steps.iter().all(|&s| s == steps[0]), "ranks left at steps {steps:?}");
            assert!(TrainReport::from_ranks(logs).is_err(), "loop × {ranks}: not an Err");

            let epochs = TrainPlan::epochs(&ds, 8, 1, 0).ranks(ranks).run(&mut trainer());
            assert!(epochs.is_err(), "epochs × {ranks}: a truncated shard must be an Err");
            let replay = TrainPlan::stream(Records::Replay(&ds), BUCKETS, 16)
                .ranks(ranks)
                .run(&mut trainer());
            assert!(replay.is_err(), "replay × {ranks}: a truncated shard must be an Err");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
