//! Streaming training: pull minibatches straight off a live trace channel.
//!
//! The offline pipeline stages generate → sort (§4.4.3) → train through
//! the filesystem; the sort exists only to hand training address-
//! homogeneous sub-minibatches. In streaming mode the runtime feeds a
//! bounded `etalumis-data` [`TraceChannel`] and the online
//! [`TraceBucketer`] recreates that homogeneity on the fly, so training
//! starts while the simulator fleet is still running and back-pressure —
//! not disk — couples the two rates.
//!
//! Reproducibility: the channel carries records in batch-index order (the
//! runtime's `StreamSink` guarantees it), so [`train_stream`] is a pure
//! function of the stream content and its own config.
//! [`train_stream_offline`] replays a [`TraceDataset`] through the
//! identical code path — over the shards a teed streaming run wrote, it
//! reproduces the live run's losses and weights bit for bit.
//!
//! [`train_stream_distributed`] runs the rank-parallel variant with the
//! same failure discipline as [`crate::train_distributed`]: an exhausted
//! rank still participates in the iteration's collectives with an empty
//! minibatch and raises a bit through the loss reduction, so every rank
//! leaves the loop at the same synchronization point, before the optimizer
//! step — replicas stay bit-identical and the trailing partial round is
//! discarded rather than applied unevenly.

use crate::allreduce::{AllReduceCtx, AllReduceStrategy};
use crate::distributed::{allreduce_network, DistReport};
use crate::network::{IcConfig, IcNetwork};
use crate::trainer::{accumulate_minibatch, PhaseTimings, TrainLog, Trainer};
use etalumis_data::{
    stream_dataset_into, BucketerConfig, TraceBucketer, TraceChannel, TraceDataset, TraceRecord,
};
use etalumis_nn::{Adam, LrSchedule, Module, Optimizer};
use etalumis_telemetry::Telemetry;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Knobs for the single-rank streaming loop.
#[derive(Clone, Copy, Debug)]
pub struct StreamTrainConfig {
    /// Sub-minibatch size a bucket releases at (paper's minibatch: 64).
    pub batch: usize,
    /// Bucketer spill threshold: after this many buffered-without-release
    /// records, the largest bucket is released undersized so rare trace
    /// types still train (see [`TraceBucketer`]).
    pub spill_after: usize,
    /// Records pulled off the stream head to pre-generate the network's
    /// address embeddings before the first step. They are then trained on
    /// normally (pushed through the bucketer first).
    pub warmup: usize,
    /// Freeze the network after warm-up pre-generation: later steps drop
    /// unknown-address traces instead of growing the parameter set.
    pub freeze_after_warmup: bool,
    /// Stop after this many optimizer steps (the channel is closed so the
    /// producer drains instead of blocking on a gone consumer).
    pub max_steps: Option<usize>,
}

impl Default for StreamTrainConfig {
    fn default() -> Self {
        Self {
            batch: 64,
            spill_after: 1024,
            warmup: 512,
            freeze_after_warmup: false,
            max_steps: None,
        }
    }
}

/// Outcome of a streaming training run.
#[derive(Clone, Debug, Default)]
pub struct StreamTrainReport {
    /// Loss trajectory and throughput of the step loop.
    pub log: TrainLog,
    /// Records actually pulled for warm-up (short when the stream ended
    /// early).
    pub warmup_used: usize,
    /// Bucket releases that reached full batch size.
    pub fills: usize,
    /// Undersized releases forced by the spill policy or the final flush.
    pub spills: usize,
}

/// Train on a live trace channel until it closes (single rank).
///
/// Pulls `cfg.warmup` records to pre-generate embeddings, then buckets the
/// warm-up prefix and every further record by trace type, taking one
/// optimizer step per released sub-minibatch; when the stream ends the
/// bucketer is flushed so every delivered trace trains. Deterministic
/// given the stream content and `cfg` — channel capacity, producer worker
/// count, and timing cannot change the result.
pub fn train_stream<O: Optimizer>(
    trainer: &mut Trainer<O>,
    channel: &TraceChannel,
    cfg: &StreamTrainConfig,
) -> StreamTrainReport {
    let start = Instant::now();
    let mut warmup = Vec::with_capacity(cfg.warmup);
    while warmup.len() < cfg.warmup {
        match channel.recv() {
            Some(r) => warmup.push(r),
            None => break,
        }
    }
    trainer.net.pregenerate(warmup.iter());
    if cfg.freeze_after_warmup {
        trainer.net.freeze();
    }
    let mut report = StreamTrainReport { warmup_used: warmup.len(), ..Default::default() };
    let mut bucketer =
        TraceBucketer::new(BucketerConfig { batch: cfg.batch, spill_after: cfg.spill_after })
            .with_telemetry(trainer.tel.clone());
    let mut steps = 0usize;
    let mut capped = false;
    fn take_step<O: Optimizer>(
        trainer: &mut Trainer<O>,
        release: Vec<TraceRecord>,
        report: &mut StreamTrainReport,
        steps: &mut usize,
        capped: &mut bool,
        cfg: &StreamTrainConfig,
        channel: &TraceChannel,
    ) {
        let res = trainer.step(&release);
        report.log.losses.push((*steps, res.loss));
        report.log.traces_seen += res.used;
        *steps += 1;
        if let Some(cap) = cfg.max_steps {
            if *steps >= cap {
                *capped = true;
                // Tell the producer we are gone: it drains instead of
                // blocking forever on a full channel nobody reads.
                channel.close();
            }
        }
    }
    for rec in warmup {
        if capped {
            break;
        }
        if let Some(release) = bucketer.push(rec) {
            take_step(trainer, release, &mut report, &mut steps, &mut capped, cfg, channel);
        }
    }
    while !capped {
        match channel.recv() {
            Some(rec) => {
                if let Some(release) = bucketer.push(rec) {
                    take_step(trainer, release, &mut report, &mut steps, &mut capped, cfg, channel);
                }
            }
            None => break,
        }
    }
    while !capped {
        match bucketer.flush() {
            Some(release) => {
                take_step(trainer, release, &mut report, &mut steps, &mut capped, cfg, channel)
            }
            None => break,
        }
    }
    let (fills, spills) = bucketer.release_counts();
    (report.fills, report.spills) = (fills as usize, spills as usize);
    report.log.wall_secs = start.elapsed().as_secs_f64();
    report
}

/// Replay a dataset through the exact [`train_stream`] code path.
///
/// This is the reproducibility comparator for teed streaming runs: the
/// shards a teed `RunPlan` writes, read back in dataset order,
/// are the live stream — so a fresh trainer run through this function
/// produces bit-identical losses and weights to the streaming run that
/// wrote them.
pub fn train_stream_offline<O: Optimizer>(
    trainer: &mut Trainer<O>,
    dataset: &TraceDataset,
    cfg: &StreamTrainConfig,
    channel_capacity: usize,
) -> std::io::Result<StreamTrainReport> {
    let channel = TraceChannel::bounded(channel_capacity);
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let res = stream_dataset_into(dataset, &channel);
            channel.close();
            res
        });
        let report = train_stream(trainer, &channel, cfg);
        match producer.join() {
            Ok(res) => res.map(|_| report),
            Err(_) => Err(std::io::Error::other("dataset replay thread panicked")),
        }
    })
}

/// Knobs for the rank-parallel streaming loop.
#[derive(Clone, Debug)]
pub struct StreamDistConfig {
    /// Number of rank threads.
    pub ranks: usize,
    /// Sub-minibatch size a bucket releases at.
    pub batch: usize,
    /// Bucketer spill threshold (see [`StreamTrainConfig::spill_after`]).
    pub spill_after: usize,
    /// Records pulled off the stream head to pre-generate every replica
    /// identically. The replicas are then frozen — live address discovery
    /// would grow each rank's parameter set differently and break the
    /// allreduce.
    pub warmup: usize,
    /// Cap on iterations per rank (None = run until the stream ends).
    pub max_iterations: Option<usize>,
    /// Gradient-reduction strategy.
    pub strategy: AllReduceStrategy,
    /// Learning-rate schedule for Adam.
    pub lr: LrSchedule,
    /// Optional LARC trust coefficient (Adam-LARC when set).
    pub larc_trust: Option<f64>,
    /// Telemetry handle (disabled by default). When enabled, each rank
    /// emits worker-scoped `train.step` spans with nested `train.batch_read`
    /// / `train.forward` / `train.backward` / `train.allreduce_wait` /
    /// `train.optimizer` phases, plus `train.steps` counters and a
    /// `train.sub_minibatches` gauge per iteration.
    pub tel: Telemetry,
}

impl Default for StreamDistConfig {
    fn default() -> Self {
        Self {
            ranks: 2,
            batch: 16,
            spill_after: 256,
            warmup: 64,
            max_iterations: None,
            strategy: AllReduceStrategy::SparseConcat,
            lr: LrSchedule::Constant(1e-3),
            larc_trust: None,
            tel: Telemetry::disabled(),
        }
    }
}

/// The distributor → rank hand-off: released sub-minibatches, indexed
/// globally so rank `r` owns release `it * ranks + r` of iteration `it` —
/// a deterministic assignment no scheduling can perturb.
struct ReleaseFeed {
    state: Mutex<FeedState>,
    cond: Condvar,
}

struct FeedState {
    releases: Vec<Option<Vec<TraceRecord>>>,
    done: bool,
}

impl ReleaseFeed {
    fn new() -> Self {
        Self {
            state: Mutex::new(FeedState { releases: Vec::new(), done: false }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FeedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, release: Vec<TraceRecord>) {
        let mut st = self.lock();
        st.releases.push(Some(release));
        // Notify while the state lock is held: a rank that just failed its
        // predicate cannot slip between this publish and the wakeup.
        self.cond.notify_all();
        drop(st);
    }

    fn finish(&self) {
        let mut st = self.lock();
        st.done = true;
        // Notify under the lock so a rank mid-predicate-check cannot miss
        // the done flag and park forever.
        self.cond.notify_all();
        drop(st);
    }

    /// Take global release `i`, blocking until it exists; `None` once the
    /// feed is finished with fewer than `i + 1` releases (this rank's side
    /// of the stream is exhausted).
    fn take(&self, i: usize) -> Option<Vec<TraceRecord>> {
        let mut st = self.lock();
        loop {
            if i < st.releases.len() {
                return st.releases[i].take();
            }
            if st.done {
                return None;
            }
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Rank-parallel streaming training over a live trace channel.
///
/// A distributor thread pulls the channel, buckets records by trace type,
/// and publishes released sub-minibatches to a shared feed; rank `r`
/// consumes releases `it * ranks + r`, so the work split is a pure
/// function of the stream — identical for any timing. Every iteration the
/// ranks allreduce gradients plus `[loss·used, used, exhausted]`; when any
/// rank runs out of releases the reduced exhausted-bit sends *all* ranks
/// out of the loop together, before the optimizer step, exactly like the
/// failure bit in [`crate::train_distributed`] — so the replicas finish
/// bit-identical and the trailing partial round trains nobody.
///
/// Returns the rank-0 network (all replicas are identical) and the run
/// report.
pub fn train_stream_distributed(
    channel: &TraceChannel,
    net_config: IcConfig,
    cfg: &StreamDistConfig,
) -> (IcNetwork, DistReport) {
    let ranks = cfg.ranks.max(1);
    let mut warmup = Vec::with_capacity(cfg.warmup);
    while warmup.len() < cfg.warmup {
        match channel.recv() {
            Some(r) => warmup.push(r),
            None => break,
        }
    }
    let feed = ReleaseFeed::new();
    let losses: Mutex<Vec<Vec<f64>>> = Mutex::new(vec![Vec::new(); ranks]);
    let timings: Mutex<Vec<Vec<PhaseTimings>>> = Mutex::new(vec![Vec::new(); ranks]);
    let traces_total = std::sync::atomic::AtomicUsize::new(0);
    let comm_elems = std::sync::atomic::AtomicUsize::new(0);
    let nets: Mutex<Vec<Option<IcNetwork>>> = Mutex::new((0..ranks).map(|_| None).collect());
    let ctx = AllReduceCtx::new(ranks);
    let start = Instant::now();
    std::thread::scope(|s| {
        // Distributor: warm-up prefix first (training order matches the
        // single-rank loop), then the live stream, then the flush.
        let warmup_for_feed = warmup.clone();
        let feed_ref = &feed;
        let feed_tel = cfg.tel.clone();
        s.spawn(move || {
            let mut bucketer = TraceBucketer::new(BucketerConfig {
                batch: cfg.batch,
                spill_after: cfg.spill_after,
            })
            .with_telemetry(feed_tel);
            for rec in warmup_for_feed {
                if let Some(release) = bucketer.push(rec) {
                    feed_ref.push(release);
                }
            }
            while let Some(rec) = channel.recv() {
                if let Some(release) = bucketer.push(rec) {
                    feed_ref.push(release);
                }
            }
            while let Some(release) = bucketer.flush() {
                feed_ref.push(release);
            }
            feed_ref.finish();
        });
        for rank in 0..ranks {
            let ctx = &ctx;
            let feed = &feed;
            let warmup = &warmup;
            let losses = &losses;
            let timings = &timings;
            let traces_total = &traces_total;
            let comm_elems = &comm_elems;
            let nets = &nets;
            let net_config = net_config.clone();
            s.spawn(move || {
                let _tel_scope = cfg.tel.worker_scope(rank as u32);
                let mut net = IcNetwork::new(net_config);
                net.pregenerate(warmup.iter());
                // Frozen replicas: live address discovery would grow each
                // rank's parameter set differently and break the allreduce.
                net.freeze();
                let mut opt = match cfg.larc_trust {
                    Some(t) => Adam::with_larc(cfg.lr.clone(), t),
                    None => Adam::new(cfg.lr.clone()),
                };
                let mut it = 0usize;
                loop {
                    if let Some(cap) = cfg.max_iterations {
                        if it >= cap {
                            break;
                        }
                    }
                    let mut t = PhaseTimings::default();
                    // Dropped at end-of-iteration (or at the exhausted
                    // break, where it covers the final collective round) so
                    // the phase records below nest under it.
                    let step_span = cfg.tel.span("train.step");
                    let t0 = Instant::now();
                    // An exhausted rank cannot simply leave: the others are
                    // already committed to this iteration's collectives.
                    // Participate with an empty minibatch (zero gradients)
                    // and raise the bit through the reduction.
                    let (records, exhausted) = match feed.take(it * ranks + rank) {
                        Some(r) => (r, 0.0),
                        None => (Vec::new(), 1.0),
                    };
                    t.batch_read = t0.elapsed().as_secs_f64();
                    let res = accumulate_minibatch(&mut net, &records);
                    t.forward = res.timings.forward;
                    t.backward = res.timings.backward;
                    let ts = Instant::now();
                    let elems = allreduce_network(ctx, &mut net, cfg.strategy);
                    let mut stats = [res.loss * res.used as f64, res.used as f64, exhausted];
                    {
                        let mut f32buf = [stats[0] as f32, stats[1] as f32, stats[2] as f32];
                        ctx.reduce_sum(&mut f32buf);
                        stats = [f32buf[0] as f64, f32buf[1] as f64, f32buf[2] as f64];
                    }
                    t.sync = ts.elapsed().as_secs_f64();
                    if stats[2] > 0.0 {
                        // Some rank ran out of stream: every rank sees the
                        // same reduced bit and leaves here, before the
                        // optimizer step — replicas identical, the partial
                        // round discarded.
                        break;
                    }
                    let topt = Instant::now();
                    opt.begin_step();
                    net.visit_params("", &mut |n, p| opt.update(n, p));
                    t.optimizer = topt.elapsed().as_secs_f64();
                    if cfg.tel.is_enabled() {
                        let tel = &cfg.tel;
                        tel.span_record("train.batch_read", Duration::from_secs_f64(t.batch_read));
                        tel.span_record("train.forward", Duration::from_secs_f64(t.forward));
                        tel.span_record("train.backward", Duration::from_secs_f64(t.backward));
                        tel.span_record("train.allreduce_wait", Duration::from_secs_f64(t.sync));
                        tel.span_record("train.optimizer", Duration::from_secs_f64(t.optimizer));
                        tel.gauge("train.sub_minibatches", res.sub_minibatches as f64);
                        tel.count("train.steps", 1);
                        crate::trainer::record_kernel_telemetry(tel);
                    }
                    drop(step_span);
                    let global_loss = if stats[1] > 0.0 { stats[0] / stats[1] } else { f64::NAN };
                    losses.lock().unwrap_or_else(|e| e.into_inner())[rank].push(global_loss);
                    timings.lock().unwrap_or_else(|e| e.into_inner())[rank].push(t);
                    traces_total.fetch_add(res.used, std::sync::atomic::Ordering::Relaxed);
                    comm_elems.fetch_add(elems, std::sync::atomic::Ordering::Relaxed);
                    it += 1;
                }
                // Drain this rank's leftover feed slots so the distributor
                // is never stuck: nothing to do — the feed never blocks on
                // consumers. But if we leave because of the iteration cap,
                // the producer may still be pumping the channel; close it
                // so it drains instead of blocking forever.
                if cfg.max_iterations.is_some() {
                    channel.close();
                }
                nets.lock().unwrap_or_else(|e| e.into_inner())[rank] = Some(net);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let losses = losses.into_inner().unwrap_or_else(|e| e.into_inner());
    let timings = timings.into_inner().unwrap_or_else(|e| e.into_inner());
    let iters_done = losses[0].len();
    let report = DistReport {
        losses: losses[0].clone(),
        per_rank_timings: timings,
        traces_total: traces_total.into_inner(),
        wall_secs: wall,
        comm_elems_per_iter: if iters_done > 0 {
            comm_elems.into_inner() as f64 / (iters_done * ranks) as f64
        } else {
            0.0
        },
    };
    let net = nets.into_inner().unwrap_or_else(|e| e.into_inner()).remove(0).expect("rank 0 net"); // etalumis: allow(panic-freedom, reason = "one network per rank by construction")
    (net, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::Executor;
    use etalumis_simulators::BranchingModel;

    fn records(n: usize, seed: u64) -> Vec<TraceRecord> {
        let mut m = BranchingModel::standard();
        (0..n)
            .map(|i| {
                TraceRecord::from_trace(&Executor::sample_prior(&mut m, seed + i as u64), true)
            })
            .collect()
    }

    fn feed_channel(recs: Vec<TraceRecord>, capacity: usize) -> TraceChannel {
        // Unit-test producer: preload then close (capacity ≥ len).
        let chan = TraceChannel::bounded(capacity.max(recs.len()));
        for r in recs {
            chan.send(r).unwrap();
        }
        chan.close();
        chan
    }

    fn small_trainer(seed: u64) -> Trainer<Adam> {
        Trainer::new(
            IcNetwork::new(IcConfig::small([1, 1, 1], seed)),
            Adam::new(LrSchedule::Constant(2e-3)),
        )
    }

    fn params(net: &mut IcNetwork) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        net.visit_params("", &mut |n, p| out.push((n.to_string(), p.value.data().to_vec())));
        out
    }

    #[test]
    fn stream_training_reduces_loss_and_uses_every_trace() {
        let recs = records(192, 0);
        let chan = feed_channel(recs, 0);
        let mut trainer = small_trainer(1);
        let cfg =
            StreamTrainConfig { batch: 16, spill_after: 64, warmup: 48, ..Default::default() };
        let report = train_stream(&mut trainer, &chan, &cfg);
        assert_eq!(report.warmup_used, 48);
        assert_eq!(report.log.traces_seen, 192, "flush must train every delivered trace");
        let n = report.log.losses.len();
        assert!(n >= 3);
        let head = report.log.losses[0].1;
        let tail = report.log.losses[n - 1].1;
        assert!(tail < head, "streaming loss should fall: {head} -> {tail}");
        assert!(report.fills + report.spills == n);
    }

    #[test]
    fn live_and_offline_replay_are_bit_identical() {
        use etalumis_data::generate_dataset;
        let dir = std::env::temp_dir().join(format!("etalumis_strm_off_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 96, 96, &dir, 3, true).unwrap();
        let cfg = StreamTrainConfig { batch: 8, spill_after: 32, warmup: 24, ..Default::default() };

        // "Live": records preloaded into a channel in dataset order.
        let all: Vec<usize> = (0..ds.len()).collect();
        let chan = feed_channel(ds.get_many(&all).unwrap(), 0);
        let mut live = small_trainer(7);
        let live_report = train_stream(&mut live, &chan, &cfg);

        // Offline replay of the same dataset with a tiny channel.
        let mut off = small_trainer(7);
        let off_report = train_stream_offline(&mut off, &ds, &cfg, 3).unwrap();

        assert_eq!(live_report.log.losses, off_report.log.losses);
        assert_eq!(params(&mut live.net), params(&mut off.net), "weights must be bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_steps_closes_the_channel_instead_of_stranding_the_producer() {
        let chan = TraceChannel::bounded(2);
        let cfg = StreamTrainConfig {
            batch: 4,
            spill_after: 16,
            warmup: 8,
            max_steps: Some(2),
            ..Default::default()
        };
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                // Far more records than the trainer will take; must not hang.
                for r in records(200, 5) {
                    if chan.send(r).is_err() {
                        return true; // consumer closed on us — expected
                    }
                }
                chan.close();
                false
            });
            let mut trainer = small_trainer(3);
            let report = train_stream(&mut trainer, &chan, &cfg);
            assert_eq!(report.log.losses.len(), 2);
            assert!(producer.join().unwrap(), "producer should observe the early close");
        });
    }

    #[test]
    fn distributed_streaming_replicas_are_bit_identical_and_loss_falls() {
        let recs = records(256, 11);
        let cfg = StreamDistConfig {
            ranks: 2,
            batch: 8,
            spill_after: 64,
            warmup: 64,
            lr: LrSchedule::Constant(2e-3),
            ..Default::default()
        };
        let chan = feed_channel(recs.clone(), 0);
        let (mut net_a, report) =
            train_stream_distributed(&chan, IcConfig::small([1, 1, 1], 9), &cfg);
        assert!(!report.losses.is_empty());
        let n = report.losses.len();
        assert!(
            report.losses[n - 1] < report.losses[0],
            "distributed streaming loss should fall: {} -> {}",
            report.losses[0],
            report.losses[n - 1]
        );
        // Determinism: the identical stream reproduces the identical model.
        let chan = feed_channel(recs, 0);
        let (mut net_b, report_b) =
            train_stream_distributed(&chan, IcConfig::small([1, 1, 1], 9), &cfg);
        assert_eq!(report.losses, report_b.losses);
        assert_eq!(params(&mut net_a), params(&mut net_b));
    }
}
