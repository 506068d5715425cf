//! The stream batch source: records from a live trace channel or a
//! replayed dataset, bucketed online by trace type and handed to the ranks.
//!
//! The offline pipeline stages generate → sort (§4.4.3) → train through
//! the filesystem; the sort exists only to hand training address-
//! homogeneous sub-minibatches. In streaming mode the runtime feeds a
//! bounded `etalumis-data` [`TraceChannel`] and the online
//! [`TraceBucketer`] recreates that homogeneity on the fly, so training
//! starts while the simulator fleet is still running and back-pressure —
//! not disk — couples the two rates.
//!
//! A distributor thread pulls the records, buckets them, and publishes the
//! released sub-minibatches to a release feed: rank `r` of `n` owns
//! release `it·n + r`, a deterministic assignment no scheduling can
//! perturb. The feed holds at most `2·n` untaken releases, so a slow
//! trainer stalls the distributor, which stops pulling, and the channel's
//! back-pressure reaches the generator at every rank count.
//!
//! Reproducibility: the channel carries records in batch-index order (the
//! runtime's reorder window guarantees it), so training is a pure function of
//! the stream content and the plan. [`Records::Replay`] reads a
//! [`TraceDataset`] through the identical code path — over the shards a
//! teed streaming run wrote, it reproduces the live run's losses and
//! weights bit for bit.

use etalumis_data::{TraceBucketer, TraceChannel, TraceDataset, TraceRecord};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Records a replay reads per dataset access.
const REPLAY_CHUNK: usize = 256;

/// Where a stream's records come from.
#[derive(Clone, Copy)]
pub enum Records<'a> {
    /// A live channel, read until it closes.
    Channel(&'a TraceChannel),
    /// A dataset replayed in dataset order.
    Replay(&'a TraceDataset),
}

impl Records<'_> {
    /// Close a channel (idempotent) so its producer drains instead of
    /// blocking on a consumer that is gone; a replay has nothing to close.
    pub(crate) fn close(&self) {
        if let Records::Channel(channel) = self {
            channel.close();
        }
    }
}

/// A [`Records`] source as an iterator; a failed replay read ends it.
pub(crate) struct RecordReader<'a> {
    records: Records<'a>,
    /// Next dataset index a replay reads.
    next: usize,
    chunk: std::vec::IntoIter<TraceRecord>,
}

impl<'a> RecordReader<'a> {
    pub(crate) fn new(records: Records<'a>) -> Self {
        Self { records, next: 0, chunk: Vec::new().into_iter() }
    }
}

impl Iterator for RecordReader<'_> {
    type Item = io::Result<TraceRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.records {
            Records::Channel(channel) => channel.recv().map(Ok),
            Records::Replay(dataset) => {
                if self.chunk.len() == 0 && self.next < dataset.len() {
                    let end = dataset.len().min(self.next + REPLAY_CHUNK);
                    let indices: Vec<usize> = (self.next..end).collect();
                    self.next = end;
                    match dataset.get_many(&indices) {
                        Ok(chunk) => self.chunk = chunk.into_iter(),
                        Err(e) => {
                            self.next = dataset.len();
                            return Some(Err(e));
                        }
                    }
                }
                self.chunk.next().map(Ok)
            }
        }
    }
}

/// The distributor: bucket the warm-up prefix, then the rest of the
/// stream, then the final flush, publishing every release until the stream
/// ends or the ranks are gone. Finishes the feed on every exit; returns the
/// bucketer's (fills, spills).
pub(crate) fn distribute(
    reader: RecordReader<'_>,
    warmup: Vec<TraceRecord>,
    mut bucketer: TraceBucketer,
    feed: &ReleaseFeed,
) -> io::Result<(usize, usize)> {
    let pumped = pump(warmup.into_iter().map(Ok).chain(reader), &mut bucketer, feed);
    feed.finish();
    let (fills, spills) = bucketer.release_counts();
    pumped.map(|()| (fills as usize, spills as usize))
}

fn pump(
    records: impl Iterator<Item = io::Result<TraceRecord>>,
    bucketer: &mut TraceBucketer,
    feed: &ReleaseFeed,
) -> io::Result<()> {
    for rec in records {
        if let Some(release) = bucketer.push(rec?) {
            if !feed.publish(release) {
                return Ok(());
            }
        }
    }
    while let Some(release) = bucketer.flush() {
        if !feed.publish(release) {
            break;
        }
    }
    Ok(())
}

/// The distributor → rank hand-off: released sub-minibatches indexed
/// globally, at most `bound` of them published and not yet taken.
pub(crate) struct ReleaseFeed {
    state: Mutex<FeedState>,
    cond: Condvar,
    bound: usize,
}

struct FeedState {
    /// Published releases nobody has taken yet, by global index.
    waiting: BTreeMap<usize, Vec<TraceRecord>>,
    published: usize,
    /// No more releases: the stream ended, or the ranks left.
    done: bool,
}

impl ReleaseFeed {
    pub(crate) fn new(bound: usize) -> Self {
        Self {
            state: Mutex::new(FeedState { waiting: BTreeMap::new(), published: 0, done: false }),
            cond: Condvar::new(),
            bound,
        }
    }

    fn lock(&self) -> MutexGuard<'_, FeedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish the next release, blocking while `bound` releases wait;
    /// false once the feed is finished.
    fn publish(&self, release: Vec<TraceRecord>) -> bool {
        let mut st = self.lock();
        while st.waiting.len() >= self.bound && !st.done {
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.done {
            return false;
        }
        let i = st.published;
        st.waiting.insert(i, release);
        st.published += 1;
        // Notify while the state lock is held: a rank that just failed its
        // predicate cannot slip between this publish and the wakeup.
        self.cond.notify_all();
        true
    }

    /// Mark the feed finished and wake everyone waiting on it (idempotent).
    pub(crate) fn finish(&self) {
        let mut st = self.lock();
        st.done = true;
        // Notify under the lock so a waiter mid-predicate-check cannot miss
        // the done flag and park forever.
        self.cond.notify_all();
    }

    /// Take global release `i`, blocking until it is published; `None` once
    /// the feed finished without it (this rank's side of the stream is
    /// exhausted).
    pub(crate) fn take(&self, i: usize) -> Option<Vec<TraceRecord>> {
        let mut st = self.lock();
        loop {
            if let Some(release) = st.waiting.remove(&i) {
                // A slot opened: wake a distributor blocked on the bound.
                self.cond.notify_all();
                return Some(release);
            }
            if st.done {
                return None;
            }
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::network::{IcConfig, IcNetwork};
    use crate::{Records, TrainPlan, Trainer};
    use etalumis_core::Executor;
    use etalumis_data::{BucketerConfig, TraceChannel, TraceRecord};
    use etalumis_nn::{Adam, LrSchedule, Module};
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
        let report = TrainPlan::stream(
            Records::Channel(&chan),
            BucketerConfig { batch: 16, spill_after: 64 },
            48,
        )
        .run(&mut trainer)
        .unwrap();
        assert_eq!(report.warmup_used, 48);
        assert_eq!(report.traces, 192, "flush must train every delivered trace");
        let n = report.losses.len();
        assert!(n >= 3);
        let head = report.losses[0];
        let tail = report.losses[n - 1];
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
        let cfg = BucketerConfig { batch: 8, spill_after: 32 };

        // "Live": records preloaded into a channel in dataset order.
        let all: Vec<usize> = (0..ds.len()).collect();
        let chan = feed_channel(ds.get_many(&all).unwrap(), 0);
        let mut live = small_trainer(7);
        let live_report =
            TrainPlan::stream(Records::Channel(&chan), cfg, 24).run(&mut live).unwrap();

        // Offline replay of the same dataset.
        let mut off = small_trainer(7);
        let off_report = TrainPlan::stream(Records::Replay(&ds), cfg, 24).run(&mut off).unwrap();

        assert_eq!(live_report.losses, off_report.losses);
        assert_eq!(params(&mut live.net), params(&mut off.net), "weights must be bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_steps_closes_the_channel_instead_of_stranding_the_producer() {
        let chan = TraceChannel::bounded(2);
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
            let report = TrainPlan::stream(
                Records::Channel(&chan),
                BucketerConfig { batch: 4, spill_after: 16 },
                8,
            )
            .max_steps(2)
            .run(&mut trainer)
            .unwrap();
            assert_eq!(report.losses.len(), 2);
            assert!(producer.join().unwrap(), "producer should observe the early close");
        });
    }

    #[test]
    fn distributed_streaming_replicas_are_bit_identical_and_loss_falls() {
        let recs = records(256, 11);
        let plan = |chan| {
            let records = Records::Channel(chan);
            TrainPlan::stream(records, BucketerConfig { batch: 8, spill_after: 64 }, 64).ranks(2)
        };
        let chan = feed_channel(recs.clone(), 0);
        let mut a = small_trainer(9);
        let report = plan(&chan).run(&mut a).unwrap();
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
        let mut b = small_trainer(9);
        let report_b = plan(&chan).run(&mut b).unwrap();
        assert_eq!(report.losses, report_b.losses);
        assert_eq!(params(&mut a.net), params(&mut b.net));
    }
}
