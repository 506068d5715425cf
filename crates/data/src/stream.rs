//! The streaming generate→train seam: a bounded trace channel and the
//! online trace-type bucketer.
//!
//! The paper's offline pipeline (§4) generates traces to disk, sorts them
//! by trace type (§4.4.3), and only then trains — the sort exists purely so
//! minibatches are address-homogeneous and sub-minibatching disappears.
//! This module replaces that filesystem-staged hand-off with one dataflow:
//!
//! * [`TraceChannel`] — a bounded, back-pressured MPSC queue of
//!   [`TraceRecord`]s, std-only (`Mutex` + `Condvar`, matching the `Mux`
//!   reactor's no-async discipline). Producers are the runtime's worker
//!   threads; the consumer is the streaming trainer. When the consumer is
//!   slower than the simulators, `send` blocks — the back-pressure
//!   propagates through the runtime's sink into the worker pool, so memory
//!   stays bounded no matter how fast generation runs.
//! * [`TraceBucketer`] — the online replacement for
//!   [`sort_dataset`](crate::sort_dataset): records accumulate in
//!   per-trace-type buckets and a full bucket is released as an
//!   address-homogeneous sub-minibatch the moment it reaches batch size; a
//!   deterministic spill policy releases the largest partial bucket when no
//!   bucket has filled for a while, so rare trace types still reach the
//!   trainer instead of starving in a bucket forever.
//!
//! Both halves are deterministic functions of their input sequence: a
//! channel delivers records in exactly the order they were sent, and the
//! bucketer's releases (including spills and the final flush) depend only
//! on the record order — which is what lets a streaming run be replayed
//! bit-identically from the teed shards (see the runtime's `stream` module).

use crate::record::TraceRecord;
use etalumis_telemetry::Telemetry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// The receiving half of a [`TraceChannel`] closed with records still owed.
///
/// Returned by [`TraceChannel::send`] with the undelivered record, so a
/// producer that tees (shards + channel) can keep writing shards after the
/// trainer has gone away.
#[derive(Debug)]
pub struct ChannelClosed(pub TraceRecord);

impl std::fmt::Display for ChannelClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace channel closed by the consumer")
    }
}

impl std::error::Error for ChannelClosed {}

/// Occupancy counters of a [`TraceChannel`], for back-pressure diagnostics
/// (the `streaming` bench prints them beside its speedup).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Records accepted by `send`.
    pub sends: u64,
    /// Records handed out by `recv`.
    pub recvs: u64,
    /// `send` calls that had to block on a full channel (back-pressure
    /// events — a high count means the consumer is the bottleneck).
    pub blocked_sends: u64,
    /// `recv` calls that had to block on an empty channel (a high count
    /// means the producers are the bottleneck).
    pub blocked_recvs: u64,
    /// Highest queue occupancy ever observed.
    pub max_occupancy: usize,
}

impl ChannelStats {
    /// Fold the snapshot into a telemetry handle: `stream.sends`,
    /// `stream.recvs`, `stream.blocked_sends`, `stream.blocked_recvs`
    /// counters plus a `stream.max_occupancy` gauge. Counter merging in the
    /// collector makes repeated snapshots additive, so call this once per
    /// channel at end of run.
    pub fn record_to(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        tel.count("stream.sends", self.sends);
        tel.count("stream.recvs", self.recvs);
        tel.count("stream.blocked_sends", self.blocked_sends);
        tel.count("stream.blocked_recvs", self.blocked_recvs);
        tel.gauge("stream.max_occupancy", self.max_occupancy as f64);
    }
}

struct ChannelState {
    queue: VecDeque<TraceRecord>,
    closed: bool,
}

/// A bounded, blocking, back-pressured queue of trace records.
///
/// Multiple producers (runtime workers) and any number of consumers share
/// one channel by reference; all waiting is `Condvar`-based, no spinning.
/// Closing the channel (idempotent, either side may do it) unblocks both
/// sides: pending `send`s fail with [`ChannelClosed`], and `recv` drains
/// what is queued then returns `None`.
pub struct TraceChannel {
    capacity: usize,
    state: Mutex<ChannelState>,
    not_full: Condvar,
    not_empty: Condvar,
    sends: AtomicU64,
    recvs: AtomicU64,
    blocked_sends: AtomicU64,
    blocked_recvs: AtomicU64,
    max_occupancy: AtomicUsize,
    tel: Telemetry,
}

impl TraceChannel {
    /// A channel holding at most `capacity` records (clamped to ≥ 1).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(ChannelState { queue: VecDeque::new(), closed: false }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            sends: AtomicU64::new(0),
            recvs: AtomicU64::new(0),
            blocked_sends: AtomicU64::new(0),
            blocked_recvs: AtomicU64::new(0),
            max_occupancy: AtomicUsize::new(0),
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle (call before sharing the channel). Each
    /// accepted `send` emits a `stream.occupancy` gauge (the queue depth
    /// time series); blocked sends and receives emit
    /// `stream.blocked_send` / `stream.blocked_recv` counters as the
    /// back-pressure is felt.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently queued.
    pub fn len(&self) -> usize {
        self.lock_state().queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`TraceChannel::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock_state().closed
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ChannelState> {
        // A panicking holder means a worker died mid-queue-operation; the
        // queue itself (VecDeque of owned records) cannot be left torn, so
        // continuing with the poisoned state is sound and keeps one dead
        // worker from wedging the rest of the pipeline.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocking send: waits while the channel is full, fails with the
    /// record once the channel is closed.
    pub fn send(&self, rec: TraceRecord) -> Result<(), ChannelClosed> {
        let mut state = self.lock_state();
        let mut counted_block = false;
        while state.queue.len() >= self.capacity && !state.closed {
            if !counted_block {
                self.blocked_sends.fetch_add(1, Ordering::Relaxed);
                self.tel.count("stream.blocked_send", 1);
                counted_block = true;
            }
            // etalumis: allow(reactor-blocking, reason = "bounded backpressure park: the channel contract is blocking-send, and close() wakes every parked sender")
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.closed {
            return Err(ChannelClosed(rec));
        }
        state.queue.push_back(rec);
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.max_occupancy.fetch_max(state.queue.len(), Ordering::Relaxed);
        self.tel.gauge("stream.occupancy", state.queue.len() as f64);
        // Notify while the state lock is still held: a receiver that just
        // failed its predicate cannot slip between our push and this wakeup.
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking receive: waits while the channel is empty, returns `None`
    /// once it is closed *and* drained.
    pub fn recv(&self) -> Option<TraceRecord> {
        let mut state = self.lock_state();
        let mut counted_block = false;
        while state.queue.is_empty() && !state.closed {
            if !counted_block {
                self.blocked_recvs.fetch_add(1, Ordering::Relaxed);
                self.tel.count("stream.blocked_recv", 1);
                counted_block = true;
            }
            state = self.not_empty.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        let rec = state.queue.pop_front();
        if rec.is_some() {
            self.recvs.fetch_add(1, Ordering::Relaxed);
        }
        // Notify under the lock so a sender checking fullness cannot race
        // between our pop and the wakeup.
        self.not_full.notify_one();
        rec
    }

    /// Close the channel (idempotent). Queued records stay receivable;
    /// blocked senders fail, blocked receivers drain and finish.
    pub fn close(&self) {
        let mut state = self.lock_state();
        state.closed = true;
        // Notify under the lock: a sender/receiver mid-predicate-check
        // cannot miss the close and park forever.
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Snapshot of the occupancy counters.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            sends: self.sends.load(Ordering::Relaxed),
            recvs: self.recvs.load(Ordering::Relaxed),
            blocked_sends: self.blocked_sends.load(Ordering::Relaxed),
            blocked_recvs: self.blocked_recvs.load(Ordering::Relaxed),
            max_occupancy: self.max_occupancy.load(Ordering::Relaxed),
        }
    }
}

/// Knobs for the [`TraceBucketer`].
#[derive(Clone, Copy, Debug)]
pub struct BucketerConfig {
    /// Release a bucket the moment it holds this many records (the
    /// sub-minibatch size; the paper trains on 64 per rank).
    pub batch: usize,
    /// Spill policy: after this many consecutive pushes without any bucket
    /// filling, release the largest partial bucket anyway. Rare trace types
    /// (the tail of the 38-way decay branching) would otherwise sit in a
    /// bucket forever while common types monopolize the trainer.
    pub spill_after: usize,
}

impl Default for BucketerConfig {
    fn default() -> Self {
        Self { batch: 64, spill_after: 1024 }
    }
}

/// Online trace-type bucketing: the streaming replacement for the offline
/// sort (§4.4.3).
///
/// Every released `Vec<TraceRecord>` is address-homogeneous (single trace
/// type), so the trainer can run it as one batched forward/backward with no
/// sub-minibatch split — the same property the offline sort bought, paid
/// for in bounded memory (`batch` × live trace types) instead of a second
/// copy of the dataset on disk.
///
/// Determinism: the sequence of releases (who, when, spills included) is a
/// pure function of the input record sequence. Two consumers fed identical
/// streams — e.g. a live run and its teed-shard replay — train on
/// identical sub-minibatches in identical order.
pub struct TraceBucketer {
    config: BucketerConfig,
    /// BTreeMap keyed by trace type: iteration (and therefore flush order
    /// and tie-breaks) is structurally deterministic, not hash-seeded.
    buckets: BTreeMap<u64, Vec<TraceRecord>>,
    /// Pushes since the last release (fill or spill).
    since_release: usize,
    /// Total records currently bucketed.
    pending: usize,
    /// Buckets released because they filled.
    fills: u64,
    /// Buckets released by the spill policy.
    spills: u64,
    tel: Telemetry,
}

impl TraceBucketer {
    /// A bucketer with the given release policy (both knobs clamped to
    /// ≥ 1). `spill_after` below `batch` is legitimate: it bounds release
    /// latency even when no bucket can ever fill (push checks the fill
    /// condition first, so a spill never preempts a fill on the same push).
    pub fn new(config: BucketerConfig) -> Self {
        let config =
            BucketerConfig { batch: config.batch.max(1), spill_after: config.spill_after.max(1) };
        Self {
            config,
            buckets: BTreeMap::new(),
            since_release: 0,
            pending: 0,
            fills: 0,
            spills: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle. Releases emit `stream.fill` /
    /// `stream.spill` counters — both are deterministic events (a pure
    /// function of the input record sequence), so their totals must match
    /// across a live run and its teed-shard replay.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Records currently held back in partial buckets.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// (buckets released full, buckets released by spilling).
    pub fn release_counts(&self) -> (u64, u64) {
        (self.fills, self.spills)
    }

    /// Feed one record; returns a released sub-minibatch if this push
    /// filled a bucket or tripped the spill policy.
    pub fn push(&mut self, rec: TraceRecord) -> Option<Vec<TraceRecord>> {
        let key = rec.trace_type;
        let bucket = self.buckets.entry(key).or_default();
        bucket.push(rec);
        self.pending += 1;
        self.since_release += 1;
        if bucket.len() >= self.config.batch {
            let out = self.take_bucket(key);
            self.fills += 1;
            self.since_release = 0;
            self.tel.count("stream.fill", 1);
            return Some(out);
        }
        if self.since_release >= self.config.spill_after {
            let key = self.largest_bucket()?;
            let out = self.take_bucket(key);
            self.spills += 1;
            self.since_release = 0;
            self.tel.count("stream.spill", 1);
            return Some(out);
        }
        None
    }

    /// Release one remaining partial bucket (largest first, ties broken by
    /// the lower trace type — the same deterministic order
    /// `sub_minibatches` uses); `None` once everything has drained. Call
    /// repeatedly at end-of-stream.
    pub fn flush(&mut self) -> Option<Vec<TraceRecord>> {
        let key = self.largest_bucket()?;
        // An end-of-stream flush is an undersized release, like a spill.
        self.spills += 1;
        self.tel.count("stream.spill", 1);
        Some(self.take_bucket(key))
    }

    /// The largest non-empty bucket's trace type (ties: lowest type).
    fn largest_bucket(&self) -> Option<u64> {
        self.buckets
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(&k, b)| (b.len(), k))
            // max_by_key returns the *last* max; order (len, Reverse-less
            // key) by comparing on (len, !key) via min of key for equal len.
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, k)| k)
    }

    fn take_bucket(&mut self, key: u64) -> Vec<TraceRecord> {
        let out = self.buckets.remove(&key).unwrap_or_default();
        self.pending -= out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::Executor;
    use etalumis_simulators::BranchingModel;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn records(n: usize, seed0: u64) -> Vec<TraceRecord> {
        let mut m = BranchingModel::standard();
        (0..n)
            .map(|s| {
                TraceRecord::from_trace(&Executor::sample_prior(&mut m, seed0 + s as u64), true)
            })
            .collect()
    }

    #[test]
    fn channel_delivers_in_order_across_threads() {
        let chan = Arc::new(TraceChannel::bounded(4));
        let recs = records(50, 0);
        let expect = recs.clone();
        let producer = {
            let chan = chan.clone();
            std::thread::spawn(move || {
                for r in recs {
                    chan.send(r).unwrap();
                }
                chan.close();
            })
        };
        let mut got = Vec::new();
        while let Some(r) = chan.recv() {
            got.push(r);
        }
        producer.join().unwrap();
        assert_eq!(got, expect);
        let stats = chan.stats();
        assert_eq!(stats.sends, 50);
        assert_eq!(stats.recvs, 50);
        assert!(stats.max_occupancy <= 4);
    }

    #[test]
    fn full_channel_blocks_until_drained_and_tracks_backpressure() {
        let chan = Arc::new(TraceChannel::bounded(2));
        let recs = records(10, 3);
        let producer_done = Arc::new(AtomicBool::new(false));
        let producer = {
            let chan = chan.clone();
            let done = producer_done.clone();
            std::thread::spawn(move || {
                for r in recs {
                    chan.send(r).unwrap();
                }
                done.store(true, Ordering::SeqCst);
                chan.close();
            })
        };
        // Give the producer time to hit the bound.
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!producer_done.load(Ordering::SeqCst), "producer must block on a full channel");
        assert_eq!(chan.len(), 2);
        let mut n = 0;
        while chan.recv().is_some() {
            n += 1;
        }
        producer.join().unwrap();
        assert_eq!(n, 10);
        assert!(chan.stats().blocked_sends > 0, "the bound must have been felt");
    }

    #[test]
    fn close_unblocks_producer_with_the_record() {
        let chan = Arc::new(TraceChannel::bounded(1));
        let mut recs = records(2, 7);
        chan.send(recs.remove(0)).unwrap();
        let blocked = recs.remove(0);
        let expect_type = blocked.trace_type;
        let producer = {
            let chan = chan.clone();
            std::thread::spawn(move || chan.send(blocked))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        chan.close();
        let err = producer.join().unwrap().expect_err("send into a closed channel must fail");
        assert_eq!(err.0.trace_type, expect_type, "the record rides back in the error");
        // The queued record is still receivable; then the closed channel
        // reports end-of-stream.
        assert!(chan.recv().is_some());
        assert!(chan.recv().is_none());
        assert!(chan.send(records(1, 9).remove(0)).is_err());
    }

    #[test]
    fn bucketer_releases_are_homogeneous_and_exhaustive() {
        let recs = records(200, 11);
        let mut b = TraceBucketer::new(BucketerConfig { batch: 8, spill_after: 10_000 });
        let mut released = Vec::new();
        for r in recs.clone() {
            if let Some(sub) = b.push(r) {
                released.push(sub);
            }
        }
        let in_stream_releases = released.len() as u64;
        while let Some(sub) = b.flush() {
            released.push(sub);
        }
        assert!(b.is_empty());
        let total: usize = released.iter().map(|s| s.len()).sum();
        assert_eq!(total, 200, "every record must come back out");
        for sub in &released {
            let t = sub[0].trace_type;
            assert!(sub.iter().all(|r| r.trace_type == t), "sub-minibatch must be homogeneous");
        }
        // With the spill threshold unreachable, every in-stream release is a
        // fill; the end-of-stream flushes count as spills (undersized).
        let (fills, spills) = b.release_counts();
        assert_eq!(fills, in_stream_releases);
        assert_eq!(spills, released.len() as u64 - in_stream_releases);
        assert!(fills > 0);
    }

    #[test]
    fn bucketer_release_order_is_structurally_deterministic() {
        // Regression test for the lint determinism contract: the release
        // sequence (fills, spill tie-breaks, flush order) must be a pure
        // function of the input record sequence. A hash-ordered bucket map
        // would make the spill/flush victim depend on per-instance hasher
        // seeds — two bucketers fed the identical stream would disagree.
        let recs = records(300, 23);
        let run = |recs: &[TraceRecord]| {
            let mut b = TraceBucketer::new(BucketerConfig { batch: 9, spill_after: 7 });
            let mut out = Vec::new();
            for r in recs.iter().cloned() {
                if let Some(sub) = b.push(r) {
                    out.push(sub);
                }
            }
            while let Some(sub) = b.flush() {
                out.push(sub);
            }
            out
        };
        let first = run(&recs);
        let second = run(&recs);
        assert_eq!(first, second, "release sequence must be identical run-to-run");
        // Flush drains largest-first with ties broken by the lower trace
        // type — pin the tie-break direction, not just self-consistency.
        let mut tail = TraceBucketer::new(BucketerConfig { batch: 1000, spill_after: 1000 });
        for r in records(40, 31) {
            assert!(tail.push(r).is_none(), "no release may fire below both thresholds");
        }
        let mut flushed = Vec::new();
        while let Some(sub) = tail.flush() {
            flushed.push((sub.len(), sub[0].trace_type));
        }
        let mut expect = flushed.clone();
        expect.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        assert_eq!(flushed, expect, "flush must drain largest-first, lowest type on ties");
    }

    #[test]
    fn spill_policy_releases_rare_types() {
        // One rare record, then a stream that never fills its own bucket
        // fast enough: the spill must eventually release something.
        let recs = records(64, 5);
        let mut b = TraceBucketer::new(BucketerConfig { batch: 1000, spill_after: 16 });
        let mut released = 0usize;
        for r in recs {
            if let Some(sub) = b.push(r) {
                assert!(!sub.is_empty());
                released += sub.len();
            }
        }
        assert!(released > 0, "the spill policy must have fired (batch unreachable)");
        let (fills, spills) = b.release_counts();
        assert_eq!(fills, 0);
        assert!(spills >= 1);
    }

    #[test]
    fn bucketer_is_deterministic_over_identical_streams() {
        let recs = records(300, 21);
        let run = |input: &[TraceRecord]| {
            let mut b = TraceBucketer::new(BucketerConfig { batch: 8, spill_after: 24 });
            let mut out = Vec::new();
            for r in input.iter().cloned() {
                if let Some(sub) = b.push(r) {
                    out.push(sub);
                }
            }
            while let Some(sub) = b.flush() {
                out.push(sub);
            }
            out
        };
        assert_eq!(run(&recs), run(&recs), "identical input ⇒ identical release sequence");
    }
}
