//! Trace sinks: where completed traces stream as workers finish them.
//!
//! The batch runner pushes each execution to a sink the moment it returns —
//! there is no end-of-batch collection barrier, which is what lets dataset
//! generation overlap simulation with serialization. A sink chooses what
//! each execution is recorded into ([`TraceSink::target`]): sinks that keep
//! or inspect traces take whole [`Trace`]s, and every sink that writes
//! records (sharded, checkpointed, ordered, streamed) takes the
//! [`TraceRecord`] a [`RecordBuilder`] builds during the run, so no trace
//! is ever built for it.
//!
//! Sinks are shared across workers and synchronize internally; the sharded
//! sink keeps contention low by locking only the one partition a record
//! hashes to, and holds that lock only to append the record in memory. A
//! push that fills a shard claims it (takes it out and fixes its sequence
//! number) under the lock; encoding, writing and fsyncing it happen after
//! the lock is released, so a roll never stalls the other workers on that
//! partition.
//!
//! Every output that must see records in batch-index order — ordered
//! shards, checkpointed shards, the stream, and the tee of shards and
//! stream — sits behind one reorder window, `InOrder`, which hands each
//! index in ascending order to that output's committer.

use crate::batch::{spawn_workers, RuntimeConfig};
use crate::stream::Stream;
use etalumis_core::{RecordBuilder, Trace, TraceRecord, TraceTarget};
use etalumis_data::{partition_of, partition_prefix, RollingShardWriter, TraceChannel};
use etalumis_telemetry::Telemetry;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::MutexGuard;
use std::time::Duration;

/// Receives completed executions from worker threads, each recorded into
/// the target `B` the sink hands out: a [`Trace`] (the default) or a
/// [`RecordBuilder`].
///
/// `index` is the trace's position in the batch (`0..n`), so order-sensitive
/// consumers can reconstruct deterministic output regardless of which worker
/// finished first.
pub trait TraceSink<B: TraceTarget = Trace>: Sync {
    /// The empty target one execution is recorded into.
    fn target(&self) -> B;

    /// Accept one completed execution. Called from worker threads.
    fn accept(&self, index: usize, item: B::Output);

    /// Told that `index` permanently failed (its retry budget ran out).
    /// Checkpointing sinks use this to pass their commit watermark over the
    /// hole; most sinks don't care — the failure is already recorded in
    /// [`crate::RunStats::failures`].
    fn reject(&self, index: usize, error: &str) {
        let _ = (index, error);
    }
}

/// The unit sink discards every delivery.
impl TraceSink for () {
    fn target(&self) -> Trace {
        Trace::default()
    }

    fn accept(&self, _index: usize, _trace: Trace) {}
}

/// Collects the whole batch in memory, in batch order.
pub struct CollectSink {
    slots: Mutex<Vec<Option<Trace>>>,
}

impl CollectSink {
    /// Sink for a batch of `n` traces.
    pub fn new(n: usize) -> Self {
        Self { slots: Mutex::new(vec![None; n]) }
    }

    /// The delivered traces in batch order.
    ///
    /// Indices that were never delivered (failed traces — see
    /// [`crate::RunStats::failures`]) are skipped, so a batch with failures
    /// yields its partial results instead of panicking; use
    /// [`CollectSink::into_results`] when the caller needs the holes.
    pub fn into_traces(self) -> Vec<Trace> {
        self.slots.into_inner().into_iter().flatten().collect()
    }

    /// The delivered `(index, trace)` pairs in batch order, plus the list
    /// of indices that were never delivered.
    pub fn into_results(self) -> (Vec<(usize, Trace)>, Vec<usize>) {
        let mut delivered = Vec::new();
        let mut missing = Vec::new();
        for (i, t) in self.slots.into_inner().into_iter().enumerate() {
            match t {
                Some(t) => delivered.push((i, t)),
                None => missing.push(i),
            }
        }
        (delivered, missing)
    }
}

impl TraceSink for CollectSink {
    fn target(&self) -> Trace {
        Trace::default()
    }

    fn accept(&self, index: usize, trace: Trace) {
        self.slots.lock()[index] = Some(trace);
    }
}

/// Counts deliveries without keeping the traces (throughput measurement).
#[derive(Default)]
pub struct CountingSink {
    count: std::sync::atomic::AtomicUsize,
}

impl CountingSink {
    /// Traces delivered so far.
    pub fn count(&self) -> usize {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl TraceSink for CountingSink {
    fn target(&self) -> Trace {
        Trace::default()
    }

    fn accept(&self, _index: usize, _trace: Trace) {
        self.count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Streams records into `etalumis-data` shard files, partitioned by
/// trace-type hash.
///
/// Partitioning by trace type does two jobs at once: workers contend only on
/// the partition lock their trace hashes to, and each partition's shards are
/// type-homogeneous — the grouping §4.4.3's offline sort otherwise has to
/// create before training can drop sub-minibatching.
pub struct ShardedTraceSink {
    partitions: Vec<Mutex<RollingShardWriter>>,
    pruned: bool,
    /// First I/O error raised by any worker; surfaced at `finish`.
    error: Mutex<Option<io::Error>>,
}

impl ShardedTraceSink {
    /// Sink writing `partitions` independent shard streams under `dir`
    /// (files `part{p:02}_{seq:05}.etlm`), rolling every `traces_per_shard`
    /// records, with address-dictionary encoding. `pruned` records keep only
    /// controlled entries (see [`RecordBuilder::new`]). A record's partition is
    /// [`partition_of`] its trace type — the rule the cross-process merge
    /// shares, so placement is the same whether one process writes the
    /// batch or a fleet writes slices that are merged later.
    pub fn new(
        dir: impl AsRef<Path>,
        partitions: usize,
        traces_per_shard: usize,
        pruned: bool,
    ) -> Self {
        let partitions = partitions.max(1);
        let dir = dir.as_ref();
        Self {
            partitions: (0..partitions)
                .map(|p| {
                    Mutex::new(RollingShardWriter::new(
                        dir,
                        partition_prefix(p),
                        traces_per_shard,
                        true,
                    ))
                })
                .collect(),
            pruned,
            error: Mutex::new(None),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Flush every partition; returns all shard paths (partition order, then
    /// roll order) or the first error any worker hit, with no path.
    ///
    /// Taking `self` means every `accept` has returned, so every shard a
    /// worker claimed has been written: a returned path always names a
    /// complete shard. The partitions' last shards are written concurrently,
    /// on at most one thread per core; when any fails, the first failure in
    /// partition order is returned.
    pub fn finish(self) -> io::Result<Vec<PathBuf>> {
        if let Some(e) = self.error.into_inner() {
            return Err(e);
        }
        let threads = RuntimeConfig::default().resolved_workers().min(self.partitions.len());
        let mut shares: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
        for (p, w) in self.partitions.into_iter().enumerate() {
            shares[p % threads].push((p, w.into_inner()));
        }
        let mut written: Vec<_> = spawn_workers(shares, |_, share| {
            share.into_iter().map(|(p, w)| (p, w.finish())).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        written.sort_by_key(|&(p, _)| p);
        let mut paths = Vec::new();
        for (_, shards) in written {
            paths.extend(shards?);
        }
        Ok(paths)
    }
}

impl TraceSink<RecordBuilder> for ShardedTraceSink {
    fn target(&self) -> RecordBuilder {
        RecordBuilder::new(self.pruned)
    }

    fn accept(&self, _index: usize, rec: TraceRecord) {
        let p = partition_of(rec.trace_type, self.partitions.len());
        let claimed = self.partitions[p].lock().push_take_full(rec);
        // The guard dropped with that statement: a shard this push filled is
        // encoded, written and fsynced without holding the partition.
        let written =
            claimed.and_then(|full| full.map_or(Ok(()), |shard| shard.finish().map(drop)));
        if let Err(e) = written {
            self.error.lock().get_or_insert(e);
        }
    }
}

/// Parks a delivery too far past the watermark takes before it is let in
/// anyway: a descheduled worker costs memory, never liveness.
const MAX_WAITS: u32 = 4000;
const WAIT_STEP: Duration = Duration::from_micros(50);

/// The window of an output that already holds `k` records in flight (a
/// manifest interval, a channel's capacity, a shard).
fn span(k: usize) -> usize {
    2 * k.max(1) + 64
}

/// Takes the indices of an [`InOrder`] window in ascending order, each with
/// its record or `None` for a hole (an index that failed for good).
pub(crate) trait Commit: Send {
    fn commit(&mut self, index: usize, rec: Option<TraceRecord>);
}

/// The reorder window behind every index-ordered output: it keeps what
/// arrives past the watermark and commits the contiguous prefix, in index
/// order, to its committer. A rejected index is a hole; a later success
/// fills a pending hole; an index below the watermark is ignored. A
/// delivery more than the window's size past the watermark parks, bounded;
/// the worker owning the watermark pops its indices in ascending order, so
/// it never waits on a higher one.
pub(crate) struct InOrder<C> {
    pruned: bool,
    /// How far past the watermark a delivery may land before it parks.
    window: usize,
    state: Mutex<Window<C>>,
    tel: Telemetry,
}

/// A window's state, under its lock.
pub(crate) struct Window<C> {
    /// Every index below it has been committed.
    next: usize,
    /// Delivered (`Some`) or rejected (`None`) indices past `next`.
    pending: BTreeMap<usize, Option<TraceRecord>>,
    pub(crate) committer: C,
}

impl<C: Commit> InOrder<C> {
    /// A window committing `start..` to `committer`, sized for an output
    /// that holds `k` records in flight; `pruned` is the records' layout.
    pub(crate) fn new(start: usize, k: usize, pruned: bool, committer: C) -> Self {
        Self {
            pruned,
            window: span(k),
            state: Mutex::new(Window { next: start, pending: BTreeMap::new(), committer }),
            tel: Telemetry::disabled(),
        }
    }

    /// Report the window's depth at each delivery (`ckpt.pending`) and the
    /// parks taken (`ckpt.backpressure_waits`).
    pub(crate) fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Rejected indices past the watermark, waiting for the prefix.
    pub(crate) fn holes(&self) -> Vec<usize> {
        self.state.lock().pending.iter().filter(|(_, r)| r.is_none()).map(|(&i, _)| i).collect()
    }

    /// The window's state, its committer included, locked.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Window<C>> {
        self.state.lock()
    }

    /// The committer, once every delivered index has been committed.
    pub(crate) fn into_committer(self) -> io::Result<C> {
        let Window { pending, committer, .. } = self.state.into_inner();
        match pending.keys().next() {
            None => Ok(committer),
            Some(i) => Err(io::Error::other(format!("trace {i} waits behind an undelivered one"))),
        }
    }

    fn deliver(&self, index: usize, rec: Option<TraceRecord>) {
        let mut waits = 0u32;
        loop {
            let mut st = self.state.lock(); // etalumis: allow(reactor-blocking, reason = "the window lock is held across the committer (journal append, shard roll, channel hand-off) to keep index order; the park below is MAX_WAITS-capped")
            if index < st.next {
                return;
            }
            if index <= st.next + self.window || waits >= MAX_WAITS {
                let slot = st.pending.entry(index).or_insert(None);
                if rec.is_some() {
                    *slot = rec;
                }
                self.tel.gauge("ckpt.pending", st.pending.len() as f64);
                let window = &mut *st;
                while let Some(entry) = window.pending.remove(&window.next) {
                    window.committer.commit(window.next, entry);
                    window.next += 1;
                }
                if waits > 0 {
                    self.tel.count("ckpt.backpressure_waits", u64::from(waits));
                }
                return;
            }
            drop(st);
            waits += 1;
            std::thread::sleep(WAIT_STEP); // etalumis: allow(reactor-blocking, reason = "bounded backpressure park (MAX_WAITS-capped) while the reorder window is full")
        }
    }
}

impl<C: Commit> TraceSink<RecordBuilder> for InOrder<C> {
    fn target(&self) -> RecordBuilder {
        RecordBuilder::new(self.pruned)
    }

    fn accept(&self, index: usize, rec: TraceRecord) {
        self.deliver(index, Some(rec));
    }

    fn reject(&self, index: usize, _error: &str) {
        self.deliver(index, None);
    }
}

/// The tee committer: the shards `A` commit each index before `B` (the
/// channel) sees it, so a record is journaled before the trainer can see
/// it. Without `B` it is `A` alone, and no record is cloned.
pub(crate) struct Tee<A, B>(pub(crate) A, pub(crate) Option<B>);

impl<A: Commit, B: Commit> Commit for Tee<A, B> {
    fn commit(&mut self, index: usize, rec: Option<TraceRecord>) {
        match &mut self.1 {
            Some(then) => {
                self.0.commit(index, rec.clone());
                then.commit(index, rec);
            }
            None => self.0.commit(index, rec),
        }
    }
}

impl<'a, A: Commit> InOrder<Tee<A, Stream<'a>>> {
    /// Tee every committed record into `channel` too, if there is one; the
    /// window narrows to the channel's when that is smaller.
    pub(crate) fn stream(mut self, channel: Option<&'a TraceChannel>) -> Self {
        if let Some(channel) = channel {
            self.window = self.window.min(span(channel.capacity()));
            self.state.get_mut().committer.1 = Some(Stream { channel });
        }
        self
    }
}

/// The ordered-shards committer: each partition's shards roll in
/// batch-index order, so their bytes are the same for any worker count.
pub(crate) struct OrderedShards {
    writers: Vec<RollingShardWriter>,
    /// First write error; later records are dropped and it surfaces at
    /// [`OrderedShards::finish`].
    error: Option<io::Error>,
}

impl OrderedShards {
    /// `partitions` shard streams under `dir`, named and partitioned as the
    /// [`ShardedTraceSink`]'s.
    pub(crate) fn new(dir: &Path, partitions: usize, traces_per_shard: usize) -> Self {
        let writers = (0..partitions.max(1))
            .map(|p| RollingShardWriter::new(dir, partition_prefix(p), traces_per_shard, true))
            .collect();
        Self { writers, error: None }
    }

    /// Flush every partition; all shard paths in partition, then roll order.
    pub(crate) fn finish(self) -> io::Result<Vec<PathBuf>> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut paths = Vec::new();
        for w in self.writers {
            paths.extend(w.finish()?);
        }
        Ok(paths)
    }
}

impl Commit for OrderedShards {
    fn commit(&mut self, _index: usize, rec: Option<TraceRecord>) {
        let (Some(rec), None) = (rec, &self.error) else { return };
        let p = partition_of(rec.trace_type, self.writers.len());
        if let Err(e) = self.writers[p].push(rec) {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::Executor;
    use etalumis_simulators::BranchingModel;

    /// A committer that logs what it is handed.
    type Log = Vec<(usize, Option<TraceRecord>)>;

    impl Commit for Log {
        fn commit(&mut self, index: usize, rec: Option<TraceRecord>) {
            self.push((index, rec));
        }
    }

    #[test]
    fn the_window_commits_each_index_once_in_order_to_every_committer() {
        let mut m = BranchingModel::standard();
        let recs: Vec<TraceRecord> = (0..5)
            .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s), true))
            .collect();
        // (rule, deliveries, commits), each an index and whether it succeeded.
        type Steps = &'static [(usize, bool)];
        let cases: [(&str, Steps, Steps); 5] = [
            (
                "out-of-order deliveries commit in index order",
                &[(3, true), (0, true), (4, true), (1, true), (2, true)],
                &[(0, true), (1, true), (2, true), (3, true), (4, true)],
            ),
            (
                "a reject is a hole",
                &[(0, true), (1, false), (2, true)],
                &[(0, true), (1, false), (2, true)],
            ),
            (
                "a later success overwrites a pending hole",
                &[(2, false), (2, true), (0, true), (1, true)],
                &[(0, true), (1, true), (2, true)],
            ),
            (
                "a reject never overwrites a pending success",
                &[(1, true), (1, false), (0, true)],
                &[(0, true), (1, true)],
            ),
            (
                "an index below the watermark is ignored",
                &[(0, true), (1, false), (0, false), (1, true), (2, true)],
                &[(0, true), (1, false), (2, true)],
            ),
        ];
        for (rule, delivered, committed) in cases {
            let deliver = |sink: &dyn TraceSink<RecordBuilder>| {
                for &(i, ok) in delivered {
                    match ok {
                        true => sink.accept(i, recs[i].clone()),
                        false => sink.reject(i, "dead"),
                    }
                }
            };
            let expect: Log =
                committed.iter().map(|&(i, ok)| (i, ok.then(|| recs[i].clone()))).collect();
            let alone = InOrder::new(0, 1, true, Log::new());
            deliver(&alone);
            assert_eq!(alone.into_committer().unwrap(), expect, "{rule}");
            // A tee: every part sees every index, holes included.
            let tee = InOrder::new(0, 1, true, Tee(Log::new(), Some(Log::new())));
            deliver(&tee);
            let Tee(first, then) = tee.into_committer().unwrap();
            assert_eq!((first, then), (expect.clone(), Some(expect.clone())), "{rule}: tee");
            // The stream: the successes, in index order.
            let chan = TraceChannel::bounded(8);
            deliver(&InOrder::new(0, 8, true, Stream { channel: &chan }));
            chan.close();
            let streamed: Vec<TraceRecord> = std::iter::from_fn(|| chan.recv()).collect();
            let successes: Vec<TraceRecord> = expect.into_iter().filter_map(|(_, r)| r).collect();
            assert_eq!(streamed, successes, "{rule}: stream");
        }
        // An index left waiting behind one never delivered is an error, not
        // a silent loss.
        let gap = InOrder::new(0, 1, true, Log::new());
        gap.accept(1, recs[1].clone());
        assert!(gap.into_committer().is_err());
    }

    #[test]
    fn collect_sink_orders_by_index() {
        let sink = CollectSink::new(3);
        let mut m = BranchingModel::standard();
        let traces: Vec<Trace> = (0..3).map(|s| Executor::sample_prior(&mut m, s)).collect();
        // Deliver out of order.
        sink.accept(2, traces[2].clone());
        sink.accept(0, traces[0].clone());
        sink.accept(1, traces[1].clone());
        let out = sink.into_traces();
        for (a, b) in out.iter().zip(&traces) {
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn partial_delivery_returns_results_and_holes_without_panicking() {
        let sink = CollectSink::new(4);
        let mut m = BranchingModel::standard();
        sink.accept(0, Executor::sample_prior(&mut m, 0));
        sink.accept(2, Executor::sample_prior(&mut m, 2));
        sink.reject(1, "simulator died"); // default no-op, must not panic
        let (delivered, missing) = sink.into_results();
        assert_eq!(delivered.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(missing, vec![1, 3]);

        // into_traces yields the partial batch rather than panicking.
        let sink = CollectSink::new(3);
        sink.accept(1, Executor::sample_prior(&mut m, 1));
        assert_eq!(sink.into_traces().len(), 1);
    }

    #[test]
    fn sharded_sink_partitions_by_trace_type() {
        let dir = std::env::temp_dir().join(format!("etalumis_sink_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = ShardedTraceSink::new(&dir, 2, 8, true);
        let mut m = BranchingModel::standard();
        let mut expected = std::collections::HashMap::new();
        for s in 0..40u64 {
            let t = Executor::sample_prior(&mut m, s);
            *expected.entry(t.trace_type().0 % 2).or_insert(0usize) += 1;
            sink.accept(s as usize, TraceRecord::from_trace(&t, true));
        }
        let paths = sink.finish().unwrap();
        let mut per_part = std::collections::HashMap::new();
        let mut total = 0usize;
        for p in &paths {
            let mut r = etalumis_data::ShardReader::open(p).unwrap();
            for rec in r.read_all().unwrap() {
                *per_part.entry(rec.trace_type % 2).or_insert(0usize) += 1;
                // The file's partition matches the record's hash partition.
                let fname = p.file_name().unwrap().to_str().unwrap();
                assert!(fname.starts_with(&format!("part{:02}", rec.trace_type % 2)));
                total += 1;
            }
        }
        assert_eq!(total, 40);
        assert_eq!(per_part, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_rolls_return_complete_shards_in_partition_then_roll_order() {
        use etalumis_core::{ObserveMap, PriorProposer};
        use etalumis_data::{encode_record, generate_dataset, parse_shard_name, TraceDataset};
        use rand::{rngs::StdRng, SeedableRng};

        let dir = std::env::temp_dir().join(format!("etalumis_sink_rolls_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (n, seed) = (500, 17);
        // The serial reference, and the same trace stream it drew, replayed
        // by hand so four threads can deliver it to the sink concurrently.
        let mut m = BranchingModel::standard();
        let reference = generate_dataset(&mut m, n, 8, &dir.join("serial"), seed, true).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let traces: Vec<Trace> = (0..n)
            .map(|_| {
                Executor::try_execute(&mut m, &mut PriorProposer, &ObserveMap::new(), &mut rng)
                    .unwrap()
            })
            .collect();
        let sink = ShardedTraceSink::new(dir.join("sink"), 2, 8, true);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (sink, traces, start) = (&sink, &traces, &start);
                s.spawn(move || {
                    start.wait();
                    for i in (t..n).step_by(4) {
                        sink.accept(i, TraceRecord::from_trace(&traces[i], true));
                    }
                });
            }
        });
        let paths = sink.finish().unwrap();
        let names: Vec<(String, usize)> = paths
            .iter()
            .map(|p| {
                let (prefix, seq) = parse_shard_name(p.file_name().unwrap().to_str().unwrap())
                    .expect("a shard name");
                (prefix.to_string(), seq)
            })
            .collect();
        let mut in_order = names.clone();
        in_order.sort();
        assert_eq!(names, in_order, "paths must come in (partition, seq) order");
        for (k, (prefix, seq)) in names.iter().enumerate() {
            let first = names.iter().position(|(p, _)| p == prefix).unwrap();
            assert_eq!(*seq, k - first, "{prefix} skips a roll");
        }
        for p in &paths {
            etalumis_data::ShardReader::open(p).unwrap();
        }
        let multiset = |ds: &TraceDataset| {
            let all: Vec<usize> = (0..ds.len()).collect();
            let mut recs: Vec<Vec<u8>> = ds
                .get_many(&all)
                .unwrap()
                .iter()
                .map(|r| encode_record(r, None).to_vec())
                .collect();
            recs.sort();
            recs
        };
        let got = TraceDataset::open(paths).unwrap();
        assert_eq!(got.len(), n);
        assert_eq!(multiset(&got), multiset(&reference));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_shard_write_surfaces_from_finish_with_no_paths() {
        let dir = std::env::temp_dir().join(format!("etalumis_sink_fail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory where the first shard must land: its rename fails.
        std::fs::create_dir_all(etalumis_data::shard_path(&dir, &partition_prefix(0), 0)).unwrap();
        let sink = ShardedTraceSink::new(&dir, 1, 8, true);
        let mut m = BranchingModel::standard();
        for s in 0..20u64 {
            sink.accept(
                s as usize,
                TraceRecord::from_trace(&Executor::sample_prior(&mut m, s), true),
            );
        }
        assert!(sink.finish().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
