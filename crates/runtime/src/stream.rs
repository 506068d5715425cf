//! Streaming trace delivery: the runtime side of the generate→train
//! pipeline.
//!
//! The offline pipeline (§4) stages everything through the filesystem:
//! generate shards, sort shards, train on shards. The streaming mode
//! replaces that seam with a bounded [`TraceChannel`] the worker pool
//! feeds directly:
//!
//! * **the stream** — the channel is the committer of the run's reorder
//!   window (see [`sink`](crate::sink)): it receives records in strict
//!   batch-index order. Order matters: it makes the stream's content *and
//!   sequence* a pure function of `(factory, seed, n)` — invariant over
//!   worker count and channel capacity — which is what lets a streaming
//!   training run be reproduced bit-identically from its teed shards.
//! * **the tee** — with a shard directory the window commits each index to
//!   the shards first, then to the channel, so a checkpointed streaming
//!   run stays durable, resumable, and byte-identical to the batch
//!   pipeline's output.
//! * **prefix replay** — a checkpointed [`RunPlan`](crate::RunPlan) with a
//!   stream (the tee) re-feeds the channel on resume: committed shards +
//!   the partial-shard journal are pushed into it before live generation
//!   of the remainder starts, so a consumer restarted after a crash sees
//!   exactly the stream an uninterrupted run produces.
//!
//! Back-pressure discipline: when the trainer falls behind, `channel.send`
//! blocks inside the window; workers then block either on the send or on
//! the window's lock. Nothing is dropped, memory stays bounded by
//! `capacity + reorder window`, and the pipeline cannot deadlock — the
//! consumer draining (or closing) the channel always unblocks the chain.

use crate::checkpoint::Checkpoint;
use crate::sink::Commit;
use etalumis_data::{
    journal_path, partition_prefix, read_journal, shard_path, ShardReader, TraceChannel,
    TraceRecord,
};
use std::io;
use std::path::Path;

/// The stream committer: each committed record goes into the channel. A
/// closed channel (the consumer finished early) turns the rest of the
/// stream into a drain, not an error: the run itself — and any tee — must
/// still finish.
pub(crate) struct Stream<'a> {
    pub(crate) channel: &'a TraceChannel,
}

impl Commit for Stream<'_> {
    fn commit(&mut self, _index: usize, rec: Option<TraceRecord>) {
        if let Some(rec) = rec {
            let _ = self.channel.send(rec);
        }
    }
}

/// Replay the committed prefix of a single-partition checkpointed run into
/// the channel: finished shards in roll order, then the in-progress shard's
/// journal up to its durable byte count. The number of records replayed
/// must equal the manifest watermark, where the run's window resumes.
///
/// A run with permanently failed indices cannot be replayed: its failures
/// are holes below the watermark, and healing them would append repair
/// shards out of stream order.
pub(crate) fn replay_committed_prefix(
    dir: &Path,
    manifest: &Checkpoint,
    channel: &TraceChannel,
) -> io::Result<()> {
    if !manifest.failed.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "cannot stream-resume a run with {} permanently failed trace(s): heal it \
                 with a checkpointed shard plan (no stream) first",
                manifest.failed.len()
            ),
        ));
    }
    let prefix = partition_prefix(0);
    let progress = &manifest.parts[0];
    let mut replayed = 0u64;
    // A closed channel (the consumer walked away) turns the replay into a
    // drain, exactly as it does live delivery.
    let mut feed = |records: Vec<TraceRecord>| {
        for rec in records {
            replayed += 1;
            let _ = channel.send(rec);
        }
    };
    for seq in 0..progress.finished {
        feed(ShardReader::open(shard_path(dir, &prefix, seq))?.read_all()?);
    }
    if progress.partial_records > 0 {
        let journal = journal_path(dir, &prefix, progress.finished);
        feed(read_journal(&journal, progress.partial_bytes)?);
    }
    if replayed != manifest.watermark {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "prefix replay produced {replayed} record(s) but the manifest watermark is {} \
                 — shards and manifest disagree",
                manifest.watermark
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Backend, KillSwitch};
    use crate::checkpoint::CheckpointConfig;
    use crate::dataset::DatasetGenConfig;
    use crate::plan::{RunOutput, RunPlan};
    use crate::pool::SimulatorPool;
    use etalumis_data::TraceDataset;
    use etalumis_simulators::BranchingModel;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("etalumis_stream_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn cfg(n: usize, seed: u64, workers: usize) -> DatasetGenConfig {
        DatasetGenConfig {
            n,
            traces_per_shard: 8,
            partitions: 1,
            workers,
            seed,
            ..Default::default()
        }
    }

    /// A local plan of `c` streaming into `chan`, optionally with the
    /// checkpointed shards under `dir` (the tee).
    fn stream_plan(
        c: &DatasetGenConfig,
        chan: &TraceChannel,
        tee: Option<(&Path, CheckpointConfig, Option<Arc<KillSwitch>>)>,
    ) -> io::Result<RunOutput> {
        let mut pool = SimulatorPool::from_factory(c.workers, |_| BranchingModel::standard());
        let plan = RunPlan::new(Backend::Local(&mut pool), c).stream(chan);
        match tee {
            Some((dir, ckpt, kill)) => plan.shards(dir).checkpointed(ckpt, kill).run(),
            None => plan.run(),
        }
    }

    /// The teed stream of `c` into `chan` under `dir`; returns the shards.
    fn tee(
        c: &DatasetGenConfig,
        dir: &Path,
        ckpt: CheckpointConfig,
        kill: Option<Arc<KillSwitch>>,
        chan: &TraceChannel,
    ) -> io::Result<TraceDataset> {
        stream_plan(c, chan, Some((dir, ckpt, kill))).map(|out| out.dataset)
    }

    /// Drain a channel on a thread, returning the records in arrival order.
    fn drain(channel: Arc<TraceChannel>) -> std::thread::JoinHandle<Vec<TraceRecord>> {
        std::thread::spawn(move || {
            let mut out = Vec::new();
            while let Some(r) = channel.recv() {
                out.push(r);
            }
            out
        })
    }

    #[test]
    fn stream_sink_orders_out_of_order_deliveries() {
        use crate::sink::{InOrder, TraceSink};
        use etalumis_core::{Executor, Trace};
        let chan = TraceChannel::bounded(16);
        let sink = InOrder::new(0, chan.capacity(), true, Stream { channel: &chan });
        let mut m = BranchingModel::standard();
        let traces: Vec<Trace> = (0..5).map(|s| Executor::sample_prior(&mut m, s)).collect();
        for i in [3usize, 0, 4, 1, 2] {
            sink.accept(i, TraceRecord::from_trace(&traces[i], true));
        }
        chan.close();
        let mut got = Vec::new();
        while let Some(r) = chan.recv() {
            got.push(r);
        }
        let expect: Vec<TraceRecord> =
            traces.iter().map(|t| TraceRecord::from_trace(t, true)).collect();
        assert_eq!(got, expect, "stream must be in batch-index order");
    }

    #[test]
    fn tee_sink_forwards_accept_and_reject_to_both() {
        use crate::sink::{Commit, InOrder, Tee, TraceSink};
        use etalumis_core::Executor;
        /// A committer that keeps the committed indices and the holes.
        #[derive(Default)]
        struct Seen {
            ok: Vec<usize>,
            holes: Vec<usize>,
        }
        impl Commit for Seen {
            fn commit(&mut self, index: usize, rec: Option<TraceRecord>) {
                match rec {
                    Some(_) => self.ok.push(index),
                    None => self.holes.push(index),
                }
            }
        }
        let tee = InOrder::new(0, 1, true, Tee(Seen::default(), Some(Seen::default())));
        let mut m = BranchingModel::standard();
        tee.accept(2, TraceRecord::from_trace(&Executor::sample_prior(&mut m, 2), true));
        tee.reject(1, "dead");
        tee.accept(0, TraceRecord::from_trace(&Executor::sample_prior(&mut m, 0), true));
        let Tee(a, b) = tee.into_committer().unwrap();
        let b = b.expect("the tee keeps its second part");
        assert_eq!(a.ok, vec![0, 2]);
        assert_eq!(b.ok, vec![0, 2]);
        assert_eq!(a.holes, vec![1]);
        assert_eq!(b.holes, vec![1]);
    }

    #[test]
    fn stream_is_worker_count_invariant() {
        let run = |workers: usize| {
            let chan = Arc::new(TraceChannel::bounded(7));
            let consumer = drain(chan.clone());
            stream_plan(&cfg(60, 12, workers), &chan, None).unwrap();
            consumer.join().unwrap()
        };
        let one = run(1);
        assert_eq!(one.len(), 60);
        assert_eq!(one, run(4), "stream content+order must not depend on worker count");
    }

    #[test]
    fn streaming_tasks_run_ascending_so_the_reorder_window_never_stalls() {
        // n far beyond the reorder window (capacity·2 + 64) on one worker:
        // under the default block fill (drained back-to-front) every
        // delivery would park against the window for its full wait budget
        // (~0.2 s each, minutes total); the explicit ascending task order
        // keeps the contiguous prefix advancing instead.
        let chan = Arc::new(TraceChannel::bounded(4));
        let consumer = drain(chan.clone());
        let t0 = std::time::Instant::now();
        stream_plan(&cfg(500, 9, 1), &chan, None).unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), 500);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(20),
            "stream stalled against the reorder window"
        );
    }

    #[test]
    fn teed_stream_matches_batch_pipeline_bytes_and_replays_on_resume() {
        let c = cfg(50, 77, 3);
        let ckpt = CheckpointConfig { interval: 6 };

        // Reference: the plain batch pipeline.
        let dir_ref = tmpdir("tee_ref");
        let mut pool = SimulatorPool::from_factory(c.workers, |_| BranchingModel::standard());
        let plan = RunPlan::new(Backend::Local(&mut pool), &c).shards(&dir_ref);
        let reference = plan.checkpointed(ckpt, None).run().unwrap().dataset;

        // Teed streaming run, killed partway.
        let dir = tmpdir("tee_run");
        let chan = Arc::new(TraceChannel::bounded(4));
        let consumer = drain(chan.clone());
        let kill = Arc::new(KillSwitch::after(23));
        let err = tee(&c, &dir, ckpt, Some(kill), &chan).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let partial = consumer.join().unwrap();
        assert!(partial.len() < 50, "the kill must cut the stream short");

        // Resume with a fresh channel: prefix replay + live remainder must
        // reproduce the full stream, and shards must match the reference.
        let chan = Arc::new(TraceChannel::bounded(4));
        let consumer = drain(chan.clone());
        let ds = tee(&c, &dir, ckpt, None, &chan).unwrap();
        let full = consumer.join().unwrap();
        assert_eq!(full.len(), 50);
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.shards.len(), reference.shards.len());
        for (a, b) in ds.shards.iter().zip(&reference.shards) {
            assert_eq!(a.file_name(), b.file_name());
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "teed shard {a:?} differs from the batch pipeline"
            );
        }
        // The stream equals the teed shards read back in dataset order.
        let all: Vec<usize> = (0..ds.len()).collect();
        assert_eq!(full, ds.get_many(&all).unwrap(), "stream must equal shard replay");
        std::fs::remove_dir_all(&dir_ref).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_partition_tee_is_rejected() {
        let chan = TraceChannel::bounded(4);
        let c = DatasetGenConfig { partitions: 2, ..cfg(10, 1, 1) };
        let err = tee(&c, &tmpdir("multi"), CheckpointConfig::default(), None, &chan)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(chan.is_closed(), "even a rejected run must close the channel");
    }

    #[test]
    fn closed_channel_does_not_stall_the_tee() {
        // Consumer walks away immediately: the teed run must still finish
        // and produce complete shards.
        let dir = tmpdir("walkaway");
        let chan = TraceChannel::bounded(2);
        chan.close();
        let ds = tee(&cfg(30, 5, 2), &dir, CheckpointConfig { interval: 5 }, None, &chan).unwrap();
        assert_eq!(ds.len(), 30);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
