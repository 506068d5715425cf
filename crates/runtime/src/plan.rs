//! The run plan: one value describing a batch of traces, one driver
//! executing it.
//!
//! Every volume consumer of the runtime runs the same loop — offline
//! dataset generation, the online training stream, a distributed rank
//! slice, parallel importance sampling: schedule trace indices over a
//! backend, deliver each completed trace to an output, account for every
//! index. A [`RunPlan`] names that loop's choices as orthogonal axes:
//!
//! | axis | values | set with |
//! |---|---|---|
//! | backend | local pool, mux pool | [`RunPlan::new`] |
//! | proposer | prior (default), any [`ProposerFactory`] | [`RunPlan::proposer`] |
//! | durability | none, checkpointed (optional [`KillSwitch`]) | [`RunPlan::checkpointed`] |
//! | placement | whole range, rank `r` of a world | [`RunPlan::rank`] |
//! | output | collect (default), shards, stream; shards + stream = tee | [`RunPlan::shards`], [`RunPlan::stream`] |
//! | telemetry | disabled (default), any handle | [`RunPlan::telemetry`] |
//!
//! [`RunPlan::run`] is the one driver: validate → reopen a completed rank
//! → open or resume the checkpoint → replay the committed prefix if
//! streaming → main pass → heal unless streaming → finalize → write the
//! rank manifest if placed.

use crate::batch::{
    Backend, BatchRunner, KillSwitch, PriorProposerFactory, ProposerFactory, RunStats,
    RuntimeConfig,
};
use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointSink, ShardLayout};
use crate::dataset::{rank_dir, DatasetGenConfig};
use crate::sink::{CollectSink, InOrder, OrderedShards, ShardedTraceSink, Tee, TraceSink};
use crate::stream::{replay_committed_prefix, Stream};
use etalumis_core::{ObserveMap, RecordBuilder, Trace, TraceTarget};
use etalumis_data::{
    parse_shard_name, partition_prefix, rank_slice, shard_path, RankManifest, TraceChannel,
    TraceDataset, REPAIR_PREFIX,
};
use etalumis_telemetry::Telemetry;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A batch of traces along the runtime's orthogonal axes (see the module
/// docs); built with the setters below and executed by [`RunPlan::run`].
pub struct RunPlan<'a> {
    backend: Backend<'a>,
    cfg: DatasetGenConfig,
    proposer: &'a dyn ProposerFactory,
    observes: Option<&'a ObserveMap>,
    dir: Option<&'a Path>,
    channel: Option<&'a TraceChannel>,
    checkpoint: Option<(CheckpointConfig, Option<Arc<KillSwitch>>)>,
    rank: Option<(usize, usize)>,
    tel: Telemetry,
}

/// What a [`RunPlan`] produced.
pub struct RunOutput {
    /// Aggregated stats of every pass this call ran (empty if a completed
    /// rank was only reopened). Failures the healing pass recovered are
    /// not listed.
    pub stats: RunStats,
    /// The delivered traces in batch order (collect output only).
    pub traces: Vec<Trace>,
    /// The written shards (empty unless the plan had a shard directory).
    pub dataset: TraceDataset,
    /// A placed run's rank manifest (batch identity, slice, shard counts,
    /// global indices that stayed failed after healing).
    pub rank_manifest: Option<RankManifest>,
}

impl<'a> RunPlan<'a> {
    /// A plan for the batch `cfg` on `backend`: prior proposals, no
    /// observations, collected in memory, not durable, whole range,
    /// untraced. `cfg.workers` sizes a mux backend's reactor set; a local
    /// pool's size is its worker count ([`Backend::workers`]).
    pub fn new(backend: Backend<'a>, cfg: &DatasetGenConfig) -> Self {
        Self {
            backend,
            cfg: *cfg,
            proposer: &PriorProposerFactory,
            observes: None,
            dir: None,
            channel: None,
            checkpoint: None,
            rank: None,
            tel: Telemetry::disabled(),
        }
    }

    /// Run under per-worker proposers from `proposer`.
    pub fn proposer(mut self, proposer: &'a dyn ProposerFactory) -> Self {
        self.proposer = proposer;
        self
    }

    /// Condition every trace on `observes`.
    pub fn observes(mut self, observes: &'a ObserveMap) -> Self {
        self.observes = Some(observes);
        self
    }

    /// Write shards under `dir` (a placed run writes `rank_dir(dir, rank)`).
    /// Without checkpointing, `cfg.ordered` (or a stream) chooses
    /// batch-index order per partition (byte-identical for any worker
    /// count) over completion order (no reorder window).
    pub fn shards(mut self, dir: &'a Path) -> Self {
        self.dir = Some(dir);
        self
    }

    /// Feed `channel` in batch-index order; it is closed when the run ends,
    /// however it ends. Needs a single-partition layout. Checkpointed and
    /// with a shard directory, this is the tee: on resume the committed
    /// prefix is replayed into the channel before live generation.
    pub fn stream(mut self, channel: &'a TraceChannel) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Make the shard output durable: commit in batch-index order with a
    /// manifest every `config.interval` traces, resume from that manifest
    /// when the same plan runs again, and heal permanent failures (unless
    /// streaming). `kill` aborts the run at a chosen delivery count, as a
    /// `SIGKILL` would.
    pub fn checkpointed(mut self, config: CheckpointConfig, kill: Option<Arc<KillSwitch>>) -> Self {
        self.checkpoint = Some((config, kill));
        self
    }

    /// Own only rank `rank`'s contiguous slice of a `world`-rank fleet
    /// ([`rank_slice`]) and finish it with a [`RankManifest`] for
    /// [`etalumis_data::merge_ranks`]. Needs checkpointing; post-healing
    /// failures are recorded in the manifest instead of failing the run.
    pub fn rank(mut self, rank: usize, world: usize) -> Self {
        self.rank = Some((rank, world));
        self
    }

    /// Thread `tel` through the workers (`runtime.*`, `mux.*`) and the
    /// checkpoint tee (`ckpt.*`). Telemetry only observes: output bytes are
    /// identical with it on or off.
    pub fn telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Execute the plan.
    ///
    /// Errors: `InvalidInput` for a plan no driver path serves (stream with
    /// `partitions ≠ 1`, checkpointing without a shard directory, placement
    /// without checkpointing, `rank ≥ world`) — before any file or the
    /// channel is touched; `Interrupted` when the kill switch fired (the
    /// same plan resumes); any trace that failed for good — except in a
    /// placed run — with a checkpointed run's manifest kept so the same plan
    /// retries it.
    pub fn run(self) -> io::Result<RunOutput> {
        let channel = self.channel;
        let result = match self.invalid() {
            Some(reason) => Err(io::Error::new(io::ErrorKind::InvalidInput, reason)),
            None => self.drive(),
        };
        // On every exit path the consumer must observe end-of-stream.
        if let Some(channel) = channel {
            channel.close();
        }
        result
    }

    /// Why no driver path serves this plan, if none does.
    fn invalid(&self) -> Option<String> {
        if self.channel.is_some() && self.cfg.partitions.max(1) != 1 {
            return Some(format!(
                "a stream needs a single-partition layout (got {}): with several partitions \
                 the shards do not record the cross-partition stream order, so the run could \
                 not be replayed",
                self.cfg.partitions
            ));
        }
        if self.checkpoint.is_some() && self.dir.is_none() {
            return Some("checkpointing needs a shard directory".into());
        }
        match self.rank {
            Some(_) if self.checkpoint.is_none() => Some(
                "a rank slice must be checkpointed: its manifest records the failures that \
                 survived the healing pass"
                    .into(),
            ),
            Some((rank, world)) if rank >= world => {
                Some(format!("rank {rank} is out of range for world_size {world}"))
            }
            _ => None,
        }
    }

    fn drive(mut self) -> io::Result<RunOutput> {
        let cfg = self.cfg;
        let (slice, dir) = match (self.rank, self.dir) {
            (Some((rank, world)), Some(root)) => {
                (rank_slice(cfg.n, rank, world), Some(rank_dir(root, rank)))
            }
            (_, dir) => (0..cfg.n, dir.map(Path::to_path_buf)),
        };
        if let (Some((rank, world)), Some(dir)) = (self.rank, &dir) {
            if let Some(manifest) = RankManifest::load(dir)? {
                return reopen_rank(&cfg, rank, world, dir, manifest);
            }
        }
        let base = slice.start;

        // Open the store: resume a checkpoint (re-feeding the stream with
        // its committed prefix), or start fresh.
        let mut remaining: Vec<usize> = (0..slice.len()).collect();
        let store = match (&dir, &self.checkpoint, self.channel) {
            (Some(dir), Some((ckpt, _)), channel) => {
                let layout = ShardLayout { n: slice.len(), base, ..cfg.layout() };
                let sink = match Checkpoint::load(dir)? {
                    Some(manifest) => {
                        let sink = CheckpointSink::resume(dir, layout, ckpt, &manifest)?;
                        if let Some(channel) = channel {
                            replay_committed_prefix(dir, &manifest, channel)?;
                        }
                        remaining = manifest.remaining();
                        sink
                    }
                    None => CheckpointSink::new(dir, layout, ckpt),
                };
                Store::Checkpoint(sink.with_telemetry(self.tel.clone()).stream(channel))
            }
            (Some(dir), None, channel) if cfg.ordered || channel.is_some() => {
                let shards = OrderedShards::new(dir, cfg.partitions, cfg.traces_per_shard);
                let window = InOrder::new(0, cfg.traces_per_shard, cfg.pruned, Tee(shards, None));
                Store::Ordered(window.stream(channel))
            }
            (Some(dir), None, _) => Store::Sharded(ShardedTraceSink::new(
                dir,
                cfg.partitions,
                cfg.traces_per_shard,
                cfg.pruned,
            )),
            (None, _, Some(channel)) => {
                Store::Stream(InOrder::new(0, channel.capacity(), cfg.pruned, Stream { channel }))
            }
            (None, _, None) => Store::Collect(CollectSink::new(cfg.n)),
        };

        // Main pass. Outputs that commit in index order (all but collect and
        // unordered shards) run ascending interleaved tasks so the
        // contiguous prefix keeps advancing; the others keep the block fill.
        let workers = self.backend.workers(cfg.workers);
        let runner = BatchRunner::new(RuntimeConfig { workers, stealing: true })
            .with_telemetry(self.tel.clone());
        let runner = match &self.checkpoint {
            Some((_, Some(kill))) => runner.with_kill_switch(kill.clone()),
            _ => runner,
        };
        let mut main = runner.clone();
        if !matches!(store, Store::Collect(_) | Store::Sharded(_)) {
            main = main.with_tasks(remaining.iter().map(|&i| i + base).collect());
        }
        let empty = ObserveMap::new();
        let observes = self.observes.unwrap_or(&empty);
        let (backend, proposer) = (self.backend.reborrow(), self.proposer);
        let mut stats = match store.records() {
            Some(sink) => {
                main.run(backend, proposer, observes, cfg.n, cfg.seed, &OffsetSink { base, sink })
            }
            None => {
                let sink = store.traces();
                main.run(backend, proposer, observes, cfg.n, cfg.seed, &OffsetSink { base, sink })
            }
        };
        if let (Store::Checkpoint(sink), None, false) = (&store, self.channel, stats.killed) {
            // Healing pass: replay any previous attempt's repair journal,
            // then re-run what is still owed with a fresh retry budget. Not
            // in stream mode: repair shards would append records out of
            // stream order.
            let holes = sink.begin_repair()?;
            if !holes.is_empty() {
                let heal = runner.with_tasks(holes.iter().map(|&i| i as usize + base).collect());
                stats.absorb(&heal.run(
                    self.backend.reborrow(),
                    self.proposer,
                    observes,
                    cfg.n,
                    cfg.seed,
                    &OffsetSink { base, sink: &sink.repair_sink() },
                ));
            }
        }
        if stats.killed {
            // Simulated process death: the manifest and journals stay
            // exactly as they stand; the same plan resumes the run.
            let at = match &store {
                Store::Checkpoint(sink) => base + sink.watermark(),
                _ => base,
            };
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!(
                    "run killed at watermark {at} of {}..{} (run the same plan again to resume)",
                    slice.start, slice.end
                ),
            ));
        }

        // What stayed failed: a checkpoint's list after healing (it carries
        // failures of earlier attempts too), otherwise this run's.
        let failed: Vec<u64> = match &store {
            Store::Checkpoint(sink) => sink.failed().iter().map(|&i| i + base as u64).collect(),
            _ => stats.failures.iter().map(|&(i, _)| i as u64).collect(),
        };
        stats.failures.retain(|&(i, _)| failed.binary_search(&(i as u64)).is_ok());
        if let (None, Some(&first)) = (self.rank, failed.first()) {
            // A checkpoint stays on disk: the failures may be a transient
            // outage, and the same plan resumes and retries them.
            let cause = stats.failures.first().map_or(String::new(), |(_, e)| format!(": {e}"));
            return Err(io::Error::other(format!(
                "{} of {} trace(s) failed permanently (first: trace {first}{cause}); run the \
                 same plan again to retry",
                failed.len(),
                slice.len()
            )));
        }
        let (paths, traces) = match store {
            Store::Checkpoint(sink) => (sink.finalize()?, Vec::new()),
            Store::Collect(sink) => (Vec::new(), sink.into_traces()),
            Store::Ordered(sink) => (sink.into_committer()?.0.finish()?, Vec::new()),
            Store::Sharded(sink) => (sink.finish()?, Vec::new()),
            Store::Stream(_) => Default::default(),
        };
        let dataset = TraceDataset::open(paths)?;
        let rank_manifest = match (self.rank, &dir) {
            (Some((rank, world)), Some(dir)) => {
                let (per_partition, repair) = count_shards(&dataset.shards, cfg.partitions.max(1));
                let manifest = rank_manifest(&cfg, rank, world, per_partition, repair, failed);
                manifest.save(dir)?;
                Some(manifest)
            }
            _ => None,
        };
        Ok(RunOutput { stats, traces, dataset, rank_manifest })
    }
}

/// Where a plan's workers deliver.
enum Store<'a> {
    Collect(CollectSink),
    /// Shards in completion order.
    Sharded(ShardedTraceSink),
    /// The stream alone.
    Stream(InOrder<Stream<'a>>),
    /// Shards in batch-index order, teed into the stream if there is one.
    Ordered(InOrder<Tee<OrderedShards, Stream<'a>>>),
    /// Checkpointed shards, teed into the stream if there is one.
    Checkpoint(CheckpointSink<'a>),
}

impl Store<'_> {
    /// The sink of a store that keeps records.
    fn records(&self) -> Option<&dyn TraceSink<RecordBuilder>> {
        match self {
            Store::Collect(_) => None,
            Store::Sharded(sink) => Some(sink),
            Store::Stream(sink) => Some(sink),
            Store::Ordered(sink) => Some(sink),
            Store::Checkpoint(sink) => Some(sink),
        }
    }

    /// The sink of a store that keeps whole traces (nothing is kept by any
    /// other).
    fn traces(&self) -> &dyn TraceSink {
        match self {
            Store::Collect(sink) => sink,
            _ => &(),
        }
    }
}

/// Translates global batch indices into a slice-local sink's index space.
///
/// A rank owns the global slice `base..base+m`; its [`CheckpointSink`] (and
/// checkpoint manifest) work in local indices `0..m` so the watermark
/// machinery is oblivious to where in the fleet the slice sits, while the
/// runner schedules *global* indices — per-trace seeding
/// (`mix_seed(seed, global_i)`) is what makes a rank's records
/// byte-identical to the same indices of a single-process run.
struct OffsetSink<'a, B> {
    base: usize,
    sink: &'a dyn TraceSink<B>,
}

impl<B: TraceTarget> TraceSink<B> for OffsetSink<'_, B> {
    fn target(&self) -> B {
        self.sink.target()
    }

    fn accept(&self, index: usize, item: B::Output) {
        self.sink.accept(index - self.base, item);
    }

    fn reject(&self, index: usize, error: &str) {
        self.sink.reject(index - self.base, error);
    }
}

/// The manifest of rank `rank` of `world`, with the given shard counts and
/// failures.
fn rank_manifest(
    cfg: &DatasetGenConfig,
    rank: usize,
    world: usize,
    shards_per_partition: Vec<u32>,
    repair_shards: u32,
    failed: Vec<u64>,
) -> RankManifest {
    let slice = rank_slice(cfg.n, rank, world);
    RankManifest {
        rank: rank as u32,
        world_size: world as u32,
        n: cfg.n as u64,
        seed: cfg.seed,
        partitions: cfg.partitions.max(1) as u32,
        traces_per_shard: cfg.traces_per_shard as u64,
        pruned: cfg.pruned,
        start: slice.start as u64,
        end: slice.end as u64,
        shards_per_partition,
        repair_shards,
        failed,
    }
}

/// A completed rank re-invoked: check the manifest describes this plan,
/// then reopen its shards without re-running anything.
fn reopen_rank(
    cfg: &DatasetGenConfig,
    rank: usize,
    world: usize,
    dir: &Path,
    manifest: RankManifest,
) -> io::Result<RunOutput> {
    let expected = rank_manifest(
        cfg,
        rank,
        world,
        manifest.shards_per_partition.clone(),
        manifest.repair_shards,
        manifest.failed.clone(),
    );
    if manifest != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "rank dir {} already holds a completed run with a different identity \
                 (manifest: {manifest:?}; requested: {expected:?})",
                dir.display()
            ),
        ));
    }
    let mut shards = Vec::new();
    for (p, &count) in manifest.shards_per_partition.iter().enumerate() {
        shards.extend((0..count as usize).map(|seq| shard_path(dir, &partition_prefix(p), seq)));
    }
    shards.extend(
        (0..manifest.repair_shards as usize).map(|seq| shard_path(dir, REPAIR_PREFIX, seq)),
    );
    Ok(RunOutput {
        stats: RunStats::default(),
        traces: Vec::new(),
        dataset: TraceDataset::open(shards)?,
        rank_manifest: Some(manifest),
    })
}

/// Count a finalized slice's shard files per partition, plus trailing
/// repair shards, for the rank manifest.
fn count_shards(shards: &[PathBuf], partitions: usize) -> (Vec<u32>, u32) {
    let mut per_partition = vec![0u32; partitions];
    let mut repair = 0u32;
    for path in shards {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        match parse_shard_name(name) {
            Some((REPAIR_PREFIX, _)) => repair += 1,
            Some((prefix, _)) => {
                if let Some(p) = (0..partitions).find(|&p| partition_prefix(p) == prefix) {
                    per_partition[p] += 1;
                }
            }
            None => {}
        }
    }
    (per_partition, repair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oversub::MuxSimulatorPool;
    use crate::pool::SimulatorPool;
    use etalumis_data::{discover_rank_dirs, merge_ranks, TraceRecord};
    use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, SimulatorServer};
    use etalumis_simulators::BranchingModel;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("etalumis_plan_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn mux_pool(k: usize) -> MuxSimulatorPool {
        MuxSimulatorPool::connect(k, "etalumis-rs", |_| {
            let (ep, sim_side) = InProcMuxEndpoint::pair();
            std::thread::spawn(move || {
                let mut server = SimulatorServer::new("plan", BranchingModel::standard());
                let mut t = sim_side;
                let _ = server.serve(&mut t);
            });
            Ok(Box::new(ep) as Box<dyn MuxEndpoint>)
        })
        .unwrap()
    }

    /// The backend column of the axis table.
    #[derive(Clone, Copy, Debug)]
    enum Column {
        /// A local pool of this many workers.
        Local(usize),
        /// Four in-process PPX sessions on `cfg.workers` reactors.
        Mux,
    }

    /// Build `plan` on a fresh backend of `column` and return its result.
    fn on<R>(column: Column, cfg: &DatasetGenConfig, plan: impl FnOnce(RunPlan<'_>) -> R) -> R {
        match column {
            Column::Local(workers) => {
                let mut pool = SimulatorPool::from_factory(workers, |_| BranchingModel::standard());
                plan(RunPlan::new(Backend::Local(&mut pool), cfg))
            }
            Column::Mux => {
                let mut pool = mux_pool(4);
                plan(RunPlan::new(Backend::Mux(&mut pool), cfg))
            }
        }
    }

    /// The output × durability × placement × telemetry row of the table.
    #[derive(Clone, Copy, Debug)]
    enum Row {
        OrderedShards,
        Checkpointed,
        KilledAndResumed,
        Tee { traced: bool },
        RanksMerged,
    }

    /// Run one cell of the table; returns its shard files as (name, bytes).
    fn cell(column: Column, row: Row, cfg: &DatasetGenConfig, tag: &str) -> Vec<(String, Vec<u8>)> {
        let ckpt = CheckpointConfig { interval: 5 };
        let dir = tmpdir(tag);
        let label = format!("{column:?} × {row:?}");
        let shards = match row {
            Row::OrderedShards => on(column, cfg, |p| p.shards(&dir).run()).unwrap().dataset.shards,
            Row::Checkpointed => {
                on(column, cfg, |p| p.shards(&dir).checkpointed(ckpt, None).run())
                    .unwrap()
                    .dataset
                    .shards
            }
            Row::KilledAndResumed => {
                let kill = Some(Arc::new(KillSwitch::after(17)));
                let err = on(column, cfg, |p| p.shards(&dir).checkpointed(ckpt, kill).run())
                    .map(|_| ())
                    .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::Interrupted, "{label}");
                on(column, cfg, |p| p.shards(&dir).checkpointed(ckpt, None).run())
                    .unwrap()
                    .dataset
                    .shards
            }
            Row::Tee { traced } => {
                let chan = Arc::new(TraceChannel::bounded(4));
                let consumer = {
                    let chan = chan.clone();
                    std::thread::spawn(move || std::iter::from_fn(|| chan.recv()).collect())
                };
                let tel = if traced { Telemetry::enabled() } else { Telemetry::disabled() };
                let ds = on(column, cfg, |p| {
                    p.shards(&dir)
                        .checkpointed(ckpt, None)
                        .stream(&chan)
                        .telemetry(tel.clone())
                        .run()
                })
                .unwrap()
                .dataset;
                let streamed: Vec<TraceRecord> = consumer.join().unwrap();
                let all: Vec<usize> = (0..ds.len()).collect();
                assert_eq!(streamed, ds.get_many(&all).unwrap(), "{label}: stream ≠ teed shards");
                if traced {
                    let counters = tel.collect().snapshot().counters;
                    assert_eq!(counters["runtime.executed"], cfg.n as u64, "{label}");
                }
                ds.shards
            }
            Row::RanksMerged => {
                for rank in 0..3 {
                    let out = on(column, cfg, |p| {
                        p.shards(&dir).checkpointed(ckpt, None).rank(rank, 3).run()
                    })
                    .unwrap();
                    assert!(out.rank_manifest.is_some_and(|m| m.failed.is_empty()), "{label}");
                }
                merge_ranks(&discover_rank_dirs(&dir).unwrap(), &dir.join("merged")).unwrap().shards
            }
        };
        let files = shards
            .iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(p).unwrap())
            })
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        files
    }

    #[test]
    fn every_backend_output_cell_writes_the_reference_bytes() {
        let cfg = DatasetGenConfig {
            n: 45,
            traces_per_shard: 8,
            partitions: 1,
            workers: 1,
            seed: 31,
            pruned: true,
            ordered: true,
        };
        let reference = cell(Column::Local(1), Row::OrderedShards, &cfg, "ref");
        assert_eq!(reference.len(), 6, "45 records in shards of 8");
        let columns = [Column::Local(1), Column::Local(3), Column::Mux];
        let rows = [
            Row::OrderedShards,
            Row::Checkpointed,
            Row::KilledAndResumed,
            Row::Tee { traced: false },
            Row::Tee { traced: true },
            Row::RanksMerged,
        ];
        for (c, column) in columns.into_iter().enumerate() {
            for (r, row) in rows.into_iter().enumerate() {
                let got = cell(column, row, &cfg, &format!("cell{c}{r}"));
                assert!(got == reference, "{column:?} × {row:?} differs from the reference");
            }
        }
    }

    #[test]
    fn ordered_shards_far_past_the_window_run_promptly_within_its_bound() {
        use etalumis_core::{ProbProgram, SimCtx};
        use etalumis_distributions::Value;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Before each trace, how many records delivered so far are not yet
        /// in a shard file (the reorder window plus each partition's open
        /// shard). Buffering the batch would leave every shard unwritten
        /// until the run ends.
        struct Watch {
            inner: BranchingModel,
            dir: PathBuf,
            delivered: usize,
            peak: Arc<AtomicUsize>,
        }
        impl ProbProgram for Watch {
            fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
                let shards = std::fs::read_dir(&self.dir).map_or(0, |d| {
                    d.filter(|e| {
                        e.as_ref().is_ok_and(|e| e.path().extension() == Some("etlm".as_ref()))
                    })
                    .count()
                });
                self.peak.fetch_max(self.delivered - 4 * shards, Ordering::Relaxed);
                self.delivered += 1;
                self.inner.run(ctx)
            }
        }

        // 500 traces on one worker against a window of 2·4 + 64 = 72 (shards
        // of 4): a delivery order that let the window fill would park every
        // later delivery for its whole wait budget (~0.2 s each).
        let cfg = DatasetGenConfig {
            n: 500,
            traces_per_shard: 4,
            partitions: 2,
            workers: 1,
            seed: 7,
            pruned: true,
            ordered: true,
        };
        let dir = tmpdir("past_window");
        let peak = Arc::new(AtomicUsize::new(0));
        let mut pool = SimulatorPool::from_factory(1, |_| Watch {
            inner: BranchingModel::standard(),
            dir: dir.clone(),
            delivered: 0,
            peak: peak.clone(),
        });
        let t0 = std::time::Instant::now();
        let ds = RunPlan::new(Backend::Local(&mut pool), &cfg).shards(&dir).run().unwrap().dataset;
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(20),
            "ordered shards stalled against the reorder window"
        );
        assert_eq!(ds.len(), cfg.n);
        let bound = 2 * cfg.traces_per_shard + 64 + cfg.partitions * cfg.traces_per_shard;
        let peak = peak.load(Ordering::Relaxed);
        assert!(peak <= bound, "{peak} records held at once, bound {bound}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_plans_touch_no_file_and_close_the_channel() {
        let root = tmpdir("invalid");
        let ckpt = CheckpointConfig::default();
        let one = DatasetGenConfig { n: 10, partitions: 1, workers: 1, ..Default::default() };
        let two = DatasetGenConfig { partitions: 2, ..one };
        for case in 0..4 {
            let chan = TraceChannel::bounded(4);
            let mut pool = SimulatorPool::from_factory(1, |_| BranchingModel::standard());
            let backend = Backend::Local(&mut pool);
            let plan = match case {
                // A stream, and a tee, over several partitions.
                0 => RunPlan::new(backend, &two).stream(&chan),
                1 => {
                    RunPlan::new(backend, &two).shards(&root).checkpointed(ckpt, None).stream(&chan)
                }
                // Placement without checkpointing.
                2 => RunPlan::new(backend, &one).shards(&root).rank(0, 2).stream(&chan),
                // rank ≥ world.
                _ => RunPlan::new(backend, &one)
                    .shards(&root)
                    .checkpointed(ckpt, None)
                    .rank(2, 2)
                    .stream(&chan),
            };
            let err = plan.run().map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "case {case}: {err}");
            assert!(chan.is_closed(), "case {case}: the channel must be closed");
            assert_eq!(chan.stats().sends, 0, "case {case}");
            assert!(!root.exists(), "case {case} touched the filesystem");
        }
    }

    /// The worker count every output kind ran on `backend` with
    /// `cfg.workers = 0`: collect, unordered shards, ordered shards, stream,
    /// checkpointed shards, tee.
    fn workers_per_output(mut backend: Backend<'_>, tag: &str) -> Vec<usize> {
        let cfg = DatasetGenConfig {
            n: 24,
            traces_per_shard: 8,
            partitions: 1,
            workers: 0,
            seed: 5,
            ..Default::default()
        };
        let ordered = DatasetGenConfig { ordered: true, ..cfg };
        let ckpt = CheckpointConfig { interval: 4 };
        (0..6)
            .map(|kind| {
                let dir = tmpdir(&format!("{tag}{kind}"));
                let chan = TraceChannel::bounded(cfg.n);
                let b = backend.reborrow();
                let plan = match kind {
                    0 => RunPlan::new(b, &cfg),
                    1 => RunPlan::new(b, &cfg).shards(&dir),
                    2 => RunPlan::new(b, &ordered).shards(&dir),
                    3 => RunPlan::new(b, &cfg).stream(&chan),
                    4 => RunPlan::new(b, &cfg).shards(&dir).checkpointed(ckpt, None),
                    _ => RunPlan::new(b, &cfg).shards(&dir).checkpointed(ckpt, None).stream(&chan),
                };
                let workers = plan.run().unwrap().stats.per_worker.len();
                let _ = std::fs::remove_dir_all(&dir);
                workers
            })
            .collect()
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn workers_zero_means_all_cores_for_every_local_output() {
        let mut pool = SimulatorPool::from_factory(0, |_| BranchingModel::standard());
        assert_eq!(pool.len(), cores());
        assert_eq!(workers_per_output(Backend::Local(&mut pool), "w0local"), vec![cores(); 6]);
    }

    #[test]
    fn workers_zero_means_min_cores_k_for_every_mux_output() {
        let mut pool = mux_pool(4);
        let expected = cores().min(4);
        assert_eq!(workers_per_output(Backend::Mux(&mut pool), "w0mux"), vec![expected; 6]);
    }
}
