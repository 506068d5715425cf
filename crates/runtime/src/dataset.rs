//! Dataset generation on the runtime: the batch every [`RunPlan`] runs,
//! and the two generation entry points the benchmark names.
//!
//! The paper's offline training mode needs millions of prior traces on disk
//! (15M for the τ benchmark); generation throughput is simulator-bound and
//! embarrassingly parallel. Each entry point below is one [`RunPlan`] with
//! a shard output — over a local pool or a multiplexed remote pool;
//! checkpointed, streamed, and rank-sliced generation are the same plan
//! with more axes set. The serial `etalumis_data::generate_dataset` is not
//! one of them: it draws every trace from one shared random stream, where a
//! plan seeds trace `i` with [`mix_seed`](crate::mix_seed)`(seed, i)`, so
//! its records differ from any plan's, a 1-worker plan's included.

use crate::batch::Backend;
use crate::checkpoint::ShardLayout;
use crate::oversub::MuxSimulatorPool;
use crate::plan::RunPlan;
use crate::pool::SimulatorPool;
use etalumis_core::ProbProgram;
use etalumis_data::TraceDataset;
use std::path::{Path, PathBuf};

/// The batch a [`RunPlan`] runs: its size, seed and worker count, and the
/// shard layout of any shard output.
#[derive(Clone, Copy, Debug)]
pub struct DatasetGenConfig {
    /// Traces to generate.
    pub n: usize,
    /// Records per shard file before rolling.
    pub traces_per_shard: usize,
    /// Trace-type hash partitions (independent shard streams; a stream
    /// needs exactly one).
    pub partitions: usize,
    /// Worker threads (0 = all cores): the local pool
    /// [`generate_dataset_parallel`] builds, or the reactors driving a mux
    /// pool, capped at its session count (see [`Backend::workers`]).
    pub workers: usize,
    /// Batch seed; trace `i` derives its RNG from `(seed, i)` only.
    pub seed: u64,
    /// Prune records to controlled entries + observation (training layout).
    pub pruned: bool,
    /// `true`: write each partition in batch-index order through the
    /// plan's reorder window — shard files are byte-identical for any
    /// worker count. `false`: stream through the
    /// [`crate::ShardedTraceSink`] in completion order — the multiset of
    /// records is still worker-count invariant but their order within a
    /// partition is not. Checkpointed and streamed runs always commit in
    /// batch-index order.
    pub ordered: bool,
}

impl Default for DatasetGenConfig {
    fn default() -> Self {
        Self {
            n: 0,
            traces_per_shard: 10_000,
            partitions: 4,
            workers: 0,
            seed: 0,
            pruned: true,
            ordered: false,
        }
    }
}

impl DatasetGenConfig {
    /// The shard-layout slice of this config (what a checkpoint validates).
    pub fn layout(&self) -> ShardLayout {
        ShardLayout {
            n: self.n,
            seed: self.seed,
            base: 0,
            partitions: self.partitions.max(1),
            traces_per_shard: self.traces_per_shard,
            pruned: self.pruned,
        }
    }
}

/// Generate `cfg.n` prior traces on a local pool of `cfg.workers` instances
/// from `factory` and shard them under `dir`.
///
/// Returns the opened [`TraceDataset`]. The record *multiset* is always a
/// pure function of `(factory, cfg.seed)` regardless of worker count;
/// `cfg.ordered` additionally pins the on-disk order (see its doc). Failed
/// traces are an error: a training dataset must not silently miss records.
pub fn generate_dataset_parallel<P, F>(
    factory: F,
    cfg: &DatasetGenConfig,
    dir: &Path,
) -> std::io::Result<TraceDataset>
where
    P: ProbProgram + Send + 'static,
    F: Fn(usize) -> P,
{
    let mut pool = SimulatorPool::from_factory(cfg.workers, factory);
    Ok(RunPlan::new(Backend::Local(&mut pool), cfg).shards(dir).run()?.dataset)
}

/// [`generate_dataset_parallel`] over a multiplexed remote-session pool:
/// `cfg.workers` reactor threads (0 = all cores, capped at the session
/// count) drive the pool's K sessions. Per-trace seeding is unchanged, so
/// the produced records match the local path for the same model and seed.
pub fn generate_dataset_mux(
    pool: &mut MuxSimulatorPool,
    cfg: &DatasetGenConfig,
    dir: &Path,
) -> std::io::Result<TraceDataset> {
    Ok(RunPlan::new(Backend::Mux(pool), cfg).shards(dir).run()?.dataset)
}

/// The output directory of one rank under a distributed run's root
/// (`rank_{rank:03}`).
pub fn rank_dir(root: &Path, rank: usize) -> PathBuf {
    root.join(format!("rank_{rank:03}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{KillSwitch, RunStats};
    use crate::checkpoint::{Checkpoint, CheckpointConfig};
    use crate::plan::RunOutput;
    use etalumis_simulators::BranchingModel;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("etalumis_rtds_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A checkpointed shard plan over a local pool of `cfg.workers`.
    fn resumable<P, F>(
        factory: F,
        cfg: &DatasetGenConfig,
        dir: &Path,
        ckpt: &CheckpointConfig,
        kill: Option<Arc<KillSwitch>>,
    ) -> std::io::Result<TraceDataset>
    where
        P: ProbProgram + Send + 'static,
        F: Fn(usize) -> P,
    {
        let mut pool = SimulatorPool::from_factory(cfg.workers, factory);
        let plan = RunPlan::new(Backend::Local(&mut pool), cfg).shards(dir);
        Ok(plan.checkpointed(*ckpt, kill).run()?.dataset)
    }

    /// Rank `rank` of a `world`-rank checkpointed plan under `root`.
    fn rank_run(
        cfg: &DatasetGenConfig,
        root: &Path,
        rank: usize,
        world: usize,
        ckpt: &CheckpointConfig,
    ) -> std::io::Result<RunOutput> {
        let mut pool = SimulatorPool::from_factory(cfg.workers, |_| BranchingModel::standard());
        let plan = RunPlan::new(Backend::Local(&mut pool), cfg).shards(root);
        plan.checkpointed(*ckpt, None).rank(rank, world).run()
    }

    #[test]
    fn parallel_generation_delivers_every_trace() {
        let dir = tmpdir("gen");
        let cfg = DatasetGenConfig {
            n: 70,
            traces_per_shard: 16,
            partitions: 2,
            workers: 3,
            seed: 21,
            ..Default::default()
        };
        let ds = generate_dataset_parallel(|_| BranchingModel::standard(), &cfg, &dir).unwrap();
        assert_eq!(ds.len(), 70);
        assert!(ds.num_trace_types() >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_type_multiset_is_worker_count_invariant() {
        let dir1 = tmpdir("w1");
        let dir4 = tmpdir("w4");
        let base = DatasetGenConfig {
            n: 50,
            traces_per_shard: 8,
            partitions: 3,
            seed: 9,
            workers: 1,
            ..Default::default()
        };
        let d1 = generate_dataset_parallel(|_| BranchingModel::standard(), &base, &dir1).unwrap();
        let cfg4 = DatasetGenConfig { workers: 4, ..base };
        let d4 = generate_dataset_parallel(|_| BranchingModel::standard(), &cfg4, &dir4).unwrap();
        assert_eq!(d1.trace_type_counts(), d4.trace_type_counts());
        std::fs::remove_dir_all(&dir1).unwrap();
        std::fs::remove_dir_all(&dir4).unwrap();
    }

    #[test]
    fn mux_generation_matches_local_generation_byte_for_byte() {
        use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, SimulatorServer};
        let dir_local = tmpdir("mux_ref");
        let dir_mux = tmpdir("mux_gen");
        let cfg = DatasetGenConfig {
            n: 40,
            traces_per_shard: 8,
            partitions: 2,
            seed: 19,
            workers: 1,
            ordered: true,
            ..Default::default()
        };
        let local =
            generate_dataset_parallel(|_| BranchingModel::standard(), &cfg, &dir_local).unwrap();

        // The same generation driven through 4 remote sessions on 1 reactor
        // worker: remote address construction matches local construction,
        // so even the shard bytes agree.
        let mut pool = crate::MuxSimulatorPool::connect(4, "etalumis-rs", |_| {
            let (ep, sim_side) = InProcMuxEndpoint::pair();
            std::thread::spawn(move || {
                let mut server = SimulatorServer::new("ds", BranchingModel::standard());
                let mut t = sim_side;
                let _ = server.serve(&mut t);
            });
            Ok(Box::new(ep) as Box<dyn MuxEndpoint>)
        })
        .unwrap();
        let remote = generate_dataset_mux(&mut pool, &cfg, &dir_mux).unwrap();

        assert_eq!(local.len(), remote.len());
        assert_eq!(local.shards.len(), remote.shards.len());
        for (a, b) in local.shards.iter().zip(&remote.shards) {
            assert_eq!(a.file_name(), b.file_name());
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "shard {a:?} differs between local and mux generation"
            );
        }
        std::fs::remove_dir_all(&dir_local).unwrap();
        std::fs::remove_dir_all(&dir_mux).unwrap();
    }

    fn assert_same_shard_bytes(a: &TraceDataset, b: &TraceDataset, label: &str) {
        assert_eq!(a.shards.len(), b.shards.len(), "{label}: shard count");
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.file_name(), y.file_name(), "{label}");
            assert_eq!(
                std::fs::read(x).unwrap(),
                std::fs::read(y).unwrap(),
                "{label}: shard {x:?} differs"
            );
        }
    }

    #[test]
    fn resumable_generation_matches_ordered_generation_byte_for_byte() {
        let dir_ord = tmpdir("ck_ord");
        let dir_ck = tmpdir("ck_run");
        let cfg = DatasetGenConfig {
            n: 90,
            traces_per_shard: 16,
            partitions: 3,
            seed: 27,
            workers: 4,
            ordered: true,
            ..Default::default()
        };
        let ordered =
            generate_dataset_parallel(|_| BranchingModel::standard(), &cfg, &dir_ord).unwrap();
        // An uninterrupted checkpointed run writes the same bytes: commit
        // order is batch-index order, exactly like ordered mode.
        let ck = resumable(
            |_| BranchingModel::standard(),
            &cfg,
            &dir_ck,
            &CheckpointConfig { interval: 10 },
            None,
        )
        .unwrap();
        assert_eq!(ck.len(), 90);
        assert_same_shard_bytes(&ck, &ordered, "checkpointed vs ordered");
        // Nothing transient is left behind: no manifest, no journals.
        assert!(!dir_ck.join(crate::MANIFEST_NAME).exists());
        assert!(std::fs::read_dir(&dir_ck).unwrap().all(|e| e
            .unwrap()
            .path()
            .extension()
            .unwrap()
            == "etlm"));
        std::fs::remove_dir_all(&dir_ord).unwrap();
        std::fs::remove_dir_all(&dir_ck).unwrap();
    }

    #[test]
    fn killed_and_resumed_generation_is_byte_identical_to_uninterrupted() {
        let cfg = DatasetGenConfig {
            n: 80,
            traces_per_shard: 8,
            partitions: 2,
            seed: 55,
            workers: 3,
            ..Default::default()
        };
        let ckpt = CheckpointConfig { interval: 7 };
        let dir_ref = tmpdir("kill_ref");
        let reference =
            resumable(|_| BranchingModel::standard(), &cfg, &dir_ref, &ckpt, None).unwrap();

        for kill_at in [1usize, 13, 40, 79] {
            let dir = tmpdir(&format!("kill_{kill_at}"));
            let kill = Arc::new(KillSwitch::after(kill_at));
            let err = resumable(|_| BranchingModel::standard(), &cfg, &dir, &ckpt, Some(kill))
                .map(|_| ())
                .expect_err("the kill switch must abort the run");
            assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "kill_at={kill_at}");
            // Resume: same call, no kill switch.
            let resumed =
                resumable(|_| BranchingModel::standard(), &cfg, &dir, &ckpt, None).unwrap();
            assert_eq!(resumed.len(), cfg.n, "kill_at={kill_at}");
            assert_same_shard_bytes(&resumed, &reference, &format!("kill_at={kill_at}"));
            assert!(!dir.join(crate::MANIFEST_NAME).exists());
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&dir_ref).unwrap();
    }

    #[test]
    fn mux_resumable_generation_survives_kill_and_matches_local() {
        use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, SimulatorServer};
        let cfg = DatasetGenConfig {
            n: 40,
            traces_per_shard: 8,
            partitions: 2,
            seed: 19,
            workers: 1,
            ..Default::default()
        };
        let ckpt = CheckpointConfig { interval: 5 };
        let dir_ref = tmpdir("muxck_ref");
        let reference =
            resumable(|_| BranchingModel::standard(), &cfg, &dir_ref, &ckpt, None).unwrap();

        let connect = || {
            crate::MuxSimulatorPool::connect(4, "etalumis-rs", |_| {
                let (ep, sim_side) = InProcMuxEndpoint::pair();
                std::thread::spawn(move || {
                    let mut server = SimulatorServer::new("ds", BranchingModel::standard());
                    let mut t = sim_side;
                    let _ = server.serve(&mut t);
                });
                Ok(Box::new(ep) as Box<dyn MuxEndpoint>)
            })
            .unwrap()
        };
        let dir = tmpdir("muxck_run");
        let mut pool = connect();
        let kill = Arc::new(KillSwitch::after(17));
        let err = RunPlan::new(Backend::Mux(&mut pool), &cfg)
            .shards(&dir)
            .checkpointed(ckpt, Some(kill))
            .run()
            .map(|_| ())
            .expect_err("kill must abort");
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        // Resume over a *fresh* pool — the old process is "dead".
        let mut pool = connect();
        let plan = RunPlan::new(Backend::Mux(&mut pool), &cfg).shards(&dir);
        let resumed = plan.checkpointed(ckpt, None).run().unwrap().dataset;
        assert_eq!(resumed.len(), cfg.n);
        assert_same_shard_bytes(&resumed, &reference, "mux killed+resumed vs local");
        std::fs::remove_dir_all(&dir_ref).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distributed_ranks_merge_byte_identical_to_single_process() {
        use etalumis_data::{discover_rank_dirs, merge_ranks};
        let cfg = DatasetGenConfig {
            n: 83,
            traces_per_shard: 8,
            partitions: 3,
            workers: 2,
            seed: 41,
            ..Default::default()
        };
        let ckpt = CheckpointConfig { interval: 9 };
        let dir_ref = tmpdir("dist_ref");
        let reference =
            resumable(|_| BranchingModel::standard(), &cfg, &dir_ref, &ckpt, None).unwrap();

        let root = tmpdir("dist_root");
        let world = 3;
        let mut total = RunStats::default();
        for rank in 0..world {
            let out = rank_run(&cfg, &root, rank, world, &ckpt).unwrap();
            let manifest = out.rank_manifest.unwrap();
            assert_eq!(out.dataset.len() as u64, manifest.end - manifest.start, "rank {rank}");
            assert!(manifest.failed.is_empty(), "rank {rank}");
            total.absorb(&out.stats);
        }
        assert_eq!(total.total_executed(), cfg.n, "aggregated stats cover the whole batch");

        // A completed rank re-invoked is reopened idempotently, not re-run.
        let again = rank_run(&cfg, &root, 0, world, &ckpt).unwrap();
        assert_eq!(again.stats.total_executed(), 0, "no re-execution on a completed rank");
        let manifest = again.rank_manifest.unwrap();
        assert_eq!(again.dataset.len() as u64, manifest.end - manifest.start);

        let merged =
            merge_ranks(&discover_rank_dirs(&root).unwrap(), &root.join("merged")).unwrap();
        assert_eq!(merged.manifest.records as usize, cfg.n);
        assert_eq!(merged.shards.len(), reference.shards.len());
        for (a, b) in merged.shards.iter().zip(&reference.shards) {
            assert_eq!(a.file_name(), b.file_name());
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "merged shard {a:?} differs from the single-process run"
            );
        }
        std::fs::remove_dir_all(&dir_ref).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn healing_pass_recovers_below_watermark_failures_on_resume() {
        use etalumis_core::{ProbProgram, RunError, SimCtx};
        use etalumis_distributions::Value;
        use std::sync::atomic::{AtomicBool, Ordering};

        // Fails deterministically *by trace content* while the outage flag
        // is up: the same index fails on every retry (budget exhausts, the
        // failure is recorded permanently), while other indices deliver.
        struct OutageModel {
            inner: BranchingModel,
            outage: Arc<AtomicBool>,
        }
        impl ProbProgram for OutageModel {
            fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
                self.try_run(ctx).expect("outage")
            }
            fn try_run(&mut self, ctx: &mut dyn SimCtx) -> Result<Value, RunError> {
                let v = self.inner.try_run(ctx)?;
                if self.outage.load(Ordering::SeqCst) {
                    if let Value::Real(x) = v {
                        if x.fract() < 0.25 {
                            return Err(RunError::new("simulator outage"));
                        }
                    }
                }
                Ok(v)
            }
        }

        let cfg = DatasetGenConfig {
            n: 30,
            traces_per_shard: 6,
            partitions: 2,
            workers: 2,
            seed: 12,
            ..Default::default()
        };
        let ckpt = CheckpointConfig { interval: 4 };
        let dir = tmpdir("heal");
        let outage = Arc::new(AtomicBool::new(true));

        // Phase 1: the outage makes a content-selected subset of indices
        // exhaust their retry budget — permanent failures, many of them
        // below the commit watermark by the time the run ends. The run
        // errors but stays resumable (manifest + journals intact).
        let o = outage.clone();
        let err = resumable(
            move |_| OutageModel { inner: BranchingModel::standard(), outage: o.clone() },
            &cfg,
            &dir,
            &ckpt,
            None,
        )
        .map(|_| ())
        .expect_err("permanent failures must surface");
        assert!(err.to_string().contains("failed permanently"), "unexpected error: {err}");
        let manifest = Checkpoint::load(&dir).unwrap().expect("manifest must survive the failure");
        assert!(!manifest.failed.is_empty(), "the outage must have exhausted retry budgets");
        assert!(
            manifest.failed.iter().any(|&i| i < manifest.watermark),
            "at least one failure must sit below the watermark (failed: {:?}, watermark {})",
            manifest.failed,
            manifest.watermark
        );

        // Phase 2: the outage is over; the resumed run's healing pass
        // re-runs the recorded failures with a fresh budget and patches
        // them in via the repair journal — zero holes.
        outage.store(false, Ordering::SeqCst);
        let o = outage.clone();
        let healed = resumable(
            move |_| OutageModel { inner: BranchingModel::standard(), outage: o.clone() },
            &cfg,
            &dir,
            &ckpt,
            None,
        )
        .expect("the healing pass must recover every failure");
        assert_eq!(healed.len(), cfg.n, "zero holes after healing");
        assert!(
            healed.shards.iter().any(|p| p
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("repair_")),
            "below-watermark records must land in repair shards: {:?}",
            healed.shards
        );
        // Nothing transient left behind: no manifest, no journals.
        assert!(!dir.join(crate::MANIFEST_NAME).exists());
        assert!(!dir.join(crate::REPAIR_JOURNAL_NAME).exists());
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .all(|e| e.unwrap().path().extension().unwrap() == "etlm"));
        // The healed dataset holds the same record multiset as an
        // outage-free run (committed shard bytes for the *prefix* are
        // unchanged by design; the healed records ride in repair shards).
        let dir_ref = tmpdir("heal_ref");
        let reference =
            generate_dataset_parallel(|_| BranchingModel::standard(), &cfg, &dir_ref).unwrap();
        assert_eq!(healed.trace_type_counts(), reference.trace_type_counts());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir_ref).unwrap();
    }

    /// Records are built during the run, never from a trace; the shards
    /// must hold exactly the bytes of the records of whole recorded traces
    /// (τ, rejection-loop draws included), written in batch order — on a
    /// local pool at 1 and 2 workers, over 8 mux sessions with seeded and
    /// per-statement runs at 1 and 2 reactors, and across a checkpointed
    /// kill and resume on both.
    #[test]
    fn generated_shards_hold_the_records_of_whole_traces() {
        use crate::batch::{mix_seed, ProposerFactory};
        use etalumis_core::{Executor, PriorProposer, Proposer};
        use etalumis_data::{partition_of, partition_prefix, RollingShardWriter, TraceRecord};
        use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, SimulatorServer};
        use etalumis_simulators::TauDecayModel;

        let tau = |_| TauDecayModel::default_model();
        let connect = || {
            crate::MuxSimulatorPool::connect(8, "etalumis-rs", |_| {
                let (ep, sim_side) = InProcMuxEndpoint::pair();
                std::thread::spawn(move || {
                    let mut server = SimulatorServer::new("tau", TauDecayModel::default_model());
                    let _ = server.serve(&mut { sim_side });
                });
                Ok(Box::new(ep) as Box<dyn MuxEndpoint>)
            })
            .unwrap()
        };
        // Not `prior_only`: the sessions keep the per-statement exchange.
        let per_statement = |_: usize| Box::new(PriorProposer) as Box<dyn Proposer + Send>;
        let ckpt = CheckpointConfig { interval: 4 };
        for pruned in [true, false] {
            let cfg = DatasetGenConfig {
                n: 24,
                traces_per_shard: 5,
                partitions: 2,
                seed: 61,
                workers: 1,
                ordered: true,
                pruned,
            };
            let dir_ref = tmpdir("whole_ref");
            let mut writers: Vec<RollingShardWriter> = (0..2)
                .map(|p| RollingShardWriter::new(&dir_ref, partition_prefix(p), 5, true))
                .collect();
            let mut m = TauDecayModel::default_model();
            for i in 0..cfg.n {
                let trace = Executor::sample_prior(&mut m, mix_seed(cfg.seed, i));
                let rec = TraceRecord::from_trace(&trace, pruned);
                writers[partition_of(rec.trace_type, 2)].push(rec).unwrap();
            }
            let paths = writers.into_iter().flat_map(|w| w.finish().unwrap()).collect();
            let reference = TraceDataset::open(paths).unwrap();

            let dir = tmpdir("whole_run");
            for workers in [1, 2] {
                let cfg = DatasetGenConfig { workers, ..cfg };
                let label = format!("pruned={pruned} workers={workers}");
                let local = generate_dataset_parallel(tau, &cfg, &dir).unwrap();
                assert_same_shard_bytes(&local, &reference, &format!("local {label}"));
                let factories: [(&str, &dyn ProposerFactory); 2] =
                    [("seeded", &crate::PriorProposerFactory), ("per-statement", &per_statement)];
                for (exchange, factory) in factories {
                    std::fs::remove_dir_all(&dir).unwrap();
                    let mut pool = connect();
                    let plan = RunPlan::new(Backend::Mux(&mut pool), &cfg).proposer(factory);
                    let mux = plan.shards(&dir).run().unwrap().dataset;
                    assert_same_shard_bytes(&mux, &reference, &format!("mux {exchange} {label}"));
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }

            let cfg = DatasetGenConfig { workers: 2, ..cfg };
            let kill = Some(Arc::new(KillSwitch::after(9)));
            let err = resumable(tau, &cfg, &dir, &ckpt, kill).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
            let resumed = resumable(tau, &cfg, &dir, &ckpt, None).unwrap();
            assert_same_shard_bytes(&resumed, &reference, &format!("local resumed {pruned}"));
            std::fs::remove_dir_all(&dir).unwrap();

            let cfg = DatasetGenConfig { workers: 1, ..cfg };
            let mut pool = connect();
            let kill = Some(Arc::new(KillSwitch::after(13)));
            let plan = RunPlan::new(Backend::Mux(&mut pool), &cfg).shards(&dir);
            let err = plan.checkpointed(ckpt, kill).run().map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
            let mut pool = connect();
            let plan = RunPlan::new(Backend::Mux(&mut pool), &cfg).shards(&dir);
            let resumed = plan.checkpointed(ckpt, None).run().unwrap().dataset;
            assert_same_shard_bytes(&resumed, &reference, &format!("mux resumed {pruned}"));
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&dir_ref).unwrap();
        }
    }

    #[test]
    fn ordered_generation_is_byte_identical_across_worker_counts() {
        let dir1 = tmpdir("ord1");
        let dir4 = tmpdir("ord4");
        let base = DatasetGenConfig {
            n: 60,
            traces_per_shard: 16,
            partitions: 2,
            seed: 33,
            workers: 1,
            ordered: true,
            ..Default::default()
        };
        let d1 = generate_dataset_parallel(|_| BranchingModel::standard(), &base, &dir1).unwrap();
        let cfg4 = DatasetGenConfig { workers: 4, ..base };
        let d4 = generate_dataset_parallel(|_| BranchingModel::standard(), &cfg4, &dir4).unwrap();
        assert_eq!(d1.shards.len(), d4.shards.len());
        for (a, b) in d1.shards.iter().zip(&d4.shards) {
            assert_eq!(a.file_name(), b.file_name());
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "shard {a:?} differs between worker counts"
            );
        }
        std::fs::remove_dir_all(&dir1).unwrap();
        std::fs::remove_dir_all(&dir4).unwrap();
    }
}
