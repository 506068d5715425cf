//! Streaming-pipeline property tests: the three contracts the
//! generate→train seam must hold under arbitrary schedules.
//!
//! 1. **Back-pressure liveness**: a slow consumer throttles the worker
//!    pool through the bounded channel but can never deadlock it, for any
//!    (workers, capacity) — and the stream stays in batch-index order.
//! 2. **Tee fidelity**: a teed streaming run — killed at an arbitrary
//!    trace and resumed — writes shard files byte-identical to the batch
//!    pipeline's checkpointed shard plan, and the resumed channel
//!    (prefix replay + live remainder) carries exactly the shards' content.
//! 3. **Training reproducibility**: a stream `TrainPlan` over the live
//!    resumed channel and the same plan replaying the teed shards produce
//!    bit-identical losses and weights, on one rank and on two.

use etalumis::prelude::*;
use etalumis_data::TraceRecord;
use etalumis_nn::{Adam, LrSchedule, Module};
use etalumis_runtime::{CheckpointConfig, DatasetGenConfig, KillSwitch, RunOutput};
use etalumis_simulators::BranchingModel;
use etalumis_train::{Records, TrainReport};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("etalumis_sp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn gen_cfg(n: usize, seed: u64, workers: usize) -> DatasetGenConfig {
    DatasetGenConfig { n, traces_per_shard: 8, partitions: 1, workers, seed, ..Default::default() }
}

/// A local plan of `cfg`: checkpointed shards under `dir`, teed into
/// `stream` when one is given, or a pure stream when `dir` is `None`.
fn plan(
    cfg: &DatasetGenConfig,
    dir: Option<&Path>,
    ckpt: &CheckpointConfig,
    kill: Option<Arc<KillSwitch>>,
    stream: Option<&TraceChannel>,
) -> std::io::Result<RunOutput> {
    let mut pool = SimulatorPool::from_factory(cfg.workers, |_| BranchingModel::standard());
    let mut plan = RunPlan::new(Backend::Local(&mut pool), cfg);
    if let Some(dir) = dir {
        plan = plan.shards(dir).checkpointed(*ckpt, kill);
    }
    if let Some(channel) = stream {
        plan = plan.stream(channel);
    }
    plan.run()
}

/// The teed streaming run of `cfg` under `dir`; returns the shards.
fn tee(
    cfg: &DatasetGenConfig,
    dir: &Path,
    ckpt: &CheckpointConfig,
    kill: Option<Arc<KillSwitch>>,
    channel: &TraceChannel,
) -> std::io::Result<etalumis_data::TraceDataset> {
    plan(cfg, Some(dir), ckpt, kill, Some(channel)).map(|out| out.dataset)
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

/// Run a teed streaming generation killed at `kill_at`, then resume it with
/// a consumer attached; returns the final dataset and what the resumed
/// channel carried.
fn killed_then_resumed_stream(
    dir: &PathBuf,
    cfg: &DatasetGenConfig,
    ckpt: &CheckpointConfig,
    kill_at: usize,
    capacity: usize,
) -> (etalumis_data::TraceDataset, Vec<TraceRecord>) {
    let chan = Arc::new(TraceChannel::bounded(capacity));
    let drain = {
        let chan = chan.clone();
        std::thread::spawn(move || while chan.recv().is_some() {})
    };
    let err = tee(cfg, dir, ckpt, Some(Arc::new(KillSwitch::after(kill_at))), &chan)
        .map(|_| ())
        .expect_err("the kill switch must abort the streaming run");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    drain.join().unwrap();

    let chan = Arc::new(TraceChannel::bounded(capacity));
    let consumer = {
        let chan = chan.clone();
        std::thread::spawn(move || {
            let mut out = Vec::new();
            while let Some(r) = chan.recv() {
                out.push(r);
            }
            out
        })
    };
    let ds = tee(cfg, dir, ckpt, None, &chan).expect("the resumed run must complete");
    (ds, consumer.join().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A deliberately slow consumer on a tiny channel throttles the pool
    /// but never deadlocks it; the stream arrives complete and in
    /// batch-index order for any (workers, capacity).
    #[test]
    fn prop_slow_consumer_never_deadlocks_the_pool(
        workers in 1usize..5,
        capacity in 1usize..8,
        seed in 0u64..500,
    ) {
        let n = 40usize;
        let chan = Arc::new(TraceChannel::bounded(capacity));
        let consumer = {
            let chan = chan.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                while let Some(r) = chan.recv() {
                    // Slower than generation: force sustained back-pressure.
                    std::thread::sleep(std::time::Duration::from_micros(300));
                    out.push(r);
                }
                out
            })
        };
        let ckpt = CheckpointConfig::default();
        let stats = plan(&gen_cfg(n, seed, workers), None, &ckpt, None, Some(&chan)).unwrap().stats;
        prop_assert_eq!(stats.total_executed(), n);
        let got = consumer.join().unwrap();
        prop_assert_eq!(got.len(), n);
        // Canonical order: the 1-worker unthrottled stream.
        let reference = Arc::new(TraceChannel::bounded(n));
        plan(&gen_cfg(n, seed, 1), None, &ckpt, None, Some(&reference)).unwrap();
        let mut expect = Vec::new();
        while let Some(r) = reference.recv() {
            expect.push(r);
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(chan.stats().sends, n as u64);
    }

    /// A teed streaming run killed at an arbitrary index and resumed
    /// produces shards byte-identical to the batch pipeline, and the
    /// resumed channel carries exactly the shards' records in order.
    #[test]
    fn prop_teed_stream_bytes_match_offline_pipeline(
        workers in 1usize..4,
        capacity in 1usize..8,
        kill_at in 1usize..50,
        seed in 0u64..500,
    ) {
        let cfg = gen_cfg(50, seed, workers);
        let ckpt = CheckpointConfig { interval: 6 };
        let dir_ref = tmpdir(&format!("ref_{seed}_{kill_at}"));
        let reference = plan(&cfg, Some(&dir_ref), &ckpt, None, None).unwrap().dataset;

        let dir = tmpdir(&format!("tee_{seed}_{kill_at}"));
        let (ds, streamed) = killed_then_resumed_stream(&dir, &cfg, &ckpt, kill_at, capacity);
        prop_assert_eq!(ds.len(), cfg.n);
        prop_assert_eq!(ds.shards.len(), reference.shards.len());
        for (a, b) in ds.shards.iter().zip(&reference.shards) {
            prop_assert_eq!(a.file_name(), b.file_name());
            prop_assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        }
        // The resumed channel (prefix replay + live remainder) carried the
        // whole batch in shard order.
        let all: Vec<usize> = (0..ds.len()).collect();
        prop_assert_eq!(streamed, ds.get_many(&all).unwrap());
        std::fs::remove_dir_all(&dir_ref).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The acceptance contract: training live off a teed (killed+resumed)
    /// streaming run is bit-identical — losses and weights — to offline
    /// training over the shards that run teed to disk.
    #[test]
    fn prop_live_stream_training_equals_offline_replay(
        workers in 1usize..4,
        capacity in 1usize..8,
        kill_at in 1usize..50,
    ) {
        let seed = 7 + kill_at as u64;
        let cfg = gen_cfg(50, seed, workers);
        let ckpt = CheckpointConfig { interval: 6 };
        let buckets = BucketerConfig { batch: 8, spill_after: 24 };

        // Kill the first attempt (nobody trains on a partial stream — the
        // consumer just drains it), then train live on the resumed run.
        let dir = tmpdir(&format!("train_{kill_at}_{workers}_{capacity}"));
        let chan = Arc::new(TraceChannel::bounded(capacity));
        {
            let drain_chan = chan.clone();
            let drain = std::thread::spawn(move || while drain_chan.recv().is_some() {});
            let err = tee(
                &cfg, &dir, &ckpt, Some(Arc::new(KillSwitch::after(kill_at))), &chan,
            ).map(|_| ()).expect_err("kill must abort");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
            drain.join().unwrap();
        }
        let chan = Arc::new(TraceChannel::bounded(capacity));
        let live = {
            let chan = chan.clone();
            std::thread::spawn(move || {
                let mut trainer = small_trainer(3);
                let report = TrainPlan::stream(Records::Channel(&chan), buckets, 16).run(&mut trainer).unwrap();
                (report, params(&mut trainer.net))
            })
        };
        let ds = tee(&cfg, &dir, &ckpt, None, &chan).unwrap();
        let (live_report, live_params): (TrainReport, _) = live.join().unwrap();

        // Offline replay over the teed shards from a fresh identical net.
        let mut offline = small_trainer(3);
        let off_report = TrainPlan::stream(Records::Replay(&ds), buckets, 16).run(&mut offline).unwrap();
        prop_assert_eq!(live_report.losses, off_report.losses);
        prop_assert_eq!(live_report.traces, cfg.n);
        prop_assert_eq!(live_params, params(&mut offline.net));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Rank-parallel streaming: a live teed run and its shard replay train to
/// the same losses and the same (bit-identical) replica weights.
#[test]
fn distributed_stream_training_is_reproducible_from_teed_shards() {
    let cfg = gen_cfg(120, 42, 3);
    let ckpt = CheckpointConfig { interval: 10 };
    let buckets = BucketerConfig { batch: 8, spill_after: 32 };
    let train = |records: Records<'_>| {
        let mut trainer = small_trainer(17);
        let report = TrainPlan::stream(records, buckets, 32).ranks(2).run(&mut trainer).unwrap();
        (params(&mut trainer.net), report)
    };

    let dir = tmpdir("dist");
    let chan = Arc::new(TraceChannel::bounded(5));
    let (ds, (live_params, live_report)) = std::thread::scope(|s| {
        let live = s.spawn(|| train(Records::Channel(&chan)));
        (tee(&cfg, &dir, &ckpt, None, &chan).unwrap(), live.join().unwrap())
    });
    assert!(!live_report.losses.is_empty());

    // Replay the teed shards and train again.
    let (replay_params, report) = train(Records::Replay(&ds));
    assert_eq!(live_report.losses, report.losses, "loss trajectories must match bit for bit");
    assert_eq!(live_params, replay_params, "replica weights must match bit for bit");
    std::fs::remove_dir_all(&dir).unwrap();
}
