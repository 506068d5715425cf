//! The streaming generate→train pipeline end to end, crash included.
//!
//! The offline pipeline stages generate → sort → train through the
//! filesystem; here the worker pool feeds a bounded, back-pressured
//! [`TraceChannel`] directly and training starts immediately: records are
//! bucketed by trace type online (no offline sort) and every released
//! sub-minibatch takes one optimizer step while the simulators are still
//! running. The run is teed through a [`CheckpointSink`], so when it is
//! killed mid-stream ([`KillSwitch`], SIGKILL-style) the resumed run
//! replays the committed shard prefix into a fresh channel and finishes
//! the remainder live — and the trainer that consumed that resumed stream
//! is verified **bit-identical** (losses and weights) to a trainer that
//! replays the final teed shards offline.
//!
//! ```text
//! cargo run --release --example streaming_train
//! ```
//!
//! [`TraceChannel`]: etalumis_data::TraceChannel
//! [`CheckpointSink`]: etalumis_runtime::CheckpointSink
//! [`KillSwitch`]: etalumis_runtime::KillSwitch

use etalumis_data::{BucketerConfig, TraceChannel, TraceDataset};
use etalumis_nn::{Adam, LrSchedule, Module};
use etalumis_runtime::{
    Backend, CheckpointConfig, DatasetGenConfig, KillSwitch, RunPlan, SimulatorPool,
};
use etalumis_simulators::BranchingModel;
use etalumis_telemetry::{Field, Logger};
use etalumis_train::{IcConfig, IcNetwork, Records, TrainPlan, Trainer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("etalumis_stream_demo_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn new_trainer() -> Trainer<Adam> {
    Trainer::new(
        IcNetwork::new(IcConfig::small([1, 1, 1], 2019)),
        Adam::new(LrSchedule::Constant(2e-3)),
    )
}

fn params(net: &mut IcNetwork) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    net.visit_params("", &mut |_, p| out.push(p.value.data().to_vec()));
    out
}

/// The teed streaming generation: checkpointed shards under `dir` plus the
/// live stream into `chan`. Running the same plan again resumes it.
fn tee(
    cfg: &DatasetGenConfig,
    dir: &Path,
    ckpt: CheckpointConfig,
    kill: Option<Arc<KillSwitch>>,
    chan: &TraceChannel,
) -> std::io::Result<TraceDataset> {
    let mut pool = SimulatorPool::from_factory(cfg.workers, |_| BranchingModel::standard());
    let plan = RunPlan::new(Backend::Local(&mut pool), cfg).shards(dir).checkpointed(ckpt, kill);
    Ok(plan.stream(chan).run()?.dataset)
}

fn main() {
    let log = Logger::from_args();
    let cfg = DatasetGenConfig {
        n: 2000,
        traces_per_shard: 200,
        partitions: 1, // the streaming tee contract: stream order == shard order
        workers: 4,
        seed: 2019,
        ..Default::default()
    };
    let ckpt = CheckpointConfig { interval: 100 };
    let buckets = BucketerConfig { batch: 32, spill_after: 128 };
    let warmup = 200;
    let kill_at = 900;
    let capacity = 64;
    let dir = fresh_dir("run");

    // Phase 1: stream-generate with the tee, and kill the producer
    // mid-stream. The consumer here just drains — a real deployment could
    // train on the partial stream too, but reproducibility is only
    // guaranteed for a stream consumed end to end.
    let chan = Arc::new(TraceChannel::bounded(capacity));
    let drain = {
        let chan = chan.clone();
        std::thread::spawn(move || {
            let mut n = 0usize;
            while chan.recv().is_some() {
                n += 1;
            }
            n
        })
    };
    let kill = Arc::new(KillSwitch::after(kill_at));
    let err = tee(&cfg, &dir, ckpt, Some(kill), &chan)
        .map(|_| ())
        .expect_err("the kill switch must abort the streaming run");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "unexpected error: {err}");
    let partial = drain.join().unwrap();
    let err_text = err.to_string();
    log.info("killed_mid_stream", &[("error", Field::Str(&err_text))]);
    log.info(
        "partial_stream",
        &[
            ("records_seen", Field::U64(partial as u64)),
            ("records_total", Field::U64(cfg.n as u64)),
        ],
    );

    // Phase 2: resume with a trainer attached. The committed prefix is
    // replayed from the teed shards into the fresh channel, then the
    // remaining traces are generated live — the consumer can't tell where
    // the seam is.
    let chan = Arc::new(TraceChannel::bounded(capacity));
    let trainer_thread = {
        let chan = chan.clone();
        std::thread::spawn(move || {
            let mut trainer = new_trainer();
            let report =
                TrainPlan::stream(Records::Channel(&chan), buckets, warmup).run(&mut trainer);
            (report.expect("a channel cannot fail a read"), params(&mut trainer.net))
        })
    };
    let ds = tee(&cfg, &dir, ckpt, None, &chan).expect("resumed streaming run");
    let (live, live_params) = trainer_thread.join().unwrap();
    let occupancy = chan.stats();
    log.info(
        "resumed_and_trained",
        &[
            ("traces", Field::U64(ds.len() as u64)),
            ("shards", Field::U64(ds.shards.len() as u64)),
            ("train_steps", Field::U64(live.losses.len() as u64)),
            ("full_releases", Field::U64(live.fills as u64)),
            ("spills", Field::U64(live.spills as u64)),
        ],
    );
    log.info(
        "channel",
        &[
            ("capacity", Field::U64(capacity as u64)),
            ("max_occupancy", Field::U64(occupancy.max_occupancy as u64)),
            ("blocked_sends", Field::U64(occupancy.blocked_sends)),
        ],
    );
    let n_losses = live.losses.len();
    log.info(
        "loss",
        &[
            ("first_step", Field::F64(live.losses[0])),
            ("last_step", Field::F64(live.losses[n_losses - 1])),
            ("traces_seen", Field::U64(live.traces as u64)),
        ],
    );

    // Phase 3: reproducibility. A fresh trainer replaying the teed shards
    // offline must match the live run bit for bit.
    let mut offline = new_trainer();
    let off = TrainPlan::stream(Records::Replay(&ds), buckets, warmup)
        .run(&mut offline)
        .expect("offline replay over the teed shards");
    assert_eq!(live.losses, off.losses, "loss trajectories must be bit-identical");
    assert_eq!(live_params, params(&mut offline.net), "weights must be bit-identical");
    log.info(
        "verified",
        &[
            ("losses_bit_identical", Field::U64(off.losses.len() as u64)),
            ("weights_bit_identical", Field::Bool(true)),
        ],
    );

    std::fs::remove_dir_all(&dir).unwrap();
    println!("OK");
}
