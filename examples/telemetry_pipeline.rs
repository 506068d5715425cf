//! Full-coverage telemetry over the resumable streaming-train pipeline.
//!
//! The observability acceptance run: a multiplexed generate→train pipeline
//! is killed mid-stream and resumed with a live [`Telemetry`] handle
//! threaded through every subsystem — the work-stealing scheduler
//! (`runtime.*`), the PPX mux reactor (`mux.*`), the checkpoint tee
//! (`ckpt.*`), the bounded trace channel and online bucketer (`stream.*`),
//! and the trainer (`train.*`). The resumed run writes the JSONL event
//! timeline (`events.jsonl`, rendered by the `run_report` binary) and the
//! aggregated `RUN_METRICS.json` snapshot, asserts every subsystem shows
//! up in the snapshot, and verifies the determinism contract: losses,
//! weights, and shard bytes are **bit-identical** to an uninterrupted,
//! uninstrumented baseline run.
//!
//! ```text
//! cargo run --release --example telemetry_pipeline
//! cargo run -p etalumis-bench --bin run_report -- events.jsonl
//! ```
//!
//! [`Telemetry`]: etalumis_telemetry::Telemetry

use etalumis_data::{BucketerConfig, TraceChannel, TraceDataset};
use etalumis_nn::{Adam, LrSchedule, Module};
use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, SimulatorServer};
use etalumis_runtime::{
    Backend, CheckpointConfig, DatasetGenConfig, KillSwitch, MuxSimulatorPool, RunPlan,
};
use etalumis_simulators::BranchingModel;
use etalumis_telemetry::{Field, Logger, Telemetry};
use etalumis_train::{IcConfig, IcNetwork, Records, TrainPlan, Trainer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SESSIONS: usize = 4;
const CAPACITY: usize = 64;
const KILL_AT: usize = 700;

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("etalumis_tel_demo_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn gen_cfg() -> DatasetGenConfig {
    DatasetGenConfig {
        n: 1500,
        traces_per_shard: 150,
        partitions: 1, // streaming tee contract
        workers: SESSIONS,
        seed: 2019,
        ..Default::default()
    }
}

const BUCKETS: BucketerConfig = BucketerConfig { batch: 32, spill_after: 128 };
const WARMUP: usize = 150;

fn spawn_server() -> InProcMuxEndpoint {
    let (ep, sim_side) = InProcMuxEndpoint::pair();
    std::thread::spawn(move || {
        let mut server = SimulatorServer::new("telemetry-demo", BranchingModel::standard());
        let mut t = sim_side;
        let _ = server.serve(&mut t);
    });
    ep
}

fn mux_pool() -> MuxSimulatorPool {
    MuxSimulatorPool::connect(SESSIONS, "telemetry-demo", |_| {
        Ok(Box::new(spawn_server()) as Box<dyn MuxEndpoint>)
    })
    .expect("mux pool connect")
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

/// One streaming run (resume if `dir` holds a manifest) with a trainer on
/// the consumer side; returns dataset, losses and final weights.
fn run_pipeline(
    dir: &Path,
    kill: Option<Arc<KillSwitch>>,
    tel: &Telemetry,
) -> std::io::Result<(TraceDataset, Vec<f64>, Vec<Vec<f32>>)> {
    let cfg = gen_cfg();
    let ckpt = CheckpointConfig { interval: 100 };
    let chan = Arc::new(TraceChannel::bounded(CAPACITY).with_telemetry(tel.clone()));
    let trainer_thread = {
        let chan = chan.clone();
        let tel = tel.clone();
        std::thread::spawn(move || {
            let mut trainer = new_trainer().with_telemetry(tel);
            let report =
                TrainPlan::stream(Records::Channel(&chan), BUCKETS, WARMUP).run(&mut trainer);
            (report, params(&mut trainer.net))
        })
    };
    let mut pool = mux_pool();
    let ds = RunPlan::new(Backend::Mux(&mut pool), &cfg)
        .shards(dir)
        .checkpointed(ckpt, kill)
        .stream(&chan)
        .telemetry(tel.clone())
        .run()
        .map(|out| out.dataset);
    let (report, weights) = trainer_thread.join().unwrap();
    chan.stats().record_to(tel);
    let (ds, report) = (ds?, report?);
    Ok((ds, report.losses, weights))
}

fn main() {
    let log = Logger::from_args();
    let dir = fresh_dir("traced");
    let dir_ref = fresh_dir("baseline");

    // Phase 1: traced run killed mid-stream (trainer-side consumer just
    // sees a short stream; its result is discarded with the handle).
    let tel_killed = Telemetry::enabled();
    let kill = Arc::new(KillSwitch::after(KILL_AT));
    let err = run_pipeline(&dir, Some(kill), &tel_killed)
        .map(|_| ())
        .expect_err("the kill switch must abort the streaming run");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "unexpected error: {err}");
    let err_text = err.to_string();
    log.info(
        "killed_mid_stream",
        &[
            ("error", Field::Str(&err_text)),
            ("events_recorded", Field::U64(tel_killed.drain().len() as u64)),
        ],
    );

    // Phase 2: resume with a fresh telemetry handle; this run produces the
    // report artifacts.
    let tel = Telemetry::enabled();
    let (ds, losses, weights) = run_pipeline(&dir, None, &tel).expect("resumed streaming run");
    let collector = tel.collect();
    let events_path = PathBuf::from("events.jsonl");
    let metrics_path = PathBuf::from("RUN_METRICS.json");
    collector.write_jsonl(&events_path).expect("write events.jsonl");
    collector.write_metrics(&metrics_path).expect("write RUN_METRICS.json");
    let metrics = collector.snapshot();
    log.info(
        "resumed_and_trained",
        &[
            ("traces", Field::U64(ds.len() as u64)),
            ("shards", Field::U64(ds.shards.len() as u64)),
            ("train_steps", Field::U64(losses.len() as u64)),
            ("events", Field::U64(collector.events.len() as u64)),
        ],
    );

    // Every instrumented subsystem must appear in the snapshot.
    let required_spans = ["runtime.task", "ckpt.commit", "train.step", "mux.service_busy"];
    for name in required_spans {
        assert!(metrics.spans.contains_key(name), "missing span {name} in RUN_METRICS");
    }
    let required_counters =
        ["runtime.executed", "mux.polls", "mux.frames_in", "stream.sends", "train.steps"];
    for name in required_counters {
        assert!(metrics.counters.contains_key(name), "missing counter {name} in RUN_METRICS");
    }
    let required_gauges = ["stream.occupancy", "stream.max_occupancy", "runtime.imbalance"];
    for name in required_gauges {
        assert!(metrics.gauges.contains_key(name), "missing gauge {name} in RUN_METRICS");
    }
    log.info(
        "coverage",
        &[
            ("spans", Field::U64(metrics.spans.len() as u64)),
            ("counters", Field::U64(metrics.counters.len() as u64)),
            ("gauges", Field::U64(metrics.gauges.len() as u64)),
            ("subsystems", Field::Str("runtime, mux, ckpt, stream, train")),
        ],
    );

    // Phase 3: determinism. An uninterrupted, untraced baseline must match
    // the killed+resumed traced run bit for bit — telemetry only observes.
    let (ds_ref, losses_ref, weights_ref) =
        run_pipeline(&dir_ref, None, &Telemetry::disabled()).expect("baseline run");
    assert_eq!(losses, losses_ref, "losses must be bit-identical with telemetry on");
    assert_eq!(weights, weights_ref, "weights must be bit-identical with telemetry on");
    assert_eq!(ds.shards.len(), ds_ref.shards.len(), "shard count differs");
    let mut bytes = 0u64;
    for (a, b) in ds.shards.iter().zip(&ds_ref.shards) {
        assert_eq!(a.file_name(), b.file_name(), "shard names differ");
        let (da, db) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        assert_eq!(da, db, "shard {a:?} differs from the uninstrumented baseline");
        bytes += da.len() as u64;
    }
    log.info(
        "verified",
        &[
            ("losses_bit_identical", Field::U64(losses.len() as u64)),
            ("weights_bit_identical", Field::Bool(true)),
            ("shard_bytes_identical", Field::U64(bytes)),
        ],
    );
    let events_text = events_path.display().to_string();
    let metrics_text = metrics_path.display().to_string();
    log.info(
        "artifacts",
        &[
            ("events_jsonl", Field::Str(&events_text)),
            ("run_metrics", Field::Str(&metrics_text)),
            (
                "render_with",
                Field::Str("cargo run -p etalumis-bench --bin run_report -- events.jsonl"),
            ),
        ],
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_ref).unwrap();
    println!("OK");
}
