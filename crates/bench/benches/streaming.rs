//! Offline staged pipeline vs the streaming generate→train pipeline.
//!
//! The offline mode pays for a full materialized dataset (generate every
//! trace to shards, then train over them); the streaming mode overlaps the
//! two phases through the bounded trace channel, so end-to-end wall time
//! approaches max(generate, train) instead of their sum. The criterion
//! group times the two pipelines, then prints the end-to-end speedup of one
//! measured run of each, with the channel's back-pressure counters.
//!
//! Run: `cargo bench -p etalumis-bench --bench streaming` (add `-- --quick`
//! for the CI smoke mode).

use criterion::{criterion_group, criterion_main, Criterion};
use etalumis_data::{BucketerConfig, ChannelStats, TraceChannel};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_runtime::{
    generate_dataset_parallel, Backend, DatasetGenConfig, RunPlan, RuntimeConfig, SimulatorPool,
};
use etalumis_simulators::BranchingModel;
use etalumis_train::{IcConfig, IcNetwork, Records, TrainPlan, Trainer};
use std::path::PathBuf;
use std::time::Instant;

const CAPACITY: usize = 128;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn gen_cfg(n: usize, workers: usize) -> DatasetGenConfig {
    DatasetGenConfig {
        n,
        traces_per_shard: 500,
        partitions: 1,
        workers,
        seed: 7,
        ..Default::default()
    }
}

/// Train one rank on `records`: the offline replay and the live stream run
/// the same plan.
fn train(records: Records<'_>) {
    let plan = TrainPlan::stream(records, BucketerConfig { batch: 32, spill_after: 256 }, 128);
    plan.run(&mut new_trainer()).expect("training");
}

fn new_trainer() -> Trainer<Adam> {
    Trainer::new(
        IcNetwork::new(IcConfig::small([1, 1, 1], 11)),
        Adam::new(LrSchedule::Constant(1e-3)),
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let d =
        std::env::temp_dir().join(format!("etalumis_bench_stream_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Offline staged pipeline: materialize every trace to shards, then train
/// over the dataset. Returns (generate secs, train secs).
fn run_offline(n: usize, workers: usize) -> (f64, f64) {
    let dir = tmpdir("offline");
    let t0 = Instant::now();
    let ds = generate_dataset_parallel(|_| BranchingModel::standard(), &gen_cfg(n, workers), &dir)
        .expect("offline generation");
    let gen_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    train(Records::Replay(&ds));
    let train_secs = t1.elapsed().as_secs_f64();
    drop(ds);
    let _ = std::fs::remove_dir_all(&dir);
    (gen_secs, train_secs)
}

/// Streaming pipeline: generation and training overlap through the bounded
/// channel. Returns (total secs, channel stats).
fn run_streaming(n: usize, workers: usize) -> (f64, ChannelStats) {
    let chan = TraceChannel::bounded(CAPACITY);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut pool = SimulatorPool::from_factory(workers, |_| BranchingModel::standard());
            RunPlan::new(Backend::Local(&mut pool), &gen_cfg(n, workers))
                .stream(&chan)
                .run()
                .expect("streaming generation");
        });
        train(Records::Channel(&chan));
    });
    (t0.elapsed().as_secs_f64(), chan.stats())
}

fn bench_pipelines(c: &mut Criterion) {
    let n = if quick() { 400 } else { 1500 };
    let workers = RuntimeConfig::default().resolved_workers();
    let mut group = c.benchmark_group("generate_train_pipeline");
    group.sample_size(10);
    group.bench_function("offline_staged", |b| b.iter(|| run_offline(n, workers)));
    group.bench_function("streaming_overlapped", |b| b.iter(|| run_streaming(n, workers)));
    group.finish();

    // Headline number: one measured run per pipeline, outside the sampling
    // harness, so even `--quick` smoke runs print the speedup.
    let (gen_secs, train_secs) = run_offline(n, workers);
    let (stream_secs, stats) = run_streaming(n, workers);
    let offline_secs = gen_secs + train_secs;
    println!(
        "end-to-end: streaming is {:.2}x offline for {n} traces on {workers} workers \
         (offline {offline_secs:.2}s = generate {gen_secs:.2}s + train {train_secs:.2}s, \
         streaming {stream_secs:.2}s; channel max occupancy {} of {CAPACITY}, \
         {} blocked sends, {} blocked recvs)",
        offline_secs / stream_secs,
        stats.max_occupancy,
        stats.blocked_sends,
        stats.blocked_recvs,
    );
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
