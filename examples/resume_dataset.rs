//! Checkpointed dataset generation surviving a mid-run kill.
//!
//! The fault-tolerance demo for long batch runs (ROADMAP: checkpoint/
//! resume): generate a sharded trace dataset with a [`CheckpointSink`]
//! manifest, abort it SIGKILL-style partway through (a [`KillSwitch`] that
//! stops the workers dead — no flushing, no cleanup, exactly the on-disk
//! state a killed process leaves), resume from the manifest, and verify
//! the final shard files are **byte-identical** to an uninterrupted
//! reference run.
//!
//! ```text
//! cargo run --release --example resume_dataset
//! ```
//!
//! [`CheckpointSink`]: etalumis_runtime::CheckpointSink
//! [`KillSwitch`]: etalumis_runtime::KillSwitch

use etalumis_data::TraceDataset;
use etalumis_runtime::{
    Backend, CheckpointConfig, DatasetGenConfig, KillSwitch, RunPlan, SimulatorPool, MANIFEST_NAME,
};
use etalumis_simulators::BranchingModel;
use etalumis_telemetry::{Field, Logger};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("etalumis_resume_demo_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The checkpointed generation: one plan, run again to resume.
fn generate(
    cfg: &DatasetGenConfig,
    dir: &Path,
    ckpt: CheckpointConfig,
    kill: Option<Arc<KillSwitch>>,
) -> std::io::Result<TraceDataset> {
    let mut pool = SimulatorPool::from_factory(cfg.workers, |_| BranchingModel::standard());
    let plan = RunPlan::new(Backend::Local(&mut pool), cfg).shards(dir).checkpointed(ckpt, kill);
    Ok(plan.run()?.dataset)
}

fn main() {
    let log = Logger::from_args();
    let cfg = DatasetGenConfig {
        n: 4000,
        traces_per_shard: 250,
        partitions: 3,
        workers: 4,
        seed: 2019,
        ..Default::default()
    };
    let ckpt = CheckpointConfig { interval: 100 };
    let kill_at = 1700;

    // Reference: the same run, never interrupted.
    let dir_ref = fresh_dir("ref");
    let reference = generate(&cfg, &dir_ref, ckpt, None).expect("reference run");
    log.info(
        "reference_run",
        &[
            ("traces", Field::U64(reference.len() as u64)),
            ("shards", Field::U64(reference.shards.len() as u64)),
        ],
    );

    // Phase 1: start the run and kill it after ~{kill_at} deliveries.
    let dir = fresh_dir("run");
    let kill = Arc::new(KillSwitch::after(kill_at));
    let err = generate(&cfg, &dir, ckpt, Some(kill))
        .map(|_| ())
        .expect_err("the kill switch must abort the run");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "unexpected error: {err}");
    assert!(dir.join(MANIFEST_NAME).exists(), "a manifest must survive the kill");
    let partials = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension().map(|x| x == "partial").unwrap_or(false))
        .count();
    let err_text = err.to_string();
    log.info("killed_mid_run", &[("error", Field::Str(&err_text))]);
    log.info("crash_state", &[("partial_journals", Field::U64(partials as u64))]);

    // Phase 2: resume — same plan, no kill switch.
    let resumed = generate(&cfg, &dir, ckpt, None).expect("resumed run");
    log.info(
        "resumed_run",
        &[
            ("traces", Field::U64(resumed.len() as u64)),
            ("shards", Field::U64(resumed.shards.len() as u64)),
        ],
    );

    // Phase 3: the resumed dataset must be byte-identical to the reference.
    assert_eq!(resumed.shards.len(), reference.shards.len(), "shard count differs");
    let mut bytes = 0u64;
    for (a, b) in resumed.shards.iter().zip(&reference.shards) {
        assert_eq!(a.file_name(), b.file_name(), "shard names differ");
        let (da, db) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        assert_eq!(da, db, "shard {a:?} differs from the uninterrupted reference");
        bytes += da.len() as u64;
    }
    assert!(!dir.join(MANIFEST_NAME).exists(), "manifest must be gone after completion");
    log.info(
        "verified",
        &[
            ("shards", Field::U64(resumed.shards.len() as u64)),
            ("bytes", Field::U64(bytes)),
            ("byte_identical", Field::Bool(true)),
        ],
    );

    std::fs::remove_dir_all(&dir_ref).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    println!("OK");
}
