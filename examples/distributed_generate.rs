//! Distributed dataset generation across worker processes, with a crash.
//!
//! The fleet-shaped form of `resume_dataset`: the parent process plays the
//! job scheduler, spawning `WORLD` worker processes that each generate one
//! contiguous rank slice of the global batch (a checkpointed [`RunPlan`]
//! placed with `.rank(r, world)`) into a rank-private directory. One
//! worker is killed mid-run (a [`KillSwitch`] stops its workers dead —
//! exactly the on-disk state `SIGKILL` leaves), the parent re-spawns it,
//! and the worker resumes from its checkpoint manifest. Once every rank's
//! manifest is on disk, [`merge_ranks`] folds the rank outputs back into
//! the canonical partition-by-trace-type layout and the parent verifies
//! the merged shards are **byte-identical** to a single-process
//! checkpointed run of the whole batch.
//!
//! ```text
//! cargo run --release --example distributed_generate
//! ```
//!
//! (the binary re-executes itself with `--rank R` for the worker
//! processes, mirroring `ppx_mux_clients`).
//!
//! [`RunPlan`]: etalumis_runtime::RunPlan
//! [`KillSwitch`]: etalumis_runtime::KillSwitch
//! [`merge_ranks`]: etalumis_data::merge_ranks

use etalumis_data::{discover_rank_dirs, merge_ranks};
use etalumis_runtime::{
    Backend, CheckpointConfig, DatasetGenConfig, KillSwitch, RunOutput, RunPlan, SimulatorPool,
};
use etalumis_simulators::BranchingModel;
use etalumis_telemetry::{Field, Logger};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const WORLD: usize = 3;
const KILLED_RANK: usize = 1;
const KILL_AT: usize = 300;
/// Worker exit code signalling "killed mid-run, resume me".
const EXIT_KILLED: i32 = 9;

fn config() -> (DatasetGenConfig, CheckpointConfig) {
    (
        DatasetGenConfig {
            n: 2400,
            traces_per_shard: 100,
            partitions: 3,
            workers: 2,
            seed: 2019,
            ..Default::default()
        },
        CheckpointConfig { interval: 50 },
    )
}

/// The batch under `dir`, checkpointed; placed as rank `(rank, WORLD)` when
/// given one.
fn generate(
    dir: &Path,
    rank: Option<usize>,
    kill: Option<Arc<KillSwitch>>,
) -> std::io::Result<RunOutput> {
    let (cfg, ckpt) = config();
    let mut pool = SimulatorPool::from_factory(cfg.workers, |_| BranchingModel::standard());
    let plan = RunPlan::new(Backend::Local(&mut pool), &cfg).shards(dir).checkpointed(ckpt, kill);
    match rank {
        Some(rank) => plan.rank(rank, WORLD).run(),
        None => plan.run(),
    }
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--rank") {
        let rank: usize = args[pos + 1].parse().expect("--rank N");
        let root = PathBuf::from(
            args.iter().position(|a| a == "--root").map(|p| &args[p + 1]).expect("--root DIR"),
        );
        let kill = args
            .iter()
            .position(|a| a == "--kill")
            .map(|p| args[p + 1].parse::<usize>().expect("--kill N"));
        return worker_main(rank, &root, kill);
    }

    let log = Logger::from_args();
    let root = std::env::temp_dir().join(format!("etalumis_dist_gen_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root)?;
    // Reference: one process generating the whole batch.
    let ref_dir = root.join("reference");
    let reference = generate(&ref_dir, None, None)?.dataset;
    log.info(
        "reference_run",
        &[
            ("traces", Field::U64(reference.len() as u64)),
            ("shards", Field::U64(reference.shards.len() as u64)),
        ],
    );

    // Phase 1: one worker process per rank; rank {KILLED_RANK} dies mid-run.
    let exe = std::env::current_exe()?;
    let mut children = Vec::new();
    for rank in 0..WORLD {
        let mut cmd = Command::new(&exe);
        cmd.arg("--rank").arg(rank.to_string()).arg("--root").arg(&root);
        if rank == KILLED_RANK {
            cmd.arg("--kill").arg(KILL_AT.to_string());
        }
        children.push((rank, cmd.spawn()?));
    }
    for (rank, child) in &mut children {
        let status = child.wait()?;
        if *rank == KILLED_RANK {
            assert_eq!(
                status.code(),
                Some(EXIT_KILLED),
                "rank {rank} should have died mid-run, got {status}"
            );
            let status_text = status.to_string();
            log.info(
                "rank_died_as_planned",
                &[("rank", Field::U64(*rank as u64)), ("status", Field::Str(&status_text))],
            );
        } else {
            assert!(status.success(), "rank {rank} failed: {status}");
        }
    }

    // Phase 2: re-spawn the dead rank; it resumes from its manifest.
    log.info("respawning_rank", &[("rank", Field::U64(KILLED_RANK as u64))]);
    let status = Command::new(&exe)
        .arg("--rank")
        .arg(KILLED_RANK.to_string())
        .arg("--root")
        .arg(&root)
        .status()?;
    assert!(status.success(), "resumed rank failed: {status}");

    // Phase 3: merge the rank outputs into the canonical layout.
    let rank_dirs = discover_rank_dirs(&root)?;
    assert_eq!(rank_dirs.len(), WORLD, "every rank must have completed");
    let merged_dir = root.join("merged");
    let merged = merge_ranks(&rank_dirs, &merged_dir)?;
    log.info(
        "merged",
        &[
            ("ranks", Field::U64(merged.manifest.world_size as u64)),
            ("shards", Field::U64(merged.shards.len() as u64)),
            ("records", Field::U64(merged.manifest.records as u64)),
            ("permanent_failures", Field::U64(merged.manifest.failed().len() as u64)),
        ],
    );

    // Phase 4: the merged dataset must be byte-identical to the reference.
    assert_eq!(merged.shards.len(), reference.shards.len(), "shard count differs");
    let mut bytes = 0u64;
    for (a, b) in merged.shards.iter().zip(&reference.shards) {
        assert_eq!(a.file_name(), b.file_name(), "shard names differ");
        let (da, db) = (std::fs::read(a)?, std::fs::read(b)?);
        assert_eq!(da, db, "merged shard {a:?} differs from the single-process reference");
        bytes += da.len() as u64;
    }
    log.info(
        "verified",
        &[
            ("shards", Field::U64(merged.shards.len() as u64)),
            ("bytes", Field::U64(bytes)),
            ("byte_identical", Field::Bool(true)),
        ],
    );
    std::fs::remove_dir_all(&root)?;
    println!("OK");
    Ok(())
}

/// One worker process: generate (or resume) this rank's slice.
fn worker_main(rank: usize, root: &Path, kill_after: Option<usize>) -> std::io::Result<()> {
    let log = Logger::from_args();
    let kill = kill_after.map(|n| Arc::new(KillSwitch::after(n)));
    match generate(root, Some(rank), kill) {
        Ok(out) => {
            let slice = out.rank_manifest.as_ref().map_or(0..0, |m| m.start..m.end);
            log.info(
                "rank_slice_complete",
                &[
                    ("rank", Field::U64(rank as u64)),
                    ("slice_start", Field::U64(slice.start)),
                    ("slice_end", Field::U64(slice.end)),
                    ("traces", Field::U64(out.dataset.len() as u64)),
                    ("shards", Field::U64(out.dataset.shards.len() as u64)),
                    ("executed_this_process", Field::U64(out.stats.total_executed() as u64)),
                    ("retries", Field::U64(out.stats.retries as u64)),
                ],
            );
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            let err_text = e.to_string();
            log.info(
                "rank_killed",
                &[("rank", Field::U64(rank as u64)), ("error", Field::Str(&err_text))],
            );
            std::process::exit(EXIT_KILLED);
        }
        Err(e) => Err(e),
    }
}
