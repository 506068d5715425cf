//! Fault-tolerance property tests: the two crash modes the runtime must
//! absorb without losing or corrupting a single byte of batch content.
//!
//! 1. **Process death**: a checkpointed dataset run killed at an arbitrary
//!    trace index, then resumed from its manifest, produces shard files
//!    byte-identical to an uninterrupted run.
//! 2. **Simulator death**: a mux session whose transport dies at an
//!    arbitrary frame boundary is respawned mid-batch; the batch completes
//!    with content bit-identical to the blocking single-connection path,
//!    on the seeded one-round-trip exchange and the per-statement one.

use etalumis::prelude::*;
use etalumis_core::Proposer;
use etalumis_data::{discover_rank_dirs, merge_ranks};
use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, PpxError, SimulatorServer};
use etalumis_runtime::{
    BatchRunner, CheckpointConfig, CollectSink, DatasetGenConfig, KillSwitch, MuxSimulatorPool,
    RunOutput, RuntimeConfig,
};
use etalumis_simulators::BranchingModel;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("etalumis_ft_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A checkpointed shard plan on a local pool of `cfg.workers`, optionally
/// placed as rank `(rank, world)` under `dir`.
fn checkpointed(
    cfg: &DatasetGenConfig,
    dir: &Path,
    ckpt: &CheckpointConfig,
    kill: Option<Arc<KillSwitch>>,
    rank: Option<(usize, usize)>,
) -> std::io::Result<RunOutput> {
    let mut pool = SimulatorPool::from_factory(cfg.workers, |_| BranchingModel::standard());
    let plan = RunPlan::new(Backend::Local(&mut pool), cfg).shards(dir).checkpointed(*ckpt, kill);
    match rank {
        Some((rank, world)) => plan.rank(rank, world).run(),
        None => plan.run(),
    }
}

fn read_shards(ds: &etalumis_data::TraceDataset) -> Vec<(String, Vec<u8>)> {
    ds.shards
        .iter()
        .map(|p| (p.file_name().unwrap().to_str().unwrap().to_string(), std::fs::read(p).unwrap()))
        .collect()
}

/// An endpoint that dies (permanently) after delivering `frames_left`
/// complete frames — a simulator crash at a precise frame boundary.
struct FailAfter {
    inner: InProcMuxEndpoint,
    frames_left: usize,
}

impl MuxEndpoint for FailAfter {
    fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        if self.frames_left == 0 {
            return Err(PpxError::Disconnected);
        }
        let f = self.inner.poll_frame()?;
        if f.is_some() {
            self.frames_left -= 1;
        }
        Ok(f)
    }

    fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError> {
        self.inner.send_frame(payload)
    }

    fn flush(&mut self) -> Result<bool, PpxError> {
        self.inner.flush()
    }
}

fn spawn_inproc_server() -> InProcMuxEndpoint {
    let (ep, sim_side) = InProcMuxEndpoint::pair();
    std::thread::spawn(move || {
        let mut server = SimulatorServer::new("ft", BranchingModel::standard());
        let mut t = sim_side;
        let _ = server.serve(&mut t);
    });
    ep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill a checkpointed dataset run at an arbitrary trace index; the
    /// resumed run's shard files are byte-identical to an uninterrupted
    /// reference.
    #[test]
    fn prop_killed_run_resumes_byte_identical(kill_at in 1usize..40, seed in 0u64..1000) {
        let cfg = DatasetGenConfig {
            n: 40,
            traces_per_shard: 6,
            partitions: 2,
            workers: 2,
            seed,
            ..Default::default()
        };
        let ckpt = CheckpointConfig { interval: 4 };

        let dir_ref = tmpdir(&format!("ref_{seed}_{kill_at}"));
        let reference = checkpointed(&cfg, &dir_ref, &ckpt, None, None).unwrap().dataset;

        let dir = tmpdir(&format!("kill_{seed}_{kill_at}"));
        let kill = Arc::new(KillSwitch::after(kill_at));
        let err = checkpointed(&cfg, &dir, &ckpt, Some(kill), None).map(|_| ()).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);

        let resumed = checkpointed(&cfg, &dir, &ckpt, None, None).unwrap().dataset;
        prop_assert_eq!(resumed.len(), cfg.n);
        prop_assert_eq!(read_shards(&resumed), read_shards(&reference));

        std::fs::remove_dir_all(&dir_ref).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Distributed generation + merge is byte-identical to the
    /// single-process run for arbitrary fleet shapes: any `world_size`,
    /// any per-rank worker count, and one rank killed at an arbitrary
    /// trace index and resumed before the merge.
    #[test]
    fn prop_distributed_merge_matches_single_process(
        world in 1usize..4,
        workers in 1usize..4,
        kill_at in 1usize..40,
        seed in 0u64..500,
    ) {
        let cfg = DatasetGenConfig {
            n: 40,
            traces_per_shard: 6,
            partitions: 2,
            workers,
            seed,
            ..Default::default()
        };
        let ckpt = CheckpointConfig { interval: 4 };

        let dir_ref = tmpdir(&format!("dref_{world}_{workers}_{kill_at}_{seed}"));
        let reference = checkpointed(&cfg, &dir_ref, &ckpt, None, None).unwrap().dataset;

        let root = tmpdir(&format!("droot_{world}_{workers}_{kill_at}_{seed}"));
        let killed_rank = kill_at % world;
        for rank in 0..world {
            let kill = (rank == killed_rank).then(|| Arc::new(KillSwitch::after(kill_at)));
            let result = checkpointed(&cfg, &root, &ckpt, kill, Some((rank, world)));
            let slice = etalumis_runtime::rank_slice(cfg.n, rank, world);
            match result {
                Ok(out) => prop_assert_eq!(out.dataset.len(), slice.len()),
                Err(e) => {
                    // The kill fired before the slice finished: resume the
                    // "dead" rank with the same call, no kill switch.
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
                    prop_assert_eq!(rank, killed_rank);
                    let out = checkpointed(&cfg, &root, &ckpt, None, Some((rank, world))).unwrap();
                    prop_assert_eq!(out.dataset.len(), slice.len());
                }
            }
        }

        let merged_dir = root.join("merged");
        let merged = merge_ranks(&discover_rank_dirs(&root).unwrap(), &merged_dir).unwrap();
        prop_assert_eq!(merged.manifest.records, cfg.n as u64);
        prop_assert!(merged.manifest.failed().is_empty());
        prop_assert_eq!(merged.shards.len(), reference.shards.len());
        for (a, b) in merged.shards.iter().zip(&reference.shards) {
            prop_assert_eq!(a.file_name(), b.file_name());
            prop_assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "merged shard {:?} differs from the single-process run \
                 (world={}, workers={}, kill_at={}, seed={})",
                a, world, workers, kill_at, seed
            );
        }
        std::fs::remove_dir_all(&dir_ref).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Kill one mux session at an arbitrary frame boundary; session respawn
    /// completes the batch with content bit-identical to the blocking
    /// single-connection reference. Each case runs both exchanges: the
    /// per-statement one killed at `frames`, and the seeded one, whose
    /// session exchanges one frame per trace (about ten in this batch),
    /// killed within them.
    #[test]
    fn prop_mux_session_killed_at_any_frame_boundary_respawns(frames in 1usize..40) {
        let n = 20;
        let seed = 4242;

        // Blocking reference over local executions (the mux path's content
        // contract is per-trace seeding, identical to the local executor).
        let mut model = BranchingModel::standard();
        let observes = ObserveMap::new();
        let reference: Vec<Trace> = (0..n)
            .map(|i| {
                Executor::try_execute_seeded(
                    &mut model,
                    &mut PriorProposer,
                    &observes,
                    etalumis_runtime::mix_seed(seed, i),
                )
                .unwrap()
            })
            .collect();

        for (seeded, frames) in [(false, frames), (true, 1 + frames % 10)] {
            // Session 0's first endpoint dies after `frames` frames;
            // respawned endpoints are healthy.
            let crashed = Arc::new(AtomicBool::new(false));
            let pool_result = MuxSimulatorPool::connect(2, "etalumis-rs", move |i| {
                let inner = spawn_inproc_server();
                let ep: Box<dyn MuxEndpoint> = if i == 0 && !crashed.swap(true, Ordering::SeqCst) {
                    Box::new(FailAfter { inner, frames_left: frames })
                } else {
                    Box::new(inner)
                };
                Ok(ep)
            });
            // A death before the handshake completes is a connect-time
            // error — a legal, reported outcome; the respawn contract
            // starts at a connected pool.
            let Ok(mut pool) = pool_result else { continue };
            let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
            let sink = CollectSink::new(n);
            // Prior proposals from a closure are not `prior_only`: the
            // per-statement exchange.
            let per_statement = |_: usize| Box::new(PriorProposer) as Box<dyn Proposer + Send>;
            let stats = if seeded {
                runner.run_mux_prior(&mut pool, &observes, n, seed, &sink)
            } else {
                runner.run(Backend::Mux(&mut pool), &per_statement, &observes, n, seed, &sink)
            };
            prop_assert!(stats.failures.is_empty(), "respawn must absorb the crash: {:?}", stats);
            prop_assert_eq!(stats.total_executed(), n);
            let traces = sink.into_traces();
            prop_assert_eq!(traces.len(), n);
            for (idx, (a, b)) in traces.iter().zip(&reference).enumerate() {
                prop_assert_eq!(a.entries.len(), b.entries.len(), "trace {}", idx);
                for (x, y) in a.entries.iter().zip(&b.entries) {
                    prop_assert_eq!(&x.value, &y.value, "trace {}", idx);
                    prop_assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits(), "trace {}", idx);
                }
                prop_assert_eq!(&a.result, &b.result, "trace {}", idx);
            }
        }
    }
}
