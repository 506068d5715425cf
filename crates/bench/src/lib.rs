//! # etalumis-bench
//!
//! Benchmark harnesses regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the full index):
//!
//! * The std-only `ratios` probe (`cargo bench -p etalumis-bench`, one run
//!   committed as `RATIOS.jsonl`) times both sides of the point
//!   optimizations next to the paper's ratios: blocked Conv3D (8×), scalar
//!   3D MVN PDF (13× / 1.5× pipeline), dladdr-style address caching (5×),
//!   sparse+concat allreduce (4×), sorted/grouped trace I/O (10×), sorted
//!   sub-minibatching (up to 50× at paper scale), blocking vs multiplexed
//!   PPX, offline vs streaming generate→train, and telemetry on vs off.
//!   The repo's end-to-end benchmark (`benches/e2e`) measures only the fast
//!   side of each, and is the one instrument speed claims and the CI gate
//!   go through.
//! * One driver, `cargo run -p etalumis-bench --release --bin reproduce --
//!   <experiment>… | all [--json] [--log-debug]`, regenerates Figures 2, 4,
//!   5, 7 and 8 and measures Table 2 / Figure 6 at 1 and 2 ranks, quoting
//!   the paper's numbers beside its own.
//! * `run_report` renders a telemetry `events.jsonl`.
//!
//! This library holds the shared workload builders and the experiments'
//! training loop, [`train_cycling`].

use etalumis_core::{Executor, ObserveMap, PriorProposer, RecordBuilder, RunError};
use etalumis_data::{sort_dataset, TraceDataset, TraceRecord};
use etalumis_nn::Optimizer;
use etalumis_runtime::{generate_dataset_parallel, DatasetGenConfig};
use etalumis_simulators::{DetectorConfig, TauDecayConfig, TauDecayModel};
use etalumis_train::{IcConfig, IcNetwork, Trainer};
use std::path::PathBuf;

/// Reduced-detector τ model used across benches (structure preserved,
/// volume reduced so laptop runs finish). The per-voxel noise is widened
/// relative to the library default so the laptop-scale posterior is broad
/// enough for finite-budget RMH chains and small IC networks — the paper
/// operates at 15M training traces and ~10⁶ RMH proposals, where a peaked
/// likelihood is affordable.
pub fn bench_tau_model() -> TauDecayModel {
    let config = TauDecayConfig {
        detector: DetectorConfig { depth: 8, height: 13, width: 13, ..Default::default() },
        obs_noise_std: 0.8,
        ..Default::default()
    };
    TauDecayModel::new(config)
}

/// Observation dims of [`bench_tau_model`].
pub const BENCH_OBS_DIMS: [usize; 3] = [8, 13, 13];

/// IC config matched to the bench τ model.
pub fn bench_ic_config(seed: u64) -> IcConfig {
    IcConfig::small(BENCH_OBS_DIMS, seed)
}

/// In-memory prior trace records from the bench τ model, pruned: record
/// `s` is the prior run seeded `seed0 + s`, recorded straight into its
/// record.
pub fn tau_records(n: usize, seed0: u64) -> Result<Vec<TraceRecord>, RunError> {
    let mut m = bench_tau_model();
    let observes = ObserveMap::new();
    (0..n)
        .map(|s| {
            let seed = seed0 + s as u64;
            Executor::try_record_seeded(
                &mut m,
                &mut PriorProposer,
                &observes,
                seed,
                RecordBuilder::new(true),
            )
        })
        .collect()
}

/// Traces per step in [`train_cycling`].
pub const CYCLING_MINIBATCH: usize = 32;

/// The experiments' training loop. A network from `config`, with the
/// addresses of `records` and `held_out` registered, is trained for `steps`
/// steps with the gradient norm clipped at 10. Step `s` trains on the
/// [`CYCLING_MINIBATCH`] records starting at `s · CYCLING_MINIBATCH mod
/// records.len()`, cut short at the end of `records`, which must not be
/// empty. After every step, `each` gets the trainer, the step index and the
/// step's loss.
pub fn train_cycling<O: Optimizer>(
    config: IcConfig,
    optimizer: O,
    records: &[TraceRecord],
    held_out: &[TraceRecord],
    steps: usize,
    mut each: impl FnMut(&mut Trainer<O>, usize, f64),
) -> Trainer<O> {
    let mut net = IcNetwork::new(config);
    net.pregenerate(records.iter().chain(held_out));
    let mut trainer = Trainer::new(net, optimizer);
    trainer.grad_clip = Some(10.0);
    for step in 0..steps {
        let lo = (step * CYCLING_MINIBATCH) % records.len();
        let loss = trainer.step(&records[lo..(lo + CYCLING_MINIBATCH).min(records.len())]).loss;
        each(&mut trainer, step, loss);
    }
    trainer
}

/// A scratch directory unique to this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("etalumis_bench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir"); // etalumis: allow(panic-freedom, reason = "bench harness setup; abort on scratch-dir failure is the harness contract")
    d
}

/// Generate + sort an on-disk τ dataset for training benches, on the
/// parallel runtime. `ordered` mode keeps the dataset byte-identical for
/// any worker count, so bench numbers stay comparable run-to-run. Returns
/// (sorted dataset, scratch dir to delete afterwards).
pub fn tau_dataset(n: usize, per_shard: usize, tag: &str) -> (TraceDataset, PathBuf) {
    let dir = scratch_dir(tag);
    let cfg = DatasetGenConfig {
        n,
        traces_per_shard: per_shard,
        partitions: 2,
        workers: 0,
        seed: 17,
        ordered: true,
        ..Default::default()
    };
    let sorted = generate_dataset_parallel(|_| bench_tau_model(), &cfg, &dir)
        .and_then(|ds| sort_dataset(&ds, &dir.join("sorted"), per_shard))
        .expect("generate and sort"); // etalumis: allow(panic-freedom, reason = "bench harness setup; abort on generation or sort failure is the harness contract")
    (sorted, dir)
}

/// The bench binaries' structured logger (re-exported from
/// `etalumis-telemetry`): human-readable progress on stderr, one JSON
/// object per event on stdout when the binary is invoked with `--json`.
/// `Logger::section` and `Logger::speedup` replace the old free-form
/// `rule` / `speedup_line` println helpers.
pub use etalumis_telemetry::{Field, Logger};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_model_produces_expected_observation_shape() {
        let mut m = bench_tau_model();
        let t = Executor::sample_prior(&mut m, 1);
        assert_eq!(t.first_observed().unwrap().as_tensor().shape, BENCH_OBS_DIMS.to_vec());
    }

    /// The `ratios` probe's sorted sub-minibatch needs ≥ 16 traces of one type.
    #[test]
    fn dominant_trace_type_fills_a_sorted_minibatch() {
        let records = tau_records(512, 900).unwrap();
        assert!(etalumis_train::sub_minibatches(&records)[0].len() >= 16);
    }

    #[test]
    fn tau_records_builder_works() {
        let recs = tau_records(5, 100).unwrap();
        assert_eq!(recs.len(), 5);
        assert!(recs.iter().all(|r| r.num_controlled() >= 4));
    }
}
