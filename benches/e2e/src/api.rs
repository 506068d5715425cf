//! The benchmark's whole view of the repository.
//!
//! This is the only file that names `etalumis::*`. Everything the harness
//! calls is re-exported here, so this list *is* the public surface a later
//! refactor must keep callable (or change through an issue of its own that
//! edits the benchmark and claims no gain). Deliberately minimal: no
//! `*_resumable`, `*_traced` or `*_distributed` variants.

pub use etalumis::core::{BoxedProgram, Executor, ObserveMap, ProbProgram, SimCtx, Trace};
pub use etalumis::data::{
    decode_record, encode_record, sort_dataset, DistributedSampler, SamplerConfig, ShardReader,
    ShardWriter, TraceDataset, TraceRecord,
};
pub use etalumis::distributions::{Distribution, Value};
pub use etalumis::inference::diagnostics::{chain_ess, integrated_autocorr_time};
pub use etalumis::inference::{
    ic_importance_sampling, importance_sampling, rmh_with_callback, total_variation, Histogram,
    RmhConfig, WeightedTraces,
};
pub use etalumis::nn::{
    Adam, CategoricalHead, Cnn3d, LrSchedule, Lstm, MixtureTnHead, Module, Optimizer,
};
pub use etalumis::ppx::wire::{decode as wire_decode, frame as wire_frame};
pub use etalumis::ppx::{serve_listener, Message, RemoteModel, TcpTransport, Transport};
pub use etalumis::runtime::{
    generate_dataset_mux, generate_dataset_parallel, mix_seed, BatchRunner, DatasetGenConfig,
    MuxSimulatorPool, RuntimeConfig, ShardedTraceSink, SimulatorPool,
};
pub use etalumis::simulators::TauDecayModel;
pub use etalumis::telemetry::Telemetry;
pub use etalumis::tensor::conv::{conv3d_backward_data, conv3d_backward_weights, conv3d_blocked};
pub use etalumis::tensor::flops::training_flops;
pub use etalumis::tensor::gemm::{matmul, matmul_at_b};
pub use etalumis::tensor::{pool as kernel_pool, Conv3dSpec, Tensor};
pub use etalumis::train::{IcConfig, IcNetwork, StepResult, Trainer};

use etalumis::simulators::{DetectorConfig, TauDecayConfig};

/// Observation dims of [`tau_model`].
pub const OBS_DIMS: [usize; 3] = [8, 13, 13];

/// The reduced τ-decay model every workload runs: the 8×13×13 detector and
/// widened voxel noise of `etalumis_bench::bench_tau_model`, re-declared
/// here so the benchmark depends on the facade crate alone.
pub fn tau_model() -> TauDecayModel {
    TauDecayModel::new(TauDecayConfig {
        detector: DetectorConfig { depth: 8, height: 13, width: 13, ..Default::default() },
        obs_noise_std: 0.8,
        ..Default::default()
    })
}

/// Name of the τ model's observe statement.
pub const OBSERVE_NAME: &str = TauDecayModel::OBSERVE_NAME;
