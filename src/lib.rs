//! # etalumis
//!
//! A Rust reproduction of *Etalumis: Bringing Probabilistic Programming to
//! Scientific Simulators at Scale* (Baydin et al., SC 2019).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `etalumis-core` | traces, addresses, programs, the executor |
//! | [`distributions`] | `etalumis-distributions` | distribution/value vocabulary |
//! | [`ppx`] | `etalumis-ppx` | the PPX protocol (wire codec, transports, bindings) |
//! | [`tensor`] | `etalumis-tensor` | f32 tensors, GEMM, Conv3D kernels |
//! | [`nn`] | `etalumis-nn` | LSTM/CNN layers, proposal heads, optimizers |
//! | [`simulators`] | `etalumis-simulators` | mini-Sherpa τ decay + 3D detector |
//! | [`inference`] | `etalumis-inference` | IS, RMH, IC engines + diagnostics |
//! | [`data`] | `etalumis-data` | trace datasets, shards, samplers |
//! | [`runtime`] | `etalumis-runtime` | the `RunPlan` (one driver for every batch: local or mux backend, checkpointing, rank slices, shards or stream), work-stealing scheduler, simulator pools |
//! | [`train`] | `etalumis-train` | dynamic IC networks, the `TrainPlan` (one rank loop for every training run: dataset epochs or a stream, any rank count) |
//! | [`telemetry`] | `etalumis-telemetry` | spans/counters/gauges, JSONL event logs, run metrics, leveled logger |
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the crate-to-paper map and the reproduced-experiments index.

pub use etalumis_core as core;
pub use etalumis_data as data;
pub use etalumis_distributions as distributions;
pub use etalumis_inference as inference;
pub use etalumis_nn as nn;
pub use etalumis_ppx as ppx;
pub use etalumis_runtime as runtime;
pub use etalumis_simulators as simulators;
pub use etalumis_telemetry as telemetry;
pub use etalumis_tensor as tensor;
pub use etalumis_train as train;

/// Convenience prelude with the most common types.
pub mod prelude {
    pub use etalumis_core::{
        Executor, FnProgram, ObserveMap, PriorProposer, ProbProgram, SimCtx, SimCtxExt, Trace,
    };
    pub use etalumis_data::{BucketerConfig, TraceBucketer, TraceChannel};
    pub use etalumis_distributions::{Distribution, TensorValue, Value};
    pub use etalumis_inference::{
        ic_importance_sampling, importance_sampling, parallel_importance_sampling, rmh,
        IcProposerFactory, RmhConfig, WeightedTraces,
    };
    pub use etalumis_runtime::{
        Backend, BatchRunner, CollectSink, DatasetGenConfig, PriorProposerFactory, RunPlan,
        RuntimeConfig, ShardedTraceSink, SimulatorPool, TraceSink,
    };
    pub use etalumis_simulators::{GaussianUnknownMean, TauDecayModel};
    pub use etalumis_telemetry::{Collector, Logger, RunMetrics, Telemetry};
    pub use etalumis_train::{IcConfig, IcNetwork, TrainPlan, TrainReport, Trainer};
}
