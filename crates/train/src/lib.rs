//! # etalumis-train
//!
//! The inference-compilation training stack: everything between the trace
//! datasets of `etalumis-data` and the IC inference engine of
//! `etalumis-inference`.
//!
//! * [`network`] — the dynamic 3DCNN–LSTM architecture (paper §4.3):
//!   shared LSTM core + observation encoder with address-specific
//!   embeddings and proposal heads created on first encounter, offline
//!   layer pre-generation, Algorithm 1 sub-minibatch loss, and the
//!   [`etalumis_inference::ProposalProvider`] implementation used at
//!   inference time.
//! * [`trainer`] — the single-rank training loop with per-phase timing.
//! * [`allreduce`] — synchronous gradient reduction across rank threads
//!   with the paper's §4.4.4 ladder: dense per-tensor → non-null only (4×)
//!   → concatenated single-buffer.
//! * [`distributed`] — Algorithm 2: synchronous data-parallel training on
//!   rank threads with bit-identical replicas and Figure 4 instrumentation.
//! * [`streaming`] — the pull side of the streaming generate→train
//!   pipeline: train off a live bounded trace channel with online
//!   trace-type bucketing (no offline sort), an offline-replay comparator
//!   for teed runs, and the rank-parallel variant with the same
//!   leave-together collective discipline as [`distributed`].
//! * [`perfmodel`] — Table 1 platform registry and the calibrated analytic
//!   model standing in for Cori/Edison at 64–1,024 nodes (see DESIGN.md
//!   substitution table).

pub mod allreduce;
pub mod distributed;
pub mod network;
pub mod perfmodel;
pub mod streaming;
pub mod trainer;

pub use allreduce::{AllReduceCtx, AllReduceStrategy};
pub use distributed::{train_distributed, DistConfig, DistReport};
pub use network::{IcConfig, IcNetwork, IcState, InferenceStats};
pub use perfmodel::{platforms, PhaseModel, Platform, ScalingModel, ScalingPoint};
pub use streaming::{
    train_stream, train_stream_distributed, train_stream_offline, StreamDistConfig,
    StreamTrainConfig, StreamTrainReport,
};
pub use trainer::{
    accumulate_minibatch, record_kernel_telemetry, sub_minibatches, PhaseTimings, StepResult,
    TrainLog, Trainer,
};
