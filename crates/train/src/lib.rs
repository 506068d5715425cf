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
//! * [`trainer`] — the training step ([`Trainer::step`]): sub-minibatch
//!   gradient accumulation, then clip + optimizer, with per-phase timing.
//! * [`plan`] — the one way to run training: a [`TrainPlan`] of batch
//!   source (dataset epochs, or a live channel / replayed dataset bucketed
//!   online by trace type — [`streaming`]) × rank count, executed by one
//!   rank loop (Algorithm 2: synchronous data-parallel SGD on rank threads
//!   with bit-identical replicas and Figure 4 instrumentation).
//! * [`allreduce`] — synchronous gradient reduction across rank threads
//!   with the paper's §4.4.4 ladder: dense per-tensor → non-null only (4×)
//!   → concatenated single-buffer, summed in rank order.

pub mod allreduce;
mod distributed;
pub mod network;
pub mod plan;
pub mod streaming;
pub mod trainer;

pub use allreduce::{AllReduceCtx, AllReduceStrategy, GradVisitor};
pub use network::{IcConfig, IcNetwork, IcState, InferenceStats};
pub use plan::{TrainPlan, TrainReport};
pub use streaming::Records;
pub use trainer::{
    accumulate_minibatch, record_kernel_telemetry, sub_minibatches, PhaseTimings, StepResult,
    Trainer,
};
