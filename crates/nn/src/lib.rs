//! # etalumis-nn
//!
//! A from-scratch neural-network library with manual reverse-mode backprop —
//! the stand-in for the PyTorch layer of the paper, providing exactly the
//! components the dynamic 3DCNN–LSTM inference-compilation architecture
//! needs (§4.3):
//!
//! * [`Linear`] / [`Mlp2`] — dense layers with input-cache stacks so one
//!   instance can be reused across LSTM time steps.
//! * [`Lstm`] — stacked LSTM with step-wise forward and full BPTT.
//! * [`Cnn3d`] — the 3D-convolutional observation encoder (paper layer
//!   configuration constructible via [`cnn3d::Cnn3dConfig::paper`]).
//! * [`heads`] — address-specific proposal layers: mixture-of-truncated-
//!   normals (uniform priors), categorical, and Gaussian heads, each fusing
//!   `−log q` loss with its backward pass, and [`ProposalHead`], which
//!   picks one by the prior and proposes for that prior.
//! * [`Embedding`] / [`SampleEmbedding`] — address and previous-sample
//!   embeddings.
//! * [`optim`] — Adam and Adam-LARC with a constant or polynomial (order
//!   1/2) LR schedule, global-norm gradient clipping.
//!
//! Every gradient path is validated against finite differences in the unit
//! tests of the corresponding module.

pub mod cnn3d;
pub mod embedding;
pub mod heads;
pub mod linear;
pub mod lstm;
pub mod optim;
pub mod param;

pub use cnn3d::{Cnn3d, Cnn3dConfig, CnnStageSpec};
pub use embedding::{value_features_into, Embedding, SampleEmbedding};
pub use heads::{CategoricalHead, MixtureTnHead, NormalHead, ProposalHead, CATEGORICAL_PRIOR_MIX};
pub use linear::{Linear, Mlp2, MlpScratch};
pub use lstm::{Lstm, LstmState};
pub use optim::{clip_grad_norm, Adam, LrSchedule, Optimizer};
pub use param::{par_map_params, Module, Parameter};
