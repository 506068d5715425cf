//! # etalumis-tensor
//!
//! The dense f32 tensor substrate underneath the etalumis-rs neural network
//! stack — the from-scratch stand-in for the PyTorch + MKL-DNN layer the
//! paper optimizes in §4.4.2.
//!
//! * [`Tensor`] — row-major dense tensors with elementwise ops.
//! * [`gemm`] — blocked matrix products (forward, `A·Bᵀ`, `Aᵀ·B`) on the
//!   [`simd`] micro-kernels and the [`pool`] threads, powering the LSTM and
//!   dense layers.
//! * [`conv`] — 3D convolution on the same GEMM spine: forward
//!   ([`conv::conv3d_blocked`]), backward-data and backward-weights as tiled
//!   im2col products — the SIMD-friendly forward *and* backward Conv3D that
//!   was the paper's 8× kernel win — beside the plain NCDHW direct
//!   convolution ([`conv::conv3d_naive`]) kept as baseline and oracle, plus
//!   max pooling; a conv + ReLU + max-pool stage runs as one per-image pass
//!   each way ([`conv::conv3d_fused_reusing`], [`conv::ConvGrad`]).
//! * [`activations`] — ReLU (with its backward), sigmoid, tanh and
//!   row-wise (log-)softmax.
//! * [`simd`] — the runtime-dispatched micro-kernel backend: AVX-512F GEMM
//!   row kernels and AVX2+FMA via `std::arch`, with a bit-identical 8-lane
//!   scalar fallback.
//! * [`pool`] — resident kernel threads with deterministic fixed chunking
//!   (parallel results are a pure function of shape, never thread count).
//! * [`flops`] — analytic flop accounting used to report Gflop/s in the
//!   Table 2 reproduction.

pub mod activations;
pub mod conv;
pub mod flops;
pub mod gemm;
pub mod pool;
pub mod simd;
pub mod tensor;

pub use conv::Conv3dSpec;
pub use tensor::Tensor;
