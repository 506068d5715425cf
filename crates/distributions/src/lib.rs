//! # etalumis-distributions
//!
//! The probability-distribution and value vocabulary shared by every layer of
//! etalumis-rs: the PPL core, the PPX protocol, the simulators, and the
//! inference-compilation proposal heads.
//!
//! This mirrors §4.1 of the paper: PPX "provides language-agnostic
//! definitions of common probability distributions"; both the controller and
//! the simulator side evaluate the *same* numeric code, so prior and proposal
//! log-probabilities agree bit-for-bit across the protocol boundary.
//!
//! Highlights:
//! * [`Distribution`] — plain-data distribution specs with `sample`,
//!   `log_prob`, moments, and support metadata.
//! * [`Value`] / [`TensorValue`] — the runtime values flowing through
//!   sample/observe statements and the wire.
//! * [`codec`] — the one binary encoding of values and distributions,
//!   shared by the PPX messages and the trace records of the shard files.
//! * [`mvn`] — generic vs. scalar-specialized 3D multivariate normal PDFs,
//!   reproducing the paper's 13× detector-PDF optimization.
//! * [`math`] — from-scratch special functions (log-gamma, erf/erfc, normal
//!   CDF and quantile) so no external numeric crates are required.

pub mod codec;
pub mod dist;
pub mod math;
pub mod mvn;
pub mod sampling;
pub mod value;

pub use dist::Distribution;
pub use value::{TensorValue, Value};
