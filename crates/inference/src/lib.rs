//! # etalumis-inference
//!
//! The inference engines of etalumis-rs, operating in the space of execution
//! traces: "a single sample from the inference engine corresponds to a full
//! run of the simulator" (paper §4.2).
//!
//! * [`is`] — importance sampling: the serial prior-proposal loop
//!   (likelihood weighting) and the embarrassingly parallel driver on the
//!   runtime, under any proposer.
//! * [`rmh`] — single-site random-walk / lightweight Metropolis–Hastings,
//!   the paper's high-cost baseline with statistical guarantees.
//! * [`ic`] — inference compilation: IS guided by a learned
//!   [`ic::ProposalProvider`] (the trained 3DCNN–LSTM network of
//!   `etalumis-train`), conditioned once and shared by every worker.
//! * [`diagnostics`] — autocorrelation, integrated autocorrelation time,
//!   chain ESS, and the Gelman–Rubin R̂ used to certify the RMH baseline.
//! * [`posterior`] — weighted empirical posteriors, histograms, importance
//!   ESS, evidence estimates.

pub mod diagnostics;
pub mod ic;
pub mod is;
pub mod posterior;
pub mod rmh;

pub use ic::{ic_importance_sampling, IcProposer, IcProposerFactory, ProposalProvider};
pub use is::{importance_sampling, parallel_importance_sampling};
pub use posterior::{total_variation, Histogram, WeightedTraces};
pub use rmh::{rmh, rmh_with_callback, RmhConfig, RmhStats};
