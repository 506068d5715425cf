//! # etalumis-simulators
//!
//! The scientific-simulator substrates of etalumis-rs:
//!
//! * [`tau`] — "mini-Sherpa": a τ-lepton decay generator with 38 decay
//!   channels ([`channels`]), stick-breaking kinematics behind a
//!   rejection-sampling loop, and the physics summaries (MET, leading
//!   final-state-particle energies) reported in the paper's Figure 8.
//! * [`detector`] — the fast 3D calorimeter simulator (20×35×35 voxels, as
//!   configured in the paper §5.4), with both the scalar and the generic
//!   multivariate-normal deposition paths (the 13×/1.5× ablation of §4.2).
//! * [`test_models`] — small models with analytically checkable posteriors
//!   used throughout the test suites (conjugate Gaussian, branching model,
//!   rejection model, GMM, and the voxel mean model behind the IC
//!   learnability oracles).
//!
//! These are *probabilistic programs*: they implement
//! [`etalumis_core::ProbProgram`] and can run locally or behind the PPX
//! protocol without modification — the paper's core claim.

pub mod channels;
pub mod detector;
pub mod tau;
pub mod test_models;

pub use channels::{branching_ratios, tau_decay_channels, DecayChannel, ParticleKind};
pub use detector::{Detector, DetectorConfig, IncomingParticle};
pub use tau::{TauDecayConfig, TauDecayModel};
pub use test_models::{
    BranchingModel, GaussianUnknownMean, GmmModel, RejectionModel, VoxelMeanModel,
};
