//! The PPX message set.
//!
//! Mirrors the probabilistic programming execution protocol of the paper
//! (§4.1, Figure 1): message pairs covering program entry points (`Run` /
//! `RunResult`), sample statements (`Sample` / `SampleResult`), observe
//! statements (`Observe` / `ObserveResult`), plus handshake, tagging, and
//! reset. The real PPX uses flatbuffers; we use a hand-rolled, documented
//! little-endian binary codec (see [`crate::wire`]) with identical message
//! semantics, which keeps the protocol language-agnostic by construction.
//!
//! One pair goes beyond the per-statement exchange: a simulator that
//! advertises [`Capabilities::SEEDED_PRIOR`] answers `RunPrior` with the
//! whole prior trace in one `PriorTrace`. The controller sends it only to
//! such a simulator; every other peer keeps the per-statement exchange.

use etalumis_core::{ObserveMap, Trace};
use etalumis_distributions::{Distribution, Value};
use std::sync::Arc;

/// The optional protocol features a simulator advertises in its
/// `HandshakeResult`. Bits this side does not know are kept and ignored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Capabilities(u32);

impl Capabilities {
    /// Seeded prior runs: the simulator answers `RunPrior { seed, observes }`
    /// by running its program under prior proposals on an RNG seeded from
    /// `seed`, exactly `Executor::execute_seeded`, and replies with the
    /// whole trace. It answers `RunPrior`s in the order they arrive, and
    /// the controller may have up to [`crate::SEEDED_DEPTH`] outstanding
    /// at once. Only a simulator that reproduces the shared
    /// `distributions` samplers bit for bit may advertise it.
    pub const SEEDED_PRIOR: Capabilities = Capabilities(1);

    /// The set as its wire bits.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// The set from its wire bits.
    pub fn from_bits(bits: u32) -> Self {
        Self(bits)
    }

    /// True when every capability in `other` is in this set.
    pub fn contains(self, other: Capabilities) -> bool {
        self.0 & other.0 == other.0
    }
}

/// A PPX protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Controller → simulator: introduce yourself.
    Handshake {
        /// Name of the inference system initiating the session.
        system_name: String,
    },
    /// Simulator → controller: handshake reply.
    HandshakeResult {
        /// Name of the simulator-side language front end.
        system_name: String,
        /// Name of the wrapped model.
        model_name: String,
        /// Optional features the simulator supports (empty for a peer
        /// from before capabilities).
        capabilities: Capabilities,
    },
    /// Controller → simulator: execute the program once.
    Run {
        /// Observation payload forwarded to the model (may be `Unit`).
        observation: Value,
    },
    /// Simulator → controller: program finished with this result.
    RunResult {
        /// The program's return value.
        result: Value,
    },
    /// Simulator → controller: a sample statement requests a value.
    Sample {
        /// Fully qualified address base built on the simulator side.
        address: String,
        /// Statement name.
        name: String,
        /// Prior distribution at this site.
        distribution: Distribution,
        /// Whether inference engines may control this draw.
        control: bool,
        /// Rejection-sampling re-draw (pyprob `replace=True`).
        replace: bool,
    },
    /// Controller → simulator: the value to use for the pending sample.
    SampleResult {
        /// Realized value.
        value: Value,
    },
    /// Simulator → controller: an observe statement conditions on data.
    Observe {
        /// Fully qualified address base.
        address: String,
        /// Statement name (keys into the controller's observe map).
        name: String,
        /// Likelihood distribution.
        distribution: Distribution,
    },
    /// Controller → simulator: the observed value that was scored.
    ObserveResult {
        /// Value used for the observe statement.
        value: Value,
    },
    /// Simulator → controller: record a deterministic by-product.
    Tag {
        /// Tag name.
        name: String,
        /// Tag value.
        value: Value,
    },
    /// Controller → simulator: tag acknowledged.
    TagResult,
    /// Controller → simulator: abort the current execution.
    Reset,
    /// Controller → simulator: run once from the prior, drawing every value
    /// on the simulator side from `seed`, and reply with the whole trace.
    /// Sent only to a simulator that advertised
    /// [`Capabilities::SEEDED_PRIOR`].
    RunPrior {
        /// Seed of the run's RNG.
        seed: u64,
        /// Registered observations, scored by name (encoded sorted by
        /// name).
        observes: Arc<ObserveMap>,
    },
    /// Simulator → controller: the whole trace of a `RunPrior`. Its totals
    /// are not on the wire: the decoder sums them over the entries (see
    /// `Trace::from_entries`).
    PriorTrace {
        /// The recorded trace.
        trace: Trace,
    },
}

impl Message {
    /// Wire tag byte for each variant.
    pub fn tag_byte(&self) -> u8 {
        match self {
            Message::Handshake { .. } => 1,
            Message::HandshakeResult { .. } => 2,
            Message::Run { .. } => 3,
            Message::RunResult { .. } => 4,
            Message::Sample { .. } => 5,
            Message::SampleResult { .. } => 6,
            Message::Observe { .. } => 7,
            Message::ObserveResult { .. } => 8,
            Message::Tag { .. } => 9,
            Message::TagResult => 10,
            Message::Reset => 11,
            Message::RunPrior { .. } => 12,
            Message::PriorTrace { .. } => crate::wire::PRIOR_TRACE,
        }
    }

    /// Short human-readable name (logging).
    pub fn name(&self) -> &'static str {
        match self {
            Message::Handshake { .. } => "Handshake",
            Message::HandshakeResult { .. } => "HandshakeResult",
            Message::Run { .. } => "Run",
            Message::RunResult { .. } => "RunResult",
            Message::Sample { .. } => "Sample",
            Message::SampleResult { .. } => "SampleResult",
            Message::Observe { .. } => "Observe",
            Message::ObserveResult { .. } => "ObserveResult",
            Message::Tag { .. } => "Tag",
            Message::TagResult => "TagResult",
            Message::Reset => "Reset",
            Message::RunPrior { .. } => "RunPrior",
            Message::PriorTrace { .. } => "PriorTrace",
        }
    }
}
