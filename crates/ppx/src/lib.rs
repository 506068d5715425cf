//! # etalumis-ppx
//!
//! The probabilistic programming execution protocol (PPX) — the paper's
//! central systems contribution (§4.1, Figure 1): a cross-platform API that
//! lets a PPL control the random number draws of an existing simulator
//! without altering the simulator's structure.
//!
//! * [`Message`] — the protocol message set (Handshake/Run/Sample/Observe/
//!   Tag/Reset with result pairs), plus the negotiated one-round-trip
//!   prior run (`RunPrior`/`PriorTrace`, see [`Capabilities`]).
//! * [`wire`] — a documented little-endian binary codec (the flatbuffers
//!   substitute) with property-tested round-tripping.
//! * [`transport`] — in-process channel and TCP transports (the ZeroMQ
//!   substitute); both push every frame through the codec.
//! * [`SimulatorServer`] — simulator-side binding: wraps any native
//!   [`etalumis_core::ProbProgram`] and forwards its statements.
//! * [`RemoteModel`] — controller-side binding: a remote simulator exposed
//!   as a local `ProbProgram`, so inference engines are agnostic to where
//!   the simulator runs.
//! * [`session`] — the controller-side protocol state machine
//!   (`Handshaking → Idle → Running{awaiting} → Done/Failed`, with the
//!   seeded `Running{awaiting: Trace}` holding up to [`SEEDED_DEPTH`]
//!   runs), shared by the blocking client and the event-driven reactor.
//! * [`mux`] — connection multiplexing: frame reassembly, non-blocking
//!   TCP/in-proc endpoints with per-connection write queues, and the poll
//!   [`Mux`] reactor that lets one thread drive many simulator sessions.
//! * [`address`] — stack-frame symbol resolution with the dladdr-style
//!   cache (the 5× address-string optimization of §4.2).

pub mod address;
pub mod client;
pub mod error;
pub mod message;
pub mod mux;
pub mod server;
pub mod session;
pub mod transport;
pub mod wire;

pub use client::RemoteModel;
pub use error::PpxError;
pub use message::{Capabilities, Message};
pub use mux::{
    BlockingMux, FragmentingEndpoint, FrameBuffer, InProcMuxEndpoint, Mux, MuxEndpoint, MuxEvent,
    MuxStats, TcpMuxEndpoint,
};
pub use server::{serve_listener, SimulatorServer};
pub use session::{Awaiting, Serviced, Session, SessionAction, SessionState, SEEDED_DEPTH};
pub use transport::{InProcTransport, TcpTransport, Transport};
pub use wire::{PriorTraceWriter, SeededTrace, MAX_FRAME_LEN};
