//! The PPX error type.
//!
//! Every failure mode of the protocol stack — transport I/O, codec, frame
//! limits, and state-machine violations — funnels into [`PpxError`], so
//! callers (the runtime's batch layers in particular) can record a failed
//! remote execution and move on instead of unwinding the whole batch.

use etalumis_distributions::codec::DecodeError;
use std::io;

/// Anything that can go wrong while speaking PPX.
#[derive(Debug)]
pub enum PpxError {
    /// Transport-level I/O failure (socket error, channel closed, ...).
    Io(io::Error),
    /// The peer sent bytes the codec cannot decode.
    Wire(DecodeError),
    /// A decoded message arrived in a state where it is not legal — e.g. a
    /// `SampleResult` while idle, or a second `HandshakeResult`.
    Protocol {
        /// What the session state machine was prepared to accept.
        expected: &'static str,
        /// The message (or call) that actually arrived.
        got: &'static str,
    },
    /// A frame announced a length beyond the configured maximum — either a
    /// corrupt length prefix or a hostile peer; the connection must die
    /// before the allocation happens.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// Enforced ceiling (see [`crate::wire::MAX_FRAME_LEN`]).
        max: usize,
    },
    /// The peer went away (clean EOF or closed channel).
    Disconnected,
}

impl std::fmt::Display for PpxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PpxError::Io(e) => write!(f, "PPX transport error: {e}"),
            PpxError::Wire(e) => write!(f, "PPX codec error: {e}"),
            PpxError::Protocol { expected, got } => {
                write!(f, "PPX protocol violation: expected {expected}, got {got}")
            }
            PpxError::FrameTooLarge { len, max } => {
                write!(f, "PPX frame of {len} bytes exceeds the {max}-byte limit")
            }
            PpxError::Disconnected => write!(f, "PPX peer disconnected"),
        }
    }
}

impl std::error::Error for PpxError {}

impl From<io::Error> for PpxError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted => PpxError::Disconnected,
            _ => PpxError::Io(e),
        }
    }
}

impl From<DecodeError> for PpxError {
    fn from(e: DecodeError) -> Self {
        PpxError::Wire(e)
    }
}

impl From<PpxError> for io::Error {
    fn from(e: PpxError) -> Self {
        match e {
            PpxError::Io(e) => e,
            PpxError::Disconnected => {
                io::Error::new(io::ErrorKind::BrokenPipe, "PPX peer disconnected")
            }
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

impl From<PpxError> for etalumis_core::RunError {
    fn from(e: PpxError) -> Self {
        etalumis_core::RunError::new(e)
    }
}
