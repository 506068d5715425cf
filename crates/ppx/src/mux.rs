//! Connection multiplexing: non-blocking endpoints and the poll reactor.
//!
//! The blocking stack dedicates one thread to every simulator connection; a
//! controller waiting on a slow simulator idles a whole core. This module is
//! the event-driven alternative (the paper's controller drives *fleets* of
//! out-of-process Sherpa workers, §4.1): one reactor thread polls many
//! connections, feeding each one's [`Session`] state machine as frames
//! arrive.
//!
//! Pieces, bottom-up:
//!
//! * [`FrameBuffer`] — incremental reassembly of length-prefixed frames from
//!   arbitrarily fragmented byte chunks, with the [`MAX_FRAME_LEN`] guard.
//! * [`MuxEndpoint`] — a non-blocking, frame-grained connection: poll for a
//!   complete incoming payload, queue an outgoing one, flush.
//!   Implementations: [`TcpMuxEndpoint`] (non-blocking TCP + reassembly +
//!   per-connection write queue), [`InProcMuxEndpoint`] (channel pair), and
//!   [`FragmentingEndpoint`] (an in-process stress transport that splits
//!   every frame at pseudo-random byte boundaries — the mux equivalent of a
//!   pathological network).
//! * [`Mux`] — the reactor: a set of (endpoint, session) connections polled
//!   in a sweep, surfacing [`SessionAction`]s for the driver to service.
//! * [`BlockingMux`] — adapts any `MuxEndpoint` back into a blocking
//!   [`Transport`], so the classic one-thread-per-connection paths run over
//!   the same endpoints.
//!
//! Everything here is `std`-only: "poll" is a readiness sweep over
//! `set_nonblocking` sockets and `try_recv` channels with a micro-sleep
//! backoff, not an OS selector — no mio/tokio shim required. The sweep is
//! not the bottleneck: against `serve_listener`'s blocking per-client
//! threads, 8 TCP sessions on one reactor are CPU-bound in loopback TCP,
//! which is paid per write, not per byte. What pays is fewer messages and
//! fewer writes: a prior trace from a simulator that advertises
//! [`crate::Capabilities::SEEDED_PRIOR`] is one `RunPrior` out and one
//! `PriorTrace` in, where the per-statement exchange is ≈16 frames each
//! way, and a session keeps up to [`crate::SEEDED_DEPTH`] of them in
//! flight. The batching rule: a byte-stream endpoint's `send_frame` only
//! queues, [`Mux::poll`] flushes each connection once per sweep (so what
//! a sweep queued on it leaves in one write) and then takes every
//! complete frame the read delivered while the session is still owed
//! traces; the simulator's `TcpTransport` answers a buffered batch of
//! requests in one write. On a 2-vCPU VM a seeded τ trace of `gen_ppx`
//! (whole process, simulator included; medians of 10 runs) fell from ≈172
//! to ≈143 µs of CPU, ≈41 to ≈24 µs of it sys, and from 1.30 to 0.48
//! voluntary context switches. A foreign simulator that does not advertise the capability
//! keeps the per-statement exchange, served by the same reactor.

use crate::error::PpxError;
use crate::message::Message;
use crate::session::{Awaiting, Session, SessionAction, SessionState};
use crate::transport::{InProcTransport, Transport};
use crate::wire::{decode, encode, MAX_FRAME_LEN};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Room a [`FrameBuffer::read_from`] makes at least before it reads.
const MIN_READ: usize = 16 * 1024;

/// Incremental reassembly of `u32`-length-prefixed frames.
///
/// Feed it byte chunks in whatever fragmentation the transport produced,
/// or let it read from the transport in place ([`FrameBuffer::read_from`]);
/// it yields complete payloads (prefix stripped) as they become available.
/// A length prefix above the configured maximum errors *before* any
/// allocation happens. A reader that takes every complete frame before it
/// reads again keeps the buffer at one frame and one read's room.
pub struct FrameBuffer {
    /// `buf[start..end]` arrived and is not yet consumed; `buf[end..]` is
    /// room for the next read, zeroed once when the buffer grew.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameBuffer {
    /// Buffer enforcing the standard [`MAX_FRAME_LEN`] limit.
    pub fn new() -> Self {
        Self::with_max_frame(MAX_FRAME_LEN)
    }

    /// Buffer with a custom frame-size ceiling (tests, constrained peers).
    pub fn with_max_frame(max_frame: usize) -> Self {
        Self { buf: Vec::new(), start: 0, end: 0, max_frame }
    }

    /// Append raw bytes as they arrived off the transport.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One read from `src` straight into the buffer, which first makes room
    /// for the rest of the frame being assembled (once its prefix is in and
    /// within the limit), and for at least 16 KiB. Returns what `read`
    /// returned: the bytes read, 0 at the end of the stream.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        let rest = match self.announced() {
            Some(len) if len <= self.max_frame => 4 + len - self.pending_bytes().min(4 + len),
            _ => 0,
        };
        self.reserve(rest.max(MIN_READ));
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending_bytes(&self) -> usize {
        self.end - self.start
    }

    /// Whether a complete frame is buffered (a prefix over the limit is
    /// not one: [`FrameBuffer::next_payload`] rejects it).
    pub fn has_frame(&self) -> bool {
        matches!(self.announced(), Some(len) if len <= self.max_frame && self.pending_bytes() >= 4 + len)
    }

    /// Pop the next complete payload, if one has fully arrived.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        let Some(len) = self.announced() else { return Ok(None) };
        if len > self.max_frame {
            return Err(PpxError::FrameTooLarge { len, max: self.max_frame });
        }
        if self.pending_bytes() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(payload))
    }

    /// The length prefix of the frame being assembled, once its four bytes
    /// are in.
    fn announced(&self) -> Option<usize> {
        let prefix =
            self.buf.get(self.start..self.start + 4).filter(|_| self.pending_bytes() >= 4)?;
        Some(u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize)
    }

    /// Make room for `extra` bytes past `end`: move the unconsumed bytes to
    /// the front, then grow.
    fn reserve(&mut self, extra: usize) {
        if self.buf.len() - self.end >= extra {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
        if self.buf.len() - self.end < extra {
            self.buf.resize(self.end + extra, 0);
        }
    }
}

/// A non-blocking, frame-grained connection endpoint.
///
/// All methods return immediately: `poll_frame` yields `None` (rather than
/// blocking) when no complete frame has arrived, and `send_frame` may queue
/// bytes (the per-connection write queue) for `flush` to write.
pub trait MuxEndpoint: Send {
    /// Next complete incoming payload, if any.
    fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError>;
    /// Next complete payload that has already arrived, without reading the
    /// transport: [`Mux::poll`] drains these after a frame, so one read's
    /// worth of frames is taken in one sweep. The default has none (one
    /// frame per sweep).
    fn buffered_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        Ok(None)
    }
    /// Queue one outgoing payload. Takes ownership so message-grained
    /// endpoints forward the buffer without a copy; a byte-stream endpoint
    /// keeps it for [`MuxEndpoint::flush`], so whatever is queued between
    /// two flushes leaves in one write.
    fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError>;
    /// Push queued bytes to the transport; `true` when the queue is empty.
    fn flush(&mut self) -> Result<bool, PpxError>;
}

/// Per-connection outgoing byte queue (bytes accepted by `send_frame` but
/// not yet taken by the kernel).
#[derive(Default)]
struct WriteQueue {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteQueue {
    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.is_empty() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.is_empty() {
            self.buf.clear();
            self.pos = 0;
        }
    }
}

/// Non-blocking TCP endpoint: length-prefixed frames, incremental
/// reassembly, write queue, max-frame guard.
pub struct TcpMuxEndpoint {
    stream: TcpStream,
    rbuf: FrameBuffer,
    wq: WriteQueue,
}

impl TcpMuxEndpoint {
    /// Wrap an accepted/connected stream, switching it to non-blocking.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self { stream, rbuf: FrameBuffer::new(), wq: WriteQueue::default() })
    }

    /// Connect to a listening PPX endpoint.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }
}

impl MuxEndpoint for TcpMuxEndpoint {
    fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        loop {
            if let Some(p) = self.rbuf.next_payload()? {
                return Ok(Some(p));
            }
            match self.rbuf.read_from(&mut self.stream) {
                Ok(0) => return Err(PpxError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn buffered_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        self.rbuf.next_payload()
    }

    fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(PpxError::FrameTooLarge { len: payload.len(), max: MAX_FRAME_LEN });
        }
        self.wq.push(&(payload.len() as u32).to_le_bytes());
        self.wq.push(&payload);
        Ok(())
    }

    fn flush(&mut self) -> Result<bool, PpxError> {
        while !self.wq.is_empty() {
            match self.stream.write(self.wq.pending()) {
                Ok(0) => return Err(PpxError::Disconnected),
                Ok(n) => self.wq.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }
}

/// Non-blocking in-process endpoint over frame channels (the mux twin of
/// [`InProcTransport`]; channels are message-grained, so no reassembly).
pub struct InProcMuxEndpoint {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl InProcMuxEndpoint {
    /// A connected (mux endpoint, blocking transport) pair — the common
    /// shape of "reactor controller, simulator on its own thread".
    pub fn pair() -> (InProcMuxEndpoint, InProcTransport) {
        let (tx_a, rx_b) = unbounded();
        let (tx_b, rx_a) = unbounded();
        (InProcMuxEndpoint { tx: tx_a, rx: rx_a }, InProcTransport::from_channels(tx_b, rx_b))
    }
}

impl From<InProcTransport> for InProcMuxEndpoint {
    fn from(t: InProcTransport) -> Self {
        let (tx, rx) = t.into_channels();
        InProcMuxEndpoint { tx, rx }
    }
}

impl MuxEndpoint for InProcMuxEndpoint {
    fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        match self.rx.try_recv() {
            Ok(p) => Ok(Some(p)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(PpxError::Disconnected),
        }
    }

    /// A channel holds whole frames: whatever it holds has arrived.
    fn buffered_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        self.poll_frame()
    }

    fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError> {
        self.tx.send(payload).map_err(|_| PpxError::Disconnected)
    }

    fn flush(&mut self) -> Result<bool, PpxError> {
        Ok(true)
    }
}

/// An in-process endpoint that deliberately fragments every frame at
/// pseudo-random byte boundaries before delivery — the stress twin of
/// [`TcpMuxEndpoint`] for exercising reassembly under pathological
/// interleavings without a real network.
pub struct FragmentingEndpoint {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    rbuf: FrameBuffer,
    lcg: u64,
    max_chunk: usize,
}

impl FragmentingEndpoint {
    /// Connected pair; `seed` decorrelates the two sides' fragmentation,
    /// `max_chunk` bounds the delivered chunk size (≥ 1).
    pub fn pair(seed: u64, max_chunk: usize) -> (FragmentingEndpoint, FragmentingEndpoint) {
        let (tx_a, rx_b) = unbounded();
        let (tx_b, rx_a) = unbounded();
        let mk = |tx, rx, salt: u64| FragmentingEndpoint {
            tx,
            rx,
            rbuf: FrameBuffer::new(),
            lcg: seed ^ salt,
            max_chunk: max_chunk.max(1),
        };
        (mk(tx_a, rx_a, 0x9E37_79B9), mk(tx_b, rx_b, 0x7F4A_7C15))
    }

    fn next_chunk_len(&mut self, remaining: usize) -> usize {
        self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((self.lcg >> 33) as usize) % self.max_chunk + 1).min(remaining)
    }
}

impl MuxEndpoint for FragmentingEndpoint {
    fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        loop {
            if let Some(p) = self.rbuf.next_payload()? {
                return Ok(Some(p));
            }
            match self.rx.try_recv() {
                Ok(chunk) => self.rbuf.push_bytes(&chunk),
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(PpxError::Disconnected),
            }
        }
    }

    /// The chunks in the channel have arrived; only their reassembly is
    /// left.
    fn buffered_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        self.poll_frame()
    }

    fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(PpxError::FrameTooLarge { len: payload.len(), max: MAX_FRAME_LEN });
        }
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        let mut off = 0;
        while off < framed.len() {
            let n = self.next_chunk_len(framed.len() - off);
            self.tx.send(framed[off..off + n].to_vec()).map_err(|_| PpxError::Disconnected)?;
            off += n;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<bool, PpxError> {
        Ok(true)
    }
}

/// Blocking [`Transport`] adapter over any non-blocking [`MuxEndpoint`] —
/// the classic thread-per-connection paths and the event-driven stack share
/// one endpoint implementation.
pub struct BlockingMux<E: MuxEndpoint>(pub E);

impl<E: MuxEndpoint> Transport for BlockingMux<E> {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.send_encoded(encode(msg).into())
    }

    fn send_encoded(&mut self, payload: Vec<u8>) -> io::Result<()> {
        self.0.send_frame(payload).map_err(io::Error::from)?;
        loop {
            if self.0.flush().map_err(io::Error::from)? {
                return Ok(());
            }
            std::thread::yield_now();
        }
    }

    fn recv(&mut self) -> io::Result<Message> {
        loop {
            if let Some(p) = self.0.poll_frame().map_err(io::Error::from)? {
                return decode(&p)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

/// An event surfaced by one [`Mux::poll`] sweep.
#[derive(Debug)]
pub enum MuxEvent {
    /// A session consumed a message and needs the driver to act.
    Action {
        /// Connection id (index from [`Mux::add`]).
        conn: usize,
        /// What the session needs.
        action: SessionAction,
    },
    /// A connection died (transport error, frame violation, protocol
    /// violation); its session is poisoned and it will not be polled again.
    ConnFailed {
        /// Connection id.
        conn: usize,
        /// The terminal error.
        error: PpxError,
    },
}

struct MuxConn {
    /// `None` once the connection has been detached ([`Mux::detach`]); the
    /// slot stays behind as a tombstone so connection ids remain stable.
    endpoint: Option<Box<dyn MuxEndpoint>>,
    session: Session,
    dead: bool,
}

/// Reactor activity counters, accumulated across the mux's lifetime and
/// exported through [`Mux::stats`] so drivers can fold them into their
/// telemetry without the protocol crate knowing about any metrics layer.
/// `polls` is a meter of real-time behavior (idle sweeps count); frame and
/// failure counts are a pure function of the protocol exchange.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Poll sweeps executed ([`Mux::poll`] calls).
    pub polls: u64,
    /// Complete frames ingested and decoded across all connections.
    pub frames_in: u64,
    /// Frames encoded and queued for sending ([`Mux::send`] successes).
    pub frames_out: u64,
    /// Connections that transitioned to dead (transport error, frame or
    /// protocol violation) while registered with this reactor.
    pub conn_failures: u64,
}

/// The poll reactor: one thread drives any number of PPX sessions.
///
/// The reactor owns endpoint + [`Session`] pairs. Each [`Mux::poll`] sweep
/// flushes write queues, ingests whatever frames have arrived, advances the
/// state machines, and hands the resulting [`SessionAction`]s to the caller
/// — which services them (usually against a per-session
/// `etalumis_core::StepExecutor`) and replies via [`Mux::send`].
#[derive(Default)]
pub struct Mux {
    conns: Vec<MuxConn>,
    stats: MuxStats,
}

impl Mux {
    /// Empty reactor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a connection whose handshake is already done (or driven
    /// elsewhere); returns its connection id.
    pub fn add(&mut self, endpoint: Box<dyn MuxEndpoint>, session: Session) -> usize {
        self.conns.push(MuxConn { endpoint: Some(endpoint), session, dead: false });
        self.conns.len() - 1
    }

    /// Remove `conn` from the reactor, returning its endpoint and session
    /// as they stand (a dead endpoint after a transport failure, or a live
    /// one being re-homed). A tombstone keeps the id space stable: the slot
    /// reads as dead, is skipped by [`Mux::poll`], and yields `None` on a
    /// second detach. This is how a driver swaps a failed connection for a
    /// respawned one without disturbing its other sessions.
    pub fn detach(&mut self, conn: usize) -> Option<(Box<dyn MuxEndpoint>, Session)> {
        let c = &mut self.conns[conn];
        let endpoint = c.endpoint.take()?;
        c.dead = true;
        let session = std::mem::replace(&mut c.session, Session::poisoned());
        Some((endpoint, session))
    }

    /// Register a fresh connection and send its `Handshake`; the
    /// [`SessionAction::Connected`] arrives through [`Mux::poll`].
    pub fn add_connect(
        &mut self,
        endpoint: Box<dyn MuxEndpoint>,
        system_name: &str,
    ) -> Result<usize, PpxError> {
        let (session, handshake) = Session::connect(system_name);
        let conn = self.add(endpoint, session);
        self.send(conn, &handshake)?;
        Ok(conn)
    }

    /// Number of registered connections (including dead ones).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when no connections are registered.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Connections that can still carry traffic.
    pub fn live(&self) -> usize {
        self.conns.iter().filter(|c| !c.dead && !c.session.is_dead()).count()
    }

    /// Whether `conn` can carry no further traffic — either its endpoint
    /// died or its session was poisoned (protocol violation).
    pub fn is_dead(&self, conn: usize) -> bool {
        self.conns[conn].dead || self.conns[conn].session.is_dead()
    }

    /// Lifetime activity counters of this reactor.
    pub fn stats(&self) -> MuxStats {
        self.stats
    }

    /// The session of `conn`.
    pub fn session(&self, conn: usize) -> &Session {
        &self.conns[conn].session
    }

    /// Mutable session access (replies, start_run, service).
    pub fn session_mut(&mut self, conn: usize) -> &mut Session {
        &mut self.conns[conn].session
    }

    /// Encode and queue `msg` on `conn`'s write queue; the next
    /// [`Mux::poll`] sweep writes what a connection queued in one write.
    pub fn send(&mut self, conn: usize, msg: &Message) -> Result<(), PpxError> {
        let c = &mut self.conns[conn];
        let Some(endpoint) = c.endpoint.as_mut().filter(|_| !c.dead) else {
            return Err(PpxError::Disconnected);
        };
        match endpoint.send_frame(encode(msg).into()) {
            Ok(()) => {
                self.stats.frames_out += 1;
                Ok(())
            }
            Err(e) => {
                c.dead = true;
                c.session.fail();
                self.stats.conn_failures += 1;
                Err(e)
            }
        }
    }

    /// Decompose the reactor into its `(endpoint, session)` connections, in
    /// registration order — used by drivers that re-partition sessions
    /// across several worker reactors. Dead sessions are included (check
    /// [`Session::is_dead`]); detached tombstones are not.
    pub fn into_parts(self) -> Vec<(Box<dyn MuxEndpoint>, Session)> {
        self.conns.into_iter().filter_map(|c| c.endpoint.map(|e| (e, c.session))).collect()
    }

    /// One readiness sweep over every live connection. Appends events to
    /// `events`; returns `true` if anything happened (a frame arrived, a
    /// connection failed, or queued bytes moved) — callers back off briefly
    /// when a sweep reports no progress.
    pub fn poll(&mut self, events: &mut Vec<MuxEvent>) -> bool {
        self.stats.polls += 1;
        let mut progress = false;
        for (i, c) in self.conns.iter_mut().enumerate() {
            if c.dead {
                continue;
            }
            // A session poisoned outside the reactor (protocol violation
            // during servicing) retires its connection: the peer owes us
            // nothing we could legally accept.
            if c.session.is_dead() {
                c.dead = true;
                continue;
            }
            let Some(endpoint) = c.endpoint.as_mut() else {
                continue;
            };
            match endpoint.flush() {
                Ok(_) => {}
                Err(e) => {
                    c.dead = true;
                    c.session.fail();
                    self.stats.conn_failures += 1;
                    events.push(MuxEvent::ConnFailed { conn: i, error: e });
                    progress = true;
                    continue;
                }
            }
            // A per-statement action leaves the simulator waiting on us,
            // so it is the last frame of its sweep. Seeded runs are answered
            // back to back: while the session is owed more traces, take the
            // ones the same read delivered.
            let mut frame = endpoint.poll_frame();
            loop {
                let step = match frame {
                    Ok(None) => break,
                    Ok(Some(payload)) => {
                        self.stats.frames_in += 1;
                        c.session.on_payload(payload)
                    }
                    Err(e) => Err(e),
                };
                progress = true;
                match step {
                    Ok(action) => events.push(MuxEvent::Action { conn: i, action }),
                    Err(e) => {
                        c.dead = true;
                        c.session.fail();
                        self.stats.conn_failures += 1;
                        events.push(MuxEvent::ConnFailed { conn: i, error: e });
                        break;
                    }
                }
                if c.session.state() != SessionState::Running(Awaiting::Trace) {
                    break;
                }
                frame = endpoint.buffered_frame();
            }
        }
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SimulatorServer;
    use crate::session::Serviced;
    use etalumis_core::{
        Executor, FnProgram, ObserveMap, PriorProposer, SimCtx, SimCtxExt, StepExecutor,
    };
    use etalumis_distributions::{Distribution, Value};
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn frame_buffer_reassembles_byte_at_a_time() {
        let msg = Message::Tag { name: "met".into(), value: Value::Real(2.5) };
        let framed = crate::wire::frame(&msg);
        let mut fb = FrameBuffer::new();
        for (i, b) in framed.iter().enumerate() {
            assert_eq!(fb.next_payload().unwrap(), None, "frame completed early at byte {i}");
            fb.push_bytes(&[*b]);
        }
        let payload = fb.next_payload().unwrap().unwrap();
        assert_eq!(decode(&payload).unwrap(), msg);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frame_buffer_yields_multiple_frames_from_one_chunk() {
        let msgs = [
            Message::TagResult,
            Message::Handshake { system_name: "x".into() },
            Message::RunResult { result: Value::Int(7) },
        ];
        let mut bytes = Vec::new();
        for m in &msgs {
            bytes.extend_from_slice(&crate::wire::frame(m));
        }
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&bytes);
        for m in &msgs {
            let p = fb.next_payload().unwrap().unwrap();
            assert_eq!(&decode(&p).unwrap(), m);
        }
        assert_eq!(fb.next_payload().unwrap(), None);
    }

    #[test]
    fn frame_buffer_rejects_oversized_prefix_before_allocating() {
        let mut fb = FrameBuffer::with_max_frame(1024);
        fb.push_bytes(&(1_000_000u32).to_le_bytes());
        match fb.next_payload() {
            Err(PpxError::FrameTooLarge { len, max }) => {
                assert_eq!(len, 1_000_000);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn fragmenting_endpoint_roundtrips_through_blocking_adapter() {
        let (a, b) = FragmentingEndpoint::pair(42, 3);
        let (mut a, mut b) = (BlockingMux(a), BlockingMux(b));
        let msg = Message::Sample {
            address: "decay/px[Uniform]".into(),
            name: "px".into(),
            distribution: Distribution::Uniform { low: -3.0, high: 3.0 },
            control: true,
            replace: false,
        };
        let handle = std::thread::spawn(move || {
            let m = b.recv().unwrap();
            b.send(&m).unwrap();
        });
        a.send(&msg).unwrap();
        assert_eq!(a.recv().unwrap(), msg);
        handle.join().unwrap();
    }

    #[test]
    fn tcp_mux_endpoint_roundtrips_against_blocking_peer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = crate::transport::TcpTransport::new(stream).unwrap();
            let m = t.recv().unwrap();
            t.send(&m).unwrap();
        });
        let ep = TcpMuxEndpoint::connect(&addr.to_string()).unwrap();
        let mut t = BlockingMux(ep);
        let msg = Message::RunResult { result: Value::Real(1.25) };
        t.send(&msg).unwrap();
        assert_eq!(t.recv().unwrap(), msg);
        handle.join().unwrap();
    }

    #[test]
    fn a_tcp_session_queues_its_requests_for_one_write_and_drains_one_reads_answers() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut ep = TcpMuxEndpoint::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let (mut session, _) = Session::connect("etalumis-rs");
        session
            .on_message(Message::HandshakeResult {
                system_name: "sim".into(),
                model_name: "m".into(),
                capabilities: crate::Capabilities::SEEDED_PRIOR,
            })
            .unwrap();
        let observes = Arc::new(ObserveMap::new());
        let runs = crate::SEEDED_DEPTH;
        let mut requests = Vec::new();
        for seed in 0..runs as u64 {
            let msg = session.start_prior_run(seed, observes.clone()).unwrap();
            requests.extend_from_slice(&crate::wire::frame(&msg));
            ep.send_frame(encode(&msg).into()).unwrap();
        }
        // Queued, not written, until the flush: one write for all of them.
        assert_eq!(ep.wq.pending(), &requests[..]);
        assert!(ep.flush().unwrap());
        let mut got = vec![0u8; requests.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, requests);

        // The simulator answers all of them in one write; one sweep takes
        // every answer.
        let answer = crate::wire::frame(&Message::PriorTrace { trace: Default::default() });
        peer.write_all(&answer.repeat(runs)).unwrap();
        let mut mux = Mux::new();
        mux.add(Box::new(ep), session);
        let mut events = Vec::new();
        assert!(mux.poll(&mut events));
        assert_eq!(events.len(), runs, "{events:?}");
        assert!(events.iter().all(|e| matches!(
            e,
            MuxEvent::Action { action: SessionAction::FinishedTrace { .. }, .. }
        )));
        assert_eq!(mux.stats().frames_in, runs as u64);
        assert!(mux.session(0).is_idle());
    }

    #[test]
    fn protocol_poisoned_sessions_are_retired_from_the_reactor() {
        let (ep, _sim_side) = InProcMuxEndpoint::pair();
        let mut mux = Mux::new();
        let conn = mux.add_connect(Box::new(ep), "etalumis-rs").unwrap();
        assert_eq!(mux.live(), 1);
        // Poison at the protocol level (no endpoint error involved).
        mux.session_mut(conn).fail();
        assert!(mux.is_dead(conn), "a poisoned session must read as dead");
        assert_eq!(mux.live(), 0);
        // A poll sweep retires the connection without touching its endpoint.
        let mut events = Vec::new();
        mux.poll(&mut events);
        assert!(events.is_empty());
        assert!(mux.send(conn, &Message::Reset).is_err());
    }

    fn slow_free_model() -> FnProgram<impl FnMut(&mut dyn SimCtx) -> Value> {
        FnProgram::new("mux_gauss", |ctx: &mut dyn SimCtx| {
            let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
            let _n = ctx.sample_f64(&Distribution::Normal { mean: mu, std: 1.0 }, "noise");
            ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
            ctx.tag("mu_tag", Value::Real(mu));
            Value::Real(mu)
        })
    }

    /// One reactor thread drives `n_sessions` concurrent sessions to one
    /// trace each, then compares every trace against the blocking path under
    /// the same seed.
    #[test]
    fn single_reactor_thread_drives_eight_sessions() {
        let n_sessions = 8;
        let observes = Arc::new(ObserveMap::new());
        let mut mux = Mux::new();
        for _ in 0..n_sessions {
            let (ep, sim_side) = InProcMuxEndpoint::pair();
            std::thread::spawn(move || {
                let mut server = SimulatorServer::new("mux-test", slow_free_model());
                let mut t = sim_side;
                let _ = server.serve(&mut t);
            });
            mux.add_connect(Box::new(ep), "etalumis-rs").unwrap();
        }

        let mut execs: Vec<Option<StepExecutor>> = (0..n_sessions).map(|_| None).collect();
        let mut traces: Vec<Option<etalumis_core::Trace>> = (0..n_sessions).map(|_| None).collect();
        let mut events = Vec::new();
        let mut done = 0;
        while done < n_sessions {
            events.clear();
            let progress = mux.poll(&mut events);
            for ev in events.drain(..) {
                match ev {
                    MuxEvent::Action { conn, action } => {
                        if matches!(action, SessionAction::Connected { .. }) {
                            // Session ready: launch its (single) run.
                            let seed = 1000 + conn as u64;
                            execs[conn] = Some(StepExecutor::new(
                                Box::new(PriorProposer),
                                observes.clone(),
                                seed,
                            ));
                            let run = mux.session_mut(conn).start_run(Value::Unit).unwrap();
                            mux.send(conn, &run).unwrap();
                            continue;
                        }
                        let exec = execs[conn].as_mut().expect("run not started");
                        match mux.session_mut(conn).service(action, &mut exec.ctx()).unwrap() {
                            Serviced::Reply(reply) => mux.send(conn, &reply).unwrap(),
                            Serviced::Finished(result) => {
                                let (trace, _) = execs[conn].take().unwrap().finish(result);
                                traces[conn] = Some(trace);
                                done += 1;
                            }
                            Serviced::Connected(_) | Serviced::FinishedTrace(_) => unreachable!(),
                        }
                    }
                    MuxEvent::ConnFailed { conn, error } => {
                        panic!("conn {conn} failed: {error}")
                    }
                }
            }
            if !progress {
                std::thread::sleep(Duration::from_micros(20));
            }
        }

        // Blocking reference: same model, same per-session seeds.
        for (conn, trace) in traces.iter().enumerate() {
            let trace = trace.as_ref().unwrap();
            let mut model = slow_free_model();
            let blocking = Executor::try_execute_seeded(
                &mut model,
                &mut PriorProposer,
                &ObserveMap::new(),
                1000 + conn as u64,
            )
            .unwrap();
            assert_eq!(trace.entries.len(), blocking.entries.len());
            for (a, b) in trace.entries.iter().zip(&blocking.entries) {
                assert_eq!(a.value, b.value, "conn {conn} diverged");
                assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
            }
            assert_eq!(trace.result, blocking.result);
            assert_eq!(trace.tags, blocking.tags);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any fragmentation of any frame sequence reassembles exactly.
        #[test]
        fn prop_reassembly_invariant_under_fragmentation(
            lens in proptest::collection::vec(0usize..300, 1..8),
            chunk in 1usize..17,
            seed: u64,
        ) {
            // Messages with payload sizes spanning the chunk size.
            let msgs: Vec<Message> = lens
                .iter()
                .map(|&n| Message::Handshake { system_name: "s".repeat(n) })
                .collect();
            let mut stream = Vec::new();
            for m in &msgs {
                stream.extend_from_slice(&crate::wire::frame(m));
            }
            // Split the byte stream at LCG-chosen boundaries.
            let mut fb = FrameBuffer::new();
            let mut out = Vec::new();
            let mut lcg = seed | 1;
            let mut off = 0;
            while off < stream.len() {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let n = (((lcg >> 33) as usize) % chunk + 1).min(stream.len() - off);
                fb.push_bytes(&stream[off..off + n]);
                off += n;
                while let Some(p) = fb.next_payload().unwrap() {
                    out.push(decode(&p).unwrap());
                }
            }
            prop_assert_eq!(out, msgs);
            prop_assert_eq!(fb.pending_bytes(), 0);
        }
    }
}
