//! Transports carrying PPX frames.
//!
//! The paper exchanges PPX messages over ZeroMQ sockets, "which allow
//! communication between separate processes in the same machine (via
//! inter-process sockets) or across a network (via TCP)" (§4.1). We provide
//! the same two deployment shapes:
//!
//! * [`InProcTransport`] — a pair of in-process channels (crossbeam),
//!   equivalent to ZeroMQ `inproc://`; used when the simulator runs on a
//!   separate thread of the same process.
//! * [`TcpTransport`] — framed messages over a TCP stream, equivalent to
//!   ZeroMQ `tcp://`; used for genuinely separate processes/hosts.
//!
//! Frames always pass through the binary codec ([`crate::wire`]), so both
//! transports exercise the identical serialization path.
//!
//! Loopback TCP costs per write, not per byte. A controller that pipelines
//! seeded runs sends several `RunPrior`s in one write, so `TcpTransport`
//! reads whatever the socket holds into one buffer and holds a reply back
//! while a complete request is already buffered: the answers to one
//! batch of requests leave in one write too. Held replies are flushed
//! before any blocking read and on drop, so a peer never waits on them.

use crate::message::Message;
use crate::mux::FrameBuffer;
use crate::wire::{decode, encode, MAX_FRAME_LEN};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;

/// A bidirectional, blocking PPX message channel.
pub trait Transport: Send {
    /// Send one message (blocking).
    fn send(&mut self, msg: &Message) -> io::Result<()>;
    /// Receive one message (blocking until available or disconnected).
    fn recv(&mut self) -> io::Result<Message>;
    /// Send one already encoded message: a payload as
    /// [`crate::wire::encode`] writes it (the simulator records a seeded
    /// run's `PriorTrace` straight into one). The default decodes it and
    /// [`Transport::send`]s the message; a transport that carries bytes
    /// sends them as they are.
    fn send_encoded(&mut self, payload: Vec<u8>) -> io::Result<()> {
        let msg = decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.send(&msg)
    }
}

/// In-process transport endpoint backed by crossbeam channels.
///
/// Channels are message-grained, so frames travel as bare codec payloads —
/// no length prefix, no reassembly, and no intermediate copy.
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl InProcTransport {
    /// Create a connected pair of endpoints (controller side, simulator side).
    pub fn pair() -> (InProcTransport, InProcTransport) {
        let (tx_a, rx_b) = unbounded();
        let (tx_b, rx_a) = unbounded();
        (InProcTransport { tx: tx_a, rx: rx_a }, InProcTransport { tx: tx_b, rx: rx_b })
    }

    /// Build an endpoint from raw frame channels (`tx` carries outgoing
    /// payloads, `rx` incoming ones); [`crate::mux::InProcMuxEndpoint::pair`]
    /// builds its blocking side this way.
    pub fn from_channels(tx: Sender<Vec<u8>>, rx: Receiver<Vec<u8>>) -> Self {
        Self { tx, rx }
    }

    /// Decompose into the raw frame channels (inverse of
    /// [`InProcTransport::from_channels`]).
    pub fn into_channels(self) -> (Sender<Vec<u8>>, Receiver<Vec<u8>>) {
        (self.tx, self.rx)
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.send_encoded(encode(msg).into())
    }

    fn send_encoded(&mut self, payload: Vec<u8>) -> io::Result<()> {
        self.tx
            .send(payload)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer disconnected"))
    }

    fn recv(&mut self) -> io::Result<Message> {
        let payload = self
            .rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer disconnected"))?;
        decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// TCP transport endpoint with length-prefixed frames.
///
/// Reads go through a [`FrameBuffer`], so one read can take several frames
/// at once. A frame sent while a complete incoming frame is already
/// buffered is held back, and goes out with the next send that finds none,
/// before the next blocking read, or on drop.
pub struct TcpTransport {
    stream: TcpStream,
    rbuf: FrameBuffer,
    /// Messages held back for one write: each payload with its prefix.
    held: Vec<([u8; 4], Vec<u8>)>,
}

impl TcpTransport {
    /// Wrap an accepted/connected stream.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self { stream, rbuf: FrameBuffer::new(), held: Vec::new() })
    }

    /// Connect to a listening PPX endpoint.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// Write every held frame, in one write when the socket takes it.
    fn flush_held(&mut self) -> io::Result<()> {
        if self.held.is_empty() {
            return Ok(());
        }
        let mut slices: Vec<IoSlice> = self
            .held
            .iter()
            .flat_map(|(len, payload)| [IoSlice::new(len), IoSlice::new(payload)])
            .collect();
        let mut rest = &mut slices[..];
        let written = loop {
            if rest.is_empty() {
                break Ok(());
            }
            match self.stream.write_vectored(rest) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        drop(slices);
        self.held.clear();
        written
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.send_encoded(encode(msg).into())
    }

    fn send_encoded(&mut self, payload: Vec<u8>) -> io::Result<()> {
        // Enforce the frame limit on the sender too: a payload the peer is
        // guaranteed to reject must not leave this side (and a ≥ 4 GiB one
        // would silently truncate the u32 prefix).
        if payload.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "refusing to send a {}-byte PPX frame (limit {MAX_FRAME_LEN})",
                    payload.len()
                ),
            ));
        }
        self.held.push(((payload.len() as u32).to_le_bytes(), payload));
        // The peer sent more than this answers: answer that too first.
        if self.rbuf.has_frame() {
            return Ok(());
        }
        self.flush_held()
    }

    fn recv(&mut self) -> io::Result<Message> {
        loop {
            // A corrupt/hostile length prefix errors here, before anything
            // is allocated for it.
            if let Some(payload) = self.rbuf.next_payload()? {
                return decode(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            self.flush_held()?;
            match self.rbuf.read_from(&mut self.stream) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the PPX stream",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let _ = self.flush_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_distributions::Value;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn inproc_roundtrip() {
        let (mut a, mut b) = InProcTransport::pair();
        a.send(&Message::Handshake { system_name: "x".into() }).unwrap();
        assert_eq!(b.recv().unwrap(), Message::Handshake { system_name: "x".into() });
        b.send(&Message::RunResult { result: Value::Real(1.0) }).unwrap();
        assert_eq!(a.recv().unwrap(), Message::RunResult { result: Value::Real(1.0) });
    }

    #[test]
    fn inproc_disconnect_errors() {
        let (mut a, b) = InProcTransport::pair();
        drop(b);
        assert!(a.recv().is_err());
    }

    #[test]
    fn tcp_rejects_oversized_length_prefix() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // A corrupt prefix announcing a ~3 GB payload, then a few bytes.
            stream.write_all(&3_000_000_000u32.to_le_bytes()).unwrap();
            stream.write_all(&[0u8; 16]).unwrap();
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        let err = c.recv().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        handle.join().unwrap();
    }

    /// A connected (raw peer stream, transport) pair on loopback.
    fn tcp_pair() -> (TcpStream, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        (peer, TcpTransport::new(stream).unwrap())
    }

    fn tags(n: usize) -> Vec<Message> {
        (0..n)
            .map(|i| Message::Tag { name: format!("t{i}"), value: Value::Int(i as i64) })
            .collect()
    }

    /// Read one frame off a raw stream.
    fn read_frame(peer: &mut TcpStream) -> Message {
        let mut len = [0u8; 4];
        peer.read_exact(&mut len).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        peer.read_exact(&mut payload).unwrap();
        decode(&payload).unwrap()
    }

    #[test]
    fn tcp_takes_several_frames_from_one_read() {
        let (mut peer, mut t) = tcp_pair();
        let sent = tags(3);
        let bytes: Vec<u8> = sent.iter().flat_map(|m| crate::wire::frame(m).to_vec()).collect();
        peer.write_all(&bytes).unwrap();
        assert_eq!(t.recv().unwrap(), sent[0]);
        // The other two came with the same read (loopback delivers one
        // write whole) and wait in the buffer.
        assert!(t.rbuf.has_frame(), "pending {} bytes", t.rbuf.pending_bytes());
        assert_eq!(t.recv().unwrap(), sent[1]);
        assert_eq!(t.recv().unwrap(), sent[2]);
        assert_eq!(t.rbuf.pending_bytes(), 0);
    }

    #[test]
    fn tcp_reassembles_a_frame_split_across_reads() {
        let (mut peer, mut t) = tcp_pair();
        // Larger than a read's minimum room, so it also grows the buffer.
        let msg = Message::Tag { name: "big".into(), value: Value::Str("x".repeat(40_000)) };
        let framed = crate::wire::frame(&msg);
        let writer = std::thread::spawn(move || {
            for chunk in framed.chunks(7_000) {
                peer.write_all(chunk).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            peer
        });
        assert_eq!(t.recv().unwrap(), msg);
        let _peer = writer.join().unwrap();
    }

    #[test]
    fn tcp_holds_a_reply_while_a_request_is_buffered_and_flushes_it_before_blocking() {
        let (mut peer, mut t) = tcp_pair();
        let requests = tags(2);
        let bytes: Vec<u8> = requests.iter().flat_map(|m| crate::wire::frame(m).to_vec()).collect();
        peer.write_all(&bytes).unwrap();
        assert_eq!(t.recv().unwrap(), requests[0]);
        // The second request is buffered: the first reply waits for it.
        t.send(&Message::TagResult).unwrap();
        assert!(!t.held.is_empty(), "a reply with a request buffered is held");
        assert_eq!(t.recv().unwrap(), requests[1]);
        // The next receive would block: it writes the held reply first,
        // and the peer, answered, sends the request that unblocks it.
        let peer = std::thread::spawn(move || {
            assert_eq!(read_frame(&mut peer), Message::TagResult);
            peer.write_all(&crate::wire::frame(&Message::Reset)).unwrap();
            peer
        });
        assert_eq!(t.recv().unwrap(), Message::Reset);
        assert!(t.held.is_empty());
        // Nothing buffered: a reply goes out at once.
        t.send(&Message::TagResult).unwrap();
        assert!(t.held.is_empty());
        let mut peer = peer.join().unwrap();
        assert_eq!(read_frame(&mut peer), Message::TagResult);
    }

    #[test]
    fn tcp_flushes_a_held_reply_on_drop() {
        let (mut peer, mut t) = tcp_pair();
        let requests = tags(2);
        let bytes: Vec<u8> = requests.iter().flat_map(|m| crate::wire::frame(m).to_vec()).collect();
        peer.write_all(&bytes).unwrap();
        assert_eq!(t.recv().unwrap(), requests[0]);
        t.send_encoded(encode(&Message::TagResult).into()).unwrap();
        assert!(!t.held.is_empty());
        drop(t);
        assert_eq!(read_frame(&mut peer), Message::TagResult);
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let m = t.recv().unwrap();
            t.send(&m).unwrap(); // echo
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        let msg = Message::Tag { name: "met".into(), value: Value::Real(3.25) };
        c.send(&msg).unwrap();
        assert_eq!(c.recv().unwrap(), msg);
        handle.join().unwrap();
    }
}
