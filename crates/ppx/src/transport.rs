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

use crate::message::Message;
use crate::wire::{decode, encode, MAX_FRAME_LEN};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// A bidirectional, blocking PPX message channel.
pub trait Transport: Send {
    /// Send one message (blocking).
    fn send(&mut self, msg: &Message) -> io::Result<()>;
    /// Receive one message (blocking until available or disconnected).
    fn recv(&mut self) -> io::Result<Message>;
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
        let payload = encode(msg);
        self.tx
            .send(payload.into())
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
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap an accepted/connected stream.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Connect to a listening PPX endpoint.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        let payload = encode(msg);
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
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        self.stream.write_all(&framed)?;
        self.stream.flush()
    }

    fn recv(&mut self) -> io::Result<Message> {
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        // A corrupt/hostile length prefix must not drive the allocation.
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("PPX frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"),
            ));
        }
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_distributions::Value;
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
