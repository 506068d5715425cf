//! Binary wire codec for PPX messages.
//!
//! Layout (all little-endian):
//!
//! ```text
//! frame    := u32 payload_len ++ payload     (stream transports only)
//! payload  := u8 msg_tag ++ fields...
//! string   := u32 len ++ utf8 bytes
//! value    := u8 val_tag ++ body
//!             0 = unit | 1 = bool(u8) | 2 = int(i64) | 3 = real(f64)
//!             4 = tensor(u32 ndim, u32 dims..., f32 data...)
//!             5 = str(string)
//! dist     := u8 dist_tag ++ params (f64 / vec<f64> := u32 len ++ f64...)
//!
//! HandshakeResult := string system ++ string model ++ u32 capabilities
//!             (a payload that ends after `model` is a peer from before
//!             capabilities: the empty set)
//! RunPrior   := u64 seed ++ u32 n ++ n × (string name ++ value), by name
//! PriorTrace := u32 n ++ n × entry ++ u32 m ++ m × (string name ++ value)
//!               ++ value result
//! entry      := string base ++ u32 instance ++ string name ++ u8 kind
//!               ++ dist ++ value ++ f64 log_prob ++ f64 log_q
//!               kind: 0 = sample | 1 = replaced sample | 2 = observe
//! ```
//!
//! A `PriorTrace` carries no totals: [`decode`] rebuilds the trace with
//! `Trace::from_entries`, which sums them over the entries exactly as the
//! executor does.
//!
//! [`encode`] produces the *payload* only; message-grained transports (the
//! in-process channel) carry payloads as-is, while byte-stream transports
//! (TCP) add the `u32` length prefix via [`frame`] and strip it again with
//! the reassembly buffer (see [`crate::mux::FrameBuffer`]). Announced
//! payload lengths are bounded by [`MAX_FRAME_LEN`] so a corrupt or hostile
//! prefix can never trigger an arbitrary-size allocation, and [`decode`]
//! checks every count inside a payload against the bytes left before
//! allocating for it.
//!
//! This replaces the flatbuffers schema of the reference implementation with
//! an explicitly documented format; any language can implement it.

use crate::message::{Capabilities, Message};
use bytes::{Buf, BufMut, BytesMut};
use etalumis_core::{Address, EntryKind, ObserveMap, Trace, TraceEntry};
use etalumis_distributions::{Distribution, TensorValue, Value};
use std::sync::Arc;

/// Largest payload any PPX transport will accept or emit, in bytes.
///
/// Generous for real traffic — the biggest legitimate message is a voxel
/// tensor `RunResult`/`Run` observation (the paper's 20×35×35 calorimeter is
/// 98 KB) — while keeping a corrupt 4-byte length prefix from provoking a
/// multi-gigabyte `vec![0u8; len]`.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Errors raised while decoding a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended prematurely.
    Truncated,
    /// Unknown message/value/distribution tag byte.
    BadTag(u8),
    /// String payload was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated PPX frame"),
            WireError::BadTag(t) => write!(f, "unknown PPX tag byte {t}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in PPX string"),
        }
    }
}

impl std::error::Error for WireError {}

/// Fewest bytes a `string ++ value` pair (an observation or a tag) takes.
const MIN_PAIR_LEN: usize = 4 + 1;
/// Fewest bytes a trace entry takes: three `u32`s (two string lengths and
/// the instance), the kind, an empty `Categorical`, a `Unit` value and the
/// two `f64`s.
const MIN_ENTRY_LEN: usize = 4 + 4 + 4 + 1 + (1 + 4) + 1 + 8 + 8;

fn kind_byte(kind: EntryKind) -> u8 {
    match kind {
        EntryKind::Sample => 0,
        EntryKind::SampleReplaced => 1,
        EntryKind::Observe => 2,
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_f64_vec(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_f64_le(x);
    }
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Unit => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64_le(*i);
        }
        Value::Real(x) => {
            buf.put_u8(3);
            buf.put_f64_le(*x);
        }
        Value::Tensor(t) => put_tensor(buf, t),
        Value::Str(s) => {
            buf.put_u8(5);
            put_string(buf, s);
        }
    }
}

/// The [`Value::Tensor`] encoding, tag included, of a borrowed tensor.
fn put_tensor(buf: &mut BytesMut, t: &TensorValue) {
    buf.put_u8(4);
    buf.put_u32_le(t.shape.len() as u32);
    for &d in &t.shape {
        buf.put_u32_le(d as u32);
    }
    // Through a stack block rather than one `put_f32_le` per element: the
    // per-element append is most of the cost of a trace's voxel tensors.
    let mut block = [0u8; 256];
    for xs in t.data.chunks(block.len() / 4) {
        for (dst, x) in block.chunks_exact_mut(4).zip(xs) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        buf.put_slice(&block[..4 * xs.len()]);
    }
}

fn put_dist(buf: &mut BytesMut, d: &Distribution) {
    match d {
        Distribution::Uniform { low, high } => {
            buf.put_u8(0);
            buf.put_f64_le(*low);
            buf.put_f64_le(*high);
        }
        Distribution::Normal { mean, std } => {
            buf.put_u8(1);
            buf.put_f64_le(*mean);
            buf.put_f64_le(*std);
        }
        Distribution::TruncatedNormal { mean, std, low, high } => {
            buf.put_u8(2);
            buf.put_f64_le(*mean);
            buf.put_f64_le(*std);
            buf.put_f64_le(*low);
            buf.put_f64_le(*high);
        }
        Distribution::Exponential { rate } => {
            buf.put_u8(3);
            buf.put_f64_le(*rate);
        }
        Distribution::Beta { alpha, beta } => {
            buf.put_u8(4);
            buf.put_f64_le(*alpha);
            buf.put_f64_le(*beta);
        }
        Distribution::Gamma { shape, rate } => {
            buf.put_u8(5);
            buf.put_f64_le(*shape);
            buf.put_f64_le(*rate);
        }
        Distribution::Poisson { rate } => {
            buf.put_u8(6);
            buf.put_f64_le(*rate);
        }
        Distribution::Bernoulli { p } => {
            buf.put_u8(7);
            buf.put_f64_le(*p);
        }
        Distribution::Categorical { probs } => {
            buf.put_u8(8);
            put_f64_vec(buf, probs);
        }
        Distribution::MixtureTruncatedNormal { weights, means, stds, low, high } => {
            buf.put_u8(9);
            put_f64_vec(buf, weights);
            put_f64_vec(buf, means);
            put_f64_vec(buf, stds);
            buf.put_f64_le(*low);
            buf.put_f64_le(*high);
        }
        Distribution::IndependentNormal { mean, std } => {
            buf.put_u8(10);
            put_tensor(buf, mean);
            buf.put_f64_le(*std);
        }
    }
}

/// Encode a message into a frame payload (no length prefix — see [`frame`]
/// for the stream-transport framing).
pub fn encode(msg: &Message) -> BytesMut {
    let mut body = BytesMut::with_capacity(64);
    body.put_u8(msg.tag_byte());
    match msg {
        Message::Handshake { system_name } => put_string(&mut body, system_name),
        Message::HandshakeResult { system_name, model_name, capabilities } => {
            put_string(&mut body, system_name);
            put_string(&mut body, model_name);
            body.put_u32_le(capabilities.bits());
        }
        Message::Run { observation } => put_value(&mut body, observation),
        Message::RunResult { result } => put_value(&mut body, result),
        Message::Sample { address, name, distribution, control, replace } => {
            put_string(&mut body, address);
            put_string(&mut body, name);
            put_dist(&mut body, distribution);
            body.put_u8(*control as u8);
            body.put_u8(*replace as u8);
        }
        Message::SampleResult { value } => put_value(&mut body, value),
        Message::Observe { address, name, distribution } => {
            put_string(&mut body, address);
            put_string(&mut body, name);
            put_dist(&mut body, distribution);
        }
        Message::ObserveResult { value } => put_value(&mut body, value),
        Message::Tag { name, value } => {
            put_string(&mut body, name);
            put_value(&mut body, value);
        }
        Message::TagResult | Message::Reset => {}
        Message::RunPrior { seed, observes } => {
            body.put_u64_le(*seed);
            let mut pairs: Vec<_> = observes.iter().collect();
            pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
            put_pairs(&mut body, pairs.into_iter());
        }
        Message::PriorTrace { trace } => {
            body.put_u32_le(trace.entries.len() as u32);
            for e in &trace.entries {
                put_string(&mut body, &e.address.base);
                body.put_u32_le(e.address.instance);
                put_string(&mut body, &e.name);
                body.put_u8(kind_byte(e.kind));
                put_dist(&mut body, &e.distribution);
                put_value(&mut body, &e.value);
                body.put_f64_le(e.log_prob);
                body.put_f64_le(e.log_q);
            }
            put_pairs(&mut body, trace.tags.iter().map(|(n, v)| (n, v)));
            put_value(&mut body, &trace.result);
        }
    }
    body
}

/// `u32 n ++ n × (string name ++ value)`.
fn put_pairs<'a>(
    buf: &mut BytesMut,
    pairs: impl ExactSizeIterator<Item = (&'a String, &'a Value)>,
) {
    buf.put_u32_le(pairs.len() as u32);
    for (name, value) in pairs {
        put_string(buf, name);
        put_value(buf, value);
    }
}

/// Encode a message into a length-prefixed frame for byte-stream transports.
///
/// Callers are responsible for the [`MAX_FRAME_LEN`] bound — the transports
/// (`TcpTransport::send`, `TcpMuxEndpoint::send_frame`) check it before any
/// bytes leave the process, since a ≥ 4 GiB payload would silently truncate
/// the `u32` prefix.
pub fn frame(msg: &Message) -> BytesMut {
    let payload = encode(msg);
    let mut framed = BytesMut::with_capacity(4 + payload.len());
    framed.put_u32_le(payload.len() as u32);
    framed.extend_from_slice(&payload);
    framed
}

struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        self.need(n)?;
        let s = std::str::from_utf8(&self.buf[..n]).map_err(|_| WireError::BadUtf8)?.to_string();
        self.buf.advance(n);
        Ok(s)
    }

    /// A `u32` element count, refused unless that many `size`-byte
    /// elements fit in the bytes left, so a corrupt count can never drive
    /// an allocation larger than the frame.
    fn count(&mut self, size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.remaining() / size {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.count(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Unit),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Real(self.f64()?)),
            4 => {
                let ndim = self.count(4)?;
                let mut shape = Vec::with_capacity(ndim);
                for _ in 0..ndim {
                    shape.push(self.u32()? as usize);
                }
                let n = shape
                    .iter()
                    .try_fold(1usize, |n, &d| n.checked_mul(d))
                    .filter(|&n| n <= self.buf.remaining() / 4)
                    .ok_or(WireError::Truncated)?;
                let (bytes, rest) = self.buf.split_at(4 * n);
                self.buf = rest;
                let data = bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                Ok(TensorValue::new(shape, data).into())
            }
            5 => Ok(Value::Str(self.string()?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// `u32 n ++ n × (string name ++ value)`.
    fn pairs(&mut self) -> Result<Vec<(String, Value)>, WireError> {
        let n = self.count(MIN_PAIR_LEN)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push((self.string()?, self.value()?));
        }
        Ok(pairs)
    }

    fn entry(&mut self) -> Result<TraceEntry, WireError> {
        let address = Address::new(self.string()?, self.u32()?);
        let name = self.string()?;
        let kind = match self.u8()? {
            0 => EntryKind::Sample,
            1 => EntryKind::SampleReplaced,
            2 => EntryKind::Observe,
            t => return Err(WireError::BadTag(t)),
        };
        Ok(TraceEntry {
            address,
            name,
            kind,
            distribution: self.dist()?,
            value: self.value()?,
            log_prob: self.f64()?,
            log_q: self.f64()?,
        })
    }

    fn trace(&mut self) -> Result<Trace, WireError> {
        let n = self.count(MIN_ENTRY_LEN)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(self.entry()?);
        }
        let tags = self.pairs()?;
        Ok(Trace::from_entries(entries, tags, self.value()?))
    }

    fn dist(&mut self) -> Result<Distribution, WireError> {
        match self.u8()? {
            0 => Ok(Distribution::Uniform { low: self.f64()?, high: self.f64()? }),
            1 => Ok(Distribution::Normal { mean: self.f64()?, std: self.f64()? }),
            2 => Ok(Distribution::TruncatedNormal {
                mean: self.f64()?,
                std: self.f64()?,
                low: self.f64()?,
                high: self.f64()?,
            }),
            3 => Ok(Distribution::Exponential { rate: self.f64()? }),
            4 => Ok(Distribution::Beta { alpha: self.f64()?, beta: self.f64()? }),
            5 => Ok(Distribution::Gamma { shape: self.f64()?, rate: self.f64()? }),
            6 => Ok(Distribution::Poisson { rate: self.f64()? }),
            7 => Ok(Distribution::Bernoulli { p: self.f64()? }),
            8 => Ok(Distribution::Categorical { probs: self.f64_vec()? }),
            9 => Ok(Distribution::MixtureTruncatedNormal {
                weights: self.f64_vec()?,
                means: self.f64_vec()?,
                stds: self.f64_vec()?,
                low: self.f64()?,
                high: self.f64()?,
            }),
            10 => {
                let v = self.value()?;
                let mean = match v {
                    Value::Tensor(t) => Arc::unwrap_or_clone(t),
                    _ => return Err(WireError::BadTag(10)),
                };
                Ok(Distribution::IndependentNormal { mean, std: self.f64()? })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Decode one message from a frame payload (without the length prefix).
pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
    let mut c = Cursor { buf: payload };
    let tag = c.u8()?;
    let msg = match tag {
        1 => Message::Handshake { system_name: c.string()? },
        2 => Message::HandshakeResult {
            system_name: c.string()?,
            model_name: c.string()?,
            capabilities: if c.buf.is_empty() {
                Capabilities::default()
            } else {
                Capabilities::from_bits(c.u32()?)
            },
        },
        3 => Message::Run { observation: c.value()? },
        4 => Message::RunResult { result: c.value()? },
        5 => Message::Sample {
            address: c.string()?,
            name: c.string()?,
            distribution: c.dist()?,
            control: c.u8()? != 0,
            replace: c.u8()? != 0,
        },
        6 => Message::SampleResult { value: c.value()? },
        7 => Message::Observe { address: c.string()?, name: c.string()?, distribution: c.dist()? },
        8 => Message::ObserveResult { value: c.value()? },
        9 => Message::Tag { name: c.string()?, value: c.value()? },
        10 => Message::TagResult,
        11 => Message::Reset,
        12 => Message::RunPrior {
            seed: c.u64()?,
            observes: Arc::new(c.pairs()?.into_iter().collect::<ObserveMap>()),
        },
        13 => Message::PriorTrace { trace: c.trace()? },
        t => return Err(WireError::BadTag(t)),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: &Message) {
        let payload = encode(msg);
        // The stream framing prefixes exactly the payload length.
        let framed = frame(msg);
        let len = u32::from_le_bytes(framed[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, payload.len());
        assert_eq!(&framed[4..], &payload[..]);
        let decoded = decode(&payload).unwrap();
        assert_eq!(&decoded, msg);
    }

    /// One message of every kind.
    fn every_kind() -> Vec<Message> {
        vec![
            Message::Handshake { system_name: "etalumis-rs".into() },
            Message::HandshakeResult {
                system_name: "rust-frontend".into(),
                model_name: "tau_decay".into(),
                capabilities: Capabilities::SEEDED_PRIOR,
            },
            Message::Run { observation: Value::from(TensorValue::zeros(vec![2, 3])) },
            Message::RunResult { result: Value::Real(1.5) },
            Message::Sample {
                address: "decay/px[Uniform]".into(),
                name: "px".into(),
                distribution: Distribution::Uniform { low: -3.0, high: 3.0 },
                control: true,
                replace: false,
            },
            Message::SampleResult { value: Value::Real(0.25) },
            Message::Observe {
                address: "calo[IndependentNormal]".into(),
                name: "calo".into(),
                distribution: Distribution::IndependentNormal {
                    mean: TensorValue::new(vec![2], vec![0.5, -0.5]),
                    std: 0.1,
                },
            },
            Message::ObserveResult { value: Value::Unit },
            Message::Tag { name: "met".into(), value: Value::Real(2.5) },
            Message::TagResult,
            Message::Reset,
            Message::RunPrior { seed: u64::MAX - 7, observes: Arc::new(observes()) },
            Message::PriorTrace { trace: prior_trace() },
        ]
    }

    fn observes() -> ObserveMap {
        let mut m = ObserveMap::new();
        m.insert("y".into(), Value::Real(1.75));
        m.insert("calo".into(), Value::from(TensorValue::new(vec![2], vec![0.5, -0.5])));
        m
    }

    /// A trace with an entry of every kind, a tag and a result.
    fn prior_trace() -> Trace {
        let entry = |base: &str, instance, kind, distribution, value: Value| TraceEntry {
            address: Address::new(base, instance),
            distribution,
            log_prob: -1.25 - instance as f64,
            log_q: -0.5,
            value,
            kind,
            name: base.into(),
        };
        let entries = vec![
            entry(
                "decay/px[Uniform]",
                0,
                EntryKind::Sample,
                Distribution::Uniform { low: -3.0, high: 3.0 },
                Value::Real(0.25),
            ),
            entry(
                "u[Bernoulli]",
                0,
                EntryKind::SampleReplaced,
                Distribution::Bernoulli { p: 0.3 },
                Value::Bool(true),
            ),
            entry(
                "decay/px[Uniform]",
                1,
                EntryKind::Sample,
                Distribution::Categorical { probs: vec![0.2, 0.8] },
                Value::Int(1),
            ),
            entry(
                "calo[IndependentNormal]",
                0,
                EntryKind::Observe,
                Distribution::IndependentNormal {
                    mean: TensorValue::new(vec![2], vec![0.5, -0.5]),
                    std: 0.1,
                },
                Value::from(TensorValue::new(vec![2], vec![0.25, 0.0])),
            ),
        ];
        Trace::from_entries(entries, vec![("met".into(), Value::Real(2.5))], Value::Real(1.5))
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        for m in &every_kind() {
            roundtrip(m);
        }
    }

    #[test]
    fn prior_traces_arrive_with_the_totals_of_their_entries() {
        let sent = prior_trace();
        let Message::PriorTrace { trace } =
            decode(&encode(&Message::PriorTrace { trace: sent.clone() })).unwrap()
        else {
            panic!("decoded another kind");
        };
        // Only the entries crossed the wire; the sums are rebuilt from them.
        assert_eq!(trace.log_prior.to_bits(), sent.log_prior.to_bits());
        assert_eq!(trace.log_likelihood.to_bits(), sent.log_likelihood.to_bits());
        assert_eq!(trace.log_q.to_bits(), sent.log_q.to_bits());
        assert_eq!(trace.log_prior, -1.25 - 1.25 - 2.25);
        assert_eq!(trace.log_likelihood, -1.25);
        assert_eq!(trace.log_q, -1.5);
    }

    #[test]
    fn run_prior_encodes_observes_in_name_order() {
        // Two maps with the same pairs inserted in opposite orders (and so,
        // usually, iterating differently) encode to the same bytes.
        let names: Vec<String> = (0..16).map(|i| format!("obs{i:02}")).collect();
        let map = |order: &mut dyn Iterator<Item = &String>| {
            let observes = order.map(|n| (n.clone(), Value::Str(n.clone()))).collect();
            encode(&Message::RunPrior { seed: 3, observes: Arc::new(observes) })
        };
        let forward = map(&mut names.iter());
        assert_eq!(forward, map(&mut names.iter().rev()));
        // The first pair after the seed and the count is the smallest name.
        assert_eq!(&forward[1 + 8 + 4 + 4..][..5], b"obs00");
    }

    #[test]
    fn handshake_results_from_before_capabilities_advertise_none() {
        let payload = encode(&Message::HandshakeResult {
            system_name: "cpp-frontend".into(),
            model_name: "sherpa".into(),
            capabilities: Capabilities::SEEDED_PRIOR,
        });
        let legacy = &payload[..payload.len() - 4];
        let Message::HandshakeResult { capabilities, .. } = decode(legacy).unwrap() else {
            panic!("decoded another kind");
        };
        assert_eq!(capabilities, Capabilities::default());
        assert!(!capabilities.contains(Capabilities::SEEDED_PRIOR));
        // Unknown bits from a newer peer are kept and do not imply ours.
        let newer = Capabilities::from_bits(0b110);
        assert!(!newer.contains(Capabilities::SEEDED_PRIOR));
        assert!(Capabilities::from_bits(0b111).contains(Capabilities::SEEDED_PRIOR));
    }

    #[test]
    fn hostile_counts_error_instead_of_allocating() {
        let frames: [&[u8]; 5] = [
            // A SampleResult tensor of rank u32::MAX.
            &[6, 4, 0xff, 0xff, 0xff, 0xff],
            // A Sample whose Categorical announces u32::MAX probabilities.
            &[5, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0xff, 0xff, 0xff, 0xff],
            // A rank-3 tensor whose element count overflows usize.
            &[
                6, 4, 3, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                0xff,
            ],
            // A PriorTrace announcing u32::MAX entries.
            &[13, 0xff, 0xff, 0xff, 0xff],
            // A RunPrior whose observes announce u32::MAX pairs.
            &[12, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff],
        ];
        for frame in frames {
            assert_eq!(decode(frame), Err(WireError::Truncated), "frame {frame:02x?}");
        }
    }

    #[test]
    fn mutated_frames_never_panic() {
        // Deterministic mutation sweep over every message kind: each byte
        // complemented and each bit flipped, and each 4-byte window (where
        // counts and lengths live) overwritten with boundary values.
        // Decoding may fail but must return.
        for msg in &every_kind() {
            let payload = encode(msg).to_vec();
            for i in 0..payload.len() {
                for mask in (0..8).map(|b| 1u8 << b).chain([0xff]) {
                    let mut m = payload.clone();
                    m[i] ^= mask;
                    let _ = decode(&m);
                }
            }
            for i in 0..payload.len().saturating_sub(3) {
                for word in [0u32, 0x8000_0000, u32::MAX] {
                    let mut m = payload.clone();
                    m[i..i + 4].copy_from_slice(&word.to_le_bytes());
                    let _ = decode(&m);
                }
            }
        }
    }

    #[test]
    fn distributions_roundtrip() {
        let dists = vec![
            Distribution::Normal { mean: 1.0, std: 2.0 },
            Distribution::TruncatedNormal { mean: 0.0, std: 1.0, low: -1.0, high: 1.0 },
            Distribution::Exponential { rate: 0.5 },
            Distribution::Beta { alpha: 2.0, beta: 3.0 },
            Distribution::Gamma { shape: 2.0, rate: 1.0 },
            Distribution::Poisson { rate: 4.5 },
            Distribution::Bernoulli { p: 0.3 },
            Distribution::Categorical { probs: vec![0.2, 0.3, 0.5] },
            Distribution::MixtureTruncatedNormal {
                weights: vec![0.5, 0.5],
                means: vec![0.0, 1.0],
                stds: vec![0.1, 0.2],
                low: -2.0,
                high: 2.0,
            },
        ];
        for d in dists {
            roundtrip(&Message::Sample {
                address: "a".into(),
                name: "n".into(),
                distribution: d,
                control: true,
                replace: true,
            });
        }
    }

    #[test]
    fn empty_tensors_roundtrip() {
        // Zero-element tensors in every shape the codec can express them.
        for shape in [vec![0usize], vec![2, 0], vec![0, 3], vec![4, 0, 2]] {
            roundtrip(&Message::RunResult { result: Value::from(TensorValue::new(shape, vec![])) });
        }
        roundtrip(&Message::Run { observation: Value::from(TensorValue::zeros(vec![0])) });
    }

    #[test]
    fn non_finite_scalars_roundtrip_bit_exact() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE] {
            let frame = encode(&Message::RunResult { result: Value::Real(x) });
            match decode(&frame).unwrap() {
                Message::RunResult { result: Value::Real(y) } => {
                    assert_eq!(y.to_bits(), x.to_bits(), "bits changed for {x}");
                }
                other => panic!("decoded {}", other.name()),
            }
        }
        // Non-finite distribution parameters survive too (NaN != NaN, so
        // compare through the encoded frame rather than PartialEq).
        let msg = Message::Sample {
            address: "a".into(),
            name: "n".into(),
            distribution: Distribution::Normal { mean: f64::NEG_INFINITY, std: f64::NAN },
            control: true,
            replace: false,
        };
        let frame = encode(&msg);
        let reencoded = encode(&decode(&frame).unwrap());
        assert_eq!(frame, reencoded);
    }

    #[test]
    fn zero_length_strings_roundtrip() {
        roundtrip(&Message::Handshake { system_name: String::new() });
        roundtrip(&Message::Tag { name: String::new(), value: Value::Str(String::new()) });
        roundtrip(&Message::Sample {
            address: String::new(),
            name: String::new(),
            distribution: Distribution::Bernoulli { p: 0.5 },
            control: false,
            replace: false,
        });
    }

    #[test]
    fn max_length_addresses_roundtrip() {
        // The paper's stack-frame addresses can be very long; the codec's
        // u32 length prefix must carry them without truncation.
        let address = "frame/".repeat(20_000); // 120k bytes
        let msg = Message::Observe {
            address: address.clone(),
            name: "obs".into(),
            distribution: Distribution::Normal { mean: 0.0, std: 1.0 },
        };
        let frame = encode(&msg);
        assert!(frame.len() > address.len());
        match decode(&frame).unwrap() {
            Message::Observe { address: a, .. } => assert_eq!(a, address),
            other => panic!("decoded {}", other.name()),
        }
    }

    #[test]
    fn truncated_frames_error() {
        let payload = encode(&Message::Handshake { system_name: "abc".into() });
        for cut in 1..payload.len() {
            let r = decode(&payload[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tag_errors() {
        assert_eq!(decode(&[99]), Err(WireError::BadTag(99)));
        assert_eq!(decode(&[]), Err(WireError::Truncated));
    }

    proptest! {
        #[test]
        fn prop_sample_roundtrip(
            addr in "[a-z/\\[\\]]{0,40}",
            name in "[a-z]{0,10}",
            low in -100.0f64..100.0,
            span in 0.001f64..100.0,
            control: bool,
            replace: bool,
        ) {
            let msg = Message::Sample {
                address: addr,
                name,
                distribution: Distribution::Uniform { low, high: low + span },
                control,
                replace,
            };
            let frame = encode(&msg);
            let decoded = decode(&frame).unwrap();
            prop_assert_eq!(decoded, msg);
        }

        #[test]
        fn prop_tensor_roundtrip(data in proptest::collection::vec(-1e6f32..1e6, 0..200)) {
            let n = data.len();
            let msg = Message::RunResult {
                result: Value::from(TensorValue::new(vec![n], data)),
            };
            let frame = encode(&msg);
            prop_assert_eq!(decode(&frame).unwrap(), msg);
        }

        #[test]
        fn prop_any_f64_bit_pattern_roundtrips(bits: u64) {
            // Covers NaN payloads, infinities, subnormals, and -0.0: the
            // codec must be a bit-exact transport for every f64.
            let x = f64::from_bits(bits);
            let frame = encode(&Message::SampleResult { value: Value::Real(x) });
            match decode(&frame).unwrap() {
                Message::SampleResult { value: Value::Real(y) } =>
                    prop_assert_eq!(y.to_bits(), bits),
                other => panic!("decoded {}", other.name()),
            }
        }

        #[test]
        fn prop_long_addresses_roundtrip(addr in "[a-zA-Z0-9_/\\[\\]]{1000,1024}") {
            let msg = Message::Sample {
                address: addr,
                name: String::new(),
                distribution: Distribution::Exponential { rate: 1.0 },
                control: true,
                replace: false,
            };
            let frame = encode(&msg);
            prop_assert_eq!(decode(&frame).unwrap(), msg);
        }

        #[test]
        fn prop_tensors_with_zero_dims_roundtrip(
            d0 in 0usize..4,
            d1 in 0usize..4,
            zero_axis in 0usize..2,
        ) {
            let mut shape = vec![d0, d1];
            shape[zero_axis] = 0;
            let msg = Message::ObserveResult {
                value: Value::from(TensorValue::new(shape, vec![])),
            };
            let frame = encode(&msg);
            prop_assert_eq!(decode(&frame).unwrap(), msg);
        }
    }
}
