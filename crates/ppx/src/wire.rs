//! Binary wire codec for PPX messages.
//!
//! Layout (all little-endian; `string`, `value` and `dist` are the shared
//! encodings of [`etalumis_distributions::codec`]):
//!
//! ```text
//! frame    := u32 payload_len ++ payload     (stream transports only)
//! payload  := u8 msg_tag ++ fields...
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
//! executor does. The simulator records a seeded run straight into the
//! payload ([`PriorTraceWriter`], a `TraceTarget`), never building the
//! trace. A controller that stores only the trace's shard record
//! keeps the payload as a [`SeededTrace`] and decodes it straight into an
//! `etalumis_core::RecordBuilder` (any `TraceTarget`), through the same
//! parser.
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
use bytes::BytesMut;
use etalumis_core::{Address, EntryKind, ObserveMap, Statement, Trace, TraceTarget};
use etalumis_distributions::codec::{put_dist, put_string, put_value, DecodeError, Reader};
use etalumis_distributions::{Distribution, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Largest payload any PPX transport will accept or emit, in bytes.
///
/// Generous for real traffic — the biggest legitimate message is a voxel
/// tensor `RunResult`/`Run` observation (the paper's 20×35×35 calorimeter is
/// 98 KB) — while keeping a corrupt 4-byte length prefix from provoking a
/// multi-gigabyte `vec![0u8; len]`.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Fewest bytes a `string ++ value` pair (an observation or a tag) takes.
const MIN_PAIR_LEN: usize = 4 + 1;
/// Fewest bytes a trace entry takes: three `u32`s (two string lengths and
/// the instance), the kind, an empty `Categorical`, a `Unit` value and the
/// two `f64`s.
const MIN_ENTRY_LEN: usize = 4 + 4 + 4 + 1 + (1 + 4) + 1 + 8 + 8;

/// Encode a message into a frame payload (no length prefix — see [`frame`]
/// for the stream-transport framing).
pub fn encode(msg: &Message) -> BytesMut {
    let mut body = Vec::with_capacity(64);
    put_message(&mut body, msg);
    BytesMut::from(body)
}

/// Encode a message into a length-prefixed frame for byte-stream transports.
///
/// Callers are responsible for the [`MAX_FRAME_LEN`] bound — the transports
/// (`TcpTransport::send`, `TcpMuxEndpoint::send_frame`) check it before any
/// bytes leave the process, since a ≥ 4 GiB payload would silently truncate
/// the `u32` prefix.
pub fn frame(msg: &Message) -> BytesMut {
    let mut framed = Vec::with_capacity(64);
    framed.extend_from_slice(&[0; 4]);
    put_message(&mut framed, msg);
    let len = (framed.len() - 4) as u32;
    framed[..4].copy_from_slice(&len.to_le_bytes());
    BytesMut::from(framed)
}

fn put_message(buf: &mut Vec<u8>, msg: &Message) {
    buf.push(msg.tag_byte());
    match msg {
        Message::Handshake { system_name } => put_string(buf, system_name),
        Message::HandshakeResult { system_name, model_name, capabilities } => {
            put_string(buf, system_name);
            put_string(buf, model_name);
            buf.extend_from_slice(&capabilities.bits().to_le_bytes());
        }
        Message::Run { observation: value }
        | Message::RunResult { result: value }
        | Message::SampleResult { value }
        | Message::ObserveResult { value } => put_value(buf, value),
        Message::Sample { address, name, distribution, control, replace } => {
            put_string(buf, address);
            put_string(buf, name);
            put_dist(buf, distribution);
            buf.extend_from_slice(&[*control as u8, *replace as u8]);
        }
        Message::Observe { address, name, distribution } => {
            put_string(buf, address);
            put_string(buf, name);
            put_dist(buf, distribution);
        }
        Message::Tag { name, value } => {
            put_string(buf, name);
            put_value(buf, value);
        }
        Message::TagResult | Message::Reset => {}
        Message::RunPrior { seed, observes } => {
            buf.extend_from_slice(&seed.to_le_bytes());
            let mut pairs: Vec<_> = observes.iter().collect();
            pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
            put_pairs(buf, pairs.into_iter());
        }
        Message::PriorTrace { trace } => {
            buf.extend_from_slice(&(trace.entries.len() as u32).to_le_bytes());
            for e in &trace.entries {
                put_entry(buf, &e.address, &e.name, e.kind, &e.distribution, &e.value);
                put_scores(buf, e.log_prob, e.log_q);
            }
            put_pairs(buf, trace.tags.iter().map(|(n, v)| (n, v)));
            put_value(buf, &trace.result);
        }
    }
}

/// An `entry` up to its two densities ([`put_scores`]).
fn put_entry(
    buf: &mut Vec<u8>,
    address: &Address,
    name: &str,
    kind: EntryKind,
    distribution: &Distribution,
    value: &Value,
) {
    put_string(buf, &address.base);
    buf.extend_from_slice(&address.instance.to_le_bytes());
    put_string(buf, name);
    buf.push(match kind {
        EntryKind::Sample => 0,
        EntryKind::SampleReplaced => 1,
        EntryKind::Observe => 2,
    });
    put_dist(buf, distribution);
    put_value(buf, value);
}

/// An `entry`'s `f64 log_prob ++ f64 log_q`.
fn put_scores(buf: &mut Vec<u8>, log_prob: f64, log_q: f64) {
    buf.extend_from_slice(&log_prob.to_le_bytes());
    buf.extend_from_slice(&log_q.to_le_bytes());
}

/// Records one execution straight into its `PriorTrace` payload: the
/// simulator side of a seeded run, which never holds the trace.
///
/// The payload is byte-identical to `encode(&Message::PriorTrace { trace })`
/// of the [`Trace`] the same statements make. Entries go out as they
/// arrive, their count is filled in at the end, and tags (which arrive
/// interleaved with the entries) are kept aside and appended after them.
pub struct PriorTraceWriter {
    payload: Vec<u8>,
    entries: u32,
    tags: Vec<u8>,
    n_tags: u32,
}

impl Default for PriorTraceWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl PriorTraceWriter {
    /// An empty payload: the tag and a count to be filled in.
    pub fn new() -> Self {
        Self { payload: vec![PRIOR_TRACE, 0, 0, 0, 0], entries: 0, tags: Vec::new(), n_tags: 0 }
    }
}

impl TraceTarget for PriorTraceWriter {
    type Output = Vec<u8>;
    const SCORED: bool = true;

    fn push(&mut self, s: Statement<'_>) {
        self.entries += 1;
        put_entry(&mut self.payload, &s.address, &s.name, s.kind, &s.distribution, &s.value);
        put_scores(&mut self.payload, s.log_prob, s.log_q);
    }

    fn tag(&mut self, name: Cow<'_, str>, value: Value) {
        self.n_tags += 1;
        put_string(&mut self.tags, &name);
        put_value(&mut self.tags, &value);
    }

    fn finish(mut self, result: Value) -> Vec<u8> {
        self.payload[1..5].copy_from_slice(&self.entries.to_le_bytes());
        self.payload.extend_from_slice(&self.n_tags.to_le_bytes());
        self.payload.extend_from_slice(&self.tags);
        put_value(&mut self.payload, &result);
        self.payload
    }
}

/// `u32 n ++ n × (string name ++ value)`.
fn put_pairs<'a>(buf: &mut Vec<u8>, pairs: impl ExactSizeIterator<Item = (&'a String, &'a Value)>) {
    buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (name, value) in pairs {
        put_string(buf, name);
        put_value(buf, value);
    }
}

/// `u32 n ++ n × (string name ++ value)`.
fn pairs(r: &mut Reader) -> Result<Vec<(String, Value)>, DecodeError> {
    let n = r.count(MIN_PAIR_LEN)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((r.string()?, r.value()?));
    }
    Ok(pairs)
}

fn entry<'a>(r: &mut Reader<'a>) -> Result<Statement<'a>, DecodeError> {
    let address = Address::new(r.string()?, r.u32()?);
    let name = Cow::Borrowed(r.str()?);
    let kind = match r.u8()? {
        0 => EntryKind::Sample,
        1 => EntryKind::SampleReplaced,
        2 => EntryKind::Observe,
        t => return Err(DecodeError::UnknownTag(t)),
    };
    Ok(Statement {
        address,
        name,
        kind,
        distribution: Cow::Owned(r.dist()?),
        value: Cow::Owned(r.value()?),
        log_prob: r.f64()?,
        log_q: r.f64()?,
    })
}

/// A `PriorTrace` body, recorded into `target` as it is parsed.
fn trace<B: TraceTarget>(r: &mut Reader, mut target: B) -> Result<B::Output, DecodeError> {
    for _ in 0..r.count(MIN_ENTRY_LEN)? {
        target.push(entry(r)?);
    }
    for _ in 0..r.count(MIN_PAIR_LEN)? {
        target.tag(Cow::Borrowed(r.str()?), r.value()?);
    }
    Ok(target.finish(r.value()?))
}

/// The payload of a seeded run's `PriorTrace`, kept undecoded until the
/// driver knows what it records: the whole trace, or only its shard record.
#[derive(Clone, Debug, PartialEq)]
pub struct SeededTrace(pub Vec<u8>);

impl SeededTrace {
    /// Decode the trace into `target` — [`decode`]'s parser, which accepts
    /// and rejects exactly the payloads [`decode`] does.
    pub fn decode_into<B: TraceTarget>(&self, target: B) -> Result<B::Output, DecodeError> {
        let r = &mut Reader::new(&self.0);
        match r.u8()? {
            PRIOR_TRACE => trace(r, target),
            t => Err(DecodeError::UnknownTag(t)),
        }
    }
}

/// The tag byte of a `PriorTrace` payload.
pub(crate) const PRIOR_TRACE: u8 = 13;

/// Decode one message from a frame payload (without the length prefix).
pub fn decode(payload: &[u8]) -> Result<Message, DecodeError> {
    let r = &mut Reader::new(payload);
    let msg = match r.u8()? {
        1 => Message::Handshake { system_name: r.string()? },
        2 => Message::HandshakeResult {
            system_name: r.string()?,
            model_name: r.string()?,
            capabilities: if r.remaining() == 0 {
                Capabilities::default()
            } else {
                Capabilities::from_bits(r.u32()?)
            },
        },
        3 => Message::Run { observation: r.value()? },
        4 => Message::RunResult { result: r.value()? },
        5 => Message::Sample {
            address: r.string()?,
            name: r.string()?,
            distribution: r.dist()?,
            control: r.u8()? != 0,
            replace: r.u8()? != 0,
        },
        6 => Message::SampleResult { value: r.value()? },
        7 => Message::Observe { address: r.string()?, name: r.string()?, distribution: r.dist()? },
        8 => Message::ObserveResult { value: r.value()? },
        9 => Message::Tag { name: r.string()?, value: r.value()? },
        10 => Message::TagResult,
        11 => Message::Reset,
        12 => Message::RunPrior {
            seed: r.u64()?,
            observes: Arc::new(pairs(r)?.into_iter().collect::<ObserveMap>()),
        },
        PRIOR_TRACE => Message::PriorTrace { trace: trace(r, Trace::default())? },
        t => return Err(DecodeError::UnknownTag(t)),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::{ProbProgram, TraceEntry};
    use etalumis_distributions::{Distribution, TensorValue};
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

    /// A program with what the test models lack: nested scopes, tags
    /// between draws, replaced and uncontrolled draws, a repeated address,
    /// an integer and a tensor observe.
    fn edge_model() -> impl ProbProgram {
        use etalumis_core::{FnProgram, SimCtx, SimCtxExt};
        FnProgram::new("edge", |ctx: &mut dyn SimCtx| {
            ctx.tag("start", Value::Str("edge".into()));
            ctx.push_scope("outer");
            let x = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "x");
            ctx.push_scope("inner");
            let u = ctx.sample_replaced(&Distribution::Uniform { low: 0.0, high: 1.0 }, "u");
            let k = ctx.sample_ext(&Distribution::Poisson { rate: 2.0 }, "k", false, false);
            ctx.pop_scope();
            let x2 = ctx.sample_f64(&Distribution::Normal { mean: x, std: 1.0 }, "x");
            ctx.tag("k", k.clone());
            ctx.pop_scope();
            ctx.observe(&Distribution::Poisson { rate: 1.0 + x2.abs() }, "count");
            ctx.observe(
                &Distribution::IndependentNormal {
                    mean: TensorValue::new(vec![3], vec![x as f32, u.as_f64() as f32, 0.5]),
                    std: 0.25,
                },
                "calo",
            );
            ctx.tag("x2", Value::Real(x2));
            Value::Real(x + x2)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The simulator's direct `PriorTrace` writer produces exactly the
        /// bytes of encoding the trace the same run records, for every test
        /// model, the τ model and the edge model, with and without
        /// registered observations.
        #[test]
        fn prop_prior_trace_writer_writes_the_encoded_trace(seed: u64, observed: bool) {
            use etalumis_core::{Executor, PriorProposer};
            use etalumis_simulators::test_models::{
                BranchingModel, GaussianUnknownMean, GmmModel, RejectionModel,
            };
            use etalumis_simulators::{DetectorConfig, TauDecayConfig, TauDecayModel};
            let tau = TauDecayModel::new(TauDecayConfig {
                detector: DetectorConfig { depth: 4, height: 5, width: 5, ..Default::default() },
                ..Default::default()
            });
            let mut models: Vec<Box<dyn ProbProgram>> = vec![
                Box::new(GaussianUnknownMean::standard()),
                Box::new(BranchingModel::standard()),
                Box::new(RejectionModel::standard()),
                Box::new(GmmModel::standard()),
                Box::new(tau),
                Box::new(edge_model()),
            ];
            let mut observes = ObserveMap::new();
            if observed {
                observes.insert("y0".into(), Value::Real(0.3));
                observes.insert("count".into(), Value::Int(2));
            }
            for model in &mut models {
                let trace =
                    Executor::try_execute_seeded(&mut **model, &mut PriorProposer, &observes, seed)
                        .unwrap();
                let written = Executor::try_record_seeded(
                    &mut **model,
                    &mut PriorProposer,
                    &observes,
                    seed,
                    PriorTraceWriter::new(),
                )
                .unwrap();
                let name = model.name().to_string();
                prop_assert_eq!(
                    &written[..],
                    &encode(&Message::PriorTrace { trace })[..],
                    "{}",
                    name
                );
            }
        }
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
    fn prior_traces_decode_straight_into_their_records() {
        use etalumis_core::{RecordBuilder, TraceRecord};
        let mut unit_observed = prior_trace();
        unit_observed.entries[3].value = Value::Unit;
        for sent in [prior_trace(), unit_observed, Trace::default()] {
            let payload =
                SeededTrace(encode(&Message::PriorTrace { trace: sent.clone() }).to_vec());
            assert_eq!(payload.decode_into(Trace::default()).unwrap(), sent);
            for pruned in [true, false] {
                let direct = payload.decode_into(RecordBuilder::new(pruned)).unwrap();
                assert_eq!(direct, TraceRecord::from_trace(&sent, pruned));
            }
        }
    }

    #[test]
    fn mutated_prior_traces_decode_directly_exactly_when_they_decode() {
        use etalumis_core::{RecordBuilder, TraceRecord};
        let good = encode(&Message::PriorTrace { trace: prior_trace() });
        for (at, m) in etalumis_distributions::codec::mutants(&good) {
            let direct = SeededTrace(m.clone()).decode_into(RecordBuilder::new(true));
            match (direct, decode(&m)) {
                (Ok(rec), Ok(Message::PriorTrace { trace })) => {
                    // Debug forms: a mutant may hold a NaN, which `==` refuses.
                    let reference = TraceRecord::from_trace(&trace, true);
                    assert_eq!(format!("{rec:?}"), format!("{reference:?}"), "at {at}");
                }
                (Ok(_), other) => panic!("at {at}: decoded directly, but decode gave {other:?}"),
                (Err(e), Ok(Message::PriorTrace { .. })) => {
                    panic!("at {at}: decode accepted a PriorTrace the direct decoder refused: {e}")
                }
                (Err(_), _) => {}
            }
        }
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
            let truncated = matches!(decode(frame), Err(DecodeError::Truncated { .. }));
            assert!(truncated, "frame {frame:02x?}");
        }
    }

    #[test]
    fn mutated_frames_never_panic() {
        // Deterministic mutation sweep over every message kind (see
        // `codec::mutants`). Decoding may fail but must return.
        for msg in &every_kind() {
            for (_, m) in etalumis_distributions::codec::mutants(&encode(msg)) {
                let _ = decode(&m);
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
        assert_eq!(decode(&[99]), Err(DecodeError::UnknownTag(99)));
        assert_eq!(decode(&[]), Err(DecodeError::Truncated { needed: 1, available: 0 }));
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
