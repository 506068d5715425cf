//! Compact trace records for training datasets.
//!
//! The paper's I/O layer (§4.4.3) stores execution traces with "variable
//! sequences of sample objects ... variable length tensors, strings,
//! integers, booleans"; serialization overhead motivated two optimizations
//! we reproduce:
//!
//! * **pruning** — "a 'pruning' function to shrink the data by removing
//!   non-necessary structures": [`TraceRecord::from_trace`] with
//!   `pruned = true` keeps only what IC training consumes (controlled
//!   entries + observation), dropping replaced draws, tags, and per-entry
//!   bookkeeping.
//! * **address dictionaries** — "a dictionary of simulator addresses A_t,
//!   which accumulates the fairly long address strings and assigns
//!   shorthand IDs used in serialization" (≈40% memory reduction):
//!   [`AddressDictionary`] + the two encoding modes in [`encode_record`].

use bytes::{BufMut, BytesMut};
use etalumis_core::{EntryKind, Trace};
use etalumis_distributions::{Distribution, TensorValue, Value};
use std::collections::HashMap;
use std::io::Read;
use std::sync::Arc;

/// Why stored bytes failed to decode into a [`TraceRecord`].
///
/// Corrupt input must surface as a value, not a panic: one bad record in a
/// multi-gigabyte dataset aborts a single load call, never the process.
/// The shard layer wraps this with the shard path and file offset of the
/// offending record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the announced structure did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A value carried a tag outside the known set.
    UnknownValueTag(u8),
    /// A distribution carried a tag outside the known set.
    UnknownDistTag(u8),
    /// An embedded string was not valid UTF-8.
    BadUtf8,
    /// A dictionary-encoded record referenced an id the dictionary lacks.
    MissingDictEntry(u32),
    /// A dictionary-encoded record was decoded without a dictionary.
    MissingDictionary,
    /// The observation field held a non-tensor value.
    ObservationNotTensor,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "record truncated: needed {needed} more bytes, had {available}")
            }
            DecodeError::UnknownValueTag(t) => write!(f, "bad value tag {t}"),
            DecodeError::UnknownDistTag(t) => write!(f, "bad dist tag {t}"),
            DecodeError::BadUtf8 => write!(f, "embedded string is not valid UTF-8"),
            DecodeError::MissingDictEntry(id) => {
                write!(f, "address id {id} not present in the shard dictionary")
            }
            DecodeError::MissingDictionary => {
                write!(f, "record is dictionary-encoded but no dictionary was supplied")
            }
            DecodeError::ObservationNotTensor => write!(f, "observation must be a tensor"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for std::io::Error {
    fn from(e: DecodeError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Bounds-checked little-endian reader over a byte slice: every read that
/// would run past the end returns [`DecodeError::Truncated`] instead of
/// panicking. Shared by every decoder in the workspace that must survive
/// corrupt input (records, shard journals, checkpoint manifests).
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consume the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated { needed: n, available: self.buf.len() });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Consume a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Consume a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(f32::from_le_bytes(a))
    }

    /// Consume a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(f64::from_le_bytes(a))
    }

    /// Consume a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// One sample statement in a stored trace.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordEntry {
    /// Fully qualified address (`base__instance`).
    pub address: String,
    /// Prior distribution at this site.
    pub distribution: Distribution,
    /// Sampled value.
    pub value: Value,
    /// Whether the entry was a rejection-loop (`replace`) draw.
    pub replaced: bool,
}

/// A compact, serializable execution trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Trace-type hash (over controlled addresses, in order).
    pub trace_type: u64,
    /// Sample entries (controlled only when pruned).
    pub entries: Vec<RecordEntry>,
    /// The observation the IC network conditions on.
    pub observation: TensorValue,
    /// Total number of statements in the original trace (load-balance proxy).
    pub length: u32,
}

impl TraceRecord {
    /// Build a record from a live trace.
    ///
    /// `pruned = true` keeps only controlled entries (what training needs);
    /// `false` keeps replaced draws too (the pre-optimization layout).
    pub fn from_trace(trace: &Trace, pruned: bool) -> Self {
        let observation = match trace.first_observed() {
            Some(Value::Tensor(t)) => TensorValue::clone(t),
            Some(v) => TensorValue::new(vec![1], vec![v.as_f64() as f32]),
            None => TensorValue::zeros(vec![1]),
        };
        let entries = trace
            .entries
            .iter()
            .filter(|e| match e.kind {
                EntryKind::Sample => true,
                EntryKind::SampleReplaced => !pruned,
                EntryKind::Observe => false,
            })
            .map(|e| RecordEntry {
                address: e.address.qualified(),
                distribution: e.distribution.clone(),
                value: e.value.clone(),
                replaced: e.kind == EntryKind::SampleReplaced,
            })
            .collect();
        Self {
            trace_type: trace.trace_type().0,
            entries,
            observation,
            length: trace.entries.len() as u32,
        }
    }

    /// Controlled entries only (skips replaced draws if present).
    pub fn controlled(&self) -> impl Iterator<Item = &RecordEntry> {
        self.entries.iter().filter(|e| !e.replaced)
    }

    /// Number of controlled entries (the LSTM sequence length).
    pub fn num_controlled(&self) -> usize {
        self.controlled().count()
    }
}

/// Bidirectional map between address strings and shorthand u32 ids.
#[derive(Default, Debug, Clone)]
pub struct AddressDictionary {
    ids: HashMap<String, u32>,
    strings: Vec<String>,
}

impl AddressDictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or assign the id for an address string.
    pub fn intern(&mut self, addr: &str) -> u32 {
        if let Some(&id) = self.ids.get(addr) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(addr.to_string(), id);
        self.strings.push(addr.to_string());
        id
    }

    /// Look up the string for an id the caller knows is interned; panics on
    /// a dangling id (programmer error). Decoders working on untrusted
    /// bytes use [`AddressDictionary::get`] instead.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Checked lookup: `None` for an id this dictionary never assigned.
    /// The decode path routes every stored id through here, so a shard
    /// whose dictionary was truncated (or whose record references a future
    /// id) surfaces as [`DecodeError::MissingDictEntry`], never a panic.
    pub fn get(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of interned addresses.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no addresses are interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Serialize the dictionary.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.strings.len() as u32);
        for s in &self.strings {
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }

    /// Deserialize a dictionary from `r`, which holds `left` more bytes,
    /// reading its own bytes and no further.
    ///
    /// A shard carries its dictionary in the header, ahead of the records:
    /// opening one must not read those too (`TraceDataset::get_many` opens a
    /// shard per call). No count or length is allocated for beyond `left`.
    pub fn read(r: &mut impl Read, mut left: u64) -> Result<Self, DecodeError> {
        let mut field = |bytes: &mut Vec<u8>, len: usize| {
            let short = DecodeError::Truncated { needed: len, available: left as usize };
            if len as u64 > left {
                return Err(short);
            }
            left -= len as u64;
            bytes.resize(len, 0);
            r.read_exact(bytes).map_err(|_| short)
        };
        let le_u32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let mut bytes = Vec::new();
        field(&mut bytes, 4)?;
        let mut d = Self::new();
        for _ in 0..le_u32(&bytes) {
            field(&mut bytes, 4)?;
            let len = le_u32(&bytes) as usize;
            field(&mut bytes, len)?;
            d.intern(std::str::from_utf8(&bytes).map_err(|_| DecodeError::BadUtf8)?);
        }
        Ok(d)
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
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
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
    for &x in &t.data {
        buf.put_f32_le(x);
    }
}

fn get_value(r: &mut Reader) -> Result<Value, DecodeError> {
    Ok(match r.u8()? {
        0 => Value::Unit,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.i64()?),
        3 => Value::Real(r.f64()?),
        4 => {
            let ndim = r.u32()? as usize;
            let mut shape = Vec::with_capacity(ndim.min(r.remaining() / 4));
            for _ in 0..ndim {
                shape.push(r.u32()? as usize);
            }
            // A corrupt shape can announce an absurd element count (or one
            // that overflows usize); bound the allocation by what the input
            // can actually hold, with overflow-checked arithmetic.
            let announced = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
            let n = match announced {
                Some(n) if n <= r.remaining() / 4 => n,
                other => {
                    return Err(DecodeError::Truncated {
                        needed: other.map(|n| n.saturating_mul(4)).unwrap_or(usize::MAX),
                        available: r.remaining(),
                    })
                }
            };
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                data.push(r.f32()?);
            }
            TensorValue::new(shape, data).into()
        }
        5 => Value::Str(r.string()?),
        t => return Err(DecodeError::UnknownValueTag(t)),
    })
}

fn put_dist(buf: &mut BytesMut, d: &Distribution) {
    // Reuse the Value encoding for parameter vectors to keep this compact.
    let put_vec = |buf: &mut BytesMut, v: &[f64]| {
        buf.put_u32_le(v.len() as u32);
        for &x in v {
            buf.put_f64_le(x);
        }
    };
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
            put_vec(buf, probs);
        }
        Distribution::MixtureTruncatedNormal { weights, means, stds, low, high } => {
            buf.put_u8(9);
            put_vec(buf, weights);
            put_vec(buf, means);
            put_vec(buf, stds);
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

fn get_dist(r: &mut Reader) -> Result<Distribution, DecodeError> {
    fn get_vec(r: &mut Reader) -> Result<Vec<f64>, DecodeError> {
        let n = r.u32()? as usize;
        if n > r.remaining() / 8 {
            return Err(DecodeError::Truncated { needed: n * 8, available: r.remaining() });
        }
        (0..n).map(|_| r.f64()).collect()
    }
    Ok(match r.u8()? {
        0 => Distribution::Uniform { low: r.f64()?, high: r.f64()? },
        1 => Distribution::Normal { mean: r.f64()?, std: r.f64()? },
        2 => Distribution::TruncatedNormal {
            mean: r.f64()?,
            std: r.f64()?,
            low: r.f64()?,
            high: r.f64()?,
        },
        3 => Distribution::Exponential { rate: r.f64()? },
        4 => Distribution::Beta { alpha: r.f64()?, beta: r.f64()? },
        5 => Distribution::Gamma { shape: r.f64()?, rate: r.f64()? },
        6 => Distribution::Poisson { rate: r.f64()? },
        7 => Distribution::Bernoulli { p: r.f64()? },
        8 => Distribution::Categorical { probs: get_vec(r)? },
        9 => Distribution::MixtureTruncatedNormal {
            weights: get_vec(r)?,
            means: get_vec(r)?,
            stds: get_vec(r)?,
            low: r.f64()?,
            high: r.f64()?,
        },
        10 => {
            let mean = match get_value(r)? {
                Value::Tensor(t) => Arc::unwrap_or_clone(t),
                _ => return Err(DecodeError::ObservationNotTensor),
            };
            Distribution::IndependentNormal { mean, std: r.f64()? }
        }
        t => return Err(DecodeError::UnknownDistTag(t)),
    })
}

/// Encode a record. With `dict = Some(..)`, addresses are stored as u32
/// shorthand ids (the paper's dictionary optimization); otherwise full
/// strings are embedded per entry.
pub fn encode_record(rec: &TraceRecord, dict: Option<&mut AddressDictionary>) -> BytesMut {
    let mut buf = BytesMut::with_capacity(256);
    buf.put_u64_le(rec.trace_type);
    buf.put_u32_le(rec.length);
    buf.put_u32_le(rec.entries.len() as u32);
    match dict {
        Some(d) => {
            buf.put_u8(1);
            for e in &rec.entries {
                buf.put_u32_le(d.intern(&e.address));
                buf.put_u8(e.replaced as u8);
                put_dist(&mut buf, &e.distribution);
                put_value(&mut buf, &e.value);
            }
        }
        None => {
            buf.put_u8(0);
            for e in &rec.entries {
                buf.put_u32_le(e.address.len() as u32);
                buf.put_slice(e.address.as_bytes());
                buf.put_u8(e.replaced as u8);
                put_dist(&mut buf, &e.distribution);
                put_value(&mut buf, &e.value);
            }
        }
    }
    put_tensor(&mut buf, &rec.observation);
    buf
}

/// Decode a record encoded by [`encode_record`].
///
/// Corrupt input (bad tags, truncation, invalid UTF-8, dangling dictionary
/// ids) surfaces as a [`DecodeError`] — never a panic — so one bad record
/// cannot abort loading a multi-gigabyte dataset. The shard layer adds the
/// shard path and byte offset to the error it propagates.
pub fn decode_record(
    buf: &[u8],
    dict: Option<&AddressDictionary>,
) -> Result<TraceRecord, DecodeError> {
    let mut r = Reader::new(buf);
    let trace_type = r.u64()?;
    let length = r.u32()?;
    let n = r.u32()? as usize;
    let uses_dict = r.u8()? == 1;
    let mut entries = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        let address = if uses_dict {
            let id = r.u32()?;
            let dict = dict.ok_or(DecodeError::MissingDictionary)?;
            dict.get(id).ok_or(DecodeError::MissingDictEntry(id))?.to_string()
        } else {
            r.string()?
        };
        let replaced = r.u8()? != 0;
        let distribution = get_dist(&mut r)?;
        let value = get_value(&mut r)?;
        entries.push(RecordEntry { address, distribution, value, replaced });
    }
    let observation = match get_value(&mut r)? {
        Value::Tensor(t) => Arc::unwrap_or_clone(t),
        _ => return Err(DecodeError::ObservationNotTensor),
    };
    Ok(TraceRecord { trace_type, entries, observation, length })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::Executor;
    use etalumis_simulators::{BranchingModel, TauDecayModel};

    #[test]
    fn record_roundtrip_without_dict() {
        let mut m = BranchingModel::standard();
        let t = Executor::sample_prior(&mut m, 1);
        let rec = TraceRecord::from_trace(&t, true);
        let buf = encode_record(&rec, None);
        let back = decode_record(&buf, None).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn record_roundtrip_with_dict() {
        let mut m = TauDecayModel::default_model();
        let t = Executor::sample_prior(&mut m, 2);
        let rec = TraceRecord::from_trace(&t, true);
        let mut dict = AddressDictionary::new();
        let buf = encode_record(&rec, Some(&mut dict));
        let back = decode_record(&buf, Some(&dict)).unwrap();
        assert_eq!(back, rec);
        assert_eq!(dict.len(), rec.entries.len());
    }

    #[test]
    fn dictionary_encoding_is_smaller() {
        // Many traces sharing addresses: dictionary amortizes the strings.
        let mut m = TauDecayModel::default_model();
        let recs: Vec<TraceRecord> = (0..20)
            .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s), true))
            .collect();
        let plain: usize = recs.iter().map(|r| encode_record(r, None).len()).sum();
        let mut dict = AddressDictionary::new();
        let mut with_dict: usize =
            recs.iter().map(|r| encode_record(r, Some(&mut dict)).len()).sum();
        let mut dbuf = BytesMut::new();
        dict.encode(&mut dbuf);
        with_dict += dbuf.len();
        assert!(with_dict < plain, "dictionary encoding {with_dict} should beat plain {plain}");
    }

    #[test]
    fn pruning_shrinks_records() {
        let mut m = TauDecayModel::default_model();
        // Find a trace with rejection-loop draws.
        for seed in 0..50 {
            let t = Executor::sample_prior(&mut m, seed);
            let full = TraceRecord::from_trace(&t, false);
            let pruned = TraceRecord::from_trace(&t, true);
            if full.entries.len() > pruned.entries.len() {
                assert!(pruned.entries.iter().all(|e| !e.replaced));
                let fb = encode_record(&full, None).len();
                let pb = encode_record(&pruned, None).len();
                assert!(pb < fb, "pruned {pb} < full {fb}");
                return;
            }
        }
        panic!("no trace with replaced entries found");
    }

    #[test]
    fn dict_roundtrips() {
        let mut d = AddressDictionary::new();
        let a = d.intern("x");
        let b = d.intern("y");
        assert_eq!(d.intern("x"), a);
        let mut buf = BytesMut::new();
        d.encode(&mut buf);
        let d2 = AddressDictionary::read(&mut &buf[..], buf.len() as u64).unwrap();
        assert_eq!(d2.resolve(a), "x");
        assert_eq!(d2.resolve(b), "y");
        assert_eq!(d2.len(), 2);
    }

    #[test]
    fn corrupt_bytes_error_instead_of_panicking() {
        let mut m = BranchingModel::standard();
        let rec = TraceRecord::from_trace(&Executor::sample_prior(&mut m, 3), true);
        let good = encode_record(&rec, None);

        // Truncation at every prefix length must yield an error, not a panic.
        for cut in 0..good.len() {
            assert!(
                decode_record(&good[..cut], None).is_err(),
                "truncated prefix of {cut} bytes decoded successfully"
            );
        }

        // Flip the dict flag (byte 16, after trace_type + length + count):
        // a dict-encoded record with no dictionary supplied must error.
        let mut tagged = good.to_vec();
        tagged[16] = 1;
        match decode_record(&tagged, None) {
            Err(DecodeError::MissingDictionary) => {}
            other => panic!("expected MissingDictionary, got {other:?}"),
        }

        // Dict-encoded record with an id beyond the dictionary.
        let mut dict = AddressDictionary::new();
        let buf = encode_record(&rec, Some(&mut dict));
        let empty = AddressDictionary::new();
        match decode_record(&buf, Some(&empty)) {
            Err(DecodeError::MissingDictEntry(_)) => {}
            other => panic!("expected MissingDictEntry, got {other:?}"),
        }
    }

    #[test]
    fn absurd_tensor_shape_is_rejected_without_allocating() {
        // Hand-craft a record whose observation announces u32::MAX elements.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1); // trace_type
        buf.put_u32_le(0); // length
        buf.put_u32_le(0); // entries
        buf.put_u8(0); // no dict
        buf.put_u8(4); // tensor tag
        buf.put_u32_le(1); // ndim
        buf.put_u32_le(u32::MAX); // 4 billion elements announced
        match decode_record(&buf, None) {
            Err(DecodeError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }

        // A shape whose element product overflows usize must error, not
        // panic (debug) or wrap into a bogus small allocation (release).
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf.put_u8(0);
        buf.put_u8(4); // tensor tag
        buf.put_u32_le(3); // ndim
        for _ in 0..3 {
            buf.put_u32_le(u32::MAX); // (2^32 - 1)^3 overflows 64-bit usize
        }
        match decode_record(&buf, None) {
            Err(DecodeError::Truncated { .. }) => {}
            other => panic!("expected Truncated on overflow, got {other:?}"),
        }
    }
}
