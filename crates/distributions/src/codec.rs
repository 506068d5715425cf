//! The one binary codec for [`Value`]s and [`Distribution`]s.
//!
//! Both persistent formats of the workspace carry this vocabulary: the PPX
//! messages between controller and simulator (`etalumis_ppx::wire`) and
//! the trace records of the shard files (`etalumis_data::record`). Each
//! frames its own messages or records and encodes every string, value and
//! distribution inside them here, so the two formats share these bytes
//! exactly.
//!
//! Layout (all little-endian):
//!
//! ```text
//! string := u32 len ++ utf8 bytes
//! value  := u8 val_tag ++ body
//!           0 = unit | 1 = bool(u8) | 2 = int(i64) | 3 = real(f64)
//!           4 = tensor(u32 ndim, u32 dims..., f32 data...)
//!           5 = str(string)
//! dist   := u8 dist_tag ++ params, each param an f64 or a
//!           vec<f64> := u32 len ++ f64...
//!           0 = Uniform(low, high) | 1 = Normal(mean, std)
//!           2 = TruncatedNormal(mean, std, low, high)
//!           3 = Exponential(rate) | 4 = Beta(alpha, beta)
//!           5 = Gamma(shape, rate) | 6 = Poisson(rate) | 7 = Bernoulli(p)
//!           8 = Categorical(vec probs)
//!           9 = MixtureTruncatedNormal(vec weights, vec means, vec stds,
//!               low, high)
//!           10 = IndependentNormal(value mean (a tensor), std)
//! ```
//!
//! [`Reader`] decodes. Every read is bounds-checked, and every announced
//! count is checked against the bytes left before anything is allocated
//! for it ([`Reader::count`]), so corrupt input ends in a [`DecodeError`]:
//! never a panic, never an allocation larger than the input. The bytes are
//! pinned by this module's golden test; either format changes only when
//! that test is re-recorded.

use crate::{Distribution, TensorValue, Value};
use std::sync::Arc;

/// Why bytes failed to decode.
///
/// Corrupt input must surface as a value, not a panic: one bad record in a
/// multi-gigabyte dataset aborts a single load call, and one bad frame one
/// PPX session, never the process. The shard layer wraps this with the
/// shard path and file offset of the offending record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the announced structure did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A PPX message or trace entry carried a tag outside the known set.
    UnknownTag(u8),
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
    /// A field that must hold a tensor (an observation, an
    /// `IndependentNormal` mean) held another value.
    NotATensor,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "input truncated: needed {needed} more bytes, had {available}")
            }
            DecodeError::UnknownTag(t) => write!(f, "bad message or entry tag {t}"),
            DecodeError::UnknownValueTag(t) => write!(f, "bad value tag {t}"),
            DecodeError::UnknownDistTag(t) => write!(f, "bad dist tag {t}"),
            DecodeError::BadUtf8 => write!(f, "embedded string is not valid UTF-8"),
            DecodeError::MissingDictEntry(id) => {
                write!(f, "address id {id} not present in the shard dictionary")
            }
            DecodeError::MissingDictionary => {
                write!(f, "record is dictionary-encoded but no dictionary was supplied")
            }
            DecodeError::NotATensor => write!(f, "expected a tensor value"),
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
/// panicking. Every decoder in the workspace that must survive corrupt
/// input reads through it: PPX frames, shard records and journals, and the
/// checkpoint, rank and merged manifests.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Reader over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[cold]
    fn truncated(&self, needed: usize) -> DecodeError {
        DecodeError::Truncated { needed, available: self.buf.len() }
    }

    /// Consume the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        match self.buf.split_at_checked(n) {
            Some((head, rest)) => {
                self.buf = rest;
                Ok(head)
            }
            None => Err(self.truncated(n)),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        match self.buf.split_first_chunk::<N>() {
            Some((head, rest)) => {
                self.buf = rest;
                Ok(*head)
            }
            None => Err(self.truncated(N)),
        }
    }

    /// Consume `n` elements of `N` bytes each.
    #[inline]
    fn chunks<const N: usize>(&mut self, n: usize) -> Result<&'a [[u8; N]], DecodeError> {
        Ok(self.take(n.saturating_mul(N))?.as_chunks().0)
    }

    /// Consume one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Consume a `string`.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        self.str().map(str::to_owned)
    }

    /// Consume a `string`, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Consume a `u32` element count, refused unless that many
    /// `elem_size`-byte elements fit in the bytes left: a corrupt count can
    /// never drive an allocation larger than the input.
    #[inline]
    pub fn count(&mut self, elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()?;
        self.fits(u64::from(n), elem_size)
    }

    /// [`Reader::count`] for a `u64` count.
    #[inline]
    pub fn count_u64(&mut self, elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        self.fits(n, elem_size)
    }

    #[inline]
    fn fits(&self, n: u64, elem_size: usize) -> Result<usize, DecodeError> {
        if n > (self.buf.len() / elem_size) as u64 {
            return Err(self.truncated((n as usize).saturating_mul(elem_size)));
        }
        Ok(n as usize)
    }

    /// Consume a `vec<f64>`.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count(8)?;
        Ok(self.chunks(n)?.iter().map(|&b| f64::from_le_bytes(b)).collect())
    }

    /// Consume a `value`.
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        Ok(match self.u8()? {
            0 => Value::Unit,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Real(self.f64()?),
            4 => {
                let ndim = self.count(4)?;
                let shape: Vec<usize> =
                    self.chunks(ndim)?.iter().map(|&d| u32::from_le_bytes(d) as usize).collect();
                // A corrupt shape can announce an absurd element count, or
                // one that overflows usize: bound it by the bytes left.
                let n = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
                let n = self.fits(n.map_or(u64::MAX, |n| n as u64), 4)?;
                let data = self.chunks(n)?.iter().map(|&x| f32::from_le_bytes(x)).collect();
                TensorValue::new(shape, data).into()
            }
            5 => Value::Str(self.string()?),
            t => return Err(DecodeError::UnknownValueTag(t)),
        })
    }

    /// Consume a `value` that must be a tensor.
    pub fn tensor(&mut self) -> Result<TensorValue, DecodeError> {
        match self.value()? {
            Value::Tensor(t) => Ok(Arc::unwrap_or_clone(t)),
            _ => Err(DecodeError::NotATensor),
        }
    }

    /// Consume a `dist`.
    pub fn dist(&mut self) -> Result<Distribution, DecodeError> {
        Ok(match self.u8()? {
            0 => Distribution::Uniform { low: self.f64()?, high: self.f64()? },
            1 => Distribution::Normal { mean: self.f64()?, std: self.f64()? },
            2 => Distribution::TruncatedNormal {
                mean: self.f64()?,
                std: self.f64()?,
                low: self.f64()?,
                high: self.f64()?,
            },
            3 => Distribution::Exponential { rate: self.f64()? },
            4 => Distribution::Beta { alpha: self.f64()?, beta: self.f64()? },
            5 => Distribution::Gamma { shape: self.f64()?, rate: self.f64()? },
            6 => Distribution::Poisson { rate: self.f64()? },
            7 => Distribution::Bernoulli { p: self.f64()? },
            8 => Distribution::Categorical { probs: self.f64_vec()? },
            9 => Distribution::MixtureTruncatedNormal {
                weights: self.f64_vec()?,
                means: self.f64_vec()?,
                stds: self.f64_vec()?,
                low: self.f64()?,
                high: self.f64()?,
            },
            10 => Distribution::IndependentNormal { mean: self.tensor()?, std: self.f64()? },
            t => return Err(DecodeError::UnknownDistTag(t)),
        })
    }
}

/// Append a `string`.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Append a `value`.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Unit => buf.push(0),
        Value::Bool(b) => buf.extend_from_slice(&[1, *b as u8]),
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(x) => put_params(buf, 3, &[*x]),
        Value::Tensor(t) => put_tensor(buf, t),
        Value::Str(s) => {
            buf.push(5);
            put_string(buf, s);
        }
    }
}

/// Append the tensor `value` (tag included) of a borrowed tensor.
pub fn put_tensor(buf: &mut Vec<u8>, t: &TensorValue) {
    buf.reserve(1 + 4 * (1 + t.shape.len() + t.data.len()));
    buf.push(4);
    buf.extend_from_slice(&(t.shape.len() as u32).to_le_bytes());
    for &d in &t.shape {
        buf.extend_from_slice(&(d as u32).to_le_bytes());
    }
    // Through a stack block rather than one append per element: the
    // per-element append is most of the cost of a trace's voxel tensors.
    let mut block = [0u8; 256];
    for xs in t.data.chunks(block.len() / 4) {
        for (dst, x) in block.chunks_exact_mut(4).zip(xs) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        buf.extend_from_slice(&block[..4 * xs.len()]);
    }
}

/// Append a `dist`.
pub fn put_dist(buf: &mut Vec<u8>, d: &Distribution) {
    match d {
        Distribution::Uniform { low, high } => put_params(buf, 0, &[*low, *high]),
        Distribution::Normal { mean, std } => put_params(buf, 1, &[*mean, *std]),
        Distribution::TruncatedNormal { mean, std, low, high } => {
            put_params(buf, 2, &[*mean, *std, *low, *high])
        }
        Distribution::Exponential { rate } => put_params(buf, 3, &[*rate]),
        Distribution::Beta { alpha, beta } => put_params(buf, 4, &[*alpha, *beta]),
        Distribution::Gamma { shape, rate } => put_params(buf, 5, &[*shape, *rate]),
        Distribution::Poisson { rate } => put_params(buf, 6, &[*rate]),
        Distribution::Bernoulli { p } => put_params(buf, 7, &[*p]),
        Distribution::Categorical { probs } => {
            buf.push(8);
            put_f64_vec(buf, probs);
        }
        Distribution::MixtureTruncatedNormal { weights, means, stds, low, high } => {
            buf.push(9);
            put_f64_vec(buf, weights);
            put_f64_vec(buf, means);
            put_f64_vec(buf, stds);
            put_f64s(buf, &[*low, *high]);
        }
        Distribution::IndependentNormal { mean, std } => {
            buf.push(10);
            put_tensor(buf, mean);
            put_f64s(buf, &[*std]);
        }
    }
}

/// A tag byte followed by `f64` parameters.
fn put_params(buf: &mut Vec<u8>, tag: u8, xs: &[f64]) {
    buf.push(tag);
    put_f64s(buf, xs);
}

fn put_f64_vec(buf: &mut Vec<u8>, xs: &[f64]) {
    buf.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    put_f64s(buf, xs);
}

fn put_f64s(buf: &mut Vec<u8>, xs: &[f64]) {
    for x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// The single-site corruptions every decoder in the workspace is fuzzed
/// with: each bit of `bytes` flipped, each byte complemented, and each
/// 4-byte window (where counts and lengths live) overwritten with 0,
/// `0x8000_0000` and `u32::MAX`. Yields the offset of the first changed
/// byte with the corrupted copy.
pub fn mutants(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    let masks = [1u8, 2, 4, 8, 16, 32, 64, 128, 0xff];
    let flips = (0..bytes.len()).flat_map(move |at| {
        masks.map(|mask| {
            let mut m = bytes.to_vec();
            m[at] ^= mask;
            (at, m)
        })
    });
    let windows = (0..bytes.len().saturating_sub(3)).flat_map(move |at| {
        [0u32, 0x8000_0000, u32::MAX].map(|word| {
            let mut m = bytes.to_vec();
            m[at..at + 4].copy_from_slice(&word.to_le_bytes());
            (at, m)
        })
    });
    flips.chain(windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode through `put`, compare with `golden`, and decode `golden`
    /// back through `get` to exactly the value, with no byte left over.
    fn pin<T: PartialEq + std::fmt::Debug>(
        x: &T,
        golden: &[u8],
        put: fn(&mut Vec<u8>, &T),
        get: fn(&mut Reader) -> Result<T, DecodeError>,
    ) {
        let mut buf = Vec::new();
        put(&mut buf, x);
        assert_eq!(buf, golden, "encoding of {x:?}");
        let mut r = Reader::new(golden);
        assert_eq!(&get(&mut r).unwrap(), x);
        assert_eq!(r.remaining(), 0, "bytes left after {x:?}");
    }

    /// One value per `Value` tag and one distribution per `Distribution`
    /// tag, pinned to the bytes of the layout in the module doc. These
    /// bytes are the PPX wire format and the shard format alike: a change
    /// here is a format change of both.
    #[test]
    fn golden_bytes() {
        let tensor = |shape, data| TensorValue::new(shape, data);
        let values: [(Value, &[u8]); 6] = [
            (Value::Unit, b"\x00"),
            (Value::Bool(true), b"\x01\x01"),
            (Value::Int(-2), b"\x02\xfe\xff\xff\xff\xff\xff\xff\xff"),
            (Value::Real(1.0), b"\x03\x00\x00\x00\x00\x00\x00\xf0\x3f"),
            (
                tensor(vec![2], vec![1.0, -2.0]).into(),
                b"\x04\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x80\x3f\x00\x00\x00\xc0",
            ),
            (Value::Str("ab".into()), b"\x05\x02\x00\x00\x00ab"),
        ];
        for (v, golden) in &values {
            pin(v, golden, put_value, |r| r.value());
        }
        let dists: [(Distribution, &[u8]); 11] = [
            (
                Distribution::Uniform { low: -2.0, high: 1.0 },
                b"\x00\x00\x00\x00\x00\x00\x00\x00\xc0\x00\x00\x00\x00\x00\x00\xf0\x3f",
            ),
            (
                Distribution::Normal { mean: 1.0, std: 0.5 },
                b"\x01\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\xe0\x3f",
            ),
            (
                Distribution::TruncatedNormal { mean: 1.0, std: 0.5, low: -2.0, high: 1.0 },
                b"\x02\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\xe0\x3f\
                  \x00\x00\x00\x00\x00\x00\x00\xc0\x00\x00\x00\x00\x00\x00\xf0\x3f",
            ),
            (Distribution::Exponential { rate: 0.5 }, b"\x03\x00\x00\x00\x00\x00\x00\xe0\x3f"),
            (
                Distribution::Beta { alpha: 1.0, beta: 0.5 },
                b"\x04\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\xe0\x3f",
            ),
            (
                Distribution::Gamma { shape: 0.5, rate: 1.0 },
                b"\x05\x00\x00\x00\x00\x00\x00\xe0\x3f\x00\x00\x00\x00\x00\x00\xf0\x3f",
            ),
            (Distribution::Poisson { rate: 1.0 }, b"\x06\x00\x00\x00\x00\x00\x00\xf0\x3f"),
            (Distribution::Bernoulli { p: 0.5 }, b"\x07\x00\x00\x00\x00\x00\x00\xe0\x3f"),
            (
                Distribution::Categorical { probs: vec![0.5, 0.5] },
                b"\x08\x02\x00\x00\x00\
                  \x00\x00\x00\x00\x00\x00\xe0\x3f\x00\x00\x00\x00\x00\x00\xe0\x3f",
            ),
            (
                Distribution::MixtureTruncatedNormal {
                    weights: vec![1.0],
                    means: vec![-2.0],
                    stds: vec![0.5],
                    low: -2.0,
                    high: 1.0,
                },
                b"\x09\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0\x3f\
                  \x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xc0\
                  \x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\xe0\x3f\
                  \x00\x00\x00\x00\x00\x00\x00\xc0\x00\x00\x00\x00\x00\x00\xf0\x3f",
            ),
            (
                Distribution::IndependentNormal { mean: tensor(vec![1], vec![1.0]), std: 0.5 },
                b"\x0a\x04\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x80\x3f\
                  \x00\x00\x00\x00\x00\x00\xe0\x3f",
            ),
        ];
        for (d, golden) in &dists {
            pin(d, golden, put_dist, |r| r.dist());
        }
    }

    #[test]
    fn counts_beyond_the_input_are_refused_before_allocating() {
        // u32::MAX eight-byte elements announced in a 7-byte input.
        let mut r = Reader::new(b"\xff\xff\xff\xff\x00\x00\x00");
        assert_eq!(
            r.count(8),
            Err(DecodeError::Truncated { needed: 8 * u32::MAX as usize, available: 3 })
        );
        let mut r = Reader::new(&[0xff; 8]);
        assert!(matches!(r.count_u64(1), Err(DecodeError::Truncated { .. })));
        // Exactly as many as fit is accepted.
        let mut r = Reader::new(b"\x02\x00\x00\x00\x00\x00\x00\x00");
        assert_eq!(r.count(2), Ok(2));
    }

    #[test]
    fn a_non_tensor_mean_and_unknown_tags_are_typed_errors() {
        let mut r = Reader::new(b"\x0a\x03\x00\x00\x00\x00\x00\x00\xf0\x3f");
        assert_eq!(r.dist(), Err(DecodeError::NotATensor));
        assert_eq!(Reader::new(b"\x0b").dist(), Err(DecodeError::UnknownDistTag(11)));
        assert_eq!(Reader::new(b"\x06").value(), Err(DecodeError::UnknownValueTag(6)));
        assert_eq!(Reader::new(b"\x05\x01\x00\x00\x00\xff").value(), Err(DecodeError::BadUtf8));
    }
}
