//! Compact trace records for training datasets.
//!
//! The paper's I/O layer (§4.4.3) stores execution traces with "variable
//! sequences of sample objects ... variable length tensors, strings,
//! integers, booleans"; serialization overhead motivated two optimizations
//! we reproduce:
//!
//! * **pruning** — "a 'pruning' function to shrink the data by removing
//!   non-necessary structures": a pruned [`TraceRecord`] (built during the
//!   run by `etalumis_core::RecordBuilder`, or from a held trace by
//!   [`TraceRecord::from_trace`]) keeps only what IC training consumes
//!   (controlled entries + observation), dropping replaced draws, tags, and
//!   per-entry bookkeeping.
//! * **address dictionaries** — "a dictionary of simulator addresses A_t,
//!   which accumulates the fairly long address strings and assigns
//!   shorthand IDs used in serialization" (≈40% memory reduction):
//!   [`AddressDictionary`] + the two encoding modes in [`encode_record`].
//!
//! Record layout (little-endian; `string`, `value` and `dist` are the
//! shared encodings of [`etalumis_distributions::codec`], the same bytes
//! the PPX wire carries):
//!
//! ```text
//! record := u64 trace_type ++ u32 length ++ u32 n ++ u8 dict_flag
//!           ++ n × entry ++ value observation (a tensor)
//! entry  := (u32 address_id | string address) ++ u8 replaced ++ dist ++ value
//! ```

use bytes::BytesMut;
pub use etalumis_core::{RecordEntry, TraceRecord};
pub use etalumis_distributions::codec::DecodeError;
use etalumis_distributions::codec::{put_dist, put_string, put_tensor, put_value, Reader};
use std::collections::HashMap;

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
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.strings.len() as u32).to_le_bytes());
        for s in &self.strings {
            put_string(buf, s);
        }
    }

    /// Deserialize a dictionary encoded by [`AddressDictionary::encode`],
    /// consuming its own bytes and no further (a shard's records follow its
    /// dictionary).
    pub fn decode(r: &mut Reader) -> Result<Self, DecodeError> {
        let mut d = Self::new();
        for _ in 0..r.count(4)? {
            d.intern(r.str()?);
        }
        Ok(d)
    }
}

/// Fewest bytes a record entry takes: a `u32` (a dictionary id or an
/// empty address's length), the replaced flag, an empty `Categorical` and a
/// `Unit` value.
const MIN_ENTRY_LEN: usize = 4 + 1 + (1 + 4) + 1;

/// Encode a record. With `dict = Some(..)`, addresses are stored as u32
/// shorthand ids (the paper's dictionary optimization); otherwise full
/// strings are embedded per entry.
pub fn encode_record(rec: &TraceRecord, dict: Option<&mut AddressDictionary>) -> BytesMut {
    let mut buf = Vec::with_capacity(256);
    put_record(&mut buf, rec, dict);
    BytesMut::from(buf)
}

/// [`encode_record`], appended to `buf`.
pub(crate) fn put_record(
    buf: &mut Vec<u8>,
    rec: &TraceRecord,
    mut dict: Option<&mut AddressDictionary>,
) {
    buf.extend_from_slice(&rec.trace_type.to_le_bytes());
    buf.extend_from_slice(&rec.length.to_le_bytes());
    buf.extend_from_slice(&(rec.entries.len() as u32).to_le_bytes());
    buf.push(dict.is_some() as u8);
    for e in &rec.entries {
        match &mut dict {
            Some(d) => buf.extend_from_slice(&d.intern(&e.address).to_le_bytes()),
            None => put_string(buf, &e.address),
        }
        buf.push(e.replaced as u8);
        put_dist(buf, &e.distribution);
        put_value(buf, &e.value);
    }
    put_tensor(buf, &rec.observation);
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
    let n = r.count(MIN_ENTRY_LEN)?;
    let uses_dict = r.u8()? == 1;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let address = if uses_dict {
            let id = r.u32()?;
            let dict = dict.ok_or(DecodeError::MissingDictionary)?;
            dict.get(id).ok_or(DecodeError::MissingDictEntry(id))?.to_string()
        } else {
            r.string()?
        };
        let replaced = r.u8()? != 0;
        let distribution = r.dist()?;
        let value = r.value()?;
        entries.push(RecordEntry { address, distribution, value, replaced });
    }
    Ok(TraceRecord { trace_type, entries, observation: r.tensor()?, length })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
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
        let mut dbuf = Vec::new();
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
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let d2 = AddressDictionary::decode(&mut Reader::new(&buf)).unwrap();
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
