//! Sharded on-disk trace storage with random-access indexes.
//!
//! The paper stores 15M traces in files of 100k traces each, after grouping
//! "the small trace files into larger files, going from 750 files with 20k
//! traces per file to 150 files with 100k traces per file", which together
//! with sorting turned random small reads into large sequential ones — a
//! 10× I/O speedup (§4.4.3). This module provides the shard format, both
//! access patterns (sequential scan vs per-record random access), and the
//! regrouping operation.
//!
//! Shard layout (little endian):
//!
//! ```text
//! "ETLM" | u32 version | u8 dict_flag
//! [dictionary]            (when dict_flag = 1)
//! u32 n_records
//! records: (u32 len | bytes)*
//! index:   (u64 offset | u64 trace_type | u32 n_controlled) * n
//! footer:  u64 index_offset
//! ```
//!
//! Each record is a [`crate::record`] encoding, whose values and
//! distributions are the shared bytes of [`etalumis_distributions::codec`].
//! A durable writer's journal (`*.partial`) holds the same `(u32 len |
//! bytes)*` records, without dictionary ids; [`read_journal`] decodes it.
//!
//! This is version 2. Each index entry holds a record's absolute file offset
//! and the two fields dataset-level planning needs (trace type and
//! controlled length), so [`crate::TraceDataset::open`] reads indexes only
//! and decodes no record. Version-1 shards (offset-only index) are rejected.

use crate::record::{
    decode_record, encode_record, put_record, AddressDictionary, DecodeError, TraceRecord,
};
use etalumis_distributions::codec::Reader;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"ETLM";
const VERSION: u32 = 2;
/// Bytes per index entry: `u64 offset | u64 trace_type | u32 n_controlled`.
const INDEX_ENTRY: usize = 20;

/// Extension of the append-only journal backing a durable writer's
/// in-progress shard (see [`RollingShardWriter::durable`]).
pub const PARTIAL_EXT: &str = "partial";

/// File name of a checkpointed run's manifest inside its dataset directory.
///
/// The manifest itself is owned by `etalumis-runtime`'s checkpoint layer,
/// but the *name* lives here because the data layer must recognize it too:
/// a rank directory still holding one is an unfinished run the merge must
/// refuse.
pub const CHECKPOINT_MANIFEST_NAME: &str = "checkpoint.etck";

/// Atomically publish `bytes` as `dir/name`: write to a `.tmp` sibling,
/// fsync, rename into place, then best-effort fsync the directory. A crash
/// at any point leaves either the previous file or the new one — never a
/// torn one. The shared discipline behind every manifest in the workspace
/// (checkpoint, rank, merged).
pub fn atomic_save(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, dir.join(name))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Shard-file prefix of a trace-type partition (`part{p:02}`) — the single
/// naming rule shared by the runtime's sharded sinks, the checkpointed
/// writers, and the cross-process merge in [`crate::merge`].
pub fn partition_prefix(partition: usize) -> String {
    format!("part{partition:02}")
}

/// Shard-file prefix of the healed records a checkpointed run's repair pass
/// writes after its partitions (`repair_{seq:05}.etlm`).
pub const REPAIR_PREFIX: &str = "repair";

/// `dir/{prefix}_{seq:05}.etlm`: shard `seq` of a rolling shard stream. Every
/// writer, resume, replay and merge names shard files through this function.
pub fn shard_path(dir: &Path, prefix: &str, seq: usize) -> PathBuf {
    dir.join(format!("{prefix}_{seq:05}.etlm"))
}

/// `dir/{prefix}_{seq:05}.partial`: the durable journal of the in-progress
/// shard `seq` (see [`RollingShardWriter::durable`]).
pub fn journal_path(dir: &Path, prefix: &str, seq: usize) -> PathBuf {
    dir.join(format!("{prefix}_{seq:05}.{PARTIAL_EXT}"))
}

/// The `(prefix, seq)` of a shard file name written by [`shard_path`], or
/// `None` for any other name.
pub fn parse_shard_name(name: &str) -> Option<(&str, usize)> {
    let (prefix, seq) = name.strip_suffix(".etlm")?.rsplit_once('_')?;
    Some((prefix, seq.parse().ok()?))
}

/// The partition a trace type hashes to — the single placement rule shared
/// by the runtime's sharded sinks and the cross-process merge. Per-trace
/// seeding makes record *content* placement-invariant; this function makes
/// record *location* placement-invariant too.
pub fn partition_of(trace_type: u64, partitions: usize) -> usize {
    (trace_type % partitions.max(1) as u64) as usize
}

/// Error unless `dir` holds no `*.partial` journals.
///
/// A `*.partial` file is the durable journal of an in-progress checkpointed
/// run; finding one in a directory about to receive sorted/regrouped/merged
/// output means either an unfinished run still owns the directory or a
/// crashed one was never resumed. Writing fresh shards next to it would mix
/// two generations of data, so offline rewriters refuse instead.
pub fn deny_stale_partials(dir: &Path) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().map(|x| x == PARTIAL_EXT).unwrap_or(false) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "output dir {} contains a stale shard journal {} — an unfinished \
                     checkpointed run owns this directory (resume or remove it first)",
                    dir.display(),
                    path.display()
                ),
            ));
        }
    }
    Ok(())
}

/// Remove `{prefix}_{seq:05}.etlm` files with `seq >= kept`, plus any
/// `{prefix}_*.etlm.tmp` leftovers of a crashed atomic write.
///
/// Rewriters that overwrite a directory in place (sort, regroup, merge)
/// rename each new shard into position atomically, which replaces same-named
/// files but cannot retract a *longer* previous generation: if the last run
/// wrote 5 shards and this run writes 3, shards 3–4 would survive as stale
/// data a later directory scan could pick up. Calling this after `finish`
/// closes that hole.
pub fn remove_stale_rolls(dir: &Path, prefix: &str, kept: usize) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let stale = match name.strip_suffix(".tmp") {
            Some(tmp) => parse_shard_name(tmp).is_some_and(|(p, _)| p == prefix),
            None => parse_shard_name(name).is_some_and(|(p, seq)| p == prefix && seq >= kept),
        };
        if stale {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Wrap a [`DecodeError`] with the shard file and byte offset it was hit at,
/// so a corrupt record in a multi-shard dataset is locatable.
fn decode_err(path: &Path, offset: u64, e: DecodeError) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("corrupt record in shard {} at offset {offset}: {e}", path.display()),
    )
}

/// Writes one shard file.
pub struct ShardWriter {
    path: PathBuf,
    records: Vec<TraceRecord>,
    use_dict: bool,
}

impl ShardWriter {
    /// New shard at `path`; `use_dict` enables address-dictionary encoding.
    pub fn new(path: impl AsRef<Path>, use_dict: bool) -> Self {
        Self { path: path.as_ref().to_path_buf(), records: Vec::new(), use_dict }
    }

    /// Queue a record.
    pub fn push(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }

    /// Number of queued records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Write the shard to disk, creating its directory if needed; returns
    /// the file size in bytes.
    ///
    /// The file is written to a temporary sibling and renamed into place, so
    /// a crash mid-write never leaves a truncated `.etlm` behind: a shard
    /// path either does not exist or holds a complete shard.
    pub fn finish(self) -> std::io::Result<u64> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = self.path.with_extension("etlm.tmp");
        let file = File::create(&tmp)?;
        let mut w = BufWriter::with_capacity(WRITE_BUF, file);
        // The dictionary precedes the records: assign every id first (in
        // record order, as encoding would), then encode each record into one
        // reused buffer on its way out.
        let mut dict = self.use_dict.then(AddressDictionary::new);
        if let Some(d) = &mut dict {
            for e in self.records.iter().flat_map(|r| &r.entries) {
                d.intern(&e.address);
            }
        }
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(self.use_dict as u8);
        if let Some(d) = &dict {
            d.encode(&mut buf);
        }
        buf.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        w.write_all(&buf)?;
        let mut offsets = Vec::with_capacity(self.records.len());
        let mut pos = buf.len() as u64;
        for r in &self.records {
            // `u32 len | record`, the length patched in once known.
            buf.clear();
            buf.extend_from_slice(&[0; 4]);
            put_record(&mut buf, r, dict.as_mut());
            let len = (buf.len() - 4) as u32;
            buf[..4].copy_from_slice(&len.to_le_bytes());
            w.write_all(&buf)?;
            offsets.push(pos);
            pos += buf.len() as u64;
        }
        let index_offset = pos;
        for (off, rec) in offsets.iter().zip(&self.records) {
            w.write_all(&off.to_le_bytes())?;
            w.write_all(&rec.trace_type.to_le_bytes())?;
            w.write_all(&(rec.num_controlled() as u32).to_le_bytes())?;
        }
        w.write_all(&index_offset.to_le_bytes())?;
        let size = index_offset + (offsets.len() * INDEX_ENTRY) as u64 + 8;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(size)
    }
}

/// The write buffer of [`ShardWriter::finish`]: a τ shard of 200 records
/// (≈ 1.2 MB) goes out in a handful of `write(2)` calls, not one per record,
/// without a second shard-sized copy of the encoded records.
const WRITE_BUF: usize = 256 * 1024;

/// Bytes [`ShardReader::open`] reads first for a shard's header: magic,
/// version, flag, record count and the dictionary of a τ dataset fit.
const HEAD_READ: usize = 8 * 1024;

/// Most bytes one read of consecutive records takes (a larger record is
/// read alone).
const READ_RUN: u64 = 1024 * 1024;

/// Why the first bytes of a shard did not parse as its header.
enum Head {
    /// They end inside it: read more, if the file has more.
    Short(DecodeError),
    /// They never will.
    Bad(std::io::Error),
}

/// `"ETLM" | u32 version | u8 dict_flag | [dictionary] | u32 n_records`
/// from the first bytes of a shard: its dictionary, record count, and the
/// offset of its first record.
fn parse_head(path: &Path, buf: &[u8]) -> Result<(Option<AddressDictionary>, usize, u64), Head> {
    let mut r = Reader::new(buf);
    if r.take(4).map_err(Head::Short)? != MAGIC {
        return Err(Head::Bad(invalid("bad shard magic".into())));
    }
    let version = r.u32().map_err(Head::Short)?;
    if version != VERSION {
        return Err(Head::Bad(invalid(format!(
            "shard {} has format version {version}, expected {VERSION}",
            path.display()
        ))));
    }
    let dict = match r.u8().map_err(Head::Short)? {
        0 => None,
        1 => Some(AddressDictionary::decode(&mut r).map_err(|e| match e {
            DecodeError::Truncated { .. } => Head::Short(e),
            e => Head::Bad(decode_err(path, 9, e)),
        })?),
        f => {
            return Err(Head::Bad(invalid(format!(
                "shard {} has dictionary flag {f}",
                path.display()
            ))))
        }
    };
    let n = r.u32().map_err(Head::Short)? as usize;
    Ok((dict, n, (buf.len() - r.remaining()) as u64))
}

/// Where a shard's records lie and how they decode: what
/// [`ShardReader::open`] parses besides the index metadata. With it, any
/// run of consecutive records is one read and no other parsing, so a
/// dataset keeps one per shard and opens only the file per read.
pub(crate) struct ShardLayout {
    dict: Option<AddressDictionary>,
    /// Each record's offset (of its length prefix), in record order.
    offsets: Vec<u64>,
    /// Where the records end: the index's offset.
    records_end: u64,
}

impl ShardLayout {
    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Where record `i`'s bytes end: the next record's offset, or the
    /// index's.
    fn end(&self, i: usize) -> u64 {
        self.offsets.get(i + 1).copied().unwrap_or(self.records_end)
    }

    /// The longest run of records from `first` to at most `last` (inclusive)
    /// that one read takes: [`READ_RUN`] bytes, or the first record alone.
    pub(crate) fn run_end(&self, first: usize, last: usize) -> usize {
        let start = self.offsets[first];
        (first..=last)
            .take_while(|&i| i == first || self.end(i) <= start + READ_RUN)
            .last()
            .unwrap_or(first)
    }

    /// Read records `first..=last` of the shard at `path` from `file` with
    /// one read, handing each to `out` with its index. A record whose
    /// length prefix runs past its place errors before its buffer is
    /// allocated.
    pub(crate) fn read_run(
        &self,
        path: &Path,
        file: &mut File,
        first: usize,
        last: usize,
        mut out: impl FnMut(usize, TraceRecord),
    ) -> std::io::Result<()> {
        let start = self.offsets[first];
        let end = self.end(last);
        let order = |i: usize| {
            invalid(format!(
                "shard {} index entry {i} is out of order with its neighbours",
                path.display()
            ))
        };
        if end < start {
            return Err(order(last));
        }
        let mut bytes = vec![0u8; (end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(&mut bytes)?;
        for i in first..=last {
            let (off, next) = (self.offsets[i], self.end(i));
            if off < start || next > end || next < off + 4 {
                return Err(order(i));
            }
            let record = &bytes[(off - start) as usize..(next - start) as usize];
            let mut r = Reader::new(record);
            let len = r.u32().map_err(|e| decode_err(path, off, e))? as usize;
            let body = r.take(len).map_err(|e| decode_err(path, off, e))?;
            out(i, decode_record(body, self.dict.as_ref()).map_err(|e| decode_err(path, off, e))?);
        }
        Ok(())
    }
}

/// Reads one shard file with random or sequential access.
pub struct ShardReader {
    path: PathBuf,
    file: File,
    layout: ShardLayout,
    meta: Vec<(u64, u32)>,
}

impl ShardReader {
    /// Open a shard, loading its dictionary and index.
    ///
    /// Two reads in the common case: the first 8 KiB (grown
    /// while the header runs past them), and the index with its footer.
    /// Both are parsed with [`Reader`], bounded by the file length.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut f = File::open(&path)?;
        let file_len = f.metadata()?.len();
        let mut head = Vec::new();
        let (dict, n, data_start) = loop {
            let want = (head.len() * 2).max(HEAD_READ) as u64;
            let read = head.len();
            head.resize(want.min(file_len) as usize, 0);
            f.read_exact(&mut head[read..])?;
            match parse_head(&path, &head) {
                Err(Head::Short(_)) if (head.len() as u64) < file_len => continue,
                Err(Head::Short(e)) => {
                    return Err(invalid(format!("shard {} header is {e}", path.display())))
                }
                Err(Head::Bad(e)) => return Err(e),
                Ok(parsed) => break parsed,
            }
        };
        // A corrupt count could announce billions of records; every record
        // costs at least one index entry, so bound it by the file size before
        // reserving anything.
        if n as u64 > file_len / INDEX_ENTRY as u64 {
            return Err(decode_err(
                &path,
                0,
                DecodeError::Truncated {
                    needed: n.saturating_mul(INDEX_ENTRY),
                    available: file_len as usize,
                },
            ));
        }
        // The index is the `n` entries right before the footer; a footer
        // pointing anywhere else is corrupt. One read takes both.
        let index_len = (n * INDEX_ENTRY) as u64;
        let tail_len = (index_len + 8).min(file_len);
        let mut tail = vec![0u8; tail_len as usize];
        f.seek(SeekFrom::Start(file_len - tail_len))?;
        f.read_exact(&mut tail)?;
        let (index, footer) = tail.split_at(tail.len() - 8);
        let index_offset = Reader::new(footer).u64().map_err(|e| decode_err(&path, 0, e))?;
        if index_offset < data_start || index_offset.checked_add(index_len + 8) != Some(file_len) {
            return Err(invalid(format!(
                "shard {} footer points its {n}-entry index at offset {index_offset} in a \
                 {file_len}-byte file",
                path.display()
            )));
        }
        let mut entries = Reader::new(index);
        let mut offsets = Vec::with_capacity(n);
        let mut meta = Vec::with_capacity(n);
        let entry_err = |e| decode_err(&path, index_offset, e);
        for i in 0..n {
            let off = entries.u64().map_err(entry_err)?;
            // Each offset names a record's length prefix, inside the records.
            if off < data_start || off.saturating_add(4) > index_offset {
                return Err(invalid(format!(
                    "shard {} index entry {i} points at offset {off}, outside the records \
                     ({data_start}..{index_offset})",
                    path.display()
                )));
            }
            offsets.push(off);
            meta.push((entries.u64().map_err(entry_err)?, entries.u32().map_err(entry_err)?));
        }
        let layout = ShardLayout { dict, offsets, records_end: index_offset };
        Ok(Self { path, file: f, layout, meta })
    }

    /// The shard's record layout, without its file handle.
    pub(crate) fn into_layout(self) -> ShardLayout {
        self.layout
    }

    /// The shard file this reader is over.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records in the shard.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// True when the shard holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-record `(trace_type, controlled length)` from the index, in
    /// record order.
    pub fn meta(&self) -> &[(u64, u32)] {
        &self.meta
    }

    /// Random-access read of record `i`: one read of its bytes.
    pub fn get(&mut self, i: usize) -> std::io::Result<TraceRecord> {
        let mut record = None;
        self.layout.read_run(&self.path, &mut self.file, i, i, |_, r| record = Some(r))?;
        record.ok_or_else(|| {
            invalid(format!("shard {} record {i} was not read", self.path.display()))
        })
    }

    /// Sequential scan of all records (reads of up to 1 MiB).
    pub fn read_all(&mut self) -> std::io::Result<Vec<TraceRecord>> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        let mut first = 0;
        while first < n {
            let last = self.layout.run_end(first, n - 1);
            self.layout.read_run(&self.path, &mut self.file, first, last, |_, r| out.push(r))?;
            first = last + 1;
        }
        Ok(out)
    }
}

/// A [`ShardWriter`] that rolls to a fresh file whenever the current shard
/// reaches `capacity` records.
///
/// This is the write-side primitive behind every shard producer in the
/// workspace: the serial dataset generator, the offline sorter, and the
/// runtime's parallel `ShardedTraceSink` all push records here and let the
/// roller decide file boundaries.
pub struct RollingShardWriter {
    dir: PathBuf,
    prefix: String,
    capacity: usize,
    use_dict: bool,
    seq: usize,
    current: Option<(PathBuf, ShardWriter)>,
    /// Paths of shards fully written to disk; `current` joins only once its
    /// own `finish` succeeds, so callers never receive a truncated shard.
    /// A shard handed out by [`RollingShardWriter::push_take_full`] joins
    /// when it is taken: its caller owns writing it.
    finished: Vec<PathBuf>,
    /// Durable mode: the append-only journal backing the in-progress shard
    /// (see [`RollingShardWriter::durable`]). `None` in plain mode or before
    /// the first push.
    journal: Option<Journal>,
    durable: bool,
    /// Journals of shards that have since been finished. They are *not*
    /// deleted at roll time: a checkpoint manifest written before the roll
    /// still references them, so the owner deletes them only after the
    /// superseding manifest is durably on disk
    /// ([`RollingShardWriter::take_obsolete_journals`]).
    obsolete_journals: Vec<PathBuf>,
}

/// The append-only record log backing a durable writer's in-progress shard.
///
/// Records are written `u32 len | dict-less encoding` the moment they are
/// pushed, so a crash loses at most the bytes the OS had not yet accepted —
/// the finished `.etlm` shard is still produced in one atomic rename when
/// the shard fills.
struct Journal {
    path: PathBuf,
    file: File,
    bytes: u64,
    records: usize,
    /// Appends not yet fsynced (see [`RollingShardWriter::sync_journal`]).
    dirty: bool,
}

impl Journal {
    fn append(&mut self, rec: &TraceRecord) -> std::io::Result<()> {
        let buf = encode_record(rec, None);
        self.file.write_all(&(buf.len() as u32).to_le_bytes())?;
        self.file.write_all(&buf)?;
        self.bytes += 4 + buf.len() as u64;
        self.records += 1;
        self.dirty = true;
        Ok(())
    }
}

/// Durable progress of one [`RollingShardWriter`], as recorded in a
/// checkpoint manifest: everything needed to resume the writer after a
/// crash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriterProgress {
    /// Completed `.etlm` shards on disk (also the sequence number of the
    /// in-progress shard's journal).
    pub finished: usize,
    /// Records committed to the in-progress shard's journal.
    pub partial_records: usize,
    /// Byte length of the committed journal prefix.
    pub partial_bytes: u64,
}

impl RollingShardWriter {
    /// Roll shards named `{prefix}_{seq:05}.etlm` under `dir`, `capacity`
    /// records per file. The directory is created lazily, when the first
    /// shard or journal is written.
    pub fn new(
        dir: impl AsRef<Path>,
        prefix: impl Into<String>,
        capacity: usize,
        use_dict: bool,
    ) -> Self {
        assert!(capacity > 0, "shard capacity must be non-zero");
        Self {
            dir: dir.as_ref().to_path_buf(),
            prefix: prefix.into(),
            capacity,
            use_dict,
            seq: 0,
            current: None,
            finished: Vec::new(),
            journal: None,
            durable: false,
            obsolete_journals: Vec::new(),
        }
    }

    /// Switch the writer to durable mode: every pushed record is also
    /// appended to a `{prefix}_{seq:05}.partial` journal the moment it
    /// arrives, so an in-progress shard survives process death. A crashed
    /// writer is reconstructed with [`RollingShardWriter::resume_durable`]
    /// from the [`WriterProgress`] a checkpoint manifest recorded —
    /// reopening the journal, truncating it to the last committed record,
    /// and replaying it into the in-memory shard buffer.
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Reconstruct a durable writer from checkpointed progress.
    ///
    /// Validates that every finished shard exists, reopens the in-progress
    /// journal, **truncates** it to `progress.partial_bytes` (discarding any
    /// records appended after the manifest was written), and replays the
    /// kept prefix into the shard buffer. Returns `InvalidData` if the disk
    /// state is behind the manifest (missing shard, short journal, corrupt
    /// journal record).
    pub fn resume_durable(
        dir: impl AsRef<Path>,
        prefix: impl Into<String>,
        capacity: usize,
        use_dict: bool,
        progress: WriterProgress,
    ) -> std::io::Result<Self> {
        let mut w = Self::new(dir, prefix, capacity, use_dict).durable();
        for i in 0..progress.finished {
            let p = w.shard_path(i);
            if !p.is_file() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("checkpoint references missing shard {}", p.display()),
                ));
            }
            w.finished.push(p);
        }
        w.seq = progress.finished;
        if progress.partial_records == 0 {
            // Partition untouched since the last roll boundary — fresh state
            // (the journal, if any survived, is superseded; a new one is
            // created on the next push).
            return Ok(w);
        }
        let jpath = w.journal_path(w.seq);
        let file = OpenOptions::new().read(true).write(true).open(&jpath)?;
        let on_disk = file.metadata()?.len();
        if on_disk < progress.partial_bytes {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "journal {} holds {on_disk} bytes but the checkpoint committed {}",
                    jpath.display(),
                    progress.partial_bytes
                ),
            ));
        }
        // Drop everything after the last committed record, then replay.
        file.set_len(progress.partial_bytes)?;
        let records = read_journal(&jpath, progress.partial_bytes)?;
        if records.len() != progress.partial_records {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "journal {} replayed {} records but the checkpoint committed {}",
                    jpath.display(),
                    records.len(),
                    progress.partial_records
                ),
            ));
        }
        let shard_path = w.shard_path(w.seq);
        let mut shard = ShardWriter::new(&shard_path, use_dict);
        for rec in records {
            shard.push(rec);
        }
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        w.journal = Some(Journal {
            path: jpath,
            file,
            bytes: progress.partial_bytes,
            records: progress.partial_records,
            dirty: false,
        });
        w.current = Some((shard_path, shard));
        w.seq += 1;
        Ok(w)
    }

    fn shard_path(&self, seq: usize) -> PathBuf {
        shard_path(&self.dir, &self.prefix, seq)
    }

    fn journal_path(&self, seq: usize) -> PathBuf {
        journal_path(&self.dir, &self.prefix, seq)
    }

    /// Durable progress for a checkpoint manifest (all zeros in plain mode
    /// before any push).
    pub fn progress(&self) -> WriterProgress {
        let (partial_records, partial_bytes) =
            self.journal.as_ref().map(|j| (j.records, j.bytes)).unwrap_or((0, 0));
        WriterProgress { finished: self.finished.len(), partial_records, partial_bytes }
    }

    /// Journals of shards finished since the last call. The owner deletes
    /// them once a checkpoint manifest reflecting the finished shards is
    /// durably on disk — deleting earlier would strand a resume whose
    /// manifest still points into them.
    pub fn take_obsolete_journals(&mut self) -> Vec<PathBuf> {
        std::mem::take(&mut self.obsolete_journals)
    }

    /// Fsync the in-progress journal's appends to disk. A checkpoint
    /// manifest must not reference journal bytes the disk has not
    /// acknowledged — otherwise a machine crash could leave a durable
    /// manifest pointing past the journal's surviving length, making the
    /// run unresumable. No-op when nothing is dirty.
    pub fn sync_journal(&mut self) -> std::io::Result<()> {
        if let Some(j) = self.journal.as_mut() {
            if j.dirty {
                j.file.sync_data()?;
                j.dirty = false;
            }
        }
        Ok(())
    }

    /// Append one record, rolling to a new shard file when full.
    pub fn push(&mut self, rec: TraceRecord) -> std::io::Result<()> {
        if self.current.as_ref().map(|(_, w)| w.len() >= self.capacity).unwrap_or(true) {
            self.roll()?;
        }
        if let Some(j) = self.journal.as_mut() {
            j.append(&rec)?;
        }
        // `roll` just guaranteed an open shard; if it is somehow gone the
        // push must fail as I/O, not panic a worker thread mid-batch.
        match self.current.as_mut() {
            Some((_, w)) => w.push(rec),
            None => {
                return Err(std::io::Error::other(
                    "rolling shard writer has no open shard after roll",
                ))
            }
        }
        Ok(())
    }

    /// Plain mode: append one record and, when that fills the shard, take
    /// the full shard out and return it for the caller to write with
    /// [`ShardWriter::finish`]. Its sequence number is assigned here and its
    /// path already counts as finished, so [`RollingShardWriter::finish`]
    /// lists shards in roll order however their writes interleave; the
    /// caller must write it (or surface the error) before trusting that
    /// list. This lets a writer shared behind a lock do only in-memory work
    /// while the lock is held. No file I/O happens here.
    ///
    /// Durable writers must use [`RollingShardWriter::push`]: their journal
    /// rolls with the shard, inline.
    pub fn push_take_full(&mut self, rec: TraceRecord) -> std::io::Result<Option<ShardWriter>> {
        if self.durable {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a durable shard writer rolls inline; use push",
            ));
        }
        let (path, mut shard) = match self.current.take() {
            Some(open) => open,
            None => {
                let path = self.shard_path(self.seq);
                self.seq += 1;
                (path.clone(), ShardWriter::new(path, self.use_dict))
            }
        };
        shard.push(rec);
        if shard.len() < self.capacity {
            self.current = Some((path, shard));
            return Ok(None);
        }
        self.finished.push(path);
        Ok(Some(shard))
    }

    /// Total records pushed so far (every finished shard is exactly full).
    pub fn len(&self) -> usize {
        self.finished.len() * self.capacity
            + self.current.as_ref().map(|(_, w)| w.len()).unwrap_or(0)
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.finished.is_empty() && self.current.as_ref().map(|(_, w)| w.is_empty()).unwrap_or(true)
    }

    /// Write the in-progress shard to disk (if it holds records) and record
    /// its path as finished. In durable mode the backing journal becomes
    /// obsolete but stays on disk until the owner collects it.
    fn flush_current(&mut self) -> std::io::Result<()> {
        if let Some((path, w)) = self.current.take() {
            if !w.is_empty() {
                w.finish()?;
                self.finished.push(path);
            }
        }
        if let Some(j) = self.journal.take() {
            self.obsolete_journals.push(j.path);
        }
        Ok(())
    }

    fn roll(&mut self) -> std::io::Result<()> {
        self.flush_current()?;
        let path = self.shard_path(self.seq);
        if self.durable {
            std::fs::create_dir_all(&self.dir)?; // etalumis: allow(reactor-blocking, reason = "shard roll is the sink's durable-write contract; the reactor path accepts amortized roll I/O by design")
            let jpath = self.journal_path(self.seq);
            // `create` truncates any stale leftover from a previous life.
            let file = File::create(&jpath)?; // etalumis: allow(reactor-blocking, reason = "journal creation rides the same amortized roll budget as the shard itself")
            self.journal = Some(Journal { path: jpath, file, bytes: 0, records: 0, dirty: false });
        }
        self.current = Some((path.clone(), ShardWriter::new(path, self.use_dict)));
        self.seq += 1;
        Ok(())
    }

    /// Flush the last shard; returns all shard paths written, in order.
    /// In durable mode every journal (current and obsolete) is removed —
    /// the run is complete, nothing remains to resume.
    pub fn finish(self) -> std::io::Result<Vec<PathBuf>> {
        let (shards, journals) = self.finish_keeping_journals()?;
        for j in journals {
            let _ = std::fs::remove_file(j);
        }
        Ok(shards)
    }

    /// Flush the last shard but leave every journal on disk, returning
    /// `(shard paths, journal paths)`. Checkpointed runs use this so the
    /// journals outlive the manifest that references them: the caller
    /// deletes the manifest first, then the journals — a crash in between
    /// stays resumable (or degrades to a clean fresh start), never an
    /// unresumable manifest pointing at deleted journals.
    pub fn finish_keeping_journals(mut self) -> std::io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
        self.flush_current()?;
        let journals = std::mem::take(&mut self.obsolete_journals);
        Ok((self.finished, journals))
    }
}

/// Decode the committed prefix of a shard journal (see
/// [`RollingShardWriter::durable`]): `u32 len | dict-less record` repeated.
/// `committed` bounds the bytes read; the file may legally be longer (the
/// tail past the last checkpoint is discarded by resume), but not shorter.
pub fn read_journal(path: &Path, committed: u64) -> std::io::Result<Vec<TraceRecord>> {
    let mut f = File::open(path)?;
    let file_len = f.metadata()?.len();
    // `committed` comes from a manifest: bound it by the file before
    // allocating for it.
    let len = match usize::try_from(committed) {
        Ok(len) if committed <= file_len => len,
        _ => {
            return Err(invalid(format!(
                "journal {} holds {file_len} bytes, fewer than the {committed} committed",
                path.display()
            )))
        }
    };
    let mut buf = vec![0u8; len];
    f.read_exact(&mut buf)?;
    let mut r = Reader::new(&buf);
    let mut records = Vec::new();
    while r.remaining() > 0 {
        let off = (buf.len() - r.remaining()) as u64;
        let rec = r.u32().and_then(|len| r.take(len as usize)).and_then(|b| decode_record(b, None));
        records.push(rec.map_err(|e| decode_err(path, off, e))?);
    }
    Ok(records)
}

/// Regroup shards into `group_size`-record shards (the 20k→100k grouping).
/// Returns the new shard paths.
///
/// Crash-safe: every output shard is renamed into place atomically
/// ([`ShardWriter::finish`]), the output dir is rejected if an unfinished
/// checkpointed run's `*.partial` journals sit in it, and stale shards of a
/// longer previous regroup are removed once the new set is complete.
pub fn regroup_shards(
    inputs: &[PathBuf],
    out_dir: &Path,
    group_size: usize,
    use_dict: bool,
) -> std::io::Result<Vec<PathBuf>> {
    deny_stale_partials(out_dir)?;
    let mut writer = RollingShardWriter::new(out_dir, "shard", group_size, use_dict);
    for p in inputs {
        let mut r = ShardReader::open(p)?;
        for rec in r.read_all()? {
            writer.push(rec)?;
        }
    }
    let paths = writer.finish()?;
    remove_stale_rolls(out_dir, "shard", paths.len())?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::Executor;
    use etalumis_simulators::BranchingModel;

    #[test]
    fn shard_names_round_trip_through_the_path_helpers() {
        let dir = Path::new("d");
        assert_eq!(shard_path(dir, &partition_prefix(3), 12), dir.join("part03_00012.etlm"));
        assert_eq!(journal_path(dir, REPAIR_PREFIX, 0), dir.join("repair_00000.partial"));
        assert_eq!(parse_shard_name("part03_00012.etlm"), Some(("part03", 12)));
        assert_eq!(parse_shard_name("repair_00001.etlm"), Some((REPAIR_PREFIX, 1)));
        assert_eq!(parse_shard_name("part03_00012.partial"), None);
        assert_eq!(parse_shard_name("checkpoint.etck"), None);
    }

    fn make_records(n: usize) -> Vec<TraceRecord> {
        let mut m = BranchingModel::standard();
        (0..n)
            .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s as u64), true))
            .collect()
    }

    #[test]
    fn shard_roundtrip_sequential_and_random() {
        let dir = std::env::temp_dir().join("etalumis_shard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t1.etlm");
        let recs = make_records(25);
        let mut w = ShardWriter::new(&path, true);
        for r in &recs {
            w.push(r.clone());
        }
        let size = w.finish().unwrap();
        assert!(size > 0);
        let mut r = ShardReader::open(&path).unwrap();
        assert_eq!(r.len(), 25);
        let seq = r.read_all().unwrap();
        assert_eq!(seq, recs);
        // Random access in arbitrary order.
        for &i in &[7usize, 0, 24, 3] {
            assert_eq!(r.get(i).unwrap(), recs[i]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_roundtrip_without_dict() {
        let dir = std::env::temp_dir().join("etalumis_shard_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t2.etlm");
        let recs = make_records(5);
        let mut w = ShardWriter::new(&path, false);
        for r in &recs {
            w.push(r.clone());
        }
        w.finish().unwrap();
        let mut r = ShardReader::open(&path).unwrap();
        assert_eq!(r.read_all().unwrap(), recs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn regrouping_preserves_records() {
        let dir = std::env::temp_dir().join(format!("etalumis_regroup_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recs = make_records(30);
        // 6 small shards of 5.
        let mut inputs = Vec::new();
        for (i, chunk) in recs.chunks(5).enumerate() {
            let p = dir.join(format!("small_{i}.etlm"));
            let mut w = ShardWriter::new(&p, true);
            for r in chunk {
                w.push(r.clone());
            }
            w.finish().unwrap();
            inputs.push(p);
        }
        // Regroup into shards of 12.
        let out = regroup_shards(&inputs, &dir.join("big"), 12, true).unwrap();
        assert_eq!(out.len(), 3); // 12 + 12 + 6
        let mut all = Vec::new();
        for p in &out {
            all.extend(ShardReader::open(p).unwrap().read_all().unwrap());
        }
        assert_eq!(all, recs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolling_writer_rolls_and_preserves_records() {
        let dir = std::env::temp_dir().join(format!("etalumis_roll_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recs = make_records(23);
        let mut w = RollingShardWriter::new(&dir, "roll", 10, true);
        assert!(w.is_empty());
        for r in &recs {
            w.push(r.clone()).unwrap();
        }
        assert_eq!(w.len(), 23);
        let paths = w.finish().unwrap();
        assert_eq!(paths.len(), 3); // 10 + 10 + 3
        let mut all = Vec::new();
        for p in &paths {
            all.extend(ShardReader::open(p).unwrap().read_all().unwrap());
        }
        assert_eq!(all, recs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn taken_shards_keep_roll_order_when_written_out_of_order() {
        let dir = std::env::temp_dir().join(format!("etalumis_take_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recs = make_records(9);
        let mut w = RollingShardWriter::new(&dir, "t", 4, true);
        let mut taken = Vec::new();
        for r in &recs {
            taken.extend(w.push_take_full(r.clone()).unwrap());
        }
        assert_eq!((taken.len(), w.len()), (2, 9));
        // Shard 1 lands before shard 0; the list still follows roll order.
        for shard in taken.into_iter().rev() {
            shard.finish().unwrap();
        }
        let paths = w.finish().unwrap();
        assert_eq!(paths, (0..3).map(|seq| shard_path(&dir, "t", seq)).collect::<Vec<_>>());
        let mut all = Vec::new();
        for p in &paths {
            all.extend(ShardReader::open(p).unwrap().read_all().unwrap());
        }
        assert_eq!(all, recs);
        // A durable writer's journal rolls with its shard: it refuses.
        let mut d = RollingShardWriter::new(dir.join("d"), "d", 4, true).durable();
        let err = d.push_take_full(recs[0].clone()).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolling_writer_empty_finish_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("etalumis_roll_empty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = RollingShardWriter::new(&dir, "roll", 4, false);
        assert_eq!(w.finish().unwrap(), Vec::<PathBuf>::new());
        assert!(!dir.exists());
    }

    #[test]
    fn durable_writer_resumes_from_truncated_journal() {
        let dir = std::env::temp_dir().join(format!("etalumis_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recs = make_records(23);

        // Reference: an uninterrupted durable run over all 23 records.
        let ref_dir = dir.join("ref");
        let mut w = RollingShardWriter::new(&ref_dir, "d", 10, true).durable();
        for r in &recs {
            w.push(r.clone()).unwrap();
        }
        let ref_paths = w.finish().unwrap();
        assert_eq!(ref_paths.len(), 3);
        // finish() removed every journal.
        assert!(std::fs::read_dir(&ref_dir).unwrap().all(|e| e
            .unwrap()
            .path()
            .extension()
            .unwrap()
            == "etlm"));

        // Crashing run: push 17 records, checkpoint the progress after 14,
        // then "die" (drop nothing — just abandon the writer state).
        let crash_dir = dir.join("crash");
        let mut w = RollingShardWriter::new(&crash_dir, "d", 10, true).durable();
        let mut progress_at_14 = WriterProgress::default();
        for (i, r) in recs.iter().take(17).enumerate() {
            w.push(r.clone()).unwrap();
            if i + 1 == 14 {
                progress_at_14 = w.progress();
            }
        }
        assert_eq!(progress_at_14.finished, 1);
        assert_eq!(progress_at_14.partial_records, 4);
        drop(w); // the crash: no finish(), journals + partial state left behind

        // Resume from the checkpointed progress: records 14..17 (appended
        // after the checkpoint) are truncated away and re-pushed.
        let mut w =
            RollingShardWriter::resume_durable(&crash_dir, "d", 10, true, progress_at_14).unwrap();
        assert_eq!(w.progress(), progress_at_14);
        for r in &recs[14..] {
            w.push(r.clone()).unwrap();
        }
        let paths = w.finish().unwrap();
        assert_eq!(paths.len(), ref_paths.len());
        for (a, b) in paths.iter().zip(&ref_paths) {
            assert_eq!(a.file_name(), b.file_name());
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "resumed shard {a:?} differs from uninterrupted reference"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_disk_state_behind_the_checkpoint() {
        let dir = std::env::temp_dir().join(format!("etalumis_durable_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recs = make_records(3);
        let mut w = RollingShardWriter::new(&dir, "d", 10, true).durable();
        for r in &recs {
            w.push(r.clone()).unwrap();
        }
        let progress = w.progress();
        drop(w);
        // Journal shorter than the checkpoint committed: must be rejected.
        let jpath = dir.join(format!("d_00000.{PARTIAL_EXT}"));
        let full = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, &full[..full.len() - 1]).unwrap();
        let err = RollingShardWriter::resume_durable(&dir, "d", 10, true, progress)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("journal"), "unexpected error: {err}");
        // A checkpoint referencing a missing finished shard is rejected too.
        let missing = WriterProgress { finished: 2, ..progress };
        let err = RollingShardWriter::resume_durable(&dir, "d", 10, true, missing)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("missing shard"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_decode_reports_path_and_offset() {
        let dir = std::env::temp_dir().join(format!("etalumis_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.etlm");
        let recs = make_records(4);
        let mut w = ShardWriter::new(&path, false);
        for r in &recs {
            w.push(r.clone());
        }
        w.finish().unwrap();
        assert_eq!(ShardReader::open(&path).unwrap().get(0).unwrap(), recs[0]);
        // Trash a run of payload bytes inside the first record (0xFF is
        // never valid UTF-8 and not a known dist/value tag), leaving the
        // header and footer index intact.
        let mut bytes = std::fs::read(&path).unwrap();
        for b in bytes.iter_mut().skip(40).take(8) {
            *b = 0xFF;
        }
        std::fs::write(&path, &bytes).unwrap();
        match ShardReader::open(&path).and_then(|mut r| r.read_all()) {
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("c.etlm") && msg.contains("offset"),
                    "error must name the shard and offset: {msg}"
                );
            }
            Ok(_) => panic!("corrupted shard decoded successfully"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_run_of_records_is_capped_at_one_read_but_takes_a_large_record_alone() {
        let layout = ShardLayout {
            dict: None,
            offsets: vec![0, 300_000, 600_000, 900_000, 2_000_000],
            records_end: 5_000_000,
        };
        assert_eq!(layout.run_end(0, 4), 2);
        assert_eq!(layout.run_end(0, 1), 1);
        assert_eq!(layout.run_end(3, 4), 3);
        assert_eq!(layout.run_end(4, 4), 4);
    }

    #[test]
    fn corrupt_count_and_length_prefixes_error_without_allocating() {
        let dir = std::env::temp_dir().join(format!("etalumis_bomb_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.etlm");
        let recs = make_records(3);
        let mut w = ShardWriter::new(&path, false);
        for r in &recs {
            w.push(r.clone());
        }
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();

        // Record count (bytes 9..13 in a dict-less shard) claiming 4 billion
        // records: open must error before reserving the offsets index.
        let mut bad = good.clone();
        bad[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let err = ShardReader::open(&path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("b.etlm"), "unexpected error: {err}");

        // First record's length prefix (bytes 13..17) claiming ~4 GB: get()
        // must error before allocating the record buffer.
        let mut bad = good.clone();
        bad[13..17].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let mut r = ShardReader::open(&path).unwrap();
        let err = r.get(0).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "unexpected error: {err}");
        assert!(r.read_all().map(|_| ()).unwrap_err().to_string().contains("truncated"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_dictionary_prefixes_error_without_allocating() {
        let dir = std::env::temp_dir().join(format!("etalumis_dict_bomb_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.etlm");
        let mut w = ShardWriter::new(&path, true);
        for r in make_records(3) {
            w.push(r);
        }
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();
        // The dictionary starts at byte 9: its string count, then the first
        // string's length prefix. Each claiming ~4 billion must error naming
        // the shard, not allocate or loop that far.
        for at in [9usize, 13] {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            let err = ShardReader::open(&path).map(|_| ()).unwrap_err().to_string();
            assert!(err.contains("d.etlm") && err.contains("truncated"), "byte {at}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_or_unknown_version_names_found_and_expected() {
        let dir = std::env::temp_dir().join(format!("etalumis_version_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("v.etlm");
        let mut w = ShardWriter::new(&path, true);
        for r in make_records(2) {
            w.push(r);
        }
        w.finish().unwrap();
        // Patch the header back to version 1, the offset-only index format.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = ShardReader::open(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("v.etlm") && msg.contains("version 1") && msg.contains("expected 2"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutated_shards_error_without_panicking() {
        let dir = std::env::temp_dir().join(format!("etalumis_mutate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("m.etlm");
        // A small dictionary shard holding records of two trace types.
        let recs = make_records(8);
        let other = recs.iter().position(|r| r.trace_type != recs[0].trace_type).unwrap();
        let mut w = ShardWriter::new(&path, true);
        for r in [&recs[0], &recs[other], &recs[1]] {
            w.push(r.clone());
        }
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_eq!(crate::TraceDataset::open(vec![path.clone()]).unwrap().num_trace_types(), 2);

        // Every path must end in `Ok` or a typed error. A panic fails the
        // test; an allocation sized by an unchecked count would abort it.
        let typed = |what: &str, e: std::io::Error| {
            use std::io::ErrorKind::{InvalidData, UnexpectedEof};
            assert!(matches!(e.kind(), InvalidData | UnexpectedEof), "{what}: untyped error {e}");
        };
        let check = |what: String, bytes: &[u8]| -> bool {
            std::fs::write(&path, bytes).unwrap();
            let opened = match ShardReader::open(&path) {
                Ok(mut r) => {
                    if let Err(e) = r.read_all() {
                        typed(&what, e);
                    }
                    true
                }
                Err(e) => {
                    typed(&what, e);
                    false
                }
            };
            if let Err(e) = crate::TraceDataset::open(vec![path.clone()]) {
                typed(&what, e);
            }
            opened
        };
        let footer = good.len() - 8;
        for bit in 0..good.len() * 8 {
            let mut b = good.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            let opened = check(format!("bit {bit}"), &b);
            // Magic, version and footer are fully checked on open.
            if bit / 8 < 8 || bit / 8 >= footer {
                assert!(!opened, "bit {bit} flipped in the header or footer still opened");
            }
        }
        for at in 0..good.len() {
            let mut b = good.clone();
            b[at] = !b[at];
            check(format!("complemented byte {at}"), &b);
        }
        for at in 0..=good.len() - 4 {
            for v in [0u32, 0x8000_0000, u32::MAX] {
                let mut b = good.clone();
                b[at..at + 4].copy_from_slice(&v.to_le_bytes());
                check(format!("window {at} = {v:#x}"), &b);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard's dictionary, record offsets and index metadata.
    type Opened = (Option<Vec<String>>, Vec<u64>, Vec<(u64, u32)>);

    /// What `ShardReader::open` made of a shard's bytes before it parsed
    /// them with `codec::Reader`: the dictionary, record offsets and index
    /// metadata, or `None` for a refused file: the reference the current
    /// reader must agree with.
    fn open_as_before(b: &[u8]) -> Option<Opened> {
        let len = b.len() as u64;
        let mut pos = 0usize;
        let mut field = |n: usize| {
            let f = b.get(pos..pos.checked_add(n)?)?;
            pos += n;
            Some(f)
        };
        let le_u32 = |f: &[u8]| u32::from_le_bytes(f.try_into().unwrap());
        let le_u64 = |f: &[u8]| u64::from_le_bytes(f.try_into().unwrap());
        (field(4)? == MAGIC && le_u32(field(4)?) == VERSION).then_some(())?;
        let dict = match field(1)?[0] {
            0 => None,
            1 => {
                let mut d = AddressDictionary::new();
                for _ in 0..le_u32(field(4)?) {
                    let n = le_u32(field(4)?) as usize;
                    d.intern(std::str::from_utf8(field(n)?).ok()?);
                }
                Some(dict_strings(&d))
            }
            _ => return None,
        };
        let n = le_u32(field(4)?) as u64;
        let data_start = pos as u64;
        let index_offset = le_u64(&b[b.len() - 8..]);
        if n > len / INDEX_ENTRY as u64
            || index_offset < data_start
            || index_offset.checked_add(n * INDEX_ENTRY as u64 + 8) != Some(len)
        {
            return None;
        }
        let (mut offsets, mut meta) = (Vec::new(), Vec::new());
        for e in b[index_offset as usize..b.len() - 8].chunks(INDEX_ENTRY) {
            let off = le_u64(&e[..8]);
            (off >= data_start && off.saturating_add(4) <= index_offset).then_some(())?;
            offsets.push(off);
            meta.push((le_u64(&e[8..16]), le_u32(&e[16..])));
        }
        Some((dict, offsets, meta))
    }

    fn dict_strings(d: &AddressDictionary) -> Vec<String> {
        (0..d.len() as u32).map(|id| d.resolve(id).to_string()).collect()
    }

    #[test]
    fn mutated_headers_and_dictionaries_open_exactly_as_before() {
        let dir = std::env::temp_dir().join(format!("etalumis_head_mut_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("h.etlm");
        for use_dict in [true, false] {
            let mut w = ShardWriter::new(&path, use_dict);
            for r in make_records(2) {
                w.push(r);
            }
            w.finish().unwrap();
            let good = std::fs::read(&path).unwrap();
            assert!(open_as_before(&good).is_some());
            let mut opened = 0;
            for (at, m) in etalumis_distributions::codec::mutants(&good) {
                std::fs::write(&path, &m).unwrap();
                let now = ShardReader::open(&path)
                    .map(|r| (r.layout.dict.as_ref().map(dict_strings), r.layout.offsets, r.meta))
                    .map_err(|e| {
                        use std::io::ErrorKind::{InvalidData, UnexpectedEof};
                        assert!(matches!(e.kind(), InvalidData | UnexpectedEof), "at {at}: {e}");
                    });
                assert_eq!(now.ok(), open_as_before(&m), "dict={use_dict}, mutant at {at}");
                opened += open_as_before(&m).is_some() as usize;
            }
            assert!(opened > 0, "no mutant opened: the sweep checks refusals only");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn headers_longer_than_the_first_read_open_as_before() {
        let dir = std::env::temp_dir().join(format!("etalumis_head_long_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("l.etlm");
        // A dictionary of 40 one-kilobyte addresses: five times `HEAD_READ`.
        let mut rec = make_records(1).remove(0);
        let entry = rec.entries[0].clone();
        rec.entries = (0..40)
            .map(|i| crate::RecordEntry { address: format!("{i:01024}"), ..entry.clone() })
            .collect();
        let mut w = ShardWriter::new(&path, true);
        w.push(rec.clone());
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();
        assert!(good.len() > 4 * HEAD_READ);
        let mut r = ShardReader::open(&path).unwrap();
        assert_eq!(r.get(0).unwrap(), rec);
        // The count, the first and the last address length, and the record
        // count after the dictionary, each corrupted.
        let last = 9 + 4 + 39 * (4 + 1024);
        let count = last + 4 + 1024;
        for at in [9, 13, last, count] {
            for word in [0u32, 1, 1025, u32::MAX] {
                let mut m = good.clone();
                m[at..at + 4].copy_from_slice(&word.to_le_bytes());
                std::fs::write(&path, &m).unwrap();
                let now = ShardReader::open(&path).map(|r| (r.layout.offsets, r.meta)).ok();
                let before = open_as_before(&m).map(|(_, offsets, meta)| (offsets, meta));
                assert_eq!(now, before, "{word} at {at}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A journal of `recs`: `u32 len | record` each.
    fn journal_bytes(recs: &[TraceRecord]) -> Vec<u8> {
        let mut j = Vec::new();
        for r in recs {
            let rec = encode_record(r, None);
            j.extend_from_slice(&(rec.len() as u32).to_le_bytes());
            j.extend_from_slice(&rec);
        }
        j
    }

    #[test]
    fn read_journal_refuses_a_committed_length_beyond_the_file() {
        let dir = std::env::temp_dir().join(format!("etalumis_journal_len_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.partial");
        let recs = make_records(2);
        let bytes = journal_bytes(&recs);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_journal(&path, bytes.len() as u64).unwrap(), recs);
        // A manifest field names `committed`: an absurd one must be refused
        // before anything is allocated for it, not abort the process.
        for committed in [bytes.len() as u64 + 1, 1 << 40, u64::MAX] {
            let err = read_journal(&path, committed).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("j.partial"), "{msg}");
            assert!(msg.contains(&bytes.len().to_string()), "{msg}");
            assert!(msg.contains(&committed.to_string()), "{msg}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutated_journals_read_or_error_as_invalid_data() {
        let dir = std::env::temp_dir().join(format!("etalumis_journal_mut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.partial");
        let good = journal_bytes(&make_records(3));
        for (at, m) in etalumis_distributions::codec::mutants(&good) {
            std::fs::write(&path, &m).unwrap();
            if let Err(e) = read_journal(&path, m.len() as u64) {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "at {at}: {e}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("etalumis_bad_{}.etlm", std::process::id()));
        std::fs::write(&path, b"NOPEnope").unwrap();
        assert!(ShardReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
