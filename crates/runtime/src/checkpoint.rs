//! Checkpoint/resume for long batch runs.
//!
//! The paper's headline datasets take hours across hundreds of nodes
//! (§4.4); a run that dies at trace 14,999,000 of 15M must not start over.
//! This module makes sharded dataset generation restartable:
//!
//! * [`CheckpointSink`] — a [`TraceSink`] that commits completed records to
//!   per-partition shard journals **in batch-index order** and periodically
//!   writes a [`Checkpoint`] manifest (atomically, via temp-file rename).
//! * [`Checkpoint`] — the manifest: batch identity (`n`, `seed`, shard
//!   config), the contiguous committed watermark, permanently failed
//!   indices, and each partition's [`WriterProgress`].
//! * [`Checkpoint::remaining`] — the indices a resumed run still owes
//!   (a checkpointed [`RunPlan`](crate::RunPlan) runs exactly those).
//!
//! The invariant the whole design leans on: trace `i` is a pure function of
//! `(program, seed, i)`, so a killed-and-resumed run re-executes exactly
//! the uncommitted indices and produces shard files **byte-identical** to
//! an uninterrupted run. Commit order is batch-index order (not completion
//! order), which is what makes the shard bytes deterministic in the first
//! place — the same order `ordered` dataset generation writes.
//!
//! Crash-consistency protocol, in write order:
//!
//! 1. records append to per-partition journals (`*.partial`) as the
//!    watermark passes them;
//! 2. full shards are written to a temp file and renamed into place
//!    (`ShardWriter::finish`), never truncated mid-write;
//! 3. the manifest is written to `checkpoint.etck.tmp`, fsynced, renamed;
//! 4. only *then* are journals superseded by the manifest deleted.
//!
//! A crash between any two steps resumes cleanly: the manifest always
//! references journals/shards that exist, and journal bytes past the
//! manifest's watermark are truncated away on resume (the re-run rewrites
//! them identically).

use crate::sink::{Commit, InOrder, Tee, TraceSink};
use crate::stream::Stream;
use etalumis_core::RecordBuilder;
use etalumis_data::{
    atomic_save, decode_manifest, decode_record, encode_record, load_manifest_bytes, partition_of,
    partition_prefix, remove_stale_rolls, RollingShardWriter, TraceChannel, TraceRecord,
    WriterProgress, REPAIR_PREFIX,
};
use etalumis_distributions::codec::{DecodeError, Reader};
use etalumis_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the checkpoint manifest inside a dataset directory (the
/// name is defined in `etalumis-data` so the merge layer can refuse
/// unfinished rank outputs).
pub const MANIFEST_NAME: &str = etalumis_data::CHECKPOINT_MANIFEST_NAME;

/// File name of the healing pass's repair journal inside a dataset
/// directory (see [`CheckpointSink::begin_repair`]).
pub const REPAIR_JOURNAL_NAME: &str = "repair.partial";

const MANIFEST_MAGIC: &[u8; 4] = b"ETCK";
const MANIFEST_VERSION: u32 = 2;

/// Knobs for checkpointed runs.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointConfig {
    /// Commit a manifest every `interval` committed traces (a manifest is
    /// also forced whenever a shard rolls, so journal deletion stays behind
    /// the manifest that supersedes it).
    pub interval: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self { interval: 1000 }
    }
}

/// The durable state of a checkpointed batch run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Batch size the run was started with.
    pub n: u64,
    /// Batch seed (trace `i` runs under `mix_seed(seed, base + i)`).
    pub seed: u64,
    /// First *global* index of the slice this run owns (0 for a
    /// single-process run over the whole batch). Part of the manifest's
    /// identity: two slices of equal length but different placement hold
    /// different records, so resuming one as the other must be refused.
    pub base: u64,
    /// Partition count of the sharded sink.
    pub partitions: u32,
    /// Records per shard before rolling.
    pub traces_per_shard: u64,
    /// Whether records are pruned to the training layout.
    pub pruned: bool,
    /// Every index `< watermark` is durably committed (or recorded failed).
    pub watermark: u64,
    /// Indices whose retry budget ran out; they stay failed across resumes
    /// and surface in the final run report.
    pub failed: Vec<u64>,
    /// Per-partition writer progress, index = partition.
    pub parts: Vec<WriterProgress>,
}

impl Checkpoint {
    /// The indices a resumed run still owes: `watermark..n`.
    pub fn remaining(&self) -> Vec<usize> {
        (self.watermark as usize..self.n as usize).collect()
    }

    /// Serialize the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64 + 8 * self.failed.len() + 24 * self.parts.len());
        b.extend_from_slice(MANIFEST_MAGIC);
        b.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        b.extend_from_slice(&self.n.to_le_bytes());
        b.extend_from_slice(&self.seed.to_le_bytes());
        b.extend_from_slice(&self.base.to_le_bytes());
        b.extend_from_slice(&self.partitions.to_le_bytes());
        b.extend_from_slice(&self.traces_per_shard.to_le_bytes());
        b.push(self.pruned as u8);
        b.extend_from_slice(&self.watermark.to_le_bytes());
        b.extend_from_slice(&(self.failed.len() as u64).to_le_bytes());
        for f in &self.failed {
            b.extend_from_slice(&f.to_le_bytes());
        }
        b.extend_from_slice(&(self.parts.len() as u32).to_le_bytes());
        for p in &self.parts {
            b.extend_from_slice(&(p.finished as u64).to_le_bytes());
            b.extend_from_slice(&(p.partial_records as u64).to_le_bytes());
            b.extend_from_slice(&p.partial_bytes.to_le_bytes());
        }
        b
    }

    /// Deserialize a manifest (strict: bad magic/version/truncation error).
    pub fn decode(buf: &[u8]) -> io::Result<Self> {
        decode_manifest(buf, "checkpoint", MANIFEST_MAGIC, MANIFEST_VERSION, |r| {
            Ok(Self {
                n: r.u64()?,
                seed: r.u64()?,
                base: r.u64()?,
                partitions: r.u32()?,
                traces_per_shard: r.u64()?,
                pruned: r.u8()? != 0,
                watermark: r.u64()?,
                failed: (0..r.count_u64(8)?).map(|_| r.u64()).collect::<Result<_, _>>()?,
                parts: (0..r.count(3 * 8)?)
                    .map(|_| {
                        Ok(WriterProgress {
                            finished: r.u64()? as usize,
                            partial_records: r.u64()? as usize,
                            partial_bytes: r.u64()?,
                        })
                    })
                    .collect::<Result<_, DecodeError>>()?,
            })
        })
    }

    /// Load the manifest from a dataset directory (`None` if absent — a
    /// fresh run).
    pub fn load(dir: &Path) -> io::Result<Option<Self>> {
        load_manifest_bytes(&dir.join(MANIFEST_NAME))?.map(|b| Self::decode(&b)).transpose()
    }

    /// Atomically write the manifest into `dir`: temp file, fsync, rename.
    /// A crash at any point leaves either the previous manifest or this one
    /// — never a torn file.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        atomic_save(dir, MANIFEST_NAME, &self.encode())
    }
}

/// Shard-layout parameters a [`CheckpointSink`] needs (mirrors the relevant
/// fields of `DatasetGenConfig`).
#[derive(Clone, Copy, Debug)]
pub struct ShardLayout {
    /// Batch size (slice length for a distributed rank).
    pub n: usize,
    /// Batch seed.
    pub seed: u64,
    /// First global index of the slice (0 for whole-batch runs).
    pub base: usize,
    /// Trace-type hash partitions.
    pub partitions: usize,
    /// Records per shard before rolling.
    pub traces_per_shard: usize,
    /// Prune records to the training layout.
    pub pruned: bool,
}

/// A [`TraceSink`] that makes a sharded batch run restartable.
///
/// It is the run's reorder window over the checkpointed-shards committer:
/// once every lower index has arrived, each record is committed to its
/// partition's journal in batch-index order; every
/// [`CheckpointConfig::interval`] commits (and after every shard roll) a
/// [`Checkpoint`] manifest is atomically written. Kill the process at any
/// instant, call [`CheckpointSink::resume`], rerun the remaining indices,
/// and the final shard files are byte-identical to an uninterrupted run's.
/// A checkpointed stream tees each committed record into the channel `'a`
/// borrows, after its journal append.
pub struct CheckpointSink<'a> {
    window: InOrder<Tee<CheckpointedShards, Stream<'a>>>,
}

/// The checkpointed-shards committer: per-partition journals, manifests,
/// and the healing pass's repairs.
struct CheckpointedShards {
    dir: PathBuf,
    layout: ShardLayout,
    interval: usize,
    /// Every index below it is committed (or recorded failed).
    watermark: usize,
    writers: Vec<RollingShardWriter>,
    /// Failed indices, sorted: committed holes and any a resumed manifest
    /// recorded, minus those the healing pass recovered.
    failed: Vec<u64>,
    since_manifest: usize,
    /// Finished-shard counts at the last manifest write (to force a
    /// manifest after any roll).
    finished_counts: Vec<usize>,
    /// Below-watermark indices healed by the repair pass, with the records
    /// their re-execution produced (written out as `repair_*` shards at
    /// finalize). Keyed by index so replay + re-run cannot double-insert.
    repaired: BTreeMap<u64, TraceRecord>,
    /// The open repair journal (`repair.partial`), present once a healing
    /// pass has begun.
    repair_journal: Option<File>,
    /// First I/O error; everything after it is dropped and the error
    /// surfaces at finalize.
    error: Option<io::Error>,
    tel: Telemetry,
}

impl<'a> CheckpointSink<'a> {
    /// A sink for a fresh run.
    pub fn new(dir: impl AsRef<Path>, layout: ShardLayout, ckpt: &CheckpointConfig) -> Self {
        let partitions = layout.partitions.max(1);
        let writers = (0..partitions)
            .map(|p| {
                RollingShardWriter::new(
                    dir.as_ref(),
                    partition_prefix(p),
                    layout.traces_per_shard,
                    true,
                )
                .durable()
            })
            .collect();
        Self::open(dir.as_ref(), layout, ckpt, 0, Vec::new(), writers)
    }

    fn open(
        dir: &Path,
        layout: ShardLayout,
        ckpt: &CheckpointConfig,
        watermark: usize,
        failed: Vec<u64>,
        writers: Vec<RollingShardWriter>,
    ) -> Self {
        let interval = ckpt.interval.max(1);
        let shards = CheckpointedShards {
            dir: dir.to_path_buf(),
            layout: ShardLayout { partitions: writers.len(), ..layout },
            interval,
            watermark,
            failed,
            since_manifest: 0,
            finished_counts: writers.iter().map(|w| w.progress().finished).collect(),
            writers,
            repaired: BTreeMap::new(),
            repair_journal: None,
            error: None,
            tel: Telemetry::disabled(),
        };
        Self { window: InOrder::new(watermark, interval, layout.pruned, Tee(shards, None)) }
    }

    /// Attach a telemetry handle. The sink emits `ckpt.commit` spans
    /// (journal fsync + manifest save latency), a `ckpt.journal_bytes`
    /// counter, a `ckpt.pending` gauge (reorder-window depth at each
    /// delivery), and a `ckpt.backpressure_waits` counter (bounded waits
    /// taken by workers racing ahead of the commit watermark).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.window.lock().committer.0.tel = tel.clone();
        self.window = self.window.with_telemetry(tel);
        self
    }

    /// Tee every committed record into `channel` too (after its journal
    /// append), if there is one.
    pub(crate) fn stream(self, channel: Option<&'a TraceChannel>) -> Self {
        Self { window: self.window.stream(channel) }
    }

    /// Rebuild a sink from a loaded [`Checkpoint`] manifest (see
    /// [`Checkpoint::load`]), validating it against the run's layout; the
    /// manifest's [`Checkpoint::remaining`] is the work still owed.
    pub fn resume(
        dir: impl AsRef<Path>,
        layout: ShardLayout,
        ckpt: &CheckpointConfig,
        manifest: &Checkpoint,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        let partitions = layout.partitions.max(1);
        if manifest.n != layout.n as u64
            || manifest.seed != layout.seed
            || manifest.base != layout.base as u64
            || manifest.partitions != partitions as u32
            || manifest.traces_per_shard != layout.traces_per_shard as u64
            || manifest.pruned != layout.pruned
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint manifest does not match the requested run \
                     (manifest: n={} seed={} base={} partitions={} shard={} pruned={}; \
                     requested: n={} seed={} base={} partitions={} shard={} pruned={})",
                    manifest.n,
                    manifest.seed,
                    manifest.base,
                    manifest.partitions,
                    manifest.traces_per_shard,
                    manifest.pruned,
                    layout.n,
                    layout.seed,
                    layout.base,
                    partitions,
                    layout.traces_per_shard,
                    layout.pruned
                ),
            ));
        }
        if manifest.parts.len() != partitions {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint manifest is internally inconsistent: partitions={} but {} \
                     per-partition progress entries",
                    manifest.partitions,
                    manifest.parts.len()
                ),
            ));
        }
        if manifest.watermark > manifest.n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint manifest is internally inconsistent: watermark {} exceeds n {}",
                    manifest.watermark, manifest.n
                ),
            ));
        }
        let writers = manifest
            .parts
            .iter()
            .enumerate()
            .map(|(p, progress)| {
                RollingShardWriter::resume_durable(
                    dir,
                    partition_prefix(p),
                    layout.traces_per_shard,
                    true,
                    *progress,
                )
            })
            .collect::<io::Result<_>>()?;
        let watermark = manifest.watermark as usize;
        Ok(Self::open(dir, layout, ckpt, watermark, manifest.failed.clone(), writers))
    }

    /// Begin the healing pass for manifest-recorded permanent failures.
    ///
    /// Indices whose retry budget ran out *below* the commit watermark are
    /// holes the normal resume path can never fill: the watermark has
    /// passed them, so re-running `watermark..n` skips them forever, and
    /// patching them into already-committed shards would rewrite bytes the
    /// crash-consistency protocol promised were final. The healing pass
    /// re-runs them with a fresh retry budget and stages the recovered
    /// records in a **repair journal** (`repair.partial`, `u64 index |
    /// u32 len | record` appends); [`CheckpointSink::finalize`] turns the
    /// staged records into trailing `repair_*` shards via the usual atomic
    /// rename, leaving every committed shard byte-for-byte untouched.
    ///
    /// This method replays any journal a previous (crashed) healing pass
    /// left behind — already-recovered records are taken from the journal
    /// instead of being re-executed, and a torn final append is truncated
    /// away. Returns the indices still owed, i.e. the failed list minus
    /// what the journal already healed; deliver their re-runs through
    /// [`CheckpointSink::repair_sink`].
    pub fn begin_repair(&self) -> io::Result<Vec<u64>> {
        let mut window = self.window.lock();
        let shards: &mut CheckpointedShards = &mut window.committer.0;
        shards.begin_repair()
    }

    /// A [`TraceSink`] adapter routing re-executions of failed indices into
    /// the repair path (journal append + staged record) instead of the
    /// watermark-ordered commit path. Call [`CheckpointSink::begin_repair`]
    /// first.
    pub fn repair_sink(&self) -> RepairSink<'_, 'a> {
        RepairSink { sink: self }
    }

    /// Flush everything, write no further manifests, delete the manifest
    /// and journals, and return the final shard paths (partition order,
    /// then roll order, healed `repair_*` shards last) — the run is
    /// complete.
    pub fn finalize(self) -> io::Result<Vec<PathBuf>> {
        let Tee(shards, _) = self.window.into_committer()?;
        shards.finalize()
    }

    /// The failed indices recorded so far (including ones inherited from
    /// the manifest a resumed run started from, minus any the healing pass
    /// has recovered), with rejected indices still waiting for the prefix.
    pub fn failed(&self) -> Vec<u64> {
        let mut failed = self.window.lock().committer.0.failed.clone();
        failed.extend(self.window.holes().into_iter().map(|i| i as u64));
        failed.sort_unstable();
        failed.dedup();
        failed
    }

    /// Indices the healing pass has recovered so far.
    pub fn repaired(&self) -> usize {
        self.window.lock().committer.0.repaired.len()
    }

    /// The current commit watermark (test/diagnostic hook).
    pub fn watermark(&self) -> usize {
        self.window.lock().committer.0.watermark
    }
}

impl CheckpointedShards {
    fn manifest(&self) -> Checkpoint {
        Checkpoint {
            n: self.layout.n as u64,
            seed: self.layout.seed,
            base: self.layout.base as u64,
            partitions: self.layout.partitions as u32,
            traces_per_shard: self.layout.traces_per_shard as u64,
            pruned: self.layout.pruned,
            watermark: self.watermark as u64,
            failed: self.failed.clone(),
            parts: self.writers.iter().map(|w| w.progress()).collect(),
        }
    }

    /// Journal one committed record, then write a manifest if due.
    fn append(&mut self, rec: Option<TraceRecord>) -> io::Result<()> {
        if let Some(rec) = rec {
            let w = &mut self.writers[partition_of(rec.trace_type, self.layout.partitions)];
            let before = w.progress().partial_bytes;
            w.push(rec)?;
            let after = w.progress().partial_bytes;
            // A roll resets the journal; the post-roll residue is still
            // bytes appended by this push.
            self.tel
                .count("ckpt.journal_bytes", if after >= before { after - before } else { after });
        }
        let rolled = self
            .writers
            .iter()
            .zip(&self.finished_counts)
            .any(|(w, &f)| w.progress().finished != f);
        if rolled || self.since_manifest >= self.interval {
            let commit_started = std::time::Instant::now(); // etalumis: allow(determinism, reason = "commit latency metric; telemetry only")
                                                            // The manifest must not reference journal bytes the disk
                                                            // has not acknowledged: fsync dirty journals first.
            for w in self.writers.iter_mut() {
                w.sync_journal()?;
            }
            self.manifest().save(&self.dir)?;
            self.tel.span_record("ckpt.commit", commit_started.elapsed());
            self.since_manifest = 0;
            for (p, w) in self.writers.iter_mut().enumerate() {
                self.finished_counts[p] = w.progress().finished;
                // Safe only now: the freshly renamed manifest no longer
                // references these journals.
                for j in w.take_obsolete_journals() {
                    let _ = std::fs::remove_file(j); // etalumis: allow(reactor-blocking, reason = "durable tee contract: commit-time journal GC runs on the delivery thread by design")
                }
            }
        }
        Ok(())
    }

    fn begin_repair(&mut self) -> io::Result<Vec<u64>> {
        if self.repair_journal.is_none() {
            let path = self.dir.join(REPAIR_JOURNAL_NAME);
            let mut file = match File::options().read(true).write(true).open(&path) {
                Ok(f) => {
                    // Replay the committed prefix of a previous attempt.
                    let mut buf = Vec::new();
                    (&f).read_to_end(&mut buf)?;
                    let mut r = Reader::new(&buf);
                    let mut off = 0;
                    // A torn tail (the crash interrupted an append) ends the
                    // replay. So does an undecodable entry: journal appends
                    // are not fsynced (deliberately — nothing references
                    // them until finalize), so unordered data writeback
                    // after a power loss can persist a length header whose
                    // payload pages were lost. Every entry is a pure
                    // function of (seed, index), so truncating there and
                    // re-running the rest is always safe — the journal must
                    // never be able to wedge a resume.
                    while let Ok((idx, rec)) = repair_entry(&mut r) {
                        off = buf.len() - r.remaining();
                        if let Ok(pos) = self.failed.binary_search(&idx) {
                            self.failed.remove(pos);
                            self.repaired.insert(idx, rec);
                        }
                    }
                    f.set_len(off as u64)?;
                    f
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    if self.failed.is_empty() {
                        return Ok(Vec::new()); // nothing to heal, no journal needed
                    }
                    std::fs::create_dir_all(&self.dir)?;
                    File::options().create_new(true).read(true).write(true).open(&path)?
                }
                Err(e) => return Err(e),
            };
            file.seek(SeekFrom::End(0))?;
            self.repair_journal = Some(file);
        }
        Ok(self.failed.clone())
    }

    fn repair_accept(&mut self, index: usize, rec: TraceRecord) {
        let idx = index as u64;
        if self.error.is_some() || self.repaired.contains_key(&idx) {
            return;
        }
        let result = (|| -> io::Result<()> {
            let Some(journal) = self.repair_journal.as_mut() else {
                return Err(io::Error::other(
                    "repair delivery before begin_repair (healing pass not started)",
                ));
            };
            let buf = encode_record(&rec, None);
            journal.write_all(&idx.to_le_bytes())?; // etalumis: allow(reactor-blocking, reason = "durable tee contract: repaired records must hit the journal before acknowledgment")
            journal.write_all(&(buf.len() as u32).to_le_bytes())?; // etalumis: allow(reactor-blocking, reason = "durable tee contract: repaired records must hit the journal before acknowledgment")
            journal.write_all(&buf)?; // etalumis: allow(reactor-blocking, reason = "durable tee contract: repaired records must hit the journal before acknowledgment")
            Ok(())
        })();
        match result {
            Ok(()) => {
                if let Ok(pos) = self.failed.binary_search(&idx) {
                    self.failed.remove(pos);
                }
                self.repaired.insert(idx, rec);
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn finalize(self) -> io::Result<Vec<PathBuf>> {
        if let Some(e) = self.error {
            return Err(e);
        }
        // Ordering matters for crash consistency: flush every shard while
        // keeping the journals, write the repair shards, delete the
        // manifest, and only then delete the journals it referenced. A
        // crash before the manifest removal resumes cleanly (journals
        // intact; the repair journal replays the healed records without
        // re-execution); a crash after it degrades to a fresh
        // deterministic re-run, never an unresumable state.
        let mut paths = Vec::new();
        let mut journals = Vec::new();
        for w in self.writers {
            let (shards, js) = w.finish_keeping_journals()?;
            paths.extend(shards);
            journals.extend(js);
        }
        let mut repair_kept = 0usize;
        if !self.repaired.is_empty() {
            let mut rw = RollingShardWriter::new(
                &self.dir,
                REPAIR_PREFIX,
                self.layout.traces_per_shard.max(1),
                true,
            );
            for rec in self.repaired.into_values() {
                rw.push(rec)?;
            }
            let repair_paths = rw.finish()?;
            repair_kept = repair_paths.len();
            paths.extend(repair_paths);
        }
        // Unconditional: a crash-degraded fresh re-run stages no repairs
        // itself but can still find a previous life's repair_* shards on
        // disk — every healed record is re-committed into the part shards
        // by the re-run, so stale repair shards would be duplicates.
        remove_stale_rolls(&self.dir, REPAIR_PREFIX, repair_kept)?;
        std::fs::remove_file(self.dir.join(MANIFEST_NAME)).or_else(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                Ok(())
            } else {
                Err(e)
            }
        })?;
        for j in journals {
            let _ = std::fs::remove_file(j);
        }
        drop(self.repair_journal);
        let _ = std::fs::remove_file(self.dir.join(REPAIR_JOURNAL_NAME));
        Ok(paths)
    }
}

impl Commit for CheckpointedShards {
    fn commit(&mut self, index: usize, rec: Option<TraceRecord>) {
        // A hole records a failure. A success heals one recorded past the
        // watermark: manifests written before failures were recorded at
        // commit time hold such indices, a resumed run re-executes them,
        // and a failure must not outlive its rerun.
        match (rec.is_some(), self.failed.binary_search(&(index as u64))) {
            (true, Ok(pos)) => {
                self.failed.remove(pos);
            }
            (false, Err(pos)) => self.failed.insert(pos, index as u64),
            _ => {}
        }
        self.watermark = index + 1;
        self.since_manifest += 1;
        if self.error.is_none() {
            if let Err(e) = self.append(rec) {
                self.error = Some(e);
            }
        }
    }
}

/// One repair-journal append: `u64 index | u32 len | record`.
fn repair_entry(r: &mut Reader) -> Result<(u64, TraceRecord), DecodeError> {
    let idx = r.u64()?;
    let len = r.u32()? as usize;
    Ok((idx, decode_record(r.take(len)?, None)?))
}

/// The healing pass's [`TraceSink`]: successful re-executions of
/// permanently failed indices are staged for repair shards; re-failures
/// keep the index on the failed list. See [`CheckpointSink::begin_repair`].
pub struct RepairSink<'s, 'a> {
    sink: &'s CheckpointSink<'a>,
}

impl TraceSink<RecordBuilder> for RepairSink<'_, '_> {
    fn target(&self) -> RecordBuilder {
        self.sink.target()
    }

    fn accept(&self, index: usize, rec: TraceRecord) {
        let mut window = self.sink.window.lock(); // etalumis: allow(reactor-blocking, reason = "durable tee contract: a repaired record hits the repair journal, under the window lock, before acknowledgment")
        let shards: &mut CheckpointedShards = &mut window.committer.0;
        shards.repair_accept(index, rec);
    }

    fn reject(&self, index: usize, _error: &str) {
        // Still failed: the index is already on the failed list (healing
        // only removes it on a successful re-run), nothing to record.
        let _ = index;
    }
}

impl TraceSink<RecordBuilder> for CheckpointSink<'_> {
    fn target(&self) -> RecordBuilder {
        self.window.target()
    }

    fn accept(&self, index: usize, rec: TraceRecord) {
        self.window.accept(index, rec);
    }

    fn reject(&self, index: usize, error: &str) {
        self.window.reject(index, error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let ck = Checkpoint {
            n: 15_000_000,
            seed: 0xDEAD_BEEF,
            base: 3_000_000,
            partitions: 4,
            traces_per_shard: 100_000,
            pruned: true,
            watermark: 14_999_000,
            failed: vec![3, 77, 1_000_000],
            parts: vec![
                WriterProgress { finished: 37, partial_records: 12, partial_bytes: 34_567 },
                WriterProgress { finished: 36, partial_records: 0, partial_bytes: 0 },
                WriterProgress { finished: 38, partial_records: 99_999, partial_bytes: 1 << 30 },
                WriterProgress { finished: 35, partial_records: 5, partial_bytes: 555 },
            ],
        };
        let bytes = ck.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ck);
        // Every truncated prefix errors instead of panicking.
        for cut in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        // Corrupt magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Checkpoint::decode(&bad).is_err());
    }

    #[test]
    fn mutated_manifests_decode_or_are_rejected_as_invalid_data() {
        let ck = Checkpoint {
            n: 100,
            seed: 9,
            base: 50,
            partitions: 2,
            traces_per_shard: 10,
            pruned: true,
            watermark: 40,
            failed: vec![3, 17],
            parts: vec![
                WriterProgress { finished: 2, partial_records: 1, partial_bytes: 90 },
                WriterProgress { finished: 1, partial_records: 0, partial_bytes: 0 },
            ],
        };
        let good = ck.encode();
        for (at, m) in etalumis_distributions::codec::mutants(&good) {
            match Checkpoint::decode(&m) {
                Ok(_) => assert_eq!(m[..8], good[..8], "magic or version mutated at {at}"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "at {at}: {e}"),
            }
        }
    }

    #[test]
    fn manifest_save_load_is_atomic_and_idempotent() {
        let dir = std::env::temp_dir().join(format!("etalumis_ck_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(Checkpoint::load(&dir.join("nope")).unwrap(), None);
        let ck = Checkpoint {
            n: 100,
            seed: 7,
            base: 0,
            partitions: 2,
            traces_per_shard: 10,
            pruned: true,
            watermark: 42,
            failed: vec![],
            parts: vec![WriterProgress::default(); 2],
        };
        ck.save(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir).unwrap(), Some(ck.clone()));
        // Overwrite with a later manifest; no temp file left behind.
        let later = Checkpoint { watermark: 90, ..ck };
        later.save(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir).unwrap(), Some(later));
        assert!(!dir.join(format!("{MANIFEST_NAME}.tmp")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn successful_rerun_heals_an_earlier_reject() {
        use etalumis_core::Executor;
        use etalumis_simulators::BranchingModel;
        let dir = std::env::temp_dir().join(format!("etalumis_ck_heal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let layout = ShardLayout {
            n: 6,
            seed: 1,
            base: 0,
            partitions: 1,
            traces_per_shard: 10,
            pruned: true,
        };
        let sink = CheckpointSink::new(&dir, layout, &CheckpointConfig::default());
        let mut m = BranchingModel::standard();
        // Index 5 fails while the prefix is still open (watermark 0), then a
        // retry (or a resumed run) delivers it successfully.
        sink.reject(5, "simulator died");
        assert_eq!(sink.failed(), vec![5]);
        let mut record = |s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s), true);
        sink.accept(5, record(5));
        assert!(sink.failed().is_empty(), "a successful rerun must clear the failure");
        for i in 0..5 {
            sink.accept(i, record(i as u64));
        }
        assert_eq!(sink.watermark(), 6);
        let paths = sink.finalize().unwrap();
        assert_eq!(paths.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutated_repair_journals_are_truncated_to_a_decodable_prefix() {
        use etalumis_core::Executor;
        use etalumis_simulators::BranchingModel;
        let dir = std::env::temp_dir().join(format!("etalumis_ck_repair_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let layout = ShardLayout {
            n: 8,
            seed: 1,
            base: 0,
            partitions: 1,
            traces_per_shard: 10,
            pruned: true,
        };
        let failed = vec![2u64, 5, 6];
        let mut m = BranchingModel::standard();
        let mut good = Vec::new();
        for &i in &failed {
            let rec = encode_record(
                &TraceRecord::from_trace(&Executor::sample_prior(&mut m, i), true),
                None,
            );
            good.extend_from_slice(&i.to_le_bytes());
            good.extend_from_slice(&(rec.len() as u32).to_le_bytes());
            good.extend_from_slice(&rec);
        }
        let path = dir.join(REPAIR_JOURNAL_NAME);
        // Replay the journal on a sink that owes `failed`: the indices the
        // journal healed, what is still owed, and the bytes kept.
        let replay = || {
            let sink = CheckpointSink::new(&dir, layout, &CheckpointConfig::default());
            sink.window.lock().committer.0.failed = failed.clone();
            let owed = sink.begin_repair().unwrap();
            (sink.repaired(), owed, std::fs::metadata(&path).unwrap().len())
        };
        std::fs::write(&path, &good).unwrap();
        assert_eq!(replay(), (3, vec![], good.len() as u64));
        for (at, m) in etalumis_distributions::codec::mutants(&good) {
            std::fs::write(&path, &m).unwrap();
            let (healed, owed, kept) = replay();
            assert!(kept <= m.len() as u64, "at {at}: the journal grew");
            assert!(owed.iter().all(|i| failed.contains(i)), "at {at}: owes {owed:?}");
            assert_eq!(healed + owed.len(), failed.len(), "at {at}");
            // What was kept is whole entries: a second replay keeps it all
            // and heals the same indices.
            assert_eq!(replay(), (healed, owed, kept), "at {at}: kept a torn entry");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_layout() {
        let dir = std::env::temp_dir().join(format!("etalumis_ck_mm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let layout = ShardLayout {
            n: 50,
            seed: 3,
            base: 0,
            partitions: 2,
            traces_per_shard: 10,
            pruned: true,
        };
        let sink = CheckpointSink::new(&dir, layout, &CheckpointConfig::default());
        // Force a manifest to disk.
        sink.window.lock().committer.0.manifest().save(&dir).unwrap();
        let wrong_seed = ShardLayout { seed: 4, ..layout };
        let manifest = Checkpoint::load(&dir).unwrap().unwrap();
        let err = CheckpointSink::resume(&dir, wrong_seed, &CheckpointConfig::default(), &manifest)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // An equal-length slice at a different global placement is a
        // different run: base is part of the identity.
        let wrong_base = ShardLayout { base: 1, ..layout };
        let err = CheckpointSink::resume(&dir, wrong_base, &CheckpointConfig::default(), &manifest)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Internally inconsistent manifests are rejected too: a watermark
        // past n would silently truncate the dataset if honored.
        let over = Checkpoint { watermark: layout.n as u64 + 1, ..manifest.clone() };
        let err = CheckpointSink::resume(&dir, layout, &CheckpointConfig::default(), &over)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
