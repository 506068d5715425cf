//! Deterministic cross-process shard merging for distributed dataset
//! generation.
//!
//! The paper generates its training datasets on up to 1,024 nodes (§4.4);
//! each node produces its own shard files, and the fleet's output must come
//! back together as *one* canonical dataset. This module is the
//! come-back-together half:
//!
//! * every worker process ("rank") generates a contiguous slice of the
//!   global index range `0..n` into a rank-private directory and records a
//!   [`RankManifest`] there when its slice is complete;
//! * [`merge_ranks`] validates the manifests against each other (same batch
//!   identity, no gaps or overlaps between slices) and k-way-merges the
//!   per-rank shard sets back into the canonical partition-by-trace-type
//!   layout — **byte-identical** to what a single process writing the whole
//!   range would have produced;
//! * a [`MergedManifest`] records the merged batch identity and surfaces
//!   every rank's permanently-failed indices in one place.
//!
//! Byte-identity falls out of two invariants the write path already holds:
//! record *content* is a pure function of `(seed, index)` (per-trace
//! splitmix seeding), and record *placement* is a pure function of the
//! record (`trace_type % partitions`, commit in index order). Concatenating
//! the ranks' per-partition record streams in slice order therefore
//! reproduces exactly the sequence a single-process run feeds its shard
//! writers, and re-rolling that sequence through the same
//! [`RollingShardWriter`] reproduces the same files.
//!
//! Atomicity mirrors `ShardWriter::finish`: every merged shard and both
//! manifest kinds become visible only through a temp-file rename, stale
//! `*.partial` journals in the output directory are rejected, and stale
//! shards of a longer previous merge are removed once the new set is
//! complete — so the merge can be safely re-run after a late rank's output
//! arrives.

use crate::shard::{
    atomic_save, deny_stale_partials, partition_prefix, remove_stale_rolls, shard_path,
    RollingShardWriter, ShardReader, CHECKPOINT_MANIFEST_NAME, REPAIR_PREFIX,
};
use etalumis_distributions::codec::{DecodeError, Reader};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File name of a rank's completion manifest inside its output directory.
pub const RANK_MANIFEST_NAME: &str = "rank.etrk";

/// File name of the merged manifest inside the merged dataset directory.
pub const MERGED_MANIFEST_NAME: &str = "merged.etmm";

const RANK_MAGIC: &[u8; 4] = b"ETRK";
const MERGED_MAGIC: &[u8; 4] = b"ETMM";
const MANIFEST_VERSION: u32 = 1;

/// The contiguous slice of the global index range `0..n` that `rank` owns:
/// `n / world_size` indices each, with the remainder spread one-per-rank
/// over the first `n % world_size` ranks. Slices tile `0..n` exactly.
pub fn rank_slice(n: usize, rank: usize, world_size: usize) -> Range<usize> {
    assert!(world_size > 0, "world_size must be non-zero");
    assert!(rank < world_size, "rank {rank} out of range for world_size {world_size}");
    let base = n / world_size;
    let extra = n % world_size;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..start + len
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn bad_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// The bytes of the manifest file at `path` (`None` if there is none).
pub fn load_manifest_bytes(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(buf) => Ok(Some(buf)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Decode a `kind` manifest (rank, merged or checkpoint): check its magic
/// and version, then read its body through the shared [`Reader`]. Every
/// error is `InvalidData` and names the manifest. `body` reads the fields
/// straight into a struct literal, whose fields Rust evaluates in the
/// order written: that order is the manifest's field order.
pub fn decode_manifest<T>(
    buf: &[u8],
    kind: &str,
    magic: &[u8; 4],
    version: u32,
    body: impl FnOnce(&mut Reader) -> Result<T, DecodeError>,
) -> io::Result<T> {
    let bad = |msg: &dyn std::fmt::Display| bad_data(format!("corrupt {kind} manifest: {msg}"));
    let r = &mut Reader::new(buf);
    if r.take(4).ok() != Some(magic.as_slice()) {
        return Err(bad(&"bad magic"));
    }
    if r.u32().ok() != Some(version) {
        return Err(bad(&"unsupported version"));
    }
    body(r).map_err(|e| bad(&e))
}

/// What one rank durably claims about its completed slice: batch identity,
/// the slice it owned, the shard files it wrote, and the indices whose
/// retry budget ran out even after the healing pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankManifest {
    /// This rank's id, `0..world_size`.
    pub rank: u32,
    /// Fleet size the batch was partitioned for.
    pub world_size: u32,
    /// Global batch size.
    pub n: u64,
    /// Global batch seed (trace `i` runs under `mix_seed(seed, i)`).
    pub seed: u64,
    /// Trace-type hash partitions.
    pub partitions: u32,
    /// Records per shard before rolling.
    pub traces_per_shard: u64,
    /// Whether records are pruned to the training layout.
    pub pruned: bool,
    /// First global index of this rank's slice.
    pub start: u64,
    /// One past the last global index of this rank's slice.
    pub end: u64,
    /// `part{p:02}` shard files this rank wrote, indexed by partition.
    pub shards_per_partition: Vec<u32>,
    /// `repair_*` shard files holding below-watermark records healed on a
    /// resume (empty-run normal case: 0).
    pub repair_shards: u32,
    /// Global indices that stayed permanently failed, sorted.
    pub failed: Vec<u64>,
}

impl RankManifest {
    /// The slice this rank owned.
    pub fn slice(&self) -> Range<u64> {
        self.start..self.end
    }

    /// Serialize the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut b =
            Vec::with_capacity(80 + 4 * self.shards_per_partition.len() + 8 * self.failed.len());
        b.extend_from_slice(RANK_MAGIC);
        b.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        b.extend_from_slice(&self.rank.to_le_bytes());
        b.extend_from_slice(&self.world_size.to_le_bytes());
        b.extend_from_slice(&self.n.to_le_bytes());
        b.extend_from_slice(&self.seed.to_le_bytes());
        b.extend_from_slice(&self.partitions.to_le_bytes());
        b.extend_from_slice(&self.traces_per_shard.to_le_bytes());
        b.push(self.pruned as u8);
        b.extend_from_slice(&self.start.to_le_bytes());
        b.extend_from_slice(&self.end.to_le_bytes());
        b.extend_from_slice(&(self.shards_per_partition.len() as u32).to_le_bytes());
        for s in &self.shards_per_partition {
            b.extend_from_slice(&s.to_le_bytes());
        }
        b.extend_from_slice(&self.repair_shards.to_le_bytes());
        b.extend_from_slice(&(self.failed.len() as u64).to_le_bytes());
        for f in &self.failed {
            b.extend_from_slice(&f.to_le_bytes());
        }
        b
    }

    /// Deserialize a manifest (strict: bad magic/version/truncation error).
    pub fn decode(buf: &[u8]) -> io::Result<Self> {
        decode_manifest(buf, "rank", RANK_MAGIC, MANIFEST_VERSION, |r| {
            Ok(Self {
                rank: r.u32()?,
                world_size: r.u32()?,
                n: r.u64()?,
                seed: r.u64()?,
                partitions: r.u32()?,
                traces_per_shard: r.u64()?,
                pruned: r.u8()? != 0,
                start: r.u64()?,
                end: r.u64()?,
                shards_per_partition: (0..r.count(4)?)
                    .map(|_| r.u32())
                    .collect::<Result<_, _>>()?,
                repair_shards: r.u32()?,
                failed: (0..r.count_u64(8)?).map(|_| r.u64()).collect::<Result<_, _>>()?,
            })
        })
    }

    /// Load a rank manifest from a rank's output directory (`None` if the
    /// rank has not completed).
    pub fn load(dir: &Path) -> io::Result<Option<Self>> {
        load_manifest_bytes(&dir.join(RANK_MANIFEST_NAME))?.map(|b| Self::decode(&b)).transpose()
    }

    /// Atomically write the manifest into `dir` (temp file, fsync, rename).
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        atomic_save(dir, RANK_MANIFEST_NAME, &self.encode())
    }
}

/// Per-rank summary carried into the merged manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankSummary {
    /// Rank id.
    pub rank: u32,
    /// First global index of the rank's slice.
    pub start: u64,
    /// One past the last global index of the rank's slice.
    pub end: u64,
    /// The rank's permanently failed global indices, sorted.
    pub failed: Vec<u64>,
}

/// The merged dataset's manifest: batch identity plus every rank's failed
/// list, so a fleet run's holes are visible in one place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedManifest {
    /// Global batch size.
    pub n: u64,
    /// Global batch seed.
    pub seed: u64,
    /// Trace-type hash partitions.
    pub partitions: u32,
    /// Records per shard before rolling.
    pub traces_per_shard: u64,
    /// Whether records are pruned to the training layout.
    pub pruned: bool,
    /// Fleet size.
    pub world_size: u32,
    /// Records actually merged (`n` minus the union of failed lists).
    pub records: u64,
    /// Per-rank slices and failure lists, in slice order.
    pub ranks: Vec<RankSummary>,
}

impl MergedManifest {
    /// All permanently failed global indices across ranks, sorted.
    pub fn failed(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.ranks.iter().flat_map(|r| r.failed.iter().copied()).collect();
        all.sort_unstable();
        all
    }

    /// Serialize the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64 + 32 * self.ranks.len());
        b.extend_from_slice(MERGED_MAGIC);
        b.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        b.extend_from_slice(&self.n.to_le_bytes());
        b.extend_from_slice(&self.seed.to_le_bytes());
        b.extend_from_slice(&self.partitions.to_le_bytes());
        b.extend_from_slice(&self.traces_per_shard.to_le_bytes());
        b.push(self.pruned as u8);
        b.extend_from_slice(&self.world_size.to_le_bytes());
        b.extend_from_slice(&self.records.to_le_bytes());
        b.extend_from_slice(&(self.ranks.len() as u32).to_le_bytes());
        for r in &self.ranks {
            b.extend_from_slice(&r.rank.to_le_bytes());
            b.extend_from_slice(&r.start.to_le_bytes());
            b.extend_from_slice(&r.end.to_le_bytes());
            b.extend_from_slice(&(r.failed.len() as u64).to_le_bytes());
            for f in &r.failed {
                b.extend_from_slice(&f.to_le_bytes());
            }
        }
        b
    }

    /// Deserialize a manifest (strict: bad magic/version/truncation error).
    pub fn decode(buf: &[u8]) -> io::Result<Self> {
        decode_manifest(buf, "merged", MERGED_MAGIC, MANIFEST_VERSION, |r| {
            Ok(Self {
                n: r.u64()?,
                seed: r.u64()?,
                partitions: r.u32()?,
                traces_per_shard: r.u64()?,
                pruned: r.u8()? != 0,
                world_size: r.u32()?,
                records: r.u64()?,
                ranks: (0..r.count(4 + 8 + 8 + 8)?)
                    .map(|_| {
                        Ok(RankSummary {
                            rank: r.u32()?,
                            start: r.u64()?,
                            end: r.u64()?,
                            failed: (0..r.count_u64(8)?)
                                .map(|_| r.u64())
                                .collect::<Result<_, _>>()?,
                        })
                    })
                    .collect::<Result<_, DecodeError>>()?,
            })
        })
    }

    /// Load the merged manifest from a merged dataset directory.
    pub fn load(dir: &Path) -> io::Result<Option<Self>> {
        load_manifest_bytes(&dir.join(MERGED_MANIFEST_NAME))?.map(|b| Self::decode(&b)).transpose()
    }

    /// Atomically write the manifest into `dir` (temp file, fsync, rename).
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        atomic_save(dir, MERGED_MANIFEST_NAME, &self.encode())
    }
}

/// Result of [`merge_ranks`]: the canonical shard set plus the merged
/// manifest that was written next to it.
#[derive(Debug)]
pub struct MergeOutput {
    /// Merged shard paths (partition order, then roll order; any repair
    /// shards last).
    pub shards: Vec<PathBuf>,
    /// The manifest written to the output directory.
    pub manifest: MergedManifest,
}

/// Check a set of rank manifests for mutual consistency: identical batch
/// identity, one manifest per rank, and slices that tile `0..n` with no
/// gaps or overlaps. Returns the manifests sorted by slice start.
fn validate_ranks(
    mut ranks: Vec<(PathBuf, RankManifest)>,
) -> io::Result<Vec<(PathBuf, RankManifest)>> {
    let Some((_, first)) = ranks.first() else {
        return Err(bad_input("merge needs at least one rank output".into()));
    };
    let (n, seed, partitions, tps, pruned, world) = (
        first.n,
        first.seed,
        first.partitions,
        first.traces_per_shard,
        first.pruned,
        first.world_size,
    );
    // Numeric identity fields feed straight into writer construction
    // (`RollingShardWriter` asserts a non-zero capacity) and the partition
    // loop — a corrupt manifest must become a typed error here, never a
    // panic or a silently empty merge.
    if partitions == 0 || tps == 0 || world == 0 {
        return Err(bad_data(format!(
            "rank manifests carry a degenerate batch identity \
             (partitions={partitions}, traces_per_shard={tps}, world_size={world})"
        )));
    }
    for (dir, m) in &ranks {
        if (m.n, m.seed, m.partitions, m.traces_per_shard, m.pruned, m.world_size)
            != (n, seed, partitions, tps, pruned, world)
        {
            return Err(bad_input(format!(
                "rank manifest {} does not match the batch identity of the first rank \
                 (got n={} seed={} partitions={} shard={} pruned={} world={}; \
                 expected n={n} seed={seed} partitions={partitions} shard={tps} \
                 pruned={pruned} world={world})",
                dir.display(),
                m.n,
                m.seed,
                m.partitions,
                m.traces_per_shard,
                m.pruned,
                m.world_size
            )));
        }
        if m.shards_per_partition.len() != partitions as usize {
            return Err(bad_data(format!(
                "rank manifest {} lists {} partition shard counts but claims {} partitions",
                dir.display(),
                m.shards_per_partition.len(),
                partitions
            )));
        }
        if m.start > m.end || m.end > n {
            return Err(bad_data(format!(
                "rank manifest {} has slice {}..{} outside batch 0..{n}",
                dir.display(),
                m.start,
                m.end
            )));
        }
    }
    if ranks.len() != world as usize {
        return Err(bad_input(format!(
            "merge found {} rank output(s) but the manifests claim world_size {world} — \
             a rank's output is missing (or duplicated); re-run the merge once every \
             rank has completed",
            ranks.len()
        )));
    }
    // Rank ids must be exactly {0..world_size}: per-rank failure
    // attribution in the merged manifest is meaningless if two outputs
    // claim the same rank (even with cleanly tiling slices).
    let mut ids: Vec<u32> = ranks.iter().map(|(_, m)| m.rank).collect();
    ids.sort_unstable();
    if ids.iter().enumerate().any(|(i, &r)| r != i as u32) {
        return Err(bad_input(format!(
            "rank ids must be exactly 0..{world} with no duplicates, got {ids:?}"
        )));
    }
    ranks.sort_by_key(|(_, m)| (m.start, m.rank));
    let mut cursor = 0u64;
    for (dir, m) in &ranks {
        if m.start > cursor {
            return Err(bad_input(format!(
                "rank slices leave a gap: indices {cursor}..{} belong to no rank \
                 (next slice starts at rank {} in {})",
                m.start,
                m.rank,
                dir.display()
            )));
        }
        if m.start < cursor {
            return Err(bad_input(format!(
                "rank slices overlap: rank {} in {} starts at {} but indices up to \
                 {cursor} are already owned",
                m.rank,
                dir.display(),
                m.start
            )));
        }
        cursor = m.end;
    }
    if cursor != n {
        return Err(bad_input(format!(
            "rank slices cover only 0..{cursor} of the batch 0..{n} — \
             the tail rank's output is missing"
        )));
    }
    Ok(ranks)
}

/// Rank output directories under `root` that already hold a completed
/// rank's [`RankManifest`], sorted by rank id. Directories without a
/// manifest (ranks still running) are skipped, so callers can poll.
pub fn discover_rank_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found: Vec<(u32, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let path = entry?.path();
        if !path.is_dir() {
            continue;
        }
        if let Some(m) = RankManifest::load(&path)? {
            found.push((m.rank, path));
        }
    }
    found.sort_by_key(|&(rank, _)| rank);
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

/// K-way-merge completed rank outputs into the canonical single-process
/// shard layout under `out_dir`.
///
/// Validates the rank manifests against each other first (see module docs),
/// refuses rank directories that still hold an unfinished checkpointed run
/// (a `checkpoint.etck` manifest or `*.partial` journals), then streams
/// each partition's records — ranks in slice order, shards in roll order —
/// through a fresh [`RollingShardWriter`] with the batch's shard capacity.
/// The result is byte-identical to a single process generating `0..n`
/// directly. Safe to re-run (e.g. after a late rank's output lands):
/// shards land via atomic renames and stale output of a previous merge is
/// removed.
pub fn merge_ranks(rank_dirs: &[PathBuf], out_dir: &Path) -> io::Result<MergeOutput> {
    let mut loaded = Vec::with_capacity(rank_dirs.len());
    for dir in rank_dirs {
        let manifest = RankManifest::load(dir)?.ok_or_else(|| {
            bad_input(format!(
                "rank dir {} has no {RANK_MANIFEST_NAME} — the rank has not completed \
                 (generation still running, or killed before finishing; resume it first)",
                dir.display()
            ))
        })?;
        if dir.join(CHECKPOINT_MANIFEST_NAME).exists() {
            return Err(bad_input(format!(
                "rank dir {} still holds a checkpoint manifest — the rank's run is \
                 unfinished; resume it before merging",
                dir.display()
            )));
        }
        deny_stale_partials(dir)?;
        loaded.push((dir.clone(), manifest));
    }
    let ranks = validate_ranks(loaded)?;
    let first = &ranks[0].1;
    let (partitions, tps) = (first.partitions as usize, first.traces_per_shard as usize);

    std::fs::create_dir_all(out_dir)?;
    deny_stale_partials(out_dir)?;
    // The merged manifest is the directory's completeness marker: remove a
    // previous merge's copy *before* the first shard lands and re-save it
    // only after the last one, so a crash mid-merge leaves a directory
    // with no manifest (detectably unfinished) rather than an old manifest
    // describing a mixed-generation shard set.
    match std::fs::remove_file(out_dir.join(MERGED_MANIFEST_NAME)) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut shards = Vec::new();
    let mut records = 0u64;
    for p in 0..partitions {
        let prefix = partition_prefix(p);
        let mut writer = RollingShardWriter::new(out_dir, prefix.clone(), tps, true);
        for (dir, m) in &ranks {
            for seq in 0..m.shards_per_partition[p] as usize {
                for rec in ShardReader::open(shard_path(dir, &prefix, seq))?.read_all()? {
                    records += 1;
                    writer.push(rec)?;
                }
            }
        }
        let paths = writer.finish()?;
        remove_stale_rolls(out_dir, &prefix, paths.len())?;
        shards.extend(paths);
    }
    // Healed below-watermark records live in per-rank repair shards; they
    // cannot be slotted back into index position (committed shards are
    // immutable), so the merge re-rolls them into one trailing repair
    // stream — the dataset is complete, and the canonical partition layout
    // of the committed range is untouched.
    let mut repair = RollingShardWriter::new(out_dir, REPAIR_PREFIX, tps, true);
    for (dir, m) in &ranks {
        for seq in 0..m.repair_shards as usize {
            for rec in ShardReader::open(shard_path(dir, REPAIR_PREFIX, seq))?.read_all()? {
                records += 1;
                repair.push(rec)?;
            }
        }
    }
    let repair_paths = repair.finish()?;
    remove_stale_rolls(out_dir, REPAIR_PREFIX, repair_paths.len())?;
    shards.extend(repair_paths);

    // Sweep every `.etlm` (or leftover `.etlm.tmp`) this merge did not
    // produce: the per-prefix stale-roll removal above cannot reach shards
    // of a previous merge with a *larger partition count* (e.g. an old
    // part03_* next to a new 2-partition layout), and the output dir is
    // merge-owned — anything else is stale by definition.
    {
        let produced: std::collections::HashSet<std::ffi::OsString> =
            shards.iter().filter_map(|p| p.file_name().map(|n| n.to_os_string())).collect();
        for entry in std::fs::read_dir(out_dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if (name.ends_with(".etlm") || name.ends_with(".etlm.tmp"))
                && !produced.contains(std::ffi::OsStr::new(name))
            {
                std::fs::remove_file(&path)?;
            }
        }
    }

    let manifest = MergedManifest {
        n: first.n,
        seed: first.seed,
        partitions: first.partitions,
        traces_per_shard: first.traces_per_shard,
        pruned: first.pruned,
        world_size: first.world_size,
        records,
        ranks: ranks
            .iter()
            .map(|(_, m)| RankSummary {
                rank: m.rank,
                start: m.start,
                end: m.end,
                failed: m.failed.clone(),
            })
            .collect(),
    };
    manifest.save(out_dir)?;
    Ok(MergeOutput { shards, manifest })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use crate::shard::partition_of;
    use etalumis_core::Executor;
    use etalumis_simulators::BranchingModel;

    fn make_records(n: usize) -> Vec<TraceRecord> {
        let mut m = BranchingModel::standard();
        (0..n)
            .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s as u64), true))
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("etalumis_merge_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Write `records[slice]` into `dir` the way a rank's checkpointed run
    /// does (per-partition rolling writers, index order) and save the
    /// matching manifest.
    fn write_rank(
        dir: &Path,
        records: &[TraceRecord],
        slice: Range<usize>,
        world_size: u32,
        rank: u32,
        partitions: usize,
        tps: usize,
        seed: u64,
    ) -> RankManifest {
        let mut writers: Vec<RollingShardWriter> = (0..partitions)
            .map(|p| RollingShardWriter::new(dir, partition_prefix(p), tps, true))
            .collect();
        for rec in &records[slice.clone()] {
            writers[partition_of(rec.trace_type, partitions)].push(rec.clone()).unwrap();
        }
        let shards_per_partition =
            writers.into_iter().map(|w| w.finish().unwrap().len() as u32).collect();
        let m = RankManifest {
            rank,
            world_size,
            n: records.len() as u64,
            seed,
            partitions: partitions as u32,
            traces_per_shard: tps as u64,
            pruned: true,
            start: slice.start as u64,
            end: slice.end as u64,
            shards_per_partition,
            repair_shards: 0,
            failed: vec![],
        };
        m.save(dir).unwrap();
        m
    }

    /// The single-process reference: the same records through the same
    /// per-partition writers, whole range at once.
    fn write_reference(dir: &Path, records: &[TraceRecord], partitions: usize, tps: usize) {
        let mut writers: Vec<RollingShardWriter> = (0..partitions)
            .map(|p| RollingShardWriter::new(dir, partition_prefix(p), tps, true))
            .collect();
        for rec in records {
            writers[partition_of(rec.trace_type, partitions)].push(rec.clone()).unwrap();
        }
        for w in writers {
            w.finish().unwrap();
        }
    }

    fn shard_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                let name = p.file_name().unwrap().to_str().unwrap().to_string();
                name.ends_with(".etlm").then(|| (name, std::fs::read(&p).unwrap()))
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn rank_slices_tile_the_range_exactly() {
        for (n, world) in [(0usize, 1usize), (7, 3), (10, 4), (100, 7), (5, 5), (3, 5)] {
            let mut cursor = 0;
            for r in 0..world {
                let s = rank_slice(n, r, world);
                assert_eq!(s.start, cursor, "n={n} world={world} rank={r}");
                cursor = s.end;
            }
            assert_eq!(cursor, n, "n={n} world={world}");
        }
    }

    #[test]
    fn rank_manifest_roundtrips_and_rejects_truncation() {
        let m = RankManifest {
            rank: 2,
            world_size: 8,
            n: 15_000_000,
            seed: 0xC0FFEE,
            partitions: 4,
            traces_per_shard: 100_000,
            pruned: true,
            start: 3_750_000,
            end: 5_625_000,
            shards_per_partition: vec![5, 6, 4, 5],
            repair_shards: 1,
            failed: vec![3_750_001, 4_000_000],
        };
        let bytes = m.encode();
        assert_eq!(RankManifest::decode(&bytes).unwrap(), m);
        for cut in 0..bytes.len() {
            assert!(RankManifest::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(RankManifest::decode(&bad).is_err());
    }

    #[test]
    fn merged_manifest_roundtrips_and_rejects_truncation() {
        let m = MergedManifest {
            n: 1000,
            seed: 17,
            partitions: 3,
            traces_per_shard: 50,
            pruned: true,
            world_size: 2,
            records: 998,
            ranks: vec![
                RankSummary { rank: 0, start: 0, end: 500, failed: vec![12] },
                RankSummary { rank: 1, start: 500, end: 1000, failed: vec![700] },
            ],
        };
        let bytes = m.encode();
        assert_eq!(MergedManifest::decode(&bytes).unwrap(), m);
        assert_eq!(m.failed(), vec![12, 700]);
        for cut in 0..bytes.len() {
            assert!(MergedManifest::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn mutated_manifests_decode_or_are_rejected_as_invalid_data() {
        let rank = RankManifest {
            rank: 1,
            world_size: 2,
            n: 100,
            seed: 5,
            partitions: 2,
            traces_per_shard: 10,
            pruned: true,
            start: 50,
            end: 100,
            shards_per_partition: vec![3, 2],
            repair_shards: 1,
            failed: vec![61, 99],
        };
        let merged = MergedManifest {
            n: 100,
            seed: 5,
            partitions: 2,
            traces_per_shard: 10,
            pruned: true,
            world_size: 2,
            records: 97,
            ranks: vec![
                RankSummary { rank: 0, start: 0, end: 50, failed: vec![7] },
                RankSummary { rank: 1, start: 50, end: 100, failed: vec![61, 99] },
            ],
        };
        let check = |good: &[u8], decode: &dyn Fn(&[u8]) -> io::Result<()>| {
            for (at, m) in etalumis_distributions::codec::mutants(good) {
                match decode(&m) {
                    Ok(()) => assert_eq!(m[..8], good[..8], "magic or version mutated at {at}"),
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "at {at}: {e}"),
                }
            }
        };
        check(&rank.encode(), &|b| RankManifest::decode(b).map(drop));
        check(&merged.encode(), &|b| MergedManifest::decode(b).map(drop));
    }

    #[test]
    fn merge_is_byte_identical_to_the_single_process_layout() {
        let root = tmpdir("bytes");
        let records = make_records(83);
        let (partitions, tps) = (3usize, 10usize);
        let world = 3u32;
        let mut dirs = Vec::new();
        for r in 0..world {
            let slice = rank_slice(records.len(), r as usize, world as usize);
            let dir = root.join(format!("rank_{r:03}"));
            write_rank(&dir, &records, slice, world, r, partitions, tps, 9);
            dirs.push(dir);
        }
        let ref_dir = root.join("reference");
        write_reference(&ref_dir, &records, partitions, tps);

        let out_dir = root.join("merged");
        let out = merge_ranks(&dirs, &out_dir).unwrap();
        assert_eq!(out.manifest.records, 83);
        assert_eq!(out.manifest.world_size, 3);
        assert_eq!(shard_bytes(&out_dir), shard_bytes(&ref_dir), "merged bytes differ");
        assert_eq!(out.shards.len(), shard_bytes(&ref_dir).len());
        // The merged manifest round-trips from disk.
        assert_eq!(MergedManifest::load(&out_dir).unwrap().unwrap(), out.manifest);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_rejects_mismatched_and_overlapping_manifests() {
        let root = tmpdir("reject");
        let records = make_records(40);
        let (partitions, tps) = (2usize, 8usize);
        let d0 = root.join("rank_000");
        let d1 = root.join("rank_001");
        let m0 = write_rank(&d0, &records, 0..20, 2, 0, partitions, tps, 5);
        let m1 = write_rank(&d1, &records, 20..40, 2, 1, partitions, tps, 5);
        let out = root.join("merged");

        // Mismatched seed.
        RankManifest { seed: 6, ..m1.clone() }.save(&d1).unwrap();
        let err = merge_ranks(&[d0.clone(), d1.clone()], &out).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("batch identity"), "{err}");

        // Overlapping slices.
        RankManifest { start: 10, ..m1.clone() }.save(&d1).unwrap();
        let err = merge_ranks(&[d0.clone(), d1.clone()], &out).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("overlap"), "{err}");

        // Gap (a rank's output missing entirely).
        let err = merge_ranks(&[d0.clone()], &out).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("world_size"), "{err}");

        // Duplicate rank ids (slices still tile cleanly).
        RankManifest { rank: 0, ..m1.clone() }.save(&d1).unwrap();
        let err = merge_ranks(&[d0.clone(), d1.clone()], &out).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("rank ids"), "{err}");

        // Degenerate numeric identity (a corrupt manifest must error, not
        // panic the writer's capacity assert).
        RankManifest { traces_per_shard: 0, ..m0.clone() }.save(&d0).unwrap();
        RankManifest { traces_per_shard: 0, ..m1.clone() }.save(&d1).unwrap();
        let err = merge_ranks(&[d0.clone(), d1.clone()], &out).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("degenerate"), "{err}");
        m0.save(&d0).unwrap();

        // Stale partial journal in the output dir.
        m1.save(&d1).unwrap();
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(out.join("part00_00000.partial"), b"stale").unwrap();
        let err = merge_ranks(&[d0.clone(), d1.clone()], &out).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("stale shard journal"), "{err}");
        std::fs::remove_file(out.join("part00_00000.partial")).unwrap();

        // Unfinished rank (checkpoint manifest still present).
        std::fs::write(d1.join("checkpoint.etck"), b"unfinished").unwrap();
        let err = merge_ranks(&[d0.clone(), d1.clone()], &out).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("unfinished"), "{err}");
        std::fs::remove_file(d1.join("checkpoint.etck")).unwrap();

        // Everything healed: the merge now succeeds.
        merge_ranks(&[d0, d1], &out).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn remerge_after_late_rank_heals_and_removes_stale_output() {
        let root = tmpdir("late");
        let records = make_records(60);
        let (partitions, tps) = (2usize, 6usize);
        // A stale previous merge wrote a *bigger* dataset into the same out
        // dir (more shards than the new merge will produce).
        let out = root.join("merged");
        write_reference(&out, &make_records(120), partitions, tps);
        let stale_count = shard_bytes(&out).len();

        let mut dirs = Vec::new();
        for r in 0..3u32 {
            let slice = rank_slice(records.len(), r as usize, 3);
            let dir = root.join(format!("rank_{r:03}"));
            write_rank(&dir, &records, slice, 3, r, partitions, tps, 2);
            dirs.push(dir);
        }
        // Discovery sees only dirs with a rank manifest (not the stale
        // "merged" dir). With the late rank's output removed, the merge is
        // refused — a gap in coverage.
        assert_eq!(discover_rank_dirs(&root).unwrap().len(), 3);
        std::fs::remove_dir_all(root.join("rank_002")).unwrap();
        assert!(merge_ranks(&discover_rank_dirs(&root).unwrap(), &out).is_err());
        // The late rank lands; re-merge succeeds and the stale output is gone.
        let slice = rank_slice(records.len(), 2, 3);
        let dir = root.join("rank_002");
        write_rank(&dir, &records, slice, 3, 2, partitions, tps, 2);
        // A previous merge with a larger partition count left a shard under
        // a prefix the new layout never writes: the sweep must remove it.
        let orphan = out.join("part09_00000.etlm");
        std::fs::write(&orphan, b"stale generation").unwrap();
        let merged = merge_ranks(&discover_rank_dirs(&root).unwrap(), &out).unwrap();
        assert!(!orphan.exists(), "orphan shard of a wider partition layout must be swept");
        let ref_dir = root.join("reference");
        write_reference(&ref_dir, &records, partitions, tps);
        assert_eq!(shard_bytes(&out), shard_bytes(&ref_dir));
        assert!(merged.shards.len() < stale_count, "stale shards must be removed");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
