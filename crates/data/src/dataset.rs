//! Multi-shard trace datasets: generation, sorting, statistics.
//!
//! The offline training mode (§4.3, Algorithm 2) samples traces from the
//! simulator and saves them "to disk as a dataset for further reuse"; §4.4.3
//! then pre-sorts the traces by trace type so that minibatch chunks are
//! homogeneous, which is what removes sub-minibatching and yields the up-to
//! 50× training-speed improvement.

use crate::record::TraceRecord;
use crate::shard::{
    deny_stale_partials, remove_stale_rolls, RollingShardWriter, ShardLayout, ShardReader,
};
use etalumis_core::{Executor, ObserveMap, PriorProposer, ProbProgram, RecordBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};

/// A dataset of trace records stored across shard files.
///
/// Opening parses every shard's header, dictionary and index once; a read
/// then opens only the shard file and reads the records' bytes. No file
/// stays open between reads, so a dataset of many shards holds no
/// descriptors.
pub struct TraceDataset {
    /// Shard paths, in order.
    pub shards: Vec<PathBuf>,
    /// Per-shard record layout, parallel to `shards`.
    layouts: Vec<ShardLayout>,
    /// Per-record (shard, index-within-shard), flattened in dataset order.
    locations: Vec<(u32, u32)>,
    /// Per-record metadata: (trace_type, controlled length).
    meta: Vec<(u64, u32)>,
}

impl TraceDataset {
    /// Open a dataset from shard paths. Reads each shard's header and index
    /// only: the per-record metadata is stored in the index, so no record is
    /// decoded.
    pub fn open(shards: Vec<PathBuf>) -> std::io::Result<Self> {
        let mut locations = Vec::new();
        let mut meta = Vec::new();
        let mut layouts = Vec::with_capacity(shards.len());
        for (si, p) in shards.iter().enumerate() {
            let r = ShardReader::open(p)?;
            locations.extend((0..r.len() as u32).map(|ri| (si as u32, ri)));
            meta.extend_from_slice(r.meta());
            layouts.push(r.into_layout());
        }
        Ok(Self { shards, layouts, locations, meta })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// (trace_type, controlled length) of record `i`.
    pub fn meta(&self, i: usize) -> (u64, u32) {
        self.meta[i]
    }

    /// Location of record `i`, with an out-of-range index surfacing as a
    /// typed error instead of a panic (sampler plans are data, not code).
    fn location(&self, i: usize) -> std::io::Result<(u32, u32)> {
        self.locations.get(i).copied().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("record index {i} is out of range for a dataset of {}", self.len()),
            )
        })
    }

    /// Load a single record (random access).
    pub fn get(&self, i: usize) -> std::io::Result<TraceRecord> {
        Ok(self.get_many(&[i])?.remove(0))
    }

    /// Load many records. Requests are grouped per shard, each shard file
    /// is opened once, and each run of consecutive records is one read:
    /// the sequential access the paper's sorting makes minibatches take.
    pub fn get_many(&self, indices: &[usize]) -> std::io::Result<Vec<TraceRecord>> {
        // BTreeMap: shards are visited in ascending index order, so read order
        // (and any IO error surfaced first) is stable run-to-run.
        let mut by_shard: BTreeMap<u32, Vec<(usize, usize)>> = BTreeMap::new();
        for (pos, &i) in indices.iter().enumerate() {
            let (si, ri) = self.location(i)?;
            by_shard.entry(si).or_default().push((ri as usize, pos));
        }
        let mut out: Vec<Option<TraceRecord>> = vec![None; indices.len()];
        for (si, mut items) in by_shard {
            let (path, layout) = (&self.shards[si as usize], &self.layouts[si as usize]);
            let mut file = File::open(path)?;
            items.sort_unstable();
            let mut k = 0;
            while k < items.len() {
                // The run of consecutive records from this request on, as
                // far as one read takes it (a repeated index stays in it).
                let first = items[k].0;
                let mut j = k;
                while j + 1 < items.len() && items[j + 1].0 <= items[j].0 + 1 {
                    j += 1;
                }
                let last = layout.run_end(first, items[j].0);
                layout.read_run(path, &mut file, first, last, |ri, rec| {
                    let mut rec = Some(rec);
                    while k < items.len() && items[k].0 == ri {
                        let repeated = items.get(k + 1).is_some_and(|&(next, _)| next == ri);
                        out[items[k].1] = if repeated { rec.clone() } else { rec.take() };
                        k += 1;
                    }
                })?;
            }
        }
        // Every slot was grouped into exactly one shard above; an empty slot
        // here would be a location-table bug. Surface it as a typed error —
        // a training loop must not panic on a corrupt index.
        out.into_iter()
            .map(|o| {
                o.ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "dataset location table produced an unfilled slot in get_many",
                    )
                })
            })
            .collect()
    }

    /// Count of distinct trace types.
    pub fn num_trace_types(&self) -> usize {
        let mut set: Vec<u64> = self.meta.iter().map(|&(t, _)| t).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Histogram of trace-type frequencies (type → count), most common first.
    pub fn trace_type_counts(&self) -> Vec<(u64, usize)> {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for &(t, _) in &self.meta {
            *counts.entry(t).or_insert(0) += 1;
        }
        let mut v: Vec<(u64, usize)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// True when records are globally sorted by (trace_type, length).
    pub fn is_sorted(&self) -> bool {
        self.meta.windows(2).all(|w| w[0] <= w[1])
    }
}

/// Sample `n` prior traces from a program and write them into shards of
/// `traces_per_shard` records under `dir`. Returns the dataset.
///
/// A serial generator for single-threaded callers and tests. Every trace
/// draws from one `StdRng` stream seeded with `seed`, whereas a `RunPlan`
/// in `etalumis-runtime` seeds trace `i` with `mix_seed(seed, i)`, so its
/// output is not comparable to a plan's, not even a 1-worker plan's.
pub fn generate_dataset(
    program: &mut dyn ProbProgram,
    n: usize,
    traces_per_shard: usize,
    dir: &Path,
    seed: u64,
    pruned: bool,
) -> std::io::Result<TraceDataset> {
    std::fs::create_dir_all(dir)?;
    let observes = ObserveMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut writer = RollingShardWriter::new(dir, "shard", traces_per_shard, true);
    for i in 0..n {
        let mut prior = PriorProposer;
        // Fallible execution: a dead remote program surfaces as an error
        // naming the failed trace, never a worker-thread panic.
        let record = Executor::try_record(
            program,
            &mut prior,
            &observes,
            &mut rng,
            RecordBuilder::new(pruned),
        )
        .map_err(|e| std::io::Error::other(format!("trace {i} failed: {e}")))?;
        writer.push(record)?;
    }
    TraceDataset::open(writer.finish()?)
}

/// Offline sort of a dataset by (trace_type, length) into new shards — the
/// paper's "parallel trace sorting" preprocessing (§4.4.3).
///
/// Crash-safe: each output shard becomes visible only through an atomic
/// rename ([`crate::ShardWriter::finish`]), so a sort killed mid-run never
/// leaves a truncated shard that [`TraceDataset::open`] would read as valid.
/// The output dir is rejected if it holds an unfinished checkpointed run's
/// `*.partial` journals, and stale shards of a longer previous sort are
/// removed once the new set is complete.
pub fn sort_dataset(
    dataset: &TraceDataset,
    out_dir: &Path,
    traces_per_shard: usize,
) -> std::io::Result<TraceDataset> {
    std::fs::create_dir_all(out_dir)?;
    deny_stale_partials(out_dir)?;
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    order.sort_by_key(|&i| dataset.meta(i));
    let mut writer = RollingShardWriter::new(out_dir, "sorted", traces_per_shard, true);
    for chunk in order.chunks(4096) {
        for rec in dataset.get_many(chunk)? {
            writer.push(rec)?;
        }
    }
    let paths = writer.finish()?;
    remove_stale_rolls(out_dir, "sorted", paths.len())?;
    TraceDataset::open(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_simulators::BranchingModel;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("etalumis_ds_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn generate_open_and_stats() {
        let dir = tmpdir("gen");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 60, 25, &dir, 9, true).unwrap();
        assert_eq!(ds.len(), 60);
        assert_eq!(ds.shards.len(), 3); // 25+25+10
        assert_eq!(ds.num_trace_types(), 3);
        let counts = ds.trace_type_counts();
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<usize>(), 60);
        // Most common branch (p=0.5) should dominate.
        assert!(counts[0].1 >= counts.last().unwrap().1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sorting_groups_trace_types() {
        let dir = tmpdir("sort");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 80, 20, &dir, 4, true).unwrap();
        assert!(!ds.is_sorted() || ds.num_trace_types() == 1);
        let sorted = sort_dataset(&ds, &dir.join("sorted"), 20).unwrap();
        assert_eq!(sorted.len(), 80);
        assert!(sorted.is_sorted());
        // Same multiset of trace types.
        assert_eq!(sorted.trace_type_counts(), ds.trace_type_counts());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_many_reads_runs_across_shards_as_the_shards_hold_them() {
        let dir = tmpdir("runs");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 47, 10, &dir, 5, true).unwrap();
        let all: Vec<TraceRecord> = ds
            .shards
            .iter()
            .flat_map(|p| ShardReader::open(p).unwrap().read_all().unwrap())
            .collect();
        // Runs that cross shard boundaries, repeats inside a run, a run
        // requested backwards, single records and the last record.
        let idx: Vec<usize> =
            (5..27).chain([40, 3, 3, 4, 46, 12, 12]).chain((30..38).rev()).collect();
        let many = ds.get_many(&idx).unwrap();
        assert_eq!(many.len(), idx.len());
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(many[k], all[i], "request {k} for record {i}");
        }
        assert_eq!(ds.get_many(&(0..47).collect::<Vec<_>>()).unwrap(), all);
        assert!(ds.get_many(&[47]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_many_matches_get() {
        let dir = tmpdir("many");
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 30, 10, &dir, 2, true).unwrap();
        let idx = vec![17usize, 3, 28, 3, 0];
        let many = ds.get_many(&idx).unwrap();
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(many[k], ds.get(i).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
