//! Every shard writer stores each record's `(trace_type, controlled length)`
//! in the shard index, and `TraceDataset::open` serves it without decoding:
//! the metadata must equal what the decoded record says, for every writer.

use etalumis_core::Executor;
use etalumis_data::{
    merge_ranks, partition_of, partition_prefix, rank_slice, regroup_shards, sort_dataset,
    RankManifest, RollingShardWriter, ShardWriter, TraceDataset, TraceRecord,
};
use etalumis_simulators::BranchingModel;
use std::path::{Path, PathBuf};

fn records(n: usize) -> Vec<TraceRecord> {
    let mut m = BranchingModel::standard();
    (0..n)
        .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s as u64), s % 2 == 0))
        .collect()
}

fn assert_meta_matches(what: &str, paths: Vec<PathBuf>, expected_len: usize) -> TraceDataset {
    let ds = TraceDataset::open(paths).unwrap();
    assert_eq!(ds.len(), expected_len, "{what}");
    let all: Vec<usize> = (0..ds.len()).collect();
    for (i, rec) in ds.get_many(&all).unwrap().iter().enumerate() {
        assert_eq!(ds.meta(i), (rec.trace_type, rec.num_controlled() as u32), "{what}: record {i}");
    }
    ds
}

fn write_rank(dir: &Path, recs: &[TraceRecord], rank: u32, world: u32, tps: usize) {
    let partitions = 2;
    let slice = rank_slice(recs.len(), rank as usize, world as usize);
    let mut writers: Vec<RollingShardWriter> = (0..partitions)
        .map(|p| RollingShardWriter::new(dir, partition_prefix(p), tps, true))
        .collect();
    for rec in &recs[slice.clone()] {
        writers[partition_of(rec.trace_type, partitions)].push(rec.clone()).unwrap();
    }
    let shards_per_partition =
        writers.into_iter().map(|w| w.finish().unwrap().len() as u32).collect();
    RankManifest {
        rank,
        world_size: world,
        n: recs.len() as u64,
        seed: 5,
        partitions: partitions as u32,
        traces_per_shard: tps as u64,
        pruned: false,
        start: slice.start as u64,
        end: slice.end as u64,
        shards_per_partition,
        repair_shards: 0,
        failed: vec![],
    }
    .save(dir)
    .unwrap();
}

#[test]
fn index_metadata_matches_decoded_records_for_every_writer() {
    let root = std::env::temp_dir().join(format!("etalumis_index_meta_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let recs = records(23);
    assert!(recs.iter().any(|r| r.trace_type != recs[0].trace_type));

    let single = root.join("single.etlm");
    let mut w = ShardWriter::new(&single, true);
    for r in &recs {
        w.push(r.clone());
    }
    w.finish().unwrap();
    assert_meta_matches("ShardWriter", vec![single], 23);

    let mut w = RollingShardWriter::new(root.join("plain"), "p", 4, true);
    for r in &recs {
        w.push(r.clone()).unwrap();
    }
    let plain = w.finish().unwrap();
    let ds = assert_meta_matches("plain RollingShardWriter", plain.clone(), 23);

    let mut w = RollingShardWriter::new(root.join("durable"), "d", 4, false).durable();
    for r in &recs[..10] {
        w.push(r.clone()).unwrap();
    }
    let progress = w.progress();
    drop(w);
    let mut w =
        RollingShardWriter::resume_durable(root.join("durable"), "d", 4, false, progress).unwrap();
    for r in &recs[10..] {
        w.push(r.clone()).unwrap();
    }
    assert_meta_matches("durable, then resume_durable", w.finish().unwrap(), 23);

    let sorted = sort_dataset(&ds, &root.join("sorted"), 5).unwrap();
    assert!(sorted.is_sorted());
    assert_meta_matches("sort_dataset", sorted.shards, 23);

    let regrouped = regroup_shards(&plain, &root.join("regrouped"), 6, true).unwrap();
    assert_meta_matches("regroup_shards", regrouped, 23);

    let ranks: Vec<PathBuf> = (0..2).map(|r| root.join(format!("rank{r}"))).collect();
    for (r, dir) in ranks.iter().enumerate() {
        write_rank(dir, &recs, r as u32, 2, 3);
    }
    let merged = merge_ranks(&ranks, &root.join("merged")).unwrap();
    assert_meta_matches("merge_ranks", merged.shards, 23);

    std::fs::remove_dir_all(&root).unwrap();
}
