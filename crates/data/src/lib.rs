//! # etalumis-data
//!
//! The trace-dataset substrate of etalumis-rs — the reproduction of §4.4.3's
//! I/O stack (the shelve/pickle layer the paper replaced and optimized):
//!
//! * [`record`] — compact [`TraceRecord`]s with the paper's two size
//!   optimizations: structure **pruning** and **address dictionaries**
//!   (shorthand IDs for the long stack-frame address strings).
//! * [`shard`] — an indexed binary shard format supporting both sequential
//!   scans and per-record random access, plus small→large regrouping
//!   (20k→100k traces per file in the paper).
//! * [`dataset`] — multi-shard datasets, prior-trace generation, offline
//!   **sort by trace type** (the preprocessing that removes
//!   sub-minibatching and speeds training up to 50×).
//! * [`sampler`] — the distributed minibatch sampler: sorted chunking,
//!   round-robin rank assignment and multi-bucketing by length (§7.2).
//! * [`merge`] — deterministic cross-process shard merging: per-rank
//!   manifests, mutual validation, and the k-way merge that folds a fleet's
//!   rank-private shard sets back into the canonical single-process layout,
//!   byte for byte.
//! * [`stream`] — the streaming generate→train seam: a bounded,
//!   back-pressured [`TraceChannel`] and the online [`TraceBucketer`] that
//!   replaces the offline sort with on-the-fly address-homogeneous
//!   sub-minibatch release.

pub mod dataset;
pub mod merge;
pub mod record;
pub mod sampler;
pub mod shard;
pub mod stream;

pub use dataset::{generate_dataset, sort_dataset, TraceDataset};
pub use merge::{
    decode_manifest, discover_rank_dirs, load_manifest_bytes, merge_ranks, rank_slice, MergeOutput,
    MergedManifest, RankManifest, RankSummary, MERGED_MANIFEST_NAME, RANK_MANIFEST_NAME,
};
pub use record::{
    decode_record, encode_record, AddressDictionary, DecodeError, RecordEntry, TraceRecord,
};
pub use sampler::{homogeneous_fraction, DistributedSampler, EpochPlan, SamplerConfig};
pub use shard::{
    atomic_save, deny_stale_partials, journal_path, parse_shard_name, partition_of,
    partition_prefix, read_journal, regroup_shards, remove_stale_rolls, shard_path,
    RollingShardWriter, ShardReader, ShardWriter, WriterProgress, CHECKPOINT_MANIFEST_NAME,
    PARTIAL_EXT, REPAIR_PREFIX,
};
pub use stream::{BucketerConfig, ChannelClosed, ChannelStats, TraceBucketer, TraceChannel};
