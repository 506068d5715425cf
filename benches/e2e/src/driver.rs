//! The one measuring loop every workload runs under.
//!
//! A run is: set up the fixture [`SETUP_REPEATS`] times (the median is
//! `setup_s`), one warm-up op, then a closed loop of identical-size ops for
//! `--seconds` (at least [`MIN_OPS`]), the output checks, and — in a traced
//! run — the per-layer pass. End-to-end metrics come only from untraced
//! runs; a traced run alternates traced and untraced ops so it can report
//! its own overhead, and prints the per-layer metrics instead.

use crate::spans::Recorder;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail_percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fixture set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Fewest timed ops in a run: with 40, ten samples lie beyond the p75.
pub const MIN_OPS: usize = 40;

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Output directory (`benches/e2e/out`): trace dumps and scratch data.
    pub out: PathBuf,
}

/// What one timed op did.
pub struct Op {
    /// Wall seconds of the product calls alone (harness clean-up excluded).
    pub wall: f64,
    /// Traces the op delivered (committed to shards, trained on, sampled).
    pub traces: u64,
    /// Operations attempted and failed, in the workload's own unit.
    pub attempted: u64,
    pub failed: u64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The timed loop stops only after a multiple of this many ops, for a
    /// workload whose ops differ within a cycle that is alike as a whole
    /// (the minibatches of an epoch).
    const OP_CYCLE: usize = 1;
    /// Build the fixture from the seed. Everything before the first timed
    /// op happens here, so that work moved out of the ops shows in `setup_s`.
    fn setup(seed: u64, scratch: &Path) -> Self;
    /// One closed-loop op. Spans go to `rec` when it is enabled.
    fn op(&mut self, i: usize, rec: &mut Recorder) -> Op;
    /// Output checks; every returned line is a failed check.
    fn check(&mut self, rec: &mut Recorder) -> Vec<String>;
    /// Traced run only: fill in this workload's per-layer metrics, given the
    /// median wall seconds of the untraced ops.
    fn layers(&mut self, rec: &mut Recorder, op_wall_p50: f64, m: &mut Metrics);
}

/// The result line of a run, in the shape the contract fixes.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricSpec, f64)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Removes the run's scratch data when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MB: the peak resident set, so that work moved
/// into caches shows.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

pub fn run<W: Workload>(args: &RunArgs) -> Report {
    let scratch =
        Scratch(args.out.join("scratch").join(format!("{}-{}", W::NAME, std::process::id())));
    let mut rec = Recorder::new(false);

    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous fixture down first: its threads and files must
        // not overlap the next set-up's timing.
        drop(fixture.take());
        let _ = std::fs::remove_dir_all(&scratch.0);
        std::fs::create_dir_all(&scratch.0).expect("create scratch dir");
        let t0 = Instant::now();
        fixture = Some(W::setup(args.seed, &scratch.0));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut w = fixture.expect("SETUP_REPEATS >= 1");

    w.op(0, &mut rec);

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut traces, mut attempted, mut failed, mut wall) = (0u64, 0u64, 0u64, 0.0f64);
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed().as_secs_f64() < args.seconds
        || i < MIN_OPS
        || !i.is_multiple_of(W::OP_CYCLE)
    {
        i += 1;
        let tracing = args.trace && i.is_multiple_of(2);
        rec.set_enabled(tracing);
        rec.set_repeat(i as u32);
        let op = w.op(i, &mut rec);
        if tracing { &mut traced } else { &mut plain }.push(op.wall);
        traces += op.traces;
        attempted += op.attempted;
        failed += op.failed;
        wall += op.wall;
    }
    rec.set_repeat(0);
    rec.set_enabled(args.trace);
    // Before the checks: their reference computations are the harness's
    // memory, not the workload's.
    let peak_rss_mb = peak_rss_mb();

    let failures = w.check(&mut rec);
    for f in &failures {
        eprintln!("CHECK FAILED [{}]: {f}", W::NAME);
    }
    let correct = failures.is_empty() && failed == 0;
    let n = plain.len();
    eprintln!(
        "[{}] seed {} · {n} untraced + {} traced ops · set-ups {:?} s",
        W::NAME,
        args.seed,
        traced.len(),
        setup_secs
    );

    let mut values: Metrics = BTreeMap::new();
    let specs: &[MetricSpec] = if args.trace {
        for m in &PER_LAYER {
            values.insert(m.name, 0.0);
        }
        values.insert("harness.trace_overhead_frac", median(&traced) / median(&plain) - 1.0);
        let root = rec.begin("layers");
        w.layers(&mut rec, median(&plain), &mut values);
        rec.end(root);
        let path = args.out.join(format!("{}.trace.json", W::NAME));
        rec.write_json(&path, W::NAME, args.seed).expect("write trace dump");
        eprintln!("[{}] {} spans -> {}", W::NAME, rec.spans().len(), path.display());
        &PER_LAYER
    } else {
        assert!(tail_percentile(n) >= Some(75), "{n} ops leave fewer than ten beyond the p75");
        values.insert("setup_s", median(&setup_secs));
        values.insert("traces_per_s", traces as f64 / wall);
        values.insert("op_latency_p50_ms", median(&plain) * 1e3);
        values.insert("op_latency_p75_ms", percentile(&plain, 0.75) * 1e3);
        values.insert("peak_rss_mb", peak_rss_mb);
        &END_TO_END
    };
    drop(w);
    drop(scratch);

    let metrics: Vec<(MetricSpec, f64)> = specs
        .iter()
        .map(|m| {
            let v = *values.get(m.name).unwrap_or_else(|| panic!("{} was not measured", m.name));
            assert!(v.is_finite(), "{} = {v} is not a number", m.name);
            (*m, v)
        })
        .collect();
    assert_eq!(metrics.len(), values.len(), "a metric outside the declared set was measured");
    for (m, v) in &metrics {
        println!("{:<36} {v:>16.6} {}", m.name, m.unit);
    }
    Report { correct, attempted, failed, metrics }
}
