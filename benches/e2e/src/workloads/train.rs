//! `train_tau`: IC training steps (§4.3–4.4), driven from outside.
//!
//! Set-up generates and sorts a τ dataset and pre-generates the network;
//! the timed loop is the loop a user writes: `DistributedSampler::epoch` →
//! `TraceDataset::get_many` → `Trainer::step`. One op is
//! [`STEPS_PER_OP`] consecutive minibatches, so a run has enough ops for a
//! percentile while each op still averages over several trace types.

use crate::api::*;
use crate::driver::{Metrics, Op, Workload, MIN_OPS};
use crate::probes::{mean_controlled, nn_probes, tensor_probes, trace_pipeline, BATCH};
use crate::spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;

const DATASET_TRACES: usize = 2_048;
const TRACES_PER_SHARD: usize = 512;
const STEPS_PER_OP: usize = 4;
/// Ops per epoch. Minibatches are homogeneous in trace type and so differ in
/// cost, but every epoch covers the whole set: a run that ends on an epoch
/// boundary has done the same mix of work whatever the seed shuffled.
const OPS_PER_EPOCH: usize = DATASET_TRACES / BATCH / STEPS_PER_OP;

/// Per-step sums over the run's timed steps.
#[derive(Default)]
struct Sums {
    steps: u32,
    forward: f64,
    backward: f64,
    optimizer: f64,
    step_wall: f64,
    data_wait: f64,
    plan_s: f64,
    plans: u32,
}

/// Counts over the first [`MIN_OPS`] ops: a fixed amount of work, so they
/// repeat exactly at a fixed seed however long the run lasts.
#[derive(Default)]
struct Prefix {
    sub_minibatches: u64,
    used: u64,
    dropped: u64,
    final_loss: f64,
}

pub struct Train {
    seed: u64,
    scratch: PathBuf,
    dataset: TraceDataset,
    sampler: DistributedSampler,
    trainer: Trainer<Adam>,
    plan: Vec<Vec<usize>>,
    epoch: usize,
    cursor: usize,
    sort_s: f64,
    mean_steps: usize,
    /// Held-out-style probe: 64 records spread evenly over the sorted set
    /// (so every common trace type is in it) and their loss before training.
    probe: Vec<TraceRecord>,
    probe_loss_before: f64,
    all_finite: bool,
    sums: Sums,
    prefix: Prefix,
}

impl Workload for Train {
    const NAME: &'static str = "train_tau";
    const OP_CYCLE: usize = OPS_PER_EPOCH;

    fn setup(seed: u64, scratch: &Path) -> Self {
        let cfg = DatasetGenConfig {
            n: DATASET_TRACES,
            traces_per_shard: TRACES_PER_SHARD,
            partitions: 2,
            workers: 0,
            seed,
            pruned: true,
            // Ordered: the shard bytes, hence the sorted order and every
            // loss below, are the same for any worker interleaving.
            ordered: true,
        };
        let raw = generate_dataset_parallel(|_| tau_model(), &cfg, &scratch.join("raw"))
            .expect("generate the training set");
        let t0 = Instant::now();
        let dataset = sort_dataset(&raw, &scratch.join("sorted"), TRACES_PER_SHARD).expect("sort");
        let sort_s = t0.elapsed().as_secs_f64();

        // Address-specific layers are created from the data (offline mode).
        let mut net = IcNetwork::new(IcConfig::small(OBS_DIMS, seed));
        let all: Vec<usize> = (0..dataset.len()).collect();
        let records = dataset.get_many(&all).expect("read the sorted set");
        net.pregenerate(records.iter());
        let mean_steps = mean_controlled(&records);
        let probe: Vec<TraceRecord> =
            (0..BATCH).map(|k| records[k * records.len() / BATCH].clone()).collect();
        drop(records);
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
        trainer.grad_clip = Some(10.0);
        let probe_loss_before = trainer.evaluate(&probe);
        let meta = (0..dataset.len()).map(|i| dataset.meta(i)).collect();
        let sampler = DistributedSampler::new(
            meta,
            SamplerConfig { minibatch: BATCH, num_ranks: 1, buckets: 1, seed },
        );
        Self {
            seed,
            scratch: scratch.to_path_buf(),
            mean_steps,
            dataset,
            sampler,
            trainer,
            plan: Vec::new(),
            epoch: 0,
            cursor: 0,
            sort_s,
            probe,
            probe_loss_before,
            all_finite: true,
            sums: Sums::default(),
            prefix: Prefix::default(),
        }
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Op {
        let open = rec.begin("train.op");
        let (mut wall, mut used, mut failed, mut loss) = (0.0, 0u64, 0u64, 0.0);
        for _ in 0..STEPS_PER_OP {
            if self.cursor == self.plan.len() {
                let (plan, s) = rec.time("data.sampler_epoch", || self.sampler.epoch(self.epoch));
                self.plan = plan.per_rank.into_iter().next().expect("one rank");
                self.epoch += 1;
                self.cursor = 0;
                self.sums.plan_s += s;
                self.sums.plans += 1;
                wall += s;
            }
            let batch = &self.plan[self.cursor];
            self.cursor += 1;
            let (records, read_s) = rec.time("data.get_many", || self.dataset.get_many(batch));
            let records = records.expect("read a minibatch");
            let (res, step_s): (StepResult, f64) =
                rec.time("train.step", || self.trainer.step(&records));
            wall += read_s + step_s;
            used += res.used as u64;
            loss += res.loss / STEPS_PER_OP as f64;
            if !res.loss.is_finite() || res.dropped > 0 {
                failed += 1;
            }
            let s = &mut self.sums;
            s.steps += 1;
            s.forward += res.timings.forward;
            s.backward += res.timings.backward;
            s.optimizer += res.timings.optimizer;
            s.step_wall += step_s;
            s.data_wait += read_s;
            if (1..=MIN_OPS).contains(&i) {
                self.prefix.sub_minibatches += res.sub_minibatches as u64;
                self.prefix.used += res.used as u64;
                self.prefix.dropped += res.dropped as u64;
            }
        }
        rec.end(open);
        self.all_finite &= loss.is_finite();
        if i == MIN_OPS {
            self.prefix.final_loss = loss;
        }
        Op { wall, traces: used, attempted: STEPS_PER_OP as u64, failed }
    }

    fn check(&mut self, _rec: &mut Recorder) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.all_finite {
            failures.push("a training loss was not finite".into());
        }
        let (before, after) = (self.probe_loss_before, self.trainer.evaluate(&self.probe));
        if after.is_nan() || after >= before {
            failures.push(format!(
                "no learning: probe loss {after:.4} after training is not below {before:.4} before"
            ));
        }
        failures
    }

    fn layers(&mut self, rec: &mut Recorder, _op_wall_p50: f64, m: &mut Metrics) {
        let s = &self.sums;
        let steps = s.steps as f64;
        m.insert("train.forward_s", s.forward / steps);
        m.insert("train.backward_s", s.backward / steps);
        m.insert("train.optimizer_s", s.optimizer / steps);
        m.insert("train.other_s", (s.step_wall - s.forward - s.backward - s.optimizer) / steps);
        m.insert("train.data_wait_s", s.data_wait / steps);
        let prefix_steps = (MIN_OPS * STEPS_PER_OP) as f64;
        m.insert(
            "train.sub_minibatches_per_step",
            self.prefix.sub_minibatches as f64 / prefix_steps,
        );
        m.insert("train.used_traces", self.prefix.used as f64);
        m.insert("train.dropped_traces", self.prefix.dropped as f64);
        m.insert("train.final_loss", self.prefix.final_loss);
        m.insert("data.sort_s", self.sort_s);
        m.insert("data.sampler_plan_ms", s.plan_s * 1e3 / s.plans as f64);
        m.insert("data.get_many_us_per_trace", s.data_wait * 1e6 / (steps * BATCH as f64));
        let fwd = self.trainer.net.forward_flops(BATCH, self.mean_steps);
        m.insert("tensor.flops_per_step", training_flops(fwd) as f64);

        trace_pipeline(rec, self.seed, 1_000, &self.scratch).report_data(m);
        tensor_probes(rec, self.mean_steps, m);
        nn_probes(rec, self.mean_steps, m);
    }
}
