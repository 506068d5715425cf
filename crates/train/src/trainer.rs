//! The IC training step (the per-rank inner loop of Algorithm 2).
//!
//! A minibatch is split into sub-minibatches by trace type (Algorithm 1),
//! each processed in one batched forward/backward pass; gradients are scaled
//! by 1/B, optionally clipped, and applied with the configured optimizer.
//! Every phase runs as kernel-pool tasks over a partition that depends only
//! on shapes (images, 32-row LSTM blocks, proposal-head addresses,
//! parameter tensors), so a step is bit-identical at any thread count.
//! [`Trainer::step`] is both halves back to back; a
//! [`TrainPlan`](crate::TrainPlan) runs the same halves with its batch
//! source and, on more than one rank, the allreduce in between.

use crate::network::IcNetwork;
use etalumis_data::TraceRecord;
use etalumis_nn::{clip_grad_norm, par_map_params, Module, Optimizer};
use etalumis_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-iteration wall-time breakdown (the phases of Figure 4).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Minibatch read from the dataset (seconds).
    pub batch_read: f64,
    /// NN forward (CNN + LSTM).
    pub forward: f64,
    /// NN backward (heads + BPTT + CNN backward).
    pub backward: f64,
    /// Optimizer update.
    pub optimizer: f64,
    /// Gradient/loss synchronization (distributed only).
    pub sync: f64,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> f64 {
        self.batch_read + self.forward + self.backward + self.optimizer + self.sync
    }

    /// Elementwise sum.
    pub fn add(&mut self, other: &PhaseTimings) {
        self.batch_read += other.batch_read;
        self.forward += other.forward;
        self.backward += other.backward;
        self.optimizer += other.optimizer;
        self.sync += other.sync;
    }

    /// Elementwise scale.
    pub fn scale(&self, s: f64) -> PhaseTimings {
        PhaseTimings {
            batch_read: self.batch_read * s,
            forward: self.forward * s,
            backward: self.backward * s,
            optimizer: self.optimizer * s,
            sync: self.sync * s,
        }
    }
}

/// Split records into sub-minibatches sharing one trace type (Algorithm 1).
pub fn sub_minibatches(records: &[TraceRecord]) -> Vec<Vec<&TraceRecord>> {
    let mut by_type: BTreeMap<u64, Vec<&TraceRecord>> = BTreeMap::new();
    for r in records {
        by_type.entry(r.trace_type).or_default().push(r);
    }
    let mut subs: Vec<Vec<&TraceRecord>> = by_type.into_values().collect();
    // Deterministic order (largest first helps batching efficiency).
    subs.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].trace_type.cmp(&b[0].trace_type)));
    subs
}

/// Result of one training minibatch.
#[derive(Clone, Copy, Debug)]
pub struct StepResult {
    /// Mean −log q loss over the traces actually used.
    pub loss: f64,
    /// Traces used (unknown-address traces are dropped when frozen).
    pub used: usize,
    /// Traces dropped.
    pub dropped: usize,
    /// Number of sub-minibatches (1 = perfectly homogeneous batch).
    pub sub_minibatches: usize,
    /// Phase timings.
    pub timings: PhaseTimings,
}

/// Compute gradients for one minibatch (no optimizer step): the shared part
/// of serial and distributed training. Gradients are left scaled by 1/used.
pub fn accumulate_minibatch(net: &mut IcNetwork, records: &[TraceRecord]) -> StepResult {
    net.zero_grad();
    let subs = sub_minibatches(records);
    let n_subs = subs.len();
    let mut loss_sum = 0.0;
    let mut used = 0usize;
    let mut dropped = 0usize;
    let mut timings = PhaseTimings::default();
    for sub in subs {
        match net.loss_sub_minibatch(&sub) {
            Some(l) => {
                loss_sum += l;
                used += sub.len();
                let (f, b) = net.last_phase_secs;
                timings.forward += f;
                timings.backward += b;
            }
            None => dropped += sub.len(),
        }
    }
    if used > 0 {
        let scale = 1.0 / used as f32;
        par_map_params(net, &|p| p.grad.scale(scale));
    }
    StepResult {
        loss: if used > 0 { loss_sum / used as f64 } else { f64::NAN },
        used,
        dropped,
        sub_minibatches: n_subs,
        timings,
    }
}

/// Emit the active kernel backend, pool size, and dispatch counters into a
/// telemetry stream: `kernel.backend_avx2` (the AVX2 kernels run: the
/// `avx2_fma` or `avx512` backend), `kernel.backend_avx512` and
/// `kernel.pool_threads` gauges (which land in `RUN_METRICS.json` and the
/// run-report header) plus `kernel.dispatch_avx512` /
/// `kernel.dispatch_avx2` / `kernel.dispatch_scalar` counters drained from
/// the process-wide dispatch tally, and `kernel.pool_jobs` /
/// `kernel.pool_inline` / `kernel.pool_parks` counters drained from the
/// pool's (runs handed to workers, runs done inline because nested or
/// serial, workers parked after their spin ran out). The jobs and inline
/// counts are deterministic for a given pool size; the parks are a meter.
pub fn record_kernel_telemetry(tel: &Telemetry) {
    if !tel.is_enabled() {
        return;
    }
    use etalumis_tensor::simd::{self, Backend};
    let active = simd::active_backend();
    let flag = |on: bool| if on { 1.0 } else { 0.0 };
    tel.gauge("kernel.backend_avx2", flag(active != Backend::Scalar));
    tel.gauge("kernel.backend_avx512", flag(active == Backend::Avx512));
    tel.gauge("kernel.pool_threads", etalumis_tensor::pool::num_threads() as f64);
    let counts = simd::take_dispatch_counts();
    let pool = etalumis_tensor::pool::take_counts();
    for (name, n) in [
        ("kernel.dispatch_avx512", counts.avx512),
        ("kernel.dispatch_avx2", counts.avx2),
        ("kernel.dispatch_scalar", counts.scalar),
        ("kernel.pool_jobs", pool.jobs),
        ("kernel.pool_inline", pool.inline),
        ("kernel.pool_parks", pool.parks),
    ] {
        if n > 0 {
            tel.count(name, n);
        }
    }
}

/// A network and everything that updates it: optimizer, clipping, telemetry.
/// A clone is a data-parallel replica (see [`IcNetwork`]).
#[derive(Clone)]
pub struct Trainer<O: Optimizer> {
    /// The network being trained.
    pub net: IcNetwork,
    /// Optimizer.
    pub opt: O,
    /// Optional global-norm gradient clip.
    pub grad_clip: Option<f64>,
    /// Telemetry handle (disabled by default). When enabled, each
    /// [`Trainer::step`] emits a `train.step` span with nested
    /// `train.forward` / `train.backward` / `train.optimizer` phase spans,
    /// a `train.sub_minibatches` gauge, and a `train.steps` counter.
    pub tel: Telemetry,
}

impl<O: Optimizer> Trainer<O> {
    /// New trainer.
    pub fn new(net: IcNetwork, opt: O) -> Self {
        Self { net, opt, grad_clip: None, tel: Telemetry::disabled() }
    }

    /// Attach a telemetry handle (builder form of setting [`Trainer::tel`]).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// One synchronous step on a minibatch; returns the step result.
    pub fn step(&mut self, records: &[TraceRecord]) -> StepResult {
        let _step_span = self.tel.span("train.step");
        let mut res = accumulate_minibatch(&mut self.net, records);
        self.apply(&mut res);
        res
    }

    /// The second half of a step, after [`accumulate_minibatch`] (and the
    /// allreduce, on more than one rank): clip, optimizer update, and the
    /// step's telemetry. A phase that took no time emits no span — a
    /// [`Trainer::step`] reads no batch and syncs with nobody.
    pub(crate) fn apply(&mut self, res: &mut StepResult) {
        if let Some(c) = self.grad_clip {
            clip_grad_norm(&mut self.net, c);
        }
        let t = Instant::now();
        self.opt.begin_step();
        self.opt.update_module(&mut self.net);
        res.timings.optimizer = t.elapsed().as_secs_f64();
        if self.tel.is_enabled() {
            let t = &res.timings;
            for (name, secs) in [
                ("train.batch_read", t.batch_read),
                ("train.forward", t.forward),
                ("train.backward", t.backward),
                ("train.allreduce_wait", t.sync),
                ("train.optimizer", t.optimizer),
            ] {
                if secs > 0.0 {
                    self.tel.span_record(name, Duration::from_secs_f64(secs));
                }
            }
            self.tel.gauge("train.sub_minibatches", res.sub_minibatches as f64);
            self.tel.count("train.steps", 1);
            record_kernel_telemetry(&self.tel);
        }
    }

    /// Evaluate mean loss on records without changing the network: traces
    /// that reach an unregistered address are dropped, as a frozen network
    /// drops them, so evaluation registers nothing and draws nothing from
    /// the init RNG.
    pub fn evaluate(&mut self, records: &[TraceRecord]) -> f64 {
        let frozen = std::mem::replace(&mut self.net.frozen, true);
        let res = accumulate_minibatch(&mut self.net, records);
        self.net.frozen = frozen;
        self.net.zero_grad();
        res.loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::IcConfig;
    use etalumis_core::Executor;
    use etalumis_nn::{Adam, LrSchedule};
    use etalumis_simulators::BranchingModel;

    fn records(n: usize) -> Vec<TraceRecord> {
        let mut m = BranchingModel::standard();
        (0..n)
            .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s as u64), true))
            .collect()
    }

    #[test]
    fn sub_minibatch_split_is_exhaustive_and_homogeneous() {
        let recs = records(40);
        let subs = sub_minibatches(&recs);
        let total: usize = subs.iter().map(|s| s.len()).sum();
        assert_eq!(total, 40);
        for sub in &subs {
            let t = sub[0].trace_type;
            assert!(sub.iter().all(|r| r.trace_type == t));
        }
    }

    #[test]
    fn trainer_reduces_loss_over_steps() {
        let recs = records(48);
        let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 1));
        net.pregenerate(recs.iter());
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(2e-3)));
        trainer.grad_clip = Some(10.0);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..50 {
            let res = trainer.step(&recs);
            assert_eq!(res.used, 48);
            assert_eq!(res.dropped, 0);
            if it == 0 {
                first = res.loss;
            }
            last = res.loss;
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn train_epochs_surfaces_shard_errors_instead_of_panicking() {
        use crate::TrainPlan;
        use etalumis_data::generate_dataset;
        let dir = std::env::temp_dir().join(format!("etalumis_tr_err_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = BranchingModel::standard();
        let ds = generate_dataset(&mut m, 24, 12, &dir, 5, true).unwrap();
        let mut trainer = Trainer::new(
            IcNetwork::new(IcConfig::small([1, 1, 1], 1)),
            Adam::new(LrSchedule::Constant(1e-3)),
        );
        // Healthy dataset trains fine.
        assert!(TrainPlan::epochs(&ds, 8, 1, 0).run(&mut trainer).is_ok());
        // Truncate a shard under the open dataset: the next epoch's reads
        // must return the I/O error, not abort the process.
        let bytes = std::fs::read(&ds.shards[0]).unwrap();
        std::fs::write(&ds.shards[0], &bytes[..bytes.len() / 2]).unwrap();
        let res = TrainPlan::epochs(&ds, 8, 1, 0).run(&mut trainer);
        assert!(res.is_err(), "a truncated shard must surface as Err, not a panic");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Three Adam steps with clipping, serial and on the pool, agree bit for
    /// bit: losses, weights and moments. The minibatches hold a 37-trace
    /// sub-minibatch (one full 32-row LSTM block and a 5-row one), a 3-trace
    /// one (the unpacked GEMM path), a third trace type, and a hand-built
    /// trace whose address repeats at two steps (two steps in one head task).
    #[test]
    fn parallel_step_is_bit_identical_to_serial() {
        let mut by_type: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
        for r in records(400) {
            by_type.entry(r.trace_type).or_default().push(r);
        }
        let mut types: Vec<Vec<TraceRecord>> = by_type.into_values().collect();
        types.sort_by_key(|t| std::cmp::Reverse(t.len()));
        let (big, small) = (&types[0], &types[1]);
        assert!(big.len() >= 74 && small.len() >= 6, "{} / {}", big.len(), small.len());
        let mut repeat = big[0].clone();
        let first = repeat.controlled().next().unwrap().clone();
        repeat.entries.push(first);
        repeat.trace_type ^= 1;
        let batches: Vec<Vec<TraceRecord>> = [(0, 0), (37, 3), (0, 0)]
            .iter()
            .map(|&(b0, s0)| {
                let mut batch = big[b0..b0 + 37].to_vec();
                batch.extend_from_slice(&small[s0..s0 + 3]);
                batch.push(repeat.clone());
                batch
            })
            .collect();
        let all: Vec<TraceRecord> = batches.iter().flatten().cloned().collect();
        let train = |parallel: bool| {
            etalumis_tensor::pool::with_parallel(parallel, || {
                let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 7));
                net.pregenerate(all.iter());
                let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-2)));
                trainer.grad_clip = Some(0.1);
                let mut bits: Vec<u64> = Vec::new();
                for batch in &batches {
                    let res = trainer.step(batch);
                    assert_eq!((res.used, res.sub_minibatches), (41, 3));
                    bits.push(res.loss.to_bits());
                }
                let Trainer { net, opt, .. } = &mut trainer;
                net.visit_params("", &mut |name, p| {
                    let (m, v) = opt.moments(name).unwrap();
                    for x in p.value.data().iter().chain(m).chain(v) {
                        bits.push(x.to_bits() as u64);
                    }
                });
                bits
            })
        };
        let serial = train(false);
        assert!(serial.len() > 3);
        assert!(serial == train(true), "the parallel step changed a bit");
    }

    #[test]
    fn evaluate_does_not_change_weights() {
        let recs = records(16);
        let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 2));
        net.pregenerate(recs.iter());
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
        let mut before = Vec::new();
        trainer.net.visit_params("", &mut |_, p| before.push(p.value.clone()));
        let l1 = trainer.evaluate(&recs);
        let l2 = trainer.evaluate(&recs);
        assert_eq!(l1, l2);
        let mut after = Vec::new();
        trainer.net.visit_params("", &mut |_, p| after.push(p.value.clone()));
        assert_eq!(before, after);
    }

    /// On an unfrozen network, evaluating held-out traces that reach
    /// unregistered addresses registers none of them: the address count and
    /// every parameter stay put, and the next training step is bit for bit
    /// the step of a network that never evaluated.
    #[test]
    fn evaluating_unseen_addresses_leaves_an_unfrozen_network_unchanged() {
        let (seen, unseen): (Vec<TraceRecord>, Vec<TraceRecord>) =
            records(60).into_iter().partition(|r| r.num_controlled() == 2);
        assert!(seen.len() >= 8 && unseen.len() >= 8, "{} / {}", seen.len(), unseen.len());
        let trained = || {
            let net = IcNetwork::new(IcConfig::small([1, 1, 1], 4));
            let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
            trainer.step(&seen[..8]);
            trainer
        };
        let bits = |trainer: &mut Trainer<Adam>| {
            let mut bits = Vec::new();
            trainer.net.visit_params("", &mut |name, p| {
                bits.push((name.to_string(), p.value.data().iter().map(|x| x.to_bits()).collect()));
            });
            bits
        };
        let (mut evaluated, mut reference) = (trained(), trained());
        let addresses = evaluated.net.num_addresses();
        let (dropped, kept) = (evaluated.evaluate(&unseen), evaluated.evaluate(&seen));
        assert_eq!(evaluated.net.num_addresses(), addresses);
        assert!(dropped.is_nan() && kept.is_finite(), "{dropped} / {kept}");
        let held: Vec<(String, Vec<u32>)> = bits(&mut evaluated);
        assert!(held == bits(&mut reference), "evaluation changed a parameter");
        let (a, b) = (evaluated.step(&unseen[..8]), reference.step(&unseen[..8]));
        assert_eq!((a.loss.to_bits(), a.used), (b.loss.to_bits(), b.used));
        assert!(evaluated.net.num_addresses() > addresses);
        assert!(bits(&mut evaluated) == bits(&mut reference), "the next step differs");
    }
}
