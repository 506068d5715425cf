//! Integration: the full inference-compilation pipeline — dataset
//! generation, sorting, distributed training, guided inference — improves
//! over prior-proposal importance sampling on the conjugate Gaussian model,
//! where the posterior is known exactly.

use etalumis::prelude::*;
use etalumis_core::Address;
use etalumis_data::{generate_dataset, sort_dataset, TraceRecord};
use etalumis_inference::ProposalProvider;
use etalumis_nn::{Adam, LrSchedule};
use etalumis_simulators::{DetectorConfig, TauDecayConfig};
use etalumis_train::{train_distributed, AllReduceStrategy, DistConfig, IcConfig, InferenceStats};

#[test]
fn ic_beats_prior_is_on_conjugate_gaussian() {
    // Train an IC network for the conjugate Gaussian and verify the learned
    // proposal yields (a) correct posterior moments and (b) higher ESS than
    // prior proposals at equal sample budget.
    let mut model = GaussianUnknownMean::standard();
    let records: Vec<TraceRecord> = (0..1024)
        .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut model, s), true))
        .collect();
    let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 13));
    net.pregenerate(records.iter());
    let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(2e-3)));
    trainer.grad_clip = Some(10.0);
    for step in 0..400 {
        let lo = (step * 64) % records.len();
        let hi = (lo + 64).min(records.len());
        trainer.step(&records[lo..hi]);
    }
    // Note: the observation fed to the network is y0 (the conditioning
    // statement named in ic_importance_sampling).
    let ys = [1.3, 1.3];
    let mut obs = ObserveMap::new();
    obs.insert("y0".into(), Value::Real(ys[0]));
    obs.insert("y1".into(), Value::Real(ys[1]));
    let n = 3000;
    let post_ic = ic_importance_sampling(&mut model, &obs, "y0", &mut trainer.net, n, 5);
    let post_prior = importance_sampling(&mut model, &obs, n, 5);
    let f = |t: &etalumis_core::Trace| t.value_by_name("mu").unwrap().as_f64();
    let (am, astd) = model.posterior(&ys);
    let (im, istd) = post_ic.mean_std(f);
    assert!((im - am).abs() < 0.08, "IC mean {im} vs analytic {am}");
    assert!((istd - astd).abs() < 0.08, "IC std {istd} vs analytic {astd}");
    let ess_ic = post_ic.effective_sample_size();
    let ess_prior = post_prior.effective_sample_size();
    assert!(ess_ic > ess_prior, "trained proposals must beat prior ESS: {ess_ic} vs {ess_prior}");
}

#[test]
fn distributed_pipeline_runs_end_to_end_on_disk() {
    // generate -> sort -> distributed train -> guided inference, all
    // through the on-disk dataset path.
    let dir = std::env::temp_dir().join(format!("etalumis_it_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut model = etalumis_simulators::BranchingModel::standard();
    let ds = generate_dataset(&mut model, 256, 64, &dir, 11, true).unwrap();
    let sorted = sort_dataset(&ds, &dir.join("sorted"), 64).unwrap();
    assert!(sorted.is_sorted());
    let dist = DistConfig {
        ranks: 2,
        minibatch_per_rank: 16,
        epochs: 4,
        strategy: AllReduceStrategy::SparseConcat,
        lr: LrSchedule::Constant(2e-3),
        seed: 3,
        ..Default::default()
    };
    let (mut net, report) =
        train_distributed(&sorted, IcConfig::small([1, 1, 1], 21), &dist).unwrap();
    let n = report.losses.len();
    assert!(n >= 8);
    assert!(
        report.losses[n - 1] < report.losses[0],
        "loss {} -> {}",
        report.losses[0],
        report.losses[n - 1]
    );
    // Guided inference with the trained net.
    let mut obs = ObserveMap::new();
    obs.insert("y".into(), Value::Real(0.4));
    let post = ic_importance_sampling(&mut model, &obs, "y", &mut net, 500, 1);
    assert!(post.effective_sample_size() > 10.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn proptest_style_many_seeds_never_panic() {
    // Robustness: the whole prior/record path on the tau model across seeds.
    let mut model = TauDecayModel::default_model();
    for seed in 0..15 {
        let t = Executor::sample_prior(&mut model, seed * 7919);
        let rec = TraceRecord::from_trace(&t, true);
        assert!(rec.num_controlled() >= 4);
        assert!(t.log_joint().is_finite());
    }
}

/// A τ model on a 4×5×5 detector: every address kind of the full model
/// (uniform momenta, the categorical channel, per-particle draws) at a size
/// a debug-build test can train on.
fn tiny_tau() -> TauDecayModel {
    TauDecayModel::new(TauDecayConfig {
        detector: DetectorConfig { depth: 4, height: 5, width: 5, ..Default::default() },
        obs_noise_std: 0.8,
        ..Default::default()
    })
}

/// Prior traces of `model`, a network pregenerated on them and trained for
/// `steps` minibatches of 32, and the observation of one more prior event.
fn briefly_trained(
    model: &mut dyn ProbProgram,
    obs_dims: [usize; 3],
    observe_name: &str,
    steps: usize,
) -> (Trainer<Adam>, Vec<TraceRecord>, ObserveMap) {
    let records: Vec<TraceRecord> = (0..96)
        .map(|s| TraceRecord::from_trace(&Executor::sample_prior(model, 1_000 + s), true))
        .collect();
    let mut net = IcNetwork::new(IcConfig::small(obs_dims, 17));
    net.pregenerate(records.iter());
    let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(2e-3)));
    for step in 0..steps {
        trainer.step(&records[(step % 3) * 32..(step % 3 + 1) * 32]);
    }
    let truth = Executor::sample_prior(model, 77);
    let mut observes = ObserveMap::new();
    observes.insert(observe_name.into(), truth.first_observed().unwrap().clone());
    (trainer, records, observes)
}

/// The parent commit's conditioning, as the reference: the observation is
/// embedded again at the start of every trace.
struct ReembedEveryTrace<'a> {
    net: &'a mut IcNetwork,
    observation: Value,
}

impl ProposalProvider for ReembedEveryTrace<'_> {
    fn condition(&mut self, observation: &Value) {
        self.observation = observation.clone();
    }
    fn begin_trace(&mut self) {
        self.net.condition(&self.observation);
        self.net.begin_trace();
    }
    fn propose(&mut self, address: &Address, prior: &Distribution) -> Option<Distribution> {
        self.net.propose(address, prior)
    }
    fn notify(&mut self, address: &Address, prior: &Distribution, value: &Value) {
        self.net.notify(address, prior, value);
    }
}

fn assert_bit_equal(a: &WeightedTraces, b: &WeightedTraces, ctx: &str) {
    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.log_weights), bits(&b.log_weights), "log-weights, {ctx}");
    assert_eq!(a.traces.len(), b.traces.len(), "{ctx}");
    for (i, (ta, tb)) in a.traces.iter().zip(&b.traces).enumerate() {
        assert_eq!(ta.entries.len(), tb.entries.len(), "trace {i} length, {ctx}");
        for (ea, eb) in ta.entries.iter().zip(&tb.entries) {
            assert_eq!(ea.address, eb.address, "trace {i}, {ctx}");
            assert_eq!(ea.value, eb.value, "trace {i} at {}, {ctx}", ea.address);
            assert_eq!(ea.log_q.to_bits(), eb.log_q.to_bits(), "trace {i} log_q, {ctx}");
            assert_eq!(ea.log_prob.to_bits(), eb.log_prob.to_bits(), "trace {i} log_p, {ctx}");
        }
    }
}

#[test]
fn conditioning_once_is_bit_identical_to_reembedding_every_trace() {
    let mut tau = tiny_tau();
    let mut gauss = GaussianUnknownMean::standard();
    let cases: [(&mut dyn ProbProgram, [usize; 3], &str); 2] =
        [(&mut tau, [4, 5, 5], TauDecayModel::OBSERVE_NAME), (&mut gauss, [1, 1, 1], "y0")];
    for (model, dims, observe_name) in cases {
        let (mut trainer, _, observes) = briefly_trained(model, dims, observe_name, 3);
        for (seed, n) in [(1u64, 1usize), (2, 17), (3, 40)] {
            let once =
                ic_importance_sampling(model, &observes, observe_name, &mut trainer.net, n, seed);
            let mut reference =
                ReembedEveryTrace { net: &mut trainer.net, observation: Value::Unit };
            let every =
                ic_importance_sampling(model, &observes, observe_name, &mut reference, n, seed);
            assert_bit_equal(&once, &every, &format!("{observe_name} seed {seed} n {n}"));
            assert!(once.traces.iter().any(|t| t.log_q != t.log_prior), "proposals were used");
        }
    }
}

#[test]
fn nothing_conditioned_survives_a_training_step() {
    // Same observation, same seed, one optimizer step in between: if any
    // part of the first posterior's conditioning outlived its borrow, the
    // second posterior would reuse a stale embedding. It must instead equal
    // a posterior from a network that never ran the first one.
    let mut model = tiny_tau();
    let name = TauDecayModel::OBSERVE_NAME;
    let (mut trainer, records, observes) = briefly_trained(&mut model, [4, 5, 5], name, 2);
    let (mut fresh, _, _) = briefly_trained(&mut model, [4, 5, 5], name, 2);
    let before = ic_importance_sampling(&mut model, &observes, name, &mut trainer.net, 20, 9);
    trainer.step(&records[64..96]);
    fresh.step(&records[64..96]);
    let after = ic_importance_sampling(&mut model, &observes, name, &mut trainer.net, 20, 9);
    let expected = ic_importance_sampling(&mut model, &observes, name, &mut fresh.net, 20, 9);
    assert_bit_equal(&after, &expected, "after the step vs never conditioned before it");
    assert_ne!(before.log_weights, after.log_weights, "the step must move the proposals");
}

#[test]
fn inference_stats_count_one_embedding_and_one_lstm_step_per_controlled_sample() {
    let mut model = tiny_tau();
    let name = TauDecayModel::OBSERVE_NAME;
    let (mut trainer, _, observes) = briefly_trained(&mut model, [4, 5, 5], name, 1);
    assert_eq!(trainer.net.inference_stats(), InferenceStats::default());
    let post = ic_importance_sampling(&mut model, &observes, name, &mut trainer.net, 500, 4);
    let stats = trainer.net.inference_stats();
    // Traces that reach an address the 96 training traces never saw fall
    // back to the prior there: no LSTM step, log q = log p.
    let proposed = |t: &Trace| t.controlled().filter(|e| e.log_q != e.log_prob).count() as u64;
    let controlled: u64 = post.traces.iter().map(|t| t.num_controlled() as u64).sum();
    assert_eq!(stats.conditions, 1, "one 3DCNN forward for 500 traces");
    assert_eq!(stats.proposals, post.traces.iter().map(proposed).sum::<u64>());
    assert_eq!(stats.lstm_steps, stats.proposals);
    assert!(stats.lstm_steps <= controlled && stats.lstm_steps > controlled * 9 / 10);

    // The same counts as `ic.*` telemetry counters.
    let tel = Telemetry::enabled();
    stats.record(&tel);
    let metrics = tel.collect().snapshot();
    assert_eq!(metrics.counters["ic.conditions"], 1);
    assert_eq!(metrics.counters["ic.lstm_steps"], stats.lstm_steps);
    assert_eq!(metrics.counters["ic.proposals"], stats.proposals);
}
