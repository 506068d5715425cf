//! Integration: the full inference-compilation pipeline — dataset
//! generation, sorting, distributed training, guided inference — improves
//! over prior-proposal importance sampling on the conjugate Gaussian model,
//! where the posterior is known exactly.

use etalumis::prelude::*;
use etalumis_data::{generate_dataset, sort_dataset, TraceRecord};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, SimulatorServer};
use etalumis_runtime::{mix_seed, MuxSimulatorPool};
use etalumis_simulators::{DetectorConfig, TauDecayConfig};
use etalumis_train::{AllReduceStrategy, IcConfig, InferenceStats, TrainPlan};

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
    let post_ic = ic_importance_sampling(&model, &obs, "y0", &mut trainer.net, n, 5);
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
    let net = IcNetwork::new(IcConfig::small([1, 1, 1], 21));
    let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(2e-3)));
    let report = TrainPlan::epochs(&sorted, 16, 4, 3)
        .ranks(2)
        .strategy(AllReduceStrategy::SparseConcat)
        .run(&mut trainer)
        .unwrap();
    let net = &mut trainer.net;
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
    let post = ic_importance_sampling(&model, &obs, "y", net, 500, 1);
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

/// The serial reference, built from public pieces: trace `i` alone on this
/// thread under `mix_seed(seed, i)` with a proposer of its own — and, with
/// `reembed`, a network conditioned again for every trace, so nothing of one
/// trace's conditioning or state reaches the next.
fn serial_reference<M: ProbProgram>(
    model: &mut M,
    observes: &ObserveMap,
    observe_name: &str,
    net: &mut IcNetwork,
    (n, seed): (usize, u64),
    reembed: bool,
) -> WeightedTraces {
    let mut run = |i: usize, factory: &IcProposerFactory<IcNetwork>| {
        Executor::execute_seeded(model, &mut factory.proposer(), observes, mix_seed(seed, i))
    };
    let traces: Vec<Trace> = if reembed {
        (0..n)
            .map(|i| run(i, &IcProposerFactory::condition(net, observes, observe_name).unwrap()))
            .collect()
    } else {
        let factory = IcProposerFactory::condition(net, observes, observe_name).unwrap();
        (0..n).map(|i| run(i, &factory)).collect()
    };
    let log_weights = traces.iter().map(Trace::log_weight).collect();
    WeightedTraces::new(traces, log_weights)
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

/// (seed, n) of the bit-identity cases.
const CASES: [(u64, usize); 3] = [(1, 1), (2, 17), (3, 40)];

#[test]
fn conditioning_once_is_bit_identical_to_reembedding_every_trace() {
    fn check<M: ProbProgram + Clone + Send + 'static>(mut model: M, dims: [usize; 3], name: &str) {
        let (mut trainer, _, observes) = briefly_trained(&mut model, dims, name, 3);
        for (seed, n) in CASES {
            let once = ic_importance_sampling(&model, &observes, name, &mut trainer.net, n, seed);
            let every =
                serial_reference(&mut model, &observes, name, &mut trainer.net, (n, seed), true);
            assert_bit_equal(&once, &every, &format!("{name} seed {seed} n {n}"));
            assert!(once.traces.iter().any(|t| t.log_q != t.log_prior), "proposals were used");
        }
    }
    check(tiny_tau(), [4, 5, 5], TauDecayModel::OBSERVE_NAME);
    check(GaussianUnknownMean::standard(), [1, 1, 1], "y0");
}

/// An in-process mux pool of K sessions, each served by its own clone of
/// `model` on a simulator-side thread.
fn inproc_mux_pool<M: ProbProgram + Clone + Send + Sync + 'static>(
    model: &M,
    k: usize,
) -> MuxSimulatorPool {
    let model = model.clone();
    MuxSimulatorPool::connect(k, "etalumis-rs", move |_| {
        let (ep, sim_side) = InProcMuxEndpoint::pair();
        let model = model.clone();
        std::thread::spawn(move || {
            let mut server = SimulatorServer::new("ic", model);
            let mut t = sim_side;
            let _ = server.serve(&mut t);
        });
        Ok(Box::new(ep) as Box<dyn MuxEndpoint>)
    })
    .unwrap()
}

#[test]
fn ic_posteriors_are_bit_identical_across_worker_counts_and_backends() {
    fn check<M: ProbProgram + Clone + Send + Sync + 'static>(
        mut model: M,
        dims: [usize; 3],
        name: &str,
    ) {
        let (mut trainer, _, observes) = briefly_trained(&mut model, dims, name, 3);
        let net = &mut trainer.net;
        for (seed, n) in CASES {
            let ctx = |run: &str| format!("{name} seed {seed} n {n}: {run}");
            let reference = serial_reference(&mut model, &observes, name, net, (n, seed), false);
            let stats = net.inference_stats();
            assert_eq!(stats.conditions, 1, "{}", ctx("serial"));
            assert_eq!(stats.lstm_steps, stats.proposals, "{}", ctx("serial"));
            assert!(stats.proposals > 0, "{}", ctx("serial"));

            let check_run = |run: &str, posterior: WeightedTraces, net: &IcNetwork| {
                assert_bit_equal(&reference, &posterior, &ctx(run));
                assert_eq!(net.inference_stats(), stats, "{}", ctx(run));
            };
            for workers in [1, 2, 3] {
                let mut pool = SimulatorPool::from_factory(workers, |_| model.clone());
                let factory = IcProposerFactory::condition(net, &observes, name).unwrap();
                let post = parallel_importance_sampling(
                    Backend::Local(&mut pool),
                    &factory,
                    &observes,
                    n,
                    seed,
                )
                .unwrap();
                drop(factory);
                check_run(&format!("local pool of {workers}"), post, net);
            }
            // K = 4 sessions on M = 1 reactor, and on the default min(cores, K).
            let mut pool = inproc_mux_pool(&model, 4);
            let factory = IcProposerFactory::condition(net, &observes, name).unwrap();
            let cfg = DatasetGenConfig { n, seed, workers: 1, ..Default::default() };
            let traces = RunPlan::new(Backend::Mux(&mut pool), &cfg)
                .proposer(&factory)
                .observes(&observes)
                .run()
                .unwrap()
                .traces;
            drop(factory);
            let log_weights = traces.iter().map(Trace::log_weight).collect();
            check_run("mux K=4 M=1", WeightedTraces::new(traces, log_weights), net);
            let factory = IcProposerFactory::condition(net, &observes, name).unwrap();
            let post =
                parallel_importance_sampling(Backend::Mux(&mut pool), &factory, &observes, n, seed)
                    .unwrap();
            drop(factory);
            check_run("mux K=4, default reactors", post, net);
            let post = ic_importance_sampling(&model, &observes, name, net, n, seed);
            check_run("ic_importance_sampling", post, net);
        }
    }
    check(tiny_tau(), [4, 5, 5], TauDecayModel::OBSERVE_NAME);
    check(GaussianUnknownMean::standard(), [1, 1, 1], "y0");
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
    let before = ic_importance_sampling(&model, &observes, name, &mut trainer.net, 20, 9);
    trainer.step(&records[64..96]);
    fresh.step(&records[64..96]);
    let after = ic_importance_sampling(&model, &observes, name, &mut trainer.net, 20, 9);
    let expected = ic_importance_sampling(&model, &observes, name, &mut fresh.net, 20, 9);
    assert_bit_equal(&after, &expected, "after the step vs never conditioned before it");
    assert_ne!(before.log_weights, after.log_weights, "the step must move the proposals");
}

#[test]
fn inference_stats_count_one_embedding_and_one_lstm_step_per_controlled_sample() {
    let mut model = tiny_tau();
    let name = TauDecayModel::OBSERVE_NAME;
    let (mut trainer, _, observes) = briefly_trained(&mut model, [4, 5, 5], name, 1);
    assert_eq!(trainer.net.inference_stats(), InferenceStats::default());
    let post = ic_importance_sampling(&model, &observes, name, &mut trainer.net, 500, 4);
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
