//! Learnability oracles: a briefly trained IC network learns each proposal
//! head family, measured against the exact Bayes floor.
//!
//! The model is [`VoxelMeanModel`]: μ from a Normal, a Uniform or a
//! Categorical prior (one per head family: Gaussian, truncated-normal
//! mixture, categorical), and an 8×13×13 grid of N(μ, σ) voxels, so the
//! network must find the voxel mean through its 3DCNN. Each oracle trains
//! [`STEPS`] minibatches of [`BATCH`] fresh prior traces, then scores
//! [`HELD_OUT`] other prior traces:
//!
//! * **Gain.** The mean of log q(μ | y) − log p(μ) under the proposals
//!   inference hands out must reach [`MIN_GAIN`] nats.
//! * **Floor.** The held-out IC loss, the mean of −log q(μ | y), exceeds the
//!   exact mean of −log p(μ | y) by E_y KL(p(μ | y) ‖ q(μ | y)) ≥ 0 in
//!   expectation. It must come within [`EPSILON`] nats of the floor, and
//!   never fall below it by more than 3 Monte Carlo standard errors of the
//!   per-trace difference: a loss under the floor is a density that does
//!   not integrate to one.
//! * **ESS.** At equal N, IC importance sampling beats prior importance
//!   sampling's effective sample size, summed over a few held-out events.
//!
//! Each oracle prints its gain, its gap to the floor and its ESS, so that
//! `cargo test --release --test learnability -- --nocapture` shows the
//! levels.

use etalumis_core::{Address, Executor, ObserveMap, TraceRecord};
use etalumis_distributions::{Distribution, Value};
use etalumis_inference::{ic_importance_sampling, importance_sampling, ProposalProvider};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_simulators::VoxelMeanModel;
use etalumis_train::{IcConfig, IcNetwork, Trainer};
use std::sync::Arc;

/// Training minibatches.
const STEPS: usize = 300;
/// Fresh prior traces per minibatch.
const BATCH: usize = 32;
/// Held-out prior traces scored.
const HELD_OUT: u64 = 300;
/// Least held-out gain, in nats.
const MIN_GAIN: f64 = 0.5;
/// Largest held-out gap to the Bayes floor, in nats: above the trained
/// networks' gaps (categorical 0.07, uniform 0.29, normal 0.51) and below
/// those of the same training with the CNN's upstream gradient zeroed
/// (0.76, 1.13, 1.49).
const EPSILON: f64 = 0.6;
/// Held-out events and traces per event of the ESS comparison.
const ESS_EVENTS: usize = 4;
const ESS_N: usize = 500;

/// What one oracle measured.
struct Report {
    gain: f64,
    loss: f64,
    floor: f64,
    /// Standard error of the mean per-trace gap (loss minus floor).
    gap_se: f64,
    ess_ic: f64,
    ess_prior: f64,
}

fn observation(rec: &TraceRecord) -> Value {
    Value::Tensor(Arc::new(rec.observation.clone()))
}

fn draw(model: &mut VoxelMeanModel, seed: u64) -> TraceRecord {
    TraceRecord::from_trace(&Executor::sample_prior(model, seed), true)
}

fn train_and_score(prior: Distribution) -> Report {
    let mut model = VoxelMeanModel::oracle(prior);
    let net = IcNetwork::new(IcConfig::small(model.dims, 1));
    let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(2e-3)));
    trainer.grad_clip = Some(10.0);
    for step in 0..STEPS {
        let seeds = step * BATCH..(step + 1) * BATCH;
        let batch: Vec<TraceRecord> = seeds.map(|s| draw(&mut model, s as u64)).collect();
        trainer.step(&batch);
    }
    let held_out: Vec<TraceRecord> = (0..HELD_OUT).map(|i| draw(&mut model, 1 << 40 | i)).collect();
    let (mut gain, mut loss, mut floor, mut gaps) = (0.0, 0.0, 0.0, Vec::new());
    for rec in &held_out {
        let e = &rec.entries[0];
        let mut state = trainer.net.condition(&observation(rec));
        trainer.net.begin_trace(&mut state);
        let q = trainer.net.propose(&mut state, &Address::parse(&e.address), &e.distribution);
        gain +=
            q.expect("a registered address").log_prob(&e.value) - e.distribution.log_prob(&e.value);
        let y = &rec.observation.data;
        let y_mean = y.iter().map(|&v| v as f64).sum::<f64>() / y.len() as f64;
        let f = model.neg_log_posterior(e.value.as_f64(), y_mean).expect("closed form");
        let l = trainer.evaluate(std::slice::from_ref(rec));
        loss += l;
        floor += f;
        gaps.push(l - f);
    }
    let n = HELD_OUT as f64;
    let mean_gap = (loss - floor) / n;
    let var = gaps.iter().map(|g| (g - mean_gap).powi(2)).sum::<f64>() / (n - 1.0);
    let (mut ess_ic, mut ess_prior) = (0.0, 0.0);
    let name = VoxelMeanModel::OBSERVE_NAME;
    for (seed, rec) in (7..).zip(&held_out[..ESS_EVENTS]) {
        let observes = ObserveMap::from([(name.to_string(), observation(rec))]);
        ess_ic += ic_importance_sampling(&model, &observes, name, &mut trainer.net, ESS_N, seed)
            .effective_sample_size();
        ess_prior +=
            importance_sampling(&mut model, &observes, ESS_N, seed).effective_sample_size();
    }
    Report {
        gain: gain / n,
        loss: loss / n,
        floor: floor / n,
        gap_se: (var / n).sqrt(),
        ess_ic,
        ess_prior,
    }
}

/// Train and score one family; print the levels, then fail with every
/// check that did not hold.
fn check(family: &str, prior: Distribution) {
    let r = train_and_score(prior);
    let gap = r.loss - r.floor;
    println!(
        "learnability {family}: held-out gain {:+.3} nats; IC loss {:.3} vs Bayes floor {:.3}, \
         gap {gap:+.3} ± {:.3} (ε {EPSILON}); ESS over {ESS_EVENTS} events at N = {ESS_N}: \
         IC {:.1}, prior {:.1}",
        r.gain, r.loss, r.floor, r.gap_se, r.ess_ic, r.ess_prior
    );
    let failed: Vec<&str> = [
        (r.gain < MIN_GAIN, "held-out gain under MIN_GAIN"),
        (gap > EPSILON, "IC loss more than EPSILON above the Bayes floor"),
        (gap < -3.0 * r.gap_se, "IC loss under the Bayes floor by more than 3 standard errors"),
        (r.ess_ic <= r.ess_prior, "IC ESS not above prior-IS ESS"),
    ]
    .into_iter()
    .filter_map(|(bad, what)| bad.then_some(what))
    .collect();
    assert!(failed.is_empty(), "{family}: {failed:?}");
}

#[test]
fn a_normal_prior_is_learned_to_its_floor() {
    check("normal", Distribution::Normal { mean: 0.0, std: 1.0 });
}

#[test]
fn a_uniform_prior_is_learned_to_its_floor() {
    check("uniform", Distribution::Uniform { low: -1.0, high: 1.0 });
}

#[test]
fn a_categorical_prior_is_learned_to_its_floor() {
    check("categorical", Distribution::Categorical { probs: vec![0.2, 0.3, 0.5] });
}
