//! Property test: the time-batched training path on every kernel backend.
//!
//! * Each backend's loss and every parameter gradient are **bitwise** the
//!   scalar backend's: the fused `[T·B, in]` GEMMs and every gradient
//!   accumulation run in one fixed order whatever the vector width.
//! * The training forward agrees with the step-wise inference path
//!   ([`ProposalProvider::propose`], one B = 1 `Lstm::step_rows_inference`
//!   per sample): the summed sub-minibatch losses are `−Σ log q` of the
//!   recorded values under the proposals inference hands out. The heads'
//!   fused losses and the proposal distributions' densities are evaluated
//!   in different orders, so this one is close, not bitwise.

use etalumis_core::{Address, Executor};
use etalumis_data::TraceRecord;
use etalumis_distributions::{Distribution, Value};
use etalumis_inference::ProposalProvider;
use etalumis_nn::{Module, CATEGORICAL_PRIOR_MIX};
use etalumis_simulators::BranchingModel;
use etalumis_tensor::simd::{available_backends, avx512_available, set_backend_override, Backend};
use etalumis_train::{IcConfig, IcNetwork};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn records(n: usize, seed0: u64) -> Vec<TraceRecord> {
    let mut m = BranchingModel::standard();
    (0..n)
        .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, seed0 + s as u64), true))
        .collect()
}

/// The summed training loss over one sub-minibatch per trace type, every
/// parameter gradient, and `−Σ log q` of the same traces on the inference
/// path of the same network.
fn train_and_infer(seed: u64, recs: &[TraceRecord]) -> (f64, Vec<(String, Vec<f32>)>, f64) {
    let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], seed));
    net.pregenerate(recs.iter());
    let mut by_type: HashMap<u64, Vec<&TraceRecord>> = HashMap::new();
    for r in recs {
        by_type.entry(r.trace_type).or_default().push(r);
    }
    let mut types: Vec<u64> = by_type.keys().copied().collect();
    types.sort_unstable();
    net.zero_grad();
    let mut loss = 0.0;
    for t in types {
        loss += net.loss_sub_minibatch(&by_type[&t]).unwrap();
    }
    let mut grads = Vec::new();
    net.visit_params("", &mut |n, p| grads.push((n.to_string(), p.grad.data().to_vec())));
    let mut neg_log_q = 0.0;
    for rec in recs {
        let mut state = net.condition(&Value::Tensor(Arc::new(rec.observation.clone())));
        net.begin_trace(&mut state);
        for e in rec.controlled() {
            let address = Address::parse(&e.address);
            let q = net.propose(&mut state, &address, &e.distribution).unwrap();
            neg_log_q -= match (&q, &e.distribution) {
                // Undo the prior mixing to recover the network's own q.
                (
                    Distribution::Categorical { probs: qp },
                    Distribution::Categorical { probs: pp },
                ) => {
                    let k = e.value.as_i64() as usize;
                    let prior = pp[k] / pp.iter().sum::<f64>();
                    ((qp[k] - CATEGORICAL_PRIOR_MIX * prior) / (1.0 - CATEGORICAL_PRIOR_MIX)).ln()
                }
                _ => q.log_prob(&e.value),
            };
            net.notify(&mut state, &address, &e.distribution, &e.value);
        }
    }
    (loss, grads, neg_log_q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn time_batched_training_is_backend_exact_and_matches_stepwise_inference(
        seed in 0u64..1_000,
        n in 8usize..40,
    ) {
        if !avx512_available() {
            eprintln!("note: no avx512f on this CPU; the Avx512 arm was not exercised");
        }
        let recs = records(n, seed * 1_000);
        let run = |be: Backend| {
            set_backend_override(Some(be));
            let out = train_and_infer(seed, &recs);
            set_backend_override(None);
            out
        };
        let (scalar_loss, scalar_grads, _) = run(Backend::Scalar);
        for be in available_backends() {
            let (loss, grads, neg_log_q) = run(be);
            prop_assert_eq!(loss.to_bits(), scalar_loss.to_bits(), "{:?} vs scalar loss", be);
            prop_assert_eq!(grads.len(), scalar_grads.len());
            for ((na, ga), (nb, gb)) in grads.iter().zip(&scalar_grads) {
                prop_assert_eq!(na, nb);
                prop_assert_eq!(ga, gb, "{:?} vs scalar gradient {}", be, na);
            }
            prop_assert!(
                (loss - neg_log_q).abs() <= 1e-6 * loss.abs().max(1.0),
                "{:?}: training loss {} vs step-wise inference -log q {}",
                be,
                loss,
                neg_log_q
            );
        }
    }
}
