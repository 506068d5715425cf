//! Property test: the time-batched training path (`time_batched_lstm:
//! true`, the default) produces **exactly** the same losses and parameter
//! gradients as the step-wise path on identically seeded networks. The fused
//! `[T·B, in]` GEMMs are row-independent and every gradient accumulation is
//! ordered to mirror the step-wise walk, so the match is bitwise, not
//! approximate. Both paths run on every kernel backend the CPU has, and each
//! backend's result is bitwise the scalar one.

use etalumis_core::Executor;
use etalumis_data::TraceRecord;
use etalumis_nn::Module;
use etalumis_simulators::BranchingModel;
use etalumis_tensor::simd::{available_backends, avx512_available, set_backend_override, Backend};
use etalumis_train::{IcConfig, IcNetwork};
use proptest::prelude::*;
use std::collections::HashMap;

fn records(n: usize, seed0: u64) -> Vec<TraceRecord> {
    let mut m = BranchingModel::standard();
    (0..n)
        .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, seed0 + s as u64), true))
        .collect()
}

fn grads_and_loss(
    batched: bool,
    seed: u64,
    recs: &[TraceRecord],
) -> (f64, Vec<(String, Vec<f32>)>) {
    let mut cfg = IcConfig::small([1, 1, 1], seed);
    cfg.time_batched_lstm = batched;
    let mut net = IcNetwork::new(cfg);
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
    (loss, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn time_batched_training_matches_stepwise_bitwise(
        seed in 0u64..1_000,
        n in 8usize..40,
    ) {
        if !avx512_available() {
            eprintln!("note: no avx512f on this CPU; the Avx512 arm was not exercised");
        }
        let recs = records(n, seed * 1_000);
        let run = |be: Backend| {
            set_backend_override(Some(be));
            let out = (grads_and_loss(false, seed, &recs), grads_and_loss(true, seed, &recs));
            set_backend_override(None);
            out
        };
        let scalar = run(Backend::Scalar);
        for be in available_backends() {
            let ((loss_step, grads_step), (loss_batch, grads_batch)) = run(be);
            prop_assert_eq!(loss_step.to_bits(), loss_batch.to_bits(), "{:?} loss differs", be);
            prop_assert_eq!(grads_step.len(), grads_batch.len());
            for ((na, ga), (nb, gb)) in grads_step.iter().zip(grads_batch.iter()) {
                prop_assert_eq!(na, nb);
                prop_assert_eq!(ga, gb, "{:?} gradient {} differs", be, na);
            }
            prop_assert_eq!(loss_batch.to_bits(), scalar.1 .0.to_bits(), "{:?} vs scalar loss", be);
            prop_assert_eq!(&grads_batch, &scalar.1 .1, "{:?} vs scalar gradients", be);
        }
    }
}
