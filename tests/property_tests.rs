//! Property-based tests over the core invariants (proptest).

use etalumis_core::{Executor, FnProgram, ObserveMap, PriorProposer, SimCtx, SimCtxExt};
use etalumis_distributions::{Distribution, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying a recorded trace reproduces it exactly: same values, same
    /// addresses, same log probabilities (determinism of the executor).
    #[test]
    fn replaying_a_trace_is_idempotent(seed in 0u64..5000) {
        let make = || FnProgram::new("m", |ctx: &mut dyn SimCtx| {
            let a = ctx.sample_f64(&Distribution::Uniform { low: -1.0, high: 1.0 }, "a");
            let k = ctx.sample_i64(&Distribution::Categorical { probs: vec![0.4, 0.6] }, "k");
            let mut s = a;
            for i in 0..=(k as usize) {
                s += ctx.sample_f64(&Distribution::Normal { mean: a, std: 0.5 }, &format!("n{i}"));
            }
            ctx.observe(&Distribution::Normal { mean: s, std: 0.3 }, "y");
            Value::Real(s)
        });
        let mut m1 = make();
        let t1 = Executor::sample_prior(&mut m1, seed);
        // Replay through a proposer that returns the recorded values.
        struct Replayer(std::collections::HashMap<etalumis_core::Address, Value>);
        impl etalumis_core::Proposer for Replayer {
            fn propose(&mut self, req: &etalumis_core::SampleRequest) -> etalumis_core::ProposalDecision {
                etalumis_core::ProposalDecision::Replay(self.0[req.address].clone())
            }
        }
        let map = t1.controlled().map(|e| (e.address.clone(), e.value.clone())).collect();
        let mut replayer = Replayer(map);
        let mut obs = ObserveMap::new();
        if let Some(y) = t1.value_by_name("y") {
            obs.insert("y".into(), y.clone());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut m2 = make();
        let t2 = Executor::execute(&mut m2, &mut replayer, &obs, &mut rng);
        prop_assert_eq!(t1.num_controlled(), t2.num_controlled());
        for (e1, e2) in t1.controlled().zip(t2.controlled()) {
            prop_assert_eq!(&e1.address, &e2.address);
            prop_assert_eq!(&e1.value, &e2.value);
            prop_assert!((e1.log_prob - e2.log_prob).abs() < 1e-12);
        }
        prop_assert!((t1.log_likelihood - t2.log_likelihood).abs() < 1e-12);
    }

    /// Importance weights are always finite for models whose likelihood has
    /// full support, and the trace-type hash is stable under re-execution
    /// with the same seed.
    #[test]
    fn weights_finite_and_types_stable(seed in 0u64..3000) {
        let mut m = etalumis_simulators::BranchingModel::standard();
        let t1 = Executor::sample_prior(&mut m, seed);
        let t2 = Executor::sample_prior(&mut m, seed);
        prop_assert_eq!(t1.trace_type(), t2.trace_type());
        prop_assert!(t1.log_weight().is_finite());
    }

    /// Wire roundtrip for arbitrary PPX sample messages with categorical
    /// distributions (exercises vectors + strings + flags together).
    #[test]
    fn ppx_categorical_roundtrip(
        probs in proptest::collection::vec(0.01f64..10.0, 1..40),
        addr in "[a-zA-Z0-9_/\\[\\]]{1,60}",
        control: bool,
    ) {
        let msg = etalumis_ppx::Message::Sample {
            address: addr,
            name: "n".into(),
            distribution: Distribution::Categorical { probs },
            control,
            replace: !control,
        };
        let payload = etalumis_ppx::wire::encode(&msg);
        let back = etalumis_ppx::wire::decode(&payload).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Dataset record encode/decode is the identity for randomized records.
    #[test]
    fn record_codec_roundtrip(seed in 0u64..2000, pruned: bool) {
        let mut m = etalumis_simulators::BranchingModel::standard();
        let trace = Executor::sample_prior(&mut m, seed);
        let rec = etalumis_data::TraceRecord::from_trace(&trace, pruned);
        let mut dict = etalumis_data::AddressDictionary::new();
        let buf = etalumis_data::encode_record(&rec, Some(&mut dict));
        let back = etalumis_data::decode_record(&buf, Some(&dict)).unwrap();
        prop_assert_eq!(back, rec);
    }

    /// Truncated-normal mixtures (the IC proposal family) always produce
    /// in-support samples with finite log-density.
    #[test]
    fn mixture_proposals_stay_in_support(
        seed in 0u64..500,
        low in -5.0f64..0.0,
        span in 0.5f64..10.0,
        m1 in -10.0f64..10.0,
        m2 in -10.0f64..10.0,
    ) {
        let d = Distribution::MixtureTruncatedNormal {
            weights: vec![0.3, 0.7],
            means: vec![m1, m2],
            stds: vec![0.5, 2.0],
            low,
            high: low + span,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let v = d.sample(&mut rng);
            let x = v.as_f64();
            prop_assert!(x >= low && x <= low + span);
            prop_assert!(d.log_prob(&v).is_finite());
        }
    }

    /// A prior run recorded straight into a `RecordBuilder` is the record
    /// `from_trace` makes of the same run's trace, for every test model and
    /// τ (rejection-loop `replace` draws included), pruned and unpruned.
    #[test]
    fn executor_built_records_equal_from_trace(seed in 0u64..100_000, pruned: bool) {
        use etalumis_core::{ProbProgram, RecordBuilder, TraceRecord};
        use etalumis_simulators as sims;
        let mut models: Vec<Box<dyn ProbProgram>> = vec![
            Box::new(sims::GaussianUnknownMean::standard()),
            Box::new(sims::BranchingModel::standard()),
            Box::new(sims::RejectionModel::standard()),
            Box::new(sims::GmmModel::standard()),
            Box::new(sims::TauDecayModel::default_model()),
            Box::new(edge_model()),
        ];
        let observes = ObserveMap::new();
        for m in &mut models {
            let trace = Executor::sample_prior(m.as_mut(), seed);
            let built = Executor::try_record_seeded(
                m.as_mut(),
                &mut PriorProposer,
                &observes,
                seed,
                RecordBuilder::new(pruned),
            )
            .unwrap();
            prop_assert_eq!(&built, &TraceRecord::from_trace(&trace, pruned), "{}", m.name());
            prop_assert_eq!(built.trace_type, trace.trace_type().0);
        }
    }

    /// A τ trace shipped as a seeded run's `PriorTrace` decodes straight
    /// into the record that `wire::decode` + `from_trace` make of it.
    #[test]
    fn prior_trace_payloads_decode_into_their_records(seed in 0u64..100_000, pruned: bool) {
        use etalumis_core::{RecordBuilder, TraceRecord};
        use etalumis_ppx::{wire, Message, SeededTrace};
        let mut tau = etalumis_simulators::TauDecayModel::default_model();
        let sent = Message::PriorTrace { trace: Executor::sample_prior(&mut tau, seed) };
        let payload = SeededTrace(wire::encode(&sent).to_vec());
        let Ok(Message::PriorTrace { trace }) = wire::decode(&payload.0) else {
            panic!("a PriorTrace did not decode as one");
        };
        let direct = payload.decode_into(RecordBuilder::new(pruned)).unwrap();
        prop_assert_eq!(direct, TraceRecord::from_trace(&trace, pruned));
    }

    /// The prior proposer never changes the distribution of results:
    /// executor log_q equals log_prior exactly under prior sampling.
    #[test]
    fn prior_proposals_have_unit_weight_ratio(seed in 0u64..3000) {
        let mut m = PriorProposer;
        let mut prog = FnProgram::new("w", |ctx: &mut dyn SimCtx| {
            let x = ctx.sample_f64(&Distribution::Gamma { shape: 2.0, rate: 1.0 }, "x");
            Value::Real(x)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let obs = ObserveMap::new();
        let t = Executor::execute(&mut prog, &mut m, &obs, &mut rng);
        prop_assert!((t.log_q - t.log_prior).abs() < 1e-12);
        prop_assert!((t.log_weight() - t.log_likelihood).abs() < 1e-12);
    }
}

/// Statements the library models leave out: nested scopes, tags, an
/// uncontrolled draw, a replaced draw after controlled ones of the same
/// name, a scalar observation first, and sometimes no observation at all.
fn edge_model() -> FnProgram<impl FnMut(&mut dyn SimCtx) -> Value> {
    FnProgram::new("edges", |ctx: &mut dyn SimCtx| {
        let k = ctx.sample_i64(&Distribution::Categorical { probs: vec![0.3, 0.7] }, "k");
        ctx.push_scope("outer");
        ctx.push_scope("");
        let u = ctx.sample_ext(&Distribution::Uniform { low: 0.0, high: 1.0 }, "u", false, false);
        ctx.tag("u", u.clone());
        ctx.pop_scope();
        for _ in 0..=k {
            ctx.sample(&Distribution::Normal { mean: 0.0, std: 1.0 }, "x");
        }
        let mut r = ctx.sample_replaced(&Distribution::Normal { mean: 0.0, std: 1.0 }, "x");
        while r.as_f64() < 0.0 {
            r = ctx.sample_replaced(&Distribution::Normal { mean: 0.0, std: 1.0 }, "x");
        }
        ctx.pop_scope();
        if k == 1 {
            ctx.observe(&Distribution::Normal { mean: u.as_f64(), std: 0.5 }, "y");
            ctx.observe(&Distribution::Bernoulli { p: 0.5 }, "b");
        }
        r
    })
}
