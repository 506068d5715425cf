//! Inference compilation: importance sampling with learned proposals.
//!
//! IC (paper §4.2–4.3) trains a neural network q(x|y) on prior samples from
//! the simulator and uses it as the IS proposal at inference time. The
//! network itself lives in `etalumis-train`; this module defines the
//! [`ProposalProvider`] interface between the engine and any proposal
//! source, and the IC importance-sampling driver.

use crate::posterior::WeightedTraces;
use etalumis_core::{
    Address, Executor, ObserveMap, ProbProgram, ProposalDecision, Proposer, SampleRequest,
};
use etalumis_distributions::{Distribution, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A source of per-address proposal distributions conditioned on an
/// observation. Implemented by the trained IC network in `etalumis-train`.
///
/// The call order is one [`condition`](ProposalProvider::condition) per
/// posterior, then per trace one [`begin_trace`](ProposalProvider::begin_trace)
/// followed by alternating `propose` / `notify` per controlled sample.
/// Whatever `condition` computes (the IC network's observation embedding)
/// stays valid for exactly as long as the caller keeps the provider mutably
/// borrowed: nothing can retrain or re-observe it in the meantime, so there
/// is no cache to invalidate. [`IcProposer`] packages that order.
pub trait ProposalProvider {
    /// Once per posterior: take in the observed value every following trace
    /// is conditioned on (the IC network runs its 3DCNN here, and only here).
    fn condition(&mut self, observation: &Value);

    /// Start of each trace: reset the per-trace state (the IC network zeroes
    /// its LSTM state and forgets the previous sample).
    fn begin_trace(&mut self);

    /// Proposal for the sample statement at `address` with prior `prior`.
    /// `None` falls back to the prior (e.g. unseen address).
    fn propose(&mut self, address: &Address, prior: &Distribution) -> Option<Distribution>;

    /// Observe the realized value (fed back as the next LSTM input).
    fn notify(&mut self, address: &Address, prior: &Distribution, value: &Value);
}

/// Adapter: drives a conditioned [`ProposalProvider`] as an executor
/// [`Proposer`]. It can only be built by conditioning the provider, and it
/// holds the provider's `&mut` borrow for as long as it lives — one
/// `IcProposer` is one posterior's worth of traces on one observation.
pub struct IcProposer<'a, P: ProposalProvider> {
    provider: &'a mut P,
}

impl<'a, P: ProposalProvider> IcProposer<'a, P> {
    /// Condition `provider` on the value `observes` registers for the
    /// observe statement named `observe_name` (e.g. `"calo"` for the tau
    /// model) and wrap it for the executor.
    ///
    /// # Panics
    /// If `observes` has no value under `observe_name`; the message lists
    /// the names it does have.
    pub fn condition(provider: &'a mut P, observes: &ObserveMap, observe_name: &str) -> Self {
        assert!(
            observes.contains_key(observe_name),
            "cannot condition on observe statement {observe_name:?}: the ObserveMap registers {:?}",
            {
                let mut present: Vec<&String> = observes.keys().collect();
                present.sort_unstable();
                present
            }
        );
        provider.condition(&observes[observe_name]);
        Self { provider }
    }
}

impl<P: ProposalProvider> Proposer for IcProposer<'_, P> {
    /// Per trace; the observation was taken at [`IcProposer::condition`].
    fn begin_trace(&mut self, _observes: &ObserveMap) {
        self.provider.begin_trace();
    }

    fn propose(&mut self, req: &SampleRequest) -> ProposalDecision {
        match self.provider.propose(req.address, req.dist) {
            Some(q) => ProposalDecision::Proposal(q),
            None => ProposalDecision::Prior,
        }
    }

    fn notify(&mut self, req: &SampleRequest, value: &Value) {
        self.provider.notify(req.address, req.dist, value);
    }
}

/// Importance sampling guided by a trained proposal provider: the provider
/// is conditioned on `observes[observe_name]` once, then proposes for all
/// `n` traces.
pub fn ic_importance_sampling<P: ProposalProvider>(
    program: &mut dyn ProbProgram,
    observes: &ObserveMap,
    observe_name: &str,
    provider: &mut P,
    n: usize,
    seed: u64,
) -> WeightedTraces {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut traces = Vec::with_capacity(n);
    let mut log_weights = Vec::with_capacity(n);
    let mut proposer = IcProposer::condition(provider, observes, observe_name);
    for _ in 0..n {
        let t = Executor::execute(program, &mut proposer, observes, &mut rng);
        log_weights.push(t.log_weight());
        traces.push(t);
    }
    WeightedTraces::new(traces, log_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_simulators::GaussianUnknownMean;

    /// An oracle provider that proposes the *analytic posterior* of the
    /// conjugate Gaussian — the ideal IC network. With it, every importance
    /// weight should be (nearly) equal and ESS ≈ N.
    struct OracleProvider {
        model: GaussianUnknownMean,
        ys: Vec<f64>,
    }

    impl ProposalProvider for OracleProvider {
        fn condition(&mut self, _obs: &Value) {}
        fn begin_trace(&mut self) {}

        fn propose(&mut self, address: &Address, _prior: &Distribution) -> Option<Distribution> {
            assert!(address.base.contains("mu"));
            let (m, s) = self.model.posterior(&self.ys);
            Some(Distribution::Normal { mean: m, std: s })
        }

        fn notify(&mut self, _a: &Address, _p: &Distribution, _v: &Value) {}
    }

    #[test]
    fn oracle_proposals_give_near_perfect_ess() {
        let mut model = GaussianUnknownMean::standard();
        let ys = vec![1.0, 1.4];
        let mut observes = ObserveMap::new();
        for (i, &y) in ys.iter().enumerate() {
            observes.insert(format!("y{i}"), Value::Real(y));
        }
        let mut oracle = OracleProvider { model: GaussianUnknownMean::standard(), ys: ys.clone() };
        let n = 4_000;
        let post = ic_importance_sampling(&mut model, &observes, "y0", &mut oracle, n, 1);
        // Perfect proposal ⇒ constant weights ⇒ ESS ≈ N.
        let ess = post.effective_sample_size();
        assert!(ess > 0.98 * n as f64, "oracle ESS {ess} of {n}");
        let (mean, std) = post.mean_std(|t| t.value_by_name("mu").unwrap().as_f64());
        let (am, astd) = model.posterior(&ys);
        assert!((mean - am).abs() < 0.05);
        assert!((std - astd).abs() < 0.05);
        // Compare against prior-proposal IS at the same budget: lower ESS.
        let prior_post = crate::is::importance_sampling(&mut model, &observes, n, 2);
        assert!(
            prior_post.effective_sample_size() < 0.9 * ess,
            "prior ESS {} should trail oracle ESS {ess}",
            prior_post.effective_sample_size()
        );
    }

    #[test]
    fn fallback_to_prior_when_provider_declines() {
        struct Decline;
        impl ProposalProvider for Decline {
            fn condition(&mut self, _obs: &Value) {}
            fn begin_trace(&mut self) {}
            fn propose(&mut self, _a: &Address, _p: &Distribution) -> Option<Distribution> {
                None
            }
            fn notify(&mut self, _a: &Address, _p: &Distribution, _v: &Value) {}
        }
        let mut model = GaussianUnknownMean::standard();
        let mut observes = ObserveMap::new();
        observes.insert("y0".into(), Value::Real(0.5));
        observes.insert("y1".into(), Value::Real(0.5));
        let mut d = Decline;
        let post = ic_importance_sampling(&mut model, &observes, "y0", &mut d, 5_000, 3);
        // Declining provider behaves exactly like prior IS.
        let (mean, _) = post.mean_std(|t| t.value_by_name("mu").unwrap().as_f64());
        let (am, _) = model.posterior(&[0.5, 0.5]);
        assert!((mean - am).abs() < 0.06, "{mean} vs {am}");
    }

    #[test]
    #[should_panic(
        expected = "cannot condition on observe statement \"calo\": the ObserveMap registers [\"y0\", \"y1\"]"
    )]
    fn missing_observe_name_fails_up_front_naming_the_keys() {
        // The provider is never reached, let alone handed a `Value::Unit`.
        struct Unreachable;
        impl ProposalProvider for Unreachable {
            fn condition(&mut self, obs: &Value) {
                unreachable!("conditioned on {obs:?}");
            }
            fn begin_trace(&mut self) {}
            fn propose(&mut self, _a: &Address, _p: &Distribution) -> Option<Distribution> {
                None
            }
            fn notify(&mut self, _a: &Address, _p: &Distribution, _v: &Value) {}
        }
        let mut model = GaussianUnknownMean::standard();
        let mut observes = ObserveMap::new();
        observes.insert("y1".into(), Value::Real(0.5));
        observes.insert("y0".into(), Value::Real(0.5));
        ic_importance_sampling(&mut model, &observes, "calo", &mut Unreachable, 1, 0);
    }
}
