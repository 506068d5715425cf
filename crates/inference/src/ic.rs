//! Inference compilation: importance sampling with learned proposals.
//!
//! IC (paper §4.2–4.3) trains a neural network q(x|y) on prior samples from
//! the simulator and uses it as the IS proposal at inference time. The
//! network itself lives in `etalumis-train`; this module defines the
//! [`ProposalProvider`] interface between the engine and any proposal
//! source, the [`IcProposerFactory`] that shares one conditioned provider
//! with every worker of the runtime, and the IC importance-sampling driver.

use crate::is::parallel_importance_sampling;
use crate::posterior::WeightedTraces;
use etalumis_core::{Address, ObserveMap, ProbProgram, ProposalDecision, Proposer, SampleRequest};
use etalumis_distributions::{Distribution, Value};
use etalumis_runtime::{Backend, ProposerFactory, SimulatorPool};
use std::io;

/// A source of per-address proposal distributions conditioned on an
/// observation. Implemented by the trained IC network in `etalumis-train`.
///
/// [`condition`](ProposalProvider::condition) is the one mutating call:
/// once per posterior it takes in the observation (the IC network runs its
/// 3DCNN here, and only here) and returns the posterior's per-worker
/// [`State`](ProposalProvider::State). Everything after it reads the
/// provider through `&self`, so one conditioned provider serves every
/// worker at once, each with its own clone of that state: per trace one
/// [`begin_trace`](ProposalProvider::begin_trace), then alternating
/// `propose` / `notify` per controlled sample.
///
/// Proposing needs a state and only `condition` makes one, so proposing
/// from an unconditioned provider does not compile. [`IcProposerFactory`]
/// packages the order and holds the provider's borrow for the whole
/// posterior: nothing can retrain or re-observe the provider meanwhile, so
/// there is no cache to invalidate.
pub trait ProposalProvider: Sync {
    /// What one worker mutates while it proposes (the IC network's LSTM
    /// state and scratch).
    type State: Clone + Send + Sync;

    /// Once per posterior: take in the observed value every following trace
    /// is conditioned on, and return the state workers propose with.
    fn condition(&mut self, observation: &Value) -> Self::State;

    /// Start of each trace: reset the per-trace part of `state` (the IC
    /// network zeroes its LSTM state and forgets the previous sample).
    fn begin_trace(&self, state: &mut Self::State);

    /// Proposal for the sample statement at `address` with prior `prior`.
    /// `None` falls back to the prior (e.g. unseen address).
    fn propose(
        &self,
        state: &mut Self::State,
        address: &Address,
        prior: &Distribution,
    ) -> Option<Distribution>;

    /// Observe the realized value (fed back as the next LSTM input).
    fn notify(
        &self,
        state: &mut Self::State,
        address: &Address,
        prior: &Distribution,
        value: &Value,
    );

    /// A worker is done with `state`: fold whatever it counted back into the
    /// provider (the IC network's inference statistics). Default: nothing.
    fn retire(&self, state: &mut Self::State) {
        let _ = state;
    }
}

/// One worker's proposer: the shared conditioned provider and this worker's
/// own state. Made by [`IcProposerFactory::proposer`]; it hands its state
/// back to the provider ([`ProposalProvider::retire`]) when dropped.
pub struct IcProposer<'a, P: ProposalProvider> {
    provider: &'a P,
    state: P::State,
}

impl<P: ProposalProvider> Proposer for IcProposer<'_, P> {
    /// Per trace; the observation was taken at [`IcProposerFactory::condition`].
    fn begin_trace(&mut self, _observes: &ObserveMap) {
        self.provider.begin_trace(&mut self.state);
    }

    fn propose(&mut self, req: &SampleRequest) -> ProposalDecision {
        match self.provider.propose(&mut self.state, req.address, req.dist) {
            Some(q) => ProposalDecision::Proposal(q),
            None => ProposalDecision::Prior,
        }
    }

    fn notify(&mut self, req: &SampleRequest, value: &Value) {
        self.provider.notify(&mut self.state, req.address, req.dist, value);
    }
}

impl<P: ProposalProvider> Drop for IcProposer<'_, P> {
    fn drop(&mut self) {
        self.provider.retire(&mut self.state);
    }
}

/// One posterior's proposal source for the runtime: a provider conditioned
/// on one observation, shared read-only by every worker, each getting an
/// [`IcProposer`] with its own state (one per worker thread, one per
/// session of a mux pool). It holds the provider's borrow for as long as it
/// lives, so the weights and the observation embedding the proposers read
/// cannot change under them — and no copy of either is made.
pub struct IcProposerFactory<'a, P: ProposalProvider> {
    provider: &'a P,
    /// The state [`ProposalProvider::condition`] returned; every proposer
    /// starts from a clone.
    state: P::State,
}

impl<'a, P: ProposalProvider> IcProposerFactory<'a, P> {
    /// Condition `provider` on the value `observes` registers for the
    /// observe statement named `observe_name` (e.g. `"calo"` for the tau
    /// model).
    ///
    /// # Errors
    /// `InvalidInput` if `observes` has no value under `observe_name`; the
    /// message lists the names it does have, and `provider` is left
    /// unconditioned.
    pub fn condition(
        provider: &'a mut P,
        observes: &ObserveMap,
        observe_name: &str,
    ) -> io::Result<Self> {
        let Some(observation) = observes.get(observe_name) else {
            let mut present: Vec<&String> = observes.keys().collect();
            present.sort_unstable();
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cannot condition on observe statement {observe_name:?}: \
                     the ObserveMap registers {present:?}"
                ),
            ));
        };
        let state = provider.condition(observation);
        Ok(Self { provider, state })
    }

    /// A proposer with a fresh state of this posterior.
    pub fn proposer(&self) -> IcProposer<'a, P> {
        IcProposer { provider: self.provider, state: self.state.clone() }
    }
}

impl<P: ProposalProvider> ProposerFactory for IcProposerFactory<'_, P> {
    fn make_proposer(&self, _worker: usize) -> Box<dyn Proposer + Send + '_> {
        Box::new(self.proposer())
    }
}

/// Importance sampling guided by a trained proposal provider: the provider
/// is conditioned on `observes[observe_name]` once, then shared read-only by
/// one worker per core (at most `n`), each running its own clone of
/// `program`. Trace `i` runs under `mix_seed(seed, i)`, so the posterior
/// depends on the arguments alone — not on the core count — and equals
/// [`parallel_importance_sampling`] under an [`IcProposerFactory`] on any
/// backend.
///
/// # Panics
/// If `observes` has no value under `observe_name`, or if the program fails
/// a trace (a local model never does; use [`parallel_importance_sampling`]
/// to handle failures).
pub fn ic_importance_sampling<M, P>(
    program: &M,
    observes: &ObserveMap,
    observe_name: &str,
    provider: &mut P,
    n: usize,
    seed: u64,
) -> WeightedTraces
where
    M: ProbProgram + Clone + Send + 'static,
    P: ProposalProvider,
{
    let posterior =
        IcProposerFactory::condition(provider, observes, observe_name).and_then(|factory| {
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            let mut pool = SimulatorPool::from_factory(cores.min(n).max(1), |_| program.clone());
            parallel_importance_sampling(Backend::Local(&mut pool), &factory, observes, n, seed)
                .map_err(|e| {
                    io::Error::other(format!(
                        "{e} (use parallel_importance_sampling to handle failures)"
                    ))
                })
        });
    // etalumis: allow(panic-freedom, reason = "documented panicking wrapper over the fallible IcProposerFactory::condition and parallel_importance_sampling")
    posterior.unwrap_or_else(|e| panic!("{e}"))
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
        type State = ();
        fn condition(&mut self, _obs: &Value) {}
        fn begin_trace(&self, _state: &mut ()) {}

        fn propose(&self, _: &mut (), address: &Address, _: &Distribution) -> Option<Distribution> {
            assert!(address.base.contains("mu"));
            let (m, s) = self.model.posterior(&self.ys);
            Some(Distribution::Normal { mean: m, std: s })
        }

        fn notify(&self, _: &mut (), _a: &Address, _p: &Distribution, _v: &Value) {}
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
        let post = ic_importance_sampling(&model, &observes, "y0", &mut oracle, n, 1);
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
            type State = ();
            fn condition(&mut self, _obs: &Value) {}
            fn begin_trace(&self, _state: &mut ()) {}
            fn propose(&self, _: &mut (), _a: &Address, _p: &Distribution) -> Option<Distribution> {
                None
            }
            fn notify(&self, _: &mut (), _a: &Address, _p: &Distribution, _v: &Value) {}
        }
        let model = GaussianUnknownMean::standard();
        let mut observes = ObserveMap::new();
        observes.insert("y0".into(), Value::Real(0.5));
        observes.insert("y1".into(), Value::Real(0.5));
        let post = ic_importance_sampling(&model, &observes, "y0", &mut Decline, 5_000, 3);
        // Declining provider behaves exactly like prior IS.
        let (mean, _) = post.mean_std(|t| t.value_by_name("mu").unwrap().as_f64());
        let (am, _) = model.posterior(&[0.5, 0.5]);
        assert!((mean - am).abs() < 0.06, "{mean} vs {am}");
    }

    #[test]
    fn condition_on_a_missing_observe_name_is_invalid_input_naming_the_keys() {
        /// Counts the times it is conditioned.
        struct Counting(usize);
        impl ProposalProvider for Counting {
            type State = ();
            fn condition(&mut self, _obs: &Value) {
                self.0 += 1;
            }
            fn begin_trace(&self, _state: &mut ()) {}
            fn propose(&self, _: &mut (), _a: &Address, _p: &Distribution) -> Option<Distribution> {
                None
            }
            fn notify(&self, _: &mut (), _a: &Address, _p: &Distribution, _v: &Value) {}
        }
        let mut observes = ObserveMap::new();
        observes.insert("y1".into(), Value::Real(0.5));
        observes.insert("y0".into(), Value::Real(0.5));
        let mut provider = Counting(0);
        let Err(e) = IcProposerFactory::condition(&mut provider, &observes, "calo") else {
            panic!("conditioned on an observe name the map does not register");
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            e.to_string(),
            "cannot condition on observe statement \"calo\": the ObserveMap registers [\"y0\", \"y1\"]"
        );
        assert_eq!(provider.0, 0, "the provider was conditioned");
    }

    #[test]
    #[should_panic(
        expected = "cannot condition on observe statement \"calo\": the ObserveMap registers [\"y0\", \"y1\"]"
    )]
    fn missing_observe_name_fails_up_front_naming_the_keys() {
        // The provider is never reached, let alone handed a `Value::Unit`.
        struct Unreachable;
        impl ProposalProvider for Unreachable {
            type State = ();
            fn condition(&mut self, obs: &Value) {
                unreachable!("conditioned on {obs:?}");
            }
            fn begin_trace(&self, _state: &mut ()) {}
            fn propose(&self, _: &mut (), _a: &Address, _p: &Distribution) -> Option<Distribution> {
                None
            }
            fn notify(&self, _: &mut (), _a: &Address, _p: &Distribution, _v: &Value) {}
        }
        let model = GaussianUnknownMean::standard();
        let mut observes = ObserveMap::new();
        observes.insert("y1".into(), Value::Real(0.5));
        observes.insert("y0".into(), Value::Real(0.5));
        ic_importance_sampling(&model, &observes, "calo", &mut Unreachable, 1, 0);
    }
}
