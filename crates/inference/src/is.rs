//! Importance sampling over execution traces.
//!
//! The IS family of engines from the paper (§4.2): run the simulator under a
//! proposer, weight each full execution trace by
//! `log w = log p(x, y) − log q(x)`. With prior proposals the weight reduces
//! to the likelihood of the observes; with IC proposals (see [`crate::ic`])
//! the weights concentrate and the effective sample size per simulator call
//! rises dramatically — that is the amortized-inference payoff.
//!
//! IC/IS inference "is embarrassingly parallel" (§4.2):
//! [`parallel_importance_sampling`] is one collecting `etalumis-runtime`
//! [`RunPlan`] under any proposer — prior proposals, or an IC network
//! shared by every worker through [`crate::IcProposerFactory`] — on a local
//! pool or a multiplexed PPX pool, with per-trace seeding, so the sampled
//! trace set is identical for any backend and worker count.
//! [`importance_sampling`] is the serial prior-proposal loop.

use crate::posterior::WeightedTraces;
use etalumis_core::{Executor, ObserveMap, PriorProposer, ProbProgram, Trace};
use etalumis_runtime::{Backend, DatasetGenConfig, ProposerFactory, RunPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Importance sampling with prior proposals (a.k.a. likelihood weighting),
/// serially on one RNG stream seeded from `seed`.
pub fn importance_sampling(
    program: &mut dyn ProbProgram,
    observes: &ObserveMap,
    n: usize,
    seed: u64,
) -> WeightedTraces {
    let mut rng = StdRng::seed_from_u64(seed);
    let traces: Vec<Trace> = (0..n)
        .map(|_| Executor::execute(program, &mut PriorProposer, observes, &mut rng))
        .collect();
    let log_weights = traces.iter().map(Trace::log_weight).collect();
    WeightedTraces::new(traces, log_weights)
}

/// Embarrassingly parallel IS on the work-stealing runtime, under the
/// per-worker proposers `proposer` makes ([`etalumis_runtime::PriorProposerFactory`]
/// for likelihood weighting, a [`crate::IcProposerFactory`] for IC).
///
/// Trace `i` is seeded from `(seed, i)` alone, so the weighted trace set is
/// bit-identical for any backend and worker count: a local pool runs one
/// worker per instance; a mux pool is driven by min(cores, K) reactors.
/// Returns an error naming the first failed trace if any failed (a dead
/// simulator): an IS estimate over a silently truncated batch would be
/// biased.
pub fn parallel_importance_sampling(
    backend: Backend<'_>,
    proposer: &dyn ProposerFactory,
    observes: &ObserveMap,
    n: usize,
    seed: u64,
) -> std::io::Result<WeightedTraces> {
    let cfg = DatasetGenConfig { n, seed, ..Default::default() };
    let traces = RunPlan::new(backend, &cfg).proposer(proposer).observes(observes).run()?.traces;
    let log_weights = traces.iter().map(Trace::log_weight).collect();
    Ok(WeightedTraces::new(traces, log_weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_distributions::Value;
    use etalumis_runtime::{PriorProposerFactory, SimulatorPool};
    use etalumis_simulators::GaussianUnknownMean;

    /// Parallel IS of the conjugate model on a local pool of `workers`.
    fn local_is(obs: &ObserveMap, n: usize, seed: u64, workers: usize) -> WeightedTraces {
        let mut pool = SimulatorPool::from_factory(workers, |_| GaussianUnknownMean::standard());
        parallel_importance_sampling(Backend::Local(&mut pool), &PriorProposerFactory, obs, n, seed)
            .unwrap()
    }

    fn observes_for(ys: &[f64]) -> ObserveMap {
        let mut m = ObserveMap::new();
        for (i, &y) in ys.iter().enumerate() {
            m.insert(format!("y{i}"), Value::Real(y));
        }
        m
    }

    #[test]
    fn is_recovers_conjugate_posterior() {
        let mut model = GaussianUnknownMean::standard();
        let ys = [1.2, 0.8];
        let obs = observes_for(&ys);
        let wt = importance_sampling(&mut model, &obs, 40_000, 11);
        let (mean, std) = wt.mean_std(|t| t.value_by_name("mu").unwrap().as_f64());
        let (am, astd) = model.posterior(&ys);
        assert!((mean - am).abs() < 0.03, "mean {mean} vs analytic {am}");
        assert!((std - astd).abs() < 0.03, "std {std} vs analytic {astd}");
        // Evidence is finite and weights are informative.
        assert!(wt.log_evidence().is_finite());
        assert!(wt.effective_sample_size() > 100.0);
    }

    #[test]
    fn parallel_is_matches_serial_statistics() {
        let ys = [0.5, 0.9];
        let obs = observes_for(&ys);
        let wt = local_is(&obs, 20_000, 5, 4);
        assert_eq!(wt.len(), 20_000);
        let (mean, _) = wt.mean_std(|t| t.value_by_name("mu").unwrap().as_f64());
        let (am, _) = GaussianUnknownMean::standard().posterior(&ys);
        assert!((mean - am).abs() < 0.04, "parallel IS mean {mean} vs {am}");
    }

    #[test]
    fn parallel_is_is_bit_identical_across_worker_counts() {
        // Per-trace seeding on the runtime: the sampled trace set is a pure
        // function of (model, observes, seed), not of the worker count.
        let obs = observes_for(&[1.1]);
        let w1 = local_is(&obs, 500, 13, 1);
        let w4 = local_is(&obs, 500, 13, 4);
        for (a, b) in w1.traces.iter().zip(&w4.traces) {
            assert_eq!(a.value_by_name("mu"), b.value_by_name("mu"));
        }
        assert_eq!(w1.log_weights, w4.log_weights);
    }

    #[test]
    fn mux_is_matches_local_parallel_is_exactly() {
        use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, SimulatorServer};
        use etalumis_runtime::MuxSimulatorPool;
        let obs = observes_for(&[1.1]);
        let local = local_is(&obs, 300, 13, 2);

        let mut pool = MuxSimulatorPool::connect(5, "etalumis-rs", |_| {
            let (ep, sim_side) = InProcMuxEndpoint::pair();
            std::thread::spawn(move || {
                let mut server = SimulatorServer::new("is", GaussianUnknownMean::standard());
                let mut t = sim_side;
                let _ = server.serve(&mut t);
            });
            Ok(Box::new(ep) as Box<dyn MuxEndpoint>)
        })
        .unwrap();
        let remote = parallel_importance_sampling(
            Backend::Mux(&mut pool),
            &PriorProposerFactory,
            &obs,
            300,
            13,
        )
        .unwrap();

        // The registered observation crossed the wire in each `RunPrior`;
        // every trace came back whole and is the local one, bit for bit.
        assert_eq!(remote.len(), local.len());
        assert_eq!(remote.log_weights, local.log_weights);
        for (a, b) in remote.traces.iter().zip(&local.traces) {
            assert_eq!(a, b);
            let bits = |t: &Trace| -> Vec<u64> {
                let entries = t.entries.iter().flat_map(|e| [e.log_prob, e.log_q]);
                entries.chain([t.log_prior, t.log_likelihood, t.log_q]).map(f64::to_bits).collect()
            };
            assert_eq!(bits(a), bits(b));
        }
        assert!(remote.traces.iter().all(|t| t.value_by_name("y0") == Some(&Value::Real(1.1))));
    }

    #[test]
    fn failing_local_program_is_an_error_not_a_panic() {
        use etalumis_core::{RunError, SimCtx};
        // A simulator that dies on every execution: the batch exhausts its
        // retries, and the call reports the first failed index.
        struct Dead;
        impl ProbProgram for Dead {
            fn run(&mut self, _ctx: &mut dyn SimCtx) -> Value {
                Value::Unit
            }
            fn try_run(&mut self, _ctx: &mut dyn SimCtx) -> Result<Value, RunError> {
                Err(RunError::new("simulator died"))
            }
        }
        let mut pool = SimulatorPool::from_factory(2, |_| Dead);
        let obs = observes_for(&[1.0]);
        let err = parallel_importance_sampling(
            Backend::Local(&mut pool),
            &PriorProposerFactory,
            &obs,
            8,
            1,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("(first: trace 0:"), "unexpected error: {err}");
    }

    #[test]
    fn evidence_matches_analytic_marginal() {
        // For the conjugate model, p(y) is Gaussian:
        // y ~ N(mu0, sigma0^2 + sigma^2) for a single observation.
        let mut model = GaussianUnknownMean { mu0: 0.0, sigma0: 1.0, sigma: 0.7, n_obs: 1 };
        let y = 0.9;
        let obs = observes_for(&[y]);
        let wt = importance_sampling(&mut model, &obs, 60_000, 3);
        let var = 1.0f64 + 0.49;
        let analytic = -0.5 * (y * y / var) - 0.5 * (2.0 * std::f64::consts::PI * var).ln();
        assert!(
            (wt.log_evidence() - analytic).abs() < 0.02,
            "evidence {} vs analytic {analytic}",
            wt.log_evidence()
        );
    }
}
