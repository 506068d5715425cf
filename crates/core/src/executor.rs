//! The executor: runs a probabilistic program under the control of a
//! [`Proposer`], recording a [`Trace`] (or any other [`TraceTarget`]).
//!
//! This is the controller half of Figure 1 in the paper: the simulator keeps
//! requesting random numbers; the executor answers each request (from the
//! prior, from a proposal distribution, or by replaying a stored value),
//! scores everything, and accumulates the trace.

use crate::address::{Address, AddressBuilder};
use crate::program::{ProbProgram, RunError, SimCtx};
use crate::record::{Statement, TraceTarget};
use crate::trace::{EntryKind, Trace};
use etalumis_distributions::{Distribution, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Observed data registered before an inference run: maps observe-statement
/// names to their observed values.
pub type ObserveMap = HashMap<String, Value>;

/// A single sample request presented to a [`Proposer`].
pub struct SampleRequest<'a> {
    /// Address of the statement (fully qualified, instance included).
    pub address: &'a Address,
    /// Prior distribution at this site.
    pub dist: &'a Distribution,
    /// Statement name.
    pub name: &'a str,
    /// Index of this request among controlled samples in the current trace.
    pub time_step: usize,
}

/// What a proposer decides for one sample statement.
pub enum ProposalDecision {
    /// Draw from the prior distribution.
    Prior,
    /// Use this exact value (replay); its log_q is scored under the prior.
    Replay(Value),
    /// Use this exact value with an explicit proposal log-density
    /// (e.g. an MCMC transition kernel).
    ReplayWithLogQ(Value, f64),
    /// Draw from this proposal distribution and score log_q under it.
    Proposal(Distribution),
}

/// Decides values for sample statements during one execution.
///
/// Implementations include the prior proposer (trace generation / forward
/// simulation), single-site MH proposers, and the IC neural proposer.
pub trait Proposer {
    /// Called once before the program runs, with the registered observation
    /// map (the IC proposer resets its per-trace state here; it took its
    /// observation when it was built).
    fn begin_trace(&mut self, observes: &ObserveMap) {
        let _ = observes;
    }

    /// Decide how to realize one controlled sample statement.
    fn propose(&mut self, req: &SampleRequest) -> ProposalDecision;

    /// Informed of the value actually realized for `req` (fed back into
    /// sequential proposers such as the IC LSTM).
    fn notify(&mut self, req: &SampleRequest, value: &Value) {
        let _ = (req, value);
    }
}

/// Propose everything from the prior (forward simulation).
#[derive(Default, Clone, Copy, Debug)]
pub struct PriorProposer;

impl Proposer for PriorProposer {
    fn propose(&mut self, _req: &SampleRequest) -> ProposalDecision {
        ProposalDecision::Prior
    }
}

/// The recording state of one execution. The [`Executor`] records into it
/// on both paths: held on the driving thread's stack under inverted control
/// (`program.run(ctx)` drives it), or owned by a [`StepExecutor`] that a
/// protocol reactor feeds one sample/observe/tag request at a time. Both
/// paths run exactly the same code against the same RNG discipline, which
/// is what keeps event-driven remote executions bit-identical to blocking
/// ones.
struct Recorder<B> {
    builder: AddressBuilder,
    target: B,
    controlled_steps: usize,
    /// When false, observe statements *draw* synthetic observations from the
    /// likelihood instead of scoring registered data (prior/training mode
    /// falls back to drawing whenever no observation is registered).
    scoring: bool,
}

impl<B: TraceTarget> Recorder<B> {
    fn new(target: B) -> Self {
        Self { builder: AddressBuilder::new(), target, controlled_steps: 0, scoring: true }
    }

    fn finish(self, result: Value) -> B::Output {
        self.target.finish(result)
    }

    #[allow(clippy::too_many_arguments)]
    fn record_sample(
        &mut self,
        rng: &mut StdRng,
        proposer: &mut dyn Proposer,
        address: Address,
        dist: &Distribution,
        name: &str,
        control: bool,
        replace: bool,
    ) -> Value {
        let kind = if replace { EntryKind::SampleReplaced } else { EntryKind::Sample };
        let controlled = control && !replace;
        // `log_q` is `None` where the value came from the prior (drawn or
        // replayed): it is then the prior density, evaluated once below.
        let (value, log_q) = if controlled {
            let req =
                SampleRequest { address: &address, dist, name, time_step: self.controlled_steps };
            let decision = proposer.propose(&req);
            let (v, lq) = match decision {
                ProposalDecision::Prior => (dist.sample(rng), None),
                ProposalDecision::Replay(v) => (v, None),
                ProposalDecision::ReplayWithLogQ(v, lq) => (v, Some(lq)),
                ProposalDecision::Proposal(q) => {
                    let v = q.sample(rng);
                    let lq = if B::SCORED { q.log_prob(&v) } else { 0.0 };
                    (v, Some(lq))
                }
            };
            proposer.notify(&req, &v);
            self.controlled_steps += 1;
            (v, lq)
        } else {
            // Replaced or uncontrolled: always from the prior.
            (dist.sample(rng), None)
        };
        let log_prob = if B::SCORED { dist.log_prob(&value) } else { 0.0 };
        self.target.push(Statement {
            kind,
            address,
            name: Cow::Borrowed(name),
            distribution: Cow::Borrowed(dist),
            value: Cow::Borrowed(&value),
            log_prob,
            log_q: log_q.unwrap_or(log_prob),
        });
        value
    }

    fn record_observe(
        &mut self,
        rng: &mut StdRng,
        observes: &ObserveMap,
        address: Address,
        dist: &Distribution,
        name: &str,
    ) -> Value {
        let value = if self.scoring {
            match observes.get(name) {
                Some(v) => v.clone(),
                // No registered observation: draw a synthetic one (prior /
                // training-data generation mode).
                None => dist.sample(rng),
            }
        } else {
            dist.sample(rng)
        };
        let log_prob = if B::SCORED { dist.log_prob(&value) } else { 0.0 };
        self.target.push(Statement {
            kind: EntryKind::Observe,
            address,
            name: Cow::Borrowed(name),
            distribution: Cow::Borrowed(dist),
            value: Cow::Borrowed(&value),
            log_prob,
            log_q: log_prob,
        });
        value
    }

    fn sample_address(&mut self, address_base: &str, replace: bool) -> Address {
        // The remote side owns base construction; we still manage instance
        // counting locally so re-executions stay consistent.
        if replace {
            Address::new(address_base, 0)
        } else {
            self.builder.next_with_base(address_base)
        }
    }
}

/// Runs programs and records traces (or any [`TraceTarget`] `B`).
/// Implements [`SimCtx`] — the one implementation: it borrows its whole
/// state, so the owning [`StepExecutor`] lends its own out as an
/// `Executor` too ([`StepExecutor::ctx`]).
pub struct Executor<'a, B = Trace> {
    rng: &'a mut StdRng,
    proposer: &'a mut dyn Proposer,
    observes: &'a ObserveMap,
    rec: &'a mut Recorder<B>,
}

impl<B: TraceTarget> Executor<'_, B> {
    /// Run `program` once under `proposer`, conditioning on `observes`,
    /// recording into `target` — [`Executor::try_execute`] for any target.
    pub fn try_record(
        program: &mut dyn ProbProgram,
        proposer: &mut dyn Proposer,
        observes: &ObserveMap,
        rng: &mut StdRng,
        target: B,
    ) -> Result<B::Output, RunError> {
        proposer.begin_trace(observes);
        let mut rec = Recorder::new(target);
        let result = program.try_run(&mut Executor { rng, proposer, observes, rec: &mut rec })?;
        Ok(rec.finish(result))
    }

    /// [`Executor::try_record`] with a fresh RNG seeded from `seed`: the
    /// output is a pure function of `(program, proposer, observes, seed)`.
    /// A prior run into a [`crate::RecordBuilder`] is how datasets are
    /// generated.
    pub fn try_record_seeded(
        program: &mut dyn ProbProgram,
        proposer: &mut dyn Proposer,
        observes: &ObserveMap,
        seed: u64,
        target: B,
    ) -> Result<B::Output, RunError> {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::try_record(program, proposer, observes, &mut rng, target)
    }
}

impl<'a> Executor<'a> {
    /// Run `program` once under `proposer`, conditioning on `observes`.
    ///
    /// Panics if the program fails (only possible for remote programs whose
    /// transport dies); use [`Executor::try_execute`] to handle that.
    pub fn execute(
        program: &mut dyn ProbProgram,
        proposer: &mut dyn Proposer,
        observes: &ObserveMap,
        rng: &mut StdRng,
    ) -> Trace {
        Self::try_execute(program, proposer, observes, rng)
            // etalumis: allow(panic-freedom, reason = "documented infallible wrapper; try_execute is the fallible API")
            .unwrap_or_else(|e| panic!("{e} (use Executor::try_execute to handle failures)"))
    }

    /// Fallible [`Executor::execute`]: surfaces remote-program transport
    /// failures as a [`RunError`] instead of panicking.
    pub fn try_execute(
        program: &mut dyn ProbProgram,
        proposer: &mut dyn Proposer,
        observes: &ObserveMap,
        rng: &mut StdRng,
    ) -> Result<Trace, RunError> {
        Self::try_record(program, proposer, observes, rng, Trace::default())
    }

    /// Convenience: run once from the prior with a fresh seeded RNG.
    pub fn sample_prior(program: &mut dyn ProbProgram, seed: u64) -> Trace {
        Self::execute_seeded(program, &mut PriorProposer, &ObserveMap::new(), seed)
    }

    /// Run once under `proposer` with a fresh RNG seeded from `seed`.
    ///
    /// The RNG is owned by the single execution, so the resulting trace is a
    /// pure function of `(program, proposer, observes, seed)` — the property
    /// parallel runtimes rely on to keep results independent of worker count
    /// and scheduling order.
    pub fn execute_seeded(
        program: &mut dyn ProbProgram,
        proposer: &mut dyn Proposer,
        observes: &ObserveMap,
        seed: u64,
    ) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::execute(program, proposer, observes, &mut rng)
    }

    /// Fallible [`Executor::execute_seeded`].
    pub fn try_execute_seeded(
        program: &mut dyn ProbProgram,
        proposer: &mut dyn Proposer,
        observes: &ObserveMap,
        seed: u64,
    ) -> Result<Trace, RunError> {
        Self::try_record_seeded(program, proposer, observes, seed, Trace::default())
    }
}

impl<B: TraceTarget> SimCtx for Executor<'_, B> {
    fn sample_ext(
        &mut self,
        dist: &Distribution,
        name: &str,
        control: bool,
        replace: bool,
    ) -> Value {
        let address = self.rec.builder.next(name, dist.kind(), replace);
        self.rec.record_sample(self.rng, self.proposer, address, dist, name, control, replace)
    }

    fn observe(&mut self, dist: &Distribution, name: &str) -> Value {
        let address = self.rec.builder.next(name, dist.kind(), false);
        self.rec.record_observe(self.rng, self.observes, address, dist, name)
    }

    fn tag(&mut self, name: &str, value: Value) {
        self.rec.target.tag(Cow::Borrowed(name), value);
    }

    fn push_scope(&mut self, scope: &str) {
        self.rec.builder.push_scope(scope);
    }

    fn pop_scope(&mut self) {
        self.rec.builder.pop_scope();
    }

    fn sample_with_address(
        &mut self,
        address_base: &str,
        dist: &Distribution,
        name: &str,
        control: bool,
        replace: bool,
    ) -> Value {
        let address = self.rec.sample_address(address_base, replace);
        self.rec.record_sample(self.rng, self.proposer, address, dist, name, control, replace)
    }

    fn observe_with_address(
        &mut self,
        address_base: &str,
        dist: &Distribution,
        name: &str,
    ) -> Value {
        let address = self.rec.builder.next_with_base(address_base);
        self.rec.record_observe(self.rng, self.observes, address, dist, name)
    }
}

/// An executor that owns its whole execution state, for event-driven runs.
///
/// The classic [`Executor`] has inverted control: `program.run(ctx)` calls
/// back into it, so its state can live on the driving thread's stack. A
/// protocol reactor multiplexing many remote executions on one thread cannot
/// block inside `run`; it needs per-session executor state that persists
/// across suspension points. `StepExecutor` is exactly that: create one per
/// trace with the same `(proposer, observes, seed)` a blocking run would
/// use, feed it each incoming sample/observe/tag request through the
/// [`SimCtx`] it lends ([`StepExecutor::ctx`]), and [`StepExecutor::finish`]
/// it with the run result.
///
/// That context is an [`Executor`] over this executor's state, so the
/// produced [`Trace`] (or other [`TraceTarget`] output) is bit-identical to
/// `Executor::execute_seeded` (`Executor::try_record_seeded`) for the same
/// request sequence. The proposer may borrow for `'p` (an IC proposer
/// borrows the network it shares with other sessions).
pub struct StepExecutor<'p, B = Trace> {
    rng: StdRng,
    proposer: Box<dyn Proposer + Send + 'p>,
    observes: Arc<ObserveMap>,
    rec: Recorder<B>,
}

impl<'p> StepExecutor<'p> {
    /// Begin one execution recording a [`Trace`]: seeds the RNG from `seed`
    /// and announces the trace to the proposer, mirroring
    /// [`Executor::execute_seeded`].
    pub fn new(
        proposer: Box<dyn Proposer + Send + 'p>,
        observes: Arc<ObserveMap>,
        seed: u64,
    ) -> Self {
        Self::with_target(proposer, observes, seed, Trace::default())
    }
}

impl<'p, B: TraceTarget> StepExecutor<'p, B> {
    /// [`StepExecutor::new`] recording into `target`, mirroring
    /// [`Executor::try_record_seeded`].
    pub fn with_target(
        mut proposer: Box<dyn Proposer + Send + 'p>,
        observes: Arc<ObserveMap>,
        seed: u64,
        target: B,
    ) -> Self {
        proposer.begin_trace(&observes);
        Self { rng: StdRng::seed_from_u64(seed), proposer, observes, rec: Recorder::new(target) }
    }

    /// The execution as a [`SimCtx`], to feed the program's next requests.
    pub fn ctx(&mut self) -> Executor<'_, B> {
        Executor {
            rng: &mut self.rng,
            proposer: self.proposer.as_mut(),
            observes: &self.observes,
            rec: &mut self.rec,
        }
    }

    /// Complete the execution with the program's result value, returning the
    /// recorded trace and handing the proposer back for reuse on the next
    /// trace of the same session.
    pub fn finish(self, result: Value) -> (B::Output, Box<dyn Proposer + Send + 'p>) {
        (self.rec.finish(result), self.proposer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FnProgram, SimCtxExt};

    fn gaussian_model() -> FnProgram<impl FnMut(&mut dyn SimCtx) -> Value> {
        FnProgram::new("gauss", |ctx: &mut dyn SimCtx| {
            let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
            ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
            Value::Real(mu)
        })
    }

    #[test]
    fn prior_execution_records_trace() {
        let mut m = gaussian_model();
        let t = Executor::sample_prior(&mut m, 42);
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.num_controlled(), 1);
        assert!(t.log_prior.is_finite());
        assert!(t.log_likelihood.is_finite());
        // Prior proposals: log_q of samples equals log_prior contribution.
        assert!((t.log_q - t.log_prior).abs() < 1e-12);
        assert!((t.log_weight() - t.log_likelihood).abs() < 1e-12);
    }

    #[test]
    fn observe_scores_registered_data() {
        let mut m = gaussian_model();
        let mut observes = ObserveMap::new();
        observes.insert("y".to_string(), Value::Real(2.0));
        let mut rng = StdRng::seed_from_u64(0);
        let mut prior = PriorProposer;
        let t = Executor::execute(&mut m, &mut prior, &observes, &mut rng);
        let y = t.entries.iter().find(|e| e.name == "y").unwrap();
        assert_eq!(y.value, Value::Real(2.0));
        assert_eq!(y.kind, EntryKind::Observe);
        let mu = t.value_by_name("mu").unwrap().as_f64();
        let expect = Distribution::Normal { mean: mu, std: 0.5 }.log_prob(&Value::Real(2.0));
        assert!((t.log_likelihood - expect).abs() < 1e-12);
    }

    #[test]
    fn replay_proposer_reproduces_values() {
        struct Fixed(f64);
        impl Proposer for Fixed {
            fn propose(&mut self, _req: &SampleRequest) -> ProposalDecision {
                ProposalDecision::Replay(Value::Real(self.0))
            }
        }
        let mut m = gaussian_model();
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = Fixed(1.25);
        let observes = ObserveMap::new();
        let t = Executor::execute(&mut m, &mut p, &observes, &mut rng);
        assert_eq!(t.value_by_name("mu"), Some(&Value::Real(1.25)));
    }

    #[test]
    fn replaced_samples_not_proposed() {
        struct CountingProposer(usize);
        impl Proposer for CountingProposer {
            fn propose(&mut self, _req: &SampleRequest) -> ProposalDecision {
                self.0 += 1;
                ProposalDecision::Prior
            }
        }
        let mut m = FnProgram::new("rej", |ctx: &mut dyn SimCtx| {
            // rejection loop: accept u > 0.3
            let mut u;
            loop {
                u = ctx.sample_replaced(&Distribution::Uniform { low: 0.0, high: 1.0 }, "u");
                if u.as_f64() > 0.3 {
                    break;
                }
            }
            let _x = ctx.sample(&Distribution::Normal { mean: 0.0, std: 1.0 }, "x");
            u
        });
        let mut rng = StdRng::seed_from_u64(9);
        let mut p = CountingProposer(0);
        let observes = ObserveMap::new();
        let t = Executor::execute(&mut m, &mut p, &observes, &mut rng);
        // Only "x" goes through the proposer.
        assert_eq!(p.0, 1);
        assert!(t.entries.iter().any(|e| e.kind == EntryKind::SampleReplaced));
        // All replaced entries share one address.
        let replaced: Vec<_> =
            t.entries.iter().filter(|e| e.kind == EntryKind::SampleReplaced).collect();
        assert!(replaced.windows(2).all(|w| w[0].address == w[1].address));
    }

    #[test]
    fn step_executor_matches_blocking_executor_bit_for_bit() {
        // Drive a StepExecutor with the exact request sequence the model
        // makes through the blocking Executor; the traces must be identical.
        let mut m = gaussian_model();
        let mut observes = ObserveMap::new();
        observes.insert("y".to_string(), Value::Real(0.5));
        let seed = 99;
        let blocking = Executor::execute_seeded(&mut m, &mut PriorProposer, &observes, seed);

        let mut step = StepExecutor::new(Box::new(PriorProposer), Arc::new(observes.clone()), seed);
        let mu =
            step.ctx().sample_ext(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu", true, false);
        step.ctx().observe(&Distribution::Normal { mean: mu.as_f64(), std: 0.5 }, "y");
        let (trace, _proposer) = step.finish(mu.clone());

        assert_eq!(trace.entries.len(), blocking.entries.len());
        for (a, b) in trace.entries.iter().zip(&blocking.entries) {
            assert_eq!(a.address, b.address);
            assert_eq!(a.value, b.value);
            assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
            assert_eq!(a.log_q.to_bits(), b.log_q.to_bits());
        }
        assert_eq!(trace.result, blocking.result);
        assert_eq!(trace.log_prior.to_bits(), blocking.log_prior.to_bits());
        assert_eq!(trace.log_likelihood.to_bits(), blocking.log_likelihood.to_bits());
    }

    #[test]
    fn try_execute_surfaces_program_failure() {
        struct FailingProgram;
        impl ProbProgram for FailingProgram {
            fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
                self.try_run(ctx).expect("transport failed")
            }
            fn try_run(&mut self, _ctx: &mut dyn SimCtx) -> Result<Value, RunError> {
                Err(RunError::new("connection reset by peer"))
            }
        }
        let observes = ObserveMap::new();
        let err =
            Executor::try_execute_seeded(&mut FailingProgram, &mut PriorProposer, &observes, 1)
                .unwrap_err();
        assert!(err.message.contains("connection reset"));
    }

    #[test]
    fn proposal_distribution_scores_log_q() {
        struct Shifted;
        impl Proposer for Shifted {
            fn propose(&mut self, req: &SampleRequest) -> ProposalDecision {
                assert_eq!(req.time_step, 0);
                ProposalDecision::Proposal(Distribution::Normal { mean: 5.0, std: 0.1 })
            }
        }
        let mut m = gaussian_model();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Shifted;
        let observes = ObserveMap::new();
        let t = Executor::execute(&mut m, &mut p, &observes, &mut rng);
        let mu = t.value_by_name("mu").unwrap().as_f64();
        assert!(mu > 4.0, "proposal should dominate: {mu}");
        // log_q differs from log_prior because proposal != prior.
        assert!((t.log_q - t.log_prior).abs() > 1.0);
    }
}
