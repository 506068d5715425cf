//! # etalumis-core
//!
//! Trace-based probabilistic programming core: the Rust reproduction of the
//! pyprob layer of *Etalumis: Bringing Probabilistic Programming to
//! Scientific Simulators at Scale* (SC'19).
//!
//! The central idea (paper §1, §4.1): an existing stochastic simulator
//! becomes a probabilistic program once its random number draws are routed
//! through a control interface. In this crate:
//!
//! * [`ProbProgram`] — a simulator; its `run` method performs
//!   [`SimCtx`] `sample` / `observe` / `tag` statements.
//! * [`Address`] / [`AddressBuilder`] — unique statement labels built from
//!   scope stacks ("concatenated stack frames") + distribution kind +
//!   instance counters; [`TraceTypeId`] hashes the controlled address
//!   sequence of a trace.
//! * [`Trace`] — one full simulator execution: the unit of inference.
//! * [`Executor`] — runs a program under a [`Proposer`] (prior, MCMC kernel,
//!   or IC neural proposer), conditioning on an [`ObserveMap`], and records
//!   the trace with all log prior/likelihood/proposal masses — or, through
//!   a [`RecordBuilder`], only the pruned [`TraceRecord`] a training shard
//!   stores (any [`TraceTarget`]).
//!
//! Inference engines live in `etalumis-inference`; the cross-process
//! protocol in `etalumis-ppx`; both build exclusively on the interfaces
//! defined here.
//!
//! ## Example
//!
//! ```
//! use etalumis_core::{Executor, FnProgram, SimCtx, SimCtxExt};
//! use etalumis_distributions::{Distribution, Value};
//!
//! let mut model = FnProgram::new("gauss", |ctx: &mut dyn SimCtx| {
//!     let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
//!     ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
//!     Value::Real(mu)
//! });
//! let trace = Executor::sample_prior(&mut model, 1);
//! assert_eq!(trace.num_controlled(), 1);
//! ```

pub mod address;
pub mod executor;
pub mod program;
pub mod record;
pub mod trace;

pub use address::{Address, AddressBuilder, TraceTypeId};
pub use executor::{
    Executor, ObserveMap, PriorProposer, ProposalDecision, Proposer, SampleRequest, StepExecutor,
};
pub use program::{BoxedProgram, FnProgram, ProbProgram, RunError, SimCtx, SimCtxExt};
pub use record::{RecordBuilder, RecordEntry, Statement, TraceRecord, TraceTarget};
pub use trace::{EntryKind, Trace, TraceEntry};
