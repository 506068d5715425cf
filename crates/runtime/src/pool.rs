//! Pools of probabilistic-program instances, one per worker.
//!
//! The paper's controller drives many simulator executions concurrently —
//! local re-entrant models and, through PPX, whole fleets of out-of-process
//! simulators (§4.1; the predecessor work ran Sherpa workers behind ZeroMQ
//! the same way). A [`SimulatorPool`] is that fleet from the runtime's point
//! of view: N independent [`ProbProgram`] instances, each owned exclusively
//! by one worker thread for the duration of a batch, so no execution ever
//! waits on another's simulator.

use crate::batch::RuntimeConfig;
use etalumis_core::{BoxedProgram, ProbProgram};
use etalumis_ppx::{RemoteModel, Transport};
use std::io;

/// A fixed set of program instances multiplexed by the batch runner.
pub struct SimulatorPool {
    programs: Vec<BoxedProgram>,
}

impl SimulatorPool {
    /// Pool over pre-built program instances (at least one).
    pub fn from_programs(programs: Vec<BoxedProgram>) -> Self {
        assert!(!programs.is_empty(), "simulator pool needs at least one program");
        Self { programs }
    }

    /// Build `n` instances from a factory (`factory(worker_index)`); `n = 0`
    /// builds one per core — the local half of the runtime's single
    /// `workers = 0` rule (see [`crate::Backend::workers`]).
    pub fn from_factory<P, F>(n: usize, factory: F) -> Self
    where
        P: ProbProgram + Send + 'static,
        F: Fn(usize) -> P,
    {
        let n = RuntimeConfig { workers: n, stealing: true }.resolved_workers();
        Self::from_programs((0..n).map(|w| Box::new(factory(w)) as BoxedProgram).collect())
    }

    /// Connect `n` PPX remote simulators (`connect(worker_index)` performs
    /// the handshake, e.g. over TCP or an in-process channel pair). Each
    /// connection is then driven exactly like a local program — the paper's
    /// dynamic load balancing over out-of-process simulator workers.
    pub fn connect_ppx<T, F>(n: usize, mut connect: F) -> io::Result<Self>
    where
        T: Transport + 'static,
        F: FnMut(usize) -> io::Result<RemoteModel<T>>,
    {
        let n = n.max(1);
        let mut programs: Vec<BoxedProgram> = Vec::with_capacity(n);
        for w in 0..n {
            programs.push(Box::new(connect(w)?));
        }
        Ok(Self::from_programs(programs))
    }

    /// Number of pooled instances (= the worker count a batch run uses).
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when the pool holds no programs (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Exclusive access to every instance, for handing one to each worker.
    pub(crate) fn programs_mut(&mut self) -> &mut [BoxedProgram] {
        &mut self.programs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::{Executor, FnProgram, SimCtx, SimCtxExt};
    use etalumis_distributions::{Distribution, Value};

    #[test]
    fn factory_builds_worker_indexed_programs() {
        let mut pool = SimulatorPool::from_factory(3, |w| {
            FnProgram::new(format!("m{w}"), move |ctx: &mut dyn SimCtx| {
                Value::Real(ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "x"))
            })
        });
        assert_eq!(pool.len(), 3);
        let names: Vec<String> = pool.programs_mut().iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names, ["m0", "m1", "m2"]);
        // Every pooled instance runs independently.
        for p in pool.programs_mut() {
            let t = Executor::sample_prior(p, 7);
            assert_eq!(t.num_controlled(), 1);
        }
    }
}
