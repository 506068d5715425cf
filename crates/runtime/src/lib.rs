//! # etalumis-runtime
//!
//! The parallel trace-generation runtime: the layer between the single-trace
//! executor of `etalumis-core` and every consumer that needs traces at
//! volume (importance sampling, dataset generation, the training stream,
//! benchmarking).
//!
//! The paper's throughput story (§4.4, Figure 4) is dynamic load balancing:
//! execution traces vary enormously in cost — rejection loops, 38-way decay
//! branching — so a static split of "n traces over k workers" leaves most
//! workers idle while the unlucky one finishes. This crate supplies the
//! machinery the paper's controller/simulator split implies:
//!
//! * [`plan`] — [`RunPlan`]: the one way to run a batch. Backend, proposer,
//!   durability, placement, output and telemetry are orthogonal values of
//!   one plan, executed by one driver (see its table),
//! * [`batch`] — [`BatchRunner`]: execute N traces on a [`Backend`] under
//!   any proposer (prior, IC, replay) with per-trace seeding, making batch
//!   content a pure function of the seed — identical for any backend and
//!   worker count,
//! * [`scheduler`] — per-worker deques with work stealing over a fixed
//!   batch of trace indices,
//! * [`pool`] — [`SimulatorPool`]: one [`ProbProgram`] instance per worker,
//!   local models or PPX [`RemoteModel`] connections alike,
//! * [`oversub`] — oversubscribed remote execution: a [`MuxSimulatorPool`]
//!   of K PPX sessions driven by M ≤ K reactor workers, so one thread hides
//!   the latency of many slow simulators,
//! * [`sink`], [`checkpoint`], [`stream`] — where traces go: in-memory
//!   collection and trace-type-partitioned shards, or one reorder window
//!   committing in batch-index order to ordered shards, the restartable
//!   [`CheckpointSink`], a bounded `etalumis-data` trace channel, or the
//!   tee of shards and channel,
//! * [`dataset`] — [`DatasetGenConfig`] (the batch a plan runs) and the
//!   `generate_dataset_{parallel,mux}` shorthands.
//!
//! [`RemoteModel`]: etalumis_ppx::RemoteModel
//! [`ProbProgram`]: etalumis_core::ProbProgram

pub mod batch;
pub mod checkpoint;
pub mod dataset;
pub mod oversub;
pub mod plan;
pub mod pool;
pub mod scheduler;
pub mod sink;
pub mod stream;

pub use batch::{
    mix_seed, Backend, BatchRunner, KillSwitch, PriorProposerFactory, ProposerFactory, RunStats,
    RuntimeConfig, WorkerReport,
};
pub use checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointSink, RepairSink, ShardLayout, MANIFEST_NAME,
    REPAIR_JOURNAL_NAME,
};
pub use dataset::{generate_dataset_mux, generate_dataset_parallel, rank_dir, DatasetGenConfig};
pub use etalumis_data::{merge_ranks, rank_slice};
pub use oversub::{MuxSimulatorPool, ReconnectPolicy};
pub use plan::{RunOutput, RunPlan};
pub use pool::SimulatorPool;
pub use scheduler::TaskQueues;
pub use sink::{CollectSink, CountingSink, ShardedTraceSink, TraceSink};

#[cfg(test)]
mod ppx_pool_tests {
    use super::*;
    use etalumis_core::{FnProgram, ObserveMap, SimCtx, SimCtxExt};
    use etalumis_distributions::{Distribution, Value};
    use etalumis_ppx::{InProcTransport, RemoteModel, SimulatorServer};

    fn spawn_remote() -> InProcTransport {
        let (controller_side, sim_side) = InProcTransport::pair();
        std::thread::spawn(move || {
            let program = FnProgram::new("pool_gauss", |ctx: &mut dyn SimCtx| {
                let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
                ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
                Value::Real(mu)
            });
            let mut server = SimulatorServer::new("rt", program);
            let mut t = sim_side;
            let _ = server.serve(&mut t);
        });
        controller_side
    }

    #[test]
    fn pooled_remote_models_run_in_parallel_and_match_local() {
        // 3 out-of-process (well, out-of-thread) simulators behind PPX.
        let mut remote_pool =
            SimulatorPool::connect_ppx(3, |_w| RemoteModel::connect(spawn_remote(), "etalumis-rs"))
                .unwrap();
        let runner = BatchRunner::new(RuntimeConfig { workers: 3, stealing: true });
        let observes = ObserveMap::new();
        let n = 30;
        let sink = CollectSink::new(n);
        let stats = runner.run_prior(&mut remote_pool, &observes, n, 77, &sink);
        assert_eq!(stats.total_executed(), n);
        let remote_traces = sink.into_traces();

        // The same batch over local instances of the same model: values on
        // the controlled sites must agree exactly (controller owns the RNG).
        let mut local_pool = SimulatorPool::from_factory(1, |_| {
            FnProgram::new("pool_gauss", |ctx: &mut dyn SimCtx| {
                let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
                ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
                Value::Real(mu)
            })
        });
        let sink = CollectSink::new(n);
        // workers = 0 defers to the pool size (1 here).
        BatchRunner::default_runner().run_prior(&mut local_pool, &observes, n, 77, &sink);
        let local_traces = sink.into_traces();
        for (r, l) in remote_traces.iter().zip(&local_traces) {
            assert_eq!(r.value_by_name("mu"), l.value_by_name("mu"));
        }
    }
}
