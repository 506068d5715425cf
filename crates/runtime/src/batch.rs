//! The batch runner: N traces, any proposer, any backend, streamed to
//! sinks.
//!
//! One [`BatchRunner::run`] call is the runtime's unit of work: execute
//! `n` independent traces on a [`Backend`] under a per-worker proposer,
//! scheduling trace indices over the work-stealing queues and streaming
//! each completed execution to a [`TraceSink`], recorded into the target
//! the sink chooses (a `Trace`, or a shard record). Every trace `i` runs with
//! an RNG seeded purely from `(seed, i)`, so the batch's content is
//! identical for any backend, worker count, stealing decision, or finish
//! order — only the wall-clock changes. Serial execution is literally the
//! 1-worker degenerate case.
//!
//! Queue fill, the retry table, the join, the stranded-task drain and the
//! [`RunStats`] accounting are written once here; the blocking worker loop
//! (below) and the mux reactor ([`crate::oversub`]) are the only
//! per-backend code.

use crate::oversub::MuxSimulatorPool;
use crate::pool::SimulatorPool;
use crate::scheduler::TaskQueues;
use crate::sink::TraceSink;
use etalumis_core::{Executor, ObserveMap, PriorProposer, Proposer, TraceTarget};
use etalumis_telemetry::Telemetry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Splitmix64: decorrelate per-trace seeds from a batch seed and an index.
pub fn mix_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the per-worker proposers a batch runs under.
///
/// Workers need one proposer each (proposers are stateful within a trace —
/// e.g. the IC LSTM); the factory is consulted once per worker (once per
/// session on a mux pool) at batch start. A proposer may borrow the factory
/// — the IC factory's proposers share one read-only network through it.
pub trait ProposerFactory: Sync {
    /// Proposer for `worker`.
    fn make_proposer(&self, worker: usize) -> Box<dyn Proposer + Send + '_>;

    /// True when every proposer this factory makes answers every request
    /// from the prior, so a PPX simulator that advertises seeded prior runs
    /// may draw the whole trace itself (one round trip per trace). Only
    /// [`PriorProposerFactory`] says so; any other factory, even one whose
    /// proposers happen to be prior proposers, keeps the per-statement
    /// exchange.
    fn prior_only(&self) -> bool {
        false
    }
}

/// Every `Fn(usize) -> Box<dyn Proposer + Send> + Sync` is a factory.
impl<F> ProposerFactory for F
where
    F: Fn(usize) -> Box<dyn Proposer + Send> + Sync,
{
    fn make_proposer(&self, worker: usize) -> Box<dyn Proposer + Send + '_> {
        self(worker)
    }
}

/// Factory of [`PriorProposer`]s — forward simulation / trace generation.
pub struct PriorProposerFactory;

impl ProposerFactory for PriorProposerFactory {
    fn make_proposer(&self, _worker: usize) -> Box<dyn Proposer + Send + '_> {
        Box::new(PriorProposer)
    }

    fn prior_only(&self) -> bool {
        true
    }
}

/// Scheduling knobs for a batch run.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker threads. 0 means "all cores" (see [`Backend::workers`]).
    pub workers: usize,
    /// Work stealing on (the default). Off reproduces static partitioning —
    /// kept as a measurable baseline, not a mode anyone should want.
    pub stealing: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self { workers: 0, stealing: true }
    }
}

impl RuntimeConfig {
    /// Resolve `workers = 0` to the machine's available parallelism.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

// What a batch does when a trace execution fails. Per-trace seeding makes a
// re-execution of trace `i` produce the exact same content on any worker or
// session, so retrying a trace whose simulator died is always safe — these
// two bounds only limit how much dying hardware a batch tolerates before it
// records a permanent failure.

/// Times one trace index may be requeued after a failed execution, on
/// either backend, before it is recorded in [`RunStats::failures`].
const MAX_TRACE_RETRIES: u32 = 3;

/// Consecutive failures after which a blocking worker retires (its program
/// is considered dead; remaining work is stolen or drained). Mux workers
/// retire per session under the pool's reconnect policy instead.
const WORKER_FAILURE_THRESHOLD: u32 = 3;

/// Cooperative abort signal for a batch run, with an optional countdown.
///
/// Workers stop pulling work the moment the switch fires and return without
/// flushing or finalizing anything — from the filesystem's point of view the
/// run simply stops mid-flight, which is exactly the state a `SIGKILL`ed
/// process leaves behind. Tests and the `resume_dataset` example use the
/// countdown form ([`KillSwitch::after`]) to die at a chosen trace index and
/// then prove the checkpoint manifest restores the run bit-identically.
#[derive(Debug, Default)]
pub struct KillSwitch {
    killed: AtomicBool,
    /// Deliveries remaining before the switch auto-fires (< 0: never).
    countdown: AtomicI64,
}

impl KillSwitch {
    /// A switch that only fires when [`KillSwitch::kill`] is called.
    pub fn new() -> Self {
        Self { killed: AtomicBool::new(false), countdown: AtomicI64::new(-1) }
    }

    /// A switch that fires automatically after `n` trace deliveries
    /// (`n = 0` fires immediately).
    pub fn after(n: usize) -> Self {
        Self { killed: AtomicBool::new(n == 0), countdown: AtomicI64::new(n as i64) }
    }

    /// Fire the switch.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// Has the switch fired?
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Count one delivery against the countdown.
    pub(crate) fn tick(&self) {
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.kill();
        }
    }
}

/// Shared per-index retry budget: how many times each trace has been
/// requeued after a failure. Lives outside the workers because stealing can
/// move a retried index anywhere.
#[derive(Default)]
struct RetryTable {
    counts: Mutex<HashMap<usize, u32>>,
}

impl RetryTable {
    /// Consume one retry for `index`; `true` if the index may run again.
    fn try_consume(&self, index: usize) -> bool {
        let mut counts = self.counts.lock();
        let c = counts.entry(index).or_insert(0);
        if *c < MAX_TRACE_RETRIES {
            *c += 1;
            true
        } else {
            false
        }
    }
}

/// What one worker did during a batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// Traces this worker executed.
    pub executed: usize,
    /// Time spent inside simulator executions.
    pub busy: Duration,
}

/// Outcome of one batch run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Wall-clock of the whole batch.
    pub elapsed: Duration,
    /// Per-worker execution counts and busy times.
    pub per_worker: Vec<WorkerReport>,
    /// Tasks that finished on a worker other than the one they were
    /// initially assigned to.
    pub steals: u64,
    /// Traces that failed (remote transport/protocol errors), as
    /// `(batch index, error)` sorted by index. Failed traces are recorded
    /// and skipped — never delivered to the sink, never aborting the batch.
    pub failures: Vec<(usize, String)>,
    /// Trace executions requeued after a failure (each eventually delivered
    /// by a healthy worker/session or recorded in `failures`).
    pub retries: u64,
    /// Mux sessions re-established mid-batch (endpoint re-made, handshake
    /// re-driven) after their connection died. Always 0 on the blocking
    /// path.
    pub respawns: u64,
    /// True when the batch was aborted by a [`KillSwitch`] before every
    /// index was delivered or failed.
    pub killed: bool,
}

impl RunStats {
    /// Total traces executed across workers.
    pub fn total_executed(&self) -> usize {
        self.per_worker.iter().map(|w| w.executed).sum()
    }

    /// Load imbalance: `max(busy) / mean(busy) − 1` (0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let busies: Vec<f64> = self.per_worker.iter().map(|w| w.busy.as_secs_f64()).collect();
        if busies.is_empty() {
            return 0.0;
        }
        let max = busies.iter().cloned().fold(0.0f64, f64::max); // etalumis: allow(float-reduction, reason = "f64 load-imbalance stat; telemetry only, fixed sequential order")
        let mean = busies.iter().sum::<f64>() / busies.len() as f64; // etalumis: allow(float-reduction, reason = "f64 load-imbalance stat; telemetry only, fixed sequential order")
        if mean <= 0.0 {
            0.0
        } else {
            max / mean - 1.0
        }
    }

    /// Traces per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.total_executed() as f64 / s
        }
    }

    /// Fold another run's statistics into this one: counters sum, worker
    /// reports append, failure lists merge (sorted by index, deduplicated),
    /// `killed` ORs, and `elapsed` sums — total compute time across the
    /// folded runs, not fleet wall-clock. This is how multi-pass runs (a
    /// resumed batch's main pass plus its healing pass) and multi-rank
    /// distributed generation report one aggregate [`RunStats`].
    pub fn absorb(&mut self, other: &RunStats) {
        self.elapsed += other.elapsed;
        self.per_worker.extend(other.per_worker.iter().copied());
        self.steals += other.steals;
        self.failures.extend(other.failures.iter().cloned());
        self.failures.sort_by_key(|&(i, _)| i);
        self.failures.dedup_by_key(|&mut (i, _)| i);
        self.retries += other.retries;
        self.respawns += other.respawns;
        self.killed |= other.killed;
    }

    /// [`RunStats::absorb`] folded over any number of runs (per-rank stats
    /// of a distributed generation, sequential passes of a resumed one).
    pub fn aggregate<'a>(runs: impl IntoIterator<Item = &'a RunStats>) -> RunStats {
        let mut total = RunStats::default();
        for r in runs {
            total.absorb(r);
        }
        total
    }

    /// Export this run's statistics into the telemetry snapshot: one
    /// `runtime.*` counter per field (so [`RunStats::absorb`]-style merges
    /// fall out of counter summation), a `runtime.imbalance` gauge, and a
    /// per-worker `runtime.worker_busy` span + `runtime.worker_executed`
    /// gauge attributed via [`Telemetry::worker_scope`]. Event counts are
    /// deterministic (one bundle per recorded run); steal/retry *values*
    /// are meters of the actual schedule.
    pub fn record_to(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        tel.count("runtime.executed", self.total_executed() as u64);
        tel.count("runtime.steals", self.steals);
        tel.count("runtime.failures", self.failures.len() as u64);
        tel.count("runtime.retries", self.retries);
        tel.count("runtime.respawns", self.respawns);
        tel.count("runtime.killed", self.killed as u64);
        tel.gauge("runtime.imbalance", self.imbalance());
        tel.gauge("runtime.throughput", self.throughput());
        for (w, r) in self.per_worker.iter().enumerate() {
            let _scope = tel.worker_scope(w as u32);
            tel.span_record("runtime.worker_busy", r.busy);
            tel.gauge("runtime.worker_executed", r.executed as f64);
        }
    }
}

/// Where a batch's traces execute — the *backend* axis of a
/// [`crate::RunPlan`].
pub enum Backend<'a> {
    /// One program per worker thread (local models or blocking PPX
    /// connections): the pool size is the worker count.
    Local(&'a mut SimulatorPool),
    /// K multiplexed PPX sessions driven by M ≤ K reactor threads.
    Mux(&'a mut MuxSimulatorPool),
}

impl Backend<'_> {
    /// The worker threads a batch on this backend runs when `requested`
    /// were asked for (0 = all cores): a local pool's size — the pool
    /// resolved the request when it was built (see
    /// [`SimulatorPool::from_factory`]) — or, over a mux pool, the resolved
    /// request capped at the session count K.
    pub fn workers(&self, requested: usize) -> usize {
        match self {
            Backend::Local(pool) => pool.len(),
            Backend::Mux(pool) => RuntimeConfig { workers: requested, stealing: true }
                .resolved_workers()
                .min(pool.len()),
        }
    }

    /// The same backend, borrowed again (a plan runs several passes).
    pub(crate) fn reborrow(&mut self) -> Backend<'_> {
        match self {
            Backend::Local(pool) => Backend::Local(pool),
            Backend::Mux(pool) => Backend::Mux(pool),
        }
    }
}

/// What every worker of one batch shares, whichever backend runs it.
pub(crate) struct Shared<'a, B> {
    pub(crate) queues: TaskQueues,
    retries: RetryTable,
    pub(crate) sink: &'a dyn TraceSink<B>,
    pub(crate) proposers: &'a dyn ProposerFactory,
    pub(crate) observes: &'a ObserveMap,
    pub(crate) seed: u64,
    pub(crate) stealing: bool,
    kill: Option<&'a KillSwitch>,
    pub(crate) tel: &'a Telemetry,
}

/// What one worker (blocking thread or mux reactor) did during a batch.
#[derive(Default)]
pub(crate) struct WorkerOutcome {
    pub(crate) report: WorkerReport,
    failures: Vec<(usize, String)>,
    retries: u64,
    pub(crate) respawns: u64,
}

impl<B: TraceTarget> Shared<'_, B> {
    /// Has the batch's kill switch fired?
    pub(crate) fn killed(&self) -> bool {
        self.kill.is_some_and(|k| k.killed())
    }

    /// Hand trace `index` to the sink.
    pub(crate) fn deliver(&self, out: &mut WorkerOutcome, index: usize, item: B::Output) {
        out.report.executed += 1;
        self.sink.accept(index, item);
        if let Some(k) = self.kill {
            k.tick();
        }
    }

    /// One failed execution of `index` must not abort the batch: requeue it
    /// onto `worker`'s deque (a healthy simulator reruns it bit-identically)
    /// while its retry budget lasts, then record it. `true` if requeued.
    pub(crate) fn fail(
        &self,
        out: &mut WorkerOutcome,
        worker: usize,
        index: usize,
        error: &str,
    ) -> bool {
        if self.retries.try_consume(index) {
            self.queues.push(worker, index);
            out.retries += 1;
            true
        } else {
            self.sink.reject(index, error);
            out.failures.push((index, error.to_string()));
            false
        }
    }
}

/// Run `work(w, share)` for every share and collect the results in worker
/// order: the last share on the calling thread, every other one on its own
/// scoped thread.
///
/// The caller would otherwise only wait on the joins. Working instead keeps
/// one thread fewer — and one malloc arena fewer: glibc gives every thread
/// that allocates an arena of its own, the traces a batch returns keep
/// their worker's arena full until the caller drops them, and the caller's
/// own arena usually has the room already (DESIGN.md §2 has the peak-RSS
/// numbers).
pub(crate) fn spawn_workers<S: Send, R: Send>(
    mut shares: Vec<S>,
    work: impl Fn(usize, S) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    let Some(last) = shares.pop() else { return Vec::new() };
    std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .enumerate()
            .map(|(w, share)| s.spawn(move || work(w, share)))
            .collect();
        let own = work(handles.len(), last);
        let mut results: Vec<R> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect();
        results.push(own);
        results
    })
}

/// The blocking backend: each worker owns one pooled program for the whole
/// batch and executes its popped indices one after another.
fn run_blocking<B: TraceTarget>(
    pool: &mut SimulatorPool,
    shared: &Shared<B>,
) -> Vec<WorkerOutcome> {
    let workers = shared.queues.workers();
    spawn_workers(pool.programs_mut().iter_mut().collect(), |w, program| {
        let _tel_scope = shared.tel.worker_scope(w as u32);
        let mut proposer = shared.proposers.make_proposer(w);
        let mut out = WorkerOutcome::default();
        let mut consecutive = 0u32;
        while !shared.killed() {
            let Some((i, stolen)) = shared.queues.pop_traced(w, shared.stealing) else { break };
            if stolen {
                shared.tel.count("runtime.steal", 1);
            }
            let task_span = shared.tel.span("runtime.task");
            let t0 = Instant::now(); // etalumis: allow(determinism, reason = "wall-clock busy accounting; telemetry only")
            let result = Executor::try_record_seeded(
                program,
                proposer.as_mut(),
                shared.observes,
                mix_seed(shared.seed, i),
                shared.sink.target(),
            );
            drop(task_span);
            out.report.busy += t0.elapsed();
            match result {
                Ok(item) => {
                    consecutive = 0;
                    shared.deliver(&mut out, i, item);
                }
                Err(e) => {
                    shared.fail(&mut out, (w + 1) % workers, i, &e.message);
                    // A program that keeps failing is dead (poisoned remote
                    // session): retire the worker, let the others absorb
                    // its share.
                    consecutive += 1;
                    if consecutive >= WORKER_FAILURE_THRESHOLD {
                        break;
                    }
                }
            }
        }
        out
    })
}

/// Executes batches of traces over a [`Backend`].
#[derive(Clone)]
pub struct BatchRunner {
    config: RuntimeConfig,
    kill: Option<Arc<KillSwitch>>,
    /// Explicit task list (a resumed batch's remaining indices). `None`
    /// means the full range `0..n`, block-partitioned.
    tasks: Option<Vec<usize>>,
    tel: Telemetry,
}

impl BatchRunner {
    /// Runner with the given scheduling configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        Self { config, kill: None, tasks: None, tel: Telemetry::disabled() }
    }

    /// Runner with default scheduling (all cores, stealing on).
    pub fn default_runner() -> Self {
        Self::new(RuntimeConfig::default())
    }

    /// Attach a [`KillSwitch`]; when it fires, workers abandon the batch
    /// immediately (simulated process death for checkpoint tests).
    pub fn with_kill_switch(mut self, kill: Arc<KillSwitch>) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Attach a [`Telemetry`] handle. Workers then record one
    /// `runtime.task` span per trace execution (worker-attributed, nested
    /// steals counted as `runtime.steal`) and the run records its
    /// [`RunStats`] into the snapshot. Instrumentation only observes — the
    /// batch's content stays bit-identical to an uninstrumented run.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Run only these trace indices of the batch, interleaved round-robin
    /// across workers so the contiguous completed prefix — what a
    /// checkpoint or a stream can release — advances evenly. Per-trace
    /// seeding is unchanged: index `i` still runs under `mix_seed(seed, i)`.
    pub(crate) fn with_tasks(mut self, tasks: Vec<usize>) -> Self {
        self.tasks = Some(tasks);
        self
    }

    /// Execute `n` traces on `backend` under per-worker proposers from
    /// `proposers`, conditioning on `observes`, streaming completions into
    /// `sink`, each recorded into a target from [`TraceSink::target`].
    ///
    /// Trace `i` is a pure function of `(program, proposer, observes,
    /// mix_seed(seed, i))`, so batch content is bit-identical for any
    /// backend, worker count and schedule. The worker count is
    /// [`Backend::workers`] of `RuntimeConfig.workers`; over a local pool a
    /// non-zero `RuntimeConfig.workers` must agree with the pool size
    /// (checked). A failed execution is retried up to three times;
    /// every index ends delivered or in [`RunStats::failures`].
    pub fn run<B: TraceTarget>(
        &self,
        backend: Backend<'_>,
        proposers: &dyn ProposerFactory,
        observes: &ObserveMap,
        n: usize,
        seed: u64,
        sink: &dyn TraceSink<B>,
    ) -> RunStats {
        let workers = backend.workers(self.config.workers);
        assert!(
            matches!(backend, Backend::Mux(_))
                || self.config.workers == 0
                || self.config.workers == workers,
            "RuntimeConfig.workers ({}) disagrees with the pool size ({workers}); \
             the pool defines the worker count (workers = 0 defers to it)",
            self.config.workers,
        );
        let shared = Shared {
            queues: TaskQueues::new(workers),
            retries: RetryTable::default(),
            sink,
            proposers,
            observes,
            seed,
            stealing: self.config.stealing,
            kill: self.kill.as_deref(),
            tel: &self.tel,
        };
        match &self.tasks {
            Some(tasks) => shared.queues.fill_interleaved(tasks.iter().copied()),
            None => shared.queues.fill_blocks(n),
        }
        let start = Instant::now(); // etalumis: allow(determinism, reason = "wall-clock report timing; telemetry only, never reaches trace bytes")
        let outcomes = match backend {
            Backend::Local(pool) => run_blocking(pool, &shared),
            Backend::Mux(pool) => crate::oversub::run_reactors(pool, workers, &shared),
        };
        let mut stats = RunStats {
            steals: shared.queues.steals(),
            killed: shared.killed(),
            ..RunStats::default()
        };
        for o in outcomes {
            stats.per_worker.push(o.report);
            stats.failures.extend(o.failures);
            stats.retries += o.retries;
            stats.respawns += o.respawns;
        }
        if !stats.killed {
            // Tasks stranded because every worker that could take them
            // retired (dead programs or sessions, stealing off): account
            // for every index.
            const STRANDED: &str = "not executed: every worker able to run it retired";
            for i in shared.queues.drain_remaining() {
                sink.reject(i, STRANDED);
                stats.failures.push((i, STRANDED.to_string()));
            }
        }
        stats.failures.sort_by_key(|(i, _)| *i);
        stats.elapsed = start.elapsed();
        stats.record_to(&self.tel);
        stats
    }

    /// [`BatchRunner::run`] with prior proposals over a local pool — plain
    /// trace generation.
    pub fn run_prior<B: TraceTarget>(
        &self,
        pool: &mut SimulatorPool,
        observes: &ObserveMap,
        n: usize,
        seed: u64,
        sink: &dyn TraceSink<B>,
    ) -> RunStats {
        self.run(Backend::Local(pool), &PriorProposerFactory, observes, n, seed, sink)
    }

    /// [`BatchRunner::run`] with prior proposals over a mux pool.
    pub fn run_mux_prior<B: TraceTarget>(
        &self,
        pool: &mut MuxSimulatorPool,
        observes: &ObserveMap,
        n: usize,
        seed: u64,
        sink: &dyn TraceSink<B>,
    ) -> RunStats {
        self.run(Backend::Mux(pool), &PriorProposerFactory, observes, n, seed, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use etalumis_core::{FnProgram, SimCtx, SimCtxExt};
    use etalumis_distributions::{Distribution, Value};
    use etalumis_simulators::BranchingModel;

    fn branching_pool(workers: usize) -> SimulatorPool {
        SimulatorPool::from_factory(workers, |_| BranchingModel::standard())
    }

    fn run_batch(workers: usize, n: usize, seed: u64) -> Vec<Trace> {
        let mut pool = branching_pool(workers);
        let runner = BatchRunner::new(RuntimeConfig { workers, stealing: true });
        let sink = CollectSink::new(n);
        let observes = ObserveMap::new();
        let stats = runner.run_prior(&mut pool, &observes, n, seed, &sink);
        assert_eq!(stats.total_executed(), n);
        sink.into_traces()
    }

    use etalumis_core::Trace;

    #[test]
    fn one_worker_batches_are_deterministic() {
        let a = run_batch(1, 24, 42);
        let b = run_batch(1, 24, 42);
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result, y.result);
            assert_eq!(x.log_joint(), y.log_joint());
        }
    }

    #[test]
    fn batch_content_is_independent_of_worker_count() {
        let serial = run_batch(1, 40, 7);
        for workers in [2usize, 4] {
            let parallel = run_batch(workers, 40, 7);
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.result, p.result, "trace diverged at {workers} workers");
                assert_eq!(s.log_joint(), p.log_joint());
            }
        }
    }

    #[test]
    fn all_traces_delivered_under_many_workers() {
        let n = 103;
        let mut pool = branching_pool(5);
        let runner = BatchRunner::new(RuntimeConfig { workers: 5, stealing: true });
        let sink = CollectSink::new(n);
        let observes = ObserveMap::new();
        let stats = runner.run_prior(&mut pool, &observes, n, 3, &sink);
        assert_eq!(stats.total_executed(), n);
        assert_eq!(stats.per_worker.len(), 5);
        // into_results reports missing indices — delivery check.
        let (delivered, missing) = sink.into_results();
        assert_eq!(delivered.len(), n);
        assert!(missing.is_empty());
    }

    #[test]
    fn skewed_workload_triggers_stealing() {
        // All heavy work lands in worker 0's initial block: indices 0..n/4
        // spin, the rest are trivial. With block filling, workers 1..3 drain
        // their trivial blocks and must steal from worker 0 to finish.
        let n = 64usize;
        let heavy = n / 4; // exactly worker 0's block
        let model = move |_w: usize| {
            FnProgram::new("skew", move |ctx: &mut dyn SimCtx| {
                let x = ctx.sample_f64(&Distribution::Uniform { low: 0.0, high: 1.0 }, "x");
                Value::Real(x)
            })
        };
        let mut pool = SimulatorPool::from_factory(4, model);
        let runner = BatchRunner::new(RuntimeConfig { workers: 4, stealing: true });
        let observes = ObserveMap::new();

        // Sink that burns time for heavy indices, simulating slow simulator
        // executions without depending on model internals.
        struct SlowSink {
            heavy_below: usize,
        }
        impl TraceSink for SlowSink {
            fn target(&self) -> Trace {
                Trace::default()
            }

            fn accept(&self, index: usize, _trace: Trace) {
                if index < self.heavy_below {
                    std::thread::sleep(std::time::Duration::from_millis(4));
                }
            }
        }
        let sink = SlowSink { heavy_below: heavy };
        let stats = runner.run_prior(&mut pool, &observes, n, 11, &sink);
        assert_eq!(stats.total_executed(), n);
        assert!(stats.steals > 0, "skewed workload should force steals, got {:?}", stats);
    }

    #[test]
    fn failed_traces_are_recorded_not_fatal() {
        use etalumis_core::{ProbProgram, RunError};
        // A "remote" program whose transport is dead: every run fails.
        struct DeadTransportProgram;
        impl ProbProgram for DeadTransportProgram {
            fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
                self.try_run(ctx).expect("dead transport")
            }
            fn try_run(&mut self, _ctx: &mut dyn SimCtx) -> Result<Value, RunError> {
                Err(RunError::new("peer disconnected"))
            }
        }
        let mut pool = SimulatorPool::from_programs(vec![Box::new(DeadTransportProgram)]);
        let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
        let sink = crate::sink::CountingSink::default();
        let observes = ObserveMap::new();
        let stats = runner.run_prior(&mut pool, &observes, 12, 4, &sink);
        // The batch completed; nothing was delivered, every index is
        // accounted for: the sole worker retried its dead program a few
        // times, retired, and the remaining share was drained as failures.
        assert_eq!(stats.total_executed(), 0);
        assert_eq!(sink.count(), 0);
        assert_eq!(stats.failures.len(), 12);
        assert_eq!(stats.failures[0].0, 0);
        assert!(stats.retries > 0, "a failed trace must be retried before giving up: {stats:?}");
        assert!(!stats.killed);
    }

    #[test]
    fn transient_failures_are_retried_on_healthy_workers() {
        use etalumis_core::{ProbProgram, RunError};
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Worker 1's program dies on every execution; worker 0 is healthy.
        // Every trace must still be delivered, through retries, with zero
        // recorded failures. The dead program is the last share, which the
        // calling thread starts on at once — before the healthy worker could
        // have stolen its whole block.
        static FAILS: AtomicUsize = AtomicUsize::new(0);
        struct FlakyProgram {
            healthy: Option<BranchingModel>,
        }
        impl ProbProgram for FlakyProgram {
            fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
                self.try_run(ctx).expect("flaky")
            }
            fn try_run(&mut self, ctx: &mut dyn SimCtx) -> Result<Value, RunError> {
                match &mut self.healthy {
                    Some(m) => m.try_run(ctx),
                    None => {
                        FAILS.fetch_add(1, Ordering::SeqCst);
                        Err(RunError::new("simulator crashed"))
                    }
                }
            }
        }
        FAILS.store(0, Ordering::SeqCst);
        let mut pool = SimulatorPool::from_programs(vec![
            Box::new(FlakyProgram { healthy: Some(BranchingModel::standard()) }),
            Box::new(FlakyProgram { healthy: None }),
        ]);
        let n = 16;
        let runner = BatchRunner::new(RuntimeConfig { workers: 2, stealing: true });
        let sink = CollectSink::new(n);
        let observes = ObserveMap::new();
        let stats = runner.run_prior(&mut pool, &observes, n, 8, &sink);
        assert_eq!(stats.total_executed(), n, "stats: {stats:?}");
        assert!(stats.failures.is_empty(), "retries must absorb the dead worker: {stats:?}");
        assert!(stats.retries > 0);
        assert_eq!(sink.into_traces().len(), n);
        assert!(FAILS.load(Ordering::SeqCst) > 0, "the dead worker must have been exercised");
    }

    #[test]
    fn static_mode_never_steals() {
        let mut pool = branching_pool(3);
        let runner = BatchRunner::new(RuntimeConfig { workers: 3, stealing: false });
        let sink = CollectSink::new(30);
        let observes = ObserveMap::new();
        let stats = runner.run_prior(&mut pool, &observes, 30, 5, &sink);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.total_executed(), 30);
        // Static blocks: every worker executed exactly its block.
        assert!(stats.per_worker.iter().all(|w| w.executed == 10));
    }
}
