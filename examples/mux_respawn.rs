//! Kill-one-simulator-mid-batch smoke for the multiplexed session pool.
//!
//! Connects a [`MuxSimulatorPool`] of PPX sessions, crashes one simulator's
//! transport partway through a batch, and shows the reactor absorbing it:
//! the in-flight trace is requeued, the session is respawned through the
//! pool's endpoint factory (fresh endpoint + fresh handshake), and the
//! batch completes with content bit-identical to an undisturbed run. It
//! does so twice: once on the per-statement exchange, once on the seeded
//! one-round-trip exchange a prior batch takes against a capable simulator.
//!
//! ```text
//! cargo run --release --example mux_respawn
//! ```
//!
//! [`MuxSimulatorPool`]: etalumis_runtime::MuxSimulatorPool

use etalumis_core::{
    Executor, FnProgram, ObserveMap, PriorProposer, Proposer, SimCtx, SimCtxExt, Trace,
};
use etalumis_distributions::{Distribution, Value};
use etalumis_ppx::{InProcMuxEndpoint, MuxEndpoint, PpxError, SimulatorServer};
use etalumis_runtime::{
    mix_seed, Backend, BatchRunner, CollectSink, MuxSimulatorPool, RuntimeConfig,
};
use etalumis_telemetry::{Field, Logger};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn model() -> FnProgram<impl FnMut(&mut dyn SimCtx) -> Value> {
    FnProgram::new("respawn_demo", |ctx: &mut dyn SimCtx| {
        let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
        let k = ctx.sample_i64(&Distribution::Categorical { probs: vec![0.5, 0.3, 0.2] }, "branch");
        for j in 0..=k {
            let _ = ctx.sample_f64(&Distribution::Normal { mean: mu, std: 1.0 + j as f64 }, "n");
        }
        ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
        Value::Real(mu)
    })
}

/// Endpoint that dies after delivering `frames_left` frames.
struct FailAfter {
    inner: InProcMuxEndpoint,
    frames_left: usize,
}

impl MuxEndpoint for FailAfter {
    fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        if self.frames_left == 0 {
            return Err(PpxError::Disconnected);
        }
        let f = self.inner.poll_frame()?;
        if f.is_some() {
            self.frames_left -= 1;
        }
        Ok(f)
    }

    fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError> {
        self.inner.send_frame(payload)
    }

    fn flush(&mut self) -> Result<bool, PpxError> {
        self.inner.flush()
    }
}

fn spawn_server() -> InProcMuxEndpoint {
    let (ep, sim_side) = InProcMuxEndpoint::pair();
    std::thread::spawn(move || {
        let mut server = SimulatorServer::new("respawn-demo", model());
        let mut t = sim_side;
        let _ = server.serve(&mut t);
    });
    ep
}

const SESSIONS: usize = 4;
const WORKERS: usize = 2;
const SEED: u64 = 77;

/// Crash session 0's first endpoint after `frames` delivered frames, run a
/// prior batch of `traces` over the pool on one exchange, and check that
/// the respawn absorbed the crash with content bit-identical to local runs.
fn crash_and_verify(log: &Logger, seeded: bool, traces: usize, frames: usize) {
    // Local reference: the per-trace-seeded executor defines the batch's
    // content; any healthy path must reproduce it bit-for-bit.
    let observes = ObserveMap::new();
    let mut reference_model = model();
    let reference: Vec<Trace> = (0..traces)
        .map(|i| {
            Executor::try_execute_seeded(
                &mut reference_model,
                &mut PriorProposer,
                &observes,
                mix_seed(SEED, i),
            )
            .expect("local reference")
        })
        .collect();

    // Every endpoint the factory makes after the crashing one — including
    // the respawn replacement — is healthy.
    let crashed = Arc::new(AtomicBool::new(false));
    let mut pool = MuxSimulatorPool::connect(SESSIONS, "etalumis-rs", move |i| {
        let inner = spawn_server();
        let ep: Box<dyn MuxEndpoint> = if i == 0 && !crashed.swap(true, Ordering::SeqCst) {
            Box::new(FailAfter { inner, frames_left: frames })
        } else {
            Box::new(inner)
        };
        Ok(ep)
    })
    .expect("pool connect");
    let model_name = pool.model_name().to_string();
    log.info(
        "pool",
        &[
            ("sessions", Field::U64(pool.len() as u64)),
            ("model", Field::Str(&model_name)),
            ("seeded", Field::Bool(seeded)),
            ("rigged_to_crash", Field::U64(1)),
        ],
    );

    let runner = BatchRunner::new(RuntimeConfig { workers: WORKERS, stealing: true });
    let sink = CollectSink::new(traces);
    let stats = if seeded {
        runner.run_mux_prior(&mut pool, &observes, traces, SEED, &sink)
    } else {
        // Prior proposals from a closure are not `prior_only`: the
        // per-statement exchange.
        let per_statement = |_: usize| Box::new(PriorProposer) as Box<dyn Proposer + Send>;
        runner.run(Backend::Mux(&mut pool), &per_statement, &observes, traces, SEED, &sink)
    };
    log.info(
        "batch",
        &[
            ("traces", Field::U64(stats.total_executed() as u64)),
            ("workers", Field::U64(WORKERS as u64)),
            ("wall_s", Field::F64(stats.elapsed.as_secs_f64())),
        ],
    );
    log.info(
        "fault_tolerance",
        &[
            ("respawns", Field::U64(stats.respawns)),
            ("retries", Field::U64(stats.retries)),
            ("failures", Field::U64(stats.failures.len() as u64)),
        ],
    );

    assert!(stats.failures.is_empty(), "respawn must absorb the crash: {:?}", stats.failures);
    assert_eq!(stats.total_executed(), traces, "every trace must be delivered");
    assert!(stats.respawns >= 1, "the rigged session must have been respawned");
    assert_eq!(pool.live(), SESSIONS, "the respawned session must rejoin the pool");

    // Bit-identical content despite the mid-batch death.
    let got = sink.into_traces();
    assert_eq!(got.len(), traces);
    for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(a.entries.len(), b.entries.len(), "trace {i}: entry count");
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.value, y.value, "trace {i}: value");
            assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits(), "trace {i}: log_prob bits");
        }
        assert_eq!(a.result, b.result, "trace {i}: result");
    }
    log.info(
        "verified",
        &[("seeded", Field::Bool(seeded)), ("bit_identical_to_reference", Field::Bool(true))],
    );
}

fn main() {
    let log = Logger::from_args();
    // Per statement, session 0 dies mid-batch after ~40 delivered frames.
    crash_and_verify(&log, false, 200, 40);
    // Seeded, one frame is a whole trace: session 0 dies early in the
    // batch (after its handshake and three traces), so the respawn, due
    // after the default 2 ms backoff, has most of a larger batch to land
    // in.
    crash_and_verify(&log, true, 1000, 4);
    println!("OK");
}
