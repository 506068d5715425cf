//! `etalumis_ppx::serve_listener` contracts over real loopback TCP, driven
//! by the controller side the benchmark and the examples use
//! (`MuxSimulatorPool::connect_tcp` on one reactor worker), and the rule
//! that picks the exchange: seeded prior runs only for a prior-only batch
//! against a simulator that advertises them, the per-statement exchange
//! otherwise.

use etalumis_core::{
    BoxedProgram, Executor, FnProgram, ObserveMap, PriorProposer, Proposer, SimCtx, SimCtxExt,
    Trace,
};
use etalumis_distributions::{Distribution, Value};
use etalumis_ppx::wire::{decode, encode};
use etalumis_ppx::{
    serve_listener, Capabilities, InProcMuxEndpoint, InProcTransport, Message, MuxEndpoint,
    RemoteModel, SimulatorServer, TcpMuxEndpoint, TcpTransport, Transport,
};
use etalumis_runtime::{
    mix_seed, Backend, BatchRunner, CollectSink, MuxSimulatorPool, RuntimeConfig, SimulatorPool,
};
use etalumis_telemetry::Telemetry;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn model() -> BoxedProgram {
    Box::new(FnProgram::new("listener_model", |ctx: &mut dyn SimCtx| {
        let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
        let k = ctx.sample_i64(&Distribution::Categorical { probs: vec![0.5, 0.3, 0.2] }, "k");
        for j in 0..=k {
            let _ = ctx.sample_f64(&Distribution::Normal { mean: mu, std: 1.0 + j as f64 }, "z");
        }
        ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
        ctx.tag("k", Value::Int(k));
        Value::Real(mu)
    }))
}

/// A `serve_listener` for `clients` clients on its own thread, plus the
/// address to reach it.
fn spawn_server(
    listener: TcpListener,
    clients: usize,
) -> (String, JoinHandle<std::io::Result<()>>) {
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || serve_listener(listener, "sim", |_| model(), clients));
    (addr, server)
}

/// Run `n` prior traces over every session of `pool` on one reactor worker
/// and check each against a local execution under the same per-trace seed.
fn assert_batch_matches_local(pool: &mut MuxSimulatorPool, n: usize, seed: u64) {
    let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
    let sink = CollectSink::new(n);
    let stats = runner.run_mux_prior(pool, &ObserveMap::new(), n, seed, &sink);
    assert!(stats.failures.is_empty(), "failures: {:?}", stats.failures);
    assert_eq!(stats.total_executed(), n);
    for (i, remote) in sink.into_traces().iter().enumerate() {
        let local = Executor::sample_prior(&mut *model(), mix_seed(seed, i));
        assert_bit_equal(remote, &local, i);
    }
}

fn assert_bit_equal(a: &Trace, b: &Trace, i: usize) {
    assert_eq!(a.entries.len(), b.entries.len(), "entries of trace {i}");
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.address, y.address, "trace {i}");
        assert_eq!(x.name, y.name, "trace {i}");
        assert_eq!(x.kind, y.kind, "trace {i}");
        assert_eq!(x.distribution, y.distribution, "trace {i}");
        assert_eq!(x.value, y.value, "trace {i}");
        assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits(), "trace {i}");
        assert_eq!(x.log_q.to_bits(), y.log_q.to_bits(), "trace {i}");
    }
    assert_eq!(a.result, b.result, "trace {i}");
    assert_eq!(a.tags, b.tags, "trace {i}");
    assert_eq!(a.log_prior.to_bits(), b.log_prior.to_bits(), "trace {i}");
    assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits(), "trace {i}");
    assert_eq!(a.log_q.to_bits(), b.log_q.to_bits(), "trace {i}");
}

/// Every frame of one exchange, both ways, as encoded on the wire.
type ExchangeLog = Arc<Mutex<Vec<Vec<u8>>>>;

/// A simulator that does not advertise seeded prior runs: the real server
/// behind a transport that empties the capability set of its handshake and
/// logs every frame of the exchange, both ways, as encoded on the wire.
struct Incapable<T: Transport> {
    inner: T,
    log: ExchangeLog,
}

impl<T: Transport> Transport for Incapable<T> {
    fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        let msg = match msg {
            Message::HandshakeResult { system_name, model_name, .. } => Message::HandshakeResult {
                system_name: system_name.clone(),
                model_name: model_name.clone(),
                capabilities: Capabilities::default(),
            },
            other => other.clone(),
        };
        self.log.lock().unwrap().push(encode(&msg).into());
        self.inner.send(&msg)
    }

    fn recv(&mut self) -> std::io::Result<Message> {
        let msg = self.inner.recv()?;
        self.log.lock().unwrap().push(encode(&msg).into());
        Ok(msg)
    }
}

/// Serve `model()` as an [`Incapable`] simulator over `transport` on its
/// own thread; returns the exchange log.
fn serve_incapable<T: Transport + Send + 'static>(transport: T) -> ExchangeLog {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut t = Incapable { inner: transport, log: log.clone() };
    std::thread::spawn(move || SimulatorServer::new("legacy", model()).serve(&mut t));
    log
}

/// The controller side of a [`serve_incapable`] peer: one in-process or
/// TCP connection.
fn incapable_peer(tcp: bool) -> (Box<dyn MuxEndpoint>, ExchangeLog) {
    if tcp {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = TcpMuxEndpoint::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let stream = listener.accept().unwrap().0;
        (Box::new(ep), serve_incapable(TcpTransport::new(stream).unwrap()))
    } else {
        let (ep, sim_side) = InProcMuxEndpoint::pair();
        (Box::new(ep), serve_incapable(sim_side))
    }
}

#[test]
fn four_tcp_sessions_on_one_reactor_are_bit_equal_to_local_runs() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let built = Arc::new(Mutex::new(Vec::new()));
    let log = built.clone();
    let server = std::thread::spawn(move || {
        serve_listener(
            listener,
            "sim",
            move |i| {
                log.lock().unwrap().push(i);
                model()
            },
            4,
        )
    });
    let mut pool = MuxSimulatorPool::connect_tcp(4, &addr, "etalumis-rs").unwrap();
    assert_eq!(pool.model_name(), "listener_model");
    assert_batch_matches_local(&mut pool, 40, 17);
    drop(pool);
    server.join().unwrap().expect("serve_listener returns Ok once every client closed");
    assert_eq!(*built.lock().unwrap(), vec![0, 1, 2, 3], "one factory call per client, in order");
}

#[test]
fn a_silent_client_does_not_delay_the_others() {
    let (addr, server) = spawn_server(TcpListener::bind("127.0.0.1:0").unwrap(), 4);
    // Connects first, then never sends a byte.
    let silent = TcpStream::connect(&addr).unwrap();
    let mut pool = MuxSimulatorPool::connect_tcp(3, &addr, "etalumis-rs").unwrap();
    let start = Instant::now();
    assert_batch_matches_local(&mut pool, 30, 5);
    assert!(start.elapsed() < Duration::from_secs(10), "batch took {:?}", start.elapsed());
    drop(pool);
    drop(silent);
    server.join().unwrap().unwrap();
}

#[test]
fn a_client_dying_mid_run_leaves_the_others_serving() {
    let (addr, server) = spawn_server(TcpListener::bind("127.0.0.1:0").unwrap(), 4);
    let mut pool = MuxSimulatorPool::connect_tcp(3, &addr, "etalumis-rs").unwrap();
    let mut dying = TcpTransport::connect(&addr).unwrap();
    dying.send(&Message::Handshake { system_name: "dying".into() }).unwrap();
    assert_eq!(dying.recv().unwrap().name(), "HandshakeResult");
    dying.send(&Message::Run { observation: Value::Unit }).unwrap();
    assert_eq!(dying.recv().unwrap().name(), "Sample");
    drop(dying);
    assert_batch_matches_local(&mut pool, 30, 8);
    drop(pool);
    server.join().unwrap().unwrap();
}

#[test]
fn a_nonblocking_listener_still_serves() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let (addr, server) = spawn_server(listener, 2);
    // Let the server reach `accept` with no connection pending.
    std::thread::sleep(Duration::from_millis(50));
    let mut pool = MuxSimulatorPool::connect_tcp(2, &addr, "etalumis-rs").unwrap();
    assert_batch_matches_local(&mut pool, 12, 3);
    drop(pool);
    server.join().unwrap().unwrap();
}

#[test]
fn a_simulator_without_the_capability_keeps_the_per_statement_exchange() {
    let (n, seed) = (12, 31);
    for tcp in [false, true] {
        // Today's exchange: the blocking per-statement client, which never
        // asks for a seeded run, against the same kind of peer.
        let (controller_side, sim_side) = InProcTransport::pair();
        let reference_log = serve_incapable(sim_side);
        let mut controller_side = Some(controller_side);
        let mut blocking = SimulatorPool::connect_ppx(1, |_| {
            RemoteModel::connect(controller_side.take().unwrap(), "etalumis-rs")
        })
        .unwrap();
        let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
        let sink = CollectSink::new(n);
        runner.run_prior(&mut blocking, &ObserveMap::new(), n, seed, &sink);
        drop(blocking);

        // A prior-only batch on the mux reactor against that peer.
        let (ep, log) = incapable_peer(tcp);
        let ep = Mutex::new(Some(ep));
        let mut pool = MuxSimulatorPool::connect(1, "etalumis-rs", move |_| {
            ep.lock().unwrap().take().ok_or_else(|| std::io::Error::other("one connection only"))
        })
        .unwrap();
        assert_batch_matches_local(&mut pool, n, seed);
        drop(pool);

        let frames = log.lock().unwrap().clone();
        assert!(
            frames.iter().all(|f| decode(f).unwrap().name() != "RunPrior"),
            "tcp {tcp}: a RunPrior reached a simulator without the capability"
        );
        assert_eq!(frames, *reference_log.lock().unwrap(), "tcp {tcp}: the exchange differs");
    }
}

#[test]
fn a_factory_that_is_not_prior_only_keeps_the_per_statement_exchange() {
    let (addr, server) = spawn_server(TcpListener::bind("127.0.0.1:0").unwrap(), 2);
    let mut pool = MuxSimulatorPool::connect_tcp(2, &addr, "etalumis-rs").unwrap();
    let (n, seed) = (20, 11);
    // Prior proposals, but from a closure: nothing tells the runtime that
    // every proposer it makes is the prior.
    let per_statement = |_: usize| Box::new(PriorProposer) as Box<dyn Proposer + Send>;
    let tel = Telemetry::enabled();
    let runner =
        BatchRunner::new(RuntimeConfig { workers: 1, stealing: true }).with_telemetry(tel.clone());
    let sink = CollectSink::new(n);
    let stats =
        runner.run(Backend::Mux(&mut pool), &per_statement, &ObserveMap::new(), n, seed, &sink);
    assert!(stats.failures.is_empty(), "failures: {:?}", stats.failures);
    for (i, remote) in sink.into_traces().iter().enumerate() {
        let local = Executor::sample_prior(&mut *model(), mix_seed(seed, i));
        assert_bit_equal(remote, &local, i);
    }
    // One frame per statement, not one per trace.
    let frames_in = tel.collect().snapshot().counters["mux.frames_in"];
    assert!(frames_in > n as u64, "{frames_in} frames in for {n} traces");

    // The same batch under the prior-only factory is one frame each way
    // per trace.
    let tel = Telemetry::enabled();
    let runner =
        BatchRunner::new(RuntimeConfig { workers: 1, stealing: true }).with_telemetry(tel.clone());
    let sink = CollectSink::new(n);
    runner.run_mux_prior(&mut pool, &ObserveMap::new(), n, seed, &sink);
    let counters = tel.collect().snapshot().counters;
    assert_eq!((counters["mux.frames_in"], counters["mux.frames_out"]), (n as u64, n as u64));
    drop(pool);
    server.join().unwrap().unwrap();
}
