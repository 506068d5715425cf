//! `etalumis_ppx::serve_listener` contracts over real loopback TCP, driven
//! by the controller side the benchmark and the examples use
//! (`MuxSimulatorPool::connect_tcp` on one reactor worker).

use etalumis_core::{BoxedProgram, Executor, FnProgram, ObserveMap, SimCtx, SimCtxExt, Trace};
use etalumis_distributions::{Distribution, Value};
use etalumis_ppx::{serve_listener, Message, TcpTransport, Transport};
use etalumis_runtime::{mix_seed, BatchRunner, CollectSink, MuxSimulatorPool, RuntimeConfig};
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
        assert_eq!(x.value, y.value, "trace {i}");
        assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits(), "trace {i}");
        assert_eq!(x.log_q.to_bits(), y.log_q.to_bits(), "trace {i}");
    }
    assert_eq!(a.result, b.result, "trace {i}");
    assert_eq!(a.tags, b.tags, "trace {i}");
    assert_eq!(a.log_prior.to_bits(), b.log_prior.to_bits(), "trace {i}");
    assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits(), "trace {i}");
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
