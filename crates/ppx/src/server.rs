//! The simulator-side PPX binding.
//!
//! [`SimulatorServer`] wraps any native [`ProbProgram`] and serves it over a
//! [`Transport`]: every `sample`/`observe`/`tag` statement the program
//! executes is forwarded to the remote controller as a PPX message, and the
//! returned values are handed back to the running program. This is the
//! Rust equivalent of the paper's C++ front end that reroutes Sherpa's
//! random number draws (§4.1, §5.4).
//!
//! Because the program is native and draws through the shared
//! `distributions` samplers, the server always advertises
//! [`Capabilities::SEEDED_PRIOR`]: it answers `RunPrior { seed, observes }`
//! by running `Executor::execute_seeded(program, &mut PriorProposer,
//! &observes, seed)` with no I/O, recorded straight into its `PriorTrace`
//! payload ([`PriorTraceWriter`]; no trace is built), and ships it back in
//! one frame. A prior trace is then one round trip, bit-equal to a local
//! run under the same seed because it *is* that run. `RunPrior`s are
//! answered in the order they arrive; a controller may send several
//! before the first answer. A foreign front end that cannot reproduce the
//! samplers bit for bit advertises nothing and keeps the per-statement
//! exchange.
//!
//! [`serve_listener`] extends this to many controllers on one listener:
//! every accepted client gets its own thread that owns the socket and does
//! blocking request–reply over a [`TcpTransport`], the shape of the paper's
//! one Sherpa process per core. Program execution is native,
//! inverted-control code that needs a stack anyway, and a blocked read
//! costs nothing: the kernel wakes the thread when the controller's reply
//! arrives, with no relay or poll loop in between. A half-open client
//! stalls only its own thread.

use crate::message::{Capabilities, Message};
use crate::transport::{TcpTransport, Transport};
use crate::wire::PriorTraceWriter;
use etalumis_core::{AddressBuilder, BoxedProgram, Executor, PriorProposer, ProbProgram, SimCtx};
use etalumis_distributions::{Distribution, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;

/// Serves a wrapped probabilistic program over a transport.
pub struct SimulatorServer<P: ProbProgram> {
    program: P,
    system_name: String,
}

/// Simulator-side context that forwards every statement over the transport.
///
/// If the controller dies mid-execution the context does **not** panic the
/// program thread (a controller crash must never take the simulator fleet
/// down with it): it records the failure, feeds the still-running program
/// locally drawn prior values until the program returns on its own, and
/// lets [`SimulatorServer::serve`] surface the transport error afterwards.
/// The poisoned execution's result is discarded — nothing is sent to the
/// (dead) controller.
struct ForwardingCtx<'a> {
    transport: &'a mut dyn Transport,
    builder: AddressBuilder,
    /// First transport/protocol failure; once set, no further I/O happens.
    failed: Option<std::io::Error>,
    /// Fallback RNG for draining a poisoned execution with in-support
    /// values.
    fallback_rng: StdRng,
}

impl ForwardingCtx<'_> {
    fn new(transport: &mut dyn Transport) -> ForwardingCtx<'_> {
        ForwardingCtx {
            transport,
            builder: AddressBuilder::new(),
            failed: None,
            fallback_rng: StdRng::seed_from_u64(0),
        }
    }

    fn exchange(&mut self, msg: Message) -> Option<Message> {
        if self.failed.is_some() {
            return None;
        }
        match self.transport.send(&msg).and_then(|()| self.transport.recv()) {
            Ok(reply) => Some(reply),
            Err(e) => {
                self.failed = Some(e);
                None
            }
        }
    }

    /// Note a protocol violation (wrong reply kind) without panicking.
    fn violation(&mut self, expected: &'static str, got: &'static str) {
        if self.failed.is_none() {
            self.failed = Some(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected {expected}, got {got}"),
            ));
        }
    }
}

impl SimCtx for ForwardingCtx<'_> {
    fn sample_ext(
        &mut self,
        dist: &Distribution,
        name: &str,
        control: bool,
        replace: bool,
    ) -> Value {
        // The simulator sends the *base* address (its stack-frame identity);
        // the controller performs instance counting, exactly like pyprob
        // does for the C++ front end.
        let scope = self.builder.scope_path();
        let base = if scope.is_empty() {
            format!("{name}[{}]", dist.kind())
        } else {
            format!("{scope}/{name}[{}]", dist.kind())
        };
        let reply = self.exchange(Message::Sample {
            address: base,
            name: name.to_string(),
            distribution: dist.clone(),
            control,
            replace,
        });
        match reply {
            Some(Message::SampleResult { value }) => value,
            Some(other) => {
                self.violation("SampleResult", other.name());
                dist.sample(&mut self.fallback_rng)
            }
            None => dist.sample(&mut self.fallback_rng),
        }
    }

    fn observe(&mut self, dist: &Distribution, name: &str) -> Value {
        let scope = self.builder.scope_path();
        let base = if scope.is_empty() {
            format!("{name}[{}]", dist.kind())
        } else {
            format!("{scope}/{name}[{}]", dist.kind())
        };
        let reply = self.exchange(Message::Observe {
            address: base,
            name: name.to_string(),
            distribution: dist.clone(),
        });
        match reply {
            Some(Message::ObserveResult { value }) => value,
            Some(other) => {
                self.violation("ObserveResult", other.name());
                dist.sample(&mut self.fallback_rng)
            }
            None => dist.sample(&mut self.fallback_rng),
        }
    }

    fn tag(&mut self, name: &str, value: Value) {
        match self.exchange(Message::Tag { name: name.to_string(), value }) {
            Some(Message::TagResult) | None => {}
            Some(other) => self.violation("TagResult", other.name()),
        }
    }

    fn push_scope(&mut self, scope: &str) {
        self.builder.push_scope(scope);
    }

    fn pop_scope(&mut self) {
        self.builder.pop_scope();
    }

    fn sample_with_address(
        &mut self,
        address_base: &str,
        dist: &Distribution,
        name: &str,
        control: bool,
        replace: bool,
    ) -> Value {
        let reply = self.exchange(Message::Sample {
            address: address_base.to_string(),
            name: name.to_string(),
            distribution: dist.clone(),
            control,
            replace,
        });
        match reply {
            Some(Message::SampleResult { value }) => value,
            Some(other) => {
                self.violation("SampleResult", other.name());
                dist.sample(&mut self.fallback_rng)
            }
            None => dist.sample(&mut self.fallback_rng),
        }
    }

    fn observe_with_address(
        &mut self,
        address_base: &str,
        dist: &Distribution,
        name: &str,
    ) -> Value {
        let reply = self.exchange(Message::Observe {
            address: address_base.to_string(),
            name: name.to_string(),
            distribution: dist.clone(),
        });
        match reply {
            Some(Message::ObserveResult { value }) => value,
            Some(other) => {
                self.violation("ObserveResult", other.name());
                dist.sample(&mut self.fallback_rng)
            }
            None => dist.sample(&mut self.fallback_rng),
        }
    }
}

impl<P: ProbProgram> SimulatorServer<P> {
    /// Wrap a program under the given front-end system name.
    pub fn new(system_name: impl Into<String>, program: P) -> Self {
        Self { program, system_name: system_name.into() }
    }

    /// Serve requests until the controller disconnects.
    ///
    /// Handles `Handshake` and any number of `Run` and `RunPrior` requests;
    /// returns `Ok(())` on orderly disconnect.
    pub fn serve(&mut self, transport: &mut dyn Transport) -> std::io::Result<()> {
        loop {
            let msg = match transport.recv() {
                Ok(m) => m,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(()),
                Err(e)
                    if e.kind() == std::io::ErrorKind::UnexpectedEof
                        || e.kind() == std::io::ErrorKind::ConnectionReset =>
                {
                    return Ok(())
                }
                Err(e) => return Err(e),
            };
            match msg {
                Message::Handshake { .. } => {
                    transport.send(&Message::HandshakeResult {
                        system_name: self.system_name.clone(),
                        model_name: self.program.name().to_string(),
                        capabilities: Capabilities::SEEDED_PRIOR,
                    })?;
                }
                Message::RunPrior { seed, observes } => {
                    let payload = Executor::try_record_seeded(
                        &mut self.program,
                        &mut PriorProposer,
                        &observes,
                        seed,
                        PriorTraceWriter::new(),
                    )
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                    transport.send_encoded(payload)?;
                }
                Message::Run { observation: _ } => {
                    let mut ctx = ForwardingCtx::new(transport);
                    let result = self.program.run(&mut ctx);
                    match ctx.failed.take() {
                        // Controller vanished mid-execution: the run was
                        // drained with fallback draws and its result is
                        // discarded. An orderly class of disconnect ends
                        // serving cleanly; anything else propagates.
                        Some(e) => {
                            return match e.kind() {
                                std::io::ErrorKind::BrokenPipe
                                | std::io::ErrorKind::UnexpectedEof
                                | std::io::ErrorKind::ConnectionReset => Ok(()),
                                _ => Err(e),
                            };
                        }
                        None => transport.send(&Message::RunResult { result })?,
                    }
                }
                Message::Reset => { /* abandon any state; next Run starts fresh */ }
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unexpected message {} in server", other.name()),
                    ));
                }
            }
        }
    }
}

/// Serve `max_clients` controller connections over one listener.
///
/// The calling thread accepts connections (blocking, whatever mode the
/// caller left the listener in); each accepted client gets a thread that
/// owns its socket and runs the ordinary blocking [`SimulatorServer::serve`]
/// loop over a [`TcpTransport`]. `factory(i)` builds the program instance
/// for the `i`-th accepted client. A silent or dead client stalls only its
/// own thread. Returns once `max_clients` clients have connected and
/// disconnected.
pub fn serve_listener<F>(
    listener: TcpListener,
    system_name: &str,
    mut factory: F,
    max_clients: usize,
) -> std::io::Result<()>
where
    F: FnMut(usize) -> BoxedProgram,
{
    listener.set_nonblocking(false)?;
    std::thread::scope(|scope| {
        for i in 0..max_clients {
            let (stream, _peer) = listener.accept()?;
            // On BSD/macOS an accepted socket inherits the listener's
            // O_NONBLOCK; the program thread's reads must block.
            stream.set_nonblocking(false)?;
            let mut transport = TcpTransport::new(stream)?;
            let mut server = SimulatorServer::new(system_name, factory(i));
            scope.spawn(move || {
                // Clean disconnects surface as Ok; anything else already
                // poisoned the controller side.
                let _ = server.serve(&mut transport);
            });
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RemoteModel;
    use crate::transport::InProcTransport;
    use etalumis_core::{FnProgram, SimCtxExt};

    fn listener_model() -> BoxedProgram {
        Box::new(FnProgram::new("multi", |ctx: &mut dyn SimCtx| {
            let x = ctx.sample_f64(&Distribution::Uniform { low: 0.0, high: 1.0 }, "x");
            Value::Real(x)
        }))
    }

    #[test]
    fn controller_death_mid_run_does_not_panic_the_server() {
        use crate::wire;
        // Drive the server by hand: handshake, start a run, then vanish
        // after the first Sample request — mid-execution.
        let (controller_side, sim_side) = InProcTransport::pair();
        let handle = std::thread::spawn(move || {
            let program = FnProgram::new("drain", |ctx: &mut dyn SimCtx| {
                let a = ctx.sample_f64(&Distribution::Uniform { low: 0.0, high: 1.0 }, "a");
                let b = ctx.sample_f64(&Distribution::Normal { mean: a, std: 1.0 }, "b");
                Value::Real(a + b)
            });
            let mut server = SimulatorServer::new("sim", program);
            let mut t = sim_side;
            // Must return (Ok for a disconnect), never panic the thread.
            server.serve(&mut t)
        });
        let mut t = controller_side;
        t.send(&Message::Handshake { system_name: "x".into() }).unwrap();
        let _ = t.recv().unwrap();
        t.send(&Message::Run { observation: Value::Unit }).unwrap();
        let first = t.recv().unwrap();
        assert_eq!(first.name(), "Sample");
        let _ = wire::frame(&first); // touch the codec, then vanish
        drop(t);
        let served = handle.join().expect("server thread must not panic");
        assert!(served.is_ok(), "disconnect must end serving cleanly: {served:?}");
    }

    #[test]
    fn a_seeded_prior_run_is_the_local_run() {
        let (mut t, sim_side) = InProcTransport::pair();
        let handle = std::thread::spawn(move || {
            let mut t = sim_side;
            SimulatorServer::new("sim", listener_model()).serve(&mut t)
        });
        t.send(&Message::Handshake { system_name: "x".into() }).unwrap();
        let Message::HandshakeResult { capabilities, .. } = t.recv().unwrap() else {
            panic!("expected the handshake reply");
        };
        assert!(capabilities.contains(Capabilities::SEEDED_PRIOR));
        let mut observes = etalumis_core::ObserveMap::new();
        observes.insert("unused".to_string(), Value::Real(1.0));
        let observes = std::sync::Arc::new(observes);
        for seed in [3u64, 4] {
            t.send(&Message::RunPrior { seed, observes: observes.clone() }).unwrap();
            let Message::PriorTrace { trace } = t.recv().unwrap() else {
                panic!("expected the trace");
            };
            let local = Executor::execute_seeded(
                &mut listener_model(),
                &mut PriorProposer,
                &observes,
                seed,
            );
            assert_eq!(trace, local, "seed {seed}");
        }
        drop(t);
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn one_listener_serves_many_concurrent_clients() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let n_clients = 4;
        let server = std::thread::spawn(move || {
            serve_listener(listener, "multi-sim", |_| listener_model(), n_clients).unwrap();
        });
        // All clients connect before any disconnects: genuinely concurrent.
        let mut models: Vec<_> = (0..n_clients)
            .map(|_| {
                let t = TcpTransport::connect(&addr.to_string()).unwrap();
                RemoteModel::connect(t, "etalumis-rs").unwrap()
            })
            .collect();
        for (i, m) in models.iter_mut().enumerate() {
            assert_eq!(m.name(), "multi");
            let trace = Executor::sample_prior(m, 40 + i as u64);
            assert_eq!(trace.num_controlled(), 1);
            // Same seed ⇒ same draw as a local run of the same model.
            let mut local = listener_model();
            let reference = Executor::sample_prior(&mut local, 40 + i as u64);
            assert_eq!(trace.result, reference.result);
        }
        drop(models);
        server.join().unwrap();
    }
}
