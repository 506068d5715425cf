//! The controller-side PPX binding: a remote simulator as a [`ProbProgram`].
//!
//! [`RemoteModel`] makes a simulator living behind a transport look exactly
//! like a local model to every inference engine: calling `run` issues a PPX
//! `Run` and then services the simulator's `Sample`/`Observe`/`Tag` requests
//! by delegating to the local [`SimCtx`] (i.e. the engine's executor). This
//! is the key property of PPX — engines are fully agnostic to where and in
//! which language the simulator runs.

use crate::error::PpxError;
use crate::message::Message;
use crate::session::{Serviced, Session, SessionAction};
use crate::transport::Transport;
use etalumis_core::{ProbProgram, RunError, SimCtx};
use etalumis_distributions::Value;

/// A probabilistic program whose body executes on the other side of a
/// transport.
///
/// The protocol logic lives in the [`Session`] state machine (shared with
/// the non-blocking [`crate::mux::Mux`] reactor); this type is the thin
/// blocking adapter that marries one session to one [`Transport`].
pub struct RemoteModel<T: Transport> {
    transport: T,
    session: Session,
    model_name: String,
    /// Observation payload forwarded with each `Run` (defaults to `Unit`).
    pub run_observation: Value,
}

impl<T: Transport> RemoteModel<T> {
    /// Perform the PPX handshake and return the connected model.
    pub fn connect(mut transport: T, system_name: &str) -> std::io::Result<Self> {
        let (mut session, handshake) = Session::connect(system_name);
        transport.send(&handshake)?;
        let reply = transport.recv()?;
        let action = session.on_message(reply).map_err(std::io::Error::from)?;
        let model_name = match action {
            SessionAction::Connected { model_name } => model_name,
            // In `Handshaking` the machine accepts nothing else.
            _ => unreachable!("session yielded a non-Connected action during handshake"), // etalumis: allow(panic-freedom, reason = "session state machine admits no other action while handshaking")
        };
        Ok(Self { transport, session, model_name, run_observation: Value::Unit })
    }

    /// Run the remote program once, surfacing transport and protocol
    /// failures instead of panicking. After an error the session is poisoned
    /// and every subsequent call fails fast.
    pub fn try_run_remote(&mut self, ctx: &mut dyn SimCtx) -> Result<Value, PpxError> {
        let run = self.session.start_run(self.run_observation.clone())?;
        self.send(&run)?;
        loop {
            let msg = match self.transport.recv() {
                Ok(m) => m,
                Err(e) => {
                    self.session.fail();
                    return Err(e.into());
                }
            };
            let action = self.session.on_message(msg)?;
            match self.session.service(action, ctx)? {
                Serviced::Reply(reply) => self.send(&reply)?,
                Serviced::Finished(result) => return Ok(result),
                // This adapter never starts a seeded run, and the session
                // rejects a `PriorTrace` during a per-statement one.
                Serviced::FinishedTrace(_) => {
                    self.session.fail();
                    return Err(PpxError::Protocol { expected: "RunResult", got: "PriorTrace" });
                }
                Serviced::Connected(_) => unreachable!("handshake completed at connect"), // etalumis: allow(panic-freedom, reason = "session state machine admits no Connected after handshake")
            }
        }
    }

    fn send(&mut self, msg: &Message) -> Result<(), PpxError> {
        match self.transport.send(msg) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.session.fail();
                Err(e.into())
            }
        }
    }
}

impl<T: Transport> ProbProgram for RemoteModel<T> {
    fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
        self.try_run_remote(ctx)
            // etalumis: allow(panic-freedom, reason = "documented infallible wrapper; try_run is the fallible API")
            .unwrap_or_else(|e| panic!("{e} (use try_run for fallible remote execution)"))
    }

    fn try_run(&mut self, ctx: &mut dyn SimCtx) -> Result<Value, RunError> {
        self.try_run_remote(ctx).map_err(RunError::from)
    }

    fn name(&self) -> &str {
        &self.model_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SimulatorServer;
    use crate::transport::InProcTransport;
    use etalumis_core::{Executor, FnProgram, ObserveMap, PriorProposer, SimCtxExt};
    use etalumis_distributions::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spawn_server() -> InProcTransport {
        let (controller_side, sim_side) = InProcTransport::pair();
        std::thread::spawn(move || {
            let program = FnProgram::new("remote_gauss", |ctx: &mut dyn SimCtx| {
                let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
                // two draws at the same call site → instance disambiguation
                let _n1 = ctx.sample_f64(&Distribution::Normal { mean: mu, std: 1.0 }, "noise");
                let _n2 = ctx.sample_f64(&Distribution::Normal { mean: mu, std: 1.0 }, "noise");
                ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
                ctx.tag("mu_tag", Value::Real(mu));
                Value::Real(mu)
            });
            let mut server = SimulatorServer::new("rust-sim", program);
            let mut t = sim_side;
            server.serve(&mut t).unwrap();
        });
        controller_side
    }

    #[test]
    fn remote_prior_execution_records_full_trace() {
        let t = spawn_server();
        let mut model = RemoteModel::connect(t, "etalumis-rs").unwrap();
        assert_eq!(model.name(), "remote_gauss");
        let mut rng = StdRng::seed_from_u64(1);
        let mut prior = PriorProposer;
        let observes = ObserveMap::new();
        let trace = Executor::execute(&mut model, &mut prior, &observes, &mut rng);
        assert_eq!(trace.num_controlled(), 3);
        assert_eq!(trace.entries.len(), 4);
        assert_eq!(trace.tags.len(), 1);
        // Instance counting happened controller-side.
        let noises: Vec<_> =
            trace.entries.iter().filter(|e| e.name == "noise").map(|e| &e.address).collect();
        assert_eq!(noises.len(), 2);
        assert_eq!(noises[0].base, noises[1].base);
        assert_ne!(noises[0].instance, noises[1].instance);
        // Result round-trips.
        let mu = trace.value_by_name("mu").unwrap().as_f64();
        assert_eq!(trace.result, Value::Real(mu));
    }

    #[test]
    fn remote_repeated_runs_reset_instances() {
        let t = spawn_server();
        let mut model = RemoteModel::connect(t, "etalumis-rs").unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let observes = ObserveMap::new();
        for _ in 0..3 {
            let mut prior = PriorProposer;
            let trace = Executor::execute(&mut model, &mut prior, &observes, &mut rng);
            // Fresh executor per run → instances restart at 0.
            let first_noise = trace.entries.iter().find(|e| e.name == "noise").unwrap();
            assert_eq!(first_noise.address.instance, 0);
        }
    }

    #[test]
    fn transport_death_surfaces_as_error_not_panic() {
        // A server that completes the handshake and then vanishes.
        let (controller_side, sim_side) = InProcTransport::pair();
        std::thread::spawn(move || {
            use crate::transport::Transport;
            let mut t = sim_side;
            let _hs = t.recv().unwrap();
            t.send(&Message::HandshakeResult {
                system_name: "sim".into(),
                model_name: "vanishing".into(),
                capabilities: crate::message::Capabilities::default(),
            })
            .unwrap();
            // Dropping t severs the channel mid-session.
        });
        let mut model = RemoteModel::connect(controller_side, "etalumis-rs").unwrap();
        let observes = ObserveMap::new();
        let err = Executor::try_execute_seeded(&mut model, &mut PriorProposer, &observes, 7)
            .expect_err("run against a dead transport must fail, not panic");
        assert!(err.message.contains("disconnected"), "unexpected error: {err}");
        // The session is poisoned: the next run fails fast with a protocol
        // error instead of touching the transport.
        let err2 =
            Executor::try_execute_seeded(&mut model, &mut PriorProposer, &observes, 8).unwrap_err();
        assert!(err2.message.contains("protocol violation"), "unexpected error: {err2}");
    }

    #[test]
    fn remote_conditioning_uses_registered_observation() {
        let t = spawn_server();
        let mut model = RemoteModel::connect(t, "etalumis-rs").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut observes = ObserveMap::new();
        observes.insert("y".to_string(), Value::Real(1.75));
        let mut prior = PriorProposer;
        let trace = Executor::execute(&mut model, &mut prior, &observes, &mut rng);
        let y = trace.entries.iter().find(|e| e.name == "y").unwrap();
        assert_eq!(y.value, Value::Real(1.75));
        assert!(trace.log_likelihood.is_finite());
    }
}
