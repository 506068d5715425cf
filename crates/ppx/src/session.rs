//! The controller-side session state machine.
//!
//! One [`Session`] tracks one controller↔simulator conversation as a pure
//! protocol core: it consumes decoded [`Message`]s, validates them against
//! the current state, and tells the driver what to do next — it never touches
//! a transport. That single property is what lets the same machine sit under
//! three very different drivers:
//!
//! * the blocking [`crate::RemoteModel`] (one thread, one connection),
//! * the [`crate::mux::Mux`] reactor (one thread, many connections),
//! * tests that feed hand-crafted message sequences.
//!
//! States:
//!
//! ```text
//! Handshaking ──HandshakeResult──▶ Idle ──start_run──▶ Running
//!    Running{awaiting: Simulator} ──Sample/Observe/Tag──▶
//!    Running{awaiting: Sample/Observe/Tag reply} ──reply_*──▶ back to awaiting Simulator
//!    Running ──RunResult──▶ Idle          close ──▶ Done
//! Idle ──start_prior_run──▶ Running{awaiting: Trace} ──last PriorTrace──▶ Idle
//!    Running{awaiting: Trace} ──start_prior_run / PriorTrace──▶ itself
//!    (any illegal message/call) ──▶ Failed
//! ```
//!
//! `start_prior_run` is legal only once the simulator advertised
//! [`Capabilities::SEEDED_PRIOR`]. Seeded runs pipeline: the session counts
//! its outstanding ones, accepts a further `start_prior_run` while fewer
//! than [`SEEDED_DEPTH`] are outstanding, takes their `PriorTrace`s in the
//! order it sent the `RunPrior`s (the simulator answers in order), and is
//! `Idle` again when none is left. While any is outstanding it accepts
//! nothing but a `PriorTrace`, and a per-statement run never accepts one.
//! The `PriorTrace` arrives as a frame payload ([`Session::on_payload`])
//! and leaves undecoded, as a [`SeededTrace`]: the driver decodes it into
//! what it records.

use crate::error::PpxError;
use crate::message::{Capabilities, Message};
use crate::wire::{decode, SeededTrace, PRIOR_TRACE};
use etalumis_core::{ObserveMap, SimCtx};
use etalumis_distributions::{Distribution, Value};
use std::sync::Arc;

/// How many seeded runs one session keeps outstanding at most.
///
/// Loopback TCP costs per write, not per byte, so a driver that sends a
/// session's new `RunPrior`s together, and a simulator that answers a
/// buffered batch of them together, pay one write per batch. Four measured
/// best on a 2-vCPU VM; eight added no throughput and more peak memory.
/// One is the unpipelined exchange.
pub const SEEDED_DEPTH: usize = 4;

/// Which side owes the next protocol step while a run is in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Awaiting {
    /// We are waiting for the simulator's next message.
    Simulator,
    /// The simulator awaits our `SampleResult`.
    SampleReply,
    /// The simulator awaits our `ObserveResult`.
    ObserveReply,
    /// The simulator awaits our `TagResult`.
    TagReply,
    /// Seeded prior runs: the simulator owes each one's whole
    /// `PriorTrace`.
    Trace,
}

/// Protocol state of one controller-side session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// `Handshake` sent, waiting for `HandshakeResult`.
    Handshaking,
    /// Connected; no run in flight.
    Idle,
    /// A `Run` is executing on the simulator.
    Running(Awaiting),
    /// Session closed deliberately; no further traffic is legal.
    Done,
    /// A protocol violation or transport failure poisoned the session.
    Failed,
}

/// What the driver must do after feeding a message to the session.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionAction {
    /// Handshake finished; the session is now [`SessionState::Idle`].
    Connected {
        /// Model name announced by the simulator.
        model_name: String,
    },
    /// The simulator requests a sample value: service it (via a `SimCtx`)
    /// and send the message returned by [`Session::reply_sample`].
    NeedsSample {
        /// Fully qualified address base from the simulator side.
        address: String,
        /// Statement name.
        name: String,
        /// Prior distribution at the site.
        distribution: Distribution,
        /// Whether inference may control the draw.
        control: bool,
        /// Rejection-sampling re-draw.
        replace: bool,
    },
    /// The simulator requests an observation value.
    NeedsObserve {
        /// Fully qualified address base.
        address: String,
        /// Statement name.
        name: String,
        /// Likelihood distribution.
        distribution: Distribution,
    },
    /// The simulator records a tagged by-product.
    NeedsTag {
        /// Tag name.
        name: String,
        /// Tag value.
        value: Value,
    },
    /// The run completed; the session is [`SessionState::Idle`] again.
    Finished {
        /// The program's return value.
        result: Value,
    },
    /// The oldest outstanding seeded prior run completed with the trace the
    /// simulator recorded; the session is [`SessionState::Idle`] again once
    /// none is left. Nothing is owed to the simulator and no executor is
    /// involved: the driver decodes the trace into what it records.
    FinishedTrace {
        /// The `PriorTrace` payload, undecoded.
        trace: SeededTrace,
    },
}

/// Result of [`Session::service`].
#[derive(Debug, PartialEq)]
pub enum Serviced {
    /// Send this reply to the simulator; the run continues.
    Reply(Message),
    /// The handshake completed (no reply needed).
    Connected(String),
    /// The run completed with this result (no reply needed).
    Finished(Value),
    /// A seeded prior run completed with this trace (no reply needed).
    FinishedTrace(SeededTrace),
}

/// The controller-side state machine for one PPX connection.
#[derive(Debug)]
pub struct Session {
    state: SessionState,
    model_name: Option<String>,
    capabilities: Capabilities,
    /// Seeded runs started and not yet answered: nonzero in
    /// `Running(Awaiting::Trace)`, zero in `Idle`.
    seeded: usize,
}

impl Session {
    /// Begin a session: returns the machine (in `Handshaking`) and the
    /// `Handshake` message the driver must send.
    pub fn connect(system_name: &str) -> (Self, Message) {
        (
            Self {
                state: SessionState::Handshaking,
                model_name: None,
                capabilities: Capabilities::default(),
                seeded: 0,
            },
            Message::Handshake { system_name: system_name.to_string() },
        )
    }

    /// A session born dead ([`SessionState::Failed`]) — the tombstone a
    /// reactor leaves behind when it detaches a connection, and the
    /// placeholder a pool returns for a slot whose respawn budget ran out.
    pub fn poisoned() -> Self {
        Self {
            state: SessionState::Failed,
            model_name: None,
            capabilities: Capabilities::default(),
            seeded: 0,
        }
    }

    /// Current protocol state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Model name learned from the handshake (None before `Connected`).
    pub fn model_name(&self) -> Option<&str> {
        self.model_name.as_deref()
    }

    /// Capabilities the simulator advertised (empty before `Connected`).
    pub fn capabilities(&self) -> Capabilities {
        self.capabilities
    }

    /// True when a `Run` can be started.
    pub fn is_idle(&self) -> bool {
        self.state == SessionState::Idle
    }

    /// How many more seeded runs [`Session::start_prior_run`] accepts now:
    /// up to [`SEEDED_DEPTH`] outstanding on an idle or seeded session whose
    /// simulator advertised [`Capabilities::SEEDED_PRIOR`], none otherwise.
    pub fn prior_run_room(&self) -> usize {
        if !self.capabilities.contains(Capabilities::SEEDED_PRIOR) {
            return 0;
        }
        match self.state {
            SessionState::Idle | SessionState::Running(Awaiting::Trace) => {
                SEEDED_DEPTH - self.seeded
            }
            _ => 0,
        }
    }

    /// True when the session can carry no further traffic.
    pub fn is_dead(&self) -> bool {
        matches!(self.state, SessionState::Done | SessionState::Failed)
    }

    /// Record an external (transport) failure, poisoning the session.
    pub fn fail(&mut self) {
        self.state = SessionState::Failed;
    }

    /// Close an idle session deliberately.
    pub fn close(&mut self) {
        self.state = SessionState::Done;
    }

    fn violation(&mut self, expected: &'static str, got: &'static str) -> PpxError {
        self.state = SessionState::Failed;
        PpxError::Protocol { expected, got }
    }

    /// Start one remote execution: returns the `Run` message to send.
    /// Legal only in `Idle`.
    pub fn start_run(&mut self, observation: Value) -> Result<Message, PpxError> {
        match self.state {
            SessionState::Idle => {
                self.state = SessionState::Running(Awaiting::Simulator);
                Ok(Message::Run { observation })
            }
            SessionState::Handshaking => Err(self.violation("HandshakeResult first", "start_run")),
            _ => Err(self.violation("Idle session", "start_run")),
        }
    }

    /// Start one seeded prior run: returns the `RunPrior` message to send.
    /// Legal in `Idle`, and with seeded runs outstanding while fewer than
    /// [`SEEDED_DEPTH`] are ([`Session::prior_run_room`]), on a session whose
    /// simulator advertised [`Capabilities::SEEDED_PRIOR`].
    pub fn start_prior_run(
        &mut self,
        seed: u64,
        observes: Arc<ObserveMap>,
    ) -> Result<Message, PpxError> {
        if self.prior_run_room() > 0 {
            self.seeded += 1;
            self.state = SessionState::Running(Awaiting::Trace);
            return Ok(Message::RunPrior { seed, observes });
        }
        match self.state {
            SessionState::Idle => {
                Err(self.violation("a simulator advertising seeded prior runs", "start_prior_run"))
            }
            SessionState::Running(Awaiting::Trace) => {
                Err(self.violation("fewer seeded runs outstanding", "start_prior_run"))
            }
            _ => Err(self.violation("Idle session", "start_prior_run")),
        }
    }

    /// Feed one frame payload from the simulator; returns the action the
    /// driver must take. A seeded run's `PriorTrace` is handed on undecoded
    /// (see [`SessionAction::FinishedTrace`]); every other payload is
    /// decoded and goes through [`Session::on_message`].
    pub fn on_payload(&mut self, payload: Vec<u8>) -> Result<SessionAction, PpxError> {
        if self.state == SessionState::Running(Awaiting::Trace)
            && payload.first() == Some(&PRIOR_TRACE)
        {
            self.seeded -= 1;
            if self.seeded == 0 {
                self.state = SessionState::Idle;
            }
            return Ok(SessionAction::FinishedTrace { trace: SeededTrace(payload) });
        }
        match decode(&payload) {
            Ok(msg) => self.on_message(msg),
            Err(e) => {
                self.state = SessionState::Failed;
                Err(e.into())
            }
        }
    }

    /// Feed one decoded message from the simulator; returns the action the
    /// driver must take. Any message that is illegal in the current state
    /// poisons the session and errors. A decoded `PriorTrace` is one of
    /// them: it is legal only as the payload of a seeded run
    /// ([`Session::on_payload`]).
    pub fn on_message(&mut self, msg: Message) -> Result<SessionAction, PpxError> {
        match (self.state, msg) {
            (
                SessionState::Handshaking,
                Message::HandshakeResult { model_name, capabilities, .. },
            ) => {
                self.state = SessionState::Idle;
                self.model_name = Some(model_name.clone());
                self.capabilities = capabilities;
                Ok(SessionAction::Connected { model_name })
            }
            (
                SessionState::Running(Awaiting::Simulator),
                Message::Sample { address, name, distribution, control, replace },
            ) => {
                self.state = SessionState::Running(Awaiting::SampleReply);
                Ok(SessionAction::NeedsSample { address, name, distribution, control, replace })
            }
            (
                SessionState::Running(Awaiting::Simulator),
                Message::Observe { address, name, distribution },
            ) => {
                self.state = SessionState::Running(Awaiting::ObserveReply);
                Ok(SessionAction::NeedsObserve { address, name, distribution })
            }
            (SessionState::Running(Awaiting::Simulator), Message::Tag { name, value }) => {
                self.state = SessionState::Running(Awaiting::TagReply);
                Ok(SessionAction::NeedsTag { name, value })
            }
            (SessionState::Running(Awaiting::Simulator), Message::RunResult { result }) => {
                self.state = SessionState::Idle;
                Ok(SessionAction::Finished { result })
            }
            (state, msg) => {
                let expected = match state {
                    SessionState::Handshaking => "HandshakeResult",
                    SessionState::Idle => "no message while idle",
                    SessionState::Running(Awaiting::Simulator) => {
                        "Sample/Observe/Tag/RunResult during run"
                    }
                    SessionState::Running(Awaiting::Trace) => "a PriorTrace payload",
                    SessionState::Running(_) => "no message while a reply is pending",
                    SessionState::Done => "no message after close",
                    SessionState::Failed => "nothing (session failed)",
                };
                Err(self.violation(expected, msg.name()))
            }
        }
    }

    /// Answer a pending `Sample` request with the realized value.
    pub fn reply_sample(&mut self, value: Value) -> Result<Message, PpxError> {
        match self.state {
            SessionState::Running(Awaiting::SampleReply) => {
                self.state = SessionState::Running(Awaiting::Simulator);
                Ok(Message::SampleResult { value })
            }
            _ => Err(self.violation("pending Sample", "reply_sample")),
        }
    }

    /// Answer a pending `Observe` request with the value that was scored.
    pub fn reply_observe(&mut self, value: Value) -> Result<Message, PpxError> {
        match self.state {
            SessionState::Running(Awaiting::ObserveReply) => {
                self.state = SessionState::Running(Awaiting::Simulator);
                Ok(Message::ObserveResult { value })
            }
            _ => Err(self.violation("pending Observe", "reply_observe")),
        }
    }

    /// Acknowledge a pending `Tag`.
    pub fn reply_tag(&mut self) -> Result<Message, PpxError> {
        match self.state {
            SessionState::Running(Awaiting::TagReply) => {
                self.state = SessionState::Running(Awaiting::Simulator);
                Ok(Message::TagResult)
            }
            _ => Err(self.violation("pending Tag", "reply_tag")),
        }
    }

    /// Service an action against an executor context: delegates the request
    /// to `ctx` (exactly as the blocking loop did) and produces the reply to
    /// send, if one is owed. Shared by the blocking `RemoteModel` adapter and
    /// the mux drivers, so both answer requests with identical executor
    /// calls. A seeded run's [`SessionAction::FinishedTrace`] needs no
    /// context: a driver with no executor for the run takes its trace
    /// directly.
    pub fn service(
        &mut self,
        action: SessionAction,
        ctx: &mut dyn SimCtx,
    ) -> Result<Serviced, PpxError> {
        match action {
            SessionAction::NeedsSample { address, name, distribution, control, replace } => {
                let value =
                    ctx.sample_with_address(&address, &distribution, &name, control, replace);
                Ok(Serviced::Reply(self.reply_sample(value)?))
            }
            SessionAction::NeedsObserve { address, name, distribution } => {
                let value = ctx.observe_with_address(&address, &distribution, &name);
                Ok(Serviced::Reply(self.reply_observe(value)?))
            }
            SessionAction::NeedsTag { name, value } => {
                ctx.tag(&name, value);
                Ok(Serviced::Reply(self.reply_tag()?))
            }
            SessionAction::Connected { model_name } => Ok(Serviced::Connected(model_name)),
            SessionAction::Finished { result } => Ok(Serviced::Finished(result)),
            SessionAction::FinishedTrace { trace } => Ok(Serviced::FinishedTrace(trace)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::Trace;

    fn connected_with(capabilities: Capabilities) -> Session {
        let (mut s, hs) = Session::connect("etalumis-rs");
        assert_eq!(hs, Message::Handshake { system_name: "etalumis-rs".into() });
        assert_eq!(s.state(), SessionState::Handshaking);
        let action = s
            .on_message(Message::HandshakeResult {
                system_name: "sim".into(),
                model_name: "m".into(),
                capabilities,
            })
            .unwrap();
        assert_eq!(action, SessionAction::Connected { model_name: "m".into() });
        assert!(s.is_idle());
        assert_eq!(s.capabilities(), capabilities);
        s
    }

    fn connected_session() -> Session {
        connected_with(Capabilities::SEEDED_PRIOR)
    }

    fn sample() -> Message {
        Message::Sample {
            address: "a[Normal]".into(),
            name: "a".into(),
            distribution: Distribution::Normal { mean: 0.0, std: 1.0 },
            control: true,
            replace: false,
        }
    }

    fn prior_trace() -> Message {
        Message::PriorTrace { trace: Trace { result: Value::Real(0.5), ..Trace::default() } }
    }

    fn payload(msg: &Message) -> Vec<u8> {
        crate::wire::encode(msg).to_vec()
    }

    #[test]
    fn a_seeded_run_then_a_per_statement_run_on_one_session() {
        let mut s = connected_session();
        let observes = Arc::new(ObserveMap::new());
        let run = s.start_prior_run(7, observes.clone()).unwrap();
        assert_eq!(run, Message::RunPrior { seed: 7, observes });
        assert_eq!(s.state(), SessionState::Running(Awaiting::Trace));
        let action = s.on_payload(payload(&prior_trace())).unwrap();
        let SessionAction::FinishedTrace { trace } = action else {
            panic!("expected the trace, got {action:?}");
        };
        assert_eq!(trace.decode_into(Trace::default()).unwrap().result, Value::Real(0.5));
        assert!(s.is_idle());

        s.start_run(Value::Unit).unwrap();
        assert!(matches!(s.on_message(sample()).unwrap(), SessionAction::NeedsSample { .. }));
        s.reply_sample(Value::Real(0.5)).unwrap();
        let action = s.on_message(Message::RunResult { result: Value::Unit }).unwrap();
        assert_eq!(action, SessionAction::Finished { result: Value::Unit });
        // And seeded again after the per-statement run.
        s.start_prior_run(8, Arc::new(ObserveMap::new())).unwrap();
        s.on_payload(payload(&prior_trace())).unwrap();
        assert!(s.is_idle());
    }

    #[test]
    fn a_prior_trace_during_a_per_statement_run_poisons() {
        let mut s = connected_session();
        s.start_run(Value::Unit).unwrap();
        assert!(matches!(s.on_payload(payload(&prior_trace())), Err(PpxError::Protocol { .. })));
        assert_eq!(s.state(), SessionState::Failed);
        // Decoded, it is refused even during the seeded run it belongs to.
        let mut s = connected_session();
        s.start_prior_run(1, Arc::new(ObserveMap::new())).unwrap();
        assert!(matches!(s.on_message(prior_trace()), Err(PpxError::Protocol { .. })));
        assert_eq!(s.state(), SessionState::Failed);
    }

    #[test]
    fn statement_requests_during_a_seeded_run_poison() {
        let requests = [
            sample(),
            Message::Observe {
                address: "y[Normal]".into(),
                name: "y".into(),
                distribution: Distribution::Normal { mean: 0.0, std: 1.0 },
            },
            Message::Tag { name: "t".into(), value: Value::Unit },
            Message::RunResult { result: Value::Unit },
        ];
        for msg in requests {
            let name = msg.name();
            let mut s = connected_session();
            s.start_prior_run(1, Arc::new(ObserveMap::new())).unwrap();
            assert!(s.on_payload(payload(&msg)).is_err(), "{name} during a seeded run");
            assert_eq!(s.state(), SessionState::Failed, "{name} during a seeded run");
        }
    }

    #[test]
    fn run_prior_outside_idle_poisons() {
        let observes = Arc::new(ObserveMap::new());
        let mut pending = connected_session();
        pending.start_run(Value::Unit).unwrap();
        let mut seeded = connected_session();
        for seed in 0..SEEDED_DEPTH as u64 {
            seeded.start_prior_run(seed, observes.clone()).unwrap();
        }
        let mut closed = connected_session();
        closed.close();
        let handshaking = Session::connect("x").0;
        // An idle session whose simulator did not advertise the capability
        // must keep the per-statement exchange.
        let incapable = connected_with(Capabilities::default());
        for (label, mut s) in [
            ("running", pending),
            ("seeded at the depth", seeded),
            ("closed", closed),
            ("handshaking", handshaking),
            ("incapable", incapable),
        ] {
            assert!(s.start_prior_run(2, observes.clone()).is_err(), "{label}");
            assert_eq!(s.state(), SessionState::Failed, "{label}");
        }
    }

    #[test]
    fn seeded_runs_pipeline_up_to_the_depth_and_end_idle() {
        let mut s = connected_session();
        let observes = Arc::new(ObserveMap::new());
        assert_eq!(s.prior_run_room(), SEEDED_DEPTH);
        for k in 0..SEEDED_DEPTH {
            s.start_prior_run(k as u64, observes.clone()).unwrap();
            assert_eq!(s.state(), SessionState::Running(Awaiting::Trace));
            assert_eq!(s.prior_run_room(), SEEDED_DEPTH - k - 1);
        }
        // Each answer frees one place; the session stays seeded until the
        // last outstanding run is answered.
        for left in (0..SEEDED_DEPTH).rev() {
            let action = s.on_payload(payload(&prior_trace())).unwrap();
            assert!(matches!(action, SessionAction::FinishedTrace { .. }));
            assert_eq!(s.prior_run_room(), SEEDED_DEPTH - left);
            if left > 0 {
                assert_eq!(s.state(), SessionState::Running(Awaiting::Trace), "{left} left");
            }
        }
        assert!(s.is_idle());
        // Refilled after a partial drain, and drained again.
        s.start_prior_run(10, observes.clone()).unwrap();
        s.start_prior_run(11, observes.clone()).unwrap();
        s.on_payload(payload(&prior_trace())).unwrap();
        s.start_prior_run(12, observes).unwrap();
        s.on_payload(payload(&prior_trace())).unwrap();
        s.on_payload(payload(&prior_trace())).unwrap();
        assert!(s.is_idle());
        s.start_run(Value::Unit).unwrap();
    }

    #[test]
    fn a_prior_trace_with_none_outstanding_poisons() {
        let mut s = connected_session();
        assert!(matches!(s.on_payload(payload(&prior_trace())), Err(PpxError::Protocol { .. })));
        assert_eq!(s.state(), SessionState::Failed);
        // One more answer than runs started.
        let mut s = connected_session();
        s.start_prior_run(1, Arc::new(ObserveMap::new())).unwrap();
        s.on_payload(payload(&prior_trace())).unwrap();
        assert!(s.on_payload(payload(&prior_trace())).is_err());
        assert_eq!(s.state(), SessionState::Failed);
    }

    #[test]
    fn start_run_with_seeded_runs_outstanding_poisons() {
        for outstanding in 1..=SEEDED_DEPTH {
            let mut s = connected_session();
            for seed in 0..outstanding as u64 {
                s.start_prior_run(seed, Arc::new(ObserveMap::new())).unwrap();
            }
            assert!(s.start_run(Value::Unit).is_err(), "{outstanding} outstanding");
            assert_eq!(s.state(), SessionState::Failed, "{outstanding} outstanding");
            assert_eq!(s.prior_run_room(), 0);
        }
    }

    #[test]
    fn full_run_walks_the_states() {
        let mut s = connected_session();
        let run = s.start_run(Value::Unit).unwrap();
        assert_eq!(run, Message::Run { observation: Value::Unit });
        assert_eq!(s.state(), SessionState::Running(Awaiting::Simulator));

        let action = s
            .on_message(Message::Sample {
                address: "a[Normal]".into(),
                name: "a".into(),
                distribution: Distribution::Normal { mean: 0.0, std: 1.0 },
                control: true,
                replace: false,
            })
            .unwrap();
        assert!(matches!(action, SessionAction::NeedsSample { .. }));
        assert_eq!(s.state(), SessionState::Running(Awaiting::SampleReply));
        let reply = s.reply_sample(Value::Real(0.5)).unwrap();
        assert_eq!(reply, Message::SampleResult { value: Value::Real(0.5) });
        assert_eq!(s.state(), SessionState::Running(Awaiting::Simulator));

        let action = s.on_message(Message::RunResult { result: Value::Real(0.5) }).unwrap();
        assert_eq!(action, SessionAction::Finished { result: Value::Real(0.5) });
        assert!(s.is_idle());
        // Sessions are reusable across runs.
        s.start_run(Value::Unit).unwrap();
    }

    #[test]
    fn illegal_messages_poison_the_session() {
        let mut s = connected_session();
        s.start_run(Value::Unit).unwrap();
        // SampleResult is a controller→simulator message; receiving one is a
        // violation.
        let err = s.on_message(Message::SampleResult { value: Value::Unit }).unwrap_err();
        assert!(matches!(err, PpxError::Protocol { .. }));
        assert_eq!(s.state(), SessionState::Failed);
        assert!(s.is_dead());
        // Everything after the poison errors too.
        assert!(s.start_run(Value::Unit).is_err());
    }

    #[test]
    fn replies_require_a_pending_request() {
        let mut s = connected_session();
        s.start_run(Value::Unit).unwrap();
        assert!(s.reply_sample(Value::Unit).is_err());
        assert!(s.is_dead());
    }

    #[test]
    fn run_requires_idle() {
        let (mut s, _) = Session::connect("x");
        assert!(s.start_run(Value::Unit).is_err());
        assert_eq!(s.state(), SessionState::Failed);
    }

    #[test]
    fn mismatched_reply_kind_is_a_violation() {
        let mut s = connected_session();
        s.start_run(Value::Unit).unwrap();
        s.on_message(Message::Tag { name: "t".into(), value: Value::Unit }).unwrap();
        // A Tag is pending; answering with a sample reply is illegal.
        assert!(s.reply_sample(Value::Unit).is_err());
    }

    #[test]
    fn closed_sessions_accept_nothing() {
        let mut s = connected_session();
        s.close();
        assert_eq!(s.state(), SessionState::Done);
        assert!(s.on_message(Message::RunResult { result: Value::Unit }).is_err());
    }
}
