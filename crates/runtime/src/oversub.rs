//! Oversubscribed remote execution: K sessions on M ≤ K worker threads.
//!
//! The blocking [`crate::SimulatorPool`] pins one connection to one worker
//! thread, so a controller waiting on a slow simulator idles a whole core.
//! This module multiplexes instead: a [`MuxSimulatorPool`] holds K
//! handshaked PPX sessions, and a batch on [`crate::Backend::Mux`] drives
//! them from M worker threads, each running a poll reactor over its share
//! of the sessions. A worker services whichever of its sessions is *ready* —
//! while one simulator computes, the worker answers another's sample
//! requests — so one thread hides the latency of many remote simulators
//! (the paper's controller↔Sherpa fleet shape, §4.1).
//!
//! The oversubscription invariant: trace `i` runs on an
//! [`etalumis_core::StepExecutor`] seeded from `mix_seed(seed, i)` with a
//! fresh proposer trace, exactly like the blocking path — so batch content
//! is bit-identical for any worker count M, any session count K, and any
//! readiness interleaving. Only the wall-clock changes.
//!
//! Prior batches take one round trip per trace where they can: when the
//! batch's factory is [`crate::ProposerFactory::prior_only`] and the
//! session's simulator advertised `Capabilities::SEEDED_PRIOR`, the reactor
//! sends `RunPrior { seed: mix_seed(seed, i), observes }` and the simulator
//! returns the whole trace of `Executor::execute_seeded` under that seed —
//! the same trace, recorded on the other side. Every other batch (IC, any
//! proposer that is not the prior) and every other simulator keeps the
//! per-statement exchange.

use crate::batch::{mix_seed, spawn_workers, Shared, WorkerOutcome};
use etalumis_core::{ObserveMap, StepExecutor, Trace};
use etalumis_distributions::Value;
use etalumis_ppx::{
    Capabilities, Mux, MuxEndpoint, MuxEvent, PpxError, Serviced, Session, SessionAction,
    SessionState, TcpMuxEndpoint,
};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker sleeps when a poll sweep makes no progress.
const IDLE_BACKOFF: Duration = Duration::from_micros(20);

/// The factory a pool keeps so dead sessions can be re-established
/// mid-batch: `make_endpoint(slot)` produces a fresh transport to the
/// simulator fleet.
pub type EndpointFactory = dyn Fn(usize) -> io::Result<Box<dyn MuxEndpoint>> + Send + Sync;

/// How a [`MuxSimulatorPool`] reacts when a session dies mid-batch.
///
/// A dead session's in-flight trace index is requeued (per-trace seeding
/// makes the rerun bit-identical), and the session slot is re-established
/// through the pool's stored endpoint factory: fresh endpoint, fresh
/// handshake, capped retries with exponential backoff. Respawning is
/// non-blocking — a worker keeps servicing its healthy sessions while a
/// slot waits out its backoff.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Times one session slot may be respawned during a batch before it is
    /// retired for good.
    pub max_respawns: u32,
    /// Backoff before the first respawn attempt; doubles per consecutive
    /// failure of the same slot.
    pub backoff: Duration,
    /// How long a respawned session may sit in its handshake before the
    /// attempt is treated as a connection death (a peer that accepts the
    /// transport but never replies must not hang the batch).
    pub handshake_timeout: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            max_respawns: 3,
            backoff: Duration::from_millis(2),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// K connected, handshaked PPX simulator sessions awaiting multiplexed
/// execution.
///
/// Unlike [`crate::SimulatorPool`], the session count is independent of the
/// worker count: a batch on [`crate::Backend::Mux`] drives K sessions from
/// any M ≤ K threads. The pool remembers how its endpoints were made, so a
/// session that dies mid-batch is respawned in place (see
/// [`ReconnectPolicy`]) instead of permanently failing its share of the
/// work.
pub struct MuxSimulatorPool {
    sessions: Vec<(Box<dyn MuxEndpoint>, Session)>,
    model_name: String,
    make_endpoint: Arc<EndpointFactory>,
    system_name: String,
    policy: ReconnectPolicy,
}

impl MuxSimulatorPool {
    /// Connect `k` sessions over endpoints from `make_endpoint(i)` and
    /// drive every handshake to completion on the calling thread. The
    /// factory is retained for mid-batch session respawn.
    pub fn connect<F>(k: usize, system_name: &str, make_endpoint: F) -> Result<Self, PpxError>
    where
        F: Fn(usize) -> io::Result<Box<dyn MuxEndpoint>> + Send + Sync + 'static,
    {
        let k = k.max(1);
        let mut mux = Mux::new();
        for i in 0..k {
            let ep = make_endpoint(i).map_err(PpxError::from)?;
            mux.add_connect(ep, system_name)?;
        }
        let mut model_name = String::new();
        let mut events = Vec::new();
        let mut connected = 0;
        while connected < k {
            events.clear();
            let progress = mux.poll(&mut events);
            for ev in events.drain(..) {
                match ev {
                    MuxEvent::Action {
                        action: SessionAction::Connected { model_name: name },
                        ..
                    } => {
                        model_name = name;
                        connected += 1;
                    }
                    // `Handshaking` sessions can only yield `Connected`.
                    MuxEvent::Action { .. } => {
                        unreachable!("non-handshake action while connecting") // etalumis: allow(panic-freedom, reason = "mux state machine admits no other event while connecting")
                    }
                    MuxEvent::ConnFailed { error, .. } => return Err(error),
                }
            }
            if !progress {
                std::thread::sleep(IDLE_BACKOFF); // etalumis: allow(reactor-blocking, reason = "bounded idle backoff during connect; no session can make progress this iteration")
            }
        }
        Ok(Self {
            sessions: mux.into_parts(),
            model_name,
            make_endpoint: Arc::new(make_endpoint),
            system_name: system_name.to_string(),
            policy: ReconnectPolicy::default(),
        })
    }

    /// Connect `k` TCP sessions to one listening multi-client server (see
    /// `etalumis_ppx::serve_listener`).
    pub fn connect_tcp(k: usize, addr: &str, system_name: &str) -> Result<Self, PpxError> {
        let addr = addr.to_string();
        Self::connect(k, system_name, move |_| {
            TcpMuxEndpoint::connect(&addr).map(|e| Box::new(e) as Box<dyn MuxEndpoint>)
        })
    }

    /// Override the session [`ReconnectPolicy`] (respawn budget + backoff).
    /// `max_respawns = 0` disables respawning: a dead session stays dead
    /// and only the trace-retry machinery remains.
    pub fn with_reconnect_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The pool's session reconnect policy.
    pub fn reconnect_policy(&self) -> ReconnectPolicy {
        self.policy
    }

    /// Number of pooled sessions (K).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when the pool holds no sessions (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Sessions still able to run traces.
    pub fn live(&self) -> usize {
        self.sessions.iter().filter(|(_, s)| !s.is_dead()).count()
    }

    /// Model name announced by the simulators during the handshake.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }
}

/// Where one session slot stands in its connection lifecycle.
enum SlotConn {
    /// Handshaked and usable; holds the slot's current reactor conn id.
    Ready(usize),
    /// A (re)spawned endpoint whose handshake is in flight.
    Handshaking {
        /// Reactor conn id.
        conn: usize,
        /// When the handshake is abandoned as a connection death.
        deadline: Instant,
    },
    /// The connection died; a respawn attempt is scheduled.
    Backoff {
        /// Earliest instant of the next attempt.
        at: Instant,
    },
    /// Respawn budget exhausted — the slot is out of the batch.
    Retired,
}

/// One session slot inside a worker's reactor; its proposer may borrow the
/// batch's proposer factory for `'p`.
struct Slot<'p> {
    /// Position of this session in the pool (for reassembly after the run).
    global: usize,
    conn: SlotConn,
    /// Respawn attempts consumed by this slot (bounded by
    /// [`ReconnectPolicy::max_respawns`]).
    respawn_attempts: u32,
    /// The session's proposer, parked between traces.
    proposer: Option<Box<dyn etalumis_core::Proposer + Send + 'p>>,
    /// The in-flight trace: `(batch index, who records it, launch time)`.
    /// The launch time becomes the trace's `runtime.task` span on completion
    /// (wall latency across reactor sweeps, not exclusive CPU time).
    active: Option<(usize, InFlight<'p>, Instant)>,
    /// The last dead `(endpoint, session)` pair, kept so a retired slot can
    /// still hand *something* back for pool reassembly.
    graveyard: Option<(Box<dyn MuxEndpoint>, Session)>,
}

/// Who records an in-flight trace.
enum InFlight<'p> {
    /// The per-statement exchange: this executor answers the simulator's
    /// requests and records the trace.
    Steps(StepExecutor<'p>),
    /// A seeded prior run: the simulator records the trace and ships it
    /// whole.
    Seeded,
}

/// One worker's session share: `(pool position, (endpoint, session))`.
type SessionShare = Vec<(usize, (Box<dyn MuxEndpoint>, Session))>;

/// The mux backend of [`crate::BatchRunner::run`]: K sessions on
/// `workers` ≤ K reactor threads.
///
/// Scheduling is oversubscribed: each worker owns a fixed round-robin share
/// of the sessions but pulls trace indices from the shared work-stealing
/// queues, launching the next trace on whichever of its sessions is ready.
/// Per-trace `(seed, i)` derivation is the blocking path's, so batch
/// content is bit-identical to it for any `(K, M)`. Proposers are
/// per-session (one `make_proposer(worker)` call each); each trace starts
/// with a fresh proposer trace.
///
/// A failed session requeues its in-flight trace (rerun bit-identically
/// elsewhere, at most [`crate::batch::MAX_TRACE_RETRIES`] times) and is respawned through the
/// pool's endpoint factory under its [`ReconnectPolicy`] — the batch
/// completes with full content as long as any session can be kept alive.
/// Sessions whose respawn budget runs out are retired. The pool gets every
/// session slot back (live or dead) in its original position.
pub(crate) fn run_reactors(
    pool: &mut MuxSimulatorPool,
    workers: usize,
    shared: &Shared,
) -> Vec<WorkerOutcome> {
    let mut shares: Vec<SessionShare> = (0..workers).map(|_| Vec::new()).collect();
    for (g, part) in std::mem::take(&mut pool.sessions).into_iter().enumerate() {
        shares[g % workers].push((g, part));
    }
    let observes = Arc::new(shared.observes.clone());
    let respawn = RespawnCtx {
        factory: pool.make_endpoint.clone(),
        system_name: pool.system_name.clone(),
        policy: pool.policy,
    };
    let results = spawn_workers(shares, |worker, share| {
        Reactor {
            worker,
            shared,
            respawn: &respawn,
            observes: &observes,
            prior_only: shared.proposers.prior_only(),
            mux: Mux::new(),
            slots: Vec::with_capacity(share.len()),
            conn_slot: Vec::new(),
            out: WorkerOutcome::default(),
            drained: false,
            sweeps: 0,
            actions: 0,
            conn_deaths: 0,
            respawn_attempts: 0,
            handshake_timeouts: 0,
        }
        .run(share)
    });
    let mut recovered: SessionShare = Vec::new();
    let outcomes = results
        .into_iter()
        .map(|(outcome, sessions)| {
            recovered.extend(sessions);
            outcome
        })
        .collect();
    recovered.sort_by_key(|(g, _)| *g);
    pool.sessions = recovered.into_iter().map(|(_, part)| part).collect();
    outcomes
}

/// Everything a worker needs to respawn a dead session slot.
struct RespawnCtx {
    factory: Arc<EndpointFactory>,
    system_name: String,
    policy: ReconnectPolicy,
}

/// One worker's event loop: a poll reactor over its session slots, with
/// mid-batch respawn.
///
/// The respawn state machine per slot:
///
/// ```text
/// Ready ──conn death──▶ Backoff ──attempt──▶ Handshaking ──Connected──▶ Ready
///   Backoff ──budget exhausted──▶ Retired
///   Handshaking ──conn death──▶ Backoff (next attempt, doubled backoff)
/// ```
///
/// A death requeues the slot's in-flight trace index onto this worker's own
/// deque (per-trace seeding makes the rerun bit-identical wherever it
/// lands); the trace fails only when its [`crate::batch::MAX_TRACE_RETRIES`]
/// budget runs out. Backoff is non-blocking: the worker keeps servicing its healthy
/// sessions while a dead slot waits out its delay.
struct Reactor<'a> {
    worker: usize,
    shared: &'a Shared<'a>,
    respawn: &'a RespawnCtx,
    observes: &'a Arc<ObserveMap>,
    /// The batch's proposers answer everything from the prior, so a
    /// session whose simulator draws for itself runs seeded.
    prior_only: bool,
    mux: Mux,
    slots: Vec<Slot<'a>>,
    /// conn id → slot index (respawned slots get fresh conn ids).
    conn_slot: Vec<usize>,
    out: WorkerOutcome,
    /// True while the shared queues have come up empty; a requeued trace
    /// clears it (the deque holds work again).
    drained: bool,
    /// Telemetry meters, accumulated locally (one event bundle per reactor
    /// at exit, not one event per sweep): poll sweeps, serviced session
    /// actions, and the respawn/backoff state machine's transitions.
    sweeps: u64,
    actions: u64,
    conn_deaths: u64,
    respawn_attempts: u64,
    handshake_timeouts: u64,
}

impl Reactor<'_> {
    /// Adopt the worker's session share: live sessions join the mux,
    /// dead/abandoned ones go straight to the respawn machinery.
    fn adopt(&mut self, share: SessionShare) {
        for (s_idx, (global, (endpoint, session))) in share.into_iter().enumerate() {
            let state = session.state();
            let mut slot = Slot {
                global,
                conn: SlotConn::Retired,
                proposer: Some(self.shared.proposers.make_proposer(self.worker)),
                active: None,
                graveyard: None,
                respawn_attempts: 0,
            };
            match state {
                SessionState::Idle => {
                    slot.conn = SlotConn::Ready(self.register(s_idx, endpoint, session));
                }
                // A respawn from a previous batch still completing; keep
                // polling it.
                SessionState::Handshaking => {
                    slot.conn = SlotConn::Handshaking {
                        conn: self.register(s_idx, endpoint, session),
                        deadline: Instant::now() + self.respawn.policy.handshake_timeout,
                    };
                }
                // Dead (or abandoned mid-run by a kill switch): hand the
                // pair to the graveyard and let the respawn machinery
                // revive the slot if the policy allows.
                SessionState::Running(_) | SessionState::Done | SessionState::Failed => {
                    slot.graveyard = Some((endpoint, session));
                    slot.conn = if self.respawn.policy.max_respawns > 0 {
                        SlotConn::Backoff { at: Instant::now() }
                    } else {
                        SlotConn::Retired
                    };
                }
            }
            self.slots.push(slot);
        }
    }

    /// Register a connection with the mux and record its slot mapping.
    fn register(
        &mut self,
        s_idx: usize,
        endpoint: Box<dyn MuxEndpoint>,
        session: Session,
    ) -> usize {
        let conn = self.mux.add(endpoint, session);
        self.conn_slot.push(s_idx);
        debug_assert_eq!(self.conn_slot.len() - 1, conn);
        conn
    }

    /// Schedule the next respawn attempt for a slot (or retire it once the
    /// budget is spent).
    fn schedule_respawn(&mut self, s_idx: usize) {
        let policy = self.respawn.policy;
        let slot = &mut self.slots[s_idx];
        slot.conn = if slot.respawn_attempts < policy.max_respawns {
            SlotConn::Backoff {
                at: Instant::now() + policy.backoff * (1 << slot.respawn_attempts.min(16)),
            }
        } else {
            SlotConn::Retired
        };
    }

    /// Handle the death of a slot's connection: salvage the dead pair for
    /// reassembly, requeue the in-flight trace, schedule a respawn.
    fn on_conn_death(&mut self, s_idx: usize, conn: usize, error: &str) {
        self.conn_deaths += 1;
        if let Some(pair) = self.mux.detach(conn) {
            self.slots[s_idx].graveyard = Some(pair);
        }
        if let Some((i, _, _)) = self.slots[s_idx].active.take() {
            // Requeued onto this worker's own deque: its surviving sessions
            // (or a stealing neighbor) rerun it bit-identically.
            if self.shared.fail(&mut self.out, self.worker, i, error) {
                self.drained = false;
            }
        }
        self.schedule_respawn(s_idx);
    }

    /// Respawn every slot whose backoff has elapsed: fresh endpoint from
    /// the pool's factory, fresh handshake driven through the reactor.
    fn respawn_due(&mut self) -> bool {
        let mut progress = false;
        for s_idx in 0..self.slots.len() {
            let SlotConn::Backoff { at } = self.slots[s_idx].conn else { continue };
            if Instant::now() < at {
                continue;
            }
            self.slots[s_idx].respawn_attempts += 1;
            self.respawn_attempts += 1;
            progress = true;
            let attempt = (self.respawn.factory)(self.slots[s_idx].global)
                .map_err(PpxError::from)
                .and_then(|ep| self.mux.add_connect(ep, &self.respawn.system_name));
            match attempt {
                Ok(conn) => {
                    self.conn_slot.push(s_idx);
                    debug_assert_eq!(self.conn_slot.len() - 1, conn);
                    self.slots[s_idx].conn = SlotConn::Handshaking {
                        conn,
                        deadline: Instant::now() + self.respawn.policy.handshake_timeout,
                    };
                }
                Err(_) => {
                    // The handshake send may have registered (and killed) a
                    // connection; salvage it if so.
                    if self.conn_slot.len() < self.mux.len() {
                        self.conn_slot.push(s_idx);
                        if let Some(pair) = self.mux.detach(self.mux.len() - 1) {
                            self.slots[s_idx].graveyard = Some(pair);
                        }
                    }
                    self.schedule_respawn(s_idx);
                }
            }
        }
        progress
    }

    /// Abandon handshakes that outlived the policy deadline: the peer
    /// accepted a transport but never completed the protocol, which must
    /// not hang the batch. Counts as a connection death (respawn budget).
    fn expire_handshakes(&mut self) {
        for s_idx in 0..self.slots.len() {
            let SlotConn::Handshaking { conn, deadline } = self.slots[s_idx].conn else { continue };
            if Instant::now() < deadline {
                continue;
            }
            self.mux.session_mut(conn).fail();
            self.handshake_timeouts += 1;
            self.on_conn_death(s_idx, conn, "handshake timed out");
        }
    }

    /// Launch the next trace on every ready, idle session.
    fn launch_ready(&mut self) -> bool {
        let mut progress = false;
        for s_idx in 0..self.slots.len() {
            let SlotConn::Ready(conn) = self.slots[s_idx].conn else { continue };
            if self.drained || self.slots[s_idx].active.is_some() {
                continue;
            }
            if self.mux.is_dead(conn) {
                // Death observed outside the event stream (poisoned during
                // a previous sweep's servicing).
                self.on_conn_death(s_idx, conn, "session poisoned");
                continue;
            }
            let Some(i) = self.shared.queues.pop(self.worker, self.shared.stealing) else {
                self.drained = true;
                break;
            };
            let seed = mix_seed(self.shared.seed, i);
            let session = self.mux.session_mut(conn);
            let (run, start) =
                if self.prior_only && session.capabilities().contains(Capabilities::SEEDED_PRIOR) {
                    (InFlight::Seeded, session.start_prior_run(seed, self.observes.clone()))
                } else {
                    let proposer = self.slots[s_idx]
                        .proposer
                        .take()
                        .unwrap_or_else(|| self.shared.proposers.make_proposer(self.worker));
                    let exec = StepExecutor::new(proposer, self.observes.clone(), seed);
                    (InFlight::Steps(exec), session.start_run(Value::Unit))
                };
            let started = start.and_then(|msg| self.mux.send(conn, &msg));
            progress = true;
            self.slots[s_idx].active = Some((i, run, Instant::now()));
            if let Err(e) = started {
                // Died between traces: the popped index goes through the
                // same requeue path as an in-flight one.
                self.on_conn_death(s_idx, conn, &e.to_string());
            }
        }
        progress
    }

    /// Service one mux event; `true` if it made progress.
    fn handle_event(&mut self, ev: MuxEvent) -> bool {
        match ev {
            MuxEvent::Action { conn, action } => {
                let s_idx = self.conn_slot[conn];
                if let SessionAction::Connected { .. } = action {
                    let slot = &mut self.slots[s_idx];
                    if matches!(slot.conn, SlotConn::Handshaking { conn: c, .. } if c == conn) {
                        slot.conn = SlotConn::Ready(conn);
                        self.out.respawns += 1;
                        return true;
                    }
                    return false;
                }
                if self.slots[s_idx].active.is_none() {
                    // An action with no run in flight is a protocol
                    // violation; poison and respawn the connection.
                    self.mux.session_mut(conn).fail();
                    self.on_conn_death(
                        s_idx,
                        conn,
                        "protocol violation: action with no run in flight",
                    );
                    return true;
                }
                self.actions += 1;
                let t0 = Instant::now();
                let serviced = match (action, &mut self.slots[s_idx].active) {
                    (action, Some((_, InFlight::Steps(exec), _))) => {
                        self.mux.session_mut(conn).service(action, &mut exec.ctx())
                    }
                    // The simulator recorded the seeded run's trace itself.
                    (SessionAction::FinishedTrace { trace }, _) => {
                        Ok(Serviced::FinishedTrace(trace))
                    }
                    // The session admits nothing else during a seeded run.
                    (_, _) => Err(PpxError::Protocol {
                        expected: "PriorTrace",
                        got: "a per-statement request",
                    }),
                };
                self.out.report.busy += t0.elapsed();
                match serviced {
                    Ok(Serviced::Reply(reply)) => {
                        if let Err(e) = self.mux.send(conn, &reply) {
                            self.on_conn_death(s_idx, conn, &e.to_string());
                        }
                    }
                    Ok(Serviced::Connected(_)) => {
                        unreachable!("Connected actions are handled above") // etalumis: allow(panic-freedom, reason = "mux state machine routes Connected before servicing")
                    }
                    Ok(done) => {
                        // Checked above: the slot has a run in flight.
                        let Some((i, run, launched)) = self.slots[s_idx].active.take() else {
                            return true;
                        };
                        match (done, run) {
                            (Serviced::Finished(result), InFlight::Steps(exec)) => {
                                let (trace, proposer) = exec.finish(result);
                                self.slots[s_idx].proposer = Some(proposer);
                                self.complete(i, trace, launched);
                            }
                            (Serviced::FinishedTrace(trace), InFlight::Seeded) => {
                                self.complete(i, trace, launched);
                            }
                            (_, run) => {
                                // The run ended in the other exchange's
                                // result: requeue it with the connection.
                                self.slots[s_idx].active = Some((i, run, launched));
                                self.mux.session_mut(conn).fail();
                                self.on_conn_death(
                                    s_idx,
                                    conn,
                                    "protocol violation: run ended in the other exchange's result",
                                );
                            }
                        }
                    }
                    Err(e) => self.on_conn_death(s_idx, conn, &e.to_string()),
                }
                true
            }
            MuxEvent::ConnFailed { conn, error } => {
                let s_idx = self.conn_slot[conn];
                self.on_conn_death(s_idx, conn, &error.to_string());
                true
            }
        }
    }

    /// Deliver trace `i`, launched at `launched`, to the batch.
    fn complete(&mut self, i: usize, trace: Trace, launched: Instant) {
        let tel = self.shared.tel;
        if tel.is_enabled() {
            let _scope = tel.worker_scope(self.worker as u32);
            tel.span_record("runtime.task", launched.elapsed());
        }
        self.shared.deliver(&mut self.out, i, trace);
    }

    /// Drive this worker's share to the end of the batch; returns what it
    /// did and its session slots (live or dead) for pool reassembly.
    fn run(mut self, share: SessionShare) -> (WorkerOutcome, SessionShare) {
        self.adopt(share);
        let mut events: Vec<MuxEvent> = Vec::new();
        loop {
            if self.shared.killed() {
                break;
            }
            self.sweeps += 1;
            let mut progress = self.respawn_due();
            self.expire_handshakes();
            progress |= self.launch_ready();

            // Every slot retired: leave the remaining share for stealing
            // neighbors (BatchRunner::run drains true stragglers after the
            // join).
            if self.slots.iter().all(|s| matches!(s.conn, SlotConn::Retired)) {
                break;
            }

            // Ingest frames, advance state machines, service the actions.
            events.clear();
            progress |= self.mux.poll(&mut events);
            for ev in events.drain(..) {
                progress |= self.handle_event(ev);
            }

            if self.drained && self.slots.iter().all(|s| s.active.is_none()) {
                break;
            }
            if !progress {
                std::thread::sleep(IDLE_BACKOFF); // etalumis: allow(reactor-blocking, reason = "the reactor's own bounded idle backoff: nothing to poll, nothing to service")
            }
        }

        // Record this reactor's telemetry as one worker-attributed bundle:
        // the respawn/backoff state machine's transitions, the sweep/action
        // meters, and the underlying mux's frame accounting. Doing it once
        // at exit (instead of one event per sweep) keeps the event log
        // proportional to the batch, not to idle polling.
        let tel = self.shared.tel;
        if tel.is_enabled() {
            let _scope = tel.worker_scope(self.worker as u32);
            let mstats = self.mux.stats();
            tel.count("mux.sweeps", self.sweeps);
            tel.count("mux.polls", mstats.polls);
            tel.count("mux.frames_in", mstats.frames_in);
            tel.count("mux.frames_out", mstats.frames_out);
            tel.count("mux.conn_failures", mstats.conn_failures);
            tel.count("mux.actions", self.actions);
            tel.count("mux.conn_deaths", self.conn_deaths);
            tel.count("mux.respawn_attempts", self.respawn_attempts);
            tel.count("mux.respawns", self.out.respawns);
            tel.count("mux.handshake_timeouts", self.handshake_timeouts);
            tel.span_record("mux.service_busy", self.out.report.busy);
        }

        // Reassemble the pool's session pairs: live conns come back out of
        // the reactor; dead/retired slots return their last known (dead)
        // pair.
        let mux = &mut self.mux;
        let sessions = self
            .slots
            .into_iter()
            .map(|mut slot| {
                let pair = match slot.conn {
                    SlotConn::Ready(conn) | SlotConn::Handshaking { conn, .. } => mux
                        .detach(conn)
                        .or_else(|| slot.graveyard.take())
                        .unwrap_or_else(dead_placeholder),
                    SlotConn::Backoff { .. } | SlotConn::Retired => {
                        slot.graveyard.take().unwrap_or_else(dead_placeholder)
                    }
                };
                (slot.global, pair)
            })
            .collect();
        (self.out, sessions)
    }
}

/// A dead `(endpoint, session)` pair for slots with nothing to return (the
/// endpoint was consumed by a failed respawn attempt).
fn dead_placeholder() -> (Box<dyn MuxEndpoint>, Session) {
    (Box::new(ClosedEndpoint), Session::poisoned())
}

/// An endpoint that is permanently disconnected.
struct ClosedEndpoint;

impl MuxEndpoint for ClosedEndpoint {
    fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
        Err(PpxError::Disconnected)
    }

    fn send_frame(&mut self, _payload: Vec<u8>) -> Result<(), PpxError> {
        Err(PpxError::Disconnected)
    }

    fn flush(&mut self) -> Result<bool, PpxError> {
        Err(PpxError::Disconnected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Backend, BatchRunner, RunStats, RuntimeConfig};
    use crate::pool::SimulatorPool;
    use crate::sink::{CollectSink, CountingSink, TraceSink};
    use etalumis_core::{FnProgram, PriorProposer, Proposer, SimCtx, SimCtxExt};
    use etalumis_distributions::Distribution;
    use etalumis_ppx::{
        BlockingMux, FragmentingEndpoint, InProcMuxEndpoint, InProcTransport, RemoteModel,
        SimulatorServer,
    };
    use etalumis_telemetry::Telemetry;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_model() -> FnProgram<impl FnMut(&mut dyn SimCtx) -> Value> {
        FnProgram::new("oversub_model", |ctx: &mut dyn SimCtx| {
            let mu = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "mu");
            let k =
                ctx.sample_i64(&Distribution::Categorical { probs: vec![0.5, 0.3, 0.2] }, "branch");
            for j in 0..=k {
                let _ = ctx
                    .sample_f64(&Distribution::Normal { mean: mu, std: 1.0 + j as f64 }, "noise");
            }
            ctx.observe(&Distribution::Normal { mean: mu, std: 0.5 }, "y");
            ctx.tag("branch_tag", Value::Int(k));
            Value::Real(mu)
        })
    }

    fn spawn_inproc_server() -> InProcMuxEndpoint {
        let (ep, sim_side) = InProcMuxEndpoint::pair();
        std::thread::spawn(move || {
            let mut server = SimulatorServer::new("rt-mux", test_model());
            let mut t = sim_side;
            let _ = server.serve(&mut t);
        });
        ep
    }

    fn spawn_fragmenting_server(seed: u64) -> FragmentingEndpoint {
        let (ep, sim_side) = FragmentingEndpoint::pair(seed, 5);
        std::thread::spawn(move || {
            let mut server = SimulatorServer::new("rt-mux", test_model());
            let mut t = BlockingMux(sim_side);
            let _ = server.serve(&mut t);
        });
        ep
    }

    /// Reference: the blocking path over one remote connection.
    fn blocking_reference(n: usize, seed: u64) -> Vec<Trace> {
        let mut pool = SimulatorPool::connect_ppx(1, |_| {
            let (controller_side, sim_side) = InProcTransport::pair();
            std::thread::spawn(move || {
                let mut server = SimulatorServer::new("rt-mux", test_model());
                let mut t = sim_side;
                let _ = server.serve(&mut t);
            });
            RemoteModel::connect(controller_side, "etalumis-rs")
        })
        .unwrap();
        let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
        let sink = CollectSink::new(n);
        let observes = ObserveMap::new();
        let stats = runner.run_prior(&mut pool, &observes, n, seed, &sink);
        assert!(stats.failures.is_empty());
        sink.into_traces()
    }

    /// A prior batch over `pool` on either exchange: seeded (the prior-only
    /// factory, one round trip per trace against these capable servers) or
    /// per-statement (a factory that is not `prior_only`).
    fn run_prior(
        runner: &BatchRunner,
        pool: &mut MuxSimulatorPool,
        n: usize,
        seed: u64,
        sink: &dyn TraceSink,
        seeded: bool,
    ) -> RunStats {
        let observes = ObserveMap::new();
        if seeded {
            return runner.run_mux_prior(pool, &observes, n, seed, sink);
        }
        let per_statement = |_: usize| Box::new(PriorProposer) as Box<dyn Proposer + Send>;
        runner.run(Backend::Mux(pool), &per_statement, &observes, n, seed, sink)
    }

    fn assert_traces_bit_identical(a: &[Trace], b: &[Trace], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: trace count");
        for (idx, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.entries.len(), y.entries.len(), "{label}: entries of trace {idx}");
            for (ex, ey) in x.entries.iter().zip(&y.entries) {
                assert_eq!(ex.address, ey.address, "{label}: address in trace {idx}");
                assert_eq!(ex.value, ey.value, "{label}: value in trace {idx}");
                assert_eq!(ex.log_prob.to_bits(), ey.log_prob.to_bits(), "{label}: trace {idx}");
                assert_eq!(ex.log_q.to_bits(), ey.log_q.to_bits(), "{label}: trace {idx}");
            }
            assert_eq!(x.result, y.result, "{label}: result of trace {idx}");
            assert_eq!(x.tags, y.tags, "{label}: tags of trace {idx}");
            assert_eq!(x.log_prior.to_bits(), y.log_prior.to_bits(), "{label}: trace {idx}");
            assert_eq!(
                x.log_likelihood.to_bits(),
                y.log_likelihood.to_bits(),
                "{label}: trace {idx}"
            );
        }
    }

    #[test]
    fn single_reactor_thread_drives_eight_sessions_bit_identical_to_blocking() {
        let n = 48;
        let seed = 2024;
        let reference = blocking_reference(n, seed);

        let mut pool = MuxSimulatorPool::connect(8, "etalumis-rs", |_| {
            Ok(Box::new(spawn_inproc_server()) as Box<dyn MuxEndpoint>)
        })
        .unwrap();
        assert_eq!(pool.len(), 8);
        assert_eq!(pool.model_name(), "oversub_model");
        // One worker thread, eight concurrent sessions, both exchanges.
        let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
        for seeded in [true, false] {
            let sink = CollectSink::new(n);
            let stats = run_prior(&runner, &mut pool, n, seed, &sink, seeded);
            assert_eq!(stats.total_executed(), n);
            assert!(stats.failures.is_empty(), "failures: {:?}", stats.failures);
            assert_eq!(stats.per_worker.len(), 1);
            assert_eq!(pool.live(), 8, "sessions must survive the batch");
            let label = format!("mux 1x8, seeded {seeded}");
            assert_traces_bit_identical(&sink.into_traces(), &reference, &label);
        }
    }

    #[test]
    fn oversubscription_is_invariant_to_workers_sessions_and_fragmentation() {
        let n = 30;
        let seed = 777;
        let reference = blocking_reference(n, seed);
        // Fragmented transports: frames arrive split at pseudo-random byte
        // boundaries, interleaved across concurrent sessions.
        for (k, m) in [(2usize, 1usize), (4, 2), (6, 3)] {
            for seeded in [false, true] {
                let mut pool = MuxSimulatorPool::connect(k, "etalumis-rs", move |i| {
                    Ok(Box::new(spawn_fragmenting_server(seed ^ (i as u64) << 3))
                        as Box<dyn MuxEndpoint>)
                })
                .unwrap();
                let runner = BatchRunner::new(RuntimeConfig { workers: m, stealing: true });
                let sink = CollectSink::new(n);
                let stats = run_prior(&runner, &mut pool, n, seed, &sink, seeded);
                let label = format!("K={k} M={m} seeded {seeded}");
                assert_eq!(stats.total_executed(), n, "{label}");
                assert!(stats.failures.is_empty(), "{label}: {:?}", stats.failures);
                assert_traces_bit_identical(&sink.into_traces(), &reference, &label);
            }
        }
    }

    #[test]
    fn pool_sessions_are_reusable_across_batches() {
        let mut pool = MuxSimulatorPool::connect(3, "etalumis-rs", |_| {
            Ok(Box::new(spawn_inproc_server()) as Box<dyn MuxEndpoint>)
        })
        .unwrap();
        let runner = BatchRunner::new(RuntimeConfig { workers: 2, stealing: true });
        let observes = ObserveMap::new();
        for seed in [1u64, 2, 3] {
            let sink = CountingSink::default();
            let stats = runner.run_mux_prior(&mut pool, &observes, 12, seed, &sink);
            assert_eq!(stats.total_executed(), 12, "batch with seed {seed}");
            assert_eq!(sink.count(), 12);
            assert_eq!(pool.live(), 3);
        }
    }

    /// An endpoint that dies after a fixed number of delivered frames.
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

    /// Endpoint factory where session 0's *first* endpoint dies after
    /// `frames` delivered frames and every later endpoint (the respawns) is
    /// healthy — one simulator crash, then a clean replacement.
    fn crash_once_factory(
        frames: usize,
    ) -> impl Fn(usize) -> std::io::Result<Box<dyn MuxEndpoint>> + Send + Sync + 'static {
        use std::sync::atomic::{AtomicBool, Ordering};
        let crashed = std::sync::Arc::new(AtomicBool::new(false));
        move |i| {
            let inner = spawn_inproc_server();
            let ep: Box<dyn MuxEndpoint> = if i == 0 && !crashed.swap(true, Ordering::SeqCst) {
                Box::new(FailAfter { inner, frames_left: frames })
            } else {
                Box::new(inner)
            };
            Ok(ep)
        }
    }

    #[test]
    fn killed_session_is_respawned_and_batch_content_is_bit_identical() {
        let n = 24;
        let seed = 91;
        let reference = blocking_reference(n, seed);
        let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
        // Session 0 dies mid-batch (after its handshake + a few trace
        // frames); the respawned replacement is healthy. Per statement, a
        // second session keeps serving through the respawn. Seeded, six
        // frames are six whole traces and a second session would finish the
        // batch before the respawn backoff ran out, so the only session
        // dies and the batch cannot finish without its replacement.
        for (seeded, sessions) in [(false, 2), (true, 1)] {
            let mut pool =
                MuxSimulatorPool::connect(sessions, "etalumis-rs", crash_once_factory(7)).unwrap();
            let sink = CollectSink::new(n);
            let stats = run_prior(&runner, &mut pool, n, seed, &sink, seeded);
            let label = format!("respawned mux, seeded {seeded}");
            assert!(stats.failures.is_empty(), "{label}: respawn must absorb the crash: {stats:?}");
            assert_eq!(stats.total_executed(), n, "{label}");
            assert_eq!(
                stats.respawns, 1,
                "{label}: exactly one session respawn expected: {stats:?}"
            );
            assert!(stats.retries >= 1, "{label}: the in-flight trace must be requeued: {stats:?}");
            assert_eq!(pool.live(), sessions, "{label}: the respawned session rejoins the pool");
            // The spine of the fault-tolerance PR: content is bit-identical
            // to an undisturbed blocking run despite the mid-batch death.
            assert_traces_bit_identical(&sink.into_traces(), &reference, &label);
        }
    }

    /// A [`FailAfter`] that counts its death in `deaths`, once.
    struct CountedDeath {
        inner: FailAfter,
        deaths: Arc<AtomicUsize>,
        dead: bool,
    }

    impl MuxEndpoint for CountedDeath {
        fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
            let frame = self.inner.poll_frame();
            if frame.is_err() && !std::mem::replace(&mut self.dead, true) {
                self.deaths.fetch_add(1, Ordering::SeqCst);
            }
            frame
        }

        fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError> {
            self.inner.send_frame(payload)
        }

        fn flush(&mut self) -> Result<bool, PpxError> {
            self.inner.flush()
        }
    }

    /// A healthy session that delivers its handshake, then nothing until
    /// `deaths` reaches `open_at`: its first `Run` waits for that many
    /// deaths of another session.
    struct HeldUntilDeaths {
        inner: InProcMuxEndpoint,
        handshaken: bool,
        deaths: Arc<AtomicUsize>,
        open_at: usize,
    }

    impl MuxEndpoint for HeldUntilDeaths {
        fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
            if self.handshaken && self.deaths.load(Ordering::SeqCst) < self.open_at {
                return Ok(None);
            }
            let frame = self.inner.poll_frame()?;
            self.handshaken |= frame.is_some();
            Ok(frame)
        }

        fn send_frame(&mut self, payload: Vec<u8>) -> Result<(), PpxError> {
            self.inner.send_frame(payload)
        }

        fn flush(&mut self) -> Result<bool, PpxError> {
            self.inner.flush()
        }
    }

    #[test]
    fn respawn_budget_exhaustion_retires_the_slot_but_accounts_every_index() {
        let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
        let policy = ReconnectPolicy { backoff: Duration::ZERO, ..Default::default() };
        let deaths = u64::from(policy.max_respawns) + 1;
        // Session 0's endpoint always dies a few frames into a trace — every
        // respawn is doomed; session 1 is healthy. Per statement, nine
        // frames are the handshake and half a trace; seeded, two frames are
        // the handshake and one whole trace. Session 1 holds its first
        // `Run` until session 0's last endpoint has died, so the batch
        // cannot drain before the budget is spent, however the threads are
        // scheduled.
        for (seeded, frames, n) in [(false, 9, 20), (true, 2, 200)] {
            let died = Arc::new(AtomicUsize::new(0));
            let mut pool = MuxSimulatorPool::connect(2, "etalumis-rs", move |i| {
                let (inner, tally) = (spawn_inproc_server(), died.clone());
                let ep: Box<dyn MuxEndpoint> = if i == 0 {
                    let inner = FailAfter { inner, frames_left: frames };
                    Box::new(CountedDeath { inner, deaths: tally, dead: false })
                } else {
                    let open_at = deaths as usize;
                    Box::new(HeldUntilDeaths { inner, handshaken: false, deaths: tally, open_at })
                };
                Ok(ep)
            })
            .unwrap()
            .with_reconnect_policy(policy);
            let sink = CountingSink::default();
            let stats = run_prior(&runner, &mut pool, n, 5, &sink, seeded);
            let label = format!("seeded {seeded}");
            assert_eq!(
                stats.total_executed() + stats.failures.len(),
                n,
                "{label}: every index is either delivered or recorded as failed: {stats:?}"
            );
            assert_eq!(sink.count(), stats.total_executed(), "{label}");
            // Every respawn handshakes, then dies with a trace in flight:
            // the initial endpoint and the three respawns are four deaths,
            // each trace requeued or, past its retry budget, failed.
            assert_eq!(stats.respawns, u64::from(policy.max_respawns), "{label}: {stats:?}");
            assert_eq!(stats.retries + stats.failures.len() as u64, deaths, "{label}: {stats:?}");
            assert_eq!(pool.live(), 1, "{label}: the dying slot is retired, the healthy one lives");
        }
    }

    /// An endpoint that accepts frames but never delivers any — a peer
    /// that connects and then stays silent.
    struct BlackHole;

    impl MuxEndpoint for BlackHole {
        fn poll_frame(&mut self) -> Result<Option<Vec<u8>>, PpxError> {
            Ok(None)
        }

        fn send_frame(&mut self, _payload: Vec<u8>) -> Result<(), PpxError> {
            Ok(())
        }

        fn flush(&mut self) -> Result<bool, PpxError> {
            Ok(true)
        }
    }

    #[test]
    fn silent_respawn_peer_times_out_instead_of_hanging_the_batch() {
        let n = 16;
        let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
        let policy =
            ReconnectPolicy { handshake_timeout: Duration::from_millis(20), ..Default::default() };
        // Session 0 dies quickly and every respawn endpoint is itself a
        // FailAfter: handshake result (1 frame) + a few more, then death —
        // exercising repeated deaths under a short handshake timeout while
        // session 1 serves the batch.
        for (seeded, frames) in [(false, 6), (true, 2)] {
            let mut pool = MuxSimulatorPool::connect(2, "etalumis-rs", move |i| {
                let ep: Box<dyn MuxEndpoint> = if i == 0 {
                    Box::new(FailAfter { inner: spawn_inproc_server(), frames_left: frames })
                } else {
                    Box::new(spawn_inproc_server())
                };
                Ok(ep)
            })
            .unwrap()
            .with_reconnect_policy(policy);
            let sink = CountingSink::default();
            let stats = run_prior(&runner, &mut pool, n, 9, &sink, seeded);
            assert_eq!(stats.total_executed() + stats.failures.len(), n, "{stats:?}");
        }

        // Now the literal black hole: the only session dies, and its
        // respawns connect but never handshake. Nothing else can run the
        // batch, so without the handshake timeout it would wait forever;
        // with it, every respawn is a budget-spending death, the slot is
        // retired, and the stranded indices are recorded as failed.
        for (seeded, frames) in [(false, 6), (true, 2)] {
            use std::sync::atomic::{AtomicBool, Ordering};
            let crashed = std::sync::Arc::new(AtomicBool::new(false));
            let mut pool = MuxSimulatorPool::connect(1, "etalumis-rs", move |_| {
                let ep: Box<dyn MuxEndpoint> = if !crashed.swap(true, Ordering::SeqCst) {
                    Box::new(FailAfter { inner: spawn_inproc_server(), frames_left: frames })
                } else {
                    Box::new(BlackHole)
                };
                Ok(ep)
            })
            .unwrap()
            .with_reconnect_policy(policy);
            let tel = Telemetry::enabled();
            let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true })
                .with_telemetry(tel.clone());
            let sink = CountingSink::default();
            let start = std::time::Instant::now();
            let stats = run_prior(&runner, &mut pool, n, 9, &sink, seeded);
            let label = format!("seeded {seeded}");
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{label}: silent handshakes must time out, not hang: {:?}",
                start.elapsed()
            );
            assert_eq!(stats.total_executed() + stats.failures.len(), n, "{label}: {stats:?}");
            assert!(!stats.failures.is_empty(), "{label}: the retired slot strands the rest");
            assert_eq!(stats.respawns, 0, "{label}: no black hole ever handshakes: {stats:?}");
            let timeouts = tel.collect().snapshot().counters["mux.handshake_timeouts"];
            assert_eq!(
                timeouts,
                u64::from(policy.max_respawns),
                "{label}: every respawn timed out"
            );
            assert_eq!(pool.live(), 0, "{label}: the slot is retired");
        }
    }

    #[test]
    fn respawn_disabled_reproduces_fail_fast_semantics() {
        let n = 12;
        let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
        // Session 0 dies after its handshake and a few more frames: per
        // statement nine frames (within its first trace), seeded three (two
        // whole traces — session 0 never sees nine frames of a seeded
        // batch this size).
        for (seeded, frames) in [(false, 9), (true, 3)] {
            let mut pool = MuxSimulatorPool::connect(2, "etalumis-rs", move |i| {
                let inner = spawn_inproc_server();
                let ep: Box<dyn MuxEndpoint> = if i == 0 {
                    Box::new(FailAfter { inner, frames_left: frames })
                } else {
                    Box::new(inner)
                };
                Ok(ep)
            })
            .unwrap()
            .with_reconnect_policy(ReconnectPolicy { max_respawns: 0, ..Default::default() });
            let sink = CountingSink::default();
            let stats = run_prior(&runner, &mut pool, n, 5, &sink, seeded);
            assert_eq!(stats.respawns, 0);
            assert_eq!(stats.total_executed() + stats.failures.len(), n, "{stats:?}");
            assert_eq!(pool.live(), 1, "seeded {seeded}");
        }
    }
}
