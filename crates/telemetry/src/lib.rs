//! # etalumis-telemetry
//!
//! The observability layer of etalumis-rs — the instrumentation behind the
//! paper's §5 end-to-end performance analysis (per-rank load balance,
//! throughput, time-in-phase breakdowns). Std-only, matching the
//! compat-shim discipline of the rest of the workspace.
//!
//! * [`Telemetry`] — a cheap-clone handle. [`Telemetry::disabled`] is a
//!   no-op whose every call is one branch on an `Option`; instrumented
//!   code pays ~nothing when observability is off (bounded by the
//!   `telemetry` bench).
//! * **Spans** — scoped timers with parent nesting via a per-thread span
//!   stack ([`Telemetry::span`]), plus a pre-measured form
//!   ([`Telemetry::span_record`]) for phases already timed by the caller.
//! * **Counters / gauges** — monotone deltas ([`Telemetry::count`]) and
//!   point-in-time values ([`Telemetry::gauge`]).
//! * [`Collector`] — drains the per-thread buffers into (a) a JSONL event
//!   log for timelines (rendered by the `run_report` binary) and (b) an
//!   aggregated [`RunMetrics`] snapshot (span totals/percentiles, counter
//!   sums, gauge last/min/max) written as `RUN_METRICS.json`.
//! * [`Logger`] — the leveled, machine-parseable progress logger used by
//!   the figure/table binaries and pipeline examples (human-readable to
//!   stderr; JSONL to stdout under `--json`).
//!
//! ## Determinism contract
//!
//! Instrumentation must never perturb the instrumented run: enabling
//! telemetry only *reads* state and clocks, so bit-identity properties
//! (shard bytes, losses, weights) hold with telemetry on or off. Event
//! **structure** falls in two classes, documented per event name at the
//! emission site:
//!
//! * **deterministic** — counts and nesting are a pure function of the
//!   run's inputs (e.g. one `runtime.task` span per trace, one
//!   `train.step` span per optimizer step, bucketer fills/spills); only
//!   the recorded durations vary run to run.
//! * **meters** — counts measure real-time behavior and legitimately vary
//!   with timing (e.g. mux poll sweeps, channel back-pressure stalls,
//!   checkpoint back-pressure waits).

mod collect;
mod json;
mod logger;

pub use collect::{Collector, GaugeStats, RunMetrics, SpanStats};
pub use json::{escape_json, JsonObject};
pub use logger::{Field, Logger};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker id used when no [`Telemetry::worker_scope`] is active on the
/// recording thread (rendered as `null` in JSONL).
pub const NO_WORKER: u32 = u32::MAX;

/// Parent span id meaning "no parent" (top of the per-thread stack).
pub const NO_PARENT: u64 = 0;

const N_SHARDS: usize = 64;

/// One recorded telemetry event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Dotted event name, `subsystem.what` (e.g. `runtime.task`).
    pub name: &'static str,
    /// Worker/rank attribution ([`NO_WORKER`] when unattributed).
    pub worker: u32,
    /// Global record-completion sequence number (total order per handle).
    pub seq: u64,
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A closed span: `[start_us, start_us + dur_us]` relative to the
    /// handle's creation, nested under `parent` ([`NO_PARENT`] = root).
    Span { span_id: u64, parent: u64, start_us: u64, dur_us: u64 },
    /// A monotone counter increment.
    Counter { delta: u64 },
    /// A point-in-time gauge sample.
    Gauge { value: f64 },
}

struct Shared {
    /// Distinguishes handles so per-thread span stacks never cross wires
    /// when a process holds several enabled `Telemetry` instances.
    id: u64,
    start: Instant,
    shards: [Mutex<Vec<Event>>; N_SHARDS],
    next_span: AtomicU64,
    next_seq: AtomicU64,
}

static NEXT_SHARED_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Which buffer shard this thread appends to.
    static THREAD_SHARD: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
    /// Open-span stack entries: (shared id, span id).
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Worker attribution installed by [`Telemetry::worker_scope`].
    static CURRENT_WORKER: Cell<u32> = const { Cell::new(NO_WORKER) };
}

/// A cheap-clone telemetry handle. Disabled handles carry no allocation
/// and every recording call is a single `Option` branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(s) => write!(f, "Telemetry(enabled #{id})", id = s.id),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// The no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle recording into fresh per-thread buffers.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Shared {
                id: NEXT_SHARED_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
                next_span: AtomicU64::new(1),
                next_seq: AtomicU64::new(0),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a scoped span; it closes (and records) when the guard drops.
    /// Parent nesting follows the per-thread stack of open spans.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(shared) = &self.inner else { return SpanGuard(None) };
        let span_id = shared.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = top_of_stack(shared.id);
        SPAN_STACK.with(|s| s.borrow_mut().push((shared.id, span_id)));
        SpanGuard(Some(OpenSpan {
            shared: shared.clone(),
            name,
            span_id,
            parent,
            started: Instant::now(),
        }))
    }

    /// Record an already-measured duration as a closed span (used where
    /// the caller times phases itself, e.g. `PhaseTimings`). Nests under
    /// the thread's currently open span, if any.
    #[inline]
    pub fn span_record(&self, name: &'static str, dur: Duration) {
        let Some(shared) = &self.inner else { return };
        let span_id = shared.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = top_of_stack(shared.id);
        let dur_us = dur.as_micros() as u64;
        let end_us = shared.start.elapsed().as_micros() as u64;
        shared.record(Event {
            name,
            worker: CURRENT_WORKER.with(|w| w.get()),
            seq: shared.next_seq.fetch_add(1, Ordering::Relaxed),
            kind: EventKind::Span {
                span_id,
                parent,
                start_us: end_us.saturating_sub(dur_us),
                dur_us,
            },
        });
    }

    /// Increment a monotone counter.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        let Some(shared) = &self.inner else { return };
        shared.record(Event {
            name,
            worker: CURRENT_WORKER.with(|w| w.get()),
            seq: shared.next_seq.fetch_add(1, Ordering::Relaxed),
            kind: EventKind::Counter { delta },
        });
    }

    /// Sample a gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        let Some(shared) = &self.inner else { return };
        shared.record(Event {
            name,
            worker: CURRENT_WORKER.with(|w| w.get()),
            seq: shared.next_seq.fetch_add(1, Ordering::Relaxed),
            kind: EventKind::Gauge { value },
        });
    }

    /// Attribute every event recorded by this thread to `worker` until the
    /// returned guard drops (restores the previous attribution). No-op on
    /// a disabled handle.
    #[inline]
    pub fn worker_scope(&self, worker: u32) -> WorkerScope {
        if self.inner.is_none() {
            return WorkerScope { prev: None };
        }
        let prev = CURRENT_WORKER.with(|w| w.replace(worker));
        WorkerScope { prev: Some(prev) }
    }

    /// Drain all recorded events, sorted by sequence number. Open spans
    /// are not included (they record on guard drop).
    pub fn drain(&self) -> Vec<Event> {
        let Some(shared) = &self.inner else { return Vec::new() };
        let mut out = Vec::new();
        for shard in &shared.shards {
            out.append(&mut shard.lock().unwrap_or_else(|e| e.into_inner()));
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Drain into a [`Collector`] ready to write JSONL / snapshot metrics.
    pub fn collect(&self) -> Collector {
        Collector::new(self.drain())
    }
}

impl Shared {
    fn record(&self, event: Event) {
        let shard = THREAD_SHARD.with(|s| *s);
        self.shards[shard].lock().unwrap_or_else(|e| e.into_inner()).push(event);
    }
}

fn top_of_stack(shared_id: u64) -> u64 {
    SPAN_STACK.with(|s| {
        s.borrow().iter().rev().find(|(id, _)| *id == shared_id).map_or(NO_PARENT, |(_, sp)| *sp)
    })
}

struct OpenSpan {
    shared: Arc<Shared>,
    name: &'static str,
    span_id: u64,
    parent: u64,
    started: Instant,
}

/// Guard returned by [`Telemetry::span`]; records the span on drop.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard(Option<OpenSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let dur = open.started.elapsed();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in strict LIFO order per thread, but be tolerant
            // of a guard moved across threads: remove by identity.
            if let Some(pos) =
                stack.iter().rposition(|&(id, sp)| id == open.shared.id && sp == open.span_id)
            {
                stack.remove(pos);
            }
        });
        let start_us = open.started.saturating_duration_since(open.shared.start).as_micros() as u64;
        open.shared.record(Event {
            name: open.name,
            worker: CURRENT_WORKER.with(|w| w.get()),
            seq: open.shared.next_seq.fetch_add(1, Ordering::Relaxed),
            kind: EventKind::Span {
                span_id: open.span_id,
                parent: open.parent,
                start_us,
                dur_us: dur.as_micros() as u64,
            },
        });
    }
}

/// Guard returned by [`Telemetry::worker_scope`]; restores the previous
/// worker attribution on drop.
pub struct WorkerScope {
    prev: Option<u32>,
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            CURRENT_WORKER.with(|w| w.set(prev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(events: &[Event]) -> Vec<(&'static str, u64, u64)> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Span { span_id, parent, .. } => Some((e.name, span_id, parent)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let _s = tel.span("a");
            tel.count("c", 3);
            tel.gauge("g", 1.0);
            tel.span_record("m", Duration::from_micros(5));
        }
        assert!(!tel.is_enabled());
        assert!(tel.drain().is_empty());
    }

    #[test]
    fn span_nesting_follows_scope() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("outer");
            {
                let _inner = tel.span("inner");
            }
            let _sibling = tel.span("sibling");
        }
        let events = tel.drain();
        let sp = spans(&events);
        // Spans record on close: inner first, then sibling, then outer.
        assert_eq!(sp.len(), 3);
        let (_, outer_id, outer_parent) = sp.iter().find(|s| s.0 == "outer").copied().unwrap();
        let (_, _, inner_parent) = sp.iter().find(|s| s.0 == "inner").copied().unwrap();
        let (_, _, sib_parent) = sp.iter().find(|s| s.0 == "sibling").copied().unwrap();
        assert_eq!(outer_parent, NO_PARENT);
        assert_eq!(inner_parent, outer_id);
        assert_eq!(sib_parent, outer_id);
    }

    #[test]
    fn span_record_nests_under_open_span() {
        let tel = Telemetry::enabled();
        {
            let _step = tel.span("step");
            tel.span_record("phase", Duration::from_micros(100));
        }
        let events = tel.drain();
        let sp = spans(&events);
        let (_, step_id, _) = sp.iter().find(|s| s.0 == "step").copied().unwrap();
        let (_, _, phase_parent) = sp.iter().find(|s| s.0 == "phase").copied().unwrap();
        assert_eq!(phase_parent, step_id);
    }

    #[test]
    fn two_handles_do_not_cross_parent_wires() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        {
            let _oa = a.span("a.outer");
            let _sb = b.span("b.solo");
        }
        let sb = spans(&b.drain());
        let (_, _, parent) = sb.iter().find(|s| s.0 == "b.solo").copied().unwrap();
        assert_eq!(parent, NO_PARENT, "span from handle A must not parent handle B's span");
    }

    #[test]
    fn worker_scope_attributes_and_restores() {
        let tel = Telemetry::enabled();
        tel.count("before", 1);
        {
            let _w = tel.worker_scope(7);
            tel.count("inside", 1);
        }
        tel.count("after", 1);
        let events = tel.drain();
        let by_name = |n: &str| events.iter().find(|e| e.name == n).map(|e| e.worker).unwrap();
        assert_eq!(by_name("before"), NO_WORKER);
        assert_eq!(by_name("inside"), 7);
        assert_eq!(by_name("after"), NO_WORKER);
    }

    #[test]
    fn events_are_seq_ordered_and_complete_across_threads() {
        let tel = Telemetry::enabled();
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let tel = tel.clone();
                s.spawn(move || {
                    let _scope = tel.worker_scope(w);
                    for _ in 0..100 {
                        let _sp = tel.span("work");
                        tel.count("ticks", 1);
                    }
                });
            }
        });
        let events = tel.drain();
        assert_eq!(events.len(), 4 * 100 * 2);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        let ticks: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Counter { delta } if e.name == "ticks" => Some(delta),
                _ => None,
            })
            .sum();
        assert_eq!(ticks, 400);
    }

    #[test]
    fn drain_then_record_then_drain() {
        let tel = Telemetry::enabled();
        tel.count("a", 1);
        assert_eq!(tel.drain().len(), 1);
        tel.count("b", 1);
        let again = tel.drain();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].name, "b");
    }
}
