//! Recording targets: what an execution's statements are recorded into.
//!
//! The executor hands every statement it executes to a [`TraceTarget`]
//! chosen by the caller, monomorphized: a [`Trace`] keeps everything
//! (inference engines need the densities, names and tags), while a
//! [`RecordBuilder`] keeps only what a training shard stores (§4.4.3's
//! pruned record) and so asks for no densities at all. A PPX `PriorTrace`
//! payload decodes into the same targets, so a prior run produces its shard
//! record directly on either side of the protocol.

use crate::address::{Address, TraceTypeId};
use crate::trace::{EntryKind, Trace, TraceEntry};
use etalumis_distributions::{Distribution, TensorValue, Value};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write;
use std::hash::Hasher;
use std::sync::Arc;

/// One executed sample or observe statement, as a [`TraceTarget`] receives
/// it. The executor lends the distribution and value (the simulator owns
/// them); a decoder hands over what it decoded.
pub struct Statement<'a> {
    /// Statement role.
    pub kind: EntryKind,
    /// Address of the statement within its trace.
    pub address: Address,
    /// Statement name.
    pub name: Cow<'a, str>,
    /// Prior distribution (samples) or likelihood (observes).
    pub distribution: Cow<'a, Distribution>,
    /// The realized value.
    pub value: Cow<'a, Value>,
    /// `log p(value)`; 0 when the target is not [`TraceTarget::SCORED`].
    pub log_prob: f64,
    /// `log q(value)`; 0 when the target is not [`TraceTarget::SCORED`].
    pub log_q: f64,
}

/// What one execution is recorded into.
pub trait TraceTarget {
    /// What [`TraceTarget::finish`] returns.
    type Output;

    /// Whether the target keeps log-densities. When false, the executor
    /// evaluates none (the voxel log-likelihood of an observation is the
    /// costliest) and passes 0 for both.
    const SCORED: bool;

    /// Record one statement, in execution order.
    fn push(&mut self, statement: Statement<'_>);

    /// Record a tagged by-product.
    fn tag(&mut self, name: Cow<'_, str>, value: Value);

    /// Complete the execution with the program's result.
    fn finish(self, result: Value) -> Self::Output;
}

/// A trace records everything; its totals are summed at the end by
/// [`Trace::from_entries`].
impl TraceTarget for Trace {
    type Output = Trace;
    const SCORED: bool = true;

    fn push(&mut self, s: Statement<'_>) {
        self.entries.push(TraceEntry {
            address: s.address,
            distribution: s.distribution.into_owned(),
            value: s.value.into_owned(),
            log_prob: s.log_prob,
            log_q: s.log_q,
            kind: s.kind,
            name: s.name.into_owned(),
        });
    }

    fn tag(&mut self, name: Cow<'_, str>, value: Value) {
        self.tags.push((name.into_owned(), value));
    }

    fn finish(self, result: Value) -> Trace {
        Trace::from_entries(self.entries, self.tags, result)
    }
}

/// One sample statement in a stored trace.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordEntry {
    /// Fully qualified address (`base__instance`).
    pub address: String,
    /// Prior distribution at this site.
    pub distribution: Distribution,
    /// Sampled value.
    pub value: Value,
    /// Whether the entry was a rejection-loop (`replace`) draw.
    pub replaced: bool,
}

/// A compact, serializable execution trace: what a training shard stores.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Trace-type hash (over controlled addresses, in order).
    pub trace_type: u64,
    /// Sample entries (controlled only when pruned).
    pub entries: Vec<RecordEntry>,
    /// The observation the IC network conditions on.
    pub observation: TensorValue,
    /// Total number of statements in the original trace (load-balance proxy).
    pub length: u32,
}

impl TraceRecord {
    /// The record of a live trace.
    ///
    /// `pruned = true` keeps only controlled entries (what training needs);
    /// `false` keeps replaced draws too (the pre-optimization layout).
    /// Generation records through a [`RecordBuilder`] instead and never
    /// holds the trace; this is the reference it must equal, for tests and
    /// for callers that already hold a trace.
    pub fn from_trace(trace: &Trace, pruned: bool) -> Self {
        let observation = observation_tensor(trace.first_observed().cloned());
        let entries = trace
            .entries
            .iter()
            .filter(|e| match e.kind {
                EntryKind::Sample => true,
                EntryKind::SampleReplaced => !pruned,
                EntryKind::Observe => false,
            })
            .map(|e| RecordEntry {
                address: e.address.qualified(),
                distribution: e.distribution.clone(),
                value: e.value.clone(),
                replaced: e.kind == EntryKind::SampleReplaced,
            })
            .collect();
        Self {
            trace_type: trace.trace_type().0,
            entries,
            observation,
            length: trace.entries.len() as u32,
        }
    }

    /// Controlled entries only (skips replaced draws if present).
    pub fn controlled(&self) -> impl Iterator<Item = &RecordEntry> {
        self.entries.iter().filter(|e| !e.replaced)
    }

    /// Number of controlled entries (the LSTM sequence length).
    pub fn num_controlled(&self) -> usize {
        self.controlled().count()
    }
}

/// Builds a [`TraceRecord`] statement by statement, equal to
/// [`TraceRecord::from_trace`] of the trace the same statements make.
///
/// It keeps the trace type (hashed as the controlled addresses arrive), the
/// controlled entries (and replaced ones when unpruned), the first
/// observation and the statement count — no names, no tags, no copy of an
/// observe distribution, and no densities ([`TraceTarget::SCORED`] is
/// false).
pub struct RecordBuilder {
    pruned: bool,
    trace_type: DefaultHasher,
    entries: Vec<RecordEntry>,
    observation: Option<Value>,
    length: u32,
}

impl RecordBuilder {
    /// An empty record; `pruned` as in [`TraceRecord::from_trace`].
    pub fn new(pruned: bool) -> Self {
        Self {
            pruned,
            trace_type: TraceTypeId::hasher(),
            entries: Vec::new(),
            observation: None,
            length: 0,
        }
    }
}

impl TraceTarget for RecordBuilder {
    type Output = TraceRecord;
    const SCORED: bool = false;

    fn push(&mut self, s: Statement<'_>) {
        self.length += 1;
        let replaced = match s.kind {
            EntryKind::Observe => {
                if self.observation.is_none() {
                    self.observation = Some(s.value.into_owned());
                }
                return;
            }
            EntryKind::Sample => {
                TraceTypeId::hash_address(&s.address, &mut self.trace_type);
                false
            }
            EntryKind::SampleReplaced if self.pruned => return,
            EntryKind::SampleReplaced => true,
        };
        // The qualified form `base__instance`, in the base's own buffer.
        let Address { base: mut address, instance } = s.address;
        let _ = write!(address, "__{instance}");
        self.entries.push(RecordEntry {
            address,
            distribution: s.distribution.into_owned(),
            value: s.value.into_owned(),
            replaced,
        });
    }

    fn tag(&mut self, _name: Cow<'_, str>, _value: Value) {}

    fn finish(self, _result: Value) -> TraceRecord {
        TraceRecord {
            trace_type: self.trace_type.finish(),
            entries: self.entries,
            observation: observation_tensor(self.observation),
            length: self.length,
        }
    }
}

/// A record's observation: the first observed value as a tensor of its
/// numeric components — itself, `[1]` for a scalar, `[0]` for a value with
/// none (unit, string) — or a `[1]` zero when the trace observed nothing.
fn observation_tensor(observed: Option<Value>) -> TensorValue {
    match observed {
        // The executor's copy is usually the last one left: take its voxels
        // instead of copying them.
        Some(Value::Tensor(t)) => Arc::try_unwrap(t).unwrap_or_else(|t| TensorValue::clone(&t)),
        Some(Value::Unit | Value::Str(_)) => TensorValue::zeros(vec![0]),
        Some(v) => TensorValue::new(vec![1], vec![v.as_f64() as f32]),
        None => TensorValue::zeros(vec![1]),
    }
}
