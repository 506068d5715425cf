//! Execution traces: the unit of inference.
//!
//! A single sample from any etalumis inference engine is one full run of the
//! simulator (§4.2), recorded as a [`Trace`]: the ordered sample/observe
//! entries, their distributions and values, and the accumulated log
//! prior/likelihood/proposal masses.

use crate::address::{Address, TraceTypeId};
use etalumis_distributions::{Distribution, Value};

/// The role of an entry within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A latent random draw that inference engines may control.
    Sample,
    /// A latent re-draw inside a rejection-sampling loop (`replace = true`);
    /// always proposed from the prior, never trained on (pyprob semantics).
    SampleReplaced,
    /// A conditioning statement: likelihood of observed data.
    Observe,
}

/// One sample/observe statement executed within a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Unique address of the statement within this trace.
    pub address: Address,
    /// The distribution at this site (prior for samples, likelihood for observes).
    pub distribution: Distribution,
    /// The realized value (sampled, proposed, replayed, or observed).
    pub value: Value,
    /// Log-probability of `value` under `distribution`.
    pub log_prob: f64,
    /// Log-probability of `value` under the proposal that produced it
    /// (equals `log_prob` when the value was drawn from the prior).
    pub log_q: f64,
    /// Statement role.
    pub kind: EntryKind,
    /// Human-readable statement name (no uniqueness guarantee).
    pub name: String,
}

impl TraceEntry {
    /// True for entries that inference engines may control (non-replaced samples).
    pub fn is_controlled(&self) -> bool {
        self.kind == EntryKind::Sample
    }
}

/// A recorded execution of a probabilistic program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// All sample/observe entries in execution order.
    pub entries: Vec<TraceEntry>,
    /// Named deterministic by-products recorded via `tag` (e.g. MET).
    pub tags: Vec<(String, Value)>,
    /// Return value of the program.
    pub result: Value,
    /// Σ log p over all sample entries (controlled + replaced).
    pub log_prior: f64,
    /// Σ log p over all observe entries.
    pub log_likelihood: f64,
    /// Σ log q over all sample entries (proposal mass).
    pub log_q: f64,
}

impl Trace {
    /// A trace from its recorded parts, with the totals summed over the
    /// entries in execution order: `log_prior` and `log_q` over the sample
    /// entries (controlled and replaced), `log_likelihood` over the
    /// observes. The executor records its traces through this, and a
    /// trace shipped by a simulator is rebuilt through it, so the totals
    /// are the same bits on both sides and never disagree with the
    /// entries.
    pub fn from_entries(
        entries: Vec<TraceEntry>,
        tags: Vec<(String, Value)>,
        result: Value,
    ) -> Trace {
        let (mut log_prior, mut log_likelihood, mut log_q) = (0.0, 0.0, 0.0);
        for e in &entries {
            if e.kind == EntryKind::Observe {
                log_likelihood += e.log_prob;
            } else {
                log_prior += e.log_prob;
                log_q += e.log_q;
            }
        }
        Trace { entries, tags, result, log_prior, log_likelihood, log_q }
    }

    /// Joint log-probability log p(x, y) of the trace.
    pub fn log_joint(&self) -> f64 {
        self.log_prior + self.log_likelihood
    }

    /// Importance weight log w = log p(x,y) - log q(x) for IS-family engines.
    /// For prior proposals this reduces to the log-likelihood.
    pub fn log_weight(&self) -> f64 {
        self.log_joint() - self.log_q
    }

    /// The trace type: hash of the controlled-sample address sequence.
    pub fn trace_type(&self) -> TraceTypeId {
        TraceTypeId::from_addresses(
            self.entries.iter().filter(|e| e.is_controlled()).map(|e| &e.address),
        )
    }

    /// Number of controlled latent variables.
    pub fn num_controlled(&self) -> usize {
        self.entries.iter().filter(|e| e.is_controlled()).count()
    }

    /// Length proxy used for load-balance studies: total entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the trace recorded no statements.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over controlled entries.
    pub fn controlled(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(|e| e.is_controlled())
    }

    /// Find the value recorded at the first entry whose name matches.
    pub fn value_by_name(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
            .or_else(|| self.tags.iter().find(|(n, _)| n == name).map(|(_, v)| v))
    }

    /// Find the value recorded at the entry with the given address base
    /// and instance 0 (common case for scalar summaries).
    pub fn value_by_base(&self, base: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|e| e.address.base == base && e.address.instance == 0)
            .map(|e| &e.value)
    }

    /// The first observed value (e.g. the detector image), if any.
    pub fn first_observed(&self) -> Option<&Value> {
        self.entries.iter().find(|e| e.kind == EntryKind::Observe).map(|e| &e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(base: &str, kind: EntryKind, lp: f64, lq: f64) -> TraceEntry {
        TraceEntry {
            address: Address::new(base, 0),
            distribution: Distribution::Normal { mean: 0.0, std: 1.0 },
            value: Value::Real(0.0),
            log_prob: lp,
            log_q: lq,
            kind,
            name: base.to_string(),
        }
    }

    #[test]
    fn weights_compose() {
        let mut t = Trace::default();
        t.entries.push(entry("a", EntryKind::Sample, -1.0, -2.0));
        t.entries.push(entry("b", EntryKind::Observe, -3.0, -3.0));
        t.log_prior = -1.0;
        t.log_likelihood = -3.0;
        t.log_q = -2.0;
        assert_eq!(t.log_joint(), -4.0);
        assert_eq!(t.log_weight(), -2.0);
        assert_eq!(t.num_controlled(), 1);
    }

    #[test]
    fn from_entries_sums_each_total_over_its_entries() {
        let entries = vec![
            entry("a", EntryKind::Sample, -1.0, -2.0),
            entry("r", EntryKind::SampleReplaced, -0.5, -0.25),
            entry("o", EntryKind::Observe, -3.0, -3.0),
        ];
        let t = Trace::from_entries(entries, vec![], Value::Unit);
        assert_eq!(t.log_prior, -1.5);
        assert_eq!(t.log_q, -2.25);
        assert_eq!(t.log_likelihood, -3.0);
        let empty = Trace::from_entries(vec![], vec![], Value::Unit);
        assert_eq!((empty.log_prior, empty.log_likelihood, empty.log_q), (0.0, 0.0, 0.0));
    }

    #[test]
    fn trace_type_ignores_replaced_and_observes() {
        let mut t1 = Trace::default();
        t1.entries.push(entry("a", EntryKind::Sample, 0.0, 0.0));
        t1.entries.push(entry("r", EntryKind::SampleReplaced, 0.0, 0.0));
        t1.entries.push(entry("o", EntryKind::Observe, 0.0, 0.0));
        let mut t2 = Trace::default();
        t2.entries.push(entry("a", EntryKind::Sample, 0.0, 0.0));
        assert_eq!(t1.trace_type(), t2.trace_type());
    }

    #[test]
    fn lookup_by_name_and_tag() {
        let mut t = Trace::default();
        t.entries.push(entry("x", EntryKind::Sample, 0.0, 0.0));
        t.tags.push(("met".into(), Value::Real(1.5)));
        assert!(t.value_by_name("x").is_some());
        assert_eq!(t.value_by_name("met"), Some(&Value::Real(1.5)));
        assert!(t.value_by_name("nope").is_none());
    }
}
