//! Addresses: unique labels identifying every random-number draw.
//!
//! In the paper (§1, §4.1) each sample statement is identified by an address
//! `A_t` built from the concatenated stack frames of the random-number call
//! site plus the distribution type; an *instance* counter disambiguates
//! multiple draws reaching the same call site within one trace. The sequence
//! of addresses of one execution defines its *trace type* (§4.4.1), which
//! drives sub-minibatching, dataset sorting, and dynamic NN assembly.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A fully qualified address of one random draw within a trace.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address {
    /// Call-site identity: scope stack + statement name + distribution kind,
    /// e.g. `"tau_decay/fsp_loop/energy_fraction[Uniform]"`.
    pub base: String,
    /// Per-trace occurrence counter for this base (0-based).
    pub instance: u32,
}

impl Address {
    /// Construct an address from its base and instance counter.
    pub fn new(base: impl Into<String>, instance: u32) -> Self {
        Self { base: base.into(), instance }
    }

    /// The canonical single-string form `base__instance` used on the wire
    /// and in dataset dictionaries.
    pub fn qualified(&self) -> String {
        self.to_string()
    }

    /// Parse the canonical form produced by [`Address::qualified`].
    pub fn parse(s: &str) -> Self {
        match s.rsplit_once("__") {
            Some((base, inst)) => match inst.parse::<u32>() {
                Ok(i) => Address::new(base, i),
                Err(_) => Address::new(s, 0),
            },
            None => Address::new(s, 0),
        }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}__{}", self.base, self.instance)
    }
}

/// Builds addresses on the simulator side of the protocol: maintains a scope
/// stack (the "stack frames") and per-base instance counters for one trace.
#[derive(Default, Debug)]
pub struct AddressBuilder {
    /// The scope stack joined as `a/b/`, kept current by push/pop so a
    /// statement's base is one append, not a join per call.
    prefix: String,
    /// `prefix` lengths to restore on each pop, innermost last.
    marks: Vec<usize>,
    counts: std::collections::HashMap<String, u32>,
}

impl AddressBuilder {
    /// Fresh builder for a new trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enter a named scope (analogous to pushing a stack frame).
    pub fn push_scope(&mut self, scope: &str) {
        self.marks.push(self.prefix.len());
        self.prefix.push_str(scope);
        self.prefix.push('/');
    }

    /// Leave the innermost scope.
    pub fn pop_scope(&mut self) {
        if let Some(mark) = self.marks.pop() {
            self.prefix.truncate(mark);
        }
    }

    /// Current scope path joined with `/` (empty string at top level).
    pub fn scope_path(&self) -> String {
        self.prefix.strip_suffix('/').unwrap_or_default().to_string()
    }

    /// Build the next address for `name` with distribution kind `dist_kind`.
    ///
    /// When `replace` is true the instance counter is *not* advanced: every
    /// iteration of a rejection-sampling loop re-draws "the same" random
    /// variable (pyprob's `replace=True`), keeping the address space bounded.
    pub fn next(&mut self, name: &str, dist_kind: &str, replace: bool) -> Address {
        let mut base = String::with_capacity(self.prefix.len() + name.len() + dist_kind.len() + 2);
        base.push_str(&self.prefix);
        base.push_str(name);
        base.push('[');
        base.push_str(dist_kind);
        base.push(']');
        if replace {
            let instance = self.counts.get(&base).copied().unwrap_or(0);
            Address::new(base, instance)
        } else {
            let instance = self.count(&base);
            Address::new(base, instance)
        }
    }

    /// Advance the instance counter for an externally supplied base (used by
    /// the PPX bridge, where the remote simulator already built the base).
    pub fn next_with_base(&mut self, base: &str) -> Address {
        let instance = self.count(base);
        Address::new(base, instance)
    }

    /// The instance of `base` this statement takes, advancing its counter;
    /// the key is copied only the first time a base is seen.
    fn count(&mut self, base: &str) -> u32 {
        match self.counts.get_mut(base) {
            Some(c) => {
                *c += 1;
                *c - 1
            }
            None => {
                self.counts.insert(base.to_string(), 1);
                0
            }
        }
    }

    /// Reset all counters and scopes for a new trace.
    pub fn reset(&mut self) {
        self.prefix.clear();
        self.marks.clear();
        self.counts.clear();
    }
}

/// Identifier of a trace *type*: a hash of the sequence of controlled-sample
/// addresses. Traces with equal `TraceTypeId` share NN structure and can be
/// batched into one forward pass (Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceTypeId(pub u64);

impl TraceTypeId {
    /// Hash a sequence of qualified addresses into a trace-type id.
    pub fn from_addresses<'a>(addrs: impl Iterator<Item = &'a Address>) -> Self {
        let mut h = Self::hasher();
        for a in addrs {
            Self::hash_address(a, &mut h);
        }
        TraceTypeId(h.finish())
    }

    /// The hasher a trace-type id starts from; feed it the controlled
    /// addresses in order with [`TraceTypeId::hash_address`], then `finish`.
    pub(crate) fn hasher() -> DefaultHasher {
        DefaultHasher::new()
    }

    /// Fold the next controlled address into a trace-type hash.
    pub(crate) fn hash_address(a: &Address, h: &mut DefaultHasher) {
        a.base.hash(h);
        a.instance.hash(h);
    }
}

impl fmt::Display for TraceTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_increments_instances() {
        let mut b = AddressBuilder::new();
        let a0 = b.next("x", "Normal", false);
        let a1 = b.next("x", "Normal", false);
        assert_eq!(a0.base, a1.base);
        assert_eq!(a0.instance, 0);
        assert_eq!(a1.instance, 1);
    }

    #[test]
    fn replace_does_not_increment() {
        let mut b = AddressBuilder::new();
        let a0 = b.next("u", "Uniform", true);
        let a1 = b.next("u", "Uniform", true);
        assert_eq!(a0, a1);
        // A non-replace draw afterwards starts at the same counter.
        let a2 = b.next("u", "Uniform", false);
        assert_eq!(a2.instance, 0);
        let a3 = b.next("u", "Uniform", true);
        assert_eq!(a3.instance, 1);
    }

    #[test]
    fn scopes_compose() {
        let mut b = AddressBuilder::new();
        b.push_scope("decay");
        b.push_scope("fsp0");
        let a = b.next("energy", "Uniform", false);
        assert_eq!(a.base, "decay/fsp0/energy[Uniform]");
        b.pop_scope();
        let a2 = b.next("energy", "Uniform", false);
        assert_eq!(a2.base, "decay/energy[Uniform]");
    }

    #[test]
    fn qualified_roundtrip() {
        let a = Address::new("m/x[Normal]", 3);
        assert_eq!(Address::parse(&a.qualified()), a);
        // No instance suffix parses as instance 0.
        assert_eq!(Address::parse("plain"), Address::new("plain", 0));
    }

    #[test]
    fn trace_type_sensitive_to_sequence() {
        let a = Address::new("x[Normal]", 0);
        let b = Address::new("y[Normal]", 0);
        let t1 = TraceTypeId::from_addresses([&a, &b].into_iter());
        let t2 = TraceTypeId::from_addresses([&b, &a].into_iter());
        let t3 = TraceTypeId::from_addresses([&a, &b].into_iter());
        assert_ne!(t1, t2);
        assert_eq!(t1, t3);
    }
}
