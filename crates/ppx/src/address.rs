//! Stack-frame symbol resolution with caching — the dladdr optimization.
//!
//! The paper's C++ front end identifies each random draw by its concatenated
//! stack frames: raw instruction addresses from `backtrace(3)` are converted
//! to symbolic names with `dladdr(3)`, a conversion "quite expensive, which
//! prompted us to add a hash map to cache dladdr results, giving a 5×
//! improvement in the production of address strings" (§4.2).
//!
//! We reproduce that code path with a simulated loaded-symbol table: raw
//! frame addresses resolve through a search plus demangling-style string
//! formatting ([`SymbolResolver::resolve_frame`]), and [`CachedResolver`]
//! adds the per-address hash-map memoization. The `address_cache` entry of
//! the `ratios` probe (`crates/bench/benches/ratios.rs`) measures the
//! cached side against the uncached one.

use std::collections::HashMap;

/// A simulated dynamic-loader symbol table mapping address ranges to symbols.
pub struct SymbolResolver {
    /// Sorted (start_address, mangled_name) pairs.
    symbols: Vec<(u64, String)>,
}

impl SymbolResolver {
    /// Build a synthetic symbol table of `n` symbols spaced `stride` apart,
    /// with C++-style mangled names comparable to Sherpa's.
    pub fn synthetic(n: usize, stride: u64) -> Self {
        let symbols = (0..n)
            .map(|i| {
                (
                    i as u64 * stride,
                    format!("_ZN6SHERPA{}Channel{}GenerateEdRKNS_8Particle{}E", i % 17, i, i % 7),
                )
            })
            .collect();
        Self { symbols }
    }

    /// Number of symbols in the table.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Resolve one raw instruction address to `symbol+offset`, mimicking
    /// `dladdr` + demangling: range search followed by string formatting.
    pub fn resolve_frame(&self, addr: u64) -> String {
        // dladdr walks the link map; we mimic the probe cost with a binary
        // search over ranges...
        let idx = match self.symbols.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let (start, mangled) = &self.symbols[idx];
        // ...and the expensive part: demangling-style string processing done
        // character by character (as real demanglers do).
        let mut demangled = String::with_capacity(mangled.len() + 16);
        let mut chars = mangled.chars().peekable();
        while let Some(c) = chars.next() {
            if c.is_ascii_digit() {
                let mut num = (c as u8 - b'0') as usize;
                while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                    num = num * 10 + d as usize;
                    chars.next();
                }
                demangled.push_str("::");
                let _ = num;
            } else {
                demangled.push(c);
            }
        }
        format!("{demangled}+0x{:x}", addr - start)
    }

    /// Resolve a whole stack (list of frame addresses) into one concatenated
    /// address string — the paper's per-sample-statement identity.
    pub fn resolve_stack_uncached(&self, frames: &[u64]) -> String {
        let mut out = String::new();
        for (i, &f) in frames.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            out.push_str(&self.resolve_frame(f));
        }
        out
    }
}

/// Adds the paper's hash-map cache in front of a [`SymbolResolver`].
pub struct CachedResolver<'a> {
    resolver: &'a SymbolResolver,
    cache: HashMap<u64, String>,
    hits: u64,
    misses: u64,
}

impl<'a> CachedResolver<'a> {
    /// Wrap a resolver with an empty cache.
    pub fn new(resolver: &'a SymbolResolver) -> Self {
        Self { resolver, cache: HashMap::new(), hits: 0, misses: 0 }
    }

    /// Resolve a stack, memoizing per-frame results.
    pub fn resolve_stack(&mut self, frames: &[u64]) -> String {
        let mut out = String::new();
        for (i, &f) in frames.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            if let Some(s) = self.cache.get(&f) {
                self.hits += 1;
                out.push_str(s);
            } else {
                self.misses += 1;
                let s = self.resolver.resolve_frame(f);
                out.push_str(&s);
                self.cache.insert(f, s);
            }
        }
        out
    }

    /// (cache hits, cache misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_equals_uncached() {
        let table = SymbolResolver::synthetic(500, 64);
        let mut cached = CachedResolver::new(&table);
        let stacks: Vec<Vec<u64>> =
            (0..50).map(|i| vec![i * 64, (i % 7) * 640 + 3, 12345]).collect();
        for s in &stacks {
            assert_eq!(cached.resolve_stack(s), table.resolve_stack_uncached(s));
        }
        let (hits, misses) = cached.stats();
        assert!(hits > 0, "repeated frames should hit the cache");
        assert!(misses <= 150);
    }

    #[test]
    fn resolution_is_deterministic_and_offsets_work() {
        let table = SymbolResolver::synthetic(10, 100);
        let a = table.resolve_frame(250);
        let b = table.resolve_frame(250);
        assert_eq!(a, b);
        assert!(a.ends_with("+0x32"), "offset 250-200=0x32: {a}");
    }
}
