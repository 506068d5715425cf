//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around its calls into the repository's
//! public functions (spans inside the crates are a later change). A span
//! carries its name, start, end, the span that caused it and the id of the
//! timed repeat it belongs to; everything stays in memory until the run
//! ends, when [`Recorder::write_json`] dumps it.

use crate::json::escape;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Timed repeat this span belongs to (0 = outside the timed loop).
    pub repeat: u32,
}

/// Per-name aggregate over recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Handle returned by [`Recorder::begin`]; hand it back to [`Recorder::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. Disabled, `begin`/`end` do nothing, so the untraced path
/// runs the same harness code without the bookkeeping.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    repeat: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), repeat: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (the traced run alternates traced and
    /// untraced repeats to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag subsequently opened spans with a repeat id.
    pub fn set_repeat(&mut self, repeat: u32) {
        self.repeat = repeat;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            repeat: self.repeat,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost-first");
        }
    }

    /// Run `f` inside a span and return its result with the wall seconds it
    /// took (measured whether or not recording is on).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(open);
        (out, secs)
    }

    /// Test helper: a child of the innermost open span at given timestamps.
    #[cfg(test)]
    pub fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            repeat: self.repeat,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover. Children are clipped to the parent
    /// and overlapping children are counted once (their union), so spans
    /// recorded from concurrent work cannot drive a self time negative.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (ps, pe) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Total seconds recorded under `name` (0 when it never ran).
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Dump every span, then the per-name totals, as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[",
            escape(workload)
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{self_ns},\"parent\":{parent},\"repeat\":{}}}",
                if i == 0 { "" } else { "," },
                escape(s.name),
                s.start_ns,
                s.end_ns,
                s.repeat
            )?;
        }
        write!(w, "\n],\"totals\":{{")?;
        for (i, (name, t)) in self.totals().iter().enumerate() {
            write!(
                w,
                "{}\n\"{}\":{{\"count\":{},\"total\":{},\"self\":{}}}",
                if i == 0 { "" } else { "," },
                escape(name),
                t.count,
                t.total_ns,
                t.self_ns
            )?;
        }
        writeln!(w, "\n}}}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut r = Recorder::new(true);
        let root = r.begin("root");
        r.spans[0].start_ns = 0;
        // Two children overlapping on [30, 50], one disjoint, one sticking
        // out past the parent's end (clipped to it).
        r.push_raw("a", 10, 50);
        r.push_raw("b", 30, 70);
        r.push_raw("c", 80, 90);
        r.push_raw("d", 95, 140);
        r.end(root);
        r.spans[0].end_ns = 100;
        let selfs = r.self_times();
        // Covered: [10,70] ∪ [80,90] ∪ [95,100] = 60 + 10 + 5.
        assert_eq!(selfs[0], 100 - 75);
        assert_eq!(&selfs[1..], &[40, 40, 10, 45]);
        let totals = r.totals();
        assert_eq!(totals["root"], NameTotal { count: 1, total_ns: 100, self_ns: 25 });
    }

    #[test]
    fn nesting_and_repeat_ids_follow_begin_end_order() {
        let mut r = Recorder::new(true);
        r.set_repeat(3);
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        r.end(inner);
        r.end(outer);
        let after = r.begin("after");
        r.end(after);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[2].parent, None);
        assert!(r.spans().iter().all(|s| s.repeat == 3));
        let selfs = r.self_times();
        assert_eq!(selfs[0], (r.spans()[0].end_ns - r.spans()[0].start_ns) - selfs[1]);
    }

    #[test]
    fn a_disabled_recorder_records_nothing_but_still_times() {
        let mut r = Recorder::new(false);
        let (v, secs) = r.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(r.spans().is_empty());
        assert_eq!(r.total_secs("x"), 0.0);
    }
}
