//! Leveled, machine-parseable progress logging for binaries and examples.
//!
//! Human-readable lines go to **stderr** (progress must not corrupt data
//! written to stdout); with `--json` each event is additionally emitted as
//! one JSON object per line on **stdout**, so harnesses can consume the
//! run programmatically (`cargo run ... -- --json | jq .`).

use crate::json::{json_f64, JsonObject};
use std::time::Instant;

/// A log event's level: `Debug` lines show only under `--log-debug`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Debug,
    Info,
}

impl Level {
    fn tag(self) -> &'static str {
        match self {
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
        }
    }
}

/// One typed field of a log event.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    U64(u64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
}

impl Field<'_> {
    fn human(&self) -> String {
        match self {
            Field::U64(v) => v.to_string(),
            Field::F64(v) => format!("{v:.4}"),
            Field::Str(s) => s.to_string(),
            Field::Bool(b) => b.to_string(),
        }
    }

    fn json(&self) -> String {
        match self {
            Field::U64(v) => v.to_string(),
            Field::F64(v) => json_f64(*v),
            Field::Str(s) => format!("\"{}\"", crate::escape_json(s)),
            Field::Bool(b) => b.to_string(),
        }
    }
}

/// The leveled logger. Construct once per binary ([`Logger::from_args`]
/// reads `--json` from the process arguments) and pass by reference.
pub struct Logger {
    json: bool,
    min: Level,
    start: Instant,
}

impl Logger {
    pub fn new(json: bool) -> Self {
        Logger { json, min: Level::Info, start: Instant::now() }
    }

    /// `--json` enables the JSONL stream; `--log-debug` lowers the level.
    pub fn from_args() -> Self {
        let mut log = Logger::new(std::env::args().any(|a| a == "--json"));
        if std::env::args().any(|a| a == "--log-debug") {
            log.min = Level::Debug;
        }
        log
    }

    fn log(&self, level: Level, event: &str, fields: &[(&str, Field)]) {
        if level < self.min {
            return;
        }
        let t = self.start.elapsed().as_secs_f64();
        let mut line = format!("[{t:>9.3}s] {:<5} {event}", level.tag());
        for (k, v) in fields {
            line.push_str(&format!(" {k}={}", v.human()));
        }
        eprintln!("{line}"); // etalumis: allow(logging, reason = "the Logger console sink itself")
        if self.json {
            let mut obj =
                JsonObject::new().f64("t_s", t).string("level", level.tag()).string("event", event);
            for (k, v) in fields {
                obj = obj.raw(k, &v.json());
            }
            println!("{}", obj.done()); // etalumis: allow(logging, reason = "the Logger JSON sink itself")
        }
    }

    pub fn debug(&self, event: &str, fields: &[(&str, Field)]) {
        self.log(Level::Debug, event, fields);
    }

    pub fn info(&self, event: &str, fields: &[(&str, Field)]) {
        self.log(Level::Info, event, fields);
    }

    /// Section marker — the structured replacement for the old
    /// `================ title ================` rule.
    pub fn section(&self, title: &str) {
        self.info("section", &[("title", Field::Str(title))]);
    }

    /// Baseline-vs-optimized comparison line — the structured replacement
    /// for the old free-form `speedup_line`.
    pub fn speedup(&self, what: &str, baseline_s: f64, optimized_s: f64, paper: &str) {
        self.info(
            "speedup",
            &[
                ("what", Field::Str(what)),
                ("baseline_s", Field::F64(baseline_s)),
                ("optimized_s", Field::F64(optimized_s)),
                ("speedup", Field::F64(baseline_s / optimized_s)),
                ("paper", Field::Str(paper)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_filtering() {
        assert!(Level::Debug < Level::Info);
    }

    #[test]
    fn field_json_forms() {
        assert_eq!(Field::U64(3).json(), "3");
        assert_eq!(Field::Str("a\"b").json(), "\"a\\\"b\"");
        assert_eq!(Field::Bool(true).json(), "true");
        assert_eq!(Field::F64(f64::NAN).json(), "null");
    }

    #[test]
    fn logger_smoke_does_not_panic() {
        let log = Logger::new(false);
        log.debug("suppressed", &[]);
        log.info("shown", &[("n", Field::U64(1))]);
        log.section("title");
        log.speedup("thing", 2.0, 1.0, "2x");
    }
}
