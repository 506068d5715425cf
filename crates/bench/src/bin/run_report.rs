//! Render a telemetry JSONL event log as a human-readable run report.
//!
//! Reads the `events.jsonl` written by
//! [`Collector::write_jsonl`](etalumis_telemetry::Collector::write_jsonl)
//! and prints (a) a per-worker timeline — each worker's busy fraction over
//! the run binned into a fixed-width ASCII strip, with its span/steal
//! counts — and (b) a phase breakdown: every span name's count, total,
//! percentiles and share of wall time, plus counter sums and gauge ranges.
//!
//! ```text
//! cargo run -p etalumis-bench --bin run_report -- events.jsonl
//! ```

use std::collections::BTreeMap;

const TIMELINE_COLS: usize = 64;

/// One parsed JSONL event line (the flat shape `event_json` emits).
struct Line {
    kind: String,
    name: String,
    /// `u32::MAX` = unattributed (`"worker":null`).
    worker: u32,
    start_us: u64,
    dur_us: u64,
    parent: u64,
    delta: u64,
    value: f64,
}

/// Parse one flat JSON object of string / number / null values. Returns
/// key → raw token (strings unescaped, `\uXXXX` included). Tolerates any
/// key order.
fn parse_flat(line: &str) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    if chars.next()?.1 != '{' {
        return None;
    }
    loop {
        // Skip separators until a key, or finish on '}'.
        let (mut i, mut c) = chars.next()?;
        while c == ',' || c.is_whitespace() {
            (i, c) = chars.next()?;
        }
        if c == '}' {
            return Some(out);
        }
        if c != '"' {
            return None;
        }
        let key_start = i + 1;
        let mut key_end = key_start;
        for (j, c) in chars.by_ref() {
            if c == '"' {
                key_end = j;
                break;
            }
        }
        let key = &s[key_start..key_end];
        let (_, colon) = chars.next()?;
        if colon != ':' {
            return None;
        }
        // Value: quoted string (with escapes) or bare token.
        let (vi, vc) = chars.next()?;
        let value = if vc == '"' {
            let mut v = String::new();
            let mut escaped = false;
            loop {
                let (_, c) = chars.next()?;
                if escaped {
                    v.push(match c {
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let mut code = 0;
                            for _ in 0..4 {
                                code = code * 16 + chars.next()?.1.to_digit(16)?;
                            }
                            char::from_u32(code)?
                        }
                        c => c,
                    });
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    break;
                } else {
                    v.push(c);
                }
            }
            v
        } else {
            let mut end = vi + vc.len_utf8();
            while let Some(&(j, c)) = chars.peek() {
                if c == ',' || c == '}' {
                    break;
                }
                end = j + c.len_utf8();
                chars.next();
            }
            s[vi..end].trim().to_string()
        };
        out.insert(key.to_string(), value);
    }
}

fn parse_line(text: &str) -> Option<Line> {
    let map = parse_flat(text)?;
    let num = |k: &str| map.get(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    Some(Line {
        kind: map.get("kind")?.clone(),
        name: map.get("name")?.clone(),
        worker: match map.get("worker").map(String::as_str) {
            Some("null") | None => u32::MAX,
            Some(w) => w.parse().ok()?,
        },
        start_us: num("start_us"),
        dur_us: num("dur_us"),
        parent: num("parent"),
        delta: num("delta"),
        value: map.get("value").and_then(|v| v.parse().ok()).unwrap_or(0.0),
    })
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn worker_label(w: u32) -> String {
    if w == u32::MAX {
        "--".to_string()
    } else {
        format!("w{w}")
    }
}

struct WorkerRow {
    /// Busy microseconds per timeline bin, from root spans only (children
    /// overlap their parents and would double-count).
    bins: Vec<u64>,
    spans: u64,
    busy_us: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: run_report <events.jsonl>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("run_report: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(l) => events.push(l),
            None => skipped += 1,
        }
    }
    if events.is_empty() {
        eprintln!("run_report: no parseable events in {path}");
        std::process::exit(1);
    }
    let wall_us = events
        .iter()
        .filter(|e| e.kind == "span")
        .map(|e| e.start_us + e.dur_us)
        .max()
        .unwrap_or(1)
        .max(1);

    println!("run report: {path}");
    println!(
        "  {} events ({} spans, {} counters, {} gauges{}), wall {}",
        events.len(),
        events.iter().filter(|e| e.kind == "span").count(),
        events.iter().filter(|e| e.kind == "counter").count(),
        events.iter().filter(|e| e.kind == "gauge").count(),
        if skipped > 0 { format!(", {skipped} unparseable lines skipped") } else { String::new() },
        fmt_us(wall_us)
    );
    // Kernel backend header: last kernel.* gauges + total dispatch counts.
    let last_gauge = |name: &str| {
        events.iter().rev().find(|e| e.kind == "gauge" && e.name == name).map(|e| e.value)
    };
    let counter_sum = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == "counter" && e.name == name)
            .map(|e| e.delta)
            .sum::<u64>()
    };
    if let Some(avx2) = last_gauge("kernel.backend_avx2") {
        let threads = last_gauge("kernel.pool_threads").unwrap_or(1.0);
        let backend = if last_gauge("kernel.backend_avx512").is_some_and(|v| v > 0.5) {
            "avx512"
        } else if avx2 > 0.5 {
            "avx2_fma"
        } else {
            "scalar"
        };
        println!(
            "  kernel backend {backend} | pool threads {} | dispatches avx512 {} / avx2 {} / scalar {} \
             | pool jobs {} / inline {} / parks {}",
            threads as u64,
            counter_sum("kernel.dispatch_avx512"),
            counter_sum("kernel.dispatch_avx2"),
            counter_sum("kernel.dispatch_scalar"),
            counter_sum("kernel.pool_jobs"),
            counter_sum("kernel.pool_inline"),
            counter_sum("kernel.pool_parks"),
        );
    }

    // --- per-worker timeline ---
    let mut workers: BTreeMap<u32, WorkerRow> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "span") {
        let row = workers.entry(e.worker).or_insert_with(|| WorkerRow {
            bins: vec![0; TIMELINE_COLS],
            spans: 0,
            busy_us: 0,
        });
        row.spans += 1;
        if e.parent != 0 {
            continue;
        }
        row.busy_us += e.dur_us;
        // Spread the span's duration across the bins it overlaps.
        let (s, t) = (e.start_us, e.start_us + e.dur_us.max(1));
        let bin_w = wall_us.div_ceil(TIMELINE_COLS as u64).max(1);
        for b in (s / bin_w)..=((t - 1) / bin_w).min(TIMELINE_COLS as u64 - 1) {
            let lo = (b * bin_w).max(s);
            let hi = ((b + 1) * bin_w).min(t);
            workers.get_mut(&e.worker).unwrap().bins[b as usize] += hi - lo;
        }
    }
    println!(
        "\nper-worker timeline ({TIMELINE_COLS} bins, root spans; . <25% : <50% + <75% # busy)"
    );
    let bin_w = wall_us.div_ceil(TIMELINE_COLS as u64).max(1);
    for (w, row) in &workers {
        let strip: String = row
            .bins
            .iter()
            .map(|&busy| {
                let frac = busy as f64 / bin_w as f64;
                if frac <= 0.01 {
                    ' '
                } else if frac < 0.25 {
                    '.'
                } else if frac < 0.5 {
                    ':'
                } else if frac < 0.75 {
                    '+'
                } else {
                    '#'
                }
            })
            .collect();
        println!(
            "  {:>4} |{strip}| {} spans, busy {} ({:.0}%)",
            worker_label(*w),
            row.spans,
            fmt_us(row.busy_us),
            row.busy_us as f64 / wall_us as f64 * 100.0
        );
    }

    // --- phase breakdown ---
    let mut durs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "span") {
        durs.entry(&e.name).or_default().push(e.dur_us);
    }
    println!("\nphase breakdown (per span name)");
    println!(
        "  {:<24} {:>8} {:>10} {:>9} {:>9} {:>9} {:>6}",
        "span", "count", "total", "p50", "p90", "max", "wall%"
    );
    for (name, d) in &mut durs {
        d.sort_unstable();
        let total: u64 = d.iter().sum();
        println!(
            "  {:<24} {:>8} {:>10} {:>9} {:>9} {:>9} {:>5.1}%",
            name,
            d.len(),
            fmt_us(total),
            fmt_us(percentile(d, 0.5)),
            fmt_us(percentile(d, 0.9)),
            fmt_us(*d.last().unwrap()),
            total as f64 / wall_us as f64 * 100.0
        );
    }

    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "counter") {
        *counters.entry(&e.name).or_insert(0) += e.delta;
    }
    if !counters.is_empty() {
        println!("\ncounters");
        for (name, v) in &counters {
            println!("  {name:<24} {v:>12}");
        }
    }

    let mut gauges: BTreeMap<&str, (u64, f64, f64, f64)> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "gauge") {
        let g = gauges.entry(&e.name).or_insert((0, e.value, e.value, e.value));
        g.0 += 1;
        g.1 = e.value; // last
        g.2 = g.2.min(e.value);
        g.3 = g.3.max(e.value);
    }
    if !gauges.is_empty() {
        println!("\ngauges");
        println!("  {:<24} {:>8} {:>10} {:>10} {:>10}", "gauge", "samples", "last", "min", "max");
        for (name, (n, last, min, max)) in &gauges {
            println!("  {name:<24} {n:>8} {last:>10.2} {min:>10.2} {max:>10.2}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_telemetry::{Collector, Event, EventKind, NO_WORKER};

    /// Names with a quote, a backslash and control characters survive the
    /// write → parse round trip: `escape_json` writes the control characters
    /// as `\uXXXX` escapes, which the parser decodes.
    #[test]
    fn parses_escaped_names_from_a_collector_log() {
        let names = ["say \"hi\"", "dir\\file", "bell\u{7}and\u{1f}unit", "tab\tline\nend"];
        let events = names
            .iter()
            .enumerate()
            .map(|(i, &name)| Event {
                name,
                worker: if i % 2 == 0 { NO_WORKER } else { i as u32 },
                seq: i as u64,
                kind: match i % 3 {
                    0 => EventKind::Span { span_id: 1, parent: 0, start_us: 5, dur_us: 7 },
                    1 => EventKind::Counter { delta: 3 },
                    _ => EventKind::Gauge { value: 0.5 },
                },
            })
            .collect();
        let path =
            std::env::temp_dir().join(format!("run_report_escapes_{}.jsonl", std::process::id()));
        Collector::new(events).write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let parsed: Vec<String> = text
            .lines()
            .map(|l| parse_line(l).unwrap_or_else(|| panic!("unparseable: {l}")).name)
            .collect();
        assert_eq!(parsed, names);
    }
}
