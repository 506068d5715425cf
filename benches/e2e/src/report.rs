//! `calibrate` and `compare`: read sets of result lines and judge them.
//!
//! A set is a `.jsonl` file as `run.sh all` writes it, one line per run:
//! `{"workload": "...", "seed": n, "trace": 0|1, "result": <result line>}`.

use crate::json::{self, Json};
use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;

/// metric → value of one run.
type Values = BTreeMap<String, f64>;

struct RunSet {
    /// (workload, traced) → (seed, values) per run, in file order.
    runs: BTreeMap<(String, bool), Vec<(u64, Values)>>,
    /// Runs that reported `correct: false` or failed operations.
    bad: usize,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet { runs: BTreeMap::new(), bad: 0 };
    for (ln, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", ln + 1))?;
        let field = |k: &str| doc.get(k).ok_or(format!("{path}:{}: no \"{k}\"", ln + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let traced = field("trace")?.as_f64() == Some(1.0);
        let result = field("result")?;
        if result.get("correct") != Some(&Json::Bool(true))
            || result.get("failed").and_then(Json::as_f64) != Some(0.0)
        {
            set.bad += 1;
        }
        let values = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}:{}: no metrics", ln + 1))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        set.runs.entry((workload, traced)).or_default().push((seed, values));
    }
    Ok(set)
}

impl RunSet {
    fn values(&self, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
        self.runs
            .get(&(workload.to_string(), traced))
            .map(|runs| runs.iter().filter_map(|(_, v)| v.get(metric).copied()).collect())
            .unwrap_or_default()
    }
}

/// `bound` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect())
}

/// How much worse `new` is than `old` as a share of `old` (negative: better).
fn worsening(m: &MetricSpec, old: f64, new: f64) -> f64 {
    match m.better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

fn positional(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            out.push(args[i].as_str());
            i += 1;
        }
    }
    out
}

/// Exact metrics that differ between runs of one (workload, seed).
fn exact_mismatches(sets: &[&RunSet]) -> Vec<String> {
    let mut seen: BTreeMap<(String, u64, &str), f64> = BTreeMap::new();
    let mut out = Vec::new();
    for set in sets {
        for ((workload, traced), runs) in &set.runs {
            for (seed, values) in runs.iter().filter(|_| *traced) {
                for m in PER_LAYER.iter().filter(|m| m.exact) {
                    let Some(&v) = values.get(m.name) else { continue };
                    let first = *seen.entry((workload.clone(), *seed, m.name)).or_insert(v);
                    if first.to_bits() != v.to_bits() {
                        out.push(format!("{workload} seed {seed}: {} = {first} and {v}", m.name));
                    }
                }
            }
        }
    }
    out
}

/// Spread table of one set of runs, or agreement table of two.
pub fn calibrate(args: &[String]) -> bool {
    let files = positional(args);
    let sets: Vec<RunSet> = match files.iter().map(|f| load(f)).collect() {
        Ok(sets) if (1..=2).contains(&files.len()) => sets,
        Ok(_) => {
            eprintln!("calibrate takes one or two .jsonl files");
            return false;
        }
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let bounds =
        bounds(crate::flag(args, "--benchmark").unwrap_or("BENCHMARK.json")).unwrap_or_default();
    let mut ok = true;
    println!("| workload | metric | unit | n | median | q1 | q3 | IQR/median | (max-min)/median | bound |{}", if sets.len() == 2 { " second median | worse by |" } else { "" });
    println!(
        "|---|---|---|---|---|---|---|---|---|---|{}",
        if sets.len() == 2 { "---|---|" } else { "" }
    );
    for (w, _) in WORKLOADS {
        for m in &END_TO_END {
            let v = sets[0].values(w, false, m.name);
            if v.len() < 2 {
                continue;
            }
            let (q1, q3) = quartiles(&v);
            let med = median(&v);
            let range = v.iter().cloned().fold(f64::MIN, f64::max)
                - v.iter().cloned().fold(f64::MAX, f64::min);
            let bound = bounds.get(m.name).copied();
            let mut row = format!(
                "| {w} | {} | {} | {} | {med:.6} | {q1:.6} | {q3:.6} | {:.4} | {:.4} | {} |",
                m.name,
                m.unit,
                v.len(),
                iqr_share(&v),
                range / med.abs(),
                bound.map_or("-".to_string(), |b| format!("{b}")),
            );
            // The acceptance rule: every spread but set-up's within the
            // bound, and the second set's median no worse than the first's
            // by more than the bound.
            if let Some(b) = bound {
                if m.name != "setup_s" && iqr_share(&v) > b {
                    row.push_str(" SPREAD>BOUND");
                    ok = false;
                }
            }
            if let Some(second) = sets.get(1) {
                let v2 = second.values(w, false, m.name);
                if !v2.is_empty() {
                    let worse = worsening(m, med, median(&v2));
                    row.push_str(&format!(" {:.6} | {:+.4} |", median(&v2), worse));
                    if bound.is_some_and(|b| worse > b) {
                        row.push_str(" WORSE>BOUND");
                        ok = false;
                    }
                }
            }
            println!("{row}");
        }
    }
    let all: Vec<&RunSet> = sets.iter().collect();
    let mismatches = exact_mismatches(&all);
    println!("\nexact counts compared per (workload, seed): {} mismatches", mismatches.len());
    for m in &mismatches {
        println!("- {m}");
    }
    let bad: usize = sets.iter().map(|s| s.bad).sum();
    println!("runs with a failed check or failed operations: {bad}");
    ok && mismatches.is_empty() && bad == 0
}

/// Per (metric, workload): is the change better, worse, the same, or can
/// the runs not tell? Returns false when anything is worse.
pub fn compare(args: &[String]) -> bool {
    let files = positional(args);
    let (parent, change) = match files.as_slice() {
        [a, b] => match (load(a), load(b)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return false;
            }
        },
        _ => {
            eprintln!("compare takes <parent.jsonl> <change.jsonl>");
            return false;
        }
    };
    let bounds = match bounds(crate::flag(args, "--benchmark").unwrap_or("BENCHMARK.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let mut any_worse = false;
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "parent", "change", "worse by", "spread", "bound"
    );
    for (w, _) in WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (parent.values(w, false, m.name), change.values(w, false, m.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let worse = worsening(m, ma, mb);
            let bound = bounds.get(m.name).copied().unwrap_or(0.0);
            // The spread that decides: the wider of the two sides' own.
            let spread = [&a, &b]
                .iter()
                .filter(|v| v.len() >= 2)
                .map(|v| iqr_share(v))
                .fold(f64::NAN, f64::max);
            let verdict = if spread.is_nan() || spread > bound {
                "unresolved"
            } else if worse > bound {
                any_worse = true;
                "WORSE"
            } else if -worse > spread {
                "better"
            } else {
                "same"
            };
            println!(
                "{w:<12} {:<22} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>7.2}% {:>7.2}%  {verdict}",
                m.name,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!("\nper-layer medians (traced runs; no bound, for attribution):");
    for (w, _) in WORKLOADS {
        for m in &PER_LAYER {
            let (a, b) = (parent.values(w, true, m.name), change.values(w, true, m.name));
            if a.is_empty() || b.is_empty() || (median(&a) == 0.0 && median(&b) == 0.0) {
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let note =
                if m.exact && ma.to_bits() != mb.to_bits() { "  EXACT COUNT CHANGED" } else { "" };
            println!(
                "{w:<12} {:<36} {ma:>16.4} {mb:>16.4} {:>+8.2}% {}{note}",
                m.name,
                (mb - ma) / ma.abs() * 100.0,
                m.unit
            );
        }
    }
    let mismatches = exact_mismatches(&[&parent, &change]);
    for m in &mismatches {
        println!("exact count differs: {m}");
    }
    !any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        let lower = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let higher = END_TO_END.iter().find(|m| m.name == "traces_per_s").unwrap();
        assert_eq!(worsening(lower, 2.0, 2.5), 0.25);
        assert_eq!(worsening(lower, 2.0, 1.5), -0.25);
        assert_eq!(worsening(higher, 100.0, 90.0), 0.1);
        assert_eq!(worsening(higher, 100.0, 120.0), -0.2);
    }

    #[test]
    fn positional_arguments_skip_options_and_their_values() {
        let args: Vec<String> =
            ["a.jsonl", "--benchmark", "B.json", "b.jsonl"].iter().map(|s| s.to_string()).collect();
        assert_eq!(positional(&args), ["a.jsonl", "b.jsonl"]);
        assert_eq!(crate::flag(&args, "--benchmark"), Some("B.json"));
    }
}
