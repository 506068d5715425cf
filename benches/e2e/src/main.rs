//! The repository's benchmark: four workloads — generate, generate over
//! PPX, train, infer — measured end to end and, in a separate traced run,
//! layer by layer. See `README.md` beside this package.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2e calibrate <runs.jsonl> [<second-set.jsonl>]
//! e2e compare <parent.jsonl> <change.jsonl>
//! ```

mod api;
mod driver;
mod json;
mod probes;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use driver::{Report, RunArgs};
use std::path::PathBuf;
use workloads::{gen::Gen, infer::Infer, train::Train};

const USAGE: &str = "usage: e2e --workload <gen_local|gen_ppx|train_tau|infer_tau> --seed <n> \
                     --seconds <s> --trace <0|1> [--out <dir>]\n       \
                     e2e calibrate <runs.jsonl> [<second-set.jsonl>]\n       \
                     e2e compare <parent.jsonl> <change.jsonl> [--benchmark <BENCHMARK.json>]";

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1).map(String::as_str).unwrap_or_else(|| die(&format!("{name} needs a value")))
    })
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    let raw = flag(args, name).unwrap_or_else(|| die(&format!("missing {name}")));
    raw.parse().unwrap_or_else(|_| die(&format!("bad value for {name}: {raw}")))
}

fn run(args: &[String]) -> Report {
    let workload = flag(args, "--workload").unwrap_or_else(|| die("missing --workload"));
    let seconds: f64 = parsed(args, "--seconds");
    if !(seconds > 0.0 && seconds <= 600.0) {
        die("--seconds must be in (0, 600]");
    }
    let run_args = RunArgs {
        seed: parsed(args, "--seed"),
        seconds,
        trace: match flag(args, "--trace") {
            Some("0") | None => false,
            Some("1") => true,
            Some(other) => die(&format!("--trace takes 0 or 1, not {other}")),
        },
        out: PathBuf::from(flag(args, "--out").unwrap_or("benches/e2e/out")),
    };
    match workload {
        "gen_local" => driver::run::<Gen<false>>(&run_args),
        "gen_ppx" => driver::run::<Gen<true>>(&run_args),
        "train_tau" => driver::run::<Train>(&run_args),
        "infer_tau" => driver::run::<Infer>(&run_args),
        other => die(&format!("unknown workload {other}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("calibrate") => report::calibrate(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some(_) => {
            let report = run(&args);
            println!("{}", report.to_json());
            report.correct
        }
        None => die("no arguments"),
    };
    if !ok {
        std::process::exit(1);
    }
}
