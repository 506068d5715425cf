//! The paper's experiments, one driver: Figures 2, 4, 5, 7 and 8, and
//! Table 2 with Figure 6 (`train_scaling`), each regenerated at laptop
//! scale with the paper's numbers quoted beside this repo's.
//!
//! Run: `cargo run -p etalumis-bench --release --bin reproduce --
//! <experiment>… | all [--json] [--log-debug]`. Experiments run in the
//! order named, each announced by an `experiment` event. `--json` adds one
//! JSON object per event on stdout; `--log-debug` adds fig8's per-bin
//! histogram lines. An unknown experiment or flag prints the usage line
//! and exits with status 2.

mod fig2_hyperparams;
mod fig4_load_balance;
mod fig5_stability;
mod fig7_train_valid;
mod fig8_posteriors;
mod train_scaling;

use etalumis_bench::{Field, Logger};
use std::error::Error;
use std::process::ExitCode;

/// An experiment's outcome: its events went to the logger.
type Outcome = Result<(), Box<dyn Error>>;

/// An experiment's name and its entry point.
type Experiment = (&'static str, fn(&Logger) -> Outcome);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 6] = [
    ("fig2_hyperparams", fig2_hyperparams::run),
    ("fig4_load_balance", fig4_load_balance::run),
    ("fig5_stability", fig5_stability::run),
    ("fig7_train_valid", fig7_train_valid::run),
    ("fig8_posteriors", fig8_posteriors::run),
    ("train_scaling", train_scaling::run),
];

/// The experiments `args` name, in order, or `None` if an argument is
/// neither an experiment, `all`, `--json` nor `--log-debug`, or if no
/// experiment is named.
fn select(args: &[String]) -> Option<Vec<Experiment>> {
    let mut chosen = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" | "--log-debug" => {}
            "all" => chosen.extend(EXPERIMENTS),
            name => chosen.push(*EXPERIMENTS.iter().find(|(n, _)| *n == name)?),
        }
    }
    (!chosen.is_empty()).then_some(chosen)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(chosen) = select(&args) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "usage: reproduce <experiment>... | all [--json] [--log-debug]\n\
             experiments: {} all",
            names.join(" ")
        );
        return ExitCode::from(2);
    };
    let log = Logger::from_args();
    for (name, run) in chosen {
        log.info("experiment", &[("name", Field::Str(name))]);
        if let Err(e) = run(&log) {
            eprintln!("reproduce {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
