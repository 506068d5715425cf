//! Figure 2: hyperparameter search — loss curves for NN architectures.
//!
//! The paper sweeps LSTM units {128, 256, 512} × stacks {1..4} × proposal
//! mixture components {5, 10, 25, 50} and plots loss vs traces seen. We run
//! the same sweep shape at reduced scale (units {32, 64}, stacks {1, 2},
//! components {3, 5, 10}) on the τ dataset and print each loss series.
//! Expected shape: larger LSTMs reach lower loss per trace; mixture count
//! matters less than capacity (as in the paper, where curves cluster).
//!
//! Run: `cargo run -p etalumis-bench --release --bin reproduce -- fig2_hyperparams`

use crate::Outcome;
use etalumis_bench::{
    bench_ic_config, tau_records, train_cycling, Field, Logger, CYCLING_MINIBATCH,
};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_train::IcConfig;

/// Training steps per configuration; the loss curve samples every fifth
/// step and the last.
const STEPS: usize = 60;

/// Ranks final losses lowest first; a NaN loss (a diverged configuration)
/// ranks last, whatever its sign bit.
fn rank(finals: &mut [(String, f64)]) {
    finals.sort_by(|a, b| a.1.is_nan().cmp(&b.1.is_nan()).then(a.1.total_cmp(&b.1)));
}

pub fn run(log: &Logger) -> Outcome {
    log.section("Figure 2: hyperparameter search loss curves (scaled down)");
    let records = tau_records(512, 2000)?;
    log.info("dataset", &[("tau_traces", Field::U64(records.len() as u64))]);
    let mut finals = Vec::new();
    // Units × stacks at a fixed mixture (the paper's left sweep), then
    // mixtures at the largest capacity (its right sweep).
    for (units, stacks, mix) in
        [(32, 1, 5), (32, 2, 5), (64, 1, 5), (64, 2, 5), (64, 1, 3), (64, 1, 10)]
    {
        let cfg = IcConfig {
            lstm_hidden: units,
            lstm_stacks: stacks,
            mixture_components: mix,
            ..bench_ic_config(11)
        };
        let adam = Adam::new(LrSchedule::Constant(1e-3));
        let mut last = f64::NAN;
        train_cycling(cfg, adam, &records, &[], STEPS, |_, step, loss| {
            if step % 5 == 0 || step == STEPS - 1 {
                log.info(
                    "loss_curve",
                    &[
                        ("units", Field::U64(units as u64)),
                        ("stacks", Field::U64(stacks as u64)),
                        ("prop_mix", Field::U64(mix as u64)),
                        ("traces", Field::U64((step * CYCLING_MINIBATCH) as u64)),
                        ("loss", Field::F64(loss)),
                    ],
                );
            }
            last = loss;
        });
        finals.push((format!("u{units}/s{stacks}/m{mix}"), last));
    }
    log.section("final losses");
    rank(&mut finals);
    for (name, loss) in &finals {
        log.info("final_loss", &[("config", Field::Str(name)), ("loss", Field::F64(*loss))]);
    }
    log.info(
        "best_configuration",
        &[
            ("config", Field::Str(&finals[0].0)),
            ("paper", Field::Str("settles on its largest LSTM, 1 stack")),
        ],
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_diverged_configuration_ranks_last() {
        // -NaN is the sign of x86's default NaN, which `total_cmp` alone
        // would rank first.
        let mut finals = [("nan", f64::NAN), ("a", 2.0), ("neg_nan", -f64::NAN), ("b", -1.0)]
            .map(|(n, l)| (n.to_string(), l));
        super::rank(&mut finals);
        assert_eq!([&finals[0].0, &finals[1].0], ["b", "a"]);
        assert!(finals[2].1.is_nan() && finals[3].1.is_nan());
    }
}
