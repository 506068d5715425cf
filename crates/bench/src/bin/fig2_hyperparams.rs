//! Figure 2: hyperparameter search — loss curves for NN architectures.
//!
//! The paper sweeps LSTM units {128, 256, 512} × stacks {1..4} × proposal
//! mixture components {5, 10, 25, 50} and plots loss vs traces seen. We run
//! the same sweep shape at reduced scale (units {32, 64}, stacks {1, 2},
//! components {3, 5, 10}) on the τ dataset and print each loss series.
//! Expected shape: larger LSTMs reach lower loss per trace; mixture count
//! matters less than capacity (as in the paper, where curves cluster).
//!
//! Run: `cargo run -p etalumis-bench --release --bin fig2_hyperparams`

use etalumis_bench::{tau_records, Field, Logger, BENCH_OBS_DIMS};
use etalumis_nn::{Adam, Cnn3dConfig, LrSchedule};
use etalumis_train::{IcConfig, IcNetwork, Trainer};

fn run_config(
    units: usize,
    stacks: usize,
    mix: usize,
    records: &[etalumis_data::TraceRecord],
) -> Vec<(usize, f64)> {
    let cfg = IcConfig {
        cnn: Cnn3dConfig::small(BENCH_OBS_DIMS, 32),
        lstm_hidden: units,
        lstm_stacks: stacks,
        address_embed_dim: 16,
        sample_embed_dim: 4,
        proposal_hidden: 32,
        mixture_components: mix,
        seed: 11,
    };
    let mut net = IcNetwork::new(cfg);
    net.pregenerate(records.iter());
    let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
    trainer.grad_clip = Some(10.0);
    let bsz = 32;
    let steps = 60;
    let mut series = Vec::new();
    for step in 0..steps {
        let lo = (step * bsz) % records.len();
        let hi = (lo + bsz).min(records.len());
        let res = trainer.step(&records[lo..hi]);
        if step % 5 == 0 || step == steps - 1 {
            series.push((step * bsz, res.loss));
        }
    }
    series
}

fn main() {
    let log = Logger::from_args();
    log.section("Figure 2: hyperparameter search loss curves (scaled down)");
    let records = tau_records(512, 2000);
    log.info("dataset", &[("tau_traces", Field::U64(records.len() as u64))]);
    let mut finals = Vec::new();
    let sweep = |units: usize, stacks: usize, mix: usize, finals: &mut Vec<(String, f64)>| {
        let series = run_config(units, stacks, mix, &records);
        for (traces, loss) in &series {
            log.info(
                "loss_curve",
                &[
                    ("units", Field::U64(units as u64)),
                    ("stacks", Field::U64(stacks as u64)),
                    ("prop_mix", Field::U64(mix as u64)),
                    ("traces", Field::U64(*traces as u64)),
                    ("loss", Field::F64(*loss)),
                ],
            );
        }
        finals.push((format!("u{units}/s{stacks}/m{mix}"), series.last().unwrap().1));
    };
    // Units × stacks sweep at fixed mixture (paper's left sweep).
    for &units in &[32usize, 64] {
        for &stacks in &[1usize, 2] {
            sweep(units, stacks, 5, &mut finals);
        }
    }
    // Mixture sweep at the largest capacity (paper's right sweep).
    for &mix in &[3usize, 10] {
        sweep(64, 1, mix, &mut finals);
    }
    log.section("final losses");
    finals.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
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
}
