//! Figure 7: training and validation loss vs iteration.
//!
//! The paper plots both losses for a 128k-minibatch run on 1,024 Edison
//! nodes, converging together (no overfitting gap at these data volumes).
//! We train on a τ train split and evaluate a held-out validation split.
//!
//! Run: `cargo run -p etalumis-bench --release --bin reproduce -- fig7_train_valid`

use crate::Outcome;
use etalumis_bench::{bench_ic_config, tau_records, train_cycling, Field, Logger};
use etalumis_nn::{Adam, LrSchedule};

pub fn run(log: &Logger) -> Outcome {
    log.section("Figure 7: training and validation loss");
    let all = tau_records(768, 5000)?;
    let (train, valid) = all.split_at(512);
    log.info(
        "dataset",
        &[
            ("train_traces", Field::U64(train.len() as u64)),
            ("valid_traces", Field::U64(valid.len() as u64)),
        ],
    );
    let steps = 80;
    let adam = Adam::new(LrSchedule::Polynomial {
        initial: 1e-3,
        final_lr: 1e-4,
        order: 2,
        total_iters: steps,
    });
    let mut last = (0.0, 0.0);
    // The network also registers the validation addresses.
    train_cycling(bench_ic_config(7), adam, train, valid, steps, |trainer, step, loss| {
        if step % 8 == 0 || step == steps - 1 {
            let vloss = trainer.evaluate(&valid[..128.min(valid.len())]);
            log.info(
                "loss",
                &[
                    ("iter", Field::U64(step as u64)),
                    ("train_loss", Field::F64(loss)),
                    ("valid_loss", Field::F64(vloss)),
                ],
            );
            last = (loss, vloss);
        }
    });
    log.info(
        "final",
        &[
            ("train_loss", Field::F64(last.0)),
            ("valid_loss", Field::F64(last.1)),
            ("gap", Field::F64(last.1 - last.0)),
            (
                "paper",
                Field::Str(
                    "both fall together and track each other, validation slightly above train",
                ),
            ),
        ],
    );
    Ok(())
}
