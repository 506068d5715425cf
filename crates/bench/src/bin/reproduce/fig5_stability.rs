//! Figure 5: training stability — mean ± std loss over five runs, plus the
//! §7.1.2 optimizer/schedule comparison (Adam vs Adam-LARC, polynomial
//! decay orders).
//!
//! The paper shows five 128k-minibatch runs converging stably (shaded std
//! band shrinking); we run five seeds at reduced scale and print the band.
//!
//! Run: `cargo run -p etalumis-bench --release --bin reproduce -- fig5_stability`

use crate::Outcome;
use etalumis_bench::{bench_ic_config, tau_records, train_cycling, Field, Logger};
use etalumis_data::TraceRecord;
use etalumis_nn::{Adam, LrSchedule};

/// Every step's loss of one run at network seed `seed`.
fn run_once(seed: u64, records: &[TraceRecord], opt: Adam, steps: usize) -> Vec<f64> {
    let mut losses = Vec::with_capacity(steps);
    train_cycling(bench_ic_config(seed), opt, records, &[], steps, |_, _, loss| losses.push(loss));
    losses
}

pub fn run(log: &Logger) -> Outcome {
    log.section("Figure 5: five-run mean and std of the training loss");
    let records = tau_records(512, 3100)?;
    let steps = 50;
    let runs: Vec<Vec<f64>> = (0..5)
        .map(|seed| run_once(seed, &records, Adam::new(LrSchedule::Constant(1e-3)), steps))
        .collect();
    let mean_at = |it: usize| runs.iter().map(|r| r[it]).sum::<f64>() / runs.len() as f64;
    for it in (0..steps).step_by(5).chain([steps - 1]) {
        let mean = mean_at(it);
        let var = runs.iter().map(|r| (r[it] - mean).powi(2)).sum::<f64>() / runs.len() as f64;
        log.info(
            "loss_band",
            &[
                ("iter", Field::U64(it as u64)),
                ("mean", Field::F64(mean)),
                ("std", Field::F64(var.sqrt())),
            ],
        );
    }
    log.info(
        "convergence",
        &[
            ("mean_first", Field::F64(mean_at(0))),
            ("mean_final", Field::F64(mean_at(steps - 1))),
            ("paper", Field::Str("all five runs converge stably at 128k")),
        ],
    );

    log.section("§7.1.2: optimizer and LR-schedule comparison");
    let poly = |initial, final_lr, order| LrSchedule::Polynomial {
        initial,
        final_lr,
        order,
        total_iters: steps,
    };
    let configs = [
        ("Adam, constant lr", Adam::new(LrSchedule::Constant(1e-3))),
        ("Adam, poly decay order 1", Adam::new(poly(1e-3, 1e-4, 1))),
        ("Adam, poly decay order 2", Adam::new(poly(1e-3, 1e-4, 2))),
        ("Adam-LARC, poly order 2", Adam::with_larc(poly(2e-3, 2e-5, 2), 1e-2)),
    ];
    for (name, adam) in configs {
        let losses = run_once(42, &records, adam, steps);
        log.info(
            "optimizer_comparison",
            &[
                ("config", Field::Str(name)),
                ("first_loss", Field::F64(losses[0])),
                ("final_loss", Field::F64(losses[steps - 1])),
            ],
        );
    }
    log.info(
        "paper_reference",
        &[(
            "s7_1_2",
            Field::Str(
                "Adam-LARC with polynomial order-2 decay was best at 128k; plain Adam \
                 matches it at small minibatch (as seen here)",
            ),
        )],
    );
    Ok(())
}
