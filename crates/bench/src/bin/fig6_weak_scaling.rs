//! Figure 6: weak scaling on Cori and Edison to 1,024 nodes.
//!
//! Part 1 measures real 1-rank → 2-rank scaling of the distributed trainer
//! on this machine. Part 2 uses the calibrated performance model
//! (DESIGN.md substitution table) to regenerate the paper's two curves:
//! average and peak traces/s vs node count with the ideal line, hitting the
//! paper's ≈0.5 (Cori) and ≈0.79 (Edison) average efficiencies at 1,024
//! nodes (28k / 22k traces/s average).
//!
//! Run: `cargo run -p etalumis-bench --release --bin fig6_weak_scaling`

use etalumis_bench::{bench_ic_config, tau_dataset, Field, Logger};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_train::{IcNetwork, ScalingModel, TrainPlan, Trainer};

fn main() {
    let log = Logger::from_args();
    log.section("measured: this machine, 1 -> 2 ranks (weak scaling)");
    let (ds, dir) = tau_dataset(256, 256, "fig6");
    let mut rates = Vec::new();
    for ranks in [1usize, 2] {
        let net = IcNetwork::new(bench_ic_config(6));
        let mut trainer = Trainer::new(net, Adam::new(LrSchedule::Constant(1e-3)));
        let plan = TrainPlan::epochs(&ds, 16, 1, 5).ranks(ranks).max_steps(8);
        let report = plan.run(&mut trainer).expect("dataset read");
        log.info(
            "measured_scaling",
            &[
                ("ranks", Field::U64(ranks as u64)),
                ("traces_per_sec", Field::F64(report.traces_per_sec())),
            ],
        );
        rates.push(report.traces_per_sec());
    }
    log.info("measured_efficiency", &[("two_rank", Field::F64(rates[1] / (2.0 * rates[0])))]);
    let _ = std::fs::remove_dir_all(&dir);

    for model in [ScalingModel::cori(), ScalingModel::edison()] {
        log.section(&format!("modeled: weak scaling on {}", model.system));
        for &nodes in &[1usize, 64, 128, 256, 512, 1024] {
            let iters = if nodes >= 512 { 100 } else { 200 };
            let p = model.simulate(nodes, iters);
            log.info(
                "modeled_scaling",
                &[
                    ("system", Field::Str(model.system)),
                    ("nodes", Field::U64(p.nodes as u64)),
                    ("avg_traces_per_sec", Field::F64(p.avg_traces_per_sec)),
                    ("peak_traces_per_sec", Field::F64(p.peak_traces_per_sec)),
                    ("ideal_traces_per_sec", Field::F64(p.ideal)),
                    ("efficiency", Field::F64(p.efficiency())),
                ],
            );
        }
    }
    log.info(
        "paper_reference",
        &[(
            "fig6",
            Field::Str(
                "at 1,024 nodes: Cori avg 28,000 / peak 42,000 tr/s (~0.5 efficiency); \
                 Edison avg 22,000 / peak 28,000 tr/s (~0.79); max sustained 450/325 Tflop/s",
            ),
        )],
    );
}
