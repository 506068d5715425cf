//! Table 1 + Table 2: single-node training throughput and flop rates.
//!
//! Measures this machine's 1-rank and 2-rank IC training throughput
//! (traces/s), derives Gflop/s from the analytic flop count of the network,
//! and prints the paper's platform table alongside for shape comparison
//! (2-rank ≈ 1.8–1.9× of 1-rank; 20–43% of peak on the paper's CPUs).
//!
//! Run: `cargo run -p etalumis-bench --release --bin table2_throughput`

use etalumis_bench::{bench_ic_config, tau_dataset, Field, Logger};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_tensor::flops::training_flops;
use etalumis_train::{platforms, IcConfig, IcNetwork, TrainPlan, Trainer};

fn measure(ranks: usize, ds: &etalumis_data::TraceDataset, cfg: IcConfig) -> (f64, f64) {
    let mut trainer = Trainer::new(IcNetwork::new(cfg), Adam::new(LrSchedule::Constant(1e-3)));
    let report = TrainPlan::epochs(ds, 16, 1, 2)
        .ranks(ranks)
        .max_steps(12)
        .run(&mut trainer)
        .expect("dataset read");
    // Flops per trace: forward count for the mean trace length × the
    // forward+backward multiplier.
    let mean_len = (0..ds.len()).map(|i| ds.meta(i).1 as u64).sum::<u64>() / ds.len() as u64;
    let fwd = trainer.net.forward_flops(1, mean_len as usize);
    let flops_per_trace = training_flops(fwd);
    let tps = report.traces_per_sec();
    (tps, tps * flops_per_trace as f64 / 1e9)
}

fn main() {
    let log = Logger::from_args();
    log.section("Table 1: Intel Xeon CPU models and codes (paper)");
    for p in platforms() {
        log.info(
            "platform",
            &[
                ("model", Field::Str(p.model)),
                ("code", Field::Str(p.code)),
                ("peak_sp_gflops", Field::F64(p.peak_sp_gflops)),
            ],
        );
    }

    log.section("Table 2 (paper): single-node training throughput");
    for p in platforms() {
        log.info(
            "paper_throughput",
            &[
                ("code", Field::Str(p.code)),
                ("traces_per_sec_1socket", Field::F64(p.paper_traces_1s)),
                ("traces_per_sec_2socket", Field::F64(p.paper_traces_2s)),
                ("gflops_1socket", Field::F64(p.paper_gflops)),
                ("peak_pct", Field::F64(p.paper_gflops / p.peak_sp_gflops * 100.0)),
            ],
        );
    }

    log.section("Table 2 (ours): this machine, scaled-down tau model");
    let (ds, dir) = tau_dataset(384, 384, "table2");
    let (tps1, gf1) = measure(1, &ds, bench_ic_config(1));
    let (tps2, gf2) = measure(2, &ds, bench_ic_config(1));
    log.info(
        "measured_throughput",
        &[
            ("platform", Field::Str("this-host")),
            ("traces_per_sec_1rank", Field::F64(tps1)),
            ("traces_per_sec_2rank", Field::F64(tps2)),
            ("gflops_1rank", Field::F64(gf1)),
            ("gflops_2rank", Field::F64(gf2)),
            ("socket_speedup", Field::F64(tps2 / tps1)),
            ("paper_range", Field::Str("1.62x-1.90x")),
        ],
    );
    log.info(
        "note",
        &[(
            "text",
            Field::Str(
                "absolute numbers reflect this machine and the reduced model; the \
                 reproduced shape is the near-2x socket scaling and the flop accounting \
                 methodology (analytic flops / measured wall time)",
            ),
        )],
    );
    let _ = std::fs::remove_dir_all(&dir);
}
