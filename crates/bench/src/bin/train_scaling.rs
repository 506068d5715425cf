//! Table 2 and Figure 6, measured: IC training throughput on this machine
//! at 1 and 2 data-parallel rank threads (Algorithm 2), with the paper's
//! numbers quoted beside it as text. Nothing here models Cori or Edison.
//!
//! One sorted τ dataset is trained on by one `TrainPlan` per rank count,
//! each rank on its own 16-trace minibatch per step. Both runs keep the
//! kernel pool off, so each rank thread computes on one core: otherwise the
//! ranks would share the one process-wide pool, already sized to every
//! core, and the second rank would add contention rather than a core. The
//! 1→2 comparison is therefore weak scaling per core, as the paper's is per
//! rank. One run is a fraction of a second, so each rank count runs
//! `REPEATS` times, alternating 1 and 2 ranks so that drift in the
//! machine's load falls on both alike. Each rank count reports its median
//! traces/s with the spread and the repeat count, and Gflop/s at the median
//! (the network's analytic flop count over the measured wall time, the
//! paper's Table 2 method); the 2-rank speedup is the median over the
//! adjacent 1- and 2-rank pairs, with its spread, and the efficiency is
//! half of it (Figure 6's measured over ideal). The median 2-rank run is
//! also decomposed as in Figure 4: per phase, *actual* sums the slowest
//! rank's time at each step and *best* the mean rank's, and a rank's
//! gradient traffic is counted in elements per step.
//!
//! Run: `cargo run -p etalumis-bench --release --bin train_scaling`
//! (`-- --json` prints one JSON object per event on stdout).

use etalumis_bench::{bench_ic_config, tau_dataset, Field, Logger};
use etalumis_data::TraceDataset;
use etalumis_nn::{Adam, LrSchedule};
use etalumis_tensor::{flops::training_flops, pool};
use etalumis_train::{IcNetwork, PhaseTimings, TrainPlan, TrainReport, Trainer};

/// Traces per rank per step.
const MINIBATCH: usize = 16;
/// Steps per run.
const STEPS: usize = 12;
/// Runs per rank count.
const REPEATS: usize = 15;

/// The paper's Tables 1 and 2 (arXiv:1907.03382): CPU, peak single-precision
/// rate, and measured single-node IC training throughput.
const PAPER_TABLE2: [&str; 5] = [
    "IVB E5-2695 v2 @ 2.40GHz, 12 cores/socket, peak 460.8 Gflop/s/socket: \
     13.9 traces/s on 1 socket, 25.6 on 2; 196 Gflop/s on 1 socket (42.5% of peak)",
    "HSW E5-2698 v3 @ 2.30GHz, 16 cores/socket, peak 1177.6 Gflop/s/socket: \
     32.1 traces/s on 1 socket, 56.5 on 2; 453 Gflop/s on 1 socket (38.5% of peak)",
    "BDW E5-2697A v4 @ 2.60GHz, 16 cores/socket, peak 1331.2 Gflop/s/socket: \
     30.5 traces/s on 1 socket, 57.8 on 2; 430 Gflop/s on 1 socket (32.3% of peak)",
    "SKL Platinum 8170 @ 2.10GHz, 26 cores/socket, peak 3494.4 Gflop/s/socket: \
     49.9 traces/s on 1 socket, 82.7 on 2; 704 Gflop/s on 1 socket (20.1% of peak)",
    "CSL Gold 6252 @ 2.10GHz, 24 cores/socket, peak 3225.6 Gflop/s/socket: \
     51.1 traces/s on 1 socket, 93.1 on 2; 720 Gflop/s on 1 socket (22.3% of peak)",
];

/// The paper's Figure 6 (weak scaling, 2 ranks per node).
const PAPER_FIG6: &str = "at 1,024 nodes: Cori avg 28,000 / peak 42,000 traces/s \
     (~0.5 efficiency); Edison avg 22,000 / peak 28,000 traces/s (~0.79); \
     max sustained 450 / 325 Tflop/s";

/// The paper's Figure 4 (load imbalance in the training phases).
const PAPER_FIG4: &str = "load imbalance ~5% at 2 sockets, ~19% at 64";

/// One training run over `ds` at `ranks` rank threads, each computing its
/// kernels on its own thread (the kernel pool off).
fn measure(ds: &TraceDataset, ranks: usize) -> TrainReport {
    let mut trainer =
        Trainer::new(IcNetwork::new(bench_ic_config(1)), Adam::new(LrSchedule::Constant(1e-3)));
    pool::with_parallel(false, || {
        TrainPlan::epochs(ds, MINIBATCH, 1, 2).ranks(ranks).max_steps(STEPS).run(&mut trainer)
    })
    .expect("dataset read")
}

/// The median of `xs` (an odd count) and its index in `xs`.
fn median(xs: &[f64]) -> (f64, usize) {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let at = order[order.len() / 2];
    (xs[at], at)
}

/// The smallest and largest of `xs`.
fn spread(xs: &[f64]) -> (f64, f64) {
    xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

fn main() {
    let log = Logger::from_args();
    let (ds, dir) = tau_dataset(384, 384, "train_scaling");
    // Flops per trace: the forward count at the mean trace length × the
    // forward+backward multiplier.
    let mean_len = (0..ds.len()).map(|i| ds.meta(i).1 as u64).sum::<u64>() / ds.len() as u64;
    let fwd = IcNetwork::new(bench_ic_config(1)).forward_flops(1, mean_len as usize);
    let flops_per_trace = training_flops(fwd) as f64;

    log.section("Table 2 / Figure 6 (measured): IC training on this machine, 1 and 2 rank threads");
    log.info(
        "workload",
        &[
            ("traces", Field::U64(ds.len() as u64)),
            ("minibatch_per_rank", Field::U64(MINIBATCH as u64)),
            ("max_steps", Field::U64(STEPS as u64)),
            ("repeats_per_rank_count", Field::U64(REPEATS as u64)),
            ("mean_trace_len", Field::U64(mean_len)),
            ("flops_per_trace", Field::F64(flops_per_trace)),
        ],
    );
    // runs[r][i]: repeat i at r + 1 ranks; the rank counts alternate.
    let mut runs: [Vec<TrainReport>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..REPEATS {
        for (r, reports) in runs.iter_mut().enumerate() {
            reports.push(measure(&ds, r + 1));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let tps = runs
        .each_ref()
        .map(|reports| reports.iter().map(TrainReport::traces_per_sec).collect::<Vec<f64>>());
    for (r, (reports, tps)) in runs.iter().zip(&tps).enumerate() {
        let ((mid, at), (lo, hi)) = (median(tps), spread(tps));
        log.info(
            "measured",
            &[
                ("ranks", Field::U64(r as u64 + 1)),
                ("kernel_threads_per_rank", Field::U64(1)),
                ("steps", Field::U64(reports[at].losses.len() as u64)),
                ("repeats", Field::U64(tps.len() as u64)),
                ("traces_per_sec", Field::F64(mid)),
                ("traces_per_sec_min", Field::F64(lo)),
                ("traces_per_sec_max", Field::F64(hi)),
                ("gflops", Field::F64(mid * flops_per_trace / 1e9)),
            ],
        );
    }
    let speedups: Vec<f64> = tps[1].iter().zip(&tps[0]).map(|(two, one)| two / one).collect();
    let ((speedup, _), (lo, hi)) = (median(&speedups), spread(&speedups));
    log.info(
        "scaling",
        &[
            ("speedup_2rank", Field::F64(speedup)),
            ("speedup_2rank_min", Field::F64(lo)),
            ("speedup_2rank_max", Field::F64(hi)),
            ("efficiency_2rank", Field::F64(speedup / 2.0)),
            ("pairs", Field::U64(speedups.len() as u64)),
        ],
    );

    log.section(
        "Figure 4 (measured): the median 2-rank run, slowest rank (actual) vs mean rank (best)",
    );
    let two_ranks = &runs[1][median(&tps[1]).1];
    let (actual, best) = two_ranks.actual_vs_best();
    // Everything but the synchronization: the work the slowest rank holds up.
    let work = |t: &PhaseTimings| t.total() - t.sync;
    for (phase, a, b) in [
        ("batch_read", actual.batch_read, best.batch_read),
        ("forward", actual.forward, best.forward),
        ("backward", actual.backward, best.backward),
        ("optimizer", actual.optimizer, best.optimizer),
        ("sync", actual.sync, best.sync),
    ] {
        log.info(
            "phase",
            &[("phase", Field::Str(phase)), ("actual_s", Field::F64(a)), ("best_s", Field::F64(b))],
        );
    }
    log.info(
        "imbalance",
        &[
            ("imbalance_pct", Field::F64((work(&actual) / work(&best) - 1.0) * 100.0)),
            ("comm_elems_per_step", Field::F64(two_ranks.comm_elems_per_step)),
        ],
    );

    log.section("the paper's numbers (quoted, not reproduced)");
    for row in PAPER_TABLE2 {
        log.info("paper", &[("table2", Field::Str(row))]);
    }
    log.info("paper", &[("fig6", Field::Str(PAPER_FIG6))]);
    log.info("paper", &[("fig4", Field::Str(PAPER_FIG4))]);
}
