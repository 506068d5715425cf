//! Synchronous data-parallel IC training on rank threads (Algorithm 2),
//! with the per-phase instrumentation behind the paper's Figure 4.
//!
//! Run with: `cargo run --release --example distributed_training`

use etalumis_data::{generate_dataset, sort_dataset};
use etalumis_nn::{Adam, LrSchedule, Module};
use etalumis_simulators::BranchingModel;
use etalumis_train::{AllReduceStrategy, IcConfig, IcNetwork, TrainPlan, Trainer};

fn main() {
    let dir = std::env::temp_dir().join(format!("etalumis_dist_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Offline mode: generate and sort a trace dataset (paper §4.4.3).
    let mut model = BranchingModel::standard();
    println!("generating 512 prior traces...");
    let ds = generate_dataset(&mut model, 512, 128, &dir, 1, true).unwrap();
    let ds = sort_dataset(&ds, &dir.join("sorted"), 128).unwrap();
    println!(
        "dataset: {} traces, {} trace types, sorted = {}",
        ds.len(),
        ds.num_trace_types(),
        ds.is_sorted()
    );

    // Two ranks, synchronous SGD with the sparse+concatenated allreduce.
    // The caller's trainer is rank 0; its optimizer (Adam-LARC on a
    // polynomial decay) is every rank's.
    let ranks = 2;
    let lr = LrSchedule::Polynomial { initial: 2e-3, final_lr: 2e-4, order: 2, total_iters: 60 };
    let mut trainer =
        Trainer::new(IcNetwork::new(IcConfig::small([1, 1, 1], 3)), Adam::with_larc(lr, 1e-2));
    println!("\ntraining on {ranks} rank threads (Adam-LARC, polynomial decay)...");
    let report = TrainPlan::epochs(&ds, 16, 4, 7)
        .ranks(ranks)
        .strategy(AllReduceStrategy::SparseConcat)
        .run(&mut trainer)
        .expect("dataset read");
    println!(
        "done: {} iterations, {} traces, {:.0} traces/s, loss {:.3} -> {:.3}",
        report.losses.len(),
        report.traces,
        report.traces_per_sec(),
        report.losses.first().unwrap(),
        report.losses.last().unwrap()
    );
    println!("network parameters: {}", trainer.net.num_params());

    // Figure 4 style decomposition: actual (max-rank) vs best (mean-rank).
    let (actual, best) = report.actual_vs_best();
    println!("\nphase decomposition over the run (seconds):");
    println!("  {:<12} {:>10} {:>10}", "phase", "actual", "best");
    for (name, a, b) in [
        ("batch_read", actual.batch_read, best.batch_read),
        ("forward", actual.forward, best.forward),
        ("backward", actual.backward, best.backward),
        ("optimizer", actual.optimizer, best.optimizer),
        ("sync", actual.sync, best.sync),
    ] {
        println!("  {name:<12} {a:>10.4} {b:>10.4}");
    }
    let imb = (actual.total() / best.total() - 1.0) * 100.0;
    println!("  load imbalance: {imb:.1}%");
    println!(
        "  mean gradient elements communicated per rank-iteration: {:.0}",
        report.comm_elems_per_step
    );
    let _ = std::fs::remove_dir_all(&dir);
}
