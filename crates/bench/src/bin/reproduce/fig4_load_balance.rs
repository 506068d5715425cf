//! Figure 4: load imbalance in parallel trace generation, measured on the
//! real work-stealing runtime (no simulated scheduler).
//!
//! The paper's dynamic load balancing keeps many simulator workers busy
//! even though trace costs are heavy-tailed (rejection loops, 38-way decay
//! branching). We reproduce the measurement directly: the same trace batch
//! is executed under (a) static block partitioning (stealing off) and
//! (b) the work-stealing scheduler, and we report per-worker busy times,
//! "actual vs best" totals (max-worker vs mean-worker busy — the paper's
//! imbalance metric), and observed steal counts.
//!
//! Run: `cargo run -p etalumis-bench --release --bin reproduce -- fig4_load_balance`

use crate::Outcome;
use etalumis_bench::{bench_tau_model, Field, Logger};
use etalumis_core::{FnProgram, ObserveMap, SimCtx, SimCtxExt};
use etalumis_distributions::{Distribution, Value};
use etalumis_runtime::{BatchRunner, CountingSink, RunStats, RuntimeConfig, SimulatorPool};

/// A heavy-tailed program in the paper's sense: per-trace cost follows a
/// Pareto-like law (cost ∝ 1/u, u uniform), so a handful of traces cost
/// 100–1000× the median and whichever static block holds them straggles.
fn skewed_program() -> FnProgram<impl FnMut(&mut dyn SimCtx) -> Value> {
    FnProgram::new("skewed", |ctx: &mut dyn SimCtx| {
        let u = ctx.sample_f64(&Distribution::Uniform { low: 1e-3, high: 1.0 }, "u");
        // 20k .. 2M inner iterations: ~0.2ms median, ~20ms tail per trace.
        let spin = ((20_000.0 / u) as u64).min(2_000_000);
        let mut acc = u;
        for i in 0..spin {
            acc = (acc + i as f64 * 1e-9).sin().abs() + 1e-12;
        }
        ctx.observe(&Distribution::Normal { mean: acc.min(1.0), std: 1.0 }, "y");
        Value::Real(acc)
    })
}

fn report(log: &Logger, label: &str, workers: usize, stats: &RunStats) {
    let executed: Vec<usize> = stats.per_worker.iter().map(|w| w.executed).collect();
    let busy_ms: Vec<f64> = stats.per_worker.iter().map(|w| w.busy.as_secs_f64() * 1e3).collect();
    let actual = busy_ms.iter().cloned().fold(0.0f64, f64::max);
    let best = busy_ms.iter().sum::<f64>() / busy_ms.len().max(1) as f64;
    let executed = format!("{executed:?}");
    log.info(
        "load_balance",
        &[
            ("mode", Field::Str(label)),
            ("workers", Field::U64(workers as u64)),
            ("wall_ms", Field::F64(stats.elapsed.as_secs_f64() * 1e3)),
            ("actual_ms", Field::F64(actual)),
            ("best_ms", Field::F64(best)),
            ("imbalance_pct", Field::F64(stats.imbalance() * 100.0)),
            ("steals", Field::U64(stats.steals)),
            ("traces_per_worker", Field::Str(&executed)),
        ],
    );
}

fn measure<P, F>(factory: F, n: usize, workers: usize, seed: u64) -> (RunStats, RunStats)
where
    P: etalumis_core::ProbProgram + Send + 'static,
    F: Fn(usize) -> P + Copy,
{
    let observes = ObserveMap::new();
    let run = |stealing: bool| {
        let mut pool = SimulatorPool::from_factory(workers, factory);
        let runner = BatchRunner::new(RuntimeConfig { workers, stealing });
        let sink = CountingSink::default();
        let stats = runner.run_prior(&mut pool, &observes, n, seed, &sink);
        assert_eq!(sink.count(), n, "runtime dropped traces");
        stats
    };
    (run(false), run(true))
}

pub fn run(log: &Logger) -> Outcome {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // 1, 2 and the core count, no more: oversubscribed workers timeshare
    // cores, and the per-worker busy times then measure OS scheduling noise,
    // not imbalance.
    let mut worker_counts = vec![1, 2, cores];
    worker_counts.sort_unstable();
    worker_counts.dedup();

    log.section("Figure 4 (measured): work-stealing vs static partitioning, skewed workload");
    let n = 600;
    log.info(
        "workload",
        &[
            ("program", Field::Str("heavy-tailed synthetic")),
            ("traces", Field::U64(n as u64)),
            (
                "metric",
                Field::Str("actual = max-worker busy, best = mean; imbalance = actual/best - 1"),
            ),
        ],
    );
    for &workers in &worker_counts {
        let (stat, steal) = measure(|_| skewed_program(), n, workers, 4);
        report(log, "static", workers, &stat);
        report(log, "stealing", workers, &steal);
        if workers > 1 {
            let gain = (stat.imbalance() - steal.imbalance()) * 100.0;
            log.info(
                "stealing_gain",
                &[("workers", Field::U64(workers as u64)), ("imbalance_points", Field::F64(gain))],
            );
        }
    }

    log.section("Figure 4 (measured): mini-Sherpa tau model");
    let n_tau = 1024;
    log.info(
        "workload",
        &[("program", Field::Str("mini-Sherpa tau")), ("traces", Field::U64(n_tau as u64))],
    );
    for &workers in &worker_counts {
        let (stat, steal) = measure(|_| bench_tau_model(), n_tau, workers, 17);
        report(log, "static", workers, &stat);
        report(log, "stealing", workers, &steal);
    }

    log.info(
        "paper_reference",
        &[(
            "fig4",
            Field::Str(
                "dynamic load balancing holds imbalance near ~5% at 2 sockets where a \
                 static split degrades as worker counts grow (~19% at 64)",
            ),
        )],
    );
    Ok(())
}
