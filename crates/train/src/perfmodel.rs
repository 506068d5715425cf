//! Platform registry and the analytic scaling performance model.
//!
//! This module is the documented substitution for the hardware we do not
//! have (DESIGN.md §3): Cori (Cray XC40, 2,388 HSW nodes) and Edison (Cray
//! XC30, 5,586 IVB nodes). Algorithm 2 itself runs for real on rank threads
//! (see [`crate::plan`]); what is *modeled* is only the wall-clock
//! behaviour at node counts this machine cannot host:
//!
//! * per-rank, per-iteration work time varies log-normally (trace-length
//!   load imbalance, §6.2/§7.2): iteration time is the max over ranks;
//! * the gradient allreduce costs a latency term (log₂ ranks stages) plus a
//!   bandwidth term (ring allreduce over the ~171M-parameter gradient);
//! * the imbalance dispersion σ is calibrated against the paper's measured
//!   scaling efficiencies (≈0.5 on Cori, ≈0.79 on Edison at 1,024 nodes).
//!
//! [`Platform`] encodes Table 1 (CPU models) plus the peak single-precision
//! flop rates and the paper's measured Table 2 rows for comparison printing.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One CPU platform row (Table 1 + Table 2 reference data).
#[derive(Clone, Copy, Debug)]
pub struct Platform {
    /// Three-letter code used in the paper.
    pub code: &'static str,
    /// Full CPU model string.
    pub model: &'static str,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Base clock in GHz.
    pub ghz: f64,
    /// Peak single-precision Gflop/s per socket.
    pub peak_sp_gflops: f64,
    /// Paper Table 2: 1-socket traces/s.
    pub paper_traces_1s: f64,
    /// Paper Table 2: 2-socket traces/s.
    pub paper_traces_2s: f64,
    /// Paper Table 2: 1-socket Gflop/s.
    pub paper_gflops: f64,
}

/// The five platforms of Table 1/2.
pub fn platforms() -> [Platform; 5] {
    [
        Platform {
            code: "IVB",
            model: "E5-2695 v2 @ 2.40GHz (12 cores/socket)",
            cores_per_socket: 12,
            ghz: 2.40,
            peak_sp_gflops: 460.8,
            paper_traces_1s: 13.9,
            paper_traces_2s: 25.6,
            paper_gflops: 196.0,
        },
        Platform {
            code: "HSW",
            model: "E5-2698 v3 @ 2.30GHz (16 cores/socket)",
            cores_per_socket: 16,
            ghz: 2.30,
            peak_sp_gflops: 1177.6,
            paper_traces_1s: 32.1,
            paper_traces_2s: 56.5,
            paper_gflops: 453.0,
        },
        Platform {
            code: "BDW",
            model: "E5-2697A v4 @ 2.60GHz (16 cores/socket)",
            cores_per_socket: 16,
            ghz: 2.60,
            peak_sp_gflops: 1331.2,
            paper_traces_1s: 30.5,
            paper_traces_2s: 57.8,
            paper_gflops: 430.0,
        },
        Platform {
            code: "SKL",
            model: "Platinum 8170 @ 2.10GHz (26 cores/socket)",
            cores_per_socket: 26,
            ghz: 2.10,
            peak_sp_gflops: 3494.4,
            paper_traces_1s: 49.9,
            paper_traces_2s: 82.7,
            paper_gflops: 704.0,
        },
        Platform {
            code: "CSL",
            model: "Gold 6252 @ 2.10GHz (24 cores/socket)",
            cores_per_socket: 24,
            ghz: 2.10,
            peak_sp_gflops: 3225.6,
            paper_traces_1s: 51.1,
            paper_traces_2s: 93.1,
            paper_gflops: 720.0,
        },
    ]
}

/// Deterministic standard-normal stream for the model (Box–Muller).
fn randn(rng: &mut StdRng) -> f64 {
    etalumis_distributions::sampling::standard_normal(rng)
}

/// Weak-scaling performance model of the distributed trainer.
#[derive(Clone, Debug)]
pub struct ScalingModel {
    /// System name for reports.
    pub system: &'static str,
    /// Mean per-rank throughput (traces/s) at 1 rank.
    pub traces_per_rank_per_sec: f64,
    /// MPI ranks per node (paper: 2, one per socket).
    pub ranks_per_node: usize,
    /// Local minibatch per rank (paper: 64).
    pub local_minibatch: usize,
    /// Log-normal σ of per-rank per-iteration work (load imbalance).
    pub work_sigma: f64,
    /// Allreduce latency per log₂ stage (seconds).
    pub allreduce_latency: f64,
    /// Gradient size in bytes (paper: 171,732,688 params × 4 B).
    pub grad_bytes: f64,
    /// Effective allreduce bandwidth (bytes/s).
    pub bandwidth: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ScalingModel {
    /// Cori (HSW) calibration: single node 56.5 traces/s; σ chosen so the
    /// 1,024-node average efficiency lands near the paper's ≈0.5.
    pub fn cori() -> Self {
        Self {
            system: "Cori",
            traces_per_rank_per_sec: 56.5 / 2.0,
            ranks_per_node: 2,
            local_minibatch: 64,
            work_sigma: 0.22,
            allreduce_latency: 8e-5,
            grad_bytes: 171_732_688.0 * 4.0,
            bandwidth: 5.0e9,
            seed: 20190901,
        }
    }

    /// Edison (IVB) calibration: single node 25.6 traces/s; σ for ≈0.79
    /// efficiency at 1,024 nodes (slower cores make the same absolute
    /// imbalance relatively smaller).
    pub fn edison() -> Self {
        Self {
            system: "Edison",
            traces_per_rank_per_sec: 25.6 / 2.0,
            ranks_per_node: 2,
            local_minibatch: 64,
            work_sigma: 0.065,
            allreduce_latency: 8e-5,
            grad_bytes: 171_732_688.0 * 4.0,
            bandwidth: 5.0e9,
            seed: 20190902,
        }
    }

    /// Allreduce time for the gradient at a given rank count
    /// (ring bandwidth term + log₂ latency term).
    pub fn allreduce_time(&self, ranks: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let stages = (ranks as f64).log2().ceil();
        let ring = 2.0 * (ranks as f64 - 1.0) / ranks as f64 * self.grad_bytes / self.bandwidth;
        self.allreduce_latency * stages + ring
    }

    fn simulate_raw(&self, nodes: usize, iterations: usize) -> (f64, f64) {
        let ranks = nodes * self.ranks_per_node;
        let mut rng = StdRng::seed_from_u64(self.seed ^ (nodes as u64) << 20);
        let mean_work = self.local_minibatch as f64 / self.traces_per_rank_per_sec;
        // Log-normal with unit mean: exp(σZ − σ²/2).
        let comm = self.allreduce_time(ranks);
        let mut throughputs = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            // Iteration time = slowest rank + allreduce. Sampling `ranks`
            // values per iteration is O(ranks·iters) — fine up to 1024 nodes.
            let mut max_work = 0.0f64;
            for _ in 0..ranks {
                let f = (self.work_sigma * randn(&mut rng)
                    - 0.5 * self.work_sigma * self.work_sigma)
                    .exp();
                let w = mean_work * f;
                if w > max_work {
                    max_work = w;
                }
            }
            let t_iter = max_work + comm;
            throughputs.push((ranks * self.local_minibatch) as f64 / t_iter);
        }
        let avg = throughputs.iter().sum::<f64>() / throughputs.len() as f64;
        let peak = throughputs.iter().cloned().fold(0.0f64, f64::max);
        (avg, peak)
    }

    /// Simulate `iterations` synchronous iterations at `nodes` nodes.
    ///
    /// The ideal curve is "derived from the mean single-node rate" exactly
    /// as in the paper's Figure 6, so `efficiency()` at 1 node is 1.
    pub fn simulate(&self, nodes: usize, iterations: usize) -> ScalingPoint {
        let (single_avg, _) = self.simulate_raw(1, iterations.max(200));
        let (avg, peak) = self.simulate_raw(nodes, iterations);
        ScalingPoint {
            nodes,
            avg_traces_per_sec: avg,
            peak_traces_per_sec: peak,
            ideal: single_avg * nodes as f64,
        }
    }
}

/// One point on the weak-scaling curve.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Node count.
    pub nodes: usize,
    /// Mean throughput over iterations.
    pub avg_traces_per_sec: f64,
    /// Best single iteration.
    pub peak_traces_per_sec: f64,
    /// Ideal (linear) scaling from the single-rank rate.
    pub ideal: f64,
}

impl ScalingPoint {
    /// Average scaling efficiency vs ideal.
    pub fn efficiency(&self) -> f64 {
        self.avg_traces_per_sec / self.ideal
    }
}

/// Figure 4 phase model: per-trace phase milliseconds on one socket
/// (defaults = the paper's measured BDW numbers) plus the imbalance σ.
#[derive(Clone, Debug)]
pub struct PhaseModel {
    /// msec/trace spent reading the minibatch.
    pub batch_read: f64,
    /// msec/trace in the forward pass.
    pub forward: f64,
    /// msec/trace in the backward pass.
    pub backward: f64,
    /// msec/trace in the optimizer.
    pub optimizer: f64,
    /// Log-normal σ of per-rank work.
    pub work_sigma: f64,
    /// Sync (allreduce) msec/trace at 2 sockets; grows with log₂ ranks.
    pub sync_base: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PhaseModel {
    /// Paper Figure 4 calibration (BDW, msec per trace).
    pub fn paper_bdw() -> Self {
        Self {
            batch_read: 4.4,
            forward: 9.7,
            backward: 16.6,
            optimizer: 2.1,
            work_sigma: 0.10,
            sync_base: 1.9,
            seed: 4,
        }
    }

    /// Simulate the per-phase (actual, best, sync) breakdown at a socket
    /// count: *best* is the no-imbalance per-phase mean; *actual* scales the
    /// work phases by the expected max-over-ranks factor.
    pub fn breakdown(&self, sockets: usize, iterations: usize) -> Fig4Row {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (sockets as u64) << 8);
        let mut max_factor_sum = 0.0f64;
        for _ in 0..iterations {
            let mut mx = 0.0f64;
            for _ in 0..sockets.max(1) {
                let f = (self.work_sigma * randn(&mut rng)
                    - 0.5 * self.work_sigma * self.work_sigma)
                    .exp();
                if f > mx {
                    mx = f;
                }
            }
            max_factor_sum += mx;
        }
        let imbalance = max_factor_sum / iterations as f64;
        let sync = if sockets <= 1 {
            0.0
        } else {
            self.sync_base * (1.0 + 0.25 * (sockets as f64).log2())
        };
        Fig4Row {
            sockets,
            best: [self.batch_read, self.forward, self.backward, self.optimizer],
            actual: [
                self.batch_read * imbalance,
                self.forward * imbalance,
                self.backward * imbalance,
                self.optimizer * imbalance,
            ],
            sync,
            imbalance_pct: (imbalance - 1.0) * 100.0,
        }
    }
}

/// One column of the Figure 4 chart (normalized msec/trace).
#[derive(Clone, Copy, Debug)]
pub struct Fig4Row {
    /// Socket count.
    pub sockets: usize,
    /// Per-phase best times [read, forward, backward, optimizer].
    pub best: [f64; 4],
    /// Per-phase actual times (with imbalance).
    pub actual: [f64; 4],
    /// Sync time.
    pub sync: f64,
    /// Load imbalance percentage (actual/best − 1).
    pub imbalance_pct: f64,
}

impl Fig4Row {
    /// Total actual time per trace.
    pub fn total_actual(&self) -> f64 {
        self.actual.iter().sum::<f64>() + self.sync
    }
    /// Total best time per trace.
    pub fn total_best(&self) -> f64 {
        self.best.iter().sum::<f64>() + self.sync
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_peaks_match_cores_times_clock() {
        for p in platforms() {
            // flops/cycle per core: 16 for IVB (AVX), 32 for HSW/BDW (FMA),
            // 64 for SKL/CSL (AVX-512).
            let fpc = match p.code {
                "IVB" => 16.0,
                "HSW" | "BDW" => 32.0,
                _ => 64.0,
            };
            let peak = p.cores_per_socket as f64 * p.ghz * fpc;
            assert!(
                (peak - p.peak_sp_gflops).abs() < 1.0,
                "{}: computed {peak} vs table {}",
                p.code,
                p.peak_sp_gflops
            );
            // Paper % of peak between 15 and 50.
            let pct = p.paper_gflops / p.peak_sp_gflops * 100.0;
            assert!((15.0..50.0).contains(&pct), "{}: {pct}%", p.code);
        }
    }

    #[test]
    fn scaling_model_matches_paper_efficiencies() {
        let cori = ScalingModel::cori().simulate(1024, 150);
        assert!(
            (cori.efficiency() - 0.5).abs() < 0.1,
            "Cori efficiency {} should be ≈0.5",
            cori.efficiency()
        );
        assert!(
            cori.avg_traces_per_sec > 20_000.0 && cori.avg_traces_per_sec < 40_000.0,
            "Cori 1024-node avg {}",
            cori.avg_traces_per_sec
        );
        let edison = ScalingModel::edison().simulate(1024, 150);
        assert!(
            (edison.efficiency() - 0.79).abs() < 0.1,
            "Edison efficiency {} should be ≈0.79",
            edison.efficiency()
        );
    }

    #[test]
    fn efficiency_degrades_monotonically_in_scale() {
        let m = ScalingModel::cori();
        let e1 = m.simulate(1, 200).efficiency();
        let e64 = m.simulate(64, 200).efficiency();
        let e1024 = m.simulate(1024, 100).efficiency();
        assert!(e1 > e64 && e64 > e1024, "{e1} > {e64} > {e1024}");
        // Single node defines the ideal rate (paper Figure 6 convention).
        assert!((e1 - 1.0).abs() < 0.05, "single-node efficiency {e1}");
    }

    #[test]
    fn peak_exceeds_average() {
        let p = ScalingModel::cori().simulate(256, 100);
        assert!(p.peak_traces_per_sec > p.avg_traces_per_sec);
        assert!(p.peak_traces_per_sec <= p.ideal * 1.2);
    }

    #[test]
    fn fig4_imbalance_grows_with_sockets() {
        let m = PhaseModel::paper_bdw();
        let r2 = m.breakdown(2, 400);
        let r64 = m.breakdown(64, 400);
        assert!(r64.imbalance_pct > r2.imbalance_pct + 5.0);
        // Paper: ~5% at 2 sockets, ~19% at 64.
        assert!((2.0..12.0).contains(&r2.imbalance_pct), "{}", r2.imbalance_pct);
        assert!((12.0..30.0).contains(&r64.imbalance_pct), "{}", r64.imbalance_pct);
        assert!(r64.total_actual() > r64.total_best());
    }
}
