//! Figure 8 + the 230× claim: RMH vs IC posteriors on a τ observation.
//!
//! The paper's headline science result: for a test τ decay observation, the
//! IC posterior (trained network + importance sampling) closely matches the
//! RMH baseline posterior across the physics latents — x/y/z momentum
//! components, the decay channel, the two leading final-state-particle
//! energies, and the missing transverse energy — while reaching a given
//! effective sample size orders of magnitude faster (230× in the paper).
//!
//! Run: `cargo run -p etalumis-bench --release --bin reproduce -- fig8_posteriors`

use crate::Outcome;
use etalumis_bench::{bench_ic_config, bench_tau_model, tau_records, train_cycling, Field, Logger};
use etalumis_core::{Executor, ObserveMap, Trace};
use etalumis_distributions::Value;
use etalumis_inference::{
    ic_importance_sampling, rmh_with_callback, total_variation, Histogram, RmhConfig,
};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_simulators::TauDecayModel;
use std::time::Instant;

const RMH_ITERS: usize = 16_000;
const IC_SAMPLES: usize = 1_500;
const TRAIN_TRACES: usize = 1_024;
const TRAIN_STEPS: usize = 300;

/// One latent's histogram. The latent is a trace's sample at address base
/// `key`, or else its value named `key`; a trace with neither gives NaN,
/// which [`Histogram::add`] counts as overflow.
struct Panel {
    name: &'static str,
    key: &'static str,
    lo: f64,
    hi: f64,
    bins: usize,
}

impl Panel {
    fn value(&self, t: &Trace) -> f64 {
        let v = t.value_by_base(self.key).or_else(|| t.value_by_name(self.key));
        v.map_or(f64::NAN, Value::as_f64)
    }
}

const PANELS: [Panel; 7] = [
    Panel { name: "tau px [GeV/c]", key: "tau/px[Uniform]", lo: -2.5, hi: 2.5, bins: 20 },
    Panel { name: "tau py [GeV/c]", key: "tau/py[Uniform]", lo: -2.5, hi: 2.5, bins: 20 },
    Panel { name: "tau pz [GeV/c]", key: "tau/pz[Uniform]", lo: 42.5, hi: 47.5, bins: 20 },
    Panel { name: "decay channel", key: "tau/channel[Categorical]", lo: 0.0, hi: 38.0, bins: 38 },
    Panel { name: "FSP energy 1 [GeV]", key: "fsp_energy1", lo: 0.0, hi: 48.0, bins: 20 },
    Panel { name: "FSP energy 2 [GeV]", key: "fsp_energy2", lo: 0.0, hi: 48.0, bins: 20 },
    Panel { name: "missing ET", key: "met", lo: 0.0, hi: 3.0, bins: 20 },
];

pub fn run(log: &Logger) -> Outcome {
    log.section("Figure 8: ground-truth event");
    let mut model = bench_tau_model();
    let truth = Executor::sample_prior(&mut model, 20190621);
    let obs = truth.first_observed().ok_or("the ground-truth event has no observation")?.clone();
    let mut observes = ObserveMap::new();
    observes.insert(TauDecayModel::OBSERVE_NAME.into(), obs);
    let gt: Vec<f64> = PANELS.iter().map(|p| p.value(&truth)).collect();
    for (p, g) in PANELS.iter().zip(gt.iter()) {
        log.info("ground_truth", &[("latent", Field::Str(p.name)), ("value", Field::F64(*g))]);
    }
    let channel = truth.value_by_name("channel_name").ok_or("no channel name")?.to_string();
    log.info(
        "ground_truth",
        &[("latent", Field::Str("channel name")), ("value", Field::Str(&channel))],
    );

    // --- RMH baseline (two chains for Gelman-Rubin) ---
    log.section(&format!("RMH baseline ({RMH_ITERS} iterations x 2 chains)"));
    let mut rmh_hists: Vec<Histogram> =
        PANELS.iter().map(|p| Histogram::new(p.lo, p.hi, p.bins)).collect();
    let mut px_chains: Vec<Vec<f64>> = Vec::new();
    let mut rmh_calls = 0usize;
    let t0 = Instant::now();
    for chain in 0..2 {
        let cfg = RmhConfig {
            iterations: RMH_ITERS,
            burn_in: RMH_ITERS / 4,
            thin: 1,
            seed: 100 + chain as u64,
            rw_scale: 0.06,
            prior_kernel: false,
        };
        let mut px_series = Vec::new();
        let stats = rmh_with_callback(&mut model, &observes, &cfg, |_, t| {
            for (p, h) in PANELS.iter().zip(rmh_hists.iter_mut()) {
                h.add(p.value(t), 1.0);
            }
            px_series.push(PANELS[0].value(t));
        });
        rmh_calls += stats.simulator_calls;
        px_chains.push(px_series);
        log.info(
            "rmh_chain",
            &[
                ("chain", Field::U64(chain as u64)),
                ("acceptance", Field::F64(stats.acceptance_rate())),
            ],
        );
    }
    let rmh_secs = t0.elapsed().as_secs_f64();
    // Both chains keep the same number of samples (same iterations, burn-in
    // and thinning), as Gelman-Rubin requires.
    let n = px_chains[0].len();
    let rhat = etalumis_inference::diagnostics::gelman_rubin(&px_chains);
    let tau_int = etalumis_inference::diagnostics::integrated_autocorr_time(&px_chains[0]);
    let rmh_ess = 2.0 * n as f64 / tau_int;
    log.info(
        "rmh_baseline",
        &[
            ("wall_s", Field::F64(rmh_secs)),
            ("simulator_calls", Field::U64(rmh_calls as u64)),
            ("gelman_rubin_rhat_px", Field::F64(rhat)),
            ("autocorr_time_iters", Field::F64(tau_int)),
            ("chain_ess", Field::F64(rmh_ess)),
            ("paper", Field::Str("two chains certify convergence")),
        ],
    );

    // --- IC: train then infer ---
    log.section(&format!("IC: train on {TRAIN_TRACES} prior traces, {TRAIN_STEPS} steps"));
    let records = tau_records(TRAIN_TRACES, 40_000)?;
    let adam = Adam::new(LrSchedule::Polynomial {
        initial: 1e-3,
        final_lr: 1e-4,
        order: 2,
        total_iters: TRAIN_STEPS,
    });
    let t0 = Instant::now();
    let mut trainer =
        train_cycling(bench_ic_config(8), adam, &records, &[], TRAIN_STEPS, |_, step, loss| {
            if step % 50 == 0 {
                log.info(
                    "train_step",
                    &[("step", Field::U64(step as u64)), ("loss", Field::F64(loss))],
                );
            }
        });
    log.info(
        "train_done",
        &[
            ("wall_s", Field::F64(t0.elapsed().as_secs_f64())),
            ("note", Field::Str("amortized: done once per model")),
        ],
    );

    let t0 = Instant::now();
    let post_ic = ic_importance_sampling(
        &model,
        &observes,
        TauDecayModel::OBSERVE_NAME,
        &mut trainer.net,
        IC_SAMPLES,
        77,
    );
    let ic_secs = t0.elapsed().as_secs_f64();
    let ic_ess = post_ic.effective_sample_size();
    log.info(
        "ic_inference",
        &[
            ("guided_simulator_calls", Field::U64(IC_SAMPLES as u64)),
            ("wall_s", Field::F64(ic_secs)),
            ("ess", Field::F64(ic_ess)),
        ],
    );

    // --- panels ---
    log.section("posterior comparison (normalized histograms)");
    let mut tvs = Vec::new();
    for (pi, p) in PANELS.iter().enumerate() {
        let ic_hist = post_ic.histogram(|t| p.value(t), p.lo, p.hi, p.bins);
        let r = rmh_hists[pi].normalized();
        let i = ic_hist.normalized();
        let tv = total_variation(&r, &i);
        tvs.push(tv);
        log.info(
            "panel",
            &[
                ("latent", Field::Str(p.name)),
                ("ground_truth", Field::F64(gt[pi])),
                ("tv_rmh_ic", Field::F64(tv)),
            ],
        );
        // Bin-level histogram comparison at debug level (`--log-debug`).
        let centers = r.centers();
        for b in 0..p.bins {
            if r.counts[b] < 1e-4 && i.counts[b] < 1e-4 {
                continue;
            }
            log.debug(
                "panel_bin",
                &[
                    ("latent", Field::Str(p.name)),
                    ("center", Field::F64(centers[b])),
                    ("rmh", Field::F64(r.counts[b])),
                    ("ic", Field::F64(i.counts[b])),
                ],
            );
        }
    }

    log.section("speedup accounting (the paper's 230x)");
    let rmh_cost_per_ess = rmh_secs / rmh_ess.max(1.0);
    let ic_cost_per_ess = ic_secs / ic_ess.max(1.0);
    log.speedup("seconds per effective sample", rmh_cost_per_ess, ic_cost_per_ess, "230x");
    // The paper's 230x is dominated by *simulator* cost (Sherpa is ~10^6x
    // more expensive per call than our mini simulator, so there NN overhead
    // vanishes). The scale-free comparison is simulator calls per effective
    // sample:
    let rmh_calls_per_ess = rmh_calls as f64 / rmh_ess.max(1.0);
    let ic_calls_per_ess = IC_SAMPLES as f64 / ic_ess.max(1.0);
    let mean_tv = tvs.iter().sum::<f64>() / tvs.len() as f64;
    log.info(
        "calls_per_effective_sample",
        &[
            ("rmh", Field::F64(rmh_calls_per_ess)),
            ("ic", Field::F64(ic_calls_per_ess)),
            ("ratio", Field::F64(rmh_calls_per_ess / ic_calls_per_ess)),
            (
                "note",
                Field::Str(
                    "with an expensive simulator like Sherpa this ratio IS the wall-clock \
                     speedup; IC is additionally embarrassingly parallel and amortized",
                ),
            ),
        ],
    );
    log.info("posterior_agreement", &[("mean_tv", Field::F64(mean_tv))]);
    Ok(())
}
