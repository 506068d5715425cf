//! `infer_tau`: observation in hand → posterior (§4.2–4.3, Figure 8).
//!
//! Set-up draws the ground-truth event from the seed, builds the
//! `ObserveMap` and trains an IC network the way `fig8_posteriors` does.
//! The timed op is one IC posterior of [`IC_SAMPLES`] weighted traces
//! (`ic_importance_sampling`), which pays a step-wise B=1 network forward
//! per sample statement on top of the simulator. The two engines that pay
//! no network cost — prior importance sampling and RMH — run once after the
//! timed loop: they are the reference the IC posterior is checked against
//! and, in the traced run, the controls its cost is compared with.

use crate::api::*;
use crate::driver::{Metrics, Op, Workload, MIN_OPS};
use crate::probes::{mean_controlled, nn_probes, tensor_probes, trace_pipeline};
use crate::spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;

const TRAIN_TRACES: usize = 1_024;
const TRAIN_STEPS: usize = 150;
const TRAIN_BATCH: usize = 32;
/// Weighted traces per IC posterior.
const IC_SAMPLES: usize = 500;
/// Prior importance sampling: batches × traces per batch.
const PRIOR_BATCHES: usize = 2;
const PRIOR_SAMPLES: usize = 5_000;
const RMH_ITERS: usize = 40_000;
/// Output checks: one effective sample per posterior at the very least, and
/// Figure 8 panels that overlap the RMH reference by more than half.
const MIN_ESS_FRAC: f64 = 1.0 / IC_SAMPLES as f64;
const MAX_MEAN_TV: f64 = 0.5;

/// The Figure 8 panels: a latent or by-product of the τ decay and the
/// histogram range it is compared on.
struct Panel {
    extract: fn(&Trace) -> f64,
    lo: f64,
    hi: f64,
    bins: usize,
}

fn base(t: &Trace, b: &str) -> f64 {
    t.value_by_base(b).map_or(f64::NAN, Value::as_f64)
}

fn named(t: &Trace, n: &str) -> f64 {
    t.value_by_name(n).map_or(f64::NAN, Value::as_f64)
}

const PANELS: [Panel; 7] = [
    Panel { extract: |t| base(t, "tau/px[Uniform]"), lo: -2.5, hi: 2.5, bins: 20 },
    Panel { extract: |t| base(t, "tau/py[Uniform]"), lo: -2.5, hi: 2.5, bins: 20 },
    Panel { extract: |t| base(t, "tau/pz[Uniform]"), lo: 42.5, hi: 47.5, bins: 20 },
    Panel { extract: |t| base(t, "tau/channel[Categorical]"), lo: 0.0, hi: 38.0, bins: 38 },
    Panel { extract: |t| named(t, "fsp_energy1"), lo: 0.0, hi: 48.0, bins: 20 },
    Panel { extract: |t| named(t, "fsp_energy2"), lo: 0.0, hi: 48.0, bins: 20 },
    Panel { extract: |t| named(t, "met"), lo: 0.0, hi: 3.0, bins: 20 },
];

fn empty_hists() -> Vec<Histogram> {
    PANELS.iter().map(|p| Histogram::new(p.lo, p.hi, p.bins)).collect()
}

/// What the reference engines measured, kept for the per-layer report.
#[derive(Default)]
struct Reference {
    prior_ess_frac: f64,
    prior_s: f64,
    rmh_accept: f64,
    rmh_iact: f64,
    rmh_ess: f64,
    rmh_s: f64,
    mean_tv: f64,
}

pub struct Infer {
    seed: u64,
    scratch: PathBuf,
    model: TauDecayModel,
    observes: ObserveMap,
    net: IcNetwork,
    mean_steps: usize,
    /// Over the first [`MIN_OPS`] posteriors (a fixed amount of work):
    /// summed ESS, and every panel's pooled weighted histogram.
    prefix_ess: f64,
    ic_hists: Vec<Histogram>,
    ic_wall: f64,
    ic_ess: f64,
    ic_ops: u32,
    reference: Reference,
}

impl Workload for Infer {
    const NAME: &'static str = "infer_tau";

    fn setup(seed: u64, scratch: &Path) -> Self {
        let mut model = tau_model();
        let truth = Executor::sample_prior(&mut model, seed);
        let mut observes = ObserveMap::new();
        observes.insert(
            OBSERVE_NAME.into(),
            truth.first_observed().expect("the τ model observes its calorimeter").clone(),
        );

        let records: Vec<TraceRecord> = (0..TRAIN_TRACES)
            .map(|i| {
                TraceRecord::from_trace(
                    &Executor::sample_prior(&mut model, mix_seed(seed ^ 0x1c, i)),
                    true,
                )
            })
            .collect();
        let mut net = IcNetwork::new(IcConfig::small(OBS_DIMS, seed));
        net.pregenerate(records.iter());
        let mut trainer = Trainer::new(
            net,
            Adam::new(LrSchedule::Polynomial {
                initial: 1e-3,
                final_lr: 1e-4,
                order: 2,
                total_iters: TRAIN_STEPS,
            }),
        );
        trainer.grad_clip = Some(10.0);
        for step in 0..TRAIN_STEPS {
            let lo = (step * TRAIN_BATCH) % records.len();
            let res = trainer.step(&records[lo..(lo + TRAIN_BATCH).min(records.len())]);
            assert!(res.loss.is_finite(), "IC training diverged at step {step}");
        }
        Self {
            seed,
            scratch: scratch.to_path_buf(),
            model,
            observes,
            net: trainer.net,
            mean_steps: mean_controlled(&records),
            prefix_ess: 0.0,
            ic_hists: empty_hists(),
            ic_wall: 0.0,
            ic_ess: 0.0,
            ic_ops: 0,
            reference: Reference::default(),
        }
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Op {
        // Sampling steps the network at B = 1, where the kernel pool has no
        // parallelism to offer and its dispatch costs more than it saves
        // (197 vs 180 ms per op): kernels run inline while sampling.
        kernel_pool::set_parallel(false);
        let (posterior, wall): (WeightedTraces, f64) = rec.time("inference.ic_posterior", || {
            ic_importance_sampling(
                &mut self.model,
                &self.observes,
                OBSERVE_NAME,
                &mut self.net,
                IC_SAMPLES,
                self.seed.wrapping_add(i as u64),
            )
        });
        kernel_pool::set_parallel(true);
        let ess = posterior.effective_sample_size();
        let ok = posterior.len() == IC_SAMPLES && ess.is_finite() && ess >= 1.0;
        if i >= 1 {
            self.ic_wall += wall;
            self.ic_ess += ess;
            self.ic_ops += 1;
        }
        if (1..=MIN_OPS).contains(&i) {
            self.prefix_ess += ess;
            let weights = posterior.normalized_weights();
            for (p, h) in PANELS.iter().zip(&mut self.ic_hists) {
                for (t, w) in posterior.traces.iter().zip(&weights) {
                    h.add((p.extract)(t), *w);
                }
            }
        }
        Op { wall, traces: IC_SAMPLES as u64, attempted: 1, failed: !ok as u64 }
    }

    fn check(&mut self, rec: &mut Recorder) -> Vec<String> {
        let open = rec.begin("check.reference");
        // Prior proposals: the same simulator and executor, no network.
        let (mut prior_ess, mut prior_s) = (0.0, 0.0);
        for b in 0..PRIOR_BATCHES {
            let (post, s) = rec.time("inference.prior_is", || {
                importance_sampling(
                    &mut self.model,
                    &self.observes,
                    PRIOR_SAMPLES,
                    self.seed.wrapping_add(1_000 + b as u64),
                )
            });
            prior_ess += post.effective_sample_size();
            prior_s += s;
        }
        // RMH: the reference posterior.
        let cfg = RmhConfig {
            iterations: RMH_ITERS,
            burn_in: RMH_ITERS / 4,
            thin: 1,
            seed: self.seed.wrapping_add(2_000),
            rw_scale: 0.06,
            prior_kernel: false,
        };
        let mut rmh_hists = empty_hists();
        let mut px = Vec::with_capacity(RMH_ITERS);
        let (stats, rmh_s) = rec.time("inference.rmh_chain", || {
            rmh_with_callback(&mut self.model, &self.observes, &cfg, |_, t| {
                for (p, h) in PANELS.iter().zip(&mut rmh_hists) {
                    h.add((p.extract)(t), 1.0);
                }
                px.push((PANELS[0].extract)(t));
            })
        });
        let tvs: Vec<f64> = rmh_hists
            .iter()
            .zip(&self.ic_hists)
            .map(|(r, i)| total_variation(&r.normalized(), &i.normalized()))
            .collect();
        let r = Reference {
            prior_ess_frac: prior_ess / (PRIOR_BATCHES * PRIOR_SAMPLES) as f64,
            prior_s,
            rmh_accept: stats.acceptance_rate(),
            rmh_iact: integrated_autocorr_time(&px),
            rmh_ess: chain_ess(&px),
            rmh_s,
            mean_tv: tvs.iter().sum::<f64>() / tvs.len() as f64,
        };
        rec.end(open);

        let ic_ess_frac = self.prefix_ess / (MIN_OPS * IC_SAMPLES) as f64;
        eprintln!(
            "[infer_tau] IC ESS/N {ic_ess_frac:.4} · prior-IS ESS/N {:.5} · RMH accept {:.3}, IACT {:.1} · mean TV(IC, RMH) {:.4} {tvs:.3?}",
            r.prior_ess_frac, r.rmh_accept, r.rmh_iact, r.mean_tv
        );
        // The ground-truth event comes from the seed, and how sharply it
        // pins the latents varies a hundredfold between events (ESS/N from
        // 0.005 to 0.3 over a 30-seed scan), so these limits are what holds
        // on every event; the exact per-seed values are reported as counts.
        let mut failures = Vec::new();
        if ic_ess_frac < MIN_ESS_FRAC {
            failures.push(format!("IC ESS/N {ic_ess_frac:.4} is below {MIN_ESS_FRAC}"));
        }
        if ic_ess_frac < 0.5 * r.prior_ess_frac {
            failures.push(format!(
                "IC ESS/N {ic_ess_frac:.4} is under half of prior proposals' {:.4}",
                r.prior_ess_frac
            ));
        }
        if !(0.05..0.95).contains(&r.rmh_accept) {
            failures.push(format!("RMH acceptance {:.3} is outside (0.05, 0.95)", r.rmh_accept));
        }
        if r.mean_tv.is_nan() || r.mean_tv > MAX_MEAN_TV {
            failures.push(format!("mean TV(IC, RMH) {:.4} exceeds {MAX_MEAN_TV}", r.mean_tv));
        }
        self.reference = r;
        failures
    }

    fn layers(&mut self, rec: &mut Recorder, _op_wall_p50: f64, m: &mut Metrics) {
        let r = &self.reference;
        let ic_traces = (self.ic_ops as usize * IC_SAMPLES) as f64;
        let prior_traces = (PRIOR_BATCHES * PRIOR_SAMPLES) as f64;
        let ic_trace_us = self.ic_wall * 1e6 / ic_traces;
        let prior_trace_us = r.prior_s * 1e6 / prior_traces;
        m.insert("inference.ic_trace_us", ic_trace_us);
        m.insert("inference.prior_trace_us", prior_trace_us);
        m.insert("inference.rmh_iter_us", r.rmh_s * 1e6 / RMH_ITERS as f64);
        m.insert("inference.ic_nn_share", 1.0 - prior_trace_us / ic_trace_us);
        m.insert("inference.ic_ess_frac", self.prefix_ess / (MIN_OPS * IC_SAMPLES) as f64);
        m.insert("inference.prior_is_ess_frac", r.prior_ess_frac);
        m.insert("inference.rmh_accept_rate", r.rmh_accept);
        m.insert("inference.rmh_iact", r.rmh_iact);
        m.insert("inference.ic_rmh_mean_tv", r.mean_tv);
        m.insert("inference.ic_ess_per_s", self.ic_ess / self.ic_wall);
        m.insert("inference.prior_is_ess_per_s", r.prior_ess_frac * prior_traces / r.prior_s);
        m.insert("inference.rmh_ess_per_s", r.rmh_ess / r.rmh_s);

        let t0 = Instant::now();
        trace_pipeline(rec, self.seed, 1_000, &self.scratch).report_trace(m);
        tensor_probes(rec, self.mean_steps, m);
        nn_probes(rec, self.mean_steps, m);
        eprintln!("[infer_tau] layer probes took {:.1} s", t0.elapsed().as_secs_f64());
    }
}
