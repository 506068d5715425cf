//! End-to-end mini-Sherpa τ-decay inference: the paper's Figure 8 workflow
//! at laptop scale.
//!
//! 1. Simulate a ground-truth τ decay and take its noisy calorimeter image
//!    as the observation.
//! 2. Run the RMH baseline for the posterior over the τ momentum.
//! 3. Generate a prior trace dataset, train the IC network briefly, and run
//!    IC-guided importance sampling on the same observation.
//! 4. Compare the posteriors and the simulator-call budgets.
//!
//! Run with: `cargo run --release --example tau_decay_inference`
//! (a few minutes; scale knobs at the top).

use etalumis::prelude::*;
use etalumis_data::TraceRecord;
use etalumis_inference::rmh_with_callback;
use etalumis_nn::{Adam, LrSchedule};
use etalumis_simulators::{DetectorConfig, TauDecayConfig};
use etalumis_train::IcConfig;

const TRAIN_TRACES: usize = 1_024;
const TRAIN_STEPS: usize = 300;
const RMH_ITERS: usize = 16_000;
const IC_SAMPLES: usize = 800;

fn small_tau() -> TauDecayModel {
    // A reduced detector keeps the example fast while preserving structure;
    // the widened per-voxel noise keeps the laptop-scale posterior broad
    // enough for the small training budget (see DESIGN.md §3, Figure 8).
    let config = TauDecayConfig {
        detector: DetectorConfig { depth: 8, height: 13, width: 13, ..Default::default() },
        obs_noise_std: 0.8,
        ..Default::default()
    };
    TauDecayModel::new(config)
}

fn main() {
    let mut model = small_tau();
    // Ground truth event.
    let truth = Executor::sample_prior(&mut model, 20190621);
    let obs = truth.first_observed().unwrap().clone();
    let gt_px = truth.value_by_base("tau/px[Uniform]").unwrap().as_f64();
    let gt_py = truth.value_by_base("tau/py[Uniform]").unwrap().as_f64();
    let gt_pz = truth.value_by_base("tau/pz[Uniform]").unwrap().as_f64();
    let gt_ch = truth.value_by_base("tau/channel[Categorical]").unwrap().as_i64();
    println!(
        "ground truth: px={gt_px:.3} py={gt_py:.3} pz={gt_pz:.3} channel={gt_ch} ({})",
        truth.value_by_name("channel_name").unwrap()
    );
    let mut observes = ObserveMap::new();
    observes.insert(TauDecayModel::OBSERVE_NAME.into(), obs);

    // --- RMH baseline ---
    println!("\n[RMH] running {RMH_ITERS} iterations...");
    let cfg = RmhConfig {
        iterations: RMH_ITERS,
        burn_in: RMH_ITERS / 4,
        thin: 1,
        seed: 100,
        rw_scale: 0.06,
        prior_kernel: false,
    };
    let t0 = std::time::Instant::now();
    let mut px_samples = Vec::new();
    let stats = rmh_with_callback(&mut model, &observes, &cfg, |_, t| {
        px_samples.push(t.value_by_base("tau/px[Uniform]").unwrap().as_f64());
    });
    let rmh_secs = t0.elapsed().as_secs_f64();
    let rmh_mean = px_samples.iter().sum::<f64>() / px_samples.len() as f64;
    println!(
        "[RMH] done in {rmh_secs:.1}s ({} simulator calls, acceptance {:.2}); E[px|y] = {rmh_mean:.3}",
        stats.simulator_calls,
        stats.acceptance_rate()
    );

    // --- IC training ---
    println!("\n[IC] generating {TRAIN_TRACES} prior traces and training...");
    let mut records = Vec::with_capacity(TRAIN_TRACES);
    for s in 0..TRAIN_TRACES {
        let t = Executor::sample_prior(&mut model, 10_000 + s as u64);
        records.push(TraceRecord::from_trace(&t, true));
    }
    let mut net = IcNetwork::new(IcConfig::small([8, 13, 13], 8));
    net.pregenerate(records.iter());
    println!("[IC] network: {} addresses", net.num_addresses());
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
    let t0 = std::time::Instant::now();
    let bsz = 32;
    for step in 0..TRAIN_STEPS {
        let lo = (step * bsz) % records.len();
        let hi = (lo + bsz).min(records.len());
        let res = trainer.step(&records[lo..hi]);
        if step % 30 == 0 {
            println!("[IC]   step {step:>4}  loss {:.3}", res.loss);
        }
    }
    let train_secs = t0.elapsed().as_secs_f64();
    println!("[IC] trained in {train_secs:.1}s");

    // --- IC inference ---
    let t0 = std::time::Instant::now();
    let post_ic = ic_importance_sampling(
        &model,
        &observes,
        TauDecayModel::OBSERVE_NAME,
        &mut trainer.net,
        IC_SAMPLES,
        5,
    );
    let ic_secs = t0.elapsed().as_secs_f64();
    let (ic_mean, ic_std) =
        post_ic.mean_std(|t| t.value_by_base("tau/px[Uniform]").unwrap().as_f64());
    println!(
        "\n[IC] {IC_SAMPLES} guided samples in {ic_secs:.1}s; ESS {:.0}; E[px|y] = {ic_mean:.3} ± {ic_std:.3}",
        post_ic.effective_sample_size()
    );

    // --- comparison ---
    // The px posterior is genuinely broad here: each decay product carries
    // its own angular offset that can absorb the tau flight direction, so
    // the observation constrains px only weakly (run the fig8_posteriors
    // harness for all seven panels with total-variation distances).
    println!("\nposterior over px (ground truth {gt_px:.3}; broad by construction):");
    println!("  RMH mean {rmh_mean:.3}   IC mean {ic_mean:.3} +- {ic_std:.3}");
    let mut rmh_hist = etalumis_inference::Histogram::new(-2.5, 2.5, 14);
    for &x in &px_samples {
        rmh_hist.add(x, 1.0);
    }
    let ic_hist =
        post_ic.histogram(|t| t.value_by_base("tau/px[Uniform]").unwrap().as_f64(), -2.5, 2.5, 14);
    let tv = etalumis_inference::total_variation(&rmh_hist, &ic_hist);
    println!("  total variation RMH vs IC: {tv:.3}\n");
    println!("  RMH p(px|y):");
    print!("{}", rmh_hist.ascii(32));
    println!("  IC p(px|y):");
    print!("{}", ic_hist.ascii(32));
    let ess_per_call_ic = post_ic.effective_sample_size() / IC_SAMPLES as f64;
    println!(
        "  simulator calls: RMH {} vs IC {IC_SAMPLES}; IC ESS/call {ess_per_call_ic:.3}",
        stats.simulator_calls
    );
    println!("  (amortization: the trained network is reusable for any new observation)");
}
