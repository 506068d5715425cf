//! The mini-Sherpa τ-decay probabilistic program.
//!
//! A compact stand-in for the paper's Sherpa setup (§2, §5.4): a τ lepton
//! with latent momentum (px, py, pz) decays through one of 38 channels into
//! final-state particles whose energies are distributed by a
//! rejection-sampling loop (pyprob `replace=True` semantics — the paper's
//! source of "an unlimited number of random variables"); visible products
//! shower in the 3D voxel calorimeter; the per-voxel response is the
//! observation. The latents of physics interest in Figure 8 — px, py, pz,
//! decay channel, the two leading final-state-particle energies, and the
//! missing transverse energy — are all recoverable from the trace.

use crate::channels::{branching_ratios, tau_decay_channels, DecayChannel};
use crate::detector::{Detector, DetectorConfig, IncomingParticle};
use etalumis_core::{ProbProgram, SimCtx, SimCtxExt};
use etalumis_distributions::{Distribution, Value};

/// Configuration of the τ-decay generative model.
#[derive(Clone, Debug)]
pub struct TauDecayConfig {
    /// Detector geometry/response.
    pub detector: DetectorConfig,
    /// Per-voxel Gaussian observation noise (GeV).
    pub obs_noise_std: f64,
    /// Uniform prior range for the transverse momentum components (GeV).
    pub pt_range: (f64, f64),
    /// Uniform prior range for the longitudinal momentum (GeV);
    /// centered near m_Z/2 ≈ 45.6 for Z → ττ events.
    pub pz_range: (f64, f64),
    /// Half-width of the uniform prior on per-product angular offsets (rad).
    pub angle_half_width: f64,
    /// Minimum energy any decay product may carry (GeV); enforced by the
    /// rejection loop.
    pub min_product_energy: f64,
}

impl Default for TauDecayConfig {
    fn default() -> Self {
        Self {
            detector: DetectorConfig::default(),
            obs_noise_std: 0.2,
            pt_range: (-2.5, 2.5),
            pz_range: (42.5, 47.5),
            angle_half_width: 0.04,
            min_product_energy: 0.35,
        }
    }
}

/// The τ-decay simulator as a probabilistic program.
#[derive(Clone)]
pub struct TauDecayModel {
    /// Model configuration.
    pub config: TauDecayConfig,
    channels: Vec<DecayChannel>,
    ratios: Vec<f64>,
    detector: Detector,
}

impl TauDecayModel {
    /// Build the model.
    pub fn new(config: TauDecayConfig) -> Self {
        let detector = Detector::new(config.detector.clone());
        Self { config, channels: tau_decay_channels(), ratios: branching_ratios(), detector }
    }

    /// Default-configured model.
    pub fn default_model() -> Self {
        Self::new(TauDecayConfig::default())
    }

    /// The decay-channel table used by this model.
    pub fn channels(&self) -> &[DecayChannel] {
        &self.channels
    }

    /// Name of the observe statement carrying the calorimeter image.
    pub const OBSERVE_NAME: &'static str = "calo";
}

/// Stick-breaking energy fractions with a rejection loop: sample n−1 uniform
/// cut points (replace = true), sort them, and accept only if every product
/// would carry at least `min_frac` of the τ energy.
fn sample_fractions(ctx: &mut dyn SimCtx, n: usize, min_frac: f64, max_tries: usize) -> Vec<f64> {
    if n == 1 {
        return vec![1.0];
    }
    let u01 = Distribution::Uniform { low: 0.0, high: 1.0 };
    let mut last: Vec<f64> = Vec::new();
    for _try in 0..max_tries {
        let mut cuts: Vec<f64> = (0..n - 1)
            .map(|i| ctx.sample_replaced(&u01, &format!("frac_cut{i}")).as_f64())
            .collect();
        cuts.sort_by(f64::total_cmp);
        let mut fr = Vec::with_capacity(n);
        let mut prev = 0.0;
        for &c in &cuts {
            fr.push(c - prev);
            prev = c;
        }
        fr.push(1.0 - prev);
        last = fr;
        if last.iter().all(|&f| f >= min_frac) {
            return last;
        }
    }
    // Extremely unlikely fallback: renormalize the floor-clipped fractions
    // so the simulator always terminates.
    let total: f64 = last.iter().map(|&f| f.max(min_frac)).sum();
    last.iter().map(|&f| f.max(min_frac) / total).collect()
}

impl ProbProgram for TauDecayModel {
    fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
        let cfg = &self.config;
        ctx.push_scope("tau");
        let (lo, hi) = cfg.pt_range;
        let px = ctx.sample_f64(&Distribution::Uniform { low: lo, high: hi }, "px");
        let py = ctx.sample_f64(&Distribution::Uniform { low: lo, high: hi }, "py");
        let (zlo, zhi) = cfg.pz_range;
        let pz = ctx.sample_f64(&Distribution::Uniform { low: zlo, high: zhi }, "pz");
        let channel_idx = ctx
            .sample_i64(&Distribution::Categorical { probs: self.ratios.clone() }, "channel")
            as usize;
        let channel = &self.channels[channel_idx];
        let n = channel.products.len();
        let p_mag = (px * px + py * py + pz * pz).sqrt();
        const M_TAU: f64 = 1.77686;
        let e_tau = (p_mag * p_mag + M_TAU * M_TAU).sqrt();
        // τ flight direction (angles w.r.t. the detector axis).
        let tau_dy = py / pz;
        let tau_dx = px / pz;

        // Energy sharing among the decay products (rejection loop).
        ctx.push_scope("kinematics");
        let min_frac = (cfg.min_product_energy / e_tau).min(0.5 / n as f64);
        let fractions = sample_fractions(ctx, n, min_frac, 10_000);
        ctx.pop_scope();

        // Per-product angular offsets around the τ direction.
        let mut visibles: Vec<IncomingParticle> = Vec::new();
        let mut nu_energy = 0.0f64;
        let a = cfg.angle_half_width;
        for (i, (&kind, &frac)) in channel.products.iter().zip(fractions.iter()).enumerate() {
            let energy = frac * e_tau;
            if kind.is_invisible() {
                nu_energy += energy;
                continue;
            }
            ctx.push_scope(&format!("prod{i}"));
            let dy = ctx.sample_f64(&Distribution::Uniform { low: -a, high: a }, "dy");
            let dx = ctx.sample_f64(&Distribution::Uniform { low: -a, high: a }, "dx");
            ctx.pop_scope();
            visibles.push(IncomingParticle { kind, energy, dy: tau_dy + dy, dx: tau_dx + dx });
        }

        // Detector response and conditioning.
        let grid = self.detector.simulate(&visibles);
        ctx.observe(
            &Distribution::IndependentNormal { mean: grid, std: cfg.obs_noise_std },
            Self::OBSERVE_NAME,
        );

        // Physics summaries (Figure 8 panels).
        let sin_theta = (px * px + py * py).sqrt() / p_mag;
        let met = nu_energy * sin_theta;
        ctx.tag("met", Value::Real(met));
        let mut vis_e: Vec<f64> = visibles.iter().map(|v| v.energy).collect();
        vis_e.sort_by(|x, y| f64::total_cmp(y, x));
        ctx.tag("fsp_energy1", Value::Real(vis_e.first().copied().unwrap_or(0.0)));
        ctx.tag("fsp_energy2", Value::Real(vis_e.get(1).copied().unwrap_or(0.0)));
        ctx.tag("channel_name", Value::Str(channel.name.to_string()));
        ctx.pop_scope();
        Value::Real(px)
    }

    fn name(&self) -> &str {
        "mini_sherpa_tau_decay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::{EntryKind, Executor};

    #[test]
    fn prior_trace_structure() {
        let mut m = TauDecayModel::default_model();
        let t = Executor::sample_prior(&mut m, 7);
        // Controlled latents: px, py, pz, channel, 2 angles per visible product.
        assert!(t.num_controlled() >= 6, "at least 6 controlled latents");
        // Observe entry exists and carries a tensor of the right shape.
        let obs = t.first_observed().expect("calo observation");
        assert_eq!(obs.as_tensor().shape, vec![20, 35, 35]);
        // Tags present.
        for tag in ["met", "fsp_energy1", "fsp_energy2", "channel_name"] {
            assert!(t.value_by_name(tag).is_some(), "missing tag {tag}");
        }
        assert!(t.log_prior.is_finite());
        assert!(t.log_likelihood.is_finite());
    }

    #[test]
    fn rejection_loop_uses_replace_semantics() {
        let mut m = TauDecayModel::default_model();
        // Find a seed whose trace contains replaced samples (multi-product
        // channel); most seeds qualify.
        let mut found = false;
        for seed in 0..40 {
            let t = Executor::sample_prior(&mut m, seed);
            let replaced: Vec<_> =
                t.entries.iter().filter(|e| e.kind == EntryKind::SampleReplaced).collect();
            if !replaced.is_empty() {
                found = true;
                // Replaced entries never count as controlled.
                assert!(replaced.iter().all(|e| !e.is_controlled()));
                break;
            }
        }
        assert!(found, "no trace with rejection-loop draws in 40 seeds");
    }

    #[test]
    fn trace_types_vary_with_channel() {
        let mut m = TauDecayModel::default_model();
        let mut types = std::collections::HashSet::new();
        for seed in 0..60 {
            let t = Executor::sample_prior(&mut m, seed);
            types.insert(t.trace_type());
        }
        assert!(
            types.len() >= 3,
            "expected several trace types across channels, got {}",
            types.len()
        );
    }

    #[test]
    fn met_is_consistent_with_neutrino_kinematics() {
        let mut m = TauDecayModel::default_model();
        for seed in [3, 11, 29] {
            let t = Executor::sample_prior(&mut m, seed);
            let met = t.value_by_name("met").unwrap().as_f64();
            assert!(met >= 0.0);
            // MET bounded by E_tau * sin_theta_max ≈ E * (pt_max*sqrt2/pz_min)
            assert!(met < 10.0, "met {met} out of physical range");
        }
    }

    #[test]
    fn energies_respect_minimum() {
        let mut m = TauDecayModel::default_model();
        for seed in 0..20 {
            let t = Executor::sample_prior(&mut m, seed);
            let e1 = t.value_by_name("fsp_energy1").unwrap().as_f64();
            let e2 = t.value_by_name("fsp_energy2").unwrap().as_f64();
            assert!(e1 >= e2);
            assert!(e1 >= m.config.min_product_energy * 0.99);
        }
    }
}
