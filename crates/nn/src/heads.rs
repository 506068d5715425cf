//! Proposal heads: the address-specific output layers of the IC network.
//!
//! Per the paper (§4.3), "the proposal layers are two-layer NNs, the output
//! of which are either a mixture of ten truncated normal distributions (for
//! uniform continuous priors) or a categorical distribution (for categorical
//! priors)". We implement both, plus a Gaussian head for unbounded continuous
//! priors (used by the analytic validation models).
//!
//! Each head fuses `loss = −Σ_b log q(x_b | features_b)` with its backward
//! pass: parameter gradients accumulate internally and the gradient w.r.t.
//! the input features is returned for BPTT through the LSTM core.
//!
//! At inference each head turns one feature row into a proposal
//! distribution: `proposal_row` works on a slice with caller-owned
//! [`MlpScratch`] (the IC network's per-sample step, which allocates only
//! the distribution it returns); `proposal` is the same on a `[1, in]`
//! tensor.

use crate::linear::{Mlp2, MlpScratch};
use crate::param::{Module, Parameter};
use etalumis_distributions::math::{log_normal_cdf_diff, log_sum_exp, normal_pdf, LN_2PI};
use etalumis_distributions::Distribution;
use etalumis_tensor::Tensor;
use rand::Rng;

/// Floor on proposal standard deviations, as a fraction of the support width
/// (or absolute, for unbounded heads).
const SIGMA_MIN_FRAC: f64 = 1e-3;

fn sigmoid64(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn softplus64(x: f64) -> f64 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Mixture-of-truncated-normals head for bounded continuous priors.
#[derive(Clone)]
pub struct MixtureTnHead {
    trunk: Mlp2,
    /// Number of mixture components.
    pub components: usize,
}

impl MixtureTnHead {
    /// New head: `in_dim` features → `components` truncated normals.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_dim: usize,
        hidden: usize,
        components: usize,
    ) -> Self {
        Self { trunk: Mlp2::new(rng, in_dim, hidden, 3 * components), components }
    }

    /// Decode raw trunk outputs into mixture parameters for one row:
    /// `(weights, means, stds)`.
    fn decode(&self, raw: &[f32], low: f64, high: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut row = MixtureRow::default();
        self.decode_into(raw, low, high, &mut row);
        (row.weights, row.means, row.stds)
    }

    /// [`MixtureTnHead::decode`] into reused buffers, keeping the means'
    /// sigmoids for the backward pass.
    fn decode_into(&self, raw: &[f32], low: f64, high: f64, row: &mut MixtureRow) {
        let k = self.components;
        let span = high - low;
        // Logits first, normalized in place.
        row.weights.clear();
        row.weights.extend(raw[0..k].iter().map(|&v| v as f64));
        let m = log_sum_exp(&row.weights);
        for w in &mut row.weights {
            *w = (*w - m).exp();
        }
        row.sig_means.clear();
        row.sig_means.extend(raw[k..2 * k].iter().map(|&v| sigmoid64(v as f64)));
        row.means.clear();
        row.means.extend(row.sig_means.iter().map(|&s| low + s * span));
        row.stds.clear();
        row.stds.extend(
            raw[2 * k..3 * k]
                .iter()
                .map(|&v| softplus64(v as f64) * span * 0.5 + SIGMA_MIN_FRAC * span),
        );
    }

    /// Proposal distribution for one feature row (inference path).
    pub fn proposal(&self, features: &Tensor, low: f64, high: f64) -> Distribution {
        self.proposal_row(features.row(0), &mut MlpScratch::default(), low, high)
    }

    /// [`MixtureTnHead::proposal`] for a feature slice, with caller-owned
    /// trunk activations.
    pub fn proposal_row(
        &self,
        features: &[f32],
        scratch: &mut MlpScratch,
        low: f64,
        high: f64,
    ) -> Distribution {
        let raw = self.trunk.forward_into(features, scratch);
        let (weights, means, stds) = self.decode(raw, low, high);
        Distribution::MixtureTruncatedNormal { weights, means, stds, low, high }
    }

    /// Fused loss and backward over a batch.
    ///
    /// `features`: [B, in]; `targets[b]` is the sampled value with prior
    /// support `[lows[b], highs[b]]`. Returns `(Σ_b −log q, d/dfeatures)`.
    pub fn loss_and_grad(
        &mut self,
        features: &Tensor,
        targets: &[f64],
        lows: &[f64],
        highs: &[f64],
    ) -> (f64, Tensor) {
        let b = features.rows();
        assert_eq!(targets.len(), b);
        let k = self.components;
        let raw = self.trunk.forward(features);
        let mut loss = 0.0f64;
        let mut draw = Tensor::zeros(&[b, 3 * k]);
        let mut row = MixtureRow::default();
        // Per component: the joint term of log q, z, a, b, φ(a), φ(b) and
        // 1/Z = exp(−log Z).
        let mut terms = vec![0.0f64; k];
        let mut comp = vec![[0.0f64; 6]; k];
        for bi in 0..b {
            let (low, high) = (lows[bi], highs[bi]);
            let span = high - low;
            let rrow = raw.row(bi);
            self.decode_into(rrow, low, high, &mut row);
            let MixtureRow { weights, means, stds, sig_means } = &row;
            let x = targets[bi].clamp(low, high);
            for c in 0..k {
                let z = (x - means[c]) / stds[c];
                let a = (low - means[c]) / stds[c];
                let bb = (high - means[c]) / stds[c];
                let log_z = log_normal_cdf_diff(a, bb);
                terms[c] =
                    weights[c].max(1e-300).ln() - 0.5 * z * z - 0.5 * LN_2PI - stds[c].ln() - log_z;
                comp[c] = [z, a, bb, normal_pdf(a), normal_pdf(bb), (-log_z).exp()];
            }
            let log_q = log_sum_exp(&terms);
            loss -= log_q;
            // Responsibilities.
            let grow = draw.row_mut(bi);
            for c in 0..k {
                let [z, a, bb, pdf_a, pdf_b, inv_z] = comp[c];
                let r = (terms[c] - log_q).exp();
                // d(-logq)/dlogit_c = w_c − r_c   (softmax + mixture weight)
                grow[c] = (weights[c] - r) as f32;
                // d(-logq)/dμ_c, with (φ(a) − φ(b)) / Z via exp(−log Z).
                let zfac = (pdf_a - pdf_b) * inv_z;
                let dmu = -r * (z / stds[c] - zfac / stds[c]);
                // d(-logq)/dσ_c
                let zsig = (a * pdf_a - bb * pdf_b) * inv_z;
                let dsig = -r * (z * z / stds[c] - 1.0 / stds[c] - zsig / stds[c]);
                // Chain through the parameterizations.
                let sm = sig_means[c];
                grow[k + c] = (dmu * sm * (1.0 - sm) * span) as f32;
                let s_raw = rrow[2 * k + c] as f64;
                grow[2 * k + c] = (dsig * sigmoid64(s_raw) * span * 0.5) as f32;
            }
        }
        let dx = self.trunk.backward(&draw);
        (loss, dx)
    }
}

/// One row's decoded mixture parameters, reused across the rows of a batch.
#[derive(Default)]
struct MixtureRow {
    weights: Vec<f64>,
    means: Vec<f64>,
    stds: Vec<f64>,
    /// `sigmoid(raw mean)`, which both the means and their gradient use.
    sig_means: Vec<f64>,
}

impl Module for MixtureTnHead {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        self.trunk.visit_params(&format!("{prefix}/trunk"), f);
    }
}

/// Categorical proposal head for discrete priors.
#[derive(Clone)]
pub struct CategoricalHead {
    trunk: Mlp2,
    /// Number of categories.
    pub num_categories: usize,
}

impl CategoricalHead {
    /// New head over `num_categories` outcomes.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_dim: usize,
        hidden: usize,
        num_categories: usize,
    ) -> Self {
        Self { trunk: Mlp2::new(rng, in_dim, hidden, num_categories), num_categories }
    }

    /// Proposal distribution for one feature row.
    pub fn proposal(&self, features: &Tensor) -> Distribution {
        self.proposal_row(features.row(0), &mut MlpScratch::default())
    }

    /// [`CategoricalHead::proposal`] for a feature slice, with caller-owned
    /// trunk activations.
    pub fn proposal_row(&self, features: &[f32], scratch: &mut MlpScratch) -> Distribution {
        let probs = self.trunk.forward_into(features, scratch);
        etalumis_tensor::activations::softmax_in_place(probs);
        Distribution::Categorical { probs: probs.iter().map(|&p| p as f64).collect() }
    }

    /// Fused loss and backward: `targets[b]` is the category index.
    pub fn loss_and_grad(&mut self, features: &Tensor, targets: &[usize]) -> (f64, Tensor) {
        let b = features.rows();
        assert_eq!(targets.len(), b);
        let logits = self.trunk.forward(features);
        let logq = etalumis_tensor::activations::log_softmax_rows(&logits);
        let probs = etalumis_tensor::activations::softmax_rows(&logits);
        let mut loss = 0.0f64;
        let mut dlogits = probs;
        for bi in 0..b {
            let t = targets[bi];
            assert!(t < self.num_categories, "target {t} out of range");
            loss -= logq.row(bi)[t] as f64;
            dlogits.row_mut(bi)[t] -= 1.0;
        }
        let dx = self.trunk.backward(&dlogits);
        (loss, dx)
    }
}

impl Module for CategoricalHead {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        self.trunk.visit_params(&format!("{prefix}/trunk"), f);
    }
}

/// Gaussian proposal head for unbounded continuous priors.
#[derive(Clone)]
pub struct NormalHead {
    trunk: Mlp2,
    /// Scale hint (≈ prior std) used to parameterize outputs.
    pub scale: f64,
    /// Location hint (≈ prior mean).
    pub loc: f64,
}

impl NormalHead {
    /// New head; `loc`/`scale` center the output parameterization on the
    /// prior so the untrained proposal starts close to it.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_dim: usize,
        hidden: usize,
        loc: f64,
        scale: f64,
    ) -> Self {
        Self { trunk: Mlp2::new(rng, in_dim, hidden, 2), scale, loc }
    }

    fn decode(&self, raw: &[f32]) -> (f64, f64) {
        let mean = self.loc + raw[0] as f64 * self.scale;
        let std = softplus64(raw[1] as f64 + 0.55) * self.scale + SIGMA_MIN_FRAC * self.scale;
        (mean, std)
    }

    /// Proposal distribution for one feature row.
    pub fn proposal(&self, features: &Tensor) -> Distribution {
        self.proposal_row(features.row(0), &mut MlpScratch::default())
    }

    /// [`NormalHead::proposal`] for a feature slice, with caller-owned trunk
    /// activations.
    pub fn proposal_row(&self, features: &[f32], scratch: &mut MlpScratch) -> Distribution {
        let (mean, std) = self.decode(self.trunk.forward_into(features, scratch));
        Distribution::Normal { mean, std }
    }

    /// Fused loss and backward.
    pub fn loss_and_grad(&mut self, features: &Tensor, targets: &[f64]) -> (f64, Tensor) {
        let b = features.rows();
        let raw = self.trunk.forward(features);
        let mut loss = 0.0f64;
        let mut draw = Tensor::zeros(&[b, 2]);
        for bi in 0..b {
            let rrow = raw.row(bi);
            let (mean, std) = self.decode(rrow);
            let x = targets[bi];
            let z = (x - mean) / std;
            loss += 0.5 * z * z + std.ln() + 0.5 * LN_2PI;
            // d(-logN)/dmean = -z/σ ; d/dσ = (1 − z²)/σ
            let dmean = -z / std;
            let dstd = (1.0 - z * z) / std;
            let grow = draw.row_mut(bi);
            grow[0] = (dmean * self.scale) as f32;
            grow[1] = (dstd * sigmoid64(rrow[1] as f64 + 0.55) * self.scale) as f32;
        }
        let dx = self.trunk.backward(&draw);
        (loss, dx)
    }
}

impl Module for NormalHead {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        self.trunk.visit_params(&format!("{prefix}/trunk"), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_distributions::Value;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_tensor<R: Rng>(rng: &mut R, shape: &[usize]) -> Tensor {
        Tensor::from_fn(shape, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn mixture_loss_matches_distribution_log_prob() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut head = MixtureTnHead::new(&mut rng, 6, 16, 4);
        let x = rand_tensor(&mut rng, &[1, 6]);
        let (low, high) = (-2.0, 3.0);
        let target = 0.7;
        let (loss, _) = head.loss_and_grad(&x, &[target], &[low], &[high]);
        let q = head.proposal(&x, low, high);
        let expect = -q.log_prob(&Value::Real(target));
        assert!((loss - expect).abs() < 1e-6, "{loss} vs {expect}");
    }

    #[test]
    fn mixture_feature_grad_matches_fd() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = MixtureTnHead::new(&mut rng, 5, 12, 3);
        let x = rand_tensor(&mut rng, &[2, 5]);
        let targets = [0.3, -0.9];
        let lows = [-1.5, -1.5];
        let highs = [1.5, 1.5];
        let (_, dx) = head.loss_and_grad(&x, &targets, &lows, &highs);
        let eps = 1e-3f32;
        let f = |head: &mut MixtureTnHead, x: &Tensor| {
            let (l, _) = head.loss_and_grad(x, &targets, &lows, &highs);
            l
        };
        for idx in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = ((f(&mut head, &xp) - f(&mut head, &xm)) / (2.0 * eps as f64)) as f32;
            let ana = dx.data()[idx];
            assert!((num - ana).abs() < 2e-2 * (1.0 + num.abs()), "idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn mixture_param_grads_match_fd() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut head = MixtureTnHead::new(&mut rng, 4, 8, 2);
        let x = rand_tensor(&mut rng, &[3, 4]);
        let targets = [0.1, 0.5, -0.4];
        let lows = [-1.0; 3];
        let highs = [1.0; 3];
        head.zero_grad();
        let (_, _) = head.loss_and_grad(&x, &targets, &lows, &highs);
        // Snapshot the clean analytic gradients (loss_and_grad accumulates).
        let mut snapshot: Vec<Tensor> = Vec::new();
        head.visit_params("h", &mut |_, p| snapshot.push(p.grad.clone()));
        let eps = 1e-3f32;
        let loss_at = |head: &mut MixtureTnHead, which: usize, idx: usize, delta: f32| {
            let mut pi = 0usize;
            head.visit_params("h", &mut |_, p| {
                if pi == which {
                    p.value.data_mut()[idx] += delta;
                }
                pi += 1;
            });
            let (l, _) = head.loss_and_grad(&x, &targets, &lows, &highs);
            let mut pi = 0usize;
            head.visit_params("h", &mut |_, p| {
                if pi == which {
                    p.value.data_mut()[idx] -= delta;
                }
                pi += 1;
            });
            l
        };
        for (which, g) in snapshot.iter().enumerate() {
            for idx in [0usize, g.numel() - 1] {
                let fp = loss_at(&mut head, which, idx, eps);
                let fm = loss_at(&mut head, which, idx, -eps);
                let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
                let ana = g.data()[idx];
                assert!(
                    (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                    "param {which} idx {idx}: fd {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn categorical_loss_matches_log_prob_and_fd() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = CategoricalHead::new(&mut rng, 4, 8, 5);
        let x = rand_tensor(&mut rng, &[1, 4]);
        let (loss, dx) = head.loss_and_grad(&x, &[3]);
        let q = head.proposal(&x);
        let expect = -q.log_prob(&Value::Int(3));
        assert!((loss - expect).abs() < 1e-5, "{loss} vs {expect}");
        let eps = 1e-3f32;
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (lp, _) = head.loss_and_grad(&xp, &[3]);
            let (lm, _) = head.loss_and_grad(&xm, &[3]);
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((num - dx.data()[idx]).abs() < 1e-2, "{num} vs {}", dx.data()[idx]);
        }
    }

    #[test]
    fn normal_head_loss_and_fd() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = NormalHead::new(&mut rng, 3, 8, 1.0, 2.0);
        let x = rand_tensor(&mut rng, &[1, 3]);
        let (loss, dx) = head.loss_and_grad(&x, &[0.5]);
        let q = head.proposal(&x);
        let expect = -q.log_prob(&Value::Real(0.5));
        assert!((loss - expect).abs() < 1e-6, "{loss} vs {expect}");
        let eps = 1e-3f32;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (lp, _) = head.loss_and_grad(&xp, &[0.5]);
            let (lm, _) = head.loss_and_grad(&xm, &[0.5]);
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((num - dx.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn training_a_head_reduces_loss() {
        // Adam-train a mixture head to concentrate on a cluster of targets.
        use crate::optim::{Adam, LrSchedule, Optimizer};
        let mut rng = StdRng::seed_from_u64(4);
        let mut head = MixtureTnHead::new(&mut rng, 2, 16, 3);
        let x = Tensor::full(&[8, 2], 0.3);
        let targets: Vec<f64> = (0..8).map(|i| 0.4 + 0.02 * i as f64).collect();
        let lows = vec![-1.0; 8];
        let highs = vec![1.0; 8];
        let mut opt = Adam::new(LrSchedule::Constant(0.01));
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..300 {
            head.zero_grad();
            let (loss, _) = head.loss_and_grad(&x, &targets, &lows, &highs);
            if it == 0 {
                first = loss;
            }
            last = loss;
            opt.begin_step();
            head.visit_params("", &mut |n, p| opt.update(n, p));
        }
        assert!(last < first - 1.0, "loss should drop substantially: {first} -> {last}");
    }
}
