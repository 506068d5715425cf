//! Small analytic models used to validate the inference engines.
//!
//! Each model has a property we can check exactly: the conjugate Gaussian
//! has a closed-form posterior; the branching model has enumerable trace
//! types; the rejection model exercises `replace=True`; the GMM has a
//! bimodal posterior that stresses the mixture proposal heads; the voxel
//! mean model observes a tensor whose posterior is closed form for a
//! Normal, Uniform, Categorical or Bernoulli prior.

use etalumis_core::{ProbProgram, SimCtx, SimCtxExt};
use etalumis_distributions::math::log_sum_exp;
use etalumis_distributions::{Distribution, TensorValue, Value};

/// Conjugate Gaussian: μ ~ N(μ0, σ0²); y_i ~ N(μ, σ²) for i < n_obs.
///
/// The posterior over μ given observations is Gaussian with closed form,
/// see [`GaussianUnknownMean::posterior`].
#[derive(Clone)]
pub struct GaussianUnknownMean {
    /// Prior mean.
    pub mu0: f64,
    /// Prior standard deviation.
    pub sigma0: f64,
    /// Likelihood standard deviation.
    pub sigma: f64,
    /// Number of observe statements (named "y0", "y1", ...).
    pub n_obs: usize,
}

impl GaussianUnknownMean {
    /// Standard test configuration: μ0=0, σ0=1, σ=0.7, two observations.
    pub fn standard() -> Self {
        Self { mu0: 0.0, sigma0: 1.0, sigma: 0.7, n_obs: 2 }
    }

    /// Closed-form posterior (mean, std) given observations.
    pub fn posterior(&self, ys: &[f64]) -> (f64, f64) {
        let n = ys.len() as f64;
        let prec = 1.0 / (self.sigma0 * self.sigma0) + n / (self.sigma * self.sigma);
        let mean = (self.mu0 / (self.sigma0 * self.sigma0)
            + ys.iter().sum::<f64>() / (self.sigma * self.sigma))
            / prec;
        (mean, (1.0 / prec).sqrt())
    }
}

impl ProbProgram for GaussianUnknownMean {
    fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
        let mu = ctx.sample_f64(&Distribution::Normal { mean: self.mu0, std: self.sigma0 }, "mu");
        for i in 0..self.n_obs {
            ctx.observe(&Distribution::Normal { mean: mu, std: self.sigma }, &format!("y{i}"));
        }
        Value::Real(mu)
    }

    fn name(&self) -> &str {
        "gaussian_unknown_mean"
    }
}

/// A model whose trace structure depends on a categorical draw: branch k
/// performs k+1 additional uniform draws. Exercises dynamic trace types.
#[derive(Clone)]
pub struct BranchingModel {
    /// Branch probabilities.
    pub probs: Vec<f64>,
    /// Observation noise.
    pub noise: f64,
}

impl BranchingModel {
    /// Three-branch default.
    pub fn standard() -> Self {
        Self { probs: vec![0.5, 0.3, 0.2], noise: 0.3 }
    }
}

impl ProbProgram for BranchingModel {
    fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
        let k = ctx.sample_i64(&Distribution::Categorical { probs: self.probs.clone() }, "branch")
            as usize;
        let mut total = 0.0;
        ctx.push_scope("parts");
        for i in 0..=k {
            total +=
                ctx.sample_f64(&Distribution::Uniform { low: 0.0, high: 1.0 }, &format!("u{i}"));
        }
        ctx.pop_scope();
        ctx.observe(&Distribution::Normal { mean: total, std: self.noise }, "y");
        Value::Real(total)
    }

    fn name(&self) -> &str {
        "branching"
    }
}

/// Rejection sampling via `replace = true`: draw u until u < p, then observe
/// around the accepted value. The accepted-value distribution is
/// Uniform(0, p).
#[derive(Clone)]
pub struct RejectionModel {
    /// Acceptance threshold.
    pub p: f64,
    /// Observation noise.
    pub noise: f64,
}

impl RejectionModel {
    /// Default threshold 0.3.
    pub fn standard() -> Self {
        Self { p: 0.3, noise: 0.1 }
    }
}

impl ProbProgram for RejectionModel {
    fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
        let u01 = Distribution::Uniform { low: 0.0, high: 1.0 };
        let mut u;
        loop {
            u = ctx.sample_replaced(&u01, "u").as_f64();
            if u < self.p {
                break;
            }
        }
        ctx.observe(&Distribution::Normal { mean: u, std: self.noise }, "y");
        Value::Real(u)
    }

    fn name(&self) -> &str {
        "rejection"
    }
}

/// Two-component Gaussian mixture with a latent component and location.
#[derive(Clone)]
pub struct GmmModel {
    /// Component weights.
    pub weights: Vec<f64>,
    /// Component means.
    pub means: Vec<f64>,
    /// Component spread.
    pub comp_std: f64,
    /// Observation noise.
    pub obs_std: f64,
}

impl GmmModel {
    /// Symmetric bimodal default.
    pub fn standard() -> Self {
        Self { weights: vec![0.5, 0.5], means: vec![-2.0, 2.0], comp_std: 0.5, obs_std: 0.5 }
    }
}

impl ProbProgram for GmmModel {
    fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
        let k = ctx
            .sample_i64(&Distribution::Categorical { probs: self.weights.clone() }, "component")
            as usize;
        let x =
            ctx.sample_f64(&Distribution::Normal { mean: self.means[k], std: self.comp_std }, "x");
        ctx.observe(&Distribution::Normal { mean: x, std: self.obs_std }, "y");
        Value::Real(x)
    }

    fn name(&self) -> &str {
        "gmm"
    }
}

/// A tensor observation of one latent: μ ~ `prior`, then every voxel of a
/// `dims` grid is drawn as N(μ, σ) (a Categorical or Bernoulli draw enters
/// as its index, 0 or 1). The likelihood depends on y only through the
/// voxel mean ȳ, so the posterior is exact in closed form
/// ([`VoxelMeanModel::neg_log_posterior`]). With one prior per proposal-head
/// family it is the IC network's learnability oracle: the 3DCNN must find
/// the mean under the noise, and the trained loss has an exact floor.
#[derive(Clone)]
pub struct VoxelMeanModel {
    /// Prior over μ.
    pub prior: Distribution,
    /// Observation grid (depth, height, width).
    pub dims: [usize; 3],
    /// Per-voxel noise standard deviation.
    pub sigma: f64,
}

impl VoxelMeanModel {
    /// The observe statement's name.
    pub const OBSERVE_NAME: &'static str = "y";

    /// The oracle set-up: the benchmark's 8×13×13 grid at σ = 6, so ȳ has
    /// standard deviation 6/√1352 ≈ 0.16. `Cnn3dConfig::small` learns all
    /// three head families at this noise in 300 minibatches of 32; at
    /// σ = 12 the Uniform family stays at its prior.
    pub fn oracle(prior: Distribution) -> Self {
        Self { prior, dims: [8, 13, 13], sigma: 6.0 }
    }

    /// Exact −log p(μ | y) from the voxel mean `y_mean`, or `None` for a
    /// prior without a closed form here. The likelihood in μ is
    /// N(ȳ; μ, σ²/n) over the n voxels: a Normal prior gives a Normal
    /// posterior, a Uniform prior a normal truncated to its support, and a
    /// discrete prior a softmax over its outcomes.
    pub fn neg_log_posterior(&self, mu: f64, y_mean: f64) -> Option<f64> {
        let n = (self.dims[0] * self.dims[1] * self.dims[2]) as f64;
        let s2 = self.sigma * self.sigma / n;
        let posterior = match &self.prior {
            Distribution::Normal { mean, std } => {
                let prec = 1.0 / (std * std) + 1.0 / s2;
                let mean = (mean / (std * std) + y_mean / s2) / prec;
                Distribution::Normal { mean, std: prec.sqrt().recip() }
            }
            Distribution::Uniform { low, high } => Distribution::TruncatedNormal {
                mean: y_mean,
                std: s2.sqrt(),
                low: *low,
                high: *high,
            },
            Distribution::Bernoulli { p } => {
                return Some(neg_log_softmax(&[1.0 - p, *p], mu, y_mean, s2))
            }
            Distribution::Categorical { probs } => {
                return Some(neg_log_softmax(probs, mu, y_mean, s2))
            }
            _ => return None,
        };
        Some(-posterior.log_prob(&Value::Real(mu)))
    }
}

/// −log of outcome `k`'s share of `probs[j]·exp(−(ȳ − j)² / 2s²)`.
fn neg_log_softmax(probs: &[f64], k: f64, y_mean: f64, s2: f64) -> f64 {
    let logits: Vec<f64> = probs
        .iter()
        .enumerate()
        .map(|(j, p)| p.ln() - (y_mean - j as f64).powi(2) / (2.0 * s2))
        .collect();
    log_sum_exp(&logits) - logits[k as usize]
}

impl ProbProgram for VoxelMeanModel {
    fn run(&mut self, ctx: &mut dyn SimCtx) -> Value {
        let mu = ctx.sample_f64(&self.prior, "mu");
        let volume = self.dims.iter().product();
        let mean = TensorValue::new(self.dims.to_vec(), vec![mu as f32; volume]);
        ctx.observe(&Distribution::IndependentNormal { mean, std: self.sigma }, Self::OBSERVE_NAME);
        Value::Real(mu)
    }

    fn name(&self) -> &str {
        "voxel_mean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::{Executor, TraceTypeId};
    use std::collections::HashSet;

    #[test]
    fn gaussian_posterior_formula() {
        let m = GaussianUnknownMean::standard();
        // With no observations, posterior = prior.
        let (mean, std) = m.posterior(&[]);
        assert!((mean - m.mu0).abs() < 1e-12);
        assert!((std - m.sigma0).abs() < 1e-12);
        // With many identical observations, posterior concentrates there.
        let ys = vec![1.5; 1000];
        let (mean, std) = m.posterior(&ys);
        assert!((mean - 1.5).abs() < 0.01);
        assert!(std < 0.05);
    }

    #[test]
    fn branching_produces_distinct_trace_types() {
        let mut m = BranchingModel::standard();
        let mut types: HashSet<TraceTypeId> = HashSet::new();
        for seed in 0..50 {
            types.insert(Executor::sample_prior(&mut m, seed).trace_type());
        }
        assert_eq!(types.len(), 3, "one trace type per branch");
    }

    #[test]
    fn rejection_model_accepts_below_threshold() {
        let mut m = RejectionModel::standard();
        for seed in 0..30 {
            let t = Executor::sample_prior(&mut m, seed);
            let accepted = t.result.as_f64();
            assert!(accepted < m.p, "accepted u must be < p");
            // Trace type is the same regardless of how many rejections happened
            // (replaced draws are excluded from the type).
            assert_eq!(t.num_controlled(), 0);
        }
    }

    /// The exact posteriors behind the learnability oracles' floor are
    /// normalized — the discrete ones sum to one over their outcomes, the
    /// continuous ones integrate to one — and a Normal prior's is the
    /// conjugate posterior of `GaussianUnknownMean` with one observation
    /// per voxel.
    #[test]
    fn voxel_mean_posteriors_are_normalized_and_conjugate() {
        let y_mean = 0.37;
        for prior in [
            Distribution::Normal { mean: 0.0, std: 1.0 },
            Distribution::Uniform { low: -1.0, high: 1.0 },
            Distribution::Categorical { probs: vec![0.2, 0.3, 0.5] },
            Distribution::Bernoulli { p: 0.3 },
        ] {
            let m = VoxelMeanModel::oracle(prior.clone());
            let density = |mu: f64| (-m.neg_log_posterior(mu, y_mean).unwrap()).exp();
            let mass: f64 = match prior.num_categories() {
                Some(k) => (0..k).map(|j| density(j as f64)).sum(),
                None => {
                    let (lo, hi) = prior.support().unwrap_or((-4.0, 4.0));
                    let steps = 20_000;
                    let h = (hi - lo) / steps as f64;
                    (0..steps).map(|i| density(lo + (i as f64 + 0.5) * h) * h).sum()
                }
            };
            assert!((mass - 1.0).abs() < 1e-6, "{prior:?}: mass {mass}");
        }
        let m = VoxelMeanModel::oracle(Distribution::Normal { mean: 0.0, std: 1.0 });
        let n = m.dims.iter().product();
        let conjugate = GaussianUnknownMean { mu0: 0.0, sigma0: 1.0, sigma: m.sigma, n_obs: n };
        let (mean, std) = conjugate.posterior(&vec![y_mean; n]);
        let expect = -Distribution::Normal { mean, std }.log_prob(&Value::Real(0.5));
        assert!((m.neg_log_posterior(0.5, y_mean).unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn gmm_samples_both_modes() {
        let mut m = GmmModel::standard();
        let mut saw_neg = false;
        let mut saw_pos = false;
        for seed in 0..40 {
            let x = Executor::sample_prior(&mut m, seed).result.as_f64();
            if x < 0.0 {
                saw_neg = true;
            } else {
                saw_pos = true;
            }
        }
        assert!(saw_neg && saw_pos);
    }
}
