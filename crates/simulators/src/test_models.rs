//! Small analytic models used to validate the inference engines.
//!
//! Each model has a property we can check exactly: the conjugate Gaussian
//! has a closed-form posterior; the branching model has enumerable trace
//! types; the rejection model exercises `replace=True`; the GMM has a
//! bimodal posterior that stresses the mixture proposal heads.

use etalumis_core::{ProbProgram, SimCtx, SimCtxExt};
use etalumis_distributions::{Distribution, Value};

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
