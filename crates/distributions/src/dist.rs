//! The serializable distribution vocabulary of the PPX protocol.
//!
//! [`Distribution`] is a *spec*: a plain-data enum that can cross the wire,
//! be stored in traces, and be evaluated (sampled / scored) on either side of
//! the protocol. This mirrors the paper's "language-agnostic definitions of
//! common probability distributions" (§4.1).

use crate::math::{ln_gamma, log_normal_cdf_diff, log_sum_exp, normal_cdf, normal_log_pdf, LN_2PI};
use crate::sampling;
use crate::value::{TensorValue, Value};
use rand::Rng;

/// A distribution specification: plain data, shared across protocol, traces,
/// inference engines, and proposal layers.
#[derive(Clone, Debug, PartialEq)]
pub enum Distribution {
    /// Continuous uniform on [low, high).
    Uniform { low: f64, high: f64 },
    /// Normal with mean and standard deviation.
    Normal { mean: f64, std: f64 },
    /// Normal truncated to [low, high].
    TruncatedNormal { mean: f64, std: f64, low: f64, high: f64 },
    /// Exponential with rate λ.
    Exponential { rate: f64 },
    /// Beta(α, β) on (0, 1).
    Beta { alpha: f64, beta: f64 },
    /// Gamma with shape k and rate λ (mean k/λ).
    Gamma { shape: f64, rate: f64 },
    /// Poisson with the given rate.
    Poisson { rate: f64 },
    /// Bernoulli with success probability p (values are Bool).
    Bernoulli { p: f64 },
    /// Categorical over `probs.len()` outcomes (values are Int indices).
    Categorical { probs: Vec<f64> },
    /// Mixture of truncated normals sharing a common support — the proposal
    /// family used by IC for uniform-prior latents (paper §4.3).
    MixtureTruncatedNormal {
        weights: Vec<f64>,
        means: Vec<f64>,
        stds: Vec<f64>,
        low: f64,
        high: f64,
    },
    /// Independent Normal(mean_i, std) over every element of a tensor —
    /// the per-voxel detector likelihood.
    IndependentNormal { mean: TensorValue, std: f64 },
}

impl Distribution {
    /// Draw a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Value {
        match self {
            Distribution::Uniform { low, high } => {
                Value::Real(low + rng.gen::<f64>() * (high - low))
            }
            Distribution::Normal { mean, std } => {
                Value::Real(mean + std * sampling::standard_normal(rng))
            }
            Distribution::TruncatedNormal { mean, std, low, high } => {
                let a = (low - mean) / std;
                let b = (high - mean) / std;
                Value::Real(mean + std * sampling::truncated_standard_normal(rng, a, b))
            }
            Distribution::Exponential { rate } => {
                let u: f64 = rng.gen::<f64>().max(1e-300);
                Value::Real(-u.ln() / rate)
            }
            Distribution::Beta { alpha, beta } => Value::Real(sampling::beta(rng, *alpha, *beta)),
            Distribution::Gamma { shape, rate } => {
                Value::Real(sampling::standard_gamma(rng, *shape) / rate)
            }
            Distribution::Poisson { rate } => Value::Int(sampling::poisson(rng, *rate)),
            Distribution::Bernoulli { p } => Value::Bool(rng.gen::<f64>() < *p),
            Distribution::Categorical { probs } => {
                Value::Int(sampling::categorical(rng, probs) as i64)
            }
            Distribution::MixtureTruncatedNormal { weights, means, stds, low, high } => {
                let k = sampling::categorical(rng, weights);
                let a = (low - means[k]) / stds[k];
                let b = (high - means[k]) / stds[k];
                Value::Real(means[k] + stds[k] * sampling::truncated_standard_normal(rng, a, b))
            }
            Distribution::IndependentNormal { mean, std } => {
                let data: Vec<f32> = mean
                    .data
                    .iter()
                    .map(|&m| (m as f64 + std * sampling::standard_normal(rng)) as f32)
                    .collect();
                TensorValue::new(mean.shape.clone(), data).into()
            }
        }
    }

    /// Log-probability (density or mass) of `value` under this distribution.
    ///
    /// Returns `-inf` for values outside the support.
    pub fn log_prob(&self, value: &Value) -> f64 {
        match self {
            Distribution::Uniform { low, high } => {
                let x = value.as_f64();
                if x >= *low && x < *high {
                    -(high - low).ln()
                } else {
                    f64::NEG_INFINITY
                }
            }
            Distribution::Normal { mean, std } => {
                let z = (value.as_f64() - mean) / std;
                normal_log_pdf(z) - std.ln()
            }
            Distribution::TruncatedNormal { mean, std, low, high } => {
                let x = value.as_f64();
                if x < *low || x > *high {
                    return f64::NEG_INFINITY;
                }
                let a = (low - mean) / std;
                let b = (high - mean) / std;
                let z = (x - mean) / std;
                normal_log_pdf(z) - std.ln() - log_normal_cdf_diff(a, b)
            }
            Distribution::Exponential { rate } => {
                let x = value.as_f64();
                if x < 0.0 {
                    f64::NEG_INFINITY
                } else {
                    rate.ln() - rate * x
                }
            }
            Distribution::Beta { alpha, beta } => {
                let x = value.as_f64();
                if x <= 0.0 || x >= 1.0 {
                    return f64::NEG_INFINITY;
                }
                (alpha - 1.0) * x.ln() + (beta - 1.0) * (1.0 - x).ln() + ln_gamma(alpha + beta)
                    - ln_gamma(*alpha)
                    - ln_gamma(*beta)
            }
            Distribution::Gamma { shape, rate } => {
                let x = value.as_f64();
                if x <= 0.0 {
                    return f64::NEG_INFINITY;
                }
                shape * rate.ln() + (shape - 1.0) * x.ln() - rate * x - ln_gamma(*shape)
            }
            Distribution::Poisson { rate } => {
                let k = value.as_i64();
                if k < 0 {
                    return f64::NEG_INFINITY;
                }
                let kf = k as f64;
                kf * rate.ln() - rate - ln_gamma(kf + 1.0)
            }
            Distribution::Bernoulli { p } => {
                let b = match value {
                    Value::Bool(b) => *b,
                    other => other.as_i64() != 0,
                };
                if b {
                    p.max(1e-300).ln()
                } else {
                    (1.0 - p).max(1e-300).ln()
                }
            }
            Distribution::Categorical { probs } => {
                let i = value.as_i64();
                if i < 0 || i as usize >= probs.len() {
                    return f64::NEG_INFINITY;
                }
                let total: f64 = probs.iter().sum();
                (probs[i as usize] / total).max(1e-300).ln()
            }
            Distribution::MixtureTruncatedNormal { weights, means, stds, low, high } => {
                let x = value.as_f64();
                if x < *low || x > *high {
                    return f64::NEG_INFINITY;
                }
                let wsum: f64 = weights.iter().sum();
                let comps: Vec<f64> = (0..weights.len())
                    .map(|k| {
                        let a = (low - means[k]) / stds[k];
                        let b = (high - means[k]) / stds[k];
                        let z = (x - means[k]) / stds[k];
                        (weights[k] / wsum).max(1e-300).ln() + normal_log_pdf(z)
                            - stds[k].ln()
                            - log_normal_cdf_diff(a, b)
                    })
                    .collect();
                log_sum_exp(&comps)
            }
            Distribution::IndependentNormal { mean, std } => {
                let t = value.as_tensor();
                assert_eq!(t.shape, mean.shape, "IndependentNormal shape mismatch");
                let inv = 1.0 / std;
                let mut acc = 0.0f64;
                for (x, m) in t.data.iter().zip(mean.data.iter()) {
                    let z = (*x as f64 - *m as f64) * inv;
                    acc += -0.5 * z * z;
                }
                acc - t.data.len() as f64 * (std.ln() + 0.5 * LN_2PI)
            }
        }
    }

    /// Mean of the distribution (elementwise mean for tensors as a Value).
    pub fn mean(&self) -> f64 {
        match self {
            Distribution::Uniform { low, high } => 0.5 * (low + high),
            Distribution::Normal { mean, .. } => *mean,
            Distribution::TruncatedNormal { mean, std, low, high } => {
                let a = (low - mean) / std;
                let b = (high - mean) / std;
                let z = normal_cdf(b) - normal_cdf(a);
                mean + std * (crate::math::normal_pdf(a) - crate::math::normal_pdf(b))
                    / z.max(1e-300)
            }
            Distribution::Exponential { rate } => 1.0 / rate,
            Distribution::Beta { alpha, beta } => alpha / (alpha + beta),
            Distribution::Gamma { shape, rate } => shape / rate,
            Distribution::Poisson { rate } => *rate,
            Distribution::Bernoulli { p } => *p,
            Distribution::Categorical { probs } => {
                let total: f64 = probs.iter().sum();
                probs.iter().enumerate().map(|(i, &p)| i as f64 * p / total).sum()
            }
            Distribution::MixtureTruncatedNormal { weights, means, stds, low, high } => {
                let wsum: f64 = weights.iter().sum();
                (0..weights.len())
                    .map(|k| {
                        let comp = Distribution::TruncatedNormal {
                            mean: means[k],
                            std: stds[k],
                            low: *low,
                            high: *high,
                        };
                        weights[k] / wsum * comp.mean()
                    })
                    .sum()
            }
            Distribution::IndependentNormal { mean, .. } => {
                mean.data.iter().map(|&x| x as f64).sum::<f64>() / mean.len().max(1) as f64
            }
        }
    }

    /// Standard deviation (scalar distributions only; approximations for
    /// mixtures via the law of total variance).
    pub fn std(&self) -> f64 {
        match self {
            Distribution::Uniform { low, high } => (high - low) / 12f64.sqrt(),
            Distribution::Normal { std, .. } => *std,
            Distribution::TruncatedNormal { mean, std, low, high } => {
                let a = (low - mean) / std;
                let b = (high - mean) / std;
                let z = (normal_cdf(b) - normal_cdf(a)).max(1e-300);
                let pa = crate::math::normal_pdf(a);
                let pb = crate::math::normal_pdf(b);
                let term1 = 1.0 + (a * pa - b * pb) / z;
                let term2 = (pa - pb) / z;
                (std * std * (term1 - term2 * term2)).max(0.0).sqrt()
            }
            Distribution::Exponential { rate } => 1.0 / rate,
            Distribution::Beta { alpha, beta } => {
                let s = alpha + beta;
                (alpha * beta / (s * s * (s + 1.0))).sqrt()
            }
            Distribution::Gamma { shape, rate } => shape.sqrt() / rate,
            Distribution::Poisson { rate } => rate.sqrt(),
            Distribution::Bernoulli { p } => (p * (1.0 - p)).sqrt(),
            Distribution::Categorical { probs } => {
                let total: f64 = probs.iter().sum();
                let m = self.mean();
                probs
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (i as f64 - m).powi(2) * p / total)
                    .sum::<f64>()
                    .sqrt()
            }
            Distribution::MixtureTruncatedNormal { weights, means, stds, low, high } => {
                let wsum: f64 = weights.iter().sum();
                let m = self.mean();
                let mut v = 0.0;
                for k in 0..weights.len() {
                    let comp = Distribution::TruncatedNormal {
                        mean: means[k],
                        std: stds[k],
                        low: *low,
                        high: *high,
                    };
                    let cm = comp.mean();
                    let cs = comp.std();
                    v += weights[k] / wsum * (cs * cs + (cm - m).powi(2));
                }
                v.sqrt()
            }
            Distribution::IndependentNormal { std, .. } => *std,
        }
    }

    /// True for distributions over a countable support.
    pub fn is_discrete(&self) -> bool {
        matches!(
            self,
            Distribution::Poisson { .. }
                | Distribution::Bernoulli { .. }
                | Distribution::Categorical { .. }
        )
    }

    /// Support bounds for scalar continuous distributions, if bounded.
    pub fn support(&self) -> Option<(f64, f64)> {
        match self {
            Distribution::Uniform { low, high } => Some((*low, *high)),
            Distribution::TruncatedNormal { low, high, .. } => Some((*low, *high)),
            Distribution::Beta { .. } => Some((0.0, 1.0)),
            Distribution::MixtureTruncatedNormal { low, high, .. } => Some((*low, *high)),
            _ => None,
        }
    }

    /// A stable short name for the distribution family. Becomes part of the
    /// sample address, exactly as pyprob appends the distribution type to the
    /// stack-frame address.
    pub fn kind(&self) -> &'static str {
        match self {
            Distribution::Uniform { .. } => "Uniform",
            Distribution::Normal { .. } => "Normal",
            Distribution::TruncatedNormal { .. } => "TruncatedNormal",
            Distribution::Exponential { .. } => "Exponential",
            Distribution::Beta { .. } => "Beta",
            Distribution::Gamma { .. } => "Gamma",
            Distribution::Poisson { .. } => "Poisson",
            Distribution::Bernoulli { .. } => "Bernoulli",
            Distribution::Categorical { .. } => "Categorical",
            Distribution::MixtureTruncatedNormal { .. } => "MixtureTruncatedNormal",
            Distribution::IndependentNormal { .. } => "IndependentNormal",
        }
    }

    /// Number of categories for categorical-like distributions.
    pub fn num_categories(&self) -> Option<usize> {
        match self {
            Distribution::Categorical { probs } => Some(probs.len()),
            Distribution::Bernoulli { .. } => Some(2),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_density_integrates(dist: &Distribution, lo: f64, hi: f64, tol: f64) {
        // Trapezoid integration of exp(log_prob) over [lo, hi].
        let n = 20_000;
        let h = (hi - lo) / n as f64;
        let mut acc = 0.0;
        for i in 0..=n {
            let x = lo + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            let lp = dist.log_prob(&Value::Real(x));
            if lp.is_finite() {
                acc += w * lp.exp();
            }
        }
        let integral = acc * h;
        assert!((integral - 1.0).abs() < tol, "{:?} integrates to {integral}", dist.kind());
    }

    #[test]
    fn densities_normalize() {
        check_density_integrates(&Distribution::Uniform { low: -1.0, high: 3.0 }, -1.0, 3.0, 1e-3);
        check_density_integrates(&Distribution::Normal { mean: 1.0, std: 2.0 }, -19.0, 21.0, 1e-6);
        check_density_integrates(
            &Distribution::TruncatedNormal { mean: 0.5, std: 1.0, low: -1.0, high: 2.0 },
            -1.0,
            2.0,
            1e-6,
        );
        check_density_integrates(&Distribution::Exponential { rate: 1.5 }, 0.0, 40.0, 1e-6);
        check_density_integrates(
            &Distribution::Beta { alpha: 2.0, beta: 3.0 },
            1e-9,
            1.0 - 1e-9,
            1e-3,
        );
        check_density_integrates(&Distribution::Gamma { shape: 3.0, rate: 2.0 }, 1e-9, 40.0, 1e-6);
        check_density_integrates(
            &Distribution::MixtureTruncatedNormal {
                weights: vec![0.3, 0.7],
                means: vec![-0.5, 1.2],
                stds: vec![0.4, 0.8],
                low: -2.0,
                high: 3.0,
            },
            -2.0,
            3.0,
            1e-6,
        );
    }

    #[test]
    fn pmfs_normalize() {
        let cat = Distribution::Categorical { probs: vec![0.1, 0.2, 0.7] };
        let s: f64 = (0..3).map(|i| cat.log_prob(&Value::Int(i)).exp()).sum();
        assert!((s - 1.0).abs() < 1e-12);

        let pois = Distribution::Poisson { rate: 3.0 };
        let s: f64 = (0..200).map(|k| pois.log_prob(&Value::Int(k)).exp()).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_moments_match_mean_std() {
        let mut rng = StdRng::seed_from_u64(7);
        let dists = vec![
            Distribution::Uniform { low: -2.0, high: 5.0 },
            Distribution::Normal { mean: 3.0, std: 0.7 },
            Distribution::TruncatedNormal { mean: 1.0, std: 2.0, low: 0.0, high: 3.0 },
            Distribution::Exponential { rate: 2.0 },
            Distribution::Beta { alpha: 2.0, beta: 5.0 },
            Distribution::Gamma { shape: 4.0, rate: 1.5 },
            Distribution::MixtureTruncatedNormal {
                weights: vec![0.5, 0.5],
                means: vec![0.0, 2.0],
                stds: vec![0.5, 0.5],
                low: -1.0,
                high: 3.0,
            },
        ];
        for d in dists {
            let n = 120_000;
            let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng).as_f64()).collect();
            let m = xs.iter().sum::<f64>() / n as f64;
            let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
            assert!(
                (m - d.mean()).abs() < 0.05 * d.std().max(0.2),
                "{}: sample mean {m} vs {}",
                d.kind(),
                d.mean()
            );
            assert!(
                (v.sqrt() - d.std()).abs() < 0.05 * d.std().max(0.2),
                "{}: sample std {} vs {}",
                d.kind(),
                v.sqrt(),
                d.std()
            );
        }
    }

    #[test]
    fn out_of_support_is_neg_inf() {
        assert_eq!(
            Distribution::Uniform { low: 0.0, high: 1.0 }.log_prob(&Value::Real(2.0)),
            f64::NEG_INFINITY
        );
        assert_eq!(
            Distribution::Exponential { rate: 1.0 }.log_prob(&Value::Real(-0.1)),
            f64::NEG_INFINITY
        );
        assert_eq!(
            Distribution::Categorical { probs: vec![0.5, 0.5] }.log_prob(&Value::Int(5)),
            f64::NEG_INFINITY
        );
        assert_eq!(
            Distribution::TruncatedNormal { mean: 0.0, std: 1.0, low: -1.0, high: 1.0 }
                .log_prob(&Value::Real(1.5)),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn independent_normal_matches_sum_of_scalars() {
        let mean = TensorValue::new(vec![2, 2], vec![0.0, 1.0, -1.0, 2.0]);
        let d = Distribution::IndependentNormal { mean: mean.clone(), std: 0.5 };
        let v = TensorValue::new(vec![2, 2], vec![0.1, 0.9, -1.2, 2.5]);
        let lp = d.log_prob(&Value::from(v.clone()));
        let mut expect = 0.0;
        for i in 0..4 {
            expect += Distribution::Normal { mean: mean.data[i] as f64, std: 0.5 }
                .log_prob(&Value::Real(v.data[i] as f64));
        }
        assert!((lp - expect).abs() < 1e-9, "{lp} vs {expect}");
    }

    #[test]
    fn truncated_normal_sampling_stays_in_support() {
        let mut rng = StdRng::seed_from_u64(8);
        let d = Distribution::MixtureTruncatedNormal {
            weights: vec![1.0, 2.0],
            means: vec![-5.0, 5.0],
            stds: vec![1.0, 1.0],
            low: -1.0,
            high: 1.0,
        };
        for _ in 0..5000 {
            let x = d.sample(&mut rng).as_f64();
            assert!((-1.0..=1.0).contains(&x));
            assert!(d.log_prob(&Value::Real(x)).is_finite());
        }
    }
}
