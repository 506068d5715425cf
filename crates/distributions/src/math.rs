//! Special functions used by the distribution implementations.
//!
//! Everything here is implemented from scratch (no external special-function
//! crates): log-gamma via the Lanczos approximation, the error function via a
//! high-accuracy rational approximation, the standard normal CDF and its
//! inverse (Acklam's algorithm with one Halley refinement step).

/// Natural log of 2π.
pub const LN_2PI: f64 = 1.837_877_066_409_345_6;
/// 1/sqrt(2π).
pub const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
/// sqrt(2).
pub const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Log-gamma function via the Lanczos approximation (g=7, n=9).
///
/// Accurate to ~15 significant digits for positive arguments; uses the
/// reflection formula for x < 0.5.
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * LN_2PI + (x + 0.5) * t.ln() - t + a.ln()
}

/// Error function via the rational approximation of W. J. Cody style
/// (max abs error ~1.2e-7 with the classic Abramowitz–Stegun 7.1.26 would be
/// too coarse; we use a higher-order expansion accurate to ~1e-12).
pub fn erf(x: f64) -> f64 {
    // Use the relation erf(x) = 1 - erfc(x) with a high accuracy erfc.
    if x >= 0.0 {
        1.0 - erfc(x)
    } else {
        erfc(-x) - 1.0
    }
}

/// Complementary error function, accurate to ~1e-12 relative for x in [0, 30].
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    // For small x use the series for erf; for larger x a continued-fraction
    // style asymptotic rational approximation (Numerical Recipes erfc_cheb).
    if x < 0.5 {
        return 1.0 - erf_series(x);
    }
    // Chebyshev fit from Numerical Recipes (erfccheb), |err| < 1.2e-16 claimed
    // for the double-precision coefficient set below.
    let z = x;
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_631e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0f64;
    let mut dd = 0.0f64;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp()
}

/// Maclaurin series for erf, used for |x| < 0.5 where it converges quickly.
fn erf_series(x: f64) -> f64 {
    let two_over_sqrt_pi = std::f64::consts::FRAC_2_SQRT_PI;
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 0u32;
    loop {
        n += 1;
        term *= -x2 / n as f64;
        let add = term / (2 * n + 1) as f64;
        sum += add;
        if add.abs() < 1e-17 * sum.abs().max(1e-300) {
            break;
        }
        if n > 60 {
            break;
        }
    }
    two_over_sqrt_pi * sum
}

/// Standard normal cumulative distribution function Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Standard normal density φ(x).
pub fn normal_pdf(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Log of the standard normal density.
pub fn normal_log_pdf(x: f64) -> f64 {
    -0.5 * x * x - 0.5 * LN_2PI
}

/// Inverse standard normal CDF (quantile function) via Acklam's rational
/// approximation refined with one step of Halley's method, giving near
/// machine-precision accuracy over (0, 1).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (0.5 * LN_2PI).exp() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Numerically stable log(sum(exp(xs))).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// log(Φ(b) - Φ(a)) computed stably, including far-tail cases.
pub fn log_normal_cdf_diff(a: f64, b: f64) -> f64 {
    debug_assert!(a <= b);
    if a > 0.0 {
        // Both in the upper tail: use symmetry with erfc for stability.
        let la = log_erfc(a / SQRT_2) - std::f64::consts::LN_2;
        let lb = log_erfc(b / SQRT_2) - std::f64::consts::LN_2;
        log_sub_exp(la, lb)
    } else if b < 0.0 {
        log_normal_cdf_diff(-b, -a)
    } else {
        let pa = normal_cdf(a);
        let pb = normal_cdf(b);
        (pb - pa).max(1e-300).ln()
    }
}

fn log_erfc(x: f64) -> f64 {
    if x < 20.0 {
        erfc(x).max(1e-300).ln()
    } else {
        // Asymptotic expansion: erfc(x) ~ exp(-x^2) / (x sqrt(pi)) (1 - 1/(2x^2))
        -x * x - x.ln() - 0.5 * std::f64::consts::PI.ln() + (1.0 - 0.5 / (x * x)).ln_1p()
    }
}

/// Stable log(exp(a) - exp(b)) for a >= b.
fn log_sub_exp(a: f64, b: f64) -> f64 {
    debug_assert!(a >= b);
    if a == b {
        return f64::NEG_INFINITY;
    }
    a + (-((b - a).exp())).ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=sqrt(pi)
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-11);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-11);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-15);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-10);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-10);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-10);
        assert!((erf(5.0) - 0.999_999_999_998_462_5).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.0, 0.5, 1.0, 2.5, 4.0] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-12);
        }
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((normal_cdf(1.96) - 0.975_002_104_851_780_4).abs() < 1e-9);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[1e-10, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            let x = normal_quantile(p);
            assert!(
                (normal_cdf(x) - p).abs() < 1e-12 * (1.0 + 1.0 / p.min(1.0 - p)),
                "p={p}, x={x}, cdf={}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    fn log_sum_exp_matches_naive() {
        let xs = [0.1, -2.0, 3.0, 1.5];
        let naive: f64 = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        // Extreme values do not overflow.
        let big = log_sum_exp(&[1000.0, 1000.0]);
        assert!((big - (1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
    }

    #[test]
    fn cdf_diff_far_tail_is_finite() {
        let v = log_normal_cdf_diff(10.0, 11.0);
        assert!(v.is_finite());
        // Compare against direct erfc-based computation.
        let direct = (0.5 * erfc(10.0 / SQRT_2) - 0.5 * erfc(11.0 / SQRT_2)).ln();
        assert!((v - direct).abs() < 1e-6);
    }
}
