//! Empirical (weighted) posteriors over execution traces.
//!
//! Inference engines return a [`WeightedTraces`] collection: traces with
//! log-importance-weights (uniform for MCMC chains). All downstream analysis
//! — means, histograms, effective sample sizes, Figure 8 panels — works on
//! this representation.

use etalumis_core::Trace;
use etalumis_distributions::math::log_sum_exp;

/// A weighted empirical distribution over traces.
#[derive(Debug, Default)]
pub struct WeightedTraces {
    /// The traces.
    pub traces: Vec<Trace>,
    /// Unnormalized log-weights, aligned with `traces`.
    pub log_weights: Vec<f64>,
}

impl WeightedTraces {
    /// Build from traces and weights.
    pub fn new(traces: Vec<Trace>, log_weights: Vec<f64>) -> Self {
        assert_eq!(traces.len(), log_weights.len());
        Self { traces, log_weights }
    }

    /// Build from an unweighted chain (MCMC output).
    pub fn unweighted(traces: Vec<Trace>) -> Self {
        let n = traces.len();
        Self { traces, log_weights: vec![0.0; n] }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Normalized weights (sum to 1). Degenerate all `-inf` weight sets
    /// return uniform weights.
    pub fn normalized_weights(&self) -> Vec<f64> {
        let lse = log_sum_exp(&self.log_weights);
        if !lse.is_finite() {
            let n = self.len().max(1);
            return vec![1.0 / n as f64; self.len()];
        }
        self.log_weights.iter().map(|&lw| (lw - lse).exp()).collect()
    }

    /// Effective sample size of the importance weights: (Σw)²/Σw².
    pub fn effective_sample_size(&self) -> f64 {
        let w = self.normalized_weights();
        let denom: f64 = w.iter().map(|&x| x * x).sum();
        if denom <= 0.0 {
            0.0
        } else {
            1.0 / denom
        }
    }

    /// Log marginal-likelihood estimate log(1/N Σ w_i) (IS evidence).
    pub fn log_evidence(&self) -> f64 {
        log_sum_exp(&self.log_weights) - (self.len() as f64).ln()
    }

    /// Weighted expectation of a scalar function of the trace.
    pub fn expect(&self, f: impl Fn(&Trace) -> f64) -> f64 {
        let w = self.normalized_weights();
        self.traces.iter().zip(w.iter()).map(|(t, &wi)| wi * f(t)).sum()
    }

    /// Weighted mean and standard deviation of a scalar function.
    pub fn mean_std(&self, f: impl Fn(&Trace) -> f64) -> (f64, f64) {
        let w = self.normalized_weights();
        let vals: Vec<f64> = self.traces.iter().map(&f).collect();
        let mean: f64 = vals.iter().zip(w.iter()).map(|(&v, &wi)| wi * v).sum();
        let var: f64 = vals.iter().zip(w.iter()).map(|(&v, &wi)| wi * (v - mean).powi(2)).sum();
        (mean, var.max(0.0).sqrt())
    }

    /// Extract a scalar series by trace-entry or tag name (first match).
    pub fn series(&self, name: &str) -> Vec<f64> {
        self.traces
            .iter()
            .map(|t| t.value_by_name(name).map(|v| v.as_f64()).unwrap_or(f64::NAN))
            .collect()
    }

    /// Weighted histogram of a scalar function over `[lo, hi)` with `bins` bins.
    pub fn histogram(&self, f: impl Fn(&Trace) -> f64, lo: f64, hi: f64, bins: usize) -> Histogram {
        let w = self.normalized_weights();
        let mut h = Histogram::new(lo, hi, bins);
        for (t, &wi) in self.traces.iter().zip(w.iter()) {
            h.add(f(t), wi);
        }
        h
    }
}

/// A fixed-range weighted histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Upper edge of the last bin.
    pub hi: f64,
    /// Per-bin accumulated weight.
    pub counts: Vec<f64>,
    /// Weight that fell outside `[lo, hi)`.
    pub overflow: f64,
}

impl Histogram {
    /// New empty histogram.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo);
        Self { lo, hi, counts: vec![0.0; bins], overflow: 0.0 }
    }

    /// Accumulate one weighted observation.
    pub fn add(&mut self, x: f64, w: f64) {
        if !x.is_finite() || x < self.lo || x >= self.hi {
            self.overflow += w;
            return;
        }
        let bins = self.counts.len();
        let idx = (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize;
        self.counts[idx.min(bins - 1)] += w;
    }

    /// Total accumulated in-range weight.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Probability-normalized copy (counts sum to 1 over in-range mass).
    pub fn normalized(&self) -> Histogram {
        let t = self.total();
        let mut h = self.clone();
        if t > 0.0 {
            for c in &mut h.counts {
                *c /= t;
            }
        }
        h
    }

    /// Bin centers.
    pub fn centers(&self) -> Vec<f64> {
        let n = self.counts.len();
        let w = (self.hi - self.lo) / n as f64;
        (0..n).map(|i| self.lo + (i as f64 + 0.5) * w).collect()
    }

    /// Render an ASCII bar chart (for the figure harnesses).
    pub fn ascii(&self, width: usize) -> String {
        let h = self.normalized();
        let max = h.counts.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        let mut out = String::new();
        let centers = h.centers();
        for (i, &c) in h.counts.iter().enumerate() {
            let bar = "#".repeat(((c / max) * width as f64).round() as usize);
            out.push_str(&format!("{:>9.3} | {:<6.3} {}\n", centers[i], c, bar));
        }
        out
    }
}

/// Total variation distance between two normalized histograms on the same
/// support/binning: ½ Σ |p_i − q_i| (includes overflow mass mismatch).
pub fn total_variation(a: &Histogram, b: &Histogram) -> f64 {
    assert_eq!(a.counts.len(), b.counts.len(), "histogram binning mismatch");
    let an = a.normalized();
    let bn = b.normalized();
    0.5 * an.counts.iter().zip(bn.counts.iter()).map(|(&p, &q)| (p - q).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::Trace;
    use etalumis_distributions::Value;

    fn trace_with_result(x: f64) -> Trace {
        Trace { result: Value::Real(x), ..Default::default() }
    }

    #[test]
    fn uniform_weights_average() {
        let wt = WeightedTraces::unweighted(vec![trace_with_result(1.0), trace_with_result(3.0)]);
        assert_eq!(wt.expect(|t| t.result.as_f64()), 2.0);
        assert_eq!(wt.effective_sample_size(), 2.0);
    }

    #[test]
    fn weighting_shifts_expectation() {
        let wt = WeightedTraces::new(
            vec![trace_with_result(0.0), trace_with_result(10.0)],
            vec![0.0, (9.0f64).ln()],
        );
        let m = wt.expect(|t| t.result.as_f64());
        assert!((m - 9.0).abs() < 1e-9);
        // Heavily skewed weights → ESS near 1.
        assert!(wt.effective_sample_size() < 1.5);
    }

    #[test]
    fn degenerate_weights_fall_back_to_uniform() {
        let wt = WeightedTraces::new(
            vec![trace_with_result(1.0), trace_with_result(2.0)],
            vec![f64::NEG_INFINITY, f64::NEG_INFINITY],
        );
        let w = wt.normalized_weights();
        assert_eq!(w, vec![0.5, 0.5]);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(0.5, 1.0);
        h.add(9.99, 2.0);
        h.add(11.0, 5.0);
        h.add(f64::NAN, 1.0);
        assert_eq!(h.counts[0], 1.0);
        assert_eq!(h.counts[4], 2.0);
        assert_eq!(h.overflow, 6.0);
        let n = h.normalized();
        assert!((n.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_variation_bounds() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let mut b = Histogram::new(0.0, 1.0, 2);
        a.add(0.1, 1.0);
        b.add(0.9, 1.0);
        assert!((total_variation(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(total_variation(&a, &a), 0.0);
    }

    #[test]
    fn mean_std_weighted() {
        let wt = WeightedTraces::unweighted((0..5).map(|i| trace_with_result(i as f64)).collect());
        let (m, s) = wt.mean_std(|t| t.result.as_f64());
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 2.0f64.sqrt()).abs() < 1e-9);
    }
}
