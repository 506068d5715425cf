//! Elementwise activations and row-wise (log-)softmax.
//!
//! The sigmoid/tanh sweeps route through [`crate::simd`]: a shared
//! polynomial exp evaluated lane-identically by the AVX2 and scalar
//! backends, so activation outputs are bit-identical across dispatch
//! choices (and within ~1e-7 of libm).

use crate::simd::Kernels;
use crate::tensor::Tensor;

/// ReLU forward.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// ReLU forward over a slice, in place (the allocation-free inference form).
pub fn relu_in_place(xs: &mut [f32]) {
    for v in xs {
        *v = v.max(0.0);
    }
}

/// ReLU backward: `grad * 1[x > 0]` (uses the forward *input*).
pub fn relu_backward(x: &Tensor, grad: &Tensor) -> Tensor {
    x.zip_map(grad, |xv, g| if xv > 0.0 { g } else { 0.0 })
}

/// Logistic sigmoid forward.
pub fn sigmoid(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    Kernels::get().sigmoid(y.data_mut());
    y
}

/// tanh forward.
pub fn tanh(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    Kernels::get().tanh(y.data_mut());
    y
}

/// Numerically stable row-wise softmax of a 2D tensor.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    let n = x.cols();
    if n > 0 {
        for row in out.data_mut().chunks_mut(n) {
            softmax_in_place(row);
        }
    }
    out
}

/// Numerically stable softmax of one row, in place.
pub fn softmax_in_place(row: &mut [f32]) {
    let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max); // etalumis: allow(float-reduction, reason = "sequential fixed-order reduction over one row; order is shape-invariant")
    let mut total = 0.0f32;
    for v in row.iter_mut() {
        let e = (*v - mx).exp();
        *v = e;
        total += e;
    }
    let inv = 1.0 / total;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Numerically stable row-wise log-softmax.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    let (m, n) = (x.rows(), x.cols());
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        let row = x.row(i);
        let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max); // etalumis: allow(float-reduction, reason = "sequential fixed-order reduction over one row; order is shape-invariant")
        let lse = row.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx; // etalumis: allow(float-reduction, reason = "sequential fixed-order reduction over one row; order is shape-invariant")
        for (o, &v) in out.row_mut(i).iter_mut().zip(row.iter()) {
            *o = v - lse;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_check(
        f: impl Fn(&Tensor) -> Tensor,
        bwd: impl Fn(&Tensor, &Tensor) -> Tensor,
        x: &Tensor,
    ) {
        // Loss = sum(f(x)); analytic grad vs central differences.
        let ones = Tensor::full(&[x.rows(), x.cols()], 1.0);
        let g = bwd(x, &ones);
        let eps = 1e-3f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((f(&xp).sum() - f(&xm).sum()) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - g.data()[i]).abs() < 5e-3 * (1.0 + num.abs()),
                "i={i}: {num} vs {}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn activation_gradients_match_fd() {
        let x = Tensor::from_vec(&[2, 3], vec![-1.5, -0.2, 0.3, 1.0, 2.0, -3.0]);
        fd_check(relu, relu_backward, &x);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 100.0]);
        let y = softmax_rows(&x);
        for i in 0..2 {
            let s: f32 = y.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Huge logits stay finite.
        assert!(y.data().iter().all(|v| v.is_finite()));
        let ls = log_softmax_rows(&x);
        for i in 0..y.numel() {
            assert!((ls.data()[i].exp() - y.data()[i]).abs() < 1e-6);
        }
    }
}
