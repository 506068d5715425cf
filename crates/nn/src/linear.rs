//! Fully connected layers and small MLPs with manual backprop.
//!
//! Layers cache forward inputs on an internal stack, so one layer instance
//! can be applied several times per step (weight sharing across LSTM time
//! steps); backward calls must then happen in reverse order of the forwards.

use crate::param::{kaiming_uniform, Module, Parameter};
use etalumis_tensor::activations::{relu, relu_backward, relu_in_place};
use etalumis_tensor::gemm::{
    add_bias_rows, add_bias_rows_slice, col_sums, matmul, matmul_a_bt, matmul_at_b, matmul_into,
};
use etalumis_tensor::Tensor;
use rand::Rng;

/// y = x·W + b with W stored as [in, out].
#[derive(Clone)]
pub struct Linear {
    /// Weight matrix [in_dim, out_dim].
    pub w: Parameter,
    /// Bias vector `[out_dim]`.
    pub b: Parameter,
    cache: Vec<Tensor>,
}

impl Linear {
    /// New layer with Kaiming-uniform weights.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: Parameter::new(kaiming_uniform(rng, &[in_dim, out_dim])),
            b: Parameter::zeros(&[out_dim]),
            cache: Vec::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.shape()[0]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.shape()[1]
    }

    /// Forward pass on a [B, in] batch; caches the input for backward.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.in_dim(), "Linear input dim");
        let mut y = matmul(x, &self.w.value);
        add_bias_rows(&mut y, self.b.value.data());
        self.cache.push(x.clone());
        y
    }

    /// Forward without caching (inference-only path).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.in_dim(), "Linear input dim");
        let mut y = Tensor::zeros(&[x.rows(), self.out_dim()]);
        self.forward_into(x.data(), y.data_mut());
        y
    }

    /// [`Linear::forward_inference`] on row-major slices: `x` is `[B, in]`,
    /// `y` (`[B, out]`) is overwritten. Allocates nothing.
    pub fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        let (k, n) = (self.in_dim(), self.out_dim());
        matmul_into(x, self.w.value.data(), y, y.len() / n, k, n);
        add_bias_rows_slice(y, self.b.value.data(), n);
    }

    /// Backward: accumulates dW, db; returns dX. Pops the matching cache.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_returning_input(grad_out).0
    }

    /// [`Linear::backward`] that also hands back the cached input it popped.
    pub(crate) fn backward_returning_input(&mut self, grad_out: &Tensor) -> (Tensor, Tensor) {
        let x = self.cache.pop().expect("Linear::backward without forward"); // etalumis: allow(panic-freedom, reason = "backward without a matching forward is a call-order contract violation")
                                                                             // dW = xᵀ·g
        let dw = matmul_at_b(&x, grad_out);
        self.w.grad.add_assign(&dw);
        // db = column sums of g
        let db = col_sums(grad_out);
        for (g, d) in self.b.grad.data_mut().iter_mut().zip(db.iter()) {
            *g += d;
        }
        // dX = g·Wᵀ
        (matmul_a_bt(grad_out, &self.w.value), x)
    }

    /// Discard cached activations (e.g. after an inference-only forward).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

impl Module for Linear {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        f(&format!("{prefix}/w"), &mut self.w);
        f(&format!("{prefix}/b"), &mut self.b);
    }
}

/// Caller-owned activations of a cache-free [`Mlp2::forward_into`]: kept
/// across calls, a warm forward allocates nothing.
#[derive(Clone, Default)]
pub struct MlpScratch {
    hidden: Vec<f32>,
    out: Vec<f32>,
}

/// Two-layer perceptron with ReLU: the "two-layer NNs" used by the paper's
/// proposal layers (§4.3).
#[derive(Clone)]
pub struct Mlp2 {
    /// First linear layer.
    pub l1: Linear,
    /// Second linear layer.
    pub l2: Linear,
    relu_cache: Vec<Tensor>,
}

impl Mlp2 {
    /// New MLP in → hidden → out.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, hidden: usize, out_dim: usize) -> Self {
        Self {
            l1: Linear::new(rng, in_dim, hidden),
            l2: Linear::new(rng, hidden, out_dim),
            relu_cache: Vec::new(),
        }
    }

    /// Forward with caching.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.l1.forward(x);
        let a = relu(&h);
        self.relu_cache.push(h);
        self.l2.forward(&a)
    }

    /// Forward without caching on a row-major `[B, in]` slice; the `[B, out]`
    /// result lives in `scratch` until the next call (mutable, so a caller
    /// can finish it in place, e.g. with a softmax).
    pub fn forward_into<'s>(&self, x: &[f32], scratch: &'s mut MlpScratch) -> &'s mut [f32] {
        let rows = x.len() / self.l1.in_dim();
        scratch.hidden.resize(rows * self.l1.out_dim(), 0.0);
        scratch.out.resize(rows * self.l2.out_dim(), 0.0);
        self.l1.forward_into(x, &mut scratch.hidden);
        relu_in_place(&mut scratch.hidden);
        self.l2.forward_into(&scratch.hidden, &mut scratch.out);
        &mut scratch.out
    }

    /// Backward; returns dX.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let da = self.l2.backward(grad_out);
        let h = self.relu_cache.pop().expect("Mlp2::backward without forward"); // etalumis: allow(panic-freedom, reason = "backward without a matching forward is a call-order contract violation")
        let dh = relu_backward(&h, &da);
        self.l1.backward(&dh)
    }

    /// Drop cached activations.
    pub fn clear_cache(&mut self) {
        self.l1.clear_cache();
        self.l2.clear_cache();
        self.relu_cache.clear();
    }
}

impl Module for Mlp2 {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        self.l1.visit_params(&format!("{prefix}/l1"), f);
        self.l2.visit_params(&format!("{prefix}/l2"), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_tensor<R: Rng>(rng: &mut R, shape: &[usize]) -> Tensor {
        Tensor::from_fn(shape, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn linear_gradients_match_fd() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(&mut rng, 4, 3);
        let x = rand_tensor(&mut rng, &[5, 4]);
        // Loss = sum(y).
        let _ = lin.forward(&x);
        let g = Tensor::full(&[5, 3], 1.0);
        let dx = lin.backward(&g);
        let eps = 1e-3f32;
        // Check dW.
        for &i in &[0usize, 5, 11] {
            let orig = lin.w.value.data()[i];
            lin.w.value.data_mut()[i] = orig + eps;
            let fp = lin.forward_inference(&x).sum();
            lin.w.value.data_mut()[i] = orig - eps;
            let fm = lin.forward_inference(&x).sum();
            lin.w.value.data_mut()[i] = orig;
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!((num - lin.w.grad.data()[i]).abs() < 1e-2, "dW[{i}]");
        }
        // Check dX.
        for &i in &[0usize, 7, 19] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((lin.forward_inference(&xp).sum() - lin.forward_inference(&xm).sum())
                / (2.0 * eps as f64)) as f32;
            assert!((num - dx.data()[i]).abs() < 1e-2, "dX[{i}]");
        }
    }

    #[test]
    fn weight_sharing_backward_order() {
        // Apply the same Linear twice (like an LSTM over 2 steps), then
        // backward in reverse order; gradient must equal the sum of both uses.
        let mut rng = StdRng::seed_from_u64(1);
        let mut lin = Linear::new(&mut rng, 2, 2);
        let x1 = rand_tensor(&mut rng, &[1, 2]);
        let x2 = rand_tensor(&mut rng, &[1, 2]);
        let _ = lin.forward(&x1);
        let _ = lin.forward(&x2);
        let g = Tensor::full(&[1, 2], 1.0);
        let _dx2 = lin.backward(&g);
        let _dx1 = lin.backward(&g);
        // dW = x1ᵀg + x2ᵀg
        let expect = matmul_at_b(&x1, &g).add(&matmul_at_b(&x2, &g));
        for (a, b) in lin.w.grad.data().iter().zip(expect.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn mlp2_gradients_match_fd() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp2::new(&mut rng, 3, 8, 2);
        let x = rand_tensor(&mut rng, &[4, 3]);
        let _y = mlp.forward(&x);
        let g = Tensor::full(&[4, 2], 1.0);
        let dx = mlp.backward(&g);
        let eps = 1e-3f32;
        let f = |mlp: &mut Mlp2, x: &Tensor| {
            let y = mlp.forward(x);
            // pop caches to keep state clean
            mlp.clear_cache();
            y.sum()
        };
        for &i in &[0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((f(&mut mlp, &xp) - f(&mut mlp, &xm)) / (2.0 * eps as f64)) as f32;
            assert!((num - dx.data()[i]).abs() < 2e-2, "dX[{i}]: {num} vs {}", dx.data()[i]);
        }
    }

    #[test]
    fn module_visits_all_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp2::new(&mut rng, 3, 5, 2);
        let mut names = Vec::new();
        mlp.visit_params("mlp", &mut |n, _| names.push(n.to_string()));
        assert_eq!(names, vec!["mlp/l1/w", "mlp/l1/b", "mlp/l2/w", "mlp/l2/b"]);
        assert_eq!(mlp.num_params(), 3 * 5 + 5 + 5 * 2 + 2);
    }
}
