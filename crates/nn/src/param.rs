//! Trainable parameters and weight initialization.

use etalumis_tensor::pool::{self, SendPtr};
use etalumis_tensor::Tensor;
use rand::Rng;
use std::sync::{Mutex, PoisonError};

/// A trainable tensor with its gradient accumulator.
#[derive(Clone, Debug)]
pub struct Parameter {
    /// Current weights.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Parameter {
    /// New parameter with zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }

    /// Zero-initialized parameter of a given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::new(Tensor::zeros(shape))
    }

    /// Reset the gradient to zero, keeping the allocation.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }

    /// Number of scalar weights.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// Visitor over named parameters of a module tree.
///
/// Names are hierarchical (`"lstm/layer0/w_ih"`); they must be stable across
/// processes because the distributed allreduce keys gradients by name.
pub trait Module {
    /// Visit every parameter with its hierarchical name, each exactly once
    /// and in a fixed order.
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter));

    /// Zero all gradients.
    fn zero_grad(&mut self) {
        self.visit_params("", &mut |_, p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params("", &mut |_, p| n += p.numel());
        n
    }
}

/// `f(p)` for every parameter `p` of `m`, one kernel-pool task per tensor
/// (inline for a tree of few weights); the results come back in visit
/// order. What `f` does to one tensor is what a serial walk does, so a
/// reduction over the results in that order gives the serial walk's bits.
pub fn par_map_params<T: Send + Default>(
    m: &mut dyn Module,
    f: &(dyn Fn(&mut Parameter) -> T + Sync),
) -> Vec<T> {
    let (mut params, mut weights) = (Vec::new(), 0);
    m.visit_params("", &mut |_, p| {
        weights += p.numel();
        params.push(SendPtr::new(p));
    });
    let out: Vec<Mutex<T>> = params.iter().map(|_| Mutex::default()).collect();
    pool::run_sized(weights, params.len(), &|i| {
        // SAFETY: `visit_params` hands out each parameter once, and `m`
        // stays mutably borrowed until the run returns, so task `i`
        // holds the only reference to its parameter.
        let v = f(unsafe { &mut *params[i].get() });
        *out[i].lock().unwrap_or_else(PoisonError::into_inner) = v;
    });
    out.into_iter().map(|v| v.into_inner().unwrap_or_else(PoisonError::into_inner)).collect()
}

/// Xavier/Glorot uniform initialization for a [fan_in, fan_out] matrix.
pub fn xavier_uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize]) -> Tensor {
    let (fan_in, fan_out) = fans(shape);
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
    Tensor::from_fn(shape, |_| rng.gen_range(-limit..limit))
}

/// Kaiming/He uniform initialization (ReLU gain), by fan-in.
pub fn kaiming_uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize]) -> Tensor {
    let (fan_in, _) = fans(shape);
    let limit = (6.0 / fan_in as f64).sqrt() as f32;
    Tensor::from_fn(shape, |_| rng.gen_range(-limit..limit))
}

/// Small-uniform init used for embeddings.
pub fn embedding_init<R: Rng + ?Sized>(rng: &mut R, shape: &[usize]) -> Tensor {
    Tensor::from_fn(shape, |_| rng.gen_range(-0.1..0.1))
}

fn fans(shape: &[usize]) -> (usize, usize) {
    match shape.len() {
        0 => (1, 1),
        1 => (shape[0], shape[0]),
        2 => (shape[0], shape[1]),
        // Conv weights [O, C, k, k, k]: fan_in = C*k^3, fan_out = O*k^3.
        _ => {
            let receptive: usize = shape[2..].iter().product();
            (shape[1] * receptive, shape[0] * receptive)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_limits() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = xavier_uniform(&mut rng, &[100, 50]);
        let limit = (6.0f64 / 150.0).sqrt() as f32;
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
        // Not all zero.
        assert!(t.norm() > 0.0);
    }

    #[test]
    fn conv_fans() {
        assert_eq!(fans(&[64, 32, 3, 3, 3]), (32 * 27, 64 * 27));
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Parameter::new(Tensor::full(&[2, 2], 1.0));
        p.grad = Tensor::full(&[2, 2], 3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.numel(), 4);
    }
}
