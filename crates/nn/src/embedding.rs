//! Embedding tables and sample-value embeddings.
//!
//! Address embeddings are "learned vectors representing the identity of
//! random choices A_t in the simulator address space" (§4.3); previous-sample
//! embeddings are small single-layer NNs encoding the value drawn at the
//! previous time step.

use crate::linear::Linear;
use crate::param::{embedding_init, Module, Parameter};
use etalumis_distributions::{Distribution, Value};
use etalumis_tensor::activations::{relu, relu_backward, relu_in_place};
use etalumis_tensor::Tensor;
use rand::Rng;

/// A lookup table of learned vectors: rows are embeddings.
#[derive(Clone)]
pub struct Embedding {
    /// Table [num_entries, dim].
    pub table: Parameter,
}

impl Embedding {
    /// New table with `num` entries of dimension `dim`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, num: usize, dim: usize) -> Self {
        Self { table: Parameter::new(embedding_init(rng, &[num, dim])) }
    }

    /// Number of rows currently allocated.
    pub fn len(&self) -> usize {
        self.table.value.shape()[0]
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.value.shape()[1]
    }

    /// Grow the table to hold at least `num` rows (new rows random).
    pub fn grow<R: Rng + ?Sized>(&mut self, rng: &mut R, num: usize) {
        let (old, dim) = (self.len(), self.dim());
        if num <= old {
            return;
        }
        let extra = embedding_init(rng, &[num - old, dim]);
        let mut data = self.table.value.clone().into_data();
        data.extend_from_slice(extra.data());
        self.table = Parameter::new(Tensor::from_vec(&[num, dim], data));
    }

    /// Look up a batch of indices → [B, dim]. Nothing is cached: the
    /// backward is [`Embedding::scatter_grad`] with the same indices.
    pub fn forward_inference(&self, indices: &[usize]) -> Tensor {
        let dim = self.dim();
        let mut out = Tensor::zeros(&[indices.len(), dim]);
        for (r, &ix) in indices.iter().enumerate() {
            assert!(ix < self.len(), "embedding index {ix} out of range");
            out.row_mut(r).copy_from_slice(self.table.value.row(ix));
        }
        out
    }

    /// Backward: scatter-add `grad` rows into the table gradient, one row
    /// per index, in index order.
    pub fn scatter_grad(&mut self, indices: &[usize], grad: &Tensor) {
        assert_eq!(grad.rows(), indices.len());
        let dim = self.dim();
        for (r, &ix) in indices.iter().enumerate() {
            let dst = &mut self.table.grad.data_mut()[ix * dim..(ix + 1) * dim];
            for (d, &g) in dst.iter_mut().zip(grad.row(r).iter()) {
                *d += g;
            }
        }
    }
}

impl Module for Embedding {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        f(&format!("{prefix}/table"), &mut self.table);
    }
}

/// Single-layer NN embedding the previous sample value (paper: size 4).
///
/// Its input is a value's features under the prior it was drawn from
/// ([`value_features_into`]): continuous values enter as a normalized
/// scalar, categorical and Bernoulli values as a one-hot vector.
#[derive(Clone)]
pub struct SampleEmbedding {
    lin: Linear,
    relu_cache: Vec<Tensor>,
}

/// How a value enters a [`SampleEmbedding`], given its prior: written over
/// `out`, whose length is the embedding's input width.
pub fn value_features_into(prior: &Distribution, value: &Value, out: &mut [f32]) {
    out.fill(0.0);
    if prior.num_categories().is_some() {
        if let Some(hot) = out.get_mut(value.as_i64() as usize) {
            *hot = 1.0;
        }
    } else {
        // Normalize continuous values by the prior's location/scale.
        let x = value.as_f64();
        let norm = match prior.support() {
            Some((lo, hi)) => (x - lo) / (hi - lo),
            None => (x - prior.mean()) / prior.std().max(1e-9),
        };
        out[0] = norm as f32;
    }
}

impl SampleEmbedding {
    /// New embedding of `prior`'s values into `dim` outputs.
    pub fn for_prior<R: Rng + ?Sized>(rng: &mut R, prior: &Distribution, dim: usize) -> Self {
        let width = prior.num_categories().unwrap_or(1);
        Self { lin: Linear::new(rng, width, dim), relu_cache: Vec::new() }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.lin.in_dim()
    }

    /// Forward on [B, in_dim] features.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.lin.forward(x);
        let y = relu(&h);
        self.relu_cache.push(h);
        y
    }

    /// Forward without caching, on row-major slices: `x` is `[B, in_dim]`,
    /// `y` (`[B, dim]`) is overwritten. Allocates nothing.
    pub fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        self.lin.forward_into(x, y);
        relu_in_place(y);
    }

    /// Backward; returns gradient w.r.t. the input features.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let h = self.relu_cache.pop().expect("SampleEmbedding::backward without forward"); // etalumis: allow(panic-freedom, reason = "backward without a matching forward is a call-order contract violation")
        let dh = relu_backward(&h, grad);
        self.lin.backward(&dh)
    }
}

impl Module for SampleEmbedding {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        self.lin.visit_params(&format!("{prefix}/lin"), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn embedding_lookup_and_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(&mut rng, 4, 3);
        let y = e.forward_inference(&[1, 1, 3]);
        assert_eq!(y.shape(), &[3, 3]);
        assert_eq!(y.row(0), y.row(1));
        let g = Tensor::full(&[3, 3], 1.0);
        e.scatter_grad(&[1, 1, 3], &g);
        // Row 1 used twice → grad 2, row 3 once → grad 1, rows 0/2 zero.
        assert_eq!(e.table.grad.row(1), &[2.0, 2.0, 2.0]);
        assert_eq!(e.table.grad.row(3), &[1.0, 1.0, 1.0]);
        assert_eq!(e.table.grad.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn embedding_grows_preserving_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = Embedding::new(&mut rng, 2, 4);
        let before = e.table.value.row(1).to_vec();
        e.grow(&mut rng, 5);
        assert_eq!(e.len(), 5);
        assert_eq!(e.table.value.row(1), &before[..]);
    }

    #[test]
    fn sample_embedding_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut se = SampleEmbedding::for_prior(&mut rng, &Distribution::Bernoulli { p: 0.5 }, 4);
        let x = Tensor::from_vec(&[2, 2], vec![0.5, -0.3, 1.0, 0.2]);
        let _ = se.forward(&x);
        let g = Tensor::full(&[2, 4], 1.0);
        let dx = se.backward(&g);
        let eps = 1e-3f32;
        let sum_at = |x: &Tensor| {
            let mut y = Tensor::zeros(&[2, 4]);
            se.forward_into(x.data(), y.data_mut());
            y.sum()
        };
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = ((sum_at(&xp) - sum_at(&xm)) / (2.0 * eps as f64)) as f32;
            assert!((num - dx.data()[i]).abs() < 1e-2);
        }
    }
}
