//! Dense row-major f32 tensors.
//!
//! This is the minimal tensor substrate the rest of etalumis-rs builds on:
//! shapes are plain `Vec<usize>`, storage is a flat `Vec<f32>`, and all hot
//! kernels (GEMM, Conv3D) live in sibling modules operating on raw slices.

use std::fmt;

/// A dense row-major f32 tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![0.0; n] }
    }

    /// Tensor filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let n: usize = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![v; n] }
    }

    /// Build from existing data; panics if the shape does not match.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape {:?} != data len {}", shape, data.len());
        Self { shape: shape.to_vec(), data }
    }

    /// Build by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        Self { shape: shape.to_vec(), data: (0..n).map(&mut f).collect() }
    }

    /// Dimension sizes.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat data vector.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret with a new shape of equal element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape {:?} -> {:?}", self.shape, shape);
        self.shape = shape.to_vec();
        self
    }

    /// Number of rows for a 2D tensor.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() on non-2D tensor {:?}", self.shape);
        self.shape[0]
    }

    /// Number of columns for a 2D tensor.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() on non-2D tensor {:?}", self.shape);
        self.shape[1]
    }

    /// Borrow row `i` of a 2D tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutably borrow row `i` of a 2D tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two equal-shape tensors.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Elementwise sum of two tensors.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum() // etalumis: allow(float-reduction, reason = "sequential fixed-order reduction over the flat buffer; order is shape-invariant")
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element (NaN-ignoring; -inf on empty).
    pub fn max(&self) -> f32 {
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max) // etalumis: allow(float-reduction, reason = "sequential fixed-order reduction over the flat buffer; order is shape-invariant")
    }

    /// Index of the maximum element.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt() // etalumis: allow(float-reduction, reason = "sequential fixed-order reduction over the flat buffer; order is shape-invariant")
    }

    /// Fill with zeros, keeping the allocation.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Split a 2D tensor along columns into pieces of the given widths.
    pub fn split_cols(&self, widths: &[usize]) -> Vec<Tensor> {
        let rows = self.rows();
        assert_eq!(widths.iter().sum::<usize>(), self.cols(), "split widths mismatch");
        let mut outs: Vec<Tensor> = widths.iter().map(|&w| Tensor::zeros(&[rows, w])).collect();
        for r in 0..rows {
            let src = self.row(r);
            let mut off = 0;
            for (k, &w) in widths.iter().enumerate() {
                outs[k].row_mut(r).copy_from_slice(&src[off..off + w]);
                off += w;
            }
        }
        outs
    }

    /// Stack equal-shape 1D tensors as rows of a 2D tensor.
    pub fn stack_rows(rows: &[&[f32]]) -> Tensor {
        assert!(!rows.is_empty());
        let c = rows[0].len();
        let mut out = Tensor::zeros(&[rows.len(), c]);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), c, "stack_rows length mismatch");
            out.row_mut(i).copy_from_slice(r);
        }
        out
    }

    /// Transpose a 2D tensor.
    pub fn transpose2(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape_checks() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_len() {
        Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).data(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.mul(&a).data(), &[1.0, 4.0, 9.0, 16.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[21.0, 42.0, 63.0, 84.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.argmax(), 3);
    }

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 3], vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let c = Tensor::from_vec(&[2, 5], vec![1.0, 2.0, 5.0, 6.0, 7.0, 3.0, 4.0, 8.0, 9.0, 10.0]);
        let parts = c.split_cols(&[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Tensor::from_fn(&[3, 4], |i| i as f32);
        assert_eq!(a.transpose2().transpose2(), a);
        assert_eq!(a.transpose2().shape(), &[4, 3]);
    }

    #[test]
    fn norm_and_zero() {
        let mut a = Tensor::from_vec(&[3], vec![3.0, 0.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        a.zero_();
        assert_eq!(a.sum(), 0.0);
    }
}
