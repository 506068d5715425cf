//! The 3DCNN observation encoder.
//!
//! Paper §4.3: "an observation embedding of size 256, encoded with a 3D
//! convolutional neural network acting as a feature extractor, with layer
//! configuration Conv3D(1,64,3)–Conv3D(64,64,3)–MaxPool3D(2)–Conv3D(64,128,3)
//! –Conv3D(128,128,3)–Conv3D(128,128,3)–MaxPool3D(2)–FC(·,256)" with ReLU
//! nonlinearities. The stack here is configurable so tests and scaled-down
//! experiments can use smaller channel counts while the full paper
//! configuration remains constructible (see [`Cnn3dConfig::paper`]).

use crate::linear::Linear;
use crate::param::{kaiming_uniform, Module, Parameter};
use etalumis_tensor::activations::{relu, relu_backward, relu_backward_in_place, relu_reusing};
use etalumis_tensor::conv::{
    conv3d_backward_data_reusing, conv3d_backward_weights_acc, conv3d_blocked_reusing,
    maxpool3d_backward_reusing, maxpool3d_reusing,
};
use etalumis_tensor::{Conv3dSpec, Tensor};
use rand::Rng;
use std::collections::BTreeMap;

/// One stage of the CNN stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CnnStageSpec {
    /// 3×3×3 convolution (padding 1) to the given output channels, + ReLU.
    Conv(usize),
    /// 2× max pooling on all three spatial axes.
    Pool,
}

/// Configuration of the observation encoder.
#[derive(Clone, Debug)]
pub struct Cnn3dConfig {
    /// Input spatial dimensions (D, H, W).
    pub input_dims: [usize; 3],
    /// Stage sequence.
    pub stages: Vec<CnnStageSpec>,
    /// Output embedding dimension (the FC layer size).
    pub embedding_dim: usize,
}

impl Cnn3dConfig {
    /// The exact architecture from the paper (§4.3) on 20×35×35 voxels.
    pub fn paper() -> Self {
        use CnnStageSpec::*;
        Self {
            input_dims: [20, 35, 35],
            stages: vec![Conv(64), Conv(64), Pool, Conv(128), Conv(128), Conv(128), Pool],
            embedding_dim: 256,
        }
    }

    /// A small configuration for tests and laptop-scale experiments.
    pub fn small(input_dims: [usize; 3], embedding_dim: usize) -> Self {
        use CnnStageSpec::*;
        Self { input_dims, stages: vec![Conv(8), Pool, Conv(16), Pool], embedding_dim }
    }

    /// A minimal configuration for tiny (even scalar) observations: one
    /// convolution, no pooling.
    pub fn tiny(input_dims: [usize; 3], embedding_dim: usize) -> Self {
        Self { input_dims, stages: vec![CnnStageSpec::Conv(4)], embedding_dim }
    }

    /// Spatial dims and channels after all stages.
    pub fn output_geometry(&self) -> (usize, [usize; 3]) {
        let mut dims = self.input_dims;
        let mut chans = 1usize;
        for s in &self.stages {
            match s {
                CnnStageSpec::Conv(c) => chans = *c,
                CnnStageSpec::Pool => {
                    dims = [dims[0] / 2, dims[1] / 2, dims[2] / 2];
                }
            }
        }
        (chans, dims)
    }

    /// Flattened feature size entering the FC layer.
    pub fn flat_dim(&self) -> usize {
        let (c, d) = self.output_geometry();
        c * d[0] * d[1] * d[2]
    }

    /// Analytic forward flop count for a batch of `b` observations.
    pub fn forward_flops(&self, b: usize) -> u64 {
        let mut dims = self.input_dims;
        let mut chans = 1usize;
        let mut total = 0u64;
        for s in &self.stages {
            match s {
                CnnStageSpec::Conv(c) => {
                    let spec = Conv3dSpec { in_c: chans, out_c: *c, k: 3, pad: 1 };
                    total += spec.flops(b, dims[0], dims[1], dims[2]);
                    chans = *c;
                }
                CnnStageSpec::Pool => {
                    dims = [dims[0] / 2, dims[1] / 2, dims[2] / 2];
                }
            }
        }
        total += 2 * (b * self.flat_dim() * self.embedding_dim) as u64;
        total
    }
}

/// A Conv3D + ReLU stage with caches for backward.
#[derive(Clone)]
struct ConvStage {
    w: Parameter,
    b: Parameter,
    spec: Conv3dSpec,
    in_dims: [usize; 3],
    x_cache: Vec<Tensor>,
    pre_cache: Vec<Tensor>,
}

/// A MaxPool stage with argmax caches.
#[derive(Clone)]
struct PoolStage {
    arg_cache: Vec<(Vec<u32>, Vec<usize>)>,
}

#[derive(Clone)]
enum Stage {
    Conv(ConvStage),
    Pool(PoolStage),
}

/// Most buffers [`Spare`] keeps per class: more than one pass's worth, so a
/// caller that makes more activations than it hands back cannot grow it.
const SPARE_PER_CLASS: usize = 4;

/// Smallest buffer [`Spare`] keeps, in bytes.
///
/// Large activations are the ones worth keeping: freed, they went back to
/// the OS and were faulted in again the next step (measured below).
/// Smaller ones stay with the allocator's free lists. Keeping those too
/// costs memory after training ends, because freed heap memory stays
/// resident: with every buffer kept, `infer_tau`'s peak RSS (a network
/// trained on sub-minibatches of at most 32, then sampled) rose by 1.8 MB.
const SPARE_MIN_BYTES: usize = 2 << 20;

/// Activation buffers a pass is done with, for the next pass to store its
/// activations in.
///
/// Every activation of the stack is `[B, …]` with a per-image length fixed by
/// its place in the stack, so buffers are classed by that length and a class
/// settles at the largest batch it has seen: a steady training loop
/// allocates none of its large activations. Allocating and freeing them
/// every step instead left it to the allocator's history whether that
/// memory went back to the OS and was faulted in again each step. On
/// `Cnn3dConfig::small` over 8×13×13 voxels at B = 64 (first-stage output
/// 2.8 MB) that was about 1 800 page faults, a tenth of the step.
#[derive(Clone, Default)]
struct Spare(BTreeMap<usize, Vec<Vec<f32>>>);

impl Spare {
    /// A buffer for a batch of `per_image`-element activations (empty if the
    /// class has none).
    fn take(&mut self, per_image: usize) -> Vec<f32> {
        self.0.get_mut(&per_image).and_then(Vec::pop).unwrap_or_default()
    }

    /// Keep `t`'s storage for a later [`Spare::take`] if it is large.
    fn give(&mut self, t: Tensor) {
        let per_image = t.numel() / t.shape()[0].max(1);
        let data = t.into_data();
        if data.capacity() * std::mem::size_of::<f32>() < SPARE_MIN_BYTES {
            return;
        }
        let class = self.0.entry(per_image).or_default();
        if class.len() < SPARE_PER_CLASS {
            class.push(data);
        }
    }
}

/// Elements per image of a `[B, …]` shape.
fn per_image(shape: &[usize]) -> usize {
    shape[1..].iter().product()
}

/// The observation encoder: CNN stack + FC to the embedding dimension.
#[derive(Clone)]
pub struct Cnn3d {
    /// Static configuration.
    pub config: Cnn3dConfig,
    stages: Vec<Stage>,
    fc: Linear,
    fc_relu_cache: Vec<Tensor>,
    spare: Spare,
}

impl Cnn3d {
    /// Build the encoder with random init.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: Cnn3dConfig) -> Self {
        let mut stages = Vec::new();
        let mut chans = 1usize;
        let mut dims = config.input_dims;
        for s in &config.stages {
            match s {
                CnnStageSpec::Conv(c) => {
                    let spec = Conv3dSpec { in_c: chans, out_c: *c, k: 3, pad: 1 };
                    stages.push(Stage::Conv(ConvStage {
                        w: Parameter::new(kaiming_uniform(rng, &[*c, chans, 3, 3, 3])),
                        b: Parameter::zeros(&[*c]),
                        spec,
                        in_dims: dims,
                        x_cache: Vec::new(),
                        pre_cache: Vec::new(),
                    }));
                    chans = *c;
                }
                CnnStageSpec::Pool => {
                    stages.push(Stage::Pool(PoolStage { arg_cache: Vec::new() }));
                    dims = [dims[0] / 2, dims[1] / 2, dims[2] / 2];
                }
            }
        }
        let fc = Linear::new(rng, config.flat_dim(), config.embedding_dim);
        Self { config, stages, fc, fc_relu_cache: Vec::new(), spare: Spare::default() }
    }

    /// Encode a batch of observations [B, 1, D, H, W] → [B, embedding_dim].
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_impl(x, true)
    }

    /// Encode without caching (inference path). Frees the activation buffers
    /// training recycles: a network that has moved on to inference does not
    /// hold a training batch's worth of memory.
    pub fn forward_inference(&mut self, x: &Tensor) -> Tensor {
        let y = self.forward_impl(x, false);
        self.spare = Spare::default();
        y
    }

    fn forward_impl(&mut self, x: &Tensor, train: bool) -> Tensor {
        let b = x.shape()[0];
        let spare = &mut self.spare;
        // `None` until the first stage has run: the input is only copied
        // when training caches it.
        let mut cur: Option<Tensor> = None;
        for stage in &mut self.stages {
            let input = cur.as_ref().unwrap_or(x);
            let y = match stage {
                Stage::Conv(cs) => {
                    let [d, h, w] = cs.in_dims.map(|n| cs.spec.out_dim(n));
                    let out_len = cs.spec.out_c * d * h * w;
                    let (weight, bias) = (&cs.w.value, cs.b.value.data());
                    let pre =
                        conv3d_blocked_reusing(input, weight, bias, &cs.spec, spare.take(out_len));
                    let y = relu_reusing(&pre, spare.take(out_len));
                    if train {
                        let kept = cur.take().unwrap_or_else(|| {
                            let mut copy = spare.take(per_image(x.shape()));
                            copy.clear();
                            copy.extend_from_slice(x.data());
                            Tensor::from_vec(x.shape(), copy)
                        });
                        cs.x_cache.push(kept);
                        cs.pre_cache.push(pre);
                    } else {
                        spare.give(pre);
                    }
                    y
                }
                Stage::Pool(ps) => {
                    let s = input.shape();
                    let out_len = s[1] * (s[2] / 2) * (s[3] / 2) * (s[4] / 2);
                    let (y, arg) = maxpool3d_reusing(input, 2, spare.take(out_len));
                    if train {
                        ps.arg_cache.push((arg, s.to_vec()));
                    }
                    y
                }
            };
            if let Some(done) = cur.replace(y) {
                spare.give(done);
            }
        }
        let flat = cur.unwrap_or_else(|| x.clone()).reshape(&[b, self.config.flat_dim()]);
        let pre = if train { self.fc.forward(&flat) } else { self.fc.forward_inference(&flat) };
        spare.give(flat);
        let y = relu(&pre);
        if train {
            self.fc_relu_cache.push(pre);
        }
        y
    }

    /// Backward from an embedding gradient [B, embedding_dim]; accumulates
    /// parameter gradients. Observations are leaves, so the walk stops at the
    /// first stage's parameters: its input gradient is never computed.
    pub fn backward(&mut self, grad: &Tensor) {
        let pre = self.fc_relu_cache.pop().expect("Cnn3d::backward without forward"); // etalumis: allow(panic-freedom, reason = "backward without a matching forward is a call-order contract violation")
        let dpre = relu_backward(&pre, grad);
        let dflat = self.fc.backward(&dpre);
        let (c, dims) = self.config.output_geometry();
        let b = grad.rows();
        let spare = &mut self.spare;
        let mut cur = dflat.reshape(&[b, c, dims[0], dims[1], dims[2]]);
        for (i, stage) in self.stages.iter_mut().enumerate().rev() {
            let below = match stage {
                Stage::Conv(cs) => {
                    let x = cs.x_cache.pop().expect("conv backward without forward"); // etalumis: allow(panic-freedom, reason = "backward without a matching forward is a call-order contract violation")
                    let pre = cs.pre_cache.pop().expect("conv cache"); // etalumis: allow(panic-freedom, reason = "backward without a matching forward is a call-order contract violation")

                    // `cur` becomes the gradient w.r.t. the pre-activation.
                    relu_backward_in_place(pre.data(), cur.data_mut());
                    spare.give(pre);
                    conv3d_backward_weights_acc(
                        &x,
                        &cur,
                        &cs.spec,
                        cs.w.grad.data_mut(),
                        cs.b.grad.data_mut(),
                    );
                    if i == 0 {
                        spare.give(x);
                        break;
                    }
                    let [d, h, w] = cs.in_dims;
                    let buf = spare.take(per_image(x.shape()));
                    spare.give(x);
                    conv3d_backward_data_reusing(&cur, &cs.w.value, &cs.spec, (d, h, w), buf)
                }
                Stage::Pool(ps) => {
                    let (arg, in_shape) = ps.arg_cache.pop().expect("pool backward"); // etalumis: allow(panic-freedom, reason = "backward without a matching forward is a call-order contract violation")
                    let buf = spare.take(per_image(&in_shape));
                    maxpool3d_backward_reusing(&cur, &arg, &in_shape, buf)
                }
            };
            spare.give(std::mem::replace(&mut cur, below));
        }
        spare.give(cur);
    }

    /// Drop all cached activations.
    pub fn clear_cache(&mut self) {
        for s in &mut self.stages {
            match s {
                Stage::Conv(cs) => {
                    cs.x_cache.clear();
                    cs.pre_cache.clear();
                }
                Stage::Pool(ps) => ps.arg_cache.clear(),
            }
        }
        self.fc.clear_cache();
        self.fc_relu_cache.clear();
    }
}

impl Module for Cnn3d {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        for (i, s) in self.stages.iter_mut().enumerate() {
            if let Stage::Conv(cs) = s {
                f(&format!("{prefix}/conv{i}/w"), &mut cs.w);
                f(&format!("{prefix}/conv{i}/b"), &mut cs.b);
            }
        }
        self.fc.visit_params(&format!("{prefix}/fc"), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_config_geometry() {
        let c = Cnn3dConfig::paper();
        let (chans, dims) = c.output_geometry();
        assert_eq!(chans, 128);
        assert_eq!(dims, [5, 8, 8]);
        assert_eq!(c.flat_dim(), 128 * 5 * 8 * 8);
        assert_eq!(c.embedding_dim, 256);
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = Cnn3dConfig::small([4, 8, 8], 16);
        let mut cnn = Cnn3d::new(&mut rng, cfg);
        let x = Tensor::from_fn(&[2, 1, 4, 8, 8], |i| (i % 7) as f32 * 0.1);
        let y1 = cnn.forward_inference(&x);
        let y2 = cnn.forward_inference(&x);
        assert_eq!(y1.shape(), &[2, 16]);
        assert_eq!(y1, y2);
    }

    /// Every parameter's gradient, in `visit_params` order.
    fn param_grads(cnn: &mut Cnn3d) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        cnn.visit_params("cnn", &mut |n, p| out.push((n.to_string(), p.grad.clone())));
        out
    }

    #[test]
    fn backward_param_grads_match_fd() {
        // Both conv stages, both pools and the FC layer, on a non-cubic volume.
        let mut rng = StdRng::seed_from_u64(1);
        let mut cnn = Cnn3d::new(&mut rng, Cnn3dConfig::small([6, 9, 8], 3));
        // No two voxels equal, so no max-pool tie sits on a kink.
        let x = Tensor::from_fn(&[2, 1, 6, 9, 8], |i| (i as f32 * 0.7391).sin() * 0.5);
        // Biases start at zero; move them so their gradients are exercised
        // away from the ReLU kink.
        cnn.visit_params("cnn", &mut |n, p| {
            if n.ends_with("/b") {
                p.value.map_inplace(|_| 0.05);
            }
        });
        let y = cnn.forward(&x);
        let g = Tensor::full(y.shape(), 1.0);
        cnn.backward(&g);
        let eps = 5e-3f32;
        for (name, grad) in param_grads(&mut cnn) {
            let len = grad.numel();
            // The largest entry (pooling and ReLU leave many exactly zero)
            // and a fixed spread.
            let top =
                (0..len).max_by(|&i, &j| grad.data()[i].abs().total_cmp(&grad.data()[j].abs()));
            for idx in [top.unwrap_or(0), 0, len / 3, len / 2, len - 1] {
                let ana = grad.data()[idx];
                let mut eval = |delta: f32| {
                    cnn.visit_params("cnn", &mut |n, p| {
                        if n == name {
                            p.value.data_mut()[idx] += delta;
                        }
                    });
                    let f = cnn.forward_inference(&x).sum();
                    cnn.visit_params("cnn", &mut |n, p| {
                        if n == name {
                            p.value.data_mut()[idx] -= delta;
                        }
                    });
                    f
                };
                let num = ((eval(eps) - eval(-eps)) / (2.0 * eps as f64)) as f32;
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                    "{name}[{idx}]: fd {num} vs analytic {ana}"
                );
            }
        }
    }

    /// The backward chain written out on the tensor kernels with nothing
    /// skipped: the first stage's input gradient is computed and returned.
    fn backward_to_input(cnn: &mut Cnn3d, grad: &Tensor) -> Tensor {
        let pre = cnn.fc_relu_cache.pop().unwrap();
        let dflat = cnn.fc.backward(&relu_backward(&pre, grad));
        let (c, dims) = cnn.config.output_geometry();
        let mut cur = dflat.reshape(&[grad.rows(), c, dims[0], dims[1], dims[2]]);
        for stage in cnn.stages.iter_mut().rev() {
            cur = match stage {
                Stage::Conv(cs) => {
                    let x = cs.x_cache.pop().unwrap();
                    let dpre = relu_backward(&cs.pre_cache.pop().unwrap(), &cur);
                    let (gw, gb) =
                        etalumis_tensor::conv::conv3d_backward_weights(&x, &dpre, &cs.spec);
                    cs.w.grad.add_assign(&gw);
                    cs.b.grad.add_assign(&Tensor::from_vec(&[gb.len()], gb));
                    let [d, h, w] = cs.in_dims;
                    etalumis_tensor::conv::conv3d_backward_data(
                        &dpre,
                        &cs.w.value,
                        &cs.spec,
                        (d, h, w),
                    )
                }
                Stage::Pool(ps) => {
                    let (arg, in_shape) = ps.arg_cache.pop().unwrap();
                    etalumis_tensor::conv::maxpool3d_backward(&cur, &arg, &in_shape)
                }
            };
        }
        cur
    }

    #[test]
    fn skipping_the_input_gradient_changes_no_parameter_gradient_bit() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cnn = Cnn3d::new(&mut rng, Cnn3dConfig::small([4, 6, 5], 8));
        let x = Tensor::from_fn(&[5, 1, 4, 6, 5], |i| ((i * 29) % 13) as f32 * 0.07 - 0.4);
        let g = Tensor::from_fn(&[5, 8], |i| ((i * 17) % 7) as f32 * 0.3 - 0.8);
        cnn.forward(&x);
        cnn.backward(&g);
        let skipped = param_grads(&mut cnn);
        cnn.visit_params("cnn", &mut |_, p| p.grad.zero_());
        cnn.forward(&x);
        let dx = backward_to_input(&mut cnn, &g);
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.data().iter().any(|&v| v != 0.0), "the reference run computes dL/dx");
        assert_eq!(skipped, param_grads(&mut cnn));
    }

    #[test]
    fn recycled_activations_change_no_bit() {
        // A network whose spare buffers hold earlier passes' activations —
        // of a larger batch (stale tails), a smaller one (grown buffers) and
        // the same one — must compute exactly what a fresh network does
        // with the allocating kernels. The conv output is 32 KiB per image,
        // so from B = 64 on it is large enough to be kept.
        let cfg = Cnn3dConfig {
            input_dims: [4, 16, 16],
            stages: vec![CnnStageSpec::Conv(8), CnnStageSpec::Pool],
            embedding_dim: 4,
        };
        let input = |b: usize, salt: usize| {
            Tensor::from_fn(&[b, 1, 4, 16, 16], |i| ((i * 29 + salt) % 13) as f32 * 0.07 - 0.4)
        };
        let grad = |b: usize| Tensor::from_fn(&[b, 4], |i| ((i * 17) % 7) as f32 * 0.3 - 0.8);
        let step = |cnn: &mut Cnn3d, b: usize, salt: usize| {
            let y = cnn.forward(&input(b, salt));
            cnn.backward(&grad(b));
            (y, param_grads(cnn))
        };
        let fresh = || Cnn3d::new(&mut StdRng::seed_from_u64(3), cfg.clone());
        let reference = |b: usize| {
            let mut cnn = fresh();
            let y = cnn.forward(&input(b, 0));
            backward_to_input(&mut cnn, &grad(b));
            (y, param_grads(&mut cnn))
        };
        let mut warm = fresh();
        for (b, salt) in [(80, 1), (64, 2), (72, 3)] {
            warm.forward_inference(&input(b + 1, salt));
            step(&mut warm, b, salt);
        }
        assert!(!warm.spare.0.is_empty(), "the conv outputs were kept");
        for b in [72, 64, 88] {
            warm.visit_params("cnn", &mut |_, p| p.grad.zero_());
            assert_eq!(reference(b), step(&mut warm, b, 0), "batch {b}");
        }
        let x = input(4, 4);
        assert_eq!(fresh().forward_inference(&x), warm.forward_inference(&x));
        // Inference lets the training buffers go.
        assert!(warm.spare.0.is_empty());
    }

    #[test]
    fn flop_count_positive_and_scales_with_batch() {
        let cfg = Cnn3dConfig::small([4, 8, 8], 16);
        assert_eq!(cfg.forward_flops(2), 2 * cfg.forward_flops(1));
        assert!(cfg.forward_flops(1) > 0);
    }
}
