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
use etalumis_tensor::activations::{relu, relu_backward};
use etalumis_tensor::conv::{
    conv3d_backward_data_reusing, conv3d_backward_weights_acc, conv3d_fused_reusing, ConvGrad,
    Epilogue,
};
use etalumis_tensor::{Conv3dSpec, Tensor};
use rand::Rng;
use std::collections::BTreeMap;

/// One stage of the CNN stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CnnStageSpec {
    /// 3×3×3 convolution (padding 1) to the given output channels, + ReLU.
    Conv(usize),
    /// 2× max pooling on all three spatial axes, fused into the `Conv` stage
    /// it must directly follow. Floor semantics: an odd extent drops its
    /// last plane, row or column.
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

    /// Spatial dims and channels after all stages. Each `Pool` halves every
    /// extent rounding down, so an odd extent loses its last plane, row or
    /// column: 8×13×13 pools to 4×6×6, the paper's 20×35×35 to 10×17×17
    /// and then 5×8×8.
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

/// A Conv3D + ReLU stage, with the max-pool that follows it fused in: one
/// per-image kernel pass forward ([`conv3d_fused_reusing`]) and two back.
/// Backward needs the stage input (cached here), the argmax when pooled,
/// and the ReLU mask, read from the stage output: `relu(y) > 0` exactly
/// where `y > 0`, and the output is the input the next stage or the FC
/// layer keeps.
#[derive(Clone)]
struct ConvStage {
    w: Parameter,
    b: Parameter,
    spec: Conv3dSpec,
    in_dims: [usize; 3],
    pool: bool,
    /// Position in [`Cnn3dConfig::stages`], which names the parameters.
    index: usize,
    x_cache: Vec<Tensor>,
    arg_cache: Vec<Vec<u32>>,
}

impl ConvStage {
    /// Elements per image of the stage output.
    fn out_len(&self) -> usize {
        let p = if self.pool { 2 } else { 1 };
        self.spec.out_c * self.in_dims.iter().map(|&n| self.spec.out_dim(n) / p).product::<usize>()
    }
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
/// `Cnn3dConfig::small` over 8×13×13 voxels at B = 64, before the pool was
/// fused into the conv stage (its unpooled output was 2.8 MB), that was
/// about 1 800 page faults, a tenth of the step.
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
    stages: Vec<ConvStage>,
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
        for (index, s) in config.stages.iter().enumerate() {
            match s {
                CnnStageSpec::Conv(c) => {
                    stages.push(ConvStage {
                        w: Parameter::new(kaiming_uniform(rng, &[*c, chans, 3, 3, 3])),
                        b: Parameter::zeros(&[*c]),
                        spec: Conv3dSpec { in_c: chans, out_c: *c, k: 3, pad: 1 },
                        in_dims: dims,
                        pool: false,
                        index,
                        x_cache: Vec::new(),
                        arg_cache: Vec::new(),
                    });
                    chans = *c;
                }
                CnnStageSpec::Pool => {
                    let conv = stages.last_mut().filter(|cs| !cs.pool);
                    assert!(conv.is_some(), "a Pool stage must directly follow a Conv stage");
                    if let Some(cs) = conv {
                        cs.pool = true;
                    }
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
        for cs in &mut self.stages {
            let input = cur.as_ref().unwrap_or(x);
            let epi = if cs.pool { Epilogue::ReluPool } else { Epilogue::Relu };
            let (weight, bias) = (&cs.w.value, cs.b.value.data());
            let (y, arg) =
                conv3d_fused_reusing(input, weight, bias, &cs.spec, epi, spare.take(cs.out_len()));
            if train {
                let kept = cur.take().unwrap_or_else(|| {
                    let mut copy = spare.take(per_image(x.shape()));
                    copy.clear();
                    copy.extend_from_slice(x.data());
                    Tensor::from_vec(x.shape(), copy)
                });
                cs.x_cache.push(kept);
                if cs.pool {
                    cs.arg_cache.push(arg);
                }
            }
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
        let (dflat, flat) = self.fc.backward_returning_input(&relu_backward(&pre, grad));
        let (c, dims) = self.config.output_geometry();
        let shape = [grad.rows(), c, dims[0], dims[1], dims[2]];
        let spare = &mut self.spare;
        // A stage's output (the next stage's input, or the FC layer's) and
        // the gradient w.r.t. it.
        let (mut out, mut cur) = (flat.reshape(&shape), dflat.reshape(&shape));
        for (i, cs) in self.stages.iter_mut().enumerate().rev() {
            // `arg` is empty when unpooled; a missing pooled one fails
            // `ConvGrad`'s shape check, after `x_cache` caught the misuse.
            let x = cs.x_cache.pop().expect("conv backward without forward"); // etalumis: allow(panic-freedom, reason = "backward without a matching forward is a call-order contract violation")
            let arg = cs.arg_cache.pop().unwrap_or_default();
            let dy = if cs.pool {
                ConvGrad::ReluPool { grad: &cur, pooled: &out, arg: &arg }
            } else {
                ConvGrad::Relu { grad: &cur, out: &out }
            };
            let (gw, gb) = (cs.w.grad.data_mut(), cs.b.grad.data_mut());
            conv3d_backward_weights_acc(&x, dy, &cs.spec, gw, gb);
            let below = (i > 0).then(|| {
                let [d, h, w] = cs.in_dims;
                let buf = spare.take(per_image(x.shape()));
                conv3d_backward_data_reusing(dy, &cs.w.value, &cs.spec, (d, h, w), buf)
            });
            spare.give(std::mem::replace(&mut out, x));
            if let Some(below) = below {
                spare.give(std::mem::replace(&mut cur, below));
            }
        }
        spare.give(out);
        spare.give(cur);
    }

    /// Drop all cached activations.
    pub fn clear_cache(&mut self) {
        for cs in &mut self.stages {
            cs.x_cache.clear();
            cs.arg_cache.clear();
        }
        self.fc.clear_cache();
        self.fc_relu_cache.clear();
    }
}

impl Module for Cnn3d {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        for cs in &mut self.stages {
            f(&format!("{prefix}/conv{}/w", cs.index), &mut cs.w);
            f(&format!("{prefix}/conv{}/b", cs.index), &mut cs.b);
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

    /// The stack on the allocating kernels, unfused: `conv3d_blocked → relu
    /// → maxpool3d` per stage, then back through `maxpool3d_backward →
    /// relu_backward → conv3d_backward_{weights,data}` with nothing skipped:
    /// the first stage's input gradient is computed too. Accumulates `cnn`'s
    /// parameter gradients; returns the embedding and dL/dx.
    fn reference_pass(cnn: &mut Cnn3d, x: &Tensor, grad: &Tensor) -> (Tensor, Tensor) {
        use etalumis_tensor::conv::{
            conv3d_backward_data, conv3d_backward_weights, conv3d_blocked, maxpool3d,
            maxpool3d_backward,
        };
        let b = x.shape()[0];
        // Per stage: its input, its pre-activation and, when pooled, the
        // argmax and the shape it indexes.
        let mut acts = Vec::new();
        let mut cur = x.clone();
        for cs in &cnn.stages {
            let pre = conv3d_blocked(&cur, &cs.w.value, cs.b.value.data(), &cs.spec);
            let mut y = relu(&pre);
            let mut pool = None;
            if cs.pool {
                let (p, arg) = maxpool3d(&y, 2);
                pool = Some((arg, y.shape().to_vec()));
                y = p;
            }
            acts.push((std::mem::replace(&mut cur, y), pre, pool));
        }
        let pre = cnn.fc.forward(&cur.reshape(&[b, cnn.config.flat_dim()]));
        let emb = relu(&pre);
        let dflat = cnn.fc.backward(&relu_backward(&pre, grad));
        let (c, dims) = cnn.config.output_geometry();
        let mut g = dflat.reshape(&[b, c, dims[0], dims[1], dims[2]]);
        for (cs, (input, pre, pool)) in cnn.stages.iter_mut().zip(acts).rev() {
            if let Some((arg, shape)) = pool {
                g = maxpool3d_backward(&g, &arg, &shape);
            }
            let dpre = relu_backward(&pre, &g);
            let (gw, gb) = conv3d_backward_weights(&input, &dpre, &cs.spec);
            cs.w.grad.add_assign(&gw);
            cs.b.grad.add_assign(&Tensor::from_vec(&[gb.len()], gb));
            let [d, h, w] = cs.in_dims;
            g = conv3d_backward_data(&dpre, &cs.w.value, &cs.spec, (d, h, w));
        }
        (emb, g)
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
        let (_, dx) = reference_pass(&mut cnn, &x, &g);
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.data().iter().any(|&v| v != 0.0), "the reference run computes dL/dx");
        assert_eq!(skipped, param_grads(&mut cnn));
    }

    #[test]
    fn conv_conv_pool_and_conv_fc_stages_match_the_allocating_kernels() {
        // `small` has only Conv→Pool stages. Here the first stage's ReLU mask
        // comes from the next conv's input, the second's from the pooled
        // value at the argmax, the last's from the FC layer's input; odd
        // extents make the pool drop a plane and a column.
        use CnnStageSpec::*;
        let cfg = Cnn3dConfig {
            input_dims: [5, 7, 6],
            stages: vec![Conv(4), Conv(6), Pool, Conv(8)],
            embedding_dim: 3,
        };
        let mut cnn = Cnn3d::new(&mut StdRng::seed_from_u64(4), cfg);
        // Biases on both sides of zero, so every mask has both outcomes.
        cnn.visit_params("cnn", &mut |n, p| {
            if n.ends_with("/b") {
                let len = p.value.numel();
                p.value = Tensor::from_fn(&[len], |i| (i as f32 - 1.5) * 0.1);
            }
        });
        let mut reference = cnn.clone();
        let x = Tensor::from_fn(&[5, 1, 5, 7, 6], |i| ((i * 37) % 17) as f32 * 0.11 - 0.9);
        let g = Tensor::from_fn(&[5, 3], |i| ((i * 13) % 5) as f32 * 0.4 - 0.7);
        let y = cnn.forward(&x);
        cnn.backward(&g);
        let (want, _) = reference_pass(&mut reference, &x, &g);
        assert_eq!(y, want, "embedding");
        let (got, want) = (param_grads(&mut cnn), param_grads(&mut reference));
        assert_eq!(got.len(), 8);
        for ((name, got), (_, want)) in got.iter().zip(&want) {
            assert!(want.data().iter().any(|&v| v != 0.0), "{name}: a gradient reaches it");
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "a Pool stage must directly follow a Conv stage")]
    fn a_pool_without_a_conv_before_it_is_rejected() {
        let cfg = Cnn3dConfig {
            input_dims: [4, 4, 4],
            stages: vec![CnnStageSpec::Conv(2), CnnStageSpec::Pool, CnnStageSpec::Pool],
            embedding_dim: 2,
        };
        Cnn3d::new(&mut StdRng::seed_from_u64(5), cfg);
    }

    #[test]
    fn recycled_activations_change_no_bit() {
        // A network whose spare buffers hold earlier passes' activations —
        // of a larger batch (stale tails), a smaller one (grown buffers) and
        // the same one — must compute exactly what a fresh network does
        // with the allocating kernels. With the pool fused in, the first
        // stack keeps no buffer (its largest activation is 4 KiB per image);
        // the second's unpooled conv output is 32 KiB per image, so from
        // B = 64 on it is large enough to be kept.
        let pooled = Cnn3dConfig {
            input_dims: [4, 16, 16],
            stages: vec![CnnStageSpec::Conv(8), CnnStageSpec::Pool],
            embedding_dim: 4,
        };
        let unpooled = Cnn3dConfig { stages: vec![CnnStageSpec::Conv(8)], ..pooled.clone() };
        let input = |b: usize, salt: usize| {
            Tensor::from_fn(&[b, 1, 4, 16, 16], |i| ((i * 29 + salt) % 13) as f32 * 0.07 - 0.4)
        };
        let grad = |b: usize| Tensor::from_fn(&[b, 4], |i| ((i * 17) % 7) as f32 * 0.3 - 0.8);
        let step = |cnn: &mut Cnn3d, b: usize, salt: usize| {
            let y = cnn.forward(&input(b, salt));
            cnn.backward(&grad(b));
            (y, param_grads(cnn))
        };
        for (cfg, kept) in [(pooled, false), (unpooled, true)] {
            let fresh = || Cnn3d::new(&mut StdRng::seed_from_u64(3), cfg.clone());
            let reference = |b: usize| {
                let mut cnn = fresh();
                let (y, _) = reference_pass(&mut cnn, &input(b, 0), &grad(b));
                (y, param_grads(&mut cnn))
            };
            let mut warm = fresh();
            for (b, salt) in [(80, 1), (64, 2), (72, 3)] {
                warm.forward_inference(&input(b + 1, salt));
                step(&mut warm, b, salt);
            }
            assert_eq!(!warm.spare.0.is_empty(), kept, "the conv outputs were kept");
            for b in [72, 64, 88] {
                warm.visit_params("cnn", &mut |_, p| p.grad.zero_());
                assert_eq!(reference(b), step(&mut warm, b, 0), "batch {b}");
            }
            let x = input(4, 4);
            assert_eq!(fresh().forward_inference(&x), warm.forward_inference(&x));
            // Inference lets the training buffers go.
            assert!(warm.spare.0.is_empty());
        }
    }

    #[test]
    fn flop_count_positive_and_scales_with_batch() {
        let cfg = Cnn3dConfig::small([4, 8, 8], 16);
        assert_eq!(cfg.forward_flops(2), 2 * cfg.forward_flops(1));
        assert!(cfg.forward_flops(1) > 0);
    }
}
