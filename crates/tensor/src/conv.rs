//! 3D convolution and pooling kernels.
//!
//! The paper's §4.4.2 optimization story is that Conv3D was the training
//! hotspot and that making it SIMD-friendly, forward *and* backward, paid 8×.
//! Here all three passes run on the AVX2 GEMM spine ([`crate::simd`]'s row
//! kernels) as tiled im2col products:
//!
//! * [`conv3d_blocked`] — forward, `Y = W[O, C·k³] · col + b`;
//! * [`conv3d_backward_weights`] — `[dW | db]ᵀ += [col; 1] · dYᵀ`, the bias
//!   gradient in the same product;
//! * [`conv3d_backward_data`] — `col = Wᵀ · dY`, then col2im;
//! * [`conv3d_naive`] — direct convolution over plain NCDHW, the "default
//!   framework" baseline and the oracle the others are tested against.
//!
//! Per image and per fixed tile of output voxels, the panel
//! `col[C·k³, tile]` is built from the zero-padded image with whole
//! 8-float copies ([`Kernels::im2col`]) and added back by col2im with
//! 8-lane vectors ([`Kernels::col2im`]); it lives in per-thread scratch
//! bounded per tile, so no whole-volume or whole-batch im2col is ever
//! materialised. Every layer shape takes this one path.
//!
//! A `Cnn3d` stage — convolution, ReLU and, when one follows, a 2× max-pool
//! — is one per-image task each way. Forward, [`conv3d_fused_reusing`]
//! applies bias and ReLU in the tile copy-out and pools the image's output
//! while it is in cache. Backward, [`conv3d_backward_weights_acc`] and
//! [`conv3d_backward_data_reusing`] take a [`ConvGrad`] and build each
//! image's `dY` themselves: the pool scatter and the ReLU mask, read from
//! the stage's post-ReLU output (`relu(y) > 0` exactly where `y > 0`, NaN
//! and −0 included). No batch-sized pre-activation, pre-pool or `dY`
//! buffer exists; the allocating `relu`, [`maxpool3d`] and
//! [`maxpool3d_backward`] are the fused stages' test oracle.
//!
//! Determinism: tile and image-group boundaries are functions of the layer
//! shape alone, images (or groups of images) are independent pool tasks with
//! disjoint outputs, the weight-gradient partials are added in ascending
//! group order, every product is a [`crate::simd`] row kernel, and col2im
//! gives each element its adds in the fixed (tile, panel row) order — so
//! results are bit-identical across scalar/AVX2 dispatch and across thread
//! counts, and the fused stages equal the unfused chain bit for bit.

use crate::pool::{self, SendPtr};
use crate::simd::{Kernels, Seg};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Static description of a 3D convolution (cubic kernel, stride 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv3dSpec {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Cubic kernel size.
    pub k: usize,
    /// Symmetric zero padding on every spatial side.
    pub pad: usize,
}

impl Conv3dSpec {
    /// Output spatial size for an input spatial size.
    pub fn out_dim(&self, d: usize) -> usize {
        d + 2 * self.pad + 1 - self.k
    }

    /// Multiply–add flop count of one forward pass over a batch.
    pub fn flops(&self, batch: usize, d: usize, h: usize, w: usize) -> u64 {
        let (od, oh, ow) = (self.out_dim(d), self.out_dim(h), self.out_dim(w));
        2 * batch as u64
            * self.out_c as u64
            * self.in_c as u64
            * (od * oh * ow) as u64
            * (self.k * self.k * self.k) as u64
    }
}

fn pad_input(x: &Tensor, pad: usize) -> Tensor {
    if pad == 0 {
        return x.clone();
    }
    let s = x.shape();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let (pd, ph, pw) = (d + 2 * pad, h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(&[n, c, pd, ph, pw]);
    let xs = x.data();
    let od = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for di in 0..d {
                for hi in 0..h {
                    let src = ((((ni * c) + ci) * d + di) * h + hi) * w;
                    let dst = ((((ni * c) + ci) * pd + di + pad) * ph + hi + pad) * pw + pad;
                    od[dst..dst + w].copy_from_slice(&xs[src..src + w]);
                }
            }
        }
    }
    out
}

/// Direct 3D convolution over NCDHW (baseline path).
///
/// `x`: [N, C, D, H, W]; `weight`: [O, C, k, k, k]; `bias`: length O.
/// Returns [N, O, OD, OH, OW].
pub fn conv3d_naive(x: &Tensor, weight: &Tensor, bias: &[f32], spec: &Conv3dSpec) -> Tensor {
    let s = x.shape().to_vec();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    assert_eq!(c, spec.in_c);
    assert_eq!(weight.shape(), &[spec.out_c, c, spec.k, spec.k, spec.k]);
    assert_eq!(bias.len(), spec.out_c);
    let xp = pad_input(x, spec.pad);
    let (pd, ph, pw) = (d + 2 * spec.pad, h + 2 * spec.pad, w + 2 * spec.pad);
    let (od, oh, ow) = (spec.out_dim(d), spec.out_dim(h), spec.out_dim(w));
    let k = spec.k;
    let mut out = Tensor::zeros(&[n, spec.out_c, od, oh, ow]);
    let xd = xp.data();
    let wd = weight.data();
    let o_spatial = od * oh * ow;
    let out_c = spec.out_c;
    let op = SendPtr::new(out.data_mut().as_mut_ptr());
    pool::run(n * out_c, &|chunk_idx| {
        // SAFETY: each task owns one disjoint [OD, OH, OW] output chunk.
        let ochunk = unsafe {
            std::slice::from_raw_parts_mut(op.get().add(chunk_idx * o_spatial), o_spatial)
        };
        let ni = chunk_idx / out_c;
        let oc = chunk_idx % out_c;
        for zo in 0..od {
            for yo in 0..oh {
                for xo in 0..ow {
                    let mut acc = bias[oc];
                    for ci in 0..c {
                        for kz in 0..k {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let xi = ((((ni * c) + ci) * pd + zo + kz) * ph + yo + ky) * pw
                                        + xo
                                        + kx;
                                    let wi = ((((oc * c) + ci) * k + kz) * k + ky) * k + kx;
                                    acc += xd[xi] * wd[wi];
                                }
                            }
                        }
                    }
                    ochunk[(zo * oh + yo) * ow + xo] = acc;
                }
            }
        }
    });
    out
}

/// Floats in one im2col panel `[C·k³, tile]` (64 KiB): the narrow first layer
/// (`C·k³ = 27`) gets a few 592-voxel tiles per image, and a wide one falls
/// back to [`TILE_ALIGN`] voxels per tile — 216 KiB of panel for the `128·27`
/// rows of `Cnn3dConfig::paper`'s widest layer, never a panel over the whole
/// volume. This bounds the per-thread panel scratch whatever the layer.
const COL_PANEL_FLOATS: usize = 16 * 1024;

/// Tile lengths are multiples of the 16-column block of the GEMM row kernel,
/// so only an image's last tile can have a narrower tail.
const TILE_ALIGN: usize = 16;

/// Floats per vector of the im2col fill and of col2im, and the slack the
/// padded image (or its gradient) and the panel carry for them.
const LANES: usize = 8;

/// Images per weight-gradient partial sum. Part of the determinism contract:
/// group boundaries depend on the batch size only, never on thread count.
const IMAGES_PER_GROUP: usize = 4;

/// Window and stride of the max-pool a fused stage applies.
const POOL: usize = 2;

/// Voxels per tile for an im2col panel of `kk` rows — a pure function of the
/// layer shape.
fn tile_len(kk: usize) -> usize {
    (COL_PANEL_FLOATS / kk / TILE_ALIGN * TILE_ALIGN).max(TILE_ALIGN)
}

/// A fixed range of one image's output voxels, cut into row segments.
struct Tile {
    start: usize,
    len: usize,
    segs: Vec<Seg>,
    /// The segments again as `(pad, col)` starts of whole [`LANES`]-float
    /// copies, the last one of a segment running past its end.
    vecs: Vec<(usize, usize)>,
}

/// One convolution lowered to GEMM: panel row `t = ((c·k + kz)·k + ky)·k + kx`
/// — the weight tensor's own `[O, C·k³]` order — reads the padded input at
/// `koff[t]` plus a segment's `pad`. Built once per call and shared read-only
/// by every image task.
struct Lowering {
    k: usize,
    out_dims: (usize, usize, usize),
    /// Rows of the im2col panel, `C·k³`.
    kk: usize,
    /// Output voxels per channel.
    vox: usize,
    /// Floats of one input image `[C, D, H, W]`, and of its padded copy.
    in_len: usize,
    pad_len: usize,
    /// Input row width `W`, and where each input row starts in the image and
    /// in its padded copy.
    w: usize,
    rows: Vec<(usize, usize)>,
    koff: Vec<usize>,
    /// `koff` of every `kx = 0` row: row `t` is at `kbase[t / k] + t % k`.
    kbase: Vec<usize>,
    tiles: Vec<Tile>,
}

impl Lowering {
    fn new(spec: &Conv3dSpec, (d, h, w): (usize, usize, usize)) -> Self {
        let (c, k, p) = (spec.in_c, spec.k, spec.pad);
        let (pd, ph, pw) = (d + 2 * p, h + 2 * p, w + 2 * p);
        let (od, oh, ow) = (spec.out_dim(d), spec.out_dim(h), spec.out_dim(w));
        let (kk, vox) = (c * k * k * k, od * oh * ow);
        // Input row `r = (c·D + z)·H + y`; panel row `t` as on the struct.
        let rows = (0..c * d * h)
            .map(|r| (r * w, ((r / (d * h) * pd + r / h % d + p) * ph + r % h + p) * pw + p))
            .collect();
        let koff: Vec<usize> = (0..kk)
            .map(|t| ((t / (k * k * k) * pd + t / (k * k) % k) * ph + t / k % k) * pw + t % k)
            .collect();
        let kbase = koff.iter().step_by(k.max(1)).copied().collect();
        let mut tiles = Vec::new();
        let mut start = 0;
        while start < vox {
            let len = tile_len(kk).min(vox - start);
            let mut segs = Vec::new();
            let mut v = start;
            while v < start + len {
                let (row, x0) = (v / ow, v % ow);
                let run = (ow - x0).min(start + len - v);
                segs.push(Seg {
                    pad: (row / oh * ph + row % oh) * pw + x0,
                    col: v - start,
                    len: run,
                });
                v += run;
            }
            let vecs = segs
                .iter()
                .flat_map(|s| (0..s.len).step_by(LANES).map(move |j| (s.pad + j, s.col + j)))
                .collect();
            tiles.push(Tile { start, len, segs, vecs });
            start += len;
        }
        let (in_len, pad_len) = (c * d * h * w, c * pd * ph * pw);
        Self { k, out_dims: (od, oh, ow), kk, vox, in_len, pad_len, w, rows, koff, kbase, tiles }
    }

    /// Output dims after the fused 2× max-pool. Floor semantics: an odd
    /// extent drops its last plane, row or column, which then gets an
    /// exact +0 gradient.
    fn pooled_dims(&self) -> (usize, usize, usize) {
        let (od, oh, ow) = self.out_dims;
        (od / POOL, oh / POOL, ow / POOL)
    }

    /// Zero-pad one image into `xpad`.
    fn pad_image(&self, x: &[f32], xpad: &mut [f32]) {
        xpad.fill(0.0);
        for &(src, dst) in &self.rows {
            xpad[dst..dst + self.w].copy_from_slice(&x[src..src + self.w]);
        }
    }

    /// Crop the padding off one image gradient.
    fn crop_image(&self, gpad: &[f32], gx: &mut [f32]) {
        for &(dst, src) in &self.rows {
            gx[dst..dst + self.w].copy_from_slice(&gpad[src..src + self.w]);
        }
    }

    /// `Y[O, tile] = b + W · col` per tile, stored to `y[O, vox]` through
    /// the ReLU when `relu`.
    fn conv_image(
        &self,
        kern: Kernels,
        (wd, bias): (&[f32], &[f32]),
        relu: bool,
        xpad: &[f32],
        (col, rows): (&mut Vec<f32>, &mut Vec<f32>),
        y: &mut [f32],
    ) {
        let (o, kk, vox) = (bias.len(), self.kk, self.vox);
        for tile in &self.tiles {
            let col = prefix(col, kk * tile.len + LANES);
            kern.im2col(col, xpad, &self.koff, &tile.vecs, tile.len);
            let ytile = prefix(rows, o * tile.len);
            for (yrow, &b) in ytile.chunks_exact_mut(tile.len).zip(bias) {
                yrow.fill(b);
            }
            kern.gemm_rows_unpacked(ytile, wd, &col[..kk * tile.len], kk, tile.len);
            for (oc, yrow) in ytile.chunks_exact(tile.len).enumerate() {
                let dst = &mut y[oc * vox + tile.start..][..tile.len];
                if relu {
                    for (d, &v) in dst.iter_mut().zip(yrow) {
                        *d = v.max(0.0);
                    }
                } else {
                    dst.copy_from_slice(yrow);
                }
            }
        }
    }

    /// 2× max-pool one image's `y[O, OD, OH, OW]` into `pooled[O, PD, PH,
    /// PW]`, as [`maxpool3d`] does: the first strictly greatest voxel of a
    /// window wins, and `arg` gets its flat index plus `base`.
    fn pool_image(&self, y: &[f32], pooled: &mut [f32], arg: &mut [u32], base: usize) {
        let (od, oh, ow) = self.out_dims;
        let (pd, ph, pw) = self.pooled_dims();
        let mut i = 0;
        for plane in 0..pooled.len() / (ph * pw) {
            let (c, zo) = (plane / pd, plane % pd);
            for yo in 0..ph {
                for xo in 0..pw {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = ((c * od + zo * POOL) * oh + yo * POOL) * ow + xo * POOL;
                    for kz in 0..POOL {
                        for ky in 0..POOL {
                            let at =
                                ((c * od + zo * POOL + kz) * oh + yo * POOL + ky) * ow + xo * POOL;
                            for (idx, &v) in (at..).zip(&y[at..at + POOL]) {
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                    }
                    pooled[i] = best;
                    arg[i] = (base + best_idx) as u32;
                    i += 1;
                }
            }
        }
    }
}

/// Per-thread lowering scratch, reused across calls: one padded image, one
/// im2col panel, a few panel-width rows and one image's `[O, vox]` (or
/// `[vox, O]`) convolution output or gradient.
#[derive(Default)]
struct Scratch {
    pad: Vec<f32>,
    col: Vec<f32>,
    rows: Vec<f32>,
    img: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The first `len` floats of a scratch buffer, grown on demand. Contents are
/// stale: every user overwrites or fills its prefix.
fn prefix(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Run `f(i, out_i)` for every `i < n` on the kernel pool, `out_i` being the
/// `i`-th `len`-float chunk of `out`, with this thread's [`Scratch`]. Tasks
/// call the GEMM row kernels directly: the scratch stays borrowed for the
/// whole task.
fn for_each_chunk(
    out: &mut [f32],
    n: usize,
    len: usize,
    f: &(dyn Fn(usize, &mut [f32], &mut Scratch) + Sync),
) {
    assert_eq!(out.len(), n * len);
    let op = SendPtr::new(out.as_mut_ptr());
    pool::run(n, &|i| {
        // SAFETY: task `i` is the only one to touch floats `[i·len, (i+1)·len)`
        // of `out`, which holds `n·len` floats (asserted above) and outlives
        // `pool::run`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(op.get().add(i * len), len) };
        SCRATCH.with(|s| f(i, chunk, &mut s.borrow_mut()));
    });
}

/// `buf` as the storage of a `len`-element output that the caller then
/// writes in full: its allocation when large enough (old contents left for
/// the caller to overwrite), else a fresh zeroed vector.
///
/// The `*_reusing` kernels take their output storage this way, so a training
/// loop that hands back the activations it is done with allocates none in
/// its steady state.
fn output_storage(mut buf: Vec<f32>, len: usize) -> Vec<f32> {
    if buf.capacity() < len {
        return vec![0.0; len];
    }
    buf.resize(len, 0.0);
    buf
}

/// What [`conv3d_fused_reusing`] applies to each image's convolution output
/// `Y` before storing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Epilogue {
    /// `Y` as is ([`conv3d_blocked`]).
    Linear,
    /// `relu(Y)`.
    Relu,
    /// The 2× max-pool of `relu(Y)`, with its argmax.
    ReluPool,
}

/// 3D convolution as tiled im2col products on the GEMM row kernels.
///
/// Semantically identical to [`conv3d_naive`]. Per image and per tile of
/// output voxels, `Y[O, tile] = b + W[O, C·k³] · col[C·k³, tile]` through
/// [`Kernels::gemm_rows_unpacked`]. Every layer shape takes this path; images
/// are independent pool tasks, so results do not depend on the thread count.
pub fn conv3d_blocked(x: &Tensor, weight: &Tensor, bias: &[f32], spec: &Conv3dSpec) -> Tensor {
    conv3d_fused_reusing(x, weight, bias, spec, Epilogue::Linear, Vec::new()).0
}

/// One convolution stage in one pass per image: [`conv3d_blocked`], then the
/// `epi`logue while that image's output is still in cache, stored in `buf`'s
/// allocation. Returns the stored tensor and, for [`Epilogue::ReluPool`],
/// the argmax of every pooled voxel as a flat index into the `[N, O, OD, OH,
/// OW]` convolution output (empty otherwise).
///
/// Bit for bit the chain `conv3d_blocked → relu → maxpool3d`: the ReLU is
/// applied in the tile copy-out, and the pool runs on a per-thread copy of
/// one image's output, so no batch-sized pre-activation or pre-pool buffer
/// exists.
pub fn conv3d_fused_reusing(
    x: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: &Conv3dSpec,
    epi: Epilogue,
    buf: Vec<f32>,
) -> (Tensor, Vec<u32>) {
    let s = x.shape();
    let (n, c, in_dims) = (s[0], s[1], (s[2], s[3], s[4]));
    assert_eq!(c, spec.in_c);
    assert_eq!(weight.shape(), &[spec.out_c, c, spec.k, spec.k, spec.k]);
    assert_eq!(bias.len(), spec.out_c);
    let low = Lowering::new(spec, in_dims);
    let (o, vox) = (spec.out_c, low.vox);
    let pool = epi == Epilogue::ReluPool;
    let (d, h, w) = if pool { low.pooled_dims() } else { low.out_dims };
    assert!(!pool || d * h * w > 0, "pool window larger than input");
    let per_image = o * d * h * w;
    assert!(!pool || n * o * vox <= u32::MAX as usize, "argmax indices must fit in u32");
    let mut out = Tensor::from_vec(&[n, o, d, h, w], output_storage(buf, n * per_image));
    let mut arg = vec![0u32; if pool { n * per_image } else { 0 }];
    let args = SendPtr::new(arg.as_mut_ptr());
    let kern = Kernels::get();
    let (xd, params) = (x.data(), (weight.data(), bias));
    for_each_chunk(out.data_mut(), n, per_image, &|ni, y, s| {
        let xpad = prefix(&mut s.pad, low.pad_len + LANES);
        low.pad_image(&xd[ni * low.in_len..(ni + 1) * low.in_len], xpad);
        let relu = epi != Epilogue::Linear;
        if !pool {
            low.conv_image(kern, params, relu, xpad, (&mut s.col, &mut s.rows), y);
            return;
        }
        let img = prefix(&mut s.img, o * vox);
        low.conv_image(kern, params, relu, xpad, (&mut s.col, &mut s.rows), img);
        // SAFETY: with a pool, `arg` holds `n·per_image` indices (allocated
        // above, outliving `pool::run`) and task `ni` is the only one to
        // touch `[ni·per_image, (ni+1)·per_image)`.
        let arg =
            unsafe { std::slice::from_raw_parts_mut(args.get().add(ni * per_image), per_image) };
        low.pool_image(img, y, arg, ni * o * vox);
    });
    (out, arg)
}

/// Where a backward pass gets `dY`, the gradient w.r.t. the convolution's
/// output `Y = W·col + b` of every image.
#[derive(Clone, Copy, Debug)]
pub enum ConvGrad<'a> {
    /// `dY` itself, `[N, O, OD, OH, OW]`.
    Dense(&'a Tensor),
    /// Through [`Epilogue::Relu`]: `grad` is w.r.t. `out = relu(Y)`, and
    /// `dY = out > 0 ? grad : 0`.
    Relu { grad: &'a Tensor, out: &'a Tensor },
    /// Through [`Epilogue::ReluPool`]: `grad` is w.r.t. the pooled output
    /// `pooled`, whose argmax is `arg`. `dY` is `0 + grad` at an argmax
    /// whose pooled value is `> 0`, else `+0`.
    ReluPool { grad: &'a Tensor, pooled: &'a Tensor, arg: &'a [u32] },
}

impl ConvGrad<'_> {
    /// Batch size, after checking every shape against a layer with `o`
    /// output channels lowered as `low`.
    fn batch(&self, o: usize, low: &Lowering) -> usize {
        let (grad, (d, h, w)) = match *self {
            ConvGrad::Dense(g) => (g, low.out_dims),
            ConvGrad::Relu { grad, out } => {
                assert_eq!(out.shape(), grad.shape(), "ReLU output and its gradient");
                (grad, low.out_dims)
            }
            ConvGrad::ReluPool { grad, pooled, arg } => {
                assert_eq!(pooled.shape(), grad.shape(), "pooled output and its gradient");
                assert_eq!(arg.len(), grad.numel(), "one argmax per pooled voxel");
                (grad, low.pooled_dims())
            }
        };
        let n = grad.shape()[0];
        assert_eq!(grad.shape(), &[n, o, d, h, w], "gradient shape");
        n
    }

    /// Image `ni`'s `dY[O, vox]`: borrowed from a dense gradient, else built
    /// in `buf`.
    fn image<'b>(
        &'b self,
        ni: usize,
        o: usize,
        low: &Lowering,
        buf: &'b mut Vec<f32>,
    ) -> &'b [f32] {
        let len = o * low.vox;
        let at = ni * len..(ni + 1) * len;
        match *self {
            ConvGrad::Dense(g) => &g.data()[at],
            ConvGrad::Relu { grad, out } => {
                let dy = prefix(buf, len);
                for ((d, &g), &y) in
                    dy.iter_mut().zip(&grad.data()[at.clone()]).zip(&out.data()[at])
                {
                    *d = if y > 0.0 { g } else { 0.0 };
                }
                dy
            }
            ConvGrad::ReluPool { grad, pooled, arg } => {
                let dy = prefix(buf, len);
                dy.fill(0.0);
                for (a, g) in routes(grad, pooled, arg, ni, at.start) {
                    dy[a] = g;
                }
                dy
            }
        }
    }

    /// Image `ni`'s `dYᵀ[vox, O]`, written to `dyt`.
    fn image_t(&self, ni: usize, o: usize, low: &Lowering, dyt: &mut [f32]) {
        let vox = low.vox;
        let at = ni * o * vox..(ni + 1) * o * vox;
        let (g, out) = match *self {
            ConvGrad::Dense(g) => (&g.data()[at], None),
            ConvGrad::Relu { grad, out } => (&grad.data()[at.clone()], Some(&out.data()[at])),
            ConvGrad::ReluPool { grad, pooled, arg } => {
                dyt.fill(0.0);
                for (a, g) in routes(grad, pooled, arg, ni, at.start) {
                    dyt[a % vox * o + a / vox] = g;
                }
                return;
            }
        };
        for (v, drow) in dyt.chunks_exact_mut(o).enumerate() {
            for (oc, d) in drow.iter_mut().enumerate() {
                let i = oc * vox + v;
                *d = match out {
                    Some(y) if y[i] > 0.0 => g[i],
                    Some(_) => 0.0,
                    None => g[i],
                };
            }
        }
    }
}

/// Where pooled image `ni`'s gradient goes: `(a, 0 + g)` for every pooled
/// voxel whose value is `> 0`, `a` its argmax counted from `base`, the
/// image's first convolution output. `0 + g` is what the scatter onto a
/// zeroed buffer computed: a −0 gradient arrives as +0.
fn routes<'b>(
    grad: &'b Tensor,
    pooled: &'b Tensor,
    arg: &'b [u32],
    ni: usize,
    base: usize,
) -> impl Iterator<Item = (usize, f32)> + 'b {
    let len = grad.numel() / grad.shape()[0];
    let at = ni * len..(ni + 1) * len;
    let (g, p, a) = (&grad.data()[at.clone()], &pooled.data()[at.clone()], &arg[at]);
    g.iter()
        .zip(p)
        .zip(a)
        .filter(|((_, &p), _)| p > 0.0)
        .map(move |((&g, _), &a)| (a as usize - base, 0.0 + g))
}

/// Gradient of the convolution w.r.t. its input.
///
/// `grad_out`: [N, O, OD, OH, OW] → returns [N, C, D, H, W]. Per image and
/// tile, `col[C·k³, tile] = Wᵀ · dY[O, tile]`, then col2im onto the padded
/// image gradient. Dense: a zero in `grad_out` still meets its weights, so
/// non-finite weights propagate.
pub fn conv3d_backward_data(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: &Conv3dSpec,
    in_dims: (usize, usize, usize),
) -> Tensor {
    conv3d_backward_data_reusing(ConvGrad::Dense(grad_out), weight, spec, in_dims, Vec::new())
}

/// [`conv3d_backward_data`] from any [`ConvGrad`], with its output stored in
/// `buf`'s allocation. Each image task builds its own `dY` (ReLU mask, pool
/// scatter) before the products, so no batch-sized `dY` exists; col2im adds
/// whole 8-lane vectors ([`Kernels::col2im`]).
pub fn conv3d_backward_data_reusing(
    grad: ConvGrad,
    weight: &Tensor,
    spec: &Conv3dSpec,
    in_dims: (usize, usize, usize),
    buf: Vec<f32>,
) -> Tensor {
    let low = Lowering::new(spec, in_dims);
    let o = spec.out_c;
    let n = grad.batch(o, &low);
    assert_eq!(weight.shape(), &[o, spec.in_c, spec.k, spec.k, spec.k]);
    let (kk, vox) = (low.kk, low.vox);
    let wt = weight.clone().reshape(&[o, kk]).transpose2();
    let mut gx = Tensor::from_vec(
        &[n, spec.in_c, in_dims.0, in_dims.1, in_dims.2],
        output_storage(buf, n * low.in_len),
    );
    let kern = Kernels::get();
    for_each_chunk(gx.data_mut(), n, low.in_len, &|ni, gimg, s| {
        let gpad = prefix(&mut s.pad, low.pad_len + LANES);
        gpad.fill(0.0);
        let dy_img = grad.image(ni, o, &low, &mut s.img);
        for tile in &low.tiles {
            let dy = prefix(&mut s.rows, o * tile.len);
            for (oc, row) in dy.chunks_exact_mut(tile.len).enumerate() {
                row.copy_from_slice(&dy_img[oc * vox + tile.start..][..tile.len]);
            }
            let col = prefix(&mut s.col, kk * tile.len + LANES);
            col.fill(0.0);
            kern.gemm_rows_unpacked(&mut col[..kk * tile.len], wt.data(), dy, o, tile.len);
            kern.col2im(gpad, col, &low.kbase, low.k, &tile.segs, tile.len);
        }
        low.crop_image(gpad, gimg);
    });
    gx
}

/// Gradients of the convolution w.r.t. weights and bias.
///
/// Returns (`grad_weight` [O, C, k, k, k], `grad_bias` [O]).
pub fn conv3d_backward_weights(
    x: &Tensor,
    grad_out: &Tensor,
    spec: &Conv3dSpec,
) -> (Tensor, Vec<f32>) {
    let mut gw = Tensor::zeros(&[spec.out_c, spec.in_c, spec.k, spec.k, spec.k]);
    let mut gb = vec![0.0f32; spec.out_c];
    conv3d_backward_weights_acc(x, ConvGrad::Dense(grad_out), spec, gw.data_mut(), &mut gb);
    (gw, gb)
}

/// Accumulating form of [`conv3d_backward_weights`] from any [`ConvGrad`]:
/// `gw[O, C·k³] += dW`, `gb[O] += db`.
///
/// Per image, `dYᵀ[vox, O]` is built once (the ReLU mask and pool scatter
/// applied there); per tile, `[dW | db]ᵀ += [col; 1] · dYᵀ[tile, O]` — the
/// row of ones appended to the im2col panel makes the bias gradient the last
/// row of the same [`Kernels::gemm_rows_unpacked`] product. Images are
/// summed in ascending order within fixed groups of [`IMAGES_PER_GROUP`]
/// (one pool task each), and the group partials are added to `gw`/`gb` in
/// ascending group order, so the reduction is a pure function of shape.
/// Dense: a zero in `dY` still meets its input voxels, so non-finite inputs
/// propagate.
pub fn conv3d_backward_weights_acc(
    x: &Tensor,
    grad: ConvGrad,
    spec: &Conv3dSpec,
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let s = x.shape();
    let (n, c, in_dims) = (s[0], s[1], (s[2], s[3], s[4]));
    assert_eq!(c, spec.in_c);
    let low = Lowering::new(spec, in_dims);
    let (o, kk, vox) = (spec.out_c, low.kk, low.vox);
    assert_eq!(grad.batch(o, &low), n);
    assert_eq!(gw.len(), o * kk);
    assert_eq!(gb.len(), o);
    let kk1 = kk + 1;
    let groups = n.div_ceil(IMAGES_PER_GROUP);
    let mut partials = vec![0.0f32; groups * kk1 * o];
    let kern = Kernels::get();
    let xd = x.data();
    for_each_chunk(&mut partials, groups, kk1 * o, &|g, part, s| {
        let xpad = prefix(&mut s.pad, low.pad_len + LANES);
        for ni in g * IMAGES_PER_GROUP..((g + 1) * IMAGES_PER_GROUP).min(n) {
            low.pad_image(&xd[ni * low.in_len..(ni + 1) * low.in_len], xpad);
            let dyt = prefix(&mut s.img, vox * o);
            grad.image_t(ni, o, &low, dyt);
            for tile in &low.tiles {
                let col = prefix(&mut s.col, kk1 * tile.len + LANES);
                kern.im2col(col, xpad, &low.koff, &tile.vecs, tile.len);
                let col = &mut col[..kk1 * tile.len];
                col[kk * tile.len..].fill(1.0);
                let dyt = &s.img[tile.start * o..(tile.start + tile.len) * o];
                kern.gemm_rows_unpacked(part, col, dyt, tile.len, o);
            }
        }
    });
    for part in partials.chunks_exact(kk1 * o) {
        let (wpart, bpart) = part.split_at(kk * o);
        for (t, prow) in wpart.chunks_exact(o).enumerate() {
            for (oc, &p) in prow.iter().enumerate() {
                gw[oc * kk + t] += p;
            }
        }
        for (g, &p) in gb.iter_mut().zip(bpart) {
            *g += p;
        }
    }
}

/// 3D max pooling with cubic window/stride `k`. Returns the pooled tensor and
/// the flat argmax indices (into the input) used by the backward pass.
///
/// Floor semantics: an extent that `k` does not divide loses its last
/// `extent % k` planes, rows or columns (8×13×13 pools to 4×6×6, the paper's
/// 20×35×35 to 10×17×17), and [`maxpool3d_backward`] gives those voxels an
/// exact +0 gradient. The training stack pools inside
/// [`conv3d_fused_reusing`]; this allocating form is its test oracle.
pub fn maxpool3d(x: &Tensor, k: usize) -> (Tensor, Vec<u32>) {
    let s = x.shape().to_vec();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let (od, oh, ow) = (d / k, h / k, w / k);
    assert!(od > 0 && oh > 0 && ow > 0, "pool window larger than input");
    let len = n * c * od * oh * ow;
    let mut out = Tensor::zeros(&[n, c, od, oh, ow]);
    let mut arg = vec![0u32; len];
    let xd = x.data();
    let odat = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for zo in 0..od {
                for yo in 0..oh {
                    for xo in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for kz in 0..k {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let idx =
                                        ((((ni * c) + ci) * d + zo * k + kz) * h + yo * k + ky) * w
                                            + xo * k
                                            + kx;
                                    if xd[idx] > best {
                                        best = xd[idx];
                                        best_idx = idx;
                                    }
                                }
                            }
                        }
                        let oidx = ((((ni * c) + ci) * od + zo) * oh + yo) * ow + xo;
                        odat[oidx] = best;
                        arg[oidx] = best_idx as u32;
                    }
                }
            }
        }
    }
    (out, arg)
}

/// Backward of [`maxpool3d`]: scatter output gradients to argmax positions
/// (`0 + g` onto a zeroed tensor).
pub fn maxpool3d_backward(grad_out: &Tensor, arg: &[u32], in_shape: &[usize]) -> Tensor {
    let mut gx = Tensor::zeros(in_shape);
    let gd = grad_out.data();
    let gxd = gx.data_mut();
    for (i, &a) in arg.iter().enumerate() {
        gxd[a as usize] += gd[i];
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        Tensor::from_fn(shape, |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive() {
        for &(c, o, pad) in &[(1usize, 8usize, 1usize), (3, 5, 0), (8, 16, 1), (10, 12, 1)] {
            let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad };
            let x = rand_tensor(&[2, c, 5, 6, 7], 7 + c as u64);
            let wt = rand_tensor(&[o, c, 3, 3, 3], 11 + o as u64);
            let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1).collect();
            let a = conv3d_naive(&x, &wt, &bias, &spec);
            let b = conv3d_blocked(&x, &wt, &bias, &spec);
            assert_close(&a, &b, 1e-4);
        }
    }

    #[test]
    fn conv_backward_data_matches_finite_difference() {
        let spec = Conv3dSpec { in_c: 2, out_c: 3, k: 3, pad: 1 };
        let x = rand_tensor(&[1, 2, 4, 4, 4], 21);
        let wt = rand_tensor(&[3, 2, 3, 3, 3], 22);
        let bias = vec![0.0; 3];
        // Loss = sum(conv(x)); dL/dx via backward with grad_out = ones.
        let y = conv3d_naive(&x, &wt, &bias, &spec);
        let ones = Tensor::full(y.shape(), 1.0);
        let gx = conv3d_backward_data(&ones, &wt, &spec, (4, 4, 4));
        let eps = 1e-2f32;
        for &flat in &[0usize, 17, 63, 100] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fp = conv3d_naive(&xp, &wt, &bias, &spec).sum();
            let fm = conv3d_naive(&xm, &wt, &bias, &spec).sum();
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            let ana = gx.data()[flat];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "{num} vs {ana}");
        }
    }

    #[test]
    fn conv_backward_weights_matches_finite_difference() {
        let spec = Conv3dSpec { in_c: 2, out_c: 2, k: 3, pad: 1 };
        let x = rand_tensor(&[2, 2, 4, 4, 4], 31);
        let wt = rand_tensor(&[2, 2, 3, 3, 3], 32);
        let bias = vec![0.1, -0.2];
        let y = conv3d_naive(&x, &wt, &bias, &spec);
        let ones = Tensor::full(y.shape(), 1.0);
        let (gw, gb) = conv3d_backward_weights(&x, &ones, &spec);
        let eps = 1e-2f32;
        for &flat in &[0usize, 13, 53, 100] {
            let mut wp = wt.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = wt.clone();
            wm.data_mut()[flat] -= eps;
            let fp = conv3d_naive(&x, &wp, &bias, &spec).sum();
            let fm = conv3d_naive(&x, &wm, &bias, &spec).sum();
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            let ana = gw.data()[flat];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "{num} vs {ana}");
        }
        // Bias gradient = number of output voxels per channel (grad_out = 1).
        let per_chan = (y.numel() / 2) as f32;
        assert!((gb[0] - per_chan).abs() < 1e-3);
    }

    /// Brute-force gradients of [`conv3d_naive`] — the oracle for the two
    /// backward passes: every (output voxel, kernel tap) pair once, bounds
    /// tested per element, accumulated in f64. Returns (dx, dw, db).
    fn backward_naive(
        x: &Tensor,
        wt: &Tensor,
        gout: &Tensor,
        spec: &Conv3dSpec,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let s = x.shape();
        let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
        let (o, k, p) = (spec.out_c, spec.k, spec.pad);
        let (od, oh, ow) = (spec.out_dim(d), spec.out_dim(h), spec.out_dim(w));
        let mut gx = vec![0.0f64; x.numel()];
        let mut gw = vec![0.0f64; wt.numel()];
        let mut gb = vec![0.0f64; o];
        for ni in 0..n {
            for oc in 0..o {
                for (v, &g) in
                    gout.data()[(ni * o + oc) * od * oh * ow..][..od * oh * ow].iter().enumerate()
                {
                    let (z, y, xo) = (v / (oh * ow), v / ow % oh, v % ow);
                    gb[oc] += g as f64;
                    for ci in 0..c {
                        for tap in 0..k * k * k {
                            let (kz, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
                            let (iz, iy, ix) = (z + kz, y + ky, xo + kx);
                            if iz < p
                                || iy < p
                                || ix < p
                                || iz >= d + p
                                || iy >= h + p
                                || ix >= w + p
                            {
                                continue;
                            }
                            let xi = (((ni * c + ci) * d + iz - p) * h + iy - p) * w + ix - p;
                            let wi = (oc * c + ci) * k * k * k + tap;
                            gx[xi] += g as f64 * wt.data()[wi] as f64;
                            gw[wi] += g as f64 * x.data()[xi] as f64;
                        }
                    }
                }
            }
        }
        let narrow = |v: Vec<f64>| v.into_iter().map(|g| g as f32).collect::<Vec<f32>>();
        (
            Tensor::from_vec(x.shape(), narrow(gx)),
            Tensor::from_vec(wt.shape(), narrow(gw)),
            narrow(gb),
        )
    }

    /// (batch, input dims) of the oracle sweep: non-cubic volumes, batch 1 and
    /// a batch of three ragged image groups, the 8×13×13 IC observation (many
    /// tiles for every `in_c`), 192 voxels (exactly one tile at `in_c = 3`)
    /// and a volume smaller than one vector copy.
    const SWEEP: [(usize, [usize; 3]); 6] = [
        (1, [5, 6, 7]),
        (2, [5, 6, 7]),
        (9, [3, 4, 5]),
        (3, [8, 13, 13]),
        (2, [4, 6, 8]),
        (1, [2, 3, 3]),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn fast_passes_match_brute_force(
            c in 1usize..10,
            o in 1usize..12,
            pad in 0usize..2,
            shape in 0usize..6,
            seed in 0u64..1_000_000,
        ) {
            let (n, [d, h, w]) = SWEEP[shape];
            let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad };
            let x = rand_tensor(&[n, c, d, h, w], seed);
            let wt = rand_tensor(&[o, c, 3, 3, 3], seed ^ 0x55);
            let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1 - 0.3).collect();
            let y = conv3d_naive(&x, &wt, &bias, &spec);
            assert_close(&conv3d_blocked(&x, &wt, &bias, &spec), &y, 1e-4);
            let gout = rand_tensor(y.shape(), seed ^ 0xAA);
            let (gx, gw, gb) = backward_naive(&x, &wt, &gout, &spec);
            assert_close(&conv3d_backward_data(&gout, &wt, &spec, (d, h, w)), &gx, 1e-4);
            let (fw, fb) = conv3d_backward_weights(&x, &gout, &spec);
            assert_close(&fw, &gw, 1e-4);
            assert_close(&Tensor::from_vec(&[o], fb), &Tensor::from_vec(&[o], gb), 1e-4);
        }
    }

    /// Regression: the old backward loops skipped `grad_out == 0.0` terms,
    /// turning 0 × inf into 0 (the defect PR 8 removed from GEMM). Dense
    /// products must carry a non-finite weight or input voxel into every
    /// gradient entry it meets, and nowhere else.
    #[test]
    fn backward_passes_propagate_non_finite_under_zero_grad() {
        let spec = Conv3dSpec { in_c: 2, out_c: 3, k: 3, pad: 1 };
        let gout = Tensor::zeros(&[1, 3, 4, 4, 4]);
        // The centre tap of (out 1, in 1) meets every voxel of input channel 1.
        let mut wt = rand_tensor(&[3, 2, 3, 3, 3], 41);
        wt.data_mut()[(1 * 2 + 1) * 27 + 13] = f32::INFINITY;
        let gx = conv3d_backward_data(&gout, &wt, &spec, (4, 4, 4));
        let (ch0, ch1) = gx.data().split_at(64);
        assert!(ch0.iter().all(|&g| g == 0.0), "channel 0 meets only finite weights");
        assert!(ch1.iter().all(|g| g.is_nan()), "0 × inf must reach all of channel 1");
        // An interior voxel of input channel 1 is under every tap of that channel.
        let mut x = rand_tensor(&[1, 2, 4, 4, 4], 42);
        x.data_mut()[64 + (2 * 4 + 2) * 4 + 2] = f32::NAN;
        let (gw, gb) = conv3d_backward_weights(&x, &gout, &spec);
        for (oc, taps) in gw.data().chunks(2 * 27).enumerate() {
            assert!(taps[..27].iter().all(|&g| g == 0.0), "out {oc}: channel 0 stays finite");
            assert!(taps[27..].iter().all(|g| g.is_nan()), "out {oc}: channel 1 must be NaN");
        }
        assert_eq!(gb, vec![0.0; 3]);
    }

    #[test]
    fn maxpool_forward_backward() {
        let x = Tensor::from_fn(&[1, 1, 2, 2, 2], |i| i as f32);
        let (y, arg) = maxpool3d(&x, 2);
        assert_eq!(y.shape(), &[1, 1, 1, 1, 1]);
        assert_eq!(y.data()[0], 7.0);
        let g = Tensor::full(&[1, 1, 1, 1, 1], 2.0);
        let gx = maxpool3d_backward(&g, &arg, &[1, 1, 2, 2, 2]);
        assert_eq!(gx.data()[7], 2.0);
        assert_eq!(gx.sum(), 2.0);
    }

    /// The `dY` a fused stage builds per image, dense and transposed, is the
    /// unfused chain's `relu_backward(y, maxpool3d_backward(g, arg))` bit
    /// for bit: `0 + g` at an argmax whose pooled value is positive, so a
    /// −0 gradient arrives as +0, and an exact +0 everywhere else — in
    /// particular on the plane, row and column the floor pool drops
    /// (5×7×7 pools to 2×3×3).
    #[test]
    fn pooled_gradient_routes_match_the_unfused_chain_and_dropped_voxels_get_plus_zero() {
        let (n, c, o, dims) = (3, 2, 4, (5, 7, 7));
        let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad: 1 };
        let x = rand_tensor(&[n, c, dims.0, dims.1, dims.2], 61);
        let wt = rand_tensor(&[o, c, 3, 3, 3], 62);
        let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1 - 0.15).collect();
        let (p, arg) = conv3d_fused_reusing(&x, &wt, &bias, &spec, Epilogue::ReluPool, Vec::new());
        assert_eq!(p.shape(), &[n, o, 2, 3, 3]);
        // Every other upstream gradient is −0.
        let g =
            Tensor::from_fn(p.shape(), |i| if i % 2 == 0 { -0.0 } else { i as f32 * 0.01 - 0.3 });
        let y = conv3d_blocked(&x, &wt, &bias, &spec);
        let r = crate::activations::relu(&y);
        let (p2, arg2) = maxpool3d(&r, 2);
        assert_eq!((p.data(), &arg), (p2.data(), &arg2), "fused pool = relu + maxpool3d");
        let want = crate::activations::relu_backward(&y, &maxpool3d_backward(&g, &arg, y.shape()));
        let low = Lowering::new(&spec, dims);
        let grad = ConvGrad::ReluPool { grad: &g, pooled: &p, arg: &arg };
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let vox = low.vox;
        let (mut routed, mut buf, mut dyt) = (0, Vec::new(), vec![f32::NAN; vox * o]);
        for ni in 0..n {
            let want = &want.data()[ni * o * vox..(ni + 1) * o * vox];
            let dy = grad.image(ni, o, &low, &mut buf);
            assert_eq!(bits(dy), bits(want), "image {ni}: dY");
            grad.image_t(ni, o, &low, &mut dyt);
            for (i, &v) in want.iter().enumerate() {
                assert_eq!(dyt[i % vox * o + i / vox].to_bits(), v.to_bits(), "image {ni}: dYᵀ");
                let (z, yy, xx) = (i % vox / 49, i % 49 / 7, i % 7);
                if z == 4 || yy == 6 || xx == 6 {
                    assert_eq!(v.to_bits(), 0, "a dropped voxel gets exactly +0");
                }
                routed += usize::from(v != 0.0);
            }
        }
        assert!(routed > 0, "some gradient reaches the convolution");
        assert!(want.data().iter().all(|v| v.to_bits() != (-0.0f32).to_bits()), "−0 arrives as +0");
    }

    #[test]
    fn reusing_kernels_overwrite_every_element_of_a_poisoned_buffer() {
        // Buffers full of NaN, longer and shorter than each output: what a
        // `*_reusing` kernel does not write shows as NaN, a stale tail as a
        // length mismatch.
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let poisoned = |len: usize| vec![f32::NAN; len];
        let (n, c, o, dims) = (3, 2, 5, (5, 6, 7));
        let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad: 1 };
        let x = rand_tensor(&[n, c, dims.0, dims.1, dims.2], 51);
        let wt = rand_tensor(&[o, c, 3, 3, 3], 52);
        let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1 - 0.2).collect();
        let fused = |epi, buf| conv3d_fused_reusing(&x, &wt, &bias, &spec, epi, buf);
        let y = conv3d_blocked(&x, &wt, &bias, &spec);
        let (r, _) = fused(Epilogue::Relu, Vec::new());
        let (p, arg) = fused(Epilogue::ReluPool, Vec::new());
        let grads = [
            ConvGrad::Dense(&y),
            ConvGrad::Relu { grad: &y, out: &r },
            ConvGrad::ReluPool { grad: &p, pooled: &p, arg: &arg },
        ];
        let gx: Vec<Tensor> = grads
            .iter()
            .map(|&g| conv3d_backward_data_reusing(g, &wt, &spec, dims, Vec::new()))
            .collect();
        for len in [7, y.numel() + 13] {
            let (y2, _) = fused(Epilogue::Linear, poisoned(len));
            assert_eq!(bits(&y), bits(&y2), "forward into {len}");
            let (r2, _) = fused(Epilogue::Relu, poisoned(len));
            assert_eq!(bits(&r), bits(&r2), "forward + relu into {len}");
            let (p2, arg2) = fused(Epilogue::ReluPool, poisoned(len));
            assert_eq!((bits(&p), &arg), (bits(&p2), &arg2), "forward + relu + pool into {len}");
            for (&g, want) in grads.iter().zip(&gx) {
                let gx2 = conv3d_backward_data_reusing(g, &wt, &spec, dims, poisoned(len));
                assert_eq!(bits(want), bits(&gx2), "backward-data from {g:?} into {len}");
            }
        }
    }

    #[test]
    fn flop_count() {
        let spec = Conv3dSpec { in_c: 1, out_c: 64, k: 3, pad: 1 };
        // out dims = in dims with pad=1, k=3.
        assert_eq!(spec.out_dim(20), 20);
        let f = spec.flops(1, 20, 35, 35);
        assert_eq!(f, 2 * 64 * (20 * 35 * 35) as u64 * 27);
    }
}
