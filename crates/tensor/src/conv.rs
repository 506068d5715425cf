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
//! `col[C·k³, tile]` is built from the zero-padded image with row copies;
//! it lives in per-thread scratch bounded per tile, so no whole-volume or
//! whole-batch im2col is ever materialised. Every layer shape takes this one
//! path.
//!
//! Determinism: tile and image-group boundaries are functions of the layer
//! shape alone, images (or groups of images) are independent pool tasks with
//! disjoint outputs, the weight-gradient partials are added in ascending
//! group order, and every product is a [`crate::simd`] row kernel — so
//! results are bit-identical across scalar/AVX2 dispatch and across thread
//! counts.

use crate::pool::{self, SendPtr};
use crate::simd::Kernels;
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
/// volume. This bounds the per-thread scratch whatever the layer.
const COL_PANEL_FLOATS: usize = 16 * 1024;

/// Tile lengths are multiples of the 16-column block of the GEMM row kernel,
/// so only an image's last tile can have a narrower tail.
const TILE_ALIGN: usize = 16;

/// Floats per vector copy of the im2col fill, and the slack the padded image
/// and the panel carry for it.
const LANES: usize = 8;

/// Images per weight-gradient partial sum. Part of the determinism contract:
/// group boundaries depend on the batch size only, never on thread count.
const IMAGES_PER_GROUP: usize = 4;

/// Voxels per tile for an im2col panel of `kk` rows — a pure function of the
/// layer shape.
fn tile_len(kk: usize) -> usize {
    (COL_PANEL_FLOATS / kk / TILE_ALIGN * TILE_ALIGN).max(TILE_ALIGN)
}

/// A run of output voxels that is contiguous in the padded input too (part of
/// one output row): `len` floats at `pad` in the padded volume (kernel offset
/// and channel 0) and at `col` in a panel row.
struct Seg {
    pad: usize,
    col: usize,
    len: usize,
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
        let koff = (0..kk)
            .map(|t| ((t / (k * k * k) * pd + t / (k * k) % k) * ph + t / k % k) * pw + t % k)
            .collect();
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
        Self { out_dims: (od, oh, ow), kk, vox, in_len, pad_len, w, rows, koff, tiles }
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

    /// Fill the panel `col[kk, tile.len]` from the padded image with row
    /// copies: no per-element bounds tests, the padding supplies the zeros.
    /// A segment is copied as whole [`LANES`]-float vectors, so up to
    /// `LANES - 1` floats past its end are read and written; segments and
    /// rows are filled in ascending order, so that spill lands only where a
    /// later copy puts the real values, or in the [`LANES`] floats of slack
    /// both buffers carry past their last element.
    fn im2col(&self, tile: &Tile, xpad: &[f32], col: &mut [f32]) {
        for (t, &off) in self.koff.iter().enumerate() {
            let src = &xpad[off..];
            let dst = &mut col[t * tile.len..];
            for &(from, to) in &tile.vecs {
                dst[to..to + LANES].copy_from_slice(&src[from..from + LANES]);
            }
        }
    }

    /// The transpose of [`Lowering::im2col`]: add the panel back onto the
    /// padded image gradient, rows ascending.
    fn col2im(&self, tile: &Tile, col: &[f32], gpad: &mut [f32]) {
        for (crow, &off) in col.chunks_exact(tile.len).zip(&self.koff) {
            let dst = &mut gpad[off..];
            for s in &tile.segs {
                let src = &crow[s.col..s.col + s.len];
                for (g, &v) in dst[s.pad..s.pad + s.len].iter_mut().zip(src) {
                    *g += v;
                }
            }
        }
    }
}

/// Per-thread lowering scratch, reused across calls: one padded image, one
/// im2col panel, and a few panel-width rows.
#[derive(Default)]
struct Scratch {
    pad: Vec<f32>,
    col: Vec<f32>,
    rows: Vec<f32>,
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
/// call the GEMM row kernels directly, so no pool call nests inside.
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

/// 3D convolution as tiled im2col products on the GEMM row kernels.
///
/// Semantically identical to [`conv3d_naive`]. Per image and per tile of
/// output voxels, `Y[O, tile] = b + W[O, C·k³] · col[C·k³, tile]` through
/// [`Kernels::gemm_rows_unpacked`]. Every layer shape takes this path; images
/// are independent pool tasks, so results do not depend on the thread count.
pub fn conv3d_blocked(x: &Tensor, weight: &Tensor, bias: &[f32], spec: &Conv3dSpec) -> Tensor {
    conv3d_blocked_reusing(x, weight, bias, spec, Vec::new())
}

/// [`conv3d_blocked`] with its output stored in `buf`'s allocation.
pub fn conv3d_blocked_reusing(
    x: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: &Conv3dSpec,
    buf: Vec<f32>,
) -> Tensor {
    let s = x.shape();
    let (n, c, in_dims) = (s[0], s[1], (s[2], s[3], s[4]));
    assert_eq!(c, spec.in_c);
    assert_eq!(weight.shape(), &[spec.out_c, c, spec.k, spec.k, spec.k]);
    assert_eq!(bias.len(), spec.out_c);
    let low = Lowering::new(spec, in_dims);
    let (od, oh, ow) = low.out_dims;
    let len = n * spec.out_c * low.vox;
    let mut out = Tensor::from_vec(&[n, spec.out_c, od, oh, ow], output_storage(buf, len));
    let kern = Kernels::get();
    let (xd, wd) = (x.data(), weight.data());
    let (o, kk, vox) = (spec.out_c, low.kk, low.vox);
    for_each_chunk(out.data_mut(), n, o * vox, &|ni, y, s| {
        let xpad = prefix(&mut s.pad, low.pad_len + LANES);
        low.pad_image(&xd[ni * low.in_len..(ni + 1) * low.in_len], xpad);
        for tile in &low.tiles {
            let col = prefix(&mut s.col, kk * tile.len + LANES);
            low.im2col(tile, xpad, col);
            let ytile = prefix(&mut s.rows, o * tile.len);
            for (yrow, &b) in ytile.chunks_exact_mut(tile.len).zip(bias) {
                yrow.fill(b);
            }
            kern.gemm_rows_unpacked(ytile, wd, &col[..kk * tile.len], kk, tile.len);
            for (oc, yrow) in ytile.chunks_exact(tile.len).enumerate() {
                y[oc * vox + tile.start..][..tile.len].copy_from_slice(yrow);
            }
        }
    });
    out
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
    conv3d_backward_data_reusing(grad_out, weight, spec, in_dims, Vec::new())
}

/// [`conv3d_backward_data`] with its output stored in `buf`'s allocation.
pub fn conv3d_backward_data_reusing(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: &Conv3dSpec,
    in_dims: (usize, usize, usize),
    buf: Vec<f32>,
) -> Tensor {
    let low = Lowering::new(spec, in_dims);
    let (n, o) = (grad_out.shape()[0], spec.out_c);
    let (od, oh, ow) = low.out_dims;
    assert_eq!(grad_out.shape(), &[n, o, od, oh, ow]);
    assert_eq!(weight.shape(), &[o, spec.in_c, spec.k, spec.k, spec.k]);
    let (kk, vox) = (low.kk, low.vox);
    let wt = weight.clone().reshape(&[o, kk]).transpose2();
    let mut gx = Tensor::from_vec(
        &[n, spec.in_c, in_dims.0, in_dims.1, in_dims.2],
        output_storage(buf, n * low.in_len),
    );
    let kern = Kernels::get();
    let gd = grad_out.data();
    for_each_chunk(gx.data_mut(), n, low.in_len, &|ni, gimg, s| {
        let gpad = prefix(&mut s.pad, low.pad_len);
        gpad.fill(0.0);
        for tile in &low.tiles {
            let dy = prefix(&mut s.rows, o * tile.len);
            for (oc, row) in dy.chunks_exact_mut(tile.len).enumerate() {
                row.copy_from_slice(&gd[(ni * o + oc) * vox + tile.start..][..tile.len]);
            }
            let col = prefix(&mut s.col, kk * tile.len);
            col.fill(0.0);
            kern.gemm_rows_unpacked(col, wt.data(), dy, o, tile.len);
            low.col2im(tile, col, gpad);
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
    conv3d_backward_weights_acc(x, grad_out, spec, gw.data_mut(), &mut gb);
    (gw, gb)
}

/// Accumulating form of [`conv3d_backward_weights`]: `gw[O, C·k³] += dW`,
/// `gb[O] += db`.
///
/// Per image and tile, `[dW | db]ᵀ += [col; 1] · dYᵀ[tile, O]` — the row of
/// ones appended to the im2col panel makes the bias gradient the last row of
/// the same [`Kernels::gemm_rows_unpacked`] product. Images are summed in
/// ascending order within fixed groups of [`IMAGES_PER_GROUP`] (one pool task
/// each), and the group partials are added to `gw`/`gb` in ascending group
/// order, so the reduction is a pure function of shape. Dense: a zero in
/// `grad_out` still meets its input voxels, so non-finite inputs propagate.
pub fn conv3d_backward_weights_acc(
    x: &Tensor,
    grad_out: &Tensor,
    spec: &Conv3dSpec,
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let s = x.shape();
    let (n, c, in_dims) = (s[0], s[1], (s[2], s[3], s[4]));
    assert_eq!(c, spec.in_c);
    let low = Lowering::new(spec, in_dims);
    let (o, kk, vox) = (spec.out_c, low.kk, low.vox);
    let (od, oh, ow) = low.out_dims;
    assert_eq!(grad_out.shape(), &[n, o, od, oh, ow]);
    assert_eq!(gw.len(), o * kk);
    assert_eq!(gb.len(), o);
    let kk1 = kk + 1;
    let groups = n.div_ceil(IMAGES_PER_GROUP);
    let mut partials = vec![0.0f32; groups * kk1 * o];
    let kern = Kernels::get();
    let (xd, gd) = (x.data(), grad_out.data());
    for_each_chunk(&mut partials, groups, kk1 * o, &|g, part, s| {
        let xpad = prefix(&mut s.pad, low.pad_len + LANES);
        for ni in g * IMAGES_PER_GROUP..((g + 1) * IMAGES_PER_GROUP).min(n) {
            low.pad_image(&xd[ni * low.in_len..(ni + 1) * low.in_len], xpad);
            for tile in &low.tiles {
                let col = prefix(&mut s.col, kk1 * tile.len + LANES);
                low.im2col(tile, xpad, col);
                let col = &mut col[..kk1 * tile.len];
                col[kk * tile.len..].fill(1.0);
                let dyt = prefix(&mut s.rows, tile.len * o);
                let dy = &gd[ni * o * vox + tile.start..];
                for (v, drow) in dyt.chunks_exact_mut(o).enumerate() {
                    for (oc, d) in drow.iter_mut().enumerate() {
                        *d = dy[oc * vox + v];
                    }
                }
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
pub fn maxpool3d(x: &Tensor, k: usize) -> (Tensor, Vec<u32>) {
    maxpool3d_reusing(x, k, Vec::new())
}

/// [`maxpool3d`] with the pooled tensor stored in `buf`'s allocation.
pub fn maxpool3d_reusing(x: &Tensor, k: usize, buf: Vec<f32>) -> (Tensor, Vec<u32>) {
    let s = x.shape().to_vec();
    let (n, c, d, h, w) = (s[0], s[1], s[2], s[3], s[4]);
    let (od, oh, ow) = (d / k, h / k, w / k);
    assert!(od > 0 && oh > 0 && ow > 0, "pool window larger than input");
    let len = n * c * od * oh * ow;
    let mut out = Tensor::from_vec(&[n, c, od, oh, ow], output_storage(buf, len));
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

/// Backward of [`maxpool3d`]: scatter output gradients to argmax positions.
pub fn maxpool3d_backward(grad_out: &Tensor, arg: &[u32], in_shape: &[usize]) -> Tensor {
    maxpool3d_backward_reusing(grad_out, arg, in_shape, Vec::new())
}

/// [`maxpool3d_backward`] with its output stored in `buf`'s allocation.
pub fn maxpool3d_backward_reusing(
    grad_out: &Tensor,
    arg: &[u32],
    in_shape: &[usize],
    buf: Vec<f32>,
) -> Tensor {
    let len = in_shape.iter().product::<usize>();
    let mut gx = Tensor::from_vec(in_shape, output_storage(buf, len));
    // Only the argmax positions are written below.
    gx.data_mut().fill(0.0);
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
        let y = conv3d_blocked(&x, &wt, &bias, &spec);
        let gx = conv3d_backward_data(&y, &wt, &spec, dims);
        let (p, arg) = maxpool3d(&x, 2);
        let gp = maxpool3d_backward(&p, &arg, x.shape());
        for len in [7, y.numel() + 13] {
            let y2 = conv3d_blocked_reusing(&x, &wt, &bias, &spec, poisoned(len));
            assert_eq!(bits(&y), bits(&y2), "forward into {len}");
            let gx2 = conv3d_backward_data_reusing(&y, &wt, &spec, dims, poisoned(len));
            assert_eq!(bits(&gx), bits(&gx2), "backward-data into {len}");
            let (p2, arg2) = maxpool3d_reusing(&x, 2, poisoned(len));
            assert_eq!((bits(&p), &arg), (bits(&p2), &arg2), "pool into {len}");
            let gp2 = maxpool3d_backward_reusing(&p, &arg, x.shape(), poisoned(len));
            assert_eq!(bits(&gp), bits(&gp2), "pool backward into {len}");
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
