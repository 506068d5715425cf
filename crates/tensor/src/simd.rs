//! Runtime-dispatched SIMD micro-kernels (AVX2+FMA with a bit-identical
//! scalar fallback).
//!
//! The paper's training throughput rests on explicitly vectorized kernels
//! (§4.4.2: the MKL-DNN AVX-512 path). This module is the etalumis-rs
//! equivalent on stable Rust: every hot inner loop (GEMM micro-kernel, dot
//! products, sigmoid/tanh sweeps) exists twice —
//!
//! * an **AVX2+FMA** path using `std::arch` intrinsics, selected at runtime
//!   behind [`is_x86_feature_detected!`], and
//! * a **hand-unrolled 8-lane scalar fallback** that performs *the same
//!   operations in the same order*: fused multiply-adds ([`f32::mul_add`] ≡
//!   `_mm256_fmadd_ps`, both single-rounding), 8 independent lane
//!   accumulators, and the same fixed tree reduction.
//!
//! Because each output element's accumulation chain is a pure function of
//! the problem shape (never of the dispatch choice, blocking, or thread
//! count), results are **bit-identical** across backends — preserving every
//! bit-identity contract in the repo while the fast path runs. The backend
//! can be forced via the `ETALUMIS_KERNEL_BACKEND` env var (`scalar` /
//! `avx2`) or [`set_backend_override`]; per-backend dispatch counts are
//! exported for telemetry ([`dispatch_counts`]).
//!
//! Non-finite caveat: activation sweeps clamp their argument into the
//! representable exp range (SSE min/max semantics), so NaN inputs saturate
//! instead of propagating — acceptable for gate pre-activations, which are
//! finite in any non-diverged run.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// K-dimension blocking of the GEMM kernels. Accumulation chains are summed
/// per `KC` block then added to C, so this constant is part of the numeric
/// contract: both backends use it, making it a function of shape only.
pub const KC: usize = 256;

/// Which kernel implementation is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `std::arch` AVX2 + FMA intrinsics.
    Avx2Fma,
    /// Hand-unrolled 8-lane scalar code with fused multiply-adds.
    Scalar,
}

impl Backend {
    /// Short stable name used in telemetry and bench snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2Fma => "avx2_fma",
            Backend::Scalar => "scalar",
        }
    }
}

/// 0 = auto, 1 = force scalar, 2 = force avx2 (if detected).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
static DISPATCH_AVX2: AtomicU64 = AtomicU64::new(0);
static DISPATCH_SCALAR: AtomicU64 = AtomicU64::new(0);

fn env_override() -> Option<Backend> {
    static ENV: OnceLock<Option<Backend>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("ETALUMIS_KERNEL_BACKEND").ok().as_deref() {
        Some("scalar") => Some(Backend::Scalar),
        Some("avx2") | Some("avx2_fma") => Some(Backend::Avx2Fma),
        _ => None,
    })
}

/// True when the host supports the AVX2+FMA path.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static DET: OnceLock<bool> = OnceLock::new();
        *DET.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    static DET: OnceLock<bool> = OnceLock::new();
    *DET.get_or_init(|| is_x86_feature_detected!("fma"))
}

/// Force a backend programmatically (benches, bit-identity tests); `None`
/// restores auto-detection. Forcing AVX2 on hardware without it silently
/// stays scalar.
pub fn set_backend_override(b: Option<Backend>) {
    OVERRIDE.store(
        match b {
            None => 0,
            Some(Backend::Scalar) => 1,
            Some(Backend::Avx2Fma) => 2,
        },
        Ordering::Relaxed,
    );
}

/// The backend the next kernel call will dispatch to.
pub fn active_backend() -> Backend {
    let forced = match OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Avx2Fma),
        _ => env_override(),
    };
    match forced {
        Some(Backend::Avx2Fma) if avx2_available() => Backend::Avx2Fma,
        Some(Backend::Avx2Fma) | Some(Backend::Scalar) => Backend::Scalar,
        None => {
            if avx2_available() {
                Backend::Avx2Fma
            } else {
                Backend::Scalar
            }
        }
    }
}

/// Cumulative kernel dispatch counts since process start: `(avx2, scalar)`.
pub fn dispatch_counts() -> (u64, u64) {
    (DISPATCH_AVX2.load(Ordering::Relaxed), DISPATCH_SCALAR.load(Ordering::Relaxed))
}

/// Read-and-reset the dispatch counts (telemetry counters record deltas).
pub fn take_dispatch_counts() -> (u64, u64) {
    (DISPATCH_AVX2.swap(0, Ordering::Relaxed), DISPATCH_SCALAR.swap(0, Ordering::Relaxed))
}

/// A resolved kernel dispatch: cheap to copy into parallel tasks so the
/// backend is chosen once per operation, not once per inner loop.
#[derive(Clone, Copy)]
pub struct Kernels {
    backend: Backend,
}

impl Kernels {
    /// Resolve the active backend and count the dispatch.
    pub fn get() -> Self {
        let backend = active_backend();
        match backend {
            Backend::Avx2Fma => DISPATCH_AVX2.fetch_add(1, Ordering::Relaxed),
            Backend::Scalar => DISPATCH_SCALAR.fetch_add(1, Ordering::Relaxed),
        };
        Kernels { backend }
    }

    /// The backend this dispatch resolved to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Pack B `[k, n]` into 8-wide column panels: `bp[s][t][l] = B[t, 8s+l]`
    /// (zero padded past `n`). Shared by both backends so the packed values —
    /// and therefore the accumulation chains — are identical.
    pub fn pack_b(&self, b: &[f32], k: usize, n: usize, bp: &mut Vec<f32>) {
        let strips = n.div_ceil(8).max(1);
        bp.clear();
        bp.resize(strips * k * 8, 0.0);
        for s in 0..strips {
            let base = s * k * 8;
            let c0 = s * 8;
            let cols = (n - c0.min(n)).min(8);
            for t in 0..k {
                let src = &b[t * n + c0..t * n + c0 + cols];
                bp[base + t * 8..base + t * 8 + cols].copy_from_slice(src);
            }
        }
    }

    /// GEMM over packed B: `c[rows, n] += a[rows, k] · B` where `bp` is the
    /// [`Kernels::pack_b`] panel of B. Callers zero `c` first for a plain
    /// product. Per-element accumulation: for each `KC` block, a fused
    /// multiply-add chain ascending in `t`, block sums added to `c` in block
    /// order — invariant to row blocking and parallel splits.
    pub fn gemm_rows_packed(&self, c: &mut [f32], a: &[f32], bp: &[f32], k: usize, n: usize) {
        if n == 0 || c.is_empty() {
            return;
        }
        let rows = c.len() / n;
        debug_assert_eq!(c.len(), rows * n);
        debug_assert_eq!(a.len(), rows * k);
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`).
            Backend::Avx2Fma => unsafe { avx2::gemm_rows_packed(c, a, bp, k, n) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => scalar_gemm_rows(c, a, bp, k, n, BLayout::packed(k)),
            Backend::Scalar => scalar_gemm_rows(c, a, bp, k, n, BLayout::packed(k)),
        }
    }

    /// GEMM straight off row-major B: `c[rows, n] += a[rows, k] · b[k, n]`
    /// with no packed panel — for the few-row products (B = 1 inference
    /// steps) where packing B costs as much as multiplying by it, and for
    /// the convolutions, whose B is an im2col panel built once and used
    /// once. Every
    /// output element runs exactly the [`Kernels::gemm_rows_packed`] chain
    /// (per `KC` block a fused multiply-add chain ascending in `t`, block
    /// sums added to `c` in block order); only the B addressing differs, so
    /// the two are bit-identical on both backends.
    pub fn gemm_rows_unpacked(&self, c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        if n == 0 || c.is_empty() {
            return;
        }
        let rows = c.len() / n;
        assert_eq!(c.len(), rows * n);
        assert_eq!(a.len(), rows * k);
        assert_eq!(b.len(), k * n);
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`); the
            // asserts above are the slice lengths the kernel's raw loads
            // and stores rely on.
            Backend::Avx2Fma => unsafe { avx2::gemm_rows_unpacked(c, a, b, k, n) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => scalar_gemm_rows(c, a, b, k, n, BLayout::row_major(n)),
            Backend::Scalar => scalar_gemm_rows(c, a, b, k, n, BLayout::row_major(n)),
        }
    }

    /// im2col copies of one panel `col[koff.len(), len]`: for every panel
    /// row `t` and every `(from, to)` in `vecs`, the 8 floats at
    /// `x[koff[t] + from..]` go to `col[t·len + to..]`. Copies run in
    /// ascending row and `vecs` order, so a copy that spills past its run is
    /// overwritten by a later one (or lands in slack past the panel). One
    /// bounds check per call covers every copy.
    pub fn im2col(
        &self,
        col: &mut [f32],
        x: &[f32],
        koff: &[usize],
        vecs: &[(usize, usize)],
        len: usize,
    ) {
        let (src, dst) = vecs.iter().fold((0, 0), |(s, d), &(f, t)| (s.max(f + 8), d.max(t + 8)));
        let rows = koff.len();
        if rows == 0 || vecs.is_empty() {
            return;
        }
        assert!(koff.iter().all(|&o| o + src <= x.len()), "im2col: a copy reads past the image");
        assert!((rows - 1) * len + dst <= col.len(), "im2col: a copy writes past the panel");
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`); the
            // asserts above bound every 8-float read in `x` and write in
            // `col`.
            Backend::Avx2Fma => unsafe { avx2::im2col(col, x, koff, vecs, len) },
            _ => scalar_im2col(col, x, koff, vecs, len),
        }
    }

    /// col2im of one im2col panel `col[kbase.len()·k, len]`, the transpose
    /// of [`Kernels::im2col`]: panel row `t = j·k + i` sits at offset
    /// `kbase[j] + i` (the `k` taps of one kernel row are adjacent), and for
    /// every row `t` in ascending order and every run `s` of `segs`,
    /// `g[kbase[j] + i + s.pad + q] += col[t·len + s.col + q]` for
    /// `q < s.len`.
    ///
    /// Both buffers carry 8 floats of slack past what the runs touch. The
    /// scalar backend goes row by row. AVX2 (3-tap rows, every `Cnn3d`
    /// layer) walks the runs in descending order and, per 8-lane vector of
    /// a run, adds the three taps of every kernel row in ascending row
    /// order, blending the sums in only where a tap reaches: each element
    /// of `g` is loaded and stored once per kernel row and receives exactly
    /// the row-by-row adds in the same order. (A later run is a later output
    /// row, so the rows that reach an element through it come first.) The
    /// loads and stores are whole unmasked vectors whose lanes past a run
    /// are stored back unchanged, so a load never waits on a store it
    /// partly overlaps. The two backends agree bit for bit.
    pub fn col2im(
        &self,
        g: &mut [f32],
        col: &[f32],
        kbase: &[usize],
        k: usize,
        segs: &[Seg],
        len: usize,
    ) {
        let rows = kbase.len() * k;
        if rows == 0 || len == 0 || segs.is_empty() {
            return;
        }
        let end = segs.iter().map(|s| s.pad + s.len).max().unwrap_or(0);
        let reach = kbase.iter().max().map_or(0, |&o| o) + end + k - 1;
        assert!(reach + 8 <= g.len(), "col2im: a vector ends past the gradient's slack");
        assert!(rows * len + 8 <= col.len(), "col2im: a vector ends past the panel's slack");
        assert!(segs.iter().all(|s| s.col + s.len <= len), "col2im: a run ends past its panel row");
        match (self.backend, k) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`); the
            // asserts above bound every vector in `g` and `col`.
            (Backend::Avx2Fma, 3) => unsafe { avx2::col2im3(g, col, kbase, segs, len) },
            _ => scalar_col2im(g, col, kbase, k, segs, len),
        }
    }

    /// `c[rows, n] = a[rows, k] · bᵀ` where `b` is `[n, k]` (row dots).
    pub fn gemm_a_bt_rows(&self, c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        if n == 0 || c.is_empty() {
            return;
        }
        let rows = c.len() / n;
        debug_assert_eq!(c.len(), rows * n);
        debug_assert_eq!(a.len(), rows * k);
        debug_assert_eq!(b.len(), n * k);
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`).
            Backend::Avx2Fma => unsafe { avx2::gemm_a_bt_rows(c, a, b, k, n) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => scalar_gemm_a_bt_rows(self, c, a, b, k, n),
            Backend::Scalar => scalar_gemm_a_bt_rows(self, c, a, b, k, n),
        }
    }

    /// Fixed-order dot product (8 lane accumulators + tree reduction).
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`).
            Backend::Avx2Fma => unsafe { avx2::dot(a, b) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => self.scalar_dot(a, b),
            Backend::Scalar => self.scalar_dot(a, b),
        }
    }

    fn scalar_dot(&self, a: &[f32], b: &[f32]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if fma_available() {
            // SAFETY: FMA support was just verified.
            return unsafe { scalar_dot_fma(a, b) };
        }
        scalar_dot_impl(a, b)
    }

    /// In-place logistic sigmoid sweep (shared polynomial exp).
    pub fn sigmoid(&self, xs: &mut [f32]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`).
            Backend::Avx2Fma => unsafe { avx2::sigmoid(xs) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => scalar_sigmoid(xs),
            Backend::Scalar => scalar_sigmoid(xs),
        }
    }

    /// In-place tanh sweep (shared polynomial exp).
    pub fn tanh(&self, xs: &mut [f32]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`).
            Backend::Avx2Fma => unsafe { avx2::tanh(xs) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => scalar_tanh(xs),
            Backend::Scalar => scalar_tanh(xs),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared scalar building blocks (8-lane unrolled, fused multiply-add).
//
// On x86_64 with FMA these are compiled a second time inside
// `#[target_feature(enable = "fma")]` wrappers so `f32::mul_add` lowers to
// the hardware instruction instead of libm — same single-rounding result.
// ---------------------------------------------------------------------------

/// The fixed tree reduction of 8 lane accumulators, mirroring the AVX2
/// horizontal add: `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
#[inline(always)]
pub fn reduce8(l: [f32; 8]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

#[inline(always)]
fn scalar_dot_impl(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    let mut lanes = [0.0f32; 8];
    let k8 = k - k % 8;
    let mut t = 0;
    while t < k8 {
        for l in 0..8 {
            lanes[l] = a[t + l].mul_add(b[t + l], lanes[l]);
        }
        t += 8;
    }
    let mut r = reduce8(lanes);
    while t < k {
        r = a[t].mul_add(b[t], r);
        t += 1;
    }
    r
}

#[cfg(target_arch = "x86_64")]
// SAFETY: callers must ensure FMA is supported (every call site checks
// `fma_available` first).
#[target_feature(enable = "fma")]
unsafe fn scalar_dot_fma(a: &[f32], b: &[f32]) -> f32 {
    scalar_dot_impl(a, b)
}

/// Where `B[t, 8s + l]` lives: at `s * strip + t * step + l`. The packed
/// panel and plain row-major B differ only in these two strides, so one
/// scalar kernel serves both [`Kernels::gemm_rows_packed`] and
/// [`Kernels::gemm_rows_unpacked`].
#[derive(Clone, Copy)]
struct BLayout {
    strip: usize,
    step: usize,
}

impl BLayout {
    /// The [`Kernels::pack_b`] panel of a `[k, ·]` matrix.
    fn packed(k: usize) -> Self {
        Self { strip: k * 8, step: 8 }
    }

    /// Row-major `[·, n]`.
    fn row_major(n: usize) -> Self {
        Self { strip: 8, step: n }
    }
}

/// One row × one KC block over the 8-wide strips of B.
#[inline(always)]
fn scalar_gemm_row_block(
    crow: &mut [f32],
    arow: &[f32],
    b: &[f32],
    lay: BLayout,
    n: usize,
    t0: usize,
    t1: usize,
) {
    let full_strips = n / 8;
    for s in 0..full_strips {
        let strip = &b[s * lay.strip..];
        let mut acc = [0.0f32; 8];
        for t in t0..t1 {
            let av = arow[t];
            let b8 = &strip[t * lay.step..t * lay.step + 8];
            for l in 0..8 {
                acc[l] = av.mul_add(b8[l], acc[l]);
            }
        }
        let cdst = &mut crow[s * 8..s * 8 + 8];
        for l in 0..8 {
            cdst[l] += acc[l];
        }
    }
    // Tail columns: same per-element chain, one lane at a time.
    let c0 = full_strips * 8;
    if c0 < n {
        let strip = &b[full_strips * lay.strip..];
        for j in c0..n {
            let l = j - c0;
            let mut acc = 0.0f32;
            for t in t0..t1 {
                acc = arow[t].mul_add(strip[t * lay.step + l], acc);
            }
            crow[j] += acc;
        }
    }
}

#[inline(always)]
fn scalar_gemm_rows_impl(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize, lay: BLayout) {
    let rows = c.len() / n;
    let mut t0 = 0;
    while t0 < k || (k == 0 && t0 == 0) {
        let t1 = (t0 + KC).min(k);
        for i in 0..rows {
            scalar_gemm_row_block(
                &mut c[i * n..(i + 1) * n],
                &a[i * k..(i + 1) * k],
                b,
                lay,
                n,
                t0,
                t1,
            );
        }
        t0 = t1;
        if k == 0 {
            break;
        }
    }
}

#[cfg(target_arch = "x86_64")]
// SAFETY: callers must ensure FMA is supported (every call site checks
// `fma_available` first).
#[target_feature(enable = "fma")]
unsafe fn scalar_gemm_rows_fma(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    lay: BLayout,
) {
    scalar_gemm_rows_impl(c, a, b, k, n, lay)
}

fn scalar_gemm_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize, lay: BLayout) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA support was just verified.
        unsafe { scalar_gemm_rows_fma(c, a, b, k, n, lay) };
        return;
    }
    scalar_gemm_rows_impl(c, a, b, k, n, lay)
}

#[inline(always)]
fn scalar_gemm_a_bt_rows_impl(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    let rows = c.len() / n;
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv = scalar_dot_impl(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
// SAFETY: callers must ensure FMA is supported (every call site checks
// `fma_available` first).
#[target_feature(enable = "fma")]
unsafe fn scalar_gemm_a_bt_rows_fma(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    scalar_gemm_a_bt_rows_impl(c, a, b, k, n)
}

fn scalar_gemm_a_bt_rows(_k: &Kernels, c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA support was just verified.
        unsafe { scalar_gemm_a_bt_rows_fma(c, a, b, k, n) };
        return;
    }
    scalar_gemm_a_bt_rows_impl(c, a, b, k, n)
}

/// A run of output voxels that is contiguous in the padded input too (part
/// of one output row): `len` floats at `pad` in the padded volume (before
/// the kernel offset is added) and at `col` in an im2col panel row.
#[derive(Clone, Copy, Debug)]
pub struct Seg {
    /// Start in the padded volume, relative to the panel row's kernel offset.
    pub pad: usize,
    /// Start in the panel row.
    pub col: usize,
    /// Floats in the run.
    pub len: usize,
}

fn scalar_im2col(col: &mut [f32], x: &[f32], koff: &[usize], vecs: &[(usize, usize)], len: usize) {
    for (t, &off) in koff.iter().enumerate() {
        for &(from, to) in vecs {
            let at = t * len + to;
            col[at..at + 8].copy_from_slice(&x[off + from..off + from + 8]);
        }
    }
}

fn scalar_col2im(g: &mut [f32], col: &[f32], kbase: &[usize], k: usize, segs: &[Seg], len: usize) {
    for (t, crow) in col.chunks_exact(len).take(kbase.len() * k).enumerate() {
        let off = kbase[t / k] + t % k;
        for s in segs {
            let dst = &mut g[off + s.pad..off + s.pad + s.len];
            for (d, &v) in dst.iter_mut().zip(&crow[s.col..s.col + s.len]) {
                *d += v;
            }
        }
    }
}

// --- shared polynomial exp (Cephes-style expf) -----------------------------

const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -88.376_26;
const LOG2EF: f32 = std::f32::consts::LOG2_E;
const EXP_C1: f32 = 0.693_359_4;
const EXP_C2: f32 = -2.121_944_4e-4;
const EXP_P0: f32 = 1.987_569_2e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_6e-1;
const EXP_P5: f32 = 5.000_000_3e-1;

/// Polynomial expf, lane-identical in both backends. Inputs clamp to the
/// representable range with SSE min/max semantics (NaN saturates to the
/// upper bound).
#[inline(always)]
fn exp_poly(x: f32) -> f32 {
    // _mm_min_ps(x, HI): returns HI unless x < HI (NaN → HI).
    let x = if x < EXP_HI { x } else { EXP_HI };
    let x = if x > EXP_LO { x } else { EXP_LO };
    let fx = x.mul_add(LOG2EF, 0.5).floor();
    let n = fx as i32;
    let x = (-fx).mul_add(EXP_C1, x);
    let x = (-fx).mul_add(EXP_C2, x);
    let z = x * x;
    let mut y = EXP_P0;
    y = y.mul_add(x, EXP_P1);
    y = y.mul_add(x, EXP_P2);
    y = y.mul_add(x, EXP_P3);
    y = y.mul_add(x, EXP_P4);
    y = y.mul_add(x, EXP_P5);
    y = y.mul_add(z, x);
    y += 1.0;
    y * f32::from_bits(((n + 127) as u32) << 23)
}

#[inline(always)]
fn sigmoid_lane(x: f32) -> f32 {
    1.0 / (1.0 + exp_poly(-x))
}

#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let a = x.abs();
    let e = exp_poly(-2.0 * a);
    let r = (1.0 - e) / (1.0 + e);
    r.copysign(x)
}

#[inline(always)]
fn scalar_sigmoid_impl(xs: &mut [f32]) {
    for v in xs {
        *v = sigmoid_lane(*v);
    }
}

#[inline(always)]
fn scalar_tanh_impl(xs: &mut [f32]) {
    for v in xs {
        *v = tanh_lane(*v);
    }
}

#[cfg(target_arch = "x86_64")]
// SAFETY: callers must ensure FMA is supported (every call site checks
// `fma_available` first).
#[target_feature(enable = "fma")]
unsafe fn scalar_sigmoid_fma(xs: &mut [f32]) {
    scalar_sigmoid_impl(xs)
}

#[cfg(target_arch = "x86_64")]
// SAFETY: callers must ensure FMA is supported (every call site checks
// `fma_available` first).
#[target_feature(enable = "fma")]
unsafe fn scalar_tanh_fma(xs: &mut [f32]) {
    scalar_tanh_impl(xs)
}

fn scalar_sigmoid(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA support was just verified.
        unsafe { scalar_sigmoid_fma(xs) };
        return;
    }
    scalar_sigmoid_impl(xs)
}

fn scalar_tanh(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA support was just verified.
        unsafe { scalar_tanh_fma(xs) };
        return;
    }
    scalar_tanh_impl(xs)
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — the [`reduce8`] tree.
    // SAFETY: callers must ensure AVX is supported (all call sites are
    // `target_feature(avx2,fma)` functions).
    #[inline(always)]
    unsafe fn hreduce(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let s2 = _mm_add_ps(s, _mm_movehl_ps(s, s)); // [s0+s2, s1+s3, ..]
        _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x1)))
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrappers gate on `avx2_available`); slice-length preconditions are
    // checked by the safe `Kernels` entry points.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let k = a.len();
        let k8 = k - k % 8;
        let mut acc = _mm256_setzero_ps();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut t = 0;
        while t < k8 {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(t)), _mm256_loadu_ps(bp.add(t)), acc);
            t += 8;
        }
        let mut r = hreduce(acc);
        while t < k {
            r = a[t].mul_add(b[t], r);
            t += 1;
        }
        r
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrappers gate on `avx2_available`); slice-length preconditions are
    // checked by the safe `Kernels` entry points.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_rows_packed(c: &mut [f32], a: &[f32], bp: &[f32], k: usize, n: usize) {
        let rows = c.len() / n;
        let full_strips = n / 8;
        let cp = c.as_mut_ptr();
        let mut t0 = 0;
        loop {
            let t1 = (t0 + KC).min(k);
            // Full 8-wide strips: 4-row micro-kernel sharing each B vector.
            for s in 0..full_strips {
                let panel = bp.as_ptr().add(s * k * 8);
                let mut i = 0;
                while i + 4 <= rows {
                    let mut acc0 = _mm256_setzero_ps();
                    let mut acc1 = _mm256_setzero_ps();
                    let mut acc2 = _mm256_setzero_ps();
                    let mut acc3 = _mm256_setzero_ps();
                    let a0 = a.as_ptr().add(i * k);
                    let a1 = a.as_ptr().add((i + 1) * k);
                    let a2 = a.as_ptr().add((i + 2) * k);
                    let a3 = a.as_ptr().add((i + 3) * k);
                    for t in t0..t1 {
                        let bv = _mm256_loadu_ps(panel.add(t * 8));
                        acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(t)), bv, acc0);
                        acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a1.add(t)), bv, acc1);
                        acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a2.add(t)), bv, acc2);
                        acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a3.add(t)), bv, acc3);
                    }
                    for (r, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                        let dst = cp.add((i + r) * n + s * 8);
                        _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc));
                    }
                    i += 4;
                }
                while i < rows {
                    let mut acc = _mm256_setzero_ps();
                    let arow = a.as_ptr().add(i * k);
                    for t in t0..t1 {
                        let bv = _mm256_loadu_ps(panel.add(t * 8));
                        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&*arow.add(t)), bv, acc);
                    }
                    let dst = cp.add(i * n + s * 8);
                    _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc));
                    i += 1;
                }
            }
            // Tail columns: identical chain, scalar fused ops.
            let c0 = full_strips * 8;
            if c0 < n {
                let panel = &bp[full_strips * k * 8..];
                for i in 0..rows {
                    let arow = &a[i * k..(i + 1) * k];
                    for j in c0..n {
                        let l = j - c0;
                        let mut acc = 0.0f32;
                        for t in t0..t1 {
                            acc = arow[t].mul_add(panel[t * 8 + l], acc);
                        }
                        c[i * n + j] += acc;
                    }
                }
            }
            t0 = t1;
            if t0 >= k {
                break;
            }
        }
    }

    /// `R` rows × `S` adjacent 8-wide strips over one `KC` block, off
    /// row-major B: `R·S` independent accumulator chains per `t` hide the FMA
    /// latency, and with `R > 1` each B vector loaded feeds `R` rows.
    // SAFETY: callers must ensure AVX2+FMA are supported and that
    // `bcol + t * n + 8 * S` stays inside B for every `t < t1`,
    // `arow + r * k + t` inside A and `cdst + r * n + 8 * S` inside C for
    // every `r < R`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn block<const R: usize, const S: usize>(
        cdst: *mut f32,
        arow: *const f32,
        k: usize,
        bcol: *const f32,
        n: usize,
        t0: usize,
        t1: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); S]; R];
        for t in t0..t1 {
            let brow = bcol.add(t * n);
            let mut bv = [_mm256_setzero_ps(); S];
            for (s, bv) in bv.iter_mut().enumerate() {
                *bv = _mm256_loadu_ps(brow.add(s * 8));
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*arow.add(r * k + t));
                for (acc, bv) in acc.iter_mut().zip(bv) {
                    *acc = _mm256_fmadd_ps(av, bv, *acc);
                }
            }
        }
        for (r, acc) in acc.into_iter().enumerate() {
            for (s, acc) in acc.into_iter().enumerate() {
                let dst = cdst.add(r * n + s * 8);
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc));
            }
        }
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrapper gates on `avx2_available`) and that `c`, `a`, `b` hold
    // `rows·n`, `rows·k` and `k·n` elements (asserted by the safe
    // `Kernels::gemm_rows_unpacked` entry point).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_rows_unpacked(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        let rows = c.len() / n;
        let full = n - n % 8;
        let tail = n - full;
        // Lanes `0..tail` on (sign bit set), the rest off.
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail as i32), lanes);
        let bp = b.as_ptr();
        let mut t0 = 0;
        while t0 < k {
            let t1 = (t0 + KC).min(k);
            let mut i = 0;
            while i < rows {
                let arow = a.as_ptr().add(i * k);
                let crow = c.as_mut_ptr().add(i * n);
                let mut j = 0;
                // Four rows at a time while they last (the convolution
                // products), then row by row (the B = 1 inference steps).
                let step = if rows - i >= 4 {
                    while j + 16 <= full {
                        block::<4, 2>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                        j += 16;
                    }
                    if j < full {
                        block::<4, 1>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                    }
                    4
                } else {
                    while j + 64 <= full {
                        block::<1, 8>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                        j += 64;
                    }
                    if j + 32 <= full {
                        block::<1, 4>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                        j += 32;
                    }
                    if j + 16 <= full {
                        block::<1, 2>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                        j += 16;
                    }
                    if j < full {
                        block::<1, 1>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                    }
                    1
                };
                // Tail columns: one masked strip per row. Lane-wise the fused
                // chain is the scalar one; masked-off lanes are neither read
                // nor written.
                if tail > 0 {
                    for r in 0..step {
                        let mut acc = _mm256_setzero_ps();
                        for t in t0..t1 {
                            let bv = _mm256_maskload_ps(bp.add(t * n + full), mask);
                            let av = _mm256_broadcast_ss(&*arow.add(r * k + t));
                            acc = _mm256_fmadd_ps(av, bv, acc);
                        }
                        let dst = crow.add(r * n + full);
                        let sum = _mm256_add_ps(_mm256_maskload_ps(dst, mask), acc);
                        _mm256_maskstore_ps(dst, mask, sum);
                    }
                }
                i += step;
            }
            t0 = t1;
        }
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrappers gate on `avx2_available`); slice-length preconditions are
    // checked by the safe `Kernels` entry points.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_a_bt_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        let rows = c.len() / n;
        let k8 = k - k % 8;
        for i in 0..rows {
            let arow = a.as_ptr().add(i * k);
            let asl = &a[i * k..(i + 1) * k];
            let mut j = 0;
            // 4 B-rows at a time: each A vector load feeds 4 fmadds.
            while j + 4 <= n {
                let b0 = b.as_ptr().add(j * k);
                let b1 = b.as_ptr().add((j + 1) * k);
                let b2 = b.as_ptr().add((j + 2) * k);
                let b3 = b.as_ptr().add((j + 3) * k);
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                let mut t = 0;
                while t < k8 {
                    let av = _mm256_loadu_ps(arow.add(t));
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0.add(t)), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1.add(t)), acc1);
                    acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2.add(t)), acc2);
                    acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3.add(t)), acc3);
                    t += 8;
                }
                let mut r = [hreduce(acc0), hreduce(acc1), hreduce(acc2), hreduce(acc3)];
                for t in k8..k {
                    let av = asl[t];
                    r[0] = av.mul_add(*b0.add(t), r[0]);
                    r[1] = av.mul_add(*b1.add(t), r[1]);
                    r[2] = av.mul_add(*b2.add(t), r[2]);
                    r[3] = av.mul_add(*b3.add(t), r[3]);
                }
                c[i * n + j..i * n + j + 4].copy_from_slice(&r);
                j += 4;
            }
            while j < n {
                c[i * n + j] = dot(asl, &b[j * k..(j + 1) * k]);
                j += 1;
            }
        }
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrapper gates on `avx2_available`) and bound every copy:
    // `koff[t] + from + 8 <= x.len()` and `t·len + to + 8 <= col.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn im2col(
        col: &mut [f32],
        x: &[f32],
        koff: &[usize],
        vecs: &[(usize, usize)],
        len: usize,
    ) {
        for (t, &off) in koff.iter().enumerate() {
            let (src, dst) = (x.as_ptr().add(off), col.as_mut_ptr().add(t * len));
            for &(from, to) in vecs {
                _mm256_storeu_ps(dst.add(to), _mm256_loadu_ps(src.add(from)));
            }
        }
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrapper gates on `avx2_available`), every run inside its panel row,
    // `col.len() >= 3·kbase.len()·len + 8` and
    // `g.len() >= kbase[j] + s.pad + s.len + 2 + 8` for every kernel row `j`
    // and run `s` (asserted by the safe `Kernels::col2im` entry point). A
    // vector at `q < s.len + 2` then ends inside `g`, and the tap-`i` load
    // at `3j·len + i·len + s.col + q - i` starts at or after `col[0]` (as
    // `len >= 1`) and ends inside `col`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn col2im3(g: &mut [f32], col: &[f32], kbase: &[usize], segs: &[Seg], len: usize) {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let (gp, cp) = (g.as_mut_ptr(), col.as_ptr());
        for s in segs.iter().rev() {
            let mut q = 0;
            while q < s.len + 2 {
                // Tap `i` reaches lanes `i <= q + l < i + s.len`.
                let at = _mm256_add_epi32(_mm256_set1_epi32(q as i32), lanes);
                let tap = |i: usize| {
                    let (from, to) = (i as i32, (i + s.len) as i32);
                    _mm256_castsi256_ps(_mm256_andnot_si256(
                        _mm256_cmpgt_epi32(_mm256_set1_epi32(from), at),
                        _mm256_cmpgt_epi32(_mm256_set1_epi32(to), at),
                    ))
                };
                let (m0, m1, m2) = (tap(0), tap(1), tap(2));
                for (j, &base) in kbase.iter().enumerate() {
                    let src = cp.add(3 * j * len + s.col + q);
                    let dst = gp.add(base + s.pad + q);
                    let mut v = _mm256_loadu_ps(dst);
                    v = _mm256_blendv_ps(v, _mm256_add_ps(v, _mm256_loadu_ps(src)), m0);
                    v = _mm256_blendv_ps(
                        v,
                        _mm256_add_ps(v, _mm256_loadu_ps(src.add(len - 1))),
                        m1,
                    );
                    v = _mm256_blendv_ps(
                        v,
                        _mm256_add_ps(v, _mm256_loadu_ps(src.add(2 * len - 2))),
                        m2,
                    );
                    _mm256_storeu_ps(dst, v);
                }
                q += 8;
            }
        }
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (all call sites
    // are `target_feature(avx2,fma)` functions).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp256(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
        let fx = _mm256_floor_ps(_mm256_fmadd_ps(x, _mm256_set1_ps(LOG2EF), _mm256_set1_ps(0.5)));
        let n = _mm256_cvttps_epi32(fx);
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(EXP_C1), x);
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(EXP_C2), x);
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(EXP_P0);
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P2));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P4));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(EXP_P5));
        y = _mm256_fmadd_ps(y, z, x);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        let pow2 =
            _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
        _mm256_mul_ps(y, pow2)
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrappers gate on `avx2_available`); slice-length preconditions are
    // checked by the safe `Kernels` entry points.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sigmoid(xs: &mut [f32]) {
        let len = xs.len();
        let len8 = len - len % 8;
        let p = xs.as_mut_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let mut i = 0;
        while i < len8 {
            let v = _mm256_loadu_ps(p.add(i));
            let e = exp256(_mm256_xor_ps(v, sign));
            _mm256_storeu_ps(p.add(i), _mm256_div_ps(one, _mm256_add_ps(one, e)));
            i += 8;
        }
        for v in &mut xs[len8..] {
            *v = sigmoid_lane(*v);
        }
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrappers gate on `avx2_available`); slice-length preconditions are
    // checked by the safe `Kernels` entry points.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tanh(xs: &mut [f32]) {
        let len = xs.len();
        let len8 = len - len % 8;
        let p = xs.as_mut_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let neg2 = _mm256_set1_ps(-2.0);
        let mut i = 0;
        while i < len8 {
            let v = _mm256_loadu_ps(p.add(i));
            let a = _mm256_andnot_ps(sign, v);
            let e = exp256(_mm256_mul_ps(neg2, a));
            let r = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
            // copysign(r, v)
            let y = _mm256_or_ps(_mm256_andnot_ps(sign, r), _mm256_and_ps(sign, v));
            _mm256_storeu_ps(p.add(i), y);
            i += 8;
        }
        for v in &mut xs[len8..] {
            *v = tanh_lane(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64) as f32 * 4.0 - 2.0
            })
            .collect()
    }

    fn with_backend<T>(b: Backend, f: impl FnOnce(Kernels) -> T) -> T {
        set_backend_override(Some(b));
        let out = f(Kernels::get());
        set_backend_override(None);
        out
    }

    #[test]
    fn backends_bit_identical_gemm() {
        if !avx2_available() {
            return;
        }
        for &(rows, k, n) in &[(1usize, 1usize, 1usize), (4, 7, 9), (5, 300, 17), (13, 64, 8)] {
            let a = rand_vec(rows * k, 1);
            let b = rand_vec(k * n, 2);
            let run = |be: Backend| {
                with_backend(be, |kern| {
                    let mut bp = Vec::new();
                    kern.pack_b(&b, k, n, &mut bp);
                    let mut c = vec![0.0f32; rows * n];
                    kern.gemm_rows_packed(&mut c, &a, &bp, k, n);
                    c
                })
            };
            assert_eq!(run(Backend::Scalar), run(Backend::Avx2Fma), "{rows}x{k}x{n}");
        }
    }

    #[test]
    fn backends_bit_identical_dot_and_bt() {
        if !avx2_available() {
            return;
        }
        for &(rows, k, n) in &[(3usize, 5usize, 4usize), (2, 33, 7), (1, 256, 1)] {
            let a = rand_vec(rows * k, 3);
            let b = rand_vec(n * k, 4);
            let run = |be: Backend| {
                with_backend(be, |kern| {
                    let mut c = vec![0.0f32; rows * n];
                    kern.gemm_a_bt_rows(&mut c, &a, &b, k, n);
                    (c, kern.dot(&a[..k], &b[..k]))
                })
            };
            assert_eq!(run(Backend::Scalar), run(Backend::Avx2Fma));
        }
    }

    #[test]
    fn backends_bit_identical_activations() {
        if !avx2_available() {
            return;
        }
        let xs = rand_vec(37, 5);
        for sweep in [true, false] {
            let run = |be: Backend| {
                with_backend(be, |kern| {
                    let mut v = xs.clone();
                    if sweep {
                        kern.sigmoid(&mut v);
                    } else {
                        kern.tanh(&mut v);
                    }
                    v
                })
            };
            assert_eq!(run(Backend::Scalar), run(Backend::Avx2Fma));
        }
    }

    #[test]
    fn poly_activations_close_to_libm() {
        for &x in &[-10.0f32, -3.0, -1.0, -0.5, -1e-3, 0.0, 1e-3, 0.3, 1.0, 2.5, 8.0, 30.0, 90.0] {
            let s = sigmoid_lane(x);
            let s_ref = 1.0 / (1.0 + (-x as f64).exp());
            assert!((s as f64 - s_ref).abs() < 2e-7, "sigmoid({x}): {s} vs {s_ref}");
            let t = tanh_lane(x);
            let t_ref = (x as f64).tanh();
            assert!((t as f64 - t_ref).abs() < 2e-7, "tanh({x}): {t} vs {t_ref}");
        }
    }

    #[test]
    fn reduce_tree_matches_doc_order() {
        let l = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        assert_eq!(reduce8(l), ((1.0 + 16.0) + (4.0 + 64.0)) + ((2.0 + 32.0) + (8.0 + 128.0)));
    }

    #[test]
    fn override_and_counters() {
        let before = dispatch_counts();
        set_backend_override(Some(Backend::Scalar));
        assert_eq!(active_backend(), Backend::Scalar);
        let _ = Kernels::get();
        set_backend_override(None);
        let after = dispatch_counts();
        assert!(after.1 > before.1, "scalar dispatch counted");
    }

    #[test]
    fn empty_dims_are_safe() {
        let kern = Kernels::get();
        let mut bp = Vec::new();
        kern.pack_b(&[], 0, 5, &mut bp);
        let mut c = vec![0.0f32; 2 * 5];
        kern.gemm_rows_packed(&mut c, &[], &bp, 0, 5);
        assert!(c.iter().all(|&v| v == 0.0));
        let mut c2: Vec<f32> = Vec::new();
        kern.gemm_a_bt_rows(&mut c2, &[], &[], 4, 0);
        assert_eq!(kern.dot(&[], &[]), 0.0);
    }
}
