//! Runtime-dispatched SIMD micro-kernels (AVX-512F and AVX2+FMA, with a
//! bit-identical scalar fallback).
//!
//! The paper's training throughput rests on explicitly vectorized kernels
//! (§4.4.2: the MKL-DNN AVX-512 path). This module is the etalumis-rs
//! equivalent on stable Rust. Three backends, chosen at runtime behind
//! [`is_x86_feature_detected!`] (the widest the CPU has):
//!
//! * **AVX-512** ([`Backend::Avx512`], `avx512f`): 16-lane arms for the two
//!   GEMM row kernels that carry every training product —
//!   [`Kernels::gemm_rows_unpacked`] (the Conv3d im2col panels, few-row
//!   products) and [`Kernels::gemm_rows_packed`] (LSTM, FC and head GEMMs),
//!   whose [`Kernels::pack_b`] panels are 16 columns wide on this backend,
//!   and for the LSTM cell update [`Kernels::lstm_cell`]. Products at most
//!   8 columns wide, which would fill half a strip, and every other kernel
//!   run the AVX2 code.
//! * **AVX2+FMA** ([`Backend::Avx2Fma`]): `std::arch` intrinsics for every
//!   kernel; packed panels are 8 columns wide.
//! * **Scalar** ([`Backend::Scalar`]): a hand-unrolled 8-lane fallback that
//!   performs *the same operations in the same order*: fused multiply-adds
//!   ([`f32::mul_add`] ≡ `_mm256_fmadd_ps` ≡ `_mm512_fmadd_ps`, all single
//!   rounding), 8 independent lane accumulators, and the same fixed tree
//!   reduction; packed panels are 8 columns wide.
//!
//! Because each output element's accumulation chain is a pure function of
//! the problem shape (never of the dispatch choice, lane count, blocking, or
//! thread count), results are **bit-identical** across backends — preserving
//! every bit-identity contract in the repo while the fast path runs. A GEMM
//! row kernel's chain per element is: start from zero, fused multiply-adds
//! ascending in `t` within each [`KC`] block, each block's sum added to C in
//! block order. Lane width only decides how many such chains run side by
//! side, so the AVX-512 arms can widen them to 16 (column tails through
//! `__mmask16` loads and stores, never a different chain). The chain can
//! also run in pieces: [`Kernels::gemm_rows_resume`] continues chains from
//! a given accumulator instead of zero and leaves them there, with the same
//! walk, lanes and masks, so a block split at any column computes what the
//! whole block does — the B = 1 IC inference step keeps the chains over its
//! input's constant columns and resumes them over the ones that change.
//!
//! The kernels that stay at 8 lanes on the AVX-512 backend do so on
//! purpose: [`Kernels::dot`] and [`Kernels::gemm_a_bt_rows`] sum 8 lane
//! accumulators through the fixed [`reduce8`] tree, so 16 lanes would change
//! the summation order and the bits; [`Kernels::im2col`] and
//! [`Kernels::col2im`] move whole 8-float vectors into buffers the Conv3d
//! lowering sizes with 8 floats of slack; and the standalone sigmoid/tanh
//! sweeps are element-wise, a small share of the step that a 16-lane copy
//! would not repay. (The LSTM cell update, which runs them on every step of
//! every recurrence, has its own 16-lane copies; element-wise, they are
//! lane-identical to the 8-lane and scalar ones.)
//!
//! The backend can be forced via the `ETALUMIS_KERNEL_BACKEND` env var
//! (`scalar` / `avx2` / `avx512`; any other non-empty value warns once on
//! stderr and auto-detects) or [`set_backend_override`]; forcing a backend
//! the CPU lacks runs the widest one below it. Per-backend dispatch counts
//! are exported for telemetry ([`dispatch_counts`]).
//!
//! Non-finite caveat: activation sweeps clamp their argument into the
//! representable exp range (SSE min/max semantics), so NaN inputs saturate
//! instead of propagating — acceptable for gate pre-activations, which are
//! finite in any non-diverged run.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// K-dimension blocking of the GEMM kernels. Accumulation chains are summed
/// per `KC` block then added to C, so this constant is part of the numeric
/// contract: every backend uses it, making it a function of shape only.
pub const KC: usize = 256;

/// Which kernel implementation is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// AVX-512F arms for the two GEMM row kernels (16-wide packed panels);
    /// AVX2 + FMA for every other kernel.
    Avx512,
    /// `std::arch` AVX2 + FMA intrinsics.
    Avx2Fma,
    /// Hand-unrolled 8-lane scalar code with fused multiply-adds.
    Scalar,
}

impl Backend {
    /// Every backend, widest first.
    pub const ALL: [Backend; 3] = [Backend::Avx512, Backend::Avx2Fma, Backend::Scalar];

    /// Short stable name used in telemetry and bench snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx512 => "avx512",
            Backend::Avx2Fma => "avx2_fma",
            Backend::Scalar => "scalar",
        }
    }

    /// The backend an `ETALUMIS_KERNEL_BACKEND` value names: its
    /// [`Backend::name`], or `avx2` for [`Backend::Avx2Fma`].
    fn from_name(s: &str) -> Option<Backend> {
        match s {
            "avx2" => Some(Backend::Avx2Fma),
            _ => Backend::ALL.into_iter().find(|b| b.name() == s),
        }
    }

    /// True when this CPU runs the backend's instructions.
    fn available(self) -> bool {
        match self {
            Backend::Avx512 => avx512_available(),
            Backend::Avx2Fma => avx2_available(),
            Backend::Scalar => true,
        }
    }

    /// The widest backend at or below this one that the CPU runs:
    /// avx512 → avx2 → scalar.
    fn at_most_available(self) -> Backend {
        Backend::ALL.into_iter().skip_while(|&b| b != self).find(|b| b.available()).unwrap_or(self)
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// 0 = auto, else 1 + the forced backend's [`Backend::slot`].
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
/// Dispatches per backend, indexed by [`Backend::slot`].
static DISPATCH: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

/// The backend `ETALUMIS_KERNEL_BACKEND` forces, read once per process. An
/// unset or empty variable means auto; a value that names no backend warns
/// once on stderr and means auto too.
fn env_override() -> Option<Backend> {
    static ENV: OnceLock<Option<Backend>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let (forced, warning) = parse_env(std::env::var("ETALUMIS_KERNEL_BACKEND").ok().as_deref());
        if let Some(w) = warning {
            eprintln!("{w}"); // etalumis: allow(logging, reason = "a mistyped kernel-backend variable must not pass silently; read once, before any logger exists")
        }
        forced
    })
}

/// An `ETALUMIS_KERNEL_BACKEND` value's forced backend, and the warning an
/// unknown value earns.
fn parse_env(value: Option<&str>) -> (Option<Backend>, Option<String>) {
    match value {
        None | Some("") => (None, None),
        Some(v) => match Backend::from_name(v) {
            Some(b) => (Some(b), None),
            None => (
                None,
                Some(format!(
                    "warning: ETALUMIS_KERNEL_BACKEND={v:?} names no kernel backend \
                     (scalar, avx2, avx512); detecting the widest this CPU runs"
                )),
            ),
        },
    }
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

/// True when the host supports the AVX-512 path: `avx512f`, plus the
/// AVX2+FMA its other kernels run.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static DET: OnceLock<bool> = OnceLock::new();
        *DET.get_or_init(|| avx2_available() && is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backends this CPU runs, widest first (scalar always).
pub fn available_backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.available()).collect()
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    static DET: OnceLock<bool> = OnceLock::new();
    *DET.get_or_init(|| is_x86_feature_detected!("fma"))
}

/// Force a backend programmatically (benches, bit-identity tests); `None`
/// restores `ETALUMIS_KERNEL_BACKEND` or auto-detection. Forcing a backend
/// the CPU lacks runs the widest one below it: avx512 → avx2 → scalar.
pub fn set_backend_override(b: Option<Backend>) {
    OVERRIDE.store(b.map_or(0, |b| 1 + b.slot() as u8), Ordering::Relaxed);
}

/// The backend the next kernel call will dispatch to: the forced one
/// (override, else environment) or the widest available, stepped down to
/// what the CPU runs. (That the widest is the fastest was measured on an
/// Emerald Rapids Xeon only; where 512-bit FMAs lower the clock, force
/// `avx2` to compare.)
pub fn active_backend() -> Backend {
    let forced = match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_override(),
        v => Backend::ALL.get(v as usize - 1).copied(),
    };
    forced.unwrap_or(Backend::Avx512).at_most_available()
}

/// Cumulative kernel dispatches per backend since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    /// Dispatches resolved to [`Backend::Avx512`].
    pub avx512: u64,
    /// Dispatches resolved to [`Backend::Avx2Fma`].
    pub avx2: u64,
    /// Dispatches resolved to [`Backend::Scalar`].
    pub scalar: u64,
}

fn read_counts(read: impl Fn(&AtomicU64) -> u64) -> DispatchCounts {
    let [avx512, avx2, scalar] = DISPATCH.each_ref().map(read);
    DispatchCounts { avx512, avx2, scalar }
}

/// Cumulative kernel dispatch counts since process start.
pub fn dispatch_counts() -> DispatchCounts {
    read_counts(|c| c.load(Ordering::Relaxed))
}

/// Read-and-reset the dispatch counts (telemetry counters record deltas).
pub fn take_dispatch_counts() -> DispatchCounts {
    read_counts(|c| c.swap(0, Ordering::Relaxed))
}

/// Serializes the unit tests that force a backend: the override is
/// process-wide.
#[cfg(test)]
pub(crate) static TEST_BACKEND_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
        DISPATCH[backend.slot()].fetch_add(1, Ordering::Relaxed);
        Kernels { backend }
    }

    /// The backend this dispatch resolved to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// True when a GEMM `n` columns wide runs a 16-lane arm: on the AVX-512
    /// backend, for more than 8 columns. At most 8 columns fill half a
    /// 16-lane strip, and there the AVX2 kernel measured faster (Conv3d
    /// layer 1's weight gradient, `n = 8`: 0.85–0.92× on the 16-lane arm).
    fn sixteen_lanes(&self, n: usize) -> bool {
        cfg!(target_arch = "x86_64") && self.backend == Backend::Avx512 && n > 8
    }

    /// Columns per [`Kernels::pack_b`] panel strip for a GEMM `n` columns
    /// wide: 16 where the 16-lane arm runs (one zmm vector), else 8.
    fn panel_width(&self, n: usize) -> usize {
        if self.sixteen_lanes(n) {
            16
        } else {
            8
        }
    }

    /// Pack B `[k, n]` into column panels `w` wide: `bp[s][t][l] =
    /// B[t, w·s+l]` (zero padded past `n`), with `w = 16` where this
    /// backend runs a 16-lane arm for `n` columns and 8 elsewhere. The
    /// panel is only for [`Kernels::gemm_rows_packed`] on the same
    /// `Kernels` and `n`; every backend reads its own panel in the same
    /// element order, so the accumulation chains are identical.
    pub fn pack_b(&self, b: &[f32], k: usize, n: usize, bp: &mut Vec<f32>) {
        let w = self.panel_width(n);
        let strips = n.div_ceil(w).max(1);
        bp.clear();
        bp.resize(strips * k * w, 0.0);
        for s in 0..strips {
            let base = s * k * w;
            let c0 = s * w;
            let cols = (n - c0.min(n)).min(w);
            for t in 0..k {
                let src = &b[t * n + c0..t * n + c0 + cols];
                bp[base + t * w..base + t * w + cols].copy_from_slice(src);
            }
        }
    }

    /// GEMM over packed B: `c[rows, n] += a[rows, k] · B` where `bp` is the
    /// [`Kernels::pack_b`] panel of B from this same `Kernels` (the panel
    /// width is the backend's). Callers zero `c` first for a plain product.
    /// Per-element accumulation: for each `KC` block, a fused multiply-add
    /// chain ascending in `t`, block sums added to `c` in block order —
    /// invariant to row blocking, lane width and parallel splits.
    pub fn gemm_rows_packed(&self, c: &mut [f32], a: &[f32], bp: &[f32], k: usize, n: usize) {
        if n == 0 || c.is_empty() {
            return;
        }
        let rows = c.len() / n;
        let w = self.panel_width(n);
        assert_eq!(c.len(), rows * n);
        assert_eq!(a.len(), rows * k);
        assert!(bp.len() >= n.div_ceil(w) * k * w, "gemm_rows_packed: B panel too short");
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx512` is only selected when `avx512_available()`
            // confirmed AVX-512F on this CPU (see `active_backend`); the
            // asserts above are the slice lengths the kernel's raw loads
            // and stores rely on, the panel being 16 wide here.
            Backend::Avx512 if self.sixteen_lanes(n) => unsafe {
                avx512::gemm_rows_packed(c, a, bp, k, n)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`); the asserts above are the slice lengths
            // the kernel's raw loads rely on, the panel being 8 wide here.
            Backend::Avx512 | Backend::Avx2Fma => unsafe { avx2::gemm_rows_packed(c, a, bp, k, n) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2Fma => {
                scalar_gemm_rows::<false>(c, a, bp, k, n, BLayout::packed(k, w))
            }
            Backend::Scalar => scalar_gemm_rows::<false>(c, a, bp, k, n, BLayout::packed(k, w)),
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
    /// the two are bit-identical on every backend.
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
            // SAFETY: `Avx512` is only selected when `avx512_available()`
            // confirmed AVX-512F on this CPU (see `active_backend`); the
            // asserts above are the slice lengths the kernel's raw loads
            // and stores rely on.
            Backend::Avx512 if self.sixteen_lanes(n) => unsafe {
                avx512::gemm_rows_unpacked::<false>(c, a, b, k, n)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`); the asserts above are the slice lengths
            // the kernel's raw loads and stores rely on.
            Backend::Avx512 | Backend::Avx2Fma => unsafe {
                avx2::gemm_rows_unpacked::<false>(c, a, b, k, n)
            },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2Fma => {
                scalar_gemm_rows::<false>(c, a, b, k, n, BLayout::row_major(n, 8))
            }
            Backend::Scalar => scalar_gemm_rows::<false>(c, a, b, k, n, BLayout::row_major(n, 8)),
        }
    }

    /// Continue product chains where they stopped: for every element,
    /// `acc[i, j] = fma(a[i, t], b[t, j], acc[i, j])` for `t` ascending over
    /// `a`'s `k ≤ KC` columns, off row-major `b[k, n]`, the chain left in
    /// `acc` rather than added to a C. From `acc = 0` this is the chain one
    /// `KC` block of [`Kernels::gemm_rows_unpacked`] builds before adding it
    /// to C, and calls over consecutive column ranges continue it exactly,
    /// so a block can run in pieces: the B = 1 LSTM inference step keeps the
    /// chain over its input's constant columns and resumes it over the ones
    /// that change. Same walk, lanes and masks as `gemm_rows_unpacked` on
    /// every backend.
    pub fn gemm_rows_resume(&self, acc: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        if n == 0 || k == 0 || acc.is_empty() {
            return;
        }
        let rows = acc.len() / n;
        assert!(k <= KC, "gemm_rows_resume: a chain spans one KC block");
        assert_eq!(acc.len(), rows * n);
        assert_eq!(a.len(), rows * k);
        assert_eq!(b.len(), k * n);
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx512` is only selected when `avx512_available()`
            // confirmed AVX-512F on this CPU (see `active_backend`); the
            // asserts above are the slice lengths the kernel's raw loads
            // and stores rely on.
            Backend::Avx512 if self.sixteen_lanes(n) => unsafe {
                avx512::gemm_rows_unpacked::<true>(acc, a, b, k, n)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`); the asserts above are the slice lengths
            // the kernel's raw loads and stores rely on.
            Backend::Avx512 | Backend::Avx2Fma => unsafe {
                avx2::gemm_rows_unpacked::<true>(acc, a, b, k, n)
            },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2Fma => {
                scalar_gemm_rows::<true>(acc, a, b, k, n, BLayout::row_major(n, 8))
            }
            Backend::Scalar => scalar_gemm_rows::<true>(acc, a, b, k, n, BLayout::row_major(n, 8)),
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
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`); the asserts above bound every 8-float
            // read in `x` and write in `col`.
            Backend::Avx512 | Backend::Avx2Fma => unsafe { avx2::im2col(col, x, koff, vecs, len) },
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
    /// scalar backend goes row by row. AVX2 (on the AVX-512 backend too;
    /// 3-tap rows, every `Cnn3d` layer) walks the runs in descending order and, per 8-lane vector of
    /// a run, adds the three taps of every kernel row in ascending row
    /// order, blending the sums in only where a tap reaches: each element
    /// of `g` is loaded and stored once per kernel row and receives exactly
    /// the row-by-row adds in the same order. (A later run is a later output
    /// row, so the rows that reach an element through it come first.) The
    /// loads and stores are whole unmasked vectors whose lanes past a run
    /// are stored back unchanged, so a load never waits on a store it
    /// partly overlaps. The backends agree bit for bit.
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
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`); the asserts above bound every vector in
            // `g` and `col`.
            (Backend::Avx512 | Backend::Avx2Fma, 3) => unsafe {
                avx2::col2im3(g, col, kbase, segs, len)
            },
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
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`).
            Backend::Avx512 | Backend::Avx2Fma => unsafe { avx2::gemm_a_bt_rows(c, a, b, k, n) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2Fma => scalar_gemm_a_bt_rows(self, c, a, b, k, n),
            Backend::Scalar => scalar_gemm_a_bt_rows(self, c, a, b, k, n),
        }
    }

    /// Fixed-order dot product (8 lane accumulators + tree reduction).
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`).
            Backend::Avx512 | Backend::Avx2Fma => unsafe { avx2::dot(a, b) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2Fma => self.scalar_dot(a, b),
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
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`).
            Backend::Avx512 | Backend::Avx2Fma => unsafe { avx2::sigmoid(xs) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2Fma => scalar_sigmoid(xs),
            Backend::Scalar => scalar_sigmoid(xs),
        }
    }

    /// In-place tanh sweep (shared polynomial exp).
    pub fn tanh(&self, xs: &mut [f32]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`).
            Backend::Avx512 | Backend::Avx2Fma => unsafe { avx2::tanh(xs) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2Fma => scalar_tanh(xs),
            Backend::Scalar => scalar_tanh(xs),
        }
    }

    /// One LSTM step's gates and state update over a block of rows: `z` is
    /// `[rows, 4·hsz]` gate pre-activations in i|f|g|o order, activated in
    /// place (sigmoid over i|f, tanh over g, sigmoid over o); then per
    /// element `c ← fma(f, c, i·g)`, `tanh_c ← tanh(c)` and
    /// `h ← o · tanh_c`, with `c`, `tanh_c` and `h` `[rows, hsz]`. Every
    /// backend runs the same operations per element (the AVX-512 arm 16
    /// lanes at a time, the AVX2 arm 8), so the backends agree bit for bit.
    pub fn lstm_cell(
        &self,
        hsz: usize,
        z: &mut [f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        let rows = c.len() / hsz.max(1);
        assert_eq!(z.len(), 4 * rows * hsz, "lstm_cell: z is [rows, 4·hsz]");
        assert!(c.len() == rows * hsz && tanh_c.len() == c.len() && h.len() == c.len());
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx512` is only selected when `avx512_available()`
            // confirmed AVX-512F (and AVX2+FMA) on this CPU (see
            // `active_backend`); the asserts above are the slice lengths
            // the kernel's raw loads and stores rely on.
            Backend::Avx512 => unsafe { avx512::lstm_cell(hsz, z, c, tanh_c, h) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected when `avx2_available()`
            // confirmed AVX2+FMA on this CPU (see `active_backend`); the
            // asserts above are the slice lengths the kernel's raw loads
            // and stores rely on.
            Backend::Avx2Fma => unsafe { avx2::lstm_cell(hsz, z, c, tanh_c, h) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2Fma => scalar_lstm_cell(hsz, z, c, tanh_c, h),
            Backend::Scalar => scalar_lstm_cell(hsz, z, c, tanh_c, h),
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

/// Where `B[t, w·s + l]` lives, for strips `w` columns wide: at
/// `s * strip + t * step + l`. The packed panel and plain row-major B differ
/// only in these two strides, so one kernel per backend serves both
/// [`Kernels::gemm_rows_packed`] and [`Kernels::gemm_rows_unpacked`].
#[derive(Clone, Copy)]
struct BLayout {
    strip: usize,
    step: usize,
}

impl BLayout {
    /// The [`Kernels::pack_b`] panel of a `[k, ·]` matrix, `w` wide.
    fn packed(k: usize, w: usize) -> Self {
        Self { strip: k * w, step: w }
    }

    /// Row-major `[·, n]`, read in strips `w` wide.
    fn row_major(n: usize, w: usize) -> Self {
        Self { strip: w, step: n }
    }
}

/// One row × one KC block over the 8-wide strips of B. `RESUME` starts
/// each chain from `crow` and leaves it there instead of adding it.
#[inline(always)]
fn scalar_gemm_row_block<const RESUME: bool>(
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
        let cdst = &mut crow[s * 8..s * 8 + 8];
        let mut acc = [0.0f32; 8];
        if RESUME {
            acc.copy_from_slice(cdst);
        }
        for t in t0..t1 {
            let av = arow[t];
            let b8 = &strip[t * lay.step..t * lay.step + 8];
            for l in 0..8 {
                acc[l] = av.mul_add(b8[l], acc[l]);
            }
        }
        for l in 0..8 {
            cdst[l] = if RESUME { acc[l] } else { cdst[l] + acc[l] };
        }
    }
    // Tail columns: same per-element chain, one lane at a time.
    let c0 = full_strips * 8;
    if c0 < n {
        let strip = &b[full_strips * lay.strip..];
        for j in c0..n {
            let l = j - c0;
            let mut acc = if RESUME { crow[j] } else { 0.0 };
            for t in t0..t1 {
                acc = arow[t].mul_add(strip[t * lay.step + l], acc);
            }
            crow[j] = if RESUME { acc } else { crow[j] + acc };
        }
    }
}

#[inline(always)]
fn scalar_gemm_rows_impl<const RESUME: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    lay: BLayout,
) {
    let rows = c.len() / n;
    let mut t0 = 0;
    while t0 < k || (k == 0 && t0 == 0) {
        let t1 = (t0 + KC).min(k);
        for i in 0..rows {
            scalar_gemm_row_block::<RESUME>(
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
unsafe fn scalar_gemm_rows_fma<const RESUME: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    lay: BLayout,
) {
    scalar_gemm_rows_impl::<RESUME>(c, a, b, k, n, lay)
}

/// The scalar GEMM row kernel; `RESUME` is [`Kernels::gemm_rows_resume`]'s
/// mode (one `KC` block, chains kept in `c`).
fn scalar_gemm_rows<const RESUME: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    lay: BLayout,
) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA support was just verified.
        unsafe { scalar_gemm_rows_fma::<RESUME>(c, a, b, k, n, lay) };
        return;
    }
    scalar_gemm_rows_impl::<RESUME>(c, a, b, k, n, lay)
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

/// The state update of one row of [`Kernels::lstm_cell`] from lane `j0` on:
/// `gates` is the row's activated i|f|g|o, `c`, `tanh_c` and `h` its
/// `hsz` lanes. The scalar arm runs every lane here, the vector arms their
/// tails.
#[inline(always)]
fn cell_state_lanes(gates: &[f32], c: &mut [f32], tanh_c: &mut [f32], h: &mut [f32], j0: usize) {
    let hsz = c.len();
    for j in j0..hsz {
        let cv = gates[hsz + j].mul_add(c[j], gates[j] * gates[2 * hsz + j]);
        c[j] = cv;
        let tc = tanh_lane(cv);
        tanh_c[j] = tc;
        h[j] = gates[3 * hsz + j] * tc;
    }
}

#[inline(always)]
fn scalar_lstm_cell_impl(
    hsz: usize,
    z: &mut [f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    for (r, row) in z.chunks_exact_mut(4 * hsz).enumerate() {
        scalar_sigmoid_impl(&mut row[..2 * hsz]);
        scalar_tanh_impl(&mut row[2 * hsz..3 * hsz]);
        scalar_sigmoid_impl(&mut row[3 * hsz..]);
        let at = r * hsz..(r + 1) * hsz;
        let (c, tanh_c, h) = (&mut c[at.clone()], &mut tanh_c[at.clone()], &mut h[at]);
        cell_state_lanes(row, c, tanh_c, h, 0);
    }
}

#[cfg(target_arch = "x86_64")]
// SAFETY: callers must ensure FMA is supported (every call site checks
// `fma_available` first).
#[target_feature(enable = "fma")]
unsafe fn scalar_lstm_cell_fma(
    hsz: usize,
    z: &mut [f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    scalar_lstm_cell_impl(hsz, z, c, tanh_c, h)
}

fn scalar_lstm_cell(hsz: usize, z: &mut [f32], c: &mut [f32], tanh_c: &mut [f32], h: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA support was just verified.
        unsafe { scalar_lstm_cell_fma(hsz, z, c, tanh_c, h) };
        return;
    }
    scalar_lstm_cell_impl(hsz, z, c, tanh_c, h)
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
    /// `RESUME` starts each chain from C and stores it back instead of
    /// adding it.
    // SAFETY: callers must ensure AVX2+FMA are supported and that
    // `bcol + t * n + 8 * S` stays inside B for every `t < t1`,
    // `arow + r * k + t` inside A and `cdst + r * n + 8 * S` inside C for
    // every `r < R`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn block<const R: usize, const S: usize, const RESUME: bool>(
        cdst: *mut f32,
        arow: *const f32,
        k: usize,
        bcol: *const f32,
        n: usize,
        t0: usize,
        t1: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); S]; R];
        if RESUME {
            for (r, acc) in acc.iter_mut().enumerate() {
                for (s, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_loadu_ps(cdst.add(r * n + s * 8));
                }
            }
        }
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
                let sum = if RESUME { acc } else { _mm256_add_ps(_mm256_loadu_ps(dst), acc) };
                _mm256_storeu_ps(dst, sum);
            }
        }
    }

    /// [`Kernels::gemm_rows_unpacked`], or with `RESUME` (and `k <= KC`)
    /// [`Kernels::gemm_rows_resume`].
    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrapper gates on `avx2_available`) and that `c`, `a`, `b` hold
    // `rows·n`, `rows·k` and `k·n` elements (asserted by the safe
    // `Kernels` entry points).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_rows_unpacked<const RESUME: bool>(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
    ) {
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
                        block::<4, 2, RESUME>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                        j += 16;
                    }
                    if j < full {
                        block::<4, 1, RESUME>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                    }
                    4
                } else {
                    while j + 64 <= full {
                        block::<1, 8, RESUME>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                        j += 64;
                    }
                    if j + 32 <= full {
                        block::<1, 4, RESUME>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                        j += 32;
                    }
                    if j + 16 <= full {
                        block::<1, 2, RESUME>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                        j += 16;
                    }
                    if j < full {
                        block::<1, 1, RESUME>(crow.add(j), arow, k, bp.add(j), n, t0, t1);
                    }
                    1
                };
                // Tail columns: one masked strip per row. Lane-wise the fused
                // chain is the scalar one; masked-off lanes are neither read
                // nor written.
                if tail > 0 {
                    for r in 0..step {
                        let dst = crow.add(r * n + full);
                        let mut acc = _mm256_setzero_ps();
                        if RESUME {
                            acc = _mm256_maskload_ps(dst, mask);
                        }
                        for t in t0..t1 {
                            let bv = _mm256_maskload_ps(bp.add(t * n + full), mask);
                            let av = _mm256_broadcast_ss(&*arow.add(r * k + t));
                            acc = _mm256_fmadd_ps(av, bv, acc);
                        }
                        let sum = if RESUME {
                            acc
                        } else {
                            _mm256_add_ps(_mm256_maskload_ps(dst, mask), acc)
                        };
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
        let mut i = 0;
        while i < len8 {
            _mm256_storeu_ps(p.add(i), tanh8(_mm256_loadu_ps(p.add(i))));
            i += 8;
        }
        for v in &mut xs[len8..] {
            *v = tanh_lane(*v);
        }
    }

    /// [`tanh_lane`] on 8 lanes.
    // SAFETY: callers must ensure AVX2+FMA are supported (all call sites
    // are `target_feature(avx2,fma)` functions).
    #[inline(always)]
    unsafe fn tanh8(v: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let a = _mm256_andnot_ps(sign, v);
        let e = exp256(_mm256_mul_ps(_mm256_set1_ps(-2.0), a));
        let r = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
        // copysign(r, v)
        _mm256_or_ps(_mm256_andnot_ps(sign, r), _mm256_and_ps(sign, v))
    }

    /// [`Kernels::lstm_cell`], 8 lanes at a time.
    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // wrapper gates on `avx2_available`) and that `z` holds `4·hsz` floats
    // per row of `c`, `tanh_c` and `h` (asserted by the safe entry point).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lstm_cell(
        hsz: usize,
        z: &mut [f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        let h8 = hsz - hsz % 8;
        for (r, row) in z.chunks_exact_mut(4 * hsz).enumerate() {
            sigmoid(&mut row[..2 * hsz]);
            tanh(&mut row[2 * hsz..3 * hsz]);
            sigmoid(&mut row[3 * hsz..]);
            let at = r * hsz..(r + 1) * hsz;
            let (c, tanh_c, h) = (&mut c[at.clone()], &mut tanh_c[at.clone()], &mut h[at]);
            let (g, cp, tp, hp) =
                (row.as_ptr(), c.as_mut_ptr(), tanh_c.as_mut_ptr(), h.as_mut_ptr());
            let mut j = 0;
            while j < h8 {
                let gate = |q: usize| _mm256_loadu_ps(g.add(q * hsz + j));
                let ig = _mm256_mul_ps(gate(0), gate(2));
                let cv = _mm256_fmadd_ps(gate(1), _mm256_loadu_ps(cp.add(j)), ig);
                _mm256_storeu_ps(cp.add(j), cv);
                let tc = tanh8(cv);
                _mm256_storeu_ps(tp.add(j), tc);
                _mm256_storeu_ps(hp.add(j), _mm256_mul_ps(gate(3), tc));
                j += 8;
            }
            cell_state_lanes(row, c, tanh_c, h, h8);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512F implementations (the two GEMM row kernels only).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    /// Lanes per vector: the width of this backend's B strips.
    pub const LANES: usize = 16;

    /// What one `KC` block of a product walks: C's row stride `n`, A's row
    /// stride `k`, where B's strips lie, and the block's `t` range.
    #[derive(Clone, Copy)]
    struct Walk {
        n: usize,
        k: usize,
        lay: BLayout,
        t0: usize,
        t1: usize,
    }

    /// `R` rows × `S` adjacent 16-wide strips of C over one `KC` block:
    /// `R·S` independent accumulator chains per `t` hide the FMA latency,
    /// and each B vector loaded feeds `R` rows. Lanes that `last` masks off
    /// the last strip are neither read from B nor read or written in C.
    /// `RESUME` starts each chain from C and stores it back instead of
    /// adding it.
    // SAFETY: callers must ensure AVX-512F is supported and that, for every
    // `r < R`, `s < S`, `w.t0 <= t < w.t1` and lane `l` that the strip's
    // mask keeps (every lane but the last strip's, which keeps `last`),
    // `arow + r·w.k + t` lies in A, `b + s·w.lay.strip + t·w.lay.step + l`
    // in B and `cdst + r·w.n + 16s + l` in C.
    #[target_feature(enable = "avx512f")]
    unsafe fn block<const R: usize, const S: usize, const RESUME: bool>(
        w: Walk,
        cdst: *mut f32,
        arow: *const f32,
        b: *const f32,
        last: __mmask16,
    ) {
        let mask = |s: usize| if s + 1 == S { last } else { !0 };
        let mut acc = [[_mm512_setzero_ps(); S]; R];
        if RESUME {
            for (r, acc) in acc.iter_mut().enumerate() {
                for (s, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm512_maskz_loadu_ps(mask(s), cdst.add(r * w.n + s * LANES));
                }
            }
        }
        for t in w.t0..w.t1 {
            let mut bv = [_mm512_setzero_ps(); S];
            for (s, bv) in bv.iter_mut().enumerate() {
                *bv = _mm512_maskz_loadu_ps(mask(s), b.add(s * w.lay.strip + t * w.lay.step));
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*arow.add(r * w.k + t));
                for (acc, bv) in acc.iter_mut().zip(bv) {
                    *acc = _mm512_fmadd_ps(av, bv, *acc);
                }
            }
        }
        for (r, acc) in acc.into_iter().enumerate() {
            for (s, acc) in acc.into_iter().enumerate() {
                let dst = cdst.add(r * w.n + s * LANES);
                let sum = if RESUME {
                    acc
                } else {
                    _mm512_add_ps(_mm512_maskz_loadu_ps(mask(s), dst), acc)
                };
                _mm512_mask_storeu_ps(dst, mask(s), sum);
            }
        }
    }

    /// One band of `R` rows of C (row 0 at `crow`) across every 16-wide
    /// strip of the `w.n` columns, over one `KC` block: 2 strips per block
    /// for a multi-row band; for a single row, 8 then 4 then 2, so at least
    /// 4 chains are in flight while 64 columns remain. An odd last strip
    /// runs alone; the columns past `w.n` are masked off the last strip.
    // SAFETY: as for `block`, for every strip of the band.
    #[target_feature(enable = "avx512f")]
    unsafe fn band<const R: usize, const RESUME: bool>(
        w: Walk,
        crow: *mut f32,
        arow: *const f32,
        b: *const f32,
    ) {
        let strips = w.n.div_ceil(LANES);
        let tail: __mmask16 = u16::MAX >> (strips * LANES - w.n);
        // Where strips `s..end` start in C and B, and the last one's mask.
        let at = |s: usize, end: usize| {
            (crow.add(s * LANES), b.add(s * w.lay.strip), if end == strips { tail } else { !0 })
        };
        let mut s = 0;
        if R == 1 {
            while s + 8 <= strips {
                let (c, bs, m) = at(s, s + 8);
                block::<1, 8, RESUME>(w, c, arow, bs, m);
                s += 8;
            }
            if s + 4 <= strips {
                let (c, bs, m) = at(s, s + 4);
                block::<1, 4, RESUME>(w, c, arow, bs, m);
                s += 4;
            }
        }
        while s + 2 <= strips {
            let (c, bs, m) = at(s, s + 2);
            block::<R, 2, RESUME>(w, c, arow, bs, m);
            s += 2;
        }
        if s < strips {
            let (c, bs, m) = at(s, strips);
            block::<R, 1, RESUME>(w, c, arow, bs, m);
        }
    }

    /// `c[rows, n] += a[rows, k] · B`, B read in 16-wide strips where `lay`
    /// says: bands of 8 rows, then 4, then single rows. Per element the
    /// chain is the scalar one — from zero, fused multiply-adds ascending in
    /// `t` per `KC` block, block sums added to C in block order; a partial
    /// last strip is masked lanes of the same chains. `RESUME` (with
    /// `k <= KC`) is [`Kernels::gemm_rows_resume`]'s mode: one block whose
    /// chains start from C and stay there.
    // SAFETY: callers must ensure AVX-512F is supported, `n > 0`, and that
    // `c` and `a` hold `rows·n` and `rows·k` elements and `b` every element
    // `lay` addresses for `t < k` and columns `< n` (asserted by the safe
    // `Kernels` entry points).
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_rows<const RESUME: bool>(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        (k, n): (usize, usize),
        lay: BLayout,
    ) {
        let rows = c.len() / n;
        let (cp, ap, bp) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut t0 = 0;
        while t0 < k {
            let w = Walk { n, k, lay, t0, t1: (t0 + KC).min(k) };
            let mut i = 0;
            while i < rows {
                let (crow, arow) = (cp.add(i * n), ap.add(i * k));
                i += match rows - i {
                    8.. => {
                        band::<8, RESUME>(w, crow, arow, bp);
                        8
                    }
                    4.. => {
                        band::<4, RESUME>(w, crow, arow, bp);
                        4
                    }
                    _ => {
                        band::<1, RESUME>(w, crow, arow, bp);
                        1
                    }
                };
            }
            t0 = w.t1;
        }
    }

    /// [`exp_poly`] on 16 lanes: the same clamps (VMINPS/VMAXPS return the
    /// bound for a NaN, as the AVX2 and scalar code do), floor, fused
    /// reductions and polynomial.
    // SAFETY: callers must ensure AVX-512F is supported (all call sites
    // are `target_feature(avx512f)` functions).
    #[inline(always)]
    unsafe fn exp16(x: __m512) -> __m512 {
        let x = _mm512_min_ps(x, _mm512_set1_ps(EXP_HI));
        let x = _mm512_max_ps(x, _mm512_set1_ps(EXP_LO));
        let fx = _mm512_fmadd_ps(x, _mm512_set1_ps(LOG2EF), _mm512_set1_ps(0.5));
        let fx = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(fx);
        let n = _mm512_cvttps_epi32(fx);
        let x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(EXP_C1), x);
        let x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(EXP_C2), x);
        let z = _mm512_mul_ps(x, x);
        let mut y = _mm512_set1_ps(EXP_P0);
        for p in [EXP_P1, EXP_P2, EXP_P3, EXP_P4, EXP_P5] {
            y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(p));
        }
        y = _mm512_fmadd_ps(y, z, x);
        y = _mm512_add_ps(y, _mm512_set1_ps(1.0));
        let pow2 = _mm512_slli_epi32::<23>(_mm512_add_epi32(n, _mm512_set1_epi32(127)));
        _mm512_mul_ps(y, _mm512_castsi512_ps(pow2))
    }

    /// The sign bit of every lane.
    // SAFETY: callers must ensure AVX-512F is supported.
    #[inline(always)]
    unsafe fn sign_bits() -> __m512i {
        _mm512_set1_epi32(i32::MIN)
    }

    /// [`sigmoid_lane`] on 16 lanes.
    // SAFETY: callers must ensure AVX-512F is supported.
    #[inline(always)]
    unsafe fn sigmoid16(v: __m512) -> __m512 {
        let neg = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v), sign_bits()));
        let one = _mm512_set1_ps(1.0);
        _mm512_div_ps(one, _mm512_add_ps(one, exp16(neg)))
    }

    /// [`tanh_lane`] on 16 lanes.
    // SAFETY: callers must ensure AVX-512F is supported.
    #[inline(always)]
    unsafe fn tanh16(v: __m512) -> __m512 {
        let one = _mm512_set1_ps(1.0);
        let e = exp16(_mm512_mul_ps(_mm512_set1_ps(-2.0), _mm512_abs_ps(v)));
        let r = _mm512_castps_si512(_mm512_div_ps(_mm512_sub_ps(one, e), _mm512_add_ps(one, e)));
        // copysign(r, v)
        let sign = _mm512_and_si512(sign_bits(), _mm512_castps_si512(v));
        _mm512_castsi512_ps(_mm512_or_si512(_mm512_andnot_si512(sign_bits(), r), sign))
    }

    /// Sigmoid (`SIGMOID`) or tanh over `xs`, 16 lanes at a time, the tail
    /// through the scalar lane function.
    // SAFETY: callers must ensure AVX-512F is supported (all call sites
    // are `target_feature(avx512f)` functions).
    #[inline(always)]
    unsafe fn sweep<const SIGMOID: bool>(xs: &mut [f32]) {
        let len16 = xs.len() - xs.len() % LANES;
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i < len16 {
            let v = _mm512_loadu_ps(p.add(i));
            _mm512_storeu_ps(p.add(i), if SIGMOID { sigmoid16(v) } else { tanh16(v) });
            i += LANES;
        }
        for v in &mut xs[len16..] {
            *v = if SIGMOID { sigmoid_lane(*v) } else { tanh_lane(*v) };
        }
    }

    /// [`Kernels::lstm_cell`], 16 lanes at a time.
    // SAFETY: callers must ensure AVX-512F and AVX2+FMA are supported (the
    // dispatch wrapper gates on `avx512_available`) and that `z` holds
    // `4·hsz` floats per row of `c`, `tanh_c` and `h` (asserted by the safe
    // entry point).
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn lstm_cell(
        hsz: usize,
        z: &mut [f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        let h16 = hsz - hsz % LANES;
        for (r, row) in z.chunks_exact_mut(4 * hsz).enumerate() {
            sweep::<true>(&mut row[..2 * hsz]);
            sweep::<false>(&mut row[2 * hsz..3 * hsz]);
            sweep::<true>(&mut row[3 * hsz..]);
            let at = r * hsz..(r + 1) * hsz;
            let (c, tanh_c, h) = (&mut c[at.clone()], &mut tanh_c[at.clone()], &mut h[at]);
            let (g, cp, tp, hp) =
                (row.as_ptr(), c.as_mut_ptr(), tanh_c.as_mut_ptr(), h.as_mut_ptr());
            let mut j = 0;
            while j < h16 {
                let gate = |q: usize| _mm512_loadu_ps(g.add(q * hsz + j));
                let ig = _mm512_mul_ps(gate(0), gate(2));
                let cv = _mm512_fmadd_ps(gate(1), _mm512_loadu_ps(cp.add(j)), ig);
                _mm512_storeu_ps(cp.add(j), cv);
                let tc = tanh16(cv);
                _mm512_storeu_ps(tp.add(j), tc);
                _mm512_storeu_ps(hp.add(j), _mm512_mul_ps(gate(3), tc));
                j += LANES;
            }
            cell_state_lanes(row, c, tanh_c, h, h16);
        }
    }

    /// [`Kernels::gemm_rows_packed`] over this backend's 16-wide panel.
    // SAFETY: callers must ensure AVX-512F is supported, `n > 0`, and that
    // `c`, `a` and `bp` hold `rows·n`, `rows·k` and `⌈n/16⌉·k·16` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_rows_packed(c: &mut [f32], a: &[f32], bp: &[f32], k: usize, n: usize) {
        gemm_rows::<false>(c, a, bp, (k, n), BLayout::packed(k, LANES))
    }

    /// [`Kernels::gemm_rows_unpacked`] off row-major B, or with `RESUME`
    /// (and `k <= KC`) [`Kernels::gemm_rows_resume`].
    // SAFETY: callers must ensure AVX-512F is supported, `n > 0`, and that
    // `c`, `a` and `b` hold `rows·n`, `rows·k` and `k·n` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_rows_unpacked<const RESUME: bool>(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
    ) {
        gemm_rows::<RESUME>(c, a, b, (k, n), BLayout::row_major(n, LANES))
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
        let _g = TEST_BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_backend_override(Some(b));
        let out = f(Kernels::get());
        set_backend_override(None);
        out
    }

    /// Every backend but scalar that this CPU runs; says on stderr when the
    /// AVX-512 arm is not among them, so a run without it is not silent.
    fn simd_backends() -> Vec<Backend> {
        if !avx512_available() {
            eprintln!("note: no avx512f on this CPU; the Avx512 arm was not exercised");
        }
        available_backends().into_iter().filter(|&b| b != Backend::Scalar).collect()
    }

    #[test]
    fn backends_bit_identical_gemm() {
        for be in simd_backends() {
            for &(rows, k, n) in &[(1usize, 1usize, 1usize), (4, 7, 9), (5, 300, 17), (13, 64, 8)] {
                let a = rand_vec(rows * k, 1);
                let b = rand_vec(k * n, 2);
                let run = |be: Backend| {
                    with_backend(be, |kern| {
                        let mut bp = Vec::new();
                        kern.pack_b(&b, k, n, &mut bp);
                        let mut c = vec![0.0f32; rows * n];
                        kern.gemm_rows_packed(&mut c, &a, &bp, k, n);
                        let mut d = vec![0.0f32; rows * n];
                        kern.gemm_rows_unpacked(&mut d, &a, &b, k, n);
                        (c, d)
                    })
                };
                assert_eq!(run(Backend::Scalar), run(be), "{be:?} {rows}x{k}x{n}");
            }
        }
    }

    #[test]
    fn backends_bit_identical_dot_and_bt() {
        for be in simd_backends() {
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
                assert_eq!(run(Backend::Scalar), run(be), "{be:?}");
            }
        }
    }

    #[test]
    fn backends_bit_identical_activations() {
        let xs = rand_vec(37, 5);
        for be in simd_backends() {
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
                assert_eq!(run(Backend::Scalar), run(be), "{be:?}");
            }
        }
    }

    /// The panel a backend packs is as wide as the vectors its kernel
    /// runs: 16 columns on AVX-512 past 8 columns, 8 elsewhere.
    #[test]
    fn pack_b_panel_width_follows_the_backend() {
        for (k, n) in [(3usize, 5usize), (3, 8), (2, 9)] {
            let b = rand_vec(k * n, 6);
            for be in available_backends() {
                let w = if be == Backend::Avx512 && n > 8 { 16 } else { 8 };
                let bp = with_backend(be, |kern| {
                    let mut bp = Vec::new();
                    kern.pack_b(&b, k, n, &mut bp);
                    bp
                });
                let strips = n.div_ceil(w);
                assert_eq!(bp.len(), strips * k * w, "{be:?} n={n}");
                for t in 0..k {
                    for j in 0..strips * w {
                        let want = if j < n { b[t * n + j] } else { 0.0 };
                        let got = bp[(j / w) * k * w + t * w + j % w];
                        assert_eq!(got, want, "{be:?} n={n} B[{t}, {j}]");
                    }
                }
            }
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
        let _g = TEST_BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = dispatch_counts();
        set_backend_override(Some(Backend::Scalar));
        assert_eq!(active_backend(), Backend::Scalar);
        let _ = Kernels::get();
        set_backend_override(None);
        let after = dispatch_counts();
        assert!(after.scalar > before.scalar, "scalar dispatch counted");
    }

    /// Forcing a backend the CPU lacks runs the widest one below it:
    /// avx512 → avx2 → scalar.
    #[test]
    fn forced_backend_falls_to_the_widest_available_below_it() {
        let _g = TEST_BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let avx2 = if avx2_available() { Backend::Avx2Fma } else { Backend::Scalar };
        let avx512 = if avx512_available() { Backend::Avx512 } else { avx2 };
        for (forced, want) in [
            (Backend::Scalar, Backend::Scalar),
            (Backend::Avx2Fma, avx2),
            (Backend::Avx512, avx512),
        ] {
            set_backend_override(Some(forced));
            let (active, kern) = (active_backend(), Kernels::get().backend());
            set_backend_override(None);
            assert_eq!((active, kern), (want, want), "forced {forced:?}");
        }
        assert_eq!(Backend::Avx512.at_most_available(), avx512);
        assert_eq!(Backend::Avx2Fma.at_most_available(), avx2);
    }

    /// `ETALUMIS_KERNEL_BACKEND` accepts every backend name (and `avx2`);
    /// an unset or empty variable means auto, and any other value means
    /// auto with a warning that names it.
    #[test]
    fn env_values_parse_and_unknown_ones_warn() {
        assert_eq!(parse_env(None), (None, None));
        assert_eq!(parse_env(Some("")), (None, None));
        for (v, b) in [
            ("scalar", Backend::Scalar),
            ("avx2", Backend::Avx2Fma),
            ("avx2_fma", Backend::Avx2Fma),
            ("avx512", Backend::Avx512),
        ] {
            assert_eq!(parse_env(Some(v)), (Some(b), None), "{v}");
        }
        for v in ["avx-512", "AVX2", "auto"] {
            let (forced, warning) = parse_env(Some(v));
            assert_eq!(forced, None, "{v}");
            let warning = warning.unwrap_or_default();
            assert!(warning.contains(&format!("{v:?}")) && warning.contains("avx512"), "{warning}");
        }
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
