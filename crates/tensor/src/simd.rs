//! Runtime-dispatched SIMD micro-kernels (AVX-512F and AVX2+FMA, with a
//! bit-identical scalar fallback).
//!
//! The paper's training throughput rests on explicitly vectorized kernels
//! (§4.4.2: the MKL-DNN AVX-512 path). This module is the etalumis-rs
//! equivalent on stable Rust. Each kernel — the GEMM row walk, the row
//! dots, the sigmoid/tanh sweeps and the LSTM cell update — is one body
//! written over a private lane-type trait, and each backend instantiates it
//! on its own lane type inside that backend's one `#[target_feature]`
//! entry. The backend is chosen at runtime behind
//! [`is_x86_feature_detected!`] (the widest the CPU has):
//!
//! * **AVX-512** ([`Backend::Avx512`], `avx512f`): `__m512`, 16 lanes, for
//!   the GEMM row kernels over more than 8 columns —
//!   [`Kernels::gemm_rows_unpacked`] (the Conv3d im2col panels, few-row
//!   products), its resume mode [`Kernels::gemm_rows_resume`] and
//!   [`Kernels::gemm_rows_packed`] (LSTM, FC and head GEMMs), whose
//!   [`Kernels::pack_b`] panels are then 16 columns wide — for the
//!   sigmoid/tanh sweeps and for the LSTM cell update [`Kernels::lstm_cell`].
//!   Everything else runs the AVX2 lane type.
//! * **AVX2+FMA** ([`Backend::Avx2Fma`]): `__m256`, 8 lanes, for every
//!   kernel; packed panels are 8 columns wide.
//! * **Scalar** ([`Backend::Scalar`]): `[f32; 8]`, 8 lanes of
//!   [`f32::mul_add`] (compiled with the FMA target feature where the CPU
//!   has it); packed panels are 8 columns wide.
//!
//! Every lane type performs *the same operations in the same order*:
//! fused multiply-adds ([`f32::mul_add`] ≡ `_mm256_fmadd_ps` ≡
//! `_mm512_fmadd_ps`, all single rounding), the same polynomial exp with
//! the same clamps, and masked lanes for every tail. Each output element's
//! accumulation chain is therefore a pure function of the problem shape
//! (never of the dispatch choice, lane count, blocking, or thread count),
//! and results are **bit-identical** across backends — preserving every
//! bit-identity contract in the repo while the fast path runs. A GEMM row
//! kernel's chain per element is: start from zero, fused multiply-adds
//! ascending in `t` within each [`KC`] block, each block's sum added to C in
//! block order. Lane width only decides how many such chains run side by
//! side, and register blocking is a constant of the lane type (32 zmm
//! registers hold bands of 8 rows × 2 strips of accumulators, 16 ymm ones
//! 4 × 2; a single row runs up to 8 strips at once). The chain can also run
//! in pieces: [`Kernels::gemm_rows_resume`] continues chains from a given
//! accumulator instead of zero and leaves them there, with the same walk,
//! lanes and masks, so a block split at any column computes what the whole
//! block does — the B = 1 IC inference step keeps the chains over its
//! input's constant columns and resumes them over the ones that change.
//!
//! Some kernels stay at 8 lanes on the AVX-512 backend, for their bits or
//! their buffers: [`Kernels::gemm_a_bt_rows`] sums 8 lane accumulators
//! through the fixed tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, so 16
//! lanes would change the summation order; [`Kernels::im2col`] and
//! [`Kernels::col2im`] move whole 8-float vectors into buffers the Conv3d
//! lowering sizes with 8 floats of slack; and a GEMM at most 8 columns wide
//! would fill half a 16-lane strip, where the 8-lane walk measured faster.
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

    /// True when a GEMM `n` columns wide runs 16 lanes: on the AVX-512
    /// backend, for more than 8 columns. At most 8 columns fill half a
    /// 16-lane strip, and there the 8-lane walk measured faster (Conv3d
    /// layer 1's weight gradient, `n = 8`: 0.85–0.92× on 16 lanes).
    fn sixteen_lanes(&self, n: usize) -> bool {
        cfg!(target_arch = "x86_64") && self.backend == Backend::Avx512 && n > 8
    }

    /// Columns per [`Kernels::pack_b`] panel strip for a GEMM `n` columns
    /// wide: 16 where 16 lanes run (one zmm vector), else 8.
    fn panel_width(&self, n: usize) -> usize {
        if self.sixteen_lanes(n) {
            16
        } else {
            8
        }
    }

    /// Run `body` on this dispatch's lane type: `__m512` on the AVX-512
    /// backend when `wide`, `__m256` on it otherwise and on AVX2, and
    /// `[f32; 8]` on scalar — inside the FMA entry where the CPU has FMA,
    /// so that `f32::mul_add` is one instruction rather than a libm call.
    /// Each caller has asserted the slice lengths its body relies on.
    #[inline]
    fn run(&self, wide: bool, body: &mut impl Body) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx512` is only selected when `avx512_available()`
            // confirmed AVX-512F, AVX2 and FMA on this CPU (see
            // `active_backend`); the caller asserted the body's lengths.
            Backend::Avx512 if wide => unsafe { x86::on_avx512(body) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` and `Avx512` are only selected when
            // `avx2_available()` confirmed AVX2+FMA on this CPU (see
            // `active_backend`); the caller asserted the body's lengths.
            Backend::Avx512 | Backend::Avx2Fma => unsafe { x86::on_avx2(body) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `fma_available()` just confirmed FMA on this CPU; the
            // caller asserted the body's lengths.
            Backend::Scalar if fma_available() => unsafe { x86::on_fma(body) },
            _ => portable(body),
        }
    }

    /// Pack B `[k, n]` into column panels `w` wide: `bp[s][t][l] =
    /// B[t, w·s+l]` (zero padded past `n`), with `w = 16` where this
    /// backend runs 16 lanes for `n` columns and 8 elsewhere. The panel is
    /// only for [`Kernels::gemm_rows_packed`] on the same `Kernels` and `n`;
    /// every backend reads its own panel in the same element order, so the
    /// accumulation chains are identical.
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
        self.run(self.sixteen_lanes(n), &mut GemmRows::<false> { c, a, b: bp, k, n, packed: true });
    }

    /// GEMM straight off row-major B: `c[rows, n] += a[rows, k] · b[k, n]`
    /// with no packed panel — for the few-row products (B = 1 inference
    /// steps) where packing B costs as much as multiplying by it, and for
    /// the convolutions, whose B is an im2col panel built once and used
    /// once. Every output element runs exactly the
    /// [`Kernels::gemm_rows_packed`] chain (per `KC` block a fused
    /// multiply-add chain ascending in `t`, block sums added to `c` in block
    /// order); only the B addressing differs, so the two are bit-identical
    /// on every backend.
    pub fn gemm_rows_unpacked(&self, c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        if n == 0 || c.is_empty() {
            return;
        }
        let rows = c.len() / n;
        assert_eq!(c.len(), rows * n);
        assert_eq!(a.len(), rows * k);
        assert_eq!(b.len(), k * n);
        self.run(self.sixteen_lanes(n), &mut GemmRows::<false> { c, a, b, k, n, packed: false });
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
        self.run(
            self.sixteen_lanes(n),
            &mut GemmRows::<true> { c: acc, a, b, k, n, packed: false },
        );
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
            Backend::Avx512 | Backend::Avx2Fma => unsafe { x86::im2col(col, x, koff, vecs, len) },
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
    /// 3-tap rows, every `Cnn3d` layer) walks the runs in descending order
    /// and, per 8-lane vector of a run, adds the three taps of every kernel
    /// row in ascending row order, blending the sums in only where a tap
    /// reaches: each element of `g` is loaded and stored once per kernel row
    /// and receives exactly the row-by-row adds in the same order. (A later
    /// run is a later output row, so the rows that reach an element through
    /// it come first.) The loads and stores are whole unmasked vectors whose
    /// lanes past a run are stored back unchanged, so a load never waits on
    /// a store it partly overlaps. The backends agree bit for bit.
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
                x86::col2im3(g, col, kbase, segs, len)
            },
            _ => scalar_col2im(g, col, kbase, k, segs, len),
        }
    }

    /// `c[rows, n] = a[rows, k] · bᵀ` where `b` is `[n, k]` (row dots).
    /// Each dot runs 8 lane accumulators over `t` in steps of 8, sums them
    /// in the fixed tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, then
    /// fuses the last `k % 8` products onto that sum — 8 lanes on every
    /// backend, since 16 would change the order.
    pub fn gemm_a_bt_rows(&self, c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        if n == 0 || c.is_empty() {
            return;
        }
        let rows = c.len() / n;
        assert_eq!(c.len(), rows * n, "gemm_a_bt_rows: c is [rows, n]");
        assert_eq!(a.len(), rows * k, "gemm_a_bt_rows: a is [rows, k]");
        assert_eq!(b.len(), n * k, "gemm_a_bt_rows: b is [n, k]");
        self.run(false, &mut RowDots { c, a, b, k, n });
    }

    /// In-place logistic sigmoid sweep (shared polynomial exp).
    pub fn sigmoid(&self, xs: &mut [f32]) {
        self.run(true, &mut Sweep { xs, sigmoid: true });
    }

    /// In-place tanh sweep (shared polynomial exp).
    pub fn tanh(&self, xs: &mut [f32]) {
        self.run(true, &mut Sweep { xs, sigmoid: false });
    }

    /// One LSTM step's gates and state update over a block of rows: `z` is
    /// `[rows, 4·hsz]` gate pre-activations in i|f|g|o order, activated in
    /// place (sigmoid over i|f, tanh over g, sigmoid over o); then per
    /// element `c ← fma(f, c, i·g)`, `tanh_c ← tanh(c)` and
    /// `h ← o · tanh_c`, with `c`, `tanh_c` and `h` `[rows, hsz]`. Every
    /// backend runs the same operations per element (the AVX-512 one 16
    /// lanes at a time, the others 8), so the backends agree bit for bit.
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
        self.run(true, &mut Cell { hsz, z, c, tanh_c, h });
    }
}

/// `body` on `[f32; 8]` lanes compiled for any CPU: the scalar backend
/// where FMA is missing (each `f32::mul_add` a libm call), and every
/// backend off x86-64. Kept out of line so that the dispatch stays small.
#[inline(never)]
fn portable(body: &mut impl Body) {
    // SAFETY: `[f32; 8]` is plain Rust, which every CPU runs; the caller
    // asserted the body's lengths.
    unsafe { body.run::<[f32; 8]>() }
}

/// The fixed tree reduction of 8 lane accumulators, mirroring the AVX2
/// horizontal add: `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
#[inline(always)]
fn reduce8(l: [f32; 8]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
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

// ---------------------------------------------------------------------------
// One body per kernel, generic over the lane type.
// ---------------------------------------------------------------------------

/// A vector of `N` f32 lanes: the operations the kernel bodies are written
/// in. Every method acts lane by lane exactly as the scalar `f32` operation
/// of the same name, so a body computes the same bits on every lane type.
/// The `__m256` and `__m512` impls are only instantiated inside their
/// backend's `#[target_feature]` entry (module `x86`).
trait Lanes: Copy {
    /// Lanes per vector.
    const N: usize;
    /// Rows of the widest GEMM band (8 or 4): as many as the register file
    /// holds at 2 strips of accumulators per row, with B and A vectors
    /// beside them.
    const BAND: usize;

    /// Every lane `x`.
    fn splat(x: f32) -> Self;
    /// Lanes `l < live` from `p + l`, the rest zero; no other memory is read.
    // SAFETY: callers must ensure `p + l` is readable for every
    // `l < min(live, N)`.
    unsafe fn load(p: *const f32, live: usize) -> Self;
    /// Lanes `l < live` to `p + l`; no other memory is written.
    // SAFETY: callers must ensure `p + l` is writable for every
    // `l < min(live, N)`.
    unsafe fn store(self, p: *mut f32, live: usize);
    /// `self · b + c` with one rounding.
    fn mul_add(self, b: Self, c: Self) -> Self;
    fn add(self, b: Self) -> Self;
    fn sub(self, b: Self) -> Self;
    fn mul(self, b: Self) -> Self;
    fn div(self, b: Self) -> Self;
    /// `self < b ? self : b` (SSE `minps`: `b` when either is NaN).
    fn min(self, b: Self) -> Self;
    /// `self > b ? self : b` (SSE `maxps`: `b` when either is NaN).
    fn max(self, b: Self) -> Self;
    fn floor(self) -> Self;
    /// `2^self` for integer-valued lanes in `[-127, 128]`, built from the
    /// exponent bits.
    fn pow2(self) -> Self;
    /// The sign bit flipped.
    fn neg(self) -> Self;
    /// The sign bit cleared.
    fn abs(self) -> Self;
    /// `self`'s magnitude with `sign`'s sign bit.
    fn copysign(self, sign: Self) -> Self;
    /// The sum of the lanes, halving the vector until one lane is left: for
    /// 8 lanes the tree of [`reduce8`].
    fn reduce(self) -> f32;
}

/// The portable lane type of the scalar backend: 8 lanes of plain `f32`
/// arithmetic (`f32::mul_add` for the fused steps).
impl Lanes for [f32; 8] {
    const N: usize = 8;
    const BAND: usize = 4;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        [x; 8]
    }
    // A full vector moves whole, which lets the compiler vectorize the
    // bodies; only a tail goes lane by lane.
    // SAFETY: callers must ensure what `Lanes::load` requires.
    #[inline(always)]
    unsafe fn load(p: *const f32, live: usize) -> Self {
        if live >= 8 {
            return p.cast::<[f32; 8]>().read_unaligned();
        }
        std::array::from_fn(|l| if l < live { *p.add(l) } else { 0.0 })
    }
    // SAFETY: callers must ensure what `Lanes::store` requires.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32, live: usize) {
        if live >= 8 {
            return p.cast::<[f32; 8]>().write_unaligned(self);
        }
        for (l, v) in self.into_iter().enumerate().take(live) {
            *p.add(l) = v;
        }
    }
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        std::array::from_fn(|l| self[l].mul_add(b[l], c[l]))
    }
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] + b[l])
    }
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] - b[l])
    }
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] * b[l])
    }
    #[inline(always)]
    fn div(self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] / b[l])
    }
    #[inline(always)]
    fn min(self, b: Self) -> Self {
        std::array::from_fn(|l| if self[l] < b[l] { self[l] } else { b[l] })
    }
    #[inline(always)]
    fn max(self, b: Self) -> Self {
        std::array::from_fn(|l| if self[l] > b[l] { self[l] } else { b[l] })
    }
    #[inline(always)]
    fn floor(self) -> Self {
        self.map(f32::floor)
    }
    #[inline(always)]
    fn pow2(self) -> Self {
        // `x + 127` is exact in the low mantissa bits of `2^23 + x + 127`;
        // a saturating `as i32` here kept the sweeps from vectorizing.
        self.map(|x| f32::from_bits(((x + 127.0) + 8_388_608.0).to_bits() << 23))
    }
    #[inline(always)]
    fn neg(self) -> Self {
        self.map(|x| -x)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        self.map(f32::abs)
    }
    #[inline(always)]
    fn copysign(self, sign: Self) -> Self {
        std::array::from_fn(|l| self[l].copysign(sign[l]))
    }
    #[inline(always)]
    fn reduce(self) -> f32 {
        reduce8(self)
    }
}

/// A kernel written once over [`Lanes`]: [`Kernels::run`] instantiates it
/// on the dispatch's lane type inside that backend's `#[target_feature]`
/// entry.
trait Body {
    // SAFETY: callers must ensure the CPU runs `L`'s instructions; the
    // slices hold what the `Kernels` method that built `self` asserted.
    unsafe fn run<L: Lanes>(&mut self);
}

/// [`Kernels::gemm_rows_packed`] (`packed`, B a panel as wide as the lane
/// type), [`Kernels::gemm_rows_unpacked`] (B row-major), or with `RESUME`
/// [`Kernels::gemm_rows_resume`]: one `KC` block whose chains start from C
/// and stay there.
struct GemmRows<'a, const RESUME: bool> {
    c: &'a mut [f32],
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    n: usize,
    packed: bool,
}

/// What one `KC` block of a product walks: C's row stride `n`, A's row
/// stride `k`, B's layout — `B[t, N·s + l]` at `s·strip + t·step + l` — and
/// the block's `t` range.
#[derive(Clone, Copy)]
struct Walk {
    n: usize,
    k: usize,
    strip: usize,
    step: usize,
    t0: usize,
    t1: usize,
}

impl<const RESUME: bool> Body for GemmRows<'_, RESUME> {
    // SAFETY: callers must ensure what `Body::run` requires.
    #[inline(always)]
    unsafe fn run<L: Lanes>(&mut self) {
        let &mut GemmRows { ref mut c, a, b, k, n, packed } = self;
        let (strip, step) = if packed { (k * L::N, L::N) } else { (L::N, n) };
        let w = Walk { n, k, strip, step, t0: 0, t1: 0 };
        let (cp, rows, ap, bp) = (c.as_mut_ptr(), c.len() / n, a.as_ptr(), b.as_ptr());
        // Whether the last strip is full is settled here, once, so that a
        // full one loads and stores unmasked.
        if n % L::N == 0 {
            walk::<L, RESUME, true>(w, cp, rows, ap, bp)
        } else {
            walk::<L, RESUME, false>(w, cp, rows, ap, bp)
        }
    }
}

/// `rows` rows of C from `cp` (A from `ap`, B from `bp`): per `KC` block,
/// bands of `L::BAND` rows, then 4, then single rows. Per element the chain
/// is the scalar one — from zero, fused multiply-adds ascending in `t` per
/// block, block sums added to C in block order; a partial last strip
/// (`FULL` false) is masked lanes of the same chains.
// SAFETY: callers must ensure what `block` requires, for every band.
#[inline(always)]
unsafe fn walk<L: Lanes, const RESUME: bool, const FULL: bool>(
    mut w: Walk,
    cp: *mut f32,
    rows: usize,
    ap: *const f32,
    bp: *const f32,
) {
    while w.t0 < w.k {
        w.t1 = (w.t0 + KC).min(w.k);
        let mut i = 0;
        while i < rows {
            let (crow, arow) = (cp.add(i * w.n), ap.add(i * w.k));
            i += match rows - i {
                r if r >= 8 && L::BAND == 8 => {
                    band::<L, 8, RESUME, FULL>(w, crow, arow, bp);
                    8
                }
                4.. => {
                    band::<L, 4, RESUME, FULL>(w, crow, arow, bp);
                    4
                }
                _ => {
                    band::<L, 1, RESUME, FULL>(w, crow, arow, bp);
                    1
                }
            };
        }
        w.t0 = w.t1;
    }
}

/// One band of `R` rows of C (row 0 at `crow`) across every strip of the
/// `w.n` columns, over one `KC` block: 2 strips per block for a multi-row
/// band; for a single row, 8 then 4 then 2, so at least 4 chains are in
/// flight while 8 strips remain. An odd last strip runs alone; the columns
/// past `w.n` are masked off the last strip.
// SAFETY: callers must ensure what `block` requires, for every strip.
#[inline(always)]
unsafe fn band<L: Lanes, const R: usize, const RESUME: bool, const FULL: bool>(
    w: Walk,
    crow: *mut f32,
    arow: *const f32,
    b: *const f32,
) {
    let strips = w.n.div_ceil(L::N);
    let tail = if FULL { L::N } else { w.n - (strips - 1) * L::N };
    // Where strips `s..end` start in C and B, and the last one's live lanes.
    let at = |s: usize, end: usize| {
        (crow.add(s * L::N), b.add(s * w.strip), if end == strips { tail } else { L::N })
    };
    let mut s = 0;
    if R == 1 {
        while s + 8 <= strips {
            let (c, bs, live) = at(s, s + 8);
            block::<L, 1, 8, RESUME>(w, c, arow, bs, live);
            s += 8;
        }
        if s + 4 <= strips {
            let (c, bs, live) = at(s, s + 4);
            block::<L, 1, 4, RESUME>(w, c, arow, bs, live);
            s += 4;
        }
    }
    while s + 2 <= strips {
        let (c, bs, live) = at(s, s + 2);
        block::<L, R, 2, RESUME>(w, c, arow, bs, live);
        s += 2;
    }
    if s < strips {
        let (c, bs, live) = at(s, strips);
        block::<L, R, 1, RESUME>(w, c, arow, bs, live);
    }
}

/// `R` rows × `S` adjacent strips of C over one `KC` block: `R·S`
/// independent accumulator chains per `t` hide the FMA latency, and each B
/// vector loaded feeds `R` rows. Lanes of the last strip at or past `last`
/// are neither read from B nor read or written in C. `RESUME` starts each
/// chain from C and stores it back instead of adding it.
// SAFETY: callers must ensure the CPU runs `L`'s instructions and, for
// every `r < R`, `s < S`, `w.t0 <= t < w.t1` and live lane `l` of strip
// `s`, that `arow + r·w.k + t` lies in A, `b + s·w.strip + t·w.step + l`
// in B and `cdst + r·w.n + N·s + l` in C.
#[inline(always)]
unsafe fn block<L: Lanes, const R: usize, const S: usize, const RESUME: bool>(
    w: Walk,
    cdst: *mut f32,
    arow: *const f32,
    b: *const f32,
    last: usize,
) {
    let live = |s: usize| if s + 1 == S { last } else { L::N };
    let mut acc = [[L::splat(0.0); S]; R];
    if RESUME {
        for (r, acc) in acc.iter_mut().enumerate() {
            for (s, acc) in acc.iter_mut().enumerate() {
                *acc = L::load(cdst.add(r * w.n + s * L::N), live(s));
            }
        }
    }
    for t in w.t0..w.t1 {
        let mut bv = [L::splat(0.0); S];
        for (s, bv) in bv.iter_mut().enumerate() {
            *bv = L::load(b.add(s * w.strip + t * w.step), live(s));
        }
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = L::splat(*arow.add(r * w.k + t));
            for (acc, bv) in acc.iter_mut().zip(bv) {
                *acc = av.mul_add(bv, *acc);
            }
        }
    }
    for (r, acc) in acc.into_iter().enumerate() {
        for (s, acc) in acc.into_iter().enumerate() {
            let dst = cdst.add(r * w.n + s * L::N);
            let sum = if RESUME { acc } else { L::load(dst, live(s)).add(acc) };
            sum.store(dst, live(s));
        }
    }
}

/// [`Kernels::gemm_a_bt_rows`]; run on an 8-lane type only.
struct RowDots<'a> {
    c: &'a mut [f32],
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    n: usize,
}

impl Body for RowDots<'_> {
    // SAFETY: callers must ensure what `Body::run` requires.
    #[inline(always)]
    unsafe fn run<L: Lanes>(&mut self) {
        let &mut RowDots { ref mut c, a, b, k, n } = self;
        for i in 0..c.len() / n {
            let (arow, crow) = (a.as_ptr().add(i * k), &mut c[i * n..(i + 1) * n]);
            // Four B rows at a time share each A vector; the last few run
            // one by one.
            let mut j = 0;
            while j + 4 <= n {
                crow[j..j + 4].copy_from_slice(&dots::<L, 4>(arow, b.as_ptr().add(j * k), k));
                j += 4;
            }
            for (j, cv) in crow.iter_mut().enumerate().skip(j) {
                *cv = dots::<L, 1>(arow, b.as_ptr().add(j * k), k)[0];
            }
        }
    }
}

/// The dots of the `k` floats at `arow` with `Q` consecutive rows of B at
/// `brow`: lane accumulators over `t` in steps of `N`, reduced, then the
/// last `k % N` products fused onto the sum in order.
// SAFETY: callers must ensure the CPU runs `L`'s instructions and that
// `arow[..k]` and `brow[..Q·k]` lie in A and B.
#[inline(always)]
unsafe fn dots<L: Lanes, const Q: usize>(arow: *const f32, brow: *const f32, k: usize) -> [f32; Q] {
    let kn = k - k % L::N;
    let mut acc = [L::splat(0.0); Q];
    for t in (0..kn).step_by(L::N) {
        let av = L::load(arow.add(t), L::N);
        for (q, acc) in acc.iter_mut().enumerate() {
            *acc = av.mul_add(L::load(brow.add(q * k + t), L::N), *acc);
        }
    }
    let mut r = acc.map(L::reduce);
    for t in kn..k {
        for (q, r) in r.iter_mut().enumerate() {
            *r = (*arow.add(t)).mul_add(*brow.add(q * k + t), *r);
        }
    }
    r
}

/// [`Kernels::sigmoid`] (`sigmoid`) or [`Kernels::tanh`] in place.
struct Sweep<'a> {
    xs: &'a mut [f32],
    sigmoid: bool,
}

impl Body for Sweep<'_> {
    // SAFETY: callers must ensure what `Body::run` requires.
    #[inline(always)]
    unsafe fn run<L: Lanes>(&mut self) {
        if self.sigmoid {
            sweep::<L, true>(self.xs);
        } else {
            sweep::<L, false>(self.xs);
        }
    }
}

/// [`Kernels::lstm_cell`].
struct Cell<'a> {
    hsz: usize,
    z: &'a mut [f32],
    c: &'a mut [f32],
    tanh_c: &'a mut [f32],
    h: &'a mut [f32],
}

impl Body for Cell<'_> {
    // SAFETY: callers must ensure what `Body::run` requires.
    #[inline(always)]
    unsafe fn run<L: Lanes>(&mut self) {
        let &mut Cell { hsz, ref mut z, ref mut c, ref mut tanh_c, ref mut h } = self;
        for (r, row) in z.chunks_exact_mut(4 * hsz).enumerate() {
            sweep::<L, true>(&mut row[..2 * hsz]);
            sweep::<L, false>(&mut row[2 * hsz..3 * hsz]);
            sweep::<L, true>(&mut row[3 * hsz..]);
            let (g, at) = (row.as_ptr(), r * hsz);
            let (cp, tp, hp) =
                (c.as_mut_ptr().add(at), tanh_c.as_mut_ptr().add(at), h.as_mut_ptr().add(at));
            for j in (0..hsz).step_by(L::N) {
                let live = hsz - j;
                let gate = |q: usize| L::load(g.add(q * hsz + j), live);
                let cv = gate(1).mul_add(L::load(cp.add(j), live), gate(0).mul(gate(2)));
                cv.store(cp.add(j), live);
                let tc = tanh(cv);
                tc.store(tp.add(j), live);
                gate(3).mul(tc).store(hp.add(j), live);
            }
        }
    }
}

/// Sigmoid (`SIGMOID`) or tanh over `xs` in place, `N` lanes at a time,
/// the tail masked. (A const parameter, not a function argument: a call
/// through `Fn` would leave the intrinsics outside the target-feature entry.)
// SAFETY: callers must ensure the CPU runs `L`'s instructions.
#[inline(always)]
unsafe fn sweep<L: Lanes, const SIGMOID: bool>(xs: &mut [f32]) {
    let (p, len) = (xs.as_mut_ptr(), xs.len());
    for i in (0..len).step_by(L::N) {
        let v = L::load(p.add(i), len - i);
        if SIGMOID { sigmoid(v) } else { tanh(v) }.store(p.add(i), len - i);
    }
}

// Cephes-style expf: clamp, split off the power of two, polynomial.
const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -88.376_26;
const LOG2EF: f32 = std::f32::consts::LOG2_E;
const EXP_C1: f32 = 0.693_359_4;
const EXP_C2: f32 = -2.121_944_4e-4;
const EXP_P: [f32; 6] =
    [1.987_569_2e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 5.000_000_3e-1];

/// Polynomial expf. Inputs clamp to the representable range with SSE
/// min/max semantics: `min(x, HI)` then `max(·, LO)`, in that operand order,
/// so a NaN saturates to `EXP_HI`.
#[inline(always)]
fn exp_poly<L: Lanes>(x: L) -> L {
    let x = x.min(L::splat(EXP_HI)).max(L::splat(EXP_LO));
    let fx = x.mul_add(L::splat(LOG2EF), L::splat(0.5)).floor();
    // `fx·(−C) + x` rounds as `x − fx·C` does: the product is exact either way.
    let x = fx.mul_add(L::splat(-EXP_C1), x);
    let x = fx.mul_add(L::splat(-EXP_C2), x);
    let z = x.mul(x);
    let mut y = L::splat(EXP_P[0]);
    for p in &EXP_P[1..] {
        y = y.mul_add(x, L::splat(*p));
    }
    y = y.mul_add(z, x);
    y.add(L::splat(1.0)).mul(fx.pow2())
}

/// `1 / (1 + exp(−x))`.
#[inline(always)]
fn sigmoid<L: Lanes>(x: L) -> L {
    let one = L::splat(1.0);
    one.div(one.add(exp_poly(x.neg())))
}

/// `(1 − e) / (1 + e)` with `e = exp(−2|x|)`, given `x`'s sign.
#[inline(always)]
fn tanh<L: Lanes>(x: L) -> L {
    let one = L::splat(1.0);
    let e = exp_poly(L::splat(-2.0).mul(x.abs()));
    one.sub(e).div(one.add(e)).copysign(x)
}

// ---------------------------------------------------------------------------
// x86-64: the vector lane types, the `#[target_feature]` entries, and the
// AVX2 im2col / col2im copies.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Body, Lanes, Seg};
    use std::arch::x86_64::*;

    // SAFETY: callers must ensure AVX-512F, AVX2 and FMA are supported (the
    // dispatch gates on `avx512_available`) and meet `body`'s preconditions.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn on_avx512(body: &mut impl Body) {
        body.run::<__m512>()
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // gates on `avx2_available`) and meet `body`'s preconditions.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn on_avx2(body: &mut impl Body) {
        body.run::<__m256>()
    }

    // SAFETY: callers must ensure FMA is supported (the dispatch checks
    // `fma_available`) and meet `body`'s preconditions.
    #[target_feature(enable = "fma")]
    pub(super) unsafe fn on_fma(body: &mut impl Body) {
        body.run::<[f32; 8]>()
    }

    /// `Lanes` methods that run intrinsics on values and touch no memory.
    macro_rules! intrinsics {
        ($(fn $name:ident($($p:tt)*) -> $ret:ty { $($body:tt)* })*) => {$(
            #[inline(always)]
            fn $name($($p)*) -> $ret {
                // SAFETY: a vector lane type is only instantiated inside
                // its backend's `#[target_feature]` entry above, which the
                // dispatch enters on a CPU that runs the backend; these
                // intrinsics read and write no memory.
                unsafe { $($body)* }
            }
        )*};
    }

    /// Lanes `l < live` on (sign bit set), the rest off.
    // SAFETY: callers must ensure AVX2 is supported (only the `__m256`
    // lanes call this, inside `on_avx2` or `on_avx512`).
    #[inline(always)]
    unsafe fn mask8(live: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(live as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    impl Lanes for __m256 {
        const N: usize = 8;
        const BAND: usize = 4;

        // Full vectors load and store plainly; only a tail pays for a mask.
        // SAFETY: callers must ensure what `Lanes::load` requires, on a CPU
        // that runs AVX2.
        #[inline(always)]
        unsafe fn load(p: *const f32, live: usize) -> Self {
            if live >= 8 {
                _mm256_loadu_ps(p)
            } else {
                _mm256_maskload_ps(p, mask8(live))
            }
        }
        // SAFETY: callers must ensure what `Lanes::store` requires, on a CPU
        // that runs AVX2.
        #[inline(always)]
        unsafe fn store(self, p: *mut f32, live: usize) {
            if live >= 8 {
                _mm256_storeu_ps(p, self)
            } else {
                _mm256_maskstore_ps(p, mask8(live), self)
            }
        }

        intrinsics! {
            fn splat(x: f32) -> Self { _mm256_set1_ps(x) }
            fn mul_add(self, b: Self, c: Self) -> Self { _mm256_fmadd_ps(self, b, c) }
            fn add(self, b: Self) -> Self { _mm256_add_ps(self, b) }
            fn sub(self, b: Self) -> Self { _mm256_sub_ps(self, b) }
            fn mul(self, b: Self) -> Self { _mm256_mul_ps(self, b) }
            fn div(self, b: Self) -> Self { _mm256_div_ps(self, b) }
            fn min(self, b: Self) -> Self { _mm256_min_ps(self, b) }
            fn max(self, b: Self) -> Self { _mm256_max_ps(self, b) }
            fn floor(self) -> Self { _mm256_floor_ps(self) }
            fn pow2(self) -> Self {
                let e = _mm256_add_epi32(_mm256_cvttps_epi32(self), _mm256_set1_epi32(127));
                _mm256_castsi256_ps(_mm256_slli_epi32::<23>(e))
            }
            fn neg(self) -> Self { _mm256_xor_ps(self, _mm256_set1_ps(-0.0)) }
            fn abs(self) -> Self { _mm256_andnot_ps(_mm256_set1_ps(-0.0), self) }
            fn copysign(self, sign: Self) -> Self {
                let bit = _mm256_set1_ps(-0.0);
                _mm256_or_ps(_mm256_andnot_ps(bit, self), _mm256_and_ps(bit, sign))
            }
            fn reduce(self) -> f32 {
                let s = _mm_add_ps(_mm256_castps256_ps128(self), _mm256_extractf128_ps::<1>(self));
                let s = _mm_add_ps(s, _mm_movehl_ps(s, s)); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7), ..]
                _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps::<1>(s, s)))
            }
        }
    }

    impl Lanes for __m512 {
        const N: usize = 16;
        const BAND: usize = 8;

        // SAFETY: callers must ensure what `Lanes::load` requires, on a CPU
        // that runs AVX-512F.
        #[inline(always)]
        unsafe fn load(p: *const f32, live: usize) -> Self {
            _mm512_maskz_loadu_ps(mask16(live), p)
        }
        // SAFETY: callers must ensure what `Lanes::store` requires, on a CPU
        // that runs AVX-512F.
        #[inline(always)]
        unsafe fn store(self, p: *mut f32, live: usize) {
            _mm512_mask_storeu_ps(p, mask16(live), self)
        }

        intrinsics! {
            fn splat(x: f32) -> Self { _mm512_set1_ps(x) }
            fn mul_add(self, b: Self, c: Self) -> Self { _mm512_fmadd_ps(self, b, c) }
            fn add(self, b: Self) -> Self { _mm512_add_ps(self, b) }
            fn sub(self, b: Self) -> Self { _mm512_sub_ps(self, b) }
            fn mul(self, b: Self) -> Self { _mm512_mul_ps(self, b) }
            fn div(self, b: Self) -> Self { _mm512_div_ps(self, b) }
            fn min(self, b: Self) -> Self { _mm512_min_ps(self, b) }
            fn max(self, b: Self) -> Self { _mm512_max_ps(self, b) }
            fn floor(self) -> Self {
                _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(self)
            }
            fn pow2(self) -> Self {
                let e = _mm512_add_epi32(_mm512_cvttps_epi32(self), _mm512_set1_epi32(127));
                _mm512_castsi512_ps(_mm512_slli_epi32::<23>(e))
            }
            fn neg(self) -> Self {
                let bit = _mm512_set1_epi32(i32::MIN);
                _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(self), bit))
            }
            fn abs(self) -> Self { _mm512_abs_ps(self) }
            fn copysign(self, sign: Self) -> Self {
                let bit = _mm512_set1_epi32(i32::MIN);
                let m = _mm512_andnot_si512(bit, _mm512_castps_si512(self));
                _mm512_castsi512_ps(_mm512_or_si512(m, _mm512_and_si512(bit, _mm512_castps_si512(sign))))
            }
            // The upper 8 lanes folded onto the lower, then the 8-lane tree.
            fn reduce(self) -> f32 {
                let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(self)));
                _mm256_add_ps(_mm512_castps512_ps256(self), hi).reduce()
            }
        }
    }

    /// Lanes `l < live` on.
    #[inline(always)]
    fn mask16(live: usize) -> __mmask16 {
        ((1u32 << live.min(16)) - 1) as __mmask16
    }

    // SAFETY: callers must ensure AVX2+FMA are supported (the dispatch
    // gates on `avx2_available`) and bound every copy:
    // `koff[t] + from + 8 <= x.len()` and `t·len + to + 8 <= col.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn im2col(
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
    // gates on `avx2_available`), every run inside its panel row,
    // `col.len() >= 3·kbase.len()·len + 8` and
    // `g.len() >= kbase[j] + s.pad + s.len + 2 + 8` for every kernel row `j`
    // and run `s` (asserted by the safe `Kernels::col2im` entry point). A
    // vector at `q < s.len + 2` then ends inside `g`, and the tap-`i` load
    // at `3j·len + i·len + s.col + q - i` starts at or after `col[0]` (as
    // `len >= 1`) and ends inside `col`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn col2im3(
        g: &mut [f32],
        col: &[f32],
        kbase: &[usize],
        segs: &[Seg],
        len: usize,
    ) {
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
                        let mut dot = [0.0f32];
                        kern.gemm_a_bt_rows(&mut dot, &a[..k], &b[..k], k, 1);
                        (c, dot)
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
            let s = sigmoid([x; 8])[0];
            let s_ref = 1.0 / (1.0 + (-x as f64).exp());
            assert!((s as f64 - s_ref).abs() < 2e-7, "sigmoid({x}): {s} vs {s_ref}");
            let t = tanh([x; 8])[0];
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
        let mut dot = [f32::NAN];
        kern.gemm_a_bt_rows(&mut dot, &[], &[], 0, 1);
        assert_eq!(dot, [0.0]);
    }

    /// Row dots read through raw pointers, so a short operand must panic
    /// in release builds too, never read past its slice.
    #[test]
    #[should_panic(expected = "gemm_a_bt_rows: b is [n, k]")]
    fn gemm_a_bt_rows_rejects_a_short_operand() {
        let (rows, k, n) = (4, 64, 4);
        let mut c = vec![0.0f32; rows * n];
        Kernels::get().gemm_a_bt_rows(&mut c, &vec![1.0; rows * k], &[1.0; 8], k, n);
    }
}
