//! Blocked, runtime-dispatched GEMM built on the [`crate::simd`] micro-kernels
//! and the resident [`crate::pool`] kernel threads.
//!
//! The LSTM core and all fully connected layers reduce to these three
//! products (forward, input-gradient, weight-gradient):
//!
//! * `matmul`      — C = A·B           (`[M,K]·[K,N] → [M,N]`)
//! * `matmul_a_bt` — C = A·Bᵀ          (`[M,K]·[N,K] → [M,N]`)
//! * `matmul_at_b` — C = Aᵀ·B          (`[K,M]·[K,N] → [M,N]`)
//!
//! B is packed once per call into column panels as wide as the kernel's
//! vectors (16 floats on AVX-512 past 8 columns, else 8) and shared by all
//! worker chunks — except for products of a few rows (the B = 1 inference
//! steps), which read B where it lies through a kernel with the same
//! per-element chains, so which path ran never shows in the result;
//! `matmul_at_b` transposes A into a scratch buffer and
//! reuses the same packed kernel (which is what removes the historical
//! `if av != 0.0` sparsity skip — that skip silently turned `0 × inf` into
//! `0` instead of NaN). Parallel runs split M into fixed 32-row chunks, a
//! pure function of shape, so results are bit-identical for any thread
//! count.

use crate::pool::{self, SendPtr};
use crate::simd::{Kernels, KC};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Below this many multiply-adds we stay single-threaded: thread wakeup
/// costs more than the arithmetic.
const PAR_THRESHOLD: usize = pool::MIN_PARALLEL_WORK;

/// Fixed rows-per-task for parallel splits — part of the determinism
/// contract (chunking depends on shape only, never on thread count).
const ROWS_PER_TASK: usize = 32;

/// At or below this many rows of A — one row block of the packed
/// micro-kernel — B is multiplied where it lies instead of being packed.
/// Packing is a pass over all of B (zero-fill plus strip copy) that only pays
/// once several rows share each panel load; measured on AVX2, single thread
/// (ns per call, packed → unpacked; the m = 1 column re-measured as the
/// range of three best-of-7 runs on a busier 2-vCPU VM than the others):
///
/// | `[k, n]`     | m = 1                       | m = 4           | m = 8           |
/// |--------------|-----------------------------|-----------------|-----------------|
/// | `[52, 256]`  | 9 059–10 533 → 743–756      | 7 123 → 1 307   | 9 103 → 2 579   |
/// | `[32, 15]`   | 523–696 → 83–115            | 917 → 178       | 1 595 → 306     |
/// | `[512, 2048]`| 1.62–1.75 ms → 198–219 µs   | 1 011 µs → 246 µs | 1 153 µs → 499 µs |
///
/// (On the AVX-512 backend, same VM, m = 1: 6.0–7.1 µs → 0.54–0.62 µs,
/// 186–240 → 62–101 ns and 1.01–1.11 ms → 185–200 µs.) Through 8 rows the
/// unpacked kernel wins on every shape (its four-row blocks share each B
/// vector as the packed micro-kernel does); the pack pays once its pass
/// over B is spread over many more rows. The switch sits at one row block,
/// the B = 1 steps it exists for. An IC proposal's step goes further and
/// multiplies only the columns of its input that change ([`row_prefix`],
/// [`row_resume`]): on AVX-512, a `[52 → 64]` LSTM step fell from
/// 2.5–2.6 µs (the full row, before the vector cell update) to
/// 1.1–1.35 µs, and a paper-width `[324 → 512]` one from 292–309 µs to
/// 193–196 µs.
pub const UNPACKED_MAX_ROWS: usize = 4;

thread_local! {
    /// Packed-B panel scratch, reused across calls on this thread.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Transpose scratch for `matmul_at_b`.
    static TRANS_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// C = A·B for 2D tensors.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    gemm_driver(a.data(), b.data(), out.data_mut(), m, k, n, false);
    out
}

/// Raw GEMM into a preallocated buffer: `C[M,N] = A[M,K]·B[K,N]`.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    gemm_driver(a, b, c, m, k, n, false);
}

/// Accumulating GEMM: `C[M,N] += A[M,K]·B[K,N]` (LSTM recurrent projection,
/// gradient accumulation).
pub fn matmul_acc_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    gemm_driver(a, b, c, m, k, n, true);
}

/// C = A·Bᵀ where A is `[M,K]`, B is `[N,K]`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, k2) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul_a_bt inner dims: {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_a_bt_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Raw `C[M,N] = A[M,K]·B[N,K]ᵀ` into a preallocated buffer.
pub fn matmul_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let kern = Kernels::get();
    if m * n * k >= PAR_THRESHOLD && pool::parallel_enabled() {
        let tasks = m.div_ceil(ROWS_PER_TASK);
        let cp = SendPtr::new(c.as_mut_ptr());
        pool::run(tasks, &|t| {
            let i0 = t * ROWS_PER_TASK;
            let i1 = (i0 + ROWS_PER_TASK).min(m);
            // SAFETY: tasks write disjoint row ranges of C.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(cp.get().add(i0 * n), (i1 - i0) * n) };
            kern.gemm_a_bt_rows(chunk, &a[i0 * k..i1 * k], b, k, n);
        });
    } else {
        kern.gemm_a_bt_rows(c, a, b, k, n);
    }
}

/// C = Aᵀ·B where A is `[K,M]`, B is `[K,N]` (used for weight gradients).
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul_at_b inner dims: {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_at_b_acc_into(a.data(), b.data(), out.data_mut(), k, m, n);
    out
}

/// Accumulating raw Aᵀ·B: `C[M,N] += A[K,M]ᵀ·B[K,N]` (fused weight-gradient
/// updates). A is transposed into scratch, then the packed GEMM runs — no
/// sparsity skip, so non-finite values in B propagate correctly.
pub fn matmul_at_b_acc_into(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    assert_eq!(a.len(), k * m);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    TRANS_BUF.with(|buf| {
        let mut at = buf.borrow_mut();
        at.clear();
        at.resize(m * k, 0.0);
        for t in 0..k {
            let arow = &a[t * m..(t + 1) * m];
            for (i, &v) in arow.iter().enumerate() {
                at[i * k + t] = v;
            }
        }
        gemm_driver(&at, b, c, m, k, n, true);
    });
}

/// Shared driver: pack B, then run the micro-kernel serially or over fixed
/// row chunks on the resident pool — or, for the few-row products at or
/// below [`UNPACKED_MAX_ROWS`], multiply straight off row-major B.
/// `acc = false` zeroes C first. The backend is resolved once per call, so
/// the panel is read only by the backend that packed it (its width follows
/// the backend and `n`).
fn gemm_driver(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    if !acc {
        c.fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kern = Kernels::get();
    if m <= UNPACKED_MAX_ROWS {
        kern.gemm_rows_unpacked(c, a, b, k, n);
        return;
    }
    PACK_BUF.with(|buf| {
        let mut bp = buf.borrow_mut();
        kern.pack_b(b, k, n, &mut bp);
        if m * n * k >= PAR_THRESHOLD && pool::parallel_enabled() {
            let tasks = m.div_ceil(ROWS_PER_TASK);
            let cp = SendPtr::new(c.as_mut_ptr());
            let bp: &[f32] = &bp;
            pool::run(tasks, &|t| {
                let i0 = t * ROWS_PER_TASK;
                let i1 = (i0 + ROWS_PER_TASK).min(m);
                // SAFETY: tasks write disjoint row ranges of C.
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(cp.get().add(i0 * n), (i1 - i0) * n) };
                kern.gemm_rows_packed(chunk, &a[i0 * k..i1 * k], bp, k, n);
            });
        } else {
            kern.gemm_rows_packed(c, a, &bp, k, n);
        }
    });
}

/// Floats in a [`row_prefix`] state for a product `n` columns wide whose
/// first `t0` inner columns are known: the chains of the `KC` block that
/// column `t0` falls in, then, once `t0` is past the first block, the sums
/// of the blocks before it.
pub fn row_prefix_len(t0: usize, n: usize) -> usize {
    if t0 >= KC {
        2 * n
    } else {
        n
    }
}

/// Where the one-row product `x·B` (`b` row-major `[k, n]`) stands after
/// the leading columns `head` of `x`, written over `state`
/// ([`row_prefix_len`] floats): each output element's fused multiply-add
/// chain over `head`'s columns of the `KC` block it is in, and the sums of
/// the blocks before that one, as [`matmul_into`] adds them to its zeroed
/// C. [`row_resume`] finishes the product from it.
pub fn row_prefix(head: &[f32], b: &[f32], n: usize, state: &mut [f32]) {
    let t0 = head.len();
    let kb = t0 / KC * KC;
    assert_eq!(state.len(), row_prefix_len(t0, n), "row_prefix: state size");
    assert!(b.len() >= t0 * n, "row_prefix: B has fewer rows than the head has columns");
    let kern = Kernels::get();
    let (open, done) = state.split_at_mut(n);
    open.fill(0.0);
    kern.gemm_rows_resume(open, &head[kb..], &b[kb * n..t0 * n], t0 - kb, n);
    if kb > 0 {
        done.fill(0.0);
        kern.gemm_rows_unpacked(done, &head[..kb], &b[..kb * n], kb, n);
    }
}

/// `c = x·B` for the row `x = head ++ tail`, from `head`'s [`row_prefix`]
/// state: the open block's chains continue over `tail`'s columns and are
/// added to the earlier blocks' sums (to `+0.0` when there are none, as
/// into [`matmul_into`]'s zeroed C), then any later blocks run as in
/// `matmul_into`. Bit for bit `matmul_into(x, b, c, 1, k, n)`, with only
/// `tail`'s columns multiplied.
pub fn row_resume(state: &[f32], tail: &[f32], b: &[f32], c: &mut [f32]) {
    let n = c.len();
    if n == 0 {
        return;
    }
    let k = b.len() / n;
    assert!(tail.len() <= k, "row_resume: the tail is wider than B has rows");
    let t0 = k - tail.len();
    let end = (t0 / KC * KC + KC).min(k);
    assert_eq!(b.len(), k * n, "row_resume: B is [k, n]");
    assert_eq!(state.len(), row_prefix_len(t0, n), "row_resume: state size");
    let kern = Kernels::get();
    let (open, done) = state.split_at(n);
    c.copy_from_slice(open);
    kern.gemm_rows_resume(c, &tail[..end - t0], &b[t0 * n..end * n], end - t0, n);
    if done.is_empty() {
        for v in c.iter_mut() {
            *v += 0.0;
        }
    } else {
        for (v, &d) in c.iter_mut().zip(done) {
            *v += d;
        }
    }
    if end < k {
        kern.gemm_rows_unpacked(c, &tail[end - t0..], &b[end * n..], k - end, n);
    }
}

/// Add a bias row vector to every row of a 2D tensor.
pub fn add_bias_rows(x: &mut Tensor, bias: &[f32]) {
    let n = x.cols();
    add_bias_rows_slice(x.data_mut(), bias, n);
}

/// Slice form of [`add_bias_rows`] for arena buffers.
pub fn add_bias_rows_slice(x: &mut [f32], bias: &[f32], n: usize) {
    assert_eq!(bias.len(), n);
    for row in x.chunks_mut(n) {
        for (v, &b) in row.iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
}

/// Column-sum of a 2D tensor (bias gradients): `out[j] = Σ_i x[i,j]`.
pub fn col_sums(x: &Tensor) -> Vec<f32> {
    let n = x.cols();
    let mut out = vec![0.0f32; n];
    col_sums_acc_slice(x.data(), &mut out, n);
    out
}

/// Accumulate column sums of a row-major `[rows, n]` slice into `out`.
pub fn col_sums_acc_slice(x: &[f32], out: &mut [f32], n: usize) {
    assert_eq!(out.len(), n);
    for row in x.chunks(n) {
        for (o, &v) in out.iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{
        available_backends, avx512_available, set_backend_override, Backend, TEST_BACKEND_LOCK,
    };

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for t in 0..k {
                    acc += a.data()[i * k + t] * b.data()[t * n + j];
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        // Simple xorshift so this module does not depend on `rand`.
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
    fn matmul_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 23), (64, 64, 64)] {
            let a = rand_tensor(&[m, k], m as u64 * 131 + k as u64);
            let b = rand_tensor(&[k, n], n as u64 * 17);
            assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-5);
        }
    }

    #[test]
    fn transposed_variants_match() {
        let a = rand_tensor(&[7, 11], 1);
        let b = rand_tensor(&[11, 5], 2);
        let c = matmul(&a, &b);
        assert_close(&matmul_a_bt(&a, &b.transpose2()), &c, 1e-5);
        assert_close(&matmul_at_b(&a.transpose2(), &b), &c, 1e-5);
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Large enough to cross PAR_THRESHOLD.
        let a = rand_tensor(&[96, 80], 3);
        let b = rand_tensor(&[80, 96], 4);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn parallel_split_is_bit_identical_to_serial() {
        let a = rand_tensor(&[100, 70], 7);
        let b = rand_tensor(&[70, 90], 8);
        let products = || (matmul(&a, &b), matmul_a_bt(&a, &b.transpose2()));
        let (serial, serial_bt) = crate::pool::with_parallel(false, products);
        let (parallel, parallel_bt) = crate::pool::with_parallel(true, products);
        assert_eq!(serial.data(), parallel.data());
        assert_eq!(serial_bt.data(), parallel_bt.data());
    }

    /// Every backend this CPU runs computes each product bit for bit as
    /// the scalar one does.
    #[test]
    fn scalar_and_simd_backends_bit_identical() {
        let _g = TEST_BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if !avx512_available() {
            eprintln!("note: no avx512f on this CPU; the Avx512 arm was not exercised");
        }
        let run = |be: Backend, a: &Tensor, b: &Tensor| {
            set_backend_override(Some(be));
            let out = [
                matmul(a, b).into_data(),
                matmul_a_bt(a, &b.transpose2()).into_data(),
                matmul_at_b(&a.transpose2(), b).into_data(),
            ];
            set_backend_override(None);
            out
        };
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (5, 300, 17), (33, 64, 8), (2, 9, 260)] {
            let a = rand_tensor(&[m, k], 11);
            let b = rand_tensor(&[k, n], 12);
            let scalar = run(Backend::Scalar, &a, &b);
            for be in available_backends() {
                assert_eq!(run(be, &a, &b), scalar, "{be:?} {m}x{k}x{n} (ab, a_bt, at_b)");
            }
        }
    }

    #[test]
    fn non_finite_inputs_propagate() {
        // Regression: the old kernels skipped `av == 0.0` terms, silently
        // turning 0×inf (= NaN) into 0. The canonical kernels must not.
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
        let b = Tensor::from_vec(&[2, 2], vec![f32::INFINITY, 1.0, 2.0, 3.0]);
        let c = matmul(&a, &b);
        assert!(c.data()[0].is_nan(), "0×inf must produce NaN, got {}", c.data()[0]);
        assert_eq!(c.data()[1], 3.0);

        // Same shape through the Aᵀ·B path (old gemm.rs:71 skip).
        let at = Tensor::from_vec(&[2, 1], vec![0.0, 1.0]);
        let c2 = matmul_at_b(&at, &b);
        assert!(c2.data()[0].is_nan(), "matmul_at_b must propagate NaN");
        assert_eq!(c2.data()[1], 3.0);

        let mut c3 = vec![0.0f32; 2];
        matmul_into(a.data(), b.data(), &mut c3, 1, 2, 2);
        assert!(c3[0].is_nan(), "matmul_into must propagate NaN");
    }

    #[test]
    fn accumulating_variants_accumulate() {
        let a = rand_tensor(&[4, 6], 21);
        let b = rand_tensor(&[6, 5], 22);
        let base = rand_tensor(&[4, 5], 23);
        let mut c = base.data().to_vec();
        matmul_acc_into(a.data(), b.data(), &mut c, 4, 6, 5);
        let expect = matmul(&a, &b);
        for i in 0..c.len() {
            assert!((c[i] - (base.data()[i] + expect.data()[i])).abs() < 1e-5);
        }

        let mut cw = vec![0.5f32; 6 * 5];
        let g = rand_tensor(&[4, 5], 24);
        matmul_at_b_acc_into(a.data(), g.data(), &mut cw, 4, 6, 5);
        let expect_w = matmul_at_b(&a, &g);
        for i in 0..cw.len() {
            assert!((cw[i] - (0.5 + expect_w.data()[i])).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_and_colsum() {
        let mut x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        add_bias_rows(&mut x, &[10.0, 20.0, 30.0]);
        assert_eq!(x.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        assert_eq!(col_sums(&x), vec![25.0, 47.0, 69.0]);
    }

    #[test]
    fn empty_dims_are_safe() {
        let a = Tensor::zeros(&[0, 4]);
        let b = Tensor::zeros(&[4, 3]);
        assert_eq!(matmul(&a, &b).shape(), &[0, 3]);
        let a2 = Tensor::zeros(&[3, 0]);
        let b2 = Tensor::zeros(&[0, 2]);
        let c = matmul(&a2, &b2);
        assert!(c.data().iter().all(|&v| v == 0.0));
        assert_eq!(matmul_a_bt(&a2, &Tensor::zeros(&[5, 0])).shape(), &[3, 5]);
    }
}
