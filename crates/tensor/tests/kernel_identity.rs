//! Property tests: kernel results are bit-identical across dispatch choice
//! (AVX-512 and AVX2 vs the scalar fallback) and across serial vs
//! pooled-parallel execution, over arbitrary shapes — including
//! non-multiples of 8 and 16 and empty dims.

use etalumis_tensor::gemm::{
    matmul, matmul_a_bt, matmul_acc_into, matmul_at_b, matmul_into, row_prefix, row_prefix_len,
    row_resume,
};
use etalumis_tensor::simd::{
    available_backends, avx512_available, set_backend_override, Backend, Kernels, KC,
};
use etalumis_tensor::{activations, conv, pool, Conv3dSpec, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

/// Backend/pool toggles are process-global; tests that flip them serialize.
static KERNEL_CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64 / (1u64 << 53) as f64) as f32 * 4.0 - 2.0
    })
}

/// The backends this CPU runs, widest first; says on stderr when the
/// AVX-512 arm is not among them, so a run without it is not silent.
fn backends() -> Vec<Backend> {
    if !avx512_available() {
        eprintln!("note: no avx512f on this CPU; the Avx512 arm was not exercised");
    }
    available_backends()
}

/// Run `f` once per backend this CPU runs (scalar always) and assert each
/// result is bitwise equal to scalar's; then serial against pooled.
fn assert_backend_identical<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T, ctx: &str) {
    set_backend_override(Some(Backend::Scalar));
    let scalar = f();
    for be in backends() {
        set_backend_override(Some(be));
        let got = f();
        set_backend_override(None);
        assert_eq!(scalar, got, "scalar vs {}: {ctx}", be.name());
    }
    set_backend_override(None);
    let serial = pool::with_parallel(false, &f);
    let parallel = pool::with_parallel(true, &f);
    assert_eq!(serial, parallel, "serial vs parallel: {ctx}");
}

/// (batch, input dims) the conv identity proptest draws from: non-cubic
/// volumes, batch 1, batches above any CI pool size that split into several
/// image groups with a ragged last one (the weight-gradient reduction), and
/// voxel counts on both sides of the tile length for every `in_c` — 1 352
/// voxels is several tiles even at `in_c = 1`, 210 straddles one from
/// `in_c = 3` up, 60 never fills one.
const CONV_SWEEP: [(usize, [usize; 3]); 5] =
    [(1, [5, 6, 7]), (2, [5, 6, 7]), (19, [3, 4, 5]), (9, [5, 6, 7]), (3, [8, 13, 13])];

/// Every value's bits, with every NaN read as one value: NaN payloads may
/// differ between backends, NaN-ness may not.
fn canon(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// Output, argmax, dW, db and dX of a conv stage, NaN-canonicalised.
type StageOut = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);

/// The [`StageOut`] of one `Cnn3d` conv stage (conv + ReLU, then a 2×
/// max-pool when `pool`), from `g`, the gradient w.r.t. the stage output:
/// `fused` through the per-image kernels, else through the unfused chain of
/// allocating kernels — `conv3d_blocked → relu → maxpool3d` and
/// `maxpool3d_backward → relu_backward → conv3d_backward_{weights,data}`.
fn conv_stage(
    fused: bool,
    pool: bool,
    (x, wt, bias): (&Tensor, &Tensor, &[f32]),
    spec: &Conv3dSpec,
    g: &Tensor,
) -> StageOut {
    let s = x.shape();
    let dims = (s[2], s[3], s[4]);
    if fused {
        let epi = if pool { conv::Epilogue::ReluPool } else { conv::Epilogue::Relu };
        let (out, arg) = conv::conv3d_fused_reusing(x, wt, bias, spec, epi, Vec::new());
        let dy = if pool {
            conv::ConvGrad::ReluPool { grad: g, pooled: &out, arg: &arg }
        } else {
            conv::ConvGrad::Relu { grad: g, out: &out }
        };
        let (mut gw, mut gb) = (vec![0.0; wt.numel()], vec![0.0; spec.out_c]);
        conv::conv3d_backward_weights_acc(x, dy, spec, &mut gw, &mut gb);
        let gx = conv::conv3d_backward_data_reusing(dy, wt, spec, dims, Vec::new());
        return (canon(out.data()), arg, canon(&gw), canon(&gb), canon(gx.data()));
    }
    let y = conv::conv3d_blocked(x, wt, bias, spec);
    let r = activations::relu(&y);
    let (out, arg, gr) = if pool {
        let (p, arg) = conv::maxpool3d(&r, 2);
        let gr = conv::maxpool3d_backward(g, &arg, r.shape());
        (p, arg, gr)
    } else {
        (r, Vec::new(), g.clone())
    };
    let gy = activations::relu_backward(&y, &gr);
    let (gw, gb) = conv::conv3d_backward_weights(x, &gy, spec);
    let gx = conv::conv3d_backward_data(&gy, wt, spec, dims);
    (canon(out.data()), arg, canon(gw.data()), canon(&gb), canon(gx.data()))
}

/// Set a few values of `t`, picked by `seed`, to NaN, +inf, −inf or −0.
fn plant(t: &mut Tensor, seed: u64, specials: &[f32]) {
    let len = t.numel();
    let mut s = seed | 1;
    for &v in specials {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        t.data_mut()[(s >> 33) as usize % len] = v;
    }
}

/// `base + A·B` through the packed-panel kernel, whatever `m` is: the
/// reference the few-row unpacked path must reproduce bit for bit.
fn packed_reference(base: &[f32], a: &[f32], b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let kern = Kernels::get();
    let mut bp = Vec::new();
    kern.pack_b(b, k, n, &mut bp);
    let mut c = base.to_vec();
    kern.gemm_rows_packed(&mut c, a, &bp, k, n);
    c
}

/// The gemm driver multiplies few-row products straight off row-major B, and
/// the convolutions multiply their im2col panels the same way at any row
/// count. Over m on both sides of the driver's switch, k straddling the
/// `KC = 256` block and n with every kind of column tail, `matmul_into` /
/// `matmul_acc_into` and the row kernel itself equal the packed kernel
/// bitwise, on each backend and across them.
#[test]
fn few_row_gemm_bit_identical_to_packed_path() {
    let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
    let backends = backends();
    for m in 1usize..=8 {
        for k in [1usize, 52, 255, 256, 257, 600] {
            for n in [1usize, 7, 15, 38, 70, 129] {
                let seed = (m * 1_000_000 + k * 1_000 + n) as u64;
                let a = rand_tensor(&[m, k], seed).into_data();
                let b = rand_tensor(&[k, n], seed ^ 0xABCD).into_data();
                let base = rand_tensor(&[m, n], seed ^ 0x1234).into_data();
                let mut per_backend = Vec::new();
                for &be in &backends {
                    set_backend_override(Some(be));
                    let mut plain = vec![f32::NAN; m * n];
                    matmul_into(&a, &b, &mut plain, m, k, n);
                    let mut acc = base.clone();
                    matmul_acc_into(&a, &b, &mut acc, m, k, n);
                    let want_plain = packed_reference(&vec![0.0; m * n], &a, &b, k, n);
                    let want_acc = packed_reference(&base, &a, &b, k, n);
                    // The row kernel itself, past the driver's few-row switch:
                    // four-row blocks, leftover rows and masked column tails.
                    let mut rows = base.clone();
                    Kernels::get().gemm_rows_unpacked(&mut rows, &a, &b, k, n);
                    set_backend_override(None);
                    assert_eq!(rows, want_acc, "{be:?} gemm_rows_unpacked {m}x{k}x{n}");
                    assert_eq!(plain, want_plain, "{be:?} matmul_into {m}x{k}x{n}");
                    assert_eq!(acc, want_acc, "{be:?} matmul_acc_into {m}x{k}x{n}");
                    per_backend.push((plain, acc));
                }
                assert!(per_backend.windows(2).all(|w| w[0] == w[1]), "backends {m}x{k}x{n}");
            }
        }
    }
}

/// 0 × inf is NaN on the unpacked path too (no sparsity skip), in full
/// strips and in the column tail alike, and only where B is non-finite.
#[test]
fn few_row_gemm_propagates_non_finite() {
    let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
    let (k, n) = (3usize, 11usize);
    let a = [0.0f32, 1.0, 2.0];
    let mut b = vec![1.0f32; k * n];
    b[2] = f32::INFINITY; // row 0 (× 0.0), a full-strip column
    b[10] = f32::NEG_INFINITY; // row 0 (× 0.0), a tail column
    for be in Backend::ALL {
        set_backend_override(Some(be));
        let mut c = vec![0.0f32; n];
        matmul_into(&a, &b, &mut c, 1, k, n);
        let want = packed_reference(&vec![0.0; n], &a, &b, k, n);
        set_backend_override(None);
        for (j, (&got, &want)) in c.iter().zip(&want).enumerate() {
            assert_eq!(got.is_nan(), j == 2 || j == 10, "{be:?} column {j}: {got}");
            assert!(got == want || (got.is_nan() && want.is_nan()), "{be:?} column {j}");
        }
    }
}

/// The 16-lane arms' column tails and row bands against scalar: `n` over
/// every tail width of one and two strips and around 256, rows over every
/// band mix (8, 4 and single rows), `k` across the `KC = 256` block — for
/// the packed and the unpacked kernel, accumulating into a non-zero C.
#[test]
fn row_kernels_bit_identical_over_every_tail_and_band() {
    let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
    let backends = backends();
    let ns = (1usize..=17).chain([31, 33, 255, 257]);
    for n in ns {
        for rows in (1usize..=9).chain([17]) {
            for k in [255usize, 256, 257, 600] {
                let seed = (n * 1_000_000 + rows * 1_000 + k) as u64;
                let a = rand_tensor(&[rows, k], seed).into_data();
                let b = rand_tensor(&[k, n], seed ^ 0xABCD).into_data();
                let base = rand_tensor(&[rows, n], seed ^ 0x1234).into_data();
                let run = |be: Backend| {
                    set_backend_override(Some(be));
                    let kern = Kernels::get();
                    let (mut packed, mut unpacked) = (base.clone(), base.clone());
                    let mut bp = Vec::new();
                    kern.pack_b(&b, k, n, &mut bp);
                    kern.gemm_rows_packed(&mut packed, &a, &bp, k, n);
                    kern.gemm_rows_unpacked(&mut unpacked, &a, &b, k, n);
                    set_backend_override(None);
                    (canon(&packed), canon(&unpacked))
                };
                let scalar = run(Backend::Scalar);
                assert_eq!(scalar.0, scalar.1, "scalar packed vs unpacked {rows}x{k}x{n}");
                for &be in &backends {
                    assert_eq!(run(be), scalar, "{} {rows}x{k}x{n}", be.name());
                }
            }
        }
    }
}

/// A one-row product run in pieces — `row_prefix` over the row's leading
/// columns, `row_resume` over the rest — equals `matmul_into` over the
/// whole row bit for bit, on every backend and across them: `k` of 36, 52
/// and 324 (whose splits fall before, at and past the `KC = 256` block),
/// `n` of 256 (full strips) and 15 (a masked tail), and a row of signed
/// zeros whose every product is `-0.0`.
#[test]
fn resumed_row_chains_equal_the_one_shot_product() {
    let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
    let backends = backends();
    for k in [36usize, 52, 324] {
        for n in [256usize, 15] {
            for signed_zeros in [false, true] {
                let seed = (k * 1_000 + n) as u64 + signed_zeros as u64;
                let mut x = rand_tensor(&[1, k], seed).into_data();
                let mut b = rand_tensor(&[k, n], seed ^ 0xABCD).into_data();
                if signed_zeros {
                    x.fill(-0.0);
                    b.iter_mut().for_each(|v| *v = v.abs());
                }
                let mut splits = vec![0, 4, k - 4, k.min(KC), k];
                splits.dedup();
                for split in splits {
                    let per_backend: Vec<Vec<u32>> = backends
                        .iter()
                        .map(|&be| {
                            set_backend_override(Some(be));
                            let mut want = vec![f32::NAN; n];
                            matmul_into(&x, &b, &mut want, 1, k, n);
                            let mut state = vec![f32::NAN; row_prefix_len(split, n)];
                            row_prefix(&x[..split], &b, n, &mut state);
                            let mut got = vec![f32::NAN; n];
                            row_resume(&state, &x[split..], &b, &mut got);
                            set_backend_override(None);
                            let ctx = format!("{be:?} k={k} n={n} split={split}");
                            assert_eq!(
                                canon(&got),
                                canon(&want),
                                "{ctx} signed_zeros={signed_zeros}"
                            );
                            canon(&got)
                        })
                        .collect();
                    assert!(per_backend.windows(2).all(|w| w[0] == w[1]), "backends k={k} n={n}");
                }
            }
        }
    }
}

/// `gemm_rows_resume` continues every row's chains from a non-zero start
/// as the scalar kernel does, over every row band, column tail and a `k`
/// up to one whole `KC` block.
#[test]
fn resumed_row_kernel_bit_identical_across_backends() {
    let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
    let backends = backends();
    for n in (1usize..=17).chain([255, 256]) {
        for rows in [1usize, 3, 4, 5, 9] {
            for k in [0usize, 4, 52, KC] {
                let seed = (n * 1_000_000 + rows * 1_000 + k) as u64;
                let a = rand_tensor(&[rows, k], seed).into_data();
                let b = rand_tensor(&[k, n], seed ^ 0xABCD).into_data();
                let start = rand_tensor(&[rows, n], seed ^ 0x1234).into_data();
                let run = |be: Backend| {
                    set_backend_override(Some(be));
                    let mut acc = start.clone();
                    Kernels::get().gemm_rows_resume(&mut acc, &a, &b, k, n);
                    set_backend_override(None);
                    canon(&acc)
                };
                let scalar = run(Backend::Scalar);
                for &be in &backends {
                    assert_eq!(run(be), scalar, "{} {rows}x{k}x{n}", be.name());
                }
            }
        }
    }
}

/// The LSTM cell update — gate activations, `c ← fma(f, c, i·g)`,
/// `tanh(c)` and `h ← o·tanh(c)` — is bit for bit the scalar one on every
/// backend, over hidden sizes with and without 8- and 16-lane tails,
/// saturating pre-activations and non-finite ones.
#[test]
fn lstm_cell_bit_identical_across_backends() {
    let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
    let backends = backends();
    for hsz in [1usize, 7, 8, 15, 16, 17, 64] {
        for rows in [1usize, 3] {
            let seed = (hsz * 100 + rows) as u64;
            let mut z = rand_tensor(&[rows, 4 * hsz], seed);
            z.scale(12.0);
            plant(&mut z, seed, &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]);
            let c0 = rand_tensor(&[rows, hsz], seed ^ 0x55).into_data();
            let run = |be: Backend| {
                set_backend_override(Some(be));
                let (mut z, mut c) = (z.data().to_vec(), c0.clone());
                let (mut tanh_c, mut h) = (vec![f32::NAN; rows * hsz], vec![f32::NAN; rows * hsz]);
                Kernels::get().lstm_cell(hsz, &mut z, &mut c, &mut tanh_c, &mut h);
                set_backend_override(None);
                [canon(&z), canon(&c), canon(&tanh_c), canon(&h)]
            };
            let scalar = run(Backend::Scalar);
            for &be in &backends {
                assert_eq!(run(be), scalar, "{} hsz={hsz} rows={rows}", be.name());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_bit_identical_across_backends(
        m in 0usize..40,
        k in 0usize..70,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 0xABCD);
        assert_backend_identical(
            || matmul(&a, &b).into_data(),
            &format!("matmul {m}x{k}x{n}"),
        );
        assert_backend_identical(
            || matmul_a_bt(&a, &b.transpose2()).into_data(),
            &format!("matmul_a_bt {m}x{k}x{n}"),
        );
        assert_backend_identical(
            || matmul_at_b(&a.transpose2(), &b).into_data(),
            &format!("matmul_at_b {m}x{k}x{n}"),
        );
    }

    #[test]
    fn large_gemm_crosses_parallel_threshold(seed in 0u64..1_000_000) {
        // 96·80·96 > the 64k parallel threshold: exercises pooled chunking.
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let a = rand_tensor(&[96, 80], seed);
        let b = rand_tensor(&[80, 96], seed ^ 0x77);
        assert_backend_identical(|| matmul(&a, &b).into_data(), "large matmul");
    }

    #[test]
    fn conv3d_bit_identical_across_backends(
        c in 1usize..10,
        o in 1usize..12,
        pad in 0usize..2,
        shape in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let (n, [d, h, w]) = CONV_SWEEP[shape];
        let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad };
        let x = rand_tensor(&[n, c, d, h, w], seed);
        let wt = rand_tensor(&[o, c, 3, 3, 3], seed ^ 0x55);
        let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1).collect();
        let ctx = format!("c={c} o={o} pad={pad} n={n} dhw={d}x{h}x{w}");
        assert_backend_identical(
            || conv::conv3d_blocked(&x, &wt, &bias, &spec).into_data(),
            &format!("conv3d_blocked {ctx}"),
        );
        let gout = rand_tensor(
            &[n, o, spec.out_dim(d), spec.out_dim(h), spec.out_dim(w)],
            seed ^ 0xAA,
        );
        assert_backend_identical(
            || conv::conv3d_backward_data(&gout, &wt, &spec, (d, h, w)).into_data(),
            &format!("conv3d_backward_data {ctx}"),
        );
        assert_backend_identical(
            || {
                let (gw, gb) = conv::conv3d_backward_weights(&x, &gout, &spec);
                (gw.into_data(), gb)
            },
            &format!("conv3d_backward_weights {ctx}"),
        );
    }

    /// A fused conv stage computes bit for bit what the unfused chain of
    /// allocating kernels does — pooled values, argmax, dW, db and dX — on
    /// both backends, serial and pooled, over the conv sweep (ragged image
    /// groups, extents the pool floors: 8×13×13 → 4×6×6, 5×6×7 → 2×3×3)
    /// with non-finite voxels and weights and −0 upstream gradients, which
    /// the pool scatter turns into +0.
    #[test]
    fn fused_conv_stages_bit_identical_to_the_unfused_chain(
        c in 1usize..6,
        o in 1usize..9,
        pad in 0usize..2,
        shape in 0usize..5,
        pool: bool,
        non_finite: bool,
        seed in 0u64..1_000_000,
    ) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        let (n, [d, h, w]) = CONV_SWEEP[shape];
        let spec = Conv3dSpec { in_c: c, out_c: o, k: 3, pad };
        let out = [d, h, w].map(|e| spec.out_dim(e));
        // A pool needs two voxels on every axis.
        let pool = pool && out.iter().all(|&e| e >= 2);
        let mut x = rand_tensor(&[n, c, d, h, w], seed);
        let mut wt = rand_tensor(&[o, c, 3, 3, 3], seed ^ 0x55);
        if non_finite {
            plant(&mut x, seed, &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
            plant(&mut wt, seed ^ 0x99, &[f32::NAN, f32::INFINITY]);
        }
        let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.2 - 0.5).collect();
        let gdims = if pool { out.map(|e| e / 2) } else { out };
        let mut g = rand_tensor(&[n, o, gdims[0], gdims[1], gdims[2]], seed ^ 0xAA);
        plant(&mut g, seed ^ 0x33, &[-0.0; 6]);
        let ctx = format!("c={c} o={o} pad={pad} n={n} dhw={d}x{h}x{w} pool={pool}");
        let params = (&x, &wt, bias.as_slice());
        assert_backend_identical(
            || {
                let fused = conv_stage(true, pool, params, &spec, &g);
                assert_eq!(fused, conv_stage(false, pool, params, &spec, &g), "fused: {ctx}");
                fused
            },
            &ctx,
        );
    }

    /// Moderate inputs, then the ones `lstm_cell_bit_identical_across_backends`
    /// feeds the same exp: ×12, past both clamps, with NaN, ±∞ and −0
    /// planted — compared bit for bit, so the clamps' operand order (a NaN
    /// saturates to the upper bound) and the signs must agree too.
    #[test]
    fn activation_sweeps_bit_identical(len in 0usize..100, seed in 0u64..1_000_000) {
        let _g = KERNEL_CONFIG_LOCK.lock().unwrap();
        for scale in [4.0, 12.0] {
            let mut x = rand_tensor(&[1, len], seed);
            x.scale(scale);
            if scale > 4.0 && len > 0 {
                plant(&mut x, seed, &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]);
            }
            assert_backend_identical(
                || canon(activations::sigmoid(&x).data()),
                &format!("sigmoid x{scale} len={len}"),
            );
            assert_backend_identical(
                || canon(activations::tanh(&x).data()),
                &format!("tanh x{scale} len={len}"),
            );
        }
    }
}
