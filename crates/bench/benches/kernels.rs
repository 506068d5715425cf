//! Raw kernel throughput: GEMM and Conv3d GFLOP/s per backend.
//!
//! The compute spine of training is the blocked GEMM (LSTM + dense layers)
//! and the Conv3d lowered onto it (observation encoder: forward,
//! backward-data and backward-weights as tiled im2col products). This bench
//! times each kernel under every dispatch choice — scalar fallback, AVX2+FMA
//! (when the host has it), and the pooled-parallel path — and snapshots
//! analytic GFLOP/s (via [`etalumis_tensor::flops`]) to `BENCH_kernels.json`
//! at the workspace root for CI to archive and gate with `perf_gate`.
//!
//! All backends produce bit-identical results (see the tensor crate's
//! `kernel_identity` proptests); this bench measures only speed.

use criterion::{criterion_group, criterion_main, Criterion};
use etalumis_tensor::conv::{conv3d_backward_data, conv3d_backward_weights, conv3d_blocked};
use etalumis_tensor::gemm::matmul;
use etalumis_tensor::simd::{avx2_available, set_backend_override, Backend};
use etalumis_tensor::{pool, Conv3dSpec, Tensor};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
    })
}

/// Time `f` for `reps` calls and return GFLOP/s given flops per call.
fn gflops(reps: usize, flops_per_call: u64, mut f: impl FnMut()) -> f64 {
    // One warmup call (page in buffers, resolve dispatch).
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    (reps as u64 * flops_per_call) as f64 / secs / 1e9
}

/// The three measured configurations: (label, backend override, parallel).
fn configs() -> Vec<(&'static str, Option<Backend>, bool)> {
    let mut v = vec![("scalar", Some(Backend::Scalar), false)];
    if avx2_available() {
        v.push(("avx2", Some(Backend::Avx2Fma), false));
        v.push(("avx2_parallel", Some(Backend::Avx2Fma), true));
    } else {
        v.push(("scalar_parallel", Some(Backend::Scalar), true));
    }
    v
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let n = if quick() { 128 } else { 256 };
    let a = rand_tensor(&[n, n], 1);
    let b = rand_tensor(&[n, n], 2);
    for (label, backend, parallel) in configs() {
        set_backend_override(backend);
        pool::set_parallel(parallel);
        group.bench_function(&format!("gemm_{n}_{label}"), |bch| {
            bch.iter(|| black_box(matmul(black_box(&a), black_box(&b))))
        });
    }
    set_backend_override(None);
    pool::set_parallel(true);
    group.finish();
}

/// The two convolutions of `Cnn3dConfig::small` on the 8×13×13 IC
/// observation (the shapes IC training runs), as (snapshot key, spec, input
/// dims).
const CONV_LAYERS: [(&str, Conv3dSpec, [usize; 3]); 2] = [
    ("conv3d_1to8", Conv3dSpec { in_c: 1, out_c: 8, k: 3, pad: 1 }, [8, 13, 13]),
    ("conv3d_8to16", Conv3dSpec { in_c: 8, out_c: 16, k: 3, pad: 1 }, [4, 6, 6]),
];

/// Not a timing loop: manual throughput sweep snapshotted to
/// `BENCH_kernels.json` (GEMM and, per conv layer, forward / backward-data /
/// backward-weights GFLOP/s per backend) for CI.
fn emit_snapshot(_c: &mut Criterion) {
    let (n, reps, conv_reps) = if quick() { (128, 20, 30) } else { (256, 20, 100) };
    // A training-sized batch in both modes: fewer images than this and the
    // pooled rows time thread wake-up, not the kernel.
    let batch = 32;
    let a = rand_tensor(&[n, n], 1);
    let b = rand_tensor(&[n, n], 2);
    let gemm_flops = 2 * (n as u64).pow(3);

    let mut gemm_rows = String::new();
    // One row list per (layer, pass), filled backend by backend.
    let mut conv_rows = vec![[String::new(), String::new(), String::new()]; CONV_LAYERS.len()];
    for (i, (label, backend, parallel)) in configs().into_iter().enumerate() {
        set_backend_override(backend);
        pool::set_parallel(parallel);
        let sep = if i == 0 { "" } else { ",\n" };
        let g = gflops(reps, gemm_flops, || {
            black_box(matmul(black_box(&a), black_box(&b)));
        });
        gemm_rows.push_str(&format!("{sep}      \"{label}_gflops\": {g:.3}"));
        println!("kernels[{label}]: gemm {g:.2} GFLOP/s");
        for (&(name, spec, [d, h, w]), rows) in CONV_LAYERS.iter().zip(&mut conv_rows) {
            let x = rand_tensor(&[batch, spec.in_c, d, h, w], 3);
            let wt = rand_tensor(&[spec.out_c, spec.in_c, 3, 3, 3], 4);
            let bias = vec![0.1f32; spec.out_c];
            let gout = rand_tensor(&[batch, spec.out_c, d, h, w], 5);
            // Each pass does the forward's multiply-adds once.
            let flops = spec.flops(batch, d, h, w);
            let passes = [
                gflops(conv_reps, flops, || {
                    black_box(conv3d_blocked(black_box(&x), &wt, &bias, &spec));
                }),
                gflops(conv_reps, flops, || {
                    black_box(conv3d_backward_data(black_box(&gout), &wt, &spec, (d, h, w)));
                }),
                gflops(conv_reps, flops, || {
                    black_box(conv3d_backward_weights(black_box(&x), &gout, &spec));
                }),
            ];
            for (row, v) in rows.iter_mut().zip(passes) {
                row.push_str(&format!("{sep}        \"{label}_gflops\": {v:.3}"));
            }
            println!(
                "kernels[{label}]: {name} fwd {:.2}, bwd_data {:.2}, bwd_weights {:.2} GFLOP/s",
                passes[0], passes[1], passes[2]
            );
        }
    }
    set_backend_override(None);
    pool::set_parallel(true);

    let mut conv_json = String::new();
    for ((name, spec, [d, h, w]), [fwd, bwd_data, bwd_weights]) in
        CONV_LAYERS.iter().zip(&conv_rows)
    {
        conv_json.push_str(&format!(
            ",\n  \"{name}\": {{\n    \"in_c\": {}, \"out_c\": {}, \"dhw\": [{d}, {h}, {w}], \
             \"batch\": {batch},\n    \"fwd\": {{\n{fwd}\n    }},\n    \
             \"bwd_data\": {{\n{bwd_data}\n    }},\n    \
             \"bwd_weights\": {{\n{bwd_weights}\n    }}\n  }}",
            spec.in_c, spec.out_c,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"quick\": {},\n  \"avx2_available\": {},\n  \
         \"pool_threads\": {},\n  \"gemm\": {{\n    \"m\": {n}, \"k\": {n}, \"n\": {n},\n    \
         \"gflops\": {{\n{gemm_rows}\n    }}\n  }}{conv_json}\n}}\n",
        quick(),
        avx2_available(),
        pool::num_threads(),
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    println!("snapshot -> {}", path.display());
}

criterion_group!(benches, bench, emit_snapshot);
criterion_main!(benches);
