//! §4.4.2 ablation: naive NCDHW Conv3D vs the SIMD-friendly Conv3D.
//!
//! Paper: "the heavily used 3D convolution kernel achieved an 8x
//! improvement" from MKL-DNN's blocked layout + SIMD vectorization; here the
//! fast path is `conv3d_blocked`, tiled im2col products on the AVX2 GEMM row
//! kernels (the same per-image pass `Cnn3d` runs with bias, ReLU and the
//! max-pool fused in). The workload is the first conv layer of the
//! observation encoder on the paper's 20×35×35 voxel observations.

use criterion::{criterion_group, criterion_main, Criterion};
use etalumis_tensor::conv::{conv3d_blocked, conv3d_naive};
use etalumis_tensor::{Conv3dSpec, Tensor};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv3d");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    // Paper geometry (batch 1): Conv3D(1→64, k=3) on 20×35×35 ...
    let spec1 = Conv3dSpec { in_c: 1, out_c: 64, k: 3, pad: 1 };
    let x1 = Tensor::from_fn(&[1, 1, 20, 35, 35], |i| ((i * 31) % 17) as f32 * 0.1);
    let w1 = Tensor::from_fn(&[64, 1, 3, 3, 3], |i| ((i * 7) % 13) as f32 * 0.01 - 0.06);
    let b1 = vec![0.0f32; 64];
    group.bench_function("layer1_1to64_naive", |b| {
        b.iter(|| black_box(conv3d_naive(black_box(&x1), &w1, &b1, &spec1)))
    });
    group.bench_function("layer1_1to64_blocked", |b| {
        b.iter(|| black_box(conv3d_blocked(black_box(&x1), &w1, &b1, &spec1)))
    });
    // ... and a mid-stack layer (64→64 on the pooled volume), where the GEMM
    // has the most reuse per im2col row.
    let spec2 = Conv3dSpec { in_c: 64, out_c: 64, k: 3, pad: 1 };
    let x2 = Tensor::from_fn(&[1, 64, 10, 17, 17], |i| ((i * 13) % 11) as f32 * 0.05);
    let w2 = Tensor::from_fn(&[64, 64, 3, 3, 3], |i| ((i * 3) % 19) as f32 * 0.005 - 0.04);
    let b2 = vec![0.0f32; 64];
    group.bench_function("layer3_64to64_naive", |b| {
        b.iter(|| black_box(conv3d_naive(black_box(&x2), &w2, &b2, &spec2)))
    });
    group.bench_function("layer3_64to64_blocked", |b| {
        b.iter(|| black_box(conv3d_blocked(black_box(&x2), &w2, &b2, &spec2)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
