//! §4.4.4 ablation: gradient allreduce strategies across rank threads.
//!
//! Paper: "changing Etalumis to reduce only the non-null gradients gives a
//! **4× improvement in allreduce time**. Tensor concatenation improves
//! overall performance by an additional 4% on one node" (growing with rank
//! count). The workload mirrors the IC network: many small address-specific
//! tensors of which each rank touched only a few, plus large shared-core
//! tensors.

use criterion::{criterion_group, criterion_main, Criterion};
use etalumis_train::{AllReduceCtx, AllReduceStrategy};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Build a gradient set shaped like the IC net: 2 big core tensors + many
/// small per-address tensors, only `active` of which are non-null per rank.
fn make_grads(rank: usize, n_small: usize, active: usize) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(n_small + 2);
    out.push(vec![1.0f32; 200_000]); // LSTM core
    out.push(vec![0.5f32; 50_000]); // CNN
    for i in 0..n_small {
        let on = (i + rank * 7) % n_small < active;
        out.push(vec![if on { 0.1 } else { 0.0 }; 600]);
    }
    out
}

fn run_strategy(strategy: AllReduceStrategy, iters: usize) {
    let ctx = Arc::new(AllReduceCtx::new(2));
    std::thread::scope(|s| {
        for rank in 0..2 {
            let ctx = Arc::clone(&ctx);
            s.spawn(move || {
                let mut grads = make_grads(rank, 400, 30);
                for _ in 0..iters {
                    let mut visit =
                        |f: &mut dyn FnMut(&mut [f32])| grads.iter_mut().for_each(|g| f(g));
                    black_box(ctx.allreduce(rank, strategy, &mut visit));
                }
            });
        }
    });
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    group.bench_function("dense_per_tensor", |b| {
        b.iter(|| run_strategy(AllReduceStrategy::DensePerTensor, 3))
    });
    group.bench_function("sparse_per_tensor", |b| {
        b.iter(|| run_strategy(AllReduceStrategy::SparsePerTensor, 3))
    });
    group.bench_function("sparse_concat", |b| {
        b.iter(|| run_strategy(AllReduceStrategy::SparseConcat, 3))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
