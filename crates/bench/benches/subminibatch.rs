//! §4.4.1 / §4.4.3 ablation: sorted vs shuffled minibatches.
//!
//! Paper: "minibatches containing more than one trace type do not allow for
//! effective parallelization and vectorization"; sorting traces and
//! chunking them into (mostly) single-type minibatches "significantly
//! improves the training speed (up to 50× in our experiments)". We time one
//! training step on a single-type minibatch against the same number of
//! traces spread over many types (forcing one sub-minibatch per type).

use criterion::{criterion_group, criterion_main, Criterion};
use etalumis_bench::{bench_ic_config, tau_records};
use etalumis_train::{accumulate_minibatch, sub_minibatches, IcNetwork};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("subminibatch");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    let records = tau_records(512, 900);
    let mut net = IcNetwork::new(bench_ic_config(2));
    net.pregenerate(records.iter());
    // Sorted-world minibatch: 32 traces of the most common trace type.
    let subs = sub_minibatches(&records);
    let dominant: Vec<_> = subs[0].iter().map(|r| (*r).clone()).take(32).collect();
    assert!(dominant.len() >= 16, "need a dominant trace type");
    // Shuffled-world minibatch: 32 traces drawn across types (round-robin
    // over the sub-minibatch groups maximizes heterogeneity).
    let mut mixed = Vec::new();
    let mut k = 0;
    'outer: loop {
        for sub in &subs {
            if let Some(r) = sub.get(k) {
                mixed.push((*r).clone());
                if mixed.len() == 32 {
                    break 'outer;
                }
            }
        }
        k += 1;
        if k > records.len() {
            break;
        }
    }
    let n_types = sub_minibatches(&mixed).len();
    println!("mixed minibatch spans {n_types} trace types; sorted spans 1");
    group.bench_function("sorted_single_type_step", |b| {
        b.iter(|| {
            let res = accumulate_minibatch(&mut net, black_box(&dominant));
            black_box(res.loss)
        })
    });
    group.bench_function("shuffled_multi_type_step", |b| {
        b.iter(|| {
            let res = accumulate_minibatch(&mut net, black_box(&mixed));
            black_box(res.loss)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
