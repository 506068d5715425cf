//! PPX protocol microbenchmarks: codec throughput and full round-trip rate
//! through the in-process transport (Figure 1's message path).

use criterion::{criterion_group, criterion_main, Criterion};
use etalumis_core::{Executor, ObserveMap, PriorProposer};
use etalumis_distributions::{Distribution, TensorValue, Value};
use etalumis_ppx::wire::{decode, encode};
use etalumis_ppx::{InProcTransport, Message, RemoteModel, SimulatorServer};
use etalumis_simulators::BranchingModel;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol");
    group.sample_size(20).measurement_time(Duration::from_secs(3));
    // Codec: a Sample message (the hot message) and a tensor RunResult.
    let sample = Message::Sample {
        address: "tau/kinematics/frac_cut0[Uniform]".into(),
        name: "frac_cut0".into(),
        distribution: Distribution::Uniform { low: 0.0, high: 1.0 },
        control: true,
        replace: true,
    };
    group.bench_function("encode_decode_sample", |b| {
        b.iter(|| {
            let f = encode(black_box(&sample));
            black_box(decode(&f).unwrap())
        })
    });
    let tensor_msg =
        Message::RunResult { result: Value::from(TensorValue::zeros(vec![20, 35, 35])) };
    group.bench_function("encode_decode_voxel_tensor", |b| {
        b.iter(|| {
            let f = encode(black_box(&tensor_msg));
            black_box(decode(&f).unwrap())
        })
    });
    // Full protocol round trip: one prior simulator execution over inproc.
    group.bench_function("full_trace_over_inproc", |b| {
        let (ctrl, sim) = InProcTransport::pair();
        std::thread::spawn(move || {
            let mut server = SimulatorServer::new("bench", BranchingModel::standard());
            let mut t = sim;
            let _ = server.serve(&mut t);
        });
        let mut model = RemoteModel::connect(ctrl, "bench").unwrap();
        let observes = ObserveMap::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        b.iter(|| {
            let mut prior = PriorProposer;
            black_box(Executor::execute(&mut model, &mut prior, &observes, &mut rng).log_prior)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
