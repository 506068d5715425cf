//! The source paper's point optimizations as two-sided ratios, timed by one
//! std-only probe.
//!
//! For each entry of [`ENTRIES`] the probe calibrates one repetition count
//! so that a sample of the fast side lasts at least a target time, takes
//! the median of k samples per side, alternating which side runs first, and
//! logs per-call seconds for both sides and their ratio next to the paper's
//! claim ("—" where it states none). Ratios are reported, not gated:
//! timings compare machines. Each entry's doc names the tier-1 test proving
//! its two sides compute the same result, or says why they differ.
//!
//! Run: `cargo bench -p etalumis-bench --bench ratios -- [--quick] [--json]`
//! (`--quick`: fewer samples, smaller streaming run; `--json`: one JSON line
//! per ratio on stdout). `crates/bench/RATIOS.jsonl` is one full run.

use etalumis_bench::{bench_ic_config, bench_tau_model, scratch_dir, tau_records, Logger};
use etalumis_core::{FnProgram, ObserveMap, SimCtx, SimCtxExt};
use etalumis_data::{BucketerConfig, ShardReader, ShardWriter, TraceChannel, TraceRecord};
use etalumis_distributions::mvn::{mvn3_diag_log_pdf, mvn3_log_pdf, MvnGeneric};
use etalumis_distributions::{Distribution, Value};
use etalumis_nn::{Adam, LrSchedule};
use etalumis_ppx::address::{CachedResolver, SymbolResolver};
use etalumis_ppx::{InProcMuxEndpoint, InProcTransport, MuxEndpoint, RemoteModel, SimulatorServer};
use etalumis_runtime::{
    Backend, BatchRunner, CountingSink, DatasetGenConfig, MuxSimulatorPool, PriorProposerFactory,
    RunPlan, RuntimeConfig, SimulatorPool,
};
use etalumis_simulators::{
    BranchingModel, Detector, DetectorConfig, IncomingParticle, ParticleKind,
};
use etalumis_telemetry::Telemetry;
use etalumis_tensor::conv::{conv3d_blocked, conv3d_naive};
use etalumis_tensor::{Conv3dSpec, Tensor};
use etalumis_train::{
    accumulate_minibatch, sub_minibatches, AllReduceCtx, AllReduceStrategy, IcConfig, IcNetwork,
    Records, TrainPlan, Trainer,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One side of a ratio: a call whose result is black-boxed.
type Side = Box<dyn FnMut()>;

/// A two-sided comparison: `slow` is the baseline, `fast` the optimization.
struct Entry {
    name: &'static str,
    paper: &'static str,
    slow: Side,
    fast: Side,
}

impl Entry {
    /// An entry whose two sides read one workload; each call's result is
    /// black-boxed.
    fn shared<T: 'static, R: 'static>(
        name: &'static str,
        paper: &'static str,
        data: T,
        slow: fn(&T) -> R,
        fast: fn(&T) -> R,
    ) -> Entry {
        let data = Rc::new(data);
        let fast_data = Rc::clone(&data);
        Entry {
            name,
            paper,
            slow: Box::new(move || drop(black_box(slow(&data)))),
            fast: Box::new(move || drop(black_box(fast(&fast_data)))),
        }
    }
}

/// Every ratio the probe reports, in report order; each builder takes `quick`.
const ENTRIES: [fn(bool) -> Entry; 15] = [
    conv3d_layer1,
    conv3d_layer3,
    pdf_scalar3d,
    pdf_diag,
    detector_pipeline,
    address_cache,
    allreduce_sparse,
    allreduce_concat,
    trace_io,
    subminibatch,
    ppx_one_blocking_conn,
    ppx_eight_blocking_threads,
    streaming,
    telemetry_calls,
    telemetry_runner,
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (samples, target_ms) = if quick { (3, 1) } else { (11, 10) };
    let log = Logger::from_args();
    for build in ENTRIES {
        let mut e = build(quick);
        let [slow, fast] = measure(&mut e, samples, Duration::from_millis(target_ms));
        log.speedup(e.name, slow, fast, e.paper);
    }
}

/// Median per-call seconds of (slow, fast) over `samples` alternating
/// samples of one calibrated repetition count.
fn measure(e: &mut Entry, samples: usize, target: Duration) -> [f64; 2] {
    (e.slow)();
    let mut reps = 1;
    while time(&mut e.fast, reps) < target {
        reps *= 2;
    }
    let sides = [&mut e.slow, &mut e.fast];
    let mut t = [vec![], vec![]];
    for i in 0..samples {
        for s in [i % 2, 1 - i % 2] {
            t[s].push(time(sides[s], reps));
        }
    }
    t.map(|mut v: Vec<Duration>| {
        v.sort();
        v[samples / 2].as_secs_f64() / reps as f64
    })
}

fn time(side: &mut Side, reps: u32) -> Duration {
    let t0 = Instant::now();
    for _ in 0..reps {
        side();
    }
    t0.elapsed()
}

fn conv3d_pair(name: &'static str, spec: Conv3dSpec, x: Tensor, w: Tensor) -> Entry {
    let b = vec![0.0f32; spec.out_c];
    Entry::shared(
        name,
        "8x",
        (x, w, b, spec),
        |(x, w, b, spec)| conv3d_naive(black_box(x), w, b, spec),
        |(x, w, b, spec)| conv3d_blocked(black_box(x), w, b, spec),
    )
}

/// §4.4.2: the observation encoder's first layer on the paper's 20×35×35
/// voxels. Same result: `conv::tests::blocked_matches_naive` against the
/// `conv3d_naive` oracle (etalumis-tensor).
fn conv3d_layer1(_quick: bool) -> Entry {
    conv3d_pair(
        "conv3d layer 1 (1->64 on 20x35x35): naive -> blocked",
        Conv3dSpec { in_c: 1, out_c: 64, k: 3, pad: 1 },
        Tensor::from_fn(&[1, 1, 20, 35, 35], |i| ((i * 31) % 17) as f32 * 0.1),
        Tensor::from_fn(&[64, 1, 3, 3, 3], |i| ((i * 7) % 13) as f32 * 0.01 - 0.06),
    )
}

/// §4.4.2: a mid-stack layer on the pooled volume, where the GEMM has the
/// most reuse per im2col row. Same result: as [`conv3d_layer1`].
fn conv3d_layer3(_quick: bool) -> Entry {
    conv3d_pair(
        "conv3d layer 3 (64->64 on 10x17x17): naive -> blocked",
        Conv3dSpec { in_c: 64, out_c: 64, k: 3, pad: 1 },
        Tensor::from_fn(&[1, 64, 10, 17, 17], |i| ((i * 13) % 11) as f32 * 0.05),
        Tensor::from_fn(&[64, 64, 3, 3, 3], |i| ((i * 3) % 19) as f32 * 0.005 - 0.04),
    )
}

/// The 3D normal every PDF side evaluates: its mean, its covariance's
/// upper triangle, and its diagonal.
const MEAN: [f64; 3] = [4.0, 17.0, 17.0];
const COV_UT: [f64; 6] = [4.0, 0.0, 0.0, 2.6, 0.0, 2.6];
const VAR: [f64; 3] = [4.0, 2.6, 2.6];

/// 512 evaluation points and the generic path's distribution. Each side
/// reads its parameters through `black_box` per point, as in a simulator
/// whose normals differ per deposit: otherwise the compiler folds a scalar
/// path's determinant and logarithms into constants.
type PdfWorkload = (Vec<[f64; 3]>, MvnGeneric);

fn pdf_entry(name: &'static str, paper: &'static str, fast: fn(&PdfWorkload) -> f64) -> Entry {
    let points = (0..512).map(|i| [(i % 8) as f64, ((i / 8) % 16) as f64, (i / 128) as f64]);
    let cov = vec![4.0, 0.0, 0.0, 0.0, 2.6, 0.0, 0.0, 0.0, 2.6];
    let data = (points.collect(), MvnGeneric::new(MEAN.to_vec(), cov));
    let slow: fn(&PdfWorkload) -> f64 =
        |(points, g)| points.iter().map(|p| black_box(g).log_pdf(black_box(p))).sum();
    Entry::shared(name, paper, data, slow, fast)
}

/// §4.2: general-case Cholesky MVN PDF vs the scalar 3D one, over 512
/// points. Same result: `mvn::tests::scalar3d_matches_generic`
/// (etalumis-distributions).
fn pdf_scalar3d(_quick: bool) -> Entry {
    pdf_entry("3D MVN PDF: generic Cholesky -> scalar 3D", "13x", |(points, _)| {
        let pdf = |p| mvn3_log_pdf(black_box(p), black_box(&MEAN), black_box(&COV_UT));
        points.iter().map(pdf).sum()
    })
}

/// The diagonal-covariance 3D PDF the detector uses, beyond the paper's
/// scalar 3D kernel. Same result: `mvn::tests::diag_matches_general`.
fn pdf_diag(_quick: bool) -> Entry {
    pdf_entry("3D MVN PDF: generic Cholesky -> scalar 3D diagonal", "—", |(points, _)| {
        let pdf = |p| mvn3_diag_log_pdf(black_box(p), black_box(&MEAN), black_box(&VAR));
        points.iter().map(pdf).sum()
    })
}

/// §4.2: one event through the whole detector simulation, with either PDF.
/// Same result: `detector::tests::generic_and_scalar_pdf_paths_agree`
/// (etalumis-simulators).
fn detector_pipeline(_quick: bool) -> Entry {
    let particles = vec![
        IncomingParticle { kind: ParticleKind::PiCharged, energy: 20.0, dy: 0.01, dx: -0.02 },
        IncomingParticle { kind: ParticleKind::Pi0, energy: 12.0, dy: -0.01, dx: 0.015 },
        IncomingParticle { kind: ParticleKind::Electron, energy: 6.0, dy: 0.02, dx: 0.0 },
    ];
    Entry::shared(
        "detector pipeline: generic PDF -> scalar PDF",
        "1.5x",
        (Detector::new(DetectorConfig::default()), particles),
        |(det, particles)| det.simulate_generic_pdf(black_box(particles)),
        |(det, particles)| det.simulate(black_box(particles)),
    )
}

/// §4.2: 600 call stacks against a Sherpa-scale symbol table, with heavily
/// repeated frames (the same sampling call sites fire thousands of times
/// per run); the cache lives for the run, as in the paper's front end.
/// Same result: `address::tests::cached_equals_uncached` (etalumis-ppx).
fn address_cache(_quick: bool) -> Entry {
    let stacks: Vec<Vec<u64>> = (0..600)
        .map(|i| {
            let hot = (i % 25) as u64;
            vec![
                1_000 * 64,
                (2_000 + hot * 3) * 64,
                (5_000 + hot) * 64 + 7,
                (9_000 + (i % 5) as u64) * 64,
                (15_000 + hot * 2) * 64 + 13,
            ]
        })
        .collect();
    Entry::shared(
        "address strings: uncached -> cached",
        "5x",
        (SymbolResolver::synthetic(20_000, 64), stacks),
        |(table, stacks)| {
            stacks.iter().map(|s| table.resolve_stack_uncached(black_box(s)).len()).sum::<usize>()
        },
        |(table, stacks)| {
            let mut cached = CachedResolver::new(table);
            stacks.iter().map(|s| cached.resolve_stack(black_box(s)).len()).sum::<usize>()
        },
    )
}

/// Three allreduce rounds on two rank threads over gradients shaped like
/// the IC net: two big core tensors, and 400 small address tensors of which
/// each rank touched 30.
fn allreduce_side(strategy: AllReduceStrategy) -> Side {
    Box::new(move || {
        let ctx = AllReduceCtx::new(2);
        std::thread::scope(|s| {
            for rank in 0..2 {
                let ctx = &ctx;
                s.spawn(move || {
                    let mut grads = vec![vec![1.0f32; 200_000], vec![0.5f32; 50_000]];
                    grads.extend(
                        (0..400)
                            .map(|i| vec![if (i + rank * 7) % 400 < 30 { 0.1 } else { 0.0 }; 600]),
                    );
                    for _ in 0..3 {
                        let mut visit =
                            |f: &mut dyn FnMut(&mut [f32])| grads.iter_mut().for_each(|g| f(g));
                        black_box(ctx.allreduce(rank, strategy, &mut visit));
                    }
                });
            }
        });
    })
}

/// §4.4.4: reduce only the non-null gradients. Same result:
/// `allreduce::tests::strategies_agree_on_the_averaged_result`
/// (etalumis-train).
fn allreduce_sparse(_quick: bool) -> Entry {
    Entry {
        name: "allreduce, 2 ranks: dense per tensor -> sparse per tensor",
        paper: "4x",
        slow: allreduce_side(AllReduceStrategy::DensePerTensor),
        fast: allreduce_side(AllReduceStrategy::SparsePerTensor),
    }
}

/// §4.4.4: concatenate the non-null gradients into one reduction. Same
/// result: as [`allreduce_sparse`].
fn allreduce_concat(_quick: bool) -> Entry {
    Entry {
        name: "allreduce, 2 ranks: sparse per tensor -> sparse concat",
        paper: "+4% (1 node)",
        slow: allreduce_side(AllReduceStrategy::SparsePerTensor),
        fast: allreduce_side(AllReduceStrategy::SparseConcat),
    }
}

/// A scratch directory, deleted on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Write `records` under `dir` as shards of `per_shard` records each.
fn write_shards(records: &[TraceRecord], per_shard: usize, dir: &Scratch) -> Vec<PathBuf> {
    let write = |(i, chunk): (usize, &[TraceRecord])| {
        let p = dir.0.join(format!("s{per_shard}_{i:04}.etlm"));
        let mut w = ShardWriter::new(&p, true);
        chunk.iter().for_each(|r| w.push(r.clone()));
        w.finish().expect("write shard");
        p
    };
    records.chunks(per_shard).enumerate().map(write).collect()
}

/// §4.4.3: 400 τ records read one at a time in shuffled order from 20-record
/// shards, each reopened per read (a shuffle over a file-per-shelf layout),
/// against a sequential scan of 200-record shards. Same result:
/// `shard::tests::shard_roundtrip_sequential_and_random` (etalumis-data).
fn trace_io(_quick: bool) -> Entry {
    let (records, dir) = (tau_records(400, 500).expect("τ records"), Scratch(scratch_dir("io")));
    let (small, large) = (write_shards(&records, 20, &dir), write_shards(&records, 200, &dir));
    let mut order: Vec<(usize, usize)> =
        (0..small.len()).flat_map(|s| (0..20).map(move |r| (s, r))).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(1));
    Entry::shared(
        "trace I/O: shuffled reads of small shards -> sequential large shards",
        "10x",
        (small, order, large, dir),
        |(small, order, ..)| {
            let read = |&(s, r): &(usize, usize)| {
                let mut reader = ShardReader::open(&small[s]).expect("open shard");
                reader.get(r).expect("read record").entries.len()
            };
            order.iter().map(read).sum::<usize>()
        },
        |(.., large, _)| {
            let read = |p: &PathBuf| {
                let records = ShardReader::open(p).and_then(|mut r| r.read_all());
                records.expect("read shard").iter().map(|r| r.entries.len()).sum::<usize>()
            };
            large.iter().map(read).sum::<usize>()
        },
    )
}

/// §4.4.1/§4.4.3: one training step on 32 τ traces of the dominant trace
/// type, against 32 traces drawn round-robin across trace types (one
/// sub-minibatch per type). The two sides compute different work on
/// purpose: the ratio is the cost of heterogeneous minibatches.
/// `tests::dominant_trace_type_fills_a_sorted_minibatch` pins the
/// precondition that the dominant type has at least 16 traces.
fn subminibatch(_quick: bool) -> Entry {
    let records = tau_records(512, 900).expect("τ records");
    let mut net = IcNetwork::new(bench_ic_config(2));
    net.pregenerate(records.iter());
    let subs = sub_minibatches(&records);
    let sorted: Vec<TraceRecord> = subs[0].iter().take(32).map(|&r| r.clone()).collect();
    let mixed: Vec<TraceRecord> = (0..subs[0].len())
        .flat_map(|k| subs.iter().filter_map(move |sub| sub.get(k)))
        .take(32)
        .map(|&r| r.clone())
        .collect();
    let mut fast_net = net.clone();
    Entry {
        name: "training step, 32 traces: mixed trace types -> sorted single type",
        paper: "up to 50x at paper scale",
        slow: Box::new(move || {
            black_box(accumulate_minibatch(&mut net, black_box(&mixed)).loss);
        }),
        fast: Box::new(move || {
            black_box(accumulate_minibatch(&mut fast_net, black_box(&sorted)).loss);
        }),
    }
}

const TRACES: usize = 32;
const SESSIONS: usize = 8;

/// Serve, on its own thread, a simulator that spends ≈ 1 ms per trace there:
/// the time a multiplexed controller can hide.
fn spawn_simulator(mut sim_side: InProcTransport) {
    let model = FnProgram::new("slow_sim", |ctx: &mut dyn SimCtx| {
        let x = ctx.sample_f64(&Distribution::Normal { mean: 0.0, std: 1.0 }, "x");
        std::thread::sleep(Duration::from_millis(1));
        ctx.observe(&Distribution::Normal { mean: x, std: 0.5 }, "y");
        Value::Real(x)
    });
    std::thread::spawn(move || SimulatorServer::new("probe", model).serve(&mut sim_side));
}

/// One batch of `n` prior traces per call on `pool`, on a fresh seed each
/// time.
fn prior_batches<P: 'static>(
    mut pool: P,
    backend: fn(&mut P) -> Backend<'_>,
    runner: BatchRunner,
    n: usize,
) -> Side {
    let (observes, mut seed) = (ObserveMap::new(), 0);
    Box::new(move || {
        seed += 1;
        let sink = CountingSink::default();
        let stats =
            runner.run(backend(&mut pool), &PriorProposerFactory, &observes, n, seed, &sink);
        black_box(stats.total_executed());
    })
}

/// `conns` blocking PPX connections, each to a simulator thread, driven by
/// one worker thread per connection.
fn ppx_blocking(conns: usize) -> Side {
    let pool = SimulatorPool::connect_ppx(conns, |_| {
        let (controller_side, sim_side) = InProcTransport::pair();
        spawn_simulator(sim_side);
        RemoteModel::connect(controller_side, "probe")
    });
    let runner = BatchRunner::new(RuntimeConfig { workers: conns, stealing: true });
    prior_batches(pool.expect("blocking pool"), |p| Backend::Local(p), runner, TRACES)
}

/// Eight mux sessions on one reactor thread. A prior-only batch on a capable
/// session takes the seeded exchange: one round trip per trace.
fn ppx_mux() -> Side {
    let pool = MuxSimulatorPool::connect(SESSIONS, "probe", |_| {
        let (ep, sim_side) = InProcMuxEndpoint::pair();
        spawn_simulator(sim_side);
        Ok(Box::new(ep) as Box<dyn MuxEndpoint>)
    });
    let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
    prior_batches(pool.expect("mux pool"), |p| Backend::Mux(p), runner, TRACES)
}

/// §4.1's controller ↔ simulator fleet: a single per-statement blocking
/// connection against one reactor thread over eight sessions. This measures
/// latency hiding *plus* fewer round trips, since the mux side takes the
/// seeded one-frame exchange while the blocking side stays per-statement.
/// Same result: `oversub::tests::
/// single_reactor_thread_drives_eight_sessions_bit_identical_to_blocking`
/// (etalumis-runtime), over both exchanges.
fn ppx_one_blocking_conn(_quick: bool) -> Entry {
    Entry {
        name: "PPX, 32 traces of ~1 ms: 1 blocking per-statement conn -> \
               1-thread mux over 8 seeded sessions (latency hiding + 1 round trip per trace)",
        paper: "—",
        slow: ppx_blocking(1),
        fast: ppx_mux(),
    }
}

/// The thread-per-connection ceiling against the same mux reactor; both
/// overlap the simulators, so this ratio is the round trips saved and the
/// threads not spent. Same result: as [`ppx_one_blocking_conn`].
fn ppx_eight_blocking_threads(_quick: bool) -> Entry {
    Entry {
        name: "PPX, 32 traces of ~1 ms: 8 blocking per-statement threads -> \
               1-thread mux over 8 seeded sessions",
        paper: "—",
        slow: ppx_blocking(SESSIONS),
        fast: ppx_mux(),
    }
}

/// Train one rank on `records` with the plan both pipelines share.
fn train(records: Records<'_>) {
    let mut trainer = Trainer::new(
        IcNetwork::new(IcConfig::small([1, 1, 1], 11)),
        Adam::new(LrSchedule::Constant(1e-3)),
    );
    let plan = TrainPlan::stream(records, BucketerConfig { batch: 32, spill_after: 256 }, 128);
    plan.run(&mut trainer).expect("training");
}

/// §4.4 online training: generate every trace to shards and then train over
/// them, against generation and training overlapped through a bounded
/// channel (400 traces with `--quick`, else 1 500). Same result:
/// `prop_live_stream_training_equals_offline_replay` in
/// `tests/streaming_pipeline.rs` (live vs replay bit-identity).
fn streaming(quick: bool) -> Entry {
    let workers = RuntimeConfig::default().resolved_workers();
    let pool = move || SimulatorPool::from_factory(workers, |_| BranchingModel::standard());
    let cfg = DatasetGenConfig {
        n: if quick { 400 } else { 1500 },
        traces_per_shard: 500,
        partitions: 1,
        workers,
        seed: 7,
        ..Default::default()
    };
    Entry {
        name: "generate -> train: offline staged -> streaming overlapped",
        paper: "—",
        slow: Box::new(move || {
            let dir = Scratch(scratch_dir("stream"));
            let out = RunPlan::new(Backend::Local(&mut pool()), &cfg).shards(&dir.0).run();
            train(Records::Replay(&out.expect("offline generation").dataset));
        }),
        fast: Box::new(move || {
            let chan = TraceChannel::bounded(128);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let out = RunPlan::new(Backend::Local(&mut pool()), &cfg).stream(&chan).run();
                    out.expect("streaming generation");
                });
                train(Records::Channel(&chan));
            });
        }),
    }
}

/// 1 000 span + counter + gauge calls.
fn telemetry_calls_side(tel: Telemetry) -> Side {
    Box::new(move || {
        for i in 0..1000 {
            let _sp = tel.span("probe.span");
            tel.count("probe.count", black_box(i as u64));
            tel.gauge("probe.gauge", black_box(i as f64));
        }
        black_box(tel.drain().len());
    })
}

/// §5 instrumentation cost: what recording costs per call, against the
/// single branch a disabled handle takes. The sides compute different work
/// on purpose (one records, the other does not).
fn telemetry_calls(_quick: bool) -> Entry {
    Entry {
        name: "telemetry, 1000 calls: enabled -> disabled",
        paper: "—",
        slow: telemetry_calls_side(Telemetry::enabled()),
        fast: telemetry_calls_side(Telemetry::disabled()),
    }
}

/// A batch of 16 τ prior traces on a local pool of up to 4 workers.
fn telemetry_runner_side(tel: Telemetry) -> Side {
    let workers = RuntimeConfig::default().resolved_workers().min(4);
    let pool = SimulatorPool::from_factory(workers, |_| bench_tau_model());
    let runner =
        BatchRunner::new(RuntimeConfig { workers, stealing: true }).with_telemetry(tel.clone());
    let mut batch = prior_batches(pool, |p| Backend::Local(p), runner, 16);
    Box::new(move || {
        batch();
        black_box(tel.drain().len());
    })
}

/// The scheduler's instrumentation on a real pooled batch, recording
/// against off. The sides compute different work on purpose (one records
/// spans and counters, the other does not); the traces are the same.
fn telemetry_runner(_quick: bool) -> Entry {
    Entry {
        name: "telemetry, pooled batch of 16 traces: enabled -> disabled",
        paper: "—",
        slow: telemetry_runner_side(Telemetry::enabled()),
        fast: telemetry_runner_side(Telemetry::disabled()),
    }
}
