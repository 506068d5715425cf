//! Per-layer probes: the harness timing single public calls into one crate
//! at a time, at the shapes the workloads use. A workload's traced run calls
//! the probes of the layers on its path; together with the spans around the
//! workload's own calls they decompose its end-to-end numbers.

use crate::api::*;
use crate::driver::Metrics;
use crate::spans::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Minibatch size of the training-shape probes (and of `train_tau`).
pub const BATCH: usize = 64;

/// Mean number of controlled sample statements per record, rounded: the
/// LSTM sequence length `T` the training-shape probes use.
pub fn mean_controlled(records: &[TraceRecord]) -> usize {
    let total: usize = records.iter().map(TraceRecord::num_controlled).sum();
    (total as f64 / records.len() as f64).round() as usize
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    Tensor::from_fn(shape, |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
    })
}

/// Mean seconds per call of `f`: one warm-up call, then repeats until
/// `budget` seconds have passed (at least three).
fn secs_per_call(budget: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut reps = 0u32;
    while reps < 3 || t0.elapsed().as_secs_f64() < budget {
        f();
        reps += 1;
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

// ---------------------------------------------------------------------------
// simulators + core + data: one trace through the production pipeline
// ---------------------------------------------------------------------------

/// A `SimCtx` that draws every statement from its prior and records
/// nothing: running a model under it times the simulator alone.
struct BareCtx {
    rng: StdRng,
}

impl SimCtx for BareCtx {
    fn sample_ext(&mut self, dist: &Distribution, _: &str, _: bool, _: bool) -> Value {
        dist.sample(&mut self.rng)
    }
    fn observe(&mut self, dist: &Distribution, _: &str) -> Value {
        dist.sample(&mut self.rng)
    }
    fn tag(&mut self, _: &str, _: Value) {}
    fn push_scope(&mut self, _: &str) {}
    fn pop_scope(&mut self) {}
    fn sample_with_address(
        &mut self,
        _: &str,
        dist: &Distribution,
        _: &str,
        _: bool,
        _: bool,
    ) -> Value {
        dist.sample(&mut self.rng)
    }
    fn observe_with_address(&mut self, _: &str, dist: &Distribution, _: &str) -> Value {
        dist.sample(&mut self.rng)
    }
}

/// Per-trace cost of each stage a generated trace passes through, timed
/// stage by stage on one thread over the same `k` seeded traces.
pub struct Pipeline {
    pub sim_us: f64,
    pub record_us: f64,
    pub from_trace_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub shard_write_us: f64,
    pub bytes_per_trace: f64,
    pub samples_per_trace: f64,
    pub write_mb_s: f64,
    pub read_mb_s: f64,
}

impl Pipeline {
    /// `simulators.*` and `core.*` rows.
    pub fn report_trace(&self, m: &mut Metrics) {
        m.insert("simulators.trace_us", self.sim_us);
        m.insert("simulators.samples_per_trace", self.samples_per_trace);
        m.insert("core.record_us", self.record_us);
    }

    /// `data.*` record and shard rows.
    pub fn report_data(&self, m: &mut Metrics) {
        m.insert("data.from_trace_us", self.from_trace_us);
        m.insert("data.encode_us", self.encode_us);
        m.insert("data.decode_us", self.decode_us);
        m.insert("data.bytes_per_trace", self.bytes_per_trace);
        m.insert("data.shard_write_mb_s", self.write_mb_s);
        m.insert("data.shard_read_mb_s", self.read_mb_s);
    }

    /// Single-thread time of everything a generated trace goes through.
    pub fn per_trace_us(&self) -> f64 {
        self.sim_us + self.record_us + self.from_trace_us + self.shard_write_us
    }
}

pub fn trace_pipeline(rec: &mut Recorder, seed: u64, k: usize, scratch: &Path) -> Pipeline {
    let per = |secs: f64| secs * 1e6 / k as f64;
    let mut model = tau_model();
    let (_, bare_s) = rec.time("simulators.run_bare", || {
        for i in 0..k {
            let mut ctx = BareCtx { rng: StdRng::seed_from_u64(mix_seed(seed, i)) };
            black_box(model.run(&mut ctx));
        }
    });
    let (traces, prior_s) = rec.time("core.sample_prior", || {
        (0..k).map(|i| Executor::sample_prior(&mut model, mix_seed(seed, i))).collect::<Vec<_>>()
    });
    let (records, from_s) = rec.time("data.from_trace", || {
        traces.iter().map(|t| TraceRecord::from_trace(t, true)).collect::<Vec<_>>()
    });
    let (encoded, enc_s) = rec.time("data.encode_record", || {
        records.iter().map(|r| encode_record(r, None)).collect::<Vec<_>>()
    });
    let (_, dec_s) = rec.time("data.decode_record", || {
        for e in &encoded {
            black_box(decode_record(e, None).expect("decode what encode wrote"));
        }
    });
    let path = scratch.join("probe.etlm");
    let mut writer = ShardWriter::new(&path, true);
    for r in &records {
        writer.push(r.clone());
    }
    let (bytes, write_s) =
        rec.time("data.shard_write", || writer.finish().expect("write probe shard"));
    let (back, read_s) = rec.time("data.shard_read", || {
        ShardReader::open(&path).and_then(|mut r| r.read_all()).expect("read probe shard")
    });
    assert_eq!(back, records, "shard read back differs from what was written");
    let _ = std::fs::remove_file(&path);
    let samples: usize = traces.iter().map(Trace::len).sum();
    Pipeline {
        sim_us: per(bare_s),
        record_us: per(prior_s - bare_s),
        from_trace_us: per(from_s),
        encode_us: per(enc_s),
        decode_us: per(dec_s),
        shard_write_us: per(write_s),
        bytes_per_trace: encoded.iter().map(|e| e.len()).sum::<usize>() as f64 / k as f64,
        samples_per_trace: samples as f64 / k as f64,
        write_mb_s: bytes as f64 / 1e6 / write_s,
        read_mb_s: bytes as f64 / 1e6 / read_s,
    }
}

/// Order-independent digest of a record set: the wrapping sum of an FNV-1a
/// hash of each record's `encode_record` bytes.
pub fn digest<R: Borrow<TraceRecord>>(records: impl IntoIterator<Item = R>) -> u64 {
    records.into_iter().fold(0u64, |acc, r| {
        let h = encode_record(r.borrow(), None)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        acc.wrapping_add(h)
    })
}

// ---------------------------------------------------------------------------
// ppx: codec and blocking round trip
// ---------------------------------------------------------------------------

/// A transport that copies every message passing through it into a log.
struct Tap<T: Transport> {
    inner: T,
    log: Arc<Mutex<Vec<Message>>>,
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        self.log.lock().expect("tap log").push(msg.clone());
        self.inner.send(msg)
    }
    fn recv(&mut self) -> std::io::Result<Message> {
        let msg = self.inner.recv()?;
        self.log.lock().expect("tap log").push(msg.clone());
        Ok(msg)
    }
}

/// Codec cost over the message stream of `k` real τ traces captured from a
/// blocking `RemoteModel` on loopback TCP, and the blocking round trip:
/// (remote − local trace time) ÷ messages per trace.
pub fn ppx_probes(rec: &mut Recorder, seed: u64, k: usize, local_trace_us: f64, m: &mut Metrics) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address").to_string();
    let server = std::thread::spawn(move || {
        serve_listener(listener, "e2e-probe", |_| Box::new(tau_model()) as BoxedProgram, 2)
    });
    let run = |remote: &mut dyn ProbProgram| {
        let t0 = Instant::now();
        for i in 0..k {
            black_box(Executor::sample_prior(remote, mix_seed(seed, i)));
        }
        t0.elapsed().as_secs_f64()
    };

    let log = Arc::new(Mutex::new(Vec::new()));
    let tap = Tap { inner: TcpTransport::connect(&addr).expect("connect tap"), log: log.clone() };
    let mut tapped = RemoteModel::connect(tap, "e2e-bench").expect("handshake (tap)");
    log.lock().expect("tap log").clear();
    run(&mut tapped);
    drop(tapped);
    let stream = std::mem::take(&mut *log.lock().expect("tap log"));

    let open = rec.begin("ppx.remote_blocking");
    let mut plain =
        RemoteModel::connect(TcpTransport::connect(&addr).expect("connect"), "e2e-bench")
            .expect("handshake");
    let remote_s = run(&mut plain);
    drop(plain);
    rec.end(open);
    server.join().expect("probe server thread").expect("probe server");

    let n = stream.len() as f64;
    let (frames, enc_s) =
        rec.time("ppx.wire_frame", || stream.iter().map(wire_frame).collect::<Vec<_>>());
    let (_, dec_s) = rec.time("ppx.wire_decode", || {
        for f in &frames {
            black_box(wire_decode(&f[4..]).expect("decode what frame wrote"));
        }
    });
    let msgs_per_trace = n / k as f64;
    m.insert("ppx.msgs_per_trace", msgs_per_trace);
    m.insert(
        "ppx.bytes_per_trace",
        frames.iter().map(|f| f.len()).sum::<usize>() as f64 / k as f64,
    );
    m.insert("ppx.encode_ns_per_msg", enc_s * 1e9 / n);
    m.insert("ppx.decode_ns_per_msg", dec_s * 1e9 / n);
    m.insert("ppx.blocking_rtt_us", (remote_s * 1e6 / k as f64 - local_trace_us) / msgs_per_trace);
}

// ---------------------------------------------------------------------------
// tensor: kernels against the machine peak measured in the same run
// ---------------------------------------------------------------------------

/// Single-thread fused-multiply-add peak in GFLOP/s: ten independent
/// 8-lane accumulator chains, enough to cover the FMA latency.
fn peak_fma_gflops() -> f64 {
    const ITERS: u64 = 20_000_000;
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        #[target_feature(enable = "avx2,fma")]
        unsafe fn chains(iters: u64) -> f32 {
            use std::arch::x86_64::*;
            let mut acc = [_mm256_set1_ps(1.0); 10];
            let (a, b) = (_mm256_set1_ps(0.999_999), _mm256_set1_ps(1e-7));
            for _ in 0..iters {
                for r in acc.iter_mut() {
                    *r = _mm256_fmadd_ps(*r, a, b);
                }
            }
            let mut lanes = [0f32; 8];
            let mut sum = acc[0];
            for r in &acc[1..] {
                sum = _mm256_add_ps(sum, *r);
            }
            _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
            lanes.iter().sum()
        }
        let t0 = Instant::now();
        // SAFETY: `chains` needs AVX2 and FMA, both detected on this CPU by
        // the check above; it touches only its own locals.
        black_box(unsafe { chains(black_box(ITERS)) });
        return (ITERS * 10 * 8 * 2) as f64 / t0.elapsed().as_secs_f64() / 1e9;
    }
    // No vector FMA to measure: time plain multiply-adds instead.
    let mut acc = [1.0f32; 16];
    let t0 = Instant::now();
    for _ in 0..black_box(ITERS) {
        for r in acc.iter_mut() {
            *r = *r * 0.999_999 + 1e-7;
        }
    }
    black_box(acc);
    (ITERS * 16 * 2) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Bytes of the largest cache `cpu0` reports (32 MiB when sysfs has none).
fn last_level_cache_bytes() -> usize {
    let mut best = 0usize;
    for i in 0..8 {
        let Ok(s) =
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
        else {
            continue;
        };
        let s = s.trim();
        let (num, mult) = match s.as_bytes().last() {
            Some(b'K') => (&s[..s.len() - 1], 1 << 10),
            Some(b'M') => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        best = best.max(num.parse::<usize>().unwrap_or(0) * mult);
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Single-thread triad bandwidth (`a = b + s·c`) in GB/s over arrays of at
/// least four times the last-level cache each, counted as three streams.
fn stream_gb_s() -> f64 {
    let llc = last_level_cache_bytes();
    let n = (4 * llc).min(256 << 20) / 4;
    eprintln!("[probe] stream triad: last-level cache {llc} B, 3 arrays of {} B", n * 4);
    let (mut a, b, c) = (vec![0f32; n], vec![1f32; n], vec![2f32; n]);
    let secs = secs_per_call(0.0, || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + 3.0 * *z;
        }
        black_box(&mut a);
    });
    (3 * n * 4) as f64 / secs / 1e9
}

/// Kernel rates at the shapes of `IcConfig::small` on the τ model, with
/// `t_steps` LSTM steps per trace, against the peaks measured alongside.
pub fn tensor_probes(rec: &mut Recorder, t_steps: usize, m: &mut Metrics) {
    let open = rec.begin("tensor.probes");
    let cfg = IcConfig::small(OBS_DIMS, 0);
    let peak = peak_fma_gflops();
    let stream = stream_gb_s();
    m.insert("tensor.peak_fma_gflops", peak);
    m.insert("tensor.stream_gb_s", stream);

    // The LSTM input projection of one training sub-minibatch.
    let (rows, k, n) = (BATCH * t_steps, cfg.lstm_input(), 4 * cfg.lstm_hidden);
    let (a, b) = (rand_tensor(&[rows, k], 1), rand_tensor(&[k, n], 2));
    let flops = (2 * rows * k * n) as f64;
    let gemm = |parallel: bool| {
        kernel_pool::set_parallel(parallel);
        let s = secs_per_call(0.15, || {
            black_box(matmul(black_box(&a), black_box(&b)));
        });
        kernel_pool::set_parallel(true);
        s
    };
    let (pooled, serial) = (gemm(true), gemm(false));
    let gflops = flops / pooled / 1e9;
    let flops_per_byte = flops / (4 * (rows * k + k * n + rows * n)) as f64;
    let roof = (peak * kernel_pool::num_threads() as f64).min(stream * flops_per_byte);
    eprintln!(
        "[probe] gemm [{rows},{k}]x[{k},{n}]: {flops_per_byte:.1} flop/B (computed), {} pool threads",
        kernel_pool::num_threads()
    );
    m.insert("tensor.gemm_lstm_gflops", gflops);
    m.insert("tensor.gemm_lstm_roofline_frac", gflops / roof);
    m.insert("tensor.pool_speedup_2t", serial / pooled);
    // Its weight gradient: Xᵀ·dZ.
    let dz = rand_tensor(&[rows, n], 3);
    let s = secs_per_call(0.15, || {
        black_box(matmul_at_b(black_box(&a), black_box(&dz)));
    });
    m.insert("tensor.gemm_at_b_gflops", flops / s / 1e9);

    // First convolution of `Cnn3dConfig::small`: 1 → 8 channels, 3×3×3.
    let spec = Conv3dSpec { in_c: 1, out_c: 8, k: 3, pad: 1 };
    let [d, h, w] = OBS_DIMS;
    let x = rand_tensor(&[BATCH, 1, d, h, w], 4);
    let wt = rand_tensor(&[8, 1, 3, 3, 3], 5);
    let bias = vec![0.1f32; 8];
    let gout = rand_tensor(&[BATCH, 8, d, h, w], 6);
    let conv_flops = spec.flops(BATCH, d, h, w) as f64;
    let rate = |s: f64| conv_flops / s / 1e9;
    let s = secs_per_call(0.15, || {
        black_box(conv3d_blocked(black_box(&x), &wt, &bias, &spec));
    });
    m.insert("tensor.conv3d_fwd_gflops", rate(s));
    let s = secs_per_call(0.15, || {
        black_box(conv3d_backward_data(black_box(&gout), &wt, &spec, (d, h, w)));
    });
    m.insert("tensor.conv3d_bwd_data_gflops", rate(s));
    let s = secs_per_call(0.15, || {
        black_box(conv3d_backward_weights(black_box(&x), &gout, &spec));
    });
    m.insert("tensor.conv3d_bwd_weights_gflops", rate(s));
    rec.end(open);
}

// ---------------------------------------------------------------------------
// nn: layers at the training shape (B = 64, T = t_steps) and at B = 1
// ---------------------------------------------------------------------------

pub fn nn_probes(rec: &mut Recorder, t_steps: usize, m: &mut Metrics) {
    let open = rec.begin("nn.probes");
    let cfg = IcConfig::small(OBS_DIMS, 0);
    let mut rng = StdRng::seed_from_u64(7);
    let (input, hidden) = (cfg.lstm_input(), cfg.lstm_hidden);
    let us = |s: f64| s * 1e6;

    let mut lstm = Lstm::new(&mut rng, input, hidden, cfg.lstm_stacks);
    let xs = rand_tensor(&[t_steps * BATCH, input], 11);
    let grads: Vec<Tensor> =
        (0..t_steps).map(|t| rand_tensor(&[BATCH, hidden], 20 + t as u64)).collect();
    let (mut fwd, mut bwd) = (0.0, 0.0);
    let per_pair = secs_per_call(0.2, || {
        let mut state = lstm.begin_sequence(BATCH);
        let t0 = Instant::now();
        black_box(lstm.forward_sequence(&xs, t_steps, &mut state));
        let t1 = Instant::now();
        black_box(lstm.backward_sequence(&grads));
        fwd += (t1 - t0).as_secs_f64();
        bwd += t1.elapsed().as_secs_f64();
    });
    // Split the mean pair time in the measured forward : backward ratio.
    m.insert("nn.lstm_fwd_us", us(per_pair * fwd / (fwd + bwd)));
    m.insert("nn.lstm_bwd_us", us(per_pair * bwd / (fwd + bwd)));
    let x1 = rand_tensor(&[1, input], 12);
    let mut state = lstm.begin_sequence(1);
    let s = secs_per_call(0.1, || {
        black_box(lstm.step_inference(&x1, &mut state));
    });
    m.insert("nn.lstm_step_inference_us", us(s));

    let [d, h, w] = OBS_DIMS;
    let mut cnn = Cnn3d::new(&mut rng, cfg.cnn.clone());
    let obs = rand_tensor(&[BATCH, 1, d, h, w], 13);
    let gemb = rand_tensor(&[BATCH, cfg.cnn.embedding_dim], 14);
    let (mut fwd, mut bwd) = (0.0, 0.0);
    let per_pair = secs_per_call(0.3, || {
        let t0 = Instant::now();
        black_box(cnn.forward(&obs));
        let t1 = Instant::now();
        cnn.backward(&gemb);
        fwd += (t1 - t0).as_secs_f64();
        bwd += t1.elapsed().as_secs_f64();
    });
    m.insert("nn.cnn3d_fwd_us", us(per_pair * fwd / (fwd + bwd)));
    m.insert("nn.cnn3d_bwd_us", us(per_pair * bwd / (fwd + bwd)));
    let obs1 = rand_tensor(&[1, 1, d, h, w], 15);
    let s = secs_per_call(0.1, || {
        black_box(cnn.forward_inference(&obs1));
    });
    m.insert("nn.cnn3d_inference_us", us(s));

    // One continuous and one discrete head, as on the τ model's addresses
    // (momentum components; the 38-way decay channel).
    let mut mix = MixtureTnHead::new(&mut rng, hidden, cfg.proposal_hidden, cfg.mixture_components);
    let mut cat = CategoricalHead::new(&mut rng, hidden, cfg.proposal_hidden, 38);
    let feats = rand_tensor(&[BATCH, hidden], 16);
    let targets: Vec<f64> = (0..BATCH).map(|i| -2.0 + 4.0 * i as f64 / BATCH as f64).collect();
    let (lows, highs) = (vec![-2.5; BATCH], vec![2.5; BATCH]);
    let classes: Vec<usize> = (0..BATCH).map(|i| i % 38).collect();
    let s = secs_per_call(0.1, || {
        black_box(mix.loss_and_grad(&feats, &targets, &lows, &highs));
        black_box(cat.loss_and_grad(&feats, &classes));
    });
    m.insert("nn.heads_loss_us", us(s));
    let feat1 = rand_tensor(&[1, hidden], 17);
    let s = secs_per_call(0.1, || {
        black_box(mix.proposal(&feat1, -2.5, 2.5));
        black_box(cat.proposal(&feat1));
    });
    m.insert("nn.heads_proposal_us", us(s));

    let mut adam = Adam::new(LrSchedule::Constant(1e-3));
    let s = secs_per_call(0.1, || {
        adam.begin_step();
        lstm.visit_params("lstm", &mut |n, p| adam.update(n, p));
        cnn.visit_params("cnn", &mut |n, p| adam.update(n, p));
    });
    m.insert("nn.adam_step_us", us(s));
    rec.end(open);
}
