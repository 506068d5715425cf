//! `gen_local` and `gen_ppx`: prior-trace dataset production (§4.4).
//!
//! Both produce the same batch — same model, same seed, same shard layout —
//! through the same `runtime`/`data` code; only the simulator backend
//! differs: a local two-worker pool, or eight PPX sessions over loopback TCP
//! driven by one mux reactor worker. Every op regenerates the identical
//! batch, so counts repeat exactly across ops and the last op's shards can
//! be checked against a digest computed in set-up on one thread.

use crate::api::*;
use crate::driver::{Metrics, Op, Workload};
use crate::probes::{digest, ppx_probes, trace_pipeline};
use crate::spans::Recorder;
use crate::stats::median;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// Local pool workers: the sandbox has two cores.
const WORKERS: usize = 2;
/// PPX sessions, all driven by [`REACTORS`] mux reactor worker. Each session
/// spends most of a trace waiting for the other side, so eight of them keep
/// two cores busy. With two sessions the threads mostly sleep, and whether
/// the scheduler then packs them on one core or spreads them over both
/// moves the throughput by 18 % from one run to the next; with eight the two
/// placements measure the same.
const SESSIONS: usize = 8;
const REACTORS: usize = 1;
/// Traces per op. The PPX path is several times slower per trace, so its
/// batch is smaller to keep at least [`crate::driver::MIN_OPS`] ops in a run.
const N_LOCAL: usize = 3_000;
const N_PPX: usize = 300;
/// A fifteenth of the local batch, as 2 000-trace shards are of a 30 000-trace
/// production run: most shards roll inside the run, few wait for `finish`.
const TRACES_PER_SHARD: usize = 200;
/// Traces of the single-thread decomposed pass in the traced run.
const PIPELINE_TRACES: usize = 2_000;

/// The simulator side of `gen_ppx`: a `serve_listener` thread in this
/// process and the controller's mux session pool connected to it.
struct Remote {
    pool: Option<MuxSimulatorPool>,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

impl Remote {
    fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address").to_string();
        let server = std::thread::spawn(move || {
            serve_listener(listener, "e2e-sim", |_| Box::new(tau_model()) as BoxedProgram, SESSIONS)
        });
        let pool =
            MuxSimulatorPool::connect_tcp(SESSIONS, &addr, "e2e-bench").expect("connect mux pool");
        Self { pool: Some(pool), server: Some(server) }
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        // Closing the sessions lets `serve_listener` return; wait for it.
        drop(self.pool.take());
        if let Some(server) = self.server.take() {
            match server.join() {
                Ok(Ok(())) => {}
                other => eprintln!("gen_ppx: simulator server ended badly: {other:?}"),
            }
        }
    }
}

/// Sums of the `RunStats` (and mux counters) of the traced ops.
#[derive(Default)]
struct Traced {
    ops: u32,
    busy_frac: f64,
    imbalance: f64,
    steals: u64,
    retries: u64,
    failures: u64,
    mux: [u64; 4],
}

pub struct Gen<const PPX: bool> {
    cfg: DatasetGenConfig,
    dir: PathBuf,
    scratch: PathBuf,
    reference: u64,
    remote: Option<Remote>,
    last: Option<TraceDataset>,
    traced: Traced,
}

impl<const PPX: bool> Gen<PPX> {
    /// The composition `generate_dataset_parallel` / `generate_dataset_mux`
    /// perform, spelled out call by call so each gets a span and the run's
    /// `RunStats` are visible.
    fn traced_op(&mut self, rec: &mut Recorder) -> std::io::Result<TraceDataset> {
        let cfg = self.cfg;
        let observes = ObserveMap::new();
        let (sink, _) = rec.time("runtime.sink_new", || {
            ShardedTraceSink::new(&self.dir, cfg.partitions, cfg.traces_per_shard, cfg.pruned)
        });
        let stats = match &mut self.remote {
            None => {
                let (mut pool, _) = rec.time("runtime.pool_build", || {
                    SimulatorPool::from_factory(WORKERS, |_| tau_model())
                });
                let runner = BatchRunner::new(RuntimeConfig { workers: WORKERS, stealing: true });
                rec.time("runtime.run_prior", || {
                    runner.run_prior(&mut pool, &observes, cfg.n, cfg.seed, &sink)
                })
                .0
            }
            Some(remote) => {
                let pool = remote.pool.as_mut().expect("pool lives as long as the fixture");
                let tel = Telemetry::enabled();
                let runner = BatchRunner::new(RuntimeConfig { workers: REACTORS, stealing: true })
                    .with_telemetry(tel.clone());
                let (stats, _) = rec.time("runtime.run_mux_prior", || {
                    runner.run_mux_prior(pool, &observes, cfg.n, cfg.seed, &sink)
                });
                let counters = tel.collect().snapshot().counters;
                let names = ["mux.polls", "mux.frames_in", "mux.frames_out", "mux.conn_failures"];
                let now = names.map(|n| counters.get(n).copied().unwrap_or(0));
                // The same batch crosses the wire every op: frame counts
                // must repeat exactly (polls are a meter of the schedule).
                if self.traced.ops > 0 {
                    let ops = self.traced.ops as u64;
                    assert_eq!(
                        now[1] * ops,
                        self.traced.mux[1],
                        "mux.frames_in changed between ops"
                    );
                    assert_eq!(
                        now[2] * ops,
                        self.traced.mux[2],
                        "mux.frames_out changed between ops"
                    );
                }
                for (sum, v) in self.traced.mux.iter_mut().zip(now) {
                    *sum += v;
                }
                stats
            }
        };
        let t = &mut self.traced;
        let workers = stats.per_worker.len() as f64;
        let busy: f64 = stats.per_worker.iter().map(|w| w.busy.as_secs_f64()).sum();
        t.ops += 1;
        t.busy_frac += busy / (workers * stats.elapsed.as_secs_f64());
        t.imbalance += stats.imbalance();
        t.steals += stats.steals;
        t.retries += stats.retries;
        t.failures += stats.failures.len() as u64;
        let (paths, _) = rec.time("data.sink_finish", || sink.finish());
        rec.time("data.dataset_open", || TraceDataset::open(paths?)).0
    }

    fn generate(&mut self, workers: usize) -> std::io::Result<TraceDataset> {
        let cfg = DatasetGenConfig { workers, ..self.cfg };
        match &mut self.remote {
            None => generate_dataset_parallel(|_| tau_model(), &cfg, &self.dir),
            Some(remote) => {
                let pool = remote.pool.as_mut().expect("pool lives as long as the fixture");
                generate_dataset_mux(pool, &cfg, &self.dir)
            }
        }
    }

    /// One untraced generation with `workers` workers; wall seconds.
    fn timed_generate(&mut self, workers: usize) -> f64 {
        let _ = std::fs::remove_dir_all(&self.dir);
        let t0 = Instant::now();
        let ds = self.generate(workers).expect("generation");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(ds.len(), self.cfg.n);
        secs
    }
}

impl<const PPX: bool> Workload for Gen<PPX> {
    const NAME: &'static str = if PPX { "gen_ppx" } else { "gen_local" };

    fn setup(seed: u64, scratch: &Path) -> Self {
        let n = if PPX { N_PPX } else { N_LOCAL };
        let cfg = DatasetGenConfig {
            n,
            traces_per_shard: TRACES_PER_SHARD,
            partitions: 2,
            workers: if PPX { REACTORS } else { WORKERS },
            seed,
            pruned: true,
            ordered: false,
        };
        let remote = PPX.then(Remote::start);
        // What the shards must hold, computed without the runtime: trace i
        // of a batch is `sample_prior` under `mix_seed(seed, i)`.
        let mut model = tau_model();
        let reference = digest((0..n).map(|i| {
            TraceRecord::from_trace(&Executor::sample_prior(&mut model, mix_seed(seed, i)), true)
        }));
        Self {
            cfg,
            dir: scratch.join("dataset"),
            scratch: scratch.to_path_buf(),
            reference,
            remote,
            last: None,
            traced: Traced::default(),
        }
    }

    fn op(&mut self, _i: usize, rec: &mut Recorder) -> Op {
        let _ = std::fs::remove_dir_all(&self.dir);
        let open = rec.begin("gen.op");
        let t0 = Instant::now();
        let result =
            if rec.enabled() { self.traced_op(rec) } else { self.generate(self.cfg.workers) };
        let wall = t0.elapsed().as_secs_f64();
        rec.end(open);
        let n = self.cfg.n as u64;
        let delivered = match result {
            Ok(ds) => {
                let len = ds.len() as u64;
                self.last = Some(ds);
                len.min(n)
            }
            Err(e) => {
                eprintln!("{}: generation failed: {e}", Self::NAME);
                self.last = None;
                0
            }
        };
        Op { wall, traces: delivered, attempted: n, failed: n - delivered }
    }

    fn check(&mut self, rec: &mut Recorder) -> Vec<String> {
        let open = rec.begin("check.digest");
        let mut failures = Vec::new();
        match &self.last {
            None => failures.push("the last op produced no dataset".into()),
            Some(ds) => {
                if ds.len() != self.cfg.n {
                    failures.push(format!(
                        "dataset holds {} traces, expected {}",
                        ds.len(),
                        self.cfg.n
                    ));
                }
                let all: Vec<usize> = (0..ds.len()).collect();
                match ds.get_many(&all) {
                    Err(e) => failures.push(format!("reading the dataset back: {e}")),
                    Ok(records) => {
                        let got = digest(&records);
                        if got != self.reference {
                            failures.push(format!(
                                "record digest {got:#x} differs from the single-thread reference {:#x}",
                                self.reference
                            ));
                        }
                    }
                }
            }
        }
        if self.traced.failures > 0 {
            failures.push(format!("RunStats::failures listed {} traces", self.traced.failures));
        }
        rec.end(open);
        failures
    }

    fn layers(&mut self, rec: &mut Recorder, op_wall_p50: f64, m: &mut Metrics) {
        let n = self.cfg.n as f64;
        let ops = self.traced.ops.max(1) as f64;
        let t = &self.traced;
        m.insert("runtime.worker_busy_frac", t.busy_frac / ops);
        m.insert("runtime.imbalance", t.imbalance / ops);
        m.insert("runtime.steals", t.steals as f64 / ops);
        m.insert("runtime.retries", t.retries as f64 / ops);
        m.insert("runtime.failures", t.failures as f64 / ops);
        let open_us = rec.total_secs("data.dataset_open") * 1e6 / (ops * n);
        m.insert("data.dataset_open_us", open_us);
        if PPX {
            let [polls, frames_in, frames_out, conn_failures] = t.mux.map(|v| v as f64 / ops);
            m.insert("ppx.mux_polls_per_msg", polls / (frames_in + frames_out));
            m.insert("ppx.mux_frames_in", frames_in);
            m.insert("ppx.mux_frames_out", frames_out);
            m.insert("ppx.conn_failures", conn_failures);
        }
        // The simulator server's reactor polls while idle: stop it before
        // timing anything on one thread.
        self.remote = None;

        let p = trace_pipeline(rec, self.cfg.seed, PIPELINE_TRACES, &self.scratch);
        p.report_trace(m);
        p.report_data(m);
        let op_us_per_trace = op_wall_p50 * 1e6 / n;
        if PPX {
            ppx_probes(rec, self.cfg.seed, PIPELINE_TRACES / 4, p.sim_us + p.record_us, m);
            // The same batch on the local pool, in this run: what the PPX
            // boundary adds per trace.
            let (local_s, _) = rec.time("gen.local_reference", || {
                median(&[(); 5].map(|()| self.timed_generate(WORKERS)))
            });
            m.insert("ppx.overhead_us_per_trace", op_us_per_trace - local_s * 1e6 / n);
        } else {
            // Closes by construction: workers × wall ÷ N = the per-trace
            // components the workers share + workers × the serial
            // `TraceDataset::open` (all of them wait for it) + this residual.
            let workers = WORKERS as f64;
            let components = p.per_trace_us() + workers * open_us;
            m.insert("runtime.overhead_us_per_trace", workers * op_us_per_trace - components);
            let (one_worker_s, _) =
                rec.time("gen.one_worker", || median(&[(); 3].map(|()| self.timed_generate(1))));
            m.insert("runtime.scaling_eff_2w", one_worker_s / (workers * op_wall_p50));
        }
    }
}
