//! Multiplexed PPX across two OS processes.
//!
//! The parent process is the controller: one reactor thread drives eight
//! TCP sessions concurrently (`MuxSimulatorPool` + `BatchRunner::run_mux_prior`).
//! The child process is the simulator: one listener serving all eight
//! clients, each on its own blocking thread (`serve_listener`). Because
//! the child advertises seeded prior runs, each trace is one round trip:
//! the child draws it under the trace's seed and ships it whole. Swap the
//! child for a C++ simulator speaking the same wire format and nothing on
//! the controller side changes — Figure 1 of the paper, at fleet shape; a
//! front end that does not advertise the capability keeps the
//! per-statement exchange, one round trip per `sample`/`observe`/`tag`.
//!
//! It then writes a dataset through the same sessions and through a local
//! pool, and exits non-zero unless every shard file is byte-identical: the
//! controller builds each record straight from the `PriorTrace` payload,
//! the local workers straight from their executor, and the two must agree.
//!
//! Run with: `cargo run --release --example ppx_mux_clients`
//! (the binary re-executes itself with `--server` for the child process).

use etalumis_core::{BoxedProgram, Executor, ObserveMap, PriorProposer, Trace};
use etalumis_ppx::serve_listener;
use etalumis_runtime::{
    generate_dataset_mux, generate_dataset_parallel, mix_seed, BatchRunner, CollectSink,
    DatasetGenConfig, MuxSimulatorPool, RuntimeConfig,
};
use etalumis_simulators::BranchingModel;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Command, Stdio};

const SESSIONS: usize = 8;
const TRACES: usize = 64;

fn main() -> std::io::Result<()> {
    if std::env::args().any(|a| a == "--server") {
        return server_main();
    }

    // --- child process: the simulator fleet behind one listener ---
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe).arg("--server").stdout(Stdio::piped()).spawn()?;
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
    let addr = loop {
        let line = lines.next().expect("server exited before announcing its address")?;
        if let Some(rest) = line.strip_prefix("ADDR ") {
            break rest.to_string();
        }
    };
    println!("[controller] simulator process listening on {addr}");

    // --- parent process: one reactor thread, eight TCP sessions ---
    let mut pool = MuxSimulatorPool::connect_tcp(SESSIONS, &addr, "etalumis-rs")
        .map_err(std::io::Error::from)?;
    println!(
        "[controller] {} sessions handshaked, remote model: {:?}",
        pool.len(),
        pool.model_name()
    );
    let runner = BatchRunner::new(RuntimeConfig { workers: 1, stealing: true });
    let observes = ObserveMap::new();
    let sink = CollectSink::new(TRACES);
    let stats = runner.run_mux_prior(&mut pool, &observes, TRACES, 7, &sink);
    println!(
        "[controller] {} traces over {SESSIONS} sessions on 1 reactor thread in {:?} \
         ({} failures)",
        stats.total_executed(),
        stats.elapsed,
        stats.failures.len()
    );

    // Cross-process runs are bit-identical to a local serial execution of
    // the same model under the same per-trace seeds: every entry, tag,
    // result and total.
    let traces = sink.into_traces();
    let mut reference = BranchingModel::standard();
    let matching = traces
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            let r = Executor::execute_seeded(
                &mut reference,
                &mut PriorProposer,
                &observes,
                mix_seed(7, *i),
            );
            bit_equal(&r, t)
        })
        .count();
    println!("[controller] {matching}/{TRACES} traces bit-identical to local serial execution");

    // The same batch as shards, through the remote sessions and through a
    // local two-worker pool: the files must match byte for byte.
    let cfg = DatasetGenConfig {
        n: TRACES,
        traces_per_shard: 16,
        partitions: 2,
        workers: 1,
        seed: 7,
        pruned: false,
        ordered: true,
    };
    let root = std::env::temp_dir().join(format!("etalumis_mux_clients_{}", std::process::id()));
    let remote = generate_dataset_mux(&mut pool, &cfg, &root.join("mux"))?;
    let local_cfg = DatasetGenConfig { workers: 2, ..cfg };
    let local =
        generate_dataset_parallel(|_| BranchingModel::standard(), &local_cfg, &root.join("local"))?;
    let mut identical = remote.shards.len() == local.shards.len();
    for (r, l) in remote.shards.iter().zip(&local.shards) {
        identical &= r.file_name() == l.file_name() && std::fs::read(r)? == std::fs::read(l)?;
    }
    println!(
        "[controller] {} mux shards vs {} local shards: {}",
        remote.shards.len(),
        local.shards.len(),
        if identical { "byte-identical" } else { "DIFFERENT" }
    );
    std::fs::remove_dir_all(&root)?;

    drop(pool); // closes all sockets; the server process drains and exits
    let status = child.wait()?;
    println!("[controller] simulator process exited: {status}");
    if matching != TRACES || !identical || !status.success() {
        std::process::exit(1);
    }
    Ok(())
}

/// Whole-trace equality, floats compared by their bits.
fn bit_equal(a: &Trace, b: &Trace) -> bool {
    let bits = |t: &Trace| [t.log_prior, t.log_likelihood, t.log_q].map(f64::to_bits);
    a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.address == y.address
                && x.name == y.name
                && x.kind == y.kind
                && x.distribution == y.distribution
                && x.value == y.value
                && x.log_prob.to_bits() == y.log_prob.to_bits()
                && x.log_q.to_bits() == y.log_q.to_bits()
        })
        && a.tags == b.tags
        && a.result == b.result
        && bits(a) == bits(b)
}

/// The child process: serve `SESSIONS` controller connections over one
/// listener, then exit.
fn server_main() -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    println!("ADDR {}", listener.local_addr()?);
    std::io::stdout().flush()?;
    serve_listener(
        listener,
        "two-process-sim",
        |_| Box::new(BranchingModel::standard()) as BoxedProgram,
        SESSIONS,
    )
}
