//! Resident kernel thread pool with deterministic fixed chunking.
//!
//! Spawning threads per parallel call costs more than the work at kernel
//! granularity, so this pool keeps a fixed set of resident workers (spawned
//! once) and hands them atomically-claimed task indices from a shared
//! cursor.
//!
//! Dispatch has to cost less than the work it carries: a training step
//! issues dozens of jobs of a few tasks each, tens of microseconds apart.
//! So a worker that finished a job **spins** on the job sequence number for
//! [`SPIN`] before it parks on a condvar, and a caller waiting for a
//! straggler spins the same way before it sleeps; a parked worker is woken
//! only when one is parked. Waking a parked thread costs tens of
//! microseconds, more than most of the jobs it would run, and a job of
//! less work than [`MIN_PARALLEL_WORK`] runs inline ([`run_sized`]).
//!
//! A [`run`] called from inside a pool task runs **inline** on that thread
//! (a thread-local flag is set around every task), so a task may call the
//! ordinary GEMM entry points: the IC training step runs one task per
//! proposal-head address, per 32-row LSTM block and per parameter tensor,
//! and each calls the products it needs.
//!
//! Determinism contract: callers split work into **fixed-size chunks that
//! are a pure function of the problem shape** (e.g. 32 output rows per
//! task), each chunk writes a disjoint output range, and no cross-chunk
//! reduction happens inside the pool. Which thread runs which chunk is
//! scheduling noise; the numeric result is identical for any thread count —
//! including one — preserving every bit-identity contract in the repo.
//!
//! A task's panic is re-raised on the caller with its own payload, the first
//! one if several tasks panicked.
//!
//! Sizing: `ETALUMIS_KERNEL_THREADS` overrides
//! [`std::thread::available_parallelism`]. [`set_parallel`] gates the pool
//! globally (benches use it to measure serial vs parallel kernels;
//! [`with_parallel`] serializes the callers that flip it). [`take_counts`]
//! drains the jobs / inline runs / parks tally that training telemetry
//! reports.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long an idle worker, or a caller waiting for a straggler, spins
/// before it parks. Chosen by measurement (see DESIGN.md "Kernel backend").
pub const SPIN: Duration = Duration::from_micros(50);

/// Below this much work in all — multiply-adds, or elements touched — a
/// job runs inline: handing part of it to another thread costs more than it
/// saves. The GEMMs and [`run_sized`] use it.
pub const MIN_PARALLEL_WORK: usize = 64 * 1024;

static PARALLEL_ENABLED: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Set while this thread runs a pool task: a nested run goes inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Jobs handed to workers, runs done inline, and worker parks, indexed by
/// the `*_SLOT` constants.
static COUNTS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
const JOBS_SLOT: usize = 0;
const INLINE_SLOT: usize = 1;
const PARKS_SLOT: usize = 2;

fn bump(slot: usize) {
    COUNTS[slot].fetch_add(1, Ordering::Relaxed);
}

/// Pool activity since the last [`take_counts`], over every pool in the
/// process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounts {
    /// Runs handed to the resident workers.
    pub jobs: u64,
    /// Runs executed inline on the caller: nested in a task, pool disabled
    /// or single-threaded, a single task, or too little work.
    pub inline: u64,
    /// Times a worker parked on the condvar after its spin ran out.
    pub parks: u64,
}

/// Read-and-reset the pool counts (telemetry counters record deltas).
pub fn take_counts() -> PoolCounts {
    let [jobs, inline, parks] = COUNTS.each_ref().map(|c| c.swap(0, Ordering::Relaxed));
    PoolCounts { jobs, inline, parks }
}

/// Globally enable/disable parallel kernel execution (default enabled).
/// Disabled, every [`run`] executes inline on the caller.
pub fn set_parallel(enabled: bool) {
    PARALLEL_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether [`run`] may use the resident pool.
pub fn parallel_enabled() -> bool {
    PARALLEL_ENABLED.load(Ordering::Relaxed)
}

/// Run `f` with the pool gated to `enabled`, then restore the previous
/// setting (also on panic). Callers hold one process-wide lock for the
/// duration, so two of them never interleave their toggles — what a test
/// comparing serial with parallel results needs. Not reentrant.
pub fn with_parallel<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    static TOGGLE: Mutex<()> = Mutex::new(());
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_parallel(self.0);
        }
    }
    let _serial = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(parallel_enabled());
    set_parallel(enabled);
    f()
}

/// Threads the global pool uses (workers + the participating caller).
pub fn num_threads() -> usize {
    global().threads()
}

/// Run `f(task)` for every `task` in `0..n_tasks` on the global pool.
/// Inline (serial, ascending) when parallelism is disabled, the pool has a
/// single thread, there is at most one task, or the caller is itself a pool
/// task.
pub fn run(n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if parallel_enabled() {
        global().run(n_tasks, f);
    } else {
        run_inline(n_tasks, f);
    }
}

/// [`run`] for a job of `work` elementary operations in all (a function of
/// shapes), or its tasks inline in ascending order below
/// [`MIN_PARALLEL_WORK`].
pub fn run_sized(work: usize, n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if work >= MIN_PARALLEL_WORK {
        run(n_tasks, f);
    } else {
        run_inline(n_tasks, f);
    }
}

fn run_inline(n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if n_tasks > 0 {
        bump(INLINE_SLOT);
    }
    for t in 0..n_tasks {
        f(t);
    }
}

/// `task()` with this thread marked as running a pool task; a panic comes
/// back as its payload.
fn run_task(task: impl FnOnce()) -> Result<(), Box<dyn Any + Send>> {
    let outer = IN_TASK.replace(true);
    let res = catch_unwind(AssertUnwindSafe(task));
    IN_TASK.set(outer);
    res
}

/// Spin until `ready()` or [`SPIN`] has passed; returns `ready()`.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    // etalumis: allow(determinism, reason = "bounds how long an idle pool thread spins; timing never reaches a result")
    let start = Instant::now();
    let mut spins = 0u32;
    while !ready() {
        std::hint::spin_loop();
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) && start.elapsed() >= SPIN {
            return ready();
        }
    }
    true
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::with_threads(default_threads()))
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("ETALUMIS_KERNEL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 256);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Type-erased task closure published to workers. The caller blocks until
/// every task completes, so the borrow outlives all uses.
struct RawTask(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and `Pool::run` blocks until every worker
// finished with the task, so the pointer never outlives the borrow.
unsafe impl Send for RawTask {}
// SAFETY: shared access is `&dyn Fn(usize) + Sync`, which is Sync by bound.
unsafe impl Sync for RawTask {}

struct Job {
    f: RawTask,
    n: usize,
    cursor: AtomicUsize,
    completed: AtomicUsize,
    /// The first task panic's payload, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claim-and-run tasks until the cursor drains. Returns after bumping
    /// `completed` for every claimed task (even on panic, so waiters never
    /// hang).
    fn drain(&self) {
        // SAFETY: the publishing caller keeps the closure alive until
        // `completed == n`, and `drain` only runs between publish and that
        // final completion.
        let f = unsafe { &*self.f.0 };
        loop {
            let t = self.cursor.fetch_add(1, Ordering::Relaxed);
            if t >= self.n {
                return;
            }
            if let Err(payload) = run_task(|| f(t)) {
                self.panic.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(payload);
            }
            self.completed.fetch_add(1, Ordering::Release);
        }
    }

    fn done(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.n
    }
}

struct Slot {
    seq: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
    /// Workers waiting on `work_cv`: a publish notifies only when some are.
    parked: usize,
}

struct Shared {
    slot: Mutex<Slot>,
    /// `slot.seq`, readable without the lock by spinning workers.
    seq: AtomicU64,
    work_cv: Condvar,
    /// Callers asleep on `done_cv`: a finishing worker notifies only when
    /// some are.
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl Shared {
    fn lock_slot(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Under the slot lock: `update` the slot, bump the sequence number (so
    /// spinners notice) and wake any parked worker.
    fn publish(&self, update: impl FnOnce(&mut Slot)) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        update(&mut slot);
        slot.seq += 1;
        self.seq.store(slot.seq, Ordering::Release);
        // Notify while the slot lock is held: a worker that just saw a
        // stale seq cannot slip between this publish and the wakeup.
        if slot.parked > 0 {
            self.work_cv.notify_all();
        }
    }
}

/// A resident worker pool. The global instance lives for the process; local
/// instances (tests) join their workers on drop.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool using `threads` total threads: the caller plus `threads - 1`
    /// resident workers.
    pub fn with_threads(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot { seq: 0, job: None, shutdown: false, parked: 0 }),
            seq: AtomicU64::new(0),
            work_cv: Condvar::new(),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("etalumis-kernel-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn kernel pool worker") // etalumis: allow(panic-freedom, reason = "OS thread spawn failure at pool construction is unrecoverable resource exhaustion")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Total threads (resident workers + the participating caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Run `f(task)` for every task in `0..n_tasks`, caller participating.
    /// Returns once all tasks completed; a task's panic is re-raised here
    /// with its payload. Inline when there is one task, no worker, or the
    /// caller is itself a pool task.
    pub fn run(&self, n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_tasks <= 1 || self.workers.is_empty() || IN_TASK.get() {
            run_inline(n_tasks, f);
            return;
        }
        bump(JOBS_SLOT);
        // SAFETY: lifetime erasure only — `run` blocks until every task
        // completes, so the closure outlives all uses of the raw pointer.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Arc::new(Job {
            f: RawTask(f_static as *const (dyn Fn(usize) + Sync)),
            n: n_tasks,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        self.shared.publish(|slot| slot.job = Some(Arc::clone(&job)));
        // Caller participates; stragglers may still be finishing when its
        // cursor drains, so wait for the completion count.
        job.drain();
        if !spin_until(|| job.done()) {
            let mut asleep = self.shared.done.lock().unwrap_or_else(|e| e.into_inner());
            *asleep += 1;
            while !job.done() {
                asleep = self.shared.done_cv.wait(asleep).unwrap_or_else(|e| e.into_inner());
            }
            *asleep -= 1;
        }
        // Drop our slot reference if no newer job replaced it, so the
        // closure borrow can't be observed after `run` returns.
        {
            let mut slot = self.shared.lock_slot();
            if slot.job.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &job)) {
                slot.job = None;
            }
        }
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // A spinning worker sees the new seq, a parked one the notify.
        self.shared.publish(|slot| slot.shutdown = true);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_seq = 0u64;
    loop {
        // Spin for the next job before taking the lock (and maybe parking).
        spin_until(|| shared.seq.load(Ordering::Acquire) != seen_seq);
        let job = {
            let mut slot = shared.lock_slot();
            if slot.seq == seen_seq && !slot.shutdown {
                bump(PARKS_SLOT);
                slot.parked += 1;
                while slot.seq == seen_seq && !slot.shutdown {
                    slot = shared.work_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
                slot.parked -= 1;
            }
            if slot.shutdown {
                return;
            }
            seen_seq = slot.seq;
            match &slot.job {
                Some(job) if !job.done() => Arc::clone(job),
                // The job finished before this worker got to it.
                _ => continue,
            }
        };
        job.drain();
        if job.done() {
            // Check for sleepers under the done lock, so the wake can't slip
            // between a caller's `done()` check and its wait.
            let asleep = shared.done.lock().unwrap_or_else(|e| e.into_inner());
            if *asleep > 0 {
                shared.done_cv.notify_all();
            }
        }
    }
}

/// A `Send + Sync` raw pointer wrapper for handing disjoint output chunks to
/// pool tasks. Safety rests on the caller: tasks must write non-overlapping
/// ranges.
#[derive(Clone, Copy)]
pub struct SendPtr<T>(*mut T);
// SAFETY: callers hand each task a disjoint output range (documented
// contract above), so no two threads alias the same elements.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: same disjointness contract as Send — the wrapper itself is inert.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    /// The wrapped pointer. Callers must uphold the disjointness contract.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task_values(pool: &Pool, n: usize) -> Vec<u64> {
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run(n, &|t| {
            // A value depending only on the task index.
            let v = (t as u64).wrapping_mul(0x9E3779B9).rotate_left(13) | 1;
            out[t].fetch_add(v, Ordering::Relaxed);
        });
        out.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn results_invariant_to_thread_count() {
        let expected = task_values(&Pool::with_threads(1), 97);
        for threads in [2, 3, 4] {
            let pool = Pool::with_threads(threads);
            assert_eq!(task_values(&pool, 97), expected, "threads={threads}");
            // Each task ran exactly once (fetch_add would double values).
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = Pool::with_threads(3);
        for round in 0..50 {
            let counter = AtomicUsize::new(0);
            pool.run(round % 7 + 1, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), round % 7 + 1);
        }
    }

    #[test]
    fn disjoint_chunk_writes_via_sendptr() {
        let pool = Pool::with_threads(4);
        let mut data = vec![0.0f32; 1000];
        let ptr = SendPtr::new(data.as_mut_ptr());
        let chunk = 64;
        let tasks = data.len().div_ceil(chunk);
        let len = data.len();
        pool.run(tasks, &|t| {
            let lo = t * chunk;
            let hi = (lo + chunk).min(len);
            // SAFETY: tasks write disjoint ranges [lo, hi).
            let dst = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
            for (i, v) in dst.iter_mut().enumerate() {
                *v = (lo + i) as f32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as f32));
    }

    #[test]
    fn serial_helper_runs_all_tasks() {
        let counter = AtomicUsize::new(0);
        with_parallel(false, || {
            assert!(!parallel_enabled());
            run(10, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::with_threads(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|t| {
                if t == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let counter = AtomicUsize::new(0);
        pool.run(4, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    #[should_panic(expected = "target 7 out of range")]
    fn task_panic_keeps_its_message() {
        Pool::with_threads(3).run(6, &|t| {
            assert!(t != 4, "target {} out of range", t + 3);
        });
    }

    #[test]
    #[should_panic(expected = "mixture head needs support")]
    fn nested_task_panic_keeps_its_message() {
        let pool = Pool::with_threads(2);
        pool.run(4, &|outer| {
            pool.run(3, &|inner| {
                if outer == 2 && inner == 1 {
                    panic!("mixture head needs support");
                }
            });
        });
    }

    #[test]
    fn nested_run_executes_inline_on_the_task_thread() {
        for threads in [2, 3, 4] {
            let pool = Pool::with_threads(threads);
            let (outer_n, inner_n) = (6, 5);
            let cells: Vec<AtomicU64> = (0..outer_n * inner_n).map(|_| AtomicU64::new(0)).collect();
            let foreign = AtomicUsize::new(0);
            pool.run(outer_n, &|o| {
                let me = std::thread::current().id();
                pool.run(inner_n, &|i| {
                    if std::thread::current().id() != me {
                        foreign.fetch_add(1, Ordering::Relaxed);
                    }
                    cells[o * inner_n + i].fetch_add((o * 100 + i) as u64, Ordering::Relaxed);
                });
                // The global entry point nests inline too.
                run(2, &|_| {
                    if std::thread::current().id() != me {
                        foreign.fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
            assert_eq!(foreign.load(Ordering::Relaxed), 0, "threads={threads}");
            for (idx, c) in cells.iter().enumerate() {
                let (o, i) = (idx / inner_n, idx % inner_n);
                assert_eq!(c.load(Ordering::Relaxed), (o * 100 + i) as u64);
            }
            // Outside any task the flag is clear again.
            assert!(!IN_TASK.get());
        }
    }

    #[test]
    fn no_lost_wakeup_across_idle_gaps() {
        // Tiny jobs in bursts, separated by idle gaps longer than the spin
        // budget, so workers keep parking and callers keep sleeping right
        // as work arrives. A lost wakeup of a finishing straggler would
        // hang the caller; every job must complete.
        const JOBS: usize = 10_000;
        for threads in 1..=4 {
            let pool = Pool::with_threads(threads);
            let total = AtomicUsize::new(0);
            for j in 0..JOBS {
                pool.run(j % 5 + 2, &|_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
                if j % 25 == 24 {
                    std::thread::sleep(SPIN + Duration::from_micros(10 * (j as u64 / 25 % 7)));
                }
            }
            let expect: usize = (0..JOBS).map(|j| j % 5 + 2).sum();
            assert_eq!(total.load(Ordering::Relaxed), expect, "threads={threads}");
        }
    }
}
