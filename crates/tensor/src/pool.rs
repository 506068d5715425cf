//! Resident kernel thread pool with deterministic fixed chunking.
//!
//! Spawning threads per parallel call costs more than the work at kernel
//! granularity, so this pool keeps a fixed set of resident workers (spawned
//! once, parked on a condvar) and hands them atomically-claimed task indices
//! from a shared cursor.
//!
//! Determinism contract: callers split work into **fixed-size chunks that
//! are a pure function of the problem shape** (e.g. 32 output rows per
//! task), each chunk writes a disjoint output range, and no cross-chunk
//! reduction happens inside the pool. Which thread runs which chunk is
//! scheduling noise; the numeric result is identical for any thread count —
//! including one — preserving every bit-identity contract in the repo.
//!
//! Sizing: `ETALUMIS_KERNEL_THREADS` overrides
//! [`std::thread::available_parallelism`]. [`set_parallel`] gates the pool
//! globally (benches use it to measure serial vs parallel kernels).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static PARALLEL_ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable/disable parallel kernel execution (default enabled).
/// Disabled, every [`run`] executes inline on the caller.
pub fn set_parallel(enabled: bool) {
    PARALLEL_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether [`run`] may use the resident pool.
pub fn parallel_enabled() -> bool {
    PARALLEL_ENABLED.load(Ordering::Relaxed)
}

/// Threads the global pool uses (workers + the participating caller).
pub fn num_threads() -> usize {
    global().threads()
}

/// Run `f(task)` for every `task` in `0..n_tasks` on the global pool.
/// Inline (serial, ascending) when parallelism is disabled, the pool has a
/// single thread, or there is at most one task.
pub fn run(n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    let pool = global();
    if n_tasks <= 1 || pool.threads() == 1 || !parallel_enabled() {
        for t in 0..n_tasks {
            f(t);
        }
    } else {
        pool.run(n_tasks, f);
    }
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
    panicked: AtomicBool,
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
            if catch_unwind(AssertUnwindSafe(|| f(t))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
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
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done: Mutex<()>,
    done_cv: Condvar,
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
            slot: Mutex::new(Slot { seq: 0, job: None, shutdown: false }),
            work_cv: Condvar::new(),
            done: Mutex::new(()),
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
    /// Returns once all tasks completed; panics if any task panicked.
    pub fn run(&self, n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        if n_tasks == 1 || self.workers.is_empty() {
            for t in 0..n_tasks {
                f(t);
            }
            return;
        }
        // SAFETY: lifetime erasure only — `run` blocks until every task
        // completes, so the closure outlives all uses of the raw pointer.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Arc::new(Job {
            f: RawTask(f_static as *const (dyn Fn(usize) + Sync)),
            n: n_tasks,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            slot.seq += 1;
            slot.job = Some(Arc::clone(&job));
            // Notify while the slot lock is held: a worker that just saw a
            // stale seq cannot slip between our publish and this wakeup.
            self.shared.work_cv.notify_all();
        }
        // Caller participates; stragglers may still be finishing when its
        // cursor drains, so wait for the completion count.
        job.drain();
        if !job.done() {
            let mut guard = self.shared.done.lock().unwrap_or_else(|e| e.into_inner());
            while !job.done() {
                guard = self.shared.done_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        }
        // Drop our slot reference if no newer job replaced it, so the
        // closure borrow can't be observed after `run` returns.
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(cur) = &slot.job {
                if Arc::ptr_eq(cur, &job) {
                    slot.job = None;
                }
            }
        }
        if job.panicked.load(Ordering::Relaxed) {
            // etalumis: allow(panic-freedom, reason = "re-raises a worker task panic on the caller thread")
            panic!("kernel pool task panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            slot.shutdown = true;
            // Notify under the lock so a worker mid-predicate-check cannot
            // miss the shutdown flag and park forever.
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_seq = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.seq != seen_seq {
                    if let Some(job) = &slot.job {
                        if !job.done() {
                            seen_seq = slot.seq;
                            break Arc::clone(job);
                        }
                    }
                    seen_seq = slot.seq;
                }
                slot = shared.work_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.drain();
        if job.done() {
            // Wake the caller under the done lock so the wake can't slip
            // between its `done()` check and its wait.
            let _guard = shared.done.lock().unwrap_or_else(|e| e.into_inner());
            shared.done_cv.notify_all();
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
        let out: Vec<std::sync::atomic::AtomicU64> =
            (0..n).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
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
        set_parallel(false);
        let counter = AtomicUsize::new(0);
        run(10, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        set_parallel(true);
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
}
