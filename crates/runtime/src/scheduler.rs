//! The work-stealing task scheduler.
//!
//! The paper's trace-generation throughput depends on dynamic load
//! balancing: execution traces vary wildly in length (rejection loops,
//! branching decay channels), so static partitioning leaves workers idle
//! while stragglers finish (§4.4, Figure 4). This module provides the
//! classic fix — per-worker deques with stealing:
//!
//! * each worker owns a deque and pops from its **back** (LIFO, cache-warm),
//! * an idle worker steals from the **front** of a victim's deque (FIFO, the
//!   oldest — and for block-filled queues, largest-remaining — work),
//! * the batch is fixed up front, so "every deque empty" is the termination
//!   condition; no task is ever lost or run twice.
//!
//! Tasks are plain `usize` indices into the batch; what an index *means*
//! (which trace to generate, under which seed) is the caller's business —
//! see [`crate::BatchRunner`].

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-worker deques over a fixed batch of `usize` tasks, with stealing.
pub struct TaskQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
    steals: AtomicU64,
}

impl TaskQueues {
    /// Empty queues for `workers` workers (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Distribute tasks `0..n` as contiguous blocks, one block per worker —
    /// the same initial assignment a static partitioner would make, so any
    /// later steal is exactly the load-balancing a static scheduler misses.
    pub fn fill_blocks(&self, n: usize) {
        let w = self.workers();
        let per = n.div_ceil(w.max(1)).max(1);
        for (i, deque) in self.deques.iter().enumerate() {
            let start = (i * per).min(n);
            let end = ((i + 1) * per).min(n);
            deque.lock().extend(start..end);
        }
    }

    /// Distribute an explicit task list round-robin across workers (task
    /// `k` goes to worker `k % workers`). Used by resumable runs: the
    /// remaining indices of a checkpointed batch are an arbitrary set, and
    /// interleaving keeps the *contiguous completed prefix* — what a
    /// checkpoint can durably commit — advancing evenly instead of at the
    /// pace of worker 0's block.
    pub fn fill_interleaved(&self, tasks: impl IntoIterator<Item = usize>) {
        let w = self.workers();
        for (k, t) in tasks.into_iter().enumerate() {
            self.deques[k % w].lock().push_front(t);
        }
    }

    /// Push one task onto `worker`'s deque.
    pub fn push(&self, worker: usize, task: usize) {
        self.deques[worker].lock().push_back(task);
    }

    /// Drain every remaining task from every deque (ascending). Called after
    /// the workers have exited to account for tasks stranded by worker
    /// retirement (e.g. every session of a mux worker died with stealing
    /// disabled) — a batch must end with each index delivered or failed,
    /// never silently dropped.
    pub fn drain_remaining(&self) -> Vec<usize> {
        let mut left = Vec::new();
        for d in &self.deques {
            left.extend(d.lock().drain(..));
        }
        left.sort_unstable();
        left
    }

    /// Next task for `worker`: its own deque first (back), then — when
    /// `stealing` — the fronts of the other workers' deques, scanning from
    /// its right-hand neighbor. `None` means the batch is drained.
    pub fn pop(&self, worker: usize, stealing: bool) -> Option<usize> {
        self.pop_traced(worker, stealing).map(|(t, _)| t)
    }

    /// Like [`pop`](Self::pop), but also reports whether the task was
    /// stolen from another worker's deque — the per-task attribution the
    /// telemetry layer records as `runtime.steal` counters.
    pub(crate) fn pop_traced(&self, worker: usize, stealing: bool) -> Option<(usize, bool)> {
        if let Some(t) = self.deques[worker].lock().pop_back() {
            return Some((t, false));
        }
        if !stealing {
            return None;
        }
        let w = self.workers();
        for k in 1..w {
            let victim = (worker + k) % w;
            if let Some(t) = self.deques[victim].lock().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some((t, true));
            }
        }
        None
    }

    /// Total number of successful steals so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn block_fill_covers_every_task_once() {
        let q = TaskQueues::new(4);
        q.fill_blocks(10);
        let mut seen = HashSet::new();
        for w in 0..4 {
            while let Some(t) = q.pop(w, false) {
                assert!(seen.insert(t), "task {t} scheduled twice");
            }
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(q.steals(), 0);
    }

    #[test]
    fn idle_worker_steals_from_loaded_worker() {
        let q = TaskQueues::new(3);
        // All work on worker 0.
        for t in 0..6 {
            q.push(0, t);
        }
        // Worker 2 has nothing of its own; with stealing disabled it starves…
        assert_eq!(q.pop(2, false), None);
        // …with stealing enabled it takes worker 0's *oldest* task.
        assert_eq!(q.pop(2, true), Some(0));
        assert_eq!(q.steals(), 1);
        // Worker 0 still pops its own newest first (LIFO).
        assert_eq!(q.pop(0, true), Some(5));
    }

    #[test]
    fn interleaved_fill_pops_ascending_per_worker() {
        let q = TaskQueues::new(3);
        q.fill_interleaved([5usize, 6, 7, 8, 9, 10, 11]);
        // Worker 0 got 5, 8, 11 and pops its lowest index first.
        assert_eq!(q.pop(0, false), Some(5));
        assert_eq!(q.pop(0, false), Some(8));
        assert_eq!(q.pop(1, false), Some(6));
        assert_eq!(q.pop(2, false), Some(7));
        let rest = q.drain_remaining();
        assert_eq!(rest, vec![9, 10, 11]);
        assert_eq!(q.pop(0, true), None);
    }

    #[test]
    fn drained_queues_terminate() {
        let q = TaskQueues::new(2);
        q.fill_blocks(3);
        let mut got = 0;
        for w in [0usize, 1, 0, 1, 0, 1] {
            if q.pop(w, true).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 3);
        assert_eq!(q.pop(0, true), None);
        assert_eq!(q.pop(1, true), None);
    }
}
