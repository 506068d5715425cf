//! Synchronous allreduce over rank threads, with the paper's optimizations.
//!
//! Paper §4.4.4: "the set of non-null gradient tensors differs for each rank
//! and is a small fraction of the total set of tensors. Therefore we first
//! perform an allreduce to obtain a map of all the tensors that are present
//! on all ranks; then ... we reduce all of the gradient tensors in the list"
//! — with small tensors concatenated into one buffer so the communication is
//! a single bandwidth-bound operation instead of thousands of latency-bound
//! calls. Reducing only non-null gradients gave 4×; concatenation removed
//! the remaining per-tensor latency.
//!
//! Ranks are threads sharing an [`AllReduceCtx`]; every reduction "round"
//! costs two barrier crossings (mirroring an `MPI_Allreduce` call), so the
//! per-tensor strategy pays the latency the paper measured and the
//! concatenated strategy amortizes it. Each rank writes its contribution to
//! its own slot and every rank adds the slots up in rank order, so the sum
//! has the same bits on every rank and in every run, whatever order the
//! ranks arrive in.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, RwLock};

/// Reduction strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllReduceStrategy {
    /// One reduction round per tensor, all tensors (pre-optimization).
    DensePerTensor,
    /// Presence-map round, then one round per non-null tensor (4× step).
    SparsePerTensor,
    /// Presence-map round, then a single concatenated round (full
    /// optimization).
    SparseConcat,
}

/// One rank's gradient tensors: hands each, in an order every rank shares,
/// to the function it is given.
pub type GradVisitor<'a> = dyn FnMut(&mut dyn FnMut(&mut [f32])) + 'a;

/// Shared state for `n` rank threads.
pub struct AllReduceCtx {
    barrier: Barrier,
    /// Rank `r`'s contribution to the current round.
    slots: Vec<RwLock<Vec<f32>>>,
    /// Reduction rounds performed (for instrumentation).
    rounds: AtomicUsize,
}

impl AllReduceCtx {
    /// New context for `n` ranks.
    pub fn new(n: usize) -> Self {
        Self {
            barrier: Barrier::new(n),
            slots: (0..n).map(|_| RwLock::new(Vec::new())).collect(),
            rounds: AtomicUsize::new(0),
        }
    }

    /// Number of participating ranks.
    pub fn num_ranks(&self) -> usize {
        self.slots.len()
    }

    /// Total reduction rounds so far.
    pub fn rounds(&self) -> usize {
        self.rounds.load(Ordering::Relaxed)
    }

    /// One synchronous sum-reduction round over a flat buffer; on return
    /// every rank's `data` holds the element-wise sum `((0 + x₀) + x₁) + …`
    /// over ranks in rank order.
    pub fn reduce_sum(&self, rank: usize, data: &mut [f32]) {
        {
            let mut mine = self.slots[rank].write().unwrap_or_else(|e| e.into_inner());
            mine.clear();
            mine.extend_from_slice(data);
        }
        self.barrier.wait();
        data.fill(0.0);
        for slot in &self.slots {
            let slot = slot.read().unwrap_or_else(|e| e.into_inner());
            for (d, &s) in data.iter_mut().zip(slot.iter()) {
                *d += s;
            }
        }
        // No rank may overwrite its slot before every rank has read it.
        self.barrier.wait();
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Allreduce-average gradient tensors under a strategy; returns the
    /// scalar elements this rank communicated.
    ///
    /// `grads` visits the same tensors, with the same shapes, on every rank
    /// — exactly the contract of the paper's globally shared pre-generated
    /// network. It is called up to three times per reduction.
    pub fn allreduce(
        &self,
        rank: usize,
        strategy: AllReduceStrategy,
        grads: &mut GradVisitor<'_>,
    ) -> usize {
        let n = self.num_ranks() as f32;
        let dense = strategy == AllReduceStrategy::DensePerTensor;
        // Presence map: which tensors have a non-zero gradient on any rank.
        let mut present = Vec::new();
        grads(&mut |g| present.push(f32::from(dense || g.iter().any(|&x| x != 0.0))));
        let mut elems = 0;
        if !dense {
            self.reduce_sum(rank, &mut present);
            elems += present.len();
        }
        let mut i = 0;
        if strategy == AllReduceStrategy::SparseConcat {
            let mut buf = Vec::new();
            grads(&mut |g| {
                if present[i] > 0.0 {
                    buf.extend_from_slice(g);
                }
                i += 1;
            });
            self.reduce_sum(rank, &mut buf);
            elems += buf.len();
            let mut rest = &buf[..];
            i = 0;
            grads(&mut |g| {
                if present[i] > 0.0 {
                    let (mine, tail) = rest.split_at(g.len());
                    for (dst, src) in g.iter_mut().zip(mine) {
                        *dst = src / n;
                    }
                    rest = tail;
                }
                i += 1;
            });
        } else {
            grads(&mut |g| {
                if present[i] > 0.0 {
                    self.reduce_sum(rank, g);
                    g.iter_mut().for_each(|x| *x /= n);
                    elems += g.len();
                }
                i += 1;
            });
        }
        elems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn run_ranks<F: Fn(usize) + Sync>(n: usize, f: F) {
        std::thread::scope(|s| {
            for r in 0..n {
                let f = &f;
                s.spawn(move || f(r));
            }
        });
    }

    /// Reduce `tensors` on every rank as one list of named gradients.
    fn reduce_list(
        ctx: &AllReduceCtx,
        rank: usize,
        strategy: AllReduceStrategy,
        tensors: &mut [Vec<f32>],
    ) -> usize {
        ctx.allreduce(rank, strategy, &mut |f| tensors.iter_mut().for_each(|t| f(t)))
    }

    #[test]
    fn reduce_sum_sums_across_ranks() {
        let ctx = Arc::new(AllReduceCtx::new(3));
        let out = Mutex::new(vec![Vec::new(); 3]);
        run_ranks(3, |r| {
            let mut data = vec![r as f32 + 1.0; 4];
            ctx.reduce_sum(r, &mut data);
            out.lock().unwrap()[r] = data;
        });
        let res = out.lock().unwrap();
        for r in 0..3 {
            assert_eq!(res[r], vec![6.0; 4], "rank {r}");
        }
    }

    #[test]
    fn reduce_sum_adds_in_rank_order_whatever_the_arrival_order() {
        // (1 + 1e8) − 1e8 = 0 in f32, while −1e8 + 1e8 + 1 = 1: the sum
        // depends on the order. Staggered sleeps make rank 2 reach the
        // reduction last, so it runs on through the barrier while ranks 0
        // and 1 are still waking: an arrival-order sum adds −1e8 first and
        // reads 1 in some of the rounds. Every rank must read the rank-order
        // sum in every round.
        let ctx = AllReduceCtx::new(3);
        let contributions = [1.0f32, 1e8, -1e8];
        let out = Mutex::new(Vec::new());
        run_ranks(3, |r| {
            for _ in 0..100 {
                std::thread::sleep(std::time::Duration::from_millis(2 * r as u64));
                let mut data = [contributions[r]];
                ctx.reduce_sum(r, &mut data);
                out.lock().unwrap().push(data[0]);
            }
        });
        let out = out.into_inner().unwrap();
        assert_eq!(out.len(), 300);
        assert!(out.iter().all(|&x| x.to_bits() == 0.0f32.to_bits()), "{out:?}");
    }

    #[test]
    fn repeated_rounds_do_not_leak_state() {
        let ctx = Arc::new(AllReduceCtx::new(2));
        run_ranks(2, |r| {
            for round in 0..5 {
                let mut data = vec![(r + round) as f32; 3];
                ctx.reduce_sum(r, &mut data);
                let expect = (0 + round) as f32 + (1 + round) as f32;
                assert_eq!(data, vec![expect; 3], "round {round}");
            }
        });
        assert_eq!(ctx.rounds(), 10); // 5 rounds × both ranks counted once each...
    }

    #[test]
    fn strategies_agree_on_the_averaged_result() {
        for strategy in [
            AllReduceStrategy::DensePerTensor,
            AllReduceStrategy::SparsePerTensor,
            AllReduceStrategy::SparseConcat,
        ] {
            let ctx = Arc::new(AllReduceCtx::new(2));
            let results = Mutex::new(vec![Vec::<Vec<f32>>::new(); 2]);
            run_ranks(2, |r| {
                // Rank 0 has grads in tensor A only; rank 1 in tensor B only;
                // tensor C is null on both (skipped by sparse strategies).
                let a = if r == 0 { vec![2.0, 4.0] } else { vec![0.0, 0.0] };
                let b = if r == 1 { vec![6.0] } else { vec![0.0] };
                let mut list = vec![a, b, vec![0.0, 0.0, 0.0]];
                reduce_list(&ctx, r, strategy, &mut list);
                results.lock().unwrap()[r] = list;
            });
            let res = results.lock().unwrap();
            for r in 0..2 {
                assert_eq!(res[r][0], vec![1.0, 2.0], "{strategy:?} rank {r} tensor a");
                assert_eq!(res[r][1], vec![3.0], "{strategy:?} rank {r} tensor b");
                assert_eq!(res[r][2], vec![0.0, 0.0, 0.0], "{strategy:?} tensor c");
            }
        }
    }

    #[test]
    fn sparse_strategies_move_fewer_elements() {
        let ctx_dense = Arc::new(AllReduceCtx::new(2));
        let ctx_sparse = Arc::new(AllReduceCtx::new(2));
        let dense_elems = Mutex::new(0usize);
        let sparse_elems = Mutex::new(0usize);
        run_ranks(2, |r| {
            let tensors = || -> Vec<Vec<f32>> {
                (0..10).map(|i| if i == r { vec![1.0; 100] } else { vec![0.0; 100] }).collect()
            };
            let e = reduce_list(&ctx_dense, r, AllReduceStrategy::DensePerTensor, &mut tensors());
            if r == 0 {
                *dense_elems.lock().unwrap() = e;
            }
            let e = reduce_list(&ctx_sparse, r, AllReduceStrategy::SparseConcat, &mut tensors());
            if r == 0 {
                *sparse_elems.lock().unwrap() = e;
            }
        });
        assert_eq!(*dense_elems.lock().unwrap(), 1000);
        // Sparse: presence map (10) + 2 non-null tensors (200).
        assert_eq!(*sparse_elems.lock().unwrap(), 210);
    }
}
