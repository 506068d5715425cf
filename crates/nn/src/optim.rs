//! Optimizers and learning-rate schedules.
//!
//! The paper's large-minibatch training study (§6.3, §7.1.2) compares Adam
//! with Adam-LARC (layer-wise adaptive rate control, Ginsburg et al.) under
//! several learning-rate schedules and learning-rate scalings with node
//! count, and settles on Adam(-LARC) with polynomial decay. Those settled
//! choices are what is reproduced here: [`Adam`], [`Adam::with_larc`], and a
//! constant or polynomial [`LrSchedule`]; the rejected alternatives (SGD,
//! multi-step decay, LR scaling rules) are not.

use crate::param::{par_map_params, Module, Parameter};
use etalumis_tensor::pool::{self, SendPtr};
use etalumis_tensor::Tensor;
use std::collections::HashMap;

/// Learning-rate schedule, evaluated per iteration.
#[derive(Clone, Debug)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f64),
    /// Polynomial decay from `initial` to `final_lr` over `total_iters`
    /// (order 1 = linear, order 2 = quadratic; the paper settles on order 2).
    Polynomial {
        /// Initial learning rate.
        initial: f64,
        /// Final learning rate after `total_iters`.
        final_lr: f64,
        /// Polynomial order.
        order: u32,
        /// Horizon over which to decay.
        total_iters: usize,
    },
}

impl LrSchedule {
    /// Learning rate at `iter`.
    pub fn lr(&self, iter: usize) -> f64 {
        match self {
            LrSchedule::Constant(lr) => *lr,
            LrSchedule::Polynomial { initial, final_lr, order, total_iters } => {
                let t = (iter as f64 / (*total_iters).max(1) as f64).min(1.0);
                final_lr + (initial - final_lr) * (1.0 - t).powi(*order as i32)
            }
        }
    }
}

/// Common optimizer interface: one `update` per parameter per iteration.
pub trait Optimizer {
    /// Advance the iteration counter (call once per minibatch).
    fn begin_step(&mut self);
    /// Apply the update rule to one named parameter.
    fn update(&mut self, name: &str, p: &mut Parameter);
    /// Current learning rate.
    fn current_lr(&self) -> f64;

    /// Apply the update rule to every parameter of a module tree (after
    /// [`Optimizer::begin_step`]). The default walks the parameters one
    /// after another; an optimizer whose rule is per tensor may run the
    /// tensors as pool tasks, with the same result.
    fn update_module(&mut self, m: &mut dyn Module) {
        m.visit_params("", &mut |name, p| self.update(name, p));
    }

    /// Convenience: step every parameter of a module tree.
    fn step_module(&mut self, m: &mut dyn Module)
    where
        Self: Sized,
    {
        self.begin_step();
        self.update_module(m);
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone)]
pub struct Adam {
    schedule: LrSchedule,
    beta1: f64,
    beta2: f64,
    eps: f64,
    state: HashMap<String, AdamSlot>,
    iter: usize,
    /// Optional LARC trust coefficient; `None` = plain Adam.
    larc_trust: Option<f64>,
}

/// One parameter's Adam state.
#[derive(Clone)]
struct AdamSlot {
    m: Vec<f32>,
    v: Vec<f32>,
    /// The parameter's own step count (dynamic nets: params join at
    /// different times).
    t: u64,
    /// Each run of weights grown after the parameter's first step: where it
    /// starts, and the step count `t` had before the run's first step. Its
    /// weights have taken `t - joined` steps and are bias-corrected for that
    /// many, so a grown row starts as a fresh parameter does.
    grown: Vec<(usize, u64)>,
}

/// The update rule of one iteration, shared by the per-tensor tasks.
#[derive(Clone, Copy)]
struct AdamRule {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    larc_trust: Option<f64>,
}

impl AdamRule {
    /// Fold `p.grad` into the moments `m`, `v` (the parameter's `t`-th
    /// step) and step `p.value` along `m̂ / (√v̂ + ε)`, in one pass over the
    /// tensor — two with LARC, whose rate needs the direction's norm first.
    /// The runs of weights in `grown` are bias-corrected for their own step
    /// counts (see [`AdamSlot::grown`]). The moments are as long as the
    /// parameter (see [`Adam::advance`]).
    fn apply(
        &self,
        m: &mut [f32],
        v: &mut [f32],
        t: u64,
        grown: &[(usize, u64)],
        p: &mut Parameter,
    ) {
        let (b1, b2) = (self.beta1 as f32, self.beta2 as f32);
        let eps = self.eps as f32;
        let mut dir = self.larc_trust.map(|_| Tensor::zeros(p.value.shape()));
        let starts = std::iter::once((0, 0)).chain(grown.iter().copied());
        let ends = grown.iter().map(|&(start, _)| start).chain([m.len()]);
        for ((lo, joined), hi) in starts.zip(ends) {
            let tt = (t - joined) as i32;
            let bc1 = (1.0 - self.beta1.powi(tt)) as f32;
            let bc2 = (1.0 - self.beta2.powi(tt)) as f32;
            let direction = |mi: &mut f32, vi: &mut f32, gi: f32| {
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                (*mi / bc1) / ((*vi / bc2).sqrt() + eps)
            };
            let moments = m[lo..hi].iter_mut().zip(&mut v[lo..hi]).zip(&p.grad.data()[lo..hi]);
            match &mut dir {
                None => {
                    let alpha = -(self.lr as f32);
                    for (w, ((mi, vi), &gi)) in p.value.data_mut()[lo..hi].iter_mut().zip(moments) {
                        *w += alpha * direction(mi, vi, gi);
                    }
                }
                Some(dir) => {
                    for (d, ((mi, vi), &gi)) in dir.data_mut()[lo..hi].iter_mut().zip(moments) {
                        *d = direction(mi, vi, gi);
                    }
                }
            }
        }
        let (Some(trust), Some(dir)) = (self.larc_trust, dir) else { return };
        // LARC "clip" mode: local lr = min(global, η·||w||/||d||).
        let (wn, dn) = (p.value.norm(), dir.norm());
        let step_lr = if dn > 0.0 && wn > 0.0 { self.lr.min(trust * wn / dn) } else { self.lr };
        p.value.axpy(-(step_lr as f32), &dir);
    }
}

impl Adam {
    /// Plain Adam.
    pub fn new(schedule: LrSchedule) -> Self {
        Self {
            schedule,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: HashMap::new(),
            iter: 0,
            larc_trust: None,
        }
    }

    /// Adam with layer-wise adaptive rate control (Adam-LARC); the paper's
    /// choice for the 128k global minibatch runs, trust coefficient ~1e-2.
    pub fn with_larc(schedule: LrSchedule, trust: f64) -> Self {
        let mut a = Self::new(schedule);
        a.larc_trust = Some(trust);
        a
    }

    /// The first and second moments kept for parameter `name`, if it has
    /// been updated.
    pub fn moments(&self, name: &str) -> Option<(&[f32], &[f32])> {
        self.state.get(name).map(|s| (s.m.as_slice(), s.v.as_slice()))
    }

    fn rule(&self) -> AdamRule {
        AdamRule {
            lr: self.schedule.lr(self.iter - 1),
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            larc_trust: self.larc_trust,
        }
    }

    /// `f` on the state of parameter `name` with `len` weights, one step
    /// further on. A `String` key is built only the first time. Weights
    /// added since the last step (an address table grown in online mode)
    /// get zero moments and a step count of their own, so their first step
    /// is a fresh parameter's.
    fn advance<R>(&mut self, name: &str, len: usize, f: impl FnOnce(&mut AdamSlot) -> R) -> R {
        if let Some(slot) = self.state.get_mut(name) {
            if len > slot.m.len() {
                slot.grown.push((slot.m.len(), slot.t));
                slot.m.resize(len, 0.0);
                slot.v.resize(len, 0.0);
            }
            slot.t += 1;
            return f(slot);
        }
        let slot = self.state.entry(name.to_string()).or_insert(AdamSlot {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 1,
            grown: Vec::new(),
        });
        f(slot)
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.iter += 1;
    }

    fn update(&mut self, name: &str, p: &mut Parameter) {
        let rule = self.rule();
        self.advance(name, p.numel(), |s| rule.apply(&mut s.m, &mut s.v, s.t, &s.grown, p));
    }

    /// One pool task per parameter tensor (inline for a tree of few
    /// weights): the rule is per tensor (LARC's norms too), so the result
    /// is [`Optimizer::update`]'s on each.
    fn update_module(&mut self, module: &mut dyn Module) {
        /// A tensor's update: the parameter, its two moments (`len` floats
        /// each), step count and grown runs (copied; empty for a parameter
        /// that never grew, so no allocation).
        struct Task {
            p: SendPtr<Parameter>,
            m: SendPtr<f32>,
            v: SendPtr<f32>,
            len: usize,
            t: u64,
            grown: Vec<(usize, u64)>,
        }
        let rule = self.rule();
        let (mut tasks, mut weights) = (Vec::new(), 0);
        module.visit_params("", &mut |name, p| {
            weights += p.numel();
            let task = self.advance(name, p.numel(), |slot| Task {
                p: SendPtr::new(p),
                m: SendPtr::new(slot.m.as_mut_ptr()),
                v: SendPtr::new(slot.v.as_mut_ptr()),
                len: slot.m.len(),
                t: slot.t,
                grown: slot.grown.clone(),
            });
            tasks.push(task);
        });
        pool::run_sized(weights, tasks.len(), &|i| {
            let Task { p, m, v, len, t, grown } = &tasks[i];
            // SAFETY: `visit_params` hands out each parameter once, and
            // `module` stays mutably borrowed until the run returns, so
            // task `i` holds the only reference to its parameter. The
            // moments are the `len`-float heap buffers of the slot `advance`
            // made for that parameter alone and sized before the run;
            // moving a slot when the map grows does not move its buffers,
            // and nothing resizes them during the run.
            let (p, m, v) = unsafe {
                (
                    &mut *p.get(),
                    std::slice::from_raw_parts_mut(m.get(), *len),
                    std::slice::from_raw_parts_mut(v.get(), *len),
                )
            };
            rule.apply(m, v, *t, grown, p);
        });
    }

    fn current_lr(&self) -> f64 {
        self.schedule.lr(self.iter.saturating_sub(1))
    }
}

/// Global-norm gradient clipping over a module tree. Returns the pre-clip norm.
/// Each tensor's sum of squares and its rescale run as pool tasks; the sums
/// are added in visit order, as one walk over the tree adds them.
pub fn clip_grad_norm(m: &mut dyn Module, max_norm: f64) -> f64 {
    let sums =
        par_map_params(m, &|p| p.grad.data().iter().map(|&g| (g as f64) * (g as f64)).sum::<f64>());
    let mut sq = 0.0f64;
    for s in sums {
        sq += s;
    }
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = (max_norm / norm) as f32;
        par_map_params(m, &|p| p.grad.scale(s));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use etalumis_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedules_evaluate() {
        let c = LrSchedule::Constant(0.1);
        assert_eq!(c.lr(0), 0.1);
        assert_eq!(c.lr(1000), 0.1);
        let p = LrSchedule::Polynomial { initial: 1.0, final_lr: 0.1, order: 2, total_iters: 100 };
        assert_eq!(p.lr(0), 1.0);
        assert!((p.lr(100) - 0.1).abs() < 1e-12);
        assert!((p.lr(50) - (0.1 + 0.9 * 0.25)).abs() < 1e-12);
        // Order 2 decays faster than order 1 early on.
        let p1 = LrSchedule::Polynomial { initial: 1.0, final_lr: 0.1, order: 1, total_iters: 100 };
        assert!(p.lr(20) < p1.lr(20));
    }

    fn quadratic_loss_step(opt: &mut dyn Optimizer, p: &mut Parameter) -> f64 {
        // loss = 0.5 * ||w - 3||², grad = w - 3
        let loss: f64 = p.value.data().iter().map(|&w| 0.5 * ((w - 3.0) as f64).powi(2)).sum();
        p.zero_grad();
        let g = p.value.map(|w| w - 3.0);
        p.grad.add_assign(&g);
        opt.begin_step();
        opt.update("w", p);
        loss
    }

    #[test]
    fn optimizers_converge_on_quadratic() {
        for larc in [false, true] {
            let mut opt = match larc {
                false => Adam::new(LrSchedule::Constant(0.2)),
                true => Adam::with_larc(LrSchedule::Constant(0.5), 0.1),
            };
            let mut p = Parameter::new(Tensor::full(&[4], 10.0));
            let mut last = f64::MAX;
            for _ in 0..300 {
                last = quadratic_loss_step(&mut opt, &mut p);
            }
            assert!(last < 1e-2, "Adam (larc {larc}) did not converge: {last}");
        }
    }

    #[test]
    fn larc_limits_step_size() {
        // With a huge LR, LARC should take a bounded step while plain Adam jumps.
        let mut plain = Adam::new(LrSchedule::Constant(100.0));
        let mut larc = Adam::with_larc(LrSchedule::Constant(100.0), 0.01);
        let mut p1 = Parameter::new(Tensor::full(&[8], 1.0));
        let mut p2 = Parameter::new(Tensor::full(&[8], 1.0));
        p1.grad = Tensor::full(&[8], 1.0);
        p2.grad = Tensor::full(&[8], 1.0);
        plain.begin_step();
        plain.update("w", &mut p1);
        larc.begin_step();
        larc.update("w", &mut p2);
        let step1 = (p1.value.data()[0] - 1.0).abs();
        let step2 = (p2.value.data()[0] - 1.0).abs();
        assert!(step2 < step1 * 0.01, "LARC step {step2} vs Adam step {step1}");
    }

    /// The per-tensor pool update is the serial walk's, bit for bit, for
    /// plain Adam and Adam-LARC — also once a parameter has grown since its
    /// first update (an address table in online mode), its moments with it.
    #[test]
    fn update_module_matches_serial_updates() {
        use crate::embedding::Embedding;
        #[derive(Clone)]
        struct Net(Linear, Embedding);
        impl Module for Net {
            fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
                self.0.visit_params(&format!("{prefix}/lin"), f);
                self.1.visit_params(&format!("{prefix}/emb"), f);
            }
        }
        for larc in [None, Some(0.02)] {
            let mk = || match larc {
                None => Adam::new(LrSchedule::Constant(0.05)),
                Some(trust) => Adam::with_larc(LrSchedule::Constant(0.05), trust),
            };
            let mut rng = StdRng::seed_from_u64(3);
            let mut a = Net(Linear::new(&mut rng, 5, 7), Embedding::new(&mut rng, 2, 3));
            let mut b = a.clone();
            let (mut opt_a, mut opt_b) = (mk(), mk());
            for step in 0..4 {
                if step == 2 {
                    a.1.grow(&mut StdRng::seed_from_u64(9), 4);
                    b.1.grow(&mut StdRng::seed_from_u64(9), 4);
                }
                for net in [&mut a, &mut b] {
                    let mut k = 0.0f32;
                    net.visit_params("", &mut |_, p| {
                        for g in p.grad.data_mut() {
                            k += 1.0;
                            *g = (k * 0.7 + step as f32).sin();
                        }
                    });
                }
                opt_a.step_module(&mut a);
                opt_b.begin_step();
                b.visit_params("", &mut |name, p| opt_b.update(name, p));
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut weights = Vec::new();
            a.visit_params("", &mut |_, p| weights.push(bits(p.value.data())));
            let mut i = 0;
            b.visit_params("", &mut |name, p| {
                assert_eq!(weights[i], bits(p.value.data()), "{name}, larc {larc:?}");
                let (ma, va) = opt_a.moments(name).unwrap();
                let (mb, vb) = opt_b.moments(name).unwrap();
                assert_eq!((bits(ma), bits(va)), (bits(mb), bits(vb)), "{name} moments");
                i += 1;
            });
        }
    }

    /// Rows an address table grows after Adam's first step (online mode)
    /// move on the next step, through the serial and the pooled update.
    #[test]
    fn rows_grown_after_the_first_step_are_updated() {
        use crate::embedding::Embedding;
        for pooled in [false, true] {
            let mut rng = StdRng::seed_from_u64(4);
            let mut e = Embedding::new(&mut rng, 2, 3);
            let mut opt = Adam::new(LrSchedule::Constant(0.1));
            e.table.grad = Tensor::full(&[2, 3], 1.0);
            opt.step_module(&mut e);
            e.grow(&mut rng, 3);
            let before = e.table.value.row(2).to_vec();
            e.table.grad = Tensor::full(&[3, 3], 1.0);
            if pooled {
                opt.step_module(&mut e);
            } else {
                opt.begin_step();
                e.visit_params("", &mut |name, p| opt.update(name, p));
            }
            assert!(
                e.table.value.row(2).iter().zip(&before).all(|(w, w0)| w < w0),
                "grown row did not move (pooled {pooled}): {before:?} -> {:?}",
                e.table.value.row(2)
            );
            assert_eq!(opt.moments("/table").unwrap().0.len(), 9);
        }
    }

    /// A row grown after step k is bias-corrected for its own steps, not
    /// the table's: under a constant gradient its first step is a fresh
    /// Adam's first step on the same weights, bit for bit, serial and pooled.
    #[test]
    fn a_grown_row_takes_a_fresh_first_step() {
        use crate::embedding::Embedding;
        for pooled in [false, true] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut e = Embedding::new(&mut rng, 2, 3);
            let mut opt = Adam::new(LrSchedule::Constant(0.1));
            for _ in 0..2000 {
                e.table.grad = Tensor::full(&[2, 3], 1.0);
                opt.step_module(&mut e);
            }
            e.grow(&mut rng, 3);
            let mut fresh = Parameter::new(Tensor::from_vec(&[3], e.table.value.row(2).to_vec()));
            e.table.grad = Tensor::full(&[3, 3], 1.0);
            if pooled {
                opt.step_module(&mut e);
            } else {
                opt.begin_step();
                e.visit_params("", &mut |name, p| opt.update(name, p));
            }
            fresh.grad = Tensor::full(&[3], 1.0);
            let mut fresh_opt = Adam::new(LrSchedule::Constant(0.1));
            fresh_opt.begin_step();
            fresh_opt.update("w", &mut fresh);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(e.table.value.row(2)),
                bits(fresh.value.data()),
                "pooled {pooled}: grown row {:?}, fresh {:?}",
                e.table.value.row(2),
                fresh.value.data()
            );
        }
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(&mut rng, 4, 4);
        lin.w.grad = Tensor::full(&[4, 4], 3.0);
        lin.b.grad = Tensor::full(&[4], 4.0);
        let pre = clip_grad_norm(&mut lin, 1.0);
        assert!(pre > 1.0);
        let mut sq = 0.0;
        lin.visit_params("", &mut |_, p| {
            sq += p.grad.data().iter().map(|&g| (g as f64).powi(2)).sum::<f64>();
        });
        assert!((sq.sqrt() - 1.0).abs() < 1e-5);
    }
}
