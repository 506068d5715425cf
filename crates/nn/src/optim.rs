//! Optimizers and learning-rate schedules.
//!
//! The paper's large-minibatch training study (§6.3, §7.1.2) compares Adam
//! with Adam-LARC (layer-wise adaptive rate control, Ginsburg et al.) under
//! several learning-rate schedules (none / multi-step / polynomial decay of
//! order 1 or 2) and learning-rate scalings with node count (linear vs
//! sub-sqrt). All of those knobs are reproduced here.

use crate::param::{Module, Parameter};
use etalumis_tensor::Tensor;
use std::collections::HashMap;

/// Learning-rate schedule, evaluated per iteration.
#[derive(Clone, Debug)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f64),
    /// Multiply by `gamma` at each milestone iteration.
    MultiStep {
        /// Initial learning rate.
        initial: f64,
        /// Decay factor applied at each milestone.
        gamma: f64,
        /// Iterations at which decay happens (sorted).
        milestones: Vec<usize>,
    },
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
            LrSchedule::MultiStep { initial, gamma, milestones } => {
                let k = milestones.iter().filter(|&&m| iter >= m).count();
                initial * gamma.powi(k as i32)
            }
            LrSchedule::Polynomial { initial, final_lr, order, total_iters } => {
                let t = (iter as f64 / (*total_iters).max(1) as f64).min(1.0);
                final_lr + (initial - final_lr) * (1.0 - t).powi(*order as i32)
            }
        }
    }
}

/// How the base learning rate scales with the number of data-parallel ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LrScaling {
    /// No scaling.
    None,
    /// Linear in rank count (Goyal et al.).
    Linear,
    /// Square root of rank count.
    Sqrt,
    /// Fourth root ("sub-sqrt", which the paper found best for Adam).
    SubSqrt,
}

impl LrScaling {
    /// Scale `base` for `ranks`-way data parallelism.
    pub fn scale(&self, base: f64, ranks: usize) -> f64 {
        let n = ranks as f64;
        match self {
            LrScaling::None => base,
            LrScaling::Linear => base * n,
            LrScaling::Sqrt => base * n.sqrt(),
            LrScaling::SubSqrt => base * n.powf(0.25),
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

    /// Convenience: step every parameter of a module tree.
    fn step_module(&mut self, m: &mut dyn Module)
    where
        Self: Sized,
    {
        self.begin_step();
        let me = self;
        m.visit_params("", &mut |name, p| me.update(name, p));
    }
}

/// Plain SGD with optional momentum.
#[derive(Clone)]
pub struct Sgd {
    schedule: LrSchedule,
    momentum: f64,
    velocity: HashMap<String, Tensor>,
    iter: usize,
}

impl Sgd {
    /// New SGD optimizer.
    pub fn new(schedule: LrSchedule, momentum: f64) -> Self {
        Self { schedule, momentum, velocity: HashMap::new(), iter: 0 }
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self) {
        self.iter += 1;
    }

    fn update(&mut self, name: &str, p: &mut Parameter) {
        let lr = self.schedule.lr(self.iter - 1) as f32;
        if self.momentum == 0.0 {
            let g = p.grad.clone();
            p.value.axpy(-lr, &g);
            return;
        }
        let v =
            self.velocity.entry(name.to_string()).or_insert_with(|| Tensor::zeros(p.value.shape()));
        v.scale(self.momentum as f32);
        v.add_assign(&p.grad);
        let vc = v.clone();
        p.value.axpy(-lr, &vc);
    }

    fn current_lr(&self) -> f64 {
        self.schedule.lr(self.iter.saturating_sub(1))
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone)]
pub struct Adam {
    schedule: LrSchedule,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: HashMap<String, Tensor>,
    v: HashMap<String, Tensor>,
    /// Per-parameter step counts (dynamic nets: params join at different times).
    t: HashMap<String, u64>,
    iter: usize,
    /// Optional LARC trust coefficient; `None` = plain Adam.
    larc_trust: Option<f64>,
}

impl Adam {
    /// Plain Adam.
    pub fn new(schedule: LrSchedule) -> Self {
        Self {
            schedule,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: HashMap::new(),
            v: HashMap::new(),
            t: HashMap::new(),
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
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.iter += 1;
    }

    fn update(&mut self, name: &str, p: &mut Parameter) {
        let lr = self.schedule.lr(self.iter - 1);
        let t = self.t.entry(name.to_string()).or_insert(0);
        *t += 1;
        let tt = *t as i32;
        let m = self.m.entry(name.to_string()).or_insert_with(|| Tensor::zeros(p.value.shape()));
        let v = self.v.entry(name.to_string()).or_insert_with(|| Tensor::zeros(p.value.shape()));
        let (b1, b2) = (self.beta1 as f32, self.beta2 as f32);
        for ((mi, vi), &gi) in
            m.data_mut().iter_mut().zip(v.data_mut().iter_mut()).zip(p.grad.data())
        {
            *mi = b1 * *mi + (1.0 - b1) * gi;
            *vi = b2 * *vi + (1.0 - b2) * gi * gi;
        }
        let bc1 = 1.0 - self.beta1.powi(tt);
        let bc2 = 1.0 - self.beta2.powi(tt);
        // Compute the Adam direction d = m̂ / (√v̂ + ε).
        let mut dir = Tensor::zeros(p.value.shape());
        let epsf = self.eps as f32;
        for ((di, &mi), &vi) in dir.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
            let mhat = mi / bc1 as f32;
            let vhat = vi / bc2 as f32;
            *di = mhat / (vhat.sqrt() + epsf);
        }
        let step_lr = match self.larc_trust {
            None => lr,
            Some(trust) => {
                // LARC "clip" mode: local lr = min(global, η·||w||/||d||).
                let wn = p.value.norm();
                let dn = dir.norm();
                if dn > 0.0 && wn > 0.0 {
                    lr.min(trust * wn / dn)
                } else {
                    lr
                }
            }
        };
        p.value.axpy(-(step_lr as f32), &dir);
    }

    fn current_lr(&self) -> f64 {
        self.schedule.lr(self.iter.saturating_sub(1))
    }
}

/// Global-norm gradient clipping over a module tree. Returns the pre-clip norm.
pub fn clip_grad_norm(m: &mut dyn Module, max_norm: f64) -> f64 {
    let mut sq = 0.0f64;
    m.visit_params("", &mut |_, p| {
        sq += p.grad.data().iter().map(|&g| (g as f64) * (g as f64)).sum::<f64>();
    });
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = (max_norm / norm) as f32;
        m.visit_params("", &mut |_, p| p.grad.scale(s));
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
        let m = LrSchedule::MultiStep { initial: 1.0, gamma: 0.1, milestones: vec![10, 20] };
        assert_eq!(m.lr(5), 1.0);
        assert!((m.lr(15) - 0.1).abs() < 1e-12);
        assert!((m.lr(25) - 0.01).abs() < 1e-12);
        let p = LrSchedule::Polynomial { initial: 1.0, final_lr: 0.1, order: 2, total_iters: 100 };
        assert_eq!(p.lr(0), 1.0);
        assert!((p.lr(100) - 0.1).abs() < 1e-12);
        assert!((p.lr(50) - (0.1 + 0.9 * 0.25)).abs() < 1e-12);
        // Order 2 decays faster than order 1 early on.
        let p1 = LrSchedule::Polynomial { initial: 1.0, final_lr: 0.1, order: 1, total_iters: 100 };
        assert!(p.lr(20) < p1.lr(20));
    }

    #[test]
    fn lr_scaling_modes() {
        assert_eq!(LrScaling::None.scale(0.1, 64), 0.1);
        assert!((LrScaling::Linear.scale(0.1, 64) - 6.4).abs() < 1e-12);
        assert!((LrScaling::Sqrt.scale(0.1, 64) - 0.8).abs() < 1e-12);
        assert!((LrScaling::SubSqrt.scale(0.1, 16) - 0.2).abs() < 1e-12);
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
        for mk in [0usize, 1, 2, 3] {
            let mut opt: Box<dyn Optimizer> = match mk {
                0 => Box::new(Sgd::new(LrSchedule::Constant(0.1), 0.0)),
                1 => Box::new(Sgd::new(LrSchedule::Constant(0.05), 0.9)),
                2 => Box::new(Adam::new(LrSchedule::Constant(0.2))),
                _ => Box::new(Adam::with_larc(LrSchedule::Constant(0.5), 0.1)),
            };
            let mut p = Parameter::new(Tensor::full(&[4], 10.0));
            let mut last = f64::MAX;
            for _ in 0..300 {
                last = quadratic_loss_step(opt.as_mut(), &mut p);
            }
            assert!(last < 1e-2, "optimizer {mk} did not converge: {last}");
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
