//! Stacked LSTM with full backpropagation-through-time, time-batched for
//! training.
//!
//! The IC architecture (paper §4.3) is built around an LSTM core "executed
//! as many time steps as the simulator's probabilistic trace length". Since
//! trace lengths vary per trace type, the *inference* API is step-wise:
//! [`Lstm::step_inference`] once per sample statement. Training, however, is
//! teacher-forced (§4.4.3) — all `T` step inputs are known upfront — so
//! [`Lstm::forward_sequence`] fuses the input projection of a whole sequence
//! into one `[T·B, in]·[in, 4H]` GEMM per layer and only iterates the
//! (inherently sequential) recurrent update per step. Because GEMM results
//! are row-independent and the per-element accumulation chains depend only
//! on shape, the batched path is **bit-identical** to calling [`Lstm::step`]
//! `T` times (tested).
//!
//! The recurrence never mixes batch rows either, so each fixed 32-row block
//! of the batch runs its whole `T`-step recurrence as one kernel-pool task,
//! forward and backward; the blocks compute their rows bit for bit as the
//! whole batch would.
//!
//! Activations are recorded in a per-layer [`SeqArena`] — flat, reused
//! buffers, the gates computed in place — instead of per-step cloned
//! tensors; the backward pass walks the arena t-descending for the
//! elementwise gate gradients, then computes all weight gradients with
//! fused GEMMs over the stacked sequence. Backward assumes the sequence
//! started from the zero state that [`Lstm::begin_sequence`] always
//! creates.

use crate::param::{xavier_uniform, Module, Parameter};
use etalumis_tensor::gemm::{
    add_bias_rows_slice, col_sums_acc_slice, matmul_a_bt_into, matmul_acc_into,
    matmul_at_b_acc_into, matmul_into, UNPACKED_MAX_ROWS,
};
use etalumis_tensor::pool::{self, SendPtr};
use etalumis_tensor::simd::Kernels;
use etalumis_tensor::Tensor;
use rand::Rng;
use std::sync::{Mutex, PoisonError};

/// Flat per-layer activation storage for one recorded sequence. One growing
/// buffer per quantity, `[T, B, ·]` row-major, cleared (capacity kept) at
/// `begin_sequence` — replaces the per-step cloned `StepCache` tensors.
#[derive(Clone, Default)]
struct SeqArena {
    /// Layer inputs `[T, B, in]`.
    x: Vec<f32>,
    /// Activated gates `[T, B, 4H]` in i|f|g|o order.
    gates: Vec<f32>,
    /// Cell states after each step `[T, B, H]`.
    c: Vec<f32>,
    /// Hidden outputs `[T, B, H]` (layer `l`'s `h` is layer `l+1`'s input).
    h: Vec<f32>,
    /// `tanh(c)` per step `[T, B, H]`.
    tanh_c: Vec<f32>,
    steps: usize,
}

impl SeqArena {
    fn clear(&mut self) {
        self.x.clear();
        self.gates.clear();
        self.c.clear();
        self.h.clear();
        self.tanh_c.clear();
        self.steps = 0;
    }
}

/// The buffers an unrecorded forward call computes through: gate
/// pre-activations `[T, B, 4H]` and `tanh(c)` for one step `[B, H]`, reused
/// across calls. Inference keeps one per [`LstmState`], so any number of
/// states can step one shared `&Lstm`.
#[derive(Clone, Default)]
struct GateScratch {
    z: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// Where a forward call's gates and `tanh(c)` go: a reused scratch
/// (inference), or appended to the arena with the states (training; the
/// gates are computed in place there).
enum Sink<'a> {
    Scratch(&'a mut GateScratch),
    Arena(&'a mut SeqArena),
}

/// One LSTM layer with fused gate weights (gate order: i, f, g, o).
#[derive(Clone)]
struct LstmLayer {
    w_ih: Parameter, // [input, 4H]
    w_hh: Parameter, // [H, 4H]
    b: Parameter,    // [4H]
    hidden: usize,
    arena: SeqArena,
}

impl LstmLayer {
    fn new<R: Rng + ?Sized>(rng: &mut R, input: usize, hidden: usize) -> Self {
        let mut b = Parameter::zeros(&[4 * hidden]);
        // Forget-gate bias init to 1.0: standard trick for gradient flow.
        for v in b.value.data_mut()[hidden..2 * hidden].iter_mut() {
            *v = 1.0;
        }
        Self {
            w_ih: Parameter::new(xavier_uniform(rng, &[input, 4 * hidden])),
            w_hh: Parameter::new(xavier_uniform(rng, &[hidden, 4 * hidden])),
            b,
            hidden,
            arena: SeqArena::default(),
        }
    }

    fn input_size(&self) -> usize {
        self.w_ih.value.rows()
    }

    /// [`LstmLayer::forward`] appending every activation to the layer's
    /// arena for the backward pass.
    fn forward_recorded(
        &mut self,
        xs: &[f32],
        t_steps: usize,
        batch: usize,
        h: &mut Tensor,
        c: &mut Tensor,
    ) {
        let mut arena = std::mem::take(&mut self.arena);
        self.forward(xs, t_steps, batch, h, c, Sink::Arena(&mut arena));
        self.arena = arena;
    }

    /// Run `t_steps` teacher-forced steps over `xs` (`[t_steps·B, in]`
    /// row-major, step-major), updating `(h, c)` in place. The input
    /// projection for all steps is one GEMM; then each [`ROW_BLOCK`] of
    /// batch rows runs its whole recurrence (recurrent projection,
    /// activations, state update) as one pool task.
    fn forward(
        &self,
        xs: &[f32],
        t_steps: usize,
        batch: usize,
        h: &mut Tensor,
        c: &mut Tensor,
        sink: Sink<'_>,
    ) {
        let hsz = self.hidden;
        let in_sz = self.input_size();
        let g4 = 4 * hsz;
        debug_assert_eq!(xs.len(), t_steps * batch * in_sz);
        let (z, tanh_c, states) = match sink {
            Sink::Arena(arena) => {
                arena.x.extend_from_slice(xs);
                arena.steps += t_steps;
                let grow = |v: &mut Vec<f32>, width: usize| {
                    let base = v.len();
                    v.resize(base + t_steps * batch * width, 0.0);
                    SendPtr::new(v[base..].as_mut_ptr())
                };
                let (gates, tanh_c) = (grow(&mut arena.gates, g4), grow(&mut arena.tanh_c, hsz));
                let states = Some((grow(&mut arena.c, hsz), grow(&mut arena.h, hsz)));
                (gates, tanh_c, states)
            }
            Sink::Scratch(scratch) => {
                scratch.z.resize(t_steps * batch * g4, 0.0);
                scratch.tanh_c.resize(batch * hsz, 0.0);
                (
                    SendPtr::new(scratch.z.as_mut_ptr()),
                    SendPtr::new(scratch.tanh_c.as_mut_ptr()),
                    None,
                )
            }
        };
        // Fused input projection: [T·B, in]·[in, 4H] in one GEMM.
        // SAFETY: `z` points at the `t_steps·B·4H` floats sized above, and
        // no other reference to them is live.
        let z_all = unsafe { std::slice::from_raw_parts_mut(z.get(), t_steps * batch * g4) };
        matmul_into(xs, self.w_ih.value.data(), z_all, t_steps * batch, in_sz, g4);
        let kern = Kernels::get();
        // W_hh packed once for every step of every block, unless the batch
        // is a few rows (the B = 1 inference step), which read it in place
        // as the GEMM entry points do. Both kernels run the same chains.
        let w_hh = self.w_hh.value.data();
        let w_hh_panel = (batch > UNPACKED_MAX_ROWS).then(|| {
            let mut panel = Vec::new();
            kern.pack_b(w_hh, hsz, g4, &mut panel);
            panel
        });
        let rec = Recurrence {
            layer: self,
            kern,
            w_hh_panel,
            t_steps,
            batch,
            z,
            h: SendPtr::new(h.data_mut().as_mut_ptr()),
            c: SendPtr::new(c.data_mut().as_mut_ptr()),
            tanh_c,
            states,
        };
        let n_blocks = batch.div_ceil(ROW_BLOCK);
        let task = |blk: usize| rec.block(blk * ROW_BLOCK..((blk + 1) * ROW_BLOCK).min(batch));
        // One block runs here directly: a B = 1 inference step touches no
        // pool state.
        if n_blocks == 1 {
            task(0);
        } else {
            pool::run(n_blocks, &task);
        }
    }

    /// BPTT over the recorded arena. `d_top` is `[T·B, H]`, the gradient
    /// w.r.t. this layer's hidden outputs (upstream + cross-layer). Returns
    /// `[T·B, in]`, the gradient w.r.t. the layer inputs. The elementwise
    /// gate gradients and the `dh`/`dc` carries run t-descending, one pool
    /// task per [`ROW_BLOCK`] of batch rows; all weight gradients are fused
    /// GEMMs over the stacked sequence. Assumes the zero initial state
    /// `begin_sequence` creates.
    fn backward_batch(&mut self, d_top: &[f32], t_steps: usize, batch: usize) -> Vec<f32> {
        let hsz = self.hidden;
        let g4 = 4 * hsz;
        let bh = batch * hsz;
        debug_assert_eq!(self.arena.steps, t_steps);
        debug_assert_eq!(d_top.len(), t_steps * bh);
        let mut dz = vec![0.0f32; t_steps * batch * g4];
        let dzp = SendPtr::new(dz.as_mut_ptr());
        let (arena, w_hh) = (&self.arena, self.w_hh.value.data());
        let task = |blk: usize| {
            let r0 = blk * ROW_BLOCK;
            let nb = ROW_BLOCK.min(batch - r0);
            let at =
                |t: usize, width: usize| (t * batch + r0) * width..(t * batch + r0 + nb) * width;
            let mut dh = vec![0.0f32; nb * hsz];
            let mut dh_carry = vec![0.0f32; nb * hsz];
            let mut dc_carry = vec![0.0f32; nb * hsz];
            for t in (0..t_steps).rev() {
                for ((d, &top), &carry) in dh.iter_mut().zip(&d_top[at(t, hsz)]).zip(&dh_carry) {
                    *d = top + carry;
                }
                let gates = &arena.gates[at(t, g4)];
                let tanh_c = &arena.tanh_c[at(t, hsz)];
                let c_prev = (t > 0).then(|| &arena.c[at(t - 1, hsz)]);
                // SAFETY: `dz` holds `t_steps·B·4H` floats and outlives the
                // pool run; this block is the only task touching its rows.
                let dz_t = unsafe { step_rows(dzp, at(t, g4)) };
                for r in 0..nb {
                    let grow = &gates[r * g4..(r + 1) * g4];
                    let zrow = &mut dz_t[r * g4..(r + 1) * g4];
                    for j in 0..hsz {
                        let idx = r * hsz + j;
                        let (iv, fv, gv, ov) =
                            (grow[j], grow[hsz + j], grow[2 * hsz + j], grow[3 * hsz + j]);
                        let tc = tanh_c[idx];
                        let dhv = dh[idx];
                        // dc = dc_carry + dh ⊙ o ⊙ (1 − tanh²(c))
                        let dc = dc_carry[idx] + dhv * ov * (1.0 - tc * tc);
                        let cp = c_prev.map_or(0.0, |c| c[idx]);
                        zrow[j] = dc * gv * iv * (1.0 - iv);
                        zrow[hsz + j] = dc * cp * fv * (1.0 - fv);
                        zrow[2 * hsz + j] = dc * iv * (1.0 - gv * gv);
                        zrow[3 * hsz + j] = dhv * tc * ov * (1.0 - ov);
                        dc_carry[idx] = dc * fv;
                    }
                }
                // dh_prev = dz_t · W_hhᵀ (nothing precedes step 0).
                if t > 0 {
                    matmul_a_bt_into(dz_t, w_hh, &mut dh_carry, nb, g4, hsz);
                }
            }
        };
        pool::run(batch.div_ceil(ROW_BLOCK), &task);
        // Fused parameter gradients over the stacked sequence, the two
        // products as concurrent tasks: dW_ih += Xᵀ·DZ, and dW_hh +=
        // H_prevᵀ·DZ with db += column sums of DZ.
        let in_sz = self.input_size();
        let (arena, dz) = (&self.arena, &dz);
        let d_ih = Mutex::new(self.w_ih.grad.data_mut());
        let d_hh_b = Mutex::new((self.w_hh.grad.data_mut(), self.b.grad.data_mut()));
        pool::run(2, &|i| {
            if i == 0 {
                let mut d_ih = d_ih.lock().unwrap_or_else(PoisonError::into_inner);
                matmul_at_b_acc_into(&arena.x, dz, &mut d_ih, t_steps * batch, in_sz, g4);
                return;
            }
            let mut guard = d_hh_b.lock().unwrap_or_else(PoisonError::into_inner);
            let (d_hh, db) = &mut *guard;
            if t_steps > 1 {
                // H_prev is H shifted one step (zero rows at t = 0 drop out).
                let h_prev = &arena.h[..(t_steps - 1) * bh];
                let rows = (t_steps - 1) * batch;
                matmul_at_b_acc_into(h_prev, &dz[batch * g4..], d_hh, rows, hsz, g4);
            }
            col_sums_acc_slice(dz, db, g4);
        });
        // DX = DZ · W_ihᵀ.
        let mut dx = vec![0.0f32; t_steps * batch * in_sz];
        matmul_a_bt_into(dz, self.w_ih.value.data(), &mut dx, t_steps * batch, g4, in_sz);
        dx
    }
}

/// Rows per recurrence task. The recurrence never mixes batch rows and a
/// product's per-element chain depends only on its inner dimension, so a
/// block that runs all `T` steps of its own rows computes them bit for bit
/// as the whole batch does. A pure function of shape, like the GEMM chunks.
const ROW_BLOCK: usize = 32;

/// `range` of the buffer at `p`, as a slice.
// SAFETY: callers guarantee that the buffer holds at least `range.end`
// floats and outlives the slice, and that no other live reference touches
// `range` while the slice is used.
unsafe fn step_rows<'a>(p: SendPtr<f32>, range: std::ops::Range<usize>) -> &'a mut [f32] {
    // SAFETY: in bounds and unaliased by the caller's contract.
    unsafe { std::slice::from_raw_parts_mut(p.get().add(range.start), range.len()) }
}

/// One layer's forward recurrence over `t_steps` steps, shared by its row
/// block tasks. All buffers are step-major `[T, B, ·]` (`h`, `c` and the
/// unrecorded `tanh_c` are one step `[B, H]`); each task reads and writes
/// only its own rows of them.
struct Recurrence<'a> {
    layer: &'a LstmLayer,
    kern: Kernels,
    /// `W_hh` packed by `kern` for [`Kernels::gemm_rows_packed`], if packed.
    w_hh_panel: Option<Vec<f32>>,
    t_steps: usize,
    batch: usize,
    /// Input projections `[T, B, 4H]`, activated in place into the gates.
    z: SendPtr<f32>,
    /// The recurrent state `[B, H]`, updated in place.
    h: SendPtr<f32>,
    c: SendPtr<f32>,
    /// `tanh(c)`: `[T, B, H]` when recorded, else one step `[B, H]`.
    tanh_c: SendPtr<f32>,
    /// Recorded cell states and hidden outputs `[T, B, H]`.
    states: Option<(SendPtr<f32>, SendPtr<f32>)>,
}

impl Recurrence<'_> {
    /// Run every step for batch rows `rows`.
    fn block(&self, rows: std::ops::Range<usize>) {
        let layer = self.layer;
        let (hsz, batch, kern) = (layer.hidden, self.batch, self.kern);
        let g4 = 4 * hsz;
        let nb = rows.len();
        let at = |t: usize, width: usize| {
            (t * batch + rows.start) * width..(t * batch + rows.end) * width
        };
        // SAFETY: here and at every `step_rows` below, the buffers hold the
        // `[T, B, ·]` or `[B, ·]` floats documented on `Recurrence`, outlive
        // the pool run, and block tasks own disjoint row ranges.
        let (h, c) = unsafe { (step_rows(self.h, at(0, hsz)), step_rows(self.c, at(0, hsz))) };
        for t in 0..self.t_steps {
            // SAFETY: see above.
            let z_t = unsafe { step_rows(self.z, at(t, g4)) };
            match &self.w_hh_panel {
                Some(panel) => kern.gemm_rows_packed(z_t, h, panel, hsz, g4),
                None => matmul_acc_into(h, layer.w_hh.value.data(), z_t, nb, hsz, g4),
            }
            add_bias_rows_slice(z_t, layer.b.value.data(), g4);
            let step = if self.states.is_some() { t } else { 0 };
            // SAFETY: see above.
            let tanh_c = unsafe { step_rows(self.tanh_c, at(step, hsz)) };
            cell_update(kern, hsz, z_t, c, tanh_c, h);
            if let Some((c_rec, h_rec)) = self.states {
                // SAFETY: see above.
                unsafe { step_rows(c_rec, at(t, hsz)) }.copy_from_slice(c);
                // SAFETY: see above.
                unsafe { step_rows(h_rec, at(t, hsz)) }.copy_from_slice(h);
            }
        }
    }
}

/// One step's gates and state update for a block of rows: activate the
/// pre-activations `z` in place (sigmoid over i|f, tanh over g, sigmoid over
/// o), then `c ← f ⊙ c + i ⊙ g` (fused per element), `tanh_c ← tanh(c)`
/// and `h ← o ⊙ tanh(c)`.
fn cell_update(
    kern: Kernels,
    hsz: usize,
    z: &mut [f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    let g4 = 4 * hsz;
    for row in z.chunks_mut(g4) {
        kern.sigmoid(&mut row[..2 * hsz]);
        kern.tanh(&mut row[2 * hsz..3 * hsz]);
        kern.sigmoid(&mut row[3 * hsz..]);
    }
    for (r, row) in z.chunks(g4).enumerate() {
        for j in 0..hsz {
            let idx = r * hsz + j;
            c[idx] = row[hsz + j].mul_add(c[idx], row[j] * row[2 * hsz + j]);
        }
    }
    tanh_c.copy_from_slice(c);
    kern.tanh(tanh_c);
    for (r, row) in z.chunks(g4).enumerate() {
        for j in 0..hsz {
            h[r * hsz + j] = row[3 * hsz + j] * tanh_c[r * hsz + j];
        }
    }
}

/// Recurrent state: one (h, c) pair per layer, batch-major, plus the
/// scratch an inference step computes through — so stepping needs only a
/// shared `&Lstm`, and every worker owns its own state.
#[derive(Clone)]
pub struct LstmState {
    h: Vec<Tensor>,
    c: Vec<Tensor>,
    scratch: GateScratch,
}

impl LstmState {
    /// Back to the zero state [`Lstm::begin_sequence`] creates, in place —
    /// how a per-trace inference loop starts its next sequence without
    /// reallocating.
    pub fn reset(&mut self) {
        for t in self.h.iter_mut().chain(self.c.iter_mut()) {
            t.data_mut().fill(0.0);
        }
    }

    /// The top layer's hidden output `[B, hidden]` after the latest step.
    pub fn output(&self) -> &[f32] {
        self.h.last().map_or(&[], |h| h.data())
    }
}

/// Stacked LSTM.
#[derive(Clone)]
pub struct Lstm {
    layers: Vec<LstmLayer>,
    input_size: usize,
    hidden: usize,
    steps: usize,
}

impl Lstm {
    /// New stacked LSTM: `input_size` → `hidden` × `num_layers`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        input_size: usize,
        hidden: usize,
        num_layers: usize,
    ) -> Self {
        assert!(num_layers >= 1);
        let mut layers = Vec::with_capacity(num_layers);
        layers.push(LstmLayer::new(rng, input_size, hidden));
        for _ in 1..num_layers {
            layers.push(LstmLayer::new(rng, hidden, hidden));
        }
        Self { layers, input_size, hidden, steps: 0 }
    }

    /// Input feature size.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Fresh zero state for a batch; also clears any recorded sequence.
    pub fn begin_sequence(&mut self, batch: usize) -> LstmState {
        for l in &mut self.layers {
            l.arena.clear();
        }
        self.steps = 0;
        self.zero_state(batch)
    }

    /// Fresh zero state for a batch, leaving any recorded sequence alone —
    /// what an inference worker steps a shared network with.
    pub fn zero_state(&self, batch: usize) -> LstmState {
        let zeros = || (0..self.layers.len()).map(|_| Tensor::zeros(&[batch, self.hidden]));
        LstmState { h: zeros().collect(), c: zeros().collect(), scratch: GateScratch::default() }
    }

    /// One time step over a [B, input] batch; returns the top-layer output.
    /// Records the step for [`Lstm::backward_sequence`].
    pub fn step(&mut self, x: &Tensor, state: &mut LstmState) -> Tensor {
        assert_eq!(x.cols(), self.input_size, "LSTM input size");
        let batch = state.h[0].rows();
        for (l, layer) in self.layers.iter_mut().enumerate() {
            // Layer l reads the hidden output layer l−1 just wrote.
            let (below, at) = state.h.split_at_mut(l);
            let input = below.last().map_or(x.data(), |h| h.data());
            layer.forward_recorded(input, 1, batch, &mut at[0], &mut state.c[l]);
        }
        self.steps += 1;
        Tensor::from_vec(&[x.rows(), self.hidden], state.output().to_vec())
    }

    /// Step without caching (inference path).
    pub fn step_inference(&self, x: &Tensor, state: &mut LstmState) -> Tensor {
        assert_eq!(x.cols(), self.input_size, "LSTM input size");
        self.step_rows_inference(x.data(), state);
        Tensor::from_vec(&[x.rows(), self.hidden], state.output().to_vec())
    }

    /// [`Lstm::step_inference`] on a row-major `[B, input]` slice, leaving
    /// the output in [`LstmState::output`]: no tensor is built, so a warm
    /// step allocates nothing. Reads the network only; everything it writes
    /// is in `state`.
    pub fn step_rows_inference(&self, x: &[f32], state: &mut LstmState) {
        let LstmState { h, c, scratch } = state;
        let batch = h[0].rows();
        assert_eq!(x.len(), batch * self.input_size, "LSTM step input is [B, input]");
        for (l, layer) in self.layers.iter().enumerate() {
            // Layer l reads the hidden output layer l−1 just wrote.
            let (below, at) = h.split_at_mut(l);
            let input = below.last().map_or(x, |h| h.data());
            layer.forward(input, 1, batch, &mut at[0], &mut c[l], Sink::Scratch(scratch));
        }
    }

    /// Teacher-forced training forward over a whole sequence: `xs` is
    /// `[t_steps·B, input]`, step-major (step `t` occupies rows
    /// `t·B..(t+1)·B`). Returns the top-layer outputs `[t_steps·B, hidden]`.
    /// Bit-identical to `t_steps` calls of [`Lstm::step`], but each layer's
    /// input projection is one fused GEMM over all steps.
    pub fn forward_sequence(
        &mut self,
        xs: &Tensor,
        t_steps: usize,
        state: &mut LstmState,
    ) -> Tensor {
        assert_eq!(xs.cols(), self.input_size, "LSTM input size");
        assert_eq!(xs.rows() % t_steps.max(1), 0, "rows must be t_steps × batch");
        let batch = xs.rows() / t_steps.max(1);
        let nl = self.layers.len();
        for l in 0..nl {
            let (head, tail) = self.layers.split_at_mut(l);
            let layer = &mut tail[0];
            // Layer l's input is layer l−1's arena-recorded hidden outputs
            // for this call (no copy).
            let input: &[f32] = if l == 0 {
                xs.data()
            } else {
                let ha = &head[l - 1].arena.h;
                &ha[ha.len() - t_steps * batch * self.hidden..]
            };
            layer.forward_recorded(input, t_steps, batch, &mut state.h[l], &mut state.c[l]);
        }
        self.steps += t_steps;
        let ha = &self.layers[nl - 1].arena.h;
        let out = ha[ha.len() - t_steps * batch * self.hidden..].to_vec();
        Tensor::from_vec(&[t_steps * batch, self.hidden], out)
    }

    /// Full BPTT over the recorded sequence.
    ///
    /// `grad_tops[t]` is the loss gradient w.r.t. the top-layer output of
    /// step `t`. Returns gradients w.r.t. the inputs of each step, in forward
    /// order. Parameter gradients accumulate into the layer parameters.
    pub fn backward_sequence(&mut self, grad_tops: &[Tensor]) -> Vec<Tensor> {
        let steps = self.steps;
        assert_eq!(grad_tops.len(), steps, "one output grad per recorded step");
        assert!(steps > 0, "backward on empty sequence");
        let batch = grad_tops[0].rows();
        // Stack the per-step top gradients into [T·B, H].
        let mut d_above: Vec<f32> = Vec::with_capacity(steps * batch * self.hidden);
        for g in grad_tops {
            assert_eq!(g.rows(), batch);
            d_above.extend_from_slice(g.data());
        }
        for l in (0..self.layers.len()).rev() {
            d_above = self.layers[l].backward_batch(&d_above, steps, batch);
        }
        for l in &mut self.layers {
            l.arena.clear();
        }
        self.steps = 0;
        // Split layer-0 DX back into per-step tensors.
        let in_sz = self.input_size;
        (0..steps)
            .map(|t| {
                Tensor::from_vec(
                    &[batch, in_sz],
                    d_above[t * batch * in_sz..(t + 1) * batch * in_sz].to_vec(),
                )
            })
            .collect()
    }
}

impl Module for Lstm {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        for (i, l) in self.layers.iter_mut().enumerate() {
            f(&format!("{prefix}/l{i}/w_ih"), &mut l.w_ih);
            f(&format!("{prefix}/l{i}/w_hh"), &mut l.w_hh);
            f(&format!("{prefix}/l{i}/b"), &mut l.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_loss(lstm: &mut Lstm, xs: &[Tensor]) -> f64 {
        let mut st = lstm.begin_sequence(xs[0].rows());
        let mut total = 0.0;
        for x in xs {
            let y = lstm.step_inference(x, &mut st);
            total += y.sum();
        }
        total
    }

    #[test]
    fn output_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = Lstm::new(&mut rng, 5, 7, 2);
        let mut st = lstm.begin_sequence(3);
        let x = Tensor::full(&[3, 5], 0.1);
        let y = lstm.step(&x, &mut st);
        assert_eq!(y.shape(), &[3, 7]);
        assert_eq!(lstm.num_layers(), 2);
        assert_eq!(lstm.num_params(), (5 * 28 + 7 * 28 + 28) + (7 * 28 + 7 * 28 + 28));
    }

    #[test]
    fn bptt_input_gradients_match_fd() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lstm = Lstm::new(&mut rng, 3, 4, 2);
        let xs: Vec<Tensor> =
            (0..3).map(|_| Tensor::from_fn(&[2, 3], |_| rng.gen_range(-1.0..1.0))).collect();
        // Forward with caching, loss = sum of all step outputs.
        let mut st = lstm.begin_sequence(2);
        let mut grads = Vec::new();
        for x in &xs {
            let y = lstm.step(x, &mut st);
            grads.push(Tensor::full(y.shape(), 1.0));
        }
        let dxs = lstm.backward_sequence(&grads);
        let eps = 1e-3f32;
        for (t, x) in xs.iter().enumerate() {
            for idx in [0usize, 3, 5] {
                let mut xsp = xs.clone();
                xsp[t].data_mut()[idx] += eps;
                let mut xsm = xs.clone();
                xsm[t].data_mut()[idx] -= eps;
                let num = ((run_loss(&mut lstm, &xsp) - run_loss(&mut lstm, &xsm))
                    / (2.0 * eps as f64)) as f32;
                let ana = dxs[t].data()[idx];
                assert!(
                    (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                    "step {t} idx {idx}: {num} vs {ana}"
                );
            }
            let _ = x;
        }
    }

    #[test]
    fn bptt_param_gradients_match_fd() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lstm = Lstm::new(&mut rng, 2, 3, 1);
        let xs: Vec<Tensor> =
            (0..4).map(|_| Tensor::from_fn(&[1, 2], |_| rng.gen_range(-1.0..1.0))).collect();
        let mut st = lstm.begin_sequence(1);
        let mut grads = Vec::new();
        for x in &xs {
            let y = lstm.step(x, &mut st);
            grads.push(Tensor::full(y.shape(), 1.0));
        }
        let _ = lstm.backward_sequence(&grads);
        let eps = 1e-3f32;
        // Spot-check w_hh and bias grads against finite differences.
        let grad_whh = lstm.layers[0].w_hh.grad.clone();
        let grad_b = lstm.layers[0].b.grad.clone();
        for idx in [0usize, 7, 20] {
            let orig = lstm.layers[0].w_hh.value.data()[idx];
            lstm.layers[0].w_hh.value.data_mut()[idx] = orig + eps;
            let fp = run_loss(&mut lstm, &xs);
            lstm.layers[0].w_hh.value.data_mut()[idx] = orig - eps;
            let fm = run_loss(&mut lstm, &xs);
            lstm.layers[0].w_hh.value.data_mut()[idx] = orig;
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - grad_whh.data()[idx]).abs() < 3e-2 * (1.0 + num.abs()),
                "w_hh[{idx}]: {num} vs {}",
                grad_whh.data()[idx]
            );
        }
        for idx in [0usize, 5, 11] {
            let orig = lstm.layers[0].b.value.data()[idx];
            lstm.layers[0].b.value.data_mut()[idx] = orig + eps;
            let fp = run_loss(&mut lstm, &xs);
            lstm.layers[0].b.value.data_mut()[idx] = orig - eps;
            let fm = run_loss(&mut lstm, &xs);
            lstm.layers[0].b.value.data_mut()[idx] = orig;
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - grad_b.data()[idx]).abs() < 3e-2 * (1.0 + num.abs()),
                "b[{idx}]: {num} vs {}",
                grad_b.data()[idx]
            );
        }
    }

    #[test]
    fn state_carries_information() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lstm = Lstm::new(&mut rng, 2, 4, 1);
        let mut st = lstm.begin_sequence(1);
        let x1 = Tensor::full(&[1, 2], 1.0);
        let x0 = Tensor::full(&[1, 2], 0.0);
        let _ = lstm.step_inference(&x1, &mut st);
        let y_with_history = lstm.step_inference(&x0, &mut st);
        let mut st2 = lstm.begin_sequence(1);
        let y_fresh = lstm.step_inference(&x0, &mut st2);
        // Same input, different state ⇒ different output.
        let diff: f32 =
            y_with_history.data().iter().zip(y_fresh.data()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4);
    }

    #[test]
    fn shared_lstm_steps_on_two_threads_like_serially() {
        // Two workers step one `&Lstm`, each with its own state (and so its
        // own gate scratch), in lockstep: bitwise what each sequence gives
        // alone.
        let lstm = Lstm::new(&mut StdRng::seed_from_u64(4), 6, 8, 2);
        let mut data_rng = StdRng::seed_from_u64(5);
        let seqs: Vec<Vec<Vec<f32>>> = (0..2)
            .map(|_| {
                (0..40).map(|_| (0..6).map(|_| data_rng.gen_range(-1.0..1.0)).collect()).collect()
            })
            .collect();
        let run = |xs: &[Vec<f32>], lockstep: Option<&std::sync::Barrier>| {
            let mut state = lstm.zero_state(1);
            let mut out = Vec::new();
            for x in xs {
                if let Some(barrier) = lockstep {
                    barrier.wait();
                }
                lstm.step_rows_inference(x, &mut state);
                out.extend_from_slice(state.output());
            }
            out
        };
        let serial: Vec<Vec<f32>> = seqs.iter().map(|xs| run(xs, None)).collect();
        let barrier = std::sync::Barrier::new(seqs.len());
        let shared: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                seqs.iter().map(|xs| s.spawn(|| run(xs, Some(&barrier)))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in serial.iter().zip(&shared) {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn time_batched_forward_backward_matches_stepwise_exactly() {
        let (t_steps, batch, in_sz, hidden, layers) = (5usize, 3usize, 4, 6, 2);
        let mk = || Lstm::new(&mut StdRng::seed_from_u64(7), in_sz, hidden, layers);
        let mut data_rng = StdRng::seed_from_u64(8);
        let xs: Vec<Tensor> = (0..t_steps)
            .map(|_| Tensor::from_fn(&[batch, in_sz], |_| data_rng.gen_range(-1.0..1.0)))
            .collect();
        let grads: Vec<Tensor> = (0..t_steps)
            .map(|_| Tensor::from_fn(&[batch, hidden], |_| data_rng.gen_range(-1.0..1.0)))
            .collect();

        // Step-wise path.
        let mut a = mk();
        let mut st = a.begin_sequence(batch);
        let step_outs: Vec<Tensor> = xs.iter().map(|x| a.step(x, &mut st)).collect();
        let dxs_a = a.backward_sequence(&grads);

        // Time-batched path.
        let mut b = mk();
        let mut stacked = Vec::new();
        for x in &xs {
            stacked.extend_from_slice(x.data());
        }
        let stacked = Tensor::from_vec(&[t_steps * batch, in_sz], stacked);
        let mut st_b = b.begin_sequence(batch);
        let out_b = b.forward_sequence(&stacked, t_steps, &mut st_b);
        let dxs_b = b.backward_sequence(&grads);

        // Outputs, input gradients, and parameter gradients: bitwise equal.
        for (t, yo) in step_outs.iter().enumerate() {
            let rows = &out_b.data()[t * batch * hidden..(t + 1) * batch * hidden];
            assert_eq!(yo.data(), rows, "step {t} output");
            assert_eq!(dxs_a[t].data(), dxs_b[t].data(), "step {t} dx");
        }
        let mut grads_a = Vec::new();
        a.visit_params("lstm", &mut |_, p| grads_a.push(p.grad.clone()));
        let mut i = 0;
        b.visit_params("lstm", &mut |name, p| {
            assert_eq!(grads_a[i].data(), p.grad.data(), "param grad {name}");
            i += 1;
        });
    }

    /// A 37-row batch runs as a 32-row and a 5-row block: each row's
    /// outputs and input gradients are those of a batch holding its block's
    /// rows alone, serially and on the pool.
    #[test]
    fn row_blocks_compute_rows_as_alone() {
        let (t_steps, batch, in_sz, hidden) = (4usize, 37usize, 5, 8);
        let mut data_rng = StdRng::seed_from_u64(9);
        let xs: Vec<Vec<f32>> = (0..t_steps)
            .map(|_| (0..batch * in_sz).map(|_| data_rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let gs: Vec<Vec<f32>> = (0..t_steps)
            .map(|_| (0..batch * hidden).map(|_| data_rng.gen_range(-1.0..1.0)).collect())
            .collect();
        // Outputs then input gradients, step-major, of rows `rows`.
        let run = |rows: std::ops::Range<usize>| {
            let nb = rows.len();
            let mut lstm = Lstm::new(&mut StdRng::seed_from_u64(10), in_sz, hidden, 1);
            let pick = |v: &[f32], w: usize| v[rows.start * w..rows.end * w].to_vec();
            let stacked: Vec<f32> = xs.iter().flat_map(|x| pick(x, in_sz)).collect();
            let mut st = lstm.begin_sequence(nb);
            let stacked = Tensor::from_vec(&[t_steps * nb, in_sz], stacked);
            let out = lstm.forward_sequence(&stacked, t_steps, &mut st).into_data();
            let grads: Vec<Tensor> =
                gs.iter().map(|g| Tensor::from_vec(&[nb, hidden], pick(g, hidden))).collect();
            let dxs = lstm.backward_sequence(&grads);
            (out, dxs.into_iter().map(Tensor::into_data).collect::<Vec<_>>())
        };
        for parallel in [false, true] {
            let (out, dxs) = etalumis_tensor::pool::with_parallel(parallel, || run(0..batch));
            for block in [0..32, 32..batch] {
                let (b_out, b_dxs) = run(block.clone());
                let nb = block.len();
                for t in 0..t_steps {
                    let at = |w: usize| (t * batch + block.start) * w..(t * batch + block.end) * w;
                    assert_eq!(&out[at(hidden)], &b_out[t * nb * hidden..(t + 1) * nb * hidden]);
                    let rows = block.start * in_sz..block.end * in_sz;
                    assert_eq!(&dxs[t][rows], &b_dxs[t][..], "step {t} dx, parallel {parallel}");
                }
            }
        }
    }
}
