//! The dynamic 3DCNN–LSTM inference-compilation network (paper §4.3).
//!
//! One LSTM core and one 3DCNN observation encoder are shared across all
//! sample statements; *address-specific* components (address embeddings,
//! previous-sample embeddings, proposal layers) are attached dynamically —
//! "these address-specific layers are created at the first encounter with a
//! random number draw at a given address", so the parameter count grows with
//! the training data.
//!
//! Each LSTM input is the concatenation of the observation embedding, the
//! current address embedding, and the previous sample's embedding; each
//! output feeds the address-specific proposal layer (mixture of truncated
//! normals for bounded continuous priors, categorical for discrete priors,
//! Gaussian for unbounded priors).
//!
//! Training processes *sub-minibatches* of traces sharing one trace type in
//! a single batched forward/backward pass (Algorithm 1); inference drives
//! the same network step-by-step as a [`ProposalProvider`]: the 3DCNN embeds
//! the observation once per posterior ([`ProposalProvider::condition`], the
//! one `&mut` call), and each sample statement then costs one B = 1 LSTM
//! step and one head forward that read the network through `&self` and
//! write only the calling worker's [`IcState`]. Within a posterior only the
//! previous-sample part of an LSTM input changes, so the worker keeps, per
//! address it has visited, the first layer's input projection over the
//! observation and address embeddings, and each step multiplies only the
//! sample embedding's columns (see [`IcState`]).

use etalumis_core::Address;
use etalumis_data::TraceRecord;
use etalumis_distributions::{Distribution, Value};
use etalumis_inference::ProposalProvider;
use etalumis_nn::{
    CategoricalHead, Cnn3d, Cnn3dConfig, Embedding, Lstm, LstmState, MixtureTnHead, MlpScratch,
    Module, NormalHead, Parameter, SampleEmbedding,
};
use etalumis_telemetry::Telemetry;
use etalumis_tensor::{pool, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Architecture hyperparameters.
#[derive(Clone, Debug)]
pub struct IcConfig {
    /// Observation encoder configuration.
    pub cnn: Cnn3dConfig,
    /// LSTM hidden units (paper: 512).
    pub lstm_hidden: usize,
    /// Stacked LSTM layers (paper: 1 after the hyperparameter search).
    pub lstm_stacks: usize,
    /// Address embedding size (paper: 64).
    pub address_embed_dim: usize,
    /// Previous-sample embedding size (paper: 4).
    pub sample_embed_dim: usize,
    /// Hidden width of the two-layer proposal heads.
    pub proposal_hidden: usize,
    /// Truncated-normal mixture components (paper: 10).
    pub mixture_components: usize,
    /// Weight-init RNG seed (all ranks must share it).
    pub seed: u64,
}

impl IcConfig {
    /// The full paper architecture on 20×35×35 observations
    /// (LSTM 512×1, obs 256, address 64, sample 4, 10 mixture components).
    pub fn paper() -> Self {
        Self {
            cnn: Cnn3dConfig::paper(),
            lstm_hidden: 512,
            lstm_stacks: 1,
            address_embed_dim: 64,
            sample_embed_dim: 4,
            proposal_hidden: 64,
            mixture_components: 10,
            seed: 0,
        }
    }

    /// A laptop-scale configuration for a given observation shape. Tiny
    /// observations (any dimension < 4) get a pool-free CNN.
    pub fn small(obs_dims: [usize; 3], seed: u64) -> Self {
        let cnn = if obs_dims.iter().any(|&d| d < 4) {
            Cnn3dConfig::tiny(obs_dims, 16)
        } else {
            Cnn3dConfig::small(obs_dims, 32)
        };
        Self {
            cnn,
            lstm_hidden: 64,
            lstm_stacks: 1,
            address_embed_dim: 16,
            sample_embed_dim: 4,
            proposal_hidden: 32,
            mixture_components: 5,
            seed,
        }
    }

    /// LSTM input width: obs embed + address embed + sample embed.
    pub fn lstm_input(&self) -> usize {
        self.cnn.embedding_dim + self.address_embed_dim + self.sample_embed_dim
    }
}

/// Address-specific proposal layer.
#[derive(Clone)]
enum Head {
    Mixture(MixtureTnHead),
    Categorical(CategoricalHead),
    Normal(NormalHead),
}

/// All address-specific components for one address.
#[derive(Clone)]
struct AddressLayers {
    /// The address, which names the parameters.
    name: String,
    /// `name` as the [`Address`] whose qualified form it is (`None` when
    /// no address prints as `name`, so none can reach this slot).
    address: Option<Address>,
    /// Row in the address-embedding table.
    embed_id: usize,
    /// Previous-sample embedding (input width depends on the prior).
    sample_embed: SampleEmbedding,
    head: Head,
    /// Prior kind captured at registration (sanity checks).
    kind: &'static str,
}

/// How a value enters the sample embedding, given its prior: written over
/// `out`, whose length is the embedding's input width.
fn value_features_into(dist: &Distribution, value: &Value, out: &mut [f32]) {
    out.fill(0.0);
    match dist {
        Distribution::Categorical { .. } | Distribution::Bernoulli { .. } => {
            let i = value.as_i64() as usize;
            if i < out.len() {
                out[i] = 1.0;
            }
        }
        _ => {
            // Normalize continuous values by the prior's location/scale.
            let x = value.as_f64();
            let norm = match dist.support() {
                Some((lo, hi)) => (x - lo) / (hi - lo),
                None => (x - dist.mean()) / dist.std().max(1e-9),
            };
            out[0] = norm as f32;
        }
    }
}

/// Feature width of a prior's values.
fn value_width(dist: &Distribution) -> usize {
    match dist.num_categories() {
        Some(k) => k,
        None => 1,
    }
}

/// Fraction of prior mass mixed into categorical proposals at inference
/// time, protecting importance weights from overconfident networks.
const CATEGORICAL_PRIOR_MIX: f64 = 0.05;

/// Deterministic counts of the network work one posterior cost, reset at
/// [`ProposalProvider::condition`] (pure functions of the run, so they fit
/// the telemetry event-structure contract, and the same for any worker
/// count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InferenceStats {
    /// Observation embeddings (3DCNN forwards) — 1 once conditioned.
    pub conditions: u64,
    /// B = 1 LSTM steps: one per controlled sample at a registered address.
    pub lstm_steps: u64,
    /// Proposal distributions handed to the engine.
    pub proposals: u64,
}

impl InferenceStats {
    /// Emit the counts as `ic.conditions` / `ic.lstm_steps` / `ic.proposals`
    /// counters.
    pub fn record(&self, tel: &Telemetry) {
        tel.count("ic.conditions", self.conditions);
        tel.count("ic.lstm_steps", self.lstm_steps);
        tel.count("ic.proposals", self.proposals);
    }
}

/// The network's tally of [`InferenceStats`]: `condition` resets it under
/// `&mut`, and each worker adds its own counts once, when it retires its
/// state — not per step, so workers share no hot cache line.
#[derive(Default)]
struct StatsTally {
    conditions: u64,
    lstm_steps: AtomicU64,
    proposals: AtomicU64,
}

impl Clone for StatsTally {
    fn clone(&self) -> Self {
        Self {
            conditions: self.conditions,
            lstm_steps: AtomicU64::new(self.lstm_steps.load(Ordering::Relaxed)),
            proposals: AtomicU64::new(self.proposals.load(Ordering::Relaxed)),
        }
    }
}

/// One worker's proposal state ([`ProposalProvider::State`]): everything a
/// proposal step writes, so a warm step allocates nothing but the
/// distribution it returns, and any number of workers step one shared
/// network.
///
/// An LSTM input row is `[observation | address | previous sample]`, and
/// within one posterior only the last part changes. So the state keeps, for
/// each address it has proposed at, the first LSTM layer's input projection
/// over the first two parts, as [`Lstm::input_prefix`] leaves it: each
/// output element's unfinished fused multiply-add chain (and, past the
/// kernel's `KC` block, the sums of the blocks before). A step resumes those
/// chains over the sample embedding's columns only, so its gates are bit
/// for bit those of the full-row product. The cache is filled on an
/// address's first visit and grows with the addresses this worker visits —
/// `4·lstm_hidden` floats each, 1 KB at the small config's 64 units, and
/// twice that many at the paper's 512 units (16 KB), whose 320 constant
/// columns pass one block — never with the registry's size beyond a 4-byte
/// index per slot. It belongs to one conditioning and one set of weights:
/// `begin_trace` drops it when the network has been conditioned again or
/// had its parameters visited since.
///
/// A state comes from conditioning:
///
/// ```
/// use etalumis_distributions::Value;
/// use etalumis_inference::ProposalProvider;
/// use etalumis_train::{IcConfig, IcNetwork};
///
/// let mut net = IcNetwork::new(IcConfig::small([1, 1, 1], 0));
/// let mut state = net.condition(&Value::Real(0.5));
/// net.begin_trace(&mut state);
/// ```
///
/// and from nowhere else, so an unconditioned network has nothing to
/// propose with — proposing before conditioning does not compile:
///
/// ```compile_fail
/// use etalumis_inference::ProposalProvider;
/// use etalumis_train::{IcConfig, IcNetwork, IcState};
///
/// let net = IcNetwork::new(IcConfig::small([1, 1, 1], 0));
/// let mut state = IcState::default(); // no constructor but `condition`
/// net.begin_trace(&mut state);
/// ```
#[derive(Clone)]
pub struct IcState {
    /// The LSTM input row `[observation | address | previous sample]`
    /// embeddings. `begin_trace` writes the first part (from the network's
    /// embedding), `propose` the second, `notify` the third.
    input: Vec<f32>,
    lstm: LstmState,
    /// Sample-embedding input of the value just realized.
    feats: Vec<f32>,
    head: MlpScratch,
    /// The slot the last `propose` resolved, which `notify` reuses for the
    /// same address.
    slot: Option<usize>,
    /// Input-projection prefixes, one [`Lstm::input_prefix_len`] run per
    /// visited address, in visit order.
    prefixes: Vec<f32>,
    /// Per slot: 1 + the index of its run in `prefixes`, 0 before its first
    /// visit.
    prefix_at: Vec<u32>,
    /// The network's [`IcNetwork::generation`] the cache was filled under.
    generation: u64,
    /// Work counted since the state was made (`conditions` stays 0).
    stats: InferenceStats,
}

/// Fused loss and backward of `head` at step `t` of a sub-minibatch whose
/// traces' controlled `(prior, value)` pairs are `entries`; `h` is the step's
/// LSTM output `[B, hidden]`.
fn head_loss(
    head: &mut Head,
    h: &Tensor,
    entries: &[Vec<(&Distribution, &Value)>],
    t: usize,
) -> (f64, Tensor) {
    match head {
        Head::Categorical(head) => {
            let targets: Vec<usize> = entries.iter().map(|e| e[t].1.as_i64() as usize).collect();
            head.loss_and_grad(h, &targets)
        }
        Head::Mixture(head) => {
            let b = entries.len();
            let mut targets = Vec::with_capacity(b);
            let mut lows = Vec::with_capacity(b);
            let mut highs = Vec::with_capacity(b);
            for e in entries {
                let (dist, value) = e[t];
                let (lo, hi) = dist.support().expect("mixture head needs support"); // etalumis: allow(panic-freedom, reason = "mixture heads are only constructed for bounded distributions")
                targets.push(value.as_f64());
                lows.push(lo);
                highs.push(hi);
            }
            head.loss_and_grad(h, &targets, &lows, &highs)
        }
        Head::Normal(head) => {
            let targets: Vec<f64> = entries.iter().map(|e| e[t].1.as_f64()).collect();
            head.loss_and_grad(h, &targets)
        }
    }
}

/// The dynamic inference-compilation network. A clone is a data-parallel
/// replica: same registered addresses, same weights, bit for bit.
#[derive(Clone)]
pub struct IcNetwork {
    /// Architecture.
    pub config: IcConfig,
    cnn: Cnn3d,
    lstm: Lstm,
    address_table: Embedding,
    /// Slot of each registered address in `addresses`.
    index: HashMap<String, usize>,
    /// The same slots by [`Address`] parts — base, then `(instance, slot)`
    /// — so a proposal resolves its address without formatting it.
    by_base: HashMap<String, Vec<(u32, usize)>>,
    /// Address-specific layers in registration order (stable parameter
    /// naming); slot `i` owns row `i` of the address table.
    addresses: Vec<AddressLayers>,
    frozen: bool,
    rng: StdRng,
    /// Per-call phase timing of the last loss computation (forward, backward).
    pub last_phase_secs: (f64, f64),
    /// The observation embedding the last [`ProposalProvider::condition`]
    /// wrote: computed once per posterior, read by every worker.
    embedding: Vec<f32>,
    stats: StatsTally,
    /// Bumped by every `condition` and every parameter visit: a worker's
    /// cached input prefixes are valid only under the generation they were
    /// computed in.
    generation: u64,
}

impl IcNetwork {
    /// Build an empty network (no address-specific layers yet).
    pub fn new(config: IcConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let cnn = Cnn3d::new(&mut rng, config.cnn.clone());
        let lstm = Lstm::new(&mut rng, config.lstm_input(), config.lstm_hidden, config.lstm_stacks);
        let address_table = Embedding::new(&mut rng, 0, config.address_embed_dim);
        Self {
            config,
            cnn,
            lstm,
            address_table,
            index: HashMap::new(),
            by_base: HashMap::new(),
            addresses: Vec::new(),
            frozen: false,
            rng,
            last_phase_secs: (0.0, 0.0),
            embedding: Vec::new(),
            stats: StatsTally::default(),
            generation: 0,
        }
    }

    /// Network work counted since the last [`ProposalProvider::condition`],
    /// over every worker state retired since.
    pub fn inference_stats(&self) -> InferenceStats {
        InferenceStats {
            conditions: self.stats.conditions,
            lstm_steps: self.stats.lstm_steps.load(Ordering::Relaxed),
            proposals: self.stats.proposals.load(Ordering::Relaxed),
        }
    }

    /// Where the address and previous-sample embeddings start in the LSTM
    /// input row.
    fn input_offsets(&self) -> (usize, usize) {
        let addr = self.config.cnn.embedding_dim;
        (addr, addr + self.config.address_embed_dim)
    }

    /// The slot registered for `address`, found without formatting it.
    fn resolve(&self, address: &Address) -> Option<usize> {
        let instances = self.by_base.get(address.base.as_str())?;
        instances.iter().find(|&&(i, _)| i == address.instance).map(|&(_, slot)| slot)
    }

    /// Where `slot`'s input-projection prefix lies in `state.prefixes`,
    /// computing it on the slot's first visit from the observation
    /// embedding (already in `state.input`) and the address embedding.
    fn prefix_of(&self, state: &mut IcState, slot: usize) -> std::ops::Range<usize> {
        let (addr, prev) = self.input_offsets();
        let width = self.lstm.input_prefix_len(prev);
        if state.prefix_at.len() <= slot {
            state.prefix_at.resize(slot + 1, 0);
        }
        let at = match state.prefix_at[slot] {
            0 => {
                let at = state.prefixes.len();
                let embed_id = self.addresses[slot].embed_id;
                state.input[addr..prev]
                    .copy_from_slice(self.address_table.table.value.row(embed_id));
                state.prefixes.resize(at + width, 0.0);
                self.lstm.input_prefix(&state.input[..prev], &mut state.prefixes[at..]);
                state.prefix_at[slot] = (at / width + 1) as u32;
                at
            }
            entry => (entry as usize - 1) * width,
        };
        at..at + width
    }

    /// Number of registered addresses.
    pub fn num_addresses(&self) -> usize {
        self.addresses.len()
    }

    /// Freeze the architecture: unseen addresses are no longer registered
    /// (their traces are dropped from training, as in the paper's online
    /// allreduce mode, §4.4).
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Register one address with its prior; no-op if known or frozen.
    /// Returns false if the address is unknown and the net is frozen.
    pub fn register_address(&mut self, address: &str, prior: &Distribution) -> bool {
        if self.index.contains_key(address) {
            return true;
        }
        if self.frozen {
            return false;
        }
        let cfg = &self.config;
        let embed_id = self.address_table.len();
        self.address_table.grow(&mut self.rng, embed_id + 1);
        let sample_embed =
            SampleEmbedding::new(&mut self.rng, value_width(prior), cfg.sample_embed_dim);
        let head = match prior {
            Distribution::Categorical { probs } => Head::Categorical(CategoricalHead::new(
                &mut self.rng,
                cfg.lstm_hidden,
                cfg.proposal_hidden,
                probs.len(),
            )),
            Distribution::Bernoulli { .. } => Head::Categorical(CategoricalHead::new(
                &mut self.rng,
                cfg.lstm_hidden,
                cfg.proposal_hidden,
                2,
            )),
            d if d.support().is_some() => Head::Mixture(MixtureTnHead::new(
                &mut self.rng,
                cfg.lstm_hidden,
                cfg.proposal_hidden,
                cfg.mixture_components,
            )),
            d => Head::Normal(NormalHead::new(
                &mut self.rng,
                cfg.lstm_hidden,
                cfg.proposal_hidden,
                d.mean(),
                d.std().max(1e-6),
            )),
        };
        let slot = self.addresses.len();
        self.index.insert(address.to_string(), slot);
        let parsed = Some(Address::parse(address)).filter(|a| a.qualified() == address);
        if let Some(a) = &parsed {
            self.by_base.entry(a.base.clone()).or_default().push((a.instance, slot));
        }
        self.addresses.push(AddressLayers {
            name: address.to_string(),
            address: parsed,
            embed_id,
            sample_embed,
            head,
            kind: prior.kind(),
        });
        true
    }

    /// Pre-generate all address-specific layers implied by a dataset
    /// (offline mode, §4.4) and freeze. Ranks doing this with the same seed
    /// and the same dataset hold identical networks.
    pub fn pregenerate<'a>(&mut self, records: impl Iterator<Item = &'a TraceRecord>) {
        // Register in a canonical (sorted) order so every rank assigns the
        // same embedding ids regardless of dataset iteration order.
        let mut seen: Vec<(String, Distribution)> = Vec::new();
        let mut have: std::collections::HashSet<String> = std::collections::HashSet::new();
        for rec in records {
            for e in rec.controlled() {
                if have.insert(e.address.clone()) {
                    seen.push((e.address.clone(), e.distribution.clone()));
                }
            }
        }
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        for (addr, dist) in seen {
            self.register_address(&addr, &dist);
        }
        self.freeze();
    }

    /// True if every controlled address in the record is registered.
    pub fn knows(&self, rec: &TraceRecord) -> bool {
        rec.controlled().all(|e| self.index.contains_key(&e.address))
    }

    /// Algorithm 1 inner step: loss and gradients for a sub-minibatch of
    /// traces sharing one trace type. Returns the summed −log q loss, or
    /// `None` if the sub-minibatch references unknown addresses while frozen
    /// (such traces are dropped, as in the paper).
    ///
    /// Gradients accumulate into the network parameters; the caller is
    /// responsible for `zero_grad` / scaling / the optimizer step.
    pub fn loss_sub_minibatch(&mut self, records: &[&TraceRecord]) -> Option<f64> {
        assert!(!records.is_empty());
        let t0 = records[0].trace_type;
        assert!(
            records.iter().all(|r| r.trace_type == t0),
            "sub-minibatch must share one trace type"
        );
        let b = records.len();
        let n_steps = records[0].controlled().count();
        if n_steps == 0 {
            return Some(0.0);
        }
        // Register (online mode) or verify (frozen) all addresses.
        for rec in records {
            for e in rec.controlled() {
                if !self.register_address(&e.address, &e.distribution) {
                    return None;
                }
            }
        }
        // Each step's address slot.
        let steps: Vec<usize> = records[0].controlled().map(|e| self.index[&e.address]).collect();
        let fwd_start = Instant::now(); // etalumis: allow(determinism, reason = "forward-pass timing span; telemetry only")
                                        // Observation embedding, once per trace. Observations are reshaped
                                        // to the CNN's configured input volume.
        let dims = self.config.cnn.input_dims;
        let vol = dims[0] * dims[1] * dims[2];
        let mut obs_data = Vec::with_capacity(b * vol);
        for r in records {
            assert_eq!(
                r.observation.data.len(),
                vol,
                "observation size {:?} does not match CNN input {dims:?}",
                r.observation.shape
            );
            obs_data.extend_from_slice(&r.observation.data);
        }
        let obs = Tensor::from_vec(&[b, 1, dims[0], dims[1], dims[2]], obs_data);
        let obs_embed = self.cnn.forward(&obs);
        // Collect per-step prior/value info.
        let per_trace_entries: Vec<Vec<(&Distribution, &Value)>> = records
            .iter()
            .map(|r| r.controlled().map(|e| (&e.distribution, &e.value)).collect())
            .collect();
        let t_steps = steps.len();
        let mut state = self.lstm.begin_sequence(b);
        // Per-step previous-sample embeddings (zeros at t = 0); the
        // per-address modules cache for backward.
        let mut samp_embeds: Vec<Tensor> = Vec::with_capacity(t_steps);
        samp_embeds.push(Tensor::zeros(&[b, self.config.sample_embed_dim]));
        for t in 1..t_steps {
            let prev = &mut self.addresses[steps[t - 1]];
            let mut feats = Tensor::zeros(&[b, prev.sample_embed.in_dim()]);
            for (bi, entries) in per_trace_entries.iter().enumerate() {
                let (dist, value) = entries[t - 1];
                value_features_into(dist, value, feats.row_mut(bi));
            }
            samp_embeds.push(prev.sample_embed.forward(&feats));
        }
        let embed_ids: Vec<usize> =
            steps.iter().map(|&slot| self.addresses[slot].embed_id).collect();
        // Time-batched (§4.4.3): one address lookup for all T·B rows, one
        // stacked input tensor, one fused LSTM pass. The backward below
        // scatters address grads in reverse step order.
        let all_ids: Vec<usize> =
            embed_ids.iter().flat_map(|&id| std::iter::repeat_n(id, b)).collect();
        let addr_embed = self.address_table.forward_inference(&all_ids);
        let (w_obs, w_addr) = (self.config.cnn.embedding_dim, self.config.address_embed_dim);
        let in_w = self.config.lstm_input();
        let mut xs = vec![0.0f32; t_steps * b * in_w];
        for t in 0..t_steps {
            for bi in 0..b {
                let r = t * b + bi;
                let row = &mut xs[r * in_w..(r + 1) * in_w];
                row[..w_obs].copy_from_slice(obs_embed.row(bi));
                row[w_obs..w_obs + w_addr].copy_from_slice(addr_embed.row(r));
                row[w_obs + w_addr..].copy_from_slice(samp_embeds[t].row(bi));
            }
        }
        let xs = Tensor::from_vec(&[t_steps * b, in_w], xs);
        let out = self.lstm.forward_sequence(&xs, t_steps, &mut state);
        let hid = self.config.lstm_hidden;
        let hs: Vec<Tensor> = (0..t_steps)
            .map(|t| {
                Tensor::from_vec(&[b, hid], out.data()[t * b * hid..(t + 1) * b * hid].to_vec())
            })
            .collect();
        let forward_secs = fwd_start.elapsed().as_secs_f64();
        let bwd_start = Instant::now(); // etalumis: allow(determinism, reason = "backward-pass timing span; telemetry only")
        let (loss, dhs) = self.heads_loss(&steps, &hs, &per_trace_entries);
        // BPTT through the LSTM core.
        let dxs = self.lstm.backward_sequence(&dhs);
        // Split input grads back into the three embedding streams, walking
        // steps in reverse so each module pops its caches in reverse forward
        // order.
        let widths = [
            self.config.cnn.embedding_dim,
            self.config.address_embed_dim,
            self.config.sample_embed_dim,
        ];
        let mut d_obs_total = Tensor::zeros(&[b, widths[0]]);
        for t in (0..t_steps).rev() {
            let parts = dxs[t].split_cols(&widths);
            d_obs_total.add_assign(&parts[0]);
            // Sample embedding backward (only forwarded for t >= 1).
            if t > 0 {
                let _dfeats = self.addresses[steps[t - 1]].sample_embed.backward(&parts[2]);
            }
            self.address_table.scatter_grad(&vec![embed_ids[t]; b], &parts[1]);
        }
        self.cnn.backward(&d_obs_total);
        let backward_secs = bwd_start.elapsed().as_secs_f64();
        self.last_phase_secs = (forward_secs, backward_secs);
        Some(loss)
    }

    /// The proposal heads' fused loss and backward at every step of a
    /// sub-minibatch (`steps[t]` is step `t`'s address slot, `hs[t]` its
    /// LSTM output): the summed loss and the per-step `dh`.
    ///
    /// One pool task per distinct address, in order of first occurrence,
    /// runs that address's steps in ascending order, so each head
    /// accumulates its gradients as a serial walk over the steps would; the
    /// losses are summed in step order afterwards.
    fn heads_loss(
        &mut self,
        steps: &[usize],
        hs: &[Tensor],
        entries: &[Vec<(&Distribution, &Value)>],
    ) -> (f64, Vec<Tensor>) {
        let mut group_of: Vec<Option<usize>> = vec![None; self.addresses.len()];
        let mut group_steps: Vec<Vec<usize>> = Vec::new();
        for (t, &slot) in steps.iter().enumerate() {
            let g = *group_of[slot].get_or_insert_with(|| {
                group_steps.push(Vec::new());
                group_steps.len() - 1
            });
            group_steps[g].push(t);
        }
        let mut heads: Vec<(usize, &mut Head)> = self
            .addresses
            .iter_mut()
            .zip(&group_of)
            .filter_map(|(layers, g)| g.map(|g| (g, &mut layers.head)))
            .collect();
        heads.sort_by_key(|&(g, _)| g);
        let groups: Vec<_> = heads
            .into_iter()
            .zip(&group_steps)
            .map(|((_, head), steps)| Mutex::new((head, steps, Vec::with_capacity(steps.len()))))
            .collect();
        pool::run(groups.len(), &|g| {
            let mut group = groups[g].lock().unwrap_or_else(PoisonError::into_inner);
            let (head, steps, out) = &mut *group;
            for &t in steps.iter() {
                out.push((t, head_loss(head, &hs[t], entries, t)));
            }
        });
        let mut per_step: Vec<(usize, (f64, Tensor))> = groups
            .into_iter()
            .flat_map(|g| g.into_inner().unwrap_or_else(PoisonError::into_inner).2)
            .collect();
        per_step.sort_by_key(|&(t, _)| t);
        let mut loss = 0.0f64;
        let mut dhs = Vec::with_capacity(per_step.len());
        for (_, (l, dh)) in per_step {
            loss += l;
            dhs.push(dh);
        }
        (loss, dhs)
    }

    /// Analytic forward flop count for a sub-minibatch of `b` traces with
    /// `t_steps` LSTM steps (used for Table 2 Gflop/s reporting).
    pub fn forward_flops(&self, b: usize, t_steps: usize) -> u64 {
        let cfg = &self.config;
        let cnn = cfg.cnn.forward_flops(b);
        let lstm = etalumis_tensor::flops::lstm_sequence_flops(
            b as u64,
            t_steps as u64,
            cfg.lstm_input() as u64,
            cfg.lstm_hidden as u64,
            cfg.lstm_stacks as u64,
        );
        // Heads: two-layer MLPs per step.
        let head = etalumis_tensor::flops::linear_flops(
            b as u64,
            cfg.lstm_hidden as u64,
            cfg.proposal_hidden as u64,
        ) + etalumis_tensor::flops::linear_flops(
            b as u64,
            cfg.proposal_hidden as u64,
            (3 * cfg.mixture_components) as u64,
        );
        cnn + lstm + t_steps as u64 * head
    }
}

impl Module for IcNetwork {
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Parameter)) {
        // The visitor may change any weight a cached prefix was built from.
        self.generation += 1;
        self.cnn.visit_params(&format!("{prefix}/cnn"), f);
        self.lstm.visit_params(&format!("{prefix}/lstm"), f);
        self.address_table.visit_params(&format!("{prefix}/addr_table"), f);
        // Deterministic registration order gives stable names across ranks.
        for layers in &mut self.addresses {
            let p = format!("{prefix}/addr/{}", layers.name);
            layers.sample_embed.visit_params(&format!("{p}/sample"), f);
            match &mut layers.head {
                Head::Mixture(h) => h.visit_params(&format!("{p}/head"), f),
                Head::Categorical(h) => h.visit_params(&format!("{p}/head"), f),
                Head::Normal(h) => h.visit_params(&format!("{p}/head"), f),
            }
        }
    }
}

impl ProposalProvider for IcNetwork {
    type State = IcState;

    fn condition(&mut self, observation: &Value) -> IcState {
        let dims = self.config.cnn.input_dims;
        let volume = dims[0] * dims[1] * dims[2];
        let (shape, voxels): (&[usize], Vec<f32>) = match observation {
            Value::Tensor(t) => (t.shape.as_slice(), t.data.clone()),
            v if v.numel() == 1 => (&[], vec![v.as_f64() as f32]),
            _ => (&[], Vec::new()),
        };
        assert_eq!(
            voxels.len(),
            volume,
            "cannot condition on a {} observation of shape {shape:?} ({} values): this \
             network's 3DCNN encodes {dims:?} volumes ({volume} values)",
            observation.kind(),
            voxels.len(),
        );
        let x = Tensor::from_vec(&[1, 1, dims[0], dims[1], dims[2]], voxels);
        self.embedding = self.cnn.forward_inference(&x).data().to_vec();
        self.stats = StatsTally { conditions: 1, ..Default::default() };
        self.generation += 1;
        let mut input = vec![0.0; self.config.lstm_input()];
        input[..self.embedding.len()].copy_from_slice(&self.embedding);
        IcState {
            input,
            lstm: self.lstm.zero_state(1),
            feats: Vec::new(),
            head: MlpScratch::default(),
            slot: None,
            prefixes: Vec::new(),
            prefix_at: Vec::new(),
            generation: self.generation,
            stats: InferenceStats::default(),
        }
    }

    fn begin_trace(&self, state: &mut IcState) {
        let (addr, prev) = self.input_offsets();
        if state.generation != self.generation {
            // The observation, and no prefix computed from another one.
            state.input[..addr].copy_from_slice(&self.embedding);
            state.prefixes.clear();
            state.prefix_at.clear();
            state.generation = self.generation;
        }
        state.lstm.reset();
        // No previous sample at t = 0.
        state.input[prev..].fill(0.0);
        state.slot = None;
    }

    fn propose(
        &self,
        state: &mut IcState,
        address: &Address,
        prior: &Distribution,
    ) -> Option<Distribution> {
        let (_, prev) = self.input_offsets();
        state.slot = self.resolve(address);
        let slot = state.slot?;
        let layers = &self.addresses[slot];
        let at = self.prefix_of(state, slot);
        self.lstm.step_rows_resumed(&state.prefixes[at], &state.input[prev..], &mut state.lstm);
        state.stats.lstm_steps += 1;
        let h = state.lstm.output();
        let q = match &layers.head {
            Head::Mixture(head) => {
                let (lo, hi) = prior.support()?;
                head.proposal_row(h, &mut state.head, lo, hi)
            }
            Head::Normal(head) => head.proposal_row(h, &mut state.head),
            Head::Categorical(head) => {
                // Mix a sliver of prior mass in for importance-weight safety.
                match (head.proposal_row(h, &mut state.head), prior) {
                    (
                        Distribution::Categorical { probs: mut qp },
                        Distribution::Categorical { probs: pp },
                    ) if qp.len() == pp.len() => {
                        let total: f64 = pp.iter().sum(); // etalumis: allow(float-reduction, reason = "f64 prior-mass normalizer; sequential fixed order over one row")
                        for (q, &p) in qp.iter_mut().zip(pp.iter()) {
                            *q = (1.0 - CATEGORICAL_PRIOR_MIX) * *q
                                + CATEGORICAL_PRIOR_MIX * p / total;
                        }
                        Distribution::Categorical { probs: qp }
                    }
                    (q, _) => q,
                }
            }
        };
        let _ = layers.kind;
        state.stats.proposals += 1;
        Some(q)
    }

    fn notify(&self, state: &mut IcState, address: &Address, prior: &Distribution, value: &Value) {
        let (_, prev) = self.input_offsets();
        let slot = match state.slot {
            Some(s) if self.addresses[s].address.as_ref() == Some(address) => Some(s),
            _ => self.resolve(address),
        };
        if let Some(layers) = slot.map(|s| &self.addresses[s]) {
            // The next LSTM input carries this sample's embedding.
            state.feats.resize(layers.sample_embed.in_dim(), 0.0);
            value_features_into(prior, value, &mut state.feats);
            layers.sample_embed.forward_into(&state.feats, &mut state.input[prev..]);
        }
    }

    fn retire(&self, state: &mut IcState) {
        let done = std::mem::take(&mut state.stats);
        self.stats.lstm_steps.fetch_add(done.lstm_steps, Ordering::Relaxed);
        self.stats.proposals.fetch_add(done.proposals, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etalumis_core::{Executor, ObserveMap};
    use etalumis_nn::Cnn3dConfig;
    use etalumis_simulators::BranchingModel;

    fn small_records(n: usize) -> Vec<TraceRecord> {
        let mut m = BranchingModel::standard();
        (0..n)
            .map(|s| TraceRecord::from_trace(&Executor::sample_prior(&mut m, s as u64), true))
            .collect()
    }

    fn small_config() -> IcConfig {
        IcConfig::small([1, 1, 1], 3)
    }

    #[test]
    fn pregeneration_registers_all_addresses() {
        let recs = small_records(40);
        let mut net = IcNetwork::new(small_config());
        net.pregenerate(recs.iter());
        // Frozen: an unseen address is no longer registered.
        assert!(!net.register_address("unseen", &Distribution::Normal { mean: 0.0, std: 1.0 }));
        // branch + up to 3 parts addresses.
        assert_eq!(net.num_addresses(), 4);
        assert!(recs.iter().all(|r| net.knows(r)));
    }

    #[test]
    fn loss_decreases_under_training() {
        let recs = small_records(64);
        let mut net = IcNetwork::new(small_config());
        net.pregenerate(recs.iter());
        // Group by trace type.
        let mut by_type: HashMap<u64, Vec<&TraceRecord>> = HashMap::new();
        for r in &recs {
            by_type.entry(r.trace_type).or_default().push(r);
        }
        use etalumis_nn::{Adam, LrSchedule, Optimizer};
        let mut opt = Adam::new(LrSchedule::Constant(2e-3));
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..60 {
            net.zero_grad();
            let mut loss = 0.0;
            let mut count = 0usize;
            for sub in by_type.values() {
                loss += net.loss_sub_minibatch(sub).unwrap();
                count += sub.len();
            }
            let scale = 1.0 / count as f32;
            net.visit_params("", &mut |_, p| p.grad.scale(scale));
            opt.begin_step();
            net.visit_params("", &mut |n, p| opt.update(n, p));
            let avg = loss / count as f64;
            if it == 0 {
                first = avg;
            }
            last = avg;
        }
        assert!(last < first - 0.1, "IC loss should fall: {first} -> {last}");
    }

    #[test]
    fn frozen_network_drops_unknown_addresses() {
        let recs = small_records(10);
        // Pregenerate on branch-0 traces only (2 controlled addresses).
        let min_type: Vec<&TraceRecord> = recs.iter().filter(|r| r.num_controlled() == 2).collect();
        if min_type.is_empty() {
            return; // extremely unlikely with 10 seeds
        }
        let mut net = IcNetwork::new(small_config());
        net.pregenerate(min_type.iter().copied());
        let bigger: Vec<&TraceRecord> = recs.iter().filter(|r| r.num_controlled() == 3).collect();
        if let Some(first) = bigger.first() {
            assert_eq!(net.loss_sub_minibatch(&[first]), None);
        }
    }

    #[test]
    fn two_identically_seeded_networks_match() {
        let recs = small_records(20);
        let mut a = IcNetwork::new(small_config());
        let mut b = IcNetwork::new(small_config());
        a.pregenerate(recs.iter());
        // b sees the records in a different order; canonical sorting makes
        // the networks identical anyway.
        let mut rev: Vec<&TraceRecord> = recs.iter().collect();
        rev.reverse();
        b.pregenerate(rev.into_iter());
        let mut pa = Vec::new();
        a.visit_params("", &mut |n, p| pa.push((n.to_string(), p.value.clone())));
        let mut pb = Vec::new();
        b.visit_params("", &mut |n, p| pb.push((n.to_string(), p.value.clone())));
        assert_eq!(pa.len(), pb.len());
        for ((na, va), (nb, vb)) in pa.iter().zip(pb.iter()) {
            assert_eq!(na, nb);
            assert_eq!(va, vb, "parameter {na} differs");
        }
    }

    #[test]
    fn proposal_provider_runs_guided_inference() {
        let recs = small_records(50);
        let mut net = IcNetwork::new(small_config());
        net.pregenerate(recs.iter());
        // Untrained proposals must still produce valid guided traces.
        let model = BranchingModel::standard();
        let mut observes = ObserveMap::new();
        observes.insert("y".into(), Value::Real(1.0));
        let post =
            etalumis_inference::ic_importance_sampling(&model, &observes, "y", &mut net, 50, 9);
        assert_eq!(post.len(), 50);
        assert!(post.log_weights.iter().all(|w| w.is_finite()));
        assert!(post.effective_sample_size() > 1.0);
    }

    fn pregenerated_net() -> IcNetwork {
        let mut net = IcNetwork::new(small_config());
        net.pregenerate(small_records(40).iter());
        net
    }

    /// Every registered address, with the prior its records drew it from.
    fn registered_priors(net: &IcNetwork, recs: &[TraceRecord]) -> Vec<(Address, Distribution)> {
        let mut seen: Vec<(Address, Distribution)> = Vec::new();
        for e in recs.iter().flat_map(|r| r.controlled()) {
            let a = Address::parse(&e.address);
            if !seen.iter().any(|(s, _)| *s == a) {
                seen.push((a, e.distribution.clone()));
            }
        }
        assert_eq!(seen.len(), net.num_addresses());
        seen
    }

    /// An IC proposal's LSTM step, which resumes each address's cached
    /// input-projection prefix, leaves every layer's `h` and `c` bit for bit
    /// where the full-row `step_rows_inference` of the same input leaves
    /// them — at every registered address, on its first (cache-filling) and
    /// later visits, after the sample embeddings `notify` writes, and at the
    /// small config's widths and the paper's (a 324-column input, whose 320
    /// constant columns pass one `KC` block, into 512 units).
    #[test]
    fn cached_prefix_steps_equal_full_row_steps_bit_for_bit() {
        let paper_widths = IcConfig {
            cnn: Cnn3dConfig::tiny([1, 1, 1], 256),
            lstm_hidden: 512,
            address_embed_dim: 64,
            ..small_config()
        };
        assert_eq!(paper_widths.lstm_input(), IcConfig::paper().lstm_input());
        for cfg in [small_config(), paper_widths] {
            let recs = small_records(40);
            let mut net = IcNetwork::new(cfg);
            net.pregenerate(recs.iter());
            let priors = registered_priors(&net, &recs);
            let mut state = net.condition(&Value::Real(0.7));
            net.begin_trace(&mut state);
            let mut reference = net.lstm.zero_state(1);
            let (_, prev) = net.input_offsets();
            let mut rng = StdRng::seed_from_u64(5);
            let bits = |s: &LstmState| -> Vec<Vec<u32>> {
                s.layers()
                    .flat_map(|(h, c)| [h, c])
                    .map(|v| v.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            for visit in 0..3 {
                for (address, prior) in &priors {
                    let slot = net.resolve(address).expect("registered");
                    let mut row = net.embedding.clone();
                    row.extend_from_slice(
                        net.address_table.table.value.row(net.addresses[slot].embed_id),
                    );
                    row.extend_from_slice(&state.input[prev..]);
                    net.lstm.step_rows_inference(&row, &mut reference);
                    assert!(net.propose(&mut state, address, prior).is_some());
                    assert_eq!(bits(&state.lstm), bits(&reference), "{address} visit {visit}");
                    let value = prior.sample(&mut rng);
                    net.notify(&mut state, address, prior, &value);
                }
            }
            assert_eq!(state.prefixes.len(), priors.len() * net.lstm.input_prefix_len(prev));
        }
    }

    /// A worker state outliving its posterior drops its cached prefixes:
    /// after the network is conditioned on another observation, or its
    /// parameters are visited, the old state proposes bit for bit as a
    /// state fresh from the latest conditioning.
    #[test]
    fn a_stale_state_drops_its_cached_prefixes() {
        let recs = small_records(40);
        let mut net = IcNetwork::new(small_config());
        net.pregenerate(recs.iter());
        let priors = registered_priors(&net, &recs);
        let proposals = |net: &IcNetwork, state: &mut IcState| -> Vec<String> {
            net.begin_trace(state);
            priors.iter().map(|(a, p)| format!("{:?}", net.propose(state, a, p))).collect()
        };
        let mut old = net.condition(&Value::Real(0.2));
        let mut unvisited = old.clone();
        let first = proposals(&net, &mut old);
        net.visit_params("", &mut |_, p| p.value.scale(0.5));
        let rescaled = proposals(&net, &mut old);
        assert_ne!(rescaled, first);
        assert_eq!(rescaled, proposals(&net, &mut unvisited));
        let mut fresh = net.condition(&Value::Real(0.9));
        assert_eq!(proposals(&net, &mut old), proposals(&net, &mut fresh));
    }

    #[test]
    #[should_panic(
        expected = "cannot condition on a tensor observation of shape [2, 3] (6 values): this network's 3DCNN encodes [1, 1, 1] volumes (1 values)"
    )]
    fn conditioning_names_a_mismatched_observation() {
        let obs = etalumis_distributions::TensorValue::zeros(vec![2, 3]);
        pregenerated_net().condition(&Value::from(obs));
    }

    #[test]
    #[should_panic(expected = "cannot condition on a unit observation of shape [] (0 values)")]
    fn conditioning_rejects_a_valueless_observation() {
        pregenerated_net().condition(&Value::Unit);
    }
}
