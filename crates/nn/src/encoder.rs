//! The trainable column encoder — the PLM stand-in.
//!
//! Two variants mirror the paper's two PLMs (DESIGN.md §1):
//!
//! * **DistilLite** (for DistilBERT): mean-pooled token embeddings → MLP
//!   head. Light and fast, order-insensitive at the pooling stage.
//! * **MPLite** (for MPNet): learned positional embeddings added to token
//!   embeddings, attention pooling (a small additive-attention scorer), then
//!   the MLP head. Position-aware and able to focus on informative tokens —
//!   the properties the paper credits MPNet's pre-training with.
//!
//! Token embeddings are typically initialized from the SGNS pre-training in
//! `deepjoin-embed` ("pre-trained"), then the whole encoder is fine-tuned
//! with the multiple-negatives-ranking loss ([`crate::mnr`]).
//!
//! Gradient handling: the dense parameters (positions, attention, head) are
//! exposed through the [`Module`] visitor for AdamW; the embedding table is
//! updated *sparsely* (only rows touched in a batch) via
//! [`EncoderOptimizer`], the standard lazy-Adam treatment for large
//! embedding tables.

use serde::{Deserialize, Serialize};

use deepjoin_lake::fxhash::FxHashMap;
use deepjoin_lake::tokenizer::TokenId;

use crate::adam::{Adam, AdamConfig, AdamState};
use crate::layers::{Linear, Module};
use crate::matrix::Matrix;

/// Pooling strategy over token vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pooling {
    /// Arithmetic mean of token vectors (DistilLite).
    Mean,
    /// Additive attention: softmax-weighted mean (MPLite).
    Attention,
}

/// Encoder hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Vocabulary size (rows of the embedding table).
    pub vocab_size: usize,
    /// Token-embedding dimensionality.
    pub dim: usize,
    /// Output embedding dimensionality.
    pub out_dim: usize,
    /// Hidden width of the attention scorer.
    pub attn_hidden: usize,
    /// Maximum input length in tokens (hard truncation; the paper's 512-token
    /// budget scaled down).
    pub max_len: usize,
    /// Pooling strategy.
    pub pooling: Pooling,
    /// Whether to add learned positional embeddings (MPLite).
    pub use_positions: bool,
    /// Residual connection around the projection head
    /// (`out = head(pooled) + pooled`; requires `out_dim == dim`). Keeps
    /// the fine-tuned output a *refinement* of the pre-trained pooled
    /// representation, as transformer fine-tuning does, instead of
    /// replacing it.
    pub residual: bool,
    /// Init seed for all parameter tensors.
    pub seed: u64,
}

impl EncoderConfig {
    /// The DistilLite variant (paper: DeepJoin-DistilBERT).
    pub fn distil_lite(vocab_size: usize, dim: usize, seed: u64) -> Self {
        Self {
            vocab_size,
            dim,
            out_dim: dim,
            attn_hidden: dim / 2,
            max_len: 160,
            pooling: Pooling::Mean,
            use_positions: false,
            residual: true,
            seed,
        }
    }

    /// The MPLite variant (paper: DeepJoin-MPNet).
    pub fn mp_lite(vocab_size: usize, dim: usize, seed: u64) -> Self {
        Self {
            vocab_size,
            dim,
            out_dim: dim,
            attn_hidden: dim / 2,
            max_len: 160,
            pooling: Pooling::Attention,
            use_positions: true,
            residual: true,
            seed,
        }
    }
}

/// Per-sequence forward state: everything [`ColumnEncoder::forward`]
/// computes on the way to the output, which is also everything `backward`
/// reads. `encode` keeps one per thread as scratch, `encode_batch` one per
/// sequence.
#[derive(Default)]
struct SeqCache {
    tokens: Vec<TokenId>,
    /// Token vectors after embedding (+ positions), `len x dim`.
    t: Matrix,
    /// Pooling weights, `len`: the attention softmax, or `1/len` for mean.
    alpha: Vec<f32>,
    /// Attention scorer output `tanh(t·W + b)` (empty for mean pooling).
    u: Matrix,
    /// `Σ αᵢ tᵢ`, `dim`.
    pooled: Vec<f32>,
    /// Head hidden layer `tanh(h1(pooled))`, `dim`.
    mid: Vec<f32>,
}

/// Run `f` with this thread's forward scratch (the `ann::hnsw` idiom). It
/// grows to the longest sequence seen — at most `max_len x dim` token rows,
/// 64 KiB at the defaults — on threads that embed, i.e. pool workers.
fn with_scratch<R>(f: impl FnOnce(&mut SeqCache) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<SeqCache> = std::cell::RefCell::default();
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The column encoder.
pub struct ColumnEncoder {
    /// Configuration.
    pub config: EncoderConfig,
    /// Token-embedding table, `vocab x dim` (sparsely updated).
    pub embedding: Matrix,
    /// Learned positional embeddings, `max_len x dim`.
    positions: Matrix,
    g_positions: Matrix,
    /// Attention scorer: `u = tanh(W t + b)`, `score = v·u`.
    attn_w: Matrix, // dim x attn_hidden
    attn_b: Vec<f32>,
    attn_v: Vec<f32>,
    g_attn_w: Matrix,
    g_attn_b: Vec<f32>,
    g_attn_v: Vec<f32>,
    /// Projection head: Linear → tanh → Linear.
    h1: Linear,
    h2: Linear,
    /// Sparse gradients for the embedding table: row -> grad.
    pub embedding_grads: FxHashMap<TokenId, Vec<f32>>,
    cache: Vec<SeqCache>,
}

impl ColumnEncoder {
    /// Create an encoder with Xavier-initialized parameters.
    pub fn new(config: EncoderConfig) -> Self {
        assert!(
            !config.residual || config.out_dim == config.dim,
            "residual head requires out_dim == dim"
        );
        Self {
            embedding: Matrix::uniform(
                config.vocab_size,
                config.dim,
                (3.0 / config.dim as f32).sqrt(),
                config.seed ^ 0xE3,
            ),
            positions: Matrix::xavier(config.max_len, config.dim, config.seed ^ 0xB0),
            g_positions: Matrix::zeros(config.max_len, config.dim),
            attn_w: Matrix::xavier(config.dim, config.attn_hidden, config.seed ^ 0xA7),
            attn_b: vec![0.0; config.attn_hidden],
            attn_v: Matrix::xavier(config.attn_hidden, 1, config.seed ^ 0xA8).data,
            g_attn_w: Matrix::zeros(config.dim, config.attn_hidden),
            g_attn_b: vec![0.0; config.attn_hidden],
            g_attn_v: vec![0.0; config.attn_hidden],
            h1: Linear::new(config.dim, config.dim, config.seed ^ 0xA1),
            h2: Linear::new(config.dim, config.out_dim, config.seed ^ 0xA2),
            embedding_grads: FxHashMap::default(),
            cache: Vec::new(),
            config,
        }
    }

    /// Overwrite the leading rows of the embedding table with pre-trained
    /// vectors. The table may cover fewer rows than `vocab_size` (e.g. when
    /// the tail rows are OOV hash buckets that keep their random init), but
    /// must be row-aligned to `dim` and no larger than the table.
    pub fn load_pretrained_embeddings(&mut self, table: &[f32]) {
        assert!(
            table.len().is_multiple_of(self.config.dim)
                && table.len() <= self.config.vocab_size * self.config.dim,
            "pretrained table shape mismatch"
        );
        self.embedding.data[..table.len()].copy_from_slice(table);
    }

    /// Encode one sequence into `out` (`out_dim` long) without touching the
    /// heap once this thread's scratch has grown to the sequence length.
    /// `&self`, so it can run concurrently from several threads.
    pub fn encode_into(&self, tokens: &[TokenId], out: &mut [f32]) {
        with_scratch(|c| self.forward(tokens, c, out));
    }

    /// [`Self::encode_into`] into a fresh vector.
    pub fn encode(&self, tokens: &[TokenId]) -> Vec<f32> {
        let mut out = vec![0.0; self.config.out_dim];
        self.encode_into(tokens, &mut out);
        out
    }

    /// Encode a batch with caching for a following [`Self::backward`] call.
    /// Returns the `N x out_dim` output matrix.
    pub fn encode_batch(&mut self, seqs: &[Vec<TokenId>]) -> Matrix {
        let dim = self.config.dim;
        let mut pooled = Matrix::zeros(seqs.len(), dim);
        let mut mid = Matrix::zeros(seqs.len(), dim);
        let mut out = Matrix::zeros(seqs.len(), self.config.out_dim);
        self.cache.clear();
        for (n, seq) in seqs.iter().enumerate() {
            let mut c = SeqCache::default();
            self.forward(seq, &mut c, out.row_mut(n));
            pooled.row_mut(n).copy_from_slice(&c.pooled);
            mid.row_mut(n).copy_from_slice(&c.mid);
            self.cache.push(c);
        }
        // What `backward` reads besides the sequences: each head layer's
        // input (`h2`'s is the tanh output between the two).
        self.h1.cache_x = Some(pooled);
        self.h2.cache_x = Some(mid);
        out
    }

    /// The forward pass — the only one: token rows (+ positions) → pooling
    /// weights → pooled vector → `Linear → tanh → Linear` head (+ residual),
    /// every stage left in `c`, the result in `out`. Input beyond `max_len`
    /// tokens is ignored; an empty sequence pools to the zero vector.
    fn forward(&self, tokens: &[TokenId], c: &mut SeqCache, out: &mut [f32]) {
        let EncoderConfig { dim, attn_hidden, vocab_size, .. } = self.config;
        let len = tokens.len().min(self.config.max_len);
        c.tokens.clear();
        c.tokens.extend_from_slice(&tokens[..len]);
        c.t.resize(len, dim);
        for (i, &tok) in c.tokens.iter().enumerate() {
            c.t.row_mut(i).copy_from_slice(self.embedding.row(tok as usize % vocab_size));
        }
        if self.config.use_positions {
            deepjoin_simd::axpy(&mut c.t.data, &self.positions.data[..len * dim], 1.0);
        }

        c.alpha.clear();
        match self.config.pooling {
            Pooling::Mean => c.alpha.resize(len, 1.0 / len as f32),
            Pooling::Attention => {
                // u = tanh(t·W + b); scoreᵢ = v·uᵢ; α = softmax(score).
                c.alpha.resize(len, 0.0);
                c.u.resize(len, attn_hidden);
                deepjoin_simd::gemm(
                    &c.t.data,
                    &self.attn_w.data,
                    Some(&self.attn_b),
                    attn_hidden,
                    &mut c.u.data,
                );
                deepjoin_simd::tanh_inplace(&mut c.u.data);
                deepjoin_simd::dot_block(&self.attn_v, &c.u.data, &mut c.alpha);
                let max = c.alpha.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                c.alpha.iter_mut().for_each(|s| *s = (*s - max).exp());
                let z: f32 = c.alpha.iter().sum();
                if z > 0.0 {
                    c.alpha.iter_mut().for_each(|a| *a /= z);
                }
            }
        }
        // pooled = Σ αᵢ tᵢ, a 1 x len by len x dim product.
        c.pooled.resize(dim, 0.0);
        deepjoin_simd::gemm(&c.alpha, &c.t.data, None, dim, &mut c.pooled);

        c.mid.resize(dim, 0.0);
        deepjoin_simd::gemm(&c.pooled, &self.h1.w.data, Some(&self.h1.b), dim, &mut c.mid);
        deepjoin_simd::tanh_inplace(&mut c.mid);
        deepjoin_simd::gemm(&c.mid, &self.h2.w.data, Some(&self.h2.b), out.len(), out);
        if self.config.residual {
            deepjoin_simd::axpy(out, &c.pooled, 1.0);
        }
    }

    /// Backpropagate `dL/d(output)` from the last `encode_batch`, routing
    /// gradients into the head, attention, positions and (sparsely) the
    /// embedding table.
    pub fn backward(&mut self, grad_out: &Matrix) {
        assert_eq!(grad_out.rows, self.cache.len(), "stale cache");
        // Head backward: h2 → tanh → h1.
        let mut d_mid = self.h2.backward(grad_out);
        let mid = self.h2.cache_x.as_ref().expect("backward before forward");
        for (g, &y) in d_mid.data.iter_mut().zip(&mid.data) {
            *g *= 1.0 - y * y;
        }
        let mut d_pooled = self.h1.backward(&d_mid);
        if self.config.residual {
            d_pooled.add_assign(grad_out);
        }
        let dim = self.config.dim;
        let hid = self.config.attn_hidden;

        // Take the cache to appease the borrow checker, then put it back.
        let caches = std::mem::take(&mut self.cache);
        for (n, c) in caches.iter().enumerate() {
            let dp = d_pooled.row(n);
            let len = c.tokens.len();
            if len == 0 {
                continue;
            }
            // dT: gradient wrt per-token vectors.
            let mut dt = Matrix::zeros(len, dim);
            match self.config.pooling {
                Pooling::Mean => {
                    let inv = 1.0 / len as f32;
                    for i in 0..len {
                        for (g, &d) in dt.row_mut(i).iter_mut().zip(dp) {
                            *g = d * inv;
                        }
                    }
                }
                Pooling::Attention => {
                    // pooled = Σ αᵢ tᵢ ; scoreᵢ = v·uᵢ ; uᵢ = tanh(W tᵢ + b)
                    let alpha = &c.alpha;
                    // dαᵢ = dp · tᵢ, dtᵢ += αᵢ dp
                    let mut d_alpha = vec![0f32; len];
                    for i in 0..len {
                        let trow = c.t.row(i);
                        d_alpha[i] = dp.iter().zip(trow).map(|(a, b)| a * b).sum();
                        for (g, &d) in dt.row_mut(i).iter_mut().zip(dp) {
                            *g += alpha[i] * d;
                        }
                    }
                    // softmax backward: dsᵢ = αᵢ (dαᵢ − Σⱼ αⱼ dαⱼ)
                    let dot: f32 = alpha.iter().zip(&d_alpha).map(|(a, b)| a * b).sum();
                    for i in 0..len {
                        let ds = alpha[i] * (d_alpha[i] - dot);
                        // score = v·u  →  dv += ds·u ; du = ds·v
                        let urow = c.u.row(i);
                        for h in 0..hid {
                            self.g_attn_v[h] += ds * urow[h];
                        }
                        // u = tanh(z) → dz = du (1−u²)
                        let trow = c.t.row(i);
                        for h in 0..hid {
                            let dz = ds * self.attn_v[h] * (1.0 - urow[h] * urow[h]);
                            self.g_attn_b[h] += dz;
                            // dW[:,h] += dz · t ; dt += dz · W[:,h]
                            for d in 0..dim {
                                self.g_attn_w.data[d * hid + h] += dz * trow[d];
                                dt.data[i * dim + d] += dz * self.attn_w.data[d * hid + h];
                            }
                        }
                    }
                }
            }
            // Route dT into embeddings (sparse) and positions (dense).
            for (i, &tok) in c.tokens.iter().enumerate() {
                let drow = dt.row(i);
                let acc = self
                    .embedding_grads
                    .entry(tok)
                    .or_insert_with(|| vec![0.0; dim]);
                for (a, &d) in acc.iter_mut().zip(drow) {
                    *a += d;
                }
                if self.config.use_positions {
                    for (g, &d) in self.g_positions.row_mut(i).iter_mut().zip(drow) {
                        *g += d;
                    }
                }
            }
        }
        self.cache = caches;
    }

    /// Borrow every parameter tensor for persistence, in a fixed order:
    /// `(embedding, positions, attn_w, attn_b, attn_v, h1_w, h1_b, h2_w,
    /// h2_b)`.
    #[allow(clippy::type_complexity)]
    pub fn raw_params(
        &self,
    ) -> (
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
    ) {
        (
            &self.embedding.data,
            &self.positions.data,
            &self.attn_w.data,
            &self.attn_b,
            &self.attn_v,
            &self.h1.w.data,
            &self.h1.b,
            &self.h2.w.data,
            &self.h2.b,
        )
    }

    /// Rebuild an encoder from a config and the parameter tensors produced
    /// by [`Self::raw_params`]. Panics if any tensor has the wrong length
    /// for the config.
    pub fn from_raw_params(config: EncoderConfig, params: [Vec<f32>; 9]) -> Self {
        Self::try_from_raw_params(config, params).expect("tensor shapes match the config")
    }

    /// Like [`Self::from_raw_params`] but rejects a config/tensor mismatch
    /// instead of panicking — the entry point for decoding untrusted
    /// snapshot bytes. Shape arithmetic is checked *before* any allocation,
    /// so a corrupt config cannot trigger an oversized allocation or an
    /// assert deeper in construction.
    pub fn try_from_raw_params(
        config: EncoderConfig,
        params: [Vec<f32>; 9],
    ) -> Result<Self, &'static str> {
        if config.residual && config.out_dim != config.dim {
            return Err("residual head requires out_dim == dim");
        }
        let shapes: [(usize, usize); 9] = [
            (config.vocab_size, config.dim),
            (config.max_len, config.dim),
            (config.dim, config.attn_hidden),
            (config.attn_hidden, 1),
            (config.attn_hidden, 1),
            (config.dim, config.dim),
            (config.dim, 1),
            (config.dim, config.out_dim),
            (config.out_dim, 1),
        ];
        for (tensor, (rows, cols)) in params.iter().zip(shapes) {
            if rows.checked_mul(cols) != Some(tensor.len()) {
                return Err("parameter tensor length does not match the encoder config");
            }
        }
        let [embedding, positions, attn_w, attn_b, attn_v, h1_w, h1_b, h2_w, h2_b] = params;
        let mut enc = Self::new(config);
        enc.embedding.data = embedding;
        enc.positions.data = positions;
        enc.attn_w.data = attn_w;
        enc.attn_b = attn_b;
        enc.attn_v = attn_v;
        enc.h1.w.data = h1_w;
        enc.h1.b = h1_b;
        enc.h2.w.data = h2_w;
        enc.h2.b = h2_b;
        Ok(enc)
    }

    /// Clear every accumulated gradient (dense and sparse).
    pub fn zero_grad(&mut self) {
        self.h1.zero_grad();
        self.h2.zero_grad();
        self.g_positions.zero();
        self.g_attn_w.zero();
        self.g_attn_b.iter_mut().for_each(|g| *g = 0.0);
        self.g_attn_v.iter_mut().for_each(|g| *g = 0.0);
        self.embedding_grads.clear();
    }
}

/// Optimizer for the encoder: AdamW over dense params + lazy Adam over the
/// sparse embedding rows.
pub struct EncoderOptimizer {
    adam: Adam,
    config: AdamConfig,
    emb_m: Vec<f32>,
    emb_v: Vec<f32>,
    emb_t: Vec<u32>,
}

/// A snapshot of the full optimizer state — dense AdamW moments plus the
/// sparse lazy-Adam embedding moments and per-row step counters — sufficient
/// to resume fine-tuning bit-identically from a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
    /// Dense AdamW step counter.
    pub t: u64,
    /// Dense first moments, in [`Module::visit_params`] order.
    pub dense_m: Vec<Vec<f32>>,
    /// Dense second moments, same order.
    pub dense_v: Vec<Vec<f32>>,
    /// Embedding first moments, `vocab * dim`.
    pub emb_m: Vec<f32>,
    /// Embedding second moments, `vocab * dim`.
    pub emb_v: Vec<f32>,
    /// Per-row lazy step counters, `vocab`.
    pub emb_t: Vec<u32>,
}

/// Adapter exposing the encoder's dense parameters as a [`Module`] for the
/// shared AdamW implementation.
struct DenseParams<'a>(&'a mut ColumnEncoder);

impl Module for DenseParams<'_> {
    fn forward(&mut self, _x: &Matrix) -> Matrix {
        unreachable!("optimizer adapter")
    }
    fn backward(&mut self, _g: &Matrix) -> Matrix {
        unreachable!("optimizer adapter")
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        let e = &mut *self.0;
        e.h1.visit_params(f);
        e.h2.visit_params(f);
        if e.config.use_positions {
            f(&mut e.positions.data, &mut e.g_positions.data);
        }
        if e.config.pooling == Pooling::Attention {
            f(&mut e.attn_w.data, &mut e.g_attn_w.data);
            f(&mut e.attn_b, &mut e.g_attn_b);
            f(&mut e.attn_v, &mut e.g_attn_v);
        }
    }
    fn zero_grad(&mut self) {}
}

impl EncoderOptimizer {
    /// New optimizer for `encoder` with the given hyperparameters.
    pub fn new(encoder: &ColumnEncoder, config: AdamConfig) -> Self {
        let n = encoder.embedding.data.len();
        Self {
            adam: Adam::new(config),
            config,
            emb_m: vec![0.0; n],
            emb_v: vec![0.0; n],
            emb_t: vec![0; encoder.config.vocab_size],
        }
    }

    /// Snapshot the full optimizer state for persistence.
    pub fn export_state(&self) -> OptimizerState {
        let dense = self.adam.export_state();
        OptimizerState {
            t: dense.t,
            dense_m: dense.m,
            dense_v: dense.v,
            emb_m: self.emb_m.clone(),
            emb_v: self.emb_v.clone(),
            emb_t: self.emb_t.clone(),
        }
    }

    /// Rebuild an optimizer for `encoder` from a state snapshot, validating
    /// every buffer shape against the encoder (the entry point for state
    /// decoded from untrusted checkpoint bytes).
    pub fn restore_state(
        encoder: &mut ColumnEncoder,
        config: AdamConfig,
        state: OptimizerState,
    ) -> Result<Self, &'static str> {
        let n = encoder.embedding.data.len();
        if state.emb_m.len() != n || state.emb_v.len() != n {
            return Err("embedding moment buffers do not match the encoder");
        }
        if state.emb_t.len() != encoder.config.vocab_size {
            return Err("embedding step counters do not match the vocabulary");
        }
        let mut shapes = Vec::new();
        DenseParams(encoder).visit_params(&mut |p, _g| shapes.push(p.len()));
        let dense_ok = state.dense_m.len() == state.dense_v.len()
            && (state.dense_m.is_empty()
                || (state.dense_m.len() == shapes.len()
                    && state.dense_m.iter().zip(&shapes).all(|(b, &s)| b.len() == s)
                    && state.dense_v.iter().zip(&shapes).all(|(b, &s)| b.len() == s)));
        if !dense_ok {
            return Err("dense moment buffers do not match the encoder parameters");
        }
        Ok(Self {
            adam: Adam::restore(
                config,
                AdamState {
                    t: state.t,
                    m: state.dense_m,
                    v: state.dense_v,
                },
            ),
            config,
            emb_m: state.emb_m,
            emb_v: state.emb_v,
            emb_t: state.emb_t,
        })
    }

    /// Dense AdamW steps taken so far.
    pub fn steps(&self) -> usize {
        self.adam.steps()
    }

    /// The optimizer's hyperparameters.
    pub fn config(&self) -> AdamConfig {
        self.config
    }

    /// Apply one optimization step from the encoder's accumulated gradients,
    /// then clear them.
    ///
    /// When [`AdamConfig::clip_norm`] is positive the clip is computed over
    /// the *combined* global norm of dense and sparse gradients, and applied
    /// by pre-scaling both families; [`Adam::step`]'s internal dense-only
    /// clip then sees an already-conforming norm and is a no-op, so nothing
    /// is clipped twice. Non-finite sparse gradient components are scrubbed
    /// to zero (the dense ones are scrubbed inside [`Adam::step`]).
    pub fn step(&mut self, encoder: &mut ColumnEncoder) {
        if self.config.clip_norm > 0.0 {
            let mut sq = 0f64;
            DenseParams(encoder).visit_params(&mut |_p, g| {
                for &x in g.iter() {
                    if x.is_finite() {
                        sq += (x as f64) * (x as f64);
                    }
                }
            });
            for grad in encoder.embedding_grads.values() {
                for &x in grad {
                    if x.is_finite() {
                        sq += (x as f64) * (x as f64);
                    }
                }
            }
            let norm = sq.sqrt() as f32;
            if norm > self.config.clip_norm {
                let scale = self.config.clip_norm / norm;
                DenseParams(encoder).visit_params(&mut |_p, g| {
                    for x in g.iter_mut() {
                        *x = if x.is_finite() { *x * scale } else { 0.0 };
                    }
                });
                for grad in encoder.embedding_grads.values_mut() {
                    for x in grad.iter_mut() {
                        *x = if x.is_finite() { *x * scale } else { 0.0 };
                    }
                }
            }
        }

        // Dense parameters via shared AdamW.
        self.adam.step(&mut DenseParams(encoder));

        // Sparse (lazy) Adam on touched embedding rows. Rows are independent,
        // so the map's iteration order cannot affect the result.
        let dim = encoder.config.dim;
        let lr = self.adam.current_lr();
        let AdamConfig {
            beta1, beta2, eps, ..
        } = self.config;
        for (&tok, grad) in &encoder.embedding_grads {
            let row = tok as usize % encoder.config.vocab_size;
            self.emb_t[row] += 1;
            let t = self.emb_t[row] as i32;
            let bc1 = 1.0 - beta1.powi(t);
            let bc2 = 1.0 - beta2.powi(t);
            let base = row * dim;
            let prow = &mut encoder.embedding.data[base..base + dim];
            for i in 0..dim {
                let g = if grad[i].is_finite() { grad[i] } else { 0.0 };
                let m = &mut self.emb_m[base + i];
                let v = &mut self.emb_v[base + i];
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                prow[i] -= lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
            }
        }
        encoder.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(pooling: Pooling, use_positions: bool) -> ColumnEncoder {
        ColumnEncoder::new(EncoderConfig {
            vocab_size: 20,
            dim: 8,
            out_dim: 6,
            attn_hidden: 4,
            max_len: 10,
            pooling,
            use_positions,
            residual: false,
            seed: 0xBEEF,
        })
    }

    #[test]
    fn encode_shapes() {
        let mut e = tiny(Pooling::Attention, true);
        let seqs = vec![vec![1, 2, 3], vec![4, 5], vec![]];
        let out = e.encode_batch(&seqs);
        assert_eq!(out.rows, 3);
        assert_eq!(out.cols, 6);
    }

    #[test]
    fn inference_matches_batch_forward() {
        for (pool, pos) in [(Pooling::Mean, false), (Pooling::Attention, true)] {
            let mut e = tiny(pool, pos);
            let seq = vec![3u32, 7, 1, 2];
            let batch = e.encode_batch(std::slice::from_ref(&seq));
            let single = e.encode(&seq);
            for (a, b) in batch.row(0).iter().zip(&single) {
                assert!((a - b).abs() < 1e-5, "batch {a} vs single {b}");
            }
        }
    }

    #[test]
    fn truncation_respects_max_len() {
        let mut e = tiny(Pooling::Mean, false);
        let long: Vec<TokenId> = (0..50).map(|i| i % 20).collect();
        let truncated: Vec<TokenId> = long.iter().copied().take(10).collect();
        let a = e.encode_batch(&[long]);
        let b = e.encode_batch(&[truncated]);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn mean_pool_is_order_insensitive_but_attention_with_positions_is_not() {
        let mut mean = tiny(Pooling::Mean, false);
        let fwd = mean.encode_batch(&[vec![1, 2, 3]]);
        let rev = mean.encode_batch(&[vec![3, 2, 1]]);
        for (a, b) in fwd.data.iter().zip(&rev.data) {
            assert!((a - b).abs() < 1e-6);
        }

        let mut mp = tiny(Pooling::Attention, true);
        let fwd = mp.encode_batch(&[vec![1, 2, 3]]);
        let rev = mp.encode_batch(&[vec![3, 2, 1]]);
        let diff: f32 = fwd.data.iter().zip(&rev.data).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "position-aware encoder must be order-sensitive");
    }

    /// Full-encoder gradient check via finite differences on the scalar loss
    /// `L = Σ c·out` for both variants.
    #[test]
    fn encoder_gradients_match_finite_differences() {
        for (pool, pos) in [(Pooling::Mean, false), (Pooling::Attention, true)] {
            let mut e = tiny(pool, pos);
            let seqs = vec![vec![1u32, 2, 3, 2], vec![5, 6]];
            let out = e.encode_batch(&seqs);
            let coeff = Matrix::xavier(out.rows, out.cols, 99);

            e.zero_grad();
            let _ = e.encode_batch(&seqs);
            e.backward(&coeff);

            // Check the embedding gradient for a touched token.
            let tok = 2u32;
            let analytic = e.embedding_grads.get(&tok).cloned().expect("token touched");
            let eps = 1e-2f32;
            for i in 0..e.config.dim {
                let idx = tok as usize * e.config.dim + i;
                e.embedding.data[idx] += eps;
                let lp: f32 = e
                    .encode_batch(&seqs)
                    .data
                    .iter()
                    .zip(&coeff.data)
                    .map(|(a, b)| a * b)
                    .sum();
                e.embedding.data[idx] -= 2.0 * eps;
                let lm: f32 = e
                    .encode_batch(&seqs)
                    .data
                    .iter()
                    .zip(&coeff.data)
                    .map(|(a, b)| a * b)
                    .sum();
                e.embedding.data[idx] += eps;
                let numeric = (lp - lm) / (2.0 * eps);
                let denom = numeric.abs().max(analytic[i].abs()).max(1e-2);
                assert!(
                    (numeric - analytic[i]).abs() / denom < 0.05,
                    "{pool:?} emb grad {i}: numeric={numeric} analytic={}",
                    analytic[i]
                );
            }
        }
    }

    #[test]
    fn optimizer_moves_touched_embeddings_only() {
        let mut e = tiny(Pooling::Attention, true);
        let before = e.embedding.data.clone();
        let seqs = vec![vec![1u32, 2]];
        let out = e.encode_batch(&seqs);
        let grad = Matrix::from_vec(out.rows, out.cols, vec![1.0; out.data.len()]);
        e.backward(&grad);
        let mut opt = EncoderOptimizer::new(
            &e,
            AdamConfig {
                warmup_steps: 0,
                ..AdamConfig::default()
            },
        );
        opt.step(&mut e);
        let dim = e.config.dim;
        // Rows 1 and 2 moved…
        for tok in [1usize, 2] {
            let moved = (0..dim)
                .any(|i| (e.embedding.data[tok * dim + i] - before[tok * dim + i]).abs() > 1e-9);
            assert!(moved, "row {tok} should move");
        }
        // …row 9 (untouched) did not.
        let untouched = (0..dim)
            .all(|i| (e.embedding.data[9 * dim + i] - before[9 * dim + i]).abs() < 1e-12);
        assert!(untouched);
        // Gradients were cleared by step().
        assert!(e.embedding_grads.is_empty());
    }

    /// Export optimizer state mid-run, restore into a fresh optimizer, and
    /// check the continued trajectories stay bit-identical.
    #[test]
    fn optimizer_state_roundtrip_resumes_bit_identically() {
        let cfg = AdamConfig {
            warmup_steps: 2,
            clip_norm: 5.0,
            ..AdamConfig::default()
        };
        let mut e_a = tiny(Pooling::Attention, true);
        let mut opt_a = EncoderOptimizer::new(&e_a, cfg);
        let seqs = [vec![vec![1u32, 2, 3]], vec![vec![4u32, 5]], vec![vec![2u32, 7, 9]]];
        let run = |e: &mut ColumnEncoder, opt: &mut EncoderOptimizer, s: &[Vec<TokenId>]| {
            let out = e.encode_batch(s);
            let grad = Matrix::from_vec(out.rows, out.cols, out.data.clone());
            e.backward(&grad);
            opt.step(e);
        };
        for s in &seqs {
            run(&mut e_a, &mut opt_a, s);
        }

        // Clone the encoder via raw params and restore the optimizer state.
        let (emb, pos, aw, ab, av, h1w, h1b, h2w, h2b) = e_a.raw_params();
        let params = [
            emb.to_vec(),
            pos.to_vec(),
            aw.to_vec(),
            ab.to_vec(),
            av.to_vec(),
            h1w.to_vec(),
            h1b.to_vec(),
            h2w.to_vec(),
            h2b.to_vec(),
        ];
        let mut e_b = ColumnEncoder::from_raw_params(e_a.config, params);
        let state = opt_a.export_state();
        assert_eq!(state.t, 3);
        let mut opt_b =
            EncoderOptimizer::restore_state(&mut e_b, cfg, state).expect("shapes match");

        for s in seqs.iter().cycle().take(5) {
            run(&mut e_a, &mut opt_a, s);
            run(&mut e_b, &mut opt_b, s);
        }
        assert_eq!(e_a.embedding.data, e_b.embedding.data);
        let (a, b) = (e_a.raw_params(), e_b.raw_params());
        assert_eq!(a.5, b.5);
        assert_eq!(a.7, b.7);
        assert_eq!(opt_a.export_state(), opt_b.export_state());
    }

    #[test]
    fn restore_state_rejects_mismatched_buffers() {
        let cfg = AdamConfig::default();
        let e = tiny(Pooling::Mean, false);
        let opt = EncoderOptimizer::new(&e, cfg);
        let mut bad = opt.export_state();
        bad.emb_m.pop();
        let mut e2 = tiny(Pooling::Mean, false);
        assert!(EncoderOptimizer::restore_state(&mut e2, cfg, bad).is_err());
        let mut bad_t = opt.export_state();
        bad_t.emb_t.push(0);
        assert!(EncoderOptimizer::restore_state(&mut e2, cfg, bad_t).is_err());
    }

    #[test]
    fn pretrained_embeddings_are_loaded() {
        let mut e = tiny(Pooling::Mean, false);
        let table = vec![0.5f32; 20 * 8];
        e.load_pretrained_embeddings(&table);
        assert_eq!(e.embedding.data[0], 0.5);
    }
}
