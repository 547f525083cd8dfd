//! Skip-gram with negative sampling (word2vec) — the "pre-training" pass.
//!
//! The paper's PLMs arrive pre-trained on large text corpora; DeepJoin then
//! fine-tunes them. Our encoder substitutes that pre-training with an SGNS
//! pass over the (synthetic) lake's own text: column contents, titles and
//! context sentences. The resulting token embeddings initialize the encoder
//! (`deepjoin-nn`), and — averaged without fine-tuning — they also serve as
//! the paper's un-fine-tuned `BERT`/`MPNet` baselines.
//!
//! Classic SGNS (Mikolov et al. 2013): for each (center, context) pair drawn
//! from a sliding window, maximize `log σ(u_c · v_w)` plus `k` negative terms
//! `log σ(−u_n · v_w)` with negatives drawn from the unigram distribution
//! raised to the 3/4 power.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use deepjoin_lake::tokenizer::{TokenId, Vocabulary};

/// SGNS hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SgnsConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Sliding-window radius.
    pub window: usize,
    /// Negatives per positive pair.
    pub negatives: usize,
    /// Epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to 10%).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            window: 4,
            negatives: 5,
            epochs: 3,
            lr: 0.05,
            seed: 0x30D5,
        }
    }
}

/// Trained token embeddings: a dense `vocab x dim` table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenEmbeddings {
    /// Dimensionality.
    pub dim: usize,
    /// Row-major table, one row per token id.
    pub table: Vec<f32>,
}

impl TokenEmbeddings {
    /// Vector for token `t`. Panics on out-of-range ids.
    #[inline]
    pub fn get(&self, t: TokenId) -> &[f32] {
        let i = t as usize * self.dim;
        &self.table[i..i + self.dim]
    }

    /// Number of rows.
    pub fn vocab_size(&self) -> usize {
        self.table.len() / self.dim
    }

    /// Average the embeddings of `tokens`, L2-normalized. Returns a zero
    /// vector when `tokens` is empty.
    pub fn mean_pool(&self, tokens: &[TokenId]) -> Vec<f32> {
        let mut acc = vec![0f32; self.dim];
        if tokens.is_empty() {
            return acc;
        }
        for &t in tokens {
            crate::vector::add_assign(&mut acc, self.get(t));
        }
        crate::vector::scale(&mut acc, 1.0 / tokens.len() as f32);
        crate::vector::normalize(&mut acc);
        acc
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Negative-sampling table: cumulative unigram^0.75 distribution.
struct NegativeTable {
    cdf: Vec<f64>,
}

impl NegativeTable {
    fn build(vocab: &Vocabulary) -> Self {
        let n = vocab.len();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for id in 0..n as TokenId {
            // Smooth zero counts (e.g. <unk>) so every id is reachable.
            let w = (vocab.count(id) as f64 + 1.0).powf(0.75);
            acc += w;
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    #[inline]
    fn sample(&self, rng: &mut StdRng) -> TokenId {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as TokenId
    }
}

/// A snapshot of an [`SgnsTrainer`] at an epoch boundary, sufficient to
/// resume pre-training bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SgnsState {
    /// Completed epochs.
    pub epoch: u64,
    /// Sliding-window steps taken (drives the LR decay schedule).
    pub step: u64,
    /// Input (center-word) vectors, `vocab * dim`.
    pub input: Vec<f32>,
    /// Output (context-word) vectors, `vocab * dim`.
    pub output: Vec<f32>,
}

/// Epoch-stepwise SGNS trainer.
///
/// Instead of one `StdRng` mutated across the whole run, every epoch draws
/// from its own counter-based stream `stream_rng(seed, 1 + epoch)` (stream 0
/// initializes the tables). Together with [`SgnsState`] snapshots at epoch
/// boundaries this makes pre-training resumable: restore the state, run the
/// remaining epochs, and the final table is bit-identical to an
/// uninterrupted run.
pub struct SgnsTrainer {
    config: SgnsConfig,
    input: Vec<f32>,
    output: Vec<f32>,
    negatives: NegativeTable,
    total_steps: usize,
    step: usize,
    epoch: usize,
}

impl SgnsTrainer {
    /// Initialize tables (input uniform in `[-0.5/dim, 0.5/dim]`, the
    /// word2vec convention; output zero) from RNG stream 0.
    pub fn new(vocab: &Vocabulary, sentences: &[Vec<TokenId>], config: SgnsConfig) -> Self {
        let vocab_size = vocab.len();
        let dim = config.dim;
        let mut rng = rand::stream::stream_rng(config.seed, 0);
        let input: Vec<f32> = (0..vocab_size * dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
            .collect();
        let output = vec![0.0f32; vocab_size * dim];
        let total_steps =
            (config.epochs * sentences.iter().map(Vec::len).sum::<usize>()).max(1);
        Self {
            config,
            input,
            output,
            negatives: NegativeTable::build(vocab),
            total_steps,
            step: 0,
            epoch: 0,
        }
    }

    /// Completed epochs.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Whether all configured epochs have run.
    pub fn is_done(&self) -> bool {
        self.epoch >= self.config.epochs
    }

    /// Snapshot the mutable state at the current epoch boundary.
    pub fn state(&self) -> SgnsState {
        SgnsState {
            epoch: self.epoch as u64,
            step: self.step as u64,
            input: self.input.clone(),
            output: self.output.clone(),
        }
    }

    /// Restore a trainer from an epoch-boundary snapshot. Rejects tables
    /// whose shape does not match the vocabulary and config.
    pub fn restore(
        vocab: &Vocabulary,
        sentences: &[Vec<TokenId>],
        config: SgnsConfig,
        state: SgnsState,
    ) -> Result<Self, &'static str> {
        let n = vocab.len() * config.dim;
        if state.input.len() != n || state.output.len() != n {
            return Err("SGNS table shape does not match the vocabulary");
        }
        if state.epoch as usize > config.epochs {
            return Err("SGNS snapshot is ahead of the configured epochs");
        }
        let total_steps =
            (config.epochs * sentences.iter().map(Vec::len).sum::<usize>()).max(1);
        Ok(Self {
            config,
            input: state.input,
            output: state.output,
            negatives: NegativeTable::build(vocab),
            total_steps,
            step: state.step as usize,
            epoch: state.epoch as usize,
        })
    }

    /// Run one epoch over `sentences` with this epoch's RNG stream. No-op
    /// once [`Self::is_done`].
    pub fn run_epoch(&mut self, sentences: &[Vec<TokenId>]) {
        if self.is_done() {
            return;
        }
        let dim = self.config.dim;
        let mut rng = rand::stream::stream_rng(self.config.seed, 1 + self.epoch as u64);
        let mut grad = vec![0f32; dim];
        for sent in sentences {
            for (pos, &center) in sent.iter().enumerate() {
                self.step += 1;
                let progress = self.step as f32 / self.total_steps as f32;
                let lr = self.config.lr * (1.0 - 0.9 * progress.min(1.0));
                let win = 1 + (rng.gen::<u64>() as usize % self.config.window);
                let lo = pos.saturating_sub(win);
                let hi = (pos + win + 1).min(sent.len());
                for ctx_pos in lo..hi {
                    if ctx_pos == pos {
                        continue;
                    }
                    let context = sent[ctx_pos];
                    let v = center as usize * dim;
                    grad.iter_mut().for_each(|g| *g = 0.0);
                    // Positive pair + k negatives.
                    for neg in 0..=self.config.negatives {
                        let (target, label) = if neg == 0 {
                            (context, 1.0f32)
                        } else {
                            (self.negatives.sample(&mut rng), 0.0f32)
                        };
                        if neg > 0 && target == context {
                            continue;
                        }
                        let in_row = &self.input[v..v + dim];
                        let out_row = &mut self.output[target as usize * dim..][..dim];
                        let g = (label - sigmoid(deepjoin_simd::dot(in_row, out_row))) * lr;
                        deepjoin_simd::axpy(&mut grad, out_row, g);
                        deepjoin_simd::axpy(out_row, in_row, g);
                    }
                    deepjoin_simd::axpy(&mut self.input[v..v + dim], &grad, 1.0);
                }
            }
        }
        self.epoch += 1;
    }

    /// Consume the trainer, yielding the input table as the embeddings.
    pub fn finish(self) -> TokenEmbeddings {
        TokenEmbeddings {
            dim: self.config.dim,
            table: self.input,
        }
    }
}

/// Train SGNS embeddings over `sentences` (sequences of token ids) — the
/// closed-loop convenience wrapper over [`SgnsTrainer`].
pub fn train_sgns(
    vocab: &Vocabulary,
    sentences: &[Vec<TokenId>],
    config: SgnsConfig,
) -> TokenEmbeddings {
    let mut trainer = SgnsTrainer::new(vocab, sentences, config);
    while !trainer.is_done() {
        trainer.run_epoch(sentences);
    }
    trainer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::cosine;

    /// A corpus where `a`/`b` always co-occur and `x`/`y` always co-occur.
    fn toy() -> (Vocabulary, Vec<Vec<TokenId>>) {
        let mut texts = Vec::new();
        for _ in 0..200 {
            texts.push("apple banana apple banana apple banana");
            texts.push("xylo yonder xylo yonder xylo yonder");
        }
        let vocab = Vocabulary::build(texts.iter().copied(), 1);
        let sentences = texts.iter().map(|t| vocab.encode(t)).collect();
        (vocab, sentences)
    }

    #[test]
    fn cooccurring_tokens_become_similar() {
        let (vocab, sentences) = toy();
        let emb = train_sgns(
            &vocab,
            &sentences,
            SgnsConfig {
                dim: 16,
                epochs: 5,
                ..SgnsConfig::default()
            },
        );
        let a = emb.get(vocab.id("apple"));
        let b = emb.get(vocab.id("banana"));
        let x = emb.get(vocab.id("xylo"));
        let sim_ab = cosine(a, b);
        let sim_ax = cosine(a, x);
        assert!(
            sim_ab > sim_ax,
            "co-occurring pair should be closer: ab={sim_ab:.3} ax={sim_ax:.3}"
        );
    }

    #[test]
    fn deterministic_training() {
        let (vocab, sentences) = toy();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 1,
            ..SgnsConfig::default()
        };
        let e1 = train_sgns(&vocab, &sentences, cfg);
        let e2 = train_sgns(&vocab, &sentences, cfg);
        assert_eq!(e1.table, e2.table);
    }

    #[test]
    fn mean_pool_normalizes() {
        let (vocab, sentences) = toy();
        let emb = train_sgns(
            &vocab,
            &sentences,
            SgnsConfig {
                dim: 8,
                epochs: 1,
                ..SgnsConfig::default()
            },
        );
        let ids = vocab.encode("apple banana");
        let v = emb.mean_pool(&ids);
        assert!((crate::vector::norm(&v) - 1.0).abs() < 1e-5);
        assert!(emb.mean_pool(&[]).iter().all(|&x| x == 0.0));
    }

    /// Stop after one epoch, snapshot, restore into a fresh trainer, run the
    /// rest — the final table must be bit-identical to an uninterrupted run.
    #[test]
    fn interrupted_training_resumes_bit_identically() {
        let (vocab, sentences) = toy();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 3,
            ..SgnsConfig::default()
        };
        let oracle = train_sgns(&vocab, &sentences, cfg);

        let mut first = SgnsTrainer::new(&vocab, &sentences, cfg);
        first.run_epoch(&sentences);
        let snap = first.state();
        assert_eq!(snap.epoch, 1);
        drop(first); // the "crash"

        let mut resumed =
            SgnsTrainer::restore(&vocab, &sentences, cfg, snap).expect("valid snapshot");
        while !resumed.is_done() {
            resumed.run_epoch(&sentences);
        }
        assert_eq!(resumed.finish().table, oracle.table);
    }

    #[test]
    fn restore_rejects_mismatched_tables() {
        let (vocab, sentences) = toy();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 2,
            ..SgnsConfig::default()
        };
        let trainer = SgnsTrainer::new(&vocab, &sentences, cfg);
        let mut bad = trainer.state();
        bad.input.pop();
        assert!(SgnsTrainer::restore(&vocab, &sentences, cfg, bad).is_err());
        let mut ahead = trainer.state();
        ahead.epoch = 99;
        assert!(SgnsTrainer::restore(&vocab, &sentences, cfg, ahead).is_err());
    }

    #[test]
    fn table_shape() {
        let (vocab, sentences) = toy();
        let emb = train_sgns(
            &vocab,
            &sentences,
            SgnsConfig {
                dim: 8,
                epochs: 1,
                ..SgnsConfig::default()
            },
        );
        assert_eq!(emb.vocab_size(), vocab.len());
        assert_eq!(emb.get(0).len(), 8);
    }
}
