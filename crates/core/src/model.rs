//! The DeepJoin model: train → embed → index → search (paper §3, Figure 1).

use deepjoin_ann::budget::{Budget, BudgetedSearch};
use deepjoin_ann::flat::FlatIndex;
use deepjoin_ann::hnsw::{HnswConfig, HnswIndex};
use deepjoin_ann::index::{Neighbor, SearchRequest, VectorIndex};
use deepjoin_embed::cell_space::CellSpace;
use deepjoin_embed::ngram::{NgramConfig, NgramEmbedder};
use deepjoin_embed::sgns::{train_sgns, SgnsConfig};
use deepjoin_lake::column::{Column, ColumnId};
use deepjoin_lake::joinability::ScoredColumn;
use deepjoin_lake::repository::Repository;
use deepjoin_lake::tokenizer::{TokenId, Vocabulary};
use deepjoin_nn::encoder::{ColumnEncoder, EncoderConfig};

use crate::checkpoint::CheckpointStore;
use crate::text::{CellFrequencies, Textizer, TransformOption};
use crate::train::{
    prepare_training_pairs, self_join_positives, tokenize_pairs, FineTuneConfig, JoinType,
    TrainDataConfig,
};
use crate::trainer::{fine_tune_checkpointed, TrainerConfig};

/// Which PLM stand-in variant to use (DESIGN.md §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Mean-pooling encoder — mirrors DeepJoin-DistilBERT.
    DistilLite,
    /// Position-aware attention-pooling encoder — mirrors DeepJoin-MPNet.
    MpLite,
}

impl Variant {
    /// Display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            Variant::DistilLite => "DeepJoin-DistilLite",
            Variant::MpLite => "DeepJoin-MPLite",
        }
    }
}

/// End-to-end model configuration.
#[derive(Debug, Clone)]
pub struct DeepJoinConfig {
    /// Encoder variant.
    pub variant: Variant,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Contextualization option (Table 1); `TitleColnameStatCol` is best.
    pub transform: TransformOption,
    /// Cell budget for the contextualized sequence (§3.2 truncation).
    pub max_cells: usize,
    /// Encoder token budget.
    pub max_tokens: usize,
    /// Hash buckets reserved for out-of-vocabulary tokens (the fastText
    /// hashing trick), so unseen cell values keep an identity signal.
    pub oov_buckets: u32,
    /// SGNS pre-training settings.
    pub sgns: SgnsConfig,
    /// Training-data preparation settings.
    pub data: TrainDataConfig,
    /// Fine-tuning settings.
    pub fine_tune: FineTuneConfig,
    /// ANNS settings.
    pub hnsw: HnswConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for DeepJoinConfig {
    fn default() -> Self {
        Self {
            variant: Variant::MpLite,
            dim: 64,
            transform: TransformOption::TitleColnameStatCol,
            max_cells: 48,
            max_tokens: 256,
            oov_buckets: 4096,
            sgns: SgnsConfig::default(),
            data: TrainDataConfig::default(),
            fine_tune: FineTuneConfig::default(),
            hnsw: HnswConfig::default(),
            seed: 0xDEE9,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Number of self-join positives before augmentation.
    pub num_positives: usize,
    /// Number of pairs after augmentation.
    pub num_pairs: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// MNR loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Loss-spike/NaN rollbacks performed during fine-tuning.
    pub rollbacks: u64,
    /// `Some(step)` when fine-tuning resumed from a checkpoint.
    pub resumed_from: Option<u64>,
    /// Non-fatal training anomalies (corrupt checkpoint slots, rollbacks,
    /// checkpoint-write failures) for the operator.
    pub warnings: Vec<String>,
}

/// Provenance of a model's fine-tuning run, persisted alongside the
/// parameters and reported by `dj info`. Deliberately excludes anything
/// that differs between an interrupted-and-resumed run and an
/// uninterrupted one, so resumed models stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainLineage {
    /// Fine-tuning epochs completed.
    pub epochs: u64,
    /// Optimizer steps applied.
    pub steps: u64,
    /// Mean loss of the final epoch (NaN when no epoch completed).
    pub last_loss: f32,
    /// Rollbacks the loss-spike detector performed.
    pub rollbacks: u64,
}

/// The search backend a model is currently serving with.
///
/// Normal operation uses the HNSW graph. When a persisted snapshot's graph
/// section fails its checksum but the vector section survives, the loader
/// degrades to an exact flat scan over the same vectors — slower, but
/// correct — instead of refusing to serve (see `persist::load_model`).
pub enum IndexState {
    /// Nothing indexed yet.
    None,
    /// Full HNSW graph index (normal mode).
    Hnsw(HnswIndex),
    /// Exact-scan fallback over the recovered vectors (degraded mode).
    DegradedFlat {
        /// The flat index serving searches.
        index: FlatIndex,
        /// Why the model is degraded (e.g. the graph checksum error).
        reason: String,
    },
}

/// Health summary of a model's search index, for operators (`dj info`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexHealth {
    /// No index present; `search` is unavailable.
    Missing,
    /// HNSW graph index, full fidelity.
    Hnsw,
    /// Serving via exact flat scan after index corruption.
    DegradedFlat {
        /// Human-readable cause of the degradation.
        reason: String,
    },
}

impl IndexHealth {
    /// Short operator-facing label.
    pub fn label(&self) -> &'static str {
        match self {
            IndexHealth::Missing => "none",
            IndexHealth::Hnsw => "hnsw",
            IndexHealth::DegradedFlat { .. } => "degraded-flat",
        }
    }
}

/// Result of a budgeted, ladder-protected search
/// ([`DeepJoin::search_wave`]): the hits plus an honest account of how they
/// were obtained.
#[derive(Debug, Clone)]
pub struct LadderSearch {
    /// Best hits found, highest score (closest) first.
    pub hits: Vec<ScoredColumn>,
    /// False when the budget expired mid-search and `hits` is a partial
    /// best-effort top-k.
    pub complete: bool,
    /// Distance evaluations performed.
    pub visited: usize,
    /// True when the HNSW path failed and the exact-scan rescue answered.
    pub via_fallback: bool,
}

impl LadderSearch {
    /// An index's answer in the model's terms: column ids, negated
    /// distances as scores (higher = closer).
    fn new(result: BudgetedSearch, via_fallback: bool) -> Self {
        Self {
            hits: result
                .hits
                .into_iter()
                .map(|Neighbor { id, distance }| ScoredColumn {
                    id: ColumnId(id),
                    score: -distance as f64,
                })
                .collect(),
            complete: result.complete,
            visited: result.visited,
            via_fallback,
        }
    }
}

/// The trained DeepJoin model.
pub struct DeepJoin {
    pub(crate) config: DeepJoinConfig,
    pub(crate) vocab: Vocabulary,
    pub(crate) textizer: Textizer,
    pub(crate) encoder: ColumnEncoder,
    pub(crate) index: IndexState,
    pub(crate) lineage: Option<TrainLineage>,
}

impl DeepJoin {
    /// Train a model on `train_repo` for the given join type.
    ///
    /// `space` is the cell-embedding space used by the PEXESO labeler for
    /// semantic joins; it is ignored for equi-joins.
    pub fn train(
        train_repo: &Repository,
        join_type: JoinType,
        config: DeepJoinConfig,
    ) -> (Self, TrainReport) {
        Self::train_checkpointed(train_repo, join_type, config, &TrainerConfig::default(), None)
    }

    /// [`DeepJoin::train`] with stepwise checkpointing: fine-tuning
    /// snapshots into `store` every `trainer.checkpoint_every` steps and
    /// resumes from the newest intact checkpoint on restart. The
    /// pre-fine-tuning stages (vocabulary, SGNS pre-training, labeling) are
    /// deterministic in `config`, so a resumed run re-derives them
    /// identically rather than persisting them.
    pub fn train_checkpointed(
        train_repo: &Repository,
        join_type: JoinType,
        config: DeepJoinConfig,
        trainer: &TrainerConfig,
        store: Option<&mut CheckpointStore<'_>>,
    ) -> (Self, TrainReport) {
        let space = CellSpace::new(NgramEmbedder::new(NgramConfig {
            dim: config.dim,
            ..NgramConfig::default()
        }));

        // 1. Contextualize the training columns and build the vocabulary.
        let freq = CellFrequencies::build(train_repo);
        let textizer = Textizer::new(config.transform, config.max_cells).with_frequencies(freq);
        let texts: Vec<String> = train_repo
            .columns()
            .iter()
            .map(|c| textizer.transform(c))
            .collect();
        // Hybrid tokenization (surface + subtokens) mirrors PLM subword
        // behaviour: surface tokens carry exact-match identity, subtokens
        // carry format-invariant content. See `tokenize_hybrid`.
        let vocab = Vocabulary::build_hybrid(texts.iter().map(String::as_str), 1);

        // 2. Pre-train token embeddings with SGNS (the PLM's pre-training
        //    stand-in).
        let sentences: Vec<Vec<_>> = texts
            .iter()
            .map(|t| {
                deepjoin_lake::tokenizer::tokenize_hybrid(t)
                    .iter()
                    .map(|tok| vocab.id(tok))
                    .collect()
            })
            .collect();
        let sgns_cfg = SgnsConfig {
            dim: config.dim,
            ..config.sgns
        };
        let pretrained = train_sgns(&vocab, &sentences, sgns_cfg);

        // 3. Build the encoder and load the pre-trained embeddings. The
        //    table has `vocab + oov_buckets` rows; bucket rows keep their
        //    random init and are trained only if touched during fine-tuning.
        let table_rows = vocab.len() + config.oov_buckets as usize;
        let enc_cfg = match config.variant {
            Variant::DistilLite => EncoderConfig {
                max_len: config.max_tokens,
                ..EncoderConfig::distil_lite(table_rows, config.dim, config.seed)
            },
            Variant::MpLite => EncoderConfig {
                max_len: config.max_tokens,
                ..EncoderConfig::mp_lite(table_rows, config.dim, config.seed)
            },
        };
        let mut encoder = ColumnEncoder::new(enc_cfg);
        encoder.load_pretrained_embeddings(&pretrained.table);
        // Pre-training's corpus and tables are dead weight from here on:
        // freed now, they are not part of fine-tuning's peak.
        drop((texts, sentences, pretrained));

        // 4. Self-join labeling + augmentation + fine-tuning.
        let positives = self_join_positives(train_repo, join_type, &space, &config.data);
        let pairs = prepare_training_pairs(train_repo, &positives, &config.data);
        let tokenized = tokenize_pairs(&pairs, &textizer, &vocab, config.oov_buckets);
        let outcome = if tokenized.len() >= 2 {
            fine_tune_checkpointed(&mut encoder, &tokenized, &config.fine_tune, trainer, store)
        } else {
            crate::trainer::TrainOutcome {
                completed: true,
                ..Default::default()
            }
        };

        let lineage = TrainLineage {
            epochs: outcome.epoch_losses.len() as u64,
            steps: outcome.global_steps,
            last_loss: outcome.epoch_losses.last().copied().unwrap_or(f32::NAN),
            rollbacks: outcome.rollbacks,
        };
        let report = TrainReport {
            num_positives: positives.len(),
            num_pairs: pairs.len(),
            vocab_size: vocab.len(),
            epoch_losses: outcome.epoch_losses,
            rollbacks: outcome.rollbacks,
            resumed_from: outcome.resumed_from,
            warnings: outcome.warnings,
        };
        (
            Self {
                config,
                vocab,
                textizer,
                encoder,
                index: IndexState::None,
                lineage: Some(lineage),
            },
            report,
        )
    }

    /// Fine-tuning provenance, when known (absent on models saved before
    /// lineage tracking or stripped snapshots).
    pub fn lineage(&self) -> Option<&TrainLineage> {
        self.lineage.as_ref()
    }

    /// The model configuration.
    pub fn config(&self) -> &DeepJoinConfig {
        &self.config
    }

    /// Contextualize + tokenize + encode one column (the "query encoding"
    /// stage of the efficiency analysis, §3.4).
    pub fn embed_column(&self, column: &Column) -> Vec<f32> {
        let mut v = vec![0.0; self.config.dim];
        self.embed_column_into(column, &mut v);
        v
    }

    /// [`DeepJoin::embed_column`] into a caller's `dim`-long slot. Text, token
    /// ids and activations live in per-thread buffers: once those have grown,
    /// only the textizer's distinct-cell list and set are allocated.
    pub fn embed_column_into(&self, column: &Column, out: &mut [f32]) {
        thread_local! {
            static SCRATCH: std::cell::RefCell<(String, String, Vec<TokenId>)> = Default::default();
        }
        SCRATCH.with(|s| {
            let (text, buf, ids) = &mut *s.borrow_mut();
            self.textizer.transform_into(column, text);
            self.vocab
                .encode_hybrid_bucketed_into(text, self.config.oov_buckets, buf, ids);
            self.encoder.encode_into(ids, out);
        });
        deepjoin_embed::vector::normalize(out);
    }

    /// Offline: embed and index every column of the repository (§3.3).
    ///
    /// `embed_column` L2-normalizes every embedding, so the index is built
    /// with the unit-norm promise (enables the cosine `-dot` fast path; a
    /// no-op under L2).
    pub fn index_repository(&mut self, repo: &Repository) {
        self.index_embeddings(&crate::batch::encode_repository(self, repo));
    }

    /// [`DeepJoin::index_repository`] with up to `threads` workers for both
    /// the embedding pass and HNSW construction. The graph is built with the
    /// deterministic batch inserter, so the result is identical for any
    /// thread count (though not to the sequential [`DeepJoin::index_repository`]).
    pub fn index_repository_parallel(&mut self, repo: &Repository, threads: usize) {
        let embeddings = crate::batch::encode_repository_parallel(self, repo, threads);
        self.index_embeddings_parallel(&embeddings, threads);
    }

    /// A structurally valid model over a synthetic vector plane and a
    /// ring-adjacency HNSW graph: every artifact section (`MODL`, `VECS`,
    /// `SQ8V`, `HNSW`) at a caller-chosen scale, without hours of
    /// training. Exists for the artifact load/startup benchmark
    /// (`bench_load`), where what matters is section *size*, not recall —
    /// the graph answers queries, but its neighbors are meaningless.
    pub fn synthetic(n: usize, dim: usize, seed: u64) -> DeepJoin {
        assert!(n > 0 && dim > 0, "synthetic model needs rows and dims");
        let config = DeepJoinConfig {
            dim,
            ..DeepJoinConfig::default()
        };
        let vocab = Vocabulary::from_id_order(vec![("synthetic".to_string(), 1)]);
        let rows = vocab.len() + config.oov_buckets as usize;
        let enc_cfg = EncoderConfig {
            max_len: config.max_tokens,
            ..EncoderConfig::mp_lite(rows, dim, seed)
        };
        let encoder = ColumnEncoder::new(enc_cfg);
        let textizer = Textizer::new(config.transform, config.max_cells);

        // Deterministic xorshift vectors — content is irrelevant, bytes
        // and shape are what the load path pays for.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32) / 1000.0 - 1.0
        };
        let vectors: Vec<f32> = (0..n * dim).map(|_| next()).collect();

        // One-layer ring adjacency in CSR form: node i points at the next
        // `deg` ids. Valid by construction, built in O(n).
        let deg = 8.min(n - 1);
        let node_off: Vec<u32> = (0..=n as u32).collect();
        let adj_off: Vec<u32> = (0..=n).map(|i| (i * deg) as u32).collect();
        let mut neighbors = Vec::with_capacity(n * deg);
        for i in 0..n {
            for j in 1..=deg {
                neighbors.push(((i + j) % n) as u32);
            }
        }
        let graph = deepjoin_ann::graph::Graph::from_csr(node_off, adj_off, neighbors)
            .expect("synthetic ring CSR is structurally valid");
        let index = HnswIndex::from_graph_parts(
            config.hnsw,
            dim,
            vectors,
            graph,
            Some(0),
            0,
            seed,
        );
        DeepJoin {
            config,
            vocab,
            textizer,
            encoder,
            index: IndexState::Hnsw(index),
            lineage: None,
        }
    }

    /// Index pre-computed embeddings (used when the embedding pass was
    /// batched / parallelized externally). The embeddings must come from
    /// [`DeepJoin::embed_column`] (unit-norm).
    pub fn index_embeddings(&mut self, embeddings: &[f32]) {
        let mut index = HnswIndex::new(self.config.dim, self.config.hnsw).with_unit_norm(true);
        index.add_batch(embeddings);
        self.index = IndexState::Hnsw(index);
    }

    /// [`DeepJoin::index_embeddings`] using the parallel batch inserter with
    /// up to `threads` workers.
    pub fn index_embeddings_parallel(&mut self, embeddings: &[f32], threads: usize) {
        let mut index = HnswIndex::new(self.config.dim, self.config.hnsw).with_unit_norm(true);
        index.add_batch_parallel(embeddings, &deepjoin_par::Pool::new(threads.max(1)));
        self.index = IndexState::Hnsw(index);
    }

    /// Online top-k search: encode the query column and run ANNS under
    /// Euclidean distance (§3.3). Returned ids are repository column ids
    /// (insertion order), scores are negated distances (higher = closer).
    pub fn search(&self, query: &Column, k: usize) -> Vec<ScoredColumn> {
        self.search_embedded(&self.embed_column(query), k)
    }

    /// ANNS part only (for timing decomposition in the benchmarks): a wave
    /// of one under an unlimited budget.
    pub fn search_embedded(&self, query_embedding: &[f32], k: usize) -> Vec<ScoredColumn> {
        self.search_embedded_budgeted(query_embedding, k, &Budget::unlimited())
            .hits
    }

    /// [`DeepJoin::search_embedded`] under a cooperative [`Budget`]: a wave
    /// of one through [`DeepJoin::search_wave`].
    pub fn search_embedded_budgeted(
        &self,
        query_embedding: &[f32],
        k: usize,
        budget: &Budget,
    ) -> LadderSearch {
        assert_eq!(query_embedding.len(), self.config.dim, "dimension mismatch");
        let req = SearchRequest::one(query_embedding, k, budget);
        self.search_wave(&req).pop().expect("one member, one result")
    }

    /// The one search entry point: answer a wave of query embeddings
    /// (`req.queries`, row-major) at `req.k` under `req.budget`, never
    /// returning an id in `req.deleted` — which is how the live lake makes
    /// `drop-table` effective on the very next query without rebuilding the
    /// index (DESIGN.md §13). Every member walks the degradation ladder
    /// (see [`LadderSearch`]) and gets the answer it would get asked alone:
    ///
    /// 1. a healthy HNSW graph runs a budgeted graph search per member; if a
    ///    traversal *panics* (e.g. an index corrupted in memory), the panic
    ///    is caught and that member re-runs as a budgeted exact scan over
    ///    the graph's own vectors;
    /// 2. a degraded model (flat fallback from load time) answers the wave
    ///    with one rows-outer exact scan — each vector block is pulled
    ///    through the cache once per wave instead of once per query;
    /// 3. when the budget expires mid-search on any rung, the best-so-far
    ///    partial top-k is returned with `complete == false` instead of
    ///    nothing.
    ///
    /// A model without an index answers every member with an empty, complete
    /// result (no panic — this path is reachable from the server, which must
    /// not die on it).
    pub fn search_wave(&self, req: &SearchRequest<'_>) -> Vec<LadderSearch> {
        let dim = self.config.dim;
        match &self.index {
            IndexState::None => req
                .members(dim)
                .map(|_| LadderSearch {
                    hits: Vec::new(),
                    complete: true,
                    visited: 0,
                    via_fallback: false,
                })
                .collect(),
            IndexState::Hnsw(index) => {
                let graph = |req: &SearchRequest<'_>| {
                    let traversal = std::panic::AssertUnwindSafe(|| index.search_wave(req));
                    std::panic::catch_unwind(traversal)
                };
                match graph(req) {
                    Ok(wave) => wave.into_iter().map(|r| LadderSearch::new(r, false)).collect(),
                    // A traversal failed outright. Ask member by member, so
                    // only the members whose own traversal fails are rescued
                    // by the exact scan over the same vectors — still under
                    // the budget, still behind the filter.
                    Err(_) => req
                        .members(dim)
                        .flat_map(|queries| {
                            let one = SearchRequest { queries, ..*req };
                            let (wave, via_fallback) = match graph(&one) {
                                Ok(wave) => (wave, false),
                                Err(_) => (index.flat_rescue(&one), true),
                            };
                            wave.into_iter().map(move |r| LadderSearch::new(r, via_fallback))
                        })
                        .collect(),
                }
            }
            IndexState::DegradedFlat { index, .. } => index
                .search_wave(req)
                .into_iter()
                .map(|r| LadderSearch::new(r, false))
                .collect(),
        }
    }

    /// Number of indexed columns (0 before `index_repository`).
    pub fn indexed_len(&self) -> usize {
        match &self.index {
            IndexState::None => 0,
            IndexState::Hnsw(index) => index.len(),
            IndexState::DegradedFlat { index, .. } => index.len(),
        }
    }

    /// Quantize the indexed vectors into an SQ8 plane (`dj build
    /// --quantize sq8`): candidate generation runs over 1-byte codes and
    /// survivors are rescored against the exact f32 vectors, so results
    /// stay exact-distance while the scan touches ~4× less memory. No-op
    /// without an index. Returns `true` when a plane was attached.
    pub fn quantize_sq8(&mut self) -> bool {
        match &mut self.index {
            IndexState::None => false,
            IndexState::Hnsw(index) => {
                index.quantize_sq8();
                true
            }
            IndexState::DegradedFlat { index, .. } => {
                index.quantize_sq8();
                true
            }
        }
    }

    /// Resident bytes of the attached SQ8 plane, when the index is
    /// quantized (surfaced by `dj info`).
    pub fn sq8_resident_bytes(&self) -> Option<usize> {
        match &self.index {
            IndexState::None => None,
            IndexState::Hnsw(index) => index.sq8().map(|p| p.resident_bytes()),
            IndexState::DegradedFlat { index, .. } => index.sq8().map(|p| p.resident_bytes()),
        }
    }

    /// Current search-backend health (surfaced by `dj info`).
    pub fn index_health(&self) -> IndexHealth {
        match &self.index {
            IndexState::None => IndexHealth::Missing,
            IndexState::Hnsw(_) => IndexHealth::Hnsw,
            IndexState::DegradedFlat { reason, .. } => IndexHealth::DegradedFlat {
                reason: reason.clone(),
            },
        }
    }

    /// Vocabulary accessor (shared with baselines in the benchmarks).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Textizer accessor.
    pub fn textizer(&self) -> &Textizer {
        &self.textizer
    }

    /// Encoder accessor (for the batch/parallel encoding path).
    pub fn encoder(&self) -> &ColumnEncoder {
        &self.encoder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
    use deepjoin_metrics::precision_at_k;

    fn small_setup() -> (Repository, Repository, Vec<(Column, deepjoin_lake::ColumnProvenance)>) {
        let mut cfg = CorpusConfig::new(CorpusProfile::Webtable, 400, 11);
        cfg.num_domains = 7;
        cfg.entities_per_domain = 250;
        let corpus = Corpus::generate(cfg);
        let (repo, _) = corpus.to_repository();
        let train = crate::train::sample_training_repository(&repo, 300, 3);
        let queries = corpus.sample_queries(8, 21);
        (train, repo, queries)
    }

    fn quick_config(variant: Variant) -> DeepJoinConfig {
        DeepJoinConfig {
            variant,
            dim: 32,
            sgns: SgnsConfig {
                dim: 32,
                epochs: 1,
                ..SgnsConfig::default()
            },
            fine_tune: FineTuneConfig {
                epochs: 5,
                adam: deepjoin_nn::adam::AdamConfig {
                    lr: 5e-3,
                    warmup_steps: 20,
                    ..Default::default()
                },
                ..FineTuneConfig::default()
            },
            data: TrainDataConfig {
                max_pairs: 2_000,
                ..TrainDataConfig::default()
            },
            ..DeepJoinConfig::default()
        }
    }

    #[test]
    fn end_to_end_equi_beats_random() {
        let (train, repo, queries) = small_setup();
        let (mut model, report) = DeepJoin::train(&train, JoinType::Equi, quick_config(Variant::MpLite));
        assert!(report.num_positives > 0, "lake must contain positives");
        assert!(!report.epoch_losses.is_empty());
        model.index_repository(&repo);
        assert_eq!(model.indexed_len(), repo.len());

        let k = 10;
        let mut precs = Vec::new();
        for (q, _) in &queries {
            let exact: Vec<u32> = deepjoin_lake::joinability::brute_force_topk(&repo, q, k)
                .iter()
                .map(|s| s.id.0)
                .collect();
            let got: Vec<u32> = model.search(q, k).iter().map(|s| s.id.0).collect();
            assert_eq!(got.len(), k);
            precs.push(precision_at_k(&got, &exact, k));
        }
        let mean = deepjoin_metrics::mean(&precs);
        // Random retrieval over ~380 columns would land near k/|X| ≈ 0.03.
        assert!(mean > 0.2, "precision@10 {mean} too low");
    }

    #[test]
    fn both_variants_train() {
        let (train, _repo, _q) = small_setup();
        for v in [Variant::DistilLite, Variant::MpLite] {
            let (model, report) = DeepJoin::train(&train, JoinType::Equi, quick_config(v));
            assert!(report.vocab_size > 10);
            let c = Column::from_cells(["alpha", "beta", "gamma", "delta", "eps"]);
            let e = model.embed_column(&c);
            assert_eq!(e.len(), 32);
            assert!(e.iter().any(|&x| x != 0.0));
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        let (train, _, _) = small_setup();
        let (model, _) = DeepJoin::train(&train, JoinType::Equi, quick_config(Variant::DistilLite));
        let c = Column::from_cells(["one", "two", "three", "four", "five"]);
        assert_eq!(model.embed_column(&c), model.embed_column(&c));
    }

    /// Without an index every path answers the same way: nothing found,
    /// nothing left unsearched — the server must not die on this.
    #[test]
    fn search_before_index_is_empty_and_complete_on_every_path() {
        let (train, _, _) = small_setup();
        let (model, _) = DeepJoin::train(&train, JoinType::Equi, quick_config(Variant::DistilLite));
        let c = Column::from_cells(["x", "y", "z", "w", "v"]);
        assert!(model.search(&c, 5).is_empty());
        let v = model.embed_column(&c);
        assert!(model.search_embedded(&v, 5).is_empty());
        let wave = [v.clone(), v].concat();
        let req = SearchRequest {
            queries: &wave,
            k: 5,
            budget: &Budget::unlimited(),
            deleted: None,
        };
        let answers = model.search_wave(&req);
        assert_eq!(answers.len(), 2);
        for a in &answers {
            assert!(a.hits.is_empty() && a.complete && !a.via_fallback);
            assert_eq!(a.visited, 0);
        }
    }

    /// The ladder's rescue rung: a graph whose traversal panics (an edge to
    /// a row that does not exist) still answers, member by member, from the
    /// exact scan over its own vectors — flagged, filtered and identical to
    /// what each member gets asked alone.
    #[test]
    fn a_panicking_graph_is_rescued_by_the_exact_scan() {
        let mut model = DeepJoin::synthetic(64, 8, 5);
        let IndexState::Hnsw(healthy) = &model.index else {
            unreachable!("synthetic models carry a graph")
        };
        let vectors = healthy.vectors().to_vec();
        let mut exact = FlatIndex::new(8, model.config.hnsw.metric);
        exact.add_batch(&vectors);
        let mut nodes: Vec<Vec<Vec<u32>>> = (0..64u32).map(|i| vec![vec![(i + 1) % 64]]).collect();
        nodes[0][0].push(9_999);
        model.index = IndexState::Hnsw(HnswIndex::from_graph_parts(
            model.config.hnsw,
            8,
            vectors.clone(),
            deepjoin_ann::graph::Graph::from_adjacency(nodes),
            Some(0),
            0,
            5,
        ));
        let tombs: deepjoin_ann::TombSet = [3u32].into_iter().collect();
        let req = SearchRequest {
            queries: &vectors[..3 * 8],
            k: 4,
            budget: &Budget::unlimited(),
            deleted: Some(&tombs),
        };
        let wave = model.search_wave(&req);
        assert_eq!(wave.len(), 3);
        for (member, want) in wave.iter().zip(exact.search_wave(&req)) {
            assert!(member.via_fallback && member.complete);
            let got: Vec<u32> = member.hits.iter().map(|h| h.id.0).collect();
            assert_eq!(got, want.hits.iter().map(|h| h.id).collect::<Vec<_>>());
            assert!(!got.contains(&3));
        }
        let alone = model.search_wave(&SearchRequest {
            queries: &vectors[8..16],
            ..req
        });
        assert_eq!(alone[0].hits, wave[1].hits);
    }
}
