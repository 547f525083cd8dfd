//! Batched / parallel column encoding — the GPU stand-in.
//!
//! The paper's efficiency tables report DeepJoin with a CPU and with an
//! A100. The architectural point is that query encoding dominates and is
//! embarrassingly parallel; we reproduce the two regimes as a single-thread
//! path ("CPU") and a multi-thread path ("GPU stand-in"), labeled as such in
//! the experiment output (DESIGN.md §1).
//!
//! Both parallel paths route through the shared [`Pool`]: workers are
//! bounded by the pool size (never one thread per chunk), tiny inputs run
//! on the calling thread, and per-column outputs land in fixed slots so the
//! result is identical to the sequential path for any thread count.

use deepjoin_lake::column::Column;
use deepjoin_lake::repository::Repository;
use deepjoin_par::Pool;

use crate::model::DeepJoin;

/// Minimum columns per task: below this, thread hand-off costs more than
/// the encode itself.
const MIN_COLS_PER_CHUNK: usize = 8;

/// Encode every column of `repo`, single-threaded. Returns row-major
/// embeddings in repository order.
pub fn encode_repository(model: &DeepJoin, repo: &Repository) -> Vec<f32> {
    let dim = model.config().dim;
    let mut out = vec![0f32; repo.len() * dim];
    for (col, slot) in repo.columns().iter().zip(out.chunks_exact_mut(dim)) {
        model.embed_column_into(col, slot);
    }
    out
}

/// Encode every column with up to `threads` worker threads (the GPU
/// stand-in). Output is row-major in repository order, identical to
/// [`encode_repository`].
pub fn encode_repository_parallel(model: &DeepJoin, repo: &Repository, threads: usize) -> Vec<f32> {
    let dim = model.config().dim;
    let columns = repo.columns();
    let mut out = vec![0f32; columns.len() * dim];
    Pool::new(threads.max(1)).for_each_chunk_mut(
        &mut out,
        columns.len(),
        MIN_COLS_PER_CHUNK,
        |range, slot| {
            for (col, slot) in columns[range].iter().zip(slot.chunks_exact_mut(dim)) {
                model.embed_column_into(col, slot);
            }
        },
    );
    out
}

/// Encode a batch of query columns in parallel (used by the efficiency
/// benches to measure the GPU-stand-in query path).
pub fn encode_queries_parallel(model: &DeepJoin, queries: &[Column], threads: usize) -> Vec<Vec<f32>> {
    let mut out: Vec<Vec<f32>> = vec![Vec::new(); queries.len()];
    Pool::new(threads.max(1)).for_each_chunk_mut(
        &mut out,
        queries.len(),
        MIN_COLS_PER_CHUNK,
        |range, slot| {
            for (v, q) in slot.iter_mut().zip(&queries[range]) {
                *v = model.embed_column(q);
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DeepJoinConfig, Variant};
    use crate::train::JoinType;
    use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};

    fn trained_model_and_repo() -> (DeepJoin, Repository) {
        let mut cfg = CorpusConfig::new(CorpusProfile::Webtable, 150, 31);
        cfg.num_domains = 7;
        cfg.entities_per_domain = 150;
        let corpus = Corpus::generate(cfg);
        let (repo, _) = corpus.to_repository();
        let dj_cfg = DeepJoinConfig {
            variant: Variant::DistilLite,
            dim: 16,
            sgns: deepjoin_embed::SgnsConfig {
                dim: 16,
                epochs: 1,
                ..Default::default()
            },
            fine_tune: crate::train::FineTuneConfig {
                epochs: 1,
                ..Default::default()
            },
            ..DeepJoinConfig::default()
        };
        let (model, _) = DeepJoin::train(&repo, JoinType::Equi, dj_cfg);
        (model, repo)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (model, repo) = trained_model_and_repo();
        let seq = encode_repository(&model, &repo);
        let par = encode_repository_parallel(&model, &repo, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn parallel_queries_match() {
        let (model, repo) = trained_model_and_repo();
        let queries: Vec<Column> = repo.columns().iter().take(7).cloned().collect();
        let seq = encode_queries_parallel(&model, &queries, 1);
        let par = encode_queries_parallel(&model, &queries, 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn thread_count_edge_cases() {
        let (model, repo) = trained_model_and_repo();
        let zero = encode_repository_parallel(&model, &repo, 0);
        assert_eq!(zero.len(), repo.len() * 16);
        let many = encode_repository_parallel(&model, &repo, 999);
        assert_eq!(many, zero);
    }
}
