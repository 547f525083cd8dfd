//! IVFPQ: an inverted file over a k-means coarse quantizer with product-
//! quantized residual-free codes — the billion-scale option §3.3 mentions
//! (the common Faiss recipe).
//!
//! Build: train the coarse quantizer, then train PQ codebooks on the
//! **residuals** `v − centroid(v)` (as Faiss does — residual encoding is
//! what gives PQ resolution *inside* a list). Each vector is assigned to its
//! nearest coarse centroid and its residual's PQ code is stored in that
//! centroid's inverted list. Search probes the `nprobe` nearest lists; for
//! each probed list an ADC table is built from the query's residual against
//! that list's centroid.

use deepjoin_par::Pool;

use crate::budget::BudgetedSearch;
use crate::distance::Metric;
use crate::index::{finalize_hits, Neighbor, SearchRequest, VectorIndex};
use crate::kmeans::{Kmeans, KmeansConfig};
use crate::pq::{PqConfig, ProductQuantizer};
use crate::sq8::{Sq8Plane, RESCORE_FACTOR};
use crate::tombstones::TombSet;

/// IVFPQ parameters.
#[derive(Debug, Clone, Copy)]
pub struct IvfPqConfig {
    /// Number of coarse centroids (inverted lists).
    pub nlist: usize,
    /// Lists probed per query.
    pub nprobe: usize,
    /// PQ settings.
    pub pq: PqConfig,
    /// Seed for the coarse quantizer.
    pub seed: u64,
    /// Keep an SQ8 plane of the original vectors (1 byte/dim, affine map
    /// trained alongside the quantizers) and rerank the top ADC candidates
    /// against it — near-exact refinement for a 4×-smaller-than-f32 cost.
    pub refine_sq8: bool,
}

impl Default for IvfPqConfig {
    fn default() -> Self {
        Self {
            nlist: 64,
            nprobe: 8,
            pq: PqConfig::default(),
            seed: 0x1F,
            refine_sq8: true,
        }
    }
}

/// The index. Unlike [`crate::hnsw::HnswIndex`], IVFPQ requires a training
/// pass before vectors can be added.
pub struct IvfPqIndex {
    dim: usize,
    config: IvfPqConfig,
    coarse: Option<Kmeans>,
    pq: Option<ProductQuantizer>,
    /// Inverted lists: per coarse centroid, (id, code) entries.
    lists: Vec<Vec<(u32, Vec<u8>)>>,
    /// SQ8 refinement plane over the *original* vectors (row = id), grown
    /// at `add` time with affine parameters fixed during `train`.
    sq8: Option<Sq8Plane>,
    len: usize,
}

impl IvfPqIndex {
    /// Untrained index.
    pub fn new(dim: usize, config: IvfPqConfig) -> Self {
        Self {
            dim,
            config,
            coarse: None,
            pq: None,
            lists: Vec::new(),
            sq8: None,
            len: 0,
        }
    }

    /// Train the coarse quantizer and PQ codebooks on row-major `data`.
    /// Uses the process-global pool; output is pool-size invariant.
    pub fn train(&mut self, data: &[f32]) {
        self.train_with_pool(data, &Pool::global());
    }

    /// [`IvfPqIndex::train`] with an explicit pool.
    pub fn train_with_pool(&mut self, data: &[f32], pool: &Pool) {
        assert!(!data.is_empty(), "empty training set");
        assert_eq!(data.len() % self.dim, 0, "bad shape");
        let dim = self.dim;
        let coarse = Kmeans::train_with_pool(
            data,
            dim,
            KmeansConfig {
                k: self.config.nlist,
                max_iters: 25,
                seed: self.config.seed,
            },
            pool,
        );
        // Train PQ on residuals v − centroid(v); the per-point residuals are
        // independent, so chunk them across the pool.
        let n = data.len() / dim;
        let mut residuals = vec![0f32; data.len()];
        let coarse_ref = &coarse;
        pool.for_each_chunk_mut(&mut residuals, n, 64, |range, out| {
            let mut scratch = vec![0f32; coarse_ref.k()];
            for (j, i) in range.enumerate() {
                let v = &data[i * dim..(i + 1) * dim];
                let c = coarse_ref.centroid(coarse_ref.assign_with_scratch(v, &mut scratch));
                for ((r, &a), &b) in out[j * dim..(j + 1) * dim].iter_mut().zip(v).zip(c) {
                    *r = a - b;
                }
            }
        });
        self.lists = vec![Vec::new(); coarse.k()];
        self.coarse = Some(coarse);
        self.pq = Some(ProductQuantizer::train_with_pool(
            &residuals,
            dim,
            self.config.pq,
            pool,
        ));
        self.sq8 = if self.config.refine_sq8 {
            let (scale, offset) = Sq8Plane::affine_from(data, dim);
            Some(Sq8Plane::with_affine(dim, scale, offset))
        } else {
            None
        };
    }

    /// True once `train` has run.
    pub fn is_trained(&self) -> bool {
        self.coarse.is_some()
    }

    /// The SQ8 refinement plane, when enabled and trained.
    pub fn sq8(&self) -> Option<&Sq8Plane> {
        self.sq8.as_ref()
    }

    /// One wave member: ids in `deleted` are skipped at ADC candidate
    /// collection, so they neither appear in results nor crowd live rows out
    /// of the refinement shortlist.
    fn search_one(&self, query: &[f32], k: usize, deleted: Option<&TombSet>) -> Vec<Neighbor> {
        let (Some(coarse), Some(pq)) = (self.coarse.as_ref(), self.pq.as_ref()) else {
            return Vec::new();
        };
        let probes = coarse.assign_n(query, self.config.nprobe.min(coarse.k()));
        let mut hits = Vec::new();
        for p in probes {
            let q_residual: Vec<f32> = query
                .iter()
                .zip(coarse.centroid(p))
                .map(|(a, b)| a - b)
                .collect();
            let table = pq.adc_table(&q_residual);
            for (id, code) in &self.lists[p] {
                if deleted.is_some_and(|t| t.contains(*id)) {
                    continue;
                }
                hits.push(Neighbor {
                    id: *id,
                    distance: pq.adc_distance(&table, code),
                });
            }
        }
        // SQ8 refinement: rerank the top ADC candidates against the
        // quantized originals. The asymmetric L2 surrogate is exact to the
        // dequantized row, so the rerank wipes out most of the PQ error.
        if let Some(plane) = &self.sq8 {
            let shortlist = finalize_hits(hits, k.saturating_mul(RESCORE_FACTOR).max(k));
            let prep = plane.prepare(query, Metric::L2, false);
            hits = shortlist
                .into_iter()
                .map(|h| Neighbor {
                    id: h.id,
                    distance: plane.surrogate(&prep, h.id),
                })
                .collect();
        }
        let mut out = finalize_hits(hits, k);
        for h in &mut out {
            h.distance = h.distance.sqrt();
        }
        out
    }
}

impl VectorIndex for IvfPqIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        Metric::L2
    }

    fn len(&self) -> usize {
        self.len
    }

    fn add(&mut self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        let coarse = self.coarse.as_ref().expect("train() before add()");
        let pq = self.pq.as_ref().expect("train() before add()");
        let id = self.len as u32;
        let list = coarse.assign(vector);
        let residual: Vec<f32> = vector
            .iter()
            .zip(coarse.centroid(list))
            .map(|(a, b)| a - b)
            .collect();
        let code = pq.encode(&residual);
        self.lists[list].push((id, code));
        if let Some(plane) = &mut self.sq8 {
            plane.push(vector);
        }
        self.len += 1;
        id
    }

    /// Takes the request for its filter and its wave shape only: IVFPQ does
    /// not poll the budget or count evaluations, so every member reports
    /// `complete == true` and `visited == 0`, whatever the deadline or
    /// effort rung.
    fn search_wave(&self, req: &SearchRequest<'_>) -> Vec<BudgetedSearch> {
        req.members(self.dim)
            .map(|query| BudgetedSearch {
                hits: self.search_one(query, req.k, req.deleted),
                complete: true,
                visited: 0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            for d in 0..dim {
                data.push(centers[i % clusters][d] + rng.gen_range(-0.2f32..0.2));
            }
        }
        data
    }

    #[test]
    fn reasonable_recall_on_clustered_data() {
        let dim = 8;
        let data = clustered(3000, dim, 24, 1);
        let mut idx = IvfPqIndex::new(
            dim,
            IvfPqConfig {
                nlist: 24,
                nprobe: 6,
                pq: PqConfig {
                    m: 4,
                    ks: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        idx.train(&data);
        idx.add_batch(&data);

        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);

        let queries = clustered(20, dim, 24, 2);
        let mut hit = 0usize;
        for q in queries.chunks_exact(dim) {
            let truth: std::collections::HashSet<u32> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            hit += idx.search(q, 10).iter().filter(|h| truth.contains(&h.id)).count();
        }
        let recall = hit as f64 / 200.0;
        assert!(recall > 0.5, "IVFPQ recall {recall}");
    }

    #[test]
    fn sq8_refinement_does_not_lose_recall_and_tightens_distances() {
        let dim = 8;
        let data = clustered(3000, dim, 24, 5);
        let build = |refine_sq8| {
            let mut idx = IvfPqIndex::new(
                dim,
                IvfPqConfig {
                    nlist: 24,
                    nprobe: 6,
                    pq: PqConfig {
                        m: 4,
                        ks: 64,
                        ..Default::default()
                    },
                    refine_sq8,
                    ..Default::default()
                },
            );
            idx.train(&data);
            idx.add_batch(&data);
            idx
        };
        let plain = build(false);
        let refined = build(true);
        assert!(plain.sq8().is_none());
        assert_eq!(refined.sq8().unwrap().len(), 3000);

        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);
        let queries = clustered(20, dim, 24, 6);
        let recall = |idx: &IvfPqIndex| {
            let mut hit = 0usize;
            for q in queries.chunks_exact(dim) {
                let truth: std::collections::HashSet<u32> =
                    flat.search(q, 10).into_iter().map(|h| h.id).collect();
                hit += idx.search(q, 10).iter().filter(|h| truth.contains(&h.id)).count();
            }
            hit as f64 / 200.0
        };
        let r_plain = recall(&plain);
        let r_refined = recall(&refined);
        assert!(
            r_refined >= r_plain,
            "refined {r_refined} must not lose to plain {r_plain}"
        );
        // Refined distances are near-exact (SQ8 half-step error), unlike
        // raw ADC estimates.
        for q in queries.chunks_exact(dim) {
            for h in refined.search(q, 5) {
                let row = &data[h.id as usize * dim..(h.id as usize + 1) * dim];
                let want = Metric::L2.distance(q, row);
                assert!(
                    (h.distance - want).abs() <= 0.05 * want.max(1.0),
                    "id {}: {} vs exact {want}",
                    h.id,
                    h.distance
                );
            }
        }
    }

    #[test]
    fn filtered_search_never_returns_tombstoned_ids() {
        let dim = 8;
        let data = clustered(1500, dim, 16, 9);
        for refine_sq8 in [false, true] {
            let mut idx = IvfPqIndex::new(
                dim,
                IvfPqConfig {
                    nlist: 16,
                    nprobe: 8,
                    pq: PqConfig {
                        m: 4,
                        ks: 32,
                        ..Default::default()
                    },
                    refine_sq8,
                    ..Default::default()
                },
            );
            idx.train(&data);
            idx.add_batch(&data);
            let q = &data[7 * dim..8 * dim];
            let tombs: TombSet = idx.search(q, 10).into_iter().map(|h| h.id).collect();
            let hits = idx.search_one(q, 10, Some(&tombs));
            assert_eq!(hits.len(), 10, "refine_sq8 {refine_sq8}");
            for h in &hits {
                assert!(!tombs.contains(h.id), "tombstoned id {} returned", h.id);
            }
        }
    }

    #[test]
    fn untrained_search_is_empty_and_add_panics() {
        let idx = IvfPqIndex::new(4, IvfPqConfig::default());
        assert!(idx.search(&[0.0; 4], 3).is_empty());
        assert!(!idx.is_trained());
    }

    #[test]
    #[should_panic]
    fn add_before_train_panics() {
        let mut idx = IvfPqIndex::new(4, IvfPqConfig::default());
        idx.add(&[0.0; 4]);
    }

    #[test]
    fn probing_more_lists_improves_recall() {
        let dim = 8;
        let data = clustered(2000, dim, 32, 3);
        let build = |nprobe| {
            let mut idx = IvfPqIndex::new(
                dim,
                IvfPqConfig {
                    nlist: 32,
                    nprobe,
                    pq: PqConfig {
                        m: 4,
                        ks: 32,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            idx.train(&data);
            idx.add_batch(&data);
            idx
        };
        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);
        let queries = clustered(20, dim, 32, 4);

        let recall = |idx: &IvfPqIndex| {
            let mut hit = 0usize;
            for q in queries.chunks_exact(dim) {
                let truth: std::collections::HashSet<u32> =
                    flat.search(q, 10).into_iter().map(|h| h.id).collect();
                hit += idx.search(q, 10).iter().filter(|h| truth.contains(&h.id)).count();
            }
            hit as f64 / 200.0
        };
        let r1 = recall(&build(1));
        let r16 = recall(&build(16));
        assert!(r16 >= r1, "nprobe 16 ({r16}) should not lose to 1 ({r1})");
        assert!(r16 > 0.6, "r16 {r16}");
    }
}
