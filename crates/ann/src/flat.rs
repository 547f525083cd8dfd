//! Exact brute-force index: the correctness oracle and small-scale fallback.
//!
//! The scan is *blocked and batched*: [`scan_wave`] pulls the store through
//! the cache one row block at a time and scores each block against every
//! query of the wave with the one-vs-many SIMD kernels (`deepjoin-simd`),
//! filling a dense score buffer instead of calling a distance function per
//! vector. It is the only scan loop in the crate — the f32 scan here and the
//! SQ8 candidate pass (`sq8`) differ only in the block scorer they hand it.

use serde::{Deserialize, Serialize};

use crate::budget::{Budget, BudgetedSearch, Effort, TRUNCATED_SCAN_ROWS};
use crate::distance::Metric;
use crate::index::{push_top, Neighbor, SearchRequest, VectorIndex};
use crate::plane::PodVec;
use crate::sq8::Sq8Plane;
use crate::tombstones::TombSet;

/// Rows scored per block. Large enough to amortize dispatch, small enough
/// that the score buffer stays in L1.
pub(crate) const SCAN_BLOCK: usize = 256;

/// The blocked scan over rows `0..n` for a wave of `nq` queries, keeping
/// each member's best `keep` rows ranked by the scorer's surrogate. The loop
/// is rows-outer, queries-inner: `score(member, base, out)` fills `out` with
/// the surrogates of rows `base..base + out.len()` for one member, so each
/// block is pulled through the cache once per wave instead of once per query
/// — and per `(member, block)` the kernel call and selector pushes are
/// exactly those of a wave of one, so an unexpired wave is bit-identical to
/// its members asked alone. One budget governs the wave: it is polled once
/// per block, and on expiry every member stops at the same block boundary
/// with its best-so-far hits (`complete == false`). Brownout rung 3
/// ([`Effort::Truncated`]) answers from a bounded row prefix and is honest
/// about it the same way. Tombstoned rows are still scored by the block
/// kernel but never offered to a selector, so they can neither appear in
/// results nor displace a live candidate. `visited` counts the rows scored;
/// hits carry surrogates for the caller to convert or rescore.
pub(crate) fn scan_wave(
    n: usize,
    nq: usize,
    keep: usize,
    budget: &Budget,
    deleted: Option<&TombSet>,
    mut score: impl FnMut(usize, usize, &mut [f32]),
) -> Vec<BudgetedSearch> {
    let end = if budget.effort() >= Effort::Truncated {
        n.min(TRUNCATED_SCAN_ROWS)
    } else {
        n
    };
    let limited = budget.is_limited();
    let deleted = deleted.filter(|tombs| !tombs.is_empty());
    let mut wave: Vec<BudgetedSearch> = (0..nq)
        .map(|_| BudgetedSearch {
            hits: Vec::with_capacity(keep.min(end)),
            complete: end == n,
            visited: 0,
        })
        .collect();
    let mut scores = [0f32; SCAN_BLOCK];
    let mut base = 0usize;
    while base < end {
        if limited && budget.expired() {
            wave.iter_mut().for_each(|r| r.complete = false);
            break;
        }
        let rows = SCAN_BLOCK.min(end - base);
        for (member, result) in wave.iter_mut().enumerate() {
            score(member, base, &mut scores[..rows]);
            for (i, &s) in scores[..rows].iter().enumerate() {
                let id = (base + i) as u32;
                if deleted.is_none_or(|tombs| !tombs.contains(id)) {
                    push_top(&mut result.hits, keep, id, s);
                }
            }
        }
        base += rows;
    }
    for result in &mut wave {
        result.hits.sort_by(Neighbor::rank);
        result.visited = base;
    }
    wave
}

/// Exact f32 wave over row-major `data`: [`scan_wave`] with the
/// [`Metric::surrogate_block`] scorer, survivors converted to distances.
/// Shared by [`FlatIndex`] and the HNSW flat-rescue rung
/// (`HnswIndex::flat_rescue`).
pub(crate) fn exact_wave(
    data: &[f32],
    dim: usize,
    metric: Metric,
    unit_norm: bool,
    req: &SearchRequest<'_>,
) -> Vec<BudgetedSearch> {
    let nq = req.members(dim).len();
    let mut wave = scan_wave(
        data.len() / dim,
        nq,
        req.k,
        req.budget,
        req.deleted,
        |m, base, out| {
            let query = &req.queries[m * dim..(m + 1) * dim];
            let block = &data[base * dim..(base + out.len()) * dim];
            metric.surrogate_block(query, block, unit_norm, out);
        },
    );
    for h in wave.iter_mut().flat_map(|r| &mut r.hits) {
        h.distance = metric.distance_from_surrogate(h.distance, unit_norm);
    }
    wave
}

/// Linear-scan exact kNN.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatIndex {
    dim: usize,
    metric: Metric,
    /// Row-major vectors: heap-owned after a build, or a zero-copy view
    /// into a mapped v2 artifact section (see [`crate::plane`]). Every scan
    /// goes through `as_slice`, so both backings search byte-identically.
    data: PodVec<f32>,
    /// True when every stored vector is promised to be unit-norm (set at
    /// build time by the caller, e.g. DeepJoin's normalizing encoder). Lets
    /// cosine rank by the cheap `-dot` surrogate. Not persisted: decoded
    /// indexes conservatively fall back to the full cosine path.
    #[serde(skip)]
    unit_norm: bool,
    /// Optional SQ8 plane: when attached, scans run two-stage (quantized
    /// candidate generation + exact f32 rescore, see `sq8`). Persisted as
    /// its own `SQ8V` section, not through serde.
    #[serde(skip)]
    sq8: Option<Sq8Plane>,
}

impl FlatIndex {
    /// Empty index of dimension `dim`.
    pub fn new(dim: usize, metric: Metric) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self {
            dim,
            metric,
            data: PodVec::new(),
            unit_norm: false,
            sq8: None,
        }
    }

    /// Index over an existing vector plane (heap or mapped): `data` holds
    /// `data.len() / dim` row-major vectors. Used by the artifact decoders.
    pub fn from_plane(dim: usize, metric: Metric, data: PodVec<f32>) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "plane length not a multiple of dim");
        Self {
            dim,
            metric,
            data,
            unit_norm: false,
            sq8: None,
        }
    }

    /// The raw row-major vector plane.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The vector plane itself — clone it (cheap for mapped views) to hand
    /// the same backing to another structure without copying.
    pub fn plane(&self) -> &PodVec<f32> {
        &self.data
    }

    /// True when the vector plane is a zero-copy view of a mapped artifact
    /// rather than heap-resident (reported by `dj info`).
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Declare (at build time) that every vector added is L2-normalized,
    /// enabling the cosine fast path. The promise is the caller's to keep.
    pub fn with_unit_norm(mut self, unit_norm: bool) -> Self {
        self.unit_norm = unit_norm;
        self
    }

    /// Whether the index assumes unit-norm vectors.
    pub fn unit_norm(&self) -> bool {
        self.unit_norm
    }

    /// Stored vector by id.
    pub fn vector(&self, id: u32) -> &[f32] {
        let i = id as usize * self.dim;
        &self.data[i..i + self.dim]
    }

    /// Quantize the stored vectors into an SQ8 plane and attach it: scans
    /// switch to the two-stage quantized-then-rescored path. Call after the
    /// index is fully populated — a later [`VectorIndex::add`] drops the
    /// plane (its codes would be stale).
    pub fn quantize_sq8(&mut self) {
        self.sq8 = Some(Sq8Plane::quantize(&self.data, self.dim));
    }

    /// Attach an already-built SQ8 plane (e.g. decoded from a snapshot's
    /// `SQ8V` section). The plane must cover exactly the stored rows.
    pub fn attach_sq8(&mut self, plane: Sq8Plane) {
        assert_eq!(plane.dim(), self.dim, "plane dimension mismatch");
        assert_eq!(plane.len(), self.len(), "plane row-count mismatch");
        self.sq8 = Some(plane);
    }

    /// Drop the SQ8 plane, reverting to exact f32 scans.
    pub fn detach_sq8(&mut self) {
        self.sq8 = None;
    }

    /// The attached SQ8 plane, when one exists.
    pub fn sq8(&self) -> Option<&Sq8Plane> {
        self.sq8.as_ref()
    }
}

impl VectorIndex for FlatIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    fn add(&mut self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        // An attached plane no longer covers the new row; drop it rather
        // than serve stale codes. Re-quantize after bulk loading.
        self.sq8 = None;
        let id = self.len() as u32;
        // A mapped plane materializes to heap on first mutation.
        self.data.make_mut().extend_from_slice(vector);
        id
    }

    /// Rank by the cheap surrogate, computed block-at-a-time into bounded
    /// top-k selectors (never materializing all n hits): two-stage over the
    /// SQ8 plane when one is attached (`sq8`), the exact f32 scan otherwise.
    /// Tombstoned ids never appear on either path.
    fn search_wave(&self, req: &SearchRequest<'_>) -> Vec<BudgetedSearch> {
        match &self.sq8 {
            Some(plane) => plane.two_stage_wave(&self.data, self.metric, self.unit_norm, req),
            None => exact_wave(&self.data, self.dim, self.metric, self.unit_norm, req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::wave_of_one;
    use crate::index::Neighbor;
    use deepjoin_par::Pool;

    #[test]
    fn truncated_effort_scans_a_bounded_prefix_and_reports_incomplete() {
        let dim = 2;
        let n = TRUNCATED_SCAN_ROWS + 512;
        let mut data = vec![0f32; n * dim];
        for (i, row) in data.chunks_mut(dim).enumerate() {
            row[0] = i as f32;
        }
        // The true nearest neighbor to this query lives past the truncation
        // horizon — a truncated scan must miss it and say so.
        let query = vec![(n - 1) as f32, 0.0];
        let scan = |budget: Budget| {
            let req = SearchRequest {
                queries: &query,
                k: 1,
                budget: &budget,
                deleted: None,
            };
            exact_wave(&data, dim, Metric::L2, false, &req).remove(0)
        };
        let full = scan(Budget::unlimited());
        assert!(full.complete);
        assert_eq!(full.hits[0].id, (n - 1) as u32);
        let cut = scan(Budget::unlimited().with_effort(Effort::Truncated));
        assert!(!cut.complete, "truncated scans are honest about coverage");
        assert_eq!(cut.visited, TRUNCATED_SCAN_ROWS);
        assert_eq!(cut.hits[0].id, (TRUNCATED_SCAN_ROWS - 1) as u32);
    }

    #[test]
    fn finds_exact_neighbors() {
        let mut idx = FlatIndex::new(2, Metric::L2);
        idx.add_batch(&[0., 0., 1., 0., 0., 1., 5., 5.]);
        let hits = idx.search(&[0.1, 0.0], 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
        assert!((hits[0].distance - 0.1).abs() < 1e-6);
    }

    #[test]
    fn k_larger_than_len() {
        let mut idx = FlatIndex::new(1, Metric::L2);
        idx.add(&[1.0]);
        assert_eq!(idx.search(&[0.0], 10).len(), 1);
    }

    #[test]
    fn inner_product_ranks_by_dot() {
        let mut idx = FlatIndex::new(2, Metric::InnerProduct);
        idx.add_batch(&[1., 0., 0., 1., 2., 2.]);
        let hits = idx.search(&[1., 1.], 3);
        assert_eq!(hits[0].id, 2);
    }

    #[test]
    fn ids_are_insertion_order() {
        let mut idx = FlatIndex::new(1, Metric::L2);
        assert_eq!(idx.add(&[1.0]), 0);
        assert_eq!(idx.add(&[2.0]), 1);
        assert_eq!(idx.vector(1), &[2.0]);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }

    #[test]
    fn scan_crosses_block_boundaries() {
        // More vectors than one scan block, with the nearest one placed in
        // the final partial block.
        let n = SCAN_BLOCK * 2 + 37;
        let mut idx = FlatIndex::new(2, Metric::L2);
        for i in 0..n {
            let x = if i == n - 1 { 0.5 } else { 10.0 + i as f32 };
            idx.add(&[x, 0.0]);
        }
        let hits = idx.search(&[0.0, 0.0], 3);
        assert_eq!(hits[0].id, (n - 1) as u32);
        assert!((hits[0].distance - 0.5).abs() < 1e-6);
    }

    #[test]
    fn unit_norm_cosine_matches_full_cosine() {
        // Unit vectors on a circle: ranking and distances must agree
        // between the fast path and the full path.
        let mut fast = FlatIndex::new(2, Metric::Cosine).with_unit_norm(true);
        let mut full = FlatIndex::new(2, Metric::Cosine);
        for i in 0..300 {
            let t = i as f32 * 0.021;
            fast.add(&[t.cos(), t.sin()]);
            full.add(&[t.cos(), t.sin()]);
        }
        let q = [0.6f32.cos(), 0.6f32.sin()];
        let a = fast.search(&q, 10);
        let b = full.search(&q, 10);
        assert_eq!(
            a.iter().map(|h| h.id).collect::<Vec<_>>(),
            b.iter().map(|h| h.id).collect::<Vec<_>>()
        );
        for (x, y) in a.iter().zip(&b) {
            assert!((x.distance - y.distance).abs() < 1e-5);
        }
    }

    #[test]
    fn expired_budget_stops_scan_with_partial_results() {
        let mut idx = FlatIndex::new(2, Metric::L2);
        for i in 0..SCAN_BLOCK * 4 {
            idx.add(&[i as f32, 0.0]);
        }
        let expired = Budget::with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let out = wave_of_one(&idx, &[0.0, 0.0], 5, &expired, None);
        assert!(!out.complete, "expired budget must report a partial scan");
        assert!(out.visited < idx.len(), "scan must stop early");
        // Whatever was scored is still correctly ranked.
        for w in out.hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn cancelled_budget_stops_scan() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut idx = FlatIndex::new(2, Metric::L2);
        for i in 0..SCAN_BLOCK * 2 {
            idx.add(&[i as f32, 1.0]);
        }
        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::unlimited().cancelled_by(flag.clone());
        let out = wave_of_one(&idx, &[0.0, 0.0], 3, &budget, None);
        assert!(!out.complete);
        flag.store(false, Ordering::Relaxed);
        let out = wave_of_one(&idx, &[0.0, 0.0], 3, &budget, None);
        assert!(out.complete);
        assert_eq!(out.visited, idx.len());
    }

    /// Recall@10 of the SQ8 two-stage scan vs the exact f32 scan on a
    /// seeded corpus: the rescored path must stay within 0.01 of exact.
    #[test]
    fn sq8_rescored_recall_at_10_within_1_percent_of_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (n, dim, nq, k) = (3000usize, 32usize, 50usize, 10usize);
        let mut rng = StdRng::seed_from_u64(0x5A8);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut exact = FlatIndex::new(dim, Metric::L2);
        exact.add_batch(&data);
        let mut quant = exact.clone();
        quant.quantize_sq8();
        assert!(quant.sq8().is_some());
        let mut matched = 0usize;
        for _ in 0..nq {
            let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let truth: std::collections::HashSet<u32> =
                exact.search(&q, k).iter().map(|h| h.id).collect();
            for h in quant.search(&q, k) {
                if truth.contains(&h.id) {
                    matched += 1;
                }
            }
        }
        let recall = matched as f64 / (nq * k) as f64;
        assert!(recall >= 0.99, "SQ8 recall@10 {recall} below 0.99");
    }

    #[test]
    fn sq8_distances_are_exact_f32_distances() {
        let mut idx = FlatIndex::new(3, Metric::L2);
        let data: Vec<f32> = (0..3 * 200).map(|i| (i as f32 * 0.37).sin()).collect();
        idx.add_batch(&data);
        let plain = idx.search(&[0.3, -0.1, 0.8], 5);
        idx.quantize_sq8();
        let quant = idx.search(&[0.3, -0.1, 0.8], 5);
        for (p, q) in plain.iter().zip(&quant) {
            assert_eq!(p.id, q.id);
            assert!((p.distance - q.distance).abs() < 1e-6, "rescored distance must be exact");
        }
    }

    #[test]
    fn add_after_quantize_drops_stale_plane() {
        let mut idx = FlatIndex::new(2, Metric::L2);
        idx.add_batch(&[0., 0., 1., 1.]);
        idx.quantize_sq8();
        assert!(idx.sq8().is_some());
        idx.add(&[2., 2.]);
        assert!(idx.sq8().is_none(), "stale plane must not survive an add");
        // And the new row is searchable.
        assert_eq!(idx.search(&[2., 2.], 1)[0].id, 2);
    }

    #[test]
    fn filtered_scan_excludes_tombstones_in_both_scan_paths() {
        let mut idx = FlatIndex::new(2, Metric::L2);
        for i in 0..600 {
            idx.add(&[i as f32, 0.0]);
        }
        let tombs: TombSet = [0u32, 1, 2, 5, 300].into_iter().collect();
        // Exact path: the nearest live rows are 3, 4, 6, 7.
        let hits = wave_of_one(&idx, &[0.0, 0.0], 4, &Budget::unlimited(), Some(&tombs));
        assert_eq!(hits.hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 4, 6, 7]);
        // SQ8 two-stage path: same contract.
        idx.quantize_sq8();
        let hits = wave_of_one(&idx, &[0.0, 0.0], 4, &Budget::unlimited(), Some(&tombs));
        assert_eq!(hits.hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 4, 6, 7]);
        // An empty tombset behaves exactly like no tombset.
        let none = wave_of_one(&idx, &[0.0, 0.0], 4, &Budget::unlimited(), None);
        let empty = wave_of_one(&idx, &[0.0, 0.0], 4, &Budget::unlimited(), Some(&TombSet::new()));
        assert_eq!(none.hits, empty.hits);
    }

    #[test]
    fn batch_search_matches_sequential_for_any_pool() {
        let mut idx = FlatIndex::new(4, Metric::L2);
        let data: Vec<f32> = (0..400).map(|i| (i as f32 * 0.13).sin()).collect();
        idx.add_batch(&data);
        let queries: Vec<f32> = (0..40).map(|i| (i as f32 * 0.29).cos()).collect();
        let seq: Vec<Vec<Neighbor>> = queries
            .chunks_exact(4)
            .map(|q| idx.search(q, 5))
            .collect();
        for threads in [1, 2, 8] {
            let par = idx.search_batch(&queries, 5, &Pool::new(threads));
            assert_eq!(seq, par, "threads {threads}");
        }
    }
}
