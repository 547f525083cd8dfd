//! The common index interface every ANNS backend implements, so DeepJoin can
//! swap Flat / HNSW / IVFPQ per §3.3.

use std::cmp::Ordering;

use deepjoin_par::Pool;

use crate::budget::{Budget, BudgetedSearch};
use crate::distance::Metric;
use crate::tombstones::TombSet;

/// One search hit: internal id + distance (smaller = closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id assigned at insertion order (0-based).
    pub id: u32,
    /// Distance under the index metric.
    pub distance: f32,
}

impl Neighbor {
    /// The one ranking every selector, sort and merge uses: ascending
    /// distance under `f32::total_cmp` (a total order — a NaN distance sorts
    /// last instead of poisoning the sort), ties by ascending id.
    pub fn rank(&self, other: &Self) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// One search: a wave of queries answered together under one `k`, one
/// budget and one tombstone filter. A single query is a wave of one.
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest<'a> {
    /// The wave's query vectors, row-major (`nq × dim`; empty = no members).
    pub queries: &'a [f32],
    /// Hits wanted per member.
    pub k: usize,
    /// Deadline, cancellation and effort rung shared by the whole wave (a
    /// caller batching requests passes the tightest member's budget).
    pub budget: &'a Budget,
    /// Ids that must not appear in any member's hits.
    pub deleted: Option<&'a TombSet>,
}

impl<'a> SearchRequest<'a> {
    /// A wave of one, unfiltered.
    pub fn one(query: &'a [f32], k: usize, budget: &'a Budget) -> Self {
        Self {
            queries: query,
            k,
            budget,
            deleted: None,
        }
    }

    /// The wave's members, in order, as `dim`-long rows.
    pub fn members(&self, dim: usize) -> std::slice::ChunksExact<'a, f32> {
        assert_eq!(self.queries.len() % dim, 0, "row-major shape mismatch");
        self.queries.chunks_exact(dim)
    }
}

/// A k-nearest-neighbor index over fixed-dimension `f32` vectors.
pub trait VectorIndex {
    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// The metric the index ranks by.
    fn metric(&self) -> Metric;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert one vector, returning its id (= current `len`).
    fn add(&mut self, vector: &[f32]) -> u32;

    /// Insert many vectors (row-major, `n x dim`).
    fn add_batch(&mut self, vectors: &[f32]) {
        assert_eq!(vectors.len() % self.dim(), 0, "row-major shape mismatch");
        for row in vectors.chunks_exact(self.dim()) {
            self.add(row);
        }
    }

    /// Answer every member of the wave: one result per member, in member
    /// order, each holding that member's `k` (approximate) nearest
    /// neighbors sorted by [`Neighbor::rank`]. A member's result is
    /// bit-identical to asking for it alone under the same budget.
    fn search_wave(&self, req: &SearchRequest<'_>) -> Vec<BudgetedSearch>;

    /// The `k` (approximate) nearest neighbors of `query`: a wave of one
    /// under an unlimited budget (which never reads a clock).
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim(), "dimension mismatch");
        let budget = Budget::unlimited();
        let mut wave = self.search_wave(&SearchRequest::one(query, k, &budget));
        wave.pop().expect("one member, one result").hits
    }

    /// Search many row-major queries, parallelized over queries with
    /// `pool`. Results are identical to calling [`VectorIndex::search`] per
    /// query, in query order, for any pool size (searches are read-only).
    fn search_batch(&self, queries: &[f32], k: usize, pool: &Pool) -> Vec<Vec<Neighbor>>
    where
        Self: Sync,
    {
        let dim = self.dim();
        assert_eq!(queries.len() % dim, 0, "row-major shape mismatch");
        pool.map(queries.len() / dim, 1, |range| {
            range
                .map(|q| self.search(&queries[q * dim..(q + 1) * dim], k))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Sort hits by [`Neighbor::rank`], truncate to k.
pub fn finalize_hits(mut hits: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    hits.sort_by(Neighbor::rank);
    hits.truncate(k);
    hits
}

/// Bounded top-k selection over a plain hit list: offer one candidate to
/// `heap`, which keeps the `k` best by [`Neighbor::rank`] as a binary
/// max-heap (worst kept hit at index 0), so an exact scan never
/// materializes or sorts all `n` hits — and the selector *is* the result's
/// hit vector, no second buffer. Finish with [`finalize_hits`]; the outcome
/// matches `finalize_hits`-over-everything.
#[inline]
pub fn push_top(heap: &mut Vec<Neighbor>, k: usize, id: u32, distance: f32) {
    let cand = Neighbor { id, distance };
    // The common case in a scan — a full selector and a candidate no better
    // than its worst kept hit — is one comparison; the heap work stays out
    // of the caller's loop.
    if heap.len() < k || (k > 0 && cand.rank(&heap[0]).is_lt()) {
        keep(heap, k, cand);
    }
}

/// [`push_top`] for a candidate that belongs in the selection.
#[inline(never)]
fn keep(heap: &mut Vec<Neighbor>, k: usize, cand: Neighbor) {
    if heap.len() < k {
        // Room left: append, then sift the newcomer up.
        heap.push(cand);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[i].rank(&heap[parent]).is_le() {
                break;
            }
            heap.swap(i, parent);
            i = parent;
        }
    } else {
        // Full: the newcomer replaces the worst kept hit and sifts down.
        heap[0] = cand;
        let mut i = 0;
        loop {
            let mut child = 2 * i + 1;
            if child >= heap.len() {
                break;
            }
            if child + 1 < heap.len() && heap[child + 1].rank(&heap[child]).is_gt() {
                child += 1;
            }
            if heap[child].rank(&heap[i]).is_le() {
                break;
            }
            heap.swap(i, child);
            i = child;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Test shorthand: one query as a wave of one.
    pub(crate) fn wave_of_one(
        index: &impl VectorIndex,
        query: &[f32],
        k: usize,
        budget: &Budget,
        deleted: Option<&TombSet>,
    ) -> BudgetedSearch {
        let req = SearchRequest {
            queries: query,
            k,
            budget,
            deleted,
        };
        index.search_wave(&req).pop().expect("one member, one result")
    }

    #[test]
    fn finalize_sorts_and_truncates() {
        let hits = vec![
            Neighbor { id: 2, distance: 0.5 },
            Neighbor { id: 1, distance: 0.1 },
            Neighbor { id: 0, distance: 0.5 },
        ];
        let out = finalize_hits(hits, 2);
        assert_eq!(out[0].id, 1);
        assert_eq!(out[1].id, 0, "tie broken by id");
        assert_eq!(out.len(), 2);
    }

    /// A final beam long enough for the standard library's merge sort (which
    /// may panic on a comparison that is not a total order) and holding
    /// NaNs, as a NaN query component produces: it sorts, NaNs last, ties
    /// by id.
    #[test]
    fn one_ranking_sorts_nans_last_and_ties_by_id() {
        let beam: Vec<Neighbor> = (0..48u32)
            .rev()
            .map(|id| Neighbor {
                id,
                distance: match id % 4 {
                    0 => f32::NAN,
                    1 => 0.25,
                    _ => id as f32,
                },
            })
            .collect();
        let sorted = finalize_hits(beam.clone(), beam.len());
        let ids = |hits: &[Neighbor]| hits.iter().map(|h| h.id).collect::<Vec<_>>();
        assert_eq!(ids(&sorted[..12]), (0..12).map(|i| 4 * i + 1).collect::<Vec<_>>());
        assert!(sorted[..36].iter().all(|h| !h.distance.is_nan()));
        assert_eq!(ids(&sorted[36..]), (0..12).map(|i| 4 * i).collect::<Vec<_>>());
        // The bounded selector agrees with the full sort at every k.
        for k in [0, 1, 7, 36, 40, 48, 60] {
            let mut heap = Vec::new();
            for h in &beam {
                push_top(&mut heap, k, h.id, h.distance);
            }
            let kept = finalize_hits(heap, k);
            let want = &sorted[..k.min(sorted.len())];
            assert_eq!(ids(&kept), ids(want), "k={k}");
        }
    }
}
