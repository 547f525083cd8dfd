//! Scatter-gather search over a segmented index.
//!
//! A segmented index is N immutable segments (mapped DJAR files, live-lake
//! flush segments, a memtable snapshot) that each answer a wave of top-k
//! queries independently. [`search_segments`] scatters the per-segment
//! searches across a [`Pool`], then gathers every partial result through the
//! same bounded selector the per-index scans use — so the merged result is
//! **deterministic** (independent of thread count and completion order) and
//! exactly what a serial loop over the segments would produce.
//!
//! The per-segment closure returns global ids: segments number their rows
//! locally, so the closure is where slab-local → global id translation
//! happens (the caller owns that mapping; see `LiveView::search_wave`).

use crate::budget::BudgetedSearch;
use crate::index::{push_top, Neighbor};
use deepjoin_par::Pool;

/// Answer a wave of `nq` queries over every segment: `f` searches one
/// segment for the whole wave (one result per member, in member order — so a
/// segment's rows are pulled through the cache once per wave, see
/// `flat::scan_wave`), and each member's partial top-k lists merge into one
/// bounded top-k. Per-segment searches run scattered on `pool` (serial pools
/// degrade gracefully to a loop); results are gathered in segment order, so
/// hits, `complete`, and `visited` are identical across thread counts, and
/// each member's result is what it would get asked alone. `f` must return
/// hits with **global** ids, sorted by [`Neighbor::rank`] as every search in
/// this crate does.
pub fn search_segments<S, F>(
    pool: &Pool,
    segments: &[S],
    nq: usize,
    k: usize,
    f: F,
) -> Vec<BudgetedSearch>
where
    S: Sync,
    F: Fn(&S) -> Vec<BudgetedSearch> + Sync,
{
    // One list per chunk of segments, in chunk order (deterministic): the
    // chunk's segments' answers back to back, `nq` per segment, in the first
    // answer's own vector (a chunk is one segment until there are many).
    let partials: Vec<Vec<BudgetedSearch>> = pool.map(segments.len(), 1, |range| {
        let mut answers = segments[range].iter().map(|segment| {
            let wave = f(segment);
            assert_eq!(wave.len(), nq, "segment answered a different wave size");
            wave
        });
        let mut all = answers.next().unwrap_or_default();
        for more in answers {
            all.extend(more);
        }
        all
    });

    let mut merged: Vec<BudgetedSearch> = (0..nq)
        .map(|_| BudgetedSearch {
            hits: Vec::with_capacity(k),
            complete: true,
            visited: 0,
        })
        .collect();
    for chunk in partials {
        for (i, partial) in chunk.into_iter().enumerate() {
            let member = &mut merged[i % nq];
            member.complete &= partial.complete;
            member.visited += partial.visited;
            for n in partial.hits {
                push_top(&mut member.hits, k, n.id, n.distance);
            }
        }
    }
    for member in &mut merged {
        member.hits.sort_by(Neighbor::rank);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::distance::Metric;
    use crate::flat::FlatIndex;
    use crate::index::{SearchRequest, VectorIndex};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A toy segment: a flat index plus the global id of its first row.
    struct Seg {
        base: u32,
        index: FlatIndex,
    }

    fn build_segments(n_segs: usize, rows_per: usize, dim: usize) -> (Vec<Seg>, FlatIndex) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut all = FlatIndex::new(dim, Metric::L2);
        let mut segs = Vec::new();
        for s in 0..n_segs {
            let data: Vec<f32> = (0..rows_per * dim)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let mut idx = FlatIndex::new(dim, Metric::L2);
            idx.add_batch(&data);
            all.add_batch(&data);
            segs.push(Seg {
                base: (s * rows_per) as u32,
                index: idx,
            });
        }
        (segs, all)
    }

    /// The wave over every segment, segment-local ids made global.
    fn search_wave(
        pool: &Pool,
        segs: &[Seg],
        queries: &[f32],
        dim: usize,
        k: usize,
    ) -> Vec<BudgetedSearch> {
        let req = SearchRequest {
            queries,
            k,
            budget: &Budget::unlimited(),
            deleted: None,
        };
        search_segments(pool, segs, queries.len() / dim, k, |seg| {
            let mut wave = seg.index.search_wave(&req);
            for n in wave.iter_mut().flat_map(|r| &mut r.hits) {
                n.id += seg.base;
            }
            wave
        })
    }

    fn search_all(pool: &Pool, segs: &[Seg], q: &[f32], k: usize) -> BudgetedSearch {
        search_wave(pool, segs, q, q.len(), k).remove(0)
    }

    #[test]
    fn scatter_gather_matches_one_big_index() {
        let (segs, all) = build_segments(7, 50, 6);
        let q: Vec<f32> = vec![0.1; 6];
        let merged = search_all(&Pool::global(), &segs, &q, 10);
        let oracle = all.search(&q, 10);
        assert_eq!(merged.hits, oracle);
        assert!(merged.complete);
        assert_eq!(merged.visited, 7 * 50);
    }

    #[test]
    fn result_is_thread_count_independent() {
        let (segs, _) = build_segments(9, 40, 5);
        let q: Vec<f32> = vec![-0.3; 5];
        let serial = search_all(&Pool::serial(), &segs, &q, 8);
        for threads in [2, 3, 8] {
            let parallel = search_all(&Pool::new(threads), &segs, &q, 8);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn empty_segment_list_yields_empty_complete_result() {
        let segs: Vec<Seg> = Vec::new();
        let r = search_all(&Pool::global(), &segs, &[0.0; 4], 5);
        assert!(r.hits.is_empty());
        assert!(r.complete);
        assert_eq!(r.visited, 0);
    }

    #[test]
    fn a_wave_over_segments_matches_its_members_asked_alone() {
        let (segs, _) = build_segments(7, 50, 6);
        let queries: Vec<f32> = (0..5 * 6).map(|i| (i as f32 * 0.31).sin()).collect();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let wave = search_wave(&pool, &segs, &queries, 6, 10);
            assert_eq!(wave.len(), 5);
            for (q, got) in queries.chunks_exact(6).zip(&wave) {
                assert_eq!(&search_all(&pool, &segs, q, 10), got, "threads={threads}");
            }
        }
        // An empty wave over real segments yields no results.
        assert!(search_wave(&Pool::global(), &segs, &[], 6, 10).is_empty());
    }

    #[test]
    fn incomplete_partials_mark_the_merge_incomplete() {
        let (segs, _) = build_segments(3, 30, 4);
        let q = vec![0.0; 4];
        // An already-expired budget: every scan stops before any work.
        let budget = Budget::with_deadline(std::time::Instant::now());
        let req = SearchRequest::one(&q, 5, &budget);
        let r = search_segments(&Pool::global(), &segs, 1, 5, |seg| seg.index.search_wave(&req));
        assert!(!r[0].complete);
    }
}
