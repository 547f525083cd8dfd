//! # deepjoin-par
//!
//! The shared parallelism substrate: a small scoped chunk-pool that turns
//! "apply this closure to every item of a contiguous range" into
//! cache-friendly parallel work with **deterministic results**.
//!
//! Design rules (DESIGN.md §"Performance"):
//!
//! * **Chunking is thread-count independent.** A range is partitioned into
//!   chunks whose boundaries depend only on the length and the caller's
//!   minimum chunk size — never on how many workers happen to run. Per-chunk
//!   results are collected *in chunk order* and reduced sequentially, so a
//!   1-thread and a 64-thread run produce bit-identical output even for
//!   non-associative `f32` reductions.
//! * **Workers are scoped.** Threads are spawned inside
//!   [`std::thread::scope`] for the duration of one parallel region, so
//!   closures may borrow the caller's data without `'static` gymnastics and
//!   a region can never leak threads.
//! * **Small inputs stay serial.** When the range fits in one chunk the
//!   closure runs on the calling thread — no spawn, no overhead — which is
//!   the fix for the old one-thread-per-chunk spawning in
//!   `deepjoin::batch` (it spawned even for 2-column batches).
//!
//! Chunks are handed to workers through an atomic cursor (dynamic
//! scheduling), which balances skewed per-item cost (e.g. long columns)
//! without affecting results.

#![warn(missing_docs)]

pub mod fair;

pub use fair::{FairPush, FairPushError, FairQueue};

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on chunks per region. A constant (not a function of the
/// worker count) so chunk boundaries — and therefore reduction grouping —
/// never depend on how many threads run.
const MAX_CHUNKS: usize = 64;

/// Process-wide thread budget override; 0 means "auto"
/// (`available_parallelism`). Set by `dj --threads`.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// A data-parallel executor with a fixed thread budget.
///
/// `Pool` is a lightweight handle (one `usize`); the worker threads
/// themselves are scoped to each parallel region. Clone it freely.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::auto()
    }
}

impl Pool {
    /// Pool with an explicit thread budget (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Pool sized to `std::thread::available_parallelism()`.
    pub fn auto() -> Self {
        static AUTO: OnceLock<usize> = OnceLock::new();
        let n = *AUTO.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Self::new(n)
    }

    /// Strictly serial pool (useful as a determinism reference).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The process-wide pool: honors [`Pool::set_global_threads`] if it was
    /// called (e.g. by `dj --threads N`), otherwise auto-sized.
    pub fn global() -> Self {
        match GLOBAL_THREADS.load(Ordering::Relaxed) {
            0 => Self::auto(),
            n => Self::new(n),
        }
    }

    /// Configure the process-wide thread budget (0 restores auto).
    pub fn set_global_threads(threads: usize) {
        GLOBAL_THREADS.store(threads, Ordering::Relaxed);
    }

    /// The thread budget of this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Deterministic partition of `0..len`: contiguous chunks of equal size
    /// (±1 item), each at least `min_chunk` items, at most [`MAX_CHUNKS`]
    /// chunks. Independent of the pool's thread count.
    pub fn chunks(len: usize, min_chunk: usize) -> Vec<Range<usize>> {
        if len == 0 {
            return Vec::new();
        }
        let min_chunk = min_chunk.max(1);
        // Floor division so even the smallest chunk (`base`) meets
        // `min_chunk`; ranges shorter than `min_chunk` become one chunk.
        let n_chunks = (len / min_chunk).clamp(1, MAX_CHUNKS);
        let base = len / n_chunks;
        let extra = len % n_chunks;
        let mut out = Vec::with_capacity(n_chunks);
        let mut start = 0;
        for i in 0..n_chunks {
            let size = base + usize::from(i < extra);
            out.push(start..start + size);
            start += size;
        }
        debug_assert_eq!(start, len);
        out
    }

    /// Run `f` over every chunk of `0..len`. Chunks may execute on any
    /// worker in any order; use [`Pool::map`] when per-chunk results matter.
    pub fn run<F>(&self, len: usize, min_chunk: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let chunks = Self::chunks(len, min_chunk);
        let workers = self.threads.min(chunks.len());
        if workers <= 1 {
            for c in chunks {
                f(c);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let chunks = &chunks;
        let f = &f;
        std::thread::scope(|scope| {
            for _ in 0..workers - 1 {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(c) = chunks.get(i) else { break };
                    f(c.clone());
                });
            }
            // The calling thread is the last worker.
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(c) = chunks.get(i) else { break };
                f(c.clone());
            }
        });
    }

    /// Map every chunk of `0..len` through `f`, returning per-chunk results
    /// **in chunk order** — the deterministic-reduction entry point: reduce
    /// the returned vec left-to-right and the result is independent of the
    /// thread count.
    pub fn map<R, F>(&self, len: usize, min_chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let chunks = Self::chunks(len, min_chunk);
        let slots: Vec<std::sync::Mutex<Option<R>>> =
            (0..chunks.len()).map(|_| std::sync::Mutex::new(None)).collect();
        {
            let chunks = &chunks;
            let slots = &slots;
            self.run(len, min_chunk, |range| {
                // Recover this range's chunk index from its start offset;
                // ranges come verbatim from the same partition.
                let i = chunks
                    .binary_search_by(|c| c.start.cmp(&range.start))
                    .expect("range from partition");
                *slots[i].lock().expect("slot lock") = Some(f(range));
            });
        }
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").expect("every chunk ran"))
            .collect()
    }

    /// Apply `f` to every chunk of `items` elements, handing each invocation
    /// the matching disjoint sub-slice of `out` (which must hold exactly
    /// `items * stride` elements, `stride` per item). This is the in-place
    /// scatter used by the batch encoders: chunk `r` writes
    /// `out[r.start*stride .. r.end*stride]`.
    pub fn for_each_chunk_mut<T, F>(
        &self,
        out: &mut [T],
        items: usize,
        min_chunk: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        if items == 0 {
            assert!(out.is_empty(), "out must be empty when items == 0");
            return;
        }
        assert_eq!(out.len() % items, 0, "out length must be a multiple of items");
        let stride = out.len() / items;
        let chunks = Self::chunks(items, min_chunk);
        // Pre-split `out` into per-chunk slices (chunk order), then let
        // workers claim (range, slice) pairs through an atomic cursor.
        type Task<'a, T> = std::sync::Mutex<Option<(Range<usize>, &'a mut [T])>>;
        let mut tasks: Vec<Task<'_, T>> = Vec::with_capacity(chunks.len());
        let mut rest = out;
        for c in &chunks {
            let (head, tail) = rest.split_at_mut(c.len() * stride);
            tasks.push(std::sync::Mutex::new(Some((c.clone(), head))));
            rest = tail;
        }
        let workers = self.threads.min(tasks.len());
        let work = |i: usize| {
            let (range, slice) = tasks[i]
                .lock()
                .expect("task lock")
                .take()
                .expect("task claimed once");
            f(range, slice);
        };
        if workers <= 1 {
            for i in 0..tasks.len() {
                work(i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let n = tasks.len();
        let work = &work;
        std::thread::scope(|scope| {
            for _ in 0..workers - 1 {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    work(i);
                });
            }
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                work(i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_exactly() {
        for len in [0usize, 1, 2, 7, 63, 64, 65, 1000, 12345] {
            for min in [1usize, 4, 16, 100] {
                let cs = Pool::chunks(len, min);
                let mut next = 0;
                for c in &cs {
                    assert_eq!(c.start, next);
                    assert!(!c.is_empty());
                    next = c.end;
                }
                assert_eq!(next, len);
                assert!(cs.len() <= MAX_CHUNKS);
                if len >= min {
                    // No chunk may undercut the minimum except when the
                    // whole range is smaller than it.
                    assert!(cs.iter().all(|c| c.len() >= min.min(len)));
                }
            }
        }
    }

    #[test]
    fn chunking_is_thread_count_independent() {
        // The partition is a static function; pools of different sizes must
        // see identical chunk boundaries (this is what makes reductions
        // deterministic).
        assert_eq!(Pool::chunks(1000, 8), Pool::chunks(1000, 8));
    }

    #[test]
    fn map_preserves_chunk_order_and_determinism() {
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
        let sum = |pool: &Pool| -> f32 {
            pool.map(data.len(), 64, |r| data[r].iter().sum::<f32>())
                .into_iter()
                .fold(0f32, |a, b| a + b)
        };
        let s1 = sum(&Pool::serial());
        let s4 = sum(&Pool::new(4));
        let s9 = sum(&Pool::new(9));
        assert_eq!(s1.to_bits(), s4.to_bits(), "1 vs 4 threads");
        assert_eq!(s1.to_bits(), s9.to_bits(), "1 vs 9 threads");
    }

    #[test]
    fn run_visits_every_chunk_once() {
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        Pool::new(7).run(hits.len(), 3, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn scatter_writes_disjoint_slices() {
        let items = 37;
        let stride = 3;
        let mut out = vec![0u32; items * stride];
        Pool::new(5).for_each_chunk_mut(&mut out, items, 2, |range, slice| {
            for (i, item) in range.clone().enumerate() {
                for s in 0..stride {
                    slice[i * stride + s] = (item * stride + s) as u32;
                }
            }
        });
        let want: Vec<u32> = (0..(items * stride) as u32).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn small_inputs_run_serially() {
        // items < min_chunk ⇒ one chunk ⇒ calling-thread execution.
        let id = std::thread::current().id();
        let mut seen = None;
        Pool::new(8).run(3, 16, |_| {
            // Single chunk: must run here.
        });
        Pool::new(8)
            .map(3, 16, |r| {
                assert_eq!(std::thread::current().id(), id);
                r.len()
            })
            .iter()
            .for_each(|n| seen = Some(*n));
        assert_eq!(seen, Some(3));
    }

    #[test]
    fn global_pool_override() {
        Pool::set_global_threads(3);
        assert_eq!(Pool::global().threads(), 3);
        Pool::set_global_threads(0);
        assert!(Pool::global().threads() >= 1);
    }
}
