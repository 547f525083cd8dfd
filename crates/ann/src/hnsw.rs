//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, TPAMI'20)
//! — the ANNS backend DeepJoin's retrieval rides on (paper §3.3).
//!
//! Implements the paper's algorithms:
//! * Alg. 1 `INSERT` — exponential level sampling (`mL = 1/ln(M)`), greedy
//!   descent through upper layers, `efConstruction`-wide search on the
//!   insertion layers, bidirectional linking with degree-bounded shrinking;
//! * Alg. 2 `SEARCH-LAYER` — best-first expansion with a bounded result set;
//! * Alg. 4 `SELECT-NEIGHBORS-HEURISTIC` — diversity-aware neighbor
//!   selection (with fill-from-discarded), which is what keeps the graph
//!   navigable on clustered data;
//! * Alg. 5 `K-NN-SEARCH` — descent + `efSearch`-wide bottom-layer search.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use deepjoin_par::Pool;
use serde::{Deserialize, Serialize};

use crate::budget::{Budget, BudgetedSearch, Effort, Ticker};
use crate::distance::Metric;
use crate::graph::{Graph, Node};
use crate::index::{finalize_hits, Neighbor, SearchRequest, VectorIndex};
use crate::plane::PodVec;
use crate::sq8::{Sq8Plane, Sq8Query};

/// Batch size for [`HnswIndex::add_batch_parallel`]. A constant (never a
/// function of the thread count) so the produced graph is identical for any
/// pool size.
const PAR_BATCH: usize = 512;

/// HNSW construction/search parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Max out-degree on layers above 0 (`M`).
    pub m: usize,
    /// Max out-degree on layer 0 (`Mmax0`, conventionally `2M`).
    pub m0: usize,
    /// Beam width during construction (`efConstruction`).
    pub ef_construction: usize,
    /// Beam width during search (`efSearch`); raised to `k` when smaller.
    pub ef_search: usize,
    /// Metric to rank by.
    pub metric: Metric,
    /// Seed for level sampling.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            m0: 32,
            ef_construction: 200,
            ef_search: 96,
            metric: Metric::L2,
            seed: 0x45_7D,
        }
    }
}

/// Candidate ordered as a *min*-heap entry by distance (ties by id for
/// determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
struct MinCand {
    dist: f32,
    id: u32,
}

impl Eq for MinCand {}

impl Ord for MinCand {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for MinCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Candidate ordered as a *max*-heap entry by distance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MaxCand {
    dist: f32,
    id: u32,
}

impl Eq for MaxCand {}

impl Ord for MaxCand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for MaxCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-thread query scratch: an epoch-stamped visited set plus the
/// candidate/result heaps of the layer search. Replaces the per-query
/// `vec![false; n]` bitmap and two fresh `BinaryHeap`s — after warm-up a
/// search allocates nothing. Visited membership is `stamp[id] == epoch`;
/// starting a query bumps the epoch, which clears the set in O(1). The
/// (astronomically rare) epoch wraparound hard-resets the stamps so stale
/// marks can never alias a new query.
#[derive(Debug, Default)]
struct SearchScratch {
    epoch: u32,
    stamp: Vec<u32>,
    candidates: BinaryHeap<MinCand>,
    results: BinaryHeap<MaxCand>,
}

impl SearchScratch {
    /// Arm the scratch for one layer search over `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            // New slots carry the *current* epoch value, which the bump
            // below immediately invalidates.
            let epoch = self.epoch;
            self.stamp.resize(n, epoch);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.candidates.clear();
        self.results.clear();
    }

    #[inline]
    fn is_visited(&self, id: u32) -> bool {
        self.stamp[id as usize] == self.epoch
    }

    #[inline]
    fn mark_visited(&mut self, id: u32) {
        self.stamp[id as usize] = self.epoch;
    }
}

/// Run `f` with this thread's scratch. Pool worker threads are long-lived,
/// so the buffers amortize across every query a thread ever serves.
fn with_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<SearchScratch> =
            std::cell::RefCell::new(SearchScratch::default());
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// How a traversal scores a node against the query: exact f32, or the SQ8
/// quantized surrogate when a plane is attached (candidates are then
/// rescored exactly before ranking, see `HnswIndex::search_one`).
enum QueryDist<'a> {
    Exact(&'a [f32]),
    Sq8 {
        plane: &'a Sq8Plane,
        prep: Sq8Query,
    },
}

impl QueryDist<'_> {
    #[inline]
    fn dist(&self, index: &HnswIndex, id: u32) -> f32 {
        match self {
            QueryDist::Exact(q) => index.dist(q, id),
            QueryDist::Sq8 { plane, prep } => plane.surrogate(prep, id),
        }
    }
}

/// The HNSW index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HnswIndex {
    config: HnswConfig,
    dim: usize,
    /// Row-major vectors: heap after a build, zero-copy view of a mapped
    /// v2 artifact section after a load (see [`crate::plane`]).
    vectors: PodVec<f32>,
    /// Layered adjacency: heap nested lists during construction, CSR
    /// (possibly mapped) after a v2 load (see [`crate::graph`]).
    graph: Graph,
    entry: Option<u32>,
    max_level: usize,
    level_mult: f64,
    rng_state: u64,
    /// True when every indexed vector (and every query) is promised to be
    /// L2-normalized; enables the cosine `-dot` fast path. Build-time only,
    /// not persisted — reloaded indexes fall back to full cosine.
    #[serde(skip)]
    unit_norm: bool,
    /// Optional SQ8 plane: when attached (always *after* the build — the
    /// build stays exact so graphs are reproducible), traversal scores
    /// candidates against the quantized codes and the final beam is
    /// rescored exactly. Persisted as its own `SQ8V` section, not via serde.
    #[serde(skip)]
    sq8: Option<Sq8Plane>,
}

impl HnswIndex {
    /// Empty index.
    pub fn new(dim: usize, config: HnswConfig) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(config.m >= 2, "M must be at least 2");
        Self {
            level_mult: 1.0 / (config.m as f64).ln(),
            config,
            dim,
            vectors: PodVec::new(),
            graph: Graph::new(),
            entry: None,
            max_level: 0,
            rng_state: config.seed,
            unit_norm: false,
            sq8: None,
        }
    }

    /// Config accessor.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Declare (at build time) that every vector added *and every query* is
    /// L2-normalized, enabling the cosine fast path. The promise is the
    /// caller's to keep (DeepJoin's encoder normalizes all embeddings).
    pub fn with_unit_norm(mut self, unit_norm: bool) -> Self {
        self.unit_norm = unit_norm;
        self
    }

    /// Whether the index assumes unit-norm vectors.
    pub fn unit_norm(&self) -> bool {
        self.unit_norm
    }

    /// The adjacency structure (heap or CSR — see [`Graph`]), for the
    /// persistence codecs and diagnostics.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The raw row-major vector plane.
    pub fn vectors(&self) -> &[f32] {
        &self.vectors
    }

    /// The vector plane itself — clone it (cheap for mapped views) to hand
    /// the same backing to another structure without copying.
    pub fn vectors_plane(&self) -> &PodVec<f32> {
        &self.vectors
    }

    /// Entry point of the top layer, if the graph is non-empty.
    pub fn entry(&self) -> Option<u32> {
        self.entry
    }

    /// Level of the tallest node.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Level-sampling RNG state (persisted so growth resumes identically).
    pub fn rng_state(&self) -> u64 {
        self.rng_state
    }

    /// True when any plane (vectors, graph, SQ8 codes) is a zero-copy view
    /// of a mapped artifact (reported by `dj info`).
    pub fn is_mapped(&self) -> bool {
        self.vectors.is_mapped()
            || self.graph.is_mapped()
            || self.sq8.as_ref().is_some_and(|p| p.is_mapped())
    }

    /// Rebuild an index from decoded parts (via the [`crate::io`] codecs):
    /// a vector plane (heap or mapped) and a [`Graph`] in either
    /// representation. The caller is responsible for structural consistency
    /// — the codecs validate shape and neighbor ranges before calling this.
    pub fn from_graph_parts(
        config: HnswConfig,
        dim: usize,
        vectors: impl Into<PodVec<f32>>,
        graph: Graph,
        entry: Option<u32>,
        max_level: usize,
        rng_state: u64,
    ) -> Self {
        Self {
            level_mult: 1.0 / (config.m as f64).ln(),
            config,
            dim,
            vectors: vectors.into(),
            graph,
            entry,
            max_level,
            rng_state,
            unit_norm: false,
            sq8: None,
        }
    }

    /// Quantize the stored vectors into an SQ8 plane and attach it:
    /// traversal switches to quantized scoring with an exact rescore of the
    /// final beam. Attach *after* building — a later [`VectorIndex::add`]
    /// drops the plane (its codes would be stale), and the build itself
    /// always links with exact distances so graphs stay reproducible.
    pub fn quantize_sq8(&mut self) {
        self.sq8 = Some(Sq8Plane::quantize(&self.vectors, self.dim));
    }

    /// Attach an already-built SQ8 plane (e.g. decoded from a snapshot's
    /// `SQ8V` section). Must cover exactly the stored rows.
    pub fn attach_sq8(&mut self, plane: Sq8Plane) {
        assert_eq!(plane.dim(), self.dim, "plane dimension mismatch");
        assert_eq!(plane.len(), self.len(), "plane row-count mismatch");
        self.sq8 = Some(plane);
    }

    /// Drop the SQ8 plane, reverting to exact f32 traversal.
    pub fn detach_sq8(&mut self) {
        self.sq8 = None;
    }

    /// The attached SQ8 plane, when one exists.
    pub fn sq8(&self) -> Option<&Sq8Plane> {
        self.sq8.as_ref()
    }

    /// Stored vector by id.
    #[inline]
    pub fn vector(&self, id: u32) -> &[f32] {
        let i = id as usize * self.dim;
        &self.vectors[i..i + self.dim]
    }

    #[inline]
    fn dist(&self, a: &[f32], id: u32) -> f32 {
        self.config
            .metric
            .surrogate_un(a, self.vector(id), self.unit_norm)
    }

    /// Draw the level for a new node: `floor(−ln(U) · mL)`.
    fn sample_level(&mut self) -> usize {
        // xorshift on the stored state keeps `add` deterministic without
        // holding a full RNG in the struct (serde-friendly).
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        let u = ((x >> 11) as f64 / (1u64 << 53) as f64).max(f64::MIN_POSITIVE);
        ((-u.ln()) * self.level_mult).floor() as usize
    }

    /// Algorithm 2: best-first search on one layer, returning up to `ef`
    /// closest candidates (unsorted heap order). The ticker records every
    /// distance evaluation and, once its budget expires, stops the
    /// expansion at the next candidate boundary — the results gathered so
    /// far are returned as a best-effort partial answer. The scratch is
    /// re-armed at entry (epoch bump + heap clear), so one scratch serves
    /// any number of sequential calls without allocating.
    fn search_layer(
        &self,
        qd: &QueryDist<'_>,
        entry_points: &[MinCand],
        ef: usize,
        level: usize,
        scratch: &mut SearchScratch,
        ticker: &mut Ticker<'_>,
    ) -> Vec<MinCand> {
        scratch.begin(self.graph.len());
        for &ep in entry_points {
            if !scratch.is_visited(ep.id) {
                scratch.mark_visited(ep.id);
                scratch.candidates.push(ep);
                scratch.results.push(MaxCand {
                    dist: ep.dist,
                    id: ep.id,
                });
            }
        }
        while let Some(cur) = scratch.candidates.pop() {
            if ticker.expired {
                break;
            }
            let worst = scratch
                .results
                .peek()
                .map(|w| w.dist)
                .unwrap_or(f32::INFINITY);
            if cur.dist > worst && scratch.results.len() >= ef {
                break;
            }
            if level < self.graph.level_count(cur.id) {
                for &nb in self.graph.neighbors(cur.id, level) {
                    if scratch.is_visited(nb) {
                        continue;
                    }
                    scratch.mark_visited(nb);
                    let d = qd.dist(self, nb);
                    if ticker.tick() {
                        break;
                    }
                    let worst = scratch
                        .results
                        .peek()
                        .map(|w| w.dist)
                        .unwrap_or(f32::INFINITY);
                    if scratch.results.len() < ef || d < worst {
                        scratch.candidates.push(MinCand { dist: d, id: nb });
                        scratch.results.push(MaxCand { dist: d, id: nb });
                        if scratch.results.len() > ef {
                            scratch.results.pop();
                        }
                    }
                }
            }
        }
        scratch
            .results
            .drain()
            .map(|c| MinCand {
                dist: c.dist,
                id: c.id,
            })
            .collect()
    }

    /// Algorithm 4: diversity-aware neighbor selection. Candidates must be
    /// presented with their distance to the anchor.
    fn select_neighbors(&self, mut candidates: Vec<MinCand>, m: usize) -> Vec<u32> {
        candidates.sort_by(|a, b| a.dist.total_cmp(&b.dist).then_with(|| a.id.cmp(&b.id)));
        let mut selected: Vec<MinCand> = Vec::with_capacity(m);
        let mut discarded: Vec<MinCand> = Vec::new();
        for c in candidates {
            if selected.len() >= m {
                break;
            }
            // Keep c only if it is closer to the anchor than to every
            // already-selected neighbor (diversity criterion).
            let dominated = selected.iter().any(|s| {
                self.config
                    .metric
                    .surrogate_un(self.vector(c.id), self.vector(s.id), self.unit_norm)
                    < c.dist
            });
            if dominated {
                discarded.push(c);
            } else {
                selected.push(c);
            }
        }
        // keepPrunedConnections: fill remaining slots from the discarded
        // queue (closest first).
        for c in discarded {
            if selected.len() >= m {
                break;
            }
            selected.push(c);
        }
        selected.into_iter().map(|c| c.id).collect()
    }

    /// Shrink `node`'s out-list at `level` to the degree bound using the
    /// selection heuristic.
    fn shrink_neighbors(&mut self, node: u32, level: usize) {
        let bound = if level == 0 {
            self.config.m0
        } else {
            self.config.m
        };
        let list = self.graph.neighbors(node, level);
        if list.len() <= bound {
            return;
        }
        let anchor = self.vector(node);
        let cands: Vec<MinCand> = list
            .iter()
            .map(|&id| MinCand {
                dist: self
                    .config
                    .metric
                    .surrogate_un(anchor, self.vector(id), self.unit_norm),
                id,
            })
            .collect();
        let new_list = self.select_neighbors(cands, bound);
        self.graph.heap_mut()[node as usize].neighbors[level] = new_list;
    }

    /// Phase 1 of the batched build: search the *frozen* graph (the state
    /// before this batch) for candidate neighbors of node `id` on every
    /// insertion layer. Read-only, so it runs in parallel across the batch.
    /// Returns `found[lev]` for `lev` in `0..=level.min(frozen_max)`.
    fn frozen_candidates(
        &self,
        id: u32,
        level: usize,
        frozen_entry: u32,
        frozen_max: usize,
    ) -> Vec<Vec<MinCand>> {
        let query = self.vector(id);
        let qd = QueryDist::Exact(query);
        let mut ep = frozen_entry;
        let mut ep_dist = self.dist(query, ep);

        // Greedy descent through layers above the insertion level.
        let mut l = frozen_max;
        while l > level {
            let mut changed = true;
            while changed {
                changed = false;
                if l < self.graph.level_count(ep) {
                    for &nb in self.graph.neighbors(ep, l) {
                        let d = self.dist(query, nb);
                        if d < ep_dist {
                            ep = nb;
                            ep_dist = d;
                            changed = true;
                        }
                    }
                }
            }
            if l == 0 {
                break;
            }
            l -= 1;
        }

        let top = level.min(frozen_max);
        let mut entry_points = vec![MinCand {
            dist: ep_dist,
            id: ep,
        }];
        let mut out = vec![Vec::new(); top + 1];
        let budget = Budget::unlimited();
        let mut ticker = Ticker::new(&budget);
        // Each pool worker leases its own thread-local scratch, so the
        // parallel phase-1 searches never contend or allocate bitmaps.
        with_scratch(|scratch| {
            for lev in (0..=top).rev() {
                let found = self.search_layer(
                    &qd,
                    &entry_points,
                    self.config.ef_construction,
                    lev,
                    scratch,
                    &mut ticker,
                );
                out[lev] = found.clone();
                entry_points = found;
            }
        });
        out
    }

    /// Insert one pre-reserved batch: phase 1 searches the frozen graph in
    /// parallel; phase 2 links sequentially in id order, also considering
    /// in-batch predecessors so co-inserted near-duplicates still connect.
    fn insert_batch(&mut self, first_id: u32, levels: &[usize], pool: &Pool) {
        let frozen_entry = self.entry.expect("batch insert requires an entry point");
        let frozen_max = self.max_level;
        let batch = levels.len();

        let found: Vec<Vec<Vec<MinCand>>> = pool
            .map(batch, 4, |range| {
                range
                    .map(|b| {
                        self.frozen_candidates(
                            first_id + b as u32,
                            levels[b],
                            frozen_entry,
                            frozen_max,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        for b in 0..batch {
            let id = first_id + b as u32;
            let level = levels[b];
            let query = self.vector(id);
            // Distances to in-batch predecessors, computed once per node.
            // The borrow of `query` ends here, before the links below
            // mutate the adjacency lists.
            let in_batch: Vec<MinCand> = (0..b)
                .map(|j| MinCand {
                    dist: self.dist(query, first_id + j as u32),
                    id: first_id + j as u32,
                })
                .collect();
            let top = level.min(frozen_max);
            for lev in (0..=top).rev() {
                let mut cands = found[b][lev].clone();
                cands.extend(
                    in_batch
                        .iter()
                        .filter(|c| lev < self.graph.level_count(c.id))
                        .copied(),
                );
                let neighbors = self.select_neighbors(cands, self.config.m);
                for &nb in &neighbors {
                    let nodes = self.graph.heap_mut();
                    nodes[id as usize].neighbors[lev].push(nb);
                    nodes[nb as usize].neighbors[lev].push(id);
                    self.shrink_neighbors(nb, lev);
                }
            }
            if level > self.max_level {
                self.max_level = level;
                self.entry = Some(id);
            }
        }
    }

    /// Batched parallel construction. The candidate search for each batch
    /// runs read-only against the graph as of the previous batch
    /// (parallelized over the batch via `pool`); linking is a sequential
    /// pass in id order. The produced graph is **identical for any pool
    /// size** — batch boundaries and level sampling never depend on the
    /// thread count — though it legitimately differs from the graph the
    /// strictly sequential [`VectorIndex::add`] loop builds.
    pub fn add_batch_parallel(&mut self, vectors: &[f32], pool: &Pool) {
        assert_eq!(vectors.len() % self.dim, 0, "row-major shape mismatch");
        // Growing the matrix invalidates any attached SQ8 codes.
        self.sq8 = None;
        let n = vectors.len() / self.dim;
        let mut next = 0;
        // Bootstrap sequentially until the graph can seed frozen searches.
        while next < n && self.graph.len() < PAR_BATCH {
            self.add(&vectors[next * self.dim..(next + 1) * self.dim]);
            next += 1;
        }
        while next < n {
            let batch = PAR_BATCH.min(n - next);
            let first_id = self.graph.len() as u32;
            // Reserve ids: vectors, levels (sequential RNG draw — identical
            // to the order the sequential path would draw them), empty
            // adjacency. The new nodes are link-free until phase 2, so
            // frozen searches can never reach them.
            let levels: Vec<usize> = (0..batch).map(|_| self.sample_level()).collect();
            self.vectors
                .make_mut()
                .extend_from_slice(&vectors[next * self.dim..(next + batch) * self.dim]);
            for &l in &levels {
                self.graph.heap_mut().push(Node {
                    neighbors: vec![Vec::new(); l + 1],
                });
            }
            self.insert_batch(first_id, &levels, pool);
            next += batch;
        }
    }

    /// Algorithm 5 for one wave member under a cooperative [`Budget`]: when
    /// the budget expires mid-traversal the search stops at the next
    /// candidate boundary and returns the best hits gathered so far with
    /// `complete == false`. Unlimited budgets never read a clock.
    fn search_one(&self, query: &[f32], k: usize, budget: &Budget) -> BudgetedSearch {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        let Some(mut ep) = self.entry else {
            return BudgetedSearch {
                hits: Vec::new(),
                complete: true,
                visited: 0,
            };
        };
        let mut ticker = Ticker::new(budget);
        // With an SQ8 plane attached, the graph is traversed over the
        // quantized codes (≈4× less memory traffic per hop); the final ef
        // beam is then rescored against the exact f32 vectors before
        // truncating to k, so reported distances are always exact.
        let qd = match &self.sq8 {
            Some(plane) => QueryDist::Sq8 {
                plane,
                prep: plane.prepare(query, self.config.metric, self.unit_norm),
            },
            None => QueryDist::Exact(query),
        };
        let mut ep_dist = qd.dist(self, ep);
        let mut descent_cut = ticker.tick();
        // Greedy descent to layer 1 (skipped once the budget expires — the
        // current entry point is still a usable, if coarse, seed).
        for l in (1..=self.max_level).rev() {
            if descent_cut {
                break;
            }
            let mut changed = true;
            while changed && !descent_cut {
                changed = false;
                if l < self.graph.level_count(ep) {
                    for &nb in self.graph.neighbors(ep, l) {
                        let d = qd.dist(self, nb);
                        if ticker.tick() {
                            descent_cut = true;
                            break;
                        }
                        if d < ep_dist {
                            ep = nb;
                            ep_dist = d;
                            changed = true;
                        }
                    }
                }
            }
        }
        // Brownout rung 1+ shrinks the beam: a quarter of the configured
        // ef still navigates the graph but touches far fewer candidates;
        // the deepest rung drops to the minimum viable beam (k).
        let ef = match budget.effort() {
            Effort::Full => self.config.ef_search,
            Effort::ReducedBeam | Effort::Surrogate => (self.config.ef_search / 4).max(8),
            Effort::Truncated => k,
        }
        .max(k);
        let found = with_scratch(|scratch| {
            self.search_layer(
                &qd,
                &[MinCand {
                    dist: ep_dist,
                    id: ep,
                }],
                ef,
                0,
                scratch,
                &mut ticker,
            )
        });
        let mut visited = ticker.visited;
        // Rung 2+ serves the quantized surrogate directly: skipping the
        // exact rescore saves one f32 row read per beam survivor at the
        // cost of quantization error in the reported distances.
        let rescore = budget.effort() < Effort::Surrogate;
        let mut hits: Vec<Neighbor> = found
            .into_iter()
            .map(|c| Neighbor {
                id: c.id,
                distance: match qd {
                    // Exact rescore of the surviving beam: replace each
                    // quantized surrogate with the true f32 surrogate.
                    QueryDist::Sq8 { .. } if rescore => self.dist(query, c.id),
                    _ => c.dist,
                },
            })
            .collect();
        if rescore && matches!(qd, QueryDist::Sq8 { .. }) {
            visited += hits.len();
        }
        hits = finalize_hits(hits, k);
        for h in &mut hits {
            h.distance = self
                .config
                .metric
                .distance_from_surrogate(h.distance, self.unit_norm);
        }
        BudgetedSearch {
            hits,
            complete: !ticker.expired,
            visited,
        }
    }

    /// Exact wave over this index's stored vectors — the rescue rung of the
    /// degradation ladder when graph traversal itself fails (e.g. a panic on
    /// a structurally damaged graph): same vectors, same request, no graph
    /// involved, same partial-results contract as [`crate::FlatIndex`].
    /// Deliberately ignores any attached SQ8 plane — the bottom of the
    /// ladder stays exact f32.
    pub fn flat_rescue(&self, req: &SearchRequest<'_>) -> Vec<BudgetedSearch> {
        crate::flat::exact_wave(
            &self.vectors,
            self.dim,
            self.config.metric,
            self.unit_norm,
            req,
        )
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.config.metric
    }

    fn len(&self) -> usize {
        self.graph.len()
    }

    /// Algorithm 1: insert a vector. Construction always runs against the
    /// exact f32 vectors; any attached SQ8 plane is dropped because its
    /// codes would no longer cover the grown matrix.
    fn add(&mut self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        self.sq8 = None;
        let id = self.graph.len() as u32;
        self.vectors.make_mut().extend_from_slice(vector);
        let level = self.sample_level();
        self.graph.heap_mut().push(Node {
            neighbors: vec![Vec::new(); level + 1],
        });

        let Some(mut ep) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return id;
        };

        let mut ep_dist = self.dist(vector, ep);

        // Greedy descent through layers above the insertion level.
        let mut l = self.max_level;
        while l > level {
            let mut changed = true;
            while changed {
                changed = false;
                if l < self.graph.level_count(ep) {
                    for &nb in self.graph.neighbors(ep, l) {
                        let d = self.dist(vector, nb);
                        if d < ep_dist {
                            ep = nb;
                            ep_dist = d;
                            changed = true;
                        }
                    }
                }
            }
            if l == 0 {
                break;
            }
            l -= 1;
        }

        // Insertion layers: efConstruction search + heuristic linking.
        let top = level.min(self.max_level);
        let mut entry_points = vec![MinCand {
            dist: ep_dist,
            id: ep,
        }];
        let budget = Budget::unlimited();
        let mut ticker = Ticker::new(&budget);
        with_scratch(|scratch| {
            for lev in (0..=top).rev() {
                let found = self.search_layer(
                    &QueryDist::Exact(vector),
                    &entry_points,
                    self.config.ef_construction,
                    lev,
                    scratch,
                    &mut ticker,
                );
                let neighbors = self.select_neighbors(found.clone(), self.config.m);
                for &nb in &neighbors {
                    let nodes = self.graph.heap_mut();
                    nodes[id as usize].neighbors[lev].push(nb);
                    nodes[nb as usize].neighbors[lev].push(id);
                    self.shrink_neighbors(nb, lev);
                }
                entry_points = found;
            }
        });

        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(id);
        }
        id
    }

    /// Algorithm 5 per wave member — graph descents share no row blocks, so
    /// each member walks alone. The graph keeps its dead nodes as *routing*
    /// waypoints (removing them would tear the small-world structure), so
    /// under a tombstone filter the beam is widened by the number of dead
    /// rows this graph holds — bounding the worst case where every one of
    /// them crowds the true top-k — and dead ids are dropped from the final
    /// hits. Tombstones at ids `>= len()` belong to other indexes (the live
    /// lake's slabs): they can never crowd this graph, so they widen nothing.
    fn search_wave(&self, req: &SearchRequest<'_>) -> Vec<BudgetedSearch> {
        let dead = req.deleted.map_or(0, |tombs| tombs.count_below(self.len()));
        let wide_k = req.k.saturating_add(dead).min(self.len().max(req.k));
        req.members(self.dim)
            .map(|query| {
                let mut out = self.search_one(query, wide_k, req.budget);
                if let Some(tombs) = req.deleted.filter(|_| dead > 0) {
                    out.hits.retain(|h| !tombs.contains(h.id));
                    out.hits.truncate(req.k);
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::index::tests::wave_of_one;
    use crate::tombstones::TombSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Clustered data (harder for graph navigability than uniform).
    fn clustered_data(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            let c = &centers[i % clusters];
            for d in 0..dim {
                data.push(c[d] + rng.gen_range(-0.3f32..0.3));
            }
        }
        data
    }

    fn recall_at_k(data: &[f32], dim: usize, queries: &[f32], k: usize) -> f64 {
        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(data);
        let mut hnsw = HnswIndex::new(dim, HnswConfig::default());
        hnsw.add_batch(data);

        let nq = queries.len() / dim;
        let mut hit = 0usize;
        for q in queries.chunks_exact(dim) {
            let truth: std::collections::HashSet<u32> =
                flat.search(q, k).into_iter().map(|h| h.id).collect();
            let approx = hnsw.search(q, k);
            hit += approx.iter().filter(|h| truth.contains(&h.id)).count();
        }
        hit as f64 / (nq * k) as f64
    }

    #[test]
    fn high_recall_on_uniform_data() {
        let data = random_data(2000, 8, 1);
        let queries = random_data(20, 8, 2);
        let r = recall_at_k(&data, 8, &queries, 10);
        assert!(r >= 0.95, "recall {r}");
    }

    #[test]
    fn high_recall_on_clustered_data() {
        let data = clustered_data(2000, 8, 16, 3);
        let queries = clustered_data(20, 8, 16, 4);
        let r = recall_at_k(&data, 8, &queries, 10);
        assert!(r >= 0.9, "recall {r}");
    }

    #[test]
    fn exact_match_is_found_first() {
        let data = random_data(500, 4, 5);
        let mut idx = HnswIndex::new(4, HnswConfig::default());
        idx.add_batch(&data);
        let target = &data[17 * 4..18 * 4];
        let hits = idx.search(target, 1);
        assert_eq!(hits[0].id, 17);
        assert!(hits[0].distance < 1e-6);
    }

    #[test]
    fn filtered_search_never_returns_tombstoned_ids() {
        let data = random_data(800, 6, 8);
        let mut idx = HnswIndex::new(6, HnswConfig::default());
        idx.add_batch(&data);
        let q = &data[42 * 6..43 * 6];
        // Tombstone the query's own row plus its current top neighbors:
        // the worst case, where every dead row crowds the true top-k.
        let tombs: TombSet = idx.search(q, 10).into_iter().map(|h| h.id).collect();
        let hits = wave_of_one(&idx, q, 10, &Budget::unlimited(), Some(&tombs));
        assert_eq!(hits.hits.len(), 10, "widened beam still fills k");
        for h in &hits.hits {
            assert!(!tombs.contains(h.id), "tombstoned id {} returned", h.id);
        }
        // The rescue scan obeys the same contract.
        let req = SearchRequest {
            queries: q,
            k: 10,
            budget: &Budget::unlimited(),
            deleted: Some(&tombs),
        };
        let rescue = idx.flat_rescue(&req).remove(0);
        assert_eq!(rescue.hits.len(), 10);
        for h in &rescue.hits {
            assert!(!tombs.contains(h.id));
        }
    }

    /// The live lake hands the base graph its *global* tombstone set, live
    /// ids included. Only the dead rows this graph holds may widen its beam:
    /// a filter of foreign ids must cost nothing — same hits, same `visited`
    /// — while in-range ids still never come back.
    #[test]
    fn tombstones_outside_the_id_range_widen_nothing() {
        let data = random_data(800, 6, 8);
        let mut idx = HnswIndex::new(6, HnswConfig::default());
        idx.add_batch(&data);
        let q = &data[42 * 6..43 * 6];
        let plain = wave_of_one(&idx, q, 10, &Budget::unlimited(), None);
        let foreign: TombSet = (800..1100u32).collect();
        assert_eq!(foreign.count_below(idx.len()), 0);
        let filtered = wave_of_one(&idx, q, 10, &Budget::unlimited(), Some(&foreign));
        assert_eq!(filtered, plain, "foreign tombstones changed the search");
        // A set straddling the boundary widens by its in-range part only and
        // still filters it.
        let mixed: TombSet = plain.hits[..3].iter().map(|h| h.id).chain(800..1100).collect();
        assert_eq!(mixed.count_below(idx.len()), 3);
        let out = wave_of_one(&idx, q, 10, &Budget::unlimited(), Some(&mixed));
        assert_eq!(out.hits.len(), 10);
        assert!(out.hits.iter().all(|h| !mixed.contains(h.id)));
        let in_range: TombSet = plain.hits[..3].iter().map(|h| h.id).collect();
        assert_eq!(out, wave_of_one(&idx, q, 10, &Budget::unlimited(), Some(&in_range)));
    }

    #[test]
    fn degree_bounds_hold() {
        let data = random_data(1500, 6, 6);
        let cfg = HnswConfig::default();
        let mut idx = HnswIndex::new(6, cfg);
        idx.add_batch(&data);
        for id in 0..idx.len() as u32 {
            for l in 0..idx.graph().level_count(id) {
                let deg = idx.graph().neighbors(id, l).len();
                let bound = if l == 0 { cfg.m0 } else { cfg.m };
                assert!(deg <= bound, "layer {l} degree {deg}");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let mut idx = HnswIndex::new(3, HnswConfig::default());
        assert!(idx.search(&[0., 0., 0.], 5).is_empty());
        idx.add(&[1., 2., 3.]);
        let hits = idx.search(&[1., 2., 3.], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn deterministic_build_and_search() {
        let data = random_data(800, 5, 9);
        let build = || {
            let mut idx = HnswIndex::new(5, HnswConfig::default());
            idx.add_batch(&data);
            idx.search(&data[0..5], 10)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn parallel_build_is_pool_size_invariant() {
        // The graph (and therefore every search result) must be
        // bit-identical whether the batched build runs on 1 or many
        // threads.
        let data = random_data(1500, 8, 31);
        let queries = random_data(25, 8, 32);
        let build = |threads: usize| {
            let mut idx = HnswIndex::new(8, HnswConfig::default());
            idx.add_batch_parallel(&data, &Pool::new(threads));
            idx
        };
        let a = build(1);
        let b = build(4);
        let c = build(13);
        for q in queries.chunks_exact(8) {
            let ha = a.search(q, 10);
            assert_eq!(ha, b.search(q, 10), "1 vs 4 threads");
            assert_eq!(ha, c.search(q, 10), "1 vs 13 threads");
        }
    }

    #[test]
    fn parallel_build_keeps_recall() {
        let data = random_data(2000, 8, 33);
        let queries = random_data(20, 8, 34);
        let mut flat = FlatIndex::new(8, Metric::L2);
        flat.add_batch(&data);
        let mut hnsw = HnswIndex::new(8, HnswConfig::default());
        hnsw.add_batch_parallel(&data, &Pool::new(4));
        let mut hit = 0usize;
        for q in queries.chunks_exact(8) {
            let truth: std::collections::HashSet<u32> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            hit += hnsw.search(q, 10).iter().filter(|h| truth.contains(&h.id)).count();
        }
        let r = hit as f64 / 200.0;
        assert!(r >= 0.95, "parallel-build recall {r}");
    }

    #[test]
    fn parallel_batch_search_matches_sequential() {
        let data = random_data(1200, 6, 35);
        let mut idx = HnswIndex::new(6, HnswConfig::default());
        idx.add_batch(&data);
        let queries = random_data(17, 6, 36);
        let seq: Vec<_> = queries.chunks_exact(6).map(|q| idx.search(q, 7)).collect();
        for threads in [1, 3, 8] {
            assert_eq!(seq, idx.search_batch(&queries, 7, &Pool::new(threads)));
        }
    }

    #[test]
    fn degree_bounds_hold_for_parallel_build() {
        let data = random_data(1500, 6, 37);
        let cfg = HnswConfig::default();
        let mut idx = HnswIndex::new(6, cfg);
        idx.add_batch_parallel(&data, &Pool::new(4));
        for id in 0..idx.len() as u32 {
            for l in 0..idx.graph().level_count(id) {
                let deg = idx.graph().neighbors(id, l).len();
                let bound = if l == 0 { cfg.m0 } else { cfg.m };
                assert!(deg <= bound, "layer {l} degree {deg}");
            }
        }
    }

    #[test]
    fn expired_budget_returns_partial_results_not_nothing() {
        let data = random_data(2000, 8, 43);
        let mut idx = HnswIndex::new(8, HnswConfig::default());
        idx.add_batch(&data);
        let expired = Budget::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let out = wave_of_one(&idx, &data[0..8], 10, &expired, None);
        assert!(!out.complete, "expired budget must be reported");
        // The traversal stops almost immediately but still surfaces the
        // best candidates it touched (at least the entry point).
        assert!(!out.hits.is_empty());
        assert!(out.visited < 2000, "must not have scanned everything");
        for w in out.hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn flat_rescue_matches_flat_index() {
        let data = random_data(900, 5, 44);
        let mut hnsw = HnswIndex::new(5, HnswConfig::default());
        hnsw.add_batch(&data);
        let mut flat = FlatIndex::new(5, Metric::L2);
        flat.add_batch(&data);
        let q = &data[35 * 5..36 * 5];
        let budget = Budget::unlimited();
        let rescue = hnsw.flat_rescue(&SearchRequest::one(q, 7, &budget)).remove(0);
        assert!(rescue.complete);
        assert_eq!(rescue.visited, 900);
        assert_eq!(rescue.hits, flat.search(q, 7));
    }

    /// The epoch-stamped scratch must make repeated same-thread queries
    /// (reused scratch, bumped epochs) indistinguishable from queries run
    /// on a freshly spawned thread (brand-new scratch).
    #[test]
    fn scratch_reuse_matches_fresh_thread_results() {
        let data = random_data(1500, 7, 51);
        let mut idx = HnswIndex::new(7, HnswConfig::default());
        idx.add_batch(&data);
        let idx = std::sync::Arc::new(idx);
        let queries = random_data(40, 7, 52);
        // Warm the thread-local scratch heavily, then interleave checks:
        // each query also runs on a fresh thread whose scratch has never
        // been used, and the results must be identical.
        for q in queries.chunks_exact(7) {
            let warm = idx.search(q, 9);
            let again = idx.search(q, 9);
            let idx2 = idx.clone();
            let q2 = q.to_vec();
            let fresh = std::thread::spawn(move || idx2.search(&q2, 9))
                .join()
                .unwrap();
            assert_eq!(warm, again, "same-thread reuse must be idempotent");
            assert_eq!(warm, fresh, "reused scratch must match fresh scratch");
        }
    }

    /// Quantized traversal must keep recall against the exact-f32 graph
    /// search and must report *exact* f32 distances (the beam is rescored
    /// before truncation).
    #[test]
    fn sq8_traversal_keeps_recall_and_exact_distances() {
        let n = 2000;
        let dim = 16;
        let data = random_data(n, dim, 53);
        let queries = random_data(30, dim, 54);
        let mut exact = HnswIndex::new(dim, HnswConfig::default());
        exact.add_batch(&data);
        let mut quant = exact.clone();
        quant.quantize_sq8();
        assert!(quant.sq8().is_some());

        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);

        let k = 10;
        let mut hit = 0usize;
        let nq = queries.len() / dim;
        for q in queries.chunks_exact(dim) {
            let truth: std::collections::HashSet<u32> =
                flat.search(q, k).into_iter().map(|h| h.id).collect();
            let hits = quant.search(q, k);
            hit += hits.iter().filter(|h| truth.contains(&h.id)).count();
            for h in &hits {
                let want = Metric::L2
                    .distance(q, &data[h.id as usize * dim..(h.id as usize + 1) * dim]);
                assert!(
                    (h.distance - want).abs() <= 1e-5 * want.max(1.0),
                    "distance must be exact f32 after rescore: {} vs {want}",
                    h.distance
                );
            }
        }
        let r = hit as f64 / (nq * k) as f64;
        assert!(r >= 0.93, "sq8 traversal recall {r}");
    }

    #[test]
    fn hnsw_add_after_quantize_drops_stale_plane() {
        let data = random_data(300, 5, 55);
        let mut idx = HnswIndex::new(5, HnswConfig::default());
        idx.add_batch(&data);
        idx.quantize_sq8();
        assert!(idx.sq8().is_some());
        idx.add(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert!(idx.sq8().is_none(), "grown matrix must drop stale codes");
        idx.quantize_sq8();
        idx.add_batch_parallel(&random_data(600, 5, 56), &Pool::new(2));
        assert!(idx.sq8().is_none(), "batched growth must drop stale codes");
    }

    #[test]
    fn level_distribution_is_geometricish() {
        let mut idx = HnswIndex::new(2, HnswConfig::default());
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            let l = idx.sample_level().min(7);
            counts[l] += 1;
        }
        assert!(counts[0] > counts[1], "level 0 most common: {counts:?}");
        assert!(counts[1] > counts[2]);
        // Expected fraction at level 0 is 1 − 1/M ≈ 0.94 for M=16.
        let frac0 = counts[0] as f64 / 20_000.0;
        assert!((frac0 - 0.94).abs() < 0.05, "frac0 {frac0}");
    }
}
