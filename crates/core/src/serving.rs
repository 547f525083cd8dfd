//! The adapter between the model-agnostic server crate and the real
//! DeepJoin model: wraps a loaded [`DeepJoin`] (plus the repository that
//! supplies human-readable column labels) as a
//! [`deepjoin_serve::ServeModel`], and builds the snapshot [`Loader`] the
//! server calls at startup and on every hot reload.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use deepjoin_store::SharedIo;

use deepjoin_ann::index::{finalize_hits, push_top};
use deepjoin_ann::{Budget, SearchRequest};
use deepjoin_lake::column::{Column, ColumnMeta};
use deepjoin_lake::repository::Repository;
use deepjoin_serve::{
    Health, Hit, LiveStats, LoadedSnapshot, Loader, MutateOp, MutateReply, QueryOutcome,
    ServeModel, WaveQuery,
};

use crate::live::{model_fingerprint, LiveLake, LiveView};
use crate::model::{DeepJoin, IndexHealth};
use crate::persist::load_model_path;

/// FNV-1a over the query identity: the column name and the exact cell
/// bytes, with distinct separators so `["ab"]` and `["a","b"]` hash apart.
fn query_key(cells: &[String], name: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(name.as_bytes());
    eat(&[0xFF]);
    for c in cells {
        eat(c.as_bytes());
        eat(&[0xFE]);
    }
    h
}

/// The column a query's cells and name stand for.
fn probe_column(cells: &[String], name: &str) -> Column {
    Column::new(
        cells.to_vec(),
        ColumnMeta {
            column_name: name.to_string(),
            ..ColumnMeta::default()
        },
    )
}

/// Fixed-capacity LRU of query embeddings, keyed by [`query_key`]. The
/// encoder forward pass dominates query latency for repeated probes (the
/// same column re-checked against a growing lake), so a small cache pays
/// for itself quickly. Eviction scans for the least-recently-used entry —
/// O(capacity), fine at the configured sizes (tens to thousands).
struct QueryCache {
    capacity: usize,
    map: HashMap<u64, (u64, Vec<f32>)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl QueryCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1024)),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: u64) -> Option<Vec<f32>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key) {
            Some((used, v)) => {
                *used = tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, embedding: Vec<f32>) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(&evict) = self
                .map
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(k, _)| k)
            {
                self.map.remove(&evict);
            }
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, embedding));
    }
}

/// A loaded model + its repository, queryable by the server. The
/// repository provides the `table.column` labels attached to hits; it is
/// shared (`Arc`) across reloads because the lake does not change when the
/// model artifact is swapped.
pub struct ServedModel {
    model: DeepJoin,
    repo: Arc<Repository>,
    cache: Option<Mutex<QueryCache>>,
    /// When present, queries merge base-index hits with the live lake's
    /// slabs and mutations are accepted (DESIGN.md §13). The lake outlives
    /// snapshots: a hot reload wraps the same `Arc`.
    live: Option<Arc<LiveLake>>,
    /// A replica serves synced state it does not own: queries (including
    /// the live merge) work, mutations are refused and must go to the
    /// primary (DESIGN.md §15).
    read_only: bool,
    /// Wave members answered by sharing another member's embedding and
    /// search (wave-level dedup, see [`ServeModel::query_batch`]).
    dedup_hits: AtomicU64,
}

impl ServedModel {
    /// Wrap a model and the repository it indexes, without an embedding
    /// cache.
    pub fn new(model: DeepJoin, repo: Arc<Repository>) -> Self {
        Self::with_cache(model, repo, 0)
    }

    /// Wrap a model with a query-embedding LRU of `cache_capacity` entries
    /// (`0` disables caching). Repeated queries skip the encoder forward
    /// pass; the search itself always re-runs against the live index.
    pub fn with_cache(model: DeepJoin, repo: Arc<Repository>, cache_capacity: usize) -> Self {
        Self {
            model,
            repo,
            cache: (cache_capacity > 0).then(|| Mutex::new(QueryCache::new(cache_capacity))),
            live: None,
            read_only: false,
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// Attach a live lake: queries search base + live merged, and
    /// `add-table` / `drop-table` mutations are accepted.
    pub fn with_live(mut self, live: Arc<LiveLake>) -> Self {
        self.live = Some(live);
        self
    }

    /// Refuse mutations even when a live lake is attached — the replica
    /// serving mode, where the lake's contents arrive by snapshot sync
    /// and the primary is the only writer.
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// One wire hit: base ids are labelled from the repository, live ids
    /// from the view that answered.
    fn hit(&self, view: Option<&LiveView>, id: u32, score: f32) -> Hit {
        let label = match view {
            Some(view) if id >= view.base_len() => match view.label(id) {
                Some((t, c)) => format!("{t}.{c}"),
                None => format!("col#{id}"),
            },
            _ => match self.repo.get(deepjoin_lake::column::ColumnId(id)) {
                Some(col) => format!("{}.{}", col.meta.table_title, col.meta.column_name),
                None => format!("col#{id}"),
            },
        };
        Hit { id, score, label }
    }

    /// The cached embedding of the query identified by `key` (`None` on a
    /// miss, or without a cache).
    fn cached(&self, key: u64) -> Option<Vec<f32>> {
        self.cache.as_ref()?.lock().expect("query cache lock").get(key)
    }

    /// Offer a freshly computed embedding to the cache. The encoder pass
    /// that produced it ran outside the lock, so concurrent misses never
    /// serialize on it.
    fn remember(&self, key: u64, embedding: &[f32]) {
        if let Some(cache) = &self.cache {
            cache
                .lock()
                .expect("query cache lock")
                .insert(key, embedding.to_vec());
        }
    }

    /// Answer a wave of embeddings (row-major) at one `k`: the model's
    /// ladder search and, with a live lake, the scan of its slabs — both
    /// over one request and one view snapshot. The base index is filtered
    /// through the view's tombstones (dropped base columns vanish on the
    /// very next query); each member's base and live hits then merge
    /// through the same bounded top-k selector the indexes use, so the
    /// answer is deterministic regardless of which side a hit came from.
    fn answer_wave(&self, queries: &[f32], k: usize, budget: &Budget) -> Vec<QueryOutcome> {
        let view = self.live.as_ref().map(|live| live.view());
        let view = view.as_deref();
        let req = SearchRequest {
            queries,
            k,
            budget,
            deleted: view.map(LiveView::tombs),
        };
        let base = self.model.search_wave(&req);
        let mut live = view.map_or_else(Vec::new, |v| v.search_wave(&req)).into_iter();
        base.into_iter()
            .map(|ladder| {
                let (mut complete, mut visited) = (ladder.complete, ladder.visited);
                // The wire carries the raw distance; ScoredColumn holds the
                // negated score.
                let base_hits = ladder.hits.iter().map(|sc| (sc.id.0, -sc.score as f32));
                let hits = match live.next() {
                    None => base_hits.map(|(id, d)| self.hit(view, id, d)).collect(),
                    Some(slabs) => {
                        complete &= slabs.complete;
                        visited += slabs.visited;
                        let mut top = Vec::with_capacity(k);
                        let live_hits = slabs.hits.iter().map(|n| (n.id, n.distance));
                        for (id, d) in base_hits.chain(live_hits) {
                            push_top(&mut top, k, id, d);
                        }
                        finalize_hits(top, k)
                            .into_iter()
                            .map(|n| self.hit(view, n.id, n.distance))
                            .collect()
                    }
                };
                QueryOutcome {
                    hits,
                    complete,
                    visited,
                    via_fallback: ladder.via_fallback,
                }
            })
            .collect()
    }
}

impl ServeModel for ServedModel {
    fn indexed_len(&self) -> usize {
        match &self.live {
            Some(live) => self.model.indexed_len() + live.view().live_rows(),
            None => self.model.indexed_len(),
        }
    }

    fn health(&self) -> Health {
        match self.model.index_health() {
            IndexHealth::Hnsw => Health::Hnsw,
            IndexHealth::DegradedFlat { reason } => Health::DegradedFlat { reason },
            IndexHealth::Missing => Health::Missing,
        }
    }

    fn query(&self, cells: &[String], name: &str, k: usize, budget: &Budget) -> QueryOutcome {
        let key = query_key(cells, name);
        let embedding = self.cached(key).unwrap_or_else(|| {
            let v = self.model.embed_column(&probe_column(cells, name));
            self.remember(key, &v);
            v
        });
        self.answer_wave(&embedding, k, budget)
            .pop()
            .expect("one member, one outcome")
    }

    fn query_batch(&self, wave: &[WaveQuery<'_>], budget: &Budget) -> Vec<QueryOutcome> {
        use std::collections::hash_map::Entry;
        // Wave-level dedup: members with identical (query, k) share one
        // embedding and one search, and the answer fans out to every
        // requester. k is part of the identity because truncating a larger
        // top-k is not guaranteed identical on the graph path.
        let mut slot_of = Vec::with_capacity(wave.len());
        let mut uniques: Vec<usize> = Vec::new();
        let mut seen: HashMap<(u64, usize), usize> = HashMap::new();
        for (i, q) in wave.iter().enumerate() {
            match seen.entry((query_key(q.cells, q.name), q.k)) {
                Entry::Occupied(e) => {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    slot_of.push(*e.get());
                }
                Entry::Vacant(e) => {
                    e.insert(uniques.len());
                    slot_of.push(uniques.len());
                    uniques.push(i);
                }
            }
        }
        // Embedding identity is the query text alone (two members asking
        // different k still share one forward pass): the LRU sees exactly
        // one hit or miss per distinct query, then one batched encoder
        // pass covers all the misses.
        let mut embed_slot_of: Vec<usize> = Vec::with_capacity(uniques.len());
        let mut embed_uniques: Vec<usize> = Vec::new();
        let mut seen_keys: HashMap<u64, usize> = HashMap::new();
        for &i in &uniques {
            match seen_keys.entry(query_key(wave[i].cells, wave[i].name)) {
                Entry::Occupied(e) => embed_slot_of.push(*e.get()),
                Entry::Vacant(e) => {
                    e.insert(embed_uniques.len());
                    embed_slot_of.push(embed_uniques.len());
                    embed_uniques.push(i);
                }
            }
        }
        let mut embeddings: Vec<Option<Vec<f32>>> = embed_uniques
            .iter()
            .map(|&i| self.cached(query_key(wave[i].cells, wave[i].name)))
            .collect();
        let miss_slots: Vec<usize> = embeddings
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_none())
            .map(|(s, _)| s)
            .collect();
        if !miss_slots.is_empty() {
            let columns: Vec<Column> = miss_slots
                .iter()
                .map(|&s| probe_column(wave[embed_uniques[s]].cells, wave[embed_uniques[s]].name))
                .collect();
            let encoded = crate::batch::encode_queries_parallel(
                &self.model,
                &columns,
                deepjoin_par::Pool::global().threads(),
            );
            for (&s, v) in miss_slots.iter().zip(encoded) {
                let q = &wave[embed_uniques[s]];
                self.remember(query_key(q.cells, q.name), &v);
                embeddings[s] = Some(v);
            }
        }
        // One wave per distinct k (real waves are almost always
        // homogeneous, so this is one call), then fan the unique answers
        // back out to the requesters.
        let mut by_k: Vec<(usize, Vec<usize>)> = Vec::new();
        for (s, &i) in uniques.iter().enumerate() {
            let k = wave[i].k;
            match by_k.iter_mut().find(|(kk, _)| *kk == k) {
                Some((_, slots)) => slots.push(s),
                None => by_k.push((k, vec![s])),
            }
        }
        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; uniques.len()];
        for (k, slots) in by_k {
            let mut queries = Vec::with_capacity(slots.len() * self.model.config().dim);
            for &s in &slots {
                queries.extend_from_slice(
                    embeddings[embed_slot_of[s]].as_deref().expect("embedded above"),
                );
            }
            for (&s, outcome) in slots.iter().zip(self.answer_wave(&queries, k, budget)) {
                outcomes[s] = Some(outcome);
            }
        }
        slot_of
            .into_iter()
            .map(|s| outcomes[s].clone().expect("every unique slot answered"))
            .collect()
    }

    fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    fn mutate(&self, op: MutateOp) -> Result<MutateReply, String> {
        if self.read_only {
            return Err("replica is read-only: send mutations to the primary".to_string());
        }
        let Some(live) = &self.live else {
            return Err("server is read-only: started without live ingest (--live)".to_string());
        };
        let outcome = match op {
            MutateOp::AddTable { title, columns } => live
                .add_table(&self.model, &title, &columns)
                .map_err(|e| format!("add-table {title}: {e}"))?,
            MutateOp::DropTable { title } => {
                // Resolve the base-indexed ids for this title from the
                // repository; live ids resolve inside the lake.
                let base_ids: Vec<u32> = self
                    .repo
                    .iter()
                    .filter(|(_, col)| col.meta.table_title == title)
                    .map(|(id, _)| id.0)
                    .collect();
                live.drop_table(&title, &base_ids)
                    .map_err(|e| format!("drop-table {title}: {e}"))?
            }
        };
        Ok(MutateReply {
            seq: outcome.seq,
            applied: outcome.applied,
        })
    }

    fn live_stats(&self) -> Option<LiveStats> {
        self.live.as_ref().map(|live| {
            let s = live.stats();
            LiveStats {
                segments: s.segments,
                wal_bytes: s.wal_bytes,
                pending_tombstones: s.pending_tombstones,
                live_rows: s.live_rows,
            }
        })
    }

    fn drain(&self) {
        if self.read_only {
            // A replica never writes its synced live directory — flushing
            // would fork it from the primary's segment layout.
            return;
        }
        if let Some(live) = &self.live {
            if let Err(e) = live.flush() {
                eprintln!("warning: live-lake flush on shutdown failed: {e}");
            }
        }
    }

    fn cache_stats(&self) -> (u64, u64) {
        match &self.cache {
            Some(cache) => {
                let c = cache.lock().expect("query cache lock");
                (c.hits, c.misses)
            }
            None => (0, 0),
        }
    }
}

/// Build the server's snapshot [`Loader`] for a model artifact.
///
/// The loader re-reads `model_path` (or the path given in the reload
/// request) on every call, so `dj ctl reload` after retraining picks up the
/// new artifact without restarting the server. Non-fatal load degradations
/// (e.g. a corrupt HNSW section rescued by the flat fallback) become
/// snapshot warnings and flow into responses via the health field.
///
/// `cache_capacity` sizes each snapshot's query-embedding LRU (`dj serve
/// --query-cache`; `0` disables it). The cache belongs to the snapshot, so
/// a hot reload starts cold — stale embeddings can never outlive the model
/// that produced them.
pub fn snapshot_loader(model_path: String, repo: Arc<Repository>, cache_capacity: usize) -> Loader {
    Box::new(move |path| {
        let path = path.unwrap_or(&model_path);
        let loaded = load_model_path(Path::new(path))?;
        if loaded.model.indexed_len() == 0 {
            return Err(format!("{path} was saved without an index; retrain with dj train"));
        }
        let warnings = loaded.warnings.clone();
        Ok(LoadedSnapshot {
            model: Box::new(ServedModel::with_cache(
                loaded.model,
                repo.clone(),
                cache_capacity,
            )),
            warnings,
        })
    })
}

/// [`snapshot_loader`] for a server with live ingest: every snapshot wraps
/// the same [`LiveLake`], so mutations survive hot reloads. Each (re)load
/// verifies the lake's fingerprint against the freshly loaded model —
/// reloading a *different* model under a live directory full of embeddings
/// from the old one would silently corrupt search results, so it is
/// refused and the previous snapshot keeps serving.
pub fn live_snapshot_loader(
    model_path: String,
    repo: Arc<Repository>,
    cache_capacity: usize,
    live: Arc<LiveLake>,
) -> Loader {
    Box::new(move |path| {
        let path = path.unwrap_or(&model_path);
        let loaded = load_model_path(Path::new(path))?;
        if loaded.model.indexed_len() == 0 {
            return Err(format!("{path} was saved without an index; retrain with dj train"));
        }
        if model_fingerprint(&loaded.model) != live.fingerprint() {
            return Err(format!(
                "{path} is not the model this live directory belongs to \
                 (fingerprint mismatch); restart with a fresh --live directory to switch models"
            ));
        }
        let warnings = loaded.warnings.clone();
        Ok(LoadedSnapshot {
            model: Box::new(
                ServedModel::with_cache(loaded.model, repo.clone(), cache_capacity)
                    .with_live(live.clone()),
            ),
            warnings,
        })
    })
}

/// [`snapshot_loader`] for a replica: every (re)load re-reads the model
/// artifact *and* re-opens the synced live directory, because sync
/// installs both behind the server's back — a reload is how a freshly
/// synced generation (new model, new sealed segments, new manifest)
/// starts serving. The resulting snapshot is read-only: mutations are
/// refused and routed to the primary.
///
/// The live directory is best-effort by design. Mid-convergence states
/// (no manifest yet, or a manifest whose fingerprint belongs to a model
/// generation whose artifact hasn't landed) degrade to serving the base
/// index alone with a warning, never to a load failure — the next sync
/// round reconverges and reloads again.
pub fn replica_snapshot_loader(
    model_path: String,
    repo: Arc<Repository>,
    cache_capacity: usize,
    io: SharedIo,
    live_dir: Option<PathBuf>,
) -> Loader {
    Box::new(move |path| {
        let path = path.unwrap_or(&model_path);
        let loaded = load_model_path(Path::new(path))?;
        if loaded.model.indexed_len() == 0 {
            return Err(format!("{path} was saved without an index; retrain with dj train"));
        }
        let mut warnings = loaded.warnings.clone();
        let mut live = None;
        if let Some(live_dir) = live_dir
            .as_ref()
            .filter(|d| io.exists(&d.join(crate::live::MANIFEST_FILE)))
        {
            match LiveLake::open(io.clone(), live_dir.clone(), &loaded.model) {
                Ok(opened) => {
                    warnings.extend(opened.warnings);
                    live = Some(opened.lake);
                }
                Err(e) => warnings.push(format!(
                    "synced live directory unavailable ({e}); serving the base index only \
                     until the next sync round converges"
                )),
            }
        }
        let mut served = ServedModel::with_cache(loaded.model, repo.clone(), cache_capacity);
        if let Some(lake) = live {
            served = served.with_live(lake);
        }
        Ok(LoadedSnapshot {
            model: Box::new(served.read_only()),
            warnings,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DeepJoinConfig;
    use crate::train::JoinType;
    use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};

    fn tiny_served() -> (ServedModel, Column) {
        let corpus = Corpus::generate(CorpusConfig::new(CorpusProfile::Webtable, 12, 7));
        let (repo, _) = corpus.to_repository();
        let config = DeepJoinConfig {
            fine_tune: crate::train::FineTuneConfig {
                epochs: 1,
                ..Default::default()
            },
            ..DeepJoinConfig::default()
        };
        let (mut model, _report) = DeepJoin::train(&repo, JoinType::Equi, config);
        model.index_repository(&repo);
        let query = repo.column(deepjoin_lake::column::ColumnId(0)).clone();
        (ServedModel::new(model, Arc::new(repo)), query)
    }

    #[test]
    fn served_model_answers_with_labels_and_health() {
        let (served, query) = tiny_served();
        assert!(served.indexed_len() > 0);
        assert_eq!(served.health(), Health::Hnsw);
        let out = served.query(&query.cells, "probe", 3, &Budget::unlimited());
        assert!(out.complete);
        assert!(!out.via_fallback);
        assert_eq!(out.hits.len(), 3);
        for h in &out.hits {
            assert!(h.label.contains('.'), "label '{}' is not table.column", h.label);
        }
    }

    #[test]
    fn query_cache_hits_on_repeats_and_answers_identically() {
        let (served, query) = tiny_served();
        // Re-wrap the same model with a cache: the uncached answer (first
        // call, a miss) must equal the cached one (second call, a hit).
        let cached = ServedModel::with_cache(served.model, served.repo, 4);
        assert_eq!(cached.cache_stats(), (0, 0));
        let a = cached.query(&query.cells, "probe", 3, &Budget::unlimited());
        assert_eq!(cached.cache_stats(), (0, 1));
        let b = cached.query(&query.cells, "probe", 3, &Budget::unlimited());
        assert_eq!(cached.cache_stats(), (1, 1), "repeat must hit");
        assert_eq!(a, b, "cached answer must equal the computed one");
        // A different name is a different query identity.
        cached.query(&query.cells, "other", 3, &Budget::unlimited());
        assert_eq!(cached.cache_stats(), (1, 2));
    }

    #[test]
    fn query_cache_evicts_least_recently_used() {
        let mut cache = QueryCache::new(2);
        cache.insert(1, vec![1.0]);
        cache.insert(2, vec![2.0]);
        assert!(cache.get(1).is_some(), "touch 1 so 2 is the LRU");
        cache.insert(3, vec![3.0]);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(3).is_some());
        assert_eq!(cache.map.len(), 2);
    }

    #[test]
    fn wave_answers_are_bit_identical_to_single_queries() {
        let (served, query) = tiny_served();
        let other: Vec<String> = query.cells.iter().rev().cloned().collect();
        let singles: Vec<QueryOutcome> = [
            (&query.cells, "probe", 3usize),
            (&other, "other", 4),
            (&query.cells, "probe", 3),
        ]
        .iter()
        .map(|(cells, name, k)| served.query(cells, name, *k, &Budget::unlimited()))
        .collect();
        let wave = vec![
            WaveQuery { cells: &query.cells, name: "probe", k: 3 },
            WaveQuery { cells: &other, name: "other", k: 4 },
            WaveQuery { cells: &query.cells, name: "probe", k: 3 },
        ];
        let batch = served.query_batch(&wave, &Budget::unlimited());
        assert_eq!(batch, singles, "waves must not change answers");
        // The third member shared the first member's embedding and search.
        assert_eq!(served.dedup_hits(), 1);
    }

    /// A wave over a live lake: the base index and every slab are searched
    /// once for the whole wave, and each member's answer — hits, labels,
    /// `complete` and `visited` (no slab counted twice, none skipped) — is
    /// the one `query` gives it alone.
    #[test]
    fn live_lake_wave_visits_each_slab_once_and_matches_single_queries() {
        let (served, query) = tiny_served();
        let io: SharedIo = Arc::new(deepjoin_store::MemIo::new());
        let lake = LiveLake::open(io, "live".into(), &served.model).expect("open").lake;
        for t in 0..3 {
            let cells: Vec<String> = query.cells.iter().map(|c| format!("{c}{t}")).collect();
            let table = [("probe".to_string(), cells), ("other".to_string(), query.cells.clone())];
            lake.add_table(&served.model, &format!("live{t}"), &table).expect("add");
            if t < 2 {
                lake.flush().expect("flush");
            }
        }
        lake.drop_table("live1", &[0]).expect("drop");
        assert_eq!(lake.view().slab_count(), 3);
        let served = served.with_live(lake);

        let probes: Vec<Vec<String>> = (0..5)
            .map(|i| query.cells.iter().skip(i % 4).cloned().collect())
            .collect();
        let singles: Vec<QueryOutcome> = probes
            .iter()
            .map(|cells| served.query(cells, "probe", 6, &Budget::unlimited()))
            .collect();
        let wave: Vec<WaveQuery<'_>> = probes
            .iter()
            .map(|cells| WaveQuery { cells, name: "probe", k: 6 })
            .collect();
        assert_eq!(served.query_batch(&wave, &Budget::unlimited()), singles);
        assert_eq!(served.dedup_hits(), 1, "members 0 and 4 are one query");
        let view = served.live.as_ref().expect("live").view();
        for (cells, out) in probes.iter().zip(&singles) {
            let req = SearchRequest {
                queries: &served.model.embed_column(&probe_column(cells, "probe")),
                k: 6,
                budget: &Budget::unlimited(),
                deleted: Some(view.tombs()),
            };
            let base = served.model.search_wave(&req).remove(0);
            assert!(out.complete);
            assert_eq!(out.visited, base.visited + 6, "six slab rows, each scored once");
            assert!(out.hits.iter().all(|h| h.id != 0 && !h.label.starts_with("live1.")));
            assert!(out.hits.iter().any(|h| h.label.starts_with("live")));
        }
    }

    #[test]
    fn wave_dedup_keeps_lru_accounting_correct() {
        let (served, query) = tiny_served();
        let cached = ServedModel::with_cache(served.model, served.repo, 8);
        let other: Vec<String> = query.cells.iter().rev().cloned().collect();
        let wave = vec![
            WaveQuery { cells: &query.cells, name: "probe", k: 3 },
            WaveQuery { cells: &other, name: "other", k: 3 },
            // Duplicate of member 0: a dedup hit, never an LRU touch.
            WaveQuery { cells: &query.cells, name: "probe", k: 3 },
            // Same query at a different k: shares the embedding (no second
            // LRU miss, no second forward pass) but searches separately.
            WaveQuery { cells: &query.cells, name: "probe", k: 2 },
        ];
        let batch = cached.query_batch(&wave, &Budget::unlimited());
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0], batch[2], "deduped members get the shared answer");
        assert_eq!(batch[3].hits.len(), 2);
        assert_eq!(cached.dedup_hits(), 1);
        // Two distinct query texts in the wave: two misses, no hits.
        assert_eq!(cached.cache_stats(), (0, 2));
        // The next wave finds both embeddings cached.
        let again = cached.query_batch(&wave[..2], &Budget::unlimited());
        assert_eq!(again, batch[..2].to_vec());
        assert_eq!(cached.cache_stats(), (2, 2), "repeat wave must hit");
    }

    #[test]
    fn expired_budget_yields_incomplete_outcome() {
        let (served, query) = tiny_served();
        let expired = Budget::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let out = served.query(&query.cells, "probe", 3, &expired);
        assert!(!out.complete, "expired budget must be reported");
    }
}
