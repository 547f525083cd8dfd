//! # deepjoin-serve
//!
//! A dependency-free TCP query server for a trained DeepJoin model
//! (DESIGN.md §11). The crate is deliberately *model-agnostic*: it serves
//! anything implementing [`ServeModel`], which is how it avoids a circular
//! dependency on the core crate (the core crate depends on this one and
//! provides the adapter).
//!
//! Robustness layers, outermost first:
//!
//! 1. **Admission control** — per-tenant token buckets feed a bounded
//!    deficit-weighted fair queue ([`deepjoin_par::FairQueue`]) in front
//!    of the worker pool. A full queue sheds the newest request of the
//!    heaviest tenant with a structured `Overloaded` error instead of
//!    queueing without bound, and a CoDel-style brownout controller
//!    ([`BrownoutController`]) steps a degradation ladder down when queue
//!    sojourn stays over target.
//! 2. **Deadlines** — every admitted query carries a
//!    [`deepjoin_ann::Budget`]; the index search loops poll it and stop
//!    mid-traversal when it expires, returning partial results marked
//!    `degraded`.
//! 3. **Degradation ladder** — an HNSW search that panics is caught and
//!    retried as a bounded flat scan; a flat scan that times out returns
//!    best-so-far top-k. Every response carries the snapshot's [`Health`].
//! 4. **Lifecycle** — snapshots hot-swap atomically on reload (the new
//!    snapshot is fully loaded before it becomes visible), and shutdown
//!    drains admitted work before exiting.

#![warn(missing_docs)]

pub mod brownout;
pub mod client;
pub mod cluster;
pub mod protocol;
pub mod replica;
pub mod server;
pub mod sync;
pub mod wake;

#[cfg(not(unix))]
compile_error!("deepjoin-serve sleeps in poll(2) (src/wake.rs): it needs a unix target");

pub use brownout::{
    tenant_id, BrownoutConfig, BrownoutController, Pressure, TenantSnapshot, TenantTable,
    TokenBucket, DEFAULT_TENANT,
};
pub use client::{Client, ClientError, QueryResult, QuerySpec, RetryPolicy};
pub use cluster::{ClusterConfig, MultiClient, RoutedReply};
pub use protocol::{
    ErrorCode, OverloadStats, QueryReply, ReplicationStats, Request, Response, StatsReply,
    SyncItem, TenantStats, WireError, WireHit, ROLE_PRIMARY, ROLE_REPLICA,
};
pub use replica::{bootstrap, run_sync_loop, ReplicaConfig, ReplicationState, TcpSyncSource};
pub use server::{Server, ServerConfig, ServerHandle};
pub use sync::{SyncExport, SyncReport, SyncSource, Syncer};

use deepjoin_ann::Budget;

/// Health of the index backing a snapshot, mirrored into every query
/// response so clients can tell exact-but-degraded answers from healthy
/// ANN answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// The HNSW graph loaded and is serving.
    Hnsw,
    /// The graph section was unusable; an exact flat scan is serving.
    DegradedFlat {
        /// Why the graph was rejected (decode error text).
        reason: String,
    },
    /// No index is available at all.
    Missing,
}

impl Health {
    /// Stable wire code for this state.
    pub fn code(&self) -> u8 {
        match self {
            Health::Hnsw => 0,
            Health::DegradedFlat { .. } => 1,
            Health::Missing => 2,
        }
    }

    /// Human-readable label (carried on the wire next to the code).
    pub fn label(&self) -> String {
        match self {
            Health::Hnsw => "hnsw".to_string(),
            Health::DegradedFlat { reason } => format!("degraded-flat: {reason}"),
            Health::Missing => "missing".to_string(),
        }
    }

    /// True for every state other than a healthy HNSW graph.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, Health::Hnsw)
    }
}

/// One search hit as produced by the model.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Column id within the indexed lake.
    pub id: u32,
    /// Distance (smaller is closer), in the index's metric.
    pub score: f32,
    /// Human-readable column label (`table.column`).
    pub label: String,
}

/// Outcome of one model query, including enough context for the server to
/// report degradation honestly.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Best hits found, closest first.
    pub hits: Vec<Hit>,
    /// False when the budget expired mid-search and `hits` is a partial
    /// best-effort top-k.
    pub complete: bool,
    /// Distance evaluations performed.
    pub visited: usize,
    /// True when the answer came from a fallback path (e.g. flat rescue
    /// after an HNSW failure) rather than the primary index.
    pub via_fallback: bool,
}

/// One member of a batched query wave (see [`ServeModel::query_batch`]):
/// the same inputs [`ServeModel::query`] takes, borrowed from the admitted
/// jobs so wave formation never copies query payloads.
#[derive(Debug, Clone, Copy)]
pub struct WaveQuery<'a> {
    /// Query column cells.
    pub cells: &'a [String],
    /// Query column name.
    pub name: &'a str,
    /// Neighbors requested (already clamped by the server).
    pub k: usize,
}

/// A mutation request against a live (writable) snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateOp {
    /// Ingest a new table of columns into the live lake.
    AddTable {
        /// Table title (provenance label, and the handle `DropTable` uses).
        title: String,
        /// `(column name, cells)` per column.
        columns: Vec<(String, Vec<String>)>,
    },
    /// Drop every column (base-indexed or live) belonging to a table.
    DropTable {
        /// Table title to drop.
        title: String,
    },
}

/// Acknowledgement of a durably journaled mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutateReply {
    /// Journal sequence number of the committed record.
    pub seq: u64,
    /// Columns added, or ids tombstoned.
    pub applied: u64,
}

/// Live-lake gauges, reported through `stats` when the server was started
/// with live ingest enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Flushed segment files.
    pub segments: u32,
    /// Journal size on disk, bytes.
    pub wal_bytes: u64,
    /// Tombstoned ids awaiting physical reclamation by compaction.
    pub pending_tombstones: u64,
    /// Surviving live (non-base) rows.
    pub live_rows: u64,
}

/// What the server serves: a queryable snapshot of a trained model plus its
/// index. Implementations must be safe to query from many worker threads.
pub trait ServeModel: Send + Sync {
    /// Number of indexed columns (used to clamp `k`).
    fn indexed_len(&self) -> usize;

    /// Health of the backing index.
    fn health(&self) -> Health;

    /// Embed the query column (`cells` + `name`) and search for its `k`
    /// nearest indexed columns under `budget`.
    fn query(&self, cells: &[String], name: &str, k: usize, budget: &Budget) -> QueryOutcome;

    /// Answer a whole wave of queries under one `budget` (the min of the
    /// members' remaining deadlines), returning one outcome per member in
    /// wave order. The default implementation just loops
    /// [`ServeModel::query`]; real models override it to dedup identical
    /// members, batch the encoder forward passes, and run one batched
    /// search so SIMD row blocks amortize across the wave. Overrides must
    /// keep every member's answer bit-identical to the single-query path.
    fn query_batch(&self, wave: &[WaveQuery<'_>], budget: &Budget) -> Vec<QueryOutcome> {
        wave.iter()
            .map(|q| self.query(q.cells, q.name, q.k, budget))
            .collect()
    }

    /// `(hits, misses)` of the model's query-embedding cache. Models that
    /// serve without a cache report `(0, 0)`.
    fn cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Wave members answered by sharing another member's embedding and
    /// search (wave-level dedup). Models without dedup report 0.
    fn dedup_hits(&self) -> u64 {
        0
    }

    /// Apply a mutation. Read-only snapshots (the default) refuse.
    fn mutate(&self, _op: MutateOp) -> Result<MutateReply, String> {
        Err("server is read-only: started without live ingest (--live)".to_string())
    }

    /// Live-lake gauges, `None` for read-only snapshots.
    fn live_stats(&self) -> Option<LiveStats> {
        None
    }

    /// Flush any buffered live state to disk (called on graceful
    /// shutdown). Best-effort; read-only snapshots do nothing.
    fn drain(&self) {}
}

/// A freshly loaded snapshot: the model plus any non-fatal load warnings
/// (e.g. "HNSW section corrupt, degraded to flat scan").
pub struct LoadedSnapshot {
    /// The queryable model.
    pub model: Box<dyn ServeModel>,
    /// Non-fatal warnings emitted while loading.
    pub warnings: Vec<String>,
}

/// Loads a snapshot, at startup and again on every reload. `path` is
/// `None` to reload the original artifact or `Some` to switch to a new one.
/// Errors leave the previous snapshot serving.
pub type Loader = Box<dyn Fn(Option<&str>) -> Result<LoadedSnapshot, String> + Send + Sync>;
