//! The wire protocol: length-prefixed binary frames (DESIGN.md §11).
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by the payload. The payload starts with a version byte, then a
//! message tag, then tag-specific fields encoded with the bounded
//! [`deepjoin_store::codec`] reader/writer — the same
//! validate-before-allocate codec the artifact store uses, so a hostile
//! length prefix is rejected before it can become an allocation.
//!
//! One decoding rule covers every message: the version byte must be
//! [`PROTOCOL_VERSION`], every optional field is one presence byte (0
//! absent, 1 present, anything else is an error), and no message may
//! carry a byte past its last field.
//!
//! The frame length itself is checked against a cap *before* the body is
//! read: an oversized header costs the server 4 bytes of I/O, not memory.

use std::io::{self, Read, Write};

use deepjoin_store::codec::{DecodeError, DecodeErrorKind, Reader, Writer};

/// Protocol version carried in every payload; any other version byte is
/// refused.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default cap on a single frame's payload size (1 MiB). Queries are a few
/// hundred cells of text; anything near this cap is hostile or corrupt.
pub const MAX_FRAME: usize = 1 << 20;

/// Request tags.
const REQ_PING: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_RELOAD: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_ADD_TABLE: u8 = 6;
const REQ_DROP_TABLE: u8 = 7;
const REQ_SYNC_POLL: u8 = 8;
const REQ_SYNC_FETCH: u8 = 9;

/// Response tags.
const RESP_PONG: u8 = 1;
const RESP_QUERY: u8 = 2;
const RESP_RELOADED: u8 = 3;
const RESP_SHUTTING_DOWN: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_MUTATED: u8 = 7;
const RESP_SYNC_STATE: u8 = 8;
const RESP_SYNC_CHUNK: u8 = 9;
const RESP_QUERY_FOR: u8 = 10;

/// [`ReplicationStats::role`] value for a primary (sync-exporting) server.
pub const ROLE_PRIMARY: u8 = 0;
/// [`ReplicationStats::role`] value for a replica (sync-pulling) server.
pub const ROLE_REPLICA: u8 = 1;

/// Structured error codes. Stable across releases; clients switch on these,
/// not on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission queue full: the request was shed without being started.
    /// Retry with backoff.
    Overloaded = 1,
    /// The request's deadline passed before any work could start.
    DeadlineExceeded = 2,
    /// The request was malformed (bad frame, bad field, k = 0, ...).
    BadRequest = 3,
    /// The frame header announced a payload larger than the server accepts.
    FrameTooLarge = 4,
    /// The server hit an internal failure processing the request; the
    /// worker survived and the connection stays usable.
    Internal = 5,
    /// The server is draining (shutdown in progress) or a reload failed.
    Unavailable = 6,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::FrameTooLarge,
            5 => ErrorCode::Internal,
            6 => ErrorCode::Unavailable,
            _ => return None,
        })
    }
}

/// A structured error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable context.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Search for the `k` columns most joinable with the query column.
    Query {
        /// Query column name (`table.column` or free text).
        name: String,
        /// Query column cell values.
        cells: Vec<String>,
        /// Neighbors requested (clamped server-side to the index size).
        k: u32,
        /// Tenant this query bills to, for fair admission; `None` bills
        /// the default tenant.
        tenant: Option<String>,
        /// Client-assigned correlation id for pipelined requests. A tagged
        /// request is answered with [`Response::QueryFor`] carrying the
        /// same id, in completion order; an untagged one with a plain
        /// [`Response::Query`].
        request_id: Option<u64>,
    },
    /// Swap in a fresh snapshot; `None` re-reads the artifact the server
    /// was started with.
    Reload {
        /// Optional new artifact path.
        path: Option<String>,
    },
    /// Begin graceful drain: admitted requests finish, then the server
    /// exits.
    Shutdown,
    /// Server counters and snapshot info.
    Stats,
    /// Ingest a new table into the live lake (live servers only).
    AddTable {
        /// Table title.
        title: String,
        /// `(column name, cells)` per column.
        columns: Vec<(String, Vec<String>)>,
    },
    /// Drop every column belonging to a table (live servers only).
    DropTable {
        /// Table title.
        title: String,
    },
    /// Replication: ask a sync-exporting primary which generation it
    /// serves and what files make it up.
    SyncPoll,
    /// Replication: fetch one chunk of a named sync item.
    SyncFetch {
        /// Item name, as listed by the last [`Response::SyncState`].
        item: String,
        /// Byte offset to read from.
        offset: u64,
        /// Maximum bytes wanted (the server may clamp it further to keep
        /// the response under its frame cap).
        len: u32,
    },
}

/// One file of a primary's exported generation, as listed by
/// [`Response::SyncState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncItem {
    /// Logical name: `"model"` for the base artifact, `"live/<file>"` for
    /// live-lake manifest and sealed segments. Never a filesystem path.
    pub name: String,
    /// Total byte length.
    pub len: u64,
    /// CRC-32 of the whole file — the replica's install gate.
    pub crc: u32,
}

/// Replication gauges, carried in [`StatsReply::replication`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationStats {
    /// [`ROLE_PRIMARY`] or [`ROLE_REPLICA`].
    pub role: u8,
    /// Last generation observed on the primary (the primary reports its
    /// own serving generation here).
    pub primary_generation: u32,
    /// Generation fully installed and serving locally.
    pub synced_generation: u32,
    /// `primary_generation - synced_generation` (0 on a primary).
    pub lag_generations: u32,
    /// Seconds since the replica last confirmed being in sync with a
    /// reachable primary (0 on a primary).
    pub lag_seconds: u32,
    /// Wall-clock microseconds the last completed sync took.
    pub last_sync_micros: u64,
    /// Bytes transferred by the last completed sync.
    pub last_sync_bytes: u64,
    /// Completed syncs since process start.
    pub syncs: u64,
    /// True once the primary has been unreachable past the staleness
    /// threshold: answers may lag committed mutations.
    pub stale: bool,
}

/// One tenant's serving counters, carried inside [`OverloadStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Tenant name (`default` for untagged clients, `(other)` for folded
    /// overflow tenants past the server's tracking cap).
    pub name: String,
    /// Queries admitted past the bucket and fair queue.
    pub accepted: u64,
    /// Queries shed for this tenant (bucket, queue-full, displacement, or
    /// CoDel), all counted at the tenant that paid for them.
    pub shed: u64,
    /// Median end-to-end latency over the recent window, microseconds.
    pub p50_micros: u64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_micros: u64,
}

/// Overload-control gauges, carried in [`StatsReply::overload`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OverloadStats {
    /// Current brownout rung (0 = full effort … 3 = flat-truncated).
    pub brownout_rung: u8,
    /// Rung step-downs since process start.
    pub brownout_steps_down: u64,
    /// Rung step-ups (recoveries) since process start.
    pub brownout_steps_up: u64,
    /// Answers served at a degraded rung (> 0).
    pub brownout_answers: u64,
    /// Queries shed at a tenant's token bucket.
    pub bucket_shed: u64,
    /// Queued queries displaced by another tenant's push at capacity.
    pub displaced: u64,
    /// Queued queries shed by the sojourn controller (CoDel action).
    pub codel_shed: u64,
    /// Per-tenant counters, sorted by name.
    pub tenants: Vec<TenantStats>,
}

/// One hit on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireHit {
    /// Indexed column id.
    pub id: u32,
    /// Distance (smaller is closer).
    pub score: f32,
    /// Column label (`table.column`).
    pub label: String,
}

/// A query answer, including the degradation report.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Index health code ([`crate::Health::code`]).
    pub health_code: u8,
    /// Index health label ([`crate::Health::label`]).
    pub health_label: String,
    /// True when this answer is in any way less than a healthy, complete
    /// HNSW answer (partial scan, fallback path, or degraded index).
    pub degraded: bool,
    /// False when the deadline expired mid-search and `hits` is partial.
    pub complete: bool,
    /// True when the answer came from a fallback (flat rescue) path.
    pub via_fallback: bool,
    /// Snapshot generation that answered (bumps on every reload).
    pub generation: u32,
    /// Indexed column count in that snapshot.
    pub indexed: u64,
    /// Distance evaluations performed.
    pub visited: u64,
    /// The hits, closest first.
    pub hits: Vec<WireHit>,
}

/// Server counters (all since process start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// Current snapshot generation.
    pub generation: u32,
    /// Indexed column count in the current snapshot.
    pub indexed: u64,
    /// Current health label.
    pub health_label: String,
    /// Queries admitted to the queue.
    pub accepted: u64,
    /// Queries shed with `Overloaded`.
    pub shed: u64,
    /// Queries whose deadline expired before work started.
    pub expired: u64,
    /// Answers that used a fallback path or returned partial results.
    pub degraded_answers: u64,
    /// Admission queue capacity.
    pub queue_capacity: u32,
    /// Query-embedding cache hits in the current snapshot (0 when the
    /// model serves without a cache).
    pub cache_hits: u64,
    /// Query-embedding cache misses in the current snapshot.
    pub cache_misses: u64,
    /// Live-lake gauges, present when the server runs with live ingest.
    pub live: Option<crate::LiveStats>,
    /// Wall-clock microseconds the last snapshot (re)load took. The
    /// headline mmap observability gauge: a remap-and-swap reload of an
    /// unchanged aligned artifact is O(ms), a heap reload is O(artifact
    /// size).
    pub last_reload_micros: Option<u64>,
    /// Replication gauges, present on servers that participate in
    /// replication (primary with sync export, or replica).
    pub replication: Option<ReplicationStats>,
    /// Overload-control gauges (brownout rung, shed breakdown, per-tenant
    /// counters).
    pub overload: Option<OverloadStats>,
    /// Wave members answered by sharing another member's embedding and
    /// search (batched-wave dedup).
    pub dedup_hits: Option<u64>,
}

/// Server → client messages.
// Stats dominates the enum size, but it is a cold control-plane reply
// built once per `ctl stats` call: boxing it buys no hot-path win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness ack.
    Pong,
    /// Query answer.
    Query(QueryReply),
    /// Reload succeeded; the new snapshot is serving.
    Reloaded {
        /// New snapshot generation.
        generation: u32,
        /// Non-fatal load warnings.
        warnings: Vec<String>,
    },
    /// Drain has begun.
    ShuttingDown,
    /// Counter snapshot.
    Stats(StatsReply),
    /// Structured failure.
    Error(WireError),
    /// A mutation was durably journaled.
    Mutated {
        /// Journal sequence number of the committed record.
        seq: u64,
        /// Columns added, or ids tombstoned.
        applied: u64,
    },
    /// Replication: the primary's current exported generation.
    SyncState {
        /// Serving generation on the primary (bumps on every reload).
        generation: u32,
        /// Fingerprint of the whole exported file set — changes whenever
        /// any item changes, so a replica can detect a generation swap
        /// mid-transfer and restart its poll.
        fingerprint: u64,
        /// The files making up the generation.
        items: Vec<SyncItem>,
    },
    /// A correlated query answer for a tagged request: either the reply
    /// or a structured per-request failure, tagged with the id the client
    /// assigned. Only sent for requests that carried a `request_id`, so
    /// untagged single-query traffic never sees this tag.
    QueryFor {
        /// The client-assigned id being answered.
        request_id: u64,
        /// The answer, or why this one request failed (other requests on
        /// the connection are unaffected).
        reply: Result<QueryReply, WireError>,
    },
    /// Replication: one chunk of a sync item.
    SyncChunk {
        /// Byte offset of this chunk within the item.
        offset: u64,
        /// The item's total length *right now* — a replica aborts the
        /// transfer early when this no longer matches its poll.
        total_len: u64,
        /// CRC-32 of `data` alone (the whole-file CRC from the poll gates
        /// the final install; this one catches a torn chunk immediately).
        crc: u32,
        /// The chunk bytes.
        data: Vec<u8>,
    },
}

/// Write an optional field: one presence byte (0 absent, 1 present), then
/// the value when present.
fn put_opt<T>(w: &mut Writer, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
    match v {
        None => w.put_u8(0),
        Some(v) => {
            w.put_u8(1);
            put(w, v);
        }
    }
}

/// Read an optional field written by [`put_opt`]. A presence byte other
/// than 0 or 1 is a `BadDiscriminant` located at that byte.
fn read_opt<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    let at = r.offset();
    match r.u8()? {
        0 => Ok(None),
        1 => read(r).map(Some),
        other => Err(DecodeError {
            offset: at,
            ..r.error(DecodeErrorKind::BadDiscriminant(other))
        }),
    }
}

/// Write a `u32` count, then each string.
fn put_strs(w: &mut Writer, strs: &[String]) {
    w.put_u32_le(strs.len() as u32);
    for s in strs {
        w.put_str(s);
    }
}

/// Read strings written by [`put_strs`]. Each costs at least its 4-byte
/// length prefix, so the count is validated against the bytes actually
/// present before anything is allocated.
fn read_strs(r: &mut Reader<'_>) -> Result<Vec<String>, DecodeError> {
    let n = r.count_u32(4)?;
    let mut strs = Vec::with_capacity(n);
    for _ in 0..n {
        strs.push(r.str_prefixed()?);
    }
    Ok(strs)
}

impl Request {
    /// Encode to a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(PROTOCOL_VERSION);
        match self {
            Request::Ping => w.put_u8(REQ_PING),
            Request::Query {
                name,
                cells,
                k,
                tenant,
                request_id,
            } => {
                w.put_u8(REQ_QUERY);
                w.put_str(name);
                w.put_u32_le(*k);
                put_strs(&mut w, cells);
                put_opt(&mut w, tenant.as_deref(), Writer::put_str);
                put_opt(&mut w, *request_id, Writer::put_u64_le);
            }
            Request::Reload { path } => {
                w.put_u8(REQ_RELOAD);
                put_opt(&mut w, path.as_deref(), Writer::put_str);
            }
            Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
            Request::Stats => w.put_u8(REQ_STATS),
            Request::AddTable { title, columns } => {
                w.put_u8(REQ_ADD_TABLE);
                w.put_str(title);
                w.put_u32_le(columns.len() as u32);
                for (name, cells) in columns {
                    w.put_str(name);
                    put_strs(&mut w, cells);
                }
            }
            Request::DropTable { title } => {
                w.put_u8(REQ_DROP_TABLE);
                w.put_str(title);
            }
            Request::SyncPoll => w.put_u8(REQ_SYNC_POLL),
            Request::SyncFetch { item, offset, len } => {
                w.put_u8(REQ_SYNC_FETCH);
                w.put_str(item);
                w.put_u64_le(*offset);
                w.put_u32_le(*len);
            }
        }
        w.into_vec()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload, "request");
        r.expect_version(PROTOCOL_VERSION)?;
        let tag = r.u8()?;
        let req = match tag {
            REQ_PING => Request::Ping,
            REQ_QUERY => Request::Query {
                name: r.str_prefixed()?,
                k: r.u32_le()?,
                cells: read_strs(&mut r)?,
                tenant: read_opt(&mut r, Reader::str_prefixed)?,
                request_id: read_opt(&mut r, Reader::u64_le)?,
            },
            REQ_RELOAD => Request::Reload {
                path: read_opt(&mut r, Reader::str_prefixed)?,
            },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_STATS => Request::Stats,
            REQ_ADD_TABLE => {
                let title = r.str_prefixed()?;
                // Each column costs at least a name prefix + cell count.
                let n = r.count_u32(8)?;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push((r.str_prefixed()?, read_strs(&mut r)?));
                }
                Request::AddTable { title, columns }
            }
            REQ_DROP_TABLE => Request::DropTable {
                title: r.str_prefixed()?,
            },
            REQ_SYNC_POLL => Request::SyncPoll,
            REQ_SYNC_FETCH => Request::SyncFetch {
                item: r.str_prefixed()?,
                offset: r.u64_le()?,
                len: r.u32_le()?,
            },
            other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
        };
        if !r.is_empty() {
            return Err(r.error(DecodeErrorKind::Invalid("trailing bytes after message")));
        }
        Ok(req)
    }
}

/// Encode a [`QueryReply`] body (shared by `Query` and `QueryFor`, so a
/// correlated reply carries the exact same fields as a plain one).
fn put_query_reply(w: &mut Writer, q: &QueryReply) {
    w.put_u8(q.health_code);
    w.put_str(&q.health_label);
    w.put_u8(q.degraded as u8);
    w.put_u8(q.complete as u8);
    w.put_u8(q.via_fallback as u8);
    w.put_u32_le(q.generation);
    w.put_u64_le(q.indexed);
    w.put_u64_le(q.visited);
    w.put_u32_le(q.hits.len() as u32);
    for h in &q.hits {
        w.put_u32_le(h.id);
        w.put_f32_le(h.score);
        w.put_str(&h.label);
    }
}

/// Decode a [`QueryReply`] body (counterpart of [`put_query_reply`]).
fn read_query_reply(r: &mut Reader<'_>) -> Result<QueryReply, DecodeError> {
    let health_code = r.u8()?;
    let health_label = r.str_prefixed()?;
    let degraded = r.u8()? != 0;
    let complete = r.u8()? != 0;
    let via_fallback = r.u8()? != 0;
    let generation = r.u32_le()?;
    let indexed = r.u64_le()?;
    let visited = r.u64_le()?;
    // A hit is at least id + score + label-length = 12 bytes.
    let n = r.count_u32(12)?;
    let mut hits = Vec::with_capacity(n);
    for _ in 0..n {
        hits.push(WireHit {
            id: r.u32_le()?,
            score: r.f32_le()?,
            label: r.str_prefixed()?,
        });
    }
    Ok(QueryReply {
        health_code,
        health_label,
        degraded,
        complete,
        via_fallback,
        generation,
        indexed,
        visited,
        hits,
    })
}

/// Encode a [`WireError`] body (shared by `Error` and a failed `QueryFor`).
fn put_wire_error(w: &mut Writer, e: &WireError) {
    w.put_u8(e.code as u8);
    w.put_str(&e.message);
}

/// Decode a [`WireError`] body (counterpart of [`put_wire_error`]).
fn read_wire_error(r: &mut Reader<'_>) -> Result<WireError, DecodeError> {
    let code_byte = r.u8()?;
    let code = ErrorCode::from_code(code_byte)
        .ok_or_else(|| r.error(DecodeErrorKind::BadDiscriminant(code_byte)))?;
    Ok(WireError {
        code,
        message: r.str_prefixed()?,
    })
}

impl Response {
    /// Encode to a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(PROTOCOL_VERSION);
        match self {
            Response::Pong => w.put_u8(RESP_PONG),
            Response::Query(q) => {
                w.put_u8(RESP_QUERY);
                put_query_reply(&mut w, q);
            }
            Response::QueryFor { request_id, reply } => {
                w.put_u8(RESP_QUERY_FOR);
                w.put_u64_le(*request_id);
                match reply {
                    Ok(q) => {
                        w.put_u8(1);
                        put_query_reply(&mut w, q);
                    }
                    Err(e) => {
                        w.put_u8(0);
                        put_wire_error(&mut w, e);
                    }
                }
            }
            Response::Reloaded {
                generation,
                warnings,
            } => {
                w.put_u8(RESP_RELOADED);
                w.put_u32_le(*generation);
                put_strs(&mut w, warnings);
            }
            Response::ShuttingDown => w.put_u8(RESP_SHUTTING_DOWN),
            Response::Stats(s) => {
                w.put_u8(RESP_STATS);
                w.put_u32_le(s.generation);
                w.put_u64_le(s.indexed);
                w.put_str(&s.health_label);
                w.put_u64_le(s.accepted);
                w.put_u64_le(s.shed);
                w.put_u64_le(s.expired);
                w.put_u64_le(s.degraded_answers);
                w.put_u32_le(s.queue_capacity);
                w.put_u64_le(s.cache_hits);
                w.put_u64_le(s.cache_misses);
                put_opt(&mut w, s.live.as_ref(), |w, live| {
                    w.put_u32_le(live.segments);
                    w.put_u64_le(live.wal_bytes);
                    w.put_u64_le(live.pending_tombstones);
                    w.put_u64_le(live.live_rows);
                });
                put_opt(&mut w, s.last_reload_micros, Writer::put_u64_le);
                put_opt(&mut w, s.replication.as_ref(), |w, rep| {
                    w.put_u8(rep.role);
                    w.put_u32_le(rep.primary_generation);
                    w.put_u32_le(rep.synced_generation);
                    w.put_u32_le(rep.lag_generations);
                    w.put_u32_le(rep.lag_seconds);
                    w.put_u64_le(rep.last_sync_micros);
                    w.put_u64_le(rep.last_sync_bytes);
                    w.put_u64_le(rep.syncs);
                    w.put_u8(rep.stale as u8);
                });
                put_opt(&mut w, s.overload.as_ref(), |w, ov| {
                    w.put_u8(ov.brownout_rung);
                    w.put_u64_le(ov.brownout_steps_down);
                    w.put_u64_le(ov.brownout_steps_up);
                    w.put_u64_le(ov.brownout_answers);
                    w.put_u64_le(ov.bucket_shed);
                    w.put_u64_le(ov.displaced);
                    w.put_u64_le(ov.codel_shed);
                    w.put_u32_le(ov.tenants.len() as u32);
                    for t in &ov.tenants {
                        w.put_str(&t.name);
                        w.put_u64_le(t.accepted);
                        w.put_u64_le(t.shed);
                        w.put_u64_le(t.p50_micros);
                        w.put_u64_le(t.p99_micros);
                    }
                });
                put_opt(&mut w, s.dedup_hits, Writer::put_u64_le);
            }
            Response::Error(e) => {
                w.put_u8(RESP_ERROR);
                put_wire_error(&mut w, e);
            }
            Response::Mutated { seq, applied } => {
                w.put_u8(RESP_MUTATED);
                w.put_u64_le(*seq);
                w.put_u64_le(*applied);
            }
            Response::SyncState {
                generation,
                fingerprint,
                items,
            } => {
                w.put_u8(RESP_SYNC_STATE);
                w.put_u32_le(*generation);
                w.put_u64_le(*fingerprint);
                w.put_u32_le(items.len() as u32);
                for item in items {
                    w.put_str(&item.name);
                    w.put_u64_le(item.len);
                    w.put_u32_le(item.crc);
                }
            }
            Response::SyncChunk {
                offset,
                total_len,
                crc,
                data,
            } => {
                w.put_u8(RESP_SYNC_CHUNK);
                w.put_u64_le(*offset);
                w.put_u64_le(*total_len);
                w.put_u32_le(*crc);
                w.put_u32_le(data.len() as u32);
                w.put_slice(data);
            }
        }
        w.into_vec()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload, "response");
        r.expect_version(PROTOCOL_VERSION)?;
        let tag = r.u8()?;
        let resp = match tag {
            RESP_PONG => Response::Pong,
            RESP_QUERY => Response::Query(read_query_reply(&mut r)?),
            RESP_QUERY_FOR => {
                let request_id = r.u64_le()?;
                let reply = match r.u8()? {
                    1 => Ok(read_query_reply(&mut r)?),
                    0 => Err(read_wire_error(&mut r)?),
                    other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
                };
                Response::QueryFor { request_id, reply }
            }
            RESP_RELOADED => Response::Reloaded {
                generation: r.u32_le()?,
                warnings: read_strs(&mut r)?,
            },
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_STATS => Response::Stats(StatsReply {
                generation: r.u32_le()?,
                indexed: r.u64_le()?,
                health_label: r.str_prefixed()?,
                accepted: r.u64_le()?,
                shed: r.u64_le()?,
                expired: r.u64_le()?,
                degraded_answers: r.u64_le()?,
                queue_capacity: r.u32_le()?,
                cache_hits: r.u64_le()?,
                cache_misses: r.u64_le()?,
                live: read_opt(&mut r, |r| {
                    Ok(crate::LiveStats {
                        segments: r.u32_le()?,
                        wal_bytes: r.u64_le()?,
                        pending_tombstones: r.u64_le()?,
                        live_rows: r.u64_le()?,
                    })
                })?,
                last_reload_micros: read_opt(&mut r, Reader::u64_le)?,
                replication: read_opt(&mut r, |r| {
                    Ok(ReplicationStats {
                        role: r.u8()?,
                        primary_generation: r.u32_le()?,
                        synced_generation: r.u32_le()?,
                        lag_generations: r.u32_le()?,
                        lag_seconds: r.u32_le()?,
                        last_sync_micros: r.u64_le()?,
                        last_sync_bytes: r.u64_le()?,
                        syncs: r.u64_le()?,
                        stale: r.u8()? != 0,
                    })
                })?,
                overload: read_opt(&mut r, |r| {
                    Ok(OverloadStats {
                        brownout_rung: r.u8()?,
                        brownout_steps_down: r.u64_le()?,
                        brownout_steps_up: r.u64_le()?,
                        brownout_answers: r.u64_le()?,
                        bucket_shed: r.u64_le()?,
                        displaced: r.u64_le()?,
                        codel_shed: r.u64_le()?,
                        tenants: {
                            // A tenant entry is at least a name prefix + 4 × u64.
                            let n = r.count_u32(36)?;
                            let mut tenants = Vec::with_capacity(n);
                            for _ in 0..n {
                                tenants.push(TenantStats {
                                    name: r.str_prefixed()?,
                                    accepted: r.u64_le()?,
                                    shed: r.u64_le()?,
                                    p50_micros: r.u64_le()?,
                                    p99_micros: r.u64_le()?,
                                });
                            }
                            tenants
                        },
                    })
                })?,
                dedup_hits: read_opt(&mut r, Reader::u64_le)?,
            }),
            RESP_ERROR => Response::Error(read_wire_error(&mut r)?),
            RESP_MUTATED => Response::Mutated {
                seq: r.u64_le()?,
                applied: r.u64_le()?,
            },
            RESP_SYNC_STATE => {
                let generation = r.u32_le()?;
                let fingerprint = r.u64_le()?;
                // An item is at least name-length + len + crc = 16 bytes.
                let n = r.count_u32(16)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(SyncItem {
                        name: r.str_prefixed()?,
                        len: r.u64_le()?,
                        crc: r.u32_le()?,
                    });
                }
                Response::SyncState {
                    generation,
                    fingerprint,
                    items,
                }
            }
            RESP_SYNC_CHUNK => {
                let offset = r.u64_le()?;
                let total_len = r.u64_le()?;
                let crc = r.u32_le()?;
                // The count is validated against the bytes actually present
                // before the allocation happens.
                let n = r.count_u32(1)?;
                let data = r.bytes(n)?.to_vec();
                Response::SyncChunk {
                    offset,
                    total_len,
                    crc,
                    data,
                }
            }
            other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
        };
        if !r.is_empty() {
            return Err(r.error(DecodeErrorKind::Invalid("trailing bytes after message")));
        }
        Ok(resp)
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes mid-frame EOF and read
    /// timeouts).
    Io(io::Error),
    /// The header announced a payload bigger than the configured cap. The
    /// body was *not* read.
    TooLarge {
        /// Announced payload size.
        announced: usize,
        /// Configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::TooLarge { announced, cap } => {
                write!(f, "frame of {announced} bytes exceeds cap of {cap} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame — `u32`-le payload length, then the payload — with a
/// single `write`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frames(w, &[payload])
}

/// Write `payloads` as back-to-back frames in **one** buffered `write`
/// (plus one flush): header and body never travel as separate segments,
/// and a wave answering D pipelined queries on a connection costs one
/// syscall, not 2·D.
pub fn write_frames<P: AsRef<[u8]>>(w: &mut impl Write, payloads: &[P]) -> io::Result<()> {
    let total: usize = payloads.iter().map(|p| 4 + p.as_ref().len()).sum();
    let mut buf = Vec::with_capacity(total);
    for p in payloads {
        let p = p.as_ref();
        buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
        buf.extend_from_slice(p);
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Bytes a [`FrameReader`] asks the transport for at once: several query
/// or reply frames' worth, so one `read` normally yields a whole frame
/// and, on a pipelined connection, many.
const READ_AHEAD: usize = 8 << 10;

/// A [`FrameReader`] buffer that grew past this for one large frame is
/// released once it has been consumed.
const KEEP_BUFFER: usize = 64 << 10;

/// The one frame reader: a reusable per-connection buffer that frames are
/// parsed out of in place. Before every transport `read` it calls the
/// caller's `wait` hook — that is where the server and client block (in
/// [`crate::wake::wait`]) and enforce their per-frame time budget.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// `buf[head..tail]` holds bytes read but not yet handed out.
    head: usize,
    tail: usize,
    max_frame: usize,
    /// Read past the frame being assembled. Off only for the stateless
    /// [`read_frame`], which must leave the next frame in the transport.
    read_ahead: bool,
}

impl FrameReader {
    /// A reader refusing frames whose header announces more than
    /// `max_frame` payload bytes.
    pub fn new(max_frame: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            max_frame,
            read_ahead: true,
        }
    }

    /// The next frame's payload, borrowed from the buffer. `Ok(None)` is a
    /// clean EOF at a frame boundary; EOF mid-frame is an error. A header
    /// announcing more than `max_frame` bytes fails as soon as its four
    /// bytes are in, without waiting for a body. An error from `wait` is
    /// returned as [`FrameError::Io`]; frames already buffered are handed
    /// out without calling it.
    pub fn read_frame(
        &mut self,
        r: &mut impl Read,
        mut wait: impl FnMut() -> io::Result<()>,
    ) -> Result<Option<&[u8]>, FrameError> {
        if self.head == self.tail && self.buf.len() > KEEP_BUFFER {
            self.buf = Vec::new();
        }
        loop {
            let have = self.tail - self.head;
            let need = if have < 4 {
                4
            } else {
                let header = &self.buf[self.head..self.head + 4];
                let len = u32::from_le_bytes(header.try_into().expect("4-byte slice")) as usize;
                if len > self.max_frame {
                    return Err(FrameError::TooLarge {
                        announced: len,
                        cap: self.max_frame,
                    });
                }
                if have >= 4 + len {
                    let body = self.head + 4..self.head + 4 + len;
                    self.head = body.end;
                    if self.head == self.tail {
                        (self.head, self.tail) = (0, 0);
                    }
                    return Ok(Some(&self.buf[body]));
                }
                4 + len
            };
            wait()?;
            let want = if self.read_ahead {
                need.max(READ_AHEAD)
            } else {
                need
            };
            if self.head + want > self.buf.len() {
                self.buf.copy_within(self.head..self.tail, 0);
                (self.head, self.tail) = (0, have);
                if want > self.buf.len() {
                    self.buf.resize(want, 0);
                }
            }
            match r.read(&mut self.buf[self.tail..self.head + want]) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if have < 4 {
                            "eof inside frame header"
                        } else {
                            "eof inside frame body"
                        },
                    )))
                }
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// Read one frame and nothing past it. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed between messages); EOF mid-frame
/// is an error. A header announcing more than `max_frame` bytes fails
/// *before* the body is read. Connections that read many frames keep a
/// [`FrameReader`] instead.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut reader = FrameReader {
        read_ahead: false,
        ..FrameReader::new(max_frame)
    };
    Ok(reader.read_frame(r, || Ok(()))?.map(<[u8]>::to_vec))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats with every optional field absent.
    fn bare_stats() -> StatsReply {
        StatsReply {
            generation: 1,
            indexed: 42,
            health_label: "hnsw".into(),
            accepted: 10,
            shed: 2,
            expired: 1,
            degraded_answers: 3,
            queue_capacity: 32,
            cache_hits: 12,
            cache_misses: 5,
            live: None,
            last_reload_micros: None,
            replication: None,
            overload: None,
            dedup_hits: None,
        }
    }

    /// Stats with every optional field present.
    fn full_stats() -> StatsReply {
        StatsReply {
            live: Some(crate::LiveStats {
                segments: 3,
                wal_bytes: 1024,
                pending_tombstones: 7,
                live_rows: 99,
            }),
            last_reload_micros: Some(2_500),
            replication: Some(ReplicationStats {
                role: ROLE_REPLICA,
                primary_generation: 6,
                synced_generation: 4,
                lag_generations: 2,
                lag_seconds: 31,
                last_sync_micros: 12_000,
                last_sync_bytes: 4_096,
                syncs: 5,
                stale: true,
            }),
            overload: Some(OverloadStats {
                brownout_rung: 2,
                brownout_steps_down: 5,
                brownout_steps_up: 3,
                brownout_answers: 40,
                bucket_shed: 6,
                displaced: 2,
                codel_shed: 1,
                tenants: vec![
                    TenantStats {
                        name: "default".into(),
                        accepted: 60,
                        shed: 1,
                        p50_micros: 900,
                        p99_micros: 4_000,
                    },
                    TenantStats {
                        name: "hot".into(),
                        accepted: 40,
                        shed: 8,
                        p50_micros: 1_200,
                        p99_micros: 9_000,
                    },
                ],
            }),
            dedup_hits: Some(4),
            ..bare_stats()
        }
    }

    fn query(tenant: Option<&str>, request_id: Option<u64>) -> Request {
        Request::Query {
            name: "orders.customer_id".into(),
            cells: vec!["a".into(), "b".into(), String::new()],
            k: 25,
            tenant: tenant.map(str::to_string),
            request_id,
        }
    }

    fn reply() -> QueryReply {
        QueryReply {
            health_code: 1,
            health_label: "degraded-flat: checksum".into(),
            degraded: true,
            complete: false,
            via_fallback: true,
            generation: 3,
            indexed: 1000,
            visited: 512,
            hits: vec![
                WireHit {
                    id: 7,
                    score: 0.25,
                    label: "t.c".into(),
                },
                WireHit {
                    id: 9,
                    score: 0.5,
                    label: "u.d".into(),
                },
            ],
        }
    }

    /// Every request kind, each optional field both absent and present.
    fn requests() -> Vec<Request> {
        vec![
            Request::Ping,
            query(None, None),
            query(Some("analytics-team"), None),
            query(None, Some(77)),
            query(Some("analytics-team"), Some(u64::MAX)),
            Request::Reload { path: None },
            Request::Reload {
                path: Some("/tmp/model.djar".into()),
            },
            Request::Shutdown,
            Request::Stats,
            Request::AddTable {
                title: "orders".into(),
                columns: vec![
                    ("id".into(), vec!["1".into(), "2".into()]),
                    ("sku".into(), vec![]),
                ],
            },
            Request::DropTable {
                title: "orders".into(),
            },
            Request::SyncPoll,
            Request::SyncFetch {
                item: "live/seg-000003.djar".into(),
                offset: 262_144,
                len: 65_536,
            },
        ]
    }

    /// Every response kind, each optional field both absent and present.
    fn responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Query(reply()),
            Response::QueryFor {
                request_id: 7,
                reply: Ok(reply()),
            },
            Response::QueryFor {
                request_id: u64::MAX,
                reply: Err(WireError {
                    code: ErrorCode::Overloaded,
                    message: "queue full".into(),
                }),
            },
            Response::Reloaded {
                generation: 2,
                warnings: vec!["hnsw section corrupt".into()],
            },
            Response::ShuttingDown,
            Response::Stats(bare_stats()),
            Response::Stats(full_stats()),
            Response::Error(WireError {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            }),
            Response::Mutated {
                seq: 12,
                applied: 4,
            },
            Response::SyncState {
                generation: 9,
                fingerprint: 0xDEAD_BEEF_F00D_CAFE,
                items: vec![
                    SyncItem {
                        name: "model".into(),
                        len: 1_048_576,
                        crc: 0x1234_5678,
                    },
                    SyncItem {
                        name: "live/manifest.djar".into(),
                        len: 256,
                        crc: 42,
                    },
                ],
            },
            Response::SyncState {
                generation: 1,
                fingerprint: 0,
                items: vec![],
            },
            Response::SyncChunk {
                offset: 131_072,
                total_len: 1_048_576,
                crc: 0xCAFE_BABE,
                data: vec![7u8; 512],
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    type Decode = fn(&[u8]) -> Result<(), DecodeError>;

    fn decode_request(payload: &[u8]) -> Result<(), DecodeError> {
        Request::decode(payload).map(drop)
    }

    fn decode_response(payload: &[u8]) -> Result<(), DecodeError> {
        Response::decode(payload).map(drop)
    }

    #[test]
    fn every_message_obeys_the_one_decoding_rule() {
        let cases = requests()
            .into_iter()
            .map(|m| (m.encode(), "request", decode_request as Decode))
            .chain(
                responses()
                    .into_iter()
                    .map(|m| (m.encode(), "response", decode_response as Decode)),
            );
        for (enc, section, decode) in cases {
            let at = |offset, kind| Err(DecodeError::new(kind, section, offset));
            assert_eq!(decode(&enc), Ok(()));
            let mut trailing = enc.clone();
            trailing.push(0);
            let trailing_err = DecodeErrorKind::Invalid("trailing bytes after message");
            assert_eq!(decode(&trailing), at(enc.len(), trailing_err));
            let mut v1 = enc.clone();
            v1[0] = 1;
            assert_eq!(decode(&v1), at(0, DecodeErrorKind::BadVersion(1)));
            for cut in 0..enc.len() {
                let err = decode(&enc[..cut]).expect_err("truncated message");
                assert_eq!(err.section, section, "cut at {cut}");
            }
        }
        // With every optional field absent the presence bytes end the
        // message; each one set to 2 is refused at its own offset.
        for (enc, decode, presence) in [
            (query(None, None).encode(), decode_request as Decode, 2),
            (Request::Reload { path: None }.encode(), decode_request, 1),
            (Response::Stats(bare_stats()).encode(), decode_response, 5),
        ] {
            for offset in enc.len() - presence..enc.len() {
                let mut bad = enc.clone();
                bad[offset] = 2;
                let err = decode(&bad).expect_err("presence byte 2");
                assert_eq!(
                    (err.kind, err.offset),
                    (DecodeErrorKind::BadDiscriminant(2), offset)
                );
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn v2_wire_images_are_pinned() {
        let query = |tenant: Option<&str>, request_id| {
            Request::Query {
                name: "q".into(),
                cells: vec!["x".into()],
                k: 3,
                tenant: tenant.map(str::to_string),
                request_id,
            }
            .encode()
        };
        // Version, tag, name "q", k, one cell "x", then the presence bytes.
        let head = [
            2, 2, 1, 0, 0, 0, b'q', 3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, b'x',
        ];
        assert_eq!(query(None, None), [&head[..], &[0, 0]].concat());
        let tagged = [&head[..], &[1, 1, 0, 0, 0, b't', 1, 7, 0, 0, 0, 0, 0, 0, 0]].concat();
        assert_eq!(query(Some("t"), Some(7)), tagged);
        let full = Response::Stats(full_stats()).encode();
        assert_eq!((full.len(), fnv1a(&full)), (300, 0x5bfd_ff5b_cbbf_8a8e));
        let partial = Response::Stats(StatsReply {
            live: None,
            replication: None,
            ..full_stats()
        })
        .encode();
        assert_eq!(
            (partial.len(), fnv1a(&partial)),
            (230, 0x4747_8602_1661_9b49)
        );
    }

    #[test]
    fn hostile_sync_chunk_length_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u8(PROTOCOL_VERSION);
        w.put_u8(RESP_SYNC_CHUNK);
        w.put_u64_le(0);
        w.put_u64_le(1 << 40);
        w.put_u32_le(0);
        w.put_u32_le(u32::MAX); // hostile data length, no data bytes
        assert!(Response::decode(&w.into_vec()).is_err());
    }

    #[test]
    fn query_for_body_matches_query_and_rejects_a_bad_kind_byte() {
        let reply = QueryReply {
            health_code: 0,
            health_label: "hnsw".into(),
            degraded: false,
            complete: true,
            via_fallback: false,
            generation: 2,
            indexed: 50,
            visited: 50,
            hits: vec![WireHit {
                id: 3,
                score: 0.125,
                label: "t.c".into(),
            }],
        };
        // The correlated reply body is byte-identical to the plain Query
        // reply body: only the tag, id, and kind byte differ in front.
        let plain = Response::Query(reply.clone()).encode();
        let tagged = Response::QueryFor {
            request_id: 7,
            reply: Ok(reply),
        }
        .encode();
        assert_eq!(&tagged[2 + 8 + 1..], &plain[2..]);
        // A kind byte other than 0/1 is a decode error, not a panic.
        let mut bad = tagged.clone();
        bad[2 + 8] = 9;
        assert!(Response::decode(&bad).is_err());
    }

    #[test]
    fn hostile_tenant_count_in_overload_stats_is_rejected_before_allocation() {
        let mut enc = Response::Stats(bare_stats()).encode();
        // Replace the absent overload field with a hostile one: present,
        // all counters zero, then a tenant count far beyond the bytes
        // present (the absent dedup field behind it goes too).
        enc.pop();
        enc.pop();
        enc.push(1);
        enc.push(0); // rung
        enc.extend_from_slice(&[0u8; 48]); // six u64 counters
        enc.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile count
        assert!(Response::decode(&enc).is_err());
    }

    #[test]
    fn hostile_cell_count_is_rejected_before_allocation() {
        // A query frame claiming u32::MAX cells but carrying none.
        let mut w = Writer::new();
        w.put_u8(PROTOCOL_VERSION);
        w.put_u8(REQ_QUERY);
        w.put_str("q");
        w.put_u32_le(5);
        w.put_u32_le(u32::MAX); // hostile count
        let err = Request::decode(&w.into_vec()).unwrap_err();
        let msg = err.to_string();
        assert!(!msg.is_empty());
    }

    #[test]
    fn frame_roundtrip_and_eof_semantics() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), b"");
        // Clean EOF at a frame boundary.
        assert!(read_frame(&mut cur, MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn eof_inside_header_or_body_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        // Truncate inside the body.
        let mut cur = std::io::Cursor::new(&buf[..6]);
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME),
            Err(FrameError::Io(_))
        ));
        // Truncate inside the header.
        let mut cur = std::io::Cursor::new(&buf[..2]);
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME),
            Err(FrameError::Io(_))
        ));
    }

    /// The pre-`FrameReader` implementation, kept as the reference the
    /// property test compares against.
    fn reference_read_frame(
        r: &mut impl Read,
        max_frame: usize,
    ) -> Result<Option<Vec<u8>>, FrameError> {
        let mut len_buf = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            match r.read(&mut len_buf[got..])? {
                0 if got == 0 => return Ok(None),
                0 => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame header",
                    )))
                }
                n => got += n,
            }
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > max_frame {
            return Err(FrameError::TooLarge {
                announced: len,
                cap: max_frame,
            });
        }
        let mut payload = vec![0u8; len];
        let mut have = 0;
        while have < len {
            match r.read(&mut payload[have..])? {
                0 => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame body",
                    )))
                }
                n => have += n,
            }
        }
        Ok(Some(payload))
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Hands out `data` in random pieces of 1..=`max_piece` bytes.
    struct Pieces<'a> {
        data: &'a [u8],
        rng: u64,
        max_piece: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let piece = 1 + xorshift(&mut self.rng) as usize % self.max_piece;
            let n = piece.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Every frame up to and including the terminal outcome (clean EOF or
    /// an error), rendered comparably.
    fn drain(mut next: impl FnMut() -> Result<Option<Vec<u8>>, FrameError>) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match next() {
                Ok(Some(frame)) => out.push(format!("frame {frame:?}")),
                Ok(None) => out.push("eof".to_string()),
                Err(FrameError::TooLarge { announced, cap }) => {
                    out.push(format!("too large {announced} > {cap}"))
                }
                Err(FrameError::Io(e)) => out.push(format!("io {:?} {e}", e.kind())),
            }
            if !out.last().expect("just pushed").starts_with("frame") {
                return out;
            }
        }
    }

    #[test]
    fn frame_reader_matches_the_reference_under_any_split() {
        const CAP: usize = 100_000;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for case in 0..40 {
            // N random frames: mostly query-sized, some past the
            // read-ahead chunk, one in four streams with a frame past the
            // buffer the reader keeps.
            let mut stream = Vec::new();
            for _ in 0..1 + xorshift(&mut rng) % 12 {
                let len = match xorshift(&mut rng) % 8 {
                    0 => 0,
                    1 => READ_AHEAD + xorshift(&mut rng) as usize % 5000,
                    2 if case % 4 == 0 => KEEP_BUFFER + 7,
                    _ => xorshift(&mut rng) as usize % 300,
                };
                let payload: Vec<u8> = (0..len).map(|_| xorshift(&mut rng) as u8).collect();
                write_frame(&mut stream, &payload).unwrap();
            }
            // How the stream ends: cleanly, inside a header, inside a
            // body, or with an oversized announcement.
            match case % 4 {
                0 => {}
                1 => stream.extend_from_slice(&[7, 0]),
                2 => {
                    stream.extend_from_slice(&50u32.to_le_bytes());
                    stream.extend_from_slice(&[9; 20]);
                }
                _ => stream.extend_from_slice(&(CAP as u32 + 1).to_le_bytes()),
            }
            let mut cur = std::io::Cursor::new(&stream);
            let want = drain(|| reference_read_frame(&mut cur, CAP));
            assert!(
                want.len() >= 2,
                "case {case}: at least one frame and an ending"
            );
            for max_piece in [1, 3, 5, 64, 4096, 1 << 20] {
                let pieces = || Pieces {
                    data: &stream,
                    rng: rng ^ max_piece as u64,
                    max_piece,
                };
                let mut src = pieces();
                let mut reader = FrameReader::new(CAP);
                let buffered = drain(|| {
                    reader
                        .read_frame(&mut src, || Ok(()))
                        .map(|f| f.map(<[u8]>::to_vec))
                });
                assert_eq!(buffered, want, "case {case}, pieces of <= {max_piece}");
                let mut src = pieces();
                let exact = drain(|| read_frame(&mut src, CAP));
                assert_eq!(exact, want, "case {case}, pieces of <= {max_piece}, exact");
            }
        }
    }

    #[test]
    fn frame_reader_reads_ahead_and_read_frame_does_not() {
        let mut stream = Vec::new();
        for i in 0..5u8 {
            write_frame(&mut stream, &[i; 10]).unwrap();
        }
        // One transport read yields all five frames; the wait hook runs
        // once, before that read, and never for a buffered frame.
        let mut cur = std::io::Cursor::new(&stream);
        let mut reader = FrameReader::new(MAX_FRAME);
        let mut waits = 0;
        for i in 0..5u8 {
            let counting = || {
                waits += 1;
                Ok(())
            };
            let frame = reader.read_frame(&mut cur, counting).unwrap();
            assert_eq!(frame.unwrap(), [i; 10]);
        }
        assert_eq!(waits, 1);
        assert_eq!(cur.position() as usize, stream.len());
        // The stateless function stops at its frame's last byte.
        let mut cur = std::io::Cursor::new(&stream);
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), [0; 10]);
        assert_eq!(cur.position(), 14);
        // A failing wait hook surfaces as the frame error.
        let mut reader = FrameReader::new(MAX_FRAME);
        let err = reader.read_frame(&mut cur, || Err(io::ErrorKind::TimedOut.into()));
        assert!(matches!(err, Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::TimedOut));
    }

    /// A stream that counts how many OS-level `write` calls it absorbs.
    #[derive(Default)]
    struct CountingStream {
        writes: usize,
        flushes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_waves_responses_for_one_connection_are_one_buffered_write() {
        let payloads: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                Response::QueryFor {
                    request_id: i,
                    reply: Err(WireError {
                        code: ErrorCode::Internal,
                        message: format!("m{i}"),
                    }),
                }
                .encode()
            })
            .collect();
        let mut stream = CountingStream::default();
        write_frames(&mut stream, &payloads).unwrap();
        // The pin: one write call for the whole wave share (not one or two
        // per frame), one flush.
        assert_eq!(stream.writes, 1);
        assert_eq!(stream.flushes, 1);
        // The coalesced bytes are still valid back-to-back frames.
        let mut cur = std::io::Cursor::new(stream.bytes);
        for i in 0..4 {
            let frame = read_frame(&mut cur, MAX_FRAME).unwrap().unwrap();
            match Response::decode(&frame).unwrap() {
                Response::QueryFor { request_id, .. } => assert_eq!(request_id, i),
                other => panic!("expected QueryFor, got {other:?}"),
            }
        }
        assert!(read_frame(&mut cur, MAX_FRAME).unwrap().is_none());
        // An empty share never touches the socket.
        let mut empty = CountingStream::default();
        write_frames(&mut empty, &[] as &[Vec<u8>]).unwrap();
        assert_eq!(empty.writes, 0);
        // A single frame is one write too: header and body together.
        let mut single = CountingStream::default();
        write_frame(&mut single, b"hello").unwrap();
        assert_eq!((single.writes, single.flushes), (1, 1));
        assert_eq!(single.bytes, b"\x05\0\0\0hello");
    }

    #[test]
    fn oversized_header_fails_without_reading_the_body() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        // No body bytes at all: the cap check must fire first.
        let mut cur = std::io::Cursor::new(buf);
        match read_frame(&mut cur, 1024) {
            Err(FrameError::TooLarge { announced, cap }) => {
                assert_eq!(announced, u32::MAX as usize);
                assert_eq!(cap, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
