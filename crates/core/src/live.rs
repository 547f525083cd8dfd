//! The crash-safe live lake (DESIGN.md §13): WAL-journaled incremental
//! ingest, tombstoned deletes, and kill-safe flush/compaction layered on
//! top of an immutable base snapshot.
//!
//! The base model (`dj train` output) stays frozen; mutations accumulate
//! beside it in a *live directory*:
//!
//! * `wal.djwl` — the journal. `add-table` / `drop-table` append one
//!   checksummed record each ([`deepjoin_store::Wal`]) and are committed
//!   the moment the append returns; a SIGKILL at any byte boundary
//!   recovers exactly the committed prefix.
//! * in-memory **memtable** — journaled-but-unflushed columns, searched by
//!   exact flat scan alongside the base index.
//! * `seg-NNNNNN.djar` — immutable flushed segments (atomic rename), each
//!   an exact-scan slab of embedded live columns.
//! * `manifest.djar` — the single source of truth: which segments exist,
//!   the journal watermark (`applied_seq`), the id allocator, and the
//!   tombstone bitmap (`TOMB` section). Rewritten atomically; every state
//!   transition (flush, compaction) becomes durable exactly when the
//!   manifest rename lands, which is what makes those transitions
//!   kill-safe.
//!
//! Ids are global and stable: the base snapshot owns `[0, base_len)`,
//! live columns are allocated upward from `base_len` and never reused —
//! so tombstones, WAL records, and search results all speak one id
//! language, and replay is idempotent (`seq <= applied_seq` is skipped).
//!
//! Deletes are logical until compaction: [`LiveLake::drop_table`] journals
//! the *resolved* ids (so replay cannot re-resolve differently), marks
//! them in the tombstone bitmap, and every search path filters through it
//! — effective on the very next query, no restart. Compaction rewrites
//! the surviving segment rows into one segment, physically dropping dead
//! rows; a corrupt tombstone bitmap degrades to serving-without-deletes
//! with a warning rather than refusing to load.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use deepjoin_ann::budget::{Budget, BudgetedSearch};
use deepjoin_ann::io::{decode_flat, decode_tombs, encode_flat, encode_tombs, MappedPayload};
use deepjoin_ann::plane::ByteOwner;
use deepjoin_ann::segmented::search_segments;
use deepjoin_ann::{FlatIndex, Metric, SearchRequest, TombSet, VectorIndex};
use deepjoin_lake::column::{Column, ColumnMeta};
use deepjoin_par::Pool;
use deepjoin_store::codec::{DecodeError, DecodeErrorKind, Reader, Writer};
use deepjoin_store::{Container, ContainerBuilder, Mmap, SharedIo, Wal, WalOpen};

use crate::model::DeepJoin;

/// The journal file inside a live directory.
pub const WAL_FILE: &str = "wal.djwl";
/// The manifest file inside a live directory.
pub const MANIFEST_FILE: &str = "manifest.djar";
/// Manifest container section: segment list + watermarks.
pub const SECTION_MANIFEST: [u8; 4] = *b"MNFS";
/// Manifest container section: the tombstone bitmap (`DJT1`).
pub const SECTION_TOMBS: [u8; 4] = *b"TOMB";
/// Segment container section: the embedded live rows.
pub const SECTION_SEGMENT: [u8; 4] = *b"SEGM";
/// Segment container section: the row vectors as a `DJF2` flat-vector
/// payload, mappable zero-copy.
pub const SECTION_SEGMENT_VECS: [u8; 4] = *b"VECS";

const MANIFEST_MAGIC: &[u8; 4] = b"DJMF";
const MANIFEST_VERSION: u8 = 1;
/// Segment header magic: ids + labels only, vectors live in the `VECS`
/// section of the same container.
const SEGMENT_MAGIC: &[u8; 4] = b"DJS2";
const SEGMENT_VERSION: u8 = 1;

/// WAL record body tags.
const OP_ADD_TABLE: u8 = 1;
const OP_DROP_TABLE: u8 = 2;

/// Memtable rows that trigger an automatic flush from `add_table`.
pub const DEFAULT_FLUSH_ROWS: usize = 256;

/// Identity of the model a live directory belongs to: FNV-1a over the
/// embedding dimension, the base snapshot's indexed length, the vocabulary
/// size, and the encoder seed. Live embeddings are only meaningful under
/// the model that produced them, so [`LiveLake::open`] refuses a directory
/// whose fingerprint disagrees.
pub fn model_fingerprint(model: &DeepJoin) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(model.config().dim as u64);
    eat(model.indexed_len() as u64);
    eat(model.vocabulary().len() as u64);
    eat(model.encoder().config.seed);
    h
}

/// One live (non-base) column: its stable global id, its provenance
/// labels, and its embedding under the base model.
#[derive(Clone)]
struct LiveRow {
    id: u32,
    table: String,
    column: String,
    embedding: Vec<f32>,
}

impl LiveRow {
    /// The row an ingested column becomes, at ingest and again at replay.
    fn embed(model: &DeepJoin, id: u32, title: &str, name: &str, cells: &[String]) -> Self {
        let col = Column::new(
            cells.to_vec(),
            ColumnMeta {
                table_title: title.to_string(),
                column_name: name.to_string(),
                ..ColumnMeta::default()
            },
        );
        LiveRow {
            id,
            embedding: model.embed_column(&col),
            table: col.meta.table_title,
            column: col.meta.column_name,
        }
    }
}

#[derive(Clone)]
struct SegmentMeta {
    file: String,
    rows: u32,
}

/// An immutable, loaded segment: parallel id/label arrays plus an exact
/// flat index over the rows. Shared by `Arc` into every published view.
struct Segment {
    ids: Arc<Vec<u32>>,
    labels: Arc<Vec<(String, String)>>,
    index: Arc<FlatIndex>,
}

impl Segment {
    fn build(rows: &[LiveRow], dim: usize, metric: Metric) -> Self {
        let mut index = FlatIndex::new(dim.max(1), metric).with_unit_norm(true);
        let mut ids = Vec::with_capacity(rows.len());
        let mut labels = Vec::with_capacity(rows.len());
        for r in rows {
            index.add(&r.embedding);
            ids.push(r.id);
            labels.push((r.table.clone(), r.column.clone()));
        }
        Segment {
            ids: Arc::new(ids),
            labels: Arc::new(labels),
            index: Arc::new(index),
        }
    }
}

#[derive(Clone)]
struct Manifest {
    fingerprint: u64,
    /// Journal records with `seq <= applied_seq` are reflected in the
    /// segments + tombstone bitmap; replay skips them (idempotence).
    applied_seq: u64,
    /// Next global column id to allocate (starts at `base_len`).
    next_id: u32,
    /// Next segment file number (never reused, so a half-compacted
    /// directory cannot collide names).
    next_seg: u64,
    base_len: u32,
    segments: Vec<SegmentMeta>,
}

impl Manifest {
    fn fresh(fingerprint: u64, base_len: u32) -> Self {
        Manifest {
            fingerprint,
            applied_seq: 0,
            next_id: base_len,
            next_seg: 0,
            base_len,
            segments: Vec::new(),
        }
    }
}

fn encode_manifest(m: &Manifest, tombs: &TombSet) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_slice(MANIFEST_MAGIC);
    w.put_u8(MANIFEST_VERSION);
    w.put_u64_le(m.fingerprint);
    w.put_u64_le(m.applied_seq);
    w.put_u32_le(m.next_id);
    w.put_u64_le(m.next_seg);
    w.put_u32_le(m.base_len);
    w.put_u32_le(m.segments.len() as u32);
    for s in &m.segments {
        w.put_str(&s.file);
        w.put_u32_le(s.rows);
    }
    ContainerBuilder::new()
        .section(SECTION_MANIFEST, w.into_vec())
        .section(SECTION_TOMBS, encode_tombs(tombs))
        .build()
}

/// Decode a manifest container. A damaged `MNFS` section is fatal to the
/// manifest (the caller degrades to journal-only recovery); a damaged
/// `TOMB` section only costs the deletes — `None` plus a warning.
fn decode_manifest(bytes: &[u8]) -> Result<(Manifest, Option<TombSet>, Vec<String>), DecodeError> {
    let container = Container::parse(bytes)?;
    let payload = match container.section(SECTION_MANIFEST, "MNFS") {
        None => {
            return Err(DecodeError::new(
                DecodeErrorKind::Invalid("manifest container has no MNFS section"),
                "MNFS",
                0,
            ))
        }
        Some(res) => res?,
    };
    let mut r = Reader::new(payload, "MNFS");
    r.expect_magic(MANIFEST_MAGIC)?;
    r.expect_version(MANIFEST_VERSION)?;
    let fingerprint = r.u64_le()?;
    let applied_seq = r.u64_le()?;
    let next_id = r.u32_le()?;
    let next_seg = r.u64_le()?;
    let base_len = r.u32_le()?;
    // Each segment entry is at least a 4-byte name length + 4-byte rows.
    let n = r.count_u32(8)?;
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        let file = r.str_prefixed()?;
        segments.push(SegmentMeta {
            file,
            rows: r.u32_le()?,
        });
    }
    if !r.is_empty() {
        return Err(r.error(DecodeErrorKind::Invalid("trailing bytes after manifest")));
    }
    let manifest = Manifest {
        fingerprint,
        applied_seq,
        next_id,
        next_seg,
        base_len,
        segments,
    };
    let mut warnings = Vec::new();
    let tombs = match container.section(SECTION_TOMBS, "TOMB") {
        None => {
            warnings.push(
                "manifest has no tombstone section; serving without deletes — \
                 dropped columns may reappear until the next flush"
                    .to_string(),
            );
            None
        }
        Some(res) => match res.and_then(decode_tombs) {
            Ok(t) => Some(t),
            Err(e) => {
                warnings.push(format!(
                    "tombstone bitmap failed verification ({e}); serving without deletes — \
                     dropped columns may reappear until the next flush"
                ));
                None
            }
        },
    };
    Ok((manifest, tombs, warnings))
}

/// Encode a segment container: the `SEGM` section carries ids and labels
/// only, and the vector plane lives in a separate `VECS` section as a
/// `DJF2` payload whose raw f32 blob sits on a 64-byte file boundary — so
/// a reopened segment file can be mmap'd and searched in place without
/// copying the vectors.
fn encode_segment(rows: &[LiveRow], dim: usize, metric: Metric) -> Vec<u8> {
    let mut w = Writer::with_capacity(32 + rows.len() * 16);
    w.put_slice(SEGMENT_MAGIC);
    w.put_u8(SEGMENT_VERSION);
    w.put_u32_le(dim as u32);
    w.put_u32_le(rows.len() as u32);
    for r in rows {
        w.put_u32_le(r.id);
        w.put_str(&r.table);
        w.put_str(&r.column);
    }
    // Same construction as `Segment::build`, so the bytes on disk are
    // exactly the plane a freshly flushed in-memory segment searches.
    let mut index = FlatIndex::new(dim.max(1), metric).with_unit_norm(true);
    for r in rows {
        index.add(&r.embedding);
    }
    ContainerBuilder::new()
        .section(SECTION_SEGMENT, w.into_vec())
        .section(SECTION_SEGMENT_VECS, encode_flat(&index))
        .build()
}

/// Decode a segment container straight into a loaded [`Segment`], the
/// vector plane viewed zero-copy when `mapped` carries the file's pinned
/// mapping. Structural validation is identical either way — a mapping is
/// never trusted.
fn decode_segment_loaded(
    bytes: &[u8],
    mapped: Option<&ByteOwner>,
    dim: usize,
    metric: Metric,
) -> Result<Segment, DecodeError> {
    let container = Container::parse(bytes)?;
    let payload = match container.section(SECTION_SEGMENT, "SEGM") {
        None => {
            return Err(DecodeError::new(
                DecodeErrorKind::Invalid("segment container has no SEGM section"),
                "SEGM",
                0,
            ))
        }
        Some(res) => res?,
    };
    let mut r = Reader::new(payload, "SEGM");
    r.expect_magic(SEGMENT_MAGIC)?;
    r.expect_version(SEGMENT_VERSION)?;
    let seg_dim = r.u32_le()? as usize;
    if seg_dim != dim {
        return Err(r.error(DecodeErrorKind::Invalid(
            "segment dimensionality disagrees with the model",
        )));
    }
    // A row header is at least id + two string length prefixes.
    let n = r.count_u32(12)?;
    let mut ids = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.u32_le()?);
        labels.push((r.str_prefixed()?, r.str_prefixed()?));
    }
    if !r.is_empty() {
        return Err(r.error(DecodeErrorKind::Invalid("trailing bytes after segment")));
    }
    let range = match container.section_range(SECTION_SEGMENT_VECS, "VECS") {
        None => {
            return Err(DecodeError::new(
                DecodeErrorKind::Invalid("segment container has no VECS section"),
                "VECS",
                0,
            ))
        }
        Some(res) => res?,
    };
    let vecs = &bytes[range.offset..range.offset + range.len];
    let src = mapped.map(|owner| MappedPayload {
        owner: owner.clone(),
        base: range.offset,
    });
    let index = decode_flat(vecs, "VECS", src.as_ref())?;
    if index.len() != n || index.dim() != dim.max(1) || index.metric() != metric {
        return Err(DecodeError::new(
            DecodeErrorKind::Invalid("segment vector plane disagrees with its header"),
            "VECS",
            0,
        ));
    }
    Ok(Segment {
        ids: Arc::new(ids),
        labels: Arc::new(labels),
        // `Segment::build` stores unit-norm rows; restore the same cosine
        // fast path so mapped and rebuilt segments score byte-identically.
        index: Arc::new(index.with_unit_norm(true)),
    })
}

/// Open one segment file. Tries the zero-copy path first — mmap the real
/// file and view its vector plane in place — and falls back to the
/// io-mediated heap read for test doubles whose "files" have no real
/// backing on disk. Any failure on the mapped path (including a file that
/// parses but fails validation) retries through `io`, so fault-injection
/// wrappers always see the read they expect to intercept.
fn load_segment(
    io: &SharedIo,
    path: &std::path::Path,
    dim: usize,
    metric: Metric,
) -> Result<Segment, String> {
    if let Ok(map) = Mmap::open(path) {
        let owner: ByteOwner = Arc::new(map);
        let buf_owner = owner.clone();
        let buf: &[u8] = buf_owner.as_ref().as_ref();
        if let Ok(seg) = decode_segment_loaded(buf, Some(&owner), dim, metric) {
            return Ok(seg);
        }
    }
    let bytes = io.read(path).map_err(|e| e.to_string())?;
    decode_segment_loaded(&bytes, None, dim, metric).map_err(|e| e.to_string())
}

/// Decoded WAL record bodies.
enum WalOp {
    AddTable {
        title: String,
        first_id: u32,
        columns: Vec<(String, Vec<String>)>,
    },
    DropTable {
        ids: Vec<u32>,
    },
}

fn encode_add(title: &str, first_id: u32, columns: &[(String, Vec<String>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_ADD_TABLE);
    w.put_str(title);
    w.put_u32_le(first_id);
    w.put_u32_le(columns.len() as u32);
    for (name, cells) in columns {
        w.put_str(name);
        w.put_u32_le(cells.len() as u32);
        for c in cells {
            w.put_str(c);
        }
    }
    w.into_vec()
}

fn encode_drop(title: &str, ids: &[u32]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_DROP_TABLE);
    w.put_str(title);
    w.put_u32_le(ids.len() as u32);
    for &id in ids {
        w.put_u32_le(id);
    }
    w.into_vec()
}

fn decode_record(body: &[u8]) -> Result<WalOp, DecodeError> {
    let mut r = Reader::new(body, "wal-record");
    let op = match r.u8()? {
        OP_ADD_TABLE => {
            let title = r.str_prefixed()?;
            let first_id = r.u32_le()?;
            let n = r.count_u32(8)?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.str_prefixed()?;
                let cells_n = r.count_u32(4)?;
                let mut cells = Vec::with_capacity(cells_n);
                for _ in 0..cells_n {
                    cells.push(r.str_prefixed()?);
                }
                columns.push((name, cells));
            }
            WalOp::AddTable {
                title,
                first_id,
                columns,
            }
        }
        OP_DROP_TABLE => {
            let _title = r.str_prefixed()?;
            let n = r.count_u32(4)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(r.u32_le()?);
            }
            WalOp::DropTable { ids }
        }
        other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
    };
    if !r.is_empty() {
        return Err(r.error(DecodeErrorKind::Invalid("trailing bytes after record")));
    }
    Ok(op)
}

/// One exact-scan slab of a published [`LiveView`]: an immutable segment
/// or a snapshot of the memtable, with its local dead-row mask precomputed
/// so queries never translate global tombstones per scan.
struct Slab {
    ids: Arc<Vec<u32>>,
    labels: Arc<Vec<(String, String)>>,
    index: Arc<FlatIndex>,
    dead: Arc<TombSet>,
}

fn local_dead(ids: &[u32], tombs: &TombSet) -> TombSet {
    ids.iter()
        .enumerate()
        .filter(|(_, &id)| tombs.contains(id))
        .map(|(i, _)| i as u32)
        .collect()
}

/// An immutable snapshot of the live lake, published after every mutation
/// and consumed lock-free by queries (clone the `Arc`, use it for the
/// whole request). Holds the global tombstone bitmap (for filtering the
/// base index) and the live slabs in ascending-id order.
pub struct LiveView {
    dim: usize,
    base_len: u32,
    tombs: TombSet,
    slabs: Vec<Slab>,
}

impl LiveView {
    /// Size of the immutable base snapshot's id range.
    pub fn base_len(&self) -> u32 {
        self.base_len
    }

    /// Global deleted-id bitmap (base and live ids). Pass it to the base
    /// index as the request's `deleted` so dropped base columns vanish too.
    pub fn tombs(&self) -> &TombSet {
        &self.tombs
    }

    /// Live (non-deleted) rows across all slabs.
    pub fn live_rows(&self) -> usize {
        self.slabs
            .iter()
            .map(|s| s.ids.len() - s.dead.len())
            .sum()
    }

    /// Number of slabs (segments + at most one memtable snapshot).
    pub fn slab_count(&self) -> usize {
        self.slabs.len()
    }

    /// `(table, column)` of a live id, if it exists and is not deleted.
    pub fn label(&self, id: u32) -> Option<(&str, &str)> {
        if self.tombs.contains(id) {
            return None;
        }
        for slab in &self.slabs {
            if let Ok(i) = slab.ids.binary_search(&id) {
                let (t, c) = &slab.labels[i];
                return Some((t.as_str(), c.as_str()));
            }
        }
        None
    }

    /// `(id, table, column)` of every surviving live row, ascending id —
    /// the observable mutation state (used by the recovery oracle tests).
    pub fn surviving(&self) -> Vec<(u32, String, String)> {
        let mut out = Vec::with_capacity(self.live_rows());
        for slab in &self.slabs {
            for (i, &id) in slab.ids.iter().enumerate() {
                if !slab.dead.contains(i as u32) {
                    let (t, c) = &slab.labels[i];
                    out.push((id, t.clone(), c.clone()));
                }
            }
        }
        out
    }

    /// Exact top-k over the live rows for every member of the wave,
    /// scatter-gathered across the slabs on the shared worker pool — each
    /// slab scans once per wave, rows-outer — and merged through the bounded
    /// top-k selector, so every result holds at most `k` hits and is
    /// identical for any thread count. The view filters through its own
    /// tombstones (each slab's precomputed local mask), so `req.deleted` —
    /// which speaks the base index's global ids — is not consulted. Returned
    /// ids are global; the caller merges them with the base index's hits
    /// through the same selector, so the combined result is deterministic.
    pub fn search_wave(&self, req: &SearchRequest<'_>) -> Vec<BudgetedSearch> {
        let nq = req.members(self.dim).len();
        search_segments(&Pool::global(), &self.slabs, nq, req.k, |slab| {
            let mut wave = slab.index.search_wave(&SearchRequest {
                deleted: Some(&slab.dead),
                ..*req
            });
            for n in wave.iter_mut().flat_map(|r| &mut r.hits) {
                n.id = slab.ids[n.id as usize];
            }
            wave
        })
    }

    /// [`LiveView::search_wave`] for a wave of one.
    pub fn search(&self, query: &[f32], k: usize, budget: &Budget) -> BudgetedSearch {
        let req = SearchRequest::one(query, k, budget);
        self.search_wave(&req).pop().expect("one member, one result")
    }
}

struct Inner {
    wal: Wal,
    manifest: Manifest,
    mem: Vec<LiveRow>,
    segments: Vec<Segment>,
    tombs: TombSet,
    /// True when the journal holds records not yet covered by the
    /// manifest (i.e. a flush would change durable state).
    dirty: bool,
}

/// Channel a blocked mutator waits on for its commit acknowledgement.
type Done = mpsc::Sender<io::Result<MutateOutcome>>;

/// A mutation waiting for a group-commit leader. The expensive half of an
/// ingest (embedding every cell) is already done — it happens *outside*
/// the mutation lock — so what queues here is cheap to commit.
enum PendingOp {
    Add {
        title: String,
        columns: Vec<(String, Vec<String>)>,
        /// Pre-embedded rows; ids are placeholders until the leader
        /// allocates them in journal order.
        rows: Vec<LiveRow>,
    },
    Drop {
        title: String,
        base_ids: Vec<u32>,
    },
}

/// One queued mutation plus the channel its caller blocks on.
struct Pending {
    op: PendingOp,
    done: Done,
}

/// A [`PendingOp`] resolved against the lake state at commit time: ids
/// allocated / tombstones enumerated, journal body encoded.
enum ResolvedOp {
    Add { rows: Vec<LiveRow> },
    Drop { ids: Vec<u32> },
}

/// `io::Error` is not `Clone`; a batch-wide failure must still reach
/// every waiter, so rebuild an equivalent error per recipient.
fn clone_io_err(e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), e.to_string())
}

/// Enumerate every un-tombstoned id belonging to `title`: base columns
/// come pre-resolved from the caller (the lake has no base catalog),
/// live columns are found by title in sealed segments and the memtable.
fn resolve_drop(inner: &Inner, title: &str, base_ids: &[u32]) -> Vec<u32> {
    let mut ids: Vec<u32> = Vec::new();
    for &b in base_ids {
        if b < inner.manifest.base_len && !inner.tombs.contains(b) {
            ids.push(b);
        }
    }
    for seg in &inner.segments {
        for (i, &id) in seg.ids.iter().enumerate() {
            if seg.labels[i].0 == title && !inner.tombs.contains(id) {
                ids.push(id);
            }
        }
    }
    for r in &inner.mem {
        if r.table == title && !inner.tombs.contains(r.id) {
            ids.push(r.id);
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Acknowledgement of a durably journaled mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutateOutcome {
    /// Journal sequence number of the committed record.
    pub seq: u64,
    /// Columns added, or ids tombstoned.
    pub applied: u64,
}

/// Operator-facing gauges for `dj ctl stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveLakeStats {
    /// Flushed segment files.
    pub segments: u32,
    /// Journal size on disk.
    pub wal_bytes: u64,
    /// Tombstoned ids not yet physically dropped by compaction.
    pub pending_tombstones: u64,
    /// Surviving live (non-base) rows.
    pub live_rows: u64,
}

/// A live lake opened with [`LiveLake::open`], plus its recovery warnings.
pub struct LiveOpen {
    /// The mutable live lake.
    pub lake: Arc<LiveLake>,
    /// Non-fatal recovery notes (torn journal tail dropped, unreadable
    /// tombstone bitmap, orphan segments swept, ...).
    pub warnings: Vec<String>,
}

/// The mutable live half of a serving lake. All mutations are serialized
/// behind one lock and follow write-ahead discipline: the journal append
/// (or the manifest rename) is the commit point, and in-memory state only
/// changes after the bytes are durable.
pub struct LiveLake {
    io: SharedIo,
    dir: PathBuf,
    dim: usize,
    metric: Metric,
    fingerprint: u64,
    flush_rows: usize,
    inner: Mutex<Inner>,
    view: Mutex<Arc<LiveView>>,
    /// Group-commit queue: mutations enqueue here, then race for the
    /// `inner` lock; whoever wins drains the whole queue and journals it
    /// with ONE batched append (= one fsync), so N concurrent mutations
    /// cost far fewer than N fsyncs under load.
    pending: Mutex<Vec<Pending>>,
}

impl LiveLake {
    /// Open (or create) the live directory `dir`, recovering whatever a
    /// previous process committed: load the manifest and its segments,
    /// replay the journal tail (`seq > applied_seq`) into the memtable by
    /// re-embedding the journaled columns under `model` (embedding is
    /// deterministic, so replayed vectors are byte-identical to the
    /// originals), and sweep orphan segment files left by a crash between
    /// a segment write and its manifest commit.
    pub fn open(io: SharedIo, dir: PathBuf, model: &DeepJoin) -> io::Result<LiveOpen> {
        Self::open_with_flush_rows(io, dir, model, DEFAULT_FLUSH_ROWS)
    }

    /// [`LiveLake::open`] with an explicit memtable auto-flush threshold.
    pub fn open_with_flush_rows(
        io: SharedIo,
        dir: PathBuf,
        model: &DeepJoin,
        flush_rows: usize,
    ) -> io::Result<LiveOpen> {
        let mut warnings = Vec::new();
        let fingerprint = model_fingerprint(model);
        let base_len = model.indexed_len() as u32;
        let dim = model.config().dim;
        let metric = model.config().hnsw.metric;

        // Manifest: the single source of truth for flushed state. A
        // damaged manifest degrades to journal-only recovery (flushed
        // segments are unreachable without it); a damaged TOMB section
        // degrades to serving without deletes.
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest = Manifest::fresh(fingerprint, base_len);
        let mut tombs = TombSet::new();
        if io.exists(&manifest_path) {
            let bytes = io.read(&manifest_path)?;
            match decode_manifest(&bytes) {
                Ok((m, t, mut w)) => {
                    if m.fingerprint != fingerprint {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "live directory {} belongs to a different model \
                                 (fingerprint {:#018x}, this model is {:#018x}); \
                                 serve the original model or use a fresh --live directory",
                                dir.display(),
                                m.fingerprint,
                                fingerprint
                            ),
                        ));
                    }
                    warnings.append(&mut w);
                    if let Some(t) = t {
                        tombs = t;
                    }
                    manifest = m;
                }
                Err(e) => warnings.push(format!(
                    "live manifest unreadable ({e}); recovering from the journal alone — \
                     previously flushed segments are not reachable"
                )),
            }
        }

        // Load the segments the manifest vouches for. An unreadable
        // segment loses its rows but never the lake.
        let mut segments = Vec::new();
        let mut metas = Vec::new();
        for meta in std::mem::take(&mut manifest.segments) {
            match load_segment(&io, &dir.join(&meta.file), dim, metric) {
                Ok(seg) => {
                    segments.push(seg);
                    metas.push(meta);
                }
                Err(e) => warnings.push(format!(
                    "live segment {} unreadable ({e}); its rows are lost",
                    meta.file
                )),
            }
        }
        manifest.segments = metas;

        // Journal: replay the un-flushed tail into the memtable. Records
        // at or below the manifest watermark are already reflected in the
        // segments/tombstones (a crash between the manifest rename and the
        // journal reset leaves them behind) and must not double-apply.
        let WalOpen {
            wal,
            records,
            warnings: wal_warnings,
        } = Wal::open(io.clone(), dir.join(WAL_FILE), fingerprint)?;
        warnings.extend(wal_warnings);
        let mut mem: Vec<LiveRow> = Vec::new();
        let mut dirty = false;
        for rec in records {
            if rec.seq <= manifest.applied_seq {
                continue;
            }
            match decode_record(&rec.body) {
                Ok(WalOp::AddTable {
                    title,
                    first_id,
                    columns,
                }) => {
                    for (i, (name, cells)) in columns.iter().enumerate() {
                        mem.push(LiveRow::embed(model, first_id + i as u32, &title, name, cells));
                    }
                    manifest.next_id = manifest.next_id.max(first_id + columns.len() as u32);
                    dirty = true;
                }
                Ok(WalOp::DropTable { ids }) => {
                    for id in ids {
                        tombs.insert(id);
                    }
                    dirty = true;
                }
                Err(e) => {
                    warnings.push(format!(
                        "journal record {} undecodable ({e}); replay stops at the committed prefix",
                        rec.seq
                    ));
                    break;
                }
            }
        }

        // Sweep orphan segment files: a crash between a segment write and
        // its manifest rename leaves a file no manifest references.
        if let Ok(files) = io.list(&dir) {
            for f in files {
                let orphan = f.starts_with("seg-")
                    && f.ends_with(".djar")
                    && !manifest.segments.iter().any(|m| m.file == f);
                if orphan {
                    warnings.push(format!(
                        "removing orphan segment {f} (crashed before its manifest commit)"
                    ));
                    let _ = io.remove(&dir.join(&f));
                }
            }
        }

        let inner = Inner {
            wal,
            manifest,
            mem,
            segments,
            tombs,
            dirty,
        };
        let view = Arc::new(build_view(&inner, dim, metric));
        let lake = Arc::new(LiveLake {
            io,
            dir,
            dim,
            metric,
            fingerprint,
            flush_rows: flush_rows.max(1),
            inner: Mutex::new(inner),
            view: Mutex::new(view),
            pending: Mutex::new(Vec::new()),
        });
        Ok(LiveOpen { lake, warnings })
    }

    /// The fingerprint of the model this directory belongs to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The current published view (cheap `Arc` clone; never blocks on
    /// mutations beyond the clone itself).
    pub fn view(&self) -> Arc<LiveView> {
        self.view.lock().expect("live view lock").clone()
    }

    fn publish(&self, inner: &Inner) {
        let view = Arc::new(build_view(inner, self.dim, self.metric));
        *self.view.lock().expect("live view lock") = view;
    }

    /// Journal and ingest one table of columns. Committed (and therefore
    /// crash-durable) the moment its journal record is durable; visible to
    /// the very next query via the republished view. Returns the journal
    /// sequence number and the number of columns added.
    ///
    /// Embedding happens *before* the mutation lock, and concurrent
    /// mutations group-commit: the journal appends of every mutation
    /// queued while a commit is in flight coalesce into one batched
    /// append — one fsync — without weakening durability (no mutation is
    /// acknowledged before its record is on disk).
    pub fn add_table(
        &self,
        model: &DeepJoin,
        title: &str,
        columns: &[(String, Vec<String>)],
    ) -> io::Result<MutateOutcome> {
        if columns.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "add-table needs at least one column",
            ));
        }
        // Embed outside every lock — the expensive half of ingest no
        // longer serializes behind the mutation lock. The encoder is
        // deterministic, so replay re-derives identical vectors from the
        // journaled cells. Ids are assigned by the commit leader in
        // journal order (replay assigns `first_id + i`, so allocation
        // order and journal order must agree).
        let rows = columns
            .iter()
            .map(|(name, cells)| LiveRow::embed(model, 0, title, name, cells)) // ids: at commit
            .collect();
        self.commit(PendingOp::Add {
            title: title.to_string(),
            columns: columns.to_vec(),
            rows,
        })
    }

    /// Journal and apply a table drop. The ids are resolved at commit
    /// time (base columns via `base_ids`, live columns by title) and
    /// journaled resolved, so replay can never re-resolve against a
    /// different state. Effective on the next query; physically reclaimed
    /// by compaction.
    pub fn drop_table(&self, title: &str, base_ids: &[u32]) -> io::Result<MutateOutcome> {
        self.commit(PendingOp::Drop {
            title: title.to_string(),
            base_ids: base_ids.to_vec(),
        })
    }

    /// Group-commit entry: enqueue the op, then race for the mutation
    /// lock. The winner (leader) drains the whole queue — its own op plus
    /// everything that piled up while the previous leader was fsyncing —
    /// and commits it as one batch; losers find their op already durable
    /// and just collect the outcome. Lock order is always queue → inner
    /// with the queue lock released in between, so there is no inversion.
    fn commit(&self, op: PendingOp) -> io::Result<MutateOutcome> {
        let (done, outcome) = mpsc::channel();
        self.pending
            .lock()
            .expect("commit queue lock")
            .push(Pending { op, done });
        {
            let mut inner = self.inner.lock().expect("live lake lock");
            let batch: Vec<Pending> =
                std::mem::take(&mut *self.pending.lock().expect("commit queue lock"));
            if !batch.is_empty() {
                self.commit_batch(&mut inner, batch);
            }
        }
        outcome
            .recv()
            .unwrap_or_else(|_| Err(io::Error::other("commit leader vanished")))
    }

    /// Resolve, journal (one batched append = one fsync), and apply a
    /// group of mutations, then publish once and acknowledge every
    /// waiter. Resolution happens against the state all earlier commits
    /// left behind — racing mutations carry no ordering promise beyond
    /// "journal order is apply order", which batch seqs preserve.
    fn commit_batch(&self, inner: &mut Inner, batch: Vec<Pending>) {
        // Tentative id cursor: advanced during resolution, written back
        // to the manifest only once the batched append has made every
        // allocation durable.
        let mut next_id = inner.manifest.next_id;
        let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(batch.len());
        let mut resolved: Vec<(Done, io::Result<ResolvedOp>)> = Vec::with_capacity(batch.len());
        for Pending { op, done } in batch {
            let res = match op {
                PendingOp::Add {
                    title,
                    columns,
                    mut rows,
                } => {
                    if ((u32::MAX - next_id) as usize) < columns.len() {
                        Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "live id space exhausted",
                        ))
                    } else {
                        let first_id = next_id;
                        next_id += columns.len() as u32;
                        for (i, r) in rows.iter_mut().enumerate() {
                            r.id = first_id + i as u32;
                        }
                        bodies.push(encode_add(&title, first_id, &columns));
                        Ok(ResolvedOp::Add { rows })
                    }
                }
                PendingOp::Drop { title, base_ids } => {
                    // Resolved against committed state: two drops of the
                    // same table in one batch journal the same ids, and
                    // tombstone inserts keep the double-apply idempotent —
                    // exactly what replaying both records would do.
                    let ids = resolve_drop(inner, &title, &base_ids);
                    if ids.is_empty() {
                        Err(io::Error::new(
                            io::ErrorKind::NotFound,
                            format!("no live or indexed columns belong to table '{title}'"),
                        ))
                    } else {
                        bodies.push(encode_drop(&title, &ids));
                        Ok(ResolvedOp::Drop { ids })
                    }
                }
            };
            resolved.push((done, res));
        }

        if bodies.is_empty() {
            // Every op failed resolution; nothing reached the journal.
            for (done, res) in resolved {
                let _ = done.send(res.map(|_| MutateOutcome { seq: 0, applied: 0 }));
            }
            return;
        }

        // THE commit point for the whole group: one append, one fsync.
        let first_seq = match inner.wal.append_batch(&bodies) {
            Ok(seq) => seq,
            Err(e) => {
                for (done, res) in resolved {
                    let _ = done.send(match res {
                        Ok(_) => Err(clone_io_err(&e)),
                        Err(own) => Err(own),
                    });
                }
                return;
            }
        };
        inner.manifest.next_id = next_id;

        // Apply in journal order, handing out consecutive seqs — replay
        // assigns ids and seqs in record order, so apply must match.
        let mut seq = first_seq;
        let mut acks: Vec<(Done, io::Result<MutateOutcome>)> = Vec::with_capacity(resolved.len());
        for (done, res) in resolved {
            match res {
                Ok(ResolvedOp::Add { mut rows }) => {
                    let applied = rows.len() as u64;
                    inner.mem.append(&mut rows);
                    inner.dirty = true;
                    acks.push((done, Ok(MutateOutcome { seq, applied })));
                    seq += 1;
                }
                Ok(ResolvedOp::Drop { ids }) => {
                    let applied = ids.len() as u64;
                    for id in ids {
                        inner.tombs.insert(id);
                    }
                    inner.dirty = true;
                    acks.push((done, Ok(MutateOutcome { seq, applied })));
                    seq += 1;
                }
                Err(e) => acks.push((done, Err(e))),
            }
        }

        // One conditional flush and one view publish for the whole group.
        // A flush failure is reported to every member (matching the
        // single-op behavior of old releases): their records ARE durable,
        // but the lake could not seal them into a segment.
        let flush_err = if inner.mem.len() >= self.flush_rows {
            self.flush_locked(inner).err()
        } else {
            None
        };
        self.publish(inner);
        for (done, result) in acks {
            let result = match (&flush_err, result) {
                (Some(e), Ok(_)) => Err(clone_io_err(e)),
                (_, r) => r,
            };
            let _ = done.send(result);
        }
    }

    /// Flush the memtable into an immutable segment and advance the
    /// manifest watermark. Ordering is the whole point:
    ///
    /// 1. write the segment file (atomic rename; a crash here leaves an
    ///    orphan the next open sweeps);
    /// 2. rewrite the manifest referencing it with `applied_seq` advanced
    ///    (atomic rename — THE commit point of the flush);
    /// 3. reset the journal (advisory: a crash before this leaves stale
    ///    records that replay skips via the watermark).
    ///
    /// Returns false when there was nothing to flush.
    pub fn flush(&self) -> io::Result<bool> {
        let mut inner = self.inner.lock().expect("live lake lock");
        let did = self.flush_locked(&mut inner)?;
        if did {
            self.publish(&inner);
        }
        Ok(did)
    }

    fn flush_locked(&self, inner: &mut Inner) -> io::Result<bool> {
        if !inner.dirty {
            return Ok(false);
        }
        let mut manifest = inner.manifest.clone();
        let mut new_seg = None;
        if !inner.mem.is_empty() {
            let file = format!("seg-{:06}.djar", manifest.next_seg);
            manifest.next_seg += 1;
            self.io
                .write_atomic(
                    &self.dir.join(&file),
                    &encode_segment(&inner.mem, self.dim, self.metric),
                )?;
            manifest.segments.push(SegmentMeta {
                file: file.clone(),
                rows: inner.mem.len() as u32,
            });
            new_seg = Some(Segment::build(&inner.mem, self.dim, self.metric));
        }
        manifest.applied_seq = inner.wal.next_seq().saturating_sub(1);
        self.io.write_atomic(
            &self.dir.join(MANIFEST_FILE),
            &encode_manifest(&manifest, &inner.tombs),
        )?;
        // The manifest rename landed: commit to memory before the
        // advisory journal reset, so an error below cannot tear state.
        if let Some(seg) = new_seg {
            inner.segments.push(seg);
        }
        inner.mem.clear();
        let applied = manifest.applied_seq;
        inner.manifest = manifest;
        inner.dirty = false;
        inner.wal.reset(applied)?;
        Ok(true)
    }

    /// Merge all flushed segments into one, physically dropping
    /// tombstoned rows, and prune tombstones that no longer cover any
    /// stored row. The new segment is written first, then the manifest
    /// rename commits the swap; old segment files are removed best-effort
    /// afterwards (a crash in between leaves unreferenced files the next
    /// open sweeps). Returns false when compaction would change nothing.
    pub fn compact(&self) -> io::Result<bool> {
        let mut inner = self.inner.lock().expect("live lake lock");
        let dead_in_segs = inner
            .segments
            .iter()
            .any(|s| s.ids.iter().any(|&id| inner.tombs.contains(id)));
        if inner.segments.len() < 2 && !dead_in_segs {
            return Ok(false);
        }
        let mut rows = Vec::new();
        for seg in &inner.segments {
            for (i, &id) in seg.ids.iter().enumerate() {
                if inner.tombs.contains(id) {
                    continue;
                }
                let (t, c) = &seg.labels[i];
                rows.push(LiveRow {
                    id,
                    table: t.clone(),
                    column: c.clone(),
                    embedding: seg.index.vector(i as u32).to_vec(),
                });
            }
        }
        let mut manifest = inner.manifest.clone();
        let old_files: Vec<String> = manifest.segments.iter().map(|s| s.file.clone()).collect();
        manifest.segments.clear();
        let mut new_seg = None;
        if !rows.is_empty() {
            let file = format!("seg-{:06}.djar", manifest.next_seg);
            manifest.next_seg += 1;
            self.io
                .write_atomic(
                    &self.dir.join(&file),
                    &encode_segment(&rows, self.dim, self.metric),
                )?;
            manifest.segments.push(SegmentMeta {
                file: file.clone(),
                rows: rows.len() as u32,
            });
            new_seg = Some(Segment::build(&rows, self.dim, self.metric));
        }
        // Tombstones covering compacted-away rows are physically gone;
        // keep the ones that still cover stored rows (base ids, and any
        // memtable rows dropped before their first flush).
        let base_len = inner.manifest.base_len;
        let mem_ids: std::collections::HashSet<u32> = inner.mem.iter().map(|r| r.id).collect();
        let kept: TombSet = inner
            .tombs
            .iter()
            .filter(|&id| id < base_len || mem_ids.contains(&id))
            .collect();
        self.io.write_atomic(
            &self.dir.join(MANIFEST_FILE),
            &encode_manifest(&manifest, &kept),
        )?; // commit point
        inner.segments = new_seg.into_iter().collect();
        inner.manifest = manifest;
        inner.tombs = kept;
        for f in old_files {
            let _ = self.io.remove(&self.dir.join(&f));
        }
        self.publish(&inner);
        Ok(true)
    }

    /// Operator gauges for `dj ctl stats`.
    pub fn stats(&self) -> LiveLakeStats {
        let inner = self.inner.lock().expect("live lake lock");
        let live_rows = inner
            .segments
            .iter()
            .flat_map(|s| s.ids.iter())
            .chain(inner.mem.iter().map(|r| &r.id))
            .filter(|&&id| !inner.tombs.contains(id))
            .count() as u64;
        LiveLakeStats {
            segments: inner.segments.len() as u32,
            wal_bytes: inner.wal.size_bytes(),
            pending_tombstones: inner.tombs.len() as u64,
            live_rows,
        }
    }

    /// Spawn the background compactor: every `interval` it merges the
    /// flushed segments when there are at least `min_segments` of them or
    /// any of them carries tombstoned rows. The thread holds only a weak
    /// reference, so dropping the lake (or the returned handle) stops it.
    pub fn spawn_compactor(
        self: &Arc<Self>,
        interval: Duration,
        min_segments: usize,
    ) -> Compactor {
        let stop = Arc::new(AtomicBool::new(false));
        let weak = Arc::downgrade(self);
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || loop {
            // Parked, not polling: `Compactor::halt` unparks this thread,
            // so stopping never waits out a tick.
            let deadline = Instant::now() + interval;
            loop {
                if stop_flag.load(Ordering::SeqCst) {
                    return;
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                std::thread::park_timeout(left);
            }
            let Some(lake) = weak.upgrade() else { return };
            let worth = {
                let inner = lake.inner.lock().expect("live lake lock");
                inner.segments.len() >= min_segments.max(2)
                    || inner
                        .segments
                        .iter()
                        .any(|s| s.ids.iter().any(|&id| inner.tombs.contains(id)))
            };
            if worth {
                if let Err(e) = lake.compact() {
                    eprintln!("warning: background compaction failed (will retry): {e}");
                }
            }
        });
        Compactor {
            stop,
            handle: Some(handle),
        }
    }
}

fn build_view(inner: &Inner, dim: usize, metric: Metric) -> LiveView {
    let mut slabs: Vec<Slab> = inner
        .segments
        .iter()
        .map(|seg| Slab {
            ids: seg.ids.clone(),
            labels: seg.labels.clone(),
            index: seg.index.clone(),
            dead: Arc::new(local_dead(&seg.ids, &inner.tombs)),
        })
        .collect();
    if !inner.mem.is_empty() {
        let seg = Segment::build(&inner.mem, dim, metric);
        slabs.push(Slab {
            dead: Arc::new(local_dead(&seg.ids, &inner.tombs)),
            ids: seg.ids,
            labels: seg.labels,
            index: seg.index,
        });
    }
    LiveView {
        dim,
        base_len: inner.manifest.base_len,
        tombs: inner.tombs.clone(),
        slabs,
    }
}

/// Handle for the background compaction thread; stops (and joins) it on
/// [`Compactor::stop`] or drop.
pub struct Compactor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Stop and join the compactor thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepjoin_ann::index::Neighbor;
    use deepjoin_store::StdIo;

    fn test_rows(n: usize, dim: usize) -> Vec<LiveRow> {
        (0..n)
            .map(|i| {
                let mut v: Vec<f32> = (0..dim)
                    .map(|d| ((i * 31 + d * 7 + 3) % 17) as f32 - 8.0)
                    .collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                v.iter_mut().for_each(|x| *x /= norm);
                LiveRow {
                    id: 100 + i as u32,
                    table: format!("t{}", i / 3),
                    column: format!("c{i}"),
                    embedding: v,
                }
            })
            .collect()
    }

    fn query(dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|d| ((d * 5 + 1) % 11) as f32 - 5.0).collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= norm);
        v
    }

    fn seg_hits(seg: &Segment, q: &[f32], k: usize) -> Vec<Neighbor> {
        seg.index.search(q, k)
    }

    #[test]
    fn segment_roundtrips_heap_and_mapped_byte_identically() {
        let (dim, metric) = (8, Metric::Cosine);
        let rows = test_rows(17, dim);
        let built = Segment::build(&rows, dim, metric);
        let bytes = encode_segment(&rows, dim, metric);

        let heap = decode_segment_loaded(&bytes, None, dim, metric).unwrap();
        assert!(!heap.index.is_mapped());

        let owner: ByteOwner = Arc::new(bytes.clone());
        let mapped = decode_segment_loaded(&bytes, Some(&owner), dim, metric).unwrap();
        assert!(mapped.index.is_mapped());

        let q = query(dim);
        let want = seg_hits(&built, &q, 5);
        for seg in [&heap, &mapped] {
            assert_eq!(*seg.ids, *built.ids);
            assert_eq!(*seg.labels, *built.labels);
            assert!(seg.index.unit_norm());
            let got = seg_hits(seg, &q, 5);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                assert_eq!(g.distance.to_bits(), w.distance.to_bits());
            }
        }
    }

    #[test]
    fn load_segment_maps_real_files_and_heap_falls_back_for_mem_io() {
        let (dim, metric) = (4, Metric::L2);
        let rows = test_rows(5, dim);
        let bytes = encode_segment(&rows, dim, metric);

        let dir = std::env::temp_dir().join(format!("dj-live-map-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-000000.djar");
        std::fs::write(&path, &bytes).unwrap();
        let io: SharedIo = Arc::new(StdIo);
        let seg = load_segment(&io, &path, dim, metric).unwrap();
        assert!(seg.index.is_mapped(), "real file should load zero-copy");
        let _ = std::fs::remove_dir_all(&dir);

        // A MemIo "file" has no real backing path: the loader must fall
        // back to the io-mediated heap read, not fail.
        let mem: SharedIo = Arc::new(deepjoin_store::MemIo::new());
        let vpath = PathBuf::from("virtual/seg-000001.djar");
        mem.write_atomic(&vpath, &bytes).unwrap();
        let seg = load_segment(&mem, &vpath, dim, metric).unwrap();
        assert!(!seg.index.is_mapped());
        assert_eq!(*seg.ids, (100..105).collect::<Vec<u32>>());
    }

    #[test]
    fn corrupt_segment_errors_instead_of_panicking() {
        let (dim, metric) = (4, Metric::Cosine);
        let rows = test_rows(6, dim);
        let good = encode_segment(&rows, dim, metric);
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            // Either a structured error or a decode that still validates —
            // never a panic, never silently inconsistent lengths.
            if let Ok(seg) = decode_segment_loaded(&bad, None, dim, metric) {
                assert_eq!(seg.ids.len(), seg.labels.len());
                assert_eq!(seg.index.len(), seg.ids.len());
            }
        }
    }

    /// A flushed segment's bytes, pinned: the container and `DJF2` writers
    /// must keep producing this exact image.
    #[test]
    fn segment_bytes_are_pinned() {
        let bytes = encode_segment(&test_rows(17, 8), 8, Metric::Cosine);
        let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
        assert_eq!(fnv1a, 0xa4e6_7146_8cb8_eae3);
    }
}
