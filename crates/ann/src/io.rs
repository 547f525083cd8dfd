//! Binary persistence for the flat and HNSW indexes.
//!
//! Built on the `deepjoin-store` codec: little-endian, length-prefixed,
//! with a magic header and version byte per payload. Indexes are large and
//! numeric, so a dense custom codec is the *right* tool — no intermediate
//! tree, one pass in, one pass out.
//!
//! Three payload kinds live here:
//!
//! * `DJF1` — a flat (exact) index: metric, dim, row-major vectors;
//! * `DJH1` — a self-contained HNSW index (config + vectors + graph), the
//!   v1 on-disk format, still read and written for standalone index files;
//! * `DJG1` — the HNSW *graph only* (config + adjacency, no vectors), used
//!   by the sectioned model container so the vectors can live in their own
//!   checksummed section and survive graph corruption.
//!
//! Every decoder is total: corrupt bytes yield a located [`DecodeError`],
//! never a panic — length prefixes are validated against the remaining
//! buffer before allocation, and graph structure (neighbor ids, node/vector
//! counts, degenerate configs) is validated before an index is built, since
//! an out-of-range neighbor id would otherwise panic at search time.

use deepjoin_store::codec::{DecodeErrorKind, Reader, Writer};
use deepjoin_store::SECTION_ALIGN;
pub use deepjoin_store::DecodeError;

use crate::distance::Metric;
use crate::flat::FlatIndex;
use crate::graph::Graph;
use crate::hnsw::{HnswConfig, HnswIndex};
use crate::index::VectorIndex;
use crate::plane::{ByteOwner, PodVec};
use crate::sq8::Sq8Plane;
use crate::tombstones::TombSet;

/// Magic bytes of a flat-index payload.
pub const MAGIC_FLAT: &[u8; 4] = b"DJF1";
/// Magic bytes of a self-contained HNSW payload.
pub const MAGIC_HNSW: &[u8; 4] = b"DJH1";
/// Magic bytes of a graph-only HNSW payload.
pub const MAGIC_HNSW_GRAPH: &[u8; 4] = b"DJG1";
/// Magic bytes of an SQ8 quantized-plane payload.
pub const MAGIC_SQ8: &[u8; 4] = b"DJQ1";
/// Magic bytes of a tombstone-bitmap payload.
pub const MAGIC_TOMBS: &[u8; 4] = b"DJT1";
const VERSION: u8 = 1;

fn metric_tag(m: Metric) -> u8 {
    match m {
        Metric::L2 => 0,
        Metric::InnerProduct => 1,
        Metric::Cosine => 2,
    }
}

fn metric_from(r: &Reader<'_>, tag: u8) -> Result<Metric, DecodeError> {
    match tag {
        0 => Ok(Metric::L2),
        1 => Ok(Metric::InnerProduct),
        2 => Ok(Metric::Cosine),
        other => Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
    }
}

/// Serialize a [`FlatIndex`].
pub fn encode_flat(index: &FlatIndex) -> Vec<u8> {
    let mut out = Writer::with_capacity(32 + index.len() * index.dim() * 4);
    out.put_slice(MAGIC_FLAT);
    out.put_u8(VERSION);
    out.put_u8(metric_tag(index.metric()));
    out.put_u64_le(index.dim() as u64);
    out.put_u64_le(index.len() as u64);
    for id in 0..index.len() as u32 {
        for &x in index.vector(id) {
            out.put_f32_le(x);
        }
    }
    out.into_vec()
}

/// Deserialize a [`FlatIndex`], attributing errors to `section`.
pub fn decode_flat_in(buf: &[u8], section: &'static str) -> Result<FlatIndex, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_FLAT)?;
    r.expect_version(VERSION)?;
    let metric = {
        let tag = r.u8()?;
        metric_from(&r, tag)?
    };
    let dim = r.u64_le()? as usize;
    if dim == 0 {
        return Err(r.error(DecodeErrorKind::Invalid("flat index dim must be positive")));
    }
    let n = r.count(dim.saturating_mul(4))?;
    let mut index = FlatIndex::new(dim, metric);
    let mut row = vec![0f32; dim];
    for _ in 0..n {
        for x in &mut row {
            *x = r.f32_le()?;
        }
        index.add(&row);
    }
    Ok(index)
}

/// Deserialize a [`FlatIndex`].
pub fn decode_flat(buf: &[u8]) -> Result<FlatIndex, DecodeError> {
    decode_flat_in(buf, "FLAT")
}

fn put_hnsw_config(out: &mut Writer, config: &HnswConfig) {
    out.put_u64_le(config.m as u64);
    out.put_u64_le(config.m0 as u64);
    out.put_u64_le(config.ef_construction as u64);
    out.put_u64_le(config.ef_search as u64);
    out.put_u8(metric_tag(config.metric));
    out.put_u64_le(config.seed);
}

fn get_hnsw_config(r: &mut Reader<'_>) -> Result<HnswConfig, DecodeError> {
    let m = r.u64_le()? as usize;
    let m0 = r.u64_le()? as usize;
    let ef_construction = r.u64_le()? as usize;
    let ef_search = r.u64_le()? as usize;
    let metric = {
        let tag = r.u8()?;
        metric_from(r, tag)?
    };
    let seed = r.u64_le()?;
    if m < 2 {
        // `level_mult = 1/ln(m)` would be infinite or negative, which turns
        // level sampling into unbounded allocations on the next insert.
        return Err(r.error(DecodeErrorKind::Invalid("HNSW M must be at least 2")));
    }
    // Cap the tuning knobs at values far beyond any sane configuration:
    // they size allocations and search frontiers, so a corrupt high byte
    // would otherwise turn the first insert or search into an OOM or a
    // near-infinite loop rather than a clean decode error.
    const MAX_KNOB: usize = 1 << 20;
    if m > MAX_KNOB || m0 > MAX_KNOB || ef_construction > MAX_KNOB || ef_search > MAX_KNOB {
        return Err(r.error(DecodeErrorKind::Invalid(
            "HNSW config parameter implausibly large",
        )));
    }
    Ok(HnswConfig {
        m,
        m0,
        ef_construction,
        ef_search,
        metric,
        seed,
    })
}

/// The graph state shared by the `DJH1` and `DJG1` payloads.
struct GraphParts {
    config: HnswConfig,
    dim: usize,
    max_level: usize,
    rng_state: u64,
    entry: Option<u32>,
    nodes: Vec<Vec<Vec<u32>>>,
}

fn put_entry(out: &mut Writer, entry: Option<u32>) {
    match entry {
        Some(e) => {
            out.put_u8(1);
            out.put_u32_le(e);
        }
        None => out.put_u8(0),
    }
}

/// v1 nested adjacency: node count, then per node the level count and each
/// layer's length-prefixed out-list. Works off the [`Graph`] accessors, so
/// a CSR-backed (even mapped) index re-encodes to identical bytes.
fn put_adjacency(out: &mut Writer, graph: &Graph) {
    out.put_u64_le(graph.len() as u64);
    for id in 0..graph.len() as u32 {
        let levels = graph.level_count(id);
        out.put_u32_le(levels as u32);
        for level in 0..levels {
            let nbrs = graph.neighbors(id, level);
            out.put_u32_le(nbrs.len() as u32);
            for &n in nbrs {
                out.put_u32_le(n);
            }
        }
    }
}

/// Header shared by `DJH1` and `DJG1`: config, dim, max_level, rng state,
/// entry point.
fn get_graph_header(
    r: &mut Reader<'_>,
) -> Result<(HnswConfig, usize, usize, u64, Option<u32>), DecodeError> {
    let config = get_hnsw_config(r)?;
    let dim = r.u64_le()? as usize;
    let max_level = r.u64_le()? as usize;
    let rng_state = r.u64_le()?;
    let entry = match r.u8()? {
        0 => None,
        1 => Some(r.u32_le()?),
        other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
    };
    Ok((config, dim, max_level, rng_state, entry))
}

/// Per-node adjacency lists, validating every neighbor id against the node
/// count so a decoded graph can never index out of range at search time.
fn get_nodes(r: &mut Reader<'_>) -> Result<Vec<Vec<Vec<u32>>>, DecodeError> {
    // Each node costs at least 4 bytes (its level count), which bounds how
    // many a well-formed remainder can hold.
    let num_nodes = r.count(4)?;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let levels = r.count_u32(4)?;
        let mut node = Vec::with_capacity(levels);
        for _ in 0..levels {
            let deg = r.count_u32(4)?;
            let mut nbrs = Vec::with_capacity(deg);
            for _ in 0..deg {
                let nb = r.u32_le()?;
                if nb as usize >= num_nodes {
                    return Err(r.error(DecodeErrorKind::Invalid(
                        "neighbor id out of range for node count",
                    )));
                }
                nbrs.push(nb);
            }
            node.push(nbrs);
        }
        nodes.push(node);
    }
    Ok(nodes)
}

/// Serialize an [`HnswIndex`] including vectors and graph (`DJH1`).
pub fn encode_hnsw(index: &HnswIndex) -> Vec<u8> {
    let graph = index.graph();
    let mut out = Writer::with_capacity(96 + index.vectors().len() * 4 + graph.len() * 16);
    out.put_slice(MAGIC_HNSW);
    out.put_u8(VERSION);
    put_hnsw_config(&mut out, index.config());
    out.put_u64_le(index.dim() as u64);
    out.put_u64_le(index.max_level() as u64);
    out.put_u64_le(index.rng_state());
    put_entry(&mut out, index.entry());
    out.put_f32s(index.vectors());
    put_adjacency(&mut out, graph);
    out.into_vec()
}

/// Deserialize a `DJH1` [`HnswIndex`], attributing errors to `section`.
pub fn decode_hnsw_in(buf: &[u8], section: &'static str) -> Result<HnswIndex, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_HNSW)?;
    r.expect_version(VERSION)?;
    let (config, dim, max_level, rng_state, entry) = get_graph_header(&mut r)?;
    let vectors = r.f32s()?;
    let nodes = get_nodes(&mut r)?;
    assemble_hnsw(
        &r,
        GraphParts {
            config,
            dim,
            max_level,
            rng_state,
            entry,
            nodes,
        },
        vectors,
    )
}

/// Deserialize a `DJH1` [`HnswIndex`].
pub fn decode_hnsw(buf: &[u8]) -> Result<HnswIndex, DecodeError> {
    decode_hnsw_in(buf, "HNSW")
}

/// Serialize only the graph half of an [`HnswIndex`] (`DJG1`). Pair with a
/// separately stored vector payload (see [`decode_hnsw_graph`]).
pub fn encode_hnsw_graph(index: &HnswIndex) -> Vec<u8> {
    let graph = index.graph();
    let mut out = Writer::with_capacity(96 + graph.len() * 16);
    out.put_slice(MAGIC_HNSW_GRAPH);
    out.put_u8(VERSION);
    put_hnsw_config(&mut out, index.config());
    out.put_u64_le(index.dim() as u64);
    out.put_u64_le(index.max_level() as u64);
    out.put_u64_le(index.rng_state());
    put_entry(&mut out, index.entry());
    put_adjacency(&mut out, graph);
    out.into_vec()
}

/// Rebuild an [`HnswIndex`] from a `DJG1` graph payload plus the vectors it
/// indexes (row-major, `nodes * dim`). Fails — rather than building an
/// index that would panic at search time — when the graph and vectors
/// disagree on shape.
pub fn decode_hnsw_graph(
    buf: &[u8],
    section: &'static str,
    vectors: Vec<f32>,
) -> Result<HnswIndex, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_HNSW_GRAPH)?;
    r.expect_version(VERSION)?;
    let (config, dim, max_level, rng_state, entry) = get_graph_header(&mut r)?;
    let nodes = get_nodes(&mut r)?;
    assemble_hnsw(
        &r,
        GraphParts {
            config,
            dim,
            max_level,
            rng_state,
            entry,
            nodes,
        },
        vectors,
    )
}

/// Serialize an [`Sq8Plane`] (`DJQ1`): dim, row count, per-dim scale and
/// offset, dequantized row norms, then the raw row-major codes.
pub fn encode_sq8(plane: &Sq8Plane) -> Vec<u8> {
    let dim = plane.dim();
    let n = plane.len();
    let mut out = Writer::with_capacity(24 + dim * 8 + n * 4 + n * dim);
    out.put_slice(MAGIC_SQ8);
    out.put_u8(VERSION);
    out.put_u64_le(dim as u64);
    out.put_u64_le(n as u64);
    for &s in plane.scale() {
        out.put_f32_le(s);
    }
    for &o in plane.offset() {
        out.put_f32_le(o);
    }
    for &rn in plane.row_norms() {
        out.put_f32_le(rn);
    }
    out.put_slice(plane.codes());
    out.into_vec()
}

/// Deserialize an [`Sq8Plane`], attributing errors to `section`. The
/// payload size is validated against the header *before* any allocation, so
/// a corrupt row count cannot trigger an OOM.
pub fn decode_sq8_in(buf: &[u8], section: &'static str) -> Result<Sq8Plane, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_SQ8)?;
    r.expect_version(VERSION)?;
    let dim = r.u64_le()? as usize;
    if dim == 0 {
        return Err(r.error(DecodeErrorKind::Invalid("SQ8 plane dim must be positive")));
    }
    let n = r.u64_le()? as usize;
    if n > u32::MAX as usize {
        return Err(r.error(DecodeErrorKind::Invalid("SQ8 row count exceeds id space")));
    }
    // scale + offset (dim f32s each) + row norms (n f32s) + codes (n·dim).
    let need = dim
        .checked_mul(8)
        .and_then(|x| n.checked_mul(4).and_then(|y| x.checked_add(y)))
        .and_then(|x| n.checked_mul(dim).and_then(|y| x.checked_add(y)));
    if need != Some(r.remaining()) {
        return Err(r.error(DecodeErrorKind::Invalid(
            "SQ8 payload size disagrees with header",
        )));
    }
    let mut scale = vec![0f32; dim];
    for s in &mut scale {
        *s = r.f32_le()?;
    }
    let mut offset = vec![0f32; dim];
    for o in &mut offset {
        *o = r.f32_le()?;
    }
    let mut row_norm = vec![0f32; n];
    for rn in &mut row_norm {
        *rn = r.f32_le()?;
    }
    let codes = r.bytes(n * dim)?.to_vec();
    Ok(Sq8Plane::from_parts(dim, scale, offset, codes, row_norm))
}

/// Deserialize an [`Sq8Plane`].
pub fn decode_sq8(buf: &[u8]) -> Result<Sq8Plane, DecodeError> {
    decode_sq8_in(buf, "SQ8")
}

/// Serialize a [`TombSet`] (`DJT1`): word count, then the raw bitset words.
pub fn encode_tombs(tombs: &TombSet) -> Vec<u8> {
    let mut out = Writer::with_capacity(16 + tombs.words().len() * 8);
    out.put_slice(MAGIC_TOMBS);
    out.put_u8(VERSION);
    out.put_u64_le(tombs.words().len() as u64);
    for &w in tombs.words() {
        out.put_u64_le(w);
    }
    out.into_vec()
}

/// Deserialize a [`TombSet`], attributing errors to `section`.
pub fn decode_tombs_in(buf: &[u8], section: &'static str) -> Result<TombSet, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_TOMBS)?;
    r.expect_version(VERSION)?;
    let n = r.count(8)?;
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(r.u64_le()?);
    }
    if !r.is_empty() {
        return Err(r.error(DecodeErrorKind::Invalid(
            "tombstone payload has trailing bytes",
        )));
    }
    Ok(TombSet::from_words(words))
}

/// Deserialize a [`TombSet`].
pub fn decode_tombs(buf: &[u8]) -> Result<TombSet, DecodeError> {
    decode_tombs_in(buf, "TOMB")
}

// ---------------------------------------------------------------------------
// v2 aligned payloads (`DJF2` / `DJQ2` / `DJG2`)
//
// The v1 payloads are element streams: decoding means re-reading every
// number through the codec and re-allocating every structure. The v2
// payloads instead place each hot array as a raw little-endian blob at a
// 64-byte-aligned offset *within the payload*; inside a v2 aligned
// container (whose section payloads start at 64-byte-aligned file offsets)
// every blob therefore lands 64-byte-aligned in a page-aligned mapping, and
// the decoders below can hand out zero-copy [`PodVec`] views instead of
// copies. Each decoder takes an optional [`MappedPayload`]; without one (or
// on a big-endian host, or when a view is refused) it decodes onto the heap
// — same numbers, same index behavior, no zero-copy.
// ---------------------------------------------------------------------------

/// Magic bytes of a v2 aligned flat-vector payload.
pub const MAGIC_FLAT_V2: &[u8; 4] = b"DJF2";
/// Magic bytes of a v2 aligned SQ8 payload.
pub const MAGIC_SQ8_V2: &[u8; 4] = b"DJQ2";
/// Magic bytes of a v2 CSR graph-only payload.
pub const MAGIC_HNSW_GRAPH_V2: &[u8; 4] = b"DJG2";

/// Where a payload lives inside a pinned byte buffer: the buffer (e.g. an
/// `Arc<Mmap>` of a whole artifact) plus the byte offset of the payload's
/// first byte within it. Lets the v2 decoders build [`PodVec`] views that
/// keep the mapping alive instead of copying.
#[derive(Clone)]
pub struct MappedPayload {
    /// The pinned buffer the payload is a sub-range of.
    pub owner: ByteOwner,
    /// Byte offset of the payload's first byte within `owner`.
    pub base: usize,
}

/// Zero-pad `out` to the next `SECTION_ALIGN` boundary (relative to the
/// payload start — the container layout aligns the payload start itself).
fn put_pad(out: &mut Writer) {
    while !out.len().is_multiple_of(SECTION_ALIGN) {
        out.put_u8(0);
    }
}

/// Consume the zero pad up to the next alignment boundary, rejecting
/// nonzero bytes (they would mean a mislaid blob, not benign padding).
fn skip_pad(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    while !r.offset().is_multiple_of(SECTION_ALIGN) {
        if r.u8()? != 0 {
            return Err(r.error(DecodeErrorKind::Invalid("nonzero padding byte")));
        }
    }
    Ok(())
}

/// View `len` elements of `T` at the reader's current offset zero-copy when
/// a mapped source allows it, else decode them onto the heap. Either way
/// the reader is advanced past the `len * size_of::<T>()` bytes.
fn take_pod_vec<T: crate::plane::Pod>(
    r: &mut Reader<'_>,
    src: Option<&MappedPayload>,
    len: usize,
) -> Result<PodVec<T>, DecodeError> {
    let offset = r.offset();
    let byte_len = len
        .checked_mul(std::mem::size_of::<T>())
        .ok_or_else(|| r.error(DecodeErrorKind::Invalid("blob length overflows")))?;
    let bytes = r.bytes(byte_len)?;
    if let Some(src) = src {
        if let Some(view) = PodVec::from_bytes(src.owner.clone(), src.base + offset, len) {
            return Ok(view);
        }
    }
    // Heap fallback. On little-endian targets the wire blob already *is*
    // the in-memory representation, so the decode is a single bulk copy —
    // at plane scale (hundreds of MB) the difference between this and a
    // per-element loop is the difference between memcpy speed and tens of
    // MB/s of bounds-checked pushes.
    #[cfg(target_endian = "little")]
    {
        let mut out: Vec<T> = Vec::with_capacity(len);
        // Safety: `bytes` holds exactly `byte_len = len * size_of::<T>()`
        // bytes, T is a sealed Pod (u8/u32/f32/u64 — every bit pattern is
        // a value), the fresh Vec is aligned for T, and byte pointers
        // carry no alignment requirement on the source.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), byte_len);
            out.set_len(len);
        }
        Ok(out.into())
    }
    #[cfg(target_endian = "big")]
    {
        let mut out = Vec::with_capacity(len);
        match std::mem::size_of::<T>() {
            1 => {
                for &b in bytes {
                    // Safety: T is u8, the only 1-byte Pod.
                    out.push(unsafe { std::mem::transmute_copy::<u8, T>(&b) });
                }
            }
            4 => {
                for c in bytes.chunks_exact(4) {
                    let raw = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                    // Safety: T is a 4-byte Pod (u32 or f32); both are plain
                    // bit patterns, so a bitwise move is the LE decode.
                    out.push(unsafe { std::mem::transmute_copy::<u32, T>(&raw) });
                }
            }
            8 => {
                for c in bytes.chunks_exact(8) {
                    let raw =
                        u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
                    // Safety: T is the 8-byte Pod (u64).
                    out.push(unsafe { std::mem::transmute_copy::<u64, T>(&raw) });
                }
            }
            _ => unreachable!("Pod is sealed to 1/4/8-byte types"),
        }
        Ok(out.into())
    }
}

/// Serialize a [`FlatIndex`] as a v2 aligned payload (`DJF2`): header, zero
/// pad to the 64-byte boundary, then the raw row-major f32 blob.
pub fn encode_flat_v2(index: &FlatIndex) -> Vec<u8> {
    let data = index.data();
    let mut out = Writer::with_capacity(SECTION_ALIGN + data.len() * 4);
    out.put_slice(MAGIC_FLAT_V2);
    out.put_u8(VERSION);
    out.put_u8(metric_tag(index.metric()));
    out.put_u64_le(index.dim() as u64);
    out.put_u64_le(index.len() as u64);
    put_pad(&mut out);
    for &x in data {
        out.put_f32_le(x);
    }
    out.into_vec()
}

/// Deserialize a `DJF2` [`FlatIndex`], zero-copy when `src` is given and
/// the blob is viewable in place.
pub fn decode_flat_v2_in(
    buf: &[u8],
    section: &'static str,
    src: Option<&MappedPayload>,
) -> Result<FlatIndex, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_FLAT_V2)?;
    r.expect_version(VERSION)?;
    let metric = {
        let tag = r.u8()?;
        metric_from(&r, tag)?
    };
    let dim = r.u64_le()? as usize;
    if dim == 0 {
        return Err(r.error(DecodeErrorKind::Invalid("flat index dim must be positive")));
    }
    let n = r.u64_le()? as usize;
    if n > u32::MAX as usize {
        return Err(r.error(DecodeErrorKind::Invalid("row count exceeds id space")));
    }
    skip_pad(&mut r)?;
    let elems = n
        .checked_mul(dim)
        .ok_or_else(|| r.error(DecodeErrorKind::Invalid("vector blob size overflows")))?;
    if r.remaining() != elems * 4 {
        return Err(r.error(DecodeErrorKind::Invalid(
            "vector payload size disagrees with header",
        )));
    }
    let data = take_pod_vec::<f32>(&mut r, src, elems)?;
    Ok(FlatIndex::from_plane(dim, metric, data))
}

/// Serialize an [`Sq8Plane`] as a v2 aligned payload (`DJQ2`): header, then
/// each array (scale, offset, row norms, codes) at its own aligned offset.
pub fn encode_sq8_v2(plane: &Sq8Plane) -> Vec<u8> {
    let dim = plane.dim();
    let n = plane.len();
    let mut out = Writer::with_capacity(4 * SECTION_ALIGN + dim * 8 + n * 4 + n * dim);
    out.put_slice(MAGIC_SQ8_V2);
    out.put_u8(VERSION);
    out.put_u64_le(dim as u64);
    out.put_u64_le(n as u64);
    put_pad(&mut out);
    for &s in plane.scale() {
        out.put_f32_le(s);
    }
    put_pad(&mut out);
    for &o in plane.offset() {
        out.put_f32_le(o);
    }
    put_pad(&mut out);
    for &rn in plane.row_norms() {
        out.put_f32_le(rn);
    }
    put_pad(&mut out);
    out.put_slice(plane.codes());
    out.into_vec()
}

/// Deserialize a `DJQ2` [`Sq8Plane`], zero-copy when `src` is given.
pub fn decode_sq8_v2_in(
    buf: &[u8],
    section: &'static str,
    src: Option<&MappedPayload>,
) -> Result<Sq8Plane, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_SQ8_V2)?;
    r.expect_version(VERSION)?;
    let dim = r.u64_le()? as usize;
    if dim == 0 {
        return Err(r.error(DecodeErrorKind::Invalid("SQ8 plane dim must be positive")));
    }
    let n = r.u64_le()? as usize;
    if n > u32::MAX as usize {
        return Err(r.error(DecodeErrorKind::Invalid("SQ8 row count exceeds id space")));
    }
    let codes_len = n
        .checked_mul(dim)
        .ok_or_else(|| r.error(DecodeErrorKind::Invalid("SQ8 code blob size overflows")))?;
    skip_pad(&mut r)?;
    let scale = take_pod_vec::<f32>(&mut r, src, dim)?;
    skip_pad(&mut r)?;
    let offset = take_pod_vec::<f32>(&mut r, src, dim)?;
    skip_pad(&mut r)?;
    let row_norm = take_pod_vec::<f32>(&mut r, src, n)?;
    skip_pad(&mut r)?;
    if r.remaining() != codes_len {
        return Err(r.error(DecodeErrorKind::Invalid(
            "SQ8 payload size disagrees with header",
        )));
    }
    let codes = take_pod_vec::<u8>(&mut r, src, codes_len)?;
    Ok(Sq8Plane::from_parts(dim, scale, offset, codes, row_norm))
}

/// Serialize only the graph half of an [`HnswIndex`] as a v2 CSR payload
/// (`DJG2`): header, then the three flat `u32` arrays (`node_off`,
/// `adj_off`, `neighbors`) at aligned offsets. Pairs with a `DJF2` vector
/// payload the way `DJG1` pairs with raw vectors.
pub fn encode_hnsw_graph_v2(index: &HnswIndex) -> Vec<u8> {
    let (node_off, adj_off, neighbors) = index.graph().to_csr();
    let mut out = Writer::with_capacity(
        3 * SECTION_ALIGN + 96 + (node_off.len() + adj_off.len() + neighbors.len()) * 4,
    );
    out.put_slice(MAGIC_HNSW_GRAPH_V2);
    out.put_u8(VERSION);
    put_hnsw_config(&mut out, index.config());
    out.put_u64_le(index.dim() as u64);
    out.put_u64_le(index.max_level() as u64);
    out.put_u64_le(index.rng_state());
    put_entry(&mut out, index.entry());
    out.put_u64_le((node_off.len() - 1) as u64); // node count
    out.put_u64_le((adj_off.len() - 1) as u64); // (node, layer) row count
    out.put_u64_le(neighbors.len() as u64); // edge count
    for (arr, _) in [(&node_off, "no"), (&adj_off, "ao"), (&neighbors, "nb")] {
        put_pad(&mut out);
        for &v in arr {
            out.put_u32_le(v);
        }
    }
    out.into_vec()
}

/// Rebuild an [`HnswIndex`] from a `DJG2` CSR graph payload plus the vector
/// plane it indexes (from a `DJF2` payload — heap or mapped). All structural
/// invariants (offset-table consistency, neighbor ranges, entry point,
/// `max_level`) are validated before the index is built; `src` makes the
/// three CSR arrays zero-copy views.
pub fn decode_hnsw_graph_v2(
    buf: &[u8],
    section: &'static str,
    vectors: PodVec<f32>,
    src: Option<&MappedPayload>,
) -> Result<HnswIndex, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_HNSW_GRAPH_V2)?;
    r.expect_version(VERSION)?;
    let (config, dim, max_level, rng_state, entry) = get_graph_header(&mut r)?;
    let n = r.u64_le()? as usize;
    if n > u32::MAX as usize {
        return Err(r.error(DecodeErrorKind::Invalid("node count exceeds id space")));
    }
    let rows = r.u64_le()? as usize;
    let edges = r.u64_le()? as usize;
    // Total blob size check up front, so truncation is caught before any
    // allocation no matter which array it lands in.
    let blobs = [n + 1, rows + 1, edges];
    let mut need = 0usize;
    let mut at = r.offset();
    for len in blobs {
        at += (SECTION_ALIGN - at % SECTION_ALIGN) % SECTION_ALIGN;
        at = at
            .checked_add(len.checked_mul(4).ok_or_else(|| {
                r.error(DecodeErrorKind::Invalid("CSR blob size overflows"))
            })?)
            .ok_or_else(|| r.error(DecodeErrorKind::Invalid("CSR blob size overflows")))?;
        need = at;
    }
    if need != r.offset() + r.remaining() {
        return Err(r.error(DecodeErrorKind::Invalid(
            "CSR payload size disagrees with header",
        )));
    }
    skip_pad(&mut r)?;
    let node_off = take_pod_vec::<u32>(&mut r, src, n + 1)?;
    skip_pad(&mut r)?;
    let adj_off = take_pod_vec::<u32>(&mut r, src, rows + 1)?;
    skip_pad(&mut r)?;
    let neighbors = take_pod_vec::<u32>(&mut r, src, edges)?;
    let graph = Graph::from_csr(node_off, adj_off, neighbors)
        .map_err(|_| r.error(DecodeErrorKind::Invalid("CSR graph fails validation")))?;
    if let Some(e) = entry {
        if e as usize >= graph.len() {
            return Err(r.error(DecodeErrorKind::Invalid("entry point out of range")));
        }
    }
    if dim == 0 && !graph.is_empty() {
        return Err(r.error(DecodeErrorKind::Invalid("non-empty index with dim 0")));
    }
    let tallest = (0..graph.len() as u32)
        .map(|id| graph.level_count(id))
        .max()
        .unwrap_or(0);
    if max_level != tallest.saturating_sub(1) {
        return Err(r.error(DecodeErrorKind::Invalid(
            "max_level disagrees with the tallest node",
        )));
    }
    if vectors.len() != graph.len().saturating_mul(dim) {
        return Err(r.error(DecodeErrorKind::Invalid(
            "vector payload does not match graph shape",
        )));
    }
    Ok(HnswIndex::from_graph_parts(
        config, dim, vectors, graph, entry, max_level, rng_state,
    ))
}

fn assemble_hnsw(
    r: &Reader<'_>,
    parts: GraphParts,
    vectors: Vec<f32>,
) -> Result<HnswIndex, DecodeError> {
    if let Some(e) = parts.entry {
        if e as usize >= parts.nodes.len() {
            return Err(r.error(DecodeErrorKind::Invalid("entry point out of range")));
        }
    }
    if parts.dim == 0 && !parts.nodes.is_empty() {
        return Err(r.error(DecodeErrorKind::Invalid("non-empty index with dim 0")));
    }
    // `max_level` must be the tallest node's level: search iterates every
    // layer from `max_level` down, so a corrupt (huge) value would loop for
    // eons without this check even though it cannot panic.
    let tallest = parts.nodes.iter().map(Vec::len).max().unwrap_or(0);
    if parts.max_level != tallest.saturating_sub(1) {
        return Err(r.error(DecodeErrorKind::Invalid(
            "max_level disagrees with the tallest node",
        )));
    }
    if vectors.len() != parts.nodes.len().saturating_mul(parts.dim) {
        return Err(r.error(DecodeErrorKind::Invalid(
            "vector payload does not match graph shape",
        )));
    }
    Ok(HnswIndex::from_raw_parts(
        parts.config,
        parts.dim,
        vectors,
        parts.nodes,
        parts.entry,
        parts.max_level,
        parts.rng_state,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::index::SearchRequest;
    use deepjoin_store::codec::DecodeErrorKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, dim: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn flat_roundtrip_preserves_search() {
        let mut idx = FlatIndex::new(8, Metric::L2);
        idx.add_batch(&random_data(200, 8));
        let bytes = encode_flat(&idx);
        let back = decode_flat(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        let q = random_data(1, 8);
        assert_eq!(idx.search(&q, 10), back.search(&q, 10));
    }

    #[test]
    fn hnsw_roundtrip_preserves_search_and_growth() {
        let mut idx = HnswIndex::new(6, HnswConfig::default());
        idx.add_batch(&random_data(500, 6));
        let bytes = encode_hnsw(&idx);
        let mut back = decode_hnsw(&bytes).unwrap();
        let q = random_data(1, 6);
        assert_eq!(idx.search(&q, 10), back.search(&q, 10));
        // The decoded index keeps working for inserts (rng state restored).
        let mut orig = idx.clone();
        let v = random_data(1, 6);
        assert_eq!(orig.add(&v), back.add(&v));
        assert_eq!(orig.search(&q, 10), back.search(&q, 10));
    }

    #[test]
    fn graph_only_roundtrip_matches_full_roundtrip() {
        let mut idx = HnswIndex::new(5, HnswConfig::default());
        idx.add_batch(&random_data(300, 5));
        let vectors = idx.vectors().to_vec();
        let graph = encode_hnsw_graph(&idx);
        let mut back = decode_hnsw_graph(&graph, "HNSW", vectors).unwrap();
        let q = random_data(1, 5);
        assert_eq!(idx.search(&q, 10), back.search(&q, 10));
        let mut orig = idx.clone();
        let v = random_data(1, 5);
        assert_eq!(orig.add(&v), back.add(&v));
    }

    #[test]
    fn graph_with_mismatched_vectors_is_rejected() {
        let mut idx = HnswIndex::new(4, HnswConfig::default());
        idx.add_batch(&random_data(50, 4));
        let graph = encode_hnsw_graph(&idx);
        let err = decode_hnsw_graph(&graph, "HNSW", vec![0.0; 7]).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Invalid(_)));
    }

    #[test]
    fn corrupted_buffers_are_rejected() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        idx.add_batch(&random_data(10, 4));
        let bytes = encode_flat(&idx);

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_flat(&bad).unwrap_err().kind, DecodeErrorKind::BadMagic);

        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert_eq!(
            decode_flat(&bad).unwrap_err().kind,
            DecodeErrorKind::BadVersion(99)
        );

        // Truncation, with offset context.
        let err = decode_flat(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Truncated { .. }));
        assert_eq!(err.section, "FLAT");
    }

    #[test]
    fn hnsw_magic_mismatch_is_rejected() {
        let mut idx = FlatIndex::new(4, Metric::L2);
        idx.add(&[0.0; 4]);
        let bytes = encode_flat(&idx);
        assert_eq!(
            decode_hnsw(&bytes).unwrap_err().kind,
            DecodeErrorKind::BadMagic
        );
    }

    #[test]
    fn empty_hnsw_roundtrips() {
        let idx = HnswIndex::new(3, HnswConfig::default());
        let back = decode_hnsw(&encode_hnsw(&idx)).unwrap();
        assert_eq!(back.len(), 0);
        assert!(back.search(&[0.0; 3], 5).is_empty());
    }

    #[test]
    fn truncation_at_every_offset_never_panics() {
        let mut idx = HnswIndex::new(3, HnswConfig::default());
        idx.add_batch(&random_data(40, 3));
        let bytes = encode_hnsw(&idx);
        for cut in 0..bytes.len() {
            assert!(decode_hnsw(&bytes[..cut]).is_err());
        }
        let flat_bytes = encode_flat(&{
            let mut f = FlatIndex::new(3, Metric::L2);
            f.add_batch(&random_data(40, 3));
            f
        });
        for cut in 0..flat_bytes.len() {
            assert!(decode_flat(&flat_bytes[..cut]).is_err());
        }
    }

    #[test]
    fn sq8_roundtrip_is_lossless() {
        let data = random_data(120, 9);
        let plane = Sq8Plane::quantize(&data, 9);
        let bytes = encode_sq8(&plane);
        let back = decode_sq8(&bytes).unwrap();
        assert_eq!(back, plane);
    }

    #[test]
    fn sq8_empty_plane_roundtrips() {
        let plane = Sq8Plane::quantize(&[], 4);
        let back = decode_sq8(&encode_sq8(&plane)).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.dim(), 4);
    }

    #[test]
    fn sq8_truncation_at_every_offset_never_panics() {
        let data = random_data(40, 5);
        let bytes = encode_sq8(&Sq8Plane::quantize(&data, 5));
        for cut in 0..bytes.len() {
            assert!(decode_sq8(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn sq8_single_byte_corruption_never_panics() {
        let data = random_data(20, 3);
        let plane = Sq8Plane::quantize(&data, 3);
        let bytes = encode_sq8(&plane);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x55;
            // Either a clean decode error, or a structurally valid plane
            // (flipped code/scale bytes decode fine — the container CRC is
            // what detects those).
            if let Ok(back) = decode_sq8(&bad) {
                assert_eq!(back.len(), plane.len());
                assert_eq!(back.dim(), plane.dim());
            }
        }
    }

    #[test]
    fn tombs_roundtrip_and_reject_corruption() {
        let tombs: TombSet = [0u32, 5, 64, 9000].into_iter().collect();
        let bytes = encode_tombs(&tombs);
        assert_eq!(decode_tombs(&bytes).unwrap(), tombs);
        for cut in 0..bytes.len() {
            assert!(decode_tombs(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_tombs(&trailing).is_err());
        let empty = encode_tombs(&TombSet::new());
        assert!(decode_tombs(&empty).unwrap().is_empty());
    }

    #[test]
    fn single_byte_corruption_never_panics_search() {
        // Flip each byte of a small snapshot; decode must error or produce
        // an index whose search doesn't panic (validated graph).
        let mut idx = HnswIndex::new(3, HnswConfig::default());
        idx.add_batch(&random_data(25, 3));
        let bytes = encode_hnsw(&idx);
        let q = random_data(1, 3);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x55;
            if let Ok(back) = decode_hnsw(&bad) {
                let _ = back.search(&q, 5);
            }
        }
    }

    // ---------------- v2 aligned payloads ----------------

    use std::sync::Arc;

    /// Wrap encoded payload bytes as a mapped source. Heap `Vec<u8>`
    /// allocations are at least word-aligned in practice, so the 64-byte
    /// payload-relative offsets land on valid u32/f32 addresses, same as a
    /// page-aligned mmap.
    fn mapped(bytes: &[u8]) -> (Vec<u8>, MappedPayload) {
        let copy = bytes.to_vec();
        let owner: ByteOwner = Arc::new(copy.clone());
        (copy, MappedPayload { owner, base: 0 })
    }

    #[test]
    fn flat_v2_heap_and_mapped_decodes_are_identical() {
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let mut idx = FlatIndex::new(8, metric);
            idx.add_batch(&random_data(200, 8));
            let bytes = encode_flat_v2(&idx);
            let heap = decode_flat_v2_in(&bytes, "VECS", None).unwrap();
            let (_keep, src) = mapped(&bytes);
            let view = decode_flat_v2_in(&bytes, "VECS", Some(&src)).unwrap();
            assert!(!heap.is_mapped());
            assert!(view.is_mapped());
            assert_eq!(heap.data(), idx.data());
            assert_eq!(view.data(), idx.data());
            let q = random_data(1, 8);
            assert_eq!(idx.search(&q, 10), heap.search(&q, 10));
            assert_eq!(idx.search(&q, 10), view.search(&q, 10));
        }
    }

    #[test]
    fn sq8_v2_heap_and_mapped_decodes_are_identical() {
        let data = random_data(120, 9);
        let plane = Sq8Plane::quantize(&data, 9);
        let bytes = encode_sq8_v2(&plane);
        let heap = decode_sq8_v2_in(&bytes, "SQ8V", None).unwrap();
        let (_keep, src) = mapped(&bytes);
        let view = decode_sq8_v2_in(&bytes, "SQ8V", Some(&src)).unwrap();
        assert!(!heap.is_mapped());
        assert!(view.is_mapped());
        assert_eq!(heap, plane);
        assert_eq!(view, plane);
    }

    #[test]
    fn hnsw_graph_v2_heap_and_mapped_decodes_are_identical() {
        let mut idx = HnswIndex::new(5, HnswConfig::default());
        idx.add_batch(&random_data(300, 5));
        let graph_bytes = encode_hnsw_graph_v2(&idx);
        let vec_bytes = encode_flat_v2(&{
            let mut f = FlatIndex::new(5, Metric::L2);
            f.add_batch(idx.vectors());
            f
        });

        let heap_vecs = decode_flat_v2_in(&vec_bytes, "VECS", None).unwrap();
        let mut heap =
            decode_hnsw_graph_v2(&graph_bytes, "HNSW", heap_vecs.data().to_vec().into(), None)
                .unwrap();
        assert!(!heap.is_mapped());

        let (_kv, vsrc) = mapped(&vec_bytes);
        let (_kg, gsrc) = mapped(&graph_bytes);
        let view_vecs = decode_flat_v2_in(&vec_bytes, "VECS", Some(&vsrc)).unwrap();
        let mut view = decode_hnsw_graph_v2(
            &graph_bytes,
            "HNSW",
            decode_flat_v2_in(&vec_bytes, "VECS", Some(&vsrc))
                .map(|f| f.data().to_vec())
                .unwrap()
                .into(),
            Some(&gsrc),
        )
        .unwrap();
        assert!(view_vecs.is_mapped());
        assert!(view.is_mapped()); // graph arrays mapped even with heap vectors

        let q = random_data(1, 5);
        assert_eq!(idx.search(&q, 10), heap.search(&q, 10));
        assert_eq!(idx.search(&q, 10), view.search(&q, 10));

        // A mapped index still grows: mutation materializes, rng continues.
        let mut orig = idx.clone();
        let v = random_data(1, 5);
        let id = orig.add(&v);
        assert_eq!(id, heap.add(&v));
        assert_eq!(id, view.add(&v));
        assert_eq!(orig.search(&q, 10), view.search(&q, 10));
    }

    #[test]
    fn v2_blobs_are_section_aligned() {
        let mut idx = FlatIndex::new(7, Metric::L2);
        idx.add_batch(&random_data(33, 7));
        let bytes = encode_flat_v2(&idx);
        // Header is 26 bytes; first vector byte must sit at the boundary.
        let first = idx.data()[0].to_le_bytes();
        assert_eq!(&bytes[SECTION_ALIGN..SECTION_ALIGN + 4], &first);

        let plane = Sq8Plane::quantize(&random_data(10, 6), 6);
        let q = encode_sq8_v2(&plane);
        assert_eq!(
            &q[SECTION_ALIGN..SECTION_ALIGN + 4],
            &plane.scale()[0].to_le_bytes()
        );
    }

    #[test]
    fn v2_empty_structures_roundtrip() {
        let idx = FlatIndex::new(4, Metric::L2);
        let back = decode_flat_v2_in(&encode_flat_v2(&idx), "VECS", None).unwrap();
        assert_eq!(back.len(), 0);

        let plane = Sq8Plane::quantize(&[], 4);
        let back = decode_sq8_v2_in(&encode_sq8_v2(&plane), "SQ8V", None).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.dim(), 4);

        let hnsw = HnswIndex::new(3, HnswConfig::default());
        let back = decode_hnsw_graph_v2(
            &encode_hnsw_graph_v2(&hnsw),
            "HNSW",
            PodVec::new(),
            None,
        )
        .unwrap();
        assert_eq!(back.len(), 0);
        assert!(back.search(&[0.0; 3], 5).is_empty());
    }

    #[test]
    fn v2_truncation_at_every_offset_never_panics() {
        let mut flat = FlatIndex::new(3, Metric::L2);
        flat.add_batch(&random_data(40, 3));
        let fb = encode_flat_v2(&flat);
        for cut in 0..fb.len() {
            assert!(decode_flat_v2_in(&fb[..cut], "VECS", None).is_err(), "cut {cut}");
        }

        let plane = Sq8Plane::quantize(&random_data(40, 5), 5);
        let qb = encode_sq8_v2(&plane);
        for cut in 0..qb.len() {
            assert!(decode_sq8_v2_in(&qb[..cut], "SQ8V", None).is_err(), "cut {cut}");
        }

        let mut hnsw = HnswIndex::new(3, HnswConfig::default());
        hnsw.add_batch(&random_data(40, 3));
        let vectors: PodVec<f32> = hnsw.vectors().to_vec().into();
        let gb = encode_hnsw_graph_v2(&hnsw);
        for cut in 0..gb.len() {
            assert!(
                decode_hnsw_graph_v2(&gb[..cut], "HNSW", vectors.clone(), None).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn v2_single_byte_corruption_never_panics() {
        let mut hnsw = HnswIndex::new(3, HnswConfig::default());
        hnsw.add_batch(&random_data(25, 3));
        let vectors: PodVec<f32> = hnsw.vectors().to_vec().into();
        let gb = encode_hnsw_graph_v2(&hnsw);
        let q = random_data(1, 3);
        for i in 0..gb.len() {
            let mut bad = gb.clone();
            bad[i] ^= 0x55;
            // Same contract as v1, on both decode paths: error out cleanly
            // or produce a structurally valid index whose search is total.
            if let Ok(back) = decode_hnsw_graph_v2(&bad, "HNSW", vectors.clone(), None) {
                let _ = back.search(&q, 5);
            }
            let (_keep, src) = mapped(&bad);
            if let Ok(back) = decode_hnsw_graph_v2(&bad, "HNSW", vectors.clone(), Some(&src)) {
                let _ = back.search(&q, 5);
            }
        }
    }

    #[test]
    fn v2_nonzero_padding_is_rejected() {
        let mut idx = FlatIndex::new(4, Metric::L2);
        idx.add_batch(&random_data(3, 4));
        let mut bytes = encode_flat_v2(&idx);
        // Byte 30 sits inside the header→blob pad (header is 26 bytes).
        bytes[30] = 1;
        let err = decode_flat_v2_in(&bytes, "VECS", None).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Invalid(_)));
    }

    #[test]
    fn v2_mapped_graph_rejects_structural_damage() {
        // Corrupt a neighbor id to point past the node count; from_csr must
        // catch it on the mapped path too (no trusting the mapping).
        let mut hnsw = HnswIndex::new(3, HnswConfig::default());
        hnsw.add_batch(&random_data(30, 3));
        let vectors: PodVec<f32> = hnsw.vectors().to_vec().into();
        let mut gb = encode_hnsw_graph_v2(&hnsw);
        let n = gb.len();
        // The neighbors array is the final blob; overwrite its last id.
        gb[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let (_keep, src) = mapped(&gb);
        let err = decode_hnsw_graph_v2(&gb, "HNSW", vectors, Some(&src)).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Invalid(_)));
    }

    #[test]
    fn ivfpq_over_heap_and_mapped_planes_searches_identically() {
        use crate::ivfpq::{IvfPqConfig, IvfPqIndex};
        // IVFPQ never decodes from disk itself; it trains and rescores
        // over the raw vector plane — which may be a zero-copy view. The
        // whole pipeline (coarse k-means, PQ codebooks, ADC scan, SQ8
        // refinement, tombstone filtering) must be byte-identical on
        // either backing.
        let dim = 16;
        let mut orig = FlatIndex::new(dim, Metric::L2);
        let mut state = 0x9E37_79B9u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state % 1000) as f32 / 500.0 - 1.0
        };
        for _ in 0..96 {
            let v: Vec<f32> = (0..dim).map(|_| next()).collect();
            orig.add(&v);
        }
        let bytes = encode_flat_v2(&orig);
        let heap = decode_flat_v2_in(&bytes, "VECS", None).unwrap();
        let (pinned, src) = mapped(&bytes);
        let view = decode_flat_v2_in(&pinned, "VECS", Some(&src)).unwrap();
        assert!(!heap.is_mapped());
        assert!(view.is_mapped());

        let build = |plane: &FlatIndex| {
            let mut idx = IvfPqIndex::new(
                dim,
                IvfPqConfig {
                    nlist: 8,
                    nprobe: 4,
                    ..Default::default()
                },
            );
            idx.train(plane.data());
            idx.add_batch(plane.data());
            idx
        };
        let (a, b) = (build(&heap), build(&view));
        let tombs: TombSet = [3u32, 17, 40].into_iter().collect();
        for qid in [0u32, 5, 41] {
            let q = orig.vector(qid).to_vec();
            for deleted in [None, Some(&tombs)] {
                let req = SearchRequest {
                    queries: &q,
                    k: 10,
                    budget: &Budget::unlimited(),
                    deleted,
                };
                let (ha, hb) = (a.search_wave(&req).remove(0), b.search_wave(&req).remove(0));
                assert_eq!(ha.hits.len(), hb.hits.len());
                for (x, y) in ha.hits.iter().zip(&hb.hits) {
                    assert_eq!((x.id, x.distance.to_bits()), (y.id, y.distance.to_bits()));
                }
            }
        }
    }
}
