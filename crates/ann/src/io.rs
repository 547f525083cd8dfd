//! Binary payload codecs for the vector planes, the HNSW graph and the
//! tombstone bitmap.
//!
//! Built on the `deepjoin-store` codec: little-endian, with a magic header
//! and version byte per payload. Indexes are large and numeric, so a dense
//! custom codec is the *right* tool — no intermediate tree, one pass in,
//! one pass out.
//!
//! * `DJF2` — flat vectors: metric, dim, then the row-major f32 blob;
//! * `DJQ2` — an SQ8 plane: scale, offset, row norms, then the codes;
//! * `DJG2` — the HNSW *graph only* (config + CSR adjacency, no vectors),
//!   so the vectors live in their own checksummed section and survive
//!   graph corruption;
//! * `DJT1` — a tombstone bitmap.
//!
//! The plane and graph payloads place each hot array as a raw
//! little-endian blob at a 64-byte-aligned offset *within the payload*;
//! inside a `DJAR` container (whose payloads start at 64-byte-aligned file
//! offsets) every blob therefore lands 64-byte-aligned in a page-aligned
//! mapping, and the decoders can hand out zero-copy [`PodVec`] views
//! instead of copies. Each decoder takes an optional [`MappedPayload`];
//! without one (or on a big-endian host, or when a view is refused) it
//! decodes onto the heap — same numbers, same index behavior.
//!
//! Every decoder is total: corrupt bytes yield a located [`DecodeError`],
//! never a panic — lengths are validated against the remaining buffer
//! before allocation, and graph structure (neighbor ids, node/vector
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

/// Magic bytes of a flat-vector payload.
pub const MAGIC_FLAT: &[u8; 4] = b"DJF2";
/// Magic bytes of an SQ8 quantized-plane payload.
pub const MAGIC_SQ8: &[u8; 4] = b"DJQ2";
/// Magic bytes of a CSR graph-only HNSW payload.
pub const MAGIC_HNSW_GRAPH: &[u8; 4] = b"DJG2";
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

fn put_entry(out: &mut Writer, entry: Option<u32>) {
    match entry {
        Some(e) => {
            out.put_u8(1);
            out.put_u32_le(e);
        }
        None => out.put_u8(0),
    }
}

/// `DJG2` header: config, dim, max_level, rng state, entry point.
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

/// Deserialize a [`TombSet`].
pub fn decode_tombs(buf: &[u8]) -> Result<TombSet, DecodeError> {
    let mut r = Reader::new(buf, "TOMB");
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

/// Where a payload lives inside a pinned byte buffer: the buffer (e.g. an
/// `Arc<Mmap>` of a whole artifact) plus the byte offset of the payload's
/// first byte within it. Lets the decoders build [`PodVec`] views that keep
/// the mapping alive instead of copying.
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

/// Serialize a [`FlatIndex`] (`DJF2`): header, zero pad to the 64-byte
/// boundary, then the raw row-major f32 blob.
pub fn encode_flat(index: &FlatIndex) -> Vec<u8> {
    let data = index.data();
    let mut out = Writer::with_capacity(SECTION_ALIGN + data.len() * 4);
    out.put_slice(MAGIC_FLAT);
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

/// Deserialize a `DJF2` [`FlatIndex`], attributing errors to `section`;
/// zero-copy when `src` is given and the blob is viewable in place.
pub fn decode_flat(
    buf: &[u8],
    section: &'static str,
    src: Option<&MappedPayload>,
) -> Result<FlatIndex, DecodeError> {
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

/// Serialize an [`Sq8Plane`] (`DJQ2`): header, then each array (scale,
/// offset, row norms, codes) at its own aligned offset.
pub fn encode_sq8(plane: &Sq8Plane) -> Vec<u8> {
    let dim = plane.dim();
    let n = plane.len();
    let mut out = Writer::with_capacity(4 * SECTION_ALIGN + dim * 8 + n * 4 + n * dim);
    out.put_slice(MAGIC_SQ8);
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

/// Deserialize a `DJQ2` [`Sq8Plane`], zero-copy when `src` is given. The
/// payload size is validated against the header *before* any allocation,
/// so a corrupt row count cannot trigger an OOM.
pub fn decode_sq8(
    buf: &[u8],
    section: &'static str,
    src: Option<&MappedPayload>,
) -> Result<Sq8Plane, DecodeError> {
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

/// Serialize only the graph half of an [`HnswIndex`] as a CSR payload
/// (`DJG2`): header, then the three flat `u32` arrays (`node_off`,
/// `adj_off`, `neighbors`) at aligned offsets. Pairs with a `DJF2` vector
/// payload (see [`decode_hnsw_graph`]).
pub fn encode_hnsw_graph(index: &HnswIndex) -> Vec<u8> {
    let (node_off, adj_off, neighbors) = index.graph().to_csr();
    let mut out = Writer::with_capacity(
        3 * SECTION_ALIGN + 96 + (node_off.len() + adj_off.len() + neighbors.len()) * 4,
    );
    out.put_slice(MAGIC_HNSW_GRAPH);
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
/// `max_level`) are validated before the index is built — a corrupt
/// (huge) `max_level` would otherwise make every search walk empty layers
/// for eons; `src` makes the three CSR arrays zero-copy views.
pub fn decode_hnsw_graph(
    buf: &[u8],
    section: &'static str,
    vectors: PodVec<f32>,
    src: Option<&MappedPayload>,
) -> Result<HnswIndex, DecodeError> {
    let mut r = Reader::new(buf, section);
    r.expect_magic(MAGIC_HNSW_GRAPH)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::index::SearchRequest;
    use deepjoin_store::codec::DecodeErrorKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_data(n: usize, dim: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn flat_of(data: &[f32], dim: usize, metric: Metric) -> FlatIndex {
        let mut idx = FlatIndex::new(dim, metric);
        idx.add_batch(data);
        idx
    }

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
    fn graph_with_mismatched_vectors_is_rejected() {
        let mut idx = HnswIndex::new(4, HnswConfig::default());
        idx.add_batch(&random_data(50, 4));
        let graph = encode_hnsw_graph(&idx);
        // Too few vectors for the graph's 50 nodes × 4 dims.
        let short: PodVec<f32> = idx.vectors()[..7].to_vec().into();
        let err = decode_hnsw_graph(&graph, "HNSW", short, None).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Invalid(_)));
    }

    #[test]
    fn corrupted_buffers_are_rejected() {
        let data = random_data(10, 4);
        let flat = encode_flat(&flat_of(&data, 4, Metric::Cosine));
        let sq8 = encode_sq8(&Sq8Plane::quantize(&data, 4));
        let mut hnsw = HnswIndex::new(4, HnswConfig::default());
        hnsw.add_batch(&data);
        let graph = encode_hnsw_graph(&hnsw);
        let vectors: PodVec<f32> = data.clone().into();
        type Decode<'a> = &'a dyn Fn(&[u8]) -> Result<(), DecodeError>;
        let cases: [(&Vec<u8>, &str, Decode); 3] = [
            (&flat, "VECS", &|b| decode_flat(b, "VECS", None).map(drop)),
            (&sq8, "SQ8V", &|b| decode_sq8(b, "SQ8V", None).map(drop)),
            (&graph, "HNSW", &|b| {
                decode_hnsw_graph(b, "HNSW", vectors.clone(), None).map(drop)
            }),
        ];
        for (bytes, section, decode) in cases {
            let mut bad = bytes.clone();
            bad[0] = b'X';
            assert_eq!(decode(&bad).unwrap_err().kind, DecodeErrorKind::BadMagic);

            let mut bad = bytes.clone();
            bad[4] = 99;
            assert_eq!(decode(&bad).unwrap_err().kind, DecodeErrorKind::BadVersion(99));

            // Truncation, located in the caller's section.
            let err = decode(&bytes[..bytes.len() - 3]).unwrap_err();
            assert_eq!(err.section, section);
            assert!(matches!(
                err.kind,
                DecodeErrorKind::Truncated { .. } | DecodeErrorKind::Invalid(_)
            ));
        }
        // A payload of another kind is refused by its magic, not misread.
        assert_eq!(
            decode_hnsw_graph(&flat, "HNSW", vectors, None).unwrap_err().kind,
            DecodeErrorKind::BadMagic
        );
        assert_eq!(
            decode_sq8(&flat, "SQ8V", None).unwrap_err().kind,
            DecodeErrorKind::BadMagic
        );
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
    fn flat_heap_and_mapped_decodes_are_identical() {
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let idx = flat_of(&random_data(200, 8), 8, metric);
            let bytes = encode_flat(&idx);
            let heap = decode_flat(&bytes, "VECS", None).unwrap();
            let (_keep, src) = mapped(&bytes);
            let view = decode_flat(&bytes, "VECS", Some(&src)).unwrap();
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
    fn sq8_heap_and_mapped_decodes_are_identical() {
        let data = random_data(120, 9);
        let plane = Sq8Plane::quantize(&data, 9);
        let bytes = encode_sq8(&plane);
        let heap = decode_sq8(&bytes, "SQ8V", None).unwrap();
        let (_keep, src) = mapped(&bytes);
        let view = decode_sq8(&bytes, "SQ8V", Some(&src)).unwrap();
        assert!(!heap.is_mapped());
        assert!(view.is_mapped());
        assert_eq!(heap, plane);
        assert_eq!(view, plane);
    }

    #[test]
    fn hnsw_graph_heap_and_mapped_decodes_are_identical() {
        let mut idx = HnswIndex::new(5, HnswConfig::default());
        idx.add_batch(&random_data(300, 5));
        let graph_bytes = encode_hnsw_graph(&idx);
        let vec_bytes = encode_flat(&flat_of(idx.vectors(), 5, Metric::L2));

        let heap_vecs = decode_flat(&vec_bytes, "VECS", None).unwrap();
        let mut heap =
            decode_hnsw_graph(&graph_bytes, "HNSW", heap_vecs.data().to_vec().into(), None)
                .unwrap();
        assert!(!heap.is_mapped());

        let (_kv, vsrc) = mapped(&vec_bytes);
        let (_kg, gsrc) = mapped(&graph_bytes);
        let view_vecs = decode_flat(&vec_bytes, "VECS", Some(&vsrc)).unwrap();
        let mut view = decode_hnsw_graph(
            &graph_bytes,
            "HNSW",
            view_vecs.data().to_vec().into(),
            Some(&gsrc),
        )
        .unwrap();
        assert!(view_vecs.is_mapped());
        assert!(view.is_mapped()); // graph arrays mapped even with heap vectors

        let q = random_data(1, 5);
        assert_eq!(idx.search(&q, 10), heap.search(&q, 10));
        assert_eq!(idx.search(&q, 10), view.search(&q, 10));

        // A decoded index still grows: mutation materializes, rng continues.
        let mut orig = idx.clone();
        let v = random_data(1, 5);
        let id = orig.add(&v);
        assert_eq!(id, heap.add(&v));
        assert_eq!(id, view.add(&v));
        assert_eq!(orig.search(&q, 10), heap.search(&q, 10));
        assert_eq!(orig.search(&q, 10), view.search(&q, 10));
    }

    #[test]
    fn blobs_are_section_aligned() {
        let idx = flat_of(&random_data(33, 7), 7, Metric::L2);
        let bytes = encode_flat(&idx);
        // Header is 26 bytes; first vector byte must sit at the boundary.
        let first = idx.data()[0].to_le_bytes();
        assert_eq!(&bytes[SECTION_ALIGN..SECTION_ALIGN + 4], &first);

        let plane = Sq8Plane::quantize(&random_data(10, 6), 6);
        let q = encode_sq8(&plane);
        assert_eq!(
            &q[SECTION_ALIGN..SECTION_ALIGN + 4],
            &plane.scale()[0].to_le_bytes()
        );
    }

    #[test]
    fn empty_structures_roundtrip() {
        let idx = FlatIndex::new(4, Metric::L2);
        let back = decode_flat(&encode_flat(&idx), "VECS", None).unwrap();
        assert_eq!(back.len(), 0);

        let plane = Sq8Plane::quantize(&[], 4);
        let back = decode_sq8(&encode_sq8(&plane), "SQ8V", None).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.dim(), 4);

        let hnsw = HnswIndex::new(3, HnswConfig::default());
        let back =
            decode_hnsw_graph(&encode_hnsw_graph(&hnsw), "HNSW", PodVec::new(), None).unwrap();
        assert_eq!(back.len(), 0);
        assert!(back.search(&[0.0; 3], 5).is_empty());
    }

    #[test]
    fn truncation_at_every_offset_never_panics() {
        let fb = encode_flat(&flat_of(&random_data(40, 3), 3, Metric::L2));
        for cut in 0..fb.len() {
            assert!(decode_flat(&fb[..cut], "VECS", None).is_err(), "cut {cut}");
        }

        let plane = Sq8Plane::quantize(&random_data(40, 5), 5);
        let qb = encode_sq8(&plane);
        for cut in 0..qb.len() {
            assert!(decode_sq8(&qb[..cut], "SQ8V", None).is_err(), "cut {cut}");
        }

        let mut hnsw = HnswIndex::new(3, HnswConfig::default());
        hnsw.add_batch(&random_data(40, 3));
        let vectors: PodVec<f32> = hnsw.vectors().to_vec().into();
        let gb = encode_hnsw_graph(&hnsw);
        for cut in 0..gb.len() {
            assert!(
                decode_hnsw_graph(&gb[..cut], "HNSW", vectors.clone(), None).is_err(),
                "cut {cut}"
            );
        }
    }

    /// Flip every byte of every payload kind: each decode path, heap and
    /// mapped, errors out cleanly or yields a structurally valid index
    /// whose search is total. (Flipped blob bytes decode fine — catching
    /// those is the container CRC's job.)
    #[test]
    fn single_byte_corruption_never_panics_search() {
        let (n, dim) = (25, 3);
        let data = random_data(n, dim);
        let q = random_data(1, dim);
        let mut hnsw = HnswIndex::new(dim, HnswConfig::default());
        hnsw.add_batch(&data);
        let vectors: PodVec<f32> = hnsw.vectors().to_vec().into();
        let flip = |bytes: &[u8], check: &dyn Fn(&[u8], Option<&MappedPayload>)| {
            for i in 0..bytes.len() {
                let mut bad = bytes.to_vec();
                bad[i] ^= 0x55;
                let (_keep, src) = mapped(&bad);
                check(&bad, None);
                check(&bad, Some(&src));
            }
        };
        flip(&encode_hnsw_graph(&hnsw), &|bad, src| {
            if let Ok(back) = decode_hnsw_graph(bad, "HNSW", vectors.clone(), src) {
                let _ = back.search(&q, 5);
            }
        });
        flip(&encode_flat(&flat_of(&data, dim, Metric::L2)), &|bad, src| {
            if let Ok(back) = decode_flat(bad, "VECS", src) {
                assert_eq!((back.len(), back.dim()), (n, dim));
                let _ = back.search(&q, 5);
            }
        });
        flip(&encode_sq8(&Sq8Plane::quantize(&data, dim)), &|bad, src| {
            if let Ok(plane) = decode_sq8(bad, "SQ8V", src) {
                assert_eq!((plane.len(), plane.dim()), (n, dim));
                let mut flat = flat_of(&data, dim, Metric::L2);
                flat.attach_sq8(plane);
                let _ = flat.search(&q, 5);
            }
        });
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        let mut bytes = encode_flat(&flat_of(&random_data(3, 4), 4, Metric::L2));
        // Byte 30 sits inside the header→blob pad (header is 26 bytes).
        bytes[30] = 1;
        let err = decode_flat(&bytes, "VECS", None).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Invalid(_)));
    }

    #[test]
    fn mapped_graph_rejects_structural_damage() {
        // Corrupt a neighbor id to point past the node count; from_csr must
        // catch it on the mapped path too (no trusting the mapping).
        let mut hnsw = HnswIndex::new(3, HnswConfig::default());
        hnsw.add_batch(&random_data(30, 3));
        let vectors: PodVec<f32> = hnsw.vectors().to_vec().into();
        let mut gb = encode_hnsw_graph(&hnsw);
        let n = gb.len();
        // The neighbors array is the final blob; overwrite its last id.
        gb[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let (_keep, src) = mapped(&gb);
        let err = decode_hnsw_graph(&gb, "HNSW", vectors, Some(&src)).unwrap_err();
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
        let bytes = encode_flat(&orig);
        let heap = decode_flat(&bytes, "VECS", None).unwrap();
        let (pinned, src) = mapped(&bytes);
        let view = decode_flat(&pinned, "VECS", Some(&src)).unwrap();
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
