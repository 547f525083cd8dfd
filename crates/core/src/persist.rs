//! Durable persistence for trained DeepJoin models.
//!
//! A saved model carries everything inference and indexing need — the
//! contextualizer (option, cell budget, cell frequencies), the vocabulary,
//! the encoder configuration and parameters, and (optionally) the built
//! index. The on-disk form is a `DJAR` container
//! (`deepjoin_store::container`, DESIGN.md §8) with checksummed sections:
//!
//! * `MODL` — the model core (config, frequencies, vocabulary, encoder);
//!   mandatory, and a checksum failure here is fatal;
//! * `TLIN` — the training lineage (advisory);
//! * `VECS` — the indexed embedding vectors as a `DJF2` payload;
//! * `SQ8V` — the optional SQ8 plane as a `DJQ2` payload;
//! * `HNSW` — the graph half of the HNSW index as a `DJG2` payload.
//!
//! Splitting vectors from graph is what makes *graceful degradation*
//! possible: when the `HNSW` section fails its CRC but `VECS` survives,
//! [`load_model`] returns a model in [`IndexState::DegradedFlat`] — exact
//! (slower) search over the same vectors — with a warning, instead of
//! refusing to load.
//!
//! Training-only settings (optimizer, labeling thresholds, SGNS) are *not*
//! persisted: a loaded model can embed, index and search, but continuing
//! training requires the original `DeepJoinConfig`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use deepjoin_ann::flat::FlatIndex;
use deepjoin_ann::index::VectorIndex;
use deepjoin_ann::io::{
    decode_flat, decode_hnsw_graph, decode_sq8, encode_flat, encode_hnsw_graph, encode_sq8,
    DecodeError, MappedPayload,
};
use deepjoin_ann::plane::ByteOwner;
use deepjoin_ann::sq8::Sq8Plane;
use deepjoin_lake::tokenizer::Vocabulary;
use deepjoin_nn::encoder::{ColumnEncoder, EncoderConfig, Pooling};
use deepjoin_store::codec::{DecodeErrorKind, Reader, Writer};
use deepjoin_store::{Container, ContainerBuilder, Mmap};

use crate::model::{DeepJoin, DeepJoinConfig, IndexState, TrainLineage, Variant};
use crate::text::{CellFrequencies, Textizer, TransformOption};

/// Container section holding the model core.
pub const SECTION_MODEL: [u8; 4] = *b"MODL";
/// Container section holding the training lineage (`DJTL`).
pub const SECTION_LINEAGE: [u8; 4] = *b"TLIN";
/// Container section holding the indexed embedding vectors (`DJF2`).
pub const SECTION_VECTORS: [u8; 4] = *b"VECS";
/// Container section holding the SQ8 quantized vector plane (`DJQ2`).
/// Written between `VECS` and `HNSW` so the graph stays the trailing
/// section (tail truncation keeps damaging the graph first, the most
/// gracefully degradable section).
pub const SECTION_SQ8: [u8; 4] = *b"SQ8V";
/// Container section holding the HNSW graph (`DJG2`).
pub const SECTION_GRAPH: [u8; 4] = *b"HNSW";

/// Magic of the model-core payload inside the `MODL` section.
const CORE_MAGIC: &[u8; 4] = b"DJM2";
const CORE_VERSION: u8 = 1;

/// Magic of the lineage payload inside the `TLIN` section.
const LINEAGE_MAGIC: &[u8; 4] = b"DJTL";
const LINEAGE_VERSION: u8 = 1;

/// Backing report for one container section after a load — the
/// `dj info` mapped-vs-resident view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Four-character section name (`MODL`, `VECS`, ...).
    pub name: String,
    /// Payload bytes on disk.
    pub bytes: usize,
    /// True when the loaded structure views the mapping zero-copy.
    pub mapped: bool,
    /// Heap bytes the loaded structure retains for this section (0 for a
    /// mapped plane; its pages are file-backed and evictable).
    pub resident: usize,
}

/// A model restored from disk, along with any degradation warnings the
/// loader produced. An empty `warnings` means full fidelity.
pub struct LoadedModel {
    /// The restored model; check [`DeepJoin::index_health`] before serving.
    pub model: DeepJoin,
    /// Human-readable accounts of anything that could not be restored.
    pub warnings: Vec<String>,
    /// Per-section backing (file bytes, mapped or heap, resident bytes),
    /// in file order.
    pub sections: Vec<SectionInfo>,
}

impl LoadedModel {
    /// Drop the warnings and keep the model (callers that already surfaced
    /// or deliberately ignore degradation).
    pub fn into_model(self) -> DeepJoin {
        self.model
    }
}

impl std::fmt::Debug for LoadedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedModel")
            .field("index_health", &self.model.index_health())
            .field("warnings", &self.warnings)
            .finish_non_exhaustive()
    }
}

/// Tag is the option's position in [`TransformOption::ALL`]; the exhaustive
/// match keeps the mapping total by construction.
fn transform_tag(t: TransformOption) -> u8 {
    match t {
        TransformOption::Col => 0,
        TransformOption::ColnameCol => 1,
        TransformOption::ColnameColContext => 2,
        TransformOption::ColnameStatCol => 3,
        TransformOption::TitleColnameCol => 4,
        TransformOption::TitleColnameColContext => 5,
        TransformOption::TitleColnameStatCol => 6,
    }
}

fn transform_from(r: &Reader<'_>, tag: u8) -> Result<TransformOption, DecodeError> {
    TransformOption::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| r.error(DecodeErrorKind::BadDiscriminant(tag)))
}

/// Model core fields: the `MODL` payload past its magic and version.
fn put_core(out: &mut Writer, model: &DeepJoin) {
    let cfg = &model.config;
    out.put_u8(match cfg.variant {
        Variant::DistilLite => 0,
        Variant::MpLite => 1,
    });
    out.put_u64_le(cfg.dim as u64);
    out.put_u8(transform_tag(cfg.transform));
    out.put_u64_le(cfg.max_cells as u64);
    out.put_u64_le(cfg.max_tokens as u64);
    out.put_u32_le(cfg.oov_buckets);

    // --- textizer frequencies ---
    match model.textizer.frequencies() {
        Some(freq) => {
            out.put_u8(1);
            out.put_u64_le(freq.len() as u64);
            // Deterministic order for byte-stable files.
            let mut pairs: Vec<(&str, u32)> = freq.iter().collect();
            pairs.sort_unstable();
            for (cell, count) in pairs {
                out.put_str(cell);
                out.put_u32_le(count);
            }
        }
        None => out.put_u8(0),
    }

    // --- vocabulary ---
    out.put_u64_le(model.vocab.len() as u64);
    // Skip <unk> (id 0) — it is implicit in a fresh Vocabulary.
    for id in 1..model.vocab.len() as u32 {
        out.put_str(model.vocab.token(id));
        out.put_u64_le(model.vocab.count(id));
    }

    // --- encoder ---
    let ec = &model.encoder.config;
    out.put_u64_le(ec.vocab_size as u64);
    out.put_u64_le(ec.out_dim as u64);
    out.put_u64_le(ec.attn_hidden as u64);
    out.put_u8(match ec.pooling {
        Pooling::Mean => 0,
        Pooling::Attention => 1,
    });
    out.put_u8(ec.use_positions as u8);
    out.put_u8(ec.residual as u8);
    out.put_u64_le(ec.seed);
    let (emb, pos, aw, ab, av, h1w, h1b, h2w, h2b) = model.encoder.raw_params();
    for t in [emb, pos, aw, ab, av, h1w, h1b, h2w, h2b] {
        out.put_f32s(t);
    }
}

/// Everything [`get_core`] restores; the index is attached separately.
struct CoreParts {
    config: DeepJoinConfig,
    textizer: Textizer,
    vocab: Vocabulary,
    encoder: ColumnEncoder,
}

impl CoreParts {
    fn into_model(self, index: IndexState, lineage: Option<TrainLineage>) -> DeepJoin {
        DeepJoin {
            config: self.config,
            vocab: self.vocab,
            textizer: self.textizer,
            encoder: self.encoder,
            index,
            lineage,
        }
    }
}

fn put_lineage(out: &mut Writer, lineage: &TrainLineage) {
    out.put_slice(LINEAGE_MAGIC);
    out.put_u8(LINEAGE_VERSION);
    out.put_u64_le(lineage.epochs);
    out.put_u64_le(lineage.steps);
    out.put_f32_le(lineage.last_loss);
    out.put_u64_le(lineage.rollbacks);
}

fn get_lineage(r: &mut Reader<'_>) -> Result<TrainLineage, DecodeError> {
    r.expect_magic(LINEAGE_MAGIC)?;
    r.expect_version(LINEAGE_VERSION)?;
    Ok(TrainLineage {
        epochs: r.u64_le()?,
        steps: r.u64_le()?,
        last_loss: r.f32_le()?,
        rollbacks: r.u64_le()?,
    })
}

fn get_core(r: &mut Reader<'_>) -> Result<CoreParts, DecodeError> {
    let variant = match r.u8()? {
        0 => Variant::DistilLite,
        1 => Variant::MpLite,
        other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
    };
    let dim = r.u64_le()? as usize;
    let transform = {
        let tag = r.u8()?;
        transform_from(r, tag)?
    };
    let max_cells = r.u64_le()? as usize;
    let max_tokens = r.u64_le()? as usize;
    let oov_buckets = r.u32_le()?;

    // Textizer.
    let mut textizer = Textizer::new(transform, max_cells);
    match r.u8()? {
        0 => {}
        1 => {
            // Each pair is at least 4 (string length) + 4 (count) bytes, so
            // `count` bounds the allocation by the bytes actually present.
            let n = r.count(8)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let cell = r.str_prefixed()?;
                pairs.push((cell, r.u32_le()?));
            }
            textizer = textizer.with_frequencies(CellFrequencies::from_pairs(pairs));
        }
        other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
    }

    // Vocabulary: rebuild with exact ids by feeding tokens in id order. The
    // stored count includes the implicit <unk>; each entry needs at least
    // 4 (string length) + 8 (count) bytes — validated before allocating.
    let vocab_len = r.u64_le()? as usize;
    let entries = vocab_len.saturating_sub(1);
    if entries > r.remaining() / 12 {
        return Err(r.error(DecodeErrorKind::Truncated {
            needed: entries.saturating_mul(12),
            available: r.remaining(),
        }));
    }
    let mut list: Vec<(String, u64)> = Vec::with_capacity(entries);
    for _ in 0..entries {
        let tok = r.str_prefixed()?;
        list.push((tok, r.u64_le()?));
    }
    let vocab = Vocabulary::from_id_order(list);

    // Encoder.
    let vocab_size = r.u64_le()? as usize;
    let out_dim = r.u64_le()? as usize;
    let attn_hidden = r.u64_le()? as usize;
    let pooling = match r.u8()? {
        0 => Pooling::Mean,
        1 => Pooling::Attention,
        other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
    };
    let use_positions = r.u8()? != 0;
    let residual = r.u8()? != 0;
    let seed = r.u64_le()?;
    let ec = EncoderConfig {
        vocab_size,
        dim,
        out_dim,
        attn_hidden,
        max_len: max_tokens,
        pooling,
        use_positions,
        residual,
        seed,
    };
    let mut params: [Vec<f32>; 9] = Default::default();
    for p in params.iter_mut() {
        *p = r.f32s()?;
    }
    let encoder = ColumnEncoder::try_from_raw_params(ec, params)
        .map_err(|why| r.error(DecodeErrorKind::Invalid(why)))?;

    let config = DeepJoinConfig {
        variant,
        dim,
        transform,
        max_cells,
        max_tokens,
        oov_buckets,
        ..DeepJoinConfig::default()
    };
    Ok(CoreParts {
        config,
        textizer,
        vocab,
        encoder,
    })
}

/// Serialize a trained model as a `DJAR` container whose index sections
/// use the aligned payloads (`DJF2`/`DJQ2`/`DJG2`) — the layout
/// [`load_model_path`] maps zero-copy. Set `include_index` to
/// persist the built index alongside the encoder (larger file, instant
/// reload of search). A degraded model saves its vectors but no graph, so
/// it reloads degraded rather than silently losing exactness guarantees.
pub fn save_model(model: &DeepJoin, include_index: bool) -> Vec<u8> {
    let mut core = Writer::with_capacity(1 << 16);
    core.put_slice(CORE_MAGIC);
    core.put_u8(CORE_VERSION);
    put_core(&mut core, model);
    let mut builder = ContainerBuilder::new().section(SECTION_MODEL, core.into_vec());
    if let Some(lineage) = &model.lineage {
        let mut w = Writer::new();
        put_lineage(&mut w, lineage);
        builder = builder.section(SECTION_LINEAGE, w.into_vec());
    }
    if include_index {
        match &model.index {
            IndexState::Hnsw(index) => {
                let flat = FlatIndex::from_plane(
                    index.dim().max(1),
                    index.config().metric,
                    index.vectors_plane().clone(),
                );
                builder = builder.section(SECTION_VECTORS, encode_flat(&flat));
                if let Some(plane) = index.sq8() {
                    builder = builder.section(SECTION_SQ8, encode_sq8(plane));
                }
                builder = builder.section(SECTION_GRAPH, encode_hnsw_graph(index));
            }
            IndexState::DegradedFlat { index, .. } => {
                builder = builder.section(SECTION_VECTORS, encode_flat(index));
                if let Some(plane) = index.sq8() {
                    builder = builder.section(SECTION_SQ8, encode_sq8(plane));
                }
            }
            IndexState::None => {}
        }
    }
    builder.build()
}

/// Deserialize a model saved by [`save_model`], decoding everything onto
/// the heap — the reference twin of [`load_model_path`], which maps the
/// same bytes zero-copy instead.
///
/// Corruption of the model core is fatal. Corruption of the index sections
/// degrades instead: a damaged graph falls back to exact flat search over
/// the intact vectors ([`IndexState::DegradedFlat`]), and damaged vectors
/// drop the index entirely — each with an entry in
/// [`LoadedModel::warnings`].
pub fn load_model(buf: &[u8]) -> Result<LoadedModel, DecodeError> {
    load_container(buf, None, true)
}

/// How one load resolves container sections: the parsed container, plus
/// (for the zero-copy path) the pinned whole-file buffer the payloads can
/// be viewed from, plus whether payload CRCs still need checking (`false`
/// only on a reopen of a file this process already verified, unchanged).
struct Sections<'a> {
    container: Container<'a>,
    buf: &'a [u8],
    mapped: Option<ByteOwner>,
    verify: bool,
}

impl<'a> Sections<'a> {
    /// Payload bytes + optional mapped source for `name`, mirroring
    /// [`Container::section`]'s `Option<Result<..>>` contract.
    #[allow(clippy::type_complexity)]
    fn get(
        &self,
        name: [u8; 4],
        label: &'static str,
    ) -> Option<Result<(&'a [u8], Option<MappedPayload>), DecodeError>> {
        let range = if self.verify {
            match self.container.section_range(name, label)? {
                Ok(r) => r,
                Err(e) => return Some(Err(e)),
            }
        } else {
            self.container.section_range_trusted(name)?
        };
        let bytes = &self.buf[range.offset..range.offset + range.len];
        let src = self.mapped.as_ref().map(|owner| MappedPayload {
            owner: owner.clone(),
            base: range.offset,
        });
        Some(Ok((bytes, src)))
    }
}

fn load_container(
    buf: &[u8],
    mapped: Option<ByteOwner>,
    verify: bool,
) -> Result<LoadedModel, DecodeError> {
    let sections = Sections {
        container: Container::parse(buf)?,
        buf,
        mapped,
        verify,
    };
    let (core_bytes, _) = match sections.get(SECTION_MODEL, "MODL") {
        None => {
            return Err(DecodeError::new(
                DecodeErrorKind::Invalid("model container has no MODL section"),
                "container",
                0,
            ))
        }
        Some(res) => res?,
    };
    let mut r = Reader::new(core_bytes, "MODL");
    r.expect_magic(CORE_MAGIC)?;
    r.expect_version(CORE_VERSION)?;
    let core = get_core(&mut r)?;

    let mut warnings = Vec::new();
    // Lineage is advisory metadata: damage costs the provenance display,
    // never the model.
    let lineage = match sections.get(SECTION_LINEAGE, "TLIN") {
        None => None,
        Some(res) => match res.and_then(|(b, _)| get_lineage(&mut Reader::new(b, "TLIN"))) {
            Ok(l) => Some(l),
            Err(e) => {
                warnings.push(format!(
                    "training lineage unreadable ({e}); model loads without provenance"
                ));
                None
            }
        },
    };
    let index = match sections.get(SECTION_VECTORS, "VECS") {
        None => IndexState::None,
        Some(vecs) => match vecs.and_then(|(b, src)| decode_flat(b, "VECS", src.as_ref())) {
            Ok(flat) => restore_index(&sections, flat, &mut warnings),
            Err(e) => {
                warnings.push(format!(
                    "embedding vectors unrecoverable ({e}); \
                     loading without an index — re-index before searching"
                ));
                IndexState::None
            }
        },
    };
    let model = core.into_model(index, lineage);
    let section_info = section_report(&sections.container, &model);
    Ok(LoadedModel {
        model,
        warnings,
        sections: section_info,
    })
}

/// Per-section backing report for a freshly loaded model (`dj info`).
fn section_report(container: &Container<'_>, model: &DeepJoin) -> Vec<SectionInfo> {
    container
        .section_sizes()
        .into_iter()
        .map(|(name, bytes)| {
            let (mapped, resident) = match (&name, &model.index) {
                (b"VECS", IndexState::Hnsw(i)) => (
                    i.vectors_plane().is_mapped(),
                    i.vectors_plane().resident_bytes(),
                ),
                (b"VECS", IndexState::DegradedFlat { index, .. }) => {
                    (index.is_mapped(), index.plane().resident_bytes())
                }
                (b"HNSW", IndexState::Hnsw(i)) => {
                    (i.graph().is_mapped(), i.graph().resident_bytes())
                }
                (b"SQ8V", IndexState::Hnsw(i)) => match i.sq8() {
                    Some(p) => (p.is_mapped(), p.resident_bytes()),
                    None => (false, 0),
                },
                (b"SQ8V", IndexState::DegradedFlat { index, .. }) => match index.sq8() {
                    Some(p) => (p.is_mapped(), p.resident_bytes()),
                    None => (false, 0),
                },
                // The model core (and lineage) always decode to owned
                // structures; their heap cost ≈ the payload size.
                _ => (false, bytes),
            };
            SectionInfo {
                name: String::from_utf8_lossy(&name).into_owned(),
                bytes,
                mapped,
                resident,
            }
        })
        .collect()
}

/// Identity of a file's content for the validated-artifact cache.
#[cfg(unix)]
type FileStamp = (u64, u64, i64, i64, u64);

#[cfg(unix)]
fn file_stamp(path: &Path) -> Option<FileStamp> {
    use std::os::unix::fs::MetadataExt;
    let m = std::fs::metadata(path).ok()?;
    Some((m.dev(), m.ino(), m.mtime(), m.mtime_nsec(), m.len()))
}

#[cfg(unix)]
fn validated_cache() -> &'static Mutex<HashMap<PathBuf, FileStamp>> {
    static CACHE: OnceLock<Mutex<HashMap<PathBuf, FileStamp>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// True when `path` was fully CRC-verified by a previous load in this
/// process and is provably the same file content (device, inode, mtime,
/// size all unchanged) — the hot-reload fast path may then skip payload
/// CRCs, touching only header pages instead of the whole file.
#[cfg(unix)]
fn already_validated(path: &Path, stamp: &FileStamp) -> bool {
    validated_cache()
        .lock()
        .map(|c| c.get(path) == Some(stamp))
        .unwrap_or(false)
}

#[cfg(unix)]
fn record_validated(path: &Path, stamp: FileStamp) {
    if let Ok(mut c) = validated_cache().lock() {
        c.insert(path.to_path_buf(), stamp);
    }
}

/// Magic of the validation-stamp sidecar (`<artifact>.stamp`).
#[cfg(unix)]
const STAMP_MAGIC: &[u8; 4] = b"DJST";
#[cfg(unix)]
const STAMP_VERSION: u8 = 1;

/// Sidecar path for `artifact`: the artifact name with `.stamp` appended
/// (`model.djar` → `model.djar.stamp`), so the pair travels together.
#[cfg(unix)]
fn stamp_sidecar_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".stamp");
    PathBuf::from(s)
}

/// The stamp a previous *process* fully CRC-verified this artifact under,
/// if a well-formed sidecar is present. A missing, truncated, or
/// checksum-damaged sidecar simply means "not verified" — never an error.
#[cfg(unix)]
fn read_stamp_sidecar(path: &Path) -> Option<FileStamp> {
    let bytes = std::fs::read(stamp_sidecar_path(path)).ok()?;
    if bytes.len() != 49 || &bytes[..4] != STAMP_MAGIC || bytes[4] != STAMP_VERSION {
        return None;
    }
    let crc_stored = u32::from_le_bytes(bytes[45..49].try_into().ok()?);
    if deepjoin_store::crc32::crc32(&bytes[..45]) != crc_stored {
        return None;
    }
    let u = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    Some((u(5), u(13), u(21) as i64, u(29) as i64, u(37)))
}

/// Persist `stamp` so the *next process* can skip the payload CRC sweep on
/// an unchanged artifact — this is what makes cold start a remap instead
/// of a full re-read. Written via temp-file + atomic rename; best effort
/// (a read-only artifact directory just means the next start re-verifies).
#[cfg(unix)]
fn write_stamp_sidecar(path: &Path, stamp: &FileStamp) {
    let mut w = Writer::with_capacity(49);
    w.put_slice(STAMP_MAGIC);
    w.put_u8(STAMP_VERSION);
    w.put_u64_le(stamp.0);
    w.put_u64_le(stamp.1);
    w.put_u64_le(stamp.2 as u64);
    w.put_u64_le(stamp.3 as u64);
    w.put_u64_le(stamp.4);
    let bytes = w.into_vec();
    let crc = deepjoin_store::crc32::crc32(&bytes);
    let sidecar = stamp_sidecar_path(path);
    let tmp = sidecar.with_extension("stamp.tmp");
    let mut out = bytes;
    out.extend_from_slice(&crc.to_le_bytes());
    if std::fs::write(&tmp, &out).is_ok() {
        let _ = std::fs::rename(&tmp, &sidecar);
    }
}

/// The shared artifact loader every path-taking call site goes through
/// (`dj serve`, `dj info`, `dj query`, snapshot reload).
///
/// * The file is `mmap(2)`-ed and its index planes decoded as zero-copy
///   views of the mapping — cold start does no vector copy, and cold RSS
///   stays at the heap structures only. [`load_model`] over the same bytes
///   answers byte-identically.
/// * **Reloads of an unchanged file** (same device/inode/mtime/size as a
///   load already fully verified *and clean* — by this process, or by a
///   previous one via the `<artifact>.stamp` sidecar) skip the payload CRC
///   sweep, so a hot remap *and* a process restart cost milliseconds, not
///   a full re-read. Any change to the file (production writes go through
///   temp-file + rename, changing the inode) voids the stamp and forces a
///   full sweep; a degraded artifact re-verifies and re-warns on every
///   load. Delete the sidecar to force re-verification.
///
/// Errors carry the path and the failing stage, uniformly.
pub fn load_model_path(path: &Path) -> Result<LoadedModel, String> {
    let map = Mmap::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    #[cfg(unix)]
    let stamp = file_stamp(path);
    // Skip the payload CRC sweep when this exact file content was already
    // fully verified — by this process (hot reload) or by a previous one
    // that left a stamp sidecar (restart).
    #[cfg(unix)]
    let verify = stamp.as_ref().is_none_or(|s| {
        !already_validated(path, s) && read_stamp_sidecar(path).as_ref() != Some(s)
    });
    #[cfg(not(unix))]
    let verify = true;
    let owner: ByteOwner = Arc::new(map);
    let buf_owner = owner.clone();
    let buf: &[u8] = buf_owner.as_ref().as_ref();
    let loaded = load_container(buf, Some(owner), verify)
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    // Only a wholly clean load earns trust, in this process or the next: a
    // degraded artifact must re-verify (and re-warn) on every load.
    #[cfg(unix)]
    if let Some(s) = stamp.filter(|_| verify && loaded.warnings.is_empty()) {
        record_validated(path, s);
        write_stamp_sidecar(path, &s);
    }
    Ok(loaded)
}

/// Rebuild the search index from intact vectors plus whatever is left of
/// the graph section, degrading to exact flat search when the graph is
/// missing or damaged. An intact `SQ8V` section re-attaches the quantized
/// plane to whichever index comes out; a damaged or mismatched one only
/// costs the quantized fast path (exact f32 serves instead) and never
/// affects index health.
fn restore_index(
    sections: &Sections<'_>,
    mut flat: FlatIndex,
    warnings: &mut Vec<String>,
) -> IndexState {
    let sq8 = restore_sq8(sections, &flat, warnings);
    let (graph, graph_src) = match sections.get(SECTION_GRAPH, "HNSW") {
        None => {
            if let Some(plane) = sq8 {
                flat.attach_sq8(plane);
            }
            return IndexState::DegradedFlat {
                index: flat,
                reason: "snapshot carries vectors but no graph section \
                         (saved from a degraded model)"
                    .into(),
            };
        }
        Some(Ok(pair)) => pair,
        Some(Err(e)) => {
            warnings.push(format!(
                "HNSW graph failed verification ({e}); falling back to exact flat search"
            ));
            if let Some(plane) = sq8 {
                flat.attach_sq8(plane);
            }
            return IndexState::DegradedFlat {
                index: flat,
                reason: e.to_string(),
            };
        }
    };
    // Share the flat plane's backing with the graph index: for a mapped
    // load both view the same mapping; for heap both clone the decode.
    let vectors = flat.plane().clone();
    match decode_hnsw_graph(graph, "HNSW", vectors, graph_src.as_ref()) {
        Ok(mut index) => {
            if let Some(plane) = sq8 {
                index.attach_sq8(plane);
            }
            IndexState::Hnsw(index)
        }
        Err(e) => {
            warnings.push(format!(
                "HNSW graph failed verification ({e}); falling back to exact flat search"
            ));
            if let Some(plane) = sq8 {
                flat.attach_sq8(plane);
            }
            IndexState::DegradedFlat {
                index: flat,
                reason: e.to_string(),
            }
        }
    }
}

/// Decode the optional `SQ8V` section. Absence is normal (unquantized
/// snapshot); any failure — CRC, codec, or a shape that does not cover the
/// decoded vectors — degrades to exact f32 with a warning.
fn restore_sq8(
    sections: &Sections<'_>,
    flat: &FlatIndex,
    warnings: &mut Vec<String>,
) -> Option<Sq8Plane> {
    match sections.get(SECTION_SQ8, "SQ8V")? {
        Ok((bytes, src)) => match decode_sq8(bytes, "SQ8V", src.as_ref()) {
            Ok(plane) if plane.dim() == flat.dim() && plane.len() == flat.len() => Some(plane),
            Ok(_) => {
                warnings.push(
                    "SQ8 plane shape disagrees with the vectors; \
                     serving exact f32 instead"
                        .into(),
                );
                None
            }
            Err(e) => {
                warnings.push(format!(
                    "SQ8 quantized plane failed verification ({e}); \
                     serving exact f32 instead"
                ));
                None
            }
        },
        Err(e) => {
            warnings.push(format!(
                "SQ8 quantized plane failed verification ({e}); \
                 serving exact f32 instead"
            ));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IndexHealth;
    use crate::train::{FineTuneConfig, JoinType, TrainDataConfig};
    use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained() -> (DeepJoin, deepjoin_lake::Repository, Corpus) {
        let corpus = Corpus::generate(CorpusConfig::new(CorpusProfile::Webtable, 400, 3));
        let (repo, _) = corpus.to_repository();
        let cfg = DeepJoinConfig {
            variant: Variant::MpLite,
            dim: 24,
            sgns: deepjoin_embed::SgnsConfig {
                dim: 24,
                epochs: 1,
                ..Default::default()
            },
            fine_tune: FineTuneConfig {
                epochs: 1,
                ..Default::default()
            },
            data: TrainDataConfig {
                max_pairs: 1_000,
                ..Default::default()
            },
            ..DeepJoinConfig::default()
        };
        let (mut model, _) = DeepJoin::train(&repo, JoinType::Equi, cfg);
        model.index_repository(&repo);
        (model, repo, corpus)
    }

    /// A hand-assembled model small enough for exhaustive byte sweeps —
    /// no training, tiny vocabulary, tiny encoder.
    fn tiny_model() -> DeepJoin {
        let config = DeepJoinConfig {
            dim: 8,
            oov_buckets: 4,
            max_cells: 4,
            max_tokens: 16,
            ..DeepJoinConfig::default()
        };
        let vocab = Vocabulary::from_id_order(vec![
            ("alpha".to_string(), 3),
            ("beta".to_string(), 2),
        ]);
        let rows = vocab.len() + config.oov_buckets as usize;
        let enc_cfg = EncoderConfig {
            max_len: config.max_tokens,
            ..EncoderConfig::mp_lite(rows, config.dim, 7)
        };
        let encoder = ColumnEncoder::new(enc_cfg);
        let textizer = Textizer::new(config.transform, config.max_cells);
        DeepJoin {
            config,
            vocab,
            textizer,
            encoder,
            index: IndexState::None,
            lineage: Some(TrainLineage {
                epochs: 2,
                steps: 17,
                last_loss: 0.5,
                rollbacks: 1,
            }),
        }
    }

    fn tiny_indexed(n: usize) -> (DeepJoin, Vec<f32>) {
        let mut model = tiny_model();
        let mut rng = StdRng::seed_from_u64(13);
        let vectors: Vec<f32> = (0..n * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        model.index_embeddings(&vectors);
        (model, vectors)
    }

    #[test]
    fn roundtrip_preserves_embeddings_and_search() {
        let (model, _repo, corpus) = trained();
        let bytes = save_model(&model, true);
        let loaded = load_model(&bytes).unwrap();
        assert!(loaded.warnings.is_empty());
        assert_eq!(loaded.model.index_health(), IndexHealth::Hnsw);

        let (q, _) = corpus.sample_queries(1, 8).pop().unwrap();
        assert_eq!(model.embed_column(&q), loaded.model.embed_column(&q));
        let a: Vec<u32> = model.search(&q, 10).iter().map(|s| s.id.0).collect();
        let b: Vec<u32> = loaded.model.search(&q, 10).iter().map(|s| s.id.0).collect();
        assert_eq!(a, b);
        assert_eq!(loaded.model.indexed_len(), model.indexed_len());
    }

    #[test]
    fn roundtrip_without_index_can_reindex() {
        let (model, repo, corpus) = trained();
        let bytes = save_model(&model, false);
        let mut loaded = load_model(&bytes).unwrap().into_model();
        assert_eq!(loaded.indexed_len(), 0);
        assert_eq!(loaded.index_health(), IndexHealth::Missing);
        loaded.index_repository(&repo);
        let (q, _) = corpus.sample_queries(1, 9).pop().unwrap();
        let a: Vec<u32> = model.search(&q, 5).iter().map(|s| s.id.0).collect();
        let b: Vec<u32> = loaded.search(&q, 5).iter().map(|s| s.id.0).collect();
        assert_eq!(a, b, "re-indexing reproduces the same graph (same seed)");
    }

    #[test]
    fn graph_corruption_degrades_to_exact_flat_search() {
        let (model, vectors) = tiny_indexed(40);
        let bytes = save_model(&model, true);

        // The HNSW graph section is written last; flipping the final byte
        // damages only it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;

        let loaded = load_model(&bad).unwrap();
        assert_eq!(loaded.warnings.len(), 1, "degradation must be reported");
        assert!(loaded.warnings[0].contains("falling back to exact flat search"));
        assert!(matches!(
            loaded.model.index_health(),
            IndexHealth::DegradedFlat { .. }
        ));
        assert_eq!(loaded.model.indexed_len(), 40);

        // Degraded search is exact: it must agree with a brute-force scan
        // of the stored vectors.
        let mut rng = StdRng::seed_from_u64(5);
        let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let got: Vec<u32> = loaded
            .model
            .search_embedded(&q, 5)
            .iter()
            .map(|s| s.id.0)
            .collect();
        let mut scored: Vec<(f32, u32)> = vectors
            .chunks(8)
            .enumerate()
            .map(|(i, v)| {
                let d = v.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum::<f32>();
                (d, i as u32)
            })
            .collect();
        scored.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<u32> = scored.iter().take(5).map(|&(_, i)| i).collect();
        assert_eq!(got, expected);

        // A degraded model re-saves without a graph and reloads degraded —
        // degradation is sticky, not silently forgotten.
        let resaved = save_model(&loaded.model, true);
        let reloaded = load_model(&resaved).unwrap();
        assert!(matches!(
            reloaded.model.index_health(),
            IndexHealth::DegradedFlat { .. }
        ));
        let again: Vec<u32> = reloaded
            .model
            .search_embedded(&q, 5)
            .iter()
            .map(|s| s.id.0)
            .collect();
        assert_eq!(again, expected);
    }

    #[test]
    fn sq8_plane_roundtrips_through_save_load() {
        let (mut model, _) = tiny_indexed(40);
        assert!(model.quantize_sq8());
        assert!(model.sq8_resident_bytes().is_some());
        let bytes = save_model(&model, true);
        let loaded = load_model(&bytes).unwrap();
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.model.index_health(), IndexHealth::Hnsw);
        assert_eq!(
            loaded.model.sq8_resident_bytes(),
            model.sq8_resident_bytes(),
            "quantization must survive the round trip"
        );
        let mut rng = StdRng::seed_from_u64(77);
        let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let a: Vec<u32> = model.search_embedded(&q, 5).iter().map(|s| s.id.0).collect();
        let b: Vec<u32> = loaded
            .model
            .search_embedded(&q, 5)
            .iter()
            .map(|s| s.id.0)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sq8_corruption_degrades_to_exact_f32_not_index_loss() {
        let (mut model, _) = tiny_indexed(40);
        model.quantize_sq8();
        let bytes = save_model(&model, true);

        // Locate the SQ8V payload by re-encoding the attached plane.
        let IndexState::Hnsw(index) = &model.index else {
            unreachable!()
        };
        let payload = encode_sq8(index.sq8().unwrap());
        let pos = bytes
            .windows(payload.len())
            .position(|w| w == payload.as_slice())
            .expect("SQ8V payload present in the container");
        let mut bad = bytes.clone();
        bad[pos + payload.len() / 2] ^= 0x10;

        let loaded = load_model(&bad).unwrap();
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
        assert!(loaded.warnings[0].contains("SQ8 quantized plane failed verification"));
        // The quantized fast path is lost; the index itself is not.
        assert_eq!(loaded.model.index_health(), IndexHealth::Hnsw);
        assert_eq!(loaded.model.sq8_resident_bytes(), None);
        let IndexState::Hnsw(idx) = &mut model.index else {
            unreachable!()
        };
        idx.detach_sq8();
        let mut rng = StdRng::seed_from_u64(78);
        let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let a: Vec<u32> = model
            .search_embedded(&q, 5)
            .iter()
            .map(|s| s.id.0)
            .collect();
        let b: Vec<u32> = loaded
            .model
            .search_embedded(&q, 5)
            .iter()
            .map(|s| s.id.0)
            .collect();
        assert_eq!(a, b, "corrupt plane must serve exactly like unquantized");
    }

    #[test]
    fn vector_corruption_loads_without_index() {
        let (model, _) = tiny_indexed(20);
        let bytes = save_model(&model, true);

        // Locate the VECS payload by re-encoding it and searching.
        let IndexState::Hnsw(index) = &model.index else {
            unreachable!()
        };
        let flat = FlatIndex::from_plane(
            index.dim(),
            index.config().metric,
            index.vectors_plane().clone(),
        );
        let payload = encode_flat(&flat);
        let pos = bytes
            .windows(payload.len())
            .position(|w| w == payload.as_slice())
            .expect("VECS payload present in container");

        let mut bad = bytes.clone();
        bad[pos + payload.len() / 2] ^= 0x10;
        let loaded = load_model(&bad).unwrap();
        assert_eq!(loaded.model.index_health(), IndexHealth::Missing);
        assert_eq!(loaded.model.indexed_len(), 0);
        assert_eq!(loaded.warnings.len(), 1);
        assert!(loaded.warnings[0].contains("re-index before searching"));

        // The flipped f32 still decodes, so only the CRC can catch it: a
        // reload of the unchanged damaged file in the same process must
        // re-verify and re-warn, never take the trusted remap path.
        let path = write_temp(&bad, "damaged-vecs");
        for _ in 0..2 {
            let again = load_model_path(&path).unwrap();
            assert_eq!(again.warnings, loaded.warnings);
            assert_eq!(again.model.index_health(), IndexHealth::Missing);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_model_is_rejected() {
        let (model, _) = tiny_indexed(10);
        let bytes = save_model(&model, false);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = load_model(&bad).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMagic);
        assert!(load_model(&bytes[..bytes.len() / 2]).is_err());

        // Files of a retired generation are refused with a located error —
        // never a panic, never a heap fallback — on both loaders: a
        // version-1 (unpadded) container, and a pre-container whole file.
        let mut compact = bytes.clone();
        compact[4] = 1;
        let mut whole_file = b"DJM1\x01".to_vec();
        whole_file.extend_from_slice(&bytes[5..]);
        for (tag, old, want) in [
            ("compact", compact, DecodeErrorKind::BadVersion(1)),
            ("whole-file", whole_file, DecodeErrorKind::BadMagic),
        ] {
            let err = load_model(&old).unwrap_err();
            assert_eq!((err.kind, err.section), (want, "container"), "{tag}");
            let path = write_temp(&old, tag);
            let msg = load_model_path(&path).unwrap_err();
            assert!(msg.contains(&path.display().to_string()), "{msg}");
            assert!(msg.contains("section \"container\""), "{msg}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn truncation_and_bit_flips_never_panic() {
        let (model, _) = tiny_indexed(15);
        let bytes = save_model(&model, true);
        // Every strict prefix must fail cleanly.
        for cut in 0..bytes.len() {
            assert!(load_model(&bytes[..cut]).is_err());
        }
        // Every single-byte flip must load degraded, load clean, or error —
        // never panic; whatever loads must serve searches.
        let q = [0.25f32; 8];
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x80;
            if let Ok(loaded) = load_model(&bad) {
                if loaded.model.index_health() != IndexHealth::Missing {
                    let _ = loaded.model.search_embedded(&q, 3);
                }
            }
        }
    }

    #[test]
    fn saved_files_are_byte_stable() {
        let (model, _, _) = trained();
        assert_eq!(save_model(&model, true), save_model(&model, true));
    }

    #[test]
    fn lineage_roundtrips_and_degrades_gracefully() {
        let (model, _) = tiny_indexed(10);
        let bytes = save_model(&model, false);
        let loaded = load_model(&bytes).unwrap();
        assert!(loaded.warnings.is_empty());
        assert_eq!(loaded.model.lineage(), model.lineage());

        // Damage the TLIN payload (located by its DJTL magic): the model
        // must still load, with a warning and no lineage.
        let pos = bytes
            .windows(4)
            .position(|w| w == LINEAGE_MAGIC)
            .expect("lineage payload present");
        let mut bad = bytes.clone();
        bad[pos + 6] ^= 0x40;
        let loaded = load_model(&bad).unwrap();
        assert!(loaded.model.lineage().is_none());
        assert_eq!(loaded.warnings.len(), 1);
        assert!(loaded.warnings[0].contains("lineage unreadable"));

        // A trained model records real lineage that survives persistence.
        let (trained_model, _, _) = trained();
        let l = *trained_model.lineage().expect("training records lineage");
        assert!(l.epochs == 1 && l.steps > 0 && l.last_loss.is_finite());
        let reloaded = load_model(&save_model(&trained_model, false)).unwrap();
        assert_eq!(reloaded.model.lineage().copied(), Some(l));
    }

    fn write_temp(bytes: &[u8], tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dj-persist-map-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.djar");
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn index_hits(
        model: &DeepJoin,
        q: &[f32],
        k: usize,
        tombs: Option<&deepjoin_ann::TombSet>,
    ) -> Vec<(u32, u32)> {
        let req = deepjoin_ann::SearchRequest {
            queries: q,
            k,
            budget: &deepjoin_ann::Budget::unlimited(),
            deleted: tombs,
        };
        let r = match &model.index {
            IndexState::Hnsw(i) => i.search_wave(&req),
            IndexState::DegradedFlat { index, .. } => index.search_wave(&req),
            IndexState::None => panic!("model lost its index"),
        };
        r[0].hits.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    }

    /// The tentpole acceptance property: for every index shape the
    /// artifact can hold — healthy HNSW and degraded flat, with and
    /// without an SQ8 plane, with and without tombstone filtering — a
    /// mapped load and a heap load return byte-identical search results
    /// (same ids, same distance bits, same health, same warnings).
    #[test]
    fn mapped_and_heap_loads_search_byte_identically() {
        for quantize in [false, true] {
            for corrupt_graph in [false, true] {
                let (mut model, vectors) = tiny_indexed(48);
                if quantize {
                    assert!(model.quantize_sq8());
                }
                let mut bytes = save_model(&model, true);
                if corrupt_graph {
                    // Damage the HNSW payload so both loads must degrade
                    // to the exact flat fallback, identically.
                    let payload = match &model.index {
                        IndexState::Hnsw(i) => encode_hnsw_graph(i),
                        _ => unreachable!(),
                    };
                    let at = bytes
                        .windows(payload.len())
                        .position(|w| w == payload.as_slice())
                        .expect("graph payload present");
                    bytes[at + payload.len() / 2] ^= 1;
                }
                let tag = format!("q{}c{}", quantize as u8, corrupt_graph as u8);
                let path = write_temp(&bytes, &tag);

                let heap = load_model(&bytes).unwrap();
                let mapped = load_model_path(&path).unwrap();

                assert_eq!(heap.warnings, mapped.warnings, "{tag}");
                assert_eq!(
                    heap.model.index_health(),
                    mapped.model.index_health(),
                    "{tag}"
                );
                if corrupt_graph {
                    assert!(matches!(
                        mapped.model.index_health(),
                        IndexHealth::DegradedFlat { .. }
                    ));
                } else {
                    assert!(
                        mapped.sections.iter().any(|s| s.mapped),
                        "{tag}: mmap load reported no mapped section"
                    );
                }

                let tombs: deepjoin_ann::TombSet = [1u32, 5, 9].into_iter().collect();
                for qi in 0..4 {
                    let q = &vectors[qi * 8..(qi + 1) * 8];
                    for t in [None, Some(&tombs)] {
                        assert_eq!(
                            index_hits(&heap.model, q, 6, t),
                            index_hits(&mapped.model, q, 6, t),
                            "{tag} query {qi}"
                        );
                    }
                }
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// Drop the in-process validated cache so the next `load_model_path`
    /// behaves like a fresh process start.
    fn forget_in_process_validation() {
        validated_cache().lock().unwrap().clear();
    }

    #[test]
    fn stamp_sidecar_carries_validation_across_process_restarts() {
        let (model, vectors) = tiny_indexed(32);
        let bytes = save_model(&model, true);
        let path = write_temp(&bytes, "stamp");
        let sidecar = stamp_sidecar_path(&path);
        let _ = std::fs::remove_file(&sidecar);

        // A clean fully-verified load persists its stamp.
        let first = load_model_path(&path).unwrap();
        assert!(first.warnings.is_empty());
        assert!(sidecar.exists(), "clean load must write {}", sidecar.display());

        // "Restart": the in-process cache is gone, only the sidecar
        // remains. The load must still map the hot sections and answer
        // byte-identically.
        forget_in_process_validation();
        let restarted = load_model_path(&path).unwrap();
        assert!(restarted.warnings.is_empty());
        assert!(restarted.sections.iter().any(|s| s.mapped));
        let q = &vectors[..8];
        assert_eq!(
            index_hits(&first.model, q, 7, None),
            index_hits(&restarted.model, q, 7, None)
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn stale_stamp_never_masks_a_changed_artifact() {
        let (model, _) = tiny_indexed(32);
        let bytes = save_model(&model, true);
        let path = write_temp(&bytes, "stale-stamp");
        let sidecar = stamp_sidecar_path(&path);
        let _ = std::fs::remove_file(&sidecar);
        assert!(load_model_path(&path).unwrap().warnings.is_empty());
        assert!(sidecar.exists());

        // Rewrite the artifact with a damaged graph section. The write
        // changes the file stamp, so the sidecar no longer matches: the
        // next start must run the full CRC sweep, catch the damage, and
        // refuse to persist a new stamp for the degraded artifact.
        let payload = match &model.index {
            IndexState::Hnsw(i) => encode_hnsw_graph(i),
            _ => unreachable!(),
        };
        let at = bytes
            .windows(payload.len())
            .position(|w| w == payload.as_slice())
            .expect("graph payload present");
        let mut bad = bytes.clone();
        bad[at + payload.len() / 2] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        let before = std::fs::read(&sidecar).unwrap();

        forget_in_process_validation();
        let degraded = load_model_path(&path).unwrap();
        assert_eq!(degraded.warnings.len(), 1, "{:?}", degraded.warnings);
        assert!(matches!(
            degraded.model.index_health(),
            IndexHealth::DegradedFlat { .. }
        ));
        assert_eq!(
            std::fs::read(&sidecar).unwrap(),
            before,
            "a degraded load must not refresh the stamp"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn garbage_stamp_sidecar_is_ignored_and_replaced() {
        let (model, _) = tiny_indexed(24);
        let bytes = save_model(&model, true);
        let path = write_temp(&bytes, "junk-stamp");
        let sidecar = stamp_sidecar_path(&path);
        for junk in [&b""[..], &b"DJST"[..], &[0xFFu8; 49][..]] {
            std::fs::write(&sidecar, junk).unwrap();
            forget_in_process_validation();
            let loaded = load_model_path(&path).unwrap();
            assert!(loaded.warnings.is_empty());
            assert!(loaded.sections.iter().any(|s| s.mapped));
        }
        // The junk was replaced by a well-formed stamp the next start trusts.
        assert!(read_stamp_sidecar(&path).is_some());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn reloading_an_unchanged_artifact_stays_mapped_and_identical() {
        let (model, vectors) = tiny_indexed(32);
        let bytes = save_model(&model, true);
        let path = write_temp(&bytes, "remap");
        // First load verifies every section CRC and records the file
        // stamp; the second takes the trusted remap path. Both must map
        // the hot sections and answer identically.
        let first = load_model_path(&path).unwrap();
        let second = load_model_path(&path).unwrap();
        for loaded in [&first, &second] {
            assert!(loaded.warnings.is_empty());
            assert!(loaded.sections.iter().any(|s| s.mapped));
        }
        let q = &vectors[..8];
        assert_eq!(
            index_hits(&first.model, q, 7, None),
            index_hits(&second.model, q, 7, None)
        );
        let _ = std::fs::remove_file(&path);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// The saved image of every index shape, pinned byte for byte: HNSW
    /// over f32, HNSW + SQ8, and degraded (vectors + SQ8, no graph).
    #[test]
    fn saved_artifact_bytes_are_pinned() {
        let plain = DeepJoin::synthetic(300, 16, 7);
        let mut quantized = DeepJoin::synthetic(300, 16, 7);
        assert!(quantized.quantize_sq8());
        let mut degraded = DeepJoin::synthetic(300, 16, 7);
        let flat = match &degraded.index {
            IndexState::Hnsw(i) => {
                FlatIndex::from_plane(16, i.config().metric, i.vectors_plane().clone())
            }
            _ => unreachable!("synthetic models carry a graph"),
        };
        degraded.index = IndexState::DegradedFlat {
            index: flat,
            reason: "pinned".into(),
        };
        assert!(degraded.quantize_sq8());
        let got = [plain, quantized, degraded].map(|m| fnv1a(&save_model(&m, true)));
        assert_eq!(
            got,
            [0x1fa2_483f_7bcf_508b, 0x34ca_db3b_3c78_b644, 0xcb8f_000c_2ca5_c9da]
        );
    }
}
