//! The benchmark's contract with the codebase: every call into the
//! repository's crates is made from this file, and the entry points used are
//! listed in `benchmark/README.md`. A change that renames or removes one of
//! them has to touch this file and nothing else of the harness.
//!
//! Functions are named after the layer (crate::module) they enter.

use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

use deepjoin::live::LiveLake;
use deepjoin::model::{DeepJoin, DeepJoinConfig};
use deepjoin::persist::{load_model_path, save_model};
use deepjoin::serving::ServedModel;
use deepjoin::train::{FineTuneConfig, JoinType};
use deepjoin::trainer::TrainerConfig;
use deepjoin_ann::{Budget, Effort, FlatIndex, VectorIndex};
use deepjoin_lake::column::{Column, ColumnMeta};
use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
use deepjoin_lake::repository::Repository;
use deepjoin_serve::protocol::{self, Request, Response, MAX_FRAME};
use deepjoin_serve::ServeModel as _;
use deepjoin_store::{ArtifactIo as _, StdIo};

pub use deepjoin_serve::protocol::{ErrorCode, QueryReply, StatsReply};
pub use deepjoin_serve::Client;

/// Ranked hits as (column id, distance).
pub type Hits = Vec<(u32, f32)>;

// ---------------------------------------------------------------- simd

/// Name of the distance kernel runtime dispatch picked on this host.
pub fn simd_active_kernel() -> &'static str {
    deepjoin_simd::active_kernel().name()
}

/// `simd::l2_sq_block`: one query against `out.len()` rows.
pub fn simd_l2_sq_block(query: &[f32], rows: &[f32], out: &mut [f32]) {
    deepjoin_simd::l2_sq_block(query, rows, out);
}

// ---------------------------------------------------------------- lake

/// A generated lake, as `dj generate` + `load_lake` produce it.
pub struct Lake {
    pub corpus: Corpus,
    pub repo: Arc<Repository>,
}

/// `lake::corpus`: the same webtable lake `dj generate --tables N --seed S`
/// describes (the lake file stores only this config).
pub fn lake_generate(tables: usize, seed: u64) -> Lake {
    let corpus = Corpus::generate(CorpusConfig::new(CorpusProfile::Webtable, tables, seed));
    let (repo, _) = corpus.to_repository();
    Lake {
        corpus,
        repo: Arc::new(repo),
    }
}

/// A query as it travels: a column name and its cells. `column` is the
/// column the server builds from those two (no table title), so in-process
/// and over-the-wire runs embed exactly the same text.
pub struct Query {
    pub name: String,
    pub cells: Vec<String>,
    pub column: Column,
}

impl Query {
    pub fn over_the_wire(name: &str, cells: &[String]) -> Query {
        Query {
            name: name.to_string(),
            cells: cells.to_vec(),
            column: wire_column(name, cells),
        }
    }
}

fn wire_column(name: &str, cells: &[String]) -> Column {
    Column::new(
        cells.to_vec(),
        ColumnMeta {
            column_name: name.to_string(),
            ..ColumnMeta::default()
        },
    )
}

/// `lake::corpus::sample_queries`: `n` held-out columns, fresh draws from
/// the lake's catalog that are not in the repository.
pub fn lake_held_out_queries(lake: &Lake, n: usize, seed: u64) -> Vec<Query> {
    lake.corpus
        .sample_queries(n, seed)
        .into_iter()
        .map(|(col, _)| Query::over_the_wire(&col.meta.column_name, &col.cells))
        .collect()
}

/// The query column `dj search --query-index i` draws for itself.
pub fn lake_cli_query(lake: &Lake, index: usize) -> Column {
    lake.corpus
        .sample_queries(index + 1, 0x0BEE)
        .pop()
        .expect("sample_queries returns as many as asked")
        .0
}

/// A table to ingest into a live lake.
pub struct IngestTable {
    pub title: String,
    pub columns: Vec<(String, Vec<String>)>,
}

/// `n` tables of two columns each from a lake of their own; titles are made
/// unique so a drop names exactly one earlier add.
pub fn lake_ingest_tables(n: usize, seed: u64) -> Vec<IngestTable> {
    let corpus = Corpus::generate(CorpusConfig::new(CorpusProfile::Webtable, n, seed));
    corpus
        .tables
        .into_iter()
        .enumerate()
        .map(|(i, t)| IngestTable {
            title: format!("ingest {i} {}", t.title),
            columns: t.headers.into_iter().zip(t.columns).take(2).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------- core

pub struct Loaded {
    pub model: DeepJoin,
    pub warnings: Vec<String>,
    /// Bytes of sections served from the mapping.
    pub mapped_bytes: usize,
    /// Heap bytes the loaded model retains.
    pub resident_bytes: usize,
}

/// `core::persist::load_model_path`.
pub fn persist_load(path: &Path) -> Result<Loaded, String> {
    let loaded = load_model_path(path)?;
    let mapped_bytes = loaded
        .sections
        .iter()
        .filter(|s| s.mapped)
        .map(|s| s.bytes)
        .sum();
    let resident_bytes = loaded.sections.iter().map(|s| s.resident).sum();
    Ok(Loaded {
        model: loaded.model,
        warnings: loaded.warnings,
        mapped_bytes,
        resident_bytes,
    })
}

/// `core::persist::save_model` + the store's atomic write.
pub fn persist_save(model: &DeepJoin, path: &Path) -> Result<usize, String> {
    let bytes = save_model(model, true);
    StdIo
        .write_atomic(path, &bytes)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(bytes.len())
}

/// `core::text::Textizer::transform`.
pub fn text_transform(model: &DeepJoin, column: &Column) -> String {
    model.textizer().transform(column)
}

/// `core::model::DeepJoin::embed_column`.
pub fn model_embed(model: &DeepJoin, column: &Column) -> Vec<f32> {
    model.embed_column(column)
}

fn hits_of(scored: Vec<deepjoin_lake::joinability::ScoredColumn>) -> Hits {
    scored
        .into_iter()
        .map(|s| (s.id.0, -s.score as f32))
        .collect()
}

/// `core::model::DeepJoin::search`: embed, then search the index.
pub fn model_search(model: &DeepJoin, column: &Column, k: usize) -> Hits {
    hits_of(model.search(column, k))
}

/// `core::model::DeepJoin::search_embedded`: the search half of `search`.
pub fn model_search_plain(model: &DeepJoin, embedding: &[f32], k: usize) -> Hits {
    hits_of(model.search_embedded(embedding, k))
}

/// `core::model::DeepJoin::search_embedded_budgeted` with no deadline at the
/// given rung of the effort ladder (0 = full). Returns the hits and the
/// distance evaluations spent.
pub fn model_search_embedded(
    model: &DeepJoin,
    embedding: &[f32],
    k: usize,
    rung: u8,
) -> (Hits, usize) {
    let budget = Budget::unlimited().with_effort(Effort::from_rung(rung));
    let found = model.search_embedded_budgeted(embedding, k, &budget);
    (hits_of(found.hits), found.visited)
}

/// Distance between two embeddings under the model's index metric, in the
/// unit replies carry.
pub fn model_distance(model: &DeepJoin, a: &[f32], b: &[f32]) -> f32 {
    model.config().hnsw.metric.distance(a, b)
}

pub fn model_indexed_len(model: &DeepJoin) -> usize {
    model.indexed_len()
}

pub fn model_dim(model: &DeepJoin) -> usize {
    model.config().dim
}

/// `core::batch::encode_repository_parallel`.
pub fn batch_embed_lake(model: &DeepJoin, repo: &Repository, threads: usize) -> Vec<f32> {
    deepjoin::batch::encode_repository_parallel(model, repo, threads)
}

/// `core::model::DeepJoin::train_checkpointed` with the sample, optimizer
/// and epoch settings `dj train` uses. Returns the model and the number of
/// training pairs.
pub fn train_like_dj(lake: &Lake) -> (DeepJoin, usize) {
    let sample = lake
        .corpus
        .sample_queries((lake.repo.len() / 3).clamp(200, 3_000), 0x7EA1);
    let train_repo = Repository::from_columns(sample.into_iter().map(|(c, _)| c));
    let config = DeepJoinConfig {
        fine_tune: FineTuneConfig {
            epochs: 6,
            adam: deepjoin_nn::AdamConfig {
                lr: 5e-3,
                warmup_steps: 50,
                ..Default::default()
            },
            ..Default::default()
        },
        ..DeepJoinConfig::default()
    };
    let (model, report) = DeepJoin::train_checkpointed(
        &train_repo,
        JoinType::Equi,
        config,
        &TrainerConfig::default(),
        None,
    );
    (model, report.num_pairs)
}

/// `core::model::DeepJoin::index_embeddings_parallel` (HNSW construction).
pub fn model_index_embeddings(model: &mut DeepJoin, embeddings: &[f32], threads: usize) {
    model.index_embeddings_parallel(embeddings, threads);
}

/// `core::model::DeepJoin::quantize_sq8`.
pub fn model_quantize_sq8(model: &mut DeepJoin) -> bool {
    model.quantize_sq8()
}

/// `par::Pool::set_global_threads`: the pool in-process searches fan out on.
pub fn par_set_threads(threads: usize) {
    deepjoin_par::Pool::set_global_threads(threads);
}

// ---------------------------------------------------------------- ann

/// The exact twin: a flat f32 index over the lake's embeddings under the
/// model's metric. Every recall figure is measured against it.
pub struct Twin {
    index: FlatIndex,
}

impl Twin {
    pub fn new(model: &DeepJoin, embeddings: &[f32]) -> Twin {
        let mut index = FlatIndex::new(model.config().dim, model.config().hnsw.metric);
        index.add_batch(embeddings);
        Twin { index }
    }

    pub fn push(&mut self, embedding: &[f32]) -> u32 {
        self.index.add(embedding)
    }

    /// `ann::flat::FlatIndex::search`.
    pub fn search(&self, embedding: &[f32], k: usize) -> Hits {
        self.index
            .search(embedding, k)
            .into_iter()
            .map(|n| (n.id, n.distance))
            .collect()
    }

    pub fn rows(&self) -> &[f32] {
        self.index.data()
    }
}

// ---------------------------------------------------------------- core::serving

/// `core::serving::ServedModel` over a loaded model: the object `dj serve`
/// answers queries with, called in-process.
pub struct Served(ServedModel);

impl Served {
    pub fn new(model: DeepJoin, repo: Arc<Repository>) -> Served {
        Served(ServedModel::new(model, repo))
    }

    /// `ServeModel::query` with no deadline. Ids, distances and labels, as
    /// the wire reply carries them.
    pub fn query(&self, q: &Query, k: usize) -> Vec<(u32, f32, String)> {
        self.0
            .query(&q.cells, &q.name, k, &Budget::unlimited())
            .hits
            .into_iter()
            .map(|h| (h.id, h.score, h.label))
            .collect()
    }
}

// ---------------------------------------------------------------- core::live

/// `core::live::LiveLake` opened in-process over `dir`.
pub struct Live {
    lake: Arc<LiveLake>,
}

impl Live {
    /// `LiveLake::open`: recover (or create) the directory against `model`.
    pub fn open(dir: &Path, model: &DeepJoin) -> Result<Live, String> {
        let io: deepjoin_store::SharedIo = Arc::new(StdIo);
        let opened = LiveLake::open(io, dir.to_path_buf(), model)
            .map_err(|e| format!("open live lake {}: {e}", dir.display()))?;
        Ok(Live { lake: opened.lake })
    }

    /// `LiveLake::add_table`: embed, journal (fsync), publish.
    pub fn add_table(&self, model: &DeepJoin, table: &IngestTable) -> Result<(), String> {
        self.lake
            .add_table(model, &table.title, &table.columns)
            .map(|_| ())
            .map_err(|e| format!("add-table {}: {e}", table.title))
    }

    /// `LiveLake::flush`: memtable to an immutable segment.
    pub fn flush(&self) -> Result<bool, String> {
        self.lake.flush().map_err(|e| format!("flush: {e}"))
    }

    /// `LiveLake::compact`: merge the flushed segments.
    pub fn compact(&self) -> Result<bool, String> {
        self.lake.compact().map_err(|e| format!("compact: {e}"))
    }

    /// `LiveView::search`: scatter-gather over the live slabs.
    pub fn search(&self, embedding: &[f32], k: usize) -> usize {
        self.lake
            .view()
            .search(embedding, k, &Budget::unlimited())
            .hits
            .len()
    }

    pub fn slab_count(&self) -> usize {
        self.lake.view().slab_count()
    }
}

/// The embedding `LiveLake::add_table` stores for a column of `table`.
pub fn live_row_embedding(model: &DeepJoin, title: &str, name: &str, cells: &[String]) -> Vec<f32> {
    let col = Column::new(
        cells.to_vec(),
        ColumnMeta {
            table_title: title.to_string(),
            column_name: name.to_string(),
            ..ColumnMeta::default()
        },
    );
    model.embed_column(&col)
}

// ---------------------------------------------------------------- serve::protocol

/// `Request::Query::encode`: the payload of one query frame.
pub fn protocol_encode_query(
    q: &Query,
    k: u32,
    tenant: Option<&str>,
    request_id: Option<u64>,
) -> Vec<u8> {
    Request::Query {
        name: q.name.clone(),
        cells: q.cells.clone(),
        k,
        tenant: tenant.map(str::to_string),
        request_id,
    }
    .encode()
}

/// What a response frame said about one query.
pub enum Answer {
    Reply(QueryReply),
    /// A structured refusal: the code and the message.
    Refused(ErrorCode, String),
}

/// `Response::decode` for a frame that answers a query: the correlation id
/// (when the request carried one) and the answer. Anything else is an
/// unstructured response.
pub fn protocol_decode_answer(payload: &[u8]) -> Result<(Option<u64>, Answer), String> {
    match Response::decode(payload).map_err(|e| format!("undecodable response: {e}"))? {
        Response::Query(reply) => Ok((None, Answer::Reply(reply))),
        Response::Error(e) => Ok((None, Answer::Refused(e.code, e.message))),
        Response::QueryFor { request_id, reply } => Ok((
            Some(request_id),
            match reply {
                Ok(reply) => Answer::Reply(reply),
                Err(e) => Answer::Refused(e.code, e.message),
            },
        )),
        other => Err(format!("not a query answer: {other:?}")),
    }
}

/// `protocol::write_frame`. Over a bare `TcpStream` this is what
/// `serve::Client` does (two writes a frame); the open-loop generator passes
/// a `BufWriter` so a frame leaves in one.
pub fn protocol_write_frame(
    stream: &mut impl std::io::Write,
    payload: &[u8],
) -> std::io::Result<()> {
    protocol::write_frame(stream, payload)
}

/// `protocol::read_frame`; a closed connection is an error here.
pub fn protocol_read_frame(stream: &mut impl std::io::Read) -> Result<Vec<u8>, String> {
    match protocol::read_frame(stream, MAX_FRAME) {
        Ok(Some(payload)) => Ok(payload),
        Ok(None) => Err("server closed the connection".to_string()),
        Err(e) => Err(format!("read frame: {e}")),
    }
}

/// A raw connection for frame-level clients (same socket options as
/// `serve::Client`).
pub fn wire_connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// `serve::Client::connect`.
pub fn client_connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// `serve::Client::query`, flattened: a reply, a structured refusal, or a
/// transport/protocol failure.
pub fn client_query(client: &mut Client, q: &Query, k: u32) -> Result<Answer, String> {
    match client.query(&q.name, &q.cells, k) {
        Ok(reply) => Ok(Answer::Reply(reply)),
        Err(deepjoin_serve::ClientError::Server(e)) => Ok(Answer::Refused(e.code, e.message)),
        Err(e) => Err(e.to_string()),
    }
}

/// `serve::Client::add_table`.
pub fn client_add_table(client: &mut Client, table: &IngestTable) -> Result<u64, String> {
    client
        .add_table(&table.title, &table.columns)
        .map(|(_, applied)| applied)
        .map_err(|e| format!("add-table {}: {e}", table.title))
}

/// `serve::Client::drop_table`.
pub fn client_drop_table(client: &mut Client, title: &str) -> Result<u64, String> {
    client
        .drop_table(title)
        .map(|(_, applied)| applied)
        .map_err(|e| format!("drop-table {title}: {e}"))
}

/// `serve::Client::stats`.
pub fn client_stats(client: &mut Client) -> Result<StatsReply, String> {
    client.stats().map_err(|e| format!("stats: {e}"))
}

/// `serve::Client::ping`.
pub fn client_ping(client: &mut Client) -> Result<(), String> {
    client.ping().map_err(|e| format!("ping: {e}"))
}
