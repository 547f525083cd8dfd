//! `dj` — a small command-line front end for the DeepJoin library.
//!
//! ```text
//! dj generate <out.lake>  [--tables N] [--profile webtable|wikitable] [--seed S]
//! dj train    <in.lake> <out.model> [--join equi|semantic] [--tau T] [--variant mp|distil] [--epochs E] [--threads N]
//!             [--checkpoint-every N] [--checkpoint-dir DIR] [--resume DIR]
//! dj search   <in.lake> <in.model> [--k K] [--query-index I]
//! dj build    <in.model> <out.model> --quantize sq8
//! dj serve    <in.lake> <in.model> [--addr HOST:PORT] [--threads N] [--max-inflight M] [--deadline-ms D] [--query-cache N]
//!             [--live DIR] [--flush-rows N] [--compact-secs S] [--compact-min-segs N]
//!             [--replica-of HOST:PORT] [--sync-interval-ms MS] [--stale-after-ms MS] [--sync-chunk-bytes B]
//!             [--tenant-rate QPS] [--tenant-burst N] [--brownout-target-ms T] [--brownout-window-ms W] [--wave-width N]
//! dj query    <addr>[,<addr>...] --cells a,b,c [--cells ...] [--file F] [--depth D] [--name NAME] [--k K] [--tenant NAME]
//! dj ctl      <addr> ping|stats|reload [path]|shutdown
//! dj ctl      <addr> add-table <title> --columns "name:a|b|c;name2:x|y"
//! dj ctl      <addr> drop-table <title>
//! dj info     <in.model>
//! ```
//!
//! `dj serve --live DIR` enables crash-safe live ingest (DESIGN.md §13):
//! `dj ctl add-table` / `drop-table` journal mutations into `DIR` (WAL +
//! manifest + immutable segments) and take effect on the very next query
//! without a restart. A SIGKILL at any moment loses nothing that was
//! acknowledged: on restart the journal tail replays on top of the last
//! flushed manifest. `--flush-rows` bounds the in-memory write buffer,
//! and a background thread compacts small segments every `--compact-secs`
//! once `--compact-min-segs` of them exist (dropping tombstoned rows).
//!
//! `dj build --quantize sq8` rewrites a trained artifact with an SQ8
//! quantized vector plane (`SQ8V` section): searches generate candidates
//! over 1-byte codes and rescore survivors against the exact f32 vectors,
//! so distances stay exact while the plane takes ~4× less memory. A
//! quantized artifact serves and hot-reloads like any other; if its `SQ8V`
//! section is damaged the loader degrades to exact f32 with a warning.
//!
//! `dj serve --replica-of HOST:PORT` runs this server as a read-only
//! replica (DESIGN.md §15): it pulls snapshot generations (model artifact
//! plus sealed live segments, never the WAL) from the primary over the query
//! port, installs them with the same temp/fsync/rename discipline the
//! primary uses, and hot-reloads in O(ms). Every `dj serve` is a
//! sync-exporting primary by default, so replicas can point at any
//! server. Once the primary is unreachable past `--stale-after-ms`,
//! replica answers carry a `stale` health flag but keep serving. `dj
//! query` with a comma-separated address list fails over between
//! endpoints and hedges slow requests against a second one.
//!
//! `dj serve --query-cache N` keeps an LRU of the last N query embeddings
//! so repeated probes skip the encoder forward pass (hit/miss counters in
//! `dj ctl stats`).
//!
//! `dj query` accepts multiple queries — repeat `--cells`, or pass
//! `--file F` with one comma-separated query per line — and pipelines
//! them over ONE connection with up to `--depth` requests in flight
//! (DESIGN.md §17). The server packs concurrent queries into SIMD waves
//! and may answer out of order; the client re-correlates by request id,
//! so results always print in input order. Identical queries in one wave
//! are answered once (`wave dedup hits` in `dj ctl stats`). On the
//! server, `--wave-width N` caps how many admitted queries one worker
//! drains into a single batched wave (default 16).
//!
//! `dj serve` runs the TCP query server (DESIGN.md §11): admission control
//! sheds bursts past `--max-inflight` with structured `Overloaded` errors,
//! `--deadline-ms` bounds per-query compute (late queries return partial,
//! `degraded` results), SIGHUP hot-reloads the model artifact, and
//! SIGTERM/SIGINT drain gracefully. `dj query` / `dj ctl` are the matching
//! client.
//!
//! `--tenant-rate QPS` adds per-tenant token buckets in front of the
//! deficit-weighted fair admission queue (bucket size `--tenant-burst`,
//! default 16); queries carry their tenant via `dj query --tenant NAME`.
//! `--brownout-target-ms T` enables the CoDel-style brownout controller
//! (DESIGN.md §16): queue sojourn over `T` sustained for
//! `--brownout-window-ms` (default 4×T) sheds the heaviest tenant's newest
//! job and steps the answer-effort ladder down one rung; answers produced
//! below full effort carry a `(brownout-N)` label suffix and the
//! `degraded` flag. Per-tenant and brownout gauges show in `dj ctl stats`.
//!
//! `--threads N` caps the worker pool used for column encoding and index
//! construction (default: `available_parallelism`). Results are identical
//! for any thread count.
//!
//! `--checkpoint-every N` snapshots fine-tuning state every N optimizer
//! steps into a two-slot checkpoint directory (default `<out.model>.ckpt`,
//! override with `--checkpoint-dir`). `--resume DIR` restarts a killed run
//! from the newest intact checkpoint in `DIR`; the resumed model is
//! bit-identical to an uninterrupted run.
//!
//! Lakes are serialized corpora (the synthetic-generator output); models are
//! the binary format of `deepjoin::persist`. The CLI exists so the library
//! can be exercised end-to-end without writing Rust.

use std::path::Path;
use std::process::ExitCode;

use deepjoin::checkpoint::CheckpointStore;
use deepjoin::model::{DeepJoin, DeepJoinConfig, IndexHealth, Variant};
use deepjoin::persist::{load_model_path, save_model};
use deepjoin::train::{FineTuneConfig, JoinType};
use deepjoin::trainer::TrainerConfig;
use deepjoin_lake::corpus::{Corpus, CorpusConfig, CorpusProfile};
use deepjoin_lake::joinability::equi_joinability;
use deepjoin_lake::lakefile;
use deepjoin_lake::repository::Repository;
use deepjoin_serve::{Client, Server, ServerConfig};
use deepjoin_store::{ArtifactIo, StdIo};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "train" => cmd_train(&args[1..]),
        "search" => cmd_search(&args[1..]),
        "build" => cmd_build(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "ctl" => cmd_ctl(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "train-csv" => cmd_train_csv(&args[1..]),
        "search-csv" => cmd_search_csv(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dj generate <out.lake> [--tables N] [--profile webtable|wikitable] [--seed S]\n  dj train <in.lake> <out.model> [--join equi|semantic] [--tau T] [--variant mp|distil] [--epochs E] [--threads N] [--checkpoint-every N] [--checkpoint-dir DIR] [--resume DIR]\n  dj search <in.lake> <in.model> [--k K] [--query-index I]\n  dj build <in.model> <out.model> --quantize sq8\n  dj serve <in.lake> <in.model> [--addr HOST:PORT] [--threads N] [--max-inflight M] [--deadline-ms D] [--query-cache N] [--live DIR] [--flush-rows N] [--compact-secs S] [--compact-min-segs N] [--replica-of HOST:PORT] [--sync-interval-ms MS] [--stale-after-ms MS] [--sync-chunk-bytes B] [--tenant-rate QPS] [--tenant-burst N] [--brownout-target-ms T] [--brownout-window-ms W] [--wave-width N]\n  dj query <addr>[,<addr>...] --cells a,b,c [--cells ...] [--file F] [--depth D] [--name NAME] [--k K] [--tenant NAME]\n  dj ctl <addr> ping|stats|reload [path]|shutdown\n  dj ctl <addr> add-table <title> --columns \"name:a|b|c;name2:x|y\"\n  dj ctl <addr> drop-table <title>\n  dj train-csv <csv-dir> <out.model> [--join equi|semantic] [--epochs E] [--threads N]\n  dj search-csv <csv-dir> <in.model> --query <file.csv> [--column NAME] [--k K]\n  dj info <in.model>"
    );
    ExitCode::from(2)
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parse a numeric flag that must be ≥ 1, with actionable messages: a `0`
/// or a non-number names the flag, shows the offending value, and says how
/// to fix it — instead of a bare `ParseIntError` or a silent clamp.
fn parse_positive(args: &[String], name: &str, default_hint: &str) -> Result<Option<usize>, String> {
    let Some(raw) = flag(args, name) else {
        return Ok(None);
    };
    match raw.parse::<usize>() {
        Ok(0) => Err(format!(
            "{name} must be at least 1 (got 0); omit the flag to use the default ({default_hint})"
        )),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "{name} expects a whole number of at least 1, got '{raw}'"
        )),
    }
}

/// Like [`parse_positive`] but for flags where 0 is meaningful (e.g.
/// `--query-index 0` is the first query). Still rejects garbage with the
/// flag name and the offending value instead of a bare `ParseIntError`.
fn parse_nonnegative(
    args: &[String],
    name: &str,
    default_hint: &str,
) -> Result<Option<usize>, String> {
    let Some(raw) = flag(args, name) else {
        return Ok(None);
    };
    raw.parse::<usize>().map(Some).map_err(|_| {
        format!(
            "{name} expects a whole number of at least 0, got '{raw}'; \
             omit the flag to use the default ({default_hint})"
        )
    })
}

/// Clamp `k` to the number of indexed columns, warning when the request
/// asked for more than exists (asking for 50 neighbors in a 10-column lake
/// is well-defined, not an error).
fn clamp_k(k: usize, indexed: usize) -> usize {
    if k > indexed {
        eprintln!("warning: --k {k} exceeds the {indexed} indexed columns; returning {indexed}");
        indexed
    } else {
        k
    }
}

/// Parse `--threads` (default: `available_parallelism`), configure the
/// process-global pool with it, and return the count.
fn thread_budget(args: &[String]) -> Result<usize, String> {
    let n = parse_positive(args, "--threads", "all available cores")?
        .unwrap_or_else(|| deepjoin_par::Pool::auto().threads());
    deepjoin_par::Pool::set_global_threads(n);
    Ok(n)
}

/// Read a checksummed `DJLAKE2` lake file and regenerate its corpus.
fn load_lake(path: &str) -> Result<Corpus, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let config = lakefile::decode(&bytes).map_err(|e| format!("lake file {path}: {e}"))?;
    Ok(Corpus::generate(config))
}

/// Load a model snapshot through the shared zero-copy-capable loader,
/// surfacing any degradation warnings on stderr.
fn load_model_file(path: &str) -> Result<DeepJoin, Box<dyn std::error::Error>> {
    let loaded = load_model_path(Path::new(path))?;
    for w in &loaded.warnings {
        eprintln!("warning: {path}: {w}");
    }
    Ok(loaded.model)
}

/// Crash-safe write: temp file, fsync, atomic rename.
fn write_artifact(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    StdIo.write_atomic(Path::new(path), bytes)
}

fn cmd_generate(args: &[String]) -> CliResult {
    let out = args.first().ok_or("missing <out.lake>")?;
    let tables: usize = flag(args, "--tables").map_or(Ok(2_000), |v| v.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(42), |v| v.parse())?;
    let profile = match flag(args, "--profile").as_deref() {
        Some("wikitable") => CorpusProfile::Wikitable,
        _ => CorpusProfile::Webtable,
    };
    let config = CorpusConfig::new(profile, tables, seed);
    write_artifact(out, &lakefile::encode(&config))?;
    let corpus = Corpus::generate(config);
    let (repo, _) = corpus.to_repository();
    println!(
        "wrote {out}: {profile:?}, {tables} tables -> {} searchable columns",
        repo.len()
    );
    Ok(())
}

fn cmd_train(args: &[String]) -> CliResult {
    let lake = args.first().ok_or("missing <in.lake>")?;
    let out = args.get(1).ok_or("missing <out.model>")?;
    let corpus = load_lake(lake)?;
    let (repo, _) = corpus.to_repository();

    let join = match flag(args, "--join").as_deref() {
        Some("semantic") => {
            let tau: f64 = flag(args, "--tau").map_or(Ok(0.9), |v| v.parse())?;
            JoinType::Semantic { tau }
        }
        _ => JoinType::Equi,
    };
    let variant = match flag(args, "--variant").as_deref() {
        Some("distil") => Variant::DistilLite,
        _ => Variant::MpLite,
    };
    let epochs = parse_positive(args, "--epochs", "6")?.unwrap_or(6);
    let threads = thread_budget(args)?;
    let checkpoint_every =
        parse_positive(args, "--checkpoint-every", "checkpoint at epoch boundaries")?;
    // Any checkpoint-related flag enables the store; --resume names the
    // directory to continue from (and keep checkpointing into).
    let store_dir = flag(args, "--resume")
        .or_else(|| flag(args, "--checkpoint-dir"))
        .or_else(|| checkpoint_every.map(|_| format!("{out}.ckpt")));

    // Train on a fresh sample from the lake; index the repository.
    let train_cols = corpus.sample_queries((repo.len() / 3).clamp(200, 3_000), 0x7EA1);
    let train_repo = Repository::from_columns(train_cols.into_iter().map(|(c, _)| c));
    let config = DeepJoinConfig {
        variant,
        fine_tune: FineTuneConfig {
            epochs,
            adam: deepjoin_nn::AdamConfig {
                lr: 5e-3,
                warmup_steps: 50,
                ..Default::default()
            },
            ..Default::default()
        },
        ..DeepJoinConfig::default()
    };
    let trainer = TrainerConfig {
        checkpoint_every: checkpoint_every.unwrap_or(0),
        ..TrainerConfig::default()
    };
    let io = StdIo;
    let mut store = match &store_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            eprintln!("checkpointing into {dir}");
            Some(CheckpointStore::new(&io, dir.clone()))
        }
        None => None,
    };
    eprintln!("training {} on {} columns…", variant.name(), train_repo.len());
    let (mut model, report) =
        DeepJoin::train_checkpointed(&train_repo, join, config, &trainer, store.as_mut());
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    if let Some(step) = report.resumed_from {
        eprintln!("  resumed from checkpoint at step {step}");
    }
    eprintln!(
        "  {} positives, {} pairs, vocab {}, final loss {:.3}, {} rollback(s)",
        report.num_positives,
        report.num_pairs,
        report.vocab_size,
        report.epoch_losses.last().copied().unwrap_or(f32::NAN),
        report.rollbacks
    );
    eprintln!("indexing {} columns ({threads} threads)…", repo.len());
    model.index_repository_parallel(&repo, threads);
    write_artifact(out, &save_model(&model, true))?;
    println!("wrote {out} ({} bytes)", std::fs::metadata(out)?.len());
    Ok(())
}

fn cmd_search(args: &[String]) -> CliResult {
    let lake = args.first().ok_or("missing <in.lake>")?;
    let model_path = args.get(1).ok_or("missing <in.model>")?;
    let k = parse_positive(args, "--k", "10")?.unwrap_or(10);
    let qi = parse_nonnegative(args, "--query-index", "0, the first query")?.unwrap_or(0);

    let corpus = load_lake(lake)?;
    let (repo, _) = corpus.to_repository();
    let model = load_model_file(model_path)?;
    if model.indexed_len() == 0 {
        return Err("model was saved without an index".into());
    }
    let k = clamp_k(k, model.indexed_len());
    let (query, _) = corpus
        .sample_queries(qi + 1, 0x0BEE)
        .pop()
        .ok_or("no query")?;
    println!(
        "query: '{}' from '{}' ({} cells)",
        query.meta.column_name,
        query.meta.table_title,
        query.len()
    );
    for (rank, hit) in model.search(&query, k).iter().enumerate() {
        let col = repo.column(hit.id);
        println!(
            "#{rank:<3} {:<10} '{}' in '{}' (equi jn {:.2})",
            hit.id.to_string(),
            col.meta.column_name,
            col.meta.table_title,
            equi_joinability(&query, col)
        );
    }
    Ok(())
}

/// Flatten a CSV directory into a repository (every column, so the lake is
/// searchable on any attribute).
fn csv_repository(dir: &str) -> Result<Repository, Box<dyn std::error::Error>> {
    let tables = deepjoin_lake::csv::load_csv_dir(std::path::Path::new(dir))?;
    if tables.is_empty() {
        return Err(format!("no CSV tables found in {dir}").into());
    }
    Ok(Repository::from_tables(
        &tables,
        deepjoin_lake::ExtractionRule::All,
    ))
}

fn cmd_train_csv(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("missing <csv-dir>")?;
    let out = args.get(1).ok_or("missing <out.model>")?;
    let repo = csv_repository(dir)?;
    let join = match flag(args, "--join").as_deref() {
        Some("semantic") => JoinType::Semantic { tau: 0.9 },
        _ => JoinType::Equi,
    };
    let epochs = parse_positive(args, "--epochs", "6")?.unwrap_or(6);
    let threads = thread_budget(args)?;
    let config = DeepJoinConfig {
        fine_tune: FineTuneConfig {
            epochs,
            adam: deepjoin_nn::AdamConfig {
                lr: 5e-3,
                warmup_steps: 50,
                ..Default::default()
            },
            ..Default::default()
        },
        ..DeepJoinConfig::default()
    };
    eprintln!("training on {} columns from {dir}…", repo.len());
    let (mut model, report) = DeepJoin::train(&repo, join, config);
    eprintln!(
        "  {} positives, vocab {}",
        report.num_positives, report.vocab_size
    );
    model.index_repository_parallel(&repo, threads);
    write_artifact(out, &save_model(&model, true))?;
    println!("wrote {out} ({} bytes)", std::fs::metadata(out)?.len());
    Ok(())
}

fn cmd_search_csv(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("missing <csv-dir>")?;
    let model_path = args.get(1).ok_or("missing <in.model>")?;
    let query_file = flag(args, "--query").ok_or("missing --query <file.csv>")?;
    let k = parse_positive(args, "--k", "10")?.unwrap_or(10);

    let repo = csv_repository(dir)?;
    let model = load_model_file(model_path)?;
    let k = clamp_k(k, model.indexed_len());
    if model.indexed_len() != repo.len() {
        return Err(format!(
            "model indexes {} columns but {dir} has {} — retrain with train-csv",
            model.indexed_len(),
            repo.len()
        )
        .into());
    }
    let qtable = deepjoin_lake::csv::load_csv_file(std::path::Path::new(&query_file))?
        .ok_or("query CSV is empty")?;
    let col_idx = match flag(args, "--column") {
        Some(name) => qtable
            .headers
            .iter()
            .position(|h| h == &name)
            .ok_or_else(|| format!("no column '{name}' in {query_file}"))?,
        None => 0,
    };
    let query = qtable.extract_column(col_idx, None);
    println!(
        "query: '{}' from {query_file} ({} cells)",
        query.meta.column_name,
        query.len()
    );
    for (rank, hit) in model.search(&query, k).iter().enumerate() {
        let col = repo.column(hit.id);
        println!(
            "#{rank:<3} '{}' in '{}' (equi jn {:.2})",
            col.meta.column_name,
            col.meta.table_title,
            equi_joinability(&query, col)
        );
    }
    Ok(())
}

/// Rewrite a trained artifact with a derived plane — today that means
/// `--quantize sq8` (the SQ8 quantized vector plane). Reads the input
/// snapshot, quantizes the indexed vectors, and writes a new artifact with
/// the extra checksummed `SQ8V` section.
fn cmd_build(args: &[String]) -> CliResult {
    let input = args.first().ok_or("missing <in.model>")?;
    let out = args.get(1).ok_or("missing <out.model>")?;
    let scheme = flag(args, "--quantize")
        .ok_or("nothing to build: pass --quantize sq8")?;
    if scheme != "sq8" {
        return Err(format!("unknown quantization scheme '{scheme}': only sq8 is supported").into());
    }
    let mut model = load_model_file(input)?;
    if model.indexed_len() == 0 {
        return Err(format!("{input} was saved without an index; nothing to quantize").into());
    }
    let f32_bytes = model.indexed_len() * model.config().dim * std::mem::size_of::<f32>();
    if !model.quantize_sq8() {
        return Err("quantization failed: model has no index state".into());
    }
    let sq8_bytes = model
        .sq8_resident_bytes()
        .expect("plane attached by quantize_sq8");
    write_artifact(out, &save_model(&model, true))?;
    println!(
        "wrote {out} ({} bytes): sq8 plane {sq8_bytes} bytes vs {f32_bytes} f32 ({:.2}x smaller)",
        std::fs::metadata(out)?.len(),
        f32_bytes as f64 / sq8_bytes as f64
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let lake = args.first().ok_or("missing <in.lake>")?;
    let model_path = args.get(1).ok_or("missing <in.model>")?;
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let workers = thread_budget(args)?;
    let max_inflight = parse_positive(args, "--max-inflight", "32")?.unwrap_or(32);
    let deadline = parse_positive(args, "--deadline-ms", "no deadline")?
        .map(|ms| std::time::Duration::from_millis(ms as u64));
    let query_cache =
        parse_nonnegative(args, "--query-cache", "0, caching disabled")?.unwrap_or(0);
    let live_dir = flag(args, "--live");
    let flush_rows = parse_positive(args, "--flush-rows", "256")?
        .unwrap_or(deepjoin::live::DEFAULT_FLUSH_ROWS);
    let compact_secs = parse_positive(args, "--compact-secs", "5")?.unwrap_or(5);
    let compact_min_segs = parse_positive(args, "--compact-min-segs", "4")?.unwrap_or(4);
    let replica_of = flag(args, "--replica-of");
    let sync_interval = parse_positive(args, "--sync-interval-ms", "500")?.unwrap_or(500);
    let stale_after = parse_positive(args, "--stale-after-ms", "10000")?.unwrap_or(10_000);
    let sync_chunk = parse_positive(args, "--sync-chunk-bytes", "262144")?;
    // Overload controls (DESIGN.md §16). `parse_positive` rejects a
    // zero-capacity bucket or zero-length brownout timings up front with
    // an actionable message instead of a server that admits nothing.
    let tenant_rate = parse_positive(args, "--tenant-rate", "no per-tenant rate limit")?;
    let tenant_burst = parse_positive(args, "--tenant-burst", "16")?;
    let wave_width = parse_positive(args, "--wave-width", "16")?.unwrap_or(16);
    if tenant_burst.is_some() && tenant_rate.is_none() {
        return Err(
            "--tenant-burst sizes the per-tenant token bucket, which only exists with \
             --tenant-rate; add --tenant-rate N (queries/second) or drop --tenant-burst"
                .into(),
        );
    }
    let brownout_target = parse_positive(args, "--brownout-target-ms", "brownout disabled")?;
    let brownout_window = parse_positive(args, "--brownout-window-ms", "4x the target")?;
    if brownout_window.is_some() && brownout_target.is_none() {
        return Err(
            "--brownout-window-ms tunes the brownout controller, which only exists with \
             --brownout-target-ms; add --brownout-target-ms N or drop --brownout-window-ms"
                .into(),
        );
    }
    let brownout = brownout_target.map(|t| deepjoin_serve::BrownoutConfig {
        target: std::time::Duration::from_millis(t as u64),
        window: std::time::Duration::from_millis(brownout_window.unwrap_or(t * 4) as u64),
    });
    // Test hook: pretend to be a slow replica by stalling every query this
    // many milliseconds (exercises hedged clients without a slow machine).
    let debug_stall = std::env::var("DEEPJOIN_DEBUG_STALL_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(std::time::Duration::from_millis);

    // The lake provides the human-readable labels for hits; it is loaded
    // once and shared across model reloads.
    let corpus = load_lake(lake)?;
    let (repo, _) = corpus.to_repository();
    let repo = std::sync::Arc::new(repo);
    eprintln!("lake {lake}: {} columns", repo.len());

    let io: deepjoin_store::SharedIo = std::sync::Arc::new(StdIo);

    // Replica mode: the model artifact (and live directory, when given)
    // are *installed by sync*, not authored here — bootstrap a first
    // complete generation if the disk is empty, serve read-only, and keep
    // pulling generations in the background.
    if let Some(primary_addr) = replica_of {
        let replica_cfg = deepjoin_serve::ReplicaConfig {
            primary_addr: primary_addr.clone(),
            model_path: std::path::PathBuf::from(model_path),
            live_dir: live_dir.as_ref().map(|d| {
                let _ = std::fs::create_dir_all(d);
                std::path::PathBuf::from(d)
            }),
            interval: std::time::Duration::from_millis(sync_interval as u64),
            stale_after: std::time::Duration::from_millis(stale_after as u64),
            ..deepjoin_serve::ReplicaConfig::default()
        };
        let replica_cfg = match sync_chunk {
            Some(bytes) => deepjoin_serve::ReplicaConfig {
                chunk_len: bytes as u32,
                ..replica_cfg
            },
            None => replica_cfg,
        };
        let state = deepjoin_serve::ReplicationState::replica(replica_cfg.stale_after);
        if !Path::new(model_path).exists() {
            deepjoin_serve::bootstrap(io.clone(), &replica_cfg, &state)?;
            eprintln!("replica: bootstrapped first generation from {primary_addr}");
        }
        let loader = deepjoin::serving::replica_snapshot_loader(
            model_path.clone(),
            repo,
            query_cache,
            io.clone(),
            replica_cfg.live_dir.clone(),
        );
        let server = Server::start(
            ServerConfig {
                addr,
                workers,
                max_inflight,
                deadline,
                install_signal_handlers: true,
                replication: Some(state.clone()),
                debug_stall,
                tenant_rate: tenant_rate.map(|r| r as f64),
                tenant_burst: tenant_burst.unwrap_or(16) as f64,
                wave_width,
                brownout,
                ..ServerConfig::default()
            },
            loader,
        )?;
        for w in server.startup_warnings() {
            eprintln!("warning: {model_path}: {w}");
        }
        println!("dj-serve listening on {} (replica of {primary_addr})", server.local_addr()?);
        use std::io::Write as _;
        std::io::stdout().flush()?;
        let handle = server.handle();
        let sync_thread = std::thread::spawn({
            let io = io.clone();
            let state = state.clone();
            move || deepjoin_serve::run_sync_loop(io, &replica_cfg, &handle, &state)
        });
        server.run()?;
        let _ = sync_thread.join();
        eprintln!("dj-serve replica drained cleanly");
        return Ok(());
    }

    // With --live, open (and crash-recover) the live directory against the
    // model, then hand every snapshot the same lake so mutations survive
    // hot reloads. The compactor thread belongs to this function, not to
    // any snapshot: it runs for the server's whole life.
    let mut compactor = None;
    let loader = match &live_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let model = load_model_file(model_path)?;
            if model.indexed_len() == 0 {
                return Err(format!("{model_path} was saved without an index").into());
            }
            let opened = deepjoin::live::LiveLake::open_with_flush_rows(
                io.clone(),
                std::path::PathBuf::from(dir),
                &model,
                flush_rows,
            )?;
            for w in &opened.warnings {
                eprintln!("warning: {dir}: {w}");
            }
            let stats = opened.lake.stats();
            eprintln!(
                "live lake {dir}: {} segment(s), {} live row(s), {} pending tombstone(s)",
                stats.segments, stats.live_rows, stats.pending_tombstones
            );
            compactor = Some(opened.lake.spawn_compactor(
                std::time::Duration::from_secs(compact_secs as u64),
                compact_min_segs,
            ));
            deepjoin::serving::live_snapshot_loader(
                model_path.clone(),
                repo,
                query_cache,
                opened.lake,
            )
        }
        None => deepjoin::serving::snapshot_loader(model_path.clone(), repo, query_cache),
    };
    // Any server can be a sync-exporting primary: replicas poll the
    // generation+fingerprint and pull model artifacts plus sealed live
    // segments (never the WAL) over the query port.
    let sync_export = std::sync::Arc::new(deepjoin_serve::SyncExport::new(
        io.clone(),
        std::path::PathBuf::from(model_path),
        live_dir.as_ref().map(std::path::PathBuf::from),
    ));
    let server = Server::start(
        ServerConfig {
            addr,
            workers,
            max_inflight,
            deadline,
            install_signal_handlers: true,
            sync_export: Some(sync_export),
            replication: Some(deepjoin_serve::ReplicationState::primary()),
            debug_stall,
            tenant_rate: tenant_rate.map(|r| r as f64),
            tenant_burst: tenant_burst.unwrap_or(16) as f64,
            wave_width,
            brownout,
            ..ServerConfig::default()
        },
        loader,
    )?;
    for w in server.startup_warnings() {
        eprintln!("warning: {model_path}: {w}");
    }
    // The e2e tests (and scripts) parse this line for the bound port, so
    // it goes to stdout and is flushed before the accept loop starts.
    println!("dj-serve listening on {}", server.local_addr()?);
    use std::io::Write as _;
    std::io::stdout().flush()?;
    server.run()?;
    if let Some(c) = compactor {
        c.stop();
    }
    eprintln!("dj-serve drained cleanly");
    Ok(())
}

/// Parse `--columns "name:a|b|c;name2:x|y"` — columns split on `;`, the
/// name from its cells on the first `:`, cells on `|`.
fn parse_ctl_columns(spec: &str) -> Result<Vec<(String, Vec<String>)>, String> {
    let mut columns = Vec::new();
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let (name, cells) = part.split_once(':').ok_or_else(|| {
            format!("column spec '{part}' has no ':'; expected name:cell|cell|cell")
        })?;
        if name.is_empty() {
            return Err(format!("column spec '{part}' has an empty name"));
        }
        columns.push((
            name.to_string(),
            cells
                .split('|')
                .filter(|c| !c.is_empty())
                .map(str::to_string)
                .collect(),
        ));
    }
    if columns.is_empty() {
        return Err("no columns: pass --columns \"name:a|b|c;name2:x|y\"".to_string());
    }
    Ok(columns)
}

/// Collect the queries for `dj query`, one cell list each. Sources, in
/// priority order: every repeated `--cells a,b,c` occurrence is one query;
/// `--file F` adds one query per non-empty line (cells comma-separated);
/// with neither, stdin supplies a single query of one cell per line.
fn query_cell_sets(args: &[String]) -> Result<Vec<Vec<String>>, Box<dyn std::error::Error>> {
    let mut sets: Vec<Vec<String>> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--cells" {
            let joined = args
                .get(i + 1)
                .ok_or("--cells expects a comma-separated cell list")?;
            sets.push(joined.split(',').map(str::to_string).collect());
            i += 2;
        } else {
            i += 1;
        }
    }
    if let Some(path) = flag(args, "--file") {
        let body = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read --file {path}: {e}"))?;
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            sets.push(line.split(',').map(str::to_string).collect());
        }
        if sets.is_empty() {
            return Err(format!("--file {path} holds no queries (one per line)").into());
        }
    }
    if !sets.is_empty() {
        return Ok(sets);
    }
    use std::io::Read as _;
    let mut buf = String::new();
    std::io::stdin().read_to_string(&mut buf)?;
    let cells: Vec<String> = buf.lines().map(str::to_string).collect();
    if cells.is_empty() {
        return Err(
            "no query cells: pass --cells a,b,c (repeatable), --file F, or pipe one cell per line"
                .into(),
        );
    }
    Ok(vec![cells])
}

fn print_reply(reply: &deepjoin_serve::QueryReply) {
    println!(
        "generation {} | health {} | {}{}",
        reply.generation,
        reply.health_label,
        if reply.degraded { "DEGRADED" } else { "ok" },
        if reply.complete { "" } else { " (partial: deadline hit)" },
    );
    for (rank, hit) in reply.hits.iter().enumerate() {
        println!("#{rank:<3} col#{:<6} {:<30} dist {:.4}", hit.id, hit.label, hit.score);
    }
}

fn cmd_query(args: &[String]) -> CliResult {
    let addr = args.first().ok_or("missing <addr> (e.g. 127.0.0.1:7878)")?;
    let name = flag(args, "--name").unwrap_or_else(|| "query".to_string());
    let k = parse_positive(args, "--k", "10")?.unwrap_or(10);
    let depth = parse_positive(args, "--depth", "16 requests in flight")?.unwrap_or(16);
    let tenant = flag(args, "--tenant");
    let cell_sets = query_cell_sets(args)?;
    let multi = cell_sets.len() > 1;
    // Multiple queries ride ONE pipelined connection with up to --depth
    // requests in flight; responses may return out of order and are
    // re-correlated, so results always print in input order.
    let names: Vec<String> = if multi {
        (0..cell_sets.len()).map(|i| format!("{name}[{i}]")).collect()
    } else {
        vec![name.clone()]
    };
    let specs: Vec<deepjoin_serve::QuerySpec<'_>> = cell_sets
        .iter()
        .zip(&names)
        .map(|(cells, name)| deepjoin_serve::QuerySpec {
            name,
            cells,
            k: k as u32,
        })
        .collect();
    // A comma-separated address list enables failover + hedging: health
    // probes rank the endpoints (non-stale first, then freshest
    // generation), breakers skip dead ones, and a hedge fires a second
    // attempt when the first runs past the observed p99. Pipelined sets
    // skip hedging but keep ranked failover.
    let results: Vec<deepjoin_serve::QueryResult> = if addr.contains(',') {
        let endpoints: Vec<String> = addr
            .split(',')
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if tenant.is_some() {
            eprintln!("warning: --tenant is ignored on multi-endpoint queries");
        }
        let client = deepjoin_serve::MultiClient::new(deepjoin_serve::ClusterConfig {
            endpoints,
            ..deepjoin_serve::ClusterConfig::default()
        })?;
        if multi {
            let (results, endpoint) = client.query_many(&specs, depth)?;
            eprintln!("answered by {endpoint} (pipelined, depth {depth})");
            results
        } else {
            let routed = client.query(&names[0], &cell_sets[0], k as u32)?;
            let (fired, won) = client.hedge_counters();
            eprintln!(
                "answered by {}{}{}",
                routed.endpoint,
                if routed.hedged { " (hedged)" } else { "" },
                if fired > 0 {
                    format!(" | hedges fired {fired}, won {won}")
                } else {
                    String::new()
                },
            );
            vec![Ok(routed.reply)]
        }
    } else {
        let mut client = Client::connect(addr)?;
        client.set_tenant(tenant.as_deref());
        if multi {
            client.query_pipelined(&specs, depth)?
        } else {
            vec![Ok(client.query(&names[0], &cell_sets[0], k as u32)?)]
        }
    };
    let mut failed = 0usize;
    for (i, result) in results.iter().enumerate() {
        if multi {
            println!("== query {i} ({}) ==", names[i]);
        }
        match result {
            Ok(reply) => print_reply(reply),
            Err(e) => {
                failed += 1;
                println!("ERROR {:?}: {}", e.code, e.message);
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {} queries failed", results.len()).into());
    }
    Ok(())
}

fn cmd_ctl(args: &[String]) -> CliResult {
    let addr = args.first().ok_or("missing <addr>")?;
    let verb = args
        .get(1)
        .ok_or("missing verb: ping|stats|reload|shutdown|add-table|drop-table")?;
    let mut client = Client::connect(addr)?;
    match verb.as_str() {
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "stats" => {
            let s = client.stats()?;
            println!("generation      : {}", s.generation);
            println!("indexed cols    : {}", s.indexed);
            println!("index health    : {}", s.health_label);
            println!("accepted        : {}", s.accepted);
            println!("shed (overload) : {}", s.shed);
            println!("expired queued  : {}", s.expired);
            println!("degraded answers: {}", s.degraded_answers);
            println!("queue capacity  : {}", s.queue_capacity);
            println!("cache hits      : {}", s.cache_hits);
            println!("cache misses    : {}", s.cache_misses);
            if let Some(dedup) = s.dedup_hits {
                println!("wave dedup hits : {dedup}");
            }
            if let Some(us) = s.last_reload_micros {
                if us > 0 {
                    println!("last reload     : {:.3} ms", us as f64 / 1000.0);
                }
            }
            if let Some(live) = &s.live {
                println!("live segments   : {}", live.segments);
                println!("wal bytes       : {}", live.wal_bytes);
                println!("pending tombs   : {}", live.pending_tombstones);
                println!("live rows       : {}", live.live_rows);
            }
            if let Some(r) = &s.replication {
                let role = if r.role == deepjoin_serve::ROLE_PRIMARY {
                    "primary"
                } else {
                    "replica"
                };
                println!("role            : {role}");
                println!("primary gen     : {}", r.primary_generation);
                println!("synced gen      : {}", r.synced_generation);
                println!("lag generations : {}", r.lag_generations);
                println!("lag seconds     : {}", r.lag_seconds);
                println!("syncs completed : {}", r.syncs);
                if r.syncs > 0 {
                    println!(
                        "last sync       : {:.3} ms, {} bytes",
                        r.last_sync_micros as f64 / 1000.0,
                        r.last_sync_bytes
                    );
                }
                println!("stale           : {}", r.stale);
            }
            if let Some(o) = &s.overload {
                println!("brownout rung   : {}", o.brownout_rung);
                println!(
                    "brownout steps  : {} down, {} up",
                    o.brownout_steps_down, o.brownout_steps_up
                );
                println!("brownout answers: {}", o.brownout_answers);
                println!("bucket shed     : {}", o.bucket_shed);
                println!("displaced       : {}", o.displaced);
                println!("codel shed      : {}", o.codel_shed);
                for t in &o.tenants {
                    println!(
                        "tenant {:<16}: accepted {} shed {} p50 {:.3} ms p99 {:.3} ms",
                        t.name,
                        t.accepted,
                        t.shed,
                        t.p50_micros as f64 / 1000.0,
                        t.p99_micros as f64 / 1000.0
                    );
                }
            }
        }
        "reload" => {
            let (generation, warnings) = client.reload(args.get(2).map(String::as_str))?;
            for w in warnings {
                eprintln!("warning: {w}");
            }
            println!("reloaded: generation {generation}");
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server draining");
        }
        "add-table" => {
            let title = args.get(2).ok_or("missing <title>")?;
            let spec = flag(args, "--columns")
                .ok_or("missing --columns \"name:a|b|c;name2:x|y\"")?;
            let columns = parse_ctl_columns(&spec)?;
            let (seq, applied) = client.add_table(title, &columns)?;
            println!("added {applied} column(s) to '{title}' (journal seq {seq})");
        }
        "drop-table" => {
            let title = args.get(2).ok_or("missing <title>")?;
            let (seq, applied) = client.drop_table(title)?;
            println!("dropped {applied} column(s) of '{title}' (journal seq {seq})");
        }
        other => {
            return Err(format!(
                "unknown ctl verb '{other}': ping|stats|reload|shutdown|add-table|drop-table"
            )
            .into())
        }
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let model_path = args.first().ok_or("missing <in.model>")?;
    let loaded = load_model_path(Path::new(model_path))?;
    for w in &loaded.warnings {
        eprintln!("warning: {model_path}: {w}");
    }
    let sections = loaded.sections;
    let model = loaded.model;
    let cfg = model.config();
    println!("variant       : {:?}", cfg.variant);
    println!("dim           : {}", cfg.dim);
    println!("transform     : {}", cfg.transform.name());
    println!("max cells     : {}", cfg.max_cells);
    println!("max tokens    : {}", cfg.max_tokens);
    println!("oov buckets   : {}", cfg.oov_buckets);
    println!("vocab size    : {}", model.vocabulary().len());
    println!("indexed cols  : {}", model.indexed_len());
    match model.index_health() {
        IndexHealth::DegradedFlat { reason } => {
            println!("index health  : degraded-flat ({reason})");
        }
        health => println!("index health  : {}", health.label()),
    }
    match model.sq8_resident_bytes() {
        Some(b) => {
            let f32_bytes = model.indexed_len() * cfg.dim * std::mem::size_of::<f32>();
            println!(
                "quantization  : sq8 ({b} bytes resident, {:.2}x smaller than f32)",
                f32_bytes as f64 / b.max(1) as f64
            );
        }
        None => println!("quantization  : none (exact f32)"),
    }
    if !sections.is_empty() {
        println!("sections      :");
        for s in &sections {
            let backing = if s.mapped {
                "mapped (zero-copy)".to_string()
            } else {
                format!("{} bytes resident", s.resident)
            };
            println!("  {:<4}        : {} bytes on disk, {backing}", s.name, s.bytes);
        }
    }
    match model.lineage() {
        Some(l) => println!(
            "training      : {} epoch(s), {} step(s), final loss {:.3}, {} rollback(s)",
            l.epochs, l.steps, l.last_loss, l.rollbacks
        ),
        None => println!("training      : unknown (snapshot predates lineage tracking)"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flag_finds_values() {
        let args = argv(&["in.lake", "out.model", "--epochs", "4", "--threads", "2"]);
        assert_eq!(flag(&args, "--epochs").as_deref(), Some("4"));
        assert_eq!(flag(&args, "--threads").as_deref(), Some("2"));
        assert_eq!(flag(&args, "--k"), None);
        // Trailing flag with no value.
        assert_eq!(flag(&argv(&["--epochs"]), "--epochs"), None);
    }

    #[test]
    fn parse_positive_accepts_valid_and_defaults() {
        let args = argv(&["--epochs", "4"]);
        assert_eq!(parse_positive(&args, "--epochs", "6").unwrap(), Some(4));
        assert_eq!(parse_positive(&args, "--threads", "auto").unwrap(), None);
    }

    #[test]
    fn parse_positive_rejects_zero_with_actionable_message() {
        for name in ["--threads", "--epochs", "--checkpoint-every"] {
            let args = argv(&[name, "0"]);
            let err = parse_positive(&args, name, "the default").unwrap_err();
            assert!(err.contains(name), "message names the flag: {err}");
            assert!(err.contains("at least 1"), "message says the bound: {err}");
            assert!(err.contains("omit the flag"), "message says the fix: {err}");
        }
    }

    #[test]
    fn parse_nonnegative_accepts_zero_and_rejects_garbage() {
        assert_eq!(
            parse_nonnegative(&argv(&["--query-index", "0"]), "--query-index", "0").unwrap(),
            Some(0)
        );
        assert_eq!(
            parse_nonnegative(&argv(&["--query-index", "7"]), "--query-index", "0").unwrap(),
            Some(7)
        );
        assert_eq!(parse_nonnegative(&argv(&[]), "--query-index", "0").unwrap(), None);
        for bad in ["abc", "-1", "2.5"] {
            let err =
                parse_nonnegative(&argv(&["--query-index", bad]), "--query-index", "0").unwrap_err();
            assert!(err.contains("--query-index"), "{err}");
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
    }

    #[test]
    fn ctl_columns_spec_parses_and_rejects_garbage() {
        let cols = parse_ctl_columns("id:1|2|3;sku:a|b").unwrap();
        assert_eq!(
            cols,
            vec![
                ("id".to_string(), vec!["1".into(), "2".into(), "3".into()]),
                ("sku".to_string(), vec!["a".into(), "b".into()]),
            ]
        );
        // Empty cells are allowed (a column of no values is still a column).
        assert_eq!(parse_ctl_columns("empty:").unwrap()[0].1.len(), 0);
        assert!(parse_ctl_columns("no-colon").is_err());
        assert!(parse_ctl_columns(":cells|but|no|name").is_err());
        assert!(parse_ctl_columns("").is_err());
    }

    #[test]
    fn clamp_k_caps_at_index_size() {
        // k larger than the index clamps (with a warning on stderr);
        // anything within bounds passes through untouched.
        assert_eq!(clamp_k(50, 10), 10);
        assert_eq!(clamp_k(10, 10), 10);
        assert_eq!(clamp_k(3, 10), 3);
        assert_eq!(clamp_k(1, 0), 0);
    }

    #[test]
    fn parse_positive_rejects_garbage_with_the_value_shown() {
        for bad in ["abc", "-3", "1.5", ""] {
            let args = argv(&["--checkpoint-every", bad]);
            let err = parse_positive(&args, "--checkpoint-every", "x").unwrap_err();
            assert!(err.contains("--checkpoint-every"), "{err}");
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
    }
}
