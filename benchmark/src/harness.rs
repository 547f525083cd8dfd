//! What every workload shares: the run's parameters, the metric tables, the
//! set-up that builds the artifact through the real `dj` binary, and recall
//! against the exact twin.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::layers::{self, Hits, Lake, Loaded, Query, Twin};
use crate::proc;
use crate::stats::{self, Summary};
use crate::trace::{self, NameStats, Span};

/// Neighbours asked for by every query of every workload.
pub const K: usize = 10;
/// Held-out query columns per run.
pub const QUERIES: usize = 2000;

/// End-to-end metrics, in the order they are printed: name, unit, and
/// whether higher is better. Every workload reports every one of them.
pub const END_TO_END: [(&str, &str, bool); 9] = [
    ("setup_s", "s", false),
    ("build_rss_mb", "MB", false),
    ("artifact_mb", "MB", false),
    ("query_p50_ms", "ms", false),
    ("goodput_qps", "1/s", true),
    ("answered_share", "share", true),
    ("recall_at_10", "share", true),
    ("serve_rss_mb", "MB", false),
    ("oneshot_p50_ms", "ms", false),
];

/// Per-layer metrics: name and unit. A traced run reports every one; a layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The tail of the workload's query latency: the highest of p99 / p95 /
    // p90 with ten samples beyond it. Too unsteady on a two-core host to
    // carry a bound, so it is reported here rather than end to end.
    ("query_tail_ms", "ms"),
    ("query_tail_percentile", "count"),
    // The build, stage by stage: through the binary, then replayed in-process.
    ("dj.generate_s", "s"),
    ("dj.train_s", "s"),
    ("dj.build_sq8_s", "s"),
    ("dj.info_first_ms", "ms"),
    // A stamp-trusted restart. End to end it is part of every `dj search` of
    // `lib_search`; on its own it is a 7 ms process, and the driver's host
    // scattered it by 30 %, so it is reported here.
    ("dj.info_stamped_ms", "ms"),
    ("lake.generate_s", "s"),
    ("core.train.train_s", "s"),
    ("core.train.pairs", "count"),
    ("core.batch.embed_lake_s", "s"),
    ("core.batch.embed_cols_per_s", "1/s"),
    ("ann.hnsw.build_s", "s"),
    ("ann.hnsw.build_rows_per_s", "1/s"),
    ("ann.sq8.quantize_s", "s"),
    ("core.persist.save_s", "s"),
    ("par.build_utilisation", "share"),
    ("core.persist.open_first_ms", "ms"),
    ("core.persist.open_stamped_ms", "ms"),
    ("core.persist.mapped_mb", "MB"),
    ("core.persist.resident_mb", "MB"),
    // One query, layer by layer.
    ("core.text.transform_us", "us"),
    ("core.model.embed_us", "us"),
    ("core.model.embed_p99_us", "us"),
    ("ann.hnsw.search_us", "us"),
    ("ann.hnsw.search_p99_us", "us"),
    ("ann.hnsw.evals_per_query", "count"),
    ("ann.hnsw.evals_share", "share"),
    ("ann.flat.scan_us", "us"),
    ("simd.l2_rows_per_s", "1/s"),
    ("ann.sq8.scan_us", "us"),
    // The serving stack.
    ("core.serving.query_us", "us"),
    ("serve.server.latency_p50_ms", "ms"),
    ("serve.wire_tax_us", "us"),
    ("serve.protocol.encode_query_us", "us"),
    ("serve.protocol.decode_reply_us", "us"),
    ("serve.protocol.query_bytes", "B"),
    ("serve.protocol.reply_bytes", "B"),
    ("serve.wire.roundtrip_us", "us"),
    ("serve.client.connect_ms", "ms"),
    ("serve.client.oneshot_tail_ms", "ms"),
    ("serve.server.startup_ms", "ms"),
    ("serve.server.threads", "count"),
    ("serve.server.cpu_us_per_query", "us"),
    ("serve.server.accepted", "count"),
    ("serve.server.shed", "count"),
    ("serve.server.expired", "count"),
    ("serve.server.degraded_answers", "count"),
    ("serve.server.cache_hits", "count"),
    ("serve.server.cache_misses", "count"),
    ("serve.server.dedup_hits", "count"),
    ("serve.server.evals_per_query", "count"),
    // Overload: the staircase, the brownout ladder, fairness.
    ("serve.slo_rate_qps", "1/s"),
    ("serve.step1.p50_ms", "ms"),
    ("serve.step1.tail_ms", "ms"),
    ("serve.step1.goodput_qps", "1/s"),
    ("serve.step1.failed_share", "share"),
    ("serve.step2.p50_ms", "ms"),
    ("serve.step2.tail_ms", "ms"),
    ("serve.step2.goodput_qps", "1/s"),
    ("serve.step2.failed_share", "share"),
    ("serve.step3.p50_ms", "ms"),
    ("serve.step3.tail_ms", "ms"),
    ("serve.step3.goodput_qps", "1/s"),
    ("serve.step3.failed_share", "share"),
    ("serve.step4.p50_ms", "ms"),
    ("serve.step4.tail_ms", "ms"),
    ("serve.step4.goodput_qps", "1/s"),
    ("serve.step4.failed_share", "share"),
    ("serve.step4.recall_at_10", "share"),
    ("serve.brownout.steps_down", "count"),
    ("serve.brownout.steps_up", "count"),
    ("serve.brownout.answers", "count"),
    ("serve.brownout.rung_max", "count"),
    ("serve.brownout.recall_at_10", "share"),
    ("serve.server.bucket_shed", "count"),
    ("serve.server.displaced", "count"),
    ("serve.server.codel_shed", "count"),
    ("serve.tenant.cold_answered_share", "share"),
    ("serve.client.sched_lag_p99_ms", "ms"),
    // The live lake: writes beside reads.
    ("core.live.ingest_ack_p50_ms", "ms"),
    ("core.live.ingest_ack_tail_ms", "ms"),
    ("core.live.add_table_us", "us"),
    ("core.live.flush_ms", "ms"),
    ("core.live.compact_ms", "ms"),
    ("ann.segmented.search_us", "us"),
    ("core.live.segments", "count"),
    ("core.live.wal_bytes", "B"),
    ("core.live.live_rows", "count"),
    ("core.live.pending_tombstones", "count"),
    ("core.live.disk_bytes_per_user_byte", "share"),
    ("core.live.reopen_ms", "ms"),
    // The harness itself.
    ("trace.overhead_share", "share"),
    ("trace.root_self_us", "us"),
    ("trace.spans", "count"),
];

/// Parameters of one run of one workload.
pub struct Ctx {
    pub workload: &'static str,
    pub dj: PathBuf,
    /// `benchmark/out`: result files, trace files, and the scratch directory.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub tables: usize,
    pub trace: bool,
    /// How many times the artifact is built; `setup_s` takes the median.
    pub setups: usize,
    pub started: Instant,
}

impl Ctx {
    /// Scratch directory of this run, removed on success.
    pub fn scratch(&self) -> PathBuf {
        self.out
            .join(format!("scratch-{}-{}", std::process::id(), self.workload))
    }

    /// Discarded lead-in of every timed window.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).clamp(0.2, 2.0))
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn note(&self, msg: &str) {
        eprintln!(
            "[{:7.2}s] {}: {msg}",
            self.started.elapsed().as_secs_f64(),
            self.workload
        );
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// A check that fails the command, not just a number.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
    /// True for checks of load calibration (does the staircase straddle this
    /// host's capacity?) rather than of the program's answers. They fail
    /// `run.sh run` but not the `correct` flag of a driver run, which must
    /// mean the same on a faster or slower host.
    pub calibration: bool,
}

impl Gate {
    pub fn check(name: &'static str, pass: bool, detail: impl Into<String>) -> Gate {
        Gate {
            name,
            pass,
            detail: detail.into(),
            calibration: false,
        }
    }

    pub fn calibration(name: &'static str, pass: bool, detail: impl Into<String>) -> Gate {
        Gate {
            calibration: true,
            ..Gate::check(name, pass, detail)
        }
    }
}

/// Requests of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: String,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// Per-layer values a workload measured; anything it leaves out reports 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, (f64, u64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not declared in PER_LAYER"
        );
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

/// The user-visible numbers of one workload's timed window.
#[derive(Debug, Clone, Default)]
pub struct Served {
    /// Query latency, ms.
    pub query: Summary,
    pub goodput_qps: f64,
    pub answered_share: f64,
    pub recall_at_10: f64,
    /// Peak resident set of the process that answered the queries.
    pub serve_rss_mb: f64,
    /// Wall time of one query from nothing: start or reach the program, ask,
    /// get the answer, leave.
    pub oneshot: Summary,
}

pub struct Outcome {
    pub workload: &'static str,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub gates: Vec<Gate>,
    pub phases: Vec<Phase>,
    /// Operations attempted / failed in the timed windows. A structured
    /// `Overloaded` refusal under deliberate overload is an answer the
    /// program is designed to give: it lowers `answered_share`, not this.
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn assemble(
        ctx: &Ctx,
        setup: &Setup,
        prep_s: f64,
        served: Served,
        layers: Layers,
        gates: Vec<Gate>,
        phases: Vec<Phase>,
    ) -> Outcome {
        let values = [
            (setup.pipeline_s + prep_s, setup.repeats as u64),
            (setup.train_rss_mb, setup.repeats as u64),
            (setup.artifact_bytes as f64 / (1024.0 * 1024.0), 1),
            (served.query.p50, served.query.samples),
            (served.goodput_qps, served.query.samples),
            (served.answered_share, served.query.samples),
            (served.recall_at_10, served.query.samples),
            (served.serve_rss_mb, 1),
            (served.oneshot.p50, served.oneshot.samples),
        ];
        let end_to_end = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), (value, samples))| Metric {
                name,
                unit,
                value,
                samples,
            })
            .collect();
        let mut layers = layers;
        if ctx.trace {
            setup.stage_layers(&mut layers);
            layers.set("query_tail_ms", served.query.tail, served.query.samples);
            layers.set(
                "query_tail_percentile",
                served.query.tail_p,
                served.query.samples,
            );
        }
        let mut all_gates = setup.gates.clone();
        all_gates.extend(gates);
        let attempted = phases.iter().map(|p| p.sent).sum::<u64>().max(1);
        let failed = phases.iter().map(|p| p.failed).sum();
        Outcome {
            workload: ctx.workload,
            end_to_end,
            per_layer: layers.metrics(),
            gates: all_gates,
            phases,
            attempted,
            failed,
        }
    }

    /// Did every check of the program's answers pass? Calibration gates are
    /// left to `strict`.
    pub fn correct(&self, strict: bool) -> bool {
        self.gates
            .iter()
            .all(|g| g.pass || (g.calibration && !strict))
    }
}

// ------------------------------------------------------------------ set-up

/// The artifact every workload runs against, built by the real binary:
/// `dj generate` -> `dj train --threads 2` -> `dj build --quantize sq8` ->
/// `dj info` (first open: CRC sweep, writes the stamp) and, in a traced run,
/// 20x `dj info` (stamp-trusted restarts).
pub struct Setup {
    pub lake_path: PathBuf,
    pub sq8_path: PathBuf,
    pub repeats: usize,
    /// Median wall of generate + train + build + first info.
    pub pipeline_s: f64,
    pub generate_s: f64,
    pub train_s: f64,
    pub build_sq8_s: f64,
    pub info_first_ms: f64,
    /// Peak resident set of `dj train`, median over the repeats.
    pub train_rss_mb: f64,
    /// CPU seconds of `dj train` over wall x threads.
    pub train_utilisation: f64,
    pub artifact_bytes: u64,
    /// Stamp-trusted `dj info` wall, ms, over every repeat of a traced run.
    pub info_stamped: Summary,
    pub gates: Vec<Gate>,
}

pub const TRAIN_THREADS: usize = 2;
const STAMPED_OPENS: usize = 20;

pub fn path_str(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

/// Build the artifact `ctx.setups` times into the scratch directory, keeping
/// the last build for the workload to use.
pub fn build_artifact(ctx: &Ctx) -> Result<Setup, String> {
    let scratch = ctx.scratch();
    let mut pipeline = Vec::new();
    let mut stages: [Vec<f64>; 4] = Default::default();
    let mut rss = Vec::new();
    let mut utilisation = Vec::new();
    let mut opens = Vec::new();
    let mut gates = Vec::new();
    let mut last = None;
    for rep in 0..ctx.setups {
        let dir = scratch.join(format!("artifact-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let lake = dir.join("t.lake");
        let model = dir.join("t.model");
        let sq8 = dir.join("t.sq8");
        let tables = ctx.tables.to_string();
        let seed = ctx.seed.to_string();
        let threads = TRAIN_THREADS.to_string();

        let gen = proc::run_stage(
            &ctx.dj,
            &[
                "generate",
                path_str(&lake),
                "--tables",
                &tables,
                "--profile",
                "webtable",
                "--seed",
                &seed,
            ],
            None,
        )?;
        let train = proc::run_stage(
            &ctx.dj,
            &[
                "train",
                path_str(&lake),
                path_str(&model),
                "--threads",
                &threads,
            ],
            Some(Duration::from_millis(10)),
        )?;
        let build = proc::run_stage(
            &ctx.dj,
            &[
                "build",
                path_str(&model),
                path_str(&sq8),
                "--quantize",
                "sq8",
            ],
            None,
        )?;
        let info = proc::run_stage(&ctx.dj, &["info", path_str(&sq8)], None)?;
        pipeline.push(gen.wall_s + train.wall_s + build.wall_s + info.wall_s);
        for (into, stage) in stages.iter_mut().zip([&gen, &train, &build, &info]) {
            into.push(stage.wall_s);
        }
        rss.push(train.last.peak_rss_mb);
        utilisation.push(train.last.cpu_s / (train.wall_s * TRAIN_THREADS as f64));
        if ctx.trace {
            for _ in 0..STAMPED_OPENS {
                opens.push(proc::run_stage(&ctx.dj, &["info", path_str(&sq8)], None)?.wall_s * 1e3);
            }
        }

        let searchable = gen
            .stdout
            .rsplit("-> ")
            .next()
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(0);
        let field = |key: &str| {
            info.stdout
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|rest| rest.trim_start_matches([' ', ':']).trim().to_string())
                .unwrap_or_default()
        };
        let indexed_cols = field("indexed cols").parse::<usize>().unwrap_or(0);
        if rep + 1 == ctx.setups {
            gates.push(Gate::check(
                "info.health_hnsw",
                field("index health") == "hnsw",
                format!("dj info reports index health '{}'", field("index health")),
            ));
            gates.push(Gate::check(
                "info.indexed_all",
                searchable > 0 && indexed_cols == searchable,
                format!(
                    "dj info reports {indexed_cols} indexed of {searchable} searchable columns"
                ),
            ));
            let warnings: Vec<&str> = [&train, &build, &info]
                .into_iter()
                .flat_map(|s| s.stderr.lines())
                .filter(|l| l.contains("warning"))
                .collect();
            gates.push(Gate::check(
                "info.no_warnings",
                warnings.is_empty(),
                format!(
                    "{} warning line(s) from train/build/info {:?}",
                    warnings.len(),
                    warnings.first()
                ),
            ));
            let artifact_bytes = std::fs::metadata(&sq8)
                .map_err(|e| format!("stat {}: {e}", sq8.display()))?
                .len();
            last = Some((lake, sq8, artifact_bytes));
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (lake_path, sq8_path, artifact_bytes) = last.ok_or("--setups must be at least 1")?;
    let med = |v: &[f64]| stats::median_of(v);
    Ok(Setup {
        lake_path,
        sq8_path,
        repeats: ctx.setups,
        pipeline_s: med(&pipeline),
        generate_s: med(&stages[0]),
        train_s: med(&stages[1]),
        build_sq8_s: med(&stages[2]),
        info_first_ms: med(&stages[3]) * 1e3,
        train_rss_mb: med(&rss),
        train_utilisation: med(&utilisation),
        artifact_bytes,
        info_stamped: stats::summarize(&mut opens),
        gates,
    })
}

impl Setup {
    /// The lake file, as a `dj` argument.
    pub fn lake(&self) -> &str {
        path_str(&self.lake_path)
    }

    /// The sq8 artifact, as a `dj` argument.
    pub fn sq8(&self) -> &str {
        path_str(&self.sq8_path)
    }

    /// The stage walls every traced run reports.
    fn stage_layers(&self, layers: &mut Layers) {
        let n = self.repeats as u64;
        layers.set("dj.generate_s", self.generate_s, n);
        layers.set("dj.train_s", self.train_s, n);
        layers.set("dj.build_sq8_s", self.build_sq8_s, n);
        layers.set("dj.info_first_ms", self.info_first_ms, n);
        layers.set(
            "dj.info_stamped_ms",
            self.info_stamped.p50,
            self.info_stamped.samples,
        );
        layers.set("par.build_utilisation", self.train_utilisation, n);
    }
}

// ------------------------------------------------------------------ twin

/// The lake, the held-out queries and the loaded artifact, in-process: what
/// the harness needs to judge answers (and, for `lib_search`, to produce them).
pub struct Bench {
    pub lake: Lake,
    pub queries: Vec<Query>,
    pub loaded: Loaded,
}

pub fn load_bench(ctx: &Ctx, setup: &Setup) -> Result<Bench, String> {
    let lake = layers::lake_generate(ctx.tables, ctx.seed);
    let queries = layers::lake_held_out_queries(&lake, QUERIES, ctx.seed + 1);
    let loaded = layers::persist_load(&setup.sq8_path)?;
    Ok(Bench {
        lake,
        queries,
        loaded,
    })
}

/// Exact top-k of every query over the artifact's own vectors.
pub struct Truth {
    pub twin: Twin,
    /// Query embeddings, parallel to the queries.
    pub embeddings: Vec<Vec<f32>>,
    pub top: Vec<Hits>,
}

/// The exact twin: a flat f32 index over the lake re-embedded with the
/// artifact's own model.
pub fn build_twin(bench: &Bench) -> Twin {
    let model = &bench.loaded.model;
    Twin::new(
        model,
        &layers::batch_embed_lake(model, &bench.lake.repo, TRAIN_THREADS),
    )
}

pub fn build_truth(bench: &Bench) -> Truth {
    let model = &bench.loaded.model;
    let twin = build_twin(bench);
    let embeddings: Vec<Vec<f32>> = bench
        .queries
        .iter()
        .map(|q| layers::model_embed(model, &q.column))
        .collect();
    let top = embeddings.iter().map(|e| twin.search(e, K)).collect();
    Truth {
        twin,
        embeddings,
        top,
    }
}

/// Share of the exact top-k an answer found.
pub fn recall(truth: &Hits, got: impl IntoIterator<Item = u32>) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let got: Vec<u32> = got.into_iter().collect();
    truth.iter().filter(|(id, _)| got.contains(id)).count() as f64 / truth.len() as f64
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

// ------------------------------------------------------------------ spans

/// Spans of a finished traced window, grouped by name, and written out.
pub struct TraceReport {
    pub by_name: BTreeMap<&'static str, NameStats>,
    pub spans: u64,
}

impl TraceReport {
    pub fn collect(ctx: &Ctx, tracers: Vec<Vec<Span>>) -> Result<TraceReport, String> {
        let mut by_name = BTreeMap::new();
        for spans in &tracers {
            trace::by_name(spans, &mut by_name);
        }
        let path = ctx.out.join(format!("trace-{}.jsonl", ctx.workload));
        trace::write_jsonl(&path, &tracers)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(TraceReport {
            by_name,
            spans: tracers.iter().map(|t| t.len() as u64).sum(),
        })
    }

    /// Median total time of a span name, us (0 when it never ran).
    pub fn p50_us(&self, name: &str) -> (f64, u64) {
        self.summary(name, false)
            .map_or((0.0, 0), |s| (s.p50, s.samples))
    }

    pub fn p99_us(&self, name: &str) -> (f64, u64) {
        self.by_name.get(name).map_or((0.0, 0), |s| {
            let mut v = s.total_us.clone();
            v.sort_by(f64::total_cmp);
            (stats::percentile(&v, 99.0), v.len() as u64)
        })
    }

    /// Median self time of a span name, us: its duration minus what its
    /// children cover. For a request's root span that is the harness's own
    /// code around the layer calls.
    pub fn self_p50_us(&self, name: &str) -> (f64, u64) {
        self.summary(name, true)
            .map_or((0.0, 0), |s| (s.p50, s.samples))
    }

    /// What the spans themselves cost: `traced / untraced - 1` of the two
    /// windows' median latencies, the span count, and (given the name of a
    /// request's root span) the harness's own time around the layer calls.
    pub fn harness_layers(
        &self,
        layers: &mut Layers,
        untraced_p50: Option<f64>,
        traced_p50: f64,
        root: Option<&str>,
    ) {
        let share = match untraced_p50 {
            Some(base) if base > 0.0 => traced_p50 / base - 1.0,
            _ => 0.0,
        };
        layers.set("trace.overhead_share", share, 1);
        layers.set("trace.spans", self.spans as f64, 1);
        if let Some(root) = root {
            let (us, n) = self.self_p50_us(root);
            layers.set("trace.root_self_us", us, n);
        }
    }

    fn summary(&self, name: &str, own: bool) -> Option<Summary> {
        let s = self.by_name.get(name)?;
        let mut v = if own {
            s.self_us.clone()
        } else {
            s.total_us.clone()
        };
        Some(stats::summarize(&mut v))
    }
}
