//! `lib_search`: everything a user does without a server. Most of the window
//! is in-process, one thread, closed loop: `load_model_path(sq8 artifact)`,
//! then `DeepJoin::search(&column, 10)` cycling the held-out columns. The rest
//! is the command line: one-shot `dj search` processes, one after another.
//!
//! Why: the library loop is the paper's own Tables 13-15 measurement. Encoder
//! and ANN are about all of the time and `serve` is bypassed, so an
//! `ann`/`nn`/`simd` gain shows undiluted here and a serving-stack change
//! predicts no movement. Each `dj search` pays process start, lake
//! regeneration and the stamp-trusted artifact open before it embeds and
//! searches, so an open-path change shows in the one-shot figure here and
//! nowhere in the serving workloads. The traced run also replays the build
//! in-process, layer by layer.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::harness::{
    self, Bench, Ctx, Gate, Layers, Outcome, Phase, Served, TraceReport, Truth, K,
};
use crate::layers;
use crate::proc::{self, OneCpu};
use crate::stats;
use crate::trace::Tracer;

struct Window {
    latency_ms: Vec<f64>,
    /// First answer to each query, by query index.
    answers: Vec<Option<Vec<u32>>>,
    short: u64,
    /// When each full answer was ready, seconds since the window opened.
    done_s: Vec<f64>,
}

fn search_window(bench: &Bench, window: Duration, tracer: &mut Tracer, traced: bool) -> Window {
    let model = &bench.loaded.model;
    let mut w = Window {
        latency_ms: Vec::new(),
        answers: vec![None; bench.queries.len()],
        short: 0,
        done_s: Vec::new(),
    };
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < window {
        let qi = i % bench.queries.len();
        let column = &bench.queries[qi].column;
        let t0 = Instant::now();
        // The traced loop makes the two calls `DeepJoin::search` makes, so
        // each half gets its own span.
        let hits = if traced {
            tracer.span("lib.query", i as u64, |t| {
                let e = t.span("core.model.embed", i as u64, |_| {
                    layers::model_embed(model, column)
                });
                t.span("ann.hnsw.search", i as u64, |_| {
                    layers::model_search_plain(model, &e, K)
                })
            })
        } else {
            layers::model_search(model, black_box(column), K)
        };
        w.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if hits.len() == K {
            w.done_s.push(start.elapsed().as_secs_f64());
        } else {
            w.short += 1;
        }
        if w.answers[qi].is_none() {
            w.answers[qi] = Some(hits.iter().map(|h| h.0).collect());
        } else {
            black_box(&hits);
        }
        i += 1;
    }
    w
}

/// Share of every window the library loop gets; `dj search` gets the rest.
const LIBRARY_SHARE: f64 = 0.6;
/// `dj search --query-index` values cycled through; the index is also how
/// many tables `dj` generates to reach its query, so it stays small.
const CLI_QUERIES: usize = 40;

/// What the one-shot `dj search` processes of one window did.
#[derive(Default)]
struct Cli {
    /// Spawn to exit of each, ms, in order.
    wall_ms: Vec<f64>,
    /// (query index, ids printed), first answer per index.
    answers: Vec<(usize, Vec<u32>)>,
    malformed: u64,
}

/// Column ids from the ranked lines of `dj search` (`#0   col#828  ...`).
fn parse_hits(stdout: &str) -> Vec<u32> {
    stdout
        .lines()
        .filter(|l| l.starts_with('#'))
        .filter_map(|l| l.split("col#").nth(1))
        .filter_map(|rest| rest.split_whitespace().next()?.parse().ok())
        .collect()
}

/// One query from nothing, the way a shell user asks it: `dj search <lake>
/// <sq8> --k 10 --query-index i`, over and over until `window` has passed.
fn cli_window(
    ctx: &Ctx,
    setup: &harness::Setup,
    window: Duration,
    tracer: &mut Tracer,
) -> Result<Cli, String> {
    let (lake, sq8) = (setup.lake(), setup.sq8());
    let k = K.to_string();
    let mut cli = Cli::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < window {
        let qi = i % CLI_QUERIES;
        let index = qi.to_string();
        let stage = tracer.span("dj.search", i as u64, |_| {
            proc::run_stage(
                &ctx.dj,
                &["search", lake, sq8, "--k", &k, "--query-index", &index],
                None,
            )
        })?;
        cli.wall_ms.push(stage.wall_s * 1e3);
        let hits = parse_hits(&stage.stdout);
        if hits.len() != K {
            cli.malformed += 1;
        }
        if i < CLI_QUERIES {
            cli.answers.push((qi, hits));
        }
        i += 1;
    }
    Ok(cli)
}

/// The build replayed in-process, one span per layer. Returns the number of
/// rows embedded and indexed.
fn replay_build(ctx: &Ctx, tracer: &mut Tracer, layers_out: &mut Layers) -> Result<usize, String> {
    let threads = harness::TRAIN_THREADS;
    let artifact = ctx.scratch().join("replay.sq8");
    let (rows, pairs) = tracer.span("build.replay", 0, |t| -> Result<(usize, usize), String> {
        let lake = t.span("lake.generate", 0, |_| {
            layers::lake_generate(ctx.tables, ctx.seed)
        });
        let (mut model, pairs) = t.span("core.train.train", 0, |_| layers::train_like_dj(&lake));
        let vectors = t.span("core.batch.embed_lake", 0, |_| {
            layers::batch_embed_lake(&model, &lake.repo, threads)
        });
        t.span("ann.hnsw.build", 0, |_| {
            layers::model_index_embeddings(&mut model, &vectors, threads)
        });
        t.span("ann.sq8.quantize", 0, |_| {
            layers::model_quantize_sq8(&mut model)
        });
        t.span("core.persist.save", 0, |_| {
            layers::persist_save(&model, &artifact)
        })?;
        Ok((lake.repo.len(), pairs))
    })?;
    let first = tracer.span("core.persist.open_first", 0, |_| {
        layers::persist_load(&artifact)
    })?;
    drop(first);
    let mut stamped = Vec::new();
    let mut sizes = (0usize, 0usize);
    for i in 0..10u64 {
        let t0 = Instant::now();
        let loaded = tracer.span("core.persist.open_stamped", i, |_| {
            layers::persist_load(&artifact)
        })?;
        stamped.push(t0.elapsed().as_secs_f64() * 1e3);
        sizes = (loaded.mapped_bytes, loaded.resident_bytes);
    }
    stamped.sort_by(f64::total_cmp);
    layers_out.set("core.train.pairs", pairs as f64, 1);
    layers_out.set(
        "core.persist.open_stamped_ms",
        stats::median(&stamped),
        stamped.len() as u64,
    );
    layers_out.set(
        "core.persist.mapped_mb",
        sizes.0 as f64 / (1024.0 * 1024.0),
        1,
    );
    layers_out.set(
        "core.persist.resident_mb",
        sizes.1 as f64 / (1024.0 * 1024.0),
        1,
    );
    Ok(rows)
}

/// Probes of single layers over the query set, outside the timed window.
fn probe_layers(bench: &Bench, truth: &Truth, layers_out: &mut Layers) {
    let model = &bench.loaded.model;
    let n = bench.queries.len();
    let time_each = |f: &mut dyn FnMut(usize)| {
        let mut us = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            f(i);
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        us.sort_by(f64::total_cmp);
        stats::median(&us)
    };
    let transform = time_each(&mut |i| {
        black_box(layers::text_transform(model, &bench.queries[i].column));
    });
    layers_out.set("core.text.transform_us", transform, n as u64);

    // Distance evaluations are a count made by the program: the same on
    // every run of the same seed, whatever the host.
    let mut evals = 0usize;
    for e in &truth.embeddings {
        evals += layers::model_search_embedded(model, e, K, 0).1;
    }
    let per_query = evals as f64 / n as f64;
    layers_out.set("ann.hnsw.evals_per_query", per_query, n as u64);
    layers_out.set(
        "ann.hnsw.evals_share",
        per_query / layers::model_indexed_len(model) as f64,
        n as u64,
    );

    let flat = time_each(&mut |i| {
        black_box(truth.twin.search(&truth.embeddings[i], K));
    });
    layers_out.set("ann.flat.scan_us", flat, n as u64);
    // Rung 2 of the effort ladder: SQ8 surrogate distances, no exact rescore.
    let sq8 = time_each(&mut |i| {
        black_box(layers::model_search_embedded(
            model,
            &truth.embeddings[i],
            K,
            2,
        ));
    });
    layers_out.set("ann.sq8.scan_us", sq8, n as u64);

    let rows = truth.twin.rows();
    let dim = layers::model_dim(model);
    let mut out = vec![0f32; rows.len() / dim];
    let t0 = Instant::now();
    for e in &truth.embeddings {
        layers::simd_l2_sq_block(e, rows, &mut out);
        black_box(&out);
    }
    let scanned = (out.len() * truth.embeddings.len()) as f64;
    layers_out.set(
        "simd.l2_rows_per_s",
        scanned / t0.elapsed().as_secs_f64(),
        n as u64,
    );
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let setup = harness::build_artifact(ctx)?;
    let prep = Instant::now();
    layers::par_set_threads(1);
    let bench = harness::load_bench(ctx, &setup)?;
    let load_gate = Gate::check(
        "artifact.loads_clean",
        bench.loaded.warnings.is_empty(),
        format!("load_model_path warnings: {:?}", bench.loaded.warnings),
    );
    let prep_s = prep.elapsed().as_secs_f64();

    // One thread, then one process after another: all of it stays on one
    // CPU rather than wander between two (see `OneCpu`).
    let one_cpu = OneCpu::pin();
    let library = |window: Duration| window.mul_f64(LIBRARY_SHARE);
    let command_line = |window: Duration| window.mul_f64(1.0 - LIBRARY_SHARE);
    search_window(&bench, library(ctx.warmup()), &mut Tracer::off(), false);
    cli_window(ctx, &setup, command_line(ctx.warmup()), &mut Tracer::off())?;
    let mut untraced_p50 = None;
    if ctx.trace {
        let mut w = search_window(
            &bench,
            library(ctx.window()).mul_f64(0.3),
            &mut Tracer::off(),
            false,
        );
        untraced_p50 = Some(stats::summarize_quiet(&mut w.latency_ms).p50);
    }
    let mut tracer = Tracer::new(ctx.trace, Instant::now());
    ctx.note("timed window: DeepJoin::search, closed loop, 1 thread; then one-shot dj search");
    let mut w = search_window(&bench, library(ctx.window()), &mut tracer, ctx.trace);
    let mut cli = cli_window(ctx, &setup, command_line(ctx.window()), &mut tracer)?;
    drop(one_cpu);
    // Before the twin is built, so this is the memory of load + search alone.
    let serve_rss_mb = proc::own_peak_rss_mb();

    let truth = harness::build_truth(&bench);
    let recalls: Vec<f64> = w
        .answers
        .iter()
        .zip(&truth.top)
        .filter_map(|(got, want)| {
            got.as_ref()
                .map(|ids| harness::recall(want, ids.iter().copied()))
        })
        .collect();
    let recall = harness::mean(&recalls);
    // `dj search` draws its own query columns, which carry their table title
    // (unlike the held-out queries): the harness reproduces each to judge it.
    let model = &bench.loaded.model;
    let cli_recalls: Vec<f64> = cli
        .answers
        .iter()
        .map(|(qi, ids)| {
            let asked = layers::lake_cli_query(&bench.lake, *qi);
            let want = truth.twin.search(&layers::model_embed(model, &asked), K);
            harness::recall(&want, ids.iter().copied())
        })
        .collect();
    let cli_recall = harness::mean(&cli_recalls);
    let sent = w.latency_ms.len() as u64;
    let cli_sent = cli.wall_ms.len() as u64;
    let query = stats::summarize_quiet(&mut w.latency_ms);
    let served = Served {
        query,
        goodput_qps: stats::quiet_rate(&w.done_s),
        answered_share: (sent - w.short + cli_sent - cli.malformed) as f64
            / (sent + cli_sent) as f64,
        recall_at_10: recall,
        serve_rss_mb,
        oneshot: stats::summarize_quiet(&mut cli.wall_ms),
    };
    let gates = vec![
        load_gate,
        Gate::check(
            "cli.recall",
            cli_recall >= 0.90,
            format!(
                "dj search recall@{K} {cli_recall:.4} against the flat twin over {} queries",
                cli_recalls.len()
            ),
        ),
        Gate::check(
            "lib.recall",
            recall >= 0.90,
            format!(
                "recall@{K} {recall:.4} against the flat twin over {} queries",
                recalls.len()
            ),
        ),
    ];

    let mut layers_out = Layers::default();
    if ctx.trace {
        probe_layers(&bench, &truth, &mut layers_out);
        layers::par_set_threads(harness::TRAIN_THREADS);
        let rows = replay_build(ctx, &mut tracer, &mut layers_out)? as f64;
        let report = TraceReport::collect(ctx, vec![tracer.into_spans()])?;
        for (metric, span) in [
            ("lake.generate_s", "lake.generate"),
            ("core.train.train_s", "core.train.train"),
            ("core.batch.embed_lake_s", "core.batch.embed_lake"),
            ("ann.hnsw.build_s", "ann.hnsw.build"),
            ("ann.sq8.quantize_s", "ann.sq8.quantize"),
            ("core.persist.save_s", "core.persist.save"),
        ] {
            let (us, n) = report.p50_us(span);
            layers_out.set(metric, us / 1e6, n);
        }
        layers_out.set(
            "core.batch.embed_cols_per_s",
            rows / layers_out.get("core.batch.embed_lake_s").max(1e-9),
            1,
        );
        layers_out.set(
            "ann.hnsw.build_rows_per_s",
            rows / layers_out.get("ann.hnsw.build_s").max(1e-9),
            1,
        );
        let (us, n) = report.p50_us("core.persist.open_first");
        layers_out.set("core.persist.open_first_ms", us / 1e3, n);
        let (us, n) = report.p50_us("core.model.embed");
        layers_out.set("core.model.embed_us", us, n);
        layers_out.set(
            "core.model.embed_p99_us",
            report.p99_us("core.model.embed").0,
            n,
        );
        let (us, n) = report.p50_us("ann.hnsw.search");
        layers_out.set("ann.hnsw.search_us", us, n);
        layers_out.set(
            "ann.hnsw.search_p99_us",
            report.p99_us("ann.hnsw.search").0,
            n,
        );
        report.harness_layers(&mut layers_out, untraced_p50, query.p50, Some("lib.query"));
    }

    let phases = vec![
        Phase {
            name: "DeepJoin::search".to_string(),
            sent,
            succeeded: sent - w.short,
            failed: w.short,
        },
        Phase {
            name: "dj search".to_string(),
            sent: cli_sent,
            succeeded: cli_sent - cli.malformed,
            failed: cli.malformed,
        },
    ];
    Ok(Outcome::assemble(
        ctx, &setup, prep_s, served, layers_out, gates, phases,
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_the_ranked_lines_of_dj_search() {
        let out = "query: 'member' from 'petrov person survey' (13 cells)\n\
                   #0   col#828    'person' in 'petrov person summary' (equi jn 0.00)\n\
                   #1   col#600    'author' in 'petrov col#7 index' (equi jn 0.00)\n";
        assert_eq!(super::parse_hits(out), vec![828, 600]);
    }
}
