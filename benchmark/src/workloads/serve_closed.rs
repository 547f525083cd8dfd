//! `serve_closed`: the real `dj serve <lake> <sq8> --threads 2` (cache off,
//! no brownout, no live lake). First a client holds one connection, closed
//! loop, one request in flight; then a client connects, asks one query and
//! closes, over and over (what `dj query` does). Server and client share one
//! CPU.
//!
//! Why: the same queries as `lib_search`, so the difference between the two
//! is the serving stack (frame codec, admission, thread hand-offs, the accept
//! loop); `ann` and `nn` do a minority of the work here.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::harness::{self, Bench, Ctx, Gate, Layers, Outcome, Phase, Served, TraceReport, K};
use crate::layers;
use crate::proc::{OneCpu, Server};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::serving::{self, ClosedLoop, Oneshots};

pub const SERVER_THREADS: usize = 2;
/// Wire answers compared bit for bit with the in-process model.
const IDENTITY_SAMPLE: usize = 200;

/// Share of every window the persistent connection gets; the one-shot
/// client gets the rest, after it.
const PERSISTENT_SHARE: f64 = 0.8;

/// The two clients, one after the other: side by side they would be two
/// clients and three server threads taking turns on two CPUs, and the numbers
/// would be the scheduler's.
fn two_clients(
    addr: &str,
    bench: &Bench,
    window: Duration,
    tracer: Tracer,
) -> Result<(ClosedLoop, Oneshots), String> {
    let a = serving::closed_loop(
        addr,
        &bench.queries,
        0,
        window.mul_f64(PERSISTENT_SHARE),
        u64::MAX,
        None,
        tracer,
    )?;
    let b = serving::oneshot_loop(
        addr,
        &bench.queries,
        usize::MAX,
        Some(window.mul_f64(1.0 - PERSISTENT_SHARE)),
    )?;
    Ok((a, b))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let setup = harness::build_artifact(ctx)?;
    let prep = Instant::now();
    let bench = harness::load_bench(ctx, &setup)?;
    let threads = SERVER_THREADS.to_string();
    // One request is in flight at a time, so client and server take turns:
    // both stay on one CPU (see `OneCpu`) until the server has gone.
    let one_cpu = OneCpu::pin();
    let server = Server::start(
        &ctx.dj,
        &[setup.lake(), setup.sq8(), "--threads", &threads],
        &ctx.scratch(),
    )?;
    let addr = server.addr.clone();
    let prep_s = prep.elapsed().as_secs_f64();

    two_clients(&addr, &bench, ctx.warmup(), Tracer::off())?;
    let mut untraced_p50 = None;
    if ctx.trace {
        let (mut a, _) = two_clients(&addr, &bench, ctx.window().mul_f64(0.3), Tracer::off())?;
        untraced_p50 = Some(stats::summarize_quiet(&mut a.latency_ms).p50);
    }
    let stats_before = serving::server_stats(&addr)?;
    let cpu_before = server.sample();
    ctx.note("timed window: persistent closed loop, then one-shot connections");
    let (mut a, mut b) = two_clients(
        &addr,
        &bench,
        ctx.window(),
        Tracer::new(ctx.trace, Instant::now()),
    )?;
    let cpu_after = server.sample();
    let stats_after = serving::server_stats(&addr)?;
    let mut connect_ms = if ctx.trace {
        serving::connect_ms(&addr, 20)?
    } else {
        Vec::new()
    };
    let startup_ms = server.startup_s * 1e3;
    let stderr = server.stderr();
    let exit = server.stop();
    drop(one_cpu);

    // Judge the answers: recall against the twin, and a sample bit for bit
    // against the same model called in-process.
    let truth = harness::build_truth(&bench);
    let recalls = a.recalls(&truth);
    let recall = harness::mean(&recalls);
    let in_process = layers::Served::new(
        layers::persist_load(&setup.sq8_path)?.model,
        bench.lake.repo.clone(),
    );
    let mut compared = 0usize;
    let mut differing = 0usize;
    let mut in_process_us = Vec::new();
    for (q, reply) in bench
        .queries
        .iter()
        .zip(&a.first_reply)
        .take(IDENTITY_SAMPLE)
    {
        let Some(reply) = reply else { continue };
        let t0 = Instant::now();
        let local = black_box(in_process.query(q, K));
        in_process_us.push(t0.elapsed().as_secs_f64() * 1e6);
        compared += 1;
        let same = local.len() == reply.hits.len()
            && local
                .iter()
                .zip(&reply.hits)
                .all(|(l, w)| l.0 == w.id && l.1.to_bits() == w.score.to_bits() && l.2 == w.label);
        if !same {
            differing += 1;
        }
    }

    let a_failed = a.refused + a.incomplete;
    let query = stats::summarize_quiet(&mut a.latency_ms);
    let oneshot = stats::summarize(&mut b.wall_ms);
    let served = Served {
        query,
        goodput_qps: stats::quiet_rate(&a.done_s),
        answered_share: (a.answered + b.answered) as f64 / (a.sent + b.answered + b.failed) as f64,
        recall_at_10: recall,
        serve_rss_mb: cpu_after.peak_rss_mb,
        oneshot,
    };
    let gates = vec![
        Gate::check(
            "serve.recall",
            recall >= 0.90,
            format!("recall@{K} {recall:.4} against the flat twin over {} queries", recalls.len()),
        ),
        Gate::check(
            "serve.wire_equals_in_process",
            compared > 0 && differing == 0,
            format!("{differing} of {compared} wire answers differ (ids, score bits, labels) from ServedModel::query"),
        ),
        Gate::check(
            "serve.no_failures",
            a_failed == 0 && b.failed == 0,
            format!("{a_failed} failed on the persistent connection, {} one-shot", b.failed),
        ),
        Gate::check(
            "serve.drains_cleanly",
            exit == Some(0) && !stderr.contains("warning"),
            format!("server exit {exit:?} after SIGTERM; stderr warnings: {}", stderr.contains("warning")),
        ),
    ];

    let mut layers_out = Layers::default();
    if ctx.trace {
        let answered = (stats_after.accepted - stats_before.accepted).max(1);
        layers_out.set("serve.server.startup_ms", startup_ms, 1);
        let connect = stats::summarize(&mut connect_ms);
        layers_out.set("serve.client.connect_ms", connect.p50, connect.samples);
        layers_out.set("serve.server.threads", cpu_after.threads as f64, 1);
        layers_out.set(
            "serve.server.cpu_us_per_query",
            (cpu_after.cpu_s - cpu_before.cpu_s) * 1e6 / answered as f64,
            answered,
        );
        serving::stats_delta_layers(&mut layers_out, &stats_before, &stats_after);
        layers_out.set(
            "serve.server.evals_per_query",
            a.evals as f64 / a.sent.max(1) as f64,
            a.sent,
        );
        layers_out.set(
            "serve.protocol.query_bytes",
            a.query_bytes as f64 / a.sent.max(1) as f64,
            a.sent,
        );
        layers_out.set(
            "serve.protocol.reply_bytes",
            a.reply_bytes as f64 / a.sent.max(1) as f64,
            a.sent,
        );
        in_process_us.sort_by(f64::total_cmp);
        let local_us = stats::median(&in_process_us);
        layers_out.set(
            "core.serving.query_us",
            local_us,
            in_process_us.len() as u64,
        );
        layers_out.set(
            "serve.wire_tax_us",
            query.p50 * 1e3 - local_us,
            query.samples,
        );
        let default_p50 = stats_after
            .overload
            .as_ref()
            .and_then(|o| o.tenants.iter().find(|t| t.name == "default"))
            .map_or(0.0, |t| t.p50_micros as f64 / 1e3);
        layers_out.set("serve.server.latency_p50_ms", default_p50, 1);
        layers_out.set(
            "serve.client.oneshot_tail_ms",
            oneshot.tail,
            oneshot.samples,
        );

        let report = TraceReport::collect(ctx, vec![std::mem::take(&mut a.spans)])?;
        for (metric, span) in [
            (
                "serve.protocol.encode_query_us",
                "serve.protocol.encode_query",
            ),
            (
                "serve.protocol.decode_reply_us",
                "serve.protocol.decode_reply",
            ),
            ("serve.wire.roundtrip_us", "serve.wire.roundtrip"),
        ] {
            let (us, n) = report.p50_us(span);
            layers_out.set(metric, us, n);
        }
        report.harness_layers(
            &mut layers_out,
            untraced_p50,
            query.p50,
            Some("serve.client.query"),
        );
    }

    let phases = vec![
        Phase {
            name: "persistent connection".to_string(),
            sent: a.sent,
            succeeded: a.answered,
            failed: a_failed,
        },
        Phase {
            name: "one-shot connections".to_string(),
            sent: b.answered + b.failed,
            succeeded: b.answered,
            failed: b.failed,
        },
    ];
    Ok(Outcome::assemble(
        ctx, &setup, prep_s, served, layers_out, gates, phases,
    ))
}
