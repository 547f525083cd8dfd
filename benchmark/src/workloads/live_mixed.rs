//! `live_mixed`: the real `dj serve --threads 2 --live DIR` with default
//! flush and compaction settings. Thread A: closed-loop queries on one
//! connection. Thread B: an open-loop writer at 80 tables a second (two
//! columns each), every tenth operation a `drop-table` of an earlier add;
//! after each ack it asks for the table it just added (or dropped) back.
//! Then a quiesced tail of 500 queries for recall, then the server is killed
//! and restarted over `DIR`.
//!
//! Why: the search layer used differently, writes beside reads: WAL group
//! commit, a memtable and flat-scanned segments merged with the base HNSW,
//! tombstones, background flush and compaction stalls. A read-path gain that
//! costs ingest, or the reverse, shows here.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::harness::{self, Bench, Ctx, Gate, Layers, Outcome, Phase, Served, TraceReport, K};
use crate::layers::{self, Answer, Client, IngestTable};
use crate::load::{self, WallClock};
use crate::proc::{OneCpu, Server};
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::workloads::serving;

pub const SERVER_THREADS: usize = 2;
const WRITES_PER_SEC: f64 = 80.0;
/// Every tenth write drops the oldest table still standing.
const DROP_EVERY: usize = 10;
const TAIL_QUERIES: u64 = 500;
/// Tables re-checked after the restart, of each kind.
const RECHECK: usize = 100;

/// What the writer has done so far, across windows.
#[derive(Default)]
struct Written {
    next_table: usize,
    /// Indices into the ingest tables: added and still standing, oldest first.
    standing: Vec<usize>,
    dropped: Vec<usize>,
    ops: usize,
}

#[derive(Default)]
struct WriteWindow {
    ack_ms: Vec<f64>,
    sent: u64,
    /// Acked adds whose own column did not come back on the next query:
    /// the table, and the distance of the last hit that did.
    adds_not_returned: Vec<(usize, f32)>,
    /// Acked drops whose column still came back.
    drops_still_visible: u64,
    checks: u64,
    spans: Vec<Span>,
}

fn label_of(table: &IngestTable) -> String {
    format!("{}.{}", table.title, table.columns[0].0)
}

/// Ask for a table's first column. Returns whether the table is among the
/// hits, and the distance of the last hit (infinite when fewer than k came).
fn ask_own_column(client: &mut Client, table: &IngestTable) -> Result<(bool, f32), String> {
    let (name, cells) = &table.columns[0];
    let q = layers::Query::over_the_wire(name, cells);
    match layers::client_query(client, &q, K as u32)? {
        Answer::Reply(reply) => {
            let label = label_of(table);
            let worst = match reply.hits.last() {
                Some(h) if reply.hits.len() == K => h.score,
                _ => f32::INFINITY,
            };
            Ok((reply.hits.iter().any(|h| h.label == label), worst))
        }
        Answer::Refused(code, message) => {
            Err(format!("verification query refused: {code:?} {message}"))
        }
    }
}

/// Was a table that did not come back owed a place? The query carries no
/// table title and the stored row does, so the row sits at a small distance
/// from its own query, and k closer rows may legitimately crowd it out. It
/// was owed a place exactly when it is closer than the last hit returned.
fn owed_a_place(bench: &Bench, table: &IngestTable, worst: f32) -> bool {
    let model = &bench.loaded.model;
    let (name, cells) = &table.columns[0];
    let asked = layers::model_embed(model, &layers::Query::over_the_wire(name, cells).column);
    let stored = layers::live_row_embedding(model, &table.title, name, cells);
    layers::model_distance(model, &asked, &stored) < worst * (1.0 - 1e-3)
}

/// The writer: one connection, operations due every 1/80 s, each followed by
/// a read-your-write check on the same connection.
fn write_window(
    addr: &str,
    tables: &[IngestTable],
    state: &mut Written,
    window: Duration,
    mut tracer: Tracer,
) -> Result<WriteWindow, String> {
    let mut client = layers::client_connect(addr)?;
    let dues = load::staircase(&[WRITES_PER_SEC], window.as_secs_f64());
    let epoch = Instant::now();
    let mut out = WriteWindow::default();
    let mut failure = None;
    load::pace(&WallClock(epoch), &dues, |i| {
        if failure.is_some() {
            return;
        }
        let result: Result<(), String> = (|| {
            state.ops += 1;
            let dropping = state.ops.is_multiple_of(DROP_EVERY) && !state.standing.is_empty();
            let table_index = if dropping {
                state.standing.remove(0)
            } else {
                state.next_table
            };
            let table = tables
                .get(table_index)
                .ok_or("ran out of ingest tables: generate more per run")?;
            tracer.span("core.live.ingest", i as u64, |_| {
                if dropping {
                    layers::client_drop_table(&mut client, &table.title)
                } else {
                    layers::client_add_table(&mut client, table)
                }
            })?;
            out.ack_ms
                .push(epoch.elapsed().saturating_sub(dues[i].at).as_secs_f64() * 1e3);
            out.sent += 1;
            let (returned, worst) = ask_own_column(&mut client, table)?;
            out.checks += 1;
            if dropping {
                state.dropped.push(table_index);
                out.drops_still_visible += u64::from(returned);
            } else {
                state.next_table += 1;
                state.standing.push(table_index);
                if !returned {
                    out.adds_not_returned.push((table_index, worst));
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            failure = Some(e);
        }
    });
    match failure {
        Some(e) => Err(e),
        None => {
            out.spans = tracer.into_spans();
            Ok(out)
        }
    }
}

fn mixed_window(
    addr: &str,
    bench: &Bench,
    tables: &[IngestTable],
    state: &mut Written,
    window: Duration,
    trace: bool,
) -> Result<(serving::ClosedLoop, WriteWindow), String> {
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            serving::closed_loop(
                addr,
                &bench.queries,
                0,
                Duration::from_secs(3600),
                u64::MAX,
                Some(&stop),
                Tracer::new(trace, epoch),
            )
        });
        let written = write_window(addr, tables, state, window, Tracer::new(trace, epoch));
        stop.store(true, Ordering::Relaxed);
        let read = reader
            .join()
            .map_err(|_| "query thread panicked".to_string())?;
        Ok((read?, written?))
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `LiveLake` driven in-process in a directory of its own: what an add, a
/// flush, a compaction and a search over the slabs cost without the wire.
fn probe_live(
    ctx: &Ctx,
    bench: &Bench,
    tables: &[IngestTable],
    layers_out: &mut Layers,
) -> Result<(), String> {
    let dir = ctx.scratch().join("live-probe");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let model = &bench.loaded.model;
    let live = layers::Live::open(&dir, model)?;
    let (mut add_us, mut flush_ms, mut compact_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (i, table) in tables.iter().take(400).enumerate() {
        let t0 = Instant::now();
        live.add_table(model, table)?;
        add_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if (i + 1) % 100 == 0 {
            let t0 = Instant::now();
            live.flush()?;
            flush_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let slabs = live.slab_count();
    let probe = layers::model_embed(model, &bench.queries[0].column);
    let mut search_us = Vec::new();
    for _ in 0..500 {
        let t0 = Instant::now();
        black_box(live.search(&probe, K));
        search_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let t0 = Instant::now();
    live.compact()?;
    compact_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    for (name, values) in [
        ("core.live.add_table_us", &mut add_us),
        ("core.live.flush_ms", &mut flush_ms),
        ("core.live.compact_ms", &mut compact_ms),
        ("ann.segmented.search_us", &mut search_us),
    ] {
        let s = stats::summarize(values);
        layers_out.set(name, s.p50, s.samples);
    }
    ctx.note(&format!("in-process live probe searched {slabs} slabs"));
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let setup = harness::build_artifact(ctx)?;
    let prep = Instant::now();
    let bench = harness::load_bench(ctx, &setup)?;
    let writes_planned = (WRITES_PER_SEC * (ctx.seconds * 1.4 + 4.0)) as usize;
    let tables = layers::lake_ingest_tables(writes_planned, ctx.seed + 2);
    let live_dir = ctx.scratch().join("live");
    let threads = SERVER_THREADS.to_string();
    let serve_args = [
        setup.lake(),
        setup.sq8(),
        "--threads",
        &threads,
        "--live",
        harness::path_str(&live_dir),
    ];
    // The reader has one request in flight and the writer is idle between
    // its 80 operations a second: nothing here needs a second CPU, and the
    // hand-offs to one are what varies (see `OneCpu`).
    let one_cpu = OneCpu::pin();
    let server = Server::start(&ctx.dj, &serve_args, &ctx.scratch())?;
    let addr = server.addr.clone();
    let prep_s = prep.elapsed().as_secs_f64();

    let mut state = Written::default();
    mixed_window(&addr, &bench, &tables, &mut state, ctx.warmup(), false)?;
    let mut untraced_p50 = None;
    if ctx.trace {
        let (mut a, _) = mixed_window(
            &addr,
            &bench,
            &tables,
            &mut state,
            ctx.window().mul_f64(0.3),
            false,
        )?;
        untraced_p50 = Some(stats::summarize_quiet(&mut a.latency_ms).p50);
    }
    ctx.note("timed window: closed-loop queries beside an open-loop writer");
    let (mut a, mut b) = mixed_window(&addr, &bench, &tables, &mut state, ctx.window(), ctx.trace)?;
    let sample = server.sample();

    // Quiesced tail: nothing is being written, so the exact answer is known.
    let tail = serving::closed_loop(
        &addr,
        &bench.queries,
        0,
        Duration::from_secs(60),
        TAIL_QUERIES,
        None,
        Tracer::off(),
    )?;
    let mut oneshots = serving::oneshot_loop(&addr, &bench.queries, 20, None)?;
    let stats_end = serving::server_stats(&addr)?;
    let gauges = stats_end.live;
    let disk_bytes = dir_bytes(&live_dir);
    let stderr = server.stderr();
    // A crash, not a drain: whatever was acknowledged must come back from
    // the journal and the flushed segments alone.
    server.crash();
    drop(one_cpu);

    // The twin over what survives: base rows plus every standing live row.
    let mut truth = harness::build_truth(&bench);
    let model = &bench.loaded.model;
    let base_len = bench.lake.repo.len() as u32;
    let mut live_labels = Vec::new();
    let mut user_bytes = 0u64;
    for &t in state.standing.iter().chain(&state.dropped) {
        user_bytes += tables[t]
            .columns
            .iter()
            .flat_map(|(_, cells)| cells)
            .map(|c| c.len() as u64)
            .sum::<u64>();
    }
    for &t in &state.standing {
        let table = &tables[t];
        for (name, cells) in &table.columns {
            truth.twin.push(&layers::live_row_embedding(
                model,
                &table.title,
                name,
                cells,
            ));
            live_labels.push(format!("{}.{name}", table.title));
        }
    }
    let standing_rows = live_labels.len() as u64;
    let mut recalls = Vec::new();
    for (qi, reply) in tail.first_reply.iter().enumerate() {
        let Some(reply) = reply else { continue };
        let want = truth.twin.search(&truth.embeddings[qi], K);
        let got_base: HashSet<u32> = reply
            .hits
            .iter()
            .filter(|h| h.id < base_len)
            .map(|h| h.id)
            .collect();
        let got_live: HashSet<&str> = reply
            .hits
            .iter()
            .filter(|h| h.id >= base_len)
            .map(|h| h.label.as_str())
            .collect();
        let found = want
            .iter()
            .filter(|(id, _)| {
                if *id < base_len {
                    got_base.contains(id)
                } else {
                    got_live.contains(live_labels[(*id - base_len) as usize].as_str())
                }
            })
            .count();
        recalls.push(found as f64 / want.len().max(1) as f64);
    }
    let recall = harness::mean(&recalls);

    // Restart over the same directory and ask again.
    let restart = Instant::now();
    let server = Server::start(&ctx.dj, &serve_args, &ctx.scratch())?;
    let reopen_ms = restart.elapsed().as_secs_f64() * 1e3;
    let mut client = layers::client_connect(&server.addr)?;
    let mut lost_after_restart = 0u64;
    let mut resurrected = 0u64;
    for &t in state.standing.iter().rev().take(RECHECK) {
        let (returned, worst) = ask_own_column(&mut client, &tables[t])?;
        lost_after_restart += u64::from(!returned && owed_a_place(&bench, &tables[t], worst));
    }
    for &t in state.dropped.iter().rev().take(RECHECK) {
        resurrected += u64::from(ask_own_column(&mut client, &tables[t])?.0);
    }
    let rows_after_restart = layers::client_stats(&mut client)?
        .live
        .map_or(0, |l| l.live_rows);
    drop(client);
    let restart_warnings = server
        .stderr()
        .lines()
        .filter(|l| l.contains("warning"))
        .count();
    let exit = server.stop();

    let adds_not_visible = b
        .adds_not_returned
        .iter()
        .filter(|(t, worst)| owed_a_place(&bench, &tables[*t], *worst))
        .count() as u64;
    let a_failed = a.refused + a.incomplete;
    let query = stats::summarize_quiet(&mut a.latency_ms);
    let acks = stats::summarize(&mut b.ack_ms);
    let served = Served {
        query,
        goodput_qps: stats::quiet_rate(&a.done_s),
        answered_share: a.answered as f64 / a.sent.max(1) as f64,
        recall_at_10: recall,
        serve_rss_mb: sample.peak_rss_mb,
        oneshot: stats::summarize(&mut oneshots.wall_ms),
    };
    let gates = vec![
        Gate::check(
            "live.acked_adds_visible",
            adds_not_visible == 0,
            format!(
                "{adds_not_visible} of {} acked adds owed a place in the query sent right after the ack and missing \
                 ({} crowded out by closer rows)",
                b.checks,
                b.adds_not_returned.len() as u64 - adds_not_visible
            ),
        ),
        Gate::check(
            "live.acked_drops_invisible",
            b.drops_still_visible == 0,
            format!("{} dropped tables still answered after their drop was acked", b.drops_still_visible),
        ),
        Gate::check(
            "live.survives_crash",
            lost_after_restart == 0 && resurrected == 0 && rows_after_restart == standing_rows,
            format!(
                "after SIGKILL + restart: {lost_after_restart} acked adds lost, {resurrected} dropped tables back, \
                 {rows_after_restart} live rows reported for {standing_rows} standing"
            ),
        ),
        Gate::check(
            "live.recall",
            recall >= 0.90,
            format!("quiesced recall@{K} {recall:.4} against the twin over base + {standing_rows} live rows"),
        ),
        Gate::check(
            "live.no_failures",
            a_failed == 0 && tail.refused + tail.incomplete == 0 && oneshots.failed == 0,
            format!("{a_failed} queries failed beside the writer, {} in the tail", tail.refused + tail.incomplete),
        ),
        Gate::check(
            "live.clean_logs",
            !stderr.contains("warning") && restart_warnings == 0 && exit == Some(0),
            format!("warnings before crash: {}, after restart: {restart_warnings}, exit {exit:?}", stderr.contains("warning")),
        ),
    ];

    let mut layers_out = Layers::default();
    if ctx.trace {
        probe_live(ctx, &bench, &tables[state.next_table..], &mut layers_out)?;
        layers_out.set("core.live.ingest_ack_p50_ms", acks.p50, acks.samples);
        layers_out.set("core.live.ingest_ack_tail_ms", acks.tail, acks.samples);
        layers_out.set("core.live.reopen_ms", reopen_ms, 1);
        if let Some(g) = gauges {
            layers_out.set("core.live.segments", f64::from(g.segments), 1);
            layers_out.set("core.live.wal_bytes", g.wal_bytes as f64, 1);
            layers_out.set("core.live.live_rows", g.live_rows as f64, 1);
            layers_out.set(
                "core.live.pending_tombstones",
                g.pending_tombstones as f64,
                1,
            );
        }
        layers_out.set(
            "core.live.disk_bytes_per_user_byte",
            disk_bytes as f64 / user_bytes.max(1) as f64,
            1,
        );
        layers_out.set("serve.server.threads", sample.threads as f64, 1);
        layers_out.set(
            "serve.server.evals_per_query",
            a.evals as f64 / a.sent.max(1) as f64,
            a.sent,
        );
        let report = TraceReport::collect(
            ctx,
            vec![std::mem::take(&mut a.spans), std::mem::take(&mut b.spans)],
        )?;
        let (us, n) = report.p50_us("serve.wire.roundtrip");
        layers_out.set("serve.wire.roundtrip_us", us, n);
        report.harness_layers(
            &mut layers_out,
            untraced_p50,
            query.p50,
            Some("serve.client.query"),
        );
    }

    let phases = vec![
        Phase {
            name: "queries beside the writer".to_string(),
            sent: a.sent,
            succeeded: a.answered,
            failed: a_failed,
        },
        Phase {
            name: "add-table / drop-table".to_string(),
            sent: b.sent,
            succeeded: b.sent,
            failed: 0,
        },
        Phase {
            name: "read-your-write checks".to_string(),
            sent: b.checks,
            succeeded: b.checks - adds_not_visible - b.drops_still_visible,
            failed: adds_not_visible + b.drops_still_visible,
        },
        Phase {
            name: "quiesced tail".to_string(),
            sent: tail.sent,
            succeeded: tail.answered,
            failed: tail.refused + tail.incomplete,
        },
    ];
    Ok(Outcome::assemble(
        ctx, &setup, prep_s, served, layers_out, gates, phases,
    ))
}
