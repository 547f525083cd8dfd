//! `serve_overload`: the real `dj serve --threads 1 --max-inflight 64
//! --brownout-target-ms 5 --wave-width 16`, loaded two ways over one
//! connection at a time.
//!
//! First a *full pipeline*: 16 tagged requests kept in flight, closed loop.
//! The worker always has a wave to form, so this is what one worker sustains,
//! and the capacity the staircase is laid around.
//!
//! Then an **open-loop staircase** of four steps at absolute rates (one
//! sender and one receiver thread), tenants `hot` : 4 x `cold` = 8 : 1 each,
//! latency timed from each request's due time. Steps 1-2 sit below capacity,
//! steps 3-4 above it.
//!
//! Why: the only workload with a queue. Admission, deficit-round-robin
//! fairness, waves, dedup and the brownout ladder do the work, and the top
//! step must actually step the ladder.
//!
//! The end-to-end numbers come from the pipeline (latency, goodput) and from
//! everything below capacity (answered share, recall). What happens above
//! capacity is reported per layer: on a two-core host, where the generator
//! and the server share the cores, it scatters by 20-30 % from run to run.

use std::io::{BufReader, BufWriter};
use std::time::{Duration, Instant};

use crate::harness::{self, Bench, Ctx, Gate, Layers, Outcome, Phase, Served, TraceReport, K};
use crate::layers::{self, Answer};
use crate::load::{self, Due, Rng, Slo, StepOutcome, WallClock, Zipf};
use crate::proc::Server;
use crate::stats::{self, Summary};
use crate::trace::{Span, Tracer};
use crate::workloads::serving;

/// Offered load per step, queries per second. Frozen: calibrated once on the
/// reference host to about 0.4 / 0.7 / 1.5 / 3 times what one worker
/// sustains at this scale (see README, "Calibration record"), and never
/// re-probed, so parent and change are offered exactly the same load.
pub const RATES_QPS: [f64; 4] = [2400.0, 4800.0, 12000.0, 24000.0];
pub const SLO: Slo = Slo {
    tail_ms: 20.0,
    failed_share: 0.01,
};
/// Requests the saturating connection keeps in flight: one full wave.
const PIPELINE_DEPTH: usize = 16;
/// Share of the window the full pipeline runs for.
const PIPELINE_SHARE: f64 = 0.5;
/// Steps 1 and 2 sit below one worker's capacity and must meet the SLO.
const BELOW_CAPACITY: usize = 2;
const TENANTS: [&str; 5] = ["hot", "cold-1", "cold-2", "cold-3", "cold-4"];
/// Of 12 parts of the load, `hot` sends 8 and each cold tenant 1.
const HOT_PARTS: usize = 8;
const ALL_PARTS: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fate {
    /// No response arrived.
    Lost,
    /// A full answer, from this rung of the brownout ladder (0 = full effort).
    Answered {
        rung: u8,
    },
    Incomplete,
    Refused,
}

struct Request {
    due: Due,
    query: u32,
    tenant: u8,
}

struct Response {
    done: Duration,
    fate: Fate,
    ids: Vec<u32>,
}

/// The rung in a reply's health label (`hnsw (brownout-2)`), 0 when absent.
fn brownout_rung(health_label: &str) -> u8 {
    health_label
        .split("brownout-")
        .nth(1)
        .and_then(|rest| rest.trim_end_matches(')').parse().ok())
        .unwrap_or(0)
}

/// The schedule and who asks what, all from the seed.
fn plan(seed: u64, queries: usize, rates: &[f64], step_secs: f64) -> Vec<Request> {
    let zipf = Zipf::new(queries, 1.0);
    let mut rng = Rng::new(seed ^ 0x0E41_0AD5);
    load::staircase(rates, step_secs)
        .into_iter()
        .map(|due| {
            let part = rng.below(ALL_PARTS);
            // Below capacity every column is asked equally often, so the
            // median latency is the median column's and not that of whichever
            // few columns this seed ranked hottest. Above it the draw is
            // Zipf(1.0): queues form there, and waves must contain duplicates
            // for dedup to have work.
            let query = if due.step < BELOW_CAPACITY {
                rng.below(queries)
            } else {
                zipf.sample(&mut rng)
            };
            Request {
                due,
                query: query as u32,
                tenant: if part < HOT_PARTS {
                    0
                } else {
                    (1 + part - HOT_PARTS) as u8
                },
            }
        })
        .collect()
}

struct Staircase {
    sent_at: Vec<Duration>,
    responses: Vec<Option<Response>>,
    unstructured: u64,
    spans: Vec<Vec<Span>>,
}

/// Drive one schedule over one connection: the sender paces requests out,
/// the receiver files each response under its request id.
fn drive(addr: &str, bench: &Bench, plan: &[Request], trace: bool) -> Result<Staircase, String> {
    let stream = layers::wire_connect(addr)?;
    // A response that never comes must not hang the run: past this silence
    // the receiver gives up and the missing requests count as lost.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    // Buffered both ways so the generator spends one system call a frame,
    // not two: it shares two cores with the server it is loading.
    let mut recv_stream = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?,
    );
    let mut send_stream = BufWriter::new(stream);
    // One answered query before the clock starts: the server's accept loop
    // polls every 25 ms, and that wait belongs to connecting, not to the
    // first requests of step 1.
    let hello = layers::protocol_encode_query(&bench.queries[0], K as u32, None, None);
    layers::protocol_write_frame(&mut send_stream, &hello)
        .map_err(|e| format!("write frame: {e}"))?;
    layers::protocol_read_frame(&mut recv_stream)?;
    let epoch = Instant::now();
    let dues: Vec<Due> = plan.iter().map(|r| r.due).collect();
    let (sent_at, send_spans, recv) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut responses: Vec<Option<Response>> = (0..plan.len()).map(|_| None).collect();
            let mut tracer = Tracer::new(trace, epoch);
            let mut unstructured = 0u64;
            let mut got = 0usize;
            while got < plan.len() {
                let Ok(frame) = layers::protocol_read_frame(&mut recv_stream) else {
                    break;
                };
                let done = epoch.elapsed();
                got += 1;
                let decoded = tracer.span("serve.client.recv", got as u64, |_| {
                    layers::protocol_decode_answer(&frame)
                });
                let Ok((Some(id), answer)) = decoded else {
                    unstructured += 1;
                    continue;
                };
                if id as usize >= plan.len() {
                    unstructured += 1;
                    continue;
                }
                let (fate, ids) = match answer {
                    Answer::Reply(reply) if serving::is_full_answer(&reply) => (
                        Fate::Answered {
                            rung: brownout_rung(&reply.health_label),
                        },
                        reply.hits.iter().map(|h| h.id).collect(),
                    ),
                    Answer::Reply(_) => (Fate::Incomplete, Vec::new()),
                    Answer::Refused(..) => (Fate::Refused, Vec::new()),
                };
                if responses[id as usize].is_some() {
                    unstructured += 1; // answered twice
                } else {
                    responses[id as usize] = Some(Response { done, fate, ids });
                }
            }
            (responses, unstructured, tracer.into_spans())
        });
        let mut tracer = Tracer::new(trace, epoch);
        let mut send_error = None;
        let sent_at = load::pace(&WallClock(epoch), &dues, |i| {
            if send_error.is_some() {
                return;
            }
            let r = &plan[i];
            let sent = tracer.span("serve.client.send", i as u64, |_| {
                let payload = layers::protocol_encode_query(
                    &bench.queries[r.query as usize],
                    K as u32,
                    Some(TENANTS[r.tenant as usize]),
                    Some(i as u64),
                );
                layers::protocol_write_frame(&mut send_stream, &payload)
            });
            if let Err(e) = sent {
                send_error = Some(format!("write frame {i}: {e}"));
            }
        });
        let recv = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string());
        match send_error {
            Some(e) => Err(e),
            None => Ok((sent_at, tracer.into_spans(), recv?)),
        }
    })?;
    Ok(Staircase {
        sent_at,
        responses: recv.0,
        unstructured: recv.1,
        spans: vec![send_spans, recv.2],
    })
}

/// What one step (or a run of steps) delivered, judged from due times.
struct StepReport {
    sent: u64,
    answered: u64,
    lost: u64,
    latency: Summary,
    outcome: StepOutcome,
}

fn report_steps(
    plan: &[Request],
    run: &Staircase,
    steps: std::ops::Range<usize>,
    rate: f64,
) -> StepReport {
    let mut r = StepReport {
        sent: 0,
        answered: 0,
        lost: 0,
        latency: Summary::default(),
        outcome: StepOutcome::default(),
    };
    let mut latency_ms = Vec::new();
    for (request, response) in plan.iter().zip(&run.responses) {
        if !steps.contains(&request.due.step) {
            continue;
        }
        r.sent += 1;
        match response.as_ref().map_or(Fate::Lost, |x| x.fate) {
            Fate::Answered { .. } => {
                r.answered += 1;
                let done = response.as_ref().expect("answered").done;
                latency_ms.push(done.saturating_sub(request.due.at).as_secs_f64() * 1e3);
            }
            Fate::Refused | Fate::Incomplete => {}
            Fate::Lost => r.lost += 1,
        }
    }
    r.latency = stats::summarize(&mut latency_ms);
    let failed = r.sent - r.answered;
    r.outcome = StepOutcome {
        rate_qps: rate,
        // A step that answered nothing has no latency to meet a limit with.
        tail_ms: if r.answered == 0 {
            f64::INFINITY
        } else {
            r.latency.tail
        },
        failed_share: failed as f64 / r.sent.max(1) as f64,
    };
    r
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let setup = harness::build_artifact(ctx)?;
    let prep = Instant::now();
    let bench = harness::load_bench(ctx, &setup)?;
    let server = Server::start(
        &ctx.dj,
        &[
            setup.lake(),
            setup.sq8(),
            "--threads",
            "1",
            "--max-inflight",
            "64",
            "--brownout-target-ms",
            "5",
            "--wave-width",
            "16",
        ],
        &ctx.scratch(),
    )?;
    let addr = server.addr.clone();
    let prep_s = prep.elapsed().as_secs_f64();

    serving::closed_loop(
        &addr,
        &bench.queries,
        0,
        ctx.warmup(),
        u64::MAX,
        None,
        Tracer::off(),
    )?;
    // One-shot clients against the idle one-worker server, before the load.
    let mut oneshots = serving::oneshot_loop(&addr, &bench.queries, 20, None)?;
    // The pipeline carries the end-to-end numbers and gets half of the
    // window; the four steps share the rest equally.
    let step_secs = ctx.seconds * (1.0 - PIPELINE_SHARE) / RATES_QPS.len() as f64;
    ctx.note("timed window: 16-deep pipeline, then the open-loop staircase");
    let mut pipe = serving::pipelined_loop(
        &addr,
        &bench.queries,
        PIPELINE_DEPTH,
        Duration::from_secs_f64(ctx.seconds * PIPELINE_SHARE),
    )?;
    let mut untraced_p50 = None;
    if ctx.trace {
        // Step 1's rate with tracing off, to price the spans.
        let quiet = plan(
            ctx.seed,
            bench.queries.len(),
            &RATES_QPS[..1],
            step_secs.min(2.0),
        );
        let run = drive(&addr, &bench, &quiet, false)?;
        untraced_p50 = Some(report_steps(&quiet, &run, 0..1, RATES_QPS[0]).latency.p50);
    }
    let stats_before = serving::server_stats(&addr)?;
    let cpu_before = server.sample();
    let plan = plan(ctx.seed, bench.queries.len(), &RATES_QPS, step_secs);
    let top = RATES_QPS.len() - 1;
    let mut run = drive(&addr, &bench, &plan, ctx.trace)?;
    let cpu_after = server.sample();
    let stats_after = serving::server_stats(&addr)?;
    let server_startup_ms = server.startup_s * 1e3;
    let stderr = server.stderr();
    let exit = server.stop();

    let steps: Vec<StepReport> = RATES_QPS
        .iter()
        .enumerate()
        .map(|(s, &rate)| report_steps(&plan, &run, s..s + 1, rate))
        .collect();
    let outcomes: Vec<StepOutcome> = steps.iter().map(|s| s.outcome).collect();
    let slo_rate = load::slo_rate(&outcomes, &SLO);

    // The steps below capacity are what a user is promised; they carry the
    // end-to-end numbers. The steps above it are how the server sheds.
    let below = report_steps(&plan, &run, 0..BELOW_CAPACITY, 0.0);
    let truth = harness::build_truth(&bench);
    let mut recalls = pipe.recalls(&truth);
    let mut top_recalls = Vec::new();
    let mut browned_recalls = Vec::new();
    let mut cold = (0u64, 0u64);
    let mut rung_max = 0u8;
    for (request, response) in plan.iter().zip(&run.responses) {
        let answer = match response {
            Some(Response {
                fate: Fate::Answered { rung },
                ids,
                ..
            }) => Some((
                *rung,
                harness::recall(&truth.top[request.query as usize], ids.iter().copied()),
            )),
            _ => None,
        };
        if request.due.step == top && request.tenant != 0 {
            cold.0 += 1;
            cold.1 += u64::from(answer.is_some());
        }
        let Some((rung, r)) = answer else { continue };
        if request.due.step < BELOW_CAPACITY {
            recalls.push(r);
        }
        if request.due.step == top {
            top_recalls.push(r);
        }
        if rung > 0 {
            browned_recalls.push(r);
        }
        rung_max = rung_max.max(rung);
    }
    let recall = harness::mean(&recalls);
    let mut lag_ms: Vec<f64> = run
        .sent_at
        .iter()
        .zip(&plan)
        .map(|(sent, r)| sent.saturating_sub(r.due.at).as_secs_f64() * 1e3)
        .collect();
    // Below capacity a late send distorts the latencies timed from due time,
    // so that is where lateness invalidates a run. Above it the sender shares
    // two saturated cores with the server, and a millisecond of lag only
    // bunches an offered load that is three times too much anyway.
    let below_sends = plan
        .iter()
        .take_while(|r| r.due.step < BELOW_CAPACITY)
        .count();
    let mut lag_below = lag_ms[..below_sends].to_vec();
    lag_below.sort_by(f64::total_cmp);
    let lag_below_p99 = stats::percentile(&lag_below, 99.0);
    lag_ms.sort_by(f64::total_cmp);
    let lag_p99 = stats::percentile(&lag_ms, 99.0);

    let overload_before = stats_before.overload.clone().unwrap_or_default();
    let overload = stats_after.overload.clone().unwrap_or_default();
    let steps_down = overload.brownout_steps_down - overload_before.brownout_steps_down;
    let lost: u64 = steps.iter().map(|s| s.lost).sum();
    let served = Served {
        query: stats::summarize_quiet(&mut pipe.latency_ms),
        goodput_qps: stats::quiet_rate(&pipe.done_s),
        answered_share: (pipe.answered + below.answered) as f64
            / (pipe.sent + below.sent).max(1) as f64,
        recall_at_10: recall,
        serve_rss_mb: cpu_after.peak_rss_mb,
        oneshot: stats::summarize(&mut oneshots.wall_ms),
    };
    let gates = vec![
        Gate::check(
            "overload.every_response_structured",
            run.unstructured == 0 && lost == 0,
            format!("{} unstructured or duplicate responses, {lost} requests never answered", run.unstructured),
        ),
        Gate::check(
            "overload.pipeline_answered",
            pipe.refused + pipe.incomplete == 0,
            format!(
                "{} refused, {} incomplete of {} pipelined queries (16 in flight never fills a queue of 64)",
                pipe.refused, pipe.incomplete, pipe.sent
            ),
        ),
        Gate::check(
            "overload.server_survives",
            exit == Some(0),
            format!("server exit {exit:?} after SIGTERM; stderr: {}", stderr.lines().last().unwrap_or("")),
        ),
        Gate::check(
            "overload.oneshots_answered",
            oneshots.failed == 0,
            format!("{} one-shot queries failed on the idle server", oneshots.failed),
        ),
        Gate::calibration(
            "overload.low_steps_meet_slo",
            SLO.met_by(&outcomes[0]) && SLO.met_by(&outcomes[1]),
            format!(
                "step 1 tail {:.2} ms failed {:.4}; step 2 tail {:.2} ms failed {:.4} (SLO {} ms, {})",
                outcomes[0].tail_ms, outcomes[0].failed_share, outcomes[1].tail_ms, outcomes[1].failed_share,
                SLO.tail_ms, SLO.failed_share
            ),
        ),
        Gate::calibration(
            "overload.top_step_misses_slo",
            !SLO.met_by(&outcomes[top]),
            format!("step 4 tail {:.2} ms failed {:.4}", outcomes[top].tail_ms, outcomes[top].failed_share),
        ),
        Gate::calibration(
            "overload.brownout_steps_down",
            steps_down >= 1,
            format!("{steps_down} brownout step(s) down during the staircase"),
        ),
        Gate::calibration(
            "overload.generator_on_time",
            lag_below_p99 <= 1.0,
            format!("send lag p99 {lag_below_p99:.3} ms in steps 1-2, {lag_p99:.3} ms over the whole staircase"),
        ),
    ];

    let mut layers_out = Layers::default();
    if ctx.trace {
        layers_out.set("serve.slo_rate_qps", slo_rate, 1);
        const STEP_METRICS: [[&str; 4]; 4] = [
            [
                "serve.step1.p50_ms",
                "serve.step1.tail_ms",
                "serve.step1.goodput_qps",
                "serve.step1.failed_share",
            ],
            [
                "serve.step2.p50_ms",
                "serve.step2.tail_ms",
                "serve.step2.goodput_qps",
                "serve.step2.failed_share",
            ],
            [
                "serve.step3.p50_ms",
                "serve.step3.tail_ms",
                "serve.step3.goodput_qps",
                "serve.step3.failed_share",
            ],
            [
                "serve.step4.p50_ms",
                "serve.step4.tail_ms",
                "serve.step4.goodput_qps",
                "serve.step4.failed_share",
            ],
        ];
        for (names, step) in STEP_METRICS.iter().zip(&steps) {
            layers_out.set(names[0], step.latency.p50, step.latency.samples);
            layers_out.set(names[1], step.latency.tail, step.latency.samples);
            layers_out.set(names[2], step.answered as f64 / step_secs, step.sent);
            layers_out.set(names[3], step.outcome.failed_share, step.sent);
        }
        let answered_total: u64 = steps.iter().map(|s| s.answered).sum();
        serving::stats_delta_layers(&mut layers_out, &stats_before, &stats_after);
        layers_out.set("serve.server.threads", cpu_after.threads as f64, 1);
        layers_out.set(
            "serve.server.cpu_us_per_query",
            (cpu_after.cpu_s - cpu_before.cpu_s) * 1e6 / answered_total.max(1) as f64,
            answered_total,
        );
        layers_out.set("serve.server.startup_ms", server_startup_ms, 1);
        layers_out.set("serve.brownout.steps_down", steps_down as f64, 1);
        layers_out.set(
            "serve.brownout.steps_up",
            (overload.brownout_steps_up - overload_before.brownout_steps_up) as f64,
            1,
        );
        layers_out.set(
            "serve.brownout.answers",
            (overload.brownout_answers - overload_before.brownout_answers) as f64,
            1,
        );
        layers_out.set("serve.brownout.rung_max", f64::from(rung_max), 1);
        layers_out.set(
            "serve.step4.recall_at_10",
            harness::mean(&top_recalls),
            top_recalls.len() as u64,
        );
        layers_out.set(
            "serve.brownout.recall_at_10",
            harness::mean(&browned_recalls),
            browned_recalls.len() as u64,
        );
        layers_out.set(
            "serve.server.bucket_shed",
            (overload.bucket_shed - overload_before.bucket_shed) as f64,
            1,
        );
        layers_out.set(
            "serve.server.displaced",
            (overload.displaced - overload_before.displaced) as f64,
            1,
        );
        layers_out.set(
            "serve.server.codel_shed",
            (overload.codel_shed - overload_before.codel_shed) as f64,
            1,
        );
        layers_out.set(
            "serve.tenant.cold_answered_share",
            cold.1 as f64 / cold.0.max(1) as f64,
            cold.0,
        );
        layers_out.set(
            "serve.client.sched_lag_p99_ms",
            lag_p99,
            lag_ms.len() as u64,
        );
        let report = TraceReport::collect(ctx, std::mem::take(&mut run.spans))?;
        report.harness_layers(&mut layers_out, untraced_p50, steps[0].latency.p50, None);
    }

    let mut phases = vec![Phase {
        name: format!("{PIPELINE_DEPTH}-deep pipeline"),
        sent: pipe.sent,
        succeeded: pipe.answered,
        failed: pipe.refused + pipe.incomplete,
    }];
    phases.extend(steps.iter().enumerate().map(|(s, step)| Phase {
        name: format!("step {} at {} qps", s + 1, RATES_QPS[s]),
        sent: step.sent,
        succeeded: step.answered,
        // Refusals under deliberate overload are answers; only requests
        // the server never answered count as failed operations.
        failed: step.lost,
    }));
    phases.push(Phase {
        name: "one-shot on the idle server".to_string(),
        sent: oneshots.answered + oneshots.failed,
        succeeded: oneshots.answered,
        failed: oneshots.failed,
    });
    Ok(Outcome::assemble(
        ctx, &setup, prep_s, served, layers_out, gates, phases,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed_with_the_stated_skew() {
        let a = plan(3, 2000, &[1000.0, 2000.0], 1.0);
        let b = plan(3, 2000, &[1000.0, 2000.0], 1.0);
        assert_eq!(a.len(), 3000);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.query == y.query && x.tenant == y.tenant && x.due == y.due));
        let c = plan(4, 2000, &[1000.0, 2000.0], 1.0);
        assert!(a.iter().zip(&c).any(|(x, y)| x.query != y.query));
        let hot = a.iter().filter(|r| r.tenant == 0).count() as f64 / a.len() as f64;
        assert!(
            (0.62..0.72).contains(&hot),
            "hot share {hot} should be near 8/12"
        );
        assert!(a.iter().all(|r| (r.tenant as usize) < TENANTS.len()));
    }

    #[test]
    fn reads_the_rung_from_a_health_label() {
        assert_eq!(brownout_rung("hnsw"), 0);
        assert_eq!(brownout_rung("hnsw (brownout-2)"), 2);
        assert_eq!(brownout_rung("hnsw (stale) (brownout-3)"), 3);
    }
}
