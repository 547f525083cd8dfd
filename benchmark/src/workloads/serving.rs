//! Client-side pieces the three serving workloads share: the closed-loop
//! query connection (frame level, so each step of a round trip gets a span),
//! the one-shot client, and readings of the server's own counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::harness::{self, Layers, Truth, K};
use crate::layers::{self, Answer, Query, QueryReply, StatsReply};
use crate::trace::{Span, Tracer};

/// What one closed-loop connection saw.
#[derive(Default)]
pub struct ClosedLoop {
    pub latency_ms: Vec<f64>,
    /// First reply to each query, by query index.
    pub first_reply: Vec<Option<QueryReply>>,
    pub sent: u64,
    /// Complete answers with k hits.
    pub answered: u64,
    /// Structured refusals (`Overloaded`, `DeadlineExceeded`, ...).
    pub refused: u64,
    /// Partial answers (deadline hit mid-search) or fewer than k hits.
    pub incomplete: u64,
    /// Distance evaluations the server reported, summed over replies.
    pub evals: u64,
    pub query_bytes: u64,
    pub reply_bytes: u64,
    /// When each complete answer arrived, seconds since the loop began.
    pub done_s: Vec<f64>,
    pub spans: Vec<Span>,
}

impl ClosedLoop {
    /// File the answer to query `qi`, which arrived `at` into the loop.
    fn tally(&mut self, qi: usize, answer: Answer, at: Duration) {
        match answer {
            Answer::Reply(reply) => {
                self.evals += reply.visited;
                if is_full_answer(&reply) {
                    self.answered += 1;
                    self.done_s.push(at.as_secs_f64());
                } else {
                    self.incomplete += 1;
                }
                if self.first_reply[qi].is_none() {
                    self.first_reply[qi] = Some(reply);
                }
            }
            Answer::Refused(..) => self.refused += 1,
        }
    }

    /// Recall of the first answer to each query against the twin's top-k.
    pub fn recalls(&self, truth: &Truth) -> Vec<f64> {
        self.first_reply
            .iter()
            .zip(&truth.top)
            .filter_map(|(got, want)| {
                got.as_ref()
                    .map(|r| harness::recall(want, r.hits.iter().map(|h| h.id)))
            })
            .collect()
    }
}

/// Was this a full answer? Browned-out answers count: they are complete
/// top-k lists, flagged degraded.
pub fn is_full_answer(reply: &QueryReply) -> bool {
    reply.complete && reply.hits.len() == K
}

/// One persistent connection, one request in flight, cycling `queries` from
/// `offset` until `window` has passed, `max_requests` were sent or `stop` is
/// raised. A transport or
/// protocol failure ends the loop with an error: on these workloads none is
/// expected, so none is retried.
pub fn closed_loop(
    addr: &str,
    queries: &[Query],
    offset: usize,
    window: Duration,
    max_requests: u64,
    stop: Option<&AtomicBool>,
    mut tracer: Tracer,
) -> Result<ClosedLoop, String> {
    let mut stream = layers::wire_connect(addr)?;
    let mut out = ClosedLoop {
        first_reply: vec![None; queries.len()],
        ..ClosedLoop::default()
    };
    let start = Instant::now();
    let mut i = 0u64;
    while i < max_requests
        && start.elapsed() < window
        && !stop.is_some_and(|s| s.load(Ordering::Relaxed))
    {
        let qi = (offset + i as usize) % queries.len();
        let q = &queries[qi];
        let t0 = Instant::now();
        let (sent_bytes, got_bytes, answer) =
            tracer.span("serve.client.query", i, |t| -> Result<_, String> {
                let payload = t.span("serve.protocol.encode_query", i, |_| {
                    layers::protocol_encode_query(q, K as u32, None, None)
                });
                let reply = t.span("serve.wire.roundtrip", i, |_| -> Result<_, String> {
                    layers::protocol_write_frame(&mut stream, &payload)
                        .map_err(|e| format!("write frame: {e}"))?;
                    layers::protocol_read_frame(&mut stream)
                })?;
                let answer = t.span("serve.protocol.decode_reply", i, |_| {
                    layers::protocol_decode_answer(&reply)
                })?;
                Ok((payload.len(), reply.len(), answer.1))
            })?;
        out.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.sent += 1;
        out.query_bytes += sent_bytes as u64;
        out.reply_bytes += got_bytes as u64;
        out.tally(qi, answer, start.elapsed());
        i += 1;
    }
    out.spans = tracer.into_spans();
    Ok(out)
}

/// What the one-shot client saw.
#[derive(Default)]
pub struct Oneshots {
    /// connect -> query -> close, ms.
    pub wall_ms: Vec<f64>,
    pub answered: u64,
    pub failed: u64,
}

/// What `dj query` does, over and over: connect, ask one query, close.
/// Runs `limit` times, or until `window` has passed.
pub fn oneshot_loop(
    addr: &str,
    queries: &[Query],
    limit: usize,
    window: Option<Duration>,
) -> Result<Oneshots, String> {
    let mut out = Oneshots::default();
    let start = Instant::now();
    for i in 0..limit {
        if window.is_some_and(|w| start.elapsed() >= w) {
            break;
        }
        let q = &queries[i % queries.len()];
        let t0 = Instant::now();
        let mut client = layers::client_connect(addr)?;
        let answer = layers::client_query(&mut client, q, K as u32)?;
        drop(client);
        out.wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match answer {
            Answer::Reply(reply) if is_full_answer(&reply) => out.answered += 1,
            _ => out.failed += 1,
        }
    }
    Ok(out)
}

/// connect -> `Pong`, ms.
pub fn connect_ms(addr: &str, n: usize) -> Result<Vec<f64>, String> {
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let mut client = layers::client_connect(addr)?;
        layers::client_ping(&mut client)?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ms)
}

pub fn server_stats(addr: &str) -> Result<StatsReply, String> {
    layers::client_stats(&mut layers::client_connect(addr)?)
}

/// The server's own counters over a window, as per-layer metrics.
pub fn stats_delta_layers(layers_out: &mut Layers, before: &StatsReply, after: &StatsReply) {
    let accepted = after.accepted - before.accepted;
    for (name, delta) in [
        ("serve.server.accepted", accepted),
        ("serve.server.shed", after.shed - before.shed),
        ("serve.server.expired", after.expired - before.expired),
        (
            "serve.server.degraded_answers",
            after.degraded_answers - before.degraded_answers,
        ),
        (
            "serve.server.cache_hits",
            after.cache_hits - before.cache_hits,
        ),
        (
            "serve.server.cache_misses",
            after.cache_misses - before.cache_misses,
        ),
        (
            "serve.server.dedup_hits",
            after.dedup_hits.unwrap_or(0) - before.dedup_hits.unwrap_or(0),
        ),
    ] {
        layers_out.set(name, delta as f64, accepted);
    }
}

/// One connection kept full: `depth` tagged requests in flight, a new one
/// sent for every answer read, until `window` has passed; then the pipeline
/// drains. The server sees a standing backlog of `depth`, so its worker forms
/// waves and never idles: this measures what one connection can pull through,
/// and each query's latency includes its wait for a wave.
pub fn pipelined_loop(
    addr: &str,
    queries: &[Query],
    depth: usize,
    window: Duration,
) -> Result<ClosedLoop, String> {
    let stream = layers::wire_connect(addr)?;
    let mut reader = std::io::BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?,
    );
    let mut writer = std::io::BufWriter::new(stream);
    let mut out = ClosedLoop {
        first_reply: vec![None; queries.len()],
        ..ClosedLoop::default()
    };
    // Send time of every request, by id.
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut outstanding = 0usize;
    let start = Instant::now();
    loop {
        let open = start.elapsed() < window;
        while open && outstanding < depth {
            let id = sent_at.len();
            let payload = layers::protocol_encode_query(
                &queries[id % queries.len()],
                K as u32,
                None,
                Some(id as u64),
            );
            sent_at.push(Instant::now());
            layers::protocol_write_frame(&mut writer, &payload)
                .map_err(|e| format!("write frame: {e}"))?;
            out.query_bytes += payload.len() as u64;
            outstanding += 1;
        }
        if outstanding == 0 {
            break;
        }
        let frame = layers::protocol_read_frame(&mut reader)?;
        let (Some(id), answer) = layers::protocol_decode_answer(&frame)? else {
            return Err("uncorrelated answer to a tagged request".to_string());
        };
        let sent = sent_at
            .get(id as usize)
            .ok_or("answer to a request never sent")?;
        out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        out.reply_bytes += frame.len() as u64;
        outstanding -= 1;
        out.tally(id as usize % queries.len(), answer, start.elapsed());
    }
    out.sent = sent_at.len() as u64;
    Ok(out)
}
