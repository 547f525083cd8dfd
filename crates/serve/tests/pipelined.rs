//! Pipelined serving end-to-end: multi-query windows over one connection,
//! out-of-order correlation, wave formation on the server, untagged
//! queries answered with plain frames beside tagged ones, and a client
//! that refuses answers it cannot correlate.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use deepjoin_ann::Budget;
use deepjoin_serve::{
    protocol, Client, ClientError, ErrorCode, Health, Hit, LoadedSnapshot, QueryOutcome,
    QueryReply, QuerySpec, Request, Response, ServeModel, Server, ServerConfig, ServerHandle,
    WaveQuery, WireHit,
};

/// A deterministic model whose answer encodes the query name, so replies
/// filed to the wrong request id are detectable. Tracks the largest wave
/// it was asked to answer.
struct EchoModel {
    n: usize,
    delay: Duration,
    max_wave: Arc<AtomicUsize>,
}

fn echo_outcome(name: &str, k: usize, n: usize) -> QueryOutcome {
    // Hit id = hash of the name, stable per query text.
    let tag: u32 = name.bytes().fold(7u32, |h, b| h.wrapping_mul(31).wrapping_add(b as u32));
    QueryOutcome {
        hits: (0..k.min(n))
            .map(|i| Hit {
                id: tag.wrapping_add(i as u32),
                score: i as f32,
                label: format!("{name}#{i}"),
            })
            .collect(),
        complete: true,
        visited: k,
        via_fallback: false,
    }
}

impl ServeModel for EchoModel {
    fn indexed_len(&self) -> usize {
        self.n
    }

    fn health(&self) -> Health {
        Health::Hnsw
    }

    fn query(&self, _cells: &[String], name: &str, k: usize, _budget: &Budget) -> QueryOutcome {
        if !self.delay.is_zero() {
            thread::sleep(self.delay);
        }
        echo_outcome(name, k, self.n)
    }

    fn query_batch(&self, wave: &[WaveQuery<'_>], _budget: &Budget) -> Vec<QueryOutcome> {
        self.max_wave.fetch_max(wave.len(), Ordering::SeqCst);
        if !self.delay.is_zero() {
            thread::sleep(self.delay);
        }
        wave.iter().map(|q| echo_outcome(q.name, q.k, self.n)).collect()
    }
}

/// The wire reply the echo model gives for `name` at `k`.
fn echo_reply(name: &str, k: u32) -> QueryReply {
    QueryReply {
        generation: 1,
        indexed: 64,
        health_code: 0,
        health_label: "hnsw".to_string(),
        complete: true,
        degraded: false,
        via_fallback: false,
        visited: k as u64,
        hits: echo_outcome(name, k as usize, 64)
            .hits
            .into_iter()
            .map(|h| WireHit {
                id: h.id,
                score: h.score,
                label: h.label,
            })
            .collect(),
    }
}

fn echo_server(
    config: ServerConfig,
    delay: Duration,
) -> (String, ServerHandle, thread::JoinHandle<()>, Arc<AtomicUsize>) {
    let max_wave = Arc::new(AtomicUsize::new(0));
    let loader: deepjoin_serve::Loader = {
        let max_wave = max_wave.clone();
        Box::new(move |_path| {
            Ok(LoadedSnapshot {
                model: Box::new(EchoModel {
                    n: 64,
                    delay,
                    max_wave: max_wave.clone(),
                }),
                warnings: vec![],
            })
        })
    };
    let server = Server::start(config, loader).expect("server start");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join, max_wave)
}

fn stop(handle: &ServerHandle, join: thread::JoinHandle<()>) {
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn pipelined_queries_return_in_input_order_and_match_single_queries() {
    let (addr, handle, join, max_wave) = echo_server(
        ServerConfig {
            workers: 2,
            wave_width: 8,
            ..ServerConfig::default()
        },
        Duration::from_millis(2),
    );
    let cells = vec!["x".to_string(), "y".to_string()];
    let names: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"];

    // Reference answers over the plain single-query path.
    let mut reference = Vec::new();
    {
        let mut c = Client::connect(&addr).unwrap();
        for name in names {
            reference.push(c.query(name, &cells, 5).unwrap());
        }
    }

    let mut c = Client::connect(&addr).unwrap();
    let mut queries: Vec<QuerySpec<'_>> = names
        .iter()
        .map(|name| QuerySpec { name, cells: &cells, k: 5 })
        .collect();
    // Every member honors its own k, and a k = 0 member is refused on its
    // own: the rest of the window still answers.
    queries.push(QuerySpec { name: "iota", cells: &cells, k: 2 });
    queries.push(QuerySpec { name: "kappa", cells: &cells, k: 0 });
    let results = c.query_pipelined(&queries, 8).unwrap();
    assert_eq!(results.len(), names.len() + 2);
    let own_k = results[names.len()].as_ref().expect("k = 2 member answered");
    assert_eq!(own_k.hits.len(), 2);
    assert!(own_k.hits[0].label.starts_with("iota"));
    match &results[names.len() + 1] {
        Err(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("k = 0 member must shed with BadRequest, got {other:?}"),
    }
    for (i, r) in results[..names.len()].iter().enumerate() {
        let reply = r.as_ref().expect("pipelined member answered");
        assert_eq!(
            reply.hits, reference[i].hits,
            "pipelined answer for '{}' must be bit-identical to the single-query answer",
            names[i]
        );
    }
    // With 8 queries racing 2 workers, at least one wave must have packed
    // more than one member.
    assert!(
        max_wave.load(Ordering::SeqCst) > 1,
        "pipelined window never formed a multi-member wave"
    );
    stop(&handle, join);
}

// ---- untagged queries: raw frames, answered with plain response frames.

fn read_one_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some(payload)
}

#[test]
fn untagged_queries_get_plain_response_frames() {
    let (addr, handle, join, _max_wave) = echo_server(
        ServerConfig {
            wave_width: 8,
            ..ServerConfig::default()
        },
        Duration::ZERO,
    );
    let mut raw = TcpStream::connect(&addr).unwrap();

    // Ping: response must stay tag RESP_PONG (1).
    let ping = Request::Ping.encode();
    raw.write_all(&(ping.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&ping).unwrap();
    let payload = read_one_frame(&mut raw).expect("pong");
    assert_eq!(payload[1], 1, "Ping response tag changed");

    // An untagged query must come back as a plain tag-2 Query response,
    // never a QueryFor.
    let query = Request::Query {
        name: "compat".to_string(),
        cells: vec!["x".to_string()],
        k: 3,
        tenant: None,
        request_id: None,
    }
    .encode();
    raw.write_all(&(query.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&query).unwrap();
    let payload = read_one_frame(&mut raw).expect("query answer");
    assert_eq!(payload[1], 2, "untagged queries must keep the plain Query response tag");
    match Response::decode(&payload).unwrap() {
        Response::Query(reply) => assert_eq!(reply.hits.len(), 3),
        other => panic!("expected plain Query reply, got {other:?}"),
    }

    // Stats: tag 5, carrying the wave dedup counter.
    let stats = Request::Stats.encode();
    raw.write_all(&(stats.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&stats).unwrap();
    let payload = read_one_frame(&mut raw).expect("stats answer");
    assert_eq!(payload[1], 5, "Stats response tag changed");
    match Response::decode(&payload).unwrap() {
        Response::Stats(s) => assert_eq!(s.dedup_hits, Some(0)),
        other => panic!("expected Stats, got {other:?}"),
    }
    stop(&handle, join);
}

#[test]
fn interleaved_untagged_and_pipelined_traffic() {
    // A connection may mix untagged queries (answered inline, in order)
    // with tagged pipelined windows. The untagged reply must arrive as a
    // plain Query frame even while tagged work is in flight elsewhere.
    let (addr, handle, join, _max_wave) = echo_server(
        ServerConfig {
            workers: 2,
            wave_width: 8,
            ..ServerConfig::default()
        },
        Duration::from_millis(1),
    );
    let cells = vec!["x".to_string()];
    let mut tagged = Client::connect(&addr).unwrap();
    let mut plain = Client::connect(&addr).unwrap();
    let t = thread::spawn(move || {
        let cells = vec!["x".to_string()];
        let queries: Vec<QuerySpec<'_>> = (0..16)
            .map(|_| QuerySpec { name: "pipelined", cells: &cells, k: 4 })
            .collect();
        tagged.query_pipelined(&queries, 16).unwrap()
    });
    for _ in 0..8 {
        let reply = plain.query("interleaved", &cells, 4).unwrap();
        assert_eq!(reply.hits.len(), 4);
    }
    let results = t.join().unwrap();
    assert!(results.iter().all(|r| r.is_ok()));
    stop(&handle, join);
}

#[test]
fn a_plain_answer_to_a_tagged_query_is_a_protocol_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let join = thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let payload = read_one_frame(&mut s).expect("tagged query");
        // Answer as if the id were not there: a plain Query frame.
        let resp = match Request::decode(&payload) {
            Ok(Request::Query {
                name,
                k,
                request_id: Some(_),
                ..
            }) => Response::Query(echo_reply(&name, k)),
            other => panic!("expected a tagged query, got {other:?}"),
        };
        protocol::write_frame(&mut s, &resp.encode()).unwrap();
        let mut buf = [0u8; 64];
        while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
    });
    let cells = vec!["x".to_string()];
    let mut c = Client::connect(&addr).unwrap();
    let queries = [QuerySpec { name: "a", cells: &cells, k: 1 }];
    match c.query_pipelined(&queries, 1) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("QueryFor"), "got: {msg}"),
        other => panic!("an uncorrelated answer must be a protocol error, got {other:?}"),
    }
    drop(c);
    join.join().unwrap();
}

// ---- out-of-order correlation: shuffled answers, duplicate ids, orphans.

/// A server that reads `expect` tagged queries off one connection, then
/// answers them as QueryFor frames in the order given by `order` (indices
/// into arrival order), with optional duplicate/orphan injections.
fn scripted_server(
    expect: usize,
    reorder: impl Fn(Vec<u64>) -> Vec<u64> + Send + 'static,
) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let join = thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut ids = Vec::new();
        let mut names = std::collections::HashMap::new();
        while ids.len() < expect {
            let payload = match read_one_frame(&mut s) {
                Some(p) => p,
                None => return,
            };
            match Request::decode(&payload) {
                Ok(Request::Query { name, request_id: Some(id), k, .. }) => {
                    ids.push(id);
                    names.insert(id, (name, k));
                }
                other => panic!("scripted server expected tagged queries, got {other:?}"),
            }
        }
        for id in reorder(ids) {
            // An id the client never sent (an orphan) gets an empty answer.
            let reply = match names.get(&id) {
                Some((name, k)) => echo_reply(name, *k),
                None => echo_reply("orphan", 0),
            };
            let resp = Response::QueryFor {
                request_id: id,
                reply: Ok(reply),
            };
            let enc = resp.encode();
            if s.write_all(&(enc.len() as u32).to_le_bytes()).is_err()
                || s.write_all(&enc).is_err()
            {
                return;
            }
        }
        // Hold the connection open until the client hangs up, so the
        // client never sees an EOF race while draining.
        let mut buf = [0u8; 64];
        while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
    });
    (addr, join)
}

#[test]
fn shuffled_responses_correlate_back_to_input_order() {
    // Deterministic shuffle: reverse, then swap the middle pair.
    let (addr, join) = scripted_server(6, |mut ids| {
        ids.reverse();
        ids.swap(2, 3);
        ids
    });
    let cells = vec!["x".to_string()];
    let mut c = Client::connect(&addr).unwrap();
    let names = ["a", "b", "c", "d", "e", "f"];
    let queries: Vec<QuerySpec<'_>> = names
        .iter()
        .enumerate()
        .map(|(i, name)| QuerySpec { name, cells: &cells, k: (i + 1) as u32 })
        .collect();
    let results = c.query_pipelined(&queries, 6).unwrap();
    for (i, r) in results.iter().enumerate() {
        let reply = r.as_ref().expect("answered");
        assert_eq!(reply.hits.len(), i + 1, "result {i} mis-correlated after shuffle");
        assert!(reply.hits[0].label.starts_with(names[i]));
    }
    drop(c);
    join.join().unwrap();
}

#[test]
fn duplicate_response_ids_are_rejected_as_protocol_errors() {
    let (addr, join) = scripted_server(2, |ids| vec![ids[0], ids[0], ids[1]]);
    let cells = vec!["x".to_string()];
    let mut c = Client::connect(&addr).unwrap();
    let queries = vec![
        QuerySpec { name: "a", cells: &cells, k: 1 },
        QuerySpec { name: "b", cells: &cells, k: 2 },
    ];
    match c.query_pipelined(&queries, 2) {
        Err(ClientError::Protocol(msg)) => {
            assert!(msg.contains("duplicate"), "error must name the duplicate, got: {msg}");
        }
        other => panic!("duplicate id must be a protocol error, got {other:?}"),
    }
    drop(c);
    join.join().unwrap();
}

#[test]
fn orphan_response_ids_are_rejected_as_protocol_errors() {
    let (addr, join) = scripted_server(2, |ids| vec![9999, ids[0], ids[1]]);
    let cells = vec!["x".to_string()];
    let mut c = Client::connect(&addr).unwrap();
    let queries = vec![
        QuerySpec { name: "a", cells: &cells, k: 1 },
        QuerySpec { name: "b", cells: &cells, k: 2 },
    ];
    match c.query_pipelined(&queries, 2) {
        Err(ClientError::Protocol(msg)) => {
            assert!(
                msg.contains("unknown") || msg.contains("9999"),
                "error must flag the orphan id, got: {msg}"
            );
        }
        other => panic!("orphan id must be a protocol error, got {other:?}"),
    }
    drop(c);
    join.join().unwrap();
}

#[test]
fn correlation_fuzz_many_windows_survive_xorshift_shuffles() {
    // Deterministic pseudo-random shuffles over several window sizes: the
    // correlator must file every answer correctly regardless of order.
    for (round, &n) in [1usize, 2, 3, 5, 8, 13, 21].iter().enumerate() {
        let seed = 0x9E3779B97F4A7C15u64.wrapping_mul(round as u64 + 1);
        let (addr, join) = scripted_server(n, move |mut ids| {
            // Fisher–Yates with an xorshift64 stream.
            let mut s = seed | 1;
            for i in (1..ids.len()).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let j = (s % (i as u64 + 1)) as usize;
                ids.swap(i, j);
            }
            ids
        });
        let cells = vec!["x".to_string()];
        let names: Vec<String> = (0..n).map(|i| format!("q{i}")).collect();
        let mut c = Client::connect(&addr).unwrap();
        let queries: Vec<QuerySpec<'_>> = names
            .iter()
            .enumerate()
            .map(|(i, name)| QuerySpec { name, cells: &cells, k: (i % 7 + 1) as u32 })
            .collect();
        let results = c.query_pipelined(&queries, n).unwrap();
        for (i, r) in results.iter().enumerate() {
            let reply = r.as_ref().expect("answered");
            assert!(
                reply.hits[0].label.starts_with(&names[i]),
                "window {n} result {i} mis-correlated"
            );
        }
        drop(c);
        join.join().unwrap();
    }
}
