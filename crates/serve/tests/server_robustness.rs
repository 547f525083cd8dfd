//! In-process robustness tests: a toy [`ServeModel`] with controllable
//! latency, panics, and per-generation answers exercises every layer of the
//! ladder — admission control, deadlines, panic recovery, protocol fault
//! handling, hot reload consistency, and graceful drain — deterministically
//! and without artifacts on disk.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use deepjoin_ann::Budget;
use deepjoin_serve::{
    protocol, BrownoutConfig, Client, ClientError, ErrorCode, Health, Hit, LoadedSnapshot, QueryOutcome,
    Request, Response, RetryPolicy, ServeModel, Server, ServerConfig, ServerHandle,
};

/// A model whose answers encode its own identity: hit ids start at
/// `gen * 1000`, so any response mixing two generations is detectable.
struct ToyModel {
    generation_tag: u32,
    n: usize,
    delay: Duration,
    health: Health,
}

impl ServeModel for ToyModel {
    fn indexed_len(&self) -> usize {
        self.n
    }

    fn health(&self) -> Health {
        self.health.clone()
    }

    fn query(&self, _cells: &[String], name: &str, k: usize, budget: &Budget) -> QueryOutcome {
        if name == "panic-now" {
            panic!("injected model failure");
        }
        // Sleep in small slices so the deadline is honored cooperatively,
        // like the real budgeted index search.
        let start = Instant::now();
        let mut complete = true;
        while start.elapsed() < self.delay {
            if budget.expired() {
                complete = false;
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let take = if complete { k.min(self.n) } else { k.min(1) };
        QueryOutcome {
            hits: (0..take)
                .map(|i| Hit {
                    id: self.generation_tag * 1000 + i as u32,
                    score: i as f32,
                    label: format!("gen{}.col{i}", self.generation_tag),
                })
                .collect(),
            complete,
            visited: take,
            via_fallback: false,
        }
    }
}

/// Loader producing a fresh generation tag on every (re)load.
fn toy_loader(delay: Duration, n: usize) -> deepjoin_serve::Loader {
    let loads = AtomicU32::new(0);
    Box::new(move |_path| {
        let tag = loads.fetch_add(1, Ordering::SeqCst) + 1;
        Ok(LoadedSnapshot {
            model: Box::new(ToyModel {
                generation_tag: tag,
                n,
                delay,
                health: Health::Hnsw,
            }),
            warnings: vec![],
        })
    })
}

/// Start a server on a free port in a background thread; returns the
/// address, a control handle, and the join handle.
fn spawn_server(
    config: ServerConfig,
    loader: deepjoin_serve::Loader,
) -> (String, ServerHandle, thread::JoinHandle<()>) {
    let server = Server::start(config, loader).expect("server start");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let join = thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle, join)
}

fn stop(handle: &ServerHandle, join: thread::JoinHandle<()>) {
    handle.shutdown();
    join.join().expect("server thread");
}

fn cells(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("cell{i}")).collect()
}

#[test]
fn ping_query_stats_roundtrip() {
    let (addr, handle, join) = spawn_server(
        ServerConfig::default(),
        toy_loader(Duration::ZERO, 10),
    );
    let mut c = Client::connect(&addr).unwrap();
    c.ping().unwrap();
    let reply = c.query("orders.id", &cells(3), 5).unwrap();
    assert_eq!(reply.generation, 1);
    assert_eq!(reply.hits.len(), 5);
    assert_eq!(reply.hits[0].id, 1000);
    assert_eq!(reply.hits[0].label, "gen1.col0");
    assert!(reply.complete);
    assert!(!reply.degraded);
    assert_eq!(reply.indexed, 10);
    let stats = c.stats().unwrap();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.shed, 0);
    stop(&handle, join);
}

#[test]
fn k_is_clamped_to_index_size() {
    let (addr, handle, join) = spawn_server(
        ServerConfig::default(),
        toy_loader(Duration::ZERO, 4),
    );
    let mut c = Client::connect(&addr).unwrap();
    let reply = c.query("q", &cells(2), 999).unwrap();
    assert_eq!(reply.hits.len(), 4, "k must clamp to the index size");
    // k = 0 is rejected before admission, not clamped.
    match c.query("q", &cells(2), 0) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest for k=0, got {other:?}"),
    }
    stop(&handle, join);
}

#[test]
fn overload_sheds_with_structured_error() {
    // One worker, one queue slot, slow model: concurrent clients must see
    // at least one Overloaded shed and at least one success — and nobody
    // gets a connection reset.
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            workers: 1,
            max_inflight: 1,
            ..ServerConfig::default()
        },
        toy_loader(Duration::from_millis(150), 10),
    );
    let shed = Arc::new(AtomicU32::new(0));
    let ok = Arc::new(AtomicU32::new(0));
    let mut threads = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        let shed = shed.clone();
        let ok = ok.clone();
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            match c.query("q", &["x".to_string()], 3) {
                Ok(_) => {
                    ok.fetch_add(1, Ordering::SeqCst);
                }
                Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                    shed.fetch_add(1, Ordering::SeqCst);
                }
                Err(other) => panic!("expected success or Overloaded, got {other}"),
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert!(ok.load(Ordering::SeqCst) >= 1, "someone must be served");
    assert!(
        shed.load(Ordering::SeqCst) >= 1,
        "an 8-way burst against capacity 2 must shed"
    );
    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.shed as u32, shed.load(Ordering::SeqCst));
    stop(&handle, join);
}

#[test]
fn deadline_produces_partial_degraded_answer_within_bound() {
    let deadline = Duration::from_millis(60);
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            deadline: Some(deadline),
            ..ServerConfig::default()
        },
        toy_loader(Duration::from_secs(30), 10), // model would take 30 s
    );
    let mut c = Client::connect(&addr).unwrap();
    let start = Instant::now();
    let reply = c.query("slow", &cells(2), 5).unwrap();
    let took = start.elapsed();
    assert!(!reply.complete, "deadline must cut the query short");
    assert!(reply.degraded, "partial answers must be flagged degraded");
    assert!(
        took < deadline * 4 + Duration::from_millis(250),
        "answer took {took:?}, far past the {deadline:?} deadline"
    );
    stop(&handle, join);
}

#[test]
fn model_panic_returns_internal_error_and_worker_survives() {
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            workers: 1, // the one worker must survive the panic
            ..ServerConfig::default()
        },
        toy_loader(Duration::ZERO, 5),
    );
    let mut c = Client::connect(&addr).unwrap();
    match c.query("panic-now", &cells(1), 3) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Internal),
        other => panic!("expected Internal, got {other:?}"),
    }
    // Same single worker, next query: still alive.
    let reply = c.query("fine", &cells(1), 3).unwrap();
    assert_eq!(reply.hits.len(), 3);
    stop(&handle, join);
}

#[test]
fn reload_during_queries_never_tears_a_snapshot() {
    // Hammer queries from several threads while reloading continuously.
    // Every response must be internally consistent: hit ids and labels
    // must all belong to the generation the response claims.
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
        toy_loader(Duration::from_millis(2), 10),
    );
    let stop_flag = Arc::new(AtomicU32::new(0));
    let mut threads = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        let stop_flag = stop_flag.clone();
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let mut checked = 0u32;
            while stop_flag.load(Ordering::SeqCst) == 0 {
                let reply = match c.query("q", &["x".to_string()], 5) {
                    Ok(r) => r,
                    // A drain racing the loop end is fine.
                    Err(ClientError::Server(e)) if e.code == ErrorCode::Unavailable => break,
                    Err(other) => panic!("query failed: {other}"),
                };
                // The toy model tags every hit with its generation; the
                // reply's generation field is the server snapshot's. The
                // loader bumps both in lockstep, so any mix is a torn read.
                let tag = reply.hits[0].id / 1000;
                for h in &reply.hits {
                    assert_eq!(h.id / 1000, tag, "hits from two snapshots in one reply");
                    assert!(
                        h.label.starts_with(&format!("gen{tag}.")),
                        "label {} does not match generation {tag}",
                        h.label
                    );
                }
                assert_eq!(
                    reply.generation, tag,
                    "reply claims generation {} but hits came from {tag}",
                    reply.generation
                );
                checked += 1;
            }
            assert!(checked > 0, "thread never completed a query");
        }));
    }
    let mut reloader = Client::connect(&addr).unwrap();
    let mut last_gen = 1;
    for _ in 0..25 {
        let (generation, _warnings) = reloader.reload(None).unwrap();
        assert!(generation > last_gen);
        last_gen = generation;
        thread::sleep(Duration::from_millis(5));
    }
    stop_flag.store(1, Ordering::SeqCst);
    for t in threads {
        t.join().unwrap();
    }
    stop(&handle, join);
}

// ---- protocol fault injection: the server must answer with a structured
// ---- error or time the peer out; it must never panic, and it must keep
// ---- serving well-formed clients afterwards.

fn assert_still_serving(addr: &str) {
    let mut c = Client::connect(addr).expect("connect after fault");
    c.ping().expect("ping after fault");
}

fn read_one_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some(payload)
}

#[test]
fn garbage_bytes_get_a_structured_bad_request() {
    let (addr, handle, join) = spawn_server(
        ServerConfig::default(),
        toy_loader(Duration::ZERO, 5),
    );
    let mut raw = TcpStream::connect(&addr).unwrap();
    // A well-framed payload of garbage.
    let garbage = [0xDE, 0xAD, 0xBE, 0xEF, 0x42];
    raw.write_all(&(garbage.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&garbage).unwrap();
    let payload = read_one_frame(&mut raw).expect("server must answer, not reset");
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_still_serving(&addr);
    stop(&handle, join);
}

#[test]
fn a_version_1_frame_gets_one_bad_request_naming_it_then_the_connection_closes() {
    let (addr, handle, join) = spawn_server(
        ServerConfig::default(),
        toy_loader(Duration::ZERO, 5),
    );
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut query = Request::Query {
        name: "q".to_string(),
        cells: cells(1),
        k: 3,
        tenant: None,
        request_id: None,
    }
    .encode();
    query[0] = 1;
    protocol::write_frame(&mut raw, &query).unwrap();
    let payload = read_one_frame(&mut raw).expect("server must answer, not reset");
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("version 1"), "got: {}", e.message);
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert!(read_one_frame(&mut raw).is_none(), "one answer, then close");
    assert_still_serving(&addr);
    stop(&handle, join);
}

#[test]
fn oversized_frame_header_is_rejected_before_body() {
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            max_frame: 1024,
            ..ServerConfig::default()
        },
        toy_loader(Duration::ZERO, 5),
    );
    let mut raw = TcpStream::connect(&addr).unwrap();
    // Header claims 512 MiB; no body follows. The server must reject from
    // the header alone.
    raw.write_all(&(512u32 << 20).to_le_bytes()).unwrap();
    let payload = read_one_frame(&mut raw).expect("server must answer, not reset");
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert_still_serving(&addr);
    stop(&handle, join);
}

#[test]
fn truncated_frame_then_close_does_not_leak_a_worker() {
    let (addr, handle, join) = spawn_server(
        ServerConfig::default(),
        toy_loader(Duration::ZERO, 5),
    );
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        // Announce 100 bytes, send 3, slam the connection.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
    } // dropped: EOF mid-frame on the server side
    assert_still_serving(&addr);
    stop(&handle, join);
}

#[test]
fn stalling_client_is_timed_out_not_waited_on_forever() {
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            read_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        },
        toy_loader(Duration::ZERO, 5),
    );
    let mut raw = TcpStream::connect(&addr).unwrap();
    // Announce a frame, send half the header's promise, then stall.
    raw.write_all(&16u32.to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 4]).unwrap();
    let start = Instant::now();
    let payload = read_one_frame(&mut raw).expect("stall must end in a structured error");
    let took = start.elapsed();
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest timeout, got {other:?}"),
    }
    assert!(
        took >= Duration::from_millis(300),
        "timed out suspiciously fast: {took:?}"
    );
    assert!(
        took < Duration::from_secs(5),
        "stall held the connection too long: {took:?}"
    );
    assert_still_serving(&addr);
    stop(&handle, join);
}

#[test]
fn shutdown_request_drains_and_run_returns() {
    let (addr, handle, join) = spawn_server(
        ServerConfig::default(),
        toy_loader(Duration::from_millis(20), 5),
    );
    // Park one query in flight, then ask for shutdown from another
    // connection; the in-flight query must still be answered.
    let addr2 = addr.clone();
    let inflight = thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        c.query("q", &["x".to_string()], 2)
    });
    thread::sleep(Duration::from_millis(5));
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    let reply = inflight.join().unwrap();
    assert!(
        reply.is_ok(),
        "in-flight query must be answered during drain: {reply:?}"
    );
    join.join().expect("run() must return after drain");
    drop(handle);
}

// ---- wake-driven front end: nothing polls, a drain wakes every sleeper.

#[test]
fn an_idle_server_never_wakes_and_answers_a_new_connection_at_once() {
    let (addr, handle, join) = spawn_server(
        ServerConfig::default(),
        toy_loader(Duration::ZERO, 5),
    );
    // Host-independent: however slow the machine, an accept loop that
    // sleeps until woken goes to sleep at most once while nothing happens.
    let mut idle = TcpStream::connect(&addr).unwrap(); // an idle connection too
    protocol::write_frame(&mut idle, &Request::Ping.encode()).unwrap();
    read_one_frame(&mut idle).expect("pong");
    let before = handle.accept_waits();
    thread::sleep(Duration::from_millis(300));
    let waits = handle.accept_waits() - before;
    assert!(waits <= 1, "accept loop woke {waits} times while idle");
    // connect -> Ping -> Pong costs a round trip, not an accept tick.
    let mut took: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            Client::connect(&addr).unwrap().ping().unwrap();
            start.elapsed()
        })
        .collect();
    took.sort();
    assert!(
        took[10] < Duration::from_millis(5),
        "median connect+ping took {:?}",
        took[10]
    );
    stop(&handle, join);
}

#[test]
fn shutdown_wakes_every_idle_connection_at_once() {
    let (addr, handle, join) = spawn_server(
        ServerConfig::default(),
        toy_loader(Duration::ZERO, 5),
    );
    let mut idle: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut raw = TcpStream::connect(&addr).unwrap();
            // Answered once, so its connection thread is up and waiting.
            protocol::write_frame(&mut raw, &Request::Ping.encode()).unwrap();
            read_one_frame(&mut raw).expect("pong");
            raw
        })
        .collect();
    let start = Instant::now();
    handle.shutdown();
    join.join().expect("run() must return after drain");
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(150),
        "drain with 8 idle connections took {took:?}"
    );
    for raw in &mut idle {
        let payload = read_one_frame(raw).expect("an idle peer is told why it is closed");
        match Response::decode(&payload).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Unavailable);
                assert_eq!(e.message, "server is draining");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }
}

#[test]
fn a_trickling_client_is_cut_at_the_total_read_timeout() {
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            read_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        },
        toy_loader(Duration::ZERO, 5),
    );
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut feed = raw.try_clone().unwrap();
    let start = Instant::now();
    // One byte every 50 ms of a frame announcing 200: always making
    // progress, never finishing. Progress must not extend the budget.
    let trickle = thread::spawn(move || {
        let mut bytes = Vec::new();
        protocol::write_frame(&mut bytes, &[0u8; 200]).unwrap();
        for b in bytes {
            if feed.write_all(&[b]).is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(50));
        }
    });
    let payload = read_one_frame(&mut raw).expect("the cut must be a structured error");
    let took = start.elapsed();
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest timeout, got {other:?}"),
    }
    assert!(took >= Duration::from_millis(300), "cut early: {took:?}");
    assert!(took < Duration::from_secs(3), "cut late: {took:?}");
    drop(raw);
    trickle.join().unwrap();
    assert_still_serving(&addr);
    stop(&handle, join);
}

// ---- overload layer: per-tenant admission, fair queueing, brownout.

#[test]
fn token_bucket_sheds_a_flooding_tenant_but_not_a_fresh_one() {
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            tenant_rate: Some(1.0), // 1 query/s refill
            tenant_burst: 2.0,      // 2 queries of burst headroom
            ..ServerConfig::default()
        },
        toy_loader(Duration::ZERO, 5),
    );
    let mut flood = Client::connect(&addr).unwrap();
    flood.set_tenant(Some("flood"));
    let mut ok = 0u32;
    let mut shed = 0u32;
    for _ in 0..6 {
        match flood.query("q", &cells(1), 2) {
            Ok(_) => ok += 1,
            Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                assert!(
                    e.message.contains("rate"),
                    "bucket shed must name the cause, got: {}",
                    e.message
                );
                shed += 1;
            }
            Err(other) => panic!("expected success or Overloaded, got {other}"),
        }
    }
    assert_eq!(ok, 2, "burst capacity admits exactly two back-to-back queries");
    assert_eq!(shed, 4, "everything past the burst is shed");
    // A different tenant has its own bucket: not collateral damage.
    let mut quiet = Client::connect(&addr).unwrap();
    quiet.set_tenant(Some("quiet"));
    quiet.query("q", &cells(1), 2).expect("fresh tenant must be admitted");
    let stats = quiet.stats().unwrap();
    let overload = stats.overload.expect("new server always reports the overload tail");
    assert_eq!(overload.bucket_shed, 4);
    let flood_row = overload
        .tenants
        .iter()
        .find(|t| t.name == "flood")
        .expect("flood tenant tracked");
    assert_eq!(flood_row.accepted, 2);
    assert_eq!(flood_row.shed, 4);
    stop(&handle, join);
}

#[test]
fn a_hot_tenant_cannot_starve_a_light_tenant_at_capacity() {
    // One slow worker and a short queue: the hog keeps the queue full the
    // whole time. Fair admission must still serve every one of the light
    // tenant's (retried) queries, displacing the hog's own backlog instead.
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            workers: 1,
            max_inflight: 4,
            ..ServerConfig::default()
        },
        toy_loader(Duration::from_millis(25), 5),
    );
    let stop_flag = Arc::new(AtomicU32::new(0));
    let mut hogs = Vec::new();
    for _ in 0..6 {
        let addr = addr.clone();
        let stop_flag = stop_flag.clone();
        hogs.push(thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.set_tenant(Some("hog"));
            while stop_flag.load(Ordering::SeqCst) == 0 {
                match c.query("q", &cells(1), 2) {
                    Ok(_) => {}
                    Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {}
                    Err(ClientError::Server(e)) if e.code == ErrorCode::Unavailable => break,
                    Err(other) => panic!("hog hit {other}"),
                }
            }
        }));
    }
    thread::sleep(Duration::from_millis(50)); // let the hogs saturate
    let mut quiet = Client::connect(&addr).unwrap();
    quiet.set_tenant(Some("quiet"));
    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
        jitter_seed: 11,
    };
    for i in 0..5 {
        quiet
            .query_with_retry("q", &cells(1), 2, &policy)
            .unwrap_or_else(|e| panic!("light tenant starved on query {i}: {e}"));
    }
    stop_flag.store(1, Ordering::SeqCst);
    for h in hogs {
        h.join().unwrap();
    }
    let stats = quiet.stats().unwrap();
    let overload = stats.overload.expect("overload tail");
    let quiet_row = overload
        .tenants
        .iter()
        .find(|t| t.name == "quiet")
        .expect("quiet tenant tracked");
    assert_eq!(quiet_row.accepted, 5, "every light-tenant query must land");
    assert!(
        quiet_row.p99_micros > 0,
        "per-tenant latency must be recorded"
    );
    stop(&handle, join);
}

#[test]
fn sustained_queue_delay_steps_brownout_down_and_flags_answers() {
    let (addr, handle, join) = spawn_server(
        ServerConfig {
            workers: 1,
            max_inflight: 16,
            brownout: Some(BrownoutConfig {
                target: Duration::from_millis(5),
                window: Duration::from_millis(20),
            }),
            ..ServerConfig::default()
        },
        toy_loader(Duration::from_millis(30), 5),
    );
    // Sustained overload: enough concurrent clients that jobs always queue
    // well past the 5 ms sojourn target.
    let browned = Arc::new(AtomicU32::new(0));
    let mut threads = Vec::new();
    for _ in 0..6 {
        let addr = addr.clone();
        let browned = browned.clone();
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            for _ in 0..4 {
                match c.query("q", &cells(1), 2) {
                    Ok(reply) => {
                        if reply.health_label.contains("(brownout-") {
                            assert!(
                                reply.degraded,
                                "browned-out answers must be flagged degraded"
                            );
                            browned.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {}
                    Err(other) => panic!("expected answer or Overloaded, got {other}"),
                }
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert!(
        browned.load(Ordering::SeqCst) >= 1,
        "sustained sojourn over target must step the effort ladder down"
    );
    let mut c = Client::connect(&addr).unwrap();
    let overload = c.stats().unwrap().overload.expect("overload tail");
    assert!(
        overload.brownout_steps_down >= 1,
        "controller must record the step down"
    );
    assert!(overload.brownout_answers >= 1);
    stop(&handle, join);
}

#[test]
fn degraded_health_is_mirrored_into_responses() {
    let loader: deepjoin_serve::Loader = Box::new(|_| {
        Ok(LoadedSnapshot {
            model: Box::new(ToyModel {
                generation_tag: 1,
                n: 5,
                delay: Duration::ZERO,
                health: Health::DegradedFlat {
                    reason: "HNSW checksum mismatch".to_string(),
                },
            }),
            warnings: vec!["index degraded".to_string()],
        })
    });
    let (addr, handle, join) = spawn_server(ServerConfig::default(), loader);
    let mut c = Client::connect(&addr).unwrap();
    let reply = c.query("q", &cells(1), 3).unwrap();
    assert!(reply.degraded, "degraded index must flag every answer");
    assert_eq!(reply.health_code, 1);
    assert!(reply.health_label.contains("checksum"));
    assert!(reply.complete, "degraded is about the index, not the scan");
    stop(&handle, join);
}
