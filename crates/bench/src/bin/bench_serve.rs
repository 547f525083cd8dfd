//! `bench_serve` — overload-behavior benchmark for the query server.
//!
//! Measures what the admission layer (per-tenant fair queueing, CoDel-style
//! brownout, effort-ladder degradation) buys under load, against an
//! in-process server over a synthetic model:
//!
//! * **capacity probe** — closed-loop clients (one request in flight each)
//!   find the server's sustainable throughput `C`;
//! * **open loop at 1x / 3x / 10x** — paced clients offer a fixed multiple
//!   of `C` and the report records goodput, shed count, and latency
//!   percentiles. Past capacity the server must shed with structured
//!   `Overloaded` errors — never stalls, resets, or garbage frames;
//! * **hot-tenant skew (8:1)** — one hot tenant offers 8 parts of the
//!   load, four cold tenants one part each, at 1x and again at 10x. The
//!   fairness criterion: cold-tenant goodput at 10x retains >= 80% of its
//!   1x value (the hot tenant's own backlog absorbs the overload);
//! * **pipelined depth sweep (DESIGN.md §17)** — closed-loop clients send
//!   windows of tagged queries with D in {1, 4, 16, 64} in flight over a
//!   flat-index server, so the worker packs concurrent queries into waves
//!   and the batched scan pulls each row block through the cache once per
//!   wave. Depth 1 is the single-query baseline; the report records
//!   goodput and the wave-size p50 per depth, and the sweep verifies the
//!   pipelined answers are bit-identical to single-query answers first.
//!
//! Emits a JSON report (schema `bench_serve/v2`, default
//! `BENCH_serve.json`). Run via `scripts/bench.sh serve`.
//!
//! ```text
//! bench_serve [--quick] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use deepjoin::model::DeepJoin;
use deepjoin_ann::{Budget, FlatIndex, Metric, SearchRequest, VectorIndex};
use deepjoin_serve::{
    BrownoutConfig, Client, ClientError, ErrorCode, Health, Hit, LoadedSnapshot, QueryOutcome,
    QuerySpec, ServeModel, Server, ServerConfig, ServerHandle, WaveQuery,
};

struct Scenario {
    n: usize,
    dim: usize,
    k: usize,
    workers: usize,
    search_repeat: usize,
    probe_conns: usize,
    probe_secs: f64,
    run_secs: f64,
    /// Flat-index corpus for the pipelined sweep: big enough that a
    /// single-query scan is memory-bound (the plane exceeds last-level
    /// cache), so pulling each row block once per *wave* instead of once
    /// per query is a real win, not a cache-resident no-op.
    flat_n: usize,
}

impl Scenario {
    fn new(quick: bool) -> Self {
        // One worker and a corpus big enough that per-query search time
        // dominates: capacity lands in the low thousands of qps, so a few
        // dozen client connections genuinely oversubscribe the server
        // without client-side thread thrash distorting the measurement
        // (CI runners often expose a single core).
        if quick {
            Self {
                n: 24_000,
                dim: 64,
                k: 10,
                workers: 1,
                search_repeat: 8,
                probe_conns: 4,
                probe_secs: 1.0,
                run_secs: 2.0,
                flat_n: 120_000,
            }
        } else {
            Self {
                n: 60_000,
                dim: 64,
                k: 10,
                workers: 1,
                search_repeat: 8,
                probe_conns: 4,
                probe_secs: 3.0,
                run_secs: 5.0,
                flat_n: 240_000,
            }
        }
    }
}

/// A [`ServeModel`] over the synthetic index: the query embedding is a
/// deterministic hash of the query name (the bench measures the serving
/// layer, not the encoder), the search is the real budgeted ladder — so
/// brownout rungs change real work, not a sleep. The search runs
/// `repeat` times per query to emulate production-scale corpus cost:
/// the synthetic index answers in tens of microseconds, which would let
/// framing overhead and client-thread scheduling dominate the
/// measurement on small CI runners.
struct BenchModel {
    model: Arc<DeepJoin>,
    dim: usize,
    repeat: usize,
}

fn query_vector(name: &str, dim: usize) -> Vec<f32> {
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        state ^= b as u64;
        state = state.wrapping_mul(0x1000_0000_01b3);
    }
    let mut state = state | 1;
    (0..dim)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32) / 1000.0 - 1.0
        })
        .collect()
}

impl ServeModel for BenchModel {
    fn indexed_len(&self) -> usize {
        self.model.indexed_len()
    }

    fn health(&self) -> Health {
        Health::Hnsw
    }

    fn query(&self, _cells: &[String], name: &str, k: usize, budget: &Budget) -> QueryOutcome {
        let q = query_vector(name, self.dim);
        let mut ladder = self.model.search_embedded_budgeted(&q, k, budget);
        for _ in 1..self.repeat {
            ladder = self.model.search_embedded_budgeted(&q, k, budget);
        }
        QueryOutcome {
            hits: ladder
                .hits
                .into_iter()
                .map(|sc| Hit {
                    id: sc.id.0,
                    score: -sc.score as f32,
                    label: format!("col#{}", sc.id.0),
                })
                .collect(),
            complete: ladder.complete,
            visited: ladder.visited,
            via_fallback: ladder.via_fallback,
        }
    }
}

fn bench_loader(model: Arc<DeepJoin>, dim: usize, repeat: usize) -> deepjoin_serve::Loader {
    Box::new(move |_path| {
        Ok(LoadedSnapshot {
            model: Box::new(BenchModel {
                model: model.clone(),
                dim,
                repeat,
            }),
            warnings: vec![],
        })
    })
}

/// Outcome counts for one load-generation run (merged over all threads).
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    shed: AtomicU64,
    other_server: AtomicU64,
    /// Transport or protocol failures — responses that were NOT structured.
    unstructured: AtomicU64,
}

/// Closed loop: every connection keeps exactly one request in flight.
/// The aggregate rate is the server's sustainable capacity.
fn capacity_probe(addr: &str, sc: &Scenario) -> f64 {
    let ok = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs_f64(sc.probe_secs);
    std::thread::scope(|s| {
        for t in 0..sc.probe_conns {
            let ok = ok.clone();
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("probe connect");
                let mut i = 0u64;
                while Instant::now() < deadline {
                    let name = format!("probe-{t}-{i}");
                    i += 1;
                    if c.query(&name, &[String::new()], sc.k as u32).is_ok() {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    ok.load(Ordering::Relaxed) as f64 / sc.probe_secs
}

struct TenantLoad {
    /// Tenant tag; empty = untagged (the server's default lane).
    name: String,
    offered_qps: f64,
    conns: usize,
}

struct RunResult {
    attempted: u64,
    ok: u64,
    shed: u64,
    other_server: u64,
    unstructured: u64,
    p50_ms: f64,
    p99_ms: f64,
    /// Goodput per tenant name.
    per_tenant_ok: Vec<(String, u64)>,
}

/// Open loop: each connection fires on a fixed schedule derived from its
/// tenant's offered rate (a blocked connection catches up rather than
/// skipping ticks, so offered load is honest even when the server slows).
fn open_loop(addr: &str, loads: &[TenantLoad], secs: f64, k: usize) -> RunResult {
    let tally = Tally::default();
    let lat = Mutex::new(Vec::<u64>::new());
    let per_tenant: Vec<(String, AtomicU64)> = loads
        .iter()
        .map(|l| (l.name.clone(), AtomicU64::new(0)))
        .collect();
    let attempted = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for (li, load) in loads.iter().enumerate() {
            let per_conn_interval =
                Duration::from_secs_f64(load.conns as f64 / load.offered_qps.max(0.1));
            for ci in 0..load.conns {
                let tally = &tally;
                let lat = &lat;
                let attempted = &attempted;
                let tenant_ok = &per_tenant[li].1;
                let tenant = load.name.clone();
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("load connect");
                    if !tenant.is_empty() {
                        c.set_tenant(Some(&tenant));
                    }
                    let mut tick = start + per_conn_interval.mul_f64(ci as f64 / 7.0 % 1.0);
                    let mut i = 0u64;
                    let mut local_lat = Vec::new();
                    // A shed reply says "retry with backoff"; honoring it is
                    // part of the protocol (and keeps the load generator from
                    // turning rejects into a self-inflicted accept storm).
                    let mut backoff = Duration::ZERO;
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        if now < tick {
                            std::thread::sleep((tick - now).min(Duration::from_millis(50)));
                            continue;
                        }
                        tick += per_conn_interval;
                        attempted.fetch_add(1, Ordering::Relaxed);
                        let name = format!("{tenant}-q{ci}-{i}");
                        i += 1;
                        let sent = Instant::now();
                        match c.query(&name, &[String::new()], k as u32) {
                            Ok(_) => {
                                tally.ok.fetch_add(1, Ordering::Relaxed);
                                tenant_ok.fetch_add(1, Ordering::Relaxed);
                                local_lat.push(sent.elapsed().as_micros() as u64);
                                backoff = Duration::ZERO;
                            }
                            Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                                tally.shed.fetch_add(1, Ordering::Relaxed);
                                backoff = (backoff * 2)
                                    .clamp(Duration::from_millis(2), Duration::from_millis(32));
                                std::thread::sleep(backoff);
                            }
                            Err(ClientError::Server(_)) => {
                                tally.other_server.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                tally.unstructured.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    lat.lock().unwrap().extend(local_lat);
                });
            }
        }
    });
    let mut samples = lat.into_inner().unwrap();
    samples.sort_unstable();
    let pct = |p: f64| -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let idx = ((samples.len() - 1) as f64 * p) as usize;
        samples[idx] as f64 / 1000.0
    };
    RunResult {
        attempted: attempted.load(Ordering::Relaxed),
        ok: tally.ok.load(Ordering::Relaxed),
        shed: tally.shed.load(Ordering::Relaxed),
        other_server: tally.other_server.load(Ordering::Relaxed),
        unstructured: tally.unstructured.load(Ordering::Relaxed),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        per_tenant_ok: per_tenant
            .into_iter()
            .map(|(n, c)| (n, c.into_inner()))
            .collect(),
    }
}

/// The skew mix: one hot tenant at 8 parts, four cold tenants at 1 part
/// each, totalling `total_qps`. Connection counts scale with the offered
/// multiple — each connection has one request in flight, so concurrency
/// (not just pacing) must exceed the queue for overload to be real.
fn skew_loads(total_qps: f64, hot_conns: usize, cold_conns: usize) -> Vec<TenantLoad> {
    let part = total_qps / 12.0;
    let mut loads = vec![TenantLoad {
        name: "hot".to_string(),
        offered_qps: 8.0 * part,
        conns: hot_conns,
    }];
    for i in 0..4 {
        loads.push(TenantLoad {
            name: format!("cold{i}"),
            offered_qps: part,
            conns: cold_conns,
        });
    }
    loads
}

fn spawn_server(sc: &Scenario, model: Arc<DeepJoin>) -> (String, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: sc.workers,
            // A queue deep enough that a sustained flood produces real
            // sojourn (not instant sheds), shallow enough that sojourn
            // crosses the brownout target well before client timeouts.
            max_inflight: 16,
            max_conns: 512,
            brownout: Some(BrownoutConfig {
                target: Duration::from_millis(4),
                window: Duration::from_millis(20),
            }),
            ..ServerConfig::default()
        },
        bench_loader(model, sc.dim, sc.search_repeat),
    )
    .expect("server start");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// A [`ServeModel`] over a raw flat index, for the pipelined sweep: the
/// single-query path runs one budgeted scan per query, and the wave path
/// runs ONE rows-outer batched scan for the whole wave — each vector
/// block is pulled through the cache once per wave instead of once per
/// query, which is exactly the amortization the sweep measures. The ann
/// crate pins that both paths return bit-identical hits.
struct FlatBenchModel {
    index: FlatIndex,
    dim: usize,
}

impl ServeModel for FlatBenchModel {
    fn indexed_len(&self) -> usize {
        self.index.len()
    }

    fn health(&self) -> Health {
        Health::Hnsw
    }

    fn query(&self, cells: &[String], name: &str, k: usize, budget: &Budget) -> QueryOutcome {
        self.query_batch(&[WaveQuery { cells, name, k }], budget).remove(0)
    }

    fn query_batch(&self, wave: &[WaveQuery<'_>], budget: &Budget) -> Vec<QueryOutcome> {
        // Mixed-k waves fall back to the per-query loop; the sweep always
        // sends a uniform k so the batched scan is what gets measured.
        let Some(k) = wave.first().map(|w| w.k) else {
            return Vec::new();
        };
        if wave.iter().any(|w| w.k != k) {
            return wave
                .iter()
                .map(|w| self.query(w.cells, w.name, w.k, budget))
                .collect();
        }
        let mut flat = Vec::with_capacity(wave.len() * self.dim);
        for w in wave {
            flat.extend_from_slice(&query_vector(w.name, self.dim));
        }
        let req = SearchRequest {
            queries: &flat,
            k,
            budget,
            deleted: None,
        };
        self.index
            .search_wave(&req)
            .into_iter()
            .map(|r| QueryOutcome {
                hits: r
                    .hits
                    .into_iter()
                    .map(|n| Hit {
                        id: n.id,
                        score: n.distance,
                        label: format!("col#{}", n.id),
                    })
                    .collect(),
                complete: r.complete,
                visited: r.visited,
                via_fallback: false,
            })
            .collect()
    }
}

fn flat_loader(n: usize, dim: usize, seed: u64) -> deepjoin_serve::Loader {
    Box::new(move |_path| {
        let mut index = FlatIndex::new(dim, Metric::L2);
        let mut state = seed | 1;
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            for v in row.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *v = ((state % 2000) as f32) / 1000.0 - 1.0;
            }
            index.add(&row);
        }
        Ok(LoadedSnapshot {
            model: Box::new(FlatBenchModel { index, dim }),
            warnings: vec![],
        })
    })
}

/// Pin that pipelined answers are bit-identical to single-query answers
/// on the sweep server before any throughput is measured.
fn verify_pipelined_bit_identity(addr: &str, k: usize) -> bool {
    let cells = [String::new()];
    let names: Vec<String> = (0..32).map(|i| format!("verify-{i}")).collect();
    let mut c = Client::connect(addr).expect("verify connect");
    let singles: Vec<_> = names
        .iter()
        .map(|n| c.query(n, &cells, k as u32).expect("verify single"))
        .collect();
    let specs: Vec<QuerySpec<'_>> = names
        .iter()
        .map(|n| QuerySpec {
            name: n,
            cells: &cells,
            k: k as u32,
        })
        .collect();
    let piped = c.query_pipelined(&specs, 16).expect("verify pipelined");
    piped.iter().zip(&singles).all(|(p, s)| {
        p.as_ref().map(|r| r.hits == s.hits).unwrap_or(false)
    })
}

struct PipelinedPoint {
    depth: usize,
    goodput_qps: f64,
    wave_size_p50: usize,
    shed: u64,
}

/// Closed loop at one pipeline depth: `conns` connections each keep a
/// window of `depth` tagged queries in flight. Depth 1 degenerates to
/// the single-query baseline over the same connections and server.
fn pipelined_point(
    addr: &str,
    handle: &ServerHandle,
    depth: usize,
    conns: usize,
    secs: f64,
    k: usize,
) -> PipelinedPoint {
    let before = handle.wave_size_histogram();
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for t in 0..conns {
            let ok = &ok;
            let shed = &shed;
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("pipelined connect");
                let cells = [String::new()];
                let mut i = 0u64;
                while Instant::now() < deadline {
                    // Unique names per window: no accidental dedup, every
                    // member is real encoder + search work.
                    let names: Vec<String> =
                        (0..depth).map(|j| format!("p{t}-{i}-{j}")).collect();
                    i += 1;
                    let specs: Vec<QuerySpec<'_>> = names
                        .iter()
                        .map(|n| QuerySpec {
                            name: n,
                            cells: &cells,
                            k: k as u32,
                        })
                        .collect();
                    match c.query_pipelined(&specs, depth) {
                        Ok(results) => {
                            for r in &results {
                                if r.is_ok() {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(_) => break,
                    }
                }
            });
        }
    });
    let after = handle.wave_size_histogram();
    // p50 wave size over the waves formed during THIS point (histogram
    // delta): slot i counts waves of i+1 members.
    let delta: Vec<u64> = after
        .iter()
        .zip(before.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    let mut wave_size_p50 = 1;
    let mut cum = 0u64;
    for (i, count) in delta.iter().enumerate() {
        cum += count;
        if cum * 2 >= total.max(1) {
            wave_size_p50 = i + 1;
            break;
        }
    }
    PipelinedPoint {
        depth,
        goodput_qps: ok.load(Ordering::Relaxed) as f64 / secs,
        wave_size_p50,
        shed: shed.load(Ordering::Relaxed),
    }
}

fn scenario_json(name: &str, offered: f64, secs: f64, r: &RunResult) -> String {
    format!(
        concat!(
            "{{ \"name\": \"{}\", \"offered_qps\": {:.1}, \"attempted\": {}, ",
            "\"goodput_qps\": {:.1}, \"shed\": {}, \"other_server_errors\": {}, ",
            "\"unstructured\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }}"
        ),
        name,
        offered,
        r.attempted,
        r.ok as f64 / secs,
        r.shed,
        r.other_server,
        r.unstructured,
        r.p50_ms,
        r.p99_ms,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let sc = Scenario::new(quick);
    eprintln!(
        "bench_serve: n={} dim={} workers={} ({})",
        sc.n,
        sc.dim,
        sc.workers,
        if quick { "quick" } else { "full" }
    );
    let model = Arc::new(DeepJoin::synthetic(sc.n, sc.dim, 0x5E12));
    let (addr, handle, join) = spawn_server(&sc, model);

    let capacity = capacity_probe(&addr, &sc).max(1.0);
    eprintln!("capacity probe: {capacity:.0} qps sustained");

    let mut scenarios = Vec::new();
    let mut total_unstructured = 0u64;
    for (mult, conns) in [(1.0f64, 8), (3.0, 16), (10.0, 32)] {
        let offered = capacity * mult;
        let loads = [TenantLoad {
            name: String::new(),
            offered_qps: offered,
            conns,
        }];
        let r = open_loop(&addr, &loads, sc.run_secs, sc.k);
        eprintln!(
            "open {mult:.0}x: offered {offered:.0} qps -> goodput {:.0} qps, {} shed, {} unstructured, p99 {:.1} ms",
            r.ok as f64 / sc.run_secs,
            r.shed,
            r.unstructured,
            r.p99_ms
        );
        total_unstructured += r.unstructured;
        scenarios.push(scenario_json(
            &format!("open_{}x", mult as u32),
            offered,
            sc.run_secs,
            &r,
        ));
    }

    // Skew: cold-tenant goodput at 1x is the fairness baseline; at 10x the
    // hot tenant floods and the cold tenants must keep their service.
    let base = open_loop(&addr, &skew_loads(capacity, 8, 2), sc.run_secs, sc.k);
    let overload = open_loop(&addr, &skew_loads(capacity * 10.0, 24, 6), sc.run_secs, sc.k);
    total_unstructured += base.unstructured + overload.unstructured;
    let cold_ok = |r: &RunResult| -> u64 {
        r.per_tenant_ok
            .iter()
            .filter(|(n, _)| n.starts_with("cold"))
            .map(|(_, c)| c)
            .sum()
    };
    let cold_1x = cold_ok(&base) as f64 / sc.run_secs;
    let cold_10x = cold_ok(&overload) as f64 / sc.run_secs;
    let retention = if cold_1x > 0.0 { cold_10x / cold_1x } else { 0.0 };
    eprintln!(
        "skew 8:1 at 10x: cold goodput {cold_10x:.0} qps vs {cold_1x:.0} qps at 1x ({:.0}% retained)",
        retention * 100.0
    );

    // Server-side accounting, for the report and as a sanity check that
    // the overload machinery actually engaged.
    let stats = handle.stats();
    let overload_stats = stats.overload.clone().unwrap_or_default();

    handle.shutdown();
    // Unblock the accept loop promptly (it polls every 25 ms).
    join.join().expect("server join");

    // Pipelined depth sweep over fresh flat-index servers: waves form
    // from concurrent tagged queries and the batched scan amortizes row
    // blocks across the wave. The baseline is the SAME corpus behind a
    // wave_width=1 server — the pre-wave one-pop-one-search loop — so the
    // speedup isolates what wave formation + the batched scan buy.
    let spawn_flat = |wave_width: usize| {
        let server = Server::start(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: sc.workers,
                max_inflight: 1024,
                wave_width,
                ..ServerConfig::default()
            },
            flat_loader(sc.flat_n, sc.dim, 0x5E12),
        )
        .expect("flat server start");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("flat server run"));
        (addr, handle, join)
    };

    let (base_addr, base_handle, base_join) = spawn_flat(1);
    let single_goodput = {
        let p = pipelined_point(&base_addr, &base_handle, 1, 8, sc.run_secs, sc.k);
        eprintln!(
            "single-query baseline (wave_width 1): goodput {:.0} qps",
            p.goodput_qps
        );
        p.goodput_qps.max(1.0)
    };
    base_handle.shutdown();
    base_join.join().expect("baseline server join");

    let (flat_addr, flat_handle, flat_join) = spawn_flat(64);
    let bit_identical = verify_pipelined_bit_identity(&flat_addr, sc.k);
    assert!(
        bit_identical,
        "pipelined answers must be bit-identical to single-query answers"
    );
    let depths = [1usize, 4, 16, 64];
    let mut points = Vec::new();
    for &depth in &depths {
        let p = pipelined_point(&flat_addr, &flat_handle, depth, 8, sc.run_secs, sc.k);
        eprintln!(
            "pipelined depth {depth}: goodput {:.0} qps, wave p50 {}, {} shed",
            p.goodput_qps, p.wave_size_p50, p.shed
        );
        points.push(p);
    }
    flat_handle.shutdown();
    flat_join.join().expect("flat server join");
    let batched = points.last().expect("sweep points");
    let batched_goodput = batched.goodput_qps;
    let wave_size_p50 = batched.wave_size_p50;
    eprintln!(
        "pipelined speedup at depth {}: {:.2}x over the single-query baseline",
        batched.depth,
        batched_goodput / single_goodput
    );

    let point_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{ \"depth\": {}, \"goodput_qps\": {:.1}, \"wave_size_p50\": {}, \"shed\": {} }}",
                p.depth, p.goodput_qps, p.wave_size_p50, p.shed
            )
        })
        .collect();
    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"schema\": \"bench_serve/v2\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"corpus\": {{ \"n\": {n}, \"dim\": {dim}, \"nq\": {nq}, \"k\": {k} }},\n",
            "  \"threads\": {workers},\n",
            "  \"capacity_qps\": {cap:.1},\n",
            "  \"scenarios\": [\n    {s0},\n    {s1},\n    {s2}\n  ],\n",
            "  \"pipelined\": {{\n",
            "    \"points\": [\n      {p0},\n      {p1},\n      {p2},\n      {p3}\n    ],\n",
            "    \"single_goodput_qps\": {sgp:.1},\n",
            "    \"batched_goodput\": {bgp:.1},\n",
            "    \"batched_speedup\": {bsp:.3},\n",
            "    \"wave_size_p50\": {wp50},\n",
            "    \"bit_identical\": {bitid}\n",
            "  }},\n",
            "  \"skew\": {{\n",
            "    \"hot_tenants\": 1, \"cold_tenants\": 4, \"ratio\": 8,\n",
            "    \"cold_goodput_1x_qps\": {c1:.1},\n",
            "    \"cold_goodput_10x_qps\": {c10:.1},\n",
            "    \"cold_retention\": {ret:.3},\n",
            "    \"hot_shed\": {hshed}\n",
            "  }},\n",
            "  \"server\": {{\n",
            "    \"accepted\": {acc}, \"shed\": {shed}, \"bucket_shed\": {bshed},\n",
            "    \"displaced\": {disp}, \"codel_shed\": {cshed},\n",
            "    \"brownout_steps_down\": {down}, \"brownout_steps_up\": {up},\n",
            "    \"brownout_answers\": {bans}\n",
            "  }},\n",
            "  \"unstructured_responses\": {unstr}\n",
            "}}\n"
        ),
        mode = if quick { "quick" } else { "full" },
        n = sc.n,
        dim = sc.dim,
        nq = 16,
        k = sc.k,
        workers = sc.workers,
        cap = capacity,
        s0 = scenarios[0],
        s1 = scenarios[1],
        s2 = scenarios[2],
        p0 = point_json[0],
        p1 = point_json[1],
        p2 = point_json[2],
        p3 = point_json[3],
        sgp = single_goodput,
        bgp = batched_goodput,
        bsp = batched_goodput / single_goodput,
        wp50 = wave_size_p50,
        bitid = bit_identical,
        c1 = cold_1x,
        c10 = cold_10x,
        ret = retention,
        hshed = overload.shed,
        acc = stats.accepted,
        shed = stats.shed,
        bshed = overload_stats.bucket_shed,
        disp = overload_stats.displaced,
        cshed = overload_stats.codel_shed,
        down = overload_stats.brownout_steps_down,
        up = overload_stats.brownout_steps_up,
        bans = overload_stats.brownout_answers,
        unstr = total_unstructured,
    );
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("wrote {out_path}");

    assert_eq!(
        total_unstructured, 0,
        "every response under overload must be structured"
    );
}
