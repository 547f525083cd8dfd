//! The multi-endpoint, failure-aware client (DESIGN.md §15): health
//! probes with per-endpoint breaker state, automatic failover of reads to
//! the freshest healthy replica, and hedged requests.
//!
//! Failure handling is layered:
//!
//! 1. **Probes** — a background thread pings every endpoint and reads its
//!    stats on a fixed interval, keeping a local view of liveness,
//!    serving generation, and staleness. Failover happens within one
//!    probe interval of an endpoint dying, without a query paying for the
//!    discovery.
//! 2. **Breakers** — consecutive failures (probe or query) past a
//!    threshold open a per-endpoint breaker for a cool-off period;
//!    open endpoints are skipped by routing (but retried by probes, which
//!    is what closes the breaker again). If *every* breaker is open the
//!    client falls back to trying all endpoints anyway — a wrong breaker
//!    must degrade to slower answers, never to refusing service.
//! 3. **Ranking** — reads go to non-stale endpoints first, then to the
//!    highest serving generation, then by configured order.
//! 4. **Hedging** — after an adaptive delay derived from observed query
//!    latencies (~p99, clamped), the same query is issued to the
//!    next-ranked endpoint and the first answer wins. A single slow or
//!    wedged replica then costs roughly the hedge delay, not its stall.
//! 5. **Retries** — the whole routed attempt (including failover across
//!    endpoints) is wrapped in the existing [`RetryPolicy`] backoff for
//!    `Overloaded` sheds and transient transport failures.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::{Client, ClientError, QueryResult, QuerySpec, RetryPolicy};
use crate::protocol::{ErrorCode, QueryReply, StatsReply};

/// Tuning for a [`MultiClient`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Endpoints in preference order (ties in ranking keep this order, so
    /// put the primary first).
    pub endpoints: Vec<String>,
    /// Delay between background probe rounds.
    pub probe_interval: Duration,
    /// Read timeout for probe connections (kept short: a probe that
    /// cannot answer quickly is as good as down).
    pub probe_timeout: Duration,
    /// Read timeout for query connections.
    pub read_timeout: Duration,
    /// Consecutive failures that open an endpoint's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker skips its endpoint before the next try.
    pub breaker_cooloff: Duration,
    /// Enable hedged queries.
    pub hedge: bool,
    /// Floor on the adaptive hedge delay.
    pub hedge_min: Duration,
    /// Ceiling on the adaptive hedge delay.
    pub hedge_max: Duration,
    /// Backoff for `Overloaded` sheds and transient transport failures
    /// around the whole routed attempt.
    pub retry: RetryPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            endpoints: Vec::new(),
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            breaker_threshold: 2,
            breaker_cooloff: Duration::from_secs(2),
            hedge: true,
            hedge_min: Duration::from_millis(20),
            hedge_max: Duration::from_millis(500),
            retry: RetryPolicy::default(),
        }
    }
}

/// What the prober (and query outcomes) know about one endpoint.
#[derive(Debug, Clone)]
struct EndpointState {
    consecutive_failures: u32,
    open_until: Option<Instant>,
    /// Last serving generation observed by a probe.
    generation: u32,
    /// Last staleness flag observed by a probe.
    stale: bool,
    /// Whether the last contact (probe or query) succeeded.
    healthy: bool,
}

impl EndpointState {
    fn new() -> Self {
        EndpointState {
            consecutive_failures: 0,
            open_until: None,
            generation: 0,
            stale: false,
            healthy: false,
        }
    }

    fn available(&self, now: Instant) -> bool {
        self.open_until.is_none_or(|until| now >= until)
    }
}

/// Sliding window of recent query latencies (micros) feeding the adaptive
/// hedge delay.
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

const LATENCY_RING: usize = 64;

impl LatencyRing {
    fn new() -> Self {
        LatencyRing {
            samples: Vec::with_capacity(LATENCY_RING),
            next: 0,
        }
    }

    fn push(&mut self, micros: u64) {
        if self.samples.len() < LATENCY_RING {
            self.samples.push(micros);
        } else {
            self.samples[self.next] = micros;
            self.next = (self.next + 1) % LATENCY_RING;
        }
    }

    /// ~p99 of the window (`None` until there are samples).
    fn p99_micros(&self) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        Some(sorted[(sorted.len() - 1) * 99 / 100])
    }
}

struct ClusterInner {
    cfg: ClusterConfig,
    states: Mutex<Vec<EndpointState>>,
    latencies: Mutex<LatencyRing>,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
}

impl ClusterInner {
    fn note_ok(&self, idx: usize) {
        let mut states = self.states.lock().expect("cluster states");
        let s = &mut states[idx];
        s.consecutive_failures = 0;
        s.open_until = None;
        s.healthy = true;
    }

    fn note_failure(&self, idx: usize) {
        let mut states = self.states.lock().expect("cluster states");
        let s = &mut states[idx];
        s.consecutive_failures += 1;
        s.healthy = false;
        if s.consecutive_failures >= self.cfg.breaker_threshold {
            s.open_until = Some(Instant::now() + self.cfg.breaker_cooloff);
        }
    }

    /// Endpoint indices in routing order: available (breaker closed)
    /// endpoints ranked non-stale first, freshest generation next,
    /// configured order last; if every breaker is open, all endpoints in
    /// configured order (degrade, never refuse).
    fn ranked(&self) -> Vec<usize> {
        let now = Instant::now();
        let states = self.states.lock().expect("cluster states");
        let mut open: Vec<usize> = (0..states.len())
            .filter(|&i| states[i].available(now))
            .collect();
        if open.is_empty() {
            return (0..states.len()).collect();
        }
        open.sort_by_key(|&i| (states[i].stale, std::cmp::Reverse(states[i].generation), i));
        open
    }

    fn probe_round(&self) {
        for idx in 0..self.cfg.endpoints.len() {
            let addr = self.cfg.endpoints[idx].clone();
            let outcome = Client::connect_with_timeout(&addr, self.cfg.probe_timeout)
                .and_then(|mut c| c.stats());
            match outcome {
                Ok(stats) => {
                    {
                        let mut states = self.states.lock().expect("cluster states");
                        let s = &mut states[idx];
                        s.generation = stats.generation;
                        s.stale = stats.replication.map(|r| r.stale).unwrap_or(false);
                    }
                    self.note_ok(idx);
                }
                // Only transport failures mean the endpoint is gone. A
                // structured error (e.g. an `Overloaded` shed) came from a
                // live server doing its job — counting it toward the
                // breaker would amplify overload into false failover.
                Err(ClientError::Io(_)) => self.note_failure(idx),
                Err(_) => self.note_ok(idx),
            }
        }
    }

    fn hedge_delay(&self) -> Duration {
        let p99 = self
            .latencies
            .lock()
            .expect("latency ring")
            .p99_micros()
            .map(Duration::from_micros)
            .unwrap_or(Duration::from_millis(100));
        p99.clamp(self.cfg.hedge_min, self.cfg.hedge_max)
    }

    fn query_endpoint(
        &self,
        idx: usize,
        name: &str,
        cells: &[String],
        k: u32,
    ) -> Result<QueryReply, ClientError> {
        let addr = &self.cfg.endpoints[idx];
        let mut client = Client::connect_with_timeout(addr, self.cfg.read_timeout)?;
        client.query(name, cells, k)
    }
}

/// The answer to a routed query: the reply plus where it came from.
#[derive(Debug, Clone)]
pub struct RoutedReply {
    /// The server's answer.
    pub reply: QueryReply,
    /// The endpoint that answered.
    pub endpoint: String,
    /// True when this answer came from a hedge (the second endpoint
    /// answered before the first).
    pub hedged: bool,
}

/// A failure-aware client over a set of replicated `dj serve` endpoints.
///
/// Owns a background probe thread for its whole lifetime (stopped and
/// joined on drop).
pub struct MultiClient {
    inner: Arc<ClusterInner>,
    stop: Arc<AtomicBool>,
    prober: Option<JoinHandle<()>>,
}

impl MultiClient {
    /// Build a client over `cfg.endpoints` (at least one) and run one
    /// synchronous probe round so the first query routes on real health
    /// data, then start the background prober.
    pub fn new(cfg: ClusterConfig) -> Result<Self, String> {
        if cfg.endpoints.is_empty() {
            return Err("MultiClient needs at least one endpoint".to_string());
        }
        let states = (0..cfg.endpoints.len()).map(|_| EndpointState::new()).collect();
        let inner = Arc::new(ClusterInner {
            cfg,
            states: Mutex::new(states),
            latencies: Mutex::new(LatencyRing::new()),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
        });
        inner.probe_round();
        let stop = Arc::new(AtomicBool::new(false));
        let prober = {
            let inner = inner.clone();
            let stop = stop.clone();
            std::thread::spawn(move || loop {
                // Parked, not polling: `Drop` unparks this thread, so
                // dropping the client never waits out a probe interval.
                let deadline = Instant::now() + inner.cfg.probe_interval;
                loop {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::park_timeout(left);
                }
                inner.probe_round();
            })
        };
        Ok(MultiClient {
            inner,
            stop,
            prober: Some(prober),
        })
    }

    /// `(hedges fired, hedges won)` since this client was built.
    pub fn hedge_counters(&self) -> (u64, u64) {
        (
            self.inner.hedges_fired.load(Ordering::Relaxed),
            self.inner.hedges_won.load(Ordering::Relaxed),
        )
    }

    /// The configured endpoints.
    pub fn endpoints(&self) -> &[String] {
        &self.inner.cfg.endpoints
    }

    /// Route one query: ranked endpoints, hedging (when enabled and a
    /// second endpoint exists), failover on transport failure, and the
    /// retry policy's backoff around the whole routed attempt.
    pub fn query(
        &self,
        name: &str,
        cells: &[String],
        k: u32,
    ) -> Result<RoutedReply, ClientError> {
        self.inner
            .cfg
            .retry
            .run(|| self.routed_attempt(name, cells, k), retryable)
    }

    /// Route a whole set of queries down **one pipelined connection** to
    /// the best-ranked endpoint, with up to `depth` requests in flight
    /// (DESIGN.md §17). Results come back in input order. A transport
    /// failure mid-pipeline fails over to the next ranked endpoint and
    /// replays the whole set (queries are idempotent reads), wrapped in
    /// the retry policy's backoff like [`MultiClient::query`].
    ///
    /// Hedging is deliberately skipped here: a pipelined set amortizes
    /// connection cost across many queries, and duplicating the whole set
    /// on a second endpoint would double cluster load for tail latency on
    /// one member.
    pub fn query_many(
        &self,
        queries: &[QuerySpec<'_>],
        depth: usize,
    ) -> Result<(Vec<QueryResult>, String), ClientError> {
        if queries.is_empty() {
            return Ok((Vec::new(), String::new()));
        }
        self.inner
            .cfg
            .retry
            .run(|| self.routed_many(queries, depth), retryable)
    }

    /// One pass over the ranked endpoints for a pipelined set: sequential
    /// failover, no hedging (see [`MultiClient::query_many`]).
    fn routed_many(
        &self,
        queries: &[QuerySpec<'_>],
        depth: usize,
    ) -> Result<(Vec<QueryResult>, String), ClientError> {
        let mut last: Option<ClientError> = None;
        for idx in self.inner.ranked() {
            let addr = self.inner.cfg.endpoints[idx].clone();
            let started = Instant::now();
            let outcome = Client::connect_with_timeout(&addr, self.inner.cfg.read_timeout)
                .and_then(|mut c| c.query_pipelined(queries, depth));
            match outcome {
                Ok(results) => {
                    self.inner.note_ok(idx);
                    // One latency sample per answered query, so the hedge
                    // delay for single queries keeps tracking per-query
                    // cost rather than whole-set cost.
                    let per_query =
                        started.elapsed().as_micros() as u64 / queries.len().max(1) as u64;
                    let mut ring = self.inner.latencies.lock().expect("latency ring");
                    for _ in 0..queries.len().min(8) {
                        ring.push(per_query);
                    }
                    return Ok((results, addr));
                }
                Err(e) => {
                    if matches!(e, ClientError::Io(_)) {
                        self.inner.note_failure(idx);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Protocol("no endpoints configured".to_string())
        }))
    }

    /// Latest stats from the freshest healthy endpoint.
    pub fn stats(&self) -> Result<(StatsReply, String), ClientError> {
        let mut last: Option<ClientError> = None;
        for idx in self.inner.ranked() {
            let addr = self.inner.cfg.endpoints[idx].clone();
            match Client::connect_with_timeout(&addr, self.inner.cfg.probe_timeout)
                .and_then(|mut c| c.stats())
            {
                Ok(s) => {
                    self.inner.note_ok(idx);
                    return Ok((s, addr));
                }
                Err(e) => {
                    // Same rule as probes: only transport errors open the
                    // breaker; a structured refusal proves liveness.
                    if matches!(e, ClientError::Io(_)) {
                        self.inner.note_failure(idx);
                    } else {
                        self.inner.note_ok(idx);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Protocol("no endpoints configured".to_string())
        }))
    }

    /// One pass over the ranked endpoints: hedged attempt on the top two,
    /// then sequential failover over the rest.
    fn routed_attempt(
        &self,
        name: &str,
        cells: &[String],
        k: u32,
    ) -> Result<RoutedReply, ClientError> {
        let ranked = self.inner.ranked();
        let mut last: Option<ClientError> = None;
        let mut first = true;
        let mut rest = ranked.iter();
        while let Some(&idx) = rest.next() {
            if first && self.inner.cfg.hedge && ranked.len() > 1 {
                first = false;
                let hedge_idx = ranked[1];
                match self.hedged_pair(idx, hedge_idx, name, cells, k) {
                    Ok(routed) => return Ok(routed),
                    Err((e, fired)) => {
                        last = Some(e);
                        // A fired hedge leg already tried the hedge
                        // endpoint; one never fired (the first leg failed
                        // before the delay) leaves it for the sweep.
                        if fired {
                            rest.next();
                        }
                        continue;
                    }
                }
            }
            first = false;
            let started = Instant::now();
            match self.inner.query_endpoint(idx, name, cells, k) {
                Ok(reply) => {
                    self.inner.note_ok(idx);
                    self.inner
                        .latencies
                        .lock()
                        .expect("latency ring")
                        .push(started.elapsed().as_micros() as u64);
                    return Ok(RoutedReply {
                        reply,
                        endpoint: self.inner.cfg.endpoints[idx].clone(),
                        hedged: false,
                    });
                }
                Err(e) => {
                    if matches!(e, ClientError::Io(_)) {
                        self.inner.note_failure(idx);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Protocol("no endpoints configured".to_string())
        }))
    }

    /// Issue the query to `primary_idx`; if no answer lands within the
    /// adaptive hedge delay, issue it to `hedge_idx` too and take the
    /// first answer. A failure says whether the hedge leg was fired.
    fn hedged_pair(
        &self,
        primary_idx: usize,
        hedge_idx: usize,
        name: &str,
        cells: &[String],
        k: u32,
    ) -> Result<RoutedReply, (ClientError, bool)> {
        let (tx, rx) = mpsc::channel::<(usize, Result<QueryReply, ClientError>, Duration)>();
        let spawn_leg = |idx: usize, tx: mpsc::Sender<_>| {
            let inner = self.inner.clone();
            let name = name.to_string();
            let cells = cells.to_vec();
            std::thread::spawn(move || {
                let started = Instant::now();
                let result = inner.query_endpoint(idx, &name, &cells, k);
                let _ = tx.send((idx, result, started.elapsed()));
            })
        };
        spawn_leg(primary_idx, tx.clone());
        let delay = self.inner.hedge_delay();

        let mut fired = false;
        let mut outcomes = 0usize;
        let expected; // how many legs will eventually answer
        let first = match rx.recv_timeout(delay) {
            Ok(outcome) => {
                expected = 1;
                Some(outcome)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Primary leg is slow: fire the hedge.
                self.inner.hedges_fired.fetch_add(1, Ordering::Relaxed);
                fired = true;
                spawn_leg(hedge_idx, tx.clone());
                expected = 2;
                None
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let vanished = ClientError::Protocol("hedge leg vanished".to_string());
                return Err((vanished, false));
            }
        };
        drop(tx);

        let mut last: Option<ClientError> = None;
        let mut pending = first;
        loop {
            let (idx, result, took) = match pending.take() {
                Some(o) => o,
                None => match rx.recv() {
                    Ok(o) => o,
                    Err(_) => {
                        let vanished = last.unwrap_or_else(|| {
                            ClientError::Protocol("hedge legs vanished".to_string())
                        });
                        return Err((vanished, fired));
                    }
                },
            };
            outcomes += 1;
            match result {
                Ok(reply) => {
                    self.inner.note_ok(idx);
                    self.inner
                        .latencies
                        .lock()
                        .expect("latency ring")
                        .push(took.as_micros() as u64);
                    let hedged = fired && idx == hedge_idx;
                    if hedged {
                        self.inner.hedges_won.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(RoutedReply {
                        reply,
                        endpoint: self.inner.cfg.endpoints[idx].clone(),
                        hedged,
                    });
                }
                Err(e) => {
                    if matches!(e, ClientError::Io(_)) {
                        self.inner.note_failure(idx);
                    }
                    if outcomes >= expected {
                        return Err((e, fired));
                    }
                    last = Some(e);
                }
            }
        }
    }
}

impl Drop for MultiClient {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.prober.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Failures expected to clear on their own: `Overloaded` sheds and
/// transport-level errors (the server died mid-frame, the connection was
/// refused while it restarts, ...).
fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Server(e) => e.code == ErrorCode::Overloaded,
        ClientError::Io(_) => true,
        ClientError::Protocol(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_prefers_fresh_then_generation_then_order() {
        let inner = ClusterInner {
            cfg: ClusterConfig {
                endpoints: vec!["a".into(), "b".into(), "c".into()],
                ..ClusterConfig::default()
            },
            states: Mutex::new(vec![
                EndpointState {
                    generation: 5,
                    stale: true,
                    ..EndpointState::new()
                },
                EndpointState {
                    generation: 3,
                    stale: false,
                    ..EndpointState::new()
                },
                EndpointState {
                    generation: 4,
                    stale: false,
                    ..EndpointState::new()
                },
            ]),
            latencies: Mutex::new(LatencyRing::new()),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
        };
        // Non-stale first (c beats b on generation), stale endpoint last
        // even with the highest generation.
        assert_eq!(inner.ranked(), vec![2, 1, 0]);
    }

    #[test]
    fn open_breakers_are_skipped_until_cooloff_but_never_strand_the_client() {
        let inner = ClusterInner {
            cfg: ClusterConfig {
                endpoints: vec!["a".into(), "b".into()],
                breaker_threshold: 2,
                breaker_cooloff: Duration::from_millis(40),
                ..ClusterConfig::default()
            },
            states: Mutex::new(vec![EndpointState::new(), EndpointState::new()]),
            latencies: Mutex::new(LatencyRing::new()),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
        };
        inner.note_failure(0);
        assert_eq!(inner.ranked(), vec![0, 1], "below threshold: still routable");
        inner.note_failure(0);
        assert_eq!(inner.ranked(), vec![1], "breaker open: endpoint 0 skipped");
        inner.note_failure(1);
        inner.note_failure(1);
        // Every breaker open: fall back to all endpoints, never refuse.
        assert_eq!(inner.ranked(), vec![0, 1]);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(inner.ranked(), vec![0, 1], "cool-off over: both routable again");
        inner.note_ok(0);
        let states = inner.states.lock().unwrap();
        assert_eq!(states[0].consecutive_failures, 0);
        assert!(states[0].open_until.is_none());
    }

    #[test]
    fn hedge_delay_adapts_to_observed_latency_within_bounds() {
        let inner = ClusterInner {
            cfg: ClusterConfig {
                endpoints: vec!["a".into()],
                hedge_min: Duration::from_millis(10),
                hedge_max: Duration::from_millis(200),
                ..ClusterConfig::default()
            },
            states: Mutex::new(vec![EndpointState::new()]),
            latencies: Mutex::new(LatencyRing::new()),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
        };
        // No samples yet: the 100 ms default, clamped.
        assert_eq!(inner.hedge_delay(), Duration::from_millis(100));
        // Fast cluster: delay floors at hedge_min.
        for _ in 0..50 {
            inner.latencies.lock().unwrap().push(500); // 0.5 ms
        }
        assert_eq!(inner.hedge_delay(), Duration::from_millis(10));
        // One pathological outlier dominates p99 and is capped by
        // hedge_max.
        for _ in 0..64 {
            inner.latencies.lock().unwrap().push(5_000_000); // 5 s
        }
        assert_eq!(inner.hedge_delay(), Duration::from_millis(200));
    }

    #[test]
    fn overloaded_sheds_never_open_the_breaker_but_dead_transport_does() {
        use crate::protocol::{self, Request, Response, WireError};
        use std::io::Read as _;
        use std::net::TcpListener;
        use std::sync::atomic::AtomicBool;

        // A live server that sheds everything: structurally Overloaded on
        // every frame. Liveness, not failure.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = stop.clone();
            listener.set_nonblocking(true).unwrap();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut s, _)) => {
                            let mut header = [0u8; 4];
                            if s.read_exact(&mut header).is_err() {
                                continue;
                            }
                            let len = u32::from_le_bytes(header) as usize;
                            let mut body = vec![0u8; len];
                            if s.read_exact(&mut body).is_err() {
                                continue;
                            }
                            let _ = Request::decode(&body);
                            let resp = Response::Error(WireError {
                                code: ErrorCode::Overloaded,
                                message: "shedding".to_string(),
                            });
                            let _ = protocol::write_frame(&mut s, &resp.encode());
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
        };

        let inner = ClusterInner {
            cfg: ClusterConfig {
                endpoints: vec![addr],
                breaker_threshold: 1,
                probe_timeout: Duration::from_secs(2),
                ..ClusterConfig::default()
            },
            states: Mutex::new(vec![EndpointState::new()]),
            latencies: Mutex::new(LatencyRing::new()),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
        };
        // Repeated probe rounds against a shedding server: the breaker
        // must stay closed and the endpoint must read as healthy.
        for _ in 0..3 {
            inner.probe_round();
        }
        {
            let states = inner.states.lock().unwrap();
            assert_eq!(states[0].consecutive_failures, 0, "sheds counted as failures");
            assert!(states[0].open_until.is_none(), "shed opened the breaker");
            assert!(states[0].healthy, "a shedding server is still alive");
        }
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap();

        // The port is dead now: transport failure must trip the breaker.
        inner.probe_round();
        let states = inner.states.lock().unwrap();
        assert!(states[0].consecutive_failures >= 1);
        assert!(states[0].open_until.is_some(), "dead transport must open the breaker");
    }

    #[test]
    fn latency_ring_p99_tracks_the_tail() {
        let mut ring = LatencyRing::new();
        assert_eq!(ring.p99_micros(), None);
        for i in 1..=64u64 {
            ring.push(i * 100);
        }
        let p99 = ring.p99_micros().unwrap();
        assert!(p99 >= 6_000, "p99 {p99} should sit near the top of the window");
    }

    /// An address nothing listens on: connects to it are refused at once.
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    #[test]
    fn a_hedge_that_never_fired_leaves_its_endpoint_to_the_sweep() {
        use crate::protocol::{self, Request, Response, WireError};

        // `live` answers queries and refuses everything else, so its probe
        // reads no generation and the ranking keeps the configured order:
        // the dead endpoint first, `live` as its hedge.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // One probe connection, then one query connection.
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let frame = protocol::read_frame(&mut s, protocol::MAX_FRAME).unwrap();
                let resp = match Request::decode(&frame.unwrap()).unwrap() {
                    Request::Query { .. } => Response::Query(QueryReply {
                        health_code: 0,
                        health_label: "hnsw".into(),
                        degraded: false,
                        complete: true,
                        via_fallback: false,
                        generation: 1,
                        indexed: 1,
                        visited: 1,
                        hits: Vec::new(),
                    }),
                    _ => Response::Error(WireError {
                        code: ErrorCode::Unavailable,
                        message: "queries only".into(),
                    }),
                };
                protocol::write_frame(&mut s, &resp.encode()).unwrap();
            }
        });
        let client = MultiClient::new(ClusterConfig {
            endpoints: vec![dead_addr(), live.clone()],
            probe_interval: Duration::from_secs(3600),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..ClusterConfig::default()
        })
        .unwrap();
        // The dead endpoint's refusal lands well inside the hedge delay,
        // so the hedge leg never fires and `live` must still be asked.
        let routed = client
            .query("q", &["x".to_string()], 1)
            .expect("live answers");
        assert_eq!(routed.endpoint, live);
        assert!(!routed.hedged);
        assert_eq!(client.hedge_counters(), (0, 0));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn dropping_the_client_does_not_wait_out_the_probe_interval() {
        let dead = dead_addr();
        for _ in 0..5 {
            let client = MultiClient::new(ClusterConfig {
                endpoints: vec![dead.clone()],
                probe_interval: Duration::from_secs(3600),
                ..ClusterConfig::default()
            })
            .unwrap();
            // Let the prober reach its wait, so the drop has to end it.
            std::thread::sleep(Duration::from_millis(10));
            let started = Instant::now();
            drop(client);
            let took = started.elapsed();
            assert!(took < Duration::from_millis(5), "drop took {took:?}");
        }
    }
}
