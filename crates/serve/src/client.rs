//! A small blocking client for the serve protocol, used by `dj query` /
//! `dj ctl` and by the integration tests (it doubles as the reference
//! implementation for anyone writing a client in another language).

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::protocol::{
    self, ErrorCode, FrameError, FrameReader, QueryReply, Request, Response, StatsReply, WireError,
    MAX_FRAME,
};
use crate::wake;

/// One query in a pipelined call — the borrowed form of the
/// [`Request::Query`] fields.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec<'a> {
    /// Query column name (`table.column` or free text).
    pub name: &'a str,
    /// Query column cell values.
    pub cells: &'a [String],
    /// Neighbors requested.
    pub k: u32,
}

/// Per-query outcome of a pipelined call: the reply, or the
/// structured error that shed this one query (the rest of the window is
/// unaffected).
pub type QueryResult = Result<QueryReply, WireError>;

/// Client-side correlation state for a pipelined window: request id `i`
/// is input position `i`, so an answer lands in its slot directly. Rejects
/// duplicate and orphan ids — and any uncorrelated response — as
/// structured protocol errors instead of mis-filing answers.
struct Correlator {
    results: Vec<Option<QueryResult>>,
    /// Ids `0..sent` have been sent.
    sent: usize,
    answered: usize,
}

impl Correlator {
    fn new(n: usize) -> Self {
        Correlator {
            results: (0..n).map(|_| None).collect(),
            sent: 0,
            answered: 0,
        }
    }

    fn outstanding(&self) -> usize {
        self.sent - self.answered
    }

    /// File one response; correlated answers may arrive in any order.
    fn absorb(&mut self, resp: Response) -> Result<(), ClientError> {
        match resp {
            Response::QueryFor { request_id, reply } => {
                let slot = match usize::try_from(request_id) {
                    Ok(slot) if slot < self.sent => &mut self.results[slot],
                    _ => {
                        return Err(ClientError::Protocol(format!(
                            "response for unknown request id {request_id}"
                        )))
                    }
                };
                if slot.is_some() {
                    return Err(ClientError::Protocol(format!(
                        "duplicate response for request id {request_id}"
                    )));
                }
                *slot = Some(reply);
                self.answered += 1;
                Ok(())
            }
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("QueryFor", &other)),
        }
    }

    fn finish(self) -> Result<Vec<QueryResult>, ClientError> {
        self.results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.ok_or_else(|| {
                    ClientError::Protocol(format!("request id {i} was never answered"))
                })
            })
            .collect()
    }
}

/// Bounded exponential backoff with deterministic jitter, used by
/// [`Client::connect_with_retry`] (transient connect failures) and
/// [`Client::query_with_retry`] (`Overloaded` sheds). Retries are capped
/// both per-attempt and in total delay, so a permanently-down server fails
/// fast instead of hanging a caller.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try counts; `1` means no retries).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each subsequent retry.
    pub base_delay: Duration,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream (vary per process to
    /// decorrelate clients; fix in tests for reproducibility).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x5eed_cafe_f00d_beef,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `retry` (0-based): `base * 2^retry`,
    /// capped at `max_delay`, with up to +50% deterministic jitter so a
    /// fleet of clients does not retry in lockstep.
    pub fn delay(&self, retry: u32) -> Duration {
        let base = self.base_delay.saturating_mul(1u32 << retry.min(16));
        let capped = base.min(self.max_delay);
        // xorshift64: the serve crate is dependency-free, so the jitter
        // stream is hand-rolled rather than pulled from a rand crate.
        let mut x = self.jitter_seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(retry as u64 + 1));
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jitter_num = x % 51; // 0..=50 percent
        capped + capped.mul_f64(jitter_num as f64 / 100.0)
    }

    /// The one backoff loop: run `attempt` up to `max_attempts` times (at
    /// least once), sleeping [`RetryPolicy::delay`] before each retry. An
    /// error `retryable` accepts is retried; any other error — and the
    /// last one once the attempts run out — is returned as-is.
    pub(crate) fn run<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, ClientError>,
        retryable: impl Fn(&ClientError) -> bool,
    ) -> Result<T, ClientError> {
        let mut retry = 0;
        loop {
            match attempt() {
                Err(e) if retryable(&e) && retry + 1 < self.max_attempts => {
                    std::thread::sleep(self.delay(retry));
                    retry += 1;
                }
                outcome => return outcome,
            }
        }
    }

    fn transient_connect(e: &ClientError) -> bool {
        match e {
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }

    /// Transport failures on an *established* connection that a reconnect
    /// can heal: the server died mid-response (EOF inside a frame, reset,
    /// aborted, broken pipe on write) or refuses connections while it
    /// restarts. Distinct from [`RetryPolicy::transient_connect`] in
    /// including `UnexpectedEof` and `BrokenPipe`, which only exist once a
    /// connection was up.
    fn transient_transport(e: &ClientError) -> bool {
        match e {
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            ),
            _ => false,
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or unexpected close).
    Io(io::Error),
    /// The server sent bytes that don't decode as a response, or a
    /// response of the wrong type for the request.
    Protocol(String),
    /// The server answered with a structured error.
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// One connection to a `dj serve` instance. Requests are strictly
/// sequential per connection (one frame out, one frame in).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    /// The resolved peer, kept so retry paths can reconnect after the
    /// server dies mid-response.
    peer: std::net::SocketAddr,
    read_timeout: Duration,
    /// Tenant tag stamped onto every query this client sends. `None`
    /// (the default) lets the server fold the query into its default
    /// admission lane.
    tenant: Option<String>,
}

impl Client {
    /// Connect with a 30 s read timeout (covers slow queries without
    /// hanging forever on a dead server).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// Connect with an explicit *total* per-response read timeout.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr()?;
        Ok(Client {
            stream,
            reader: FrameReader::new(MAX_FRAME),
            peer,
            read_timeout: timeout,
            tenant: None,
        })
    }

    /// Tag every subsequent query from this client with `tenant` for the
    /// server's per-tenant admission control. `None` reverts to the
    /// server's default lane.
    pub fn set_tenant(&mut self, tenant: Option<&str>) {
        self.tenant = tenant.map(str::to_string);
    }

    /// Replace a dead connection with a fresh one to the same peer.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true).ok();
        self.stream = stream;
        self.reader = FrameReader::new(MAX_FRAME);
        Ok(())
    }

    /// Connect, retrying transient failures (refused / reset / aborted /
    /// timed out) with bounded exponential backoff. A permanently-down
    /// server costs at most `policy.max_attempts` tries and the summed
    /// (capped) delays — it never hangs. Non-transient errors (e.g. an
    /// unresolvable address) fail on the first attempt.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> Result<Self, ClientError> {
        policy.run(
            || Self::connect_with_timeout(&addr, timeout),
            RetryPolicy::transient_connect,
        )
    }

    /// Send one request, read one response. The whole response must
    /// arrive within `read_timeout` (slow-loris defense on the client
    /// side — this also covers the replica `SyncFetch` path, which calls
    /// through here).
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        protocol::write_frame(&mut self.stream, &request.encode())?;
        self.read_response()
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Search for the `k` nearest indexed columns. Server-side errors
    /// (including `Overloaded` sheds) surface as [`ClientError::Server`].
    pub fn query(
        &mut self,
        name: &str,
        cells: &[String],
        k: u32,
    ) -> Result<QueryReply, ClientError> {
        let req = Request::Query {
            name: name.to_string(),
            cells: cells.to_vec(),
            k,
            tenant: self.tenant.clone(),
            request_id: None,
        };
        match self.call(&req)? {
            Response::Query(reply) => Ok(reply),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("Query", &other)),
        }
    }

    /// Send `queries` pipelined on this connection, keeping up to `depth`
    /// requests in flight, and return one result per query in input
    /// order. Each request carries a correlation id, so the server may
    /// answer out of order (a whole worker wave lands in one coalesced
    /// burst). Duplicate and orphan ids, and uncorrelated answers, from a
    /// confused server surface as [`ClientError::Protocol`].
    pub fn query_pipelined(
        &mut self,
        queries: &[QuerySpec<'_>],
        depth: usize,
    ) -> Result<Vec<QueryResult>, ClientError> {
        let depth = depth.max(1);
        let mut corr = Correlator::new(queries.len());
        while corr.sent < queries.len() || corr.outstanding() > 0 {
            // Fill the window.
            while corr.sent < queries.len() && corr.outstanding() < depth {
                let q = &queries[corr.sent];
                let req = Request::Query {
                    name: q.name.to_string(),
                    cells: q.cells.to_vec(),
                    k: q.k,
                    tenant: self.tenant.clone(),
                    request_id: Some(corr.sent as u64),
                };
                protocol::write_frame(&mut self.stream, &req.encode())?;
                corr.sent += 1;
            }
            // Drain one answer (whichever request it belongs to).
            corr.absorb(self.read_response()?)?;
        }
        corr.finish()
    }

    /// Read and decode one response frame. The budget is fixed when the
    /// wait starts: bytes arriving do not extend it, so a peer trickling
    /// them is cut off at `read_timeout` no matter how alive it looks.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let deadline = Instant::now().checked_add(self.read_timeout);
        let fd = [self.stream.as_raw_fd()];
        let wait = || match wake::wait(&fd, deadline)? {
            0 => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "server stalled mid-response past the read timeout",
            )),
            _ => Ok(()),
        };
        let payload = self
            .reader
            .read_frame(&mut self.stream, wait)?
            .ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection without answering",
                ))
            })?;
        Response::decode(payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// [`Client::query`] with bounded backoff on failures that are
    /// *expected* to clear on their own: `Overloaded` sheds (the backlog
    /// drains) and transport failures on the established connection — the
    /// server dying mid-response (EOF inside a frame, reset, broken pipe)
    /// or refusing connections while it restarts. Transport failures get
    /// a reconnect before the next try; queries are idempotent, so a
    /// retried half-answered query is safe. Every other error — and
    /// exhaustion — surfaces as-is.
    pub fn query_with_retry(
        &mut self,
        name: &str,
        cells: &[String],
        k: u32,
        policy: &RetryPolicy,
    ) -> Result<QueryReply, ClientError> {
        let mut dead_connection = false;
        policy.run(
            || {
                if dead_connection {
                    // A failed reconnect (still restarting) burns this
                    // attempt; the classifier decides whether to back off.
                    self.reconnect()?;
                    dead_connection = false;
                }
                let outcome = self.query(name, cells, k);
                dead_connection = matches!(&outcome, Err(e) if RetryPolicy::transient_transport(e));
                outcome
            },
            |e| match e {
                ClientError::Server(e) => e.code == ErrorCode::Overloaded,
                e => RetryPolicy::transient_transport(e),
            },
        )
    }

    /// Ingest a new table into a live server. Returns `(seq, applied)` of
    /// the durably journaled mutation.
    pub fn add_table(
        &mut self,
        title: &str,
        columns: &[(String, Vec<String>)],
    ) -> Result<(u64, u64), ClientError> {
        let req = Request::AddTable {
            title: title.to_string(),
            columns: columns.to_vec(),
        };
        match self.call(&req)? {
            Response::Mutated { seq, applied } => Ok((seq, applied)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("Mutated", &other)),
        }
    }

    /// Drop every column belonging to a table on a live server. Returns
    /// `(seq, ids tombstoned)`.
    pub fn drop_table(&mut self, title: &str) -> Result<(u64, u64), ClientError> {
        let req = Request::DropTable {
            title: title.to_string(),
        };
        match self.call(&req)? {
            Response::Mutated { seq, applied } => Ok((seq, applied)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("Mutated", &other)),
        }
    }

    /// Hot-swap the server's snapshot. Returns the new generation and any
    /// non-fatal load warnings.
    pub fn reload(&mut self, path: Option<&str>) -> Result<(u32, Vec<String>), ClientError> {
        let req = Request::Reload {
            path: path.map(str::to_string),
        };
        match self.call(&req)? {
            Response::Reloaded {
                generation,
                warnings,
            } => Ok((generation, warnings)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("Reloaded", &other)),
        }
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn backoff_is_deterministic_capped_and_monotone_before_the_cap() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            jitter_seed: 42,
        };
        let a: Vec<Duration> = (0..8).map(|r| policy.delay(r)).collect();
        let b: Vec<Duration> = (0..8).map(|r| policy.delay(r)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (r, d) in a.iter().enumerate() {
            // Never more than cap + 50% jitter.
            assert!(
                *d <= Duration::from_millis(300),
                "retry {r} delay {d:?} exceeds jittered cap"
            );
            assert!(*d >= Duration::from_millis(10), "retry {r} below base");
        }
        // A different seed produces a different (decorrelated) schedule.
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy
        };
        assert_ne!(
            a,
            (0..8).map(|r| other.delay(r)).collect::<Vec<_>>(),
            "jitter must depend on the seed"
        );
    }

    #[test]
    fn permanently_down_server_fails_fast() {
        // Bind a port, learn it, and free it: nothing listens there now.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            jitter_seed: 7,
        };
        let start = Instant::now();
        let err = Client::connect_with_retry(dead_addr, Duration::from_secs(1), &policy)
            .expect_err("nothing is listening");
        let elapsed = start.elapsed();
        assert!(matches!(err, ClientError::Io(_)), "got {err}");
        // 3 attempts with capped delays (≤ 30ms + 50% jitter each) must be
        // well under a second: bounded, not hanging.
        assert!(
            elapsed < Duration::from_secs(5),
            "connect_with_retry took {elapsed:?}; retries are unbounded"
        );
    }

    #[test]
    fn a_server_dying_mid_response_is_retried_against_its_replacement() {
        use crate::protocol::QueryReply;
        use std::io::Write as _;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: read the request, then die mid-response —
            // a frame header announcing 64 bytes followed by only 8.
            let (mut s, _) = listener.accept().unwrap();
            read_request_frame(&mut s);
            s.write_all(&64u32.to_le_bytes()).unwrap();
            s.write_all(&[0xAB; 8]).unwrap();
            drop(s); // EOF inside the frame body
                     // "Restarted" server on the same port: answer properly.
            let (mut s, _) = listener.accept().unwrap();
            read_request_frame(&mut s);
            let reply = Response::Query(QueryReply {
                health_code: 0,
                health_label: "hnsw".to_string(),
                degraded: false,
                complete: true,
                via_fallback: false,
                generation: 1,
                indexed: 1,
                visited: 1,
                hits: Vec::new(),
            });
            protocol::write_frame(&mut s, &reply.encode()).unwrap();
        });

        let mut client = Client::connect(addr).unwrap();
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            jitter_seed: 9,
        };
        let reply = client
            .query_with_retry("q", &["a".to_string()], 1, &policy)
            .expect("mid-frame death must be retried, not surfaced");
        assert_eq!(reply.generation, 1);
        assert!(reply.complete);
        server.join().unwrap();
    }

    fn read_request_frame(s: &mut std::net::TcpStream) {
        use std::io::Read as _;
        let mut header = [0u8; 4];
        s.read_exact(&mut header).unwrap();
        let len = u32::from_le_bytes(header) as usize;
        let mut body = vec![0u8; len];
        s.read_exact(&mut body).unwrap();
    }

    #[test]
    fn a_server_trickling_bytes_is_cut_off_at_the_total_read_timeout() {
        use std::io::Write as _;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_request_frame(&mut s);
            // Announce a 64-byte body, deliver one byte, then go silent
            // while keeping the connection open: a per-read timeout that
            // resets on every byte would wait forever for the rest.
            s.write_all(&64u32.to_le_bytes()).unwrap();
            s.write_all(&[0x01]).unwrap();
            let _ = done_rx.recv_timeout(Duration::from_secs(30));
        });

        let mut client = Client::connect_with_timeout(addr, Duration::from_millis(600)).unwrap();
        let start = Instant::now();
        let err = client.ping().expect_err("a stalled response must time out");
        let elapsed = start.elapsed();
        assert!(
            matches!(&err, ClientError::Io(e) if e.kind() == io::ErrorKind::TimedOut),
            "expected a total-timeout cutoff, got {err}"
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "cutoff took {elapsed:?}; the total budget is not being enforced"
        );
        done_tx.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn zero_attempts_is_clamped_to_one_try() {
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(Client::connect_with_retry(dead_addr, Duration::from_secs(1), &policy).is_err());
    }
}
