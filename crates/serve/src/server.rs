//! The query server: accept loop, worker pool, admission control,
//! degradation reporting, hot reload, and graceful drain.
//!
//! Threading model (all scoped — the server can never leak threads):
//!
//! * the caller's thread runs the accept loop, asleep in [`wake::wait`] on
//!   the listener, the drain latch and the SIGHUP latch;
//! * one scoped thread per connection reads frames and answers cheap
//!   requests (ping/stats/reload/shutdown) inline, asleep between frames
//!   on its socket and the drain latch;
//! * query requests pass their tenant's token bucket, then a
//!   deficit-weighted fair queue ([`deepjoin_par::FairQueue`]), and are
//!   answered by a fixed pool of scoped worker threads — at capacity the
//!   newest job of the heaviest tenant is shed with `Overloaded`, and a
//!   CoDel-style controller steps the answer-effort ladder down when
//!   queue sojourn stays over target.
//!
//! Nothing wakes periodically. A frame must arrive within `read_timeout`
//! of the wait for it starting — bytes trickling in do not extend that —
//! and tripping the drain latch wakes every sleeper at once.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use deepjoin_ann::{Budget, Effort};
use deepjoin_par::{FairPush, FairPushError, FairQueue};

use crate::brownout::{
    tenant_id, BrownoutConfig, BrownoutController, Pressure, TenantTable, DEFAULT_TENANT,
};
use crate::protocol::{
    self, ErrorCode, FrameError, FrameReader, OverloadStats, QueryReply, Request, Response,
    StatsReply, TenantStats, WireError, WireHit,
};
use crate::replica::ReplicationState;
use crate::sync::SyncExport;
use crate::wake::{self, Latch};
use crate::{Loader, MutateOp, ServeModel, WaveQuery};

/// Tuning for one server instance.
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:7878"`. Port 0 picks a free port
    /// (read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission queue capacity: queries waiting for a worker beyond this
    /// bound are shed with `Overloaded`.
    pub max_inflight: usize,
    /// Per-query compute deadline. `None` means unbounded.
    pub deadline: Option<Duration>,
    /// Total time a connection may take to deliver one frame; stalled
    /// clients are disconnected after this.
    pub read_timeout: Duration,
    /// Maximum accepted frame payload size.
    pub max_frame: usize,
    /// Maximum simultaneous connections; excess connections are turned
    /// away with `Unavailable`.
    pub max_conns: usize,
    /// Install process-wide SIGTERM/SIGINT (drain) and SIGHUP (reload)
    /// handlers. Off by default so embedded/test servers don't touch
    /// process state.
    pub install_signal_handlers: bool,
    /// When set, this server answers `SyncPoll`/`SyncFetch` from the
    /// given export (i.e. it acts as a replication primary). `None`
    /// (the default) refuses sync requests with `Unavailable`.
    pub sync_export: Option<Arc<SyncExport>>,
    /// Replication gauges surfaced through `stats` and consulted for
    /// stale-marking of answers. `None` (the default) reports no
    /// replication gauges.
    pub replication: Option<Arc<ReplicationState>>,
    /// Testing hook: sleep this long inside every query before answering.
    /// Lets the chaos suite fake a slow replica without touching the
    /// model. Never set in production.
    pub debug_stall: Option<Duration>,
    /// Per-tenant admission rate in queries/second. `None` (the default)
    /// disables token buckets: every query goes straight to the fair
    /// admission queue.
    pub tenant_rate: Option<f64>,
    /// Token-bucket burst capacity (tokens), used only with `tenant_rate`.
    pub tenant_burst: f64,
    /// CoDel-style brownout controller settings. `None` (the default)
    /// disables adaptive shedding and the degradation ladder: the server
    /// always answers at full effort.
    pub brownout: Option<BrownoutConfig>,
    /// Maximum queries a worker gathers into one batched wave: after
    /// blocking for the first admitted job it drains up to this many more
    /// without blocking, then answers the whole wave through one batched
    /// model call. 1 restores the pre-wave one-pop-one-search loop.
    pub wave_width: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_inflight: 32,
            deadline: None,
            read_timeout: Duration::from_secs(10),
            max_frame: protocol::MAX_FRAME,
            max_conns: 64,
            install_signal_handlers: false,
            sync_export: None,
            replication: None,
            debug_stall: None,
            tenant_rate: None,
            tenant_burst: 16.0,
            brownout: None,
            wave_width: 16,
        }
    }
}

/// An immutable loaded model generation. Queries clone the `Arc` once and
/// use that snapshot for their whole lifetime, so a concurrent reload can
/// never produce a torn read.
struct Snapshot {
    model: Box<dyn ServeModel>,
    generation: u32,
    warnings: Vec<String>,
}

/// A query waiting for a worker.
struct Job {
    name: String,
    cells: Vec<String>,
    k: u32,
    deadline: Option<Instant>,
    /// When the query was admitted (for per-tenant latency accounting).
    started: Instant,
    tenant: Arc<str>,
    sink: JobSink,
}

/// Where a job's answer goes.
enum JobSink {
    /// Untagged single query: the connection thread blocks on this channel
    /// and writes the plain `Query`/`Error` frame itself.
    Channel(mpsc::Sender<Response>),
    /// Tagged (pipelined) query: the worker writes a correlated
    /// `QueryFor` frame through the connection's shared writer, coalesced
    /// with the rest of its wave.
    Correlated {
        request_id: u64,
        writer: Arc<ConnWriter>,
    },
}

/// Serializes all frame writes on one connection. The connection thread's
/// inline replies (pong, stats, shed errors) and worker-written waves
/// interleave at frame granularity; a wave's answers for one connection
/// land in a single buffered write (see [`protocol::write_frames`]).
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            stream: Mutex::new(stream),
        }
    }

    fn write_frame(&self, payload: &[u8]) -> io::Result<()> {
        protocol::write_frame(&mut *self.stream.lock().expect("conn writer lock"), payload)
    }

    fn write_frames(&self, payloads: &[Vec<u8>]) -> io::Result<()> {
        protocol::write_frames(
            &mut *self.stream.lock().expect("conn writer lock"),
            payloads,
        )
    }
}

/// One connection's share of a wave: the writer identity (pointer keyed —
/// `Arc::ptr_eq` semantics without nested loops), the live handle, and the
/// encoded response payloads destined for it.
type WaveShare = (*const ConnWriter, Arc<ConnWriter>, Vec<Vec<u8>>);

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    degraded_answers: AtomicU64,
    /// Sheds from per-tenant token buckets (subset of `shed`).
    bucket_shed: AtomicU64,
    /// Sheds where a full queue displaced the newest job of the heaviest
    /// tenant to admit a lighter one (subset of `shed`).
    displaced: AtomicU64,
    /// Sheds from the CoDel sojourn controller (subset of `shed`).
    codel_shed: AtomicU64,
    /// Answers produced at a brownout rung above `Full`.
    brownout_answers: AtomicU64,
}

struct Shared {
    current: Mutex<Arc<Snapshot>>,
    generation: AtomicU32,
    loader: Loader,
    queue: FairQueue<Job>,
    /// Tripped once to begin the drain; every thread asleep in
    /// [`wake::wait`] watches it.
    drain: Latch,
    /// Times the accept loop has gone to sleep (pins "no periodic wakeup").
    accept_waits: AtomicU64,
    conns: AtomicUsize,
    counters: Counters,
    /// Serializes reloads; queries are *not* blocked by this (they only
    /// take the `current` lock for the duration of an `Arc::clone`).
    reload_lock: Mutex<()>,
    /// Microseconds the most recent (re)load took (0 until the first
    /// reload after startup completes).
    last_reload_micros: AtomicU64,
    /// Present when this server exports sync state (replication primary).
    sync_export: Option<Arc<SyncExport>>,
    /// Present when this server participates in replication (either role).
    replication: Option<Arc<ReplicationState>>,
    /// Per-tenant admission buckets and latency/shed accounting.
    tenants: TenantTable,
    /// CoDel-style sojourn controller; `None` disables brownout.
    brownout: Option<BrownoutController>,
    /// Histogram of formed wave sizes: slot `i` counts waves of `i + 1`
    /// members (in-process observability for the pipelined bench).
    wave_sizes: Box<[AtomicU64]>,
    config: ConfigBits,
}

/// The subset of [`ServerConfig`] needed after startup.
struct ConfigBits {
    deadline: Option<Duration>,
    read_timeout: Duration,
    max_frame: usize,
    max_conns: usize,
    debug_stall: Option<Duration>,
    wave_width: usize,
}

impl Shared {
    fn snapshot(&self) -> Arc<Snapshot> {
        self.current.lock().expect("snapshot lock").clone()
    }

    /// Load (startup) or reload (on request/SIGHUP) a snapshot. The new
    /// snapshot is fully constructed before it becomes visible; on error
    /// the previous one keeps serving. The wall-clock cost is recorded
    /// for `stats` — the gauge that shows a remap-and-swap reload of an
    /// unchanged mmap'd artifact staying O(ms) while a heap reload pays
    /// for the whole artifact.
    fn reload(&self, path: Option<&str>) -> Result<(u32, Vec<String>), String> {
        let _guard = self.reload_lock.lock().expect("reload lock");
        let started = Instant::now();
        let loaded = (self.loader)(path)?;
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let snap = Arc::new(Snapshot {
            model: loaded.model,
            generation,
            warnings: loaded.warnings.clone(),
        });
        *self.current.lock().expect("snapshot lock") = snap;
        self.last_reload_micros
            .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        // The artifact under an explicit path switch (or an in-place
        // retrain) may differ from what replicas last fetched: drop the
        // export's cached CRC so the next SyncPoll re-sweeps it.
        if let Some(export) = &self.sync_export {
            if let Some(p) = path {
                export.set_model_path(std::path::PathBuf::from(p));
            }
            export.invalidate();
        }
        Ok((generation, loaded.warnings))
    }

    fn stats(&self) -> StatsReply {
        let snap = self.snapshot();
        let (cache_hits, cache_misses) = snap.model.cache_stats();
        StatsReply {
            generation: snap.generation,
            indexed: snap.model.indexed_len() as u64,
            health_label: snap.model.health().label(),
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            expired: self.counters.expired.load(Ordering::Relaxed),
            degraded_answers: self.counters.degraded_answers.load(Ordering::Relaxed),
            queue_capacity: self.queue.capacity() as u32,
            cache_hits,
            cache_misses,
            live: snap.model.live_stats(),
            last_reload_micros: Some(self.last_reload_micros.load(Ordering::Relaxed)),
            replication: self
                .replication
                .as_ref()
                .map(|r| r.snapshot(snap.generation)),
            overload: Some(self.overload_stats()),
            dedup_hits: Some(snap.model.dedup_hits()),
        }
    }

    fn overload_stats(&self) -> OverloadStats {
        let (brownout_steps_down, brownout_steps_up) = self
            .brownout
            .as_ref()
            .map(|c| c.steps())
            .unwrap_or((0, 0));
        OverloadStats {
            brownout_rung: self.brownout.as_ref().map(|c| c.rung()).unwrap_or(0),
            brownout_steps_down,
            brownout_steps_up,
            brownout_answers: self.counters.brownout_answers.load(Ordering::Relaxed),
            bucket_shed: self.counters.bucket_shed.load(Ordering::Relaxed),
            displaced: self.counters.displaced.load(Ordering::Relaxed),
            codel_shed: self.counters.codel_shed.load(Ordering::Relaxed),
            tenants: self
                .tenants
                .snapshot()
                .into_iter()
                .map(|t| TenantStats {
                    name: t.name,
                    accepted: t.accepted,
                    shed: t.shed,
                    p50_micros: t.p50_micros,
                    p99_micros: t.p99_micros,
                })
                .collect(),
        }
    }
}

/// A handle for stopping or poking a running server from another thread
/// (the in-process equivalent of sending SIGTERM).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful drain: stop accepting, answer admitted work, return
    /// from [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.drain.trip();
    }

    /// True once a drain has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.drain.is_tripped()
    }

    /// Times the accept loop has gone to sleep. An idle server sleeps
    /// once and stays asleep; tests pin that.
    #[doc(hidden)]
    pub fn accept_waits(&self) -> u64 {
        self.shared.accept_waits.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    #[doc(hidden)]
    pub fn open_connections(&self) -> usize {
        self.shared.conns.load(Ordering::Relaxed)
    }

    /// Current server counters.
    pub fn stats(&self) -> StatsReply {
        self.shared.stats()
    }

    /// Reload the snapshot in place (the in-process equivalent of SIGHUP
    /// or a `Reload` frame). `None` re-reads the original artifact. This
    /// is how a replica's sync loop publishes a freshly installed
    /// generation. On error the previous snapshot keeps serving.
    pub fn reload(&self, path: Option<&str>) -> Result<(u32, Vec<String>), String> {
        self.shared.reload(path)
    }

    /// Histogram of formed wave sizes: slot `i` counts waves of `i + 1`
    /// members, up to the configured wave width. In-process only (the
    /// pipelined bench reads its `wave_size_p50` from here); the wire
    /// stats stay unchanged.
    pub fn wave_size_histogram(&self) -> Vec<u64> {
        self.shared
            .wave_sizes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// A bound, loaded, ready-to-run server. Created by [`Server::start`];
/// serves until shutdown via [`Server::run`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
    install_signals: bool,
}

impl Server {
    /// Bind `config.addr`, run the loader once (readiness gating: the
    /// socket only starts accepting inside [`Server::run`], after the model
    /// is live), and return the ready server.
    pub fn start(config: ServerConfig, loader: Loader) -> Result<Self, String> {
        let loaded = loader(None)?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("bind {}: {e}", config.addr))?;
        let snap = Arc::new(Snapshot {
            model: loaded.model,
            generation: 1,
            warnings: loaded.warnings,
        });
        let shared = Arc::new(Shared {
            current: Mutex::new(snap),
            generation: AtomicU32::new(1),
            loader,
            queue: FairQueue::new(config.max_inflight),
            drain: Latch::new().map_err(|e| format!("drain latch: {e}"))?,
            accept_waits: AtomicU64::new(0),
            conns: AtomicUsize::new(0),
            counters: Counters::default(),
            reload_lock: Mutex::new(()),
            last_reload_micros: AtomicU64::new(0),
            sync_export: config.sync_export,
            replication: config.replication,
            tenants: TenantTable::new(config.tenant_rate.map(|r| (r, config.tenant_burst))),
            brownout: config.brownout.map(BrownoutController::new),
            wave_sizes: (0..config.wave_width.max(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
            config: ConfigBits {
                deadline: config.deadline,
                read_timeout: config.read_timeout,
                max_frame: config.max_frame,
                max_conns: config.max_conns,
                debug_stall: config.debug_stall,
                wave_width: config.wave_width.max(1),
            },
        });
        Ok(Server {
            listener,
            shared,
            workers: config.workers.max(1),
            install_signals: config.install_signal_handlers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Warnings from the initial load (e.g. degraded-index notices), for
    /// the operator's startup log.
    pub fn startup_warnings(&self) -> Vec<String> {
        self.shared.snapshot().warnings.clone()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serve until a drain is requested (shutdown request, SIGTERM/SIGINT
    /// when signal handlers are installed, or [`ServerHandle::shutdown`]),
    /// then drain admitted work and return.
    pub fn run(&self) -> io::Result<()> {
        let shared = &self.shared;
        // SIGHUP wakes the accept loop through a latch of its own; the
        // guard disarms the handlers before that latch closes.
        let hup = Latch::new()?;
        let _armed = self
            .install_signals
            .then(|| signals::arm(shared.drain.write_fd(), hup.write_fd()));
        self.listener.set_nonblocking(true)?;
        std::thread::scope(|s| {
            // Fixed worker pool: the only threads that touch the model.
            for _ in 0..self.workers {
                s.spawn(|| worker_loop(shared));
            }
            let accepted = loop {
                shared.accept_waits.fetch_add(1, Ordering::Relaxed);
                let ready = match wake::wait(
                    &[shared.drain.fd(), hup.fd(), self.listener.as_raw_fd()],
                    None,
                ) {
                    Ok(ready) => ready,
                    Err(e) => break Err(e),
                };
                if ready & 0b001 != 0 {
                    break Ok(());
                }
                if ready & 0b010 != 0 {
                    hup.clear();
                    // Best-effort live reload; a failure keeps serving the
                    // old snapshot.
                    if let Err(e) = shared.reload(None) {
                        eprintln!("warning: SIGHUP reload failed: {e}");
                    }
                }
                if ready & 0b100 == 0 {
                    continue;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if shared.conns.load(Ordering::Relaxed) >= shared.config.max_conns {
                            turn_away(stream);
                            continue;
                        }
                        shared.conns.fetch_add(1, Ordering::Relaxed);
                        s.spawn(move || {
                            let _ = handle_connection(shared, stream);
                            shared.conns.fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    // The peer gave up between readiness and accept.
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => break Err(e),
                }
            };
            // Drain: the latch wakes every connection thread (on an
            // accept-loop failure too); no new work is admitted; workers
            // finish the backlog and exit. The scope join is the barrier.
            shared.drain.trip();
            shared.queue.close();
            accepted
        })?;
        // Graceful exit: give a live model the chance to flush its
        // memtable. Crash safety never depends on this (the journal
        // already holds everything), it just makes restarts cheaper.
        self.shared.snapshot().model.drain();
        Ok(())
    }
}

fn turn_away(mut stream: TcpStream) {
    let resp = Response::Error(WireError {
        code: ErrorCode::Unavailable,
        message: "connection limit reached".to_string(),
    });
    let _ = protocol::write_frame(&mut stream, &resp.encode());
}

/// Route a structured failure to a job's sink: a plain `Error` for a
/// channel job, a correlated `QueryFor` for a pipelined member (so one
/// member's failure never poisons the rest of its connection's window).
fn fail_job(job: &Job, code: ErrorCode, message: String) {
    let err = WireError { code, message };
    match &job.sink {
        JobSink::Channel(tx) => {
            let _ = tx.send(Response::Error(err));
        }
        JobSink::Correlated { request_id, writer } => {
            let _ = writer.write_frame(
                &Response::QueryFor {
                    request_id: *request_id,
                    reply: Err(err),
                }
                .encode(),
            );
        }
    }
}

/// Report one popped job's queue sojourn to the brownout controller
/// (CoDel-style: sustained sojourn over target steps the effort rung down
/// *and* sheds the newest job of the heaviest tenant, so the flooder pays
/// for the standing queue it built).
fn observe_sojourn(shared: &Shared, enqueued: Instant) {
    if let Some(ctl) = &shared.brownout {
        let sojourn = enqueued.elapsed();
        if ctl.observe(sojourn, Instant::now()) == Pressure::Shed {
            if let Some((_vid, victim, _)) = shared.queue.shed_newest_of_heaviest() {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                shared.counters.codel_shed.fetch_add(1, Ordering::Relaxed);
                shared.tenants.note_shed(&victim.tenant);
                fail_job(
                    &victim,
                    ErrorCode::Overloaded,
                    "queue delay over brownout target; shed to recover; retry with backoff"
                        .to_string(),
                );
            }
        }
    }
}

/// Pull queries off the admission queue until it is closed and drained.
/// Each blocking pop seeds a **wave**: the worker drains up to
/// `wave_width - 1` more already-admitted jobs without blocking (the
/// non-blocking drain walks the same deficit-round-robin cursor, so
/// fairness order is exactly what back-to-back pops would have produced),
/// then answers the whole wave through one batched model call — shared
/// encoder forward passes, deduped identical members, and row blocks
/// pulled through the cache once per wave instead of once per query.
fn worker_loop(shared: &Shared) {
    while let Some((_tenant, job, enqueued)) = shared.queue.pop() {
        observe_sojourn(shared, enqueued);
        let mut wave = vec![job];
        while wave.len() < shared.config.wave_width {
            match shared.queue.try_pop() {
                Some((_tenant, job, enqueued)) => {
                    observe_sojourn(shared, enqueued);
                    wave.push(job);
                }
                None => break,
            }
        }
        let slot = (wave.len() - 1).min(shared.wave_sizes.len() - 1);
        shared.wave_sizes[slot].fetch_add(1, Ordering::Relaxed);
        process_wave(shared, wave);
    }
}

/// Answer one formed wave: expire members that overslept in the queue,
/// run the rest through the model's batched entry point under the wave
/// budget (the tightest member deadline — a tighter budget can only stop
/// a member earlier, never change its complete answer), then deliver
/// responses with one coalesced write per connection.
fn process_wave(shared: &Shared, wave: Vec<Job>) {
    let now = Instant::now();
    // A member that sat in the queue past its whole deadline gets a
    // structured error instead of a zero-work "partial result".
    let mut live = Vec::with_capacity(wave.len());
    for job in wave {
        if let Some(d) = job.deadline {
            if now >= d {
                shared.counters.expired.fetch_add(1, Ordering::Relaxed);
                fail_job(
                    &job,
                    ErrorCode::DeadlineExceeded,
                    "deadline expired while queued; retry with backoff".to_string(),
                );
                continue;
            }
        }
        live.push(job);
    }
    if live.is_empty() {
        return;
    }
    if let Some(stall) = shared.config.debug_stall {
        // The testing stall models per-query work: a wave pays it once
        // per member, like the serial loop it replaces.
        std::thread::sleep(stall * live.len() as u32);
    }
    let snap = shared.snapshot();
    let indexed = snap.model.indexed_len();
    // Brownout: stamp the current effort rung onto the wave budget so the
    // search loops step down (reduced beam → surrogate-only scores →
    // truncated scans) without any signature change below this point.
    let rung = shared.brownout.as_ref().map(|c| c.rung()).unwrap_or(0);
    let deadline = live.iter().filter_map(|j| j.deadline).min();
    let budget = match deadline {
        Some(d) => Budget::with_deadline(d),
        None => Budget::unlimited(),
    }
    .with_effort(Effort::from_rung(rung));
    // Clamp k to the index size: asking for more neighbors than columns
    // is well-defined, not an error.
    let queries: Vec<WaveQuery<'_>> = live
        .iter()
        .map(|j| WaveQuery {
            cells: &j.cells,
            name: &j.name,
            k: (j.k as usize).min(indexed.max(1)),
        })
        .collect();
    let outcomes = match catch_unwind(AssertUnwindSafe(|| {
        snap.model.query_batch(&queries, &budget)
    })) {
        Ok(outcomes) if outcomes.len() == live.len() => outcomes,
        Ok(_) => {
            for job in &live {
                fail_job(
                    job,
                    ErrorCode::Internal,
                    "model answered a different wave size".to_string(),
                );
            }
            return;
        }
        Err(_) => {
            for job in &live {
                fail_job(
                    job,
                    ErrorCode::Internal,
                    "query processing failed; the worker recovered".to_string(),
                );
            }
            return;
        }
    };
    let health = snap.model.health();
    // A replica cut off from its primary past the staleness threshold
    // keeps answering (availability over consistency) but every answer
    // says so: the label grows a " (stale)" suffix and the reply is
    // marked degraded. QueryReply's strict decoder can't grow a field,
    // so staleness rides the existing degradation channel.
    let stale = shared
        .replication
        .as_ref()
        .map(|r| r.is_stale())
        .unwrap_or(false);
    let mut health_label = health.label();
    if stale {
        health_label.push_str(" (stale)");
    }
    // Like staleness, the brownout rung rides the label + degraded flag.
    if rung > 0 {
        health_label.push_str(&format!(" (brownout-{rung})"));
        shared
            .counters
            .brownout_answers
            .fetch_add(live.len() as u64, Ordering::Relaxed);
    }
    // Deliver: channel jobs wake their connection thread; correlated jobs
    // are grouped by connection so each connection gets its whole share
    // of the wave in one buffered write.
    let mut coalesced: Vec<WaveShare> = Vec::new();
    for (job, outcome) in live.iter().zip(outcomes) {
        let degraded =
            !outcome.complete || outcome.via_fallback || health.is_degraded() || stale || rung > 0;
        if degraded {
            shared
                .counters
                .degraded_answers
                .fetch_add(1, Ordering::Relaxed);
        }
        let reply = QueryReply {
            health_code: health.code(),
            health_label: health_label.clone(),
            degraded,
            complete: outcome.complete,
            via_fallback: outcome.via_fallback,
            generation: snap.generation,
            indexed: indexed as u64,
            visited: outcome.visited as u64,
            hits: outcome
                .hits
                .into_iter()
                .map(|h| WireHit {
                    id: h.id,
                    score: h.score,
                    label: h.label,
                })
                .collect(),
        };
        match &job.sink {
            JobSink::Channel(tx) => {
                // A dead client (dropped receiver) is not an error.
                let _ = tx.send(Response::Query(reply));
            }
            JobSink::Correlated { request_id, writer } => {
                let frame = Response::QueryFor {
                    request_id: *request_id,
                    reply: Ok(reply),
                }
                .encode();
                let key = Arc::as_ptr(writer);
                match coalesced.iter_mut().find(|(p, _, _)| *p == key) {
                    Some((_, _, frames)) => frames.push(frame),
                    None => coalesced.push((key, writer.clone(), vec![frame])),
                }
                shared
                    .tenants
                    .note_latency(&job.tenant, job.started.elapsed().as_micros() as u64);
            }
        }
    }
    for (_, writer, frames) in coalesced {
        // A dead client (closed socket) is not an error.
        let _ = writer.write_frames(&frames);
    }
}

fn internal_error(msg: &str) -> Response {
    Response::Error(WireError {
        code: ErrorCode::Internal,
        message: msg.to_string(),
    })
}

/// Read frames off one connection until EOF, a fatal protocol error, a
/// stall, or server drain. Always answers with a structured error before
/// closing on a protocol violation. Untagged queries block this thread
/// until answered; queries carrying a `request_id` return to the read
/// loop immediately after admission, so the client can keep its pipeline
/// window full while worker waves write the correlated answers back
/// through the shared [`ConnWriter`].
fn handle_connection(shared: &Shared, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // All frame writes go through one serialized writer: the read loop's
    // inline replies and worker-written waves may otherwise interleave
    // mid-frame.
    let writer = Arc::new(ConnWriter::new(stream.try_clone()?));
    let mut reader = FrameReader::new(shared.config.max_frame);
    let fds = [shared.drain.fd(), stream.as_raw_fd()];
    loop {
        // One budget per frame, fixed when the wait for it starts: bytes
        // trickling in do not extend it (slow-loris rule).
        let deadline = Instant::now().checked_add(shared.config.read_timeout);
        let wait = || {
            let why = match wake::wait(&fds, deadline)? {
                0 => "client stalled mid-frame",
                ready if ready & 1 != 0 => "server draining during read",
                _ => return Ok(()),
            };
            Err(io::Error::new(io::ErrorKind::TimedOut, why))
        };
        let payload = match reader.read_frame(&mut stream, wait) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // clean EOF
            Err(FrameError::TooLarge { announced, cap }) => {
                let resp = Response::Error(WireError {
                    code: ErrorCode::FrameTooLarge,
                    message: format!("frame of {announced} bytes exceeds cap of {cap} bytes"),
                });
                let _ = writer.write_frame(&resp.encode());
                return Ok(());
            }
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::TimedOut => {
                // Either the client stalled past read_timeout or a drain
                // began; tell it which before closing.
                let resp = if shared.drain.is_tripped() {
                    Response::Error(WireError {
                        code: ErrorCode::Unavailable,
                        message: "server is draining".to_string(),
                    })
                } else {
                    Response::Error(WireError {
                        code: ErrorCode::BadRequest,
                        message: "read timed out mid-frame".to_string(),
                    })
                };
                let _ = writer.write_frame(&resp.encode());
                return Ok(());
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        let request = match Request::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Error(WireError {
                    code: ErrorCode::BadRequest,
                    message: format!("bad request frame: {e}"),
                });
                let _ = writer.write_frame(&resp.encode());
                // A peer speaking garbage gets one diagnosis, then the
                // connection closes: framing can no longer be trusted.
                return Ok(());
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(shared.stats()),
            Request::Shutdown => {
                shared.drain.trip();
                let _ = writer.write_frame(&Response::ShuttingDown.encode());
                return Ok(());
            }
            Request::Reload { ref path } => match shared.reload(path.as_deref()) {
                Ok((generation, warnings)) => Response::Reloaded {
                    generation,
                    warnings,
                },
                Err(e) => Response::Error(WireError {
                    code: ErrorCode::Unavailable,
                    message: format!("reload failed, previous snapshot still serving: {e}"),
                }),
            },
            Request::AddTable { title, columns } => {
                dispatch_mutation(shared, MutateOp::AddTable { title, columns })
            }
            Request::DropTable { title } => dispatch_mutation(shared, MutateOp::DropTable { title }),
            Request::SyncPoll => answer_sync_poll(shared),
            Request::SyncFetch { item, offset, len } => {
                answer_sync_fetch(shared, &item, offset, len)
            }
            Request::Query {
                name,
                cells,
                k,
                tenant,
                request_id: Some(request_id),
            } => {
                admit_pipelined(shared, &writer, request_id, name, cells, k, tenant)?;
                continue;
            }
            Request::Query { k: 0, .. } => Response::Error(WireError {
                code: ErrorCode::BadRequest,
                message: "k must be >= 1".to_string(),
            }),
            Request::Query {
                name,
                cells,
                k,
                tenant,
                request_id: None,
            } => dispatch_query(shared, name, cells, k, tenant),
        };
        writer.write_frame(&response.encode())?;
    }
}

/// Admit one tagged (pipelined) query. An admission failure is
/// answered immediately with a correlated error frame; success returns to
/// the read loop with the job queued for a worker wave.
fn admit_pipelined(
    shared: &Shared,
    writer: &Arc<ConnWriter>,
    request_id: u64,
    name: String,
    cells: Vec<String>,
    k: u32,
    tenant: Option<String>,
) -> io::Result<()> {
    let refused = if k == 0 {
        Some(WireError {
            code: ErrorCode::BadRequest,
            message: "k must be >= 1".to_string(),
        })
    } else {
        let sink = JobSink::Correlated {
            request_id,
            writer: writer.clone(),
        };
        admit_query(shared, name, cells, k, tenant_arc(tenant.as_deref()), sink).err()
    };
    match refused {
        Some(err) => writer.write_frame(
            &Response::QueryFor {
                request_id,
                reply: Err(err),
            }
            .encode(),
        ),
        None => Ok(()),
    }
}

/// Apply a mutation on the connection thread. Mutations are serialized
/// inside the live lake (one lock) and are cheap relative to queries
/// (embedding a handful of columns + one journal append), so they do not
/// go through the admission queue.
fn dispatch_mutation(shared: &Shared, op: MutateOp) -> Response {
    let snap = shared.snapshot();
    match catch_unwind(AssertUnwindSafe(|| snap.model.mutate(op))) {
        Ok(Ok(reply)) => Response::Mutated {
            seq: reply.seq,
            applied: reply.applied,
        },
        Ok(Err(msg)) => Response::Error(WireError {
            code: ErrorCode::BadRequest,
            message: msg,
        }),
        Err(_) => internal_error("mutation failed; the server recovered"),
    }
}

/// Answer a `SyncPoll` on the connection thread: the current generation,
/// the fingerprint over the syncable file set, and its item list. Servers
/// without a sync export (replicas, standalone servers) refuse — a
/// replica must never be mistaken for a primary by another replica.
fn answer_sync_poll(shared: &Shared) -> Response {
    let Some(export) = &shared.sync_export else {
        return Response::Error(WireError {
            code: ErrorCode::Unavailable,
            message: "not a sync-exporting primary".to_string(),
        });
    };
    let generation = shared.generation.load(Ordering::SeqCst);
    match export.state(generation) {
        Ok((fingerprint, items)) => Response::SyncState {
            generation,
            fingerprint,
            items,
        },
        Err(e) => Response::Error(WireError {
            code: ErrorCode::Unavailable,
            message: format!("sync state unavailable: {e}"),
        }),
    }
}

/// Answer a `SyncFetch` on the connection thread (disk read + CRC, no
/// model work, so it does not go through the admission queue).
fn answer_sync_fetch(shared: &Shared, item: &str, offset: u64, len: u32) -> Response {
    let Some(export) = &shared.sync_export else {
        return Response::Error(WireError {
            code: ErrorCode::Unavailable,
            message: "not a sync-exporting primary".to_string(),
        });
    };
    match export.chunk(item, offset, len) {
        Ok((total_len, crc, data)) => Response::SyncChunk {
            offset,
            total_len,
            crc,
            data,
        },
        Err(e) => Response::Error(WireError {
            code: ErrorCode::BadRequest,
            message: format!("sync fetch failed: {e}"),
        }),
    }
}

/// The tenant a query bills to: the explicit tag, or the shared default.
fn tenant_arc(tenant: Option<&str>) -> Arc<str> {
    match tenant {
        Some(t) => Arc::from(t),
        None => Arc::from(DEFAULT_TENANT),
    }
}

/// Admit a query to the worker queue, or shed it with the returned error.
/// Admission is layered: the tenant's token bucket first (flooders shed
/// before touching shared state), then the deficit-weighted fair queue
/// (at capacity the newest job of the *heaviest* tenant is displaced, so
/// a flooder's own backlog absorbs the overload). A displaced victim is
/// failed through its own sink, whichever kind it is.
fn admit_query(
    shared: &Shared,
    name: String,
    cells: Vec<String>,
    k: u32,
    tenant: Arc<str>,
    sink: JobSink,
) -> Result<(), WireError> {
    let now = Instant::now();
    if !shared.tenants.admit(&tenant, now) {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        shared.counters.bucket_shed.fetch_add(1, Ordering::Relaxed);
        return Err(WireError {
            code: ErrorCode::Overloaded,
            message: format!("tenant '{tenant}' over admission rate; retry with backoff"),
        });
    }
    let deadline = shared.config.deadline.map(|d| now + d);
    let job = Job {
        name,
        cells,
        k,
        deadline,
        started: now,
        tenant: tenant.clone(),
        sink,
    };
    match shared.queue.try_push(tenant_id(&tenant), job) {
        Ok(FairPush::Admitted) => {
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            shared.tenants.note_accepted(&tenant);
            Ok(())
        }
        Ok(FairPush::Displaced(_vid, victim)) => {
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            shared.tenants.note_accepted(&tenant);
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            shared.counters.displaced.fetch_add(1, Ordering::Relaxed);
            shared.tenants.note_shed(&victim.tenant);
            fail_job(
                &victim,
                ErrorCode::Overloaded,
                "displaced by fair admission at capacity; retry with backoff".to_string(),
            );
            Ok(())
        }
        Err(FairPushError::Full(_)) => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            shared.tenants.note_shed(&tenant);
            Err(WireError {
                code: ErrorCode::Overloaded,
                message: format!(
                    "admission queue full ({} in flight); retry with backoff",
                    shared.queue.capacity()
                ),
            })
        }
        Err(FairPushError::Closed(_)) => Err(WireError {
            code: ErrorCode::Unavailable,
            message: "server is draining".to_string(),
        }),
    }
}

/// Admit an untagged single query and block the connection thread (not a
/// worker) until its wave answers.
fn dispatch_query(
    shared: &Shared,
    name: String,
    cells: Vec<String>,
    k: u32,
    tenant: Option<String>,
) -> Response {
    let started = Instant::now();
    let tenant = tenant_arc(tenant.as_deref());
    let (tx, rx) = mpsc::channel();
    if let Err(err) = admit_query(
        shared,
        name,
        cells,
        k,
        tenant.clone(),
        JobSink::Channel(tx),
    ) {
        return Response::Error(err);
    }
    // The worker sends exactly one response per admitted job; recv fails
    // only if the worker pool died, which is itself an internal error.
    let resp = match rx.recv() {
        Ok(resp) => resp,
        Err(_) => internal_error("worker pool unavailable"),
    };
    shared
        .tenants
        .note_latency(&tenant, started.elapsed().as_micros() as u64);
    resp
}

/// Minimal async-signal-safe handlers. The libc `signal` symbol is linked
/// into every Rust binary, so no external crate is needed; a handler does
/// one `write(2)` to the latch armed for its signal.
mod signals {
    use std::os::fd::RawFd;
    use std::sync::atomic::{AtomicI32, Ordering};

    use crate::wake;

    static TERM_FD: AtomicI32 = AtomicI32::new(-1);
    static HUP_FD: AtomicI32 = AtomicI32::new(-1);

    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(sig: i32) {
        let fd = if sig == SIGHUP { &HUP_FD } else { &TERM_FD };
        wake::trip_raw(fd.load(Ordering::SeqCst));
    }

    /// Points the handlers back at nothing when dropped, so a late signal
    /// cannot write into a descriptor number the process has reused.
    pub struct Armed;

    /// Route SIGTERM/SIGINT to `term_fd` and SIGHUP to `hup_fd` (latch
    /// write ends) until the returned guard drops.
    pub fn arm(term_fd: RawFd, hup_fd: RawFd) -> Armed {
        TERM_FD.store(term_fd, Ordering::SeqCst);
        HUP_FD.store(hup_fd, Ordering::SeqCst);
        let handler = on_signal as extern "C" fn(i32) as usize;
        for sig in [SIGTERM, SIGINT, SIGHUP] {
            // SAFETY: `on_signal` only loads an atomic and calls write(2),
            // both async-signal-safe.
            unsafe {
                signal(sig, handler);
            }
        }
        Armed
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            TERM_FD.store(-1, Ordering::SeqCst);
            HUP_FD.store(-1, Ordering::SeqCst);
        }
    }
}
