//! The replica side of replicated serving (DESIGN.md §15): the
//! generation-pull loop behind `dj serve --replica-of`, and the shared
//! [`ReplicationState`] gauges both roles report through `stats`.
//!
//! A replica is an ordinary server — same degradation ladder, same hot
//! reload — whose snapshot is written by a background loop instead of an
//! operator: poll the primary, install whatever changed (see
//! [`crate::sync`]), reload, repeat. Failure handling is entirely
//! passive: an unreachable primary simply stops the loop from making
//! progress, the replica keeps answering from its last good generation,
//! and once the silence exceeds `stale_after` every answer is flagged
//! `stale` (appended to the health label and reflected in `degraded`)
//! until the primary is heard from again.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepjoin_store::SharedIo;

use crate::client::{Client, ClientError};
use crate::protocol::{
    ReplicationStats, Request, Response, SyncItem, ROLE_PRIMARY, ROLE_REPLICA,
};
use crate::server::ServerHandle;
use crate::sync::{FetchedChunk, SyncSource, Syncer, DEFAULT_CHUNK_LEN};

/// Sentinel for "never been in sync yet" in [`ReplicationState`].
const NEVER: u64 = u64::MAX;

/// Replication gauges shared between the sync loop (writer) and the
/// server's stats/query paths (readers). All plain atomics — reading them
/// never blocks a query.
pub struct ReplicationState {
    role: u8,
    origin: Instant,
    stale_after: Duration,
    primary_generation: AtomicU32,
    synced_generation: AtomicU32,
    /// Milliseconds since `origin` of the last poll that confirmed the
    /// local files match the primary ([`NEVER`] until the first one).
    last_in_sync_ms: AtomicU64,
    last_sync_micros: AtomicU64,
    last_sync_bytes: AtomicU64,
    syncs: AtomicU64,
    /// Latched stale flag so transitions can be logged exactly once.
    stale: AtomicBool,
}

impl ReplicationState {
    /// State for a primary (sync-exporting) server: always in sync with
    /// itself, never stale.
    pub fn primary() -> Arc<Self> {
        Arc::new(Self::new(ROLE_PRIMARY, Duration::MAX))
    }

    /// State for a replica flagging answers stale once the primary has
    /// been unreachable for `stale_after`.
    pub fn replica(stale_after: Duration) -> Arc<Self> {
        Arc::new(Self::new(ROLE_REPLICA, stale_after))
    }

    fn new(role: u8, stale_after: Duration) -> Self {
        ReplicationState {
            role,
            origin: Instant::now(),
            stale_after,
            primary_generation: AtomicU32::new(0),
            synced_generation: AtomicU32::new(0),
            last_in_sync_ms: AtomicU64::new(NEVER),
            last_sync_micros: AtomicU64::new(0),
            last_sync_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            stale: AtomicBool::new(false),
        }
    }

    /// Record a poll that found (or made) the local files identical to the
    /// primary's generation `generation`.
    pub fn note_in_sync(&self, generation: u32) {
        self.primary_generation.store(generation, Ordering::Relaxed);
        self.synced_generation.store(generation, Ordering::Relaxed);
        self.last_in_sync_ms
            .store(self.origin.elapsed().as_millis() as u64, Ordering::Relaxed);
        self.stale.store(false, Ordering::Relaxed);
    }

    /// Record the primary's generation as observed by a poll whose install
    /// has not (yet) completed.
    pub fn note_primary_generation(&self, generation: u32) {
        self.primary_generation.store(generation, Ordering::Relaxed);
    }

    /// Record a completed sync transfer.
    pub fn note_sync(&self, took: Duration, bytes: u64) {
        self.last_sync_micros
            .store(took.as_micros() as u64, Ordering::Relaxed);
        self.last_sync_bytes.store(bytes, Ordering::Relaxed);
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Seconds since the replica last confirmed being in sync (counted
    /// from process start when it never has been). 0 for a primary.
    pub fn lag_seconds(&self) -> u32 {
        if self.role == ROLE_PRIMARY {
            return 0;
        }
        let now_ms = self.origin.elapsed().as_millis() as u64;
        let last = self.last_in_sync_ms.load(Ordering::Relaxed);
        let since_ms = if last == NEVER { now_ms } else { now_ms.saturating_sub(last) };
        (since_ms / 1000).min(u32::MAX as u64) as u32
    }

    /// True once the primary has been silent past the staleness threshold.
    /// Computed from the last-in-sync clock (not a flag the loop must
    /// remember to set), so a wedged sync thread cannot mask staleness.
    pub fn is_stale(&self) -> bool {
        if self.role == ROLE_PRIMARY {
            return false;
        }
        let now_ms = self.origin.elapsed().as_millis() as u64;
        let last = self.last_in_sync_ms.load(Ordering::Relaxed);
        let since = Duration::from_millis(if last == NEVER {
            now_ms
        } else {
            now_ms.saturating_sub(last)
        });
        let stale = since > self.stale_after;
        let was = self.stale.swap(stale, Ordering::Relaxed);
        if stale && !was {
            eprintln!(
                "warning: primary unreachable for {:?}; serving stale answers",
                since
            );
        }
        stale
    }

    /// The wire gauges, given the local serving generation.
    pub fn snapshot(&self, serving_generation: u32) -> ReplicationStats {
        if self.role == ROLE_PRIMARY {
            return ReplicationStats {
                role: ROLE_PRIMARY,
                primary_generation: serving_generation,
                synced_generation: serving_generation,
                lag_generations: 0,
                lag_seconds: 0,
                last_sync_micros: self.last_sync_micros.load(Ordering::Relaxed),
                last_sync_bytes: self.last_sync_bytes.load(Ordering::Relaxed),
                syncs: self.syncs.load(Ordering::Relaxed),
                stale: false,
            };
        }
        let primary = self.primary_generation.load(Ordering::Relaxed);
        let synced = self.synced_generation.load(Ordering::Relaxed);
        ReplicationStats {
            role: ROLE_REPLICA,
            primary_generation: primary,
            synced_generation: synced,
            lag_generations: primary.saturating_sub(synced),
            lag_seconds: self.lag_seconds(),
            last_sync_micros: self.last_sync_micros.load(Ordering::Relaxed),
            last_sync_bytes: self.last_sync_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            stale: self.is_stale(),
        }
    }
}

/// A [`SyncSource`] speaking the wire protocol to a primary over one
/// connection.
pub struct TcpSyncSource {
    client: Client,
}

impl TcpSyncSource {
    /// Connect to the primary at `addr`.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, ClientError> {
        Ok(TcpSyncSource {
            client: Client::connect_with_timeout(addr, timeout)?,
        })
    }
}

impl SyncSource for TcpSyncSource {
    fn poll(&mut self) -> Result<(u32, u64, Vec<SyncItem>), String> {
        match self.client.call(&Request::SyncPoll) {
            Ok(Response::SyncState {
                generation,
                fingerprint,
                items,
            }) => Ok((generation, fingerprint, items)),
            Ok(Response::Error(e)) => Err(format!("primary refused sync poll: {e}")),
            Ok(other) => Err(format!("unexpected sync poll response: {other:?}")),
            Err(e) => Err(format!("sync poll: {e}")),
        }
    }

    fn fetch(&mut self, item: &str, offset: u64, len: u32) -> Result<FetchedChunk, String> {
        let req = Request::SyncFetch {
            item: item.to_string(),
            offset,
            len,
        };
        match self.client.call(&req) {
            Ok(Response::SyncChunk {
                offset,
                total_len,
                crc,
                data,
            }) => Ok(FetchedChunk {
                offset,
                total_len,
                crc,
                data,
            }),
            Ok(Response::Error(e)) => Err(format!("primary refused sync fetch: {e}")),
            Ok(other) => Err(format!("unexpected sync fetch response: {other:?}")),
            Err(e) => Err(format!("sync fetch: {e}")),
        }
    }
}

/// Tuning for one replica's sync loop.
pub struct ReplicaConfig {
    /// The primary's address (`host:port`).
    pub primary_addr: String,
    /// Where to install the synced model artifact.
    pub model_path: PathBuf,
    /// Where to install synced live-lake files (`None` disables live
    /// delta shipping).
    pub live_dir: Option<PathBuf>,
    /// Delay between sync polls.
    pub interval: Duration,
    /// Per-fetch chunk size.
    pub chunk_len: u32,
    /// Unreachable-primary threshold before answers are flagged stale
    /// (consumed by the [`ReplicationState`] the caller builds).
    pub stale_after: Duration,
    /// Connect/read timeout towards the primary.
    pub connect_timeout: Duration,
    /// How long [`bootstrap`] keeps retrying before giving up.
    pub bootstrap_timeout: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            primary_addr: String::new(),
            model_path: PathBuf::new(),
            live_dir: None,
            interval: Duration::from_millis(500),
            chunk_len: DEFAULT_CHUNK_LEN,
            stale_after: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(5),
            bootstrap_timeout: Duration::from_secs(30),
        }
    }
}

/// Blocking bootstrap: fetch a first complete generation before the
/// server starts (the loader needs an artifact on disk). Retries until it
/// succeeds or `deadline_after` elapses; a replica restarting with a
/// previously synced artifact on disk may skip this and serve (stale)
/// immediately.
pub fn bootstrap(
    io: SharedIo,
    cfg: &ReplicaConfig,
    state: &ReplicationState,
) -> Result<(), String> {
    let started = Instant::now();
    let mut syncer = Syncer::new(
        io,
        cfg.model_path.clone(),
        cfg.live_dir.clone(),
        cfg.chunk_len,
    );
    let mut last_err = String::new();
    while started.elapsed() < cfg.bootstrap_timeout {
        match TcpSyncSource::connect(&cfg.primary_addr, cfg.connect_timeout) {
            Ok(mut source) => {
                let sync_started = Instant::now();
                match syncer.sync_once(&mut source) {
                    Ok(report) => {
                        state.note_sync(sync_started.elapsed(), report.bytes_transferred);
                        state.note_in_sync(report.generation);
                        return Ok(());
                    }
                    Err(e) => last_err = e,
                }
            }
            Err(e) => last_err = format!("connect {}: {e}", cfg.primary_addr),
        }
        std::thread::sleep(cfg.interval.min(Duration::from_millis(500)));
    }
    Err(format!(
        "bootstrap sync from {} did not complete within {:?}: {last_err}",
        cfg.primary_addr, cfg.bootstrap_timeout
    ))
}

/// The replica's sync loop: poll the primary every `cfg.interval`,
/// install whatever changed, hot-reload the serving snapshot, update the
/// gauges. Runs until the server begins draining. An unreachable primary
/// is not an error — the loop keeps retrying while staleness accrues on
/// the clock [`ReplicationState::is_stale`] reads.
pub fn run_sync_loop(
    io: SharedIo,
    cfg: &ReplicaConfig,
    handle: &ServerHandle,
    state: &ReplicationState,
) {
    let mut syncer = Syncer::new(
        io,
        cfg.model_path.clone(),
        cfg.live_dir.clone(),
        cfg.chunk_len,
    );
    let mut source: Option<TcpSyncSource> = None;
    let mut last_logged = String::new();
    while !handle.is_shutting_down() {
        if source.is_none() {
            source = TcpSyncSource::connect(&cfg.primary_addr, cfg.connect_timeout).ok();
        }
        if let Some(src) = source.as_mut() {
            let sync_started = Instant::now();
            match syncer.sync_once(src) {
                Ok(report) => {
                    last_logged.clear();
                    state.note_primary_generation(report.generation);
                    if report.changed() {
                        state.note_sync(sync_started.elapsed(), report.bytes_transferred);
                        match handle.reload(None) {
                            Ok((local_generation, _warnings)) => {
                                state.note_in_sync(report.generation);
                                eprintln!(
                                    "replica: synced primary generation {} ({} bytes) -> serving generation {}",
                                    report.generation,
                                    report.bytes_transferred,
                                    local_generation
                                );
                            }
                            Err(e) => eprintln!(
                                "warning: synced generation {} failed to load ({e}); previous snapshot keeps serving",
                                report.generation
                            ),
                        }
                    } else {
                        state.note_in_sync(report.generation);
                    }
                }
                Err(e) => {
                    // One line per distinct failure, not one per poll.
                    if e != last_logged {
                        eprintln!("warning: sync from {} failed: {e}", cfg.primary_addr);
                        last_logged = e;
                    }
                    source = None;
                }
            }
        }
        // Refresh the stale flag even when unreachable (it logs its own
        // transition), then sleep in short slices so drain stays prompt.
        state.is_stale();
        let mut remaining = cfg.interval;
        while !remaining.is_zero() && !handle.is_shutting_down() {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_state_is_never_stale_and_mirrors_its_generation() {
        let state = ReplicationState::primary();
        assert!(!state.is_stale());
        let s = state.snapshot(9);
        assert_eq!(s.role, ROLE_PRIMARY);
        assert_eq!(s.primary_generation, 9);
        assert_eq!(s.synced_generation, 9);
        assert_eq!(s.lag_generations, 0);
        assert!(!s.stale);
    }

    #[test]
    fn replica_goes_stale_after_the_threshold_and_recovers_on_contact() {
        let state = ReplicationState::replica(Duration::from_millis(40));
        // Fresh replica that has never synced: staleness counts from
        // process start.
        assert!(!state.is_stale());
        std::thread::sleep(Duration::from_millis(60));
        assert!(state.is_stale());
        let s = state.snapshot(1);
        assert!(s.stale);

        state.note_in_sync(4);
        assert!(!state.is_stale());
        let s = state.snapshot(1);
        assert!(!s.stale);
        assert_eq!(s.synced_generation, 4);
        assert_eq!(s.lag_generations, 0);
        assert_eq!(s.lag_seconds, 0);

        // Silence past the threshold flips it back.
        std::thread::sleep(Duration::from_millis(60));
        assert!(state.is_stale());
    }

    #[test]
    fn lag_generations_tracks_polls_that_outpace_installs() {
        let state = ReplicationState::replica(Duration::from_secs(60));
        state.note_in_sync(3);
        state.note_primary_generation(5);
        let s = state.snapshot(1);
        assert_eq!(s.lag_generations, 2);
        assert_eq!(s.primary_generation, 5);
        assert_eq!(s.synced_generation, 3);
    }

    #[test]
    fn sync_counters_accumulate() {
        let state = ReplicationState::replica(Duration::from_secs(60));
        state.note_sync(Duration::from_millis(12), 4096);
        state.note_sync(Duration::from_millis(8), 1024);
        let s = state.snapshot(1);
        assert_eq!(s.syncs, 2);
        assert_eq!(s.last_sync_micros, 8_000);
        assert_eq!(s.last_sync_bytes, 1024);
    }
}
