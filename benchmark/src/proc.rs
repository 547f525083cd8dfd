//! Child processes: every `dj` the harness starts goes through here, so each
//! one is registered for the signal handler, sampled from `/proc/<pid>` while
//! it lives, and reaped on every way out (success, error, panic, timeout,
//! Ctrl-C).
//!
//! Peak memory is read from `/proc/<pid>/status` rather than from
//! `wait4`'s rusage: a spawned child's `ru_maxrss` starts from the
//! parent's own peak, so it would report the harness, not `dj`.

use std::io::{BufRead as _, BufReader, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

// The same zero-dependency idiom as `store::mmap` and `serve::server`: the
// handful of libc calls needed are declared here instead of pulling in a crate.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
    fn sysconf(name: i32) -> i64;
    fn _exit(code: i32) -> !;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Holds the calling thread, and every thread and child it starts from here
/// on, on one CPU; the previous affinity comes back when it is dropped.
///
/// Why: the sequential paths the benchmark times (a client and a server that
/// take turns, one `dj` process after another) gain nothing from a second
/// CPU, but on a small shared host every hand-off to the other vCPU costs
/// whatever the hypervisor and the idle governor make of it at that moment:
/// tens of microseconds, different from one process's life to the next. On one
/// CPU a hand-off is a context switch, which costs the same every time.
pub struct OneCpu {
    previous: Option<CpuSet>,
}

impl OneCpu {
    /// Picks the highest CPU the process may use (the lowest one takes most
    /// of a small VM's interrupts). Where the kernel refuses, nothing is
    /// pinned and the run goes on as it would have.
    pub fn pin() -> OneCpu {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: the mask is a live, writable buffer of the size passed; pid
        // 0 is the calling thread.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
        let Some(word) = allowed.iter().rposition(|w| *w != 0).filter(|_| got == 0) else {
            return OneCpu { previous: None };
        };
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        // SAFETY: as above, read-only.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        OneCpu {
            previous: (set == 0).then_some(allowed),
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            // SAFETY: as in `pin`.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), previous) };
        }
    }
}

/// Pids of live children, for the signal handler (which may only touch
/// atomics). 0 marks a free slot.
static LIVE: [AtomicI32; 8] = [
    AtomicI32::new(0),
    AtomicI32::new(0),
    AtomicI32::new(0),
    AtomicI32::new(0),
    AtomicI32::new(0),
    AtomicI32::new(0),
    AtomicI32::new(0),
    AtomicI32::new(0),
];

extern "C" fn on_signal(_sig: i32) {
    for slot in &LIVE {
        let pid = slot.load(Ordering::SeqCst);
        if pid > 0 {
            // SIGTERM, not SIGKILL: a child may be another `djbench` with
            // children of its own to take down, and `dj serve` drains on it.
            // SAFETY: kill(2) is async-signal-safe and takes plain integers.
            unsafe { kill(pid, SIGTERM) };
        }
    }
    // SAFETY: _exit(2) is async-signal-safe; nothing of the process survives it.
    unsafe { _exit(130) }
}

/// Terminate every registered child and exit when the harness itself is
/// interrupted, so Ctrl-C never leaves a `dj serve` behind.
pub fn install_signal_handlers() {
    for sig in [SIGINT, SIGTERM] {
        // SAFETY: `on_signal` only performs async-signal-safe calls on atomics.
        unsafe { signal(sig, on_signal as *const () as usize) };
    }
}

fn register(pid: u32) {
    for slot in &LIVE {
        if slot
            .compare_exchange(0, pid as i32, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return;
        }
    }
    panic!(
        "more than {} live children: the harness never needs that many",
        LIVE.len()
    );
}

fn unregister(pid: u32) {
    for slot in &LIVE {
        let _ = slot.compare_exchange(pid as i32, 0, Ordering::SeqCst, Ordering::SeqCst);
    }
}

/// A child that is killed and reaped when dropped.
pub struct Proc {
    child: Child,
    reaped: bool,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> Result<Proc, String> {
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
        register(child.id());
        Ok(Proc {
            child,
            reaped: false,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn signal(&self, sig: i32) {
        if !self.reaped {
            // SAFETY: plain integers; the pid is ours and not yet reaped, so
            // it cannot have been recycled.
            unsafe { kill(self.child.id() as i32, sig) };
        }
    }

    /// Block until the child exits; returns its exit code (-1 on a signal).
    pub fn wait(&mut self) -> i32 {
        let status = self.child.wait();
        self.reaped = true;
        unregister(self.child.id());
        status.ok().and_then(|s| s.code()).unwrap_or(-1)
    }

    /// Wait up to `limit`; on expiry the child is killed and `None` returned.
    pub fn wait_timeout(&mut self, limit: Duration) -> Option<i32> {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.reaped = true;
                    unregister(self.child.id());
                    return Some(status.code().unwrap_or(-1));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    self.signal(SIGKILL);
                    self.wait();
                    return None;
                }
            }
        }
    }

    pub fn terminate(&self) {
        self.signal(SIGTERM);
    }

    pub fn kill(&mut self) {
        self.signal(SIGKILL);
        self.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            self.kill();
        }
    }
}

/// One sample of `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Peak resident set so far (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
    /// User + system CPU time so far, seconds.
    pub cpu_s: f64,
    pub threads: u64,
}

fn status_field_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// utime + stime in clock ticks from `/proc/<pid>/stat`. The command name
/// (field 2) may contain spaces, so fields are counted from the last ')'.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state); utime is field 14, stime field 15.
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

pub fn sample(pid: u32) -> Option<ProcSample> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // SAFETY: sysconf takes an integer and returns one.
    let tick = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Some(ProcSample {
        peak_rss_mb: status_field_kb(&status, "VmHWM:")? as f64 / 1024.0,
        cpu_s: stat_cpu_ticks(&stat)? as f64 / tick,
        threads: status_field_kb(&status, "Threads:").unwrap_or(0),
    })
}

/// Peak resident set of the harness itself, MiB.
pub fn own_peak_rss_mb() -> f64 {
    sample(std::process::id()).map_or(0.0, |s| s.peak_rss_mb)
}

/// What one finished stage (one `dj` subprocess run to completion) cost.
#[derive(Debug, Clone, Default)]
pub struct Stage {
    pub wall_s: f64,
    /// Last `/proc` sample before exit; zeros when sampling was off.
    pub last: ProcSample,
    pub stdout: String,
    pub stderr: String,
}

/// Longest any single `dj` stage may run before it is killed.
const STAGE_LIMIT: Duration = Duration::from_secs(150);

/// Run `dj <args>` to completion. With `poll` set, a second thread samples
/// `/proc/<pid>` at that interval while the child lives, so the peak is at
/// most one interval stale; the wall time is exact either way.
pub fn run_stage(dj: &Path, args: &[&str], poll: Option<Duration>) -> Result<Stage, String> {
    let mut cmd = Command::new(dj);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut proc = Proc::spawn(&mut cmd)?;
    let pid = proc.pid();
    let mut out_pipe = proc.child.stdout.take().expect("stdout was piped");
    let mut err_pipe = proc.child.stderr.take().expect("stderr was piped");
    let done = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let (code, wall_s, last, stdout, stderr) = std::thread::scope(|scope| {
        // Samples /proc when asked to, and is the watchdog either way.
        let sampler = scope.spawn(|| {
            let mut last = ProcSample::default();
            while !done.load(Ordering::SeqCst) {
                if poll.is_some() {
                    if let Some(s) = sample(pid) {
                        last = s;
                    }
                }
                if start.elapsed() > STAGE_LIMIT && !timed_out.swap(true, Ordering::SeqCst) {
                    // SAFETY: plain integers; the child is reaped only after
                    // its stdout closed, which this kill is about to cause.
                    unsafe { kill(pid as i32, SIGKILL) };
                }
                // Parked, not asleep, so the end of the stage wakes it at once.
                std::thread::park_timeout(poll.unwrap_or(Duration::from_millis(20)));
            }
            last
        });
        // Drain stderr beside stdout so neither pipe can fill and block `dj`.
        let err_reader = scope.spawn(move || {
            let mut s = String::new();
            let _ = err_pipe.read_to_string(&mut s);
            s
        });
        let mut stdout = String::new();
        let _ = out_pipe.read_to_string(&mut stdout);
        // stdout closes when the process exits, so this wait returns at once
        // and the wall time is not rounded to a polling interval.
        let code = proc.wait();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        sampler.thread().unpark();
        (
            (!timed_out.load(Ordering::SeqCst)).then_some(code),
            wall_s,
            sampler.join().expect("sampler thread"),
            stdout,
            err_reader.join().expect("stderr reader"),
        )
    });
    match code {
        Some(0) => Ok(Stage {
            wall_s,
            last,
            stdout,
            stderr,
        }),
        Some(code) => Err(format!(
            "dj {} exited with {code}: {}",
            args.join(" "),
            stderr.trim()
        )),
        None => Err(format!(
            "dj {} ran past {STAGE_LIMIT:?} and was killed",
            args.join(" ")
        )),
    }
}

/// A running `dj serve`, bound to a port the kernel picked.
pub struct Server {
    proc: Proc,
    pub addr: String,
    /// Spawn to "listening" line.
    pub startup_s: f64,
    stderr_path: PathBuf,
}

impl Server {
    /// Start `dj serve <args> --addr 127.0.0.1:0` and wait for it to listen.
    /// Its stderr goes to a file in `scratch` (a pipe nobody drains would
    /// block the server once full).
    pub fn start(dj: &Path, args: &[&str], scratch: &Path) -> Result<Server, String> {
        let stderr_path = scratch.join(format!("serve-{}.err", unique()));
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
        let mut cmd = Command::new(dj);
        cmd.arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        let start = Instant::now();
        let mut proc = Proc::spawn(&mut cmd)?;
        let stdout = proc.child.stdout.take().expect("stdout was piped");
        // The reader thread ends when the server closes stdout, i.e. exits.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("dj-serve listening on ") {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        return Ok(Server {
                            proc,
                            addr,
                            startup_s: start.elapsed().as_secs_f64(),
                            stderr_path,
                        });
                    }
                }
                Err(_) => {
                    proc.kill();
                    let err = std::fs::read_to_string(&stderr_path).unwrap_or_default();
                    return Err(format!("dj serve never listened: {}", err.trim()));
                }
            }
        }
    }

    pub fn sample(&self) -> ProcSample {
        sample(self.proc.pid()).unwrap_or_default()
    }

    pub fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// SIGTERM, then wait for the drain; returns the exit code, or `None`
    /// when the server had to be killed.
    pub fn stop(mut self) -> Option<i32> {
        self.proc.terminate();
        self.proc.wait_timeout(Duration::from_secs(20))
    }

    /// SIGKILL: the crash a durable store must survive.
    pub fn crash(mut self) {
        self.proc.kill();
    }
}

fn unique() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_files() {
        let status = "Name:\tdj\nVmHWM:\t   20480 kB\nThreads:\t5\n";
        assert_eq!(status_field_kb(status, "VmHWM:"), Some(20480));
        assert_eq!(status_field_kb(status, "Threads:"), Some(5));
        let stat = "42 (dj (serve) x) S 1 42 42 0 -1 4194304 100 0 0 0 17 5 0 0 20 0 5 0 1 2 3";
        assert_eq!(stat_cpu_ticks(stat), Some(22));
    }

    #[test]
    fn samples_a_live_child_and_reaps_it_on_drop() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let proc = Proc::spawn(&mut cmd).unwrap();
        let pid = proc.pid();
        let s = sample(pid).expect("a live child has /proc entries");
        assert!(s.peak_rss_mb > 0.0 && s.threads >= 1, "{s:?}");
        drop(proc);
        assert!(sample(pid).is_none(), "dropped child is gone, not a zombie");
        assert!(own_peak_rss_mb() > 0.0);
    }

    #[test]
    fn a_stage_past_its_limit_is_killed() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let mut proc = Proc::spawn(&mut cmd).unwrap();
        let t = Instant::now();
        assert_eq!(proc.wait_timeout(Duration::from_millis(50)), None);
        assert!(t.elapsed() < Duration::from_secs(5));
    }
}
