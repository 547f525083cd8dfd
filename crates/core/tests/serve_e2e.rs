//! End-to-end server lifecycle tests against the real `dj` binary:
//! burst a saturated server and demand structured sheds, hot reload, drain
//! cleanly on SIGTERM (exit 0), and leave artifacts readable after SIGKILL.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepjoin_serve::{Client, ClientError, ErrorCode};

fn dj() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_dj"));
    c.stdout(Stdio::null()).stderr(Stdio::null());
    c
}

fn run_dj(args: &[&str]) {
    let status = dj().args(args).status().expect("spawn dj");
    assert!(status.success(), "dj {args:?} failed: {status}");
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dj-serve-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn s(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Generate a small lake and train a one-epoch model for it.
fn make_lake_and_model(tmp: &TempDir) -> (PathBuf, PathBuf) {
    let lake = tmp.path("lake");
    let model = tmp.path("m.model");
    run_dj(&["generate", s(&lake), "--tables", "20", "--seed", "3"]);
    run_dj(&[
        "train", s(&lake), s(&model),
        "--epochs", "1", "--threads", "1",
    ]);
    (lake, model)
}

/// Spawn `dj serve` on an OS-assigned port and block until it prints its
/// listening line; returns the child and the bound address.
fn spawn_serve(lake: &Path, model: &Path, extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dj"));
    cmd.args(["serve", s(lake), s(model), "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn dj serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let line = lines
        .next()
        .expect("serve must print its listening line")
        .expect("read listening line");
    let addr = line
        .strip_prefix("dj-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line}"))
        .to_string();
    (child, addr)
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -TERM failed");
}

fn wait_exit(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(
            start.elapsed() < timeout,
            "server did not exit within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn query_cells() -> Vec<String> {
    (0..120).map(|i| format!("value-{i}")).collect()
}

#[test]
fn saturated_server_sheds_structurally_reloads_and_drains_on_sigterm() {
    let tmp = TempDir::new("smoke");
    let (lake, model) = make_lake_and_model(&tmp);
    // One worker, one queue slot: a 16-way burst must overload.
    let (mut child, addr) = spawn_serve(
        &lake,
        &model,
        &["--threads", "1", "--max-inflight", "1", "--deadline-ms", "5000"],
    );

    let mut probe = Client::connect(&addr).expect("connect");
    probe.ping().expect("ping");

    // Burst until we have seen both outcomes: at least one served answer
    // and at least one structured Overloaded shed. Connection resets or
    // other error shapes fail the test.
    let served = Arc::new(AtomicU32::new(0));
    let shed = Arc::new(AtomicU32::new(0));
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut rounds = 0;
    while (served.load(Ordering::SeqCst) == 0 || shed.load(Ordering::SeqCst) == 0)
        && Instant::now() < deadline
    {
        rounds += 1;
        let mut threads = Vec::new();
        for _ in 0..16 {
            let addr = addr.clone();
            let served = served.clone();
            let shed = shed.clone();
            threads.push(std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                match c.query("burst", &query_cells(), 5) {
                    Ok(reply) => {
                        assert!(!reply.hits.is_empty());
                        served.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ClientError::Server(e)) => {
                        assert_eq!(
                            e.code,
                            ErrorCode::Overloaded,
                            "under burst, the only acceptable failure is a shed: {e}"
                        );
                        shed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("non-structured failure under burst: {other}"),
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
    }
    assert!(
        served.load(Ordering::SeqCst) > 0,
        "no query was ever served in {rounds} burst rounds"
    );
    assert!(
        shed.load(Ordering::SeqCst) > 0,
        "16-way bursts against --max-inflight 1 never shed in {rounds} rounds"
    );

    // The shed counter is visible to operators.
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.shed as u32, shed.load(Ordering::SeqCst));
    assert_eq!(stats.generation, 1);

    // Hot reload via the ctl subcommand (exercises the real client path).
    let out = Command::new(env!("CARGO_BIN_EXE_dj"))
        .args(["ctl", &addr, "reload"])
        .output()
        .expect("dj ctl reload");
    assert!(out.status.success(), "ctl reload failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("generation 2"),
        "reload must bump the generation: {stdout}"
    );

    // The query subcommand sees the new generation.
    let out = Command::new(env!("CARGO_BIN_EXE_dj"))
        .args(["query", &addr, "--cells", "alpha,beta,gamma", "--k", "3"])
        .output()
        .expect("dj query");
    assert!(out.status.success(), "dj query failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("generation 2"), "{stdout}");

    // SIGTERM: graceful drain, exit code 0.
    sigterm(&child);
    let status = wait_exit(&mut child, Duration::from_secs(30));
    assert!(
        status.success(),
        "SIGTERM must drain and exit 0, got {status}"
    );
}

#[test]
fn sigkill_leaves_artifacts_readable_and_server_restartable() {
    let tmp = TempDir::new("sigkill");
    let (lake, model) = make_lake_and_model(&tmp);
    let (mut child, addr) = spawn_serve(&lake, &model, &["--threads", "1"]);

    // Put at least one query through so the server has touched everything.
    let mut c = Client::connect(&addr).expect("connect");
    c.query("probe", &["a".to_string(), "b".to_string()], 3)
        .expect("query before kill");

    // SIGKILL: no cleanup of any kind.
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // The artifacts the server was reading must be intact (the server
    // never writes them), provable by the ordinary tools...
    run_dj(&["info", s(&model)]);
    run_dj(&["search", s(&lake), s(&model), "--k", "3"]);

    // A file of the wrong kind is one located error line naming it: a lake
    // where a model belongs, and the two swapped on `serve`.
    for (args, named) in [
        (vec!["info", s(&lake)], &lake),
        (vec!["serve", s(&model), s(&lake), "--addr", "127.0.0.1:0"], &model),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dj"))
            .args(&args)
            .output()
            .expect("spawn dj");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "dj {args:?} must fail");
        assert_eq!(stderr.lines().count(), 1, "dj {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(s(named)),
            "dj {args:?}: {stderr}"
        );
    }

    // ...and a fresh server starts over the same files.
    let (mut child2, addr2) = spawn_serve(&lake, &model, &["--threads", "1"]);
    let mut c2 = Client::connect(&addr2).expect("reconnect");
    c2.ping().expect("ping after restart");
    sigterm(&child2);
    let status = wait_exit(&mut child2, Duration::from_secs(30));
    assert!(status.success());
}

#[test]
fn deadline_saturation_answers_every_request_promptly() {
    let tmp = TempDir::new("deadline");
    let (lake, model) = make_lake_and_model(&tmp);
    let (mut child, addr) = spawn_serve(
        &lake,
        &model,
        &["--threads", "1", "--max-inflight", "2", "--deadline-ms", "50"],
    );

    // Saturate from 8 threads; every single request must resolve quickly —
    // served (complete or partial), shed, or deadline-expired — and no
    // request may hang past a generous multiple of the deadline.
    let mut threads = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            for _ in 0..5 {
                let start = Instant::now();
                let result = c.query("saturate", &query_cells(), 5);
                let took = start.elapsed();
                assert!(
                    took < Duration::from_secs(10),
                    "request took {took:?} under a 50 ms deadline"
                );
                match result {
                    Ok(_) => {}
                    Err(ClientError::Server(e)) => assert!(
                        matches!(
                            e.code,
                            ErrorCode::Overloaded | ErrorCode::DeadlineExceeded
                        ),
                        "unexpected structured error under saturation: {e}"
                    ),
                    Err(other) => panic!("non-structured failure: {other}"),
                }
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }

    sigterm(&child);
    let status = wait_exit(&mut child, Duration::from_secs(30));
    assert!(status.success());
}
