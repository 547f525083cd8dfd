//! Connection churn: thousands of short-lived connections must leave the
//! server exactly as they found it. The only test in this file, so the
//! process-wide descriptor and thread counts (read from procfs) belong to
//! it alone.
#![cfg(target_os = "linux")]

use std::thread;
use std::time::{Duration, Instant};

use deepjoin_ann::Budget;
use deepjoin_serve::{
    Client, Health, Hit, LoadedSnapshot, QueryOutcome, ServeModel, Server, ServerConfig,
};

struct OneHit;

impl ServeModel for OneHit {
    fn indexed_len(&self) -> usize {
        1
    }

    fn health(&self) -> Health {
        Health::Hnsw
    }

    fn query(&self, _cells: &[String], name: &str, _k: usize, _budget: &Budget) -> QueryOutcome {
        QueryOutcome {
            hits: vec![Hit {
                id: 0,
                score: 0.0,
                label: name.to_string(),
            }],
            complete: true,
            visited: 1,
            via_fallback: false,
        }
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("Threads: line");
    line["Threads:".len()..]
        .trim()
        .parse()
        .expect("thread count")
}

/// The server's connection thread outlives the client's close by a moment:
/// wait for a count to come back rather than guess how long that is.
fn settles_to<T: PartialEq + std::fmt::Debug>(what: &str, want: T, read: impl Fn() -> T) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while read() != want && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(read(), want, "{what}");
}

#[test]
fn two_thousand_one_shot_connections_leak_nothing() {
    let server = Server::start(
        ServerConfig::default(),
        Box::new(|_| {
            Ok(LoadedSnapshot {
                model: Box::new(OneHit),
                warnings: vec![],
            })
        }),
    )
    .expect("server start");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("server run"));

    let one_shot = |i: usize| {
        let name = format!("q{i}");
        let reply = Client::connect(addr)
            .unwrap()
            .query(&name, &["x".to_string()], 1)
            .unwrap_or_else(|e| panic!("connection {i} went unanswered: {e}"));
        assert_eq!(reply.hits[0].label, name);
    };
    one_shot(0); // warm-up: workers and the accept loop are up
    settles_to("open connections", 0, || handle.open_connections());
    // The connection count drops a moment before the warm-up's thread is
    // gone; let it go before taking the baseline.
    thread::sleep(Duration::from_millis(50));
    let (fds, thr) = (open_fds(), threads());
    for i in 1..=2000 {
        one_shot(i);
    }
    assert_eq!(handle.stats().accepted, 2001);
    settles_to("open connections", 0, || handle.open_connections());
    settles_to("open descriptors", fds, open_fds);
    settles_to("threads", thr, threads);

    handle.shutdown();
    join.join().expect("server thread");
}
