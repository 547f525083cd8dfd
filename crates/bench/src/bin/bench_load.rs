//! `bench_load` — artifact cold-start and hot-reload benchmark.
//!
//! Measures what the mmap-backed aligned layout buys at serve startup, on
//! a production-shaped artifact (default 200k x 128d, every section
//! present: model core, f32 vector plane, SQ8 plane, HNSW graph):
//!
//! * **v2-heap** — the container read and decoded onto the heap
//!   (`load_model`, the reference twin of the mapped loader);
//! * **v2-mmap first open** — the container mapped zero-copy with the full
//!   per-section CRC sweep (no `.stamp` sidecar yet);
//! * **v2-mmap restart** — the same open with the sidecar present: the
//!   stamp-trusted remap path a serve restart over an unchanged artifact
//!   takes. This is the headline `cold_s_v2_mmap` number.
//!
//! Each mode runs in a **child process** so peak RSS (`VmHWM`) is per-mode
//! and every load starts from a fresh address space. The page cache stays
//! warm across modes — that is the serve-restart scenario the bench
//! models, and it favors no mode (all modes read the same bytes). The
//! restart child also reloads the artifact a second time in-process: the
//! in-process remap path hot reload takes, reported as `hot_reload_ms`.
//!
//! Emits a JSON report (schema `bench_load/v2`, default `BENCH_load.json`).
//! Run via `scripts/bench.sh load`.
//!
//! ```text
//! bench_load [--quick] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use deepjoin::model::DeepJoin;
use deepjoin::persist::{load_model, load_model_path, save_model};

struct Scenario {
    n: usize,
    dim: usize,
    nq: usize,
    k: usize,
}

impl Scenario {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                n: 10_000,
                dim: 32,
                nq: 8,
                k: 10,
            }
        } else {
            // ~102 MB of f32 vectors plus the SQ8 plane and graph: big
            // enough that heap decode cost (allocate + copy + rebuild) is
            // unmistakable against the O(sections) mmap path.
            Self {
                n: 200_000,
                dim: 128,
                nq: 8,
                k: 10,
            }
        }
    }
}

/// Peak resident set of this process in KiB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Child mode: load the artifact once (timed) — read onto the heap, or
/// mapped — optionally reload it (the stamp-validated remap path), run a
/// few sanity queries, and print a single JSON line for the parent to parse.
fn run_child(path: &Path, heap: bool, reload: bool, sc: &Scenario) {
    let started = Instant::now();
    let loaded = if heap {
        load_model(&std::fs::read(path).expect("child read")).expect("child heap load")
    } else {
        load_model_path(path).expect("child load")
    };
    let cold_s = started.elapsed().as_secs_f64();

    let hot_ms = if reload {
        let t = Instant::now();
        let again = load_model_path(path).expect("child reload");
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(again.model.indexed_len(), loaded.model.indexed_len());
        ms
    } else {
        -1.0
    };

    // A few queries so a load that returned a broken index cannot report
    // a (meaningless) fast time.
    let mut hits = 0usize;
    for qi in 0..sc.nq {
        let q: Vec<f32> = (0..sc.dim)
            .map(|d| ((qi * 31 + d * 7) % 13) as f32 / 13.0 - 0.5)
            .collect();
        hits += loaded.model.search_embedded(&q, sc.k).len();
    }
    assert!(hits > 0, "loaded index answered no queries");

    println!(
        "{{ \"cold_s\": {:.6}, \"hot_ms\": {:.3}, \"vmhwm_kb\": {}, \"indexed\": {} }}",
        cold_s,
        hot_ms,
        peak_rss_kb(),
        loaded.model.indexed_len()
    );
}

/// Extract `"key": <number>` from the child's one-line JSON.
fn field(json: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let at = json.find(&tag).unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + tag.len()..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} in {json}"));
    rest[..end].trim().parse().expect("child JSON number")
}

struct ModeResult {
    cold_s: f64,
    hot_ms: f64,
    vmhwm_kb: u64,
}

/// Run one mode in a child process.
fn run_mode(path: &Path, heap: bool, reload: bool, sc: &Scenario) -> ModeResult {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--child")
        .arg(path)
        .arg(if sc.n >= 100_000 { "--full-shape" } else { "--quick" });
    if heap {
        cmd.arg("--heap");
    }
    if reload {
        cmd.arg("--reload");
    }
    let out = cmd.output().expect("spawn child");
    assert!(
        out.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).expect("child stdout");
    ModeResult {
        cold_s: field(&json, "cold_s"),
        hot_ms: field(&json, "hot_ms"),
        vmhwm_kb: field(&json, "vmhwm_kb") as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");

    if let Some(i) = args.iter().position(|a| a == "--child") {
        let path = PathBuf::from(args.get(i + 1).expect("--child PATH"));
        let sc = Scenario::new(!args.iter().any(|a| a == "--full-shape"));
        let has = |flag: &str| args.iter().any(|a| a == flag);
        run_child(&path, has("--heap"), has("--reload"), &sc);
        return;
    }

    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_load.json".to_string());

    let sc = Scenario::new(quick);
    eprintln!(
        "bench_load: n={} dim={} ({})",
        sc.n,
        sc.dim,
        if quick { "quick" } else { "full" }
    );

    let mut model = DeepJoin::synthetic(sc.n, sc.dim, 0xB0A7);
    assert!(model.quantize_sq8(), "synthetic model must quantize");

    let dir = std::env::temp_dir().join(format!("dj-bench-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let v2_path = dir.join("model-v2.djar");
    let v2_bytes = save_model(&model, true);
    // sync_all so background writeback of the artifact just written cannot
    // stall the timed loads (one-CPU machines feel this hard).
    std::fs::write(&v2_path, &v2_bytes).expect("write artifact");
    std::fs::File::open(&v2_path)
        .and_then(|f| f.sync_all())
        .expect("sync artifact");
    eprintln!("artifact: {} bytes", v2_bytes.len());
    drop(model);

    // Warm the page cache identically for every mode before timing.
    std::hint::black_box(std::fs::read(&v2_path).unwrap().len());

    let v2_heap = run_mode(&v2_path, true, false, &sc);
    // First mapped open: full CRC sweep, leaves the .stamp sidecar behind.
    let v2_first = run_mode(&v2_path, false, false, &sc);
    let sidecar = dir.join("model-v2.djar.stamp");
    assert!(sidecar.exists(), "first mapped open must write the stamp sidecar");
    // Restart: a fresh process trusting the sidecar — the headline number.
    let v2_mmap = run_mode(&v2_path, false, true, &sc);

    let speedup = v2_heap.cold_s / v2_mmap.cold_s;

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"schema\": \"bench_load/v2\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"corpus\": {{ \"n\": {n}, \"dim\": {dim}, \"nq\": {nq}, \"k\": {k} }},\n",
            "  \"threads\": 1,\n",
            "  \"artifact_v2_bytes\": {v2b},\n",
            "  \"cold_s_v2_heap\": {c2:.4},\n",
            "  \"first_open_s_v2_mmap\": {c0:.4},\n",
            "  \"cold_s_v2_mmap\": {c3:.4},\n",
            "  \"peak_rss_kb_v2_heap\": {r2},\n",
            "  \"peak_rss_kb_v2_mmap\": {r3},\n",
            "  \"cold_speedup_v2_mmap_vs_v2_heap\": {su:.2},\n",
            "  \"hot_reload_ms\": {hot:.3}\n",
            "}}\n"
        ),
        mode = if quick { "quick" } else { "full" },
        n = sc.n,
        dim = sc.dim,
        nq = sc.nq,
        k = sc.k,
        v2b = v2_bytes.len(),
        c2 = v2_heap.cold_s,
        c0 = v2_first.cold_s,
        c3 = v2_mmap.cold_s,
        r2 = v2_heap.vmhwm_kb,
        r3 = v2_mmap.vmhwm_kb,
        su = speedup,
        hot = v2_mmap.hot_ms,
    );
    std::fs::write(&out_path, &json).expect("write report");
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "cold start: v2-heap {:.3}s, v2-mmap first {:.3}s, \
         v2-mmap restart {:.3}s ({speedup:.1}x); \
         hot remap {:.2} ms; peak RSS {} / {} MB",
        v2_heap.cold_s,
        v2_first.cold_s,
        v2_mmap.cold_s,
        v2_mmap.hot_ms,
        v2_heap.vmhwm_kb / 1024,
        v2_mmap.vmhwm_kb / 1024,
    );
    println!("wrote {out_path}");
}
