//! The four workloads. Each builds the artifact through the real binary,
//! runs its timed window, judges the answers and returns an `Outcome`.

pub mod lib_search;
pub mod live_mixed;
pub mod serve_closed;
pub mod serve_overload;
mod serving;

use crate::harness::{Ctx, Outcome};

/// Name and the one-line reason each workload exists (also in
/// `BENCHMARK.json` and the README).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lib_search",
        "no server: in-process DeepJoin::search, 1 thread (the paper's Table 13-15 measurement: encoder + ANN are all of the time), then one-shot dj search processes",
    ),
    (
        "serve_closed",
        "same queries through dj serve over TCP, closed loop: the difference to lib_search is the serving stack",
    ),
    (
        "serve_overload",
        "open-loop staircase past one worker's capacity: the only workload with a queue (admission, fairness, waves, brownout)",
    ),
    (
        "live_mixed",
        "queries beside an open-loop writer on a live lake: WAL, memtable, segments, tombstones, flush and compaction stalls",
    ),
];

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload {
        "lib_search" => lib_search::run(ctx),
        "serve_closed" => serve_closed::run(ctx),
        "serve_overload" => serve_overload::run(ctx),
        "live_mixed" => live_mixed::run(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }
}
