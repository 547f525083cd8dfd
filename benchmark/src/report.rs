//! What leaves the harness: the metric listing, the driver's result line, the
//! result file with its host fingerprint, and the comparison of two files.

use std::path::{Path, PathBuf};

use crate::harness::{Metric, Outcome, END_TO_END};
use crate::json::{self, Value};
use crate::layers;
use crate::stats;

/// Every metric by name with its unit, the gates, and the request counts.
/// `to_stdout` is false in driver mode, where stdout carries the result line.
pub fn print_outcome(outcome: &Outcome, trace: bool, to_stdout: bool) {
    let mut text = format!(
        "== {} ({}) ==\n",
        outcome.workload,
        if trace { "traced" } else { "untraced" }
    );
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        text.push_str(&format!(
            "  {:<36} {:>16.6} {:<6} n={}\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    for p in &outcome.phases {
        text.push_str(&format!(
            "  phase {:<34} sent {} succeeded {} failed {}\n",
            p.name, p.sent, p.succeeded, p.failed
        ));
    }
    for g in &outcome.gates {
        let verdict = match (g.pass, g.calibration) {
            (true, _) => "pass",
            (false, false) => "FAIL",
            (false, true) => "FAIL (calibration)",
        };
        text.push_str(&format!("  gate {:<35} {verdict}: {}\n", g.name, g.detail));
    }
    if to_stdout {
        print!("{text}");
    } else {
        eprint!("{text}");
    }
}

fn metrics_object(metrics: &[Metric]) -> Value {
    let mut obj = Value::obj();
    for m in metrics {
        let mut v = Value::obj();
        v.set("value", m.value).set("unit", m.unit);
        obj.set(m.name, v);
    }
    obj
}

/// The object the driver reads from the last line of stdout.
pub fn driver_line(outcome: &Outcome, trace: bool) -> Value {
    let mut line = Value::obj();
    line.set("correct", outcome.correct(false))
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set(
            "metrics",
            metrics_object(if trace {
                &outcome.per_layer
            } else {
                &outcome.end_to_end
            }),
        );
    line
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the numbers were measured on and with.
fn host_fingerprint(dj: &Path, seed: u64, tables: usize, seconds: f64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_default();
    let mut host = Value::obj();
    host.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
    )
    .set("cpu_model", cpu_model)
    .set("kernel", kernel)
    .set("simd_kernel", layers::simd_active_kernel())
    .set(
        "dj_fnv64",
        format!("{:016x}", std::fs::read(dj).map_or(0, |b| fnv64(&b))),
    )
    .set("seed", seed)
    .set("tables", tables as u64)
    .set("seconds", seconds);
    host
}

/// Metrics of one run as `{name: {unit, values: [v], samples}}`; runs of the
/// same workload are merged by appending to `values`, so a later `compare`
/// can tell a spread from a shift.
fn metrics_with_values(metrics: &[Metric]) -> Value {
    let mut obj = Value::obj();
    for m in metrics {
        let mut v = Value::obj();
        v.set("unit", m.unit)
            .set("values", vec![Value::Num(m.value)])
            .set("samples", m.samples);
        obj.set(m.name, v);
    }
    obj
}

/// Everything one run of one workload produced, as it appears under
/// `workloads` in a result file. `run` and `trace` run each workload in a
/// process of its own (so that peak memory and thread counts are that
/// workload's alone) and collect these.
pub fn workload_report(outcome: &Outcome, trace: bool) -> Value {
    let gates: Vec<Value> = outcome
        .gates
        .iter()
        .map(|g| {
            let mut v = Value::obj();
            v.set("name", g.name)
                .set("pass", g.pass)
                .set("calibration", g.calibration)
                .set("detail", g.detail.as_str());
            v
        })
        .collect();
    let phases: Vec<Value> = outcome
        .phases
        .iter()
        .map(|p| {
            let mut v = Value::obj();
            v.set("name", p.name.as_str())
                .set("sent", p.sent)
                .set("succeeded", p.succeeded)
                .set("failed", p.failed);
            v
        })
        .collect();
    let mut w = Value::obj();
    w.set("name", outcome.workload)
        .set("runs", 1u64)
        .set("correct", outcome.correct(false))
        .set("calibrated", outcome.correct(true))
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("gates", gates)
        .set("phases", phases)
        .set("end_to_end", metrics_with_values(&outcome.end_to_end));
    if trace {
        w.set("per_layer", metrics_with_values(&outcome.per_layer));
    }
    w
}

/// Fold a later run of the same workload into `into`: metric values are
/// appended, verdicts and-ed, gates / phases / counts taken from the later run.
pub fn merge_runs(into: &mut Value, later: Value) {
    let Value::Obj(fields) = into else { return };
    for (key, value) in fields.iter_mut() {
        let Some(new) = later.get(key) else { continue };
        match (key.as_str(), &mut *value, new) {
            ("runs", Value::Num(a), Value::Num(b)) => *a += b,
            ("correct" | "calibrated", Value::Bool(a), Value::Bool(b)) => *a &= b,
            ("end_to_end" | "per_layer", Value::Obj(metrics), _) => {
                for (name, metric) in metrics.iter_mut() {
                    let more = new
                        .get(name)
                        .and_then(|m| m.get("values"))
                        .map(Value::as_arr);
                    if let (Value::Obj(parts), Some(more)) = (metric, more) {
                        for (part, v) in parts.iter_mut() {
                            if let ("values", Value::Arr(values)) = (part.as_str(), v) {
                                values.extend_from_slice(more);
                            }
                        }
                    }
                }
            }
            _ => *value = new.clone(),
        }
    }
}

/// One JSON result file per invocation under `benchmark/out`.
pub fn write_result_file(
    out: &Path,
    dj: &Path,
    mode: &str,
    seed: u64,
    tables: usize,
    seconds: f64,
    workloads: Vec<Value>,
) -> Result<PathBuf, String> {
    let mut doc = Value::obj();
    doc.set("schema", "dj-benchmark/v1")
        .set("mode", mode)
        .set("host", host_fingerprint(dj, seed, tables, seconds))
        .set("workloads", workloads);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = out.join(format!("result-{mode}-seed{seed}-{stamp}.json"));
    std::fs::write(&path, doc.encode() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Bound of every end-to-end metric, from `BENCHMARK.json` in the current
/// directory (the root of the checkout).
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(doc
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of one side is wider than the bound: the pair
    /// cannot tell a shift from noise.
    Unresolved,
}

/// Judge one (metric, workload) pair. `change` is relative to `base`, signed
/// so that positive is worse.
pub fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (a, b) = (stats::median_of(base), stats::median_of(new));
    let worse = if a == 0.0 {
        0.0
    } else if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let verdict = if too_wide(base) || too_wide(new) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

/// Quartile spread with four or more runs, full range over the median with
/// two or three, unknown with one.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() >= 4 {
        return stats::quartile_spread(values);
    }
    let m = stats::median_of(values);
    (values.len() >= 2 && m != 0.0).then(|| {
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        (hi - lo) / m.abs()
    })
}

fn load_result(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// Print one row per (end-to-end metric, workload) of two result files.
/// Returns false when any pair regressed or could not be resolved.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (doc_a, doc_b) = (load_result(a)?, load_result(b)?);
    let bounds = bounds()?;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    );
    let mut ok = true;
    for wa in doc_a
        .get("workloads")
        .map(Value::as_arr)
        .unwrap_or_default()
    {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("");
        let Some(wb) = doc_b
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        for &(metric, _, higher) in &END_TO_END {
            let (va, vb) = (values_of(wa, metric), values_of(wb, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map_or(0.1, |(_, b)| *b);
            let (verdict, worse) = judge(&va, &vb, higher, bound);
            ok &= matches!(verdict, Verdict::Unchanged | Verdict::Improved);
            println!(
                "{name:<16} {metric:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {verdict:?}",
                stats::median_of(&va),
                stats::median_of(&vb),
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::PER_LAYER;
    use crate::workloads::WORKLOADS;

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        // Same medians, but the second side's runs scatter by 40 %.
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&steady, &steady, false, 0.1).0, Verdict::Unchanged);
        assert_eq!(judge(&steady, &noisy, false, 0.1).0, Verdict::Unresolved);
        // A shift beyond the bound, in the direction that is worse.
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(judge(&steady, &slower, false, 0.1).0, Verdict::Regressed);
        assert_eq!(judge(&steady, &slower, true, 0.1).0, Verdict::Improved);
        // One run a side has no spread to speak of; the medians decide.
        assert_eq!(judge(&[10.0], &[10.5], false, 0.1).0, Verdict::Unchanged);
        assert_eq!(
            judge(&[10.0], &[11.5], false, 0.1),
            (Verdict::Regressed, 0.15)
        );
    }

    #[test]
    fn merging_runs_appends_values_and_ands_verdicts() {
        let run = |value: f64, correct: bool| {
            let mut m = Value::obj();
            m.set("unit", "ms")
                .set("values", vec![Value::Num(value)])
                .set("samples", 5u64);
            let mut e2e = Value::obj();
            e2e.set("query_p50_ms", m);
            let mut w = Value::obj();
            w.set("name", "lib_search")
                .set("runs", 1u64)
                .set("correct", correct)
                .set("attempted", value as u64)
                .set("end_to_end", e2e);
            w
        };
        let mut all = run(1.5, true);
        merge_runs(&mut all, run(2.5, false));
        merge_runs(&mut all, run(3.5, true));
        assert_eq!(all.get("runs").unwrap().as_f64(), Some(3.0));
        assert_eq!(all.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(all.get("attempted").unwrap().as_f64(), Some(3.0));
        assert_eq!(values_of(&all, "query_p50_ms"), vec![1.5, 2.5, 3.5]);
    }

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
            .collect()
    }

    /// The names a run prints and the names `BENCHMARK.json` declares are the
    /// same sets, in the same order, with the same units and directions.
    #[test]
    fn benchmark_json_declares_exactly_what_a_run_reports() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.map(|(n, _)| n.to_string())
        );
        assert_eq!(
            names(&doc, "end_to_end"),
            END_TO_END.map(|(n, _, _)| n.to_string())
        );
        assert_eq!(
            names(&doc, "per_layer"),
            PER_LAYER
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        );
        for (declared, &(name, unit, higher)) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(declared.get("unit").unwrap().as_str(), Some(unit), "{name}");
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(
                declared.get("better").unwrap().as_str(),
                Some(better),
                "{name}"
            );
            let bound = declared.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
        }
        for (declared, (name, unit)) in doc.get("per_layer").unwrap().as_arr().iter().zip(PER_LAYER)
        {
            assert_eq!(
                declared.get("unit").unwrap().as_str(),
                Some(*unit),
                "{name}"
            );
        }
        assert_eq!(
            doc.get("paths").unwrap().as_arr(),
            [Value::Str("benchmark".to_string())]
        );
    }

    /// The result line a driver run prints carries exactly the declared names.
    #[test]
    fn metric_names_follow_the_contract() {
        let ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(WORKLOADS.iter().map(|w| w.0));
        assert!(
            all.iter().all(|n| ok(n)),
            "a name breaks the contract's alphabet"
        );
        let unique: std::collections::HashSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && WORKLOADS.len() <= 8);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    /// `dj` is built through this package's workspace, so its release profile
    /// must stay the one the repository builds `dj` with.
    #[test]
    fn release_profile_matches_the_repository() {
        let profile = |manifest: &str| {
            let text = std::fs::read_to_string(manifest).unwrap();
            text.split("[profile.release]")
                .nth(1)
                .map(|rest| {
                    rest.lines()
                        .skip(1)
                        .take_while(|l| !l.starts_with('['))
                        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
                        .map(|l| l.trim().to_string())
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default()
        };
        let here = env!("CARGO_MANIFEST_DIR");
        assert_eq!(
            profile(&format!("{here}/Cargo.toml")),
            profile(&format!("{here}/../Cargo.toml"))
        );
    }
}
