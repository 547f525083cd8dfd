//! `djbench`: one harness over the real `dj` pipeline.
//!
//! End-to-end numbers come only through the `dj` binary and the TCP wire
//! (or, for `lib_search`, through `load_model_path` + `DeepJoin::search`);
//! per-layer numbers come from a separate traced run. See `README.md`.
//!
//! ```text
//! djbench driver  --workload W --seed N --seconds S --trace 0|1   one run, result as the last stdout line
//! djbench run     [--seed N] [--workload W] [--runs R]             every workload untraced, gates enforced
//! djbench trace   [--seed N] [--workload W]                        every workload traced, per-layer metrics
//! djbench quick                                                    small smoke run of both modes
//! djbench repeat  [--seed N]                                       two full sets must agree within the bounds
//! djbench compare <a.json> <b.json>                                one row per (metric, workload)
//! ```

mod harness;
mod json;
mod layers;
mod load;
mod proc;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::Ctx;
use workloads::WORKLOADS;

/// Defaults of the benchmark's one scale: a lake of 2000 tables (2000
/// searchable columns), built three times per run, twelve measured seconds.
const DEFAULT_TABLES: usize = 2000;
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SETUPS: usize = 3;

struct Args {
    seed: u64,
    seconds: f64,
    tables: usize,
    setups: usize,
    runs: usize,
    workload: Option<String>,
    trace: bool,
    /// Internal, set by `run` / `trace` on the runs they start: write the
    /// run's full report here instead of printing the driver's result line.
    report: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        tables: DEFAULT_TABLES,
        setups: DEFAULT_SETUPS,
        runs: 1,
        workload: None,
        trace: false,
        report: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, raw: String) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("{name}: '{raw}' is not a valid number"))
        }
        match arg.as_str() {
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = num("--seconds", value("--seconds")?)?,
            "--tables" => args.tables = num("--tables", value("--tables")?)?,
            "--setups" => args.setups = num("--setups", value("--setups")?)?,
            "--runs" => args.runs = num("--runs", value("--runs")?)?,
            "--workload" => args.workload = Some(value("--workload")?),
            "--trace" => args.trace = num::<u8>("--trace", value("--trace")?)? != 0,
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be between 1 and 120, got {}",
            args.seconds
        ));
    }
    if args.tables < 300 || args.setups == 0 || args.runs == 0 {
        return Err("--tables must be at least 300, --setups and --runs at least 1".to_string());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload '{w}': one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Where things live, relative to the directory the command runs in (the
/// root of the checkout): `dj` sits beside this executable, scratch and
/// results go under `benchmark/out`.
struct Env {
    dj: PathBuf,
    out: PathBuf,
}

fn env() -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dj = exe.with_file_name("dj");
    if !dj.is_file() {
        return Err(format!(
            "{} not found: build it with benchmark/run.sh",
            dj.display()
        ));
    }
    let out = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("mkdir {}: {e}", out.display()))?;
    Ok(Env { dj, out })
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

/// `driver`: the contract of `BENCHMARK.json`. One workload, one run, in
/// this process; the result object is the last line of stdout. The scratch
/// directory goes away on success and stays for inspection on failure.
fn cmd_driver(args: &Args) -> Result<ExitCode, String> {
    if args.workload.is_none() {
        return Err("driver needs --workload".to_string());
    }
    let workload = selected(args)[0];
    let env = env()?;
    let ctx = Ctx {
        workload,
        dj: env.dj.clone(),
        out: env.out.clone(),
        seed: args.seed,
        seconds: args.seconds,
        tables: args.tables,
        trace: args.trace,
        setups: args.setups,
        started: Instant::now(),
    };
    let scratch = ctx.scratch();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir {}: {e}", scratch.display()))?;
    let outcome = workloads::run(&ctx)?;
    let _ = std::fs::remove_dir_all(&scratch);
    match &args.report {
        Some(path) => {
            report::print_outcome(&outcome, args.trace, true);
            let text = report::workload_report(&outcome, args.trace).encode();
            std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        None => {
            report::print_outcome(&outcome, args.trace, false);
            println!("{}", report::driver_line(&outcome, args.trace).encode());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// One run of one workload in a process of its own: exactly what the driver
/// starts, plus `--report`. Peak memory, thread counts and allocator state
/// are then that run's alone, whatever ran before it.
fn run_in_child(
    env: &Env,
    args: &Args,
    workload: &str,
    trace: bool,
) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let report = env
        .out
        .join(format!("report-{}-{workload}.json", std::process::id()));
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("driver")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--tables", &args.tables.to_string()])
        .args(["--setups", &args.setups.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--report")
        .arg(&report);
    let code = proc::Proc::spawn(&mut cmd)?.wait();
    if code != 0 {
        return Err(format!("the {workload} run exited with {code}"));
    }
    let text =
        std::fs::read_to_string(&report).map_err(|e| format!("read {}: {e}", report.display()))?;
    let _ = std::fs::remove_file(&report);
    json::parse(&text).map_err(|e| format!("{}: {e}", report.display()))
}

/// `run` / `trace`: every selected workload, `--runs` times, one result file.
/// Returns whether every gate passed (calibration gates only when `strict`).
fn cmd_set(args: &Args, trace: bool, strict: bool) -> Result<(bool, PathBuf), String> {
    let env = env()?;
    let mut workloads = Vec::new();
    let mut ok = true;
    for workload in selected(args) {
        let mut merged = run_in_child(&env, args, workload, trace)?;
        for _ in 1..args.runs {
            report::merge_runs(&mut merged, run_in_child(&env, args, workload, trace)?);
        }
        let verdict = merged.get(if strict { "calibrated" } else { "correct" });
        ok &= verdict == Some(&json::Value::Bool(true));
        workloads.push(merged);
    }
    let mode = if trace { "trace" } else { "run" };
    let file = report::write_result_file(
        &env.out,
        &env.dj,
        mode,
        args.seed,
        args.tables,
        args.seconds,
        workloads,
    )?;
    eprintln!("result file: {}", file.display());
    if !ok {
        eprintln!("FAILED: at least one gate did not pass (see the gate lines above)");
    }
    Ok((ok, file))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repeat`: two full sets of the same commit; every (end-to-end metric,
/// workload) pair must agree within its bound.
fn cmd_repeat(args: &Args) -> Result<ExitCode, String> {
    let (first_ok, first) = cmd_set(args, false, true)?;
    let (second_ok, second) = cmd_set(args, false, true)?;
    let agree = report::compare_files(&first, &second)?;
    if !agree {
        eprintln!("FAILED: the two sets differ by more than a bound");
    }
    Ok(exit_code(agree && first_ok && second_ok))
}

fn main() -> ExitCode {
    proc::install_signal_handlers();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!(
            "usage: djbench driver|run|trace|quick|repeat|compare ... (see benchmark/README.md)"
        );
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|mut args| match cmd.as_str() {
        "driver" => cmd_driver(&args),
        "run" => cmd_set(&args, false, true).map(|r| exit_code(r.0)),
        "trace" => cmd_set(&args, true, true).map(|r| exit_code(r.0)),
        "quick" => {
            // Smoke scale: too small and too short for the staircase to
            // mean anything, so calibration gates only warn.
            args.tables = 600;
            args.seconds = 3.0;
            args.setups = 1;
            let run = cmd_set(&args, false, false)?.0;
            let trace = cmd_set(&args, true, false)?.0;
            Ok(exit_code(run && trace))
        }
        "repeat" => cmd_repeat(&args),
        "compare" => match args.positional.as_slice() {
            [a, b] => report::compare_files(&PathBuf::from(a), &PathBuf::from(b))
                .map(|_| ExitCode::SUCCESS),
            _ => Err("compare needs two result files".to_string()),
        },
        other => Err(format!("unknown command '{other}'")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
