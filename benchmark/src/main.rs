//! The repo's benchmark. One binary, three ways in:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and ends its stdout with one JSON result line (what the
//!   driver and the suite call);
//! - with no `--workload`, the suite: every workload in its own child
//!   process, once plain (40 timed ops, unless `--seconds` is given) and
//!   once traced, every metric printed by name with its unit, results
//!   written to `<out>/results.json`;
//! - `--compare A B` reads two result sets and prints a verdict per
//!   (metric, workload).
//!
//! `README.md` has the metric glossary and the reasoning behind the
//! workloads; `run.sh` pins the environment and builds before calling in.

mod adapter;
mod compare;
mod harness;
mod metrics;
mod spans;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::{json, Value};

use harness::{RunArgs, RunReport};

const USAGE: &str = "usage:
  run.sh [--seed N] [--seconds S] [--smoke] [--out DIR]              full suite
  run.sh --workload W --seed N [--seconds S] --trace 0|1 [--smoke]   one run
  run.sh --compare A B                                               compare two result sets
  run.sh --print-benchmark-json                                      BENCHMARK.json from the metric table
without --seconds a plain run times exactly 40 ops, a traced run 12 pairs";

/// Variables that change what the repo's code does. A run with any of them
/// set is not comparable, so `main` removes them before anything reads one.
const PINNED_ENV: [&str; 6] = [
    "DLSR_TUNE_CACHE",
    "DLSR_COMM_TUNE",
    "DLSR_BF16",
    "DLSR_FORCE_SCALAR",
    "DLSR_NODES",
    "DLSR_STEPS",
];

/// Workers a parallel kernel fans out to; `main` sets `RAYON_NUM_THREADS`
/// to it. The vendored rayon spawns its workers anew in every parallel
/// call, so with two of them every kernel of an EDSR step spawns and joins
/// a thread, and how long that takes is the host's business, not the
/// program's: the driver's first check saw `op_ms_min` spread 30–43 % on
/// the two workloads that ran two workers and under 25 % on the three that
/// did not (README, "Noise"). With one, every kernel runs inline.
const RAYON_THREADS: &str = "1";

const DEFAULT_SEED: u64 = 2021;
/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
const RUN_SECONDS: u64 = 18;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out_dir: String,
    compare: Option<(String, String)>,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        out_dir: "benchmark/out".into(),
        compare: None,
        print_benchmark_json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str, v: &str| format!("{flag}: `{v}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !metrics::WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(bad("a workload", &w));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad("a whole number", &v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad("a number", &v))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("in (0, 60]", &v));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("0 or 1", v)),
                }
            }
            "--out" => cli.out_dir = value()?,
            "--smoke" => cli.smoke = true,
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn environment() -> Value {
    let isa = if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(all(target_feature = "avx2", target_feature = "fma")) {
        "avx2+fma"
    } else {
        "baseline"
    };
    json!({
        "compiled_isa": isa,
        "rayon_threads": RAYON_THREADS,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rustc": option_env!("BENCH_RUSTC").unwrap_or("unknown"),
        "git_sha": option_env!("BENCH_GIT_SHA").unwrap_or("unknown"),
    })
}

/// The result line's object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(r: &RunReport) -> Value {
    json!({
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": r.metrics.clone(),
    })
}

/// One line per metric: name, value, unit and — for a per-layer metric —
/// the end-to-end metric it is predicted to move. Per-layer metrics of
/// layers this workload never enters read 0 and are only counted.
fn print_metrics(metrics: &Value) {
    let mut idle = 0;
    for (name, m) in metrics.as_object().expect("metrics object") {
        let value = m["value"].as_f64().expect("value");
        let unit = m["unit"].as_str().expect("unit");
        if value == 0.0 {
            idle += 1;
            continue;
        }
        let moves: Vec<String> = metrics::find(name)
            .map(|d| d.moves.iter().map(|(m, w)| format!("{m}@{w}")).collect())
            .unwrap_or_default();
        let arrow = if moves.is_empty() { "" } else { "  -> " };
        println!(
            "  {name:<44} {value:>16.4} {unit:<8}{arrow}{}",
            moves.join(", ")
        );
    }
    if idle > 0 {
        println!("  ({idle} per-layer metrics of layers idle on this workload read 0)");
    }
}

/// Keep this process, and every thread it starts, on the core it is
/// running on now; returns that core. Rank threads that hand off on one
/// core switch context; across two they wake a halted vCPU through the
/// host, and the host's mood then decides the op time (README, "Noise").
/// The event core and rayon size themselves from the affinity mask, so a
/// world runs one rank at a time.
#[cfg(target_os = "linux")]
fn pin_to_current_core() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes nothing. `sched_setaffinity` reads
    // `cpusetsize` bytes from `mask`, which is that many live bytes; pid 0
    // is the calling thread, here the only one.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok()?;
        *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
        let pinned = sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0;
        pinned.then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_core() -> Option<usize> {
    None
}

fn run_one(cli: &Cli, workload: String, started: Instant) -> ExitCode {
    let core = pin_to_current_core();
    if core.is_none() {
        eprintln!("warning: could not pin to one core; times will spread wider");
    }
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out_dir: cli.out_dir.clone(),
        started,
    };
    let report = harness::run(&args);
    println!(
        "{} seed={} trace={} core={} ops_attempted={} ops_failed={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        core.map_or("any".into(), |c| c.to_string()),
        report.attempted,
        report.failed
    );
    for f in &report.failures {
        println!("  FAILED {f}");
    }
    print_metrics(&report.metrics);
    if let Some(plain_only) = report.info.get("metrics") {
        print_metrics(plain_only);
    }
    println!("# info {}", harness::compact(&report.info));
    println!("{}", harness::compact(&result_json(&report)));
    ExitCode::SUCCESS
}

/// Run one workload in a child process and return its `# info` and result
/// lines. One workload per process: peak RSS, allocator state and lazy
/// pools of one cannot leak into the next.
fn child(cli: &Cli, workload: &str, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &cli.seed.to_string()])
    .args(["--out", &cli.out_dir]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before it returns
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{workload} exited with {}: {stderr}", out.status));
    }
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or("no output")?;
    let result: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let info = lines
        .find_map(|l| l.strip_prefix("# info "))
        .and_then(|l| serde_json::from_str(l).ok())
        .unwrap_or(Value::Null);
    Ok((info, result))
}

/// Is `m` a `{"value": finite, "unit": def's}` object, and not 0 where 0
/// cannot be a measurement?
fn well_formed(m: &Value, def: &metrics::Def, nonzero: bool) -> Result<(), String> {
    let value = m["value"].as_f64().filter(|v| v.is_finite());
    if m["unit"].as_str() != Some(def.unit) || value.is_none() {
        return Err(format!(
            "metric {} is malformed: {}",
            def.name,
            harness::compact(m)
        ));
    }
    if nonzero && value == Some(0.0) {
        return Err(format!("end-to-end metric {} is 0", def.name));
    }
    Ok(())
}

/// Does a result line carry exactly the keys and metrics the contract
/// names, each metric with a finite value and its unit — and does a plain
/// run's `info.metrics` carry exactly this workload's other end-to-end
/// metrics?
fn validate_schema(
    workload: &str,
    trace: bool,
    info: &Value,
    result: &Value,
) -> Result<(), String> {
    let obj = result.as_object().ok_or("result is not an object")?;
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if result["attempted"].as_u64().is_none_or(|n| n < 1) || result["failed"].as_u64().is_none() {
        return Err("attempted/failed are not whole numbers with attempted ≥ 1".into());
    }
    let defs = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let got = result["metrics"]
        .as_object()
        .ok_or("metrics is not an object")?;
    if got.len() != defs.len() {
        return Err(format!("{} metrics, expected {}", got.len(), defs.len()));
    }
    for d in defs {
        let m = got
            .get(d.name)
            .ok_or(format!("metric {} missing", d.name))?;
        well_formed(m, d, !trace)?;
    }
    if trace {
        return Ok(());
    }
    let outputs = metrics::OUTPUTS.map(|name| metrics::find(name).expect("defined"));
    for d in metrics::PLAIN_ONLY.iter().chain(outputs) {
        let reports = metrics::plain_workloads(d.name).contains(&workload);
        match (info["metrics"].get(d.name), reports) {
            (Some(m), true) => well_formed(m, d, true)?,
            (None, false) => {}
            (None, true) => return Err(format!("info.metrics lacks {}", d.name)),
            (Some(_), false) => return Err(format!("{} on a workload without it", d.name)),
        }
    }
    Ok(())
}

fn suite(cli: &Cli) -> ExitCode {
    let mut runs = Vec::new();
    let mut bad = 0;
    for (workload, _) in metrics::WORKLOADS {
        for trace in [false, true] {
            println!("== {workload} ({})", if trace { "traced" } else { "plain" });
            let (info, result) = match child(cli, workload, trace) {
                Ok(r) => r,
                Err(e) => {
                    println!("  ERROR {e}");
                    bad += 1;
                    continue;
                }
            };
            if let Err(e) = validate_schema(workload, trace, &info, &result) {
                println!("  SCHEMA {e}");
                bad += 1;
            }
            if result["correct"].as_bool() != Some(true) {
                println!("  INCORRECT: ops failed");
                bad += 1;
            }
            println!(
                "  ops_attempted={} ops_failed={} noisy={}",
                result["attempted"].as_u64().unwrap_or(0),
                result["failed"].as_u64().unwrap_or(0),
                info["noisy"].as_bool().unwrap_or(false)
            );
            print_metrics(&result["metrics"]);
            if let Some(plain_only) = info.get("metrics") {
                print_metrics(plain_only);
            }
            runs.push(json!({
                "workload": workload,
                "trace": trace,
                "seed": cli.seed,
                "info": info,
                "result": result,
            }));
        }
    }
    let set = json!({
        "environment": environment(),
        "seed": cli.seed,
        "seconds": cli.seconds,
        "smoke": cli.smoke,
        "runs": runs,
    });
    let path = format!("{}/results.json", cli.out_dir);
    let written = std::fs::create_dir_all(&cli.out_dir)
        .and_then(|()| std::fs::write(&path, serde_json::to_string_pretty(&set).expect("json")));
    match written {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            println!("ERROR writing {path}: {e}");
            bad += 1;
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{bad} problem(s)");
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from the metric table so the two cannot
/// drift (a unit test compares the committed file with the table).
fn benchmark_json() -> Value {
    let workloads: Vec<Value> = metrics::WORKLOADS
        .iter()
        .map(|(name, why)| json!({ "name": name, "why": why }))
        .collect();
    let end_to_end: Vec<Value> = metrics::END_TO_END
        .iter()
        .map(|d| {
            json!({
                "name": d.name,
                "unit": d.unit,
                "better": d.better.as_str(),
                "bound": d.bound.expect("end-to-end metrics are bounded"),
            })
        })
        .collect();
    let per_layer: Vec<Value> = metrics::PER_LAYER
        .iter()
        .map(|d| json!({ "name": d.name, "unit": d.unit, "better": d.better.as_str() }))
        .collect();
    json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    // before the first thread exists, and before any code reads one
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.print_benchmark_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&benchmark_json()).expect("json")
        );
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return match (compare::load(a), compare::load(b)) {
            (Ok(a), Ok(b)) => {
                let worse = compare::compare(&a, &b);
                println!("{worse} cell(s) worse");
                if worse == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    match cli.workload.clone() {
        Some(w) => run_one(&cli, w, started),
        None => suite(&cli),
    }
}
