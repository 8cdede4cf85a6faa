//! Measurement plumbing shared by every workload: the closed loop, the
//! percentile rule, set-up repetition, the calibration loop, `VmHWM`, and
//! the result line.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use serde_json::{json, Value};

use crate::metrics;
use crate::spans::Recorder;

/// Timed ops of a plain run that is given no `--seconds`: the issue's load
/// shape, and the fewest that leave ten samples beyond the p75.
pub const OPS: usize = 40;
/// With `--seconds` the loop measures for that long; on a machine so slow
/// that fewer ops than this fit, it keeps going until it has this many, so
/// the quartiles are never taken over a handful of samples.
pub const MIN_OPS: usize = 12;
/// Plain/traced op pairs of a traced run: without `--seconds`, and the
/// floor with it.
pub const PAIRS: usize = 12;
pub const MIN_PAIRS: usize = 6;
/// Ops (and pairs) of a `--smoke` run.
const SMOKE_OPS: usize = 4;
const SMOKE_PAIRS: usize = 2;
/// Set-ups per run; `setup_s` is the fastest, so neither the first (cold
/// caches, lazy pools) nor a disturbed one decides it.
pub const SETUPS: usize = 5;

/// What one op hands back for checking.
pub type OpResult = Result<(), String>;

/// One benchmark workload. `build` + `warm_up` is the set-up; `op` is the
/// unit the closed loop repeats (one client: the next op starts when the
/// previous returns).
pub trait Workload {
    /// Warm-up ops, excluded from every timing.
    fn warm_up(&mut self);
    /// One timed op, including its correctness checks. `Err` counts the op
    /// as failed.
    fn op(&mut self) -> OpResult;
    /// The workload's throughput metric (`images_per_s`,
    /// `rank_steps_per_s` or `allreduce_mb_per_s`) and the work one op
    /// completes in its unit.
    fn throughput(&self) -> (&'static str, f64);
    /// The program's own outputs (`metrics::OUTPUTS`) as of the last op;
    /// `sim_sweep_small` has none.
    fn outputs(&self, _out: &mut Metrics) {}
    /// Checks that need the whole run (e.g. the loss fell).
    fn final_check(&mut self) -> OpResult {
        Ok(())
    }
    /// The same op with a span around each call into a layer. Where `op`
    /// is one opaque call this is a decomposed replay from public calls.
    fn traced_op(&mut self, rec: &mut Recorder) -> OpResult;
    /// Per-layer metrics of this workload: derived from the spans, plus
    /// isolated probes at the workload's own shapes.
    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Metrics);
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// `{"name": {"value": v, "unit": u}}` over exactly `defs`. A per-layer
    /// metric whose layer did no work on this workload reads 0.
    fn to_json(&self, defs: &[metrics::Def]) -> Value {
        let mut map = BTreeMap::new();
        for d in defs {
            let v = self.0.get(d.name).copied().unwrap_or(0.0);
            map.insert(d.name.to_string(), json!({ "value": v, "unit": d.unit }));
        }
        Value::Object(map)
    }

    /// The same shape over every value set that `defs` does not list.
    fn rest_json(&self, defs: &[metrics::Def]) -> Value {
        let mut map = BTreeMap::new();
        for (name, v) in &self.0 {
            if defs.iter().all(|d| d.name != *name) {
                let unit = metrics::find(name).expect("a defined metric").unit;
                map.insert(name.to_string(), json!({ "value": v, "unit": unit }));
            }
        }
        Value::Object(map)
    }
}

/// One-line JSON text of a value.
pub fn compact(v: &Value) -> String {
    serde_json::to_string(v).expect("the vendored writer cannot fail")
}

/// Nearest-rank percentile of `samples` (`q` in 0..=100).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of the reported percentiles that still has at least ten
/// samples beyond it: p75 needs n ≥ 40, p90 n ≥ 100, p99 n ≥ 1000.
pub fn top_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|q| (n as f64) * (100.0 - q) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Seconds one call of `f` takes, as the median of `reps` calls.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A fixed spin-FMA loop: the same arithmetic before and after a workload
/// takes the same time on a quiet machine, so its drift says whether the
/// sandbox was disturbed while the workload ran. Median of three, so a cold
/// first pass (page faults, clock ramp) does not read as drift.
pub fn calibration_ms() -> f64 {
    time_median(3, || {
        let mut acc = [1.0f32; 8];
        for i in 0..6_000_000u32 {
            let x = black_box(1.0 + (i & 7) as f32 * 1e-7);
            for a in &mut acc {
                *a = a.mul_add(x, 1e-9);
            }
        }
        black_box(acc);
    }) * 1e3
}

/// A run's info object plus the two calibration readings, their drift,
/// and the `noisy` flag (drift above 5 %).
fn with_calibration(mut info: Value, before: f64, after: f64) -> Value {
    let drift = (after - before).abs() / before * 100.0;
    if let Value::Object(map) = &mut info {
        map.insert("calibration_ms".into(), json!([before, after]));
        map.insert("calibration_drift_pct".into(), json!(drift));
        map.insert("noisy".into(), json!(drift > 5.0));
    }
    info
}

/// Peak resident set of this process in MiB (`VmHWM`), one workload per
/// process.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measure for this long (the driver's way); `None` runs exactly
    /// [`OPS`] timed ops (the issue's).
    pub seconds: Option<f64>,
    pub trace: bool,
    /// 4 timed ops at reduced steps: validates plumbing and schema, not
    /// performance.
    pub smoke: bool,
    pub out_dir: String,
    /// When `main` began.
    pub started: Instant,
}

/// Outcome of a run: what the last stdout line carries, plus context for
/// the human-readable lines and the suite's result file.
pub struct RunReport {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: Value,
    pub info: Value,
}

fn build_and_warm(args: &RunArgs) -> Box<dyn Workload> {
    let mut w = crate::workloads::build(&args.workload, args.seed, args.smoke);
    w.warm_up();
    w
}

/// Run ops until both the time and the op floor are met; returns per-op
/// wall seconds, the loop's total wall, and the failures.
fn closed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> OpResult,
) -> (Vec<f64>, f64, Vec<String>) {
    let mut walls = Vec::new();
    let mut failures = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || walls.len() < min_ops {
        let t = Instant::now();
        let r = op(walls.len());
        walls.push(t.elapsed().as_secs_f64());
        if let Err(e) = r {
            failures.push(format!("op {}: {e}", walls.len() - 1));
        }
    }
    (walls, t0.elapsed().as_secs_f64(), failures)
}

pub fn run(args: &RunArgs) -> RunReport {
    if args.trace {
        run_traced(args)
    } else {
        run_plain(args)
    }
}

/// `(seconds, floor)` of a run's closed loop: measure for `--seconds` with
/// `min` ops as the floor, or exactly `fixed` ops without it.
fn loop_shape(seconds: Option<f64>, fixed: usize, min: usize) -> (f64, usize) {
    seconds.map_or((0.0, fixed), |s| (s, min))
}

/// The plain run: every end-to-end metric, tracing off.
fn run_plain(args: &RunArgs) -> RunReport {
    let before_setup = args.started.elapsed().as_secs_f64();
    let cal_before = calibration_ms();

    let n_setups = if args.smoke { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(n_setups);
    let mut w = None;
    for _ in 0..n_setups {
        drop(w.take()); // one live copy: peak RSS is one workload's
        let t = Instant::now();
        w = Some(build_and_warm(args));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("SETUPS > 0");

    let (seconds, min_ops) = if args.smoke {
        (0.0, SMOKE_OPS)
    } else {
        loop_shape(args.seconds, OPS, MIN_OPS)
    };
    let (walls, timed_wall, mut failures) = closed_loop(seconds, min_ops, |_| w.op());
    if let Err(e) = w.final_check() {
        failures.push(format!("final: {e}"));
    }
    let cal_after = calibration_ms();

    let n = walls.len();
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let (throughput, work_per_op) = w.throughput();
    let mut m = Metrics::default();
    // The sandbox's host only ever adds time (slow phases of seconds to
    // minutes, and on the world workloads slower hand-offs between the
    // vCPUs), so the fastest observation is the program's own speed: over
    // four 10-seed sessions it spread less, and its median moved less from
    // one session to the next, than the first quartile, the median or the
    // p75 (the README has the table).
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    m.set("setup_s", fastest(&setups));
    m.set("op_ms_min", fastest(&ms));
    m.set("work_per_s", work_per_op * 1e3 / fastest(&ms));
    m.set("peak_rss_mb", peak_rss_mb());
    // The issue's definitions: process start → first timed op had the run
    // set up once (the calibration loop is the benchmark's, not set-up);
    // median and p75 of the ops; work ÷ timed wall.
    m.set("setup_cold_s", before_setup + setups[0]);
    m.set("op_ms_p50", median(&ms));
    m.set("op_ms_p75", percentile(&ms, 75.0));
    m.set(throughput, work_per_op * n as f64 / timed_wall);
    w.outputs(&mut m);

    RunReport {
        attempted: n,
        failed: failures.len().min(n),
        metrics: m.to_json(metrics::END_TO_END),
        info: with_calibration(
            json!({
            "n": n,
            "metrics": m.rest_json(metrics::END_TO_END),
            "top_percentile_with_10_beyond": top_percentile(n),
            "timed_wall_s": timed_wall,
            "ops_ms": ms,
            "setups_s": setups,
            }),
            cal_before,
            cal_after,
        ),
        failures,
    }
}

/// The traced run: every per-layer metric. Plain and traced ops alternate
/// so `bench.trace_overhead_pct` compares like with like inside one
/// process; the spans then give busy and self times, and isolated probes
/// give the numbers a span cannot (GFLOP/s at one shape, cost growth with
/// world size).
fn run_traced(args: &RunArgs) -> RunReport {
    let cal_before = calibration_ms();
    let mut w = build_and_warm(args);
    let mut rec = Recorder::new(Instant::now(), 0);

    // A third of the window for the paired loop; the probes get the rest.
    let (seconds, min_pairs) = if args.smoke {
        (0.0, SMOKE_PAIRS)
    } else {
        loop_shape(args.seconds.map(|s| s / 3.0), PAIRS, MIN_PAIRS)
    };
    let mut plain_ms = Vec::new();
    let (both, _, failures) = closed_loop(seconds, min_pairs, |i| {
        let t = Instant::now();
        let plain = w.op();
        // pushed whatever `plain` is: one entry per pair keeps the two
        // columns aligned
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        plain?;
        rec.set_op(i as u32);
        w.traced_op(&mut rec)
    });
    // `closed_loop` timed the pair
    let traced_ms: Vec<f64> = both
        .iter()
        .zip(&plain_ms)
        .map(|(both, plain)| both * 1e3 - plain)
        .collect();

    let mut m = Metrics::default();
    w.outputs(&mut m);
    w.layer_metrics(&rec, &mut m);
    let cal_after = calibration_ms();
    let (p, t) = (median(&plain_ms), median(&traced_ms));
    m.set("bench.trace_overhead_pct", (t - p) / p * 100.0);
    m.set("bench.span_coverage_pct", rec.coverage_pct());
    m.set("bench.calibration_ms", (cal_before + cal_after) / 2.0);

    let trace_path = format!("{}/trace_{}.json", args.out_dir, args.workload);
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&trace_path, compact(&rec.to_json(&args.workload))));
    if let Err(e) = &written {
        eprintln!("warning: could not write {trace_path}: {e}");
    }
    let layer_self: BTreeMap<String, Value> = rec
        .layer_self_ms()
        .into_iter()
        .map(|(k, v)| (k.to_string(), json!(v)))
        .collect();
    let n = plain_ms.len();
    RunReport {
        attempted: 2 * n,
        failed: failures.len().min(2 * n),
        metrics: m.to_json(metrics::PER_LAYER),
        info: with_calibration(
            json!({
            "pairs": n,
            "plain_op_ms_p50": p,
            "traced_op_ms_p50": t,
            "spans": rec.spans().len(),
            "layer_self_ms_total": Value::Object(layer_self),
            "trace_file": if written.is_ok() { json!(trace_path) } else { Value::Null },
            }),
            cal_before,
            cal_after,
        ),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_gives_p75_at_n_40() {
        assert_eq!(top_percentile(40), 75.0);
        assert_eq!(top_percentile(39), 50.0);
        assert_eq!(top_percentile(100), 90.0);
        assert_eq!(top_percentile(1000), 99.0);
        // nearest rank: p75 of 1..=40 is the 30th value, leaving 10 beyond
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 75.0), 30.0);
        assert_eq!(v.iter().filter(|&&x| x > 30.0).count(), 10);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t12 kB\n"), None);
        assert!(peak_rss_mb() > 0.0, "this process has a resident set");
    }

    #[test]
    fn closed_loop_honours_the_op_floor_and_counts_failures() {
        let (walls, total, failures) =
            closed_loop(0.0, 5, |i| if i == 2 { Err("boom".into()) } else { Ok(()) });
        assert_eq!(walls.len(), 5);
        assert!(total >= walls.iter().sum::<f64>());
        assert_eq!(failures, vec!["op 2: boom".to_string()]);
    }
}
