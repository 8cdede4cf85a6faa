//! `dlsr-bench` — harness binaries regenerating every table and figure of
//! the paper and the other committed virtual-clock result files (see
//! `src/bin/`). Wall-clock numbers are the `benchmark/` package's, not
//! this crate's.
//!
//! Shared output helpers live here.

#![forbid(unsafe_code)]

use std::io::Write;

use dlsr::trace::report::StepReport;
use dlsr_cluster::{edsr_measured_workload, run_training, Scenario, TrainRun};
use dlsr_net::ClusterTopology;

/// Run one costs-only training measurement with the cross-layer trace
/// collector on, and build the step-time breakdown from the recorded
/// spans and counters. The shared timing path for every harness that
/// reports per-phase times — no harness keeps its own stopwatch code.
pub fn traced_training_run(
    topo: &ClusterTopology,
    scenario: Scenario,
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
) -> (TrainRun, StepReport) {
    let (w, tensors) = edsr_measured_workload();
    let (run, counters) = dlsr_cluster::analysis::traced(|| {
        run_training(topo, scenario, &w, &tensors, batch, warmup, steps, seed)
    });
    let mut report = StepReport::build(&run.trace, &counters).with_context(
        scenario.label(),
        run.gpus,
        steps,
        run.step_time,
    );
    report.set_regcache(
        run.regcache.hits,
        run.regcache.misses,
        run.regcache.evictions,
    );
    report.attach_critical_path(dlsr::trace::analyze::critical_path(&run.trace, steps));
    (run, report)
}

/// Render a simple ASCII bar for terminal figures.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "█".repeat(n.min(width))
}

/// Write a JSON results file under `results/` so EXPERIMENTS.md numbers
/// are machine-checkable; prints the path.
pub fn write_json(name: &str, value: &serde_json::Value) {
    std::fs::create_dir_all("results").expect("create results dir");
    let path = format!("results/{name}");
    let mut f = std::fs::File::create(&path).expect("create results file");
    f.write_all(
        serde_json::to_string_pretty(value)
            .expect("serialize")
            .as_bytes(),
    )
    .expect("write results file");
    println!("[results written to {path}]");
}

/// Node counts for scaling sweeps: the paper's 1→128 Lassen nodes
/// (4→512 GPUs). Override with `DLSR_NODES="1,2,4"` for quick runs.
pub fn node_counts() -> Vec<usize> {
    match std::env::var("DLSR_NODES") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("DLSR_NODES: comma-separated node counts")
            })
            .collect(),
        Err(_) => vec![1, 2, 4, 8, 16, 32, 64, 128],
    }
}

/// Measured steps per scaling point (override with `DLSR_STEPS`).
pub fn steps() -> usize {
    std::env::var("DLSR_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

/// Warmup steps per scaling point.
pub fn warmup() -> usize {
    2
}

/// The fixed seed used by every figure harness (results are deterministic).
pub const SEED: u64 = 2021;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(10.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn default_node_counts_reach_512_gpus() {
        let n = node_counts();
        assert_eq!(*n.last().unwrap() * 4, 512);
    }
}
