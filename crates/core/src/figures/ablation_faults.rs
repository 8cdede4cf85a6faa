//! **Ablation** — throughput under injected faults (docs/ROBUSTNESS.md):
//! a virtual-time sweep over every chaos scenario — throughput, timeline
//! overhead, retry/backoff/degraded charges per fault class — written to
//! `results/BENCH_faults.json`. Asserts that
//! no fault changes the training math.
//!
//! Run: `cargo run --release -p dlsr -- figures --only ablation_faults`

use std::io::{self, Write};
use std::sync::Arc;

use dlsr_faults::ChaosScenario;

use super::{json, Outputs, Sweeps};
use crate::prelude::*;

const NODES: usize = 2;
const GPUS_PER_NODE: usize = 2; // 4 ranks; 2 nodes so degraded-link bites
const STEPS: usize = 6;
const GLOBAL_BATCH: usize = 8;
const SEED: u64 = 42;

fn train(fault: Option<ChaosScenario>) -> RealTrainResult {
    let topo = ClusterTopology {
        name: format!("chaos-{NODES}x{GPUS_PER_NODE}"),
        nodes: NODES,
        gpus_per_node: GPUS_PER_NODE,
    };
    let cfg = RealTrainConfig::builder()
        .steps(STEPS)
        .global_batch(GLOBAL_BATCH)
        .checkpoint_every(3)
        .build();
    let mut mpi = MpiConfig::mpi_opt();
    if let Some(f) = fault {
        mpi = mpi
            .to_builder()
            .fault_plan(Some(Arc::new(f.plan(SEED, topo.total_gpus(), STEPS))))
            .build();
    }
    train_real(&topo, mpi, &cfg)
}

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let clean = train(None);
    let throughput = |r: &RealTrainResult| GLOBAL_BATCH as f64 * STEPS as f64 / r.makespan;
    let mut scenarios = std::collections::BTreeMap::new();
    for f in ChaosScenario::ALL {
        let res = train(Some(f));
        let same_math = res
            .final_params
            .iter()
            .map(|p| p.to_bits())
            .eq(clean.final_params.iter().map(|p| p.to_bits()));
        assert!(same_math, "fault `{f}` changed the training math");
        scenarios.insert(
            f.label().to_string(),
            serde_json::json!({
                "images_per_sec": throughput(&res),
                "makespan_s": res.makespan,
                "overhead_frac": res.makespan / clean.makespan - 1.0,
                "retries": res.comm_stats.retries,
                "backoff_s": res.comm_stats.backoff_seconds,
                "degraded_s": res.comm_stats.degraded_seconds,
                "math_bitwise_identical": same_math,
            }),
        );
        writeln!(
            out,
            "{:>15}: {:>7.1} img/s ({:+.1}% makespan, {} retries)",
            f.label(),
            throughput(&res),
            (res.makespan / clean.makespan - 1.0) * 100.0,
            res.comm_stats.retries
        )?;
    }
    Ok(vec![json(
        "BENCH_faults.json",
        &serde_json::json!({
            "workload": {
                "model": "EDSR(tiny)",
                "nodes": NODES,
                "gpus": NODES * GPUS_PER_NODE,
                "global_batch": GLOBAL_BATCH,
                "steps": STEPS,
                "checkpoint_every": 3,
                "scenario": "mpi-opt",
                "plan_seed": SEED,
            },
            "clean": {
                "images_per_sec": throughput(&clean),
                "makespan_s": clean.makespan,
            },
            "faults": serde_json::Value::Object(scenarios),
        }),
    )])
}
