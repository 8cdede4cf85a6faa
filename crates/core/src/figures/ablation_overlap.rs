//! **Ablation** — sequential vs overlapped real 2-node EDSR training step
//! (docs/OVERLAP.md): virtual step time, exposed communication and overlap
//! ratio per mode from a traced run, written to
//! `results/BENCH_overlap.json`.
//!
//! Run: `cargo run --release -p dlsr -- figures --only ablation_overlap`

use std::io::{self, Write};

use dlsr_cluster::analysis::traced_real_run;

use super::{json, Outputs, Sweeps};
use crate::prelude::*;
use crate::trace::report::StepReport;

const NODES: usize = 2; // 8 ranks
const STEPS: usize = 3;

/// Traced run of one mode: (virtual step time, mean comm s, mean exposed
/// comm s per rank).
fn traced(overlap: bool) -> (f64, f64, f64) {
    let cfg = RealTrainConfig::builder()
        .steps(STEPS)
        .global_batch(8)
        .overlap(overlap)
        .build();
    let run = traced_real_run(&ClusterTopology::lassen(NODES), MpiConfig::mpi_opt(), &cfg);
    let report = StepReport::build(&run.trace, &run.counters);
    let n = report.ranks.len() as f64;
    let comm = report.ranks.iter().map(|r| r.comm_s).sum::<f64>() / n;
    let exposed = report.ranks.iter().map(|r| r.exposed_comm_s).sum::<f64>() / n;
    (run.makespan / STEPS as f64, comm, exposed)
}

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let (seq_step, seq_comm, seq_exposed) = traced(false);
    let (ovl_step, ovl_comm, ovl_exposed) = traced(true);
    let mode = |step: f64, comm: f64, exposed: f64| {
        serde_json::json!({
            "step_time_s": step,
            "images_per_sec": 8.0 / step,
            "comm_s": comm,
            "exposed_comm_s": exposed,
            "overlap_ratio": if comm > 0.0 { 1.0 - exposed / comm } else { 0.0 },
        })
    };
    let file = json(
        "BENCH_overlap.json",
        &serde_json::json!({
            "workload": {
                "model": "EDSR(tiny)",
                "nodes": NODES,
                "gpus": NODES * 4,
                "global_batch": 8,
                "steps": STEPS,
                "scenario": "mpi-opt",
            },
            "sequential": mode(seq_step, seq_comm, seq_exposed),
            "overlapped": mode(ovl_step, ovl_comm, ovl_exposed),
            "exposed_drop_frac": if seq_exposed > 0.0 { 1.0 - ovl_exposed / seq_exposed } else { 0.0 },
            "step_speedup": seq_step / ovl_step,
        }),
    );
    writeln!(
        out,
        "virtual step: {:.3} ms sequential -> {:.3} ms overlapped; exposed comm {:.3} -> {:.3} ms",
        seq_step * 1e3,
        ovl_step * 1e3,
        seq_exposed * 1e3,
        ovl_exposed * 1e3
    )?;
    Ok(vec![file])
}
