//! **Ablation** — the paper states (§II-D) that `HOROVOD_FUSION_THRESHOLD`
//! and `HOROVOD_CYCLE_TIME` were "carefully tuned at each scale to maximize
//! training throughput". This harness produces the tuning surface: EDSR
//! throughput under MPI-Opt across a threshold × cycle-time grid at a
//! fixed scale (8 nodes, 32 GPUs), plus the resulting fused-message sizes.
//!
//! Run: `cargo run --release -p dlsr -- figures --only ablation_fusion_tuning`

use std::io::{self, Write};

use super::{json, Outputs, Sweeps, BATCH, SEED};
use crate::prelude::*;

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let nodes = 8;
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology::lassen(nodes);
    writeln!(
        out,
        "== fusion tuning surface: EDSR on {} GPUs (MPI-Opt) ==\n",
        topo.total_gpus()
    )?;

    let thresholds = [8u64 << 20, 16 << 20, 32 << 20, 48 << 20, 64 << 20];
    let cycles = [3.5e-3, 20e-3, 50e-3, 80e-3, 120e-3];

    write!(out, "{:>14}", "thr \\ cycle")?;
    for c in cycles {
        write!(out, "{:>10.1}ms", c * 1e3)?;
    }
    writeln!(out)?;

    let mut best = (0.0f64, 0u64, 0.0f64);
    let mut grid = Vec::new();
    for &t in &thresholds {
        write!(out, "{:>12}MB", t >> 20)?;
        for &c in &cycles {
            let hcfg = HorovodConfig::builder()
                .fusion_threshold(t)
                .cycle_time(c)
                .backend(Backend::Mpi)
                .build();
            let run = run_training_tuned(
                &topo,
                Scenario::MpiOpt,
                &w,
                &tensors,
                BATCH,
                1,
                4,
                SEED,
                hcfg,
            );
            write!(out, "{:>12.1}", run.images_per_sec)?;
            if run.images_per_sec > best.0 {
                best = (run.images_per_sec, t, c);
            }
            grid.push(serde_json::json!({
                "threshold_mb": t >> 20,
                "cycle_ms": c * 1e3,
                "img_s": run.images_per_sec,
            }));
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\nbest: {:.1} img/s at threshold {} MB, cycle {:.1} ms",
        best.0,
        best.1 >> 20,
        best.2 * 1e3
    )?;
    writeln!(
        out,
        "small thresholds/cycles fragment the gradient set into many small\n\
         reductions (per-round coordination dominates); oversized cycles add\n\
         idle latency — the trade-off the paper tuned per scale."
    )?;

    Ok(vec![json(
        "ablation_fusion_tuning.json",
        &serde_json::json!({ "nodes": nodes, "grid": grid }),
    )])
}
