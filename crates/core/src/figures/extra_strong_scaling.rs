//! **Extra** — strong scaling. The paper's sweep is weak scaling (batch 4
//! per GPU, global batch grows with the machine). The complementary
//! question a practitioner asks is: *for a fixed global batch, how fast can
//! I finish?* With the global batch pinned, per-GPU batches shrink with
//! scale, occupancy falls (the Fig 9 curve read backwards), and efficiency
//! collapses much sooner than in the weak-scaling figures.
//!
//! Run: `cargo run --release -p dlsr -- figures --only extra_strong_scaling`

use std::io::{self, Write};

use super::{bar, json, Outputs, Sweeps, Workload, SEED, STEPS, WARMUP};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let global_batch = 256usize;
    writeln!(
        out,
        "== strong scaling: global batch fixed at {global_batch} ==\n"
    )?;
    writeln!(
        out,
        "{:>6} {:>10} {:>12} {:>10} {:>12}",
        "GPUs", "batch/GPU", "img/s", "eff", "step (ms)"
    )?;
    let mut rows = Vec::new();
    let mut best = 0.0f64;
    let mut runs = Vec::new();
    for &nodes in &[4usize, 8, 16, 32, 64] {
        let world = ClusterTopology::lassen(nodes).total_gpus();
        let per_gpu = global_batch / world;
        if per_gpu == 0 {
            writeln!(
                out,
                "{world:>6} {:>10} — fewer samples than GPUs; stopping",
                0
            )?;
            break;
        }
        let run = sweeps.run(
            Workload::EdsrMeasured,
            Scenario::MpiOpt,
            nodes,
            per_gpu,
            WARMUP,
            STEPS,
            SEED,
        );
        best = best.max(run.images_per_sec);
        runs.push((world, per_gpu, run));
    }
    for (world, per_gpu, run) in &runs {
        writeln!(
            out,
            "{world:>6} {per_gpu:>10} {:>12.1} {:>9.1}% {:>12.1}   {}",
            run.images_per_sec,
            run.efficiency * 100.0,
            run.step_time * 1e3,
            bar(run.images_per_sec, best, 28)
        )?;
        rows.push(serde_json::json!({
            "gpus": world,
            "batch_per_gpu": per_gpu,
            "img_s": run.images_per_sec,
            "efficiency": run.efficiency,
        }));
    }
    writeln!(
        out,
        "\nstrong scaling trades occupancy for latency: past the point where\n\
         per-GPU batches stop amortizing kernel overheads, adding GPUs mostly\n\
         adds communication — the regime weak scaling (Figs 10–13) avoids by\n\
         growing the global batch with the machine."
    )?;

    Ok(vec![json(
        "extra_strong_scaling.json",
        &serde_json::json!({ "global_batch": global_batch, "rows": rows }),
    )])
}
