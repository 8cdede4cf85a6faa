//! **Ablation** — the Fig 6a story: what happens *without*
//! `CUDA_VISIBLE_DEVICES` pinning. Every process then instantiates a CUDA
//! context ("overhead kernels") on all four local GPUs, so each device
//! hosts 4 contexts; CUDA IPC works, but the wasted memory shrinks the
//! usable batch — "these extra kernels frequently overflow GPU memory, and
//! restrict the hyperparameter space" (§III-C).
//!
//! Run: `cargo run --release -p dlsr -- figures --only ablation_unpinned`

use std::io::{self, Write};

use super::{json, Outputs, Sweeps};
use crate::gpu::DeviceEnv;
use crate::prelude::*;

fn max_batch(model: &KernelCostModel, w: &WorkloadProfile, contexts: usize) -> usize {
    (1..=256)
        .take_while(|&b| model.train_step_time(w, b, contexts).is_ok())
        .count()
}

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let model = KernelCostModel::new(GpuSpec::v100());
    let (w, _) = edsr_measured_workload();
    writeln!(
        out,
        "== Fig 6 ablation: device-visibility configurations ==\n"
    )?;

    let rows = [
        ("unpinned (no masks)", DeviceEnv::unpinned(4)),
        (
            "pinned (CUDA_VISIBLE_DEVICES)",
            DeviceEnv::default_pinned(0),
        ),
        ("pinned + MV2_VISIBLE_DEVICES", DeviceEnv::mpi_opt(0, 4)),
    ];
    writeln!(
        out,
        "{:<32} {:>9} {:>9} {:>11} {:>10}",
        "configuration", "contexts", "IPC?", "ctx waste", "max batch"
    )?;
    let mut table = Vec::new();
    for (name, env) in rows {
        // per *device*: every local process (4 of them) opens a context on
        // each device it can see
        let contexts_per_device = if env.context_count() == 4 { 4 } else { 1 };
        let ipc = env.ipc_possible(0, 1);
        let waste = contexts_per_device as u64 * model.spec().context_bytes;
        let mb = max_batch(&model, &w, contexts_per_device);
        writeln!(
            out,
            "{:<32} {:>9} {:>9} {:>8} MB {:>10}",
            name,
            contexts_per_device,
            if ipc { "yes" } else { "no" },
            waste >> 20,
            mb
        )?;
        table.push(serde_json::json!({
            "config": name,
            "contexts_per_device": contexts_per_device,
            "ipc": ipc,
            "context_waste_mb": waste >> 20,
            "max_batch": mb,
        }));
    }
    writeln!(
        out,
        "\nunpinned keeps IPC but pays 4 CUDA contexts per device (Fig 6a);\n\
         pinning frees the memory but breaks MPI's IPC (Fig 6b) — only the\n\
         MV2_VISIBLE_DEVICES split (Fig 7) gets both."
    )?;

    Ok(vec![json(
        "ablation_unpinned.json",
        &serde_json::json!({ "rows": table }),
    )])
}
