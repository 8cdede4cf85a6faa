//! **Fig 10** — Default distributed EDSR training performance for Horovod
//! built against MVAPICH2-GDR (the broken `CUDA_VISIBLE_DEVICES`-pinned
//! configuration) compared with NCCL, 4 → 512 GPUs on Lassen.
//!
//! Run: `cargo run --release -p dlsr -- figures --only fig10`

use std::io::{self, Write};

use super::{bar, json, Outputs, Sweeps};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    writeln!(
        out,
        "== Fig 10: default EDSR scaling, MVAPICH2-GDR (default) vs NCCL ==\n"
    )?;

    let mpi = sweeps.sweep(Scenario::MpiDefault);
    let nccl = sweeps.sweep(Scenario::Nccl);

    let max = nccl
        .iter()
        .chain(mpi.iter())
        .map(|p| p.images_per_sec)
        .fold(0.0, f64::max);
    writeln!(
        out,
        "{:>6} {:>14} {:>14}",
        "GPUs", "MPI (img/s)", "NCCL (img/s)"
    )?;
    for (m, n) in mpi.iter().zip(nccl.iter()) {
        writeln!(
            out,
            "{:>6} {:>14.1} {:>14.1}   MPI  {}",
            m.gpus,
            m.images_per_sec,
            n.images_per_sec,
            bar(m.images_per_sec, max, 34)
        )?;
        writeln!(out, "{:>51}NCCL {}", "", bar(n.images_per_sec, max, 34))?;
    }
    let last = mpi.last().unwrap();
    writeln!(
        out,
        "\nat {} GPUs, default MPI reaches only {:.1} % scaling efficiency — the",
        last.gpus,
        last.efficiency * 100.0
    )?;
    writeln!(
        out,
        "degradation the paper traces to the CUDA IPC conflict (§III-C)."
    )?;

    Ok(vec![json(
        "fig10_results.json",
        &serde_json::json!({
            "figure": "10",
            "mpi_default": mpi.iter().map(|p| serde_json::json!({
                "gpus": p.gpus, "img_s": p.images_per_sec, "efficiency": p.efficiency
            })).collect::<Vec<_>>(),
            "nccl": nccl.iter().map(|p| serde_json::json!({
                "gpus": p.gpus, "img_s": p.images_per_sec, "efficiency": p.efficiency
            })).collect::<Vec<_>>(),
        }),
    )])
}
