//! **Fig 12** — Optimized distributed EDSR training performance: MPI-Opt
//! (CUDA IPC restored via `MV2_VISIBLE_DEVICES` + registration cache)
//! against default MPI and NCCL, 4 → 512 GPUs.
//! Paper: 26 % throughput improvement over default MPI at scale.
//!
//! Run: `cargo run --release -p dlsr -- figures --only fig12`

use std::io::{self, Write};
use std::rc::Rc;

use super::{bar, json, Outputs, Sweeps};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    writeln!(
        out,
        "== Fig 12: optimized EDSR scaling (MPI-Opt vs MPI vs NCCL) ==\n"
    )?;

    let mpi = sweeps.sweep(Scenario::MpiDefault);
    let opt = sweeps.sweep(Scenario::MpiOpt);
    let nccl = sweeps.sweep(Scenario::Nccl);

    let max = opt.iter().map(|p| p.images_per_sec).fold(0.0, f64::max);
    writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>12} {:>9}",
        "GPUs", "MPI", "MPI-Opt", "NCCL", "Opt gain"
    )?;
    for ((m, o), n) in mpi.iter().zip(opt.iter()).zip(nccl.iter()) {
        writeln!(
            out,
            "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>8.1}%   {}",
            m.gpus,
            m.images_per_sec,
            o.images_per_sec,
            n.images_per_sec,
            (o.images_per_sec / m.images_per_sec - 1.0) * 100.0,
            bar(o.images_per_sec, max, 30)
        )?;
    }
    let (m_last, o_last) = (mpi.last().unwrap(), opt.last().unwrap());
    writeln!(
        out,
        "\nat {} GPUs MPI-Opt improves throughput by {:.1} % over default MPI",
        o_last.gpus,
        (o_last.images_per_sec / m_last.images_per_sec - 1.0) * 100.0
    )?;
    writeln!(
        out,
        "(paper: 26 %), and matches or beats NCCL across the sweep."
    )?;

    let ser = |v: &[Rc<TrainRun>]| {
        v.iter()
            .map(|p| serde_json::json!({ "gpus": p.gpus, "img_s": p.images_per_sec, "efficiency": p.efficiency }))
            .collect::<Vec<_>>()
    };
    Ok(vec![json(
        "fig12_results.json",
        &serde_json::json!({
            "figure": "12",
            "paper": { "opt_vs_default_gain_pct": 26.0 },
            "mpi_default": ser(&mpi),
            "mpi_opt": ser(&opt),
            "nccl": ser(&nccl),
        }),
    )])
}
