//! **Fig 13** — EDSR scaling efficiency (throughput ÷ ideal linear
//! scaling) for default MPI, MPI-Opt and NCCL up to 512 GPUs.
//! Paper: default drops below 60 % at scale; MPI-Opt stays above 70 %, a
//! +15.6 % efficiency improvement = 1.26× training speedup.
//!
//! Run: `cargo run --release -p dlsr -- figures --only fig13`

use std::io::{self, Write};
use std::rc::Rc;

use super::{bar, json, Outputs, Sweeps};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    writeln!(out, "== Fig 13: EDSR scaling efficiency ==\n")?;

    let mpi = sweeps.sweep(Scenario::MpiDefault);
    let opt = sweeps.sweep(Scenario::MpiOpt);
    let nccl = sweeps.sweep(Scenario::Nccl);

    writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>9}",
        "GPUs", "MPI", "MPI-Opt", "NCCL"
    )?;
    for ((m, o), n) in mpi.iter().zip(opt.iter()).zip(nccl.iter()) {
        writeln!(
            out,
            "{:>6} {:>8.1}% {:>8.1}% {:>8.1}%   Opt {}",
            m.gpus,
            m.efficiency * 100.0,
            o.efficiency * 100.0,
            n.efficiency * 100.0,
            bar(o.efficiency, 1.0, 30)
        )?;
        writeln!(out, "{:>41}MPI {}", "", bar(m.efficiency, 1.0, 30))?;
    }
    let (m_last, o_last) = (mpi.last().unwrap(), opt.last().unwrap());
    let diff_pp = (o_last.efficiency - m_last.efficiency) * 100.0;
    let speedup = o_last.images_per_sec / m_last.images_per_sec;
    writeln!(
        out,
        "\nat {} GPUs: MPI-Opt {:.1} % vs default {:.1} % — a {:.1} pp efficiency",
        o_last.gpus,
        o_last.efficiency * 100.0,
        m_last.efficiency * 100.0,
        diff_pp
    )?;
    writeln!(
        out,
        "improvement (paper: +15.6 pp) and a {speedup:.2}× training speedup (paper: 1.26×)."
    )?;

    let ser = |v: &[Rc<TrainRun>]| {
        v.iter()
            .map(|p| serde_json::json!({ "gpus": p.gpus, "efficiency": p.efficiency }))
            .collect::<Vec<_>>()
    };
    Ok(vec![json(
        "fig13_results.json",
        &serde_json::json!({
            "figure": "13",
            "paper": { "efficiency_gain_pp": 15.6, "speedup": 1.26,
                       "default_at_512": "<60%", "opt_at_512": ">70%" },
            "measured": { "efficiency_gain_pp": diff_pp, "speedup": speedup },
            "mpi_default": ser(&mpi),
            "mpi_opt": ser(&opt),
            "nccl": ser(&nccl),
        }),
    )])
}
