//! **Fig 11** — Effect of the MVAPICH2-GDR registration cache on EDSR
//! training throughput (MPI vs MPI-Reg), plus the observed cache hit rate.
//! Paper: average +5.1 % throughput, 93 % hit rate.
//!
//! Run: `cargo run --release -p dlsr -- figures --only fig11`

use std::io::{self, Write};

use super::{json, Outputs, Sweeps, Workload};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    // the registration cache only matters across nodes — sweep ≥ 2 nodes
    let nodes = sweeps.nodes().iter().copied().filter(|&n| n >= 2);
    writeln!(
        out,
        "== Fig 11: registration-cache effect (MPI vs MPI-Reg) ==\n"
    )?;
    writeln!(
        out,
        "{:>6} {:>13} {:>13} {:>8} {:>9}",
        "GPUs", "MPI (img/s)", "+Reg (img/s)", "gain", "hit rate"
    )?;

    let mut gains = Vec::new();
    let mut rows = Vec::new();
    for n in nodes {
        let base = sweeps.point(Workload::EdsrMeasured, Scenario::MpiDefault, n);
        let reg = sweeps.point(Workload::EdsrMeasured, Scenario::MpiReg, n);
        let gain = (reg.images_per_sec / base.images_per_sec - 1.0) * 100.0;
        gains.push(gain);
        writeln!(
            out,
            "{:>6} {:>13.1} {:>13.1} {:>7.1}% {:>8.1}%",
            base.gpus,
            base.images_per_sec,
            reg.images_per_sec,
            gain,
            reg.regcache_hit_rate * 100.0
        )?;
        rows.push(serde_json::json!({
            "gpus": base.gpus,
            "mpi_img_s": base.images_per_sec,
            "mpi_reg_img_s": reg.images_per_sec,
            "gain_pct": gain,
            "hit_rate": reg.regcache_hit_rate,
            "regcache": {
                "hits": reg.regcache.hits,
                "misses": reg.regcache.misses,
                "evictions": reg.regcache.evictions,
            },
        }));
    }
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    writeln!(
        out,
        "\naverage throughput improvement: {avg:.1} % (paper: 5.1 %); the cache\n\
         hit rate reflects Horovod's persistent fusion buffers (paper: 93 %)."
    )?;

    Ok(vec![json(
        "fig11_results.json",
        &serde_json::json!({
            "figure": "11",
            "paper": { "avg_gain_pct": 5.1, "hit_rate": 0.93 },
            "measured": { "avg_gain_pct": avg, "rows": rows },
        }),
    )])
}
