//! **Table I** — Allreduce time performance improvement by message-size
//! bin, 100 training steps of EDSR on 4 GPUs (default MPI vs MPI-Opt).
//!
//! Paper values (ms over 100 steps):
//! 1–128 KB: 392.0 → 391.2 (≈0) · 128 KB–16 MB: 320.7 → 342.4 (≈0) ·
//! 16–32 MB: 1321.6 → 619.6 (53.1 %) · 32–64 MB: 5145.6 → 2587.2 (49.7 %)
//! · total 7179.9 → 3918.5 (**45.4 %**).
//!
//! Run: `cargo run --release -p dlsr -- figures --only table1`

use std::io::{self, Write};

use super::{json, Outputs, Sweeps, Workload, BATCH, SEED, WARMUP};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let steps = 100;
    writeln!(
        out,
        "== Table I: allreduce improvement, {steps} steps of EDSR on 4 GPUs ==\n"
    )?;

    // the two runs Fig 14 plots
    let profile = |sc| sweeps.run(Workload::EdsrMeasured, sc, 1, BATCH, WARMUP, steps, SEED);
    let (d, o) = (profile(Scenario::MpiDefault), profile(Scenario::MpiOpt));

    let rows = compare(&d.profile, &o.profile, Collective::Allreduce);
    write!(out, "{}", render_table(&rows))?;

    let total = rows.last().expect("total row");
    writeln!(
        out,
        "\ntotal allreduce time improvement: {:.1} % (paper: 45.4 %)",
        total.improvement_pct
    )?;
    writeln!(
        out,
        "training throughput: {:.1} → {:.1} img/s",
        d.images_per_sec, o.images_per_sec
    )?;

    Ok(vec![json(
        "table1_results.json",
        &serde_json::json!({
            "table": "I",
            "paper": {
                "rows": [
                    { "bin": "1-128 KB", "default_ms": 392.0, "optimized_ms": 391.2 },
                    { "bin": "128 KB - 16 MB", "default_ms": 320.7, "optimized_ms": 342.4 },
                    { "bin": "16 MB - 32 MB", "default_ms": 1321.6, "optimized_ms": 619.6 },
                    { "bin": "32 MB - 64 MB", "default_ms": 5145.6, "optimized_ms": 2587.2 },
                    { "bin": "Total Time", "default_ms": 7179.9, "optimized_ms": 3918.5 },
                ],
                "total_improvement_pct": 45.4
            },
            "measured": {
                "rows": rows.iter().map(|r| serde_json::json!({
                    "bin": r.bin, "default_ms": r.default_ms,
                    "optimized_ms": r.optimized_ms, "improvement_pct": r.improvement_pct
                })).collect::<Vec<_>>(),
                "total_improvement_pct": total.improvement_pct
            }
        }),
    )])
}
