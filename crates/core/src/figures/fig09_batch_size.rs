//! **Fig 9** — Single-GPU batch-size evaluation for EDSR: throughput vs
//! batch size on a 16 GB V100, with the OOM ceiling. The paper selected
//! batch 4 from this sweep (throughput saturates early, and small batches
//! preserve convergence speed).
//!
//! Run: `cargo run --release -p dlsr -- figures --only fig09`

use std::io::{self, Write};

use super::{bar, json, Outputs, Sweeps};
use crate::prelude::*;

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let (workload, _) = edsr_measured_workload();
    let batches = [1usize, 2, 4, 8, 16, 24, 32, 48, 64];
    let sweep = batch_sweep(&workload, &batches);

    writeln!(
        out,
        "== Fig 9: EDSR single-GPU throughput vs batch size ==\n"
    )?;
    let best = sweep.iter().filter_map(|&(_, t)| t).fold(0.0f64, f64::max);
    writeln!(out, "{:>6} {:>12}", "batch", "img/s")?;
    let mut series = Vec::new();
    for &(b, t) in &sweep {
        match t {
            Some(t) => {
                writeln!(out, "{b:>6} {t:>12.2}   {}", bar(t, best, 40))?;
                series.push(serde_json::json!({ "batch": b, "img_s": t }));
            }
            None => {
                writeln!(out, "{b:>6} {:>12}   (16 GB exceeded)", "OOM")?;
                series.push(serde_json::json!({ "batch": b, "img_s": null }));
            }
        }
    }
    writeln!(
        out,
        "\nthe paper trains with batch 4 (§IV-C): throughput is already within"
    )?;
    let t4 = sweep
        .iter()
        .find(|&&(b, _)| b == 4)
        .and_then(|&(_, t)| t)
        .unwrap();
    writeln!(
        out,
        "{:.0} % of the saturated rate while keeping per-GPU batches small for",
        t4 / best * 100.0
    )?;
    writeln!(out, "convergence at scale.")?;

    Ok(vec![json(
        "fig09_results.json",
        &serde_json::json!({ "figure": "9", "series": series }),
    )])
}
