//! **Simulator scaling** — the paper-scale costs-only workload under
//! MPI-Opt on the driven engine: virtual step time and weak-scaling
//! efficiency at 64–512 virtual ranks (Figs 12/13's upper half) plus one
//! warmup-free step at 4096 ranks, written to
//! `results/BENCH_simscale.json`. What the sweep costs the *host* is the
//! benchmark's to measure (benchmark/README.md).
//!
//! Run: `cargo run --release -p dlsr -- figures --only simscale`

use std::io::{self, Write};

use dlsr_cluster::simscale::{sweep, DEFAULT_NODES};

use super::{Outputs, Sweeps, BATCH, SEED};
use crate::prelude::*;

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let (sc, warmup, steps) = (Scenario::MpiOpt, 1, 4);
    writeln!(
        out,
        "simulator scaling: {steps} steps (+{warmup} warmup) of the paper-scale EDSR \
         workload under {}, worlds {:?} ranks",
        sc.label(),
        DEFAULT_NODES.map(|n| n * 4),
    )?;
    let report = sweep(sc, BATCH, warmup, steps, SEED, &DEFAULT_NODES);
    for (label, p) in report
        .event
        .iter()
        .map(|p| ("event", p))
        .chain([("smoke", &report.smoke)])
    {
        writeln!(
            out,
            "  {label:>8} {:>5} ranks: virtual step {:>8.1} ms, eff {:>5.1} %",
            p.world,
            p.virtual_step_s * 1e3,
            p.efficiency * 100.0,
        )?;
    }
    Ok(vec![(
        "BENCH_simscale.json".to_string(),
        report.to_json().into_bytes(),
    )])
}
