//! **Fig 14** — hvprof allreduce profile for 100 training steps of EDSR on
//! 4 GPUs, default MPI vs MPI-Opt, by message-size bin.
//!
//! Run: `cargo run --release -p dlsr -- figures --only fig14`

use std::io::{self, Write};

use dlsr_hvprof::BINS;

use super::{bar, json, Outputs, Sweeps, Workload, BATCH, SEED, WARMUP};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let steps = 100;
    writeln!(
        out,
        "== Fig 14: hvprof allreduce profile, {steps} steps of EDSR on 4 GPUs ==\n"
    )?;

    // one Lassen node: 4 GPUs, as in §III-B. Table I reads the same two runs.
    let profile = |sc| sweeps.run(Workload::EdsrMeasured, sc, 1, BATCH, WARMUP, steps, SEED);
    let (d, o) = (profile(Scenario::MpiDefault), profile(Scenario::MpiOpt));

    let db = d.profile.bin_seconds(Collective::Allreduce);
    let ob = o.profile.bin_seconds(Collective::Allreduce);
    let max = db.iter().chain(ob.iter()).copied().fold(0.0, f64::max);

    let mut series = Vec::new();
    for (i, &(name, _, _)) in BINS.iter().enumerate() {
        if db[i] == 0.0 && ob[i] == 0.0 {
            continue;
        }
        writeln!(
            out,
            "{name:>16}  default {:>8.1} ms  {}",
            db[i] * 1e3,
            bar(db[i], max, 32)
        )?;
        writeln!(
            out,
            "{:>16}  MPI-Opt {:>8.1} ms  {}",
            "",
            ob[i] * 1e3,
            bar(ob[i], max, 32)
        )?;
        series.push(serde_json::json!({
            "bin": name, "default_ms": db[i] * 1e3, "optimized_ms": ob[i] * 1e3
        }));
    }
    writeln!(
        out,
        "\ntotal: default {:.1} ms vs MPI-Opt {:.1} ms over {steps} steps",
        d.profile.total_seconds(Collective::Allreduce) * 1e3,
        o.profile.total_seconds(Collective::Allreduce) * 1e3
    )?;
    writeln!(
        out,
        "(see `figures --only table1` for the Table I presentation of this run)"
    )?;

    Ok(vec![json(
        "fig14_results.json",
        &serde_json::json!({ "figure": "14", "series": series }),
    )])
}
