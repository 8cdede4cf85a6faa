//! Export a `HOROVOD_TIMELINE`-style Chrome trace of a few simulated EDSR
//! training steps (open `results/timeline_*.json` in `chrome://tracing` or
//! <https://ui.perfetto.dev>) — the visualization real Horovod users debug
//! overlap with.
//!
//! The events come from the cross-layer trace collector (negotiate,
//! per-group allreduce, fwd/bwd compute, wire transfers), exported through
//! the shared [`Sweeps::traced`] path.
//!
//! Run: `cargo run --release -p dlsr -- figures --only export_timeline`

use std::io::{self, Write};

use super::{Outputs, Sweeps, BATCH, SEED};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let mut files = Vec::new();
    for sc in [Scenario::MpiDefault, Scenario::MpiOpt] {
        let (run, report) = sweeps.traced(1, sc, BATCH, 1, 3, SEED);
        let tl = crate::trace::to_timeline(&run.trace);
        let name = format!(
            "timeline_{}_{}gpus.json",
            sc.label().to_lowercase().replace('-', "_"),
            run.gpus
        );
        writeln!(
            out,
            "{}: {} events, allreduce busy {:.1} ms, compute {:.1} ms -> {name}",
            sc.label(),
            tl.events().len(),
            tl.category_seconds(crate::trace::cat::ALLREDUCE) * 1e3,
            tl.category_seconds(crate::trace::cat::COMPUTE) * 1e3,
        )?;
        write!(out, "{}", report.render())?;
        writeln!(out)?;
        files.push((name, tl.to_chrome_trace().into_bytes()));
    }
    writeln!(
        out,
        "open the files in chrome://tracing or https://ui.perfetto.dev"
    )?;
    Ok(files)
}
