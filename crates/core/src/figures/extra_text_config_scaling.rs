//! **Extra** — what if the paper's EDSR really were the literal §IV-C
//! configuration (B=32, **F=64**)? Its full gradient set is only ~10 MB,
//! so every fused message sits *below* the 16 MB CUDA-IPC rendezvous
//! threshold — and the `MV2_VISIBLE_DEVICES` fix would change almost
//! nothing. The measured Table I bins (16–64 MB) and the real MPI-Opt gains
//! therefore imply the F=256 model; this harness makes that argument
//! quantitative (see EXPERIMENTS.md "Known deviations" #1).
//!
//! Run: `cargo run --release -p dlsr -- figures --only extra_text_config`

use std::io::{self, Write};

use super::{json, Outputs, Sweeps, Workload};
use crate::prelude::*;

pub fn run(sweeps: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    writeln!(
        out,
        "== what-if: the literal §IV-C EDSR (B=32, F=64, ~10 MB gradients) ==\n"
    )?;
    let (w, _) = Workload::EdsrText.load();
    writeln!(
        out,
        "workload: {} — {} params, {} MB of gradients\n",
        w.name,
        w.params,
        w.grad_bytes() >> 20
    )?;
    writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>9}",
        "GPUs", "MPI (img/s)", "Opt (img/s)", "Opt gain"
    )?;
    let mut rows = Vec::new();
    for &nodes in &[1usize, 8, 32, 128] {
        let d = sweeps.point(Workload::EdsrText, Scenario::MpiDefault, nodes);
        let o = sweeps.point(Workload::EdsrText, Scenario::MpiOpt, nodes);
        let gain = (o.images_per_sec / d.images_per_sec - 1.0) * 100.0;
        writeln!(
            out,
            "{:>6} {:>12.1} {:>12.1} {:>8.1}%",
            d.gpus, d.images_per_sec, o.images_per_sec, gain
        )?;
        rows.push(serde_json::json!({
            "gpus": d.gpus,
            "mpi_img_s": d.images_per_sec,
            "mpi_opt_img_s": o.images_per_sec,
            "gain_pct": gain,
        }));
        // the message-size evidence
        if nodes == 1 {
            write!(out, "\n{}\n", d.profile.render(Collective::Allreduce))?;
        }
    }
    writeln!(
        out,
        "with every fused message below the 16 MB IPC threshold, MPI-Opt's\n\
         gain is a few percent (registration cache only) — nothing like the\n\
         paper's 26 %. The measured results require the F=256 model."
    )?;

    Ok(vec![json(
        "extra_text_config.json",
        &serde_json::json!({ "rows": rows }),
    )])
}
