//! **Fig 1** — Single-node training performance for classification
//! (ResNet-50) and super-resolution (EDSR) on one V100.
//!
//! Paper anchors: ResNet-50 ≈ 360 img/s (batch 64 @ 224²),
//! EDSR ≈ 10.3 img/s (batch 4, the paper-measured configuration).
//!
//! Run: `cargo run --release -p dlsr -- figures --only fig01`

use std::io::{self, Write};

use super::{bar, json, Outputs, Sweeps};
use crate::prelude::*;

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    let model = KernelCostModel::new(GpuSpec::v100());
    let (edsr, _) = edsr_measured_workload();
    let resnet = resnet50_workload();

    let t_edsr = model.throughput(&edsr, 4, 1).expect("EDSR batch 4 fits");
    let t_resnet = model
        .throughput(&resnet, 64, 1)
        .expect("ResNet batch 64 fits");
    let mem_edsr = model.memory_required(&edsr, 4, 1) as f64 / (1 << 30) as f64;
    let mem_resnet = model.memory_required(&resnet, 64, 1) as f64 / (1 << 30) as f64;

    writeln!(out, "== Fig 1: single-V100 training throughput ==\n")?;
    writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>10}",
        "model", "batch", "img/s", "mem (GiB)"
    )?;
    writeln!(
        out,
        "{:<28} {:>10} {:>12.1} {:>10.1}   {}",
        "ResNet-50 @224",
        64,
        t_resnet,
        mem_resnet,
        bar(t_resnet, t_resnet, 40)
    )?;
    writeln!(
        out,
        "{:<28} {:>10} {:>12.1} {:>10.1}   {}",
        "EDSR (B32,F256,x2) @48 LR",
        4,
        t_edsr,
        mem_edsr,
        bar(t_edsr, t_resnet, 40)
    )?;
    writeln!(
        out,
        "\nratio: {:.1}× — the paper's motivation: SR training is dramatically",
        t_resnet / t_edsr
    )?;
    writeln!(
        out,
        "more expensive per image than classification (paper: 360 vs 10.3 img/s)."
    )?;

    Ok(vec![json(
        "fig01_results.json",
        &serde_json::json!({
            "figure": "1",
            "paper": { "resnet50_img_s": 360.0, "edsr_img_s": 10.3 },
            "measured": { "resnet50_img_s": t_resnet, "edsr_img_s": t_edsr },
        }),
    )])
}
