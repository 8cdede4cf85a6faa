//! **Ablation** — wire efficiency of the compressed gradient formats
//! (docs/WIRE.md), written to `results/BENCH_wire.json`:
//!
//! - a **wire-byte sweep**: encoded bytes per [`WireFormat`] across the
//!   gradient size bins the selector distinguishes, asserting the headline
//!   claim — bf16 shrinks every >= 8 MiB bin by >= 1.8x,
//! - a traced virtual-time comparison of the overlapped 2-node profile:
//!   plain f32 vs hierarchical allreduce + bf16 wire + the (frozen) comm
//!   tuner, asserting exposed communication drops by >= 15%.
//!
//! Run: `cargo run --release -p dlsr -- figures --only ablation_wire`

use std::io::{self, Write};

use dlsr_cluster::analysis::traced_real_run;

use super::{json, Outputs, Sweeps};
use crate::prelude::*;
use crate::trace::report::StepReport;

const NODES: usize = 2; // 8 ranks
const STEPS: usize = 3;

/// Gradient size bins of the sweep, in dense f32 bytes.
const BINS: [u64; 5] = [256 << 10, 1 << 20, 8 << 20, 32 << 20, 128 << 20];

/// Paper-width EDSR body (F=64) truncated to 4 residual blocks: ~1.9 MB
/// of gradients whose individual tensors (148–590 KB) sit above the
/// 128 KiB `rd_threshold`, so communication is bandwidth-dominated and
/// the two-level hierarchy actually engages — unlike `EdsrConfig::tiny`
/// (22 KB total), which is pure latency and compresses to nothing.
fn model() -> EdsrConfig {
    EdsrConfig {
        n_resblocks: 4,
        ..EdsrConfig::paper()
    }
}

fn cfg(tune_comm: bool) -> RealTrainConfig {
    RealTrainConfig::builder()
        .model(model())
        .steps(STEPS)
        .global_batch(8)
        .overlap(true)
        // Horovod's out-of-box fusion threshold (64 MB) — the untuned
        // configuration the paper starts from (§II-D). It fuses the whole
        // gradient set into one message that can only launch once the
        // last gradient lands, so the allreduce is genuinely exposed and
        // the wire format / hierarchy / tuner have something to save.
        .fusion_threshold(64 << 20)
        .tune_comm(tune_comm)
        .build()
}

/// (virtual step time, mean exposed communication per rank) of one traced
/// overlapped run.
fn traced_exposed(mpi: MpiConfig, tune_comm: bool) -> (f64, f64) {
    let topo = ClusterTopology::lassen(NODES);
    if tune_comm {
        // Warm-up: explore and freeze the tuner so the traced run below
        // measures the tuned steady state, not the exploration sweep. The
        // run must outlast the candidate list (two steps per candidate:
        // settle + measure) for the decision to freeze and land in the
        // process-global table. That table is keyed by (world, gradient
        // bytes) and read only by `tune_comm` runs: no other row of
        // `dlsr figures` makes one, and a second run of this row finds the
        // same decision already frozen, so no row's bytes depend on it.
        let warmup = cfg(true).to_builder().steps(16).build();
        train_real(&topo, mpi.clone(), &warmup);
    }
    let run = traced_real_run(&topo, mpi, &cfg(tune_comm));
    let report = StepReport::build(&run.trace, &run.counters);
    let n = report.ranks.len() as f64;
    let exposed = report.ranks.iter().map(|r| r.exposed_comm_s).sum::<f64>() / n;
    (run.makespan / STEPS as f64, exposed)
}

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    // Part 1: encoded bytes per format and size bin.
    let mut sweep = Vec::new();
    for dense in BINS {
        let elems = (dense / 4) as usize;
        let mut formats = std::collections::BTreeMap::new();
        for wf in WireFormat::ALL {
            let bytes = wf.wire_bytes(elems);
            let ratio = dense as f64 / bytes as f64;
            formats.insert(
                wf.to_string(),
                serde_json::json!({
                    "wire_bytes": bytes,
                    "ratio": ratio,
                }),
            );
            if wf == WireFormat::Bf16 && dense >= 8 << 20 {
                assert!(
                    ratio >= 1.8,
                    "bf16 shrinks a {} MiB bin only {ratio:.2}x (< 1.8x)",
                    dense >> 20
                );
            }
        }
        sweep.push(serde_json::json!({
            "dense_bytes": dense,
            "formats": serde_json::Value::Object(formats),
        }));
    }

    // Part 2: overlapped 2-node profile, f32 vs hierarchy+bf16+tuner.
    let (f32_step, f32_exposed) = traced_exposed(MpiConfig::mpi_opt(), false);
    let wire_cfg = MpiConfig::mpi_opt()
        .to_builder()
        .wire(WireFormat::Bf16)
        .wire_threshold(0)
        .hierarchical(true)
        .build();
    let (wire_step, wire_exposed) = traced_exposed(wire_cfg, true);
    let drop = 1.0 - wire_exposed / f32_exposed;
    assert!(
        drop >= 0.15,
        "hierarchy+bf16+tuner dropped exposed comm only {:.1}% \
         ({:.3} ms -> {:.3} ms, >= 15% required)",
        drop * 100.0,
        f32_exposed * 1e3,
        wire_exposed * 1e3,
    );

    let file = json(
        "BENCH_wire.json",
        &serde_json::json!({
            "workload": {
                "model": "EDSR(B=4, F=64)",
                "grad_bytes": model().grad_bytes(),
                "nodes": NODES,
                "gpus": NODES * 4,
                "global_batch": 8,
                "steps": STEPS,
                "scenario": "mpi-opt",
            },
            "size_bins": sweep,
            "overlapped_f32": {
                "step_time_s": f32_step,
                "exposed_comm_s": f32_exposed,
            },
            "overlapped_hier_bf16_tuned": {
                "step_time_s": wire_step,
                "exposed_comm_s": wire_exposed,
            },
            "exposed_drop_frac": drop,
            "step_speedup": f32_step / wire_step,
        }),
    );
    writeln!(
        out,
        "exposed comm: {:.3} ms f32 -> {:.3} ms hier+bf16+tuned ({:.1}% drop)",
        f32_exposed * 1e3,
        wire_exposed * 1e3,
        drop * 100.0
    )?;
    Ok(vec![file])
}
