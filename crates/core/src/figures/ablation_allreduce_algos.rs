//! **Ablation** — why MVAPICH2-GDR's hierarchical (two-level) allreduce is
//! the right design for dense GPU nodes: virtual-time comparison of ring,
//! recursive doubling and two-level across message sizes and scales.
//!
//! Run: `cargo run --release -p dlsr -- figures --only ablation_allreduce_algos`

use std::io::{self, Write};

use super::{json, Outputs, Sweeps};
use crate::mpi::CollectiveBuf;
use crate::prelude::*;

fn time_allreduce(topo: &ClusterTopology, elems: usize, algo: AllreduceAlgorithm) -> f64 {
    MpiWorld::run(topo, MpiConfig::mpi_opt(), move |c| {
        let costs_only = || {
            Allreduce::new(CollectiveBuf::costs_only(elems))
                .buf_id(1)
                .algo(algo)
                .wire(WireFormat::F32)
        };
        // warm up registrations, then measure a steady-state reduction
        costs_only().run(c);
        let t0 = c.now();
        costs_only().run(c);
        c.now() - t0
    })
    .clocks
    .iter()
    .copied()
    .fold(0.0, f64::max)
}

pub fn run(_: &Sweeps, out: &mut dyn Write) -> io::Result<Outputs> {
    writeln!(
        out,
        "== allreduce algorithm ablation (virtual ms, steady state) ==\n"
    )?;
    let algos = [
        ("ring", AllreduceAlgorithm::Ring),
        ("recursive-dbl", AllreduceAlgorithm::RecursiveDoubling),
        ("two-level", AllreduceAlgorithm::TwoLevel),
    ];
    let mut rows = Vec::new();
    for &nodes in &[1usize, 4, 16, 64] {
        let topo = ClusterTopology::lassen(nodes);
        writeln!(out, "-- {} GPUs --", topo.total_gpus())?;
        writeln!(
            out,
            "{:>10} {:>14} {:>14} {:>14}",
            "size", algos[0].0, algos[1].0, algos[2].0
        )?;
        for &elems in &[4_096usize, 262_144, 12_000_000] {
            let times: Vec<f64> = algos
                .iter()
                .map(|&(_, a)| time_allreduce(&topo, elems, a))
                .collect();
            writeln!(
                out,
                "{:>8}KB {:>12.3}ms {:>12.3}ms {:>12.3}ms{}",
                elems * 4 / 1024,
                times[0] * 1e3,
                times[1] * 1e3,
                times[2] * 1e3,
                {
                    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
                    let winner = algos[times.iter().position(|&t| t == min).unwrap()].0;
                    format!("   <- {winner}")
                }
            )?;
            rows.push(serde_json::json!({
                "gpus": topo.total_gpus(),
                "bytes": elems * 4,
                "ring_ms": times[0] * 1e3,
                "recursive_doubling_ms": times[1] * 1e3,
                "two_level_ms": times[2] * 1e3,
            }));
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "recursive doubling wins latency-bound (small) reductions; the flat\n\
         ring is bandwidth-optimal for large buffers at moderate scale (which\n\
         is why NCCL uses it); the hierarchical two-level design pays off at\n\
         extreme rank counts, where the ring's 2(p−1) per-step latencies and\n\
         per-chunk costs dominate — the regime where MPI-Opt overtakes NCCL\n\
         in Fig 12."
    )?;

    Ok(vec![json(
        "ablation_allreduce_algos.json",
        &serde_json::json!({ "rows": rows }),
    )])
}
