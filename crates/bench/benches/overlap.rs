//! Sequential vs overlapped real 2-node EDSR training step.
//!
//! Two measurements, one file:
//!
//! - a criterion group `overlap` timing the *host* cost of the two paths
//!   (the hook-driven engine must not make the simulation itself slower),
//! - a traced virtual-time comparison — step time, exposed communication
//!   and overlap ratio per mode — written to `results/BENCH_overlap.json`
//!   so the perf trajectory has before/after data points.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use dlsr_cluster::{train_real, RealTrainConfig};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;

const NODES: usize = 2; // 8 ranks
const STEPS: usize = 3;

fn cfg(overlap: bool) -> RealTrainConfig {
    RealTrainConfig::builder()
        .steps(STEPS)
        .global_batch(8)
        .overlap(overlap)
        .build()
}

fn bench_overlap(c: &mut Criterion) {
    let topo = ClusterTopology::lassen(NODES);
    let mut group = c.benchmark_group("overlap");
    group.sample_size(10);
    for (label, overlap) in [("sequential", false), ("overlapped", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let res = train_real(&topo, MpiConfig::mpi_opt(), &cfg(overlap));
                black_box(res.makespan)
            })
        });
    }
    group.finish();
}

/// Traced run of one mode: (virtual step time, mean comm s, mean exposed
/// comm s per rank).
fn traced(overlap: bool) -> (f64, f64, f64) {
    let topo = ClusterTopology::lassen(NODES);
    dlsr::trace::set_enabled(true);
    dlsr::trace::reset();
    let res = train_real(&topo, MpiConfig::mpi_opt(), &cfg(overlap));
    dlsr::trace::set_enabled(false);
    let counters = dlsr::trace::counters_snapshot();
    dlsr::trace::reset();
    let report = dlsr::trace::report::StepReport::build(&res.trace, &counters);
    let n = report.ranks.len() as f64;
    let comm = report.ranks.iter().map(|r| r.comm_s).sum::<f64>() / n;
    let exposed = report.ranks.iter().map(|r| r.exposed_comm_s).sum::<f64>() / n;
    (res.makespan / STEPS as f64, comm, exposed)
}

fn write_overlap_results() {
    let (seq_step, seq_comm, seq_exposed) = traced(false);
    let (ovl_step, ovl_comm, ovl_exposed) = traced(true);
    let mode = |step: f64, comm: f64, exposed: f64| {
        serde_json::json!({
            "step_time_s": step,
            "images_per_sec": 8.0 / step,
            "comm_s": comm,
            "exposed_comm_s": exposed,
            "overlap_ratio": if comm > 0.0 { 1.0 - exposed / comm } else { 0.0 },
        })
    };
    let value = serde_json::json!({
        "workload": {
            "model": "EDSR(tiny)",
            "nodes": NODES,
            "gpus": NODES * 4,
            "global_batch": 8,
            "steps": STEPS,
            "scenario": "mpi-opt",
        },
        "sequential": mode(seq_step, seq_comm, seq_exposed),
        "overlapped": mode(ovl_step, ovl_comm, ovl_exposed),
        "exposed_drop_frac": if seq_exposed > 0.0 { 1.0 - ovl_exposed / seq_exposed } else { 0.0 },
        "step_speedup": seq_step / ovl_step,
    });
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_overlap.json"
    );
    std::fs::write(
        path,
        serde_json::to_string_pretty(&value).expect("serialize"),
    )
    .expect("write BENCH_overlap.json");
    println!("[results written to {path}]");
    println!(
        "virtual step: {:.3} ms sequential -> {:.3} ms overlapped; exposed comm {:.3} -> {:.3} ms",
        seq_step * 1e3,
        ovl_step * 1e3,
        seq_exposed * 1e3,
        ovl_exposed * 1e3
    );
}

criterion_group!(benches, bench_overlap);

fn main() {
    write_overlap_results();
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
}
