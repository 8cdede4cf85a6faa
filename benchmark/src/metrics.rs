//! Every metric the benchmark reports: name, unit, direction, regression
//! bound, and — for per-layer metrics — the prediction of which end-to-end
//! metric it should move on which workload. `BENCHMARK.json` repeats the
//! name/unit/direction/bound columns of [`END_TO_END`] and [`PER_LAYER`] (a
//! unit test holds the two equal); the predictions and [`PLAIN_ONLY`] live
//! here and in `README.md` because `BENCHMARK.json`'s schema has no field
//! for them.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `--compare` says `worse`. Per-layer metrics carry one only where the
    /// value repeats exactly run to run (simulated time, loss).
    pub bound: Option<f64>,
    /// `(end-to-end metric or virtual metric, workload)` this metric is
    /// predicted to move. Empty for end-to-end metrics.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: &[],
    }
}

use Better::{Higher as Up, Lower as Down};

/// Workload names (permanent; later issues cite them).
pub const EDSR: &str = "edsr_step_1rank";
pub const TINY: &str = "tiny_train_4rank";
pub const LADDER: &str = "allreduce_ladder_8rank";
pub const W512: &str = "sim_world_512";
pub const SWEEP: &str = "sim_sweep_small";

pub const WORKLOADS: [(&str, &str); 5] = [
    (EDSR, "single-worker EDSR(B=4,F=64,x2) step, batch 4, 48x48 patches, L1+Adam: all time in tensor/nn/models, comm layers idle"),
    (TINY, "train_real on 4 rank contexts, 23 KB of real gradients: control plane, fusion/overlap and hand-offs dominate, compute is small"),
    (LADDER, "real f32 and bf16 payloads 4 KiB..32 MiB over 8 ranks: copy/reduce/encode bandwidth of mpi, few large messages"),
    (W512, "the paper's 512-GPU scale, costs-only: driven engine, collective tasks, negotiate and net cost models; zero tensor math"),
    (SWEEP, "80 worlds of 4..64 ranks over all four scenarios: per-world fixed costs weigh most, routing is cheap; covers NCCL and regcache/IPC-off"),
];

pub const ALL: &[&str] = &[EDSR, TINY, LADDER, W512, SWEEP];

/// The plain run's result line. The driver wants every one of these from
/// every workload, never 0 and never the same time twice, so they are the
/// host-side numbers that exist on all five; `work_per_s` is the workload's
/// throughput metric (below) taken at the fastest op.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Down, 0.25),
    e2e("op_ms_min", "ms", Down, 0.25),
    e2e("work_per_s", "1/s", Up, 0.25),
    e2e("peak_rss_mb", "MiB", Down, 0.20),
];

/// The issue's end-to-end metrics that the result line cannot carry: they
/// exist on some workloads only, or spread wider than any bound the driver
/// allows. The plain run prints them and stores them under `info.metrics`;
/// `--compare` holds them to these bounds (the issue's: 10 % on wall
/// numbers, and `unresolved` where the runs spread wider).
pub const PLAIN_ONLY: &[Def] = &[
    e2e("setup_cold_s", "s", Down, 0.10),
    e2e("op_ms_p50", "ms", Down, 0.10),
    e2e("op_ms_p75", "ms", Down, 0.10),
    e2e("images_per_s", "img/s", Up, 0.10),
    e2e("rank_steps_per_s", "1/s", Up, 0.10),
    e2e("allreduce_mb_per_s", "MiB/s", Up, 0.10),
];

/// The program's own outputs: simulated time, scaling efficiency, loss.
/// End-to-end metrics by the issue, bit-exact run to run; the plain run
/// reports them beside [`PLAIN_ONLY`], and the traced run's result line
/// carries them too (they head [`PER_LAYER`]) so the driver records them.
pub const OUTPUTS: [&str; 4] = [
    "virtual_step_ms",
    "scaling_efficiency_pct",
    "virtual_allreduce_ms",
    "final_loss",
];

/// The workloads whose plain run reports `metric` (the issue's table).
pub fn plain_workloads(metric: &str) -> &'static [&'static str] {
    match metric {
        "images_per_s" | "final_loss" => &[EDSR, TINY],
        "rank_steps_per_s" => &[W512, SWEEP],
        "allreduce_mb_per_s" | "virtual_allreduce_ms" => &[LADDER],
        "virtual_step_ms" => &[TINY, W512],
        "scaling_efficiency_pct" => &[W512],
        _ => ALL,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static [(&'static str, &'static str)],
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        moves,
    }
}

// A prediction on a throughput metric is one on `work_per_s` and
// `op_ms_min` of the same workload too.
const EDSR_SPEED: &[(&str, &str)] = &[("images_per_s", EDSR), ("op_ms_p50", EDSR)];
const TINY_SPEED: &[(&str, &str)] = &[("images_per_s", TINY)];
const LADDER_SPEED: &[(&str, &str)] = &[("allreduce_mb_per_s", LADDER)];
const LADDER_VIRTUAL: &[(&str, &str)] = &[("virtual_allreduce_ms", LADDER)];
const W512_SPEED: &[(&str, &str)] = &[("rank_steps_per_s", W512)];
const SWEEP_SPEED: &[(&str, &str)] = &[("rank_steps_per_s", SWEEP)];
const SIM_SPEED: &[(&str, &str)] = &[("rank_steps_per_s", W512), ("rank_steps_per_s", SWEEP)];
const W512_VIRTUAL: &[(&str, &str)] =
    &[("virtual_step_ms", W512), ("scaling_efficiency_pct", W512)];

/// Single-layer numbers, reported by the traced run. A metric reads 0 on a
/// workload whose traced run does not enter that layer.
pub const PER_LAYER: &[Def] = &[
    // `OUTPUTS`: not in `END_TO_END` because no workload has all four
    // (`edsr_step_1rank` has no simulated clock, the `sim_*` no loss) and
    // the result line wants every end-to-end metric from every workload.
    exact("virtual_step_ms", "ms", Down, 0.005, &[]),
    exact("scaling_efficiency_pct", "%", Up, 0.005, &[]),
    exact("virtual_allreduce_ms", "ms", Down, 0.005, &[]),
    exact("final_loss", "L1", Down, 0.02, &[]),
    // tensor → edsr_step_1rank only; predicted no change on both sim_*
    layer("tensor.gemm_body_gflops", "GFLOP/s", Up, EDSR_SPEED),
    layer("tensor.gemm_wgrad_gflops", "GFLOP/s", Up, EDSR_SPEED),
    layer("tensor.gemm_dgrad_gflops", "GFLOP/s", Up, EDSR_SPEED),
    layer("tensor.gemm_rgb_gflops", "GFLOP/s", Up, EDSR_SPEED),
    layer("tensor.gemm_up_gflops", "GFLOP/s", Up, EDSR_SPEED),
    layer("tensor.conv_fwd_ms", "ms", Down, EDSR_SPEED),
    layer("tensor.conv_bwd_ms", "ms", Down, EDSR_SPEED),
    layer("tensor.conv_fwd_gemm_ratio_pct", "%", Up, EDSR_SPEED),
    layer("tensor.scratch_alloc_events", "count", Down, EDSR_SPEED),
    // nn → same target
    layer("nn.resblock_fwd_ms", "ms", Down, EDSR_SPEED),
    layer("nn.resblock_bwd_ms", "ms", Down, EDSR_SPEED),
    layer("nn.glue_share_pct", "%", Down, EDSR_SPEED),
    layer("nn.adam_step_ms", "ms", Down, EDSR_SPEED),
    layer("nn.l1_loss_ms", "ms", Down, EDSR_SPEED),
    // models → same target
    layer("models.forward_ms", "ms", Down, EDSR_SPEED),
    layer("models.backward_ms", "ms", Down, EDSR_SPEED),
    layer("models.achieved_gflops", "GFLOP/s", Up, EDSR_SPEED),
    layer("models.peak_ratio_pct", "%", Up, EDSR_SPEED),
    // data
    layer("data.batch_ms", "ms", Down, &[("op_ms_p50", EDSR)]),
    layer("data.dataset_build_ms", "ms", Down, &[("setup_s", TINY)]),
    // horovod
    layer("horovod.broadcast_ms", "ms", Down, TINY_SPEED),
    layer("horovod.backward_and_step_ms", "ms", Down, TINY_SPEED),
    layer("horovod.sync_self_ms", "ms", Down, TINY_SPEED),
    layer("horovod.fusion_groups", "count", Down, TINY_SPEED),
    layer("horovod.plan_fusion_us", "us", Down, SWEEP_SPEED),
    layer("horovod.negotiate_host_us_w64", "us", Down, SIM_SPEED),
    layer("horovod.negotiate_host_us_w512", "us", Down, W512_SPEED),
    exact(
        "horovod.negotiate_virtual_us_w64",
        "us",
        Down,
        0.005,
        W512_VIRTUAL,
    ),
    exact(
        "horovod.negotiate_virtual_us_w512",
        "us",
        Down,
        0.005,
        W512_VIRTUAL,
    ),
    // mpi
    layer("mpi.world_spawn_ms_w4", "ms", Down, TINY_SPEED),
    layer("mpi.world_spawn_ms_w8", "ms", Down, LADDER_SPEED),
    layer("mpi.driven_spawn_ms_w512", "ms", Down, W512_SPEED),
    layer(
        "mpi.p2p_roundtrip_host_us",
        "us",
        Down,
        &[("allreduce_mb_per_s", LADDER), ("images_per_s", TINY)],
    ),
    layer("mpi.allreduce_host_us_4k", "us", Down, LADDER_SPEED),
    layer("mpi.allreduce_host_us_256k", "us", Down, LADDER_SPEED),
    layer("mpi.allreduce_host_us_4m", "us", Down, LADDER_SPEED),
    layer("mpi.allreduce_host_us_32m", "us", Down, LADDER_SPEED),
    layer("mpi.allreduce_host_us_4m_bf16", "us", Down, LADDER_SPEED),
    layer("mpi.allreduce_host_us_32m_bf16", "us", Down, LADDER_SPEED),
    exact(
        "mpi.allreduce_virtual_us_4k",
        "us",
        Down,
        0.005,
        LADDER_VIRTUAL,
    ),
    exact(
        "mpi.allreduce_virtual_us_256k",
        "us",
        Down,
        0.005,
        LADDER_VIRTUAL,
    ),
    exact(
        "mpi.allreduce_virtual_us_4m",
        "us",
        Down,
        0.005,
        LADDER_VIRTUAL,
    ),
    exact(
        "mpi.allreduce_virtual_us_32m",
        "us",
        Down,
        0.005,
        LADDER_VIRTUAL,
    ),
    exact(
        "mpi.allreduce_virtual_us_4m_bf16",
        "us",
        Down,
        0.005,
        LADDER_VIRTUAL,
    ),
    exact(
        "mpi.allreduce_virtual_us_32m_bf16",
        "us",
        Down,
        0.005,
        LADDER_VIRTUAL,
    ),
    layer("mpi.bf16_host_ratio_32m", "ratio", Down, LADDER_SPEED),
    exact(
        "mpi.bf16_virtual_ratio_32m",
        "ratio",
        Down,
        0.005,
        LADDER_VIRTUAL,
    ),
    layer(
        "mpi.driven_allreduce_host_us_per_rank_w64",
        "us",
        Down,
        SIM_SPEED,
    ),
    layer(
        "mpi.driven_allreduce_host_us_per_rank_w512",
        "us",
        Down,
        W512_SPEED,
    ),
    layer(
        "mpi.driven_cost_growth_512_over_64",
        "ratio",
        Down,
        W512_SPEED,
    ),
    exact("mpi.sends_per_step", "count", Down, 0.0, TINY_SPEED),
    exact("mpi.bytes_per_step", "B", Down, 0.0, TINY_SPEED),
    // net → virtual metrics only, except the host cost of one evaluation
    exact("net.regcache_hit_pct", "%", Up, 0.005, W512_VIRTUAL),
    exact("net.ib_bytes_share_pct", "%", Down, 0.005, LADDER_VIRTUAL),
    exact("net.nvlink_bytes_share_pct", "%", Up, 0.005, LADDER_VIRTUAL),
    layer("net.transfer_cost_ns", "ns", Down, W512_SPEED),
    // gpu
    exact(
        "gpu.virtual_compute_ms",
        "ms",
        Down,
        0.005,
        &[("virtual_step_ms", W512)],
    ),
    layer("gpu.cost_model_us", "us", Down, SWEEP_SPEED),
    // nccl → sim_sweep_small only
    layer("nccl.sweep_share_pct", "%", Down, SWEEP_SPEED),
    exact("nccl.virtual_step_ms_w64", "ms", Down, 0.005, &[]),
    // hvprof
    layer("hvprof.artifacts_overhead_pct_w512", "%", Down, W512_SPEED),
    exact(
        "hvprof.allreduce_virtual_ms_large",
        "ms",
        Down,
        0.005,
        &[("virtual_step_ms", W512)],
    ),
    // cluster
    layer("cluster.trainer_new_us", "us", Down, SIM_SPEED),
    layer("cluster.single_gpu_ref_ms", "ms", Down, SIM_SPEED),
    layer("cluster.run_world_ms_w512", "ms", Down, W512_SPEED),
    layer("cluster.host_us_per_rank_step_w64", "us", Down, SIM_SPEED),
    layer("cluster.host_us_per_rank_step_w512", "us", Down, W512_SPEED),
    layer(
        "cluster.host_us_per_rank_step_w1024",
        "us",
        Down,
        W512_SPEED,
    ),
    layer(
        "cluster.rank_step_cost_growth_512_over_64",
        "ratio",
        Down,
        W512_SPEED,
    ),
    layer("cluster.sweep_setup_share_pct", "%", Down, SWEEP_SPEED),
    // the harness itself
    layer("bench.trace_overhead_pct", "%", Down, &[]),
    layer("bench.span_coverage_pct", "%", Up, &[]),
    layer("bench.calibration_ms", "ms", Down, &[]),
];

/// Every definition: the two result lines' tables and `PLAIN_ONLY`.
pub fn all() -> impl Iterator<Item = &'static Def> {
    END_TO_END.iter().chain(PLAIN_ONLY).chain(PER_LAYER)
}

pub fn find(name: &str) -> Option<&'static Def> {
    all().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in all() {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        for (output, head) in OUTPUTS.iter().zip(PER_LAYER) {
            assert_eq!(*output, head.name, "the outputs head PER_LAYER");
        }
    }

    #[test]
    fn every_prediction_names_a_real_metric_and_workload() {
        for d in PER_LAYER {
            for (metric, workload) in d.moves {
                assert!(
                    find(metric).is_some(),
                    "{}: unknown metric {metric}",
                    d.name
                );
                assert!(
                    plain_workloads(metric).contains(workload),
                    "{}: {workload} does not report {metric}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_repeats_this_table() {
        let b = benchmark_json();
        let rows = |key: &str| b[key].as_array().expect(key).clone();
        let check = |rows: Vec<Value>, defs: &[Def], bounded: bool| {
            assert_eq!(rows.len(), defs.len());
            for (row, d) in rows.iter().zip(defs) {
                assert_eq!(row["name"].as_str(), Some(d.name));
                assert_eq!(row["unit"].as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    row["better"].as_str(),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                if bounded {
                    assert_eq!(row["bound"].as_f64(), d.bound, "{}", d.name);
                }
            }
        };
        check(rows("end_to_end"), END_TO_END, true);
        check(rows("per_layer"), PER_LAYER, false);
        let names: Vec<_> = rows("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name").to_string())
            .collect();
        assert_eq!(names, WORKLOADS.map(|(n, _)| n.to_string()));
        assert_eq!(b["paths"][0].as_str(), Some("benchmark"));
    }
}
