//! Experiment runners: throughput, scaling efficiency, batch sweeps.

use dlsr_gpu::{GpuSpec, KernelCostModel, WorkloadProfile};
use dlsr_horovod::TensorSpec;
use dlsr_hvprof::Hvprof;
use dlsr_mpi::{MpiConfig, MpiWorld, WorldResult};
use dlsr_net::ClusterTopology;

use crate::scenario::Scenario;
use crate::sim::{RankRun, SimTrainer};

/// Run a trainer on every rank of `topo` on the zero-thread driven
/// engine (one thread, no locks, scales to 4096 ranks).
pub fn run_world(
    topo: &ClusterTopology,
    cfg: MpiConfig,
    trainer: &SimTrainer,
    warmup: usize,
    steps: usize,
) -> WorldResult<RankRun> {
    MpiWorld::run_driven(topo, cfg, |_| trainer.program(warmup, steps))
}

/// Result of one distributed training measurement.
#[derive(Debug, Clone)]
pub struct TrainRun {
    /// Scenario evaluated.
    pub scenario: Scenario,
    /// Total GPUs.
    pub gpus: usize,
    /// Aggregate training throughput (images/second, all GPUs).
    pub images_per_sec: f64,
    /// Scaling efficiency vs. a single GPU: `T_N / (N · T_1)`.
    pub efficiency: f64,
    /// Average step time (seconds).
    pub step_time: f64,
    /// Rank 0's allreduce profile over the measured window.
    pub profile: Hvprof,
    /// Registration-cache statistics of a node-leader rank (rank 0).
    pub regcache: dlsr_net::RegCacheStats,
    /// Registration-cache hit rate of a node-leader rank.
    pub regcache_hit_rate: f64,
    /// Merged HOROVOD_TIMELINE-style trace (all ranks, measured window).
    pub timeline: dlsr_hvprof::Timeline,
    /// Structured trace spans from every rank over the measured window
    /// (empty unless a `dlsr-trace` sink is in scope).
    pub trace: Vec<dlsr_trace::TraceEvent>,
}

/// Single-GPU reference throughput (images/second) including the jitter
/// model's mean effect — the denominator of scaling efficiency.
pub fn single_gpu_throughput(
    workload: &WorkloadProfile,
    tensors: &[TensorSpec],
    batch: usize,
    seed: u64,
) -> f64 {
    let topo = ClusterTopology {
        name: "single".into(),
        nodes: 1,
        gpus_per_node: 1,
    };
    let trainer = SimTrainer::new(
        workload.clone(),
        tensors.to_vec(),
        batch,
        Scenario::MpiOpt,
        &topo,
        seed,
    )
    .expect("single-GPU batch must fit");
    let warmup = 2;
    let steps = 20;
    let res = run_world(
        &topo,
        Scenario::MpiOpt.mpi_config(),
        &trainer,
        warmup,
        steps,
    );
    let r = &res.ranks[0];
    batch as f64 * steps as f64 / (r.end - r.warm_end)
}

/// Run one distributed training measurement.
#[allow(clippy::too_many_arguments)]
pub fn run_training(
    topo: &ClusterTopology,
    scenario: Scenario,
    workload: &WorkloadProfile,
    tensors: &[TensorSpec],
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
) -> TrainRun {
    let trainer = SimTrainer::new(
        workload.clone(),
        tensors.to_vec(),
        batch,
        scenario,
        topo,
        seed,
    )
    .expect("per-GPU batch must fit in device memory");
    run_with_trainer(
        topo,
        scenario,
        scenario.mpi_config(),
        workload,
        tensors,
        trainer,
        batch,
        warmup,
        steps,
        seed,
    )
}

/// [`run_training`] with explicit Horovod tuning knobs (for the
/// fusion/cycle ablations).
#[allow(clippy::too_many_arguments)]
pub fn run_training_tuned(
    topo: &ClusterTopology,
    scenario: Scenario,
    workload: &WorkloadProfile,
    tensors: &[TensorSpec],
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
    hcfg: dlsr_horovod::HorovodConfig,
) -> TrainRun {
    let trainer = SimTrainer::with_horovod_config(
        workload.clone(),
        tensors.to_vec(),
        batch,
        scenario,
        topo,
        seed,
        hcfg,
    )
    .expect("per-GPU batch must fit in device memory");
    run_with_trainer(
        topo,
        scenario,
        scenario.mpi_config(),
        workload,
        tensors,
        trainer,
        batch,
        warmup,
        steps,
        seed,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_with_trainer(
    topo: &ClusterTopology,
    scenario: Scenario,
    cfg: MpiConfig,
    workload: &WorkloadProfile,
    tensors: &[TensorSpec],
    trainer: SimTrainer,
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
) -> TrainRun {
    let world = topo.total_gpus();
    let res = run_world(topo, cfg, &trainer, warmup, steps);
    // Measured window: slowest rank bounds both edges (synchronous SGD).
    let warm_end = res.ranks.iter().map(|r| r.warm_end).fold(0.0, f64::max);
    let end = res.ranks.iter().map(|r| r.end).fold(0.0, f64::max);
    let elapsed = end - warm_end;
    let images_per_sec = (world * batch * steps) as f64 / elapsed;
    let t1 = single_gpu_throughput(workload, tensors, batch, seed);
    let (profile, regcache, timeline, trace) = assemble_artifacts(res.ranks);
    TrainRun {
        scenario,
        gpus: world,
        images_per_sec,
        efficiency: images_per_sec / (world as f64 * t1),
        step_time: elapsed / steps as f64,
        profile,
        regcache,
        regcache_hit_rate: regcache.hit_rate(),
        timeline,
        trace,
    }
}

/// A run's diagnostic artifacts from its per-rank results: rank 0's
/// profile and registration-cache statistics, every rank's timeline events
/// and trace spans. Events and spans are moved, not cloned — one allocation
/// for the merged timeline, each rank's buffer freed as soon as it is
/// absorbed — and start-time order is left to the timeline's export, so
/// this is linear in the event count.
pub(crate) fn assemble_artifacts(
    mut ranks: Vec<RankRun>,
) -> (
    Hvprof,
    dlsr_net::RegCacheStats,
    dlsr_hvprof::Timeline,
    Vec<dlsr_trace::TraceEvent>,
) {
    let profile = std::mem::take(&mut ranks[0].prof);
    let regcache = ranks[0].reg;
    let n_events = ranks.iter().map(|r| r.timeline.events().len()).sum();
    let mut timeline = dlsr_hvprof::Timeline::with_capacity(n_events);
    let mut trace = Vec::new();
    for r in ranks {
        timeline.absorb(r.timeline);
        trace.extend(r.trace);
    }
    (profile, regcache, timeline, trace)
}

/// One point of a scaling study.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// GPU count.
    pub gpus: usize,
    /// Aggregate images/second.
    pub images_per_sec: f64,
    /// Scaling efficiency vs. one GPU.
    pub efficiency: f64,
}

/// Sweep node counts for one scenario (Figs 10–13).
#[allow(clippy::too_many_arguments)]
pub fn scaling_sweep(
    node_counts: &[usize],
    scenario: Scenario,
    workload: &WorkloadProfile,
    tensors: &[TensorSpec],
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
) -> Vec<ScalingPoint> {
    node_counts
        .iter()
        .map(|&nodes| {
            let topo = ClusterTopology::lassen(nodes);
            let run = run_training(
                &topo, scenario, workload, tensors, batch, warmup, steps, seed,
            );
            ScalingPoint {
                gpus: run.gpus,
                images_per_sec: run.images_per_sec,
                efficiency: run.efficiency,
            }
        })
        .collect()
}

/// Single-GPU batch-size sweep (Fig 9): throughput per batch, `None` where
/// the batch OOMs on a 16 GB V100.
pub fn batch_sweep(workload: &WorkloadProfile, batches: &[usize]) -> Vec<(usize, Option<f64>)> {
    let model = KernelCostModel::new(GpuSpec::v100());
    batches
        .iter()
        .map(|&b| (b, model.throughput(workload, b, 1).ok()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::edsr_measured_workload;

    #[test]
    fn four_gpu_run_beats_one_gpu_but_not_linearly() {
        let (w, tensors) = edsr_measured_workload();
        let topo = ClusterTopology::lassen(1);
        let run = run_training(&topo, Scenario::MpiOpt, &w, &tensors, 4, 1, 5, 7);
        assert_eq!(run.gpus, 4);
        let t1 = single_gpu_throughput(&w, &tensors, 4, 7);
        assert!(
            run.images_per_sec > 2.0 * t1,
            "not scaling: {} vs {t1}",
            run.images_per_sec
        );
        assert!(run.efficiency < 1.02, "superlinear: {}", run.efficiency);
        assert!(
            run.efficiency > 0.6,
            "efficiency collapsed: {}",
            run.efficiency
        );
    }

    #[test]
    fn mpi_opt_beats_default_at_multi_node_scale() {
        let (w, tensors) = edsr_measured_workload();
        let topo = ClusterTopology::lassen(4); // 16 GPUs
        let d = run_training(&topo, Scenario::MpiDefault, &w, &tensors, 4, 1, 5, 7);
        let o = run_training(&topo, Scenario::MpiOpt, &w, &tensors, 4, 1, 5, 7);
        assert!(
            o.images_per_sec > d.images_per_sec,
            "MPI-Opt {} <= default {}",
            o.images_per_sec,
            d.images_per_sec
        );
    }

    #[test]
    fn batch_sweep_rises_then_ooms() {
        let (w, _) = edsr_measured_workload();
        let sweep = batch_sweep(&w, &[1, 2, 4, 8, 16, 32, 64]);
        assert!(sweep[0].1.is_some());
        let t1 = sweep[0].1.unwrap();
        let t16 = sweep[4].1.expect("batch 16 fits");
        assert!(t16 > t1);
        assert!(sweep[6].1.is_none(), "batch 64 must OOM");
    }

    #[test]
    fn regcache_hit_rate_is_high_for_mpi_reg() {
        let (w, tensors) = edsr_measured_workload();
        let topo = ClusterTopology::lassen(2);
        let run = run_training(&topo, Scenario::MpiReg, &w, &tensors, 4, 1, 6, 7);
        assert!(
            run.regcache_hit_rate > 0.85,
            "hit rate {} (paper: 93 %)",
            run.regcache_hit_rate
        );
    }
}
