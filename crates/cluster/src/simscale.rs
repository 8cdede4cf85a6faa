//! Simulator-scaling sweep: the paper-scale costs-only workload pushed
//! through 64–4096 virtual ranks on the driven engine, behind
//! `dlsr figures --only simscale`.
//!
//! Everything in a [`SimScaleReport`] is on the simulated clock, so it is
//! bitwise machine-independent: `results/BENCH_simscale.json` is committed
//! output that CI checks with `dlsr figures --check`. What the sweep costs the *host*
//! (per rank-step, with and without artifacts) is measured by the repo's
//! benchmark, not here — `cluster.host_us_per_rank_step_w{64,512,1024}`,
//! `cluster.run_world_ms_w512`, `hvprof.artifacts_overhead_pct_w512` and
//! `op_ms_min` on `sim_world_512`.

use dlsr_net::ClusterTopology;
use serde::Serialize;

use crate::experiment::run_world;
use crate::scenario::Scenario;
use crate::sim::SimTrainer;
use crate::workload::edsr_measured_workload;

/// Default node sweep: 64 → 512 ranks on 4-GPU Lassen nodes (Figs 12/13).
pub const DEFAULT_NODES: [usize; 4] = [16, 32, 64, 128];

/// Nodes of the large-world smoke point every sweep ends with (4096 ranks).
const SMOKE_NODES: usize = 1024;

/// One measured world size.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimScalePoint {
    /// Total ranks (nodes × 4).
    pub world: usize,
    pub nodes: usize,
    /// Mean virtual step time over the measured window, seconds.
    pub virtual_step_s: f64,
    /// Weak-scaling efficiency vs. the single-rank virtual step time.
    pub efficiency: f64,
}

/// Everything the `simscale` harness writes to
/// `results/BENCH_simscale.json`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimScaleReport {
    pub scenario: String,
    pub batch: usize,
    pub warmup: usize,
    pub steps: usize,
    /// The driven engine across the node sweep.
    pub event: Vec<SimScalePoint>,
    /// Large-world smoke point (4096 ranks): one warmup-free step through
    /// the full stack.
    pub smoke: SimScalePoint,
}

impl SimScaleReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SimScaleReport serializes")
    }
}

/// Sweep `nodes` (Lassen nodes per world), then the 4096-rank smoke point.
pub fn sweep(
    sc: Scenario,
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
    nodes: &[usize],
) -> SimScaleReport {
    let t1 = single_rank_step_s(sc, batch, warmup, steps, seed);
    SimScaleReport {
        scenario: sc.label().to_string(),
        batch,
        warmup,
        steps,
        event: nodes
            .iter()
            .map(|&n| measure_point(n, sc, batch, warmup, steps, seed, t1))
            .collect(),
        smoke: measure_point(SMOKE_NODES, sc, batch, 0, 1, seed, t1),
    }
}

/// Run the paper-scale EDSR workload on `nodes` Lassen nodes and measure
/// it. `t1_step` is the single-rank virtual step time
/// (from [`single_rank_step_s`]) the efficiency is normalized against.
pub fn measure_point(
    nodes: usize,
    sc: Scenario,
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
    t1_step: f64,
) -> SimScalePoint {
    let (topo, trainer) = setup(nodes, sc, batch, seed);
    let res = run_world(&topo, sc.mpi_config(), &trainer, warmup, steps);
    point_from(&topo, nodes, &res, steps, t1_step)
}

/// Build the Lassen-shaped world and the trainer a simscale measurement
/// runs — artifacts off for every sweep point.
fn setup(nodes: usize, sc: Scenario, batch: usize, seed: u64) -> (ClusterTopology, SimTrainer) {
    let (w, tensors) = edsr_measured_workload();
    // Lassen-shaped nodes (4 V100s, NVLink + IB EDR); worlds beyond the
    // real machine's 792 nodes (the 4096-rank smoke) keep the same shape.
    let topo = if nodes <= 792 {
        ClusterTopology::lassen(nodes)
    } else {
        ClusterTopology {
            name: format!("lassen-xl-{nodes}"),
            nodes,
            gpus_per_node: 4,
        }
    };
    // Sweep points run with artifacts off: the per-rank buffers are
    // O(world × steps) host memory nothing in the sweep reads. Virtual
    // clocks are unaffected.
    let trainer = SimTrainer::new(w, tensors, batch, sc, &topo, seed)
        .expect("per-GPU batch must fit")
        .with_artifacts(false);
    (topo, trainer)
}

fn point_from(
    topo: &ClusterTopology,
    nodes: usize,
    res: &dlsr_mpi::WorldResult<crate::sim::RankRun>,
    steps: usize,
    t1_step: f64,
) -> SimScalePoint {
    let warm_end = res.ranks.iter().map(|r| r.warm_end).fold(0.0, f64::max);
    let end = res.ranks.iter().map(|r| r.end).fold(0.0, f64::max);
    let virtual_step_s = (end - warm_end) / steps.max(1) as f64;
    SimScalePoint {
        world: topo.total_gpus(),
        nodes,
        virtual_step_s,
        efficiency: if virtual_step_s > 0.0 {
            t1_step / virtual_step_s
        } else {
            0.0
        },
    }
}

/// The single-rank (comm-free) virtual step time: the weak-scaling
/// efficiency denominator.
pub fn single_rank_step_s(
    sc: Scenario,
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
) -> f64 {
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology {
        name: "simscale-1x1".into(),
        nodes: 1,
        gpus_per_node: 1,
    };
    let trainer =
        SimTrainer::new(w, tensors, batch, sc, &topo, seed).expect("single-GPU batch must fit");
    let res = run_world(&topo, sc.mpi_config(), &trainer, warmup, steps);
    let r = &res.ranks[0];
    (r.end - r.warm_end) / steps.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsr_mpi::MpiWorld;

    #[test]
    fn cores_agree_on_virtual_time_bitwise() {
        // The headline simscale quantity must not depend on which core
        // produced it: the trainer as a program on the driven engine and
        // as a closure on the context core, same virtual clocks to the bit.
        let sc = Scenario::MpiOpt;
        let t1 = single_rank_step_s(sc, 4, 1, 3, 7);
        for nodes in [1, 2] {
            let (topo, trainer) = setup(nodes, sc, 4, 7);
            let driven = MpiWorld::run_driven(&topo, sc.mpi_config(), |_| trainer.program(1, 3));
            let context = MpiWorld::run(&topo, sc.mpi_config(), |c| trainer.run(c, 1, 3));
            let [dr, cx] = [driven, context].map(|r| point_from(&topo, nodes, &r, 3, t1));
            assert_eq!(
                dr.virtual_step_s.to_bits(),
                cx.virtual_step_s.to_bits(),
                "cores disagree at {nodes} nodes: {} vs {}",
                dr.virtual_step_s,
                cx.virtual_step_s
            );
            assert!(dr.efficiency > 0.3 && dr.efficiency <= 1.001, "{dr:?}");
        }
    }

    /// The committed report is what the `simscale` harness of `dlsr figures`
    /// writes, byte for byte (CI checks it the same way).
    #[test]
    fn a_fresh_sweep_serialises_to_the_committed_report() {
        let fresh = sweep(Scenario::MpiOpt, 4, 1, 4, 2021, &DEFAULT_NODES);
        assert_eq!(
            fresh.to_json(),
            include_str!("../../../results/BENCH_simscale.json")
        );
    }

    #[test]
    fn artifacts_on_records_a_fixed_event_count_per_rank_step() {
        // per measured step: fwd, negotiate, bwd, metrics + one per group
        let (topo, trainer) = setup(2, Scenario::MpiOpt, 4, 7);
        let trainer = trainer.with_artifacts(true);
        let res = run_world(&topo, Scenario::MpiOpt.mpi_config(), &trainer, 1, 3);
        let events: usize = res.ranks.iter().map(|r| r.timeline.events().len()).sum();
        assert_eq!(events, topo.total_gpus() * 3 * (4 + trainer.plan().len()));
    }
}
