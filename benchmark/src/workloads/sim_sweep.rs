//! `sim_sweep_small`: `run_training` over all four scenarios × nodes
//! {1,2,4,8,16} × four seeds — 80 worlds of 4–64 ranks, the Fig 10–13
//! harness shape. Same simulator as `sim_world_512`, opposite regime:
//! per-world set-up (`SimTrainer::new`, the single-GPU reference run
//! inside every `run_training`, plan/topology build, artifacts) dominates
//! and routing is cheap. Covers NCCL and the regcache-off / IPC-off
//! scenarios, and guards small worlds against optimisations that
//! precompute or pool for 512+ ranks.

use crate::adapter::{run_training, ClusterTopology, Scenario};
use crate::harness::{median, Metrics, OpResult, Workload};
use crate::spans::Recorder;
use crate::workloads::sim_probes::{
    cost_model_metrics, negotiate_us, replay_run_training, SimInputs, VirtualRun, BATCH,
};

const NODE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const SEEDS: u64 = 4;
const WARMUP_STEPS: usize = 2;
const STEPS: usize = 6;
const WARMUP_OPS: usize = 2;

/// Span name of a scenario's `run_world`, so the trace can split the op by
/// backend.
fn run_world_span(s: Scenario) -> &'static str {
    match s {
        Scenario::Nccl => "run_world.nccl",
        _ => "run_world.mpi",
    }
}

pub struct SimSweep {
    seed: u64,
    seeds: u64,
    inputs: SimInputs,
    first: Option<Vec<VirtualRun>>,
}

impl SimSweep {
    pub fn new(seed: u64, smoke: bool) -> Self {
        SimSweep {
            seed,
            seeds: if smoke { 1 } else { SEEDS },
            inputs: SimInputs::new(),
            first: None,
        }
    }

    /// Every world of the sweep, in a fixed order.
    fn worlds(&self) -> impl Iterator<Item = (Scenario, usize, u64)> + '_ {
        Scenario::ALL.into_iter().flat_map(move |scenario| {
            NODE_COUNTS.into_iter().flat_map(move |nodes| {
                (0..self.seeds).map(move |s| (scenario, nodes, self.seed + s))
            })
        })
    }

    fn index(&self, scenario: Scenario, nodes: usize) -> usize {
        let s = Scenario::ALL
            .iter()
            .position(|&x| x == scenario)
            .expect("listed");
        let n = NODE_COUNTS
            .iter()
            .position(|&x| x == nodes)
            .expect("listed");
        (s * NODE_COUNTS.len() + n) * self.seeds as usize
    }

    fn check(&mut self, runs: Vec<VirtualRun>) -> OpResult {
        // the paper's ordering: the optimized MPI is no slower than the
        // default one once the job spans nodes
        for &nodes in &NODE_COUNTS[1..] {
            for s in 0..self.seeds as usize {
                let opt = runs[self.index(Scenario::MpiOpt, nodes) + s].images_per_sec;
                let default = runs[self.index(Scenario::MpiDefault, nodes) + s].images_per_sec;
                if opt < default {
                    return Err(format!(
                        "MPI-Opt {opt} < MPI {default} img/s at {nodes} nodes"
                    ));
                }
            }
        }
        let first = self.first.get_or_insert_with(|| runs.clone());
        match first.iter().zip(&runs).position(|(a, b)| !a.same_bits(b)) {
            None => Ok(()),
            Some(i) => Err(format!("world {i} drifted from the first op")),
        }
    }
}

impl Workload for SimSweep {
    fn warm_up(&mut self) {
        for _ in 0..WARMUP_OPS {
            self.op().expect("warm-up op");
        }
    }

    fn op(&mut self) -> OpResult {
        let runs = self
            .worlds()
            .map(|(scenario, nodes, seed)| {
                VirtualRun::of(&run_training(
                    &ClusterTopology::lassen(nodes),
                    scenario,
                    &self.inputs.workload,
                    &self.inputs.tensors,
                    BATCH,
                    WARMUP_STEPS,
                    STEPS,
                    seed,
                ))
            })
            .collect();
        self.check(runs)
    }

    fn throughput(&self) -> (&'static str, f64) {
        // Σ world × (warmup + steps) over the sweep
        let rank_steps: usize = self
            .worlds()
            .map(|(_, nodes, _)| nodes * 4 * (WARMUP_STEPS + STEPS))
            .sum();
        ("rank_steps_per_s", rank_steps as f64)
    }

    fn traced_op(&mut self, rec: &mut Recorder) -> OpResult {
        let runs = rec.span("op", "bench", |rec| {
            self.worlds()
                .map(|(scenario, nodes, seed)| {
                    replay_run_training(
                        rec,
                        &self.inputs,
                        &ClusterTopology::lassen(nodes),
                        scenario,
                        (WARMUP_STEPS, STEPS),
                        seed,
                        run_world_span(scenario),
                    )
                })
                .collect()
        });
        self.check(runs)
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Metrics) {
        let worlds = self.worlds().count() as f64;
        let span_ms = |name| median(&rec.per_op_ms(name));
        let (new, reference) = (span_ms("SimTrainer::new"), span_ms("single_gpu_throughput"));
        let op = span_ms("op");
        out.set("cluster.trainer_new_us", new / worlds * 1e3);
        out.set("cluster.single_gpu_ref_ms", reference / worlds);
        out.set(
            "cluster.sweep_setup_share_pct",
            (new + reference) / op * 100.0,
        );
        out.set(
            "nccl.sweep_share_pct",
            span_ms("run_world.nccl") / op * 100.0,
        );
        let runs = self.first.as_ref().expect("an op ran");
        let nccl_w64 = runs[self.index(Scenario::Nccl, 16)];
        out.set("nccl.virtual_step_ms_w64", nccl_w64.step_time * 1e3);

        cost_model_metrics(&self.inputs, out);
        let (host64, virt64) = negotiate_us(&self.inputs, 64);
        out.set("horovod.negotiate_host_us_w64", host64);
        out.set("horovod.negotiate_virtual_us_w64", virt64);
    }
}
