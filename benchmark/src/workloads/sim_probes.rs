//! Probes and helpers the two `sim_*` workloads share: the paper-scale
//! simulator inputs, the decomposed replay of `run_training`, and
//! benchmark-owned rank programs that drive one kind of task under
//! `MpiWorld::run_driven` so its host and virtual cost can be read alone.

use std::time::Instant;

use crate::adapter::{
    edsr_measured_workload, plan_fusion, run_world, single_gpu_throughput, AllreduceElemsTask,
    ClusterTopology, Comm, GpuSpec, KernelCostModel, MpiConfig, MpiWorld, NegotiateTask,
    RankProgram, Scenario, SimTrainer, Step, Task, TensorSpec, TraceEvent, TrainRun,
    TransportModel, WorkloadProfile,
};
use crate::harness::{time_median, Metrics};
use crate::spans::Recorder;

/// Per-GPU batch of every simulated run (the paper's).
pub const BATCH: usize = 4;
/// The simulator's coordinator cost per readiness report.
const REPORT_COST: f64 = 20.0e-6;
/// Fusion threshold of the simulated EDSR runs.
const FUSION_THRESHOLD: u64 = 48 << 20;
/// Costs-only allreduce size of the driven-engine probe: one 32 MiB fused
/// gradient message, the paper's dominant bin.
const PROBE_ELEMS: usize = 8 << 20;
const ROUNDS: usize = 10;

/// The paper-measured EDSR (B=32, F=256) as the simulator sees it.
pub struct SimInputs {
    pub workload: WorkloadProfile,
    pub tensors: Vec<TensorSpec>,
}

impl SimInputs {
    pub fn new() -> Self {
        let (workload, tensors) = edsr_measured_workload();
        SimInputs { workload, tensors }
    }
}

/// The virtual results of one simulated training run, as bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualRun {
    pub step_time: f64,
    pub efficiency: f64,
    pub images_per_sec: f64,
}

impl VirtualRun {
    pub fn of(run: &TrainRun) -> Self {
        VirtualRun {
            step_time: run.step_time,
            efficiency: run.efficiency,
            images_per_sec: run.images_per_sec,
        }
    }

    pub fn same_bits(&self, other: &VirtualRun) -> bool {
        self.step_time.to_bits() == other.step_time.to_bits()
            && self.efficiency.to_bits() == other.efficiency.to_bits()
            && self.images_per_sec.to_bits() == other.images_per_sec.to_bits()
    }
}

/// `run_training` decomposed into its public parts with a span around
/// each: `SimTrainer::new` → `run_world` → `single_gpu_throughput` → the
/// artifact merge. Must land on the same virtual numbers.
pub fn replay_run_training(
    rec: &mut Recorder,
    inputs: &SimInputs,
    topo: &ClusterTopology,
    scenario: Scenario,
    (warmup, steps): (usize, usize),
    seed: u64,
    run_world_span: &'static str,
) -> VirtualRun {
    let trainer = rec.span("SimTrainer::new", "cluster", |_| {
        SimTrainer::new(
            inputs.workload.clone(),
            inputs.tensors.clone(),
            BATCH,
            scenario,
            topo,
            seed,
        )
        .expect("batch 4 fits a V100")
    });
    let res = rec.span(run_world_span, "cluster", |_| {
        run_world(topo, scenario.mpi_config(), &trainer, warmup, steps)
    });
    let world = topo.total_gpus();
    let warm_end = res.ranks.iter().map(|r| r.warm_end).fold(0.0, f64::max);
    let end = res.ranks.iter().map(|r| r.end).fold(0.0, f64::max);
    let elapsed = end - warm_end;
    let images_per_sec = (world * BATCH * steps) as f64 / elapsed;
    let t1 = rec.span("single_gpu_throughput", "cluster", |_| {
        single_gpu_throughput(&inputs.workload, &inputs.tensors, BATCH, seed)
    });
    rec.span("artifacts.merge", "hvprof", |_| {
        let mut timeline = res.ranks[0].timeline.clone();
        for r in &res.ranks[1..] {
            timeline.merge(&r.timeline);
        }
        std::hint::black_box((timeline, res.ranks[0].prof.clone()));
    });
    VirtualRun {
        step_time: elapsed / steps as f64,
        efficiency: images_per_sec / (world as f64 * t1),
        images_per_sec,
    }
}

/// A rank that yields `rounds` tasks from `make`, then finishes.
struct Repeat<F> {
    make: F,
    round: usize,
    rounds: usize,
}

impl<F: FnMut(&mut Comm, usize) -> Task> RankProgram for Repeat<F> {
    type Out = ();

    fn next(&mut self, comm: &mut Comm) -> Step {
        if self.round == self.rounds {
            return Step::Done;
        }
        self.round += 1;
        Step::Task((self.make)(comm, self.round - 1))
    }

    fn finish(&mut self, _comm: &mut Comm, _trace: Vec<TraceEvent>) {}
}

/// Host seconds and virtual seconds of one world of `nodes` Lassen nodes
/// whose every rank runs `rounds` tasks from `make`.
fn drive(
    nodes: usize,
    rounds: usize,
    make: impl Fn(&mut Comm, usize) -> Task + Copy,
) -> (f64, f64) {
    let topo = ClusterTopology::lassen(nodes);
    let t = Instant::now();
    let res = MpiWorld::run_driven(&topo, MpiConfig::mpi_opt(), |_| Repeat {
        make,
        round: 0,
        rounds,
    });
    (t.elapsed().as_secs_f64(), res.makespan())
}

/// Host seconds to build and tear down a `world`-rank driven world whose
/// ranks finish at once — what every `drive` pays before its first task.
fn empty_world_s(world: usize) -> f64 {
    drive(world / 4, 0, |_, _| unreachable!("no rounds")).0
}

/// Host and virtual µs of one negotiation round over a `world`-rank
/// world: the once-per-step gather of readiness reports at rank 0, whose
/// growth with the world is ROADMAP item 4's linear term.
pub fn negotiate_us(inputs: &SimInputs, world: usize) -> (f64, f64) {
    let n_tensors = inputs.tensors.len();
    let empty = empty_world_s(world);
    let (host, virt) = drive(world / 4, ROUNDS, move |_, round| {
        Task::custom(NegotiateTask::new(n_tensors, round as u64, REPORT_COST))
    });
    let per_round = |s: f64| s / ROUNDS as f64 * 1e6;
    (per_round((host - empty).max(0.0)), per_round(virt))
}

/// Host µs per rank of one costs-only 32 MiB allreduce on the driven
/// engine.
pub fn driven_allreduce_us_per_rank(world: usize) -> f64 {
    let empty = empty_world_s(world);
    let (host, _) = drive(world / 4, ROUNDS, |comm, round| {
        let algo = comm.config().allreduce;
        AllreduceElemsTask::new(PROBE_ELEMS, 0x100 + round as u64, algo).into()
    });
    (host - empty).max(0.0) / (ROUNDS * world) as f64 * 1e6
}

/// Host ms to build a `world`-rank driven world whose ranks finish at
/// once.
pub fn driven_spawn_ms(world: usize) -> f64 {
    time_median(5, || {
        empty_world_s(world);
    }) * 1e3
}

/// Host µs per rank-step of the costs-only trainer with artifacts off.
pub fn host_us_per_rank_step(inputs: &SimInputs, world: usize, seed: u64, reps: usize) -> f64 {
    let (warmup, steps) = (1, 5);
    let topo = ClusterTopology::lassen(world / 4);
    let scenario = Scenario::MpiOpt;
    let trainer = SimTrainer::new(
        inputs.workload.clone(),
        inputs.tensors.clone(),
        BATCH,
        scenario,
        &topo,
        seed,
    )
    .expect("batch 4 fits a V100")
    .with_artifacts(false);
    let s = time_median(reps, || {
        std::hint::black_box(run_world(
            &topo,
            scenario.mpi_config(),
            &trainer,
            warmup,
            steps,
        ));
    });
    s / (world * (warmup + steps)) as f64 * 1e6
}

/// Host-side cost-model probes of the layers under the simulator that do
/// arithmetic only: `gpu`, `net`, and the `horovod` fusion planner.
pub fn cost_model_metrics(inputs: &SimInputs, out: &mut Metrics) {
    const EVALS: usize = 200_000;
    let model = KernelCostModel::new(GpuSpec::v100());
    let step = model
        .train_step_time(&inputs.workload, BATCH, 1)
        .expect("batch 4 fits a V100");
    out.set("gpu.virtual_compute_ms", step.total() * 1e3);
    let t = Instant::now();
    for _ in 0..EVALS {
        let w = std::hint::black_box(&inputs.workload);
        std::hint::black_box(model.train_step_time(w, BATCH, 1).expect("fits"));
    }
    out.set(
        "gpu.cost_model_us",
        t.elapsed().as_secs_f64() / EVALS as f64 * 1e6,
    );

    // one message's path choice + transfer time, over a spread of sizes
    let transport = TransportModel::lassen();
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..EVALS {
        let bytes = std::hint::black_box(1u64 << (10 + i % 16));
        let path = transport.path(false, i % 2 == 0, true, bytes);
        acc += transport.transfer_time(path, bytes);
    }
    std::hint::black_box(acc);
    out.set(
        "net.transfer_cost_ns",
        t.elapsed().as_secs_f64() / EVALS as f64 * 1e9,
    );

    let plan = time_median(50, || {
        std::hint::black_box(plan_fusion(&inputs.tensors, FUSION_THRESHOLD));
    });
    out.set("horovod.plan_fusion_us", plan * 1e6);
}
