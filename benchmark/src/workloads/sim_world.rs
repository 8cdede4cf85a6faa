//! `sim_world_512`: one `run_training` at the paper's headline scale —
//! 128 Lassen nodes, 512 GPUs, MPI-Opt, the measured EDSR workload. Host
//! time is the driven engine + collective tasks + negotiate + `net` cost
//! models + hvprof/timeline artifacts over 512 ranks, with zero tensor
//! math; the op also yields the paper's virtual metrics.

use crate::adapter::{run_training, run_world, ClusterTopology, Collective, Scenario, SimTrainer};
use crate::harness::{median, time_median, Metrics, OpResult, Workload};
use crate::spans::Recorder;
use crate::workloads::sim_probes::{
    cost_model_metrics, driven_allreduce_us_per_rank, driven_spawn_ms, host_us_per_rank_step,
    negotiate_us, replay_run_training, SimInputs, VirtualRun, BATCH,
};

const NODES: usize = 128;
const WARMUP_STEPS: usize = 1;
const STEPS: usize = 10;
const SMOKE_STEPS: usize = 2;
const WARMUP_OPS: usize = 2;
const SCENARIO: Scenario = Scenario::MpiOpt;

pub struct SimWorld512 {
    seed: u64,
    smoke: bool,
    steps: usize,
    topo: ClusterTopology,
    inputs: SimInputs,
    first: Option<VirtualRun>,
    regcache_hit_pct: f64,
    allreduce_virtual_ms_large: f64,
}

impl SimWorld512 {
    pub fn new(seed: u64, smoke: bool) -> Self {
        SimWorld512 {
            seed,
            smoke,
            steps: if smoke { SMOKE_STEPS } else { STEPS },
            topo: ClusterTopology::lassen(NODES),
            inputs: SimInputs::new(),
            first: None,
            regcache_hit_pct: 0.0,
            allreduce_virtual_ms_large: 0.0,
        }
    }

    fn check(&mut self, run: VirtualRun) -> OpResult {
        if !(run.efficiency > 0.0 && run.efficiency <= 1.02) {
            return Err(format!(
                "scaling efficiency {} outside (0, 1.02]",
                run.efficiency
            ));
        }
        if self.first.get_or_insert(run).same_bits(&run) {
            Ok(())
        } else {
            Err(format!(
                "virtual results drifted: {run:?} vs {:?}",
                self.first
            ))
        }
    }
}

impl Workload for SimWorld512 {
    fn warm_up(&mut self) {
        for _ in 0..WARMUP_OPS {
            self.op().expect("warm-up op");
        }
    }

    fn op(&mut self) -> OpResult {
        let run = run_training(
            &self.topo,
            SCENARIO,
            &self.inputs.workload,
            &self.inputs.tensors,
            BATCH,
            WARMUP_STEPS,
            self.steps,
            self.seed,
        );
        self.regcache_hit_pct = run.regcache_hit_rate * 100.0;
        // Table I's large bins: fused messages of 16 MiB and more
        let large: f64 = run.profile.bin_seconds(Collective::Allreduce)[2..]
            .iter()
            .sum();
        self.allreduce_virtual_ms_large = large * 1e3;
        self.check(VirtualRun::of(&run))
    }

    fn throughput(&self) -> (&'static str, f64) {
        let rank_steps = self.topo.total_gpus() * (WARMUP_STEPS + self.steps);
        ("rank_steps_per_s", rank_steps as f64)
    }

    fn outputs(&self, out: &mut Metrics) {
        let run = self.first.expect("an op ran");
        out.set("virtual_step_ms", run.step_time * 1e3);
        out.set("scaling_efficiency_pct", run.efficiency * 100.0);
    }

    fn traced_op(&mut self, rec: &mut Recorder) -> OpResult {
        let run = rec.span("op", "bench", |rec| {
            replay_run_training(
                rec,
                &self.inputs,
                &self.topo,
                SCENARIO,
                (WARMUP_STEPS, self.steps),
                self.seed,
                "run_world",
            )
        });
        self.check(run)
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Metrics) {
        out.set("net.regcache_hit_pct", self.regcache_hit_pct);
        out.set(
            "hvprof.allreduce_virtual_ms_large",
            self.allreduce_virtual_ms_large,
        );

        let span_ms = |name| median(&rec.per_op_ms(name));
        out.set("cluster.trainer_new_us", span_ms("SimTrainer::new") * 1e3);
        out.set(
            "cluster.single_gpu_ref_ms",
            span_ms("single_gpu_throughput"),
        );
        out.set("cluster.run_world_ms_w512", span_ms("run_world"));

        cost_model_metrics(&self.inputs, out);

        let reps = |n: usize| if self.smoke { 1 } else { n };
        let w64 = host_us_per_rank_step(&self.inputs, 64, self.seed, reps(7));
        let w512 = host_us_per_rank_step(&self.inputs, 512, self.seed, reps(5));
        let w1024 = host_us_per_rank_step(&self.inputs, 1024, self.seed, reps(3));
        out.set("cluster.host_us_per_rank_step_w64", w64);
        out.set("cluster.host_us_per_rank_step_w512", w512);
        out.set("cluster.host_us_per_rank_step_w1024", w1024);
        out.set("cluster.rank_step_cost_growth_512_over_64", w512 / w64);

        // the same 512-rank world with and without profile + timeline
        let trainer = |artifacts| {
            SimTrainer::new(
                self.inputs.workload.clone(),
                self.inputs.tensors.clone(),
                BATCH,
                SCENARIO,
                &self.topo,
                self.seed,
            )
            .expect("batch 4 fits a V100")
            .with_artifacts(artifacts)
        };
        let world_s = |artifacts| {
            let t = trainer(artifacts);
            time_median(reps(5), || {
                std::hint::black_box(run_world(
                    &self.topo,
                    SCENARIO.mpi_config(),
                    &t,
                    WARMUP_STEPS,
                    self.steps,
                ));
            })
        };
        let (on, off) = (world_s(true), world_s(false));
        out.set(
            "hvprof.artifacts_overhead_pct_w512",
            (on - off) / off * 100.0,
        );

        let (host64, virt64) = negotiate_us(&self.inputs, 64);
        let (host512, virt512) = negotiate_us(&self.inputs, 512);
        out.set("horovod.negotiate_host_us_w64", host64);
        out.set("horovod.negotiate_host_us_w512", host512);
        out.set("horovod.negotiate_virtual_us_w64", virt64);
        out.set("horovod.negotiate_virtual_us_w512", virt512);

        out.set("mpi.driven_spawn_ms_w512", driven_spawn_ms(512));
        let (a64, a512) = (
            driven_allreduce_us_per_rank(64),
            driven_allreduce_us_per_rank(512),
        );
        out.set("mpi.driven_allreduce_host_us_per_rank_w64", a64);
        out.set("mpi.driven_allreduce_host_us_per_rank_w512", a512);
        out.set("mpi.driven_cost_growth_512_over_64", a512 / a64);
    }
}
