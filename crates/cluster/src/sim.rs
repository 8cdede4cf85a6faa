//! The at-scale training-step simulator.

use dlsr_gpu::{GpuSpec, KernelCostModel, MemoryError, WorkloadProfile};
use dlsr_horovod::{
    plan_dynamic, readiness_from_elems, record_group_counters, Backend, HorovodConfig,
    NegotiateTask, ScheduledGroup, TensorSpec, FUSION_BUF_ID_BASE,
};
use dlsr_hvprof::{Collective, Hvprof, Label, Timeline};
use dlsr_mpi::collectives::tasks::{AllreduceElemsTask, BarrierTask};
use dlsr_mpi::collectives::AllreduceAlgorithm;
use dlsr_mpi::config::DeviceMode;
use dlsr_mpi::{drive_program, Comm, MpiConfig, PathPolicy, RankProgram, Step, Task};
use dlsr_net::{ClusterTopology, RegCacheStats};

use crate::scenario::Scenario;

/// Coordinator per-report processing cost charged in the *executed*
/// once-per-step negotiation (rank 0, per worker).
const COORDINATOR_REPORT_COST: f64 = 20.0e-6;

/// Per-fused-group coordination cost in the *planning estimate*: every
/// reduction round requires a coordinator cycle in which rank 0 handles one
/// readiness report per worker (≈120 µs each, Python-side) plus fixed
/// engine work. This linear-in-world term is Horovod's known scalability
/// tax; at 512 ranks it makes the engine fall behind the backward pass, so
/// fused groups both grow and spill past the end of backward — the two
/// effects behind the paper's efficiency fall-off (Figs 10/13).
fn coordination_cost(world: usize) -> f64 {
    1.0e-3 + world as f64 * 120.0e-6
}

/// The Horovod cycle time used for EDSR runs. §II-D: "HOROVOD_CYCLE_TIME
/// [is] carefully tuned at each scale to maximize training throughput" —
/// for a 163 MB gradient set produced over a ~250 ms backward pass, a long
/// cycle maximizes fusion (≈64 MB/s × 80 ms ≈ 26–35 MB per fused message),
/// reproducing the 16–64 MB message mix of Table I / Fig 14.
const TUNED_CYCLE_TIME: f64 = 80.0e-3;

/// Tuned fusion threshold (§II-D): large enough to fuse a cycle's worth of
/// tensors, capped below the paper's top profiling bin.
const TUNED_FUSION_THRESHOLD: u64 = 48 << 20;

/// Elements in the per-step metrics allreduce (§III-A guideline 5: "add
/// logging at each training step" — loss and throughput scalars averaged
/// across ranks). These tiny reductions populate the 1–128 KB profile bin
/// and, riding the host eager path, see no benefit from the IPC fix —
/// Table I row 1.
const METRICS_ELEMS: usize = 256;

/// Fraction of host-staged transfer time that *blocks* the compute stream.
/// Without CUDA IPC, MPI "must default to main memory for all GPU
/// transfers" (§III-C): the staging `cudaMemcpy`s through unpinned bounce
/// buffers synchronize with the default stream, stealing copy-engine and SM
/// time from the concurrent backward pass — the GPU cross-talk of Fig 6.
/// NVLink IPC transfers (and NCCL's kernels on their own stream) overlap.
const STAGED_BLOCKING_FRACTION: f64 = 1.0;

/// Straggler-jitter amplitude: each rank-step's compute runs up to 2 %
/// slow (see [`jitter_factor`]).
const JITTER_SIGMA: f64 = 0.02;

/// Deterministic per-(rank, step) compute jitter: a uniform draw in
/// `[0, sigma)` added to 1.0. Synchronous data parallelism waits for the
/// slowest rank each step, so with many ranks the *maximum* of these draws
/// — not the mean — sets the step time: the classic straggler tax that
/// erodes scaling efficiency.
pub fn jitter_factor(seed: u64, rank: usize, step: u64, sigma: f64) -> f64 {
    // splitmix64
    let mut z = seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (step << 24);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + sigma * u
}

/// Closed-form allreduce *transport* duration estimate used for
/// fusion-group planning; per-round coordination is charged separately.
/// All ranks must derive identical plans, so the estimate — not measured,
/// rank-skewed time — drives grouping.
pub fn estimate_allreduce(
    cfg: &MpiConfig,
    backend: Backend,
    topo: &ClusterTopology,
    bytes: u64,
) -> f64 {
    let t = &cfg.transport;
    let gpn = topo.gpus_per_node;
    let n = topo.nodes;
    let p = topo.total_gpus();
    let b = bytes as f64;
    match backend {
        Backend::Nccl => {
            let bw = if n > 1 {
                t.nccl_ib.bandwidth
            } else {
                t.nvlink.bandwidth
            };
            let steps = 2.0 * (p.saturating_sub(1)) as f64;
            steps / p as f64 * b / bw + steps * 10.0e-6
        }
        Backend::Mpi => {
            let ipc =
                cfg.device_mode == DeviceMode::PinnedWithMv2 && bytes >= t.ipc_large_threshold;
            let intra_bw = if ipc {
                t.nvlink.bandwidth
            } else {
                t.staged.bandwidth
            };
            let rounds = 2.0 * (gpn as f64).log2().ceil();
            let intra = if gpn > 1 {
                rounds * (b / intra_bw + 20.0e-6)
            } else {
                0.0
            };
            let inter = if n > 1 {
                let ring = 2.0 * (n - 1) as f64 / n as f64 * b / t.ib.bandwidth
                    + 2.0 * (n - 1) as f64 * 8.0e-6;
                // each ring step pins its send and receive chunk unless the
                // registration cache holds them: 2 × 2(n−1) pins per rank
                let pins = if cfg.registration_cache {
                    0.0
                } else {
                    4.0 * (n - 1) as f64 * t.pin_time(bytes / n as u64)
                };
                ring + pins
            } else {
                0.0
            };
            intra + inter
        }
    }
}

/// Measurement window of one simulated training run on one rank.
#[derive(Debug, Clone)]
pub struct RankRun {
    /// Virtual time when the warmup steps finished.
    pub warm_end: f64,
    /// Virtual time when the measured steps finished.
    pub end: f64,
    /// This rank's allreduce profile over the measured steps.
    pub prof: Hvprof,
    /// Registration-cache statistics.
    pub reg: RegCacheStats,
    /// HOROVOD_TIMELINE-style event trace over the measured steps.
    pub timeline: Timeline,
    /// Structured trace spans from this rank's thread over the measured
    /// steps (empty unless a `dlsr-trace` sink is in scope).
    pub trace: Vec<dlsr_trace::TraceEvent>,
}

/// Costs-only distributed training driver: calibrated GPU compute +
/// dynamic-fusion Horovod synchronization over the simulated fabric.
pub struct SimTrainer {
    workload: WorkloadProfile,
    n_tensors: usize,
    batch: usize,
    scenario: Scenario,
    hcfg: HorovodConfig,
    plan: Vec<ScheduledGroup>,
    fwd: f64,
    bwd: f64,
    tail: f64,
    /// Per-step compute-stream stall caused by host-staged transfers.
    staged_blocking: f64,
    seed: u64,
    /// Collect the per-step diagnostic artifacts (Hvprof profile,
    /// HOROVOD_TIMELINE events) over the measured window. On by default.
    /// Recording is plain data — an event is a static name template plus
    /// indices, rendered only on export — and costs a few hundred
    /// nanoseconds of host time per event (docs/SIMCORE.md, "What recording
    /// an artifact event costs"). The benchmark's
    /// `hvprof.artifacts_overhead_pct_w512` reads that cost as a share of a
    /// 512-rank world's host time, a ratio that grows whenever the engine
    /// beneath it gets faster. The `simscale` sweep still turns it off: a
    /// 4096-rank world would hold O(ranks × steps) events nobody reads. The
    /// virtual clocks are identical either way.
    artifacts: bool,
}

impl SimTrainer {
    /// Plan a training run; fails with the OOM error if `batch` does not
    /// fit in device memory.
    pub fn new(
        workload: WorkloadProfile,
        tensors: Vec<TensorSpec>,
        batch: usize,
        scenario: Scenario,
        topo: &ClusterTopology,
        seed: u64,
    ) -> Result<Self, MemoryError> {
        let hcfg = HorovodConfig::builder()
            .backend(scenario.backend())
            .cycle_time(TUNED_CYCLE_TIME)
            .fusion_threshold(TUNED_FUSION_THRESHOLD)
            .build();
        Self::with_horovod_config(workload, tensors, batch, scenario, topo, seed, hcfg)
    }

    /// Like [`SimTrainer::new`] but with explicit Horovod tuning knobs —
    /// used by the fusion-threshold / cycle-time ablation harnesses that
    /// back the paper's "carefully tuned at each scale" statement (§II-D).
    pub fn with_horovod_config(
        workload: WorkloadProfile,
        tensors: Vec<TensorSpec>,
        batch: usize,
        scenario: Scenario,
        topo: &ClusterTopology,
        seed: u64,
        hcfg: HorovodConfig,
    ) -> Result<Self, MemoryError> {
        let cost = KernelCostModel::new(GpuSpec::v100());
        // allocate the training footprint on a simulated device so the OOM
        // path is the device's own, not just arithmetic
        let mut gpu = dlsr_gpu::Gpu::new(dlsr_gpu::GpuId { node: 0, local: 0 }, GpuSpec::v100());
        gpu.reserve(cost.memory_required(&workload, batch, scenario.context_count()))?;
        let step = cost.train_step_time(&workload, batch, scenario.context_count())?;
        let fwd = step.compute_s / 3.0;
        let bwd = step.compute_s * 2.0 / 3.0;
        let tail = step.launch_s + step.framework_s;
        let world = topo.total_gpus();
        let hcfg = hcfg.to_builder().backend(scenario.backend()).build();
        let readiness = readiness_from_elems(&tensors, bwd);
        let mpi_cfg = scenario.mpi_config();
        let backend = scenario.backend();
        let est = move |bytes: u64| estimate_allreduce(&mpi_cfg, backend, topo, bytes);
        let plan = if world > 1 {
            plan_dynamic(
                &tensors,
                &readiness,
                hcfg.cycle_time,
                hcfg.fusion_threshold,
                coordination_cost(world),
                &est,
            )
        } else {
            Vec::new()
        };
        // compute-stream stall from host-staged intra-node phases
        let mpi_cfg2 = scenario.mpi_config();
        let t = &mpi_cfg2.transport;
        let rounds = 2.0 * (topo.gpus_per_node as f64).log2().ceil();
        let staged_blocking = if scenario.backend() == Backend::Mpi && topo.gpus_per_node > 1 {
            plan.iter()
                .map(|sg| {
                    let ipc = mpi_cfg2.device_mode == DeviceMode::PinnedWithMv2
                        && sg.group.bytes >= t.ipc_large_threshold;
                    if ipc {
                        0.0
                    } else {
                        STAGED_BLOCKING_FRACTION * rounds * sg.group.bytes as f64
                            / t.staged.bandwidth
                    }
                })
                .sum()
        } else {
            0.0
        };
        Ok(SimTrainer {
            workload,
            n_tensors: tensors.len(),
            batch,
            scenario,
            hcfg,
            plan,
            fwd,
            bwd,
            tail,
            staged_blocking,
            seed,
            artifacts: true,
        })
    }

    /// Turn per-step diagnostic artifacts (profile + timeline) on or off.
    /// Virtual timing is unaffected and host wall moves by a few percent;
    /// with artifacts off the returned [`RankRun`]s carry empty ones.
    pub fn with_artifacts(mut self, on: bool) -> Self {
        self.artifacts = on;
        self
    }

    /// The fusion schedule (for inspection/tests).
    pub fn plan(&self) -> &[ScheduledGroup] {
        &self.plan
    }

    /// The scenario this trainer was planned for.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Per-GPU batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The workload being trained.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// Run `warmup + steps` training steps; the profile and timeline cover
    /// only the measured window. Blocking form of [`SimTrainer::program`],
    /// driven in place — the context core and the driven engine execute the
    /// identical state machine.
    pub fn run(&self, comm: &mut Comm, warmup: usize, steps: usize) -> RankRun {
        drive_program(comm, self.program(warmup, steps))
    }

    /// This rank's run as a resumable [`RankProgram`] for
    /// [`dlsr_mpi::MpiWorld::run_driven`].
    pub fn program(&self, warmup: usize, steps: usize) -> SimProgram<'_> {
        SimProgram {
            trainer: self,
            warmup,
            steps,
            step_idx: 0,
            phase: SimPhase::StepStart,
            warm_marked: false,
            warm_end: 0.0,
            prof: Hvprof::new(),
            // per measured step: fwd, negotiate, bwd, metrics + one event
            // per fused group (a capacity of 0 allocates nothing)
            tl: Timeline::with_capacity(if self.artifacts {
                steps * (4 + self.plan.len())
            } else {
                0
            }),
            t0: 0.0,
            jit: 1.0,
            bwd_start: 0.0,
            ts: 0.0,
            gi: 0,
        }
    }
}

/// Resume point within one training step.
enum SimPhase {
    StepStart,
    AfterNegotiate,
    GroupLaunch,
    AfterGroup,
    Backward,
    AfterBarrier,
    AfterMetrics,
    StepTail,
}

/// One rank's training run as a resumable [`RankProgram`]: synchronous
/// compute segments happen in `next`, every communication round is yielded
/// as a task the engine can park mid-flight. [`SimTrainer::run`] drives
/// this same machine on the context core, so the two paths cannot drift.
pub struct SimProgram<'a> {
    trainer: &'a SimTrainer,
    warmup: usize,
    steps: usize,
    step_idx: u64,
    phase: SimPhase,
    warm_marked: bool,
    warm_end: f64,
    prof: Hvprof,
    tl: Timeline,
    t0: f64,
    jit: f64,
    bwd_start: f64,
    ts: f64,
    gi: usize,
}

impl SimProgram<'_> {
    /// Whether this step's profile and timeline entries are kept: artifacts
    /// are on and the warmup steps are over.
    fn recording(&self) -> bool {
        self.trainer.artifacts && self.warm_marked
    }
}

impl RankProgram for SimProgram<'_> {
    type Out = RankRun;

    fn next(&mut self, comm: &mut Comm) -> Step {
        let tr = self.trainer;
        loop {
            match self.phase {
                SimPhase::StepStart => {
                    if !self.warm_marked && self.step_idx as usize == self.warmup {
                        // Warmup boundary: drop warmup spans so the trace
                        // covers only the measured window, like the profile
                        // and timeline (which start recording here).
                        self.warm_marked = true;
                        self.warm_end = comm.now();
                        return Step::DiscardTrace;
                    }
                    if self.step_idx as usize == self.warmup + self.steps {
                        return Step::Done;
                    }
                    let rank = comm.rank();
                    let step_idx = self.step_idx;
                    self.t0 = comm.now();
                    let jit = jitter_factor(tr.seed, rank, step_idx, JITTER_SIGMA);
                    // A straggler rank from the fault plan runs all its
                    // compute slower by a fixed multiplier, on top of the
                    // per-step jitter.
                    let jit = jit
                        * comm
                            .config()
                            .fault_plan
                            .as_ref()
                            .map(|p| p.compute_multiplier(rank))
                            .unwrap_or(1.0);
                    self.jit = jit;
                    self.bwd_start = self.t0 + tr.fwd * jit;
                    comm.advance_to(self.bwd_start);
                    if self.recording() {
                        self.tl.record(
                            Label::indexed("fwd[{}]", [step_idx, 0, 0]),
                            "compute",
                            rank,
                            self.t0,
                            self.bwd_start,
                        );
                    }
                    dlsr_trace::record_span(
                        move || format!("fwd[{step_idx}]"),
                        dlsr_trace::cat::COMPUTE,
                        self.t0,
                        self.bwd_start,
                    );
                    if comm.size() > 1 {
                        // Per-group coordination cost is embedded in the
                        // plan's launch offsets (see `coordination_cost`);
                        // the executed negotiation here carries the real
                        // control messages once per step.
                        self.ts = comm.now();
                        self.phase = SimPhase::AfterNegotiate;
                        return Step::Task(Task::custom(NegotiateTask::new(
                            tr.n_tensors,
                            step_idx,
                            COORDINATOR_REPORT_COST,
                        )));
                    }
                    self.phase = SimPhase::Backward;
                }
                SimPhase::AfterNegotiate => {
                    if self.recording() {
                        self.tl.record(
                            Label::indexed("negotiate[{}]", [self.step_idx, 0, 0]),
                            "negotiate",
                            comm.rank(),
                            self.ts,
                            comm.now(),
                        );
                    }
                    self.gi = 0;
                    self.phase = SimPhase::GroupLaunch;
                }
                SimPhase::GroupLaunch => {
                    let Some(sg) = tr.plan.get(self.gi) else {
                        self.phase = SimPhase::Backward;
                        continue;
                    };
                    record_group_counters(&sg.group, tr.hcfg.fusion_threshold);
                    comm.advance_to(self.bwd_start + sg.launch_offset * self.jit);
                    self.ts = comm.now();
                    let buf_id = FUSION_BUF_ID_BASE + self.gi as u64;
                    let algo = match tr.hcfg.backend {
                        Backend::Mpi => comm.config().allreduce,
                        Backend::Nccl => {
                            comm.set_path_policy(PathPolicy::NcclLike);
                            AllreduceAlgorithm::Ring
                        }
                    };
                    self.phase = SimPhase::AfterGroup;
                    return Step::Task(
                        AllreduceElemsTask::new(sg.group.elems, buf_id, algo).into(),
                    );
                }
                SimPhase::AfterGroup => {
                    if tr.hcfg.backend == Backend::Nccl {
                        comm.set_path_policy(PathPolicy::Mpi);
                    }
                    let sg = &tr.plan[self.gi];
                    let (step_idx, gi, bytes) = (self.step_idx, self.gi, sg.group.bytes);
                    if self.recording() {
                        self.prof
                            .record(Collective::Allreduce, bytes, comm.now() - self.ts);
                        self.tl.record(
                            Label::indexed(
                                "allreduce[{}.{}] {}MB",
                                [step_idx, gi as u64, bytes >> 20],
                            ),
                            "allreduce",
                            comm.rank(),
                            self.ts,
                            comm.now(),
                        );
                    }
                    dlsr_trace::record_span(
                        move || format!("allreduce[{step_idx}.{gi}] {bytes}B"),
                        dlsr_trace::cat::ALLREDUCE,
                        self.ts,
                        comm.now(),
                    );
                    self.gi += 1;
                    self.phase = SimPhase::GroupLaunch;
                }
                SimPhase::Backward => {
                    // backward must have finished before the optimizer
                    // step; staged transfers stall the compute stream,
                    // stretching it (Fig 6)
                    let step_idx = self.step_idx;
                    let bwd_end = self.t0 + (tr.fwd + tr.bwd) * self.jit + tr.staged_blocking;
                    comm.advance_to(bwd_end);
                    if self.recording() {
                        self.tl.record(
                            Label::indexed("bwd[{}]", [step_idx, 0, 0]),
                            "compute",
                            comm.rank(),
                            self.bwd_start,
                            bwd_end,
                        );
                    }
                    dlsr_trace::record_span(
                        move || format!("bwd[{step_idx}]"),
                        dlsr_trace::cat::COMPUTE,
                        self.bwd_start,
                        bwd_end,
                    );
                    if comm.size() > 1 {
                        // per-step metric logging (§III-A guideline 5):
                        // tiny allreduce of loss/throughput scalars — the
                        // 1–128 KB bin of Table I. Logging happens at a
                        // synchronized point (after the optimizer step), so
                        // the straggler wait lands in the barrier and the
                        // recorded allreduce time is pure transport — which
                        // is why this bin shows no IPC benefit (Table I
                        // row 1).
                        self.phase = SimPhase::AfterBarrier;
                        return Step::Task(BarrierTask::new().into());
                    }
                    self.phase = SimPhase::StepTail;
                }
                SimPhase::AfterBarrier => {
                    self.ts = comm.now();
                    self.phase = SimPhase::AfterMetrics;
                    return Step::Task(
                        AllreduceElemsTask::new(
                            METRICS_ELEMS,
                            FUSION_BUF_ID_BASE - 2,
                            comm.config().allreduce,
                        )
                        .into(),
                    );
                }
                SimPhase::AfterMetrics => {
                    let step_idx = self.step_idx;
                    if self.recording() {
                        self.prof.record(
                            Collective::Allreduce,
                            (METRICS_ELEMS * 4) as u64,
                            comm.now() - self.ts,
                        );
                        self.tl.record(
                            Label::indexed("metrics[{}]", [step_idx, 0, 0]),
                            "allreduce",
                            comm.rank(),
                            self.ts,
                            comm.now(),
                        );
                    }
                    dlsr_trace::record_span(
                        move || format!("metrics[{step_idx}]"),
                        dlsr_trace::cat::ALLREDUCE,
                        self.ts,
                        comm.now(),
                    );
                    self.phase = SimPhase::StepTail;
                }
                SimPhase::StepTail => {
                    comm.advance(tr.tail);
                    self.step_idx += 1;
                    self.phase = SimPhase::StepStart;
                }
            }
        }
    }

    fn finish(&mut self, comm: &mut Comm, trace: Vec<dlsr_trace::TraceEvent>) -> RankRun {
        RankRun {
            warm_end: self.warm_end,
            end: comm.now(),
            prof: std::mem::replace(&mut self.prof, Hvprof::new()),
            reg: comm.regcache_stats(),
            timeline: std::mem::replace(&mut self.tl, Timeline::new()),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::edsr_measured_workload;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = jitter_factor(1, 3, 7, 0.05);
        let b = jitter_factor(1, 3, 7, 0.05);
        assert_eq!(a, b);
        for rank in 0..100 {
            let j = jitter_factor(1, rank, 0, 0.05);
            assert!((1.0..1.05).contains(&j), "jitter {j}");
        }
    }

    #[test]
    fn estimate_prefers_ipc_for_large_messages() {
        let topo = ClusterTopology::lassen(1);
        let big = 32 << 20;
        let t_def = estimate_allreduce(&MpiConfig::default_mpi(), Backend::Mpi, &topo, big);
        let t_opt = estimate_allreduce(&MpiConfig::mpi_opt(), Backend::Mpi, &topo, big);
        assert!(t_opt < t_def);
        // below the IPC threshold the estimates coincide
        let small = 1 << 20;
        let s_def = estimate_allreduce(&MpiConfig::default_mpi(), Backend::Mpi, &topo, small);
        let s_opt = estimate_allreduce(&MpiConfig::mpi_opt(), Backend::Mpi, &topo, small);
        assert_eq!(s_def, s_opt);
    }

    #[test]
    fn plan_produces_multiple_bins_for_the_measured_workload() {
        // The Table I mechanism: the dynamic engine must emit both small
        // (early, lone tensors) and large (accumulated) fused messages.
        let (w, tensors) = edsr_measured_workload();
        let topo = ClusterTopology::lassen(1);
        let trainer = SimTrainer::new(w, tensors, 4, Scenario::MpiDefault, &topo, 1).unwrap();
        let sizes: Vec<u64> = trainer.plan().iter().map(|g| g.group.bytes).collect();
        assert!(!sizes.is_empty());
        let mid = sizes
            .iter()
            .filter(|&&b| ((128 << 10)..(16 << 20)).contains(&b))
            .count();
        let bin16 = sizes
            .iter()
            .filter(|&&b| ((16 << 20)..(32u64 << 20)).contains(&b))
            .count();
        let bin32 = sizes
            .iter()
            .filter(|&&b| ((32u64 << 20)..(64 << 20)).contains(&b))
            .count();
        assert!(mid > 0, "no 128KB-16MB messages: {sizes:?}");
        assert!(bin16 > 0, "no 16-32MB messages: {sizes:?}");
        assert!(bin32 > 0, "no 32-64MB messages: {sizes:?}");
        assert!(
            bin32 >= bin16,
            "32-64MB should dominate as in Table I: {sizes:?}"
        );
        let total: u64 = sizes.iter().sum();
        assert_eq!(total, trainer.workload().grad_bytes() as u64);
        // the 1-128KB bin traffic comes from the per-step metrics allreduce
        // (exercised in the experiment tests)
    }

    /// docs/SIMCORE.md's host-cost formula, pinned: under MPI-Opt a step
    /// runs `G + 1` two-level allreduces (the fusion groups and the metrics
    /// reduction), each with a `2·N·(N−1)`-cell wave over the `N` node
    /// leaders.
    #[test]
    fn a_step_evaluates_the_host_cost_formulas_ring_cells() {
        let (w, tensors) = edsr_measured_workload();
        let topo = ClusterTopology::lassen(8);
        let sc = Scenario::MpiOpt;
        let groups = SimTrainer::new(w.clone(), tensors.clone(), 4, sc, &topo, 7)
            .unwrap()
            .plan()
            .len();
        let (warmup, steps) = (1, 3);
        let (_, counters) = crate::analysis::traced(|| {
            crate::run_training(&topo, sc, &w, &tensors, 4, warmup, steps, 7)
        });
        let n = topo.nodes;
        let per_step = (groups + 1) * 2 * n * (n - 1);
        assert!(groups > 1, "{groups} fusion groups");
        assert_eq!(
            counters.get(dlsr_trace::report::keys::WAVE_CELLS).copied(),
            Some(((warmup + steps) * per_step) as f64),
            "{groups} groups over {n} leaders"
        );
    }

    #[test]
    fn oversize_batch_is_oom() {
        let (w, tensors) = edsr_measured_workload();
        let topo = ClusterTopology::lassen(1);
        assert!(SimTrainer::new(w, tensors, 64, Scenario::MpiOpt, &topo, 1).is_err());
    }
}
