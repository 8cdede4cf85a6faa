//! Real distributed training of small EDSR configurations: every rank runs
//! actual forward/backward/optimizer math and exchanges real gradients
//! through the simulated MPI fabric. This is the correctness anchor for
//! the costs-only simulator: data-parallel training must match single-rank
//! training numerically, and must actually learn to super-resolve.
//!
//! The training loop carries the graceful-degradation machinery of
//! `docs/ROBUSTNESS.md`: periodic in-memory parameter + optimizer-state
//! checkpoints ([`RealTrainConfig::checkpoint_every`]) and, under the
//! `faults` feature, restore-and-continue recovery from a scheduled
//! mid-run rank failure. Because data loading is step-keyed and the
//! restored state is exact, the replayed steps are bitwise identical to an
//! undisturbed run — only the virtual timeline pays for the fault.

use std::fmt;

use dlsr_data::{DataLoader, Div2kSynthetic, ShardSpec, SyntheticImageSpec};
use dlsr_horovod::{broadcast_parameters, DistributedOptimizer, HorovodConfig};
use dlsr_hvprof::Hvprof;
use dlsr_models::{Edsr, EdsrConfig};
use dlsr_mpi::{MpiConfig, MpiWorld};
use dlsr_net::ClusterTopology;
use dlsr_nn::checkpoint::StateDict;
use dlsr_nn::loss::l1_loss;
use dlsr_nn::metrics::psnr;
use dlsr_nn::module::Module;
use dlsr_nn::module::ModuleExt as _;
use dlsr_nn::optim::{Adam, AdamState};
use dlsr_nn::schedule::{LrSchedule, StepDecay, Warmup};
use dlsr_tensor::resize::bicubic_upsample;

/// Configuration of a real training run.
///
/// `#[non_exhaustive]`: construct through [`RealTrainConfig::default`] or
/// the chainable [`RealTrainConfig::builder`], never a struct literal, so
/// new knobs (like `checkpoint_every`) land additively.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RealTrainConfig {
    /// EDSR variant to train (use small configs — this is real CPU math).
    pub model: EdsrConfig,
    /// LR patch extent.
    pub lr_patch: usize,
    /// Global batch size (split across ranks).
    pub global_batch: usize,
    /// Training steps.
    pub steps: usize,
    /// Base learning rate (scaled by world size by Horovod).
    pub lr: f32,
    /// Number of synthetic DIV2K images.
    pub n_images: usize,
    /// Master seed.
    pub seed: u64,
    /// EDSR-style patch augmentation (random flips + rot90).
    pub augment: bool,
    /// Linear LR warmup steps (the standard companion of Horovod's
    /// `lr · world` scaling at large effective batches).
    pub warmup_steps: u64,
    /// Optional step decay `(period, gamma)` — EDSR uses `(200_000, 0.5)`.
    pub lr_decay: Option<(u64, f32)>,
    /// Evaluate held-out PSNR every `n` steps (recorded in `psnr_curve`).
    pub eval_every: Option<usize>,
    /// Overlap backward compute with gradient allreduce (the cycle-driven
    /// engine, [`DistributedOptimizer::backward_and_step`]); `false` runs
    /// the classic backward-then-allreduce sequential path.
    pub overlap: bool,
    /// Horovod fusion threshold in bytes. The default is sized so a tiny
    /// EDSR's ~23 KB gradient set splits into a handful of groups —
    /// overlap needs more than one group to have anything to pipeline.
    pub fusion_threshold: u64,
    /// Horovod cycle time in seconds; also paces overlapped group
    /// launches (expected phase lag `cycle_time / 2`).
    pub cycle_time: f64,
    /// Take an in-memory parameter + optimizer-state checkpoint every `n`
    /// steps (0 — the default — disables checkpointing entirely; the
    /// training loop is then byte-identical to the pre-checkpoint code).
    /// Every checkpoint charges a deterministic virtual cost on all ranks.
    pub checkpoint_every: usize,
    /// Enable the online comm tuner ([`dlsr_horovod::tuner`]): the first
    /// steps each measure one fusion/cycle/threshold candidate, then the
    /// argmin freezes. Pre-warm the `DLSR_TUNE_CACHE` file to skip
    /// exploration and keep the run digest-stable from step 0.
    pub tune_comm: bool,
}

impl Default for RealTrainConfig {
    fn default() -> Self {
        RealTrainConfig {
            model: EdsrConfig::tiny(),
            lr_patch: 12,
            global_batch: 4,
            steps: 30,
            lr: 3e-3,
            n_images: 4,
            seed: 42,
            augment: false,
            warmup_steps: 0,
            lr_decay: None,
            eval_every: None,
            overlap: true,
            fusion_threshold: 8 << 10,
            cycle_time: 0.35e-3,
            checkpoint_every: 0,
            tune_comm: false,
        }
    }
}

impl RealTrainConfig {
    /// Chainable, validated construction starting from the defaults.
    pub fn builder() -> RealTrainConfigBuilder {
        RealTrainConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Reopen any config for further tweaking.
    pub fn to_builder(self) -> RealTrainConfigBuilder {
        RealTrainConfigBuilder { cfg: self }
    }
}

/// A [`RealTrainConfigBuilder`] rejected its knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid RealTrainConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`RealTrainConfig`]: defaults-based, chainable, validated
/// at [`RealTrainConfigBuilder::try_build`].
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until built"]
pub struct RealTrainConfigBuilder {
    cfg: RealTrainConfig,
}

impl RealTrainConfigBuilder {
    /// EDSR variant to train.
    pub fn model(mut self, model: EdsrConfig) -> Self {
        self.cfg.model = model;
        self
    }

    /// LR patch extent.
    pub fn lr_patch(mut self, px: usize) -> Self {
        self.cfg.lr_patch = px;
        self
    }

    /// Global batch size (split across ranks).
    pub fn global_batch(mut self, n: usize) -> Self {
        self.cfg.global_batch = n;
        self
    }

    /// Training steps.
    pub fn steps(mut self, n: usize) -> Self {
        self.cfg.steps = n;
        self
    }

    /// Base learning rate.
    pub fn lr(mut self, lr: f32) -> Self {
        self.cfg.lr = lr;
        self
    }

    /// Number of synthetic DIV2K images.
    pub fn n_images(mut self, n: usize) -> Self {
        self.cfg.n_images = n;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// EDSR-style patch augmentation.
    pub fn augment(mut self, on: bool) -> Self {
        self.cfg.augment = on;
        self
    }

    /// Linear LR warmup steps.
    pub fn warmup_steps(mut self, n: u64) -> Self {
        self.cfg.warmup_steps = n;
        self
    }

    /// Optional step decay `(period, gamma)`.
    pub fn lr_decay(mut self, decay: Option<(u64, f32)>) -> Self {
        self.cfg.lr_decay = decay;
        self
    }

    /// Evaluate held-out PSNR every `n` steps.
    pub fn eval_every(mut self, every: Option<usize>) -> Self {
        self.cfg.eval_every = every;
        self
    }

    /// Overlap backward compute with gradient allreduce.
    pub fn overlap(mut self, on: bool) -> Self {
        self.cfg.overlap = on;
        self
    }

    /// Horovod fusion threshold in bytes.
    pub fn fusion_threshold(mut self, bytes: u64) -> Self {
        self.cfg.fusion_threshold = bytes;
        self
    }

    /// Horovod cycle time in seconds.
    pub fn cycle_time(mut self, seconds: f64) -> Self {
        self.cfg.cycle_time = seconds;
        self
    }

    /// Checkpoint period in steps (0 disables).
    pub fn checkpoint_every(mut self, steps: usize) -> Self {
        self.cfg.checkpoint_every = steps;
        self
    }

    /// Enable the online comm tuner.
    pub fn tune_comm(mut self, on: bool) -> Self {
        self.cfg.tune_comm = on;
        self
    }

    /// Validate and build.
    pub fn try_build(self) -> Result<RealTrainConfig, ConfigError> {
        let c = &self.cfg;
        if c.steps == 0 {
            return Err(ConfigError("steps must be ≥ 1".into()));
        }
        if c.lr_patch == 0 {
            return Err(ConfigError("lr_patch must be ≥ 1".into()));
        }
        if c.global_batch == 0 {
            return Err(ConfigError("global_batch must be ≥ 1".into()));
        }
        if c.n_images == 0 {
            return Err(ConfigError("n_images must be ≥ 1".into()));
        }
        if !(c.lr > 0.0 && c.lr.is_finite()) {
            return Err(ConfigError(format!("lr ({}) must be positive", c.lr)));
        }
        if c.fusion_threshold == 0 {
            return Err(ConfigError("fusion_threshold must be positive".into()));
        }
        if !(c.cycle_time > 0.0 && c.cycle_time.is_finite()) {
            return Err(ConfigError(format!(
                "cycle_time ({}) must be a positive duration",
                c.cycle_time
            )));
        }
        Ok(self.cfg)
    }

    /// [`RealTrainConfigBuilder::try_build`], panicking on invalid knobs.
    pub fn build(self) -> RealTrainConfig {
        self.try_build()
            .unwrap_or_else(|e| panic!("RealTrainConfigBuilder::build: {e}"))
    }
}

/// Virtual-clock compute cost per multiply-accumulate, calibrated against
/// the CPU reference kernels the real path actually runs: the deterministic
/// charge keeps every rank's compute identical (no wall-clock noise in the
/// simulated timeline) while staying in the same regime as the measured
/// kernels, so exposed-vs-hidden communication in the step report is
/// meaningful. Backward costs 2× forward (grad-input + grad-weight GEMMs).
const FWD_SECONDS_PER_MAC: f64 = 2.5e-9;
const BWD_SECONDS_PER_MAC: f64 = 5.0e-9;

/// Checkpoint cost model: streaming the snapshot (params + two Adam
/// moments, f32) to node-local stable storage, plus a fixed coordination
/// cost. Charged identically on all ranks (checkpoints are synchronous).
const CHECKPOINT_BANDWIDTH: f64 = 2.0e9;
const CHECKPOINT_FIXED_SECONDS: f64 = 50.0e-6;
/// Virtual time for the fabric to agree a rank died (heartbeat timeout).
#[cfg(feature = "faults")]
const FAILURE_DETECT_SECONDS: f64 = 1.0e-3;

/// Outcome of a real training run.
#[derive(Debug, Clone)]
pub struct RealTrainResult {
    /// Per-step global average L1 loss (rank 0's local loss — identical
    /// across ranks in expectation).
    pub losses: Vec<f32>,
    /// PSNR of the trained model on a held-out image.
    pub model_psnr: f32,
    /// PSNR of plain bicubic upsampling on the same image.
    pub bicubic_psnr: f32,
    /// Final flattened parameters (rank 0) — for equivalence checks.
    pub final_params: Vec<f32>,
    /// `(step, PSNR)` samples when `eval_every` is set.
    pub psnr_curve: Vec<(usize, f32)>,
    /// Virtual makespan of the job.
    pub makespan: f64,
    /// Registration-cache statistics of rank 0.
    pub regcache: dlsr_net::RegCacheStats,
    /// Communicator statistics of rank 0 (transport mix, retry/backoff and
    /// degraded-link charges under faults).
    pub comm_stats: dlsr_mpi::CommStats,
    /// Structured trace spans of every rank's lane, in rank order (kernel
    /// spans from worker threads included); empty unless a `dlsr-trace`
    /// sink is in scope.
    pub trace: Vec<dlsr_trace::TraceEvent>,
    /// Analytic-vs-measured gradient-readiness reconciliation from rank
    /// 0's last overlapped backward; `None` on the sequential path.
    pub readiness: Option<dlsr_horovod::ReadinessReconciliation>,
    /// What the collective-matching verifier checked (`None` without the
    /// `verify` feature).
    pub verify: Option<dlsr_mpi::verify::VerifySummary>,
}

fn image_spec(lr_patch: usize, scale: usize) -> SyntheticImageSpec {
    SyntheticImageSpec {
        height: (lr_patch * scale * 2).max(32),
        width: (lr_patch * scale * 2).max(32),
        ..Default::default()
    }
}

/// An in-memory checkpoint: everything needed to replay from `step`.
/// Replicated on every rank (the replicas are identical — synchronous data
/// parallelism keeps all ranks' parameters equal), so recovery needs only
/// rank 0's copy re-broadcast to overwrite any replacement rank.
#[derive(Clone)]
#[cfg_attr(not(feature = "faults"), allow(dead_code))] // read only by restore
struct Snapshot {
    step: usize,
    params: StateDict,
    opt: AdamState,
}

/// Flat f32 encoding of [`AdamState`] for `bcast`: `[t, m₀…, v₀…, m₁…, …]`
/// in the snapshot's (name-sorted) order. Exact for `t < 2^24`.
#[cfg(feature = "faults")]
fn flatten_adam_state(s: &AdamState) -> Vec<f32> {
    let mut flat = vec![s.t as f32];
    for (_, _, m, v) in &s.moments {
        flat.extend_from_slice(m);
        flat.extend_from_slice(v);
    }
    flat
}

/// Inverse of [`flatten_adam_state`], using `template` for the name/shape
/// skeleton (identical on every rank — same model, same step).
#[cfg(feature = "faults")]
fn unflatten_adam_state(template: &AdamState, flat: &[f32]) -> AdamState {
    let mut out = template.clone();
    out.t = flat[0] as u64;
    let mut off = 1;
    for (_, _, m, v) in &mut out.moments {
        let (ml, vl) = (m.len(), v.len());
        m.copy_from_slice(&flat[off..off + ml]);
        off += ml;
        v.copy_from_slice(&flat[off..off + vl]);
        off += vl;
    }
    out
}

/// Train EDSR data-parallel on a simulated cluster with real math.
pub fn train_real(
    topo: &ClusterTopology,
    mpi: MpiConfig,
    cfg: &RealTrainConfig,
) -> RealTrainResult {
    let cfg = cfg.clone();
    let world = topo.total_gpus();
    assert!(
        cfg.global_batch.is_multiple_of(world),
        "global batch {} not divisible by {world} ranks",
        cfg.global_batch
    );
    let res = MpiWorld::run(topo, mpi, move |comm| {
        let scale = cfg.model.scale;
        let mut model = Edsr::new(cfg.model, cfg.seed + comm.rank() as u64);
        let mut prof = Hvprof::new();
        // make all ranks start from rank 0's parameters
        broadcast_parameters(&mut model, comm, 0, &mut prof);
        let dataset = Div2kSynthetic::new(
            image_spec(cfg.lr_patch, scale),
            cfg.n_images,
            scale,
            cfg.seed,
        );
        let mut loader = DataLoader::new(
            dataset,
            cfg.lr_patch,
            cfg.global_batch,
            ShardSpec {
                rank: comm.rank(),
                world,
            },
        )
        .with_augmentation(cfg.augment);
        let mut eval_ds =
            Div2kSynthetic::new(image_spec(cfg.lr_patch, scale), 1, scale, cfg.seed ^ 0xEEEE);
        // DistributedOptimizer applies Horovod's lr ← lr · world scaling
        // (§III-A guideline 4). `cfg.lr` is the *effective* rate: feeding
        // lr/world keeps the trajectory identical across world sizes for a
        // fixed global batch, which the equivalence tests rely on.
        let mut opt = DistributedOptimizer::new(
            Adam::new(cfg.lr / world as f32),
            &mut model,
            HorovodConfig::builder()
                .fusion_threshold(cfg.fusion_threshold)
                .cycle_time(cfg.cycle_time)
                .tune_comm(cfg.tune_comm)
                .build(),
            world,
        );
        // Deterministic virtual compute charge per step: identical in the
        // sequential and overlapped modes (required for their bitwise
        // equivalence) and on every rank (no wall-clock noise). A
        // straggler multiplier from the fault plan stretches this rank's
        // compute without touching the math.
        #[cfg(feature = "faults")]
        let compute_mult = comm
            .config()
            .fault_plan
            .as_ref()
            .map(|p| p.compute_multiplier(comm.rank()))
            .unwrap_or(1.0);
        #[cfg(not(feature = "faults"))]
        let compute_mult = 1.0;
        let local_batch = cfg.global_batch / world;
        let macs =
            model.num_params() as f64 * (cfg.lr_patch * cfg.lr_patch) as f64 * local_batch as f64;
        let fwd_virtual = macs * FWD_SECONDS_PER_MAC * compute_mult;
        let bwd_virtual = macs * BWD_SECONDS_PER_MAC * compute_mult;
        // LR schedule: warmup (for the world-scaled rate) + optional decay
        let (period, gamma) = cfg.lr_decay.unwrap_or((u64::MAX, 1.0));
        let schedule = Warmup {
            warmup_steps: cfg.warmup_steps,
            start_factor: 1.0 / world as f32,
            inner: StepDecay { period, gamma },
        };
        let mut sched = SchedulerShim::new(opt_lr(&opt), schedule);
        let (hr, lr) = eval_ds.image(0);
        let (hr, lr) = (hr.clone(), lr.clone());
        let mut losses = Vec::with_capacity(cfg.steps);
        let mut psnr_curve = Vec::new();
        // Bytes one snapshot streams to stable storage: params + m + v + t.
        let snapshot_bytes = (model.num_params() * 3 + 1) as f64 * 4.0;
        let checkpoint_cost = CHECKPOINT_FIXED_SECONDS + snapshot_bytes / CHECKPOINT_BANDWIDTH;
        // The scheduled mid-run failure, if any (Copy — read out up front
        // so the borrow of the config doesn't pin `comm`).
        #[cfg(feature = "faults")]
        let rank_failure = comm
            .config()
            .fault_plan
            .as_ref()
            .and_then(|p| p.rank_failure());
        #[cfg(feature = "faults")]
        let mut restored = false;
        #[cfg(feature = "faults")]
        let want_snapshots = cfg.checkpoint_every > 0 || rank_failure.is_some();
        #[cfg(not(feature = "faults"))]
        let want_snapshots = cfg.checkpoint_every > 0;
        // Initial snapshot (free: taken from the post-broadcast state
        // before any virtual time passes) so recovery always has a base.
        let mut snapshot: Option<Snapshot> = want_snapshots.then(|| Snapshot {
            step: 0,
            params: StateDict::from_module(&mut model),
            opt: opt.inner().state_snapshot(),
        });
        let mut step = 0usize;
        while step < cfg.steps {
            // Scheduled rank failure: once the virtual job reaches the
            // failure step, all ranks detect the death, roll back to the
            // last checkpoint and continue — the replacement rank slots in
            // with re-broadcast state. Replay is bitwise-exact because the
            // loader is step-keyed and the restored state is exact.
            #[cfg(feature = "faults")]
            // dlsr-lint: allow(collective-order) -- rank_failure is config,
            // identical on every rank: all ranks take the same arm together
            if let Some(f) = rank_failure {
                if !restored && step == f.step {
                    let snap = snapshot.clone().expect("initial snapshot exists");
                    let t0 = comm.now();
                    comm.advance(FAILURE_DETECT_SECONDS);
                    if comm.rank() == 0 {
                        snap.params.load_into(&mut model).expect("restore params");
                    }
                    broadcast_parameters(&mut model, comm, 0, &mut prof);
                    // Optimizer state rides a flat bcast from rank 0; every
                    // rank's replica is identical, so non-root buffers are
                    // correctly sized from their own copy.
                    let mut flat = flatten_adam_state(&snap.opt);
                    dlsr_mpi::collectives::bcast(comm, &mut flat, 0, 0x4641_554C /* "FAUL" */);
                    opt.inner_mut()
                        .load_state(&unflatten_adam_state(&snap.opt, &flat));
                    comm.advance(checkpoint_cost);
                    dlsr_trace::record_span(
                        || format!("restore r{} step {} <- ckpt {}", f.rank, f.step, snap.step),
                        dlsr_trace::cat::FAULT,
                        t0,
                        comm.now(),
                    );
                    if comm.rank() == 0 {
                        dlsr_trace::counter_add(dlsr_trace::report::keys::FAULT_RESTORES, 1.0);
                    }
                    sched.reset_to(snap.step as u64);
                    step = snap.step;
                    losses.truncate(step);
                    psnr_curve.retain(|&(s, _)| s <= step);
                    restored = true;
                    continue;
                }
            }
            sched.apply(&mut opt);
            let (lr_batch, hr_batch) = loader.batch(0, step as u64);
            let t_fwd = comm.now();
            let pred = model.forward(&lr_batch).expect("forward");
            comm.advance(fwd_virtual);
            dlsr_trace::record_span(
                || format!("fwd b{local_batch}"),
                dlsr_trace::cat::COMPUTE,
                t_fwd,
                comm.now(),
            );
            let (loss, grad) = l1_loss(&pred, &hr_batch).expect("loss");
            if cfg.overlap {
                // Cycle-driven engine: fusion groups launch their
                // allreduces from inside backward, as gradients finalize.
                opt.backward_and_step(&mut model, &grad, comm, bwd_virtual)
                    .expect("backward");
            } else {
                let t_bwd = comm.now();
                model.backward(&grad).expect("backward");
                comm.advance(bwd_virtual);
                dlsr_trace::record_span(
                    || format!("bwd b{local_batch}"),
                    dlsr_trace::cat::COMPUTE,
                    t_bwd,
                    comm.now(),
                );
                opt.step(&mut model, comm);
            }
            losses.push(loss);
            if let Some(every) = cfg.eval_every {
                if every > 0 && (step + 1).is_multiple_of(every) {
                    let sr = model.predict(&lr).expect("predict");
                    psnr_curve.push((step + 1, psnr(&sr, &hr, 1.0).expect("psnr")));
                }
            }
            // Periodic synchronous checkpoint: all ranks charge the same
            // deterministic cost and refresh their replica.
            if cfg.checkpoint_every > 0 && (step + 1).is_multiple_of(cfg.checkpoint_every) {
                let t0 = comm.now();
                snapshot = Some(Snapshot {
                    step: step + 1,
                    params: StateDict::from_module(&mut model),
                    opt: opt.inner().state_snapshot(),
                });
                comm.advance(checkpoint_cost);
                dlsr_trace::record_span(
                    || format!("checkpoint step {}", step + 1),
                    dlsr_trace::cat::FAULT,
                    t0,
                    comm.now(),
                );
                if comm.rank() == 0 {
                    use dlsr_trace::report::keys;
                    dlsr_trace::counter_add(keys::FAULT_CHECKPOINTS, 1.0);
                    dlsr_trace::counter_add(keys::FAULT_CHECKPOINT_SECONDS, checkpoint_cost);
                }
            }
            step += 1;
        }
        // Without the `faults` feature nothing ever restores from the
        // replica; keep it observed so the checkpoint path (and its lint
        // profile) is identical in both builds.
        #[cfg(not(feature = "faults"))]
        let _ = &snapshot;
        // held-out evaluation (same on every rank; rank 0's is reported)
        let sr = model.predict(&lr).expect("predict");
        let model_psnr = psnr(&sr, &hr, 1.0).expect("psnr");
        let bicubic = bicubic_upsample(&lr, scale).expect("bicubic");
        let bicubic_psnr = psnr(&bicubic, &hr, 1.0).expect("psnr");
        (
            losses,
            model_psnr,
            bicubic_psnr,
            model.flatten_params(),
            psnr_curve,
            comm.now(),
            comm.regcache_stats(),
            opt.readiness_reconciliation().cloned(),
            comm.stats().clone(),
        )
    });
    let makespan = res.ranks.iter().map(|r| r.5).fold(0.0, f64::max);
    // every rank recorded into its own lane of the sink in scope, if any
    let trace = dlsr_trace::current().map_or_else(Vec::new, |l| l.sink().drain_events());
    let regcache = res.ranks[0].6;
    let r0 = res.ranks.into_iter().next().expect("rank 0");
    RealTrainResult {
        losses: r0.0,
        model_psnr: r0.1,
        bicubic_psnr: r0.2,
        final_params: r0.3,
        psnr_curve: r0.4,
        makespan,
        regcache,
        comm_stats: r0.8,
        trace,
        readiness: r0.7,
        verify: res.verify,
    }
}

/// The `nn::schedule::Scheduler` drives `Optimizer`s; the distributed
/// optimizer wraps one, so this shim applies the schedule to the wrapped
/// rate through `DistributedOptimizer`'s inner accessors.
struct SchedulerShim<S: LrSchedule> {
    base_lr: f32,
    schedule: S,
    step: u64,
}

impl<S: LrSchedule> SchedulerShim<S> {
    fn new(base_lr: f32, schedule: S) -> Self {
        SchedulerShim {
            base_lr,
            schedule,
            step: 0,
        }
    }

    fn apply(&mut self, opt: &mut DistributedOptimizer<Adam>) {
        opt.set_inner_lr(self.base_lr * self.schedule.factor(self.step));
        self.step += 1;
    }

    /// Rewind to `step` (checkpoint rollback): the schedule is a pure
    /// function of the step counter, so resetting the counter replays the
    /// exact same rate sequence.
    #[cfg(feature = "faults")]
    fn reset_to(&mut self, step: u64) {
        self.step = step;
    }
}

fn opt_lr(opt: &DistributedOptimizer<Adam>) -> f32 {
    use dlsr_nn::optim::Optimizer;
    opt.inner().lr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_training_learns() {
        let topo = ClusterTopology {
            name: "mini".into(),
            nodes: 1,
            gpus_per_node: 2,
        };
        let res = train_real(&topo, MpiConfig::mpi_opt(), &RealTrainConfig::default());
        let first: f32 = res.losses[..5].iter().sum::<f32>() / 5.0;
        let last: f32 = res.losses[res.losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(last < first, "loss did not fall: {first} -> {last}");
        assert!(res.makespan > 0.0);
        assert!(res.comm_stats.sends > 0);
    }

    #[test]
    fn all_world_sizes_produce_identical_parameters() {
        // The whole point of synchronous data parallelism: with the global
        // batch held fixed, 1-, 2- and 4-rank training follow the same
        // trajectory (up to f32 reduction-order noise).
        let cfg = RealTrainConfig::builder().steps(6).build();
        let t1 = ClusterTopology {
            name: "w1".into(),
            nodes: 1,
            gpus_per_node: 1,
        };
        let t2 = ClusterTopology {
            name: "w2".into(),
            nodes: 1,
            gpus_per_node: 2,
        };
        let t4 = ClusterTopology {
            name: "w4".into(),
            nodes: 1,
            gpus_per_node: 4,
        };
        let r1 = train_real(&t1, MpiConfig::mpi_opt(), &cfg);
        let r2 = train_real(&t2, MpiConfig::mpi_opt(), &cfg);
        let r4 = train_real(&t4, MpiConfig::mpi_opt(), &cfg);
        let diff12 = max_abs_diff(&r1.final_params, &r2.final_params);
        let diff14 = max_abs_diff(&r1.final_params, &r4.final_params);
        assert!(diff12 < 2e-4, "1 vs 2 ranks diverged: {diff12}");
        assert!(diff14 < 2e-4, "1 vs 4 ranks diverged: {diff14}");
    }

    /// The loader renders each synthetic image once: over 60 steps a rank
    /// renders at most its `n_images` training images plus the eval image,
    /// however many patches it draws from them.
    #[test]
    fn each_rank_renders_each_image_at_most_once() {
        let topo = ClusterTopology::lassen(1);
        let cfg = RealTrainConfig::builder().steps(60).build();
        let (_, counters) =
            crate::analysis::traced(|| train_real(&topo, MpiConfig::mpi_opt(), &cfg));
        let rendered = counters[dlsr_trace::report::keys::IMAGES_RENDERED];
        let per_rank_bound = (cfg.n_images + 1) as f64;
        let world = topo.total_gpus() as f64;
        assert!(
            rendered >= world && rendered <= world * per_rank_bound,
            "{rendered} images rendered by {world} ranks"
        );
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn full_recipe_trains_with_augment_warmup_decay_and_eval() {
        let topo = ClusterTopology {
            name: "mini".into(),
            nodes: 1,
            gpus_per_node: 2,
        };
        let cfg = RealTrainConfig::builder()
            .steps(12)
            .augment(true)
            .warmup_steps(4)
            .lr_decay(Some((8, 0.5)))
            .eval_every(Some(4))
            .build();
        let res = train_real(&topo, MpiConfig::mpi_opt(), &cfg);
        assert_eq!(res.losses.len(), 12);
        assert_eq!(
            res.psnr_curve.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![4, 8, 12]
        );
        assert!(res
            .psnr_curve
            .iter()
            .all(|&(_, p)| p.is_finite() && p > 0.0));
        let first: f32 = res.losses[..4].iter().sum::<f32>() / 4.0;
        let last: f32 = res.losses[8..].iter().sum::<f32>() / 4.0;
        assert!(last < first, "loss did not fall: {first} -> {last}");
    }

    #[test]
    fn warmup_changes_the_early_trajectory_only() {
        let topo = ClusterTopology {
            name: "w2".into(),
            nodes: 1,
            gpus_per_node: 2,
        };
        let base = RealTrainConfig::builder().steps(3).build();
        let warm = RealTrainConfig::builder().steps(3).warmup_steps(50).build();
        let a = train_real(&topo, MpiConfig::mpi_opt(), &base);
        let b = train_real(&topo, MpiConfig::mpi_opt(), &warm);
        // with a long warmup the first steps use a much smaller rate, so
        // the trajectories must differ
        assert_ne!(a.final_params, b.final_params);
    }

    #[test]
    fn checkpointing_charges_time_but_not_math() {
        let topo = ClusterTopology {
            name: "mini".into(),
            nodes: 1,
            gpus_per_node: 2,
        };
        let base = RealTrainConfig::builder().steps(8).build();
        let ckpt = base.clone().to_builder().checkpoint_every(3).build();
        let a = train_real(&topo, MpiConfig::mpi_opt(), &base);
        let b = train_real(&topo, MpiConfig::mpi_opt(), &ckpt);
        // checkpoints are pure timeline overhead: identical math, longer job
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.final_params, b.final_params);
        assert!(
            b.makespan > a.makespan,
            "checkpoints must cost virtual time"
        );
    }

    #[test]
    fn builder_validates_and_round_trips() {
        let cfg = RealTrainConfig::builder()
            .steps(5)
            .checkpoint_every(2)
            .overlap(false)
            .build();
        assert_eq!(cfg.steps, 5);
        assert_eq!(cfg.checkpoint_every, 2);
        assert!(!cfg.overlap);
        assert!(RealTrainConfig::builder().steps(0).try_build().is_err());
        assert!(RealTrainConfig::builder().lr(-1.0).try_build().is_err());
        assert!(RealTrainConfig::builder()
            .cycle_time(0.0)
            .try_build()
            .is_err());
    }
}
