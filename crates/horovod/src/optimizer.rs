//! The `DistributedOptimizer` wrapper and parameter broadcast — the two
//! code changes that "Horovod-ize" a single-GPU model (§III-A).

use dlsr_hvprof::{Collective, Hvprof};
use dlsr_mpi::collectives::{bcast, wire, Allreduce, ReduceOp};
use dlsr_mpi::nccl::Nccl;
use dlsr_mpi::{Comm, CommChoice, WireFormat};
use dlsr_nn::module::{Module, ModuleExt};
use dlsr_nn::optim::Optimizer;
use dlsr_nn::Param;
use dlsr_tensor::{Result, Tensor};

use crate::config::{Backend, HorovodConfig};
use crate::coordinator::negotiate;
use crate::fusion::{
    plan_fusion, readiness_from_elems, reconcile_readiness, FusionGroup, ReadinessReconciliation,
    TensorSpec,
};
use crate::tuner::{CommTuneEntry, CommTuner};

/// Stable buffer-id namespace for the persistent fusion buffers (reused
/// every step → registration-cache hits, the §III-D effect): group `g`
/// reduces under `FUSION_BUF_ID_BASE + g`; the parameter broadcast uses
/// `FUSION_BUF_ID_BASE - 1` and the simulator's metrics reduction `- 2`.
pub const FUSION_BUF_ID_BASE: u64 = 0x4655_5300; // "FUS"

/// Buffer id of the tuner's 1-element step-duration agreement allreduce.
const TUNE_BUF_ID: u64 = 0x54_554E; // "TUN"

/// Algorithm + wire selection for one fused group: the comm config's
/// size-binned [`select_comm`](dlsr_mpi::MpiConfig::select_comm), with the
/// tuner's `rd`/`pipeline` thresholds substituted when a tuned entry is
/// active. A pure function of `(bytes, tuned, config)`, so every rank picks
/// identically.
fn comm_choice(comm: &Comm, bytes: u64, tuned: Option<CommTuneEntry>) -> CommChoice {
    let nodes = comm.topology().nodes;
    match tuned {
        Some(e) => {
            let mut cfg = comm.config().clone();
            cfg.tuning.rd_threshold = e.rd_threshold;
            cfg.tuning.pipeline_threshold = e.pipeline_threshold;
            cfg.select_comm(bytes, nodes)
        }
        None => comm.config().select_comm(bytes, nodes),
    }
}

/// Top-k error feedback (EF-SGD): fold the residual of the previous step
/// into the gradient before compression, then stash everything the top-k
/// selection will drop. `topk_indices` is a pure function of the values,
/// so this recomputes exactly the set the collective transmits.
fn topk_error_feedback(buf: &mut [f32], residual: &mut [f32], k_permille: u16) {
    for (b, r) in buf.iter_mut().zip(residual.iter()) {
        *b += *r;
    }
    let k = wire::topk_count(buf.len(), k_permille);
    let idx = wire::topk_indices(buf, k);
    for (r, &b) in residual.iter_mut().zip(buf.iter()) {
        *r = b;
    }
    for &i in &idx {
        residual[i as usize] = 0.0;
    }
}

/// Fusion-buffer counters for the step report: group count, bytes actually
/// packed, and the capacity each group occupies (a group can exceed the
/// threshold when a single tensor is larger than it, so capacity is the
/// max of the two — utilization stays ≤ 100%).
#[inline]
pub fn record_group_counters(group: &FusionGroup, fusion_threshold: u64) {
    use dlsr_trace::report::keys;
    dlsr_trace::counter_add(keys::FUSION_GROUPS, 1.0);
    dlsr_trace::counter_add(keys::FUSION_PACKED_BYTES, group.bytes as f64);
    dlsr_trace::counter_add(
        keys::FUSION_CAPACITY_BYTES,
        group.bytes.max(fusion_threshold) as f64,
    );
}

/// Broadcast model parameters from `root` so all ranks start identical
/// (§III-A guideline 2). Records the bcast in `prof`.
pub fn broadcast_parameters(
    model: &mut dyn Module,
    comm: &mut Comm,
    root: usize,
    prof: &mut Hvprof,
) {
    let mut flat = model.flatten_params();
    let t0 = comm.now();
    bcast(comm, &mut flat, root, FUSION_BUF_ID_BASE - 1);
    prof.record(Collective::Bcast, (flat.len() * 4) as u64, comm.now() - t0);
    model.load_flat_params(&flat);
}

/// Horovod's distributed optimizer: wraps a local optimizer, averaging
/// gradients across ranks (tensor-fusion allreduce) before every step.
pub struct DistributedOptimizer<O: Optimizer> {
    inner: O,
    cfg: HorovodConfig,
    tensors: Vec<TensorSpec>,
    groups: Vec<FusionGroup>,
    prof: Hvprof,
    cycle: u64,
    /// d2d pack/unpack bandwidth (fusion-buffer copies), bytes/s.
    pack_bandwidth: f64,
    /// Offset of each tensor (reduction order) in the reduction-order flat
    /// gradient buffer; groups tile this buffer contiguously.
    rev_offsets: Vec<usize>,
    /// Total gradient element count.
    total_elems: usize,
    /// Persistent double-buffered fusion buffers: group k packs into
    /// buffer k % 2 while group k−1 is on the wire. Capacity persists
    /// across steps → registration-cache hits.
    fuse_bufs: [Vec<f32>; 2],
    /// Averaged gradients staged in reduction order until write-back
    /// (frees the parity buffer for group k+2). The sequential step stages
    /// the local gradients here first; each group packs its range and its
    /// average lands back in the same range.
    avg_flat: Vec<f32>,
    /// Wall-clock readiness offsets (seconds from backward start) measured
    /// during the last overlapped backward, one per tensor in reduction
    /// order.
    measured_readiness: Vec<f64>,
    /// Analytic-vs-measured readiness comparison from the last overlapped
    /// backward.
    reconciliation: Option<ReadinessReconciliation>,
    /// Online comm tuner (lazily created on the first tuned step when
    /// `cfg.tune_comm`).
    tuner: Option<CommTuner>,
    /// The knob set the current step runs with (`None` ⇒ untuned config).
    applied: Option<CommTuneEntry>,
    /// The fusion threshold `self.groups` was planned with (re-planning is
    /// only paid when the tuner actually moves this knob).
    applied_fusion: u64,
    /// Top-k error-feedback residuals, one per gradient element in
    /// reduction order; empty until a top-k wire format is first chosen.
    residual: Vec<f32>,
    /// Virtual-clock start of the current tuned step.
    step_t0: f64,
}

impl<O: Optimizer> DistributedOptimizer<O> {
    /// Wrap `inner`, planning fusion for `model`'s parameter set.
    ///
    /// Also applies the learning-rate scaling of §III-A guideline 4:
    /// `lr ← lr · world_size` to counteract the effectively larger global
    /// batch.
    pub fn new(mut inner: O, model: &mut dyn Module, cfg: HorovodConfig, world: usize) -> Self {
        // Gradients become ready in reverse layer order during backward;
        // Horovod fuses them in readiness order.
        let mut tensors: Vec<TensorSpec> = Vec::new();
        model.visit_params(&mut |p| {
            tensors.push(TensorSpec {
                name: p.name.clone(),
                elems: p.numel(),
            })
        });
        tensors.reverse();
        let groups = plan_fusion(&tensors, cfg.fusion_threshold);
        inner.set_lr(inner.lr() * world as f32);
        let mut rev_offsets = Vec::with_capacity(tensors.len());
        let mut off = 0usize;
        for t in &tensors {
            rev_offsets.push(off);
            off += t.elems;
        }
        DistributedOptimizer {
            inner,
            cfg,
            tensors,
            groups,
            prof: Hvprof::new(),
            cycle: 0,
            pack_bandwidth: 700.0e9,
            rev_offsets,
            total_elems: off,
            fuse_bufs: [Vec::new(), Vec::new()],
            avg_flat: Vec::new(),
            measured_readiness: Vec::new(),
            reconciliation: None,
            tuner: None,
            applied: None,
            applied_fusion: cfg.fusion_threshold,
            residual: Vec::new(),
            step_t0: 0.0,
        }
    }

    /// The planned fusion groups.
    pub fn fusion_groups(&self) -> &[FusionGroup] {
        &self.groups
    }

    /// The tensor list in reduction order.
    pub fn tensors(&self) -> &[TensorSpec] {
        &self.tensors
    }

    /// The accumulated communication profile.
    pub fn profiler(&self) -> &Hvprof {
        &self.prof
    }

    /// The wrapped optimizer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Mutable access to the wrapped optimizer (checkpoint restore loads
    /// optimizer state back through this).
    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }

    /// Set the wrapped optimizer's learning rate directly (LR schedules
    /// drive the already-world-scaled rate through this).
    pub fn set_inner_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr);
    }

    /// Wall-clock readiness offsets measured during the last overlapped
    /// backward (empty until [`DistributedOptimizer::backward_and_step`]
    /// has run), one per tensor in reduction order.
    pub fn measured_readiness(&self) -> &[f64] {
        &self.measured_readiness
    }

    /// Analytic-vs-measured readiness comparison from the last overlapped
    /// backward.
    pub fn readiness_reconciliation(&self) -> Option<&ReadinessReconciliation> {
        self.reconciliation.as_ref()
    }

    /// The comm tuner's frozen decision, if tuning ran and converged.
    pub fn comm_tune_decision(&self) -> Option<CommTuneEntry> {
        self.tuner.as_ref().and_then(|t| t.frozen())
    }

    /// The cycle period in effect this step (tuned or configured).
    fn cycle_time(&self) -> f64 {
        self.applied.map_or(self.cfg.cycle_time, |e| e.cycle_time())
    }

    /// The fusion threshold in effect this step (tuned or configured).
    fn fusion_threshold(&self) -> u64 {
        self.applied
            .map_or(self.cfg.fusion_threshold, |e| e.fusion_threshold)
    }

    /// Apply the tuner's knob set for the coming step: re-plan fusion when
    /// the threshold moved, adopt the candidate's cycle time and selection
    /// thresholds, and stamp the step start. No-op unless `cfg.tune_comm`
    /// on a multi-rank world.
    #[cfg_attr(any(), dlsr::deterministic)]
    fn tune_begin(&mut self, comm: &mut Comm) {
        if !self.cfg.tune_comm || comm.size() <= 1 {
            return;
        }
        if self.tuner.is_none() {
            let base = CommTuneEntry {
                fusion_threshold: self.cfg.fusion_threshold,
                cycle_time_ns: (self.cfg.cycle_time * 1e9).round() as u64,
                rd_threshold: comm.config().tuning.rd_threshold,
                pipeline_threshold: comm.config().tuning.pipeline_threshold,
            };
            self.tuner = Some(CommTuner::new(
                comm.size(),
                self.total_elems as u64 * 4,
                base,
            ));
        }
        let entry = self.tuner.as_ref().unwrap().current();
        if entry.fusion_threshold != self.applied_fusion {
            self.groups = plan_fusion(&self.tensors, entry.fusion_threshold);
            self.applied_fusion = entry.fusion_threshold;
        }
        self.applied = Some(entry);
        self.step_t0 = comm.now();
    }

    /// Close a tuned step: agree on its virtual duration with a 1-element
    /// Max-allreduce (every rank must act on the same measurement) and
    /// feed the tuner. The agreement runs only while candidates are still
    /// being explored — a frozen tuner costs nothing per step.
    #[cfg_attr(any(), dlsr::deterministic)]
    fn tune_end(&mut self, comm: &mut Comm) {
        let Some(t) = self.tuner.as_mut() else {
            return;
        };
        if !t.exploring() {
            return;
        }
        let mut d = vec![(comm.now() - self.step_t0) as f32];
        Allreduce::new(&mut d)
            .buf_id(TUNE_BUF_ID)
            .op(ReduceOp::Max)
            .wire(WireFormat::F32)
            .run(comm);
        t.observe(d[0] as f64, comm.rank() == 0);
    }

    /// Overlapped backward + distributed step — the cycle-driven engine.
    ///
    /// Runs `model`'s backward with a gradient-readiness hook; the moment
    /// the last tensor of a fusion group has its final gradient, that
    /// group is packed and its allreduce launched *while backward is still
    /// producing gradients for earlier layers*. Two persistent parity
    /// buffers double-buffer the packing: group k+1 packs into buffer
    /// `(k+1) % 2` while group k's buffer is on the wire (groups launch
    /// strictly in plan order, so at most one group is ever partially
    /// packed).
    ///
    /// `bwd_virtual` is the virtual-clock duration of the whole backward
    /// pass. Group launch times inside it follow the *analytical*
    /// readiness schedule ([`readiness_from_elems`] plus the engine's
    /// `cycle_time / 2` expected phase lag) — a pure function of the model
    /// shape, so every rank launches the same groups in the same order at
    /// the same virtual times. Wall-clock readiness is recorded per tensor
    /// for [`DistributedOptimizer::readiness_reconciliation`].
    ///
    /// Gradients, parameter updates and the returned input-gradient are
    /// bitwise identical to `model.backward(grad_out)` followed by
    /// [`DistributedOptimizer::step`]: the hook observes final gradient
    /// values, and both engines run every group through the same
    /// pack·reduce·unpack, only launching it at a different time.
    #[cfg_attr(any(), dlsr::deterministic)]
    pub fn backward_and_step(
        &mut self,
        model: &mut dyn Module,
        grad_out: &Tensor,
        comm: &mut Comm,
        bwd_virtual: f64,
    ) -> Result<Tensor> {
        self.tune_begin(comm);
        let world = comm.size();
        let n = self.tensors.len();
        let readiness = readiness_from_elems(&self.tensors, bwd_virtual);
        let bwd_start_v = comm.now();
        // dlsr-lint: allow(wall-clock) -- measured readiness is wall-domain
        // by design: it is diagnostic only (reconcile_readiness), never fed
        // into launch order, tags or any rank-visible decision.
        let wall0 = std::time::Instant::now();
        if world > 1 {
            self.cycle += 1;
        }
        let cycle = self.cycle;
        let cycle_half = self.cycle_time() * 0.5;
        self.measured_readiness.clear();
        self.avg_flat.resize(self.total_elems, 0.0);

        let mut next_tensor = 0usize;
        let mut cur_group = 0usize;
        let mut filled = 0usize; // elems packed into the current group

        let g_in = model.backward_with_hook(grad_out, &mut |p| {
            self.measured_readiness.push(wall0.elapsed().as_secs_f64());
            debug_assert_eq!(
                p.name, self.tensors[next_tensor].name,
                "hook order diverged from the fusion plan"
            );
            next_tensor += 1;
            if world <= 1 {
                return; // nothing to reduce — readiness capture only
            }
            let gi = cur_group;
            let buf = &mut self.fuse_bufs[gi % 2];
            if filled == 0 {
                buf.clear(); // capacity persists across steps and groups
            }
            buf.extend_from_slice(p.grad.data());
            filled += p.numel();
            let group = &self.groups[gi];
            if filled < group.elems {
                return;
            }
            // Group complete: launch its allreduce now, while backward
            // continues on the remaining layers.
            let (last, bytes) = (*group.indices.last().unwrap(), group.bytes);
            comm.advance_to(bwd_start_v + readiness[last] + cycle_half);
            if gi == 0 {
                negotiate(comm, n, cycle);
            }
            let w0 = dlsr_trace::now_wall_s();
            self.exchange(gi, comm);
            // Wall-clock marker proving the launch happened mid-backward;
            // the cost is carried by the exchange's virtual spans.
            dlsr_trace::record_wall_span(
                || format!("allreduce.launch[g{gi}] {bytes}B"),
                dlsr_trace::cat::AR_LAUNCH,
                comm.rank(),
                w0,
                dlsr_trace::now_wall_s(),
            );
            filled = 0;
            cur_group += 1;
        })?;

        assert_eq!(next_tensor, n, "backward did not fire every parameter hook");
        if world > 1 {
            assert_eq!(
                cur_group,
                self.groups.len(),
                "not every fusion group launched"
            );
        }
        // Backward compute ends `bwd_virtual` after it started; if some
        // group's reduction ran past that, the clock is already later.
        comm.advance_to(bwd_start_v + bwd_virtual);
        dlsr_trace::record_span(
            || format!("bwd {n}t"),
            dlsr_trace::cat::COMPUTE,
            bwd_start_v,
            bwd_start_v + bwd_virtual,
        );
        self.reconciliation = Some(reconcile_readiness(&readiness, &self.measured_readiness));
        if world > 1 {
            self.visit_staged(model, |p, avg| p.grad.data_mut().copy_from_slice(avg));
        }
        self.inner.step(model);
        self.tune_end(comm);
        Ok(g_in)
    }

    /// One distributed training step: negotiate, then pack, allreduce and
    /// average every fusion group in plan order, then apply the wrapped
    /// optimizer. Call after `model.backward(...)`.
    #[cfg_attr(any(), dlsr::deterministic)]
    pub fn step(&mut self, model: &mut dyn Module, comm: &mut Comm) {
        if comm.size() > 1 {
            self.tune_begin(comm);
            self.cycle += 1;
            // Coordinator cycle: cost of waiting for the tick + negotiation.
            comm.advance(self.cycle_time());
            negotiate(comm, self.tensors.len(), self.cycle);
            self.avg_flat.resize(self.total_elems, 0.0);
            self.visit_staged(model, |p, staged| staged.copy_from_slice(p.grad.data()));
            let mut off = 0usize;
            for gi in 0..self.groups.len() {
                let elems = self.groups[gi].elems;
                let buf = &mut self.fuse_bufs[gi % 2];
                buf.clear();
                buf.extend_from_slice(&self.avg_flat[off..off + elems]);
                self.exchange(gi, comm);
                off += elems;
            }
            self.visit_staged(model, |p, avg| p.grad.data_mut().copy_from_slice(avg));
            self.inner.step(model);
            self.tune_end(comm);
            return;
        }
        self.inner.step(model);
    }

    /// Call `f` on each of `model`'s parameters with its range of the
    /// reduction-order staging buffer (visit order is reduction order
    /// reversed).
    fn visit_staged(&mut self, model: &mut dyn Module, f: impl Fn(&mut Param, &mut [f32])) {
        let n = self.tensors.len();
        let (rev_offsets, staged) = (&self.rev_offsets, &mut self.avg_flat);
        let mut v = 0usize;
        model.visit_params(&mut |p| {
            let off = rev_offsets[n - 1 - v];
            f(p, &mut staged[off..off + p.numel()]);
            v += 1;
        });
    }

    /// Exchange fusion group `gi`, already packed into its parity buffer
    /// `fuse_bufs[gi % 2]`: charge the pack, allreduce the buffer on the
    /// configured backend, average it into its range of `avg_flat` and
    /// charge the unpack. Both engines call this once per group, in plan
    /// order; they differ only in when a group launches.
    #[cfg_attr(any(), dlsr::deterministic)]
    fn exchange(&mut self, gi: usize, comm: &mut Comm) {
        let group = &self.groups[gi];
        let bytes = group.bytes;
        // groups tile the reduction order contiguously
        let off = self.rev_offsets[group.indices[0]];
        let range = off..off + group.elems;
        record_group_counters(group, self.fusion_threshold());
        let t_pack = comm.now();
        comm.advance(bytes as f64 / self.pack_bandwidth);
        dlsr_trace::record_span(
            || format!("pack[g{gi}] {bytes}B"),
            dlsr_trace::cat::FUSION,
            t_pack,
            comm.now(),
        );
        let buf = &mut self.fuse_bufs[gi % 2];
        let buf_id = FUSION_BUF_ID_BASE + gi as u64;
        let t0 = comm.now();
        comm.verify_launch(gi);
        match self.cfg.backend {
            Backend::Mpi => {
                let choice = comm_choice(comm, bytes, self.applied);
                if let WireFormat::TopK { k_permille } = choice.wire {
                    self.residual.resize(self.total_elems, 0.0);
                    topk_error_feedback(buf, &mut self.residual[range.clone()], k_permille);
                }
                Allreduce::new(&mut *buf)
                    .buf_id(buf_id)
                    .algo(choice.algo)
                    .wire(choice.wire)
                    .group(gi)
                    .run(comm);
            }
            Backend::Nccl => Nccl::all_reduce(comm, buf, buf_id),
        }
        self.prof
            .record(Collective::Allreduce, bytes, comm.now() - t0);
        dlsr_trace::record_span(
            || format!("allreduce[g{gi}] {bytes}B"),
            dlsr_trace::cat::ALLREDUCE,
            t0,
            comm.now(),
        );
        // Average into the staging buffer; the parity buffer frees for
        // group gi + 2.
        let world = comm.size() as f32;
        let t_unpack = comm.now();
        for (dst, src) in self.avg_flat[range].iter_mut().zip(buf.iter()) {
            *dst = *src / world;
        }
        comm.advance(bytes as f64 / self.pack_bandwidth);
        dlsr_trace::record_span(
            || format!("unpack[g{gi}] {bytes}B"),
            dlsr_trace::cat::FUSION,
            t_unpack,
            comm.now(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsr_mpi::{MpiConfig, MpiWorld};
    use dlsr_net::ClusterTopology;
    use dlsr_nn::layers::Conv2d;
    use dlsr_nn::optim::Sgd;

    fn make_model(seed: u64) -> Conv2d {
        Conv2d::new("c", 2, 4, 3, dlsr_tensor::conv::Conv2dParams::same(3), seed)
    }

    #[test]
    fn broadcast_parameters_makes_all_ranks_identical() {
        let topo = ClusterTopology::lassen(1);
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
            let mut model = make_model(c.rank() as u64 + 1); // all different
            let mut prof = Hvprof::new();
            broadcast_parameters(&mut model, c, 0, &mut prof);
            model.flatten_params()
        });
        for r in 1..4 {
            assert_eq!(res.ranks[r], res.ranks[0], "rank {r} differs after bcast");
        }
    }

    #[test]
    fn distributed_gradients_equal_the_global_average() {
        // Each rank accumulates a rank-dependent gradient; after step() the
        // *parameter update* must reflect the average across ranks.
        let topo = ClusterTopology::lassen(1);
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
            let mut model = make_model(1); // identical params
                                           // install rank-dependent gradients: grad = rank + 1 everywhere
            let g = (c.rank() + 1) as f32;
            model.visit_params(&mut |p| {
                let shape = p.value.shape().clone();
                p.accumulate_grad(&dlsr_tensor::Tensor::full(shape, g));
            });
            // lr chosen so update = avg(grad) exactly; world scaling undone
            let mut opt = DistributedOptimizer::new(
                Sgd::new(1.0 / 4.0),
                &mut model,
                HorovodConfig::default(),
                4,
            );
            // DistributedOptimizer scaled lr to 1.0; avg grad = (1+2+3+4)/4 = 2.5
            opt.step(&mut model, c);
            model.flatten_params()
        });
        let mut reference = make_model(1);
        let before = reference.flatten_params();
        for r in 0..4 {
            for (i, (&after, &b)) in res.ranks[r].iter().zip(before.iter()).enumerate() {
                let delta = b - after;
                assert!(
                    (delta - 2.5).abs() < 1e-4,
                    "rank {r} param {i}: update {delta} != 2.5"
                );
            }
        }
    }

    #[test]
    fn lr_is_scaled_by_world_size() {
        let mut model = make_model(1);
        let opt =
            DistributedOptimizer::new(Sgd::new(0.01), &mut model, HorovodConfig::default(), 8);
        assert!((opt.inner().lr() - 0.08).abs() < 1e-7);
    }

    #[test]
    fn fusion_plan_covers_all_parameters() {
        let mut model = make_model(1);
        let opt = DistributedOptimizer::new(
            Sgd::new(0.01),
            &mut model,
            HorovodConfig::builder().fusion_threshold(64).build(),
            1,
        );
        let total: usize = opt.fusion_groups().iter().map(|g| g.elems).sum();
        assert_eq!(total, model.num_params());
        assert!(opt.fusion_groups().len() > 1, "tiny threshold must split");
    }

    #[test]
    fn profiler_records_allreduce_per_group() {
        let topo = ClusterTopology::lassen(1);
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
            let mut model = make_model(1);
            let mut opt =
                DistributedOptimizer::new(Sgd::new(0.01), &mut model, HorovodConfig::default(), 4);
            let g = dlsr_tensor::Tensor::full([4, 2, 3, 3], 1.0);
            model.visit_params(&mut |p| {
                if p.value.shape().rank() == 4 {
                    p.accumulate_grad(&g.clone());
                }
            });
            opt.step(&mut model, c);
            opt.profiler().total_seconds(Collective::Allreduce)
        });
        assert!(res.ranks.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn overlapped_step_is_bitwise_identical_to_sequential() {
        use dlsr_mpi::PathPolicy;
        use dlsr_nn::module::Sequential;
        use dlsr_tensor::init;
        let build = || {
            let p = dlsr_tensor::conv::Conv2dParams::same(3);
            Sequential::new()
                .push(Conv2d::new("a", 2, 3, 3, p, 7))
                .push(Conv2d::new("b", 3, 2, 3, p, 8))
        };
        let one_node = |gpus_per_node| ClusterTopology {
            name: format!("w{gpus_per_node}"),
            nodes: 1,
            gpus_per_node,
        };
        for backend in [Backend::Mpi, Backend::Nccl] {
            // Small threshold → two fusion groups from a two-conv model,
            // so the double-buffered launch path is actually exercised.
            let cfg = HorovodConfig::builder()
                .fusion_threshold(256)
                .cycle_time(1e-4)
                .backend(backend)
                .build();
            for (topo, mcfg) in [
                (one_node(1), MpiConfig::mpi_opt()),
                (one_node(2), MpiConfig::mpi_opt()),
                (ClusterTopology::lassen(1), MpiConfig::mpi_opt()), // 4 ranks
                // 8 ranks over IB, with MPI's IPC broken by the pinned env
                (ClusterTopology::lassen(2), MpiConfig::default_mpi()),
            ] {
                let world = topo.total_gpus();
                // The coordinator's two negotiations ride MPI whatever the
                // backend, and stage intra-node; they are all NCCL may stage.
                let n_tensors = build().param_summary().len();
                let control = MpiWorld::run(&topo, mcfg.clone(), move |c| {
                    negotiate(c, n_tensors, 1);
                    negotiate(c, n_tensors, 1);
                    c.stats().staged_bytes
                });
                let res = MpiWorld::run(&topo, mcfg, move |c| {
                    // rank-dependent data → rank-dependent local gradients
                    let x = init::uniform([1, 2, 6, 6], -1.0, 1.0, 100 + c.rank() as u64);
                    // sequential reference: backward, then step
                    let mut m1 = build();
                    let y = m1.forward(&x).unwrap();
                    let gy = dlsr_tensor::Tensor::ones(y.shape().clone());
                    let mut o1 = DistributedOptimizer::new(Sgd::new(0.05), &mut m1, cfg, c.size());
                    let g1 = m1.backward(&gy).unwrap();
                    o1.step(&mut m1, c);
                    // overlapped: hooks launch groups mid-backward
                    let mut m2 = build();
                    m2.forward(&x).unwrap();
                    let mut o2 = DistributedOptimizer::new(Sgd::new(0.05), &mut m2, cfg, c.size());
                    let g2 = o2.backward_and_step(&mut m2, &gy, c, 2e-3).unwrap();
                    assert!(o2.fusion_groups().len() > 1, "want multiple groups");
                    // readiness was measured for every tensor, monotonically
                    let meas = o2.measured_readiness();
                    assert_eq!(meas.len(), o2.tensors().len());
                    assert!(meas.windows(2).all(|w| w[0] <= w[1]));
                    let rec = o2.readiness_reconciliation().unwrap();
                    assert!(rec.measured_monotone);
                    (
                        [m1.flatten_params(), m2.flatten_params()],
                        [g1.data().to_vec(), g2.data().to_vec()],
                        c.stats().staged_bytes,
                        c.path_policy(),
                    )
                });
                let label = format!("{backend:?}, world {world}");
                let (params0, grads0, _, _) = &res.ranks[0];
                for (r, (params, grads, staged, policy)) in res.ranks.iter().enumerate() {
                    for mode in 0..2 {
                        assert_eq!(
                            params[mode], params0[0],
                            "{label} rank {r}: params diverged"
                        );
                        assert_eq!(
                            grads[mode], grads0[0],
                            "{label} rank {r}: input grads diverged"
                        );
                    }
                    if backend == Backend::Nccl {
                        assert_eq!(
                            *staged, control.ranks[r],
                            "{label} rank {r}: NCCL staged gradients through host"
                        );
                        assert_eq!(
                            *policy,
                            PathPolicy::Mpi,
                            "{label} rank {r}: policy not restored"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_hides_communication_inside_backward() {
        use dlsr_nn::module::Sequential;
        use dlsr_tensor::init;
        let cfg = HorovodConfig::builder()
            .fusion_threshold(256)
            .cycle_time(1e-4)
            .build();
        let build = || {
            let p = dlsr_tensor::conv::Conv2dParams::same(3);
            Sequential::new()
                .push(Conv2d::new("a", 2, 3, 3, p, 7))
                .push(Conv2d::new("b", 3, 2, 3, p, 8))
        };
        let bwd = 50e-3; // long backward: every group but the last hides
        let topo = ClusterTopology::lassen(1);
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), move |c| {
            let x = init::uniform([1, 2, 6, 6], -1.0, 1.0, 3);
            let gy_of = |m: &mut Sequential, x: &dlsr_tensor::Tensor| {
                let y = m.forward(x).unwrap();
                dlsr_tensor::Tensor::ones(y.shape().clone())
            };
            // sequential: backward compute, then comm strictly after
            let mut m1 = build();
            let gy = gy_of(&mut m1, &x);
            let mut o1 = DistributedOptimizer::new(Sgd::new(0.05), &mut m1, cfg, c.size());
            let t0 = c.now();
            m1.backward(&gy).unwrap();
            c.advance(bwd);
            o1.step(&mut m1, c);
            let seq_elapsed = c.now() - t0;
            // overlapped: launches ride inside the backward window
            let mut m2 = build();
            let gy = gy_of(&mut m2, &x);
            let mut o2 = DistributedOptimizer::new(Sgd::new(0.05), &mut m2, cfg, c.size());
            let t1 = c.now();
            o2.backward_and_step(&mut m2, &gy, c, bwd).unwrap();
            let ovl_elapsed = c.now() - t1;
            (seq_elapsed, ovl_elapsed)
        });
        for (r, &(seq, ovl)) in res.ranks.iter().enumerate() {
            assert!(
                ovl < seq,
                "rank {r}: overlapped step {ovl}s not faster than sequential {seq}s"
            );
        }
    }

    #[test]
    fn comm_tuner_explores_then_freezes_and_ranks_stay_in_sync() {
        // 16 steps > two steps (settle + measure) per candidate, so the
        // tuner must freeze; the per-step agreement allreduce keeps every
        // rank on the same knob set, so parameters stay bitwise identical
        // throughout.
        let topo = ClusterTopology::lassen(1); // 4 ranks
        let cfg = HorovodConfig::builder().tune_comm(true).build();
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), move |c| {
            let mut model = make_model(1);
            let mut opt = DistributedOptimizer::new(Sgd::new(0.01), &mut model, cfg, c.size());
            for s in 0..16u32 {
                let g = (c.rank() as u32 + 1 + s) as f32;
                model.visit_params(&mut |p| {
                    let shape = p.value.shape().clone();
                    p.accumulate_grad(&dlsr_tensor::Tensor::full(shape, g));
                });
                opt.step(&mut model, c);
            }
            (model.flatten_params(), opt.comm_tune_decision())
        });
        let (params0, decision0) = &res.ranks[0];
        assert!(decision0.is_some(), "tuner never froze in 16 steps");
        for (r, (params, decision)) in res.ranks.iter().enumerate() {
            assert_eq!(params, params0, "rank {r} params diverged under tuning");
            assert_eq!(decision, decision0, "rank {r} froze a different entry");
        }
    }

    #[test]
    fn untuned_config_never_creates_a_tuner() {
        let topo = ClusterTopology::lassen(1);
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
            let mut model = make_model(1);
            let mut opt =
                DistributedOptimizer::new(Sgd::new(0.01), &mut model, HorovodConfig::default(), 4);
            model.visit_params(&mut |p| {
                let shape = p.value.shape().clone();
                p.accumulate_grad(&dlsr_tensor::Tensor::full(shape, 1.0));
            });
            opt.step(&mut model, c);
            opt.comm_tune_decision().is_none() && opt.tuner.is_none()
        });
        assert!(res.ranks.iter().all(|&ok| ok));
    }

    #[test]
    fn topk_wire_applies_error_feedback_and_keeps_ranks_identical() {
        // A top-k wire drops gradient mass into the per-rank residual;
        // ranks still agree bitwise because the reduced values are, and
        // training still moves the parameters.
        let topo = ClusterTopology::lassen(1);
        let mcfg = MpiConfig::mpi_opt()
            .to_builder()
            .wire(WireFormat::TopK { k_permille: 200 })
            .wire_threshold(0)
            .build();
        let res = MpiWorld::run(&topo, mcfg, |c| {
            let mut model = make_model(1);
            let mut opt =
                DistributedOptimizer::new(Sgd::new(0.05), &mut model, HorovodConfig::default(), 4);
            for s in 0..3u32 {
                // element- and rank-dependent gradients so the top-k
                // selection genuinely drops values
                model.visit_params(&mut |p| {
                    let shape = p.value.shape().clone();
                    let n = p.numel();
                    let data: Vec<f32> = (0..n)
                        .map(|i| ((i as u32 * (c.rank() as u32 + 1) + s) % 7) as f32 - 3.0)
                        .collect();
                    p.accumulate_grad(&dlsr_tensor::Tensor::from_vec(shape, data).unwrap());
                });
                opt.step(&mut model, c);
            }
            let dropped = opt.residual.iter().filter(|&&r| r != 0.0).count();
            (model.flatten_params(), dropped)
        });
        let before = make_model(1).flatten_params();
        let (params0, dropped0) = &res.ranks[0];
        assert_ne!(params0, &before, "top-k steps must still train");
        assert!(*dropped0 > 0, "k=200‰ left no residual — EF path not hit");
        for (r, (params, _)) in res.ranks.iter().enumerate() {
            assert_eq!(params, params0, "rank {r} params diverged under top-k");
        }
    }
}
