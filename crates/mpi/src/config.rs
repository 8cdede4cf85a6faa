//! Runtime configuration — the knobs the paper turns.
//!
//! [`MpiConfig`] is `#[non_exhaustive]`: construct it through the presets
//! ([`MpiConfig::default_mpi`] / [`MpiConfig::mpi_reg`] /
//! [`MpiConfig::mpi_opt`]) or the validated [`MpiConfig::builder`], never
//! a struct literal — so every future knob (like this PR's fault plan and
//! retry policy) lands additively instead of breaking ten call sites.

use std::fmt;

use dlsr_net::{FatTree, TransportModel};

use crate::collectives::{AllreduceAlgorithm, WireFormat};

/// How each rank's device environment is set up (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMode {
    /// `CUDA_VISIBLE_DEVICES=<local rank>`, no MPI-side mask: frameworks
    /// behave, but MPI cannot use CUDA IPC. **The broken default.**
    Pinned,
    /// `CUDA_VISIBLE_DEVICES=<local rank>` *and*
    /// `MV2_VISIBLE_DEVICES=0..gpus_per_node`: the paper's fix (Fig 7).
    PinnedWithMv2,
    /// No masks at all: IPC works but every process pays a CUDA context on
    /// every local device (Fig 6a's overhead kernels).
    Unpinned,
}

/// How the transport answers transient message loss/corruption: up to
/// `max_attempts` transmissions, waiting `timeout · backoff^(k−1)` virtual
/// seconds after the k-th failure before retrying. Exhausting the attempts
/// is terminal ([`crate::CommError::RetriesExhausted`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Transmission attempts per message (≥ 1; 1 means no retries).
    pub max_attempts: u32,
    /// Virtual seconds until the first failed attempt is detected
    /// (ack timeout / checksum round-trip).
    pub timeout: f64,
    /// Exponential backoff base between successive attempts (≥ 1.0).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            timeout: 200.0e-6,
            backoff: 2.0,
        }
    }
}

/// Communication-tuning knobs: the algorithm size bins, the pipelined
/// ring's chunking, and the wire-compression policy. Grouped in one
/// sub-struct so the online comm tuner (`dlsr-horovod`) and the CLI can
/// treat "the tunable comm surface" as a value, and so consistency rules
/// (e.g. `rd_threshold < pipeline_threshold`) validate in one place via
/// [`MpiConfigBuilder::try_build`].
///
/// The defaults reproduce the historical flat-field defaults exactly, so
/// a default `CommTuning` never changes an existing run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct CommTuning {
    /// Slice size in bytes of the pipelined ring allreduce: each ring step
    /// streams its block in `pipeline_chunk`-byte sub-chunks so only one
    /// sub-chunk reduction is ever on the critical path.
    pub pipeline_chunk: u64,
    /// Messages at or above this many bytes use the pipelined ring when
    /// the algorithm is selected by size.
    pub pipeline_threshold: u64,
    /// Messages at or below this many bytes use recursive doubling
    /// (latency-bound regime) when the algorithm is selected by size.
    pub rd_threshold: u64,
    /// Wire format for gradient payloads at or above `wire_threshold`
    /// bytes (below it, everything stays lossless f32 — small messages are
    /// latency-bound, so halving their bytes buys nothing).
    pub wire: WireFormat,
    /// Size floor in bytes for applying `wire` compression.
    pub wire_threshold: u64,
    /// Promote hierarchical (two-level) allreduce into the size-binned
    /// selection on multi-node worlds: intra-node flat reduce, inter-node
    /// ring among node leaders (pipelined + wire-compressed on the large
    /// bins), intra-node bcast. Off by default — the flat roster keeps its
    /// historical behavior.
    pub hierarchical: bool,
}

impl Default for CommTuning {
    fn default() -> Self {
        CommTuning {
            pipeline_chunk: 4 << 20,
            pipeline_threshold: 8 << 20,
            rd_threshold: 128 << 10,
            wire: WireFormat::F32,
            wire_threshold: 8 << 20,
            hierarchical: false,
        }
    }
}

impl CommTuning {
    /// Wire format for a message of `bytes`: the configured format at or
    /// above the wire threshold, lossless f32 below it.
    pub fn select_wire(&self, bytes: u64) -> WireFormat {
        if bytes >= self.wire_threshold {
            self.wire
        } else {
            WireFormat::F32
        }
    }

    /// Consistency rules shared by [`MpiConfigBuilder::try_build`].
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.rd_threshold >= self.pipeline_threshold {
            return Err(ConfigError(format!(
                "rd_threshold ({}) must lie below pipeline_threshold ({})",
                self.rd_threshold, self.pipeline_threshold
            )));
        }
        if self.pipeline_chunk == 0 {
            return Err(ConfigError("pipeline_chunk must be positive".into()));
        }
        if let WireFormat::TopK { k_permille } = self.wire {
            if !(1..=1000).contains(&k_permille) {
                return Err(ConfigError(format!(
                    "top-k density ({k_permille}‰) must lie in 1..=1000"
                )));
            }
        }
        Ok(())
    }
}

/// The algorithm + wire-format pair a size-binned selection resolved to
/// (see [`MpiConfig::select_comm`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommChoice {
    /// Allreduce algorithm.
    pub algo: AllreduceAlgorithm,
    /// Gradient wire format.
    pub wire: WireFormat,
}

/// An [`MpiConfigBuilder`] rejected its knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub(crate) String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MpiConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// MPI library configuration (the `MV2_*` environment of a job).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MpiConfig {
    /// Device-mask setup for every rank.
    pub device_mode: DeviceMode,
    /// Allreduce algorithm selection.
    pub allreduce: AllreduceAlgorithm,
    /// Enable the InfiniBand registration cache (§III-D).
    pub registration_cache: bool,
    /// Registration cache capacity in bytes (per rank).
    pub reg_cache_capacity: u64,
    /// Transport constants.
    pub transport: TransportModel,
    /// Inter-node switch topology (adds spine-crossing latency).
    pub fat_tree: FatTree,
    /// One-time cost of establishing a CUDA IPC mapping to a peer device
    /// (handle exchange + `cuIpcOpenMemHandle`), amortized across a run.
    pub ipc_setup_cost: f64,
    /// Sender-side CPU overhead per message.
    pub send_overhead: f64,
    /// Sender-side overhead per message under the NCCL-like policy
    /// (per-step kernel launches).
    pub nccl_send_overhead: f64,
    /// Receiver-side CPU overhead per message.
    pub recv_overhead: f64,
    /// Effective bytes/s of the GPU vector-reduce kernel used inside
    /// reduction collectives (bandwidth-bound: ~3 accesses/element).
    pub reduce_bandwidth: f64,
    /// Communication-tuning knobs: algorithm size bins, pipelined-ring
    /// chunking, wire compression, hierarchical promotion (see
    /// [`MpiConfig::select_comm`]). Adjusted online by the comm tuner.
    pub tuning: CommTuning,
    /// Retry/timeout/backoff policy answering transient transport faults.
    pub retry: RetryPolicy,
    /// Worker-pool size of the event core: how many ranks may run
    /// concurrently. 0 — the default — means "auto": the machine's
    /// available parallelism, capped at the world size. Never affects
    /// results, only wall time.
    pub sim_workers: usize,
    /// Host-byte budget for in-flight (sent, not yet received) messages
    /// across the whole world. Exceeding it is an explicit
    /// [`crate::CommError::MailboxBudget`] instead of unbounded queue
    /// growth. 0 disables the check.
    pub sim_mailbox_budget: u64,
    /// Scheduled faults for this job (shared by every rank). `None` — the
    /// default — injects nothing: the send path skips every fault hook.
    pub fault_plan: Option<std::sync::Arc<dlsr_faults::FaultPlan>>,
}

impl MpiConfig {
    /// The paper's **MPI** baseline: pinned devices, no IPC, no reg cache.
    pub fn default_mpi() -> Self {
        MpiConfig {
            device_mode: DeviceMode::Pinned,
            allreduce: AllreduceAlgorithm::TwoLevel,
            registration_cache: false,
            reg_cache_capacity: 1 << 32,
            transport: TransportModel::lassen(),
            fat_tree: FatTree::lassen(),
            ipc_setup_cost: 100.0e-6,
            send_overhead: 2.0e-6,
            nccl_send_overhead: 8.0e-6,
            recv_overhead: 2.0e-6,
            reduce_bandwidth: 500.0e9,
            tuning: CommTuning::default(),
            retry: RetryPolicy::default(),
            sim_workers: 0,
            sim_mailbox_budget: 1 << 30,
            fault_plan: None,
        }
    }

    /// Size-binned allreduce algorithm selection, mirroring the paper's
    /// message-size tuning: latency-bound small messages take recursive
    /// doubling (fewest rounds), huge messages take the chunked pipelined
    /// ring (bandwidth-optimal with sub-chunk overlap), and the middle band
    /// keeps the configured default. Deterministic in the buffer size only,
    /// so every rank — and the sequential and overlapped optimizer paths —
    /// pick the same algorithm for the same tensor.
    pub fn select_allreduce(&self, bytes: u64) -> AllreduceAlgorithm {
        if bytes <= self.tuning.rd_threshold {
            AllreduceAlgorithm::RecursiveDoubling
        } else if bytes >= self.tuning.pipeline_threshold {
            AllreduceAlgorithm::PipelinedRing
        } else {
            self.allreduce
        }
    }

    /// Full size-binned communication selection: the allreduce algorithm
    /// *and* the wire format for a `bytes`-sized message on a
    /// `nodes`-node world.
    ///
    /// Extends [`MpiConfig::select_allreduce`] with the wire-efficiency
    /// layer: when [`CommTuning::hierarchical`] is on and the world spans
    /// multiple nodes, buffers whose intra-node phases can ride the CUDA
    /// IPC/NVLink path (`bytes >= transport.ipc_large_threshold`) take the
    /// two-level hierarchy — whose inter-node leader ring is itself
    /// pipelined and wire-compressed — instead of the flat pipelined ring;
    /// inter-node links, not intra-node ones, are the scaling wall the
    /// paper measures. Below the IPC threshold the intra-node phases would
    /// stage through host memory at a fraction of NVLink bandwidth (and
    /// stay lossless f32 by design), so two-level's log-depth full-buffer
    /// phases lose to the flat chunked ring there and promotion stays out
    /// of the way of the size-binned selection. Deterministic in
    /// `(bytes, nodes)` and the config only.
    pub fn select_comm(&self, bytes: u64, nodes: usize) -> CommChoice {
        let mut algo = self.select_allreduce(bytes);
        if self.tuning.hierarchical
            && nodes > 1
            && bytes > self.tuning.rd_threshold
            && bytes >= self.transport.ipc_large_threshold
        {
            algo = AllreduceAlgorithm::TwoLevel;
        }
        CommChoice {
            algo,
            wire: self.tuning.select_wire(bytes),
        }
    }

    /// **MPI-Reg**: default + registration cache (Fig 11).
    pub fn mpi_reg() -> Self {
        MpiConfig {
            registration_cache: true,
            ..Self::default_mpi()
        }
    }

    /// **MPI-Opt**: registration cache + `MV2_VISIBLE_DEVICES` restoring
    /// CUDA IPC (Figs 12–14, Table I).
    pub fn mpi_opt() -> Self {
        MpiConfig {
            device_mode: DeviceMode::PinnedWithMv2,
            registration_cache: true,
            ..Self::default_mpi()
        }
    }

    /// Chainable, validated construction starting from
    /// [`MpiConfig::default_mpi`].
    pub fn builder() -> MpiConfigBuilder {
        MpiConfigBuilder {
            cfg: Self::default_mpi(),
        }
    }

    /// Reopen any config (usually a preset) for further tweaking.
    pub fn to_builder(self) -> MpiConfigBuilder {
        MpiConfigBuilder { cfg: self }
    }
}

/// Builder for [`MpiConfig`]: defaults-based, chainable, validated at
/// [`MpiConfigBuilder::try_build`].
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until built"]
pub struct MpiConfigBuilder {
    cfg: MpiConfig,
}

impl MpiConfigBuilder {
    /// Device-mask setup for every rank.
    pub fn device_mode(mut self, mode: DeviceMode) -> Self {
        self.cfg.device_mode = mode;
        self
    }

    /// Default allreduce algorithm for mid-sized messages.
    pub fn allreduce(mut self, algo: AllreduceAlgorithm) -> Self {
        self.cfg.allreduce = algo;
        self
    }

    /// Enable/disable the InfiniBand registration cache.
    pub fn registration_cache(mut self, on: bool) -> Self {
        self.cfg.registration_cache = on;
        self
    }

    /// Registration cache capacity in bytes.
    pub fn reg_cache_capacity(mut self, bytes: u64) -> Self {
        self.cfg.reg_cache_capacity = bytes;
        self
    }

    /// Transport constants.
    pub fn transport(mut self, t: TransportModel) -> Self {
        self.cfg.transport = t;
        self
    }

    /// Inter-node switch topology.
    pub fn fat_tree(mut self, ft: FatTree) -> Self {
        self.cfg.fat_tree = ft;
        self
    }

    /// One-time CUDA IPC mapping cost, seconds.
    pub fn ipc_setup_cost(mut self, s: f64) -> Self {
        self.cfg.ipc_setup_cost = s;
        self
    }

    /// Sender-side CPU overhead per message, seconds.
    pub fn send_overhead(mut self, s: f64) -> Self {
        self.cfg.send_overhead = s;
        self
    }

    /// NCCL-policy sender-side overhead per message, seconds.
    pub fn nccl_send_overhead(mut self, s: f64) -> Self {
        self.cfg.nccl_send_overhead = s;
        self
    }

    /// Receiver-side CPU overhead per message, seconds.
    pub fn recv_overhead(mut self, s: f64) -> Self {
        self.cfg.recv_overhead = s;
        self
    }

    /// GPU reduce-kernel bandwidth, bytes/s.
    pub fn reduce_bandwidth(mut self, bps: f64) -> Self {
        self.cfg.reduce_bandwidth = bps;
        self
    }

    /// Pipelined-ring sub-chunk size, bytes.
    pub fn pipeline_chunk(mut self, bytes: u64) -> Self {
        self.cfg.tuning.pipeline_chunk = bytes;
        self
    }

    /// Size floor for pipelined-ring selection, bytes.
    pub fn pipeline_threshold(mut self, bytes: u64) -> Self {
        self.cfg.tuning.pipeline_threshold = bytes;
        self
    }

    /// Size ceiling for recursive-doubling selection, bytes.
    pub fn rd_threshold(mut self, bytes: u64) -> Self {
        self.cfg.tuning.rd_threshold = bytes;
        self
    }

    /// Gradient wire format for messages at or above the wire threshold.
    pub fn wire(mut self, wire: WireFormat) -> Self {
        self.cfg.tuning.wire = wire;
        self
    }

    /// Size floor for wire compression, bytes (0 compresses everything).
    pub fn wire_threshold(mut self, bytes: u64) -> Self {
        self.cfg.tuning.wire_threshold = bytes;
        self
    }

    /// Promote hierarchical allreduce into size-binned selection.
    pub fn hierarchical(mut self, on: bool) -> Self {
        self.cfg.tuning.hierarchical = on;
        self
    }

    /// Replace the whole communication-tuning sub-struct (the comm tuner's
    /// entry point — individual knobs have their own methods above).
    pub fn tuning(mut self, tuning: CommTuning) -> Self {
        self.cfg.tuning = tuning;
        self
    }

    /// Retry/timeout/backoff policy for transient transport faults.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.retry = policy;
        self
    }

    /// Event-core worker-pool size (0 = auto).
    pub fn sim_workers(mut self, workers: usize) -> Self {
        self.cfg.sim_workers = workers;
        self
    }

    /// In-flight host-byte budget (0 = unlimited).
    pub fn sim_mailbox_budget(mut self, bytes: u64) -> Self {
        self.cfg.sim_mailbox_budget = bytes;
        self
    }

    /// Attach a fault plan (see `dlsr-faults`); `None` injects nothing.
    pub fn fault_plan(mut self, plan: Option<std::sync::Arc<dlsr_faults::FaultPlan>>) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Validate and build.
    pub fn try_build(self) -> Result<MpiConfig, ConfigError> {
        let c = &self.cfg;
        c.tuning.validate()?;
        if !(c.reduce_bandwidth.is_finite() && c.reduce_bandwidth > 0.0) {
            return Err(ConfigError(format!(
                "reduce_bandwidth ({}) must be finite and positive",
                c.reduce_bandwidth
            )));
        }
        for (name, v) in [
            ("ipc_setup_cost", c.ipc_setup_cost),
            ("send_overhead", c.send_overhead),
            ("nccl_send_overhead", c.nccl_send_overhead),
            ("recv_overhead", c.recv_overhead),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(ConfigError(format!("{name} ({v}) must be finite and ≥ 0")));
            }
        }
        if c.retry.max_attempts == 0 {
            return Err(ConfigError(
                "retry.max_attempts must be ≥ 1 (1 means no retries)".into(),
            ));
        }
        if !(c.retry.timeout > 0.0 && c.retry.timeout.is_finite()) {
            return Err(ConfigError(format!(
                "retry.timeout ({}) must be a positive duration",
                c.retry.timeout
            )));
        }
        if !(c.retry.backoff >= 1.0 && c.retry.backoff.is_finite()) {
            return Err(ConfigError(format!(
                "retry.backoff ({}) must be ≥ 1",
                c.retry.backoff
            )));
        }
        Ok(self.cfg)
    }

    /// [`MpiConfigBuilder::try_build`], panicking on invalid knobs — for
    /// call sites whose configs are static.
    pub fn build(self) -> MpiConfig {
        self.try_build()
            .unwrap_or_else(|e| panic!("MpiConfigBuilder::build: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_right_knobs() {
        let mpi = MpiConfig::default_mpi();
        let reg = MpiConfig::mpi_reg();
        let opt = MpiConfig::mpi_opt();
        assert_eq!(mpi.device_mode, DeviceMode::Pinned);
        assert!(!mpi.registration_cache);
        assert_eq!(reg.device_mode, DeviceMode::Pinned);
        assert!(reg.registration_cache);
        assert_eq!(opt.device_mode, DeviceMode::PinnedWithMv2);
        assert!(opt.registration_cache);
    }

    #[test]
    fn size_binned_selection_matches_the_paper_regimes() {
        let cfg = MpiConfig::mpi_opt();
        assert_eq!(
            cfg.select_allreduce(1 << 10),
            AllreduceAlgorithm::RecursiveDoubling
        );
        assert_eq!(
            cfg.select_allreduce(cfg.tuning.rd_threshold),
            AllreduceAlgorithm::RecursiveDoubling
        );
        assert_eq!(cfg.select_allreduce(1 << 20), cfg.allreduce);
        assert_eq!(
            cfg.select_allreduce(cfg.tuning.pipeline_threshold),
            AllreduceAlgorithm::PipelinedRing
        );
        assert_eq!(
            cfg.select_allreduce(64 << 20),
            AllreduceAlgorithm::PipelinedRing
        );
    }

    #[test]
    fn select_comm_composes_hierarchy_and_wire_bins() {
        // Defaults: no hierarchy, no compression — identical to the flat
        // selection with f32 wire, at any node count.
        let flat = MpiConfig::mpi_opt();
        for bytes in [1 << 10, 1 << 20, 64 << 20] {
            let c = flat.select_comm(bytes, 8);
            assert_eq!(c.algo, flat.select_allreduce(bytes));
            assert_eq!(c.wire, WireFormat::F32);
        }
        let tuned = MpiConfig::mpi_opt()
            .to_builder()
            .hierarchical(true)
            .wire(WireFormat::Bf16)
            .build();
        // Small bin: still latency-bound RD, still uncompressed.
        let small = tuned.select_comm(1 << 10, 8);
        assert_eq!(small.algo, AllreduceAlgorithm::RecursiveDoubling);
        assert_eq!(small.wire, WireFormat::F32);
        // Large bin on multiple nodes: hierarchy + compression.
        let large = tuned.select_comm(64 << 20, 8);
        assert_eq!(large.algo, AllreduceAlgorithm::TwoLevel);
        assert_eq!(large.wire, WireFormat::Bf16);
        // Pipelined bin below the IPC threshold: promotion stays out of
        // the way — two-level's intra phases would host-stage in f32, so
        // the flat pipelined ring (compressed on every hop) wins there.
        let staged = tuned.select_comm(8 << 20, 8);
        assert_eq!(staged.algo, AllreduceAlgorithm::PipelinedRing);
        assert_eq!(staged.wire, WireFormat::Bf16);
        // Single node: hierarchy has nothing to exploit.
        let single = tuned.select_comm(64 << 20, 1);
        assert_eq!(single.algo, AllreduceAlgorithm::PipelinedRing);
        // wire_threshold 0 compresses even tiny messages.
        let eager = tuned.to_builder().wire_threshold(0).build();
        assert_eq!(eager.select_comm(64, 2).wire, WireFormat::Bf16);
    }

    #[test]
    fn builder_round_trips_presets_and_chains() {
        let cfg = MpiConfig::mpi_opt()
            .to_builder()
            .registration_cache(false)
            .send_overhead(5.0e-6)
            .retry(RetryPolicy {
                max_attempts: 3,
                timeout: 1.0e-4,
                backoff: 1.5,
            })
            .build();
        assert_eq!(cfg.device_mode, DeviceMode::PinnedWithMv2);
        assert!(!cfg.registration_cache);
        assert_eq!(cfg.retry.max_attempts, 3);
        let d = MpiConfig::builder().build();
        assert_eq!(d.device_mode, MpiConfig::default_mpi().device_mode);
    }

    #[test]
    fn builder_rejects_inconsistent_knobs() {
        assert!(MpiConfig::builder()
            .rd_threshold(16 << 20)
            .pipeline_threshold(8 << 20)
            .try_build()
            .is_err());
        assert!(MpiConfig::builder().pipeline_chunk(0).try_build().is_err());
        assert!(MpiConfig::builder()
            .wire(WireFormat::TopK { k_permille: 0 })
            .try_build()
            .is_err());
        assert!(MpiConfig::builder()
            .wire(WireFormat::TopK { k_permille: 1001 })
            .try_build()
            .is_err());
        assert!(MpiConfig::builder()
            .reduce_bandwidth(-1.0)
            .try_build()
            .is_err());
        assert!(MpiConfig::builder()
            .retry(RetryPolicy {
                max_attempts: 0,
                ..Default::default()
            })
            .try_build()
            .is_err());
        assert!(MpiConfig::builder()
            .retry(RetryPolicy {
                backoff: 0.5,
                ..Default::default()
            })
            .try_build()
            .is_err());
        assert!(MpiConfig::builder()
            .send_overhead(f64::NAN)
            .try_build()
            .is_err());
    }
}
