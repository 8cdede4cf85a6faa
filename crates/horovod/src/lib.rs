//! `dlsr-horovod` — a Horovod-like data-parallel middleware (§II-D) sitting
//! between the DL framework (`dlsr-nn` models) and a communication backend
//! (`dlsr-mpi`, or its NCCL-like `dlsr_mpi::nccl`), exactly as in the
//! paper's stack diagram (Fig 3).
//!
//! Implements the pieces the paper's optimization story depends on:
//!
//! - **parameter broadcast** at startup (guideline 2 of §III-A),
//! - the **coordinator protocol**: every cycle, workers report ready
//!   tensors to rank 0, which broadcasts the agreed reduction order —
//!   real control messages through the simulated cluster, so the
//!   coordinator's O(world) cost appears in the timing like it does at
//!   scale in real Horovod,
//! - **Tensor Fusion** (steps 1–6 of §II-D): ready tensors are packed into
//!   a persistent fusion buffer of `HOROVOD_FUSION_THRESHOLD` bytes, one
//!   allreduce per fused group, then unpacked,
//! - the **DistributedOptimizer** wrapper (guideline 3) with learning-rate
//!   scaling (guideline 4),
//! - an opt-in **online comm tuner** ([`tuner`]) automating the paper's
//!   per-scale `HOROVOD_FUSION_THRESHOLD` / `HOROVOD_CYCLE_TIME` sweep
//!   deterministically inside the run (see `docs/WIRE.md`),
//! - per-collective, per-message-size profiling via `dlsr-hvprof`.

//! # Example
//!
//! ```
//! use dlsr_horovod::{broadcast_parameters, DistributedOptimizer, HorovodConfig};
//! use dlsr_hvprof::Hvprof;
//! use dlsr_mpi::{MpiConfig, MpiWorld};
//! use dlsr_net::ClusterTopology;
//! use dlsr_nn::layers::Linear;
//! use dlsr_nn::module::{Module, ModuleExt};
//! use dlsr_nn::optim::Sgd;
//!
//! let topo = ClusterTopology::lassen(1); // 4 ranks
//! let result = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |comm| {
//!     // differently-seeded models are aligned by the startup broadcast
//!     let mut model = Linear::new("fc", 4, 2, comm.rank() as u64);
//!     let mut prof = Hvprof::new();
//!     broadcast_parameters(&mut model, comm, 0, &mut prof);
//!     let mut opt = DistributedOptimizer::new(
//!         Sgd::new(0.01), &mut model, HorovodConfig::default(), comm.size());
//!     // ... forward / loss / backward would go here ...
//!     opt.step(&mut model, comm); // fused allreduce + local update
//!     model.flatten_params()
//! });
//! assert_eq!(result.ranks[0], result.ranks[3]); // ranks stay in sync
//! ```

#![forbid(unsafe_code)]
pub mod config;
pub mod coordinator;
pub mod fusion;
pub mod optimizer;
pub mod tuner;

pub use config::{Backend, ConfigError, HorovodConfig, HorovodConfigBuilder};
pub use coordinator::{negotiate, negotiate_with_cost, NegotiateTask};
pub use fusion::{
    plan_dynamic, plan_fusion, readiness_from_elems, reconcile_readiness, FusionGroup,
    ReadinessReconciliation, ScheduledGroup, TensorSpec,
};
pub use optimizer::{
    broadcast_parameters, record_group_counters, DistributedOptimizer, FUSION_BUF_ID_BASE,
};
pub use tuner::{CommTuneEntry, CommTuner};
