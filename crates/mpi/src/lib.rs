//! `dlsr-mpi` — a CUDA-aware MPI library (MVAPICH2-GDR-like) over the
//! simulated cluster.
//!
//! Every rank carries a **virtual clock**; messages carry real payloads
//! (gradient `f32` buffers) through the execution core's fabric (see
//! [`executor`] — discrete-event by default, with a zero-thread driven
//! engine for 512–4096-rank worlds), so collective *results* are bit-exact
//! and testable, while message *timing* follows the `dlsr-net` transport
//! models. The clock protocol is
//! LogGP-style: a message sent at sender-time `t` with transfer cost `c`
//! cannot be received before `t + c`; receiving advances the receiver's
//! clock to at least that point, so causality — and therefore collective
//! critical paths — are simulated exactly.
//!
//! The CUDA-awareness pieces the paper manipulates are all here:
//! - per-rank [`dlsr_gpu::DeviceEnv`] masks decide whether the library can
//!   open CUDA IPC mappings to peer GPUs (§III-C, `MV2_VISIBLE_DEVICES`),
//! - a per-rank [`dlsr_net::RegistrationCache`] charges page-pinning costs
//!   on InfiniBand sends unless the buffer is cached (§III-D),
//! - large intra-node messages ride NVLink only when IPC is available and
//!   the message exceeds the IPC rendezvous threshold, else they stage
//!   through the host.
//!
//! The paper's other backend, an NCCL-like ring over the same fabric, is
//! [`nccl::Nccl`]: the same collectives under [`PathPolicy::NcclLike`].

//! # Example
//!
//! ```
//! use dlsr_mpi::{Allreduce, MpiConfig, MpiWorld};
//! use dlsr_net::ClusterTopology;
//!
//! // 1 node × 4 GPUs, the paper's optimized configuration
//! let topo = ClusterTopology::lassen(1);
//! let result = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |comm| {
//!     let mut grads = vec![comm.rank() as f32; 8];
//!     Allreduce::new(&mut grads).buf_id(1).run(comm);
//!     grads[0] // Σ ranks = 0+1+2+3
//! });
//! assert!(result.ranks.iter().all(|&v| v == 6.0));
//! assert!(result.makespan() > 0.0); // virtual time passed
//! ```

#![forbid(unsafe_code)]
pub mod clock;
pub mod collectives;
pub mod comm;
pub mod config;
pub mod error;
pub mod executor;
pub mod message;
pub mod nccl;
#[cfg(test)]
mod tests;
pub mod verify;
pub mod world;

pub use clock::VClock;
pub use collectives::{Allreduce, AllreduceAlgorithm, CollectiveBuf, WireFormat};
pub use comm::{Comm, CommStats, PathPolicy, RecvRequest};
pub use config::{CommChoice, CommTuning, ConfigError, MpiConfig, MpiConfigBuilder, RetryPolicy};
pub use error::CommError;
pub use executor::{drive_program, drive_task, EventTask, Poll, RankProgram, Step, Task};
pub use message::{Message, Payload};
pub use world::{MpiWorld, WorldResult};
