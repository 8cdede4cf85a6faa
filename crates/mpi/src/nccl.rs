//! An NCCL-like collective backend over the same simulated cluster.
//!
//! NCCL differs from a CUDA-aware MPI in exactly the ways the paper's
//! comparison (Figs 10, 12, 13) depends on:
//!
//! - it builds **its own CUDA IPC rings** at communicator initialization,
//!   so the `CUDA_VISIBLE_DEVICES` pinning that breaks MVAPICH2's IPC does
//!   not affect it (§III-C),
//! - it moves data through **persistent, pre-registered transport
//!   buffers**, so it never pays per-message pinning,
//! - it uses topology-aware **ring** algorithms for every message size —
//!   bandwidth-optimal for large gradients, but latency-heavy at very
//!   large rank counts (2·(p−1) ring steps), which is where the tuned
//!   hierarchical MPI-Opt overtakes it.
//!
//! Implementation: the backend flips the communicator's
//! [`PathPolicy::NcclLike`] flag (own IPC + own registration bookkeeping)
//! and runs ring collectives in rank order — ranks are dense per node, so
//! the ring is automatically topology-aware (3 NVLink hops per node, one IB
//! hop between nodes).

use crate::collectives::{Allreduce, AllreduceAlgorithm};
use crate::{Comm, PathPolicy};

/// The NCCL-like backend entry point (`ncclAllReduce`).
pub struct Nccl;

impl Nccl {
    /// Sum-allreduce `buf` across all ranks (ring algorithm, own IPC).
    pub fn all_reduce(comm: &mut Comm, buf: &mut Vec<f32>, buf_id: u64) {
        comm.set_path_policy(PathPolicy::NcclLike);
        Allreduce::new(buf)
            .buf_id(buf_id)
            .algo(AllreduceAlgorithm::Ring)
            .run(comm);
        comm.set_path_policy(PathPolicy::Mpi);
    }
}
