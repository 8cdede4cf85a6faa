//! `dlsr-gpu` — a simulated NVIDIA V100 GPU.
//!
//! The paper's experiments ran on Lassen's Volta V100s. This crate models
//! the pieces of a V100 the scaling study actually depends on:
//!
//! - a **memory tracker** (16 GB HBM2, OOM detection — drives Fig 9's
//!   batch-size ceiling and the "overhead kernel" memory-pressure story of
//!   Fig 6a),
//! - a **kernel cost model** (roofline + occupancy + launch overheads,
//!   calibrated against the paper's two single-GPU anchors: EDSR ≈ 10.3
//!   img/s and ResNet-50 ≈ 360 img/s — Fig 1),
//! - **CUDA IPC** handle semantics, including the `CUDA_VISIBLE_DEVICES`
//!   conflict of §III-C and the CUDA ≥ 10.1 behaviour that
//!   `MV2_VISIBLE_DEVICES` exploits (Fig 7),
//! - **visible-device masks** as processes and the MPI library see them.
//!
//! Timing is virtual: cost functions return seconds that the cluster
//! simulator adds to per-rank virtual clocks.

//! # Example
//!
//! ```
//! use dlsr_gpu::{GpuSpec, KernelCostModel, WorkloadKind, WorkloadProfile};
//!
//! let model = KernelCostModel::new(GpuSpec::v100());
//! let tiny = WorkloadProfile {
//!     name: "demo".into(),
//!     params: 1_000_000,
//!     fwd_flops: 5_000_000_000,
//!     activation_elems: 4_000_000,
//!     kernels: 50,
//!     kind: WorkloadKind::SuperResolution,
//! };
//! let t4 = model.throughput(&tiny, 4, 1).unwrap();
//! let t8 = model.throughput(&tiny, 8, 1).unwrap();
//! assert!(t8 > t4); // larger batches amortize overheads (Fig 9)
//! ```

#![forbid(unsafe_code)]
pub mod cost;
pub mod device;
pub mod ipc;
pub mod memory;
pub mod spec;
pub mod visibility;

pub use cost::{KernelCostModel, StepCost, WorkloadKind, WorkloadProfile};
pub use device::{Gpu, GpuId};
pub use ipc::{IpcError, IpcHandle, IpcRegistry};
pub use memory::{MemoryError, MemoryTracker};
pub use spec::GpuSpec;
pub use visibility::{DeviceEnv, VisibleDevices};
