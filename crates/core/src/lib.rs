//! # `dlsr` — Scaling Single-Image Super-Resolution Training on (Simulated) HPC Clusters
//!
//! A full-stack Rust reproduction of *"Scaling Single-Image Super-Resolution
//! Training on Modern HPC Clusters: Early Experiences"* (Anthony, Xu,
//! Subramoni, Panda — 2021): EDSR training distributed with a Horovod-like
//! middleware over a CUDA-aware MPI (MVAPICH2-GDR-like) or an NCCL-like
//! backend, on a simulated Lassen-class V100 cluster.
//!
//! The stack, bottom to top (paper Fig 3):
//!
//! | layer | crate |
//! |---|---|
//! | tensors & kernels | [`tensor`] (`dlsr-tensor`) |
//! | autograd, layers, optimizers, metrics | [`nn`] (`dlsr-nn`) |
//! | EDSR, and ResNet-50's closed-form profile | [`models`] (`dlsr-models`) |
//! | synthetic DIV2K + sharded loading | [`data`] (`dlsr-data`) |
//! | simulated V100 (memory, cost model, CUDA IPC) | [`gpu`] (`dlsr-gpu`) |
//! | NVLink / PCIe-staging / InfiniBand + reg cache | [`net`] (`dlsr-net`) |
//! | CUDA-aware MPI (collectives, `MV2_VISIBLE_DEVICES`) | [`mpi`] (`dlsr-mpi`) |
//! | NCCL-like backend | [`nccl`] (`dlsr_mpi::nccl`) |
//! | Horovod (fusion, coordinator, DistributedOptimizer) | [`horovod`] (`dlsr-horovod`) |
//! | hvprof communication profiler | [`hvprof`] (`dlsr-hvprof`) |
//! | cross-layer spans, counters & step report | [`trace`] (`dlsr-trace`) |
//! | cluster assembly + training drivers | [`cluster`] (`dlsr-cluster`) |
//!
//! ## Quickstart
//!
//! Train a tiny EDSR data-parallel on a simulated 4-GPU node, with real
//! gradient math flowing through the simulated MPI fabric:
//!
//! ```
//! use dlsr::prelude::*;
//!
//! let topo = ClusterTopology::lassen(1); // one node, 4 V100s
//! let cfg = RealTrainConfig::builder().steps(8).build();
//! let result = train_real(&topo, MpiConfig::mpi_opt(), &cfg);
//! assert!(result.losses.last().unwrap() < result.losses.first().unwrap());
//! ```
//!
//! Reproduce a paper experiment (here: one point of Fig 12/13):
//!
//! ```
//! use dlsr::prelude::*;
//!
//! let (workload, tensors) = edsr_measured_workload();
//! let topo = ClusterTopology::lassen(2); // 8 GPUs
//! let run = run_training(&topo, Scenario::MpiOpt, &workload, &tensors, 4, 1, 4, 7);
//! assert!(run.efficiency > 0.5 && run.efficiency <= 1.0);
//! ```
//!
//! Every figure and table of the paper is a row of the [`figures`]
//! registry, regenerated and checked by `dlsr figures` — see EXPERIMENTS.md
//! for the index.

#![forbid(unsafe_code)]
pub mod figures;

pub use dlsr_cluster as cluster;
pub use dlsr_data as data;
pub use dlsr_faults as faults;
pub use dlsr_gpu as gpu;
pub use dlsr_horovod as horovod;
pub use dlsr_hvprof as hvprof;
pub use dlsr_models as models;
pub use dlsr_mpi as mpi;
pub use dlsr_mpi::nccl;
pub use dlsr_net as net;
pub use dlsr_nn as nn;
pub use dlsr_tensor as tensor;
pub use dlsr_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use dlsr_cluster::{
        batch_sweep, edsr_measured_workload, edsr_text_workload, resnet50_workload, run_training,
        run_training_tuned, scaling_sweep, train_real, RealTrainConfig, RealTrainConfigBuilder,
        RealTrainResult, ScalingPoint, Scenario, SimTrainer, TrainRun,
    };
    pub use dlsr_data::{DataLoader, Div2kSynthetic, EvalSet, ShardSpec, SyntheticImageSpec};
    pub use dlsr_gpu::{DeviceEnv, GpuSpec, KernelCostModel, WorkloadKind, WorkloadProfile};
    pub use dlsr_horovod::{broadcast_parameters, Backend, DistributedOptimizer, HorovodConfig};
    pub use dlsr_hvprof::{compare, render_table, Collective, Hvprof};
    pub use dlsr_models::{Edsr, EdsrConfig, ResNetConfig};
    pub use dlsr_mpi::nccl::Nccl;
    pub use dlsr_mpi::{
        collectives, Allreduce, AllreduceAlgorithm, Comm, CommTuning, MpiConfig, MpiWorld, Payload,
        WireFormat,
    };
    pub use dlsr_net::{ClusterTopology, RegistrationCache, TransportModel};
    pub use dlsr_nn::checkpoint::StateDict;
    pub use dlsr_nn::loss::{l1_loss, mse_loss};
    pub use dlsr_nn::metrics::{psnr, ssim};
    pub use dlsr_nn::module::{Module, ModuleExt};
    pub use dlsr_nn::optim::{Adam, Optimizer, Sgd};
    pub use dlsr_nn::schedule::{LrSchedule, Scheduler, StepDecay, Warmup};
    pub use dlsr_tensor::{Shape, Tensor};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let t = Tensor::zeros([1, 3, 4, 4]);
        assert_eq!(t.numel(), 48);
        let topo = ClusterTopology::lassen(1);
        assert_eq!(topo.total_gpus(), 4);
        assert_eq!(Scenario::MpiOpt.label(), "MPI-Opt");
    }
}
