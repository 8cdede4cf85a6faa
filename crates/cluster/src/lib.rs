//! `dlsr-cluster` — cluster assembly and the distributed-training drivers.
//!
//! Two drivers share the same Horovod/MPI stack:
//!
//! - [`sim`]: the **at-scale simulator** (up to 512 ranks): per-step GPU
//!   compute comes from the calibrated cost model, gradients synchronize
//!   through the dynamic-fusion Horovod engine with costs-only payloads,
//!   and a deterministic straggler (jitter) model reproduces the
//!   synchronous-training tail effects. All scaling figures (10–13) and
//!   the Table I / Fig 14 profiles come from here.
//! - [`realtrain`]: **real distributed training** of small EDSR configs —
//!   actual forward/backward/optimizer math on every rank, real gradient
//!   payloads through the same collectives. Used to prove numerical
//!   correctness (distributed ≡ single-rank) and produce actual PSNR
//!   improvements on synthetic DIV2K.

#![forbid(unsafe_code)]
pub mod analysis;
pub mod experiment;
pub mod realtrain;
pub mod scenario;
pub mod sim;
pub mod simscale;
pub mod workload;

pub use analysis::{
    fit_model, gate, project, sim_check, traced_real_run, validate, AnalysisReport, CostModel,
    GroupCost, ProjectionPoint, SimCheck, SimCheckPoint, TracedRun, ValidationPoint,
};
pub use experiment::{
    batch_sweep, run_training, run_training_tuned, run_world, scaling_sweep, ScalingPoint, TrainRun,
};
pub use realtrain::{train_real, RealTrainConfig, RealTrainConfigBuilder, RealTrainResult};
pub use scenario::Scenario;
pub use sim::{estimate_allreduce, SimProgram, SimTrainer};
pub use simscale::{SimScalePoint, SimScaleReport};
pub use workload::{edsr_measured_workload, edsr_text_workload, resnet50_workload, to_workload};
