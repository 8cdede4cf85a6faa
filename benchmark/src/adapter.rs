//! The API-stability fence: every name the benchmark takes from the repo
//! enters here, so a later PR that claims a gain never has to edit the
//! benchmark — and one that renames a public item edits this file only.
//!
//! The surface is `dlsr::prelude` plus the short allow-list below. Nothing
//! here is scheduled for deletion by ROADMAP items 1–2: no `SimCore` /
//! `--core`, no `run_threaded` / `run_event`, none of the `#[deprecated]`
//! allreduce free functions, no `dlsr_bench::{legacy, packed}`, and none of
//! the `dlsr_trace` process globals (`set_enabled`, `reset`).

pub use dlsr::prelude::*;

pub use dlsr::cluster::experiment::{run_world, single_gpu_throughput};
pub use dlsr::horovod::NegotiateTask;
pub use dlsr::mpi::collectives::tasks::AllreduceElemsTask;
pub use dlsr::mpi::{RankProgram, Step, Task};
pub use dlsr::tensor::tune::EDSR_SHAPES;
pub use dlsr::tensor::{conv, matmul, scratch};

// Needed to name what the allow-listed calls take or return: the residual
// block the `nn` probes time, the fusion planner behind
// `horovod.plan_fusion_us` with the tensor list `edsr_measured_workload`
// returns, and the trace-event type in
// `RankProgram::finish`'s signature (always an empty `Vec` here — the
// benchmark never switches the `dlsr_trace` collector on).
pub use dlsr::horovod::{plan_fusion, TensorSpec};
pub use dlsr::nn::layers::ResBlock;
pub use dlsr::trace::TraceEvent;
