//! `dlsr-nn` — neural-network building blocks on top of `dlsr-tensor`.
//!
//! The crate implements **module-graph backpropagation**: every [`Module`]
//! caches whatever it needs during `forward` and produces its input gradient
//! (while accumulating parameter gradients) during `backward`. Networks in
//! this workspace are static compositions (sequences + residual skips), so an
//! explicit per-module backward is both simpler and faster than a dynamic
//! tape, and — crucially for the distributed-equivalence tests — perfectly
//! deterministic.
//!
//! Contents:
//! - [`param`]: named trainable parameters with gradient buffers,
//! - [`module`]: the [`Module`] trait, [`Sequential`] containers,
//! - [`layers`]: Conv2d, Linear, ReLU, PixelShuffle, MeanShift, Scale and
//!   the EDSR residual block,
//! - [`loss`]: L1 / MSE losses with gradients,
//! - [`optim`]: SGD (momentum) and Adam, operating over parameter visitors,
//! - [`schedule`]: learning-rate schedules (EDSR step decay, warmup),
//! - [`checkpoint`]: named state dicts with file round-trips,
//! - [`metrics`]: PSNR and SSIM image-quality metrics.

#![forbid(unsafe_code)]
pub mod checkpoint;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod module;
pub mod optim;
pub mod param;
pub mod schedule;

pub use dlsr_tensor::{Result, Shape, Tensor, TensorError};
pub use module::{Module, Sequential};
pub use param::Param;
