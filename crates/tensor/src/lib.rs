//! `dlsr-tensor` — a small, rayon-parallel NCHW `f32` tensor library.
//!
//! This crate is the numerical substrate of the `dlsr` workspace: it provides
//! the dense-tensor kernels (convolution, GEMM, pixel-shuffle, bicubic
//! resampling, reductions, elementwise algebra) on which the autograd layer
//! (`dlsr-nn`) and the models (`dlsr-models`) are built.
//!
//! Design notes:
//! - Tensors are **contiguous, row-major** (`NCHW` for 4-D image tensors).
//!   Contiguity keeps every kernel a flat-slice loop that the compiler can
//!   vectorize and that rayon can split without stride bookkeeping.
//! - All kernels are deterministic: parallel work is partitioned over
//!   disjoint output regions so results do not depend on thread count.
//!   This matters for the distributed-equivalence tests in the workspace
//!   (single-rank training must match data-parallel training).
//! - `unsafe` is confined to the SIMD microkernels in [`kernels`]
//!   (`#![deny(unsafe_code)]` below, with a module-level
//!   `#[allow(unsafe_code)]` escape there; every block carries a
//!   `// SAFETY:` comment, enforced by dlsr-lint's `undocumented-unsafe`
//!   rule plus `clippy::undocumented_unsafe_blocks`).

// `deny` rather than `forbid`: the one sanctioned escape hatch is the
// SIMD microkernel module `kernels`, which carries a module-level
// `#[allow(unsafe_code)]` plus per-block `// SAFETY:` comments
// (enforced by dlsr-lint and clippy::undocumented_unsafe_blocks).
// Every other module in the crate contains zero unsafe blocks.
#![deny(unsafe_code)]

pub mod conv;
pub mod elementwise;
pub mod init;
pub mod io;
pub mod kernels;
pub mod matmul;
pub mod reduce;
pub mod resize;
pub mod scratch;
pub mod shape;
pub mod shuffle;
pub mod tensor;
pub mod tune;

pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide error type for shape/argument mismatches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match did not.
    ShapeMismatch {
        expected: Vec<usize>,
        got: Vec<usize>,
        context: &'static str,
    },
    /// An argument was structurally invalid (e.g. zero-size kernel).
    InvalidArgument(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch {
                expected,
                got,
                context,
            } => {
                write!(
                    f,
                    "shape mismatch in {context}: expected {expected:?}, got {got:?}"
                )
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
