//! `dlsr-models` — the models of the workspace.
//!
//! - [`edsr`]: the paper's training target (Enhanced Deep Super-Resolution,
//!   Lim et al. 2017), configurable in depth/width/scale — the one
//!   executable model,
//! - [`resnet`]: the configuration of ResNet-50, the image-classification
//!   comparator of Fig 1 (closed-form only),
//! - [`profile`]: closed-form parameter/FLOP/activation accounting that
//!   drives the simulated-GPU cost model without instantiating full-size
//!   models.

#![forbid(unsafe_code)]
pub mod edsr;
pub mod profile;
pub mod resnet;

pub use edsr::{Edsr, EdsrConfig};
pub use profile::ModelProfile;
pub use resnet::ResNetConfig;

/// DIV2K RGB channel means (images in `[0,1]`) used by EDSR MeanShift.
pub const DIV2K_RGB_MEANS: [f32; 3] = [0.4488, 0.4371, 0.4040];
