//! ResNet-50 (He et al. 2016) — the image-classification comparator of the
//! paper's Fig 1 (a V100 trains ResNet-50 at ≈360 img/s vs ≈10.3 img/s for
//! EDSR). Fig 1 reads it through the closed-form
//! [`resnet_profile`](crate::profile::resnet_profile); no executable network
//! is built.

/// ResNet configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Bottleneck counts per stage — ResNet-50 is `[3, 4, 6, 3]`.
    pub stages: [usize; 4],
    /// Stem width; 64 for the real network. Stage widths are `base·2^i`
    /// with a 4× bottleneck expansion.
    pub base_width: usize,
    /// Classifier classes (ImageNet: 1000).
    pub classes: usize,
}

impl ResNetConfig {
    /// The real ResNet-50.
    pub fn resnet50() -> Self {
        ResNetConfig {
            stages: [3, 4, 6, 3],
            base_width: 64,
            classes: 1000,
        }
    }
}
