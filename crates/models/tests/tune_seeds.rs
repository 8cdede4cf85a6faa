//! `tune::EDSR_SHAPES` seeds every GEMM shape a paper-configuration EDSR
//! training step resolves, so the first step pays no selector miss and
//! `tune_gemm` tunes the shapes that actually run.
//!
//! The selector's table is a process global: this file holds one test so
//! nothing else resolves a shape in this process.

use dlsr_models::{Edsr, EdsrConfig};
use dlsr_nn::Module;
use dlsr_tensor::{init, tune};

#[test]
fn paper_edsr_step_resolves_only_seeded_shapes() {
    // The shapes do not depend on the number of residual blocks; one keeps
    // the debug-build run short.
    let cfg = EdsrConfig {
        n_resblocks: 1,
        ..EdsrConfig::paper()
    };
    assert_eq!(cfg.scale, 2);
    let mut model = Edsr::new(cfg, 7);
    let seeded = tune::entries();
    let lr = init::uniform([1, 3, 48, 48], 0.0, 1.0, 8);
    let sr = model.forward(&lr).expect("forward");
    model.backward(&sr).expect("backward");
    let missed: Vec<_> = tune::entries()
        .into_iter()
        .map(|(shape, _)| shape)
        .filter(|shape| !seeded.iter().any(|(s, _)| s == shape))
        .collect();
    assert!(missed.is_empty(), "selector misses (m, k, n): {missed:?}");
}
