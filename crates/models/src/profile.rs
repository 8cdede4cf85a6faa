//! Closed-form model accounting: parameters, FLOPs, activation footprint and
//! kernel counts per training sample. These numbers drive the simulated-GPU
//! cost model (`dlsr-gpu`) and the Fig 1 / Fig 9 harnesses without needing
//! to instantiate full-size models in host memory.
//!
//! Conventions:
//! - conv FLOPs = `2·k²·C_in·C_out·H_out·W_out` (multiply–add = 2 FLOPs),
//! - backward ≈ 2× forward FLOPs (grad-input + grad-weight GEMMs), so a
//!   training step costs ≈ 3× forward — the standard estimate,
//! - activation footprint counts every layer output that must be retained
//!   for backward, in elements (4 bytes each in fp32).

use serde::{Deserialize, Serialize};

use crate::edsr::EdsrConfig;
use crate::resnet::ResNetConfig;

/// Per-sample compute/memory profile of a model at a given input size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Human-readable identifier, e.g. `"EDSR(B32,F64,x2)@96x96"`.
    pub name: String,
    /// Trainable parameter count.
    pub params: usize,
    /// Forward FLOPs per sample.
    pub fwd_flops: u64,
    /// Activation elements retained per sample for backward.
    pub activation_elems: u64,
    /// Number of device kernels launched per sample forward pass
    /// (backward launches ≈ 2× more). Drives launch-overhead costs.
    pub kernels: u32,
}

impl ModelProfile {
    /// Training FLOPs per sample (forward + backward ≈ 3× forward).
    pub fn train_flops(&self) -> u64 {
        self.fwd_flops * 3
    }

    /// Gradient payload in bytes (fp32) — what Horovod allreduces per step.
    pub fn grad_bytes(&self) -> usize {
        self.params * 4
    }

    /// Persistent device memory in bytes: parameters + gradients + Adam
    /// moments (fp32 each → 16 bytes per parameter).
    pub fn persistent_bytes(&self) -> usize {
        self.params * 16
    }

    /// Activation memory in bytes per sample: forward caches (4 bytes per
    /// element) plus ~50 % for backward workspace — calibrated so known
    /// batch ceilings hold (ResNet-50 fp32 fits batch 64–96 on a 16 GB
    /// V100; EDSR F=256 OOMs around batch 32, Fig 9).
    pub fn activation_bytes_per_sample(&self) -> usize {
        self.activation_elems as usize * 6
    }
}

/// Incremental accounting walker.
struct Accounter {
    params: usize,
    flops: u64,
    acts: u64,
    kernels: u32,
    h: usize,
    w: usize,
    c: usize,
}

impl Accounter {
    fn new(c: usize, h: usize, w: usize) -> Self {
        Accounter {
            params: 0,
            flops: 0,
            acts: 0,
            kernels: 0,
            h,
            w,
            c,
        }
    }

    fn conv(&mut self, c_out: usize, k: usize, stride: usize, padding: usize, bias: bool) {
        let h_out = (self.h + 2 * padding - k) / stride + 1;
        let w_out = (self.w + 2 * padding - k) / stride + 1;
        self.flops += 2 * (k * k * self.c * c_out * h_out * w_out) as u64;
        self.params += k * k * self.c * c_out + if bias { c_out } else { 0 };
        self.acts += (c_out * h_out * w_out) as u64;
        self.kernels += 1;
        self.c = c_out;
        self.h = h_out;
        self.w = w_out;
    }

    fn elementwise(&mut self) {
        // ReLU / add / scale: 1 FLOP per element, output retained
        self.flops += (self.c * self.h * self.w) as u64;
        self.acts += (self.c * self.h * self.w) as u64;
        self.kernels += 1;
    }

    fn batchnorm(&mut self) {
        self.flops += 4 * (self.c * self.h * self.w) as u64;
        self.params += 2 * self.c;
        self.acts += (self.c * self.h * self.w) as u64;
        self.kernels += 1;
    }

    fn pixel_shuffle(&mut self, r: usize) {
        self.c /= r * r;
        self.h *= r;
        self.w *= r;
        self.acts += (self.c * self.h * self.w) as u64;
        self.kernels += 1;
    }

    fn max_pool(&mut self, k: usize, stride: usize) {
        self.h = (self.h - k) / stride + 1;
        self.w = (self.w - k) / stride + 1;
        self.flops += (k * k * self.c * self.h * self.w) as u64;
        self.acts += (self.c * self.h * self.w) as u64;
        self.kernels += 1;
    }

    fn global_avg_pool(&mut self) {
        self.flops += (self.c * self.h * self.w) as u64;
        self.h = 1;
        self.w = 1;
        self.acts += self.c as u64;
        self.kernels += 1;
    }

    fn linear(&mut self, out: usize) {
        self.flops += 2 * (self.c * out) as u64;
        self.params += self.c * out + out;
        self.acts += out as u64;
        self.kernels += 1;
        self.c = out;
    }
}

/// Profile EDSR at an LR patch size (paper §IV-C trains LR 96×96 patches
/// for ×2 — the EDSR reference implementation's `--patch_size 192` is the
/// HR extent).
pub fn edsr_profile(cfg: &EdsrConfig, lr_h: usize, lr_w: usize) -> ModelProfile {
    let mut a = Accounter::new(cfg.colors, lr_h, lr_w);
    a.elementwise(); // sub_mean
    a.conv(cfg.n_feats, 3, 1, 1, true); // head
    for _ in 0..cfg.n_resblocks {
        a.conv(cfg.n_feats, 3, 1, 1, true);
        a.elementwise(); // relu
        a.conv(cfg.n_feats, 3, 1, 1, true);
        a.elementwise(); // scale + skip add
    }
    a.conv(cfg.n_feats, 3, 1, 1, true); // body conv
    a.elementwise(); // global skip add
    let stages: &[usize] = match cfg.scale {
        2 => &[2],
        3 => &[3],
        4 => &[2, 2],
        _ => panic!("unsupported scale"),
    };
    for &r in stages {
        a.conv(cfg.n_feats * r * r, 3, 1, 1, true);
        a.pixel_shuffle(r);
    }
    a.conv(cfg.colors, 3, 1, 1, true); // out conv
    a.elementwise(); // add_mean
    ModelProfile {
        name: format!(
            "EDSR(B{},F{},x{})@{}x{}",
            cfg.n_resblocks, cfg.n_feats, cfg.scale, lr_h, lr_w
        ),
        params: a.params,
        fwd_flops: a.flops,
        activation_elems: a.acts,
        kernels: a.kernels,
    }
}

/// Profile a ResNet at an input resolution (ImageNet: 224×224).
pub fn resnet_profile(cfg: &ResNetConfig, h: usize, w: usize) -> ModelProfile {
    let mut a = Accounter::new(3, h, w);
    a.conv(cfg.base_width, 7, 2, 3, false); // stem
    a.batchnorm();
    a.elementwise();
    a.max_pool(3, 2);
    let mut c_in = cfg.base_width;
    for (stage, &count) in cfg.stages.iter().enumerate() {
        let mid = cfg.base_width << stage;
        let c_out = mid * 4;
        for i in 0..count {
            let stride = if stage > 0 && i == 0 { 2 } else { 1 };
            let (h0, w0, _) = (a.h, a.w, a.c);
            a.conv(mid, 1, 1, 0, false);
            a.batchnorm();
            a.elementwise();
            a.conv(mid, 3, stride, 1, false);
            a.batchnorm();
            a.elementwise();
            a.conv(c_out, 1, 1, 0, false);
            a.batchnorm();
            if c_in != c_out || stride != 1 {
                // downsample conv on the skip path from the block input
                let (hc, wc, cc) = (a.h, a.w, a.c);
                a.h = h0;
                a.w = w0;
                a.c = c_in;
                a.conv(c_out, 1, stride, 0, false);
                a.batchnorm();
                a.h = hc;
                a.w = wc;
                a.c = cc;
            }
            a.elementwise(); // add + relu
            c_in = c_out;
        }
    }
    a.global_avg_pool();
    a.linear(cfg.classes);
    ModelProfile {
        name: format!(
            "ResNet(stages{:?},w{})@{}x{}",
            cfg.stages, cfg.base_width, h, w
        ),
        params: a.params,
        fwd_flops: a.flops,
        activation_elems: a.acts,
        kernels: a.kernels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsr_nn::module::ModuleExt;

    #[test]
    fn edsr_profile_params_match_instance() {
        let cfg = EdsrConfig::tiny();
        let prof = edsr_profile(&cfg, 8, 8);
        let mut m = crate::Edsr::new(cfg, 1);
        assert_eq!(prof.params, m.num_params());
        assert_eq!(prof.params, cfg.num_params());
    }

    #[test]
    fn resnet50_profile_params_match_published_count() {
        // torchvision's ResNet-50 has exactly 25 557 032 parameters (BN
        // γ/β counted, running statistics not).
        let prof = resnet_profile(&ResNetConfig::resnet50(), 224, 224);
        assert_eq!(prof.params, 25_557_032);
    }

    #[test]
    fn resnet50_flops_near_published_4_1_gmacs() {
        // Published "4.1 GFLOPs" for ResNet-50 counts multiply–adds; with
        // the 2-FLOPs-per-MAC convention used here that is ≈ 8.2 GFLOPs.
        let prof = resnet_profile(&ResNetConfig::resnet50(), 224, 224);
        let gf = prof.fwd_flops as f64 / 1e9;
        assert!((7.4..8.8).contains(&gf), "ResNet-50 fwd GFLOPs {gf}");
    }

    #[test]
    fn edsr_paper_config_flops_scale_quadratically_with_patch() {
        let cfg = EdsrConfig::paper();
        let small = edsr_profile(&cfg, 48, 48);
        let large = edsr_profile(&cfg, 96, 96);
        let ratio = large.fwd_flops as f64 / small.fwd_flops as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
        // at 96×96 LR, EDSR forward is tens of GFLOPs — the paper's point
        // that SR models are far more compute-intensive than classification
        let gf = large.fwd_flops as f64 / 1e9;
        assert!(gf > 40.0, "EDSR fwd GFLOPs {gf}");
    }

    #[test]
    fn edsr_is_heavier_than_resnet_per_sample() {
        // Fig 1's motivation: EDSR ≈ 35× fewer images/sec than ResNet-50.
        let edsr = edsr_profile(&EdsrConfig::paper(), 96, 96);
        let rn = resnet_profile(&ResNetConfig::resnet50(), 224, 224);
        assert!(edsr.fwd_flops > 4 * rn.fwd_flops);
        assert!(edsr.activation_elems > rn.activation_elems);
    }

    #[test]
    fn grad_bytes_and_persistent_bytes() {
        let p = ModelProfile {
            name: "x".into(),
            params: 100,
            fwd_flops: 1,
            activation_elems: 10,
            kernels: 1,
        };
        assert_eq!(p.grad_bytes(), 400);
        assert_eq!(p.persistent_bytes(), 1600);
        assert_eq!(p.activation_bytes_per_sample(), 60);
        assert_eq!(p.train_flops(), 3);
    }
}
