//! ResNet-50 (He et al. 2016) — the image-classification comparator of the
//! paper's Fig 1 (a V100 trains ResNet-50 at ≈360 img/s vs ≈10.3 img/s for
//! EDSR). The full 50-layer bottleneck network is implemented; a width
//! multiplier lets tests instantiate a narrow variant that runs fast on CPU.

use dlsr_nn::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, ReLU};
use dlsr_nn::module::Module;
use dlsr_nn::param::Param;
use dlsr_nn::{Result, Tensor};
use dlsr_tensor::conv::Conv2dParams;
use dlsr_tensor::elementwise;

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

    /// A narrow/shallow variant for CPU tests.
    pub fn tiny() -> Self {
        ResNetConfig {
            stages: [1, 1, 1, 1],
            base_width: 8,
            classes: 10,
        }
    }
}

/// Bottleneck residual block: 1×1 reduce → 3×3 (stride) → 1×1 expand,
/// each followed by BN; ReLU after the skip addition.
struct Bottleneck {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    conv3: Conv2d,
    bn3: BatchNorm2d,
    relu1: ReLU,
    relu2: ReLU,
    downsample: Option<(Conv2d, BatchNorm2d)>,
    sum_cache: Option<Tensor>,
}

impl Bottleneck {
    fn new(name: &str, c_in: usize, mid: usize, c_out: usize, stride: usize, seed: u64) -> Self {
        let p1 = Conv2dParams::default();
        let p2 = Conv2dParams {
            stride,
            ..Conv2dParams::same(3)
        };
        let downsample = (c_in != c_out || stride != 1).then(|| {
            (
                Conv2d::new_no_bias(
                    &format!("{name}.down.conv"),
                    c_in,
                    c_out,
                    1,
                    Conv2dParams { stride, ..p1 },
                    seed + 6,
                ),
                BatchNorm2d::new(&format!("{name}.down.bn"), c_out),
            )
        });
        Bottleneck {
            conv1: Conv2d::new_no_bias(&format!("{name}.conv1"), c_in, mid, 1, p1, seed),
            bn1: BatchNorm2d::new(&format!("{name}.bn1"), mid),
            conv2: Conv2d::new_no_bias(&format!("{name}.conv2"), mid, mid, 3, p2, seed + 1),
            bn2: BatchNorm2d::new(&format!("{name}.bn2"), mid),
            conv3: Conv2d::new_no_bias(&format!("{name}.conv3"), mid, c_out, 1, p1, seed + 2),
            bn3: BatchNorm2d::new(&format!("{name}.bn3"), c_out),
            relu1: ReLU::new(),
            relu2: ReLU::new(),
            downsample,
            sum_cache: None,
        }
    }
}

impl Module for Bottleneck {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let h = self
            .relu1
            .forward(&self.bn1.forward(&self.conv1.forward(x)?)?)?;
        let h = self
            .relu2
            .forward(&self.bn2.forward(&self.conv2.forward(&h)?)?)?;
        let h = self.bn3.forward(&self.conv3.forward(&h)?)?;
        let skip = match &mut self.downsample {
            Some((conv, bn)) => bn.forward(&conv.forward(x)?)?,
            None => x.clone(),
        };
        let sum = elementwise::add(&h, &skip)?;
        self.sum_cache = Some(sum.clone());
        Ok(elementwise::relu(&sum))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let sum = self
            .sum_cache
            .take()
            .expect("Bottleneck::backward called without forward");
        let g = elementwise::relu_backward(grad_out, &sum)?;
        // main branch
        let gm = self.bn3.backward(&g)?;
        let gm = self.conv3.backward(&gm)?;
        let gm = self.relu2.backward(&gm)?;
        let gm = self.bn2.backward(&gm)?;
        let gm = self.conv2.backward(&gm)?;
        let gm = self.relu1.backward(&gm)?;
        let gm = self.bn1.backward(&gm)?;
        let gm = self.conv1.backward(&gm)?;
        // skip branch
        let gs = match &mut self.downsample {
            Some((conv, bn)) => {
                let t = bn.backward(&g)?;
                conv.backward(&t)?
            }
            None => g,
        };
        elementwise::add(&gm, &gs)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        self.conv3.visit_params(f);
        self.bn3.visit_params(f);
        if let Some((conv, bn)) = &mut self.downsample {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn predict(&mut self, x: &Tensor) -> Result<Tensor> {
        let h = self
            .relu1
            .predict(&self.bn1.predict(&self.conv1.predict(x)?)?)?;
        let h = self
            .relu2
            .predict(&self.bn2.predict(&self.conv2.predict(&h)?)?)?;
        let h = self.bn3.predict(&self.conv3.predict(&h)?)?;
        let skip = match &mut self.downsample {
            Some((conv, bn)) => bn.predict(&conv.predict(x)?)?,
            None => x.clone(),
        };
        Ok(elementwise::relu(&elementwise::add(&h, &skip)?))
    }
}

/// The ResNet classifier.
pub struct ResNet {
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    stem_relu: ReLU,
    stem_pool: MaxPool2d,
    blocks: Vec<Bottleneck>,
    gap: GlobalAvgPool,
    fc: Linear,
    cfg: ResNetConfig,
}

impl ResNet {
    /// Build a ResNet from a configuration with seeded initialization.
    pub fn new(cfg: ResNetConfig, seed: u64) -> Self {
        let b = cfg.base_width;
        let stem_conv = Conv2d::new_no_bias(
            "stem.conv",
            3,
            b,
            7,
            Conv2dParams {
                stride: 2,
                ..Conv2dParams::same(7)
            },
            seed,
        );
        let mut blocks = Vec::new();
        let mut c_in = b;
        let mut s = seed + 100;
        for (stage, &count) in cfg.stages.iter().enumerate() {
            let mid = b << stage;
            let c_out = mid * 4;
            for i in 0..count {
                let stride = if stage > 0 && i == 0 { 2 } else { 1 };
                blocks.push(Bottleneck::new(
                    &format!("layer{}.{}", stage + 1, i),
                    c_in,
                    mid,
                    c_out,
                    stride,
                    s,
                ));
                c_in = c_out;
                s += 10;
            }
        }
        let fc = Linear::new("fc", c_in, cfg.classes, seed + 7);
        ResNet {
            stem_conv,
            stem_bn: BatchNorm2d::new("stem.bn", b),
            stem_relu: ReLU::new(),
            stem_pool: MaxPool2d::new(3, 2),
            blocks,
            gap: GlobalAvgPool::new(),
            fc,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> ResNetConfig {
        self.cfg
    }
}

impl Module for ResNet {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let h = self.stem_conv.forward(x)?;
        let h = self.stem_bn.forward(&h)?;
        let h = self.stem_relu.forward(&h)?;
        let mut h = self.stem_pool.forward(&h)?;
        for b in &mut self.blocks {
            h = b.forward(&h)?;
        }
        let h = self.gap.forward(&h)?;
        self.fc.forward(&h)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let g = self.fc.backward(grad_out)?;
        let mut g = self.gap.backward(&g)?;
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g)?;
        }
        let g = self.stem_pool.backward(&g)?;
        let g = self.stem_relu.backward(&g)?;
        let g = self.stem_bn.backward(&g)?;
        self.stem_conv.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem_conv.visit_params(f);
        self.stem_bn.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.fc.visit_params(f);
    }

    fn predict(&mut self, x: &Tensor) -> Result<Tensor> {
        let h = self.stem_conv.predict(x)?;
        let h = self.stem_bn.predict(&h)?;
        let h = self.stem_relu.predict(&h)?;
        let mut h = self.stem_pool.predict(&h)?;
        for b in &mut self.blocks {
            h = b.predict(&h)?;
        }
        let h = self.gap.predict(&h)?;
        self.fc.predict(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsr_nn::module::ModuleExt;
    use dlsr_tensor::init;

    #[test]
    fn tiny_variant_classifies_shape() {
        let mut m = ResNet::new(ResNetConfig::tiny(), 1);
        let x = init::uniform([2, 3, 64, 64], 0.0, 1.0, 2);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn backward_reaches_input() {
        let mut m = ResNet::new(ResNetConfig::tiny(), 3);
        let x = init::uniform([1, 3, 64, 64], 0.0, 1.0, 4);
        let y = m.forward(&x).unwrap();
        let g = m.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.shape().dims(), x.shape().dims());
    }

    #[test]
    fn resnet50_param_count_close_to_25m() {
        // The canonical ResNet-50 has ~25.56M params; our BN layers carry
        // γ/β only (no running-stat params), matching that count.
        let mut m = ResNet::new(ResNetConfig::resnet50(), 1);
        let n = m.num_params();
        assert!(
            (25_000_000..26_200_000).contains(&n),
            "ResNet-50 params {n} out of expected range"
        );
    }

    #[test]
    fn cross_entropy_step_reduces_loss() {
        use dlsr_nn::loss::cross_entropy;
        use dlsr_nn::optim::{Optimizer, Sgd};
        let mut m = ResNet::new(ResNetConfig::tiny(), 5);
        let x = init::uniform([2, 3, 64, 64], 0.0, 1.0, 6);
        let labels = [1usize, 3];
        let mut opt = Sgd::new(0.05);
        let logits = m.forward(&x).unwrap();
        let (l0, g) = cross_entropy(&logits, &labels).unwrap();
        m.backward(&g).unwrap();
        opt.step(&mut m);
        let (l1, _) = cross_entropy(&m.forward(&x).unwrap(), &labels).unwrap();
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }
}
