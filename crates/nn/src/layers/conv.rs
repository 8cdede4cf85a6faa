//! Convolution layer.

use dlsr_tensor::conv::{conv2d_backward, conv2d_fused, Act, Conv2dParams};
use dlsr_tensor::{elementwise, init, Result, Tensor};

use crate::module::Module;
use crate::param::Param;

/// 2-D convolution with bias and an optionally fused activation.
///
/// [`Conv2d::forward_act`] runs bias and activation inside the convolution
/// GEMM epilogue (one pass over the output instead of three); the backward
/// pass applies the matching activation mask before the convolution
/// adjoints, so callers fusing an activation must *not* also run a separate
/// activation layer.
pub struct Conv2d {
    weight: Param,
    bias: Param,
    conv: Conv2dParams,
    input_cache: Option<Tensor>,
    /// Post-activation output cached by a fused-ReLU forward; its sign
    /// pattern is the backward mask (`y > 0 ⇔ pre-activation > 0`).
    act_output: Option<Tensor>,
}

impl Conv2d {
    /// Kaiming-initialized convolution with bias.
    pub fn new(
        name: &str,
        c_in: usize,
        c_out: usize,
        k: usize,
        conv: Conv2dParams,
        seed: u64,
    ) -> Self {
        let weight = Param::new(
            format!("{name}.weight"),
            init::kaiming_conv(c_out, c_in, k, k, seed),
        );
        let bias = Param::new(format!("{name}.bias"), Tensor::zeros([c_out]));
        Conv2d {
            weight,
            bias,
            conv,
            input_cache: None,
            act_output: None,
        }
    }

    /// Layer name as passed to the constructor (parameters are named
    /// `{layer}.weight` / `{layer}.bias`).
    fn layer_name(&self) -> &str {
        self.weight
            .name
            .strip_suffix(".weight")
            .unwrap_or(&self.weight.name)
    }

    /// Forward pass with `act` fused into the convolution epilogue. The
    /// matching mask is applied automatically in [`Module::backward`].
    pub fn forward_act(&mut self, x: &Tensor, act: Act) -> Result<Tensor> {
        let _span =
            dlsr_trace::span_with(|| self.layer_name().to_string(), dlsr_trace::cat::NN_FWD);
        self.input_cache = Some(x.clone());
        let y = conv2d_fused(
            x,
            &self.weight.value,
            Some(self.bias.value.data()),
            act,
            self.conv,
        )?;
        self.act_output = match act {
            Act::Relu => Some(y.clone()),
            Act::Identity => None,
        };
        Ok(y)
    }

    /// Inference-only forward with a fused activation (no caches).
    pub fn predict_act(&mut self, x: &Tensor, act: Act) -> Result<Tensor> {
        conv2d_fused(
            x,
            &self.weight.value,
            Some(self.bias.value.data()),
            act,
            self.conv,
        )
    }
}

impl Module for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        self.forward_act(x, Act::Identity)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let _span =
            dlsr_trace::span_with(|| self.layer_name().to_string(), dlsr_trace::cat::NN_BWD);
        let input = self
            .input_cache
            .take()
            .expect("Conv2d::backward called without forward");
        let masked;
        let grad_out = match self.act_output.take() {
            Some(y) => {
                masked = elementwise::relu_backward(grad_out, &y)?;
                &masked
            }
            None => grad_out,
        };
        let (gi, gw, gb) = conv2d_backward(&input, &self.weight.value, grad_out, self.conv)?;
        self.weight.accumulate_grad(&gw);
        self.bias.accumulate_grad_slice(&gb);
        Ok(gi)
    }

    fn backward_with_hook(
        &mut self,
        grad_out: &Tensor,
        hook: &mut dyn FnMut(&mut Param),
    ) -> Result<Tensor> {
        let g = self.backward(grad_out)?;
        // reverse visit order: bias finalizes conceptually with the weight,
        // but readiness fires output-side-first
        hook(&mut self.bias);
        hook(&mut self.weight);
        Ok(g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn predict(&mut self, x: &Tensor) -> Result<Tensor> {
        self.predict_act(x, Act::Identity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsr_tensor::reduce;

    #[test]
    fn forward_backward_shapes() {
        let mut c = Conv2d::new("c", 3, 8, 3, Conv2dParams::same(3), 1);
        let x = init::uniform([2, 3, 6, 6], -1.0, 1.0, 2);
        let y = c.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 8, 6, 6]);
        let gi = c.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(gi.shape().dims(), x.shape().dims());
    }

    #[test]
    fn gradient_decreases_loss() {
        // One SGD step on sum-of-squares loss must reduce it: end-to-end
        // sanity that gradients point downhill.
        let mut c = Conv2d::new("c", 1, 1, 3, Conv2dParams::same(3), 3);
        let x = init::uniform([1, 1, 5, 5], -1.0, 1.0, 4);
        let y = c.forward(&x).unwrap();
        let loss0 = reduce::mean_sq(&y);
        // dL/dy = 2y/n
        let n = y.numel() as f32;
        let gy = dlsr_tensor::elementwise::scale(&y, 2.0 / n);
        c.backward(&gy).unwrap();
        let lr = 0.1;
        c.visit_params(&mut |p| {
            let g = p.grad.clone();
            for (v, gv) in p.value.data_mut().iter_mut().zip(g.data()) {
                *v -= lr * gv;
            }
        });
        let y1 = c.predict(&x).unwrap();
        assert!(reduce::mean_sq(&y1) < loss0);
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_without_forward_panics() {
        let mut c = Conv2d::new("c", 1, 1, 3, Conv2dParams::default(), 1);
        let _ = c.backward(&Tensor::zeros([1, 1, 1, 1]));
    }

    /// The fused conv+ReLU must behave exactly like conv followed by a
    /// separate ReLU layer — forward and backward.
    #[test]
    fn fused_relu_matches_separate_layers() {
        let x = init::uniform([2, 2, 5, 5], -1.0, 1.0, 9);
        let gy = init::uniform([2, 3, 5, 5], -1.0, 1.0, 10);

        let mut fused = Conv2d::new("c", 2, 3, 3, Conv2dParams::same(3), 7);
        let y_fused = fused.forward_act(&x, Act::Relu).unwrap();
        let gx_fused = fused.backward(&gy).unwrap();

        let mut plain = Conv2d::new("c", 2, 3, 3, Conv2dParams::same(3), 7);
        let mut relu = crate::layers::ReLU::new();
        let y_plain = relu.forward(&plain.forward(&x).unwrap()).unwrap();
        let gx_plain = plain.backward(&relu.backward(&gy).unwrap()).unwrap();

        assert_eq!(y_fused.data(), y_plain.data());
        assert_eq!(gx_fused.data(), gx_plain.data());
        let mut fused_gw = None;
        fused.visit_params(&mut |p| {
            if p.name.ends_with("weight") {
                fused_gw = Some(p.grad.clone());
            }
        });
        let mut plain_gw = None;
        plain.visit_params(&mut |p| {
            if p.name.ends_with("weight") {
                plain_gw = Some(p.grad.clone());
            }
        });
        assert_eq!(fused_gw.unwrap().data(), plain_gw.unwrap().data());
    }
}
