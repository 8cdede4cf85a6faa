//! Trainable parameters.

use dlsr_tensor::Tensor;

/// A named trainable parameter: value plus accumulated gradient.
///
/// Gradients are *accumulated* across backward calls (PyTorch semantics);
/// the optimizer (or the Horovod distributed optimizer) zeroes them after a
/// step. Names are hierarchical (`body.3.conv1.weight`) so state dicts and
/// the Horovod coordinator can identify tensors across ranks.
#[derive(Debug, Clone)]
pub struct Param {
    /// Hierarchical name, unique within a model.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Create a parameter with a zeroed gradient buffer.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Reset the gradient to zero (keeps the allocation).
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Accumulate a gradient contribution.
    pub fn accumulate_grad(&mut self, g: &Tensor) {
        debug_assert_eq!(g.shape(), self.value.shape());
        for (a, &b) in self.grad.data_mut().iter_mut().zip(g.data().iter()) {
            *a += b;
        }
    }

    /// Accumulate from a raw slice (used by conv bias gradients).
    pub fn accumulate_grad_slice(&mut self, g: &[f32]) {
        debug_assert_eq!(g.len(), self.grad.numel());
        for (a, &b) in self.grad.data_mut().iter_mut().zip(g.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::ones([2, 2]));
        assert_eq!(p.numel(), 4);
        assert!(p.grad.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn grad_accumulates_and_zeroes() {
        let mut p = Param::new("w", Tensor::zeros([2]));
        p.accumulate_grad(&Tensor::from_vec([2], vec![1.0, 2.0]).unwrap());
        p.accumulate_grad(&Tensor::from_vec([2], vec![0.5, 0.5]).unwrap());
        assert_eq!(p.grad.data(), &[1.5, 2.5]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn slice_accumulation() {
        let mut p = Param::new("b", Tensor::zeros([3]));
        p.accumulate_grad_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(p.grad.data(), &[1.0, 2.0, 3.0]);
    }
}
