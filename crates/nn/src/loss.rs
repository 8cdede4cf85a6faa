//! Loss functions. Each returns `(loss_value, grad_wrt_prediction)` so the
//! training loop can seed backpropagation directly.

use dlsr_tensor::{Result, Tensor, TensorError};

/// Mean absolute error — the loss EDSR trains with (L1 gives sharper SR
/// results than L2; see the EDSR paper).
pub fn l1_loss(pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    check(pred, target, "l1_loss")?;
    let n = pred.numel() as f32;
    let mut grad = pred.clone();
    let mut loss = 0.0f32;
    for (g, &t) in grad.data_mut().iter_mut().zip(target.data()) {
        let d = *g - t;
        loss += d.abs();
        *g = d.signum() / n;
    }
    Ok((loss / n, grad))
}

/// Mean squared error.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    check(pred, target, "mse_loss")?;
    let n = pred.numel() as f32;
    let mut grad = pred.clone();
    let mut loss = 0.0f32;
    for (g, &t) in grad.data_mut().iter_mut().zip(target.data()) {
        let d = *g - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    Ok((loss / n, grad))
}

fn check(pred: &Tensor, target: &Tensor, context: &'static str) -> Result<()> {
    if pred.shape() != target.shape() {
        return Err(TensorError::ShapeMismatch {
            expected: pred.shape().dims().to_vec(),
            got: target.shape().dims().to_vec(),
            context,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_known_value_and_grad() {
        let p = Tensor::from_vec([2], vec![1.0, -1.0]).unwrap();
        let t = Tensor::from_vec([2], vec![0.0, 0.0]).unwrap();
        let (loss, g) = l1_loss(&p, &t).unwrap();
        assert!((loss - 1.0).abs() < 1e-6);
        assert_eq!(g.data(), &[0.5, -0.5]);
    }

    #[test]
    fn mse_known_value_and_grad() {
        let p = Tensor::from_vec([2], vec![2.0, 0.0]).unwrap();
        let t = Tensor::from_vec([2], vec![0.0, 0.0]).unwrap();
        let (loss, g) = mse_loss(&p, &t).unwrap();
        assert!((loss - 2.0).abs() < 1e-6);
        assert_eq!(g.data(), &[2.0, 0.0]);
    }

    #[test]
    fn zero_loss_at_target() {
        let t = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(l1_loss(&t, &t).unwrap().0, 0.0);
        assert_eq!(mse_loss(&t, &t).unwrap().0, 0.0);
    }
}
