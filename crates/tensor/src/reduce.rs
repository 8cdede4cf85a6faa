//! Reductions.

use crate::Tensor;

/// Sum of all elements.
pub fn sum(t: &Tensor) -> f32 {
    t.data().iter().sum()
}

/// Mean of all elements.
pub fn mean(t: &Tensor) -> f32 {
    if t.numel() == 0 {
        return 0.0;
    }
    sum(t) / t.numel() as f32
}

/// Maximum element (NEG_INFINITY for empty tensors).
pub fn max(t: &Tensor) -> f32 {
    t.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Minimum element (INFINITY for empty tensors).
pub fn min(t: &Tensor) -> f32 {
    t.data().iter().copied().fold(f32::INFINITY, f32::min)
}

/// Mean of squared elements (second raw moment).
pub fn mean_sq(t: &Tensor) -> f32 {
    if t.numel() == 0 {
        return 0.0;
    }
    t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec([v.len()], v.to_vec()).unwrap()
    }

    #[test]
    fn scalar_reductions() {
        let x = t(&[1.0, 2.0, 3.0, -4.0]);
        assert_eq!(sum(&x), 2.0);
        assert_eq!(mean(&x), 0.5);
        assert_eq!(max(&x), 3.0);
        assert_eq!(min(&x), -4.0);
        assert_eq!(mean_sq(&x), (1.0 + 4.0 + 9.0 + 16.0) / 4.0);
    }
}
