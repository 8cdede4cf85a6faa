//! The dense `f32` tensor type.

use crate::{Result, Shape, TensorError};

/// A contiguous, row-major, dense `f32` tensor.
///
/// The data buffer always holds exactly `shape.numel()` elements. Image
/// tensors use the NCHW layout throughout the workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Construct from a shape and matching data buffer.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: vec![shape.numel()],
                got: vec![data.len()],
                context: "Tensor::from_vec (numel vs data length)",
            });
        }
        Ok(Tensor { shape, data })
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(Vec::new()),
            data: vec![value],
        }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrow the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable reference at a multi-index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// The single value of a scalar or 1-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires a 1-element tensor");
        self.data[0]
    }

    /// Reinterpret with a new shape of identical element count (zero-copy).
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: vec![self.data.len()],
                got: vec![shape.numel()],
                context: "reshape (element count must be preserved)",
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Bytes occupied by the payload (4 bytes per element). Used by the GPU
    /// memory model and the communication layer for message sizing.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Maximum absolute difference to another tensor of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff requires equal shapes"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// True when every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec([2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros([3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones([3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full([3], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        *t.at_mut(&[1, 2]) = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.clone().reshape([3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape([4, 2]).is_err());
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn size_bytes_counts_f32() {
        assert_eq!(Tensor::zeros([4, 4]).size_bytes(), 64);
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec([2], vec![1.0, 2.5]).unwrap();
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(a.allclose(&b, 0.5));
        assert!(!a.allclose(&b, 0.4));
    }
}
