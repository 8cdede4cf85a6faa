//! Layer zoo.

mod activation;
mod conv;
mod linear;
mod meanshift;
mod resblock;
mod scale;
mod shuffle;

pub use activation::ReLU;
pub use conv::Conv2d;
pub use linear::Linear;
pub use meanshift::MeanShift;
pub use resblock::ResBlock;
pub use scale::Scale;
pub use shuffle::PixelShuffle;
