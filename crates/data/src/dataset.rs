//! The synthetic-DIV2K dataset: LR/HR patch pairs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dlsr_tensor::{resize, Tensor};
use dlsr_trace::report::keys;

use crate::synthetic::SyntheticImageSpec;

/// One training pair: an LR patch and its HR ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchPair {
    /// Low-resolution input, `[1, C, p, p]`.
    pub lr: Tensor,
    /// High-resolution target, `[1, C, p·s, p·s]`.
    pub hr: Tensor,
}

/// A deterministic virtual DIV2K: `n_images` synthetic HR images, each
/// paired with its bicubic-downsampled LR version. Patches are sampled on
/// demand; nothing is stored on disk.
///
/// Each image is rendered the first time it is drawn and kept, as a real
/// loader keeps a decoded image: the dataset holds at most what it *is*,
/// `n_images × (HR + LR)` floats, and no draw renders an image twice.
pub struct Div2kSynthetic {
    spec: SyntheticImageSpec,
    scale: usize,
    seed: u64,
    /// Image `i`'s `(HR, LR)` pair at index `i`, once rendered.
    images: Vec<Option<(Tensor, Tensor)>>,
}

impl Div2kSynthetic {
    /// Create a dataset of `n_images` images at upscale factor `scale`
    /// (DIV2K proper has 800 training images).
    pub fn new(spec: SyntheticImageSpec, n_images: usize, scale: usize, seed: u64) -> Self {
        assert!(
            n_images >= 1,
            "n_images must be >= 1: there is nothing to sample"
        );
        assert!(scale >= 1, "scale must be >= 1");
        assert!(
            spec.height.is_multiple_of(scale) && spec.width.is_multiple_of(scale),
            "image extent must be divisible by the scale"
        );
        Div2kSynthetic {
            spec,
            scale,
            seed,
            images: vec![None; n_images],
        }
    }

    /// Number of images in the collection.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The upscale factor.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Full HR/LR image pair for image `index`, rendered on first use.
    pub fn image(&mut self, index: usize) -> (&Tensor, &Tensor) {
        assert!(index < self.images.len(), "image index out of range");
        let (spec, seed, scale) = (self.spec, self.seed, self.scale);
        let (hr, lr) = self.images[index].get_or_insert_with(|| {
            dlsr_trace::counter_add(keys::IMAGES_RENDERED, 1.0);
            let hr = spec.generate(seed, index);
            let lr =
                resize::bicubic_downsample(&hr, scale).expect("spec extents divisible by scale");
            (hr, lr)
        });
        (hr, lr)
    }

    /// Sample a random aligned LR/HR patch pair. `lr_patch` is the LR patch
    /// extent (the paper's EDSR uses 96 for ×2 training; HR patch = 192).
    pub fn sample_patch(&mut self, lr_patch: usize, rng: &mut SmallRng) -> PatchPair {
        let index = rng.gen_range(0..self.images.len());
        let s = self.scale;
        let (hr, lr) = self.image(index);
        let (_, c, lh, lw) = lr.shape().as_nchw().expect("rank-4 image");
        assert!(
            lr_patch <= lh && lr_patch <= lw,
            "patch larger than LR image"
        );
        let y = rng.gen_range(0..=lh - lr_patch);
        let x = rng.gen_range(0..=lw - lr_patch);
        PatchPair {
            lr: crop(lr, c, y, x, lr_patch, lr_patch),
            hr: crop(hr, c, y * s, x * s, lr_patch * s, lr_patch * s),
        }
    }

    /// Deterministic patch sampler keyed by `(epoch, step, rank)` — used by
    /// the distributed loader so every rank draws disjoint, reproducible
    /// work.
    pub fn patch_for(&mut self, lr_patch: usize, key: u64) -> PatchPair {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ key.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        self.sample_patch(lr_patch, &mut rng)
    }
}

fn crop(img: &Tensor, c: usize, y0: usize, x0: usize, h: usize, w: usize) -> Tensor {
    let (_, _, ih, iw) = img.shape().as_nchw().expect("rank-4 image");
    let mut out = Vec::with_capacity(c * h * w);
    for ch in 0..c {
        for y in 0..h {
            let src = ch * ih * iw + (y0 + y) * iw + x0;
            out.extend_from_slice(&img.data()[src..src + w]);
        }
    }
    Tensor::from_vec([1, c, h, w], out).expect("buffer matches shape")
}

/// Stack `[1,C,H,W]` samples into a `[N,C,H,W]` batch.
pub fn stack_batch(samples: &[Tensor]) -> Tensor {
    assert!(!samples.is_empty(), "cannot stack an empty batch");
    let dims = samples[0].shape().dims().to_vec();
    let per = samples[0].numel();
    let mut data = Vec::with_capacity(per * samples.len());
    for s in samples {
        assert_eq!(s.shape().dims(), dims.as_slice(), "heterogeneous batch");
        data.extend_from_slice(s.data());
    }
    Tensor::from_vec([samples.len(), dims[1], dims[2], dims[3]], data)
        .expect("buffer matches shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ds() -> Div2kSynthetic {
        let spec = SyntheticImageSpec {
            height: 32,
            width: 32,
            ..Default::default()
        };
        Div2kSynthetic::new(spec, 4, 2, 42)
    }

    #[test]
    fn lr_is_downsampled_hr() {
        let mut ds = small_ds();
        let (hr, lr) = ds.image(0);
        assert_eq!(hr.shape().dims(), &[1, 3, 32, 32]);
        assert_eq!(lr.shape().dims(), &[1, 3, 16, 16]);
    }

    #[test]
    fn patches_are_aligned() {
        // The HR patch must be the ×2 region of the LR patch: downsampling
        // the HR crop reproduces the LR crop closely (borders differ due to
        // crop-boundary taps).
        let mut ds = small_ds();
        let pair = ds.patch_for(8, 5);
        assert_eq!(pair.lr.shape().dims(), &[1, 3, 8, 8]);
        assert_eq!(pair.hr.shape().dims(), &[1, 3, 16, 16]);
        let re_lr = resize::bicubic_downsample(&pair.hr, 2).unwrap();
        // compare interior only (1-pixel border excluded)
        let mut max_diff = 0.0f32;
        for c in 0..3 {
            for y in 1..7 {
                for x in 1..7 {
                    let d = (re_lr.at(&[0, c, y, x]) - pair.lr.at(&[0, c, y, x])).abs();
                    max_diff = max_diff.max(d);
                }
            }
        }
        assert!(max_diff < 0.15, "interior mismatch {max_diff}");
    }

    #[test]
    fn patch_for_is_deterministic() {
        let mut a = small_ds();
        let mut b = small_ds();
        assert_eq!(a.patch_for(8, 17).lr, b.patch_for(8, 17).lr);
        assert_ne!(a.patch_for(8, 17).lr, b.patch_for(8, 18).lr);
    }

    #[test]
    fn stack_batch_concatenates() {
        let mut ds = small_ds();
        let p1 = ds.patch_for(8, 1);
        let p2 = ds.patch_for(8, 2);
        let batch = stack_batch(&[p1.lr.clone(), p2.lr.clone()]);
        assert_eq!(batch.shape().dims(), &[2, 3, 8, 8]);
        assert_eq!(&batch.data()[..p1.lr.numel()], p1.lr.data());
        assert_eq!(&batch.data()[p1.lr.numel()..], p2.lr.data());
    }

    #[test]
    fn warm_patches_equal_fresh_ones_whatever_the_render_order() {
        // render every image, in a shuffled order, before sampling
        let mut order: Vec<usize> = (0..4).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        assert!(!order.is_sorted(), "{order:?} is not shuffled");
        let mut warm = small_ds();
        for &i in &order {
            warm.image(i);
        }
        for key in 0..64 {
            assert_eq!(
                warm.patch_for(8, key),
                small_ds().patch_for(8, key),
                "key {key}"
            );
        }
    }

    #[test]
    fn each_image_is_rendered_once() {
        let sink = dlsr_trace::TraceSink::new();
        sink.scope(|| {
            let mut ds = small_ds();
            let first: *const Tensor = ds.image(2).0;
            for key in 0..64 {
                ds.patch_for(8, key);
            }
            assert!(
                std::ptr::eq(first, ds.image(2).0),
                "image 2 was rendered again"
            );
        });
        // the count is the sharper half: a re-render that frees the old
        // image can be handed its address back by the allocator
        assert_eq!(sink.counters()[keys::IMAGES_RENDERED], 4.0);
    }

    #[test]
    #[should_panic(expected = "n_images")]
    fn empty_dataset_panics_at_construction() {
        let spec = SyntheticImageSpec {
            height: 32,
            width: 32,
            ..Default::default()
        };
        let _ = Div2kSynthetic::new(spec, 0, 2, 1);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_scale_panics() {
        let spec = SyntheticImageSpec {
            height: 33,
            width: 32,
            ..Default::default()
        };
        let _ = Div2kSynthetic::new(spec, 1, 2, 1);
    }
}
