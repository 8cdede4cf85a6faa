//! Procedural HR image synthesis.
//!
//! Each image combines three kinds of content that matter for SR training:
//! smooth multi-octave gradients (low-frequency), sharp geometric edges
//! (the structures bicubic blurs and SR models must restore), and
//! fine-grained texture (high-frequency detail).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dlsr_tensor::Tensor;

/// Parameters of the synthetic image generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticImageSpec {
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Color channels (3 = RGB).
    pub channels: usize,
    /// Number of smooth cosine octaves.
    pub octaves: usize,
    /// Number of sharp-edged shapes (axis-aligned boxes / diagonal ramps).
    pub shapes: usize,
    /// Texture amplitude in `[0,1]`.
    pub texture: f32,
}

impl Default for SyntheticImageSpec {
    fn default() -> Self {
        SyntheticImageSpec {
            height: 128,
            width: 128,
            channels: 3,
            octaves: 4,
            shapes: 6,
            texture: 0.08,
        }
    }
}

impl SyntheticImageSpec {
    /// Generate image `index` of a deterministic virtual collection seeded
    /// by `seed`. Pixels lie in `[0, 1]`, NCHW with N = 1.
    pub fn generate(&self, seed: u64, index: usize) -> Tensor {
        self.generate_with(seed, index, add_octave)
    }

    /// [`generate`](Self::generate) with the smooth-octave term supplied:
    /// the tests render with a per-pixel oracle in place of [`add_octave`]
    /// and hold the two equal bit for bit.
    fn generate_with(
        &self,
        seed: u64,
        index: usize,
        add_octave: fn(&mut [f32], usize, usize, &Octave),
    ) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9));
        let (h, w, c) = (self.height, self.width, self.channels);
        let mut img = vec![0.0f32; c * h * w];

        // 1. smooth multi-octave base, per channel phase-shifted
        for ch in 0..c {
            let plane = &mut img[ch * h * w..(ch + 1) * h * w];
            let mut amp = 0.5f32;
            let base_fx: f32 = rng.gen_range(0.5..2.0);
            let base_fy: f32 = rng.gen_range(0.5..2.0);
            let phase_c = ch as f32 * 0.7;
            for oct in 0..self.octaves {
                let f = (1 << oct) as f32;
                let tau = std::f32::consts::TAU;
                let (px, py) = (rng.gen_range(0.0..tau), rng.gen_range(0.0..tau));
                let octave = Octave {
                    amp,
                    base_fx,
                    base_fy,
                    f,
                    px,
                    py,
                    phase_c,
                };
                add_octave(plane, h, w, &octave);
                amp *= 0.5;
            }
        }

        // 2. sharp shapes: constant-color boxes with hard borders
        for _ in 0..self.shapes {
            let bh = rng.gen_range(h / 16..h / 3 + 1);
            let bw = rng.gen_range(w / 16..w / 3 + 1);
            let y0 = rng.gen_range(0..h.saturating_sub(bh).max(1));
            let x0 = rng.gen_range(0..w.saturating_sub(bw).max(1));
            for ch in 0..c {
                let v: f32 = rng.gen_range(-0.6..0.6);
                let plane = &mut img[ch * h * w..(ch + 1) * h * w];
                for y in y0..(y0 + bh).min(h) {
                    for x in x0..(x0 + bw).min(w) {
                        plane[y * w + x] += v;
                    }
                }
            }
        }

        // 3. fine texture: per-pixel noise
        if self.texture > 0.0 {
            for v in img.iter_mut() {
                *v += rng.gen_range(-self.texture..self.texture);
            }
        }

        // normalize into [0,1]
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in &img {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let range = (hi - lo).max(1e-6);
        for v in img.iter_mut() {
            *v = (*v - lo) / range;
        }
        Tensor::from_vec([1, c, h, w], img).expect("buffer matches shape")
    }
}

/// One smooth octave of a channel plane: pixel `(y, x)` of an `h × w`
/// plane gains `amp·0.5·(sin(fx + px + phase_c) + cos(fy + py))`, where
/// `fx = x/w·base_fx·f·τ` and `fy = y/h·base_fy·f·τ`.
struct Octave {
    amp: f32,
    base_fx: f32,
    base_fy: f32,
    f: f32,
    px: f32,
    py: f32,
    phase_c: f32,
}

/// Add one octave separably: the sine depends on the column only and the
/// cosine on the row only, so one `sin` per column and one `cos` per row
/// (`w + h` calls, not `2·h·w`). Every operand and operation is the
/// per-pixel formula's, so every pixel keeps its bits.
fn add_octave(plane: &mut [f32], h: usize, w: usize, o: &Octave) {
    let tau = std::f32::consts::TAU;
    let sin_x: Vec<f32> = (0..w)
        .map(|x| {
            let fx = (x as f32 / w as f32) * o.base_fx * o.f * tau;
            (fx + o.px + o.phase_c).sin()
        })
        .collect();
    for y in 0..h {
        let fy = (y as f32 / h as f32) * o.base_fy * o.f * tau;
        let cos_y = (fy + o.py).cos();
        for (p, &s) in plane[y * w..(y + 1) * w].iter_mut().zip(&sin_x) {
            *p += o.amp * 0.5 * (s + cos_y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The octave term evaluated per pixel, as written in [`Octave`]: the
    /// bitwise oracle for [`add_octave`].
    fn add_octave_per_pixel(plane: &mut [f32], h: usize, w: usize, o: &Octave) {
        for y in 0..h {
            let fy = (y as f32 / h as f32) * o.base_fy * o.f * std::f32::consts::TAU;
            for x in 0..w {
                let fx = (x as f32 / w as f32) * o.base_fx * o.f * std::f32::consts::TAU;
                plane[y * w + x] +=
                    o.amp * 0.5 * ((fx + o.px + o.phase_c).sin() + (fy + o.py).cos());
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn separable_octaves_equal_the_per_pixel_oracle(
            h in 1usize..80,
            w in 1usize..80,
            octaves in 0usize..5,
            shapes in 0usize..8,
            textured in proptest::bool::ANY,
            texture in 0.01f32..0.2,
            seed in 0u64..u64::MAX,
            index in 0usize..1024,
        ) {
            let texture = if textured { texture } else { 0.0 };
            let spec = SyntheticImageSpec { height: h, width: w, channels: 3, octaves, shapes, texture };
            let (got, want) = (
                bits(&spec.generate(seed, index)),
                bits(&spec.generate_with(seed, index, add_octave_per_pixel)),
            );
            let first_diff = got.iter().zip(&want).position(|(a, b)| a != b);
            prop_assert!(
                first_diff.is_none(),
                "{spec:?} seed {seed} index {index}: pixel {first_diff:?} differs"
            );
        }
    }

    /// FNV-1a over every pixel's bits of `generate` on a fixed grid of
    /// specs, seeds and indices. The value was taken from the per-pixel
    /// generator; like the training goldens it also pins the host libm's
    /// `sinf`/`cosf`.
    #[test]
    fn generate_matches_the_golden_hash() {
        let specs = [
            SyntheticImageSpec {
                height: 32,
                width: 32,
                ..Default::default()
            },
            SyntheticImageSpec {
                height: 48,
                width: 48,
                ..Default::default()
            },
            SyntheticImageSpec {
                height: 20,
                width: 30,
                channels: 1,
                octaves: 2,
                shapes: 3,
                texture: 0.0,
            },
            SyntheticImageSpec {
                height: 37,
                width: 13,
                octaves: 5,
                shapes: 0,
                texture: 0.15,
                ..Default::default()
            },
            SyntheticImageSpec {
                height: 96,
                width: 96,
                octaves: 1,
                shapes: 24,
                texture: 0.0,
                ..Default::default()
            },
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for spec in &specs {
            for seed in [0, 7, 42, 2021] {
                for index in [0, 1, 3, 5, 8, 13, 21, 34] {
                    for b in bits(&spec.generate(seed, index)) {
                        for byte in b.to_le_bytes() {
                            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(
            hash, 0x2d5f_e1d0_2ce5_476d,
            "generate's pixels changed: {hash:#018x}"
        );
    }

    #[test]
    fn deterministic_per_seed_and_index() {
        let spec = SyntheticImageSpec {
            height: 32,
            width: 32,
            ..Default::default()
        };
        assert_eq!(spec.generate(1, 0), spec.generate(1, 0));
        assert_ne!(spec.generate(1, 0), spec.generate(1, 1));
        assert_ne!(spec.generate(1, 0), spec.generate(2, 0));
    }

    #[test]
    fn pixels_are_normalized() {
        let spec = SyntheticImageSpec {
            height: 24,
            width: 24,
            ..Default::default()
        };
        let img = spec.generate(3, 7);
        let lo = img.data().iter().copied().fold(f32::INFINITY, f32::min);
        let hi = img.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(lo >= 0.0 && hi <= 1.0);
        assert!(hi - lo > 0.5, "image has no dynamic range");
    }

    #[test]
    fn images_have_high_frequency_content() {
        // The point of the generator: images must not be pure smooth
        // gradients, or SR would be trivially solved by bicubic.
        let spec = SyntheticImageSpec {
            height: 64,
            width: 64,
            ..Default::default()
        };
        let img = spec.generate(5, 0);
        let d = img.data();
        let mut grad_energy = 0.0f32;
        for y in 0..64 {
            for x in 0..63 {
                let diff = d[y * 64 + x + 1] - d[y * 64 + x];
                grad_energy += diff * diff;
            }
        }
        assert!(grad_energy > 1.0, "gradient energy {grad_energy} too low");
    }

    #[test]
    fn shape_matches_spec() {
        let spec = SyntheticImageSpec {
            height: 20,
            width: 30,
            channels: 1,
            ..Default::default()
        };
        assert_eq!(spec.generate(1, 0).shape().dims(), &[1, 1, 20, 30]);
    }
}
