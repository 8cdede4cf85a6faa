//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for arbitrary shapes and data.

use proptest::prelude::*;

use dlsr_tensor::conv::{
    conv2d, conv2d_backward, conv2d_backward_reference, conv2d_fused, conv2d_reference, Act,
    Conv2dParams,
};
use dlsr_tensor::kernels::KernelId;
use dlsr_tensor::matmul::{self, matmul, transpose, BSrc, Epilogue, Im2colView};
use dlsr_tensor::shuffle::{pixel_shuffle, pixel_unshuffle};
use dlsr_tensor::tune::{self, Blueprint, ParHint};
use dlsr_tensor::{elementwise, reduce, resize, scratch, Tensor};

/// Drive the blueprint GEMM engine the way the conv path does.
fn run_gemm(bp: &Blueprint, a: &Tensor, bsrc: BSrc<'_>, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut apack = scratch::take(matmul::packed_a_len(bp, m, k));
    matmul::pack_a(bp, a.data(), m, k, &mut apack);
    let mut c = vec![0.0f32; m * n];
    matmul::gemm(bp, &apack, bsrc, &mut c, m, k, n, Epilogue::None, false);
    c
}

/// The scalar-oracle blueprint: same `kc` (the only bit-affecting field),
/// everything else deliberately different from the selected blueprint.
fn scalar_oracle(kc: usize) -> Blueprint {
    Blueprint {
        kernel: KernelId::Scalar,
        mr: 6,
        nr: 8,
        kc,
        nc: 64,
        par: ParHint::Seq,
    }
}

/// The im2col definition, materialized: `col[(c, ky, kx), (oy, ox)]`.
fn im2col(
    img: &[f32],
    (c_in, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    p: Conv2dParams,
) -> Vec<f32> {
    let (h_out, w_out) = (p.out_extent(h, kh), p.out_extent(w, kw));
    let n = h_out * w_out;
    let mut col = vec![0.0f32; c_in * kh * kw * n];
    for r in 0..c_in * kh * kw {
        let (c, ky, kx) = (r / (kh * kw), r / kw % kh, r % kw);
        for j in 0..n {
            let iy = (j / w_out * p.stride + ky) as isize - p.padding as isize;
            let ix = (j % w_out * p.stride + kx) as isize - p.padding as isize;
            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                col[r * n + j] = img[(c * h + iy as usize) * w + ix as usize];
            }
        }
    }
    col
}

/// The per-element `col2im` loop the conv module ran before its run-adding
/// one: a bounds test per element, `(c, ky, kx, oy, ox)` order.
fn naive_col2im(
    col: &[f32],
    (c_in, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    p: Conv2dParams,
    img: &mut [f32],
) {
    let (h_out, w_out) = (p.out_extent(h, kh), p.out_extent(w, kw));
    for c in 0..c_in {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((c * kh + ky) * kw + kx) * h_out * w_out;
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                        let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            img[(c * h + iy as usize) * w + ix as usize] +=
                                col[row + oy * w_out + ox];
                        }
                    }
                }
            }
        }
    }
}

/// Bit patterns, with every NaN mapped to one pattern: which payload an FMA
/// hands on is the instruction selector's choice, NaN-or-not is the code's.
fn bits(x: &[f32]) -> Vec<u32> {
    x.iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// One conv layer, forward and backward, against the pack-and-GEMM
/// formulation spelled out with the engine's public pieces: `matmul::gemm`
/// under the selector's blueprint on a **materialized** column matrix, the
/// naive `col2im`, per-image reductions summed in ascending image order.
/// Every conv path — implicit-im2col packers, run-adding `col2im`, the
/// pack-free forward, input gradient and weight gradient — must reproduce
/// it bit for bit. `epi`: 0 = no bias, 1 = bias, 2 = bias + ReLU. With
/// `nan_tap` the first weight is NaN: the engine multiplies padding zeros
/// like any other tap, so every output whose window holds that tap — in the
/// image or in the padding — is NaN, and a path that skips padding taps
/// shows.
#[allow(clippy::too_many_arguments)]
fn assert_conv_equals_gemm_oracle(
    n: usize,
    (c_in, c_out): (usize, usize),
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    p: Conv2dParams,
    epi: usize,
    nan_tap: bool,
    seed: u64,
) {
    let ctx = format!(
        "n={n} c_in={c_in} c_out={c_out} {h}x{w} k{kh}x{kw} {p:?} epi={epi} nan_tap={nan_tap}"
    );
    let (h_out, w_out) = (p.out_extent(h, kh), p.out_extent(w, kw));
    let (k, hw) = (c_in * kh * kw, h_out * w_out);
    let x = dlsr_tensor::init::uniform([n, c_in, h, w], -1.0, 1.0, seed);
    let mut wt = dlsr_tensor::init::uniform([c_out, c_in, kh, kw], -1.0, 1.0, seed + 1);
    if nan_tap {
        wt.data_mut()[0] = f32::NAN;
    }
    let go = dlsr_tensor::init::uniform([n, c_out, h_out, w_out], -1.0, 1.0, seed + 2);
    let bias: Vec<f32> = (0..c_out).map(|i| 0.3 * i as f32 - 0.4).collect();
    let (bias_arg, act, epilogue) = match epi {
        0 => (None, Act::Identity, Epilogue::None),
        1 => (Some(&bias[..]), Act::Identity, Epilogue::Bias(&bias)),
        _ => (Some(&bias[..]), Act::Relu, Epilogue::BiasRelu(&bias)),
    };

    let (bp_f, bp_w, bp_i) = (
        tune::select(c_out, k, hw),
        tune::select(c_out, hw, k),
        tune::select(k, c_out, hw),
    );
    let mut w_pack = vec![0.0f32; matmul::packed_a_len(&bp_f, c_out, k)];
    matmul::pack_a(&bp_f, wt.data(), c_out, k, &mut w_pack);
    let mut wt_pack = vec![0.0f32; matmul::packed_a_len(&bp_i, k, c_out)];
    matmul::pack_a_transposed(&bp_i, wt.data(), k, c_out, &mut wt_pack);

    let mut want_out = vec![0.0f32; n * c_out * hw];
    let mut want_gi = vec![0.0f32; n * c_in * h * w];
    let mut want_gw = vec![0.0f32; c_out * k];
    let mut want_gb = vec![0.0f32; c_out];
    for i in 0..n {
        let img = &x.data()[i * c_in * h * w..(i + 1) * c_in * h * w];
        let go_i = &go.data()[i * c_out * hw..(i + 1) * c_out * hw];
        let col = im2col(img, (c_in, h, w), (kh, kw), p);
        let out_i = &mut want_out[i * c_out * hw..(i + 1) * c_out * hw];
        matmul::gemm(
            &bp_f,
            &w_pack,
            BSrc::Rows(&col),
            out_i,
            c_out,
            k,
            hw,
            epilogue,
            false,
        );

        let mut go_pack = vec![0.0f32; matmul::packed_a_len(&bp_w, c_out, hw)];
        matmul::pack_a(&bp_w, go_i, c_out, hw, &mut go_pack);
        let mut gw_i = vec![0.0f32; c_out * k];
        matmul::gemm(
            &bp_w,
            &go_pack,
            BSrc::Cols(&col),
            &mut gw_i,
            c_out,
            hw,
            k,
            Epilogue::None,
            false,
        );
        want_gw.iter_mut().zip(&gw_i).for_each(|(a, b)| *a += b);
        for (co, chunk) in go_i.chunks_exact(hw).enumerate() {
            want_gb[co] += chunk.iter().sum::<f32>();
        }

        let mut gcol = vec![0.0f32; k * hw];
        matmul::gemm(
            &bp_i,
            &wt_pack,
            BSrc::Rows(go_i),
            &mut gcol,
            k,
            c_out,
            hw,
            Epilogue::None,
            false,
        );
        let gi_i = &mut want_gi[i * c_in * h * w..(i + 1) * c_in * h * w];
        naive_col2im(&gcol, (c_in, h, w), (kh, kw), p, gi_i);
    }

    let out = conv2d_fused(&x, &wt, bias_arg, act, p).unwrap();
    let (gi, gw, gb) = conv2d_backward(&x, &wt, &go, p).unwrap();
    assert_eq!(bits(out.data()), bits(&want_out), "forward: {ctx}");
    assert_eq!(bits(gi.data()), bits(&want_gi), "grad_input: {ctx}");
    assert_eq!(bits(gw.data()), bits(&want_gw), "grad_weight: {ctx}");
    assert_eq!(bits(&gb), bits(&want_gb), "grad_bias: {ctx}");
}

/// The corners the random grid below must not be left to find by luck:
/// `c_out` 4 | 5 at a plane past the pack-free limit (pack-free | GEMM
/// path), `c_in·kh·kw` > 256 (several `kc` blocks inside the pack-free
/// forward), stride 2 (gather packer, strided `col2im`), every epilogue,
/// padding wider than the kernel reach, an output row longer than one lane
/// vector and one shorter than a panel. Then the tiny EDSR's own layers at
/// 12×12 (and its 24×24 output conv, whose 576-pixel weight-gradient chain
/// is cut inside output rows 10 and 21), one-pixel-wide and one-row
/// images, output rows narrower than any panel, `c_in` = 33, whose
/// tap-major runs end inside a weight-gradient panel, and an 8-channel
/// layer at the largest pack-free plane (32×32) and one pixel past it
/// (25×41, the GEMM engine).
#[test]
fn conv_equals_gemm_oracle_at_the_path_boundaries() {
    let s1 = |padding| Conv2dParams {
        stride: 1,
        padding,
        ..Default::default()
    };
    let s2 = |padding| Conv2dParams {
        stride: 2,
        padding,
        ..Default::default()
    };
    for (n, ch, hw, k, p, epi, nan_tap) in [
        (2, (40, 3), (7, 9), (3, 3), s1(1), 2, false),
        (1, (30, 4), (5, 7), (3, 3), s1(1), 1, true),
        (1, (30, 5), (5, 7), (3, 3), s1(1), 1, true),
        (3, (11, 2), (9, 7), (5, 5), s1(2), 0, true),
        (1, (11, 1), (9, 7), (5, 5), s1(0), 2, false),
        (2, (40, 3), (9, 7), (3, 3), s2(1), 2, false),
        (1, (3, 3), (11, 21), (1, 3), s1(2), 1, false),
        (1, (5, 4), (7, 5), (1, 1), s1(2), 0, true),
        (2, (64, 3), (5, 19), (3, 3), s1(1), 0, false),
        (1, (2, 64), (13, 11), (3, 3), s1(1), 2, false),
        (1, (7, 6), (13, 11), (3, 3), s2(0), 1, true),
        (1, (3, 8), (12, 12), (3, 3), s1(1), 2, false),
        (1, (8, 8), (12, 12), (3, 3), s1(1), 2, true),
        (2, (8, 32), (12, 12), (3, 3), s1(1), 1, false),
        (1, (64, 64), (12, 12), (3, 3), s1(1), 0, false),
        (1, (8, 3), (24, 24), (3, 3), s1(1), 1, false),
        (2, (5, 9), (7, 1), (3, 3), s1(1), 0, true),
        (1, (2, 8), (9, 1), (1, 1), s1(0), 2, false),
        (2, (4, 12), (6, 5), (3, 3), s1(1), 1, false),
        (1, (6, 10), (5, 3), (3, 3), s1(0), 0, false),
        (1, (33, 8), (9, 11), (3, 3), s1(1), 1, false),
        (2, (33, 6), (7, 9), (3, 3), s2(1), 0, false),
        (1, (30, 6), (34, 35), (3, 3), s1(1), 1, true),
        (1, (30, 3), (34, 35), (3, 3), s1(1), 2, false),
        (1, (8, 8), (32, 32), (3, 3), s1(1), 2, true),
        (1, (8, 8), (25, 41), (3, 3), s1(1), 1, true),
        (1, (3, 6), (1, 40), (3, 3), s1(1), 0, true),
        (2, (8, 6), (17, 19), (3, 3), s1(1), 1, false),
    ] {
        assert_conv_equals_gemm_oracle(n, ch, hw, k, p, epi, nan_tap, 99);
    }
}

/// `kc` is the one blueprint field that changes bits, and a tune cache may
/// carry any value: the pack-free kernels must cut their chains where the
/// engine would — the forward at any tap, the input gradient inside a
/// four- or nine-term product, the weight gradient at any pixel, inside an
/// output row of 23 as well as at one's start — also at depths that leave
/// a ragged last block (of the 54 taps, the 9 output channels, the 299
/// pixels). `c_out` = 4 and 9 cover a narrow and a two-block tile. (Extents
/// outside the random grid, so no other test of this binary resolves these
/// shapes.)
#[test]
fn conv_equals_gemm_oracle_under_installed_kc() {
    let (c_in, hw, kernel) = (6, (13, 23), (3, 3));
    let p = Conv2dParams::same(3);
    let (k, n) = (c_in * 9, hw.0 * hw.1);
    for c_out in [4, 9] {
        for (kc_fwd, kc_igrad, kc_wgrad) in [(7, 1, 5), (54, 2, 47), (20, 3, 23), (1, 4, 1)] {
            for (shape, kc) in [
                ((c_out, k, n), kc_fwd),
                ((k, c_out, n), kc_igrad),
                ((c_out, n, k), kc_wgrad),
            ] {
                let bp = Blueprint {
                    kc,
                    ..tune::heuristic(shape.0, shape.1, shape.2)
                };
                tune::install(shape.0, shape.1, shape.2, bp);
            }
            assert_conv_equals_gemm_oracle(2, (c_in, c_out), hw, kernel, p, 1, false, 5);
        }
    }
}

/// Every register-tile remainder of the pack-free kernels, forward and
/// backward: `c_out` 1–40 (blocks of 3, 4 and 8 with every remainder) over
/// `c_in` 1, 3, 8 and 33 (image-channel blocks for the input gradient;
/// kernel rows of 3, 9, 24 and 99 weight-gradient columns; `c_in` = 33 cuts
/// the forward's 297-tap chain at 256), cycling the epilogues and the NaN
/// weight tap.
#[test]
fn conv_equals_gemm_oracle_across_pack_free_tiles() {
    for c_in in [1, 3, 8, 33] {
        for c_out in 1..=40 {
            let (epi, nan_tap) = (c_out % 3, c_out % 4 == 1);
            let p = Conv2dParams::same(3);
            let seed = (c_in * 100 + c_out) as u64;
            assert_conv_equals_gemm_oracle(1, (c_in, c_out), (5, 7), (3, 3), p, epi, nan_tap, seed);
        }
    }
}

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// a + b == b + a, elementwise.
    #[test]
    fn add_commutes(data in tensor_strategy(24)) {
        let a = Tensor::from_vec([24], data.clone()).unwrap();
        let b = Tensor::from_vec([24], data.iter().rev().copied().collect::<Vec<_>>()).unwrap();
        let ab = elementwise::add(&a, &b).unwrap();
        let ba = elementwise::add(&b, &a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    /// (a - b) + b == a up to float rounding.
    #[test]
    fn sub_then_add_roundtrips(data in tensor_strategy(32)) {
        let a = Tensor::from_vec([32], data.clone()).unwrap();
        let b = Tensor::from_vec([32], data.iter().map(|x| x * 0.5 + 1.0).collect::<Vec<_>>()).unwrap();
        let back = elementwise::add(&elementwise::sub(&a, &b).unwrap(), &b).unwrap();
        prop_assert!(back.allclose(&a, 1e-4));
    }

    /// scale(a, s) sums to s * sum(a).
    #[test]
    fn scale_is_linear_in_sum(data in tensor_strategy(16), s in -4.0f32..4.0) {
        let a = Tensor::from_vec([16], data).unwrap();
        let scaled = elementwise::scale(&a, s);
        prop_assert!((reduce::sum(&scaled) - s * reduce::sum(&a)).abs() < 1e-2);
    }

    /// ReLU is idempotent and non-negative.
    #[test]
    fn relu_idempotent(data in tensor_strategy(40)) {
        let a = Tensor::from_vec([40], data).unwrap();
        let r1 = elementwise::relu(&a);
        let r2 = elementwise::relu(&r1);
        prop_assert_eq!(&r1, &r2);
        prop_assert!(r1.data().iter().all(|&x| x >= 0.0));
    }

    /// (Aᵀ)ᵀ == A for arbitrary rectangular matrices.
    #[test]
    fn transpose_involution(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
        let a = dlsr_tensor::init::uniform([rows, cols], -1.0, 1.0, seed);
        let tt = transpose(&transpose(&a).unwrap()).unwrap();
        prop_assert_eq!(tt, a);
    }

    /// Matmul with the identity matrix is the identity map.
    #[test]
    fn matmul_identity(n in 1usize..8, seed in 0u64..1000) {
        let a = dlsr_tensor::init::uniform([n, n], -1.0, 1.0, seed);
        let mut eye = Tensor::zeros([n, n]);
        for i in 0..n {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        let prod = matmul(&a, &eye).unwrap();
        prop_assert!(prod.allclose(&a, 1e-5));
    }

    /// The batch-parallel im2col+GEMM convolution agrees with the direct
    /// reference across the full hyper-parameter grid the stack trains
    /// with: stride ∈ {1,2}, padding ∈ {0,1,2}, kernel ∈ {1,3,5},
    /// batch ∈ {1,3,4}.
    #[test]
    fn conv_matches_reference(
        n_idx in 0usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        hw in 5usize..9,
        stride in 1usize..3,
        padding in 0usize..3,
        k_idx in 0usize..3,
        with_bias in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let n = [1usize, 3, 4][n_idx];
        let k = [1usize, 3, 5][k_idx];
        let p = Conv2dParams { stride, padding, ..Default::default() };
        let x = dlsr_tensor::init::uniform([n, cin, hw, hw], -1.0, 1.0, seed);
        let w = dlsr_tensor::init::uniform([cout, cin, k, k], -1.0, 1.0, seed + 1);
        let bias: Vec<f32> = (0..cout).map(|i| 0.1 * i as f32 - 0.2).collect();
        let b = with_bias.then_some(&bias[..]);
        let fast = conv2d(&x, &w, b, p).unwrap();
        let slow = conv2d_reference(&x, &w, b, p).unwrap();
        prop_assert!(fast.allclose(&slow, 1e-3), "diff {}", fast.max_abs_diff(&slow));
    }

    /// Every conv path is **bitwise** the pack-and-GEMM formulation (see
    /// [`assert_conv_equals_gemm_oracle`]) across channel counts (register
    /// tiles of the pack-free kernels with and without a remainder), square
    /// and flat kernels, paddings, strides (stride 2 takes the GEMM
    /// engine), odd extents and epilogues.
    #[test]
    fn conv_equals_gemm_oracle_bitwise(
        n in 1usize..3,
        c_in in 1usize..=40,
        c_out in 1usize..=12,
        k_idx in 0usize..4,
        padding in 0usize..=2,
        stride in 1usize..=2,
        h_half in 2usize..6,
        w_half in 2usize..11,
        epi in 0usize..3,
        nan_tap in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let kernel = [(1usize, 1usize), (3, 3), (5, 5), (1, 3)][k_idx];
        let p = Conv2dParams { stride, padding, ..Default::default() };
        let hw = (2 * h_half + 1, 2 * w_half + 1);
        assert_conv_equals_gemm_oracle(n, (c_in, c_out), hw, kernel, p, epi, nan_tap, seed);
    }

    /// All three backward gradients agree with the direct-loop adjoint
    /// reference over the same hyper-parameter grid as the forward test.
    #[test]
    fn conv_backward_matches_reference(
        n_idx in 0usize..3,
        cin in 1usize..3,
        cout in 1usize..3,
        hw in 5usize..8,
        stride in 1usize..3,
        padding in 0usize..3,
        k_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let n = [1usize, 3, 4][n_idx];
        let k = [1usize, 3, 5][k_idx];
        let p = Conv2dParams { stride, padding, ..Default::default() };
        let x = dlsr_tensor::init::uniform([n, cin, hw, hw], -1.0, 1.0, seed);
        let w = dlsr_tensor::init::uniform([cout, cin, k, k], -1.0, 1.0, seed + 1);
        let (ho, wo) = (p.out_extent(hw, k), p.out_extent(hw, k));
        let go = dlsr_tensor::init::uniform([n, cout, ho, wo], -1.0, 1.0, seed + 2);
        let (gi, gw, gb) = conv2d_backward(&x, &w, &go, p).unwrap();
        let (ri, rw, rb) = conv2d_backward_reference(&x, &w, &go, p).unwrap();
        prop_assert!(gi.allclose(&ri, 1e-3), "grad_input diff {}", gi.max_abs_diff(&ri));
        prop_assert!(gw.allclose(&rw, 1e-3), "grad_weight diff {}", gw.max_abs_diff(&rw));
        for (a, b) in gb.iter().zip(rb.iter()) {
            prop_assert!((a - b).abs() < 1e-3, "grad_bias {a} vs {b}");
        }
    }

    /// The SIMD microkernel path is **bitwise** identical to the scalar
    /// oracle for arbitrary shapes — including odd m/k/n tails that
    /// exercise the zero-padded edge panels. Only `kc` is shared between
    /// the two blueprints; kernel variant, tile geometry, `nc` and the
    /// parallel hint all differ, so this also pins the invariant that
    /// those fields never change result bits.
    #[test]
    fn gemm_simd_matches_scalar_bitwise(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let a = dlsr_tensor::init::uniform([m, k], -1.0, 1.0, seed);
        let b = dlsr_tensor::init::uniform([k, n], -1.0, 1.0, seed + 1);
        let bp = tune::heuristic(m, k, n);
        let fast = run_gemm(&bp, &a, BSrc::Rows(b.data()), m, k, n);
        let oracle = run_gemm(&scalar_oracle(bp.kc), &a, BSrc::Rows(b.data()), m, k, n);
        prop_assert_eq!(fast, oracle);
    }

    /// The virtual im2col packers (implicit-GEMM conv) are bitwise
    /// identical to a GEMM against the materialized column matrix, across
    /// the stride/padding/kernel grid: padded and strided views through the
    /// gather packer, unpadded stride-1 views through the run packer.
    #[test]
    fn implicit_im2col_matches_materialized_bitwise(
        c_in in 1usize..4,
        hw in 4usize..9,
        k_idx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        m in 1usize..6,
        seed in 0u64..1000,
    ) {
        let kk = [1usize, 3, 5][k_idx];
        let img = dlsr_tensor::init::uniform([c_in, hw, hw], -1.0, 1.0, seed);
        let view = Im2colView::new(img.data(), (c_in, hw, hw), (kk, kk), stride, padding);
        let (kdim, n) = (view.rows(), view.cols());
        prop_assume!(n > 0);
        let p = Conv2dParams { stride, padding, ..Default::default() };
        let col = im2col(img.data(), (c_in, hw, hw), (kk, kk), p);
        let a = dlsr_tensor::init::uniform([m, kdim], -1.0, 1.0, seed + 1);
        let bp = tune::heuristic(m, kdim, n);
        let implicit = run_gemm(&bp, &a, BSrc::Im2col(view), m, kdim, n);
        let materialized = run_gemm(&bp, &a, BSrc::Rows(&col), m, kdim, n);
        prop_assert_eq!(implicit, materialized);
    }

    /// pixel_unshuffle inverts pixel_shuffle for any compatible shape.
    #[test]
    fn shuffle_roundtrip(c in 1usize..4, hw in 1usize..5, r in 2usize..4, seed in 0u64..1000) {
        let x = dlsr_tensor::init::uniform([1, c * r * r, hw, hw], -1.0, 1.0, seed);
        let y = pixel_shuffle(&x, r).unwrap();
        prop_assert_eq!(pixel_unshuffle(&y, r).unwrap(), x);
    }

    /// Bicubic resize preserves constant images exactly (partition of unity).
    #[test]
    fn bicubic_preserves_constants(v in -2.0f32..2.0, hw in 4usize..16, out in 2usize..24) {
        let x = Tensor::full([1, 1, hw, hw], v);
        let y = resize::bicubic_resize(&x, out, out).unwrap();
        prop_assert!(y.data().iter().all(|&p| (p - v).abs() < 1e-4));
    }

    /// Reductions: mean * n == sum; min <= mean <= max.
    #[test]
    fn reduction_relations(data in tensor_strategy(20)) {
        let t = Tensor::from_vec([20], data).unwrap();
        prop_assert!((reduce::mean(&t) * 20.0 - reduce::sum(&t)).abs() < 1e-3);
        prop_assert!(reduce::min(&t) <= reduce::mean(&t) + 1e-6);
        prop_assert!(reduce::mean(&t) <= reduce::max(&t) + 1e-6);
    }

    /// Conv linearity: conv(a + b) == conv(a) + conv(b).
    #[test]
    fn conv_is_linear(seed in 0u64..1000) {
        let p = Conv2dParams::same(3);
        let w = dlsr_tensor::init::uniform([2, 2, 3, 3], -1.0, 1.0, seed);
        let a = dlsr_tensor::init::uniform([1, 2, 5, 5], -1.0, 1.0, seed + 1);
        let b = dlsr_tensor::init::uniform([1, 2, 5, 5], -1.0, 1.0, seed + 2);
        let lhs = conv2d(&elementwise::add(&a, &b).unwrap(), &w, None, p).unwrap();
        let rhs = elementwise::add(
            &conv2d(&a, &w, None, p).unwrap(),
            &conv2d(&b, &w, None, p).unwrap(),
        )
        .unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }
}
