//! 2-D convolution as **implicit GEMM** with full forward/backward kernels.
//!
//! Weight layout is `[C_out, C_in, K_h, K_w]`; activations are NCHW. Padding
//! is symmetric zero-padding. Naive direct implementations are kept as the
//! test oracles ([`conv2d_reference`], [`conv2d_backward_reference`]).
//!
//! # Execution model
//!
//! Both directions resolve their GEMM shapes through the
//! [`crate::tune`] selector and run the blueprint engine in
//! [`crate::matmul`]:
//! 1. The operand that is constant across the batch (the weight matrix) is
//!    packed into GEMM panel layout **once per call**.
//! 2. The batch dimension is the parallel axis: each image's GEMMs run on
//!    one rayon worker, writing to that image's disjoint slice of the
//!    output. All per-image temporaries come from the [`crate::scratch`]
//!    pool, so the steady-state loop does not allocate.
//! 3. The forward and weight-gradient GEMMs read the image through a
//!    *virtual im2col view* ([`matmul::BSrc::Im2col`] /
//!    [`matmul::BSrc::TapMajor`]): the column matrix is never materialized —
//!    the packing routines copy patch runs out of one zero-bordered copy of
//!    the image (NCHW for a stride-1 forward, channels-last with tap-major
//!    columns for the weight gradient), which removes a
//!    `C_in·K²·H_out·W_out` scratch buffer and a full write+read pass per
//!    image per direction; the copy holds every window, so no run is
//!    clamped. The weight gradient comes out tap-major and the batch
//!    reduction puts it back in `(c, ky, kx)` order. The input gradient
//!    materializes a column matrix, because there it is the GEMM *output*
//!    that `col2im` adds back onto the image, run by run.
//! 4. Reductions that cross the parallel axis (weight/bias gradients) are
//!    accumulated per image into disjoint scratch, then summed sequentially
//!    in ascending image order — results are bitwise independent of the
//!    thread count (see the module docs of [`crate::matmul`] for the GEMM
//!    half of that contract).
//!
//! A stride-1 f32 layer whose per-image work cannot pay back packing — at
//! most four output channels (EDSR's RGB output conv) or an output plane
//! of at most `DIRECT_MAX_PLANE` (1024) pixels (every layer of the tiny EDSR)
//! — computes all three of its products pack-free: no packed operand, no
//! column matrix, no `col2im`. Each kernel reads a zero-bordered copy of
//! its input at the copy's own pitch, so output pixel `(y, x)` is position
//! `y·pitch + x` of a *wide* plane and every tap is one flat run over the
//! whole plane; a register tile of channels × positions walks the taps and
//! the wide result is compacted into the output (through the epilogue, in
//! the forward). The forward reads the image padded (`direct_forward`),
//! the input gradient `grad_out` shifted into a border
//! (`direct_input_grad`), and the weight gradient the channels-last copy
//! the engine's tap-major packer reads, one kernel-row run per pixel
//! (`direct_weight_grad`). Their inner loop is
//! `kernels::fma_chain` (an AVX-512 body and its `f32::mul_add` twin),
//! and each performs, per element, exactly the `mul_add` chain and
//! `kc`-boundary adds of the engine under the selector's blueprint, so
//! which path runs — a pure function of `(c_out, h_out·w_out, stride,
//! bf16)` — cannot change a bit (`tests/properties.rs` holds every path to
//! one GEMM oracle).
//!
//! The forward GEMM applies bias and activation in its epilogue
//! ([`conv2d_fused`]), so a conv + ReLU layer makes a single pass over the
//! output instead of three.
//!
//! A call with [`Conv2dParams::bf16`] set stores its packed panels in bf16
//! and keeps accumulation f32 — see `docs/KERNELS.md` for the (non-bitwise)
//! accuracy contract. Precision is a per-call value, so an f32 and a bf16
//! conv may run at once on different threads.

use rayon::prelude::*;

use crate::kernels::{self, Land, Tile};
use crate::matmul::{self, BSrc, Epilogue, Im2colView, TapMajorView};
use crate::scratch;
use crate::tune::{self, Blueprint};
use crate::{Result, Tensor, TensorError};

/// Activation fused into the forward GEMM epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Act {
    /// No activation.
    #[default]
    Identity,
    /// `max(x, 0)`.
    Relu,
}

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub padding: usize,
    /// Store packed GEMM panels in bf16 (accumulation stays f32). Off by
    /// default; not bitwise-comparable to the f32 path.
    pub bf16: bool,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
            bf16: false,
        }
    }
}

impl Conv2dParams {
    /// "Same" convolution for odd kernel size `k` at stride 1.
    pub fn same(k: usize) -> Self {
        Conv2dParams {
            padding: k / 2,
            ..Conv2dParams::default()
        }
    }

    /// Output spatial extent for an input extent. Only meaningful where
    /// [`Conv2dParams::output_extents`] accepts the geometry (it panics on a
    /// zero stride).
    pub fn out_extent(&self, input: usize, kernel: usize) -> usize {
        (input + 2 * self.padding).saturating_sub(kernel) / self.stride + 1
    }

    /// Output extents `(h_out, w_out)` of an `h×w` input under a `kh×kw`
    /// kernel, or [`TensorError::InvalidArgument`] when the geometry has no
    /// window: a zero stride, or a kernel larger than the padded input.
    pub fn output_extents(
        &self,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
    ) -> Result<(usize, usize)> {
        if self.stride == 0 || kh == 0 || kw == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "conv stride {} and {kh}x{kw} kernel must be at least 1",
                self.stride
            )));
        }
        let (ph, pw) = (h + 2 * self.padding, w + 2 * self.padding);
        if kh > ph || kw > pw {
            return Err(TensorError::InvalidArgument(format!(
                "{kh}x{kw} conv kernel does not fit the {h}x{w} input padded by {}",
                self.padding
            )));
        }
        Ok((self.out_extent(h, kh), self.out_extent(w, kw)))
    }
}

fn weight_dims(weight: &Tensor) -> Result<(usize, usize, usize, usize)> {
    weight.shape().as_nchw()
}

/// A left operand packed once and reused across the batch — f32 panels, or
/// bf16 panels for a [`Conv2dParams::bf16`] call. One enum so every GEMM
/// call site stays precision-agnostic.
enum PackedA {
    F32(scratch::ScratchBuf),
    Bf16(scratch::ScratchBufU16),
}

impl PackedA {
    /// Pack `a[m×k]` (or `Aᵀ` stored `[k×m]` when `trans`) under `bp`, in
    /// bf16 when `bf16`.
    fn pack(bp: &Blueprint, a: &[f32], m: usize, k: usize, trans: bool, bf16: bool) -> PackedA {
        if bf16 {
            let mut buf = scratch::take_u16(matmul::packed_a_len(bp, m, k));
            matmul::pack_a_bf16(bp, a, m, k, trans, &mut buf);
            return PackedA::Bf16(buf);
        }
        let mut buf = scratch::take(matmul::packed_a_len(bp, m, k));
        if trans {
            matmul::pack_a_transposed(bp, a, m, k, &mut buf);
        } else {
            matmul::pack_a(bp, a, m, k, &mut buf);
        }
        PackedA::F32(buf)
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        bp: &Blueprint,
        bsrc: BSrc<'_>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        epi: Epilogue<'_>,
        force_seq: bool,
    ) {
        match self {
            PackedA::F32(buf) => matmul::gemm(bp, buf, bsrc, c, m, k, n, epi, force_seq),
            PackedA::Bf16(buf) => matmul::gemm_bf16(bp, buf, bsrc, c, m, k, n, epi, force_seq),
        }
    }
}

/// A layer call's weights, prepared once for every image: packed GEMM
/// panels, or — for a pack-free layer ([`is_direct`]) — a transposed copy
/// whose values one register tile broadcasts lie side by side.
enum Weights {
    Packed(PackedA),
    Direct(scratch::ScratchBuf),
}

impl Weights {
    /// `Packed(pack())` for an engine layer, else `weight` (`[rows, cols]`)
    /// transposed.
    fn prepare(
        direct: bool,
        weight: &[f32],
        (rows, cols): (usize, usize),
        pack: impl FnOnce() -> PackedA,
    ) -> Weights {
        if !direct {
            return Weights::Packed(pack());
        }
        let mut wt = scratch::take(rows * cols);
        transpose_into(weight, (rows, cols), &mut wt);
        Weights::Direct(wt)
    }
}

/// Accumulate a column matrix back into an image (the adjoint of im2col).
///
/// Walks `(c, ky, kx, oy, ox)` in ascending order — the order is part of
/// the digest contract, every image element sums its taps in it. The `ox`
/// range that lands inside the image is clamped once per `(ky, kx)`, so the
/// inner loop is a branch-free add of one contiguous column-matrix run onto
/// one image row.
#[cfg_attr(any(), dlsr::hot)]
fn col2im(
    col: &[f32],
    (c_in, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    p: Conv2dParams,
    img: &mut [f32],
) {
    let (s, pad) = (p.stride, p.padding);
    let h_out = p.out_extent(h, kh);
    let w_out = p.out_extent(w, kw);
    let hw_out = h_out * w_out;
    for c in 0..c_in {
        let plane = &mut img[c * h * w..(c + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((c * kh + ky) * kw + kx) * hw_out;
                // ox with 0 <= ox·s + kx − pad < w
                let ox_lo = pad.saturating_sub(kx).div_ceil(s);
                let ox_hi = w_out.min((w + pad).saturating_sub(kx).div_ceil(s));
                if ox_lo >= ox_hi {
                    continue;
                }
                let ix_lo = ox_lo * s + kx - pad;
                for oy in 0..h_out {
                    let iy = oy * s + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let src = &col[row + oy * w_out + ox_lo..row + oy * w_out + ox_hi];
                    let dst = &mut plane[(iy - pad) * w + ix_lo..];
                    if s == 1 {
                        for (d, &v) in dst[..src.len()].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(s).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Widest `c_out` that takes the pack-free kernels at any plane size:
/// packing an image for the GEMM engine costs the same for 3 output rows
/// as for 64, so it is never amortized there.
const DIRECT_MAX_C_OUT: usize = 4;

/// Largest output plane (`h_out·w_out`) that takes the pack-free kernels
/// at any `c_out`: below it, packing an image costs more than the
/// register tiles save (see `docs/KERNELS.md` for the timings).
const DIRECT_MAX_PLANE: usize = 1024;

/// Register tiles `(channels, lanes)` of one pack-free kernel: `wide` where
/// [`kernels::fma_chain`] runs on AVX-512 (8 channels × 2 zmm, 16 of the
/// 32 registers), `narrow` elsewhere — sized to stay inside the 16 AVX2
/// registers with the operands they read, and with 8 or 9 independent
/// accumulator vectors to cover the FMA latency. Channels are output
/// channels in the forward and the weight gradient, image channels in the
/// input gradient; lanes are positions, or weight-gradient columns (a
/// kernel row of `c_in` = 8 is 24 of them). The tile changes which
/// elements share registers, never an element's chain.
struct Tiles {
    wide: (usize, usize),
    narrow: (usize, usize),
}

impl Tiles {
    /// The tile this process runs.
    fn get(&self) -> (usize, usize) {
        if kernels::wide_tiles() {
            self.wide
        } else {
            self.narrow
        }
    }
}

const FWD_TILES: Tiles = Tiles {
    wide: (8, 32),
    narrow: (4, 16),
};
const IGRAD_TILES: Tiles = Tiles {
    wide: (8, 32),
    narrow: (4, 16),
};
const WGRAD_TILES: Tiles = Tiles {
    wide: (8, 32),
    narrow: (3, 24),
};

/// Slack past a copy the pack-free kernels read, so the last tile of a
/// plane reads whole: at least every tile's lane count.
const SLACK: usize = 32;

/// `gemm.variant.*` counter the pack-free kernels count their
/// tile-equivalents under.
const DIRECT_COUNTER: &str = "gemm.variant.direct";

/// Whether a layer computes all three of its products pack-free
/// ([`direct_forward`], [`direct_input_grad`], [`direct_weight_grad`])
/// instead of through the GEMM engine: a pure function of the layer's shape
/// and storage precision (bf16 panels exist only in the engine).
fn is_direct(c_out: usize, hw_out: usize, p: Conv2dParams) -> bool {
    !p.bf16 && p.stride == 1 && (c_out <= DIRECT_MAX_C_OUT || hw_out <= DIRECT_MAX_PLANE)
}

/// Copy the planes of `src` (`[c, h, w]`) into the `[c, ph, pw]` planes at
/// the front of `dst`, shifted `(top, left)` rows and columns (a negative
/// shift crops), and zero the rest of `dst`: border, slack past the last
/// plane and all. Each element is written once — between two copied rows
/// lies one contiguous stretch of border, zeroed by one `fill`.
#[cfg_attr(any(), dlsr::hot)]
fn embed(
    src: &[f32],
    (c, h, w): (usize, usize, usize),
    (top, left): (isize, isize),
    (ph, pw): (usize, usize),
    dst: &mut [f32],
) {
    // source indices i with 0 <= i + shift < extent
    let clip = |shift: isize, n: usize, extent: usize| {
        let lo = (-shift).clamp(0, n as isize) as usize;
        let hi = (extent as isize - shift).clamp(lo as isize, n as isize) as usize;
        (lo, hi)
    };
    let (y_lo, y_hi) = clip(top, h, ph);
    let (x_lo, x_hi) = clip(left, w, pw);
    let mut gap = 0;
    if x_lo < x_hi {
        let len = x_hi - x_lo;
        for ci in 0..c {
            for y in y_lo..y_hi {
                let at =
                    (ci * ph + (y as isize + top) as usize) * pw + (x_lo as isize + left) as usize;
                dst[gap..at].fill(0.0);
                dst[at..at + len].copy_from_slice(&src[(ci * h + y) * w + x_lo..][..len]);
                gap = at + len;
            }
        }
    }
    dst[gap..].fill(0.0);
}

/// Channels-last twin of [`embed`] for a centred copy: `img` (`[c_in, h,
/// w]`) into the `[ph, pw, c_in]` buffer at the front of `xt`, `pad`
/// pixels in, the rest of `xt` zeroed — the copy a
/// [`matmul::TapMajorView`] and [`direct_weight_grad`] read.
#[cfg_attr(any(), dlsr::hot)]
fn pad_image_channels_last(
    img: &[f32],
    (c_in, h, w): (usize, usize, usize),
    pad: usize,
    pw: usize,
    xt: &mut [f32],
) {
    let mut gap = 0;
    for y in 0..h {
        let dst = ((y + pad) * pw + pad) * c_in;
        xt[gap..dst].fill(0.0);
        let interior = &mut xt[dst..dst + w * c_in];
        for c in 0..c_in {
            let src = &img[(c * h + y) * w..(c * h + y + 1) * w];
            for (d, &v) in interior[c..].iter_mut().step_by(c_in).zip(src) {
                *d = v;
            }
        }
        gap = dst + w * c_in;
    }
    xt[gap..].fill(0.0);
}

/// Add a tap-major `[c_out, (ky, kx, c)]` weight gradient onto a
/// channel-major `[c_out, (c, ky, kx)]` one: the weight gradient's columns
/// follow the channels-last copy it reads ([`matmul::TapMajorView`],
/// [`direct_weight_grad`]), the weight tensor's do not. One add per
/// element, so summing per-image gradients through it in ascending image
/// order is the plain elementwise reduction.
#[cfg_attr(any(), dlsr::hot)]
fn add_tap_major(src: &[f32], (c_in, kh, kw): (usize, usize, usize), dst: &mut [f32]) {
    let (k, khw) = (c_in * kh * kw, kh * kw);
    for (d, s) in dst.chunks_exact_mut(k).zip(src.chunks_exact(k)) {
        for (tap, run) in s.chunks_exact(c_in).enumerate() {
            for (c, &v) in run.iter().enumerate() {
                d[c * khw + tap] += v;
            }
        }
    }
}

/// Store (`first`) or add the first `lanes` lanes of each channel of a
/// tile into `dst` at `at`, channel `cb` at `cb·pitch` — the engine's
/// store at the first `kc` boundary and add at every later one.
#[inline(always)]
fn flush_tile<const CB: usize, const L: usize>(
    tile: &Tile<CB, L>,
    dst: &mut [f32],
    (at, pitch, lanes): (usize, usize, usize),
    first: bool,
) {
    for (cb, t) in tile.iter().enumerate() {
        let d = &mut dst[cb * pitch + at..][..lanes];
        if first {
            d.copy_from_slice(&t[..lanes]);
        } else {
            for (d, &t) in d.iter_mut().zip(t) {
                *d += t;
            }
        }
    }
}

/// `src` (`[rows, cols]`) transposed into the front of `dst`
/// (`[cols, rows]`): the pack-free kernels read the values they broadcast
/// across a tile — weights, `grad_out` — as one contiguous run per step.
#[cfg_attr(any(), dlsr::hot)]
fn transpose_into(src: &[f32], (rows, cols): (usize, usize), dst: &mut [f32]) {
    for (r, row) in src[..rows * cols].chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Taps `t0..t1` of a `c_in × kh × kw` window stack in ascending
/// `(c, ky, kx)` order, as `(t, (c·ph + ky)·pw + kx)`: each tap with where
/// it lies, for output position 0, in a `[c_in, ph, pw]` copy.
struct Taps {
    t: usize,
    t1: usize,
    row: usize,
    ky: usize,
    kx: usize,
    /// `(kh, kw, ph, pw)`
    dims: (usize, usize, usize, usize),
}

impl Taps {
    fn new(t0: usize, t1: usize, (kh, kw, ph, pw): (usize, usize, usize, usize)) -> Taps {
        let (c, ky, kx) = (t0 / (kh * kw), t0 / kw % kh, t0 % kw);
        let row = c * ph + ky;
        Taps {
            t: t0,
            t1,
            row,
            ky,
            kx,
            dims: (kh, kw, ph, pw),
        }
    }
}

impl Iterator for Taps {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        let (kh, kw, ph, pw) = self.dims;
        if self.t == self.t1 {
            return None;
        }
        let item = (self.t, self.row * pw + self.kx);
        self.t += 1;
        self.kx += 1;
        if self.kx == kw {
            (self.kx, self.ky, self.row) = (0, self.ky + 1, self.row + 1);
            if self.ky == kh {
                (self.ky, self.row) = (0, self.row + ph - kh);
            }
        }
        Some(item)
    }
}

/// Stride-1 forward of output channels `co0..co0 + CB`, pack-free. Output
/// pixel `(oy, ox)` is position `q = oy·pw + ox` of a *wide* plane at the
/// pitch of the zero-bordered copy `padded` (`[c_in, ph, pw]`, then
/// slack), so each tap `(c, ky, kx)` is one flat run,
/// `padded[c·ph·pw + ky·pw + kx + q]`, for every position at once. A
/// `CB × L` register tile walks the taps per run of `L` positions, reading
/// the weights from `wt` (`[k, c_out]`); the positions past `w_out` in
/// each wide row are dropped when `wide` is compacted into `out` through
/// the epilogue.
///
/// Per output element this is the engine's chain (see the determinism
/// contract in [`crate::matmul`]): one `mul_add` per tap in ascending
/// `(c, ky, kx)` from a zero accumulator, the accumulator stored at the
/// first `kc` boundary and added at every later one, padding taps
/// multiplied as zeros rather than skipped, then the epilogue.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn direct_forward<const CB: usize, const L: usize>(
    co0: usize,
    padded: &[f32],
    (c_in, ph, pw): (usize, usize, usize),
    (kh, kw): (usize, usize),
    (wt, c_out): (&[f32], usize),
    kc: usize,
    (h_out, w_out): (usize, usize),
    epi: Epilogue<'_>,
    wide: &mut [f32],
    out: &mut [f32],
) {
    let k = c_in * kh * kw;
    let nq = h_out * pw;
    let pitch = nq.next_multiple_of(L);
    let g = &wt[co0..];
    for q0 in (0..nq).step_by(L) {
        // one chain per `kc` block of taps (one empty block when k = 0)
        for t0 in (0..k.max(1)).step_by(kc) {
            let land = if t0 == 0 { Land::Store } else { Land::Add };
            let taps = Taps::new(t0, k.min(t0 + kc), (kh, kw, ph, pw));
            let steps = taps.map(|(t, at)| (t * c_out, at));
            kernels::fma_chain::<CB, L>(wide, (q0, pitch), land, g, &padded[q0..], steps);
        }
    }
    let hw_out = h_out * w_out;
    for cb in 0..CB {
        for oy in 0..h_out {
            let dst = &mut out[(co0 + cb) * hw_out + oy * w_out..][..w_out];
            dst.copy_from_slice(&wide[cb * pitch + oy * pw..][..w_out]);
            epi.finish_row(co0 + cb, dst);
        }
    }
}

/// Stride-1 input gradient of image channels `c0..c0 + CB`, pack-free:
/// `Wᵀ · grad_out` and `col2im` in one pass, with neither the column
/// matrix nor a packed operand. Image pixel `(iy, ix)` is position
/// `q = iy·gpw + ix` of a wide plane at the pitch of `gpad`, a copy of
/// `grad_out` shifted `kh − 1 − pad` rows and `kw − 1 − pad` columns into
/// zeros (`[c_out, h + kh − 1, gpw = w + kw − 1]`, then slack), so tap
/// `(ky, kx)` reads output pixel `(iy + pad − ky, ix + pad − kx)` for every
/// position at once from the flat run at `(kh − 1 − ky)·gpw + kw − 1 − kx`.
/// The weights come from `wt` (`[kh·kw, c_out, c_in]`).
///
/// Same bits as the engine and [`col2im`]: per tap, the column-matrix
/// element is the `mul_add` chain over ascending `co` from a zero
/// accumulator, stored at the first `kc` boundary and added at every later
/// one; the taps are added to the image element in `col2im`'s
/// `(c, ky, kx)` order from zero. A tap whose output pixel lies outside
/// the plane is not added (`col2im` has no column for it). With finite
/// weights such a tap reads only bordering zeros, its chain is exactly
/// `+0`, and adding `+0` leaves a sum that started at `+0` unchanged (a
/// round-to-nearest sum from `+0` is never `−0`), so the unmasked loop adds
/// it; when `masked` (a weight is not finite, and `0·NaN` would poison
/// pixels the engine leaves alone) each lane tests its tap instead.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn direct_input_grad<const CB: usize, const L: usize>(
    c0: usize,
    gpad: &[f32],
    (c_out, gh, gpw): (usize, usize, usize),
    (kh, kw): (usize, usize),
    wt: &[f32],
    kc: usize,
    (c_in, h, w): (usize, usize, usize),
    (pad, h_out, w_out, masked): (usize, usize, usize, bool),
    wide: &mut [f32],
    grad_in: &mut [f32],
) {
    let nq = h * gpw;
    let pitch = nq.next_multiple_of(L);
    let gplane = gh * gpw;
    for q0 in (0..nq).step_by(L) {
        // the image elements' sums live in `wide`, from +0
        for cb in 0..CB {
            wide[cb * pitch + q0..][..L].fill(0.0);
        }
        for ky in 0..kh {
            for kx in 0..kw {
                // tap (c0 + cb, ky, kx) of output channel co
                let g = &wt[(ky * kw + kx) * c_out * c_in + c0..];
                let run = &gpad[q0 + (kh - 1 - ky) * gpw + (kw - 1 - kx)..];
                let steps = |cos: std::ops::Range<usize>| cos.map(|co| (co * c_in, co * gplane));
                if !masked && c_out <= kc {
                    // one chain, added straight onto the sums
                    kernels::fma_chain::<CB, L>(
                        wide,
                        (q0, pitch),
                        Land::Add,
                        g,
                        run,
                        steps(0..c_out),
                    );
                    continue;
                }
                let mut col: Tile<CB, L> = [[0.0; L]; CB];
                for b0 in (0..c_out).step_by(kc) {
                    let mut acc: Tile<CB, L> = [[0.0; L]; CB];
                    let cos = b0..c_out.min(b0 + kc);
                    let tile = acc.as_flattened_mut();
                    kernels::fma_chain::<CB, L>(tile, (0, L), Land::Store, g, run, steps(cos));
                    if b0 == 0 {
                        col = acc;
                    } else {
                        for (c, a) in col.iter_mut().zip(&acc) {
                            for (c, &a) in c.iter_mut().zip(a) {
                                *c += a;
                            }
                        }
                    }
                }
                if masked {
                    for (l, q) in (q0..q0 + L).enumerate() {
                        let (iy, ix) = (q / gpw + pad, q % gpw + pad);
                        if !((ky..ky + h_out).contains(&iy) && (kx..kx + w_out).contains(&ix)) {
                            col.iter_mut().for_each(|c| c[l] = 0.0);
                        }
                    }
                }
                flush_tile(&col, wide, (q0, pitch, L), false);
            }
        }
    }
    for cb in 0..CB {
        for iy in 0..h {
            grad_in[((c0 + cb) * h + iy) * w..][..w]
                .copy_from_slice(&wide[cb * pitch + iy * gpw..][..w]);
        }
    }
}

/// Stride-1 weight gradient of output channels `co0..co0 + CB`, pack-free:
/// the GEMM `grad_out · colᵀ` with `colᵀ` read straight out of the
/// channels-last copy `xt` (`[ph, pw, c_in]`, then slack) and `grad_out`
/// from `got` (`[hw, c_out]`). Its columns are tap-major, `(ky, kx, c)`,
/// so the `kw·c_in` columns of one kernel row are one contiguous run of
/// `xt` per pixel; a `CB × L` register tile of that run takes the pixels in
/// ascending order and is stored into `gw` (`[c_out, (ky, kx, c)]`, the
/// layout [`add_tap_major`] reduces) at the first `kc` boundary of the
/// pixel chain and added at every later one — the engine's chain, padding
/// pixels multiplied as zeros like the packed copy does.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn direct_weight_grad<const CB: usize, const L: usize>(
    co0: usize,
    xt: &[f32],
    (c_in, pw): (usize, usize),
    (kh, kw): (usize, usize),
    (got, c_out): (&[f32], usize),
    kc: usize,
    (h_out, w_out): (usize, usize),
    gw: &mut [f32],
) {
    let (hw, row) = (h_out * w_out, kw * c_in);
    let k = kh * row;
    let g = &got[co0..];
    let gw = &mut gw[co0 * k..];
    for p0 in (0..hw).step_by(kc) {
        let p1 = hw.min(p0 + kc);
        for ky in 0..kh {
            for j0 in (0..row).step_by(L) {
                // the chain's pixels, each with where its kernel row starts
                let (oy, ox) = (p0 / w_out, p0 % w_out);
                let first = ((oy + ky) * pw + ox) * c_in;
                let px = (p0..p1).scan((first, ox), |(at, ox), p| {
                    let step = (p * c_out, *at);
                    (*at, *ox) = (*at + c_in, *ox + 1);
                    if *ox == w_out {
                        (*at, *ox) = (*at + (pw - w_out) * c_in, 0);
                    }
                    Some(step)
                });
                let mut acc: Tile<CB, L> = [[0.0; L]; CB];
                let tile = acc.as_flattened_mut();
                kernels::fma_chain::<CB, L>(tile, (0, L), Land::Store, g, &xt[j0..], px);
                flush_tile(&acc, gw, (ky * row + j0, k, L.min(row - j0)), p0 == 0);
            }
        }
    }
}

/// Run `$f::<CB, L>(b0, $args)` over channels `0..$n` in blocks of this
/// process's tile from `$tiles` ([`Tiles::get`]), the last block `$n mod
/// CB` wide.
macro_rules! for_blocks {
    ($tiles:expr, $n:expr, $f:ident($($arg:expr),* $(,)?)) => {
        if kernels::wide_tiles() {
            for_blocks!(@run { $tiles.wide.1 }, $tiles.wide.0, $n, $f($($arg),*))
        } else {
            for_blocks!(@run { $tiles.narrow.1 }, $tiles.narrow.0, $n, $f($($arg),*))
        }
    };
    (@run $l:tt, $cb:expr, $n:expr, $f:ident($($arg:expr),*)) => {
        for b0 in (0..$n).step_by($cb) {
            match ($n - b0).min($cb) {
                8 => $f::<8, $l>(b0, $($arg),*),
                7 => $f::<7, $l>(b0, $($arg),*),
                6 => $f::<6, $l>(b0, $($arg),*),
                5 => $f::<5, $l>(b0, $($arg),*),
                4 => $f::<4, $l>(b0, $($arg),*),
                3 => $f::<3, $l>(b0, $($arg),*),
                2 => $f::<2, $l>(b0, $($arg),*),
                _ => $f::<1, $l>(b0, $($arg),*),
            }
        }
    };
}

/// Forward convolution: `out[n, co, :, :] = Σ_ci weight[co, ci] ⋆ input[n, ci] + bias[co]`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    p: Conv2dParams,
) -> Result<Tensor> {
    conv2d_fused(input, weight, bias, Act::Identity, p)
}

/// [`conv2d`] with the activation fused into the GEMM epilogue.
pub fn conv2d_fused(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    act: Act,
    p: Conv2dParams,
) -> Result<Tensor> {
    let (n, _, h, w) = input.shape().as_nchw()?;
    let (c_out, _, kh, kw) = weight_dims(weight)?;
    let (h_out, w_out) = p.output_extents((h, w), (kh, kw))?;
    let mut out = Tensor::zeros([n, c_out, h_out, w_out]);
    conv2d_fused_into(input, weight, bias, act, p, &mut out)?;
    Ok(out)
}

/// [`conv2d_fused`] writing into a caller-owned output tensor, so the
/// training loop's steady state performs no heap allocation at all (the
/// kernel temporaries already come from the scratch pool).
pub fn conv2d_fused_into(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    act: Act,
    p: Conv2dParams,
    out: &mut Tensor,
) -> Result<()> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, c_in_w, kh, kw) = weight_dims(weight)?;
    if c_in != c_in_w {
        return Err(TensorError::ShapeMismatch {
            expected: vec![c_in],
            got: vec![c_in_w],
            context: "conv2d (input channels vs weight channels)",
        });
    }
    if let Some(b) = bias {
        if b.len() != c_out {
            return Err(TensorError::InvalidArgument(format!(
                "bias length {} does not match output channels {}",
                b.len(),
                c_out
            )));
        }
    }
    let (h_out, w_out) = p.output_extents((h, w), (kh, kw))?;
    let hw_out = h_out * w_out;
    let k = c_in * kh * kw;
    if out.shape().dims() != [n, c_out, h_out, w_out] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, c_out, h_out, w_out],
            got: out.shape().dims().to_vec(),
            context: "conv2d_fused_into (output shape)",
        });
    }

    // Resolve the blueprint once per layer call; every image shares it.
    let bp = tune::select(c_out, k, hw_out);
    let epi = match (bias, act) {
        (None, Act::Identity) => Epilogue::None,
        (None, Act::Relu) => Epilogue::Relu,
        (Some(b), Act::Identity) => Epilogue::Bias(b),
        (Some(b), Act::Relu) => Epilogue::BiasRelu(b),
    };

    let chw_in = c_in * h * w;
    let batch_par = n > 1 && rayon::current_num_threads() > 1;
    // Rayon workers have no trace lane of their own: they record into the
    // lane of the rank that owns this layer call.
    let lane = dlsr_trace::current();
    let variant = bp.kernel.executes_as().as_str();
    // Pack the weight matrix once; every image multiplies against it —
    // unless the layer is too small for packing to pay (`is_direct`): then
    // it is read tap-major, `[k, c_out]`.
    let weights = Weights::prepare(
        is_direct(c_out, hw_out, p),
        weight.data(),
        (c_out, k),
        || PackedA::pack(&bp, weight.data(), c_out, k, false, p.bf16),
    );
    let image = |i: usize, dst: &mut [f32]| {
        let _lane = lane.as_ref().map(dlsr_trace::Lane::enter);
        let img = &input.data()[i * chw_in..(i + 1) * chw_in];
        let wpack = match &weights {
            Weights::Packed(wpack) => wpack,
            Weights::Direct(wt) => {
                let _span = dlsr_trace::span_with(
                    || format!("conv direct {c_out}x{k}x{hw_out}"),
                    dlsr_trace::cat::GEMM,
                );
                dlsr_trace::counter_add(DIRECT_COUNTER, matmul::tile_count(&bp, c_out, k, hw_out));
                let (ph, pw) = (h + 2 * p.padding, w + 2 * p.padding);
                let mut padded = scratch::take(c_in * ph * pw + SLACK + kw - 1);
                let pad = p.padding as isize;
                embed(img, (c_in, h, w), (pad, pad), (ph, pw), &mut padded);
                let (cb, l) = FWD_TILES.get();
                let mut wide = scratch::take(cb * (h_out * pw).next_multiple_of(l));
                for_blocks!(
                    FWD_TILES,
                    c_out,
                    direct_forward(
                        &padded,
                        (c_in, ph, pw),
                        (kh, kw),
                        (wt, c_out),
                        bp.kc,
                        (h_out, w_out),
                        epi,
                        &mut wide,
                        dst,
                    )
                );
                return;
            }
        };
        // Implicit GEMM: the im2col matrix is a view the packer reads
        // through, never a buffer. At stride 1 that view is over the image
        // itself or, when the layer pads, over a zero-bordered copy of it,
        // so every window row is one contiguous run.
        let padded;
        let view = if p.stride == 1 && p.padding > 0 {
            let (ph, pw) = (h + 2 * p.padding, w + 2 * p.padding);
            padded = {
                let mut buf = scratch::take(c_in * ph * pw);
                let pad = p.padding as isize;
                embed(img, (c_in, h, w), (pad, pad), (ph, pw), &mut buf);
                buf
            };
            Im2colView::new(&padded, (c_in, ph, pw), (kh, kw), 1, 0)
        } else {
            Im2colView::new(img, (c_in, h, w), (kh, kw), p.stride, p.padding)
        };
        let _span = dlsr_trace::span_with(
            || format!("conv gemm {c_out}x{k}x{hw_out} {variant} kc{}", bp.kc),
            dlsr_trace::cat::GEMM,
        );
        wpack.gemm(
            &bp,
            BSrc::Im2col(view),
            dst,
            c_out,
            k,
            hw_out,
            epi,
            batch_par,
        );
    };
    let out_chunk = c_out * hw_out;
    if batch_par {
        out.data_mut()
            .par_chunks_mut(out_chunk)
            .enumerate()
            .for_each(|(i, dst)| image(i, dst));
    } else {
        for (i, dst) in out.data_mut().chunks_mut(out_chunk).enumerate() {
            image(i, dst);
        }
    }
    Ok(())
}

/// Gradients of [`conv2d`] with respect to input, weight and bias.
///
/// Returns `(grad_input, grad_weight, grad_bias)`. Per-image gradient
/// contributions are computed in parallel into disjoint scratch and reduced
/// sequentially in ascending image order, so results are bitwise identical
/// at any thread count.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    p: Conv2dParams,
) -> Result<(Tensor, Tensor, Vec<f32>)> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, _, kh, kw) = weight_dims(weight)?;
    let (gn, gc, gh, gw) = grad_out.shape().as_nchw()?;
    let (h_out, w_out) = p.output_extents((h, w), (kh, kw))?;
    if (gn, gc, gh, gw) != (n, c_out, h_out, w_out) {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, c_out, h_out, w_out],
            got: vec![gn, gc, gh, gw],
            context: "conv2d_backward (grad_out shape)",
        });
    }
    let hw_out = h_out * w_out;
    let k = c_in * kh * kw;
    let chw_in = c_in * h * w;

    let mut grad_input = Tensor::zeros([n, c_in, h, w]);

    // Weight gradient per image: grad_out (C_out×HW) · colᵀ (HW×K), with
    // colᵀ read tap-major through a channels-last copy of the image — the
    // result's columns come out `(ky, kx, c)` and are put back in order by
    // the batch reduction.
    let bp_w = tune::select(c_out, hw_out, k);
    let (ph, pw) = (h + 2 * p.padding, w + 2 * p.padding);
    // Input gradient per image: Wᵀ (K×C_out) · grad_out (C_out×HW) — the
    // column matrix col2im scatters back.
    let bp_i = tune::select(k, c_out, hw_out);
    let variant = bp_w.kernel.executes_as().as_str();

    let direct = is_direct(c_out, hw_out, p);
    // Pack Wᵀ (K×C_out) once for the input-gradient GEMMs — unless the
    // layer is too small for packing to pay: then it is read
    // `[kh·kw, c_out, c_in]`.
    let weights = Weights::prepare(direct, weight.data(), (c_out * c_in, kh * kw), || {
        PackedA::pack(&bp_i, weight.data(), k, c_out, true, p.bf16)
    });
    // The pack-free input gradient tests each tap's bounds only when a
    // weight could turn a bordering zero into a NaN.
    let masked = direct && !weight.data().iter().all(|v| v.is_finite());

    // Disjoint per-image accumulators for the cross-batch reductions.
    let mut gw_all = scratch::take(n * c_out * k);
    let mut gb_all = scratch::take(n * c_out);

    let batch_par = n > 1 && rayon::current_num_threads() > 1;
    let lane = dlsr_trace::current();
    let image = |i: usize, gi: &mut [f32], gw_i: &mut [f32], gb_i: &mut [f32]| {
        let _lane = lane.as_ref().map(dlsr_trace::Lane::enter);
        let img = &input.data()[i * chw_in..(i + 1) * chw_in];
        let go = &grad_out.data()[i * c_out * hw_out..(i + 1) * c_out * hw_out];
        let wgrad_span = dlsr_trace::span_with(
            || match direct {
                true => format!("conv bwd direct wgrad {c_out}x{hw_out}x{k}"),
                false => format!("conv bwd gemm {c_out}x{hw_out}x{k} {variant} kc{}", bp_w.kc),
            },
            dlsr_trace::cat::GEMM,
        );

        // bias gradient: per-channel sums of grad_out
        for (co, chunk) in go.chunks_exact(hw_out).enumerate() {
            gb_i[co] = chunk.iter().sum::<f32>();
        }

        // weight gradient (tap-major) out of a channels-last copy: pack-free,
        // or an implicit GEMM against the transposed view of the copy
        let slack = if direct { SLACK } else { 0 };
        let mut xt = scratch::take(c_in * ph * pw + slack);
        pad_image_channels_last(img, (c_in, h, w), p.padding, pw, &mut xt);
        let wt_pack = match &weights {
            Weights::Packed(wt_pack) => wt_pack,
            Weights::Direct(wt) => {
                dlsr_trace::counter_add(
                    DIRECT_COUNTER,
                    matmul::tile_count(&bp_w, c_out, hw_out, k),
                );
                // grad_out pixel-major, `[hw, c_out]`
                let mut got = scratch::take(hw_out * c_out);
                transpose_into(go, (c_out, hw_out), &mut got);
                for_blocks!(
                    WGRAD_TILES,
                    c_out,
                    direct_weight_grad(
                        &xt,
                        (c_in, pw),
                        (kh, kw),
                        (&got, c_out),
                        bp_w.kc,
                        (h_out, w_out),
                        gw_i
                    )
                );
                drop((xt, got, wgrad_span));
                // input gradient, pack-free: Wᵀ·grad_out fused into the scatter
                let _span = dlsr_trace::span_with(
                    || format!("conv bwd direct {k}x{c_out}x{hw_out}"),
                    dlsr_trace::cat::GEMM,
                );
                dlsr_trace::counter_add(
                    DIRECT_COUNTER,
                    matmul::tile_count(&bp_i, k, c_out, hw_out),
                );
                let (gh, gpw) = (h + kh - 1, w + kw - 1);
                let mut gpad = scratch::take(c_out * gh * gpw + SLACK + kw - 1);
                let shift = |k: usize| k as isize - 1 - p.padding as isize;
                embed(
                    go,
                    (c_out, h_out, w_out),
                    (shift(kh), shift(kw)),
                    (gh, gpw),
                    &mut gpad,
                );
                let (cb, l) = IGRAD_TILES.get();
                let mut wide = scratch::take(cb * (h * gpw).next_multiple_of(l));
                for_blocks!(
                    IGRAD_TILES,
                    c_in,
                    direct_input_grad(
                        &gpad,
                        (c_out, gh, gpw),
                        (kh, kw),
                        wt,
                        bp_i.kc,
                        (c_in, h, w),
                        (p.padding, h_out, w_out, masked),
                        &mut wide,
                        gi,
                    )
                );
                return;
            }
        };
        {
            let go_pack = PackedA::pack(&bp_w, go, c_out, hw_out, false, p.bf16);
            let view = TapMajorView::new(&xt, (c_in, ph, pw), (kh, kw), p.stride);
            go_pack.gemm(
                &bp_w,
                BSrc::TapMajor(view),
                gw_i,
                c_out,
                hw_out,
                k,
                Epilogue::None,
                batch_par,
            );
        }
        drop(xt);
        // input gradient: Wᵀ·grad_out produces the column matrix...
        let mut col = scratch::take(k * hw_out);
        wt_pack.gemm(
            &bp_i,
            BSrc::Rows(go),
            &mut col,
            k,
            c_out,
            hw_out,
            Epilogue::None,
            batch_par,
        );
        drop(wgrad_span);
        // ...which col2im scatters back onto the image.
        let _span = dlsr_trace::span_with(
            || format!("col2im {c_in}x{h}x{w} k{kh}x{kw}"),
            dlsr_trace::cat::IM2COL,
        );
        col2im(&col, (c_in, h, w), (kh, kw), p, gi);
    };

    let gw_len = c_out * k;
    if batch_par {
        grad_input
            .data_mut()
            .par_chunks_mut(chw_in)
            .zip(gw_all.par_chunks_mut(gw_len))
            .zip(gb_all.par_chunks_mut(c_out))
            .enumerate()
            .for_each(|(i, ((gi, gw_i), gb_i))| image(i, gi, gw_i, gb_i));
    } else {
        for (i, ((gi, gw_i), gb_i)) in grad_input
            .data_mut()
            .chunks_mut(chw_in)
            .zip(gw_all.chunks_mut(gw_len))
            .zip(gb_all.chunks_mut(c_out))
            .enumerate()
        {
            image(i, gi, gw_i, gb_i);
        }
    }

    // Fixed-order reduction across the batch: ascending image index,
    // regardless of which worker produced each contribution.
    let mut grad_weight = Tensor::zeros(weight.shape().clone());
    for gw_i in gw_all.chunks_exact(gw_len) {
        add_tap_major(gw_i, (c_in, kh, kw), grad_weight.data_mut());
    }
    let mut grad_bias = vec![0.0f32; c_out];
    for gb_i in gb_all.chunks_exact(c_out) {
        for (a, &b) in grad_bias.iter_mut().zip(gb_i.iter()) {
            *a += b;
        }
    }
    Ok((grad_input, grad_weight, grad_bias))
}

/// Direct (quadruple-loop) convolution used as the test oracle.
pub fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    p: Conv2dParams,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, _, kh, kw) = weight_dims(weight)?;
    let (h_out, w_out) = p.output_extents((h, w), (kh, kw))?;
    let mut out = Tensor::zeros([n, c_out, h_out, w_out]);
    for i in 0..n {
        for co in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut acc = bias.map(|b| b[co]).unwrap_or(0.0);
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                                let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input.at(&[i, ci, iy as usize, ix as usize])
                                    * weight.at(&[co, ci, ky, kx]);
                            }
                        }
                    }
                    *out.at_mut(&[i, co, oy, ox]) = acc;
                }
            }
        }
    }
    Ok(out)
}

/// Direct-loop gradients used as the test oracle for [`conv2d_backward`].
///
/// Returns `(grad_input, grad_weight, grad_bias)` computed straight from
/// the definition of the convolution adjoints — no im2col, no GEMM.
#[allow(clippy::needless_range_loop)]
pub fn conv2d_backward_reference(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    p: Conv2dParams,
) -> Result<(Tensor, Tensor, Vec<f32>)> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, _, kh, kw) = weight_dims(weight)?;
    let (h_out, w_out) = p.output_extents((h, w), (kh, kw))?;
    let mut grad_input = Tensor::zeros([n, c_in, h, w]);
    let mut grad_weight = Tensor::zeros(weight.shape().clone());
    let mut grad_bias = vec![0.0f32; c_out];
    for i in 0..n {
        for co in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let g = grad_out.at(&[i, co, oy, ox]);
                    grad_bias[co] += g;
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                                let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let (iy, ix) = (iy as usize, ix as usize);
                                *grad_input.at_mut(&[i, ci, iy, ix]) +=
                                    g * weight.at(&[co, ci, ky, kx]);
                                *grad_weight.at_mut(&[co, ci, ky, kx]) +=
                                    g * input.at(&[i, ci, iy, ix]);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok((grad_input, grad_weight, grad_bias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        init::uniform(shape, -1.0, 1.0, seed)
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with weight 1.0 is the identity map.
        let x = rand_tensor(&[1, 1, 4, 4], 1);
        let w = Tensor::ones([1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, Conv2dParams::default()).unwrap();
        assert!(y.allclose(&x, 1e-6));
    }

    /// Stride/padding grid against the direct-loop oracle — exercises the
    /// virtual im2col packer across every boundary-condition family.
    #[test]
    fn matches_reference_with_padding_and_stride() {
        for &(stride, padding) in &[(1, 0), (1, 1), (1, 2), (2, 1), (2, 0), (2, 2), (3, 1)] {
            let p = Conv2dParams {
                stride,
                padding,
                ..Default::default()
            };
            let x = rand_tensor(&[2, 3, 7, 6], 42);
            let w = rand_tensor(&[4, 3, 3, 3], 43);
            let b = vec![0.1, -0.2, 0.3, 0.0];
            let fast = conv2d(&x, &w, Some(&b), p).unwrap();
            let slow = conv2d_reference(&x, &w, Some(&b), p).unwrap();
            assert!(
                fast.allclose(&slow, 1e-4),
                "mismatch at stride={stride} padding={padding}: {}",
                fast.max_abs_diff(&slow)
            );
        }
    }

    /// Non-square kernels through the virtual-im2col path.
    #[test]
    fn non_square_kernel_matches_reference() {
        let p = Conv2dParams {
            stride: 1,
            padding: 1,
            ..Default::default()
        };
        let x = rand_tensor(&[1, 2, 6, 8], 61);
        let w = rand_tensor(&[3, 2, 1, 3], 62);
        let fast = conv2d(&x, &w, None, p).unwrap();
        let slow = conv2d_reference(&x, &w, None, p).unwrap();
        assert!(fast.allclose(&slow, 1e-4), "{}", fast.max_abs_diff(&slow));
    }

    #[test]
    fn same_padding_preserves_extent() {
        let x = rand_tensor(&[1, 2, 9, 9], 7);
        let w = rand_tensor(&[2, 2, 3, 3], 8);
        let y = conv2d(&x, &w, None, Conv2dParams::same(3)).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 9, 9]);
    }

    #[test]
    fn channel_mismatch_is_error() {
        let x = Tensor::zeros([1, 3, 4, 4]);
        let w = Tensor::zeros([2, 4, 3, 3]);
        assert!(conv2d(&x, &w, None, Conv2dParams::default()).is_err());
    }

    #[test]
    fn fused_relu_matches_unfused() {
        let p = Conv2dParams::same(3);
        let x = rand_tensor(&[2, 3, 6, 6], 21);
        let w = rand_tensor(&[4, 3, 3, 3], 22);
        let b = vec![0.1, -0.3, 0.0, 0.2];
        let fused = conv2d_fused(&x, &w, Some(&b), Act::Relu, p).unwrap();
        let unfused = conv2d(&x, &w, Some(&b), p).unwrap();
        for (f, u) in fused.data().iter().zip(unfused.data().iter()) {
            // Bitwise: the fused epilogue applies the identical bias add
            // before clamping.
            assert_eq!(*f, u.max(0.0));
        }
    }

    #[test]
    fn fused_into_rejects_wrong_output_shape() {
        let x = rand_tensor(&[1, 1, 5, 5], 2);
        let w = rand_tensor(&[1, 1, 3, 3], 3);
        let mut out = Tensor::zeros([1, 1, 5, 5]); // valid conv shrinks to 3×3
        let r = conv2d_fused_into(
            &x,
            &w,
            None,
            Act::Identity,
            Conv2dParams::default(),
            &mut out,
        );
        assert!(r.is_err());
    }

    /// Every entry point, forward and backward, fast and reference.
    fn all_entry_points_fail(x: &Tensor, w: &Tensor, p: Conv2dParams) -> Vec<TensorError> {
        let mut out = Tensor::zeros([1, 1, 1, 1]);
        let go = Tensor::zeros([1, 1, 1, 1]);
        vec![
            conv2d(x, w, None, p).unwrap_err(),
            conv2d_fused_into(x, w, None, Act::Identity, p, &mut out).unwrap_err(),
            conv2d_backward(x, w, &go, p).unwrap_err(),
            conv2d_reference(x, w, None, p).unwrap_err(),
            conv2d_backward_reference(x, w, &go, p).unwrap_err(),
        ]
    }

    /// A window that lies outside the padded image has no output pixel:
    /// a typed error, not a 1×1 output summed from the taps that happen to
    /// land in the image.
    #[test]
    fn kernel_larger_than_padded_input_is_invalid_argument() {
        let x = Tensor::ones([1, 1, 1, 1]);
        let w = Tensor::ones([1, 1, 5, 5]);
        let p = Conv2dParams {
            padding: 1,
            ..Default::default()
        };
        for e in all_entry_points_fail(&x, &w, p) {
            assert!(matches!(e, TensorError::InvalidArgument(_)), "{e:?}");
        }
    }

    /// A zero stride is a typed error, not a division by zero.
    #[test]
    fn zero_stride_is_invalid_argument() {
        let x = Tensor::ones([1, 1, 3, 3]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let p = Conv2dParams {
            stride: 0,
            ..Default::default()
        };
        for e in all_entry_points_fail(&x, &w, p) {
            assert!(matches!(e, TensorError::InvalidArgument(_)), "{e:?}");
        }
    }

    /// `add_tap_major` is the inverse of reading a `[c_out, c, ky, kx]`
    /// tensor tap-major: every element lands back where it came from, once.
    #[test]
    fn tap_major_permutation_round_trips() {
        for (c_out, c_in, kh, kw) in [(2, 3, 3, 3), (1, 5, 1, 3), (3, 1, 2, 1)] {
            let wt = rand_tensor(&[c_out, c_in, kh, kw], 91);
            let mut tap_major = Vec::with_capacity(wt.data().len());
            for co in 0..c_out {
                for ky in 0..kh {
                    for kx in 0..kw {
                        for c in 0..c_in {
                            tap_major.push(wt.at(&[co, c, ky, kx]));
                        }
                    }
                }
            }
            let mut back = vec![0.0f32; tap_major.len()];
            add_tap_major(&tap_major, (c_in, kh, kw), &mut back);
            assert_eq!(&back[..], wt.data(), "{c_out}x{c_in}x{kh}x{kw}");
        }
    }

    /// Finite-difference check of all three gradients on a tiny problem.
    #[test]
    fn backward_matches_finite_differences() {
        let p = Conv2dParams {
            stride: 1,
            padding: 1,
            ..Default::default()
        };
        let x = rand_tensor(&[1, 2, 4, 4], 10);
        let w = rand_tensor(&[2, 2, 3, 3], 11);
        let b = vec![0.05f32, -0.07];
        // loss = sum(conv(x)) so dL/dout = ones
        let out = conv2d(&x, &w, Some(&b), p).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let (gi, gw, gb) = conv2d_backward(&x, &w, &grad_out, p).unwrap();

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &[f32]| -> f32 {
            conv2d(x, w, Some(b), p).unwrap().data().iter().sum()
        };
        // input gradient, spot-check a handful of positions
        for &idx in &[0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (gi.data()[idx] - fd).abs() < 1e-2,
                "input grad idx {idx}: {} vs {fd}",
                gi.data()[idx]
            );
        }
        // weight gradient
        for &idx in &[0usize, 9, 20] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (gw.data()[idx] - fd).abs() < 1e-1,
                "weight grad idx {idx}: {} vs {fd}",
                gw.data()[idx]
            );
        }
        // bias gradient: dL/db[c] = number of output positions
        let hw = out.shape().dim(2) * out.shape().dim(3);
        for v in &gb {
            assert!((v - hw as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_matches_direct_reference() {
        for &(stride, padding) in &[(1, 1), (2, 0), (2, 2), (3, 1)] {
            let p = Conv2dParams {
                stride,
                padding,
                ..Default::default()
            };
            let x = rand_tensor(&[2, 3, 6, 5], 31);
            let w = rand_tensor(&[4, 3, 3, 3], 32);
            let go_shape = conv2d(&x, &w, None, p).unwrap();
            let go = rand_tensor(go_shape.shape().dims(), 33);
            let (gi, gw, gb) = conv2d_backward(&x, &w, &go, p).unwrap();
            let (ri, rw, rb) = conv2d_backward_reference(&x, &w, &go, p).unwrap();
            assert!(
                gi.allclose(&ri, 1e-3),
                "grad_input {}",
                gi.max_abs_diff(&ri)
            );
            assert!(
                gw.allclose(&rw, 1e-3),
                "grad_weight {}",
                gw.max_abs_diff(&rw)
            );
            for (a, b) in gb.iter().zip(rb.iter()) {
                assert!((a - b).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn batch_entries_are_independent() {
        let p = Conv2dParams::same(3);
        let w = rand_tensor(&[2, 1, 3, 3], 3);
        let a = rand_tensor(&[1, 1, 5, 5], 4);
        let b = rand_tensor(&[1, 1, 5, 5], 5);
        // Convolve separately then as a batch; results must match per-image.
        let ya = conv2d(&a, &w, None, p).unwrap();
        let yb = conv2d(&b, &w, None, p).unwrap();
        let mut batch = Tensor::zeros([2, 1, 5, 5]);
        batch.data_mut()[..25].copy_from_slice(a.data());
        batch.data_mut()[25..].copy_from_slice(b.data());
        let y = conv2d(&batch, &w, None, p).unwrap();
        assert_eq!(&y.data()[..50], ya.data());
        assert_eq!(&y.data()[50..], yb.data());
    }

    /// The batch-parallel backward must equal the sum of per-image calls in
    /// ascending image order, bitwise — this is the thread-count
    /// determinism contract for the cross-batch reductions.
    #[test]
    fn backward_batch_reduction_is_bitwise_deterministic() {
        let p = Conv2dParams::same(3);
        let n = 3;
        let x = rand_tensor(&[n, 2, 6, 6], 51);
        let w = rand_tensor(&[4, 2, 3, 3], 52);
        let go = rand_tensor(&[n, 4, 6, 6], 53);
        let (gi, gw, gb) = conv2d_backward(&x, &w, &go, p).unwrap();

        let mut gw_sum = vec![0.0f32; gw.data().len()];
        let mut gb_sum = vec![0.0f32; gb.len()];
        let chw = 2 * 6 * 6;
        let ghw = 4 * 6 * 6;
        for i in 0..n {
            let xi =
                Tensor::from_vec([1, 2, 6, 6], x.data()[i * chw..(i + 1) * chw].to_vec()).unwrap();
            let goi =
                Tensor::from_vec([1, 4, 6, 6], go.data()[i * ghw..(i + 1) * ghw].to_vec()).unwrap();
            let (gii, gwi, gbi) = conv2d_backward(&xi, &w, &goi, p).unwrap();
            assert_eq!(&gi.data()[i * chw..(i + 1) * chw], gii.data());
            for (a, &b) in gw_sum.iter_mut().zip(gwi.data().iter()) {
                *a += b;
            }
            for (a, &b) in gb_sum.iter_mut().zip(gbi.iter()) {
                *a += b;
            }
        }
        assert_eq!(gw.data(), &gw_sum[..]);
        assert_eq!(&gb[..], &gb_sum[..]);
    }

    /// With bf16 storage, forward/backward still track the f32 oracle
    /// within bf16 precision (no bitwise claim).
    #[test]
    fn bf16_conv_tracks_reference() {
        let p = Conv2dParams::same(3);
        let x = rand_tensor(&[2, 3, 6, 6], 71);
        let w = rand_tensor(&[4, 3, 3, 3], 72);
        let b = vec![0.1, -0.2, 0.3, 0.0];
        let fast = conv2d(&x, &w, Some(&b), Conv2dParams { bf16: true, ..p }).unwrap();
        let slow = conv2d_reference(&x, &w, Some(&b), p).unwrap();
        assert!(fast.allclose(&slow, 0.15), "{}", fast.max_abs_diff(&slow));
        let exact = conv2d(&x, &w, Some(&b), p).unwrap();
        assert_ne!(fast.data(), exact.data(), "bf16: true left the panels f32");
    }

    /// Precision is a per-call value, not process state: bf16 convs looping
    /// on another thread leave an f32 forward+backward bit-equal to a solo
    /// run, on the pack-free (`c_out` 3) and the GEMM (`c_out` 64, at a
    /// plane past `DIRECT_MAX_PLANE`) path.
    #[test]
    fn bf16_calls_on_another_thread_leave_f32_bits_alone() {
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        use std::sync::Barrier;

        let p = Conv2dParams::same(3);
        let x = rand_tensor(&[2, 3, 33, 33], 81);
        let f32_bits = |w: &Tensor| {
            let y = conv2d_fused(&x, w, None, Act::Relu, p).unwrap();
            let (gi, gw, gb) = conv2d_backward(&x, w, &y, p).unwrap();
            [y.data(), gi.data(), gw.data(), &gb[..]]
                .map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        };
        for c_out in [3, 64] {
            let w = rand_tensor(&[c_out, 3, 3, 3], 82);
            let solo = f32_bits(&w);
            let (stop, started) = (AtomicBool::new(false), Barrier::new(2));
            let beside_bf16 = std::thread::scope(|s| {
                s.spawn(|| {
                    let bf = Conv2dParams { bf16: true, ..p };
                    started.wait();
                    while !stop.load(Relaxed) {
                        let y = conv2d(&x, &w, None, bf).unwrap();
                        conv2d_backward(&x, &w, &y, bf).unwrap();
                    }
                });
                started.wait();
                let runs: Vec<_> = (0..4).map(|_| f32_bits(&w)).collect();
                stop.store(true, Relaxed);
                runs
            });
            for run in beside_bf16 {
                assert!(
                    run == solo,
                    "c_out {c_out}: f32 bits moved beside bf16 calls"
                );
            }
        }
    }
}
