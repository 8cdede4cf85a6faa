//! Dense GEMM: blueprint-driven drivers over the SIMD microkernels.
//!
//! # Pipeline
//!
//! The engine is a packed, register-blocked GEMM in the BLIS style, split
//! across three modules:
//! - [`crate::kernels`] — the `MR×NR` register-tile microkernels (AVX2/FMA,
//!   AVX-512F, scalar fallback) behind one-time runtime dispatch;
//! - [`crate::tune`] — the shape-keyed selector that resolves every
//!   `(m, k, n)` to a [`Blueprint`] (kernel variant, `MR/NR/KC/NC`
//!   blocking, rayon split), seeded for the EDSR shapes and persistable to
//!   a tune-cache file;
//! - this module — operand packing and the blocked drivers.
//!
//! A is packed whole ([`pack_a`]): `KC`-deep blocks of `MR`-row panels,
//! edge panels zero-padded so the microkernel never branches. B is packed
//! **on the fly in `KC×NC` staged blocks** with ordered double buffering:
//! while the microkernels consume the current staged block, the next `KC`
//! panel is packed into the other half of the staging buffer
//! (`rayon::join`). B is described by a [`BSrc`], which the packing
//! routines read through directly — including the *virtual im2col views*
//! ([`BSrc::Im2col`]/[`BSrc::TapMajor`]) that let convolution run as
//! implicit GEMM without ever materializing a column matrix.
//!
//! # Determinism contract
//!
//! Each output element is an ascending-`k` chain of fused multiply-adds
//! (one FMA per product, inside the microkernel), with one plain partial-sum
//! add into `C` per `KC` block boundary. Therefore:
//! - **`kc` is the only blueprint field that can change result bits.** The
//!   selector derives it from the shape alone.
//! - Kernel variant (scalar/AVX2/AVX-512), tile geometry, `nc`, and the
//!   parallel split only partition the output space — results are bitwise
//!   identical across all of them, and across any thread count.
//!
//! `all_variants_bitwise_equal` and `row_partition_is_bitwise_deterministic`
//! in the tests pin both halves of the contract; `docs/KERNELS.md` states it
//! end to end (tune cache included).

use rayon::prelude::*;

use crate::kernels::{self, KernelId, MAX_NR};
use crate::scratch;
use crate::tune::{self, Blueprint, ParHint};
use crate::{Result, Tensor, TensorError};

/// What the GEMM does to each output element after the dot product is
/// complete. Fusing this into the store phase saves a full second pass over
/// `C` (the convolution bias/activation pass).
///
/// `bias` is indexed by **output row** — for the convolution forward GEMM,
/// rows are output channels.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw GEMM result.
    None,
    /// `c[i,j] += bias[i]`.
    Bias(&'a [f32]),
    /// `c[i,j] = max(c[i,j], 0)`.
    Relu,
    /// `c[i,j] = max(c[i,j] + bias[i], 0)`.
    BiasRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// Apply the epilogue to a fully summed stretch of output row `row`.
    #[inline]
    pub(crate) fn finish_row(self, row: usize, dst: &mut [f32]) {
        match self {
            Epilogue::None => {}
            Epilogue::Bias(bias) => {
                let bv = bias[row];
                dst.iter_mut().for_each(|d| *d += bv);
            }
            Epilogue::Relu => {
                dst.iter_mut().for_each(|d| *d = d.max(0.0));
            }
            Epilogue::BiasRelu(bias) => {
                let bv = bias[row];
                dst.iter_mut().for_each(|d| *d = (*d + bv).max(0.0));
            }
        }
    }
}

/// Packed-panel element type: `f32`, or bf16 bits (`u16`). Accumulation is
/// always `f32`; only panel storage changes.
pub(crate) trait Elem: Copy + Send + Sync + 'static {
    /// Pooled scratch buffer type for this element.
    type Buf: std::ops::Deref<Target = [Self]> + std::ops::DerefMut<Target = [Self]> + Send;

    fn take_scratch(len: usize) -> Self::Buf;
    fn pack(x: f32) -> Self;
    /// Pack a contiguous run: `dst[i] = pack(src[i])`, equal lengths.
    #[cfg_attr(any(), dlsr::hot)]
    fn pack_run(dst: &mut [Self], src: &[f32]);
    /// One microkernel tile: `acc = Apanel · Bpanel` (see [`kernels`]).
    fn tile(
        kernel: KernelId,
        apan: &[Self],
        bpan: &[Self],
        kc: usize,
        mr: usize,
        nr: usize,
        acc: &mut [f32],
    );
}

impl Elem for f32 {
    type Buf = scratch::ScratchBuf;

    fn take_scratch(len: usize) -> scratch::ScratchBuf {
        scratch::take(len)
    }

    fn pack(x: f32) -> f32 {
        x
    }

    #[inline]
    #[cfg_attr(any(), dlsr::hot)]
    fn pack_run(dst: &mut [f32], src: &[f32]) {
        dst.copy_from_slice(src);
    }

    #[inline]
    fn tile(
        kernel: KernelId,
        apan: &[f32],
        bpan: &[f32],
        kc: usize,
        mr: usize,
        nr: usize,
        acc: &mut [f32],
    ) {
        kernels::run_tile(kernel, apan, bpan, kc, mr, nr, acc);
    }
}

impl Elem for u16 {
    type Buf = scratch::ScratchBufU16;

    fn take_scratch(len: usize) -> scratch::ScratchBufU16 {
        scratch::take_u16(len)
    }

    fn pack(x: f32) -> u16 {
        kernels::f32_to_bf16(x)
    }

    #[inline]
    #[cfg_attr(any(), dlsr::hot)]
    fn pack_run(dst: &mut [u16], src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = kernels::f32_to_bf16(s);
        }
    }

    #[inline]
    fn tile(
        kernel: KernelId,
        apan: &[u16],
        bpan: &[u16],
        kc: usize,
        mr: usize,
        nr: usize,
        acc: &mut [f32],
    ) {
        kernels::run_tile_bf16(kernel, apan, bpan, kc, mr, nr, acc);
    }
}

/// A virtual im2col matrix over one NCHW image: element `(row, col)` of the
/// `[C_in·K_h·K_w, H_out·W_out]` column matrix, computed on the fly by the
/// packing routines. This is what makes the conv path *implicit* GEMM — no
/// column buffer is ever materialized.
#[derive(Debug, Clone, Copy)]
pub struct Im2colView<'a> {
    img: &'a [f32],
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    h_out: usize,
    w_out: usize,
}

impl<'a> Im2colView<'a> {
    /// View over one image plane-major `[C_in, H, W]` slice.
    pub fn new(
        img: &'a [f32],
        (c_in, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        stride: usize,
        padding: usize,
    ) -> Im2colView<'a> {
        debug_assert_eq!(img.len(), c_in * h * w);
        let h_out = (h + 2 * padding).saturating_sub(kh) / stride + 1;
        let w_out = (w + 2 * padding).saturating_sub(kw) / stride + 1;
        Im2colView {
            img,
            c_in,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            h_out,
            w_out,
        }
    }

    /// Rows of the column matrix: `C_in·K_h·K_w`.
    pub fn rows(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Columns of the column matrix: `H_out·W_out`.
    pub fn cols(&self) -> usize {
        self.h_out * self.w_out
    }

    /// Whether every window lies inside the image and each of its rows is
    /// one contiguous image run (stride 1, no padding): the view the
    /// run packer reads. The conv module gives every stride-1 forward such
    /// a view, over a zero-bordered copy of the image when it pads.
    pub(crate) fn contiguous_runs(&self) -> bool {
        self.stride == 1 && self.padding == 0 && self.kh <= self.h && self.kw <= self.w
    }
}

/// The transposed im2col matrix of one image with its columns in
/// **tap-major** `(ky, kx, c)` order, over a zero-padded channels-last copy
/// `xt[(y·pitch + x)·c_in + c]`: element `(p, j)` is tap `j` of output pixel
/// `p`'s window, `p` in `(oy, ox)` order. Every window lies inside the
/// copy, and the `kw·c_in` taps of one kernel row are contiguous in it.
/// This is the B operand of the conv weight-gradient GEMM, whose result
/// columns therefore come out tap-major too.
#[derive(Debug, Clone, Copy)]
pub struct TapMajorView<'a> {
    xt: &'a [f32],
    c_in: usize,
    pitch: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    h_out: usize,
    w_out: usize,
}

impl<'a> TapMajorView<'a> {
    /// View over a channels-last `[ph, pw, c_in]` copy (borders included),
    /// windows `kh×kw` every `stride` pixels. Panics if no window fits or
    /// `stride` is 0.
    pub fn new(
        xt: &'a [f32],
        (c_in, ph, pw): (usize, usize, usize),
        (kh, kw): (usize, usize),
        stride: usize,
    ) -> TapMajorView<'a> {
        assert!(stride > 0 && kh <= ph && kw <= pw, "no window fits");
        assert_eq!(xt.len(), ph * pw * c_in);
        TapMajorView {
            xt,
            c_in,
            pitch: pw,
            kh,
            kw,
            stride,
            h_out: (ph - kh) / stride + 1,
            w_out: (pw - kw) / stride + 1,
        }
    }

    /// Rows: output pixels, `H_out·W_out`.
    pub fn rows(&self) -> usize {
        self.h_out * self.w_out
    }

    /// Columns: taps, `K_h·K_w·C_in`.
    pub fn cols(&self) -> usize {
        self.kh * self.kw * self.c_in
    }
}

/// Where the right-hand operand's panels come from. The packing routines
/// read each source directly, so transposes and im2col layouts are
/// *virtualized* — nothing is materialized before packing.
#[derive(Debug, Clone, Copy)]
pub enum BSrc<'a> {
    /// `B` row-major `[k, n]`.
    Rows(&'a [f32]),
    /// `Bᵀ` row-major `[n, k]` (i.e. `B[p, j] = b[j·k + p]`).
    Cols(&'a [f32]),
    /// The im2col matrix of an image: `B[p, j] = col[p, j]`.
    Im2col(Im2colView<'a>),
    /// The transposed im2col matrix, columns tap-major (see
    /// [`TapMajorView`]).
    TapMajor(TapMajorView<'a>),
}

/// Length of the packed-A buffer for an `m×k` left operand under `bp`.
pub fn packed_a_len(bp: &Blueprint, m: usize, k: usize) -> usize {
    k * m.div_ceil(bp.mr) * bp.mr
}

/// Pack row-major `a[m×k]` into `bp.mr`-row panels in `bp.kc`-deep blocks
/// (layout `[kb][panel][p][i]`). Rows past `m` in the final panel are
/// zero-filled so the microkernel runs without remainder branches.
#[cfg_attr(any(), dlsr::hot)]
pub fn pack_a(bp: &Blueprint, a: &[f32], m: usize, k: usize, out: &mut [f32]) {
    pack_a_impl::<f32>(bp, a, m, k, false, out);
}

/// Pack `a` holding `Aᵀ` row-major (`a[k×m]`, so `A[i,p] = a[p·m + i]`)
/// into the same panel layout as [`pack_a`].
#[cfg_attr(any(), dlsr::hot)]
pub fn pack_a_transposed(bp: &Blueprint, a: &[f32], m: usize, k: usize, out: &mut [f32]) {
    pack_a_impl::<f32>(bp, a, m, k, true, out);
}

/// bf16 twin of [`pack_a`] / [`pack_a_transposed`].
#[cfg_attr(any(), dlsr::hot)]
pub fn pack_a_bf16(bp: &Blueprint, a: &[f32], m: usize, k: usize, trans: bool, out: &mut [u16]) {
    pack_a_impl::<u16>(bp, a, m, k, trans, out);
}

#[cfg_attr(any(), dlsr::hot)]
fn pack_a_impl<E: Elem>(bp: &Blueprint, a: &[f32], m: usize, k: usize, trans: bool, out: &mut [E]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(out.len(), packed_a_len(bp, m, k));
    let mr = bp.mr;
    let mr_pad = m.div_ceil(mr) * mr;
    for kb in (0..k).step_by(bp.kc) {
        let kc = bp.kc.min(k - kb);
        for ip in 0..mr_pad / mr {
            let base = kb * mr_pad + ip * (mr * kc);
            let dst = &mut out[base..base + mr * kc];
            for (p, drow) in dst.chunks_exact_mut(mr).enumerate() {
                for (i, d) in drow.iter_mut().enumerate() {
                    let row = ip * mr + i;
                    let v = if row < m {
                        let col = kb + p;
                        if trans {
                            a[col * m + row]
                        } else {
                            a[row * k + col]
                        }
                    } else {
                        0.0
                    };
                    *d = E::pack(v);
                }
            }
        }
    }
}

/// Pack one `kc × ncb` staged block of B (`kc` rows starting at `kb`,
/// `ncb` columns starting at `jc`) into `nr`-column panels
/// (`dst[jp][p][j]`, length `ncb·kc`). Columns past `n` are zero-filled.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn pack_b_block<E: Elem>(
    bp: &Blueprint,
    src: BSrc<'_>,
    k: usize,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    debug_assert!(kb + kc <= k);
    debug_assert!(dst.len() >= ncb * kc);
    match src {
        BSrc::Rows(b) => pack_block_rows::<E>(bp.nr, b, n, jc, ncb, kb, kc, dst),
        BSrc::Cols(b) => pack_block_cols::<E>(bp.nr, b, k, n, jc, ncb, kb, kc, dst),
        BSrc::Im2col(v) if v.contiguous_runs() => {
            pack_block_im2col::<E>(bp.nr, &v, n, jc, ncb, kb, kc, dst)
        }
        BSrc::Im2col(v) => pack_block_im2col_gather::<E>(bp.nr, &v, n, jc, ncb, kb, kc, dst),
        BSrc::TapMajor(v) => pack_block_tap_major::<E>(bp.nr, &v, n, jc, ncb, kb, kc, dst),
    }
}

#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn pack_block_rows<E: Elem>(
    nr: usize,
    b: &[f32],
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let cols = nr.min(n.saturating_sub(j0));
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        for (p, drow) in panel.chunks_exact_mut(nr).enumerate() {
            let src = &b[(kb + p) * n + j0..(kb + p) * n + j0 + cols];
            // Branch-free split: one run copy for the live columns, one
            // fill for the zero-padded tail.
            let (live, pad) = drow.split_at_mut(cols);
            E::pack_run(live, src);
            pad.fill(E::pack(0.0));
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn pack_block_cols<E: Elem>(
    nr: usize,
    b: &[f32],
    k: usize,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let cols = nr.min(n.saturating_sub(j0));
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        for (p, drow) in panel.chunks_exact_mut(nr).enumerate() {
            let row = kb + p;
            let (live, pad) = drow.split_at_mut(cols);
            for (j, d) in live.iter_mut().enumerate() {
                *d = E::pack(b[(j0 + j) * k + row]);
            }
            pad.fill(E::pack(0.0));
        }
    }
}

/// Pack a staged block straight out of an image view whose windows are
/// contiguous ([`Im2colView::contiguous_runs`]: stride 1, no padding — the
/// conv module hands a zero-bordered copy of the image instead):
/// `B[p, j] = col[p, j]` where `p` decodes to a (channel, ky, kx) patch row
/// and `j` to an output pixel. Consecutive columns of a panel are
/// consecutive output pixels, so for a fixed patch row the sources are
/// image runs — one per output row the panel crosses, at the same offsets
/// from the tap for every patch row. The panel's segment table is computed
/// once; each patch row is then one [`Elem::pack_run`] per segment at
/// `c·plane + ky·pitch + kx`, with no bounds test and no clamping.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn pack_block_im2col<E: Elem>(
    nr: usize,
    v: &Im2colView<'_>,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    debug_assert!(v.contiguous_runs());
    let (plane, pitch) = (v.h * v.w, v.w);
    let khw = v.kh * v.kw;
    let (c0, rem0) = (kb / khw, kb % khw);
    let (ky0, kx0) = (rem0 / v.kw, rem0 % v.kw);
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let cols = nr.min(n.saturating_sub(j0));
        // The panel's output-row segments: (first panel column, image
        // offset of its first pixel's top-left tap, length).
        let mut segs = [(0usize, 0usize, 0usize); MAX_NR];
        let mut nseg = 0;
        let (mut oy, mut ox) = (j0 / v.w_out, j0 % v.w_out);
        let mut j = 0;
        while j < cols {
            let len = (cols - j).min(v.w_out - ox);
            segs[nseg] = (j, oy * pitch + ox, len);
            nseg += 1;
            j += len;
            (oy, ox) = (oy + 1, 0);
        }
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        let (mut c, mut ky, mut kx) = (c0, ky0, kx0);
        for drow in panel.chunks_exact_mut(nr) {
            let tap = c * plane + ky * pitch + kx;
            for &(j, off, len) in &segs[..nseg] {
                E::pack_run(&mut drow[j..j + len], &v.img[tap + off..tap + off + len]);
            }
            drow[cols..].fill(E::pack(0.0));
            kx += 1;
            if kx == v.kw {
                (ky, kx) = (ky + 1, 0);
                if ky == v.kh {
                    (c, ky) = (c + 1, 0);
                }
            }
        }
    }
}

/// Every other image view (stride > 1, or a padded stride-1 view): columns
/// of a panel are not contiguous in the image, so every element is
/// gathered. The per-panel spatial bases are hoisted to stack arrays; the
/// inner loop is an add, two bounds tests and one image load.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn pack_block_im2col_gather<E: Elem>(
    nr: usize,
    v: &Im2colView<'_>,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    let khw = v.kh * v.kw;
    let (hs, ws) = (v.h as isize, v.w as isize);
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let mut iy0 = [0isize; MAX_NR];
        let mut ix0 = [0isize; MAX_NR];
        let mut live = [false; MAX_NR];
        for j in 0..nr {
            let col = j0 + j;
            if col < n {
                let (oy, ox) = (col / v.w_out, col % v.w_out);
                iy0[j] = (oy * v.stride) as isize - v.padding as isize;
                ix0[j] = (ox * v.stride) as isize - v.padding as isize;
                live[j] = true;
            }
        }
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        for (p, drow) in panel.chunks_exact_mut(nr).enumerate() {
            let row = kb + p;
            let (c, rem) = (row / khw, row % khw);
            let (ky, kx) = ((rem / v.kw) as isize, (rem % v.kw) as isize);
            let plane = &v.img[c * v.h * v.w..(c + 1) * v.h * v.w];
            for (j, d) in drow.iter_mut().enumerate() {
                let val = if live[j] {
                    let (iy, ix) = (iy0[j] + ky, ix0[j] + kx);
                    if iy >= 0 && iy < hs && ix >= 0 && ix < ws {
                        plane[iy as usize * v.w + ix as usize]
                    } else {
                        0.0
                    }
                } else {
                    0.0
                };
                *d = E::pack(val);
            }
        }
    }
}

/// Pack a staged block of the tap-major transposed im2col matrix (the
/// weight-gradient GEMM): `B[p, j]` is tap `j = (ky, kx, c)` of output
/// pixel `p`. Within one `ky` the taps `(kx, c)` are one contiguous run of
/// the channels-last copy, so a panel row is one [`Elem::pack_run`] per
/// kernel row its columns cross — `⌈nr / (kw·c_in)⌉ + 1` at most. The
/// segment table `(first panel column, offset from the window's top-left,
/// length)` is computed once per panel; each row then only adds its
/// pixel's base offset, walked by counting `(oy, ox)` up.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn pack_block_tap_major<E: Elem>(
    nr: usize,
    v: &TapMajorView<'_>,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    let run = v.kw * v.c_in;
    let row_step = v.pitch * v.c_in;
    let px_step = v.stride * v.c_in;
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let cols = nr.min(n.saturating_sub(j0));
        let mut segs = [(0usize, 0usize, 0usize); MAX_NR];
        let mut nseg = 0;
        let mut j = 0;
        while j < cols {
            let (ky, r) = ((j0 + j) / run, (j0 + j) % run);
            let len = (cols - j).min(run - r);
            segs[nseg] = (j, ky * row_step + r, len);
            nseg += 1;
            j += len;
        }
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        let (mut oy, mut ox) = (kb / v.w_out, kb % v.w_out);
        for drow in panel.chunks_exact_mut(nr) {
            let base = oy * v.stride * row_step + ox * px_step;
            for &(j, off, len) in &segs[..nseg] {
                let src = base + off;
                E::pack_run(&mut drow[j..j + len], &v.xt[src..src + len]);
            }
            drow[cols..].fill(E::pack(0.0));
            ox += 1;
            if ox == v.w_out {
                (oy, ox) = (oy + 1, 0);
            }
        }
    }
}

/// Write (or accumulate) a microkernel tile into `C`, applying the
/// epilogue once the final k block has been summed. `acc` is row-major
/// with stride `nr`.
#[inline]
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn store_tile(
    acc: &[f32],
    nr: usize,
    crows: &mut [f32],
    n: usize,
    rows: usize,
    j0: usize,
    cols: usize,
    accumulate: bool,
    finalize: Option<(Epilogue<'_>, usize)>,
) {
    for i in 0..rows {
        let dst = &mut crows[i * n + j0..i * n + j0 + cols];
        let src = &acc[i * nr..i * nr + cols];
        if accumulate {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        } else {
            dst.copy_from_slice(src);
        }
        if let Some((epi, row0)) = finalize {
            epi.finish_row(row0 + i, dst);
        }
    }
}

/// Consume one staged `kc × ncb` B block: run the microkernel over every
/// (row panel × column panel) tile it covers and store the partial sums.
/// `c` holds the row range starting at global panel `row_panel0`.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(any(), dlsr::hot)]
fn compute_block<E: Elem>(
    kernel: KernelId,
    bp: &Blueprint,
    apack: &[E],
    bblock: &[E],
    c: &mut [f32],
    row_panel0: usize,
    m: usize,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    epi: Epilogue<'_>,
    last_kb: bool,
) {
    let (mr, nr) = (bp.mr, bp.nr);
    let mr_pad = m.div_ceil(mr) * mr;
    let rows_total = c.len() / n;
    let mut acc = [0.0f32; kernels::MAX_MR * MAX_NR];
    for ipl in 0..rows_total.div_ceil(mr) {
        let ip = row_panel0 + ipl;
        let a_off = kb * mr_pad + ip * (mr * kc);
        let apan = &apack[a_off..a_off + mr * kc];
        let rows = mr.min(rows_total - ipl * mr);
        let row0 = ip * mr;
        let finalize = last_kb.then_some((epi, row0));
        let crows = &mut c[ipl * mr * n..];
        for jp in 0..ncb / nr {
            let j0 = jc + jp * nr;
            if j0 >= n {
                break;
            }
            let cols = nr.min(n - j0);
            let b_off = jp * (nr * kc);
            E::tile(
                kernel,
                apan,
                &bblock[b_off..b_off + nr * kc],
                kc,
                mr,
                nr,
                &mut acc,
            );
            store_tile(&acc, nr, crows, n, rows, j0, cols, kb != 0, finalize);
        }
    }
}

/// Sequential driver with ordered double-buffered packing: per `NC` column
/// block, the staging buffer is split in two and ping-ponged — while the
/// microkernels consume the current `KC` panel, `rayon::join` packs the
/// next one into the other half. Packing is pure data movement, so the
/// overlap cannot change bits.
#[allow(clippy::too_many_arguments)]
fn gemm_seq<E: Elem>(
    bp: &Blueprint,
    kernel: KernelId,
    apack: &[E],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) {
    let (nr, kc_full, nc) = (bp.nr, bp.kc, bp.nc);
    let mut stage = E::take_scratch(2 * nc * kc_full);
    let (mut cur, mut nxt) = stage.split_at_mut(nc * kc_full);
    let kb_last = (k - 1) / kc_full * kc_full;
    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc).div_ceil(nr) * nr;
        pack_b_block::<E>(bp, bsrc, k, n, jc, ncb, 0, kc_full.min(k), cur);
        let mut kb = 0;
        while kb < k {
            let kc = kc_full.min(k - kb);
            let next_kb = kb + kc;
            if next_kb < k {
                let next_kc = kc_full.min(k - next_kb);
                let curv: &[E] = cur;
                let cref = &mut *c;
                let nref = &mut *nxt;
                rayon::join(
                    || {
                        compute_block::<E>(
                            kernel,
                            bp,
                            apack,
                            curv,
                            cref,
                            0,
                            m,
                            n,
                            jc,
                            ncb,
                            kb,
                            kc,
                            epi,
                            kb == kb_last,
                        );
                    },
                    || {
                        pack_b_block::<E>(bp, bsrc, k, n, jc, ncb, next_kb, next_kc, nref);
                    },
                );
            } else {
                compute_block::<E>(
                    kernel,
                    bp,
                    apack,
                    cur,
                    c,
                    0,
                    m,
                    n,
                    jc,
                    ncb,
                    kb,
                    kc,
                    epi,
                    kb == kb_last,
                );
            }
            std::mem::swap(&mut cur, &mut nxt);
            kb = next_kb;
        }
    }
}

/// Packed length of a full B prepack under `bp` (the row-parallel path).
fn packed_b_len_for(bp: &Blueprint, k: usize, n: usize) -> usize {
    let full = n / bp.nc * bp.nc;
    let cols = full + (n - full).div_ceil(bp.nr) * bp.nr;
    k * cols
}

/// Row-parallel driver: prepack all of B once (parallel over column
/// blocks), then fan the row panels of `C` out across rayon. Per output
/// element the k-order is identical to [`gemm_seq`], so the two drivers
/// are bitwise interchangeable.
#[allow(clippy::too_many_arguments)]
fn gemm_rows_par<E: Elem>(
    bp: &Blueprint,
    kernel: KernelId,
    apack: &[E],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) {
    let (mr, nr, kc_full, nc) = (bp.mr, bp.nr, bp.kc, bp.nc);
    let mut bfull = E::take_scratch(packed_b_len_for(bp, k, n));
    // Carve one disjoint slice per column block so packing can fan out.
    let mut blocks: Vec<(usize, usize, &mut [E])> = Vec::new();
    let mut rest: &mut [E] = &mut bfull;
    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc).div_ceil(nr) * nr;
        let (head, tail) = rest.split_at_mut(k * ncb);
        blocks.push((jc, ncb, head));
        rest = tail;
    }
    blocks.par_iter_mut().for_each(|(jc, ncb, dst)| {
        let mut off = 0;
        for kb in (0..k).step_by(kc_full) {
            let kc = kc_full.min(k - kb);
            pack_b_block::<E>(bp, bsrc, k, n, *jc, *ncb, kb, kc, &mut dst[off..]);
            off += *ncb * kc;
        }
    });
    let kb_last = (k - 1) / kc_full * kc_full;
    let blocks = &blocks;
    c.par_chunks_mut(mr * n).enumerate().for_each(|(ip, rows)| {
        for (jc, ncb, bblk) in blocks.iter() {
            let mut off = 0;
            for kb in (0..k).step_by(kc_full) {
                let kc = kc_full.min(k - kb);
                compute_block::<E>(
                    kernel,
                    bp,
                    apack,
                    &bblk[off..off + ncb * kc],
                    rows,
                    ip,
                    m,
                    n,
                    *jc,
                    *ncb,
                    kb,
                    kc,
                    epi,
                    kb == kb_last,
                );
                off += ncb * kc;
            }
        }
    });
}

/// Microkernel invocations one `m×k×n` GEMM makes under `bp` — the unit of
/// the `gemm.variant.*` counters.
pub(crate) fn tile_count(bp: &Blueprint, m: usize, k: usize, n: usize) -> f64 {
    (m.div_ceil(bp.mr) * n.div_ceil(bp.nr) * k.div_ceil(bp.kc)) as f64
}

#[allow(clippy::too_many_arguments)]
fn gemm_generic<E: Elem>(
    bp: &Blueprint,
    apack: &[E],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    force_seq: bool,
) {
    assert_eq!(c.len(), m * n);
    assert_eq!(apack.len(), packed_a_len(bp, m, k));
    match bsrc {
        BSrc::Rows(b) => assert_eq!(b.len(), k * n),
        BSrc::Cols(b) => assert_eq!(b.len(), n * k),
        BSrc::Im2col(v) => debug_assert_eq!((v.rows(), v.cols()), (k, n)),
        BSrc::TapMajor(v) => debug_assert_eq!((v.rows(), v.cols()), (k, n)),
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty dot products: C is the epilogue applied to zero.
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            match epi {
                Epilogue::None | Epilogue::Relu => row.fill(0.0),
                Epilogue::Bias(bias) => row.fill(bias[i]),
                Epilogue::BiasRelu(bias) => row.fill(bias[i].max(0.0)),
            }
        }
        return;
    }
    let kernel = bp.kernel.executes_as();
    dlsr_trace::counter_add(kernel.counter_key(), tile_count(bp, m, k, n));
    if !force_seq && bp.par == ParHint::Rows && rayon::current_num_threads() > 1 {
        gemm_rows_par::<E>(bp, kernel, apack, bsrc, c, m, k, n, epi);
    } else {
        gemm_seq::<E>(bp, kernel, apack, bsrc, c, m, k, n, epi);
    }
}

/// Multiply a prepacked A against any B source: `c[m×n] = A·B`, then apply
/// `epi`. `c` is overwritten.
///
/// `force_seq` pins the sequential driver — callers already inside a
/// batch-parallel region must not fan out again. Either way the result is
/// bitwise identical (see module docs).
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    bp: &Blueprint,
    apack: &[f32],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    force_seq: bool,
) {
    gemm_generic::<f32>(bp, apack, bsrc, c, m, k, n, epi, force_seq);
}

/// bf16-storage twin of [`gemm`]: packed panels hold bf16, accumulation is
/// f32. Not bitwise-comparable to the f32 path — the convergence test is
/// the contract.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bf16(
    bp: &Blueprint,
    apack: &[u16],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    force_seq: bool,
) {
    gemm_generic::<u16>(bp, apack, bsrc, c, m, k, n, epi, force_seq);
}

/// `C = A(m×k) · B(k×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_2d()?;
    let (k2, n) = b.shape().as_2d()?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![k],
            got: vec![k2],
            context: "matmul (inner dimensions)",
        });
    }
    let mut out = Tensor::zeros([m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// GEMM on raw slices: `c[m×n] = a[m×k] · b[k×n]`. `c` is overwritten.
///
/// Exposed so layers can reuse scratch buffers without constructing
/// intermediate `Tensor`s. Resolves the blueprint for the shape, packs A
/// into pooled scratch, and drives the staged-B engine.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    let bp = tune::select(m, k, n);
    let _span = dlsr_trace::span_with(
        || format!("gemm {m}x{k}x{n} {}", bp.kernel.executes_as().as_str()),
        dlsr_trace::cat::GEMM,
    );
    let mut apack = scratch::take(packed_a_len(&bp, m, k));
    pack_a(&bp, a, m, k, &mut apack);
    gemm(
        &bp,
        &apack,
        BSrc::Rows(b),
        c,
        m,
        k,
        n,
        Epilogue::None,
        false,
    );
}

/// `C = Aᵀ(k×m)ᵀ · B(k×n)` i.e. `C(m×n) = Σ_p a[p,i]·b[p,j]`, without
/// materializing the transpose. Used by linear-layer weight gradients.
pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    assert_eq!(a.len(), k * m);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    let bp = tune::select(m, k, n);
    let mut apack = scratch::take(packed_a_len(&bp, m, k));
    pack_a_transposed(&bp, a, m, k, &mut apack);
    gemm(
        &bp,
        &apack,
        BSrc::Rows(b),
        c,
        m,
        k,
        n,
        Epilogue::None,
        false,
    );
}

/// `C = A(m×k) · Bᵀ(n×k)ᵀ` i.e. `C(m×n) = Σ_p a[i,p]·b[j,p]`, without
/// materializing the transpose. Used by linear-layer input gradients.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    let bp = tune::select(m, k, n);
    let mut apack = scratch::take(packed_a_len(&bp, m, k));
    pack_a(&bp, a, m, k, &mut apack);
    gemm(
        &bp,
        &apack,
        BSrc::Cols(b),
        c,
        m,
        k,
        n,
        Epilogue::None,
        false,
    );
}

/// Transpose a 2-D tensor.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = a.shape().as_2d()?;
    let mut out = Tensor::zeros([n, m]);
    let src = a.data();
    out.data_mut()
        .par_chunks_mut(m)
        .enumerate()
        .for_each(|(j, orow)| {
            for (i, o) in orow.iter_mut().enumerate() {
                *o = src[i * n + j];
            }
        });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ALL_KERNELS;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn seq(len: usize, step: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * step).sin()).collect()
    }

    /// Run a GEMM under an explicit blueprint (bypassing the tune table).
    fn run_with(bp: &Blueprint, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut apack = vec![0.0; packed_a_len(bp, m, k)];
        pack_a(bp, a, m, k, &mut apack);
        let mut c = vec![0.0; m * n];
        gemm(
            bp,
            &apack,
            BSrc::Rows(b),
            &mut c,
            m,
            k,
            n,
            Epilogue::None,
            false,
        );
        c
    }

    fn scalar_bp(mr: usize, nr: usize, kc: usize, nc: usize) -> Blueprint {
        Blueprint {
            kernel: KernelId::Scalar,
            mr,
            nr,
            kc,
            nc,
            par: ParHint::Seq,
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matches_naive_rectangular() {
        let (m, k, n) = (7, 5, 9);
        let a = seq(m * k, 0.37);
        let b = seq(k * n, 0.21);
        let at = Tensor::from_vec([m, k], a.clone()).unwrap();
        let bt = Tensor::from_vec([k, n], b.clone()).unwrap();
        let c = matmul(&at, &bt).unwrap();
        let reference = naive(&a, &b, m, k, n);
        for (x, y) in c.data().iter().zip(reference.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    /// Shapes that cross every blocking boundary: edge panels in M and N,
    /// multiple KC blocks, multiple NC blocks, and the 1×1×1 degenerate.
    #[test]
    fn matches_naive_across_block_boundaries() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 7, 2),
            (4, 256, 16),
            (5, 259, 17),
            (5, 523, 33),
            (9, 40, 277),
            (11, 19, 513),
        ] {
            let a = seq(m * k, 0.013);
            let b = seq(k * n, 0.007);
            let mut c = vec![0.0; m * n];
            matmul_into(&a, &b, &mut c, m, k, n);
            let reference = naive(&a, &b, m, k, n);
            for (i, (x, y)) in c.iter().zip(reference.iter()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-3,
                    "({m},{k},{n}) element {i}: {x} vs {y}"
                );
            }
        }
    }

    /// The core contract: every executable kernel variant, at its own
    /// geometry, produces bitwise identical results to the geometry-free
    /// scalar oracle — given the same `kc`.
    #[test]
    fn all_variants_bitwise_equal() {
        for &(m, k, n) in &[(13usize, 300usize, 47usize), (64, 27, 130), (3, 576, 65)] {
            let a = seq(m * k, 0.019);
            let b = seq(k * n, 0.027);
            let kc = k.min(256);
            let oracle = run_with(&scalar_bp(4, 16, kc, 256), &a, &b, m, k, n);
            let oracle_bits: Vec<u32> = oracle.iter().map(|x| x.to_bits()).collect();
            for kid in ALL_KERNELS {
                if kid.executes_as() != kid {
                    continue;
                }
                let (mr, nr) = kid.geometry().unwrap_or((7, 16));
                let bp = Blueprint {
                    kernel: kid,
                    mr,
                    nr,
                    kc,
                    nc: (256 / nr).max(1) * nr,
                    par: ParHint::Seq,
                };
                let got = run_with(&bp, &a, &b, m, k, n);
                let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, oracle_bits, "{kid:?} diverged on ({m},{k},{n})");
            }
        }
    }

    /// The row-parallel driver and the sequential double-buffered driver
    /// must agree bitwise — thread-count determinism.
    #[test]
    fn rows_driver_matches_seq_bitwise() {
        let (m, k, n) = (23, 300, 290);
        let a = seq(m * k, 0.023);
        let b = seq(k * n, 0.011);
        let bp = scalar_bp(4, 16, 256, 256);
        let mut apack = vec![0.0; packed_a_len(&bp, m, k)];
        pack_a(&bp, &a, m, k, &mut apack);
        let mut c_seq = vec![0.0; m * n];
        gemm_seq::<f32>(
            &bp,
            KernelId::Scalar,
            &apack,
            BSrc::Rows(&b),
            &mut c_seq,
            m,
            k,
            n,
            Epilogue::None,
        );
        let mut c_par = vec![0.0; m * n];
        gemm_rows_par::<f32>(
            &bp,
            KernelId::Scalar,
            &apack,
            BSrc::Rows(&b),
            &mut c_par,
            m,
            k,
            n,
            Epilogue::None,
        );
        assert_eq!(c_seq, c_par);
    }

    /// The parallel decomposition is a row partition; computing any row
    /// subset independently must reproduce the full result bit for bit.
    /// Sub-shapes select different blueprints (different m), so this also
    /// pins geometry-invariance end to end through the tune table.
    #[test]
    fn row_partition_is_bitwise_deterministic() {
        let (m, k, n) = (11, 265, 277);
        let a = seq(m * k, 0.023);
        let b = seq(k * n, 0.011);
        let mut full = vec![0.0; m * n];
        matmul_into(&a, &b, &mut full, m, k, n);
        let m_top = 8;
        let mut top = vec![0.0; m_top * n];
        let mut bottom = vec![0.0; (m - m_top) * n];
        matmul_into(&a[..m_top * k], &b, &mut top, m_top, k, n);
        matmul_into(&a[m_top * k..], &b, &mut bottom, m - m_top, k, n);
        assert_eq!(&full[..m_top * n], &top[..]);
        assert_eq!(&full[m_top * n..], &bottom[..]);
    }

    #[test]
    fn epilogues_apply_after_full_sum() {
        let (m, k, n) = (6, 261, 10);
        let a = seq(m * k, 0.017);
        let b = seq(k * n, 0.029);
        let bias: Vec<f32> = (0..m).map(|i| i as f32 - 2.5).collect();
        let plain = naive(&a, &b, m, k, n);
        let bp = tune::select(m, k, n);
        let mut apack = vec![0.0; packed_a_len(&bp, m, k)];
        pack_a(&bp, &a, m, k, &mut apack);

        let mut c = vec![0.0; m * n];
        gemm(
            &bp,
            &apack,
            BSrc::Rows(&b),
            &mut c,
            m,
            k,
            n,
            Epilogue::Bias(&bias),
            false,
        );
        for i in 0..m {
            for j in 0..n {
                let want = plain[i * n + j] + bias[i];
                assert!((c[i * n + j] - want).abs() < 1e-3);
            }
        }

        gemm(
            &bp,
            &apack,
            BSrc::Rows(&b),
            &mut c,
            m,
            k,
            n,
            Epilogue::BiasRelu(&bias),
            false,
        );
        for i in 0..m {
            for j in 0..n {
                let want = (plain[i * n + j] + bias[i]).max(0.0);
                assert!((c[i * n + j] - want).abs() < 1e-3);
                assert!(c[i * n + j] >= 0.0);
            }
        }

        gemm(
            &bp,
            &apack,
            BSrc::Rows(&b),
            &mut c,
            m,
            k,
            n,
            Epilogue::Relu,
            false,
        );
        assert!(c.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn zero_k_applies_epilogue_to_zero() {
        let bp = scalar_bp(4, 16, 1, 256);
        let bias = [1.5f32, -2.0];
        let mut c = vec![9.0; 2 * 3];
        gemm(
            &bp,
            &[],
            BSrc::Rows(&[]),
            &mut c,
            2,
            0,
            3,
            Epilogue::BiasRelu(&bias),
            false,
        );
        assert_eq!(c, vec![1.5, 1.5, 1.5, 0.0, 0.0, 0.0]);
    }

    /// Materialize an im2col matrix the naive way (test oracle for the
    /// virtual views).
    fn naive_im2col(v: &Im2colView<'_>) -> Vec<f32> {
        let (k, n) = (v.rows(), v.cols());
        let mut col = vec![0.0; k * n];
        let khw = v.kh * v.kw;
        for row in 0..k {
            let (c, rem) = (row / khw, row % khw);
            let (ky, kx) = (rem / v.kw, rem % v.kw);
            for j in 0..n {
                let (oy, ox) = (j / v.w_out, j % v.w_out);
                let iy = (oy * v.stride + ky) as isize - v.padding as isize;
                let ix = (ox * v.stride + kx) as isize - v.padding as isize;
                if iy >= 0 && iy < v.h as isize && ix >= 0 && ix < v.w as isize {
                    col[row * n + j] = v.img[(c * v.h + iy as usize) * v.w + ix as usize];
                }
            }
        }
        col
    }

    /// The virtual im2col source must pack to exactly what packing the
    /// materialized column matrix would produce — bitwise.
    #[test]
    fn virtual_im2col_matches_materialized() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1), (3, 2)] {
            let (c_in, h, w, kh, kw) = (3, 9, 8, 3, 3);
            let img = seq(c_in * h * w, 0.05);
            let v = Im2colView::new(&img, (c_in, h, w), (kh, kw), stride, padding);
            let (k, n) = (v.rows(), v.cols());
            let col = naive_im2col(&v);
            let (m_a, a) = (5usize, seq(5 * k, 0.031));
            let bp = scalar_bp(4, 16, k.min(256), 64);
            let mut apack = vec![0.0; packed_a_len(&bp, m_a, k)];
            pack_a(&bp, &a, m_a, k, &mut apack);
            let mut c_virtual = vec![0.0; m_a * n];
            gemm(
                &bp,
                &apack,
                BSrc::Im2col(v),
                &mut c_virtual,
                m_a,
                k,
                n,
                Epilogue::None,
                false,
            );
            let mut c_mat = vec![0.0; m_a * n];
            gemm(
                &bp,
                &apack,
                BSrc::Rows(&col),
                &mut c_mat,
                m_a,
                k,
                n,
                Epilogue::None,
                false,
            );
            assert_eq!(c_virtual, c_mat, "stride={stride} padding={padding}");

            // Tap-major transposed view vs Cols over the same materialized
            // matrix, its rows permuted to `(ky, kx, c)`: B = colᵀ
            // (hw_out × k taps).
            let (xt, dims) = channels_last_padded(&img, (c_in, h, w), padding);
            let vt = TapMajorView::new(&xt, dims, (kh, kw), stride);
            assert_eq!((vt.rows(), vt.cols()), (n, k));
            let col_tm = tap_major_rows(&col, (c_in, kh, kw), n);
            let bp_t = scalar_bp(4, 16, n.min(256), 64);
            let (m_t, at) = (4usize, seq(4 * n, 0.043));
            let mut apack_t = vec![0.0; packed_a_len(&bp_t, m_t, n)];
            pack_a(&bp_t, &at, m_t, n, &mut apack_t);
            let mut c_tv = vec![0.0; m_t * k];
            gemm(
                &bp_t,
                &apack_t,
                BSrc::TapMajor(vt),
                &mut c_tv,
                m_t,
                n,
                k,
                Epilogue::None,
                false,
            );
            let mut c_tc = vec![0.0; m_t * k];
            gemm(
                &bp_t,
                &apack_t,
                BSrc::Cols(&col_tm),
                &mut c_tc,
                m_t,
                n,
                k,
                Epilogue::None,
                false,
            );
            assert_eq!(c_tv, c_tc, "transposed stride={stride} padding={padding}");
        }
    }

    /// A zero-bordered channels-last copy `[h + 2·pad, w + 2·pad, c_in]` of
    /// a `[c_in, h, w]` image, element by element, and its `(c, ph, pw)`.
    fn channels_last_padded(
        img: &[f32],
        (c_in, h, w): (usize, usize, usize),
        pad: usize,
    ) -> (Vec<f32>, (usize, usize, usize)) {
        let (ph, pw) = (h + 2 * pad, w + 2 * pad);
        let mut xt = vec![0.0; ph * pw * c_in];
        for c in 0..c_in {
            for y in 0..h {
                for x in 0..w {
                    xt[((y + pad) * pw + x + pad) * c_in + c] = img[(c * h + y) * w + x];
                }
            }
        }
        (xt, (c_in, ph, pw))
    }

    /// The rows of a channel-major `[(c, ky, kx), n]` matrix in tap-major
    /// `(ky, kx, c)` order.
    fn tap_major_rows(col: &[f32], (c_in, kh, kw): (usize, usize, usize), n: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(col.len());
        for ky in 0..kh {
            for kx in 0..kw {
                for c in 0..c_in {
                    let row = (c * kh + ky) * kw + kx;
                    out.extend_from_slice(&col[row * n..(row + 1) * n]);
                }
            }
        }
        out
    }

    /// Every staged block `pack_b_block` cuts from `src` equals the block it
    /// cuts from `oracle` (a plain materialized source of the same matrix),
    /// element for element, over `nr`/`kc`/`nc` choices that leave ragged
    /// last panels and blocks.
    fn assert_blocks_equal(src: BSrc<'_>, oracle: BSrc<'_>, k: usize, n: usize) {
        for (nr, kc, nc) in [(16, 5, 32), (8, 7, 16), (4, k, 8), (32, 3, 32)] {
            let bp = scalar_bp(4, nr, kc, nc);
            for jc in (0..n).step_by(nc) {
                let ncb = nc.min(n - jc).div_ceil(nr) * nr;
                for kb in (0..k).step_by(kc) {
                    let kcb = kc.min(k - kb);
                    let mut got = vec![f32::NAN; ncb * kcb];
                    let mut want = vec![0.0; ncb * kcb];
                    pack_b_block::<f32>(&bp, src, k, n, jc, ncb, kb, kcb, &mut got);
                    pack_b_block::<f32>(&bp, oracle, k, n, jc, ncb, kb, kcb, &mut want);
                    assert_eq!(got, want, "nr={nr} kc={kc} nc={nc} jc={jc} kb={kb}");
                }
            }
        }
    }

    /// The run packer over a zero-bordered copy packs what the row packer
    /// packs from the materialized column matrix of the unpadded image:
    /// panels that cross several output rows, output rows narrower than a
    /// panel, one-pixel-wide images, kernels as wide as the image.
    #[test]
    fn run_packer_matches_materialized_im2col() {
        for (c_in, (h, w), (kh, kw), pad) in [
            (2, (5, 7), (3, 3), 1),
            (1, (4, 1), (3, 1), 1),
            (3, (3, 4), (1, 3), 0),
            (2, (2, 3), (3, 3), 2),
        ] {
            let img = seq(c_in * h * w, 0.07);
            let (ph, pw) = (h + 2 * pad, w + 2 * pad);
            let mut padded = vec![0.0; c_in * ph * pw];
            for c in 0..c_in {
                for y in 0..h {
                    let dst = (c * ph + y + pad) * pw + pad;
                    padded[dst..dst + w].copy_from_slice(&img[(c * h + y) * w..][..w]);
                }
            }
            let v = Im2colView::new(&padded, (c_in, ph, pw), (kh, kw), 1, 0);
            assert!(v.contiguous_runs());
            let col = naive_im2col(&Im2colView::new(&img, (c_in, h, w), (kh, kw), 1, pad));
            let (k, n) = (v.rows(), v.cols());
            assert_blocks_equal(BSrc::Im2col(v), BSrc::Rows(&col), k, n);
        }
    }

    /// The tap-major packer packs what the column packer packs from the
    /// materialized, row-permuted column matrix: runs that cross kernel
    /// rows (`kw·c_in` below a panel), runs longer than a panel, strides 1
    /// and 2.
    #[test]
    fn tap_major_packer_matches_materialized_im2col() {
        for (c_in, (h, w), (kh, kw), stride, pad) in [
            (3, (5, 6), (3, 3), 1, 1),
            (1, (4, 5), (3, 3), 2, 1),
            (11, (3, 3), (3, 1), 1, 0),
            (2, (1, 4), (1, 3), 1, 0),
        ] {
            let img = seq(c_in * h * w, 0.09);
            let (xt, dims) = channels_last_padded(&img, (c_in, h, w), pad);
            let v = TapMajorView::new(&xt, dims, (kh, kw), stride);
            let col = naive_im2col(&Im2colView::new(&img, (c_in, h, w), (kh, kw), stride, pad));
            let (k, n) = (v.rows(), v.cols());
            let col_tm = tap_major_rows(&col, (c_in, kh, kw), k);
            assert_blocks_equal(BSrc::TapMajor(v), BSrc::Cols(&col_tm), k, n);
        }
    }

    #[test]
    fn inner_dim_mismatch_is_error() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let (k, m, n) = (262, 4, 5);
        let a = seq(k * m, 0.11);
        let b = seq(k * n, 0.07);
        let mut c = vec![0.0; m * n];
        matmul_at_b(&a, &b, &mut c, k, m, n);
        let at = transpose(&Tensor::from_vec([k, m], a).unwrap()).unwrap();
        let reference = matmul(&at, &Tensor::from_vec([k, n], b).unwrap()).unwrap();
        for (x, y) in c.iter().zip(reference.data().iter()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let (m, k, n) = (4, 262, 5);
        let a = seq(m * k, 0.13);
        let b = seq(n * k, 0.05);
        let mut c = vec![0.0; m * n];
        matmul_a_bt(&a, &b, &mut c, m, k, n);
        let bt = transpose(&Tensor::from_vec([n, k], b).unwrap()).unwrap();
        let reference = matmul(&Tensor::from_vec([m, k], a).unwrap(), &bt).unwrap();
        for (x, y) in c.iter().zip(reference.data().iter()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(transpose(&t).unwrap(), a);
    }

    /// bf16 storage loses precision but must stay close on tame inputs,
    /// and be identical between B-source kinds.
    #[test]
    fn bf16_gemm_tracks_f32() {
        let (m, k, n) = (6, 70, 40);
        let a = seq(m * k, 0.021);
        let b = seq(k * n, 0.033);
        let bp = scalar_bp(6, 16, 70, 256);
        let mut apack = vec![0u16; packed_a_len(&bp, m, k)];
        pack_a_bf16(&bp, &a, m, k, false, &mut apack);
        let mut c = vec![0.0; m * n];
        gemm_bf16(
            &bp,
            &apack,
            BSrc::Rows(&b),
            &mut c,
            m,
            k,
            n,
            Epilogue::None,
            false,
        );
        let reference = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(reference.iter()) {
            // ~2^-8 relative per product, accumulated over k=70 terms.
            assert!((x - y).abs() < 0.15, "{x} vs {y}");
        }
    }
}
