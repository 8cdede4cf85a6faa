//! SIMD GEMM microkernels and the runtime-dispatch layer.
//!
//! Every kernel here computes one `MR×NR` register tile of
//! `C += Apanel(kc×MR) · Bpanel(kc×NR)` from zero-initialized accumulators,
//! walking the packed panels in ascending `p` order and performing one
//! **fused multiply-add per product** — the scalar fallback uses
//! [`f32::mul_add`], the x86 kernels use FMA intrinsics. Because an FMA is
//! a single correctly-rounded operation, every variant produces **bitwise
//! identical** accumulator tiles for the same panels: the dispatch decision
//! (scalar vs AVX2 vs AVX-512, and the tile geometry) is a pure performance
//! knob, never a numerics knob. The property tests in
//! `tests/properties.rs` assert this exactly (`assert_eq!` on the bits, no
//! tolerance), and the training digest inherits it (see `docs/KERNELS.md`).
//!
//! # Dispatch
//!
//! [`isa`] detects the instruction set once per process:
//! - `DLSR_FORCE_SCALAR=1` pins the scalar fallback (the CI oracle job),
//! - under Miri everything runs scalar (the interpreter does not model
//!   AVX-512, and the scalar path covers the safe packing code),
//! - on x86-64, AVX2+FMA is the workspace baseline (see
//!   `.cargo/config.toml`) and AVX-512F is probed at runtime,
//! - on every other architecture (aarch64 included — a NEON kernel is a
//!   documented follow-up) the scalar fallback runs.
//!
//! A blueprint naming a kernel the running machine cannot execute (say, a
//! tune cache written on an AVX-512 host loaded under `DLSR_FORCE_SCALAR`)
//! is *downgraded in place*: the scalar kernel runs the same `MR×NR`
//! geometry, so the arithmetic — and the digest — is unchanged.
//!
//! # Safety
//!
//! This is the only module in the workspace that contains `unsafe` code.
//! It is confined to the x86 intrinsic kernels: raw-pointer loads/stores
//! into panels whose lengths the safe callers assert, and `target_feature`
//! calls guarded by the one-time CPU probe. Each block carries a
//! `// SAFETY:` comment; `dlsr-lint` and `clippy::undocumented_unsafe_blocks`
//! both enforce that.

// SAFETY justification for the module-level opt-out: `lib.rs` denies
// unsafe code crate-wide; the SIMD kernels below are the sanctioned
// exception, audited by the Miri CI job and the bitwise oracle tests.
#![allow(unsafe_code)]

/// Widest tile height any kernel uses; sizes stack accumulators.
pub const MAX_MR: usize = 16;
/// Widest tile width any kernel uses; sizes stack accumulators.
pub const MAX_NR: usize = 32;

/// Instruction sets the dispatcher distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// Portable fallback: scalar `f32::mul_add` loops.
    Scalar,
    /// AVX2 + FMA (the x86-64 workspace baseline).
    Avx2,
    /// AVX-512F, runtime-probed.
    Avx512,
}

impl Isa {
    fn detect() -> Isa {
        if std::env::var_os("DLSR_FORCE_SCALAR").is_some_and(|v| v == "1") {
            return Isa::Scalar;
        }
        if cfg!(miri) {
            // Miri does not model the AVX-512 intrinsics; the scalar path
            // exercises all safe packing/driver code under the interpreter.
            return Isa::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            // AVX2+FMA is compiled in unconditionally for x86-64 (see
            // .cargo/config.toml), but honor a machine that lacks it.
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    }
}

/// The detected instruction set, probed once per process (reads
/// `DLSR_FORCE_SCALAR` at the same time, so the answer never changes
/// mid-run).
pub fn isa() -> Isa {
    static ISA: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ISA.get_or_init(Isa::detect)
}

/// A microkernel variant. The name encodes ISA and tile geometry;
/// [`KernelId::Scalar`] is geometry-free (the blueprint's `mr`/`nr` drive
/// the generic loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelId {
    /// Generic scalar loops, any `mr×nr` up to [`MAX_MR`]×[`MAX_NR`].
    Scalar,
    /// AVX2+FMA, 4 rows × 16 columns (8 ymm accumulators).
    Avx2F4x16,
    /// AVX2+FMA, 6 rows × 16 columns (12 ymm accumulators).
    Avx2F6x16,
    /// AVX-512F, 8 rows × 32 columns (16 zmm accumulators).
    Avx512F8x32,
    /// AVX-512F, 14 rows × 32 columns (28 zmm accumulators).
    Avx512F14x32,
}

/// Every variant, in descending preference order for the selector.
pub const ALL_KERNELS: [KernelId; 5] = [
    KernelId::Avx512F14x32,
    KernelId::Avx512F8x32,
    KernelId::Avx2F6x16,
    KernelId::Avx2F4x16,
    KernelId::Scalar,
];

impl KernelId {
    /// `(mr, nr)` tile geometry; `None` for the geometry-free scalar kernel.
    pub fn geometry(self) -> Option<(usize, usize)> {
        match self {
            KernelId::Scalar => None,
            KernelId::Avx2F4x16 => Some((4, 16)),
            KernelId::Avx2F6x16 => Some((6, 16)),
            KernelId::Avx512F8x32 => Some((8, 32)),
            KernelId::Avx512F14x32 => Some((14, 32)),
        }
    }

    /// Minimum ISA this kernel needs.
    pub fn requires(self) -> Isa {
        match self {
            KernelId::Scalar => Isa::Scalar,
            KernelId::Avx2F4x16 | KernelId::Avx2F6x16 => Isa::Avx2,
            KernelId::Avx512F8x32 | KernelId::Avx512F14x32 => Isa::Avx512,
        }
    }

    /// Stable name used in the tune-cache file and trace span labels.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelId::Scalar => "scalar",
            KernelId::Avx2F4x16 => "avx2_4x16",
            KernelId::Avx2F6x16 => "avx2_6x16",
            KernelId::Avx512F8x32 => "avx512_8x32",
            KernelId::Avx512F14x32 => "avx512_14x32",
        }
    }

    /// Inverse of [`KernelId::as_str`] (tune-cache parsing).
    pub fn from_str_opt(s: &str) -> Option<KernelId> {
        ALL_KERNELS.iter().copied().find(|k| k.as_str() == s)
    }

    /// `dlsr-trace` counter key counting tiles served by this variant.
    pub fn counter_key(self) -> &'static str {
        match self {
            KernelId::Scalar => "gemm.variant.scalar",
            KernelId::Avx2F4x16 => "gemm.variant.avx2_4x16",
            KernelId::Avx2F6x16 => "gemm.variant.avx2_6x16",
            KernelId::Avx512F8x32 => "gemm.variant.avx512_8x32",
            KernelId::Avx512F14x32 => "gemm.variant.avx512_14x32",
        }
    }

    /// The variant that will actually execute on this machine: `self` when
    /// the ISA allows it, otherwise the scalar kernel run at the *same*
    /// geometry (bitwise-identical results, see module docs).
    pub fn executes_as(self) -> KernelId {
        if self.requires() <= isa() {
            self
        } else {
            KernelId::Scalar
        }
    }
}

/// Run one microkernel tile: `acc[0..mr*nr] = Apanel · Bpanel` with
/// accumulators starting at zero. `apan` is `kc×mr` p-major, `bpan` is
/// `kc×nr` p-major, `acc` is row-major `mr×nr`.
///
/// `kernel` must already be executable ([`KernelId::executes_as`]); for
/// [`KernelId::Scalar`] the geometry comes from `mr`/`nr`, for SIMD
/// kernels `mr`/`nr` must equal the kernel's fixed geometry.
#[inline]
#[cfg_attr(any(), dlsr::hot)]
pub(crate) fn run_tile(
    kernel: KernelId,
    apan: &[f32],
    bpan: &[f32],
    kc: usize,
    mr: usize,
    nr: usize,
    acc: &mut [f32],
) {
    debug_assert!(apan.len() >= kc * mr);
    debug_assert!(bpan.len() >= kc * nr);
    debug_assert!(acc.len() >= mr * nr);
    debug_assert_eq!(kernel.geometry().unwrap_or((mr, nr)), (mr, nr));
    match kernel {
        KernelId::Scalar => microkernel_scalar(apan, bpan, kc, mr, nr, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers pass kernels through `executes_as`, so reaching a
        // SIMD arm implies `isa()` probed the required CPU features; panel
        // and accumulator lengths are asserted above.
        KernelId::Avx2F4x16 => unsafe { microkernel_avx2_4x16(apan, bpan, kc, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2+FMA verified by the dispatch probe.
        KernelId::Avx2F6x16 => unsafe { microkernel_avx2_6x16(apan, bpan, kc, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX-512F verified by the dispatch probe.
        KernelId::Avx512F8x32 => unsafe { microkernel_avx512_8x32(apan, bpan, kc, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX-512F verified by the dispatch probe.
        KernelId::Avx512F14x32 => unsafe { microkernel_avx512_14x32(apan, bpan, kc, acc) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => microkernel_scalar(apan, bpan, kc, mr, nr, acc),
    }
}

/// Portable oracle kernel: the exact per-element FMA chain every SIMD
/// kernel reproduces. Geometry-free — `mr`/`nr` are runtime values.
#[cfg_attr(any(), dlsr::hot)]
fn microkernel_scalar(
    apan: &[f32],
    bpan: &[f32],
    kc: usize,
    mr: usize,
    nr: usize,
    acc: &mut [f32],
) {
    acc[..mr * nr].fill(0.0);
    for p in 0..kc {
        let arow = &apan[p * mr..(p + 1) * mr];
        let brow = &bpan[p * nr..(p + 1) * nr];
        for (i, &av) in arow.iter().enumerate() {
            let accrow = &mut acc[i * nr..(i + 1) * nr];
            for (d, &bv) in accrow.iter_mut().zip(brow) {
                // One fused multiply-add per product — bitwise identical
                // to the hardware FMA the SIMD kernels issue.
                *d = av.mul_add(bv, *d);
            }
        }
    }
}

/// Generates an AVX2+FMA microkernel with `$mr` rows × 16 columns:
/// `$mr × 2` ymm accumulators, B streamed as two 8-lane loads per `p`,
/// A broadcast per row.
#[cfg(target_arch = "x86_64")]
macro_rules! avx2_kernel {
    ($name:ident, $mr:expr) => {
        #[target_feature(enable = "avx2,fma")]
        #[cfg_attr(any(), dlsr::hot)]
        // SAFETY: callers must ensure the CPU supports AVX2+FMA (checked
        // by `run_tile` via `executes_as()`); panel/acc length
        // preconditions are debug-asserted below.
        unsafe fn $name(apan: &[f32], bpan: &[f32], kc: usize, acc: &mut [f32]) {
            use std::arch::x86_64::*;
            const MR: usize = $mr;
            debug_assert!(apan.len() >= kc * MR);
            debug_assert!(bpan.len() >= kc * 16);
            debug_assert!(acc.len() >= MR * 16);
            let mut c = [_mm256_setzero_ps(); MR * 2];
            let a = apan.as_ptr();
            let b = bpan.as_ptr();
            for p in 0..kc {
                // SAFETY: `p < kc` and the panels hold `kc` rows of MR
                // (A) and 16 (B) floats, so every offset below is in
                // bounds; loadu tolerates any alignment.
                unsafe {
                    let b0 = _mm256_loadu_ps(b.add(p * 16));
                    let b1 = _mm256_loadu_ps(b.add(p * 16 + 8));
                    let ap = a.add(p * MR);
                    for i in 0..MR {
                        let av = _mm256_set1_ps(*ap.add(i));
                        c[2 * i] = _mm256_fmadd_ps(av, b0, c[2 * i]);
                        c[2 * i + 1] = _mm256_fmadd_ps(av, b1, c[2 * i + 1]);
                    }
                }
            }
            let out = acc.as_mut_ptr();
            for i in 0..MR {
                // SAFETY: `acc` holds at least MR*16 floats (asserted
                // above), so rows 0..MR of 16 are in bounds.
                unsafe {
                    _mm256_storeu_ps(out.add(i * 16), c[2 * i]);
                    _mm256_storeu_ps(out.add(i * 16 + 8), c[2 * i + 1]);
                }
            }
        }
    };
}

/// Generates an AVX-512F microkernel with `$mr` rows × 32 columns:
/// `$mr × 2` zmm accumulators, B streamed as two 16-lane loads per `p`.
#[cfg(target_arch = "x86_64")]
macro_rules! avx512_kernel {
    ($name:ident, $mr:expr) => {
        #[target_feature(enable = "avx512f")]
        #[cfg_attr(any(), dlsr::hot)]
        // SAFETY: callers must ensure the CPU supports AVX-512F (checked
        // by `run_tile` via `executes_as()`); panel/acc length
        // preconditions are debug-asserted below.
        unsafe fn $name(apan: &[f32], bpan: &[f32], kc: usize, acc: &mut [f32]) {
            use std::arch::x86_64::*;
            const MR: usize = $mr;
            debug_assert!(apan.len() >= kc * MR);
            debug_assert!(bpan.len() >= kc * 32);
            debug_assert!(acc.len() >= MR * 32);
            let mut c = [_mm512_setzero_ps(); MR * 2];
            let a = apan.as_ptr();
            let b = bpan.as_ptr();
            for p in 0..kc {
                // SAFETY: `p < kc` and the panels hold `kc` rows of MR
                // (A) and 32 (B) floats, so every offset below is in
                // bounds; loadu tolerates any alignment.
                unsafe {
                    let b0 = _mm512_loadu_ps(b.add(p * 32));
                    let b1 = _mm512_loadu_ps(b.add(p * 32 + 16));
                    let ap = a.add(p * MR);
                    for i in 0..MR {
                        let av = _mm512_set1_ps(*ap.add(i));
                        c[2 * i] = _mm512_fmadd_ps(av, b0, c[2 * i]);
                        c[2 * i + 1] = _mm512_fmadd_ps(av, b1, c[2 * i + 1]);
                    }
                }
            }
            let out = acc.as_mut_ptr();
            for i in 0..MR {
                // SAFETY: `acc` holds at least MR*32 floats (asserted
                // above), so rows 0..MR of 32 are in bounds.
                unsafe {
                    _mm512_storeu_ps(out.add(i * 32), c[2 * i]);
                    _mm512_storeu_ps(out.add(i * 32 + 16), c[2 * i + 1]);
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
avx2_kernel!(microkernel_avx2_4x16, 4);
#[cfg(target_arch = "x86_64")]
avx2_kernel!(microkernel_avx2_6x16, 6);
#[cfg(target_arch = "x86_64")]
avx512_kernel!(microkernel_avx512_8x32, 8);
#[cfg(target_arch = "x86_64")]
avx512_kernel!(microkernel_avx512_14x32, 14);

// ---------------------------------------------------------------------------
// The pack-free conv kernels' inner loop (`crate::conv`): a register tile
// walks a chain of broadcast × run products read in place, no panels.
// ---------------------------------------------------------------------------

/// A register tile of the pack-free conv kernels: `CB` rows (channels) of
/// `L` lanes (positions or weight-gradient columns).
pub(crate) type Tile<const CB: usize, const L: usize> = [[f32; L]; CB];

/// Whether [`fma_chain`] runs a tile `L` lanes wide on AVX-512 here, so
/// the pack-free kernels pick 32-lane tiles (8 rows × 2 zmm) over the
/// AVX2-sized ones.
pub(crate) fn wide_tiles() -> bool {
    isa() == Isa::Avx512
}

/// How [`fma_chain`] lands its tile in the rows `cb` of `L` floats at
/// `at + cb·pitch` of a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Land {
    /// Store the tile.
    Store,
    /// Add the tile onto the rows, one add per element.
    Add,
}

/// For each `(gi, xi)` of `steps` in turn, `t[cb][l] = g[gi + cb] ·
/// x[xi + l] + t[cb][l]` — one fused multiply-add per product, the chain
/// every GEMM microkernel runs, so the AVX-512 body (when `L` is 16 or 32
/// and [`wide_tiles`]) and the safe body agree bit for bit — from a zero
/// tile `t`, landed in rows `at + cb·pitch` of `dst` as `land` says.
#[inline]
#[cfg_attr(any(), dlsr::hot)]
pub(crate) fn fma_chain<const CB: usize, const L: usize>(
    dst: &mut [f32],
    (at, pitch): (usize, usize),
    land: Land,
    g: &[f32],
    x: &[f32],
    steps: impl Iterator<Item = (usize, usize)>,
) {
    let rows = &mut dst[at..at + (CB - 1) * pitch + L];
    #[cfg(target_arch = "x86_64")]
    if wide_tiles() {
        match L {
            // SAFETY: `wide_tiles` means the dispatch probe verified
            // AVX-512F; the body bounds-checks every operand it reads and
            // `rows` holds every row it touches.
            16 => return unsafe { fma_chain_avx512::<CB, 1>(rows, pitch, land, g, x, steps) },
            // SAFETY: as above.
            32 => return unsafe { fma_chain_avx512::<CB, 2>(rows, pitch, land, g, x, steps) },
            _ => {}
        }
    }
    fma_chain_scalar::<CB, L>(rows, pitch, land, g, x, steps);
}

/// Portable twin of the AVX-512 [`fma_chain`] body: `f32::mul_add` over
/// the tile. Out of line, so the tile is loaded into registers once, stays
/// there for the whole chain (AVX2 holds an 8- to 9-vector tile) and is
/// landed once.
#[inline(never)]
#[cfg_attr(any(), dlsr::hot)]
fn fma_chain_scalar<const CB: usize, const L: usize>(
    rows: &mut [f32],
    pitch: usize,
    land: Land,
    g: &[f32],
    x: &[f32],
    steps: impl Iterator<Item = (usize, usize)>,
) {
    let mut t: Tile<CB, L> = [[0.0; L]; CB];
    for (gi, xi) in steps {
        let gv: &[f32; CB] = g[gi..gi + CB].try_into().expect("CB broadcasts");
        let xv: &[f32; L] = x[xi..xi + L].try_into().expect("L lanes");
        for (row, &gv) in t.iter_mut().zip(gv) {
            for (a, &xv) in row.iter_mut().zip(xv) {
                *a = gv.mul_add(xv, *a);
            }
        }
    }
    for (cb, t) in t.iter().enumerate() {
        let d = &mut rows[cb * pitch..][..L];
        if land == Land::Add {
            for (d, &t) in d.iter_mut().zip(t) {
                *d += t;
            }
        } else {
            d.copy_from_slice(t);
        }
    }
}

/// AVX-512F body of [`fma_chain`] for a tile of `CB` rows × `V` zmm
/// vectors, row `cb` at `rows[cb·pitch..][..16V]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[cfg_attr(any(), dlsr::hot)]
// SAFETY: callers must ensure the CPU supports AVX-512F (`fma_chain`
// checks `wide_tiles`); every load and store below is bounds-checked
// against its slice first.
unsafe fn fma_chain_avx512<const CB: usize, const V: usize>(
    rows: &mut [f32],
    pitch: usize,
    land: Land,
    g: &[f32],
    x: &[f32],
    steps: impl Iterator<Item = (usize, usize)>,
) {
    use std::arch::x86_64::*;
    assert!(CB == 0 || (CB - 1) * pitch + 16 * V <= rows.len());
    let mut c = [[_mm512_setzero_ps(); V]; CB];
    for (gi, xi) in steps {
        let gv = &g[gi..gi + CB];
        let xv = &x[xi..xi + 16 * V];
        let mut xr = [_mm512_setzero_ps(); V];
        for (v, r) in xr.iter_mut().enumerate() {
            // SAFETY: `xv` holds 16·V floats, so lanes `16v..16v + 16` are
            // in bounds; loadu tolerates any alignment.
            *r = unsafe { _mm512_loadu_ps(xv.as_ptr().add(16 * v)) };
        }
        for (row, &gv) in c.iter_mut().zip(gv) {
            let b = _mm512_set1_ps(gv);
            for (r, &xr) in row.iter_mut().zip(&xr) {
                *r = _mm512_fmadd_ps(b, xr, *r);
            }
        }
    }
    for (cb, row) in c.iter().enumerate() {
        for (v, &r) in row.iter().enumerate() {
            // SAFETY: `cb·pitch + 16v + 16 <= rows.len()` (asserted).
            unsafe {
                let d = rows.as_mut_ptr().add(cb * pitch + 16 * v);
                let r = match land {
                    Land::Add => _mm512_add_ps(_mm512_loadu_ps(d), r),
                    Land::Store => r,
                };
                _mm512_storeu_ps(d, r);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// bf16 storage (`Conv2dParams::bf16`): packed panels hold bf16, accumulation
// stays f32. Not part of any bitwise contract — convergence equivalence is
// the test bar (see tests/bf16_convergence.rs).
// ---------------------------------------------------------------------------

/// Round-to-nearest-even truncation of an `f32` to bf16 bits.
#[inline]
pub fn f32_to_bf16(x: f32) -> u16 {
    let b = x.to_bits();
    let round = ((b >> 16) & 1).wrapping_add(0x7fff);
    (b.wrapping_add(round) >> 16) as u16
}

/// Widen bf16 bits back to `f32` (exact).
#[inline]
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// bf16 tile kernel: panels hold bf16, accumulators are f32. Dispatches
/// to an AVX2 widening kernel for the 6×16 geometry, scalar otherwise.
#[inline]
#[cfg_attr(any(), dlsr::hot)]
pub(crate) fn run_tile_bf16(
    kernel: KernelId,
    apan: &[u16],
    bpan: &[u16],
    kc: usize,
    mr: usize,
    nr: usize,
    acc: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if kernel.executes_as().requires() >= Isa::Avx2 && (mr, nr) == (6, 16) {
        // SAFETY: the dispatch probe verified AVX2+FMA; panel lengths are
        // checked by the kernel's own debug asserts and the callers'
        // packing invariants (kc rows of mr/nr elements).
        unsafe { microkernel_bf16_avx2_6x16(apan, bpan, kc, acc) };
        return;
    }
    let _ = kernel;
    microkernel_bf16_scalar(apan, bpan, kc, mr, nr, acc);
}

#[cfg_attr(any(), dlsr::hot)]
fn microkernel_bf16_scalar(
    apan: &[u16],
    bpan: &[u16],
    kc: usize,
    mr: usize,
    nr: usize,
    acc: &mut [f32],
) {
    acc[..mr * nr].fill(0.0);
    for p in 0..kc {
        let arow = &apan[p * mr..(p + 1) * mr];
        let brow = &bpan[p * nr..(p + 1) * nr];
        for (i, &ah) in arow.iter().enumerate() {
            let av = bf16_to_f32(ah);
            let accrow = &mut acc[i * nr..(i + 1) * nr];
            for (d, &bh) in accrow.iter_mut().zip(brow) {
                *d = av.mul_add(bf16_to_f32(bh), *d);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[cfg_attr(any(), dlsr::hot)]
// SAFETY: callers must ensure the CPU supports AVX2+FMA (checked by
// `run_tile_bf16` via `executes_as()`); panel/acc length preconditions
// are debug-asserted below.
unsafe fn microkernel_bf16_avx2_6x16(apan: &[u16], bpan: &[u16], kc: usize, acc: &mut [f32]) {
    use std::arch::x86_64::*;
    debug_assert!(apan.len() >= kc * 6);
    debug_assert!(bpan.len() >= kc * 16);
    debug_assert!(acc.len() >= 96);
    let mut c = [_mm256_setzero_ps(); 12];
    let a = apan.as_ptr();
    let b = bpan.as_ptr();
    for p in 0..kc {
        // SAFETY: `p < kc`; the B panel holds `kc` rows of 16 bf16 values
        // and the A panel `kc` rows of 6, so the 128-bit loads and scalar
        // reads below are in bounds; loadu tolerates any alignment.
        unsafe {
            // Widen 8+8 bf16 lanes to f32 by a 16-bit left shift.
            let raw0 = _mm_loadu_si128(b.add(p * 16) as *const __m128i);
            let raw1 = _mm_loadu_si128(b.add(p * 16 + 8) as *const __m128i);
            let b0 = _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw0)));
            let b1 = _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw1)));
            let ap = a.add(p * 6);
            for i in 0..6 {
                let av = _mm256_set1_ps(f32::from_bits((*ap.add(i) as u32) << 16));
                c[2 * i] = _mm256_fmadd_ps(av, b0, c[2 * i]);
                c[2 * i + 1] = _mm256_fmadd_ps(av, b1, c[2 * i + 1]);
            }
        }
    }
    let out = acc.as_mut_ptr();
    for i in 0..6 {
        // SAFETY: `acc` holds at least 96 floats (asserted above).
        unsafe {
            _mm256_storeu_ps(out.add(i * 16), c[2 * i]);
            _mm256_storeu_ps(out.add(i * 16 + 8), c[2 * i + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels(kc: usize, mr: usize, nr: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..kc * mr).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| (i as f32 * 0.21).cos()).collect();
        (a, b)
    }

    /// Every executable SIMD kernel must reproduce the scalar FMA chain
    /// bit for bit — this is the foundation of the variant-invariant
    /// digest contract.
    #[test]
    fn simd_kernels_match_scalar_bitwise() {
        for kernel in ALL_KERNELS {
            if kernel == KernelId::Scalar || kernel.executes_as() != kernel {
                continue; // not executable on this machine
            }
            let (mr, nr) = kernel.geometry().unwrap();
            for kc in [1usize, 2, 7, 64, 255] {
                let (a, b) = panels(kc, mr, nr);
                let mut simd = vec![0.0f32; mr * nr];
                let mut scalar = vec![0.0f32; mr * nr];
                run_tile(kernel, &a, &b, kc, mr, nr, &mut simd);
                run_tile(KernelId::Scalar, &a, &b, kc, mr, nr, &mut scalar);
                let sb: Vec<u32> = simd.iter().map(|x| x.to_bits()).collect();
                let cb: Vec<u32> = scalar.iter().map(|x| x.to_bits()).collect();
                assert_eq!(sb, cb, "{kernel:?} kc={kc} diverged from scalar oracle");
            }
        }
    }

    /// The AVX-512 `fma_chain` body reproduces its safe twin bit for bit
    /// for every tile shape the pack-free conv kernels use and every
    /// `Land`, over uniform and irregular step offsets and rows at a pitch
    /// (where AVX-512 is missing, or under Miri, both sides run the safe
    /// body).
    #[test]
    fn fma_chain_matches_scalar_twin_bitwise() {
        fn check<const CB: usize, const L: usize>() {
            let g: Vec<f32> = (0..400).map(|i| (i as f32 * 0.37).sin()).collect();
            let x: Vec<f32> = (0..900).map(|i| (i as f32 * 0.21).cos()).collect();
            let steps = |n: usize| (0..n).map(|i| (i * 7 % 300, i * i % 600));
            let (at, pitch) = (3, L + 5);
            let start: Vec<f32> = (0..at + CB * pitch).map(|i| i as f32 * 0.5 - 9.0).collect();
            for land in [Land::Store, Land::Add] {
                for n in [0usize, 1, 9, 40] {
                    let (mut via, mut twin) = (start.clone(), start.clone());
                    fma_chain::<CB, L>(&mut via, (at, pitch), land, &g, &x, steps(n));
                    let rows = &mut twin[at..at + (CB - 1) * pitch + L];
                    fma_chain_scalar::<CB, L>(rows, pitch, land, &g, &x, steps(n));
                    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&via), bits(&twin), "CB={CB} L={L} {land:?} n={n}");
                }
            }
        }
        check::<1, 16>();
        check::<3, 32>();
        check::<8, 32>();
        check::<5, 16>();
        check::<4, 16>();
        check::<3, 24>();
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in ALL_KERNELS {
            assert_eq!(KernelId::from_str_opt(k.as_str()), Some(k));
        }
        assert_eq!(KernelId::from_str_opt("no_such_kernel"), None);
    }

    #[test]
    fn downgrade_preserves_geometry_freedom() {
        // Whatever the machine, the scalar kernel executes everywhere.
        assert_eq!(KernelId::Scalar.executes_as(), KernelId::Scalar);
        // And a downgraded kernel always lands on something executable.
        for k in ALL_KERNELS {
            assert!(k.executes_as().requires() <= isa());
        }
    }

    #[test]
    fn bf16_round_trip_and_rounding() {
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0)), 1.0);
        assert_eq!(bf16_to_f32(f32_to_bf16(-2.5)), -2.5);
        // Round-to-nearest-even: 1.0 + 2^-9 rounds back down to 1.0.
        let x = f32::from_bits(0x3f80_0040);
        assert_eq!(bf16_to_f32(f32_to_bf16(x)), 1.0);
        // Relative error bounded by the 8-bit mantissa.
        for i in 0..1000 {
            let v = (i as f32 * 0.173).sin() * 100.0;
            let r = bf16_to_f32(f32_to_bf16(v));
            assert!((r - v).abs() <= v.abs() * (1.0 / 256.0) + 1e-30);
        }
    }

    #[test]
    fn bf16_kernels_agree_scalar_vs_simd() {
        let kc = 33;
        let (mr, nr) = (6, 16);
        let (af, bf) = panels(kc, mr, nr);
        let a: Vec<u16> = af.iter().map(|&x| f32_to_bf16(x)).collect();
        let b: Vec<u16> = bf.iter().map(|&x| f32_to_bf16(x)).collect();
        let mut scalar = vec![0.0f32; mr * nr];
        microkernel_bf16_scalar(&a, &b, kc, mr, nr, &mut scalar);
        let mut via_dispatch = vec![0.0f32; mr * nr];
        run_tile_bf16(KernelId::Avx2F6x16, &a, &b, kc, mr, nr, &mut via_dispatch);
        // Same FMA chain → bitwise equal even between scalar and AVX2.
        let sb: Vec<u32> = scalar.iter().map(|x| x.to_bits()).collect();
        let db: Vec<u32> = via_dispatch.iter().map(|x| x.to_bits()).collect();
        assert_eq!(sb, db);
    }
}
