//! Shape-keyed GEMM autotuning: blueprints, the selector, and the
//! persistent tune cache.
//!
//! Every GEMM call resolves its `(m, k, n)` problem shape to a
//! [`Blueprint`] — which microkernel variant to run, the `MR/NR/KC/NC`
//! blocking, and whether to fan out across rayon row panels. Resolution is
//! a **pure function of the shape** (a seeded table, a deterministic
//! heuristic for unseen shapes, and an optional cache file): the runtime
//! never times candidates, so the selected blueprint — and therefore the
//! training digest — cannot depend on machine load, thread count, or
//! whether the cache is warm. Measured tuning lives in the
//! `tune_gemm` binary (`crates/tensor/src/bin/`), the one place the
//! workspace wall-clock lint allows timing; it writes the cache file this
//! module loads.
//!
//! # Determinism
//!
//! Of all blueprint fields, only `kc` can change result bits (partial-sum
//! adds into `C` happen at `KC` block boundaries; see `docs/KERNELS.md`).
//! The heuristic therefore derives `kc` from the shape alone —
//! independent of ISA, thread count, and cache state — and
//! the cache loader accepts whatever `kc` a cache file carries, making the
//! file part of the digest contract: *same binary + same tune cache + same
//! seed ⇒ same digest on any machine and any thread count.* Kernel
//! variant, `mr/nr/nc`, and the parallel hint only partition work and are
//! free to differ.
//!
//! # Cache file
//!
//! `DLSR_TUNE_CACHE=<path>` points at a plain-text file; lines are
//! `m k n kernel mr nr kc nc par` (whitespace-separated, `#` comments).
//! Entries are loaded at first use; every *new* shape the selector decides
//! is appended back to the file, so a cold run leaves behind the warm
//! cache that reproduces it.

use std::collections::BTreeMap;
use std::io::Write as _;

use parking_lot::Mutex;

use crate::kernels::{isa, KernelId, ALL_KERNELS, MAX_MR, MAX_NR};

/// How a GEMM fans out across rayon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParHint {
    /// Single-threaded drive (also used inside batch-level parallelism).
    Seq,
    /// Prepack B once, then parallelize over disjoint row panels of C.
    Rows,
}

impl ParHint {
    fn as_str(self) -> &'static str {
        match self {
            ParHint::Seq => "seq",
            ParHint::Rows => "rows",
        }
    }

    fn from_str_opt(s: &str) -> Option<ParHint> {
        match s {
            "seq" => Some(ParHint::Seq),
            "rows" => Some(ParHint::Rows),
            _ => None,
        }
    }
}

/// A fully resolved execution plan for one GEMM shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blueprint {
    /// Microkernel variant (clamped to the running ISA at execution).
    pub kernel: KernelId,
    /// Register-tile rows. Equals the kernel's fixed geometry for SIMD
    /// variants; free for the scalar kernel.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// K-blocking depth — the only bit-affecting field (see module docs).
    pub kc: usize,
    /// N-blocking width (multiple of `nr`).
    pub nc: usize,
    /// Rayon fan-out hint.
    pub par: ParHint,
}

impl Blueprint {
    /// Render as one tune-cache line body (without the shape key).
    fn render(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.kernel.as_str(),
            self.mr,
            self.nr,
            self.kc,
            self.nc,
            self.par.as_str()
        )
    }

    /// Sanity-clamp a parsed blueprint so a corrupt cache file cannot
    /// drive the engine out of bounds. `kc` is preserved exactly (it is
    /// digest-relevant); geometry is forced consistent with the kernel.
    fn sanitized(mut self, k: usize) -> Blueprint {
        if let Some((mr, nr)) = self.kernel.geometry() {
            self.mr = mr;
            self.nr = nr;
        }
        self.mr = self.mr.clamp(1, MAX_MR);
        self.nr = self.nr.clamp(1, MAX_NR);
        self.kc = self.kc.clamp(1, k.max(1));
        let nc = self.nc.max(self.nr);
        self.nc = nc - nc % self.nr;
        self
    }
}

/// Minimum `2·m·k·n` FLOP count before a GEMM fans out to rayon; below
/// this, thread dispatch costs more than the multiply.
const PAR_FLOP_THRESHOLD: usize = 1 << 21;

/// The EDSR training shapes (48×48 patches, F=64 body, ×2) the cache is
/// seeded with: forward head/body/tail, the upsampler, and the backward
/// weight/input-gradient GEMMs. Keeping them here means the first training
/// step never pays a selector miss (`crates/models/tests/tune_seeds.rs`).
///
/// Rows 0–9 are indexed by position from outside the workspace, so new
/// shapes are appended. Rows 2, 6 and 9 are the output conv at 48², where
/// no ×2 model runs it: it comes after the pixel shuffle, at 96² (rows
/// 10–12). Its forward and input-gradient run pack-free (`crate::conv`)
/// and resolve their row only for `kc`.
pub const EDSR_SHAPES: [(usize, usize, usize); 15] = [
    (64, 27, 2304),   // fwd head: 3->64, 3x3, 48x48 out
    (64, 576, 2304),  // fwd body: 64->64
    (3, 576, 2304),   // fwd tail: 64->3
    (256, 576, 2304), // fwd upsampler: 64->256
    (64, 2304, 576),  // wgrad body
    (64, 2304, 27),   // wgrad head
    (3, 2304, 576),   // wgrad tail
    (576, 64, 2304),  // igrad body
    (27, 64, 2304),   // igrad head
    (576, 3, 2304),   // igrad tail
    (3, 576, 9216),   // fwd tail at 96x96 (kc only)
    (3, 9216, 576),   // wgrad tail at 96x96
    (576, 3, 9216),   // igrad tail at 96x96 (kc only)
    (256, 2304, 576), // wgrad upsampler
    (576, 256, 2304), // igrad upsampler
];

/// Deterministic heuristic for shapes without a cache entry.
///
/// - `kc`: `min(256, k)` — shape-only, so bits never depend on ISA.
/// - kernel: the executable variant minimizing padded-row waste
///   `ceil(m/mr)·mr`, ties broken toward wider tiles (more arithmetic per
///   packed byte).
/// - `nc`: 256 rounded to a multiple of `nr` (keeps one packed B block
///   L2-resident).
/// - `par`: row fan-out once the FLOP count covers thread dispatch and
///   there are at least two row panels to split.
pub fn heuristic(m: usize, k: usize, n: usize) -> Blueprint {
    let kc = k.clamp(1, 256);
    let mut best: Option<(usize, usize, KernelId, usize, usize)> = None;
    for kid in ALL_KERNELS {
        if kid.requires() > isa() {
            continue;
        }
        let (mr, nr) = kid.geometry().unwrap_or((4, 16));
        let padded = m.div_ceil(mr) * mr;
        let width = mr * nr;
        let better = match best {
            None => true,
            // Minimize padded rows; among equals prefer the widest tile.
            Some((bp, bw, ..)) => padded < bp || (padded == bp && width > bw),
        };
        if better {
            best = Some((padded, width, kid, mr, nr));
        }
    }
    let (_, _, kernel, mr, nr) = best.unwrap_or((m, 64, KernelId::Scalar, 4, 16));
    let nc = (256 / nr).max(1) * nr;
    let par = if 2 * m * k * n >= PAR_FLOP_THRESHOLD && m > mr {
        ParHint::Rows
    } else {
        ParHint::Seq
    };
    Blueprint {
        kernel,
        mr,
        nr,
        kc,
        nc,
        par,
    }
}

struct TuneState {
    table: BTreeMap<(usize, usize, usize), Blueprint>,
    /// Cache-file path from `DLSR_TUNE_CACHE`, if set.
    persist_to: Option<std::path::PathBuf>,
}

fn parse_line(line: &str) -> Option<((usize, usize, usize), Blueprint)> {
    let mut it = line.split_whitespace();
    let m: usize = it.next()?.parse().ok()?;
    let k: usize = it.next()?.parse().ok()?;
    let n: usize = it.next()?.parse().ok()?;
    let kernel = KernelId::from_str_opt(it.next()?)?;
    let mr: usize = it.next()?.parse().ok()?;
    let nr: usize = it.next()?.parse().ok()?;
    let kc: usize = it.next()?.parse().ok()?;
    let nc: usize = it.next()?.parse().ok()?;
    let par = ParHint::from_str_opt(it.next()?)?;
    let bp = Blueprint {
        kernel,
        mr,
        nr,
        kc,
        nc,
        par,
    }
    .sanitized(k);
    Some(((m, k, n), bp))
}

fn init_state() -> TuneState {
    let mut table = BTreeMap::new();
    for (m, k, n) in EDSR_SHAPES {
        table.insert((m, k, n), heuristic(m, k, n));
    }
    let persist_to = std::env::var_os("DLSR_TUNE_CACHE").map(std::path::PathBuf::from);
    if let Some(path) = &persist_to {
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                if let Some((key, bp)) = parse_line(line) {
                    table.insert(key, bp);
                }
            }
        }
    }
    TuneState { table, persist_to }
}

fn state() -> &'static Mutex<TuneState> {
    static STATE: std::sync::OnceLock<Mutex<TuneState>> = std::sync::OnceLock::new();
    STATE.get_or_init(|| Mutex::new(init_state()))
}

/// Resolve the blueprint for one GEMM shape. Cache hit is a lock + map
/// lookup; a miss runs the heuristic, installs the decision, and (when
/// `DLSR_TUNE_CACHE` is set) appends it to the cache file so the next cold
/// run reproduces this one.
pub fn select(m: usize, k: usize, n: usize) -> Blueprint {
    let mut st = state().lock();
    if let Some(bp) = st.table.get(&(m, k, n)) {
        return *bp;
    }
    let bp = heuristic(m, k, n);
    st.table.insert((m, k, n), bp);
    if let Some(path) = st.persist_to.clone() {
        append_entry(&path, (m, k, n), &bp);
    }
    bp
}

fn append_entry(path: &std::path::Path, key: (usize, usize, usize), bp: &Blueprint) {
    let mut opts = std::fs::OpenOptions::new();
    opts.create(true).append(true);
    if let Ok(mut f) = opts.open(path) {
        // Ignore I/O failures: the cache is an optimization, never a
        // correctness dependency.
        let _ = writeln!(f, "{} {} {} {}", key.0, key.1, key.2, bp.render());
    }
}

/// Install a blueprint for a shape, overriding seed/heuristic/file. Used
/// by the offline tuner and by tests.
pub fn install(m: usize, k: usize, n: usize, bp: Blueprint) {
    let bp = bp.sanitized(k);
    state().lock().table.insert((m, k, n), bp);
}

/// Snapshot the current table (offline tuner output, debugging).
pub fn entries() -> Vec<((usize, usize, usize), Blueprint)> {
    state().lock().table.iter().map(|(k, v)| (*k, *v)).collect()
}

/// Write the full table as a tune-cache file (offline tuner output).
pub fn write_cache(path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::from("# dlsr tune cache v1: m k n kernel mr nr kc nc par\n");
    for ((m, k, n), bp) in entries() {
        out.push_str(&format!("{m} {k} {n} {}\n", bp.render()));
    }
    std::fs::write(path, out)
}

/// Candidate blueprints the offline tuner measures for one shape: every
/// executable kernel × a small `nc` sweep. `kc` is pinned by the
/// heuristic so tuning can never change result bits.
pub fn candidates(m: usize, k: usize, n: usize) -> Vec<Blueprint> {
    let base = heuristic(m, k, n);
    let mut out = Vec::new();
    for kid in ALL_KERNELS {
        if kid.requires() > isa() {
            continue;
        }
        let (mr, nr) = kid.geometry().unwrap_or((4, 16));
        for ncf in [1usize, 2, 4] {
            let nc = (256 * ncf / nr).max(1) * nr;
            for par in [ParHint::Seq, ParHint::Rows] {
                out.push(Blueprint {
                    kernel: kid,
                    mr,
                    nr,
                    kc: base.kc,
                    nc,
                    par,
                });
            }
        }
    }
    out
}

/// Whether the bf16-storage path is active. Off by default; enabled by
/// `DLSR_BF16=1` (checked once) or [`set_bf16`]. Only meaningful with the
/// `bf16` crate feature.
#[cfg(feature = "bf16")]
pub fn bf16_enabled() -> bool {
    use std::sync::atomic::Ordering;
    match BF16.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var_os("DLSR_BF16").is_some_and(|v| v == "1");
            BF16.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        2 => true,
        _ => false,
    }
}

/// Force the bf16-storage path on or off (tests, experiments).
#[cfg(feature = "bf16")]
pub fn set_bf16(on: bool) {
    BF16.store(if on { 2 } else { 1 }, std::sync::atomic::Ordering::Relaxed);
}

/// 0 = unread (consult `DLSR_BF16`), 1 = off, 2 = on.
#[cfg(feature = "bf16")]
static BF16: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_kc_is_shape_only() {
        // kc must not depend on the detected ISA — it is digest-relevant.
        for (m, k, n) in EDSR_SHAPES {
            assert_eq!(heuristic(m, k, n).kc, k.min(256));
        }
        assert_eq!(heuristic(5, 1000, 7).kc, 256);
        assert_eq!(heuristic(5, 3, 7).kc, 3);
    }

    #[test]
    fn heuristic_geometry_matches_kernel() {
        for (m, k, n) in [(64usize, 576, 2304), (3, 27, 5), (1, 1, 1), (17, 9, 33)] {
            let bp = heuristic(m, k, n);
            if let Some((mr, nr)) = bp.kernel.geometry() {
                assert_eq!((bp.mr, bp.nr), (mr, nr));
            }
            assert_eq!(bp.nc % bp.nr, 0, "nc must be a multiple of nr");
            assert!(bp.kernel.requires() <= isa());
        }
    }

    #[test]
    fn seeded_shapes_resolve_without_miss() {
        for (m, k, n) in EDSR_SHAPES {
            let bp = select(m, k, n);
            assert!(bp.kc >= 1 && bp.kc <= k);
        }
    }

    #[test]
    fn install_overrides_and_select_is_stable() {
        let shape = (11usize, 13usize, 17usize);
        let first = select(shape.0, shape.1, shape.2);
        assert_eq!(select(shape.0, shape.1, shape.2), first);
        let forced = Blueprint {
            kernel: KernelId::Scalar,
            mr: 2,
            nr: 8,
            kc: 13,
            nc: 64,
            par: ParHint::Seq,
        };
        install(shape.0, shape.1, shape.2, forced);
        assert_eq!(select(shape.0, shape.1, shape.2), forced);
    }

    #[test]
    fn cache_line_round_trips() {
        let bp = heuristic(64, 576, 2304);
        let line = format!("64 576 2304 {}", bp.render());
        let (key, parsed) = parse_line(&line).expect("parse");
        assert_eq!(key, (64, 576, 2304));
        assert_eq!(parsed, bp);
        assert!(parse_line("garbage line").is_none());
        assert!(parse_line("1 2 3 not_a_kernel 4 16 2 256 seq").is_none());
    }

    #[test]
    fn sanitize_clamps_corrupt_entries() {
        let (_, bp) = parse_line("4 8 4 scalar 999 999 999 7 seq").expect("parse");
        assert!(bp.mr <= MAX_MR && bp.nr <= MAX_NR);
        assert!(bp.kc <= 8, "kc clamped to k");
        assert_eq!(bp.nc % bp.nr, 0);
    }

    #[test]
    fn isa_ordering_for_clamp() {
        assert!(
            crate::kernels::Isa::Scalar < crate::kernels::Isa::Avx2
                && crate::kernels::Isa::Avx2 < crate::kernels::Isa::Avx512
        );
    }
}
