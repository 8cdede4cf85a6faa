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
//! `DLSR_TUNE_CACHE=<path>` names the one tune-cache file of a run, and
//! this module owns its format, parser and writer ([`TuneTable`]). After
//! the header line `# dlsr tune cache v2` come tagged, whitespace-separated
//! rows — `gemm m k n kernel mr nr kc nc par` here, `comm …` for the comm
//! tuner in `dlsr-horovod` — with `#` comments and blank lines allowed.
//! Rows are loaded at first use; every *new* shape the selector decides
//! is appended back to the file, so a cold run leaves behind the warm
//! cache that reproduces it. A malformed file is a [`TuneCacheError`],
//! never a table quietly missing the bad row.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{MutexGuard, OnceLock};

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

impl TuneRow for Blueprint {
    const TAG: &'static str = "gemm";
    type Key = (usize, usize, usize);

    fn parse(f: &[&str]) -> Result<(Self::Key, Self), String> {
        let &[m, k, n, kernel, mr, nr, kc, nc, par] = f else {
            return Err(format!("{} fields, expected 9", f.len()));
        };
        let k = parse_num(k)?;
        let bp = Blueprint {
            kernel: KernelId::from_str_opt(kernel).ok_or(format!("unknown kernel `{kernel}`"))?,
            mr: parse_num(mr)?,
            nr: parse_num(nr)?,
            kc: parse_num(kc)?,
            nc: parse_num(nc)?,
            par: ParHint::from_str_opt(par).ok_or(format!("unknown par hint `{par}`"))?,
        };
        Ok(((parse_num(m)?, k, parse_num(n)?), bp.sanitized(k)))
    }

    fn render(&self, &(m, k, n): &Self::Key) -> String {
        let Blueprint { mr, nr, kc, nc, .. } = self;
        let (kernel, par) = (self.kernel.as_str(), self.par.as_str());
        format!("{m} {k} {n} {kernel} {mr} {nr} {kc} {nc} {par}")
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

/// The GEMM blueprint table: the EDSR seeds, then the cache file's
/// `gemm` rows.
pub static TABLE: TuneTable<Blueprint> = TuneTable::new(|| {
    EDSR_SHAPES
        .map(|(m, k, n)| ((m, k, n), heuristic(m, k, n)))
        .to_vec()
});

/// Resolve the blueprint for one GEMM shape. Cache hit is a lock + map
/// lookup; a miss runs the heuristic, installs the decision, and (when
/// `DLSR_TUNE_CACHE` is set) appends it to the cache file so the next cold
/// run reproduces this one.
pub fn select(m: usize, k: usize, n: usize) -> Blueprint {
    TABLE.get_or_insert_with((m, k, n), || heuristic(m, k, n))
}

/// Install a blueprint for a shape, overriding seed/heuristic/file. Used
/// by the offline tuner and by tests.
pub fn install(m: usize, k: usize, n: usize, bp: Blueprint) {
    TABLE.install((m, k, n), bp.sanitized(k));
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

/// First line of every tune-cache file.
const CACHE_HEADER: &str = "# dlsr tune cache v2\n";

/// One kind of tune-cache row: a line of `TAG`, the key's fields, the
/// row's fields.
pub trait TuneRow: Copy + Send + 'static {
    /// `gemm` here, `comm` for the comm tuner in `dlsr-horovod`.
    const TAG: &'static str;
    /// What the table is indexed by.
    type Key: Ord + Copy + Send + 'static;
    /// Parse the fields after the tag into a sanitized row.
    fn parse(fields: &[&str]) -> Result<(Self::Key, Self), String>;
    /// The fields after the tag.
    fn render(&self, key: &Self::Key) -> String;
}

/// One numeric field of a cache row.
pub fn parse_num<T: std::str::FromStr>(field: &str) -> Result<T, String> {
    field.parse().map_err(|_| format!("bad number `{field}`"))
}

/// Why a tune-cache file cannot be used. A file is used whole or not at
/// all: a run never falls back to the heuristic for a row it could not
/// read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneCacheError {
    /// The cache file.
    pub path: PathBuf,
    /// 1-based line at fault (0 when the file could not be read or written).
    pub line: usize,
    /// What is wrong with it.
    pub reason: String,
}

impl TuneCacheError {
    fn new(path: &Path, line: usize, reason: impl fmt::Display) -> Self {
        let (path, reason) = (path.into(), reason.to_string());
        TuneCacheError { path, line, reason }
    }
}

impl fmt::Display for TuneCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, line, reason) = (self.path.display(), self.line, &self.reason);
        write!(f, "tune cache {path}:{line}: {reason}")
    }
}

impl std::error::Error for TuneCacheError {}

/// The tune-cache file `DLSR_TUNE_CACHE` names, if any.
fn cache_path() -> Option<PathBuf> {
    std::env::var_os("DLSR_TUNE_CACHE").map(PathBuf::from)
}

/// The text of the cache file at `path`; an absent file reads as empty.
fn read(path: &Path) -> Result<String, TuneCacheError> {
    match std::fs::read_to_string(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(TuneCacheError::new(path, 0, e)),
        text => Ok(text.unwrap_or_default()),
    }
}

/// Every `R` row of `path`'s `text`, in file order, once every line has
/// passed the checks all row kinds share: the version header, a known
/// tag, and the trailing newline a crashed append leaves off.
fn parse_rows<R: TuneRow>(path: &Path, text: &str) -> Result<Vec<(R::Key, R)>, TuneCacheError> {
    let mut rows = Vec::new();
    for (n, line) in (1..).zip(text.split_inclusive('\n')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let tag = fields.first().copied().unwrap_or("#");
        let err = |reason: String| TuneCacheError::new(path, n, reason);
        if !line.ends_with('\n') {
            return Err(err("no trailing newline (a truncated append?)".into()));
        } else if n == 1 && line != CACHE_HEADER {
            let header = CACHE_HEADER.trim_end();
            return Err(err(format!("expected the version header `{header}`")));
        } else if n > 1 && tag == R::TAG {
            rows.push(R::parse(&fields[1..]).map_err(err)?);
        } else if n > 1 && !tag.starts_with('#') && !["gemm", "comm"].contains(&tag) {
            return Err(err(format!("unknown row tag `{tag}`")));
        }
    }
    Ok(rows)
}

/// The one writer that appends to the cache file: one `write_all` per row
/// on an `O_APPEND` handle, so concurrent writers never split a row, and
/// the header with the first row of an empty file (a racing second copy
/// reads as a comment). I/O errors are ignored: the cache is an
/// optimization, never a correctness dependency.
fn append<R: TuneRow>(key: &R::Key, row: &R) {
    let mut opts = std::fs::OpenOptions::new();
    if let Some(Ok(mut f)) = cache_path().map(|p| opts.create(true).append(true).open(p)) {
        let header = match f.metadata() {
            Ok(m) if m.len() == 0 => CACHE_HEADER,
            _ => "",
        };
        let _ = f.write_all(format!("{header}{} {}\n", R::TAG, row.render(key)).as_bytes());
    }
}

/// A process-global table of one row kind: its seed rows, then the cache
/// file's rows of that kind, loaded at first use.
pub struct TuneTable<R: TuneRow> {
    rows: OnceLock<Mutex<BTreeMap<R::Key, R>>>,
    seed: fn() -> Vec<(R::Key, R)>,
}

impl<R: TuneRow> TuneTable<R> {
    /// An unloaded table that starts from `seed`'s rows.
    pub const fn new(seed: fn() -> Vec<(R::Key, R)>) -> Self {
        let rows = OnceLock::new();
        TuneTable { rows, seed }
    }

    /// Load the table now, or say why the cache file cannot be used. A
    /// caller that skips this panics with the same message at first use.
    pub fn load(&self) -> Result<(), TuneCacheError> {
        self.init().map(drop)
    }

    fn init(&self) -> Result<&Mutex<BTreeMap<R::Key, R>>, TuneCacheError> {
        if let Some(rows) = self.rows.get() {
            return Ok(rows);
        }
        let mut rows: BTreeMap<_, _> = (self.seed)().into_iter().collect();
        if let Some(path) = cache_path() {
            rows.extend(parse_rows::<R>(&path, &read(&path)?)?);
        }
        Ok(self.rows.get_or_init(|| Mutex::new(rows)))
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<R::Key, R>> {
        match self.rows.get() {
            Some(rows) => rows.lock(),
            None => self.init().unwrap_or_else(|e| panic!("{e}")).lock(),
        }
    }

    /// The row for `key`, if any.
    pub fn get(&self, key: &R::Key) -> Option<R> {
        self.lock().get(key).copied()
    }

    /// The row for `key`; on a miss, `f`'s row, installed and appended to
    /// the cache file.
    pub fn get_or_insert_with(&self, key: R::Key, f: impl FnOnce() -> R) -> R {
        *self.lock().entry(key).or_insert_with(|| {
            let row = f();
            append(&key, &row);
            row
        })
    }

    /// Set the row for `key` in this process only.
    pub fn install(&self, key: R::Key, row: R) {
        self.lock().insert(key, row);
    }

    /// Set the row for `key` and append it to the cache file.
    pub fn record(&self, key: R::Key, row: R) {
        self.install(key, row);
        append(&key, &row);
    }

    /// The table in key order.
    pub fn entries(&self) -> Vec<(R::Key, R)> {
        self.lock().iter().map(|(k, r)| (*k, *r)).collect()
    }

    /// Write the cache file at `path`: this table's rows replace the file's
    /// rows of this kind, every other line stays as it is.
    pub fn write(&self, path: &Path) -> Result<(), TuneCacheError> {
        let old = read(path)?;
        parse_rows::<R>(path, &old)?;
        let mut out = String::from(CACHE_HEADER);
        for line in old.lines().skip(1) {
            if line.split_whitespace().next() != Some(R::TAG) {
                out += &format!("{line}\n");
            }
        }
        for (key, row) in self.entries() {
            out += &format!("{} {}\n", R::TAG, row.render(&key));
        }
        std::fs::write(path, out).map_err(|e| TuneCacheError::new(path, 0, e))
    }
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

    /// The line of a cache text's first fault, and why.
    type Fault = (usize, String);

    /// `R`'s rows of `text`, or its first fault.
    fn rows<R: TuneRow>(text: &str) -> Result<Vec<(R::Key, R)>, Fault> {
        parse_rows(Path::new("t"), text).map_err(|e| (e.line, e.reason))
    }

    /// Parse one `gemm` row's fields.
    fn gemm(line: &str) -> Result<((usize, usize, usize), Blueprint), String> {
        Blueprint::parse(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn cache_line_round_trips() {
        let bp = heuristic(64, 576, 2304);
        let line = bp.render(&(64, 576, 2304));
        let (key, parsed) = gemm(&line).expect("parse");
        assert_eq!(key, (64, 576, 2304));
        assert_eq!(parsed, bp);
        let text = format!("{CACHE_HEADER}gemm {line}\n");
        assert_eq!(rows::<Blueprint>(&text), Ok(vec![(key, bp)]));
        assert!(gemm("1 2 3 not_a_kernel 4 16 2 256 seq").is_err());
        assert!(gemm("1 2 3 scalar 4 16 2 256 sideways").is_err());
        assert_eq!(
            rows::<Blueprint>(&format!("{CACHE_HEADER}garbage line\n")),
            Err((2, "unknown row tag `garbage`".into()))
        );
    }

    #[test]
    fn sanitize_clamps_corrupt_entries() {
        let (_, bp) = gemm("4 8 4 scalar 999 999 999 7 seq").expect("parse");
        assert!(bp.mr <= MAX_MR && bp.nr <= MAX_NR);
        assert!(bp.kc <= 8, "kc clamped to k");
        assert_eq!(bp.nc % bp.nr, 0);
    }

    /// The comm tuner's row shape, for holding a two-tag file to the
    /// whole-or-nothing contract without depending on `dlsr-horovod`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Comm([u64; 4]);

    impl TuneRow for Comm {
        const TAG: &'static str = "comm";
        type Key = (usize, u64);

        fn parse(f: &[&str]) -> Result<(Self::Key, Self), String> {
            if f.len() != 6 {
                return Err(format!("{} fields, expected 6", f.len()));
            }
            let mut v = [0u64; 4];
            for (x, s) in v.iter_mut().zip(&f[2..]) {
                *x = parse_num(s)?;
            }
            Ok(((parse_num(f[0])?, parse_num(f[1])?), Comm(v)))
        }

        fn render(&self, key: &Self::Key) -> String {
            let [a, b, c, d] = self.0;
            format!("{} {} {a} {b} {c} {d}", key.0, key.1)
        }
    }

    const TWO_TAG: &str = "# dlsr tune cache v2
# a comment, then a blank line

gemm 64 576 2304 avx2_4x16 4 16 256 256 rows
comm 8 123456 67108864 3500000 131072 8388608
gemm 3 27 5 scalar 4 16 27 256 seq
comm 16 999 1024 1000 1 131072
";

    type Both = (
        Vec<((usize, usize, usize), Blueprint)>,
        Vec<((usize, u64), Comm)>,
    );

    /// Both row kinds of `text`, or the first error either loader reports.
    fn both(text: &str) -> Result<Both, Fault> {
        Ok((rows::<Blueprint>(text)?, rows::<Comm>(text)?))
    }

    #[test]
    fn every_truncation_is_whole_lines_or_names_the_cut_line() {
        let (gemms, comms) = both(TWO_TAG).expect("the fixture parses");
        assert_eq!((gemms.len(), comms.len()), (2, 2));
        for cut in 0..=TWO_TAG.len() {
            let prefix = &TWO_TAG[..cut];
            let complete = prefix.matches('\n').count();
            match both(prefix) {
                Ok((g, c)) => {
                    assert!(cut == 0 || prefix.ends_with('\n'), "cut {cut} parsed");
                    let kept = |tag| {
                        let lines = TWO_TAG.lines().take(complete);
                        lines.filter(|l| l.starts_with(tag)).count()
                    };
                    assert_eq!(g[..], gemms[..kept("gemm")], "cut {cut}");
                    assert_eq!(c[..], comms[..kept("comm")], "cut {cut}");
                }
                Err((line, reason)) => {
                    assert!(!prefix.ends_with('\n'), "cut {cut}: {reason}");
                    assert_eq!(line, complete + 1, "cut {cut}: {reason}");
                }
            }
        }
    }

    #[test]
    fn every_corrupted_field_names_its_line() {
        let lines: Vec<&str> = TWO_TAG.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if i > 0 && fields.first().is_none_or(|f| f.starts_with('#')) {
                continue;
            }
            let mut variants: Vec<Vec<&str>> = Vec::new();
            for at in 0..fields.len() {
                for bad in ["x", "-1", "1.5", "18446744073709551616"] {
                    let mut v = fields.clone();
                    v[at] = bad;
                    variants.push(v);
                }
                let mut dropped = fields.clone();
                dropped.remove(at);
                variants.push(dropped);
            }
            let mut extra = fields.clone();
            extra.push("7");
            variants.push(extra);
            for v in variants {
                let mut text: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                text[i] = v.join(" ");
                let text = text.join("\n") + "\n";
                let err = both(&text).expect_err(&text);
                assert_eq!(err.0, i + 1, "{}: {text}", err.1);
            }
        }
    }

    #[test]
    fn v1_and_headerless_files_are_rejected() {
        for text in [
            "# dlsr tune cache v1: m k n kernel mr nr kc nc par\n",
            "64 576 2304 avx2_4x16 4 16 256 256 rows\n",
            "\n# dlsr tune cache v2\n",
        ] {
            let (line, reason) = rows::<Blueprint>(text).expect_err(text);
            assert_eq!(line, 1, "{reason}");
            assert!(reason.contains("version header"), "{reason}");
        }
        assert_eq!(rows::<Blueprint>(""), Ok(vec![]));
        assert_eq!(rows::<Blueprint>(&format!("{CACHE_HEADER}\n")), Ok(vec![]));
    }

    #[test]
    fn write_replaces_its_own_rows_and_keeps_every_other_line() {
        let path = std::env::temp_dir().join(format!("dlsr-write-{}.tune", std::process::id()));
        let gemm = "gemm 3 27 5 scalar 4 16 27 256 seq";
        let old = format!("{CACHE_HEADER}# kept\n{gemm}\ncomm 8 1 2 3 4 5\n");
        std::fs::write(&path, old).unwrap();
        let table = TuneTable::<Comm>::new(|| vec![((16, 9), Comm([6, 7, 8, 9]))]);
        table.write(&path).expect("write");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text,
            format!("{CACHE_HEADER}# kept\n{gemm}\ncomm 16 9 6 7 8 9\n")
        );
        assert_eq!(rows::<Comm>(&text), Ok(vec![((16, 9), Comm([6, 7, 8, 9]))]));
    }

    /// `results/gemm.tune` ships with the repository; every row keeps the
    /// heuristic's `kc`, so a run pointed at it trains the no-cache bits.
    #[test]
    fn committed_cache_is_v2_and_keeps_the_heuristic_kc() {
        let rows = rows::<Blueprint>(include_str!("../../../results/gemm.tune"))
            .expect("results/gemm.tune parses");
        assert_eq!(rows.len(), 26);
        for ((m, k, n), bp) in rows {
            assert_eq!(bp.kc, k.min(256), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn isa_ordering_for_clamp() {
        assert!(
            crate::kernels::Isa::Scalar < crate::kernels::Isa::Avx2
                && crate::kernels::Isa::Avx2 < crate::kernels::Isa::Avx512
        );
    }
}
