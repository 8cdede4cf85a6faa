//! `dlsr-hvprof` — a reimplementation of *hvprof* (Awan et al., HotI'19),
//! the Horovod/MPI communication profiler the paper uses to find its
//! bottlenecks (§III-B).
//!
//! The profiler aggregates collective timings **by operation and message
//! size bin** — the exact presentation of the paper's Table I and Fig 14.

//! # Example
//!
//! ```
//! use dlsr_hvprof::{compare, render_table, Collective, Hvprof};
//!
//! let mut default = Hvprof::new();
//! let mut optimized = Hvprof::new();
//! default.record(Collective::Allreduce, 48 << 20, 0.016);
//! optimized.record(Collective::Allreduce, 48 << 20, 0.008);
//! let rows = compare(&default, &optimized, Collective::Allreduce);
//! assert!((rows.last().unwrap().improvement_pct - 50.0).abs() < 1e-6);
//! println!("{}", render_table(&rows));
//! ```

#![forbid(unsafe_code)]
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

pub mod hist;
pub mod timeline;

pub use hist::Log2Histogram;
pub use timeline::{Label, Timeline, TraceEvent};

/// Which collective an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Collective {
    /// Gradient averaging.
    Allreduce,
    /// Parameter distribution.
    Bcast,
    /// Variable-size gathers.
    Allgather,
    /// Synchronization.
    Barrier,
}

impl std::fmt::Display for Collective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Collective::Allreduce => "MPI_Allreduce",
            Collective::Bcast => "MPI_Bcast",
            Collective::Allgather => "MPI_Allgather",
            Collective::Barrier => "MPI_Barrier",
        };
        f.write_str(s)
    }
}

/// The paper's message-size bins (Table I).
pub const BINS: &[(&str, u64, u64)] = &[
    ("1-128 KB", 0, 128 << 10),
    ("128 KB - 16 MB", 128 << 10, 16 << 20),
    ("16 MB - 32 MB", 16 << 20, 32 << 20),
    ("32 MB - 64 MB", 32 << 20, 64 << 20),
    (">64 MB", 64 << 20, u64::MAX),
];

/// Index of the bin a message size falls into.
pub fn bin_of(bytes: u64) -> usize {
    BINS.iter()
        .position(|&(_, lo, hi)| bytes >= lo && bytes < hi)
        .expect("bins cover the full range")
}

/// Aggregated statistics for one (collective, bin) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BinStats {
    /// Number of collective invocations.
    pub count: u64,
    /// Total virtual seconds spent.
    pub seconds: f64,
    /// Total payload bytes.
    pub bytes: u64,
}

/// A communication profile accumulated over a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "HvprofWire", into = "HvprofWire")]
pub struct Hvprof {
    cells: BTreeMap<(Collective, usize), BinStats>,
    /// Per-cell latency sketches (seconds), kept so percentile latencies
    /// survive aggregation — a mean alone hides stragglers. A
    /// [`Log2Histogram`] instead of raw samples bounds profile size and
    /// keeps merges allocation-free.
    sketches: BTreeMap<(Collective, usize), Log2Histogram>,
}

/// JSON-friendly wire form (tuple map keys are not valid JSON keys).
/// `sketches` is today's format; `samples` is the raw-sample form older
/// profiles carried — both default to empty and raw samples are replayed
/// into sketches on load, so every historical profile still deserializes.
#[derive(Serialize, Deserialize)]
struct HvprofWire {
    cells: Vec<(Collective, usize, BinStats)>,
    samples: Option<Vec<(Collective, usize, Vec<f64>)>>,
    sketches: Option<Vec<(Collective, usize, Log2Histogram)>>,
}

impl From<HvprofWire> for Hvprof {
    fn from(w: HvprofWire) -> Self {
        let mut sketches: BTreeMap<(Collective, usize), Log2Histogram> = w
            .sketches
            .unwrap_or_default()
            .into_iter()
            .map(|(c, b, h)| ((c, b), h))
            .collect();
        for (c, b, vals) in w.samples.unwrap_or_default() {
            let h = sketches.entry((c, b)).or_default();
            for v in vals {
                h.record(v);
            }
        }
        Hvprof {
            cells: w.cells.into_iter().map(|(c, b, s)| ((c, b), s)).collect(),
            sketches,
        }
    }
}

impl From<Hvprof> for HvprofWire {
    fn from(p: Hvprof) -> Self {
        HvprofWire {
            cells: p.cells.into_iter().map(|((c, b), s)| (c, b, s)).collect(),
            samples: None,
            sketches: Some(
                p.sketches
                    .into_iter()
                    .map(|((c, b), h)| (c, b, h))
                    .collect(),
            ),
        }
    }
}

impl Hvprof {
    /// Empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one collective invocation of `bytes` payload taking
    /// `seconds` of virtual time.
    pub fn record(&mut self, op: Collective, bytes: u64, seconds: f64) {
        let key = (op, bin_of(bytes));
        let cell = self.cells.entry(key).or_default();
        cell.count += 1;
        cell.seconds += seconds;
        cell.bytes += bytes;
        self.sketches.entry(key).or_default().record(seconds);
    }

    /// Merge another profile into this one (e.g. across ranks).
    pub fn merge(&mut self, other: &Hvprof) {
        for (&key, stats) in &other.cells {
            let cell = self.cells.entry(key).or_default();
            cell.count += stats.count;
            cell.seconds += stats.seconds;
            cell.bytes += stats.bytes;
        }
        for (&key, sketch) in &other.sketches {
            self.sketches.entry(key).or_default().merge(sketch);
        }
    }

    /// Nearest-rank latency percentile (seconds) for one cell; `q` in
    /// `[0, 1]` (0.5 = median). 0.0 when the cell is empty. Answered
    /// from the cell's [`Log2Histogram`], so the result is within one
    /// log2 sub-bucket (≈4.4% relative) of the exact order statistic
    /// and exact for single-sample cells and at the extremes.
    pub fn percentile(&self, op: Collective, bin: usize, q: f64) -> f64 {
        self.sketches
            .get(&(op, bin))
            .map(|h| h.percentile(q))
            .unwrap_or(0.0)
    }

    /// The latency sketch backing one cell, if any calls were recorded.
    pub fn sketch(&self, op: Collective, bin: usize) -> Option<&Log2Histogram> {
        self.sketches.get(&(op, bin))
    }

    /// Stats for one (collective, bin) cell.
    pub fn cell(&self, op: Collective, bin: usize) -> BinStats {
        self.cells.get(&(op, bin)).copied().unwrap_or_default()
    }

    /// Total seconds across all bins for a collective.
    pub fn total_seconds(&self, op: Collective) -> f64 {
        self.cells
            .iter()
            .filter(|((o, _), _)| *o == op)
            .map(|(_, s)| s.seconds)
            .sum()
    }

    /// Per-bin seconds for a collective (indexed like [`BINS`]).
    pub fn bin_seconds(&self, op: Collective) -> Vec<f64> {
        (0..BINS.len()).map(|b| self.cell(op, b).seconds).collect()
    }

    /// Effective bandwidth (bytes/second) achieved in one bin.
    pub fn bandwidth(&self, op: Collective, bin: usize) -> f64 {
        let s = self.cell(op, bin);
        if s.seconds > 0.0 {
            s.bytes as f64 / s.seconds
        } else {
            0.0
        }
    }

    /// Export every non-empty cell as CSV:
    /// `collective,bin,calls,total_ms,p50_ms,p95_ms,total_mb,gb_per_s`,
    /// preceded by a `#` comment row documenting the bin edges.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("# bins: ");
        for (i, &(name, lo, hi)) in BINS.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            if hi == u64::MAX {
                out.push_str(&format!("{name} = [{lo} B, inf)"));
            } else {
                out.push_str(&format!("{name} = [{lo} B, {hi} B)"));
            }
        }
        out.push('\n');
        out.push_str("collective,bin,calls,total_ms,p50_ms,p95_ms,total_mb,gb_per_s\n");
        for (&(op, bin), s) in &self.cells {
            out.push_str(&format!(
                "{op},{},{},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
                BINS[bin].0,
                s.count,
                s.seconds * 1e3,
                self.percentile(op, bin, 0.50) * 1e3,
                self.percentile(op, bin, 0.95) * 1e3,
                s.bytes as f64 / (1 << 20) as f64,
                self.bandwidth(op, bin) / 1e9,
            ));
        }
        out
    }

    /// Render the per-bin profile of one collective (Fig 14 style), with
    /// p50/p95 call latencies alongside the totals.
    pub fn render(&self, op: Collective) -> String {
        let mut out = format!("{op} profile by message size:\n");
        for (b, &(name, _, _)) in BINS.iter().enumerate() {
            let s = self.cell(op, b);
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {name:>16}: {:>10.1} ms over {:>6} calls (p50 {:.3} ms, p95 {:.3} ms, {} MB total)\n",
                s.seconds * 1e3,
                s.count,
                self.percentile(op, b, 0.50) * 1e3,
                self.percentile(op, b, 0.95) * 1e3,
                s.bytes >> 20
            ));
        }
        out
    }
}

/// Side-by-side comparison of two profiles for one collective — the
/// presentation of Table I ("Allreduce time performance improvement").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Bin label.
    pub bin: String,
    /// Baseline milliseconds.
    pub default_ms: f64,
    /// Optimized milliseconds.
    pub optimized_ms: f64,
    /// Percentage improvement (positive = optimized faster).
    pub improvement_pct: f64,
}

/// Build a Table-I-style comparison for a collective.
pub fn compare(default: &Hvprof, optimized: &Hvprof, op: Collective) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    for (b, &(name, _, _)) in BINS.iter().enumerate() {
        let d = default.cell(op, b).seconds * 1e3;
        let o = optimized.cell(op, b).seconds * 1e3;
        if d == 0.0 && o == 0.0 {
            continue;
        }
        let imp = if d > 0.0 { (d - o) / d * 100.0 } else { 0.0 };
        rows.push(ComparisonRow {
            bin: name.to_string(),
            default_ms: d,
            optimized_ms: o,
            improvement_pct: imp,
        });
    }
    let d_total = default.total_seconds(op) * 1e3;
    let o_total = optimized.total_seconds(op) * 1e3;
    rows.push(ComparisonRow {
        bin: "Total Time".to_string(),
        default_ms: d_total,
        optimized_ms: o_total,
        improvement_pct: if d_total > 0.0 {
            (d_total - o_total) / d_total * 100.0
        } else {
            0.0
        },
    });
    rows
}

/// Render comparison rows as the paper's Table I.
pub fn render_table(rows: &[ComparisonRow]) -> String {
    let mut out = String::from(
        "| Message Size         | Default (ms) | Optimized (ms) | Improvement |\n\
         |----------------------|--------------|----------------|-------------|\n",
    );
    for r in rows {
        let imp = if r.improvement_pct.abs() < 2.0 {
            "≈ 0".to_string()
        } else {
            format!("{:.1}%", r.improvement_pct)
        };
        out.push_str(&format!(
            "| {:<20} | {:>12.1} | {:>14.1} | {:>11} |\n",
            r.bin, r.default_ms, r.optimized_ms, imp
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_match_the_papers_boundaries() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(127 << 10), 0);
        assert_eq!(bin_of(128 << 10), 1);
        assert_eq!(bin_of((16 << 20) - 1), 1);
        assert_eq!(bin_of(16 << 20), 2);
        assert_eq!(bin_of(32 << 20), 3);
        assert_eq!(bin_of(63 << 20), 3);
        assert_eq!(bin_of(64 << 20), 4);
    }

    #[test]
    fn record_accumulates_cells() {
        let mut p = Hvprof::new();
        p.record(Collective::Allreduce, 20 << 20, 0.010);
        p.record(Collective::Allreduce, 20 << 20, 0.015);
        p.record(Collective::Bcast, 1 << 10, 0.001);
        let cell = p.cell(Collective::Allreduce, 2);
        assert_eq!(cell.count, 2);
        assert!((cell.seconds - 0.025).abs() < 1e-12);
        assert!((p.total_seconds(Collective::Allreduce) - 0.025).abs() < 1e-12);
        assert!((p.total_seconds(Collective::Bcast) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_profiles() {
        let mut a = Hvprof::new();
        a.record(Collective::Allreduce, 1024, 0.5);
        let mut b = Hvprof::new();
        b.record(Collective::Allreduce, 1024, 0.25);
        a.merge(&b);
        assert_eq!(a.cell(Collective::Allreduce, 0).count, 2);
        assert!((a.total_seconds(Collective::Allreduce) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn comparison_reproduces_improvement_math() {
        // Table I total: 7179.9 → 3918.5 ms = 45.4 %
        let mut d = Hvprof::new();
        let mut o = Hvprof::new();
        d.record(Collective::Allreduce, 48 << 20, 7.1799);
        o.record(Collective::Allreduce, 48 << 20, 3.9185);
        let rows = compare(&d, &o, Collective::Allreduce);
        let total = rows.last().unwrap();
        assert_eq!(total.bin, "Total Time");
        assert!((total.improvement_pct - 45.4).abs() < 0.1);
    }

    #[test]
    fn render_table_marks_small_deltas_as_zero() {
        let mut d = Hvprof::new();
        let mut o = Hvprof::new();
        d.record(Collective::Allreduce, 1024, 0.392);
        o.record(Collective::Allreduce, 1024, 0.3912);
        let table = render_table(&compare(&d, &o, Collective::Allreduce));
        assert!(table.contains("≈ 0"), "{table}");
    }

    #[test]
    fn json_round_trip() {
        let mut p = Hvprof::new();
        p.record(Collective::Allreduce, 5 << 20, 0.1);
        let s = serde_json::to_string(&p).unwrap();
        let q: Hvprof = serde_json::from_str(&s).unwrap();
        assert_eq!(q.cell(Collective::Allreduce, 1).count, 1);
    }

    #[test]
    fn bandwidth_and_csv() {
        let mut p = Hvprof::new();
        p.record(Collective::Allreduce, 1 << 30, 1.0); // 1 GiB in 1 s
        let bw = p.bandwidth(Collective::Allreduce, bin_of(1 << 30));
        assert!((bw - (1u64 << 30) as f64).abs() < 1.0);
        assert_eq!(p.bandwidth(Collective::Bcast, 0), 0.0);
        let csv = p.to_csv();
        let mut lines = csv.lines();
        let edges = lines.next().unwrap();
        assert!(edges.starts_with("# bins: "), "{edges}");
        assert!(edges.contains("1-128 KB = [0 B, 131072 B)"));
        assert!(edges.contains(">64 MB = [67108864 B, inf)"));
        assert_eq!(
            lines.next().unwrap(),
            "collective,bin,calls,total_ms,p50_ms,p95_ms,total_mb,gb_per_s"
        );
        assert!(csv.contains("MPI_Allreduce,>64 MB,1,1000.000,1000.000,1000.000,1024.000"));
    }

    #[test]
    fn percentiles_expose_stragglers_the_mean_hides() {
        let mut p = Hvprof::new();
        // 19 fast calls and one 100× straggler in the same bin.
        for _ in 0..19 {
            p.record(Collective::Allreduce, 20 << 20, 0.010);
        }
        p.record(Collective::Allreduce, 20 << 20, 1.0);
        // Sketch-backed percentiles: within one log2 sub-bucket (≈4.4%).
        let p50 = p.percentile(Collective::Allreduce, 2, 0.50);
        let p95 = p.percentile(Collective::Allreduce, 2, 0.95);
        assert!((p50 - 0.010).abs() / 0.010 < 0.045, "{p50}");
        assert!((p95 - 0.010).abs() / 0.010 < 0.045, "{p95}");
        // The extremes are exact by construction.
        assert!((p.percentile(Collective::Allreduce, 2, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(p.percentile(Collective::Bcast, 0, 0.5), 0.0);
        let rendered = p.render(Collective::Allreduce);
        assert!(rendered.contains("p50 10.0"), "{rendered}");
        assert!(rendered.contains("p95 10.0"), "{rendered}");
    }

    #[test]
    fn percentiles_survive_merge_and_serde() {
        let mut a = Hvprof::new();
        a.record(Collective::Allreduce, 1024, 0.001);
        a.record(Collective::Allreduce, 1024, 0.002);
        let mut b = Hvprof::new();
        b.record(Collective::Allreduce, 1024, 0.100);
        a.merge(&b);
        let p50 = a.percentile(Collective::Allreduce, 0, 0.5);
        let p95 = a.percentile(Collective::Allreduce, 0, 0.95);
        assert!((p50 - 0.002).abs() / 0.002 < 0.045, "{p50}");
        assert!((p95 - 0.100).abs() / 0.100 < 0.045, "{p95}");
        let s = serde_json::to_string(&a).unwrap();
        let q: Hvprof = serde_json::from_str(&s).unwrap();
        let p95 = q.percentile(Collective::Allreduce, 0, 0.95);
        assert!((p95 - 0.100).abs() / 0.100 < 0.045, "{p95}");
        // Wire form without samples (pre-percentile profiles) still loads.
        let legacy = r#"{"cells":[["Allreduce",0,{"count":1,"seconds":0.5,"bytes":1024}]]}"#;
        let old: Hvprof = serde_json::from_str(legacy).unwrap();
        assert_eq!(old.cell(Collective::Allreduce, 0).count, 1);
        assert_eq!(old.percentile(Collective::Allreduce, 0, 0.5), 0.0);
        // Raw-sample wire form (the pre-sketch format) is replayed into
        // sketches on load; single samples stay exact.
        let raw = r#"{"cells":[["Allreduce",0,{"count":1,"seconds":0.5,"bytes":1024}]],"samples":[["Allreduce",0,[0.5]]]}"#;
        let old: Hvprof = serde_json::from_str(raw).unwrap();
        assert!((old.percentile(Collective::Allreduce, 0, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn render_skips_empty_bins() {
        let mut p = Hvprof::new();
        p.record(Collective::Allreduce, 20 << 20, 0.01);
        let s = p.render(Collective::Allreduce);
        assert!(s.contains("16 MB - 32 MB"));
        assert!(!s.contains("32 MB - 64 MB"));
    }
}
