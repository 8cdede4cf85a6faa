//! `--compare A B`: one row per (metric, workload) with both medians, the
//! bound, and a verdict. This is the tool every paired comparison uses
//! (choosing-metrics §6, §8).

use std::collections::BTreeMap;

use serde_json::Value;

use crate::harness::median;
use crate::metrics::{self, Better, Def};

/// Outcome for one (metric, workload) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Either side's run-to-run spread is wider than the bound, so the
    /// comparison cannot tell unchanged from changed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile as a share of the median
/// (0 with fewer than two values: a single run has no spread to show).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// First and third quartile, by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

pub fn verdict(def: &Def, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) → values`, one per run of that workload in the set.
type Cells = BTreeMap<(String, String), Vec<f64>>;

/// Read a result set: a `results.json` written by the suite, or a
/// directory holding one and/or sub-directories that each hold one (one
/// per round of a paired comparison).
pub fn load(path: &str) -> Result<Cells, String> {
    let root = std::path::Path::new(path);
    let mut files = Vec::new();
    if root.is_dir() {
        let mut dirs = vec![root.to_path_buf()];
        let entries = std::fs::read_dir(root).map_err(|e| format!("{path}: {e}"))?;
        dirs.extend(
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir()),
        );
        dirs.sort();
        files.extend(
            dirs.iter()
                .map(|d| d.join("results.json"))
                .filter(|f| f.is_file()),
        );
    } else {
        files.push(root.to_path_buf());
    }
    if files.is_empty() {
        return Err(format!("{path}: no results.json"));
    }
    let mut cells = Cells::new();
    for file in files {
        let name = file.display();
        let text = std::fs::read_to_string(&file).map_err(|e| format!("{name}: {e}"))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
        let runs = v["runs"]
            .as_array()
            .ok_or(format!("{name}: no `runs` array"))?;
        for run in runs {
            let workload = run["workload"].as_str().ok_or("run without workload")?;
            let line = run["result"]["metrics"]
                .as_object()
                .ok_or("run without metrics")?;
            // a plain run's end-to-end metrics beyond its result line
            let plain_only = run["info"]["metrics"].as_object();
            for (metric, m) in line.iter().chain(plain_only.into_iter().flatten()) {
                let value = m["value"].as_f64().ok_or(format!("{metric}: no value"))?;
                cells
                    .entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(cells)
}

/// Print the comparison; returns how many cells came out `worse`.
pub fn compare(a: &Cells, b: &Cells) -> usize {
    println!(
        "{:<26} {:<40} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut worse = 0;
    for (workload, _) in metrics::WORKLOADS {
        for def in metrics::all() {
            let key = (workload.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            if ma == 0.0 && mb == 0.0 {
                continue; // this layer is idle on this workload
            }
            let change = if ma == 0.0 {
                f64::NAN
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            let (bound, word) = match def.bound {
                Some(bound) => {
                    let v = verdict(def, bound, va, vb);
                    worse += usize::from(v == Verdict::Worse);
                    (format!("{:.1}%", bound * 100.0), v.as_str())
                }
                None => ("-".to_string(), "-"),
            };
            println!(
                "{workload:<26} {:<40} {ma:>14.4} {mb:>14.4} {change:>+7.2}% {bound:>7}  {word}",
                def.name
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> &'static Def {
        metrics::find("op_ms_min").expect("defined")
    }

    fn higher() -> &'static Def {
        metrics::find("work_per_s").expect("defined")
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |m: f64| vec![m * 0.999, m, m * 1.001, m, m];
        // lower is better: +4 % is inside a 5 % bound, +6 % is not
        assert_eq!(
            verdict(lower(), 0.05, &steady(100.0), &steady(104.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(lower(), 0.05, &steady(100.0), &steady(106.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(lower(), 0.05, &steady(100.0), &steady(50.0)),
            Verdict::Ok
        );
        // higher is better: the same numbers flip
        assert_eq!(
            verdict(higher(), 0.05, &steady(100.0), &steady(94.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(higher(), 0.05, &steady(100.0), &steady(150.0)),
            Verdict::Ok
        );
        // a spread wider than the bound on either side resolves nothing
        let noisy = vec![80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            verdict(lower(), 0.05, &noisy, &steady(200.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lower(), 0.05, &steady(100.0), &noisy),
            Verdict::Unresolved
        );
        // exact metrics: a bound of 0 flags any worsening
        assert_eq!(verdict(lower(), 0.0, &[3.0], &[3.0]), Verdict::Ok);
        assert_eq!(verdict(lower(), 0.0, &[3.0], &[3.5]), Verdict::Worse);
    }
}
