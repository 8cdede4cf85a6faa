//! Cross-rank critical-path attribution over recorded spans.
//!
//! A distributed step is bounded by exactly one chain of work: the
//! *critical path* through the happens-before DAG whose nodes are spans
//! and whose edges are (a) per-rank program order and (b) cross-rank
//! synchronization at collectives — no participant leaves an allreduce
//! (or a negotiate round) before the last one enters. The DAG is
//! reconstructed from the trace alone: collective occurrences are
//! matched across ranks by `(span name, per-rank occurrence index)`,
//! the span-level mirror of the collective verifier's
//! `(kind, elems, seq)` signature (same name ⇒ same kind/payload, same
//! occurrence ⇒ same sequence number), so a trace that passes
//! verification always yields a well-formed DAG.
//!
//! The walk runs *backward* from the rank that finishes last. Inside a
//! synchronizing span the gating instant is the latest entry among the
//! participants: time after the gate is real communication, time before
//! it is waiting for the straggler, and the walk hops to the gating
//! rank there. Every critical-path microsecond lands in exactly one
//! bucket of [`Attribution`] — the buckets sum to the makespan by
//! construction, which is what lets `dlsr analyze --check` assert the
//! decomposition against the measured step time to float precision.
//!
//! Only **virtual**-clock spans participate: the critical path of the
//! simulated cluster lives in simulated time. Wall-clock spans (host
//! kernel timings) are used once, to spread critical-path compute over
//! layers proportionally to the measured per-layer profile.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::report::union_intervals;
use crate::{cat, Clock, TraceEvent};

/// Where the critical-path microseconds went, in seconds. The five
/// buckets are disjoint and complete: they sum to the analyzed
/// makespan (see module docs).
/// `Deserialize` is hand-written (the derive rejects absent fields) so a
/// committed baseline written before a future bucket existed still loads
/// with that bucket at zero — same contract as `report::FaultSummary`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Attribution {
    /// Kernel compute (`compute`, `tensor.*`, `nn.*` spans).
    pub compute_s: f64,
    /// Communication not hidden under compute.
    pub exposed_comm_s: f64,
    /// Waiting on other ranks: collective entry skew, negotiate rounds,
    /// and idle gaps between spans.
    pub straggler_wait_s: f64,
    /// Fault handling: restores and retry/backoff windows.
    pub fault_s: f64,
    /// Checkpoint snapshots.
    pub checkpoint_s: f64,
}

impl Deserialize for Attribution {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(Self::default());
        }
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for Attribution"))?;
        let num = |k: &str| obj.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
        Ok(Attribution {
            compute_s: num("compute_s"),
            exposed_comm_s: num("exposed_comm_s"),
            straggler_wait_s: num("straggler_wait_s"),
            fault_s: num("fault_s"),
            checkpoint_s: num("checkpoint_s"),
        })
    }
}

impl Attribution {
    /// Total attributed seconds.
    pub fn total(&self) -> f64 {
        self.compute_s
            + self.exposed_comm_s
            + self.straggler_wait_s
            + self.fault_s
            + self.checkpoint_s
    }

    /// `(label, seconds)` rows in a fixed presentation order.
    pub fn rows(&self) -> [(&'static str, f64); 5] {
        [
            ("kernel compute", self.compute_s),
            ("exposed comm", self.exposed_comm_s),
            ("straggler wait", self.straggler_wait_s),
            ("fault retry/backoff", self.fault_s),
            ("checkpoint", self.checkpoint_s),
        ]
    }

    /// Name of the dominant bucket.
    pub fn bound_by(&self) -> &'static str {
        self.rows()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n)
            .unwrap_or("kernel compute")
    }

    fn add(&mut self, label: Label, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        match label {
            Label::Compute => self.compute_s += dt,
            Label::Comm => self.exposed_comm_s += dt,
            Label::Wait => self.straggler_wait_s += dt,
            Label::Fault => self.fault_s += dt,
            Label::Checkpoint => self.checkpoint_s += dt,
        }
    }

    fn scaled(&self, f: f64) -> Attribution {
        Attribution {
            compute_s: self.compute_s * f,
            exposed_comm_s: self.exposed_comm_s * f,
            straggler_wait_s: self.straggler_wait_s * f,
            fault_s: self.fault_s * f,
            checkpoint_s: self.checkpoint_s * f,
        }
    }
}

/// Result of a critical-path analysis. Serialized inside
/// [`crate::report::StepReport`] when attached.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CritPath {
    /// End of the last virtual span minus start of the first: the
    /// quantity being decomposed.
    pub makespan_s: f64,
    /// Steps the trace covered (0 = unknown; per-step table empty).
    pub steps: usize,
    /// Whole-run attribution; buckets sum to `makespan_s`.
    pub total: Attribution,
    /// Per-step slices of the path (step boundaries from the per-rank
    /// forward-pass spans; initialization folds into step 0).
    pub per_step: Vec<Attribution>,
    /// Critical-path compute spread over layers proportionally to the
    /// wall-clock per-layer profile.
    pub per_layer: BTreeMap<String, f64>,
    /// Contiguous path segments walked.
    pub segments: usize,
    /// Cross-rank hops taken at collective gates.
    pub hops: usize,
    /// Dominant bucket of `total` — the "bounded by" headline.
    pub bound_by: String,
}

impl CritPath {
    /// Mean attributed step time, seconds.
    pub fn step_time_s(&self) -> f64 {
        if self.steps == 0 {
            self.makespan_s
        } else {
            self.makespan_s / self.steps as f64
        }
    }

    /// Text rendering: the "step time is X, bounded by Y" headline plus
    /// the category and per-step tables.
    pub fn render(&self) -> String {
        let ms = |s: f64| s * 1e3;
        let mut out = String::new();
        let share = if self.makespan_s > 0.0 {
            100.0
                * self
                    .total
                    .rows()
                    .into_iter()
                    .map(|(_, v)| v)
                    .fold(f64::NEG_INFINITY, f64::max)
                / self.makespan_s
        } else {
            0.0
        };
        out.push_str(&format!(
            "critical path: step time is {:.3} ms, bounded by {} ({:.1}% of the path)\n",
            ms(self.step_time_s()),
            self.bound_by,
            share,
        ));
        out.push_str(&format!(
            "  makespan {:.3} ms over {} steps · {} segments · {} cross-rank hops\n",
            ms(self.makespan_s),
            self.steps,
            self.segments,
            self.hops,
        ));
        for (name, v) in self.total.rows() {
            out.push_str(&format!(
                "  {name:<20} {:>10.3} ms ({:>5.1}%)\n",
                ms(v),
                if self.makespan_s > 0.0 {
                    v / self.makespan_s * 100.0
                } else {
                    0.0
                }
            ));
        }
        if !self.per_step.is_empty() {
            out.push_str(
                "  step | total ms | compute | exposed |    wait |   fault |    ckpt | bounded by\n",
            );
            for (i, a) in self.per_step.iter().enumerate() {
                out.push_str(&format!(
                    "  {:>4} | {:>8.3} | {:>7.3} | {:>7.3} | {:>7.3} | {:>7.3} | {:>7.3} | {}\n",
                    i,
                    ms(a.total()),
                    ms(a.compute_s),
                    ms(a.exposed_comm_s),
                    ms(a.straggler_wait_s),
                    ms(a.fault_s),
                    ms(a.checkpoint_s),
                    a.bound_by(),
                ));
            }
        }
        if !self.per_layer.is_empty() {
            let mut layers: Vec<(&String, f64)> =
                self.per_layer.iter().map(|(k, &v)| (k, v)).collect();
            layers.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            out.push_str("  critical-path compute by layer:\n");
            for (name, v) in layers {
                out.push_str(&format!("    {name:<26} {:>10.3} ms\n", ms(v)));
            }
        }
        out
    }
}

/// Instantaneous label of a rank's timeline, by priority (fault phases
/// are exclusive in the engines; compute hides communication;
/// communication outranks bare negotiate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    Checkpoint,
    Fault,
    Compute,
    Comm,
    Wait,
}

/// One labeled interval of a rank's profile.
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: f64,
    end: f64,
    label: Label,
}

/// A synchronizing span occurrence on one rank.
#[derive(Debug, Clone)]
struct SyncSpan {
    start: f64,
    end: f64,
    /// Latest entry among all participants — the gating instant.
    gate: f64,
    /// Rank supplying that latest entry.
    gate_rank: usize,
}

fn is_compute(cat_: &str) -> bool {
    cat::COMPUTE_SET.contains(&cat_)
}

fn is_comm(cat_: &str) -> bool {
    cat::COMM_SET.contains(&cat_)
}

/// Build one rank's labeled timeline over `[t0, t1]` by priority sweep
/// over the per-class interval unions.
fn labeled_profile(spans: &[&TraceEvent], t0: f64, t1: f64) -> Vec<Seg> {
    let class_of = |e: &TraceEvent| -> Option<Label> {
        if e.cat == cat::FAULT {
            if e.name.starts_with("checkpoint") {
                Some(Label::Checkpoint)
            } else {
                Some(Label::Fault)
            }
        } else if is_compute(&e.cat) {
            Some(Label::Compute)
        } else if is_comm(&e.cat) {
            Some(Label::Comm)
        } else if e.cat == cat::NEGOTIATE {
            Some(Label::Wait)
        } else {
            None
        }
    };
    // Priority order: earlier entries win where unions overlap.
    let classes = [
        Label::Checkpoint,
        Label::Fault,
        Label::Compute,
        Label::Comm,
        Label::Wait,
    ];
    let mut unions: Vec<(Label, Vec<(f64, f64)>)> = Vec::with_capacity(classes.len());
    for lab in classes {
        let iv = union_intervals(
            spans
                .iter()
                .filter(|e| class_of(e) == Some(lab))
                .map(|e| (e.start_s, e.end_s))
                .collect(),
        );
        unions.push((lab, iv));
    }
    // Sweep over all boundary points; label each elementary interval by
    // the highest-priority class covering it (gaps stay `Wait`).
    let mut cuts: Vec<f64> = vec![t0, t1];
    for (_, iv) in &unions {
        for &(s, e) in iv {
            cuts.push(s.clamp(t0, t1));
            cuts.push(e.clamp(t0, t1));
        }
    }
    cuts.sort_by(|a, b| a.total_cmp(b));
    cuts.dedup();
    let mut segs: Vec<Seg> = Vec::with_capacity(cuts.len());
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b <= a {
            continue;
        }
        let mid = 0.5 * (a + b);
        let mut label = Label::Wait;
        for (lab, iv) in &unions {
            let idx = iv.partition_point(|&(s, _)| s <= mid);
            if idx > 0 && iv[idx - 1].1 > mid {
                label = *lab;
                break;
            }
        }
        match segs.last_mut() {
            Some(last) if last.label == label && last.end >= a => last.end = b,
            _ => segs.push(Seg {
                start: a,
                end: b,
                label,
            }),
        }
    }
    segs
}

/// Parse the `{bytes}B` suffix convention of collective span names.
pub fn bytes_of_span_name(name: &str) -> Option<u64> {
    let trimmed = name.strip_suffix('B')?;
    let digits: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        return None;
    }
    digits.chars().rev().collect::<String>().parse().ok()
}

/// Mean duration and call count of each distinct collective span name
/// (virtual clock), for cost-model fitting. `calls` counts one rank's
/// occurrences (they are equal across ranks on a verified trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveProfile {
    /// Span name (`allreduce[g0] 8192B`, `negotiate c0 34t`, …).
    pub name: String,
    /// Payload bytes parsed from the name, when present.
    pub bytes: u64,
    /// Occurrences per rank.
    pub calls: usize,
    /// Mean span duration, seconds.
    pub mean_s: f64,
}

/// Extract per-collective timing rows from a trace: every
/// `allreduce`/`negotiate`-category virtual span, grouped by name.
pub fn collective_profiles(events: &[TraceEvent]) -> Vec<CollectiveProfile> {
    let mut agg: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    let mut ranks: BTreeMap<&str, std::collections::BTreeSet<usize>> = BTreeMap::new();
    for e in events {
        if e.clock != Clock::Virtual || (e.cat != cat::ALLREDUCE && e.cat != cat::NEGOTIATE) {
            continue;
        }
        let a = agg.entry(&e.name).or_insert((0, 0.0));
        a.0 += 1;
        a.1 += e.dur_s();
        ranks.entry(&e.name).or_default().insert(e.rank);
    }
    agg.into_iter()
        .map(|(name, (n, sum))| {
            let nranks = ranks.get(name).map(|r| r.len().max(1)).unwrap_or(1);
            CollectiveProfile {
                name: name.to_string(),
                bytes: bytes_of_span_name(name).unwrap_or(0),
                calls: n / nranks,
                mean_s: sum / n as f64,
            }
        })
        .collect()
}

/// Compute the distributed critical path of a trace and attribute it.
/// `steps` drives the per-step table; pass 0 when unknown.
pub fn critical_path(events: &[TraceEvent], steps: usize) -> CritPath {
    let virt: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.clock == Clock::Virtual)
        .collect();
    if virt.is_empty() {
        return CritPath::default();
    }
    let t0 = virt.iter().map(|e| e.start_s).fold(f64::INFINITY, f64::min);
    let t1 = virt
        .iter()
        .map(|e| e.end_s)
        .fold(f64::NEG_INFINITY, f64::max);

    let mut by_rank: BTreeMap<usize, Vec<&TraceEvent>> = BTreeMap::new();
    for e in &virt {
        by_rank.entry(e.rank).or_default().push(e);
    }
    for spans in by_rank.values_mut() {
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    }

    // ---- cross-rank sync matching --------------------------------------
    // Sync spans: collective (`allreduce`) and coordination (`negotiate`)
    // spans, plus standalone `mpi` collectives (bcast/barrier) not nested
    // inside an allreduce span of the same rank. Matched across ranks by
    // (name, per-rank occurrence index) — the trace-level image of the
    // verifier's (kind, elems, seq) signature.
    // occurrence key → [(rank, start, end)] of every participant
    type Participants = Vec<(usize, f64, f64)>;
    let mut entries: BTreeMap<(String, usize), Participants> = BTreeMap::new();
    for (&rank, spans) in &by_rank {
        let ar_union = union_intervals(
            spans
                .iter()
                .filter(|e| e.cat == cat::ALLREDUCE)
                .map(|e| (e.start_s, e.end_s))
                .collect(),
        );
        let nested_in_ar = |e: &TraceEvent| -> bool {
            let idx = ar_union.partition_point(|&(s, _)| s <= e.start_s);
            idx > 0 && ar_union[idx - 1].1 >= e.end_s
        };
        let mut occ: BTreeMap<&str, usize> = BTreeMap::new();
        for e in spans {
            let sync = e.cat == cat::ALLREDUCE
                || e.cat == cat::NEGOTIATE
                || (e.cat == cat::MPI && !nested_in_ar(e));
            if !sync {
                continue;
            }
            let k = occ.entry(&e.name).or_insert(0);
            entries
                .entry((e.name.clone(), *k))
                .or_default()
                .push((rank, e.start_s, e.end_s));
            *k += 1;
        }
    }
    // Per rank, sorted by start: the sync spans with their resolved gate.
    let mut syncs: BTreeMap<usize, Vec<SyncSpan>> = BTreeMap::new();
    for ((_, _), parts) in &entries {
        let (mut gate, mut gate_rank) = (f64::NEG_INFINITY, 0);
        for &(r, s, _) in parts {
            if s > gate {
                gate = s;
                gate_rank = r;
            }
        }
        for &(r, s, e) in parts {
            syncs.entry(r).or_default().push(SyncSpan {
                start: s,
                end: e,
                gate,
                gate_rank,
            });
        }
    }
    for v in syncs.values_mut() {
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
    }

    // ---- per-rank labeled timelines ------------------------------------
    let profiles: BTreeMap<usize, Vec<Seg>> = by_rank
        .iter()
        .map(|(&r, spans)| (r, labeled_profile(spans, t0, t1)))
        .collect();

    // ---- backward walk -------------------------------------------------
    let mut cur_rank = by_rank
        .iter()
        .map(|(&r, spans)| {
            let end = spans
                .iter()
                .map(|e| e.end_s)
                .fold(f64::NEG_INFINITY, f64::max);
            (r, end)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(r, _)| r)
        .unwrap_or(0);
    let mut t = t1;
    let mut path: Vec<(usize, f64, f64, Label)> = Vec::new(); // (rank, start, end, label)
    let mut hops = 0usize;
    let eps = 1e-15;
    while t > t0 + eps {
        let profile = &profiles[&cur_rank];
        // Elementary interval containing t-ε.
        let idx = profile.partition_point(|s| s.start < t - eps);
        let seg = if idx > 0 {
            profile[idx - 1]
        } else {
            profile[0]
        };
        let mut lo = seg.start.max(t0);
        let mut label = seg.label;
        let mut hop_to: Option<usize> = None;
        if matches!(label, Label::Comm | Label::Wait) {
            // Innermost sync span containing t-ε, if any: apply the gate.
            let rs = syncs.get(&cur_rank).map(Vec::as_slice).unwrap_or(&[]);
            let j = rs.partition_point(|s| s.start < t - eps);
            let covering = rs[..j]
                .iter()
                .rev()
                .take(8)
                .find(|s| s.end > t - eps && s.start < t - eps);
            if let Some(s) = covering {
                if s.gate < t - eps && s.gate > lo {
                    // Wait-for-last-entrant ends at the gate; hop there.
                    lo = s.gate;
                    if s.gate_rank != cur_rank {
                        hop_to = Some(s.gate_rank);
                    }
                } else if s.gate >= t - eps && s.gate_rank != cur_rank && s.start < lo + eps {
                    // Entire remaining stretch of this span is pre-gate
                    // waiting on another rank.
                    label = Label::Wait;
                }
            }
        }
        path.push((cur_rank, lo, t, label));
        t = lo;
        if let Some(r) = hop_to {
            cur_rank = r;
            hops += 1;
        }
    }

    // ---- attribution ---------------------------------------------------
    let mut total = Attribution::default();
    for &(_, a, b, label) in &path {
        total.add(label, b - a);
    }
    // Close the float gap between summed segments and the makespan so
    // the decomposition is exact by construction: any residual rounding
    // goes to the dominant bucket via proportional rescale.
    let makespan = t1 - t0;
    let s = total.total();
    if s > 0.0 && makespan > 0.0 {
        total = total.scaled(makespan / s);
    }

    // ---- per-step table ------------------------------------------------
    // Step boundaries: starts of each rank's forward spans (realtrain
    // names them `fwd …`), taken from the rank that owns each segment.
    let fwd_starts: BTreeMap<usize, Vec<f64>> = by_rank
        .iter()
        .map(|(&r, spans)| {
            (
                r,
                spans
                    .iter()
                    .filter(|e| is_compute(&e.cat) && e.name.starts_with("fwd"))
                    .map(|e| e.start_s)
                    .collect(),
            )
        })
        .collect();
    let per_step = if steps > 0 {
        let mut table = vec![Attribution::default(); steps];
        for &(rank, a, b, label) in &path {
            let bounds = &fwd_starts[&rank];
            let usable = bounds.len() == steps;
            let step_of = |x: f64| -> usize {
                if usable {
                    bounds.partition_point(|&s| s <= x).saturating_sub(1)
                } else {
                    (((x - t0) / (t1 - t0).max(eps) * steps as f64) as usize).min(steps - 1)
                }
            };
            // Slice the segment at step boundaries.
            let (mut sa, sb) = (step_of(a + eps), step_of(b - eps));
            let mut lo = a;
            while sa < sb {
                let cut = if usable {
                    bounds[sa + 1]
                } else {
                    t0 + (t1 - t0) * (sa + 1) as f64 / steps as f64
                };
                table[sa].add(label, cut - lo);
                lo = cut;
                sa += 1;
            }
            table[sb].add(label, b - lo);
        }
        table
    } else {
        Vec::new()
    };

    // ---- per-layer spread ----------------------------------------------
    let mut layer_wall: BTreeMap<String, f64> = BTreeMap::new();
    for e in events {
        if e.cat == cat::NN_FWD || e.cat == cat::NN_BWD {
            *layer_wall.entry(e.name.clone()).or_default() += e.dur_s();
        }
    }
    let wall_total: f64 = layer_wall.values().sum();
    let per_layer = if wall_total > 0.0 {
        layer_wall
            .into_iter()
            .map(|(k, v)| (k, total.compute_s * v / wall_total))
            .collect()
    } else {
        BTreeMap::new()
    };

    let bound_by = total.bound_by().to_string();
    CritPath {
        makespan_s: makespan,
        steps,
        total,
        per_step,
        per_layer,
        segments: path.len(),
        hops,
        bound_by,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, cat_: &'static str, rank: usize, s: f64, e: f64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: cat_.into(),
            rank,
            start_s: s,
            end_s: e,
            clock: Clock::Virtual,
        }
    }

    #[test]
    fn single_rank_compute_plus_exposed_tail() {
        // fwd 0..4, bwd 4..10 hiding an allreduce 6..9 whose tail runs
        // exposed 10..12: compute 10, exposed 2.
        let events = vec![
            ev("fwd b1", cat::COMPUTE, 0, 0.0, 4.0),
            ev("bwd 3t", cat::COMPUTE, 0, 4.0, 10.0),
            ev("allreduce[g0] 64B", cat::ALLREDUCE, 0, 6.0, 12.0),
        ];
        let cp = critical_path(&events, 1);
        assert!((cp.makespan_s - 12.0).abs() < 1e-9);
        assert!((cp.total.compute_s - 10.0).abs() < 1e-9);
        assert!((cp.total.exposed_comm_s - 2.0).abs() < 1e-9);
        assert!((cp.total.total() - cp.makespan_s).abs() < 1e-9 * cp.makespan_s);
        assert_eq!(cp.bound_by, "kernel compute");
        assert_eq!(cp.hops, 0);
    }

    #[test]
    fn straggler_gate_hops_to_the_late_rank() {
        // Rank 0 computes 0..2 then sits in the allreduce 2..11.2; rank 1
        // computes 0..10 and enters at 10 (the gate). The path starts on
        // rank 0 (latest finisher): comm 10..11.2, then a hop to rank 1
        // attributing 0..10 as rank 1 compute. Rank 0's 2..10 of waiting
        // never appears on the path.
        let events = vec![
            ev("fwd b1", cat::COMPUTE, 0, 0.0, 2.0),
            ev("allreduce[g0] 64B", cat::ALLREDUCE, 0, 2.0, 11.2),
            ev("fwd b1", cat::COMPUTE, 1, 0.0, 10.0),
            ev("allreduce[g0] 64B", cat::ALLREDUCE, 1, 10.0, 11.0),
        ];
        let cp = critical_path(&events, 1);
        assert!((cp.makespan_s - 11.2).abs() < 1e-9);
        assert!((cp.total.compute_s - 10.0).abs() < 1e-9, "{:?}", cp.total);
        assert!(
            (cp.total.exposed_comm_s - 1.2).abs() < 1e-9,
            "{:?}",
            cp.total
        );
        assert_eq!(cp.hops, 1);
        assert!((cp.total.total() - 11.2).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_and_restore_split_fault_buckets() {
        let events = vec![
            ev("fwd b1", cat::COMPUTE, 0, 0.0, 4.0),
            ev("checkpoint step 1", cat::FAULT, 0, 4.0, 5.0),
            ev("restore r0 step 1 <- ckpt 1", cat::FAULT, 0, 5.0, 5.5),
        ];
        let cp = critical_path(&events, 1);
        assert!((cp.total.checkpoint_s - 1.0).abs() < 1e-9);
        assert!((cp.total.fault_s - 0.5).abs() < 1e-9);
        assert!((cp.total.total() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn negotiate_counts_as_wait_not_comm() {
        let events = vec![
            ev("fwd b1", cat::COMPUTE, 0, 0.0, 3.0),
            ev("negotiate c0 4t", cat::NEGOTIATE, 0, 3.0, 4.0),
            ev("allreduce[g0] 64B", cat::ALLREDUCE, 0, 4.0, 6.0),
        ];
        let cp = critical_path(&events, 1);
        assert!((cp.total.straggler_wait_s - 1.0).abs() < 1e-9);
        assert!((cp.total.exposed_comm_s - 2.0).abs() < 1e-9);
        assert!((cp.total.compute_s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_step_slices_cover_the_makespan() {
        let events = vec![
            ev("fwd b1", cat::COMPUTE, 0, 0.0, 2.0),
            ev("bwd 2t", cat::COMPUTE, 0, 2.0, 4.0),
            ev("fwd b1", cat::COMPUTE, 0, 4.0, 6.0),
            ev("bwd 2t", cat::COMPUTE, 0, 6.0, 8.0),
        ];
        let cp = critical_path(&events, 2);
        assert_eq!(cp.per_step.len(), 2);
        let per_step_total: f64 = cp.per_step.iter().map(|a| a.total()).sum();
        assert!((per_step_total - cp.makespan_s).abs() < 1e-9);
        assert!((cp.per_step[0].total() - 4.0).abs() < 1e-9);
        assert!((cp.per_step[1].total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn collective_profiles_parse_bytes_and_counts() {
        let events = vec![
            ev("allreduce[g0] 8192B", cat::ALLREDUCE, 0, 0.0, 1.0),
            ev("allreduce[g0] 8192B", cat::ALLREDUCE, 1, 0.0, 3.0),
            ev("negotiate c0 4t", cat::NEGOTIATE, 0, 1.0, 1.5),
        ];
        let rows = collective_profiles(&events);
        assert_eq!(rows.len(), 2);
        let ar = rows
            .iter()
            .find(|r| r.name.starts_with("allreduce"))
            .unwrap();
        assert_eq!(ar.bytes, 8192);
        assert_eq!(ar.calls, 1);
        assert!((ar.mean_s - 2.0).abs() < 1e-12);
        assert_eq!(bytes_of_span_name("allreduce.Ring[g2] 123B"), Some(123));
        assert_eq!(bytes_of_span_name("negotiate c0 4t"), None);
    }

    #[test]
    fn render_prints_the_bounded_by_headline() {
        let events = vec![ev("fwd b1", cat::COMPUTE, 0, 0.0, 2.0)];
        let cp = critical_path(&events, 1);
        let text = cp.render();
        assert!(text.contains("bounded by kernel compute"), "{text}");
        assert!(text.contains("step time is 2000.000 ms"), "{text}");
    }
}
