//! The traced run's span recorder. Spans are recorded from the benchmark's
//! own files, around the calls into each layer; they stay in memory and
//! are written out once, when the run ends. No instrumentation lives under
//! `crates/`, and the `dlsr_trace` collector stays off.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Crate name of the layer the spanned call enters (`bench` for the
    /// op root span).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Timed-op index: spans of one op share it.
    pub op: u32,
    pub rank: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store for one thread of execution (one per rank where
/// ranks are threads; [`Recorder::absorb`] merges them afterwards).
#[derive(Debug)]
pub struct Recorder {
    /// `None`: recording is off and `span` only runs its closure, so a
    /// plain op can share the traced op's code without paying for spans.
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
    rank: u32,
}

impl Recorder {
    /// `epoch` is shared by every recorder of a run so merged spans are on
    /// one time axis.
    pub fn new(epoch: Instant, rank: u32) -> Self {
        Recorder {
            epoch: Some(epoch),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            rank,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            rank: 0,
        }
    }

    /// A recorder for rank `rank` of the op this one is recording, on the
    /// same time axis (off if this one is off).
    pub fn for_rank(&self, rank: u32) -> Self {
        Recorder {
            rank,
            spans: Vec::new(),
            open: Vec::new(),
            ..*self
        }
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Run `f` inside a span; nested calls become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            rank: self.rank,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Merge another recorder's (closed) spans under the currently open
    /// span, keeping their internal parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(under);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover. Children on other ranks overlap in
    /// wall time, so coverage is the union of child intervals, clipped to
    /// the parent.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Durations (ms) of every span called `name`, grouped per op (summed
    /// within an op and rank-0 only, so a per-step span inside a 100-step
    /// op yields that op's busy time).
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name && s.rank == 0) {
            *by_op.entry(s.op).or_default() += s.dur_ns();
        }
        by_op.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Self time per layer in ms, summed over the run.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer).or_default() += ns as f64 / 1e6;
        }
        out
    }

    /// Share of the container spans' time that their child spans cover. A
    /// container is a `bench`-layer span with children: the op root, and a
    /// rank's body inside a world. A span that is itself a call into a layer
    /// (`MpiWorld::run` around the rank bodies) is not one — its self time
    /// is that layer's — so wrapping the whole op in one call does not read
    /// as full coverage.
    pub fn coverage_pct(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for p in self.spans.iter().filter_map(|s| s.parent) {
            has_child[p] = true;
        }
        let (mut total, mut uncovered) = (0u64, 0u64);
        for ((s, ns), has_child) in self.spans.iter().zip(self.self_ns()).zip(has_child) {
            if s.layer == "bench" && has_child {
                total += s.dur_ns();
                uncovered += ns;
            }
        }
        if total == 0 {
            return 0.0;
        }
        100.0 * (1.0 - uncovered as f64 / total as f64)
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let selfs = self.self_ns();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                json!({
                    "name": s.name,
                    "layer": s.layer,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self_ns,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                    "op": s.op,
                    "rank": s.rank,
                })
            })
            .collect();
        json!({ "workload": workload, "spans": spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span of the benchmark's own: a container once it has children.
    fn span(start: u64, end: u64, parent: Option<usize>, rank: u32) -> Span {
        Span {
            name: "s",
            layer: "bench",
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            rank,
        }
    }

    /// A call into a layer.
    fn mpi(start: u64, end: u64, parent: Option<usize>, rank: u32) -> Span {
        Span {
            layer: "mpi",
            ..span(start, end, parent, rank)
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        let mut r = Recorder::new(Instant::now(), 0);
        r.spans = spans;
        r
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100); children [10,30) and [40,90); grandchild [50,60)
        let r = recorder(vec![
            span(0, 100, None, 0),
            mpi(10, 30, Some(0), 0),
            mpi(40, 90, Some(0), 0),
            mpi(50, 60, Some(2), 0),
        ]);
        assert_eq!(r.self_ns(), vec![30, 20, 40, 10]);
        assert!((r.coverage_pct() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_rank_children_cover_their_union() {
        // four rank spans running concurrently under one op must not
        // subtract more than the parent's own duration
        let r = recorder(vec![
            span(0, 100, None, 0),
            span(5, 95, Some(0), 0),
            span(10, 98, Some(0), 1),
            span(0, 50, Some(0), 2),
            span(60, 120, Some(0), 3), // clipped to the parent
        ]);
        assert_eq!(r.self_ns()[0], 0);
    }

    #[test]
    fn a_world_span_keeps_what_its_rank_bodies_leave_and_is_no_container() {
        // op [0,100) ⊃ world call [10,90) ⊃ two rank bodies, each with one
        // leaf that covers half of it
        let r = recorder(vec![
            span(0, 100, None, 0),
            mpi(10, 90, Some(0), 0),
            span(20, 80, Some(1), 0),
            mpi(20, 50, Some(2), 0),
            span(30, 85, Some(1), 1),
            mpi(30, 60, Some(4), 1),
        ]);
        let selfs = r.self_ns();
        // the world's own time: its 80 minus the union [20,85) of the bodies
        assert_eq!(selfs[1], 80 - 65);
        assert_eq!((selfs[2], selfs[4]), (30, 25));
        // containers: op (100, 20 uncovered) and the bodies (60 + 55, 55
        // uncovered); the world call covering the op does not hide them
        let want = 100.0 * (1.0 - 75.0 / 215.0);
        assert!((r.coverage_pct() - want).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_absorb_rebases() {
        let mut a = Recorder::new(Instant::now(), 0);
        a.set_op(3);
        a.span("op", "bench", |a| {
            a.span("inner", "mpi", |_| ());
            let mut b = a.for_rank(1);
            b.span("rank", "horovod", |b| b.span("leaf", "nn", |_| ()));
            a.absorb(b);
        });
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            s[2].parent,
            Some(0),
            "absorbed root hangs under the open span"
        );
        assert_eq!(s[3].parent, Some(2), "absorbed child keeps its own parent");
        assert!(s.iter().all(|x| x.op == 3 && x.end_ns >= x.start_ns));
        assert_eq!(s[3].rank, 1);

        let mut off = Recorder::off();
        assert_eq!(
            off.span("op", "bench", |r| r.for_rank(2).span("x", "mpi", |_| 7)),
            7
        );
        assert!(off.spans().is_empty());
    }
}
