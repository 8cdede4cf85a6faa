//! A Horovod-timeline-style event trace (`HOROVOD_TIMELINE` produces a
//! Chrome `chrome://tracing` JSON file; so does this).
//!
//! Ordering contract: a [`Timeline`] is append-only — [`Timeline::record`],
//! [`Timeline::merge`] and [`Timeline::absorb`] all push to the end, and
//! [`Timeline::events`] shows that order. Start-time order is established
//! once, on export ([`Timeline::to_chrome_trace`], serialization), and only
//! for a timeline that merged another: stable by `ts_us`, so ties keep merge
//! order, then record order. A timeline that never merged exports in record
//! order.

use std::borrow::Cow;
use std::fmt;

use serde::{Deserialize, Serialize};

/// An event name: literal text, or a static template whose `{}` holes are
/// filled from up to three integers when the name is displayed. The
/// simulator records ~100 events per rank-run and exports almost none of
/// them, so the indexed form keeps recording free of formatting and
/// allocation.
#[derive(Debug, Clone)]
pub enum Label {
    /// The name itself.
    Text(String),
    /// `template` with its i-th `{}` replaced by `args[i]`.
    Indexed {
        /// Text with at most three `{}` holes.
        template: &'static str,
        /// Values for the holes, in order; unused entries are ignored.
        args: [u64; 3],
    },
}

impl Label {
    /// `template` with each `{}` filled from `args` on display.
    pub fn indexed(template: &'static str, args: [u64; 3]) -> Label {
        debug_assert!(template.matches("{}").count() <= args.len());
        Label::Indexed { template, args }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Text(s) => f.write_str(s),
            Label::Indexed { template, args } => {
                let mut parts = template.split("{}");
                f.write_str(parts.next().unwrap_or_default())?;
                parts
                    .zip(args)
                    .try_for_each(|(part, arg)| write!(f, "{arg}{part}"))
            }
        }
    }
}

/// Labels are equal when they display the same (a deserialized label is
/// always [`Label::Text`]).
impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        match (self, other) {
            (Label::Text(a), Label::Text(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl From<String> for Label {
    fn from(s: String) -> Label {
        Label::Text(s)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Label {
        Label::Text(s.to_owned())
    }
}

impl Serialize for Label {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl Deserialize for Label {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(Label::Text)
    }
}

/// One complete ("X" phase) trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event name (e.g. the fused tensor group).
    pub name: Label,
    /// Category (e.g. "allreduce", "negotiate", "compute").
    pub cat: Cow<'static, str>,
    /// Start time in microseconds (virtual).
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Process id — we map the MPI rank here.
    pub rank: usize,
}

/// An append-only event trace for one run (see the module docs for the
/// ordering contract).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "TimelineWire", into = "TimelineWire")]
pub struct Timeline {
    events: Vec<TraceEvent>,
    /// Set once another timeline was merged in: export orders by start time.
    merged: bool,
}

/// Serialized form: the events in export order.
#[derive(Serialize, Deserialize)]
struct TimelineWire {
    events: Vec<TraceEvent>,
}

impl From<TimelineWire> for Timeline {
    fn from(w: TimelineWire) -> Timeline {
        Timeline {
            events: w.events,
            merged: false,
        }
    }
}

impl From<Timeline> for TimelineWire {
    fn from(t: Timeline) -> TimelineWire {
        TimelineWire {
            events: t.export_order().into_iter().cloned().collect(),
        }
    }
}

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty timeline with room for `events` events.
    pub fn with_capacity(events: usize) -> Self {
        Timeline {
            events: Vec::with_capacity(events),
            merged: false,
        }
    }

    /// Record a complete event spanning `[start_s, end_s]` (seconds).
    pub fn record(
        &mut self,
        name: impl Into<Label>,
        cat: impl Into<Cow<'static, str>>,
        rank: usize,
        start_s: f64,
        end_s: f64,
    ) {
        debug_assert!(end_s >= start_s, "event ends before it starts");
        self.events.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            ts_us: start_s * 1e6,
            dur_us: (end_s - start_s) * 1e6,
            rank,
        });
    }

    /// The recorded events, in append order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Merge another rank's timeline: append a copy of its events. The
    /// merged trace exports ordered by start time.
    pub fn merge(&mut self, other: &Timeline) {
        self.events.extend_from_slice(&other.events);
        self.merged = true;
    }

    /// [`Timeline::merge`] that moves the events instead of copying them.
    pub fn absorb(&mut self, mut other: Timeline) {
        self.events.append(&mut other.events);
        self.merged = true;
    }

    /// The events in export order: a merged multi-rank trace reads
    /// chronologically in `chrome://tracing`/Perfetto (`ts_us`, stable for
    /// ties); a single-source trace stays in record order.
    fn export_order(&self) -> Vec<&TraceEvent> {
        let mut order: Vec<&TraceEvent> = self.events.iter().collect();
        if self.merged {
            order.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        }
        order
    }

    /// Total duration attributed to a category (seconds).
    pub fn category_seconds(&self, cat: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.cat == cat)
            .map(|e| e.dur_us / 1e6)
            .sum()
    }

    /// Serialize to the Chrome `chrome://tracing` array format.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<serde_json::Value> = self
            .export_order()
            .into_iter()
            .map(|e| {
                serde_json::json!({
                    "name": e.name,
                    "cat": e.cat,
                    "ph": "X",
                    "ts": e.ts_us,
                    "dur": e.dur_us,
                    "pid": e.rank,
                    "tid": 0,
                })
            })
            .collect();
        serde_json::to_string_pretty(&serde_json::Value::Array(events)).expect("trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sums_categories() {
        let mut t = Timeline::new();
        t.record("group0", "allreduce", 0, 0.010, 0.025);
        t.record("group1", "allreduce", 0, 0.030, 0.050);
        t.record("fwd", "compute", 0, 0.0, 0.010);
        assert_eq!(t.events().len(), 3);
        assert!((t.category_seconds("allreduce") - 0.035).abs() < 1e-9);
        assert!((t.category_seconds("compute") - 0.010).abs() < 1e-9);
        assert_eq!(t.category_seconds("nothing"), 0.0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_phase_x() {
        let mut t = Timeline::new();
        t.record("g", "allreduce", 3, 0.0, 0.001);
        let json = t.to_chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0]["ph"], "X");
        assert_eq!(arr[0]["pid"], 3);
        assert!((arr[0]["dur"].as_f64().unwrap() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn merge_combines_ranks() {
        let mut a = Timeline::new();
        a.record("x", "c", 0, 0.0, 1.0);
        let mut b = Timeline::new();
        b.record("y", "c", 1, 0.0, 2.0);
        a.merge(&b);
        assert_eq!(a.events().len(), 2);
        assert!((a.category_seconds("c") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_orders_events_by_start_time() {
        // Rank timelines arrive with interleaved timestamps; the merged
        // trace must be sorted by ts_us regardless of merge order.
        let mut a = Timeline::new();
        a.record("a0", "compute", 0, 0.030, 0.040);
        a.record("a1", "compute", 0, 0.000, 0.010);
        let mut b = Timeline::new();
        b.record("b0", "allreduce", 1, 0.020, 0.025);
        b.record("b1", "allreduce", 1, 0.005, 0.015);
        let mut merged = Timeline::new();
        merged.merge(&a);
        merged.merge(&b);
        let ts: Vec<f64> = merged.export_order().iter().map(|e| e.ts_us).collect();
        assert_eq!(merged.events().len(), 4);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "unsorted: {ts:?}");
        // Stable for ties: equal timestamps keep insertion order.
        let mut c = Timeline::new();
        c.record("first", "c", 0, 0.0, 1.0);
        let mut d = Timeline::new();
        d.record("second", "c", 1, 0.0, 2.0);
        c.merge(&d);
        let names: Vec<String> = c
            .export_order()
            .iter()
            .map(|e| e.name.to_string())
            .collect();
        assert_eq!(names, ["first", "second"]);
    }

    #[test]
    fn unmerged_timeline_exports_in_record_order_and_absorb_equals_merge() {
        let mut a = Timeline::new();
        a.record("late", "compute", 0, 0.5, 0.6);
        a.record("early", "compute", 0, 0.1, 0.2);
        let names = |t: &Timeline| -> Vec<String> {
            t.export_order()
                .iter()
                .map(|e| e.name.to_string())
                .collect()
        };
        assert_eq!(names(&a), ["late", "early"]);
        let (mut by_ref, mut by_value) = (Timeline::new(), Timeline::new());
        by_ref.merge(&a);
        by_value.absorb(a);
        assert_eq!(names(&by_ref), ["early", "late"]);
        assert_eq!(by_ref.to_chrome_trace(), by_value.to_chrome_trace());
    }

    #[test]
    fn indexed_labels_render_like_format() {
        let (step, group, mb) = (7u64, 3u64, 45u64);
        assert_eq!(
            Label::indexed("fwd[{}]", [step, 0, 0]).to_string(),
            format!("fwd[{step}]")
        );
        assert_eq!(
            Label::indexed("allreduce[{}.{}] {}MB", [step, group, mb]).to_string(),
            format!("allreduce[{step}.{group}] {mb}MB")
        );
        assert_eq!(Label::indexed("plain", [1, 2, 3]).to_string(), "plain");
        assert_eq!(Label::indexed("{}", [9, 0, 0]), Label::from("9"));
        // an indexed label survives serde as its rendered text
        let mut t = Timeline::new();
        t.record(Label::indexed("bwd[{}]", [2, 0, 0]), "compute", 1, 0.0, 1.0);
        let back: Timeline = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back.events(), t.events());
        assert!(matches!(&back.events()[0].name, Label::Text(s) if s == "bwd[2]"));
    }

    proptest::proptest! {
        /// Appending per-rank timelines — one by one or pre-merged in
        /// chunks, by reference or by value — and ordering once on export
        /// gives, event for event, what the previous `merge` produced by
        /// re-sorting the whole accumulated vector after every rank. Start
        /// times come from six values, so ties are everywhere.
        #[test]
        fn append_and_sort_once_equals_merge_and_sort_each_time(
            ranks in proptest::collection::vec(proptest::collection::vec(0u32..6, 0..8), 1..10),
            chunk in 1usize..5,
            by_value in proptest::bool::ANY,
        ) {
            let timelines: Vec<Timeline> = ranks
                .iter()
                .enumerate()
                .map(|(rank, starts)| {
                    let mut t = Timeline::new();
                    for (i, &ts) in starts.iter().enumerate() {
                        let start = f64::from(ts) * 0.25;
                        t.record(Label::indexed("r{}.e{}", [rank as u64, i as u64, 0]), "c", rank, start, start + 1.0);
                    }
                    t
                })
                .collect();
            // the previous implementation, on plain vectors
            let mut eager: Vec<TraceEvent> = Vec::new();
            for t in &timelines {
                eager.extend_from_slice(t.events());
                eager.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
            }
            let mut merged = Timeline::new();
            for group in timelines.chunks(chunk) {
                let mut part = Timeline::new();
                for t in group {
                    part.merge(t);
                }
                if by_value {
                    merged.absorb(part);
                } else {
                    merged.merge(&part);
                }
            }
            let exported: Vec<TraceEvent> = merged.export_order().into_iter().cloned().collect();
            proptest::prop_assert_eq!(exported, eager);
        }
    }

    #[test]
    fn timeline_serde_round_trips() {
        let mut t = Timeline::new();
        t.record("g0", "allreduce", 0, 0.010, 0.025);
        t.record("fwd", "compute", 1, 0.0, 0.010);
        let json = serde_json::to_string(&t).unwrap();
        let back: Timeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn overlap_labels_round_trip_on_their_rank_track() {
        // The overlap engine tags spans with a fusion-group index and the
        // pipelined ring adds step + chunk indices; those labels must
        // survive serde and the chrome-trace export verbatim, on the
        // originating rank's track (pid).
        let labels = [
            "allreduce.pr[g2] rs1.c3 4096B",
            "allreduce.pr[g0] ag0.c0 52B",
            "allreduce.PipelinedRing[g1] 8388608B",
            "pack[g3] 16384B",
            "allreduce.launch[g0] 236B",
        ];
        let mut t = Timeline::new();
        for (i, l) in labels.iter().enumerate() {
            t.record(
                *l,
                "allreduce",
                i,
                i as f64 * 0.001,
                i as f64 * 0.001 + 0.0005,
            );
        }
        // serde round trip preserves names exactly
        let back: Timeline = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back.events(), t.events());
        // chrome export keeps name and rank→pid pairing
        let v: serde_json::Value = serde_json::from_str(&t.to_chrome_trace()).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), labels.len());
        for (i, l) in labels.iter().enumerate() {
            let ev = arr
                .iter()
                .find(|e| e["name"] == *l)
                .unwrap_or_else(|| panic!("label `{l}` lost in chrome export"));
            assert_eq!(ev["pid"], i, "label `{l}` on the wrong rank track");
        }
    }

    #[test]
    fn chrome_trace_schema_has_required_keys_and_sorted_ts() {
        let mut a = Timeline::new();
        a.record("late", "compute", 0, 0.5, 0.6);
        a.record("early", "compute", 0, 0.1, 0.2);
        let mut m = Timeline::new();
        m.merge(&a);
        let v: serde_json::Value = serde_json::from_str(&m.to_chrome_trace()).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        let mut prev = f64::NEG_INFINITY;
        for ev in arr {
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "missing {key}: {ev:?}");
            }
            assert_eq!(ev["ph"], "X");
            assert!(ev["ts"].as_f64().is_some() && ev["dur"].as_f64().is_some());
            let ts = ev["ts"].as_f64().unwrap();
            assert!(ts >= prev, "chrome events not sorted by ts");
            prev = ts;
        }
    }
}
