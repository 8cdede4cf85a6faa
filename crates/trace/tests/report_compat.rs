//! Backward/forward compatibility of the `StepReport` JSON schema.
//!
//! `tests/fixtures/pre_pr7_report.json` is a *golden* artifact: the exact
//! `results/profile_report.json` the CLI wrote before the analysis layer
//! added `percentiles` and `critical_path`. It must keep deserializing
//! forever, with the new fields lifted to their defaults — the same
//! contract `FaultSummary` established for pre-fault reports.

use dlsr_trace::analyze::{critical_path, Attribution};
use dlsr_trace::report::StepReport;
use dlsr_trace::{cat, Clock, TraceEvent};

fn span(name: &str, cat: &'static str, rank: usize, start: f64, end: f64) -> TraceEvent {
    TraceEvent {
        name: name.to_string(),
        cat: cat.into(),
        rank,
        start_s: start,
        end_s: end,
        clock: Clock::Virtual,
    }
}

#[test]
fn golden_pre_pr7_report_deserializes_with_new_fields_defaulted() {
    let text = include_str!("fixtures/pre_pr7_report.json");
    let rep: StepReport = serde_json::from_str(text).expect("golden report loads");
    // The old payload survived intact...
    assert_eq!(rep.world, 8);
    assert_eq!(rep.ranks.len(), 8);
    assert!(rep.categories.contains_key(cat::GEMM));
    assert!(rep.fusion.groups > 0);
    // ...and the fields this schema version added are defaulted, not
    // errors: no percentile sketches, no attached critical path.
    assert!(rep.percentiles.0.is_empty());
    assert!(rep.critical_path.is_none());
    // A defaulted report still renders (no percentile table, no panic).
    let text = rep.render();
    assert!(text.contains("step breakdown"));
    assert!(!text.contains("category latency"));
}

#[test]
fn report_with_new_fields_round_trips_losslessly() {
    let events = vec![
        span("fwd b1", cat::COMPUTE, 0, 0.0, 1.0),
        span("fwd b1", cat::COMPUTE, 1, 0.0, 1.2),
        span("allreduce[g0] 8192B", cat::ALLREDUCE, 0, 1.0, 1.5),
        span("allreduce[g0] 8192B", cat::ALLREDUCE, 1, 1.2, 1.5),
        span("checkpoint step 0", cat::FAULT, 0, 1.5, 1.6),
    ];
    let counters = std::collections::BTreeMap::new();
    let mut rep = StepReport::build(&events, &counters);
    rep.attach_critical_path(critical_path(&events, 1));
    assert!(rep.critical_path.is_some());
    assert!(!rep.percentiles.0.is_empty());

    let json = rep.to_json();
    let back: StepReport = serde_json::from_str(&json).expect("new schema loads");
    assert_eq!(back, rep);
    // The attached path kept its attribution through the round trip.
    let cp = back.critical_path.expect("path survives");
    assert_eq!(cp.steps, 1);
    assert!((cp.total.total() - cp.makespan_s).abs() <= 0.01 * cp.makespan_s);
    // And an explicit-Null critical_path (a hand-edited or very old file)
    // still lifts to None rather than erroring.
    let degraded = json.replace("\"critical_path\":", "\"critical_path_renamed\":");
    let old: StepReport = serde_json::from_str(&degraded).expect("absent path tolerated");
    assert!(old.critical_path.is_none());
}

#[test]
fn chrome_trace_round_trips_the_new_span_kinds() {
    // Spans from the layers this PR touches — checkpoint/fault spans and
    // the collective spans the analyzer keys on — must survive the chrome
    // export: valid JSON, names and categories intact, lanes per rank.
    let events = vec![
        span("fwd b1", cat::COMPUTE, 0, 0.0, 1.0),
        span("checkpoint step 0", cat::FAULT, 0, 1.0, 1.1),
        span(
            "allreduce.RecursiveDoubling[g0] 8192B",
            cat::MPI,
            1,
            0.5,
            0.9,
        ),
        span("negotiate c3 5t", cat::NEGOTIATE, 1, 0.1, 0.2),
    ];
    let chrome = dlsr_trace::to_timeline(&events).to_chrome_trace();
    let parsed: serde_json::Value = serde_json::from_str(&chrome).expect("chrome JSON parses");
    let items = parsed.as_array().expect("chrome event array");
    for ev in &events {
        let found = items.iter().any(|it| {
            it["name"].as_str() == Some(ev.name.as_str())
                && it["cat"].as_str() == Some(&*ev.cat)
                && it["pid"].as_u64() == Some(ev.rank as u64)
        });
        assert!(found, "span `{}` missing from the chrome export", ev.name);
    }
}

#[test]
fn attribution_serde_defaults_cover_future_fields() {
    // Attribution itself must tolerate Null (e.g. a baseline written by a
    // build that predates a future bucket).
    let a: Attribution = serde_json::from_str("{\"compute_s\": 1.0, \"exposed_comm_s\": 0.25}")
        .expect("partial attribution loads");
    assert_eq!(a.compute_s, 1.0);
    assert_eq!(a.straggler_wait_s, 0.0);
    assert!((a.total() - 1.25).abs() < 1e-12);
}
