//! A `TraceSink` records what runs inside its scope on the scoping thread
//! and nothing else: other threads do not see it, and scopes nest.

use std::sync::Barrier;

use dlsr_trace::{cat, counter_add, is_on, record_span, span, TraceSink};

/// Record one span of each clock and one counter on whatever lane is
/// current.
fn record_all() {
    drop(span("noop", cat::GEMM));
    record_span(|| "ring".to_string(), cat::MPI, 1.0, 2.0);
    counter_add("x", 1.0);
}

#[test]
fn a_sink_scoped_on_another_thread_is_invisible_here() {
    let (theirs, mine) = (TraceSink::new(), TraceSink::new());
    let (scoped, checked) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            theirs.scope(|| {
                scoped.wait();
                checked.wait();
                record_all();
            })
        });
        // the other thread is inside its scope now
        scoped.wait();
        assert!(!is_on(), "another thread's scope switched this one on");
        record_all();
        mine.scope(record_all);
        checked.wait();
    });
    for sink in [&theirs, &mine] {
        assert_eq!(sink.drain_events().len(), 2);
        assert_eq!(sink.counters()["x"], 1.0);
    }
}

#[test]
fn nested_scopes_restore_the_outer_sink_also_on_unwind() {
    let (outer, inner) = (TraceSink::new(), TraceSink::new());
    outer.scope(|| {
        record_all();
        inner.scope(record_all);
        record_all();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lane = inner.lane(5).enter();
            panic!("unwinding with an inner lane current");
        }));
        assert!(unwound.is_err());
        // back in `outer`'s lane 0 (checked on the drained spans below)
        record_all();
    });
    assert!(
        !is_on(),
        "leaving the outermost scope must switch recording off"
    );
    assert_eq!(outer.counters()["x"], 3.0);
    assert_eq!(inner.counters()["x"], 1.0);
    assert!(outer.drain_events().iter().all(|e| e.rank == 0));
}
