//! `dlsr-trace` — workspace-wide structured tracing and metrics.
//!
//! Every layer of the stack (tensor kernels, nn layers, Horovod
//! negotiate/fusion, MPI collectives, the virtual wire) records *spans* and
//! bumps *counters* through this crate. Collection is thread-sharded: each
//! thread owns an `Arc`'d buffer registered in a global list, so recording a
//! span in steady state takes only the uncontended lock on the thread's own
//! buffer — no cross-thread contention until a drain point
//! ([`take_events`] / [`take_thread_events`]) walks the registry.
//!
//! Two clock domains coexist (see [`Clock`]):
//! - **Virtual** spans carry simulated seconds from a rank's `VClock`
//!   (communication, negotiate, simulator compute phases). They are recorded
//!   with explicit start/end timestamps via [`vspan`] / [`record_span`],
//!   because the virtual clock lives inside `&mut Comm` and cannot be read
//!   from a RAII drop.
//! - **Wall** spans measure real elapsed time (tensor GEMM/im2col, nn layer
//!   forward/backward) via the RAII [`span`] guard.
//!
//! Overlap analysis in [`report::StepReport`] never mixes the two domains.
//!
//! # Cost when disabled
//!
//! Collection is compiled in only under the `enabled` cargo feature. Without
//! it, [`is_on`] is a `const false`, so every guarded call site — including
//! its `format!` arguments — is dead code the optimizer removes. With the
//! feature compiled in, a runtime [`set_enabled`] flag (default off) gates
//! recording behind one relaxed atomic load, which is what the < 3%
//! overhead test in `dlsr-cluster` measures.

#![forbid(unsafe_code)]
pub mod analyze;
pub mod report;

/// Deterministic log2 latency sketch (lives in `dlsr-hvprof`, re-exported
/// here as part of the tracing API: [`report::StepReport`] percentile
/// rows are answered from it).
pub use dlsr_hvprof::Log2Histogram;

use std::borrow::Cow;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Whether span/counter collection was compiled into this build
/// (the `enabled` cargo feature).
pub const COMPILED: bool = cfg!(feature = "enabled");

/// Clock domain a span was measured against. Reports never compare
/// timestamps across domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Clock {
    /// Simulated seconds from a rank's virtual clock.
    Virtual,
    /// Real elapsed seconds since the process trace epoch.
    Wall,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub name: String,
    /// One of the [`cat`] constants for every span this crate records
    /// (borrowed, no allocation); owned only after deserialization.
    pub cat: Cow<'static, str>,
    pub rank: usize,
    pub start_s: f64,
    pub end_s: f64,
    pub clock: Clock,
}

impl TraceEvent {
    pub fn dur_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// Canonical span categories. Instrumented crates use these constants so the
/// report/export layers can classify without string guessing.
pub mod cat {
    /// Simulator-modeled compute phases (virtual clock).
    pub const COMPUTE: &str = "compute";
    /// Packed GEMM / convolution kernel calls (wall clock).
    pub const GEMM: &str = "tensor.gemm";
    /// im2col / col2im lowering (wall clock).
    pub const IM2COL: &str = "tensor.im2col";
    /// Per-layer forward passes (wall clock).
    pub const NN_FWD: &str = "nn.forward";
    /// Per-layer backward passes (wall clock).
    pub const NN_BWD: &str = "nn.backward";
    /// Horovod coordinator negotiate rounds (virtual clock).
    pub const NEGOTIATE: &str = "negotiate";
    /// Fusion-buffer pack/unpack phases (virtual clock).
    pub const FUSION: &str = "horovod.fusion";
    /// Horovod-level fused allreduce of a gradient group (virtual clock).
    pub const ALLREDUCE: &str = "allreduce";
    /// MPI collective algorithm execution (virtual clock).
    pub const MPI: &str = "mpi";
    /// Point-to-point wire transfers in the transport model (virtual clock).
    pub const NET: &str = "net";
    /// Wall-clock launch points of overlapped fused allreduces, recorded on
    /// the rank's host timeline while backward is still running.
    /// Deliberately in *neither* [`COMPUTE_SET`] nor [`COMM_SET`]: these
    /// markers prove interleaving in wall time; the communication cost
    /// itself is accounted by the virtual-clock `allreduce`/`mpi`/`net`
    /// spans.
    pub const AR_LAUNCH: &str = "allreduce.launch";
    /// Fault-handling activity: checkpoint snapshots, restore-and-continue
    /// recoveries (virtual clock). In *neither* [`COMPUTE_SET`] nor
    /// [`COMM_SET`] — robustness overhead is its own budget, reported via
    /// the `faults.*` counters and the report's fault summary, and must not
    /// distort the paper's compute/communication decomposition.
    pub const FAULT: &str = "faults";

    /// Categories whose union per rank counts as compute time.
    pub const COMPUTE_SET: &[&str] = &[COMPUTE, GEMM, IM2COL, NN_FWD, NN_BWD];
    /// Categories whose union per rank counts as communication time.
    pub const COMM_SET: &[&str] = &[FUSION, ALLREDUCE, MPI, NET];
}

#[cfg(feature = "enabled")]
mod imp {
    use super::TraceEvent;
    use dlsr_attr as dlsr;
    use parking_lot::Mutex;
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, OnceLock};
    use std::time::Instant;

    pub static ENABLED: AtomicBool = AtomicBool::new(false);

    #[derive(Default)]
    pub struct ThreadBuf {
        pub events: Mutex<Vec<TraceEvent>>,
        pub counters: Mutex<BTreeMap<&'static str, f64>>,
        pub gauges: Mutex<BTreeMap<&'static str, f64>>,
    }

    static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());

    thread_local! {
        static LOCAL: Arc<ThreadBuf> = {
            let buf = Arc::new(ThreadBuf::default());
            REGISTRY.lock().push(buf.clone());
            buf
        };
        pub static RANK: Cell<usize> = const { Cell::new(0) };
    }

    /// Wall-clock zero for this process's trace. Wall-domain boundary:
    /// trace timestamps are host-side observability, never rank-visible
    /// state (the virtual clock lives in `&mut Comm`).
    #[dlsr::wall]
    pub fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    pub fn with_local<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
        LOCAL.with(|b| f(b))
    }

    /// Snapshot of every thread's buffer, including threads that have since
    /// exited (their `Arc` stays registered so no events are lost).
    pub fn all_bufs() -> Vec<Arc<ThreadBuf>> {
        REGISTRY.lock().clone()
    }
}

/// Turn runtime collection on or off. No-op unless compiled with the
/// `enabled` feature. Collection starts **off** so library code never
/// records unless a harness opts in.
pub fn set_enabled(_on: bool) {
    #[cfg(feature = "enabled")]
    imp::ENABLED.store(_on, std::sync::atomic::Ordering::Relaxed);
}

/// True when collection is compiled in *and* runtime-enabled. `const false`
/// without the feature, so `if is_on() { ... }` call sites (and their
/// formatting) compile out entirely.
#[inline(always)]
pub fn is_on() -> bool {
    #[cfg(feature = "enabled")]
    {
        imp::ENABLED.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Tag the current thread with a rank; subsequent spans and counters
/// recorded on this thread carry it. `MpiWorld::run` calls this in each
/// per-rank thread.
#[inline]
pub fn set_thread_rank(_rank: usize) {
    #[cfg(feature = "enabled")]
    imp::RANK.with(|r| r.set(_rank));
}

/// Rank tag of the current thread (0 if never set).
pub fn thread_rank() -> usize {
    #[cfg(feature = "enabled")]
    {
        imp::RANK.with(|r| r.get())
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Wall-clock seconds since the trace epoch.
pub fn now_wall_s() -> f64 {
    #[cfg(feature = "enabled")]
    {
        imp::epoch().elapsed().as_secs_f64()
    }
    #[cfg(not(feature = "enabled"))]
    {
        0.0
    }
}

fn push_event(_ev: TraceEvent) {
    #[cfg(feature = "enabled")]
    imp::with_local(|b| b.events.lock().push(_ev));
}

/// RAII wall-clock span. Opens at construction, records on drop. Inert when
/// collection is off.
pub struct SpanGuard {
    inner: Option<(String, &'static str, f64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, cat, start_s)) = self.inner.take() {
            push_event(TraceEvent {
                name,
                cat: Cow::Borrowed(cat),
                rank: thread_rank(),
                start_s,
                end_s: now_wall_s(),
                clock: Clock::Wall,
            });
        }
    }
}

/// Open a wall-clock span. The name is only copied when collection is on.
pub fn span(name: &str, cat: &'static str) -> SpanGuard {
    span_with(|| name.to_string(), cat)
}

/// Open a wall-clock span with a lazily built name (skips the formatting
/// cost when collection is off).
pub fn span_with(name: impl FnOnce() -> String, cat: &'static str) -> SpanGuard {
    if is_on() {
        SpanGuard {
            inner: Some((name(), cat, now_wall_s())),
        }
    } else {
        SpanGuard { inner: None }
    }
}

/// An open virtual-clock span. Callers close it with [`VSpan::finish`],
/// passing the rank clock's end time; an unfinished `VSpan` records nothing.
#[must_use = "call finish(end_s) to record the span"]
pub struct VSpan {
    inner: Option<(String, &'static str, usize, f64)>,
}

impl VSpan {
    pub fn finish(mut self, end_s: f64) {
        if let Some((name, cat, rank, start_s)) = self.inner.take() {
            push_event(TraceEvent {
                name,
                cat: Cow::Borrowed(cat),
                rank,
                start_s,
                end_s,
                clock: Clock::Virtual,
            });
        }
    }
}

/// Open a virtual-clock span for `rank` starting at `start_s` (the rank's
/// current virtual time). Name construction is skipped when collection is
/// off, but prefer guarding `format!` call sites with [`is_on`].
pub fn vspan(name: impl FnOnce() -> String, cat: &'static str, rank: usize, start_s: f64) -> VSpan {
    if is_on() {
        VSpan {
            inner: Some((name(), cat, rank, start_s)),
        }
    } else {
        VSpan { inner: None }
    }
}

/// Record a completed wall-clock span with an explicit rank tag. Kernels
/// that fan work out to rayon workers capture the dispatching rank thread's
/// [`thread_rank`] and pass it here so worker-side spans still attribute to
/// the right rank lane.
pub fn record_wall_span(
    name: impl FnOnce() -> String,
    cat: &'static str,
    rank: usize,
    start_s: f64,
    end_s: f64,
) {
    if is_on() {
        push_event(TraceEvent {
            name: name(),
            cat: Cow::Borrowed(cat),
            rank,
            start_s,
            end_s,
            clock: Clock::Wall,
        });
    }
}

/// Record a completed virtual-clock span on the current thread's rank.
pub fn record_span(name: impl FnOnce() -> String, cat: &'static str, start_s: f64, end_s: f64) {
    if is_on() {
        push_event(TraceEvent {
            name: name(),
            cat: Cow::Borrowed(cat),
            rank: thread_rank(),
            start_s,
            end_s,
            clock: Clock::Virtual,
        });
    }
}

/// Add `delta` to the monotonic counter `key` (thread-sharded, summed at
/// snapshot time).
#[inline]
pub fn counter_add(_key: &'static str, _delta: f64) {
    #[cfg(feature = "enabled")]
    if is_on() {
        imp::with_local(|b| *b.counters.lock().entry(_key).or_insert(0.0) += _delta);
    }
}

/// Set gauge `key` to `value` (last write per thread; snapshot takes the max
/// across threads).
pub fn gauge_set(_key: &'static str, _value: f64) {
    #[cfg(feature = "enabled")]
    if is_on() {
        imp::with_local(|b| {
            b.gauges.lock().insert(_key, _value);
        });
    }
}

/// Drain and return every recorded span from **all** threads (rank threads
/// and rayon workers alike). Counters are left in place.
pub fn take_events() -> Vec<TraceEvent> {
    #[cfg(feature = "enabled")]
    {
        let mut out = Vec::new();
        for buf in imp::all_bufs() {
            out.append(&mut buf.events.lock());
        }
        out
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Drain and return spans recorded by the **current** thread only. Rank
/// threads in the simulator use this at step boundaries so each
/// `RankRun` carries exactly its own spans.
pub fn take_thread_events() -> Vec<TraceEvent> {
    #[cfg(feature = "enabled")]
    {
        imp::with_local(|b| std::mem::take(&mut *b.events.lock()))
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Sum counters (and max-merge gauges, prefixed `gauge:`-free — gauges keep
/// their own keys) across all threads. Non-destructive.
pub fn counters_snapshot() -> BTreeMap<String, f64> {
    #[cfg(feature = "enabled")]
    {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for buf in imp::all_bufs() {
            for (k, v) in buf.counters.lock().iter() {
                *out.entry((*k).to_string()).or_insert(0.0) += v;
            }
            for (k, v) in buf.gauges.lock().iter() {
                let e = out.entry((*k).to_string()).or_insert(f64::MIN);
                *e = e.max(*v);
            }
        }
        out
    }
    #[cfg(not(feature = "enabled"))]
    {
        BTreeMap::new()
    }
}

/// Clear all recorded spans, counters, and gauges on every thread. Test and
/// CLI harnesses call this before a measured run.
pub fn reset() {
    #[cfg(feature = "enabled")]
    for buf in imp::all_bufs() {
        buf.events.lock().clear();
        buf.counters.lock().clear();
        buf.gauges.lock().clear();
    }
}

/// Convert spans into the existing chrome-trace [`dlsr_hvprof::timeline::Timeline`].
///
/// Virtual and wall spans land in the same timeline; wall spans are shifted
/// onto a separate process lane (`pid = rank + WALL_PID_BASE`) so the two
/// clock domains never interleave confusingly on one row.
pub fn to_timeline(events: &[TraceEvent]) -> dlsr_hvprof::timeline::Timeline {
    let mut tl = dlsr_hvprof::timeline::Timeline::new();
    for ev in events {
        let lane = match ev.clock {
            Clock::Virtual => ev.rank,
            Clock::Wall => ev.rank + WALL_PID_BASE,
        };
        tl.record(ev.name.as_str(), ev.cat.clone(), lane, ev.start_s, ev.end_s);
    }
    tl
}

/// Rank offset applied to wall-clock spans in [`to_timeline`] so virtual and
/// wall lanes are distinct chrome-trace processes.
pub const WALL_PID_BASE: usize = 1000;

#[cfg(test)]
mod tests {
    use super::*;

    // Tests that flip the global runtime flag serialize on this lock so
    // `cargo test` thread interleaving cannot cross-contaminate buffers.
    pub(crate) static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = TEST_LOCK.lock();
        set_enabled(false);
        reset();
        let _s = span("noop", cat::GEMM);
        drop(_s);
        counter_add("x", 1.0);
        assert!(take_events().is_empty());
        assert!(counters_snapshot().is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_counters_round_trip() {
        let _g = TEST_LOCK.lock();
        set_enabled(true);
        reset();
        set_thread_rank(3);
        {
            let _s = span("gemm 64x64", cat::GEMM);
        }
        record_span(|| "ring".to_string(), cat::MPI, 1.0, 2.0);
        let v = vspan(|| "ar[0]".to_string(), cat::ALLREDUCE, 3, 0.5);
        v.finish(0.75);
        counter_add("regcache.hit", 2.0);
        counter_add("regcache.hit", 1.0);
        gauge_set("fusion.util", 0.5);
        gauge_set("fusion.util", 0.25);

        let evs = take_thread_events();
        set_enabled(false);
        assert_eq!(evs.len(), 3);
        assert!(evs.iter().all(|e| e.rank == 3));
        let mpi = evs.iter().find(|e| e.cat == cat::MPI).unwrap();
        assert_eq!(mpi.clock, Clock::Virtual);
        assert!((mpi.dur_s() - 1.0).abs() < 1e-12);
        let wall = evs.iter().find(|e| e.cat == cat::GEMM).unwrap();
        assert_eq!(wall.clock, Clock::Wall);

        let c = counters_snapshot();
        assert_eq!(c["regcache.hit"], 3.0);
        assert_eq!(c["fusion.util"], 0.25);
        reset();
        assert!(counters_snapshot().is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn timeline_export_separates_clock_lanes() {
        let evs = vec![
            TraceEvent {
                name: "ar".into(),
                cat: cat::ALLREDUCE.into(),
                rank: 1,
                start_s: 0.0,
                end_s: 1.0,
                clock: Clock::Virtual,
            },
            TraceEvent {
                name: "conv".into(),
                cat: cat::NN_FWD.into(),
                rank: 1,
                start_s: 0.0,
                end_s: 1.0,
                clock: Clock::Wall,
            },
        ];
        let tl = to_timeline(&evs);
        let ranks: Vec<usize> = tl.events().iter().map(|e| e.rank).collect();
        assert!(ranks.contains(&1) && ranks.contains(&(1 + WALL_PID_BASE)));
    }
}
