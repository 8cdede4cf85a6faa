//! `dlsr-trace` — workspace-wide structured tracing and metrics.
//!
//! Every layer of the stack (tensor kernels, nn layers, Horovod
//! negotiate/fusion, MPI collectives, the virtual wire) records *spans* and
//! bumps *counters* through this crate, into whatever [`Lane`] is current
//! on the recording thread.
//!
//! The collector is a value, not process state. A caller that wants a run
//! observed creates a [`TraceSink`] and runs it inside [`TraceSink::scope`]
//! on its own thread; `MpiWorld::run` / `run_driven` read the sink in scope
//! on the thread that launches them ([`current`]) and make rank `r`'s lane
//! current ([`Lane::enter`]) wherever they run rank `r` — its OS thread on
//! the context core, every segment and ring-wave cell on the driven engine
//! — and a kernel that fans out to rayon workers hands them the lane it was
//! called under. Spans therefore land in the lane of the rank they belong
//! to when they are recorded; nothing is re-filed later, a thread with no
//! lane records nothing, and two sinks scoped on two threads never see each
//! other (`crates/cluster/tests/concurrent_traces.rs`).
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
//! Recording is off on every thread that has no lane current, and every
//! record site is guarded by [`is_on`], one thread-local read: a guarded
//! call's `format!` arguments are never evaluated outside a scope.

#![forbid(unsafe_code)]
pub mod analyze;
pub mod report;

/// Deterministic log2 latency sketch (lives in `dlsr-hvprof`, re-exported
/// here as part of the tracing API: [`report::StepReport`] percentile
/// rows are answered from it).
pub use dlsr_hvprof::Log2Histogram;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;
use std::{cell::RefCell, mem::ManuallyDrop};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

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

/// One rank's share of a [`TraceSink`]: its spans, counters and gauges.
/// Written by whichever thread has the lane current — the rank's own thread,
/// the driven engine while it runs that rank, rayon workers a kernel handed
/// the lane to — hence the lock, which only a kernel fan-out ever contends.
#[derive(Default)]
struct LaneBuf {
    events: Vec<TraceEvent>,
    counters: BTreeMap<&'static str, f64>,
    gauges: BTreeMap<&'static str, f64>,
}

/// Everything one traced run records: one lane of spans, counters and gauges
/// per rank, and the wall epoch its wall spans count from. A sink records
/// only what runs inside [`TraceSink::scope`] on the scoping thread, in the
/// worlds launched from there and in the kernel fan-outs of their ranks —
/// nothing else in the process can see it, so any number of sinks can be
/// live at once.
#[derive(Clone)]
pub struct TraceSink {
    /// Wall-clock zero of this sink's wall spans.
    epoch: Instant,
    /// Lane `r` at index `r`; grown on demand by [`TraceSink::lane`].
    lanes: Arc<Mutex<Vec<Arc<Mutex<LaneBuf>>>>>,
}

impl TraceSink {
    /// An empty sink whose wall epoch is now. Wall-domain boundary: trace
    /// timestamps are host-side observability, never rank-visible state
    /// (the virtual clock lives in `&mut Comm`).
    #[cfg_attr(any(), dlsr::wall)]
    #[allow(clippy::new_without_default)] // reads the clock: not a default value
    pub fn new() -> Self {
        TraceSink {
            epoch: Instant::now(),
            lanes: Arc::default(),
        }
    }

    /// Rank `rank`'s lane, created on first use.
    pub fn lane(&self, rank: usize) -> Lane {
        let mut lanes = self.lanes.lock();
        if lanes.len() <= rank {
            lanes.resize_with(rank + 1, Default::default);
        }
        Lane {
            sink: self.clone(),
            rank,
            buf: Arc::clone(&lanes[rank]),
        }
    }

    /// Run `f` with this sink in scope on the calling thread: lane 0 is
    /// current (what the launching thread records outside a world is rank
    /// 0's, as a single-process job's would be), and a world launched inside
    /// `f` records each rank into its own lane. The previous scope, if any,
    /// is restored when `f` returns or unwinds.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let _current = self.lane(0).enter();
        f()
    }

    /// Drain the spans of every lane, in rank order. Counters stay.
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        let lanes = self.lanes.lock();
        let drain = |lane: &Arc<Mutex<LaneBuf>>| std::mem::take(&mut lane.lock().events);
        lanes.iter().flat_map(drain).collect()
    }

    /// Counters summed and gauges max-merged across lanes (gauges keep
    /// their own keys). Non-destructive.
    pub fn counters(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for lane in self.lanes.lock().iter() {
            let lane = lane.lock();
            for (k, v) in &lane.counters {
                *out.entry((*k).to_string()).or_insert(0.0) += v;
            }
            for (k, v) in &lane.gauges {
                let e = out.entry((*k).to_string()).or_insert(f64::MIN);
                *e = e.max(*v);
            }
        }
        out
    }
}

/// A handle on one rank's lane of a [`TraceSink`]. Whoever runs work on a
/// rank's behalf makes its lane current for the duration ([`Lane::enter`]):
/// `MpiWorld::run` in each rank thread, the driven engine around every
/// segment and wave cell it runs for a rank, a kernel in the rayon workers
/// it fans out to.
#[derive(Clone)]
pub struct Lane {
    sink: TraceSink,
    rank: usize,
    buf: Arc<Mutex<LaneBuf>>,
}

impl Lane {
    /// The sink this lane belongs to.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Make this lane current on the calling thread until the guard drops,
    /// which restores whatever was current before (also on unwind).
    pub fn enter(&self) -> Entered {
        Entered {
            outer: CURRENT.with(|c| c.replace(Some(self.clone()))),
            not_send: PhantomData,
        }
    }

    /// Drain this lane's spans. Counters stay.
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.buf.lock().events)
    }
}

/// Guard of [`Lane::enter`]; tied to the thread it was created on.
#[must_use = "the lane is current only while the guard lives"]
pub struct Entered {
    outer: Option<Lane>,
    not_send: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.outer.take()));
    }
}

thread_local! {
    /// The lane this thread records into; `None` = tracing is off here.
    /// The crate's only static.
    ///
    /// `ManuallyDrop` so the slot has no destructor to register and
    /// [`is_on`] is two loads, not a lazy-state check first: with tracing
    /// off, a 512-rank simulated step tests it ~1 M times
    /// (about five per ring cell), which leaves `sim_world_512` ≈ 8 % over
    /// the global flag this replaced as it is and more with the state
    /// check. Nothing leaks: an [`Entered`] cannot leave its thread and puts
    /// back what it found, so the slot is `None` again before the thread
    /// ends.
    static CURRENT: ManuallyDrop<RefCell<Option<Lane>>> =
        const { ManuallyDrop::new(RefCell::new(None)) };
}

/// The lane current on this thread — what a launcher reads to find the sink
/// in scope, and what a kernel captures before fanning out to threads that
/// have no lane of their own. `None` when nothing is being traced here.
pub fn current() -> Option<Lane> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when a lane is current on this thread: `if is_on() { ... }` call
/// sites skip their recording (and its formatting) everywhere else.
///
/// The generic recorders below are `#[inline]` for this check's sake: a
/// copy per downstream codegen unit is what lets the thread-local access
/// fold into the record site (`Comm::account_send` otherwise calls the
/// accessor once per message).
#[inline(always)]
pub fn is_on() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Run `f` on the current lane, if there is one. Not a substitute for the
/// [`is_on`] test in front of a record site: this access carries `f`, is not
/// inlined, and once per counter bump it cost a 512-rank simulated step 37 %
/// more host time.
#[inline]
fn with_current<R>(f: impl FnOnce(&Lane) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(f))
}

/// Wall-clock seconds since the epoch of the sink in scope (0 outside one).
#[inline]
pub fn now_wall_s() -> f64 {
    with_current(|lane| lane.sink.epoch.elapsed().as_secs_f64()).unwrap_or(0.0)
}

/// File a completed span in the current lane; `rank` defaults to the lane's.
fn push_event(
    name: String,
    cat: &'static str,
    rank: Option<usize>,
    (start_s, end_s): (f64, f64),
    clock: Clock,
) {
    with_current(|lane| {
        lane.buf.lock().events.push(TraceEvent {
            name,
            cat: Cow::Borrowed(cat),
            rank: rank.unwrap_or(lane.rank),
            start_s,
            end_s,
            clock,
        })
    });
}

/// RAII wall-clock span. Opens at construction, records on drop. Inert when
/// collection is off.
pub struct SpanGuard {
    inner: Option<(String, &'static str, f64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, cat, start_s)) = self.inner.take() {
            push_event(name, cat, None, (start_s, now_wall_s()), Clock::Wall);
        }
    }
}

/// Open a wall-clock span. The name is only copied when collection is on.
pub fn span(name: &str, cat: &'static str) -> SpanGuard {
    span_with(|| name.to_string(), cat)
}

/// Open a wall-clock span with a lazily built name (skips the formatting
/// cost when collection is off).
#[inline]
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
            push_event(name, cat, Some(rank), (start_s, end_s), Clock::Virtual);
        }
    }
}

/// Open a virtual-clock span for `rank` starting at `start_s` (the rank's
/// current virtual time). Name construction is skipped when collection is
/// off, but prefer guarding `format!` call sites with [`is_on`].
#[inline]
pub fn vspan(name: impl FnOnce() -> String, cat: &'static str, rank: usize, start_s: f64) -> VSpan {
    if is_on() {
        VSpan {
            inner: Some((name(), cat, rank, start_s)),
        }
    } else {
        VSpan { inner: None }
    }
}

/// Record a completed wall-clock span with an explicit rank tag.
#[inline]
pub fn record_wall_span(
    name: impl FnOnce() -> String,
    cat: &'static str,
    rank: usize,
    start_s: f64,
    end_s: f64,
) {
    if is_on() {
        push_event(name(), cat, Some(rank), (start_s, end_s), Clock::Wall);
    }
}

/// Record a completed virtual-clock span on the current lane's rank.
#[inline]
pub fn record_span(name: impl FnOnce() -> String, cat: &'static str, start_s: f64, end_s: f64) {
    if is_on() {
        push_event(name(), cat, None, (start_s, end_s), Clock::Virtual);
    }
}

/// Add `delta` to the monotonic counter `key` of the current lane (summed
/// across lanes by [`TraceSink::counters`]).
#[inline]
pub fn counter_add(key: &'static str, delta: f64) {
    if is_on() {
        with_current(|lane| *lane.buf.lock().counters.entry(key).or_insert(0.0) += delta);
    }
}

/// Set gauge `key` of the current lane to `value` (last write per lane;
/// [`TraceSink::counters`] takes the max across lanes).
#[inline]
pub fn gauge_set(key: &'static str, value: f64) {
    if is_on() {
        with_current(|lane| lane.buf.lock().gauges.insert(key, value));
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

    /// Recording is disabled wherever no lane is current (scoping itself is
    /// `tests/scoping.rs`'s).
    #[test]
    fn disabled_records_nothing() {
        let sink = TraceSink::new();
        drop(span("noop", cat::GEMM));
        counter_add("x", 1.0);
        assert!(!is_on() && current().is_none());
        assert!(sink.drain_events().is_empty());
        assert!(sink.counters().is_empty());
    }

    #[test]
    fn spans_counters_round_trip() {
        let sink = TraceSink::new();
        let _lane = sink.lane(3).enter();
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

        let evs = sink.lane(3).drain_events();
        assert_eq!(evs.len(), 3);
        assert!(evs.iter().all(|e| e.rank == 3));
        let mpi = evs.iter().find(|e| e.cat == cat::MPI).unwrap();
        assert_eq!(mpi.clock, Clock::Virtual);
        assert!((mpi.dur_s() - 1.0).abs() < 1e-12);
        let wall = evs.iter().find(|e| e.cat == cat::GEMM).unwrap();
        assert_eq!(wall.clock, Clock::Wall);

        // draining spans leaves the counters
        assert!(sink.drain_events().is_empty());
        let c = sink.counters();
        assert_eq!(c["regcache.hit"], 3.0);
        assert_eq!(c["fusion.util"], 0.25);
    }

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
