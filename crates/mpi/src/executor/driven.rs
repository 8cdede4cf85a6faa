//! The driven core: a zero-thread discrete-event engine over resumable
//! rank programs.
//!
//! Where the context core gives every rank an OS thread to block on, this
//! engine runs N ranks on *one* thread: a rank is a [`RankProgram`] that
//! yields [`EventTask`]s, a task that cannot make progress returns
//! [`Poll::Pending`] naming the exact `(src, tag)` it needs, and the
//! engine parks the rank — a `Vec` slot, not a stack — until a routed
//! message matches. Runnable ranks are stepped in a deterministic
//! engine-chosen order; because message stamps are fixed at send time,
//! the order cannot change any simulated quantity (see the scheduling
//! comment in `run`). No locks, no syscalls, no context switches: this
//! is the core that takes worlds to 512–4096 ranks.
//!
//! A costs-only ring allreduce does not even route messages here. Its hops
//! carry nothing but a length, so the task returns the third outcome,
//! [`Poll::Wave`], naming the ring; the engine parks the rank, counts
//! arrivals, and when the last participant parks evaluates the whole ring
//! in one pass over the communicators (`RingWave::run`) and wakes them
//! all. The pass charges every hop through the accounting functions the
//! message path calls (`Comm::account_send` / `Comm::account_recv`), in
//! each rank's own operation order — one more topological order of the
//! same dataflow graph, so clocks, statistics, registration caches and
//! trace spans come out as the messages would have left them. An untraced
//! wave whose hops do nothing for the first time pays the same charges in
//! closed form, from quotes those functions' helpers give, over a clock
//! array the engine keeps beside its routing scratch. Nothing is in flight
//! during a wave, so it charges no `FlightBudget`: the budget bounds host
//! bytes held in mailboxes, and a wave holds none.
//!
//! Tracing is ambient: with a `dlsr_trace::TraceSink` in scope on the
//! calling thread, whatever the engine runs for rank `r` — a segment, a
//! poll, a wave cell — runs with the sink's lane `r` current, so spans are
//! written where they belong. The engine only hands a lane's spans on:
//! [`Step::DiscardTrace`] drops them, [`Step::Done`] moves them into
//! [`RankProgram::finish`].
//!
//! The same [`EventTask`]s run unchanged on the context core via
//! [`drive_task`] (poll, and on `Pending` block the OS thread until the
//! match arrives; rings exchange their messages there and are the wave's
//! reference), so every collective has exactly one implementation — its
//! state machine, for real and costs-only payloads alike — and core
//! equivalence is structural rather than maintained by hand. A finished
//! task goes back to its program ([`RankProgram::task_done`]): that is how
//! a real-payload allreduce returns the buffer it reduced.

use std::sync::Arc;

use dlsr_gpu::IpcRegistry;
use dlsr_net::ClusterTopology;
use dlsr_trace::TraceEvent;

use crate::collectives::tasks::{
    AllreduceElemsTask, AllreduceTask, BarrierTask, RealData, RingWave, WaveScratch,
};
use crate::comm::{Comm, Wire};
use crate::config::MpiConfig;
use crate::executor::budget::FlightBudget;
use crate::verify::{Violation, ViolationKind};
use crate::world::WorldResult;

/// One poll's outcome.
pub enum Poll {
    /// The task completed.
    Ready,
    /// The task needs a message matching exactly `(src, tag)` before it
    /// can make progress. The rank parks until one is delivered.
    Pending {
        /// Sending rank awaited.
        src: usize,
        /// Tag awaited.
        tag: u64,
    },
    /// The task reached a costs-only ring allreduce on the driven engine
    /// and needs the *ring* to complete, not a message: the rank parks
    /// until every participant of this descriptor has parked, the engine
    /// evaluates the ring in one pass ([`RingWave`]) and wakes them all.
    /// Never returned on the context core, whose rings exchange messages.
    Wave(RingWave),
}

/// A resumable unit of rank work (one collective, one negotiation round).
///
/// `poll` must be written so that re-polling after `Pending` retries the
/// *same* blocked receive via [`Comm::try_recv_buffered`] — all state that
/// changed before the block (sends posted, clock advances) must be
/// recorded in the task so it is never redone.
pub trait EventTask {
    /// Advance until completion or the next blocking receive.
    fn poll(&mut self, comm: &mut Comm) -> Poll;
}

/// What a [`RankProgram`] wants next.
// The task rides inline, unboxed, for the reason [`Task`] gives.
#[allow(clippy::large_enum_variant)]
pub enum Step {
    /// Run this task to completion, then ask again.
    Task(Task),
    /// Drop trace events accumulated so far (warmup boundary).
    DiscardTrace,
    /// The program is finished; call [`RankProgram::finish`].
    Done,
}

/// A yielded task, built-in variants held inline. Programs yield these
/// every communication round, so the common collectives avoid a heap
/// allocation per yield (the engine profile showed the `Box` per task as
/// a measurable share of steady-state cost); anything else rides in
/// [`Task::Custom`].
pub enum Task {
    /// A costs-only [`AllreduceElemsTask`].
    Allreduce(AllreduceElemsTask),
    /// A real-payload allreduce, boxed: it owns its buffer and message
    /// queue, and programs that move real data yield far fewer tasks.
    RealAllreduce(Box<AllreduceTask<RealData>>),
    /// [`BarrierTask`].
    Barrier(BarrierTask),
    /// Any other [`EventTask`] (e.g. tasks defined outside this crate).
    Custom(Box<dyn EventTask>),
}

impl Task {
    /// Wrap an arbitrary task (boxes it).
    pub fn custom<T: EventTask + 'static>(t: T) -> Task {
        Task::Custom(Box::new(t))
    }

    /// The buffer a finished real-payload allreduce hands back, reduced;
    /// `None` for every other task.
    pub fn into_buf(self) -> Option<Vec<f32>> {
        match self {
            Task::RealAllreduce(t) => Some(t.into_buf()),
            _ => None,
        }
    }
}

impl From<AllreduceElemsTask> for Task {
    fn from(t: AllreduceElemsTask) -> Task {
        Task::Allreduce(t)
    }
}

impl From<AllreduceTask<RealData>> for Task {
    fn from(t: AllreduceTask<RealData>) -> Task {
        Task::RealAllreduce(Box::new(t))
    }
}

impl From<BarrierTask> for Task {
    fn from(t: BarrierTask) -> Task {
        Task::Barrier(t)
    }
}

impl EventTask for Task {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        match self {
            Task::Allreduce(t) => t.poll(comm),
            Task::RealAllreduce(t) => t.poll(comm),
            Task::Barrier(t) => t.poll(comm),
            Task::Custom(t) => t.poll(comm),
        }
    }
}

/// A whole rank's run as a resumable state machine: the driven engine
/// alternates `next` (synchronous segment: compute, clock advances,
/// bookkeeping) with driving the yielded task (the communication that may
/// park the rank).
pub trait RankProgram {
    /// Per-rank result type.
    type Out;
    /// Run the next synchronous segment and say what follows it.
    fn next(&mut self, comm: &mut Comm) -> Step;
    /// Take back the task of a [`Step::Task`] once it has run to
    /// completion — how a real-payload allreduce returns the buffer it
    /// reduced ([`Task::into_buf`]). The default drops it.
    fn task_done(&mut self, _task: Task) {}
    /// Produce the rank's result. `trace` holds the spans of the rank's
    /// trace lane (empty when no sink is in scope).
    fn finish(&mut self, comm: &mut Comm, trace: Vec<TraceEvent>) -> Self::Out;
}

/// Run one task to completion on a *blocking* communicator (the context
/// cores): poll, and on `Pending` block this rank until the match is
/// queued, then re-poll.
pub fn drive_task(comm: &mut Comm, task: &mut dyn EventTask) {
    loop {
        match task.poll(comm) {
            Poll::Ready => return,
            Poll::Pending { src, tag } => comm.block_until_match(src, tag),
            Poll::Wave(ring) => unreachable!(
                "dlsr-mpi: rank {}: {ring} parked as a wave off the driven engine",
                comm.rank()
            ),
        }
    }
}

/// Run a whole [`RankProgram`] to completion on a blocking communicator —
/// makes any program written for the driven engine runnable inside a
/// plain `MpiWorld::run` closure.
pub fn drive_program<P: RankProgram>(comm: &mut Comm, mut prog: P) -> P::Out {
    loop {
        match prog.next(comm) {
            Step::Task(mut t) => {
                drive_task(comm, &mut t);
                prog.task_done(t);
            }
            Step::DiscardTrace => {
                if let Some(lane) = dlsr_trace::current() {
                    lane.drain_events();
                }
            }
            Step::Done => {
                let trace = dlsr_trace::current().map_or_else(Vec::new, |l| l.drain_events());
                return prog.finish(comm, trace);
            }
        }
    }
}

/// The engine: run `make(rank)` programs for every rank of `topo` on a
/// single thread, in a deterministic engine-chosen order (see the
/// scheduling comment on `runnable` below for why the order is free).
pub(crate) fn run<P, F>(topo: &ClusterTopology, cfg: MpiConfig, mut make: F) -> WorldResult<P::Out>
where
    P: RankProgram,
    F: FnMut(usize) -> P,
{
    let size = topo.total_gpus();
    assert!(size > 0, "cannot launch an empty world");
    let cfg = Arc::new(cfg);
    let budget = FlightBudget::from_config(&cfg, true);
    let ipc_registries = Arc::new(
        (0..topo.nodes)
            .map(|_| IpcRegistry::new())
            .collect::<Vec<_>>(),
    );
    // Nothing in the ledger waits for another rank, so the one thread that
    // steps every rank can file all of their signatures.
    let ledger = crate::verify::Ledger::new(size);
    let mut comms: Vec<Comm> = (0..size)
        .map(|r| {
            Comm::new(
                r,
                topo.clone(),
                Arc::clone(&cfg),
                Wire::Driven { outbox: Vec::new() },
                budget.clone(),
                Arc::clone(&ipc_registries),
                Arc::clone(&ledger),
            )
        })
        .collect();
    let mut progs: Vec<P> = (0..size).map(&mut make).collect();
    let mut tasks: Vec<Option<Task>> = (0..size).map(|_| None).collect();
    // `Some((src, tag))` while a rank's task is parked on that match.
    let mut waiting: Vec<Option<(usize, u64)>> = vec![None; size];
    // The ring some ranks are parked on as a wave, and those ranks in
    // arrival order. One slot is enough: every participant of a ring holds
    // the same descriptor, and no rank can reach a later collective while a
    // ring it belongs to is incomplete — two different descriptors pending
    // together mean the ranks disagree about the collective (invariant 5
    // of docs/CORRECTNESS.md), which is raised at once.
    let mut wave: Option<RingWave> = None;
    let mut wave_ranks: Vec<usize> = Vec::new();
    // Every rank's lane of the trace sink in scope on this thread, if any:
    // whatever runs for rank `r` below runs with lane `r` current.
    let lanes: Option<Vec<dlsr_trace::Lane>> =
        dlsr_trace::current().map(|l| (0..size).map(|r| l.sink().lane(r)).collect());
    let mut out: Vec<Option<(P::Out, f64)>> = (0..size).map(|_| None).collect();
    // Runnable ranks, LIFO. Execution order cannot change any outcome:
    // arrival stamps are fixed at send time, payloads are data, and a
    // rank's clock evolves only from its own operations and the stamps it
    // merges — so *any* deterministic topological order (a rank runs only
    // once its awaited message exists) yields bitwise-identical results.
    // LIFO keeps the just-woken rank's state hot in cache and makes
    // scheduling O(1) per wake, which the engine profile showed beats a
    // (virtual_time, rank) priority queue by a measurable margin. A rank
    // is enqueued exactly once per park/wake cycle (`waiting[dst]` is
    // cleared on wake), so the stack never holds duplicates.
    let mut runnable: Vec<usize> = (0..size).rev().collect();
    let mut live = size;
    // Routing scratch, swapped against each rank's outbox: capacities
    // circulate instead of being freed, so steady-state routing never
    // touches the allocator.
    let mut outbox: Vec<(usize, crate::message::Message)> = Vec::new();
    // The ring wave's closed-form scratch, reused by every wave for the
    // same reason.
    let mut wave_scratch = WaveScratch::default();

    while let Some(r) = runnable.pop() {
        let _lane = lanes.as_ref().map(|l| l[r].enter());
        // Run rank r until it parks or completes.
        loop {
            if let Some(task) = tasks[r].as_mut() {
                match task.poll(&mut comms[r]) {
                    Poll::Ready => {
                        let done = tasks[r].take().expect("the task just polled");
                        progs[r].task_done(done);
                    }
                    Poll::Pending { src, tag } => {
                        waiting[r] = Some((src, tag));
                        break;
                    }
                    Poll::Wave(ring) => {
                        if let Some(other) = wave.filter(|other| *other != ring) {
                            Violation {
                                kind: ViolationKind::CollectiveMismatch,
                                rank: r,
                                detail: format!(
                                    "collective mismatch on the driven core: rank {r} enters \
                                     {ring} while ranks {wave_ranks:?} wait in {other}"
                                ),
                            }
                            .raise();
                        }
                        wave = Some(ring);
                        wave_ranks.push(r);
                        if wave_ranks.len() == ring.participants() {
                            ring.run(&mut comms, lanes.as_deref(), &mut wave_scratch);
                            wave = None;
                            runnable.append(&mut wave_ranks);
                        }
                        break;
                    }
                }
            } else {
                match progs[r].next(&mut comms[r]) {
                    Step::Task(t) => tasks[r] = Some(t),
                    Step::DiscardTrace => {
                        if let Some(l) = &lanes {
                            l[r].drain_events();
                        }
                    }
                    Step::Done => {
                        let trace = lanes
                            .as_ref()
                            .map_or_else(Vec::new, |l| l[r].drain_events());
                        let o = progs[r].finish(&mut comms[r], trace);
                        let now = comms[r].now();
                        out[r] = Some((o, now));
                        live -= 1;
                        break;
                    }
                }
            }
        }
        // Route everything the segment sent; a rank parked on an exact
        // match becomes runnable at max(its clock, the arrival stamp).
        comms[r].swap_outbox(&mut outbox);
        for (dst, msg) in outbox.drain(..) {
            if waiting[dst] == Some((msg.src, msg.tag)) {
                waiting[dst] = None;
                runnable.push(dst);
            }
            comms[dst].push_pending(msg);
        }
    }

    // The runnable stack is empty: a rank that has not finished now never
    // will — the same condition the event fabric checks when its last
    // running rank parks or finishes.
    if live > 0 {
        let parked = waiting
            .iter()
            .enumerate()
            .filter_map(|(rank, w)| Some((rank, (*w)?)));
        let wave = wave.map(|ring| {
            wave_ranks.sort_unstable();
            format!(
                "ranks {wave_ranks:?} wait for the other {} participants of {ring}",
                ring.participants() - wave_ranks.len()
            )
        });
        let lowest = out.iter().position(Option::is_none).expect("live > 0");
        Violation::deadlock("driven", lowest, live, parked, wave).raise();
    }

    let mut ranks = Vec::with_capacity(size);
    let mut clocks = Vec::with_capacity(size);
    for slot in out {
        let (o, c) = slot.expect("every rank reported");
        ranks.push(o);
        clocks.push(c);
    }
    WorldResult {
        ranks,
        clocks,
        verify: ledger.close().unwrap_or_else(|v| v.raise()),
    }
}
