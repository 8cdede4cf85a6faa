//! How a world that cannot finish reports it, in every build: deadlock has
//! one definition on both cores — some rank has not finished and no rank
//! can run — and the caller of a failed world unwinds with the payload of
//! the rank that failed first.
//!
//! Every world here runs on a helper thread and must report within ten
//! seconds, so a regression fails instead of hanging the suite.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use dlsr_mpi::verify::{Violation, ViolationKind};
use dlsr_mpi::{Comm, EventTask, MpiConfig, MpiWorld, Poll, RankProgram, Step, Task};
use dlsr_net::ClusterTopology;

fn topo(gpus: usize) -> ClusterTopology {
    ClusterTopology {
        name: "mini".into(),
        nodes: 1,
        gpus_per_node: gpus,
    }
}

/// What `world` panics with, waiting at most ten seconds for it.
fn payload_of(world: impl FnOnce() + Send + 'static) -> Box<dyn std::any::Any + Send> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(world)));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the world hangs instead of reporting")
        .expect_err("the world must fail")
}

fn deadlock_of(world: impl FnOnce() + Send + 'static) -> BTreeSet<String> {
    let v = payload_of(world)
        .downcast::<Violation>()
        .expect("the payload is a Violation");
    assert_eq!(v.kind, ViolationKind::Deadlock, "{v}");
    // "deadlock on the … core: n ranks never completed; rank r waits for …; …"
    v.detail
        .split("; ")
        .filter(|entry| entry.starts_with("rank "))
        .map(str::to_string)
        .collect()
}

/// A blocking receive as a task: pends on `(src, tag)` until it is routed.
struct Recv(usize, u64);

impl EventTask for Recv {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        match comm.try_recv_buffered(self.0, self.1, 0) {
            Some(_) => Poll::Ready,
            None => Poll::Pending {
                src: self.0,
                tag: self.1,
            },
        }
    }
}

/// The rank program "receive `recv` if there is one, then return".
struct RecvThenReturn(Option<(usize, u64)>);

impl RankProgram for RecvThenReturn {
    type Out = ();
    fn next(&mut self, _comm: &mut Comm) -> Step {
        match self.0.take() {
            Some((src, tag)) => Step::Task(Task::custom(Recv(src, tag))),
            None => Step::Done,
        }
    }
    fn finish(&mut self, _comm: &mut Comm, _trace: Vec<dlsr_trace::TraceEvent>) {}
}

/// Run "rank r receives `recvs(r)`, the others return after `linger`" as
/// closures on the context core and as programs on the driven engine; both
/// must call it a deadlock and list the same parked ranks.
fn both_cores_report(
    gpus: usize,
    linger: Duration,
    recvs: fn(usize) -> Option<(usize, u64)>,
) -> BTreeSet<String> {
    let context = deadlock_of(move || {
        MpiWorld::run(&topo(gpus), MpiConfig::mpi_opt(), move |c| {
            match recvs(c.rank()) {
                Some((src, tag)) => drop(c.recv(src, tag, 0)),
                None => std::thread::sleep(linger),
            }
        });
    });
    let driven = deadlock_of(move || {
        MpiWorld::run_driven(&topo(gpus), MpiConfig::mpi_opt(), |rank| {
            RecvThenReturn(recvs(rank))
        });
    });
    assert_eq!(context, driven);
    context
}

/// Rank 0 waits for a peer that has already returned: no cycle, and the
/// last rank to stop running *finishes* rather than parks.
#[test]
fn waiting_for_a_finished_peer_is_a_deadlock_on_both_cores() {
    let parked = both_cores_report(2, Duration::from_millis(200), |rank| {
        (rank == 0).then_some((1, 0xA))
    });
    assert_eq!(
        parked,
        BTreeSet::from(["rank 0 waits for (src 1, tag 0xa)".to_string()])
    );
}

/// Ranks 0 and 1 wait for each other while 2 and 3 are still busy: found
/// when the last of those returns, whichever order the OS runs them in.
#[test]
fn crossed_receives_are_a_deadlock_on_both_cores() {
    let parked = both_cores_report(4, Duration::from_millis(100), |rank| match rank {
        0 => Some((1, 0xA)),
        1 => Some((0, 0xB)),
        _ => None,
    });
    assert_eq!(
        parked,
        BTreeSet::from([
            "rank 0 waits for (src 1, tag 0xa)".to_string(),
            "rank 1 waits for (src 0, tag 0xb)".to_string(),
        ])
    );
}

/// The caller sees what went wrong on the rank that failed, not `Any { .. }`
/// and not a peer's "world torn down".
#[test]
fn the_first_failing_ranks_payload_reaches_the_caller() {
    let payload = payload_of(|| {
        MpiWorld::run(&topo(4), MpiConfig::mpi_opt(), |c| {
            if c.rank() == 2 {
                panic!("boom on {}", c.rank());
            }
            // everyone else blocks on rank 2 and observes the teardown
            let _ = c.recv(2, 0x1, 0);
        });
    });
    let msg = payload.downcast::<String>().expect("a formatted panic");
    assert!(msg.contains("boom on 2"), "{msg}");
}
