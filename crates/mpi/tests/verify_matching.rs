//! Tests for the collective-matching verifier every world runs under.
//!
//! The injected-failure tests prove the checker actually fires, on both
//! entry points: a skewed collective (wrong count / wrong tag via an extra
//! collective / wrong algorithm bin / wrong wire format), an out-of-order
//! fusion launch and a crossed receive must each fail the world with the
//! right `Violation` as its payload, instead of hanging on a tag that never
//! matches — whether the skewed rank reaches the collective first or last.
//! Nothing here is process-global, so the tests run in parallel.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dlsr_mpi::collectives::tasks::{AllreduceElemsTask, BarrierTask};
use dlsr_mpi::collectives::{barrier, Allreduce, AllreduceAlgorithm, WireFormat};
use dlsr_mpi::verify::{VerifySummary, Violation, ViolationKind};
use dlsr_mpi::{Comm, EventTask, MpiConfig, MpiWorld, Poll, RankProgram, Step, Task};
use dlsr_net::ClusterTopology;

fn topo() -> ClusterTopology {
    ClusterTopology::lassen(1) // 1 node × 4 GPUs
}

/// Run `world` expecting it to fail; returns the violation it unwinds with.
fn violation_of<R>(world: impl FnOnce() -> R) -> Violation {
    let payload = catch_unwind(AssertUnwindSafe(world))
        .err()
        .expect("the skewed world must abort");
    *payload
        .downcast::<Violation>()
        .expect("the world's payload is the Violation")
}

/// [`violation_of`] a closure world on the context core.
fn run_expecting_abort<F>(f: F) -> Violation
where
    F: Fn(&mut Comm) -> usize + Send + Sync,
{
    violation_of(|| MpiWorld::run(&topo(), MpiConfig::mpi_opt(), f))
}

/// One step of a scripted rank on the driven engine: the task-level form
/// of what the closures below call.
#[derive(Clone)]
enum Op {
    Allreduce(usize, AllreduceAlgorithm, WireFormat),
    Barrier,
    Checkpoint(u64),
    Launch(usize),
    Recv(usize, u64),
}

/// A costs-only f32 ring allreduce of `elems` elements.
fn ring(elems: usize) -> Op {
    Op::Allreduce(elems, AllreduceAlgorithm::Ring, WireFormat::F32)
}

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

struct Script(VecDeque<Op>);

impl RankProgram for Script {
    type Out = ();
    fn next(&mut self, comm: &mut Comm) -> Step {
        loop {
            return match self.0.pop_front() {
                Some(Op::Allreduce(elems, algo, wf)) => {
                    Step::Task(AllreduceElemsTask::new_wire(elems, 1, algo, wf).into())
                }
                Some(Op::Barrier) => Step::Task(BarrierTask::new().into()),
                Some(Op::Recv(src, tag)) => Step::Task(Task::custom(Recv(src, tag))),
                Some(Op::Checkpoint(marker)) => {
                    comm.verify_checkpoint("script", marker);
                    continue;
                }
                Some(Op::Launch(group)) => {
                    comm.verify_launch(group);
                    continue;
                }
                None => Step::Done,
            };
        }
    }
    fn finish(&mut self, _comm: &mut Comm, _trace: Vec<dlsr_trace::TraceEvent>) {}
}

/// Run `script(rank)` on the driven engine over `topo`.
fn drive(topo: &ClusterTopology, script: impl Fn(usize) -> Vec<Op>) -> VerifySummary {
    MpiWorld::run_driven(topo, MpiConfig::mpi_opt(), |rank| {
        Script(script(rank).into())
    })
    .verify
}

/// The engine steps rank 0 first and rank 3 last, so skewing one or the
/// other makes the skewed rank the round's reference or its last arrival.
/// Either way the violation must name both ranks and both signatures.
fn driven_skew_is_a_mismatch(
    skewed: fn(usize) -> Vec<Op>,
    clean: fn(usize) -> Vec<Op>,
    both: [&str; 2],
) {
    for odd in [0, 3] {
        let v = violation_of(|| {
            drive(&topo(), |rank| {
                if rank == odd {
                    skewed(rank)
                } else {
                    clean(rank)
                }
            })
        });
        assert_eq!(v.kind, ViolationKind::CollectiveMismatch, "{v}");
        // the reference is whoever ran first; the reporter the first to differ
        let (first, later) = if odd == 0 { (0, 1) } else { (0, 3) };
        assert_eq!(v.rank, later, "{v}");
        for named in [
            format!("rank {first} recorded"),
            format!("rank {later} recorded"),
        ] {
            assert!(v.detail.contains(&named), "{v}");
        }
        for sig in both {
            assert!(v.detail.contains(sig), "detail names `{sig}`: {v}");
        }
    }
}

#[test]
fn clean_world_passes_and_reports_a_summary() {
    let res = MpiWorld::run(&topo(), MpiConfig::mpi_opt(), |c| {
        let mut grads = vec![c.rank() as f32; 64];
        Allreduce::new(&mut grads).buf_id(1).run(c);
        barrier(c);
        c.verify_checkpoint("negotiate", 1);
        let mut more = vec![1.0f32; 8];
        Allreduce::new(&mut more)
            .buf_id(2)
            .algo(AllreduceAlgorithm::Ring)
            .run(c);
        grads[0]
    });
    assert!(res.ranks.iter().all(|&v| v == 6.0));
    let summary = res.verify;
    assert_eq!(summary.ranks, 4);
    assert_eq!(
        summary.collectives_checked, 4,
        "allreduce + barrier + checkpoint + allreduce"
    );
    // the same four rounds as tasks on the driven engine
    let driven = drive(&topo(), |_| {
        vec![ring(64), Op::Barrier, Op::Checkpoint(1), ring(8)]
    });
    assert_eq!(driven, summary);
}

#[test]
fn skewed_element_count_on_rank_1_is_detected() {
    let v = run_expecting_abort(|c| {
        // Rank 1 contributes 9 elements where everyone else sends 8.
        let elems = if c.rank() == 1 { 9 } else { 8 };
        let mut grads = vec![1.0f32; elems];
        Allreduce::new(&mut grads).buf_id(1).run(c);
        grads.len()
    });
    assert_eq!(v.kind, ViolationKind::CollectiveMismatch);
    assert!(
        v.detail.contains("elems=8") && v.detail.contains("elems=9"),
        "detail names both counts: {v}"
    );
    driven_skew_is_a_mismatch(|_| vec![ring(9)], |_| vec![ring(8)], ["elems=8", "elems=9"]);
}

#[test]
fn skewed_tag_via_extra_collective_is_detected() {
    let v = run_expecting_abort(|c| {
        // Rank 1 sneaks in an extra barrier, so its next collective runs
        // one sequence number (= tag base) ahead of everyone else's.
        if c.rank() == 1 {
            barrier(c);
        }
        let mut grads = vec![1.0f32; 16];
        Allreduce::new(&mut grads).buf_id(1).run(c);
        barrier(c);
        0
    });
    assert_eq!(v.kind, ViolationKind::CollectiveMismatch);
    driven_skew_is_a_mismatch(
        |_| vec![Op::Barrier, ring(16), Op::Barrier],
        |_| vec![ring(16), Op::Barrier],
        ["barrier(", "allreduce("],
    );
}

#[test]
fn skewed_algorithm_bin_is_detected() {
    let v = run_expecting_abort(|c| {
        let algo = if c.rank() == 1 {
            AllreduceAlgorithm::RecursiveDoubling
        } else {
            AllreduceAlgorithm::Ring
        };
        let mut grads = vec![1.0f32; 32];
        Allreduce::new(&mut grads).buf_id(1).algo(algo).run(c);
        0
    });
    assert_eq!(v.kind, ViolationKind::CollectiveMismatch);
    assert!(
        v.detail.contains("ring") && v.detail.contains("rd"),
        "detail names both algorithm bins: {v}"
    );
    driven_skew_is_a_mismatch(
        |_| {
            vec![Op::Allreduce(
                32,
                AllreduceAlgorithm::RecursiveDoubling,
                WireFormat::F32,
            )]
        },
        |_| vec![ring(32)],
        ["algo=ring", "algo=rd"],
    );
}

#[test]
fn skewed_wire_format_is_detected() {
    let v = run_expecting_abort(|c| {
        // Rank 1 compresses to bf16 while everyone else sends f32: the
        // dtype slot of the collective signature must catch this at
        // collective entry — never a hang or a payload decode panic.
        let wf = if c.rank() == 1 {
            WireFormat::Bf16
        } else {
            WireFormat::F32
        };
        let mut grads = vec![1.0f32; 32];
        Allreduce::new(&mut grads)
            .buf_id(1)
            .algo(AllreduceAlgorithm::Ring)
            .wire(wf)
            .run(c);
        0
    });
    assert_eq!(v.kind, ViolationKind::CollectiveMismatch);
    assert!(
        v.detail.contains("dtype=f32") && v.detail.contains("dtype=bf16"),
        "detail names both wire formats: {v}"
    );
    driven_skew_is_a_mismatch(
        |_| {
            vec![Op::Allreduce(
                32,
                AllreduceAlgorithm::Ring,
                WireFormat::Bf16,
            )]
        },
        |_| vec![ring(32)],
        ["dtype=synth,", "dtype=synth-bf16,"],
    );
}

#[test]
fn crossed_irecv_deadlock_is_detected() {
    let v = run_expecting_abort(|c| {
        // Ranks 0 and 1 each post an irecv for a tag the other never
        // sends, then block in wait: a classic crossed nonblocking pair.
        match c.rank() {
            0 => {
                let req = c.irecv(1, 0xA, 1);
                let _ = c.wait(req);
            }
            1 => {
                let req = c.irecv(0, 0xB, 2);
                let _ = c.wait(req);
            }
            _ => {}
        }
        0
    });
    assert_eq!(v.kind, ViolationKind::Deadlock);
    for edge in [
        "rank 0 waits for (src 1, tag 0xa)",
        "rank 1 waits for (src 0, tag 0xb)",
    ] {
        assert!(v.detail.contains(edge), "detail lists `{edge}`: {v}");
    }
    // tasks that pend forever on each other, first and last in engine order
    for a in [0, 2] {
        let v = violation_of(|| {
            drive(&topo(), |rank| match rank {
                r if r == a => vec![Op::Recv(a + 1, 0xA)],
                r if r == a + 1 => vec![Op::Recv(a, 0xB)],
                _ => vec![],
            })
        });
        assert_eq!(v.kind, ViolationKind::Deadlock);
        for edge in [
            format!("rank {a} waits for (src {}, tag 0xa)", a + 1),
            format!("rank {} waits for (src {a}, tag 0xb)", a + 1),
        ] {
            assert!(v.detail.contains(&edge), "detail lists `{edge}`: {v}");
        }
    }
}

#[test]
fn out_of_order_fusion_launch_is_detected() {
    let v = run_expecting_abort(|c| {
        // The analytic schedule launches groups 0, 1, 2, ...; jumping
        // straight to group 2 after group 0 breaks it.
        c.verify_launch(0);
        c.verify_launch(2);
        0
    });
    assert_eq!(v.kind, ViolationKind::LaunchOrder);
    for odd in [0, 3] {
        let v = violation_of(|| {
            drive(&topo(), |rank| {
                let skip = if rank == odd { 2 } else { 1 };
                vec![Op::Launch(0), Op::Launch(skip), ring(8)]
            })
        });
        assert_eq!((v.kind, v.rank), (ViolationKind::LaunchOrder, odd), "{v}");
    }
}

/// Launch sequences each valid on its own rank (group 0, then
/// `previous + 1`) but different across ranks: rank 2 launches one group
/// fewer, or opens a new backward where its peers launch group 2. Either
/// way the world ends in a launch-order violation, on both cores.
#[test]
fn launch_sequences_that_differ_across_ranks_are_detected() {
    for rank_2 in [vec![0, 1], vec![0, 1, 0]] {
        let launches = |rank: usize| {
            if rank == 2 {
                rank_2.clone()
            } else {
                vec![0, 1, 2]
            }
        };
        let on_context = violation_of(|| {
            MpiWorld::run(&topo(), MpiConfig::mpi_opt(), |c| {
                for group in launches(c.rank()) {
                    c.verify_launch(group);
                }
                barrier(c);
            })
        });
        let on_driven = violation_of(|| {
            drive(&topo(), |rank| {
                let mut ops: Vec<Op> = launches(rank).into_iter().map(Op::Launch).collect();
                ops.push(Op::Barrier);
                ops
            })
        });
        for v in [on_context, on_driven] {
            assert_eq!(v.kind, ViolationKind::LaunchOrder, "{v}");
            assert!(v.detail.contains("launch order diverged"), "{v}");
        }
    }
}

/// Leaders that disagree about a two-level allreduce's size: the
/// disagreement is caught one level above the wave descriptors
/// (`tasks.rs::a_mis_sized_wave_is_a_mismatch_panic` is the
/// descriptor-level half, reached below the top-level entry).
#[test]
fn a_mis_sized_wave_is_a_signature_mismatch() {
    let two_level = |elems| Op::Allreduce(elems, AllreduceAlgorithm::TwoLevel, WireFormat::F32);
    let v = violation_of(|| {
        drive(&ClusterTopology::lassen(3), |rank| {
            vec![two_level(if rank / 4 == 1 { 999 } else { 1000 })]
        })
    });
    assert_eq!(v.kind, ViolationKind::CollectiveMismatch);
    assert!(
        v.detail.contains("elems=999,") && v.detail.contains("elems=1000,"),
        "{v}"
    );
    assert!(!v.detail.contains("on the driven core"), "{v}");
}

/// A rank that skips the last collective and returns leaves nobody
/// waiting — the world joins cleanly — and is still caught when the ledger
/// closes.
#[test]
fn returning_before_the_last_collective_is_a_desync() {
    let on_context = violation_of(|| {
        MpiWorld::run(&topo(), MpiConfig::mpi_opt(), |c| {
            barrier(c);
            if c.rank() != 3 {
                c.verify_checkpoint("last", 7);
            }
        })
    });
    let on_driven = violation_of(|| {
        drive(&topo(), |rank| {
            let mut ops = vec![Op::Barrier, Op::Checkpoint(7)];
            ops.truncate(if rank == 3 { 1 } else { 2 });
            ops
        })
    });
    for v in [on_context, on_driven] {
        assert_eq!(v.kind, ViolationKind::Desync, "{v}");
        assert!(
            v.detail.contains("checkpoint(") && v.detail.contains("ranks [3] returned"),
            "{v}"
        );
    }
}

/// Two verified worlds at once, one clean and one skewed, on either entry
/// point: each caller gets its own world's outcome and nothing of the
/// other's (there is no process-wide violation list to leak through).
#[test]
fn concurrent_worlds_see_only_their_own_outcome() {
    let clean = |_| vec![ring(64), Op::Barrier, ring(8)];
    let skewed = |rank| vec![ring(if rank == 2 { 65 } else { 64 })];
    for _ in 0..8 {
        std::thread::scope(|s| {
            let a = s.spawn(|| drive(&topo(), clean));
            let b = s.spawn(|| violation_of(|| drive(&topo(), skewed)));
            let c = s.spawn(|| {
                run_expecting_abort(|c| {
                    let mut grads = vec![1.0f32; if c.rank() == 1 { 9 } else { 8 }];
                    Allreduce::new(&mut grads).buf_id(1).run(c);
                    0
                })
            });
            let d = s.spawn(|| MpiWorld::run(&topo(), MpiConfig::mpi_opt(), barrier).verify);
            let summary = a.join().unwrap();
            assert_eq!((summary.ranks, summary.collectives_checked), (4, 3));
            let v = b.join().unwrap();
            assert!(v.detail.contains("elems=65"), "{v}");
            let v = c.join().unwrap();
            assert!(v.detail.contains("elems=9"), "{v}");
            assert_eq!(d.join().unwrap().collectives_checked, 1);
        });
    }
}
