//! End-to-end bounded-mailbox behavior: a sender that outruns its
//! receiver by more than `sim_mailbox_budget` host bytes gets an explicit
//! [`CommError::MailboxBudget`] from `try_send` — never a hang, never an
//! OOM — and the error is identical on both cores, because the charge
//! happens in the shared communicator beneath the executors.

use dlsr_mpi::{Comm, CommError, MpiConfig, MpiWorld, Payload, RankProgram, Step};
use dlsr_net::ClusterTopology;

fn topo() -> ClusterTopology {
    ClusterTopology {
        name: "budget2".into(),
        nodes: 1,
        gpus_per_node: 2,
    }
}

/// A budget that admits a handful of 1 KiB messages, then trips.
fn tight_budget() -> MpiConfig {
    MpiConfig::mpi_opt()
        .to_builder()
        .sim_mailbox_budget(16 * 1024)
        .build()
}

/// Rank 0 floods rank 1, which never receives; returns how many sends
/// were admitted before the budget refused one.
fn flood(comm: &mut Comm) -> Result<usize, CommError> {
    if comm.rank() != 0 {
        return Ok(0);
    }
    for i in 0..10_000u64 {
        comm.try_send(1, 0x42, Payload::Bytes(vec![0u8; 1024]), i)?;
    }
    panic!("10k unreceived sends never tripped a 16 KiB mailbox budget");
}

fn assert_tripped(sent: &Result<usize, CommError>) {
    match sent {
        Err(CommError::MailboxBudget {
            rank,
            in_flight,
            budget,
        }) => {
            assert_eq!(*rank, 0, "the sender is the rank that sees the error");
            assert_eq!(*budget, 16 * 1024);
            assert!(
                *in_flight > *budget,
                "refused charge must exceed the budget: {in_flight} vs {budget}"
            );
        }
        other => panic!("expected MailboxBudget, got {other:?}"),
    }
}

#[test]
fn overflow_is_an_explicit_error_on_the_context_core() {
    let res = MpiWorld::run(&topo(), tight_budget(), flood);
    assert_tripped(&res.ranks[0]);
    assert!(res.ranks[1].is_ok());
}

/// The driven engine charges the same budget at the same point: a rank
/// program whose synchronous segment floods trips identically.
struct FloodProg {
    sent: Option<Result<usize, CommError>>,
}

impl RankProgram for FloodProg {
    type Out = Result<usize, CommError>;
    fn next(&mut self, comm: &mut Comm) -> Step {
        if self.sent.is_none() {
            self.sent = Some(flood(comm));
        }
        Step::Done
    }
    fn finish(&mut self, _comm: &mut Comm, _trace: Vec<dlsr_trace::TraceEvent>) -> Self::Out {
        self.sent.take().expect("next ran before finish")
    }
}

#[test]
fn overflow_is_an_explicit_error_on_the_driven_engine() {
    let res = MpiWorld::run_driven(&topo(), tight_budget(), |_rank| FloodProg { sent: None });
    assert_tripped(&res.ranks[0]);
    assert!(res.ranks[1].is_ok());
}

/// A receiver that keeps up releases budget as it drains: far more than
/// `sim_mailbox_budget` total bytes succeed when the sender waits for an
/// ack every window, proving the budget tracks *in-flight* bytes, not
/// total traffic. (The window — 8 KiB + one ack — stays under the 16 KiB
/// budget by construction; without the acks this is exactly the flood
/// case above.)
#[test]
fn draining_receiver_releases_budget() {
    let res = MpiWorld::run(&topo(), tight_budget(), |comm: &mut Comm| {
        for window in 0..25u64 {
            for i in 0..8u64 {
                let id = window * 8 + i;
                if comm.rank() == 0 {
                    comm.try_send(1, 0x42, Payload::Bytes(vec![0u8; 1024]), id)?;
                } else {
                    let _ = comm.recv(0, 0x42, id);
                }
            }
            if comm.rank() == 0 {
                let _ = comm.recv(1, 0x43, window);
            } else {
                comm.try_send(0, 0x43, Payload::Bytes(vec![1]), window)?;
            }
        }
        Ok::<(), CommError>(())
    });
    for r in res.ranks {
        r.expect("windowed traffic fits the budget: 200 KiB moved through 16 KiB");
    }
}
