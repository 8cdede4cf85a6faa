//! The event fabric: per-rank mailboxes plus the run-token scheduler of
//! the event context core.
//!
//! Ranks execute on OS threads used as coroutine contexts, but at most
//! `workers` of them hold a *run token* at any instant. A rank that blocks
//! on a recv with no matching message parks — releasing its token — and
//! the freed token is granted to the eligible rank with the smallest
//! `(virtual_time, rank)` key. Delivery of the awaited `(src, tag)` makes
//! a parked rank eligible again at `max(its clock, message arrival)`.
//!
//! Determinism does not *depend* on the grant order: cross-rank timing
//! flows exclusively through arrival stamps computed at send time, and
//! every receive names its exact `(src, tag)`, so results are identical
//! for any worker count (asserted by the equivalence suite). The ordered
//! grants exist so the schedule approximates a discrete-event sweep of
//! virtual time — the rank most behind runs first — instead of an
//! oversubscribed free-for-all.

use std::collections::BTreeSet;
use std::sync::{Condvar, MutexGuard, PoisonError};

// The vendored `parking_lot` stub wraps `std::sync::Mutex` and yields std
// guards, so `std::sync::Condvar` composes with it; its `lock()` already
// strips poisoning (a panicking rank must not cascade lock panics into
// peers that are busy observing the teardown).
use parking_lot::Mutex;

use crate::message::Message;
use crate::verify::Violation;

/// Condvar wait that survives a peer's panic-while-locked (waiters just
/// take the guard back).
fn wait<'a>(cv: &Condvar, g: MutexGuard<'a, Sched>) -> MutexGuard<'a, Sched> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Where a rank stands with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    /// Holds a run token; its thread is (or may be) on a CPU.
    Running,
    /// Eligible and queued for a token.
    TokenWait,
    /// Blocked on a recv for exactly `(src, tag)`; holds no token.
    /// `vtime` is the clock (as bits) at which it parked.
    Parked { src: usize, tag: u64, vtime: u64 },
    /// Rank closure returned.
    Done,
}

struct Sched {
    status: Vec<Status>,
    has_token: Vec<bool>,
    /// Per-rank mailboxes, in delivery order (per-sender FIFO follows from
    /// senders delivering in their own program order).
    mail: Vec<Vec<Message>>,
    /// Token queue: `(virtual_time.to_bits(), rank)` — the bit pattern of a
    /// non-negative finite f64 orders exactly like its value.
    eligible: BTreeSet<(u64, usize)>,
    running: usize,
    workers: usize,
    live: usize,
    /// The rank that tore the world down first — the one whose panic is
    /// the world's diagnosis; peers only observe the teardown.
    torn_down_by: Option<usize>,
}

/// One world's shared fabric (event context core).
pub(crate) struct EventFabric {
    sched: Mutex<Sched>,
    cvs: Vec<Condvar>,
}

impl EventFabric {
    pub(crate) fn new(size: usize, workers: usize) -> EventFabric {
        let workers = workers.clamp(1, size);
        let eligible: BTreeSet<(u64, usize)> = (0..size).map(|r| (0u64, r)).collect();
        let fabric = EventFabric {
            sched: Mutex::new(Sched {
                status: vec![Status::TokenWait; size],
                has_token: vec![false; size],
                mail: vec![Vec::new(); size],
                eligible,
                running: 0,
                workers,
                live: size,
                torn_down_by: None,
            }),
            cvs: (0..size).map(|_| Condvar::new()).collect(),
        };
        let mut st = fabric.sched.lock();
        fabric.pump(&mut st);
        drop(st);
        fabric
    }

    /// Grant free tokens to eligible ranks in `(virtual_time, rank)` order.
    fn pump(&self, st: &mut Sched) {
        while st.running < st.workers {
            let Some(&key) = st.eligible.iter().next() else {
                break;
            };
            st.eligible.remove(&key);
            let rank = key.1;
            st.status[rank] = Status::Running;
            st.has_token[rank] = true;
            st.running += 1;
            self.cvs[rank].notify_all();
        }
    }

    /// Start-of-world gate: block until this rank holds a run token.
    pub(crate) fn wait_for_token(&self, rank: usize) -> Result<(), ()> {
        let mut st = self.sched.lock();
        loop {
            if st.torn_down_by.is_some() {
                return Err(());
            }
            if st.has_token[rank] {
                return Ok(());
            }
            st = wait(&self.cvs[rank], st);
        }
    }

    /// Deliver a message into `dst`'s mailbox, waking it if it parked on
    /// exactly this `(src, tag)`.
    pub(crate) fn deliver(&self, dst: usize, msg: Message) -> Result<(), ()> {
        let mut st = self.sched.lock();
        if st.torn_down_by.is_some() {
            return Err(());
        }
        let wake_key = match st.status[dst] {
            Status::Parked { src, tag, vtime } if src == msg.src && tag == msg.tag => {
                // The rank resumes at the later of its parked clock and the
                // message's arrival stamp — the discrete-event wake time.
                Some((f64::max(f64::from_bits(vtime), msg.arrival).to_bits(), dst))
            }
            _ => None,
        };
        st.mail[dst].push(msg);
        if let Some(key) = wake_key {
            st.status[dst] = Status::TokenWait;
            st.eligible.insert(key);
            self.pump(&mut st);
        }
        Ok(())
    }

    /// Non-blocking exact-match take from this rank's mailbox.
    pub(crate) fn try_take(&self, rank: usize, src: usize, tag: u64) -> Option<Message> {
        let mut st = self.sched.lock();
        let i = st.mail[rank]
            .iter()
            .position(|m| m.src == src && m.tag == tag)?;
        Some(st.mail[rank].remove(i))
    }

    /// Blocking exact-match receive. Parks the rank (releasing its token)
    /// until the message is delivered and a token is granted back. Returns
    /// `Err` on world teardown.
    pub(crate) fn recv_blocking(
        &self,
        rank: usize,
        src: usize,
        tag: u64,
        vtime: f64,
    ) -> Result<Message, ()> {
        let mut st = self.sched.lock();
        loop {
            if st.torn_down_by.is_some() {
                return Err(());
            }
            if st.has_token[rank] {
                if let Some(i) = st.mail[rank]
                    .iter()
                    .position(|m| m.src == src && m.tag == tag)
                {
                    return Ok(st.mail[rank].remove(i));
                }
                // Nothing to do at this virtual time: park, hand the token
                // to the next eligible rank.
                st.has_token[rank] = false;
                st.running -= 1;
                st.status[rank] = Status::Parked {
                    src,
                    tag,
                    vtime: vtime.to_bits(),
                };
                self.pump(&mut st);
                st = self.raise_if_deadlocked(st, rank);
            }
            st = wait(&self.cvs[rank], st);
        }
    }

    /// Deadlock, as the scheduler sees it exactly: some rank has not
    /// finished and no rank can run — none holds a token, none is queued
    /// for one, so no message can ever be delivered again. Checked whenever
    /// `rank` gives its token up for good or for a park; tears the world
    /// down and raises the violation listing every parked rank instead of
    /// hanging.
    fn raise_if_deadlocked<'a>(
        &self,
        mut st: MutexGuard<'a, Sched>,
        rank: usize,
    ) -> MutexGuard<'a, Sched> {
        if st.running > 0 || !st.eligible.is_empty() || st.live == 0 {
            return st;
        }
        st.torn_down_by = Some(rank);
        for cv in &self.cvs {
            cv.notify_all();
        }
        let parked = st.status.iter().enumerate().filter_map(|(r, s)| match *s {
            Status::Parked { src, tag, .. } => Some((r, (src, tag))),
            _ => None,
        });
        let deadlock = Violation::deadlock("context", rank, st.live, parked, None);
        drop(st);
        deadlock.raise()
    }

    /// Rank closure returned: release its token and let the world drain —
    /// or find that what is left of it cannot.
    pub(crate) fn finish(&self, rank: usize) {
        let mut st = self.sched.lock();
        st.status[rank] = Status::Done;
        if st.has_token[rank] {
            st.has_token[rank] = false;
            st.running -= 1;
        }
        st.live -= 1;
        self.pump(&mut st);
        drop(self.raise_if_deadlocked(st, rank));
    }

    /// `rank` panicked: wake everyone so blocked peers observe
    /// [`crate::CommError::WorldTornDown`] and the world aborts together.
    pub(crate) fn teardown(&self, rank: usize) {
        let mut st = self.sched.lock();
        st.torn_down_by.get_or_insert(rank);
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    /// The first rank to tear the world down, if any did.
    pub(crate) fn torn_down_by(&self) -> Option<usize> {
        self.sched.lock().torn_down_by
    }
}
