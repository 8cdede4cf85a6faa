//! Collective-matching verifier, attached to every world.
//!
//! Every rank files a signature per collective — operation, reduce op,
//! dtype, element count, collective sequence number (the tag base),
//! selected algorithm bin and fusion group id — in the world's [`Ledger`]
//! *before* it moves any payload. Nothing in the ledger waits: the first
//! rank to reach a round leaves the reference, every later one is compared
//! with it on arrival. So both launchers attach the same ledger — the
//! context core's rank threads and the driven engine's single thread, ring
//! waves included — and every committed number comes from a verified
//! world. Three families of divergence:
//!
//! - **Collective mismatch**: rank 1 calling `allreduce` with a different
//!   element count, algorithm or sequence (tag) than rank 0, or calling a
//!   different collective altogether. Raised by the *later* of the two
//!   ranks at collective entry, naming both ranks and both signatures,
//!   instead of hanging on a tag that will never match.
//! - **Launch-order divergence**: the overlapped optimizer in
//!   `dlsr-horovod` derives its fusion-group launch order analytically
//!   (model shape only). Each observed launch is checked against that
//!   schedule (group 0 first, then strictly `previous + 1` within a
//!   backward) and compared across ranks on arrival, as signatures are;
//!   a launch some rank never made fails the world when it closes.
//! - **Desync**: the world joined cleanly but some rank returned without
//!   reaching a collective the others ran.
//!
//! Deadlock is not the verifier's business: "some rank has not finished and
//! no rank can run" is decided by the scheduler that knows it exactly —
//! the driven engine when its runnable stack empties, the event fabric
//! when its last running rank parks or finishes — and raised as a
//! [`Violation`] listing what every parked rank waits for.
//!
//! A failing world unwinds with the [`Violation`] as its panic payload; a
//! clean one returns the [`VerifySummary`] in [`crate::WorldResult::verify`].
//!
//! # Cost
//!
//! One lock per top-level collective and per fusion launch, and memory for
//! the rounds some rank has not reached yet. Against the same code without
//! the ledger, on 2 vCPUs, `op_ms_min` pair-ratio medians were 1.03 on
//! `tiny_train_4rank` and 1.01 on `sim_sweep_small` (12 pairs each), inside
//! every benchmark bound.

use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::Arc;

// the vendored stub strips poisoning, and no lock is held across a raise
use parking_lot::Mutex;

/// What kind of invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Per-collective signatures disagreed across ranks.
    CollectiveMismatch,
    /// Observed fusion-group launches diverged from the analytic schedule
    /// (or between ranks).
    LaunchOrder,
    /// Some rank has not finished and no rank can run.
    Deadlock,
    /// The world finished with ranks having filed unequal numbers of
    /// collective signatures.
    Desync,
}

/// One detected violation: the panic payload of the world it failed.
#[derive(Debug, Clone)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Rank that detected the violation.
    pub rank: usize,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dlsr-mpi: {:?} detected by rank {}: {}",
            self.kind, self.rank, self.detail
        )
    }
}

impl Violation {
    /// Deadlock as both cores report it: `live` ranks of the `core` core's
    /// world have not finished and none can run. `parked` is every rank
    /// blocked on a `(src, tag)`; `wave` the driven engine's line for ranks
    /// parked on a partial ring.
    pub(crate) fn deadlock(
        core: &str,
        rank: usize,
        live: usize,
        parked: impl Iterator<Item = (usize, (usize, u64))>,
        wave: Option<String>,
    ) -> Violation {
        let parked: Vec<String> = parked
            .map(|(r, (src, tag))| format!("rank {r} waits for (src {src}, tag {tag:#x})"))
            .chain(wave)
            .collect();
        Violation {
            kind: ViolationKind::Deadlock,
            rank,
            detail: format!(
                "deadlock on the {core} core: {live} ranks never completed; {}",
                parked.join("; ")
            ),
        }
    }

    /// Unwind the calling rank with `self` as the payload. The panic hook
    /// does not run: the launcher prints the violation once, whichever rank
    /// or scheduler raised it.
    pub(crate) fn raise(self) -> ! {
        std::panic::resume_unwind(Box::new(self))
    }
}

/// Summary of a cleanly verified world ([`crate::WorldResult::verify`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifySummary {
    pub ranks: usize,
    /// Collective rounds every rank reached with the same signature.
    pub collectives_checked: u64,
    /// Fusion-group launches checked against the analytic order (rank 0).
    pub launches_checked: u64,
}

/// Per-collective signature. Every field must agree across ranks at every
/// collective call, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollSig {
    /// Collective kind: "allreduce", "bcast", "barrier", "checkpoint", ...
    pub kind: &'static str,
    /// Reduction operator ("sum"/"max"/"min") or "-".
    pub op: &'static str,
    /// Payload dtype: "f32" for real buffers, "synth" for costs-only.
    pub dtype: &'static str,
    /// Element count (or the checkpoint marker for "checkpoint" records).
    pub elems: usize,
    /// Collective sequence counter at entry — the tag base all of this
    /// collective's messages will carry.
    pub seq: u64,
    /// Selected algorithm bin ("ring", "rd", "two-level", "pipelined-ring")
    /// or a checkpoint label.
    pub algo: &'static str,
    /// Fusion group id for overlapped gradient allreduces.
    pub group: Option<usize>,
    /// Root rank for rooted collectives; 0 otherwise.
    pub root: usize,
}

impl std::fmt::Display for CollSig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}(op={}, dtype={}, elems={}, seq={}, algo={}, group={:?}, root={})",
            self.kind, self.op, self.dtype, self.elems, self.seq, self.algo, self.group, self.root
        )
    }
}

/// A round some but not all ranks have reached.
struct Round<T> {
    /// The first rank to reach it, and what it filed: the reference.
    first: usize,
    value: T,
    arrived: usize,
}

/// One sequence every rank files in the same order, compared on arrival:
/// a rank's k-th value joins round k, the first rank to reach a round
/// leaves the reference and a later one that differs is the violation,
/// raised by the rank that just arrived. A round every rank reached is
/// retired, so memory is the number of open rounds.
struct Rounds<T> {
    /// How a violation names a round and a rank's value in it.
    what: &'static str,
    verb: &'static str,
    /// The violation of a value that differs from its reference, and of a
    /// round some rank returned without reaching.
    kinds: [ViolationKind; 2],
    /// Values filed so far, per rank: the round its next one joins.
    filed: Vec<u64>,
    /// Open rounds, oldest first; `open[0]` is round number `retired`.
    open: VecDeque<Round<T>>,
    /// Rounds every rank reached with the reference's value.
    retired: u64,
}

impl<T: PartialEq + Display> Rounds<T> {
    fn new(size: usize, what: &'static str, verb: &'static str, kinds: [ViolationKind; 2]) -> Self {
        Rounds {
            what,
            verb,
            kinds,
            filed: vec![0; size],
            open: VecDeque::new(),
            retired: 0,
        }
    }

    /// File `rank`'s next value.
    fn file(&mut self, rank: usize, value: T) -> Result<(), Violation> {
        let round = self.filed[rank];
        self.filed[rank] += 1;
        // ranks file rounds in order, so `retired ≤ round ≤ rounds opened`
        match self.open.get_mut((round - self.retired) as usize) {
            None => self.open.push_back(Round {
                first: rank,
                value,
                arrived: 1,
            }),
            Some(open) if open.value == value => open.arrived += 1,
            Some(open) => {
                return Err(Violation {
                    kind: self.kinds[0],
                    rank,
                    detail: format!(
                        "{} {round}: rank {} {} {} but rank {rank} {} {value}",
                        self.what, open.first, self.verb, open.value, self.verb
                    ),
                })
            }
        }
        // whoever completes a round has completed every earlier one
        if self.open[0].arrived == self.filed.len() {
            self.open.pop_front();
            self.retired += 1;
        }
        Ok(())
    }

    /// After every rank returned: the rounds checked, unless some rank
    /// never reached the oldest open one.
    fn close(&self) -> Result<u64, Violation> {
        let Some(open) = self.open.front() else {
            return Ok(self.retired);
        };
        let missing: Vec<usize> = (0..self.filed.len())
            .filter(|&r| self.filed[r] == self.retired)
            .collect();
        Err(Violation {
            kind: self.kinds[1],
            rank: open.first,
            detail: format!(
                "{} {}: rank {} {} {} but ranks {missing:?} returned without reaching it",
                self.what, self.retired, open.first, self.verb, open.value
            ),
        })
    }
}

struct State {
    /// One round per top-level collective.
    sigs: Rounds<CollSig>,
    /// One round per fusion-group launch.
    launches: Rounds<usize>,
    /// Each rank's latest launch, for the analytic-schedule check.
    last_launch: Vec<Option<usize>>,
}

/// One world's cross-rank record of collective signatures and fusion
/// launches. Every method files or compares and returns; none waits for
/// another rank.
pub struct Ledger(Mutex<State>);

impl Ledger {
    pub fn new(size: usize) -> Arc<Self> {
        use ViolationKind::{CollectiveMismatch, Desync, LaunchOrder};
        Arc::new(Ledger(Mutex::new(State {
            sigs: Rounds::new(
                size,
                "collective round",
                "recorded",
                [CollectiveMismatch, Desync],
            ),
            launches: Rounds::new(
                size,
                "fusion launch order diverged at launch",
                "launched group",
                [LaunchOrder; 2],
            ),
            last_launch: vec![None; size],
        })))
    }

    /// File `rank`'s next collective signature — before it moves any of
    /// the collective's messages.
    pub fn record(&self, rank: usize, sig: CollSig) -> Result<(), Violation> {
        self.0.lock().sigs.file(rank, sig)
    }

    /// File one fusion-group launch and check it against the analytic
    /// schedule — group 0 opens a backward pass, and within a pass each
    /// launch must be exactly `previous + 1` — and against the other
    /// ranks' launches.
    pub fn launch(&self, rank: usize, group: usize) -> Result<(), Violation> {
        let mut st = self.0.lock();
        let prev = st.last_launch[rank].replace(group);
        if group != 0 && prev != Some(group - 1) {
            return Err(Violation {
                kind: ViolationKind::LaunchOrder,
                rank,
                detail: format!(
                    "rank {rank} launched fusion group {group} after {prev:?}; the \
                     analytic schedule launches groups in ascending order from 0"
                ),
            });
        }
        st.launches.file(rank, group)
    }

    /// End-of-world checks, after every rank returned cleanly: no round
    /// is left open, else some rank skipped a collective (`Desync`) or a
    /// launch the others made.
    pub fn close(&self) -> Result<VerifySummary, Violation> {
        let st = self.0.lock();
        Ok(VerifySummary {
            ranks: st.sigs.filed.len(),
            collectives_checked: st.sigs.close()?,
            launches_checked: st.launches.close()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ledger holds the rounds some rank has not reached, never the
    /// run: after every step of a long clean run nothing is left open.
    #[test]
    fn rounds_every_rank_reached_are_retired() {
        let ledger = Ledger::new(3);
        for seq in 0..500 {
            for rank in 0..3 {
                for group in 0..4 {
                    ledger.launch(rank, group).unwrap();
                }
                let sig = CollSig {
                    kind: "barrier",
                    op: "-",
                    dtype: "-",
                    elems: 0,
                    seq,
                    algo: "dissemination",
                    group: None,
                    root: 0,
                };
                ledger.record(rank, sig).unwrap();
            }
            let st = ledger.0.lock();
            assert!(st.sigs.open.is_empty() && st.launches.open.is_empty());
        }
        let summary = ledger.close().unwrap();
        assert_eq!(
            (summary.collectives_checked, summary.launches_checked),
            (500, 2000)
        );
    }
}
