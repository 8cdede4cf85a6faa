//! Debug-mode collective-matching verifier.
//!
//! With the `verify` cargo feature on, every rank files a signature per
//! collective — operation, reduce op, dtype, element count, collective
//! sequence number (the tag base), selected algorithm bin and fusion group
//! id — in the world's `Ledger` *before* it moves any payload. Nothing in
//! the ledger waits: the first rank to reach a round leaves the reference,
//! every later one is compared with it on arrival. So both launchers attach
//! the same ledger — the context core's rank threads and the driven
//! engine's single thread, ring waves included — and a verified build runs
//! the code every committed number comes from. Three families of divergence:
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
//!   backward), and the full per-rank launch sequences are compared across
//!   ranks when the world closes.
//! - **Desync**: the world joined cleanly but some rank returned without
//!   reaching a collective the others ran.
//!
//! Deadlock is not the verifier's business: "some rank has not finished and
//! no rank can run" is decided, in every build, by the scheduler that knows
//! it exactly — the driven engine when its runnable stack empties, the
//! event fabric when its last running rank parks or finishes — and raised
//! as a [`Violation`] listing what every parked rank waits for.
//!
//! A failing world unwinds with the [`Violation`] as its panic payload; a
//! clean one returns the [`VerifySummary`] in [`crate::WorldResult::verify`].
//!
//! # Cost when disabled
//!
//! Without the `verify` feature, [`COMPILED`] is a literal `false`, the
//! `Comm` verify hooks are empty `#[inline]` functions and `Comm` carries
//! no extra field — zero overhead.

/// Whether the verifier was compiled in (`verify` cargo feature).
pub const COMPILED: bool = cfg!(feature = "verify");

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

#[cfg(feature = "verify")]
pub use imp::Ledger;

#[cfg(feature = "verify")]
mod imp {
    use super::{CollSig, VerifySummary, Violation, ViolationKind};
    use std::collections::VecDeque;
    use std::sync::Arc;

    // the vendored stub strips poisoning, and no lock is held across a raise
    use parking_lot::Mutex;

    /// A collective round some but not all ranks have reached.
    struct Round {
        /// The first rank to reach it, and what it filed: the reference.
        first: usize,
        sig: CollSig,
        arrived: usize,
    }

    struct State {
        /// Signatures filed so far, per rank: the round its next one joins.
        filed: Vec<u64>,
        /// Open rounds, oldest first; `open[0]` is round number `retired`.
        open: VecDeque<Round>,
        /// Rounds every rank reached with the reference's signature.
        retired: u64,
        /// Per-rank fusion-group launch order.
        launches: Vec<Vec<usize>>,
    }

    /// One world's cross-rank record of collective signatures and fusion
    /// launches. Every method files or compares and returns; none waits for
    /// another rank.
    pub struct Ledger(Mutex<State>);

    impl Ledger {
        pub fn new(size: usize) -> Arc<Self> {
            Arc::new(Ledger(Mutex::new(State {
                filed: vec![0; size],
                open: VecDeque::new(),
                retired: 0,
                launches: vec![Vec::new(); size],
            })))
        }

        /// File `rank`'s next collective signature. The first arrival of a
        /// round is its reference; a later one that differs is the
        /// mismatch, reported by the rank that just arrived — before it
        /// moves any of the collective's messages. A round every rank
        /// reached is retired, so memory is the number of open rounds.
        pub fn record(&self, rank: usize, sig: CollSig) -> Result<(), Violation> {
            let mut st = self.0.lock();
            let round = st.filed[rank];
            st.filed[rank] += 1;
            // ranks file rounds in order, so `retired ≤ round ≤ rounds opened`
            let i = (round - st.retired) as usize;
            if i == st.open.len() {
                st.open.push_back(Round {
                    first: rank,
                    sig,
                    arrived: 1,
                });
            } else {
                let open = &mut st.open[i];
                if open.sig != sig {
                    return Err(Violation {
                        kind: ViolationKind::CollectiveMismatch,
                        rank,
                        detail: format!(
                            "collective round {round}: rank {} recorded {} but rank {rank} \
                             recorded {sig}",
                            open.first, open.sig
                        ),
                    });
                }
                open.arrived += 1;
            }
            // whoever completes a round has completed every earlier one
            if st.open[0].arrived == st.filed.len() {
                st.open.pop_front();
                st.retired += 1;
            }
            Ok(())
        }

        /// File one fusion-group launch and check it against the analytic
        /// schedule: group 0 opens a backward pass, and within a pass each
        /// launch must be exactly `previous + 1`.
        pub fn launch(&self, rank: usize, group: usize) -> Result<(), Violation> {
            let mut st = self.0.lock();
            let prev = st.launches[rank].last().copied();
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
            st.launches[rank].push(group);
            Ok(())
        }

        /// End-of-world checks, after every rank returned cleanly: no round
        /// is left open (else some rank skipped a collective) and the launch
        /// sequences are identical.
        pub fn close(&self) -> Result<VerifySummary, Violation> {
            let st = self.0.lock();
            if let Some(open) = st.open.front() {
                let missing: Vec<usize> = (0..st.filed.len())
                    .filter(|&r| st.filed[r] == st.retired)
                    .collect();
                return Err(Violation {
                    kind: ViolationKind::Desync,
                    rank: open.first,
                    detail: format!(
                        "collective round {}: rank {} recorded {} but ranks {missing:?} \
                         returned without reaching it",
                        st.retired, open.first, open.sig
                    ),
                });
            }
            if let Some(r) = (1..st.filed.len()).find(|&r| st.launches[r] != st.launches[0]) {
                return Err(Violation {
                    kind: ViolationKind::LaunchOrder,
                    rank: r,
                    detail: format!(
                        "fusion launch order diverged: rank 0 launched {:?}, rank {r} \
                         launched {:?}",
                        st.launches[0], st.launches[r]
                    ),
                });
            }
            Ok(VerifySummary {
                ranks: st.filed.len(),
                collectives_checked: st.retired,
                launches_checked: st.launches[0].len() as u64,
            })
        }
    }
}
