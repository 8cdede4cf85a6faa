//! Debug-mode collective-matching verifier.
//!
//! With the `verify` cargo feature on, every rank records a signature per
//! collective — operation, reduce op, dtype, element count, collective
//! sequence number (the tag base), selected algorithm bin and fusion group
//! id — and a cross-rank checker validates that the signatures agree
//! *before* any payload moves. Three families of divergence are caught:
//!
//! - **Collective mismatch**: rank 1 calling `allreduce` with a different
//!   element count, algorithm or sequence (tag) than rank 0, or calling a
//!   different collective altogether. Detected synchronously at a
//!   rendezvous on collective entry, so the world panics with a precise
//!   report instead of hanging on a tag that will never match.
//! - **Launch-order divergence**: the overlapped optimizer in
//!   `dlsr-horovod` derives its fusion-group launch order analytically
//!   (model shape only). Each observed launch is checked against that
//!   schedule (group 0 first, then strictly `previous + 1` within a
//!   backward), and the full per-rank launch sequences are compared across
//!   ranks at the end of the run.
//! - **Nonblocking p2p deadlock**: a wait-for graph over blocked receives
//!   (`isend`/`irecv`/`wait` and plain `recv`). When a rank times out
//!   waiting, it records the edge `rank → src`; a cycle that stays stable
//!   across a re-check (no message arrived, no epoch advanced) is a real
//!   deadlock — crossed `irecv`s, for example — and is reported instead of
//!   hanging the test suite.
//!
//! Violations are pushed to a process-global list before the world panics,
//! so tests can `catch_unwind` around [`crate::MpiWorld::run`] and inspect
//! [`take_violations`].
//!
//! # Cost when disabled
//!
//! Same pattern as `dlsr-trace`: without the `verify` feature, [`COMPILED`]
//! is a literal `false`, the `Comm` verify hooks are empty `#[inline]`
//! functions, `Comm` carries no extra field, and the blocking-receive path
//! is byte-identical to the unverified build — zero overhead.

use std::sync::Mutex;

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
    /// A stable wait-for cycle over blocked receives.
    Deadlock,
    /// A rank stopped arriving at collective rendezvous (schedule drift
    /// that never produced a comparable signature).
    Desync,
}

/// One detected violation, recorded before the world panics.
#[derive(Debug, Clone)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Rank that detected the violation.
    pub rank: usize,
    pub detail: String,
}

/// Summary of a verified run, stored by the final cross-rank check.
#[derive(Debug, Clone, Default)]
pub struct VerifySummary {
    pub ranks: usize,
    /// Collective rendezvous rounds whose signatures were cross-checked.
    pub collectives_checked: u64,
    /// Fusion-group launches checked against the analytic order (rank 0).
    pub launches_checked: u64,
}

static VIOLATIONS: Mutex<Vec<Violation>> = Mutex::new(Vec::new());
static SUMMARY: Mutex<Option<VerifySummary>> = Mutex::new(None);

/// Drain the globally recorded violations (tests call this after catching
/// the world's panic). Empty when the feature is off or nothing fired.
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut VIOLATIONS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Summary of the last successfully verified world run, if any.
pub fn last_summary() -> Option<VerifySummary> {
    SUMMARY.lock().unwrap_or_else(|e| e.into_inner()).clone()
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
pub use imp::VerifyCtx;
#[cfg(feature = "verify")]
pub(crate) use imp::POLL;

#[cfg(feature = "verify")]
mod imp {
    use super::{CollSig, VerifySummary, Violation, ViolationKind, SUMMARY, VIOLATIONS};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::Duration;

    /// How often blocked waiters poll for progress / failure.
    pub(crate) const POLL: Duration = Duration::from_millis(25);
    /// A confirmed wait-for cycle must survive this pause to count as a
    /// deadlock (a matching message already in flight is drained within
    /// one `POLL`, bumping the blocked rank's epoch).
    const STABILITY: Duration = Duration::from_millis(80);
    /// How long a rank waits at a collective rendezvous for its peers
    /// before declaring schedule desync.
    const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);

    struct State {
        /// Per-rank collective signatures, in program order.
        sigs: Vec<Vec<CollSig>>,
        /// Per-rank fusion-group launch order.
        launches: Vec<Vec<usize>>,
        /// Per-rank blocked receive: `(src, tag)` while waiting.
        blocked: Vec<Option<(usize, u64)>>,
        /// Bumped on every block/unblock transition; lets the deadlock
        /// check confirm a cycle did not move between two observations.
        epoch: Vec<u64>,
        /// Set on the first violation; every poller panics once it is set
        /// so the whole world tears down instead of hanging.
        failed: bool,
        /// Collective rounds fully cross-checked (counted once by rank 0).
        checked: u64,
    }

    /// Shared cross-rank verifier state for one world run.
    pub struct VerifyCtx {
        size: usize,
        state: Mutex<State>,
        cv: Condvar,
    }

    impl VerifyCtx {
        pub fn new(size: usize) -> Arc<Self> {
            Arc::new(VerifyCtx {
                size,
                state: Mutex::new(State {
                    sigs: vec![Vec::new(); size],
                    launches: vec![Vec::new(); size],
                    blocked: vec![None; size],
                    epoch: vec![0; size],
                    failed: false,
                    checked: 0,
                }),
                cv: Condvar::new(),
            })
        }

        fn lock(&self) -> MutexGuard<'_, State> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Record the violation, mark the run failed, wake every waiter,
        /// and panic this rank. Only the first failure is recorded; later
        /// ranks panic with a generic abort so the report stays precise.
        fn fail(&self, mut st: MutexGuard<'_, State>, v: Violation) -> ! {
            let first = !st.failed;
            st.failed = true;
            drop(st);
            if first {
                VIOLATIONS
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(v.clone());
            }
            self.cv.notify_all();
            panic!(
                "dlsr-mpi verify: {:?} detected by rank {}: {}",
                v.kind, v.rank, v.detail
            );
        }

        fn abort_secondary(&self, st: MutexGuard<'_, State>, rank: usize) -> ! {
            drop(st);
            panic!("dlsr-mpi verify: rank {rank} aborting after a violation on another rank");
        }

        /// Rendezvous + cross-check one collective signature. Blocks until
        /// every rank has recorded a signature for this round, then checks
        /// all of them for equality. Panics the whole world on mismatch —
        /// *before* any of the collective's messages move.
        pub fn record_collective(&self, rank: usize, sig: CollSig) {
            let mut st = self.lock();
            if st.failed {
                self.abort_secondary(st, rank);
            }
            st.sigs[rank].push(sig);
            let idx = st.sigs[rank].len() - 1;
            self.cv.notify_all();

            let mut waited = Duration::ZERO;
            loop {
                if st.failed {
                    self.abort_secondary(st, rank);
                }
                if (0..self.size).all(|r| st.sigs[r].len() > idx) {
                    break;
                }
                let (guard, res) = self
                    .cv
                    .wait_timeout(st, POLL)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                if res.timed_out() {
                    waited += POLL;
                    if waited >= RENDEZVOUS_TIMEOUT {
                        let missing: Vec<usize> = (0..self.size)
                            .filter(|&r| st.sigs[r].len() <= idx)
                            .collect();
                        let mine = st.sigs[rank][idx].clone();
                        self.fail(
                            st,
                            Violation {
                                kind: ViolationKind::Desync,
                                rank,
                                detail: format!(
                                    "collective round {idx}: ranks {missing:?} never arrived \
                                     (rank {rank} is at {mine})"
                                ),
                            },
                        );
                    }
                }
            }

            let base = st.sigs[0][idx].clone();
            for r in 1..self.size {
                let s = &st.sigs[r][idx];
                if *s != base {
                    let s = s.clone();
                    self.fail(
                        st,
                        Violation {
                            kind: ViolationKind::CollectiveMismatch,
                            rank,
                            detail: format!(
                                "collective round {idx}: rank 0 recorded {base} but rank {r} \
                                 recorded {s}"
                            ),
                        },
                    );
                }
            }
            if rank == 0 {
                st.checked += 1;
            }
        }

        /// Record one fusion-group launch and check it against the analytic
        /// schedule: group 0 opens a backward pass, and within a pass each
        /// launch must be exactly `previous + 1`.
        pub fn record_launch(&self, rank: usize, group: usize) {
            let mut st = self.lock();
            if st.failed {
                self.abort_secondary(st, rank);
            }
            let prev = st.launches[rank].last().copied();
            let in_order = group == 0 || prev == Some(group - 1);
            if !in_order {
                self.fail(
                    st,
                    Violation {
                        kind: ViolationKind::LaunchOrder,
                        rank,
                        detail: format!(
                            "rank {rank} launched fusion group {group} after {prev:?}; the \
                             analytic schedule launches groups in ascending order from 0"
                        ),
                    },
                );
            }
            st.launches[rank].push(group);
        }

        /// Note that `rank` is blocked receiving `(src, tag)`. Epoch bumps
        /// only on transitions so a stable block keeps a stable epoch.
        pub fn note_blocked(&self, rank: usize, src: usize, tag: u64) {
            let mut st = self.lock();
            if st.failed {
                self.abort_secondary(st, rank);
            }
            if st.blocked[rank] != Some((src, tag)) {
                st.blocked[rank] = Some((src, tag));
                st.epoch[rank] += 1;
            }
        }

        /// Note that `rank`'s blocked receive completed.
        pub fn note_unblocked(&self, rank: usize) {
            let mut st = self.lock();
            if st.blocked[rank].is_some() {
                st.blocked[rank] = None;
                st.epoch[rank] += 1;
            }
        }

        /// Look for a wait-for cycle reachable from `rank`. If one exists,
        /// re-observe it after a pause; a cycle whose members are all still
        /// blocked at the same epochs is a confirmed deadlock.
        pub fn check_deadlock(&self, rank: usize) {
            let path = {
                let st = self.lock();
                if st.failed {
                    self.abort_secondary(st, rank);
                }
                let Some(path) = walk_cycle(&st, self.size, rank) else {
                    return;
                };
                path
            };
            std::thread::sleep(STABILITY);
            let st = self.lock();
            if st.failed {
                self.abort_secondary(st, rank);
            }
            let stable = path
                .iter()
                .all(|&(r, e)| st.blocked[r].is_some() && st.epoch[r] == e);
            if stable {
                let chain: Vec<String> = path
                    .iter()
                    .map(|&(r, _)| {
                        let (src, tag) = st.blocked[r].expect("member still blocked");
                        format!("rank {r} waits for (src {src}, tag {tag:#x})")
                    })
                    .collect();
                self.fail(
                    st,
                    Violation {
                        kind: ViolationKind::Deadlock,
                        rank,
                        detail: format!("stable wait-for cycle: {}", chain.join(" -> ")),
                    },
                );
            }
        }

        /// Whether a violation has been flagged (pollers panic on it).
        pub fn failed(&self) -> bool {
            self.lock().failed
        }

        /// End-of-run cross-rank checks (launch sequences and signature
        /// counts must be identical) plus the summary for reporting. Called
        /// from the world's main thread after all ranks joined cleanly.
        pub fn final_check(&self) {
            let st = self.lock();
            for r in 1..self.size {
                if st.launches[r] != st.launches[0] {
                    let detail = format!(
                        "fusion launch order diverged: rank 0 launched {:?}, rank {r} \
                         launched {:?}",
                        st.launches[0], st.launches[r]
                    );
                    self.fail(
                        st,
                        Violation {
                            kind: ViolationKind::LaunchOrder,
                            rank: r,
                            detail,
                        },
                    );
                }
            }
            *SUMMARY.lock().unwrap_or_else(|e| e.into_inner()) = Some(VerifySummary {
                ranks: self.size,
                collectives_checked: st.checked,
                launches_checked: st.launches[0].len() as u64,
            });
        }
    }

    /// Follow blocked-on edges from `rank`. Returns the `(rank, epoch)`
    /// path up to and including the first repeated node — i.e. evidence of
    /// a cycle reachable from `rank` — or `None` if the walk reaches an
    /// unblocked rank. A rank blocked *on* a cycle is deadlocked too, so
    /// the cycle need not pass through `rank` itself.
    fn walk_cycle(st: &State, size: usize, rank: usize) -> Option<Vec<(usize, u64)>> {
        let mut seen = vec![false; size];
        let mut path = Vec::new();
        let mut cur = rank;
        loop {
            let (src, _tag) = st.blocked[cur]?;
            seen[cur] = true;
            path.push((cur, st.epoch[cur]));
            if seen[src] {
                return Some(path);
            }
            cur = src;
        }
    }
}

/// Names for the algorithm bin recorded in signatures.
pub(crate) fn algo_name(algo: crate::collectives::AllreduceAlgorithm) -> &'static str {
    use crate::collectives::AllreduceAlgorithm as A;
    match algo {
        A::Ring => "ring",
        A::RecursiveDoubling => "rd",
        A::TwoLevel => "two-level",
        A::PipelinedRing => "pipelined-ring",
    }
}

/// Names for the reduce operator recorded in signatures.
pub(crate) fn op_name(op: crate::collectives::ReduceOp) -> &'static str {
    use crate::collectives::ReduceOp as O;
    match op {
        O::Sum => "sum",
        O::Max => "max",
        O::Min => "min",
    }
}
