//! `dlsr-faults` — seeded, virtual-clock-deterministic fault plans.
//!
//! At 512 GPUs the fabric is the failure surface: degraded links, skewed
//! ranks and flaky transports show up as lost scaling efficiency long
//! before they show up as crashes. This crate turns those failure modes
//! into **pure data**: a [`FaultSpec`] describes what should go wrong, and
//! [`FaultPlan::from_spec`] derives a queryable plan whose every answer is
//! a deterministic function of `(seed, query)` — no wall clock, no shared
//! mutable state, no RNG streams to keep in sync. Every rank holding the
//! same plan deduces the same faults at the same virtual instants, which
//! is what makes injected-fault runs replayable and testable bit-for-bit.
//!
//! Four fault classes (PAPER.md §IV's failure surface, and the recovery
//! behaviors Horovod-class stacks need in production):
//!
//! - **link degradation** ([`LinkWindow`]): bandwidth droop + latency
//!   spikes on a chosen topology edge for a virtual-time window,
//! - **transient message loss/corruption** ([`FaultPlan::attempt_fault`]):
//!   per-(src, dst, message, attempt) drop/corrupt decisions answered by
//!   the transport's retry/timeout/backoff policy,
//! - **stragglers** ([`FaultPlan::compute_multiplier`]): per-rank compute
//!   cost multipliers,
//! - **mid-run rank failure** ([`RankFailure`]): triggers the trainer's
//!   checkpoint/restore path.
//!
//! The plan only *schedules* faults; `dlsr-mpi` and `dlsr-cluster` inject
//! them when a job's `MpiConfig::fault_plan` is set, and skip every fault
//! hook when it is `None`.

#![forbid(unsafe_code)]

use std::fmt;
use std::str::FromStr;

/// What went wrong with one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was dropped in flight; the sender times out.
    Lost,
    /// The message arrived but failed its checksum; the sender retransmits.
    Corrupted,
}

/// Bandwidth droop + latency spike on one topology edge for one
/// virtual-time window. `node_a`/`node_b` are node indices (the edge is
/// undirected); a window with `node_a == node_b` degrades that node's
/// intra-node links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkWindow {
    /// One endpoint node of the degraded edge.
    pub node_a: usize,
    /// Other endpoint node.
    pub node_b: usize,
    /// Window start, virtual seconds.
    pub start_s: f64,
    /// Window end, virtual seconds (`f64::INFINITY` for "rest of run").
    pub end_s: f64,
    /// Transfer-time multiplier while degraded (≥ 1.0; 4.0 means the link
    /// moves bytes at a quarter of its healthy bandwidth).
    pub bandwidth_factor: f64,
    /// Extra per-message latency while degraded, seconds.
    pub extra_latency_s: f64,
}

/// The penalty a degraded link applies to one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPenalty {
    /// Transfer-time multiplier (≥ 1.0).
    pub bandwidth_factor: f64,
    /// Added latency, seconds.
    pub extra_latency_s: f64,
}

/// A rank dies at the start of training step `step` (0-based); the job
/// restores from its last checkpoint and continues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFailure {
    /// The failing rank.
    pub rank: usize,
    /// The training step at which it fails.
    pub step: usize,
}

/// Declarative fault scenario: what should go wrong, when, and how badly.
/// Derive the queryable form with [`FaultPlan::from_spec`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Master seed for the per-message drop/corrupt decisions.
    pub seed: u64,
    /// Degraded-link windows.
    pub degraded_links: Vec<LinkWindow>,
    /// Probability in `[0, 1)` that a transmission attempt is dropped.
    pub loss_prob: f64,
    /// Probability in `[0, 1)` that a transmission attempt is corrupted.
    pub corrupt_prob: f64,
    /// Restrict loss/corruption to a virtual-time window; `None` applies
    /// them for the whole run.
    pub loss_window: Option<(f64, f64)>,
    /// `(rank, compute multiplier)` stragglers; multipliers are ≥ 1.0.
    pub stragglers: Vec<(usize, f64)>,
    /// Optional mid-run rank failure.
    pub rank_failure: Option<RankFailure>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            degraded_links: Vec::new(),
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            loss_window: None,
            stragglers: Vec::new(),
            rank_failure: None,
        }
    }
}

/// A [`FaultSpec`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// splitmix64: the workspace's standard deterministic hash (the same
/// finalizer `dlsr_cluster::jitter_factor` uses), here mixing a query key
/// into the plan seed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The queryable, validated form of a [`FaultSpec`]. Pure data: cloning or
/// sharing it (it usually travels in an `Arc` inside `MpiConfig`) never
/// splits an RNG stream, and every query is a deterministic function of
/// the seed and the query arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Validate a spec and derive the plan.
    pub fn from_spec(spec: FaultSpec) -> Result<Self, SpecError> {
        let p = spec.loss_prob + spec.corrupt_prob;
        if !(0.0..1.0).contains(&spec.loss_prob)
            || !(0.0..1.0).contains(&spec.corrupt_prob)
            || p >= 1.0
        {
            return Err(SpecError(format!(
                "loss_prob {} + corrupt_prob {} must each lie in [0, 1) and sum below 1",
                spec.loss_prob, spec.corrupt_prob
            )));
        }
        for w in &spec.degraded_links {
            if w.bandwidth_factor < 1.0 || !w.bandwidth_factor.is_finite() {
                return Err(SpecError(format!(
                    "bandwidth_factor {} must be ≥ 1 (a degraded link is slower, not faster)",
                    w.bandwidth_factor
                )));
            }
            if w.extra_latency_s < 0.0 || w.start_s >= w.end_s {
                return Err(SpecError(format!(
                    "window [{}, {}) with extra latency {} is not a valid degradation",
                    w.start_s, w.end_s, w.extra_latency_s
                )));
            }
        }
        if let Some((s, e)) = spec.loss_window {
            if s >= e {
                return Err(SpecError(format!("loss window [{s}, {e}) is empty")));
            }
        }
        for &(rank, m) in &spec.stragglers {
            if m < 1.0 || !m.is_finite() {
                return Err(SpecError(format!(
                    "straggler multiplier {m} for rank {rank} must be a finite value ≥ 1"
                )));
            }
        }
        Ok(FaultPlan { spec })
    }

    /// A plan that schedules nothing. Injection with an empty plan is
    /// bitwise-identical to no plan at all (test-enforced in
    /// `crates/cluster/tests/faults_zero_impact.rs`).
    pub fn empty(seed: u64) -> Self {
        FaultPlan {
            spec: FaultSpec {
                seed,
                ..Default::default()
            },
        }
    }

    /// The validated spec this plan was derived from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// True when the plan schedules no fault of any class.
    pub fn is_empty(&self) -> bool {
        self.spec.degraded_links.is_empty()
            && self.spec.loss_prob == 0.0
            && self.spec.corrupt_prob == 0.0
            && self.spec.stragglers.is_empty()
            && self.spec.rank_failure.is_none()
    }

    /// Does transmission attempt `attempt` (1-based) of message `seq` from
    /// `src` to `dst`, departing at virtual time `now`, fail — and how?
    /// Deterministic in the arguments: the sender and any replay of the
    /// run reach the same verdict, so retries need no acknowledgment
    /// protocol to stay causally consistent.
    pub fn attempt_fault(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        now: f64,
    ) -> Option<FaultKind> {
        if self.spec.loss_prob == 0.0 && self.spec.corrupt_prob == 0.0 {
            return None;
        }
        if let Some((s, e)) = self.spec.loss_window {
            if now < s || now >= e {
                return None;
            }
        }
        let key = self.spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (src as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (dst as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25)
            ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ (attempt as u64) << 48;
        let u = unit(splitmix64(key));
        if u < self.spec.loss_prob {
            Some(FaultKind::Lost)
        } else if u < self.spec.loss_prob + self.spec.corrupt_prob {
            Some(FaultKind::Corrupted)
        } else {
            None
        }
    }

    /// The degradation penalty, if any, on the edge between nodes `a` and
    /// `b` at virtual time `now`. Overlapping windows compound: bandwidth
    /// factors multiply, latencies add.
    pub fn link_penalty(&self, a: usize, b: usize, now: f64) -> Option<LinkPenalty> {
        let mut factor = 1.0;
        let mut latency = 0.0;
        let mut hit = false;
        for w in &self.spec.degraded_links {
            let edge = (w.node_a == a && w.node_b == b) || (w.node_a == b && w.node_b == a);
            if edge && now >= w.start_s && now < w.end_s {
                factor *= w.bandwidth_factor;
                latency += w.extra_latency_s;
                hit = true;
            }
        }
        hit.then_some(LinkPenalty {
            bandwidth_factor: factor,
            extra_latency_s: latency,
        })
    }

    /// Compute-cost multiplier for `rank` (1.0 for punctual ranks).
    pub fn compute_multiplier(&self, rank: usize) -> f64 {
        self.spec
            .stragglers
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, m)| m)
            .product()
    }

    /// The scheduled mid-run rank failure, if any.
    pub fn rank_failure(&self) -> Option<RankFailure> {
        self.spec.rank_failure
    }
}

/// Named chaos scenarios — one per fault class — shared by the `dlsr
/// chaos` CLI, the `ablation_faults` harness (`BENCH_faults.json`) and the CI chaos
/// job, so "run the lossy scenario" means the same plan everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosScenario {
    /// The node-0 ↔ node-1 edge runs at quarter bandwidth with a latency
    /// spike for the whole run.
    DegradedLink,
    /// Every transmission attempt has a 5 % drop and 2 % corruption
    /// chance, absorbed by retry/backoff.
    Lossy,
    /// The last rank computes 1.5× slower than its peers.
    Straggler,
    /// A rank dies mid-run; the job restores from its last checkpoint.
    RankFailure,
}

impl ChaosScenario {
    /// Every chaos scenario, in presentation order.
    pub const ALL: [ChaosScenario; 4] = [
        ChaosScenario::DegradedLink,
        ChaosScenario::Lossy,
        ChaosScenario::Straggler,
        ChaosScenario::RankFailure,
    ];

    /// CLI/report name (also what [`ChaosScenario::from_str`] parses).
    pub fn label(self) -> &'static str {
        match self {
            ChaosScenario::DegradedLink => "degraded-link",
            ChaosScenario::Lossy => "lossy",
            ChaosScenario::Straggler => "straggler",
            ChaosScenario::RankFailure => "rank-failure",
        }
    }

    /// The scenario's fault spec, sized for a `world`-rank, `steps`-step
    /// run.
    pub fn spec(self, seed: u64, world: usize, steps: usize) -> FaultSpec {
        match self {
            ChaosScenario::DegradedLink => FaultSpec {
                seed,
                degraded_links: vec![LinkWindow {
                    node_a: 0,
                    node_b: 1,
                    start_s: 0.0,
                    end_s: f64::INFINITY,
                    bandwidth_factor: 4.0,
                    extra_latency_s: 50.0e-6,
                }],
                ..Default::default()
            },
            ChaosScenario::Lossy => FaultSpec {
                seed,
                loss_prob: 0.05,
                corrupt_prob: 0.02,
                ..Default::default()
            },
            ChaosScenario::Straggler => FaultSpec {
                seed,
                stragglers: vec![(world.saturating_sub(1), 1.5)],
                ..Default::default()
            },
            ChaosScenario::RankFailure => FaultSpec {
                seed,
                rank_failure: Some(RankFailure {
                    rank: 1 % world.max(1),
                    step: (steps / 2).max(1),
                }),
                ..Default::default()
            },
        }
    }

    /// The derived plan (scenario presets always validate).
    pub fn plan(self, seed: u64, world: usize, steps: usize) -> FaultPlan {
        FaultPlan::from_spec(self.spec(seed, world, steps))
            .unwrap_or_else(|e| panic!("chaos preset `{}` invalid: {e}", self.label()))
    }
}

impl fmt::Display for ChaosScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ChaosScenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ChaosScenario::ALL
            .iter()
            .copied()
            .find(|c| c.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                format!(
                    "unknown chaos scenario `{s}` (expected one of: {})",
                    ChaosScenario::ALL.map(|c| c.label()).join(" | ")
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_schedules_nothing() {
        let p = FaultPlan::empty(7);
        assert!(p.is_empty());
        assert_eq!(p.attempt_fault(0, 1, 0, 1, 0.0), None);
        assert_eq!(p.link_penalty(0, 1, 0.0), None);
        assert_eq!(p.compute_multiplier(3), 1.0);
        assert_eq!(p.rank_failure(), None);
    }

    #[test]
    fn attempt_faults_are_deterministic_and_seed_sensitive() {
        let mk = |seed| {
            FaultPlan::from_spec(FaultSpec {
                seed,
                loss_prob: 0.3,
                corrupt_prob: 0.1,
                ..Default::default()
            })
            .unwrap()
        };
        let (a, b, c) = (mk(1), mk(1), mk(2));
        let verdicts = |p: &FaultPlan| {
            (0..200)
                .map(|i| p.attempt_fault(0, 1, i, 1, 0.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&a), verdicts(&b), "same seed, same verdicts");
        assert_ne!(verdicts(&a), verdicts(&c), "seed must matter");
        let lost = verdicts(&a)
            .iter()
            .filter(|v| **v == Some(FaultKind::Lost))
            .count();
        let corrupt = verdicts(&a)
            .iter()
            .filter(|v| **v == Some(FaultKind::Corrupted))
            .count();
        // 200 draws at p=0.3 / p=0.1: both classes must show up, loss more
        assert!(
            lost > corrupt && corrupt > 0,
            "lost={lost} corrupt={corrupt}"
        );
    }

    #[test]
    fn retries_eventually_succeed_under_moderate_loss() {
        let p = FaultPlan::from_spec(FaultSpec {
            seed: 3,
            loss_prob: 0.2,
            ..Default::default()
        })
        .unwrap();
        for seq in 0..500 {
            let ok = (1..=8).any(|a| p.attempt_fault(2, 5, seq, a, 0.0).is_none());
            assert!(ok, "message {seq} lost on all 8 attempts at p=0.2");
        }
    }

    #[test]
    fn loss_window_bounds_injection() {
        let p = FaultPlan::from_spec(FaultSpec {
            seed: 9,
            loss_prob: 0.9,
            loss_window: Some((1.0, 2.0)),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(p.attempt_fault(0, 1, 0, 1, 0.5), None, "before window");
        assert_eq!(p.attempt_fault(0, 1, 0, 1, 2.0), None, "after window");
        let inside = (0..50).filter(|&s| p.attempt_fault(0, 1, s, 1, 1.5).is_some());
        assert!(inside.count() > 30, "p=0.9 inside the window");
    }

    #[test]
    fn link_windows_compound_and_expire() {
        let p = FaultPlan::from_spec(FaultSpec {
            seed: 0,
            degraded_links: vec![
                LinkWindow {
                    node_a: 0,
                    node_b: 1,
                    start_s: 0.0,
                    end_s: 10.0,
                    bandwidth_factor: 2.0,
                    extra_latency_s: 1.0e-6,
                },
                LinkWindow {
                    node_a: 1,
                    node_b: 0,
                    start_s: 5.0,
                    end_s: 10.0,
                    bandwidth_factor: 3.0,
                    extra_latency_s: 2.0e-6,
                },
            ],
            ..Default::default()
        })
        .unwrap();
        let early = p.link_penalty(0, 1, 1.0).unwrap();
        assert_eq!(early.bandwidth_factor, 2.0);
        // both windows active, and the edge is undirected
        let late = p.link_penalty(1, 0, 6.0).unwrap();
        assert_eq!(late.bandwidth_factor, 6.0);
        assert!((late.extra_latency_s - 3.0e-6).abs() < 1e-18);
        assert_eq!(p.link_penalty(0, 1, 10.0), None, "window expired");
        assert_eq!(p.link_penalty(0, 2, 1.0), None, "other edge healthy");
    }

    #[test]
    fn straggler_multipliers_apply_per_rank() {
        let p = FaultPlan::from_spec(FaultSpec {
            seed: 0,
            stragglers: vec![(3, 1.5), (3, 2.0), (0, 1.1)],
            ..Default::default()
        })
        .unwrap();
        assert_eq!(p.compute_multiplier(3), 3.0);
        assert_eq!(p.compute_multiplier(0), 1.1);
        assert_eq!(p.compute_multiplier(1), 1.0);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let bad = |spec: FaultSpec| FaultPlan::from_spec(spec).is_err();
        assert!(bad(FaultSpec {
            loss_prob: 1.0,
            ..Default::default()
        }));
        assert!(bad(FaultSpec {
            loss_prob: 0.6,
            corrupt_prob: 0.5,
            ..Default::default()
        }));
        assert!(bad(FaultSpec {
            stragglers: vec![(0, 0.5)],
            ..Default::default()
        }));
        assert!(bad(FaultSpec {
            degraded_links: vec![LinkWindow {
                node_a: 0,
                node_b: 1,
                start_s: 2.0,
                end_s: 1.0,
                bandwidth_factor: 2.0,
                extra_latency_s: 0.0,
            }],
            ..Default::default()
        }));
        assert!(bad(FaultSpec {
            loss_window: Some((3.0, 3.0)),
            ..Default::default()
        }));
    }

    #[test]
    fn chaos_scenarios_round_trip_their_labels() {
        for c in ChaosScenario::ALL {
            assert_eq!(c.label().parse::<ChaosScenario>(), Ok(c));
            let plan = c.plan(11, 4, 10);
            assert!(!plan.is_empty(), "{c} schedules something");
        }
        assert!("mpi-opt".parse::<ChaosScenario>().is_err());
        // rank-failure picks a valid step and rank even for tiny runs
        let p = ChaosScenario::RankFailure.plan(1, 1, 2);
        let f = p.rank_failure().unwrap();
        assert!(f.rank < 1 && f.step >= 1);
    }
}
