//! The ring wave against its reference, over the configuration space.
//!
//! On the driven engine a costs-only ring allreduce is evaluated as one
//! wave (`RingWave::run`): in closed form when the wave is steady (nothing
//! in it happens for the first time), else cell by cell through
//! `Comm::account_send` / `Comm::account_recv`. On the context core the
//! same `RingSm` exchanges one message per hop through those two functions.
//! Every rank must end with the same clock bits, the same `CommStats` and
//! the same `RegCacheStats` whatever the world shape, element count,
//! algorithm, wire format, registration-cache state, path policy or
//! per-rank arrival skew — drawn here rather than hand-picked; which waves
//! run in closed form follows from the draw. `--features faults` adds the
//! `Lossy` and `DegradedLink` plans (retry, backoff and degraded-link
//! charges are part of the send accounting, so they must agree too; a
//! fault plan keeps every wave per cell).

use proptest::prelude::*;

use dlsr_mpi::collectives::tasks::AllreduceElemsTask;
use dlsr_mpi::{
    drive_program, AllreduceAlgorithm, Comm, CommStats, MpiConfig, MpiWorld, PathPolicy,
    RankProgram, Step, WireFormat,
};
use dlsr_net::{ClusterTopology, RegCacheStats};

/// Allreduces per run: cold caches; warm caches (a steady wave on the
/// driven engine, unless the cache is off or too small); another buffer one
/// element shorter (new registrations, new memoised routes); the first
/// buffer again. With the cache sized to hold exactly the first buffer's
/// two chunk registrations, the third round's registration evicts the
/// first buffer's least recently used length, so the last round's hits and
/// evictions depend on the recency order the warm round left.
const ROUNDS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Case {
    algo: AllreduceAlgorithm,
    elems: usize,
    wire: WireFormat,
    policy: PathPolicy,
    skew_seed: u64,
}

/// Per-(rank, round) arrival skew in `[0, 1 ms)`: ranks reach each ring at
/// different virtual times, in an order unrelated to their rank.
fn skew(seed: u64, rank: usize, round: usize) -> f64 {
    let mut z = seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((round as u64) << 40);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * 1.0e-3
}

struct Prog {
    case: Case,
    round: usize,
}

impl RankProgram for Prog {
    type Out = (u64, CommStats, RegCacheStats);

    fn next(&mut self, comm: &mut Comm) -> Step {
        let Case {
            algo,
            elems,
            wire,
            policy,
            skew_seed,
        } = self.case;
        if self.round == ROUNDS {
            return Step::Done;
        }
        comm.advance(skew(skew_seed, comm.rank(), self.round));
        comm.set_path_policy(policy);
        let (elems, buf_id) = if self.round == 2 {
            (elems.saturating_sub(1), 2)
        } else {
            (elems, 1)
        };
        self.round += 1;
        Step::Task(AllreduceElemsTask::new_wire(elems, buf_id, algo, wire).into())
    }

    fn finish(&mut self, comm: &mut Comm, _trace: Vec<dlsr_trace::TraceEvent>) -> Self::Out {
        (
            comm.now().to_bits(),
            comm.stats().clone(),
            comm.regcache_stats(),
        )
    }
}

/// Run `case` on both cores, compare every rank's outcome and return them.
fn assert_cores_agree(
    topo: &ClusterTopology,
    cfg: &MpiConfig,
    case: Case,
) -> Result<Vec<<Prog as RankProgram>::Out>, proptest::TestCaseError> {
    let driven = MpiWorld::run_driven(topo, cfg.clone(), |_| Prog { case, round: 0 }).ranks;
    let context = MpiWorld::run(topo, cfg.clone(), move |c| {
        drive_program(c, Prog { case, round: 0 })
    })
    .ranks;
    for (rank, (d, c)) in driven.iter().zip(&context).enumerate() {
        prop_assert_eq!(
            d,
            c,
            "rank {} of {}x{}: driven vs context, {:?}",
            rank,
            topo.nodes,
            topo.gpus_per_node,
            case
        );
    }
    let sends: u64 = driven.iter().map(|(_, stats, _)| stats.sends).sum();
    prop_assert!(
        topo.total_gpus() == 1 || sends > 0,
        "a multi-rank allreduce sent nothing: {:?}",
        case
    );
    Ok(driven)
}

/// The world, configuration and case of one draw. `elems_pick` selects an
/// element count relative to the ring size `p` (the node leaders for
/// two-level, else every rank): none, fewer than one per participant,
/// not divisible (chunks of two lengths, both just above the 16 KiB RDMA
/// threshold in f32), divisible.
#[allow(clippy::too_many_arguments)]
fn draw(
    nodes: usize,
    gpn_pick: usize,
    elems_pick: usize,
    algo_pick: usize,
    bf16: bool,
    cache_pick: usize,
    nccl: bool,
    skew_seed: u64,
) -> (ClusterTopology, MpiConfig, Case) {
    let gpn = [1, 2, 4][gpn_pick];
    let algo = [
        AllreduceAlgorithm::Ring,
        AllreduceAlgorithm::TwoLevel,
        AllreduceAlgorithm::RecursiveDoubling,
    ][algo_pick];
    // recursive doubling is a ring only where the world is not 2^k
    let nodes = if algo == AllreduceAlgorithm::RecursiveDoubling && (nodes * gpn).is_power_of_two()
    {
        3
    } else {
        nodes
    };
    let topo = ClusterTopology {
        name: format!("wave{nodes}x{gpn}"),
        nodes,
        gpus_per_node: gpn,
    };
    let p = if algo == AllreduceAlgorithm::TwoLevel {
        nodes
    } else {
        topo.total_gpus()
    };
    let elems = [0, p - 1, p * 4099 + 1, p * 8192][elems_pick];
    let wire = if bf16 {
        WireFormat::Bf16
    } else {
        WireFormat::F32
    };
    let cfg = MpiConfig::mpi_opt().to_builder();
    let cfg = match cache_pick {
        0 => cfg.registration_cache(false),
        1 => cfg.registration_cache(true),
        // room for one ≥ 16 KiB chunk, not for both lengths: every other
        // lookup evicts
        2 => cfg.registration_cache(true).reg_cache_capacity(20 << 10),
        // exactly the first buffer's two chunk lengths
        _ => {
            let q = elems / p;
            let both = wire.wire_bytes(q) + wire.wire_bytes(q + 1);
            cfg.registration_cache(true).reg_cache_capacity(both)
        }
    }
    .build();
    let case = Case {
        algo,
        elems,
        wire,
        policy: if nccl {
            PathPolicy::NcclLike
        } else {
            PathPolicy::Mpi
        },
        skew_seed,
    };
    (topo, cfg, case)
}

proptest! {
    // each case launches one thread per rank on the context core
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wave_and_message_rings_leave_identical_communicators(
        nodes in 1usize..=9,
        gpn_pick in 0usize..3,
        elems_pick in 0usize..4,
        algo_pick in 0usize..3,
        bf16 in proptest::bool::ANY,
        cache_pick in 0usize..4,
        nccl in proptest::bool::ANY,
        skew_seed in 0u64..u64::MAX,
    ) {
        let (topo, cfg, case) =
            draw(nodes, gpn_pick, elems_pick, algo_pick, bf16, cache_pick, nccl, skew_seed);
        assert_cores_agree(&topo, &cfg, case)?;
    }
}

/// The draws above cover these by chance; pin them by construction: the
/// two-rank ring in each of its three shapes (one hop per phase, both
/// neighbours the same rank), and rings whose every chunk is empty.
#[test]
fn two_rank_rings_and_empty_chunks() {
    for (nodes, gpn_pick, algo_pick) in [(2, 0, 0), (1, 1, 0), (2, 2, 1), (2, 0, 1)] {
        for elems_pick in 0..4 {
            let (topo, cfg, case) =
                draw(nodes, gpn_pick, elems_pick, algo_pick, false, 1, false, 7);
            assert_cores_agree(&topo, &cfg, case).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

/// The small-cache draw must actually evict, on a leader ring and on a
/// flat one, or the `evictions` comparison above compares zeros.
#[test]
fn a_small_registration_cache_evicts_on_both_cores() {
    for algo_pick in [0, 1] {
        let (topo, cfg, case) = draw(5, 2, 2, algo_pick, false, 2, false, 3);
        let ranks = assert_cores_agree(&topo, &cfg, case).unwrap_or_else(|e| panic!("{e:?}"));
        let (_, stats, reg) = &ranks[0];
        assert!(reg.evictions > 0 && reg.hits > 0, "{reg:?}");
        assert_eq!(stats.pin_count, reg.misses, "every miss pins");
    }
}

/// The exact-fit draw must reach the case it exists for, on a leader ring
/// and on a flat one: the shorter buffer evicts one of the first buffer's
/// lengths, and the last round evicts again to bring it back.
#[test]
fn an_exact_fit_cache_evicts_by_the_warm_rounds_recency() {
    for (nodes, gpn_pick, algo_pick) in [(5, 2, 1), (3, 1, 0)] {
        let (topo, cfg, case) = draw(nodes, gpn_pick, 2, algo_pick, false, 3, false, 5);
        let ranks = assert_cores_agree(&topo, &cfg, case).unwrap_or_else(|e| panic!("{e:?}"));
        let (_, _, reg) = &ranks[0];
        assert!(reg.evictions >= 2 && reg.hits > 0, "{case:?}: {reg:?}");
    }
}

#[cfg(feature = "faults")]
mod faults {
    use std::sync::Arc;

    use dlsr_faults::ChaosScenario;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Loss/corruption verdicts and degraded-link windows are decided
        /// inside the send accounting from rank-local state (the sender's
        /// clock, its per-destination sequence number), so a wave retries,
        /// backs off and stretches exactly where the messages would.
        #[test]
        fn wave_and_message_rings_agree_under_fault_plans(
            nodes in 2usize..=9,
            gpn_pick in 0usize..3,
            elems_pick in 0usize..4,
            algo_pick in 0usize..3,
            bf16 in proptest::bool::ANY,
            lossy in proptest::bool::ANY,
            plan_seed in 0u64..u64::MAX,
            skew_seed in 0u64..u64::MAX,
        ) {
            let (topo, cfg, case) =
                draw(nodes, gpn_pick, elems_pick, algo_pick, bf16, 1, false, skew_seed);
            let scenario = if lossy { ChaosScenario::Lossy } else { ChaosScenario::DegradedLink };
            let plan = scenario.plan(plan_seed, topo.total_gpus(), ROUNDS);
            let cfg = cfg.to_builder().fault_plan(Some(Arc::new(plan))).build();
            let ranks = assert_cores_agree(&topo, &cfg, case)?;
            // every ring crosses the degraded node 0 ↔ node 1 edge
            prop_assert!(
                lossy || ranks.iter().any(|(_, s, _)| s.degraded_seconds > 0.0),
                "{:?} never degraded a hop",
                case
            );
        }
    }

    /// A draw may be too small for a 7 % loss rate to bite; a 36-rank flat
    /// ring (7 560 hops) is not.
    #[test]
    fn a_lossy_wave_retries_where_the_messages_would() {
        let (topo, cfg, case) = draw(9, 2, 2, 0, false, 1, false, 11);
        let plan = ChaosScenario::Lossy.plan(2021, topo.total_gpus(), ROUNDS);
        let cfg = cfg.to_builder().fault_plan(Some(Arc::new(plan))).build();
        let ranks = assert_cores_agree(&topo, &cfg, case).unwrap_or_else(|e| panic!("{e:?}"));
        let retries: u64 = ranks.iter().map(|(_, s, _)| s.retries).sum();
        assert!(retries > 100, "only {retries} retries");
    }
}
