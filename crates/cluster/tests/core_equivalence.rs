//! Training bits held across the deletion of the thread-per-rank core.
//!
//! The digests below were recorded on the last commit that carried both
//! context cores (event and threaded), where the two agreed bitwise on
//! every row: per-step losses, final parameters and virtual makespan of
//! `train_real` at every world size, with and without communication
//! overlap, and under an injected fault plan. `MpiWorld::run` — the one
//! core `train_real` runs on now — must keep producing exactly those bits.

use dlsr_cluster::{train_real, RealTrainConfig, RealTrainResult};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;

fn topo(gpus: usize) -> ClusterTopology {
    ClusterTopology {
        name: format!("eq{gpus}"),
        nodes: 1,
        gpus_per_node: gpus,
    }
}

/// FNV-1a over the exact bit patterns of losses, final parameters and
/// makespan, each widened to a little-endian u64.
fn digest(r: &RealTrainResult) -> u64 {
    let words = r
        .losses
        .iter()
        .chain(&r.final_params)
        .map(|x| x.to_bits() as u64);
    words
        .chain([r.makespan.to_bits()])
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn training_bits_match_the_pre_deletion_goldens() {
    for (gpus, overlap, golden) in [
        (1usize, true, 0x1967ba5004e8ceac_u64),
        (1, false, 0x1967ba5004e8ceac),
        (2, true, 0x4d3429cc1d65ea70),
        (2, false, 0x319aa1e1b8bcfe96),
        (4, true, 0x2c77f29a1ac6cdd5),
        (4, false, 0x242c51151bc4ff29),
        (8, true, 0xd09a764c04d3d8a0),
        (8, false, 0xcee7ee34aad42a4d),
    ] {
        // global batch 8 divides every world size under test
        let cfg = RealTrainConfig::builder()
            .steps(6)
            .global_batch(8)
            .overlap(overlap)
            .build();
        let got = digest(&train_real(&topo(gpus), MpiConfig::mpi_opt(), &cfg));
        let mode = if overlap { "overlapped" } else { "sequential" };
        assert_eq!(
            got, golden,
            "{gpus} ranks, {mode}: training bits changed ({got:#018x})"
        );
    }
}

/// The fault plan is applied by the shared communicator layer, beneath
/// the executor, so its bits were core-independent too.
#[test]
fn training_bits_under_a_fault_plan_match_the_pre_deletion_goldens() {
    use std::sync::Arc;

    use dlsr_faults::ChaosScenario;

    let cfg = RealTrainConfig::builder().steps(6).build();
    for (scenario, golden) in [
        (ChaosScenario::Lossy, 0x26f77ca5f16fb965_u64),
        (ChaosScenario::DegradedLink, 0x15863eb2170818b6),
    ] {
        let mpi = MpiConfig::mpi_opt()
            .to_builder()
            .fault_plan(Some(Arc::new(scenario.plan(7, 4, 6))))
            .build();
        let got = digest(&train_real(&topo(4), mpi, &cfg));
        assert_eq!(
            got, golden,
            "{scenario:?}: training bits changed ({got:#018x})"
        );
    }
}
