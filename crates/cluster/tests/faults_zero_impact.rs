//! The zero-impact guarantee of `docs/ROBUSTNESS.md`: fault injection is
//! compiled into every build and switched only by
//! `MpiConfig::fault_plan`, so it must not perturb a fault-free run. With
//! no plan — or an *empty* plan — attached, training produces
//! bitwise-identical losses, parameters and virtual makespan to the
//! baseline, in both overlap modes. The committed goldens of
//! `core_equivalence.rs` pin the no-plan bits themselves.

use std::sync::Arc;

use dlsr_cluster::{train_real, RealTrainConfig, RealTrainResult};
use dlsr_faults::FaultPlan;
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;

fn topo(gpus: usize) -> ClusterTopology {
    ClusterTopology {
        name: format!("w{gpus}"),
        nodes: 1,
        gpus_per_node: gpus,
    }
}

fn digest(r: &RealTrainResult) -> (Vec<u32>, Vec<u32>, u64) {
    (
        r.losses.iter().map(|l| l.to_bits()).collect(),
        r.final_params.iter().map(|p| p.to_bits()).collect(),
        r.makespan.to_bits(),
    )
}

#[test]
fn empty_plan_is_bitwise_identical_to_no_plan() {
    for overlap in [true, false] {
        for gpus in [1usize, 2] {
            let t = topo(gpus);
            let cfg = RealTrainConfig::builder().steps(8).overlap(overlap).build();
            let bare = train_real(&t, MpiConfig::mpi_opt(), &cfg);
            let planned_cfg = MpiConfig::mpi_opt()
                .to_builder()
                .fault_plan(Some(Arc::new(FaultPlan::empty(99))))
                .build();
            let planned = train_real(&t, planned_cfg, &cfg);
            assert_eq!(
                digest(&bare),
                digest(&planned),
                "empty fault plan perturbed a fault-free run (overlap={overlap}, {gpus} ranks)"
            );
            assert_eq!(planned.comm_stats.retries, 0);
            assert_eq!(planned.comm_stats.backoff_seconds, 0.0);
            assert_eq!(planned.comm_stats.degraded_seconds, 0.0);
        }
    }
}

#[test]
fn checkpointing_is_identical_with_and_without_a_plan() {
    // checkpoint_every exercises the snapshot path; an empty plan must not
    // change when snapshots are taken or what they cost
    let cfg = RealTrainConfig::builder()
        .steps(9)
        .checkpoint_every(4)
        .build();
    let t = topo(2);
    let bare = train_real(&t, MpiConfig::mpi_opt(), &cfg);
    let planned_cfg = MpiConfig::mpi_opt()
        .to_builder()
        .fault_plan(Some(Arc::new(FaultPlan::empty(7))))
        .build();
    let planned = train_real(&t, planned_cfg, &cfg);
    assert_eq!(digest(&bare), digest(&planned));
}
