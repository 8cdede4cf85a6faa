//! End-to-end smoke test: real distributed EDSR training, and the
//! costs-only world behind the scaling figures, under the
//! collective-matching verifier every world runs under.
//!
//! This is the "clean workspace" half of the verifier story: the full
//! training path (parameter bcast, coordinator negotiation, overlapped
//! fusion-group allreduces, metric reductions) must file equal signatures
//! at every round on every rank, and the launch order recorded per rank
//! must match the analytic schedule.

#![forbid(unsafe_code)]

use dlsr_cluster::experiment::run_world;
use dlsr_cluster::realtrain::{train_real, RealTrainConfig};
use dlsr_cluster::{edsr_measured_workload, Scenario, SimTrainer};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;

#[test]
fn real_training_passes_the_verifier() {
    let topo = ClusterTopology {
        name: "mini".into(),
        nodes: 1,
        gpus_per_node: 2,
    };
    let cfg = RealTrainConfig::builder().steps(6).build();
    // Overlapped engine: fusion groups launch mid-backward, in the order
    // the verifier audits.
    let res = train_real(&topo, MpiConfig::mpi_opt(), &cfg);
    assert!(res.losses.len() == 6);
    let summary = res.verify;
    assert_eq!(summary.ranks, 2);
    assert!(
        summary.collectives_checked > 0,
        "bcast/negotiate/allreduce rounds were checked: {summary:?}"
    );
    assert!(
        summary.launches_checked > 0,
        "fusion-group launches were checked: {summary:?}"
    );

    // Sequential engine covers the backward-then-allreduce path too: its
    // groups launch through the same exchange, so they are audited alike
    // — the same launches per step as the overlapped run's.
    let cfg = RealTrainConfig::builder().steps(3).overlap(false).build();
    let res = train_real(&topo, MpiConfig::mpi_opt(), &cfg);
    assert!(res.losses.len() == 3);
    let seq = res.verify;
    assert!(seq.collectives_checked > 0);
    assert_eq!(
        seq.launches_checked * 2,
        summary.launches_checked,
        "3 sequential steps vs 6 overlapped: {seq:?} vs {summary:?}"
    );
}

/// The world every scaling number comes from — `run_world`, so the driven
/// engine, two-level allreduces whose leader rings run as waves (MPI-Opt)
/// and flat ring waves under the NCCL path policy — files exactly the
/// rounds its program yields: per step one negotiation, one allreduce per
/// fusion group, the barrier and the metrics allreduce. Top-level entries
/// only: a two-level allreduce's inner leader ring records nothing of its
/// own.
#[test]
fn the_costs_only_world_passes_the_verifier() {
    let topo = ClusterTopology::lassen(8);
    let (workload, tensors) = edsr_measured_workload();
    let (warmup, steps) = (1, 3);
    for scenario in [Scenario::MpiOpt, Scenario::Nccl] {
        let trainer = SimTrainer::new(workload.clone(), tensors.clone(), 4, scenario, &topo, 2021)
            .expect("batch 4 fits");
        let res = run_world(&topo, scenario.mpi_config(), &trainer, warmup, steps);
        let summary = res.verify;
        assert_eq!(summary.ranks, 32);
        let per_step = 1 + trainer.plan().len() + 1 + 1;
        assert_eq!(
            summary.collectives_checked,
            ((warmup + steps) * per_step) as u64,
            "{scenario:?}: {} fusion groups",
            trainer.plan().len()
        );
    }
}
