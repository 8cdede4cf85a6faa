//! Injected-fault behavior of the real training path (`docs/ROBUSTNESS.md`):
//! every fault class is timing-only — retries, degraded links, stragglers
//! and even a mid-run rank failure stretch the virtual timeline but leave
//! the training math bitwise identical to a fault-free run — and the whole
//! injected run is deterministic in the fault-plan seed.

use std::sync::Arc;

use dlsr_cluster::{train_real, RealTrainConfig, RealTrainResult};
use dlsr_faults::{ChaosScenario, FaultPlan, FaultSpec, RankFailure};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;

fn topo(nodes: usize, gpus: usize) -> ClusterTopology {
    ClusterTopology {
        name: format!("n{nodes}g{gpus}"),
        nodes,
        gpus_per_node: gpus,
    }
}

fn with_plan(plan: FaultPlan) -> MpiConfig {
    MpiConfig::mpi_opt()
        .to_builder()
        .fault_plan(Some(Arc::new(plan)))
        .build()
}

fn math_digest(r: &RealTrainResult) -> (Vec<u32>, Vec<u32>) {
    (
        r.losses.iter().map(|l| l.to_bits()).collect(),
        r.final_params.iter().map(|p| p.to_bits()).collect(),
    )
}

/// The recovery demo of ISSUE 5: rank 1 dies at step 5; the job restores
/// from the step-3 checkpoint, replays, and lands on the *same* trained
/// model — recovery costs time, never accuracy.
#[test]
fn rank_failure_restores_from_checkpoint_and_reconverges() {
    let t = topo(1, 2);
    let cfg = RealTrainConfig::builder()
        .steps(10)
        .checkpoint_every(3)
        .eval_every(Some(5))
        .build();
    let clean = train_real(&t, MpiConfig::mpi_opt(), &cfg);
    let plan = ChaosScenario::RankFailure.plan(42, 2, 10);
    let f = plan.rank_failure().expect("scenario schedules a failure");
    assert_eq!((f.rank, f.step), (1, 5));
    let (faulted, counters) =
        dlsr_cluster::analysis::traced(|| train_real(&t, with_plan(plan), &cfg));
    // bitwise re-convergence: step-keyed data + exact state restore make
    // the replayed steps identical, so the final model matches exactly —
    // comfortably within the 0.1 dB acceptance bound
    assert_eq!(math_digest(&clean), math_digest(&faulted));
    assert_eq!(faulted.psnr_curve, clean.psnr_curve);
    assert!((faulted.model_psnr - clean.model_psnr).abs() < 0.1);
    assert!(
        faulted.makespan > clean.makespan,
        "detection + restore + replayed steps must cost virtual time: {} vs {}",
        faulted.makespan,
        clean.makespan
    );
    // the restore and the checkpoints it relies on are visible in the
    // step report's fault summary
    let report = dlsr_trace::report::StepReport::build(&faulted.trace, &counters);
    assert!(report.faults.restores >= 1, "restore counter missing");
    assert!(
        report.faults.checkpoints >= 3,
        "checkpoint counters missing"
    );
    assert!(report.faults.checkpoint_s > 0.0);
    assert!(report.render().contains("faults:"));
}

/// A failure *before* any periodic checkpoint falls back to the initial
/// (post-broadcast) snapshot: the whole prefix replays.
#[test]
fn early_failure_restores_from_initial_snapshot() {
    let t = topo(1, 2);
    let cfg = RealTrainConfig::builder().steps(6).build(); // no checkpoints
    let clean = train_real(&t, MpiConfig::mpi_opt(), &cfg);
    let plan = FaultPlan::from_spec(FaultSpec {
        seed: 1,
        rank_failure: Some(RankFailure { rank: 0, step: 2 }),
        ..Default::default()
    })
    .unwrap();
    let faulted = train_real(&t, with_plan(plan), &cfg);
    assert_eq!(math_digest(&clean), math_digest(&faulted));
    assert!(faulted.makespan > clean.makespan);
}

/// Message loss/corruption is absorbed by retry + exponential backoff: the
/// transport pays, the math doesn't notice.
#[test]
fn lossy_transport_retries_without_changing_the_math() {
    let t = topo(1, 2);
    let cfg = RealTrainConfig::builder().steps(6).build();
    let clean = train_real(&t, MpiConfig::mpi_opt(), &cfg);
    let faulted = train_real(&t, with_plan(ChaosScenario::Lossy.plan(42, 2, 6)), &cfg);
    assert_eq!(math_digest(&clean), math_digest(&faulted));
    assert!(
        faulted.comm_stats.retries > 0,
        "5%+2% loss must trigger retries"
    );
    assert!(faulted.comm_stats.backoff_seconds > 0.0);
    assert!(faulted.makespan > clean.makespan);
}

/// A degraded inter-node link slows transfers inside its window only.
#[test]
fn degraded_link_charges_time_on_the_wire() {
    let t = topo(2, 1);
    let cfg = RealTrainConfig::builder().steps(4).build();
    let clean = train_real(&t, MpiConfig::mpi_opt(), &cfg);
    let faulted = train_real(
        &t,
        with_plan(ChaosScenario::DegradedLink.plan(42, 2, 4)),
        &cfg,
    );
    assert_eq!(math_digest(&clean), math_digest(&faulted));
    assert!(faulted.comm_stats.degraded_seconds > 0.0);
    assert!(faulted.makespan > clean.makespan);
}

/// A straggler rank stretches its compute; synchronous data parallelism
/// makes everyone wait for it.
#[test]
fn straggler_rank_stretches_the_makespan() {
    let t = topo(1, 2);
    let cfg = RealTrainConfig::builder().steps(4).build();
    let clean = train_real(&t, MpiConfig::mpi_opt(), &cfg);
    let faulted = train_real(&t, with_plan(ChaosScenario::Straggler.plan(42, 2, 4)), &cfg);
    assert_eq!(math_digest(&clean), math_digest(&faulted));
    assert!(faulted.makespan > clean.makespan);
}

/// Determinism contract: the same fault-plan seed reproduces the injected
/// run exactly — losses, retry counts and makespan — at every world size.
#[test]
fn injected_runs_are_deterministic_in_the_plan_seed() {
    for gpus in [1usize, 2, 4] {
        let t = topo(1, gpus);
        let cfg = RealTrainConfig::builder().steps(5).build();
        let run = || train_real(&t, with_plan(ChaosScenario::Lossy.plan(7, gpus, 5)), &cfg);
        let (a, b) = (run(), run());
        assert_eq!(math_digest(&a), math_digest(&b));
        assert_eq!(a.comm_stats.retries, b.comm_stats.retries);
        assert_eq!(
            a.comm_stats.backoff_seconds.to_bits(),
            b.comm_stats.backoff_seconds.to_bits()
        );
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{gpus} ranks");
    }
}
