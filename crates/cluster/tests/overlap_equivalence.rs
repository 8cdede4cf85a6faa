//! The overlap engine's correctness bar: overlapped execution must be
//! *bitwise* identical to the sequential backward-then-allreduce path —
//! same losses, same final parameters — because group packing preserves
//! byte ranges, the size-binned algorithm choice is a pure function of
//! group bytes, and every reduction keeps a fixed element-wise order.
//! And it must actually help: the step report's exposed communication has
//! to shrink when launches ride inside the backward window.

use dlsr_cluster::{train_real, RealTrainConfig};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;

fn topo(gpus: usize) -> ClusterTopology {
    ClusterTopology {
        name: format!("w{gpus}"),
        nodes: 1,
        gpus_per_node: gpus,
    }
}

#[test]
fn overlapped_training_is_bitwise_identical_to_sequential() {
    for gpus in [1usize, 2, 4] {
        let t = topo(gpus);
        let sequential = RealTrainConfig::builder().steps(20).overlap(false).build();
        let overlapped = sequential.clone().to_builder().overlap(true).build();
        let a = train_real(&t, MpiConfig::mpi_opt(), &sequential);
        let b = train_real(&t, MpiConfig::mpi_opt(), &overlapped);
        assert_eq!(
            a.losses, b.losses,
            "{gpus} ranks: per-step losses diverged between sequential and overlapped"
        );
        assert_eq!(
            a.final_params, b.final_params,
            "{gpus} ranks: final parameters diverged between sequential and overlapped"
        );
    }
}

#[test]
fn measured_readiness_reconciles_with_the_analytic_schedule() {
    let cfg = RealTrainConfig::builder().steps(5).build();
    let res = train_real(&topo(2), MpiConfig::mpi_opt(), &cfg);
    let rec = res
        .readiness
        .expect("overlapped run must reconcile readiness");
    assert_eq!(rec.analytic.len(), rec.measured.len());
    assert!(!rec.analytic.is_empty());
    assert!(
        rec.measured_monotone,
        "hooks fire in backward order, measured readiness must be non-decreasing"
    );
    // Both schedules are normalized to fractions of their final value; the
    // analytic model (readiness ∝ cumulative parameter volume) should track
    // the real path's shape. The bound is loose — measured readiness is
    // wall-clock and therefore noisy.
    assert!(
        rec.max_abs_dev < 0.6,
        "analytic schedule diverged from measured readiness: max dev {}",
        rec.max_abs_dev
    );
    // sequential runs record no reconciliation
    let seq = train_real(
        &topo(2),
        MpiConfig::mpi_opt(),
        &RealTrainConfig::builder().overlap(false).steps(2).build(),
    );
    assert!(seq.readiness.is_none());
}

#[test]
fn overlap_shrinks_exposed_communication() {
    let run = |overlap: bool| {
        let cfg = RealTrainConfig::builder()
            .steps(3)
            .global_batch(8)
            .overlap(overlap)
            .build();
        let (res, counters) = dlsr_cluster::analysis::traced(|| {
            train_real(&ClusterTopology::lassen(2), MpiConfig::mpi_opt(), &cfg)
        });
        let report = dlsr_trace::report::StepReport::build(&res.trace, &counters);
        (res, report)
    };
    let (_, seq) = run(false);
    let (ovl_res, ovl) = run(true);

    let mean_exposed = |r: &dlsr_trace::report::StepReport| {
        r.ranks.iter().map(|b| b.exposed_comm_s).sum::<f64>() / r.ranks.len() as f64
    };
    let (e_seq, e_ovl) = (mean_exposed(&seq), mean_exposed(&ovl));
    assert!(e_seq > 0.0, "sequential run must expose some communication");
    assert!(
        e_ovl <= 0.75 * e_seq,
        "overlap did not shrink exposed comm by ≥25%: {e_ovl} vs {e_seq} s"
    );
    // the overlapped run leaves wall-clock launch markers mid-backward
    assert!(
        ovl_res
            .trace
            .iter()
            .any(|e| e.cat == dlsr_trace::cat::AR_LAUNCH),
        "overlapped run recorded no allreduce.launch markers"
    );
}
