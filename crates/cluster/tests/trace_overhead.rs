//! Tracing must be free on the virtual clock: the collector records spans
//! and counters but never advances a rank's clock, so a traced run's
//! virtual numbers are the untraced run's, to the bit. On the driven engine
//! the two runs also take different evaluations of every steady ring wave —
//! cell by cell under a trace sink (the cells record spans), in closed form
//! without one — so this is also an end-to-end check of the closed form
//! against its reference, on a 4-leader ring (MPI-Opt, two-level) and a
//! 16-rank flat ring (NCCL).

use dlsr_cluster::{edsr_measured_workload, run_training, Scenario};
use dlsr_net::ClusterTopology;

#[test]
fn a_traced_run_has_the_untraced_runs_virtual_bits() {
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology::lassen(4);
    for sc in [Scenario::MpiOpt, Scenario::Nccl] {
        let off = run_training(&topo, sc, &w, &tensors, 4, 1, 4, 7);
        assert!(
            off.trace.is_empty(),
            "{sc:?}: an untraced run must record nothing"
        );

        let (on, _) =
            dlsr_cluster::analysis::traced(|| run_training(&topo, sc, &w, &tensors, 4, 1, 4, 7));
        assert!(
            !on.trace.is_empty(),
            "{sc:?}: a traced run must record its spans"
        );

        for (what, traced, untraced) in [
            ("step time", on.step_time, off.step_time),
            ("efficiency", on.efficiency, off.efficiency),
            (
                "registration hit rate",
                on.regcache_hit_rate,
                off.regcache_hit_rate,
            ),
        ] {
            assert_eq!(
                traced.to_bits(),
                untraced.to_bits(),
                "{sc:?}: tracing changed the {what}: {traced} vs {untraced}"
            );
        }
    }
}
