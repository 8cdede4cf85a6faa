//! Tracing must be (virtually) free: the collector records spans and
//! counters but never advances a rank's virtual clock, so the simulated
//! step time with tracing enabled must stay within 3 % of the untraced
//! run. Virtual time is deterministic, which makes this a stable bound —
//! in practice the two runs are bit-identical.

use dlsr_cluster::{edsr_measured_workload, run_training, Scenario};
use dlsr_net::ClusterTopology;

#[test]
fn enabling_trace_changes_step_time_by_less_than_3_percent() {
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology::lassen(2);

    let off = run_training(&topo, Scenario::MpiOpt, &w, &tensors, 4, 1, 4, 7);
    assert!(off.trace.is_empty(), "an untraced run must record nothing");

    let (on, _) = dlsr_cluster::analysis::traced(|| {
        run_training(&topo, Scenario::MpiOpt, &w, &tensors, 4, 1, 4, 7)
    });
    assert!(!on.trace.is_empty(), "a traced run must record its spans");

    let delta = (on.step_time - off.step_time).abs() / off.step_time;
    assert!(
        delta < 0.03,
        "tracing perturbed virtual step time by {:.2}%: {} vs {} s",
        delta * 100.0,
        on.step_time,
        off.step_time
    );
}
