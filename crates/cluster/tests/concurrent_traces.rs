//! The trace collector is a value scoped by the launching thread, so two
//! worlds can be observed in one process without seeing each other: two
//! threads each scope their own sink and run a *different* traced world at
//! once — real training on the context core, a costs-only simulation on the
//! driven engine including its ring wave — while a third thread runs an
//! untraced world. Each traced run must come out exactly as it does alone,
//! and the untraced one must record nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use dlsr_cluster::analysis::{traced, weak_scaling_config};
use dlsr_cluster::{edsr_measured_workload, run_training, train_real, Scenario};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;
use dlsr_trace::report::StepReport;
use dlsr_trace::{Clock, TraceEvent};

/// What of a traced run is a function of the run alone: every rank's
/// virtual-clock spans in recording order, the counters, and the step
/// report over the two. Wall spans time the host, and the scratch pool —
/// hence its `scratch.*` counters — is deliberately process-wide.
#[derive(Debug, PartialEq)]
struct Observed {
    spans: BTreeMap<usize, Vec<TraceEvent>>,
    counters: BTreeMap<String, f64>,
    report: StepReport,
}

fn observed(trace: Vec<TraceEvent>, mut counters: BTreeMap<String, f64>) -> Observed {
    let trace: Vec<TraceEvent> = trace
        .into_iter()
        .filter(|e| e.clock == Clock::Virtual)
        .collect();
    counters.retain(|k, _| !k.starts_with("scratch."));
    let report = StepReport::build(&trace, &counters);
    let mut spans: BTreeMap<usize, Vec<TraceEvent>> = BTreeMap::new();
    for e in trace {
        spans.entry(e.rank).or_default().push(e);
    }
    Observed {
        spans,
        counters,
        report,
    }
}

/// 4-rank real training with checkpoints (context core, rayon kernels).
fn real() -> Observed {
    let topo = ClusterTopology::lassen(1);
    let (res, counters) =
        traced(|| train_real(&topo, MpiConfig::mpi_opt(), &weak_scaling_config(4, 4, 2)));
    assert!(
        res.trace.iter().any(|e| e.clock == Clock::Wall),
        "real training recorded no kernel spans"
    );
    let o = observed(res.trace, counters);
    assert_eq!(o.spans.len(), 4, "one lane per rank");
    assert!(o.report.faults.checkpoints >= 2, "checkpoints not traced");
    o
}

/// 8-rank MPI-Opt simulation (driven engine; the leaders' ring is a wave).
fn sim() -> Observed {
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology::lassen(2);
    let (run, counters) =
        traced(|| run_training(&topo, Scenario::MpiOpt, &w, &tensors, 4, 1, 3, 7));
    let hops = run
        .trace
        .iter()
        .filter(|e| e.cat == dlsr_trace::cat::NET && e.name.starts_with("IbRdma"))
        .count();
    assert!(hops > 0, "no inter-node ring hop was traced");
    let o = observed(run.trace, counters);
    assert_eq!(o.spans.len(), 8, "one lane per rank");
    o
}

#[test]
fn concurrent_traced_worlds_record_what_they_record_alone() {
    let (real_alone, sim_alone) = (real(), sim());
    assert_ne!(real_alone.counters, sim_alone.counters);

    let start = Barrier::new(3);
    let real_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let real_job = s.spawn(|| {
            start.wait();
            let o = real();
            real_done.store(true, Ordering::SeqCst);
            o
        });
        let sim_job = s.spawn(|| {
            start.wait();
            // a simulation takes a fraction of the real training's time:
            // keep one in flight for as long as the training records
            let mut runs = vec![sim()];
            while !real_done.load(Ordering::SeqCst) {
                runs.push(sim());
            }
            runs
        });
        let untraced_job = s.spawn(|| {
            start.wait();
            let topo = ClusterTopology::lassen(1);
            train_real(&topo, MpiConfig::mpi_opt(), &weak_scaling_config(4, 2, 0))
        });
        assert_eq!(real_job.join().expect("real world"), real_alone);
        let sims = sim_job.join().expect("simulated worlds");
        assert!(sims.len() > 1, "no simulation overlapped the real training");
        for sim_with_company in sims {
            assert_eq!(sim_with_company, sim_alone);
        }
        let untraced = untraced_job.join().expect("untraced world");
        assert!(
            untraced.trace.is_empty(),
            "a world with no sink in scope recorded {} spans",
            untraced.trace.len()
        );
    });
}
