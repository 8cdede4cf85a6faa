//! There is no tracing fallback for the ring wave: with a trace sink in
//! scope, the driven engine still evaluates costs-only rings as waves,
//! running each cell under the lane of the rank it accounts for. Every
//! rank must therefore end with exactly the span sequence the context
//! core's message-path ring records on that rank's own thread — which is
//! what keeps `dlsr analyze` and `dlsr profile` output independent of the
//! core.

use dlsr_cluster::{edsr_measured_workload, Scenario, SimTrainer};
use dlsr_mpi::MpiWorld;
use dlsr_net::ClusterTopology;

#[test]
fn per_rank_span_sequences_are_equal_across_cores() {
    let (w, tensors) = edsr_measured_workload();
    // a 3-leader ring (MPI-Opt, two-level) and a 12-rank flat ring (NCCL)
    let topo = ClusterTopology::lassen(3);
    for sc in [Scenario::MpiOpt, Scenario::Nccl] {
        let trainer = SimTrainer::new(w.clone(), tensors.clone(), 4, sc, &topo, 7)
            .expect("per-GPU batch must fit");
        let ((driven, context), _) = dlsr_cluster::analysis::traced(|| {
            (
                MpiWorld::run_driven(&topo, sc.mpi_config(), |_| trainer.program(1, 2)),
                MpiWorld::run(&topo, sc.mpi_config(), |c| trainer.run(c, 1, 2)),
            )
        });

        for (rank, (d, c)) in driven.ranks.iter().zip(&context.ranks).enumerate() {
            assert!(
                d.trace.iter().all(|e| e.rank == rank),
                "{sc:?}: a span of another rank in rank {rank}'s trace"
            );
            assert_eq!(d.trace.len(), c.trace.len(), "{sc:?}, rank {rank}");
            for (i, (de, ce)) in d.trace.iter().zip(&c.trace).enumerate() {
                assert_eq!(de, ce, "{sc:?}, rank {rank}, span {i}");
            }
        }
        // the comparison covered ring hops: only they are large enough
        // for the rendezvous path, and their NET spans are recorded
        // inside the wave
        let hops = driven
            .ranks
            .iter()
            .flat_map(|r| &r.trace)
            .filter(|e| e.cat == dlsr_trace::cat::NET && e.name.starts_with("IbRdma"))
            .count();
        assert!(hops > 0, "{sc:?}: no inter-node ring hop was traced");
    }
}
