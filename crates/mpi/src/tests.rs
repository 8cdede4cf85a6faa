//! The NCCL-like backend ([`crate::nccl`]): correct sums, its own IPC and
//! registration against default MPI's, and the MPI policy restored after.

use crate::collectives::Allreduce;
use crate::nccl::Nccl;
use crate::{MpiConfig, MpiWorld, PathPolicy};
use dlsr_net::ClusterTopology;

#[test]
fn allreduce_is_numerically_correct() {
    let topo = ClusterTopology::lassen(2);
    let res = MpiWorld::run(&topo, MpiConfig::default_mpi(), |c| {
        let mut buf: Vec<f32> = (0..33).map(|i| (c.rank() * 100 + i) as f32).collect();
        Nccl::all_reduce(c, &mut buf, 1);
        buf
    });
    let p = 8;
    for got in &res.ranks {
        for (i, v) in got.iter().enumerate() {
            let want: f32 = (0..p).map(|r| (r * 100 + i) as f32).sum();
            assert!((v - want).abs() < 1e-3, "elem {i}: {v} vs {want}");
        }
    }
}

#[test]
fn nccl_is_immune_to_pinned_cuda_visible_devices() {
    // Under the broken default env (Pinned), MPI stages large
    // intra-node messages through the host — NCCL still rides NVLink.
    let topo = ClusterTopology::lassen(1);
    let len = 8 << 20; // 32 MB
    let res = MpiWorld::run(&topo, MpiConfig::default_mpi(), move |c| {
        let mut buf = vec![1.0f32; len];
        Nccl::all_reduce(c, &mut buf, 1);
        (c.stats().nvlink_bytes, c.stats().staged_bytes)
    });
    for (r, &(nv, staged)) in res.ranks.iter().enumerate() {
        assert!(nv > 0, "rank {r}: NCCL sent nothing over NVLink");
        assert_eq!(staged, 0, "rank {r}: NCCL staged through host");
    }
}

#[test]
fn nccl_beats_default_mpi_on_large_intra_node_allreduce() {
    let topo = ClusterTopology::lassen(1);
    let len = 8 << 20;
    let t_nccl = MpiWorld::run(&topo, MpiConfig::default_mpi(), move |c| {
        let mut buf = vec![1.0f32; len];
        Nccl::all_reduce(c, &mut buf, 1);
        c.now()
    })
    .makespan();
    let t_mpi = MpiWorld::run(&topo, MpiConfig::default_mpi(), move |c| {
        let mut buf = vec![1.0f32; len];
        let algo = c.config().allreduce;
        Allreduce::new(&mut buf).buf_id(1).algo(algo).run(c);
        c.now()
    })
    .makespan();
    assert!(t_nccl < t_mpi, "NCCL {t_nccl} vs default MPI {t_mpi}");
}

#[test]
fn nccl_never_pins_per_message_after_warmup() {
    let topo = ClusterTopology::lassen(2);
    let res = MpiWorld::run(&topo, MpiConfig::default_mpi(), |c| {
        let mut buf = vec![1.0f32; 1 << 20];
        Nccl::all_reduce(c, &mut buf, 1);
        let pins_after_first = c.stats().pin_count;
        for _ in 0..3 {
            Nccl::all_reduce(c, &mut buf, 1);
        }
        (pins_after_first, c.stats().pin_count)
    });
    for &(first, later) in &res.ranks {
        assert_eq!(first, later, "NCCL re-pinned after warmup");
    }
}

#[test]
fn inter_node_traffic_rides_ib_and_intra_rides_nvlink() {
    let topo = ClusterTopology::lassen(2);
    let len = 8 << 20; // 32 MB
    let res = MpiWorld::run(&topo, MpiConfig::default_mpi(), move |c| {
        let mut buf = vec![1.0f32; len];
        Nccl::all_reduce(c, &mut buf, 1);
        (
            c.stats().nvlink_bytes,
            c.stats().staged_bytes,
            c.stats().ib_bytes,
        )
    });
    // ring in dense rank order: ranks 3 and 7 sit at node boundaries
    let total_ib: u64 = res.ranks.iter().map(|r| r.2).sum();
    let total_nv: u64 = res.ranks.iter().map(|r| r.0).sum();
    assert!(total_ib > 0, "the ring must cross nodes over IB");
    assert!(total_nv > total_ib, "most hops are intra-node NVLink");
    assert!(res.ranks.iter().all(|r| r.1 == 0), "NCCL never stages");
}

#[test]
fn policy_is_restored_after_collective() {
    let topo = ClusterTopology::lassen(1);
    let res = MpiWorld::run(&topo, MpiConfig::default_mpi(), |c| {
        let mut buf = vec![0.0f32; 16];
        Nccl::all_reduce(c, &mut buf, 1);
        c.path_policy() == PathPolicy::Mpi
    });
    assert!(res.ranks.iter().all(|&ok| ok));
}
