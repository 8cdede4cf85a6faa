//! Rooted collectives: `MPI_Reduce`, `MPI_Gather`, `MPI_Scatter`.
//!
//! Horovod's data path is allreduce/bcast, but its *control* path and
//! checkpoint/metric aggregation are rooted operations; they also complete
//! the MPI surface for downstream users of the simulator.

use crate::comm::Comm;
use crate::message::Payload;

use super::{coll_tag, ReduceOp};

/// Reduce `buf` from every rank onto `root` (binomial tree). Non-root
/// buffers are left untouched; the root's buffer holds the reduction.
pub fn reduce(comm: &mut Comm, buf: &mut [f32], root: usize, buf_id: u64, op: ReduceOp) {
    let p = comm.size();
    if p == 1 {
        return;
    }
    comm.verify_coll(
        "reduce",
        op.label(),
        "f32",
        buf.len(),
        "binomial",
        None,
        root,
    );
    let rank = comm.rank();
    let seq = comm.next_seq();
    let relative = (rank + p - root) % p;
    // scratch accumulator so non-root ranks do not clobber their input
    let mut acc = buf.to_vec();
    let mut mask = 1usize;
    while mask < p {
        if relative & mask != 0 {
            let dst = (rank + p - mask) % p;
            comm.send(dst, coll_tag(seq, 0), Payload::F32(acc), buf_id);
            return; // sent up the tree; done
        }
        let src_rel = relative + mask;
        if src_rel < p {
            let src = (src_rel + root) % p;
            let incoming = comm.recv(src, coll_tag(seq, 0), buf_id).into_f32();
            comm.charge_reduce(incoming.len());
            op.combine(&mut acc, &incoming);
        }
        mask <<= 1;
    }
    // only the root reaches here
    buf.copy_from_slice(&acc);
}

/// Gather every rank's buffer to `root`, in rank order. Non-root ranks
/// receive an empty vec.
pub fn gather(comm: &mut Comm, mine: Vec<f32>, root: usize, buf_id: u64) -> Vec<Vec<f32>> {
    let p = comm.size();
    let rank = comm.rank();
    if p == 1 {
        return vec![mine];
    }
    comm.verify_coll("gather", "-", "f32", 0, "linear", None, root);
    let seq = comm.next_seq();
    if rank == root {
        let mut out: Vec<Vec<f32>> = vec![Vec::new(); p];
        out[rank] = mine;
        for src in (0..p).filter(|&r| r != root) {
            out[src] = comm.recv(src, coll_tag(seq, 0), buf_id).into_f32();
        }
        out
    } else {
        comm.send(root, coll_tag(seq, 0), Payload::F32(mine), buf_id);
        Vec::new()
    }
}

/// Scatter `parts` (one per rank, significant at `root` only) so each rank
/// receives its own slice.
pub fn scatter(
    comm: &mut Comm,
    parts: Option<Vec<Vec<f32>>>,
    root: usize,
    buf_id: u64,
) -> Vec<f32> {
    let p = comm.size();
    let rank = comm.rank();
    if p == 1 {
        let mut parts = parts.expect("root provides parts");
        assert_eq!(parts.len(), 1, "one part per rank");
        return parts.pop().expect("one part");
    }
    comm.verify_coll("scatter", "-", "f32", 0, "linear", None, root);
    let seq = comm.next_seq();
    if rank == root {
        let parts = parts.expect("root provides parts");
        assert_eq!(parts.len(), p, "one part per rank");
        let mut own = Vec::new();
        for (dst, part) in parts.into_iter().enumerate() {
            if dst == root {
                own = part;
            } else {
                comm.send(dst, coll_tag(seq, 0), Payload::F32(part), buf_id);
            }
        }
        own
    } else {
        comm.recv(root, coll_tag(seq, 0), buf_id).into_f32()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MpiConfig;
    use crate::world::MpiWorld;
    use dlsr_net::ClusterTopology;

    use super::*;

    fn topo() -> ClusterTopology {
        ClusterTopology::lassen(2) // 8 ranks
    }

    #[test]
    fn reduce_sums_onto_root_only() {
        for root in [0usize, 3, 7] {
            let res = MpiWorld::run(&topo(), MpiConfig::mpi_opt(), move |c| {
                let mut buf = vec![c.rank() as f32 + 1.0; 5];
                reduce(c, &mut buf, root, 1, ReduceOp::Sum);
                buf
            });
            // Σ (r+1) for r in 0..8 = 36
            assert!(res.ranks[root].iter().all(|&v| v == 36.0), "root {root}");
            for (r, buf) in res.ranks.iter().enumerate() {
                if r != root {
                    assert!(
                        buf.iter().all(|&v| v == r as f32 + 1.0),
                        "rank {r} buffer was clobbered"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_max_finds_global_extremum() {
        let res = MpiWorld::run(&topo(), MpiConfig::mpi_opt(), |c| {
            let mut buf = vec![(c.rank() as f32 - 3.5).abs()];
            reduce(c, &mut buf, 0, 1, ReduceOp::Max);
            buf[0]
        });
        assert_eq!(res.ranks[0], 3.5);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let res = MpiWorld::run(&topo(), MpiConfig::mpi_opt(), |c| {
            gather(c, vec![c.rank() as f32; c.rank() + 1], 2, 1)
        });
        let at_root = &res.ranks[2];
        assert_eq!(at_root.len(), 8);
        for (src, block) in at_root.iter().enumerate() {
            assert_eq!(block.len(), src + 1);
            assert!(block.iter().all(|&v| v == src as f32));
        }
        assert!(res.ranks[0].is_empty(), "non-root gets nothing");
    }

    #[test]
    fn scatter_distributes_parts() {
        let res = MpiWorld::run(&topo(), MpiConfig::mpi_opt(), |c| {
            let parts = (c.rank() == 1).then(|| (0..8).map(|r| vec![r as f32 * 10.0; 2]).collect());
            scatter(c, parts, 1, 1)
        });
        for (r, part) in res.ranks.iter().enumerate() {
            assert_eq!(part, &vec![r as f32 * 10.0; 2], "rank {r}");
        }
    }

    #[test]
    fn scatter_then_gather_roundtrips() {
        let res = MpiWorld::run(&topo(), MpiConfig::mpi_opt(), |c| {
            let parts =
                (c.rank() == 0).then(|| (0..8).map(|r| vec![r as f32, r as f32 + 0.5]).collect());
            let mine = scatter(c, parts, 0, 1);
            gather(c, mine, 0, 2)
        });
        let back = &res.ranks[0];
        for (r, block) in back.iter().enumerate() {
            assert_eq!(block, &vec![r as f32, r as f32 + 0.5]);
        }
    }
}
