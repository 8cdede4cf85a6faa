//! Costs-only mirrors of the collective algorithms.
//!
//! These run the *same* communication schedules as their real counterparts
//! in `allreduce.rs`/`bcast.rs` — same peers, same message sizes, same
//! paths, same registration and reduce-kernel charges — but payloads carry
//! only a byte count. They exist for the scaling harnesses (512 simulated
//! ranks × tens of MB of gradients), where moving real buffers would
//! exhaust host memory without changing any timing result.
//!
//! Equivalence with the real algorithms is asserted in tests: for the same
//! buffer size and world, virtual times agree to floating-point noise.
//!
//! The schedules themselves live in [`super::tasks`] as resumable
//! [`EventTask`](crate::executor::EventTask) state machines (so the driven
//! engine can park a rank mid-collective); the functions here block by
//! driving those tasks in place.

use crate::comm::Comm;
use crate::message::Payload;

use super::tasks::drive_allreduce_elems;
use super::wire::WireFormat;
use super::{coll_tag, AllreduceAlgorithm};

pub(crate) fn synth(elems: usize) -> Payload {
    synth_wire(elems, WireFormat::F32)
}

/// A costs-only payload sized as `elems` f32 values would be after wire
/// encoding — encode/decode cost nothing on the virtual clock, so matching
/// the encoded byte count is all a synthetic mirror needs for timing
/// equivalence with a compressed real collective.
pub(crate) fn synth_wire(elems: usize, wf: WireFormat) -> Payload {
    Payload::Synthetic {
        bytes: wf.wire_bytes(elems),
    }
}

/// Costs-only sum-allreduce of `elems` f32 elements.
pub fn allreduce_elems(comm: &mut Comm, elems: usize, buf_id: u64, algo: AllreduceAlgorithm) {
    drive_allreduce_elems(comm, elems, buf_id, algo, WireFormat::F32);
}

/// [`allreduce_elems`] with an explicit wire format: same schedule and
/// reduce charges as the real compressed collective, encoded payload
/// sizes on the wire.
pub fn allreduce_elems_wire(
    comm: &mut Comm,
    elems: usize,
    buf_id: u64,
    algo: AllreduceAlgorithm,
    wf: WireFormat,
) {
    drive_allreduce_elems(comm, elems, buf_id, algo, wf);
}

/// Costs-only broadcast of `elems` f32 elements from `root` (binomial).
pub fn bcast_elems(comm: &mut Comm, elems: usize, root: usize, buf_id: u64) {
    let p = comm.size();
    if p == 1 {
        return;
    }
    comm.verify_coll("bcast", "-", "synth", 0, "binomial", None, root);
    let rank = comm.rank();
    let seq = comm.next_seq();
    let relative = (rank + p - root) % p;
    let mut mask = 1usize;
    while mask < p {
        if relative & mask != 0 {
            let src = (rank + p - mask) % p;
            let _ = comm.recv(src, coll_tag(seq, 0), buf_id);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if relative + mask < p {
            let dst = (rank + mask) % p;
            comm.send(dst, coll_tag(seq, 0), synth(elems), buf_id);
        }
        mask >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MpiConfig;
    use crate::world::MpiWorld;
    use dlsr_net::ClusterTopology;

    use super::super::{bcast, Allreduce};
    use super::*;

    /// The defining property: synthetic timing == real timing.
    #[test]
    fn synthetic_allreduce_times_match_real() {
        // pipeline_chunk 1 MB ⇒ the 20 MB buffer's ring blocks split into
        // multiple sub-chunks, exercising the pipelined schedule fully
        let mut opt_chunked = MpiConfig::mpi_opt();
        opt_chunked.tuning.pipeline_chunk = 1 << 20;
        for algo in [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::TwoLevel,
            AllreduceAlgorithm::PipelinedRing,
        ] {
            for cfg in [
                MpiConfig::default_mpi(),
                MpiConfig::mpi_opt(),
                opt_chunked.clone(),
            ] {
                let topo = ClusterTopology::lassen(2);
                let elems = 5_000_000usize; // 20 MB — exercises IPC threshold
                let t_real = MpiWorld::run(&topo, cfg.clone(), move |c| {
                    let mut buf = vec![1.0f32; elems];
                    Allreduce::new(&mut buf).buf_id(1).algo(algo).run(c);
                    c.now()
                })
                .makespan();
                let t_synth = MpiWorld::run(&topo, cfg, move |c| {
                    allreduce_elems(c, elems, 1, algo);
                    c.now()
                })
                .makespan();
                let rel = (t_real - t_synth).abs() / t_real;
                assert!(
                    rel < 1e-9,
                    "{algo:?}: real {t_real} vs synthetic {t_synth} (rel {rel})"
                );
            }
        }
    }

    /// The same property where chunks are uneven: element counts that do
    /// not divide by the ring size, on a 3-node world (12-rank flat rings,
    /// a 3-leader ring). The real collectives slice their buffers with
    /// `chunk_range`; the synthetic state machines derive the same chunk
    /// lengths incrementally.
    #[test]
    fn synthetic_allreduce_times_match_real_on_uneven_chunks() {
        let mut chunked = MpiConfig::mpi_opt();
        chunked.tuning.pipeline_chunk = 16 << 10;
        let topo = ClusterTopology::lassen(3);
        for elems in [100_003usize, 7] {
            for algo in [
                AllreduceAlgorithm::Ring,
                AllreduceAlgorithm::TwoLevel,
                AllreduceAlgorithm::PipelinedRing,
            ] {
                let t_real = MpiWorld::run(&topo, chunked.clone(), move |c| {
                    let mut buf = vec![1.0f32; elems];
                    Allreduce::new(&mut buf).buf_id(1).algo(algo).run(c);
                    c.now()
                })
                .makespan();
                let t_synth = MpiWorld::run(&topo, chunked.clone(), move |c| {
                    allreduce_elems(c, elems, 1, algo);
                    c.now()
                })
                .makespan();
                let rel = (t_real - t_synth).abs() / t_real;
                assert!(
                    rel < 1e-9,
                    "{algo:?}, {elems} elems: real {t_real} vs synthetic {t_synth} (rel {rel})"
                );
            }
        }
    }

    /// Wire compression preserves the timing equivalence: a compressed
    /// real collective and its synthetic mirror agree for every format ×
    /// algorithm, including hierarchical promotion and top-k sparse.
    ///
    /// Size bins scaled down 64×, so a ~320 KB payload sits where 20 MB does
    /// under the defaults (one sub-chunk per ring block on `flat`, several on
    /// `hier`'s pipelined leader ring, each a rendezvous even as bf16), one
    /// element either side of a whole number of sub-chunks.
    #[test]
    fn synthetic_wire_allreduce_times_match_real() {
        const CHUNK: u64 = 32 << 10;
        let scaled = MpiConfig::mpi_opt()
            .to_builder()
            .rd_threshold(2 << 10)
            .wire_threshold(128 << 10)
            .pipeline_threshold(128 << 10);
        let flat = scaled.clone().pipeline_chunk(2 * CHUNK).build();
        let hier = scaled.hierarchical(true).pipeline_chunk(CHUNK).build();
        let whole = 10 * CHUNK as usize / 4;
        for wf in [
            WireFormat::Bf16,
            WireFormat::Fp16,
            WireFormat::TopK { k_permille: 50 },
        ] {
            for algo in [
                AllreduceAlgorithm::Ring,
                AllreduceAlgorithm::RecursiveDoubling,
                AllreduceAlgorithm::TwoLevel,
                AllreduceAlgorithm::PipelinedRing,
            ] {
                for cfg in [flat.clone(), hier.clone()] {
                    for elems in [whole - 1, whole, whole + 1] {
                        let topo = ClusterTopology::lassen(2);
                        let t_real = MpiWorld::run(&topo, cfg.clone(), move |c| {
                            let mut buf: Vec<f32> =
                                (0..elems).map(|i| (i % 97) as f32 * 0.3 - 11.0).collect();
                            Allreduce::new(&mut buf)
                                .buf_id(1)
                                .algo(algo)
                                .wire(wf)
                                .run(c);
                            c.now()
                        })
                        .makespan();
                        let t_synth = MpiWorld::run(&topo, cfg.clone(), move |c| {
                            allreduce_elems_wire(c, elems, 1, algo, wf);
                            c.now()
                        })
                        .makespan();
                        let rel = (t_real - t_synth).abs() / t_real;
                        assert!(
                            rel < 1e-9,
                            "{wf} {algo:?}, {elems} elems: real {t_real} vs synthetic {t_synth} \
                             (rel {rel})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn synthetic_bcast_times_match_real() {
        let topo = ClusterTopology::lassen(2);
        let elems = 1_000_000usize;
        let t_real = MpiWorld::run(&topo, MpiConfig::mpi_opt(), move |c| {
            let mut buf = vec![1.0f32; elems];
            bcast(c, &mut buf, 0, 1);
            c.now()
        })
        .makespan();
        let t_synth = MpiWorld::run(&topo, MpiConfig::mpi_opt(), move |c| {
            bcast_elems(c, elems, 0, 1);
            c.now()
        })
        .makespan();
        assert!(((t_real - t_synth) / t_real).abs() < 1e-9);
    }

    #[test]
    fn scales_to_512_synthetic_ranks() {
        // The reason this module exists: a 512-rank allreduce of a 10 MB
        // gradient runs in milliseconds of wall time and bytes of memory.
        let topo = ClusterTopology::lassen(128);
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
            allreduce_elems(c, 2_500_000, 1, AllreduceAlgorithm::TwoLevel);
            c.now()
        });
        assert_eq!(res.ranks.len(), 512);
        assert!(res.makespan() > 0.0);
    }
}
