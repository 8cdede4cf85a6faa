//! Collective operations.
//!
//! All collectives operate on real `f32` buffers: results are bit-exact and
//! property-tested against sequential reductions. Timing falls out of the
//! p2p layer's virtual clocks.

mod allgather;
mod allreduce;
mod barrier;
mod bcast;
mod rooted;
pub mod synthetic;
pub mod tasks;
pub mod wire;

pub use allgather::allgather;
pub use allreduce::{Allreduce, AllreduceAlgorithm, CollectiveBuf};
pub use barrier::barrier;
pub use bcast::bcast;
pub use rooted::{gather, reduce, scatter};
pub use wire::{WireFormat, DEFAULT_TOPK_PERMILLE};

/// Reduction operator (`MPI_Op`). Gradient averaging uses [`ReduceOp::Sum`];
/// Max/Min serve metric aggregation (e.g. slowest-rank step time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceOp {
    /// Elementwise sum (`MPI_SUM`).
    #[default]
    Sum,
    /// Elementwise maximum (`MPI_MAX`).
    Max,
    /// Elementwise minimum (`MPI_MIN`).
    Min,
}

impl ReduceOp {
    /// Short label, as recorded in collective verify signatures.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }

    /// Combine `other` into `acc` elementwise.
    pub fn combine(self, acc: &mut [f32], other: &[f32]) {
        debug_assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a += b;
                }
            }
            ReduceOp::Max => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a = a.max(b);
                }
            }
            ReduceOp::Min => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a = a.min(b);
                }
            }
        }
    }
}

/// Tag namespace reserved for collective traffic.
pub(crate) const COLL_TAG_BASE: u64 = 1 << 62;

/// Compose a unique tag from a collective sequence number and a step index.
///
/// The step field is 32 bits wide so pipelined collectives can encode a
/// (phase step, chunk index) pair without colliding across sequence numbers.
pub(crate) fn coll_tag(seq: u64, step: u64) -> u64 {
    debug_assert!(step < (1 << 32));
    COLL_TAG_BASE | (seq << 32) | step
}

/// Chunk boundaries splitting `len` elements into `parts` ranges.
pub(crate) fn chunk_range(len: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    let start = i * len / parts;
    let end = (i + 1) * len / parts;
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_exactly() {
        for len in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 3, 4, 8] {
                let mut total = 0;
                let mut prev_end = 0;
                for i in 0..parts {
                    let r = chunk_range(len, parts, i);
                    assert_eq!(r.start, prev_end);
                    prev_end = r.end;
                    total += r.len();
                }
                assert_eq!(total, len);
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn tags_are_unique_per_seq_step() {
        assert_ne!(coll_tag(1, 0), coll_tag(1, 1));
        assert_ne!(coll_tag(1, 0), coll_tag(2, 0));
        assert!(coll_tag(1, 0) >= COLL_TAG_BASE);
    }

    #[test]
    fn reduce_ops_combine() {
        let mut a = vec![1.0, 2.0];
        ReduceOp::Sum.combine(&mut a, &[0.5, 0.5]);
        assert_eq!(a, vec![1.5, 2.5]);
        let mut b = vec![1.0, 5.0];
        ReduceOp::Max.combine(&mut b, &[3.0, 2.0]);
        assert_eq!(b, vec![3.0, 5.0]);
        let mut c = vec![1.0, 5.0];
        ReduceOp::Min.combine(&mut c, &[3.0, 2.0]);
        assert_eq!(c, vec![1.0, 2.0]);
    }
}
