//! Collective operations.
//!
//! A collective runs on a real `f32` buffer — results are bit-exact and
//! property-tested against sequential reductions — or, for the allreduce,
//! on a costs-only one ([`CollectiveBuf::costs_only`]) that runs the same
//! schedule without moving data. Timing falls out of the p2p layer's
//! virtual clocks either way. Every allreduce algorithm is one state
//! machine in [`tasks`], whichever the buffer.

mod allreduce;
mod barrier;
mod bcast;
pub mod tasks;
pub mod wire;

pub use allreduce::{Allreduce, AllreduceAlgorithm, CollectiveBuf};
pub use barrier::barrier;
pub use bcast::bcast;
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

    /// Combine `other` into `acc` elementwise: `acc[i] = acc[i] op other[i]`.
    pub fn combine(self, acc: &mut [f32], other: &[f32]) {
        debug_assert_eq!(acc.len(), other.len());
        // one loop per op, so each vectorizes
        match self {
            ReduceOp::Sum => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a = ReduceOp::Sum.apply(*a, b);
                }
            }
            ReduceOp::Max => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a = ReduceOp::Max.apply(*a, b);
                }
            }
            ReduceOp::Min => {
                for (a, &b) in acc.iter_mut().zip(other) {
                    *a = ReduceOp::Min.apply(*a, b);
                }
            }
        }
    }

    /// `l op h` for one element, with the bits IEEE 754 leaves open pinned
    /// down, so they cannot depend on which operand the compiler happens to
    /// put first (it treats `+`, `max` and `min` as commutative; the
    /// hardware does not, on NaN payloads and signed zeros): a sum with a
    /// NaN operand is that NaN quieted, `l`'s when both are NaN (a single
    /// NaN operand propagates through `+` in either order); `max` and `min`
    /// return the number when one operand is NaN, `l` when both are, and
    /// `h` when the two compare equal (`+0` vs `-0`). Not commutative
    /// bitwise — callers that must agree across ranks evaluate it with the
    /// same operand order.
    #[inline(always)]
    pub(crate) fn apply(self, l: f32, h: f32) -> f32 {
        match self {
            ReduceOp::Sum if l.is_nan() => f32::from_bits(l.to_bits() | 0x0040_0000),
            ReduceOp::Sum => l + h,
            ReduceOp::Max if l > h || h.is_nan() => l,
            ReduceOp::Min if l < h || h.is_nan() => l,
            ReduceOp::Max | ReduceOp::Min => h,
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

    #[test]
    fn apply_pins_nan_payloads_and_signed_zeros() {
        let bits =
            |op: ReduceOp, l: u32, h: u32| op.apply(f32::from_bits(l), f32::from_bits(h)).to_bits();
        let (pz, nz, one) = (0x0000_0000, 0x8000_0000, 1.0f32.to_bits());
        let (nan1, snan2) = (0x7fc0_0001, 0xffa0_0002);
        let inf = f32::INFINITY.to_bits();
        // sums: the first NaN operand, quieted; zeros as IEEE rounds them
        assert_eq!(bits(ReduceOp::Sum, nan1, snan2), nan1);
        assert_eq!(bits(ReduceOp::Sum, snan2, nan1), 0xffe0_0002);
        assert_eq!(bits(ReduceOp::Sum, one, snan2), 0xffe0_0002);
        assert!(f32::from_bits(bits(ReduceOp::Sum, inf, inf | nz)).is_nan());
        assert_eq!(bits(ReduceOp::Sum, pz, nz), pz);
        for op in [ReduceOp::Max, ReduceOp::Min] {
            // max/min: the number beside a NaN, the first of two NaNs, the
            // second of two equal zeros
            assert_eq!(bits(op, nan1, one), one, "{op:?}");
            assert_eq!(bits(op, one, snan2), one, "{op:?}");
            assert_eq!(bits(op, nan1, snan2), nan1, "{op:?}");
            assert_eq!(bits(op, pz, nz), nz, "{op:?}");
            assert_eq!(bits(op, nz, pz), pz, "{op:?}");
        }
        // the slice form evaluates the same scalar
        let mut acc = [f32::from_bits(nan1), -0.0];
        ReduceOp::Max.combine(&mut acc, &[f32::from_bits(snan2), 0.0]);
        assert_eq!([acc[0].to_bits(), acc[1].to_bits()], [nan1, pz]);
    }
}

/// The costs-only ("synthetic") allreduce against the real one: the same
/// schedule, so the same makespan to the bit.
#[cfg(test)]
mod synthetic {
    mod tests {
        use crate::collectives::{Allreduce, AllreduceAlgorithm, CollectiveBuf, WireFormat};
        use crate::config::{MpiConfig, MpiConfigBuilder};
        use crate::world::MpiWorld;
        use dlsr_net::ClusterTopology;

        /// Makespan of one allreduce of `elems` elements on `nodes` Lassen
        /// nodes, of a real buffer or a costs-only one.
        fn makespan(
            nodes: usize,
            cfg: &MpiConfig,
            algo: AllreduceAlgorithm,
            wf: WireFormat,
            elems: usize,
            real: bool,
        ) -> f64 {
            let topo = ClusterTopology::lassen(nodes);
            MpiWorld::run(&topo, cfg.clone(), move |c| {
                let mut buf: Vec<f32> = (0..elems).map(|i| (i % 97) as f32 * 0.3 - 11.0).collect();
                let req = if real {
                    Allreduce::new(&mut buf)
                } else {
                    Allreduce::new(CollectiveBuf::costs_only(elems))
                };
                req.buf_id(1).algo(algo).wire(wf).run(c);
                c.now()
            })
            .makespan()
        }

        fn assert_kinds_agree(
            nodes: usize,
            cfg: &MpiConfig,
            algo: AllreduceAlgorithm,
            wf: WireFormat,
            elems: usize,
        ) {
            let t_real = makespan(nodes, cfg, algo, wf, elems, true);
            let t_synth = makespan(nodes, cfg, algo, wf, elems, false);
            assert_eq!(
                t_real.to_bits(),
                t_synth.to_bits(),
                "{wf} {algo:?}, {elems} elems: real {t_real} vs costs-only {t_synth}"
            );
        }

        /// The defining property: costs-only timing == real timing.
        #[test]
        fn synthetic_allreduce_times_match_real() {
            // pipeline_chunk 1 MB ⇒ the 20 MB buffer's ring blocks split into
            // multiple sub-chunks, exercising the pipelined schedule fully
            let mut opt_chunked = MpiConfig::mpi_opt();
            opt_chunked.tuning.pipeline_chunk = 1 << 20;
            for algo in AllreduceAlgorithm::ALL {
                for cfg in [
                    MpiConfig::default_mpi(),
                    MpiConfig::mpi_opt(),
                    opt_chunked.clone(),
                ] {
                    // 20 MB — exercises the IPC threshold
                    assert_kinds_agree(2, &cfg, algo, WireFormat::F32, 5_000_000);
                }
            }
        }

        /// The same property where chunks are uneven: element counts that do
        /// not divide by the ring size, on a 3-node world (12-rank flat rings,
        /// a 3-leader ring).
        #[test]
        fn synthetic_allreduce_times_match_real_on_uneven_chunks() {
            let mut chunked = MpiConfig::mpi_opt();
            chunked.tuning.pipeline_chunk = 16 << 10;
            for elems in [100_003usize, 7] {
                for algo in [
                    AllreduceAlgorithm::Ring,
                    AllreduceAlgorithm::TwoLevel,
                    AllreduceAlgorithm::PipelinedRing,
                ] {
                    assert_kinds_agree(3, &chunked, algo, WireFormat::F32, elems);
                }
            }
        }

        /// Wire compression preserves the timing equivalence for every
        /// format × algorithm, including hierarchical promotion and top-k.
        ///
        /// Size bins scaled down 64×, so a ~320 KB payload sits where 20 MB
        /// does under the defaults (one sub-chunk per ring block on `flat`,
        /// several on `hier`'s pipelined leader ring, each a rendezvous even
        /// as bf16), one element either side of a whole number of sub-chunks.
        #[test]
        fn synthetic_wire_allreduce_times_match_real() {
            const CHUNK: u64 = 32 << 10;
            let scaled: MpiConfigBuilder = MpiConfig::mpi_opt()
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
                for algo in AllreduceAlgorithm::ALL {
                    for cfg in [&flat, &hier] {
                        for elems in [whole - 1, whole, whole + 1] {
                            assert_kinds_agree(2, cfg, algo, wf, elems);
                        }
                    }
                }
            }
        }
    }
}
