//! `MPI_Allreduce` — the collective that dominates data-parallel DNN
//! training (gradient averaging, §II-C). Four algorithms:
//!
//! - **Ring** (reduce-scatter + allgather): bandwidth-optimal,
//!   `2·(p−1)/p·n` bytes per rank,
//! - **Recursive doubling**: latency-optimal for small messages
//!   (power-of-two worlds; falls back to ring otherwise),
//! - **Two-level** (MVAPICH2-GDR's dense-GPU design): flat intra-node
//!   reduce to a node leader over NVLink/staged paths, ring allreduce among
//!   leaders over InfiniBand, intra-node broadcast. This is the algorithm
//!   whose intra-node phases the paper's CUDA IPC fix accelerates. With
//!   [`crate::config::CommTuning::hierarchical`] on, its inter-node leader
//!   ring is itself pipelined and wire-compressed on the large size bins.
//! - **Pipelined ring**: the ring schedule with every block streamed in
//!   `pipeline_chunk`-byte sub-chunks over nonblocking p2p, so the GPU
//!   reduce of sub-chunk *i* overlaps the wire transfer of sub-chunk *i+1*
//!   and only one sub-chunk reduction per step stays exposed. Bitwise
//!   identical to **Ring** (same per-element combine order).
//!
//! Entry point is the [`Allreduce`] request builder: a buffer — real `f32`
//! data, or a costs-only element count ([`CollectiveBuf::costs_only`]) —
//! then `.op(..)`, `.algo(..)`, `.wire(..)`, `.group(..)` as needed, then
//! `.run(comm)` to reduce in place, or `.task(comm)` for the [`Task`] a
//! [`RankProgram`](crate::RankProgram) yields. Unset algorithm/wire fall
//! back to the size-binned selection ([`crate::MpiConfig::select_comm`]),
//! mirroring the paper's message-size tuning. [`WireFormat`]s other than
//! f32 compress what goes on the wire while keeping accumulation in f32;
//! each algorithm re-quantizes at a single, documented point so every rank
//! still lands on bit-identical results (`docs/WIRE.md`). Each schedule
//! exists once, as a state machine in [`super::tasks`] that both kinds of
//! buffer run; this module resolves a request into that task.

use crate::comm::Comm;
use crate::config::CommChoice;
use crate::executor::{drive_task, Task};

use super::tasks::{AllreduceTask, CostsOnly, RealData};
use super::wire::WireFormat;
use super::ReduceOp;

/// Allreduce algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgorithm {
    /// Bandwidth-optimal ring.
    Ring,
    /// Latency-optimal recursive doubling (power-of-two worlds).
    RecursiveDoubling,
    /// Hierarchical: intra-node flat reduce + inter-node ring + bcast.
    TwoLevel,
    /// Ring with chunked, pipelined blocks (nonblocking p2p; reduce of one
    /// sub-chunk overlaps the transfer of the next).
    PipelinedRing,
}

impl AllreduceAlgorithm {
    /// Every algorithm, for sweeps and CLI help.
    pub const ALL: [AllreduceAlgorithm; 4] = [
        AllreduceAlgorithm::Ring,
        AllreduceAlgorithm::RecursiveDoubling,
        AllreduceAlgorithm::TwoLevel,
        AllreduceAlgorithm::PipelinedRing,
    ];

    /// Short label — matches the names recorded in collective verify
    /// signatures.
    pub fn label(self) -> &'static str {
        match self {
            AllreduceAlgorithm::Ring => "ring",
            AllreduceAlgorithm::RecursiveDoubling => "rd",
            AllreduceAlgorithm::TwoLevel => "two-level",
            AllreduceAlgorithm::PipelinedRing => "pipelined-ring",
        }
    }
}

impl std::fmt::Display for AllreduceAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for AllreduceAlgorithm {
    type Err = String;

    /// Case-insensitive, with the obvious aliases.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ring" => Ok(AllreduceAlgorithm::Ring),
            "rd" | "recursive-doubling" => Ok(AllreduceAlgorithm::RecursiveDoubling),
            "two-level" | "twolevel" | "hierarchical" => Ok(AllreduceAlgorithm::TwoLevel),
            "pipelined-ring" | "pipelined" | "pr" => Ok(AllreduceAlgorithm::PipelinedRing),
            _ => Err(format!(
                "unknown allreduce algorithm `{s}` (expected one of: ring, rd, \
                 two-level, pipelined-ring)"
            )),
        }
    }
}

/// A typed view of a collective's data buffer: the collective layer asks
/// it for element count, dtype and byte size instead of hardwiring
/// `len * 4` everywhere. f32 is the only gradient dtype today; the struct
/// is the seam where further dtypes land. The buffer is real data, reduced
/// in place, or costs-only ([`CollectiveBuf::costs_only`]).
#[derive(Debug)]
pub struct CollectiveBuf<'a> {
    data: Data<'a>,
}

#[derive(Debug)]
enum Data<'a> {
    Real(&'a mut Vec<f32>),
    CostsOnly(usize),
}

impl CollectiveBuf<'_> {
    /// A costs-only buffer of `elems` f32 elements: the allreduce runs the
    /// schedule a real buffer of that length runs — message sizes, paths,
    /// registrations, reduce charges, so every clock and statistic — and
    /// moves no data. What the at-scale harnesses reduce: 512 simulated
    /// ranks × tens of MB of gradients would exhaust host memory without
    /// changing any timing.
    pub fn costs_only(elems: usize) -> CollectiveBuf<'static> {
        CollectiveBuf {
            data: Data::CostsOnly(elems),
        }
    }

    /// Element count.
    pub fn elems(&self) -> usize {
        match &self.data {
            Data::Real(data) => data.len(),
            Data::CostsOnly(elems) => *elems,
        }
    }

    /// Element dtype, as recorded in verify signatures.
    pub fn dtype(&self) -> &'static str {
        "f32"
    }

    /// Dense in-memory size in bytes (what the size-binned selection keys
    /// on — the *wire* size depends on the chosen [`WireFormat`]).
    pub fn dense_bytes(&self) -> u64 {
        (self.elems() * std::mem::size_of::<f32>()) as u64
    }
}

impl<'a> From<&'a mut Vec<f32>> for CollectiveBuf<'a> {
    fn from(data: &'a mut Vec<f32>) -> Self {
        CollectiveBuf {
            data: Data::Real(data),
        }
    }
}

/// Allreduce request builder — the single entry point for in-place
/// allreduce across all ranks:
///
/// ```
/// use dlsr_mpi::collectives::{Allreduce, AllreduceAlgorithm, WireFormat};
/// use dlsr_mpi::{MpiConfig, MpiWorld};
/// use dlsr_net::ClusterTopology;
///
/// let topo = ClusterTopology::lassen(1);
/// let result = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |comm| {
///     let mut grads = vec![comm.rank() as f32; 8];
///     Allreduce::new(&mut grads)
///         .buf_id(1)
///         .algo(AllreduceAlgorithm::Ring)
///         .wire(WireFormat::F32)
///         .run(comm);
///     grads[0] // Σ ranks = 0+1+2+3
/// });
/// assert!(result.ranks.iter().all(|&v| v == 6.0));
/// ```
///
/// Unset knobs fall back to deterministic size-binned selection
/// ([`crate::MpiConfig::select_comm`]); [`Allreduce::run`] returns the
/// resolved [`CommChoice`], which is a pure function of the buffer size
/// and topology — every rank, and both the sequential and overlapped
/// optimizer paths, make the same choice.
#[derive(Debug)]
#[must_use = "an allreduce request does nothing until run(comm)"]
pub struct Allreduce<'a> {
    buf: CollectiveBuf<'a>,
    buf_id: u64,
    op: ReduceOp,
    algo: Option<AllreduceAlgorithm>,
    wire: Option<WireFormat>,
    group: Option<usize>,
}

impl<'a> Allreduce<'a> {
    /// Start a request over `buf` (anything convertible to a
    /// [`CollectiveBuf`]). Defaults: `buf_id` 0, [`ReduceOp::Sum`],
    /// size-binned algorithm and wire format, no group label.
    pub fn new(buf: impl Into<CollectiveBuf<'a>>) -> Self {
        Allreduce {
            buf: buf.into(),
            buf_id: 0,
            op: ReduceOp::Sum,
            algo: None,
            wire: None,
            group: None,
        }
    }

    /// Stable buffer identity for message matching (and the registration
    /// cache); concurrent collectives need distinct ids.
    pub fn buf_id(mut self, id: u64) -> Self {
        self.buf_id = id;
        self
    }

    /// Reduction operator (default [`ReduceOp::Sum`]).
    pub fn op(mut self, op: ReduceOp) -> Self {
        self.op = op;
        self
    }

    /// Pin the algorithm instead of size-binned selection.
    pub fn algo(mut self, algo: AllreduceAlgorithm) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Pin the wire format instead of size-binned selection.
    pub fn wire(mut self, wire: WireFormat) -> Self {
        self.wire = Some(wire);
        self
    }

    /// Fusion-group index carried into trace span names, so overlapped
    /// per-group (and per-chunk) spans can be told apart in the chrome
    /// timeline.
    pub fn group(mut self, g: usize) -> Self {
        self.group = Some(g);
        self
    }

    /// Execute the allreduce — in place on a real buffer; returns the
    /// resolved algorithm + wire pair.
    ///
    /// # Panics
    ///
    /// Top-k wire compression is defined for [`ReduceOp::Sum`] only
    /// (error feedback has no meaning under Max/Min).
    pub fn run(self, comm: &mut Comm) -> CommChoice {
        let (choice, mut task, home) = self.resolve(comm);
        drive_task(comm, &mut task);
        if let Some(home) = home {
            *home = task
                .into_buf()
                .expect("a real allreduce hands its buffer back");
        }
        choice
    }

    /// The allreduce as a [`Task`] for a [`RankProgram`](crate::RankProgram)
    /// to yield. A real buffer moves into the task, leaving the caller's
    /// `Vec` empty, and comes back reduced through
    /// [`RankProgram::task_done`](crate::RankProgram::task_done)
    /// ([`Task::into_buf`]).
    ///
    /// # Panics
    ///
    /// As [`Allreduce::run`].
    pub fn task(self, comm: &Comm) -> Task {
        self.resolve(comm).1
    }

    /// Resolve the algorithm and wire format and build the task; a real
    /// buffer's `Vec` comes back beside it, to take the result.
    fn resolve(self, comm: &Comm) -> (CommChoice, Task, Option<&'a mut Vec<f32>>) {
        let auto = comm
            .config()
            .select_comm(self.buf.dense_bytes(), comm.topology().nodes);
        let choice = CommChoice {
            algo: self.algo.unwrap_or(auto.algo),
            wire: self.wire.unwrap_or(auto.wire),
        };
        if matches!(choice.wire, WireFormat::TopK { .. }) {
            assert_eq!(
                self.op,
                ReduceOp::Sum,
                "top-k wire compression only supports ReduceOp::Sum"
            );
        }
        let (elems, buf_id, op, group) = (self.buf.elems(), self.buf_id, self.op, self.group);
        match self.buf.data {
            Data::Real(data) => {
                let kind = RealData::new(std::mem::take(data), op);
                let task = AllreduceTask::with_kind(kind, elems, buf_id, op, choice, group);
                (choice, task.into(), Some(data))
            }
            Data::CostsOnly(_) => {
                let task = AllreduceTask::with_kind(CostsOnly, elems, buf_id, op, choice, group);
                (choice, task.into(), None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::collectives::chunk_range;
    use crate::config::MpiConfig;
    use crate::world::MpiWorld;
    use dlsr_net::ClusterTopology;

    use super::*;

    /// Number of `chunk_elems`-sized sub-chunks covering a block of `len`
    /// elements (0 for an empty block).
    fn sub_count(len: usize, chunk_elems: usize) -> usize {
        len.div_ceil(chunk_elems)
    }

    fn run_allreduce(
        nodes: usize,
        len: usize,
        cfg: MpiConfig,
        algo: AllreduceAlgorithm,
    ) -> (Vec<Vec<f32>>, f64) {
        let topo = ClusterTopology::lassen(nodes);
        let res = MpiWorld::run(&topo, cfg, move |c| {
            // rank-dependent input: buf[i] = rank + i
            let mut buf: Vec<f32> = (0..len).map(|i| (c.rank() + i) as f32).collect();
            Allreduce::new(&mut buf).buf_id(1).algo(algo).run(c);
            buf
        });
        let makespan = res.makespan();
        (res.ranks, makespan)
    }

    fn expected(p: usize, len: usize) -> Vec<f32> {
        // Σ_r (r + i) = p·i + p(p−1)/2
        (0..len)
            .map(|i| (p * i) as f32 + (p * (p - 1) / 2) as f32)
            .collect()
    }

    #[test]
    fn all_algorithms_produce_the_sequential_sum() {
        for algo in [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::TwoLevel,
        ] {
            for nodes in [1usize, 2, 4] {
                let p = nodes * 4;
                let (results, _) = run_allreduce(nodes, 37, MpiConfig::mpi_opt(), algo);
                let want = expected(p, 37);
                for (r, got) in results.iter().enumerate() {
                    for (a, b) in got.iter().zip(want.iter()) {
                        assert!(
                            (a - b).abs() < 1e-3,
                            "{algo:?} nodes={nodes} rank={r}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn buffer_smaller_than_world_still_works() {
        let (results, _) = run_allreduce(2, 3, MpiConfig::mpi_opt(), AllreduceAlgorithm::Ring);
        let want = expected(8, 3);
        for got in &results {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn single_rank_world_is_identity() {
        let topo = ClusterTopology {
            name: "one".into(),
            nodes: 1,
            gpus_per_node: 1,
        };
        let res = MpiWorld::run(&topo, MpiConfig::default_mpi(), |c| {
            let mut buf = vec![1.0, 2.0];
            Allreduce::new(&mut buf).buf_id(1).run(c);
            buf
        });
        assert_eq!(res.ranks[0], vec![1.0, 2.0]);
    }

    #[test]
    fn mpi_opt_is_faster_than_default_for_large_messages() {
        // The core claim of the paper at the collective level: restoring
        // CUDA IPC makes large-message allreduce ≈2× faster on one node.
        let len = 8 << 20; // 32 MB
        let (_, t_default) = run_allreduce(
            1,
            len,
            MpiConfig::default_mpi(),
            AllreduceAlgorithm::TwoLevel,
        );
        let (_, t_opt) = run_allreduce(1, len, MpiConfig::mpi_opt(), AllreduceAlgorithm::TwoLevel);
        let speedup = t_default / t_opt;
        assert!(
            (1.5..3.0).contains(&speedup),
            "expected ≈2× speedup, got {speedup} ({t_default} vs {t_opt})"
        );
    }

    #[test]
    fn small_messages_see_no_ipc_benefit() {
        // Table I rows 1–2: below the IPC threshold both configs stage
        // through the host.
        let len = 1 << 10; // 4 KB
        let (_, t_default) = run_allreduce(
            1,
            len,
            MpiConfig::default_mpi(),
            AllreduceAlgorithm::TwoLevel,
        );
        let (_, t_opt) = run_allreduce(1, len, MpiConfig::mpi_opt(), AllreduceAlgorithm::TwoLevel);
        let ratio = t_default / t_opt;
        assert!(
            (0.9..1.1).contains(&ratio),
            "small-message ratio should be ≈1, got {ratio}"
        );
    }

    #[test]
    fn ring_beats_recursive_doubling_on_large_buffers() {
        let len = 4 << 20;
        let (_, t_ring) = run_allreduce(2, len, MpiConfig::mpi_opt(), AllreduceAlgorithm::Ring);
        let (_, t_rd) = run_allreduce(
            2,
            len,
            MpiConfig::mpi_opt(),
            AllreduceAlgorithm::RecursiveDoubling,
        );
        assert!(t_ring < t_rd, "ring {t_ring} vs recursive doubling {t_rd}");
    }

    /// Run an op-allreduce on a `1×gpus` world with awkward float inputs
    /// (`(rank·31 + i) · 0.1 − 1.7`: sums accumulate rounding error, so
    /// fold order is observable bitwise).
    fn run_op(
        gpus: usize,
        len: usize,
        cfg: MpiConfig,
        algo: AllreduceAlgorithm,
        op: ReduceOp,
    ) -> Vec<Vec<f32>> {
        let topo = ClusterTopology {
            name: format!("pr-{gpus}"),
            nodes: 1,
            gpus_per_node: gpus,
        };
        MpiWorld::run(&topo, cfg, move |c| {
            let mut buf: Vec<f32> = (0..len)
                .map(|i| (c.rank() * 31 + i) as f32 * 0.1 - 1.7)
                .collect();
            Allreduce::new(&mut buf).buf_id(1).algo(algo).op(op).run(c);
            buf
        })
        .ranks
    }

    /// Bitwise reference for the ring family: element `j` of block `b`
    /// accumulates as a fold starting at rank `b`'s value, combining rank
    /// `b+1, b+2, …` in ring order (the order the ring combines).
    fn ring_fold_reference(p: usize, len: usize, op: ReduceOp) -> Vec<f32> {
        let input = |rank: usize, i: usize| (rank * 31 + i) as f32 * 0.1 - 1.7;
        let mut out = vec![0.0f32; len];
        for b in 0..p {
            for j in chunk_range(len, p, b) {
                let mut acc = input(b, j);
                for k in 1..p {
                    let mut v = [acc];
                    op.combine(&mut v, &[input((b + k) % p, j)]);
                    acc = v[0];
                }
                out[j] = acc;
            }
        }
        out
    }

    /// Property grid for the chunked pipelined ring: non-divisible buffer
    /// lengths, chunk sizes larger than the buffer, single-element chunks,
    /// 1-rank worlds and every `ReduceOp` must all reproduce the plain
    /// ring — and the sequential fold reference — bitwise.
    #[test]
    fn pipelined_ring_matches_plain_ring_bitwise() {
        for &gpus in &[1usize, 2, 3, 4] {
            for &len in &[0usize, 1, 5, 37, 1000] {
                for &chunk_bytes in &[4u64, 52, 4096, 1 << 30] {
                    for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                        let mut cfg = MpiConfig::mpi_opt();
                        cfg.tuning.pipeline_chunk = chunk_bytes;
                        let plain = run_op(gpus, len, cfg.clone(), AllreduceAlgorithm::Ring, op);
                        let piped = run_op(gpus, len, cfg, AllreduceAlgorithm::PipelinedRing, op);
                        let want = if gpus == 1 {
                            (0..len).map(|i| i as f32 * 0.1 - 1.7).collect()
                        } else {
                            ring_fold_reference(gpus, len, op)
                        };
                        for r in 0..gpus {
                            assert_eq!(
                                piped[r], plain[r],
                                "pipelined != ring: p={gpus} len={len} chunk={chunk_bytes} {op:?} rank {r}"
                            );
                            assert_eq!(
                                piped[r].as_slice(),
                                want.as_slice(),
                                "pipelined != fold reference: p={gpus} len={len} chunk={chunk_bytes} {op:?} rank {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The point of pipelining: with blocks much larger than the chunk and
    /// a reduce kernel slow enough to matter, streaming sub-chunks hides
    /// most of the reduce time behind the next transfer.
    #[test]
    fn pipelined_ring_beats_plain_ring_when_reduce_is_exposed() {
        let len = 4 << 20; // 16 MB ⇒ 4 MB blocks on 4 ranks
        let mut cfg = MpiConfig::mpi_opt();
        cfg.tuning.pipeline_chunk = 1 << 20;
        cfg.reduce_bandwidth = 50.0e9;
        let (_, t_ring) = run_allreduce(1, len, cfg.clone(), AllreduceAlgorithm::Ring);
        let (_, t_piped) = run_allreduce(1, len, cfg, AllreduceAlgorithm::PipelinedRing);
        assert!(
            t_piped < t_ring,
            "pipelined {t_piped} should beat plain ring {t_ring}"
        );
    }

    #[test]
    fn auto_selection_follows_the_size_bins() {
        let topo = ClusterTopology::lassen(1);
        let chosen = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
            let mut small = vec![1.0f32; 64];
            let a_small = Allreduce::new(&mut small).buf_id(1).run(c);
            let mut mid = vec![1.0f32; 1 << 18]; // 1 MB
            let a_mid = Allreduce::new(&mut mid).buf_id(2).run(c);
            let mut big = vec![0.5f32; 4 << 20]; // 16 MB
            let a_big = Allreduce::new(&mut big).buf_id(3).run(c);
            assert_eq!(small, vec![4.0f32; 64]);
            assert_eq!(big, vec![2.0f32; 4 << 20]);
            (a_small, a_mid, a_big)
        })
        .ranks;
        for (s, m, b) in chosen {
            assert_eq!(s.algo, AllreduceAlgorithm::RecursiveDoubling);
            assert_eq!(m.algo, MpiConfig::mpi_opt().allreduce);
            assert_eq!(b.algo, AllreduceAlgorithm::PipelinedRing);
            // default tuning never compresses
            assert_eq!(s.wire, WireFormat::F32);
            assert_eq!(b.wire, WireFormat::F32);
        }
    }

    /// Run a compressed allreduce with awkward inputs on a multi-node
    /// world; return per-rank results.
    fn run_wire(
        nodes: usize,
        len: usize,
        cfg: MpiConfig,
        algo: AllreduceAlgorithm,
        wf: WireFormat,
    ) -> Vec<Vec<f32>> {
        let topo = ClusterTopology::lassen(nodes);
        MpiWorld::run(&topo, cfg, move |c| {
            let mut buf: Vec<f32> = (0..len)
                .map(|i| (c.rank() * 31 + i) as f32 * 0.1 - 1.7)
                .collect();
            Allreduce::new(&mut buf)
                .buf_id(1)
                .algo(algo)
                .wire(wf)
                .run(c);
            buf
        })
        .ranks
    }

    /// The determinism contract of `docs/WIRE.md`: under every lossy dense
    /// format and every algorithm, all ranks finish with **bit-identical**
    /// buffers, and the lossy result stays close to the exact f32 one.
    #[test]
    fn compressed_formats_agree_across_ranks_and_track_f32() {
        for wf in [WireFormat::Bf16, WireFormat::Fp16] {
            for algo in AllreduceAlgorithm::ALL {
                let results = run_wire(2, 37, MpiConfig::mpi_opt(), algo, wf);
                let exact = run_wire(2, 37, MpiConfig::mpi_opt(), algo, WireFormat::F32);
                let first = &results[0];
                for (r, got) in results.iter().enumerate() {
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{wf} {algo:?}: rank {r} diverged bitwise"
                    );
                }
                for (a, b) in first.iter().zip(exact[0].iter()) {
                    // 8 ranks, |values| ≲ 30: half precision keeps ≲1%
                    // relative error per term.
                    assert!(
                        (a - b).abs() <= 0.02 * b.abs().max(1.0),
                        "{wf} {algo:?}: {a} drifted from exact {b}"
                    );
                }
            }
        }
    }

    /// Compression must not break the pipelined ring's bitwise equivalence
    /// to the plain ring (same combine order, same re-quantization point).
    #[test]
    fn compressed_pipelined_ring_matches_compressed_ring_bitwise() {
        for &len in &[5usize, 37, 1000] {
            let mut cfg = MpiConfig::mpi_opt();
            cfg.tuning.pipeline_chunk = 52;
            let plain = run_wire(
                1,
                len,
                cfg.clone(),
                AllreduceAlgorithm::Ring,
                WireFormat::Bf16,
            );
            let piped = run_wire(
                1,
                len,
                cfg,
                AllreduceAlgorithm::PipelinedRing,
                WireFormat::Bf16,
            );
            assert_eq!(plain, piped, "len={len}");
        }
    }

    /// Hierarchical promotion only changes *timing* (pipelined leader
    /// ring), never bits: two-level with the flag on must equal two-level
    /// with it off, for lossless and lossy wire formats alike.
    #[test]
    fn hierarchical_two_level_is_bitwise_equal_to_plain_two_level() {
        for wf in [WireFormat::F32, WireFormat::Bf16] {
            let plain = run_wire(
                2,
                4096,
                MpiConfig::mpi_opt(),
                AllreduceAlgorithm::TwoLevel,
                wf,
            );
            let hier_cfg = MpiConfig::mpi_opt()
                .to_builder()
                .hierarchical(true)
                .pipeline_threshold(1 << 10) // 4096 elems = 16 KiB ⇒ pipelined
                .rd_threshold(1 << 9)
                .build();
            let hier = run_wire(2, 4096, hier_cfg, AllreduceAlgorithm::TwoLevel, wf);
            assert_eq!(plain, hier, "{wf}");
        }
    }

    /// Top-k at full density (1000‰) must reproduce the dense rank-order
    /// sum bitwise on every rank; at partial density all ranks must still
    /// agree bitwise.
    #[test]
    fn topk_is_deterministic_and_exact_at_full_density() {
        let input = |rank: usize, i: usize| (rank * 31 + i) as f32 * 0.1 - 1.7;
        let len = 37;
        let full = run_wire(
            1,
            len,
            MpiConfig::mpi_opt(),
            AllreduceAlgorithm::Ring,
            WireFormat::TopK { k_permille: 1000 },
        );
        // reference: dense accumulation in rank order 0..p
        let p = 4;
        let want: Vec<f32> = (0..len)
            .map(|i| {
                let mut acc = 0.0f32;
                for r in 0..p {
                    acc += input(r, i);
                }
                acc
            })
            .collect();
        for got in &full {
            assert_eq!(got, &want);
        }
        let sparse = run_wire(
            2,
            len,
            MpiConfig::mpi_opt(),
            AllreduceAlgorithm::Ring,
            WireFormat::TopK { k_permille: 200 },
        );
        let first = &sparse[0];
        for got in &sparse {
            assert_eq!(got, first, "top-k ranks diverged");
        }
        // partial density keeps only some coordinates: most must be zero
        let nonzero = first.iter().filter(|v| **v != 0.0).count();
        assert!(
            nonzero < len,
            "partial top-k should drop coordinates ({nonzero}/{len} kept)"
        );
        assert!(nonzero > 0, "top-k must keep at least one coordinate");
    }

    /// `mpi.wire_encodes` of each rank for one allreduce: a hop forwards
    /// what it received, so a rank encodes only the messages it originates
    /// — one on the ring and recursive doubling (re-encoding every hop was
    /// 2·(p−1) and log₂p), one per sub-chunk of its first block on the
    /// pipelined ring, one per node leader (the leader ring) on two-level.
    #[test]
    fn each_rank_encodes_only_the_messages_it_originates() {
        let topo = ClusterTopology::lassen(2); // 8 ranks, leaders 0 and 4
        let (len, chunk_elems) = (1003, 16);
        let cfg = MpiConfig::mpi_opt()
            .to_builder()
            .pipeline_chunk(4 * chunk_elems as u64)
            .build();
        for wf in [WireFormat::F32, WireFormat::Bf16] {
            for algo in AllreduceAlgorithm::ALL {
                let encodes = MpiWorld::run(&topo, cfg.clone(), move |c| {
                    let mut buf = vec![1.0f32; len];
                    let sink = dlsr_trace::TraceSink::new();
                    sink.scope(|| {
                        Allreduce::new(&mut buf)
                            .buf_id(1)
                            .algo(algo)
                            .wire(wf)
                            .run(c)
                    });
                    let counters = sink.counters();
                    counters
                        .get(dlsr_trace::report::keys::WIRE_ENCODES)
                        .copied()
                        .unwrap_or(0.0)
                })
                .ranks;
                for (rank, &n) in encodes.iter().enumerate() {
                    let want = match algo {
                        AllreduceAlgorithm::Ring | AllreduceAlgorithm::RecursiveDoubling => 1,
                        AllreduceAlgorithm::PipelinedRing => {
                            sub_count(chunk_range(len, 8, rank).len(), chunk_elems)
                        }
                        AllreduceAlgorithm::TwoLevel => usize::from(rank % 4 == 0),
                    };
                    assert_eq!(n, want as f64, "{algo:?} {wf} rank {rank}");
                }
            }
        }
    }

    /// Recursive-doubling partners evaluate one expression, the lower
    /// rank's operand first: exchanging `[+0, NaN(1)]` with `[-0, NaN(2)]`
    /// used to leave rank 0 with `[+0, NaN(2)]` and rank 1 with
    /// `[-0, NaN(1)]` under Max and Min (and different NaNs under Sum).
    #[test]
    fn recursive_doubling_partners_agree_on_signed_zeros_and_nan_payloads() {
        let topo = ClusterTopology {
            name: "pair".into(),
            nodes: 1,
            gpus_per_node: 2,
        };
        let inputs = [
            [0.0, f32::from_bits(0x7fc0_0001)],
            [-0.0, f32::from_bits(0x7fc0_0002)],
        ];
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            for algo in [
                AllreduceAlgorithm::RecursiveDoubling,
                AllreduceAlgorithm::Ring,
            ] {
                let ranks = MpiWorld::run(&topo, MpiConfig::mpi_opt(), move |c| {
                    let mut buf = inputs[c.rank()].to_vec();
                    Allreduce::new(&mut buf)
                        .buf_id(1)
                        .algo(algo)
                        .wire(WireFormat::F32)
                        .op(op)
                        .run(c);
                    buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                })
                .ranks;
                assert_eq!(ranks[0], ranks[1], "{algo:?} {op:?}: ranks diverged");
                if algo == AllreduceAlgorithm::RecursiveDoubling {
                    let lower_first =
                        (0..2).map(|i| op.apply(inputs[0][i], inputs[1][i]).to_bits());
                    assert_eq!(ranks[0], lower_first.collect::<Vec<_>>(), "{op:?}");
                }
            }
        }
    }

    #[test]
    fn algorithm_display_and_from_str_round_trip() {
        for algo in AllreduceAlgorithm::ALL {
            assert_eq!(algo.to_string().parse::<AllreduceAlgorithm>(), Ok(algo));
        }
        assert_eq!(
            "Pipelined".parse::<AllreduceAlgorithm>(),
            Ok(AllreduceAlgorithm::PipelinedRing)
        );
        let err = "tree".parse::<AllreduceAlgorithm>().unwrap_err();
        assert!(err.contains("unknown allreduce algorithm `tree`"), "{err}");
    }
}
