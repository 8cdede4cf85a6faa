//! Property-based tests for the MPI layer: collective correctness over
//! random worlds, buffer sizes and configurations.

use proptest::prelude::*;

use dlsr_mpi::collectives::{barrier, bcast, Allreduce, AllreduceAlgorithm, ReduceOp, WireFormat};
use dlsr_mpi::{CollectiveBuf, CommStats, MpiConfig, MpiConfigBuilder, MpiWorld, Payload};
use dlsr_net::{ClusterTopology, RegCacheStats};

fn topo(nodes: usize, gpn: usize) -> ClusterTopology {
    ClusterTopology {
        name: format!("t{nodes}x{gpn}"),
        nodes,
        gpus_per_node: gpn,
    }
}

/// Values at every dense wire format's edges: signed zeros, infinities,
/// NaNs of either sign with any payload (quiet or signaling), f32
/// subnormals, fp16 subnormals and the ties between them, exact bf16 and
/// fp16 round-to-nearest-even ties, and ordinary numbers.
fn edge_value() -> impl Strategy<Value = f32> {
    (0u32..10, 0u32..=u32::MAX).prop_map(|(kind, r)| {
        let sign = r & 0x8000_0000;
        let mantissa = (r & 0x7f_ffff).max(1);
        let bits = match kind {
            0 => sign,
            1 => sign | 0x7f80_0000,
            2 => sign | 0x7f80_0000 | mantissa, // NaN, quiet or signaling
            3 => sign | mantissa,               // f32 subnormal
            // k · 2^-25: fp16 subnormals (even k) and the ties between them
            4 => return ((r % 4095) as i32 - 2047) as f32 * 2.0f32.powi(-25),
            // bf16 ties: the 16 dropped bits are exactly one half
            5 => sign | (r & 0x7fff_0000).min(0x7f7f_0000) | 0x8000,
            // fp16 ties: a normal half's 13 dropped bits are exactly one half
            6 => sign | (113 + r % 30) << 23 | (r >> 8 & 0x3ff) << 13 | 0x1000,
            _ => return (r as f32 / u32::MAX as f32 - 0.5) * 2.0e3,
        };
        f32::from_bits(bits)
    })
}

fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What the ring computes, element by element, in any dense format:
/// block `b` (the ring's `b·len/p .. (b+1)·len/p`) starts as rank `b`'s
/// value and travels right on the wire; rank `b+k` folds its own value
/// with the decoded message, `own op Q(v)`; the owner re-quantizes the
/// fully reduced value once, and the allgather delivers that to every
/// rank unchanged. `Q` is the format's projection (`WireFormat::quantize`,
/// the identity for f32). A one-rank world returns its input.
fn ring_reference(
    p: usize,
    len: usize,
    op: ReduceOp,
    wf: WireFormat,
    input: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    if p == 1 {
        return (0..len).map(|i| input(0, i)).collect();
    }
    let q = |v: f32| {
        let mut t = [v];
        wf.quantize(&mut t);
        t[0]
    };
    let mut out = Vec::with_capacity(len);
    for b in 0..p {
        out.extend((b * len / p..(b + 1) * len / p).map(|j| {
            let mut v = input(b, j);
            for k in 1..p {
                let mut own = [input((b + k) % p, j)];
                op.combine(&mut own, &[q(v)]);
                v = own[0];
            }
            q(v)
        }));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bitwise contract of docs/WIRE.md for every dense wire format and
    /// reduce op, on inputs full of edge values: every algorithm leaves
    /// every rank with identical bits (NaN payloads and signed zeros
    /// included), and the ring and the pipelined ring, at any sub-chunk
    /// size, equal the sequential reference bit for bit.
    #[test]
    fn every_wire_format_is_rank_invariant_and_rings_match_the_reference(
        nodes in 1usize..4,
        gpn in 1usize..5,
        len in 0usize..300,
        chunk_pick in 0usize..300,
        wf_idx in 0usize..3,
        op_idx in 0usize..3,
        pool in proptest::collection::vec(edge_value(), 1..64),
    ) {
        let wf = [WireFormat::F32, WireFormat::Bf16, WireFormat::Fp16][wf_idx];
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op_idx];
        let t = topo(nodes, gpn);
        let p = t.total_gpus();
        let chunk = 1 + chunk_pick % len.max(1);
        let input = move |rank: usize, i: usize| pool[(rank * 7919 + i) % pool.len()];
        let flat = MpiConfig::mpi_opt().to_builder().pipeline_chunk(4 * chunk as u64).build();
        // hierarchical two-level with the leader ring pipelined at any size
        let hier = flat
            .clone()
            .to_builder()
            .hierarchical(true)
            .rd_threshold(0)
            .pipeline_threshold(1)
            .build();
        let runs = [
            (AllreduceAlgorithm::Ring, &flat),
            (AllreduceAlgorithm::PipelinedRing, &flat),
            (AllreduceAlgorithm::RecursiveDoubling, &flat),
            (AllreduceAlgorithm::TwoLevel, &flat),
            (AllreduceAlgorithm::TwoLevel, &hier),
        ];
        let want = to_bits(&ring_reference(p, len, op, wf, &input));
        for (algo, cfg) in runs {
            let input = input.clone();
            let ranks = MpiWorld::run(&t, cfg.clone(), move |c| {
                let mut buf: Vec<f32> = (0..len).map(|i| input(c.rank(), i)).collect();
                Allreduce::new(&mut buf).buf_id(1).algo(algo).wire(wf).op(op).run(c);
                to_bits(&buf)
            })
            .ranks;
            let hierarchical = cfg.tuning.hierarchical;
            for (rank, got) in ranks.iter().enumerate() {
                prop_assert_eq!(
                    got, &ranks[0],
                    "{:?} (hierarchical {}) {} {:?}: rank {} differs from rank 0",
                    algo, hierarchical, wf, op, rank
                );
            }
            if matches!(algo, AllreduceAlgorithm::Ring | AllreduceAlgorithm::PipelinedRing) {
                prop_assert_eq!(
                    &ranks[0], &want,
                    "{:?} {} {:?} chunk {}: not the sequential reference", algo, wf, op, chunk
                );
            }
        }
    }
}

proptest! {
    // world launches are threads; keep case counts moderate
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Allreduce equals the sequential sum for every algorithm, any world
    /// shape and any (small) buffer length — including lengths smaller
    /// than, equal to, and larger than the world.
    #[test]
    fn allreduce_equals_sequential_sum(
        nodes in 1usize..4,
        gpn in 1usize..5,
        len in 0usize..70,
        algo_idx in 0usize..3,
        opt in proptest::bool::ANY,
    ) {
        let algo = [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::TwoLevel,
        ][algo_idx];
        let t = topo(nodes, gpn);
        let p = t.total_gpus();
        let cfg = if opt { MpiConfig::mpi_opt() } else { MpiConfig::default_mpi() };
        let res = MpiWorld::run(&t, cfg, move |c| {
            let mut buf: Vec<f32> =
                (0..len).map(|i| ((c.rank() * 13 + i * 7) % 23) as f32).collect();
            Allreduce::new(&mut buf).buf_id(1).algo(algo).run(c);
            buf
        });
        let want: Vec<f32> = (0..len)
            .map(|i| (0..p).map(|r| ((r * 13 + i * 7) % 23) as f32).sum())
            .collect();
        for (rank, got) in res.ranks.iter().enumerate() {
            prop_assert_eq!(got, &want, "algo {:?} rank {} world {}x{}", algo, rank, nodes, gpn);
        }
    }

    /// Bcast delivers the root's exact buffer to every rank, for any root.
    #[test]
    fn bcast_delivers_everywhere(
        nodes in 1usize..3,
        gpn in 1usize..5,
        len in 1usize..40,
        root_pick in 0usize..64,
    ) {
        let t = topo(nodes, gpn);
        let root = root_pick % t.total_gpus();
        let res = MpiWorld::run(&t, MpiConfig::mpi_opt(), move |c| {
            let mut buf = if c.rank() == root {
                (0..len).map(|i| (i * i) as f32).collect()
            } else {
                vec![-1.0; len]
            };
            bcast(c, &mut buf, root, 1);
            buf
        });
        let want: Vec<f32> = (0..len).map(|i| (i * i) as f32).collect();
        for got in &res.ranks {
            prop_assert_eq!(got, &want);
        }
    }

    /// Clocks never decrease across a sequence of collectives, and a
    /// barrier bounds every rank's clock from below by every other rank's
    /// pre-barrier time.
    #[test]
    fn clocks_are_monotone_and_barrier_synchronizes(
        gpn in 2usize..5,
        work_rank_pick in 0usize..8,
        work_ms in 1u32..50,
    ) {
        let t = topo(1, gpn);
        let slow = work_rank_pick % gpn;
        let work = work_ms as f64 * 1e-3;
        let res = MpiWorld::run(&t, MpiConfig::default_mpi(), move |c| {
            let t0 = c.now();
            if c.rank() == slow {
                c.advance(work);
            }
            barrier(c);
            let t1 = c.now();
            let mut buf = vec![1.0f32; 64];
            Allreduce::new(&mut buf).buf_id(1).algo(AllreduceAlgorithm::Ring).run(c);
            let t2 = c.now();
            (t0, t1, t2)
        });
        for &(t0, t1, t2) in &res.ranks {
            prop_assert!(t0 <= t1 && t1 <= t2);
            prop_assert!(t1 >= work, "barrier must wait for the slow rank");
        }
    }

    /// Costs-only collectives cost exactly what the real ones cost.
    #[test]
    fn synthetic_equals_real_time(
        nodes in 1usize..3,
        elems in 1usize..200_000,
        algo_idx in 0usize..3,
    ) {
        let algo = [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::TwoLevel,
        ][algo_idx];
        let t = topo(nodes, 4);
        let real = MpiWorld::run(&t, MpiConfig::mpi_opt(), move |c| {
            let mut buf = vec![1.0f32; elems];
            Allreduce::new(&mut buf).buf_id(1).algo(algo).run(c);
            c.now()
        })
        .makespan();
        let synth = MpiWorld::run(&t, MpiConfig::mpi_opt(), move |c| {
            Allreduce::new(CollectiveBuf::costs_only(elems)).buf_id(1).algo(algo).run(c);
            c.now()
        })
        .makespan();
        prop_assert_eq!(real.to_bits(), synth.to_bits(), "{} vs {}", real, synth);
    }

    /// Max/Min allreduce compute the true elementwise extremum across
    /// ranks for every algorithm.
    #[test]
    fn allreduce_extrema_ops(
        nodes in 1usize..3,
        len in 1usize..40,
        algo_idx in 0usize..3,
        use_max in proptest::bool::ANY,
    ) {
        let algo = [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::TwoLevel,
        ][algo_idx];
        let op = if use_max { ReduceOp::Max } else { ReduceOp::Min };
        let t = topo(nodes, 4);
        let p = t.total_gpus();
        let res = MpiWorld::run(&t, MpiConfig::mpi_opt(), move |c| {
            let mut buf: Vec<f32> =
                (0..len).map(|i| ((c.rank() * 31 + i * 11) % 29) as f32 - 14.0).collect();
            Allreduce::new(&mut buf).buf_id(1).algo(algo).op(op).run(c);
            buf
        });
        let want: Vec<f32> = (0..len)
            .map(|i| {
                let vals = (0..p).map(|r| ((r * 31 + i * 11) % 29) as f32 - 14.0);
                if use_max {
                    vals.fold(f32::NEG_INFINITY, f32::max)
                } else {
                    vals.fold(f32::INFINITY, f32::min)
                }
            })
            .collect();
        for got in &res.ranks {
            prop_assert_eq!(got, &want);
        }
    }

    /// Point-to-point messages preserve payloads exactly.
    #[test]
    fn p2p_payload_integrity(data in proptest::collection::vec(-1e6f32..1e6, 0..64)) {
        let t = topo(1, 2);
        let expected = data.clone();
        let res = MpiWorld::run(&t, MpiConfig::default_mpi(), move |c| {
            if c.rank() == 0 {
                c.send(1, 5, Payload::F32(data.clone()), 1);
                Vec::new()
            } else {
                c.recv(0, 5, 2).into_f32()
            }
        });
        prop_assert_eq!(&res.ranks[1], &expected);
    }
}

/// `cfg` with every size the transport and the size bins key on divided
/// by 2048: buffers of ~10⁴ elements then cross the thresholds tens of MB
/// cross under the defaults — eager and rendezvous, staged and NVLink,
/// flat and pipelined, whole blocks and sub-chunks.
fn scaled(cfg: MpiConfig) -> MpiConfigBuilder {
    const S: u64 = 2048;
    let (mut transport, tuning) = (cfg.transport.clone(), cfg.tuning);
    transport.eager_threshold /= S;
    transport.ipc_large_threshold /= S;
    cfg.to_builder()
        .transport(transport)
        .pipeline_chunk(tuning.pipeline_chunk / S)
        .pipeline_threshold(tuning.pipeline_threshold / S)
        .rd_threshold(tuning.rd_threshold / S)
        .wire_threshold(tuning.wire_threshold / S)
}

/// `cfg`, then `cfg` under the `Lossy` and `DegradedLink` plans of a
/// `world`-rank job.
fn with_fault_plans(cfg: MpiConfig, world: usize) -> Vec<MpiConfig> {
    let planned = [
        dlsr_faults::ChaosScenario::Lossy,
        dlsr_faults::ChaosScenario::DegradedLink,
    ]
    .map(|scenario| {
        let plan = std::sync::Arc::new(scenario.plan(2021, world, 2));
        cfg.clone().to_builder().fault_plan(Some(plan)).build()
    });
    std::iter::once(cfg).chain(planned).collect()
}

/// Every rank's clock bits, `CommStats` and `RegCacheStats` after two
/// allreduces of `elems` elements (the second on warm caches), of a real
/// buffer or a costs-only one.
fn communicators(
    topo: &ClusterTopology,
    cfg: &MpiConfig,
    algo: AllreduceAlgorithm,
    wf: WireFormat,
    elems: usize,
    real: bool,
) -> Vec<(u64, CommStats, RegCacheStats)> {
    MpiWorld::run(topo, cfg.clone(), move |c| {
        for _round in 0..2 {
            let mut buf: Vec<f32> = (0..elems)
                .map(|i| ((c.rank() * 13 + i) % 97) as f32 * 0.3 - 11.0)
                .collect();
            let req = if real {
                Allreduce::new(&mut buf)
            } else {
                Allreduce::new(CollectiveBuf::costs_only(elems))
            };
            req.buf_id(1).algo(algo).wire(wf).run(c);
        }
        (c.now().to_bits(), c.stats().clone(), c.regcache_stats())
    })
    .ranks
}

/// One schedule, two payload kinds: a real buffer and a costs-only one of
/// the same length leave every rank's communicator bit-identical — clock,
/// `CommStats`, `RegCacheStats` — cold and then warm, over 1–3 nodes; the
/// default, MPI-Opt, finely chunked and hierarchical configs (size bins
/// scaled, see [`scaled`]); every algorithm; f32 on a tiny uneven length
/// and one element either side of a whole number of sub-chunks per ring
/// block, and bf16, fp16 and top-k on the latter two where a leader ring
/// exists. Top-k runs one schedule whatever the algorithm, so it runs
/// once. Every case runs again under the `Lossy` and `DegradedLink`
/// plans: retries, backoff and degraded links are
/// send-side accounting, so the kinds agree there too.
#[test]
fn both_payload_kinds_leave_identical_communicators() {
    // sub-chunks of 512 elements (the scaled 4 MiB): two whole ones per
    // block on 12 ranks, more on fewer
    let whole = 12 * 512 * 2;
    let opt = scaled(MpiConfig::mpi_opt());
    let chunked = opt.clone().pipeline_chunk(256).build();
    let hierarchical = opt.clone().hierarchical(true).build();
    let configs = [
        scaled(MpiConfig::default_mpi()).build(),
        opt.build(),
        chunked.clone(),
        hierarchical.clone(),
    ];
    let mut cases = Vec::new();
    for nodes in 1..=3 {
        for cfg in &configs {
            for algo in AllreduceAlgorithm::ALL {
                for elems in [7, whole - 1, whole + 1] {
                    cases.push((nodes, cfg, algo, WireFormat::F32, elems));
                }
            }
        }
    }
    let lossy = [
        (WireFormat::Bf16, &AllreduceAlgorithm::ALL[..]),
        (WireFormat::Fp16, &AllreduceAlgorithm::ALL[..]),
        (
            WireFormat::TopK { k_permille: 50 },
            &[AllreduceAlgorithm::Ring][..],
        ),
    ];
    for nodes in [2, 3] {
        for cfg in [&chunked, &hierarchical] {
            for (wf, algos) in lossy {
                for &algo in algos {
                    for elems in [whole - 1, whole + 1] {
                        cases.push((nodes, cfg, algo, wf, elems));
                    }
                }
            }
        }
    }
    for (nodes, cfg, algo, wf, elems) in cases {
        let topo = ClusterTopology::lassen(nodes);
        for cfg in with_fault_plans(cfg.clone(), topo.total_gpus()) {
            let real = communicators(&topo, &cfg, algo, wf, elems, true);
            let costs_only = communicators(&topo, &cfg, algo, wf, elems, false);
            for (rank, (r, c)) in real.iter().zip(&costs_only).enumerate() {
                assert_eq!(
                    r, c,
                    "{nodes} nodes, {:?} {:?}, {algo:?}, {wf}, {elems} elems, rank {rank}",
                    cfg.device_mode, cfg.tuning
                );
            }
        }
    }
}
