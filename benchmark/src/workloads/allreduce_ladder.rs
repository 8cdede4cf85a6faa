//! `allreduce_ladder_8rank`: one world of 8 ranks (2 Lassen nodes) in
//! which every rank allocates once, then allreduces real payloads up a
//! size ladder — f32 with the size-binned algorithm, then bf16 on the
//! wire. Uses `mpi` the opposite way from `sim_world_512`: few large real
//! payloads (copy/reduce/encode bandwidth, allocation) instead of many
//! costs-only messages. bf16 sits beside f32 so a wire-encode gain that
//! taxes the f32 path, or the reverse, shows. Mirrors the paper's Table I
//! size bins.

use std::time::Instant;

use crate::adapter::{Allreduce, ClusterTopology, MpiConfig, MpiWorld, Payload, WireFormat};
use crate::harness::{median, time_median, Metrics, OpResult, Workload};
use crate::spans::Recorder;

/// One rung: its host- and virtual-time metric, f32 elements, repetitions
/// (half the issue's, so about 25 ladders fit a run), bf16 on the wire.
const RUNGS: [(&str, &str, usize, usize, bool); 6] = [
    (
        "mpi.allreduce_host_us_4k",
        "mpi.allreduce_virtual_us_4k",
        1 << 10,
        16,
        false,
    ),
    (
        "mpi.allreduce_host_us_256k",
        "mpi.allreduce_virtual_us_256k",
        64 << 10,
        4,
        false,
    ),
    (
        "mpi.allreduce_host_us_4m",
        "mpi.allreduce_virtual_us_4m",
        1 << 20,
        2,
        false,
    ),
    (
        "mpi.allreduce_host_us_32m",
        "mpi.allreduce_virtual_us_32m",
        8 << 20,
        1,
        false,
    ),
    (
        "mpi.allreduce_host_us_4m_bf16",
        "mpi.allreduce_virtual_us_4m_bf16",
        1 << 20,
        2,
        true,
    ),
    (
        "mpi.allreduce_host_us_32m_bf16",
        "mpi.allreduce_virtual_us_32m_bf16",
        8 << 20,
        1,
        true,
    ),
];
/// Indices of the two 32 MiB rungs.
const F32_32M: usize = 3;
const BF16_32M: usize = 5;
const WARMUP_OPS: usize = 2;
const PING_PONGS: usize = 1000;

/// Rank `rank`'s input on repetition `rep`: `(i mod 8) + c`, with `c` in
/// 0..4 drawn from seed, rank and repetition. Small integers, so every
/// partial sum (≤ 80) is exact in f32 and in bf16, and the expected result
/// is an 8-periodic pattern a rank can check at memory speed.
fn offset(seed: u64, rank: usize, rep: usize) -> f32 {
    ((seed as usize).wrapping_add(rank * 5 + rep * 3) & 3) as f32
}

fn pattern(c: f32) -> [f32; 8] {
    std::array::from_fn(|i| i as f32 + c)
}

fn expected(seed: u64, world: usize, rep: usize) -> [f32; 8] {
    let c: f32 = (0..world).map(|r| offset(seed, r, rep)).sum();
    std::array::from_fn(|i| world as f32 * i as f32 + c)
}

/// What one rank reports from one ladder.
struct RankOut {
    /// First wrong result, if any.
    error: Option<String>,
    /// Host and virtual µs of one allreduce per rung (median over its
    /// repetitions).
    host_us: Vec<f64>,
    virtual_us: Vec<f64>,
    nvlink_bytes: u64,
    staged_bytes: u64,
    ib_bytes: u64,
    rec: Recorder,
}

pub struct Ladder {
    seed: u64,
    topo: ClusterTopology,
    reps_cap: usize,
    first_makespan: Option<u64>,
    /// Rank 0's per-rung times of every op so far.
    host_us: Vec<Vec<f64>>,
    virtual_us: Vec<Vec<f64>>,
    bytes: (u64, u64, u64),
    virtual_ms: f64,
}

impl Ladder {
    pub fn new(seed: u64, smoke: bool) -> Self {
        Ladder {
            seed,
            topo: ClusterTopology::lassen(2),
            reps_cap: if smoke { 1 } else { usize::MAX },
            first_makespan: None,
            host_us: Vec::new(),
            virtual_us: Vec::new(),
            bytes: (0, 0, 0),
            virtual_ms: 0.0,
        }
    }

    /// One ladder. Every rank records into its own copy of `world_rec`
    /// (nothing, when it is off: the plain op); the copies are absorbed
    /// under `world_rec`'s open span — the caller's span around this call.
    fn ladder(&mut self, world_rec: &mut Recorder) -> OpResult {
        let (seed, reps_cap) = (self.seed, self.reps_cap);
        let world = self.topo.total_gpus();
        let shared = &*world_rec; // read by the rank threads
        let res = MpiWorld::run(&self.topo, MpiConfig::mpi_opt(), |comm| {
            let rank = comm.rank();
            let mut rec = shared.for_rank(rank as u32);
            let mut error = None;
            let (mut host_us, mut virtual_us) = (Vec::new(), Vec::new());
            rec.span("rank", "bench", |rec| {
                // every rank allocates once, before the first allreduce
                let mut bufs: Vec<Vec<f32>> = rec.span("allocate", "bench", |_| {
                    [1 << 10, 64 << 10, 1 << 20, 8 << 20]
                        .iter()
                        .map(|&n| vec![0.0f32; n])
                        .collect()
                });
                for (id, &(name, _, elems, reps, bf16)) in RUNGS.iter().enumerate() {
                    let buf = bufs
                        .iter_mut()
                        .find(|b| b.len() == elems)
                        .expect("a buffer per rung size");
                    let (mut host, mut virt) = (Vec::new(), Vec::new());
                    for rep in 0..reps.min(reps_cap) {
                        let mine = pattern(offset(seed, rank, rep));
                        rec.span("fill", "bench", |_| {
                            buf.chunks_exact_mut(8)
                                .for_each(|c| c.copy_from_slice(&mine))
                        });
                        let (t, v) = (Instant::now(), comm.now());
                        rec.span("allreduce", "mpi", |_| {
                            let req = Allreduce::new(&mut *buf).buf_id(id as u64 + 1);
                            if bf16 {
                                req.wire(WireFormat::Bf16).run(comm)
                            } else {
                                req.run(comm)
                            }
                        });
                        host.push(t.elapsed().as_secs_f64() * 1e6);
                        virt.push((comm.now() - v) * 1e6);
                        let want = expected(seed, world, rep);
                        let ok = rec.span("verify", "bench", |_| {
                            buf.chunks_exact(8).all(|c| c == want)
                        });
                        if !ok && error.is_none() {
                            error =
                                Some(format!("rank {rank}: {name} rep {rep}: not the exact sum"));
                        }
                    }
                    host_us.push(median(&host));
                    virtual_us.push(median(&virt));
                }
            });
            let s = comm.stats();
            RankOut {
                error,
                host_us,
                virtual_us,
                nvlink_bytes: s.nvlink_bytes,
                staged_bytes: s.staged_bytes,
                ib_bytes: s.ib_bytes,
                rec,
            }
        });

        let makespan = res.makespan();
        let mut verdict = match res.ranks.iter().find_map(|r| r.error.clone()) {
            Some(e) => Err(e),
            None => Ok(()),
        };
        if *self.first_makespan.get_or_insert(makespan.to_bits()) != makespan.to_bits() {
            verdict = Err(format!("virtual makespan drifted to {makespan}"));
        }
        self.virtual_ms = makespan * 1e3;
        for (rank, r) in res.ranks.into_iter().enumerate() {
            if rank == 0 {
                self.host_us.push(r.host_us);
                self.virtual_us.push(r.virtual_us);
                self.bytes = (r.nvlink_bytes, r.staged_bytes, r.ib_bytes);
            }
            world_rec.absorb(r.rec);
        }
        verdict
    }
}

impl Workload for Ladder {
    fn warm_up(&mut self) {
        for _ in 0..WARMUP_OPS {
            self.op().expect("warm-up op");
        }
        self.host_us.clear();
        self.virtual_us.clear();
    }

    fn op(&mut self) -> OpResult {
        self.traced_op(&mut Recorder::off())
    }

    fn throughput(&self) -> (&'static str, f64) {
        // MiB of payload each rank reduces in one ladder
        let bytes: usize = RUNGS
            .iter()
            .map(|&(_, _, elems, reps, _)| elems * 4 * reps.min(self.reps_cap))
            .sum();
        ("allreduce_mb_per_s", bytes as f64 / (1 << 20) as f64)
    }

    fn outputs(&self, out: &mut Metrics) {
        out.set("virtual_allreduce_ms", self.virtual_ms);
    }

    fn traced_op(&mut self, rec: &mut Recorder) -> OpResult {
        rec.span("op", "bench", |rec| {
            rec.span("MpiWorld::run", "mpi", |rec| self.ladder(rec))
        })
    }

    fn layer_metrics(&mut self, _rec: &Recorder, out: &mut Metrics) {
        let rung =
            |ops: &[Vec<f64>], i: usize| median(&ops.iter().map(|o| o[i]).collect::<Vec<_>>());
        for (i, &(host, virt, ..)) in RUNGS.iter().enumerate() {
            out.set(host, rung(&self.host_us, i));
            out.set(virt, rung(&self.virtual_us, i));
        }
        out.set(
            "mpi.bf16_host_ratio_32m",
            rung(&self.host_us, BF16_32M) / rung(&self.host_us, F32_32M),
        );
        out.set(
            "mpi.bf16_virtual_ratio_32m",
            rung(&self.virtual_us, BF16_32M) / rung(&self.virtual_us, F32_32M),
        );
        let (nvlink, staged, ib) = self.bytes;
        let total = (nvlink + staged + ib) as f64;
        out.set("net.ib_bytes_share_pct", ib as f64 / total * 100.0);
        out.set("net.nvlink_bytes_share_pct", nvlink as f64 / total * 100.0);

        let spawn = time_median(15, || {
            MpiWorld::run(&self.topo, MpiConfig::mpi_opt(), |_| ());
        });
        out.set("mpi.world_spawn_ms_w8", spawn * 1e3);

        // host cost of one small-message round trip between two ranks
        let pair = ClusterTopology {
            name: "pair".into(),
            nodes: 1,
            gpus_per_node: 2,
        };
        let empty = time_median(5, || {
            MpiWorld::run(&pair, MpiConfig::mpi_opt(), |_| ());
        });
        let t = Instant::now();
        MpiWorld::run(&pair, MpiConfig::mpi_opt(), |comm| {
            let peer = 1 - comm.rank();
            for i in 0..PING_PONGS as u64 {
                if comm.rank() == 0 {
                    comm.send(peer, i, Payload::F32(vec![1.0; 16]), 0);
                    std::hint::black_box(comm.recv(peer, i, 0));
                } else {
                    let got = comm.recv(peer, i, 0);
                    comm.send(peer, i, got, 0);
                }
            }
        });
        let roundtrip = (t.elapsed().as_secs_f64() - empty) / PING_PONGS as f64;
        out.set("mpi.p2p_roundtrip_host_us", roundtrip * 1e6);
    }
}
