//! Resumable ([`EventTask`]) forms of the costs-only collectives.
//!
//! Each state machine runs the *same* communication schedule as the
//! blocking entry points in [`super::synthetic`] and [`super::barrier`] —
//! in fact those entry points are thin [`drive_task`] wrappers around
//! these, so every schedule has exactly one implementation. On the driven
//! engine a blocked receive returns [`Poll::Pending`] instead of parking
//! an OS thread; on the context core [`drive_task`] blocks in place.
//!
//! The re-poll contract: every `poll` records all side effects (sends
//! posted, reduce charges) in task state *before* returning `Pending`, so
//! resuming retries only the blocked [`Comm::try_recv_buffered`] and never
//! replays a send.
//!
//! The ring allreduce — flat, or over the node leaders of a two-level
//! reduction — has a second form on the driven engine: its participants
//! park on the ring's descriptor ([`Poll::Wave`]) and the engine evaluates
//! the whole `2·p·(p−1)`-hop schedule in one pass (`RingWave::run`),
//! charging each hop through the same `Comm` accounting the message path
//! uses. The pipelined ring, recursive doubling, top-k and the barrier
//! keep the message path on both cores.

use crate::comm::Comm;
use crate::executor::{drive_task, EventTask, Poll};
use crate::message::Payload;

use super::synthetic::{synth, synth_wire};
use super::wire::{self, WireFormat};
use super::{coll_tag, AllreduceAlgorithm};

/// Lengths of the chunks `chunk_range(elems, p, i)` for a chunk index that
/// rotates downward (`i, i−1, …, 0, p−1, …`), the order every ring schedule
/// visits them in. A ring hop runs millions of times per simulated world,
/// so the index is kept only as `(i · r) mod p` (with `elems = q·p + r`):
/// chunk `i` has `q + 1` elements exactly when that residue plus `r`
/// reaches `p`, and stepping down subtracts `r` modulo `p` — the same
/// integers as `chunk_range`, without its divisions.
#[derive(Clone, Copy)]
struct ChunkCursor {
    q: usize,
    r: usize,
    p: usize,
    /// `(i · r) mod p` for the current chunk index `i`.
    rem: usize,
}

impl ChunkCursor {
    fn new(elems: usize, p: usize, i: usize) -> ChunkCursor {
        let (q, r) = (elems / p, elems % p);
        ChunkCursor {
            q,
            r,
            p,
            rem: i * r % p,
        }
    }

    /// `chunk_range(elems, p, i).len()`.
    #[inline]
    fn len(&self) -> usize {
        self.q + usize::from(self.rem + self.r >= self.p)
    }

    /// The cursor at chunk `i − 1` (wrapping to `p − 1`).
    #[inline]
    fn down(self) -> ChunkCursor {
        let rem = if self.rem >= self.r {
            self.rem - self.r
        } else {
            self.rem + self.p - self.r
        };
        ChunkCursor { rem, ..self }
    }

    /// The cursor at chunk `i + 1` (wrapping to `0`).
    #[inline]
    fn up(self) -> ChunkCursor {
        let rem = self.rem + self.r;
        ChunkCursor {
            rem: if rem >= self.p { rem - self.p } else { rem },
            ..self
        }
    }
}

/// World ranks of the right and left neighbours of position `me` in the
/// strided ring `{0, stride, …, (p−1)·stride}`.
fn ring_neighbours(me: usize, p: usize, stride: usize) -> (usize, usize) {
    let right = if me + 1 == p { 0 } else { me + 1 };
    let left = if me == 0 { p - 1 } else { me - 1 };
    (right * stride, left * stride)
}

/// A costs-only ring allreduce (reduce-scatter + allgather) of `elems`
/// elements over the strided participant set `{0, stride, 2·stride, …,
/// (p−1)·stride}` — all ranks (`stride` 1) or the node leaders (`stride` =
/// GPUs per node). The set is stored as `(p, stride)` rather than a `Vec`:
/// rings are built once per fusion group per step, and the allocation was
/// visible in the driven-engine profile.
///
/// This is both what a `RingSm` executes hop by hop as messages and what
/// a rank on the driven engine parks on ([`Poll::Wave`]): every hop of the
/// schedule carries nothing but a length and its arrival stamp is fixed at
/// send time, so once all `p` participants have reached the ring the engine
/// evaluates the whole thing with `RingWave::run` and no `Message` is
/// ever built. Two participants of one ring hold equal descriptors; the
/// engine treats unequal ones pending together as a collective mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingWave {
    seq: u64,
    p: usize,
    stride: usize,
    elems: usize,
    buf_id: u64,
    wf: WireFormat,
}

impl RingWave {
    /// Number of ranks that must park on this descriptor before it runs.
    pub(crate) fn participants(&self) -> usize {
        self.p
    }

    /// Evaluate the ring for all participants at once, over the world's
    /// communicators. For each of the `2·(p−1)` steps every participant
    /// accounts its send ([`Comm::account_send`]), then the receive of its
    /// left neighbour's stamp ([`Comm::account_recv`]), rotates its chunk
    /// and, in the reduce-scatter, charges the reduce — the per-rank
    /// operation order of [`RingSm::poll`], calling the accounting the
    /// message path calls, so the clocks, statistics and registration
    /// caches it leaves behind are the message path's to the bit (one more
    /// topological order under `docs/SIMCORE.md`'s determinism argument).
    ///
    /// Participant `i`'s receive needs only participant `i−1`'s send of the
    /// same step, so one sweep `send₀, send₁ recv₁, …, sendₚ₋₁ recvₚ₋₁,
    /// recv₀` visits each communicator once per step and keeps a single
    /// stamp in flight. All cursors rotate in lockstep — participant `i+1`
    /// is always one chunk above participant `i` — so the sweep carries one
    /// cursor and the kernel needs no per-participant scratch.
    ///
    /// `lanes` are the ranks' trace lanes when the world is traced: each
    /// cell runs with the lane of the rank it accounts for current, so its
    /// spans land where that rank's own thread would have recorded them.
    pub(crate) fn run(&self, comms: &mut [Comm], lanes: Option<&[dlsr_trace::Lane]>) {
        let RingWave {
            p,
            stride,
            buf_id,
            wf,
            ..
        } = *self;
        let enter = |rank: usize| lanes.map(|l| l[rank].enter());
        let send = |comm: &mut Comm, to: usize, chunk: ChunkCursor| -> f64 {
            match comm.account_send(to, wf.wire_bytes(chunk.len()), buf_id) {
                Ok(arrival) => arrival,
                Err(e) => comm.send_failed(e),
            }
        };
        // what `RingSm::poll` does between one send and the next: complete
        // the receive of the chunk below the one just sent — the chunk the
        // next hop sends — and reduce into it during the reduce-scatter
        let recv = |comm: &mut Comm, from: usize, sent: ChunkCursor, arrival: f64, reduce: bool| {
            let chunk = sent.down();
            comm.account_recv(from, wf.wire_bytes(chunk.len()), arrival, buf_id);
            if reduce {
                comm.charge_reduce(chunk.len());
            }
        };
        // participant 0's chunk this step
        let mut base = ChunkCursor::new(self.elems, p, 0);
        for phase in 0..2 {
            let reduce = phase == 0;
            for _step in 0..p - 1 {
                let first = {
                    let _lane = enter(0);
                    send(&mut comms[0], stride, base)
                };
                let (mut chunk, mut stamp) = (base, first);
                for i in 1..p {
                    chunk = chunk.up();
                    let (rank, right) = (i * stride, if i + 1 == p { 0 } else { (i + 1) * stride });
                    let _lane = enter(rank);
                    let comm = &mut comms[rank];
                    let sent = send(comm, right, chunk);
                    recv(comm, rank - stride, chunk, stamp, reduce);
                    stamp = sent;
                }
                let _lane = enter(0);
                recv(&mut comms[0], (p - 1) * stride, base, stamp, reduce);
                base = base.down();
            }
        }
    }
}

impl std::fmt::Display for RingWave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let RingWave {
            seq,
            p,
            stride,
            elems,
            buf_id,
            wf,
        } = self;
        write!(
            f,
            "ring allreduce #{seq} of {elems} elems ({wf}) over {p} ranks of stride {stride}, \
             buffer {buf_id:#x}"
        )
    }
}

/// The message-path execution of a [`RingWave`] for one participant: the
/// form the context core runs, and the reference the wave is held equal to
/// (`all_cores_agree_bitwise`, `tests/wave_equivalence.rs`).
struct RingSm {
    ring: RingWave,
    /// The chunk this hop sends: `me − step` in the reduce-scatter,
    /// `me + 1 − step` in the allgather — one downward rotation through
    /// both phases, since `me − (p−1) ≡ me + 1 (mod p)`.
    chunk: ChunkCursor,
    right: usize,
    left: usize,
    phase: u8,
    step: usize,
    sent: bool,
}

impl RingSm {
    fn new(
        comm: &Comm,
        elems: usize,
        p: usize,
        stride: usize,
        buf_id: u64,
        seq: u64,
        wf: WireFormat,
    ) -> RingSm {
        debug_assert_eq!(
            comm.rank() % stride,
            0,
            "caller participates in the strided ring"
        );
        let me = comm.rank() / stride;
        debug_assert!(me < p, "caller participates in the ring");
        let (right, left) = ring_neighbours(me, p, stride);
        RingSm {
            ring: RingWave {
                seq,
                p,
                stride,
                elems,
                buf_id,
                wf,
            },
            chunk: ChunkCursor::new(elems, p, me),
            right,
            left,
            phase: 0,
            step: 0,
            sent: false,
        }
    }

    fn poll(&mut self, comm: &mut Comm) -> Poll {
        let RingWave {
            seq, p, buf_id, wf, ..
        } = self.ring;
        if p <= 1 {
            return Poll::Ready;
        }
        if comm.on_driven_wire() && self.phase < 2 {
            // Park on the ring as a whole; the engine's wake comes after
            // `RingWave::run` has accounted every hop, so the re-poll
            // finds both phases finished.
            self.phase = 2;
            return Poll::Wave(self.ring);
        }
        while self.phase < 2 {
            while self.step < p - 1 {
                let tag = coll_tag(seq, (usize::from(self.phase) * p + self.step) as u64);
                if !self.sent {
                    comm.isend(self.right, tag, synth_wire(self.chunk.len(), wf), buf_id);
                    self.sent = true;
                }
                if comm.try_recv_buffered(self.left, tag, buf_id).is_none() {
                    return Poll::Pending {
                        src: self.left,
                        tag,
                    };
                }
                // the chunk just received is the one the next hop sends
                self.chunk = self.chunk.down();
                if self.phase == 0 {
                    comm.charge_reduce(self.chunk.len());
                }
                self.sent = false;
                self.step += 1;
            }
            self.phase += 1;
            self.step = 0;
        }
        Poll::Ready
    }
}

/// Pipelined ring: ring blocks split into `chunk_elems` sub-chunks,
/// sub-send `i+1` posted the moment sub-recv `i` lands.
struct PipeSm {
    elems: usize,
    buf_id: u64,
    seq: u64,
    chunk_elems: usize,
    wf: WireFormat,
    /// The block this step sends; the block it receives is one below
    /// (same rotation as [`RingSm::chunk`]).
    block: ChunkCursor,
    /// Sub-chunks in a block of `q` elements; a `q + 1` block has
    /// `subs_long` (blocks come in those two lengths only).
    subs_short: usize,
    subs_long: usize,
    right: usize,
    left: usize,
    phase: u8,
    step: usize,
    next_send: usize,
    recv_i: usize,
    primed: bool,
}

impl PipeSm {
    #[allow(clippy::too_many_arguments)]
    fn new(
        comm: &Comm,
        elems: usize,
        p: usize,
        stride: usize,
        buf_id: u64,
        seq: u64,
        chunk_elems: usize,
        wf: WireFormat,
    ) -> PipeSm {
        // Stride 1 for all-rank rings; gpus-per-node for the hierarchical
        // leader ring.
        debug_assert_eq!(
            comm.rank() % stride,
            0,
            "caller participates in the strided ring"
        );
        let me = comm.rank() / stride;
        debug_assert!(me < p, "caller participates in the ring");
        let (right, left) = ring_neighbours(me, p, stride);
        let block = ChunkCursor::new(elems, p, me);
        PipeSm {
            elems,
            buf_id,
            seq,
            chunk_elems,
            wf,
            block,
            subs_short: block.q.div_ceil(chunk_elems),
            subs_long: (block.q + 1).div_ceil(chunk_elems),
            right,
            left,
            phase: 0,
            step: 0,
            next_send: 0,
            recv_i: 0,
            primed: false,
        }
    }

    fn poll(&mut self, comm: &mut Comm) -> Poll {
        let p = self.block.p;
        if p <= 1 {
            return Poll::Ready;
        }
        // Mirror of the real pipelined ring: sub-chunks take the path the
        // parent buffer's rendezvous established, so path selection keys
        // on the full dense size. Set per poll (a poll never interleaves
        // with another task's sends) and cleared on every exit.
        comm.set_rendezvous_bytes(Some((self.elems * 4) as u64));
        let ce = self.chunk_elems;
        // length of sub-chunk `i` of a `block`-element block
        let sub_len = |block: usize, i: usize| ce.min(block - i * ce);
        let (q, subs_short, subs_long) = (self.block.q, self.subs_short, self.subs_long);
        let subs = |block: usize| if block == q { subs_short } else { subs_long };
        while self.phase < 2 {
            while self.step < p - 1 {
                let recv_cursor = self.block.down();
                let (send_block, recv_block) = (self.block.len(), recv_cursor.len());
                let phase_step = ((usize::from(self.phase) * p + self.step) as u64) << 20;
                let (n_send, n_recv) = (subs(send_block), subs(recv_block));
                if !self.primed {
                    if n_send > 0 {
                        comm.isend(
                            self.right,
                            coll_tag(self.seq, phase_step),
                            synth_wire(sub_len(send_block, 0), self.wf),
                            self.buf_id,
                        );
                        self.next_send = 1;
                    }
                    self.primed = true;
                }
                while self.recv_i < n_recv {
                    let tag = coll_tag(self.seq, phase_step | self.recv_i as u64);
                    if comm
                        .try_recv_buffered(self.left, tag, self.buf_id)
                        .is_none()
                    {
                        comm.set_rendezvous_bytes(None);
                        return Poll::Pending {
                            src: self.left,
                            tag,
                        };
                    }
                    if self.next_send < n_send {
                        comm.isend(
                            self.right,
                            coll_tag(self.seq, phase_step | self.next_send as u64),
                            synth_wire(sub_len(send_block, self.next_send), self.wf),
                            self.buf_id,
                        );
                        self.next_send += 1;
                    }
                    if self.phase == 0 {
                        comm.charge_reduce(sub_len(recv_block, self.recv_i));
                    }
                    self.recv_i += 1;
                }
                while self.next_send < n_send {
                    comm.isend(
                        self.right,
                        coll_tag(self.seq, phase_step | self.next_send as u64),
                        synth_wire(sub_len(send_block, self.next_send), self.wf),
                        self.buf_id,
                    );
                    self.next_send += 1;
                }
                self.block = recv_cursor;
                self.step += 1;
                self.next_send = 0;
                self.recv_i = 0;
                self.primed = false;
            }
            self.phase += 1;
            self.step = 0;
        }
        comm.set_rendezvous_bytes(None);
        Poll::Ready
    }
}

/// Recursive doubling: log₂ p pairwise exchanges (power-of-two worlds).
struct RdSm {
    elems: usize,
    buf_id: u64,
    seq: u64,
    wf: WireFormat,
    mask: usize,
    step: u64,
    sent: bool,
}

impl RdSm {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        let p = comm.size();
        let rank = comm.rank();
        while self.mask < p {
            let partner = rank ^ self.mask;
            let tag = coll_tag(self.seq, self.step);
            if !self.sent {
                comm.isend(partner, tag, synth_wire(self.elems, self.wf), self.buf_id);
                self.sent = true;
            }
            if comm.try_recv_buffered(partner, tag, self.buf_id).is_none() {
                return Poll::Pending { src: partner, tag };
            }
            comm.charge_reduce(self.elems);
            self.sent = false;
            self.mask <<= 1;
            self.step += 1;
        }
        Poll::Ready
    }
}

/// Top-k sparse allreduce: `p−1` ring hops circulating every rank's `k`
/// selected coordinates (8 bytes each on the wire), then `p` dense-apply
/// reduce charges — the costs-only twin of the real `topk_allreduce`.
struct TopkSm {
    k: usize,
    buf_id: u64,
    seq: u64,
    step: usize,
    sent: bool,
}

impl TopkSm {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        let p = comm.size();
        let (right, left) = ring_neighbours(comm.rank(), p, 1);
        while self.step < p - 1 {
            let tag = coll_tag(self.seq, self.step as u64);
            if !self.sent {
                comm.isend(
                    right,
                    tag,
                    Payload::Synthetic {
                        bytes: (self.k * 8) as u64,
                    },
                    self.buf_id,
                );
                self.sent = true;
            }
            if comm.try_recv_buffered(left, tag, self.buf_id).is_none() {
                return Poll::Pending { src: left, tag };
            }
            self.sent = false;
            self.step += 1;
        }
        for _ in 0..p {
            comm.charge_reduce(self.k);
        }
        Poll::Ready
    }
}

/// Two-level: binomial intra-node reduce → leader ring → binomial bcast.
/// Only the inter-node leader ring is wire-compressed (and pipelined when
/// hierarchical promotion is on), exactly like the real `two_level`.
enum TwoLevelState {
    IntraReduce { mask: usize },
    Ring(RingSm),
    Pipe(PipeSm),
    Bcast,
    Done,
}

struct TwoLevelSm {
    elems: usize,
    buf_id: u64,
    seq: u64,
    wf: WireFormat,
    state: TwoLevelState,
}

impl TwoLevelSm {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        // Copy the two scalars out instead of cloning the topology — this
        // poll is the engine's hottest path and the clone's heap traffic
        // (the name `String`) showed up in the simscale profile.
        let (gpn, nodes) = {
            let t = comm.topology();
            (t.gpus_per_node, t.nodes)
        };
        let rank = comm.rank();
        // `poll` re-enters once per leader-ring hop: no division here
        let leader = comm.node_first_rank();
        let r = rank - leader;
        loop {
            match &mut self.state {
                TwoLevelState::IntraReduce { mask } => {
                    if gpn > 1 {
                        while *mask < gpn {
                            if r & *mask != 0 {
                                comm.send(
                                    leader + (r - *mask),
                                    coll_tag(self.seq, 0),
                                    synth(self.elems),
                                    self.buf_id,
                                );
                                break;
                            }
                            let src = r + *mask;
                            if src < gpn {
                                let tag = coll_tag(self.seq, 0);
                                if comm
                                    .try_recv_buffered(leader + src, tag, self.buf_id)
                                    .is_none()
                                {
                                    return Poll::Pending {
                                        src: leader + src,
                                        tag,
                                    };
                                }
                                comm.charge_reduce(self.elems);
                            }
                            *mask <<= 1;
                        }
                    }
                    self.state = if nodes > 1 && rank == leader {
                        // leader ring: ranks {0, gpn, 2·gpn, …}
                        let tuning = comm.config().tuning;
                        if tuning.hierarchical
                            && (self.elems * 4) as u64 >= tuning.pipeline_threshold
                        {
                            let chunk_elems = (tuning.pipeline_chunk as usize / 4).max(1);
                            TwoLevelState::Pipe(PipeSm::new(
                                comm,
                                self.elems,
                                nodes,
                                gpn,
                                self.buf_id.wrapping_add(1),
                                self.seq,
                                chunk_elems,
                                self.wf,
                            ))
                        } else {
                            TwoLevelState::Ring(RingSm::new(
                                comm,
                                self.elems,
                                nodes,
                                gpn,
                                self.buf_id.wrapping_add(1),
                                self.seq,
                                self.wf,
                            ))
                        }
                    } else {
                        TwoLevelState::Bcast
                    };
                }
                TwoLevelState::Ring(ring) => match ring.poll(comm) {
                    Poll::Ready => self.state = TwoLevelState::Bcast,
                    pending => return pending,
                },
                TwoLevelState::Pipe(pipe) => match pipe.poll(comm) {
                    Poll::Ready => self.state = TwoLevelState::Bcast,
                    pending => return pending,
                },
                TwoLevelState::Bcast => {
                    if gpn > 1 {
                        // Parent is the lowest set bit of r (none for the
                        // leader); the fan-out below is pure sends, so the
                        // only park point is that one receive.
                        let mut mask = 1usize;
                        let mut recv_mask = 0usize;
                        while mask < gpn {
                            if r & mask != 0 {
                                recv_mask = mask;
                                break;
                            }
                            mask <<= 1;
                        }
                        if recv_mask != 0 {
                            let tag = coll_tag(self.seq, 1);
                            let src = leader + (r - recv_mask);
                            if comm.try_recv_buffered(src, tag, self.buf_id).is_none() {
                                return Poll::Pending { src, tag };
                            }
                            mask = recv_mask;
                        }
                        mask >>= 1;
                        while mask > 0 {
                            if r + mask < gpn {
                                comm.send(
                                    leader + r + mask,
                                    coll_tag(self.seq, 1),
                                    synth(self.elems),
                                    self.buf_id,
                                );
                            }
                            mask >>= 1;
                        }
                    }
                    self.state = TwoLevelState::Done;
                }
                TwoLevelState::Done => return Poll::Ready,
            }
        }
    }
}

enum AllreduceInner {
    Ring(RingSm),
    Rd(RdSm),
    TwoLevel(TwoLevelSm),
    Pipe(PipeSm),
    Topk(TopkSm),
}

/// Costs-only sum-allreduce of `elems` f32 elements as a resumable task —
/// the state-machine twin of [`super::synthetic::allreduce_elems`] (which
/// now drives this).
pub struct AllreduceElemsTask {
    elems: usize,
    buf_id: u64,
    algo: AllreduceAlgorithm,
    wf: WireFormat,
    t0: f64,
    inner: Option<AllreduceInner>,
}

impl AllreduceElemsTask {
    /// Build the task; nothing happens until the first `poll`.
    pub fn new(elems: usize, buf_id: u64, algo: AllreduceAlgorithm) -> AllreduceElemsTask {
        AllreduceElemsTask::new_wire(elems, buf_id, algo, WireFormat::F32)
    }

    /// [`AllreduceElemsTask::new`] with an explicit wire format — mirrors
    /// the real schedule's encoded payload sizes (and the top-k sparse
    /// schedule) without real data.
    pub fn new_wire(
        elems: usize,
        buf_id: u64,
        algo: AllreduceAlgorithm,
        wf: WireFormat,
    ) -> AllreduceElemsTask {
        AllreduceElemsTask {
            elems,
            buf_id,
            algo,
            wf,
            t0: 0.0,
            inner: None,
        }
    }
}

impl EventTask for AllreduceElemsTask {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        if comm.size() == 1 {
            return Poll::Ready;
        }
        if self.inner.is_none() {
            comm.verify_coll(
                "allreduce",
                "sum",
                self.wf.synth_dtype_name(),
                self.elems,
                self.algo.label(),
                None,
                0,
            );
            self.t0 = comm.now();
            let size = comm.size();
            let inner = if let WireFormat::TopK { k_permille } = self.wf {
                AllreduceInner::Topk(TopkSm {
                    k: wire::topk_count(self.elems, k_permille),
                    buf_id: self.buf_id,
                    seq: comm.next_seq(),
                    step: 0,
                    sent: false,
                })
            } else {
                match self.algo {
                    AllreduceAlgorithm::Ring => {
                        let seq = comm.next_seq();
                        AllreduceInner::Ring(RingSm::new(
                            comm,
                            self.elems,
                            size,
                            1,
                            self.buf_id,
                            seq,
                            self.wf,
                        ))
                    }
                    AllreduceAlgorithm::RecursiveDoubling => {
                        if comm.size().is_power_of_two() {
                            AllreduceInner::Rd(RdSm {
                                elems: self.elems,
                                buf_id: self.buf_id,
                                seq: comm.next_seq(),
                                wf: self.wf,
                                mask: 1,
                                step: 0,
                                sent: false,
                            })
                        } else {
                            let seq = comm.next_seq();
                            AllreduceInner::Ring(RingSm::new(
                                comm,
                                self.elems,
                                size,
                                1,
                                self.buf_id,
                                seq,
                                self.wf,
                            ))
                        }
                    }
                    AllreduceAlgorithm::TwoLevel => AllreduceInner::TwoLevel(TwoLevelSm {
                        elems: self.elems,
                        buf_id: self.buf_id,
                        seq: comm.next_seq(),
                        wf: self.wf,
                        state: TwoLevelState::IntraReduce { mask: 1 },
                    }),
                    AllreduceAlgorithm::PipelinedRing => {
                        let seq = comm.next_seq();
                        let chunk_elems = (comm.config().tuning.pipeline_chunk as usize / 4).max(1);
                        AllreduceInner::Pipe(PipeSm::new(
                            comm,
                            self.elems,
                            size,
                            1,
                            self.buf_id,
                            seq,
                            chunk_elems,
                            self.wf,
                        ))
                    }
                }
            };
            self.inner = Some(inner);
        }
        let done = match self.inner.as_mut().expect("initialized above") {
            AllreduceInner::Ring(sm) => sm.poll(comm),
            AllreduceInner::Rd(sm) => sm.poll(comm),
            AllreduceInner::TwoLevel(sm) => sm.poll(comm),
            AllreduceInner::Pipe(sm) => sm.poll(comm),
            AllreduceInner::Topk(sm) => sm.poll(comm),
        };
        if let Poll::Ready = done {
            let (algo, wf, bytes) = (self.algo, self.wf, self.elems * 4);
            dlsr_trace::record_span(
                move || {
                    let name = if let WireFormat::TopK { .. } = wf {
                        "topk".to_string()
                    } else if wf.is_f32() {
                        format!("{algo:?}")
                    } else {
                        format!("{algo:?}+{wf}")
                    };
                    format!("allreduce.{name} {bytes}B")
                },
                dlsr_trace::cat::MPI,
                self.t0,
                comm.now(),
            );
        }
        done
    }
}

/// Dissemination barrier as a resumable task — the state-machine twin of
/// [`super::barrier`] (which now drives this).
#[derive(Default)]
pub struct BarrierTask {
    started: bool,
    seq: u64,
    t0: f64,
    dist: usize,
    round: u64,
    sent: bool,
}

impl BarrierTask {
    /// Build the task; nothing happens until the first `poll`.
    pub fn new() -> BarrierTask {
        BarrierTask::default()
    }
}

impl EventTask for BarrierTask {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        let p = comm.size();
        if p == 1 {
            return Poll::Ready;
        }
        if !self.started {
            comm.verify_coll("barrier", "-", "-", 0, "dissemination", None, 0);
            self.seq = comm.next_seq();
            self.t0 = comm.now();
            self.dist = 1;
            self.started = true;
        }
        let rank = comm.rank();
        while self.dist < p {
            let tag = coll_tag(self.seq, self.round);
            if !self.sent {
                comm.send((rank + self.dist) % p, tag, Payload::Bytes(Vec::new()), 0);
                self.sent = true;
            }
            let from = (rank + p - self.dist) % p;
            if comm.try_recv_buffered(from, tag, 0).is_none() {
                return Poll::Pending { src: from, tag };
            }
            self.sent = false;
            self.dist <<= 1;
            self.round += 1;
        }
        dlsr_trace::record_span(
            || "barrier".to_string(),
            dlsr_trace::cat::MPI,
            self.t0,
            comm.now(),
        );
        dlsr_trace::counter_add(dlsr_trace::report::keys::MPI_COLLECTIVES, 1.0);
        Poll::Ready
    }
}

/// Blocking entry used by [`super::synthetic::allreduce_elems`].
pub(crate) fn drive_allreduce_elems(
    comm: &mut Comm,
    elems: usize,
    buf_id: u64,
    algo: AllreduceAlgorithm,
    wf: WireFormat,
) {
    let mut task = AllreduceElemsTask::new_wire(elems, buf_id, algo, wf);
    drive_task(comm, &mut task);
}

/// Blocking entry used by [`super::barrier`].
pub(crate) fn drive_barrier(comm: &mut Comm) {
    let mut task = BarrierTask::new();
    drive_task(comm, &mut task);
}

#[cfg(test)]
mod tests {
    use crate::comm::CommStats;
    use crate::config::MpiConfig;
    use crate::executor::{drive_program, RankProgram, Step};
    use crate::verify::{Violation, ViolationKind};
    use crate::world::MpiWorld;
    use dlsr_net::{ClusterTopology, RegCacheStats};

    use super::*;

    /// A small rank program with per-rank clock skew between collectives,
    /// so scheduling mistakes would show up as clock divergence. A rank for
    /// which `elems_of` answers `None` skips its allreduces (a bug the
    /// engine must diagnose, not a supported program).
    struct Prog<F> {
        algo: AllreduceAlgorithm,
        elems_of: F,
        left: usize,
    }

    impl<F: Fn(usize) -> Option<usize>> Prog<F> {
        fn per_rank(algo: AllreduceAlgorithm, elems_of: F) -> Prog<F> {
            Prog {
                algo,
                elems_of,
                left: 3,
            }
        }
    }

    /// Every rank reduces `elems` elements.
    fn uniform(algo: AllreduceAlgorithm, elems: usize) -> Prog<impl Fn(usize) -> Option<usize>> {
        Prog::per_rank(algo, move |_| Some(elems))
    }

    /// Everything a rank's communicator holds at the end of a run that the
    /// two cores must agree on: clock bits, statistics, registration cache.
    type Outcome = (u64, CommStats, RegCacheStats);

    impl<F: Fn(usize) -> Option<usize>> RankProgram for Prog<F> {
        type Out = Outcome;
        fn next(&mut self, comm: &mut Comm) -> Step {
            loop {
                if self.left == 0 {
                    return Step::Done;
                }
                self.left -= 1;
                comm.advance(1.0e-5 * (comm.rank() as f64 + 1.0));
                if self.left == 1 {
                    return Step::Task(BarrierTask::new().into());
                }
                if let Some(elems) = (self.elems_of)(comm.rank()) {
                    return Step::Task(AllreduceElemsTask::new(elems, 1, self.algo).into());
                }
            }
        }
        fn finish(&mut self, comm: &mut Comm, _trace: Vec<dlsr_trace::TraceEvent>) -> Outcome {
            (
                comm.now().to_bits(),
                comm.stats().clone(),
                comm.regcache_stats(),
            )
        }
    }

    /// The correctness bar: the driven engine — whose rings run as waves —
    /// and the event context core (at several worker counts) — whose rings
    /// exchange messages — leave *bit-identical* clocks, statistics and
    /// registration caches on every rank: on a power-of-two world and on a
    /// 3-node one (a non-power-of-two leader ring and a 12-rank flat
    /// ring), with element counts that do and do not divide by the ring
    /// size, small enough for single-element and empty chunks included.
    /// `tests/wave_equivalence.rs` draws the same comparison from the
    /// whole configuration space.
    #[test]
    fn all_cores_agree_bitwise() {
        for (nodes, elems) in [(2, 123_457), (3, 123_457), (3, 120_000), (3, 7), (2, 5)] {
            let topo = ClusterTopology::lassen(nodes);
            for algo in [
                AllreduceAlgorithm::Ring,
                AllreduceAlgorithm::RecursiveDoubling,
                AllreduceAlgorithm::TwoLevel,
                AllreduceAlgorithm::PipelinedRing,
            ] {
                let what = format!("{algo:?}, {nodes} nodes, {elems} elems");
                let driven =
                    MpiWorld::run_driven(&topo, MpiConfig::mpi_opt(), |_| uniform(algo, elems))
                        .ranks;
                for workers in [1usize, 4, 8] {
                    let mut cfg = MpiConfig::mpi_opt();
                    cfg.sim_workers = workers;
                    let event =
                        MpiWorld::run(&topo, cfg, move |c| drive_program(c, uniform(algo, elems)))
                            .ranks;
                    assert_eq!(driven, event, "{what}: driven vs event(workers={workers})");
                }
            }
        }
    }

    /// The violation `f`'s world fails with.
    fn panic_message(f: impl FnOnce()) -> (ViolationKind, String) {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the world must panic");
        let v = err
            .downcast::<Violation>()
            .expect("panic payload is a Violation");
        (v.kind, v.detail)
    }

    /// A world stuck on a partial wave says who waits in which ring — a
    /// rank parked on a wave has no `(src, tag)` to list. (A `verify` build
    /// never lets it get stuck: the leader that skips the allreduce files a
    /// barrier where its peers filed an allreduce.)
    #[test]
    fn a_partial_wave_is_named_in_the_deadlock_panic() {
        let topo = ClusterTopology::lassen(3);
        let (kind, msg) = panic_message(|| {
            MpiWorld::run_driven(&topo, MpiConfig::mpi_opt(), |_| {
                // node 1's leader never enters the allreduces
                Prog::per_rank(AllreduceAlgorithm::TwoLevel, |rank| {
                    (rank != 4).then_some(1000)
                })
            });
        });
        if crate::verify::COMPILED {
            assert_eq!(kind, ViolationKind::CollectiveMismatch, "{msg}");
            assert!(
                msg.contains("allreduce(") && msg.contains("barrier("),
                "{msg}"
            );
            return;
        }
        assert_eq!(kind, ViolationKind::Deadlock);
        assert!(msg.contains("deadlock on the driven core"), "{msg}");
        assert!(
            msg.contains(
                "ranks [0, 8] wait for the other 1 participants of ring allreduce #1 of 1000 \
                 elems (f32) over 3 ranks of stride 4"
            ),
            "{msg}"
        );
        // the ranks parked on messages are still listed
        assert!(msg.contains("rank 5 waits for (src 4, tag"), "{msg}");
    }

    /// Two descriptors pending at once mean the leaders disagree about
    /// the collective: reported at the second arrival, naming both. (A
    /// `verify` build reports the same disagreement one level up, when the
    /// second top-level signature arrives.)
    #[test]
    fn a_mis_sized_wave_is_a_mismatch_panic() {
        let topo = ClusterTopology::lassen(3);
        let (kind, msg) = panic_message(|| {
            MpiWorld::run_driven(&topo, MpiConfig::mpi_opt(), |_| {
                Prog::per_rank(AllreduceAlgorithm::TwoLevel, |rank| {
                    Some(if rank / 4 == 1 { 999 } else { 1000 })
                })
            });
        });
        assert_eq!(kind, ViolationKind::CollectiveMismatch);
        for elems in [999, 1000] {
            let named = if crate::verify::COMPILED {
                format!("elems={elems},")
            } else {
                format!("ring allreduce #1 of {elems} elems")
            };
            assert!(msg.contains(&named), "{msg}");
        }
        assert_eq!(
            msg.contains("collective mismatch on the driven core"),
            !crate::verify::COMPILED,
            "{msg}"
        );
    }

    /// The incremental chunk arithmetic against `chunk_range`, from every
    /// starting chunk through two full rotations down and back up.
    #[test]
    fn chunk_cursor_matches_chunk_range() {
        use crate::collectives::chunk_range;
        for p in [1usize, 2, 3, 4, 7, 12, 128] {
            for elems in [0usize, 1, 5, p - 1, p, p + 1, 1000, 123_457, 8 << 20] {
                for start in 0..p {
                    let mut cursor = ChunkCursor::new(elems, p, start);
                    for k in 0..2 * p {
                        let i = (start + 2 * p - k) % p;
                        assert_eq!(
                            cursor.len(),
                            chunk_range(elems, p, i).len(),
                            "elems {elems}, p {p}, chunk {i}"
                        );
                        assert_eq!(cursor.down().up().rem, cursor.rem);
                        cursor = cursor.down();
                    }
                    for k in 0..2 * p {
                        let i = (start + k) % p;
                        assert_eq!(
                            cursor.len(),
                            chunk_range(elems, p, i).len(),
                            "elems {elems}, p {p}, chunk {i} (up)"
                        );
                        cursor = cursor.up();
                    }
                }
            }
        }
    }
}
