//! Resumable ([`EventTask`]) forms of the collectives: every allreduce
//! schedule, and the barrier.
//!
//! Each allreduce algorithm — ring, pipelined ring, recursive doubling,
//! two-level, top-k — has exactly one implementation: a state machine
//! here, generic over what its hops carry ([`PayloadKind`]). A
//! [`CostsOnly`] hop carries its wire length and nothing else, for the
//! at-scale harnesses; a [`RealData`] hop carries a slice of an `f32`
//! buffer the task owns, encoded, combined and forwarded. Peers, tags,
//! chunk cursors, the order of sends, receives and reduce charges, and each
//! algorithm's one re-quantization point live in the schedule, which never
//! asks which kind it runs; a kind only moves data, so the two leave every
//! clock, statistic and registration cache bit-identical by construction
//! (`tests/properties.rs` holds them to it). The blocking
//! [`Allreduce::run`](super::Allreduce::run) and [`barrier`](super::barrier)
//! drive these tasks in place ([`drive_task`]). On the driven engine a
//! blocked receive returns [`Poll::Pending`] instead of parking an OS
//! thread; on the context core [`drive_task`] blocks in place.
//!
//! The re-poll contract: every `poll` records all side effects (sends
//! posted, reduce charges, data combined) in task state *before* returning
//! `Pending`, so resuming retries only the blocked
//! [`Comm::try_recv_buffered`] and never replays a send.
//!
//! The costs-only ring allreduce — flat, or over the node leaders of a
//! two-level reduction — has a second form on the driven engine: its
//! participants park on the ring's descriptor ([`Poll::Wave`]) and the
//! engine evaluates the whole `2·p·(p−1)`-hop schedule in one pass
//! (`RingWave::run`). A steady wave — untraced, fault-free, every hop's
//! handshake done and every registration lookup a hit — runs in closed
//! form: max-plus arithmetic over one clock per participant, with costs
//! quoted by `Comm` and statistics settled once per participant. Any other
//! wave charges each hop through the same `Comm` accounting the message
//! path uses. A wave moves no data, so only a kind without data may take
//! it ([`PayloadKind::WAVES`]): a real ring exchanges its messages on both
//! cores, as do the pipelined ring, recursive doubling, top-k and the
//! barrier.

use std::collections::VecDeque;
use std::ops::Range;

use crate::comm::{Comm, RecvQuote, SendQuote};
use crate::config::CommChoice;
use crate::executor::{drive_task, EventTask, Poll};
use crate::message::Payload;

use super::wire::{self, WireFormat};
use super::{chunk_range, coll_tag, AllreduceAlgorithm, ReduceOp};

/// Lengths of the chunks `chunk_range(elems, p, i)` for a chunk index that
/// rotates downward (`i, i−1, …, 0, p−1, …`), the order every ring schedule
/// visits them in. A ring hop runs millions of times per simulated world,
/// so the length is kept off `(i · r) mod p` (with `elems = q·p + r`):
/// chunk `i` has `q + 1` elements exactly when that residue plus `r`
/// reaches `p`, and stepping down subtracts `r` modulo `p` — the same
/// integers as `chunk_range`, without its divisions. Only a kind that
/// touches data asks for the chunk's [`range`](ChunkCursor::range).
#[derive(Clone, Copy)]
struct ChunkCursor {
    q: usize,
    r: usize,
    p: usize,
    /// The chunk index `i`.
    i: usize,
    /// `(i · r) mod p`.
    rem: usize,
}

impl ChunkCursor {
    fn new(elems: usize, p: usize, i: usize) -> ChunkCursor {
        let (q, r) = (elems / p, elems % p);
        ChunkCursor {
            q,
            r,
            p,
            i,
            rem: i * r % p,
        }
    }

    /// `chunk_range(elems, p, i).len()`.
    #[inline]
    fn len(&self) -> usize {
        self.q + self.class()
    }

    /// `chunk_range(elems, p, i)`.
    fn range(&self) -> Range<usize> {
        chunk_range(self.q * self.p + self.r, self.p, self.i)
    }

    /// The chunk's length class: 0 for `q` elements, 1 for `q + 1`.
    #[inline]
    fn class(&self) -> usize {
        usize::from(self.rem + self.r >= self.p)
    }

    /// The cursor at chunk `i − 1` (wrapping to `p − 1`).
    #[inline]
    fn down(self) -> ChunkCursor {
        let rem = if self.rem >= self.r {
            self.rem - self.r
        } else {
            self.rem + self.p - self.r
        };
        let i = if self.i == 0 { self.p - 1 } else { self.i - 1 };
        ChunkCursor { i, rem, ..self }
    }

    /// The cursor at chunk `i + 1` (wrapping to `0`).
    #[inline]
    fn up(self) -> ChunkCursor {
        let rem = self.rem + self.r;
        ChunkCursor {
            i: if self.i + 1 == self.p { 0 } else { self.i + 1 },
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

/// The `i`-th `chunk_elems`-element sub-chunk of `block`.
fn sub_range(block: Range<usize>, chunk_elems: usize, i: usize) -> Range<usize> {
    let start = block.start + i * chunk_elems;
    start..(start + chunk_elems).min(block.end)
}

/// What an allreduce's hops carry — the one seam between a schedule and
/// its data. The schedules call these at fixed points and never ask which
/// kind they run; a kind touches no clock, sends no message and counts no
/// statistic, so every kind runs the same schedule to the bit.
///
/// A dense schedule's messages form one queue: a rank queues the messages
/// it originates ([`originate`](PayloadKind::originate)), every receive
/// queues what the next hop forwards ([`reduce`](PayloadKind::reduce),
/// [`copy`](PayloadKind::copy)), and [`send`](PayloadKind::send) takes the
/// oldest — a step's sends always precede its receives in the queue.
/// Buffer ranges are passed as closures: only a kind that touches data
/// computes them. The methods that move no message do nothing by default —
/// all a kind without data needs of them.
pub trait PayloadKind {
    /// Whether a ring over this kind may park as a [`Poll::Wave`] on the
    /// driven engine. A wave carries no data.
    const WAVES: bool;

    /// The dtype slot of the allreduce's verify signature, for wire format
    /// `wf`: skew between ranks — of format or of kind — must be a
    /// collective mismatch, never a hang or a decode panic mid-schedule.
    fn dtype(wf: WireFormat) -> &'static str;

    /// Queue the encoding of `range` of the buffer: a message this rank
    /// originates.
    fn originate(&mut self, _wf: WireFormat, _range: impl FnOnce() -> Range<usize>) {}

    /// The next queued message; `bytes` is its size on the wire.
    fn send(&mut self, bytes: u64) -> Payload;

    /// Fold a received message into `range` (the message's operand first
    /// when `incoming_first`) and queue the result, encoded as it arrived,
    /// for the next hop.
    fn reduce(
        &mut self,
        _incoming: Payload,
        _incoming_first: bool,
        _range: impl FnOnce() -> Range<usize>,
    ) {
    }

    /// Decode a received message into `range` and queue it, as it
    /// arrived, for the next hop.
    fn copy(&mut self, _incoming: Payload, _range: impl FnOnce() -> Range<usize>) {}

    /// A re-quantization point: decode queued message `i` back into
    /// `range`, so this rank holds the bits its peers will decode.
    fn requantize(&mut self, _i: usize, _range: impl FnOnce() -> Range<usize>) {}

    /// Two-level reduce: the whole buffer for the parent, `bytes` on the
    /// wire. The buffer goes with it; the broadcast brings it back.
    fn hand_over(&mut self, bytes: u64) -> Payload;

    /// Two-level reduce: fold a child's whole buffer in.
    fn absorb(&mut self, _incoming: Payload) {}

    /// Two-level broadcast: the parent's result becomes the buffer.
    fn adopt(&mut self, _incoming: Payload) {}

    /// Two-level broadcast: a copy of the buffer, `bytes` on the wire, for
    /// the child whose reduce message is the latest one not yet answered.
    fn pass_down(&mut self, bytes: u64) -> Payload;

    /// Top-k: select this rank's `k` coordinates, queue them, and clear
    /// the buffer to accumulate the `p` ranks' sets (this rank is `me`).
    fn select(&mut self, _k: usize, _me: usize, _p: usize) {}

    /// Top-k: keep the set rank `src` selected and queue it for the next
    /// hop.
    fn gather(&mut self, _incoming: Payload, _src: usize) {}

    /// Top-k: add rank `src`'s set into the buffer.
    fn apply(&mut self, _src: usize) {}
}

/// The costs-only kind: a hop carries its wire length and no data
/// ([`Payload::Synthetic`]). Encode and decode cost nothing on the virtual
/// clock, so the length is all the timing needs — what the 512-rank
/// harnesses run, where real buffers would exhaust host memory without
/// changing any result.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostsOnly;

impl PayloadKind for CostsOnly {
    const WAVES: bool = true;

    fn dtype(wf: WireFormat) -> &'static str {
        match wf {
            WireFormat::F32 => "synth",
            WireFormat::Bf16 => "synth-bf16",
            WireFormat::Fp16 => "synth-fp16",
            WireFormat::TopK { .. } => "synth-topk",
        }
    }

    #[inline]
    fn send(&mut self, bytes: u64) -> Payload {
        Payload::Synthetic { bytes }
    }

    #[inline]
    fn hand_over(&mut self, bytes: u64) -> Payload {
        Payload::Synthetic { bytes }
    }

    #[inline]
    fn pass_down(&mut self, bytes: u64) -> Payload {
        Payload::Synthetic { bytes }
    }
}

/// The real kind: an `f32` buffer the task owns — moved in when the task
/// is built, handed back on `Ready` ([`Task::into_buf`](crate::Task::into_buf)). Dense
/// messages are encoded once, where a rank originates them; every later
/// hop folds what it received in place and forwards it
/// (`wire::combine_forward`, `wire::copy_out`). The two-level
/// intra-node phases move whole buffers and answer each child's reduce
/// message with the same allocation, so no hop allocates.
#[derive(Debug, Default)]
pub struct RealData {
    buf: Vec<f32>,
    op: ReduceOp,
    /// Messages not yet sent, oldest first.
    queue: VecDeque<Payload>,
    /// Two-level: what each child sent, reused for its broadcast.
    spares: Vec<Vec<f32>>,
    /// Top-k: every rank's (indices, values), by rank.
    sets: Vec<(Vec<u32>, Vec<f32>)>,
}

impl RealData {
    /// Reduce `buf` with `op`.
    pub(crate) fn new(buf: Vec<f32>, op: ReduceOp) -> RealData {
        RealData {
            buf,
            op,
            ..RealData::default()
        }
    }
}

impl PayloadKind for RealData {
    const WAVES: bool = false;

    fn dtype(wf: WireFormat) -> &'static str {
        wf.dtype_name()
    }

    fn originate(&mut self, wf: WireFormat, range: impl FnOnce() -> Range<usize>) {
        let msg = wf.encode(&self.buf[range()]);
        self.queue.push_back(msg);
    }

    fn send(&mut self, bytes: u64) -> Payload {
        let msg = self
            .queue
            .pop_front()
            .expect("the schedule queued this message");
        debug_assert_eq!(msg.size_bytes(), bytes, "the schedule's message size");
        msg
    }

    fn reduce(
        &mut self,
        incoming: Payload,
        incoming_first: bool,
        range: impl FnOnce() -> Range<usize>,
    ) {
        let acc = &mut self.buf[range()];
        let forward = wire::combine_forward(incoming, acc, self.op, incoming_first);
        self.queue.push_back(forward);
    }

    fn copy(&mut self, incoming: Payload, range: impl FnOnce() -> Range<usize>) {
        wire::copy_out(&incoming, &mut self.buf[range()]);
        self.queue.push_back(incoming);
    }

    fn requantize(&mut self, i: usize, range: impl FnOnce() -> Range<usize>) {
        wire::copy_out(&self.queue[i], &mut self.buf[range()]);
    }

    fn hand_over(&mut self, _: u64) -> Payload {
        Payload::F32(std::mem::take(&mut self.buf))
    }

    fn absorb(&mut self, incoming: Payload) {
        let child = incoming.into_f32();
        self.op.combine(&mut self.buf, &child);
        self.spares.push(child);
    }

    fn adopt(&mut self, incoming: Payload) {
        self.buf = incoming.into_f32();
    }

    fn pass_down(&mut self, _: u64) -> Payload {
        let mut out = self
            .spares
            .pop()
            .expect("the reduce received from this child");
        out.copy_from_slice(&self.buf);
        Payload::F32(out)
    }

    fn select(&mut self, k: usize, me: usize, p: usize) {
        let idx = wire::topk_indices(&self.buf, k);
        let val: Vec<f32> = idx.iter().map(|&i| self.buf[i as usize]).collect();
        self.sets = vec![(Vec::new(), Vec::new()); p];
        self.sets[me] = (idx.clone(), val.clone());
        self.queue.push_back(Payload::Sparse { idx, val });
        self.buf.fill(0.0);
    }

    fn gather(&mut self, incoming: Payload, src: usize) {
        self.sets[src] = incoming.clone().into_sparse();
        self.queue.push_back(incoming);
    }

    fn apply(&mut self, src: usize) {
        let (idx, val) = &self.sets[src];
        for (&i, &v) in idx.iter().zip(val) {
            self.buf[i as usize] += v;
        }
    }
}

/// A costs-only ring allreduce (reduce-scatter + allgather) of `elems`
/// elements over the strided participant set `{0, stride, 2·stride, …,
/// (p−1)·stride}` — all ranks (`stride` 1) or the node leaders (`stride` =
/// GPUs per node). The set is stored as `(p, stride)` rather than a `Vec`:
/// rings are built once per fusion group per step, and the allocation was
/// visible in the driven-engine profile.
///
/// This is both what a `RingSm` executes hop by hop as messages and what
/// a costs-only rank on the driven engine parks on ([`Poll::Wave`]): every
/// hop of the schedule carries nothing but a length and its arrival stamp
/// is fixed at send time, so once all `p` participants have reached the
/// ring the engine evaluates the whole thing with `RingWave::run` and no
/// `Message` is ever built. Two participants of one ring hold equal
/// descriptors; the engine treats unequal ones pending together as a
/// collective mismatch.
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
    /// communicators: in closed form when the wave is steady
    /// ([`RingWave::closed_form`]), else cell by cell ([`RingWave::cells`]),
    /// the reference. A traced world (`lanes` are the ranks' trace lanes)
    /// always runs cell by cell: its cells record spans and counters.
    pub(crate) fn run(
        &self,
        comms: &mut [Comm],
        lanes: Option<&[dlsr_trace::Lane]>,
        scratch: &mut WaveScratch,
    ) {
        let p = self.p;
        dlsr_trace::counter_add(
            dlsr_trace::report::keys::WAVE_CELLS,
            (2 * p * (p - 1)) as f64,
        );
        if lanes.is_some() || !self.closed_form(comms, scratch) {
            self.cells(comms, lanes);
        }
    }

    /// The per-cell kernel. For each of the `2·(p−1)` steps every
    /// participant accounts its send ([`Comm::account_send`]), then the
    /// receive of its left neighbour's stamp ([`Comm::account_recv`]),
    /// rotates its chunk and, in the reduce-scatter, charges the reduce —
    /// the per-rank operation order of [`RingSm::poll`], calling the
    /// accounting the message path calls, so the clocks, statistics and
    /// registration caches it leaves behind are the message path's to the
    /// bit (one more topological order under `docs/SIMCORE.md`'s
    /// determinism argument).
    ///
    /// Participant `i`'s receive needs only participant `i−1`'s send of the
    /// same step, so one sweep `send₀, send₁ recv₁, …, sendₚ₋₁ recvₚ₋₁,
    /// recv₀` visits each communicator once per step and keeps a single
    /// stamp in flight. All cursors rotate in lockstep — participant `i+1`
    /// is always one chunk above participant `i` — so the sweep carries one
    /// cursor and the kernel needs no per-participant scratch.
    ///
    /// With `lanes`, each cell runs with the lane of the rank it accounts
    /// for current, so its spans land where that rank's own thread would
    /// have recorded them.
    fn cells(&self, comms: &mut [Comm], lanes: Option<&[dlsr_trace::Lane]>) {
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

    /// Evaluate a *steady* wave — one whose hops do nothing for the first
    /// time — in closed form, and say whether it was steady; an unsteady
    /// wave is left uncharged for [`RingWave::cells`].
    ///
    /// Steadiness is read off the communicators, never assumed: every
    /// participant quotes its send to the right and its receive from the
    /// left for each of the ring's ≤ 2 chunk lengths ([`Comm::quote_send`],
    /// [`Comm::quote_recv`]), and a quote exists only when the IPC
    /// handshake is done, every registration lookup would hit, and no fault
    /// plan is set. Repeating such a hop changes nothing but the clock and
    /// the counters, so the wave is max-plus arithmetic over one clock per
    /// participant ([`closed_step`]) plus one settlement per participant.
    fn closed_form(&self, comms: &mut [Comm], scratch: &mut WaveScratch) -> bool {
        if !self.quote(comms, scratch) {
            return false;
        }
        let p = self.p;
        let WaveScratch {
            clocks,
            costs,
            long,
            ..
        } = scratch;
        // whether chunk `j mod p` is long, for `j < 2p`: the chunks of one
        // step's participants are then a window, participant 0's first
        long.clear();
        let cursors =
            std::iter::successors(Some(ChunkCursor::new(self.elems, p, 0)), |c| Some(c.up()));
        long.extend(cursors.take(2 * p).map(|c| c.class() == 1));
        // participant 0 sends chunk 0, then one chunk lower each step
        for step in 0..2 * (p - 1) {
            let base = (p - step % p) % p;
            let window = &long[base..base + p];
            if step < p - 1 {
                closed_step::<true>(clocks, costs, window);
            } else {
                closed_step::<false>(clocks, costs, window);
            }
        }
        self.settle(comms, scratch);
        true
    }

    /// Fill `scratch` with every participant's clock and quotes; `false` as
    /// soon as one participant has no quote.
    fn quote(&self, comms: &[Comm], scratch: &mut WaveScratch) -> bool {
        let RingWave {
            p,
            stride,
            elems,
            buf_id,
            wf,
            ..
        } = *self;
        // by class; a ring whose chunks all have `q` elements quotes `q` twice
        let lens = [elems / p, elems / p + usize::from(elems % p != 0)];
        scratch.clocks.clear();
        scratch.costs.clear();
        scratch.quotes.clear();
        for i in 0..p {
            let comm = &comms[i * stride];
            let (right, left) = ring_neighbours(i, p, stride);
            let quoted = lens.map(|len| {
                let bytes = wf.wire_bytes(len);
                Some((
                    comm.quote_send(right, bytes, buf_id)?,
                    comm.quote_recv(left, bytes, buf_id)?,
                ))
            });
            let [Some(short), Some(long)] = quoted else {
                return false;
            };
            let hop = [short, long];
            scratch.clocks.push(comm.now());
            scratch.costs.push(HopCosts {
                send_overhead: hop.map(|(send, _)| send.overhead),
                transfer: hop.map(|(send, _)| send.transfer),
                recv_overhead: hop.map(|(_, recv)| recv.overhead),
                reduce: lens.map(|len| comm.reduce_time(len)),
            });
            scratch.quotes.push(hop);
        }
        true
    }

    /// Hand every participant its clock and, in one call, the statistics
    /// and registration-cache state its `2·(p−1)` sends and receives leave
    /// ([`Comm::settle_hops`]). How many hops of each chunk class a
    /// participant makes follows from the schedule: participant `i` sends
    /// every chunk but `i+1` in the reduce-scatter and every chunk but `i+2`
    /// in the allgather, and receives every chunk but `i`, then every chunk
    /// but `i+1` (indices mod `p`); exactly `r = elems mod p` chunks are
    /// long.
    fn settle(&self, comms: &mut [Comm], scratch: &WaveScratch) {
        let (p, stride, buf_id) = (self.p, self.stride, self.buf_id);
        let hops = 2 * (p as u64 - 1);
        // the `r` long chunks, once per phase
        let long_both_phases = 2 * (self.elems % p) as u64;
        // the class of chunk `j mod p`
        let class = |j: usize| usize::from(scratch.long[j % p]);
        for (i, quotes) in scratch.quotes.iter().enumerate() {
            let long_sends = long_both_phases - (class(i + 1) + class(i + 2)) as u64;
            let long_recvs = long_both_phases - (class(i) + class(i + 1)) as u64;
            let sends = [hops - long_sends, long_sends];
            let recvs = [hops - long_recvs, long_recvs];
            let lookups = |c: usize| {
                let (send, recv) = quotes[c];
                sends[c] * u64::from(send.lookup) + recvs[c] * u64::from(recv.lookup)
            };
            // A hit moves its key to the front, so the classes looked up end
            // up ordered by their last lookup. With both looked up, walk the
            // participant's hops back from its last — which sends chunk
            // `i+3` and receives the one below — receive before send.
            let (by_last_lookup, touched) = match (lookups(0) > 0, lookups(1) > 0) {
                (false, false) => ([0, 0], 0),
                (true, false) => ([0, 0], 1),
                (false, true) => ([1, 1], 1),
                (true, true) => {
                    let last = (i + 3..)
                        .find_map(|sent| {
                            let (received, sent) = (class(sent + p - 1), class(sent));
                            [
                                (received, quotes[received].1.lookup),
                                (sent, quotes[sent].0.lookup),
                            ]
                            .into_iter()
                            .find_map(|(c, lookup)| lookup.then_some(c))
                        })
                        .expect("both classes are looked up");
                    ([1 - last, last], 2)
                }
            };
            comms[i * stride].settle_hops(
                scratch.clocks[i],
                &[(quotes[0].0, sends[0]), (quotes[1].0, sends[1])],
                hops,
                lookups(0) + lookups(1),
                &by_last_lookup.map(|c| (buf_id, quotes[c].0.bytes))[..touched],
            );
        }
    }
}

/// The closed form's working set, owned by the driven engine beside its
/// routing scratch and reused by every wave: once the widest ring has run,
/// a wave allocates nothing.
#[derive(Default)]
pub(crate) struct WaveScratch {
    /// Participant `i`'s clock.
    clocks: Vec<f64>,
    /// Participant `i`'s hop costs, as [`closed_step`] reads them.
    costs: Vec<HopCosts>,
    /// Participant `i`'s quotes by chunk class, for the settlement.
    quotes: Vec<[(SendQuote, RecvQuote); 2]>,
    /// Whether chunk `j mod p` is long, for `j < 2p`.
    long: Vec<bool>,
}

/// One participant's quoted hop costs by chunk class (index 0 for chunks of
/// `q` elements, 1 for `q + 1`): one cache line per participant.
#[derive(Clone, Copy)]
struct HopCosts {
    send_overhead: [f64; 2],
    transfer: [f64; 2],
    recv_overhead: [f64; 2],
    reduce: [f64; 2],
}

/// One step of a steady ring, `long[i]` saying whether participant `i`'s
/// chunk is long: the sweep of [`RingWave::cells`] where each cell is the
/// float operations a steady hop's [`Comm::account_send`],
/// [`Comm::account_recv`] and [`Comm::charge_reduce`] perform on the clock,
/// in their order — send overhead, stamp = clock + wire time, merge,
/// receive overhead, reduce charge (reduce-scatter only) — with every cost
/// quoted, none computed.
#[inline(always)]
fn closed_step<const REDUCE: bool>(clocks: &mut [f64], costs: &[HopCosts], long: &[bool]) {
    let send = |clock: &mut f64, h: &HopCosts, c: usize| {
        *clock += h.send_overhead[c];
        *clock + h.transfer[c]
    };
    let recv = |clock: &mut f64, h: &HopCosts, c: usize, stamp: f64| {
        if stamp > *clock {
            *clock = stamp;
        }
        *clock += h.recv_overhead[c];
        if REDUCE {
            *clock += h.reduce[c];
        }
    };
    let (Some((first, rest)), Some((h0, hs)), Some((&last, _))) = (
        clocks.split_first_mut(),
        costs.split_first(),
        long.split_last(),
    ) else {
        return;
    };
    let mut stamp = send(first, h0, usize::from(long[0]));
    // the chunk in flight is the left neighbour's
    for (((clock, h), &in_flight), &mine) in rest.iter_mut().zip(hs).zip(long).zip(&long[1..]) {
        let sent = send(clock, h, usize::from(mine));
        recv(clock, h, usize::from(in_flight), stamp);
        stamp = sent;
    }
    recv(first, h0, usize::from(last), stamp);
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

/// Ring allreduce (reduce-scatter + allgather) for one participant: the
/// message path of a [`RingWave`] — the costs-only kind's on the context
/// core, every other kind's on both cores, and the reference the wave is
/// held equal to (`all_cores_agree_bitwise`, `tests/wave_equivalence.rs`).
///
/// Forwarding: the chunk a step receives is the chunk the next step sends
/// (across the phase boundary too), so a rank encodes only its first
/// message and every later one is the payload just received, folded in
/// place or read out. Wire compression: each reduce-scatter hop folds the
/// decoded partial sum into f32; after the reduce-scatter the owner
/// **re-quantizes its fully reduced chunk once** — the allgather then
/// circulates already-quantized values, whose re-encode is lossless, so
/// every rank finishes with bit-identical buffers (`docs/WIRE.md`).
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
    #[allow(clippy::too_many_arguments)]
    fn new(
        comm: &Comm,
        kind: &mut impl PayloadKind,
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
        let chunk = ChunkCursor::new(elems, p, me);
        kind.originate(wf, || chunk.range());
        RingSm {
            ring: RingWave {
                seq,
                p,
                stride,
                elems,
                buf_id,
                wf,
            },
            chunk,
            right,
            left,
            phase: 0,
            step: 0,
            sent: false,
        }
    }

    fn poll<K: PayloadKind>(&mut self, comm: &mut Comm, kind: &mut K) -> Poll {
        let RingWave {
            seq, p, buf_id, wf, ..
        } = self.ring;
        if p <= 1 {
            return Poll::Ready;
        }
        if K::WAVES && comm.on_driven_wire() && self.phase < 2 {
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
                    let msg = kind.send(wf.wire_bytes(self.chunk.len()));
                    comm.isend(self.right, tag, msg, buf_id);
                    self.sent = true;
                }
                let Some(incoming) = comm.try_recv_buffered(self.left, tag, buf_id) else {
                    return Poll::Pending {
                        src: self.left,
                        tag,
                    };
                };
                // the chunk just received is the one the next hop sends
                self.chunk = self.chunk.down();
                let chunk = self.chunk;
                if self.phase == 0 {
                    comm.charge_reduce(chunk.len());
                    kind.reduce(incoming, false, || chunk.range());
                } else {
                    kind.copy(incoming, || chunk.range());
                }
                self.sent = false;
                self.step += 1;
            }
            // the owner's re-quantization point: the last reduce-scatter
            // step left `enc(v)` of the chunk this rank owns queued for the
            // allgather, and decoding it is `Q(v)`
            if self.phase == 0 && !wf.is_f32() {
                let own = self.chunk;
                kind.requantize(0, || own.range());
            }
            self.phase += 1;
            self.step = 0;
        }
        Poll::Ready
    }
}

/// Chunked, pipelined ring: the exact ring schedule, but each block moves
/// as `chunk_elems`-sized sub-chunks, sub-send `i+1` posted the moment
/// sub-recv `i` lands — *before* its reduce — so the next transfer is on
/// the wire while the reduce kernel runs, and per ring step only one
/// sub-chunk reduction stays on the virtual-clock critical path.
/// Consecutive sends stay at least one sub-cycle apart, so wire occupancy
/// is still serialized.
///
/// Per-element combine order is the plain ring's — sub-chunking only
/// splits *which slice* a combine covers, never the rank order in which an
/// element accumulates — and encode, decode and the re-quantization point
/// are elementwise, so the results equal [`RingSm`]'s bit for bit for
/// every `ReduceOp` and `WireFormat`. Sub-chunks are forwarded like the
/// ring's chunks.
struct PipeSm {
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
        kind: &mut impl PayloadKind,
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
        // the first step's sub-chunk messages
        for i in 0..block.len().div_ceil(chunk_elems) {
            kind.originate(wf, || sub_range(block.range(), chunk_elems, i));
        }
        PipeSm {
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

    /// Post this step's next sub-send, of a `send_len`-element block.
    fn post(
        &mut self,
        comm: &mut Comm,
        kind: &mut impl PayloadKind,
        phase_step: u64,
        send_len: usize,
    ) {
        let i = self.next_send;
        let len = self.chunk_elems.min(send_len - i * self.chunk_elems);
        let msg = kind.send(self.wf.wire_bytes(len));
        let tag = coll_tag(self.seq, phase_step | i as u64);
        comm.isend(self.right, tag, msg, self.buf_id);
        self.next_send += 1;
    }

    /// `group` is the fusion-group label of the sub-chunk spans.
    fn poll(&mut self, comm: &mut Comm, kind: &mut impl PayloadKind, group: Option<usize>) -> Poll {
        let ChunkCursor { q, r, p, .. } = self.block;
        if p <= 1 {
            return Poll::Ready;
        }
        // Sub-chunks stream through the path the parent buffer's
        // rendezvous established (an IPC mapping covers the whole
        // registered buffer), so path selection keys on the full dense
        // size. Set per poll (a poll never interleaves with another task's
        // sends) and cleared on every exit.
        comm.set_rendezvous_bytes(Some(((q * p + r) * 4) as u64));
        let ce = self.chunk_elems;
        let (subs_short, subs_long) = (self.subs_short, self.subs_long);
        let subs = |block: usize| if block == q { subs_short } else { subs_long };
        while self.phase < 2 {
            while self.step < p - 1 {
                let recv_block = self.block.down();
                let (send_len, recv_len) = (self.block.len(), recv_block.len());
                let phase_step = ((usize::from(self.phase) * p + self.step) as u64) << 20;
                let (n_send, n_recv) = (subs(send_len), subs(recv_len));
                if !self.primed {
                    if n_send > 0 {
                        self.post(comm, kind, phase_step, send_len);
                    }
                    self.primed = true;
                }
                while self.recv_i < n_recv {
                    let i = self.recv_i;
                    let tag = coll_tag(self.seq, phase_step | i as u64);
                    let t0 = comm.now();
                    let Some(incoming) = comm.try_recv_buffered(self.left, tag, self.buf_id) else {
                        comm.set_rendezvous_bytes(None);
                        return Poll::Pending {
                            src: self.left,
                            tag,
                        };
                    };
                    if self.next_send < n_send {
                        self.post(comm, kind, phase_step, send_len);
                    }
                    let len = ce.min(recv_len - i * ce);
                    let range = || sub_range(recv_block.range(), ce, i);
                    if self.phase == 0 {
                        comm.charge_reduce(len);
                        kind.reduce(incoming, false, range);
                    } else {
                        kind.copy(incoming, range);
                    }
                    let (label, step) = (["rs", "ag"][usize::from(self.phase)], self.step);
                    dlsr_trace::record_span(
                        || match group {
                            Some(g) => {
                                format!("allreduce.pr[g{g}] {label}{step}.c{i} {}B", len * 4)
                            }
                            None => format!("allreduce.pr {label}{step}.c{i} {}B", len * 4),
                        },
                        dlsr_trace::cat::MPI,
                        t0,
                        comm.now(),
                    );
                    self.recv_i += 1;
                }
                while self.next_send < n_send {
                    self.post(comm, kind, phase_step, send_len);
                }
                self.block = recv_block;
                self.step += 1;
                self.next_send = 0;
                self.recv_i = 0;
                self.primed = false;
            }
            // the plain ring's re-quantization point, sub-chunk by
            // sub-chunk: the last reduce-scatter step left the owned
            // block's messages queued for the allgather
            if self.phase == 0 && !self.wf.is_f32() {
                let own = self.block;
                for i in 0..subs(own.len()) {
                    kind.requantize(i, || sub_range(own.range(), ce, i));
                }
            }
            self.phase += 1;
            self.step = 0;
        }
        comm.set_rendezvous_bytes(None);
        Poll::Ready
    }
}

/// Recursive doubling: log₂ p full-buffer exchanges (power-of-two worlds).
///
/// Wire compression quantizes *both* sides of every hop — the local
/// accumulator and the decoded incoming buffer — so each exchange computes
/// `Q(a) op Q(b)` on both partners, always with the lower rank's operand
/// first: `+`, `max` and `min` are not bitwise commutative on NaN payloads
/// and signed zeros, so partners agree bitwise after every hop only because
/// they evaluate the same expression, and by induction all ranks finish
/// identical. Each hop sends the payload the previous one received, folded
/// in place: only the first is encoded.
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
    fn new(
        kind: &mut impl PayloadKind,
        elems: usize,
        buf_id: u64,
        seq: u64,
        wf: WireFormat,
    ) -> RdSm {
        kind.originate(wf, || 0..elems);
        RdSm {
            elems,
            buf_id,
            seq,
            wf,
            mask: 1,
            step: 0,
            sent: false,
        }
    }

    fn poll(&mut self, comm: &mut Comm, kind: &mut impl PayloadKind) -> Poll {
        let p = comm.size();
        let rank = comm.rank();
        let elems = self.elems;
        while self.mask < p {
            let partner = rank ^ self.mask;
            let tag = coll_tag(self.seq, self.step);
            if !self.sent {
                // Q(a): the decode of what this hop sends, as the partner
                // sees it
                if !self.wf.is_f32() {
                    kind.requantize(0, || 0..elems);
                }
                let msg = kind.send(self.wf.wire_bytes(elems));
                comm.isend(partner, tag, msg, self.buf_id);
                self.sent = true;
            }
            let Some(incoming) = comm.try_recv_buffered(partner, tag, self.buf_id) else {
                return Poll::Pending { src: partner, tag };
            };
            comm.charge_reduce(elems);
            kind.reduce(incoming, partner < rank, || 0..elems);
            self.sent = false;
            self.mask <<= 1;
            self.step += 1;
        }
        Poll::Ready
    }
}

/// Top-k sparse allreduce: each rank selects its `k` largest-|g|
/// coordinates ([`wire::topk_indices`] — deterministic), the sparse sets
/// circulate the ring in `p−1` hops (8 bytes per coordinate on the wire),
/// then **every** rank applies all `p` sets densely in rank order `0..p`.
/// Identical sets + identical application order ⇒ bit-identical results
/// everywhere, with no re-quantization (values stay f32). The caller's
/// fusion layer owns the error-feedback residual: this schedule reduces
/// exactly what it is handed. Sum only.
struct TopkSm {
    k: usize,
    buf_id: u64,
    seq: u64,
    step: usize,
    sent: bool,
}

impl TopkSm {
    fn new(comm: &Comm, kind: &mut impl PayloadKind, k: usize, buf_id: u64, seq: u64) -> TopkSm {
        kind.select(k, comm.rank(), comm.size());
        TopkSm {
            k,
            buf_id,
            seq,
            step: 0,
            sent: false,
        }
    }

    fn poll(&mut self, comm: &mut Comm, kind: &mut impl PayloadKind) -> Poll {
        let (p, me) = (comm.size(), comm.rank());
        let (right, left) = ring_neighbours(me, p, 1);
        while self.step < p - 1 {
            let tag = coll_tag(self.seq, self.step as u64);
            if !self.sent {
                comm.isend(right, tag, kind.send((self.k * 8) as u64), self.buf_id);
                self.sent = true;
            }
            let Some(incoming) = comm.try_recv_buffered(left, tag, self.buf_id) else {
                return Poll::Pending { src: left, tag };
            };
            // after `step+1` hops the set arriving from the left originated
            // at rank me-(step+1)
            kind.gather(incoming, (me + p - self.step - 1) % p);
            self.sent = false;
            self.step += 1;
        }
        // dense application, every rank in the same order
        for src in 0..p {
            comm.charge_reduce(self.k);
            kind.apply(src);
        }
        Poll::Ready
    }
}

/// Hierarchical two-level allreduce (the MVAPICH2-GDR dense-GPU design):
/// binomial intra-node reduce to the node leader → ring among the leaders
/// → binomial intra-node broadcast. The intra-node phases are the large
/// GPU transfers the CUDA IPC fix accelerates; they ride NVLink/IPC where
/// bandwidth is plentiful and move whole lossless f32 buffers. Wire
/// compression applies to the inter-node leader ring only, which runs
/// chunk-pipelined when [`crate::config::CommTuning::hierarchical`] is on
/// and the buffer is in the pipelined size bin (bitwise identical to the
/// plain leader ring).
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
    /// `group` labels the leader ring's sub-chunk spans.
    fn poll(&mut self, comm: &mut Comm, kind: &mut impl PayloadKind, group: Option<usize>) -> Poll {
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
        let whole = (self.elems * 4) as u64;
        loop {
            match &mut self.state {
                TwoLevelState::IntraReduce { mask } => {
                    if gpn > 1 {
                        while *mask < gpn {
                            if r & *mask != 0 {
                                let parent = leader + (r - *mask);
                                let msg = kind.hand_over(whole);
                                comm.send(parent, coll_tag(self.seq, 0), msg, self.buf_id);
                                break;
                            }
                            let src = r + *mask;
                            if src < gpn {
                                let tag = coll_tag(self.seq, 0);
                                let Some(incoming) =
                                    comm.try_recv_buffered(leader + src, tag, self.buf_id)
                                else {
                                    return Poll::Pending {
                                        src: leader + src,
                                        tag,
                                    };
                                };
                                comm.charge_reduce(self.elems);
                                kind.absorb(incoming);
                            }
                            *mask <<= 1;
                        }
                    }
                    self.state = if nodes > 1 && rank == leader {
                        // leader ring: ranks {0, gpn, 2·gpn, …}
                        let tuning = comm.config().tuning;
                        if tuning.hierarchical && whole >= tuning.pipeline_threshold {
                            let chunk_elems = (tuning.pipeline_chunk as usize / 4).max(1);
                            TwoLevelState::Pipe(PipeSm::new(
                                comm,
                                kind,
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
                                kind,
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
                TwoLevelState::Ring(ring) => match ring.poll(comm, kind) {
                    Poll::Ready => self.state = TwoLevelState::Bcast,
                    pending => return pending,
                },
                TwoLevelState::Pipe(pipe) => match pipe.poll(comm, kind, group) {
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
                            let Some(incoming) = comm.try_recv_buffered(src, tag, self.buf_id)
                            else {
                                return Poll::Pending { src, tag };
                            };
                            kind.adopt(incoming);
                            mask = recv_mask;
                        }
                        mask >>= 1;
                        while mask > 0 {
                            if r + mask < gpn {
                                let msg = kind.pass_down(whole);
                                let child = leader + r + mask;
                                comm.send(child, coll_tag(self.seq, 1), msg, self.buf_id);
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

/// One allreduce as a resumable task, over either payload kind. Both kinds
/// file the same verify signature (but for the dtype slot), and record the
/// same `allreduce.{algo}[+wire][g{g}] {bytes}B` span and
/// `mpi.collectives` / `mpi.wire_bytes` / `mpi.wire_dense_bytes` counters,
/// once, on `Ready`.
pub struct AllreduceTask<K> {
    kind: K,
    elems: usize,
    buf_id: u64,
    op: ReduceOp,
    choice: CommChoice,
    group: Option<usize>,
    t0: f64,
    inner: Option<AllreduceInner>,
}

/// A costs-only sum-allreduce of `elems` f32 elements — what the
/// simulator's rank programs yield.
pub type AllreduceElemsTask = AllreduceTask<CostsOnly>;

impl AllreduceTask<CostsOnly> {
    /// Build the task; nothing happens until the first `poll`.
    pub fn new(elems: usize, buf_id: u64, algo: AllreduceAlgorithm) -> AllreduceElemsTask {
        AllreduceElemsTask::new_wire(elems, buf_id, algo, WireFormat::F32)
    }

    /// [`AllreduceElemsTask::new`] with an explicit wire format: encoded
    /// payload sizes on the wire (and the top-k sparse schedule) without
    /// real data.
    pub fn new_wire(
        elems: usize,
        buf_id: u64,
        algo: AllreduceAlgorithm,
        wf: WireFormat,
    ) -> AllreduceElemsTask {
        let choice = CommChoice { algo, wire: wf };
        AllreduceTask::with_kind(CostsOnly, elems, buf_id, ReduceOp::Sum, choice, None)
    }
}

impl AllreduceTask<RealData> {
    /// The buffer the task owns: reduced once the task is `Ready`.
    pub(crate) fn into_buf(self) -> Vec<f32> {
        self.kind.buf
    }
}

impl<K: PayloadKind> AllreduceTask<K> {
    /// An allreduce of `elems` elements over `kind`, algorithm and wire
    /// format resolved; nothing happens until the first `poll`.
    pub(crate) fn with_kind(
        kind: K,
        elems: usize,
        buf_id: u64,
        op: ReduceOp,
        choice: CommChoice,
        group: Option<usize>,
    ) -> AllreduceTask<K> {
        AllreduceTask {
            kind,
            elems,
            buf_id,
            op,
            choice,
            group,
            t0: 0.0,
            inner: None,
        }
    }

    /// The resolved algorithm's schedule, its first messages queued.
    fn start(&mut self, comm: &mut Comm) -> AllreduceInner {
        let (elems, buf_id, wf) = (self.elems, self.buf_id, self.choice.wire);
        let kind = &mut self.kind;
        let size = comm.size();
        let seq = comm.next_seq();
        if let WireFormat::TopK { k_permille } = wf {
            let k = wire::topk_count(elems, k_permille);
            return AllreduceInner::Topk(TopkSm::new(comm, kind, k, buf_id, seq));
        }
        match self.choice.algo {
            AllreduceAlgorithm::RecursiveDoubling if size.is_power_of_two() => {
                AllreduceInner::Rd(RdSm::new(kind, elems, buf_id, seq, wf))
            }
            AllreduceAlgorithm::Ring | AllreduceAlgorithm::RecursiveDoubling => {
                AllreduceInner::Ring(RingSm::new(comm, kind, elems, size, 1, buf_id, seq, wf))
            }
            AllreduceAlgorithm::TwoLevel => AllreduceInner::TwoLevel(TwoLevelSm {
                elems,
                buf_id,
                seq,
                wf,
                state: TwoLevelState::IntraReduce { mask: 1 },
            }),
            AllreduceAlgorithm::PipelinedRing => {
                let chunk_elems = (comm.config().tuning.pipeline_chunk as usize / 4).max(1);
                AllreduceInner::Pipe(PipeSm::new(
                    comm,
                    kind,
                    elems,
                    size,
                    1,
                    buf_id,
                    seq,
                    chunk_elems,
                    wf,
                ))
            }
        }
    }

    /// The span and counters of a finished allreduce — one trace-scope test
    /// on the untraced path, which a 512-rank step takes thousands of times.
    fn record(&self, comm: &Comm) {
        use dlsr_trace::report::keys;
        if !dlsr_trace::is_on() {
            return;
        }
        let (CommChoice { algo, wire: wf }, group) = (self.choice, self.group);
        let bytes = self.elems * 4;
        dlsr_trace::counter_add(keys::WIRE_DENSE_BYTES, bytes as f64);
        dlsr_trace::counter_add(keys::WIRE_BYTES, wf.wire_bytes(self.elems) as f64);
        dlsr_trace::record_span(
            || {
                let name = if let WireFormat::TopK { .. } = wf {
                    "topk".to_string()
                } else if wf.is_f32() {
                    format!("{algo:?}")
                } else {
                    format!("{algo:?}+{wf}")
                };
                match group {
                    Some(g) => format!("allreduce.{name}[g{g}] {bytes}B"),
                    None => format!("allreduce.{name} {bytes}B"),
                }
            },
            dlsr_trace::cat::MPI,
            self.t0,
            comm.now(),
        );
        dlsr_trace::counter_add(keys::MPI_COLLECTIVES, 1.0);
    }
}

impl<K: PayloadKind> EventTask for AllreduceTask<K> {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        if comm.size() == 1 {
            return Poll::Ready;
        }
        if self.inner.is_none() {
            // The wire format rides the signature's dtype slot: format skew
            // between ranks must surface as a CollectiveMismatch at the
            // rendezvous, never as a hang or a payload decode panic
            // mid-schedule.
            comm.verify_coll(
                "allreduce",
                self.op.label(),
                K::dtype(self.choice.wire),
                self.elems,
                self.choice.algo.label(),
                self.group,
                0,
            );
            self.t0 = comm.now();
            self.inner = Some(self.start(comm));
        }
        let (kind, group) = (&mut self.kind, self.group);
        let done = match self.inner.as_mut().expect("started above") {
            AllreduceInner::Ring(sm) => sm.poll(comm, kind),
            AllreduceInner::Rd(sm) => sm.poll(comm, kind),
            AllreduceInner::TwoLevel(sm) => sm.poll(comm, kind, group),
            AllreduceInner::Pipe(sm) => sm.poll(comm, kind, group),
            AllreduceInner::Topk(sm) => sm.poll(comm, kind),
        };
        if let Poll::Ready = done {
            self.record(comm);
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

/// Blocking entry used by [`super::barrier`].
pub(crate) fn drive_barrier(comm: &mut Comm) {
    let mut task = BarrierTask::new();
    drive_task(comm, &mut task);
}

#[cfg(test)]
mod tests {
    use crate::collectives::{Allreduce, CollectiveBuf};
    use crate::comm::{CommStats, PathPolicy};
    use crate::config::MpiConfig;
    use crate::executor::{drive_program, RankProgram, Step, Task};
    use crate::verify::{Violation, ViolationKind};
    use crate::world::MpiWorld;
    use dlsr_net::{ClusterTopology, RegCacheStats};

    use super::*;

    /// A small rank program with per-rank clock skew between collectives,
    /// so scheduling mistakes would show up as clock divergence. A rank for
    /// which `elems_of` answers `None` parks for good on a receive nobody
    /// sends instead of its first allreduce (a bug the engine must
    /// diagnose, not a supported program). With `real` set,
    /// each allreduce reduces a fresh rank-dependent buffer in that wire
    /// format, which the engine hands back through
    /// [`RankProgram::task_done`]; else it is costs-only.
    struct Prog<F> {
        algo: AllreduceAlgorithm,
        elems_of: F,
        real: Option<WireFormat>,
        buf: Vec<f32>,
        left: usize,
    }

    impl<F: Fn(usize) -> Option<usize>> Prog<F> {
        fn per_rank(algo: AllreduceAlgorithm, elems_of: F) -> Prog<F> {
            Prog {
                algo,
                elems_of,
                real: None,
                buf: Vec::new(),
                left: 3,
            }
        }
    }

    /// Every rank reduces `elems` elements: real ones in wire format
    /// `real`, or costs only.
    fn uniform(
        algo: AllreduceAlgorithm,
        elems: usize,
        real: Option<WireFormat>,
    ) -> Prog<impl Fn(usize) -> Option<usize>> {
        Prog {
            real,
            ..Prog::per_rank(algo, move |_| Some(elems))
        }
    }

    /// Rank `rank`'s input: awkward floats, so fold order shows in the bits.
    fn input(rank: usize, elems: usize) -> Vec<f32> {
        (0..elems)
            .map(|i| (rank * 31 + i) as f32 * 0.1 - 1.7)
            .collect()
    }

    fn bits(buf: &[f32]) -> Vec<u32> {
        buf.iter().map(|v| v.to_bits()).collect()
    }

    /// Everything a rank's communicator holds at the end of a run that the
    /// two cores must agree on — clock bits, statistics, registration cache
    /// — and the bits of the buffer the last allreduce handed back.
    type Outcome = (u64, CommStats, RegCacheStats, Vec<u32>);

    impl<F: Fn(usize) -> Option<usize>> RankProgram for Prog<F> {
        type Out = Outcome;
        fn next(&mut self, comm: &mut Comm) -> Step {
            if self.left == 0 {
                return Step::Done;
            }
            self.left -= 1;
            comm.advance(1.0e-5 * (comm.rank() as f64 + 1.0));
            if self.left == 1 {
                return Step::Task(BarrierTask::new().into());
            }
            let Some(elems) = (self.elems_of)(comm.rank()) else {
                return Step::Task(Task::custom(NobodySends));
            };
            let Some(wf) = self.real else {
                return Step::Task(AllreduceElemsTask::new(elems, 1, self.algo).into());
            };
            self.buf = input(comm.rank(), elems);
            let req = Allreduce::new(&mut self.buf).buf_id(1).algo(self.algo);
            Step::Task(req.wire(wf).task(comm))
        }
        fn task_done(&mut self, task: Task) {
            if let Some(buf) = task.into_buf() {
                self.buf = buf;
            }
        }
        fn finish(&mut self, comm: &mut Comm, _trace: Vec<dlsr_trace::TraceEvent>) -> Outcome {
            (
                comm.now().to_bits(),
                comm.stats().clone(),
                comm.regcache_stats(),
                bits(&self.buf),
            )
        }
    }

    /// The correctness bar: the driven engine — whose costs-only rings run
    /// as waves — and the event context core (at several worker counts) —
    /// whose rings exchange messages — leave *bit-identical* clocks,
    /// statistics and registration caches on every rank: on a power-of-two
    /// world and on a 3-node one (a non-power-of-two leader ring and a
    /// 12-rank flat ring), with element counts that do and do not divide by
    /// the ring size, small enough for single-element and empty chunks
    /// included. Real-payload programs run the same comparison, buffers
    /// included, on 2 and 3 nodes in f32, bf16 and top-k, and the buffer a
    /// program gets back must be the one the blocking allreduce computes.
    /// `tests/wave_equivalence.rs` draws the costs-only comparison from the
    /// whole configuration space.
    #[test]
    fn all_cores_agree_bitwise() {
        let costs_only = [(2, 123_457), (3, 123_457), (3, 120_000), (3, 7), (2, 5)]
            .map(|(nodes, elems)| (nodes, elems, None));
        let top_k = WireFormat::TopK { k_permille: 200 };
        let real = [2, 3].into_iter().flat_map(|nodes| {
            [WireFormat::F32, WireFormat::Bf16, top_k].map(|wf| (nodes, 1_003, Some(wf)))
        });
        for (nodes, elems, real) in costs_only.into_iter().chain(real) {
            let topo = ClusterTopology::lassen(nodes);
            for algo in AllreduceAlgorithm::ALL {
                let what = format!("{algo:?}, {nodes} nodes, {elems} elems, real {real:?}");
                let driven = MpiWorld::run_driven(&topo, MpiConfig::mpi_opt(), |_| {
                    uniform(algo, elems, real)
                })
                .ranks;
                for workers in [1usize, 4, 8] {
                    let mut cfg = MpiConfig::mpi_opt();
                    cfg.sim_workers = workers;
                    let event = MpiWorld::run(&topo, cfg, move |c| {
                        drive_program(c, uniform(algo, elems, real))
                    })
                    .ranks;
                    assert_eq!(driven, event, "{what}: driven vs event(workers={workers})");
                }
                let Some(wf) = real else { continue };
                let blocking = MpiWorld::run(&topo, MpiConfig::mpi_opt(), move |c| {
                    let mut buf = input(c.rank(), elems);
                    Allreduce::new(&mut buf)
                        .buf_id(1)
                        .algo(algo)
                        .wire(wf)
                        .run(c);
                    bits(&buf)
                })
                .ranks;
                for (rank, (got, want)) in driven.iter().zip(&blocking).enumerate() {
                    assert_eq!(&got.3, want, "{what}: rank {rank} got another buffer back");
                }
            }
        }
    }

    /// A 512-rank costs-only allreduce of a 10 MB gradient runs in
    /// milliseconds of wall time and bytes of memory — the scale the
    /// costs-only kind exists for.
    #[test]
    fn a_costs_only_allreduce_scales_to_512_ranks() {
        let topo = ClusterTopology::lassen(128);
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
            Allreduce::new(CollectiveBuf::costs_only(2_500_000))
                .buf_id(1)
                .algo(AllreduceAlgorithm::TwoLevel)
                .run(c);
            c.now()
        });
        assert_eq!(res.ranks.len(), 512);
        assert!(res.makespan() > 0.0);
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

    /// A receive nobody sends: the rank parks on it for good, having filed
    /// nothing the world's ledger could flag.
    struct NobodySends;

    impl EventTask for NobodySends {
        fn poll(&mut self, comm: &mut Comm) -> Poll {
            let (src, tag) = (0, u64::MAX);
            match comm.try_recv_buffered(src, tag, 0) {
                Some(_) => Poll::Ready,
                None => Poll::Pending { src, tag },
            }
        }
    }

    /// Parks once on `ring` as its participants do, with no top-level
    /// collective entry (so no signature) before it.
    struct ParksOn(Option<RingWave>);

    impl EventTask for ParksOn {
        fn poll(&mut self, _comm: &mut Comm) -> Poll {
            self.0.take().map_or(Poll::Ready, Poll::Wave)
        }
    }

    /// Runs one task, if any, and finishes.
    struct Once(Option<Task>);

    impl RankProgram for Once {
        type Out = ();
        fn next(&mut self, _comm: &mut Comm) -> Step {
            self.0.take().map_or(Step::Done, Step::Task)
        }
        fn finish(&mut self, _comm: &mut Comm, _trace: Vec<dlsr_trace::TraceEvent>) {}
    }

    /// A world stuck on a partial wave says who waits in which ring — a
    /// rank parked on a wave has no `(src, tag)` to list. Node 1's leader
    /// parks on a receive instead of entering the allreduce, so every
    /// signature filed agrees and the ledger never fires.
    #[test]
    fn a_partial_wave_is_named_in_the_deadlock_panic() {
        let topo = ClusterTopology::lassen(3);
        let (kind, msg) = panic_message(|| {
            MpiWorld::run_driven(&topo, MpiConfig::mpi_opt(), |_| {
                Prog::per_rank(AllreduceAlgorithm::TwoLevel, |rank| {
                    (rank != 4).then_some(1000)
                })
            });
        });
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
    /// the collective: reported at the second arrival, naming both. The
    /// leaders park on their leader ring directly: through the top-level
    /// entry the ledger catches the disagreement one level up first
    /// (`verify_matching.rs::a_mis_sized_wave_is_a_signature_mismatch`).
    #[test]
    fn a_mis_sized_wave_is_a_mismatch_panic() {
        let topo = ClusterTopology::lassen(3);
        let (kind, msg) = panic_message(|| {
            MpiWorld::run_driven(&topo, MpiConfig::mpi_opt(), |rank| {
                let ring = RingWave {
                    seq: 1,
                    p: 3,
                    stride: 4,
                    elems: if rank / 4 == 1 { 999 } else { 1000 },
                    buf_id: 1,
                    wf: WireFormat::F32,
                };
                Once((rank % 4 == 0).then(|| Task::custom(ParksOn(Some(ring)))))
            });
        });
        assert_eq!(kind, ViolationKind::CollectiveMismatch);
        for elems in [999, 1000] {
            let named = format!("ring allreduce #1 of {elems} elems");
            assert!(msg.contains(&named), "{msg}");
        }
        assert!(
            msg.contains("collective mismatch on the driven core"),
            "{msg}"
        );
    }

    /// `p` communicators of a world on the driven wire, with no engine
    /// around them: a wave is evaluated on them directly.
    fn bare_world(topo: &ClusterTopology, policy: PathPolicy) -> Vec<Comm> {
        let cfg = std::sync::Arc::new(MpiConfig::mpi_opt());
        let registries = std::sync::Arc::new(
            (0..topo.nodes)
                .map(|_| dlsr_gpu::IpcRegistry::new())
                .collect::<Vec<_>>(),
        );
        let ledger = crate::verify::Ledger::new(topo.total_gpus());
        (0..topo.total_gpus())
            .map(|rank| {
                let mut comm = Comm::new(
                    rank,
                    topo.clone(),
                    std::sync::Arc::clone(&cfg),
                    crate::comm::Wire::Driven { outbox: Vec::new() },
                    None,
                    std::sync::Arc::clone(&registries),
                    std::sync::Arc::clone(&ledger),
                );
                comm.set_path_policy(policy);
                comm
            })
            .collect()
    }

    /// Everything a wave can leave on a communicator: clock bits,
    /// statistics, registration statistics and both caches' recency order.
    type Snapshot = (u64, CommStats, RegCacheStats, [Vec<(u64, u64)>; 2]);

    fn snapshot(comms: &[Comm]) -> Vec<Snapshot> {
        comms
            .iter()
            .map(|c| {
                let (clock, stats, reg) =
                    (c.now().to_bits(), c.stats().clone(), c.regcache_stats());
                (clock, stats, reg, c.regcache_recency())
            })
            .collect()
    }

    /// The closed form against its reference, the per-cell kernel, on two
    /// identical hand-built worlds: each round skews every rank's clock
    /// the same way on both, then evaluates one ring per cell on the first
    /// world and in closed form (falling back per cell, as `run` does,
    /// only where the wave is not steady) on the second. The rings: leader
    /// rings of 2 and 3 nodes and 8- and 12-rank flat rings (hops within a
    /// node and across, so a rank may look up the cache on its send but
    /// not on its receive), under both path policies, with chunk lengths
    /// both above the 16 KiB RDMA threshold (lookups of both lengths,
    /// whose last-lookup order differs between ranks), straddling it
    /// (lookups of one length), below it or empty (none), and all equal.
    /// The first round is cold; the closed form must refuse it exactly
    /// where it would register or shake hands, and accept every warm one.
    #[test]
    fn a_steady_wave_in_closed_form_equals_the_per_cell_kernel() {
        use WireFormat::{Bf16, F32};
        let (mpi, nccl) = (PathPolicy::Mpi, PathPolicy::NcclLike);
        // (nodes, stride, elems per participant, extra elems, wire, policy, cold round steady)
        let cases = [
            (3, 4, 4099, 1, F32, mpi, false),
            (2, 4, 4099, 1, F32, mpi, false),
            (2, 1, 4096, 5, F32, mpi, false),
            (2, 1, 4095, 3, F32, mpi, false),
            (2, 1, 4099, 7, F32, nccl, false),
            (2, 4, 4099, 1, F32, nccl, false),
            (2, 4, 1000, 1, F32, nccl, true),
            (3, 4, 8192, 0, F32, mpi, false),
            (3, 4, 1000, 0, Bf16, mpi, true),
            (3, 1, 0, 5, F32, mpi, true),
        ];
        let mut scratch = WaveScratch::default();
        for (nodes, stride, per, extra, wf, policy, cold_steady) in cases {
            let topo = ClusterTopology::lassen(nodes);
            let p = topo.total_gpus() / stride;
            let elems = per * p + extra;
            let ring = RingWave {
                seq: 1,
                p,
                stride,
                elems,
                buf_id: 9,
                wf,
            };
            let what = format!("{ring} under {policy:?}");
            let [mut cells, mut closed] = [0, 1].map(|_| bare_world(&topo, policy));
            for round in 0..3 {
                for comms in [&mut cells, &mut closed] {
                    for (rank, comm) in comms.iter_mut().enumerate() {
                        comm.advance(1.0e-5 * ((rank * 7 + round * 3) % 11) as f64);
                    }
                }
                ring.cells(&mut cells, None);
                let before = snapshot(&closed);
                let steady = ring.closed_form(&mut closed, &mut scratch);
                if !steady {
                    assert_eq!(snapshot(&closed), before, "{what}: a refused wave charged");
                    ring.cells(&mut closed, None);
                }
                assert_eq!(
                    steady,
                    round > 0 || cold_steady,
                    "{what}, round {round}: steady"
                );
                for (rank, (c, f)) in snapshot(&cells).iter().zip(snapshot(&closed)).enumerate() {
                    assert_eq!(
                        *c, f,
                        "{what}, round {round}, rank {rank}: per cell vs closed form"
                    );
                }
            }
        }
    }

    /// The incremental chunk arithmetic against `chunk_range`, from every
    /// starting chunk through two full rotations down and back up.
    #[test]
    fn chunk_cursor_matches_chunk_range() {
        for p in [1usize, 2, 3, 4, 7, 12, 128] {
            for elems in [0usize, 1, 5, p - 1, p, p + 1, 1000, 123_457, 8 << 20] {
                for start in 0..p {
                    let mut cursor = ChunkCursor::new(elems, p, start);
                    for k in 0..2 * p {
                        let i = (start + 2 * p - k) % p;
                        let want = chunk_range(elems, p, i);
                        assert_eq!(cursor.len(), want.len(), "elems {elems}, p {p}, chunk {i}");
                        assert_eq!(cursor.range(), want, "elems {elems}, p {p}, chunk {i}");
                        assert_eq!(cursor.down().up().rem, cursor.rem);
                        cursor = cursor.down();
                    }
                    for k in 0..2 * p {
                        let i = (start + k) % p;
                        let want = chunk_range(elems, p, i);
                        assert_eq!(
                            cursor.len(),
                            want.len(),
                            "elems {elems}, p {p}, chunk {i} (up)"
                        );
                        assert_eq!(cursor.range(), want, "elems {elems}, p {p}, chunk {i} (up)");
                        cursor = cursor.up();
                    }
                }
            }
        }
    }
}
