//! The per-rank communicator: point-to-point messaging with CUDA-aware
//! path selection, IPC handshakes, registration caching and virtual-time
//! accounting.

use std::collections::VecDeque;
use std::sync::Arc;

use dlsr_gpu::{DeviceEnv, GpuId, IpcRegistry};
use dlsr_net::{ClusterTopology, RegCacheStats, RegistrationCache, TransportPath};

use crate::clock::VClock;
use crate::config::{DeviceMode, MpiConfig};
use crate::error::CommError;
use crate::executor::budget::FlightBudget;
use crate::executor::fabric::EventFabric;
use crate::message::{Message, Payload};

/// Per-rank communication statistics (drives Fig 11's hit-rate numbers and
/// the transport-mix assertions in tests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Bytes sent over NVLink P2P (IPC path).
    pub nvlink_bytes: u64,
    /// Bytes sent via host staging.
    pub staged_bytes: u64,
    /// Bytes sent over InfiniBand (RDMA + eager).
    pub ib_bytes: u64,
    /// Total virtual seconds spent pinning memory.
    pub pin_seconds: f64,
    /// Number of pin operations performed.
    pub pin_count: u64,
    /// Successful CUDA IPC mappings established.
    pub ipc_mappings: u64,
    /// Messages sent.
    pub sends: u64,
    /// Messages received.
    pub recvs: u64,
    /// Retransmissions after injected loss/corruption (0 without faults).
    pub retries: u64,
    /// Virtual seconds spent in retry timeouts/backoff (0 without faults).
    pub backoff_seconds: f64,
    /// Extra virtual seconds charged by degraded-link windows (0 without
    /// faults).
    pub degraded_seconds: f64,
}

/// Which library's path-selection rules a message follows.
///
/// MVAPICH2 honours the device masks and IPC thresholds of the paper's
/// study. NCCL (§III-C: "NCCL and CUDA-Aware MPI libraries are able to
/// perform IPC transfers while the Python library is restricted") manages
/// its own IPC rings and persistent, pre-registered transport buffers — it
/// is immune to the `CUDA_VISIBLE_DEVICES` conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathPolicy {
    /// MVAPICH2-GDR semantics (device masks, IPC threshold, reg cache).
    #[default]
    Mpi,
    /// NCCL semantics (own IPC, own pre-registered buffers).
    NcclLike,
}

/// Handle for a posted nonblocking receive ([`Comm::irecv`]), redeemed by
/// [`Comm::wait`]. Dropping a request without waiting leaves the message in
/// the out-of-order buffer, exactly like an unmatched `MPI_Irecv`.
#[derive(Debug, Clone, Copy)]
#[must_use = "an irecv completes only when waited on"]
pub struct RecvRequest {
    src: usize,
    tag: u64,
    recv_buf_id: u64,
}

/// The message fabric behind one rank's communicator.
///
/// The variant never changes payloads or virtual-time arithmetic — both
/// are computed rank-locally in [`Comm`] before a message touches the
/// wire — so results are identical across wires by construction (the
/// equivalence suite asserts it).
pub(crate) enum Wire {
    /// Event context core: shared mailbox fabric with run-token scheduling.
    Event { fabric: Arc<EventFabric> },
    /// Driven core: sends accumulate locally and the single-threaded engine
    /// routes them between program segments. Blocking recv is forbidden —
    /// tasks poll with [`Comm::try_recv_buffered`].
    Driven { outbox: Vec<(usize, Message)> },
}

/// One remembered answer of [`Comm::route`].
#[derive(Clone, Copy)]
struct Route {
    /// `(dst, bytes, rendezvous size, policy)`.
    key: (usize, u64, Option<u64>, PathPolicy),
    path: TransportPath,
    /// Fault-free wire time, fat-tree latency included.
    transfer: f64,
}

impl Route {
    /// Matches no send: no rank is `usize::MAX`.
    const NONE: Route = Route {
        key: (usize::MAX, 0, None, PathPolicy::Mpi),
        path: TransportPath::DeviceLocal,
        transfer: 0.0,
    };
}

/// What one send charges when nothing about it happens for the first time
/// ([`Comm::quote_send`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendQuote {
    pub(crate) path: TransportPath,
    pub(crate) bytes: u64,
    /// Added to the sender's clock before the stamp is taken.
    pub(crate) overhead: f64,
    /// Wire time, fat-tree latency included: the stamp is the clock plus
    /// this.
    pub(crate) transfer: f64,
    /// Whether the send looks up the registration cache (and hits).
    pub(crate) lookup: bool,
}

/// What one receive charges besides the clock merge when its registration
/// lookup, if it makes one, hits ([`Comm::quote_recv`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecvQuote {
    /// Added to the receiver's clock after the merge.
    pub(crate) overhead: f64,
    /// Whether the receive looks up the registration cache (and hits).
    pub(crate) lookup: bool,
}

/// MPI communicator for one rank.
pub struct Comm {
    rank: usize,
    size: usize,
    topo: ClusterTopology,
    /// `topo.node_of(rank)`, cached: the send path resolves locality per
    /// message and the integer divisions showed up in the engine profile.
    my_node: usize,
    /// `topo.local_of(rank)`, cached (same reason).
    my_local: usize,
    env: DeviceEnv,
    cfg: Arc<MpiConfig>,
    clock: VClock,
    wire: Wire,
    budget: Option<Arc<FlightBudget>>,
    pending: VecDeque<Message>,
    regcache: RegistrationCache,
    ipc_registries: Arc<Vec<IpcRegistry>>,
    ipc_mapped: Vec<bool>,
    /// The two most recent answers of [`Comm::route`], newest first.
    routes: [Route; 2],
    stats: CommStats,
    pub(crate) coll_seq: u64,
    policy: PathPolicy,
    /// When set, transport-path selection keys on this size instead of each
    /// message's own (see [`Comm::set_rendezvous_bytes`]).
    rendezvous_bytes: Option<u64>,
    /// NCCL's internal registration bookkeeping (always enabled — NCCL
    /// registers its persistent transport buffers once at init).
    nccl_regcache: RegistrationCache,
    /// Per-destination message sequence numbers feeding the deterministic
    /// fault plan (without the `faults` feature the field does not exist
    /// and the send path is byte-identical to the pre-fault build).
    #[cfg(feature = "faults")]
    send_seq: Vec<u64>,
    /// The world's verify ledger (debug builds only; without the `verify`
    /// feature the field does not exist and every hook below compiles to
    /// nothing).
    #[cfg(feature = "verify")]
    verify: Option<Arc<crate::verify::Ledger>>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        topo: ClusterTopology,
        cfg: Arc<MpiConfig>,
        wire: Wire,
        budget: Option<Arc<FlightBudget>>,
        ipc_registries: Arc<Vec<IpcRegistry>>,
    ) -> Self {
        let size = topo.total_gpus();
        let local = topo.local_of(rank);
        let gpn = topo.gpus_per_node;
        let env = match cfg.device_mode {
            DeviceMode::Pinned => DeviceEnv::default_pinned(local),
            DeviceMode::PinnedWithMv2 => DeviceEnv::mpi_opt(local, gpn),
            DeviceMode::Unpinned => DeviceEnv::unpinned(gpn),
        };
        let regcache = if cfg.registration_cache {
            RegistrationCache::new(cfg.reg_cache_capacity)
        } else {
            RegistrationCache::disabled()
        };
        Comm {
            rank,
            size,
            my_node: topo.node_of(rank),
            my_local: local,
            topo,
            env,
            cfg,
            clock: VClock::zero(),
            wire,
            budget,
            pending: VecDeque::new(),
            regcache,
            ipc_registries,
            ipc_mapped: vec![false; size],
            routes: [Route::NONE; 2],
            stats: CommStats::default(),
            coll_seq: 0,
            policy: PathPolicy::Mpi,
            rendezvous_bytes: None,
            nccl_regcache: RegistrationCache::new(1 << 34),
            #[cfg(feature = "faults")]
            send_seq: vec![0; size],
            #[cfg(feature = "verify")]
            verify: None,
        }
    }

    /// Attach the world's verify ledger (set by both launchers right after
    /// construction, before the rank runs).
    #[cfg(feature = "verify")]
    pub(crate) fn attach_verify(&mut self, ledger: Arc<crate::verify::Ledger>) {
        self.verify = Some(ledger);
    }

    /// File one collective signature in the world's ledger and raise the
    /// [`Violation`](crate::verify::Violation) if it differs from what an
    /// earlier rank filed for the same round (no-op unless the `verify`
    /// feature is on). Called exactly once at every top-level collective
    /// entry point, before any of the collective's messages move.
    #[inline]
    #[allow(unused_variables)]
    // one parameter per `CollSig` field: the arg list *is* the signature
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn verify_coll(
        &mut self,
        kind: &'static str,
        op: &'static str,
        dtype: &'static str,
        elems: usize,
        algo: &'static str,
        group: Option<usize>,
        root: usize,
    ) {
        #[cfg(feature = "verify")]
        if let Some(ledger) = &self.verify {
            let sig = crate::verify::CollSig {
                kind,
                op,
                dtype,
                elems,
                seq: self.coll_seq,
                algo,
                group,
                root,
            };
            if let Err(v) = ledger.record(self.rank, sig) {
                v.raise();
            }
        }
    }

    /// Cross-rank checkpoint: all ranks must call this with the same label
    /// and marker, in the same program order (no-op unless `verify` is on).
    /// `dlsr-horovod` calls it at every negotiation round.
    #[inline]
    #[allow(unused_variables)]
    pub fn verify_checkpoint(&mut self, label: &'static str, marker: u64) {
        self.verify_coll("checkpoint", "-", "-", marker as usize, label, None, 0);
    }

    /// Record one fusion-group launch for launch-order verification
    /// (no-op unless `verify` is on). The overlapped optimizer calls this
    /// right before launching each group's allreduce.
    #[inline]
    #[allow(unused_variables)]
    pub fn verify_launch(&mut self, group: usize) {
        #[cfg(feature = "verify")]
        if let Some(ledger) = &self.verify {
            if let Err(v) = ledger.launch(self.rank, group) {
                v.raise();
            }
        }
    }

    /// Switch the path-selection policy (set to `NcclLike` inside NCCL
    /// backend collectives, restored to `Mpi` afterwards).
    pub fn set_path_policy(&mut self, policy: PathPolicy) {
        self.policy = policy;
    }

    /// Current path-selection policy.
    pub fn path_policy(&self) -> PathPolicy {
        self.policy
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    /// This rank's device environment.
    pub fn env(&self) -> &DeviceEnv {
        &self.env
    }

    /// Library configuration.
    pub fn config(&self) -> &MpiConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Advance local virtual time (compute, framework overhead, ...).
    pub fn advance(&mut self, dt: f64) {
        self.clock.advance(dt);
    }

    /// Advance the clock to at least `t` (no-op if already past it). Used
    /// by schedules that launch communication at planned offsets — e.g.
    /// Horovod fusion groups launching at cycle boundaries.
    pub fn advance_to(&mut self, t: f64) {
        self.clock.merge(t);
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Key transport-path selection on a parent transfer size instead of
    /// each message's own until cleared with `None`.
    ///
    /// Chunked collectives (the pipelined ring) stream one large registered
    /// buffer as `pipeline_chunk`-sized sub-messages. CUDA IPC mappings and
    /// the rendezvous-protocol choice are established once per *buffer* —
    /// MVAPICH2's large-message path decides against the registered
    /// transfer's size, then chunks internally — so the NVLink-vs-staged
    /// decision must see the parent size, not the sub-chunk's. Transfer
    /// *time* is still charged per message actually on the wire.
    ///
    /// Collectives set this on entry and clear it before returning; it is
    /// never left set across user-visible calls.
    pub fn set_rendezvous_bytes(&mut self, bytes: Option<u64>) {
        self.rendezvous_bytes = bytes;
    }

    /// Registration cache statistics.
    pub fn regcache_stats(&self) -> RegCacheStats {
        self.regcache.stats()
    }

    /// The keys of both registration caches (MPI's, then NCCL's), most
    /// recently used first.
    #[cfg(test)]
    pub(crate) fn regcache_recency(&self) -> [Vec<(u64, u64)>; 2] {
        [
            self.regcache.recency().collect(),
            self.nccl_regcache.recency().collect(),
        ]
    }

    /// The GPU this rank drives.
    pub fn gpu(&self) -> GpuId {
        GpuId {
            node: self.topo.node_of(self.rank),
            local: self.topo.local_of(self.rank),
        }
    }

    /// The lowest rank on this rank's node (its leader in the two-level
    /// collectives).
    #[inline]
    pub(crate) fn node_first_rank(&self) -> usize {
        self.my_node * self.topo.gpus_per_node
    }

    /// Is `peer` one of this rank's node's GPUs? The send and receive paths
    /// ask once per message, so this is a range test on the node's first
    /// rank rather than a division by the GPUs per node.
    #[inline]
    fn on_my_node(&self, peer: usize) -> bool {
        peer.wrapping_sub(self.node_first_rank()) < self.topo.gpus_per_node
    }

    /// Which transport a message of `bytes` to `dst` takes, and whether
    /// taking it first needs the one-time CUDA IPC handshake with `dst`.
    /// Side-effect free; [`Comm::resolve_path`] performs the handshake.
    fn select_path(&self, dst: usize, bytes: u64) -> (TransportPath, bool) {
        let same_node = self.on_my_node(dst);
        let path = if self.policy == PathPolicy::NcclLike && same_node {
            // NCCL sets up its own IPC rings at communicator init — the
            // framework's CUDA_VISIBLE_DEVICES mask does not constrain it,
            // and it uses the P2P path at every message size.
            TransportPath::NvlinkP2p
        } else {
            // meaningful (and only read) when `same_node`
            let dst_local = dst.wrapping_sub(self.node_first_rank());
            let ipc_ok = same_node && self.env.ipc_possible(self.my_local, dst_local);
            self.cfg.transport.path(false, same_node, ipc_ok, bytes)
        };
        (
            path,
            path == TransportPath::NvlinkP2p && !self.ipc_mapped[dst],
        )
    }

    /// [`Comm::select_path`], performing the handshake it asks for.
    fn resolve_path(&mut self, dst: usize, bytes: u64) -> Result<TransportPath, CommError> {
        let (path, handshake) = self.select_path(dst, bytes);
        if handshake {
            if self.policy == PathPolicy::Mpi {
                // Export our buffer, peer opens it (NCCL's own rings need
                // no handle exchange). Both env masks are identical across
                // ranks (same job config), so simulating the peer's open
                // with our env is faithful.
                let node = self.my_node;
                let reg = &self.ipc_registries[node];
                let buf = dlsr_gpu::device::DeviceBuffer {
                    device: self.gpu(),
                    id: (self.rank as u64) << 32 | dst as u64,
                    bytes,
                };
                let handle = reg.get_mem_handle(buf);
                let peer = GpuId {
                    node,
                    local: dst.wrapping_sub(self.node_first_rank()),
                };
                reg.open_mem_handle(handle, peer, &self.env)
                    .map_err(|e| CommError::Ipc(e.to_string()))?;
            }
            self.clock.advance(self.cfg.ipc_setup_cost);
            self.ipc_mapped[dst] = true;
            self.stats.ipc_mappings += 1;
        }
        Ok(path)
    }

    /// The registration cache this rank's path policy looks up.
    fn cache(&self) -> &RegistrationCache {
        match self.policy {
            PathPolicy::Mpi => &self.regcache,
            PathPolicy::NcclLike => &self.nccl_regcache,
        }
    }

    fn cache_mut(&mut self) -> &mut RegistrationCache {
        match self.policy {
            PathPolicy::Mpi => &mut self.regcache,
            PathPolicy::NcclLike => &mut self.nccl_regcache,
        }
    }

    /// Charge registration (pinning) for a buffer if the path needs it and
    /// the cache misses.
    fn charge_registration(&mut self, path: TransportPath, buf_id: u64, bytes: u64) {
        if !self.cfg.transport.needs_registration(path) {
            return;
        }
        if !self.cache_mut().lookup(buf_id, bytes) {
            let t = self.cfg.transport.pin_time(bytes);
            self.clock.advance(t);
            self.stats.pin_seconds += t;
            self.stats.pin_count += 1;
        }
    }

    /// Extra wire time and retry charges from the fault plan, if any: link
    /// degradation stretches `transfer`, and loss/corruption verdicts are
    /// answered with the config's retry/timeout/backoff policy. The fault
    /// verdict is a pure function of (plan seed, src, dst, per-destination
    /// sequence number, attempt), so it is deterministic under the virtual
    /// clock, independent of OS thread scheduling. Only the *sender's*
    /// timeline is perturbed — failed attempts never reach the channel, so
    /// the receive path stays byte-identical and payloads stay exact.
    #[cfg(feature = "faults")]
    fn faulted_transfer(&mut self, dst: usize, transfer: f64) -> Result<f64, CommError> {
        use dlsr_trace::report::keys;
        let Some(plan) = self.cfg.fault_plan.clone() else {
            return Ok(transfer);
        };
        let mut transfer = transfer;
        let now = self.clock.now();
        let node_a = self.topo.node_of(self.rank);
        let node_b = self.topo.node_of(dst);
        if let Some(p) = plan.link_penalty(node_a, node_b, now) {
            let degraded = transfer * p.bandwidth_factor + p.extra_latency_s;
            let extra = degraded - transfer;
            self.stats.degraded_seconds += extra;
            dlsr_trace::counter_add(keys::FAULT_DEGRADED_SECONDS, extra);
            transfer = degraded;
        }
        let seq = self.send_seq[dst];
        self.send_seq[dst] += 1;
        let retry = self.cfg.retry;
        for attempt in 1..=retry.max_attempts {
            let Some(kind) = plan.attempt_fault(self.rank, dst, seq, attempt, self.clock.now())
            else {
                return Ok(transfer);
            };
            let err = match kind {
                dlsr_faults::FaultKind::Lost => dlsr_net::TransportError::Lost {
                    src: self.rank,
                    dst,
                    attempt,
                },
                dlsr_faults::FaultKind::Corrupted => dlsr_net::TransportError::Corrupted {
                    src: self.rank,
                    dst,
                    attempt,
                },
            };
            if attempt == retry.max_attempts {
                return Err(CommError::RetriesExhausted {
                    src: self.rank,
                    dst,
                    attempts: retry.max_attempts,
                    last: err,
                });
            }
            // Failed attempt: the timeout fires after timeout·backoff^(k−1)
            // virtual seconds, then we retransmit.
            let wait = retry.timeout * retry.backoff.powi(attempt as i32 - 1);
            self.clock.advance(wait);
            self.stats.retries += 1;
            self.stats.backoff_seconds += wait;
            dlsr_trace::counter_add(keys::FAULT_RETRIES, 1.0);
            dlsr_trace::counter_add(keys::FAULT_BACKOFF_SECONDS, wait);
            match kind {
                dlsr_faults::FaultKind::Lost => dlsr_trace::counter_add(keys::FAULT_LOST, 1.0),
                dlsr_faults::FaultKind::Corrupted => {
                    dlsr_trace::counter_add(keys::FAULT_CORRUPT, 1.0)
                }
            }
        }
        Ok(transfer)
    }

    /// Non-blocking send (the wire carries the bandwidth cost; the sender
    /// pays CPU overhead, registration and any IPC setup).
    ///
    /// Panics on terminal errors ([`Comm::try_send`] returns them as
    /// values): one rank panicking tears down the fabric and the whole
    /// world aborts together through `std::thread::scope`.
    ///
    /// `buf_id` identifies the application buffer for the registration
    /// cache — pass a stable id for reused buffers (fusion buffers) and a
    /// fresh id for transient ones.
    pub fn send(&mut self, dst: usize, tag: u64, payload: Payload, buf_id: u64) {
        if let Err(e) = self.try_send(dst, tag, payload, buf_id) {
            self.send_failed(e);
        }
    }

    /// The terminal-send-error panic of [`Comm::send`], shared with the
    /// ring wave so a failed hop aborts the world with the same message.
    #[cold]
    pub(crate) fn send_failed(&self, e: CommError) -> ! {
        panic!("dlsr-mpi: rank {}: send failed: {e}", self.rank);
    }

    /// [`Comm::send`], returning terminal failures instead of panicking.
    pub fn try_send(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Payload,
        buf_id: u64,
    ) -> Result<(), CommError> {
        let arrival = self.account_send(dst, payload.size_bytes(), buf_id)?;
        self.deliver(
            dst,
            Message {
                src: self.rank,
                tag,
                payload,
                arrival,
            },
        )
    }

    /// Everything a send of `bytes` to `dst` charges this rank — path
    /// selection and any IPC handshake, registration, the send overhead,
    /// the transport counters, wire time with fat-tree latency and fault
    /// verdicts, the NET span — and the message's arrival stamp. Rank-local:
    /// no message exists yet. [`Comm::try_send`] hands the stamp to the wire
    /// in a [`Message`]; the driven engine's ring wave
    /// ([`RingWave`](crate::collectives::tasks::RingWave)) hands it straight
    /// to the neighbour's [`Comm::account_recv`]. Both pay through this one
    /// function, so a wave cannot charge differently from the messages it
    /// replaces; a steady wave's closed form pays a [`Comm::quote_send`]
    /// instead, which is read off the same helpers.
    pub(crate) fn account_send(
        &mut self,
        dst: usize,
        bytes: u64,
        buf_id: u64,
    ) -> Result<f64, CommError> {
        if dst >= self.size {
            return Err(CommError::InvalidRank {
                rank: dst,
                size: self.size,
            });
        }
        let (path, transfer) = self.route(dst, bytes)?;
        self.charge_registration(path, buf_id, bytes);
        self.clock.advance(self.send_overhead());
        self.count_transfers(path, bytes, 1);
        #[cfg(feature = "faults")]
        let transfer = self.faulted_transfer(dst, transfer)?;
        let arrival = self.clock.now() + transfer;
        // The wire occupancy of this message on the sender's virtual
        // timeline: departure at now(), delivery at arrival.
        dlsr_trace::record_span(
            || format!("{path:?} {bytes}B -> r{dst}"),
            dlsr_trace::cat::NET,
            self.clock.now(),
            arrival,
        );
        self.stats.sends += 1;
        Ok(arrival)
    }

    /// What a message costs its sender in CPU time before it leaves. NCCL
    /// launches a device kernel per transport step — a higher per-message
    /// CPU+launch overhead than MPI's host-driven engine.
    fn send_overhead(&self) -> f64 {
        match self.policy {
            PathPolicy::Mpi => self.cfg.send_overhead,
            PathPolicy::NcclLike => self.cfg.nccl_send_overhead,
        }
    }

    /// The transport counters of `n` messages of `bytes` on `path`.
    #[inline]
    fn count_transfers(&mut self, path: TransportPath, bytes: u64, n: u64) {
        use dlsr_trace::report::keys;
        let (total, key) = match path {
            TransportPath::NvlinkP2p => (Some(&mut self.stats.nvlink_bytes), keys::NET_IPC),
            TransportPath::HostStaged => (Some(&mut self.stats.staged_bytes), keys::NET_STAGED),
            TransportPath::IbRdma => (Some(&mut self.stats.ib_bytes), keys::NET_RDMA),
            TransportPath::IbEager => (Some(&mut self.stats.ib_bytes), keys::NET_EAGER),
            TransportPath::DeviceLocal => (None, keys::NET_LOCAL),
        };
        if let Some(total) = total {
            *total += bytes * n;
        }
        dlsr_trace::counter_add(key, n as f64);
    }

    /// What [`Comm::account_send`] would charge for `bytes` to `dst`, if
    /// sending it does nothing for the first time: the IPC handshake with
    /// `dst` is done, a registration lookup would hit, and no fault plan can
    /// intervene. `None` otherwise. Side-effect free: the quote is taken
    /// from the functions the send pays through ([`Comm::select_path`],
    /// [`Comm::wire_time`], [`Comm::send_overhead`], the policy's
    /// registration cache), so paying a quote ([`Comm::settle_hops`] plus
    /// the caller's clock arithmetic) charges what the send would.
    pub(crate) fn quote_send(&self, dst: usize, bytes: u64, buf_id: u64) -> Option<SendQuote> {
        #[cfg(feature = "faults")]
        if self.cfg.fault_plan.is_some() {
            return None;
        }
        if dst >= self.size {
            return None;
        }
        let (path, handshake) = self.select_path(dst, self.rendezvous_bytes.unwrap_or(bytes));
        let lookup = self.cfg.transport.needs_registration(path);
        if handshake || (lookup && !self.cache().peek(buf_id, bytes)) {
            return None;
        }
        Some(SendQuote {
            path,
            bytes,
            overhead: self.send_overhead(),
            transfer: self.wire_time(dst, path, bytes),
            lookup,
        })
    }
    /// The transport path of a `bytes` message to `dst` and its fault-free
    /// wire time. The protocol decision (IPC/NVLink vs host staging, eager
    /// vs rendezvous) is made for the registered parent buffer when a
    /// chunked collective is streaming it as sub-chunks; each chunk then
    /// rides the path the parent established, and wire time still uses the
    /// chunk's own size.
    ///
    /// Once a destination's IPC handshake is done the answer is a pure
    /// function of `(dst, bytes, rendezvous size, policy)`, and a ring sends
    /// two chunk lengths to one neighbour for thousands of hops — so the
    /// last two answers are remembered.
    fn route(&mut self, dst: usize, bytes: u64) -> Result<(TransportPath, f64), CommError> {
        let key = (dst, bytes, self.rendezvous_bytes, self.policy);
        if let Some(hit) = self.routes.iter().find(|r| r.key == key) {
            return Ok((hit.path, hit.transfer));
        }
        let path = self.resolve_path(dst, self.rendezvous_bytes.unwrap_or(bytes))?;
        let transfer = self.wire_time(dst, path, bytes);
        self.routes[1] = self.routes[0];
        self.routes[0] = Route {
            key,
            path,
            transfer,
        };
        Ok((path, transfer))
    }

    /// Fault-free wire time of `bytes` to `dst` on `path`, fat-tree latency
    /// included.
    fn wire_time(&self, dst: usize, path: TransportPath, bytes: u64) -> f64 {
        let mut transfer = match self.policy {
            PathPolicy::Mpi => self.cfg.transport.transfer_time(path, bytes),
            PathPolicy::NcclLike => self.cfg.transport.transfer_time_nccl(path, bytes),
        };
        if matches!(path, TransportPath::IbRdma | TransportPath::IbEager) {
            // spine-crossing hops on the fat tree add switch latency
            let dst_node = dst / self.topo.gpus_per_node;
            transfer += self.cfg.fat_tree.extra_latency(self.my_node, dst_node);
        }
        transfer
    }

    /// Hand a finished message to the wire, charging the in-flight budget
    /// first. The charge is timing-neutral and uniform across wires, so
    /// the bounded-mailbox guarantee — and any overflow error — is
    /// core-independent.
    #[inline]
    fn deliver(&mut self, dst: usize, msg: Message) -> Result<(), CommError> {
        if let Some(b) = &self.budget {
            if let Err(in_flight) = b.charge(&msg) {
                return Err(CommError::MailboxBudget {
                    rank: self.rank,
                    in_flight,
                    budget: b.limit(),
                });
            }
        }
        match &mut self.wire {
            Wire::Event { fabric } => fabric
                .deliver(dst, msg)
                .map_err(|()| CommError::WorldTornDown { rank: self.rank }),
            Wire::Driven { outbox } => {
                outbox.push((dst, msg));
                Ok(())
            }
        }
    }

    /// Blocking receive matching `(src, tag)`. `recv_buf_id` identifies the
    /// destination buffer for receiver-side registration.
    ///
    /// Panics on terminal errors ([`Comm::try_recv`] returns them as
    /// values), preserving the abort-all-ranks-together convention.
    pub fn recv(&mut self, src: usize, tag: u64, recv_buf_id: u64) -> Payload {
        match self.try_recv(src, tag, recv_buf_id) {
            Ok(p) => p,
            Err(e) => panic!("dlsr-mpi: rank {}: recv failed: {e}", self.rank),
        }
    }

    /// [`Comm::recv`], returning terminal failures instead of panicking.
    pub fn try_recv(
        &mut self,
        src: usize,
        tag: u64,
        recv_buf_id: u64,
    ) -> Result<Payload, CommError> {
        if src >= self.size {
            return Err(CommError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        // check the out-of-order buffer first
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            let m = self.pending.remove(pos).expect("position valid");
            return Ok(self.complete_recv(m, recv_buf_id));
        }
        let m = self.wire_recv_matching(src, tag)?;
        Ok(self.complete_recv(m, recv_buf_id))
    }

    /// Take the `(src, tag)` match off the wire. Blocks — parking this
    /// rank on the event fabric — until the match exists.
    fn wire_recv_matching(&mut self, src: usize, tag: u64) -> Result<Message, CommError> {
        match &self.wire {
            Wire::Event { fabric } => fabric
                .recv_blocking(self.rank, src, tag, self.clock.now())
                .map_err(|()| CommError::WorldTornDown { rank: self.rank }),
            Wire::Driven { .. } => panic!(
                "dlsr-mpi: rank {}: blocking recv on the driven core; event tasks must poll \
                 with try_recv_buffered",
                self.rank
            ),
        }
    }

    #[inline]
    fn complete_recv(&mut self, m: Message, recv_buf_id: u64) -> Payload {
        if let Some(b) = &self.budget {
            b.release(&m);
        }
        self.account_recv(m.src, m.payload.size_bytes(), m.arrival, recv_buf_id);
        m.payload
    }

    /// Everything receiving a `bytes` message from `src` stamped `arrival`
    /// charges this rank: receive-side registration, the clock merge, the
    /// receive overhead. The receive half of [`Comm::account_send`], shared
    /// the same way by the message path and the ring wave.
    #[inline]
    pub(crate) fn account_recv(&mut self, src: usize, bytes: u64, arrival: f64, recv_buf_id: u64) {
        if self.recv_registers(src, bytes) {
            self.charge_registration(TransportPath::IbRdma, recv_buf_id, bytes);
        }
        self.clock.merge(arrival);
        self.clock.advance(self.cfg.recv_overhead);
        self.stats.recvs += 1;
    }

    /// Receiver-side registration: for inter-node RDMA the receive buffer
    /// must be pinned too.
    #[inline]
    fn recv_registers(&self, src: usize, bytes: u64) -> bool {
        bytes >= self.cfg.transport.eager_threshold && !self.on_my_node(src)
    }

    /// What [`Comm::account_recv`] would charge for `bytes` from `src`
    /// besides the clock merge, if its registration lookup (when it makes
    /// one) would hit; `None` otherwise. Side-effect free, like
    /// [`Comm::quote_send`].
    pub(crate) fn quote_recv(&self, src: usize, bytes: u64, recv_buf_id: u64) -> Option<RecvQuote> {
        let lookup = self.recv_registers(src, bytes);
        if lookup && !self.cache().peek(recv_buf_id, bytes) {
            return None;
        }
        Some(RecvQuote {
            overhead: self.cfg.recv_overhead,
            lookup,
        })
    }

    /// Settle in one call what a run of quoted hops leaves on this rank
    /// besides its clock arithmetic, which the caller has done: `clock` is
    /// where that arithmetic took the clock, `sends` pairs each quoted send
    /// with how many times it ran, `recvs` counts the receives, `hits` the
    /// registration lookups among all of them — every one a hit, by the
    /// quotes — and `by_last_lookup` lists the keys those lookups touched,
    /// oldest last lookup first. Equal, by construction, to paying each hop
    /// through [`Comm::account_send`] / [`Comm::account_recv`] untraced.
    pub(crate) fn settle_hops(
        &mut self,
        clock: f64,
        sends: &[(SendQuote, u64)],
        recvs: u64,
        hits: u64,
        by_last_lookup: &[(u64, u64)],
    ) {
        for &(quote, n) in sends.iter().filter(|(_, n)| *n > 0) {
            self.count_transfers(quote.path, quote.bytes, n);
            self.stats.sends += n;
        }
        self.stats.recvs += recvs;
        self.cache_mut().hit_many(by_last_lookup, hits);
        // the quoted charges are non-negative: the clock only moves forward
        self.clock.merge(clock);
    }

    /// Concurrent send + receive (both directions in flight, as in ring
    /// collectives): the send is posted first and does not serialize with
    /// the receive.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: u64,
        payload: Payload,
        send_buf_id: u64,
        src: usize,
        recv_tag: u64,
        recv_buf_id: u64,
    ) -> Payload {
        self.send(dst, send_tag, payload, send_buf_id);
        self.recv(src, recv_tag, recv_buf_id)
    }

    /// Nonblocking send (`MPI_Isend`). On the virtual-clock fabric
    /// [`Comm::send`] is already asynchronous — the sender pays only its
    /// local overheads and the wire carries the transfer cost to the
    /// receiver's clock — so `isend` completes immediately and needs no
    /// request handle. It exists so pipelined collectives read like their
    /// MPI counterparts.
    pub fn isend(&mut self, dst: usize, tag: u64, payload: Payload, buf_id: u64) {
        self.send(dst, tag, payload, buf_id);
    }

    /// Post a nonblocking receive (`MPI_Irecv`) matching `(src, tag)`.
    ///
    /// Posting costs nothing on the virtual clock: the returned
    /// [`RecvRequest`] only records the match criteria. All timing — merging
    /// the message's arrival stamp and the receive overhead — is charged at
    /// [`Comm::wait`], so local work issued between `irecv` and `wait`
    /// overlaps the transfer and only the *exposed* remainder of the wire
    /// time advances this rank's clock.
    pub fn irecv(&mut self, src: usize, tag: u64, recv_buf_id: u64) -> RecvRequest {
        RecvRequest {
            src,
            tag,
            recv_buf_id,
        }
    }

    /// Complete a posted receive (`MPI_Wait`), blocking the OS thread until
    /// the message exists and merging its arrival into the virtual clock.
    pub fn wait(&mut self, req: RecvRequest) -> Payload {
        self.recv(req.src, req.tag, req.recv_buf_id)
    }

    /// [`Comm::wait`], returning terminal failures instead of panicking.
    pub fn try_wait(&mut self, req: RecvRequest) -> Result<Payload, CommError> {
        self.try_recv(req.src, req.tag, req.recv_buf_id)
    }

    /// Charge the GPU reduce kernel for combining `elems` f32 elements
    /// (read two operands + write one ⇒ 12 bytes per element).
    pub fn charge_reduce(&mut self, elems: usize) {
        self.clock.advance(self.reduce_time(elems));
    }

    /// What [`Comm::charge_reduce`] charges for `elems` elements.
    #[inline]
    pub(crate) fn reduce_time(&self, elems: usize) -> f64 {
        (elems as f64 * 12.0) / self.cfg.reduce_bandwidth
    }

    /// Fresh collective sequence number (all ranks call collectives in the
    /// same program order, so sequence numbers agree across ranks).
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.coll_seq += 1;
        self.coll_seq
    }

    /// Non-blocking receive: complete a queued `(src, tag)` match exactly
    /// like [`Comm::recv`] (clock merge, overheads, registration), or
    /// return `None` if no match has been delivered yet. Event tasks map
    /// `None` to [`Poll::Pending`](crate::executor::Poll::Pending).
    pub fn try_recv_buffered(&mut self, src: usize, tag: u64, recv_buf_id: u64) -> Option<Payload> {
        let rank = self.rank;
        loop {
            // Fast path: the match is at the front of the queue — true for
            // almost every receive outside fan-in hotspots (queues are
            // length ≤ 1 in ring steps), and `pop_front` avoids the O(n)
            // scan-and-shift of `remove`.
            if let Some(m) = self.pending.front() {
                if m.src == src && m.tag == tag {
                    let m = self.pending.pop_front().expect("front exists");
                    return Some(self.complete_recv(m, recv_buf_id));
                }
            }
            if let Some(pos) = self
                .pending
                .iter()
                .position(|m| m.src == src && m.tag == tag)
            {
                let m = self.pending.remove(pos).expect("position valid");
                return Some(self.complete_recv(m, recv_buf_id));
            }
            let pulled = match &mut self.wire {
                Wire::Event { fabric } => {
                    if let Some(m) = fabric.try_take(rank, src, tag) {
                        self.pending.push_back(m);
                        true
                    } else {
                        false
                    }
                }
                // The engine routes straight into `pending`; nothing else
                // to pull from.
                Wire::Driven { .. } => false,
            };
            if !pulled {
                return None;
            }
        }
    }

    /// Block until a `(src, tag)` match is queued, leaving it in the
    /// out-of-order buffer for the task's next poll — the blocking half of
    /// [`drive_task`](crate::executor::drive_task) on the context core.
    /// Panics on terminal errors, like [`Comm::recv`].
    pub(crate) fn block_until_match(&mut self, src: usize, tag: u64) {
        if self.pending.iter().any(|m| m.src == src && m.tag == tag) {
            return;
        }
        match self.wire_recv_matching(src, tag) {
            Ok(m) => self.pending.push_back(m),
            Err(e) => panic!("dlsr-mpi: rank {}: recv failed: {e}", self.rank),
        }
    }

    /// Swap the driven-core outbox with a caller-owned scratch buffer:
    /// the engine drains the scratch and swaps it back in next segment, so
    /// steady-state routing does no allocator work — capacities circulate
    /// instead of being freed. No-op on the other wires.
    #[inline]
    pub(crate) fn swap_outbox(&mut self, buf: &mut Vec<(usize, Message)>) {
        if let Wire::Driven { outbox } = &mut self.wire {
            std::mem::swap(outbox, buf);
        }
    }

    /// Queue an inbound message (engine-side routing on the driven core).
    #[inline]
    pub(crate) fn push_pending(&mut self, m: Message) {
        self.pending.push_back(m);
    }

    /// Is this rank stepped by the driven engine? There a costs-only ring
    /// parks on a wave instead of exchanging messages.
    #[inline]
    pub(crate) fn on_driven_wire(&self) -> bool {
        matches!(self.wire, Wire::Driven { .. })
    }
}
