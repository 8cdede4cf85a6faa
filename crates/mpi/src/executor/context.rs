//! The context cores: per-rank OS threads running unmodified rank
//! closures.
//!
//! [`run_threaded`] is the legacy thread-per-rank core — every rank's
//! thread is always runnable and the OS multiplexes them. [`run_event`]
//! keeps the same per-rank threads but uses them purely as *coroutine
//! contexts*: the [`EventFabric`](crate::executor::fabric::EventFabric)
//! caps concurrency at the configured worker count and a blocked recv
//! parks the rank instead of spinning a whole OS thread against the
//! scheduler. Both cores run the exact same `Fn(&mut Comm) -> R` closures
//! and produce bitwise-identical results (see `docs/SIMCORE.md`).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crossbeam::channel::unbounded;

use dlsr_gpu::IpcRegistry;
use dlsr_net::ClusterTopology;

use crate::comm::{Comm, Wire};
use crate::config::MpiConfig;
use crate::error::CommError;
use crate::executor::budget::FlightBudget;
use crate::executor::fabric::EventFabric;
use crate::message::Message;
use crate::world::WorldResult;

fn ipc_registries(topo: &ClusterTopology) -> Arc<Vec<IpcRegistry>> {
    Arc::new((0..topo.nodes).map(|_| IpcRegistry::new()).collect())
}

fn collect<R>(out: Vec<Option<(R, f64)>>) -> WorldResult<R> {
    let mut ranks = Vec::with_capacity(out.len());
    let mut clocks = Vec::with_capacity(out.len());
    for slot in out {
        let (r, c) = slot.expect("every rank reported");
        ranks.push(r);
        clocks.push(c);
    }
    WorldResult { ranks, clocks }
}

/// The legacy thread-per-rank core: one always-runnable OS thread per
/// rank, crossbeam channels as the wire. Kept as the equivalence baseline
/// ([`crate::config::SimCore::Threaded`]).
pub(crate) fn run_threaded<R, F>(topo: &ClusterTopology, cfg: MpiConfig, f: F) -> WorldResult<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let size = topo.total_gpus();
    assert!(size > 0, "cannot launch an empty world");
    let cfg = Arc::new(cfg);
    let budget = FlightBudget::from_config(&cfg, false);
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = unbounded::<Message>();
        senders.push(tx);
        receivers.push(rx);
    }
    let registries = ipc_registries(topo);

    #[cfg(feature = "verify")]
    let verify_ctx = crate::verify::VerifyCtx::new(size);

    let mut out: Vec<Option<(R, f64)>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            let cfg = Arc::clone(&cfg);
            let budget = budget.clone();
            let registries = Arc::clone(&registries);
            let topo = topo.clone();
            let f = &f;
            #[cfg(feature = "verify")]
            let verify_ctx = Arc::clone(&verify_ctx);
            handles.push(scope.spawn(move || {
                // Spans and counters recorded on this thread attribute
                // to this rank.
                dlsr_trace::set_thread_rank(rank);
                let mut comm = Comm::new(
                    rank,
                    topo,
                    cfg,
                    Wire::Channels { senders, rx },
                    budget,
                    registries,
                );
                #[cfg(feature = "verify")]
                comm.attach_verify(verify_ctx);
                let r = f(&mut comm);
                (rank, r, comm.now())
            }));
        }
        for h in handles {
            let (rank, r, clock) = h.join().expect("rank thread panicked");
            out[rank] = Some((r, clock));
        }
    });

    // All ranks completed: run the end-of-run cross-rank checks
    // (launch-order equality) and publish the verification summary.
    #[cfg(feature = "verify")]
    verify_ctx.final_check();
    collect(out)
}

/// The event context core: per-rank threads as coroutine contexts, at
/// most `sim_workers` holding a run token at once, scheduled by the
/// [`EventFabric`] in deterministic `(virtual_time, rank)` order. The
/// default core ([`crate::config::SimCore::Event`]).
pub(crate) fn run_event<R, F>(topo: &ClusterTopology, cfg: MpiConfig, f: F) -> WorldResult<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let size = topo.total_gpus();
    assert!(size > 0, "cannot launch an empty world");
    let workers = if cfg.sim_workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.sim_workers
    };
    // The verify deadlock watcher reads "parked and token-less" as
    // "blocked on a peer", so a capped pool would turn token starvation
    // into false wait-for edges (a rank whose message arrived but is
    // still queued for a token keeps reporting itself blocked). Tokens
    // are a wall-time throttle, never a correctness device: verified
    // builds simply grant everyone one, restoring the exact semantics
    // the watcher was written against.
    #[cfg(feature = "verify")]
    let workers = size.max(workers);
    let cfg = Arc::new(cfg);
    let budget = FlightBudget::from_config(&cfg, false);
    let fabric = Arc::new(EventFabric::new(size, workers));
    let registries = ipc_registries(topo);

    #[cfg(feature = "verify")]
    let verify_ctx = crate::verify::VerifyCtx::new(size);

    let mut out: Vec<Option<(R, f64)>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for rank in 0..size {
            let cfg = Arc::clone(&cfg);
            let budget = budget.clone();
            let fabric = Arc::clone(&fabric);
            let registries = Arc::clone(&registries);
            let topo = topo.clone();
            let f = &f;
            #[cfg(feature = "verify")]
            let verify_ctx = Arc::clone(&verify_ctx);
            handles.push(scope.spawn(move || {
                dlsr_trace::set_thread_rank(rank);
                let mut comm = Comm::new(
                    rank,
                    topo,
                    cfg,
                    Wire::Event {
                        fabric: Arc::clone(&fabric),
                    },
                    budget,
                    registries,
                );
                #[cfg(feature = "verify")]
                comm.attach_verify(verify_ctx);
                // A panicking rank must wake parked peers (they observe
                // WorldTornDown) before its own panic reaches the join —
                // otherwise the world would hang instead of aborting
                // together.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if fabric.wait_for_token(rank).is_err() {
                        panic!(
                            "dlsr-mpi: rank {rank}: {}",
                            CommError::WorldTornDown { rank }
                        );
                    }
                    f(&mut comm)
                }));
                match result {
                    Ok(r) => {
                        let now = comm.now();
                        fabric.finish(rank);
                        (rank, r, now)
                    }
                    Err(p) => {
                        fabric.teardown();
                        resume_unwind(p);
                    }
                }
            }));
        }
        for h in handles {
            let (rank, r, clock) = h.join().expect("rank thread panicked");
            out[rank] = Some((r, clock));
        }
    });

    #[cfg(feature = "verify")]
    verify_ctx.final_check();
    collect(out)
}
