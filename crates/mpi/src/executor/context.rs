//! The event context core: per-rank OS threads running unmodified rank
//! closures.
//!
//! The threads are purely *coroutine contexts*: the
//! [`EventFabric`](crate::executor::fabric::EventFabric) caps concurrency
//! at the configured worker count and a blocked recv parks the rank
//! instead of spinning a whole OS thread against the scheduler. Results
//! are bitwise-identical to the driven engine's (see `docs/SIMCORE.md`).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dlsr_gpu::IpcRegistry;
use dlsr_net::ClusterTopology;

use crate::comm::{Comm, Wire};
use crate::config::MpiConfig;
use crate::error::CommError;
use crate::executor::budget::FlightBudget;
use crate::executor::fabric::EventFabric;
use crate::world::WorldResult;

/// The event context core: per-rank threads as coroutine contexts, at
/// most `sim_workers` holding a run token at once, scheduled by the
/// [`EventFabric`] in deterministic `(virtual_time, rank)` order.
pub(crate) fn run<R, F>(topo: &ClusterTopology, cfg: MpiConfig, f: F) -> WorldResult<R>
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
    let cfg = Arc::new(cfg);
    let budget = FlightBudget::from_config(&cfg, false);
    let fabric = Arc::new(EventFabric::new(size, workers));
    let registries: Arc<Vec<IpcRegistry>> =
        Arc::new((0..topo.nodes).map(|_| IpcRegistry::new()).collect());

    let ledger = crate::verify::Ledger::new(size);

    // rank `r`'s thread records into lane `r` of the trace sink in scope here
    let sink = dlsr_trace::current().map(|l| l.sink().clone());
    let mut joined = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for rank in 0..size {
            let cfg = Arc::clone(&cfg);
            let budget = budget.clone();
            let fabric = Arc::clone(&fabric);
            let registries = Arc::clone(&registries);
            let topo = topo.clone();
            let f = &f;
            let lane = sink.as_ref().map(|s| s.lane(rank));
            let ledger = Arc::clone(&ledger);
            handles.push(scope.spawn(move || {
                let _lane = lane.as_ref().map(dlsr_trace::Lane::enter);
                let mut comm = Comm::new(
                    rank,
                    topo,
                    cfg,
                    Wire::Event {
                        fabric: Arc::clone(&fabric),
                    },
                    budget,
                    registries,
                    ledger,
                );
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
                        (r, now)
                    }
                    Err(p) => {
                        fabric.teardown(rank);
                        resume_unwind(p);
                    }
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Vec<std::thread::Result<(R, f64)>>>()
    });

    // The world's diagnosis is the payload of the rank that failed *first*
    // (a `Violation`, or whatever the closure panicked with); peers that
    // went down observing the teardown never win.
    if let Some(first) = fabric.torn_down_by() {
        let payload = joined.swap_remove(first).err();
        resume_unwind(payload.expect("the rank that tore the world down panicked"));
    }
    let (ranks, clocks) = joined
        .into_iter()
        .map(|rank| rank.expect("no teardown, so no rank panicked"))
        .unzip();
    WorldResult {
        ranks,
        clocks,
        verify: ledger.close().unwrap_or_else(|v| v.raise()),
    }
}
