//! Job launcher: runs a closure (or a resumable [`RankProgram`]) on every
//! rank of a simulated world and collects results — the simulated
//! `mpirun`. The two execution cores live in [`crate::executor`]; which
//! one runs is decided by what the caller holds: a closure goes to
//! [`MpiWorld::run`] (event context core), a [`RankProgram`] to
//! [`MpiWorld::run_driven`] (zero-thread driven engine).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use dlsr_net::ClusterTopology;

use crate::comm::Comm;
use crate::config::MpiConfig;
use crate::executor::{context, driven, RankProgram};
use crate::verify::{VerifySummary, Violation};

/// The simulated MPI world.
pub struct MpiWorld;

/// Result of a world run: per-rank return values and final virtual clocks.
pub struct WorldResult<R> {
    /// Per-rank results, indexed by rank.
    pub ranks: Vec<R>,
    /// Per-rank final virtual times in seconds.
    pub clocks: Vec<f64>,
    /// What the collective-matching verifier checked on the way.
    pub verify: VerifySummary,
}

impl<R> WorldResult<R> {
    /// The job's virtual makespan (slowest rank).
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }
}

/// Run a world. If it unwinds with a [`Violation`] — whichever rank or
/// scheduler raised it — print it, once, and keep unwinding with it as the
/// payload.
fn reporting<R>(world: impl FnOnce() -> R) -> R {
    catch_unwind(AssertUnwindSafe(world)).unwrap_or_else(|payload| {
        if let Some(v) = payload.downcast_ref::<Violation>() {
            eprintln!("{v}");
        }
        resume_unwind(payload)
    })
}

impl MpiWorld {
    /// Launch `topo.total_gpus()` ranks on the event context core, run `f`
    /// on each, join, and return per-rank results plus final clocks.
    ///
    /// `f` must be deterministic in rank order of collective calls (normal
    /// SPMD discipline); payloads flow through real message queues so
    /// results are exact, and bitwise-identical to the same collectives
    /// run as a program on [`MpiWorld::run_driven`]. A rank that panics
    /// takes the world down with it, and the caller unwinds with *that*
    /// rank's payload.
    pub fn run<R, F>(topo: &ClusterTopology, cfg: MpiConfig, f: F) -> WorldResult<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        reporting(|| context::run(topo, cfg, f))
    }

    /// Run rank *programs* on the zero-thread driven engine: `make(rank)`
    /// builds each rank's [`RankProgram`], and a single-threaded
    /// discrete-event loop steps all of them in a deterministic
    /// engine-chosen order. Same clock/payload semantics as
    /// [`MpiWorld::run`], minus threads — this is the entry point for
    /// 512–4096-rank worlds. The same ledger checks both entry points,
    /// ring waves included.
    pub fn run_driven<P, F>(topo: &ClusterTopology, cfg: MpiConfig, make: F) -> WorldResult<P::Out>
    where
        P: RankProgram,
        F: FnMut(usize) -> P,
    {
        reporting(|| driven::run(topo, cfg, make))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;

    fn topo(nodes: usize) -> ClusterTopology {
        ClusterTopology::lassen(nodes)
    }

    #[test]
    fn ping_pong_transfers_data_and_time() {
        let res = MpiWorld::run(&topo(1), MpiConfig::default_mpi(), |c| {
            if c.rank() == 0 {
                c.send(1, 7, Payload::F32(vec![1.0, 2.0]), 100);
                c.recv(1, 8, 101).into_f32()
            } else if c.rank() == 1 {
                let v = c.recv(0, 7, 102).into_f32();
                let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
                c.send(0, 8, Payload::F32(doubled.clone()), 103);
                doubled
            } else {
                Vec::new()
            }
        });
        assert_eq!(res.ranks[0], vec![2.0, 4.0]);
        assert!(res.clocks[0] > 0.0, "time must pass");
        // rank 0 waited for a round trip; its clock must dominate rank 1's
        // send time.
        assert!(res.clocks[0] >= res.clocks[1] * 0.5);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let res = MpiWorld::run(&topo(1), MpiConfig::default_mpi(), |c| {
            if c.rank() == 0 {
                c.send(1, 1, Payload::F32(vec![1.0]), 0);
                c.send(1, 2, Payload::F32(vec![2.0]), 0);
                0.0
            } else if c.rank() == 1 {
                // receive in reverse order
                let b = c.recv(0, 2, 0).into_f32()[0];
                let a = c.recv(0, 1, 0).into_f32()[0];
                a * 10.0 + b
            } else {
                0.0
            }
        });
        assert_eq!(res.ranks[1], 12.0);
    }

    #[test]
    fn virtual_time_is_causal() {
        // A chain 0→1→2→3 must have monotonically increasing clocks.
        let res = MpiWorld::run(&topo(1), MpiConfig::default_mpi(), |c| {
            let r = c.rank();
            if r > 0 {
                let _ = c.recv(r - 1, 42, 0);
            }
            c.advance(1.0e-3); // local compute
            if r + 1 < c.size() {
                c.send(r + 1, 42, Payload::F32(vec![0.0; 1024]), 0);
            }
            c.now()
        });
        for r in 1..4 {
            assert!(
                res.ranks[r] > res.ranks[r - 1],
                "clock at rank {r} ({}) not after rank {} ({})",
                res.ranks[r],
                r - 1,
                res.ranks[r - 1]
            );
        }
    }

    #[test]
    fn large_intra_node_message_uses_nvlink_only_with_mv2() {
        let big = vec![0.0f32; 8 << 20]; // 32 MB
        for (cfg, expect_nvlink) in [
            (MpiConfig::default_mpi(), false),
            (MpiConfig::mpi_opt(), true),
        ] {
            let big = big.clone();
            let res = MpiWorld::run(&topo(1), cfg, move |c| {
                if c.rank() == 0 {
                    c.send(1, 1, Payload::F32(big.clone()), 5);
                }
                if c.rank() == 1 {
                    let _ = c.recv(0, 1, 6);
                }
                (c.stats().nvlink_bytes, c.stats().staged_bytes)
            });
            let (nv, st) = res.ranks[0];
            if expect_nvlink {
                assert!(
                    nv > 0 && st == 0,
                    "expected NVLink path: nv={nv} staged={st}"
                );
            } else {
                assert!(
                    nv == 0 && st > 0,
                    "expected staged path: nv={nv} staged={st}"
                );
            }
        }
    }

    #[test]
    fn inter_node_large_sends_pin_and_cache() {
        let cfg = MpiConfig::mpi_reg();
        let res = MpiWorld::run(&topo(2), cfg, |c| {
            // rank 0 (node 0) sends the same buffer twice to rank 4 (node 1)
            if c.rank() == 0 {
                for i in 0..2 {
                    c.send(4, 10 + i, Payload::F32(vec![0.0; 1 << 20]), 77);
                }
            }
            if c.rank() == 4 {
                for i in 0..2 {
                    let _ = c.recv(0, 10 + i, 88);
                }
            }
            (c.regcache_stats(), c.stats().pin_count)
        });
        let (stats0, pins0) = res.ranks[0];
        assert_eq!(stats0.misses, 1, "first send pins");
        assert_eq!(stats0.hits, 1, "second send hits the cache");
        assert_eq!(pins0, 1);
        let (stats4, _) = res.ranks[4];
        assert_eq!(stats4.hits, 1, "receiver cache also reused");
    }

    #[test]
    fn disabled_regcache_pins_every_time() {
        let res = MpiWorld::run(&topo(2), MpiConfig::default_mpi(), |c| {
            if c.rank() == 0 {
                for i in 0..3 {
                    c.send(4, i, Payload::F32(vec![0.0; 1 << 20]), 77);
                }
            }
            if c.rank() == 4 {
                for i in 0..3 {
                    let _ = c.recv(0, i, 88);
                }
            }
            c.stats().pin_count
        });
        assert_eq!(res.ranks[0], 3);
    }
}
