//! The sanctioned execution substrate for simulated ranks.
//!
//! Everything that turns rank *programs* into running *worlds* lives under
//! this module — and only here: a `dlsr-lint` rule (`thread-spawn`) rejects
//! `std::thread::spawn`/`JoinHandle` anywhere else in the rank-execution
//! crates, so the thread-per-rank model this module replaces cannot creep
//! back in through a side door.
//!
//! Two cores share one message fabric contract (exact `(src, tag)`
//! matching, per-sender FIFO, LogGP arrival stamps — see `docs/SIMCORE.md`
//! for the determinism argument):
//!
//! - `context::run` — behind [`MpiWorld::run`](crate::MpiWorld::run),
//!   for rank *closures*. They run on OS threads used purely as
//!   *coroutine contexts*: at most `workers` run tokens exist, a blocked
//!   recv parks the rank and releases its token, and the
//!   `fabric::EventFabric` grants freed tokens to eligible ranks in
//!   deterministic `(virtual_time, rank)` order.
//! - `driven::run` — behind
//!   [`MpiWorld::run_driven`](crate::MpiWorld::run_driven), for rank
//!   *programs*; zero threads. Rank programs are resumable state machines
//!   ([`RankProgram`] yielding [`EventTask`]s) stepped by a
//!   single-threaded virtual-time event loop; this is the core that takes
//!   worlds to 512–4096 ranks. Costs-only ring allreduces park on a
//!   rendezvous ([`Poll::Wave`]) and are evaluated as one wave over the
//!   communicators instead of being routed hop by hop — in closed form
//!   when the wave is steady, cell by cell otherwise.
//!
//! Neither is selected by configuration: the caller's entry point is the
//! choice, and the two are pinned bitwise-equal — clocks, `CommStats`,
//! registration caches — by
//! `collectives::tasks::tests::all_cores_agree_bitwise` and, over the
//! configuration space, by `tests/wave_equivalence.rs`.

pub(crate) mod budget;
pub(crate) mod context;
pub mod driven;
pub(crate) mod fabric;

pub use driven::{drive_program, drive_task, EventTask, Poll, RankProgram, Step, Task};
