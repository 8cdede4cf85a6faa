//! In-flight message accounting: the bounded-mailbox guarantee.
//!
//! Large worlds can hold hundreds of thousands of undelivered messages; an
//! unbounded fabric turns a planning bug (a world whose fusion plan floods
//! the wires faster than receivers drain them) into a silent host OOM. The
//! [`FlightBudget`] charges every message's *host* footprint when it enters
//! the fabric and releases it when the receiver completes the matching
//! recv, so exceeding the configured budget is an explicit
//! [`crate::CommError::MailboxBudget`] instead of a hang or a kill.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::config::MpiConfig;
use crate::message::Message;

/// Bookkeeping overhead charged per in-flight message on top of its host
/// payload bytes (header fields, queue slot, allocator slack).
const MSG_OVERHEAD: u64 = 96;

/// Shared in-flight byte counter for one world. Cheap enough for the send
/// hot path: two relaxed atomic ops per message lifetime on the context
/// cores, two plain load/store pairs on the driven core.
#[derive(Debug)]
pub(crate) struct FlightBudget {
    limit: u64,
    used: AtomicU64,
    /// Every charge and release comes from one thread (the driven engine),
    /// so the counter is updated with a load and a store instead of a
    /// locked read-modify-write.
    single_thread: bool,
}

impl FlightBudget {
    /// The world's budget, or `None` when `sim_mailbox_budget` is 0
    /// (unlimited — the legacy behaviour). `single_thread` is the caller's
    /// promise that one thread runs every rank of the world.
    pub(crate) fn from_config(cfg: &MpiConfig, single_thread: bool) -> Option<Arc<FlightBudget>> {
        (cfg.sim_mailbox_budget > 0).then(|| {
            Arc::new(FlightBudget {
                limit: cfg.sim_mailbox_budget,
                used: AtomicU64::new(0),
                single_thread,
            })
        })
    }

    #[inline]
    fn cost(msg: &Message) -> u64 {
        msg.payload.host_bytes() + MSG_OVERHEAD
    }

    /// Add `delta` (wrapping, so a negative delta is its two's complement)
    /// to the counter and return the new total.
    #[inline]
    fn add(&self, delta: u64) -> u64 {
        if self.single_thread {
            let total = self.used.load(Ordering::Relaxed).wrapping_add(delta);
            self.used.store(total, Ordering::Relaxed);
            total
        } else {
            self.used
                .fetch_add(delta, Ordering::Relaxed)
                .wrapping_add(delta)
        }
    }

    /// Charge a message entering the fabric. On overflow the charge is
    /// rolled back and the would-be total is returned for the error.
    #[inline]
    pub(crate) fn charge(&self, msg: &Message) -> Result<(), u64> {
        let cost = Self::cost(msg);
        let total = self.add(cost);
        if total > self.limit {
            self.add(cost.wrapping_neg());
            Err(total)
        } else {
            Ok(())
        }
    }

    /// Release a message the receiver has consumed.
    #[inline]
    pub(crate) fn release(&self, msg: &Message) {
        self.add(Self::cost(msg).wrapping_neg());
    }

    pub(crate) fn limit(&self) -> u64 {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;

    fn msg(bytes: usize) -> Message {
        Message {
            src: 0,
            tag: 0,
            payload: Payload::Bytes(vec![0; bytes]),
            arrival: 0.0,
        }
    }

    /// Both accounting modes of a `limit`-byte budget.
    fn budgets(limit: u64) -> [FlightBudget; 2] {
        [false, true].map(|single_thread| FlightBudget {
            limit,
            used: AtomicU64::new(0),
            single_thread,
        })
    }

    #[test]
    fn charge_and_release_balance() {
        for b in budgets(1000) {
            let m = msg(100);
            assert!(b.charge(&m).is_ok());
            assert_eq!(b.used.load(Ordering::Relaxed), 100 + MSG_OVERHEAD);
            b.release(&m);
            assert_eq!(b.used.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn overflow_rolls_back_and_reports_the_total() {
        for b in budgets(150) {
            let m = msg(100);
            let e = b.charge(&m).unwrap_err();
            assert_eq!(e, 100 + MSG_OVERHEAD);
            assert_eq!(
                b.used.load(Ordering::Relaxed),
                0,
                "failed charge rolled back"
            );
        }
    }

    #[test]
    fn synthetic_payloads_cost_only_overhead() {
        // A 512-rank world moves tens of GB of *simulated* gradient bytes;
        // only the per-message bookkeeping may count against the budget.
        let m = Message {
            src: 0,
            tag: 0,
            payload: Payload::Synthetic { bytes: 1 << 30 },
            arrival: 0.0,
        };
        assert_eq!(FlightBudget::cost(&m), MSG_OVERHEAD);
    }
}
