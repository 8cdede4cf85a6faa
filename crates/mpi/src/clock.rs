//! Per-rank virtual time.

/// A monotone virtual clock in seconds.
///
/// Compute costs advance it locally; receives merge it with message arrival
/// times. All experiment timings reported by the workspace are differences
/// of virtual clocks.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct VClock(f64);

impl VClock {
    /// Clock at time zero.
    pub fn zero() -> Self {
        VClock(0.0)
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.0
    }

    /// Advance by a non-negative duration.
    #[inline]
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "negative time step {dt}");
        debug_assert!(dt.is_finite(), "non-finite time step");
        self.0 += dt;
    }

    /// Merge with an event timestamp: the clock cannot observe an event
    /// before it happened.
    #[inline]
    pub fn merge(&mut self, t: f64) {
        if t > self.0 {
            self.0 = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = VClock::zero();
        c.advance(1.5);
        c.advance(0.5);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn merge_is_max() {
        let mut c = VClock::zero();
        c.advance(3.0);
        c.merge(2.0);
        assert_eq!(c.now(), 3.0);
        c.merge(5.0);
        assert_eq!(c.now(), 5.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn negative_advance_is_rejected_in_debug() {
        let mut c = VClock::zero();
        c.advance(-1.0);
    }
}
