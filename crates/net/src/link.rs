//! α–β link cost model.

use serde::{Deserialize, Serialize};

/// A point-to-point link: `time(n) = latency + n / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// One-way latency in seconds (α).
    pub latency: f64,
    /// Sustained bandwidth in bytes/second (1/β).
    pub bandwidth: f64,
}

impl LinkModel {
    /// Construct from latency (s) and bandwidth (B/s).
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        assert!(latency >= 0.0 && bandwidth > 0.0);
        LinkModel { latency, bandwidth }
    }

    /// Transfer time for `bytes`.
    #[inline]
    pub fn time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// The message size at which bandwidth cost equals latency cost
    /// (half-saturation point) — useful for eager/rendezvous thresholds.
    pub fn half_saturation_bytes(&self) -> u64 {
        (self.latency * self.bandwidth) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_affine_in_bytes() {
        let l = LinkModel::new(1e-6, 1e9);
        assert!((l.time(0) - 1e-6).abs() < 1e-12);
        assert!((l.time(1_000_000) - (1e-6 + 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn half_saturation() {
        let l = LinkModel::new(2e-6, 10e9);
        assert_eq!(l.half_saturation_bytes(), 20_000);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = LinkModel::new(1e-6, 0.0);
    }
}
