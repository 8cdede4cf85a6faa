//! Horovod runtime knobs.
//!
//! [`HorovodConfig`] is `#[non_exhaustive]`: construct it through
//! [`HorovodConfig::default`] / [`HorovodConfig::tuned_for`] or the
//! validated [`HorovodConfig::builder`], never a struct literal, so new
//! knobs land additively.

use std::fmt;

/// Communication backend selection (paper compares MVAPICH2-GDR and NCCL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// CUDA-aware MPI (MVAPICH2-GDR-like) — honours `MpiConfig` presets.
    Mpi,
    /// NCCL-like ring collectives.
    Nccl,
}

/// A [`HorovodConfigBuilder`] rejected its knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid HorovodConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Horovod configuration (§II-D).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct HorovodConfig {
    /// `HOROVOD_FUSION_THRESHOLD`: fusion buffer capacity in bytes
    /// (default 64 MB).
    pub fusion_threshold: u64,
    /// `HOROVOD_CYCLE_TIME`: coordinator cycle period in seconds
    /// (default 3.5 ms).
    pub cycle_time: f64,
    /// Communication backend.
    pub backend: Backend,
    /// Enable the online communication tuner (see [`crate::tuner`]): the
    /// first few steps each measure one candidate knob set, then the
    /// argmin freezes for the rest of the run. Off by default — the tuned
    /// knobs change step timing, so runs that must match a committed
    /// baseline leave this off or pre-warm the `DLSR_TUNE_CACHE` file.
    pub tune_comm: bool,
}

impl Default for HorovodConfig {
    fn default() -> Self {
        HorovodConfig {
            fusion_threshold: 64 << 20,
            cycle_time: 3.5e-3,
            backend: Backend::Mpi,
            tune_comm: false,
        }
    }
}

impl HorovodConfig {
    /// Tuned configuration per the paper (§II-D: "HOROVOD_FUSION_THRESHOLD
    /// and HOROVOD_CYCLE_TIME are carefully tuned at each scale"): larger
    /// worlds prefer a shorter cycle (less added latency per reduction
    /// round) — the fusion threshold stays at the 64 MB default because
    /// EDSR's gradient set fits in few groups either way.
    pub fn tuned_for(world: usize) -> Self {
        let cycle_time = if world >= 64 { 1.0e-3 } else { 3.5e-3 };
        HorovodConfig {
            cycle_time,
            ..Default::default()
        }
    }

    /// Chainable, validated construction starting from the defaults.
    pub fn builder() -> HorovodConfigBuilder {
        HorovodConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Reopen any config for further tweaking.
    pub fn to_builder(self) -> HorovodConfigBuilder {
        HorovodConfigBuilder { cfg: self }
    }
}

/// Builder for [`HorovodConfig`]: defaults-based, chainable, validated at
/// [`HorovodConfigBuilder::try_build`].
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until built"]
pub struct HorovodConfigBuilder {
    cfg: HorovodConfig,
}

impl HorovodConfigBuilder {
    /// Fusion buffer capacity in bytes.
    pub fn fusion_threshold(mut self, bytes: u64) -> Self {
        self.cfg.fusion_threshold = bytes;
        self
    }

    /// Coordinator cycle period in seconds.
    pub fn cycle_time(mut self, seconds: f64) -> Self {
        self.cfg.cycle_time = seconds;
        self
    }

    /// Communication backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Enable the online communication tuner.
    pub fn tune_comm(mut self, on: bool) -> Self {
        self.cfg.tune_comm = on;
        self
    }

    /// Validate and build.
    pub fn try_build(self) -> Result<HorovodConfig, ConfigError> {
        let c = &self.cfg;
        if c.fusion_threshold == 0 {
            return Err(ConfigError(
                "fusion_threshold must be positive (a zero-capacity fusion buffer \
                 cannot carry any gradient)"
                    .into(),
            ));
        }
        if !(c.cycle_time > 0.0 && c.cycle_time.is_finite()) {
            return Err(ConfigError(format!(
                "cycle_time ({}) must be a positive duration",
                c.cycle_time
            )));
        }
        Ok(self.cfg)
    }

    /// [`HorovodConfigBuilder::try_build`], panicking on invalid knobs.
    pub fn build(self) -> HorovodConfig {
        self.try_build()
            .unwrap_or_else(|e| panic!("HorovodConfigBuilder::build: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_horovod_documentation() {
        let c = HorovodConfig::default();
        assert_eq!(c.fusion_threshold, 64 << 20);
        assert!((c.cycle_time - 3.5e-3).abs() < 1e-12);
    }

    #[test]
    fn tuning_shortens_cycle_at_scale() {
        assert!(HorovodConfig::tuned_for(512).cycle_time < HorovodConfig::tuned_for(4).cycle_time);
    }

    #[test]
    fn builder_chains_and_round_trips() {
        let c = HorovodConfig::tuned_for(128)
            .to_builder()
            .fusion_threshold(32 << 20)
            .backend(Backend::Nccl)
            .tune_comm(true)
            .build();
        assert_eq!(c.fusion_threshold, 32 << 20);
        assert_eq!(c.backend, Backend::Nccl);
        assert!(c.tune_comm, "tune_comm knob must round-trip");
        assert!(!HorovodConfig::default().tune_comm, "tuner is opt-in");
        assert!((c.cycle_time - 1.0e-3).abs() < 1e-12);
        assert_eq!(HorovodConfig::builder().build(), HorovodConfig::default());
    }

    #[test]
    fn builder_rejects_degenerate_knobs() {
        assert!(HorovodConfig::builder()
            .fusion_threshold(0)
            .try_build()
            .is_err());
        assert!(HorovodConfig::builder()
            .cycle_time(0.0)
            .try_build()
            .is_err());
        assert!(HorovodConfig::builder()
            .cycle_time(f64::NAN)
            .try_build()
            .is_err());
    }
}
