//! Online communication autotuning: a deterministic coordinate-descent
//! tuner over the Horovod/MPI knobs that dominate exposed communication
//! time, and its rows of the persistent tune cache.
//!
//! The paper tunes `HOROVOD_FUSION_THRESHOLD` and `HOROVOD_CYCLE_TIME` "at
//! each scale" by hand (§II-D); this module automates that sweep *inside*
//! the simulated run. The tuner gives each candidate knob set two
//! consecutive training steps — a *settle* step whose duration is
//! discarded, then a *measure* step that scores the candidate — and, once
//! every candidate has been measured, freezes on the argmin for the rest
//! of the run. The settle step matters: switching knobs re-plans the
//! fusion groups and faults fresh buffers through the registration cache,
//! and those one-shot transition costs would otherwise be billed to the
//! candidate (most unfairly to candidate 0, whose "transition" is the
//! run's own start-up), letting a steady-state-worse knob set win.
//!
//! # Determinism
//!
//! Everything the tuner does is a pure function of agreed values:
//!
//! - the candidate list is derived from the base config alone,
//! - the per-step measurement is the *virtual* step duration, agreed
//!   across ranks with a 1-element Max-allreduce (so no rank can act on a
//!   locally divergent clock), and the virtual clock itself is
//!   deterministic for a given seed and config,
//! - ties in the argmin break toward the lowest candidate index.
//!
//! The tune cache short-circuits exploration: its `comm` rows (the file
//! `DLSR_TUNE_CACHE` names, shared with the GEMM blueprints of
//! `dlsr-tensor::tune`, which owns its format and parser) freeze a tuner
//! whose `(world, grad_bytes)` key they carry at step 0, and rank 0
//! appends each new freeze. So *same binary + same tune cache + same seed
//! ⇒ same digest*, the contract `cluster/tests/comm_tune_determinism.rs`
//! enforces across simulator cores and thread counts. `cycle_time` is
//! carried as integer nanoseconds so the file round-trips bitwise.

use dlsr_tensor::tune::{parse_num, TuneRow, TuneTable};

/// One knob set the tuner can run a step with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommTuneEntry {
    /// Fusion buffer capacity in bytes (`HOROVOD_FUSION_THRESHOLD`).
    pub fusion_threshold: u64,
    /// Coordinator cycle period in integer nanoseconds
    /// (`HOROVOD_CYCLE_TIME`; integer so the cache file round-trips
    /// bitwise).
    pub cycle_time_ns: u64,
    /// Recursive-doubling upper size bin, bytes (see `CommTuning`).
    pub rd_threshold: u64,
    /// Pipelined-ring lower size bin, bytes (see `CommTuning`).
    pub pipeline_threshold: u64,
}

impl CommTuneEntry {
    /// The cycle period in seconds.
    pub fn cycle_time(&self) -> f64 {
        self.cycle_time_ns as f64 * 1e-9
    }

    /// Clamp a (possibly file-sourced) entry to knobs the builders would
    /// accept: positive fusion and cycle, and `rd < pipeline`. The fusion
    /// floor is deliberately low (1 KiB): the candidate sweep starts from
    /// the *configured* base, and clamping it away would leave the tuner
    /// unable to even reproduce the untuned baseline.
    fn sanitized(mut self) -> CommTuneEntry {
        self.fusion_threshold = self.fusion_threshold.max(1 << 10);
        self.cycle_time_ns = self.cycle_time_ns.max(1_000); // ≥ 1 µs
        self.pipeline_threshold = self.pipeline_threshold.max(1 << 17);
        self.rd_threshold = self.rd_threshold.clamp(1, self.pipeline_threshold / 2);
        self
    }
}

impl TuneRow for CommTuneEntry {
    const TAG: &'static str = "comm";
    type Key = (usize, u64);

    fn parse(f: &[&str]) -> Result<(Self::Key, Self), String> {
        let &[world, grad_bytes, fusion, cycle_ns, rd, pipeline] = f else {
            return Err(format!("{} fields, expected 6", f.len()));
        };
        let e = CommTuneEntry {
            fusion_threshold: parse_num(fusion)?,
            cycle_time_ns: parse_num(cycle_ns)?,
            rd_threshold: parse_num(rd)?,
            pipeline_threshold: parse_num(pipeline)?,
        };
        Ok(((parse_num(world)?, parse_num(grad_bytes)?), e.sanitized()))
    }

    fn render(&self, &(world, grad_bytes): &Self::Key) -> String {
        format!(
            "{world} {grad_bytes} {} {} {} {}",
            self.fusion_threshold, self.cycle_time_ns, self.rd_threshold, self.pipeline_threshold
        )
    }
}

/// The deterministic candidate sweep around `base`: the base itself, then
/// one move per knob axis (coordinate descent, single round). Clamping can
/// make moves collide; duplicates are dropped so every measured step is
/// informative.
pub fn candidates(base: CommTuneEntry) -> Vec<CommTuneEntry> {
    let base = base.sanitized();
    let moves = [
        base,
        CommTuneEntry {
            fusion_threshold: base.fusion_threshold / 4,
            ..base
        },
        CommTuneEntry {
            fusion_threshold: base.fusion_threshold.saturating_mul(4),
            ..base
        },
        CommTuneEntry {
            cycle_time_ns: base.cycle_time_ns / 2,
            ..base
        },
        CommTuneEntry {
            cycle_time_ns: base.cycle_time_ns / 8,
            ..base
        },
        CommTuneEntry {
            rd_threshold: base.rd_threshold.saturating_mul(4),
            ..base
        },
        CommTuneEntry {
            pipeline_threshold: base.pipeline_threshold / 2,
            ..base
        },
        // Deep pipeline move: pulls MB-scale fused groups into the
        // chunked-ring bin, where every hop is wire-compressed — the
        // decisive knob when the defaults mis-bin a workload's dominant
        // message size.
        CommTuneEntry {
            pipeline_threshold: base.pipeline_threshold / 8,
            ..base
        },
    ];
    let mut out: Vec<CommTuneEntry> = Vec::with_capacity(moves.len());
    for m in moves {
        let m = m.sanitized();
        if !out.contains(&m) {
            out.push(m);
        }
    }
    out
}

/// Per-run tuner state: explore each candidate for two steps (settle +
/// measure), then freeze on the argmin over the measure steps.
/// Construction consults the tune cache; a hit freezes immediately
/// (no exploration steps, digest-stable from step 0).
#[derive(Debug)]
pub struct CommTuner {
    key: (usize, u64),
    candidates: Vec<CommTuneEntry>,
    /// Exploration steps observed so far; candidate `observed / 2` runs
    /// the next step, and only odd-numbered observations (each
    /// candidate's second step) count as measurements.
    observed: usize,
    measured: Vec<f64>,
    frozen: Option<CommTuneEntry>,
}

impl CommTuner {
    /// Tuner for a `world`-rank run reducing `grad_bytes` of gradients per
    /// step, starting from the `base` knob set.
    pub fn new(world: usize, grad_bytes: u64, base: CommTuneEntry) -> Self {
        let key = (world, grad_bytes);
        let frozen = TABLE.get(&key);
        CommTuner {
            key,
            candidates: if frozen.is_some() {
                Vec::new()
            } else {
                candidates(base)
            },
            observed: 0,
            measured: Vec::new(),
            frozen,
        }
    }

    /// The knob set to run the *next* step with.
    pub fn current(&self) -> CommTuneEntry {
        if let Some(e) = self.frozen {
            return e;
        }
        self.candidates[(self.observed / 2).min(self.candidates.len() - 1)]
    }

    /// Whether the tuner still has unmeasured candidates (an exploring
    /// step must end with an agreement allreduce feeding
    /// [`CommTuner::observe`]).
    pub fn exploring(&self) -> bool {
        self.frozen.is_none() && self.observed < 2 * self.candidates.len()
    }

    /// The frozen decision, once exploration is over.
    pub fn frozen(&self) -> Option<CommTuneEntry> {
        self.frozen
    }

    /// Record the *agreed* duration of the step that ran
    /// [`CommTuner::current`]. Each candidate's first (settle) step is
    /// discarded — it carries the re-plan and registration-cache costs of
    /// switching knobs — and its second step is the measurement. Once
    /// every candidate is measured the tuner freezes on the argmin (ties
    /// → lowest index); `is_root` (rank 0) persists the decision to the
    /// tune cache.
    pub fn observe(&mut self, agreed_step_seconds: f64, is_root: bool) {
        if self.frozen.is_some() {
            return;
        }
        let is_measure_step = self.observed % 2 == 1;
        self.observed += 1;
        if !is_measure_step {
            return;
        }
        self.measured.push(agreed_step_seconds);
        if self.measured.len() < self.candidates.len() {
            return;
        }
        let mut best = 0usize;
        for (i, &d) in self.measured.iter().enumerate() {
            if d < self.measured[best] {
                best = i;
            }
        }
        let e = self.candidates[best];
        self.frozen = Some(e);
        if is_root {
            TABLE.record(self.key, e);
        }
    }
}

/// The comm tuner's frozen decisions: the cache file's `comm` rows, then
/// each rank 0 freeze of this process.
pub static TABLE: TuneTable<CommTuneEntry> = TuneTable::new(Vec::new);

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CommTuneEntry {
        CommTuneEntry {
            fusion_threshold: 64 << 20,
            cycle_time_ns: 3_500_000,
            rd_threshold: 128 << 10,
            pipeline_threshold: 8 << 20,
        }
    }

    #[test]
    fn candidates_start_at_base_and_deduplicate() {
        let c = candidates(base());
        assert_eq!(c[0], base());
        assert!(c.len() >= 5 && c.len() <= 8, "got {} candidates", c.len());
        for (i, a) in c.iter().enumerate() {
            for b in &c[i + 1..] {
                assert_ne!(a, b, "duplicate candidate survived");
            }
        }
    }

    #[test]
    fn candidates_always_satisfy_builder_invariants() {
        // Degenerate bases are clamped back into the region
        // MpiConfigBuilder::try_build accepts (rd < pipeline, all > 0).
        let degenerate = CommTuneEntry {
            fusion_threshold: 1,
            cycle_time_ns: 1,
            rd_threshold: 1 << 30,
            pipeline_threshold: 1 << 18,
        };
        for e in candidates(degenerate) {
            assert!(e.fusion_threshold > 0);
            assert!(e.cycle_time_ns >= 1_000);
            assert!(
                e.rd_threshold < e.pipeline_threshold,
                "rd {} !< pipeline {}",
                e.rd_threshold,
                e.pipeline_threshold
            );
        }
    }

    #[test]
    fn tuner_explores_every_candidate_then_freezes_on_argmin() {
        let mut t = CommTuner::new(8, 999_001, base());
        let n = candidates(base()).len();
        let mut seen = Vec::new();
        for i in 0..n {
            // Settle step: same candidate two steps in a row, and its
            // duration must NOT count — feed it an absurdly good time.
            assert!(t.exploring());
            let settling = t.current();
            t.observe(0.001, false);
            assert!(t.exploring());
            assert_eq!(t.current(), settling, "candidate changed mid-pair");
            seen.push(t.current());
            // Measure step: make candidate 2 the winner.
            t.observe(if i == 2 { 0.5 } else { 1.0 + i as f64 }, false);
        }
        assert!(!t.exploring());
        assert_eq!(t.frozen().unwrap(), seen[2]);
        assert_eq!(t.current(), seen[2]);
        // further observations are ignored
        t.observe(0.0, false);
        assert_eq!(t.frozen().unwrap(), seen[2]);
    }

    #[test]
    fn argmin_ties_break_toward_the_lowest_index() {
        let mut t = CommTuner::new(8, 999_002, base());
        let n = candidates(base()).len();
        let first = t.current();
        for _ in 0..2 * n {
            t.observe(1.0, false);
        }
        assert_eq!(t.frozen().unwrap(), first);
    }

    #[test]
    fn installed_entry_freezes_a_new_tuner_at_step_zero() {
        let e = CommTuneEntry {
            fusion_threshold: 4 << 20,
            cycle_time_ns: 500_000,
            rd_threshold: 64 << 10,
            pipeline_threshold: 4 << 20,
        };
        TABLE.install((16, 999_003), e);
        let t = CommTuner::new(16, 999_003, base());
        assert!(!t.exploring());
        assert_eq!(t.frozen(), Some(e));
        assert_eq!(t.current(), e);
        assert_eq!(TABLE.get(&(16, 999_003)), Some(e));
    }

    #[test]
    fn root_observe_installs_the_frozen_decision() {
        let mut t = CommTuner::new(32, 999_004, base());
        let n = candidates(base()).len();
        for _ in 0..2 * n {
            t.observe(2.0, true);
        }
        assert_eq!(TABLE.get(&(32, 999_004)), t.frozen());
    }

    /// Parse one `comm` row's fields.
    fn comm(line: &str) -> Result<((usize, u64), CommTuneEntry), String> {
        CommTuneEntry::parse(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn cache_line_round_trips() {
        let e = base();
        let line = e.render(&(8, 123456));
        assert_eq!(line, "8 123456 67108864 3500000 131072 8388608");
        let (key, parsed) = comm(&line).expect("parse");
        assert_eq!(key, (8, 123456));
        assert_eq!(parsed, e);
        assert!(comm("garbage").is_err());
        assert!(comm("8 1 2 3 4").is_err(), "short line rejected");
        assert!(comm("8 1 2 3 x 5").is_err());
        assert!(comm("8 1 2 3 4 -5").is_err());
    }

    #[test]
    fn sanitize_clamps_corrupt_entries() {
        let (_, e) = comm("4 100 0 0 9999999999 1").expect("parse");
        assert!(e.fusion_threshold > 0 && e.cycle_time_ns >= 1_000);
        assert!(e.rd_threshold < e.pipeline_threshold);
    }
}
