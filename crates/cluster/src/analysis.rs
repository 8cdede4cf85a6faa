//! Scaling-efficiency projection and the bench regression gate behind
//! `dlsr analyze`.
//!
//! The paper's Figs 12/13 ask one question of a measured profile: *what
//! happens to step time as the world grows?* This module answers it by
//! fitting a small closed-form cost model to a traced small-world
//! training run and extrapolating along the collectives' algorithmic
//! scaling laws:
//!
//! - **base** — critical-path kernel compute plus checkpoint/fault cost
//!   per step. Constant under weak scaling (fixed local batch).
//! - **coordination** — the Horovod negotiate round. Rank 0 absorbs one
//!   readiness report per peer, so the round grows linearly in
//!   `world − 1` ([`dlsr_horovod::coordinator`]).
//! - **communication** — each fusion group's allreduce, scaled by the
//!   round count of the algorithm [`dlsr_mpi::MpiConfig::select_allreduce`]
//!   picks for its payload: `log2(p)` for recursive doubling, `2(p−1)` rounds
//!   (latency regime) or `2(p−1)/p` payload factors (bandwidth regime)
//!   for ring-family algorithms.
//! - **overlap capacity** — the comm seconds the fit-world run hid under
//!   backward compute. Projection assumes the engine keeps hiding the
//!   same absolute capacity; only the remainder is exposed.
//!
//! All fitted quantities live on the **virtual** clock, so a committed
//! [`AnalysisReport`] is machine-independent and can serve as a CI
//! regression baseline ([`gate`]).

use std::collections::BTreeMap;

use dlsr_mpi::{AllreduceAlgorithm, MpiConfig};
use dlsr_net::ClusterTopology;
use dlsr_trace::analyze::{collective_profiles, critical_path, Attribution, CritPath};
use dlsr_trace::TraceEvent;
use serde::{Deserialize, Serialize};

use crate::realtrain::{train_real, RealTrainConfig};
use crate::scenario::Scenario;

/// One traced real-training run: everything the fit needs.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Ranks in the run.
    pub world: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Virtual makespan, seconds.
    pub makespan: f64,
    /// Recorded spans (virtual + wall).
    pub trace: Vec<TraceEvent>,
    /// Counter snapshot at the end of the run.
    pub counters: BTreeMap<String, f64>,
}

/// The weak-scaling configuration `dlsr profile` and `dlsr analyze` trace:
/// one image per rank per step.
pub fn weak_scaling_config(world: usize, steps: usize, checkpoint_every: usize) -> RealTrainConfig {
    RealTrainConfig::builder()
        .steps(steps)
        .global_batch(world)
        .checkpoint_every(checkpoint_every)
        .build()
}

/// The workspace's one trace window: run `run` with a fresh
/// [`dlsr_trace::TraceSink`] in scope on the calling thread and return its
/// result with the counters its worlds left in the sink (their spans are in
/// the result: each world drains its lanes as it ends). The sink is this
/// call's alone — runs on other threads neither see it nor wait for it.
pub fn traced<R>(run: impl FnOnce() -> R) -> (R, BTreeMap<String, f64>) {
    let sink = dlsr_trace::TraceSink::new();
    let out = sink.scope(run);
    (out, sink.counters())
}

/// Run real EDSR training on `topo` with tracing on and collect the spans.
pub fn traced_real_run(topo: &ClusterTopology, mpi: MpiConfig, cfg: &RealTrainConfig) -> TracedRun {
    let (res, counters) = traced(|| train_real(topo, mpi, cfg));
    TracedRun {
        world: topo.total_gpus(),
        steps: cfg.steps,
        makespan: res.makespan,
        trace: res.trace,
        counters,
    }
}

/// Per-fusion-group communication term of the fitted model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupCost {
    /// Collective span name (`allreduce[g0] 8192B`).
    pub name: String,
    /// Payload bytes.
    pub bytes: u64,
    /// Mean invocations per step (per rank).
    pub calls_per_step: f64,
    /// Mean measured duration at the fit world, seconds.
    pub mean_s: f64,
    /// Algorithm the size-binned selector picks for this payload, with
    /// the wire format suffixed when lossy (`"PipelinedRing+bf16"`) —
    /// wire compression is a constant factor at every world size, so it
    /// cancels in the scaling ratio but is recorded for the report.
    pub algo: String,
}

/// Closed-form step-time model fitted from one small-world trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Scenario label the trace was recorded under.
    pub scenario: String,
    /// World size of the fit run.
    pub fit_world: usize,
    /// Images per rank per step (weak scaling holds this fixed).
    pub local_batch: usize,
    /// Compute + checkpoint + fault seconds per step (world-invariant).
    pub base_s: f64,
    /// Negotiate seconds per step at the fit world.
    pub negotiate_s: f64,
    /// Straggler wait per step not explained by negotiate (kept
    /// constant — it is collective entry skew, not a scaling term).
    pub wait_resid_s: f64,
    /// Total per-step communication at the fit world (hidden + exposed).
    pub comm_total_s: f64,
    /// Comm seconds per step the fit run hid under backward compute.
    pub hidden_s: f64,
    /// Per-group communication terms.
    pub groups: Vec<GroupCost>,
}

/// Round/payload scaling factor of an allreduce algorithm at world `p`.
/// Relative use only: predictions divide out the factor at the fit
/// world, so constant per-round costs cancel.
fn algo_scale(algo: AllreduceAlgorithm, bytes: u64, p: usize) -> f64 {
    // Below this payload a round is latency-bound and cost tracks the
    // *round count*; above it the payload-bytes-on-the-wire factor
    // dominates (ring moves 2(p−1)/p of the buffer per rank).
    const LATENCY_BOUND_BYTES: u64 = 64 << 10;
    let pf = p as f64;
    let ring = || {
        if bytes <= LATENCY_BOUND_BYTES {
            2.0 * (pf - 1.0)
        } else {
            2.0 * (pf - 1.0) / pf
        }
    };
    match algo {
        AllreduceAlgorithm::RecursiveDoubling => {
            // Non-power-of-two worlds fall back to ring inside the
            // collective, mirroring the implementation.
            if p.is_power_of_two() {
                pf.log2().max(1.0)
            } else {
                ring()
            }
        }
        _ => ring(),
    }
}

/// Fit the cost model from a traced run. Also returns the critical-path
/// analysis of the same trace (callers print and attach it).
pub fn fit_model(run: &TracedRun, sc: Scenario) -> (CostModel, CritPath) {
    let cp = critical_path(&run.trace, run.steps);
    let steps = run.steps.max(1) as f64;
    let per_step = |x: f64| x / steps;
    let a = &cp.total;

    let mpi_cfg = sc.mpi_config();
    let mut groups = Vec::new();
    let mut comm_total = 0.0;
    let mut negotiate_s = 0.0;
    for row in collective_profiles(&run.trace) {
        if row.name.starts_with("negotiate") {
            negotiate_s += row.calls as f64 * row.mean_s / steps;
        } else {
            let calls_per_step = row.calls as f64 / steps;
            comm_total += calls_per_step * row.mean_s;
            let algo = mpi_cfg.select_allreduce(row.bytes);
            let wf = mpi_cfg.tuning.select_wire(row.bytes);
            groups.push(GroupCost {
                algo: if wf.is_f32() {
                    format!("{algo:?}")
                } else {
                    format!("{algo:?}+{wf}")
                },
                name: row.name,
                bytes: row.bytes,
                calls_per_step,
                mean_s: row.mean_s,
            });
        }
    }

    let model = CostModel {
        scenario: sc.label().to_string(),
        fit_world: run.world,
        local_batch: 1,
        base_s: per_step(a.compute_s + a.checkpoint_s + a.fault_s),
        negotiate_s,
        wait_resid_s: (per_step(a.straggler_wait_s) - negotiate_s).max(0.0),
        comm_total_s: comm_total,
        hidden_s: (comm_total - per_step(a.exposed_comm_s)).max(0.0),
        groups,
    };
    (model, cp)
}

impl CostModel {
    /// Predicted step time at world `p`, seconds.
    pub fn predict_step_s(&self, p: usize) -> f64 {
        let fit = self.fit_world.max(2);
        let negotiate = self.negotiate_s * (p.saturating_sub(1)) as f64 / (fit - 1) as f64;
        let mut comm = 0.0;
        for g in &self.groups {
            // Strip any `+wire` suffix: compression scales the payload by
            // the same factor at every world, so it cancels in the ratio.
            let algo: AllreduceAlgorithm = match g.algo.split('+').next().unwrap_or("") {
                "Ring" => AllreduceAlgorithm::Ring,
                "RecursiveDoubling" => AllreduceAlgorithm::RecursiveDoubling,
                "PipelinedRing" => AllreduceAlgorithm::PipelinedRing,
                _ => AllreduceAlgorithm::TwoLevel,
            };
            let scale = algo_scale(algo, g.bytes, p) / algo_scale(algo, g.bytes, fit);
            comm += g.calls_per_step * g.mean_s * scale;
        }
        let exposed = (comm - self.hidden_s).max(0.0);
        self.base_s + self.wait_resid_s + negotiate + exposed
    }

    /// Predicted weak-scaling throughput (images/s) at world `p`.
    pub fn predict_images_per_sec(&self, p: usize) -> f64 {
        p as f64 * self.local_batch as f64 / self.predict_step_s(p)
    }

    /// Predicted scaling efficiency at world `p`: throughput over the
    /// ideal `p ×` extrapolation of the comm-free single-rank step.
    pub fn predict_efficiency(&self, p: usize) -> f64 {
        if self.base_s <= 0.0 {
            return 0.0;
        }
        self.base_s / self.predict_step_s(p)
    }
}

/// Model-vs-measurement comparison at one world size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    pub world: usize,
    /// Model-predicted step time, seconds.
    pub predicted_step_s: f64,
    /// Measured (virtual) step time of an actual run, seconds.
    pub actual_step_s: f64,
    /// `|predicted − actual| / actual`.
    pub rel_err: f64,
}

/// Projected operating point at one world size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProjectionPoint {
    pub world: usize,
    pub step_s: f64,
    pub images_per_sec: f64,
    pub efficiency: f64,
}

/// Validate the fitted model against actual runs at `worlds` (single
/// node, matching the fit run's transport domain).
pub fn validate(
    model: &CostModel,
    sc: Scenario,
    steps: usize,
    worlds: &[usize],
) -> Vec<ValidationPoint> {
    worlds
        .iter()
        .map(|&w| {
            let topo = ClusterTopology {
                name: format!("validate-1x{w}"),
                nodes: 1,
                gpus_per_node: w,
            };
            let run = traced_real_run(&topo, sc.mpi_config(), &weak_scaling_config(w, steps, 0));
            let actual = run.makespan / steps.max(1) as f64;
            let predicted = model.predict_step_s(w);
            ValidationPoint {
                world: w,
                predicted_step_s: predicted,
                actual_step_s: actual,
                rel_err: if actual > 0.0 {
                    (predicted - actual).abs() / actual
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Project the efficiency curve at the paper's world sizes.
pub fn project(model: &CostModel, worlds: &[usize]) -> Vec<ProjectionPoint> {
    worlds
        .iter()
        .map(|&w| ProjectionPoint {
            world: w,
            step_s: model.predict_step_s(w),
            images_per_sec: model.predict_images_per_sec(w),
            efficiency: model.predict_efficiency(w),
        })
        .collect()
}

/// Run the costs-only simulator (paper-scale EDSR workload, event core)
/// on `topo` with tracing enabled and package the measured window as a
/// [`TracedRun`], so the same [`fit_model`] machinery that fits real
/// training traces can fit simulated ones.
pub fn traced_sim_run(
    topo: &ClusterTopology,
    sc: Scenario,
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
) -> TracedRun {
    let (w, tensors) = crate::workload::edsr_measured_workload();
    let trainer = crate::sim::SimTrainer::new(w, tensors, batch, sc, topo, seed)
        .expect("per-GPU batch must fit");
    let (res, counters) =
        traced(|| crate::experiment::run_world(topo, sc.mpi_config(), &trainer, warmup, steps));
    let warm_end = res.ranks.iter().map(|r| r.warm_end).fold(0.0, f64::max);
    let end = res.ranks.iter().map(|r| r.end).fold(0.0, f64::max);
    let trace = res.ranks.into_iter().flat_map(|r| r.trace).collect();
    TracedRun {
        world: topo.total_gpus(),
        steps,
        makespan: end - warm_end,
        trace,
        counters,
    }
}

/// Projection vs. discrete-event simulation at one world size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCheckPoint {
    pub world: usize,
    /// Step time the analytic model predicts, seconds.
    pub predicted_step_s: f64,
    /// Step time the event-driven simulator measured, seconds.
    pub simulated_step_s: f64,
    /// `|predicted − simulated| / simulated`.
    pub step_rel_err: f64,
    /// Model-projected weak-scaling efficiency.
    pub predicted_eff: f64,
    /// Simulated weak-scaling efficiency (vs. the single-rank step).
    pub simulated_eff: f64,
    /// `|predicted_eff − simulated_eff|`, in efficiency points.
    pub eff_abs_err: f64,
}

/// Cross-validation of the analytic projection against the event-driven
/// simulator at world sizes real training cannot reach: the model is
/// fitted from a *simulated* trace at `fit_world` ranks and its
/// extrapolation compared against actual driven-engine runs at 64–512.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCheck {
    /// Ranks of the simulated fit trace.
    pub fit_world: usize,
    pub points: Vec<SimCheckPoint>,
}

/// Fit the cost model on a small simulated world and validate its
/// projection against full event-driven simulations at `worlds` (ranks;
/// multiples of 4 — Lassen nodes hold 4 GPUs).
pub fn sim_check(
    sc: Scenario,
    batch: usize,
    warmup: usize,
    steps: usize,
    fit_nodes: usize,
    worlds: &[usize],
    seed: u64,
) -> SimCheck {
    let fit_topo = ClusterTopology::lassen(fit_nodes);
    let fit_run = traced_sim_run(&fit_topo, sc, batch, warmup, steps, seed);
    let (model, _) = fit_model(&fit_run, sc);
    let t1 = crate::simscale::single_rank_step_s(sc, batch, warmup, steps, seed);
    let points = worlds
        .iter()
        .map(|&w| {
            assert_eq!(w % 4, 0, "worlds are whole Lassen nodes (4 GPUs each)");
            let p = crate::simscale::measure_point(w / 4, sc, batch, warmup, steps, seed, t1);
            let predicted_step_s = model.predict_step_s(w);
            let simulated_step_s = p.virtual_step_s;
            let predicted_eff = model.predict_efficiency(w);
            let simulated_eff = p.efficiency;
            SimCheckPoint {
                world: w,
                predicted_step_s,
                simulated_step_s,
                step_rel_err: if simulated_step_s > 0.0 {
                    (predicted_step_s - simulated_step_s).abs() / simulated_step_s
                } else {
                    0.0
                },
                predicted_eff,
                simulated_eff,
                eff_abs_err: (predicted_eff - simulated_eff).abs(),
            }
        })
        .collect();
    SimCheck {
        fit_world: fit_topo.total_gpus(),
        points,
    }
}

/// Everything `dlsr analyze` exports to `results/BENCH_analysis.json`.
/// Virtual-clock quantities only, so the file is identical across
/// machines and usable as a committed regression baseline.
/// `Deserialize` is hand-written so committed baselines recorded before
/// wire accounting existed (no `wire_bytes`/`wire_dense_bytes` keys →
/// `Null`) lift to 0 instead of failing the parse.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalysisReport {
    pub scenario: String,
    /// World of the headline critical-path trace.
    pub world: usize,
    pub steps: usize,
    /// Measured mean step time of the headline trace, seconds.
    pub measured_step_s: f64,
    /// Per-step critical-path attribution of the headline trace.
    pub attribution_per_step: Attribution,
    pub model: CostModel,
    pub validation: Vec<ValidationPoint>,
    pub projection: Vec<ProjectionPoint>,
    /// Projection-vs-simulation cross-validation at 64–512 ranks
    /// (`None` when skipped; absent in pre-simscale baselines).
    pub sim_check: Option<SimCheck>,
    /// Encoded gradient bytes per the `mpi.wire_bytes` counter of the
    /// headline trace (0 when tracing predates wire accounting).
    pub wire_bytes: f64,
    /// Dense f32 bytes the same collectives would have moved
    /// (`mpi.wire_dense_bytes`); `wire_dense_bytes / wire_bytes` is the
    /// achieved compression ratio.
    pub wire_dense_bytes: f64,
}

impl serde::Deserialize for AnalysisReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for AnalysisReport"))?;
        static NULL: serde::Value = serde::Value::Null;
        let field = |k: &str| obj.get(k).unwrap_or(&NULL);
        fn req<T: serde::Deserialize>(v: &serde::Value, k: &str) -> Result<T, serde::Error> {
            T::from_value(v).map_err(|e| serde::Error::msg(format!("AnalysisReport.{k}: {e}")))
        }
        Ok(AnalysisReport {
            scenario: req(field("scenario"), "scenario")?,
            world: req(field("world"), "world")?,
            steps: req(field("steps"), "steps")?,
            measured_step_s: req(field("measured_step_s"), "measured_step_s")?,
            attribution_per_step: req(field("attribution_per_step"), "attribution_per_step")?,
            model: req(field("model"), "model")?,
            validation: req(field("validation"), "validation")?,
            projection: req(field("projection"), "projection")?,
            sim_check: req(field("sim_check"), "sim_check")?,
            wire_bytes: field("wire_bytes").as_f64().unwrap_or(0.0),
            wire_dense_bytes: field("wire_dense_bytes").as_f64().unwrap_or(0.0),
        })
    }
}

impl AnalysisReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("AnalysisReport serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad analysis JSON: {e:?}"))
    }
}

/// Compare a fresh analysis against a committed baseline. Returns one
/// message per regression beyond `tol_pct` percent; empty means the
/// gate passes. Only *worse* directions trip: faster steps, higher
/// efficiency and lower exposed comm always pass.
pub fn gate(current: &AnalysisReport, baseline: &AnalysisReport, tol_pct: f64) -> Vec<String> {
    let tol = tol_pct / 100.0;
    let mut violations = Vec::new();
    let worse = |cur: f64, base: f64| base > 0.0 && cur > base * (1.0 + tol);
    if worse(current.measured_step_s, baseline.measured_step_s) {
        violations.push(format!(
            "step time regressed: {:.3} ms vs baseline {:.3} ms (tol {tol_pct}%)",
            current.measured_step_s * 1e3,
            baseline.measured_step_s * 1e3,
        ));
    }
    if worse(
        current.attribution_per_step.exposed_comm_s,
        baseline.attribution_per_step.exposed_comm_s,
    ) {
        violations.push(format!(
            "exposed comm regressed: {:.3} ms vs baseline {:.3} ms (tol {tol_pct}%)",
            current.attribution_per_step.exposed_comm_s * 1e3,
            baseline.attribution_per_step.exposed_comm_s * 1e3,
        ));
    }
    for base_p in &baseline.projection {
        if let Some(cur_p) = current.projection.iter().find(|p| p.world == base_p.world) {
            if base_p.efficiency > 0.0 && cur_p.efficiency < base_p.efficiency * (1.0 - tol) {
                violations.push(format!(
                    "projected efficiency at {} ranks regressed: {:.1}% vs baseline {:.1}% (tol {tol_pct}%)",
                    base_p.world,
                    cur_p.efficiency * 100.0,
                    base_p.efficiency * 100.0,
                ));
            }
        }
    }
    // Wire-byte accounting may not regress: more encoded bytes per run at
    // equal dense bytes means the compression pipeline lost ground. Gated
    // only when both reports carry wire counters (old baselines hold 0).
    if current.wire_bytes > 0.0
        && baseline.wire_bytes > 0.0
        && worse(current.wire_bytes, baseline.wire_bytes)
    {
        violations.push(format!(
            "wire bytes regressed: {:.0} vs baseline {:.0} (tol {tol_pct}%)",
            current.wire_bytes, baseline.wire_bytes,
        ));
    }
    // Projection-vs-simulation agreement may not decay: the error at each
    // world may grow by at most `tol_pct` efficiency *points* over the
    // baseline (gated only when both reports carry the cross-validation).
    if let (Some(cur), Some(base)) = (&current.sim_check, &baseline.sim_check) {
        for bp in &base.points {
            if let Some(cp) = cur.points.iter().find(|p| p.world == bp.world) {
                if cp.eff_abs_err > bp.eff_abs_err + tol {
                    violations.push(format!(
                        "projection-vs-simulation efficiency error at {} ranks grew: \
                         {:.1} pts vs baseline {:.1} pts (tol {tol_pct} pts)",
                        bp.world,
                        cp.eff_abs_err * 100.0,
                        bp.eff_abs_err * 100.0,
                    ));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> CostModel {
        CostModel {
            scenario: "mpi-opt".into(),
            fit_world: 2,
            local_batch: 1,
            base_s: 1.0e-3,
            negotiate_s: 50.0e-6,
            wait_resid_s: 0.0,
            comm_total_s: 200.0e-6,
            hidden_s: 150.0e-6,
            groups: vec![GroupCost {
                name: "allreduce[g0] 8192B".into(),
                bytes: 8192,
                calls_per_step: 1.0,
                mean_s: 200.0e-6,
                algo: "RecursiveDoubling".into(),
            }],
        }
    }

    #[test]
    fn recursive_doubling_scales_logarithmically() {
        // 8KB at p=4 (log2=2) doubles the comm of p=2 (log2=1).
        let m = toy_model();
        let t2 = m.predict_step_s(2);
        let t4 = m.predict_step_s(4);
        // At p=2: comm 200µs − hidden 150µs = 50µs exposed.
        assert!((t2 - (1.0e-3 + 50.0e-6 + 50.0e-6)).abs() < 1e-12, "{t2}");
        // At p=4: comm 400µs − 150µs = 250µs, negotiate 150µs.
        assert!((t4 - (1.0e-3 + 150.0e-6 + 250.0e-6)).abs() < 1e-12, "{t4}");
        // Efficiency decays monotonically with world size.
        let eff: Vec<f64> = [2, 64, 128, 256, 512]
            .iter()
            .map(|&p| m.predict_efficiency(p))
            .collect();
        for w in eff.windows(2) {
            assert!(w[1] < w[0], "{eff:?}");
        }
    }

    #[test]
    fn hidden_capacity_clamps_exposed_comm_at_zero() {
        let mut m = toy_model();
        m.hidden_s = 10.0; // hides everything at any world size
        let t = m.predict_step_s(512);
        let negotiate = m.negotiate_s * 511.0;
        assert!((t - (m.base_s + negotiate)).abs() < 1e-12);
    }

    #[test]
    fn gate_trips_on_slower_steps_only() {
        let run = |step_s: f64, eff512: f64| AnalysisReport {
            scenario: "mpi-opt".into(),
            world: 8,
            steps: 4,
            measured_step_s: step_s,
            attribution_per_step: Attribution {
                compute_s: step_s * 0.8,
                exposed_comm_s: step_s * 0.2,
                ..Default::default()
            },
            model: toy_model(),
            validation: Vec::new(),
            projection: vec![ProjectionPoint {
                world: 512,
                step_s,
                images_per_sec: 512.0 / step_s,
                efficiency: eff512,
            }],
            sim_check: None,
            wire_bytes: 0.0,
            wire_dense_bytes: 0.0,
        };
        let base = run(1.0e-3, 0.70);
        // Identical → pass; faster → pass; 20% slower at 10% tol → trip.
        assert!(gate(&run(1.0e-3, 0.70), &base, 10.0).is_empty());
        assert!(gate(&run(0.8e-3, 0.75), &base, 10.0).is_empty());
        let v = gate(&run(1.2e-3, 0.70), &base, 10.0);
        assert!(!v.is_empty());
        assert!(v[0].contains("step time regressed"), "{v:?}");
        // Projected-efficiency collapse trips even with flat step time.
        let v = gate(&run(1.0e-3, 0.40), &base, 10.0);
        assert!(
            v.iter().any(|m| m.contains("projected efficiency")),
            "{v:?}"
        );
        // JSON round-trip for the baseline file format.
        let s = base.to_json();
        let back = AnalysisReport::from_json(&s).unwrap();
        assert_eq!(back, base);
    }

    #[test]
    fn gate_trips_when_projection_sim_agreement_decays() {
        let report = |err: f64| AnalysisReport {
            scenario: "mpi-opt".into(),
            world: 8,
            steps: 4,
            measured_step_s: 1.0e-3,
            attribution_per_step: Attribution::default(),
            model: toy_model(),
            validation: Vec::new(),
            projection: Vec::new(),
            sim_check: Some(SimCheck {
                fit_world: 16,
                points: vec![SimCheckPoint {
                    world: 256,
                    predicted_step_s: 1.0e-3,
                    simulated_step_s: 1.0e-3,
                    step_rel_err: err,
                    predicted_eff: 0.8,
                    simulated_eff: 0.8 - err,
                    eff_abs_err: err,
                }],
            }),
            wire_bytes: 0.0,
            wire_dense_bytes: 0.0,
        };
        let base = report(0.02);
        // Same error, or error within tol points → pass.
        assert!(gate(&report(0.02), &base, 10.0).is_empty());
        assert!(gate(&report(0.08), &base, 10.0).is_empty());
        // Error grew by more than 10 points → trip.
        let v = gate(&report(0.15), &base, 10.0);
        assert!(
            v.iter().any(|m| m.contains("projection-vs-simulation")),
            "{v:?}"
        );
        // Baselines without the section never trip the new rule.
        let mut old = base.clone();
        old.sim_check = None;
        assert!(gate(&report(0.5), &old, 10.0).is_empty());
        // And pre-simscale JSON (no sim_check key) still parses.
        let stripped = base.to_json().replace("\"sim_check\"", "\"ignored\"");
        let parsed = AnalysisReport::from_json(&stripped);
        assert!(parsed.is_err() || parsed.unwrap().sim_check.is_none());
    }

    #[test]
    fn gate_checks_wire_bytes_only_when_both_sides_have_them() {
        let report = |wire: f64, dense: f64| AnalysisReport {
            scenario: "mpi-opt".into(),
            world: 8,
            steps: 4,
            measured_step_s: 1.0e-3,
            attribution_per_step: Attribution::default(),
            model: toy_model(),
            validation: Vec::new(),
            projection: Vec::new(),
            sim_check: None,
            wire_bytes: wire,
            wire_dense_bytes: dense,
        };
        let base = report(1.0e6, 4.0e6);
        assert!(gate(&report(1.0e6, 4.0e6), &base, 10.0).is_empty());
        assert!(gate(&report(0.5e6, 4.0e6), &base, 10.0).is_empty());
        let v = gate(&report(1.5e6, 4.0e6), &base, 10.0);
        assert!(v.iter().any(|m| m.contains("wire bytes")), "{v:?}");
        // Pre-wire baselines (0) never trip, in either direction.
        assert!(gate(&report(1.5e6, 4.0e6), &report(0.0, 0.0), 10.0).is_empty());
        assert!(gate(&report(0.0, 0.0), &base, 10.0).is_empty());
        // And pre-wire JSON (no wire keys) still parses with 0 defaults.
        let stripped = base
            .to_json()
            .replace("\"wire_bytes\"", "\"ignored_a\"")
            .replace("\"wire_dense_bytes\"", "\"ignored_b\"");
        let p = AnalysisReport::from_json(&stripped).expect("pre-wire baselines must parse");
        assert_eq!(p.wire_bytes, 0.0);
        assert_eq!(p.wire_dense_bytes, 0.0);
    }

    #[test]
    fn sim_check_model_tracks_the_simulator() {
        // Fit at 8 simulated ranks, then hold the projection against
        // actual driven-engine runs at 16 and 32 ranks: the analytic
        // scaling laws must track the discrete-event simulation.
        let chk = sim_check(Scenario::MpiOpt, 4, 1, 3, 2, &[16, 32], 7);
        assert_eq!(chk.fit_world, 8);
        assert_eq!(chk.points.len(), 2);
        for p in &chk.points {
            assert!(p.simulated_step_s > 0.0);
            assert!(p.simulated_eff > 0.3 && p.simulated_eff <= 1.001, "{p:?}");
            assert!(
                p.step_rel_err < 0.10,
                "model off by {:.1}% at {} ranks: predicted {:.3} ms vs simulated {:.3} ms",
                p.step_rel_err * 100.0,
                p.world,
                p.predicted_step_s * 1e3,
                p.simulated_step_s * 1e3,
            );
        }
    }

    #[test]
    fn fit_reproduces_the_fit_world_measurement() {
        // End-to-end on a real traced 2-rank run: predict_step_s at the
        // fit world must reproduce the measured step time by
        // construction of the fit (hidden/exposed split is exact there).
        let topo = ClusterTopology {
            name: "fit-1x2".into(),
            nodes: 1,
            gpus_per_node: 2,
        };
        let run = traced_real_run(
            &topo,
            Scenario::MpiOpt.mpi_config(),
            &weak_scaling_config(2, 3, 0),
        );
        assert_eq!(run.world, 2);
        assert!(!run.trace.is_empty());
        let (model, cp) = fit_model(&run, Scenario::MpiOpt);
        let measured = run.makespan / 3.0;
        let predicted = model.predict_step_s(2);
        let rel = (predicted - measured).abs() / measured;
        assert!(rel < 0.02, "predicted {predicted} vs measured {measured}");
        // The attribution buckets sum to the makespan (1% criterion).
        assert!((cp.total.total() - cp.makespan_s).abs() <= 0.01 * cp.makespan_s);
    }
}
