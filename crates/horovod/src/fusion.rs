//! Tensor Fusion (§II-D steps 1–6): pack small gradient tensors into one
//! fusion buffer so a single large allreduce replaces many small ones.

/// A gradient tensor awaiting reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorSpec {
    /// Hierarchical parameter name.
    pub name: String,
    /// Element count (f32).
    pub elems: usize,
}

impl TensorSpec {
    /// Payload bytes.
    pub fn bytes(&self) -> u64 {
        (self.elems * 4) as u64
    }
}

/// One fused reduction: a contiguous run of tensors packed together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Indices into the tensor list, in packing order.
    pub indices: Vec<usize>,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total elements.
    pub elems: usize,
}

/// Greedily pack tensors (in readiness order) into groups of at most
/// `threshold` bytes (§II-D step 1: "select first few tensors that fit in
/// HOROVOD_FUSION_THRESHOLD bytes"). A tensor larger than the threshold
/// forms its own group — Horovod reduces oversize tensors unfused.
pub fn plan_fusion(tensors: &[TensorSpec], threshold: u64) -> Vec<FusionGroup> {
    let mut groups: Vec<FusionGroup> = Vec::new();
    let mut current = FusionGroup {
        indices: Vec::new(),
        bytes: 0,
        elems: 0,
    };
    for (i, t) in tensors.iter().enumerate() {
        let b = t.bytes();
        if !current.indices.is_empty() && current.bytes + b > threshold {
            groups.push(std::mem::replace(
                &mut current,
                FusionGroup {
                    indices: Vec::new(),
                    bytes: 0,
                    elems: 0,
                },
            ));
        }
        current.indices.push(i);
        current.bytes += b;
        current.elems += t.elems;
        if current.bytes >= threshold {
            groups.push(std::mem::replace(
                &mut current,
                FusionGroup {
                    indices: Vec::new(),
                    bytes: 0,
                    elems: 0,
                },
            ));
        }
    }
    if !current.indices.is_empty() {
        groups.push(current);
    }
    groups
}

/// A fusion group with its planned launch time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledGroup {
    /// The fused tensors.
    pub group: FusionGroup,
    /// Launch time as an offset from the start of the backward pass.
    pub launch_offset: f64,
}

/// Readiness offsets for a tensor list: tensor `i` becomes ready when the
/// backward pass has produced its gradient — approximated as the fraction
/// of backward compute proportional to cumulative element count (gradient
/// FLOPs scale with parameter volume for conv stacks).
#[cfg_attr(any(), dlsr::deterministic)]
pub fn readiness_from_elems(tensors: &[TensorSpec], bwd_duration: f64) -> Vec<f64> {
    let total: usize = tensors.iter().map(|t| t.elems).sum();
    let mut cum = 0usize;
    tensors
        .iter()
        .map(|t| {
            cum += t.elems;
            if total == 0 {
                0.0
            } else {
                bwd_duration * cum as f64 / total as f64
            }
        })
        .collect()
}

/// How well the analytical readiness schedule ([`readiness_from_elems`])
/// tracks readiness *measured* on the real training path (wall-clock hook
/// timestamps from `backward_with_hook`). Both schedules are normalized to
/// fractions of their final value before comparison, so a uniform speed
/// difference between the model and the machine does not count as error —
/// only a different *shape* does.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadinessReconciliation {
    /// Analytic readiness, normalized to \[0, 1\] of its final value.
    pub analytic: Vec<f64>,
    /// Measured readiness, normalized to \[0, 1\] of its final value.
    pub measured: Vec<f64>,
    /// Largest per-tensor deviation between the two normalized schedules.
    pub max_abs_dev: f64,
    /// Mean per-tensor deviation.
    pub mean_abs_dev: f64,
    /// Whether the measured schedule is non-decreasing (it must be — hooks
    /// fire in backward order).
    pub measured_monotone: bool,
}

/// Reconcile the analytical readiness schedule against measured readiness.
/// Inputs are offsets from the start of backward, one per tensor in
/// reduction order; lengths must match.
#[cfg_attr(any(), dlsr::deterministic)]
pub fn reconcile_readiness(analytic: &[f64], measured: &[f64]) -> ReadinessReconciliation {
    assert_eq!(
        analytic.len(),
        measured.len(),
        "schedules describe different tensor sets"
    );
    fn normalize(xs: &[f64]) -> Vec<f64> {
        let last = xs.last().copied().unwrap_or(0.0);
        if last > 0.0 {
            xs.iter().map(|&x| x / last).collect()
        } else {
            vec![0.0; xs.len()]
        }
    }
    let a = normalize(analytic);
    let m = normalize(measured);
    let devs: Vec<f64> = a.iter().zip(&m).map(|(x, y)| (x - y).abs()).collect();
    let max_abs_dev = devs.iter().cloned().fold(0.0, f64::max);
    let mean_abs_dev = if devs.is_empty() {
        0.0
    } else {
        devs.iter().sum::<f64>() / devs.len() as f64
    };
    let measured_monotone = measured.windows(2).all(|w| w[0] <= w[1]);
    ReadinessReconciliation {
        analytic: a,
        measured: m,
        max_abs_dev,
        mean_abs_dev,
        measured_monotone,
    }
}

/// Plan fusion the way Horovod's background engine actually behaves
/// (§II-D): the engine wakes every `cycle_time`; at each tick it fuses the
/// tensors that became ready since the last processed batch (at most
/// `threshold` bytes per group) and reduces the groups back-to-back. While
/// a reduction runs, further tensors accumulate — so slow communication
/// produces *larger* fused messages, which is exactly how the paper's
/// 16–64 MB Table I bins arise from a stream of ~2 MB gradient tensors.
///
/// `est` estimates the *transport* duration of one fused allreduce from its
/// byte count; `cycle_overhead` is charged once per engine wake-up (the
/// coordinator negotiation round — one round can carry several fused
/// groups). All ranks must compute identical plans, so these estimates —
/// not the actual, rank-skewed timings — drive group formation.
///
/// Wake-up cadence: the engine's first wake with work is `cycle_time/2`
/// (the expected phase lag of a periodic timer) after the first tensor is
/// ready; subsequent wakes are at least `cycle_time` after the previous
/// one, and no earlier than the engine finished the previous batch or new
/// work became available — exactly Horovod's `sleep(cycle − elapsed)` loop.
pub fn plan_dynamic(
    tensors: &[TensorSpec],
    readiness: &[f64],
    cycle_time: f64,
    threshold: u64,
    cycle_overhead: f64,
    est: &dyn Fn(u64) -> f64,
) -> Vec<ScheduledGroup> {
    assert_eq!(tensors.len(), readiness.len());
    assert!(
        readiness.windows(2).all(|w| w[0] <= w[1]),
        "readiness must be sorted"
    );
    if tensors.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut idx = 0usize;
    let mut tick = readiness[0] + cycle_time / 2.0;
    while idx < tensors.len() {
        let mut ready_end = idx;
        while ready_end < tensors.len() && readiness[ready_end] <= tick {
            ready_end += 1;
        }
        let mut launch = tick + cycle_overhead;
        for g in plan_fusion(&tensors[idx..ready_end], threshold) {
            let group = FusionGroup {
                indices: g.indices.iter().map(|i| i + idx).collect(),
                bytes: g.bytes,
                elems: g.elems,
            };
            let dur = est(group.bytes);
            out.push(ScheduledGroup {
                group,
                launch_offset: launch,
            });
            launch += dur;
        }
        idx = ready_end;
        if idx < tensors.len() {
            // next wake: one cycle later, or when the engine frees, or when
            // the next tensor lands (plus the periodic-timer phase lag)
            tick = (tick + cycle_time)
                .max(launch)
                .max(readiness[idx] + cycle_time / 2.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, elems: usize) -> TensorSpec {
        TensorSpec {
            name: name.into(),
            elems,
        }
    }

    #[test]
    fn groups_respect_threshold() {
        // 3 tensors of 6 bytes... use elements: threshold 16 bytes = 4 elems
        let tensors = vec![t("a", 2), t("b", 2), t("c", 2)];
        let groups = plan_fusion(&tensors, 16);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].indices, vec![0, 1]);
        assert_eq!(groups[0].bytes, 16);
        assert_eq!(groups[1].indices, vec![2]);
    }

    #[test]
    fn oversize_tensor_gets_own_group() {
        let tensors = vec![t("small", 1), t("huge", 100), t("small2", 1)];
        let groups = plan_fusion(&tensors, 16);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[1].indices, vec![1]);
        assert_eq!(groups[1].bytes, 400);
    }

    #[test]
    fn every_tensor_is_covered_exactly_once() {
        let tensors: Vec<TensorSpec> = (0..37)
            .map(|i| t(&format!("p{i}"), (i % 7 + 1) * 100))
            .collect();
        let groups = plan_fusion(&tensors, 1000);
        let mut seen = vec![false; tensors.len()];
        for g in &groups {
            for &i in &g.indices {
                assert!(!seen[i], "tensor {i} packed twice");
                seen[i] = true;
            }
            assert_eq!(
                g.elems,
                g.indices.iter().map(|&i| tensors[i].elems).sum::<usize>()
            );
        }
        assert!(seen.iter().all(|&s| s), "tensor dropped from fusion plan");
    }

    #[test]
    fn large_threshold_fuses_everything() {
        let tensors = vec![t("a", 10), t("b", 20), t("c", 30)];
        let groups = plan_fusion(&tensors, u64::MAX);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].elems, 60);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        assert!(plan_fusion(&[], 1024).is_empty());
    }

    #[test]
    fn readiness_is_monotone_and_ends_at_bwd_duration() {
        let tensors = vec![t("a", 10), t("b", 30), t("c", 60)];
        let r = readiness_from_elems(&tensors, 1.0);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
        assert!((r[2] - 1.0).abs() < 1e-9);
        assert!((r[0] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn reconcile_reports_zero_deviation_for_matching_shapes() {
        // Measured is 3× slower but the *shape* matches exactly.
        let analytic = vec![0.1, 0.4, 1.0];
        let measured = vec![0.3, 1.2, 3.0];
        let r = reconcile_readiness(&analytic, &measured);
        assert!(r.max_abs_dev < 1e-12, "dev {}", r.max_abs_dev);
        assert!(r.measured_monotone);
        assert!((r.analytic[2] - 1.0).abs() < 1e-12);
        assert!((r.measured[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reconcile_flags_shape_mismatch() {
        // Analytic says readiness is front-loaded; measured is back-loaded.
        let analytic = vec![0.8, 0.9, 1.0];
        let measured = vec![0.1, 0.2, 1.0];
        let r = reconcile_readiness(&analytic, &measured);
        assert!(r.max_abs_dev > 0.5, "dev {}", r.max_abs_dev);
        assert!(r.mean_abs_dev > 0.3);
        assert!(r.mean_abs_dev <= r.max_abs_dev);
    }

    #[test]
    fn reconcile_handles_degenerate_inputs() {
        let r = reconcile_readiness(&[], &[]);
        assert_eq!(r.max_abs_dev, 0.0);
        assert!(r.measured_monotone);
        // all-zero measured (instant backward) must not divide by zero
        let r = reconcile_readiness(&[0.5, 1.0], &[0.0, 0.0]);
        assert!(r.max_abs_dev.is_finite());
    }

    #[test]
    fn dynamic_plan_covers_every_tensor_once() {
        let tensors: Vec<TensorSpec> = (0..30)
            .map(|i| t(&format!("p{i}"), 1000 + i * 100))
            .collect();
        let readiness = readiness_from_elems(&tensors, 0.1);
        let plan = plan_dynamic(&tensors, &readiness, 1e-3, 40_000, 0.0, &|b| b as f64 / 1e9);
        let mut seen = vec![false; tensors.len()];
        for sg in &plan {
            for &i in &sg.group.indices {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // launch offsets are non-decreasing
        assert!(plan
            .windows(2)
            .all(|w| w[0].launch_offset <= w[1].launch_offset));
    }

    #[test]
    fn slow_communication_produces_larger_groups() {
        // The mechanism behind the paper's big-message bins: if each
        // allreduce takes long, more tensors pile up per engine cycle.
        let tensors: Vec<TensorSpec> = (0..100).map(|i| t(&format!("p{i}"), 10_000)).collect();
        let readiness = readiness_from_elems(&tensors, 0.1);
        let slow = plan_dynamic(&tensors, &readiness, 1e-3, u64::MAX, 0.0, &|_| 20e-3);
        let fast = plan_dynamic(&tensors, &readiness, 1e-3, u64::MAX, 0.0, &|_| 0.1e-3);
        assert!(
            slow.len() < fast.len(),
            "slow comm should fuse more: {} vs {} groups",
            slow.len(),
            fast.len()
        );
        let max_slow = slow.iter().map(|g| g.group.bytes).max().unwrap();
        let max_fast = fast.iter().map(|g| g.group.bytes).max().unwrap();
        assert!(max_slow > max_fast);
    }

    #[test]
    fn threshold_caps_dynamic_groups() {
        let tensors: Vec<TensorSpec> = (0..50).map(|i| t(&format!("p{i}"), 1000)).collect();
        let readiness = readiness_from_elems(&tensors, 0.01);
        let plan = plan_dynamic(&tensors, &readiness, 5e-3, 8_000, 0.0, &|_| 1e-3);
        for sg in &plan {
            assert!(sg.group.bytes <= 8_000, "group of {} bytes", sg.group.bytes);
        }
    }

    #[test]
    fn first_ready_tensor_launches_early_and_alone_when_comm_is_slow() {
        // A small head tensor ready long before the bulk is reduced by
        // itself — this is what populates the paper's 1–128 KB bin.
        let mut tensors = vec![t("head", 1_000)];
        tensors.extend((0..20).map(|i| t(&format!("body{i}"), 500_000)));
        let readiness: Vec<f64> = std::iter::once(0.001)
            .chain((0..20).map(|i| 0.05 + i as f64 * 0.01))
            .collect();
        let plan = plan_dynamic(&tensors, &readiness, 3.5e-3, 64 << 20, 0.0, &|_| 30e-3);
        assert_eq!(plan[0].group.indices, vec![0], "head tensor not alone");
        assert!(plan[0].group.bytes < 128 << 10);
        assert!(plan.last().unwrap().group.bytes > 1 << 20);
    }
}
