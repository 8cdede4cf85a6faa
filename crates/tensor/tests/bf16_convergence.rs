//! Convergence-equivalence test for the bf16 storage path.
//!
//! The bf16 contract is deliberately weaker than the f32 determinism
//! contract: panels are stored in bf16 (round-to-nearest-even) but all
//! accumulation stays in f32, so results are *close*, not bitwise. The
//! promise worth testing is that training behaves the same: a small
//! teacher–student conv regression driven by SGD must converge to the
//! same loss floor with bf16 storage as with f32 storage, and the loss
//! trajectories must track each other step for step.

#![forbid(unsafe_code)]

use dlsr_tensor::conv::{conv2d_backward, conv2d_fused, Act, Conv2dParams};
use dlsr_tensor::{init, Tensor};

const STEPS: usize = 120;
const LR: f32 = 0.3;

/// Train a single 3×3 conv layer to match a fixed teacher, teacher and
/// student both storing panels in bf16 when `bf16`; return the per-step MSE
/// losses.
fn train_losses(bf16: bool) -> Vec<f32> {
    let p = Conv2dParams {
        bf16,
        ..Conv2dParams::same(3)
    };
    let x = init::uniform([2, 3, 8, 8], -1.0, 1.0, 11);
    let teacher_w = init::uniform([4, 3, 3, 3], -0.5, 0.5, 12);
    let teacher_b = vec![0.1f32, -0.2, 0.05, 0.3];
    let target =
        conv2d_fused(&x, &teacher_w, Some(&teacher_b), Act::Identity, p).expect("teacher forward");

    let mut w = init::uniform([4, 3, 3, 3], -0.3, 0.3, 13);
    let mut b = vec![0.0f32; 4];
    let mut losses = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        let y = conv2d_fused(&x, &w, Some(&b), Act::Identity, p).expect("student forward");
        let len = y.data().len() as f32;
        let mut loss = 0.0f32;
        let mut grad = Tensor::zeros(y.shape().clone());
        for (g, (&yi, &ti)) in grad
            .data_mut()
            .iter_mut()
            .zip(y.data().iter().zip(target.data()))
        {
            let d = yi - ti;
            loss += d * d / len;
            *g = 2.0 * d / len;
        }
        losses.push(loss);
        let (_gx, gw, gb) = conv2d_backward(&x, &w, &grad, p).expect("backward");
        for (wi, gi) in w.data_mut().iter_mut().zip(gw.data()) {
            *wi -= LR * gi;
        }
        for (bi, gi) in b.iter_mut().zip(&gb) {
            *bi -= LR * gi;
        }
    }
    losses
}

#[test]
fn bf16_training_tracks_f32_convergence() {
    let f32_losses = train_losses(false);
    let bf16_losses = train_losses(true);

    // Both runs must actually converge…
    let (f32_final, bf16_final) = (
        *f32_losses.last().expect("losses"),
        *bf16_losses.last().expect("losses"),
    );
    assert!(
        f32_final < 0.05 * f32_losses[0],
        "f32 baseline failed to converge: {f32_losses:?}"
    );
    assert!(
        bf16_final < 0.05 * bf16_losses[0],
        "bf16 run failed to converge: {bf16_losses:?}"
    );

    // …and the bf16 trajectory must track f32 step for step. bf16 keeps
    // 8 mantissa bits, so per-step relative slack is generous but bounded.
    for (step, (&lf, &lb)) in f32_losses.iter().zip(&bf16_losses).enumerate() {
        let rel = (lf - lb).abs() / lf.abs().max(1e-6);
        assert!(
            rel < 0.25,
            "bf16 loss diverged from f32 at step {step}: {lf} vs {lb} (rel {rel:.3})"
        );
    }
    // Equivalent floors, not bitwise equality — that is the contract.
    assert!(
        (f32_final - bf16_final).abs() / f32_final.max(1e-6) < 0.5,
        "final losses not equivalent: {f32_final} vs {bf16_final}"
    );
}
