//! Throughput of the production conv engine (SIMD microkernels behind
//! runtime dispatch, shape-keyed blueprints, implicit-GEMM conv) on a
//! fixed tiny-EDSR training step. The two earlier tiers this step was
//! measured on — the seed's direct loops and the first packed-GEMM engine
//! — are history: their numbers live in the table in `docs/KERNELS.md`.
//!
//! Workload: batch 4 at 48×48 — a 3→64 head conv, two residual-style
//! conv(+ReLU)/conv pairs at F=64, and a 64→3 tail conv, forward and
//! backward. Emits `results/BENCH_conv.json` with seconds/step and
//! img/sec.

#![forbid(unsafe_code)]
use std::time::Instant;

use dlsr_attr as dlsr;
use dlsr_tensor::conv::{conv2d_backward, conv2d_fused, Act, Conv2dParams};
use dlsr_tensor::{elementwise, init, Tensor};

const BATCH: usize = 4;
const PATCH: usize = 48;
const FEATS: usize = 64;
const WARMUP: usize = 1;
const STEPS: usize = 3;

struct Layer {
    w: Tensor,
    b: Vec<f32>,
    relu: bool,
}

fn build_stack() -> Vec<Layer> {
    let layer = |c_in: usize, c_out: usize, relu: bool, seed: u64| Layer {
        w: init::uniform([c_out, c_in, 3, 3], -0.05, 0.05, seed),
        b: (0..c_out).map(|i| 0.01 * i as f32).collect(),
        relu,
    };
    vec![
        layer(3, FEATS, false, 1),
        layer(FEATS, FEATS, true, 2),
        layer(FEATS, FEATS, false, 3),
        layer(FEATS, FEATS, true, 4),
        layer(FEATS, FEATS, false, 5),
        layer(FEATS, 3, false, 6),
    ]
}

/// One forward+backward pass through the stack.
fn step(stack: &[Layer], x: &Tensor, p: Conv2dParams) -> Tensor {
    let mut acts = vec![x.clone()];
    for l in stack {
        let act = if l.relu { Act::Relu } else { Act::Identity };
        let y = conv2d_fused(acts.last().unwrap(), &l.w, Some(&l.b), act, p).unwrap();
        acts.push(y);
    }
    let mut grad = Tensor::ones(acts.last().unwrap().shape().clone());
    for (i, l) in stack.iter().enumerate().rev() {
        if l.relu {
            // post-activation output doubles as the mask: y > 0 ⇔ pre > 0
            grad = elementwise::relu_backward(&grad, &acts[i + 1]).unwrap();
        }
        let (gi, _gw, _gb) = conv2d_backward(&acts[i], &l.w, &grad, p).unwrap();
        grad = gi;
    }
    grad
}

#[dlsr::wall]
fn time_steps<F: FnMut() -> Tensor>(mut f: F) -> f64 {
    for _ in 0..WARMUP {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..STEPS {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / STEPS as f64
}

fn main() {
    let p = Conv2dParams::same(3);
    let stack = build_stack();
    let x = init::uniform([BATCH, 3, PATCH, PATCH], -1.0, 1.0, dlsr_bench::SEED);

    println!(
        "tiny-EDSR conv step: batch {BATCH}, {PATCH}x{PATCH}, F={FEATS}, {} convs",
        stack.len()
    );

    let simd_s = time_steps(|| step(&stack, &x, p));
    let ips = BATCH as f64 / simd_s;
    println!("simd: {simd_s:.4} s/step  ({ips:.2} img/s)");

    dlsr_bench::write_json(
        "BENCH_conv.json",
        &serde_json::json!({
            "workload": {
                "batch": BATCH,
                "patch": PATCH,
                "features": FEATS,
                "convs": stack.len(),
                "pass": "forward+backward",
                "warmup_steps": WARMUP,
                "timed_steps": STEPS,
            },
            "after_simd_engine": {
                "seconds_per_step": simd_s,
                "images_per_sec": ips,
            },
        }),
    );
}
