//! Steady-state allocation behavior of the kernel scratch pool.
//!
//! The pool and its allocation counter are process globals, so everything
//! that asserts on them runs in the *one* test of this binary, in sequence:
//! `cargo test` gives each test binary its own process, but runs the tests
//! inside a binary on parallel threads, and two tests here would take from
//! each other's pool while counting each other's allocations.
//!
//! The kernels also run on one rayon worker for the asserted windows. With
//! more, how many scratch buffers are held at once depends on how the
//! workers interleave, so no fixed number of warm-up iterations is sure to
//! have grown the pool to the peak demand; with one, the sequence of takes
//! and returns is the same in every iteration.

use dlsr_tensor::conv::{conv2d_backward, conv2d_fused_into, Act, Conv2dParams};
use dlsr_tensor::{init, scratch, Tensor};

/// Run `step` three times to warm the pool up (the first iterations
/// populate it and may grow buffers to their steady-state capacities),
/// then five more and return how many of those touched the allocator.
fn steady_state_allocs(mut step: impl FnMut()) -> u64 {
    for _ in 0..3 {
        step();
    }
    let before = scratch::alloc_events();
    for _ in 0..5 {
        step();
    }
    scratch::alloc_events() - before
}

#[test]
fn steady_state_does_not_allocate() {
    // The vendored rayon reads this once, at its first parallel call —
    // which comes after this line, since this is the binary's only test.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let p = Conv2dParams::same(3);

    // After warm-up, a training-shaped conv forward+backward loop must hit
    // the scratch pool every time: zero allocator events across
    // steady-state iterations. This is the acceptance gate for the
    // "allocation-free in steady state" kernel contract.
    let x = init::uniform([4, 8, 12, 12], -1.0, 1.0, 1);
    let w = init::uniform([8, 8, 3, 3], -1.0, 1.0, 2);
    let bias = vec![0.1f32; 8];
    let mut out = Tensor::zeros([4, 8, 12, 12]);
    let go = init::uniform([4, 8, 12, 12], -1.0, 1.0, 3);
    let allocs = steady_state_allocs(|| {
        conv2d_fused_into(&x, &w, Some(&bias), Act::Relu, p, &mut out).unwrap();
        conv2d_backward(&x, &w, &go, p).unwrap();
    });
    assert_eq!(allocs, 0, "conv forward+backward allocated in steady state");

    // Mixed-shape steady state: alternating two different layer shapes (as
    // a real model does) must also settle into full reuse.
    let x1 = init::uniform([2, 4, 10, 10], -1.0, 1.0, 4);
    let w1 = init::uniform([6, 4, 3, 3], -1.0, 1.0, 5);
    let mut out1 = Tensor::zeros([2, 6, 10, 10]);
    let x2 = init::uniform([2, 6, 10, 10], -1.0, 1.0, 6);
    let w2 = init::uniform([4, 6, 3, 3], -1.0, 1.0, 7);
    let mut out2 = Tensor::zeros([2, 4, 10, 10]);
    let allocs = steady_state_allocs(|| {
        conv2d_fused_into(&x1, &w1, None, Act::Relu, p, &mut out1).unwrap();
        conv2d_fused_into(&x2, &w2, None, Act::Identity, p, &mut out2).unwrap();
    });
    assert_eq!(allocs, 0, "mixed layer shapes allocated in steady state");

    // A 3-channel output layer after an 8-channel one, as in a model's
    // tail: both pack-free at 12×12, every copy and wide plane pooled.
    let w3 = init::uniform([3, 8, 3, 3], -1.0, 1.0, 8);
    let bias3 = vec![0.1f32; 3];
    let mut out3 = Tensor::zeros([4, 3, 12, 12]);
    let go3 = init::uniform([4, 3, 12, 12], -1.0, 1.0, 9);
    let allocs = steady_state_allocs(|| {
        conv2d_fused_into(&x, &w, Some(&bias), Act::Relu, p, &mut out).unwrap();
        conv2d_fused_into(&out, &w3, Some(&bias3), Act::Identity, p, &mut out3).unwrap();
        conv2d_backward(&out, &w3, &go3, p).unwrap();
    });
    assert_eq!(allocs, 0, "c_out = 3 layer allocated in steady state");

    // The tiny EDSR's 8→3 output conv at its 24×24 output: the pack-free
    // forward's padded copy and the weight gradient's channels-last copy.
    let x4 = init::uniform([4, 8, 24, 24], -1.0, 1.0, 10);
    let mut out4 = Tensor::zeros([4, 3, 24, 24]);
    let go4 = init::uniform([4, 3, 24, 24], -1.0, 1.0, 11);
    let allocs = steady_state_allocs(|| {
        conv2d_fused_into(&x4, &w3, Some(&bias3), Act::Identity, p, &mut out4).unwrap();
        conv2d_backward(&x4, &w3, &go4, p).unwrap();
    });
    assert_eq!(allocs, 0, "24×24 8→3 output conv allocated in steady state");

    // A plane past the pack-free limit takes the GEMM engine: packed
    // panels, the column matrix and `col2im`'s image, all pooled.
    let x5 = init::uniform([2, 8, 33, 33], -1.0, 1.0, 12);
    let mut out5 = Tensor::zeros([2, 8, 33, 33]);
    let go5 = init::uniform([2, 8, 33, 33], -1.0, 1.0, 13);
    let allocs = steady_state_allocs(|| {
        conv2d_fused_into(&x5, &w, Some(&bias), Act::Relu, p, &mut out5).unwrap();
        conv2d_backward(&x5, &w, &go5, p).unwrap();
    });
    assert_eq!(allocs, 0, "GEMM-path conv allocated in steady state");
}
