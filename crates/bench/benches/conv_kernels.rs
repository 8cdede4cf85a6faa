//! Criterion microbenches for the convolution kernels — the compute
//! substrate every model in the workspace runs on.
//!
//! - production im2col+GEMM vs the direct reference (sanity scale),
//! - the production engine on EDSR-shaped workloads,
//! - raw packed GEMM on an im2col-shaped matmul.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dlsr_tensor::conv::{conv2d, conv2d_backward, conv2d_reference, Conv2dParams};
use dlsr_tensor::{init, matmul};

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_forward");
    for &(ch, hw) in &[(16usize, 24usize), (32, 24), (64, 12)] {
        let x = init::uniform([2, ch, hw, hw], -1.0, 1.0, 1);
        let w = init::uniform([ch, ch, 3, 3], -1.0, 1.0, 2);
        let p = Conv2dParams::same(3);
        group.bench_with_input(
            BenchmarkId::new("im2col_gemm", format!("c{ch}_s{hw}")),
            &(&x, &w),
            |b, (x, w)| b.iter(|| conv2d(black_box(x), black_box(w), None, p).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("direct_reference", format!("c{ch}_s{hw}")),
            &(&x, &w),
            |b, (x, w)| b.iter(|| conv2d_reference(black_box(x), black_box(w), None, p).unwrap()),
        );
    }
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_backward");
    for &ch in &[16usize, 32] {
        let x = init::uniform([2, ch, 16, 16], -1.0, 1.0, 1);
        let w = init::uniform([ch, ch, 3, 3], -1.0, 1.0, 2);
        let p = Conv2dParams::same(3);
        let go = init::uniform([2, ch, 16, 16], -1.0, 1.0, 3);
        group.bench_with_input(BenchmarkId::from_parameter(ch), &ch, |b, _| {
            b.iter(|| conv2d_backward(black_box(&x), black_box(&w), black_box(&go), p).unwrap())
        });
    }
    group.finish();
}

/// EDSR body shapes: F feature maps on 48×48 LR patches, batch 4 — the
/// exact per-layer workload of the paper's training loop.
fn bench_edsr_shapes(c: &mut Criterion) {
    let p = Conv2dParams::same(3);

    let mut group = c.benchmark_group("conv2d_edsr_f64_b4_48x48");
    let x = init::uniform([4, 64, 48, 48], -1.0, 1.0, 1);
    let w = init::uniform([64, 64, 3, 3], -1.0, 1.0, 2);
    let go = init::uniform([4, 64, 48, 48], -1.0, 1.0, 3);
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("forward", "engine"), |b| {
        b.iter(|| conv2d(black_box(&x), black_box(&w), None, p).unwrap())
    });
    group.bench_function(BenchmarkId::new("backward", "engine"), |b| {
        b.iter(|| conv2d_backward(black_box(&x), black_box(&w), black_box(&go), p).unwrap())
    });
    group.finish();

    // The EDSR-paper-scale body (F=256) is an order of magnitude heavier;
    // forward only, minimum sample count, so the suite stays runnable.
    let mut group = c.benchmark_group("conv2d_edsr_f256_b4_48x48");
    let x = init::uniform([4, 256, 48, 48], -1.0, 1.0, 4);
    let w = init::uniform([256, 256, 3, 3], -1.0, 1.0, 5);
    group.sample_size(5);
    group.bench_function(BenchmarkId::new("forward", "engine"), |b| {
        b.iter(|| conv2d(black_box(&x), black_box(&w), None, p).unwrap())
    });
    group.finish();
}

/// Raw GEMM at the im2col shape behind a single F=64 image:
/// C[64×2304] = W[64×576] · col[576×2304].
fn bench_raw_gemm(c: &mut Criterion) {
    let (m, k, n) = (64usize, 576usize, 2304usize);
    let a = init::uniform([m, k], -1.0, 1.0, 1);
    let b_mat = init::uniform([k, n], -1.0, 1.0, 2);
    let mut out = vec![0.0f32; m * n];

    let mut group = c.benchmark_group("gemm_64x576x2304");
    group.bench_function("packed", |b| {
        b.iter(|| {
            matmul::matmul_into(
                black_box(a.data()),
                black_box(b_mat.data()),
                &mut out,
                m,
                k,
                n,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_backward,
    bench_edsr_shapes,
    bench_raw_gemm
);
criterion_main!(benches);
