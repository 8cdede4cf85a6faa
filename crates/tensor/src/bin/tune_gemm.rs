//! Measured GEMM autotuner — the one place blueprint selection is allowed
//! to look at a wall clock.
//!
//! The runtime selector in `dlsr_tensor::tune` is a pure function of the
//! problem shape, so training digests can never depend on machine load.
//! This binary does the measuring on its behalf: for each shape it times
//! every candidate blueprint (`tune::candidates` keeps `kc` pinned to the
//! heuristic value, so every candidate produces bit-identical results and
//! the winner only changes *speed*, never the digest), installs the
//! winner, and rewrites the `gemm` rows of the tune-cache file the runtime
//! loads via `DLSR_TUNE_CACHE` (its `comm` rows are kept as they are).
//!
//! Usage: `cargo run --release -p dlsr-tensor --bin tune_gemm [-- out.tune]`
//! Tunes the EDSR training shapes; the output path defaults to
//! `results/gemm.tune`.

#![forbid(unsafe_code)]
use std::time::Instant;

use dlsr_tensor::matmul::{self, BSrc, Epilogue};
use dlsr_tensor::tune::{self, Blueprint};
use dlsr_tensor::{init, scratch};

const REPS: usize = 3;

#[cfg_attr(any(), dlsr::wall)]
fn time_candidate(bp: &Blueprint, m: usize, k: usize, n: usize) -> f64 {
    let a = init::uniform([m, k], -1.0, 1.0, 5);
    let b = init::uniform([k, n], -1.0, 1.0, 6);
    let mut c = vec![0.0f32; m * n];
    let mut apack = scratch::take(matmul::packed_a_len(bp, m, k));
    matmul::pack_a(bp, a.data(), m, k, &mut apack);
    // one warm-up, then best-of-REPS (min is robust to scheduler noise)
    let run = |c: &mut [f32]| {
        matmul::gemm(
            bp,
            &apack,
            BSrc::Rows(b.data()),
            c,
            m,
            k,
            n,
            Epilogue::None,
            false,
        );
    };
    run(&mut c);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        run(&mut c);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| String::from("results/gemm.tune"));
    for &(m, k, n) in &tune::EDSR_SHAPES {
        let mut best: Option<(f64, Blueprint)> = None;
        for bp in tune::candidates(m, k, n) {
            let secs = time_candidate(&bp, m, k, n);
            if best.is_none_or(|(b, _)| secs < b) {
                best = Some((secs, bp));
            }
        }
        let (secs, bp) = best.expect("at least the scalar candidate exists");
        tune::install(m, k, n, bp);
        println!(
            "{m}x{k}x{n}: {} kc={} nc={} ({:.1} GFLOP/s)",
            bp.kernel.as_str(),
            bp.kc,
            bp.nc,
            2.0 * (m * k * n) as f64 / secs / 1e9,
        );
    }
    let path = std::path::Path::new(&out);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create tune-cache directory");
    }
    tune::TABLE.write(path).unwrap_or_else(|e| panic!("{e}"));
    println!("[tune cache written to {out}]");
}
