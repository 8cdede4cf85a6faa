//! Determinism regression tests for the real training path.
//!
//! Two guarantees, both bitwise:
//!
//! 1. **Same seed ⇒ same run.** Two identical 2-rank `train_real` calls in
//!    the same process produce identical final parameters.
//! 2. **Thread-count invariance.** The rayon pool size is a performance
//!    knob, not a numerics knob: the kernel engine splits work on fixed
//!    batch/row boundaries, so 1 worker thread and 4 worker threads must
//!    produce the same bits. Rayon reads `RAYON_NUM_THREADS` once at pool
//!    initialization, so each pool size needs its own process: the test
//!    re-executes its own binary with the env var pinned and compares the
//!    digests the children print.
//! 3. **Worker-side counters belong to the dispatching rank.** A traced
//!    run's `gemm.*` tile counters are the same at 1 and 4 worker threads:
//!    what a rayon worker records lands in the lane of the rank whose
//!    kernel fanned out to it, not in a buffer no world owns.

#![forbid(unsafe_code)]

use std::process::Command;

use dlsr_cluster::realtrain::{train_real, RealTrainConfig};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;

const CHILD_ENV: &str = "DLSR_DETERMINISM_DIGEST_CHILD";

fn topo() -> ClusterTopology {
    ClusterTopology {
        name: "det".into(),
        nodes: 1,
        gpus_per_node: 2,
    }
}

fn cfg() -> RealTrainConfig {
    RealTrainConfig::builder()
        .steps(4)
        .seed(0x000D_5EED)
        .build()
}

/// FNV-1a over the exact bit patterns of the parameters: any single-ULP
/// drift changes the digest.
fn digest(params: &[f32]) -> u64 {
    fnv(params.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn train_digest() -> u64 {
    let res = train_real(&topo(), MpiConfig::mpi_opt(), &cfg());
    digest(&res.final_params)
}

#[test]
fn same_seed_twice_is_bitwise_identical() {
    let a = train_real(&topo(), MpiConfig::mpi_opt(), &cfg());
    let b = train_real(&topo(), MpiConfig::mpi_opt(), &cfg());
    assert_eq!(
        a.final_params,
        b.final_params,
        "same-seed runs diverged (digests {:#x} vs {:#x})",
        digest(&a.final_params),
        digest(&b.final_params)
    );
}

/// Run in a child process (see below): print the digest on a parseable
/// line and nothing else of consequence.
#[test]
fn thread_count_does_not_change_parameters() {
    if std::env::var_os(CHILD_ENV).is_some() {
        // Child mode: the pool size was pinned by the parent via
        // RAYON_NUM_THREADS before this process started.
        println!("DIGEST={:#018x}", train_digest());
        return;
    }
    let d1 = digest_from_child("1", &[]);
    let d4 = digest_from_child("4", &[]);
    assert_eq!(
        d1, d4,
        "1 vs 4 rayon threads changed the trained parameters"
    );
}

/// Two images per rank, so with more than one worker every conv layer fans
/// its per-image GEMMs out — and each of them bumps its tile counter on a
/// worker thread.
#[test]
fn thread_count_does_not_change_kernel_counters() {
    const TEST: &str = "thread_count_does_not_change_kernel_counters";
    if std::env::var_os(CHILD_ENV).is_some() {
        let (_, counters) =
            dlsr_cluster::analysis::traced(|| train_real(&topo(), MpiConfig::mpi_opt(), &cfg()));
        let tiles: Vec<_> = counters
            .iter()
            .filter(|(k, _)| k.starts_with("gemm."))
            .collect();
        assert!(
            tiles.iter().any(|(_, &v)| v > 0.0),
            "traced run counted no GEMM tiles: {counters:?}"
        );
        let bytes = tiles
            .iter()
            .flat_map(|(k, v)| k.bytes().chain(v.to_bits().to_le_bytes()));
        println!("DIGEST={:#018x}", fnv(bytes));
        return;
    }
    assert_eq!(
        child_digest(TEST, "1", &[]),
        child_digest(TEST, "4", &[]),
        "1 vs 4 rayon threads changed the traced run's gemm.* tile counters"
    );
}

/// The SIMD kernel engine's digest contract: *same binary + same tune
/// cache + same seed ⇒ same digest on any thread count and any ISA.*
/// Every cell of the {1, 4 threads} × {SIMD, forced-scalar} ×
/// {no cache, cold cache, warm cache} matrix must produce the bits of the
/// plain single-threaded run. The warm cache deliberately overrides the
/// kernel variant / `nc` / parallel hint for the EDSR body shapes (keeping
/// `kc`, the only bit-affecting field) — proving tuning can change speed
/// but never results.
#[test]
fn simd_isa_and_tune_cache_do_not_change_parameters() {
    if std::env::var_os(CHILD_ENV).is_some() {
        println!("DIGEST={:#018x}", train_digest());
        return;
    }
    let base = digest_from_child("1", &[]);

    for threads in ["1", "4"] {
        let d = digest_from_child(threads, &[("DLSR_FORCE_SCALAR", "1")]);
        assert_eq!(
            base, d,
            "forced-scalar kernels changed the digest ({threads} threads)"
        );
    }

    let dir = std::env::temp_dir().join(format!("dlsr-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tune-cache dir");
    let cold = dir.join("cold.tune");
    let warm = dir.join("warm.tune");
    // Warm cache: same kc as the heuristic (576→256, 64→64), everything
    // else perturbed away from what the selector would pick on its own.
    std::fs::write(
        &warm,
        "# dlsr tune cache v2\n\
         # digest-preserving overrides: kc untouched\n\
         gemm 64 576 2304 scalar 6 8 256 64 seq\n\
         gemm 576 64 2304 avx2_4x16 4 16 64 128 rows\n",
    )
    .expect("write warm tune cache");
    for (label, path) in [("cold", &cold), ("warm", &warm)] {
        for threads in ["1", "4"] {
            let d = digest_from_child(
                threads,
                &[("DLSR_TUNE_CACHE", path.to_str().expect("utf-8 tmp path"))],
            );
            assert_eq!(
                base, d,
                "{label} tune cache changed the digest ({threads} threads)"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn digest_from_child(rayon_threads: &str, extra_env: &[(&str, &str)]) -> u64 {
    child_digest(
        "thread_count_does_not_change_parameters",
        rayon_threads,
        extra_env,
    )
}

/// Re-run test `test` of this binary in child mode and parse its digest.
fn child_digest(test: &str, rayon_threads: &str, extra_env: &[(&str, &str)]) -> u64 {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args([test, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .env("RAYON_NUM_THREADS", rayon_threads);
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn digest child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "digest child ({rayon_threads} threads) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // With --nocapture the harness may interleave its own status text on
    // the same line, so locate the marker anywhere in the output.
    let at = stdout
        .find("DIGEST=0x")
        .unwrap_or_else(|| panic!("no DIGEST marker in child output:\n{stdout}"));
    let hex: String = stdout[at + "DIGEST=0x".len()..]
        .chars()
        .take_while(char::is_ascii_hexdigit)
        .collect();
    u64::from_str_radix(&hex, 16).expect("digest parses")
}
