//! Determinism contract of the online comm tuner (docs/WIRE.md):
//! *same binary + same seed + same `DLSR_TUNE_CACHE` file ⇒ the same
//! training bits*, on any rayon pool size.
//!
//! Three pieces:
//!
//! 1. **The frozen path repeats.** The first tuned run in a process
//!    installs its frozen decision in the process-global table; later
//!    runs with the same (world, grad bytes) key freeze at step 0 and
//!    must train identical bits from that shared frozen state.
//! 2. **Exploration is reproducible.** Fresh-cache runs must print the
//!    same digest on any rayon pool size — the tuner's
//!    measurements are virtual-clock durations agreed through a
//!    Max-allreduce, never wall time. The in-process table would leak the
//!    first run's decision into the second, so each exploration gets its
//!    own child process (the re-exec pattern of `tests/determinism.rs`).
//! 3. **Cache round-trip through the environment.** A run pointed at an
//!    absent `DLSR_TUNE_CACHE` file explores and appends its frozen
//!    decision (a `comm` row, next to the GEMM misses' `gemm` rows); later runs pointed at that file freeze at step 0, are
//!    bitwise stable across pool sizes, and never grow the file.

#![forbid(unsafe_code)]

use std::process::Command;

use dlsr_cluster::realtrain::{train_real, RealTrainConfig, RealTrainResult};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;

const CHILD_ENV: &str = "DLSR_TUNER_DIGEST_CHILD";

fn topo() -> ClusterTopology {
    ClusterTopology {
        name: "comm-tune-det".into(),
        nodes: 2,
        gpus_per_node: 2,
    }
}

fn cfg() -> RealTrainConfig {
    // Long enough to outlast exploration: two steps (settle + measure)
    // per candidate, at most 8 candidates.
    RealTrainConfig::builder()
        .steps(16)
        .global_batch(8)
        .seed(0x7E57_7E57)
        .tune_comm(true)
        .build()
}

/// FNV-1a over the exact bit patterns of losses and parameters.
fn digest(res: &RealTrainResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u32| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for l in &res.losses {
        eat(l.to_bits());
    }
    for p in &res.final_params {
        eat(p.to_bits());
    }
    h
}

#[test]
fn frozen_tuner_path_repeats_bitwise() {
    // Warm the process-global table: this run explores, freezes, installs.
    let _warm = train_real(&topo(), MpiConfig::mpi_opt(), &cfg());
    assert!(
        !dlsr_horovod::tuner::TABLE.entries().is_empty(),
        "a tuned run left no frozen decision behind"
    );
    // Both runs below find the installed entry and freeze at step 0.
    let a = train_real(&topo(), MpiConfig::mpi_opt(), &cfg());
    let b = train_real(&topo(), MpiConfig::mpi_opt(), &cfg());
    assert_eq!(digest(&a), digest(&b), "frozen-tuner runs diverged");
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
}

/// Child mode: print the digest of one tuned run and exit. The parent
/// pins `RAYON_NUM_THREADS` and `DLSR_TUNE_CACHE` before spawning.
#[test]
fn comm_tune_cache_makes_runs_bitwise_reproducible() {
    if std::env::var_os(CHILD_ENV).is_some() {
        let res = train_real(&topo(), MpiConfig::mpi_opt(), &cfg());
        println!("DIGEST={:#018x}", digest(&res));
        return;
    }
    let dir = std::env::temp_dir().join(format!("dlsr-comm-tune-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create comm-tune dir");

    // Fresh-cache exploration is thread-count invariant. Each
    // child gets its own cache file so no child reads another's frozen
    // decision.
    let d1 = digest_from_child("1", &dir.join("explore-1.tune"));
    let d4 = digest_from_child("4", &dir.join("explore-4.tune"));
    assert_eq!(d1, d4, "exploration digests differ across rayon pool sizes");

    // The seeding child above appended exactly one frozen decision (the
    // file also holds the `gemm` rows of its GEMM selector misses).
    let cache = dir.join("explore-1.tune");
    let text = std::fs::read_to_string(&cache).expect("tuned child persisted its decision");
    assert_eq!(
        text.lines().filter(|l| l.starts_with("comm ")).count(),
        1,
        "expected exactly one frozen entry:\n{text}"
    );

    // The same cache state must now reproduce the same bits on any pool
    // size — the warm children freeze at step 0, skipping
    // exploration, so their digest legitimately differs from the
    // exploring run's.
    let w1 = digest_from_child("1", &cache);
    let w4 = digest_from_child("4", &cache);
    assert_eq!(w1, w4, "warm-cache digests differ across rayon pool sizes");
    // Appending happens at freeze time only: a run that starts frozen
    // must not grow the file (the cache state would otherwise depend on
    // how many runs came before).
    let after = std::fs::read_to_string(&cache).expect("cache still readable");
    assert_eq!(text, after, "a warm-cache run mutated the cache file");
    let _ = std::fs::remove_dir_all(&dir);
}

fn digest_from_child(rayon_threads: &str, cache: &std::path::Path) -> u64 {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "comm_tune_cache_makes_runs_bitwise_reproducible",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .env("RAYON_NUM_THREADS", rayon_threads)
        .env("DLSR_TUNE_CACHE", cache)
        .output()
        .expect("spawn digest child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "digest child ({rayon_threads} threads) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let at = stdout
        .find("DIGEST=0x")
        .unwrap_or_else(|| panic!("no DIGEST marker in child output:\n{stdout}"));
    let hex: String = stdout[at + "DIGEST=0x".len()..]
        .chars()
        .take_while(char::is_ascii_hexdigit)
        .collect();
    u64::from_str_radix(&hex, 16).expect("digest parses")
}
