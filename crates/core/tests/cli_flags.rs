//! A flag the chosen subcommand does not read is an error, not a silently
//! ignored key: `figures --ony fig12` must not regenerate (and overwrite)
//! every result file, `train --step 4` must not train the default.

use std::process::{Command, Output};

fn dlsr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlsr"))
        // a misparse that did run would write under results/: keep it out
        // of the repo's
        .current_dir(std::env::temp_dir())
        .args(args)
        .output()
        .expect("spawn dlsr")
}

fn rejected(args: &[&str]) -> String {
    let out = dlsr(args);
    assert_eq!(out.status.code(), Some(2), "`dlsr {}`", args.join(" "));
    assert!(out.stdout.is_empty(), "ran before rejecting its flags");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    let err = rejected(&["figures", "--ony", "fig12"]);
    assert!(
        err.contains("unknown flag --ony for `dlsr figures`; known: --only --check"),
        "{err}"
    );
    let err = rejected(&["train", "--step", "4"]);
    assert!(
        err.contains("unknown flag --step for `dlsr train`"),
        "{err}"
    );
    assert!(err.contains("--steps"), "{err}");
    // a flag another subcommand reads is still unknown here
    let err = rejected(&["simulate", "--gpus", "2"]);
    assert!(
        err.contains("unknown flag --gpus for `dlsr simulate`"),
        "{err}"
    );
    let err = rejected(&["figures", "fig12"]);
    assert!(err.contains("unexpected argument `fig12`"), "{err}");
}

#[test]
fn an_unknown_harness_name_lists_the_registry() {
    let err = rejected(&["figures", "--only", "fig15"]);
    assert!(err.contains("unknown harness `fig15`"), "{err}");
    for row in dlsr::figures::ROWS {
        assert!(err.contains(row.name), "{} missing from: {err}", row.name);
    }
}

#[test]
fn known_flags_still_run() {
    let out = dlsr(&[
        "simulate",
        "--nodes",
        "1",
        "--steps",
        "2",
        "--scenario",
        "mpi",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("throughput"));
}

#[test]
fn a_garbled_tune_cache_stops_every_command() {
    let cache = std::env::temp_dir().join(format!("dlsr-garbled-{}.tune", std::process::id()));
    std::fs::write(
        &cache,
        "# dlsr tune cache v2\ngemm 64 576 2304 avx2_4x16 4 16 256 256 rows\ngemm 3 27\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dlsr"))
        .current_dir(std::env::temp_dir())
        .args(["train", "--gpus", "2", "--steps", "1"])
        .env("DLSR_TUNE_CACHE", &cache)
        .output()
        .expect("spawn dlsr");
    let _ = std::fs::remove_file(&cache);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "trained before checking the cache");
    let err = String::from_utf8(out.stderr).unwrap();
    let want = format!("tune cache {}:3: ", cache.display());
    assert!(err.contains(&want), "{err}");
}
