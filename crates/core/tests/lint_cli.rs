//! End-to-end `dlsr lint` contract: exit codes (0 clean / 1 findings / 2
//! analyzer failure) and machine-readable output (`--json`, `--sarif`)
//! straight from the built binary — the same interface CI gates on.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dlsr")
}

fn root() -> PathBuf {
    dlsr_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .arg("lint")
        .args(args)
        .output()
        .expect("binary runs")
}

/// A throwaway pseudo-workspace with one seeded violation. `tag` keeps
/// concurrently running tests out of each other's directories.
fn violation_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlsr-lint-cli-{}-{tag}", std::process::id()));
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn leak() -> f64 {\n    std::time::Instant::now().elapsed().as_secs_f64()\n}\n",
    )
    .expect("write source");
    dir
}

#[test]
fn clean_workspace_exits_zero() {
    let out = run(&["--root", root().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workspace clean"), "{stdout}");
}

#[test]
fn findings_exit_one() {
    let ws = violation_workspace("text");
    let out = run(&["--root", ws.to_str().unwrap()]);
    std::fs::remove_dir_all(&ws).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[wall-clock]"), "{stdout}");
}

#[test]
fn analyzer_failure_exits_two() {
    // Unreadable root: the scan itself fails, distinct from "findings".
    let out = run(&["--root", "/nonexistent/definitely/not/here"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Bad usage is an analyzer failure too.
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn self_test_exits_zero_and_lists_fixtures() {
    let out = run(&["--self-test", "--root", root().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all rules trip"), "{stdout}");
}

#[test]
fn json_output_is_valid_and_carries_protocols() {
    let out = run(&["--json", "--root", root().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("stdout is valid JSON");
    assert!(v["stats"]["fns"].as_u64().unwrap() > 500);
    assert_eq!(v["findings"].as_array().unwrap().len(), 0);
    assert!(v["protocols"].as_array().is_some());
}

#[test]
fn sarif_output_validates_and_reports_findings() {
    // Clean tree: valid SARIF, zero results.
    let out = run(&["--sarif", "--root", root().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout is valid SARIF JSON");
    assert_eq!(v["version"], "2.1.0");
    assert_eq!(v["runs"][0]["tool"]["driver"]["name"], "dlsr-lint");
    assert_eq!(v["runs"][0]["results"].as_array().unwrap().len(), 0);

    // Seeded violation: exit 1 and the finding appears as a SARIF result.
    let ws = violation_workspace("sarif");
    let out = run(&["--sarif", "--root", ws.to_str().unwrap()]);
    std::fs::remove_dir_all(&ws).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid SARIF");
    let results = v["runs"][0]["results"].as_array().unwrap();
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!(results[0]["ruleId"], "wall-clock");
    assert_eq!(
        results[0]["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
        "crates/demo/src/lib.rs"
    );
}
