//! The `dlsr figures` registry against the committed `results/` directory:
//! ownership of every file (no run needed), the cheap rows byte for byte,
//! the sweep cache's sharing and its order independence, and `check`'s
//! report. The full `dlsr figures --check` is a release CI step.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use dlsr::figures::{self, Outputs, Row, Sweeps};

/// Files under `results/` that no row regenerates: wall-clock spans
/// (`dlsr profile`), the analysis gate's own baseline (`dlsr analyze`), the
/// measured tune cache (`tune_gemm`) and the quickstart example's images.
const NOT_REGENERATED: [&str; 7] = [
    "profile_trace.json",
    "profile_report.json",
    "BENCH_analysis.json",
    "gemm.tune",
    "quickstart_bicubic.ppm",
    "quickstart_edsr.ppm",
    "quickstart_hr.ppm",
];

/// Rows that cost well under a second in a debug build.
const CHEAP: [&str; 6] = [
    "fig01",
    "fig09",
    "fig14",
    "table1",
    "ablation_unpinned",
    "export_timeline",
];

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn row(name: &str) -> &'static Row {
    let found = figures::ROWS.iter().find(|r| r.name == name);
    found.unwrap_or_else(|| panic!("no row named {name}"))
}

fn run(name: &str, sweeps: &Sweeps) -> Outputs {
    (row(name).run)(sweeps, &mut io::sink()).expect("row runs")
}

#[test]
fn every_results_file_has_exactly_one_owner() {
    let mut owners: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for r in figures::ROWS {
        assert!(
            figures::ROWS.iter().filter(|o| o.name == r.name).count() == 1,
            "row name `{}` is not unique",
            r.name
        );
        for file in r.outputs {
            owners.entry(file).or_default().push(r.name);
        }
    }
    for (file, rows) in &owners {
        assert!(rows.len() == 1, "{file} is owned by {rows:?}");
        assert!(
            results().join(file).is_file(),
            "{file} (row `{}`) is not committed under results/",
            rows[0]
        );
    }
    for entry in std::fs::read_dir(results()).expect("results/ readable") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            owners.contains_key(name.as_str()) || NOT_REGENERATED.contains(&name.as_str()),
            "results/{name} is owned by no row of dlsr::figures::ROWS"
        );
    }
}

#[test]
fn cheap_rows_reproduce_the_committed_bytes() {
    let rows: Vec<&Row> = CHEAP.iter().map(|n| row(n)).collect();
    let files = figures::produce(&rows, &Sweeps::default(), &mut io::sink()).unwrap();
    let stale = figures::stale(&files, &results()).unwrap();
    assert!(stale.is_empty(), "stale committed results: {stale:?}");
}

#[test]
fn shared_sweeps_run_once() {
    // Figs 10-13 over a 2-point node list: three scenarios x two points,
    // plus MPI-Reg at the one multi-node point Fig 11 sweeps.
    let sweeps = Sweeps::with_nodes(&[1, 2]);
    for name in ["fig10", "fig11", "fig12", "fig13"] {
        run(name, &sweeps);
    }
    assert_eq!(sweeps.runs(), 3 * 2 + 1);
    assert_eq!(sweeps.hits(), (4 + 2 + 6 + 6) - 7);

    // Table I is Fig 14's profile presented again.
    run("fig14", &sweeps);
    assert_eq!(sweeps.runs(), 7 + 2);
    run("table1", &sweeps);
    assert_eq!(sweeps.runs(), 7 + 2, "table1 re-ran fig14's profile");
}

#[test]
fn a_row_writes_the_same_bytes_whatever_ran_before_it() {
    let alone = [
        run("fig14", &Sweeps::default()),
        run("table1", &Sweeps::default()),
    ];
    let forward = Sweeps::default();
    assert_eq!([run("fig14", &forward), run("table1", &forward)], alone);
    let backward = Sweeps::default();
    let table1 = run("table1", &backward);
    assert_eq!([run("fig14", &backward), table1], alone);
}

#[test]
fn check_names_exactly_the_files_that_differ_or_are_missing() {
    let names = ["fig01", "fig09", "ablation_unpinned"];
    let rows: Vec<&Row> = names.iter().map(|n| row(n)).collect();
    let dir = std::env::temp_dir().join(format!("dlsr-figures-check-{}", std::process::id()));
    let files = figures::produce(&rows, &Sweeps::default(), &mut io::sink()).unwrap();
    figures::write(&files, &dir).unwrap();
    let check = || figures::stale(&files, &dir).unwrap();
    assert!(check().is_empty(), "what was just written must check clean");

    let flipped = dir.join("fig01_results.json");
    let mut bytes = std::fs::read(&flipped).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&flipped, bytes).unwrap();
    std::fs::remove_file(dir.join("fig09_results.json")).unwrap();

    let stale = check();
    std::fs::remove_dir_all(&dir).unwrap();
    let files: Vec<&str> = stale.iter().map(|(file, _)| file.as_str()).collect();
    assert_eq!(files, ["fig01_results.json", "fig09_results.json"]);
    assert!(stale[0].1.starts_with("line "), "{stale:?}");
    assert_eq!(stale[1].1, "missing");
}
